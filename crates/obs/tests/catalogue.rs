//! The metric catalogue of `docs/OBSERVABILITY.md` and the name constants of
//! `dyndens_obs::names` list the same metrics. A constant added, renamed or
//! removed without its catalogue row, or a row without its constant, fails
//! here.

use std::collections::BTreeSet;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `dyndens_…` name that follows `open` in `text`, up to `close`.
fn names_after(text: &str, open: &str, close: char) -> BTreeSet<String> {
    text.match_indices(open)
        .filter_map(|(at, _)| {
            let name = &text[at + open.len() - "dyndens_".len()..];
            name.find(close).map(|end| name[..end].to_string())
        })
        .collect()
}

#[test]
fn metric_catalogue_lists_exactly_the_named_metrics() {
    // String constants in the code; first cells of the catalogue's tables.
    let code = names_after(&read("src/lib.rs"), "\"dyndens_", '"');
    let docs = names_after(&read("../../docs/OBSERVABILITY.md"), "| `dyndens_", '`');
    assert!(!code.is_empty(), "no metric name constants found");
    let undocumented: Vec<_> = code.difference(&docs).collect();
    let unknown: Vec<_> = docs.difference(&code).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "constants without a catalogue row: {undocumented:?}; \
         catalogue rows without a constant: {unknown:?}"
    );
}

//! `docs/PROTOCOL.md` and the code give the same framing constants, tags
//! and error codes: the §2 length bound and CRC check value, the §4 request
//! tag table, the tag in each §5 response heading, the §5.4 journal event
//! table, the §5.8 error-code table and the §9 worked examples. One value
//! of every message variant is encoded and its tag byte (payload byte 1,
//! after the version) compared with the documented one; one value of every
//! journal event is encoded and its tag, kind and length compared with its
//! row. A constant, tag, code or layout changed on one side only fails
//! here.

use std::collections::BTreeMap;
use std::path::Path;

use dyndens_core::EngineStats;
use dyndens_graph::codec::crc32;
use dyndens_obs::{ObsEvent, RebalanceStage, RegistrySnapshot};
use dyndens_serve::{ErrorCode, Request, Response, ServeStats, MAX_FRAME_LEN, PROTOCOL_VERSION};

fn protocol_md() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/PROTOCOL.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of `doc` from the heading starting with `from` up to the next
/// heading starting with `to`.
fn section<'a>(doc: &'a str, from: &str, to: &str) -> Vec<&'a str> {
    doc.lines()
        .skip_while(|line| !line.starts_with(from))
        .skip(1)
        .take_while(|line| !line.starts_with(to))
        .collect()
}

/// The value of the first `` `0xNN` `` in `text`.
fn hex_tag(text: &str) -> Option<u8> {
    let at = text.find("`0x")? + 3;
    u8::from_str_radix(text.get(at..at + 2)?, 16).ok()
}

/// The tag byte of an encoded payload (byte 0 is the protocol version).
fn tag_of(encode: impl FnOnce(&mut Vec<u8>)) -> u8 {
    let mut payload = Vec::new();
    encode(&mut payload);
    payload[1]
}

fn request_name(request: &Request) -> &'static str {
    match request {
        Request::TopK { .. } => "TopK",
        Request::Poll { .. } => "Poll",
        Request::Stats => "Stats",
        Request::Metrics => "Metrics",
        Request::Subscribe { .. } => "Subscribe",
        Request::Unsubscribe => "Unsubscribe",
    }
}

fn response_name(response: &Response) -> &'static str {
    match response {
        Response::Stories { .. } => "Stories",
        Response::Poll { .. } => "Poll",
        Response::Stats { .. } => "Stats",
        Response::Metrics { .. } => "Metrics",
        Response::Subscribed { .. } => "Subscribed",
        Response::Unsubscribed => "Unsubscribed",
        Response::Push { .. } => "Push",
        Response::Error { .. } => "Error",
    }
}

/// One value of each journal event kind. The match has no wildcard, so a
/// new kind fails to compile here until it has a sample (and a §5.4 row).
fn event_samples() -> Vec<ObsEvent> {
    let stage = RebalanceStage::Committed;
    let samples = vec![
        ObsEvent::Recovery {
            shard: 1,
            snapshot_seq: 2,
            replayed_updates: 3,
            recovered_seq: 5,
            repaired_torn_tail: true,
        },
        ObsEvent::SplitPhase {
            slot: 0,
            new_slot: 1,
            stage,
            parked: 7,
        },
        ObsEvent::MergePhase {
            slot: 0,
            freed_slot: 1,
            stage,
            parked: 7,
        },
        ObsEvent::CompactionWindow {
            pruned_pairs: 1,
            cancelled_updates: 2,
            evicted_edges: 3,
            reclaimed_bytes: 4,
        },
    ];
    for event in &samples {
        match event {
            ObsEvent::Recovery { .. }
            | ObsEvent::SplitPhase { .. }
            | ObsEvent::MergePhase { .. }
            | ObsEvent::CompactionWindow { .. } => {}
        }
    }
    samples
}

/// The encoded size of a field type named in a §5.4 row.
fn field_bytes(ty: &str) -> usize {
    match ty {
        "u8" => 1,
        "u32" => 4,
        "u64" => 8,
        _ => panic!("§5.4 names an unknown field type {ty:?}"),
    }
}

/// How each code's row in the §5.8 table begins.
fn error_meaning(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::UnsupportedVersion => "unsupported protocol version",
        ErrorCode::UnknownTag => "unknown request tag",
        ErrorCode::Malformed => "malformed request body",
        ErrorCode::BadCursor => "bad poll cursor",
        ErrorCode::SlowConsumer => "slow consumer",
        ErrorCode::Unsupported => "unsupported:",
    }
}

/// The text of `doc` between the first `before` and the next `after`.
fn between<'a>(doc: &'a str, before: &str, after: &str) -> &'a str {
    let from = doc
        .find(before)
        .unwrap_or_else(|| panic!("no {before:?} in {doc:?}"))
        + before.len();
    let len = doc[from..]
        .find(after)
        .unwrap_or_else(|| panic!("no {after:?} after {before:?}"));
    &doc[from..from + len]
}

#[test]
fn framing_constants_match_section_2() {
    let doc = protocol_md();
    // One line, so a phrase the doc wraps still matches.
    let framing = section(&doc, "## 2.", "## ")
        .join(" ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    let bound: u32 = between(&framing, "`len > ", "`")
        .replace('_', "")
        .parse()
        .expect("§2's length bound is a number");
    assert_eq!(bound, MAX_FRAME_LEN, "§2 length bound (right: protocol.rs)");
    let input = between(&framing, "check value of `\"", "\"`");
    let check = u32::from_str_radix(between(&framing, "` is `0x", "`"), 16)
        .expect("§2's check value is hex");
    assert_eq!(
        check,
        crc32(input.as_bytes()),
        "§2 CRC check value of {input:?} (right: codec.rs)"
    );
}

#[test]
fn request_tags_match_the_section_4_table() {
    let doc = protocol_md();
    let documented: BTreeMap<String, u8> = section(&doc, "## 4.", "## ")
        .into_iter()
        .filter(|line| line.starts_with("| `0x"))
        .map(|row| {
            let name = row.split('|').nth(2).expect("a name cell").trim();
            (name.to_string(), hex_tag(row).expect("a tag cell"))
        })
        .collect();
    let requests = [
        Request::TopK { k: 1 },
        Request::Poll { since: vec![] },
        Request::Stats,
        Request::Metrics,
        Request::Subscribe { since: vec![] },
        Request::Unsubscribe,
    ];
    let encoded: BTreeMap<String, u8> = requests
        .iter()
        .map(|r| {
            (
                request_name(r).to_string(),
                tag_of(|buf| r.encode_into(buf)),
            )
        })
        .collect();
    assert_eq!(encoded, documented, "§4 request tags (left: protocol.rs)");
}

#[test]
fn response_tags_match_the_section_5_headings() {
    let doc = protocol_md();
    let documented: BTreeMap<String, u8> = section(&doc, "## 5.", "## ")
        .into_iter()
        .filter(|line| line.starts_with("### 5."))
        .map(|heading| {
            let name = heading.split_whitespace().nth(2).expect("a heading name");
            let tag = hex_tag(heading).unwrap_or_else(|| panic!("no tag in {heading:?}"));
            (name.to_string(), tag)
        })
        .collect();
    let responses = [
        Response::Stories {
            per_shard_seq: vec![],
            stories: vec![],
        },
        Response::Poll {
            n_shards: 0,
            entries: vec![],
        },
        Response::Stats {
            stats: EngineStats::default(),
            serve: ServeStats::default(),
            shards: vec![],
        },
        Response::Metrics {
            registry: RegistrySnapshot::default(),
        },
        Response::Subscribed { n_shards: 0 },
        Response::Unsubscribed,
        Response::Push {
            n_shards: 0,
            entries: vec![],
        },
        Response::Error {
            code: ErrorCode::Malformed,
            message: String::new(),
        },
    ];
    let encoded: BTreeMap<String, u8> = responses
        .iter()
        .map(|r| {
            (
                response_name(r).to_string(),
                tag_of(|buf| r.encode_into(buf)),
            )
        })
        .collect();
    assert_eq!(encoded, documented, "§5 response tags (left: protocol.rs)");
}

#[test]
fn error_codes_match_the_section_5_8_table() {
    let doc = protocol_md();
    let documented: BTreeMap<u8, String> = section(&doc, "### 5.8", "## ")
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.split('|').skip(1);
            let code = cells.next()?.trim().parse().ok()?;
            Some((code, cells.next()?.trim().to_string()))
        })
        .collect();
    let codes = [
        ErrorCode::UnsupportedVersion,
        ErrorCode::UnknownTag,
        ErrorCode::Malformed,
        ErrorCode::BadCursor,
        ErrorCode::SlowConsumer,
        ErrorCode::Unsupported,
    ];
    assert_eq!(documented.len(), codes.len(), "§5.8 rows: {documented:?}");
    for code in codes {
        let row = documented
            .get(&(code as u8))
            .unwrap_or_else(|| panic!("§5.8 has no row for {code:?} = {}", code as u8));
        assert!(
            row.starts_with(error_meaning(code)),
            "§5.8 row {} reads {row:?}, which is not {code:?}",
            code as u8
        );
    }
}

#[test]
fn journal_events_match_the_section_5_4_table() {
    let doc = protocol_md();
    // tag -> (kind, bytes)
    let documented: BTreeMap<u8, (String, usize)> = section(&doc, "### 5.4", "### ")
        .into_iter()
        .filter_map(|row| {
            let cells: Vec<&str> = row
                .split(" | ")
                .map(|c| c.trim_matches(['|', ' ']))
                .collect();
            let tag: u8 = cells.first()?.parse().ok()?;
            let (kind, fields, bytes) = (cells[1], cells[2], cells[3]);
            let bytes: usize = bytes.parse().expect("a byte count");
            // The fields column is `name type \| name type ...`, tag excluded.
            let summed: usize = fields
                .trim_matches('`')
                .split("\\|")
                .map(|field| field_bytes(field.split_whitespace().nth(1).expect("a type")))
                .sum();
            assert_eq!(
                1 + summed,
                bytes,
                "§5.4 row {tag}: its fields and its byte count"
            );
            Some((tag, (kind.trim_matches('`').to_string(), bytes)))
        })
        .collect();
    let encoded: BTreeMap<u8, (String, usize)> = event_samples()
        .iter()
        .map(|event| {
            let mut body = Vec::new();
            event.encode_into(&mut body);
            (body[0], (event.kind().to_string(), body.len()))
        })
        .collect();
    assert_eq!(encoded, documented, "§5.4 event table (left: journal.rs)");
}

#[test]
fn worked_examples_are_frames_of_this_version() {
    let doc = protocol_md();
    let examples = section(&doc, "## 9.", "## ").join("\n");
    let blocks: Vec<Vec<u8>> = examples
        .split("```")
        .skip(1)
        .step_by(2)
        .map(|block| {
            block
                .lines()
                .skip(1)
                .flat_map(|line| {
                    line.split_whitespace()
                        .take_while(|t| t.len() == 2)
                        .map_while(|t| u8::from_str_radix(t, 16).ok())
                })
                .collect()
        })
        .collect();
    assert_eq!(blocks.len(), 5, "§9's examples");
    for frame in blocks {
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        let payload = &frame[8..];
        assert_eq!(len, payload.len(), "§9 frame {frame:02x?}: len");
        assert_eq!(crc, crc32(payload), "§9 frame {frame:02x?}: crc");
        assert_eq!(payload[0], PROTOCOL_VERSION, "§9 frame {frame:02x?}");
        Request::decode(payload).unwrap_or_else(|e| panic!("§9 frame {frame:02x?}: {e}"));
    }
}

//! Mapping between real-world entity names and graph vertices.

use dyndens_graph::{FxHashMap, VertexId};

/// A bidirectional registry of entity names (people, places, products, ...) to
/// the dense integer [`VertexId`]s used by the entity graph.
///
/// Entity extraction itself (finding entity mentions in raw post text) is out
/// of scope — posts arrive already annotated with entity names, as in the
/// paper's pipeline where an in-house extractor runs upstream of the graph
/// maintenance.
#[derive(Debug, Clone, Default)]
pub struct EntityRegistry {
    by_name: FxHashMap<String, VertexId>,
    names: Vec<String>,
}

impl EntityRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the vertex for `name`, registering it if it has not been seen
    /// before.
    pub fn intern(&mut self, name: &str) -> VertexId {
        self.intern_new(name).0
    }

    /// Like [`intern`](Self::intern), and also says whether this call
    /// registered the name (`true`) or found it (`false`), with one lookup
    /// for a name already known.
    pub fn intern_new(&mut self, name: &str) -> (VertexId, bool) {
        if let Some(&id) = self.by_name.get(name) {
            return (id, false);
        }
        let id = VertexId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        (id, true)
    }

    /// Looks up the vertex for `name` without registering it.
    pub fn get(&self, name: &str) -> Option<VertexId> {
        self.by_name.get(name).copied()
    }

    /// The name registered for `id`, if any.
    pub fn name(&self, id: VertexId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// All registered names, in intern (= vertex id) order: `names()[i]` is
    /// the name of `VertexId(i)`. A serving process snapshots this slice into
    /// its name table so wire-level stories carry human-readable entities.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of registered entities.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no entities are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Renders a vertex set as a human-readable list of entity names,
    /// falling back to the numeric id for unregistered vertices.
    pub fn describe(&self, vertices: impl IntoIterator<Item = VertexId>) -> Vec<String> {
        vertices
            .into_iter()
            .map(|v| {
                self.name(v)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("entity#{v}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut reg = EntityRegistry::new();
        let a = reg.intern("Barack Obama");
        let b = reg.intern("Osama bin Laden");
        assert_ne!(a, b);
        assert_eq!(reg.intern("Barack Obama"), a);
        assert_eq!(reg.intern_new("Barack Obama"), (a, false));
        assert_eq!(reg.intern_new("NATO"), (VertexId(2), true));
        assert_eq!(reg.intern_new("NATO"), (VertexId(2), false));
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
    }

    #[test]
    fn lookup_and_names() {
        let mut reg = EntityRegistry::new();
        let a = reg.intern("Abbottabad");
        assert_eq!(reg.get("Abbottabad"), Some(a));
        assert_eq!(reg.get("C.I.A."), None);
        assert_eq!(reg.name(a), Some("Abbottabad"));
        assert_eq!(reg.name(VertexId(99)), None);
    }

    #[test]
    fn describe_falls_back_to_ids() {
        let mut reg = EntityRegistry::new();
        let a = reg.intern("NATO");
        let described = reg.describe([a, VertexId(7)]);
        assert_eq!(described, vec!["NATO".to_string(), "entity#7".to_string()]);
    }
}

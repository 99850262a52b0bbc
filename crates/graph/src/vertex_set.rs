//! Sorted vertex subsets, used to denote (dense) subgraphs.

use crate::VertexId;

/// A subgraph is identified by its vertex subset `C ⊆ V`, stored as a sorted,
/// duplicate-free vector of [`VertexId`]s.
///
/// The sorted representation matches the prefix-tree index of the core crate
/// (tree paths are lexicographically sorted vertex sequences) and gives cheap,
/// deterministic equality/ordering for use as a map key and in test oracles.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexSet {
    vertices: Vec<VertexId>,
}

impl VertexSet {
    /// Creates an empty vertex set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a vertex set from an arbitrary collection of vertices,
    /// sorting and de-duplicating them.
    pub fn from_vertices<I: IntoIterator<Item = VertexId>>(vertices: I) -> Self {
        let mut v: Vec<VertexId> = vertices.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        VertexSet { vertices: v }
    }

    /// Creates a vertex set from a slice of raw `u32` identifiers
    /// (convenience for tests and examples).
    pub fn from_ids(ids: &[u32]) -> Self {
        Self::from_vertices(ids.iter().copied().map(VertexId))
    }

    /// Creates the two-vertex set `{a, b}`.
    pub fn pair(a: VertexId, b: VertexId) -> Self {
        Self::from_vertices([a, b])
    }

    /// Number of vertices `|C|` (the subgraph cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` if the set contains no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Returns `true` if `v` is a member of the set.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// The sorted vertices as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.iter().copied()
    }

    /// Returns a new set with `v` added (no-op if already present).
    pub fn with(&self, v: VertexId) -> Self {
        match self.vertices.binary_search(&v) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut vertices = Vec::with_capacity(self.vertices.len() + 1);
                vertices.extend_from_slice(&self.vertices[..pos]);
                vertices.push(v);
                vertices.extend_from_slice(&self.vertices[pos..]);
                VertexSet { vertices }
            }
        }
    }

    /// Returns a new set with `v` removed (no-op if absent).
    pub fn without(&self, v: VertexId) -> Self {
        match self.vertices.binary_search(&v) {
            Err(_) => self.clone(),
            Ok(pos) => {
                let mut vertices = self.vertices.clone();
                vertices.remove(pos);
                VertexSet { vertices }
            }
        }
    }

    /// Adds a vertex in place (no-op if already present). Returns `true` if the
    /// vertex was inserted.
    pub fn insert(&mut self, v: VertexId) -> bool {
        match self.vertices.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.vertices.insert(pos, v);
                true
            }
        }
    }

    /// Returns `true` if `self` is a subset of `other`.
    pub fn is_subset_of(&self, other: &VertexSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut it = other.vertices.iter().copied().peekable();
        'outer: for &v in &self.vertices {
            for o in it.by_ref() {
                match o.cmp(&v) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Returns the number of vertices shared with `other`.
    pub fn intersection_size(&self, other: &VertexSet) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < self.vertices.len() && j < other.vertices.len() {
            match self.vertices[i].cmp(&other.vertices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

impl FromIterator<VertexId> for VertexSet {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        Self::from_vertices(iter)
    }
}

impl<'a> IntoIterator for &'a VertexSet {
    type Item = VertexId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VertexId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vertices.iter().copied()
    }
}

impl std::fmt::Display for VertexSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vertices_sorts_and_dedups() {
        let s = VertexSet::from_ids(&[5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), &[VertexId(1), VertexId(3), VertexId(5)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn contains_and_with_without() {
        let s = VertexSet::from_ids(&[1, 3, 5]);
        assert!(s.contains(VertexId(3)));
        assert!(!s.contains(VertexId(4)));

        let t = s.with(VertexId(4));
        assert_eq!(
            t.as_slice(),
            &[VertexId(1), VertexId(3), VertexId(4), VertexId(5)]
        );
        // original untouched
        assert_eq!(s.len(), 3);
        assert_eq!(s.with(VertexId(3)), s);

        let u = t.without(VertexId(1));
        assert_eq!(u.as_slice(), &[VertexId(3), VertexId(4), VertexId(5)]);
        assert_eq!(u.without(VertexId(99)), u);
    }

    #[test]
    fn insert_in_place() {
        let mut s = VertexSet::new();
        assert!(s.insert(VertexId(4)));
        assert!(s.insert(VertexId(2)));
        assert!(!s.insert(VertexId(4)));
        assert_eq!(s.as_slice(), &[VertexId(2), VertexId(4)]);
    }

    #[test]
    fn subset_and_intersection() {
        let a = VertexSet::from_ids(&[1, 3]);
        let b = VertexSet::from_ids(&[1, 2, 3, 4]);
        let c = VertexSet::from_ids(&[3, 5]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(!c.is_subset_of(&b));
        assert!(a.is_subset_of(&a));
        assert_eq!(a.intersection_size(&c), 1);
        assert_eq!(b.intersection_size(&c), 1);
        assert_eq!(a.intersection_size(&b), 2);
    }

    #[test]
    fn pair_and_display() {
        let p = VertexSet::pair(VertexId(9), VertexId(2));
        assert_eq!(p.as_slice(), &[VertexId(2), VertexId(9)]);
        assert_eq!(p.to_string(), "{2, 9}");
        assert_eq!(VertexSet::new().to_string(), "{}");
    }

    #[test]
    fn iteration_orders_ascending() {
        let s = VertexSet::from_ids(&[9, 1, 4]);
        let collected: Vec<u32> = s.iter().map(|v| v.0).collect();
        assert_eq!(collected, vec![1, 4, 9]);
        let collected2: Vec<u32> = (&s).into_iter().map(|v| v.0).collect();
        assert_eq!(collected2, vec![1, 4, 9]);
    }
}

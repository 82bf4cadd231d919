//! Compressed sparse row (CSR) adjacency over dense AS ids.
//!
//! The inference pipeline repeatedly walks neighbor lists of graphs whose
//! node set is fixed once built (the c2p digraph, its condensation). A
//! CSR layout — one offsets array, one flat targets array — keeps every
//! neighbor list contiguous, halves the memory of `Vec<Vec<u32>>`, and
//! removes a pointer chase per node. Construction is two counting passes,
//! `O(nodes + edges)`, with no per-node allocation.

/// An immutable digraph in compressed sparse row form.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Build from an edge list over `0..n`. Parallel edges are kept as
    /// given (dedup the input first when that matters); neighbor lists
    /// preserve the relative input order of their edges.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut counts = vec![0u32; n + 1];
        for &(u, _) in edges {
            counts[u as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            let slot = cursor[u as usize];
            targets[slot as usize] = v;
            cursor[u as usize] = slot + 1;
        }
        Csr { offsets, targets }
    }

    /// Build with every neighbor list sorted ascending and deduplicated.
    pub fn from_edges_dedup(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Self::from_edges(n, edges);
        let mut write = 0u32;
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        for u in 0..n {
            let (start, end) = (g.offsets[u] as usize, g.offsets[u + 1] as usize);
            let list = &mut g.targets[start..end];
            list.sort_unstable();
            let mut prev = None;
            let from = start;
            let mut kept = 0usize;
            for i in from..end {
                let v = g.targets[i];
                if prev != Some(v) {
                    g.targets[write as usize + kept] = v;
                    kept += 1;
                    prev = Some(v);
                }
            }
            write += kept as u32;
            new_offsets.push(write);
        }
        g.targets.truncate(write as usize);
        g.offsets = new_offsets;
        g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Out-neighbors of `u` as a contiguous slice.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let start = self.offsets[u as usize] as usize;
        let end = self.offsets[u as usize + 1] as usize;
        &self.targets[start..end]
    }

    /// Out-degree of `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }
}

/// Read-only adjacency access, so graph algorithms accept either a CSR or
/// the ad-hoc `Vec<Vec<u32>>` adjacency tests build by hand.
pub trait Adjacency {
    /// Out-neighbors of `u`.
    fn neighbors(&self, u: u32) -> &[u32];
}

impl Adjacency for Csr {
    fn neighbors(&self, u: u32) -> &[u32] {
        Csr::neighbors(self, u)
    }
}

impl Adjacency for [Vec<u32>] {
    fn neighbors(&self, u: u32) -> &[u32] {
        &self[u as usize]
    }
}

impl Adjacency for Vec<Vec<u32>> {
    fn neighbors(&self, u: u32) -> &[u32] {
        &self[u as usize]
    }
}

impl<A: Adjacency + ?Sized> Adjacency for &A {
    fn neighbors(&self, u: u32) -> &[u32] {
        (**self).neighbors(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_preserves_edge_order() {
        let g = Csr::from_edges(4, &[(0, 2), (0, 1), (2, 3), (0, 2)]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.neighbors(0), &[2, 1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn dedup_sorts_and_removes_duplicates() {
        let g = Csr::from_edges_dedup(4, &[(0, 2), (0, 1), (2, 3), (0, 2), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.len(), 0);
        assert!(g.is_empty());
        let g = Csr::from_edges_dedup(3, &[]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
    }

    #[test]
    fn adjacency_trait_covers_vec_of_vec() {
        fn degree_sum<A: Adjacency>(n: usize, a: A) -> usize {
            (0..n as u32).map(|u| a.neighbors(u).len()).sum()
        }
        let vv = vec![vec![1u32, 2], vec![], vec![0]];
        assert_eq!(degree_sum(3, &vv), 3);
        let csr = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 0)]);
        assert_eq!(degree_sum(3, &csr), 3);
    }
}

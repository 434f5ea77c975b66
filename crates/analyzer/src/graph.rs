//! A minimal dependency-graph view for the cycle/deadlock pass (ZL006),
//! plus the ancestor bitsets the dataflow passes share.
//!
//! A [`zerosim_simkit::Dag`] is acyclic by construction
//! (`DagBuilder::push` requires every dependency to precede its task), so
//! ZL006 never looks at one. It checks only graphs built from untrusted
//! edge lists by [`GraphView::from_edges`], which may be cyclic or
//! dangling.

/// A dependency graph: node `i` depends on every node in `preds[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphView {
    preds: Vec<Vec<usize>>,
}

impl GraphView {
    /// A graph over `n` nodes from `(from, to)` edges (`to` depends on
    /// `from`). Edges may form cycles or reference nodes `>= n`
    /// (dangling); the passes report both.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut preds = vec![Vec::new(); n];
        for &(from, to) in edges {
            if to < n {
                preds[to].push(from);
            }
        }
        GraphView { preds }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Dependencies of node `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// The first dangling dependency `(node, missing_pred)`, if any.
    pub fn first_dangling(&self) -> Option<(usize, usize)> {
        let n = self.len();
        for (i, ps) in self.preds.iter().enumerate() {
            if let Some(&p) = ps.iter().find(|&&p| p >= n) {
                return Some((i, p));
            }
        }
        None
    }

    /// Detects a dependency cycle (Kahn's algorithm). Returns the nodes
    /// stuck on a cycle (in index order), or `None` when acyclic.
    ///
    /// Dangling dependencies (`pred >= len`) are ignored here; see
    /// [`GraphView::first_dangling`].
    pub fn cycle_members(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in self.preds.iter().enumerate() {
            for &p in ps {
                if p < n {
                    indeg[i] += 1;
                    succs[p].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &s in &succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if seen == n {
            None
        } else {
            Some((0..n).filter(|&i| indeg[i] > 0).collect())
        }
    }
}

/// Per-op ancestor sets over a dependency graph, as bitsets.
///
/// Used by the dataflow passes (ZL002/ZL003) to answer "which producer
/// ops happen-before this consumer op" exactly, instead of trusting the
/// emission order.
#[derive(Debug, Clone)]
pub struct Ancestors {
    words: usize,
    bits: Vec<u64>,
}

impl Ancestors {
    /// Computes ancestor bitsets for a graph whose `preds` are strictly
    /// decreasing (topologically ordered by index), e.g. an
    /// [`zerosim_strategies::WorkloadPlan`] or a lowered DAG.
    pub fn compute(preds_of: impl Fn(usize) -> Vec<usize>, n: usize) -> Self {
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for i in 0..n {
            for p in preds_of(i) {
                if p >= i {
                    continue; // not topologically ordered; skip defensively
                }
                // anc[i] |= anc[p] | {p}
                let (lo, hi) = (p * words, i * words);
                for w in 0..words {
                    let v = bits[lo + w];
                    bits[hi + w] |= v;
                }
                bits[hi + p / 64] |= 1u64 << (p % 64);
            }
        }
        Ancestors { words, bits }
    }

    /// True when `anc` is an ancestor of `node`.
    pub fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        self.bits[node * self.words + anc / 64] & (1u64 << (anc % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let g = GraphView::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.cycle_members(), None);
        assert_eq!(g.first_dangling(), None);
        assert_eq!(g.preds(2), &[1, 0]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn cycle_is_detected_with_members() {
        let g = GraphView::from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let members = g.cycle_members().unwrap();
        assert!(members.contains(&1));
        assert!(members.contains(&2));
        assert!(!members.contains(&0));
    }

    #[test]
    fn dangling_edge_is_reported() {
        let g = GraphView::from_edges(2, &[(7, 1)]);
        assert_eq!(g.first_dangling(), Some((1, 7)));
    }

    #[test]
    fn ancestors_are_transitive() {
        // 0 -> 1 -> 3, 2 isolated.
        let preds: Vec<Vec<usize>> = vec![vec![], vec![0], vec![], vec![1]];
        let a = Ancestors::compute(|i| preds[i].clone(), 4);
        assert!(a.is_ancestor(0, 1));
        assert!(a.is_ancestor(0, 3));
        assert!(a.is_ancestor(1, 3));
        assert!(!a.is_ancestor(2, 3));
        assert!(!a.is_ancestor(3, 0));
    }
}

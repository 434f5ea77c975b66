//! A minimal dependency-graph view for the cycle/deadlock pass (ZL006),
//! plus the grouped ancestor sets the dataflow passes share.
//!
//! A [`zerosim_simkit::Dag`] is acyclic by construction
//! (`DagBuilder::push` requires every dependency to precede its task), so
//! ZL006 never looks at one. It checks only graphs built from untrusted
//! edge lists by [`GraphView::from_edges`], which may be cyclic or
//! dangling. A [`GraphView`] keeps its edges in a [`Csr`], the layout the
//! task graph and the workload plan share, and takes its successors from
//! [`Csr::transpose`].
//!
//! [`Ancestors`] answers "does some op of this group happen before that
//! op" over a [`WorkloadPlan`]'s dependency rows. ZL002 and ZL003 ask it
//! about a few groups of possible ancestors (the pool producers, the
//! backward ops, one decode step's compute), so it keeps one bit per
//! group and op: its memory grows with the plan, not with its square.

use zerosim_simkit::Csr;
use zerosim_strategies::WorkloadPlan;

/// A dependency graph: node `i` depends on every node in `preds(i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphView {
    preds: Csr<usize>,
}

impl GraphView {
    /// A graph over `n` nodes from `(from, to)` edges (`to` depends on
    /// `from`). Edges may form cycles or reference nodes `>= n`
    /// (dangling); the passes report both.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        GraphView {
            preds: Csr::from_pairs(n, edges.iter().map(|&(from, to)| (to, from))),
        }
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
        self.preds.row(i)
    }

    /// The first dangling dependency `(node, missing_pred)`, if any.
    pub fn first_dangling(&self) -> Option<(usize, usize)> {
        let n = self.len();
        self.preds
            .rows()
            .enumerate()
            .find_map(|(i, ps)| ps.iter().find(|&&p| p >= n).map(|&p| (i, p)))
    }

    /// Detects a dependency cycle (Kahn's algorithm). Returns the nodes
    /// stuck on a cycle (in index order), or `None` when acyclic.
    ///
    /// Dangling dependencies (`pred >= len`) are ignored here; see
    /// [`GraphView::first_dangling`].
    pub fn cycle_members(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let succs = self.preds.transpose();
        let mut indeg = vec![0usize; n];
        for s in succs.rows().flatten() {
            indeg[*s] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &s in succs.row(i) {
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

/// Which groups of ops happen before each op of a plan, as one bitset
/// per op with one bit per group.
///
/// Used by the dataflow passes (ZL002/ZL003) to answer "does a producer
/// (or a backward op, or this step's compute) happen before this
/// consumer" from the dependency edges, instead of trusting the emission
/// order.
#[derive(Debug, Clone)]
pub struct Ancestors {
    groups: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Ancestors {
    /// Walks `plan`'s dependency rows once in op order. `group_of[i]`
    /// names the one group op `i` belongs to, if any; groups are numbered
    /// from 0.
    ///
    /// # Panics
    /// Panics if `group_of` is shorter than the plan.
    pub fn new(plan: &WorkloadPlan, group_of: &[Option<usize>]) -> Self {
        let groups = group_of.iter().flatten().max().map_or(0, |g| g + 1);
        let words = groups.div_ceil(64);
        let mut bits = vec![0u64; plan.len() * words];
        for i in 0..plan.len() {
            for d in plan.deps(i) {
                let p = d.index();
                // anc[i] |= anc[p] | group(p); p < i, so p's row is final.
                let (done, row) = bits.split_at_mut(i * words);
                for (w, v) in row[..words].iter_mut().zip(&done[p * words..]) {
                    *w |= v;
                }
                if let Some(g) = group_of[p] {
                    row[g / 64] |= 1u64 << (g % 64);
                }
            }
        }
        Ancestors {
            groups,
            words,
            bits,
        }
    }

    /// True when some op of `group` is an ancestor of op `op` (an op is
    /// not its own ancestor). A group no op belongs to reaches nothing.
    pub fn reaches(&self, group: usize, op: usize) -> bool {
        group < self.groups && self.bits[op * self.words + group / 64] & (1u64 << (group % 64)) != 0
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
    fn ancestors_are_transitive_per_group() {
        use zerosim_strategies::PlanOp;
        // 0 -> 1 -> 3, 2 isolated; ops 0 and 2 form group 0, op 1 group 1.
        let mut plan = WorkloadPlan::new();
        let a = plan.push(PlanOp::Barrier, &[]);
        let b = plan.push(PlanOp::Barrier, &[a]);
        plan.push(PlanOp::Barrier, &[]);
        plan.push(PlanOp::Barrier, &[b]);
        let anc = Ancestors::new(&plan, &[Some(0), Some(1), Some(0), None]);
        assert!(anc.reaches(0, 1));
        assert!(anc.reaches(0, 3));
        assert!(anc.reaches(1, 3));
        assert!(!anc.reaches(0, 0), "an op is not its own ancestor");
        assert!(!anc.reaches(1, 2));
        assert!(!anc.reaches(0, 2));
        assert!(!anc.reaches(2, 3), "no op is in group 2");
    }
}

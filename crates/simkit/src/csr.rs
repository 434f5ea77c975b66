//! Compressed sparse row (CSR) edge lists: the one layout every
//! dependency graph in the workspace keeps its edges in.
//!
//! A [`Csr`] holds one row of entries per node: every row back to back in
//! one edge array, plus the `u32` end offset of each row. Appending a row
//! and reading one never allocate per node, so a graph of any size costs
//! a handful of allocations. The task graph ([`crate::Dag`]) keeps its
//! predecessor and successor edges in it, the workload plan its op
//! dependencies, and the analyzer its untrusted graphs.
//!
//! [`Csr::transpose`] is the one successor derivation: from predecessor
//! rows it builds successor rows in ascending node order, with repeats
//! kept. [`Csr::from_pairs`] groups unordered `(row, entry)` pairs the
//! same way.

use std::ops::Range;

/// A node id [`Csr::transpose`] can map to and from its row index.
pub trait NodeIndex: Copy {
    /// The row index of this node.
    fn index(self) -> usize;
    /// The node at row `index`.
    fn from_index(index: usize) -> Self;
}

impl NodeIndex for usize {
    fn index(self) -> usize {
        self
    }

    fn from_index(index: usize) -> Self {
        index
    }
}

/// Rows of entries in compressed sparse row form (see the
/// [module docs](self)).
///
/// ```
/// use zerosim_simkit::Csr;
///
/// let mut preds: Csr<usize> = Csr::new();
/// preds.push_row(&[]);
/// preds.push_row(&[0]);
/// preds.push_row(&[0, 1, 0]);
/// assert_eq!(preds.row(2), &[0, 1, 0]);
/// let succs = preds.transpose();
/// assert_eq!(succs.row(0), &[1, 2, 2]);
/// assert_eq!(succs.row(1), &[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// Every row's entries, back to back.
    edges: Vec<T>,
    /// End of each row's slice of `edges`.
    ends: Vec<u32>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            edges: Vec::new(),
            ends: Vec::new(),
        }
    }
}

/// `n` as a CSR offset.
///
/// # Panics
/// Panics if `n` does not fit in a `u32`.
pub(crate) fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("CSR arrays hold fewer than 2^32 entries")
}

impl<T: Copy> Csr<T> {
    /// An empty edge list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row holding `entries`, in order.
    ///
    /// # Panics
    /// Panics if the edge array would reach 2^32 entries.
    pub fn push_row(&mut self, entries: &[T]) {
        self.edges.extend_from_slice(entries);
        self.ends.push(offset(self.edges.len()));
    }

    /// The entries of row `i`, in the order they were pushed.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.edges[self.span(i)]
    }

    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Every row in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Trims both arrays to their length.
    pub fn shrink_to_fit(&mut self) {
        self.edges.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl<T: NodeIndex> Csr<T> {
    /// `rows` rows built from `(row, entry)` pairs: each row holds its
    /// pairs' entries in the order the pairs come. Pairs whose row is
    /// `rows` or more belong to no row and are dropped.
    ///
    /// # Panics
    /// Panics if 2^32 or more pairs are kept.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        // Count each row's entries, turn the counts into start offsets,
        // then fill in pair order: every cursor ends at its row's end.
        let mut ends = vec![0u32; rows];
        for (r, _) in pairs.clone() {
            if r < rows {
                ends[r] += 1;
            }
        }
        let mut start = 0u32;
        for c in &mut ends {
            let count = *c;
            *c = start;
            start = start
                .checked_add(count)
                .expect("CSR arrays hold fewer than 2^32 entries");
        }
        let mut edges = vec![T::from_index(0); start as usize];
        for (r, entry) in pairs {
            if r < rows {
                edges[ends[r] as usize] = entry;
                ends[r] += 1;
            }
        }
        Csr { edges, ends }
    }

    /// The reverse edges of this graph: row `j` of the result lists every
    /// row `i` whose entries name node `j`, in ascending `i` order and
    /// once per naming entry. Entries naming no row (`>= self.len()`) are
    /// skipped. Transposing predecessor rows gives successor rows.
    pub fn transpose(&self) -> Self {
        let pairs = (0..self.len()).flat_map(|i| {
            self.row(i)
                .iter()
                .map(move |e| (e.index(), T::from_index(i)))
        });
        Csr::from_pairs(self.len(), pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(csr: &Csr<usize>) -> Vec<Vec<usize>> {
        csr.rows().map(<[usize]>::to_vec).collect()
    }

    #[test]
    fn rows_round_trip_in_push_order() {
        let rows: [&[usize]; 5] = [&[], &[0], &[], &[2, 0, 2], &[3]];
        let mut csr = Csr::new();
        for r in rows {
            csr.push_row(r);
        }
        assert_eq!(csr.len(), 5);
        assert!(!csr.is_empty());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), *r, "row {i}");
        }
        let mut trimmed = csr.clone();
        trimmed.shrink_to_fit();
        assert_eq!(trimmed, csr);
        assert!(Csr::<usize>::new().is_empty());
    }

    #[test]
    fn successors_ascend_with_repeats_kept() {
        let mut preds = Csr::new();
        for r in [&[][..], &[0], &[1, 0], &[0, 2, 0], &[3, 1]] {
            preds.push_row(r);
        }
        let succs = preds.transpose();
        assert_eq!(
            rows_of(&succs),
            vec![vec![1, 2, 3, 3], vec![2, 4], vec![3], vec![4], vec![]]
        );
        // Transposing twice gives each row back in ascending order.
        assert_eq!(
            rows_of(&succs.transpose()),
            vec![vec![], vec![0], vec![0, 1], vec![0, 0, 2], vec![1, 3]]
        );
    }

    #[test]
    fn entries_naming_no_row_are_dropped() {
        let mut preds = Csr::new();
        preds.push_row(&[7]);
        preds.push_row(&[0, 9]);
        assert_eq!(rows_of(&preds.transpose()), vec![vec![1], vec![]]);
        let grouped = Csr::from_pairs(2, [(1, 5), (4, 6), (1, 3), (0, 8)].into_iter());
        assert_eq!(rows_of(&grouped), vec![vec![8], vec![5, 3]]);
    }
}

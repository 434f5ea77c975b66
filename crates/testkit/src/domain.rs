//! Generators for ZeroSim's domain shapes, expressed as plain data.
//!
//! The testkit must stay dependency-free, so these generators produce
//! *shape descriptions* (link-capacity vectors and flow paths as index
//! lists) that callers map onto a real `simkit::FlowNet`. This keeps the
//! dependency graph acyclic while giving the solver's property tests one
//! vocabulary.

use crate::gen::{f64_range, tuple2, usize_range, vec_of, F64Range, Tuple2, UsizeRange, VecOf};

/// Link-capacity vector in bytes/second: `count` links each in
/// `[1, 1e9)` — the range the seed proptest suite used for the max-min
/// fairness invariant.
pub fn link_caps(min_links: usize, max_links: usize) -> VecOf<F64Range> {
    vec_of(f64_range(1.0, 1e9), min_links, max_links)
}

/// Generator of flow sets: `min_flows..=max_flows` flows, each a path of
/// 1–3 hops over `link_universe` virtual link indices (the caller maps
/// them onto real links) plus a volume in `[1, 1e9)` bytes.
pub fn flow_paths(
    link_universe: usize,
    min_flows: usize,
    max_flows: usize,
) -> VecOf<Tuple2<VecOf<UsizeRange>, F64Range>> {
    vec_of(
        tuple2(
            vec_of(usize_range(0, link_universe), 1, 3),
            f64_range(1.0, 1e9),
        ),
        min_flows,
        max_flows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Gen;
    use crate::rng::Rng;

    #[test]
    fn flow_paths_stay_in_universe() {
        let mut rng = Rng::new(4);
        let g = flow_paths(6, 1, 8);
        for _ in 0..200 {
            for (path, bytes) in g.generate(&mut rng) {
                assert!(!path.is_empty() && path.len() <= 3);
                assert!(path.iter().all(|i| *i < 6));
                assert!(bytes >= 1.0);
            }
        }
    }
}

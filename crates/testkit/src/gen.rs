//! Composable value generators with failure-case shrinking.
//!
//! A [`Gen`] produces random values from an [`Rng`] and, given a failing
//! value, proposes *simpler* candidate values ([`Gen::shrink`]). The
//! property runner ([`crate::prop`](mod@crate::prop)) walks the shrink candidates greedily
//! until none of them still fail, which converges on a (locally) minimal
//! counterexample.
//!
//! Shrinking contract: every candidate returned by `shrink(v)` must be
//! strictly simpler than `v` under a well-founded order (smaller
//! magnitude, shorter vector, …), so the greedy walk always terminates.

use crate::rng::Rng;
use std::fmt::Debug;
use std::rc::Rc;

/// A generator of random test values.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes strictly-simpler candidates for a failing value. An empty
    /// vector means the value is already minimal (or unshrinkable).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// Boxing support so heterogeneous generators can be stored.
impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;
    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

impl<G: Gen + ?Sized> Gen for Rc<G> {
    type Value = G::Value;
    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

// ---------------------------------------------------------------------
// numeric ranges
// ---------------------------------------------------------------------

/// Uniform `f64` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` in `[lo, hi)`.
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    assert!(lo < hi, "empty f64 range [{lo}, {hi})");
    F64Range { lo, hi }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.f64_in(self.lo, self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let mut out = Vec::new();
        if v > self.lo {
            // Jump straight to the minimum, then bisect toward it.
            out.push(self.lo);
            let mid = self.lo + (v - self.lo) / 2.0;
            if mid > self.lo && mid < v {
                out.push(mid);
            }
            // Try "nice" round values for readability of counterexamples.
            let rounded = v.floor();
            if rounded > self.lo && rounded < v {
                out.push(rounded);
            }
        }
        out
    }
}

/// Uniform `u64` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

/// Uniform `u64` in `[lo, hi)`.
pub fn u64_range(lo: u64, hi: u64) -> U64Range {
    assert!(lo < hi, "empty u64 range [{lo}, {hi})");
    U64Range { lo, hi }
}

impl Gen for U64Range {
    type Value = u64;

    fn generate(&self, rng: &mut Rng) -> u64 {
        rng.u64_in(self.lo, self.hi)
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        shrink_integer(*value, self.lo)
    }
}

/// Uniform `usize` in `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

/// Uniform `usize` in `[lo, hi)`.
pub fn usize_range(lo: usize, hi: usize) -> UsizeRange {
    assert!(lo < hi, "empty usize range [{lo}, {hi})");
    UsizeRange { lo, hi }
}

impl Gen for UsizeRange {
    type Value = usize;

    fn generate(&self, rng: &mut Rng) -> usize {
        rng.usize_in(self.lo, self.hi)
    }

    #[allow(clippy::cast_possible_truncation)] // shrunk values <= original
    fn shrink(&self, value: &usize) -> Vec<usize> {
        shrink_integer(*value as u64, self.lo as u64)
            .into_iter()
            .map(|v| v as usize)
            .collect()
    }
}

/// Integer shrink schedule: minimum first, then bisection, then
/// decrement — all strictly smaller than `v`.
fn shrink_integer(v: u64, lo: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if v > lo {
        out.push(lo);
        let mid = lo + (v - lo) / 2;
        if mid > lo && mid < v {
            out.push(mid);
        }
        if v - 1 > lo && v - 1 != mid {
            out.push(v - 1);
        }
    }
    out
}

// ---------------------------------------------------------------------
// constants and booleans
// ---------------------------------------------------------------------

/// Always yields a fixed value (never shrinks).
#[derive(Debug, Clone, Copy)]
pub struct Constant<T>(pub T);

/// A generator that always yields `value`.
pub fn constant<T: Clone + Debug>(value: T) -> Constant<T> {
    Constant(value)
}

impl<T: Clone + Debug> Gen for Constant<T> {
    type Value = T;
    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

/// Uniform boolean; shrinks `true` to `false`.
#[derive(Debug, Clone, Copy)]
pub struct BoolGen;

/// Uniform boolean generator.
pub fn any_bool() -> BoolGen {
    BoolGen
}

impl Gen for BoolGen {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.bool_with(0.5)
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------
// vectors
// ---------------------------------------------------------------------

/// Vector of `min..=max` elements drawn from an inner generator.
///
/// Shrinks by (a) chopping the tail down toward `min` length, (b)
/// removing single elements, and (c) shrinking individual elements.
#[derive(Debug, Clone)]
pub struct VecOf<G> {
    inner: G,
    min: usize,
    max: usize,
}

/// Vector generator with an inclusive length range `[min, max]`.
pub fn vec_of<G: Gen>(inner: G, min: usize, max: usize) -> VecOf<G> {
    assert!(min <= max, "empty length range [{min}, {max}]");
    VecOf { inner, min, max }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let len = if self.min == self.max {
            self.min
        } else {
            rng.usize_in(self.min, self.max + 1)
        };
        (0..len).map(|_| self.inner.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // (a) aggressive truncation: min length, then half length.
        if len > self.min {
            out.push(value[..self.min].to_vec());
            let half = self.min + (len - self.min) / 2;
            if half > self.min && half < len {
                out.push(value[..half].to_vec());
            }
            // (b) drop one element at a time (bounded to keep the
            // candidate list small for long vectors).
            for i in 0..len.min(8) {
                let mut shorter = value.clone();
                shorter.remove(i);
                out.push(shorter);
            }
        }
        // (c) shrink individual elements, keeping length fixed.
        for i in 0..len.min(8) {
            for candidate in self.inner.shrink(&value[i]) {
                let mut v = value.clone();
                v[i] = candidate;
                out.push(v);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// tuples
// ---------------------------------------------------------------------

macro_rules! impl_tuple_gen {
    ($name:ident, $fn_name:ident, $($G:ident => $idx:tt),+) => {
        /// Tuple generator; shrinks one component at a time.
        #[derive(Debug, Clone)]
        pub struct $name<$($G),+>($(pub $G),+);

        /// Builds a tuple generator from component generators.
        pub fn $fn_name<$($G: Gen),+>($($G: $G),+) -> $name<$($G),+> {
            $name($($G),+)
        }

        impl<$($G: Gen),+> Gen for $name<$($G),+> {
            type Value = ($($G::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = candidate;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

#[allow(non_snake_case)]
mod tuples {
    use super::*;
    impl_tuple_gen!(Tuple2, tuple2, A => 0, B => 1);
    impl_tuple_gen!(Tuple3, tuple3, A => 0, B => 1, C => 2);
    impl_tuple_gen!(Tuple4, tuple4, A => 0, B => 1, C => 2, D => 3);
}
pub use tuples::{tuple2, tuple3, tuple4, Tuple2, Tuple3, Tuple4};

// ---------------------------------------------------------------------
// map / choice
// ---------------------------------------------------------------------

/// Maps a function over a generator's output.
///
/// Shrinking maps the *inner* candidates through the function, so
/// counterexamples stay as simple as the underlying representation
/// allows. (The mapped value itself cannot be shrunk directly because
/// the mapping is not invertible.)
pub struct Map<G, F> {
    inner: G,
    f: F,
}

/// Applies `f` to every generated value.
pub fn map<G: Gen, T, F>(inner: G, f: F) -> Map<G, F>
where
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    Map { inner, f }
}

impl<G: Gen, T, F> Gen for Map<G, F>
where
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        (self.f)(self.inner.generate(rng))
    }
    // No shrink: the inner pre-image of `value` is unknown. The runner
    // keeps the original inner draw for shrinking when possible by
    // preferring structured generators at the top level.
}

/// Uniformly picks one of a fixed list of values; shrinks toward the
/// front of the list.
#[derive(Debug, Clone)]
pub struct OneOf<T> {
    choices: Vec<T>,
}

/// Uniformly samples from `choices` (must be non-empty).
pub fn one_of<T: Clone + Debug>(choices: &[T]) -> OneOf<T> {
    assert!(!choices.is_empty(), "one_of needs at least one choice");
    OneOf {
        choices: choices.to_vec(),
    }
}

impl<T: Clone + Debug + PartialEq> Gen for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        let i = rng.usize_in(0, self.choices.len());
        self.choices[i].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        // Earlier choices are "simpler".
        match self.choices.iter().position(|c| c == value) {
            Some(0) | None => Vec::new(),
            Some(i) => vec![self.choices[0].clone(), self.choices[i - 1].clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_range_generates_in_bounds() {
        let g = f64_range(2.0, 3.0);
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let v = g.generate(&mut rng);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn integer_shrink_is_strictly_decreasing() {
        for v in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for c in shrink_integer(v, 0) {
                assert!(c < v, "candidate {c} not smaller than {v}");
            }
        }
        assert!(shrink_integer(5, 5).is_empty());
    }

    #[test]
    fn vec_shrink_candidates_are_simpler() {
        let g = vec_of(usize_range(0, 100), 1, 6);
        let v = vec![50usize, 60, 70, 80];
        for cand in g.shrink(&v) {
            let shorter = cand.len() < v.len();
            let same_len_smaller = cand.len() == v.len()
                && cand.iter().zip(&v).any(|(a, b)| a < b)
                && cand.iter().zip(&v).all(|(a, b)| a <= b);
            assert!(
                shorter || same_len_smaller,
                "candidate {cand:?} is not simpler than {v:?}"
            );
        }
    }

    #[test]
    fn tuple_shrink_changes_one_component() {
        let g = tuple2(usize_range(0, 10), usize_range(0, 10));
        let v = (5usize, 7usize);
        for (a, b) in g.shrink(&v) {
            assert!((a == v.0) != (b == v.1), "exactly one side must change");
        }
    }

    #[test]
    fn one_of_shrinks_toward_front() {
        let g = one_of(&[1u32, 2, 3]);
        assert!(g.shrink(&1).is_empty());
        assert!(g.shrink(&3).contains(&1));
    }
}

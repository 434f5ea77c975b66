//! The property runner: draws cases, checks the property, and shrinks
//! failures to minimal counterexamples.
//!
//! # Environment knobs
//!
//! * `ZEROSIM_PT_CASES` — overrides the number of cases for every
//!   property (e.g. `ZEROSIM_PT_CASES=1000 cargo test`).
//! * `ZEROSIM_PT_SEED` — overrides the base seed (decimal or `0x` hex).
//!   On failure the runner prints the exact value to export to replay
//!   the failing run.
//!
//! Each property derives its own case stream from the base seed and the
//! property name, so adding or reordering properties never perturbs the
//! cases another property sees.

use crate::gen::Gen;
use crate::rng::{splitmix64, Rng};

/// The default base seed. Fixed so `cargo test` is deterministic run to
/// run; override with `ZEROSIM_PT_SEED` to explore.
pub const DEFAULT_SEED: u64 = 0x5EED_0001_D5EE_D500;

/// Configuration for one property check.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed for the case stream.
    pub seed: u64,
    /// Upper bound on accepted shrink steps (candidates that still
    /// fail); guards against pathological shrink loops.
    pub max_shrink_steps: u32,
}

impl Config {
    /// Builds a config from the environment, with `default_cases` used
    /// when `ZEROSIM_PT_CASES` is unset.
    pub fn from_env(default_cases: u32) -> Self {
        let cases = std::env::var("ZEROSIM_PT_CASES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .unwrap_or(default_cases)
            .max(1);
        let seed = std::env::var("ZEROSIM_PT_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or(DEFAULT_SEED);
        Config {
            cases,
            seed,
            max_shrink_steps: 1024,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::from_env(64)
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        s.replace('_', "").parse::<u64>().ok()
    }
}

/// Outcome of one property application: `Ok(())` passes, `Err(msg)`
/// fails with a diagnostic.
pub type PropResult = Result<(), String>;

/// Statistics from a completed (passing) check, for tests of the runner
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Cases executed.
    pub cases_run: u32,
}

/// Detailed failure report, produced by [`check_outcome`].
#[derive(Debug, Clone)]
pub struct Failure<V> {
    /// Zero-based index of the failing case.
    pub case: u32,
    /// Base seed that reproduces the run.
    pub seed: u64,
    /// The counterexample as originally drawn.
    pub original: V,
    /// The counterexample after shrinking.
    pub minimal: V,
    /// The property's error message for the minimal counterexample.
    pub message: String,
    /// Number of successful shrink steps taken.
    pub shrink_steps: u32,
}

/// Runs `property` against `cases` random values from `gen`; panics with
/// a replayable report on the first failure (after shrinking).
///
/// The panic message includes the base seed formatted as a
/// `ZEROSIM_PT_SEED=…` assignment, so the failing run can be replayed
/// verbatim.
pub fn check<G, P>(name: &str, config: &Config, gen: &G, property: P) -> CheckStats
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    match check_outcome(name, config, gen, property) {
        Ok(stats) => stats,
        Err(fail) => {
            panic!(
                "\nproperty '{name}' failed (case {case}/{cases})\n\
                 \x20 replay with: ZEROSIM_PT_SEED={seed:#x} ZEROSIM_PT_CASES={cases}\n\
                 \x20 minimal counterexample ({steps} shrink steps): {minimal:?}\n\
                 \x20 original counterexample: {original:?}\n\
                 \x20 error: {message}\n",
                case = fail.case + 1,
                cases = config.cases,
                seed = fail.seed,
                steps = fail.shrink_steps,
                minimal = fail.minimal,
                original = fail.original,
                message = fail.message,
            );
        }
    }
}

/// Like [`check`] but returns the failure instead of panicking — used by
/// the testkit's own tests to assert on shrinking behaviour.
pub fn check_outcome<G, P>(
    name: &str,
    config: &Config,
    gen: &G,
    property: P,
) -> Result<CheckStats, Failure<G::Value>>
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    // Derive a per-property stream: base seed mixed with the property
    // name so distinct properties see uncorrelated cases.
    let mut h = config.seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in name.bytes() {
        h = splitmix64(&mut h) ^ u64::from(b);
    }
    let mut rng = Rng::new(splitmix64(&mut h));

    for case in 0..config.cases {
        // Each case gets a forked stream so a property that consumes a
        // variable amount of randomness cannot skew later cases.
        let mut case_rng = rng.fork();
        let value = gen.generate(&mut case_rng);
        if let Err(first_msg) = property(&value) {
            let (minimal, message, shrink_steps) = shrink_failure(
                gen,
                &property,
                value.clone(),
                first_msg,
                config.max_shrink_steps,
            );
            return Err(Failure {
                case,
                seed: config.seed,
                original: value,
                minimal,
                message,
                shrink_steps,
            });
        }
    }
    Ok(CheckStats {
        cases_run: config.cases,
    })
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, until no candidate fails or the step budget runs out.
fn shrink_failure<G, P>(
    gen: &G,
    property: &P,
    mut current: G::Value,
    mut message: String,
    max_steps: u32,
) -> (G::Value, String, u32)
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    let mut steps = 0;
    'outer: while steps < max_steps {
        for candidate in gen.shrink(&current) {
            if let Err(msg) = property(&candidate) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break; // local minimum: no candidate still fails
    }
    (current, message, steps)
}

/// Asserts a condition inside a property, returning `Err` with a
/// formatted message on failure (the in-house `prop_assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Asserts equality inside a property (the in-house `prop_assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// Declares a property-based `#[test]` with `proptest!`-style syntax:
///
/// ```ignore
/// zerosim_testkit::prop! {
///     #[cases(64)]
///     fn addition_commutes(a in u64_range(0, 1000), b in u64_range(0, 1000)) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// The body runs once per case with each binder destructured from its
/// generator; use `prop_assert!` / `prop_assert_eq!` (or `return
/// Err(...)`) to fail a case. Case counts default to 64 and can be
/// overridden per-property with `#[cases(n)]` or globally with
/// `ZEROSIM_PT_CASES`.
#[macro_export]
macro_rules! prop {
    // Entry points with and without the #[cases(n)] attribute; peel one
    // property at a time so a block can declare several.
    () => {};
    // Doc comments desugar to #[doc = "…"]; accept and drop them so
    // properties can be documented like ordinary tests.
    (#[doc $($d:tt)*] $($rest:tt)*) => {
        $crate::prop!($($rest)*);
    };
    (#[cases($n:expr)] fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $crate::prop!(@one $n, $name, ($($arg in $gen),+), $body);
        $crate::prop!($($rest)*);
    };
    (fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $crate::prop!(@one 64, $name, ($($arg in $gen),+), $body);
        $crate::prop!($($rest)*);
    };
    // Single binder: use the generator directly.
    (@one $n:expr, $name:ident, ($a:ident in $ga:expr), $body:block) => {
        #[test]
        fn $name() {
            let config = $crate::prop::Config::from_env($n);
            let gen = $ga;
            $crate::prop::check(stringify!($name), &config, &gen, |value| {
                let $a = value.clone();
                $body
                Ok(())
            });
        }
    };
    // Two binders.
    (@one $n:expr, $name:ident, ($a:ident in $ga:expr, $b:ident in $gb:expr), $body:block) => {
        #[test]
        fn $name() {
            let config = $crate::prop::Config::from_env($n);
            let gen = $crate::gen::tuple2($ga, $gb);
            $crate::prop::check(stringify!($name), &config, &gen, |value| {
                let ($a, $b) = value.clone();
                $body
                Ok(())
            });
        }
    };
    // Three binders.
    (@one $n:expr, $name:ident, ($a:ident in $ga:expr, $b:ident in $gb:expr, $c:ident in $gc:expr), $body:block) => {
        #[test]
        fn $name() {
            let config = $crate::prop::Config::from_env($n);
            let gen = $crate::gen::tuple3($ga, $gb, $gc);
            $crate::prop::check(stringify!($name), &config, &gen, |value| {
                let ($a, $b, $c) = value.clone();
                $body
                Ok(())
            });
        }
    };
    // Four binders.
    (@one $n:expr, $name:ident, ($a:ident in $ga:expr, $b:ident in $gb:expr, $c:ident in $gc:expr, $d:ident in $gd:expr), $body:block) => {
        #[test]
        fn $name() {
            let config = $crate::prop::Config::from_env($n);
            let gen = $crate::gen::tuple4($ga, $gb, $gc, $gd);
            $crate::prop::check(stringify!($name), &config, &gen, |value| {
                let ($a, $b, $c, $d) = value.clone();
                $body
                Ok(())
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{u64_range, usize_range, vec_of};

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config {
            cases: 100,
            seed: 1,
            max_shrink_steps: 100,
        };
        let stats = check("always_true", &cfg, &u64_range(0, 10), |_| Ok(()));
        assert_eq!(stats.cases_run, 100);
    }

    #[test]
    fn same_seed_finds_same_counterexample() {
        let cfg = Config {
            cases: 1000,
            seed: 77,
            max_shrink_steps: 0, // no shrinking: compare raw draws
        };
        let run = || {
            check_outcome("det", &cfg, &u64_range(0, 1_000_000), |v| {
                if *v >= 500_000 {
                    Err("too big".into())
                } else {
                    Ok(())
                }
            })
            .unwrap_err()
        };
        let a = run();
        let b = run();
        assert_eq!(a.original, b.original);
        assert_eq!(a.case, b.case);
    }

    /// Shrinking a seeded known-failing property converges to the
    /// minimal counterexample: the threshold itself.
    #[test]
    fn shrink_converges_to_threshold() {
        let cfg = Config {
            cases: 200,
            seed: 3,
            max_shrink_steps: 1024,
        };
        let fail = check_outcome("threshold", &cfg, &u64_range(0, 1_000_000), |v| {
            if *v >= 1234 {
                Err(format!("{v} >= 1234"))
            } else {
                Ok(())
            }
        })
        .expect_err("property must fail");
        assert_eq!(
            fail.minimal, 1234,
            "greedy shrink must land exactly on the smallest failing value"
        );
        assert!(fail.original >= 1234);
    }

    /// Vector shrinking drops to the minimal failing length with minimal
    /// elements.
    #[test]
    fn shrink_minimizes_vectors() {
        let cfg = Config {
            cases: 100,
            seed: 9,
            max_shrink_steps: 4096,
        };
        // Fails whenever the vector has at least 3 elements.
        let fail = check_outcome(
            "vec_len",
            &cfg,
            &vec_of(usize_range(0, 1000), 0, 10),
            |v: &Vec<usize>| {
                if v.len() >= 3 {
                    Err("len >= 3".into())
                } else {
                    Ok(())
                }
            },
        )
        .expect_err("property must fail");
        assert_eq!(fail.minimal.len(), 3, "minimal failing length is 3");
        assert!(
            fail.minimal.iter().all(|x| *x == 0),
            "elements should shrink to range minimum, got {:?}",
            fail.minimal
        );
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert_eq!(parse_seed("0x5EED_0001"), Some(0x5EED_0001));
        assert_eq!(parse_seed("1_000"), Some(1000));
        assert_eq!(parse_seed("nope"), None);
    }

    // The macro form, exercised in-crate.
    crate::prop! {
        #[cases(32)]
        fn macro_addition_commutes(a in u64_range(0, 1000), b in u64_range(0, 1000)) {
            crate::prop_assert_eq!(a + b, b + a);
        }

        fn macro_single_binder(v in u64_range(5, 50)) {
            crate::prop_assert!((5..50).contains(&v), "v = {v}");
        }
    }
}

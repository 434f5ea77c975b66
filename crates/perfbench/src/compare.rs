//! `perfbench compare`: paired parent/change results files judged
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use zerosim_testkit::json::Json;

use crate::metrics::Declared;
use crate::stats::Summary;

/// How a change fared on one (workload, end-to-end metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better in at least nine tenths of at least [`MIN_PAIRS`] pairs, by
    /// more than the parent's own quartile spread.
    Improved,
    /// Worse by no more than the bound.
    WithinBound,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's own quartile spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs on which a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// Judges one row. `worse` is the change's median minus the parent's, as
/// a share of the parent's, signed so that positive is worse;
/// `parent_spread` is the parent's interquartile distance over its
/// median; `wins` counts the pairs the change won out of `pairs`.
pub fn verdict(worse: f64, parent_spread: f64, bound: f64, wins: usize, pairs: usize) -> Verdict {
    if parent_spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && -worse > parent_spread {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// One workload's entry in one results file.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    seed: u64,
    digest: Option<String>,
    metrics: BTreeMap<String, f64>,
}

/// One results file: its entries keyed by workload.
type Results = BTreeMap<String, Entry>;

/// Reads every workload entry of a results file.
fn entries(text: &str) -> Result<Results, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let seed = doc
        .get("manifest")
        .and_then(|m| m.get("seed"))
        .and_then(Json::as_f64)
        .ok_or("missing manifest.seed")?;
    // Seeds are whole numbers well below 2^53 in any results file.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let seed = seed as u64;
    let mut out = BTreeMap::new();
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing workloads")?
    {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(fields)) = w.get("metrics") {
            for (k, v) in fields {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    metrics.insert(k.clone(), value);
                }
            }
        }
        let digest = w.get("digest").and_then(Json::as_str).map(str::to_owned);
        out.insert(
            name.to_owned(),
            Entry {
                seed,
                digest,
                metrics,
            },
        );
    }
    Ok(out)
}

/// Compares `files`, given as `(path, contents)` in alternating
/// parent/change order (parent first in each pair). Returns the report
/// text and whether anything regressed or any digest differs between the
/// sides at the same seed.
///
/// # Errors
/// An odd file count or an unreadable results file.
pub fn compare(files: &[(String, String)], declared: &Declared) -> Result<(String, bool), String> {
    if files.is_empty() || !files.len().is_multiple_of(2) {
        return Err("compare needs parent/change pairs: A.json B.json [A.json B.json ...]".into());
    }
    let parsed: Vec<Results> = files
        .iter()
        .map(|(path, text)| entries(text).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    let pairs: Vec<(&Results, &Results)> = parsed.chunks(2).map(|p| (&p[0], &p[1])).collect();

    let mut workloads: Vec<&String> = Vec::new();
    for (a, _) in &pairs {
        for name in a.keys() {
            if !workloads.contains(&name) {
                workloads.push(name);
            }
        }
    }

    let mut bad = false;
    let mut out = format!(
        "{:<14} {:<14} {:>30} {:>30} {:>8}  verdict\n",
        "workload", "metric", "parent p50 [p25, p75]", "change p50 [p25, p75]", "delta"
    );
    let num = |v: f64| {
        if v.abs() >= 1000.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.6}")
        }
    };
    let fmt = |s: &Summary| format!("{} [{}, {}]", num(s.p50), num(s.p25), num(s.p75));
    for w in &workloads {
        for b in &declared.end_to_end {
            let value = |side: &Results| side.get(*w).and_then(|e| e.metrics.get(&b.name)).copied();
            let paired: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(a, c)| Some((value(a)?, value(c)?)))
                .collect();
            let parent: Vec<f64> = paired.iter().map(|p| p.0).collect();
            let change: Vec<f64> = paired.iter().map(|p| p.1).collect();
            let (Some(sa), Some(sc)) = (Summary::of(&parent), Summary::of(&change)) else {
                continue;
            };
            let sign = if b.lower_is_better { 1.0 } else { -1.0 };
            let delta = if sa.p50 == 0.0 {
                0.0
            } else {
                (sc.p50 - sa.p50) / sa.p50.abs()
            };
            let wins = paired
                .iter()
                .filter(|(pa, pc)| sign * (pc - pa) < 0.0)
                .count();
            let v = verdict(sign * delta, sa.spread(), b.bound, wins, paired.len());
            bad |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{:<14} {:<14} {:>30} {:>30} {:>+7.2}%  {}\n",
                w,
                b.name,
                fmt(&sa),
                fmt(&sc),
                delta * 100.0,
                v.label()
            ));
        }
    }

    // Digests must not depend on which side ran: compare them per
    // (workload, seed) wherever both sides ran that seed.
    let mut digests: BTreeMap<(&str, u64), [Vec<&str>; 2]> = BTreeMap::new();
    for (i, file) in parsed.iter().enumerate() {
        for (name, e) in file {
            if let Some(d) = &e.digest {
                digests.entry((name, e.seed)).or_default()[i % 2].push(d);
            }
        }
    }
    for ((name, seed), [parent, change]) in &mut digests {
        parent.sort_unstable();
        parent.dedup();
        change.sort_unstable();
        change.dedup();
        if !parent.is_empty() && !change.is_empty() && parent != change {
            bad = true;
            out.push_str(&format!(
                "DIGEST DIFFERS: {name} seed {seed}: parent {parent:?}, change {change:?}\n"
            ));
        }
    }
    Ok((out, bad))
}

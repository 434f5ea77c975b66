//! One run of one workload: a warm-up op, the set-up repetitions, the
//! time-boxed closed loop of ops, and (when traced) one traced op.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use zerosim_testkit::json::Json;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{traced_op, Tracer};
use crate::workloads::{Inputs, OpOutput, Workload};
use crate::{alloc, clock};

/// Default measuring time per workload: `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Fewest repetitions of the compile step behind `setup_s`.
const SETUP_REPS: usize = 5;
/// Share of the ops' CPU time spent on set-up repetitions.
const SETUP_SHARE: f64 = 0.1;

/// Version of the results-file layout.
const SCHEMA_VERSION: u32 = 1;

/// Ops attempted and failed, against the digest of the first op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops run, the warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or a digest other than the first op's.
    pub failed: u64,
    reference: Option<u64>,
}

impl Tally {
    /// Counts one op outcome (its digest, or its error); returns whether
    /// it succeeded. The first successful op fixes the reference digest.
    pub fn record(&mut self, outcome: Result<u64, &str>) -> bool {
        self.attempted += 1;
        let ok = match outcome {
            Ok(digest) => *self.reference.get_or_insert(digest) == digest,
            Err(_) => false,
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Failed ops over attempted ops (0 before any op).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The digest every op must reproduce, once an op succeeded.
    pub fn reference(&self) -> Option<u64> {
        self.reference
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Op outcomes.
    pub tally: Tally,
    /// Errors seen (failed ops, set-up, cross-checks), first first.
    pub errors: Vec<String>,
    /// Host seconds (thread CPU time) per timed op.
    pub op_s: Option<Summary>,
    /// Wall seconds per timed op, reported next to `op_s`.
    pub op_wall_s: Option<Summary>,
    /// Heap allocations per timed op.
    pub allocs: Option<Summary>,
    /// Peak live heap during the timed ops above the live heap at their
    /// start, in MB (10^6 bytes).
    pub heap_peak_mb: f64,
    /// Host seconds per set-up repetition.
    pub setup_s: Option<Summary>,
    /// Per-layer metrics of the traced op, when traced.
    pub per_layer: Option<BTreeMap<String, f64>>,
}

impl WorkloadResult {
    /// An empty result: no op run yet.
    pub fn new(workload: Workload) -> Self {
        WorkloadResult {
            workload,
            tally: Tally::default(),
            errors: Vec::new(),
            op_s: None,
            op_wall_s: None,
            allocs: None,
            heap_peak_mb: 0.0,
            setup_s: None,
            per_layer: None,
        }
    }

    /// No op failed and every check held.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.tally.failed == 0 && self.op_s.is_some()
    }

    fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let p50 = |s: &Option<Summary>| s.map_or(0.0, |s| s.p50);
        let values = [
            self.op_s.map_or(0.0, |s| s.p10),
            p50(&self.allocs),
            self.heap_peak_mb,
            p50(&self.setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name, d.unit, v))
            .collect()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order; layers the traced op
    /// never entered read 0. Empty when the run was not traced.
    pub fn per_layer_metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let Some(map) = &self.per_layer else {
            return Vec::new();
        };
        PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit, map.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// One timed repetition of the compile step, appended to `samples`;
/// returns its seconds.
fn setup_rep(inputs: &Inputs, first: &OpOutput, samples: &mut Vec<f64>) -> Result<f64, String> {
    let (done, secs) = clock::timed(|| inputs.setup(first));
    done.map(|()| {
        samples.push(secs);
        secs
    })
}

/// Runs `workload` at `seed`: one warm-up op (the reference digest), then
/// ops back to back until `seconds` have passed (at least one) with the
/// set-up repetitions between them, then one traced op if `tracer` is
/// given.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> WorkloadResult {
    let mut res = WorkloadResult::new(workload);
    let inputs = match workload.inputs(seed) {
        Ok(inputs) => inputs,
        Err(e) => {
            res.tally.record(Err(&e));
            res.fail(e);
            return res;
        }
    };
    let first = match inputs.run_op() {
        Ok(first) => first,
        Err(e) => {
            res.tally.record(Err(&e));
            res.fail(format!("warm-up op: {e}"));
            return res;
        }
    };
    res.tally.record(Ok(first.digest));

    let budget = Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    let mut walls = Vec::new();
    let mut allocs = Vec::new();
    let mut setup = Vec::new();
    let mut setup_err = None;
    let (mut op_total, mut setup_total) = (0.0, 0.0);
    let mut peak = 0usize;
    let baseline = alloc::snapshot().live_bytes;
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < budget {
        alloc::reset_peak();
        let a0 = alloc::allocs();
        let w0 = Instant::now();
        let (out, secs) = clock::timed(|| inputs.run_op());
        walls.push(w0.elapsed().as_secs_f64());
        times.push(secs);
        allocs.push((alloc::allocs() - a0) as f64);
        peak = peak.max(alloc::snapshot().peak_bytes.saturating_sub(baseline));
        match out {
            Ok(out) => {
                if !res.tally.record(Ok(out.digest)) {
                    res.fail(format!("digest drift: {:016x}", out.digest));
                }
            }
            Err(e) => {
                res.tally.record(Err(&e));
                res.fail(e);
            }
        }
        // Set-up repetitions ride between the ops, so `setup_s` samples the
        // machine under the same conditions the ops see.
        op_total += secs;
        while setup_err.is_none() && setup_total < SETUP_SHARE * op_total {
            match setup_rep(&inputs, &first, &mut setup) {
                Ok(s) => setup_total += s,
                Err(e) => setup_err = Some(e),
            }
        }
    }
    while setup_err.is_none() && setup.len() < SETUP_REPS {
        setup_err = setup_rep(&inputs, &first, &mut setup).err();
    }
    if let Some(e) = setup_err {
        res.fail(format!("setup: {e}"));
    }
    res.setup_s = Summary::of(&setup);
    res.heap_peak_mb = peak as f64 / 1e6;
    res.op_s = Summary::of(&times);
    res.op_wall_s = Summary::of(&walls);
    res.allocs = Summary::of(&allocs);

    if let Some(tr) = tracer {
        tr.take_metrics();
        match traced_op(tr, workload.name(), &inputs, &first) {
            Ok(secs) => {
                // Spans are wall time (the CPU-time clock is a system call,
                // too slow around millions of recorder callbacks), so the
                // overhead compares wall with wall.
                let untraced = res.op_wall_s.map_or(f64::NAN, |s| s.p50);
                tr.add("trace.op_s", secs);
                tr.add("trace.overhead", secs / untraced);
            }
            Err(e) => res.fail(format!("traced op: {e}")),
        }
        let layers = tr.take_metrics();
        for name in layers.keys() {
            if !PER_LAYER.iter().any(|d| d.name == name) {
                res.fail(format!("traced op emitted undeclared metric {name}"));
            }
        }
        res.per_layer = Some(layers);
    }
    res
}

/// `{"value": value, "unit": unit}`.
fn metric_value(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn metric_obj(metrics: &[(&str, &str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| (name.to_owned(), metric_value(value, unit)))
            .collect(),
    )
}

fn summary_json(s: &Option<Summary>) -> Json {
    s.as_ref().map_or(Json::Null, Summary::to_json)
}

/// Renders a results file: the manifest, then every workload's tally,
/// digest, sample summaries, and metrics.
pub fn results_json(results: &[WorkloadResult], seed: u64, seconds: f64, traced: bool) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let manifest = Json::Obj(vec![
        (
            "schema_version".into(),
            Json::Num(f64::from(SCHEMA_VERSION)),
        ),
        ("crate".into(), Json::Str(env!("CARGO_PKG_NAME").into())),
        (
            "version".into(),
            Json::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("seed".into(), Json::Num(seed as f64)),
        ("cores".into(), Json::Num(cores as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("traced".into(), Json::Bool(traced)),
        (
            "ops".into(),
            Json::Obj(
                results
                    .iter()
                    .map(|r| {
                        (
                            r.workload.name().to_owned(),
                            Json::Num(r.tally.attempted as f64),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let workloads = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.workload.name().into())),
                ("correct".into(), Json::Bool(r.correct())),
                ("attempted".into(), Json::Num(r.tally.attempted as f64)),
                ("failed".into(), Json::Num(r.tally.failed as f64)),
                ("error_rate".into(), Json::Num(r.tally.error_rate())),
                (
                    "digest".into(),
                    r.tally
                        .reference()
                        .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
                ),
                (
                    "errors".into(),
                    Json::Arr(r.errors.iter().map(|e| Json::Str(e.clone())).collect()),
                ),
                ("op_s".into(), summary_json(&r.op_s)),
                ("op_wall_s".into(), summary_json(&r.op_wall_s)),
                ("allocs_per_op".into(), summary_json(&r.allocs)),
                ("setup_s".into(), summary_json(&r.setup_s)),
                ("metrics".into(), metric_obj(&r.end_to_end())),
                (
                    "per_layer".into(),
                    if r.per_layer.is_some() {
                        metric_obj(&r.per_layer_metrics())
                    } else {
                        Json::Null
                    },
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("manifest".into(), manifest),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

/// The one-line summary printed last: overall correctness, op counts,
/// and the end-to-end metrics (untraced) or per-layer metrics (traced).
/// With several workloads, metric names carry a `<workload>/` prefix.
pub fn summary_line(results: &[WorkloadResult], traced: bool) -> Json {
    let prefixed = results.len() > 1;
    let mut metrics = Vec::new();
    for r in results {
        let own = if traced {
            r.per_layer_metrics()
        } else {
            r.end_to_end()
        };
        for (name, unit, value) in own {
            let key = if prefixed {
                format!("{}/{name}", r.workload.name())
            } else {
                name.to_owned()
            };
            metrics.push((key, metric_value(value, unit)));
        }
    }
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(results.iter().all(WorkloadResult::correct)),
        ),
        (
            "attempted".into(),
            Json::Num(results.iter().map(|r| r.tally.attempted).sum::<u64>() as f64),
        ),
        (
            "failed".into(),
            Json::Num(results.iter().map(|r| r.tally.failed).sum::<u64>() as f64),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Human-readable lines for one workload: every metric by name with its
/// unit (tracing overhead among them when traced), plus the op count,
/// error rate and digest.
pub fn render_text(r: &WorkloadResult) -> String {
    let name = r.workload.name();
    let mut out = format!(
        "{name}: {} ops ({} failed, error_rate {}), digest {}\n",
        r.tally.attempted,
        r.tally.failed,
        r.tally.error_rate(),
        r.tally
            .reference()
            .map_or("-".into(), |d| format!("{d:016x}")),
    );
    for (metric, unit, value) in r.end_to_end() {
        out.push_str(&format!("  {metric:<28} {value:>14.6} {unit}\n"));
    }
    for (label, s) in [("op_s", r.op_s), ("op_wall_s", r.op_wall_s)] {
        if let Some(s) = s {
            out.push_str(&format!(
                "  {label:<28} p10 {:.6}  p25 {:.6}  p50 {:.6}  p75 {:.6}  p90 {:.6}  n {}\n",
                s.p10, s.p25, s.p50, s.p75, s.p90, s.n
            ));
        }
    }
    for (metric, unit, value) in r.per_layer_metrics() {
        out.push_str(&format!("  {metric:<28} {value:>14.6} {unit}\n"));
    }
    for e in r.errors.iter().take(5) {
        out.push_str(&format!("  error: {e}\n"));
    }
    out
}

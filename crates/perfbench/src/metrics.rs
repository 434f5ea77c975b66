//! The metric names the benchmark emits, and the `BENCHMARK.json` that
//! declares them with their bounds.

use std::path::PathBuf;

use zerosim_testkit::json::Json;

/// A metric the binary can emit: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics of the untraced run (`--trace 0`), per workload.
pub const END_TO_END: [MetricDef; 4] = [
    m("op_s_p10", "s"),
    m("allocs_per_op", "count"),
    m("heap_peak_mb", "MB"),
    m("setup_s", "s"),
];

/// Per-layer metrics of the traced run (`--trace 1`), per workload. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: [MetricDef; 42] = [
    m("hw.cluster_s", "s"),
    m("hw.links", "count"),
    m("plan.s", "s"),
    m("plan.ops", "count"),
    m("lower.s", "s"),
    m("lower.tasks", "count"),
    m("lower.allocs", "count"),
    m("stamp.s", "s"),
    m("stamp.tasks", "count"),
    m("engine.s", "s"),
    m("engine.tasks", "count"),
    m("engine.flows", "count"),
    m("engine.ticks", "count"),
    m("engine.allocs", "count"),
    m("solver.solves", "count"),
    m("solver.full_solves", "count"),
    m("solver.links_touched", "count"),
    m("solver.flows_touched", "count"),
    m("solver.max_component_links", "count"),
    m("recorder.s", "s"),
    m("recorder.calls", "count"),
    m("report.s", "s"),
    m("lint.ZL001.s", "s"),
    m("lint.ZL002.s", "s"),
    m("lint.ZL003.s", "s"),
    m("lint.ZL004.s", "s"),
    m("lint.ZL005.s", "s"),
    m("lint.ZL006.s", "s"),
    m("lint.ZL007.s", "s"),
    m("lint.ZL008.s", "s"),
    m("lint.ZL009.s", "s"),
    m("lint.diagnostics", "count"),
    m("search.enumerated", "count"),
    m("search.pruned", "count"),
    m("search.simulated", "count"),
    m("search.failed", "count"),
    m("search.prune_ratio", "ratio"),
    m("serve.engine_runs", "count"),
    m("serve.plan_lowerings", "count"),
    m("serve.plan_cache_hit_ratio", "ratio"),
    m("trace.overhead", "ratio"),
    m("trace.op_s", "s"),
];

/// `BENCHMARK.json` at the repository root.
pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
}

/// One declared end-to-end metric with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the binary reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with bounds.
    pub end_to_end: Vec<Bound>,
    /// Per-layer metric names and units.
    pub per_layer: Vec<(String, String)>,
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: missing string field {key:?}"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array field {key:?}"))
}

impl Declared {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    /// A description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = arr_field(&doc, "workloads")?
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = arr_field(&doc, "end_to_end")?
            .iter()
            .map(|e| {
                let better = str_field(e, "better")?;
                if better != "lower" && better != "higher" {
                    return Err(format!("BENCHMARK.json: bad \"better\" {better:?}"));
                }
                Ok(Bound {
                    name: str_field(e, "name")?,
                    unit: str_field(e, "unit")?,
                    lower_is_better: better == "lower",
                    bound: e
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("BENCHMARK.json: missing number field \"bound\"")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = arr_field(&doc, "per_layer")?
            .iter()
            .map(|p| Ok((str_field(p, "name")?, str_field(p, "unit")?)))
            .collect::<Result<_, String>>()?;
        Ok(Declared {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Reads and parses [`benchmark_json_path`].
    ///
    /// # Errors
    /// An unreadable or malformed file.
    pub fn load() -> Result<Declared, String> {
        let path = benchmark_json_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Declared::parse(&text)
    }
}

//! The traced run: each op rebuilt from the public calls of `hw`,
//! `strategies`, `simkit`, `analyzer` and `core`, with a scoped timer
//! around every layer call. Spans stay in memory and are written once, as
//! Chrome-trace JSON, when the run ends. Span times are wall time: the
//! thread CPU-time clock costs a system call, too slow to read around each
//! of the millions of recorder callbacks.
//!
//! The traced pipeline must simulate exactly what the timed op simulates;
//! each traced op cross-checks that against the untraced op's output.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use zerosim_analyzer::{
    Artifacts, BandwidthFeasibilityPass, ByteConservationPass, CodecLegalityPass, DagCyclePass,
    DeadOpsPass, FaultSchedulePass, LintCode, LintConfig, MemoryResidencyPass, Pass, PassManager,
    PhaseOrderingPass, Sink, StepTimeBoundPass,
};
use zerosim_core::{
    serve, CandidateOutcome, SearchConfig, SearchReport, ServeSpec, SweepSpec, TrainingSim,
};
use zerosim_hw::{Cluster, LinkClass};
use zerosim_simkit::{
    BandwidthRecorder, DagEngine, FlowObserver, LinkId, RunOutcome, SimTime, SolverStats,
};
use zerosim_strategies::{
    lower, Calibration, IterCtx, LoweredPlan, MemoryPlan, StrategyError, StrategyPlan,
    TrainOptions, WorkloadPlan,
};
use zerosim_testkit::json::Json;

use crate::alloc;
use crate::workloads::{Detail, Inputs, OpOutput};

/// One closed span.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    start: Duration,
    dur: Duration,
    depth: usize,
}

/// In-memory span log plus the per-layer metrics of the current op.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    depth: usize,
    spans: Vec<SpanRec>,
    metrics: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            depth: 0,
            spans: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span called `name`; returns its result and the
    /// span's seconds.
    pub(crate) fn span<T>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let name = name.into();
        let t0 = Instant::now();
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let dur = t0.elapsed();
        self.record(name, t0, dur);
        (out, dur.as_secs_f64())
    }

    /// A span whose seconds are added to the layer metric `metric`.
    fn layer<T>(&mut self, name: &str, metric: &str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = self.span(name, |_| f());
        self.add(metric, secs);
        out
    }

    /// Records a span measured elsewhere, as a child of the open span.
    fn record(&mut self, name: String, start: Instant, dur: Duration) {
        self.spans.push(SpanRec {
            name,
            start: start.saturating_duration_since(self.origin),
            dur,
            depth: self.depth,
        });
    }

    /// Adds `v` to the layer metric `metric`.
    pub(crate) fn add(&mut self, metric: &str, v: f64) {
        *self.metrics.entry(metric.to_owned()).or_default() += v;
    }

    /// Raises the layer metric `metric` to at least `v`.
    fn max(&mut self, metric: &str, v: f64) {
        let e = self.metrics.entry(metric.to_owned()).or_default();
        *e = e.max(v);
    }

    /// Takes the metrics gathered since the last call.
    pub(crate) fn take_metrics(&mut self) -> BTreeMap<String, f64> {
        std::mem::take(&mut self.metrics)
    }

    /// Every span as Chrome-trace JSON (complete `X` events, microseconds).
    pub fn to_chrome_json(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str("perfbench".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), us(s.start)),
                    ("dur".into(), us(s.dur)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![("depth".into(), Json::Num(s.depth as f64))]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

/// Times every callback into the wrapped recorder and counts the
/// allocations made inside it, so the engine's own time and allocations
/// can be told apart from the recorder's.
struct TimedObserver<'a> {
    inner: &'a mut BandwidthRecorder,
    calls: u64,
    allocs: u64,
    busy: Duration,
}

impl FlowObserver for TimedObserver<'_> {
    fn on_transfer(&mut self, link: LinkId, start: SimTime, dt_secs: f64, bytes: f64) {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        self.inner.on_transfer(link, start, dt_secs, bytes);
        self.busy += t0.elapsed();
        self.allocs += alloc::allocs() - a0;
        self.calls += 1;
    }
}

/// Shared log of `(code, start, duration)` for every timed pass run.
pub type PassLog = Rc<RefCell<Vec<(LintCode, Instant, Duration)>>>;

/// Times one analyzer pass.
#[derive(Debug)]
struct TimedPass {
    inner: Box<dyn Pass>,
    log: PassLog,
}

impl Pass for TimedPass {
    fn code(&self) -> LintCode {
        self.inner.code()
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let t0 = Instant::now();
        self.inner.run(art, sink);
        self.log
            .borrow_mut()
            .push((self.inner.code(), t0, t0.elapsed()));
    }
}

/// A pass manager with every public pass struct, each wrapped in a timer,
/// registered in the default order.
pub fn timed_pass_manager(log: &PassLog) -> PassManager {
    let passes: [Box<dyn Pass>; 9] = [
        Box::new(MemoryResidencyPass),
        Box::new(ByteConservationPass),
        Box::new(PhaseOrderingPass),
        Box::new(BandwidthFeasibilityPass),
        Box::new(DeadOpsPass),
        Box::new(DagCyclePass),
        Box::new(FaultSchedulePass),
        Box::new(CodecLegalityPass),
        Box::new(StepTimeBoundPass),
    ];
    let mut pm = PassManager::new(LintConfig::new());
    for inner in passes {
        pm.register(Box::new(TimedPass {
            inner,
            log: Rc::clone(log),
        }));
    }
    pm
}

fn add_solver(tr: &mut Tracer, d: &SolverStats) {
    tr.add("solver.solves", d.solves as f64);
    tr.add("solver.full_solves", d.full_solves as f64);
    tr.add("solver.links_touched", d.links_touched as f64);
    tr.add("solver.flows_touched", d.flows_touched as f64);
    tr.max("solver.max_component_links", d.max_component_links as f64);
}

/// Memory and iteration planning, in the `plan` layer.
fn plan_layer(
    tr: &mut Tracer,
    strategy: &dyn StrategyPlan,
    ctx: &IterCtx<'_>,
) -> Result<(MemoryPlan, WorkloadPlan), StrategyError> {
    let planned = tr.layer("plan", "plan.s", || {
        Ok((strategy.plan_memory(ctx)?, strategy.plan_iteration(ctx)?))
    });
    if let Ok((_, plan)) = &planned {
        tr.add("plan.ops", plan.len() as f64);
    }
    planned
}

/// Lowering, in the `lower` layer.
fn lower_layer(
    tr: &mut Tracer,
    plan: &WorkloadPlan,
    cluster: &Cluster,
    calib: &Calibration,
) -> Result<LoweredPlan, StrategyError> {
    let a0 = alloc::allocs();
    let lowered = tr.layer("lower", "lower.s", || lower(plan, cluster, calib));
    tr.add("lower.allocs", (alloc::allocs() - a0) as f64);
    if let Ok(l) = &lowered {
        tr.add("lower.tasks", l.len() as f64);
    }
    lowered
}

/// One engine run, with the recorder (if any) behind a timing observer.
fn run_engine(
    tr: &mut Tracer,
    engine: &mut DagEngine,
    cluster: &mut Cluster,
    dag: &zerosim_simkit::Dag,
    t: SimTime,
    rec: Option<&mut BandwidthRecorder>,
) -> Result<RunOutcome, String> {
    let mut obs = rec.map(|inner| TimedObserver {
        inner,
        calls: 0,
        allocs: 0,
        busy: Duration::ZERO,
    });
    let a0 = alloc::allocs();
    let (out, secs) = tr.span("engine", |_| {
        engine.run(
            cluster.net_mut(),
            dag,
            t,
            obs.as_mut().map(|o| o as &mut dyn FlowObserver),
        )
    });
    let allocs = alloc::allocs() - a0;
    let (calls, cb_allocs, busy) =
        obs.map_or((0, 0, 0.0), |o| (o.calls, o.allocs, o.busy.as_secs_f64()));
    tr.add("engine.s", secs - busy);
    tr.add("engine.allocs", (allocs - cb_allocs) as f64);
    tr.add("recorder.s", busy);
    tr.add("recorder.calls", calls as f64);
    out.map_err(|e| e.to_string())
}

/// `TrainingSim::run` rebuilt layer by layer: cluster → plan → lower →
/// stamp → engine (recorder observed) → report aggregation. Returns the
/// simulated iteration time.
fn trace_training(tr: &mut Tracer, spec: &SweepSpec) -> Result<SimTime, String> {
    let mut cluster = tr.layer("hw.cluster", "hw.cluster_s", || {
        let mut c = Cluster::new(spec.cluster.clone())?;
        for members in &spec.volumes {
            c.create_volume(members.clone());
        }
        Ok::<_, String>(c)
    })?;
    tr.add("hw.links", cluster.net().link_count() as f64);
    let ctx = IterCtx {
        cluster: &cluster,
        model: &spec.model,
        opts: &spec.opts,
        calib: &spec.calibration,
    };
    let (memory, plan) = plan_layer(tr, &spec.strategy, &ctx).map_err(|e| e.to_string())?;
    if !spec.run.allow_overflow {
        if let Some(tier) = memory.bottleneck(&cluster) {
            return Err(format!("{}: does not fit ({tier} tier)", spec.label));
        }
    }
    let mut lowered =
        lower_layer(tr, &plan, &cluster, &spec.calibration).map_err(|e| e.to_string())?;

    let solver0 = cluster.net().solver_stats();
    let mut engine = DagEngine::new(cluster.resource_slots());
    let mut t = SimTime::ZERO;
    let mut rec = None;
    let mut total = SimTime::ZERO;
    let measured = spec.run.measure_iters.max(1);
    let iterations = 0..spec.run.warmup_iters + measured;
    for (i, seed) in iterations.zip(spec.opts.jitter_seed..) {
        if i == spec.run.warmup_iters {
            engine.take_spans();
            rec = Some(BandwidthRecorder::with_origin(spec.run.bucket, t));
        }
        tr.layer("stamp", "stamp.s", || {
            lowered.stamp(seed);
        });
        tr.add("stamp.tasks", lowered.stamped_tasks() as f64);
        let dag = lowered.dag();
        let out = run_engine(tr, &mut engine, &mut cluster, dag, t, rec.as_mut())?;
        if rec.is_some() {
            total += out.makespan();
        }
        t = out.finished;
    }
    let stats = engine.stats();
    tr.add("engine.tasks", stats.tasks_finished as f64);
    tr.add("engine.flows", stats.flows_started as f64);
    tr.add("engine.ticks", stats.ticks as f64);
    add_solver(tr, &cluster.net().solver_stats().delta_since(&solver0));

    let rec = rec.expect("at least one measured iteration");
    tr.layer("report", "report.s", || {
        for node in 0..spec.opts.nodes {
            for class in LinkClass::TABLE_IV {
                let links = cluster.links(node, class);
                black_box(rec.stats(links));
                black_box(rec.aggregate_series(links));
            }
        }
    });
    black_box(engine.take_spans());
    Ok(total / measured as u64)
}

/// The search rebuilt: one cluster, every candidate planned, lowered and
/// linted through the timed passes, then each survivor simulated as
/// [`trace_training`]. The lint verdict must equal the search's prune
/// decision for every candidate of `reference`.
fn trace_search(
    tr: &mut Tracer,
    cfg: &SearchConfig,
    reference: &SearchReport,
) -> Result<(), String> {
    let spec = cfg.topology.build()?;
    let cluster = tr.layer("hw.cluster", "hw.cluster_s", || Cluster::new(spec.clone()))?;
    tr.add("hw.links", cluster.net().link_count() as f64);
    let opts = TrainOptions::for_nodes(cfg.topology.nodes());
    let (mut pruned, mut failed) = (0usize, 0usize);
    for c in &reference.candidates {
        let name = format!("{} {}", c.strategy_name, c.placement());
        let (prune, _) = tr.span(format!("lint {name}"), |tr| {
            lint_prunes(tr, &cluster, &c.strategy, cfg, &opts)
        });
        let search_pruned = matches!(c.outcome, CandidateOutcome::Pruned { .. });
        if prune != search_pruned {
            return Err(format!(
                "{name}: timed-pass verdict prune={prune}, search prune={search_pruned}"
            ));
        }
        if prune {
            pruned += 1;
            continue;
        }
        let sweep = SweepSpec::new(name.clone(), c.strategy.clone(), cfg.model, opts)
            .with_cluster(spec.clone())
            .with_calibration(cfg.calibration)
            .with_run(cfg.run);
        let (sim, _) = tr.span(format!("simulate {name}"), |tr| trace_training(tr, &sweep));
        let search_failed = matches!(c.outcome, CandidateOutcome::Failed { .. });
        if sim.is_err() != search_failed {
            return Err(format!(
                "{name}: traced simulation disagrees with the search"
            ));
        }
        failed += usize::from(search_failed);
    }
    let enumerated = reference.candidates.len();
    tr.add("search.enumerated", enumerated as f64);
    tr.add("search.pruned", pruned as f64);
    tr.add("search.simulated", (enumerated - pruned) as f64);
    tr.add("search.failed", failed as f64);
    tr.add(
        "search.prune_ratio",
        pruned as f64 / enumerated.max(1) as f64,
    );
    Ok(())
}

/// Plans, lowers and lints one candidate as the search's static pass
/// does; true when the search would prune it.
fn lint_prunes(
    tr: &mut Tracer,
    cluster: &Cluster,
    strategy: &dyn StrategyPlan,
    cfg: &SearchConfig,
    opts: &TrainOptions,
) -> bool {
    let ctx = IterCtx {
        cluster,
        model: &cfg.model,
        opts,
        calib: &cfg.calibration,
    };
    let Ok((memory, plan)) = plan_layer(tr, strategy, &ctx) else {
        return true;
    };
    let Ok(lowered) = lower_layer(tr, &plan, cluster, &cfg.calibration) else {
        return true;
    };

    let log = PassLog::default();
    let pm = timed_pass_manager(&log);
    let art = Artifacts::new(cluster)
        .with_plan(&plan)
        .with_memory(&memory)
        .with_dag(lowered.dag())
        .with_calibration(&cfg.calibration);
    let (report, _) = tr.span("lint", |tr| {
        let report = pm.run(&art);
        for (code, start, dur) in log.borrow_mut().drain(..) {
            tr.record(format!("lint.{code}"), start, dur);
            tr.add(&format!("lint.{code}.s"), dur.as_secs_f64());
        }
        report
    });
    tr.add("lint.diagnostics", report.diagnostics.len() as f64);
    report.memory.as_ref().is_some_and(|m| !m.fits) || report.deny_count() > 0
}

/// `ServeSpec::execute` with the simulator build and the serve loop timed
/// separately; serving's own layers are counted, not timed.
fn trace_serve(tr: &mut Tracer, spec: &ServeSpec, reference: u64) -> Result<(), String> {
    let mut sim = tr
        .layer("hw.cluster", "hw.cluster_s", || {
            let mut sim = TrainingSim::with_calibration(spec.cluster.clone(), spec.calibration)?;
            for members in &spec.volumes {
                sim.cluster_mut().create_volume(members.clone());
            }
            Ok::<_, zerosim_core::CoreError>(sim)
        })
        .map_err(|e| e.to_string())?;
    tr.add("hw.links", sim.cluster().net().link_count() as f64);
    let solver0 = sim.cluster().net().solver_stats();
    let (report, _) = tr.span("serve", |_| {
        serve(
            &mut sim,
            &spec.strategy,
            &spec.model,
            &spec.opts,
            &spec.trace,
            spec.max_batch,
        )
    });
    let report = report.map_err(|e| e.to_string())?;
    add_solver(
        tr,
        &sim.cluster().net().solver_stats().delta_since(&solver0),
    );
    let runs = report.prefills + report.decode_steps;
    tr.add("serve.engine_runs", runs as f64);
    tr.add("serve.plan_lowerings", report.plan_lowerings as f64);
    tr.add(
        "serve.plan_cache_hit_ratio",
        1.0 - report.plan_lowerings as f64 / runs.max(1) as f64,
    );
    if report.digest() != reference {
        return Err("traced serve digest differs from the untraced op".into());
    }
    Ok(())
}

/// Runs one traced op of `inputs` under a span called `name` and checks
/// it against `first`, the untraced op of the same inputs. Returns the
/// traced op's seconds; the layer metrics stay in `tr`.
///
/// # Errors
/// A failed layer call or a cross-check that does not hold.
pub(crate) fn traced_op(
    tr: &mut Tracer,
    name: &str,
    inputs: &Inputs,
    first: &OpOutput,
) -> Result<f64, String> {
    let (checked, secs) = tr.span(format!("{name} traced op"), |tr| {
        match (inputs, &first.detail) {
            (Inputs::Training(specs), Detail::Training(untraced)) => {
                for (spec, &want) in specs.iter().zip(untraced) {
                    let (got, _) = tr.span(spec.label.clone(), |tr| trace_training(tr, spec));
                    let got = got?;
                    if got != want {
                        return Err(format!(
                            "{}: traced iteration {} ns, untraced {} ns",
                            spec.label,
                            got.as_nanos(),
                            want.as_nanos()
                        ));
                    }
                }
                Ok(())
            }
            (Inputs::Search(cfg), Detail::Search(report)) => trace_search(tr, cfg, report),
            (Inputs::Serve(spec), Detail::Serve) => trace_serve(tr, spec, first.digest),
            _ => Err("op output does not match its inputs".into()),
        }
    });
    checked.map(|()| secs)
}

//! The pass framework: analysis inputs, the diagnostic sink, the
//! [`Pass`] trait, and the [`PassManager`] that runs a configured suite
//! and folds findings into an [`AnalysisReport`].

use zerosim_hw::Cluster;
use zerosim_simkit::{Dag, FaultSchedule};
use zerosim_strategies::{Calibration, MemoryPlan, WorkloadPlan};
use zerosim_testkit::json::Json;

use crate::diag::{Diagnostic, LintCode, LintConfig, LintLevel, Severity, Site};
use crate::graph::GraphView;

/// Everything a lint run may inspect. Passes skip silently when their
/// input layer is absent, so callers lint whatever artifacts they have:
/// a bare fault schedule, a plan without a lowering, or the full stack.
#[derive(Debug, Clone, Copy)]
pub struct Artifacts<'a> {
    /// The hardware model everything is checked against.
    pub cluster: &'a Cluster,
    /// The iteration-plan IR (ZL001–ZL005, ZL008).
    pub plan: Option<&'a WorkloadPlan>,
    /// The strategy's memory placement (ZL001 residency, ZL002 credit).
    pub memory: Option<&'a MemoryPlan>,
    /// The lowered DAG (ZL009). ZL006 never reads it: a [`Dag`]
    /// is acyclic by construction.
    pub dag: Option<&'a Dag>,
    /// An untrusted dependency graph, the only input ZL006 checks.
    pub graph: Option<&'a GraphView>,
    /// The fault schedule (ZL007).
    pub faults: Option<&'a FaultSchedule>,
    /// Simulation horizon in seconds; fault events past it never fire.
    pub horizon_s: Option<f64>,
    /// The calibration used to lower the plan (ZL009 prices compute at
    /// the calibrated un-jittered kernel times).
    pub calib: Option<&'a Calibration>,
}

impl<'a> Artifacts<'a> {
    /// Artifacts over `cluster` with every optional layer absent.
    pub fn new(cluster: &'a Cluster) -> Self {
        Artifacts {
            cluster,
            plan: None,
            memory: None,
            dag: None,
            graph: None,
            faults: None,
            horizon_s: None,
            calib: None,
        }
    }

    /// Attaches the iteration plan.
    #[must_use]
    pub fn with_plan(mut self, plan: &'a WorkloadPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches the memory placement.
    #[must_use]
    pub fn with_memory(mut self, memory: &'a MemoryPlan) -> Self {
        self.memory = Some(memory);
        self
    }

    /// Attaches the lowered DAG.
    #[must_use]
    pub fn with_dag(mut self, dag: &'a Dag) -> Self {
        self.dag = Some(dag);
        self
    }

    /// Attaches an untrusted dependency graph.
    #[must_use]
    pub fn with_graph(mut self, graph: &'a GraphView) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Attaches a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the horizon for fault-event reachability.
    #[must_use]
    pub fn with_horizon_s(mut self, horizon_s: f64) -> Self {
        self.horizon_s = Some(horizon_s);
        self
    }

    /// Attaches the lowering calibration.
    #[must_use]
    pub fn with_calibration(mut self, calib: &'a Calibration) -> Self {
        self.calib = Some(calib);
        self
    }
}

/// Static per-tier residency bound computed by ZL001.
///
/// `*_resident` is the strategy's placed state ([`MemoryPlan`]);
/// `*_peak` adds the worst single-phase transient staging bytes the plan
/// moves into the tier, so `peak >= resident >= simulated residency`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryVerdict {
    /// Resident bytes on the most-loaded GPU.
    pub per_gpu_resident: f64,
    /// Cumulative KV-cache bytes appended on the most-loaded GPU over the
    /// plan's decode steps (serving plans; `0` for training). Residency,
    /// not staging: it adds to the deny bound, not just the peak.
    pub kv_growth: f64,
    /// Static peak bound on the most-loaded GPU.
    pub per_gpu_peak: f64,
    /// HBM capacity per GPU.
    pub gpu_capacity: f64,
    /// Resident host bytes on the most-loaded node.
    pub per_node_cpu_resident: f64,
    /// Static peak bound on the most-loaded node.
    pub per_node_cpu_peak: f64,
    /// DRAM capacity per node.
    pub cpu_capacity: f64,
    /// Resident bytes across NVMe volumes.
    pub nvme_resident: f64,
    /// Static peak bound across NVMe volumes.
    pub nvme_peak: f64,
    /// Aggregate NVMe capacity.
    pub nvme_capacity: f64,
    /// Whether the resident placement fits every tier (exactly
    /// [`MemoryPlan::fits`] semantics, so ZL001 agrees with the
    /// simulator's capacity probe).
    pub fits: bool,
    /// First overflowing tier (`"gpu"` / `"cpu"` / `"nvme"`), if any.
    pub bottleneck: Option<&'static str>,
}

impl MemoryVerdict {
    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("per_gpu_resident".into(), Json::Num(self.per_gpu_resident)),
            ("kv_growth".into(), Json::Num(self.kv_growth)),
            ("per_gpu_peak".into(), Json::Num(self.per_gpu_peak)),
            ("gpu_capacity".into(), Json::Num(self.gpu_capacity)),
            (
                "per_node_cpu_resident".into(),
                Json::Num(self.per_node_cpu_resident),
            ),
            (
                "per_node_cpu_peak".into(),
                Json::Num(self.per_node_cpu_peak),
            ),
            ("cpu_capacity".into(), Json::Num(self.cpu_capacity)),
            ("nvme_resident".into(), Json::Num(self.nvme_resident)),
            ("nvme_peak".into(), Json::Num(self.nvme_peak)),
            ("nvme_capacity".into(), Json::Num(self.nvme_capacity)),
            ("fits".into(), Json::Bool(self.fits)),
            (
                "bottleneck".into(),
                match self.bottleneck {
                    Some(t) => Json::Str(t.into()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Which side of the attainment equation binds a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// The physical wire rate binds: flows can saturate the link.
    Wire,
    /// A per-flow protocol cap binds below the wire rate (the paper's
    /// "engine efficiency" ceilings): the wire can never saturate.
    Protocol,
}

impl BoundKind {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            BoundKind::Wire => "wire",
            BoundKind::Protocol => "protocol",
        }
    }
}

/// Static per-link load classification computed by ZL004.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkVerdict {
    /// Link name in the flow network.
    pub name: String,
    /// Nominal capacity (sustained rate for bucketed links).
    pub wire_capacity: f64,
    /// Tightest per-flow cap among flows crossing the link
    /// (`f64::INFINITY` when uncapped).
    pub flow_cap: f64,
    /// Total bytes the plan pushes across the link.
    pub demand_bytes: f64,
    /// Number of distinct flows crossing the link.
    pub flows: usize,
    /// Wire-bound vs protocol-bound.
    pub bound: BoundKind,
}

impl LinkVerdict {
    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("wire_capacity".into(), Json::Num(self.wire_capacity)),
            (
                "flow_cap".into(),
                if self.flow_cap.is_finite() {
                    Json::Num(self.flow_cap)
                } else {
                    Json::Null
                },
            ),
            ("demand_bytes".into(), Json::Num(self.demand_bytes)),
            ("flows".into(), Json::Num(num(self.flows))),
            ("bound".into(), Json::Str(self.bound.label().into())),
        ])
    }
}

/// Static step-time lower bound computed by ZL009.
///
/// Both bounds walk the lowered DAG's longest path. `wire_sol_s` prices
/// every transfer at the physical wire rate of its slowest hop (a
/// speed-of-light floor no schedule can beat); `protocol_s` additionally
/// applies each transfer's per-flow protocol cap, so it is the tighter
/// bound and the one compared against simulated iteration time.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTimeBound {
    /// Longest-path time with transfers at wire speed-of-light.
    pub wire_sol_s: f64,
    /// Longest-path time with per-flow protocol caps applied.
    pub protocol_s: f64,
    /// Tasks on the protocol-bound critical path.
    pub critical_tasks: usize,
    /// Seconds of the protocol-bound path spent in transfers.
    pub transfer_s: f64,
    /// Seconds of the protocol-bound path spent in compute and delays.
    pub compute_s: f64,
}

impl StepTimeBound {
    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wire_sol_s".into(), Json::Num(self.wire_sol_s)),
            ("protocol_s".into(), Json::Num(self.protocol_s)),
            ("critical_tasks".into(), Json::Num(num(self.critical_tasks))),
            ("transfer_s".into(), Json::Num(self.transfer_s)),
            ("compute_s".into(), Json::Num(self.compute_s)),
        ])
    }
}

#[allow(clippy::cast_precision_loss)]
fn num(i: usize) -> f64 {
    i as f64
}

/// Collects findings during a run, applying the configured lint levels.
#[derive(Debug)]
pub struct Sink<'c> {
    config: &'c LintConfig,
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
    memory: Option<MemoryVerdict>,
    links: Vec<LinkVerdict>,
    bound: Option<StepTimeBound>,
}

impl<'c> Sink<'c> {
    fn new(config: &'c LintConfig) -> Self {
        Sink {
            config,
            diagnostics: Vec::new(),
            suppressed: 0,
            memory: None,
            links: Vec::new(),
            bound: None,
        }
    }

    fn push(
        &mut self,
        code: LintCode,
        severity: Severity,
        site: Site,
        message: String,
        help: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            site,
            message,
            help,
        });
    }

    /// Reports a finding at the code's configured level (`deny` level
    /// yields [`Severity::Deny`], `warn` yields [`Severity::Warning`],
    /// `allow` suppresses).
    pub fn report(&mut self, code: LintCode, site: Site, message: String, help: String) {
        match self.config.level(code) {
            LintLevel::Allow => self.suppressed += 1,
            LintLevel::Warn => self.push(code, Severity::Warning, site, message, help),
            LintLevel::Deny => self.push(code, Severity::Deny, site, message, help),
        }
    }

    /// Reports an advisory finding that never exceeds `max` severity,
    /// regardless of the configured level. Used for "suspicious but
    /// legal" findings inside deny-level lints.
    pub fn report_at_most(
        &mut self,
        code: LintCode,
        max: Severity,
        site: Site,
        message: String,
        help: String,
    ) {
        let configured = match self.config.level(code) {
            LintLevel::Allow => {
                self.suppressed += 1;
                return;
            }
            LintLevel::Warn => Severity::Warning,
            LintLevel::Deny => Severity::Deny,
        };
        let sev = configured.min(max);
        self.push(code, sev, site, message, help);
    }

    /// Records the ZL001 verdict for the report.
    pub fn set_memory_verdict(&mut self, v: MemoryVerdict) {
        self.memory = Some(v);
    }

    /// Records one ZL004 link verdict for the report.
    pub fn push_link_verdict(&mut self, v: LinkVerdict) {
        self.links.push(v);
    }

    /// Records the ZL009 step-time bound for the report.
    pub fn set_step_bound(&mut self, b: StepTimeBound) {
        self.bound = Some(b);
    }
}

/// One static analysis over some artifact layer.
pub trait Pass: std::fmt::Debug {
    /// The stable code of the findings this pass emits.
    fn code(&self) -> LintCode;
    /// Runs the analysis, reporting findings into `sink`.
    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>);
}

/// The outcome of a lint run: diagnostics plus the structured verdicts
/// the consistency tests cross-check against the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// All findings, in pass-registration then site order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings dropped by `allow`-level configuration.
    pub suppressed: usize,
    /// ZL001's static residency bound, when the pass ran.
    pub memory: Option<MemoryVerdict>,
    /// ZL004's per-link classification, when the pass ran.
    pub links: Vec<LinkVerdict>,
    /// ZL009's static step-time lower bound, when the pass ran.
    pub bound: Option<StepTimeBound>,
}

impl AnalysisReport {
    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// True when no deny-severity finding was produced.
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Renders every diagnostic plus a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!(
            "planlint: {} deny, {} warning(s), {} note(s), {} suppressed\n",
            self.deny_count(),
            self.warning_count(),
            self.note_count(),
            self.suppressed
        ));
        out
    }

    /// Machine-readable form of the full report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "diagnostics".into(),
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            ("deny".into(), Json::Num(num(self.deny_count()))),
            ("warnings".into(), Json::Num(num(self.warning_count()))),
            ("notes".into(), Json::Num(num(self.note_count()))),
            ("suppressed".into(), Json::Num(num(self.suppressed))),
            (
                "memory".into(),
                match &self.memory {
                    Some(m) => m.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "links".into(),
                Json::Arr(self.links.iter().map(LinkVerdict::to_json).collect()),
            ),
            (
                "bound".into(),
                match &self.bound {
                    Some(b) => b.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Runs a registered suite of passes under a [`LintConfig`].
#[derive(Debug)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    config: LintConfig,
}

impl PassManager {
    /// An empty manager with `config`.
    pub fn new(config: LintConfig) -> Self {
        PassManager {
            passes: Vec::new(),
            config,
        }
    }

    /// A manager with every in-tree pass (ZL001–ZL009) registered.
    pub fn with_default_passes(config: LintConfig) -> Self {
        let mut pm = PassManager::new(config);
        for pass in crate::passes::default_passes() {
            pm.register(pass);
        }
        pm
    }

    /// Registers an additional pass; passes run in registration order.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The lint-level configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Codes of the registered passes, in run order.
    pub fn pass_codes(&self) -> Vec<LintCode> {
        self.passes.iter().map(|p| p.code()).collect()
    }

    /// Runs every registered pass over `art`.
    pub fn run(&self, art: &Artifacts<'_>) -> AnalysisReport {
        let mut sink = Sink::new(&self.config);
        for pass in &self.passes {
            pass.run(art, &mut sink);
        }
        AnalysisReport {
            diagnostics: sink.diagnostics,
            suppressed: sink.suppressed,
            memory: sink.memory,
            links: sink.links,
            bound: sink.bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    #[derive(Debug)]
    struct AlwaysFires;
    impl Pass for AlwaysFires {
        fn code(&self) -> LintCode {
            LintCode::DeadOps
        }
        fn run(&self, _art: &Artifacts<'_>, sink: &mut Sink<'_>) {
            sink.report(
                LintCode::DeadOps,
                Site::Config,
                "synthetic finding".into(),
                String::new(),
            );
        }
    }

    #[test]
    fn sink_applies_lint_levels() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let art = Artifacts::new(&cluster);

        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(AlwaysFires));
        let r = pm.run(&art);
        assert_eq!(r.warning_count(), 1, "default level for ZL005 is warn");
        assert!(r.is_clean());

        let mut pm = PassManager::new(LintConfig::new().with(LintCode::DeadOps, LintLevel::Deny));
        pm.register(Box::new(AlwaysFires));
        let r = pm.run(&art);
        assert_eq!(r.deny_count(), 1);
        assert!(!r.is_clean());

        let mut pm = PassManager::new(LintConfig::new().with(LintCode::DeadOps, LintLevel::Allow));
        pm.register(Box::new(AlwaysFires));
        let r = pm.run(&art);
        assert_eq!(r.diagnostics.len(), 0);
        assert_eq!(r.suppressed, 1);
        assert!(r.render_text().contains("1 suppressed"));
    }

    #[test]
    fn default_manager_registers_all_nine_passes() {
        let pm = PassManager::with_default_passes(LintConfig::new());
        let codes = pm.pass_codes();
        assert_eq!(codes.len(), 9);
        for c in LintCode::ALL {
            assert!(codes.contains(&c), "missing pass {c}");
        }
        assert_eq!(pm.config().level(LintCode::DagCycle), LintLevel::Deny);
    }

    #[test]
    fn report_json_has_summary_fields() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let pm = PassManager::with_default_passes(LintConfig::new());
        let r = pm.run(&Artifacts::new(&cluster));
        let j = r.to_json().render();
        assert!(j.contains("\"diagnostics\""));
        assert!(j.contains("\"deny\""));
        assert!(j.contains("\"links\""));
        assert!(j.contains("\"bound\""));
    }
}

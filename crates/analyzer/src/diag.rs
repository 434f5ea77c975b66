//! The diagnostics vocabulary: stable lint codes, severities, sites,
//! configurable lint levels, and the text / JSON renderers.

use std::fmt;

use zerosim_testkit::json::Json;

/// Stable identifier of one static analysis.
///
/// Codes are append-only: a code never changes meaning once shipped, so
/// `allow`/`deny` pins in configs and scripts stay valid across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// ZL001 — per-tier memory residency vs. hardware capacities.
    MemoryResidency,
    /// ZL002 — per-shard produced/consumed byte conservation.
    ByteConservation,
    /// ZL003 — phase ordering / happens-before legality.
    PhaseOrdering,
    /// ZL004 — op bandwidth demand vs. link capacities along routes.
    BandwidthFeasibility,
    /// ZL005 — dead (no-effect) tasks in lowered DAGs.
    DeadOps,
    /// ZL006 — dependency cycles / dangling edges in task graphs.
    DagCycle,
    /// ZL007 — fault-schedule sanity.
    FaultSchedule,
    /// ZL008 — codec pairing: encoded bytes reach compute only through a
    /// decode, and every decode is fed encoded bytes.
    CodecLegality,
    /// ZL009 — static step-time lower bound vs. link ceilings.
    StepTimeBound,
}

impl LintCode {
    /// Every registered code, in numeric order.
    pub const ALL: [LintCode; 9] = [
        LintCode::MemoryResidency,
        LintCode::ByteConservation,
        LintCode::PhaseOrdering,
        LintCode::BandwidthFeasibility,
        LintCode::DeadOps,
        LintCode::DagCycle,
        LintCode::FaultSchedule,
        LintCode::CodecLegality,
        LintCode::StepTimeBound,
    ];

    /// The stable `ZLxxx` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::MemoryResidency => "ZL001",
            LintCode::ByteConservation => "ZL002",
            LintCode::PhaseOrdering => "ZL003",
            LintCode::BandwidthFeasibility => "ZL004",
            LintCode::DeadOps => "ZL005",
            LintCode::DagCycle => "ZL006",
            LintCode::FaultSchedule => "ZL007",
            LintCode::CodecLegality => "ZL008",
            LintCode::StepTimeBound => "ZL009",
        }
    }

    /// Short kebab-case name (Clippy-style).
    pub fn name(self) -> &'static str {
        match self {
            LintCode::MemoryResidency => "memory-residency",
            LintCode::ByteConservation => "byte-conservation",
            LintCode::PhaseOrdering => "phase-ordering",
            LintCode::BandwidthFeasibility => "bandwidth-feasibility",
            LintCode::DeadOps => "dead-ops",
            LintCode::DagCycle => "dag-cycle",
            LintCode::FaultSchedule => "fault-schedule",
            LintCode::CodecLegality => "codec-legality",
            LintCode::StepTimeBound => "step-time-bound",
        }
    }

    /// The default enforcement level of this lint.
    pub fn default_level(self) -> LintLevel {
        match self {
            // Dead joins are wasteful, not wrong.
            LintCode::DeadOps => LintLevel::Warn,
            _ => LintLevel::Deny,
        }
    }

    /// Parses a `ZLxxx` code or kebab-case name.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Enforcement level of a lint, configured per [`LintCode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintLevel {
    /// Findings are suppressed entirely.
    Allow,
    /// Findings are reported but never fail a gate.
    Warn,
    /// Findings fail the gate (non-zero `planlint` exit).
    Deny,
}

impl LintLevel {
    /// Parses `allow` / `warn` / `deny`.
    pub fn parse(s: &str) -> Option<LintLevel> {
        match s {
            "allow" => Some(LintLevel::Allow),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }
}

/// How serious one concrete finding is, after lint-level configuration
/// is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but not gate-failing.
    Warning,
    /// Gate-failing.
    Deny,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Deny => "deny",
        }
    }
}

/// Where a finding is anchored: a plan op, a DAG task, a fault event, a
/// link, or the configuration as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum Site {
    /// The configuration as a whole (e.g. a memory-plan verdict).
    Config,
    /// Iteration-plan op by emission index.
    PlanOp(usize),
    /// Lowered-DAG task by insertion index.
    DagTask(usize),
    /// Fault-schedule event by insertion index.
    FaultEvent(usize),
    /// A named link of the cluster fabric.
    Link(String),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Config => write!(f, "config"),
            Site::PlanOp(i) => write!(f, "op {i}"),
            Site::DagTask(i) => write!(f, "task {i}"),
            Site::FaultEvent(i) => write!(f, "fault {i}"),
            Site::Link(name) => write!(f, "link {name}"),
        }
    }
}

impl Site {
    fn to_json(&self) -> Json {
        let (kind, detail) = match self {
            Site::Config => ("config", Json::Null),
            Site::PlanOp(i) => {
                let idx = *i;
                ("plan-op", Json::Num(to_num(idx)))
            }
            Site::DagTask(i) => ("dag-task", Json::Num(to_num(*i))),
            Site::FaultEvent(i) => ("fault-event", Json::Num(to_num(*i))),
            Site::Link(name) => ("link", Json::Str(name.clone())),
        };
        Json::Obj(vec![
            ("kind".into(), Json::Str(kind.into())),
            ("detail".into(), detail),
        ])
    }
}

/// Lossless for every index the simulator produces (< 2^53).
#[allow(clippy::cast_precision_loss)]
fn to_num(i: usize) -> f64 {
    i as f64
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which analysis produced it.
    pub code: LintCode,
    /// Effective severity after lint-level configuration.
    pub severity: Severity,
    /// Where it is anchored.
    pub site: Site,
    /// What is wrong.
    pub message: String,
    /// How to fix or silence it.
    pub help: String,
}

impl Diagnostic {
    /// Renders one `severity[code] site: message` line (plus a help line
    /// when present).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.code,
            self.site,
            self.message
        );
        if !self.help.is_empty() {
            out.push_str("\n    = help: ");
            out.push_str(&self.help);
        }
        out
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("code".into(), Json::Str(self.code.code().into())),
            ("lint".into(), Json::Str(self.code.name().into())),
            ("severity".into(), Json::Str(self.severity.label().into())),
            ("site".into(), self.site.to_json()),
            ("message".into(), Json::Str(self.message.clone())),
            ("help".into(), Json::Str(self.help.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_text())
    }
}

/// Per-code lint-level configuration.
///
/// Starts from each code's [`LintCode::default_level`]; overrides are
/// explicit and queryable, so intentional `allow` pins stay visible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    overrides: Vec<(LintCode, LintLevel)>,
}

impl LintConfig {
    /// The default configuration (no overrides).
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Sets `code` to `level`, replacing any previous override.
    pub fn set(&mut self, code: LintCode, level: LintLevel) {
        if let Some(e) = self.overrides.iter_mut().find(|(c, _)| *c == code) {
            e.1 = level;
        } else {
            self.overrides.push((code, level));
        }
    }

    /// Builder form of [`LintConfig::set`].
    #[must_use]
    pub fn with(mut self, code: LintCode, level: LintLevel) -> Self {
        self.set(code, level);
        self
    }

    /// The effective level of `code`.
    pub fn level(&self, code: LintCode) -> LintLevel {
        self.overrides
            .iter()
            .find(|(c, _)| *c == code)
            .map(|(_, l)| *l)
            .unwrap_or_else(|| code.default_level())
    }

    /// Parses a `ZLxxx=allow|warn|deny` (or `name=level`) directive.
    ///
    /// # Errors
    /// A human-readable message naming the bad code or level.
    pub fn apply_directive(&mut self, directive: &str) -> Result<(), String> {
        let (code_s, level_s) = directive
            .split_once('=')
            .ok_or_else(|| format!("bad lint directive '{directive}' (want CODE=LEVEL)"))?;
        let code = LintCode::parse(code_s.trim())
            .ok_or_else(|| format!("unknown lint code '{}'", code_s.trim()))?;
        let level = LintLevel::parse(level_s.trim())
            .ok_or_else(|| format!("unknown lint level '{}' (allow|warn|deny)", level_s.trim()))?;
        self.set(code, level);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parse_both_ways() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.code()), Some(c));
            assert_eq!(LintCode::parse(c.name()), Some(c));
            assert!(c.code().starts_with("ZL"));
        }
        assert_eq!(LintCode::parse("ZL999"), None);
        assert_eq!(LintCode::MemoryResidency.code(), "ZL001");
        assert_eq!(LintCode::FaultSchedule.code(), "ZL007");
        assert_eq!(LintCode::CodecLegality.code(), "ZL008");
        assert_eq!(LintCode::StepTimeBound.code(), "ZL009");
    }

    #[test]
    fn config_levels_default_and_override() {
        let mut cfg = LintConfig::new();
        assert_eq!(cfg.level(LintCode::MemoryResidency), LintLevel::Deny);
        assert_eq!(cfg.level(LintCode::DeadOps), LintLevel::Warn);
        cfg.set(LintCode::MemoryResidency, LintLevel::Allow);
        assert_eq!(cfg.level(LintCode::MemoryResidency), LintLevel::Allow);
        cfg.apply_directive("ZL005=deny").unwrap();
        assert_eq!(cfg.level(LintCode::DeadOps), LintLevel::Deny);
        cfg.apply_directive("dead-ops=warn").unwrap();
        assert_eq!(cfg.level(LintCode::DeadOps), LintLevel::Warn);
        assert!(cfg.apply_directive("ZL001").is_err());
        assert!(cfg.apply_directive("ZL099=deny").is_err());
        assert!(cfg.apply_directive("ZL001=loud").is_err());
    }

    #[test]
    fn diagnostic_renders_text_and_json() {
        let d = Diagnostic {
            code: LintCode::MemoryResidency,
            severity: Severity::Deny,
            site: Site::Config,
            message: "per-GPU residency 62.0 GB exceeds HBM 40.0 GB".into(),
            help: "shard more state or shrink the model".into(),
        };
        let t = d.render_text();
        assert!(t.starts_with("deny[ZL001] config:"), "{t}");
        assert!(t.contains("help:"));
        let j = d.to_json().render();
        assert!(j.contains("\"ZL001\""));
        assert!(j.contains("\"deny\""));
    }

    #[test]
    fn sites_display_compactly() {
        assert_eq!(Site::PlanOp(3).to_string(), "op 3");
        assert_eq!(Site::DagTask(9).to_string(), "task 9");
        assert_eq!(Site::FaultEvent(0).to_string(), "fault 0");
        assert_eq!(
            Site::Link("n0nic0.roce.tx".into()).to_string(),
            "link n0nic0.roce.tx"
        );
    }
}

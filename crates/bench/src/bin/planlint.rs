//! `planlint` — static analysis (lint) over strategy iteration plans,
//! lowered DAGs, and memory plans, before any simulated flow runs.
//!
//! Usage:
//!
//! ```text
//! planlint [--json] [--level CODE=LEVEL]... [--nodes N | --topology SPEC] golden
//! planlint [--json] [--level CODE=LEVEL]... [--nodes N | --topology SPEC] <strategy>...
//! planlint list
//! ```
//!
//! * `golden` lints the paper's full strategy matrix (the 12 golden
//!   configurations `repro`/`verify.sh` reproduce), each on its paper
//!   cluster shape.
//! * `<strategy>...` lints strategies by registry name (`planlint list`
//!   prints the table `sweep` and `trace` share) on a `--nodes N`
//!   cluster (default 1; NVMe strategies get a two-drive volume on
//!   node 0, as in the paper).
//! * `--topology SPEC` lints named strategies against a generated
//!   topology instead — `paper`, `flat:<nodes>`,
//!   `fat-tree:<racks>x<nodes_per_rack>:<oversub>`, or
//!   `pods:<pods>x<islands>x<gpus>:<pod>:<spine>` — spanning all its
//!   nodes (overrides `--nodes`).
//! * `--level ZLxxx=allow|warn|deny` overrides a lint's level.
//!
//! Exit status: 0 when no deny-level findings, 1 when any config has
//! deny findings, 2 on usage errors.
//!
//! JSON output is versioned: the top level is an object with a
//! `schema_version` field and the per-config reports under `configs`.

use zerosim_analyzer::{analyze_strategy, AnalysisReport, LintConfig};
use zerosim_bench::cli::{
    parse_count, parse_topology, strategy_by_name, strategy_names, take_flag, take_value,
    usage_error,
};
use zerosim_bench::data::golden_matrix;
use zerosim_core::{RunConfig, SweepSpec};
use zerosim_hw::ClusterSpec;
use zerosim_model::GptConfig;
use zerosim_strategies::TrainOptions;
use zerosim_testkit::json::Json;

/// Version of the `--json` output shape. Bump on any structural change
/// so downstream tooling can pin what it parses.
const SCHEMA_VERSION: f64 = 2.0;

/// A lintable configuration: the paper's 1.4 B model under the strategy
/// named `name` ([`strategy_by_name`]) on every node of `cluster`. Exits
/// with a usage error when the name is not in the strategy table.
fn case(name: &str, cluster: ClusterSpec) -> SweepSpec {
    let nodes = cluster.nodes;
    let spec = strategy_by_name(
        name,
        GptConfig::paper_model_with_params(1.4),
        TrainOptions::for_nodes(nodes),
    )
    .unwrap_or_else(|e| usage_error(&e));
    SweepSpec {
        label: format!("{name} @ {nodes} node(s)"),
        ..spec
    }
    .with_cluster(cluster)
    .with_run(RunConfig::quick())
}

fn paper_cluster(nodes: usize) -> ClusterSpec {
    ClusterSpec::default().with_nodes(nodes)
}

/// The paper's golden strategy matrix: every `(strategy, nodes)` pair the
/// reproduction harness characterizes, plus the ZeRO-Infinity NVMe config.
fn golden_cases() -> Vec<SweepSpec> {
    let mut cases: Vec<SweepSpec> = golden_matrix()
        .into_iter()
        .map(|(strategy, nodes)| case(&strategy.name(), paper_cluster(nodes)))
        .collect();
    cases.push(case("ZeRO-Infinity (NVME opt+param)", paper_cluster(1)));
    cases
}

/// Lints `spec`'s strategy on the cluster [`SweepSpec::build_sim`] makes.
fn lint(spec: &SweepSpec, config: LintConfig) -> Result<AnalysisReport, String> {
    let sim = spec.build_sim().map_err(|e| e.to_string())?;
    analyze_strategy(
        sim.cluster(),
        &spec.strategy,
        &spec.model,
        &spec.opts,
        sim.calibration(),
        config,
    )
    .map_err(|e| e.to_string())
}

/// Assembles the versioned `--json` document from per-config reports.
fn render_json(results: &[(String, AnalysisReport)]) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(SCHEMA_VERSION)),
        (
            "configs".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|(label, report)| {
                        Json::Obj(vec![
                            ("config".into(), Json::Str(label.clone())),
                            ("report".into(), report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn usage() -> ! {
    eprintln!(
        "usage: planlint [--json] [--level CODE=LEVEL]... [--nodes N | --topology SPEC] \
         golden|<strategy>..."
    );
    eprintln!("       planlint list");
    eprintln!("strategies: {}", strategy_names().join(", "));
    eprintln!(
        "topologies: paper | flat:<nodes> | fat-tree:<racks>x<npr>:<over> | \
         pods:<pods>x<islands>x<gpus>:<pod>:<spine>"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag(&mut args, "--json");
    let mut config = LintConfig::new();
    while let Some(directive) = take_value(&mut args, "--level") {
        if let Err(e) = config.apply_directive(&directive) {
            usage_error(&format!("--level {directive}: {e}"));
        }
    }
    let nodes = parse_count(take_value(&mut args, "--nodes"), "--nodes", 1);
    let topology = take_value(&mut args, "--topology").map(|raw| parse_topology(Some(raw)));
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    if args.iter().any(|a| a == "list") {
        for name in strategy_names() {
            println!("{name}");
        }
        return;
    }

    let cases: Vec<SweepSpec> = if args.iter().any(|a| a == "golden") {
        if topology.is_some() {
            usage_error("--topology applies to named strategies; `golden` pins the paper shapes");
        }
        golden_cases()
    } else {
        let cluster = match &topology {
            Some(t) => t.build().expect("parsed topology builds"),
            None => paper_cluster(nodes),
        };
        args.iter()
            .map(|name| case(name, cluster.clone()))
            .collect()
    };

    let mut denies = 0usize;
    let mut out: Vec<(String, AnalysisReport)> = Vec::new();
    for case in &cases {
        let report = match lint(case, config.clone()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: cannot plan/lower: {e}", case.label);
                std::process::exit(1);
            }
        };
        denies += report.deny_count();
        if json {
            out.push((case.label.clone(), report));
        } else {
            let status = if report.deny_count() > 0 {
                "DENY"
            } else if report.warning_count() > 0 {
                "warn"
            } else {
                "ok"
            };
            println!("[{status:>4}] {}", case.label);
            let text = report.render_text();
            if !text.is_empty() {
                for line in text.lines() {
                    println!("       {line}");
                }
            }
        }
    }
    if json {
        println!("{}", render_json(&out).render());
    }
    if denies > 0 {
        eprintln!("planlint: {denies} deny-level finding(s)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(obj: &Json) -> Vec<&str> {
        match obj {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {}", other.render()),
        }
    }

    fn field<'a>(obj: &'a Json, name: &str) -> &'a Json {
        match obj {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing field {name:?} in {}", obj.render())),
            other => panic!("expected an object, got {}", other.render()),
        }
    }

    /// Pins the `--json` document shape downstream tooling parses:
    /// `schema_version` at the top level, then one `{config, report}`
    /// entry per linted config, the report keeping its stable keys
    /// (including the ZL009 `bound` verdict). Structural changes must
    /// show up here *and* bump `SCHEMA_VERSION`.
    #[test]
    fn json_document_shape_is_pinned() {
        let case = &golden_cases()[0];
        let report = lint(case, LintConfig::new()).expect("golden config lints");
        let doc = render_json(&[(case.label.clone(), report)]);

        assert_eq!(keys(&doc), ["schema_version", "configs"]);
        match field(&doc, "schema_version") {
            Json::Num(v) => assert!((*v - SCHEMA_VERSION).abs() < f64::EPSILON),
            other => panic!("schema_version must be a number, got {}", other.render()),
        }
        let Json::Arr(configs) = field(&doc, "configs") else {
            panic!("configs must be an array");
        };
        assert_eq!(configs.len(), 1);
        assert_eq!(keys(&configs[0]), ["config", "report"]);
        assert!(matches!(field(&configs[0], "config"), Json::Str(_)));

        let report = field(&configs[0], "report");
        assert_eq!(
            keys(report),
            [
                "diagnostics",
                "deny",
                "warnings",
                "notes",
                "suppressed",
                "memory",
                "links",
                "bound"
            ]
        );
        // A lowered golden config always carries the ZL009 verdict with
        // its stable keys.
        let bound = field(report, "bound");
        assert_eq!(
            keys(bound),
            [
                "wire_sol_s",
                "protocol_s",
                "critical_tasks",
                "transfer_s",
                "compute_s"
            ]
        );
        // The serialized document round-trips through the renderer
        // without structural surprises (stable key order).
        let rendered = doc.render();
        assert!(rendered.starts_with("{\"schema_version\":2"), "{rendered}");
    }
}

//! `BENCHMARK.json` against the binary: schema, name rules, caps, and the
//! exact set of workload and metric names the binary emits. Runs no
//! workload.

use std::collections::BTreeMap;

use zerosim_analyzer::{LintConfig, PassManager};
use zerosim_perfbench::metrics::{benchmark_json_path, Declared, END_TO_END, PER_LAYER};
use zerosim_perfbench::runner::{summary_line, WorkloadResult, DEFAULT_SECONDS};
use zerosim_perfbench::trace::timed_pass_manager;
use zerosim_perfbench::workloads::Workload;
use zerosim_testkit::json::Json;

fn text() -> String {
    std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json is readable")
}

fn doc() -> Json {
    Json::parse(&text()).expect("BENCHMARK.json parses")
}

fn declared() -> Declared {
    Declared::parse(&text()).expect("BENCHMARK.json declares workloads and metrics")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let Json::Obj(fields) = doc() else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let doc = doc();
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["crates/perfbench"]);
    let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(
        secs.fract() == 0.0 && (1.0..=60.0).contains(&secs),
        "{secs}"
    );
    assert_eq!(
        secs, DEFAULT_SECONDS,
        "`run` measures run_seconds by default"
    );
    let command = doc.get("command").unwrap().as_arr().unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let s = part.as_str().expect("command parts are strings");
        assert!(
            s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
            "{s}"
        );
    }
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let d = declared();
    let mut names: Vec<&str> = d.workloads.iter().map(String::as_str).collect();
    names.extend(d.end_to_end.iter().map(|b| b.name.as_str()));
    names.extend(d.per_layer.iter().map(|(n, _)| n.as_str()));
    for n in &names {
        assert!(valid_name(n), "bad name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
}

#[test]
fn caps_and_bounds_hold() {
    let d = declared();
    assert!((2..=8).contains(&d.workloads.len()));
    assert!((1..=16).contains(&d.end_to_end.len()));
    assert!((1..=128).contains(&d.per_layer.len()));
    for b in &d.end_to_end {
        assert!(
            (0.0..=0.25).contains(&b.bound),
            "{} bound {}",
            b.name,
            b.bound
        );
    }
    let setup = d
        .end_to_end
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    assert!(setup.lower_is_better);
    assert!(
        d.end_to_end.iter().all(|b| b.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
    for w in doc().get("workloads").unwrap().as_arr().unwrap() {
        let why = w
            .get("why")
            .and_then(Json::as_str)
            .expect("every workload says why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn emitted_names_equal_declared_names() {
    let d = declared();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, d.workloads);
    let e2e: Vec<(String, String)> = d
        .end_to_end
        .iter()
        .map(|b| (b.name.clone(), b.unit.clone()))
        .collect();
    let own = |defs: &[zerosim_perfbench::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    assert_eq!(own(&END_TO_END), e2e);
    assert_eq!(own(&PER_LAYER), d.per_layer);

    // The summary line carries exactly these names, in both modes.
    let mut untraced = WorkloadResult::new(Workload::Golden12);
    let line = summary_line(std::slice::from_ref(&untraced), false);
    let keys = |line: &Json| -> Vec<String> {
        let Some(Json::Obj(m)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        m.iter().map(|(k, _)| k.clone()).collect()
    };
    assert_eq!(
        keys(&line),
        own(&END_TO_END)
            .into_iter()
            .map(|p| p.0)
            .collect::<Vec<_>>()
    );
    untraced.per_layer = Some(BTreeMap::new());
    let line = summary_line(&[untraced], true);
    assert_eq!(
        keys(&line),
        own(&PER_LAYER).into_iter().map(|p| p.0).collect::<Vec<_>>()
    );
    let Json::Obj(top) = line else {
        panic!("summary line is an object");
    };
    let top: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(top, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn timed_passes_register_in_default_order() {
    let log = Default::default();
    assert_eq!(
        timed_pass_manager(&log).pass_codes(),
        PassManager::with_default_passes(LintConfig::new()).pass_codes()
    );
}

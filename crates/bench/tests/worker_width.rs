//! The search tools report the width they ran at. `SweepRunner` clamps a
//! request to the machine's cores, so `planfind --json` must carry the
//! clamped count, not the one on its command line.

use std::process::Command;

use zerosim_testkit::json::Json;

#[test]
fn planfind_json_reports_the_worker_count_it_ran_at() {
    let out = Command::new(env!("CARGO_BIN_EXE_planfind"))
        .args([
            "--topology",
            "flat:1",
            "--model",
            "8",
            "--workers",
            "8",
            "--json",
        ])
        .output()
        .expect("planfind runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "planfind failed: {stderr}");
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("planfind prints JSON");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let effective = 8.min(cores);
    assert_eq!(
        doc.get("workers").and_then(Json::as_f64),
        Some(effective as f64)
    );
    let requested = doc.get("requested_workers").and_then(Json::as_f64);
    assert_eq!(requested, (effective < 8).then_some(8.0));
}

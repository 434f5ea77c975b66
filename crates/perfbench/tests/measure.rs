//! Percentiles, op failure accounting, and `compare` verdicts. Runs no
//! workload.

use zerosim_perfbench::compare::{compare, verdict, Verdict};
use zerosim_perfbench::metrics::Declared;
use zerosim_perfbench::runner::Tally;
use zerosim_perfbench::stats::{nearest_rank, Summary};

#[test]
fn nearest_rank_percentiles() {
    let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&sorted, 0.10), Some(1.0));
    assert_eq!(nearest_rank(&sorted, 0.25), Some(3.0));
    assert_eq!(nearest_rank(&sorted, 0.50), Some(5.0));
    assert_eq!(nearest_rank(&sorted, 0.75), Some(8.0));
    assert_eq!(nearest_rank(&sorted, 0.90), Some(9.0));
    assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&sorted, 1.0), Some(10.0));
    assert_eq!(nearest_rank(&[7.0], 0.9), Some(7.0));
    assert_eq!(nearest_rank(&[], 0.5), None);

    let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
    assert_eq!(
        (s.n, s.p10, s.p25, s.p50, s.p75, s.p90),
        (4, 1.0, 1.0, 2.0, 3.0, 4.0)
    );
    assert!((s.spread() - 1.0).abs() < 1e-12);
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn err_and_digest_drift_each_count_as_failed() {
    let mut t = Tally::default();
    assert!(t.record(Ok(7)));
    assert!(t.record(Ok(7)));
    assert!(!t.record(Err("boom")));
    assert!(!t.record(Ok(8)), "digest drift from the first op");
    assert!(t.record(Ok(7)), "the first op's digest stays the reference");
    assert_eq!((t.attempted, t.failed), (5, 2));
    assert!((t.error_rate() - 0.4).abs() < 1e-12);
    assert_eq!(t.reference(), Some(7));

    let mut first_fails = Tally::default();
    assert!(!first_fails.record(Err("warm-up")));
    assert!(first_fails.record(Ok(1)));
    assert_eq!(first_fails.error_rate(), 0.5);
    assert_eq!(Tally::default().error_rate(), 0.0);
}

#[test]
fn verdict_rules() {
    // Parent spread wider than the bound: nothing can be concluded.
    assert_eq!(verdict(-0.5, 0.2, 0.1, 10, 10), Verdict::Unresolved);
    assert_eq!(verdict(0.11, 0.02, 0.1, 0, 10), Verdict::Regressed);
    assert_eq!(verdict(0.05, 0.02, 0.1, 0, 10), Verdict::WithinBound);
    assert_eq!(verdict(-0.05, 0.02, 0.1, 9, 10), Verdict::Improved);
    // Better median but too few pair wins, too few pairs, or within the
    // parent's spread.
    assert_eq!(verdict(-0.05, 0.02, 0.1, 8, 10), Verdict::WithinBound);
    assert_eq!(verdict(-0.05, 0.02, 0.1, 5, 5), Verdict::WithinBound);
    assert_eq!(verdict(-0.01, 0.02, 0.1, 10, 10), Verdict::WithinBound);
}

fn results(seed: u64, digest: &str, op_s: f64, allocs: f64) -> String {
    format!(
        r#"{{"manifest":{{"seed":{seed}}},"workloads":[{{"name":"golden12","digest":"{digest}","metrics":{{"op_s_p10":{{"value":{op_s},"unit":"s"}},"allocs_per_op":{{"value":{allocs},"unit":"count"}}}}}}]}}"#
    )
}

fn declared() -> Declared {
    Declared::parse(
        r#"{"workloads":[{"name":"golden12","why":"w"}],
            "end_to_end":[{"name":"op_s_p10","unit":"s","better":"lower","bound":0.1},
                          {"name":"allocs_per_op","unit":"count","better":"lower","bound":0.01}],
            "per_layer":[]}"#,
    )
    .unwrap()
}

#[test]
fn compare_judges_pairs_and_flags_digest_changes() {
    let mut files = Vec::new();
    for seed in 0..10u32 {
        let s = f64::from(seed);
        files.push((
            format!("a{seed}"),
            results(u64::from(seed), "aa", 1.0 + 0.001 * s, 100.0),
        ));
        files.push((
            format!("b{seed}"),
            results(u64::from(seed), "aa", 0.8 + 0.001 * s, 102.0),
        ));
    }
    let (report, bad) = compare(&files, &declared()).unwrap();
    assert!(report.contains("improved"), "{report}");
    assert!(report.contains("regressed"), "{report}");
    assert!(bad, "allocs regressed by 2% against a 1% bound");
    assert!(!report.contains("DIGEST"), "{report}");

    files[1].1 = results(0, "bb", 0.8, 100.0);
    let (report, bad) = compare(&files, &declared()).unwrap();
    assert!(bad);
    assert!(
        report.contains("DIGEST DIFFERS: golden12 seed 0"),
        "{report}"
    );

    assert!(compare(&files[..3], &declared()).is_err(), "odd file count");
}

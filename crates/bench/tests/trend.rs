//! The trend gate's contract: slow cumulative drift fails even when
//! every pairwise step passes a 20% gate, stable series pass, and the
//! checked-in `bench_history/` series is green.

use hpf_bench::{analyze_trend, BenchReport, CaseResult, StageStat, TrendConfig};

/// A one-case report whose `simulate` median is `median` seconds.
fn report(median: f64) -> BenchReport {
    BenchReport {
        suite: "synthetic".into(),
        iters: 7,
        cases: vec![CaseResult {
            name: "laplace_bb_n64_p4".into(),
            stages: vec![
                StageStat {
                    stage: "simulate".into(),
                    median_s: median,
                    p95_s: median * 1.05,
                    min_s: median * 0.95,
                    max_s: median * 1.1,
                    samples: 7,
                },
                StageStat {
                    stage: "total".into(),
                    median_s: median * 1.4,
                    p95_s: median * 1.5,
                    min_s: median * 1.3,
                    max_s: median * 1.6,
                    samples: 7,
                },
            ],
            counters: Default::default(),
        }],
    }
}

/// Eight reports, each 17 % slower than the one before: every pairwise
/// step is inside a 20 % tolerance, but the series compounds to
/// 1.17⁷ ≈ 3.0× — the exact blind spot the trend gate closes.
fn creeping_series() -> Vec<BenchReport> {
    (0..8).map(|i| report(0.010 * 1.17f64.powi(i))).collect()
}

#[test]
fn every_pairwise_step_passes_a_20pct_gate() {
    let pairwise = TrendConfig {
        gate_pct: 20.0,
        ..Default::default()
    };
    for w in creeping_series().windows(2) {
        let t = analyze_trend(w, &pairwise);
        assert!(
            t.passed(),
            "a single +17% step must pass the 20% pairwise gate:\n{}",
            t.render()
        );
    }
}

#[test]
fn cumulative_threefold_drift_fails_the_trend_gate() {
    let series = creeping_series();
    let t = analyze_trend(&series, &TrendConfig::default());
    assert!(
        !t.passed(),
        "3x compounded drift must fail:\n{}",
        t.render()
    );
    let v: Vec<_> = t.violations().collect();
    assert!(
        v.iter()
            .any(|r| r.stage == "simulate" && r.drift_pct > 190.0),
        "simulate drifted ~200%, got {v:?}"
    );
    // The per-case drift report names the offender with its trajectory.
    let rendered = t.render();
    assert!(rendered.contains("DRIFT"), "{rendered}");
    assert!(
        rendered.contains("laplace_bb_n64_p4 / simulate"),
        "{rendered}"
    );
    assert!(rendered.contains("verdict: FAIL"), "{rendered}");
}

#[test]
fn trend_survives_a_json_roundtrip_of_the_series() {
    // The CLI path reads reports from disk; the analysis must see the
    // same drift after serialization.
    let series: Vec<BenchReport> = creeping_series()
        .iter()
        .map(|r| BenchReport::from_json(&r.to_json()).expect("roundtrip"))
        .collect();
    let t = analyze_trend(&series, &TrendConfig::default());
    assert!(!t.passed());
}

#[test]
fn stable_series_passes_the_trend_gate() {
    let series: Vec<BenchReport> = (0..8).map(|_| report(0.010)).collect();
    let t = analyze_trend(&series, &TrendConfig::default());
    assert!(t.passed(), "{}", t.render());
}

#[test]
fn dropped_case_fails_the_trend_gate() {
    let mut series: Vec<BenchReport> = (0..4).map(|_| report(0.010)).collect();
    series[3].cases.clear();
    let t = analyze_trend(&series, &TrendConfig::default());
    assert!(!t.passed());
    assert_eq!(t.dropped.len(), 1);
    assert_eq!(t.dropped[0].report_index, 3);
}

#[test]
fn checked_in_bench_history_is_green() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_history");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("bench_history/ exists at the repo root")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 2,
        "the checked-in series needs at least two reports"
    );
    let reports: Vec<BenchReport> = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("readable report");
            BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect();
    // The checked-in history was recorded on various machines; the gate
    // CI runs with (--gate 100) tolerates box-to-box speed differences
    // while still catching order-of-magnitude drift. Use the same here.
    let cfg = TrendConfig {
        gate_pct: 100.0,
        ..Default::default()
    };
    let t = analyze_trend(&reports, &cfg);
    assert!(
        t.passed(),
        "checked-in history must be green:\n{}",
        t.render()
    );
}

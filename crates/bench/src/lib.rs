//! # hpf-bench — the repository's performance trajectory
//!
//! A fixed benchmark suite over the full pipeline (parse → sema → compile
//! → AAG → interpret → simulate), timed through the `hpf-trace` span
//! instrumentation rather than external timers: each iteration resets the
//! trace store, runs the case, and reads the per-stage span totals back.
//! Medians and p95s across iterations land in a JSON report (schema
//! [`SCHEMA`]). [`analyze_trend`] gates the checked-in series of such
//! reports (`bench_history/`) on each stage's drift from the first report
//! to the last. The work each case does, counted rather than timed, is
//! pinned exactly by the root package's `tests/work_golden.rs`.

use hpf_trace::json::{self, Value};
use std::collections::BTreeMap;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "hpf-bench/v1";

mod suite;
mod trend;
pub use suite::{bench_suite, BenchCase, SuiteKind};
pub use trend::{
    analyze_trend, TrendConfig, TrendDrop, TrendReport, TrendRow, DEFAULT_MIN_DELTA_S,
    DEFAULT_TREND_GATE_PCT,
};

/// Per-stage timing statistics across the iterations of one case.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage key: a span path flattened to its leaf (`parse`, `simulate`,
    /// …) or the synthetic `total` (whole-case wall time).
    pub stage: String,
    pub median_s: f64,
    pub p95_s: f64,
    pub min_s: f64,
    pub max_s: f64,
    pub samples: usize,
}

/// One benchmarked case: stage stats plus the trace counters of the last
/// iteration (deterministic, so any iteration's counters are the run's).
#[derive(Debug, Clone)]
pub struct CaseResult {
    pub name: String,
    pub stages: Vec<StageStat>,
    pub counters: BTreeMap<String, u64>,
}

/// A full bench report (what `hpf-bench run --out` writes).
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub suite: String,
    pub iters: usize,
    pub cases: Vec<CaseResult>,
}

fn median_of(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn percentile_of(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Aggregate per-iteration `{stage → seconds}` maps into [`StageStat`]s.
/// A stage missing from an iteration contributes 0 s for it (stages are
/// structural, so this only happens when a run errored).
pub fn aggregate_stages(iterations: &[BTreeMap<String, f64>]) -> Vec<StageStat> {
    let mut keys: Vec<&String> = Vec::new();
    for it in iterations {
        for k in it.keys() {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.sort();
    keys.iter()
        .map(|&k| {
            let mut vals: Vec<f64> = iterations
                .iter()
                .map(|it| it.get(k).copied().unwrap_or(0.0))
                .collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            StageStat {
                stage: k.clone(),
                median_s: median_of(&vals),
                p95_s: percentile_of(&vals, 0.95),
                min_s: *vals.first().unwrap_or(&0.0),
                max_s: *vals.last().unwrap_or(&0.0),
                samples: vals.len(),
            }
        })
        .collect()
}

/// Run one case `iters` times (plus one discarded warm-up that also fills
/// the calibration cache) and collect per-stage stats from the span data.
pub fn run_case(case: &BenchCase, iters: usize) -> CaseResult {
    // Warm-up: populates the per-node-count calibration cache and faults in
    // code paths, outside the measured window.
    (case.run)();

    let mut iterations: Vec<BTreeMap<String, f64>> = Vec::with_capacity(iters);
    let mut counters = BTreeMap::new();
    for _ in 0..iters {
        hpf_trace::reset();
        hpf_trace::enable();
        let started = std::time::Instant::now();
        (case.run)();
        let total = started.elapsed().as_secs_f64();
        hpf_trace::disable();

        // Flatten span paths to leaves: the same stage may appear under
        // several parents (predict/frontend/parse, measure/frontend/parse)
        // and per-leaf totals are what the trajectory tracks.
        let mut stages: BTreeMap<String, f64> = BTreeMap::new();
        for s in hpf_trace::span_snapshot() {
            *stages.entry(s.leaf().to_string()).or_insert(0.0) += s.total_s();
        }
        stages.insert("total".into(), total);
        counters = hpf_trace::registry::counters_snapshot()
            .into_iter()
            .collect();
        iterations.push(stages);
    }
    CaseResult {
        name: case.name.clone(),
        stages: aggregate_stages(&iterations),
        counters,
    }
}

/// Run the whole suite.
pub fn run_suite(kind: SuiteKind, iters: usize) -> BenchReport {
    let cases = bench_suite(kind);
    let mut results = Vec::with_capacity(cases.len());
    for case in &cases {
        eprintln!("bench: {} ({iters} iterations) …", case.name);
        results.push(run_case(case, iters));
    }
    BenchReport {
        suite: kind.label().to_string(),
        iters,
        cases: results,
    }
}

// ---- JSON encoding / decoding -----------------------------------------

impl BenchReport {
    /// Serialize in the stable `hpf-bench/v1` schema.
    pub fn to_json(&self) -> String {
        let cases: Vec<Value> = self
            .cases
            .iter()
            .map(|c| {
                let stages: Vec<Value> = c
                    .stages
                    .iter()
                    .map(|s| {
                        Value::obj(vec![
                            ("stage", Value::Str(s.stage.clone())),
                            ("median_s", Value::Num(s.median_s)),
                            ("p95_s", Value::Num(s.p95_s)),
                            ("min_s", Value::Num(s.min_s)),
                            ("max_s", Value::Num(s.max_s)),
                            ("samples", Value::Num(s.samples as f64)),
                        ])
                    })
                    .collect();
                let counters = Value::Obj(
                    c.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                );
                Value::obj(vec![
                    ("name", Value::Str(c.name.clone())),
                    ("stages", Value::Arr(stages)),
                    ("counters", counters),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("suite", Value::Str(self.suite.clone())),
            ("iters", Value::Num(self.iters as f64)),
            ("cases", Value::Arr(cases)),
        ])
        .pretty()
    }

    /// Parse a `hpf-bench/v1` document.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        if v.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
            return Err(format!(
                "unsupported schema {:?} (expected {SCHEMA:?})",
                v.get("schema")
                    .and_then(|s| s.as_str())
                    .unwrap_or("<missing>")
            ));
        }
        let suite = v
            .get("suite")
            .and_then(|s| s.as_str())
            .unwrap_or("unknown")
            .to_string();
        let iters = v.get("iters").and_then(|n| n.as_f64()).unwrap_or(0.0) as usize;
        let mut cases = Vec::new();
        for c in v.get("cases").and_then(|c| c.as_arr()).unwrap_or(&[]) {
            let name = c
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("case missing name")?
                .to_string();
            let mut stages = Vec::new();
            for s in c.get("stages").and_then(|s| s.as_arr()).unwrap_or(&[]) {
                let num = |k: &str| s.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
                stages.push(StageStat {
                    stage: s
                        .get("stage")
                        .and_then(|x| x.as_str())
                        .ok_or("stage missing name")?
                        .to_string(),
                    median_s: num("median_s"),
                    p95_s: num("p95_s"),
                    min_s: num("min_s"),
                    max_s: num("max_s"),
                    samples: num("samples") as usize,
                });
            }
            let counters = c
                .get("counters")
                .and_then(|m| m.as_obj())
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
                        .collect()
                })
                .unwrap_or_default();
            cases.push(CaseResult {
                name,
                stages,
                counters,
            });
        }
        Ok(BenchReport {
            suite,
            iters,
            cases,
        })
    }
}

/// Human-readable table of a report (stages ≥ 1 µs median).
pub fn report_text(r: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("suite: {}   iterations: {}\n", r.suite, r.iters));
    for c in &r.cases {
        out.push_str(&format!("\n{}\n", c.name));
        out.push_str("  stage                median        p95\n");
        for s in &c.stages {
            if s.median_s < 1e-6 && s.stage != "total" {
                continue;
            }
            out.push_str(&format!(
                "  {:<20} {:>9.3}ms {:>9.3}ms\n",
                s.stage,
                s.median_s * 1e3,
                s.p95_s * 1e3
            ));
        }
        let interesting: Vec<String> = c
            .counters
            .iter()
            .filter(|(k, v)| **v > 0 && (k.starts_with("sim.fault") || k.starts_with("harness")))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if !interesting.is_empty() {
            out.push_str(&format!("  counters: {}\n", interesting.join(" ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(median: f64) -> BenchReport {
        BenchReport {
            suite: "test".into(),
            iters: 3,
            cases: vec![CaseResult {
                name: "case".into(),
                stages: vec![
                    StageStat {
                        stage: "parse".into(),
                        median_s: 40e-6,
                        p95_s: 50e-6,
                        min_s: 30e-6,
                        max_s: 50e-6,
                        samples: 3,
                    },
                    StageStat {
                        stage: "simulate".into(),
                        median_s: median,
                        p95_s: median * 1.1,
                        min_s: median * 0.9,
                        max_s: median * 1.2,
                        samples: 3,
                    },
                ],
                counters: BTreeMap::from([("sim.events".to_string(), 42u64)]),
            }],
        }
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let r = report_with(0.01);
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.suite, "test");
        assert_eq!(back.iters, 3);
        assert_eq!(back.cases.len(), 1);
        assert_eq!(back.cases[0].stages.len(), 2);
        assert_eq!(back.cases[0].stages[1].stage, "simulate");
        assert!((back.cases[0].stages[1].median_s - 0.01).abs() < 1e-12);
        assert_eq!(back.cases[0].counters["sim.events"], 42);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        assert!(BenchReport::from_json("{\"schema\": \"other/v9\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn aggregate_computes_median_and_p95() {
        let iters: Vec<BTreeMap<String, f64>> = (1..=10)
            .map(|i| BTreeMap::from([("s".to_string(), i as f64)]))
            .collect();
        let stats = aggregate_stages(&iters);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].median_s, 5.5);
        assert_eq!(stats[0].p95_s, 10.0);
        assert_eq!(stats[0].min_s, 1.0);
        assert_eq!(stats[0].max_s, 10.0);
        assert_eq!(stats[0].samples, 10);
    }

    #[test]
    fn stage_schema_is_stable_for_pipeline_case() {
        // The schema contract: a pipeline case must expose the canonical
        // stage set, whatever refactors happen upstream. A renamed stage
        // would drop out of the `bench_history/` series and fail `trend`.
        let case = &bench_suite(SuiteKind::Quick)[0];
        let r = run_case(case, 1);
        let stages: Vec<&str> = r.stages.iter().map(|s| s.stage.as_str()).collect();
        for required in [
            "parse",
            "sema",
            "compile",
            "build_aag",
            "interpret",
            "simulate",
            "total",
        ] {
            assert!(
                stages.contains(&required),
                "missing stage {required}: {stages:?}"
            );
        }
    }
}

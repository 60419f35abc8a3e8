//! Trend analysis over an ordered series of bench reports.
//!
//! `trend` looks at a whole series (the checked-in `bench_history/`) at
//! once: for every case/stage it computes the **cumulative drift** — the
//! relative change from the first report to the last — and a
//! least-squares **slope** per report (the average drift per merge), and
//! fails the gate when the cumulative median drift exceeds the tolerance.
//! A stage that slips +15 % per merge passes every step-by-step check at
//! 20 % but compounds into a 2–3× slowdown over a handful of merges; the
//! first-to-last drift catches it. Over two reports, the same analysis is
//! a pairwise regression gate.
//!
//! A case or stage that disappears partway through the series is a
//! failure, not a skip — schema drift hides regressions.

use crate::BenchReport;

/// Default cumulative-drift gate: +30 % from the first report to the
/// last, far tighter than what a 20 % step-by-step gate lets through over
/// several merges (1.2^4 ≈ 2×).
pub const DEFAULT_TREND_GATE_PCT: f64 = 30.0;

/// Default absolute floor: median drifts below this many seconds are never
/// flagged (sub-millisecond stages are noise-dominated on shared CI boxes).
pub const DEFAULT_MIN_DELTA_S: f64 = 5e-4;

/// Trend-analysis knobs.
#[derive(Debug, Clone)]
pub struct TrendConfig {
    /// Cumulative median-drift gate, percent (default 30).
    pub gate_pct: f64,
    /// Absolute floor in seconds on the first→last median delta; smaller
    /// drifts are never violations (sub-millisecond stages are
    /// noise-dominated on shared CI boxes).
    pub min_delta_s: f64,
    /// Restrict the analysis to cases whose name contains this substring.
    pub case_filter: Option<String>,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            gate_pct: DEFAULT_TREND_GATE_PCT,
            min_delta_s: DEFAULT_MIN_DELTA_S,
            case_filter: None,
        }
    }
}

/// The fitted trajectory of one case/stage across the series.
#[derive(Debug, Clone)]
pub struct TrendRow {
    pub case: String,
    pub stage: String,
    /// Median of the first report in the series.
    pub first_s: f64,
    /// Median of the last report.
    pub last_s: f64,
    /// Cumulative drift, percent: `100 * (last - first) / first`.
    pub drift_pct: f64,
    /// Least-squares slope of the median over the report index — the
    /// average seconds gained (or shed) per merge.
    pub slope_s_per_step: f64,
    /// This row trips the gate: drift beyond `gate_pct` with the
    /// absolute delta above the floor.
    pub violation: bool,
}

/// A case/stage that vanished partway through the series.
#[derive(Debug, Clone)]
pub struct TrendDrop {
    pub case: String,
    /// `None`: the whole case is gone.
    pub stage: Option<String>,
    /// Index (0-based) of the first report in the series missing it.
    pub report_index: usize,
}

/// The full trend analysis.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// Reports analyzed.
    pub reports: usize,
    pub gate_pct: f64,
    /// Every case/stage trajectory, in first-report order.
    pub rows: Vec<TrendRow>,
    /// Cases/stages that dropped out of the series — failures.
    pub dropped: Vec<TrendDrop>,
}

impl TrendReport {
    pub fn passed(&self) -> bool {
        self.dropped.is_empty() && self.rows.iter().all(|r| !r.violation)
    }

    pub fn violations(&self) -> impl Iterator<Item = &TrendRow> {
        self.rows.iter().filter(|r| r.violation)
    }

    /// Human-readable drift table: every violation, every drop, and (for
    /// context) each case's `total` row plus any stage drifting by more
    /// than half the gate.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trend: {} reports, cumulative gate {:.0}%\n\
             case / stage                          first      last    drift     slope\n",
            self.reports, self.gate_pct
        );
        for r in &self.rows {
            let visible =
                r.violation || r.stage == "total" || r.drift_pct.abs() >= self.gate_pct / 2.0;
            if !visible {
                continue;
            }
            out.push_str(&format!(
                "{}  {:<34} {:>8.3}ms {:>8.3}ms {:>+7.1}% {:>+8.4}ms/step\n",
                if r.violation { "DRIFT" } else { "     " },
                format!("{} / {}", r.case, r.stage),
                r.first_s * 1e3,
                r.last_s * 1e3,
                r.drift_pct,
                r.slope_s_per_step * 1e3,
            ));
        }
        for d in &self.dropped {
            match &d.stage {
                Some(stage) => out.push_str(&format!(
                    "DROP   {} / {stage}: absent from report {}\n",
                    d.case, d.report_index
                )),
                None => out.push_str(&format!(
                    "DROP   {}: case absent from report {}\n",
                    d.case, d.report_index
                )),
            }
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Least-squares slope of `ys` over the index `0..n` — zero for a
/// series shorter than two points.
fn slope(ys: &[f64]) -> f64 {
    let n = ys.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in ys.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    num / den
}

/// Analyze an ordered series of reports (oldest first). Needs at least
/// two; the caller is expected to have checked that.
pub fn analyze_trend(reports: &[BenchReport], cfg: &TrendConfig) -> TrendReport {
    let mut rows = Vec::new();
    let mut dropped = Vec::new();
    let first = match reports.first() {
        Some(f) => f,
        None => {
            return TrendReport {
                reports: 0,
                gate_pct: cfg.gate_pct,
                rows,
                dropped,
            }
        }
    };
    for case in &first.cases {
        if let Some(f) = &cfg.case_filter {
            if !case.name.contains(f.as_str()) {
                continue;
            }
        }
        // A case vanishing anywhere in the series fails once, at the
        // first report missing it; its stages are not also reported.
        if let Some(missing_at) = reports
            .iter()
            .position(|r| !r.cases.iter().any(|c| c.name == case.name))
        {
            dropped.push(TrendDrop {
                case: case.name.clone(),
                stage: None,
                report_index: missing_at,
            });
            continue;
        }
        for stage in &case.stages {
            let mut series = Vec::with_capacity(reports.len());
            let mut missing_at = None;
            for (ri, r) in reports.iter().enumerate() {
                let median = r
                    .cases
                    .iter()
                    .find(|c| c.name == case.name)
                    .and_then(|c| c.stages.iter().find(|s| s.stage == stage.stage))
                    .map(|s| s.median_s);
                match median {
                    Some(m) => series.push(m),
                    None => {
                        missing_at = Some(ri);
                        break;
                    }
                }
            }
            if let Some(ri) = missing_at {
                dropped.push(TrendDrop {
                    case: case.name.clone(),
                    stage: Some(stage.stage.clone()),
                    report_index: ri,
                });
                continue;
            }
            let (first_s, last_s) = (series[0], series[series.len() - 1]);
            let drift_pct = if first_s > 0.0 {
                100.0 * (last_s - first_s) / first_s
            } else {
                0.0
            };
            let violation = drift_pct > cfg.gate_pct && (last_s - first_s) >= cfg.min_delta_s;
            rows.push(TrendRow {
                case: case.name.clone(),
                stage: stage.stage.clone(),
                first_s,
                last_s,
                drift_pct,
                slope_s_per_step: slope(&series),
                violation,
            });
        }
    }
    TrendReport {
        reports: reports.len(),
        gate_pct: cfg.gate_pct,
        rows,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaseResult, StageStat};

    fn report(medians: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            suite: "test".into(),
            iters: 3,
            cases: vec![CaseResult {
                name: "case".into(),
                stages: medians
                    .iter()
                    .map(|(stage, m)| StageStat {
                        stage: stage.to_string(),
                        median_s: *m,
                        p95_s: *m,
                        min_s: *m,
                        max_s: *m,
                        samples: 3,
                    })
                    .collect(),
                counters: Default::default(),
            }],
        }
    }

    #[test]
    fn slope_fits_a_line() {
        assert!((slope(&[1.0, 2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!(slope(&[5.0, 5.0, 5.0]).abs() < 1e-12);
        assert_eq!(slope(&[1.0]), 0.0);
    }

    #[test]
    fn stable_series_passes() {
        let series: Vec<BenchReport> = (0..6).map(|_| report(&[("simulate", 0.010)])).collect();
        let t = analyze_trend(&series, &TrendConfig::default());
        assert!(t.passed(), "{}", t.render());
        assert_eq!(t.rows.len(), 1);
        assert!(t.rows[0].drift_pct.abs() < 1e-9);
    }

    #[test]
    fn sub_floor_drift_is_not_a_violation() {
        // +200 % but only 20 µs absolute — noise on a shared box.
        let series = vec![report(&[("parse", 10e-6)]), report(&[("parse", 30e-6)])];
        let t = analyze_trend(&series, &TrendConfig::default());
        assert!(t.passed(), "{}", t.render());
    }

    #[test]
    fn dropped_stage_fails_with_index() {
        let series = vec![
            report(&[("parse", 0.01), ("simulate", 0.02)]),
            report(&[("parse", 0.01)]),
        ];
        let t = analyze_trend(&series, &TrendConfig::default());
        assert!(!t.passed());
        assert_eq!(t.dropped.len(), 1);
        assert_eq!(t.dropped[0].stage.as_deref(), Some("simulate"));
        assert_eq!(t.dropped[0].report_index, 1);
    }

    #[test]
    fn case_filter_restricts_scope() {
        let series = vec![
            report(&[("simulate", 0.010)]),
            report(&[("simulate", 0.030)]),
        ];
        let cfg = TrendConfig {
            case_filter: Some("no_such".into()),
            ..Default::default()
        };
        assert!(analyze_trend(&series, &cfg).passed());
    }
}

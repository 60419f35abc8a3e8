//! The output module (§3.4, §4.2 "output parse"): communicates estimated
//! performance metrics at the granularity the user selects — a generic
//! profile of the whole application broken into computation, communication
//! and overhead; per-AAU / sub-graph metrics; per-source-line queries; and
//! a ParaGraph-compatible interpretation trace.

use crate::engine::Prediction;
use crate::metrics::Metrics;
use appgraph::{Aag, AauKind};
use std::fmt::Write;

/// Generic performance profile of the entire application (output form 1).
pub fn profile_report(pred: &Prediction, aag: &Aag, title: &str) -> String {
    let mut out = String::new();
    let t = pred.total;
    let _ = writeln!(out, "Performance profile: {title}");
    let _ = writeln!(out, "  nodes           : {}", pred.nodes);
    let _ = writeln!(out, "  total time      : {:>12.6} s", pred.global_clock);
    let _ = writeln!(
        out,
        "  computation     : {:>12.6} s ({:5.1}%)",
        t.comp,
        pct(t.comp, pred.global_clock)
    );
    let _ = writeln!(
        out,
        "  communication   : {:>12.6} s ({:5.1}%)",
        t.comm,
        pct(t.comm, pred.global_clock)
    );
    let _ = writeln!(
        out,
        "  overhead        : {:>12.6} s ({:5.1}%)",
        t.overhead,
        pct(t.overhead, pred.global_clock)
    );
    let _ = writeln!(out, "  wait (imbalance): {:>12.6} s", t.wait);
    let _ = writeln!(out, "  per-AAU breakdown (non-zero):");
    for (id, m) in pred.per_aau.iter().enumerate() {
        if m.time() <= 0.0 {
            continue;
        }
        let a = aag.aau(id);
        let _ = writeln!(
            out,
            "    [{id:>3}] {:<40} comp {:>10.6}  comm {:>10.6}  ovhd {:>10.6}",
            truncate(&a.label, 40),
            m.comp,
            m.comm,
            m.overhead
        );
    }
    out
}

/// Metrics for a particular source line (output form 2).
pub fn query_line(pred: &Prediction, aag: &Aag, line: u32) -> Metrics {
    let mut m = Metrics::ZERO;
    for id in aag.aaus_on_line(line) {
        m += pred.per_aau[id];
    }
    m
}

/// Metrics for a range of source lines.
pub fn query_lines(pred: &Prediction, aag: &Aag, lines: std::ops::RangeInclusive<u32>) -> Metrics {
    let mut m = Metrics::ZERO;
    for id in 0..aag.aaus.len() {
        let span = aag.aau(id).span;
        if !span.is_synthetic() && lines.contains(&span.line) {
            m += pred.per_aau[id];
        }
    }
    m
}

/// ParaGraph-style interpretation trace (output form 3): one event record
/// per phase per node, in the classic whitespace-separated
/// `<event> <node> <time-µs> ...` text form that ParaGraph's trace readers
/// consume (task begin/end, send, recv).
pub fn paragraph_trace(pred: &Prediction, aag: &Aag) -> String {
    let mut out = String::new();
    let mut clock = 0.0f64;
    let us = |t: f64| (t * 1e6).round() as u64;
    for (id, m) in pred.per_aau.iter().enumerate() {
        if m.time() <= 0.0 {
            continue;
        }
        let a = aag.aau(id);
        match &a.kind {
            AauKind::Comm { phase, .. } => {
                for node in 0..pred.nodes {
                    let _ = writeln!(out, "send {node} {} {}", us(clock), phase.bytes_per_node);
                }
                clock += m.time();
                for node in 0..pred.nodes {
                    let _ = writeln!(out, "recv {node} {} {}", us(clock), phase.bytes_per_node);
                }
            }
            _ => {
                for node in 0..pred.nodes {
                    let _ = writeln!(out, "task_begin {node} {} {id}", us(clock));
                }
                clock += m.time();
                for node in 0..pred.nodes {
                    let _ = writeln!(out, "task_end {node} {} {id}", us(clock));
                }
            }
        }
    }
    out
}

fn pct(x: f64, total: f64) -> f64 {
    if total <= 0.0 {
        0.0
    } else {
        100.0 * x / total
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compiler::CompileOptions;
    use hpf_lang::{analyze, parse_program};
    use machine::ipsc860;
    use std::collections::BTreeMap;

    fn setup() -> (Prediction, appgraph::Aag, String) {
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 256
REAL A(N), B(N), S
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE TT(N)
!HPF$ ALIGN A(I) WITH TT(I)
!HPF$ ALIGN B(I) WITH TT(I)
!HPF$ DISTRIBUTE TT(BLOCK) ONTO P
FORALL (I = 1:N) A(I) = I * 0.5
FORALL (I = 2:N) B(I) = A(I-1) * 2.0
S = SUM(B)
END
"
        .to_string();
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let spmd = hpf_compiler::compile(
            &a,
            &CompileOptions {
                nodes: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let aag = appgraph::build_aag(&spmd);
        let m = ipsc860(4);
        let pred = crate::InterpretationEngine::new(&m).interpret(&aag);
        (pred, aag, src)
    }

    #[test]
    fn line_queries_partition_the_clock() {
        let (pred, aag, src) = setup();
        // Summing per-line metrics over all lines covers most of the clock
        // (structural AAUs like loops are synthetic-span and excluded).
        let total: f64 = (1..=src.lines().count() as u32)
            .map(|l| query_line(&pred, &aag, l).time())
            .sum();
        assert!(
            total > 0.8 * pred.global_clock,
            "{total} vs {}",
            pred.global_clock
        );
    }

    #[test]
    fn range_query_supersets_single_line() {
        let (pred, aag, src) = setup();
        let forall_line = src.lines().position(|l| l.starts_with("FORALL")).unwrap() as u32 + 1;
        let single = query_line(&pred, &aag, forall_line);
        let range = query_lines(&pred, &aag, 1..=src.lines().count() as u32);
        assert!(range.time() >= single.time());
    }

    #[test]
    fn shifted_forall_line_carries_comm() {
        let (pred, aag, src) = setup();
        let second_forall = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("FORALL"))
            .nth(1)
            .unwrap()
            .0 as u32
            + 1;
        let m = query_line(&pred, &aag, second_forall);
        assert!(m.comm > 0.0, "A(I-1) requires a shift: {m:?}");
        let first_forall = src.lines().position(|l| l.starts_with("FORALL")).unwrap() as u32 + 1;
        let m0 = query_line(&pred, &aag, first_forall);
        assert_eq!(m0.comm, 0.0, "local init must not communicate: {m0:?}");
    }

    #[test]
    fn profile_report_lists_nonzero_aaus() {
        let (pred, aag, _) = setup();
        let rep = profile_report(&pred, &aag, "t");
        let rows = rep
            .lines()
            .filter(|l| l.trim_start().starts_with('['))
            .count();
        assert!(rows >= 3, "{rep}");
        assert!(rep.contains("wait"));
    }

    #[test]
    fn trace_timestamps_monotone() {
        let (pred, aag, _) = setup();
        let tr = paragraph_trace(&pred, &aag);
        let mut last = 0u64;
        for line in tr.lines() {
            let t: u64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
            assert!(t >= last || line.starts_with("task_begin") || line.starts_with("send"));
            last = last.max(t);
        }
        assert!(last > 0);
    }
}

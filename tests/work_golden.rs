//! Golden pin of the work each benchmark case does.
//!
//! Every case of the quick `hpf-bench` suite runs once to warm up and once
//! measured, under a recorder of this test's own. The measured run's trace
//! counters and the number of times each span ran are diffed, exactly,
//! against `artifacts_work_counts.txt`; set `UPDATE_GOLDENS=1` to
//! regenerate it. Wall time varies between runs and hosts; these counts do
//! not, so a lost reuse path shows on any runner.
//!
//! Spans are keyed by their leaf name. A `report::pool` job runs inline on
//! a one-CPU host and otherwise on a worker thread, whose span stack starts
//! empty, so a full path depends on the host while a leaf does not.
//!
//! The reuse contracts are also asserted by name, before the diff and
//! before a regeneration, so a regenerated file cannot accept a lost reuse
//! path silently.

use hpf_bench::{bench_suite, SuiteKind};
use hpf_trace::{Recorder, SpanSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = "artifacts_work_counts.txt";

/// What one measured run of a case did.
struct Work {
    counters: BTreeMap<String, u64>,
    spans: Vec<SpanSnapshot>,
}

impl Work {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Runs of the spans whose path satisfies `pred`.
    fn runs(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| pred(&s.path))
            .map(|s| s.count)
            .sum()
    }

    /// Span runs keyed by leaf name.
    fn leaf_counts(&self) -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.leaf()).or_default() += s.count;
        }
        out
    }

    /// Runs of the spans named `leaf`, wherever they nest.
    fn leaf_runs(&self, leaf: &str) -> u64 {
        self.leaf_counts().get(leaf).copied().unwrap_or(0)
    }
}

/// Every quick case, warmed up once and then measured once.
fn measure() -> Vec<(String, Work)> {
    let rec = Recorder::new();
    let _on = rec.install();
    rec.enable();
    // Built under the recorder, so the cases' services and pool jobs
    // record into it.
    let suite = bench_suite(SuiteKind::Quick);
    suite
        .iter()
        .map(|case| {
            (case.run)();
            rec.reset();
            (case.run)();
            let work = Work {
                counters: rec.counters_snapshot().into_iter().collect(),
                spans: rec.span_snapshot(),
            };
            (case.name.clone(), work)
        })
        .collect()
}

fn render(cases: &[(String, Work)]) -> String {
    let mut out = String::new();
    for (name, work) in cases {
        writeln!(out, "{name}").unwrap();
        for (counter, n) in &work.counters {
            writeln!(out, "  counter {counter} {n}").unwrap();
        }
        for (leaf, n) in work.leaf_counts() {
            writeln!(out, "  span {leaf} {n}").unwrap();
        }
    }
    out
}

/// The case called `name`.
fn case<'a>(cases: &'a [(String, Work)], name: &str) -> &'a Work {
    let found = cases.iter().find(|(n, _)| n == name);
    &found.unwrap_or_else(|| panic!("no case {name}")).1
}

/// The reuse contracts, each asserted by name.
fn assert_reuse_contracts(cases: &[(String, Work)]) {
    // A warm session point binds its compiled kernel once and reuses the
    // memoized profile: nothing is parsed again.
    let points: Vec<_> = cases
        .iter()
        .filter(|(name, _)| name.starts_with("sweep_point_"))
        .collect();
    assert!(!points.is_empty());
    for (name, w) in points {
        assert_eq!(w.counter("session.evaluate"), 1, "{name}");
        assert_eq!(w.counter("session.bind"), 1, "{name}");
        assert_eq!(w.counter("profile_cache.hit"), 1, "{name}");
        assert_eq!(w.counter("profile_cache.miss"), 0, "{name}");
        assert_eq!(w.leaf_runs("parse"), 0, "{name} parsed");
    }

    // Every candidate is compiled once, in the lower-bound pass; the only
    // other compile span is the front half's normalize, once per search.
    // Evaluation and the simulator cross-check reuse the candidate
    // sessions.
    let w = case(cases, "advisor_search_n96_p8");
    let candidates = w.counter("advisor.candidates");
    assert_eq!(w.runs(|p| p.ends_with("lower_bound/compile")), candidates);
    assert_eq!(w.runs(|p| p == "advisor/compile"), 1);
    assert_eq!(w.leaf_runs("compile"), candidates + 1);
    assert_eq!(
        w.counter("advisor.sessions_reused"),
        w.counter("advisor.evaluated") + w.counter("sim.simulations")
    );

    // Every warm request is answered from the response cache, without
    // running the front end or the handler.
    let w = case(cases, "serve_predict_warm_b256");
    assert_eq!(w.counter("serve.requests"), 256);
    assert_eq!(w.counter("serve.cache.hit"), 256);
    for stage in ["parse", "sema", "compile", "serve.predict"] {
        assert_eq!(w.leaf_runs(stage), 0, "a warm predict ran {stage}");
    }

    // Every point of a batched sweep binds from the bind cache.
    let w = case(cases, "serve_sweep_batched");
    assert_eq!(w.counter("serve.bind.hit"), w.counter("serve.batch.points"));
    assert_eq!(w.counter("serve.bind.miss"), 0);
}

#[test]
fn work_counts_match_golden() {
    let cases = measure();
    assert_reuse_contracts(&cases);
    let got = render(&cases);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    if got != want {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("- {w}\n+ {g}"))
            .collect();
        panic!(
            "work drifted from {GOLDEN} ({} vs {} lines):\n{}",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

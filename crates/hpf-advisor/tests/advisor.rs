//! Integration tests for the directive-space advisor: ownership
//! soundness across the enumerated space, bit-stable ranking across runs
//! and thread counts, and the paper-loop acceptance numbers on Laplace.

use std::collections::BTreeMap;

use hpf_advisor::{enumerate_candidates, render_cross_table, render_table, Advisor, AdvisorConfig};
use hpf_compiler::{compile, CompileOptions};
use hpf_lang::{analyze, parse_program};
use proptest::prelude::*;

/// A minimal 2-D kernel whose directives the candidates rewrite.
fn two_dim_source(n: usize) -> String {
    format!(
        "
PROGRAM OWN
INTEGER, PARAMETER :: N = {n}
REAL A(N,N)
!HPF$ PROCESSORS P(1)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK) ONTO P
FORALL (I = 1:N, J = 1:N) A(I,J) = 1.0
END
"
    )
}

/// Compile one candidate of the 2-D program and check that ownership of
/// the aligned array is an exact partition: every index owned by exactly
/// one node, per-node counts summing to the template size.
fn assert_partition(n: usize, procs: usize) {
    let program = parse_program(&two_dim_source(n)).unwrap();
    for cand in enumerate_candidates(2, procs, &[2, 3]) {
        let variant = hpf_advisor::space::apply_candidate(&program, &cand);
        let analyzed = analyze(&variant, &BTreeMap::new()).unwrap();
        let spmd = compile(
            &analyzed,
            &CompileOptions {
                nodes: procs,
                grid_extents: Some(cand.grid.clone()),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let dist = spmd.dist.get("A").unwrap();
        assert!(!dist.replicated, "{}: A must be distributed", cand.label());

        let mut per_node = vec![0u64; spmd.nodes];
        for i in 1..=n as i64 {
            for j in 1..=n as i64 {
                let owners: Vec<usize> = (0..spmd.nodes)
                    .filter(|&node| dist.owns(&spmd.grid.coords(node), &[i, j]))
                    .collect();
                assert_eq!(
                    owners.len(),
                    1,
                    "{}: index ({i},{j}) owned by {owners:?}",
                    cand.label()
                );
                per_node[owners[0]] += 1;
            }
        }
        assert_eq!(
            per_node.iter().sum::<u64>(),
            (n * n) as u64,
            "{}: ownership must cover the template exactly",
            cand.label()
        );
        for (node, &counted) in per_node.iter().enumerate() {
            let computed = dist.local_elems(|p| spmd.grid.coord(node, p));
            assert_eq!(
                counted,
                computed,
                "{}: node {node} local_elems drifted from enumeration",
                cand.label()
            );
        }
    }
}

proptest! {
    /// Every enumerated candidate — BLOCK / CYCLIC / CYCLIC(k) crossed
    /// with every grid factorization — yields an exact ownership
    /// partition of the template.
    #[test]
    fn candidate_ownership_is_a_partition(n in 5usize..12, procs in 1usize..9) {
        assert_partition(n, procs);
    }
}

/// The advisor over Laplace (Blk-Blk)'s compile-once artifact.
fn laplace_advisor() -> Advisor {
    let kernel = kernels::kernel_by_name("Laplace (Blk-Blk)").unwrap();
    Advisor::for_kernel(&kernels::CompiledKernel::new(&kernel).unwrap()).unwrap()
}

/// A trimmed search config the determinism tests can run quickly.
fn small_cfg(threads: usize) -> AdvisorConfig {
    AdvisorConfig {
        n: 96,
        ks: vec![2, 16],
        top_k: 2,
        sim_runs: 10,
        threads,
        ..AdvisorConfig::default()
    }
}

/// Two full searches produce bit-identical ranked tables — including
/// under multi-threaded evaluation with different worker counts.
#[test]
fn search_is_bit_identical_across_runs_and_threads() {
    let advisor = laplace_advisor();

    let baseline = advisor.search(&small_cfg(1)).unwrap();
    for threads in [1usize, 2, 8] {
        let run = advisor.search(&small_cfg(threads)).unwrap();
        assert_eq!(run.candidates, baseline.candidates);
        assert_eq!(run.pruned, baseline.pruned, "threads={threads}");
        assert_eq!(run.ranked.len(), baseline.ranked.len());
        for (a, b) in run.ranked.iter().zip(&baseline.ranked) {
            assert_eq!(a.label, b.label, "threads={threads}");
            assert_eq!(
                a.predicted_s.to_bits(),
                b.predicted_s.to_bits(),
                "threads={threads} label={}",
                a.label
            );
            assert_eq!(
                a.lower_bound_s.to_bits(),
                b.lower_bound_s.to_bits(),
                "threads={threads} label={}",
                a.label
            );
            assert_eq!(
                a.simulated_s.map(f64::to_bits),
                b.simulated_s.map(f64::to_bits),
                "threads={threads} label={}",
                a.label
            );
        }
        assert_eq!(render_table(&run), render_table(&baseline));
    }
}

/// The machine axis keeps the determinism contract: for every registered
/// backend, the per-machine search is bit-identical across thread counts,
/// and the merged cross-machine table is one stable ranking spanning all
/// of them.
#[test]
fn cross_machine_search_is_bit_identical_across_threads() {
    let advisor = laplace_advisor();
    let machines: Vec<String> = hpf_machines::machine_names()
        .iter()
        .map(|m| m.to_string())
        .collect();

    let baseline = advisor.search_cross(&small_cfg(1), &machines).unwrap();
    assert_eq!(baseline.reports.len(), machines.len());
    // The merged table genuinely spans machines, in predicted order.
    let seen: std::collections::BTreeSet<&str> =
        baseline.ranked.iter().map(|r| r.machine.as_str()).collect();
    assert_eq!(
        seen.len(),
        machines.len(),
        "ranking must span every machine"
    );
    for pair in baseline.ranked.windows(2) {
        assert!(pair[0].candidate.predicted_s <= pair[1].candidate.predicted_s);
    }

    for threads in [2usize, 8] {
        let run = advisor
            .search_cross(&small_cfg(threads), &machines)
            .unwrap();
        assert_eq!(
            render_cross_table(&run),
            render_cross_table(&baseline),
            "threads={threads}"
        );
        for (a, b) in run.ranked.iter().zip(&baseline.ranked) {
            assert_eq!(a.machine, b.machine, "threads={threads}");
            assert_eq!(
                a.candidate.predicted_s.to_bits(),
                b.candidate.predicted_s.to_bits(),
                "threads={threads} {}::{}",
                a.machine,
                a.candidate.label
            );
        }
    }
}

/// The merged cross-machine table, restricted to any one machine, is that
/// machine's own ranked list: a tie in predicted time never reorders a
/// machine's rows, so a candidate its search simulated is never shown
/// below a tied one it did not.
#[test]
fn cross_machine_table_restricted_to_one_machine_is_its_ranking() {
    let advisor = laplace_advisor();
    let machines: Vec<String> = hpf_machines::machine_names()
        .iter()
        .map(|m| m.to_string())
        .collect();
    for threads in [1usize, 2] {
        let cfg = AdvisorConfig {
            threads,
            ..AdvisorConfig::quick()
        };
        let cross = advisor.search_cross(&cfg, &machines).unwrap();
        for report in &cross.reports {
            let merged: Vec<&str> = cross
                .ranked
                .iter()
                .filter(|row| row.machine == report.machine)
                .map(|row| row.candidate.label.as_str())
                .collect();
            let own: Vec<&str> = report.ranked.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(merged, own, "threads={threads} machine={}", report.machine);
        }
    }
}

/// An unknown machine fails the whole cross search with the registry's
/// structured error instead of panicking.
#[test]
fn cross_machine_search_rejects_unknown_machine() {
    let advisor = laplace_advisor();
    let err = advisor
        .search_cross(&small_cfg(1), &["cm5".to_string()])
        .expect_err("cm5 is not registered");
    assert!(err.to_string().contains("cm5"), "{err}");
}

/// A program with no DISTRIBUTE directive has nothing to search over.
#[test]
fn search_requires_distribute() {
    let err = Advisor::for_source("T", "PROGRAM T\nREAL X\nX = 1.0\nEND\n")
        .expect_err("no DISTRIBUTE directive");
    assert!(err.to_string().contains("no DISTRIBUTE"), "{err}");
}

/// The paper-loop acceptance numbers on the Laplace kernel at P = 8:
/// a rich ranked space, nonzero lower-bound pruning, warm-session reuse,
/// and a top-1 prediction within 20% of its own DES simulation.
#[test]
fn laplace_quick_search_meets_acceptance() {
    let advisor = laplace_advisor();
    let report = advisor.search(&AdvisorConfig::quick()).unwrap();

    assert_eq!(report.procs, 8);
    assert!(
        report.ranked.len() >= 24,
        "expected >= 24 ranked candidates, got {}",
        report.ranked.len()
    );
    assert!(report.pruned > 0, "lower bound should prune something");
    assert_eq!(report.invalid, 0);
    assert!(report.sessions_reused > 0);
    let top = &report.ranked[0];
    let err = top.sim_error_pct.expect("top-1 must be cross-validated");
    assert!(
        err <= 20.0,
        "top-1 predicted {} vs simulated {:?}: {err}% off",
        top.predicted_s,
        top.simulated_s
    );
    // The ranking is genuinely ordered and lower bounds are bounds.
    for pair in report.ranked.windows(2) {
        assert!(pair[0].predicted_s <= pair[1].predicted_s);
    }
    for c in &report.ranked {
        assert!(
            c.lower_bound_s <= c.predicted_s,
            "{}: lower bound above prediction",
            c.label
        );
    }
}

/// The advisor's trace counters register under tracing, and tracing does
/// not perturb the ranked output (spot-checked via the rendered table).
#[test]
fn trace_counters_register_and_do_not_perturb() {
    let advisor = laplace_advisor();
    let cfg = small_cfg(2);
    let untraced = advisor.search(&cfg).unwrap();

    let rec = hpf_trace::Recorder::new();
    let _on = rec.install();
    rec.enable();
    let traced = advisor.search(&cfg).unwrap();

    assert_eq!(
        rec.counter_get("advisor.candidates"),
        traced.candidates as u64
    );
    assert_eq!(
        rec.counter_get("advisor.sessions_reused"),
        traced.sessions_reused
    );
    assert_eq!(
        rec.counter_get("advisor.evaluated"),
        traced.ranked.len() as u64
    );
    assert_eq!(render_table(&traced), render_table(&untraced));
}

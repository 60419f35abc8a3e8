//! The per-node trace is the simulated run: `trace_program` records the
//! simulator's own jitter-free base pass, so its total is that pass's time
//! to the bit, and every node's intervals tile the run without gaps or
//! overlaps.

use hpf90d::kernels::{all_kernels, kernel_by_name};
use hpf90d::report::pipeline::{compile_source, machine_params, predict_source_full};
use hpf90d::sim::{trace_program, Activity, SimConfig, SimTrace, Simulator};
use hpf90d::PredictOptions;
use std::collections::BTreeMap;

const MACHINES: [&str; 4] = ["ipsc860", "torus3d", "fattree", "multicore"];

/// Every node's intervals start at zero, each where the one before it
/// ended, and their lengths sum to the trace's total.
fn assert_tiles_the_run(tr: &SimTrace, cell: &str) {
    for node in 0..tr.nodes {
        let mut end = 0.0f64;
        let mut sum = 0.0f64;
        for e in tr.events.iter().filter(|e| e.node == node) {
            assert_eq!(
                e.start_s.to_bits(),
                end.to_bits(),
                "{cell} node {node}: `{}` starts at {} after an interval ending at {end}",
                e.label,
                e.start_s
            );
            assert!(
                e.end_s > e.start_s,
                "{cell} node {node}: empty `{}`",
                e.label
            );
            end = e.end_s;
            sum += e.end_s - e.start_s;
        }
        let rel = (sum - tr.total_s).abs() / tr.total_s.max(1e-30);
        assert!(
            rel <= 1e-9,
            "{cell} node {node}: intervals sum to {sum}, total {} (rel {rel:e})",
            tr.total_s
        );
    }
}

#[test]
fn trace_total_is_the_simulators_base_pass_on_every_kernel_and_machine() {
    let mut cells = 0;
    for kernel in all_kernels() {
        let (lo, hi) = kernel.size_range;
        let n = lo.max(hi.min(256));
        for nodes in [1, 4, 8] {
            let src = kernel.source(n, nodes);
            let bound = compile_source(&src, nodes, &BTreeMap::new(), &Default::default())
                .unwrap_or_else(|e| panic!("{} n={n} p={nodes}: {e}", kernel.name));
            let profile = hpf90d::eval::run_with_limit(&bound.analyzed, 10_000_000)
                .ok()
                .map(|o| o.profile);
            for name in MACHINES {
                let cell = format!("{} n={n} p={nodes} on {name}", kernel.name);
                let m = machine_params(name, nodes).unwrap();
                let sim = Simulator::with_config(
                    &m,
                    SimConfig {
                        runs: 0,
                        ..SimConfig::default()
                    },
                )
                .simulate(&bound.spmd, profile.as_ref());
                let tr = trace_program(&m, &bound.spmd, profile.as_ref());
                assert_eq!(
                    tr.total_s.to_bits(),
                    sim.mean.to_bits(),
                    "{cell}: trace total {} against simulated {}",
                    tr.total_s,
                    sim.mean
                );
                assert_eq!(tr.nodes, nodes, "{cell}");
                assert_tiles_the_run(&tr, &cell);
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 192);
}

/// The Gantt chart of `examples/performance_debugging.rs`: a node whose
/// utilization line reads 0.0% idle has no idle column.
#[test]
fn financial_gantt_is_blank_only_where_a_node_idles() {
    let kernel = kernel_by_name("Financial").unwrap();
    let src = kernel.source(256, 4);
    let (_, bound) = predict_source_full(&src, &PredictOptions::with_nodes(4)).unwrap();
    let profile = hpf90d::eval::run(&bound.analyzed).ok().map(|o| o.profile);
    let tr = trace_program(&hpf90d::machine::ipsc860(4), &bound.spmd, profile.as_ref());
    assert_tiles_the_run(&tr, "Financial n=256 p=4");
    assert!(tr.events.iter().any(|e| e.activity == Activity::Comm));
    let gantt = tr.gantt(64);
    for (node, (busy, _, idle)) in tr.utilization().into_iter().enumerate() {
        let row = gantt
            .lines()
            .find_map(|l| l.strip_prefix(&format!("node {node}: ")))
            .unwrap();
        assert_eq!(row.chars().count(), 64);
        assert!(busy > 0.0, "node {node} never computes");
        if format!("{:.1}", idle * 100.0) == "0.0" {
            assert!(!row.contains('.'), "node {node} reads 0.0% idle:\n{gantt}");
        }
    }
}

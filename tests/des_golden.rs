//! Golden pin of the discrete-event network model's phase timings.
//!
//! Every collective is timed through `hpf90d::sim::collective_base_time` at
//! four message sizes and three participant counts on each registered
//! machine: all four at 8 nodes, the iPSC/860 at 128 nodes and the torus
//! and fat tree at 64 nodes. Fault rows time the same grid through
//! `collective_base_time_with` under a fresh fault session per cell and
//! record the session's `FaultStats` next to each time: a severed, a
//! degraded and a lossy plan on the iPSC/860, and a severed link on the
//! torus, which pins that the torus ignores network faults: they are
//! injected on hypercube machines only. Times are written as the hex
//! of their `f64::to_bits`, so any change in a phase's arithmetic shows.
//! The rows are diffed against `artifacts_des_phases.txt`; set
//! `UPDATE_GOLDENS=1` to regenerate it.

use hpf90d::machine::{CollectiveOp, FaultPlan, MachineModel};
use hpf90d::report::pipeline::machine_params;
use hpf90d::sim::{collective_base_time, collective_base_time_with, FaultSession};
use std::fmt::Write as _;

const GOLDEN: &str = "artifacts_des_phases.txt";

const OPS: [CollectiveOp; 8] = [
    CollectiveOp::Shift,
    CollectiveOp::Reduce,
    CollectiveOp::ReduceLoc,
    CollectiveOp::Broadcast,
    CollectiveOp::AllToAll,
    CollectiveOp::Gather,
    CollectiveOp::Scatter,
    CollectiveOp::Barrier,
];

const SIZES: [u64; 4] = [4, 100, 1024, 65536];

/// Two, a count that is not a power of two, and the whole machine.
fn participants(nodes: usize) -> [usize; 3] {
    [2, nodes / 2 + 1, nodes]
}

fn machine(name: &str, nodes: usize) -> MachineModel {
    machine_params(name, nodes).unwrap_or_else(|e| panic!("{name} at {nodes} nodes: {e}"))
}

fn healthy_rows(out: &mut String, name: &str, nodes: usize) {
    let m = machine(name, nodes);
    for op in OPS {
        for p in participants(nodes) {
            write!(out, "{name} n={nodes} {op:?} p={p} |").unwrap();
            for bytes in SIZES {
                let t = collective_base_time(&m, op, p, bytes);
                write!(out, " {:016x}", t.to_bits()).unwrap();
            }
            out.push('\n');
        }
    }
}

fn fault_rows(out: &mut String, name: &str, nodes: usize, plan: &FaultPlan) {
    let m = machine(name, nodes);
    for op in OPS {
        for p in participants(nodes) {
            write!(out, "{name} n={nodes} [{}] {op:?} p={p} |", plan.name).unwrap();
            for bytes in SIZES {
                let mut session = FaultSession::new(plan, 0);
                let t = collective_base_time_with(&m, op, p, bytes, Some(&mut session));
                let s = session.stats;
                write!(
                    out,
                    " {:016x} r{} d{} u{}",
                    t.to_bits(),
                    s.retries,
                    s.detours,
                    s.undeliverable
                )
                .unwrap();
            }
            out.push('\n');
        }
    }
}

fn render() -> String {
    let mut out = String::from(
        "# ipsc-sim golden: machine n=nodes [plan] op p=participants | bits at 4 100 1024 65536 B\n",
    );
    for name in ["ipsc860", "torus3d", "fattree", "multicore"] {
        healthy_rows(&mut out, name, 8);
    }
    healthy_rows(&mut out, "ipsc860", 128);
    healthy_rows(&mut out, "torus3d", 64);
    healthy_rows(&mut out, "fattree", 64);
    for nodes in [8, 128] {
        for plan in [
            FaultPlan::link_down(0, 1),
            FaultPlan::degraded_link(0, 1, 4.0),
            FaultPlan::lossy(0.2),
        ] {
            fault_rows(&mut out, "ipsc860", nodes, &plan);
        }
    }
    fault_rows(&mut out, "torus3d", 8, &FaultPlan::link_down(0, 1));
    out
}

#[test]
fn des_phases_match_golden() {
    let got = render();
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
            "DES phase timings drifted from {GOLDEN} ({} vs {} lines):\n{}",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

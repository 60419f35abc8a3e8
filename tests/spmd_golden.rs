//! Golden pin of the compiler's SPMD output.
//!
//! Every suite and out-of-core kernel is bound through
//! `CompiledKernel::bind` at its minimum size, at n = 1000 and at n = 4095,
//! on 1, 3, 8 and 64 nodes, and Laplace (Blk-Blk) also at n = 16384 on 64
//! nodes. Every directive candidate the advisor enumerates for Laplace
//! (Blk-Blk) at n = 160 on 16 nodes, with CYCLIC(k) for k in {2, 16, 160},
//! is compiled through the advisor's back half: that covers `*`
//! dimensions, 2-D grids and CYCLIC(k) blocks wider than the extent. Each flattened phase
//! is one line: its label, its total and per-node iterations (runs of equal
//! counts written `count*run`) and working set, or the payload per node of
//! a communication or I/O phase. The rows are diffed against
//! `artifacts_spmd_phases.txt`; set `UPDATE_GOLDENS=1` to regenerate it.

use hpf90d::compiler::{flatten_phases, CompileOptions, SpmdNode, SpmdProgram};
use hpf90d::kernels::{all_kernels, kernel_by_name, ooc_kernels, CompiledKernel};
use hpf_advisor::{enumerate_candidates, Advisor};
use std::fmt::Write as _;

const GOLDEN: &str = "artifacts_spmd_phases.txt";

const PROCS: [usize; 4] = [1, 3, 8, 64];

/// `[8, 8, 8, 7]` as `8*3 7`.
fn run_length(counts: &[u64]) -> String {
    let mut parts = Vec::new();
    let mut i = 0;
    while i < counts.len() {
        let run = counts[i..].iter().take_while(|&&c| c == counts[i]).count();
        parts.push(match run {
            1 => counts[i].to_string(),
            _ => format!("{}*{run}", counts[i]),
        });
        i += run;
    }
    parts.join(" ")
}

fn phase_rows(out: &mut String, spmd: &SpmdProgram) {
    let mut flat = Vec::new();
    flatten_phases(&spmd.body, &mut flat);
    for node in &flat {
        match node {
            SpmdNode::Seq(s) => writeln!(out, "  seq {}", s.label),
            SpmdNode::Comp(c) => writeln!(
                out,
                "  comp {} | total {} | per node {} | ws {}",
                c.label,
                c.total_iters,
                run_length(&c.per_node_iters),
                c.working_set_bytes
            ),
            SpmdNode::Comm(c) => writeln!(out, "  comm {} | bytes {}", c.label, c.bytes_per_node),
            SpmdNode::Io { phase, .. } => writeln!(
                out,
                "  io {:?} {} | bytes {}",
                phase.kind,
                phase.arrays.join(","),
                phase.bytes_per_node
            ),
            SpmdNode::Loop { .. } | SpmdNode::Branch { .. } => unreachable!("flattened"),
        }
        .unwrap();
    }
}

fn bind_rows(out: &mut String, artifact: &CompiledKernel, n: usize, procs: usize) {
    let name = artifact.kernel().name;
    match artifact.bind(n as i64, procs, &CompileOptions::default()) {
        Ok((_, spmd)) => {
            writeln!(
                out,
                "== {name} n={n} p={procs} grid={:?}",
                spmd.grid.extents
            )
            .unwrap();
            phase_rows(out, &spmd);
        }
        Err(e) => writeln!(out, "== {name} n={n} p={procs} error: {e}").unwrap(),
    }
}

/// Each candidate compiled through the advisor's back half, over the
/// front half its search builds once.
fn advisor_rows(out: &mut String) {
    let (n, procs) = (160usize, 16usize);
    let k = kernel_by_name("Laplace (Blk-Blk)").unwrap();
    let advisor = Advisor::for_kernel(&CompiledKernel::new(&k).unwrap()).unwrap();
    let front = advisor.front(n).unwrap();
    for cand in enumerate_candidates(2, procs, &[2, 16, 160]) {
        let label = cand.label();
        match front.compile(&cand, procs) {
            Ok(spmd) => {
                writeln!(out, "== advisor {} n={n} p={procs} {label}", k.name).unwrap();
                phase_rows(out, &spmd);
            }
            Err(e) => writeln!(
                out,
                "== advisor {} n={n} p={procs} {label} error: {e}",
                k.name
            )
            .unwrap(),
        }
    }
}

fn render() -> String {
    let mut out = String::from(
        "# hpf-compiler golden: per flattened phase, label | total | per node (count*run) | ws, or payload bytes per node\n",
    );
    for k in all_kernels().into_iter().chain(ooc_kernels()) {
        let artifact = CompiledKernel::new(&k).unwrap();
        for n in [k.size_range.0, 1000, 4095] {
            for procs in PROCS {
                bind_rows(&mut out, &artifact, n, procs);
            }
        }
    }
    let laplace = CompiledKernel::new(&kernel_by_name("Laplace (Blk-Blk)").unwrap()).unwrap();
    bind_rows(&mut out, &laplace, 16384, 64);
    advisor_rows(&mut out);
    out
}

#[test]
fn spmd_phases_match_golden() {
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
            .take(40)
            .map(|(w, g)| format!("- {w}\n+ {g}"))
            .collect();
        panic!(
            "SPMD phases drifted from {GOLDEN} ({} vs {} lines):\n{}",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

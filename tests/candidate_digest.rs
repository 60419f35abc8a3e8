//! Digest pin of every directive candidate's compile output.
//!
//! For every suite and out-of-core kernel the advisor accepts (those with
//! a DISTRIBUTE to search over), at its minimum size and at n = 257, on
//! 2, 4, 8 and 16 nodes, every candidate the advisor enumerates (CYCLIC(k)
//! for k in {2, 16, 160}) is compiled through the advisor's back half
//! (`Front::compile`). Each candidate folds into its row's FNV-1a digest:
//! its label, the `Debug` rendering of its SPMD program (op counts, trips,
//! per-node iterations, locality, mask hints, communication flags and
//! payloads, warnings) or its error text, and the bits of its
//! zero-communication and full predictions on the default machine. One row
//! per (kernel, n, P) is diffed against `artifacts_candidate_digests.txt`;
//! set `UPDATE_GOLDENS=1` to regenerate it.

use hpf90d::interp::{InterpOptions, InterpretationEngine};
use hpf90d::kernels::{all_kernels, ooc_kernels, CompiledKernel};
use hpf90d::report::pipeline::calibrated_machine_for;
use hpf90d::report::{fnv1a, FNV_OFFSET};
use hpf_advisor::{enumerate_candidates, Advisor};
use std::fmt::Write as _;

const GOLDEN: &str = "artifacts_candidate_digests.txt";

const PROCS: [usize; 4] = [2, 4, 8, 16];

const KS: [i64; 3] = [2, 16, 160];

fn render() -> String {
    let mut out = String::from(
        "# per (kernel, n, P): candidates, compile errors, FNV-1a over label | spmd Debug or error | zero-comm and full prediction bits\n",
    );
    for k in all_kernels().into_iter().chain(ooc_kernels()) {
        let artifact = CompiledKernel::new(&k).unwrap();
        let Ok(advisor) = Advisor::for_kernel(&artifact) else {
            continue;
        };
        for n in [k.size_range.0, 257] {
            let front = match advisor.front(n) {
                Ok(front) => front,
                Err(e) => {
                    writeln!(out, "{} n={n} front error: {e}", k.name).unwrap();
                    continue;
                }
            };
            for procs in PROCS {
                let machine = calibrated_machine_for(hpf_machines::DEFAULT_MACHINE, procs).unwrap();
                let lb = InterpretationEngine::with_options(
                    &machine,
                    InterpOptions {
                        zero_comm: true,
                        ..InterpOptions::default()
                    },
                );
                let full = InterpretationEngine::with_options(&machine, InterpOptions::default());
                let cands = enumerate_candidates(advisor.rank(), procs, &KS);
                let (mut digest, mut errors) = (FNV_OFFSET, 0usize);
                for c in &cands {
                    digest = fnv1a(digest, c.label().as_bytes());
                    match front.compile(c, procs) {
                        Ok(spmd) => {
                            digest = fnv1a(digest, format!("{spmd:?}").as_bytes());
                            let aag = hpf90d::appgraph::build_aag(&spmd);
                            for engine in [&lb, &full] {
                                let t = engine.interpret(&aag).total_seconds();
                                digest = fnv1a(digest, &t.to_bits().to_le_bytes());
                            }
                        }
                        Err(e) => {
                            errors += 1;
                            digest = fnv1a(digest, e.to_string().as_bytes());
                        }
                    }
                }
                writeln!(
                    out,
                    "{} n={n} p={procs} candidates={} errors={errors} digest={digest:016x}",
                    k.name,
                    cands.len()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn candidate_compiles_match_their_digests() {
    let got = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    let drifted: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        drifted.is_empty() && want.lines().count() == got.lines().count(),
        "candidate compiles drifted from {GOLDEN} ({} vs {} lines):\n{}",
        want.lines().count(),
        got.lines().count(),
        drifted.join("\n")
    );
}

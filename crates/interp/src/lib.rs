//! # hpf-interp — the interpretation engine and output module
//!
//! The paper's central contribution (§3.3, §3.4, §4.2): source-driven
//! performance prediction by *interpreting* the abstracted application
//! (SAAG) in terms of the parameters exported by the abstracted system
//! (the iPSC/860 SAG). Includes the memory-hierarchy and comp/comm-overlap
//! models, per-AAU metric bookkeeping, the global clock, and the three
//! output forms (whole-application profile, per-line query, ParaGraph-style
//! trace).

pub mod engine;
pub mod metrics;
pub mod output;

pub use engine::{InterpOptions, InterpretationEngine, Prediction};
pub use metrics::Metrics;
pub use output::{paragraph_trace, profile_report, query_line, query_lines, query_subgraph};

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compiler::CompileOptions;
    use hpf_lang::{analyze, parse_program};
    use machine::ipsc860;
    use std::collections::BTreeMap;

    /// Compile → abstract → interpret in one call.
    fn compile_and_predict(
        analyzed: &hpf_lang::AnalyzedProgram,
        copts: &CompileOptions,
        machine: &machine::MachineModel,
        iopts: InterpOptions,
    ) -> Result<(Prediction, appgraph::Aag), hpf_compiler::CompileError> {
        let spmd = hpf_compiler::compile(analyzed, copts)?;
        let aag = appgraph::build_aag(&spmd);
        let engine = InterpretationEngine::with_options(machine, iopts);
        Ok((engine.interpret(&aag), aag))
    }

    fn predict_src(src: &str, nodes: usize) -> (Prediction, appgraph::Aag) {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let m = ipsc860(nodes);
        compile_and_predict(
            &a,
            &CompileOptions {
                nodes,
                ..Default::default()
            },
            &m,
            InterpOptions::default(),
        )
        .unwrap()
    }

    const LAPLACE: &str = "
PROGRAM LAP
INTEGER, PARAMETER :: N = 64
REAL U(N,N), V(N,N)
INTEGER IT
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
U = 0.0
DO IT = 1, 10
FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
U(2:N-1, 2:N-1) = V(2:N-1, 2:N-1)
END DO
END
";

    #[test]
    fn laplace_prediction_is_reasonable() {
        let (pred, _) = predict_src(LAPLACE, 4);
        // 10 sweeps of a 64x64 Jacobi on 4 i860 nodes: sub-second but
        // non-trivial (the real machine did ~0.1 s at N=64 per Figure 4).
        assert!(pred.global_clock > 1e-4, "clock {}", pred.global_clock);
        assert!(pred.global_clock < 1.0, "clock {}", pred.global_clock);
        assert!(pred.total.comm > 0.0);
        assert!(pred.total.comp > 0.0);
    }

    #[test]
    fn more_nodes_less_comp_more_commfrac() {
        let (p1, _) = predict_src(LAPLACE, 1);
        let (p8, _) = predict_src(LAPLACE, 8);
        assert!(p8.total.comp < p1.total.comp, "comp must shrink with nodes");
        assert_eq!(p1.total.comm, 0.0, "single node never communicates");
        assert!(p8.total.comm > 0.0);
        assert!(p8.total.comm_fraction() > p1.total.comm_fraction());
    }

    #[test]
    fn scaling_speedup_for_large_problem() {
        let src = LAPLACE.replace("N = 64", "N = 256");
        let p = parse_program(&src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let t = |n: usize| {
            let m = ipsc860(n);
            compile_and_predict(
                &a,
                &CompileOptions {
                    nodes: n,
                    ..Default::default()
                },
                &m,
                InterpOptions::default(),
            )
            .unwrap()
            .0
            .global_clock
        };
        let t1 = t(1);
        let t4 = t(4);
        let t8 = t(8);
        assert!(t4 < t1, "4 nodes faster than 1: {t4} vs {t1}");
        assert!(t8 < t4, "8 nodes faster than 4: {t8} vs {t4}");
        let speedup = t1 / t8;
        assert!(speedup > 2.0 && speedup < 9.0, "speedup {speedup}");
    }

    #[test]
    fn block_star_wins_for_laplace() {
        // The headline directive-selection result (§5.2.1): (Block,*) is the
        // appropriate distribution for the Laplace solver, at the problem
        // sizes the paper's Figures 4/5 emphasize (up to 256).
        let t = |dist: &str, grid: &str| {
            let src = LAPLACE
                .replace("(BLOCK,*)", dist)
                .replace("P(4)", grid)
                .replace("N = 64", "N = 256");
            predict_src(&src, 4).0.global_clock
        };
        let bs = t("(BLOCK,*)", "P(4)");
        let sb = t("(*,BLOCK)", "P(4)");
        let bb = t("(BLOCK,BLOCK)", "P(2,2)");
        assert!(bs < sb, "(Block,*) {bs} must beat (*,Block) {sb}");
        assert!(bs < bb, "(Block,*) {bs} must beat (Block,Block) {bb}");
    }

    #[test]
    fn per_line_query_attribution() {
        let (pred, aag) = predict_src(LAPLACE, 4);
        let forall_line = LAPLACE
            .lines()
            .position(|l| l.starts_with("FORALL"))
            .unwrap() as u32
            + 1;
        let m = query_line(&pred, &aag, forall_line);
        assert!(m.time() > 0.0);
        // The stencil dominates the program.
        assert!(m.time() > 0.3 * pred.global_clock);
    }

    #[test]
    fn profile_report_renders() {
        let (pred, aag) = predict_src(LAPLACE, 4);
        let rep = profile_report(&pred, &aag, "laplace");
        assert!(rep.contains("communication"));
        assert!(rep.contains("computation"));
        assert!(rep.contains("per-AAU"));
    }

    #[test]
    fn paragraph_trace_has_events() {
        let (pred, aag) = predict_src(LAPLACE, 4);
        let tr = paragraph_trace(&pred, &aag);
        assert!(tr.contains("task_begin"));
        assert!(tr.contains("send"));
        assert!(tr.contains("recv"));
        // Events for all four nodes.
        assert!(tr
            .lines()
            .any(|l| l.ends_with(' ').eq(&false) && l.contains(" 3 ")));
    }

    #[test]
    fn flat_memory_ablation_is_faster() {
        let p = parse_program(LAPLACE).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let m = ipsc860(4);
        let co = CompileOptions {
            nodes: 4,
            ..Default::default()
        };
        let (with_mem, _) = compile_and_predict(&a, &co, &m, InterpOptions::default()).unwrap();
        let (flat, _) = compile_and_predict(
            &a,
            &co,
            &m,
            InterpOptions {
                memory_hierarchy: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(flat.global_clock < with_mem.global_clock);
    }

    #[test]
    fn overlap_ablation_reduces_comm() {
        let p = parse_program(LAPLACE).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let m = ipsc860(8);
        let co = CompileOptions {
            nodes: 8,
            ..Default::default()
        };
        let (base, _) = compile_and_predict(&a, &co, &m, InterpOptions::default()).unwrap();
        let (ovl, _) = compile_and_predict(
            &a,
            &co,
            &m,
            InterpOptions {
                overlap_comp_comm: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ovl.total.comm <= base.total.comm);
        assert!(ovl.global_clock <= base.global_clock);
    }

    #[test]
    fn reduction_program_prediction() {
        let src = "
PROGRAM PI
INTEGER, PARAMETER :: N = 4096
REAL X(N), S
!HPF$ PROCESSORS P(8)
!HPF$ DISTRIBUTE X(BLOCK) ONTO P
FORALL (I=1:N) X(I) = 1.0 / (1.0 + ((I - 0.5) / N) ** 2)
S = SUM(X)
END
";
        let (pred, _) = predict_src(src, 8);
        assert!(pred.total.comm > 0.0, "global sum must communicate");
        assert!(pred.total.comp > pred.total.comm, "compute-bound at N=4096");
    }

    #[test]
    fn larger_problem_takes_longer() {
        let t = |n: u32| {
            let src = LAPLACE.replace("N = 64", &format!("N = {n}"));
            predict_src(&src, 4).0.global_clock
        };
        assert!(t(128) > t(64));
        assert!(t(256) > t(128));
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use hpf_compiler::CompileOptions;
    use hpf_lang::{analyze, parse_program};
    use machine::ipsc860;
    use std::collections::BTreeMap;

    fn predict_src(src: &str, nodes: usize) -> Prediction {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let spmd = hpf_compiler::compile(
            &a,
            &CompileOptions {
                nodes,
                ..Default::default()
            },
        )
        .unwrap();
        let aag = appgraph::build_aag(&spmd);
        let m = ipsc860(nodes);
        InterpretationEngine::new(&m).interpret(&aag)
    }

    #[test]
    fn nested_loops_multiply() {
        let one = predict_src(
            "PROGRAM T\nREAL A(64)\nINTEGER K\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nDO K = 1, 1\nA = A + 1.0\nEND DO\nEND\n",
            2,
        );
        let ten = predict_src(
            "PROGRAM T\nREAL A(64)\nINTEGER K\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nDO K = 1, 10\nA = A + 1.0\nEND DO\nEND\n",
            2,
        );
        let ratio = ten.global_clock / one.global_clock;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn branch_weights_average_arms() {
        // IF with a cheap and an expensive arm: prediction must sit between.
        let cheap = predict_src(
            "PROGRAM T\nREAL A(1024), X\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nX = 1.0\nA = 1.0\nEND\n",
            2,
        );
        let expensive = predict_src(
            "PROGRAM T\nREAL A(1024), X\n!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nX = 1.0\nA = 1.0\nA = A * 2.0\nA = A * 3.0\nEND\n",
            2,
        );
        let branchy = predict_src(
            "PROGRAM T
REAL A(1024), X
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
X = 1.0
IF (X > 0.5) THEN
A = 1.0
A = A * 2.0
A = A * 3.0
ELSE
A = 1.0
END IF
END
",
            2,
        );
        assert!(branchy.global_clock < expensive.global_clock);
        assert!(branchy.global_clock > 0.4 * cheap.global_clock);
    }

    #[test]
    fn wait_time_reported_for_imbalance() {
        let pred = predict_src(
            "PROGRAM T\nREAL A(128)\n!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\nFORALL (I = 1:32) A(I) = SQRT(1.0 + I)\nEND\n",
            4,
        );
        assert!(pred.total.wait > 0.0, "only node 0 works; others wait");
        // The wait is not part of the critical path clock.
        assert!(pred.total.wait < pred.global_clock * 3.0);
    }

    #[test]
    fn masked_density_scales_prediction() {
        let mk = |density: f64| {
            let src = "PROGRAM T
REAL A(4096), Q(4096)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE TT(4096)
!HPF$ ALIGN A(I) WITH TT(I)
!HPF$ ALIGN Q(I) WITH TT(I)
!HPF$ DISTRIBUTE TT(BLOCK) ONTO P
FORALL (I = 1:4096, Q(I) .GT. 0.0) A(I) = SQRT(Q(I)) / Q(I)
END
";
            let p = parse_program(src).unwrap();
            let a = analyze(&p, &BTreeMap::new()).unwrap();
            let spmd = hpf_compiler::compile(
                &a,
                &CompileOptions {
                    nodes: 4,
                    mask_density_hint: density,
                    ..Default::default()
                },
            )
            .unwrap();
            let aag = appgraph::build_aag(&spmd);
            let m = ipsc860(4);
            InterpretationEngine::new(&m).interpret(&aag).global_clock
        };
        let low = mk(0.1);
        let high = mk(1.0);
        assert!(high > 1.5 * low, "density 1.0 {high} vs 0.1 {low}");
    }
}

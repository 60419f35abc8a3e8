//! # ipsc-sim — discrete-event simulator of the registered machines
//!
//! This crate is the reproduction's substitute for the physical machine the
//! paper measured against (DESIGN.md §2), the iPSC/860 hypercube, and for
//! the other backends of the `hpf-machines` registry: a per-node-clock,
//! event-level network simulator executing the compiled SPMD program over
//! the machine's topology. Its cost model is deliberately richer than the
//! predictor's analytic one — compiled-code distortion factors, cache
//! conflict misses, per-link contention along each message's route, and
//! per-run system-load jitter — so that predicted-vs-"measured" error is an
//! emergent quantity with the same character as the paper's Table 2.

pub mod network;
pub mod simulator;
pub mod trace;

pub use network::{simulate_phase, FaultStats, Message, PhaseTiming};
pub use simulator::{
    calibrate, calibrate_backend, calibrate_params, collective_base_time,
    collective_base_time_with, io_base_time, sim_ops_time, FaultSession, SimConfig, SimResult,
    Simulator,
};
pub use trace::{trace_program, Activity, SimTrace, TraceEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compiler::{compile, CompileOptions};
    use hpf_lang::{analyze, parse_program};
    use machine::ipsc860;
    use std::collections::BTreeMap;

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

    fn sim_src(src: &str, nodes: usize, runs: usize) -> SimResult {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let spmd = compile(
            &a,
            &CompileOptions {
                nodes,
                ..Default::default()
            },
        )
        .unwrap();
        let m = ipsc860(nodes);
        let profile = hpf_eval::run(&a).ok().map(|o| o.profile);
        Simulator::with_config(
            &m,
            SimConfig {
                runs,
                ..Default::default()
            },
        )
        .simulate(&spmd, profile.as_ref())
    }

    #[test]
    fn laplace_simulates_in_plausible_range() {
        let r = sim_src(LAPLACE, 4, 100);
        assert!(r.mean > 1e-4 && r.mean < 1.0, "mean {}", r.mean);
        assert!(r.comm > 0.0);
        assert!(r.comp > 0.0);
        assert!(r.min <= r.mean && r.mean <= r.max);
    }

    #[test]
    fn jitter_produces_variance_but_small() {
        let r = sim_src(LAPLACE, 4, 200);
        assert!(r.std > 0.0);
        assert!(r.std / r.mean < 0.05, "cv {}", r.std / r.mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sim_src(LAPLACE, 4, 50);
        let b = sim_src(LAPLACE, 4, 50);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std, b.std);
    }

    #[test]
    fn scaling_with_nodes() {
        let big = LAPLACE.replace("N = 64", "N = 256");
        let t1 = sim_src(&big, 1, 20).mean;
        let t8 = sim_src(&big, 8, 20).mean;
        assert!(t8 < t1, "8 nodes {t8} should beat 1 node {t1}");
        assert!(t1 / t8 > 2.0, "speedup {}", t1 / t8);
    }

    #[test]
    fn single_node_has_no_comm() {
        let r = sim_src(LAPLACE, 1, 20);
        assert_eq!(r.comm, 0.0);
    }

    #[test]
    fn profile_mask_density_matters() {
        // Mask true for only half the elements: simulating WITH the profile
        // must be cheaper than the predictor's density-1.0 heuristic path
        // (simulate without profile).
        let src = "
PROGRAM M
INTEGER, PARAMETER :: N = 2048
REAL A(N), Q(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN Q(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (I=1:N:2) Q(I) = 1.0
FORALL (I=1:N, Q(I) .GT. 0.0) A(I) = SQRT(Q(I)) / Q(I)
END
";
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let spmd = compile(
            &a,
            &CompileOptions {
                nodes: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let m = ipsc860(4);
        let profile = hpf_eval::run(&a).unwrap().profile;
        let cfg = SimConfig {
            runs: 20,
            ..Default::default()
        };
        let with = Simulator::with_config(&m, cfg.clone()).simulate(&spmd, Some(&profile));
        let without = Simulator::with_config(&m, cfg).simulate(&spmd, None);
        assert!(
            with.mean < without.mean,
            "profiled (density 0.5) {} must be under heuristic (1.0) {}",
            with.mean,
            without.mean
        );
    }
}

#[cfg(test)]
mod machine_backend_tests {
    use super::*;
    use machine::CollectiveOp;

    /// The registry's iPSC backend must time collectives bit-identically
    /// to the directly constructed machine, which the byte-identical
    /// goldens rely on.
    #[test]
    fn registry_ipsc_collectives_match_direct_machine_bit_for_bit() {
        let direct = machine::ipsc860(8);
        let via = hpf_machines::machine("ipsc860").unwrap().params(8).unwrap();
        for op in [
            CollectiveOp::Shift,
            CollectiveOp::Reduce,
            CollectiveOp::Broadcast,
            CollectiveOp::AllToAll,
        ] {
            for bytes in [4u64, 100, 1024, 65536] {
                let a = collective_base_time(&direct, op, 8, bytes);
                let b = collective_base_time(&via, op, 8, bytes);
                assert_eq!(a.to_bits(), b.to_bits(), "{op:?} {bytes}B");
            }
        }
    }

    fn op_for_label(label: &str) -> CollectiveOp {
        match label {
            "shift" => CollectiveOp::Shift,
            "reduce" => CollectiveOp::Reduce,
            "maxloc" => CollectiveOp::ReduceLoc,
            "broadcast" => CollectiveOp::Broadcast,
            "all-to-all" => CollectiveOp::AllToAll,
            "gather" => CollectiveOp::Gather,
            "barrier" => CollectiveOp::Barrier,
            other => panic!("unknown op label {other}"),
        }
    }

    /// The ReFrame/HPL-style per-machine reference tables: recalibrate
    /// every registered backend and check each pinned expectation within
    /// its tolerance. Catches parameter/routing drift by name.
    #[test]
    fn registry_backends_match_reference_tables() {
        let mut calibrated: std::collections::HashMap<(&str, usize), machine::MachineModel> =
            std::collections::HashMap::new();
        for r in hpf_machines::calibration_references() {
            let m = calibrated.entry((r.machine, r.nodes)).or_insert_with(|| {
                let backend = hpf_machines::machine(r.machine).unwrap();
                calibrate_backend(backend, r.nodes).unwrap()
            });
            let fitted_us = m.collective_time(op_for_label(r.op), r.p, r.bytes) * 1e6;
            let err_pct = (fitted_us - r.expected_us).abs() / r.expected_us * 100.0;
            assert!(
                err_pct <= r.tol_pct,
                "{} {} p={} {}B: fitted {fitted_us:.3}µs vs reference {:.3}µs ({err_pct:.2}% > {}%)",
                r.machine,
                r.op,
                r.p,
                r.bytes,
                r.expected_us,
                r.tol_pct
            );
        }
    }

    /// Non-hypercube backends produce *different* collective timings than
    /// the iPSC/860 — the registry is a real machine axis, not a relabel.
    #[test]
    fn backends_disagree_on_collective_cost() {
        let ipsc = machine::ipsc860(8);
        for name in ["torus3d", "fattree", "multicore"] {
            let m = hpf_machines::machine(name).unwrap().params(8).unwrap();
            let a = collective_base_time(&ipsc, CollectiveOp::AllToAll, 8, 1024);
            let b = collective_base_time(&m, CollectiveOp::AllToAll, 8, 1024);
            assert_ne!(a.to_bits(), b.to_bits(), "{name}");
        }
    }

    /// `calibrate_backend` surfaces out-of-range node counts as the typed
    /// error, not a panic.
    #[test]
    fn calibrate_backend_rejects_bad_nodes() {
        let backend = hpf_machines::machine("multicore").unwrap();
        assert!(matches!(
            calibrate_backend(backend, 0),
            Err(hpf_machines::TopologyError::InvalidNodes { .. })
        ));
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use hpf_compiler::{compile, CompileOptions};
    use hpf_lang::{analyze, parse_program};
    use machine::ipsc860;
    use std::collections::BTreeMap;

    const PI_SRC: &str = "
PROGRAM PI
INTEGER, PARAMETER :: N = 2048
REAL F(N), PIE
!HPF$ PROCESSORS P(8)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
FORALL (I = 1:N) F(I) = 4.0 / (1.0 + ((I - 0.5) * (1.0 / N)) ** 2)
PIE = SUM(F) / N
END
";

    fn spmd(nodes: usize) -> hpf_compiler::SpmdProgram {
        let p = parse_program(PI_SRC).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        compile(
            &a,
            &CompileOptions {
                nodes,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn zero_jitter_zero_variance() {
        let m = ipsc860(8);
        let cfg = SimConfig {
            runs: 20,
            load_jitter: 0.0,
            timer_tolerance: 0.0,
            ..Default::default()
        };
        let r = Simulator::with_config(&m, cfg).simulate(&spmd(8), None);
        assert!(r.std < 1e-12, "std {}", r.std);
        assert!((r.min - r.max).abs() < 1e-9 * r.mean.max(1e-9));
    }

    #[test]
    fn larger_jitter_larger_variance() {
        let m = ipsc860(8);
        let small = Simulator::with_config(
            &m,
            SimConfig {
                runs: 100,
                load_jitter: 0.005,
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        let big = Simulator::with_config(
            &m,
            SimConfig {
                runs: 100,
                load_jitter: 0.05,
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        assert!(big.std > small.std);
    }

    #[test]
    fn different_seeds_different_samples_same_scale() {
        let m = ipsc860(8);
        let a = Simulator::with_config(
            &m,
            SimConfig {
                runs: 50,
                seed: 1,
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        let b = Simulator::with_config(
            &m,
            SimConfig {
                runs: 50,
                seed: 2,
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        assert_ne!(a.mean, b.mean);
        assert!((a.mean - b.mean).abs() / a.mean < 0.05, "same scale");
    }

    #[test]
    fn scales_to_sixteen_and_thirtytwo_nodes() {
        // The framework generalizes beyond the paper's 8-node machine.
        let t8 = {
            let m = ipsc860(8);
            Simulator::with_config(
                &m,
                SimConfig {
                    runs: 10,
                    ..Default::default()
                },
            )
            .simulate(&spmd(8), None)
            .mean
        };
        let t32 = {
            let m = ipsc860(32);
            Simulator::with_config(
                &m,
                SimConfig {
                    runs: 10,
                    ..Default::default()
                },
            )
            .simulate(&spmd(32), None)
            .mean
        };
        assert!(t32 < t8, "32 nodes {t32} should beat 8 {t8} on n=2048");
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_baseline() {
        // The resilience layer must not perturb the healthy machine: a
        // config whose fault plan is empty reproduces the exact numbers of
        // a config that never mentions faults.
        let m = ipsc860(8);
        let baseline = Simulator::with_config(
            &m,
            SimConfig {
                runs: 30,
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        let explicit = Simulator::with_config(
            &m,
            SimConfig {
                runs: 30,
                faults: machine::FaultPlan::none(),
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        assert_eq!(baseline.mean.to_bits(), explicit.mean.to_bits());
        assert_eq!(baseline.std.to_bits(), explicit.std.to_bits());
        assert_eq!(baseline.comm.to_bits(), explicit.comm.to_bits());
        assert!(!explicit.fault_stats.any());
    }

    #[test]
    fn fault_plans_are_deterministic_and_costly() {
        let m = ipsc860(8);
        let run = |plan: machine::FaultPlan| {
            Simulator::with_config(
                &m,
                SimConfig {
                    runs: 30,
                    faults: plan,
                    ..Default::default()
                },
            )
            .simulate(&spmd(8), None)
        };
        let healthy = run(machine::FaultPlan::none());
        for plan in [
            machine::FaultPlan::degraded_link(0, 1, 4.0),
            machine::FaultPlan::slow_node(0, 2.0),
            machine::FaultPlan::lossy(0.1),
        ] {
            let a = run(plan.clone());
            let b = run(plan.clone());
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{}", plan.name);
            assert_eq!(a.fault_stats, b.fault_stats, "{}", plan.name);
            assert!(
                a.mean > healthy.mean,
                "{}: {} vs {}",
                plan.name,
                a.mean,
                healthy.mean
            );
        }
    }

    #[test]
    fn lossy_plan_records_retries() {
        let m = ipsc860(8);
        let r = Simulator::with_config(
            &m,
            SimConfig {
                runs: 30,
                faults: machine::FaultPlan::lossy(0.2),
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        assert!(r.fault_stats.retries > 0);
        assert_eq!(r.fault_stats.undeliverable, 0);
    }

    #[test]
    fn slow_node_slows_compute_not_comm() {
        let m = ipsc860(8);
        let healthy = Simulator::with_config(
            &m,
            SimConfig {
                runs: 10,
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        let slowed = Simulator::with_config(
            &m,
            SimConfig {
                runs: 10,
                faults: machine::FaultPlan::slow_node(2, 3.0),
                ..Default::default()
            },
        )
        .simulate(&spmd(8), None);
        assert!(
            slowed.comp > 2.5 * healthy.comp,
            "{} vs {}",
            slowed.comp,
            healthy.comp
        );
        let comm_ratio = slowed.comm / healthy.comm.max(1e-12);
        assert!(
            comm_ratio < 1.05,
            "comm should be untouched: ratio {comm_ratio}"
        );
    }

    #[test]
    fn calibration_covers_all_ops_and_sizes() {
        let m = calibrate(8);
        let cal = m.calibration.as_ref().unwrap();
        assert!(
            cal.compute_scale > 1.0 && cal.compute_scale < 1.5,
            "{}",
            cal.compute_scale
        );
        // 8 ops × p in {2,4,8}
        assert_eq!(
            cal.comm.len(),
            8 * 3,
            "{:?}",
            cal.comm.keys().collect::<Vec<_>>()
        );
        for pc in cal.comm.values() {
            assert!(pc.small.alpha_s >= 0.0 && pc.large.alpha_s >= 0.0);
        }
    }

    #[test]
    fn calibrate_params_is_calibrate_bit_for_bit() {
        // The backend-generic characterization pass must be the original
        // `calibrate` exactly: same probes, same fits, same bits.
        let a = calibrate(8);
        let b = calibrate_params(ipsc860(8));
        let ca = a.calibration.as_ref().unwrap();
        let cb = b.calibration.as_ref().unwrap();
        assert_eq!(ca.compute_scale.to_bits(), cb.compute_scale.to_bits());
        assert_eq!(ca.comm.len(), cb.comm.len());
        for (k, pa) in &ca.comm {
            let pb = &cb.comm[k];
            assert_eq!(pa.small.alpha_s.to_bits(), pb.small.alpha_s.to_bits());
            assert_eq!(
                pa.small.beta_s_per_byte.to_bits(),
                pb.small.beta_s_per_byte.to_bits()
            );
            assert_eq!(pa.large.alpha_s.to_bits(), pb.large.alpha_s.to_bits());
            assert_eq!(
                pa.large.beta_s_per_byte.to_bits(),
                pb.large.beta_s_per_byte.to_bits()
            );
        }
    }

    #[test]
    fn calibrated_collective_tracks_des_within_band() {
        let m = calibrate(8);
        for op in [machine::CollectiveOp::Shift, machine::CollectiveOp::Reduce] {
            for bytes in [8u64, 640, 10000] {
                let fitted = m.collective_time(op, 8, bytes);
                let actual = collective_base_time(&m, op, 8, bytes);
                let err = (fitted - actual).abs() / actual.max(1e-12);
                assert!(err < 0.35, "{op:?} {bytes}B: fitted {fitted} vs {actual}");
            }
        }
    }
}

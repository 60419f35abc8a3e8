//! The simulator reads nothing of a machine's calibration: the calibrated
//! model `calibrated_machine_for` hands the predictor and the raw tables
//! `machine_params` builds simulate, trace and price I/O to the same bits.
//! This is what lets every prediction-vs-measurement site simulate on the
//! one model it predicted with.
//!
//! Cells: every registered backend at 1, 2, 4, 8 and 16 nodes, times every
//! suite and out-of-core kernel at its minimum size. Per cell, on both
//! models: `Simulator::simulate` (20 runs, healthy and under each of
//! `report::faults::default_plans()`), `trace_program`, and `io_base_time`
//! of every I/O phase.

use hpf90d::kernels::{all_kernels, ooc_kernels};
use hpf90d::report::faults::default_plans;
use hpf90d::report::pipeline::{calibrated_machine_for, compile_source, machine_params};
use hpf90d::sim::{io_base_time, trace_program, SimConfig, Simulator};
use std::collections::BTreeMap;

#[test]
fn simulation_reads_nothing_of_the_calibration() {
    let plans = default_plans();
    let mut cells = 0;
    for kernel in all_kernels().into_iter().chain(ooc_kernels()) {
        let n = kernel.size_range.0;
        for nodes in [1, 2, 4, 8, 16] {
            let src = kernel.source(n, nodes);
            let bound = compile_source(&src, nodes, &BTreeMap::new(), &Default::default())
                .unwrap_or_else(|e| panic!("{} n={n} p={nodes}: {e}", kernel.name));
            let profile = hpf90d::eval::run_with_limit(&bound.analyzed, 10_000_000)
                .ok()
                .map(|o| o.profile);
            for backend in hpf_machines::registry() {
                let cell = format!("{} n={n} p={nodes} on {}", kernel.name, backend.name);
                let calibrated = calibrated_machine_for(backend.name, nodes).unwrap();
                assert!(calibrated.calibration.is_some(), "{cell}");
                let raw = machine_params(backend.name, nodes).unwrap();
                assert!(raw.calibration.is_none(), "{cell}");
                for plan in &plans {
                    let config = SimConfig {
                        runs: 20,
                        faults: plan.clone(),
                        ..SimConfig::default()
                    };
                    let [a, b] = [&*calibrated, &raw].map(|m| {
                        let r = Simulator::with_config(m, config.clone())
                            .simulate(&bound.spmd, profile.as_ref());
                        format!("{r:?}")
                    });
                    assert_eq!(a, b, "{cell} under {plan:?}");
                }
                let [a, b] = [&*calibrated, &raw]
                    .map(|m| format!("{:?}", trace_program(m, &bound.spmd, profile.as_ref())));
                assert_eq!(a, b, "{cell}: trace");
                for phase in bound.spmd.io_phases() {
                    assert_eq!(
                        io_base_time(&calibrated, phase).to_bits(),
                        io_base_time(&raw, phase).to_bits(),
                        "{cell}: {}",
                        phase.outline()
                    );
                }
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 360);
}

//! Allocations of a warm calibration lookup: once a `(machine, nodes)`
//! model has been calibrated, `calibrated_machine_for` hands out the
//! shared model without allocating, for every registered machine at 1 to
//! 16 nodes. Allocation counts are deterministic, so the gate is exact.

mod common;

use report::pipeline::calibrated_machine_for;

#[test]
fn warm_calibration_lookup_allocates_nothing() {
    let points: Vec<(&str, usize)> = hpf_machines::registry()
        .iter()
        .flat_map(|b| (1..=16).map(move |nodes| (b.name, nodes)))
        .collect();
    for &(name, nodes) in &points {
        calibrated_machine_for(name, nodes).expect("node count in range");
    }
    let mut models = Vec::with_capacity(points.len());

    let ((), allocs) = common::allocations(|| {
        for &(name, nodes) in &points {
            models.push(calibrated_machine_for(name, nodes));
        }
    });

    assert!(models.iter().all(Result::is_ok));
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} warm lookups",
        points.len()
    );
}

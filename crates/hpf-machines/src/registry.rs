//! The machine registry: one [`Backend`] row per named machine.
//!
//! A backend is data keyed by its name, as a ReFrame system is: a
//! description, a supported node range, a provenance note, and the
//! function that builds its SAU parameter tables ([`machine::MachineModel`])
//! for a node count. The tables name the topology the DES routes over
//! (`build_topology(&params.topology, nodes)`) and degrade under a fault
//! plan (`params.degrade(&plan)`). The iPSC/860 row's tables are
//! [`machine::ipsc860`] itself — same struct, same numbers. Three further
//! rows model the machine classes the paper's methodology was designed to
//! compare (§7): a Paragon-class 3-D torus/mesh, an SP-2-class fat-tree
//! cluster, and an idealized modern multicore node.

use crate::error::TopologyError;
use machine::{
    CommComponent, IoComponent, MemoryComponent, ProcessingComponent, Sau, TopologyDesc,
};

/// A named machine backend the pipeline can target: one row of the
/// registry table.
#[derive(Debug)]
pub struct Backend {
    /// Registry key (stable, lowercase; used in CLIs, HTTP bodies and
    /// metric names).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Inclusive `(min, max)` node counts the backend supports.
    pub node_range: (usize, usize),
    /// Where the SAU parameter tables come from (§4.4 provenance).
    pub provenance: &'static str,
    /// The SAU parameter tables for a node count inside `node_range`.
    /// [`Backend::params`] is the checked way to call it.
    pub tables: fn(usize) -> machine::MachineModel,
}

impl Backend {
    /// Parameter tables for `nodes` compute nodes.
    pub fn params(&self, nodes: usize) -> Result<machine::MachineModel, TopologyError> {
        self.validate_nodes(nodes)?;
        Ok((self.tables)(nodes))
    }

    /// Reject node counts outside [`Backend::node_range`].
    pub fn validate_nodes(&self, nodes: usize) -> Result<(), TopologyError> {
        let (lo, hi) = self.node_range;
        if nodes < lo || nodes > hi {
            return Err(TopologyError::InvalidNodes {
                machine: self.name.to_string(),
                nodes,
                reason: format!("supported node range is {lo}..={hi}"),
            });
        }
        Ok(())
    }
}

/// The default backend: the machine the paper measured.
pub const DEFAULT_MACHINE: &str = "ipsc860";

/// The registry table, ipsc860 first.
static BACKENDS: [Backend; 4] = [
    Backend {
        name: "ipsc860",
        description: "Intel iPSC/860 hypercube: 40 MHz i860 nodes, NX Direct-Connect network",
        node_range: (1, 1024),
        provenance: "vendor specifications + instruction counting; comm fitted by SAU calibration runs (paper §4.4)",
        tables: machine::ipsc860,
    },
    Backend {
        name: "torus3d",
        description: "Paragon-class 3-D torus: 50 MHz nodes, dimension-ordered wormhole mesh",
        node_range: (1, 4096),
        provenance: "Paragon-class estimates scaled from iPSC/860 tables; comm fitted by SAU calibration runs against the DES",
        tables: torus3d,
    },
    Backend {
        name: "fattree",
        description: "SP-2-class cluster: 66 MHz superscalar nodes on a two-level fat tree (radix 4)",
        node_range: (1, 4096),
        provenance: "SP-2-class estimates; comm fitted by SAU calibration runs against the DES",
        tables: fattree,
    },
    Backend {
        name: "multicore",
        description: "idealized multicore node: 3 GHz cores, on-chip crossbar, sub-µs messaging",
        node_range: (1, 128),
        provenance: "idealized modern-node estimates; comm fitted by SAU calibration runs against the DES",
        tables: multicore,
    },
];

/// All registered backends, in registry order (ipsc860 first).
pub fn registry() -> &'static [Backend] {
    &BACKENDS
}

/// Registered backend names, in registry order.
pub fn machine_names() -> Vec<&'static str> {
    BACKENDS.iter().map(|b| b.name).collect()
}

/// Look a backend up by name.
pub fn machine(name: &str) -> Result<&'static Backend, TopologyError> {
    BACKENDS
        .iter()
        .find(|b| b.name == name)
        .ok_or_else(|| TopologyError::UnknownMachine {
            name: name.to_string(),
            available: machine_names(),
        })
}

/// Assemble a flat single-level SAG (system → interconnect → nodes) for
/// a non-iPSC backend. The iPSC/860 keeps its original two-level SAG
/// (SRM host + cube) via [`machine::ipsc860`].
#[allow(clippy::too_many_arguments)]
fn assemble(
    name: String,
    fabric: &str,
    node_label: &str,
    nodes: usize,
    proc_: ProcessingComponent,
    mem: MemoryComponent,
    comm: CommComponent,
    io: IoComponent,
    topology: TopologyDesc,
) -> machine::MachineModel {
    let mut net = Sau::structural(fabric);
    net.comm = Some(comm.clone());
    for i in 0..nodes {
        let mut n = Sau::structural(format!("{node_label} {i}"));
        n.processing = Some(proc_.clone());
        n.memory = Some(mem.clone());
        net.children.push(n);
    }
    let mut root = Sau::structural(name.clone());
    root.io = Some(io.clone());
    root.children.push(net);
    machine::MachineModel {
        name,
        sag: root,
        nodes,
        node_processing: proc_,
        node_memory: mem,
        comm,
        io,
        calibration: None,
        topology,
    }
}

/// Most-balanced three-way factorization of `nodes` (ascending extents;
/// deterministic), used to lay a node count out as a 3-D torus.
pub fn balanced_dims3(nodes: usize) -> Vec<usize> {
    let mut best = vec![1, 1, nodes.max(1)];
    let mut best_sum = best.iter().sum::<usize>();
    let mut a = 1;
    while a * a * a <= nodes {
        if nodes.is_multiple_of(a) {
            let rest = nodes / a;
            let mut b = a;
            while b * b <= rest {
                if rest.is_multiple_of(b) {
                    let c = rest / b;
                    let sum = a + b + c;
                    if sum < best_sum {
                        best_sum = sum;
                        best = vec![a, b, c];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// A Paragon-class 3-D mesh/torus: 50 MHz i860XP-class nodes on a
/// wormhole-routed grid with far lower per-message latency than NX.
fn torus3d(nodes: usize) -> machine::MachineModel {
    let mut proc_ = machine::ipsc860_node_processing();
    proc_.clock_mhz = 50.0;
    let mut mem = machine::ipsc860_node_memory();
    mem.icache_bytes = 16 * 1024;
    mem.dcache_bytes = 16 * 1024;
    mem.main_bytes = 32 * 1024 * 1024;
    mem.clock_mhz = 50.0;
    let comm = CommComponent {
        short_latency_s: 45e-6,
        long_latency_s: 70e-6,
        short_threshold: 256,
        per_byte_s: 0.02e-6,
        per_hop_s: 0.1e-6,
        pack_per_byte_s: 0.04e-6,
        sync_overhead_s: 10e-6,
    };
    let io = IoComponent {
        load_bandwidth_bps: 2048.0 * 1024.0,
        load_latency_s: 1.0,
        transfer_bandwidth_bps: 1024.0 * 1024.0,
        // Paragon-class PFS: four I/O partitions striping 64 KB units,
        // seek-dominated SCSI disks behind each.
        io_servers: 4,
        stripe_bytes: 64 * 1024,
        disk_latency_s: 20e-3,
        disk_bandwidth_bps: 3.0 * 1024.0 * 1024.0,
        server_overhead_s: 0.4e-3,
    };
    assemble(
        format!("3-D torus ({nodes} nodes)"),
        "wormhole mesh",
        "mesh node",
        nodes,
        proc_,
        mem,
        comm,
        io,
        TopologyDesc::Torus {
            dims: balanced_dims3(nodes),
        },
    )
}

/// An SP-2-class fat-tree cluster: faster superscalar nodes behind a
/// two-level multistage switch.
fn fattree(nodes: usize) -> machine::MachineModel {
    let proc_ = ProcessingComponent {
        clock_mhz: 66.0,
        fadd_cycles: 1.0,
        fmul_cycles: 1.0,
        fdiv_cycles: 17.0,
        ftrans_cycles: 60.0,
        int_cycles: 1.0,
        imul_cycles: 4.0,
        idiv_cycles: 18.0,
        cmp_cycles: 1.0,
        logical_cycles: 1.0,
        loop_iter_cycles: 2.5,
        loop_setup_cycles: 8.0,
        branch_cycles: 2.0,
        call_cycles: 15.0,
        index_cycles: 1.0,
    };
    let mem = MemoryComponent {
        icache_bytes: 32 * 1024,
        dcache_bytes: 64 * 1024,
        main_bytes: 64 * 1024 * 1024,
        cache_line_bytes: 64,
        hit_cycles: 1.0,
        miss_penalty_cycles: 18.0,
        clock_mhz: 66.0,
    };
    let comm = CommComponent {
        short_latency_s: 40e-6,
        long_latency_s: 60e-6,
        short_threshold: 512,
        per_byte_s: 0.03e-6,
        per_hop_s: 0.5e-6,
        pack_per_byte_s: 0.04e-6,
        sync_overhead_s: 15e-6,
    };
    let io = IoComponent {
        load_bandwidth_bps: 4096.0 * 1024.0,
        load_latency_s: 0.5,
        transfer_bandwidth_bps: 2048.0 * 1024.0,
        // SP-2-class Vesta/PIOFS: dedicated server nodes on the switch,
        // 32 KB stripe units.
        io_servers: 4,
        stripe_bytes: 32 * 1024,
        disk_latency_s: 12e-3,
        disk_bandwidth_bps: 6.0 * 1024.0 * 1024.0,
        server_overhead_s: 0.25e-3,
    };
    assemble(
        format!("fat-tree cluster ({nodes} nodes)"),
        "multistage switch",
        "cluster node",
        nodes,
        proc_,
        mem,
        comm,
        io,
        TopologyDesc::FatTree { radix: 4 },
    )
}

/// An idealized modern multicore node: GHz-class cores over a
/// full-crossbar on-chip fabric where only the receiver port contends.
fn multicore(nodes: usize) -> machine::MachineModel {
    let proc_ = ProcessingComponent {
        clock_mhz: 3000.0,
        fadd_cycles: 1.0,
        fmul_cycles: 1.0,
        fdiv_cycles: 14.0,
        ftrans_cycles: 40.0,
        int_cycles: 0.5,
        imul_cycles: 3.0,
        idiv_cycles: 20.0,
        cmp_cycles: 0.5,
        logical_cycles: 0.5,
        loop_iter_cycles: 1.0,
        loop_setup_cycles: 4.0,
        branch_cycles: 1.0,
        call_cycles: 8.0,
        index_cycles: 0.5,
    };
    let mem = MemoryComponent {
        icache_bytes: 32 * 1024,
        dcache_bytes: 512 * 1024,
        main_bytes: 8 * 1024 * 1024 * 1024,
        cache_line_bytes: 64,
        hit_cycles: 1.0,
        miss_penalty_cycles: 60.0,
        clock_mhz: 3000.0,
    };
    let comm = CommComponent {
        short_latency_s: 0.5e-6,
        long_latency_s: 0.8e-6,
        short_threshold: 4096,
        per_byte_s: 0.1e-9,
        per_hop_s: 0.0,
        pack_per_byte_s: 0.02e-9,
        sync_overhead_s: 1e-6,
    };
    let io = IoComponent {
        load_bandwidth_bps: 512.0 * 1024.0 * 1024.0,
        load_latency_s: 0.01,
        transfer_bandwidth_bps: 256.0 * 1024.0 * 1024.0,
        // Single shared SSD-class device: one logical server, large
        // stripe unit, negligible seek cost relative to the other
        // backends.
        io_servers: 1,
        stripe_bytes: 1024 * 1024,
        disk_latency_s: 0.1e-3,
        disk_bandwidth_bps: 512.0 * 1024.0 * 1024.0,
        server_overhead_s: 0.02e-3,
    };
    assemble(
        format!("multicore node ({nodes} cores)"),
        "on-chip crossbar",
        "core",
        nodes,
        proc_,
        mem,
        comm,
        io,
        TopologyDesc::Crossbar,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::build_topology;
    use machine::FaultPlan;

    #[test]
    fn registry_lists_four_backends_ipsc_first() {
        let names = machine_names();
        assert_eq!(names, vec!["ipsc860", "torus3d", "fattree", "multicore"]);
        assert_eq!(names[0], DEFAULT_MACHINE);
    }

    #[test]
    fn unknown_machine_lists_alternatives() {
        let err = machine("cm5").expect_err("cm5 is not registered");
        match err {
            TopologyError::UnknownMachine { name, available } => {
                assert_eq!(name, "cm5");
                assert_eq!(available, machine_names());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ipsc_backend_is_the_reference_machine_verbatim() {
        let via_registry = machine("ipsc860").unwrap().params(8).unwrap();
        let direct = machine::ipsc860(8);
        assert_eq!(format!("{via_registry:?}"), format!("{direct:?}"));
    }

    #[test]
    fn node_range_is_enforced_as_typed_error() {
        let err = machine("multicore").unwrap().params(4096).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidNodes { .. }));
        let err = machine("ipsc860").unwrap().params(0).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidNodes { .. }));
    }

    #[test]
    fn every_backend_builds_params_and_topology_at_eight_nodes() {
        for backend in registry() {
            let params = backend.params(8).unwrap();
            assert_eq!(params.nodes, 8);
            let topo = build_topology(&params.topology, 8).unwrap();
            assert_eq!(topo.nodes(), 8);
            assert!(topo.link_slots() > 0);
        }
    }

    #[test]
    fn balanced_dims_are_ascending_and_multiply_out() {
        for n in 1..=64usize {
            let dims = balanced_dims3(n);
            assert_eq!(dims.len(), 3);
            assert_eq!(dims.iter().product::<usize>(), n);
            assert!(dims[0] <= dims[1] && dims[1] <= dims[2]);
        }
        assert_eq!(balanced_dims3(8), vec![2, 2, 2]);
        assert_eq!(balanced_dims3(64), vec![4, 4, 4]);
        assert_eq!(balanced_dims3(12), vec![2, 2, 3]);
    }

    #[test]
    fn degrade_hook_rescales_without_panicking() {
        let backend = machine("torus3d").unwrap();
        let params = backend.params(8).unwrap();
        let plan = FaultPlan::lossy(0.05);
        let degraded = params.degrade(&plan);
        assert!(degraded.comm.short_latency_s > params.comm.short_latency_s);
    }
}

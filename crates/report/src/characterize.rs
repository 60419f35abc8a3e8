//! The off-line system characterization (§4.4) as text: the SAG outline,
//! the processing/memory/comm/I/O parameters, and the fitted
//! collective-library models produced by the benchmarking runs. `bin/characterize`
//! prints these renderers.

use machine::{CollectiveOp, MachineModel, OpClass};
use std::fmt::Write as _;

/// One line per registered backend: name, interconnect, supported node
/// range, and where its SAU parameter tables come from
/// (`characterize --list-machines`).
pub fn machines_text() -> String {
    let mut out = String::from("Registered machines (hpf-machines registry):\n");
    let _ = writeln!(
        out,
        "  {:<12} {:<10} {:<12} calibration provenance",
        "name", "topology", "nodes"
    );
    for backend in hpf_machines::registry() {
        let (lo, hi) = backend.node_range;
        let calibrated =
            crate::pipeline::calibrated_machine_for(backend.name, 8usize.clamp(lo, hi))
                .expect("a node count inside the backend's range");
        let _ = writeln!(
            out,
            "  {:<12} {:<10} {:<12} {}",
            backend.name,
            calibrated.topology.label(),
            format!("{lo}..{hi}"),
            backend.provenance
        );
        let _ = writeln!(out, "               {}", backend.description);
        // Whether the calibration pass fits a striped-I/O table for this
        // backend, or predictions fall back to the default closed form.
        let io_note = match &calibrated.calibration {
            Some(cal) if !cal.io.is_empty() => "fitted (calibration pass)",
            _ => "default (closed form)",
        };
        let _ = writeln!(out, "               i/o table: {io_note}");
    }
    out
}

/// The characterization of calibrated machine `m`, with its collective
/// models at every power of two up to `nodes` (`characterize [nodes]`).
pub fn characterize_text(m: &MachineModel, nodes: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "System characterization: {}", m.name);
    let _ = writeln!(out, "\n== System Abstraction Graph ==");
    let _ = writeln!(out, "{}", m.sag.outline());

    let p = &m.node_processing;
    let _ = writeln!(out, "== Processing component (node) ==");
    let _ = writeln!(out, "  clock             : {} MHz", p.clock_mhz);
    for (label, op) in [
        ("FP add/sub", OpClass::FAdd),
        ("FP multiply", OpClass::FMul),
        ("FP divide", OpClass::FDiv),
        ("transcendental", OpClass::FTranscendental),
        ("integer ALU", OpClass::IntOp),
        ("compare", OpClass::Compare),
        ("loop iteration", OpClass::LoopIter),
        ("loop setup", OpClass::LoopSetup),
        ("branch", OpClass::Branch),
        ("call linkage", OpClass::Call),
        ("index calc", OpClass::Index),
    ] {
        let _ = writeln!(out, "  {label:<18}: {:8.1} ns", p.op_time(op) * 1e9);
    }

    let mem = &m.node_memory;
    let _ = writeln!(out, "\n== Memory component (node) ==");
    let _ = writeln!(
        out,
        "  I-cache {} KB, D-cache {} KB, DRAM {} MB, {}B lines",
        mem.icache_bytes / 1024,
        mem.dcache_bytes / 1024,
        mem.main_bytes / 1024 / 1024,
        mem.cache_line_bytes
    );
    let _ = writeln!(
        out,
        "  hit {:.0} ns, miss {:.0} ns",
        mem.access_time(1.0) * 1e9,
        mem.access_time(0.0) * 1e9
    );
    let _ = writeln!(
        out,
        "  hit-ratio model: ws=4KB/unit-stride {:.3}, ws=1MB/unit-stride {:.3}, ws=1MB/strided {:.3}",
        mem.hit_ratio(4096, 4, 1.0),
        mem.hit_ratio(1 << 20, 4, 1.0),
        mem.hit_ratio(1 << 20, 4, 0.1)
    );

    let _ = writeln!(out, "\n== Communication component ==");
    let _ = writeln!(
        out,
        "  short latency {:.0} µs (≤{}B), long latency {:.0} µs, {:.2} µs/KB, {:.1} µs/hop",
        m.comm.short_latency_s * 1e6,
        m.comm.short_threshold,
        m.comm.long_latency_s * 1e6,
        m.comm.per_byte_s * 1e6 * 1024.0,
        m.comm.per_hop_s * 1e6
    );

    let _ = writeln!(out, "\n== I/O component (striped servers + SRM host) ==");
    let _ = writeln!(
        out,
        "  servers: {} (default), stripe unit {} KB",
        m.io.io_servers,
        m.io.stripe_bytes / 1024
    );
    let _ = writeln!(
        out,
        "  disk: {:.2} ms latency, {:.2} MB/s stream, {:.3} ms/req server overhead",
        m.io.disk_latency_s * 1e3,
        m.io.disk_bandwidth_bps / (1024.0 * 1024.0),
        m.io.server_overhead_s * 1e3
    );
    let _ = writeln!(
        out,
        "  load: {:.1} s latency + {:.0} KB/s; transfer {:.0} KB/s",
        m.io.load_latency_s,
        m.io.load_bandwidth_bps / 1024.0,
        m.io.transfer_bandwidth_bps / 1024.0
    );

    let Some(cal) = &m.calibration else {
        return out;
    };
    let _ = writeln!(out, "\n== Fitted characterization (benchmarking runs) ==");
    let _ = writeln!(
        out,
        "  compute scale: {:.4} (measured / instruction-counted)",
        cal.compute_scale
    );
    let _ = writeln!(out, "\n  collective library (α + β·m, per regime):");
    let _ = writeln!(
        out,
        "  {:<12} {:>4}  {:>12} {:>12}   {:>12} {:>12}",
        "op", "p", "α_small(µs)", "β_s(ns/B)", "α_large(µs)", "β_l(ns/B)"
    );
    let ops = [
        ("shift", CollectiveOp::Shift),
        ("reduce", CollectiveOp::Reduce),
        ("maxloc", CollectiveOp::ReduceLoc),
        ("broadcast", CollectiveOp::Broadcast),
        ("all-to-all", CollectiveOp::AllToAll),
        ("gather", CollectiveOp::Gather),
        ("barrier", CollectiveOp::Barrier),
    ];
    let mut p2 = 2usize;
    while p2 <= nodes.max(2) {
        for (name, op) in ops {
            if let Some(pc) = cal.comm.get(&machine::Calibration::key(op, p2)) {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>4}  {:>12.1} {:>12.2}   {:>12.1} {:>12.2}",
                    name,
                    p2,
                    pc.small.alpha_s * 1e6,
                    pc.small.beta_s_per_byte * 1e9,
                    pc.large.alpha_s * 1e6,
                    pc.large.beta_s_per_byte * 1e9
                );
            }
        }
        if p2 >= nodes {
            break;
        }
        p2 *= 2;
    }

    if !cal.io.is_empty() {
        let _ = writeln!(
            out,
            "\n  striped i/o (α + β·bytes, per regime; fitted at stripe factor 1):"
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>4}  {:>12} {:>12}   {:>12} {:>12}",
            "servers", "p", "α_small(µs)", "β_s(ns/B)", "α_large(µs)", "β_l(ns/B)"
        );
        for (&(s_log2, p_log2), pc) in &cal.io {
            let _ = writeln!(
                out,
                "  {:<8} {:>4}  {:>12.1} {:>12.2}   {:>12.1} {:>12.2}",
                1usize << s_log2,
                1usize << p_log2,
                pc.small.alpha_s * 1e6,
                pc.small.beta_s_per_byte * 1e9,
                pc.large.alpha_s * 1e6,
                pc.large.beta_s_per_byte * 1e9
            );
        }
    }
    out
}

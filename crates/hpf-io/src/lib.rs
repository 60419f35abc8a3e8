//! # hpf-io — the parallel I/O subsystem model
//!
//! The paper's SAU parameter set includes an I/O component (§3.1), but the
//! original interpretation pipeline never priced an I/O phase: no AAU kind,
//! no kernel, no validation path exercised it. Following the ViPIOS design
//! (dedicated I/O server processes, stripe/data-locality mapping, two-phase
//! access), this crate makes parallel I/O a first-class cost dimension:
//!
//! * [`IoPhase`] — the array-section descriptor an I/O AAU carries
//!   (READ/WRITE/CHECKPOINT, total and per-node bytes, stripe factor,
//!   I/O-server count);
//! * [`phase_cost`] — the analytic striped-server cost model (per-server
//!   FIFO disk queues, stripe contention, network serialization at the
//!   server NIC, host↔cube commit channel for checkpoints), driven entirely
//!   by the machine's [`IoComponent`];
//! * [`phase_time_on`] — the calibrated entry point: uses the fitted
//!   per-(servers, participants) `α + β·m` model from the machine's
//!   [`machine::Calibration`] when an I/O characterization pass has run,
//!   falling back to the closed form;
//! * [`CheckpointSchedule`] — checkpoint/restart arithmetic that composes
//!   with the PR-1 `FaultPlan` experiments (run to failure, restart from the
//!   last checkpoint, re-execute lost work);
//! * [`IoError`] — typed validation errors (bad stripe factor, more servers
//!   than nodes, checkpoint of an unpartitioned array), surfaced as
//!   pipeline-stage `io` diagnostics rather than panics.
//!
//! Everything here is deterministic pure arithmetic: the DES in `ipsc-sim`
//! implements the same subsystem event-by-event, and the Table-2 style
//! accuracy comparison between the two is what `artifacts_io_accuracy.txt`
//! pins.

use machine::{CommComponent, IoComponent, MachineModel};
use serde::{Deserialize, Serialize};

/// Which I/O operation a phase performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Read array sections from the striped file into distributed memory.
    Read,
    /// Write distributed array sections to the striped file.
    Write,
    /// Write a consistent snapshot plus a host-committed record, for
    /// restart.
    Checkpoint,
}

impl IoKind {
    pub fn label(&self) -> &'static str {
        match self {
            IoKind::Read => "read",
            IoKind::Write => "write",
            IoKind::Checkpoint => "checkpoint",
        }
    }
}

/// Program-level I/O configuration resolved at compile time. Zero values
/// mean "machine default": the phase descriptor keeps the zero and the
/// pricing side (interpreter / DES) substitutes the machine's
/// [`IoComponent`] table, so the same compiled program prices correctly on
/// every backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoConfig {
    /// Number of I/O servers to stripe across (0 = machine default).
    pub io_servers: usize,
    /// Stripe-unit multiplier: each striped request moves
    /// `stripe_factor × IoComponent::stripe_bytes` (0 = default of 1).
    pub stripe_factor: usize,
}

/// Largest stripe factor the subsystem accepts; beyond this a "stripe" is
/// just the whole file on one server and the knob is a footgun.
pub const MAX_STRIPE_FACTOR: usize = 4096;

impl IoConfig {
    /// Validate against the compiled node count. Returns the resolved
    /// `(io_servers, stripe_factor)` pair to embed in phase descriptors
    /// (`io_servers` may stay 0 = machine default).
    pub fn resolve(&self, nodes: usize) -> Result<(usize, usize), IoError> {
        if self.io_servers > nodes {
            return Err(IoError::ServersExceedNodes {
                servers: self.io_servers,
                nodes,
            });
        }
        let stripe = if self.stripe_factor == 0 {
            1
        } else {
            self.stripe_factor
        };
        if stripe > MAX_STRIPE_FACTOR {
            return Err(IoError::BadStripeFactor { got: stripe });
        }
        Ok((self.io_servers, stripe))
    }
}

/// The array-section descriptor an I/O AAU carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoPhase {
    pub kind: IoKind,
    /// Names of the arrays moved (checkpoints may snapshot several).
    pub arrays: Vec<String>,
    /// Total bytes across all participating nodes.
    pub total_bytes: u64,
    /// Worst-case bytes held by one compute node (its array section).
    pub bytes_per_node: u64,
    /// Compute nodes participating in the phase.
    pub participants: usize,
    /// I/O servers striped across (0 = machine default at pricing time).
    pub servers: usize,
    /// Stripe-unit multiplier (≥ 1).
    pub stripe_factor: usize,
}

impl IoPhase {
    /// Effective server count on `m`: an explicit compile-time count wins,
    /// otherwise the machine's table, clamped to the node count.
    pub fn resolved_servers(&self, io: &IoComponent, nodes: usize) -> usize {
        let s = if self.servers == 0 {
            io.io_servers
        } else {
            self.servers
        };
        s.clamp(1, nodes.max(1))
    }

    /// Short outline label, e.g. `read U 512KB srv=2 sf=1`.
    pub fn outline(&self) -> String {
        let kb = self.total_bytes as f64 / 1024.0;
        let srv = if self.servers == 0 {
            "auto".to_string()
        } else {
            self.servers.to_string()
        };
        format!(
            "{} {} {:.0}KB srv={} sf={}",
            self.kind.label(),
            self.arrays.join(","),
            kb,
            srv,
            self.stripe_factor
        )
    }
}

/// Typed validation errors of the I/O subsystem. These map to the pipeline
/// stage `io`: structured 400s from the service, spanned diagnostics from
/// the CLIs, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Stripe factor outside `1..=MAX_STRIPE_FACTOR`.
    BadStripeFactor { got: usize },
    /// More I/O servers requested than compute nodes exist.
    ServersExceedNodes { servers: usize, nodes: usize },
    /// READ/WRITE/CHECKPOINT of an array with no distribution: a replicated
    /// (unpartitioned) array has no owner sections to stripe.
    UnpartitionedArray { array: String },
    /// The statement names an array the program never declared.
    UnknownArray { array: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadStripeFactor { got } => write!(
                f,
                "bad stripe factor {got}: must be between 1 and {MAX_STRIPE_FACTOR}"
            ),
            IoError::ServersExceedNodes { servers, nodes } => write!(
                f,
                "{servers} I/O servers requested but only {nodes} nodes are configured"
            ),
            IoError::UnpartitionedArray { array } => write!(
                f,
                "array {array} is replicated (unpartitioned): parallel I/O needs a distributed array"
            ),
            IoError::UnknownArray { array } => {
                write!(f, "I/O statement names undeclared array {array}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Decomposed analytic cost of one I/O phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCost {
    /// First-block latency before the disk/network pipeline fills.
    pub startup_s: f64,
    /// FIFO disk-queue busy time at the worst server.
    pub disk_s: f64,
    /// Network serialization at the worst server's NIC (striped block
    /// transfers over the routed network).
    pub network_s: f64,
    /// Compute-side packing plus checkpoint commit traffic on the
    /// host↔cube channel.
    pub overhead_s: f64,
}

impl IoCost {
    /// Phase wall time under the pipelined server model: block transfers
    /// and disk service overlap, so the slower resource gates, after the
    /// first block lands and before commit overheads.
    pub fn total(&self) -> f64 {
        self.startup_s + self.disk_s.max(self.network_s) + self.overhead_s
    }
}

/// Bytes of the host-committed checkpoint record, per array.
const COMMIT_RECORD_BYTES: u64 = 256;

/// Host↔cube commit cost of a checkpoint phase: the per-array commit record
/// serialized through the host channel plus the durability barrier. Shared
/// by the closed form, the calibrated path, and the DES so all three charge
/// the identical commit term.
pub fn checkpoint_commit_s(io: &IoComponent, comm: &CommComponent, phase: &IoPhase) -> f64 {
    let commit = COMMIT_RECORD_BYTES * phase.arrays.len().max(1) as u64;
    io.host_channel_time(commit) + comm.sync_overhead_s * phase.participants.max(1) as f64
}

/// Closed-form striped-server cost of `phase` on a machine with `nodes`
/// compute nodes, the given I/O subsystem, and the given network component.
///
/// Model: the file is striped round-robin over `S` servers in units of
/// `stripe_bytes × stripe_factor`. The worst server owns
/// `ceil(total/S)` bytes arriving (or leaving) as whole striped blocks,
/// each a routed message paying the α–β network cost serialized at the
/// server NIC, then a FIFO disk queue charging per-request latency plus
/// streaming bandwidth. Compute nodes pay software packing for their local
/// sections in parallel; checkpoints additionally serialize a commit record
/// per array over the host↔cube channel and resynchronize.
pub fn phase_cost(phase: &IoPhase, io: &IoComponent, comm: &CommComponent, nodes: usize) -> IoCost {
    let servers = phase.resolved_servers(io, nodes) as u64;
    let block = (io.stripe_bytes * phase.stripe_factor as u64).max(1);
    let server_bytes = phase.total_bytes.div_ceil(servers.max(1));
    let server_blocks = server_bytes.div_ceil(block).max(1);
    let last_block = server_bytes - (server_blocks - 1) * block.min(server_bytes);

    // Average routed distance between a compute node and its server on the
    // machine-independent closed form: half the log₂ diameter. The fitted
    // calibration absorbs each backend's real routing.
    let hops = ((nodes.max(2) as f64).log2() / 2.0).max(1.0);

    // One startup per block, serialized at the server side.
    let full_blocks = server_blocks - 1;
    let startup_of = |bytes: u64| {
        let lat = if bytes <= comm.short_threshold {
            comm.short_latency_s
        } else {
            comm.long_latency_s
        };
        lat + hops * comm.per_hop_s
    };
    let network_s = full_blocks as f64 * startup_of(block)
        + startup_of(last_block.max(1))
        + server_bytes as f64 * comm.per_byte_s;

    let disk_s = io.disk_service_time(server_blocks, server_bytes);

    // Pipeline fill: the first block must cross the network before any disk
    // service can start (reads mirror this: first disk request before any
    // transfer).
    let startup_s = startup_of(block.min(server_bytes.max(1)))
        + block.min(server_bytes) as f64 * comm.per_byte_s;

    // Compute-side packing runs in parallel across nodes.
    let mut overhead_s = comm.pack_time(phase.bytes_per_node);
    if phase.kind == IoKind::Checkpoint {
        // Two-phase commit of the checkpoint record through the host, plus
        // a barrier so every node agrees the snapshot is durable.
        overhead_s += checkpoint_commit_s(io, comm, phase);
    }

    IoCost {
        startup_s,
        disk_s,
        network_s,
        overhead_s,
    }
}

/// Calibrated phase time on a full machine model: the fitted
/// per-(servers, participants) piecewise model when an I/O characterization
/// pass has run, otherwise the closed form. Checkpoint commit overhead is
/// not byte-linear, so it is priced analytically on top of the fitted
/// transfer model either way.
pub fn phase_time_on(m: &MachineModel, phase: &IoPhase) -> f64 {
    let servers = phase.resolved_servers(&m.io, m.nodes);
    let commit_s = if phase.kind == IoKind::Checkpoint {
        checkpoint_commit_s(&m.io, &m.comm, phase)
    } else {
        0.0
    };
    // The characterization pass probes at stripe factor 1, so the fitted
    // model only applies there; tuned stripe factors fall through to the
    // closed form, which tracks them.
    if phase.stripe_factor <= 1 {
        if let Some(cal) = &m.calibration {
            if let Some(t) = cal.io_time(servers, phase.participants, phase.total_bytes) {
                return t + commit_s;
            }
        }
    }
    let mut cost = phase_cost(phase, &m.io, &m.comm, m.nodes);
    if phase.kind == IoKind::Checkpoint {
        // `phase_cost` already charged the commit; avoid double counting by
        // reporting the transfer part plus one commit.
        cost.overhead_s -= commit_s;
    }
    cost.total() + commit_s
}

/// Checkpoint/restart schedule arithmetic. All quantities are seconds of
/// the *same* clock (predicted or simulated — the caller supplies
/// consistently measured inputs, the schedule only does the bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSchedule {
    /// Total useful work in the run.
    pub work_s: f64,
    /// Work executed between consecutive checkpoints.
    pub interval_s: f64,
    /// Cost of taking one checkpoint.
    pub checkpoint_s: f64,
    /// Cost of reading the last checkpoint back on restart.
    pub restart_s: f64,
}

impl CheckpointSchedule {
    /// Checkpoints taken in a failure-free run (none after the final work).
    pub fn checkpoints(&self) -> usize {
        if self.interval_s <= 0.0 || self.work_s <= 0.0 {
            return 0;
        }
        let n = (self.work_s / self.interval_s).ceil() as usize;
        n.saturating_sub(1)
    }

    /// Failure-free completion time: work plus checkpoint overhead.
    pub fn healthy_run_s(&self) -> f64 {
        self.work_s + self.checkpoints() as f64 * self.checkpoint_s
    }

    /// Completion time when one node fails after `fail_at_work_s` seconds
    /// of useful work: run to the failure, restart from the last durable
    /// checkpoint, re-execute the lost work, finish.
    pub fn run_with_failure_s(&self, fail_at_work_s: f64) -> f64 {
        let fail_at = fail_at_work_s.clamp(0.0, self.work_s);
        let interval = if self.interval_s > 0.0 {
            self.interval_s
        } else {
            return self.work_s + self.restart_s + fail_at; // no checkpoints: full rerun
        };
        let completed = (fail_at / interval).floor() * interval;
        let ckpts_before = (fail_at / interval).floor();
        let rework = fail_at - completed;
        // wall to failure + restart read + rework + remaining schedule
        fail_at
            + ckpts_before * self.checkpoint_s
            + self.restart_s
            + rework
            + (self.work_s - completed - rework)
            + (self.checkpoints() as f64 - ckpts_before).max(0.0) * self.checkpoint_s
    }

    /// Expected extra time a single failure costs, with the failure point
    /// uniform over the run: the restart read plus half an interval of lost
    /// work. Strictly monotone in `interval_s` — the property the
    /// FaultPlan × checkpoint composition test pins.
    pub fn expected_recovery_s(&self) -> f64 {
        if self.interval_s <= 0.0 {
            return self.restart_s + self.work_s / 2.0;
        }
        self.restart_s + self.interval_s.min(self.work_s) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::ipsc860;

    fn phase(kind: IoKind, total: u64, nodes: usize) -> IoPhase {
        IoPhase {
            kind,
            arrays: vec!["U".into()],
            total_bytes: total,
            bytes_per_node: total / nodes as u64,
            participants: nodes,
            servers: 0,
            stripe_factor: 1,
        }
    }

    #[test]
    fn config_resolution_validates() {
        assert_eq!(IoConfig::default().resolve(8).unwrap(), (0, 1));
        assert_eq!(
            IoConfig {
                io_servers: 4,
                stripe_factor: 8
            }
            .resolve(8)
            .unwrap(),
            (4, 8)
        );
        assert!(matches!(
            IoConfig {
                io_servers: 16,
                stripe_factor: 1
            }
            .resolve(8),
            Err(IoError::ServersExceedNodes {
                servers: 16,
                nodes: 8
            })
        ));
        assert!(matches!(
            IoConfig {
                io_servers: 0,
                stripe_factor: 1 << 20
            }
            .resolve(8),
            Err(IoError::BadStripeFactor { .. })
        ));
    }

    #[test]
    fn cost_scales_with_bytes_and_servers() {
        let m = ipsc860(8);
        let small = phase_cost(&phase(IoKind::Write, 64 * 1024, 8), &m.io, &m.comm, 8).total();
        let big = phase_cost(&phase(IoKind::Write, 1024 * 1024, 8), &m.io, &m.comm, 8).total();
        assert!(big > 2.0 * small, "{big} vs {small}");

        let mut wide = phase(IoKind::Write, 1024 * 1024, 8);
        wide.servers = 8;
        let t_wide = phase_cost(&wide, &m.io, &m.comm, 8).total();
        let mut narrow = phase(IoKind::Write, 1024 * 1024, 8);
        narrow.servers = 1;
        let t_narrow = phase_cost(&narrow, &m.io, &m.comm, 8).total();
        assert!(
            t_wide < t_narrow,
            "more servers must be faster: {t_wide} vs {t_narrow}"
        );
    }

    #[test]
    fn larger_stripes_amortize_latency() {
        let m = ipsc860(8);
        let mut fine = phase(IoKind::Read, 1024 * 1024, 8);
        fine.stripe_factor = 1;
        let mut coarse = phase(IoKind::Read, 1024 * 1024, 8);
        coarse.stripe_factor = 16;
        let t_fine = phase_cost(&fine, &m.io, &m.comm, 8).total();
        let t_coarse = phase_cost(&coarse, &m.io, &m.comm, 8).total();
        assert!(t_coarse < t_fine, "{t_coarse} vs {t_fine}");
    }

    #[test]
    fn checkpoint_costs_more_than_write() {
        let m = ipsc860(8);
        let w = phase_cost(&phase(IoKind::Write, 256 * 1024, 8), &m.io, &m.comm, 8).total();
        let c = phase_cost(&phase(IoKind::Checkpoint, 256 * 1024, 8), &m.io, &m.comm, 8).total();
        assert!(c > w);
    }

    #[test]
    fn phase_time_on_uses_closed_form_without_calibration() {
        let m = ipsc860(8);
        let p = phase(IoKind::Write, 256 * 1024, 8);
        let t = phase_time_on(&m, &p);
        let cost = phase_cost(&p, &m.io, &m.comm, 8);
        assert!((t - cost.total()).abs() < 1e-12);
    }

    #[test]
    fn schedule_arithmetic() {
        let s = CheckpointSchedule {
            work_s: 10.0,
            interval_s: 2.0,
            checkpoint_s: 0.5,
            restart_s: 0.25,
        };
        assert_eq!(s.checkpoints(), 4);
        assert!((s.healthy_run_s() - 12.0).abs() < 1e-12);
        // failure at 5 s of work: 2 ckpts behind us, 1 s of rework
        let t = s.run_with_failure_s(5.0);
        assert!(t > s.healthy_run_s(), "failure must cost time: {t}");
        assert!((t - (s.healthy_run_s() + 0.25 + 1.0)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn expected_recovery_monotone_in_interval() {
        let mut prev = 0.0;
        for interval in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let s = CheckpointSchedule {
                work_s: 10.0,
                interval_s: interval,
                checkpoint_s: 0.5,
                restart_s: 0.25,
            };
            let r = s.expected_recovery_s();
            assert!(r >= prev, "recovery must grow with interval: {r} < {prev}");
            prev = r;
        }
    }
}

//! The discrete-event iPSC/860 simulator — this reproduction's stand-in for
//! the real machine (the paper's "measured" times, §5.1: averages of 1000
//! runs whose variance comes from timing-routine tolerance and system-load
//! fluctuations).
//!
//! Where the *predictor* uses static heuristics, the simulator uses the
//! functional interpreter's execution profile (actual loop trips, actual
//! mask densities) and a finer cost model (compiled-code distortion factors,
//! conflict misses, network contention, per-phase load jitter). The gap
//! between the two is therefore an honest prediction error, not a tuned
//! constant.

use crate::network::{patterns, simulate_phase, FaultStats, Message};
use crate::trace::{Activity, Record};
use hpf_compiler::{CommPhase, CompPhase, OpCounts, SeqBlock, SpmdNode, SpmdProgram};
use hpf_eval::ExecutionProfile;
use hpf_machines::topology::HypercubeTopo;
use hpf_machines::{Topology, TopologyError};
use machine::{
    CollectiveOp, CommComponent, FaultPlan, Hypercube, MachineModel, OpClass, TopologyDesc,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of runs to average (the paper uses 1000).
    pub runs: usize,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// System-load fluctuation: multiplicative noise stdev per phase.
    pub load_jitter: f64,
    /// Timing-routine tolerance: absolute noise on each run's total, secs.
    pub timer_tolerance: f64,
    /// Injected faults. `FaultPlan::none()` (the default) keeps every walk
    /// on the original healthy code path, bit-identical to a fault-free
    /// build; fault draws use their own RNG stream derived from
    /// `faults.seed`, so the jitter/timer streams are never perturbed.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            runs: 1000,
            seed: 0x5C94,
            load_jitter: 0.015,
            timer_tolerance: 20e-6,
            faults: FaultPlan::none(),
        }
    }
}

/// Result of a simulation: statistics over runs plus the mean breakdown.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
    pub runs: usize,
    /// Mean decomposition (jitter-free base).
    pub comp: f64,
    pub comm: f64,
    pub overhead: f64,
    /// Parallel-I/O phase time (striped server transfers; zero for
    /// programs without I/O statements).
    pub io: f64,
    /// Fault events accumulated over every run (all zero when the config's
    /// fault plan is empty).
    pub fault_stats: FaultStats,
}

impl SimResult {
    /// Mean execution time in seconds (the "measured time").
    pub fn measured(&self) -> f64 {
        self.mean
    }
}

/// The machine simulator.
#[derive(Debug, Clone)]
pub struct Simulator<'m> {
    pub machine: &'m MachineModel,
    pub config: SimConfig,
}

/// Distortion of the real compiled code relative to the static
/// characterization: the compiler's actual instruction selection, pipeline
/// stalls, and library code paths deviate from counted costs by a few
/// percent in op-class-dependent directions.
#[derive(Debug, Clone, Copy)]
struct Distortion {
    fp: f64,
    int: f64,
    mem: f64,
    loop_ovh: f64,
    comm_sw: f64,
    mask_branch: f64,
}

const DISTORTION: Distortion = Distortion {
    fp: 1.06,
    int: 1.10,
    mem: 1.12,
    loop_ovh: 1.18,
    comm_sw: 1.08,
    mask_branch: 1.35,
};

impl<'m> Simulator<'m> {
    pub fn new(machine: &'m MachineModel) -> Self {
        Simulator {
            machine,
            config: SimConfig::default(),
        }
    }

    pub fn with_config(machine: &'m MachineModel, config: SimConfig) -> Self {
        Simulator { machine, config }
    }

    /// Simulate the SPMD program. `profile` supplies actual dynamic behaviour
    /// (from the functional interpreter); without it the simulator falls
    /// back to the same static hints the predictor uses.
    pub fn simulate(&self, spmd: &SpmdProgram, profile: Option<&ExecutionProfile>) -> SimResult {
        self.simulate_recording(spmd, profile, ())
    }

    /// [`Simulator::simulate`], with the jitter-free base pass recording
    /// its per-node intervals into `rec`. The timed runs record nothing.
    pub(crate) fn simulate_recording(
        &self,
        spmd: &SpmdProgram,
        profile: Option<&ExecutionProfile>,
        rec: impl Record,
    ) -> SimResult {
        let _span = hpf_trace::span("simulate");
        let plan = &self.config.faults;
        let faults_active = !plan.is_zero();

        // A slow node gates every synchronized SPMD phase, so walks compute
        // against a clock-degraded copy of the machine (communication
        // faults are injected at the network level instead).
        let machine_slow;
        let machine: &MachineModel = {
            let slow = plan.max_slowdown();
            if slow > 1.0 {
                let mut m = self.machine.clone();
                m.node_processing.clock_mhz /= slow;
                m.node_memory.clock_mhz /= slow;
                machine_slow = m;
                &machine_slow
            } else {
                self.machine
            }
        };

        // Base comm-phase durations are deterministic for a fixed machine,
        // so the memo table persists across every walk of this simulation
        // (each run re-draws only the jitter applied on top). Unused while
        // faults are active — each walk then re-simulates its phases.
        let mut comm_cache: HashMap<(u8, u64, usize), f64> = HashMap::new();

        // Jitter-free base pass for the breakdown.
        let mut base = Walk::new(
            self,
            machine,
            profile,
            None,
            faults_active.then(|| FaultSession::new(plan, 0)),
            &mut comm_cache,
            rec,
        );
        let base_total = base.run(&spmd.body);
        let (comp, comm, overhead, io) = (base.comp, base.comm, base.overhead, base.io);
        let base_events = base.events;
        let mut fault_stats = base.faults.take().map(|s| s.stats).unwrap_or_default();

        let mut totals = Vec::with_capacity(self.config.runs);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        for _ in 0..self.config.runs {
            // Per-run load factor plus per-phase jitter inside the walk.
            // The fault stream is drawn after the jitter seed so that a
            // zero-fault config consumes the RNG exactly as before.
            let jitter_rng = StdRng::seed_from_u64(rng.gen());
            let session = faults_active.then(|| FaultSession::new(plan, rng.gen()));
            let mut w = Walk::new(
                self,
                machine,
                profile,
                Some(jitter_rng),
                session,
                &mut comm_cache,
                (),
            );
            let t = w.run(&spmd.body);
            if let Some(s) = w.faults.take() {
                fault_stats.absorb(s.stats);
            }
            let timer = rng.gen_range(-1.0..1.0) * self.config.timer_tolerance;
            totals.push((t + timer).max(0.0));
        }
        let n = totals.len().max(1) as f64;
        let mean = totals.iter().sum::<f64>() / n;
        let var = totals.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / n;
        if hpf_trace::enabled() {
            hpf_trace::counter_add("sim.simulations", 1);
            hpf_trace::counter_add("sim.runs", self.config.runs as u64);
            // Every run walks the same phase tree, so the events of the
            // base pass scale to the whole simulation.
            hpf_trace::counter_add("sim.events", base_events * (self.config.runs as u64 + 1));
            hpf_trace::counter_add("sim.fault.retries", fault_stats.retries);
            hpf_trace::counter_add("sim.fault.detours", fault_stats.detours);
            hpf_trace::counter_add("sim.fault.undeliverable", fault_stats.undeliverable);
        }
        SimResult {
            mean: if totals.is_empty() { base_total } else { mean },
            std: var.sqrt(),
            min: totals
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .min(base_total),
            max: totals.iter().copied().fold(0.0, f64::max).max(base_total),
            runs: self.config.runs,
            comp,
            comm,
            overhead,
            io,
            fault_stats,
        }
    }
}

/// Fault-injection state for one walk: the plan, a dedicated RNG stream for
/// loss draws (never shared with the jitter stream), and the accumulated
/// event counts.
pub struct FaultSession<'p> {
    pub plan: &'p FaultPlan,
    pub rng: StdRng,
    pub stats: FaultStats,
}

impl<'p> FaultSession<'p> {
    /// `stream` distinguishes walks (base pass, run 0, run 1, …) so each
    /// replays the same faults for a given (plan.seed, stream) pair.
    pub fn new(plan: &'p FaultPlan, stream: u64) -> Self {
        FaultSession {
            plan,
            rng: StdRng::seed_from_u64(plan.seed ^ stream),
            stats: FaultStats::default(),
        }
    }
}

/// One walk over the phase tree (one simulated run).
struct Walk<'a, 'm, R> {
    sim: &'a Simulator<'m>,
    /// The machine the walk computes against (clock-degraded under a
    /// slow-node fault plan, otherwise `sim.machine`).
    machine: &'a MachineModel,
    profile: Option<&'a ExecutionProfile>,
    rng: Option<StdRng>,
    faults: Option<FaultSession<'a>>,
    comp: f64,
    comm: f64,
    overhead: f64,
    io: f64,
    /// Phase-tree nodes visited (weighted by loop trips) — the walk's
    /// event count, reported to the current trace recorder as `sim.events`.
    events: u64,
    /// Memoized base durations of comm phases keyed by (op, bytes, p),
    /// owned by [`Simulator::simulate`] so the table persists across every
    /// walk of a simulation. Bypassed when faults are active: loss draws
    /// make each phase instance distinct, so caching would freeze the
    /// first draw.
    comm_cache: &'a mut HashMap<(u8, u64, usize), f64>,
    /// Where the per-node intervals go: a timeline in the base pass of a
    /// traced simulation, `()` in every other walk.
    rec: R,
}

impl<'a, 'm, R: Record> Walk<'a, 'm, R> {
    fn new(
        sim: &'a Simulator<'m>,
        machine: &'a MachineModel,
        profile: Option<&'a ExecutionProfile>,
        rng: Option<StdRng>,
        faults: Option<FaultSession<'a>>,
        comm_cache: &'a mut HashMap<(u8, u64, usize), f64>,
        rec: R,
    ) -> Self {
        Walk {
            sim,
            machine,
            profile,
            rng,
            faults,
            comp: 0.0,
            comm: 0.0,
            overhead: 0.0,
            io: 0.0,
            events: 0,
            comm_cache,
            rec,
        }
    }

    fn jitter(&mut self) -> f64 {
        match &mut self.rng {
            None => 1.0,
            Some(r) => {
                let j = self.sim.config.load_jitter;
                // Load can only *add* time: one-sided noise.
                1.0 + r.gen_range(0.0..(2.0 * j).max(1e-12))
            }
        }
    }

    fn run(&mut self, nodes: &[SpmdNode]) -> f64 {
        let mut t = 0.0;
        for n in nodes {
            t += self.node(n);
        }
        t
    }

    /// [`Walk::run`] with the timeline's scale multiplied by `k`: a loop
    /// body's one walk drawn over all its trips, or a branch arm's weighted
    /// by its probability.
    fn run_scaled(&mut self, nodes: &[SpmdNode], k: f64) -> f64 {
        let mut outer = 1.0;
        self.rec.record(|tl| {
            outer = tl.scale;
            tl.scale *= k;
        });
        let t = self.run(nodes);
        self.rec.record(|tl| tl.scale = outer);
        t
    }

    fn node(&mut self, n: &SpmdNode) -> f64 {
        self.events += 1;
        match n {
            SpmdNode::Seq(s) => self.seq(s),
            SpmdNode::Comp(c) => self.comp_phase(c),
            SpmdNode::Comm(c) => self.comm_phase(c),
            SpmdNode::Io { phase, .. } => self.io_phase(phase),
            SpmdNode::Loop {
                var,
                trips,
                body,
                span,
                ..
            } => {
                // Actual trip count from the execution profile when present.
                let trips = match self.profile.and_then(|p| p.get(*span)) {
                    Some(st) if st.executions > 0 && st.iterations > 0 => {
                        (st.iterations as f64 / st.executions as f64).round() as u64
                    }
                    _ => *trips,
                };
                let p = &self.machine.node_processing;
                let mut t = p.op_time(OpClass::LoopSetup) * DISTORTION.loop_ovh;
                // The loop's own setup and per-trip overhead, drawn after
                // its body.
                let mut ovh = t;
                // Walk the body once and scale by the trip count (identical
                // trips absent per-trip profile variation); the breakdown
                // accumulators are scaled by the same factor.
                if trips > 0 {
                    let (c0, m0, o0) = (self.comp, self.comm, self.overhead);
                    let k = trips as f64;
                    let body_t = self.run_scaled(body, k);
                    self.comp = c0 + (self.comp - c0) * k;
                    self.comm = m0 + (self.comm - m0) * k;
                    let per_trip_ovh = p.op_time(OpClass::LoopIter) * DISTORTION.loop_ovh;
                    self.overhead = o0 + (self.overhead - o0) * k + k * per_trip_ovh;
                    ovh += k * per_trip_ovh;
                    t += k * (body_t + per_trip_ovh);
                }
                self.rec
                    .record(|tl| tl.all(ovh, Activity::Busy, &format!("DO {var}")));
                t * self.jitter()
            }
            SpmdNode::Branch {
                arms,
                else_body,
                span,
            } => {
                // Arm probability from the profile where available.
                let taken = self
                    .profile
                    .and_then(|p| p.get(*span))
                    .map(|st| {
                        if st.mask_total == 0 {
                            0.5
                        } else {
                            st.mask_true as f64 / st.mask_total as f64
                        }
                    })
                    .unwrap_or(0.5);
                let pnode = &self.machine.node_processing;
                let mut t = pnode.op_time(OpClass::Branch) * DISTORTION.mask_branch;
                self.rec.record(|tl| tl.all(t, Activity::Busy, "IF"));
                let mut consumed = 0.0f64;
                for (i, (w, body)) in arms.iter().enumerate() {
                    let prob = if i == 0 { taken } else { *w * (1.0 - taken) };
                    consumed += prob;
                    t += prob * self.run_scaled(body, prob);
                }
                let else_p = (1.0 - consumed).max(0.0);
                if !else_body.is_empty() {
                    t += else_p * self.run_scaled(else_body, else_p);
                }
                t
            }
        }
    }

    fn seq(&mut self, s: &SeqBlock) -> f64 {
        let t = self.ops_time(&s.ops, 0.95) * self.jitter();
        self.comp += t;
        self.rec.record(|tl| tl.all(t, Activity::Busy, &s.label));
        t
    }

    fn comp_phase(&mut self, c: &CompPhase) -> f64 {
        let p = &self.machine.node_processing;

        // Ground truth: take actual per-execution iteration counts (and
        // mask outcomes) from the functional-interpreter profile when
        // available; the static counts are the predictor's estimate. The
        // busiest node's share of the true iteration space is approximated
        // by the statically computed ownership fraction.
        let frac = if c.total_iters > 0 {
            c.max_node_iters() as f64 / c.total_iters as f64
        } else {
            1.0
        };
        let stats = self
            .profile
            .and_then(|pr| pr.get(c.span))
            .filter(|st| st.executions > 0);
        // (mask-evaluation iterations, mask-true body iterations) per node.
        let (iters, body_iters) = match stats {
            Some(st) if st.mask_total > 0 => {
                let tuples = st.mask_total as f64 / st.executions as f64;
                let active = st.iterations as f64 / st.executions as f64;
                (tuples * frac, active * frac)
            }
            Some(st) if st.iterations > 0 => {
                let it = st.iterations as f64 / st.executions as f64 * frac;
                (it, it)
            }
            _ => {
                let it = c.max_node_iters() as f64;
                (it, it * c.mask_density_hint.unwrap_or(1.0))
            }
        };
        let density = if iters > 0.0 { body_iters / iters } else { 0.0 };

        // The simulator's cache model: the predictor's streaming model plus
        // conflict misses between the multiple arrays of a stencil (the
        // 8 KB direct-mapped-ish cache thrashes when arrays collide).
        let hit = {
            let base = self
                .sim
                .machine
                .node_memory
                .hit_ratio(c.working_set_bytes, 4, c.locality);
            let conflict = if c.working_set_bytes > self.machine.node_memory.dcache_bytes {
                0.93
            } else {
                0.995
            };
            (base * conflict).clamp(0.0, 1.0)
        };

        let mut per_iter = self.ops_time_hit(&c.per_iter, hit);
        if let Some(body) = &c.masked_ops {
            // Mispredicted/masked branches cost extra on the real pipeline.
            per_iter += density * self.ops_time_hit(body, hit)
                + p.op_time(OpClass::Branch) * (DISTORTION.mask_branch - 1.0);
        }
        let setup = c.loop_depth as f64 * p.op_time(OpClass::LoopSetup) * DISTORTION.loop_ovh;
        let loop_ovh = iters * p.op_time(OpClass::LoopIter) * DISTORTION.loop_ovh + setup;

        let t = (iters * per_iter + loop_ovh) * self.jitter();
        self.comp += iters * per_iter;
        self.overhead += loop_ovh;
        self.rec.record(|tl| tl.comp(c, t, setup));
        t
    }

    fn comm_phase(&mut self, c: &CommPhase) -> f64 {
        let base = if self.faults.is_some() {
            // Loss draws make each phase instance distinct — no memoization.
            collective_base_time_with(
                self.machine,
                c.op,
                c.participants,
                c.bytes_per_node,
                self.faults.as_mut(),
            )
        } else {
            let key = (c.op as u8, c.bytes_per_node, c.participants);
            match self.comm_cache.get(&key) {
                Some(t) => *t,
                None => {
                    let t = self.comm_base(c);
                    self.comm_cache.insert(key, t);
                    t
                }
            }
        };
        // Software packing: strided boundaries pay a miss per element.
        let pack = {
            let comm = &self.machine.comm;
            let sw = comm.pack_time(c.bytes_per_node) * DISTORTION.comm_sw;
            if c.contiguous {
                sw
            } else {
                let elems = c.bytes_per_node as f64 / 4.0;
                sw + 2.0 * elems * self.machine.node_memory.access_time(0.0) * DISTORTION.mem
            }
        };
        let t = (base + pack) * self.jitter();
        self.comm += base;
        self.overhead += pack;
        self.rec.record(|tl| tl.all(t, Activity::Comm, &c.label));
        t
    }

    /// Event-simulated base duration of a communication phase.
    fn comm_base(&self, c: &CommPhase) -> f64 {
        collective_base_time(self.machine, c.op, c.participants, c.bytes_per_node)
    }

    fn io_phase(&mut self, p: &hpf_io::IoPhase) -> f64 {
        // Deterministic for a fixed machine and descriptor (the I/O servers
        // are not subject to network fault injection: the subsystem stays
        // healthy under node/link faults, matching `FaultPlan::degrade`).
        let base = io_base_time(self.machine, p);
        let t = base * self.jitter();
        self.io += base;
        self.rec.record(|tl| tl.all(t, Activity::Io, &p.outline()));
        t
    }

    fn ops_time(&self, ops: &OpCounts, hit: f64) -> f64 {
        self.ops_time_hit(ops, hit)
    }

    fn ops_time_hit(&self, ops: &OpCounts, hit: f64) -> f64 {
        sim_ops_time(self.machine, ops, hit)
    }
}

/// Event-simulated base duration of one collective (no packing, no jitter):
/// the benchmarking-run primitive used both by the simulator and by the
/// characterization driver ([`calibrate`]).
pub fn collective_base_time(
    machine: &MachineModel,
    op: CollectiveOp,
    participants: usize,
    bytes_per_node: u64,
) -> f64 {
    collective_base_time_with(machine, op, participants, bytes_per_node, None)
}

/// One collective stage under an optional fault session. When a stage sees
/// any fault event (retransmission, detour, undeliverable message), the
/// collective's participants re-synchronize before the next stage — the
/// stage-level recovery barrier — charged at the comm component's
/// synchronization overhead.
fn stage_time(
    topo: &dyn Topology,
    comm: &CommComponent,
    nodes: usize,
    ms: &[Message],
    faults: &mut Option<&mut FaultSession<'_>>,
) -> f64 {
    let timing = simulate_phase(topo, comm, nodes, ms, faults.as_deref_mut());
    let Some(s) = faults else {
        return timing.duration;
    };
    let recovery = if s.plan.needs_recovery() && timing.faults.any() {
        comm.sync_overhead_s
    } else {
        0.0
    };
    s.stats.absorb(timing.faults);
    timing.duration + recovery
}

/// [`collective_base_time`] with fault injection: every stage runs through
/// the fault-aware network walk and pays a recovery barrier when it had to
/// retransmit or reroute.
pub fn collective_base_time_with(
    machine: &MachineModel,
    op: CollectiveOp,
    participants: usize,
    bytes_per_node: u64,
    faults: Option<&mut FaultSession<'_>>,
) -> f64 {
    let nodes = participants.max(1);
    // The collective runs on the subcube spanning its participants (which
    // may exceed the configured machine during characterization probes).
    // Collective *schedules* are always built over this virtual hypercube;
    // only per-message routing differs between physical topologies.
    let cube = Hypercube::fitting(nodes.max(machine.nodes));
    let comm = &machine.comm;
    if nodes <= 1 {
        return 0.0;
    }
    let hypercube = HypercubeTopo { cube };
    let built;
    let (topo, mut faults): (&dyn Topology, _) = match &machine.topology {
        TopologyDesc::Hypercube => (&hypercube, faults),
        desc => {
            built = hpf_machines::build_topology(desc, machine.nodes)
                .expect("machine topology validated by the registry");
            // Network faults (loss, degraded and severed links) are
            // injected on hypercube machines only: other backends model
            // degraded operation analytically through
            // `MachineModel::degrade`, so their stages never see the
            // session.
            (built.as_ref(), None)
        }
    };
    match op {
        CollectiveOp::Shift => {
            let ms = patterns::shift(nodes, bytes_per_node);
            stage_time(topo, comm, nodes, &ms, &mut faults)
        }
        CollectiveOp::Reduce | CollectiveOp::ReduceLoc | CollectiveOp::Barrier => {
            let bytes = match op {
                CollectiveOp::ReduceLoc => bytes_per_node + 4,
                CollectiveOp::Barrier => 0,
                _ => bytes_per_node,
            };
            let mut t = 0.0;
            for stage in patterns::reduce_stages(cube, nodes, bytes.max(4)) {
                t += stage_time(topo, comm, nodes, &stage, &mut faults);
                t += machine.node_processing.op_time(OpClass::FAdd) * (bytes as f64 / 4.0).max(1.0);
            }
            t
        }
        CollectiveOp::Broadcast => {
            let mut t = 0.0;
            for stage in patterns::broadcast_stages(cube, nodes, bytes_per_node) {
                t += stage_time(topo, comm, nodes, &stage, &mut faults);
            }
            t
        }
        CollectiveOp::AllToAll => {
            let per_pair = (bytes_per_node / nodes as u64).max(4);
            let mut t = 0.0;
            for round in patterns::all_to_all_rounds(nodes, per_pair) {
                t += stage_time(topo, comm, nodes, &round, &mut faults);
            }
            t
        }
        CollectiveOp::Gather | CollectiveOp::Scatter => {
            let ms = patterns::gather(cube, nodes, bytes_per_node);
            stage_time(topo, comm, nodes, &ms, &mut faults)
        }
    }
}

/// Event-simulated base duration of one parallel-I/O phase (no jitter):
/// striped blocks assigned round-robin to per-server FIFO disk queues, each
/// block a routed message serialized at its server's NIC. This is the DES
/// ground truth the analytic `hpf_io::phase_cost` model predicts and the
/// I/O characterization pass fits against.
pub fn io_base_time(machine: &MachineModel, phase: &hpf_io::IoPhase) -> f64 {
    let io = &machine.io;
    if phase.total_bytes == 0 {
        return 0.0;
    }
    let servers = phase.resolved_servers(io, machine.nodes);
    let block = (io.stripe_bytes * phase.stripe_factor.max(1) as u64).max(1);
    let comm = &machine.comm;
    let hops = ((machine.nodes.max(2) as f64).log2() / 2.0).max(1.0);
    let nblocks = phase.total_bytes.div_ceil(block);

    // Event loop: block i lands on server i mod S once its NIC is free,
    // then queues FIFO behind the disk.
    let mut nic_free = vec![0.0f64; servers];
    let mut disk_free = vec![0.0f64; servers];
    let mut done = 0.0f64;
    for i in 0..nblocks {
        let b = (phase.total_bytes - i * block).min(block);
        let lat = if b <= comm.short_threshold {
            comm.short_latency_s
        } else {
            comm.long_latency_s
        };
        let net = (lat + hops * comm.per_hop_s + b as f64 * comm.per_byte_s) * DISTORTION.comm_sw;
        let s = (i % servers as u64) as usize;
        let arrive = nic_free[s] + net;
        nic_free[s] = arrive;
        let start = arrive.max(disk_free[s]);
        disk_free[s] =
            start + io.disk_latency_s + io.server_overhead_s + b as f64 / io.disk_bandwidth_bps;
        done = done.max(disk_free[s]);
    }

    // Compute-side packing (software cost, distorted like other comm
    // software paths) and, for checkpoints, the shared commit term.
    let mut t = done + comm.pack_time(phase.bytes_per_node) * DISTORTION.comm_sw;
    if phase.kind == hpf_io::IoKind::Checkpoint {
        t += hpf_io::checkpoint_commit_s(io, comm, phase);
    }
    t
}

/// [`calibrate_params`] over the iPSC/860's tables, unchecked: `nodes`
/// must be at least 1. Callers that take a node count from outside go
/// through the registry (`report::pipeline::calibrated_machine_for`),
/// which builds the same model.
pub fn calibrate(nodes: usize) -> MachineModel {
    calibrate_params(machine::ipsc860(nodes))
}

/// Calibrate a registered machine backend: fetch its parameter tables for
/// `nodes` (typed error on an out-of-range node count) and run
/// [`calibrate_params`] over them.
pub fn calibrate_backend(
    backend: &hpf_machines::Backend,
    nodes: usize,
) -> Result<MachineModel, TopologyError> {
    Ok(calibrate_params(backend.params(nodes)?))
}

/// Run the machine characterization (§4.4) over caller-supplied
/// parameter tables: benchmark every collective at a spread of message
/// sizes and fit `α + β·m` per (op, p), against the tables' own topology
/// (since [`collective_base_time`] routes over whatever the tables'
/// `topology` describes), and measure the compute-scale of a
/// representative operation mix against instruction-count estimates.
/// Returns the machine with its calibration installed — the "off-line,
/// performed only once" system abstraction step.
pub fn calibrate_params(mut machine: MachineModel) -> MachineModel {
    let nodes = machine.nodes;
    let mut cal = machine::Calibration {
        compute_scale: compute_scale(&machine),
        comm: Default::default(),
        io: Default::default(),
    };

    let ops = [
        CollectiveOp::Shift,
        CollectiveOp::Reduce,
        CollectiveOp::ReduceLoc,
        CollectiveOp::Broadcast,
        CollectiveOp::AllToAll,
        CollectiveOp::Gather,
        CollectiveOp::Scatter,
        CollectiveOp::Barrier,
    ];
    // Sample densely around the NX short/long regime boundary so the
    // two-segment fit captures the latency jump the library exhibits.
    let boundary = machine.comm.short_threshold;
    let sizes = [
        4u64, 16, 48, 80, 100, 128, 192, 256, 512, 1024, 4096, 16384, 65536,
    ];
    let mut p = 2usize;
    while p <= nodes.max(2) {
        for op in ops {
            let samples: Vec<(u64, f64)> = sizes
                .iter()
                .map(|&b| (b, collective_base_time(&machine, op, p, b)))
                .collect();
            cal.comm.insert(
                machine::Calibration::key(op, p),
                machine::PiecewiseCost::fit(&samples, boundary),
            );
        }
        if p >= nodes {
            break;
        }
        p *= 2;
    }

    // I/O characterization: benchmark striped writes per (server count,
    // participant count) at a spread of phase sizes and fit the same
    // two-segment model, with the regime boundary at one stripe unit.
    let io_sizes = [1024u64, 4096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304];
    let io_boundary = machine.io.stripe_bytes.max(1);
    let mut p = 1usize;
    while p <= nodes.max(1) {
        let mut s = 1usize;
        while s <= p {
            let samples: Vec<(u64, f64)> = io_sizes
                .iter()
                .map(|&b| {
                    let probe = hpf_io::IoPhase {
                        kind: hpf_io::IoKind::Write,
                        arrays: vec!["probe".into()],
                        total_bytes: b,
                        bytes_per_node: b.div_ceil(p as u64),
                        participants: p,
                        servers: s,
                        stripe_factor: 1,
                    };
                    (b, io_base_time(&machine, &probe))
                })
                .collect();
            cal.io.insert(
                machine::Calibration::io_key(s, p),
                machine::PiecewiseCost::fit(&samples, io_boundary),
            );
            s *= 2;
        }
        if p >= nodes {
            break;
        }
        p *= 2;
    }
    machine.calibration = Some(cal);
    machine
}

/// Measured/counted compute-time ratio over a characterization mix.
fn compute_scale(machine: &MachineModel) -> f64 {
    let mix = OpCounts {
        fadd: 2.0,
        fmul: 1.5,
        fdiv: 0.1,
        ftrans: 0.05,
        int_ops: 2.0,
        imul: 0.2,
        idiv: 0.02,
        cmp: 0.5,
        logical: 0.2,
        loads: 2.5,
        stores: 1.0,
        index: 2.5,
        calls: 0.02,
        branches: 0.3,
    };
    let hit = 0.8;
    let measured = sim_ops_time(machine, &mix, hit);
    let p = &machine.node_processing;
    let m = &machine.node_memory;
    let counted = mix.fadd * p.op_time(OpClass::FAdd)
        + mix.fmul * p.op_time(OpClass::FMul)
        + mix.fdiv * p.op_time(OpClass::FDiv)
        + mix.ftrans * p.op_time(OpClass::FTranscendental)
        + mix.int_ops * p.op_time(OpClass::IntOp)
        + mix.imul * p.op_time(OpClass::IntMul)
        + mix.idiv * p.op_time(OpClass::IntDiv)
        + mix.cmp * p.op_time(OpClass::Compare)
        + mix.logical * p.op_time(OpClass::Logical)
        + mix.index * p.op_time(OpClass::Index)
        + mix.calls * p.op_time(OpClass::Call)
        + mix.branches * p.op_time(OpClass::Branch)
        + mix.mem_refs() * m.access_time(hit);
    if counted > 0.0 {
        measured / counted
    } else {
        1.0
    }
}

/// The simulator's (distorted) op-mix timing — the "measured" side of the
/// characterization runs.
pub fn sim_ops_time(machine: &MachineModel, ops: &OpCounts, hit: f64) -> f64 {
    let p = &machine.node_processing;
    let m = &machine.node_memory;
    let d = DISTORTION;
    let fp = (ops.fadd * p.op_time(OpClass::FAdd)
        + ops.fmul * p.op_time(OpClass::FMul)
        + ops.fdiv * p.op_time(OpClass::FDiv)
        + ops.ftrans * p.op_time(OpClass::FTranscendental))
        * d.fp;
    let int = (ops.int_ops * p.op_time(OpClass::IntOp)
        + ops.imul * p.op_time(OpClass::IntMul)
        + ops.idiv * p.op_time(OpClass::IntDiv)
        + ops.cmp * p.op_time(OpClass::Compare)
        + ops.logical * p.op_time(OpClass::Logical)
        + ops.index * p.op_time(OpClass::Index))
        * d.int;
    let ctl = (ops.calls * p.op_time(OpClass::Call) + ops.branches * p.op_time(OpClass::Branch))
        * d.loop_ovh;
    let mem = ops.mem_refs() * m.access_time(hit) * d.mem;
    fp + int + ctl + mem
}

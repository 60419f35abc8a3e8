//! The interpretation engine (§3.3, §4.2): an interpretation *function* per
//! AAU type computing its performance in terms of the parameters exported
//! by the associated SAU, and an interpretation *algorithm* that recursively
//! applies the functions to the SAAG, maintaining per-AAU computation /
//! communication / overhead metrics and the global clock.

use crate::metrics::Metrics;
use appgraph::{Aag, AauId, AauKind};
use hpf_compiler::{CommPhase, CompPhase, OpCounts};
use machine::{MachineModel, OpClass};

/// Engine options — the user-experimentation knobs of §3.3 ("models and
/// heuristics are defined to handle accesses to the memory hierarchy,
/// overlap between computation and communication, and user experimentation
/// with system and run-time parameters").
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Model the memory hierarchy (cache hit-ratio model). Off = every
    /// reference hits (flat-memory ablation).
    pub memory_hierarchy: bool,
    /// Model overlap between computation and communication: a fraction of
    /// each communication's wire time hides under the following computation.
    pub overlap_comp_comm: bool,
    /// Interpret every communication phase as free (zero comm, zero pack
    /// overhead). The resulting prediction is a *lower bound* on the real
    /// one for the same SPMD program — computation, loop bookkeeping and
    /// wait are untouched — which is what branch-and-bound directive
    /// search needs to discard dominated candidates soundly.
    pub zero_comm: bool,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            memory_hierarchy: true,
            overlap_comp_comm: false,
            zero_comm: false,
        }
    }
}

/// Fraction of wire time that can overlap when
/// [`InterpOptions::overlap_comp_comm`] is enabled (NX supported limited
/// overlap via asynchronous receives).
const OVERLAP_FRACTION: f64 = 0.5;

/// A completed interpretation: total and per-AAU metrics plus the clock.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub total: Metrics,
    /// Cumulative metrics per AAU id (over all executions of that AAU).
    pub per_aau: Vec<Metrics>,
    /// Final value of the global clock, seconds.
    pub global_clock: f64,
    pub nodes: usize,
}

impl Prediction {
    /// Predicted wall-clock execution time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.global_clock
    }

    pub fn total(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.global_clock.max(0.0))
    }
}

/// The interpretation engine bound to an abstracted machine.
#[derive(Debug, Clone)]
pub struct InterpretationEngine<'m> {
    pub machine: &'m MachineModel,
    pub options: InterpOptions,
}

impl<'m> InterpretationEngine<'m> {
    pub fn new(machine: &'m MachineModel) -> Self {
        InterpretationEngine {
            machine,
            options: InterpOptions::default(),
        }
    }

    pub fn with_options(machine: &'m MachineModel, options: InterpOptions) -> Self {
        InterpretationEngine { machine, options }
    }

    /// Run the interpretation algorithm over the SAAG.
    pub fn interpret(&self, aag: &Aag) -> Prediction {
        let _span = hpf_trace::span("interpret");
        hpf_trace::counter_add("interp.interpretations", 1);
        hpf_trace::counter_add("interp.aaus", aag.aaus.len() as u64);
        let mut per_aau = vec![Metrics::ZERO; aag.aaus.len()];
        let total = self.seq(aag, &aag.top, 1.0, &mut per_aau);
        Prediction {
            total,
            per_aau,
            global_clock: total.time(),
            nodes: self.machine.nodes,
        }
    }

    /// Interpret a sequence of AAUs, applying the comp/comm overlap model
    /// between adjacent communication and computation units.
    fn seq(&self, aag: &Aag, ids: &[AauId], weight: f64, per_aau: &mut [Metrics]) -> Metrics {
        let mut total = Metrics::ZERO;
        let mut pending_overlap: f64 = 0.0; // overlappable wire time carried
        let mut pending_io_overlap: f64 = 0.0; // overlappable I/O streaming
        for &id in ids {
            let mut m = self.aau(aag, id, weight, per_aau);
            if self.options.overlap_comp_comm && !self.options.zero_comm {
                match &aag.aau(id).kind {
                    AauKind::Comm { phase, .. } => {
                        // Wire time (not packing) may hide under later comp.
                        let wire = self.comm_wire_time(phase);
                        pending_overlap += wire * OVERLAP_FRACTION;
                    }
                    AauKind::Io { phase } => {
                        // Streamed server transfers hide under later
                        // computation the same way wire time does (the
                        // asynchronous-request half of the two-phase
                        // access).
                        let t = hpf_io::phase_time_on(self.machine, phase);
                        pending_io_overlap += t * OVERLAP_FRACTION;
                    }
                    AauKind::IterD { comp: Some(_), .. } => {
                        let hidden = pending_overlap.min(m.comp);
                        m.comm -= hidden;
                        let hidden_io = pending_io_overlap.min(m.comp - hidden);
                        m.io -= hidden_io;
                        total.wait += 0.0;
                        pending_overlap = 0.0;
                        pending_io_overlap = 0.0;
                    }
                    _ => {}
                }
            }
            total += m;
        }
        total
    }

    /// Interpretation function dispatch for one AAU.
    fn aau(&self, aag: &Aag, id: AauId, weight: f64, per_aau: &mut [Metrics]) -> Metrics {
        let a = aag.aau(id);
        let m = match &a.kind {
            AauKind::Start | AauKind::End => Metrics::ZERO,
            AauKind::Seq { ops } => self.interpret_seq(ops),
            AauKind::Comm { phase, .. } => self.interpret_comm(phase),
            AauKind::Io { phase } => self.interpret_io(phase),
            AauKind::IterD {
                trips, comp, body, ..
            } => match comp {
                Some(c) => self.interpret_comp(c),
                None => {
                    let body_m = self.seq(aag, body, weight, per_aau);
                    let p = &self.machine.node_processing;
                    let loop_ovh = *trips as f64 * p.op_time(OpClass::LoopIter)
                        + p.op_time(OpClass::LoopSetup);
                    let mut m = body_m * (*trips as f64);
                    m.overhead += loop_ovh;
                    m
                }
            },
            AauKind::CondtD { arms, else_arm } => {
                let p = &self.machine.node_processing;
                let mut m = Metrics {
                    overhead: p.op_time(OpClass::Branch),
                    ..Metrics::ZERO
                };
                let mut arm_weight_sum = 0.0;
                for (w, body) in arms {
                    let w = w.clamp(0.0, 1.0);
                    arm_weight_sum += w;
                    m += self.seq(aag, body, weight * w, per_aau) * w;
                }
                let else_w = (1.0 - arm_weight_sum).max(0.0);
                if !else_arm.is_empty() && else_w > 0.0 {
                    m += self.seq(aag, else_arm, weight * else_w, per_aau) * else_w;
                }
                m
            }
        };
        per_aau[id] += m * weight;
        m
    }

    /// Seq AAU: straight-line replicated scalar work.
    fn interpret_seq(&self, ops: &OpCounts) -> Metrics {
        let comp = self.ops_time(ops, 0.95);
        Metrics {
            comp,
            ..Metrics::ZERO
        }
    }

    /// IterD with a computation phase: the sequentialized local loop nest.
    fn interpret_comp(&self, c: &CompPhase) -> Metrics {
        let p = &self.machine.node_processing;
        let iters = c.max_node_iters() as f64;
        let hit = self.hit_ratio(c);

        // Per-iteration cost: mask evaluation (or the body when unmasked),
        // plus density-weighted masked body.
        let mut per_iter_time = self.ops_time_with_hit(&c.per_iter, hit);
        if let (Some(body), Some(density)) = (&c.masked_ops, c.mask_density_hint) {
            per_iter_time += density * self.ops_time_with_hit(body, hit);
        }
        let comp = iters * per_iter_time;

        // Loop bookkeeping: one iter-overhead per innermost iteration plus
        // setup per nest level.
        let overhead = iters * p.op_time(OpClass::LoopIter)
            + c.loop_depth as f64 * p.op_time(OpClass::LoopSetup)
            + if c.masked_ops.is_some() {
                iters * p.op_time(OpClass::Branch)
            } else {
                0.0
            };

        // Wait time: the non-critical nodes idle while the busiest finishes.
        let mean = c.total_iters as f64 / c.per_node_iters.len().max(1) as f64;
        let wait = (iters - mean).max(0.0) * per_iter_time;

        Metrics {
            comp,
            comm: 0.0,
            overhead,
            wait,
            io: 0.0,
        }
    }

    /// Comm AAU: the collective library call plus software packing.
    fn interpret_comm(&self, c: &CommPhase) -> Metrics {
        if self.options.zero_comm {
            return Metrics::ZERO;
        }
        let lib = self
            .machine
            .collective_time(c.op, c.participants, c.bytes_per_node);
        let pack = self.pack_overhead(c);
        Metrics {
            comm: lib,
            overhead: pack,
            ..Metrics::ZERO
        }
    }

    /// Io AAU: the striped-server phase, priced by the fitted I/O
    /// calibration when the machine has one, otherwise the closed form.
    /// `zero_comm` deliberately leaves I/O charged: the lower bound it
    /// certifies is over communication placements, and I/O statements are
    /// part of the program being bounded.
    fn interpret_io(&self, p: &hpf_io::IoPhase) -> Metrics {
        let io = hpf_io::phase_time_on(self.machine, p);
        Metrics {
            io,
            ..Metrics::ZERO
        }
    }

    /// Extra software packing charged for non-contiguous boundaries: each
    /// element is a separate strided reference (a cache miss per element on
    /// the i860's 32-byte lines), on both the pack and unpack side.
    fn pack_overhead(&self, c: &CommPhase) -> f64 {
        if c.contiguous {
            0.0
        } else {
            let elems = c.bytes_per_node as f64 / 4.0;
            let miss = self.machine.node_memory.access_time(0.0);
            2.0 * elems * miss
        }
    }

    /// Wire-only portion of a communication (overlap candidate).
    fn comm_wire_time(&self, c: &CommPhase) -> f64 {
        c.bytes_per_node as f64 * self.machine.comm.per_byte_s
    }

    fn hit_ratio(&self, c: &CompPhase) -> f64 {
        if !self.options.memory_hierarchy {
            return 1.0;
        }
        self.machine
            .node_memory
            .hit_ratio(c.working_set_bytes, 4, c.locality)
    }

    /// Time for an op bundle with a given cache hit ratio on its refs.
    fn ops_time_with_hit(&self, ops: &OpCounts, hit: f64) -> f64 {
        let p = &self.machine.node_processing;
        let m = &self.machine.node_memory;
        let mem = if self.options.memory_hierarchy {
            ops.mem_refs() * m.access_time(hit)
        } else {
            ops.mem_refs() * m.access_time(1.0)
        };
        // The measured-to-counted scaling from characterization runs (§4.4)
        // applies to everything the processing/memory components time.
        (ops.fadd * p.op_time(OpClass::FAdd)
            + ops.fmul * p.op_time(OpClass::FMul)
            + ops.fdiv * p.op_time(OpClass::FDiv)
            + ops.ftrans * p.op_time(OpClass::FTranscendental)
            + ops.int_ops * p.op_time(OpClass::IntOp)
            + ops.imul * p.op_time(OpClass::IntMul)
            + ops.idiv * p.op_time(OpClass::IntDiv)
            + ops.cmp * p.op_time(OpClass::Compare)
            + ops.logical * p.op_time(OpClass::Logical)
            + ops.index * p.op_time(OpClass::Index)
            + ops.calls * p.op_time(OpClass::Call)
            + ops.branches * p.op_time(OpClass::Branch)
            + mem)
            * self.machine.compute_scale()
    }

    fn ops_time(&self, ops: &OpCounts, hit: f64) -> f64 {
        self.ops_time_with_hit(ops, hit)
    }
}

//! The loosely synchronous SPMD intermediate representation — the output of
//! Phase 1 (§4.1, step 5): "a loosely synchronous SPMD program structure …
//! consisting of alternating phases of local computation and global
//! communication".
//!
//! This IR plays the role of the Fortran 77 + Message-Passing node program
//! the NPAC compiler emitted. Three consumers read it: the application
//! abstraction (AAG/SAAG construction), the interpretation engine (static
//! prediction), and the iPSC/860 discrete-event simulator (ground truth).

use crate::dist::{DistributionTable, ProcGrid};
use crate::ops::OpCounts;
use hpf_lang::Span;
use machine::CollectiveOp;
use std::sync::Arc;

/// A non-fatal compilation diagnostic: the compiler degraded gracefully
/// (e.g. an unresolvable critical variable replaced by a worst-case bound)
/// instead of rejecting the program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileWarning {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for CompileWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "warning at {}: {}", self.span, self.message)
    }
}

/// A compiled SPMD program.
#[derive(Debug, Clone)]
pub struct SpmdProgram {
    pub name: String,
    /// Number of physical nodes the program is mapped to.
    pub nodes: usize,
    pub grid: ProcGrid,
    pub dist: DistributionTable,
    pub body: Vec<SpmdNode>,
    /// Graceful-degradation diagnostics collected during lowering.
    pub warnings: Vec<CompileWarning>,
}

impl SpmdProgram {
    /// Total communication phases in the program (statically).
    pub fn comm_phase_count(&self) -> usize {
        fn walk(nodes: &[SpmdNode]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    SpmdNode::Comm(_) => 1,
                    SpmdNode::Loop { body, .. } => walk(body),
                    SpmdNode::Branch {
                        arms, else_body, ..
                    } => arms.iter().map(|(_, b)| walk(b)).sum::<usize>() + walk(else_body),
                    _ => 0,
                })
                .sum()
        }
        walk(&self.body)
    }

    /// All parallel-I/O phases in the program, in source order (loop and
    /// branch bodies are walked once, not multiplied by trip counts).
    pub fn io_phases(&self) -> Vec<&hpf_io::IoPhase> {
        fn walk<'a>(nodes: &'a [SpmdNode], out: &mut Vec<&'a hpf_io::IoPhase>) {
            for n in nodes {
                match n {
                    SpmdNode::Io { phase, .. } => out.push(phase.as_ref()),
                    SpmdNode::Loop { body, .. } => walk(body, out),
                    SpmdNode::Branch {
                        arms, else_body, ..
                    } => {
                        for (_, b) in arms {
                            walk(b, out);
                        }
                        walk(else_body, out);
                    }
                    _ => {}
                }
            }
        }
        let mut v = Vec::new();
        walk(&self.body, &mut v);
        v
    }

    /// Render the phase structure as an indented outline (Figure-2 style).
    pub fn outline(&self) -> String {
        let mut out = String::new();
        fn walk(nodes: &[SpmdNode], depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            for n in nodes {
                match n {
                    SpmdNode::Seq(s) => {
                        out.push_str(&format!("{pad}Seq     {} ({})\n", s.label, s.span));
                    }
                    SpmdNode::Comp(c) => {
                        let mask = c
                            .mask_density_hint
                            .map(|d| format!(", mask~{d:.2}"))
                            .unwrap_or_default();
                        out.push_str(&format!(
                            "{pad}Comp    {} [{} iters{}] ({})\n",
                            c.label, c.total_iters, mask, c.span
                        ));
                    }
                    SpmdNode::Comm(c) => {
                        out.push_str(&format!(
                            "{pad}Comm    {} {:?} [{} B/node, p={}] ({})\n",
                            c.label, c.op, c.bytes_per_node, c.participants, c.span
                        ));
                    }
                    SpmdNode::Io { phase, span } => {
                        out.push_str(&format!("{pad}Io      {} ({})\n", phase.outline(), span));
                    }
                    SpmdNode::Loop {
                        var, trips, body, ..
                    } => {
                        out.push_str(&format!("{pad}Loop    {var} x{trips}\n"));
                        walk(body, depth + 1, out);
                    }
                    SpmdNode::Branch {
                        arms, else_body, ..
                    } => {
                        for (i, (p, b)) in arms.iter().enumerate() {
                            out.push_str(&format!(
                                "{pad}{} (p~{p:.2})\n",
                                if i == 0 { "If  " } else { "Elif" }
                            ));
                            walk(b, depth + 1, out);
                        }
                        if !else_body.is_empty() {
                            out.push_str(&format!("{pad}Else\n"));
                            walk(else_body, depth + 1, out);
                        }
                    }
                }
            }
        }
        walk(&self.body, 0, &mut out);
        out
    }
}

/// One node of the SPMD program structure. Labels, computation phases and
/// communication payload lists are shared (`Arc`), so the application
/// graph built from a program holds them without copying, and a lowering
/// plan hands the same label to every program it lowers.
#[derive(Debug, Clone)]
pub enum SpmdNode {
    /// Replicated scalar computation executed identically on every node.
    Seq(SeqBlock),
    /// Local (owner-computes) computation phase.
    Comp(Arc<CompPhase>),
    /// Global communication phase.
    Comm(CommPhase),
    /// Parallel I/O phase: a striped READ/WRITE/CHECKPOINT over the I/O
    /// servers (descriptor defined in `hpf-io`).
    Io {
        phase: Arc<hpf_io::IoPhase>,
        span: Span,
    },
    /// Counted loop around nested phases.
    Loop {
        var: Arc<str>,
        /// Resolved trip count (critical-variable tracing / user input).
        trips: u64,
        /// Whether `trips` was estimated rather than resolved exactly
        /// (e.g. DO WHILE with a heuristic guess).
        estimated: bool,
        body: Vec<SpmdNode>,
        span: Span,
    },
    /// Conditional around nested phases. Arm weights are the static branch-
    /// probability heuristic the interpretation functions use.
    Branch {
        arms: Vec<(f64, Vec<SpmdNode>)>,
        else_body: Vec<SpmdNode>,
        span: Span,
    },
}

impl SpmdNode {
    pub fn span(&self) -> Span {
        match self {
            SpmdNode::Seq(s) => s.span,
            SpmdNode::Comp(c) => c.span,
            SpmdNode::Comm(c) => c.span,
            SpmdNode::Loop { span, .. }
            | SpmdNode::Branch { span, .. }
            | SpmdNode::Io { span, .. } => *span,
        }
    }
}

/// Replicated scalar work (scalar assignments, I/O).
#[derive(Debug, Clone)]
pub struct SeqBlock {
    pub label: Arc<str>,
    pub span: Span,
    /// Operation counts for one execution.
    pub ops: OpCounts,
}

/// A local computation phase: the sequentialized loop nest executing the
/// locally owned part of a forall / array operation.
#[derive(Debug, Clone)]
pub struct CompPhase {
    pub label: Arc<str>,
    pub span: Span,
    /// Global iteration count (all nodes together, before masking).
    pub total_iters: u64,
    /// Iterations owned by each node (len == nodes).
    pub per_node_iters: Vec<u64>,
    /// Operations per (unmasked) iteration.
    pub per_iter: OpCounts,
    /// Additional per-iteration cost when the mask is TRUE (body of a
    /// masked forall); `per_iter` then holds the mask-evaluation cost.
    pub masked_ops: Option<OpCounts>,
    /// Static mask-density heuristic used by the predictor (None = no mask).
    pub mask_density_hint: Option<f64>,
    /// Nesting depth of the generated loop nest (for loop overheads).
    pub loop_depth: u32,
    /// Per-node working set in bytes (distinct data touched).
    pub working_set_bytes: u64,
    /// Unit-stride fraction of memory references in `[0,1]` — drives the
    /// memory component's hit-ratio model.
    pub locality: f64,
}

impl CompPhase {
    /// Iterations on the busiest node — the loosely synchronous phase
    /// finishes when the slowest node does.
    pub fn max_node_iters(&self) -> u64 {
        self.per_node_iters.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance ratio (max/mean); 1.0 = perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.max_node_iters() as f64;
        let mean = self.total_iters as f64 / self.per_node_iters.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// A communication phase.
#[derive(Debug, Clone)]
pub struct CommPhase {
    pub label: Arc<str>,
    pub span: Span,
    pub op: CollectiveOp,
    /// Payload per participating node, bytes.
    pub bytes_per_node: u64,
    /// Number of participating processors.
    pub participants: usize,
    /// For Shift: whether the transferred boundary is contiguous in local
    /// (column-major) memory. Strided boundaries pay extra packing.
    pub contiguous: bool,
    /// For Shift: the distributed grid dimension being crossed.
    pub shift_grid_dim: Option<usize>,
    /// The arrays involved (for tracing / per-line attribution).
    pub arrays: Arc<[String]>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(per_node: Vec<u64>) -> CompPhase {
        CompPhase {
            label: "t".into(),
            span: Span::SYNTHETIC,
            total_iters: per_node.iter().sum(),
            per_node_iters: per_node,
            per_iter: OpCounts::zero(),
            masked_ops: None,
            mask_density_hint: None,
            loop_depth: 1,
            working_set_bytes: 0,
            locality: 1.0,
        }
    }

    #[test]
    fn imbalance_metrics() {
        let p = phase(vec![4, 4, 4, 4]);
        assert_eq!(p.max_node_iters(), 4);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
        let p = phase(vec![8, 0, 0, 0]);
        assert_eq!(p.imbalance(), 4.0);
    }

    #[test]
    fn empty_phase_is_balanced() {
        let p = phase(vec![0, 0]);
        assert_eq!(p.imbalance(), 1.0);
        assert_eq!(p.max_node_iters(), 0);
    }
}

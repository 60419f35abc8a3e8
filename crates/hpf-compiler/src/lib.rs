//! # hpf-compiler — Phase 1 of the HPF/Fortran 90D framework
//!
//! The source-to-source compilation pipeline of §4.1:
//!
//! 1. parse (in `hpf-lang`),
//! 2. **normalization** — array assignments and `where` become `forall`
//!    ([`normalize()`](normalize())),
//! 3. **partitioning** — directives resolve to a two-level data mapping
//!    ([`dist`]),
//! 4. **sequentialization** — parallel constructs become local loop nests,
//! 5. **communication detection** — off-processor references become
//!    collective communication calls ([`lower`]),
//! 6. emission of the loosely synchronous **SPMD program structure**
//!    ([`spmd`]) of alternating local-computation / global-communication
//!    phases.

pub mod dist;
pub mod lower;
pub mod normalize;
pub mod ops;
pub mod spmd;

pub use dist::{partition, partition_onto, ArrayDist, DimDist, DistributionTable, ProcGrid};
pub use lower::{compile, CompileError, CompileOptions, LowerPlan};
pub use normalize::normalize;
pub use ops::{count_assign, count_expr, expr_type, ExprType, OpCounts};
pub use spmd::{CommPhase, CompPhase, CompileWarning, SeqBlock, SpmdNode, SpmdProgram};

/// Flatten the phase tree (loops/branches descended) — shared by tests and
/// downstream consumers that want a static phase census.
pub fn flatten_phases(nodes: &[SpmdNode], out: &mut Vec<SpmdNode>) {
    for n in nodes {
        match n {
            SpmdNode::Loop { body, .. } => flatten_phases(body, out),
            SpmdNode::Branch {
                arms, else_body, ..
            } => {
                for (_, b) in arms {
                    flatten_phases(b, out);
                }
                flatten_phases(else_body, out);
            }
            other => out.push(other.clone()),
        }
    }
}

#[cfg(test)]
mod tests;

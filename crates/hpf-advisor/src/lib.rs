//! # hpf-advisor — directive-space search & what-if advisor
//!
//! The SC'94 framework was embedded in an application-development
//! environment precisely so a developer could ask *"which PROCESSORS /
//! DISTRIBUTE choice should I use?"* without running the program. This
//! crate closes that loop: given a kernel and a node budget `P`, it
//!
//! 1. **enumerates** the legal directive space ([`space`]) — every
//!    ordered factorization of `P` up to the template rank crossed with
//!    per-dimension BLOCK / CYCLIC / CYCLIC(k) / `*` formats;
//! 2. **prunes** dominated candidates with a compute-only analytic lower
//!    bound (zero-communication interpretation, sound because dropping
//!    communication can only shrink the predicted time);
//! 3. **evaluates** the survivors with the analytic interpretation
//!    engine through warm, memoized candidate sessions fanned across
//!    `report`'s std-only work-stealing thread pool (`report::pool`);
//! 4. **cross-validates** the top-k survivors against the discrete-event
//!    simulator and reports the predicted-vs-simulated error.
//!
//! The whole search is deterministic: ties on predicted time are broken
//! by a seeded hash of the candidate label, pruning decisions are made
//! between fixed-width evaluation waves (never racing the incumbent),
//! and results are assembled in candidate order — so the ranked table is
//! bit-identical across repeated runs and thread counts.
//!
//! [`session`] wraps the advisor in the paper's interactive environment
//! (§5.3): the `hpfenv` binary loads a program, varies parameters and the
//! target machine, and its `search` command runs this search.
//!
//! Trace instrumentation (when the current `hpf_trace::Recorder` is on):
//! `advisor.candidates`, `advisor.pruned`, `advisor.evaluated`,
//! `advisor.sessions_reused`, `advisor.profile_reused` counters and
//! `advisor/{enumerate,lower_bound,evaluate,simulate}` spans.

pub mod search;
pub mod session;
pub mod space;

pub use search::{
    render_cross_table, render_table, Advisor, AdvisorConfig, AdvisorReport, CrossMachineReport,
    CrossMachineRow, Front, RankedCandidate,
};
pub use session::Session;
pub use space::{enumerate_candidates, ordered_factorizations, Candidate};

//! # hpf-report — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | Artifact   | Module / binary      |
//! |------------|----------------------|
//! | Table 1    | `bin/table1`         |
//! | Table 2    | [`experiments::table2`], `bin/table2`   |
//! | Figure 2   | [`experiments::figure2_text`], `bin/figure2` |
//! | Figure 3   | [`experiments::figure3_text`], `bin/figure3` |
//! | Figures 4–5| [`experiments::figures4_5`], `bin/figures4_5` |
//! | Figure 7   | [`experiments::figure7_text`], `bin/figure7` |
//! | Figure 8   | [`workflow`], `bin/figure8`             |
//! | Ablations  | [`experiments::ablations_text`], `bin/ablations` |
//! | System characterization (§4.4) | [`characterize`], `bin/characterize` |
//!
//! The text of Table 2, Figures 2–5 and 7, the ablations, the system
//! characterization and the I/O accuracy table is rendered here, not in the
//! binaries, so `tests/goldens.rs` diffs exactly what they print.
//!
//! It also holds the primitives the advisor and the service build on: the
//! [`pipeline`] entry points, the fan-out [`pool`], the [`hash`] and the
//! [`LruMap`].

pub mod characterize;
pub mod checkpoint;
pub mod csv;
pub mod experiments;
pub mod faults;
pub mod harness;
pub mod hash;
pub mod io_accuracy;
pub mod lru;
pub mod pipeline;
pub mod pool;
pub mod sweep;
pub mod workflow;

pub use harness::{run_batch, run_isolated, HarnessConfig, JobFailure, SweepFailure};
pub use hash::{fnv1a, splitmix64, FNV_OFFSET};
pub use lru::LruMap;
pub use pipeline::{
    compile_source, predict_source, predict_source_full, simulate_source, Bound, PipelineError,
    PipelineStage, PredictOptions, SimulateOptions,
};
pub use sweep::{directive_free_source, shared_profile, SweepSession};

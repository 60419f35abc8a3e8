//! # hpf-machines — the multi-backend machine registry
//!
//! The paper's system-characterization methodology (a SAG of SAUs, §3.1)
//! is explicitly machine-generic, but the original reproduction hardwired
//! the one machine the paper measured: the iPSC/860 hypercube. This crate
//! is the abstraction seam that makes the rest of the stack retargetable:
//!
//! * [`Topology`] — node-count validation, neighbor/route enumeration and
//!   link indexing for the DES occupancy model. Four implementations:
//!   the binary hypercube (e-cube routing), a k-ary torus/mesh
//!   (dimension-ordered shortest-wrap routing), a two-level fat tree
//!   (up/down routing through switch vertices), and an idealized
//!   crossbar (receiver-port serialization).
//! * [`Backend`] — one row of the registry table: a machine's name,
//!   description, supported node range, provenance, and the function that
//!   builds its SAU parameter tables ([`machine::MachineModel`]) for a node
//!   count. The tables name the topology ([`build_topology`]) and degrade
//!   under a fault plan. The iPSC/860 is the first row, and its tables are
//!   [`machine::ipsc860`] itself.
//! * [`fn@registry`]/[`fn@machine`] — the table and the lookup by name,
//!   following the ReFrame/HPL per-system reference-table idiom (a system
//!   is data keyed by its name; machine name → expected calibration
//!   numbers ± tolerance, see [`refs::calibration_references`]).
//! * [`TopologyError`] — the typed error that replaces the old
//!   route-table hard assertions; `report` converts it into a
//!   `PipelineError` so serve answers a structured 400 and the CLIs
//!   print a diagnostic instead of panicking.
//!
//! The crate deliberately depends only on `machine`: calibration runs
//! (which need the DES) live in `ipsc-sim`, their process-wide memo in
//! `report::pipeline::calibrated_machine_for`, and the registry's
//! reference tables are validated by tests in `ipsc-sim`.

pub mod error;
pub mod refs;
pub mod registry;
pub mod topology;

pub use error::TopologyError;
pub use refs::{calibration_references, CalibrationReference};
pub use registry::{machine, machine_names, registry, Backend, DEFAULT_MACHINE};
pub use topology::{build_topology, Topology};

//! # Interpretation sessions — compile-once sweep evaluation
//!
//! The paper's workflow (§5.3) is a *loop*: abstract the application once,
//! then re-interpret it at many `(N, P)` points to map out the performance
//! surface. Before this module, every sweep point re-ran the lexer, parser
//! and semantic analyzer on freshly generated source — three times the
//! front-end work the paper's own tooling does once.
//!
//! [`SweepSession`] holds a [`CompiledKernel`] artifact (one parse per
//! kernel shape, ever). [`SweepSession::evaluate`] re-binds the critical
//! variable `N` and the processor grid through semantic-analysis
//! overrides into one [`Bound`] program, then feeds it to both the
//! analytic interpretation engine and the discrete-event simulator — the
//! shared-artifact restructure that makes prediction and measurement
//! provably compare the same program.
//!
//! Sessions are `Send + Sync`; sweep workers share one behind an `Arc`.
//! Profiles come from the process-wide memo behind [`shared_profile`], so
//! a size-`n` profile is computed by whichever worker gets there first and
//! reused by the rest.

use std::sync::{Arc, Mutex, OnceLock};

use hpf_compiler::CompileOptions;
use hpf_eval::ExecutionProfile;
use hpf_lang::AnalyzedProgram;
use kernels::{CompiledKernel, Kernel};

use crate::experiments::{sample_from_artifact_on, AccuracySample, SweepConfig};
use crate::lru::LruMap;
use crate::pipeline::{Bound, PipelineError};

/// A computed-at-most-once profile entry: `None` means the functional
/// interpreter exceeded its step budget for this point.
type ProfileSlot = Arc<OnceLock<Option<Arc<ExecutionProfile>>>>;

/// Memo key: (directive-stripped source text, problem size, step budget).
type ProfileKey = (String, usize, u64);

/// Capacity of the process-wide profile memo. Profiles are the largest
/// cached objects in the process, and a long-running server profiles an
/// unbounded stream of distinct programs — without eviction the memo is a
/// slow leak. 64 slots comfortably covers every sweep in the experiment
/// harness (tens of distinct (source, n) points) while bounding resident
/// memory for serving workloads.
pub const PROFILE_MEMO_CAP: usize = 64;

/// The profile memo key for a source text: the program with every HPF
/// directive comment line removed. The functional interpreter never reads
/// mapping directives, so programs differing only in PROCESSORS / ALIGN /
/// DISTRIBUTE lines have bit-identical profiles — keying on the stripped
/// text lets a directive-space search over hundreds of candidate rewrites
/// run the interpreter exactly once per problem size.
pub fn directive_free_source(src: &str) -> String {
    src.lines()
        .filter(|l| !l.trim_start().starts_with("!HPF$"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Process-global profile memo. The profile is a deterministic function of
/// (directive-stripped source text, problem size, step budget), so entries
/// are shareable across sessions, sweeps and figures without affecting any
/// output bit. Bounded at [`PROFILE_MEMO_CAP`] entries with LRU eviction
/// (`profile_cache.evict` counts evictions) so a long-running process —
/// the `hpf-serve` server in particular — cannot grow it without limit.
fn global_profiles() -> &'static Mutex<LruMap<ProfileKey, ProfileSlot>> {
    static CACHE: OnceLock<Mutex<LruMap<ProfileKey, ProfileSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(LruMap::new(PROFILE_MEMO_CAP)))
}

/// A compile-once interpretation session for one kernel.
///
/// Construction parses the kernel's canonical source a single time;
/// [`evaluate`](SweepSession::evaluate) then serves any `(n, procs)` point
/// by re-binding the cached AST (semantic analysis + SPMD lowering only)
/// and reusing the per-size execution profile across processor counts —
/// sound because the functional interpreter never reads the PROCESSORS
/// arrangement, so the profile depends only on `(program, n)`.
#[derive(Debug)]
pub struct SweepSession {
    compiled: CompiledKernel,
    profile_steps: u64,
    runs: usize,
    machine: String,
}

impl SweepSession {
    /// Parse the kernel once and capture the sweep-relevant limits from
    /// `cfg` (profile step budget, simulated runs per measurement, target
    /// machine).
    pub fn new(kernel: &Kernel, cfg: &SweepConfig) -> Result<Self, PipelineError> {
        let compiled = CompiledKernel::new(kernel)?;
        Ok(SweepSession {
            compiled,
            profile_steps: cfg.profile_steps,
            runs: cfg.runs,
            machine: cfg.machine.clone(),
        })
    }

    /// The kernel this session evaluates.
    pub fn kernel(&self) -> &Kernel {
        self.compiled.kernel()
    }

    /// Evaluate one sweep point: re-bind the artifact to `(n, procs)`,
    /// profile (memoized per `n`), predict and simulate from the same
    /// bound program.
    pub fn evaluate(&self, n: usize, procs: usize) -> Result<AccuracySample, PipelineError> {
        let _session = hpf_trace::span("session");
        hpf_trace::counter_add("session.evaluate", 1);
        let (analyzed, spmd) = {
            let _bind = hpf_trace::span("bind");
            hpf_trace::counter_add("session.bind", 1);
            self.compiled
                .bind(n as i64, procs, &CompileOptions::default())?
        };
        let bound = Bound::new(analyzed, spmd);
        let (profile, _) = shared_profile(
            self.compiled.canonical_source(),
            n,
            self.profile_steps,
            &bound.analyzed,
        );
        sample_from_artifact_on(
            self.compiled.kernel().name,
            &bound,
            profile.as_deref(),
            n,
            procs,
            self.runs,
            &self.machine,
        )
    }
}

/// The functional-interpreter profile for `(source, n, step budget)`,
/// computed at most once per *process* — the warm-session primitive shared
/// by [`SweepSession`], the service and the directive-space advisor. The
/// memo key is the directive-stripped source (see
/// [`directive_free_source`]), so directive rewrites of the same program
/// all hit one entry, and repeated sessions over the same kernel shape
/// (bench iterations, Figure 4 then Figure 5) skip the interpreter
/// entirely. The memo's lock only guards slot lookup; the per-slot
/// [`OnceLock`] makes same-size callers wait for the first computation
/// while distinct sizes profile concurrently. Returns the profile (`None`
/// = the step budget was exceeded) and whether the call was served from
/// the memo without running the interpreter.
pub fn shared_profile(
    canonical_source: &str,
    n: usize,
    profile_steps: u64,
    analyzed: &AnalyzedProgram,
) -> (Option<Arc<ExecutionProfile>>, bool) {
    let slot = {
        let key = (directive_free_source(canonical_source), n, profile_steps);
        let mut guard = global_profiles().lock().unwrap_or_else(|e| e.into_inner());
        let (slot, hit, evicted) = guard.get_or_insert_with(&key, ProfileSlot::default);
        hpf_trace::counter_add(
            if hit {
                "profile_cache.hit"
            } else {
                "profile_cache.miss"
            },
            1,
        );
        if evicted.is_some() {
            hpf_trace::counter_add("profile_cache.evict", 1);
        }
        slot
    };
    let mut computed = false;
    let profile = slot
        .get_or_init(|| {
            computed = true;
            let _s = hpf_trace::span("profile");
            hpf_eval::run_with_limit(analyzed, profile_steps)
                .ok()
                .map(|o| Arc::new(o.profile))
        })
        .clone();
    (profile, !computed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::accuracy_sample;

    /// The heart of the tentpole: a session-evaluated point is
    /// bit-identical to the from-scratch path for every output field.
    #[test]
    fn session_matches_scratch_bitwise() {
        let k = kernels::kernel_by_name("PI").unwrap();
        let cfg = SweepConfig::quick();
        let session = SweepSession::new(&k, &cfg).unwrap();
        for &(n, p) in &[(128usize, 1usize), (512, 4)] {
            let a = session.evaluate(n, p).unwrap();
            let b = accuracy_sample(&k, n, p, &cfg).unwrap();
            assert_eq!(a.predicted_s.to_bits(), b.predicted_s.to_bits());
            assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
            assert_eq!(a.measured_std_s.to_bits(), b.measured_std_s.to_bits());
            assert_eq!(a.abs_error_pct.to_bits(), b.abs_error_pct.to_bits());
        }
    }

    /// A non-default machine threads all the way through the session path
    /// and still matches the from-scratch path bit-for-bit — and actually
    /// changes the numbers relative to the default backend.
    #[test]
    fn session_matches_scratch_on_non_default_machine() {
        let k = kernels::kernel_by_name("PI").unwrap();
        let cfg = SweepConfig {
            machine: "torus3d".to_string(),
            ..SweepConfig::quick()
        };
        let session = SweepSession::new(&k, &cfg).unwrap();
        let a = session.evaluate(128, 4).unwrap();
        let b = accuracy_sample(&k, 128, 4, &cfg).unwrap();
        assert_eq!(a.predicted_s.to_bits(), b.predicted_s.to_bits());
        assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
        assert_eq!(a.measured_std_s.to_bits(), b.measured_std_s.to_bits());

        let default_session = SweepSession::new(&k, &SweepConfig::quick()).unwrap();
        let d = default_session.evaluate(128, 4).unwrap();
        assert_ne!(
            a.measured_s.to_bits(),
            d.measured_s.to_bits(),
            "torus backend should not time like the hypercube"
        );
    }

    /// Profiles are reused across processor counts: the functional
    /// interpreter never reads PROCESSORS, so the memo misses once per
    /// size. A step budget no other test uses keeps the keys fresh.
    #[test]
    fn profile_cache_is_per_size_not_per_procs() {
        let k = kernels::kernel_by_name("PI").unwrap();
        let cfg = SweepConfig {
            profile_steps: 4_999_999,
            ..SweepConfig::quick()
        };
        let session = SweepSession::new(&k, &cfg).unwrap();

        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        session.evaluate(128, 1).unwrap();
        session.evaluate(128, 4).unwrap();
        let misses_one_size = rec.counter_get("profile_cache.miss");
        session.evaluate(256, 4).unwrap();
        assert_eq!(misses_one_size, 1);
        assert_eq!(rec.counter_get("profile_cache.miss"), 2);
    }

    /// The process-wide memo is bounded and instrumented: repeat lookups
    /// count as hits, first-time lookups as misses.
    #[test]
    fn profile_cache_counters_fire() {
        let k = kernels::kernel_by_name("PI").unwrap();
        let cfg = SweepConfig::quick();
        let session = SweepSession::new(&k, &cfg).unwrap();
        let analyzed = {
            let compiled = kernels::CompiledKernel::new(&k).unwrap();
            compiled.bind(96, 1, &CompileOptions::default()).unwrap().0
        };

        // The first call may hit or miss depending on what ran before in
        // this process; the two traced calls after it must both be hits.
        shared_profile(
            session.compiled.canonical_source(),
            96,
            cfg.profile_steps,
            &analyzed,
        );
        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        shared_profile(
            session.compiled.canonical_source(),
            96,
            cfg.profile_steps,
            &analyzed,
        );
        shared_profile(
            session.compiled.canonical_source(),
            96,
            cfg.profile_steps,
            &analyzed,
        );
        assert_eq!(rec.counter_get("profile_cache.hit"), 2);
        assert_eq!(rec.counter_get("profile_cache.miss"), 0);
    }

    /// Session counters fire under tracing: one evaluate = one bind.
    #[test]
    fn session_counters_register() {
        let k = kernels::kernel_by_name("PI").unwrap();
        let cfg = SweepConfig::quick();
        let session = SweepSession::new(&k, &cfg).unwrap();

        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        session.evaluate(128, 4).unwrap();
        session.evaluate(128, 1).unwrap();

        assert_eq!(rec.counter_get("session.evaluate"), 2);
        assert_eq!(rec.counter_get("session.bind"), 2);
        let paths: Vec<String> = rec.span_snapshot().into_iter().map(|s| s.path).collect();
        assert!(
            paths.iter().any(|p| p == "session/bind"),
            "missing session/bind span in {paths:?}"
        );
    }

    /// The profile-memo key drops every directive line, indented or not,
    /// and keeps every other line as it is.
    #[test]
    fn directive_free_source_drops_only_directive_lines() {
        let src = "PROGRAM PI\nREAL F(8)\n!HPF$ PROCESSORS P(4)\n  !HPF$ DISTRIBUTE F(BLOCK) ONTO P\n  F = 1.0 ! !HPF$ in a comment\nEND";
        let stripped = directive_free_source(src);
        assert_eq!(
            stripped,
            "PROGRAM PI\nREAL F(8)\n  F = 1.0 ! !HPF$ in a comment\nEND"
        );
        let kernel = kernels::kernel_by_name("PI").unwrap();
        let compiled = CompiledKernel::new(&kernel).unwrap();
        assert!(compiled.canonical_source().contains("!HPF$"));
        assert!(!directive_free_source(compiled.canonical_source()).contains("!HPF$"));
    }
}

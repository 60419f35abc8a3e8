//! The advisor search: enumerate → lower-bound prune → warm-session
//! evaluation → simulator cross-check.
//!
//! ## Determinism contract
//!
//! The ranked table is bit-identical across repeated runs *and* thread
//! counts. Three mechanisms enforce this:
//!
//! 1. every per-candidate computation (compile, lower-bound, full
//!    interpretation, simulation) is a pure function of the candidate,
//!    executed independently and written to an index-addressed slot;
//! 2. branch-and-bound decisions never race the incumbent: candidates
//!    are processed in fixed-width *waves* in a deterministic order
//!    (ascending lower bound, seeded-hash tie-break), a wave's prune
//!    decisions read only the incumbent left by completed waves, and the
//!    incumbent is folded in candidate order after the wave finishes;
//! 3. ties on predicted time are broken by an FNV-1a hash of the
//!    candidate label mixed with the configured seed — stable, total,
//!    and independent of enumeration order.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpf_compiler::{normalize, CompileError, CompileOptions, LowerPlan, SpmdProgram};
use hpf_lang::ast::Program;
use hpf_lang::{analyze_front, check_directives, parse_program, AnalyzedProgram};
use interp::{InterpOptions, InterpretationEngine, Metrics};
use ipsc_sim::{SimConfig, Simulator};
use kernels::CompiledKernel;
use report::pipeline::calibrated_machine_for;
use report::pool;
use report::{fnv1a, shared_profile, PipelineError, PipelineStage, FNV_OFFSET};

use crate::space::{self, Candidate};

/// Candidates per branch-and-bound wave.
const WAVE_WIDTH: usize = 8;

/// Search-shaping knobs. The defaults match the paper-scale Laplace
/// what-if loop; [`AdvisorConfig::quick`] trims sizes for CI.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Problem size the critical variable `N` is bound to.
    pub n: usize,
    /// Node budget `P`: every candidate grid is a factorization of it.
    pub procs: usize,
    /// CYCLIC(k) block-size alphabet (entries ≥ 2; CYCLIC covers k = 1).
    pub ks: Vec<i64>,
    /// Survivors cross-validated against the DES simulator.
    pub top_k: usize,
    /// Simulated runs per cross-validated candidate.
    pub sim_runs: usize,
    /// Worker threads for the fan-out stages (0 = auto).
    pub threads: usize,
    /// Seed mixed into the tie-break hash.
    pub seed: u64,
    /// Step budget for the functional-interpreter profile.
    pub profile_steps: u64,
    /// Registered machine backend the search predicts and cross-checks on
    /// (see `hpf_machines::machine_names`).
    pub machine: String,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            n: 256,
            procs: 8,
            ks: vec![2, 16, 256],
            top_k: 3,
            sim_runs: 200,
            threads: 0,
            seed: 0x5EED_CAFE,
            profile_steps: 40_000_000,
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
        }
    }
}

impl AdvisorConfig {
    /// CI-speed settings: smaller problem, fewer simulated runs. The
    /// problem size stays large enough that sequentialized-computation
    /// lower bounds can exceed the best parallel prediction — on the
    /// Laplace kernel communication dominates below `n ≈ 128`, and no
    /// compute-only bound can prune anything there.
    pub fn quick() -> Self {
        AdvisorConfig {
            n: 160,
            ks: vec![2, 16, 160],
            sim_runs: 60,
            profile_steps: 10_000_000,
            ..AdvisorConfig::default()
        }
    }
}

/// One evaluated candidate in rank order.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    pub candidate: Candidate,
    /// `Candidate::label()`, precomputed (also the tie-break key).
    pub label: String,
    /// Full analytic prediction, seconds.
    pub predicted_s: f64,
    /// Per-component split of the prediction.
    pub metrics: Metrics,
    /// The zero-communication lower bound used for pruning, seconds.
    pub lower_bound_s: f64,
    /// DES-simulated mean time — populated for the top-k only.
    pub simulated_s: Option<f64>,
    /// |predicted − simulated| / simulated, percent (top-k only).
    pub sim_error_pct: Option<f64>,
}

/// The outcome of one advisor search.
#[derive(Debug, Clone)]
pub struct AdvisorReport {
    pub kernel: String,
    pub n: usize,
    pub procs: usize,
    /// Registry name of the machine the search ran on.
    pub machine: String,
    /// Size of the enumerated directive space.
    pub candidates: usize,
    /// Candidates skipped because their lower bound met the incumbent.
    pub pruned: usize,
    /// Candidates rejected by the compiler (should be zero for kernels
    /// in the suite; counted rather than aborting the search).
    pub invalid: usize,
    /// Warm-artifact reuses: each full evaluation and each simulation
    /// re-serves a memoized candidate session instead of recompiling.
    pub sessions_reused: u64,
    /// Whether the functional-interpreter profile was available to the
    /// simulator (step budget not exceeded).
    pub profile_available: bool,
    /// Evaluated candidates, best predicted time first.
    pub ranked: Vec<RankedCandidate>,
}

/// A candidate's memoized warm session: everything the later stages need,
/// compiled exactly once in the lower-bound pass and re-served to the
/// full evaluation and the simulator.
struct CandidateSession {
    spmd: SpmdProgram,
    aag: appgraph::Aag,
    lower_bound_s: f64,
}

/// The front half of one search: the program analyzed with `N` bound,
/// normalized and planned for lowering, once. Candidates differ only in
/// their directive lists, and nothing here reads a DISTRIBUTE format or a
/// PROCESSORS shape, so every candidate's back half ([`Front::compile`])
/// starts from this.
#[derive(Debug)]
pub struct Front {
    overrides: BTreeMap<String, i64>,
    analyzed: AnalyzedProgram,
    plan: LowerPlan,
}

impl Front {
    /// The back half for one candidate on `procs` nodes: rewrite the
    /// directive list, check it, then partition onto the candidate's grid
    /// and run the plan's per-distribution pass. No AST is cloned.
    pub fn compile(&self, c: &Candidate, procs: usize) -> Result<SpmdProgram, PipelineError> {
        let directives = space::CandidateDirectives::new(&self.analyzed.program.directives, c);
        check_directives(&self.analyzed, directives.iter(), &self.overrides)?;
        let _s = hpf_trace::span("compile");
        Ok(self
            .plan
            .compile(&self.analyzed, directives.iter(), procs, Some(&c.grid))?)
    }
}

/// A what-if advisor bound to one program: the canonical source is parsed
/// exactly once, and every candidate is a rewrite of that program's
/// directive list.
#[derive(Debug)]
pub struct Advisor {
    name: String,
    /// The source the program was parsed from, which keys the shared
    /// profile; a kernel's is its artifact's, shared.
    source: Arc<str>,
    program: Arc<Program>,
    rank: usize,
}

impl Advisor {
    /// The advisor over a kernel's compile-once artifact, searching the
    /// canonical instance the artifact already parsed.
    pub fn for_kernel(artifact: &CompiledKernel) -> Result<Self, PipelineError> {
        Advisor::new(
            artifact.kernel().name,
            artifact.shared_source().clone(),
            artifact.program().clone(),
        )
    }

    /// Build an advisor over arbitrary HPF source (the `advise --file` /
    /// `hpf-serve` entry point). Malformed programs come back as a spanned
    /// [`PipelineError`] — never a panic — so callers can render the same
    /// diagnostic on a terminal or in a structured 400 body.
    pub fn for_source(name: &str, source: &str) -> Result<Self, PipelineError> {
        let program = Arc::new(parse_program(source)?);
        Advisor::new(name, Arc::from(source), program)
    }

    /// Locate the template rank the enumeration runs over.
    fn new(name: &str, source: Arc<str>, program: Arc<Program>) -> Result<Self, PipelineError> {
        let rank = space::distribute_rank(&program).ok_or_else(|| {
            PipelineError::new(
                PipelineStage::Analyze,
                format!("program `{name}` has no DISTRIBUTE directive to search over"),
            )
        })?;
        Ok(Advisor {
            name: name.to_string(),
            source,
            program,
            rank,
        })
    }

    /// Template rank the enumeration runs over.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Run the full search. See the module docs for the stage structure
    /// and the determinism contract.
    pub fn search(&self, cfg: &AdvisorConfig) -> Result<AdvisorReport, PipelineError> {
        let _root = hpf_trace::span("advisor");

        // The registry validates the node budget before anything is
        // enumerated over it.
        let machine = calibrated_machine_for(&cfg.machine, cfg.procs)?;
        let cands = {
            let _s = hpf_trace::span("enumerate");
            space::enumerate_candidates(self.rank, cfg.procs, &cfg.ks)
        };
        hpf_trace::counter_add("advisor.candidates", cands.len() as u64);
        let labels: Vec<String> = cands.iter().map(|c| c.label()).collect();
        let ties: Vec<u64> = labels.iter().map(|l| tie_break(cfg.seed, l)).collect();

        let lb_engine = InterpretationEngine::with_options(
            &machine,
            InterpOptions {
                zero_comm: true,
                ..InterpOptions::default()
            },
        );
        let full_engine = InterpretationEngine::with_options(&machine, InterpOptions::default());

        // Stage 1: compile every candidate once and take its
        // zero-communication lower bound, fanned across the pool. The
        // front half runs once; a program it rejects has no valid
        // candidate. The session (SPMD + AAG) is memoized for later stages.
        let front = self.front(cfg.n).ok();
        let sessions: Vec<Option<CandidateSession>> =
            pool::map_indexed(cands.len(), cfg.threads, |i| {
                let _s = hpf_trace::span("lower_bound");
                let spmd = front.as_ref()?.compile(&cands[i], cfg.procs).ok()?;
                let aag = appgraph::build_aag(&spmd);
                let lower_bound_s = lb_engine.interpret(&aag).total_seconds();
                Some(CandidateSession {
                    spmd,
                    aag,
                    lower_bound_s,
                })
            });
        let invalid = sessions.iter().filter(|s| s.is_none()).count();

        // Stage 2: deterministic wave-based branch-and-bound. Visit
        // candidates in ascending-lower-bound order; a candidate whose
        // bound already meets the best fully-evaluated time cannot win
        // and is pruned without evaluation.
        let mut order: Vec<usize> = (0..cands.len())
            .filter(|&i| sessions[i].is_some())
            .collect();
        order.sort_by(|&a, &b| {
            let la = sessions[a].as_ref().unwrap().lower_bound_s;
            let lb = sessions[b].as_ref().unwrap().lower_bound_s;
            la.total_cmp(&lb).then(ties[a].cmp(&ties[b]))
        });

        let mut incumbent = f64::INFINITY;
        let mut pruned = 0usize;
        let mut predictions: Vec<Option<Metrics>> = vec![None; cands.len()];
        for wave in order.chunks(WAVE_WIDTH) {
            let selected: Vec<usize> = wave
                .iter()
                .copied()
                .filter(|&i| {
                    let keep = sessions[i].as_ref().unwrap().lower_bound_s < incumbent;
                    if !keep {
                        pruned += 1;
                    }
                    keep
                })
                .collect();
            let evals: Vec<Metrics> = pool::map_indexed(selected.len(), cfg.threads, |j| {
                let _s = hpf_trace::span("evaluate");
                hpf_trace::counter_add("advisor.sessions_reused", 1);
                full_engine
                    .interpret(&sessions[selected[j]].as_ref().unwrap().aag)
                    .total
            });
            for (j, m) in evals.into_iter().enumerate() {
                if m.time() < incumbent {
                    incumbent = m.time();
                }
                predictions[selected[j]] = Some(m);
            }
        }
        hpf_trace::counter_add("advisor.pruned", pruned as u64);
        let evaluated: Vec<usize> = (0..cands.len())
            .filter(|&i| predictions[i].is_some())
            .collect();
        hpf_trace::counter_add("advisor.evaluated", evaluated.len() as u64);

        // Rank the evaluated candidates: best predicted time first,
        // seeded-hash tie-break for bit-stable ordering.
        let mut rank_order = evaluated.clone();
        rank_order.sort_by(|&a, &b| {
            let ta = predictions[a].unwrap().time();
            let tb = predictions[b].unwrap().time();
            ta.total_cmp(&tb).then(ties[a].cmp(&ties[b]))
        });

        // Stage 3: cross-validate the leaders against the DES simulator on
        // the model the predictions read, re-serving the memoized sessions
        // and the shared functional profile (one interpreter run per
        // problem size, process-wide, because the profile ignores
        // directives).
        let top: Vec<usize> = rank_order.iter().take(cfg.top_k).copied().collect();
        let profile = front.as_ref().filter(|_| !top.is_empty()).map(|front| {
            let (p, reused) =
                shared_profile(&self.source, cfg.n, cfg.profile_steps, &front.analyzed);
            if reused {
                hpf_trace::counter_add("advisor.profile_reused", 1);
            }
            p
        });
        let profile = profile.flatten();
        let sims: Vec<f64> = pool::map_indexed(top.len(), cfg.threads, |j| {
            let _s = hpf_trace::span("simulate");
            hpf_trace::counter_add("advisor.sessions_reused", 1);
            let sim = Simulator::with_config(
                &machine,
                SimConfig {
                    runs: cfg.sim_runs,
                    ..SimConfig::default()
                },
            );
            sim.simulate(&sessions[top[j]].as_ref().unwrap().spmd, profile.as_deref())
                .mean
        });

        let ranked: Vec<RankedCandidate> = rank_order
            .iter()
            .map(|&i| {
                let m = predictions[i].unwrap();
                let simulated_s = top.iter().position(|&t| t == i).map(|j| sims[j]);
                let sim_error_pct = simulated_s.map(|s| {
                    if s > 0.0 {
                        100.0 * (m.time() - s).abs() / s
                    } else {
                        0.0
                    }
                });
                RankedCandidate {
                    candidate: cands[i].clone(),
                    label: labels[i].clone(),
                    predicted_s: m.time(),
                    metrics: m,
                    lower_bound_s: sessions[i].as_ref().unwrap().lower_bound_s,
                    simulated_s,
                    sim_error_pct,
                }
            })
            .collect();

        Ok(AdvisorReport {
            kernel: self.name.clone(),
            n: cfg.n,
            procs: cfg.procs,
            machine: cfg.machine.clone(),
            candidates: cands.len(),
            pruned,
            invalid,
            sessions_reused: (evaluated.len() + top.len()) as u64,
            profile_available: profile.is_some(),
            ranked,
        })
    }

    /// The front half at problem size `n`: semantic analysis with the
    /// `N = n` override, normalization and the lowering plan, run once per
    /// search.
    pub fn front(&self, n: usize) -> Result<Front, PipelineError> {
        let overrides = BTreeMap::from([("N".to_string(), n as i64)]);
        let analyzed = analyze_front(&self.program, &overrides)?;
        let plan = {
            let _s = hpf_trace::span("compile");
            let normalized = normalize(&analyzed).map_err(CompileError::from)?;
            LowerPlan::new(&analyzed, &normalized, &CompileOptions::default())
        };
        Ok(Front {
            overrides,
            analyzed,
            plan,
        })
    }
}

/// One row of the merged cross-machine ranking: a candidate evaluated on
/// a specific registered machine.
#[derive(Debug, Clone)]
pub struct CrossMachineRow {
    /// Registry name of the machine this row was evaluated on.
    pub machine: String,
    pub candidate: RankedCandidate,
}

/// The paper's cluster-comparison question as one artifact: the same
/// directive space searched on several registered machines, merged into a
/// single ranking by predicted time.
#[derive(Debug, Clone)]
pub struct CrossMachineReport {
    pub kernel: String,
    pub n: usize,
    pub procs: usize,
    /// Per-machine search reports, in the caller's machine order.
    pub reports: Vec<AdvisorReport>,
    /// All evaluated candidates across machines, best predicted first.
    pub ranked: Vec<CrossMachineRow>,
}

impl Advisor {
    /// Run [`Advisor::search`] once per named machine and merge the ranked
    /// tables into a single cross-machine ranking. Each per-machine search
    /// keeps its own determinism contract, and the merge orders rows by
    /// predicted time, equal times by a seeded order of the machines and
    /// then by each machine's own rank, so the combined table is
    /// bit-identical across runs and thread counts and, restricted to one
    /// machine, is that machine's ranked list. An unknown machine name
    /// fails the whole call with the registry's structured error.
    pub fn search_cross(
        &self,
        cfg: &AdvisorConfig,
        machines: &[impl AsRef<str>],
    ) -> Result<CrossMachineReport, PipelineError> {
        let mut reports = Vec::with_capacity(machines.len());
        for name in machines {
            let per = AdvisorConfig {
                machine: name.as_ref().to_string(),
                ..cfg.clone()
            };
            reports.push(self.search(&per)?);
        }
        let mut keyed: Vec<(u64, usize, CrossMachineRow)> = reports
            .iter()
            .flat_map(|r| {
                let machine_key = tie_break(cfg.seed, &r.machine);
                r.ranked.iter().enumerate().map(move |(rank, c)| {
                    let row = CrossMachineRow {
                        machine: r.machine.clone(),
                        candidate: c.clone(),
                    };
                    (machine_key, rank, row)
                })
            })
            .collect();
        keyed.sort_by(|(ma, ra, a), (mb, rb, b)| {
            a.candidate
                .predicted_s
                .total_cmp(&b.candidate.predicted_s)
                .then(ma.cmp(mb))
                .then(ra.cmp(rb))
        });
        let ranked = keyed.into_iter().map(|(_, _, row)| row).collect();
        Ok(CrossMachineReport {
            kernel: self.name.clone(),
            n: cfg.n,
            procs: cfg.procs,
            reports,
            ranked,
        })
    }
}

/// Render the merged cross-machine ranking, in the same fixed-precision
/// style as [`render_table`] with a leading machine column. Shared by the
/// `advise --machines` CLI and the golden artifact.
pub fn render_cross_table(r: &CrossMachineReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hpf-advisor cross-machine: {}  n={}  budget P={}",
        r.kernel, r.n, r.procs
    );
    let machines: Vec<&str> = r.reports.iter().map(|m| m.machine.as_str()).collect();
    let _ = writeln!(out, "machines: {}", machines.join(", "));
    for rep in &r.reports {
        let _ = writeln!(
            out,
            "  {:<12} space: {} candidates   evaluated: {}   pruned: {}   invalid: {}",
            rep.machine,
            rep.candidates,
            rep.ranked.len(),
            rep.pruned,
            rep.invalid
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>4}  {:<12} {:<38} {:>13} {:>6} {:>6} {:>13} {:>7}",
        "rank", "machine", "directives", "predicted(s)", "comp%", "comm%", "simulated(s)", "err%"
    );
    for (i, row) in r.ranked.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4}  {:<12} {}",
            i + 1,
            row.machine,
            candidate_cells(&row.candidate)
        );
    }
    out
}

/// The directives, predicted(s), comp%, comm%, simulated(s) and err% cells
/// of one ranked candidate: the row both advisor tables print after their
/// rank (and machine) columns.
fn candidate_cells(c: &RankedCandidate) -> String {
    let t = c.predicted_s;
    let pct = |x: f64| if t > 0.0 { 100.0 * x / t } else { 0.0 };
    let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    format!(
        "{:<38} {:>13.6} {:>6.1} {:>6.1} {:>13} {:>7}",
        c.label,
        t,
        pct(c.metrics.comp),
        pct(c.metrics.comm),
        or_dash(c.simulated_s.map(|s| format!("{s:.6}"))),
        or_dash(c.sim_error_pct.map(|e| format!("{e:.2}")))
    )
}

/// Seeded FNV-1a over the candidate label: the total, stable tie-break
/// order for equal predicted times (and equal lower bounds).
fn tie_break(seed: u64, label: &str) -> u64 {
    fnv1a(
        FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        label.as_bytes(),
    )
}

/// Render the ranked table exactly as the `advise` binary prints it —
/// shared so the golden artifact and the bit-identity tests cover the
/// same string. Timings are formatted to fixed precision; no wall-clock
/// or machine-local value enters the output.
pub fn render_table(r: &AdvisorReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hpf-advisor: {}  n={}  budget P={}",
        r.kernel, r.n, r.procs
    );
    let _ = writeln!(
        out,
        "space: {} candidates   evaluated: {}   pruned: {}   invalid: {}",
        r.candidates,
        r.ranked.len(),
        r.pruned,
        r.invalid
    );
    let _ = writeln!(
        out,
        "sessions reused: {}   profile: {}",
        r.sessions_reused,
        if r.profile_available {
            "shared"
        } else {
            "budget-exceeded"
        }
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>4}  {:<38} {:>13} {:>6} {:>6} {:>13} {:>7}",
        "rank", "directives", "predicted(s)", "comp%", "comm%", "simulated(s)", "err%"
    );
    for (i, c) in r.ranked.iter().enumerate() {
        let _ = writeln!(out, "{:>4}  {}", i + 1, candidate_cells(c));
    }
    out
}

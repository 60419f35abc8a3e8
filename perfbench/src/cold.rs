//! `cold_pipeline`: single programs, each run cold on one thread through
//! every layer — parse, analyze, compile, build_aag, interpret, evaluate,
//! simulate.
//!
//! The draw is stratified so that every seed does the same kind of work:
//! round `r` visits every `(kernel, n)` cell of [`CELLS`] once, in a
//! seeded order, and gives each cell one of the sixteen `(procs,
//! machine)` combinations, rotating so that sixteen consecutive rounds
//! visit all of them. Both are pure functions of `(seed, index)`.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use hpf_compiler::CompileOptions;
use interp::{InterpOptions, InterpretationEngine};
use ipsc_sim::{SimConfig, Simulator};
use kernels::{CompiledKernel, Kernel};
use machine::MachineModel;
use report::experiments::SweepConfig;
use report::SweepSession;

use crate::stats::{median, quantile, splitmix64, LATENCY_SAMPLES};
use crate::{alloc, Args, Outcome};

/// The `(kernel, sizes)` cells. Sizes are those at which the paper's ±20%
/// accuracy band holds on all four machines at 1, 2, 4 and 8 nodes, and
/// the evaluator takes at most ~60 ms, so no single program dominates a
/// round. LFK 3 is left out: it misses the band on `multicore` at every
/// size up to 4096.
const CELLS: &[(&str, &[usize])] = &[
    ("LFK 1", &[1024, 2048, 4096]),
    ("LFK 2", &[1024, 2048, 4096]),
    ("LFK 9", &[1024, 2048, 4096]),
    ("LFK 14", &[1024, 2048, 4096]),
    ("LFK 22", &[1024, 2048, 4096]),
    ("PBS 1", &[1024, 2048, 4096]),
    ("PBS 2", &[256, 512, 1024, 2048]),
    ("PBS 3", &[1024, 2048, 4096]),
    ("PBS 4", &[2048, 4096]),
    ("PI", &[2048, 4096]),
    ("N-Body", &[32, 64, 128]),
    ("Financial", &[32, 64, 128]),
    ("Laplace (Blk-Blk)", &[16, 32, 64]),
    ("Laplace (Blk-X)", &[16, 32]),
    ("Laplace (X-Blk)", &[16, 32]),
    ("Laplace OOC", &[16, 32]),
    ("N-Body OOC", &[128]),
];

const PROCS: [usize; 4] = [1, 2, 4, 8];
/// Simulated runs per program (the quick sweep's setting).
const SIM_RUNS: usize = 50;
/// `hpf_eval::run`'s own step budget, passed explicitly so the
/// compile-once reference profiles under the same one.
const STEP_LIMIT: u64 = 500_000_000;
/// The paper's accuracy band, percent.
const BAND_PCT: f64 = 20.0;
/// The traced run counts allocations over rounds `[0, COUNTER_ROUNDS)`
/// and reads the program's own counters over the next `COUNTER_ROUNDS`.
const COUNTER_ROUNDS: usize = 2;

/// Layer order of one program, and the per-layer metric names.
const LAYERS: [&str; 7] = [
    "hpf-lang.parse",
    "hpf-lang.analyze",
    "hpf-compiler.compile",
    "appgraph.build_aag",
    "interp.interpret",
    "hpf-eval.run",
    "ipsc-sim.simulate",
];

struct Combo {
    procs: usize,
    machine: &'static str,
    calibrated: MachineModel,
    params: MachineModel,
}

pub struct State {
    cells: Vec<(Kernel, usize)>,
    combos: Vec<Combo>,
}

/// Set-up: resolve the kernels and calibrate every `(machine, procs)`
/// combination afresh (the paper's off-line system abstraction).
pub fn setup() -> State {
    let mut cells = Vec::new();
    for &(name, sizes) in CELLS {
        let kernel = kernels::kernel_by_name(name).expect("cell names a suite kernel");
        for &n in sizes {
            cells.push((kernel.clone(), n));
        }
    }
    let mut combos = Vec::new();
    for machine in hpf_machines::machine_names() {
        for procs in PROCS {
            let calibrated = if machine == hpf_machines::DEFAULT_MACHINE {
                ipsc_sim::calibrate(procs)
            } else {
                let backend = hpf_machines::machine(machine).expect("registered machine");
                ipsc_sim::calibrate_backend(backend, procs).expect("node count in range")
            };
            let params =
                report::pipeline::machine_params(machine, procs).expect("node count in range");
            combos.push(Combo {
                procs,
                machine,
                calibrated,
                params,
            });
        }
    }
    State { cells, combos }
}

/// Round `round`'s seeded visiting order over the cells.
fn round_order(seed: u64, round: usize, cells: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    let mut h = splitmix64(seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    for i in (1..cells).rev() {
        h = splitmix64(h);
        order.swap(i, (h % (i as u64 + 1)) as usize);
    }
    order
}

/// The `(procs, machine)` combination cell `cell` gets in round `round`.
fn combo_of(seed: u64, round: usize, cell: usize, combos: usize) -> usize {
    (round + (splitmix64(seed ^ (cell as u64).wrapping_mul(0x9E37_79B9)) % combos as u64) as usize)
        % combos
}

/// One program's outputs and timings.
struct Ran {
    round: usize,
    cell: usize,
    combo: usize,
    predicted_s: f64,
    simulated_s: f64,
    steps: u64,
    wall_ns: u64,
    layer_ns: [u64; 7],
}

/// Work counts of one program, taken in the traced run.
struct Census {
    allocs: [u64; 7],
    aaus: u64,
    comm_records: u64,
    io_phases: u64,
}

/// Per-layer times and, when `count` is set, allocation counts of one
/// program, in [`LAYERS`] order.
struct Timings {
    ns: [u64; 7],
    allocs: [u64; 7],
    count: bool,
}

impl Timings {
    /// Time the call `f` into layer `i` (and count its allocations).
    fn run<T>(&mut self, i: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let (out, allocs) = if self.count {
            alloc::counted(f)
        } else {
            (f(), 0)
        };
        self.ns[i] = t.elapsed().as_nanos() as u64;
        self.allocs[i] = allocs;
        out
    }
}

/// Run one program cold. `count` switches on per-layer allocation counts.
fn run_program(
    state: &State,
    round: usize,
    cell: usize,
    combo: usize,
    count: bool,
) -> Result<(Ran, Census), String> {
    let (kernel, n) = &state.cells[cell];
    let c = &state.combos[combo];
    let src = kernel.source(*n, c.procs);
    let mut t = Timings {
        ns: [0; 7],
        allocs: [0; 7],
        count,
    };
    let t0 = Instant::now();
    let program = t
        .run(0, || hpf_lang::parse_program(&src))
        .map_err(|e| e.to_string())?;
    let analyzed = t
        .run(1, || hpf_lang::analyze(&program, &BTreeMap::new()))
        .map_err(|e| e.to_string())?;
    let opts = CompileOptions {
        nodes: c.procs,
        ..CompileOptions::default()
    };
    let spmd = t
        .run(2, || hpf_compiler::compile(&analyzed, &opts))
        .map_err(|e| e.to_string())?;
    let aag = t.run(3, || appgraph::build_aag(&spmd));
    let engine = InterpretationEngine::with_options(&c.calibrated, InterpOptions::default());
    let prediction = t.run(4, || engine.interpret(&aag));
    let outcome = t
        .run(5, || hpf_eval::run_with_limit(&analyzed, STEP_LIMIT))
        .map_err(|e| e.message)?;
    let sim = Simulator::with_config(
        &c.params,
        SimConfig {
            runs: SIM_RUNS,
            ..SimConfig::default()
        },
    );
    let measured = t.run(6, || sim.simulate(&spmd, Some(&outcome.profile)));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let census = Census {
        allocs: t.allocs,
        aaus: aag.aaus.len() as u64,
        comm_records: aag.comm_table.len() as u64,
        io_phases: aag.census().io as u64,
    };
    Ok((
        Ran {
            round,
            cell,
            combo,
            predicted_s: prediction.total_seconds(),
            simulated_s: measured.mean,
            steps: outcome.profile.total_steps,
            wall_ns,
            layer_ns: t.ns,
        },
        census,
    ))
}

/// The compile-once reference for one point: predicted total, simulated
/// mean and evaluator steps through `CompiledKernel::bind` and
/// `SweepSession`, plus the bind time.
struct Reference {
    predicted_s: f64,
    simulated_s: f64,
    steps: u64,
    bind_ns: u64,
}

fn reference(
    state: &State,
    sessions: &mut BTreeMap<(&'static str, &'static str), SweepSession>,
    compiled: &mut HashMap<&'static str, CompiledKernel>,
    cell: usize,
    combo: usize,
) -> Result<Reference, String> {
    let (kernel, n) = &state.cells[cell];
    let c = &state.combos[combo];
    let session = match sessions.entry((kernel.name, c.machine)) {
        std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::btree_map::Entry::Vacant(v) => {
            let cfg = SweepConfig {
                runs: SIM_RUNS,
                profile_steps: STEP_LIMIT,
                machine: c.machine.to_string(),
                ..SweepConfig::quick()
            };
            v.insert(SweepSession::new(kernel, &cfg).map_err(|e| e.to_string())?)
        }
    };
    let sample = session.evaluate(*n, c.procs).map_err(|e| e.to_string())?;
    let artifact = match compiled.entry(kernel.name) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            v.insert(CompiledKernel::new(kernel).map_err(|e| e.to_string())?)
        }
    };
    let t = Instant::now();
    let (analyzed, _) = artifact
        .bind(*n as i64, c.procs, &CompileOptions::default())
        .map_err(|e| e.to_string())?;
    let bind_ns = t.elapsed().as_nanos() as u64;
    let (profile, _) =
        report::shared_profile(artifact.canonical_source(), *n, STEP_LIMIT, &analyzed);
    let steps = profile
        .map(|p| p.total_steps)
        .ok_or("reference profile over budget")?;
    Ok(Reference {
        predicted_s: sample.predicted_s,
        simulated_s: sample.measured_s,
        steps,
        bind_ns,
    })
}

pub fn run(args: &Args) -> Outcome {
    let state = setup();
    let cells = state.cells.len();
    let combos = state.combos.len();
    let mut out = Outcome::default();

    let mut ran: Vec<Ran> = Vec::new();
    let mut censuses: Vec<Census> = Vec::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut order = Vec::new();
    // Complete rounds needed to hold the programs a p99 needs.
    let min_rounds = LATENCY_SAMPLES.div_ceil(cells);
    let start = Instant::now();
    let mut i = 0usize;
    // The run ends on a round boundary, so that it measures whole rounds.
    let elapsed_s = loop {
        let (round, pos) = (i / cells, i % cells);
        if pos == 0 {
            let counters_done = !args.trace || round >= 2 * COUNTER_ROUNDS;
            let elapsed_s = start.elapsed().as_secs_f64();
            if counters_done && round >= min_rounds && elapsed_s >= args.seconds {
                break elapsed_s;
            }
            if args.trace && round == COUNTER_ROUNDS {
                hpf_trace::reset();
                hpf_trace::enable();
            }
            if args.trace && round == 2 * COUNTER_ROUNDS {
                for name in [
                    "interp.aaus",
                    "sim.events",
                    "sim.route_cache_hit",
                    "sim.route_cache_miss",
                ] {
                    counters.insert(name, hpf_trace::counter_get(name));
                }
                hpf_trace::disable();
            }
            order = round_order(args.seed, round, cells);
        }
        let cell = order[pos];
        let combo = combo_of(args.seed, round, cell, combos);
        let count = args.trace && round < COUNTER_ROUNDS;
        match run_program(&state, round, cell, combo, count) {
            Ok((r, census)) => {
                ran.push(r);
                if count {
                    censuses.push(census);
                }
            }
            Err(e) => {
                out.fail(format!("program {i} (cell {cell}, combo {combo}): {e}"));
            }
        }
        i += 1;
    };
    out.attempted = i as u64;
    out.put("peak_rss_mb", crate::os::peak_rss_mb());

    // Output checks, outside the timed region: every program against the
    // compile-once path for the same point, and inside the paper's band.
    let mut sessions = BTreeMap::new();
    let mut compiled = HashMap::new();
    let mut refs: HashMap<(usize, usize), Reference> = HashMap::new();
    let mut errors = Vec::with_capacity(ran.len());
    for r in &ran {
        if let std::collections::hash_map::Entry::Vacant(v) = refs.entry((r.cell, r.combo)) {
            match reference(&state, &mut sessions, &mut compiled, r.cell, r.combo) {
                Ok(reference) => {
                    v.insert(reference);
                }
                Err(e) => {
                    out.fail(format!(
                        "reference for cell {} combo {}: {e}",
                        r.cell, r.combo
                    ));
                    continue;
                }
            }
        }
        let reference = &refs[&(r.cell, r.combo)];
        let err_pct = 100.0 * (r.predicted_s - r.simulated_s).abs() / r.simulated_s;
        errors.push(err_pct);
        let (kernel, n) = &state.cells[r.cell];
        let c = &state.combos[r.combo];
        let point = format!("{} n={n} procs={} on {}", kernel.name, c.procs, c.machine);
        if r.predicted_s.to_bits() != reference.predicted_s.to_bits()
            || r.simulated_s.to_bits() != reference.simulated_s.to_bits()
            || r.steps != reference.steps
        {
            out.fail(format!(
                "{point}: cold ({}, {}, {} steps) != compile-once ({}, {}, {} steps)",
                r.predicted_s,
                r.simulated_s,
                r.steps,
                reference.predicted_s,
                reference.simulated_s,
                reference.steps
            ));
        } else if err_pct >= BAND_PCT {
            out.fail(format!(
                "{point}: prediction error {err_pct:.2}% outside the band"
            ));
        }
    }

    let mut latencies: Vec<f64> = ran.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    latencies.sort_by(f64::total_cmp);
    out.put("ops_per_s", ran.len() as f64 / elapsed_s);
    out.put("latency_p50_ms", quantile(&latencies, 0.50));
    out.put("latency_p99_ms", quantile(&latencies, 0.99));
    errors.sort_by(f64::total_cmp);
    out.put("pred_err_median_pct", median(&errors));
    out.put("pred_err_max_pct", errors.last().copied().unwrap_or(0.0));

    if args.trace {
        let programs = ran.len().max(1) as f64;
        let sum_layer = |l: usize| ran.iter().map(|r| r.layer_ns[l]).sum::<u64>() as f64;
        for (l, name) in LAYERS.iter().enumerate() {
            out.put_layer(name, "ms_per_op", sum_layer(l) / 1e6 / programs);
        }
        let layers_ns: f64 = (0..LAYERS.len()).map(sum_layer).sum();
        let wall_ns: f64 = ran.iter().map(|r| r.wall_ns as f64).sum();
        out.put("attributed_frac", layers_ns / wall_ns);
        let steps: u64 = ran.iter().map(|r| r.steps).sum();
        out.put("hpf-eval.ns_per_step", sum_layer(5) / steps.max(1) as f64);
        let binds: Vec<f64> = refs.values().map(|r| r.bind_ns as f64 / 1e6).collect();
        out.put(
            "kernels.bind.ms_per_op",
            binds.iter().sum::<f64>() / binds.len().max(1) as f64,
        );

        // Deterministic counts: over the fixed leading rounds only, so
        // two runs of one seed count the same programs.
        let counted = censuses.len().max(1) as f64;
        let per = |f: &dyn Fn(&Census) -> u64| censuses.iter().map(f).sum::<u64>() as f64 / counted;
        let counted_steps: u64 = ran
            .iter()
            .filter(|r| r.round < COUNTER_ROUNDS)
            .map(|r| r.steps)
            .sum();
        out.put("hpf-eval.steps_per_op", counted_steps as f64 / counted);
        out.put(
            "hpf-lang.allocs_per_op",
            per(&|c| c.allocs[0] + c.allocs[1]),
        );
        out.put("hpf-compiler.allocs_per_op", per(&|c| c.allocs[2]));
        out.put("hpf-eval.allocs_per_op", per(&|c| c.allocs[5]));
        out.put("ipsc-sim.allocs_per_op", per(&|c| c.allocs[6]));
        out.put("appgraph.aaus_per_op", per(&|c| c.aaus));
        out.put("appgraph.comm_records_per_op", per(&|c| c.comm_records));
        out.put("hpf-io.io_phases_per_op", per(&|c| c.io_phases));
        let window = (COUNTER_ROUNDS * cells) as f64;
        out.put(
            "interp.aaus_per_op",
            counters["interp.aaus"] as f64 / window,
        );
        out.put(
            "ipsc-sim.events_per_op",
            counters["sim.events"] as f64 / window,
        );
        let (hit, miss) = (
            counters["sim.route_cache_hit"] as f64,
            counters["sim.route_cache_miss"] as f64,
        );
        out.put(
            "ipsc-sim.route_cache_hit_ratio",
            hit / (hit + miss).max(1.0),
        );
    }
    out
}

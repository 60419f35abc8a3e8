//! The interactive environment (§3.4's output interface and §5.3's
//! menu-driven workflow), as a scriptable command session: load a program,
//! vary parameters, directives and the target machine *from within the
//! interface*, predict, query lines, compare against the simulated
//! machine, and search the directive space with the [`Advisor`].
//!
//! The REPL loop is [`Session::run_script`] over [`Session::execute`];
//! the binary (`bin/hpfenv`) runs it on stdin, and keeping the engine here
//! makes every command and whole scripts testable. Every command targets one registered machine by name
//! (`machine <name>`, default `ipsc860`), so the registry validates the
//! node count on every path.

use crate::search::{render_table, Advisor, AdvisorConfig};
use hpf_compiler::CompileOptions;
use hpf_lang::{AnalyzedProgram, SymbolKind, Value};
use interp::{
    profile_report, query_line, query_lines, InterpOptions, InterpretationEngine, Prediction,
};
use ipsc_sim::{SimConfig, Simulator};
use machine::MachineModel;
use report::pipeline::{
    calibrated_machine_for, compile_source, machine_params, profile_with_limit, simulate_source,
    Bound, SimulateOptions,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::sync::Arc;

/// Interactive session state.
pub struct Session {
    source: Option<String>,
    source_name: String,
    nodes: usize,
    /// Registry name of the target machine (`hpf_machines::machine_names`).
    machine: String,
    overrides: BTreeMap<String, i64>,
    copts: CompileOptions,
    iopts: InterpOptions,
    runs: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            source: None,
            source_name: String::new(),
            nodes: 8,
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
            overrides: BTreeMap::new(),
            copts: CompileOptions::default(),
            iopts: InterpOptions::default(),
            runs: 1000,
        }
    }
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// The calibrated model of the target machine at the session's node
    /// count; the registry rejects counts the machine does not support.
    fn model(&self) -> Result<Arc<MachineModel>, String> {
        calibrated_machine_for(&self.machine, self.nodes).map_err(|e| e.to_string())
    }

    fn require_source(&self) -> Result<&str, String> {
        self.source.as_deref().ok_or_else(|| {
            "no program loaded — use `kernel <name> [size]` or `load <path>`".to_string()
        })
    }

    /// The REPL: execute each line of `input` until its end or `quit`,
    /// writing each command's output to `out` and each error, as
    /// `error: <message>`, to `err`. A non-empty `prompt` is written to
    /// `out` before each line is read.
    pub fn run_script(
        &mut self,
        input: impl BufRead,
        out: &mut impl io::Write,
        err: &mut impl io::Write,
        prompt: &str,
    ) -> io::Result<()> {
        let mut lines = input.lines();
        loop {
            if !prompt.is_empty() {
                write!(out, "{prompt}")?;
                out.flush()?;
            }
            let Some(Ok(line)) = lines.next() else {
                return Ok(());
            };
            match self.execute(&line) {
                Ok(text) if text.is_empty() => {}
                Ok(text) => writeln!(out, "{text}")?,
                Err(e) if e == "quit" => return Ok(()),
                Err(e) => writeln!(err, "error: {e}")?,
            }
        }
    }

    /// Execute one command line; returns the text to display.
    pub fn execute(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_lowercase().as_str() {
            "help" => Ok(HELP.to_string()),
            "kernel" => self.cmd_kernel(rest),
            "load" => self.cmd_load(rest),
            "source" => Ok(self.require_source()?.to_string()),
            "set" => self.cmd_set(rest),
            "show" => Ok(self.cmd_show()),
            "predict" => self.cmd_predict(),
            "profile" => self.cmd_profile(),
            "line" => self.cmd_line(rest),
            "lines" => self.cmd_lines(rest),
            "outline" => self.cmd_outline(),
            "aag" => self.cmd_aag(),
            "dists" => self.cmd_dists(),
            "simulate" => self.cmd_simulate(rest),
            "compare" => self.cmd_compare(),
            "search" => self.cmd_search(),
            "trace" => self.cmd_trace(),
            "machine" => self.cmd_machine(rest),
            "quit" | "exit" => Err("quit".into()),
            other => Err(format!("unknown command `{other}` — try `help`")),
        }
    }

    fn cmd_kernel(&mut self, rest: &str) -> Result<String, String> {
        // `kernel LFK 1 256` / `kernel PI` / `kernel Laplace (Blk-X) 64`
        let (name, size) = match rest.rsplit_once(' ') {
            Some((n, s)) if s.parse::<usize>().is_ok() => (n.trim(), s.parse().unwrap()),
            _ => (rest, 0usize),
        };
        let k = kernels::kernel_by_name(name)
            .ok_or_else(|| format!("unknown kernel `{name}` — see the `table1` binary"))?;
        let size = if size == 0 {
            k.size_range.1.min(256)
        } else {
            size
        };
        self.source = Some(k.source(size, self.nodes));
        self.source_name = format!("{name} (n={size})");
        Ok(format!(
            "loaded {} for {} nodes",
            self.source_name, self.nodes
        ))
    }

    fn cmd_load(&mut self, path: &str) -> Result<String, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        self.source = Some(text);
        self.source_name = path.to_string();
        Ok(format!("loaded {path}"))
    }

    fn cmd_set(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let key = parts.next().ok_or("usage: set <key> <value>")?;
        let val = parts.next().ok_or("usage: set <key> <value>")?;
        match key.to_ascii_lowercase().as_str() {
            "nodes" => {
                self.nodes = val.parse().map_err(|_| "nodes must be an integer")?;
                Ok(format!("nodes = {}", self.nodes))
            }
            "runs" => {
                self.runs = val.parse().map_err(|_| "runs must be an integer")?;
                Ok(format!("runs = {}", self.runs))
            }
            "mask-density" => {
                self.copts.mask_density_hint =
                    val.parse().map_err(|_| "mask-density must be a float")?;
                Ok(format!(
                    "mask density hint = {}",
                    self.copts.mask_density_hint
                ))
            }
            "while-trips" => {
                self.copts.while_trips_hint =
                    val.parse().map_err(|_| "while-trips must be an integer")?;
                Ok(format!(
                    "while trips hint = {}",
                    self.copts.while_trips_hint
                ))
            }
            "memory-model" => {
                self.iopts.memory_hierarchy = val.parse().map_err(|_| "true/false")?;
                Ok(format!(
                    "memory hierarchy model = {}",
                    self.iopts.memory_hierarchy
                ))
            }
            "overlap" => {
                self.iopts.overlap_comp_comm = val.parse().map_err(|_| "true/false")?;
                Ok(format!(
                    "comp/comm overlap model = {}",
                    self.iopts.overlap_comp_comm
                ))
            }
            name if name.starts_with("param:") => {
                let pname = name.trim_start_matches("param:").to_ascii_uppercase();
                let v: i64 = val
                    .parse()
                    .map_err(|_| "parameter value must be an integer")?;
                self.overrides.insert(pname.clone(), v);
                Ok(format!("{pname} = {v} (override)"))
            }
            // Critical variables the tracer could not resolve (§4.2).
            name if name.starts_with("critical:") => {
                let cname = name.trim_start_matches("critical:").to_ascii_uppercase();
                let v: i64 = val
                    .parse()
                    .map_err(|_| "critical value must be an integer")?;
                self.copts.critical_values.insert(cname.clone(), v);
                Ok(format!("critical {cname} = {v}"))
            }
            other => Err(format!(
                "unknown setting `{other}` (nodes, runs, mask-density, while-trips, \
                 memory-model, overlap, param:<NAME>, critical:<NAME>)"
            )),
        }
    }

    fn cmd_show(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program    : {}",
            if self.source.is_some() {
                &self.source_name
            } else {
                "<none>"
            }
        );
        let _ = writeln!(out, "machine    : {} × {}", self.machine, self.nodes);
        let _ = writeln!(out, "runs       : {}", self.runs);
        let _ = writeln!(out, "mask hint  : {}", self.copts.mask_density_hint);
        let _ = writeln!(out, "overrides  : {:?}", self.overrides);
        let _ = writeln!(out, "criticals  : {:?}", self.copts.critical_values);
        out
    }

    fn compiled(&self) -> Result<Bound, String> {
        compile_source(
            self.require_source()?,
            self.nodes,
            &self.overrides,
            &self.copts,
        )
        .map_err(|e| e.to_string())
    }

    fn sim_options(&self, runs: usize) -> SimulateOptions {
        SimulateOptions {
            nodes: self.nodes,
            param_overrides: self.overrides.clone(),
            compile: self.copts.clone(),
            sim: SimConfig {
                runs,
                ..Default::default()
            },
            machine: self.machine.clone(),
        }
    }

    /// The session's program, bound and predicted on the target machine,
    /// with the one model it was predicted on.
    fn predicted(&self) -> Result<(Prediction, Bound, Arc<MachineModel>), String> {
        let bound = self.compiled()?;
        let machine = self.model()?;
        let pred =
            InterpretationEngine::with_options(&machine, self.iopts.clone()).interpret(&bound.aag);
        Ok((pred, bound, machine))
    }

    fn cmd_predict(&self) -> Result<String, String> {
        let (pred, bound, machine) = self.predicted()?;
        let mut out = String::new();
        for w in &bound.spmd.warnings {
            let _ = writeln!(out, "{w}");
        }
        let _ = write!(
            out,
            "estimated {:.6} s on {} (comp {:.6}, comm {:.6}, ovhd {:.6})",
            pred.total_seconds(),
            machine.name,
            pred.total.comp,
            pred.total.comm,
            pred.total.overhead
        );
        Ok(out)
    }

    fn cmd_profile(&self) -> Result<String, String> {
        let (pred, bound, _) = self.predicted()?;
        Ok(profile_report(&pred, &bound.aag, &self.source_name))
    }

    fn cmd_line(&self, rest: &str) -> Result<String, String> {
        let n: u32 = rest
            .trim()
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("usage: line <number>, counting from 1")?;
        let (pred, bound, _) = self.predicted()?;
        let m = query_line(&pred, &bound.aag, n);
        let text = self
            .require_source()?
            .lines()
            .nth(n as usize - 1)
            .unwrap_or("")
            .trim()
            .to_string();
        Ok(format!(
            "line {n}: {:.1} µs (comp {:.1}, comm {:.1}, ovhd {:.1})  | {text}",
            m.time() * 1e6,
            m.comp * 1e6,
            m.comm * 1e6,
            m.overhead * 1e6
        ))
    }

    fn cmd_lines(&self, rest: &str) -> Result<String, String> {
        let mut it = rest.split_whitespace();
        let a: u32 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("usage: lines <a> <b>")?;
        let b: u32 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("usage: lines <a> <b>")?;
        let (pred, bound, _) = self.predicted()?;
        let m = query_lines(&pred, &bound.aag, a..=b);
        Ok(format!(
            "lines {a}-{b}: {:.1} µs (comm fraction {:.1}%)",
            m.time() * 1e6,
            100.0 * m.comm_fraction()
        ))
    }

    fn cmd_outline(&self) -> Result<String, String> {
        Ok(self.compiled()?.spmd.outline())
    }

    fn cmd_aag(&self) -> Result<String, String> {
        Ok(self.compiled()?.aag.outline())
    }

    fn cmd_dists(&self) -> Result<String, String> {
        let spmd = self.compiled()?.spmd;
        let mut out = format!(
            "grid {:?} ({} nodes)\n",
            spmd.grid.extents,
            spmd.grid.total()
        );
        for (name, d) in &spmd.dist.arrays {
            let dims: Vec<String> = d
                .dims
                .iter()
                .map(|dd| match dd {
                    hpf_compiler::DimDist::Collapsed => "*".to_string(),
                    hpf_compiler::DimDist::Block { pcount, block, .. } => {
                        format!("BLOCK({block})x{pcount}")
                    }
                    hpf_compiler::DimDist::Cyclic { pcount, .. } => format!("CYCLIC x{pcount}"),
                })
                .collect();
            let _ = writeln!(
                out,
                "  {name:<10} ({}) {}",
                dims.join(", "),
                if d.replicated { "replicated" } else { "" }
            );
        }
        Ok(out)
    }

    fn cmd_simulate(&self, rest: &str) -> Result<String, String> {
        let src = self.require_source()?;
        let runs: usize = rest.trim().parse().unwrap_or(self.runs);
        let r = simulate_source(src, &self.sim_options(runs)).map_err(|e| e.to_string())?;
        Ok(format!(
            "measured {:.6} s ± {:.6} over {} runs (comp {:.6}, comm {:.6})",
            r.mean, r.std, r.runs, r.comp, r.comm
        ))
    }

    /// Predict and simulate the one bound program on the one model.
    fn cmd_compare(&self) -> Result<String, String> {
        let (pred, bound, machine) = self.predicted()?;
        // The step budget `simulate` profiles with (`simulate_source`).
        let profile = profile_with_limit(&bound.analyzed, 500_000_000);
        let config = SimConfig {
            runs: self.runs.min(200),
            ..Default::default()
        };
        let meas = Simulator::with_config(&machine, config).simulate(&bound.spmd, profile.as_ref());
        let err = 100.0 * (pred.total_seconds() - meas.mean).abs() / meas.mean.max(1e-30);
        Ok(format!(
            "estimated {:.6} s   measured {:.6} s   |error| {:.2}%",
            pred.total_seconds(),
            meas.mean,
            err
        ))
    }

    /// Run the directive-space [`Advisor`] at the session's node count,
    /// machine and problem size `N`, and recommend its top candidate.
    fn cmd_search(&self) -> Result<String, String> {
        let src = self.require_source()?;
        let analyzed = self.compiled()?.analyzed;
        let defaults = AdvisorConfig::default();
        let cfg = AdvisorConfig {
            n: parameter_n(&analyzed).unwrap_or(defaults.n),
            procs: self.nodes,
            machine: self.machine.clone(),
            ..defaults
        };
        let report = Advisor::for_source(&self.source_name, src)
            .and_then(|advisor| advisor.search(&cfg))
            .map_err(|e| e.to_string())?;
        let mut out = render_table(&report);
        if let Some(best) = report.ranked.first() {
            let _ = writeln!(out, "recommended: DISTRIBUTE {}", best.label);
        }
        Ok(out)
    }

    fn cmd_trace(&self) -> Result<String, String> {
        let machine = machine_params(&self.machine, self.nodes).map_err(|e| e.to_string())?;
        let bound = self.compiled()?;
        let profile = profile_with_limit(&bound.analyzed, 10_000_000);
        let tr = ipsc_sim::trace_program(&machine, &bound.spmd, profile.as_ref());
        let mut out = tr.gantt(64);
        let _ = writeln!(out, "\nutilization (busy/comm/idle):");
        for (n, (b, c, i)) in tr.utilization().iter().enumerate() {
            let _ = writeln!(
                out,
                "  node {n}: {:>5.1}% / {:>5.1}% / {:>5.1}%",
                b * 100.0,
                c * 100.0,
                i * 100.0
            );
        }
        Ok(out)
    }

    fn cmd_machine(&mut self, rest: &str) -> Result<String, String> {
        if rest.is_empty() {
            return Ok(format!(
                "target machine: {} × {} (registered: {})\n{}",
                self.machine,
                self.nodes,
                hpf_machines::machine_names().join(", "),
                self.model()?.sag.outline()
            ));
        }
        let backend =
            hpf_machines::machine(&rest.to_ascii_lowercase()).map_err(|e| e.to_string())?;
        self.machine = backend.name.to_string();
        Ok(format!(
            "target machine: {} ({})",
            backend.name, backend.description
        ))
    }
}

/// The program's PARAMETER `N` after overrides — the problem size the
/// advisor binds — when it has one.
fn parameter_n(analyzed: &AnalyzedProgram) -> Option<usize> {
    match analyzed.symbol("N").map(|s| &s.kind) {
        Some(SymbolKind::Parameter {
            value: Value::Int(n),
        }) => usize::try_from(*n).ok(),
        _ => None,
    }
}

const HELP: &str = "\
commands:
  kernel <name> [size]     load a Table-1 benchmark (e.g. `kernel PI 1024`)
  load <path>              load HPF source from a file
  source                   show the loaded source
  set nodes <n>            machine size
  set runs <n>             simulated runs for `simulate`/`compare`
  set param:<NAME> <v>     override a PARAMETER (problem size knob)
  set critical:<NAME> <v>  supply an unresolved critical variable
  set mask-density <f>     static mask-density heuristic
  set while-trips <n>      DO WHILE trip-count heuristic
  set memory-model <bool>  memory-hierarchy model on/off
  set overlap <bool>       comp/comm overlap model on/off
  machine [<name>]         select a registered machine (default ipsc860) / show it
  show                     session state
  predict                  estimated execution time
  profile                  full comp/comm/overhead profile
  line <n> | lines <a> <b> per-source-line metrics
  outline | aag | dists    SPMD phases / abstraction graph / distributions
  simulate [runs]          run on the simulated machine
  compare                  estimated vs measured
  search                   rank the PROCESSORS/DISTRIBUTE alternatives (advisor)
  trace                    per-node Gantt from the simulated machine
  quit
";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(session: &mut Session, cmd: &str) -> String {
        session
            .execute(cmd)
            .unwrap_or_else(|e| panic!("{cmd}: {e}"))
    }

    #[test]
    fn full_workflow() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        let out = s(&mut se, "kernel PI 512");
        assert!(out.contains("PI"));
        let pred = s(&mut se, "predict");
        assert!(pred.contains("estimated"), "{pred}");
        let prof = s(&mut se, "profile");
        assert!(prof.contains("communication"));
        let cmp = s(&mut se, "compare");
        assert!(cmp.contains("|error|"), "{cmp}");
    }

    #[test]
    fn parameter_override_changes_prediction() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel PI 512");
        let t1 = s(&mut se, "predict");
        s(&mut se, "set param:N 4096");
        let t2 = s(&mut se, "predict");
        assert_ne!(t1, t2);
    }

    #[test]
    fn line_query_hits_forall() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel PI 512");
        let src = s(&mut se, "source");
        let forall = src.lines().position(|l| l.starts_with("FORALL")).unwrap() + 1;
        let out = s(&mut se, &format!("line {forall}"));
        assert!(out.contains("µs"), "{out}");
    }

    #[test]
    fn laplace_search_picks_block_star() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel Laplace (Blk-Blk) 256");
        let out = s(&mut se, "search");
        assert!(out.contains("n=256  budget P=4"), "{out}");
        assert!(
            out.contains("recommended: DISTRIBUTE (BLOCK,*) onto (4)"),
            "{out}"
        );
    }

    #[test]
    fn search_ranks_at_the_overridden_problem_size() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel Laplace (Blk-Blk) 128");
        let before = s(&mut se, "search");
        s(&mut se, "set param:N 64");
        let after = s(&mut se, "search");
        assert!(before.contains("n=128"), "{before}");
        assert!(after.contains("n=64"), "{after}");
        let ranking = |out: &str| out.lines().skip(4).collect::<Vec<_>>().join("\n");
        assert_ne!(ranking(&before), ranking(&after));
    }

    #[test]
    fn machine_switch() {
        let mut se = Session::new();
        s(&mut se, "set nodes 8");
        s(&mut se, "kernel PI 1024");
        let cube = s(&mut se, "predict");
        assert!(cube.contains("iPSC/860"), "{cube}");
        s(&mut se, "machine torus3d");
        let torus = s(&mut se, "predict");
        assert!(torus.contains("torus"), "{torus}");
        assert_ne!(cube, torus);
        assert!(s(&mut se, "show").contains("torus3d × 8"));
    }

    #[test]
    fn compare_measures_on_the_selected_machine() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel PI 512");
        s(&mut se, "machine torus3d");
        let out = s(&mut se, "compare");
        let mut opts = SimulateOptions::with_nodes(4);
        opts.machine = "torus3d".into();
        opts.sim.runs = 200;
        let src = s(&mut se, "source");
        let meas = simulate_source(&src, &opts).unwrap();
        assert!(
            out.contains(&format!("measured {:.6} s", meas.mean)),
            "{out} vs {}",
            meas.mean
        );
    }

    #[test]
    fn unknown_machine_lists_the_registry() {
        let mut se = Session::new();
        let err = se.execute("machine now").unwrap_err();
        for name in hpf_machines::machine_names() {
            assert!(err.contains(name), "{err}");
        }
        assert!(s(&mut se, "show").contains("ipsc860"), "selection kept");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut se = Session::new();
        assert!(se.execute("predict").is_err());
        assert!(se.execute("kernel NOSUCH").is_err());
        assert!(se.execute("set bogus 1").is_err());
        assert!(se.execute("frobnicate").is_err());
        assert!(se.execute("").unwrap().is_empty());
        assert!(se.execute("# comment").unwrap().is_empty());

        s(&mut se, "set nodes 4");
        s(&mut se, "kernel PI 256");
        assert!(se.execute("line 0").is_err());
        for nodes in ["0", "5000"] {
            s(&mut se, &format!("set nodes {nodes}"));
            for cmd in ["predict", "compare", "profile", "line 1", "trace", "search"] {
                let err = se.execute(cmd).unwrap_err();
                assert!(err.contains("machine"), "{cmd} at {nodes} nodes: {err}");
            }
        }
    }

    #[test]
    fn dists_and_outline_render() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel Laplace (Blk-X) 64");
        let d = s(&mut se, "dists");
        assert!(d.contains("BLOCK"), "{d}");
        let o = s(&mut se, "outline");
        assert!(o.contains("Comp"), "{o}");
        let a = s(&mut se, "aag");
        assert!(a.contains("IterD"), "{a}");
    }

    #[test]
    fn trace_renders_gantt() {
        let mut se = Session::new();
        s(&mut se, "set nodes 4");
        s(&mut se, "kernel PI 256");
        let t = s(&mut se, "trace");
        assert!(t.contains("node 0:"), "{t}");
        assert!(t.contains("utilization"));
    }

    #[test]
    fn critical_value_setting() {
        let mut se = Session::new();
        let out = s(&mut se, "set critical:M 64");
        assert!(out.contains("M = 64"));
    }
}

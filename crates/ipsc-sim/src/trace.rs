//! Per-node execution traces of simulated runs — the machine-side analog of
//! ParaGraph's utilization displays: for every node, busy / communication /
//! idle intervals over the loosely synchronous phase sequence. The trace is
//! recorded by the simulator's own jitter-free base pass, so its intervals
//! add up to the simulated time.

use crate::simulator::{SimConfig, Simulator};
use hpf_compiler::{CompPhase, SpmdProgram};
use hpf_eval::ExecutionProfile;
use machine::MachineModel;

/// What a node was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Local computation.
    Busy,
    /// Communication (library + wire).
    Comm,
    /// Parallel I/O (striped server transfers + disk service).
    Io,
    /// Waiting at the loosely synchronous phase boundary.
    Idle,
}

/// One per-node interval.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub node: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub activity: Activity,
    pub label: String,
}

/// A complete trace.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    pub nodes: usize,
    pub events: Vec<TraceEvent>,
    pub total_s: f64,
}

impl SimTrace {
    /// Fraction of the run each node spent in each activity.
    pub fn utilization(&self) -> Vec<(f64, f64, f64)> {
        let mut acc = vec![(0.0f64, 0.0f64, 0.0f64); self.nodes];
        for e in &self.events {
            let d = e.end_s - e.start_s;
            let a = &mut acc[e.node];
            match e.activity {
                Activity::Busy => a.0 += d,
                // I/O counts toward the communication share: from a compute
                // node's view it is time spent moving data off-node.
                Activity::Comm | Activity::Io => a.1 += d,
                Activity::Idle => a.2 += d,
            }
        }
        acc.iter()
            .map(|(b, c, i)| {
                let t = (b + c + i).max(1e-30);
                (b / t, c / t, i / t)
            })
            .collect()
    }

    /// Render an ASCII Gantt chart (one row per node, `width` columns). A
    /// column shows the last non-idle activity that touches it, so it reads
    /// idle only when the node idles through all of it.
    pub fn gantt(&self, width: usize) -> String {
        let mut out = String::new();
        let scale = width as f64 / self.total_s.max(1e-30);
        for node in 0..self.nodes {
            let mut row = vec!['.'; width];
            for e in self.events.iter().filter(|e| e.node == node) {
                let ch = match e.activity {
                    Activity::Busy => '#',
                    Activity::Comm => '~',
                    Activity::Io => '=',
                    Activity::Idle => continue,
                };
                let b = ((e.end_s * scale).ceil() as usize).min(width);
                let a = ((e.start_s * scale) as usize).min(b);
                row[a..b].fill(ch);
            }
            out.push_str(&format!("node {node}: "));
            out.extend(row);
            out.push('\n');
        }
        out.push_str("         # busy   ~ communication   = i/o   . idle\n");
        out
    }
}

/// Trace one jitter-free run of the program: the base pass of
/// [`Simulator::simulate`], recorded per node. `total_s` is that pass's
/// simulated time, the `mean` of a simulation configured with no timed
/// runs.
pub fn trace_program(
    machine: &MachineModel,
    spmd: &SpmdProgram,
    profile: Option<&ExecutionProfile>,
) -> SimTrace {
    let sim = Simulator::with_config(
        machine,
        SimConfig {
            runs: 0,
            ..SimConfig::default()
        },
    );
    let mut timeline = Timeline {
        nodes: spmd.nodes,
        clock: 0.0,
        scale: 1.0,
        events: Vec::new(),
    };
    let total_s = sim.simulate_recording(spmd, profile, &mut timeline).mean;
    SimTrace {
        nodes: spmd.nodes,
        events: timeline.events,
        total_s,
    }
}

/// What the simulator's base pass records: a cursor over simulated time,
/// and the scale that draws one walk of a loop body over all its trips
/// (or a branch arm at its probability). A phase of walk duration `d`
/// takes `[clock, clock + scale·d)` on every node.
pub(crate) struct Timeline {
    nodes: usize,
    clock: f64,
    pub(crate) scale: f64,
    events: Vec<TraceEvent>,
}

/// Where a simulator walk records its per-node intervals: a traced base
/// pass into its [`Timeline`]; every other walk into `()`, which compiles
/// the recording away.
pub(crate) trait Record {
    fn record(&mut self, f: impl FnOnce(&mut Timeline));
}

impl Record for () {
    fn record(&mut self, _: impl FnOnce(&mut Timeline)) {}
}

impl Record for &mut Timeline {
    fn record(&mut self, f: impl FnOnce(&mut Timeline)) {
        f(self)
    }
}

impl Timeline {
    fn push(&mut self, node: usize, start_s: f64, end_s: f64, activity: Activity, label: &str) {
        if end_s > start_s {
            self.events.push(TraceEvent {
                node,
                start_s,
                end_s,
                activity,
                label: label.to_string(),
            });
        }
    }

    /// A phase every node spends alike.
    pub(crate) fn all(&mut self, d: f64, activity: Activity, label: &str) {
        let (start, end) = (self.clock, self.clock + self.scale * d);
        for node in 0..self.nodes {
            self.push(node, start, end, activity, label);
        }
        self.clock = end;
    }

    /// A computation phase of duration `d`, `setup` of it the loop-nest
    /// setup every node pays: node `k` computes its share of the busiest
    /// node's iterations and waits out the rest at the phase boundary.
    pub(crate) fn comp(&mut self, c: &CompPhase, d: f64, setup: f64) {
        let (start, end) = (self.clock, self.clock + self.scale * d);
        let max = c.max_node_iters();
        let wait = format!("wait after {}", c.label);
        for (node, &iters) in c.per_node_iters.iter().enumerate() {
            let share = if max == 0 {
                1.0
            } else {
                iters as f64 / max as f64
            };
            // The busiest node's share is 1: it never waits.
            let busy_end = (end - self.scale * (d - setup) * (1.0 - share)).max(start);
            self.push(node, start, busy_end, Activity::Busy, &c.label);
            self.push(node, busy_end, end, Activity::Idle, &wait);
        }
        self.clock = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compiler::{compile, CompileOptions};
    use hpf_lang::{analyze, parse_program};
    use machine::ipsc860;
    use std::collections::BTreeMap;

    fn trace_src(src: &str, nodes: usize) -> SimTrace {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        let spmd = compile(
            &a,
            &CompileOptions {
                nodes,
                ..Default::default()
            },
        )
        .unwrap();
        let m = ipsc860(nodes);
        trace_program(&m, &spmd, None)
    }

    const SRC: &str = "
PROGRAM T
INTEGER, PARAMETER :: N = 128
REAL A(N), S
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
FORALL (I = 1:N) A(I) = I * 0.5
S = SUM(A)
END
";

    #[test]
    fn trace_covers_all_nodes() {
        let tr = trace_src(SRC, 4);
        assert_eq!(tr.nodes, 4);
        assert!(tr.total_s > 0.0);
        for node in 0..4 {
            assert!(tr.events.iter().any(|e| e.node == node));
        }
    }

    #[test]
    fn utilization_fractions_sum_to_one() {
        let tr = trace_src(SRC, 4);
        for (b, c, i) in tr.utilization() {
            assert!((b + c + i - 1.0).abs() < 1e-9);
            assert!(b > 0.0, "every node computes");
        }
    }

    #[test]
    fn comm_appears_in_trace_for_reduction() {
        let tr = trace_src(SRC, 4);
        assert!(tr.events.iter().any(|e| e.activity == Activity::Comm));
    }

    #[test]
    fn imbalanced_forall_produces_idle() {
        let src = "
PROGRAM T
INTEGER, PARAMETER :: N = 128
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
FORALL (I = 1:32) A(I) = 1.0
END
";
        // Only node 0 owns the touched range: others idle.
        let tr = trace_src(src, 4);
        assert!(tr
            .events
            .iter()
            .any(|e| e.activity == Activity::Idle && e.node != 0));
        let util = tr.utilization();
        assert!(util[0].0 > util[3].0, "node 0 busier than node 3");
    }

    #[test]
    fn gantt_renders() {
        let tr = trace_src(SRC, 4);
        let g = tr.gantt(60);
        assert_eq!(g.lines().count(), 5);
        assert!(g.contains("node 0:"));
        assert!(g.contains('#'));
    }

    #[test]
    fn single_node_trace_has_no_comm() {
        let tr = trace_src(SRC, 1);
        assert!(tr.events.iter().all(|e| e.activity != Activity::Comm));
    }
}

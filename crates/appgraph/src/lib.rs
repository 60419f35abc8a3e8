//! # hpf-appgraph — application characterization (Application Module, §3.2)
//!
//! The *abstraction parse* of Phase 2 (§4.2): intercepts the SPMD program
//! structure produced by Phase 1 and abstracts its execution and
//! communication structures into Application Abstraction Units (AAUs),
//! combined into the Application Abstraction Graph (AAG), and records the
//! specification of every communication in a communication table (§4.2).
//!
//! The paper superimposes communication/synchronization edges on the AAG
//! to form the Synchronized AAG (SAAG). This crate keeps no edge list: the
//! loosely synchronous SPMD program already places each communication
//! before the computation it feeds, so the interpretation engine's walk in
//! program order is the SAAG's order.
//!
//! AAU taxonomy (§3.2, Figure 2): `Seq` (sequential straight-line work,
//! including message packing / index translation), `IterD` (deterministic
//! iterative construct), `CondtD` (deterministic conditional), and `Comm`
//! (communication/synchronization operation).

use hpf_compiler::{CommPhase, CompPhase, OpCounts, SpmdNode, SpmdProgram};
use hpf_lang::Span;
use machine::CollectiveOp;
use std::sync::{Arc, LazyLock};

/// Index of an AAU within its AAG.
pub type AauId = usize;

/// The kinds of Application Abstraction Unit.
#[derive(Debug, Clone)]
pub enum AauKind {
    /// Program entry.
    Start,
    /// Program exit.
    End,
    /// Straight-line sequential work (replicated scalar code, or the
    /// pack/adjust-bounds prologue of a communication — Figure 2's `Seq`).
    Seq { ops: OpCounts },
    /// Deterministic iteration: a counted loop with `trips` iterations over
    /// the sub-graph `body`. Local computation phases are `IterD` whose
    /// per-iteration cost is carried in `comp`.
    IterD {
        trips: u64,
        /// When this IterD abstracts a local computation phase (the
        /// sequentialized forall), its parameters live here, shared with
        /// the SPMD program.
        comp: Option<Arc<CompPhase>>,
        body: Vec<AauId>,
    },
    /// Deterministic conditional: weighted arms (the forall mask's CondtD
    /// child in Figure 2, and IF statements).
    CondtD {
        arms: Vec<(f64, Vec<AauId>)>,
        else_arm: Vec<AauId>,
    },
    /// A communication/synchronization operation.
    Comm { phase: CommPhase },
    /// A parallel I/O phase (striped READ/WRITE/CHECKPOINT over the
    /// machine's I/O servers).
    Io { phase: Arc<hpf_io::IoPhase> },
}

/// One Application Abstraction Unit.
#[derive(Debug, Clone)]
pub struct Aau {
    pub id: AauId,
    pub kind: AauKind,
    /// Shared with the SPMD phase the unit abstracts, where it has one.
    pub label: Arc<str>,
    pub span: Span,
}

/// One row of the communication table (§4.2).
#[derive(Debug, Clone)]
pub struct CommRecord {
    pub aau: AauId,
    pub op: CollectiveOp,
    pub bytes_per_node: u64,
    pub participants: usize,
}

/// The Application Abstraction Graph: the AAUs, the top-level sequence the
/// interpretation engine walks in program order, and the communication
/// table. Its readers are the interpretation engine, the output module,
/// `hpf-serve`'s predict body and the repository benchmark, which counts
/// the table's rows.
#[derive(Debug, Clone)]
pub struct Aag {
    pub aaus: Vec<Aau>,
    /// Top-level control sequence (AAU ids, in program order).
    pub top: Vec<AauId>,
    /// The communication table: one row per communication phase.
    pub comm_table: Vec<CommRecord>,
}

impl Aag {
    pub fn aau(&self, id: AauId) -> &Aau {
        &self.aaus[id]
    }

    /// Number of AAUs of each broad class (diagnostics).
    pub fn census(&self) -> AagCensus {
        let mut c = AagCensus::default();
        for a in &self.aaus {
            match a.kind {
                AauKind::Start | AauKind::End => {}
                AauKind::Seq { .. } => c.seq += 1,
                AauKind::IterD { .. } => c.iterd += 1,
                AauKind::CondtD { .. } => c.condtd += 1,
                AauKind::Comm { .. } => c.comm += 1,
                AauKind::Io { .. } => c.io += 1,
            }
        }
        c
    }

    /// All AAUs whose span covers the given 1-based source line — the
    /// per-line query interface of the output module (§4.2).
    pub fn aaus_on_line(&self, line: u32) -> Vec<AauId> {
        self.aaus
            .iter()
            .filter(|a| a.span.covers_line(line))
            .map(|a| a.id)
            .collect()
    }

    /// Figure-2 style outline of the AAG.
    pub fn outline(&self) -> String {
        let mut out = String::new();
        self.outline_seq(&self.top, 0, &mut out);
        out
    }

    fn outline_seq(&self, ids: &[AauId], depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        for &id in ids {
            let a = &self.aaus[id];
            match &a.kind {
                AauKind::Start => out.push_str(&format!("{pad}Start\n")),
                AauKind::End => out.push_str(&format!("{pad}End\n")),
                AauKind::Seq { .. } => out.push_str(&format!("{pad}Seq    {}\n", a.label)),
                AauKind::Comm { phase, .. } => {
                    out.push_str(&format!("{pad}Comm   {} {:?}\n", a.label, phase.op))
                }
                AauKind::Io { phase } => {
                    out.push_str(&format!("{pad}Io     {}\n", phase.outline()))
                }
                AauKind::IterD {
                    trips, comp, body, ..
                } => {
                    out.push_str(&format!("{pad}IterD  {} x{trips}\n", a.label));
                    if let Some(c) = comp {
                        if c.mask_density_hint.is_some() {
                            out.push_str(&format!("{pad}  CondtD mask\n"));
                        }
                    }
                    self.outline_seq(body, depth + 1, out);
                }
                AauKind::CondtD { arms, else_arm } => {
                    for (i, (p, b)) in arms.iter().enumerate() {
                        out.push_str(&format!("{pad}CondtD {} arm {i} (p~{p:.2})\n", a.label));
                        self.outline_seq(b, depth + 1, out);
                    }
                    if !else_arm.is_empty() {
                        out.push_str(&format!("{pad}CondtD {} else\n", a.label));
                        self.outline_seq(else_arm, depth + 1, out);
                    }
                }
            }
        }
    }
}

/// Census of AAU classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AagCensus {
    pub seq: usize,
    pub iterd: usize,
    pub condtd: usize,
    pub comm: usize,
    pub io: usize,
}

/// Build the AAG from a compiled SPMD program — the abstraction parse.
/// The graph shares the program's phases and labels rather than copying
/// them.
pub fn build_aag(spmd: &SpmdProgram) -> Aag {
    let _span = hpf_trace::span("build_aag");
    let (mut aaus, mut comms) = (2, 0);
    census(&spmd.body, &mut aaus, &mut comms);
    let mut b = Builder {
        aaus: Vec::with_capacity(aaus),
        comm_table: Vec::with_capacity(comms),
    };
    let mut top = Vec::with_capacity(spmd.body.len() + 2);
    top.push(b.push(AauKind::Start, FIXED.start.clone(), Span::SYNTHETIC));
    top.extend(spmd.body.iter().map(|n| b.node(n)));
    top.push(b.push(AauKind::End, FIXED.end.clone(), Span::SYNTHETIC));
    Aag {
        aaus: b.aaus,
        top,
        comm_table: b.comm_table,
    }
}

/// The labels of units that take none from a phase, allocated once per
/// process.
struct FixedLabels {
    start: Arc<str>,
    end: Arc<str>,
    cond: Arc<str>,
    read: Arc<str>,
    write: Arc<str>,
    checkpoint: Arc<str>,
}

static FIXED: LazyLock<FixedLabels> = LazyLock::new(|| FixedLabels {
    start: Arc::from("start"),
    end: Arc::from("end"),
    cond: Arc::from("if"),
    read: Arc::from("read io"),
    write: Arc::from("write io"),
    checkpoint: Arc::from("checkpoint io"),
});

fn io_label(kind: hpf_io::IoKind) -> Arc<str> {
    match kind {
        hpf_io::IoKind::Read => FIXED.read.clone(),
        hpf_io::IoKind::Write => FIXED.write.clone(),
        hpf_io::IoKind::Checkpoint => FIXED.checkpoint.clone(),
    }
}

/// Count the AAUs and communication phases `nodes` abstract to.
fn census(nodes: &[SpmdNode], aaus: &mut usize, comms: &mut usize) {
    *aaus += nodes.len();
    for n in nodes {
        match n {
            SpmdNode::Comm(_) => *comms += 1,
            SpmdNode::Loop { body, .. } => census(body, aaus, comms),
            SpmdNode::Branch {
                arms, else_body, ..
            } => {
                for (_, body) in arms {
                    census(body, aaus, comms);
                }
                census(else_body, aaus, comms);
            }
            _ => {}
        }
    }
}

struct Builder {
    aaus: Vec<Aau>,
    comm_table: Vec<CommRecord>,
}

impl Builder {
    fn push(&mut self, kind: AauKind, label: Arc<str>, span: Span) -> AauId {
        let id = self.aaus.len();
        self.aaus.push(Aau {
            id,
            kind,
            label,
            span,
        });
        id
    }

    fn body(&mut self, nodes: &[SpmdNode]) -> Vec<AauId> {
        nodes.iter().map(|n| self.node(n)).collect()
    }

    fn node(&mut self, n: &SpmdNode) -> AauId {
        match n {
            SpmdNode::Seq(s) => self.push(AauKind::Seq { ops: s.ops }, s.label.clone(), s.span),
            SpmdNode::Comm(c) => self.comm(c),
            SpmdNode::Io { phase, span } => self.push(
                AauKind::Io {
                    phase: phase.clone(),
                },
                io_label(phase.kind),
                *span,
            ),
            SpmdNode::Comp(c) => self.push(
                AauKind::IterD {
                    trips: c.max_node_iters(),
                    comp: Some(c.clone()),
                    body: Vec::new(),
                },
                c.label.clone(),
                c.span,
            ),
            SpmdNode::Loop {
                var,
                trips,
                body,
                span,
                ..
            } => {
                let body = self.body(body);
                self.push(
                    AauKind::IterD {
                        trips: *trips,
                        comp: None,
                        body,
                    },
                    Arc::from(format!("do {var}")),
                    *span,
                )
            }
            SpmdNode::Branch {
                arms,
                else_body,
                span,
            } => {
                let arms = arms.iter().map(|(p, body)| (*p, self.body(body))).collect();
                let else_arm = self.body(else_body);
                self.push(
                    AauKind::CondtD { arms, else_arm },
                    FIXED.cond.clone(),
                    *span,
                )
            }
        }
    }

    fn comm(&mut self, c: &CommPhase) -> AauId {
        let id = self.push(AauKind::Comm { phase: c.clone() }, c.label.clone(), c.span);
        self.comm_table.push(CommRecord {
            aau: id,
            op: c.op,
            bytes_per_node: c.bytes_per_node,
            participants: c.participants,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_compiler::{compile, CompileOptions};
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap;

    fn aag_for(src: &str, nodes: usize) -> Aag {
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
        build_aag(&spmd)
    }

    /// The paper's own Figure-2 example.
    const FIG2: &str = "
PROGRAM FIG2
INTEGER, PARAMETER :: N = 64
REAL X(N), V(N), G(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN X(I) WITH T(I)
!HPF$ ALIGN V(I) WITH T(I)
!HPF$ ALIGN G(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=2:N-1, V(K) .GT. 0.0) X(K+1) = X(K) + G(K)
END
";

    #[test]
    fn figure2_abstraction_shape() {
        let aag = aag_for(FIG2, 4);
        let census = aag.census();
        assert!(census.comm >= 1, "outline:\n{}", aag.outline());
        assert_eq!(census.iterd, 1);
        let iterd = aag
            .aaus
            .iter()
            .find_map(|a| match &a.kind {
                AauKind::IterD { comp: Some(c), .. } => Some(c),
                _ => None,
            })
            .expect("comp IterD");
        assert!(iterd.mask_density_hint.is_some());
        let o = aag.outline();
        assert!(o.contains("Comm"), "{o}");
        assert!(o.contains("IterD"), "{o}");
        assert!(o.contains("CondtD"), "{o}");
    }

    #[test]
    fn comm_table_populated() {
        let aag = aag_for(FIG2, 4);
        assert!(!aag.comm_table.is_empty());
        for r in &aag.comm_table {
            assert!(r.bytes_per_node > 0);
            assert_eq!(r.participants, 4);
            assert!(matches!(aag.aau(r.aau).kind, AauKind::Comm { .. }));
        }
    }

    #[test]
    fn per_line_query() {
        let aag = aag_for(FIG2, 4);
        let forall_line = FIG2
            .lines()
            .position(|l| l.starts_with("FORALL"))
            .expect("forall present") as u32
            + 1;
        let hits = aag.aaus_on_line(forall_line);
        assert!(!hits.is_empty());
        assert!(hits
            .iter()
            .any(|&id| matches!(aag.aau(id).kind, AauKind::IterD { .. })));
    }

    #[test]
    fn loops_nest_in_aag() {
        let src = "
PROGRAM L
INTEGER, PARAMETER :: N = 16
REAL A(N)
INTEGER K
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
DO K = 1, 5
A = A + 1.0
END DO
END
";
        let aag = aag_for(src, 2);
        let outer = aag
            .aaus
            .iter()
            .find(|a| matches!(&a.kind, AauKind::IterD { comp: None, .. }))
            .expect("loop IterD");
        if let AauKind::IterD { trips, body, .. } = &outer.kind {
            assert_eq!(*trips, 5);
            assert!(!body.is_empty());
        }
    }

    #[test]
    fn start_end_bracket_top() {
        let aag = aag_for(FIG2, 4);
        assert!(matches!(aag.aau(aag.top[0]).kind, AauKind::Start));
        assert!(matches!(
            aag.aau(*aag.top.last().unwrap()).kind,
            AauKind::End
        ));
    }

    #[test]
    fn census_counts() {
        let aag = aag_for(FIG2, 4);
        let c = aag.census();
        assert_eq!(c.comm, aag.comm_table.len(), "census comm must match table");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use hpf_compiler::{compile, CompileOptions};
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap;

    fn aag_for(src: &str, nodes: usize) -> Aag {
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
        build_aag(&spmd)
    }

    /// The order the interpretation engine walks stands in for the SAAG's
    /// edges: a shift inside a DO loop sits in the loop's body, before the
    /// computation it feeds.
    #[test]
    fn communications_precede_the_computation_they_feed_inside_loops() {
        let src = "
PROGRAM L
INTEGER, PARAMETER :: N = 64
REAL A(N), B(N)
INTEGER K
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
DO K = 1, 5
FORALL (I = 2:N) A(I) = B(I-1)
END DO
END
";
        let aag = aag_for(src, 4);
        let body = aag
            .aaus
            .iter()
            .find_map(|a| match &a.kind {
                AauKind::IterD {
                    comp: None, body, ..
                } => Some(body),
                _ => None,
            })
            .expect("loop IterD");
        let kinds: Vec<&AauKind> = body.iter().map(|&id| &aag.aau(id).kind).collect();
        let comm = kinds.iter().position(|k| matches!(k, AauKind::Comm { .. }));
        let comp = kinds
            .iter()
            .position(|k| matches!(k, AauKind::IterD { comp: Some(_), .. }));
        assert!(comm.is_some() && comm < comp, "{}", aag.outline());
    }

    #[test]
    fn conditional_arms_nest_subgraphs() {
        let src = "
PROGRAM C
INTEGER, PARAMETER :: N = 64
REAL A(N), X
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
X = 2.0
IF (X > 1.0) THEN
A = A + 1.0
ELSE
A = A - 1.0
END IF
END
";
        let aag = aag_for(src, 2);
        let cond = aag
            .aaus
            .iter()
            .find(|a| matches!(&a.kind, AauKind::CondtD { .. }))
            .expect("CondtD");
        if let AauKind::CondtD { arms, else_arm } = &cond.kind {
            assert_eq!(arms.len(), 1);
            assert!(!arms[0].1.is_empty());
            assert!(!else_arm.is_empty());
        }
        let o = aag.outline();
        assert!(o.contains("CondtD"), "{o}");
    }

    #[test]
    fn aau_ids_are_dense_and_self_consistent() {
        let src = "
PROGRAM D
INTEGER, PARAMETER :: N = 32
REAL A(N), S
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A = 1.0
S = SUM(A)
END
";
        let aag = aag_for(src, 4);
        for (i, a) in aag.aaus.iter().enumerate() {
            assert_eq!(a.id, i);
        }
        for &id in &aag.top {
            assert!(id < aag.aaus.len());
        }
        for r in &aag.comm_table {
            assert!(r.aau < aag.aaus.len());
        }
    }
}

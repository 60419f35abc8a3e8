//! Compiler integration tests: distribution shapes, phase structure,
//! communication detection, trip resolution, load balance, locality.

use crate::*;
use hpf_lang::{analyze, parse_program};
use machine::CollectiveOp;
use std::collections::BTreeMap;

pub fn compile_src(src: &str, nodes: usize) -> SpmdProgram {
    let p = parse_program(src).unwrap();
    let a = analyze(&p, &BTreeMap::new()).unwrap();
    compile(
        &a,
        &CompileOptions {
            nodes,
            ..Default::default()
        },
    )
    .unwrap()
}

fn phases(p: &SpmdProgram) -> Vec<SpmdNode> {
    let mut v = Vec::new();
    flatten_phases(&p.body, &mut v);
    v
}

const LAPLACE: &str = "
PROGRAM LAP
INTEGER, PARAMETER :: N = 64
REAL U(N,N), V(N,N)
INTEGER IT
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
U = 0.0
DO IT = 1, 10
FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
U(2:N-1, 2:N-1) = V(2:N-1, 2:N-1)
END DO
END
";

#[test]
fn laplace_structure() {
    let p = compile_src(LAPLACE, 4);
    assert_eq!(p.nodes, 4);
    let ph = phases(&p);
    let comps = ph.iter().filter(|n| matches!(n, SpmdNode::Comp(_))).count();
    assert_eq!(comps, 3, "init, stencil, copy: {}", p.outline());
    let comms: Vec<&CommPhase> = ph
        .iter()
        .filter_map(|n| match n {
            SpmdNode::Comm(c) => Some(c),
            _ => None,
        })
        .collect();
    // stencil needs two shift phases (up and down ghost rows)
    assert_eq!(comms.len(), 2, "{}", p.outline());
    assert!(comms.iter().all(|c| c.op == CollectiveOp::Shift));
    for c in comms {
        assert!(!c.contiguous, "dim-1 boundary is strided");
        assert!(c.bytes_per_node >= 62 * 4, "bytes {}", c.bytes_per_node);
    }
}

#[test]
fn laplace_star_block_contiguous_shifts() {
    let src = LAPLACE.replace("(BLOCK,*)", "(*,BLOCK)");
    let p = compile_src(&src, 4);
    let ph = phases(&p);
    let comms: Vec<&CommPhase> = ph
        .iter()
        .filter_map(|n| match n {
            SpmdNode::Comm(c) => Some(c),
            _ => None,
        })
        .collect();
    assert_eq!(comms.len(), 2);
    assert!(
        comms.iter().all(|c| c.contiguous),
        "dim-2 boundary is contiguous"
    );
}

#[test]
fn laplace_per_node_balance() {
    let p = compile_src(LAPLACE, 4);
    let ph = phases(&p);
    let stencil = ph
        .iter()
        .find_map(|n| match n {
            SpmdNode::Comp(c) if c.label.contains("-> V") => Some(c),
            _ => None,
        })
        .expect("stencil phase");
    assert_eq!(stencil.total_iters, 62 * 62);
    assert_eq!(stencil.per_node_iters.len(), 4);
    assert_eq!(stencil.per_node_iters.iter().sum::<u64>(), 62 * 62);
    assert_eq!(stencil.max_node_iters(), 16 * 62);
}

#[test]
fn reduction_lowering() {
    let src = "
PROGRAM R
INTEGER, PARAMETER :: N = 128
REAL A(N), S
!HPF$ PROCESSORS P(8)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A = 1.0
S = SUM(A)
END
";
    let p = compile_src(src, 8);
    let ph = phases(&p);
    let has_reduce = ph
        .iter()
        .any(|n| matches!(n, SpmdNode::Comm(c) if c.op == CollectiveOp::Reduce));
    assert!(has_reduce, "{}", p.outline());
    let partial = ph
        .iter()
        .find_map(|n| match n {
            SpmdNode::Comp(c) if c.label.contains("partial") => Some(c),
            _ => None,
        })
        .expect("partial phase");
    assert_eq!(partial.per_node_iters, vec![16; 8]);
}

#[test]
fn single_node_has_no_comm() {
    let p = compile_src(LAPLACE, 1);
    assert_eq!(p.comm_phase_count(), 0, "{}", p.outline());
}

#[test]
fn transpose_requires_all_to_all() {
    let src = "
PROGRAM TR
INTEGER, PARAMETER :: N = 32
REAL A(N,N), B(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ ALIGN B(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
FORALL (I=1:N, J=1:N) B(I,J) = A(J,I)
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    assert!(
        ph.iter()
            .any(|n| matches!(n, SpmdNode::Comm(c) if c.op == CollectiveOp::AllToAll)),
        "{}",
        p.outline()
    );
}

#[test]
fn indirect_access_gathers() {
    let src = "
PROGRAM G
INTEGER, PARAMETER :: N = 64
REAL X(N), Y(N)
INTEGER IDX(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN X(I) WITH T(I)
!HPF$ ALIGN Y(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (I=1:N) Y(I) = X(IDX(I))
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    assert!(
        ph.iter()
            .any(|n| matches!(n, SpmdNode::Comm(c) if c.op == CollectiveOp::Gather)),
        "{}",
        p.outline()
    );
}

#[test]
fn masked_forall_has_density_hint() {
    let src = "
PROGRAM M
INTEGER, PARAMETER :: N = 32
REAL P1(N), Q(N)
!HPF$ PROCESSORS PR(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN P1(I) WITH T(I)
!HPF$ ALIGN Q(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO PR
FORALL (I=1:N, Q(I) .NE. 0.0) P1(I) = 1.0 / Q(I)
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    let comp = ph
        .iter()
        .find_map(|n| match n {
            SpmdNode::Comp(c) => Some(c),
            _ => None,
        })
        .unwrap();
    assert!(comp.mask_density_hint.is_some());
    assert!(comp.masked_ops.is_some());
    assert!(comp.masked_ops.as_ref().unwrap().fdiv > 0.0);
}

#[test]
fn do_loop_trips_resolved() {
    let p = compile_src(LAPLACE, 4);
    let loop_node = p
        .body
        .iter()
        .find_map(|n| match n {
            SpmdNode::Loop {
                trips, estimated, ..
            } => Some((*trips, *estimated)),
            _ => None,
        })
        .expect("loop");
    assert_eq!(loop_node, (10, false));
}

#[test]
fn do_while_estimated() {
    let src = "
PROGRAM W
REAL X
X = 1.0
DO WHILE (X > 0.001)
X = X * 0.5
END DO
END
";
    let p = compile_src(src, 2);
    let est = p
        .body
        .iter()
        .find_map(|n| match n {
            SpmdNode::Loop { estimated, .. } => Some(*estimated),
            _ => None,
        })
        .unwrap();
    assert!(est);
}

#[test]
fn critical_variable_resolution_feeds_bounds() {
    let src = "
PROGRAM C
INTEGER M
REAL A(128)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
M = 100
FORALL (I=1:M) A(I) = 1.0
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    let comp = ph
        .iter()
        .find_map(|n| match n {
            SpmdNode::Comp(c) => Some(c),
            _ => None,
        })
        .unwrap();
    assert_eq!(comp.total_iters, 100);
}

#[test]
fn forall_triplet_past_its_bound_has_no_iterations() {
    // `(hi - lo) / st + 1` truncates to one iteration for these headers;
    // Fortran runs none, on distributed and undistributed arrays alike.
    for dist in ["!HPF$ DISTRIBUTE A(BLOCK) ONTO P\n", ""] {
        for header in ["I = 5:4:2", "I = 4:5:-2"] {
            let src = format!(
                "PROGRAM E\nREAL A(8)\n!HPF$ PROCESSORS P(4)\n{dist}FORALL ({header}) A(I) = 1.0\nEND\n"
            );
            let p = compile_src(&src, 4);
            let comp = phases(&p)
                .into_iter()
                .find_map(|n| match n {
                    SpmdNode::Comp(c) => Some(c),
                    _ => None,
                })
                .unwrap();
            assert_eq!(comp.total_iters, 0, "{dist}{header}");
            assert_eq!(comp.max_node_iters(), 0, "{dist}{header}");
        }
    }
}

#[test]
fn user_critical_values_override() {
    let src = "
PROGRAM C
INTEGER M
REAL A(128), S
S = SUM(A)
M = INT(S)
FORALL (I=1:M) A(I) = 1.0
END
";
    let p = parse_program(src).unwrap();
    let a = analyze(&p, &BTreeMap::new()).unwrap();
    // Without a user-supplied value the unresolvable critical variable
    // degrades to the worst-case bound (the largest array extent, 128)
    // with a warning — not a hard error.
    let fallback = compile(
        &a,
        &CompileOptions {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(fallback.warnings.len(), 1, "{:?}", fallback.warnings);
    assert!(fallback.warnings[0].message.contains("worst-case"));
    let comp_fb = phases(&fallback)
        .iter()
        .filter_map(|n| match n {
            SpmdNode::Comp(c) => Some(c.total_iters),
            _ => None,
        })
        .next_back()
        .unwrap();
    assert_eq!(comp_fb, 128);
    let mut opts = CompileOptions {
        nodes: 2,
        ..Default::default()
    };
    opts.critical_values.insert("M".into(), 64);
    let sp = compile(&a, &opts).unwrap();
    let ph = phases(&sp);
    let comp = ph
        .iter()
        .filter_map(|n| match n {
            SpmdNode::Comp(c) => Some(c),
            _ => None,
        })
        .next_back()
        .unwrap();
    assert_eq!(comp.total_iters, 64);

    // The precedence of the names a bound resolves: a DO variable's
    // midpoint bounds a nested FORALL, a user value for the variable beats
    // the midpoint, and an enclosing DO or DO WHILE binding beats a traced
    // value of the same name.
    let src = "
PROGRAM D
INTEGER K, L
REAL A(128)
K = 5
L = 64
DO K = 1, 64
  FORALL (I=1:K) A(I) = 1.0
END DO
DO WHILE (L > 1)
  FORALL (I=1:L) A(I) = 1.0
  L = L / 2
END DO
END
";
    let a = analyze(&parse_program(src).unwrap(), &BTreeMap::new()).unwrap();
    assert_eq!(a.resolved_critical.get("K"), Some(&5));
    assert_eq!(a.resolved_critical.get("L"), Some(&64));
    let forall_trips = |critical_values: &[(&str, i64)]| -> Vec<u64> {
        let opts = CompileOptions {
            nodes: 2,
            critical_values: critical_values
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
            ..Default::default()
        };
        let sp = compile(&a, &opts).unwrap();
        assert!(sp.warnings.is_empty(), "{:?}", sp.warnings);
        phases(&sp)
            .iter()
            .filter_map(|n| match n {
                SpmdNode::Comp(c) => Some(c.total_iters),
                _ => None,
            })
            .collect()
    };
    // K's midpoint over 1..64 is 32; L's geometric mean over its six
    // halvings (32, 16, 8, 4, 2, 1) rounds to 11.
    assert_eq!(forall_trips(&[]), [32, 11]);
    assert_eq!(forall_trips(&[("K", 10)]), [10, 11]);
    assert_eq!(forall_trips(&[("L", 7)]), [32, 7]);
}

#[test]
fn locality_favors_block_star_for_row_stencil() {
    let p_bs = compile_src(LAPLACE, 4);
    let src = LAPLACE.replace("(BLOCK,*)", "(*,BLOCK)");
    let p_sb = compile_src(&src, 4);
    let loc = |p: &SpmdProgram| {
        let ph = phases(p);
        ph.iter()
            .find_map(|n| match n {
                SpmdNode::Comp(c) if c.label.contains("-> V") => Some(c.locality),
                _ => None,
            })
            .unwrap()
    };
    assert!(
        loc(&p_bs) > loc(&p_sb),
        "(Block,*) locality {} should beat (*,Block) {}",
        loc(&p_bs),
        loc(&p_sb)
    );
}

#[test]
fn outline_renders() {
    let p = compile_src(LAPLACE, 4);
    let o = p.outline();
    assert!(o.contains("Comp"));
    assert!(o.contains("Comm"));
    assert!(o.contains("Loop"));
}

#[test]
fn cyclic_balances_triangular_iteration() {
    let mk = |dist: &str| {
        format!(
            "
PROGRAM TRI
INTEGER, PARAMETER :: N = 64
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A({dist}) ONTO P
FORALL (I=33:N) A(I) = 1.0
END
"
        )
    };
    let pb = compile_src(&mk("BLOCK"), 4);
    let pc = compile_src(&mk("CYCLIC"), 4);
    let imb = |p: &SpmdProgram| {
        let ph = phases(p);
        ph.iter()
            .find_map(|n| match n {
                SpmdNode::Comp(c) => Some(c.imbalance()),
                _ => None,
            })
            .unwrap()
    };
    assert!(imb(&pb) > 1.9, "BLOCK imbalance {}", imb(&pb));
    assert!(imb(&pc) < 1.1, "CYCLIC imbalance {}", imb(&pc));
}

#[test]
fn constant_subscript_of_distributed_dim_broadcasts() {
    // Every node reads row 1 of a row-distributed matrix: the slice lives
    // on one coordinate and must be broadcast.
    let src = "
PROGRAM B
INTEGER, PARAMETER :: N = 64
REAL A(N,N), R(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
FORALL (J = 1:N) R(J) = A(1, J)
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    assert!(
        ph.iter()
            .any(|n| matches!(n, SpmdNode::Comm(c) if c.op == CollectiveOp::Broadcast)),
        "{}",
        p.outline()
    );
}

#[test]
fn loop_reorder_improves_star_block_locality() {
    let src = "
PROGRAM L
INTEGER, PARAMETER :: N = 128
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(*,BLOCK) ONTO P
FORALL (I=2:N-1, J=2:N-1) V(I,J) = U(I-1,J) + U(I+1,J)
END
";
    let prog = hpf_lang::parse_program(src).unwrap();
    let a = hpf_lang::analyze(&prog, &BTreeMap::new()).unwrap();
    let base = compile(
        &a,
        &CompileOptions {
            nodes: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let opt = compile(
        &a,
        &CompileOptions {
            nodes: 4,
            loop_reorder: true,
            ..Default::default()
        },
    )
    .unwrap();
    let loc = |p: &SpmdProgram| {
        let mut v = Vec::new();
        flatten_phases(&p.body, &mut v);
        v.iter()
            .find_map(|n| match n {
                SpmdNode::Comp(c) => Some(c.locality),
                _ => None,
            })
            .unwrap()
    };
    assert!(
        loc(&opt) > loc(&base),
        "reorder {} vs base {}",
        loc(&opt),
        loc(&base)
    );
    assert_eq!(
        loc(&opt),
        1.0,
        "stride-1 ordering available via dim-1 dummy"
    );
}

#[test]
fn align_offset_changes_shift_direction_bytes() {
    // B aligned one cell to the right of A: reading B(I) from A's home is a
    // δ=+1 template offset → one shift phase.
    let src = "
PROGRAM O
INTEGER, PARAMETER :: N = 64
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N+1)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I+1)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (I = 1:N) A(I) = B(I)
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    let shifts: Vec<&CommPhase> = ph
        .iter()
        .filter_map(|n| match n {
            SpmdNode::Comm(c) if c.op == CollectiveOp::Shift => Some(c),
            _ => None,
        })
        .collect();
    assert_eq!(shifts.len(), 1, "{}", p.outline());
    assert_eq!(shifts[0].bytes_per_node, 4, "one boundary element");
}

#[test]
fn strided_section_assignment_iteration_count() {
    let src = "
PROGRAM S
INTEGER, PARAMETER :: N = 64
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A(1:N:4) = 1.0
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    let comp = ph
        .iter()
        .find_map(|n| match n {
            SpmdNode::Comp(c) => Some(c),
            _ => None,
        })
        .unwrap();
    assert_eq!(comp.total_iters, 16);
    assert_eq!(comp.per_node_iters.iter().sum::<u64>(), 16);
}

#[test]
fn geometric_while_recognized_exactly() {
    let src = "
PROGRAM G
INTEGER, PARAMETER :: N = 256
INTEGER II
REAL X
II = N
X = 0.0
DO WHILE (II > 1)
  X = X + II
  II = II / 2
END DO
END
";
    let p = compile_src(src, 1);
    let (trips, est) = p
        .body
        .iter()
        .find_map(|n| match n {
            SpmdNode::Loop {
                trips, estimated, ..
            } => Some((*trips, *estimated)),
            _ => None,
        })
        .unwrap();
    assert_eq!(trips, 8, "log2(256) levels");
    assert!(!est, "induction recognized, not estimated");
}

#[test]
fn non_geometric_while_stays_estimated() {
    let src = "
PROGRAM W
REAL X
X = 100.0
DO WHILE (X > 1.0)
  X = X - 3.0
END DO
END
";
    let p = compile_src(src, 1);
    let est = p
        .body
        .iter()
        .find_map(|n| match n {
            SpmdNode::Loop { estimated, .. } => Some(*estimated),
            _ => None,
        })
        .unwrap();
    assert!(est, "subtractive loops are not recognized");
}

#[test]
fn two_dim_grid_coords_partition_elements() {
    let src = "
PROGRAM P2
INTEGER, PARAMETER :: N = 32
REAL A(N,N)
!HPF$ PROCESSORS P(2,4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK) ONTO P
A = 0.0
END
";
    let p = compile_src(src, 8);
    let a = p.dist.get("A").unwrap();
    let total: u64 = (0..8).map(|n| a.local_elems(|d| p.grid.coord(n, d))).sum();
    assert_eq!(total, 32 * 32);
}

/// One FORALL index driving two distributed LHS dimensions is counted
/// jointly: on a 2×2 grid each node runs the diagonal elements it owns in
/// both dimensions, and the per-node counts add up to the 16 iterations.
#[test]
fn diagonal_forall_counts_joint_ownership() {
    for (dist, want) in [
        ("BLOCK,BLOCK", [8, 0, 0, 8]),
        ("CYCLIC,BLOCK", [4, 4, 4, 4]),
        ("CYCLIC,CYCLIC", [8, 0, 0, 8]),
    ] {
        let src = format!(
            "
PROGRAM D
INTEGER, PARAMETER :: N = 16
REAL A(N,N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T({dist}) ONTO P
FORALL (I = 1:N) A(I,I) = 1.0
END
"
        );
        let p = compile_src(&src, 4);
        let comp = phases(&p)
            .into_iter()
            .find_map(|n| match n {
                SpmdNode::Comp(c) => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(comp.total_iters, 16, "({dist})");
        assert_eq!(comp.per_node_iters, want, "({dist})");
    }
}

#[test]
fn print_of_reduction_is_seq_only() {
    // PRINT *, SUM(A): accepted, charged as a Seq library call (the output
    // statement is host I/O, not a parallel reduction phase in the subset).
    let src = "
PROGRAM PR
INTEGER, PARAMETER :: N = 32
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A = 1.0
PRINT *, SUM(A)
END
";
    let p = compile_src(src, 4);
    let ph = phases(&p);
    assert!(ph
        .iter()
        .any(|n| matches!(n, SpmdNode::Seq(s) if &*s.label == "print")));
}

#[test]
fn block_cyclic_distribution_resolves() {
    let src = "
PROGRAM BC
INTEGER, PARAMETER :: N = 64
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(CYCLIC(4)) ONTO P
A = 0.0
END
";
    let p = compile_src(src, 4);
    let a = p.dist.get("A").unwrap();
    assert!(matches!(
        a.dims[0],
        DimDist::Cyclic {
            pcount: 4,
            k: 4,
            ..
        }
    ));
    // blocks of 4: indices 1..4 on c0, 5..8 on c1, 17..20 back on c0.
    assert_eq!(a.owner_coord(0, 1), 0);
    assert_eq!(a.owner_coord(0, 4), 0);
    assert_eq!(a.owner_coord(0, 5), 1);
    assert_eq!(a.owner_coord(0, 17), 0);
    // partition: 16 per coordinate
    for c in 0..4 {
        assert_eq!(a.local_extent(0, c), 16, "coord {c}");
    }
}

#[test]
fn block_cyclic_shift_volume_between_block_and_cyclic() {
    // For a unit-offset stencil: BLOCK moves 1 boundary element, CYCLIC
    // moves the whole local share, CYCLIC(k) moves ~1/k of it.
    let mk = |dist: &str| {
        format!(
            "
PROGRAM S
INTEGER, PARAMETER :: N = 256
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T({dist}) ONTO P
FORALL (I = 2:N) A(I) = B(I-1)
END
"
        )
    };
    let bytes = |dist: &str| {
        let p = compile_src(&mk(dist), 4);
        let mut v = Vec::new();
        flatten_phases(&p.body, &mut v);
        v.iter()
            .find_map(|n| match n {
                SpmdNode::Comm(c) if c.op == CollectiveOp::Shift => Some(c.bytes_per_node),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no shift for {dist}: {}", p.outline()))
    };
    let block = bytes("BLOCK");
    let cyc = bytes("CYCLIC");
    let bc8 = bytes("CYCLIC(8)");
    assert!(block < bc8, "block {block} < cyclic(8) {bc8}");
    assert!(bc8 < cyc, "cyclic(8) {bc8} < cyclic {cyc}");
}

#[test]
fn cyclic_one_parses_as_pure_cyclic() {
    let src = "
PROGRAM C1
INTEGER, PARAMETER :: N = 16
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(CYCLIC(1)) ONTO P
A = 0.0
END
";
    let p = compile_src(src, 2);
    let a = p.dist.get("A").unwrap();
    assert!(matches!(a.dims[0], DimDist::Cyclic { k: 1, .. }));
}

#[test]
fn io_statements_lower_to_phases() {
    let src = "
PROGRAM OOC
INTEGER, PARAMETER :: N = 64
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE TPL(N)
!HPF$ ALIGN A(I) WITH TPL(I)
!HPF$ ALIGN B(I) WITH TPL(I)
!HPF$ DISTRIBUTE TPL(BLOCK) ONTO P
A = 0.0
READ(A)
B = A
CHECKPOINT
WRITE(B)
END
";
    let p = compile_src(src, 4);
    let io: Vec<_> = p.io_phases();
    assert_eq!(io.len(), 3);
    assert_eq!(io[0].kind, hpf_io::IoKind::Read);
    assert_eq!(io[0].arrays, vec!["A".to_string()]);
    assert_eq!(io[0].total_bytes, 64 * 4);
    assert_eq!(io[0].bytes_per_node, 16 * 4);
    assert_eq!(io[0].participants, 4);
    // Bare CHECKPOINT snapshots every distributed array, in name order.
    assert_eq!(io[1].kind, hpf_io::IoKind::Checkpoint);
    assert_eq!(io[1].arrays, vec!["A".to_string(), "B".to_string()]);
    assert_eq!(io[1].total_bytes, 2 * 64 * 4);
    assert_eq!(io[2].kind, hpf_io::IoKind::Write);
}

#[test]
fn io_of_unknown_array_is_a_compile_error() {
    let src = "
PROGRAM BAD
INTEGER, PARAMETER :: N = 16
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A = 0.0
READ(NOSUCH)
END
";
    let p = parse_program(src).unwrap();
    let a = analyze(&p, &BTreeMap::new());
    // Semantic analysis may reject the unknown name first; if it passes,
    // lowering must produce a typed I/O error.
    if let Ok(a) = a {
        let err = compile(
            &a,
            &CompileOptions {
                nodes: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err.io, Some(hpf_io::IoError::UnknownArray { .. })),
            "expected UnknownArray, got {err:?}"
        );
    }
}

#[test]
fn io_server_count_validated_against_nodes() {
    let src = "
PROGRAM BAD
INTEGER, PARAMETER :: N = 16
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
A = 0.0
WRITE(A)
END
";
    let p = parse_program(src).unwrap();
    let a = analyze(&p, &BTreeMap::new()).unwrap();
    let err = compile(
        &a,
        &CompileOptions {
            nodes: 2,
            io: hpf_io::IoConfig {
                io_servers: 8,
                stripe_factor: 1,
            },
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err.io, Some(hpf_io::IoError::ServersExceedNodes { .. })),
        "expected ServersExceedNodes, got {err:?}"
    );
}

#[test]
fn checkpoint_of_replicated_only_program_is_an_error() {
    // No distributed arrays at all: a bare CHECKPOINT has nothing durable
    // to snapshot and must be rejected with the typed error.
    let src = "
PROGRAM SCALARS
REAL X
X = 1.0
CHECKPOINT
END
";
    let p = parse_program(src).unwrap();
    let a = analyze(&p, &BTreeMap::new()).unwrap();
    let err = compile(
        &a,
        &CompileOptions {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err.io, Some(hpf_io::IoError::UnpartitionedArray { .. })),
        "expected UnpartitionedArray, got {err:?}"
    );
}

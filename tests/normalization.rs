//! Normalization preserves semantics: running the functional interpreter on
//! the original program and on the normalized (array-assignment/where →
//! forall) program must produce identical scalar results.

use hpf90d::compiler::normalize;
use hpf90d::eval;
use hpf90d::lang::{analyze, parse_program, Program};
use std::collections::BTreeMap;

fn check(src: &str) {
    let parsed = parse_program(src).unwrap();
    let analyzed = analyze(&parsed, &BTreeMap::new()).unwrap();
    let original = eval::run(&analyzed).expect("original runs");

    let normalized_body = normalize(&analyzed).expect("normalizes");
    let norm_program = Program {
        name: analyzed.program.name.clone(),
        decls: analyzed.program.decls.clone(),
        directives: analyzed.program.directives.clone(),
        body: normalized_body,
        span: analyzed.program.span,
    };
    // Re-analyze so the synthesized forall dummies get implicit declarations.
    let norm_analyzed = analyze(&norm_program, &BTreeMap::new()).expect("re-analysis");
    let normalized = eval::run(&norm_analyzed).expect("normalized runs");

    for (name, v) in &original.scalars {
        let v2 = normalized
            .scalars
            .get(name)
            .unwrap_or_else(|| panic!("scalar {name} lost in normalization"));
        match (v.as_f64(), v2.as_f64()) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{name}: {a} vs {b}\nsource:\n{src}"
            ),
            _ => assert_eq!(v, v2, "{name}"),
        }
    }
}

#[test]
fn whole_array_ops_preserved() {
    check("PROGRAM T\nREAL A(10), B(10), S\nA = 2.0\nB = A * 3.0 + 1.0\nS = SUM(B)\nEND\n");
}

#[test]
fn sections_preserved() {
    check(
        "PROGRAM T
REAL A(12), B(12), S
FORALL (I = 1:12) B(I) = I * 1.0
A = 0.0
A(1:6) = B(7:12)
A(7:12:2) = B(1:6:2)
S = SUM(A)
END
",
    );
}

#[test]
fn where_preserved() {
    check(
        "PROGRAM T
REAL A(9), S
FORALL (I = 1:9) A(I) = I - 5.0
WHERE (A > 0.0)
A = A * 2.0
ELSEWHERE
A = -A
END WHERE
S = SUM(A)
END
",
    );
}

#[test]
fn where_converts_like_the_forall_it_normalizes_to() {
    // The normalized FORALL stores 2.7 into an INTEGER array as 2, so the
    // WHERE it came from must too: S = 8, not 10.
    check(
        "PROGRAM T
INTEGER K(4), S
K = 1
WHERE (K > 0) K = 2.7
S = SUM(K)
END
",
    );
}

#[test]
fn cshift_rewrite_preserves_access_not_values() {
    // CSHIFT normalization deliberately models the *access pattern* (offset
    // reference) rather than circular value semantics; at the boundary the
    // normalized form reads out of range. Interior-only sums must agree.
    check(
        "PROGRAM T
REAL A(8), B(8), S
FORALL (I = 1:8) A(I) = I * 1.0
B = A + 1.0
S = SUM(B)
END
",
    );
}

#[test]
fn offset_sections_preserved() {
    check(
        "PROGRAM T
REAL U(16), V(16), S
FORALL (I = 1:16) U(I) = I * 0.5
V = 0.0
V(2:15) = U(1:14)
S = SUM(V)
END
",
    );
}

#[test]
fn two_dim_whole_assign_preserved() {
    check(
        "PROGRAM T
REAL A(4,6), B(4,6), S
FORALL (I = 1:4, J = 1:6) B(I,J) = I * 10.0 + J
A = B
S = SUM(A)
END
",
    );
}

#[test]
fn kernels_survive_normalization() {
    // The kernels that avoid CSHIFT boundary semantics must be semantics-
    // preserving end to end.
    for (name, n) in [
        ("PI", 64usize),
        ("PBS 1", 64),
        ("PBS 4", 64),
        ("LFK 1", 64),
        ("LFK 22", 64),
    ] {
        let k = hpf90d::kernels::kernel_by_name(name).unwrap();
        check(&k.source(n, 4));
    }
}

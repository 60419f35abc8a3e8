//! Golden pin of the functional interpreter's observable results.
//!
//! Every suite and out-of-core kernel at two sizes, plus small programs
//! that cover the statements no kernel uses (WHERE, DO WHILE, PRINT, STOP,
//! MATMUL, EOSHIFT, …), is run through `hpf_eval::run_with_limit`. Each row
//! records the step count, the number of profile entries, an FNV-1a hash
//! over every profile entry (key and all four counters), an FNV-1a hash over
//! the final scalars (names and value bits) and the PRINT lines; a failed
//! run records `Err`. A kernel's results live in its arrays, so each kernel
//! row is followed by an `arrays` row: the same source with one
//! `PRINT *, <every array>` before `END`, and an FNV-1a hash of the lines it
//! prints (f64 `Display` round-trips, so the hash is bit-exact). The rows
//! are diffed against `artifacts_eval_profiles.txt`; set `UPDATE_GOLDENS=1`
//! to regenerate it.

use hpf90d::eval::{run_with_limit, RunOutcome};
use hpf90d::kernels::{all_kernels, ooc_kernels};
use hpf90d::lang::{analyze, parse_program, SymbolKind, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN: &str = "artifacts_eval_profiles.txt";
const LIMIT: u64 = 500_000_000;

/// Small programs covering every statement form and intrinsic family.
const PROGRAMS: &[(&str, &str, u64)] = &[
    ("scalar_arithmetic", "PROGRAM T\nREAL X\nX = 1.5 + 2.0 * 3.0\nEND\n", LIMIT),
    ("whole_array_sum", "PROGRAM T\nREAL A(10), S\nA = 2.0\nS = SUM(A)\nEND\n", LIMIT),
    (
        "do_accumulate",
        "PROGRAM T\nINTEGER K\nREAL S\nS = 0.0\nDO K = 1, 10\nS = S + K\nEND DO\nEND\n",
        LIMIT,
    ),
    (
        "do_step",
        "PROGRAM T\nINTEGER K, C\nC = 0\nDO K = 1, 10, 3\nC = C + 1\nEND DO\nEND\n",
        LIMIT,
    ),
    (
        "forall_rhs_before_lhs",
        "PROGRAM T\nREAL X(5), S\nX(1) = 1.0\nX(2) = 1.0\nX(3) = 1.0\nX(4) = 1.0\nX(5) = 1.0\n\
         FORALL (K = 2:4) X(K+1) = X(K) + X(K-1)\nS = X(3) + X(4) + X(5)\nEND\n",
        LIMIT,
    ),
    (
        "forall_mask",
        "PROGRAM T\nREAL P(4), Q(4), S\nQ(1) = 2.0\nQ(2) = 0.0\nQ(3) = 4.0\nQ(4) = 0.0\n\
         FORALL (I = 1:4, Q(I) .NE. 0.0) P(I) = 1.0 / Q(I)\nS = P(1) + P(2) + P(3) + P(4)\nEND\n",
        LIMIT,
    ),
    (
        "where_elsewhere",
        "PROGRAM T\nREAL A(4), S\nA(1) = -1.0\nA(2) = 2.0\nA(3) = -3.0\nA(4) = 4.0\n\
         WHERE (A > 0.0)\nA = A * 10.0\nELSEWHERE\nA = 0.0\nEND WHERE\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "where_statement",
        "PROGRAM T\nREAL A(6), S\nFORALL (I = 1:6) A(I) = I * 1.0\nWHERE (A > 3.0) A = 0.0\n\
         S = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "sections",
        "PROGRAM T\nREAL A(10), B(10), S\nA = 1.0\nB = 2.0\nA(1:5) = B(6:10)\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "strided_section",
        "PROGRAM T\nREAL A(10), S\nA = 1.0\nA(1:10:2) = 3.0\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "cshift",
        "PROGRAM T\nREAL A(4), B(4), S\nA(1) = 1.0\nA(2) = 2.0\nA(3) = 3.0\nA(4) = 4.0\n\
         B = CSHIFT(A, 1)\nS = B(1) * 1000.0 + B(4)\nEND\n",
        LIMIT,
    ),
    (
        "dot_product_maxloc",
        "PROGRAM T\nREAL A(3), B(3), D\nINTEGER L\nA(1) = 1.0\nA(2) = 5.0\nA(3) = 2.0\nB = 2.0\n\
         D = DOT_PRODUCT(A, B)\nL = MAXLOC(A)\nEND\n",
        LIMIT,
    ),
    (
        "if_branches",
        "PROGRAM T\nINTEGER K, P, Q\nP = 0\nQ = 0\nDO K = 1, 10\nIF (MOD(K, 2) == 0) THEN\n\
         P = P + 1\nELSE\nQ = Q + 1\nEND IF\nEND DO\nEND\n",
        LIMIT,
    ),
    (
        "do_while",
        "PROGRAM T\nINTEGER K\nK = 1\nDO WHILE (K < 100)\nK = K * 2\nEND DO\nEND\n",
        LIMIT,
    ),
    (
        "step_limit",
        "PROGRAM T\nINTEGER K\nK = 1\nDO WHILE (K > 0)\nK = 2\nEND DO\nEND\n",
        10_000,
    ),
    ("out_of_bounds", "PROGRAM T\nREAL A(4)\nA(5) = 1.0\nEND\n", LIMIT),
    ("print", "PROGRAM T\nREAL X\nX = 2.5\nPRINT *, X\nEND\n", LIMIT),
    (
        "print_array_and_string",
        "PROGRAM T\nINTEGER K(3)\nLOGICAL L\nK = 7\nL = .TRUE.\nPRINT *, 'K =', K, L, 1.0 / 3.0\nEND\n",
        LIMIT,
    ),
    ("stop", "PROGRAM T\nREAL X\nX = 1.0\nSTOP\nX = 2.0\nEND\n", LIMIT),
    (
        "integer_array_coercion",
        "PROGRAM T\nINTEGER A(4), S\nA = 2.7\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "two_dim_forall_transpose",
        "PROGRAM T\nREAL A(3,3), B(3,3), S\nFORALL (I = 1:3, J = 1:3) A(I,J) = I * 10.0 + J\n\
         FORALL (I = 1:3, J = 1:3) B(I,J) = A(J,I)\nS = B(1,3)\nEND\n",
        LIMIT,
    ),
    (
        "laplace_jacobi",
        "PROGRAM LAP\nINTEGER, PARAMETER :: N = 8\nREAL U(N,N), V(N,N)\nINTEGER IT\nU = 0.0\n\
         U(1:N, 1) = 100.0\nDO IT = 1, 50\n\
         FORALL (I = 2:N-1, J = 2:N-1) V(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))\n\
         U(2:N-1, 2:N-1) = V(2:N-1, 2:N-1)\nEND DO\nX = U(4,2)\nEND\n",
        LIMIT,
    ),
    (
        "eoshift",
        "PROGRAM T\nREAL A(4), B(4), S\nA = 1.0\nB = EOSHIFT(A, 2)\nS = SUM(B)\nEND\n",
        LIMIT,
    ),
    (
        "maxval_minval",
        "PROGRAM T\nREAL A(5), MX, MN\nFORALL (I = 1:5) A(I) = (I - 3.0) * (I - 3.0)\n\
         MX = MAXVAL(A)\nMN = MINVAL(A)\nEND\n",
        LIMIT,
    ),
    (
        "transpose",
        "PROGRAM T\nREAL A(2,3), B(3,2), S\nFORALL (I = 1:2, J = 1:3) A(I,J) = I * 10.0 + J\n\
         B = TRANSPOSE(A)\nS = B(3,2)\nEND\n",
        LIMIT,
    ),
    (
        "matmul",
        "PROGRAM T\nREAL A(2,2), B(2,2), C(2,2), S\nFORALL (I = 1:2, J = 1:2) A(I,J) = I * 1.0\n\
         FORALL (I = 1:2, J = 1:2) B(I,J) = J * 1.0\nC = MATMUL(A, B)\nS = C(2,2)\nEND\n",
        LIMIT,
    ),
    (
        "size",
        "PROGRAM T\nREAL A(3,5)\nINTEGER S1, S2, ST\nS1 = SIZE(A, 1)\nS2 = SIZE(A, 2)\n\
         ST = SIZE(A)\nEND\n",
        LIMIT,
    ),
    (
        "nested_forall",
        "PROGRAM T\nREAL A(4,4), S\nFORALL (I = 1:4)\nFORALL (J = 1:4) A(I,J) = I * 1.0\n\
         END FORALL\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "nested_forall_empty",
        "PROGRAM T\nREAL A(4,4), S\nFORALL (I = 1:4)\nFORALL (J = I:0) A(I,J) = I * 1.0\n\
         END FORALL\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "forall_stride_mask",
        "PROGRAM T\nREAL A(12), S\nFORALL (I = 1:12:3, I .GT. 3) A(I) = 1.0\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "negative_stride_forall",
        "PROGRAM T\nREAL A(8), S\nFORALL (I = 8:1:-2) A(I) = 1.0\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "elemental_over_array",
        "PROGRAM T\nREAL A(4), B(4), S\nA = 4.0\nB = SQRT(A)\nS = SUM(B)\nEND\n",
        LIMIT,
    ),
    (
        "do_nested_trips",
        "PROGRAM T\nINTEGER K, J\nREAL X\nDO K = 1, 3\nDO J = 1, 5\nX = X + 1.0\nEND DO\n\
         END DO\nEND\n",
        LIMIT,
    ),
    (
        "double_precision",
        "PROGRAM T\nDOUBLE PRECISION A(4)\nREAL S\nA = 0.25\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    ("shape_mismatch", "PROGRAM T\nREAL A(4), B(5)\nA = B\nEND\n", LIMIT),
    (
        "strided_section_conforms",
        "PROGRAM T\nREAL A(4), B(9)\nA(1:4) = B(3:9:2)\nEND\n",
        LIMIT,
    ),
    (
        "strided_section_too_long",
        "PROGRAM T\nREAL A(4), B(9)\nA(1:4) = B(1:9:2)\nEND\n",
        LIMIT,
    ),
    (
        "whole_array_expression",
        "PROGRAM T\nREAL A(10), B(10), S\nINTEGER K(10), M\nA = 2.0\nB = A * 3.0 + 1.0\n\
         K = 5\nK = K / 2 - MOD(K, 3)\nB = -B + ABS(A - 7.0) * MIN(A, 1.5)\nS = SUM(B)\n\
         M = PRODUCT(K)\nEND\n",
        LIMIT,
    ),
    (
        "self_referencing_shift",
        "PROGRAM T\nREAL X(6), S\nFORALL (I = 1:6) X(I) = I * 1.0\nX = CSHIFT(X, 2)\n\
         X(2:5) = X(1:4)\nS = X(1) * 100.0 + X(6)\nEND\n",
        LIMIT,
    ),
    (
        "logical_array_mask",
        "PROGRAM T\nLOGICAL L(4)\nREAL A(4)\nFORALL (I = 1:4) A(I) = I - 2.5\nL = A > 0.0\n\
         WHERE (L) L = .FALSE.\nWHERE (A < 0.0) A = 1.0\nPRINT *, L, A\nEND\n",
        LIMIT,
    ),
    (
        "logical_array_holds_numbers",
        "PROGRAM T\nLOGICAL L(3)\nL = 1\nL(2) = .TRUE.\nL(3) = 'S'\nPRINT *, L\nEND\n",
        LIMIT,
    ),
    (
        "mod_by_zero_elementwise",
        "PROGRAM T\nINTEGER I(4), J(4)\nREAL R(4), S\nFORALL (K = 1:4) I(K) = K\nJ = 2\nJ(3) = 0\n\
         R = MOD(I, J)\nS = SUM(MOD(I, J))\nPRINT *, R, MOD(I, J)\nEND\n",
        LIMIT,
    ),
    (
        "loop_variables_keep_their_type",
        "PROGRAM T\nREAL A(3)\nDO X = 1, 3\nEND DO\nFORALL (Y = 1:3) A(Y) = Y\nS = SUM(A)\nEND\n",
        LIMIT,
    ),
    (
        "strings_in_logical_scalars",
        "PROGRAM T\nLOGICAL L\nINTEGER K\nL = 'abc'\nK = 'abc'\nPRINT *, L, K, 'done'\nEND\n",
        LIMIT,
    ),
    (
        "if_else_if_chain",
        "PROGRAM T\nINTEGER K, A, B, C\nDO K = 1, 9\nIF (K < 3) THEN\nA = A + 1\n\
         ELSE IF (K < 6) THEN\nB = B + 1\nELSE\nC = C + 1\nEND IF\nEND DO\nEND\n",
        LIMIT,
    ),
    (
        "zero_trip_and_negative_step_loops",
        "PROGRAM T\nINTEGER K, C\nDO K = 5, 1\nC = C + 100\nEND DO\nDO K = 10, 1, -4\n\
         C = C + 1\nEND DO\nEND\n",
        LIMIT,
    ),
    (
        "stop_inside_loop",
        "PROGRAM T\nINTEGER K, C\nDO K = 1, 10\nC = C + 1\nIF (C == 3) THEN\nSTOP\nEND IF\n\
         C = C + 10\nEND DO\nC = -1\nEND\n",
        LIMIT,
    ),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn value_bytes(v: &Value) -> Vec<u8> {
    match v {
        Value::Int(i) => [&[0u8][..], &i.to_le_bytes()].concat(),
        Value::Real(r) => [&[1u8][..], &r.to_bits().to_le_bytes()].concat(),
        Value::Logical(b) => vec![2, u8::from(*b)],
        Value::Str(s) => [&[3u8][..], s.as_bytes()].concat(),
    }
}

fn row(out: &mut String, label: &str, src: &str, limit: u64) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let analyzed = analyze(&program, &BTreeMap::new()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let outcome: RunOutcome = match run_with_limit(&analyzed, limit) {
        Ok(o) => o,
        Err(_) => {
            writeln!(out, "{label} | Err").unwrap();
            return;
        }
    };
    let mut profile_hash = FNV_OFFSET;
    for (&(line, start), s) in outcome.profile.iter() {
        fnv(&mut profile_hash, &line.to_le_bytes());
        fnv(&mut profile_hash, &start.to_le_bytes());
        for c in [s.executions, s.iterations, s.mask_true, s.mask_total] {
            fnv(&mut profile_hash, &c.to_le_bytes());
        }
    }
    let mut scalar_hash = FNV_OFFSET;
    for (name, v) in &outcome.scalars {
        fnv(&mut scalar_hash, name.as_bytes());
        fnv(&mut scalar_hash, &value_bytes(v));
    }
    writeln!(
        out,
        "{label} | steps {} | entries {} | profile {profile_hash:016x} | scalars {} {scalar_hash:016x}",
        outcome.profile.total_steps,
        outcome.profile.len(),
        outcome.scalars.len(),
    )
    .unwrap();
    for line in &outcome.output {
        writeln!(out, "    print: {line}").unwrap();
    }
}

/// The `arrays` row: `src` with every declared array printed before its
/// final `END`, and the hash of the printed lines.
fn arrays_row(out: &mut String, label: &str, src: &str) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let analyzed = analyze(&program, &BTreeMap::new()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let names: Vec<&str> = analyzed
        .symbols
        .iter()
        .filter(|(_, s)| matches!(s.kind, SymbolKind::Array { .. }))
        .map(|(name, _)| name.as_str())
        .collect();
    let end = src.rfind("\nEND\n").expect("source ends with END") + 1;
    let printed = format!(
        "{}PRINT *, {}\n{}",
        &src[..end],
        names.join(", "),
        &src[end..]
    );
    let program = parse_program(&printed).unwrap_or_else(|e| panic!("{label}: {e}"));
    let analyzed = analyze(&program, &BTreeMap::new()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let outcome = run_with_limit(&analyzed, LIMIT).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut hash = FNV_OFFSET;
    for line in &outcome.output {
        fnv(&mut hash, line.as_bytes());
        fnv(&mut hash, b"\n");
    }
    writeln!(out, "{label} | arrays {} {hash:016x}", names.join(",")).unwrap();
}

fn render() -> String {
    let mut out = String::from(
        "# hpf-eval golden: label | steps | entries | profile | scalars (| arrays names hash)\n",
    );
    for k in all_kernels().into_iter().chain(ooc_kernels()) {
        let lo = k.size_range.0;
        for n in [lo, 2 * lo] {
            let label = format!("{} n={n}", k.name);
            let src = k.source(n, 4);
            row(&mut out, &label, &src, LIMIT);
            arrays_row(&mut out, &label, &src);
        }
    }
    for &(label, src, limit) in PROGRAMS {
        row(&mut out, label, src, limit);
    }
    out
}

#[test]
fn evaluator_matches_golden() {
    let got = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    if got != want {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("- {w}\n+ {g}"))
            .collect();
        panic!(
            "evaluator drifted from {GOLDEN} ({} vs {} lines):\n{}",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

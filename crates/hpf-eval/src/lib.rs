//! # hpf-eval — functional interpreter for HPF/Fortran 90D
//!
//! Sequential, global-name-space, value-level execution of the front end's
//! AST. One of the three tools of the paper's application development
//! environment (compiler, functional interpreter, performance predictor).
//!
//! The [`run`] entry point executes an analyzed program and returns an
//! [`ExecutionProfile`] of dynamic behaviour (loop trips, mask densities,
//! branch outcomes) that the iPSC/860 simulator uses for its ground-truth
//! timing, plus all PRINT output and final scalar values for semantics
//! tests.
//!
//! A run first lowers the program to slot code (`lower`): variables become
//! dense slots, PARAMETERs constants, FORALL indices index registers. It
//! then executes that code over `Copy` scalars and typed 8-byte array
//! buffers (`buffer`) written in place (`eval`).

mod buffer;
mod compile;
mod eval;
mod lower;
mod profile;

pub use eval::{run, run_with_limit, EvalError, RunOutcome};
pub use profile::{ExecutionProfile, StmtStats};

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap;

    fn run_src(src: &str) -> RunOutcome {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        run(&a).unwrap()
    }

    #[test]
    fn scalar_arithmetic() {
        let out = run_src("PROGRAM T\nREAL X\nX = 1.5 + 2.0 * 3.0\nEND\n");
        assert_eq!(out.scalars.get("X"), Some(&hpf_lang::Value::Real(7.5)));
    }

    #[test]
    fn whole_array_assignment_and_sum() {
        let out = run_src("PROGRAM T\nREAL A(10), S\nA = 2.0\nS = SUM(A)\nEND\n");
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(20.0)));
    }

    #[test]
    fn do_loop_accumulates() {
        let out = run_src(
            "PROGRAM T\nINTEGER K\nREAL S\nS = 0.0\nDO K = 1, 10\nS = S + K\nEND DO\nEND\n",
        );
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(55.0)));
    }

    #[test]
    fn do_loop_with_step() {
        let out =
            run_src("PROGRAM T\nINTEGER K, C\nC = 0\nDO K = 1, 10, 3\nC = C + 1\nEND DO\nEND\n");
        assert_eq!(out.scalars.get("C"), Some(&hpf_lang::Value::Int(4)));
    }

    #[test]
    fn forall_rhs_before_lhs() {
        // The paper's own example semantics: all RHS evaluated before any
        // LHS assigned. X(K+1) = X(K) + X(K-1) over K=2:4 must read the OLD
        // values of X.
        let out = run_src(
            "PROGRAM T
REAL X(5), S
X(1) = 1.0
X(2) = 1.0
X(3) = 1.0
X(4) = 1.0
X(5) = 1.0
FORALL (K = 2:4) X(K+1) = X(K) + X(K-1)
S = X(3) + X(4) + X(5)
END
",
        );
        // All three updates read old values (1+1=2): X(3)=X(4)=X(5)=2.
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(6.0)));
    }

    #[test]
    fn forall_with_mask() {
        let out = run_src(
            "PROGRAM T
REAL P(4), Q(4), S
Q(1) = 2.0
Q(2) = 0.0
Q(3) = 4.0
Q(4) = 0.0
FORALL (I = 1:4, Q(I) .NE. 0.0) P(I) = 1.0 / Q(I)
S = P(1) + P(2) + P(3) + P(4)
END
",
        );
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(0.75)));
    }

    #[test]
    fn mask_density_profiled() {
        let src = "PROGRAM T
REAL P(4), Q(4)
Q(1) = 2.0
Q(3) = 4.0
FORALL (I = 1:4, Q(I) .NE. 0.0) P(I) = 1.0
END
";
        let out = run_src(src);
        let stats = out
            .profile
            .iter()
            .map(|(_, s)| s)
            .find(|s| s.mask_total > 0)
            .expect("forall stats");
        assert_eq!(stats.mask_total, 4);
        assert_eq!(stats.mask_true, 2);
        assert_eq!(stats.mask_density(), 0.5);
    }

    #[test]
    fn where_and_elsewhere() {
        let out = run_src(
            "PROGRAM T
REAL A(4), S
A(1) = -1.0
A(2) = 2.0
A(3) = -3.0
A(4) = 4.0
WHERE (A > 0.0)
A = A * 10.0
ELSEWHERE
A = 0.0
END WHERE
S = SUM(A)
END
",
        );
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(60.0)));
    }

    #[test]
    fn array_sections() {
        let out = run_src(
            "PROGRAM T
REAL A(10), B(10), S
A = 1.0
B = 2.0
A(1:5) = B(6:10)
S = SUM(A)
END
",
        );
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(15.0)));
    }

    #[test]
    fn strided_section() {
        let out = run_src("PROGRAM T\nREAL A(10), S\nA = 1.0\nA(1:10:2) = 3.0\nS = SUM(A)\nEND\n");
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(20.0)));
    }

    #[test]
    fn cshift_semantics() {
        let out = run_src(
            "PROGRAM T
REAL A(4), B(4), S
A(1) = 1.0
A(2) = 2.0
A(3) = 3.0
A(4) = 4.0
B = CSHIFT(A, 1)
S = B(1) * 1000.0 + B(4)
END
",
        );
        // B = [2,3,4,1]
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(2001.0)));
    }

    #[test]
    fn dot_product_and_maxloc() {
        let out = run_src(
            "PROGRAM T
REAL A(3), B(3), D
INTEGER L
A(1) = 1.0
A(2) = 5.0
A(3) = 2.0
B = 2.0
D = DOT_PRODUCT(A, B)
L = MAXLOC(A)
END
",
        );
        assert_eq!(out.scalars.get("D"), Some(&hpf_lang::Value::Real(16.0)));
        assert_eq!(out.scalars.get("L"), Some(&hpf_lang::Value::Int(2)));
    }

    #[test]
    fn if_branches_profiled() {
        let out = run_src(
            "PROGRAM T
INTEGER K, P, Q
P = 0
Q = 0
DO K = 1, 10
IF (MOD(K, 2) == 0) THEN
P = P + 1
ELSE
Q = Q + 1
END IF
END DO
END
",
        );
        assert_eq!(out.scalars.get("P"), Some(&hpf_lang::Value::Int(5)));
        assert_eq!(out.scalars.get("Q"), Some(&hpf_lang::Value::Int(5)));
    }

    #[test]
    fn do_while_terminates() {
        let out =
            run_src("PROGRAM T\nINTEGER K\nK = 1\nDO WHILE (K < 100)\nK = K * 2\nEND DO\nEND\n");
        assert_eq!(out.scalars.get("K"), Some(&hpf_lang::Value::Int(128)));
    }

    #[test]
    fn step_limit_guards_infinite_loop() {
        let p =
            parse_program("PROGRAM T\nINTEGER K\nK = 1\nDO WHILE (K > 0)\nK = 2\nEND DO\nEND\n")
                .unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(run_with_limit(&a, 10_000).is_err());
    }

    #[test]
    fn out_of_bounds_is_error() {
        let p = parse_program("PROGRAM T\nREAL A(4)\nA(5) = 1.0\nEND\n").unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(run(&a).is_err());
    }

    #[test]
    fn print_output_collected() {
        let out = run_src("PROGRAM T\nREAL X\nX = 2.5\nPRINT *, X\nEND\n");
        assert_eq!(out.output, vec!["2.5".to_string()]);
    }

    #[test]
    fn stop_halts_execution() {
        let out = run_src("PROGRAM T\nREAL X\nX = 1.0\nSTOP\nX = 2.0\nEND\n");
        assert_eq!(out.scalars.get("X"), Some(&hpf_lang::Value::Real(1.0)));
    }

    #[test]
    fn integer_array_coercion() {
        let out = run_src("PROGRAM T\nINTEGER A(4), S\nA = 2.7\nS = SUM(A)\nEND\n");
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Int(8)));
    }

    #[test]
    fn two_dim_forall_transpose() {
        let out = run_src(
            "PROGRAM T
REAL A(3,3), B(3,3), S
FORALL (I = 1:3, J = 1:3) A(I,J) = I * 10.0 + J
FORALL (I = 1:3, J = 1:3) B(I,J) = A(J,I)
S = B(1,3)
END
",
        );
        assert_eq!(out.scalars.get("S"), Some(&hpf_lang::Value::Real(31.0)));
    }

    #[test]
    fn laplace_jacobi_converges_toward_boundary() {
        let out = run_src(
            "PROGRAM LAP
INTEGER, PARAMETER :: N = 8
REAL U(N,N), V(N,N)
INTEGER IT
U = 0.0
U(1:N, 1) = 100.0
DO IT = 1, 50
FORALL (I = 2:N-1, J = 2:N-1) V(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
U(2:N-1, 2:N-1) = V(2:N-1, 2:N-1)
END DO
X = U(4,2)
END
",
        );
        let x = out.scalars.get("X").unwrap().as_f64().unwrap();
        assert!(
            x > 10.0 && x < 100.0,
            "interior heated from boundary, got {x}"
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap;

    fn run_src(src: &str) -> RunOutcome {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        run(&a).unwrap()
    }

    fn f(out: &RunOutcome, n: &str) -> f64 {
        out.scalars.get(n).and_then(|v| v.as_f64()).unwrap()
    }

    #[test]
    fn forall_triplet_past_its_bound_is_empty() {
        // `(hi - lo) / step + 1` truncates to one tuple for these headers;
        // Fortran runs none.
        for (header, sum) in [("5:4:2", 0.0), ("4:5:-2", 0.0), ("6:1:-2", 3.0)] {
            let out = run_src(&format!(
                "PROGRAM T\nREAL A(6), S\nA = 0.0\nFORALL (I = {header}) A(I) = 1.0\nS = SUM(A)\nEND\n"
            ));
            assert_eq!(f(&out, "S"), sum, "FORALL (I = {header})");
        }
    }

    #[test]
    fn eoshift_fills_zero_at_ends() {
        let out =
            run_src("PROGRAM T\nREAL A(4), B(4), S\nA = 1.0\nB = EOSHIFT(A, 2)\nS = SUM(B)\nEND\n");
        assert_eq!(f(&out, "S"), 2.0);
    }

    #[test]
    fn maxval_minval() {
        let out = run_src(
            "PROGRAM T
REAL A(5), MX, MN
FORALL (I = 1:5) A(I) = (I - 3.0) * (I - 3.0)
MX = MAXVAL(A)
MN = MINVAL(A)
END
",
        );
        assert_eq!(f(&out, "MX"), 4.0);
        assert_eq!(f(&out, "MN"), 0.0);
    }

    #[test]
    fn transpose_assignment() {
        let out = run_src(
            "PROGRAM T
REAL A(2,3), B(3,2), S
FORALL (I = 1:2, J = 1:3) A(I,J) = I * 10.0 + J
B = TRANSPOSE(A)
S = B(3,2)
END
",
        );
        assert_eq!(f(&out, "S"), 23.0);
    }

    #[test]
    fn matmul_small() {
        let out = run_src(
            "PROGRAM T
REAL A(2,2), B(2,2), C(2,2), S
FORALL (I = 1:2, J = 1:2) A(I,J) = I * 1.0
FORALL (I = 1:2, J = 1:2) B(I,J) = J * 1.0
C = MATMUL(A, B)
S = C(2,2)
END
",
        );
        // row 2 of A = [2,2]; col 2 of B = [2,2] -> 8
        assert_eq!(f(&out, "S"), 8.0);
    }

    #[test]
    fn size_intrinsic() {
        let out = run_src(
            "PROGRAM T\nREAL A(3,5)\nINTEGER S1, S2, ST\nS1 = SIZE(A, 1)\nS2 = SIZE(A, 2)\nST = SIZE(A)\nEND\n",
        );
        assert_eq!(out.scalars.get("S1").unwrap().as_i64(), Some(3));
        assert_eq!(out.scalars.get("S2").unwrap().as_i64(), Some(5));
        assert_eq!(out.scalars.get("ST").unwrap().as_i64(), Some(15));
    }

    #[test]
    fn nested_forall_construct() {
        let out = run_src(
            "PROGRAM T
REAL A(4,4), S
FORALL (I = 1:4)
FORALL (J = 1:4) A(I,J) = I * 1.0
END FORALL
S = SUM(A)
END
",
        );
        assert_eq!(f(&out, "S"), 4.0 * (1.0 + 2.0 + 3.0 + 4.0));
    }

    #[test]
    fn forall_with_stride_and_mask() {
        let out = run_src(
            "PROGRAM T
REAL A(12), S
FORALL (I = 1:12:3, I .GT. 3) A(I) = 1.0
S = SUM(A)
END
",
        );
        // I in {1,4,7,10}, masked to {4,7,10}
        assert_eq!(f(&out, "S"), 3.0);
    }

    #[test]
    fn negative_stride_forall() {
        let out =
            run_src("PROGRAM T\nREAL A(8), S\nFORALL (I = 8:1:-2) A(I) = 1.0\nS = SUM(A)\nEND\n");
        assert_eq!(f(&out, "S"), 4.0);
    }

    #[test]
    fn elemental_intrinsic_over_array() {
        let out = run_src("PROGRAM T\nREAL A(4), B(4), S\nA = 4.0\nB = SQRT(A)\nS = SUM(B)\nEND\n");
        assert_eq!(f(&out, "S"), 8.0);
    }

    #[test]
    fn logical_array_mask_where() {
        let out = run_src(
            "PROGRAM T
REAL A(6), S
FORALL (I = 1:6) A(I) = I * 1.0
WHERE (A > 3.0) A = 0.0
S = SUM(A)
END
",
        );
        assert_eq!(f(&out, "S"), 6.0);
    }

    #[test]
    fn profile_counts_do_trips_per_execution() {
        let src = "PROGRAM T
INTEGER K, J
REAL X
DO K = 1, 3
DO J = 1, 5
X = X + 1.0
END DO
END DO
END
";
        let out = run_src(src);
        // inner DO reached 3 times, 5 trips each.
        let inner_line = src.lines().position(|l| l.starts_with("DO J")).unwrap() as u32 + 1;
        let st = out.profile.by_line(inner_line).unwrap();
        assert_eq!(st.executions, 3);
        assert_eq!(st.iterations, 15);
    }

    #[test]
    fn double_precision_arrays() {
        let out = run_src("PROGRAM T\nDOUBLE PRECISION A(4)\nREAL S\nA = 0.25\nS = SUM(A)\nEND\n");
        assert_eq!(f(&out, "S"), 1.0);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let p = parse_program("PROGRAM T\nREAL A(4), B(5)\nA = B\nEND\n").unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(run(&a).is_err());
    }

    #[test]
    fn section_of_section_error_paths() {
        // out-of-range section
        let p = parse_program("PROGRAM T\nREAL A(4), B(9)\nA(1:4) = B(3:9:2)\nEND\n").unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(run(&a).is_ok(), "4-element strided section conforms");
        let p = parse_program("PROGRAM T\nREAL A(4), B(9)\nA(1:4) = B(1:9:2)\nEND\n").unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(run(&a).is_err(), "5 elements into 4 must fail");
    }

    fn run_err(src: &str) -> EvalError {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        run_with_limit(&a, 1_000_000).expect_err("run must fail")
    }

    #[test]
    fn where_mask_shorter_than_target_is_an_error() {
        let e = run_err("PROGRAM T\nREAL A(4), B(8)\nA = 1.0\nWHERE (A > 0.0) B = 2.0\nEND\n");
        assert!(e.message.contains("mask"), "{e}");
    }

    #[test]
    fn where_mask_longer_than_target_is_an_error() {
        let e = run_err("PROGRAM T\nREAL A(8), B(4)\nA = 1.0\nWHERE (A > 0.0) B = 2.0\nEND\n");
        assert!(e.message.contains("mask"), "{e}");
    }

    #[test]
    fn where_rhs_shape_is_checked_with_no_element_active() {
        let e = run_err("PROGRAM T\nREAL A(4), B(4), C(5)\nWHERE (A > 0.0) B = C\nEND\n");
        assert!(e.message.contains("conformable"), "{e}");
    }

    #[test]
    fn forall_index_space_overflow_is_an_error() {
        let e = run_err(
            "PROGRAM T\nREAL A(4)\n\
             FORALL (I = 1:4000000000, J = 1:4000000000, K = 1:4000000000) A(1) = 1.0\nEND\n",
        );
        assert!(e.message.contains("overflows"), "{e}");
    }

    #[test]
    fn do_loop_up_to_the_integer_limit_runs_its_trips() {
        let out = run_src(
            "PROGRAM T\nINTEGER K, C\n\
             DO K = 9223372036854775806, 9223372036854775807\nC = C + 1\nEND DO\nEND\n",
        );
        assert_eq!(out.scalars.get("C"), Some(&hpf_lang::Value::Int(2)));
        assert_eq!(out.scalars.get("K"), Some(&hpf_lang::Value::Int(i64::MAX)));
        let out = run_src(
            "PROGRAM T\nINTEGER K, C\n\
             DO K = -9223372036854775807, -9223372036854775807 - 1, -1\nC = C + 1\nEND DO\nEND\n",
        );
        assert_eq!(out.scalars.get("C"), Some(&hpf_lang::Value::Int(2)));
        assert_eq!(out.scalars.get("K"), Some(&hpf_lang::Value::Int(i64::MIN)));
    }

    #[test]
    fn sections_and_foralls_at_the_integer_limit() {
        let out = run_src(
            "PROGRAM T
REAL A(9223372036854775806:9223372036854775807), S, Z
A(:) = 2.0
FORALL (I = 9223372036854775806:9223372036854775807) A(I) = A(I) + 1.0
S = SUM(A(9223372036854775806:9223372036854775807))
Z = SUM(A(9223372036854775807:9223372036854775806))
END
",
        );
        assert_eq!(f(&out, "S"), 6.0);
        assert_eq!(f(&out, "Z"), 0.0);
        let e = run_err(
            "PROGRAM T\nREAL A(4)\nA(9223372036854775806:9223372036854775807) = 1.0\nEND\n",
        );
        assert!(e.message.contains("out of bounds"), "{e}");
        let e = run_err(
            "PROGRAM T\nREAL A(4)\nA(1:9223372036854775807:4611686018427387904) = 1.0\nEND\n",
        );
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn oversized_arrays_are_an_error() {
        let e = run_err("PROGRAM T\nREAL A(1:9223372036854775807)\nA(1) = 1.0\nEND\n");
        assert!(e.message.contains("limit"), "{e}");
        let e = run_err("PROGRAM T\nREAL A(4000000000, 4000000000)\nEND\n");
        assert!(e.message.contains("limit"), "{e}");
    }

    #[test]
    fn nonunit_lower_bounds() {
        let out = run_src(
            "PROGRAM T\nREAL A(0:4), B(-2:2, 3:4), S\nA(0) = 7.0\nA(4) = 1.0\n\
             B(-2, 4) = 2.0\nB(2, 3) = 3.0\nS = A(0) + A(4) + SUM(B)\nEND\n",
        );
        assert_eq!(f(&out, "S"), 13.0);
        assert!(run_err("PROGRAM T\nREAL A(0:4)\nA(5) = 1.0\nEND\n")
            .message
            .contains("out of bounds"));
        assert!(run_err("PROGRAM T\nREAL A(0:4)\nA(-1) = 1.0\nEND\n")
            .message
            .contains("out of bounds"));
    }

    #[test]
    fn a_real_scalar_holding_an_integer_stays_one_in_real_arithmetic() {
        // A DO loop stores `Int` into the REAL scalar X; a FORALL then reads
        // it beside REAL literals and an index.
        let out = run_src(
            "PROGRAM T\nREAL X, A(4)\nDO X = 1, 3\nEND DO\n\
             FORALL (I = 1:4) A(I) = X * 2.5 + I\nPRINT *, A\nPRINT *, X\nEND\n",
        );
        assert_eq!(out.output, ["8.5 9.5 10.5 11.5", "3"]);
        assert_eq!(out.scalars.get("X"), Some(&hpf_lang::Value::Int(3)));
    }

    #[test]
    fn a_logical_array_element_holding_an_integer_is_numeric() {
        let out = run_src("PROGRAM T\nLOGICAL G(4)\nREAL Y\nG(2) = 3\nY = G(2) * 1.5\nEND\n");
        assert_eq!(f(&out, "Y"), 4.5);
    }

    #[test]
    fn integer_division_by_zero_in_a_forall_is_bad_operands() {
        // By a zero scalar, a zero index expression and a zero element.
        for rhs in ["I / Z", "I / (I - I)", "7 / IZ(I)"] {
            let e = run_err(&format!(
                "PROGRAM T\nINTEGER A(4), Z, IZ(4)\nZ = 0\nFORALL (I = 1:4) A(I) = {rhs}\nEND\n"
            ));
            assert_eq!(e.message, "bad operands", "{rhs}");
            assert_eq!(e.span.line, 4, "{rhs}");
        }
    }

    #[test]
    fn subscripts_are_checked_dimension_by_dimension() {
        // In bounds first, out of bounds second, affine and general.
        for rhs in ["A(I, I+1)", "A(I, 2*I+1)"] {
            let e = run_err(&format!(
                "PROGRAM T\nREAL A(4,4), B(4)\nFORALL (I = 1:4) B(I) = {rhs}\nEND\n"
            ));
            assert_eq!(e.message, "index 5 out of bounds for `A`", "{rhs}");
            assert_eq!(e.span.line, 3, "{rhs}");
        }
        // Both out of bounds: the first dimension reports.
        for rhs in ["A(I+4, I+9)", "A(2*I+3, 3*I+9)"] {
            let e = run_err(&format!(
                "PROGRAM T\nREAL A(4,4), B(4)\nFORALL (I = 1:4) B(I) = {rhs}\nEND\n"
            ));
            assert_eq!(e.message, "index 5 out of bounds for `A`", "{rhs}");
        }
    }

    #[test]
    fn a_right_operands_bounds_error_beats_a_left_operands_type_error() {
        for body in [
            "FORALL (I = 1:4) B(I) = L + A(I+9)",
            "Y = L + A(99)",
            "Y = MAX(L, A(99))",
        ] {
            let e = run_err(&format!(
                "PROGRAM T\nLOGICAL L\nREAL A(4), B(4), Y\n{body}\nEND\n"
            ));
            assert!(e.message.starts_with("index "), "{body}: {e}");
            assert!(e.message.ends_with(" out of bounds for `A`"), "{body}: {e}");
        }
        // A whole left operand fails before the right one is read.
        for (body, msg) in [
            ("Y = -L + A(99)", "bad operand for unary operator"),
            ("Y = ABS(L) + A(99)", "bad arguments to ABS"),
        ] {
            let e = run_err(&format!(
                "PROGRAM T\nLOGICAL L\nREAL A(4), B(4), Y\n{body}\nEND\n"
            ));
            assert_eq!(e.message, msg, "{body}");
        }
    }

    #[test]
    fn operand_type_errors_are_raised_after_both_operands() {
        for (body, msg) in [
            ("Y = L + 1.0", "bad operands"),
            ("Y = 2.0 * L", "bad operands"),
            ("Y = 'abc' + 1", "bad operands"),
            ("K = 7 / K", "bad operands"),
            ("Y = -L", "bad operand for unary operator"),
            ("Y = SQRT(L)", "bad arguments to SQRT"),
            ("Y = A(1) + L", "bad operands"),
        ] {
            let e = run_err(&format!(
                "PROGRAM T\nLOGICAL L\nINTEGER K\nREAL A(4), Y\n{body}\nEND\n"
            ));
            assert_eq!(e.message, msg, "{body}");
        }
    }

    #[test]
    fn integer_arithmetic_wraps_and_promotes_as_value_ops_does() {
        let out = run_src(
            "PROGRAM T\nINTEGER A(3), K, P, Q\nREAL Y, Z\n\
             K = 9223372036854775807\nFORALL (I = 1:3) A(I) = K + I\n\
             P = 2 ** (-1)\nQ = (-1) ** (-3)\nY = 7 / 2 + 0.5\nZ = 2 ** 0.5\n\
             PRINT *, A, P, Q\nEND\n",
        );
        assert_eq!(
            out.output,
            ["-9223372036854775808 -9223372036854775807 -9223372036854775806 0 -1"]
        );
        assert_eq!(f(&out, "Y"), 3.5);
        assert_eq!(f(&out, "Z"), 2f64.powf(0.5));
    }

    #[test]
    fn empty_sections_may_have_huge_extents() {
        let out = run_src(
            "PROGRAM T
REAL A(2,2,2), B(2,2), S
S = SUM(A(1:9223372036854775807, 1:9223372036854775807, 1:0) + 1.0)
PRINT *, TRANSPOSE(B(1:9223372036854775807, 1:0) * 2.0)
PRINT *, CSHIFT(B(1:9223372036854775807, 1:0) + 1.0, 1)
END
",
        );
        assert_eq!(f(&out, "S"), 0.0);
        assert_eq!(out.output, vec![String::new(), String::new()]);
        let e = run_err(
            "PROGRAM T\nREAL B(2,2), C(2,2)\nPRINT *, MATMUL(B(1:1048576, 1:0), B(1:0, 1:1048576))\nEND\n",
        );
        assert!(e.message.contains("limit"), "{e}");
    }
}

//! Robustness: the front end must never panic — malformed input produces
//! diagnostics, arbitrary bytes produce lexical errors, and every error
//! carries a usable source location — and neither may the functional
//! evaluator on any program the front end accepts.

use hpf_lang::{analyze, lex, parse_program, LangError, Phase, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[test]
fn malformed_programs_error_cleanly() {
    let cases: &[(&str, Phase)] = &[
        ("", Phase::Parse),
        ("PROGRAM", Phase::Parse),
        ("PROGRAM T\nX = \nEND\n", Phase::Parse),
        ("PROGRAM T\nFORALL () X = 1\nEND\n", Phase::Parse),
        ("PROGRAM T\nDO I = 1\nEND DO\nEND\n", Phase::Parse),
        ("PROGRAM T\nIF (1 > 0) THEN\nEND\n", Phase::Parse),
        ("PROGRAM T\nWHERE (A > 0)\nEND\n", Phase::Parse),
        ("PROGRAM T\n!HPF$ FROBNICATE X\nX = 1\nEND\n", Phase::Parse),
        ("PROGRAM T\n!HPF$ DISTRIBUTE A(WEIRD)\nEND\n", Phase::Parse),
        ("PROGRAM T\nREAL A(-5)\nA = 0.0\nEND\n", Phase::Sema),
        (
            "PROGRAM T\nINTEGER, PARAMETER :: N = 'abc'\nEND\n",
            Phase::Sema,
        ),
        ("PROGRAM T\nX = 'unterminated\nEND\n", Phase::Lex),
    ];
    for (src, phase) in cases {
        let err: LangError = match parse_program(src) {
            Err(e) => e,
            Ok(p) => match analyze(&p, &BTreeMap::new()) {
                Err(e) => e,
                Ok(_) => panic!("expected failure for {src:?}"),
            },
        };
        assert_eq!(err.phase, *phase, "{src:?} → {err}");
        // Message renders with a location.
        let msg = err.to_string();
        assert!(msg.contains("error"), "{msg}");
    }
}

#[test]
fn independent_directive_accepted() {
    let src = "
PROGRAM T
REAL A(8)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ INDEPENDENT
FORALL (I = 1:8) A(I) = 1.0
END
";
    let p = parse_program(src).unwrap();
    assert!(p
        .directives
        .iter()
        .any(|d| matches!(d, hpf_lang::Directive::Independent { .. })));
    analyze(&p, &BTreeMap::new()).unwrap();
}

#[test]
fn deeply_nested_constructs_parse() {
    let mut src = String::from("PROGRAM T\nINTEGER K1, K2, K3, K4\nREAL X\n");
    src.push_str("DO K1 = 1, 2\nDO K2 = 1, 2\nDO K3 = 1, 2\nDO K4 = 1, 2\n");
    src.push_str("IF (X > 0.0) THEN\nIF (X > 1.0) THEN\nX = X - 1.0\nEND IF\nEND IF\n");
    src.push_str("END DO\nEND DO\nEND DO\nEND DO\nEND\n");
    let p = parse_program(&src).unwrap();
    analyze(&p, &BTreeMap::new()).unwrap();
}

#[test]
fn long_continuation_chains() {
    let mut src = String::from("PROGRAM T\nREAL X\nX = 0.0");
    for _ in 0..40 {
        src.push_str(" + &\n  1.0");
    }
    src.push_str("\nEND\n");
    let p = parse_program(&src).unwrap();
    let a = analyze(&p, &BTreeMap::new()).unwrap();
    let out = hpf_eval::run(&a).unwrap();
    assert_eq!(out.scalars.get("X").and_then(|v| v.as_f64()), Some(40.0));
}

proptest! {
    /// The lexer never panics on arbitrary printable input.
    #[test]
    fn lexer_total_on_printable(s in "[ -~\n]{0,200}") {
        let _ = lex(&s);
    }

    /// The lexer never panics on arbitrary bytes that form a string.
    #[test]
    fn lexer_total_on_unicode(s in "\\PC{0,100}") {
        let _ = lex(&s);
    }

    /// The parser never panics on arbitrary printable input.
    #[test]
    fn parser_total(s in "[ -~\n]{0,300}") {
        let _ = parse_program(&s);
    }

    /// Numbers round-trip through the lexer.
    #[test]
    fn integer_literals_roundtrip(v in 0i64..1_000_000_000) {
        let toks = lex(&format!("{v}")).unwrap();
        assert_eq!(toks[0].kind, hpf_lang::token::TokenKind::IntLit(v));
    }

    /// Identifier case-insensitivity: lexing upper/lower forms agree.
    #[test]
    fn identifiers_case_insensitive(s in "[a-zA-Z][a-zA-Z0-9_]{0,12}") {
        let a = lex(&s).unwrap();
        let b = lex(&s.to_ascii_uppercase()).unwrap();
        assert_eq!(a[0].kind, b[0].kind);
    }
}

/// Seeded generator of small programs for the evaluator's totality
/// property: random array shapes and types, FORALL/DO/section bounds within
/// a few steps of the `i64` limits, WHERE masks over arrays of other shapes,
/// and every statement form the evaluator runs.
struct ProgramGen {
    state: u64,
    /// Declared arrays: name and rank.
    arrays: Vec<(char, usize)>,
    /// FORALL indices in scope.
    indices: Vec<char>,
}

impl ProgramGen {
    fn new(seed: u64) -> ProgramGen {
        ProgramGen {
            state: seed,
            arrays: Vec::new(),
            indices: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// An integer literal: small, or within a few steps of an `i64` limit.
    fn bound(&mut self) -> String {
        let near = self.below(3) as i64;
        match self.below(12) {
            0 => format!("{}", i64::MAX - near),
            1 => format!("(-{})", i64::MAX - near),
            2 => format!("{}", 4_000_000_000 + near),
            _ => format!("{}", self.below(8) as i64 - 1),
        }
    }

    /// `lb:ub` of one declared dimension.
    fn dim(&mut self) -> String {
        let extent = 1 + self.below(6) as i64;
        match self.below(60) {
            0 => format!("1:{}", i64::MAX - self.below(2) as i64),
            1..=6 => {
                let ub = i64::MAX - self.below(2) as i64;
                format!("{}:{ub}", ub - (extent - 1))
            }
            7..=12 => {
                let lb = i64::MIN + 1 + self.below(2) as i64;
                format!("(-{}):(-{})", -lb, -(lb + extent - 1))
            }
            _ => {
                let lb = self.below(4) as i64 - 1;
                format!("({lb}):{}", lb + extent - 1)
            }
        }
    }

    fn array(&mut self) -> (char, usize) {
        let k = self.below(self.arrays.len() as u64) as usize;
        self.arrays[k]
    }

    fn int_expr(&mut self, depth: u32) -> String {
        let leaves = 3 + self.indices.len() as u64;
        match self.below(if depth == 0 { leaves } else { leaves + 4 }) {
            0 => self.bound(),
            1 => self.pick(&["K", "N", "M"]).to_string(),
            2 => format!("{}", self.below(5)),
            k if k < leaves => self.indices[(k - 3) as usize].to_string(),
            k if k == leaves => {
                let op = self.pick(&["+", "-", "*", "/"]);
                format!(
                    "({} {op} {})",
                    self.int_expr(depth - 1),
                    self.int_expr(depth - 1)
                )
            }
            k if k == leaves + 1 => {
                format!(
                    "MOD({}, {})",
                    self.int_expr(depth - 1),
                    self.int_expr(depth - 1)
                )
            }
            k if k == leaves + 2 => format!("(-{})", self.int_expr(depth - 1)),
            _ => {
                let (a, _) = self.array();
                format!("SIZE({a})")
            }
        }
    }

    fn elem(&mut self, depth: u32) -> String {
        let (a, rank) = self.array();
        let subs: Vec<String> = (0..rank).map(|_| self.int_expr(depth)).collect();
        format!("{a}({})", subs.join(", "))
    }

    fn real_expr(&mut self, depth: u32) -> String {
        match self.below(if depth == 0 { 4 } else { 10 }) {
            0 => self.pick(&["1.5", "-2.0", "0.0", "1.0E30"]).to_string(),
            1 => self.pick(&["X", "Y", "K"]).to_string(),
            2 => self.int_expr(0),
            3 => self.elem(0),
            4 => {
                let op = self.pick(&["+", "-", "*", "/", "**"]);
                format!(
                    "({} {op} {})",
                    self.real_expr(depth - 1),
                    self.real_expr(depth - 1)
                )
            }
            5 => format!("SQRT(ABS({}))", self.real_expr(depth - 1)),
            6 => format!(
                "MAX({}, {})",
                self.real_expr(depth - 1),
                self.real_expr(depth - 1)
            ),
            7 => {
                let f = self.pick(&["SUM", "MAXVAL", "PRODUCT"]);
                format!("{f}({})", self.array_expr())
            }
            // A LOGICAL left operand beside an element read that may fail:
            // which error wins pins the evaluation order of REAL
            // arithmetic.
            8 => {
                let op = self.pick(&["+", "-", "*", "/", "**"]);
                format!("(L {op} {})", self.elem(depth - 1))
            }
            _ => self.elem(depth - 1),
        }
    }

    fn logical(&mut self) -> String {
        match self.below(4) {
            0 => format!("({} > {})", self.real_expr(1), self.real_expr(0)),
            1 => format!("({} < {})", self.int_expr(1), self.int_expr(0)),
            2 => "L".to_string(),
            _ => ".TRUE.".to_string(),
        }
    }

    fn section(&mut self, rank: usize) -> String {
        let subs: Vec<String> = (0..rank)
            .map(|_| match self.below(4) {
                0 => ":".to_string(),
                1 => self.int_expr(0),
                2 => format!("{}:{}", self.bound(), self.bound()),
                _ => format!("{}:{}:{}", self.bound(), self.bound(), self.bound()),
            })
            .collect();
        subs.join(", ")
    }

    fn array_expr(&mut self) -> String {
        let (a, rank) = self.array();
        let (b, _) = self.array();
        match self.below(10) {
            8 => format!("TRANSPOSE({a})"),
            9 => format!("MATMUL({a}, {b})"),
            0 => a.to_string(),
            1 => format!("{a} + {}", self.real_expr(1)),
            2 => format!("{a} * {b}"),
            3 => format!("CSHIFT({a}, {})", self.bound()),
            4 => format!("EOSHIFT({a}, {}, {})", self.bound(), 1 + self.below(3)),
            5 => format!("ABS({a})"),
            6 => format!("-{a}"),
            _ => format!("{a}({})", self.section(rank)),
        }
    }

    fn block(&mut self, depth: u32) -> String {
        let n = 1 + self.below(3);
        (0..n).map(|_| self.stmt(depth)).collect()
    }

    fn stmt(&mut self, depth: u32) -> String {
        let (a, rank) = self.array();
        let (b, _) = self.array();
        let nested = depth < 2;
        match self.below(if nested { 12 } else { 8 }) {
            0 => format!("K = {}\n", self.int_expr(2)),
            1 => format!("X = {}\n", self.real_expr(2)),
            2 => format!("{} = {}\n", self.elem(1), self.real_expr(2)),
            3 => {
                let rhs = if self.below(2) == 0 {
                    self.real_expr(1)
                } else {
                    self.array_expr()
                };
                format!("{a} = {rhs}\n")
            }
            4 => {
                let rhs = if self.below(2) == 0 {
                    self.real_expr(1)
                } else {
                    self.array_expr()
                };
                format!("{a}({}) = {rhs}\n", self.section(rank))
            }
            5 => self.forall(a, rank),
            6 => {
                let rhs = if self.below(2) == 0 {
                    self.real_expr(1)
                } else {
                    self.array_expr()
                };
                if self.below(2) == 0 {
                    format!("WHERE ({a} > 0.0) {b} = {rhs}\n")
                } else {
                    format!(
                        "WHERE ({a} < 1.0)\n{b} = {rhs}\nELSEWHERE\n{b} = {}\nEND WHERE\n",
                        self.real_expr(0)
                    )
                }
            }
            7 => format!("PRINT *, {}, {a}\n", self.real_expr(1)),
            8 => {
                let step = match self.below(3) {
                    0 => format!(", {}", self.bound()),
                    _ => String::new(),
                };
                format!(
                    "DO M = {}, {}{step}\n{}END DO\n",
                    self.bound(),
                    self.bound(),
                    self.block(depth + 1)
                )
            }
            9 => format!(
                "N = 0\nDO WHILE (N < {})\nN = N + 1\n{}END DO\n",
                self.below(6),
                self.block(depth + 1)
            ),
            10 => format!(
                "IF ({}) THEN\n{}ELSE\n{}END IF\n",
                self.logical(),
                self.block(depth + 1),
                self.block(depth + 1)
            ),
            _ => format!("IF ({}) THEN\nSTOP\nEND IF\n", self.logical()),
        }
    }

    fn triplet(&mut self, var: char) -> String {
        match self.below(3) {
            0 => format!("{var} = {}:{}:{}", self.bound(), self.bound(), self.bound()),
            _ => format!("{var} = {}:{}", self.bound(), self.bound()),
        }
    }

    fn forall(&mut self, a: char, rank: usize) -> String {
        let vars = ['I', 'J', 'Q'];
        let count = 1 + self.below(3) as usize;
        let triplets: Vec<String> = vars[..count].iter().map(|&v| self.triplet(v)).collect();
        self.indices.extend_from_slice(&vars[..count]);
        let mask = match self.below(3) {
            0 => format!(", {}", self.logical()),
            _ => String::new(),
        };
        let subs: Vec<String> = (0..rank).map(|_| self.int_expr(1)).collect();
        let out = if self.below(4) == 0 {
            self.indices.push('P');
            let inner = format!(
                "FORALL ({}) {a}({}) = {}\n",
                self.triplet('P'),
                subs.join(", "),
                self.real_expr(1)
            );
            self.indices.pop();
            format!(
                "FORALL ({}{mask})\n{inner}END FORALL\n",
                triplets.join(", ")
            )
        } else {
            format!(
                "FORALL ({}{mask}) {a}({}) = {}\n",
                triplets.join(", "),
                subs.join(", "),
                self.real_expr(2)
            )
        };
        self.indices.truncate(self.indices.len() - count);
        out
    }

    fn program(&mut self) -> String {
        let mut src = String::from("PROGRAM G\nINTEGER K, N, M\nREAL X, Y\nLOGICAL L\n");
        for name in ['A', 'B', 'C'] {
            let ty = self.pick(&["REAL", "REAL", "INTEGER", "LOGICAL"]);
            let rank = 1 + self.below(3) as usize;
            let dims: Vec<String> = (0..rank).map(|_| self.dim()).collect();
            src.push_str(&format!("{ty} {name}({})\n", dims.join(", ")));
            self.arrays.push((name, rank));
        }
        for _ in 0..3 + self.below(5) {
            let st = self.stmt(0);
            src.push_str(&st);
        }
        src.push_str("END\n");
        src
    }
}

/// The generator mostly writes programs the front end accepts, and the
/// evaluator both completes and rejects some of them.
#[test]
fn generated_programs_reach_the_evaluator() {
    let (mut analyzed, mut ok) = (0, 0);
    for seed in 0..300 {
        let src = ProgramGen::new(seed).program();
        let Ok(p) = parse_program(&src) else { continue };
        let Ok(a) = analyze(&p, &BTreeMap::new()) else {
            continue;
        };
        analyzed += 1;
        ok += usize::from(hpf_eval::run_with_limit(&a, 20_000).is_ok());
    }
    assert!(analyzed >= 240, "only {analyzed} of 300 programs analyzed");
    assert!(
        ok >= 20 && ok + 50 <= analyzed,
        "{ok} of {analyzed} ran to completion"
    );
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over what the evaluator makes of generated programs 0..2,000,
/// each with `PRINT *, A`, `PRINT *, B` and `PRINT *, C` before `END`:
/// per seed the PRINT lines, every profile entry, the step count and the
/// final scalars of a completed run, or the message and span of an error.
const GENERATED_DIGEST: u64 = 0xbe23_8190_3814_b421;

/// The evaluator's outcome and error text on generated programs are pinned
/// bit for bit, so a change to how it evaluates cannot move them unseen.
#[test]
fn generated_program_outcomes_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..2_000u64 {
        let src = ProgramGen::new(seed).program();
        let body = src.strip_suffix("END\n").expect("programs end with END");
        let src = format!("{body}PRINT *, A\nPRINT *, B\nPRINT *, C\nEND\n");
        fnv(&mut h, &seed.to_le_bytes());
        let Ok(p) = parse_program(&src) else {
            fnv(&mut h, b"rejected");
            continue;
        };
        let Ok(a) = analyze(&p, &BTreeMap::new()) else {
            fnv(&mut h, b"rejected");
            continue;
        };
        match hpf_eval::run_with_limit(&a, 20_000) {
            Ok(out) => {
                fnv(&mut h, b"ok");
                for line in &out.output {
                    fnv(&mut h, line.as_bytes());
                    fnv(&mut h, b"\n");
                }
                for (&(line, start), s) in out.profile.iter() {
                    for c in [line, start] {
                        fnv(&mut h, &c.to_le_bytes());
                    }
                    for c in [s.executions, s.iterations, s.mask_true, s.mask_total] {
                        fnv(&mut h, &c.to_le_bytes());
                    }
                }
                fnv(&mut h, &out.profile.total_steps.to_le_bytes());
                for (name, v) in &out.scalars {
                    fnv(&mut h, name.as_bytes());
                    match v {
                        Value::Int(i) => fnv(&mut h, &[&[0u8][..], &i.to_le_bytes()].concat()),
                        Value::Real(r) => {
                            fnv(&mut h, &[&[1u8][..], &r.to_bits().to_le_bytes()].concat())
                        }
                        Value::Logical(b) => fnv(&mut h, &[2, u8::from(*b)]),
                        Value::Str(s) => fnv(&mut h, &[&[3u8][..], s.as_bytes()].concat()),
                    }
                }
            }
            Err(e) => {
                fnv(&mut h, b"err");
                fnv(&mut h, e.message.as_bytes());
                let s = e.span;
                for c in [s.start, s.end, s.line, s.end_line] {
                    fnv(&mut h, &c.to_le_bytes());
                }
            }
        }
    }
    assert_eq!(h, GENERATED_DIGEST, "digest {h:016x}");
}

proptest! {
    /// The evaluator never panics: every generated program returns Ok or
    /// Err under a small step budget.
    #[test]
    fn evaluator_total_on_generated_programs(seed in 0u64..u64::MAX) {
        for k in 0..4 {
            let src = ProgramGen::new(seed.wrapping_add(k)).program();
            let Ok(p) = parse_program(&src) else { continue };
            let Ok(a) = analyze(&p, &BTreeMap::new()) else { continue };
            let _ = hpf_eval::run_with_limit(&a, 20_000);
        }
    }
}

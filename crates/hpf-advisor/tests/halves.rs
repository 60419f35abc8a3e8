//! The search's two halves against the whole-program path: every
//! candidate's back half, run over the front half the search builds once,
//! must compile to the same SPMD program as analyzing and compiling the
//! whole rewritten program, or reject where that path rejects.

use std::collections::BTreeMap;

use hpf_advisor::space::apply_candidate;
use hpf_advisor::{enumerate_candidates, render_table, Advisor, AdvisorConfig};
use hpf_compiler::{compile, CompileOptions};
use hpf_lang::ast::Program;
use hpf_lang::{analyze, parse_program};
use kernels::CompiledKernel;

/// A rank-2 and a rank-1 template ONTO one `P(2,2)`: the program's own
/// directives are invalid (the rank-1 DISTRIBUTE distributes one dimension
/// onto a rank-2 arrangement), but every singly distributed candidate
/// redeclares `P` with rank 1 and is valid.
const TWO_TEMPLATES: &str = "
PROGRAM TWO
INTEGER, PARAMETER :: N = 16
REAL A(N,N), B(N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE T(N,N)
!HPF$ TEMPLATE S(N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ ALIGN B(I) WITH S(I)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK) ONTO P
!HPF$ DISTRIBUTE S(BLOCK) ONTO P
FORALL (I = 1:N, J = 1:N) A(I,J) = 1.0
FORALL (I = 1:N) B(I) = 2.0
END
";

/// A body that fails whatever the directives: it assigns to a template.
const BODY_FAILS: &str = "
PROGRAM BAD
INTEGER, PARAMETER :: N = 16
REAL A(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
T = 1.0
END
";

const LAPLACE: [&str; 3] = ["Laplace (Blk-Blk)", "Laplace (Blk-X)", "Laplace (X-Blk)"];

fn cfg(procs: usize) -> AdvisorConfig {
    AdvisorConfig {
        procs,
        ..AdvisorConfig::quick()
    }
}

/// Compare every candidate's back half with the whole-program path;
/// returns how many candidates both reject.
fn assert_halves_match(advisor: &Advisor, program: &Program, cfg: &AdvisorConfig) -> usize {
    let overrides = BTreeMap::from([("N".to_string(), cfg.n as i64)]);
    let front = advisor.front(cfg.n);
    let mut rejected = 0;
    for c in enumerate_candidates(advisor.rank(), cfg.procs, &cfg.ks) {
        let label = c.label();
        let opts = CompileOptions {
            nodes: cfg.procs,
            grid_extents: Some(c.grid.clone()),
            ..CompileOptions::default()
        };
        let whole = analyze(&apply_candidate(program, &c), &overrides)
            .ok()
            .and_then(|analyzed| compile(&analyzed, &opts).ok());
        let halves = front
            .as_ref()
            .ok()
            .and_then(|f| f.compile(&c, cfg.procs).ok());
        match (whole, halves) {
            (Some(whole), Some(halves)) => assert_eq!(
                format!("{whole:?}"),
                format!("{halves:?}"),
                "P={} {label}: the back half compiled a different SPMD program",
                cfg.procs
            ),
            (None, None) => rejected += 1,
            (whole, _) => panic!(
                "P={} {label}: only the {} compiles",
                cfg.procs,
                if whole.is_some() {
                    "whole program"
                } else {
                    "back half"
                },
            ),
        }
    }
    rejected
}

/// `(candidates, evaluated, pruned, invalid)` of one search, checked
/// against the rendered table's space line.
fn counts(advisor: &Advisor, cfg: &AdvisorConfig) -> (usize, usize, usize, usize) {
    let r = advisor.search(cfg).unwrap();
    let space = format!(
        "space: {} candidates   evaluated: {}   pruned: {}   invalid: {}",
        r.candidates,
        r.ranked.len(),
        r.pruned,
        r.invalid
    );
    assert!(render_table(&r).lines().any(|l| l == space), "{space}");
    (r.candidates, r.ranked.len(), r.pruned, r.invalid)
}

#[test]
fn laplace_candidates_compile_the_same_through_the_halves() {
    for name in LAPLACE {
        let kernel = kernels::kernel_by_name(name).unwrap();
        let artifact = CompiledKernel::new(&kernel).unwrap();
        let advisor = Advisor::for_kernel(&artifact).unwrap();
        for (procs, want) in [
            (2, (60, 48, 12, 0)),
            (4, (85, 64, 21, 0)),
            (8, (110, 88, 22, 0)),
            (16, (135, 112, 23, 0)),
        ] {
            let cfg = cfg(procs);
            assert_eq!(assert_halves_match(&advisor, artifact.program(), &cfg), 0);
            assert_eq!(counts(&advisor, &cfg), want, "{name} P={procs}");
        }
    }
}

/// The program's own directives fail the ONTO check, yet the front half
/// must not: the singly distributed candidates are valid.
#[test]
fn invalid_own_directives_leave_valid_candidates() {
    let program = parse_program(TWO_TEMPLATES).unwrap();
    let err = analyze(&program, &BTreeMap::new()).unwrap_err();
    assert!(
        err.message
            .contains("distributed dimensions (1) do not match PROCESSORS rank (2)"),
        "{err}"
    );
    let advisor = Advisor::for_source("two", TWO_TEMPLATES).unwrap();
    let cfg = cfg(4);
    assert_eq!(assert_halves_match(&advisor, &program, &cfg), 75);
    assert_eq!(counts(&advisor, &cfg), (85, 8, 2, 75));
    let table = render_table(&advisor.search(&cfg).unwrap());
    assert!(
        table.contains("   1  (CYCLIC,*) onto (4)                         0.002833"),
        "{table}"
    );
}

/// A body that fails whatever the directives makes every candidate
/// invalid, with an empty ranking rather than an error.
#[test]
fn failing_body_invalidates_every_candidate() {
    let program = parse_program(BODY_FAILS).unwrap();
    let advisor = Advisor::for_source("bad", BODY_FAILS).unwrap();
    let cfg = cfg(4);
    assert!(advisor.front(cfg.n).is_err());
    assert_eq!(assert_halves_match(&advisor, &program, &cfg), 85);
    assert_eq!(counts(&advisor, &cfg), (85, 0, 0, 85));
}

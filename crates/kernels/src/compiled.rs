//! # Compile-once kernel artifacts
//!
//! The paper's interpretation loop (§5) re-evaluates the *same* kernel at
//! many `(N, P)` points. Lexing and parsing the generated source again for
//! every point is pure waste: the program text only differs in the `N =
//! <value>` PARAMETER and the `PROCESSORS P(<shape>)` directive, and both
//! are re-bindable *after* parsing — `N` through the semantic analyzer's
//! critical-variable overrides, `P` through
//! [`CompileOptions::grid_extents`](hpf_compiler::CompileOptions).
//!
//! [`CompiledKernel`] captures that: it parses one canonical instance of a
//! kernel and then [`bind`](CompiledKernel::bind)s it to any sweep point,
//! producing the analyzed program (for profiling) and the SPMD program
//! (for prediction and simulation) without touching the lexer or parser.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpf_compiler::{compile, CompileError, CompileOptions, SpmdProgram};
use hpf_lang::{analyze, parse_program, AnalyzedProgram, LangError};

use crate::suite::Kernel;

/// Why a [`CompiledKernel::bind`] (or [`CompiledKernel::new`]) failed.
#[derive(Debug)]
pub enum KernelBindError {
    /// Parsing or semantic analysis rejected the program.
    Lang(LangError),
    /// The compiler back half (partition/lower) rejected the program.
    Compile(CompileError),
}

impl std::fmt::Display for KernelBindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelBindError::Lang(e) => write!(f, "language error: {e}"),
            KernelBindError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for KernelBindError {}

impl From<LangError> for KernelBindError {
    fn from(e: LangError) -> Self {
        KernelBindError::Lang(e)
    }
}

impl From<CompileError> for KernelBindError {
    fn from(e: CompileError) -> Self {
        KernelBindError::Compile(e)
    }
}

/// A kernel parsed once, re-bindable to any `(n, procs)` sweep point.
///
/// The held AST is the *canonical* instance — generated at the kernel's
/// minimum problem size on one processor — but the baked-in literals are
/// never trusted at bind time: `N` is overridden through semantic
/// analysis and the processor grid through
/// [`CompileOptions::grid_extents`], so a bound artifact is semantically
/// identical to compiling freshly generated source for the same point.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    kernel: Kernel,
    source: Arc<str>,
    program: Arc<hpf_lang::ast::Program>,
}

impl CompiledKernel {
    /// Parse the canonical instance of `kernel`. One lexer/parser pass,
    /// ever, per session.
    pub fn new(kernel: &Kernel) -> Result<Self, KernelBindError> {
        let source = kernel.source(kernel.size_range.0, 1);
        let program = Arc::new(parse_program(&source)?);
        Ok(CompiledKernel {
            kernel: kernel.clone(),
            source: Arc::from(source),
            program,
        })
    }

    /// The kernel this artifact was built from.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The canonical source text the held AST was parsed from — a stable
    /// identity for the artifact (two kernels with the same canonical
    /// source parse to the same program, so anything derived purely from
    /// the AST plus a critical-variable binding can be shared by key).
    pub fn canonical_source(&self) -> &str {
        &self.source
    }

    /// [`canonical_source`](Self::canonical_source), shared rather than
    /// copied: the directive advisor keys its profile lookup by it.
    pub fn shared_source(&self) -> &Arc<str> {
        &self.source
    }

    /// The canonical instance's AST, shared rather than copied: the
    /// directive advisor searches over this one parse.
    pub fn program(&self) -> &Arc<hpf_lang::ast::Program> {
        &self.program
    }

    /// Re-bind the artifact to a sweep point: override the critical
    /// variable `N`, pin the processor grid, and run the back half of the
    /// compiler. Extra [`CompileOptions`] knobs (hints, loop reorder) pass
    /// through from `opts`; its `nodes` is replaced. When the caller left
    /// `grid_extents` unset, the grid defaults to the exact shape the
    /// source generator would emit for `procs`; a caller-supplied shape is
    /// honored verbatim (validated downstream by `partition_onto`), which
    /// is the hook directive-space enumeration uses to sweep every
    /// factorization of the node budget.
    pub fn bind(
        &self,
        n: i64,
        procs: usize,
        opts: &CompileOptions,
    ) -> Result<(AnalyzedProgram, SpmdProgram), KernelBindError> {
        let mut overrides = BTreeMap::new();
        overrides.insert("N".to_string(), n);
        let analyzed = analyze(&self.program, &overrides)?;
        let mut opts = opts.clone();
        opts.nodes = procs;
        if opts.grid_extents.is_none() {
            opts.grid_extents = Some(self.kernel.grid_extents(procs));
        }
        let spmd = compile(&analyzed, &opts)?;
        Ok((analyzed, spmd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::all_kernels;

    /// Debug-format with `Span { .. }` payloads blanked: the canonical and
    /// fresh sources have different literal widths, so byte offsets shift,
    /// but spans carry no timing semantics.
    fn spanless_debug<T: std::fmt::Debug>(v: &T) -> String {
        let s = format!("{v:?}");
        let mut out = String::with_capacity(s.len());
        let mut rest = s.as_str();
        while let Some(i) = rest.find("Span {") {
            out.push_str(&rest[..i]);
            out.push_str("Span { .. }");
            let tail = &rest[i..];
            let close = tail.find('}').expect("unterminated Span debug");
            rest = &tail[close + 1..];
        }
        out.push_str(rest);
        out
    }

    /// A bound artifact must be indistinguishable (at the SPMD level) from
    /// compiling freshly generated source for the same `(n, procs)`.
    #[test]
    fn bound_artifact_matches_fresh_compile() {
        for k in all_kernels() {
            let artifact = CompiledKernel::new(&k).unwrap();
            let n = k.size_range.1.min(256).max(k.size_range.0);
            for &procs in &[1usize, 4, 8] {
                let (_, bound) = artifact
                    .bind(n as i64, procs, &CompileOptions::default())
                    .unwrap();

                let src = k.source(n, procs);
                let fresh_prog = parse_program(&src).unwrap();
                let fresh_analyzed = analyze(&fresh_prog, &BTreeMap::new()).unwrap();
                let fresh = compile(
                    &fresh_analyzed,
                    &CompileOptions {
                        nodes: procs,
                        ..Default::default()
                    },
                )
                .unwrap();

                assert_eq!(
                    bound.grid.extents, fresh.grid.extents,
                    "{} n={n} p={procs}: grid shape drifted",
                    k.name
                );
                assert_eq!(
                    bound.nodes, fresh.nodes,
                    "{} n={n} p={procs}: node count drifted",
                    k.name
                );
                let mut bound_flat = Vec::new();
                let mut fresh_flat = Vec::new();
                hpf_compiler::flatten_phases(&bound.body, &mut bound_flat);
                hpf_compiler::flatten_phases(&fresh.body, &mut fresh_flat);
                assert_eq!(
                    spanless_debug(&bound_flat),
                    spanless_debug(&fresh_flat),
                    "{} n={n} p={procs}: SPMD phases drifted",
                    k.name
                );
            }
        }
    }

    /// Binding twice at the same point yields the same SPMD program —
    /// the artifact is immutable and bind is a pure function of (n, p).
    #[test]
    fn bind_is_deterministic() {
        let k = all_kernels().into_iter().find(|k| k.name == "PI").unwrap();
        let artifact = CompiledKernel::new(&k).unwrap();
        let (_, a) = artifact.bind(512, 4, &CompileOptions::default()).unwrap();
        let (_, b) = artifact.bind(512, 4, &CompileOptions::default()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

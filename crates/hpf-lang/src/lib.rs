//! # hpf-lang — HPF/Fortran 90D front end
//!
//! Lexer, parser, AST, semantic analysis and pretty-printer for the formally
//! defined HPF/Fortran 90D subset handled by the SC'94 performance-prediction
//! framework: `forall` (statement & construct), array assignment, `where`,
//! `do`/`if` control flow, the HPF mapping directives (`PROCESSORS`,
//! `TEMPLATE`, `ALIGN`, `DISTRIBUTE` with `BLOCK`/`CYCLIC`/`*`), and the
//! Fortran 90 parallel intrinsics the paper benchmarks (`CSHIFT`, `TSHIFT`,
//! `SUM`, `PRODUCT`, `MAXLOC`, …).

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod token;
pub mod value;
pub mod value_ops;

pub use ast::{
    AlignSub, BinOp, DataRef, Decl, DimBound, Directive, DistFormat, EntityDecl, Expr,
    ForallHeader, ForallTriplet, Intrinsic, Program, Stmt, Subscript, TypeSpec, UnOp,
};
pub use error::{LangError, LangResult, Phase};
pub use lexer::lex;
pub use parser::parse_program;
pub use pretty::{pretty_expr, pretty_program, pretty_ref};
pub use sema::{
    analyze, analyze_front, check_directives, AnalyzedProgram, Symbol, SymbolKind, SymbolTable,
};
pub use span::Span;
pub use value::Value;

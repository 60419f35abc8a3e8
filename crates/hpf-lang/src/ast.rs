//! Abstract syntax tree for the HPF/Fortran 90D subset.
//!
//! The subset covers what the paper's framework handles (§2, §4.3): the
//! `forall` statement and construct, array assignment, `where`, `do` loops,
//! `if` constructs, scalar assignment, intrinsic calls, and the four HPF
//! mapping directives (`PROCESSORS`, `TEMPLATE`, `ALIGN`, `DISTRIBUTE`).

use crate::span::Span;

/// A complete HPF/Fortran 90D main program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name from `PROGRAM <name>`.
    pub name: String,
    /// Type declarations, in source order.
    pub decls: Vec<Decl>,
    /// HPF mapping directives, in source order.
    pub directives: Vec<Directive>,
    /// Executable statements, in source order.
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// Fortran base types in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeSpec {
    Integer,
    Real,
    DoublePrecision,
    Logical,
}

impl TypeSpec {
    /// Size in bytes of one element on the target (i860: 4-byte words,
    /// 8-byte doubles).
    pub fn byte_size(self) -> u64 {
        match self {
            TypeSpec::Integer | TypeSpec::Real | TypeSpec::Logical => 4,
            TypeSpec::DoublePrecision => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TypeSpec::Integer => "INTEGER",
            TypeSpec::Real => "REAL",
            TypeSpec::DoublePrecision => "DOUBLE PRECISION",
            TypeSpec::Logical => "LOGICAL",
        }
    }
}

/// One type-declaration statement, possibly declaring several entities.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub type_spec: TypeSpec,
    /// `PARAMETER` attribute: entities are compile-time constants.
    pub parameter: bool,
    /// `DIMENSION(...)` attribute shared by all entities (entity-specific
    /// dimensions override it).
    pub dimension: Option<Vec<DimBound>>,
    pub entities: Vec<EntityDecl>,
    pub span: Span,
}

/// One declared entity.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityDecl {
    pub name: String,
    /// Per-entity dimensions, e.g. `A(N, N)`.
    pub dims: Option<Vec<DimBound>>,
    /// Initializer (required for PARAMETER entities).
    pub init: Option<Expr>,
    pub span: Span,
}

/// One array dimension: `extent` is `ub` with implicit lower bound 1, or an
/// explicit `lb:ub` range.
#[derive(Debug, Clone, PartialEq)]
pub struct DimBound {
    pub lower: Option<Expr>,
    pub upper: Expr,
}

/// HPF mapping directives.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `!HPF$ PROCESSORS P(4)` or `!HPF$ PROCESSORS P(2,2)`.
    Processors {
        name: String,
        shape: Vec<Expr>,
        span: Span,
    },
    /// `!HPF$ TEMPLATE T(N, N)`.
    Template {
        name: String,
        shape: Vec<DimBound>,
        span: Span,
    },
    /// `!HPF$ ALIGN A(I, J) WITH T(I, J)` (identity or offset/transposed
    /// alignments through dummy-index expressions).
    Align {
        alignee: String,
        dummies: Vec<String>,
        target: String,
        target_subs: Vec<AlignSub>,
        span: Span,
    },
    /// `!HPF$ DISTRIBUTE T(BLOCK, *) ONTO P`.
    Distribute {
        target: String,
        formats: Vec<DistFormat>,
        onto: Option<String>,
        span: Span,
    },
    /// `!HPF$ INDEPENDENT` — asserts the following loop's iterations are
    /// independent (recorded; the subset's `forall` lowering already assumes
    /// owner-computes independence).
    Independent { span: Span },
}

impl Directive {
    pub fn span(&self) -> Span {
        match self {
            Directive::Processors { span, .. }
            | Directive::Template { span, .. }
            | Directive::Align { span, .. }
            | Directive::Distribute { span, .. }
            | Directive::Independent { span } => *span,
        }
    }
}

/// One subscript of the align target: a dummy index (possibly with an affine
/// offset, `I + 1`), or `*` (replication along that template axis).
#[derive(Debug, Clone, PartialEq)]
pub enum AlignSub {
    /// `dummy * stride + offset` — stride is ±1 in the subset.
    Affine {
        dummy: String,
        stride: i64,
        offset: i64,
    },
    /// `*`: the alignee is replicated along this template dimension.
    Replicated,
}

/// Distribution format per template dimension.
#[derive(Debug, Clone, PartialEq, Eq, Copy)]
pub enum DistFormat {
    /// Contiguous blocks of ⌈N/P⌉ elements.
    Block,
    /// Round-robin single elements.
    Cyclic,
    /// Block-cyclic: round-robin blocks of `k` elements (`CYCLIC(k)`).
    CyclicK(i64),
    /// `*`: dimension is not distributed (collapsed onto every processor).
    Degenerate,
}

impl DistFormat {
    pub fn name(self) -> &'static str {
        match self {
            DistFormat::Block => "BLOCK",
            DistFormat::Cyclic => "CYCLIC",
            DistFormat::CyclicK(_) => "CYCLIC(k)",
            DistFormat::Degenerate => "*",
        }
    }
}

/// The format as a DISTRIBUTE directive spells it, block factor included.
impl std::fmt::Display for DistFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistFormat::CyclicK(k) => write!(f, "CYCLIC({k})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Executable statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar or array(-section) assignment `lhs = rhs`.
    Assign { lhs: DataRef, rhs: Expr, span: Span },
    /// `FORALL (triplets [, mask]) body`.
    Forall {
        header: ForallHeader,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `WHERE (mask) body [ELSEWHERE other]`.
    Where {
        mask: Expr,
        body: Vec<Stmt>,
        elsewhere: Vec<Stmt>,
        span: Span,
    },
    /// `DO var = lo, hi [, step] … END DO`.
    Do {
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `DO WHILE (cond) … END DO`.
    DoWhile {
        cond: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `IF (cond) THEN … [ELSE IF …]* [ELSE …] END IF`, or logical IF.
    If {
        arms: Vec<(Expr, Vec<Stmt>)>,
        else_body: Vec<Stmt>,
        span: Span,
    },
    /// `CALL name(args)`.
    Call {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// `PRINT *, items`.
    Print { items: Vec<Expr>, span: Span },
    /// `STOP`.
    Stop { span: Span },
    /// Parallel I/O statement: `READ(arrays)`, `WRITE(arrays)`, or
    /// `CHECKPOINT[(arrays)]` (a bare `CHECKPOINT` snapshots every
    /// distributed array). Arrays are whole-variable references; the striped
    /// transfer itself is priced by the performance pipeline, not evaluated.
    Io {
        kind: IoStmtKind,
        arrays: Vec<String>,
        span: Span,
    },
}

/// Which parallel I/O operation an [`Stmt::Io`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoStmtKind {
    Read,
    Write,
    Checkpoint,
}

impl IoStmtKind {
    pub fn keyword(self) -> &'static str {
        match self {
            IoStmtKind::Read => "READ",
            IoStmtKind::Write => "WRITE",
            IoStmtKind::Checkpoint => "CHECKPOINT",
        }
    }
}

impl Stmt {
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::Forall { span, .. }
            | Stmt::Where { span, .. }
            | Stmt::Do { span, .. }
            | Stmt::DoWhile { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::Print { span, .. }
            | Stmt::Io { span, .. }
            | Stmt::Stop { span } => *span,
        }
    }
}

/// The parenthesized part of a `forall`: index triplets plus optional mask.
#[derive(Debug, Clone, PartialEq)]
pub struct ForallHeader {
    pub triplets: Vec<ForallTriplet>,
    pub mask: Option<Expr>,
}

/// `I = lo : hi [: stride]` inside a forall header.
#[derive(Debug, Clone, PartialEq)]
pub struct ForallTriplet {
    pub var: String,
    pub lo: Expr,
    pub hi: Expr,
    pub stride: Option<Expr>,
}

/// A (possibly subscripted) variable reference usable as an lvalue.
#[derive(Debug, Clone, PartialEq)]
pub struct DataRef {
    pub name: String,
    /// Empty for whole-variable references (`X` — scalar or whole array).
    pub subs: Vec<Subscript>,
    pub span: Span,
}

/// One subscript position.
#[derive(Debug, Clone, PartialEq)]
pub enum Subscript {
    /// A single element index.
    Index(Expr),
    /// A section `lo : hi [: stride]`; any part may be elided.
    Triplet {
        lo: Option<Expr>,
        hi: Option<Expr>,
        stride: Option<Expr>,
    },
}

impl Subscript {
    /// Whether this subscript selects a rank-reducing single element.
    pub fn is_index(&self) -> bool {
        matches!(self, Subscript::Index(_))
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64, Span),
    RealLit(f64, Span),
    LogicalLit(bool, Span),
    StrLit(String, Span),
    /// Variable / array-element / array-section / function reference.
    /// Function calls are indistinguishable from array references until
    /// semantic analysis; `sema` rewrites intrinsic references into
    /// [`Expr::Intrinsic`].
    Ref(DataRef),
    /// Resolved intrinsic function call.
    Intrinsic {
        name: Intrinsic,
        args: Vec<Expr>,
        span: Span,
    },
    Unary {
        op: UnOp,
        operand: Box<Expr>,
        span: Span,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
}

impl Expr {
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::RealLit(_, s)
            | Expr::LogicalLit(_, s)
            | Expr::StrLit(_, s) => *s,
            Expr::Ref(r) => r.span,
            Expr::Intrinsic { span, .. } => *span,
            Expr::Unary { span, .. } => *span,
            Expr::Binary { span, .. } => *span,
        }
    }

    /// Integer-literal constructor with a synthetic span (used heavily by
    /// compiler rewrites).
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v, Span::SYNTHETIC)
    }

    /// Plain variable reference with a synthetic span.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Ref(DataRef {
            name: name.into(),
            subs: Vec::new(),
            span: Span::SYNTHETIC,
        })
    }

    /// Synthetic binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span: Span::SYNTHETIC,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Plus,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Eqv,
    Neqv,
}

impl BinOp {
    /// Whether the operator yields LOGICAL.
    pub fn is_relational_or_logical(self) -> bool {
        !matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow
        )
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "**",
            BinOp::Eq => "==",
            BinOp::Ne => "/=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => ".AND.",
            BinOp::Or => ".OR.",
            BinOp::Eqv => ".EQV.",
            BinOp::Neqv => ".NEQV.",
        }
    }
}

/// HPF/Fortran 90 intrinsics understood by the framework.
///
/// The parallel intrinsics (`CSHIFT`, `SUM`, …) are exactly those the paper
/// says were parameterized by benchmarking runs on the iPSC/860 (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    // --- parallel / transformational ---
    CShift,
    TShift, // "shift to temporary" (EOSHIFT-like, Fortran 90D library)
    EoShift,
    Sum,
    Product,
    MaxVal,
    MinVal,
    MaxLoc,
    MinLoc,
    DotProduct,
    MatMul,
    Transpose,
    Spread,
    Size,
    // --- elemental numeric ---
    Abs,
    Sqrt,
    Exp,
    Log,
    Log10,
    Sin,
    Cos,
    Tan,
    Atan,
    Min,
    Max,
    Mod,
    Sign,
    Int,
    Nint,
    Real,
    Dble,
    Float,
}

impl Intrinsic {
    /// Look up by (uppercased) Fortran name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        use Intrinsic::*;
        Some(match name {
            "CSHIFT" => CShift,
            "TSHIFT" => TShift,
            "EOSHIFT" => EoShift,
            "SUM" => Sum,
            "PRODUCT" => Product,
            "MAXVAL" => MaxVal,
            "MINVAL" => MinVal,
            "MAXLOC" => MaxLoc,
            "MINLOC" => MinLoc,
            "DOT_PRODUCT" | "DOTPRODUCT" => DotProduct,
            "MATMUL" => MatMul,
            "TRANSPOSE" => Transpose,
            "SPREAD" => Spread,
            "SIZE" => Size,
            "ABS" => Abs,
            "SQRT" => Sqrt,
            "EXP" => Exp,
            "LOG" | "ALOG" => Log,
            "LOG10" | "ALOG10" => Log10,
            "SIN" => Sin,
            "COS" => Cos,
            "TAN" => Tan,
            "ATAN" => Atan,
            "MIN" | "AMIN1" | "MIN0" => Min,
            "MAX" | "AMAX1" | "MAX0" => Max,
            "MOD" | "AMOD" => Mod,
            "SIGN" => Sign,
            "INT" | "IFIX" => Int,
            "NINT" => Nint,
            "REAL" => Real,
            "DBLE" => Dble,
            "FLOAT" => Float,
            _ => return None,
        })
    }

    /// The canonical Fortran spelling.
    pub fn name(self) -> &'static str {
        use Intrinsic::*;
        match self {
            CShift => "CSHIFT",
            TShift => "TSHIFT",
            EoShift => "EOSHIFT",
            Sum => "SUM",
            Product => "PRODUCT",
            MaxVal => "MAXVAL",
            MinVal => "MINVAL",
            MaxLoc => "MAXLOC",
            MinLoc => "MINLOC",
            DotProduct => "DOT_PRODUCT",
            MatMul => "MATMUL",
            Transpose => "TRANSPOSE",
            Spread => "SPREAD",
            Size => "SIZE",
            Abs => "ABS",
            Sqrt => "SQRT",
            Exp => "EXP",
            Log => "LOG",
            Log10 => "LOG10",
            Sin => "SIN",
            Cos => "COS",
            Tan => "TAN",
            Atan => "ATAN",
            Min => "MIN",
            Max => "MAX",
            Mod => "MOD",
            Sign => "SIGN",
            Int => "INT",
            Nint => "NINT",
            Real => "REAL",
            Dble => "DBLE",
            Float => "FLOAT",
        }
    }

    /// Whether this intrinsic is *transformational* over distributed arrays,
    /// i.e. implemented by the parallel intrinsic library and potentially
    /// communicating (as opposed to elemental math functions).
    pub fn is_transformational(self) -> bool {
        use Intrinsic::*;
        matches!(
            self,
            CShift
                | TShift
                | EoShift
                | Sum
                | Product
                | MaxVal
                | MinVal
                | MaxLoc
                | MinLoc
                | DotProduct
                | MatMul
                | Transpose
                | Spread
        )
    }

    /// Whether the scalar evaluation of this intrinsic maps to a hardware
    /// "hard" operation (divide/sqrt/transcendental) on the i860.
    pub fn is_transcendental(self) -> bool {
        use Intrinsic::*;
        matches!(self, Sqrt | Exp | Log | Log10 | Sin | Cos | Tan | Atan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_roundtrip() {
        for name in ["CSHIFT", "SUM", "MAXLOC", "SQRT", "DOT_PRODUCT"] {
            let i = Intrinsic::from_name(name).unwrap();
            assert_eq!(i.name(), name);
        }
        assert!(Intrinsic::from_name("NOSUCH").is_none());
    }

    #[test]
    fn type_sizes() {
        assert_eq!(TypeSpec::Real.byte_size(), 4);
        assert_eq!(TypeSpec::DoublePrecision.byte_size(), 8);
    }

    #[test]
    fn transformational_classification() {
        assert!(Intrinsic::CShift.is_transformational());
        assert!(Intrinsic::Sum.is_transformational());
        assert!(!Intrinsic::Sqrt.is_transformational());
        assert!(Intrinsic::Sqrt.is_transcendental());
        assert!(!Intrinsic::Abs.is_transcendental());
    }
}

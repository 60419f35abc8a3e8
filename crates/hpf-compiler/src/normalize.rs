//! Normalization: array assignment statements and `where` statements are
//! transformed into equivalent `forall` statements "with no loss of
//! information" (§4.1 step 1, §4.3). Transformational shift intrinsics in
//! the right-hand side are rewritten into shifted element references so the
//! communication-detection step sees a uniform index-offset form.

use hpf_lang::ast::*;
use hpf_lang::sema::{AnalyzedProgram, SymbolKind};
use hpf_lang::Span;

/// Error raised when a construct cannot be normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizeError {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "normalization error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for NormalizeError {}

type NResult<T> = Result<T, NormalizeError>;

/// Normalize the executable part of a program. It reads no directive, so
/// one normalized body serves every directive list of the program.
pub fn normalize(analyzed: &AnalyzedProgram) -> NResult<Vec<Stmt>> {
    let _span = hpf_trace::span("normalize");
    let n = Normalizer {
        analyzed,
        fresh: std::cell::Cell::new(0),
    };
    let mut out = Vec::new();
    for st in &analyzed.program.body {
        out.push(n.stmt(st)?);
    }
    Ok(out)
}

struct Normalizer<'a> {
    analyzed: &'a AnalyzedProgram,
    fresh: std::cell::Cell<u32>,
}

impl<'a> Normalizer<'a> {
    fn fresh_dummy(&self) -> String {
        let k = self.fresh.get();
        self.fresh.set(k + 1);
        format!("I${k}")
    }

    fn array_shape(&self, name: &str) -> Option<&[(i64, i64)]> {
        self.analyzed.symbols.get(name).and_then(|s| s.shape())
    }

    fn is_array(&self, name: &str) -> bool {
        matches!(
            self.analyzed.symbols.get(name).map(|s| &s.kind),
            Some(SymbolKind::Array { .. })
        )
    }

    fn stmt(&self, st: &Stmt) -> NResult<Stmt> {
        Ok(match st {
            Stmt::Assign { lhs, rhs, span } => {
                if self.is_array(&lhs.name) && !lhs.subs.iter().all(|s| s.is_index()) {
                    // Section or whole-array assignment → forall.
                    self.arrayize(lhs, rhs, *span)?
                } else if self.is_array(&lhs.name) && lhs.subs.is_empty() {
                    self.arrayize(lhs, rhs, *span)?
                } else {
                    st.clone()
                }
            }
            Stmt::Where {
                mask,
                body,
                elsewhere,
                span,
            } => {
                // WHERE → one forall per assignment, masked; ELSEWHERE gets
                // the negated mask.
                let mut stmts = Vec::new();
                for (arm, negate) in [(body, false), (elsewhere, true)] {
                    for s in arm.iter() {
                        match s {
                            Stmt::Assign {
                                lhs,
                                rhs,
                                span: aspan,
                            } => {
                                let mut f = self.arrayize(lhs, rhs, *aspan)?;
                                if let Stmt::Forall { header, .. } = &mut f {
                                    let m = self.rewrite_elemental(
                                        mask,
                                        &header.triplets.clone(),
                                        lhs,
                                    )?;
                                    header.mask = Some(if negate {
                                        Expr::Unary {
                                            op: UnOp::Not,
                                            operand: Box::new(m),
                                            span: mask.span(),
                                        }
                                    } else {
                                        m
                                    });
                                }
                                stmts.push(f);
                            }
                            other => {
                                return Err(NormalizeError {
                                    message: "WHERE body must contain only array assignments"
                                        .into(),
                                    span: other.span(),
                                })
                            }
                        }
                    }
                }
                if stmts.len() == 1 {
                    stmts.pop().expect("one")
                } else {
                    // Wrap multiple foralls in a 1-trip loop to keep the
                    // single-statement return shape.
                    Stmt::Do {
                        var: "I$W".into(),
                        lo: Expr::int(1),
                        hi: Expr::int(1),
                        step: None,
                        body: stmts,
                        span: *span,
                    }
                }
            }
            Stmt::Forall { header, body, span } => {
                // Bodies are already element-wise; only rewrite shift
                // intrinsics that may appear in RHS.
                let body = body
                    .iter()
                    .map(|s| match s {
                        Stmt::Assign { lhs, rhs, span } => Ok(Stmt::Assign {
                            lhs: lhs.clone(),
                            rhs: self.strip_shifts_elementwise(rhs)?,
                            span: *span,
                        }),
                        other => self.stmt(other),
                    })
                    .collect::<NResult<Vec<_>>>()?;
                Stmt::Forall {
                    header: header.clone(),
                    body,
                    span: *span,
                }
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                span,
            } => Stmt::Do {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                step: step.clone(),
                body: body
                    .iter()
                    .map(|s| self.stmt(s))
                    .collect::<NResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::DoWhile { cond, body, span } => Stmt::DoWhile {
                cond: cond.clone(),
                body: body
                    .iter()
                    .map(|s| self.stmt(s))
                    .collect::<NResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::If {
                arms,
                else_body,
                span,
            } => Stmt::If {
                arms: arms
                    .iter()
                    .map(|(c, b)| {
                        Ok((
                            c.clone(),
                            b.iter()
                                .map(|s| self.stmt(s))
                                .collect::<NResult<Vec<_>>>()?,
                        ))
                    })
                    .collect::<NResult<Vec<_>>>()?,
                else_body: else_body
                    .iter()
                    .map(|s| self.stmt(s))
                    .collect::<NResult<Vec<_>>>()?,
                span: *span,
            },
            other => other.clone(),
        })
    }

    /// Turn `lhs = rhs` (array/section assignment) into an equivalent forall.
    fn arrayize(&self, lhs: &DataRef, rhs: &Expr, span: Span) -> NResult<Stmt> {
        let shape = self.array_shape(&lhs.name).ok_or_else(|| NormalizeError {
            message: format!("`{}` has no resolved shape", lhs.name),
            span,
        })?;

        // Build a triplet per sectioned dimension of the LHS.
        let mut triplets: Vec<ForallTriplet> = Vec::new();
        let mut new_subs: Vec<Subscript> = Vec::new();
        // For RHS mapping: per LHS *section* dimension (in order), the
        // (dummy, lhs_lo, lhs_stride).
        let mut loop_dims: Vec<(String, Expr, Expr)> = Vec::new();

        if lhs.subs.is_empty() {
            for (lb, ub) in shape.iter() {
                let d = self.fresh_dummy();
                triplets.push(ForallTriplet {
                    var: d.clone(),
                    lo: Expr::int(*lb),
                    hi: Expr::int(*ub),
                    stride: None,
                });
                loop_dims.push((d.clone(), Expr::int(*lb), Expr::int(1)));
                new_subs.push(Subscript::Index(Expr::var(d)));
            }
        } else {
            for (dnum, s) in lhs.subs.iter().enumerate() {
                match s {
                    Subscript::Index(e) => new_subs.push(Subscript::Index(e.clone())),
                    Subscript::Triplet { lo, hi, stride } => {
                        let (lb, ub) = shape[dnum];
                        let d = self.fresh_dummy();
                        let lo = lo.clone().unwrap_or(Expr::int(lb));
                        let hi = hi.clone().unwrap_or(Expr::int(ub));
                        let st = stride.clone().unwrap_or(Expr::int(1));
                        triplets.push(ForallTriplet {
                            var: d.clone(),
                            lo: lo.clone(),
                            hi,
                            stride: if matches!(st, Expr::IntLit(1, _)) {
                                None
                            } else {
                                Some(st.clone())
                            },
                        });
                        loop_dims.push((d.clone(), lo, st));
                        new_subs.push(Subscript::Index(Expr::var(d)));
                    }
                }
            }
        }

        let body_rhs = self.rewrite_elemental(rhs, &triplets, lhs)?;
        let new_lhs = DataRef {
            name: lhs.name.clone(),
            subs: new_subs,
            span: lhs.span,
        };
        Ok(Stmt::Forall {
            header: ForallHeader {
                triplets,
                mask: None,
            },
            body: vec![Stmt::Assign {
                lhs: new_lhs,
                rhs: body_rhs,
                span,
            }],
            span,
        })
    }

    /// Rewrite an array-valued RHS into an element-wise expression over the
    /// forall dummies of the LHS section.
    fn rewrite_elemental(
        &self,
        e: &Expr,
        triplets: &[ForallTriplet],
        lhs: &DataRef,
    ) -> NResult<Expr> {
        Ok(match e {
            Expr::IntLit(..) | Expr::RealLit(..) | Expr::LogicalLit(..) | Expr::StrLit(..) => {
                e.clone()
            }
            Expr::Ref(r) => {
                if !self.is_array(&r.name) {
                    return Ok(e.clone());
                }
                Expr::Ref(self.elementize_ref(r, triplets, lhs)?)
            }
            Expr::Intrinsic { name, args, span } => {
                use Intrinsic::*;
                match name {
                    CShift | TShift | EoShift => {
                        // CSHIFT(B, s [, dim]) → B(dummy_dim + s) — the value
                        // semantics live in hpf-eval; here only the access
                        // pattern matters, and a circular shift is exactly a
                        // neighbor exchange.
                        let base = match args.first() {
                            Some(Expr::Ref(r)) => r,
                            _ => {
                                return Err(NormalizeError {
                                    message: "shift of a non-reference is outside the subset"
                                        .into(),
                                    span: *span,
                                })
                            }
                        };
                        let shift = args.get(1).cloned().unwrap_or(Expr::int(1));
                        let dim = match args.get(2) {
                            Some(Expr::IntLit(d, _)) => *d as usize,
                            _ => 1,
                        };
                        let mut r = self.elementize_ref(base, triplets, lhs)?;
                        if dim == 0 || dim > r.subs.len() {
                            return Err(NormalizeError {
                                message: "shift dimension out of range".into(),
                                span: *span,
                            });
                        }
                        if let Subscript::Index(ix) = &r.subs[dim - 1] {
                            r.subs[dim - 1] =
                                Subscript::Index(Expr::bin(BinOp::Add, ix.clone(), shift));
                        }
                        Expr::Ref(r)
                    }
                    // Reductions inside an elemental context are outside the
                    // subset (they would need a comm phase per element).
                    Sum | Product | MaxVal | MinVal | MaxLoc | MinLoc | DotProduct | MatMul
                    | Transpose | Spread => {
                        return Err(NormalizeError {
                            message: format!(
                                "{} cannot appear in an elemental right-hand side",
                                name.name()
                            ),
                            span: *span,
                        })
                    }
                    _ => Expr::Intrinsic {
                        name: *name,
                        args: args
                            .iter()
                            .map(|a| self.rewrite_elemental(a, triplets, lhs))
                            .collect::<NResult<Vec<_>>>()?,
                        span: *span,
                    },
                }
            }
            Expr::Unary { op, operand, span } => Expr::Unary {
                op: *op,
                operand: Box::new(self.rewrite_elemental(operand, triplets, lhs)?),
                span: *span,
            },
            Expr::Binary {
                op,
                lhs: l,
                rhs: r,
                span,
            } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.rewrite_elemental(l, triplets, lhs)?),
                rhs: Box::new(self.rewrite_elemental(r, triplets, lhs)?),
                span: *span,
            },
        })
    }

    /// Map an array reference appearing in an elemental RHS onto the forall
    /// dummies: whole arrays get the dummies directly (with bound offsets);
    /// sections get `sec_lo + ((dummy - lhs_lo)/lhs_st)*sec_st`.
    fn elementize_ref(
        &self,
        r: &DataRef,
        triplets: &[ForallTriplet],
        lhs: &DataRef,
    ) -> NResult<DataRef> {
        let shape = self.array_shape(&r.name).ok_or_else(|| NormalizeError {
            message: format!("`{}` has no resolved shape", r.name),
            span: r.span,
        })?;
        // LHS loop-dim descriptors in order.
        let lhs_dims: Vec<(String, Expr, Expr)> = {
            let mut v = Vec::new();
            let mut ti = 0;
            if lhs.subs.is_empty() {
                let lshape = self.array_shape(&lhs.name).expect("lhs shape");
                for (lb, _) in lshape.iter() {
                    v.push((triplets[ti].var.clone(), Expr::int(*lb), Expr::int(1)));
                    ti += 1;
                }
            } else {
                for s in &lhs.subs {
                    if let Subscript::Triplet { lo, stride, .. } = s {
                        let t = &triplets[ti];
                        v.push((
                            t.var.clone(),
                            lo.clone().unwrap_or_else(|| t.lo.clone()),
                            stride.clone().unwrap_or(Expr::int(1)),
                        ));
                        ti += 1;
                    }
                }
            }
            v
        };

        if r.subs.is_empty() {
            // Whole-array RHS: conformance pairs loop dims with dims 1..k.
            if shape.len() != lhs_dims.len() {
                return Err(NormalizeError {
                    message: format!(
                        "`{}` (rank {}) not conformable with LHS section (rank {})",
                        r.name,
                        shape.len(),
                        lhs_dims.len()
                    ),
                    span: r.span,
                });
            }
            let mut subs = Vec::new();
            for (d, (lb, _)) in shape.iter().enumerate() {
                let (dummy, lhs_lo, lhs_st) = &lhs_dims[d];
                subs.push(Subscript::Index(section_index(
                    dummy,
                    lhs_lo,
                    lhs_st,
                    &Expr::int(*lb),
                    &Expr::int(1),
                )));
            }
            return Ok(DataRef {
                name: r.name.clone(),
                subs,
                span: r.span,
            });
        }

        // Sectioned/indexed RHS: triplet dims consume loop dims in order.
        let mut subs = Vec::new();
        let mut li = 0usize;
        for (dnum, s) in r.subs.iter().enumerate() {
            match s {
                Subscript::Index(e) => subs.push(Subscript::Index(e.clone())),
                Subscript::Triplet { lo, stride, .. } => {
                    if li >= lhs_dims.len() {
                        return Err(NormalizeError {
                            message: format!(
                                "`{}` section has more dimensions than the LHS section",
                                r.name
                            ),
                            span: r.span,
                        });
                    }
                    let (dummy, lhs_lo, lhs_st) = &lhs_dims[li];
                    li += 1;
                    let (lb, _) = shape[dnum];
                    let sec_lo = lo.clone().unwrap_or(Expr::int(lb));
                    let sec_st = stride.clone().unwrap_or(Expr::int(1));
                    subs.push(Subscript::Index(section_index(
                        dummy, lhs_lo, lhs_st, &sec_lo, &sec_st,
                    )));
                }
            }
        }
        if li != lhs_dims.len() {
            return Err(NormalizeError {
                message: format!(
                    "`{}` section rank {} does not match LHS section rank {}",
                    r.name,
                    li,
                    lhs_dims.len()
                ),
                span: r.span,
            });
        }
        Ok(DataRef {
            name: r.name.clone(),
            subs,
            span: r.span,
        })
    }

    /// Strip shift intrinsics inside an explicit forall body (they appear as
    /// elementwise shifts of already-subscripted refs only in whole-array
    /// form, which the subset forbids; elemental intrinsics pass through).
    fn strip_shifts_elementwise(&self, e: &Expr) -> NResult<Expr> {
        Ok(e.clone())
    }
}

/// Build `sec_lo + ((dummy - lhs_lo)/lhs_st) * sec_st`, simplified for the
/// common unit-stride identity cases so communication detection sees clean
/// affine forms like `I` or `I + 5`.
fn section_index(dummy: &str, lhs_lo: &Expr, lhs_st: &Expr, sec_lo: &Expr, sec_st: &Expr) -> Expr {
    let unit = |e: &Expr| matches!(e, Expr::IntLit(1, _));
    let as_int = |e: &Expr| match e {
        Expr::IntLit(v, _) => Some(*v),
        _ => None,
    };
    if unit(lhs_st) && unit(sec_st) {
        // index = dummy + (sec_lo - lhs_lo)
        if let (Some(a), Some(b)) = (as_int(sec_lo), as_int(lhs_lo)) {
            let off = a - b;
            return if off == 0 {
                Expr::var(dummy)
            } else {
                Expr::bin(BinOp::Add, Expr::var(dummy), Expr::int(off))
            };
        }
        // symbolic bounds: dummy + sec_lo - lhs_lo
        return Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Add, Expr::var(dummy), sec_lo.clone()),
            lhs_lo.clone(),
        );
    }
    // General: sec_lo + ((dummy - lhs_lo) / lhs_st) * sec_st
    Expr::bin(
        BinOp::Add,
        sec_lo.clone(),
        Expr::bin(
            BinOp::Mul,
            Expr::bin(
                BinOp::Div,
                Expr::bin(BinOp::Sub, Expr::var(dummy), lhs_lo.clone()),
                lhs_st.clone(),
            ),
            sec_st.clone(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap;

    fn norm(src: &str) -> Vec<Stmt> {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        normalize(&a).unwrap()
    }

    #[test]
    fn whole_array_assignment_becomes_forall() {
        let out = norm("PROGRAM T\nREAL A(8)\nA = 2.0\nEND\n");
        match &out[0] {
            Stmt::Forall { header, body, .. } => {
                assert_eq!(header.triplets.len(), 1);
                assert!(header.mask.is_none());
                assert_eq!(body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conformable_binary_rhs_elementized() {
        let out = norm("PROGRAM T\nREAL A(8), B(8), C(8)\nA = B + C * 2.0\nEND\n");
        if let Stmt::Forall { body, .. } = &out[0] {
            if let Stmt::Assign { rhs, .. } = &body[0] {
                // B and C must now carry element subscripts.
                let txt = hpf_lang::pretty_expr(rhs);
                assert!(txt.contains("B(I$"), "{txt}");
                assert!(txt.contains("C(I$"), "{txt}");
                return;
            }
        }
        panic!("not normalized");
    }

    #[test]
    fn section_offsets_computed() {
        let out = norm("PROGRAM T\nREAL A(10), B(10)\nA(1:5) = B(6:10)\nEND\n");
        if let Stmt::Forall { header, body, .. } = &out[0] {
            assert_eq!(header.triplets.len(), 1);
            if let Stmt::Assign { rhs, .. } = &body[0] {
                let txt = hpf_lang::pretty_expr(rhs);
                assert!(txt.contains("+ 5"), "expected offset 5, got {txt}");
                return;
            }
        }
        panic!("not normalized");
    }

    #[test]
    fn two_dim_whole_assignment() {
        let out = norm("PROGRAM T\nREAL A(4,6), B(4,6)\nA = B\nEND\n");
        if let Stmt::Forall { header, .. } = &out[0] {
            assert_eq!(header.triplets.len(), 2);
        } else {
            panic!()
        }
    }

    #[test]
    fn where_becomes_masked_forall() {
        let out = norm("PROGRAM T\nREAL A(8)\nWHERE (A > 0.0) A = 1.0 / A\nEND\n");
        if let Stmt::Forall { header, .. } = &out[0] {
            let m = header.mask.as_ref().expect("mask");
            let txt = hpf_lang::pretty_expr(m);
            assert!(txt.contains("A(I$"), "{txt}");
        } else {
            panic!()
        }
    }

    #[test]
    fn elsewhere_negates_mask() {
        let out = norm(
            "PROGRAM T\nREAL A(8)\nWHERE (A > 0.0)\nA = 1.0\nELSEWHERE\nA = -1.0\nEND WHERE\nEND\n",
        );
        // wrapped in a 1-trip DO holding two foralls
        if let Stmt::Do { body, .. } = &out[0] {
            assert_eq!(body.len(), 2);
            if let Stmt::Forall { header, .. } = &body[1] {
                let txt = hpf_lang::pretty_expr(header.mask.as_ref().unwrap());
                assert!(txt.contains(".NOT."), "{txt}");
                return;
            }
        }
        panic!("bad WHERE normalization: {out:?}");
    }

    #[test]
    fn cshift_becomes_offset_ref() {
        let out = norm("PROGRAM T\nREAL A(8), B(8)\nA = CSHIFT(B, 1)\nEND\n");
        if let Stmt::Forall { body, .. } = &out[0] {
            if let Stmt::Assign { rhs, .. } = &body[0] {
                let txt = hpf_lang::pretty_expr(rhs);
                assert!(txt.contains("+ 1"), "{txt}");
                return;
            }
        }
        panic!()
    }

    #[test]
    fn scalar_assignments_untouched() {
        let out = norm("PROGRAM T\nREAL S, A(4)\nA = 1.0\nS = SUM(A)\nEND\n");
        assert!(matches!(out[1], Stmt::Assign { .. }));
    }

    #[test]
    fn reduction_in_elemental_context_rejected() {
        let p = parse_program("PROGRAM T\nREAL A(8), B(8)\nA = B + SUM(B)\nEND\n").unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(normalize(&a).is_err());
    }

    #[test]
    fn nonconformable_rejected() {
        let p = parse_program("PROGRAM T\nREAL A(8), B(9)\nREAL C(8,8)\nA = C\nEND\n").unwrap();
        let a = analyze(&p, &BTreeMap::new()).unwrap();
        assert!(normalize(&a).is_err());
    }

    #[test]
    fn explicit_forall_passes_through() {
        let out = norm("PROGRAM T\nREAL A(8), B(8)\nFORALL (I = 2:7) A(I) = B(I-1)\nEND\n");
        assert!(matches!(&out[0], Stmt::Forall { .. }));
    }
}

//! Enumeration of the legal directive space for one template.
//!
//! A *candidate* is a per-dimension `DISTRIBUTE` format tuple plus a
//! processor-grid shape whose rank equals the number of distributed
//! (non-`*`) dimensions. The enumeration is exhaustive over a small,
//! fixed format alphabet — BLOCK, CYCLIC, CYCLIC(k) for a caller-chosen
//! k-set, and `*` — crossed with every ordered factorization of the node
//! budget, mirroring what a developer could legally write in the
//! directive subset the compiler accepts.

use hpf_lang::ast::{Directive, DistFormat, Expr, Program};

/// One point of the directive space: a format per template dimension and
/// the processor-grid extents the distributed dimensions map onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// `DISTRIBUTE` format for each template dimension.
    pub formats: Vec<DistFormat>,
    /// Grid extents, one per *distributed* dimension (product = budget).
    pub grid: Vec<i64>,
}

impl Candidate {
    /// Human-readable identity, e.g. `(BLOCK,CYCLIC(2)) onto (2,4)`.
    /// Also the seeded tie-break key, so it must be unique per candidate.
    /// Written into one string, sized for `CYCLIC(kkk)` formats and
    /// three-digit extents.
    pub fn label(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(12 * self.formats.len() + 4 * self.grid.len() + 9);
        out.push('(');
        for (i, f) in self.formats.iter().enumerate() {
            let _ = write!(out, "{}{f}", if i == 0 { "" } else { "," });
        }
        out.push_str(") onto (");
        for (i, e) in self.grid.iter().enumerate() {
            let _ = write!(out, "{}{e}", if i == 0 { "" } else { "," });
        }
        out.push(')');
        out
    }

    /// Number of distributed (non-`*`) dimensions.
    pub fn distributed_dims(&self) -> usize {
        self.formats
            .iter()
            .filter(|f| **f != DistFormat::Degenerate)
            .count()
    }
}

/// All ordered tuples of `dims` positive integers whose product is `p`,
/// in lexicographically ascending order (divisors enumerated ascending).
pub fn ordered_factorizations(p: usize, dims: usize) -> Vec<Vec<i64>> {
    if dims == 0 {
        return if p == 1 { vec![vec![]] } else { vec![] };
    }
    if dims == 1 {
        return vec![vec![p as i64]];
    }
    let mut out = Vec::new();
    for q in 1..=p {
        if !p.is_multiple_of(q) {
            continue;
        }
        for rest in ordered_factorizations(p / q, dims - 1) {
            let mut tuple = Vec::with_capacity(dims);
            tuple.push(q as i64);
            tuple.extend(rest);
            out.push(tuple);
        }
    }
    out
}

/// Enumerate every candidate for a rank-`rank` template on `procs`
/// processors. `ks` is the CYCLIC(k) block-size alphabet (each entry must
/// be ≥ 2 — plain CYCLIC already covers k = 1). The all-`*` tuple is
/// excluded (it distributes nothing), as are duplicate format tuples if
/// `ks` repeats a value. Enumeration order is deterministic: format
/// tuples in odometer order over the alphabet, grids in ascending
/// factorization order.
pub fn enumerate_candidates(rank: usize, procs: usize, ks: &[i64]) -> Vec<Candidate> {
    assert!(rank > 0, "template rank must be positive");
    assert!(procs > 0, "node budget must be positive");
    let mut alphabet = vec![DistFormat::Block, DistFormat::Cyclic];
    for &k in ks {
        assert!(k >= 2, "CYCLIC(k) alphabet entries must be >= 2, got {k}");
        let f = DistFormat::CyclicK(k);
        if !alphabet.contains(&f) {
            alphabet.push(f);
        }
    }
    alphabet.push(DistFormat::Degenerate);

    let mut out = Vec::new();
    let mut odometer = vec![0usize; rank];
    loop {
        let formats: Vec<DistFormat> = odometer.iter().map(|&i| alphabet[i]).collect();
        let dist_dims = formats
            .iter()
            .filter(|f| **f != DistFormat::Degenerate)
            .count();
        if dist_dims > 0 {
            for grid in ordered_factorizations(procs, dist_dims) {
                out.push(Candidate {
                    formats: formats.clone(),
                    grid,
                });
            }
        }
        // Advance the odometer; most-significant digit first so format
        // tuples come out in lexicographic alphabet order.
        let mut d = rank;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            odometer[d] += 1;
            if odometer[d] < alphabet.len() {
                break;
            }
            odometer[d] = 0;
        }
    }
}

/// A program's mapping directives rewritten to realize `candidate`: every
/// `DISTRIBUTE` whose rank matches the candidate gets the candidate's
/// format tuple, and every `PROCESSORS` arrangement is redeclared with the
/// candidate's grid shape. Nothing else in the program differs between
/// candidates, so the search's back half reads only this list; only the
/// rewritten entries are owned here, the rest are borrowed.
pub(crate) struct CandidateDirectives<'p> {
    directives: &'p [Directive],
    /// (position in `directives`, its rewrite).
    rewritten: Vec<(usize, Directive)>,
}

impl<'p> CandidateDirectives<'p> {
    pub(crate) fn new(directives: &'p [Directive], candidate: &Candidate) -> Self {
        let rewritten = directives
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let d = match d {
                    Directive::Distribute {
                        target,
                        formats,
                        onto,
                        span,
                    } if formats.len() == candidate.formats.len() => Directive::Distribute {
                        target: target.clone(),
                        formats: candidate.formats.clone(),
                        onto: onto.clone(),
                        span: *span,
                    },
                    Directive::Processors { name, span, .. } => Directive::Processors {
                        name: name.clone(),
                        shape: candidate.grid.iter().map(|&e| Expr::int(e)).collect(),
                        span: *span,
                    },
                    _ => return None,
                };
                Some((i, d))
            })
            .collect();
        CandidateDirectives {
            directives,
            rewritten,
        }
    }

    /// The rewritten list, in the program's order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Directive> + Clone {
        self.directives.iter().enumerate().map(|(i, d)| {
            self.rewritten
                .iter()
                .find(|(j, _)| *j == i)
                .map_or(d, |(_, r)| r)
        })
    }
}

/// `program` with its directives rewritten for `candidate` as the search's
/// back half rewrites them: the whole-program form of a candidate, which
/// `analyze` and `compile` take, kept as the tests' reference. Spans stay
/// aligned with the original source text.
pub fn apply_candidate(program: &Program, candidate: &Candidate) -> Program {
    Program {
        directives: CandidateDirectives::new(&program.directives, candidate)
            .iter()
            .cloned()
            .collect(),
        ..program.clone()
    }
}

/// Rank (dimension count) of the first `DISTRIBUTE` directive, if any —
/// the template rank the enumeration runs over.
pub fn distribute_rank(program: &Program) -> Option<usize> {
    program.directives.iter().find_map(|d| match d {
        Directive::Distribute { formats, .. } => Some(formats.len()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorizations_cover_all_orderings() {
        assert_eq!(
            ordered_factorizations(8, 2),
            vec![vec![1, 8], vec![2, 4], vec![4, 2], vec![8, 1]]
        );
        assert_eq!(ordered_factorizations(8, 1), vec![vec![8]]);
        assert_eq!(ordered_factorizations(1, 2), vec![vec![1, 1]]);
        for t in ordered_factorizations(12, 3) {
            assert_eq!(t.iter().product::<i64>(), 12);
        }
        assert_eq!(ordered_factorizations(12, 3).len(), 18);
    }

    #[test]
    fn enumeration_is_distinct_and_consistent() {
        let cands = enumerate_candidates(2, 8, &[2, 16]);
        // Alphabet is {B, C, C(2), C(16), *}: 4*4 = 16 doubly-distributed
        // tuples × 4 grids + 2*4 singly-distributed tuples × 1 grid.
        assert_eq!(cands.len(), 16 * 4 + 8);
        let mut labels: Vec<String> = cands.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cands.len(), "labels must be unique");
        for c in &cands {
            assert_eq!(c.grid.len(), c.distributed_dims());
            assert_eq!(c.grid.iter().product::<i64>(), 8);
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let a = enumerate_candidates(2, 8, &[2, 16]);
        let b = enumerate_candidates(2, 8, &[2, 16]);
        assert_eq!(a, b);
    }

    #[test]
    fn rank_one_space() {
        let cands = enumerate_candidates(1, 8, &[2]);
        // {B, C, C(2)} × [8]; the all-* tuple is excluded.
        assert_eq!(cands.len(), 3);
    }
}

//! Execution profile collected by the functional interpreter.
//!
//! The discrete-event simulator (the "measured" machine stand-in) consumes
//! this profile for data-dependent behaviour the static predictor can only
//! model heuristically: actual loop trip counts, forall mask densities, and
//! branch outcomes. This asymmetry — prediction from static resolution,
//! ground truth from actual execution — is what makes the reproduction's
//! prediction error an honest quantity rather than a tuned constant.

use hpf_lang::Span;
use std::collections::BTreeMap;

/// Per-statement dynamic statistics, keyed by the statement's span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StmtStats {
    /// How many times the statement was reached.
    pub executions: u64,
    /// Total inner iterations (forall index-space points, DO trips).
    pub iterations: u64,
    /// Mask evaluations that were true (forall/where only).
    pub mask_true: u64,
    /// Total mask evaluations (forall/where only).
    pub mask_total: u64,
}

impl StmtStats {
    /// Observed mask selectivity in `[0, 1]`; 1 when no mask was present.
    pub fn mask_density(&self) -> f64 {
        if self.mask_total == 0 {
            1.0
        } else {
            self.mask_true as f64 / self.mask_total as f64
        }
    }
}

/// Profile of one functional-interpreter run.
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    stats: BTreeMap<(u32, u32), StmtStats>,
    /// Total scalar operations evaluated (a work proxy / runaway guard).
    pub total_steps: u64,
}

impl ExecutionProfile {
    /// A profile of the given entries, keyed by `(line, start)`.
    pub(crate) fn from_parts(stats: BTreeMap<(u32, u32), StmtStats>, total_steps: u64) -> Self {
        ExecutionProfile { stats, total_steps }
    }

    fn key(span: Span) -> (u32, u32) {
        (span.line, span.start)
    }

    pub fn entry(&mut self, span: Span) -> &mut StmtStats {
        self.stats.entry(Self::key(span)).or_default()
    }

    pub fn get(&self, span: Span) -> Option<&StmtStats> {
        self.stats.get(&Self::key(span))
    }

    /// Stats for a statement identified by source line (first match).
    pub fn by_line(&self, line: u32) -> Option<&StmtStats> {
        self.stats
            .iter()
            .find(|((l, _), _)| *l == line)
            .map(|(_, s)| s)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &StmtStats)> {
        self.stats.iter()
    }

    pub fn len(&self) -> usize {
        self.stats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_density_defaults_to_one() {
        let s = StmtStats::default();
        assert_eq!(s.mask_density(), 1.0);
        let s = StmtStats {
            mask_true: 3,
            mask_total: 4,
            ..Default::default()
        };
        assert_eq!(s.mask_density(), 0.75);
    }

    #[test]
    fn profile_accumulates_by_span() {
        let mut p = ExecutionProfile::default();
        let sp = Span::new(0, 5, 3);
        p.entry(sp).executions += 1;
        p.entry(sp).executions += 1;
        assert_eq!(p.get(sp).unwrap().executions, 2);
        assert_eq!(p.by_line(3).unwrap().executions, 2);
        assert!(p.by_line(4).is_none());
    }
}

//! Performance metrics maintained per AAU and cumulatively (§4.2): the
//! computation / communication / overhead time breakdown plus wait time,
//! and the global clock.

use std::ops::{Add, AddAssign, Mul};

/// Time breakdown, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Useful local computation.
    pub comp: f64,
    /// Communication/synchronization (network + library).
    pub comm: f64,
    /// Software overheads: loop/branch bookkeeping, index translation,
    /// message packing.
    pub overhead: f64,
    /// Idle time on non-critical nodes due to load imbalance (reported but
    /// not part of the critical-path clock).
    pub wait: f64,
    /// Parallel I/O time (striped server transfers, disk service, commit).
    pub io: f64,
}

impl Metrics {
    pub const ZERO: Metrics = Metrics {
        comp: 0.0,
        comm: 0.0,
        overhead: 0.0,
        wait: 0.0,
        io: 0.0,
    };

    /// Critical-path time of this unit (computation + communication +
    /// overheads; waits overlap the critical path by construction).
    pub fn time(&self) -> f64 {
        self.comp + self.comm + self.overhead + self.io
    }

    /// Fraction of the time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let t = self.time();
        if t == 0.0 {
            0.0
        } else {
            self.comm / t
        }
    }
}

impl Add for Metrics {
    type Output = Metrics;
    fn add(self, o: Metrics) -> Metrics {
        Metrics {
            comp: self.comp + o.comp,
            comm: self.comm + o.comm,
            overhead: self.overhead + o.overhead,
            wait: self.wait + o.wait,
            io: self.io + o.io,
        }
    }
}

impl AddAssign for Metrics {
    fn add_assign(&mut self, o: Metrics) {
        *self = *self + o;
    }
}

impl Mul<f64> for Metrics {
    type Output = Metrics;
    fn mul(self, k: f64) -> Metrics {
        Metrics {
            comp: self.comp * k,
            comm: self.comm * k,
            overhead: self.overhead * k,
            wait: self.wait * k,
            io: self.io * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra() {
        let a = Metrics {
            comp: 1.0,
            comm: 2.0,
            overhead: 0.5,
            wait: 0.1,
            io: 0.0,
        };
        let b = a + a;
        assert_eq!(b.comp, 2.0);
        assert_eq!(b.time(), 7.0);
        let c = a * 3.0;
        assert_eq!(c.comm, 6.0);
        assert!((a.comm_fraction() - 2.0 / 3.5).abs() < 1e-12);
        assert_eq!(Metrics::ZERO.comm_fraction(), 0.0);
    }
}

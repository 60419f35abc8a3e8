//! Hypercube topology of the iPSC/860: node addressing, hop counts and
//! neighbor relations, shared by the communication cost models and by the
//! discrete-event simulator's network.
//!
//! Also declares [`TopologyDesc`], the serializable interconnect
//! description a [`crate::MachineModel`] carries so the simulator can
//! route messages over the machine's physical network. The routing and
//! link-occupancy implementations of every topology, the hypercube's
//! included, live in the `hpf-machines` crate behind its `Topology`
//! trait; this enum is only the data the SAU tables travel with.

use serde::{Deserialize, Serialize};

/// The physical interconnect of an abstracted machine. `Hypercube` is the
/// serde default, so every pre-existing machine description (and every
/// constructor in this crate) keeps the iPSC/860 network unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TopologyDesc {
    /// Binary hypercube with e-cube (dimension-ordered) routing — the
    /// iPSC/860 Direct-Connect network.
    #[default]
    Hypercube,
    /// k-ary torus/mesh with dimension-ordered shortest-wrap routing;
    /// `dims` are the per-dimension extents (2 entries = 2D, 3 = 3D).
    Torus { dims: Vec<usize> },
    /// Two-level fat tree: `radix` nodes per leaf switch, leaf switches
    /// under one root layer, up/down routing.
    FatTree { radix: usize },
    /// Idealized full crossbar (a modern multicore node): every pair one
    /// hop apart, contention only at the receiver port.
    Crossbar,
}

impl TopologyDesc {
    /// Short stable label used in diagnostics and metric names.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyDesc::Hypercube => "hypercube",
            TopologyDesc::Torus { dims } if dims.len() == 2 => "torus2d",
            TopologyDesc::Torus { .. } => "torus3d",
            TopologyDesc::FatTree { .. } => "fat-tree",
            TopologyDesc::Crossbar => "crossbar",
        }
    }
}

/// A hypercube of `2^dim` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    pub dim: u32,
}

impl Hypercube {
    /// Smallest hypercube holding at least `n` nodes.
    pub fn fitting(n: usize) -> Hypercube {
        let mut dim = 0;
        while (1usize << dim) < n {
            dim += 1;
        }
        Hypercube { dim }
    }

    pub fn nodes(&self) -> usize {
        1 << self.dim
    }

    /// Hamming distance — the number of hops of the e-cube route.
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        ((a ^ b) as u64).count_ones()
    }

    /// Neighbor of `node` across dimension `d`.
    pub fn neighbor(&self, node: usize, d: u32) -> usize {
        node ^ (1 << d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_rounds_up() {
        assert_eq!(Hypercube::fitting(1).dim, 0);
        assert_eq!(Hypercube::fitting(2).dim, 1);
        assert_eq!(Hypercube::fitting(3).dim, 2);
        assert_eq!(Hypercube::fitting(8).dim, 3);
        assert_eq!(Hypercube::fitting(9).dim, 4);
    }

    #[test]
    fn hops_is_hamming_distance() {
        let h = Hypercube { dim: 3 };
        assert_eq!(h.hops(0, 7), 3);
        assert_eq!(h.hops(5, 5), 0);
        assert_eq!(h.hops(0b001, 0b011), 1);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let h = Hypercube { dim: 3 };
        for n in 0..h.nodes() {
            for d in 0..h.dim {
                assert_eq!(h.neighbor(h.neighbor(n, d), d), n);
            }
        }
    }
}

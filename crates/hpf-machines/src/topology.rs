//! The [`Topology`] trait and its four concrete interconnects.
//!
//! A topology answers the three questions the discrete-event network
//! model asks: *how many link-occupancy slots are there* ([`Topology::link_slots`]),
//! *which slot does a traversed link occupy* ([`Topology::link_index`]),
//! and *which links does a message cross* ([`Topology::route`]). Routes
//! and slots are computed without allocating, so the simulator can route
//! every message of a phase through one reused buffer.
//! Routes may pass through **switch vertices** — vertex ids `>=
//! nodes()` (the fat tree's leaf and root switches); compute nodes are
//! always vertices `0..nodes()`.
//!
//! Every implementation's route enumeration is shortest-path (verified
//! against a BFS oracle by proptests below) and deterministic: the same
//! `(from, to)` always yields the same link sequence, which is what keeps
//! the simulator's f64 association order — and therefore every golden —
//! bit-stable.

use crate::error::TopologyError;
use machine::{Hypercube, TopologyDesc};

/// Routing/occupancy view of one interconnect instance.
pub trait Topology: Send + Sync {
    /// Short topology label (e.g. `"hypercube"`, `"torus3d"`).
    fn kind(&self) -> &'static str;

    /// Compute-node count (vertices `0..nodes()`).
    fn nodes(&self) -> usize;

    /// Total vertex count including switch vertices.
    fn vertices(&self) -> usize {
        self.nodes()
    }

    /// Number of link-occupancy slots the DES must allocate.
    fn link_slots(&self) -> usize;

    /// Occupancy slot of the link joining *adjacent* vertices `a`, `b`.
    fn link_index(&self, a: usize, b: usize) -> usize;

    /// Append the links a message from node `a` to node `b` traverses,
    /// in order, as `(from, to)` vertex pairs, to `route`. Appends
    /// nothing when `a == b`, and never allocates beyond `route`'s growth.
    fn route(&self, a: usize, b: usize, route: &mut Vec<(usize, usize)>);

    /// Vertices adjacent to vertex `v` (switch vertices included).
    fn vertex_neighbors(&self, v: usize) -> Vec<usize>;

    /// Maximum hop count over all node pairs.
    fn diameter(&self) -> usize;
}

/// Build the topology for a machine description, validating the node
/// count against the occupancy-model bounds that used to be hard
/// assertions in the DES network tables.
pub fn build_topology(
    desc: &TopologyDesc,
    nodes: usize,
) -> Result<Box<dyn Topology>, TopologyError> {
    let invalid = |reason: String| TopologyError::InvalidNodes {
        machine: desc.label().to_string(),
        nodes,
        reason,
    };
    if nodes == 0 {
        return Err(invalid("at least one node".into()));
    }
    match desc {
        TopologyDesc::Hypercube => {
            if nodes > 1024 {
                return Err(invalid(
                    "hypercube link tables are sized for at most 1024 nodes".into(),
                ));
            }
            Ok(Box::new(HypercubeTopo::fitting(nodes)))
        }
        TopologyDesc::Torus { dims } => {
            if dims.is_empty() || dims.contains(&0) {
                return Err(invalid(format!("torus extents {dims:?} must be positive")));
            }
            let product: usize = dims.iter().product();
            if product != nodes {
                return Err(invalid(format!(
                    "torus extents {dims:?} hold {product} nodes"
                )));
            }
            if nodes > 4096 {
                return Err(invalid(
                    "torus link tables are sized for at most 4096 nodes".into(),
                ));
            }
            Ok(Box::new(TorusTopo { dims: dims.clone() }))
        }
        TopologyDesc::FatTree { radix } => {
            if *radix == 0 {
                return Err(invalid("fat-tree radix must be positive".into()));
            }
            if nodes > 4096 {
                return Err(invalid(
                    "fat-tree link tables are sized for at most 4096 nodes".into(),
                ));
            }
            Ok(Box::new(FatTreeTopo {
                nodes,
                radix: *radix,
            }))
        }
        TopologyDesc::Crossbar => {
            if nodes > 1024 {
                return Err(invalid(
                    "crossbar port tables are sized for at most 1024 nodes".into(),
                ));
            }
            Ok(Box::new(CrossbarTopo { nodes }))
        }
    }
}

/// Binary hypercube with e-cube routing — the iPSC/860 Direct-Connect
/// network. The link between XOR-neighbors occupies slot
/// `min(a,b) * dim + crossed-dimension`.
#[derive(Debug, Clone, Copy)]
pub struct HypercubeTopo {
    pub cube: Hypercube,
}

impl HypercubeTopo {
    pub fn fitting(nodes: usize) -> Self {
        HypercubeTopo {
            cube: Hypercube::fitting(nodes),
        }
    }
}

impl Topology for HypercubeTopo {
    fn kind(&self) -> &'static str {
        "hypercube"
    }

    fn nodes(&self) -> usize {
        self.cube.nodes()
    }

    fn link_slots(&self) -> usize {
        self.cube.nodes() * (self.cube.dim as usize).max(1)
    }

    fn link_index(&self, a: usize, b: usize) -> usize {
        a.min(b) * (self.cube.dim as usize).max(1) + (a ^ b).trailing_zeros() as usize
    }

    /// E-cube routing: the differing address bits are corrected lowest
    /// first, one dimension per hop.
    fn route(&self, a: usize, b: usize, route: &mut Vec<(usize, usize)>) {
        let (mut cur, mut diff) = (a, a ^ b);
        while diff != 0 {
            let next = cur ^ (diff & diff.wrapping_neg());
            route.push((cur, next));
            cur = next;
            diff &= diff - 1;
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.cube.dim)
            .map(|d| self.cube.neighbor(v, d))
            .collect()
    }

    fn diameter(&self) -> usize {
        self.cube.dim as usize
    }
}

/// k-ary torus/mesh with dimension-ordered routing: each dimension is
/// resolved in turn, stepping in whichever wrap direction is shorter
/// (ties step `+1`). Dimension 0 varies fastest in the node numbering.
#[derive(Debug, Clone)]
pub struct TorusTopo {
    pub dims: Vec<usize>,
}

impl TorusTopo {
    /// Node-id distance between neighbors along dimension `d`.
    fn stride(&self, d: usize) -> usize {
        self.dims[..d].iter().product()
    }

    fn coord(&self, v: usize, d: usize) -> usize {
        v / self.stride(d) % self.dims[d]
    }

    /// `v` moved to coordinate `c` along dimension `d`.
    fn with_coord(&self, v: usize, d: usize, c: usize) -> usize {
        let s = self.stride(d);
        v - self.coord(v, d) * s + c * s
    }

    /// The `+1` neighbor of `v` along dimension `d` (with wraparound).
    fn plus(&self, v: usize, d: usize) -> usize {
        self.with_coord(v, d, (self.coord(v, d) + 1) % self.dims[d])
    }

    /// Canonical occupancy slot of the link between adjacent `u`, `w`
    /// along dimension `d`: the endpoint whose `+1` step crosses the
    /// link owns the slot (extent-2 rings collapse both directions onto
    /// one physical link, keyed by the lower endpoint).
    fn link_of(&self, u: usize, w: usize, d: usize) -> usize {
        let owner = if self.dims[d] == 2 {
            u.min(w)
        } else if self.plus(u, d) == w {
            u
        } else {
            w
        };
        owner * self.dims.len() + d
    }
}

impl Topology for TorusTopo {
    fn kind(&self) -> &'static str {
        if self.dims.len() == 2 {
            "torus2d"
        } else {
            "torus3d"
        }
    }

    fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    fn link_slots(&self) -> usize {
        self.nodes() * self.dims.len()
    }

    fn link_index(&self, a: usize, b: usize) -> usize {
        let d = (0..self.dims.len())
            .find(|&d| self.coord(a, d) != self.coord(b, d))
            .expect("link_index of identical vertices");
        self.link_of(a, b, d)
    }

    fn route(&self, a: usize, b: usize, route: &mut Vec<(usize, usize)>) {
        let mut cur = a;
        for (d, &e) in self.dims.iter().enumerate() {
            let target = self.coord(b, d);
            let mut c = self.coord(cur, d);
            while c != target {
                let fwd = (target + e - c) % e;
                // Shorter wrap direction; ties go +1.
                c = if fwd <= e - fwd {
                    (c + 1) % e
                } else {
                    (c + e - 1) % e
                };
                let next = self.with_coord(cur, d, c);
                route.push((cur, next));
                cur = next;
            }
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (d, &e) in self.dims.iter().enumerate() {
            if e < 2 {
                continue;
            }
            let c = self.coord(v, d);
            let up = self.with_coord(v, d, (c + 1) % e);
            let down = self.with_coord(v, d, (c + e - 1) % e);
            out.push(up);
            if down != up {
                out.push(down);
            }
        }
        out
    }

    fn diameter(&self) -> usize {
        self.dims.iter().map(|e| e / 2).sum()
    }
}

/// Two-level fat tree with up/down routing. Vertices: compute nodes
/// `0..n`, leaf switches `n..n+s` (each serving `radix` consecutive
/// nodes), and one root switch `n+s`. A message climbs to its leaf
/// switch, crosses the root if the destination hangs off another leaf,
/// and descends — 2 hops intra-leaf, 4 inter-leaf. The single up-link
/// per leaf switch is the shared (thin) resource the occupancy model
/// serializes on.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeTopo {
    pub nodes: usize,
    pub radix: usize,
}

impl FatTreeTopo {
    fn switches(&self) -> usize {
        self.nodes.div_ceil(self.radix)
    }

    fn leaf_of(&self, node: usize) -> usize {
        self.nodes + node / self.radix
    }

    fn root(&self) -> usize {
        self.nodes + self.switches()
    }
}

impl Topology for FatTreeTopo {
    fn kind(&self) -> &'static str {
        "fat-tree"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn vertices(&self) -> usize {
        self.nodes + self.switches() + 1
    }

    /// One down-link per node plus one up-link per leaf switch.
    fn link_slots(&self) -> usize {
        self.nodes + self.switches()
    }

    fn link_index(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = (a.min(b), a.max(b));
        if hi == self.root() {
            // leaf switch <-> root: slot n + switch index.
            self.nodes + (lo - self.nodes)
        } else {
            // node <-> its leaf switch: slot = node id.
            debug_assert_eq!(self.leaf_of(lo), hi);
            lo
        }
    }

    fn route(&self, a: usize, b: usize, route: &mut Vec<(usize, usize)>) {
        if a == b {
            return;
        }
        let (la, lb) = (self.leaf_of(a), self.leaf_of(b));
        if la == lb {
            route.extend([(a, la), (la, b)]);
        } else {
            let root = self.root();
            route.extend([(a, la), (la, root), (root, lb), (lb, b)]);
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        if v < self.nodes {
            vec![self.leaf_of(v)]
        } else if v < self.root() {
            let first = (v - self.nodes) * self.radix;
            let mut out: Vec<usize> = (first..(first + self.radix).min(self.nodes)).collect();
            out.push(self.root());
            out
        } else {
            (self.nodes..self.root()).collect()
        }
    }

    fn diameter(&self) -> usize {
        if self.switches() > 1 {
            4
        } else if self.nodes > 1 {
            2
        } else {
            0
        }
    }
}

/// Idealized crossbar (a modern multicore node): every pair of nodes is
/// one hop apart and the only contended resource is the receiver port —
/// `link_index` is the destination, so concurrent senders to one
/// receiver serialize while disjoint pairs stream in parallel.
#[derive(Debug, Clone, Copy)]
pub struct CrossbarTopo {
    pub nodes: usize,
}

impl Topology for CrossbarTopo {
    fn kind(&self) -> &'static str {
        "crossbar"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn link_slots(&self) -> usize {
        self.nodes
    }

    fn link_index(&self, _a: usize, b: usize) -> usize {
        b
    }

    fn route(&self, a: usize, b: usize, route: &mut Vec<(usize, usize)>) {
        if a != b {
            route.push((a, b));
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.nodes).filter(|&o| o != v).collect()
    }

    fn diameter(&self) -> usize {
        usize::from(self.nodes > 1)
    }
}

/// The route from `a` to `b` in a fresh buffer.
#[cfg(test)]
fn route_of(topo: &dyn Topology, a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut route = Vec::new();
    topo.route(a, b, &mut route);
    route
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breadth-first distance between two vertices using only
    /// `vertex_neighbors` — the oracle the routing implementations are
    /// checked against.
    fn bfs_distance(topo: &dyn Topology, a: usize, b: usize) -> Option<usize> {
        let n = topo.vertices();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[a] = 0;
        queue.push_back(a);
        while let Some(v) = queue.pop_front() {
            if v == b {
                return Some(dist[v]);
            }
            for w in topo.vertex_neighbors(v) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// A route must be a connected walk from `a` to `b` whose length
    /// equals the BFS shortest-path distance, with every traversed link
    /// mapping to an in-bounds occupancy slot.
    fn check_routes(topo: &dyn Topology) {
        for a in 0..topo.nodes() {
            for b in 0..topo.nodes() {
                let links = route_of(topo, a, b);
                if a == b {
                    assert!(links.is_empty(), "{}: self-route not empty", topo.kind());
                    continue;
                }
                let mut cur = a;
                for &(from, to) in &links {
                    assert_eq!(from, cur, "{}: disconnected route {a}->{b}", topo.kind());
                    assert!(
                        topo.vertex_neighbors(from).contains(&to),
                        "{}: {from}->{to} not an edge",
                        topo.kind()
                    );
                    let slot = topo.link_index(from, to);
                    assert!(
                        slot < topo.link_slots(),
                        "{}: slot {slot} out of bounds ({})",
                        topo.kind(),
                        topo.link_slots()
                    );
                    // The slot must be direction-independent: one
                    // physical link, one occupancy row — except on the
                    // crossbar, where the "link" is the receiver port.
                    if topo.kind() != "crossbar" {
                        assert_eq!(slot, topo.link_index(to, from), "{}", topo.kind());
                    }
                    cur = to;
                }
                assert_eq!(cur, b, "{}: route {a}->{b} ends elsewhere", topo.kind());
                let oracle = bfs_distance(topo, a, b).expect("connected");
                assert_eq!(
                    links.len(),
                    oracle,
                    "{}: route {a}->{b} not shortest",
                    topo.kind()
                );
                assert!(links.len() <= topo.diameter(), "{}", topo.kind());
            }
        }
    }

    #[test]
    fn hypercube_matches_bfs_oracle() {
        for dim in 0..5u32 {
            check_routes(&HypercubeTopo {
                cube: Hypercube { dim },
            });
        }
    }

    #[test]
    fn hypercube_route_is_dimension_ordered() {
        let t = HypercubeTopo {
            cube: Hypercube { dim: 3 },
        };
        // Dimension 0 first, then dimension 2.
        assert_eq!(
            route_of(&t, 0b000, 0b101),
            vec![(0b000, 0b001), (0b001, 0b101)]
        );
    }

    #[test]
    fn hypercube_link_index_matches_des_table_layout() {
        let t = HypercubeTopo::fitting(8);
        // min(a,b)*dim + crossed dimension — the DES flat-table formula.
        assert_eq!(t.link_index(2, 3), 2 * 3);
        assert_eq!(t.link_index(3, 2), 2 * 3);
        assert_eq!(t.link_index(5, 1), 3 + 2); // min(1,5)*dim + crossed dim 2
    }

    #[test]
    fn fat_tree_routes_are_up_down() {
        let t = FatTreeTopo {
            nodes: 10,
            radix: 4,
        };
        assert_eq!(route_of(&t, 0, 3).len(), 2); // same leaf
        assert_eq!(route_of(&t, 0, 9).len(), 4); // via root
        check_routes(&t);
    }

    #[test]
    fn crossbar_is_single_hop() {
        let t = CrossbarTopo { nodes: 7 };
        check_routes(&t);
        assert_eq!(t.link_index(3, 5), 5);
        assert_eq!(t.link_index(2, 5), 5); // receiver-port serialization
    }

    #[test]
    fn torus_extent_two_collapses_to_one_link() {
        let t = TorusTopo { dims: vec![2, 2] };
        check_routes(&t);
        // Both directions across an extent-2 ring share one slot.
        assert_eq!(t.link_index(0, 1), t.link_index(1, 0));
    }

    #[test]
    fn build_topology_validates_bounds() {
        assert!(build_topology(&TopologyDesc::Hypercube, 8).is_ok());
        assert!(matches!(
            build_topology(&TopologyDesc::Hypercube, 2048),
            Err(TopologyError::InvalidNodes { .. })
        ));
        assert!(matches!(
            build_topology(&TopologyDesc::Torus { dims: vec![2, 3] }, 7),
            Err(TopologyError::InvalidNodes { .. })
        ));
        assert!(matches!(
            build_topology(&TopologyDesc::Crossbar, 0),
            Err(TopologyError::InvalidNodes { .. })
        ));
    }
}

#[cfg(test)]
mod topology_properties {
    use super::*;
    use proptest::prelude::*;

    fn bfs(topo: &dyn Topology, a: usize, b: usize) -> usize {
        let mut dist = vec![usize::MAX; topo.vertices()];
        let mut queue = std::collections::VecDeque::new();
        dist[a] = 0;
        queue.push_back(a);
        while let Some(v) = queue.pop_front() {
            for w in topo.vertex_neighbors(v) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist[b]
    }

    fn route_is_shortest(topo: &dyn Topology, a: usize, b: usize) {
        let links = route_of(topo, a, b);
        let mut cur = a;
        for &(from, to) in &links {
            assert_eq!(from, cur);
            let slot = topo.link_index(from, to);
            assert!(slot < topo.link_slots());
            cur = to;
        }
        assert_eq!(cur, b);
        assert_eq!(links.len(), bfs(topo, a, b));
    }

    proptest! {
        /// Every backend topology's route enumeration yields shortest
        /// paths matching the BFS oracle on random small instances.
        #[test]
        fn routes_match_bfs_oracle(
            dim in 0u32..5,
            d1 in 1usize..5, d2 in 1usize..5, d3 in 1usize..4,
            ft_nodes in 1usize..20, radix in 1usize..6,
            xbar in 1usize..17,
            pair in (0usize..4096, 0usize..4096),
        ) {
            let topos: Vec<Box<dyn Topology>> = vec![
                Box::new(HypercubeTopo { cube: Hypercube { dim } }),
                Box::new(TorusTopo { dims: vec![d1, d2, d3] }),
                Box::new(FatTreeTopo { nodes: ft_nodes, radix }),
                Box::new(CrossbarTopo { nodes: xbar }),
            ];
            for topo in &topos {
                let a = pair.0 % topo.nodes();
                let b = pair.1 % topo.nodes();
                route_is_shortest(topo.as_ref(), a, b);
            }
        }
    }
}

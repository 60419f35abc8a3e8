//! Event-level network model: messages routed over the machine's
//! [`Topology`] with per-link occupancy (contention), used by the
//! simulator to time each communication phase. Every registered machine,
//! the iPSC/860 Direct-Connect hypercube included, is timed by the one
//! walk in [`simulate_phase`].
//!
//! This is deliberately *richer* than the analytic collective model the
//! predictor uses — contention and per-hop effects are exactly the kind of
//! behaviour a static model abstracts away, and they are one honest source
//! of prediction error in the reproduction.

use crate::simulator::FaultSession;
use hpf_machines::Topology;
use machine::{CommComponent, FaultPlan, LinkState, RetryPolicy};
use rand::Rng;
use std::collections::VecDeque;

/// One message to deliver within a communication phase.
#[derive(Debug, Clone, Copy)]
pub struct Message {
    pub from: usize,
    pub to: usize,
    pub bytes: u64,
}

/// Outcome of simulating one phase.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Completion time of each node (seconds from phase start).
    pub node_done: Vec<f64>,
    /// Max over nodes.
    pub duration: f64,
    /// Messages sent on their direct route, counted as
    /// `sim.route_cache_hit`. The detoured and undeliverable messages in
    /// `faults` are counted as `sim.route_cache_miss`.
    pub direct: u64,
    /// Fault events of this phase (all zero without a fault session).
    pub faults: FaultStats,
}

/// Simulate the delivery of a set of messages injected simultaneously at
/// phase start, in the order given. Each message follows its route from
/// [`Topology::route`]; links are half-duplex channels indexed by
/// [`Topology::link_index`], and messages crossing the same link
/// serialize (store-and-forward per link occupancy). Messages to self or
/// with an endpoint outside `nodes` or the topology are skipped.
///
/// Under a fault session each message is subject to the plan's loss
/// probability (timeout + exponential-backoff resend, per
/// [`machine::RetryPolicy`]), degraded links stretch its wire time, and
/// severed links force a detour. Deterministic for a given session RNG
/// state; without a session every hop costs exactly `wire + hop`.
pub fn simulate_phase(
    topo: &dyn Topology,
    comm: &CommComponent,
    nodes: usize,
    messages: &[Message],
    mut faults: Option<&mut FaultSession<'_>>,
) -> PhaseTiming {
    let plan: Option<&FaultPlan> = faults.as_ref().map(|s| s.plan);
    // A healthy phase makes one attempt per message.
    let retry = plan.map_or(
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
        |p| p.retry,
    );
    let loss = plan.map_or(0.0, |p| p.loss_prob);

    let limit = nodes.min(topo.nodes());
    let mut node_done = vec![0.0f64; nodes];
    let mut free = vec![0.0f64; topo.link_slots()];
    let mut route = Vec::with_capacity(topo.diameter());
    let mut direct = 0u64;
    let mut stats = FaultStats::default();

    for m in messages {
        if m.from == m.to || m.from >= limit || m.to >= limit {
            continue;
        }
        let startup = if m.bytes <= comm.short_threshold {
            comm.short_latency_s
        } else {
            comm.long_latency_s
        };
        let wire = m.bytes as f64 * comm.per_byte_s;
        route.clear();
        topo.route(m.from, m.to, &mut route);
        let severed = plan.filter(|p| {
            route
                .iter()
                .any(|&(a, b)| p.link_state(a, b) == Some(LinkState::Down))
        });
        match severed {
            None => direct += 1,
            Some(plan) if detour(topo, plan, m.from, m.to, &mut route) => stats.detours += 1,
            Some(_) => {
                // Partitioned: the sender burns its full retry budget waiting.
                stats.undeliverable += 1;
                let mut waited = 0.0;
                for k in 0..retry.max_retries {
                    waited += retry.timeout_s * retry.backoff.powi(k as i32);
                }
                node_done[m.from] = node_done[m.from].max(node_done[m.from] + startup + waited);
                continue;
            }
        }

        let mut inject = node_done[m.from];
        for attempt in 0..=retry.max_retries {
            // The transmission occupies links whether or not it is lost.
            let mut t = inject + startup;
            for &(a, b) in &route {
                let slow = match plan.and_then(|p| p.link_state(a, b)) {
                    Some(LinkState::Degraded { factor }) => factor.max(1.0),
                    _ => 1.0,
                };
                let i = topo.link_index(a, b);
                // Wire and hop costs are added to the start one after the
                // other; every golden phase time depends on that order.
                t = t.max(free[i]) + wire * slow + comm.per_hop_s;
                free[i] = t;
            }
            let lost = loss > 0.0
                && attempt < retry.max_retries
                && faults
                    .as_deref_mut()
                    .is_some_and(|s| s.rng.gen_bool(loss.clamp(0.0, 1.0)));
            if lost {
                stats.retries += 1;
                // Sender notices via timeout, backs off, resends.
                inject += startup + retry.timeout_s * retry.backoff.powi(attempt as i32);
                continue;
            }
            // Sender is busy only for injection; receiver blocks until arrival.
            node_done[m.from] = node_done[m.from].max(inject + startup + wire);
            node_done[m.to] = node_done[m.to].max(t);
            break;
        }
    }
    if hpf_trace::enabled() {
        let missed = stats.detours + stats.undeliverable;
        if direct > 0 {
            hpf_trace::counter_add("sim.route_cache_hit", direct);
        }
        if missed > 0 {
            hpf_trace::counter_add("sim.route_cache_miss", missed);
        }
    }
    let duration = node_done.iter().copied().fold(0.0, f64::max);
    PhaseTiming {
        node_done,
        duration,
        direct,
        faults: stats,
    }
}

/// Replace `route` with the shortest route from `from` to `to` over the
/// links `plan` leaves up: a breadth-first search over
/// [`Topology::vertex_neighbors`], which on a cube lists dimensions in
/// ascending order, so the same detour is found every time. Returns
/// `false`, leaving `route` as it was, when the severed links partition
/// `from` from `to`.
fn detour(
    topo: &dyn Topology,
    plan: &FaultPlan,
    from: usize,
    to: usize,
    route: &mut Vec<(usize, usize)>,
) -> bool {
    let up = |a: usize, b: usize| plan.link_state(a, b) != Some(LinkState::Down);
    let mut prev = vec![usize::MAX; topo.vertices()];
    prev[from] = from;
    let mut queue = VecDeque::from([from]);
    'search: while let Some(v) = queue.pop_front() {
        for w in topo.vertex_neighbors(v) {
            if prev[w] == usize::MAX && up(v, w) {
                prev[w] = v;
                if w == to {
                    break 'search;
                }
                queue.push_back(w);
            }
        }
    }
    if prev[to] == usize::MAX {
        return false;
    }
    route.clear();
    let mut v = to;
    while v != from {
        route.push((prev[v], v));
        v = prev[v];
    }
    route.reverse();
    true
}

/// Counts of fault events observed while delivering messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Timed-out transmissions that were resent.
    pub retries: u64,
    /// Messages rerouted around a severed link.
    pub detours: u64,
    /// Messages that could not reach their destination at all (network
    /// partitioned by severed links).
    pub undeliverable: u64,
}

impl FaultStats {
    pub fn any(&self) -> bool {
        self.retries + self.detours + self.undeliverable > 0
    }

    pub fn absorb(&mut self, other: FaultStats) {
        self.retries += other.retries;
        self.detours += other.detours;
        self.undeliverable += other.undeliverable;
    }
}

/// Build the message list for one stage-structured collective.
pub mod patterns {
    use super::Message;
    use machine::Hypercube;

    /// Nearest-neighbor exchange in both directions between consecutive
    /// nodes of a ring embedded in the cube (grid-dimension shift).
    pub fn shift(nodes: usize, bytes: u64) -> Vec<Message> {
        let mut ms = Vec::new();
        if nodes < 2 {
            return ms;
        }
        for n in 0..nodes {
            let up = (n + 1) % nodes;
            ms.push(Message {
                from: n,
                to: up,
                bytes,
            });
            ms.push(Message {
                from: up,
                to: n,
                bytes,
            });
        }
        ms
    }

    /// Recursive-halving reduction: log p stages of pairwise exchange.
    /// Returns per-stage message lists (stages synchronize).
    pub fn reduce_stages(cube: Hypercube, nodes: usize, bytes: u64) -> Vec<Vec<Message>> {
        let mut stages = Vec::new();
        for d in 0..cube.dim {
            let mut ms = Vec::new();
            for n in 0..nodes {
                let partner = cube.neighbor(n, d);
                if partner < nodes {
                    ms.push(Message {
                        from: n,
                        to: partner,
                        bytes,
                    });
                }
            }
            stages.push(ms);
        }
        stages
    }

    /// Spanning-tree broadcast from node 0: stage d sends across dim d.
    pub fn broadcast_stages(cube: Hypercube, nodes: usize, bytes: u64) -> Vec<Vec<Message>> {
        let mut stages = Vec::new();
        for d in 0..cube.dim {
            let mut ms = Vec::new();
            for n in 0..nodes {
                // nodes with all bits above d clear have the data
                if n & !((1usize << (d + 1)) - 1) == 0 && n < (1 << d) + (1 << d) {
                    let to = n | (1 << d);
                    if n < (1 << d) && to < nodes {
                        ms.push(Message { from: n, to, bytes });
                    }
                }
            }
            stages.push(ms);
        }
        stages
    }

    /// All-to-all personalized exchange: p-1 rounds of pairwise exchange
    /// (XOR schedule — classic hypercube algorithm).
    pub fn all_to_all_rounds(nodes: usize, bytes_per_pair: u64) -> Vec<Vec<Message>> {
        let mut rounds = Vec::new();
        for r in 1..nodes {
            let mut ms = Vec::new();
            for n in 0..nodes {
                let partner = n ^ r;
                if partner < nodes {
                    ms.push(Message {
                        from: n,
                        to: partner,
                        bytes: bytes_per_pair,
                    });
                }
            }
            rounds.push(ms);
        }
        rounds
    }

    /// Unstructured gather: every node exchanges with log p partners.
    pub fn gather(cube: Hypercube, nodes: usize, bytes: u64) -> Vec<Message> {
        let mut ms = Vec::new();
        for n in 0..nodes {
            for d in 0..cube.dim.min(2) {
                let partner = cube.neighbor(n, d);
                if partner < nodes {
                    ms.push(Message {
                        from: partner,
                        to: n,
                        bytes,
                    });
                }
            }
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machines::topology::HypercubeTopo;
    use machine::{ipsc860_comm, Hypercube};

    pub(super) fn cube(dim: u32) -> HypercubeTopo {
        HypercubeTopo {
            cube: Hypercube { dim },
        }
    }

    #[test]
    fn single_message_time() {
        let comm = ipsc860_comm();
        let t = simulate_phase(
            &cube(3),
            &comm,
            8,
            &[Message {
                from: 0,
                to: 1,
                bytes: 1024,
            }],
            None,
        );
        let expect = comm.long_latency_s + 1024.0 * comm.per_byte_s + comm.per_hop_s;
        assert!(
            (t.duration - expect).abs() < 1e-9,
            "{} vs {expect}",
            t.duration
        );
    }

    #[test]
    fn contention_serializes_shared_links() {
        let comm = ipsc860_comm();
        // two messages crossing the same link 0-1
        let t2 = simulate_phase(
            &cube(2),
            &comm,
            4,
            &[
                Message {
                    from: 0,
                    to: 1,
                    bytes: 4096,
                },
                Message {
                    from: 0,
                    to: 1,
                    bytes: 4096,
                },
            ],
            None,
        );
        let t1 = simulate_phase(
            &cube(2),
            &comm,
            4,
            &[Message {
                from: 0,
                to: 1,
                bytes: 4096,
            }],
            None,
        );
        assert!(
            t2.duration > 1.5 * t1.duration,
            "{} vs {}",
            t2.duration,
            t1.duration
        );
    }

    #[test]
    fn disjoint_messages_overlap() {
        let comm = ipsc860_comm();
        let par = simulate_phase(
            &cube(2),
            &comm,
            4,
            &[
                Message {
                    from: 0,
                    to: 1,
                    bytes: 4096,
                },
                Message {
                    from: 2,
                    to: 3,
                    bytes: 4096,
                },
            ],
            None,
        );
        let one = simulate_phase(
            &cube(2),
            &comm,
            4,
            &[Message {
                from: 0,
                to: 1,
                bytes: 4096,
            }],
            None,
        );
        assert!((par.duration - one.duration).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_costs_more() {
        let comm = ipsc860_comm();
        let far = simulate_phase(
            &cube(3),
            &comm,
            8,
            &[Message {
                from: 0,
                to: 7,
                bytes: 512,
            }],
            None,
        );
        let near = simulate_phase(
            &cube(3),
            &comm,
            8,
            &[Message {
                from: 0,
                to: 1,
                bytes: 512,
            }],
            None,
        );
        assert!(far.duration > near.duration);
    }

    #[test]
    fn link_index_in_bounds_up_to_1024_nodes() {
        // The occupancy table's contract: for every cube up to 1024 nodes
        // (dim 10), every XOR-neighbor pair maps inside `link_slots()`,
        // and distinct undirected links get distinct slots (nodes * dim / 2
        // of them — the other half of the table is unused headroom).
        for dim in 1u32..=10 {
            let topo = cube(dim);
            let nodes = topo.nodes();
            let d = dim as usize;
            assert_eq!(topo.link_slots(), nodes * d);
            let mut seen = std::collections::HashSet::new();
            for a in 0..nodes {
                for bit in 0..d {
                    let b = a ^ (1 << bit);
                    let i = topo.link_index(a, b);
                    assert!(i < nodes * d, "dim {dim}: link ({a},{b}) -> {i}");
                    assert_eq!(i, topo.link_index(b, a), "must be undirected");
                    seen.insert(i);
                }
            }
            assert_eq!(seen.len(), nodes * d / 2, "dim {dim}: slot collisions");
        }
    }

    #[test]
    fn healthy_phase_counts_route_cache_hits() {
        let ms = patterns::shift(8, 256);
        let t = simulate_phase(&cube(3), &ipsc860_comm(), 8, &ms, None);
        assert_eq!(t.direct, ms.len() as u64);
        assert_eq!(t.faults, FaultStats::default());
    }

    #[test]
    fn severed_link_counts_route_cache_misses() {
        let plan = FaultPlan::link_down(0, 1);
        // 0->1 must detour (miss); 2->3 keeps its direct route (hit).
        let ms = [
            Message {
                from: 0,
                to: 1,
                bytes: 512,
            },
            Message {
                from: 2,
                to: 3,
                bytes: 512,
            },
        ];
        let mut session = FaultSession::new(&plan, 0);
        let t = simulate_phase(&cube(3), &ipsc860_comm(), 8, &ms, Some(&mut session));
        assert_eq!(t.direct, 1);
        assert_eq!(t.faults.detours, 1);
        assert_eq!(t.faults.undeliverable, 0);
    }

    #[test]
    fn shift_pattern_shape() {
        let ms = patterns::shift(4, 100);
        assert_eq!(ms.len(), 8); // 4 ups + 4 downs
        let ms1 = patterns::shift(1, 100);
        assert!(ms1.is_empty());
    }

    #[test]
    fn reduce_stages_cover_dims() {
        let cube = Hypercube { dim: 3 };
        let st = patterns::reduce_stages(cube, 8, 4);
        assert_eq!(st.len(), 3);
        assert_eq!(st[0].len(), 8);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let cube = Hypercube { dim: 3 };
        let st = patterns::broadcast_stages(cube, 8, 4);
        let mut have = [false; 8];
        have[0] = true;
        for stage in &st {
            for m in stage {
                assert!(have[m.from], "sender {} must already hold data", m.from);
                have[m.to] = true;
            }
        }
        assert!(have.iter().all(|&h| h));
    }

    #[test]
    fn all_to_all_rounds_pair_everyone() {
        let rounds = patterns::all_to_all_rounds(4, 64);
        assert_eq!(rounds.len(), 3);
        // each round pairs each node exactly once
        for r in &rounds {
            assert_eq!(r.len(), 4);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::cube;
    use super::*;
    use machine::ipsc860_comm;

    /// Time `ms` on a `dim`-cube under `plan`, with the session seeded
    /// from the plan's own seed.
    fn faulty(dim: u32, nodes: usize, ms: &[Message], plan: &FaultPlan) -> PhaseTiming {
        let mut session = FaultSession::new(plan, 0);
        simulate_phase(&cube(dim), &ipsc860_comm(), nodes, ms, Some(&mut session))
    }

    fn healthy(dim: u32, nodes: usize, ms: &[Message]) -> PhaseTiming {
        simulate_phase(&cube(dim), &ipsc860_comm(), nodes, ms, None)
    }

    #[test]
    fn zero_plan_matches_healthy_path_exactly() {
        let ms = [
            Message {
                from: 0,
                to: 5,
                bytes: 2048,
            },
            Message {
                from: 1,
                to: 6,
                bytes: 64,
            },
            Message {
                from: 3,
                to: 3,
                bytes: 9,
            },
        ];
        let healthy = healthy(3, 8, &ms);
        let faulty = faulty(3, 8, &ms, &FaultPlan::none());
        assert_eq!(healthy.duration, faulty.duration);
        assert_eq!(healthy.node_done, faulty.node_done);
        assert!(!faulty.faults.any());
    }

    #[test]
    fn degraded_link_stretches_crossing_messages_only() {
        let plan = FaultPlan::degraded_link(0, 1, 4.0);
        let crossing = [Message {
            from: 0,
            to: 1,
            bytes: 4096,
        }];
        let avoiding = [Message {
            from: 2,
            to: 3,
            bytes: 4096,
        }];
        let t_cross = faulty(2, 4, &crossing, &plan);
        let t_avoid = faulty(2, 4, &avoiding, &plan);
        let base = healthy(2, 4, &crossing);
        assert!(
            t_cross.duration > base.duration * 1.5,
            "{} vs {}",
            t_cross.duration,
            base.duration
        );
        assert_eq!(t_avoid.duration, base.duration);
    }

    #[test]
    fn severed_link_detours_and_still_delivers() {
        let plan = FaultPlan::link_down(0, 1);
        let ms = [Message {
            from: 0,
            to: 1,
            bytes: 512,
        }];
        let t = faulty(3, 8, &ms, &plan);
        assert_eq!(t.faults.detours, 1);
        assert_eq!(t.faults.undeliverable, 0);
        // Delivered, later than the direct single-hop send.
        let direct = healthy(3, 8, &ms);
        assert!(t.node_done[1] > direct.node_done[1]);
    }

    #[test]
    fn partition_is_reported_not_hung() {
        // 2 nodes, single link
        let plan = FaultPlan::link_down(0, 1);
        let ms = [Message {
            from: 0,
            to: 1,
            bytes: 512,
        }];
        let t = faulty(1, 2, &ms, &plan);
        assert_eq!(t.faults.undeliverable, 1);
        assert_eq!(t.direct, 0);
        // Receiver never completes; sender burned its retry budget.
        assert_eq!(t.node_done[1], 0.0);
        assert!(t.node_done[0] > 0.0);
    }

    #[test]
    fn loss_forces_retries_deterministically() {
        let plan = FaultPlan::lossy(0.4);
        let ms: Vec<Message> = (0..8)
            .map(|n| Message {
                from: n,
                to: (n + 1) % 8,
                bytes: 256,
            })
            .collect();
        let t1 = faulty(3, 8, &ms, &plan);
        let t2 = faulty(3, 8, &ms, &plan);
        assert!(
            t1.faults.retries > 0,
            "p=0.4 over 8 messages should lose at least one"
        );
        assert_eq!(t1.faults, t2.faults);
        assert_eq!(t1.node_done, t2.node_done);
        // Retries only ever add time.
        let healthy = healthy(3, 8, &ms);
        assert!(t1.duration >= healthy.duration);
    }
}

#[cfg(test)]
mod network_properties {
    use super::tests::cube;
    use super::*;
    use machine::ipsc860_comm;
    use proptest::prelude::*;

    proptest! {
        /// Phase duration is at least the cost of its largest message and at
        /// most the fully serialized sum; all node completion times are
        /// non-negative and bounded by the phase duration.
        #[test]
        fn phase_duration_bounds(
            dim in 1u32..5,
            msgs in proptest::collection::vec((0usize..16, 0usize..16, 1u64..50_000), 1..12),
        ) {
            let comm = ipsc860_comm();
            let topo = cube(dim);
            let nodes = topo.cube.nodes();
            let messages: Vec<Message> = msgs
                .iter()
                .map(|&(f, t, b)| Message { from: f % nodes, to: t % nodes, bytes: b })
                .collect();
            let timing = simulate_phase(&topo, &comm, nodes, &messages, None);

            let single = |m: &Message| -> f64 {
                if m.from == m.to {
                    return 0.0;
                }
                let startup = if m.bytes <= comm.short_threshold {
                    comm.short_latency_s
                } else {
                    comm.long_latency_s
                };
                let hops = topo.cube.hops(m.from, m.to) as f64;
                startup + hops * (m.bytes as f64 * comm.per_byte_s + comm.per_hop_s)
            };
            let max_single = messages.iter().map(&single).fold(0.0f64, f64::max);
            let serial_sum: f64 = messages.iter().map(single).sum();

            prop_assert!(timing.duration + 1e-12 >= max_single,
                "duration {} < max single {max_single}", timing.duration);
            // Upper bound is loose (sender-serialization can interleave with
            // link waits) — 2x the serial sum is a safe envelope.
            prop_assert!(timing.duration <= 2.0 * serial_sum + 1e-9,
                "duration {} > 2x serial {serial_sum}", timing.duration);
            for t in &timing.node_done {
                prop_assert!(*t >= 0.0 && *t <= timing.duration + 1e-12);
            }
        }

        /// Self-messages and out-of-range endpoints are ignored, never panic.
        #[test]
        fn degenerate_messages_ignored(n in 0usize..10, b in 0u64..1000) {
            let comm = ipsc860_comm();
            let t = simulate_phase(
                &cube(2),
                &comm,
                4,
                &[Message { from: n % 5, to: n % 5, bytes: b }],
                None,
            );
            prop_assert_eq!(t.duration, 0.0);
        }
    }
}

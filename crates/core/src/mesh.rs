//! Mesh multi-layer grooming: routing and capacity repair.
//!
//! The mesh workload ([`Instance::Mesh`](crate::solve::Instance::Mesh))
//! generalizes the ring model to an arbitrary physical topology. It is a
//! two-layer problem:
//!
//! * **layer 0 — routing**: each demand picks a loopless path over the
//!   [`Topology`] from its Yen candidate set ([`route_demands`]), which
//!   the solve context's workspace remembers per topology in a
//!   [`RouteTable`];
//! * **layer 1 — grooming**: routed demands are `k`-edge-partitioned into
//!   wavelength circles by the existing partition solvers (each part is a
//!   generalized UPSR circle spanning the union of its members' routes),
//!   then a capacity-repair pass (the crate-private `enforce_caps`)
//!   resolves violations of
//!   the per-node hardware limits by blocking demands.
//!
//! On a ring topology with unlimited capacities both layers collapse: the
//! only routes are the ring arcs, repair is a no-op, and the partition
//! problem is *identical* to the UPSR workload — the equivalence the solve
//! layer pins with a byte-identity test.
//!
//! # Determinism
//!
//! Everything here is a pure function of its inputs. Routing consumes no
//! RNG (the solver's stream is untouched until the partition stage, which
//! is exactly where the UPSR path starts drawing), candidate selection is
//! least-bottleneck-load with ties resolved by the (length, lex-path)
//! candidate order, and the repair pass picks victims by fixed
//! (overflow, node-id, fewest-members, highest-part) rules. Mesh
//! transcripts are therefore worker-count invariant for free.
//!
//! # Capacity accounting
//!
//! Per wavelength part `i`, `T_i` is the set of nodes where a member
//! demand terminates and `S_i` the set of non-terminal nodes some member
//! route passes through. A node `v` spends one add/drop port per part with
//! `v ∈ T_i` (this sums to exactly the plan's SADM cost) and one unit of
//! switching capacity per part with `v ∈ S_i`. Repair blocks demands —
//! gracefully, they are reported in the plan, not errored — until both
//! `ports_used(v) ≤ add_drop_ports(v)` and `switch_used(v) ≤
//! switch_capacity(v)` hold everywhere; the partition is renormalized
//! after each blocking round through [`crate::improve::warm_repair`]'s
//! dirty-frontier machinery with a zero rearrangement budget, so repair
//! never *moves* surviving demands (a move could re-violate a cap it
//! just fixed).

use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::topology::{RoutePath, RouteTable, Topology};
use grooming_sonet::demand::{DemandPair, DemandSet};

use crate::partition::EdgePartition;
use crate::solve::SolveError;

/// The routing layer's output: one chosen path per demand, in demand
/// order.
#[derive(Clone, Debug)]
pub struct RoutedDemands {
    /// The chosen route per demand (`routes[i]` serves
    /// `demands.pairs()[i]`).
    pub routes: Vec<RoutePath>,
    /// Total Yen candidates considered across all demands, whether the
    /// route table held them or not.
    pub routes_evaluated: u64,
    /// Demands whose candidates the route table already held.
    pub route_table_hits: u64,
    /// The bottleneck: the highest number of chosen routes crossing any
    /// single fiber link.
    pub max_link_load: u32,
}

/// Routes every demand over the topology: up to `route_limit` Yen
/// candidates per demand, choosing the one that minimizes the bottleneck
/// link load it would create (ties resolve to the earliest candidate,
/// i.e. the (length, lex-path) order).
///
/// Candidates come from `table`, which computes the ones it does not hold
/// yet (see [`RouteTable`]); the routes chosen never depend on what it
/// held.
///
/// Errors with [`SolveError::Capacity`] on a demand with *no* route at
/// all (endpoints disconnected in the topology) — structural
/// unroutability is an input error, unlike capacity blocking which is a
/// graceful outcome.
///
/// Do not call this directly to build plans — go through
/// [`crate::solve::Instance::Mesh`] so the stats, repair, and assembly
/// stages all run (CI rejects `route_` calls outside the solve path).
///
/// # Panics
/// Panics if the demand set and topology disagree on the node count
/// (wire-facing callers validate first; see the service's mesh parser).
pub fn route_demands(
    topology: &Topology,
    demands: &DemandSet,
    route_limit: usize,
    table: &mut RouteTable,
) -> Result<RoutedDemands, SolveError> {
    assert_eq!(
        demands.num_nodes(),
        topology.num_nodes(),
        "demand set and topology must agree on the node count"
    );
    let mut table = table.bind(topology, route_limit.max(1));
    let mut load = vec![0u32; topology.num_links()];
    let mut routes = Vec::with_capacity(demands.len());
    let mut routes_evaluated = 0u64;
    let mut route_table_hits = 0u64;
    let mut max_link_load = 0u32;
    for &p in demands.pairs() {
        let (candidates, hit) = table.candidates(p.lo(), p.hi());
        routes_evaluated += candidates.len() as u64;
        route_table_hits += u64::from(hit);
        let mut best: Option<(&[EdgeId], u32)> = None;
        for links in candidates {
            let bottleneck = links
                .iter()
                .map(|&e| load[e.index()] + 1)
                .max()
                .unwrap_or(0);
            if best.is_none_or(|(_, b)| bottleneck < b) {
                best = Some((links, bottleneck));
            }
        }
        let Some((chosen, _)) = best else {
            return Err(SolveError::Capacity { pair: p });
        };
        for &e in chosen {
            load[e.index()] += 1;
            max_link_load = max_link_load.max(load[e.index()]);
        }
        routes.push(topology.route_along(p.lo(), chosen));
    }
    Ok(RoutedDemands {
        routes,
        routes_evaluated,
        route_table_hits,
        max_link_load,
    })
}

/// What capacity repair did to a routed, partitioned demand set.
#[derive(Clone, Debug)]
pub(crate) struct CapacityOutcome {
    /// The demands that survived (edge `i` of its traffic graph is
    /// `carried.pairs()[i]`).
    pub carried: DemandSet,
    /// The surviving routes, re-indexed to match `carried`.
    pub routes: Vec<RoutePath>,
    /// The repaired partition over `carried`'s traffic graph.
    pub partition: EdgePartition,
    /// Demands blocked to satisfy node capacities, in blocking order.
    pub blocked: Vec<DemandPair>,
    /// Parts the renormalization rounds touched.
    pub parts_repaired: u64,
    /// Occupancy churn spent (always 0: repair runs with a zero
    /// rearrangement budget).
    pub sadms_moved: u64,
    /// Swap candidates the renormalization evaluated.
    pub swaps_evaluated: u64,
}

/// `true` if `v` is an intermediate (non-endpoint) node of `route`.
fn passes_through(route: &RoutePath, v: NodeId) -> bool {
    route.nodes.len() > 2 && route.nodes[1..route.nodes.len() - 1].contains(&v)
}

/// Per-node usage of the current grooming: `(ports, switch)` counts as
/// defined in the module docs.
fn accumulate_usage(
    parts: &[Vec<EdgeId>],
    carried: &DemandSet,
    routes: &[RoutePath],
    n: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut ports = vec![0u32; n];
    let mut switch = vec![0u32; n];
    let mut term_stamp = vec![u32::MAX; n];
    let mut transit_stamp = vec![u32::MAX; n];
    for (i, part) in parts.iter().enumerate() {
        let stamp = i as u32;
        for &e in part {
            let p = carried.pairs()[e.index()];
            for v in [p.lo(), p.hi()] {
                if term_stamp[v.index()] != stamp {
                    term_stamp[v.index()] = stamp;
                    ports[v.index()] += 1;
                }
            }
        }
        for &e in part {
            let r = &routes[e.index()];
            for v in &r.nodes[1..r.nodes.len().saturating_sub(1).max(1)] {
                let vi = v.index();
                if term_stamp[vi] != stamp && transit_stamp[vi] != stamp {
                    transit_stamp[vi] = stamp;
                    switch[vi] += 1;
                }
            }
        }
    }
    (ports, switch)
}

/// The capacity-repair pass: blocks demands until every node satisfies
/// its [`grooming_graph::topology::NodeCaps`], renormalizing the
/// partition after each blocking round via [`crate::improve::warm_repair`]
/// with a zero rearrangement budget (remap only — surviving demands never
/// move, so a fixed violation stays fixed and the loop strictly
/// decreases total overflow).
///
/// On an uncapacitated topology this returns the input partition
/// untouched — the byte-identity bridge to the UPSR workload.
pub(crate) fn enforce_caps(
    topology: &Topology,
    demands: &DemandSet,
    routes: Vec<RoutePath>,
    partition: EdgePartition,
    k: usize,
) -> CapacityOutcome {
    let mut outcome = CapacityOutcome {
        carried: demands.clone(),
        routes,
        partition,
        blocked: Vec::new(),
        parts_repaired: 0,
        sadms_moved: 0,
        swaps_evaluated: 0,
    };
    if topology.is_uncapacitated() {
        return outcome;
    }
    let n = topology.num_nodes();
    loop {
        let parts = outcome.partition.parts();
        let (ports, switch) = accumulate_usage(parts, &outcome.carried, &outcome.routes, n);

        // The worst violation: highest overflow, ports before switch,
        // smallest node id.
        let mut worst: Option<(u32, bool, NodeId)> = None;
        for v in 0..n {
            let caps = topology.caps(NodeId(v as u32));
            for (overflow, is_switch) in [
                (ports[v].saturating_sub(caps.add_drop_ports), false),
                (switch[v].saturating_sub(caps.switch_capacity), true),
            ] {
                if overflow > 0
                    && worst.is_none_or(|(wo, ws, _)| {
                        overflow > wo || (overflow == wo && ws && !is_switch)
                    })
                {
                    worst = Some((overflow, is_switch, NodeId(v as u32)));
                }
            }
        }
        let Some((_, is_switch, v)) = worst else {
            break;
        };

        // The victim part: the one spending this resource at `v` on the
        // fewest demands (cheapest to evict), highest part index on ties.
        let uses = |e: EdgeId| -> bool {
            if is_switch {
                passes_through(&outcome.routes[e.index()], v)
            } else {
                outcome.carried.pairs()[e.index()].touches(v)
            }
        };
        let mut victim: Option<(usize, usize)> = None; // (cost, part)
        for (i, part) in parts.iter().enumerate() {
            if is_switch
                && part
                    .iter()
                    .any(|&e| outcome.carried.pairs()[e.index()].touches(v))
            {
                // `v` terminates for this part: it spends a port, not
                // switch capacity.
                continue;
            }
            let cost = part.iter().filter(|&&e| uses(e)).count();
            if cost > 0 && victim.is_none_or(|(bc, _)| cost <= bc) {
                victim = Some((cost, i));
            }
        }
        let (_, vi) = victim.expect("an over-capacity node must have a using part");

        // Block the victim's demands at `v` and renormalize.
        let mut dropped = vec![false; outcome.carried.len()];
        for &e in &parts[vi] {
            if uses(e) {
                dropped[e.index()] = true;
                outcome.blocked.push(outcome.carried.pairs()[e.index()]);
            }
        }
        let mut old_to_new = vec![u32::MAX; outcome.carried.len()];
        let mut carried = DemandSet::new(n);
        let mut routes = Vec::with_capacity(outcome.routes.len());
        let survivors = std::mem::take(&mut outcome.routes).into_iter();
        for (i, (&p, route)) in outcome.carried.pairs().iter().zip(survivors).enumerate() {
            if dropped[i] {
                continue;
            }
            old_to_new[i] = carried.len() as u32;
            carried.add(p.lo(), p.hi());
            routes.push(route);
        }
        let mut seed_parts: Vec<Vec<EdgeId>> = Vec::with_capacity(parts.len());
        let mut vacated: Vec<usize> = Vec::new();
        for part in parts {
            let mapped: Vec<EdgeId> = part
                .iter()
                .filter_map(|&e| {
                    let ni = old_to_new[e.index()];
                    (ni != u32::MAX).then_some(EdgeId(ni))
                })
                .collect();
            if mapped.len() < part.len() {
                vacated.push(seed_parts.len());
            }
            seed_parts.push(mapped);
        }
        let g = carried.to_traffic_graph();
        let (repaired, report) =
            crate::improve::warm_repair(&g, k, &seed_parts, &vacated, &[], Some(0), 1);
        outcome.parts_repaired += report.parts_repaired;
        outcome.sadms_moved += report.sadms_moved;
        outcome.swaps_evaluated += report.swaps_evaluated;
        outcome.carried = carried;
        outcome.routes = routes;
        outcome.partition = repaired;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use grooming_graph::graph::Graph;
    use grooming_graph::topology::NodeCaps;

    fn pair(a: u32, b: u32) -> DemandPair {
        DemandPair::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn routing_spreads_load_over_equal_length_alternatives() {
        // Two node-disjoint 2-hop routes between 0 and 3 (via 1 and via
        // 2). Three identical demands: least-bottleneck-load must
        // alternate instead of piling onto the lex-first route.
        let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let topo = Topology::uniform(g);
        let mut demands = DemandSet::new(4);
        for _ in 0..3 {
            demands.add(NodeId(0), NodeId(3));
        }
        let routed = route_demands(&topo, &demands, 4, &mut RouteTable::default()).unwrap();
        assert_eq!(routed.routes_evaluated, 6, "two candidates per demand");
        assert_eq!(
            routed.routes[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        assert_eq!(
            routed.routes[1].nodes,
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            routed.routes[2].nodes,
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        assert_eq!(routed.max_link_load, 2);
    }

    #[test]
    fn unroutable_demand_is_a_capacity_error() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        let topo = Topology::uniform(g);
        let mut demands = DemandSet::new(4);
        demands.add(NodeId(0), NodeId(3));
        let err = route_demands(&topo, &demands, 2, &mut RouteTable::default()).unwrap_err();
        assert_eq!(err, SolveError::Capacity { pair: pair(0, 3) });
    }

    #[test]
    fn route_limit_zero_still_routes_shortest() {
        let topo = Topology::ring(5);
        let mut demands = DemandSet::new(5);
        demands.add(NodeId(0), NodeId(2));
        let routed = route_demands(&topo, &demands, 0, &mut RouteTable::default()).unwrap();
        assert_eq!(routed.routes[0].length, 2);
    }

    #[test]
    fn uncapacitated_repair_is_identity() {
        let topo = Topology::ring(8);
        let mut demands = DemandSet::new(8);
        for (a, b) in [(0, 4), (1, 5), (2, 6)] {
            demands.add(NodeId(a), NodeId(b));
        }
        let routed = route_demands(&topo, &demands, 2, &mut RouteTable::default()).unwrap();
        let partition = EdgePartition::new(vec![vec![EdgeId(0), EdgeId(1), EdgeId(2)]]);
        let out = enforce_caps(&topo, &demands, routed.routes, partition.clone(), 3);
        assert_eq!(out.partition.parts(), partition.parts());
        assert!(out.blocked.is_empty());
        assert_eq!(out.carried.pairs(), demands.pairs());
        assert_eq!(out.parts_repaired, 0);
    }

    #[test]
    fn port_cap_blocks_cheapest_part_at_the_hot_node() {
        // Node 0 terminates demands in two parts but has one add/drop
        // port. The part spending it on fewer demands (part 1) must lose
        // its 0-demand; everything else survives.
        let topo = {
            let g = generators::cycle(6);
            let mut caps = vec![NodeCaps::UNLIMITED; 6];
            caps[0] = NodeCaps::new(1, u32::MAX);
            Topology::new(g, vec![1; 6], caps)
        };
        let mut demands = DemandSet::new(6);
        demands.add(NodeId(0), NodeId(1)); // e0, part 0
        demands.add(NodeId(0), NodeId(2)); // e1, part 0
        demands.add(NodeId(0), NodeId(3)); // e2, part 1 (1 demand at node 0)
        demands.add(NodeId(1), NodeId(2)); // e3, part 1
        let routed = route_demands(&topo, &demands, 2, &mut RouteTable::default()).unwrap();
        let partition =
            EdgePartition::new(vec![vec![EdgeId(0), EdgeId(1)], vec![EdgeId(2), EdgeId(3)]]);
        let out = enforce_caps(&topo, &demands, routed.routes, partition, 2);
        assert_eq!(out.blocked, vec![pair(0, 3)]);
        assert_eq!(out.carried.pairs(), &[pair(0, 1), pair(0, 2), pair(1, 2)]);
        assert_eq!(out.routes.len(), 3);
        // Usage is now within caps: node 0 terminates in one part only.
        let (ports, _) = accumulate_usage(out.partition.parts(), &out.carried, &out.routes, 6);
        assert_eq!(ports[0], 1);
        assert_eq!(out.sadms_moved, 0, "zero-budget repair never moves");
    }

    #[test]
    fn switch_cap_blocks_transiting_demands() {
        // A path 0-1-2-3: demands (0,2) and (1,3) both transit interior
        // nodes. Forbid switching at node 2 entirely; the (1,3) demand
        // transiting it must be blocked, while (0,2) terminates there and
        // keeps its port.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut caps = vec![NodeCaps::UNLIMITED; 4];
        caps[2] = NodeCaps::new(u32::MAX, 0);
        let topo = Topology::new(g, vec![1; 3], caps);
        let mut demands = DemandSet::new(4);
        demands.add(NodeId(0), NodeId(2));
        demands.add(NodeId(1), NodeId(3));
        let routed = route_demands(&topo, &demands, 2, &mut RouteTable::default()).unwrap();
        let partition = EdgePartition::new(vec![vec![EdgeId(0)], vec![EdgeId(1)]]);
        let out = enforce_caps(&topo, &demands, routed.routes, partition, 2);
        assert_eq!(out.blocked, vec![pair(1, 3)]);
        assert_eq!(out.carried.pairs(), &[pair(0, 2)]);
    }

    #[test]
    fn repair_terminates_under_tight_caps() {
        // Every node capped to one port and zero switching on a dense
        // demand set: repair must converge to a cap-respecting grooming
        // without panicking, blocking whatever it takes.
        let g = generators::cycle(6);
        let caps = vec![NodeCaps::new(1, 0); 6];
        let topo = Topology::new(g, vec![1; 6], caps);
        let mut demands = DemandSet::new(6);
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                demands.add(NodeId(a), NodeId(b));
            }
        }
        let routed = route_demands(&topo, &demands, 3, &mut RouteTable::default()).unwrap();
        let parts: Vec<Vec<EdgeId>> = (0..demands.len()).map(|i| vec![EdgeId::new(i)]).collect();
        let out = enforce_caps(&topo, &demands, routed.routes, EdgePartition::new(parts), 1);
        assert_eq!(out.carried.len() + out.blocked.len(), demands.len());
        let (ports, switch) = accumulate_usage(out.partition.parts(), &out.carried, &out.routes, 6);
        for v in 0..6 {
            assert!(ports[v] <= 1, "node {v} ports {}", ports[v]);
            assert_eq!(switch[v], 0, "node {v} switch {}", switch[v]);
        }
        assert!(!out.carried.pairs().is_empty(), "something must survive");
    }
}

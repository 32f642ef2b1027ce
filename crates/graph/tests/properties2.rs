//! Property tests for the second wave of graph machinery: cliques,
//! bipartite matching, subgraph extraction, and cross-validation of the
//! connectivity algorithms against brute force on tiny instances.

use grooming_graph::bipartite::{bipartition, hopcroft_karp};
use grooming_graph::cliques::{is_clique, maximal_cliques, maximum_clique, CliqueResidual};
use grooming_graph::connectivity::{bridges, edge_connectivity};
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::matching::maximum_matching;
use grooming_graph::subgraph::extract;
use grooming_graph::traversal::{connected_components, is_connected};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_gnm(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n, 0.0f64..=1.0, any::<u64>()).prop_map(|(n, frac, seed)| {
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64) * frac).round() as usize;
        generators::gnm(n, m.min(max_m), &mut StdRng::seed_from_u64(seed))
    })
}

/// The lexicographically greatest maximum clique, read straight off the
/// Bron–Kerbosch enumeration.
fn oracle_maximum_clique(g: &Graph) -> Vec<NodeId> {
    let cs = maximal_cliques(g);
    let size = cs.iter().map(Vec::len).max().unwrap_or(0);
    cs.into_iter()
        .filter(|c| c.len() == size)
        .max()
        .unwrap_or_default()
}

/// Brute-force edge connectivity: delete every edge subset of size up to
/// `cap` (bitmask sweep; tiny graphs only). Returns `None` if no cut of
/// size ≤ `cap` exists.
fn brute_edge_connectivity(g: &Graph, cap: usize) -> Option<u64> {
    if g.num_nodes() < 2 {
        return None;
    }
    if !is_connected(g) {
        return Some(0);
    }
    let m = g.num_edges();
    assert!(m <= 20, "brute force capped at 20 edges");
    let mut best: Option<u64> = None;
    for mask in 1u32..(1 << m) {
        let size = mask.count_ones() as usize;
        if size > cap || best.is_some_and(|b| size as u64 >= b) {
            continue;
        }
        let keep: Vec<EdgeId> = g.edges().filter(|e| mask & (1 << e.index()) == 0).collect();
        let sub = extract(g, &keep);
        if connected_components(&sub.graph).count > connected_components(g).count {
            best = Some(best.map_or(size as u64, |b| b.min(size as u64)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maximal_cliques_cover_every_edge_and_are_maximal(g in arb_gnm(14)) {
        let cs = maximal_cliques(&g);
        for c in &cs {
            prop_assert!(is_clique(&g, c));
            for v in g.nodes() {
                if !c.contains(&v) {
                    prop_assert!(!c.iter().all(|&u| g.has_edge(u, v)));
                }
            }
        }
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            prop_assert!(cs.iter().any(|c| c.contains(&u) && c.contains(&v)));
        }
        // The maximum clique is one of them.
        let max = maximum_clique(&g);
        if g.num_nodes() > 0 {
            prop_assert!(cs.iter().any(|c| c.len() == max.len()));
        }
    }

    #[test]
    fn hopcroft_karp_matches_blossom_on_bipartite_doubles(g in arb_gnm(12)) {
        // Make a bipartite double cover of g: (v,0)-(w,1) for each edge
        // {v,w}. Always bipartite; HK and blossom must agree.
        let n = g.num_nodes();
        let mut cover = Graph::new(2 * n);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            cover.add_edge(NodeId::new(u.index()), NodeId::new(n + v.index()));
            cover.add_edge(NodeId::new(v.index()), NodeId::new(n + u.index()));
        }
        prop_assert!(bipartition(&cover).is_some());
        let hk = hopcroft_karp(&cover).unwrap();
        hk.validate(&cover).unwrap();
        prop_assert_eq!(hk.len(), maximum_matching(&cover).len());
    }

    #[test]
    fn extraction_preserves_structure(g in arb_gnm(16), pick in any::<u64>()) {
        let chosen: Vec<EdgeId> = g
            .edges()
            .filter(|e| (pick >> (e.index() % 64)) & 1 == 1)
            .collect();
        let sub = extract(&g, &chosen);
        prop_assert_eq!(sub.graph.num_edges(), chosen.len());
        for e in sub.graph.edges() {
            prop_assert_eq!(sub.graph.endpoints(e), g.endpoints(sub.to_parent(e)));
        }
    }

    #[test]
    fn stoer_wagner_matches_brute_force_on_tiny_graphs(
        n in 3usize..=6,
        frac in 0.3f64..=1.0,
        seed in any::<u64>(),
    ) {
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64) * frac).round() as usize;
        let g = generators::gnm(n, m.min(max_m), &mut StdRng::seed_from_u64(seed));
        let fast = edge_connectivity(&g);
        if let Some(brute) = brute_edge_connectivity(&g, 4) {
            prop_assert_eq!(fast, brute);
        } else {
            // Brute force only searched cuts up to size 4.
            prop_assert!(fast > 4 || g.num_nodes() < 2);
        }
    }

    #[test]
    fn walecki_decomposes_every_odd_complete_graph(t in 1usize..=10) {
        let n = 2 * t + 1;
        let g = generators::complete(n);
        let cycles = grooming_graph::decompose::walecki_cycles(&g);
        prop_assert_eq!(cycles.len(), t);
        let mut covered = vec![false; g.num_edges()];
        for c in &cycles {
            prop_assert!(c.validate(&g).is_ok());
            prop_assert!(c.is_closed());
            prop_assert_eq!(c.len(), n);
            for &e in c.edges() {
                prop_assert!(!covered[e.index()]);
                covered[e.index()] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|x| x));
    }

    #[test]
    fn one_factorization_covers_every_even_complete_graph(t in 1usize..=10) {
        let n = 2 * t;
        let g = generators::complete(n);
        let rounds = grooming_graph::decompose::one_factorization(&g);
        prop_assert_eq!(rounds.len(), n - 1);
        let mut covered = vec![false; g.num_edges()];
        for round in &rounds {
            prop_assert_eq!(round.len(), n / 2);
            let mut touched = vec![false; n];
            for &e in round {
                let (u, v) = g.endpoints(e);
                prop_assert!(!touched[u.index()] && !touched[v.index()]);
                touched[u.index()] = true;
                touched[v.index()] = true;
                prop_assert!(!covered[e.index()]);
                covered[e.index()] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|x| x));
    }

    #[test]
    fn bridges_are_exactly_the_1cuts(g in arb_gnm(10)) {
        let bs = bridges(&g);
        for e in g.edges() {
            let without: Vec<EdgeId> = g.edges().filter(|&x| x != e).collect();
            let sub = extract(&g, &without);
            let comps_before = connected_components(&g).count;
            let comps_after = connected_components(&sub.graph).count;
            let disconnects = comps_after > comps_before;
            prop_assert_eq!(
                bs.contains(&e),
                disconnects,
                "edge {:?} bridge classification", e
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A peeling run over the residual: each step's branch-and-bound
    /// answer must be the oracle's clique on the surviving edges; the step
    /// then deletes the edges among the clique's first `cap` nodes and
    /// passes the found size on as the next search's bound.
    #[test]
    fn residual_search_peels_the_lex_greatest_maximum_clique(
        n in 0usize..=14,
        shape in 0u8..4,
        frac in 0.0f64..=1.0,
        isolated in 0usize..=3,
        cap in 2usize..=5,
        seed in any::<u64>(),
    ) {
        // Shapes: random G(n, m), K_n, and the edgeless graph; `isolated`
        // extra nodes never touch an edge (n = 0 with none is empty).
        let max_m = n * n.saturating_sub(1) / 2;
        let m = match shape {
            0 | 1 => ((max_m as f64) * frac).round() as usize,
            2 => max_m,
            _ => 0,
        };
        let base = generators::gnm(n, m.min(max_m), &mut StdRng::seed_from_u64(seed));
        let mut g = Graph::new(n + isolated);
        for e in base.edges() {
            let (u, v) = base.endpoints(e);
            g.add_edge(u, v);
        }
        let mut residual = CliqueResidual::from_graph(&g);
        let mut alive = vec![true; g.num_edges()];
        let mut limit = usize::MAX;
        loop {
            let live: Vec<EdgeId> = g.edges().filter(|e| alive[e.index()]).collect();
            let found = residual.maximum_clique(limit);
            prop_assert_eq!(&found, &oracle_maximum_clique(&extract(&g, &live).graph));
            if found.len() < 2 {
                break;
            }
            limit = found.len();
            let chosen = &found[..cap.min(found.len())];
            for (i, &u) in chosen.iter().enumerate() {
                for &v in &chosen[i + 1..] {
                    alive[g.find_edge(u, v).unwrap().index()] = false;
                    residual.remove_edge(u, v);
                }
            }
        }
    }
}

//! A metro mesh planned end to end: route, groom, and hit the wall.
//!
//! A 5×5 grid of offices carries random OC-3 demands. Each demand is
//! routed over up to three shortest paths (least-loaded wins), the routed
//! demands are groomed into OC-48 wavelengths with the paper's algorithm,
//! and the plan is priced against the combinatorial SADM lower bound.
//!
//! The second act gives the four central offices finite add/drop ports and
//! switching capacity — real metro cores are the scarce resource — and
//! raises the offered load until the capacity-repair pass starts blocking
//! demands, printing the blocking curve a network planner would read off.
//!
//! Run with: `cargo run -p grooming --example mesh_metro`

use grooming::algorithm::Algorithm;
use grooming::solve::{Instance, Plan, SolveContext, Solver};
use grooming_graph::generators;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::topology::{NodeCaps, Topology};
use grooming_sonet::demand::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four central offices of the 5×5 grid.
const CORE: [usize; 4] = [6, 8, 16, 18];

fn solve_mesh(topology: &Topology, load: usize, k: usize) -> (Plan, u64) {
    let mut rng = StdRng::seed_from_u64(7 + load as u64);
    let demands = DemandSet::random(topology.num_nodes(), load, &mut rng);
    let mut ctx = SolveContext::seeded(2026);
    let sol = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs)
        .solve(&Instance::mesh(topology.clone(), demands, k, 3), &mut ctx)
        .expect("the grid is connected; every demand has a route");
    (sol.plan, ctx.stats().lower_bound)
}

fn main() {
    let grid = generators::grid(5, 5);
    let n = grid.num_nodes();
    let m = grid.num_edges();
    let k = 16; // OC-3 tributaries on OC-48 wavelengths

    // Act one: an uncapacitated mesh. Routing spreads load over the grid,
    // grooming minimizes SADMs, and the plan is priced against the bound.
    let topology = Topology::uniform(grid.clone());
    let load = 60;
    let (plan, lower_bound) = solve_mesh(&topology, load, k);
    let Plan::Mesh {
        outcome,
        routes,
        blocked,
        max_link_load,
        ..
    } = plan
    else {
        unreachable!("mesh instances yield mesh plans");
    };
    let hops: usize = routes.iter().map(|r| r.num_hops()).sum();
    println!("metro mesh: 5x5 grid ({n} offices, {m} links), {load} demands, k = {k}\n");
    println!(
        "routed: {} demands over {} total hops (mean {:.2}), max link load {max_link_load}",
        routes.len(),
        hops,
        hops as f64 / routes.len() as f64,
    );
    println!(
        "groomed: {} SADMs on {} wavelengths (lower bound {lower_bound}, cost over bound {}), 0 blocked",
        outcome.report.sadm_total,
        outcome.report.wavelengths,
        outcome.report.sadm_total as u64 - lower_bound,
    );
    assert!(blocked.is_empty(), "uncapacitated meshes never block");

    // Act two: the core offices get finite hardware and the offered load
    // climbs. Blocking begins once the repair pass runs out of room.
    let mut caps = vec![NodeCaps::UNLIMITED; n];
    for &c in &CORE {
        caps[c] = NodeCaps::new(3, 4);
    }
    let capacitated = Topology::new(grid, vec![1; m], caps);
    println!("\ncapacitated core (offices {CORE:?}: 3 ports, 4 transits each):\n");
    println!(
        "{:>8} {:>8} {:>10} {:>8} {:>12}",
        "load", "blocked", "rate", "SADMs", "wavelengths"
    );
    for load in [40, 80, 120, 160] {
        let (plan, _) = solve_mesh(&capacitated, load, k);
        let Plan::Mesh {
            outcome, blocked, ..
        } = plan
        else {
            unreachable!("mesh instances yield mesh plans");
        };
        println!(
            "{:>8} {:>8} {:>9.1}% {:>8} {:>12}",
            load,
            blocked.len(),
            100.0 * blocked.len() as f64 / load as f64,
            outcome.report.sadm_total,
            outcome.report.wavelengths,
        );
    }
    println!("\nevery carried demand still fits its caps: the repair pass blocks,");
    println!("it never over-subscribes an office.");
}

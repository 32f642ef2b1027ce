//! Simulation scenarios: topology family, traffic process, and admission
//! limits.
//!
//! A [`Scenario`] is a *complete, self-contained* description of one
//! simulation: the same `(scenario, master_seed)` always produces the
//! same byte-identical event trace (see [`crate::engine::run`]). Offered
//! load is a Poisson process per demand stream — exponential
//! interarrivals and exponential holding times — quantized to integer
//! virtual-clock ticks.

use grooming_graph::generators;
use grooming_graph::topology::Topology;

/// The physical substrate demands arrive on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyFamily {
    /// A UPSR ring on `n` nodes. Admission is limited by the wavelength
    /// budget alone.
    Ring {
        /// Ring size.
        n: usize,
    },
    /// A `side × side` metro grid. Demands are routed on deterministic
    /// shortest paths, and admission additionally enforces a per-link
    /// lightpath capacity along the route.
    Mesh {
        /// Grid side length.
        side: usize,
    },
}

impl TopologyFamily {
    /// The family's display name (stable: used in traces and reports).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyFamily::Ring { .. } => "ring",
            TopologyFamily::Mesh { .. } => "mesh",
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologyFamily::Ring { n } => *n,
            TopologyFamily::Mesh { side } => side * side,
        }
    }

    /// Materializes the physical topology (unit link weights,
    /// uncapacitated nodes — the simulator's admission limits live in
    /// [`Scenario`], not in [`grooming_graph::topology::NodeCaps`]).
    pub fn build(&self) -> Topology {
        match self {
            TopologyFamily::Ring { n } => Topology::ring(*n),
            TopologyFamily::Mesh { side } => Topology::uniform(generators::grid(*side, *side)),
        }
    }
}

/// One complete simulation description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The physical substrate.
    pub family: TopologyFamily,
    /// The grooming factor.
    pub k: usize,
    /// The warm-repair rearrangement budget handed to
    /// [`grooming::solve::SolveConfig::rearrange_budget`].
    pub rearrange_budget: Option<usize>,
    /// Admission limit: an arrival whose repaired plan would need more
    /// wavelengths than this is blocked (the prior plan is kept).
    pub max_wavelengths: usize,
    /// Mesh-only admission limit: lightpaths per physical link. An
    /// arrival whose shortest-path route crosses a saturated link is
    /// blocked before the grooming solve. Ignored on rings.
    pub link_capacity: Option<u32>,
    /// Independent Poisson demand streams.
    pub streams: u64,
    /// Mean interarrival time per stream, in ticks.
    pub mean_interarrival: f64,
    /// Mean holding time, in ticks.
    pub mean_holding: f64,
    /// Arrivals stop at this virtual time; departures drain afterwards.
    pub horizon: u64,
    /// The master seed every stream RNG derives from
    /// ([`crate::rng::stream_seed`]).
    pub master_seed: u64,
}

impl Scenario {
    /// A ring scenario with moderate defaults (override fields directly).
    pub fn ring(n: usize, k: usize) -> Self {
        Scenario {
            family: TopologyFamily::Ring { n },
            k,
            rearrange_budget: Some(8),
            max_wavelengths: n,
            link_capacity: None,
            streams: 4,
            mean_interarrival: 1_000.0,
            mean_holding: 4_000.0,
            horizon: 50_000,
            master_seed: 0xD15C_0E7E,
        }
    }

    /// A mesh scenario on a `side × side` grid with moderate defaults.
    pub fn mesh(side: usize, k: usize) -> Self {
        let n = side * side;
        Scenario {
            family: TopologyFamily::Mesh { side },
            k,
            rearrange_budget: Some(8),
            max_wavelengths: n,
            link_capacity: Some(24),
            streams: 4,
            mean_interarrival: 1_000.0,
            mean_holding: 4_000.0,
            horizon: 50_000,
            master_seed: 0xD15C_0E7E,
        }
    }

    /// The analytic offered load in Erlangs: `streams · holding /
    /// interarrival` (each stream offers `holding/interarrival` Erlangs).
    pub fn offered_erlangs(&self) -> f64 {
        self.streams as f64 * self.mean_holding / self.mean_interarrival
    }

    /// Rescales the per-stream arrival rate so the scenario offers
    /// `erlangs` in aggregate (holding time and stream count are kept;
    /// the interarrival mean absorbs the change).
    pub fn with_offered_erlangs(mut self, erlangs: f64) -> Self {
        assert!(erlangs > 0.0, "offered load must be positive");
        self.mean_interarrival = self.streams as f64 * self.mean_holding / erlangs;
        self
    }

    /// The canonical stream identity list (`0..streams`). Tests permute
    /// this and hand it to [`crate::engine::run_with_streams`] to assert
    /// registration-order invariance.
    pub fn stream_ids(&self) -> Vec<u64> {
        (0..self.streams).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_erlangs_round_trips_through_rescale() {
        let s = Scenario::ring(8, 4).with_offered_erlangs(12.5);
        assert!((s.offered_erlangs() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn families_build_their_topologies() {
        let ring = TopologyFamily::Ring { n: 6 }.build();
        assert_eq!(ring.num_nodes(), 6);
        assert_eq!(ring.num_links(), 6);
        let mesh = TopologyFamily::Mesh { side: 3 }.build();
        assert_eq!(mesh.num_nodes(), 9);
        assert_eq!(mesh.num_links(), 12);
    }
}

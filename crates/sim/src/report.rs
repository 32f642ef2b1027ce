//! The simulation's summary statistics.

use std::fmt::Write as _;

/// Aggregate results of one simulation run.
///
/// Every field here is a pure function of `(scenario, master_seed)` — no
/// wall-clock observable leaks in (epoch solve latencies live in
/// [`crate::engine::SimOutcome::latency`], *outside* the report), so
/// [`SimReport::render`] is byte-comparable across runs and event-source
/// registration orders.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Topology family name (`"ring"` / `"mesh"`).
    pub family: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Grooming factor.
    pub k: usize,
    /// The rearrangement budget the epochs ran under.
    pub rearrange_budget: Option<usize>,
    /// Connection requests offered.
    pub offered: u64,
    /// Requests admitted and provisioned.
    pub admitted: u64,
    /// Requests blocked (wavelength budget or link capacity).
    pub blocked: u64,
    /// Requests blocked by the mesh link-capacity check specifically.
    pub blocked_links: u64,
    /// `blocked / offered` (`0` when nothing was offered).
    pub blocking_probability: f64,
    /// Analytic offered load, `streams · holding / interarrival`.
    pub offered_erlangs: f64,
    /// Measured carried load: the time-average number of connections
    /// simultaneously in service.
    pub carried_erlangs: f64,
    /// Warm-start solves performed (admitted arrivals + departures).
    pub epochs: u64,
    /// Total SADM churn the warm repairs spent ([`grooming::solve::SolveStats::sadms_moved`]).
    pub sadms_moved: u64,
    /// Total parts the warm repairs touched.
    pub parts_repaired: u64,
    /// Wavelengths in use when the simulation drained.
    pub final_wavelengths: usize,
    /// SADM cost of the final plan.
    pub final_sadms: usize,
    /// Connections in service when the simulation drained (0 unless the
    /// horizon cut arrivals that outlived every departure — impossible,
    /// so this is a drain sanity check).
    pub final_active: usize,
    /// The most connections simultaneously in service.
    pub peak_active: usize,
    /// Virtual time at the last event.
    pub end_time: u64,
}

impl SimReport {
    /// Renders the report as deterministic text (fixed float precision,
    /// no wall-clock fields) — byte-comparable across runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "groomsim report: family={} n={} k={} budget={}",
            self.family,
            self.nodes,
            self.k,
            match self.rearrange_budget {
                Some(b) => b.to_string(),
                None => "unbounded".to_string(),
            }
        );
        let _ = writeln!(
            out,
            "  offered {} admitted {} blocked {} (links {})  blocking {:.4}",
            self.offered,
            self.admitted,
            self.blocked,
            self.blocked_links,
            self.blocking_probability
        );
        let _ = writeln!(
            out,
            "  erlangs offered {:.3} carried {:.3}",
            self.offered_erlangs, self.carried_erlangs
        );
        let _ = writeln!(
            out,
            "  epochs {}  sadms_moved {}  parts_repaired {}",
            self.epochs, self.sadms_moved, self.parts_repaired
        );
        let _ = writeln!(
            out,
            "  final: W={} sadms={} active={} (peak {})  end_time={}",
            self.final_wavelengths,
            self.final_sadms,
            self.final_active,
            self.peak_active,
            self.end_time
        );
        out
    }

    /// SADM churn per carried Erlang (the headline rearrangement-cost
    /// density; `0` when nothing was carried).
    pub fn churn_per_erlang(&self) -> f64 {
        if self.carried_erlangs > 0.0 {
            self.sadms_moved as f64 / self.carried_erlangs
        } else {
            0.0
        }
    }
}

//! The simulator's determinism contract: the event trace and the final
//! [`SimReport`] are pure functions of `(scenario, master_seed)` —
//! invariant under event-source registration order — plus the
//! zero-duration (arrive-and-instantly-depart) edge case.

use grooming_sim::{run, run_with_streams, AppliedEvent, Scenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A quick scenario: small ring, short horizon, enough churn to matter.
fn quick(master_seed: u64, streams: u64) -> Scenario {
    let mut scenario = Scenario::ring(8, 4);
    scenario.streams = streams;
    scenario.horizon = 6_000;
    scenario.master_seed = master_seed;
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Permuting the event-source registration order and re-running from
    /// the same master seed yields a byte-identical event trace and the
    /// same final report.
    #[test]
    fn registration_order_is_unobservable(
        master_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        streams in 2u64..6,
    ) {
        let scenario = quick(master_seed, streams);
        let canonical = run_with_streams(&scenario, &scenario.stream_ids(), false);

        let mut permuted = scenario.stream_ids();
        permuted.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let shuffled = run_with_streams(&scenario, &permuted, false);

        prop_assert_eq!(&canonical.trace, &shuffled.trace);
        prop_assert_eq!(&canonical.report, &shuffled.report);
        prop_assert_eq!(canonical.report.render(), shuffled.report.render());
        prop_assert_eq!(&canonical.applied, &shuffled.applied);
    }
}

/// Zero-duration connections: with a zero mean holding time every draw
/// quantizes to zero ticks, so each admitted arrival departs in the same
/// instant it arrived — the departure must sort immediately after its own
/// arrival, the active count must return to zero between instants, and
/// nothing may block (the plan never accumulates).
#[test]
fn zero_duration_connections_arrive_and_instantly_depart() {
    let mut scenario = Scenario::ring(8, 4);
    scenario.mean_holding = 0.0;
    scenario.horizon = 4_000;
    let out = run(&scenario);
    let r = &out.report;
    assert!(r.offered > 0, "the horizon must admit some arrivals");
    assert_eq!(
        r.blocked, 0,
        "instant departures can never exhaust capacity"
    );
    assert_eq!(r.admitted, r.offered);
    assert_eq!(r.epochs, 2 * r.admitted);
    assert_eq!(r.final_active, 0);
    assert_eq!(r.final_wavelengths, 0);
    assert_eq!(r.peak_active, 1, "at most one connection lives per instant");
    assert!((r.carried_erlangs - 0.0).abs() < 1e-12);

    // Each arrival is immediately followed by its own departure.
    let mut pending: Option<AppliedEvent> = None;
    for ev in &out.applied {
        match (pending.take(), ev) {
            (
                None,
                AppliedEvent::Admitted {
                    time,
                    pair,
                    holding,
                },
            ) => {
                assert_eq!(*holding, 0);
                pending = Some(AppliedEvent::Departed {
                    time: *time,
                    pair: *pair,
                });
            }
            (Some(expected), got @ AppliedEvent::Departed { .. }) => {
                assert_eq!(*got, expected, "departure must trail its own arrival");
            }
            (p, e) => panic!("unexpected event order: pending {p:?}, got {e:?}"),
        }
    }
    assert!(pending.is_none(), "a zero-duration arrival never lingers");
}

/// Duplicate stream ids are a caller bug, not a silent seed collision.
#[test]
#[should_panic(expected = "duplicate stream id")]
fn duplicate_stream_ids_panic() {
    let scenario = quick(1, 2);
    let _ = run_with_streams(&scenario, &[0, 0], false);
}

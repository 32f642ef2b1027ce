//! The TCP soak driver: replay a recorded epoch sequence against a live
//! groomd and assert the wire transcript is byte-identical to the
//! in-process run.
//!
//! The in-process engine ([`crate::engine::run_recording`]) captures the
//! exact [`Instance::Reconfigure`] sequence it solved. This module
//! replays that sequence two ways and compares bytes:
//!
//! * [`expected_transcript`] — through an in-process
//!   [`grooming_service::Service`] via
//!   [`grooming_service::Client::solve_transcript`], the canonical
//!   response formatter;
//! * [`replay_tcp`] — over a real socket to a running groomd, one request
//!   per epoch, alternating the `RECONFIGURE` and `BATCH` wire verbs
//!   (both admit reconfigure stanzas and answer identically).
//!
//! Byte equality closes the loop: the server's line reading, parsing,
//! queueing and response formatting reproduced the in-process solve
//! exactly, for every epoch of a stochastic trace, including epochs whose
//! item fails (an `ERROR` line inside the `RESULT` block). Both sides must
//! run a service with the same [`ServiceConfig`] (the content-derived item
//! seed makes worker count irrelevant, but the master seed must match).

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use grooming::solve::Instance;
use grooming_service::protocol::{format_batch_request, format_reconfigure_request, read_reply};
use grooming_service::{Client, Request, RequestOptions, Service, ServiceConfig};

/// What one soak replay produced.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Epochs replayed (one wire request each).
    pub epochs: usize,
    /// Total response bytes collected.
    pub transcript_bytes: usize,
}

/// The canonical transcript for `epochs`: each instance solved as its own
/// single-item request (id = epoch index) through an in-process service,
/// responses concatenated.
pub fn expected_transcript(epochs: &[Instance], config: ServiceConfig) -> String {
    let service = Service::start(config);
    let mut client = Client::new(&service);
    let mut transcript = String::new();
    for (i, instance) in epochs.iter().enumerate() {
        let t = client
            .solve_transcript(
                vec![instance.clone()],
                RequestOptions::default().with_id(i as u64),
            )
            .expect("the soak service admits every single-item epoch");
        transcript.push_str(&t);
    }
    service.shutdown();
    transcript
}

/// Replays `epochs` against the groomd at `addr` and returns the
/// concatenated response transcript (no comparison — see
/// [`assert_soak_matches`]).
///
/// Requests alternate between the `RECONFIGURE` verb (even epochs) and
/// plain `BATCH` (odd epochs); responses are verb-independent.
pub fn replay_tcp<A: ToSocketAddrs>(addr: A, epochs: &[Instance]) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut transcript = String::new();
    for (i, instance) in epochs.iter().enumerate() {
        let request = Request::batch(i as u64, vec![instance.clone()]);
        let wire = if i % 2 == 0 {
            format_reconfigure_request(&request)
        } else {
            format_batch_request(&request)
        }
        .expect("recorded epochs are always wire-expressible");
        writer.write_all(wire.as_bytes())?;
        transcript.push_str(&read_reply(&mut reader)?);
    }
    Ok(transcript)
}

/// Replays `epochs` against `addr` and asserts the transcript is
/// byte-identical to [`expected_transcript`] under `config`.
///
/// # Panics
/// Panics on a transcript mismatch — the soak contract is broken.
pub fn assert_soak_matches<A: ToSocketAddrs>(
    addr: A,
    epochs: &[Instance],
    config: ServiceConfig,
) -> std::io::Result<SoakReport> {
    let expected = expected_transcript(epochs, config);
    let actual = replay_tcp(addr, epochs)?;
    assert_eq!(
        actual, expected,
        "TCP soak transcript diverged from the in-process run"
    );
    Ok(SoakReport {
        epochs: epochs.len(),
        transcript_bytes: actual.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_recording;
    use crate::scenario::Scenario;
    use grooming::partition::EdgePartition;
    use grooming_service::tcp;
    use std::net::TcpListener;

    fn soak_config() -> ServiceConfig {
        // `ServiceConfig` is non_exhaustive: built by mutating the default.
        #[allow(clippy::field_reassign_with_default)]
        {
            let mut config = ServiceConfig::default();
            config.workers = 2;
            config.master_seed = 7;
            config
        }
    }

    #[test]
    fn tcp_soak_matches_in_process_transcript() {
        let mut scenario = Scenario::ring(6, 3);
        scenario.horizon = 8_000;
        let out = run_recording(&scenario);
        assert!(out.epochs.len() >= 4, "soak needs a few epochs to bite");

        let service = Service::start(soak_config());
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let server = tcp::serve(listener, &service).expect("tcp serve on loopback");

        let report =
            assert_soak_matches(addr, &out.epochs, soak_config()).expect("soak replay completes");
        assert_eq!(report.epochs, out.epochs.len());
        assert!(report.transcript_bytes > 0);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// Drops the first edge of `epoch`'s prior plan, so the solver refuses
    /// the plan and the reply carries an `ERROR` line.
    fn with_an_uncovered_prior_edge(epoch: &Instance) -> Instance {
        let Instance::Reconfigure {
            demands,
            prior,
            delta,
            k,
        } = epoch
        else {
            panic!("groomsim records reconfigure epochs only");
        };
        let mut parts = prior.parts().to_vec();
        let part = parts
            .iter_mut()
            .find(|part| !part.is_empty())
            .expect("the epoch's prior plan carries an edge");
        part.remove(0);
        Instance::reconfigure(
            demands.clone(),
            EdgePartition::new(parts),
            delta.clone(),
            *k,
        )
    }

    /// A failed item's reply still runs through its `END`: the replay must
    /// not stop at the `ERROR` line, or the last epoch loses its `END` and
    /// every epoch after a failed one reads the reply before its own.
    #[test]
    fn tcp_soak_matches_when_epochs_fail() {
        let mut scenario = Scenario::ring(6, 3);
        scenario.horizon = 8_000;
        let mut epochs = run_recording(&scenario).epochs;
        assert!(epochs.len() >= 4, "soak needs a few epochs to bite");
        let (middle, last) = (epochs.len() / 2, epochs.len() - 1);
        for i in [middle, last] {
            epochs[i] = with_an_uncovered_prior_edge(&epochs[i]);
        }

        let service = Service::start(soak_config());
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let server = tcp::serve(listener, &service).expect("tcp serve on loopback");

        let transcript = replay_tcp(addr, &epochs).expect("soak replay completes");
        assert_eq!(transcript.matches("\nERROR 0 ").count(), 2);
        assert!(transcript.ends_with("END\n"));
        assert_soak_matches(addr, &epochs, soak_config()).expect("soak replay completes");

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }
}

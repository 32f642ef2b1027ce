//! CI smoke for groomd's TCP path: serve a canned batch on an ephemeral
//! loopback port at two worker counts and assert the response transcripts
//! are byte-identical (printed as an FNV-1a digest). Exercises, over a
//! real socket: PING, a mixed BATCH (upsr, ring, weighted, and a mesh
//! item with its `topology v1` stanza), STATS, SHUTDOWN, and the drain.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use grooming_service::cache::{fnv1a64, FNV1A64_BASIS};
use grooming_service::protocol::read_reply;
use grooming_service::{tcp, Service, ServiceConfig};

/// A mixed-kind batch in the wire grammar — the canned workload.
const CANNED_BATCH: &str = "\
BATCH id=100 count=4
ITEM upsr k=4
demands v1 8 12
0 1
0 3
1 2
1 5
2 3
2 6
3 4
4 5
4 7
5 6
6 7
0 7
ITEM ring k=3
demands v1 7 8
0 2
0 4
1 3
1 5
2 6
3 5
4 6
2 5
ITEM weighted k=4
demands v1 6 4
0 3 3
1 4 2
2 5 1
0 2
ITEM mesh k=4 routes=2
topology v1 6 7
* *
* *
3 8
* *
* *
* *
0 1
1 2
2 3
3 4
4 5
0 5
1 4 2
demands v1 6 5
0 2
1 3
2 5
0 4
3 5
END
";

/// One full client session over TCP; returns the batch transcript.
fn run_once(workers: usize) -> String {
    // `ServiceConfig` is non_exhaustive, so from this bin crate it can only
    // be built by mutating the default.
    #[allow(clippy::field_reassign_with_default)]
    let config = {
        let mut config = ServiceConfig::default();
        config.workers = workers;
        config.master_seed = 2006;
        config
    };
    let service = Service::start(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let server = tcp::serve(listener, &service).expect("start server");

    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let mut roundtrip = |request: &[u8]| {
        writer.write_all(request).unwrap();
        read_reply(&mut reader).expect("read a reply from groomd")
    };
    assert_eq!(roundtrip(b"PING\n"), "PONG\n");
    let transcript = roundtrip(CANNED_BATCH.as_bytes());
    let stats = roundtrip(b"STATS\n");
    assert!(
        stats.starts_with("STATS accepted_requests=1 accepted_items=4 "),
        "unexpected stats line: {stats:?}"
    );

    assert_eq!(roundtrip(b"SHUTDOWN\n"), "BYE\n");
    server.join();
    let snapshot = service.shutdown();
    assert_eq!(snapshot.counters.completed_items, 4, "drain lost items");
    assert_eq!(snapshot.queue_depth, 0);

    transcript
}

fn main() {
    let first = run_once(1);
    assert!(
        first.starts_with("RESULT 100 count=4\nPLAN 0 sadms="),
        "unexpected transcript: {first:?}"
    );
    assert!(
        !first.contains("ERROR"),
        "canned batch must solve: {first:?}"
    );

    let second = run_once(2);
    let digest = fnv1a64(first.as_bytes(), FNV1A64_BASIS);
    assert_eq!(
        digest,
        fnv1a64(second.as_bytes(), FNV1A64_BASIS),
        "transcripts diverged across worker counts:\n--- 1 worker ---\n{first}--- 2 workers ---\n{second}"
    );
    println!(
        "groomd smoke OK: {} transcript bytes, digest 0x{digest:016x} at 1 and 2 workers",
        first.len()
    );
}

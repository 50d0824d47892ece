//! Property-based fuzzing of the wire codec and front-end: arbitrary
//! byte streams, fuzzed headers with truncated payloads, and garbage
//! trailing a valid frame must never panic a connection thread, never
//! hang the peer, and never lose an in-flight query — every outcome is
//! a parseable frame or a clean close.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, SearchMemory};
use hd_serve::net::wire::{self, WireError};
use hd_serve::net::{
    Header, RetryLedger, WireClient, WireConfig, WireServer, FT_ERROR, FT_GOAWAY, FT_HELLO_ACK,
    FT_PING, FT_PONG, FT_RESPONSE, GOAWAY_NONE, HEADER_LEN,
};
use hd_serve::{Searchable, ServeConfig, Server, ShardedSearcher};
use proptest::prelude::*;
use rand::Rng as _;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const DIM: usize = 128;

/// One shared served fixture for every proptest case (leaked: proptest
/// cases are independent closures, and tearing a server down per case
/// would dominate the suite's runtime).
fn fixture_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let mut rng = seeded(4096);
        let rows: Vec<BitVector> = (0..33)
            .map(|_| BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let classes: Vec<usize> = (0..rows.len()).map(|r| r % 3).collect();
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let sharded = ShardedSearcher::new(memory, classes, 2).unwrap();
        let server = Arc::new(
            Server::start(
                Arc::new(sharded) as Arc<dyn Searchable>,
                ServeConfig {
                    max_batch: 8,
                    max_delay: Duration::from_micros(200),
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
        let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
        std::mem::forget(wire);
        std::mem::forget(server);
        addr
    })
}

/// Reads frames until the server closes the connection, asserting each
/// one parses as a known frame type. Returns the ids of RESPONSE frames,
/// in arrival order. A read that times out means the connection hung
/// (a connection thread stalled or panicked) and fails the test.
fn drain_frames(stream: &mut TcpStream) -> Vec<u64> {
    let mut response_ids = Vec::new();
    loop {
        let header = match wire::read_header(stream) {
            Ok(h) => h,
            Err(WireError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                panic!("connection hung: neither a frame nor a close within the read timeout")
            }
            Err(WireError::Io(_)) => break, // EOF or reset: the server closed
            Err(e) => panic!("server sent an unparseable frame: {e}"),
        };
        match header.frame_type {
            FT_ERROR => {
                wire::read_error_body(stream).unwrap();
            }
            FT_RESPONSE => {
                response_ids.push(wire::read_u64(stream).unwrap());
                let _generation = wire::read_u64(stream).unwrap();
                wire::drain(stream, header.k as u64 * 12).unwrap();
            }
            FT_HELLO_ACK => {
                wire::drain(stream, 16).unwrap();
            }
            // Liveness frames are header-only: nothing further to read.
            FT_PING | FT_PONG | FT_GOAWAY => {}
            other => panic!("server sent unknown frame type {other}"),
        }
    }
    response_ids
}

/// A byte stream that is hostile but *shaped*: either raw bytes, or a
/// syntactically valid header with fuzzed fields and an arbitrary
/// (usually truncated) payload — exercising the validation ladder, the
/// bounded drain, and mid-frame disconnects.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        proptest::collection::vec(0u8..=255, 0..96),
        (
            // Covers QUERY, the liveness frames (PING/PONG/GOAWAY), and
            // unknown future types beyond them.
            0u8..12,
            0u8..=255,
            // GOAWAY_NONE (u64::MAX) is a meaningful sentinel nonce.
            proptest::sample::select(vec![0u64, 1, 2, u64::MAX]),
            0u32..10_000,
            0u32..8,
        ),
        proptest::collection::vec(0u8..=255, 0..128),
    )
        .prop_map(
            |(raw_mode, raw, (frame_type, flags, model_key, count, words_per_query), payload)| {
                if raw_mode {
                    return raw;
                }
                let header = Header {
                    frame_type,
                    flags,
                    k: (count & 0x7) as u16,
                    model_key,
                    count,
                    words_per_query,
                };
                let mut bytes = header.encode().to_vec();
                bytes.extend_from_slice(&payload);
                bytes
            },
        )
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn header_decode_never_panics_and_roundtrips_valid_magic(
        bytes in proptest::collection::vec(0u8..=255, HEADER_LEN..HEADER_LEN + 1)
    ) {
        let buf: [u8; HEADER_LEN] = bytes.try_into().unwrap();
        match Header::decode(&buf) {
            Ok(header) => {
                // Valid magic: decode/encode must be the identity.
                prop_assert_eq!(header.encode(), buf);
            }
            Err(WireError::Protocol(_)) => {} // bad magic
            Err(e) => panic!("unexpected decode error: {e}"),
        }
    }

    #[test]
    fn server_answers_or_closes_on_hostile_streams(bytes in hostile_bytes()) {
        let mut stream = TcpStream::connect(fixture_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A fatal frame early in the stream makes the server close the
        // connection, possibly before the rest is written: a broken pipe
        // or reset on the write, or a not-connected shutdown, means the
        // server closed. What it sent before closing must still parse.
        if let Err(e) = stream.write_all(&bytes) {
            assert!(
                matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset),
                "write failed: {e}"
            );
        }
        if let Err(e) = stream.shutdown(Shutdown::Write) {
            assert_eq!(e.kind(), ErrorKind::NotConnected, "shutdown failed: {e}");
        }
        // Must terminate: every frame parseable, then a close — a read
        // timeout here means a connection thread hung or panicked.
        drain_frames(&mut stream);
    }

    #[test]
    fn garbage_after_a_valid_frame_never_loses_the_query(trailing in hostile_bytes()) {
        let mut rng = seeded(4097);
        let query =
            BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>());
        let mut stream = TcpStream::connect(fixture_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut burst = Vec::new();
        wire::write_query(&mut burst, 1, 7, (DIM / 64) as u32, query.as_words()).unwrap();
        burst.extend_from_slice(&trailing);
        stream.write_all(&burst).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let response_ids = drain_frames(&mut stream);
        // Whatever the trailing bytes decode to, the valid query's
        // answer must come back first.
        prop_assert_eq!(response_ids.first(), Some(&7));
    }

    /// A PING with any nonce (including the GOAWAY_NONE sentinel) and
    /// any flag bits is answered by a PONG echoing the nonce.
    #[test]
    fn ping_with_any_nonce_and_flags_is_ponged(
        nonce_raw in any::<u64>(),
        use_sentinel in any::<bool>(),
        flags in 0u8..=255,
    ) {
        let nonce = if use_sentinel { GOAWAY_NONE } else { nonce_raw };
        let mut stream = TcpStream::connect(fixture_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let header = Header {
            frame_type: FT_PING,
            flags,
            k: 0,
            model_key: nonce,
            count: 0,
            words_per_query: 0,
        };
        stream.write_all(&header.encode()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let pong = wire::read_header(&mut stream).unwrap();
        prop_assert_eq!(pong.frame_type, FT_PONG);
        prop_assert_eq!(pong.model_key, nonce);
    }

    /// Liveness frames that declare an in-bounds payload are rejected
    /// recoverably: the declared bytes are consumed, the connection
    /// survives, and a QUERY sent afterwards is still answered.
    #[test]
    fn liveness_frames_with_payload_are_rejected_recoverably(
        frame_type in proptest::sample::select(vec![FT_PING, FT_PONG, FT_GOAWAY]),
        count in 1u32..4,
        words_per_query in 1u32..4,
        flags in 0u8..=255,
    ) {
        let mut rng = seeded(4099);
        let query =
            BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>());
        let mut stream = TcpStream::connect(fixture_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let header = Header {
            frame_type,
            flags,
            k: 0,
            model_key: 1,
            count,
            words_per_query,
        };
        let mut burst = header.encode().to_vec();
        burst.extend(vec![0xA5u8; (count * words_per_query) as usize * 8]);
        wire::write_query(&mut burst, 1, 9, (DIM / 64) as u32, query.as_words()).unwrap();
        stream.write_all(&burst).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let response_ids = drain_frames(&mut stream);
        prop_assert_eq!(response_ids, vec![9]);
    }

    /// The retry ledger's exactly-once-observable contract, under
    /// arbitrary interleavings of submissions, responses, duplicate
    /// responses, overload rejections, GOAWAYs, and disconnects:
    /// a delivered id is never resubmitted (`record_submission` rejects
    /// it), never delivered twice, and the workload
    /// still completes once a connection behaves.
    #[test]
    fn retry_ledger_is_exactly_once_under_arbitrary_disconnects(
        total in 1usize..24,
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 0..256),
    ) {
        let mut ledger = RetryLedger::new(total);
        let mut next_wire_id = 0u64;
        let mut live: Vec<u64> = Vec::new(); // ids submitted this epoch
        let mut seen = vec![false; total];

        let submit_pending =
            |ledger: &mut RetryLedger, next: &mut u64, live: &mut Vec<u64>| {
                for ext in ledger.pending() {
                    ledger.record_submission(*next, &[ext]).unwrap();
                    live.push(*next);
                    *next += 1;
                }
            };

        for (op, value) in ops {
            match op {
                // (Re)submit everything pending under fresh wire ids.
                0 => submit_pending(&mut ledger, &mut next_wire_id, &mut live),
                // A response for some previously submitted id —
                // possibly one already answered or reverted.
                1 if !live.is_empty() => {
                    let wire_id = live[(value % live.len() as u64) as usize];
                    if let Some(ext) = ledger.record_response(wire_id) {
                        prop_assert!(!seen[ext], "answer for query {ext} delivered twice");
                        seen[ext] = true;
                    }
                    // An exact duplicate must be swallowed.
                    prop_assert_eq!(ledger.record_response(wire_id), None);
                }
                // An overload-style rejection reverts the id.
                2 if !live.is_empty() => {
                    let wire_id = live[(value % live.len() as u64) as usize];
                    ledger.record_unanswered(wire_id);
                }
                // GOAWAY with an arbitrary last-accepted watermark.
                3 => {
                    let last_accepted =
                        if value == u64::MAX { GOAWAY_NONE } else { value % (next_wire_id + 1) };
                    ledger.record_goaway(last_accepted);
                }
                // Disconnect: a new epoch reverts all in-flight ids.
                4 => {
                    ledger.begin_epoch();
                    live.clear();
                }
                _ => {}
            }
        }

        // However hostile the schedule was, a cooperating connection
        // finishes the job: drain to completion.
        ledger.begin_epoch();
        live.clear();
        submit_pending(&mut ledger, &mut next_wire_id, &mut live);
        for wire_id in live {
            if let Some(ext) = ledger.record_response(wire_id) {
                prop_assert!(!seen[ext], "answer for query {ext} delivered twice");
                seen[ext] = true;
            }
        }
        prop_assert!(ledger.is_complete());
        prop_assert_eq!(ledger.delivered_count(), total);
        prop_assert!(seen.iter().all(|&s| s), "every query delivered exactly once");
        prop_assert!(ledger.pending().is_empty());
    }
}

/// After every hostile case above, the fixture must still serve good
/// traffic (runs last only by name luck, so assert it independently).
#[test]
fn fixture_survives_the_fuzz_suite() {
    let mut rng = seeded(4098);
    let query = BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>());
    let mut client = WireClient::connect_tcp(fixture_addr()).unwrap();
    let ids = client.send_queries(std::slice::from_ref(&query), 3).unwrap();
    let (id, hits) = client.recv_response().unwrap();
    assert_eq!(id, ids.start);
    assert_eq!(hits.len(), 3);
}

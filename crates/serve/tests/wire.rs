//! Loopback end-to-end tests for the wire front-end: results over the
//! socket must be bit-identical to in-process submission (including
//! under forced shard degradation), malformed frames must answer typed
//! error frames without losing any in-flight query, and overload must
//! shed whole frames with a typed error.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch, SearchMemory};
use hd_serve::net::wire::{self, ErrorBody};
use hd_serve::net::{
    code, Header, WireClient, WireConfig, WireEvent, WireServer, CONNECTION_ERROR_ID, FT_ERROR,
    FT_GOAWAY, FT_HELLO_ACK, FT_PING, FT_QUERY, FT_RESPONSE, GOAWAY_NONE, HEADER_LEN,
};
use hd_serve::{Prediction, Searchable, ServeConfig, Server, ShardedSearcher, Winner};
use rand::Rng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 128;
const ROWS: usize = 61;

fn random_rows(rows: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..rows)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn random_queries(n: usize, seed: u64) -> Vec<BitVector> {
    random_rows(n, DIM, seed)
}

fn sharded_fixture(seed: u64) -> Arc<ShardedSearcher> {
    let rows = random_rows(ROWS, DIM, seed);
    let classes: Vec<usize> = (0..rows.len()).map(|r| r % 5).collect();
    let memory = SearchMemory::from_rows(&rows).unwrap();
    Arc::new(ShardedSearcher::new(memory, classes, 4).unwrap())
}

/// A served sharded fixture with a TCP listener on an ephemeral port.
fn wire_fixture(seed: u64) -> (Arc<ShardedSearcher>, Arc<Server>, WireServer, SocketAddr) {
    let sharded = sharded_fixture(seed);
    let server = Arc::new(
        Server::start(
            Arc::clone(&sharded) as Arc<dyn Searchable>,
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
    (sharded, server, wire, addr)
}

/// In-process ground truth for one query at one k, via the same server.
fn expected(server: &Server, q: &BitVector, k: usize) -> Vec<Prediction> {
    server.submit_topk(q.as_view(), k).unwrap().wait().unwrap()
}

/// Drives `n` queries through `client` (first `split` at k=1, rest at
/// k=3) and asserts every response is bit-identical to in-process
/// submission and arrives in submission order.
fn roundtrip_and_compare(client: &mut WireClient, server: &Server, queries: &[BitVector]) {
    let split = queries.len() / 2;
    let base = client.send_queries(&queries[..split], 1).unwrap().start;
    client.send_queries(&queries[split..], 3).unwrap();
    let mut order = Vec::new();
    let mut got: HashMap<u64, Vec<Prediction>> = HashMap::new();
    for _ in 0..queries.len() {
        match client.recv().unwrap() {
            WireEvent::Response { id, hits } => {
                order.push(id);
                got.insert(id, hits);
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(order.windows(2).all(|w| w[0] < w[1]), "responses arrive in submission order");
    for (i, q) in queries.iter().enumerate() {
        let k = if i < split { 1 } else { 3 };
        let id = base + i as u64;
        assert_eq!(got[&id], expected(server, q, k), "query {i} must be bit-identical");
    }
}

#[test]
fn tcp_loopback_is_bit_identical_to_in_process_submission() {
    let (_sharded, server, wire, addr) = wire_fixture(401);
    let mut client = WireClient::connect_tcp(addr).unwrap();
    assert_eq!(client.dim() as usize, DIM);
    assert_eq!(client.rows() as usize, ROWS);
    let queries = random_queries(20, 402);
    roundtrip_and_compare(&mut client, &server, &queries);

    // The zero-copy path: a BitVector's packed words sent verbatim
    // answer identically to the BitVector itself.
    let ids = client.send_packed_words(queries[0].as_words(), 1).unwrap();
    let (id, hits) = client.recv_response().unwrap();
    assert_eq!(id, ids.start);
    assert_eq!(hits, expected(&server, &queries[0], 1));

    wire.shutdown();
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn uds_loopback_is_bit_identical_and_socket_file_is_cleaned_up() {
    let (_sharded, server, wire, _addr) = wire_fixture(411);
    let path = std::env::temp_dir().join(format!("hd-wire-test-{}.sock", std::process::id()));
    wire.listen_uds(&path).unwrap();
    let mut client = WireClient::connect_uds(&path).unwrap();
    assert_eq!(client.dim() as usize, DIM);
    let queries = random_queries(16, 412);
    roundtrip_and_compare(&mut client, &server, &queries);
    wire.shutdown();
    assert!(!path.exists(), "shutdown unlinks the socket file");
    server.shutdown();
}

#[test]
fn degraded_shard_failover_flags_wire_responses_and_stays_exact() {
    let (sharded, server, wire, addr) = wire_fixture(421);
    // Kill shard 0 past its respawn budget: the model serves exactly
    // over the survivors and must say so on the wire.
    sharded.inject_shard_panics(0, 100).unwrap();
    // Drive one classification through to force the failover to settle.
    let warmup = random_queries(1, 422).pop().unwrap();
    while !server.classify(warmup.as_view()).unwrap().degraded {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = WireClient::connect_tcp(addr).unwrap();
    let queries = random_queries(12, 423);
    let ids = client.send_queries(&queries, 2).unwrap();
    for (i, id) in ids.enumerate() {
        let (got_id, hits) = client.recv_response().unwrap();
        assert_eq!(got_id, id);
        assert!(hits.iter().all(|h| h.degraded), "degraded answers must be flagged on the wire");
        assert_eq!(hits, expected(&server, &queries[i], 2), "exact over the surviving rows");
    }
    assert_eq!(sharded.missing_shards(), vec![0]);
    wire.shutdown();
    server.shutdown();
}

/// Raw-protocol helper: connect + HELLO handshake, returning the stream
/// positioned after the HELLO_ACK.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_hello(&mut stream).unwrap();
    let header = wire::read_header(&mut stream).unwrap();
    assert_eq!(header.frame_type, FT_HELLO_ACK);
    wire::drain(&mut stream, 16).unwrap(); // dim, rows, generation
    stream
}

fn read_error_frame(stream: &mut TcpStream) -> ErrorBody {
    let header = wire::read_header(stream).unwrap();
    assert_eq!(header.frame_type, FT_ERROR);
    wire::read_error_body(stream).unwrap()
}

fn read_response_frame(stream: &mut TcpStream) -> (u64, Vec<(u32, u32, u32)>) {
    let header = wire::read_header(stream).unwrap();
    assert_eq!(header.frame_type, FT_RESPONSE);
    let id = wire::read_u64(stream).unwrap();
    let _generation = wire::read_u64(stream).unwrap();
    let hits = (0..header.k)
        .map(|_| {
            (
                wire::read_u32(stream).unwrap(),
                wire::read_u32(stream).unwrap(),
                wire::read_u32(stream).unwrap(),
            )
        })
        .collect();
    (id, hits)
}

fn assert_eof(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap(), 0, "connection must be closed");
}

#[test]
fn recoverable_bad_frames_answer_typed_errors_and_keep_the_connection() {
    let (_sharded, server, wire, addr) = wire_fixture(431);
    let mut stream = raw_connect(addr);
    let wpq = (DIM / 64) as u32;
    let query = random_queries(1, 432).pop().unwrap();

    // k = 0: rejected before submission.
    wire::write_query(&mut stream, 0, 10, wpq, query.as_words()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (10, code::BAD_K));

    // Wrong dimensionality: one word short per query.
    let short = vec![0u64; (wpq - 1) as usize];
    wire::write_query(&mut stream, 1, 20, wpq - 1, &short).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (20, code::DIMENSION_MISMATCH));

    // Zero queries declared.
    let mut header = Header::new(FT_QUERY);
    header.k = 1;
    header.count = 0;
    header.words_per_query = wpq;
    stream.write_all(&header.encode()).unwrap();
    stream.write_all(&30u64.to_le_bytes()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (30, code::MALFORMED));

    // Non-default model key.
    let mut header = Header::new(FT_QUERY);
    header.k = 1;
    header.count = 1;
    header.words_per_query = wpq;
    header.model_key = 7;
    stream.write_all(&header.encode()).unwrap();
    stream.write_all(&40u64.to_le_bytes()).unwrap();
    for word in query.as_words() {
        stream.write_all(&word.to_le_bytes()).unwrap();
    }
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (40, code::UNKNOWN_MODEL_KEY));

    // Unknown-but-header-only frame type (a future extension frame):
    // the stream stays synchronized, so the rejection is recoverable.
    stream.write_all(&Header::new(99).encode()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_FRAME_TYPE));

    // After all of that, a good frame still answers on this connection.
    wire::write_query(&mut stream, 1, 50, wpq, query.as_words()).unwrap();
    let (id, hits) = read_response_frame(&mut stream);
    assert_eq!(id, 50);
    let want = expected(&server, &query, 1)[0];
    assert_eq!(hits, vec![(want.row as u32, want.class as u32, want.score)]);

    drop(stream);
    wire.shutdown();
    server.shutdown();
}

#[test]
fn fatal_bad_frames_answer_a_final_error_and_close() {
    let (_sharded, server, wire, addr) = wire_fixture(441);

    // Garbage magic.
    let mut stream = raw_connect(addr);
    stream.write_all(&[0xabu8; HEADER_LEN]).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_MAGIC));
    assert_eof(&mut stream);

    // Unknown frame type declaring a payload: the stream position past
    // it cannot be trusted, so the connection dies.
    let mut stream = raw_connect(addr);
    let mut header = Header::new(99);
    header.count = 1;
    header.words_per_query = 2;
    stream.write_all(&header.encode()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_FRAME_TYPE));
    assert_eof(&mut stream);

    // A frame declaring more queries than the server accepts: the
    // payload cannot be trusted enough to drain, so the connection dies.
    let mut stream = raw_connect(addr);
    let mut header = Header::new(FT_QUERY);
    header.k = 1;
    header.count = WireConfig::default().max_frame_queries + 1;
    header.words_per_query = (DIM / 64) as u32;
    stream.write_all(&header.encode()).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::OVERSIZED_FRAME));
    assert_eof(&mut stream);

    // The server survives all three abuses.
    let query = random_queries(1, 442).pop().unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.send_queries(std::slice::from_ref(&query), 1).unwrap();
    let (_, hits) = client.recv_response().unwrap();
    assert_eq!(hits, expected(&server, &query, 1));

    wire.shutdown();
    server.shutdown();
}

#[test]
fn in_flight_queries_are_answered_before_a_fatal_error_closes() {
    let (_sharded, server, wire, addr) = wire_fixture(451);
    let mut stream = raw_connect(addr);
    let queries = random_queries(4, 452);
    let wpq = (DIM / 64) as u32;
    let words: Vec<u64> = queries.iter().flat_map(|q| q.as_words().to_vec()).collect();
    // One write carrying a good 4-query frame immediately followed by
    // garbage: the four answers must drain before the fatal error frame.
    let mut burst = Vec::new();
    wire::write_query(&mut burst, 1, 0, wpq, &words).unwrap();
    burst.extend_from_slice(&[0u8; HEADER_LEN]);
    stream.write_all(&burst).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let (id, hits) = read_response_frame(&mut stream);
        assert_eq!(id, i as u64, "in-flight answers drain in order before the error");
        let want = expected(&server, q, 1)[0];
        assert_eq!(hits, vec![(want.row as u32, want.class as u32, want.score)]);
    }
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::BAD_MAGIC));
    assert_eof(&mut stream);
    wire.shutdown();
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_is_dropped_cleanly_and_server_keeps_serving() {
    let (_sharded, server, wire, addr) = wire_fixture(461);
    let query = random_queries(1, 462).pop().unwrap();
    let wpq = (DIM / 64) as u32;
    {
        let mut stream = raw_connect(addr);
        // A full good frame, answered...
        wire::write_query(&mut stream, 1, 0, wpq, query.as_words()).unwrap();
        let (id, _) = read_response_frame(&mut stream);
        assert_eq!(id, 0);
        // ...then a frame whose payload never finishes.
        let mut header = Header::new(FT_QUERY);
        header.k = 1;
        header.count = 2;
        header.words_per_query = wpq;
        stream.write_all(&header.encode()).unwrap();
        stream.write_all(&1u64.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 8]).unwrap(); // 1 of 4 payload words
    } // disconnect mid-frame
      // Nothing of the truncated frame was submitted; fresh connections
      // are served as if nothing happened.
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.send_queries(std::slice::from_ref(&query), 1).unwrap();
    let (_, hits) = client.recv_response().unwrap();
    assert_eq!(hits, expected(&server, &query, 1));
    wire.shutdown();
    server.shutdown();
}

/// Wraps a model with a fixed per-flush latency (chaos-test idiom) so
/// the admission gauge stays occupied long enough to overload reliably.
struct SlowModel {
    inner: Arc<dyn Searchable>,
    delay: Duration,
}

impl Searchable for SlowModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> hd_serve::Result<Vec<Winner>> {
        std::thread::sleep(self.delay);
        self.inner.search_winners(batch)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> hd_serve::Result<Vec<Vec<Winner>>> {
        std::thread::sleep(self.delay);
        self.inner.search_topk(batch, k)
    }
}

#[test]
fn overload_sheds_whole_frames_with_a_typed_error_frame() {
    let slow = SlowModel { inner: sharded_fixture(471), delay: Duration::from_millis(150) };
    let server = Arc::new(
        Server::start(
            Arc::new(slow) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 8, max_delay: Duration::from_millis(1), max_in_flight: 8 },
        )
        .unwrap(),
    );
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    let queries = random_queries(12, 472);
    // Frame A (6 queries) occupies the gauge for the model's 150 ms;
    // frame B (6 more) exceeds max_in_flight = 8 and is shed whole.
    client.send_queries(&queries[..6], 1).unwrap();
    std::thread::sleep(Duration::from_millis(20)); // let A reach admission
    let ids_b = client.send_queries(&queries[6..], 1).unwrap();
    // FIFO: frame A's six answers first, then frame B's shed notice
    // carrying the frame's first id.
    for i in 0..6u64 {
        let (id, hits) = client.recv_response().unwrap();
        assert_eq!(id, i);
        assert_eq!(hits.len(), 1);
    }
    match client.recv().unwrap() {
        WireEvent::Error(body) => {
            assert_eq!((body.id, body.code), (ids_b.start, code::OVERLOADED));
        }
        other => panic!("expected an OVERLOADED error frame, got {other:?}"),
    }
    // The connection survives a shed: retry succeeds once capacity frees.
    let retry = client.send_queries(&queries[6..7], 1).unwrap();
    let (id, hits) = client.recv_response().unwrap();
    assert_eq!(id, retry.start);
    assert_eq!(hits.len(), 1);
    assert!(server.stats().shed >= 6, "the whole frame was shed");
    wire.shutdown();
    server.shutdown();
}

/// A wire fixture with a short idle budget, for the liveness tests.
fn idle_fixture(
    seed: u64,
    idle: Duration,
    max_conns: usize,
) -> (Arc<Server>, WireServer, SocketAddr) {
    let sharded = sharded_fixture(seed);
    let server = Arc::new(
        Server::start(
            sharded as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let config =
        WireConfig { idle_timeout: Some(idle), max_connections: max_conns, ..Default::default() };
    let wire = WireServer::start(Arc::clone(&server), config).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    (server, wire, addr)
}

/// Polls until `cond` holds or `deadline` passes; asserts it held.
fn wait_until(deadline: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn idle_connection_gets_ping_grace_then_is_reaped() {
    let idle = Duration::from_millis(100);
    let (server, wire, addr) = idle_fixture(481, idle, 1024);
    let mut stream = raw_connect(addr);
    assert_eq!(wire.connections(), 1);

    // Sitting idle draws a PING probe at the idle boundary; answering it
    // proves liveness and buys a full fresh budget.
    let header = wire::read_header(&mut stream).unwrap();
    assert_eq!(header.frame_type, FT_PING);
    wire::write_pong(&mut stream, header.model_key).unwrap();

    // Going silent after the next probe exhausts the grace: the server
    // answers a typed IDLE_TIMEOUT error and closes.
    let header = wire::read_header(&mut stream).unwrap();
    assert_eq!(header.frame_type, FT_PING, "a live-but-idle peer is probed again");
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::IDLE_TIMEOUT));
    assert_eof(&mut stream);
    wait_until(Duration::from_secs(5), "idle connection reaped", || wire.connections() == 0);

    wire.shutdown();
    server.shutdown();
}

#[test]
fn slow_loris_mid_header_is_reaped_without_ping_grace() {
    let idle = Duration::from_millis(100);
    let (server, wire, addr) = idle_fixture(491, idle, 1024);
    let mut stream = raw_connect(addr);

    // Five header bytes, then silence: the peer owes bytes, so no PING —
    // straight to a typed reap once the budget runs out.
    stream.write_all(&MAGIC_PREFIX[..5]).unwrap();
    let err = read_error_frame(&mut stream);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::IDLE_TIMEOUT));
    assert_eof(&mut stream);
    wait_until(Duration::from_secs(5), "stalled connection reaped", || wire.connections() == 0);

    // A byte-at-a-time dribbler is caught by the same total budget even
    // though each byte resets the per-read timeout.
    let mut stream = raw_connect(addr);
    let header = Header::new(FT_QUERY).encode();
    let start = std::time::Instant::now();
    let mut reaped_at = None;
    for (i, byte) in header.iter().enumerate().take(HEADER_LEN - 1) {
        std::thread::sleep(idle / 2);
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            reaped_at = Some(i);
            break;
        }
    }
    if reaped_at.is_none() {
        // The writes may all have landed in socket buffers before the
        // server closed; the read side still must see the typed reap.
        let err = read_error_frame(&mut stream);
        assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::IDLE_TIMEOUT));
    }
    assert!(
        start.elapsed() >= idle,
        "a dribbler must survive at least one full idle period before the reap"
    );
    wait_until(Duration::from_secs(5), "dribbling connection reaped", || wire.connections() == 0);

    wire.shutdown();
    server.shutdown();
}

const MAGIC_PREFIX: [u8; HEADER_LEN] = {
    let mut buf = [0u8; HEADER_LEN];
    let m = hd_serve::net::MAGIC.to_le_bytes();
    buf[0] = m[0];
    buf[1] = m[1];
    buf[2] = m[2];
    buf[3] = m[3];
    buf
};

#[test]
fn max_connections_gate_answers_a_typed_error_and_recovers() {
    let (server, wire, addr) = idle_fixture(501, Duration::from_secs(60), 2);
    let a = raw_connect(addr);
    let _b = raw_connect(addr);
    assert_eq!(wire.connections(), 2);

    // The third connect is rejected with a typed frame before any
    // handshake, on the accept thread.
    let mut rejected = TcpStream::connect(addr).unwrap();
    let err = read_error_frame(&mut rejected);
    assert_eq!((err.id, err.code), (CONNECTION_ERROR_ID, code::CONNECTION_LIMIT));
    assert_eof(&mut rejected);

    // Freeing a slot lets the next connect through (the gate prunes
    // finished readers on every accept).
    drop(a);
    wait_until(Duration::from_secs(5), "freed slot accepted a new connection", || {
        WireClient::connect_tcp(addr).is_ok()
    });

    wire.shutdown();
    server.shutdown();
}

#[test]
fn drain_flushes_in_flight_answers_then_says_goaway() {
    // A slow model keeps answers in flight long enough for drain to
    // overlap them deterministically.
    let slow = SlowModel { inner: sharded_fixture(511), delay: Duration::from_millis(300) };
    let server = Arc::new(
        Server::start(
            Arc::new(slow) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 8, max_delay: Duration::from_millis(1), ..Default::default() },
        )
        .unwrap(),
    );
    let queries = random_queries(4, 512);
    let in_process: Vec<Vec<Prediction>> = queries
        .iter()
        .map(|q| server.submit_topk(q.as_view(), 1).unwrap().wait().unwrap())
        .collect();

    let wire = Arc::new(WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap());
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.send_queries(&queries, 1).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the frame reach admission

    let drainer = {
        let wire = Arc::clone(&wire);
        std::thread::spawn(move || wire.drain(Duration::from_secs(30)))
    };
    wait_until(Duration::from_secs(5), "drain flag raised", || wire.is_draining());

    // A connect during the drain window is answered GOAWAY (nothing was
    // ever accepted on it) and closed, still on the accept thread.
    let mut late = TcpStream::connect(addr).unwrap();
    let header = wire::read_header(&mut late).unwrap();
    assert_eq!(header.frame_type, FT_GOAWAY);
    assert_eq!(header.model_key, GOAWAY_NONE);
    assert_eof(&mut late);

    // Every accepted answer flushes before the close; the GOAWAY carries
    // the last accepted id.
    let mut responses = Vec::new();
    let mut goaway = None;
    while responses.len() < queries.len() || goaway.is_none() {
        match client.recv().unwrap() {
            WireEvent::Response { id, hits } => responses.push((id, hits)),
            WireEvent::GoAway { last_accepted } => goaway = Some(last_accepted),
            other => panic!("unexpected event during drain: {other:?}"),
        }
    }
    assert_eq!(goaway, Some(3), "GOAWAY names the last accepted id");
    responses.sort_by_key(|(id, _)| *id);
    for (i, (id, hits)) in responses.iter().enumerate() {
        assert_eq!(*id, i as u64);
        assert_eq!(hits, &in_process[i], "drained answers are bit-identical");
    }
    assert!(drainer.join().unwrap(), "every accepted answer flushed before the deadline");
    assert_eq!(wire.connections(), 0);

    // Idempotent: draining an already-drained front-end is a no-op true.
    assert!(wire.drain(Duration::from_millis(1)));
    server.shutdown();
}

/// A model whose `n`-th call (0-based) blocks until the test has opened
/// at least `n + 1` calls, so a test can hold any flush at will.
struct GatedModel {
    inner: Arc<dyn Searchable>,
    /// `(calls entered, calls allowed to proceed)`.
    state: std::sync::Mutex<(usize, usize)>,
    cv: std::sync::Condvar,
}

impl GatedModel {
    fn new(inner: Arc<dyn Searchable>) -> Self {
        GatedModel { inner, state: std::sync::Mutex::new((0, 0)), cv: std::sync::Condvar::new() }
    }

    /// Lets the first `calls` calls proceed.
    fn open(&self, calls: usize) {
        self.state.lock().unwrap().1 = calls;
        self.cv.notify_all();
    }

    /// Blocks until `calls` calls have entered the model.
    fn wait_entered(&self, calls: usize) {
        let guard = self.state.lock().unwrap();
        let timeout = Duration::from_secs(10);
        let (guard, _) = self.cv.wait_timeout_while(guard, timeout, |s| s.0 < calls).unwrap();
        assert!(guard.0 >= calls, "the model was entered {} times, expected {calls}", guard.0);
    }

    fn gate(&self) {
        let mut guard = self.state.lock().unwrap();
        let call = guard.0;
        guard.0 += 1;
        self.cv.notify_all();
        drop(self.cv.wait_while(guard, |s| s.1 <= call).unwrap());
    }
}

impl Searchable for GatedModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> hd_serve::Result<Vec<Winner>> {
        self.gate();
        self.inner.search_winners(batch)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> hd_serve::Result<Vec<Vec<Winner>>> {
        self.gate();
        self.inner.search_topk(batch, k)
    }
}

#[test]
fn an_earlier_flush_is_answered_while_a_later_flush_is_held() {
    // Two frames, two deadline flushes on the one flusher thread. The
    // first flush is held until the second frame's answer is queued
    // behind it in the connection's writer; the second is held for the
    // whole check. The first answer must reach the client anyway: the
    // writer flushes what it has before waiting on an unready answer.
    let gated = Arc::new(GatedModel::new(sharded_fixture(531)));
    let server = Arc::new(
        Server::start(
            Arc::clone(&gated) as Arc<dyn Searchable>,
            // The admission gauge (on with `max_in_flight`) shows when the
            // second frame is accepted.
            ServeConfig { max_batch: 8, max_delay: Duration::from_millis(1), max_in_flight: 8 },
        )
        .unwrap(),
    );
    let wire = WireServer::start(Arc::clone(&server), WireConfig::default()).unwrap();
    let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let queries = random_queries(2, 532);

    let first = client.send_queries(&queries[..1], 1).unwrap();
    gated.wait_entered(1);
    let second = client.send_queries(&queries[1..], 1).unwrap();
    // The reader queues a frame's answers as soon as it is admitted.
    wait_until(Duration::from_secs(10), "second frame admitted", || server.in_flight() == 2);
    gated.open(1);

    let (id, hits) =
        client.recv_response().expect("the first answer arrives while the second flush is held");
    assert_eq!(id, first.start);
    assert_eq!(hits.len(), 1);
    gated.wait_entered(2);

    gated.open(2);
    let (id, hits) = client.recv_response().unwrap();
    assert_eq!(id, second.start);
    assert_eq!(hits.len(), 1);
    wire.shutdown();
    server.shutdown();
}

#[test]
fn config_rejects_zero_idle_timeout_and_max_connections() {
    let sharded = sharded_fixture(521);
    let server =
        Arc::new(Server::start(sharded as Arc<dyn Searchable>, ServeConfig::default()).unwrap());
    for config in [
        WireConfig { idle_timeout: Some(Duration::ZERO), ..Default::default() },
        WireConfig { max_connections: 0, ..Default::default() },
    ] {
        assert!(
            matches!(
                WireServer::start(Arc::clone(&server), config),
                Err(hd_serve::ServeError::InvalidConfig { .. })
            ),
            "config {config:?} must be rejected"
        );
    }
    // None disables reaping and is valid.
    let wire = WireServer::start(
        Arc::clone(&server),
        WireConfig { idle_timeout: None, ..Default::default() },
    );
    assert!(wire.is_ok());
    server.shutdown();
}

//! A self-healing client for the wire protocol.
//!
//! [`ResilientClient`] wraps [`WireClient`] with everything a caller
//! needs to survive real networks: bounded connects, per-request recv
//! deadlines, automatic reconnect under exponential backoff with
//! decorrelated jitter, and safe retry of unanswered query ids across
//! resets, [`code::OVERLOADED`] sheds, GOAWAY drains, and server
//! restarts.
//!
//! # Why retries are safe (the idempotency argument)
//!
//! A retried query can never be observed twice, for three reasons that
//! compose:
//!
//! 1. **Searches are idempotent reads.** A QUERY frame mutates nothing
//!    server-side; answering the same query twice computes the same
//!    slate twice (modulo a hot swap, which is surfaced via the
//!    generation stamp on every response, never silently mixed).
//! 2. **Ids are client-assigned.** The [`RetryLedger`] maps each
//!    caller-visible query to at most one *live* wire id per connection
//!    epoch; responses for ids submitted on a dead connection can no
//!    longer arrive, because the transport that would carry them is
//!    gone and wire ids are never reused within a connection.
//! 3. **Delivery is recorded before resubmission is possible.** The
//!    ledger only ever resubmits queries whose answer has *not* been
//!    recorded; once a RESPONSE for a query is delivered to the caller,
//!    that query leaves the pending set permanently (see
//!    [`RetryLedger::record_response`]), so no schedule of disconnects,
//!    GOAWAYs, and overload sheds can re-submit it.
//!
//! Together these give exactly-once *observation*: the server may
//! compute an answer more than once, but the caller receives each
//! query's slate exactly once.

use super::client::DEFAULT_CONNECT_TIMEOUT;
use super::wire::{code, WireError, CONNECTION_ERROR_ID, GOAWAY_NONE};
use super::{WireClient, WireEvent};
use crate::Prediction;
use hd_linalg::BitVector;
use std::collections::HashMap;
use std::time::Duration;

/// A tiny deterministic generator for backoff jitter (SplitMix64).
/// `rand` is a dev-only dependency of this crate, and jitter needs no
/// statistical quality beyond decorrelation.
#[derive(Debug)]
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(seed: u64) -> Self {
        Jitter { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[lo, hi)`; modulo bias is irrelevant for
    /// sleep jitter.
    fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }
}

/// Where a [`ResilientClient`] (re)connects to.
#[derive(Debug, Clone)]
pub enum Target {
    /// A TCP address string (`host:port`), re-resolved on every
    /// reconnect so DNS failover is picked up.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

/// Tunables for [`ResilientClient`]. `Default` is tuned for LAN-scale
/// serving; tests shrink the timeouts.
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Bound on each connect attempt (TCP connect + HELLO_ACK wait).
    pub connect_timeout: Duration,
    /// Per-recv deadline while answers are outstanding. A recv that
    /// exceeds it abandons the connection (a timed-out read may leave
    /// the stream mid-frame, so the connection cannot be trusted
    /// afterwards) and retries the unanswered ids on a fresh one.
    pub request_timeout: Duration,
    /// Consecutive no-progress failures (failed connects, dead
    /// connections, fully-shed epochs) tolerated before giving up.
    /// Any delivered answer resets the count.
    pub max_attempts: u32,
    /// Floor of the decorrelated-jitter backoff between attempts.
    pub backoff_base: Duration,
    /// Ceiling of the backoff.
    pub backoff_cap: Duration,
    /// Seed for the jitter RNG — backoff schedules are deterministic
    /// per seed, which keeps the chaos tests reproducible.
    pub retry_seed: u64,
    /// Queries per QUERY frame when (re)submitting. Kept well under the
    /// server's `max_frame_queries` default so partial progress
    /// survives mid-frame faults.
    pub max_batch: usize,
    /// Accept a different model generation after reconnect instead of
    /// failing with [`ResilientError::GenerationChanged`]. Even when
    /// allowed, mixing is never silent: every [`Prediction`] carries
    /// the generation that answered it.
    pub allow_generation_change: bool,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            request_timeout: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            retry_seed: 0x9E37_79B9_7F4A_7C15,
            max_batch: 64,
            allow_generation_change: false,
        }
    }
}

/// Why a [`ResilientClient`] call gave up.
#[derive(Debug)]
pub enum ResilientError {
    /// A non-retryable wire error: a local protocol violation (caller
    /// bug, e.g. wrong query dimensionality) or a remote rejection that
    /// retrying cannot fix (e.g. [`code::BAD_K`]).
    Wire(WireError),
    /// The server came back after a restart serving a different model
    /// generation and [`ResilientConfig::allow_generation_change`] is
    /// off. Results delivered so far all carry the pinned generation.
    GenerationChanged {
        /// Generation pinned at the first successful handshake.
        pinned: u64,
        /// Generation the reconnected server is serving.
        current: u64,
    },
    /// [`ResilientConfig::max_attempts`] consecutive attempts made no
    /// progress.
    RetriesExhausted {
        /// Consecutive no-progress attempts made.
        attempts: u32,
        /// Answers delivered before giving up.
        delivered: usize,
        /// Answers the call needed in total.
        total: usize,
        /// The failure that ended the final attempt, if one was caught.
        last: Option<WireError>,
    },
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientError::Wire(e) => write!(f, "wire error: {e}"),
            ResilientError::GenerationChanged { pinned, current } => write!(
                f,
                "model generation changed across reconnect (pinned {pinned}, server now serves \
                 {current}); set allow_generation_change to accept"
            ),
            ResilientError::RetriesExhausted { attempts, delivered, total, last } => {
                write!(
                    f,
                    "gave up after {attempts} consecutive failed attempts \
                     ({delivered}/{total} answers delivered)"
                )?;
                if let Some(last) = last {
                    write!(f, "; last error: {last}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ResilientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilientError::Wire(e) => Some(e),
            ResilientError::RetriesExhausted { last: Some(e), .. } => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ResilientError {
    fn from(e: WireError) -> Self {
        ResilientError::Wire(e)
    }
}

/// Exactly-once-observable retry bookkeeping for one batch of queries.
///
/// The ledger tracks each query (addressed by its index in the caller's
/// batch) through three states: **pending** (needs submission),
/// **in flight** (submitted on the current connection epoch under a
/// wire id), and **delivered** (answer handed to the caller —
/// terminal). Its single hard invariant, exercised directly by the
/// fuzz suite: **a delivered query is never returned by
/// [`RetryLedger::pending`] again**, under any interleaving of
/// submissions, responses, epoch resets (disconnects), GOAWAYs, and
/// overload sheds.
///
/// It is exposed publicly so property tests can drive it through
/// adversarial schedules without a socket in sight.
#[derive(Debug)]
pub struct RetryLedger {
    delivered: Vec<bool>,
    in_flight_wire: Vec<Option<u64>>,
    wire_to_ext: HashMap<u64, usize>,
    delivered_count: usize,
}

impl RetryLedger {
    /// A ledger for `total` queries, all initially pending.
    pub fn new(total: usize) -> Self {
        RetryLedger {
            delivered: vec![false; total],
            in_flight_wire: vec![None; total],
            wire_to_ext: HashMap::new(),
            delivered_count: 0,
        }
    }

    /// Number of queries tracked.
    pub fn total(&self) -> usize {
        self.delivered.len()
    }

    /// Number of queries whose answers have been delivered.
    pub fn delivered_count(&self) -> usize {
        self.delivered_count
    }

    /// Whether every query has been delivered.
    pub fn is_complete(&self) -> bool {
        self.delivered_count == self.delivered.len()
    }

    /// Starts a new connection epoch: every in-flight id reverts to
    /// pending (a submission on a dead connection can no longer be
    /// answered). Call on every disconnect/reconnect.
    pub fn begin_epoch(&mut self) {
        self.wire_to_ext.clear();
        for slot in &mut self.in_flight_wire {
            *slot = None;
        }
    }

    /// Queries that need (re)submission: not delivered and not in
    /// flight on the current epoch. Never contains a delivered index.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.delivered.len())
            .filter(|&i| !self.delivered[i] && self.in_flight_wire[i].is_none())
            .collect()
    }

    /// Records that `externals[i]` was submitted under wire id
    /// `first_id + i` on the current epoch.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Protocol`], leaving the ledger unchanged, if
    /// any index is out of range, already delivered, or already in
    /// flight — resubmitting a delivered query would break exactly-once
    /// observability, so this is enforced, not assumed.
    pub fn record_submission(
        &mut self,
        first_id: u64,
        externals: &[usize],
    ) -> Result<(), WireError> {
        for (i, &ext) in externals.iter().enumerate() {
            let problem = match (self.delivered.get(ext), self.in_flight_wire.get(ext)) {
                (Some(false), Some(None)) => None,
                (Some(true), _) => Some("already delivered"),
                (Some(false), Some(Some(_))) => Some("already in flight"),
                _ => Some("out of range"),
            };
            if let Some(problem) = problem {
                // Undo this call's earlier entries; each was pending.
                for (j, &done) in externals[..i].iter().enumerate() {
                    self.in_flight_wire[done] = None;
                    self.wire_to_ext.remove(&(first_id + j as u64));
                }
                return Err(WireError::Protocol(format!(
                    "ledger invariant: query {ext} {problem}"
                )));
            }
            let wire_id = first_id + i as u64;
            self.in_flight_wire[ext] = Some(wire_id);
            self.wire_to_ext.insert(wire_id, ext);
        }
        Ok(())
    }

    /// Records a RESPONSE for `wire_id`. Returns the caller-batch index
    /// it answers, or `None` if the id is unknown to the current epoch
    /// or already delivered (a duplicate — the caller must drop it).
    pub fn record_response(&mut self, wire_id: u64) -> Option<usize> {
        let ext = self.wire_to_ext.remove(&wire_id)?;
        if self.delivered[ext] {
            return None;
        }
        self.delivered[ext] = true;
        self.in_flight_wire[ext] = None;
        self.delivered_count += 1;
        Some(ext)
    }

    /// Records that `wire_id` was rejected without an answer (e.g.
    /// [`code::OVERLOADED`]): it reverts to pending for resubmission.
    /// Returns the caller-batch index, or `None` for unknown ids.
    pub fn record_unanswered(&mut self, wire_id: u64) -> Option<usize> {
        let ext = self.wire_to_ext.remove(&wire_id)?;
        if self.delivered[ext] {
            return None;
        }
        self.in_flight_wire[ext] = None;
        Some(ext)
    }

    /// Records a GOAWAY carrying `last_accepted`: in-flight ids beyond
    /// it were never accepted and revert to pending; ids at or below it
    /// stay in flight (the server promises to answer them before
    /// closing). Returns how many ids reverted.
    pub fn record_goaway(&mut self, last_accepted: u64) -> usize {
        let mut reverted = 0;
        for ext in 0..self.in_flight_wire.len() {
            if let Some(wire_id) = self.in_flight_wire[ext] {
                if last_accepted == GOAWAY_NONE || wire_id > last_accepted {
                    self.in_flight_wire[ext] = None;
                    self.wire_to_ext.remove(&wire_id);
                    reverted += 1;
                }
            }
        }
        reverted
    }

    /// Number of ids currently awaiting an answer on this epoch.
    pub fn in_flight(&self) -> usize {
        self.wire_to_ext.len()
    }
}

/// A [`WireClient`] that survives the failures [`WireClient`] surfaces.
///
/// Wraps connect timeouts, per-request recv deadlines, reconnect with
/// decorrelated-jitter backoff, and unanswered-id retry behind one
/// blocking call: [`ResilientClient::search`] either returns every
/// query's slate exactly once or reports why it gave up. The module's
/// source-level docs carry the argument that retries are safe.
///
/// The first successful handshake pins the server's model generation;
/// if a reconnect lands on a different generation the call fails with
/// [`ResilientError::GenerationChanged`] unless
/// [`ResilientConfig::allow_generation_change`] is set (mixing is
/// visible either way via the generation stamp on each
/// [`Prediction`]).
#[derive(Debug)]
pub struct ResilientClient {
    target: Target,
    config: ResilientConfig,
    conn: Option<WireClient>,
    pinned_generation: Option<u64>,
    rng: Jitter,
    prev_backoff: Duration,
    reconnects: u64,
}

impl ResilientClient {
    /// Creates a client for `target`. No connection is made yet — the
    /// first [`ResilientClient::search`] connects (so a server that is
    /// briefly down at construction time costs nothing).
    pub fn new(target: Target, config: ResilientConfig) -> Self {
        let prev_backoff = config.backoff_base;
        let rng = Jitter::new(config.retry_seed);
        ResilientClient {
            target,
            config,
            conn: None,
            pinned_generation: None,
            rng,
            prev_backoff,
            reconnects: 0,
        }
    }

    /// Times the client (re)connected, for observability and tests.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The pinned model generation, once a handshake has succeeded.
    pub fn generation(&self) -> Option<u64> {
        self.pinned_generation
    }

    /// Answers every query in `queries` with its top-`k` slate, in
    /// order, retrying across disconnects, overload sheds, GOAWAY
    /// drains, and server restarts until complete or out of attempts.
    ///
    /// # Errors
    ///
    /// [`ResilientError::Wire`] for non-retryable failures (caller
    /// bugs like a dimension mismatch, or typed rejections retrying
    /// cannot fix), [`ResilientError::GenerationChanged`] if the model
    /// changed across a reconnect, [`ResilientError::RetriesExhausted`]
    /// after too many consecutive attempts without progress.
    pub fn search(
        &mut self,
        queries: &[BitVector],
        k: u16,
    ) -> Result<Vec<Vec<Prediction>>, ResilientError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let config = self.config.clone();
        let mut ledger = RetryLedger::new(queries.len());
        let mut results: Vec<Option<Vec<Prediction>>> = vec![None; queries.len()];
        let mut attempts: u32 = 0;
        let mut last_err: Option<WireError> = None;
        while !ledger.is_complete() {
            if attempts >= self.config.max_attempts {
                return Err(ResilientError::RetriesExhausted {
                    attempts,
                    delivered: ledger.delivered_count(),
                    total: ledger.total(),
                    last: last_err,
                });
            }
            if attempts > 0 {
                std::thread::sleep(self.next_backoff());
            }
            attempts += 1;
            let conn = match self.ensure_connected() {
                Ok(conn) => conn,
                Err(ResilientError::Wire(e)) if is_retryable(&e) => {
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            ledger.begin_epoch();
            match run_epoch(conn, &config, queries, k, &mut ledger, &mut results) {
                EpochEnd::Fatal(e) => return Err(ResilientError::Wire(e)),
                EpochEnd::ConnectionLost { err, progressed } => {
                    self.conn = None;
                    if progressed {
                        attempts = 0;
                        self.prev_backoff = self.config.backoff_base;
                    }
                    last_err = err;
                }
                EpochEnd::Complete => {}
            }
        }
        Ok(results.into_iter().map(|r| r.expect("complete ledger implies all results")).collect())
    }

    /// Decorrelated jitter: `sleep = min(cap, uniform(base, prev * 3))`
    /// — the AWS architecture-blog variant, which spreads retries even
    /// when many clients share a failure instant.
    fn next_backoff(&mut self) -> Duration {
        let base = self.config.backoff_base.as_nanos() as u64;
        let hi = (self.prev_backoff.as_nanos() as u64).saturating_mul(3).max(base + 1);
        let next = Duration::from_nanos(self.rng.gen_range(base, hi));
        self.prev_backoff = next.min(self.config.backoff_cap);
        self.prev_backoff
    }

    fn ensure_connected(&mut self) -> Result<&mut WireClient, ResilientError> {
        if self.conn.is_none() {
            let client = match &self.target {
                Target::Tcp(addr) => {
                    WireClient::connect_tcp_timeout(addr.as_str(), self.config.connect_timeout)?
                }
                #[cfg(unix)]
                Target::Uds(path) => {
                    WireClient::connect_uds_timeout(path, self.config.connect_timeout)?
                }
            };
            match self.pinned_generation {
                None => self.pinned_generation = Some(client.generation()),
                Some(pinned) if pinned != client.generation() => {
                    if !self.config.allow_generation_change {
                        return Err(ResilientError::GenerationChanged {
                            pinned,
                            current: client.generation(),
                        });
                    }
                    self.pinned_generation = Some(client.generation());
                }
                Some(_) => {}
            }
            self.reconnects += 1;
            self.conn = Some(client);
        }
        let conn = self.conn.as_mut().expect("just connected");
        conn.set_read_timeout(Some(self.config.request_timeout))?;
        Ok(conn)
    }
}

/// How one submit-and-collect pass over a connection ended.
enum EpochEnd {
    /// Every pending query was answered.
    Complete,
    /// The connection died or was drained; undelivered ids retry on a
    /// fresh connection. `progressed` is true if any answer was
    /// delivered this epoch (resets the attempt budget).
    ConnectionLost { err: Option<WireError>, progressed: bool },
    /// A non-retryable failure to surface to the caller.
    Fatal(WireError),
}

/// Submits every pending query and collects answers until the ledger's
/// epoch settles (all delivered, or connection lost).
fn run_epoch(
    conn: &mut WireClient,
    config: &ResilientConfig,
    queries: &[BitVector],
    k: u16,
    ledger: &mut RetryLedger,
    results: &mut [Option<Vec<Prediction>>],
) -> EpochEnd {
    let dim = conn.dim() as usize;
    if let Some(q) = queries.iter().find(|q| q.len() != dim) {
        return EpochEnd::Fatal(WireError::Protocol(format!(
            "query length {} does not match served dimensionality {dim}",
            q.len()
        )));
    }
    let mut progressed = false;
    let pending = ledger.pending();
    let wpq = conn.words_per_query() as usize;
    for chunk in pending.chunks(config.max_batch.max(1)) {
        let mut words = Vec::with_capacity(chunk.len() * wpq);
        for &ext in chunk {
            words.extend_from_slice(queries[ext].as_words());
        }
        match conn.send_packed_words(&words, k) {
            Ok(range) => {
                if let Err(e) = ledger.record_submission(range.start, chunk) {
                    return EpochEnd::Fatal(e);
                }
            }
            Err(e @ WireError::Protocol(_)) => return EpochEnd::Fatal(e),
            Err(e) => return EpochEnd::ConnectionLost { err: Some(e), progressed },
        }
    }
    let mut drained = false;
    while ledger.in_flight() > 0 {
        match conn.recv() {
            Ok(WireEvent::Response { id, hits }) => {
                if let Some(ext) = ledger.record_response(id) {
                    results[ext] = Some(hits);
                    progressed = true;
                }
            }
            Ok(WireEvent::Error(body)) => {
                if body.code == code::OVERLOADED && body.id != CONNECTION_ERROR_ID {
                    ledger.record_unanswered(body.id);
                    // The shed id retries on the next epoch, after
                    // backoff — hammering an overloaded server with an
                    // instant resubmit would only deepen the shed.
                    return EpochEnd::ConnectionLost { err: Some(body.into_remote()), progressed };
                }
                if is_retryable_code(body.code) {
                    return EpochEnd::ConnectionLost { err: Some(body.into_remote()), progressed };
                }
                return EpochEnd::Fatal(body.into_remote());
            }
            Ok(WireEvent::GoAway { last_accepted }) => {
                ledger.record_goaway(last_accepted);
                drained = true;
                // Accepted ids are still owed answers; keep reading
                // until they arrive or the server closes.
            }
            Ok(WireEvent::Pong { .. }) => {}
            Err(e @ WireError::Remote { .. }) => return EpochEnd::Fatal(e),
            Err(e) => return EpochEnd::ConnectionLost { err: Some(e), progressed },
        }
    }
    if drained {
        // The server is going away; undelivered queries (if any) need a
        // fresh connection, and even a fully-answered epoch should not
        // reuse this one.
        return EpochEnd::ConnectionLost { err: None, progressed };
    }
    if ledger.is_complete() {
        EpochEnd::Complete
    } else {
        // In-flight settled but pending remains (GOAWAY reverted some
        // ids mid-epoch without closing yet).
        EpochEnd::ConnectionLost { err: None, progressed }
    }
}

/// Whether a local wire error is worth a reconnect (I/O and timeouts
/// are; protocol violations are caller or peer bugs — except stream
/// desync after a timed-out read, which surfaces as I/O anyway).
fn is_retryable(e: &WireError) -> bool {
    match e {
        WireError::Io(_) => true,
        WireError::Remote { code, .. } => is_retryable_code(*code),
        WireError::Protocol(_) => false,
    }
}

/// Whether a typed server rejection indicates a transient condition
/// (retry on a fresh connection) rather than a caller bug.
fn is_retryable_code(c: u16) -> bool {
    matches!(
        c,
        code::OVERLOADED
            | code::SHUTDOWN
            | code::CONNECTION_LIMIT
            | code::IDLE_TIMEOUT
            | code::MODEL
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_never_resubmits_delivered_ids() {
        let mut ledger = RetryLedger::new(4);
        ledger.record_submission(0, &[0, 1, 2, 3]).unwrap();
        assert_eq!(ledger.record_response(1), Some(1));
        // Disconnect: everything unanswered reverts, delivered does not.
        ledger.begin_epoch();
        assert_eq!(ledger.pending(), vec![0, 2, 3]);
        ledger.record_submission(10, &[0, 2, 3]).unwrap();
        // Stale id from the old epoch is a no-op duplicate.
        assert_eq!(ledger.record_response(2), None);
        assert_eq!(ledger.record_response(10), Some(0));
        assert_eq!(ledger.record_response(11), Some(2));
        assert_eq!(ledger.record_response(12), Some(3));
        assert!(ledger.is_complete());
        assert!(ledger.pending().is_empty());
    }

    #[test]
    fn ledger_goaway_reverts_only_unaccepted_ids() {
        let mut ledger = RetryLedger::new(5);
        ledger.record_submission(0, &[0, 1, 2, 3, 4]).unwrap();
        // Server accepted ids 0..=1 only.
        assert_eq!(ledger.record_goaway(1), 3);
        assert_eq!(ledger.in_flight(), 2);
        assert_eq!(ledger.pending(), vec![2, 3, 4]);
        assert_eq!(ledger.record_response(0), Some(0));
        assert_eq!(ledger.record_response(1), Some(1));
        // GOAWAY_NONE reverts everything in flight.
        ledger.record_submission(5, &[2, 3, 4]).unwrap();
        assert_eq!(ledger.record_goaway(GOAWAY_NONE), 3);
        assert_eq!(ledger.in_flight(), 0);
        assert_eq!(ledger.pending(), vec![2, 3, 4]);
    }

    #[test]
    fn ledger_overload_shed_reverts_to_pending() {
        let mut ledger = RetryLedger::new(2);
        ledger.record_submission(0, &[0, 1]).unwrap();
        assert_eq!(ledger.record_unanswered(1), Some(1));
        assert_eq!(ledger.pending(), vec![1]);
        assert_eq!(ledger.record_response(0), Some(0));
        assert_eq!(ledger.record_unanswered(7), None);
    }

    #[test]
    fn ledger_rejects_resubmitting_delivered_and_unknown_queries() {
        let mut ledger = RetryLedger::new(2);
        ledger.record_submission(0, &[0]).unwrap();
        let in_flight = ledger.record_submission(1, &[1, 0]).unwrap_err();
        assert!(in_flight.to_string().contains("already in flight"), "{in_flight}");
        // The rejected call changed nothing: query 1 is still pending.
        assert_eq!((ledger.pending(), ledger.in_flight()), (vec![1], 1));
        ledger.record_response(0);
        ledger.begin_epoch();
        let delivered = ledger.record_submission(2, &[0]).unwrap_err();
        assert!(delivered.to_string().contains("already delivered"), "{delivered}");
        let unknown = ledger.record_submission(3, &[1, 2]).unwrap_err();
        assert!(unknown.to_string().contains("out of range"), "{unknown}");
        let repeated = ledger.record_submission(5, &[1, 1]).unwrap_err();
        assert!(repeated.to_string().contains("already in flight"), "{repeated}");
        assert_eq!((ledger.pending(), ledger.in_flight()), (vec![1], 0));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let cfg = ResilientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            retry_seed: 7,
            ..Default::default()
        };
        let mut a = ResilientClient::new(Target::Tcp("unused:0".into()), cfg.clone());
        let mut b = ResilientClient::new(Target::Tcp("unused:0".into()), cfg.clone());
        let seq_a: Vec<Duration> = (0..16).map(|_| a.next_backoff()).collect();
        let seq_b: Vec<Duration> = (0..16).map(|_| b.next_backoff()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        for d in &seq_a {
            assert!(*d >= cfg.backoff_base && *d <= cfg.backoff_cap);
        }
        assert!(seq_a.windows(2).any(|w| w[0] != w[1]), "jitter should vary the delays");
    }
}

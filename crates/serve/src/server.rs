//! The micro-batching associative-search server.
//!
//! Independent single-query submissions are coalesced into SIMD-sized
//! [`QueryBatch`]es under a latency budget and answered in one sweep —
//! the amortization that makes the batched popcount kernels engage even
//! when no caller owns a whole batch.
//!
//! # Flush discipline (flat combining)
//!
//! * **Full flush** — the submitter whose query fills the batch to
//!   [`ServeConfig::max_batch`] takes the whole pending batch out of the
//!   queue and executes it *inline* on its own thread. No hand-off, no
//!   wake-up latency: on the hot path the batcher costs one short mutex
//!   section per query plus the amortized sweep.
//! * **Deadline flush** — a background flusher thread watches the oldest
//!   pending query and flushes whatever has accumulated once it has
//!   waited [`ServeConfig::max_delay`], bounding tail latency when
//!   traffic is too thin to fill batches.
//!
//! Every flush answers its entire batch from **one** model snapshot
//! ([`crate::ModelRegistry`]), so hot swaps never mix generations within
//! a batch, and a submission is *never lost*: it is answered by a full
//! flush, a deadline flush, or the drain that runs at shutdown (after
//! which new submissions fail with [`ServeError::Shutdown`]).

use crate::error::{Result, ServeError};
use crate::registry::ModelRegistry;
use crate::searchable::{empty_slate, Searchable, Winner};
use hd_linalg::{BitView, QueryBatch, QueryBatchBuilder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batcher tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Flush as soon as this many queries are pending. Batches of 32+
    /// engage the on-the-fly SIMD packing threshold in `hd_linalg`;
    /// pre-packed [`crate::ShardedSearcher`] memories amortize at any
    /// size, with diminishing returns past a few hundred.
    pub max_batch: usize,
    /// Flush the pending batch once its oldest query has waited this
    /// long — the per-query latency budget under thin traffic.
    pub max_delay: Duration,
    /// Admission limit: queries accepted but not yet answered by a
    /// flush. At the limit new submissions are shed with
    /// [`ServeError::Overloaded`] instead of queuing unboundedly behind
    /// a slow model. `0` (the default) disables shedding.
    pub max_in_flight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 256, max_delay: Duration::from_micros(200), max_in_flight: 0 }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero `max_batch` or a
    /// positive `max_in_flight` smaller than `max_batch` (every batch
    /// must be admittable in full, or full flushes could never trigger).
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig { reason: "max_batch must be positive".into() });
        }
        if self.max_in_flight != 0 && self.max_in_flight < self.max_batch {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "max_in_flight ({}) must be 0 or >= max_batch ({})",
                    self.max_in_flight, self.max_batch
                ),
            });
        }
        Ok(())
    }
}

/// The answer to one served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Winning row in the served memory.
    pub row: usize,
    /// Class owning the winning row.
    pub class: usize,
    /// Dot-similarity score of the winning row.
    pub score: u32,
    /// Model generation that answered the query (see
    /// [`crate::ModelRegistry`]).
    pub generation: u64,
    /// Whether the answering model was serving in degraded mode (one or
    /// more shards permanently failed — see
    /// [`crate::Searchable::missing_shards`]). A degraded answer is the
    /// exact best over the *surviving* rows, flagged so callers can
    /// retry elsewhere or accept reduced coverage, never silently wrong.
    pub degraded: bool,
}

/// What one flush produced for its whole cycle: every query's k-best
/// slate at the cycle's largest k, flat, plus the stamps each
/// [`Prediction`] carries. Waiters truncate their slate to their own `k`
/// (k-best slates are prefix-monotone in `k`); a plain submission takes
/// the first entry.
#[derive(Debug)]
struct Slates {
    /// Every query's slate, in submission order.
    hits: Vec<Winner>,
    /// Exclusive end of each query's slate in `hits`; empty for a k=1
    /// cycle, whose slates are one entry each.
    ends: Vec<usize>,
    /// Model generation that answered the cycle.
    generation: u64,
    /// Whether the model reported missing shards after the sweep.
    degraded: bool,
}

impl Slates {
    /// Query `index`'s slate. The flush checked that the model answered
    /// every query of the cycle.
    fn slate(&self, index: usize) -> &[Winner] {
        if self.ends.is_empty() {
            return std::slice::from_ref(&self.hits[index]);
        }
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.hits[start..self.ends[index]]
    }

    fn predict(&self, w: &Winner) -> Prediction {
        Prediction {
            row: w.row,
            class: w.class,
            score: w.score,
            generation: self.generation,
            degraded: self.degraded,
        }
    }
}

/// Shared completion state of one batch cycle: every query queued into
/// the same flush shares this single allocation (amortizing what a
/// per-query oneshot would spend on malloc, mutex, and condvar), and the
/// answered results are published once through an [`OnceLock`] so
/// pipelined waiters read them lock-free.
struct BatchState {
    /// The cycle's answers, or the error that failed the whole flush.
    /// Written exactly once, by the flush that answers the batch.
    results: std::sync::OnceLock<Result<Slates>>,
    /// Whether any waiter parked on `cv` before the results landed.
    parked: Mutex<bool>,
    cv: Condvar,
}

impl BatchState {
    fn new() -> Arc<Self> {
        Arc::new(BatchState {
            results: std::sync::OnceLock::new(),
            parked: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Publishes the batch's results and wakes any parked waiters.
    fn fill(&self, results: Result<Slates>) {
        self.results.set(results).expect("each batch is flushed exactly once");
        // Synchronize with parkers: a waiter either sees the results on
        // its lock-free check, or sets `parked` under the lock and then
        // re-checks — so taking the lock here guarantees the notify
        // reaches anyone who parked before it.
        let parked = *self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        if parked {
            self.cv.notify_all();
        }
    }
}

/// A submitted query's handle: redeem it with [`Pending::wait`].
///
/// Submitters that pipeline (submit a window of queries, then collect)
/// usually find the result already published by the time they wait, so
/// the handle costs no locking or parking at all on the hot path.
#[must_use = "a Pending that is never waited on discards its prediction"]
pub struct Pending {
    batch: Arc<BatchState>,
    index: usize,
    /// Absolute give-up point, set by the `_with_deadline` submission
    /// entry points; `None` waits indefinitely.
    deadline: Option<Instant>,
}

impl Pending {
    /// Whether the result is already available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.batch.results.get().is_some()
    }

    /// Blocks until the query is answered — or, for handles from
    /// [`Server::submit_with_deadline`], until the deadline expires.
    ///
    /// # Errors
    ///
    /// Returns whatever the flush produced: [`ServeError::Model`] for
    /// model-side failures, [`ServeError::Shutdown`] if the server shut
    /// down without answering, [`ServeError::Timeout`] when this
    /// handle's deadline expired first (the query itself is still
    /// answered server-side; only this waiter gave up).
    pub fn wait(self) -> Result<Prediction> {
        // The winner is the slate's first entry, whatever k the cycle
        // ran at. A foreign model returning an empty slate is a typed
        // error, never an index panic in the waiter.
        let slates = wait_for(&self.batch, self.deadline)?;
        slates.slate(self.index).first().map(|w| slates.predict(w)).ok_or_else(empty_slate)
    }
}

/// Blocks until `batch`'s results land. With a deadline, gives up with
/// [`ServeError::Timeout`] once it passes — the batch state stays alive
/// (the flush still fills it), only this waiter stops waiting.
fn wait_for(batch: &BatchState, deadline: Option<Instant>) -> Result<&Slates> {
    if let Some(results) = batch.results.get() {
        return results.as_ref().map_err(ServeError::clone);
    }
    let mut parked = batch.parked.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        // Re-check under the lock: fill() takes it after publishing,
        // so a result published before we parked is visible here.
        if let Some(results) = batch.results.get() {
            return results.as_ref().map_err(ServeError::clone);
        }
        *parked = true;
        match deadline {
            None => parked = batch.cv.wait(parked).unwrap_or_else(PoisonError::into_inner),
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return Err(ServeError::Timeout);
                }
                parked = batch
                    .cv
                    .wait_timeout(parked, d - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }
}

/// A submitted top-k query's handle: redeem it with
/// [`PendingTopK::wait`].
#[must_use = "a PendingTopK that is never waited on discards its predictions"]
pub struct PendingTopK {
    batch: Arc<BatchState>,
    index: usize,
    /// The k this submission asked for; the flush answers the whole
    /// cycle at the largest pending k and the wait truncates back.
    k: usize,
    /// Absolute give-up point; `None` waits indefinitely.
    deadline: Option<Instant>,
}

impl PendingTopK {
    /// Whether the result is already available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.batch.results.get().is_some()
    }

    /// Blocks until the query is answered, returning its `min(k, rows)`
    /// best rows sorted by score descending then row ascending.
    ///
    /// # Errors
    ///
    /// As [`Pending::wait`], including [`ServeError::Timeout`] for
    /// deadline submissions.
    pub fn wait(self) -> Result<Vec<Prediction>> {
        let slates = wait_for(&self.batch, self.deadline)?;
        let slate = slates.slate(self.index);
        Ok(slate[..slate.len().min(self.k)].iter().map(|w| slates.predict(w)).collect())
    }
}

/// Point-in-time serving counters (see [`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Queries answered by flushes (accepted queries still pending in the
    /// current batch cycle are not counted yet).
    pub queries: u64,
    /// Batches flushed (full + deadline + shutdown drain).
    pub batches: u64,
    /// Flushes triggered by a full batch.
    pub full_flushes: u64,
    /// Flushes triggered by the latency deadline (or shutdown drain).
    pub deadline_flushes: u64,
    /// Largest batch flushed so far.
    pub largest_batch: u64,
    /// Queries shed at admission because the server was at
    /// [`ServeConfig::max_in_flight`].
    pub shed: u64,
    /// Queries answered while the model reported missing shards (their
    /// predictions carry [`Prediction::degraded`]).
    pub degraded_queries: u64,
}

#[derive(Default)]
struct StatCounters {
    queries: AtomicU64,
    batches: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    largest_batch: AtomicU64,
    shed: AtomicU64,
    degraded_queries: AtomicU64,
}

struct Queue {
    builder: QueryBatchBuilder,
    /// Completion state shared by every query of the current cycle.
    state: Arc<BatchState>,
    /// Largest k requested by the cycle's pending queries (1 = winners
    /// only). The flush answers everyone at this k.
    max_k: usize,
    /// When the oldest pending query arrived; `None` while empty.
    opened_at: Option<Instant>,
    shutdown: bool,
}

impl Queue {
    /// Moves the pending batch out (caller flushes it outside the lock)
    /// and opens a fresh cycle.
    fn take_work(&mut self) -> (QueryBatch, Arc<BatchState>, usize) {
        let batch = self.builder.take_batch().expect("take_work on a non-empty queue");
        self.opened_at = None;
        let max_k = std::mem::replace(&mut self.max_k, 1);
        (batch, std::mem::replace(&mut self.state, BatchState::new()), max_k)
    }
}

enum FlushKind {
    Full,
    Deadline,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes the deadline flusher when the queue goes non-empty or the
    /// server shuts down.
    deadline_cv: Condvar,
    /// Whether the flusher is deep-parked (indefinite wait). Submitters
    /// only pay the condvar notify when this is set; while traffic keeps
    /// batches full the flusher *lingers* on timed waits instead, so the
    /// hot path never wakes it. Written only under the queue lock.
    flusher_parked: AtomicBool,
    registry: ModelRegistry,
    config: ServeConfig,
    stats: StatCounters,
    /// Queries accepted but not yet answered by a flush — the admission
    /// gauge [`ServeConfig::max_in_flight`] sheds against. Incremented
    /// under the queue lock at admission; decremented after each flush
    /// publishes its results. Only maintained while admission control is
    /// on (`max_in_flight != 0`): with it off the counter steers nothing,
    /// and the per-query atomic increment sits inside the contended queue
    /// critical section — measurable on the serve-throughput benches.
    in_flight: AtomicU64,
}

impl Shared {
    fn flush(&self, batch: QueryBatch, state: Arc<BatchState>, max_k: usize, kind: FlushKind) {
        let snapshot = self.registry.snapshot();
        let queries = batch.len();
        self.stats.queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.largest_batch.fetch_max(queries as u64, Ordering::Relaxed);
        match kind {
            FlushKind::Full => self.stats.full_flushes.fetch_add(1, Ordering::Relaxed),
            FlushKind::Deadline => self.stats.deadline_flushes.fetch_add(1, Ordering::Relaxed),
        };
        // A panicking model must not unwind past the batch state: the
        // batch was already taken out of the queue, so an unfilled state
        // would strand its waiters forever — and a panic on the flusher
        // thread would additionally kill deadline flushing and the
        // shutdown drain. Contain it and answer the batch with an error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let batch = Arc::new(batch);
            // A k=1 cycle takes the model's 1-slot winners path, which
            // allocates nothing per query.
            if max_k == 1 {
                return snapshot.model().search_winners(batch).map(|hits| (hits, Vec::new()));
            }
            snapshot.model().search_topk(batch, max_k).map(|slates| {
                let mut hits = Vec::with_capacity(slates.iter().map(Vec::len).sum());
                let mut ends = Vec::with_capacity(slates.len());
                for slate in slates {
                    hits.extend(slate);
                    ends.push(hits.len());
                }
                (hits, ends)
            })
        }))
        .unwrap_or_else(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(ServeError::Model { reason: format!("model panicked during flush: {what}") })
        });
        let results = result.and_then(|(hits, ends)| {
            let answered = if max_k == 1 { hits.len() } else { ends.len() };
            if answered != queries {
                return Err(ServeError::Model {
                    reason: format!("model returned {answered} answers for {queries} queries"),
                });
            }
            // Sample shard health *after* the sweep: degradation is
            // monotone within a generation, so a shard that died
            // mid-search (making this sweep answer from the surviving
            // rows only) is visible here. The converse race — a shard
            // dying right after a complete sweep — only over-flags, never
            // under-flags.
            let degraded = !snapshot.model().missing_shards().is_empty();
            if degraded {
                self.stats.degraded_queries.fetch_add(queries as u64, Ordering::Relaxed);
            }
            Ok(Slates { hits, ends, generation: snapshot.id(), degraded })
        });
        // Release the admission slots once the answers exist, and before
        // they are published: a freed slot means a new submission can
        // take the answered query's place in the next cycle, and a waiter
        // that sees its answer also sees its slot freed.
        if self.config.max_in_flight != 0 {
            self.in_flight.fetch_sub(queries as u64, Ordering::Relaxed);
        }
        state.fill(results);
    }
}

/// The sharded micro-batching associative-search server.
///
/// # Example
///
/// ```
/// use hd_linalg::BitVector;
/// use hd_serve::{ServeConfig, Server};
/// use hdc::BinaryAm;
/// use std::sync::Arc;
///
/// let am = BinaryAm::from_centroids(2, vec![
///     (0, BitVector::from_bools(&[true, true, false, false])),
///     (1, BitVector::from_bools(&[false, false, true, true])),
/// ]).unwrap();
/// let server = Server::start(Arc::new(am), ServeConfig {
///     max_batch: 8,
///     max_delay: std::time::Duration::from_micros(50),
///     ..Default::default()
/// }).unwrap();
/// let query = BitVector::from_bools(&[true, true, true, false]);
/// let prediction = server.classify(query.as_view()).unwrap();
/// assert_eq!(prediction.class, 0);
/// assert_eq!(prediction.generation, 1);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("dim", &self.dim())
            .field("config", &self.shared.config)
            .field("generation", &self.generation())
            .finish()
    }
}

impl Server {
    /// Starts a server over `model` (generation 1) and spawns the
    /// deadline flusher.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid `config` or
    /// if the flusher thread cannot be spawned.
    pub fn start(model: Arc<dyn Searchable>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let dim = model.dim();
        // Pre-size for the configured batch, but don't let a huge
        // (deadline-only) max_batch pre-reserve unbounded memory.
        let reserve = config.max_batch.min(4096);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                builder: QueryBatchBuilder::with_capacity(dim, reserve),
                state: BatchState::new(),
                max_k: 1,
                opened_at: None,
                shutdown: false,
            }),
            deadline_cv: Condvar::new(),
            flusher_parked: AtomicBool::new(false),
            registry: ModelRegistry::new(model),
            config,
            stats: StatCounters::default(),
            in_flight: AtomicU64::new(0),
        });
        let flusher_shared = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("hd-serve-flusher".into())
            .spawn(move || run_flusher(&flusher_shared))
            .map_err(|e| ServeError::InvalidConfig {
                reason: format!("failed to spawn flusher: {e}"),
            })?;
        Ok(Server { shared, flusher: Mutex::new(Some(flusher)) })
    }

    /// Dimensionality queries must match.
    pub fn dim(&self) -> usize {
        self.shared.registry.dim()
    }

    /// The registry's current model generation.
    pub fn generation(&self) -> u64 {
        self.shared.registry.generation()
    }

    /// The model registry (for snapshots and direct inspection).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Atomically swaps in a new model generation; in-flight batches
    /// finish on their old snapshot. See [`ModelRegistry::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DimensionMismatch`] if the new model's
    /// dimensionality differs.
    pub fn publish(&self, model: Arc<dyn Searchable>) -> Result<u64> {
        self.shared.registry.publish(model)
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            queries: s.queries.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            full_flushes: s.full_flushes.load(Ordering::Relaxed),
            deadline_flushes: s.deadline_flushes.load(Ordering::Relaxed),
            largest_batch: s.largest_batch.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            degraded_queries: s.degraded_queries.load(Ordering::Relaxed),
        }
    }

    /// Queries accepted but not yet answered by a flush (the gauge
    /// [`ServeConfig::max_in_flight`] sheds against). Always 0 when
    /// admission control is off (`max_in_flight == 0`): the gauge is
    /// only maintained while something sheds against it.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Submits one query, returning a [`Pending`] handle. If this query
    /// fills the batch, the submitting thread flushes it inline before
    /// returning (flat combining); otherwise the deadline flusher will.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DimensionMismatch`] for a wrong-width query
    /// and [`ServeError::Shutdown`] after shutdown.
    pub fn submit(&self, query: BitView<'_>) -> Result<Pending> {
        self.submit_inner(query, None)
    }

    /// As [`Server::submit`], but the returned handle's
    /// [`Pending::wait`] gives up with [`ServeError::Timeout`] once
    /// `timeout` has elapsed (measured from submission). The query is
    /// still flushed and answered server-side — a timed-out waiter never
    /// strands or corrupts its batch — so use this to bound caller
    /// latency against slow models, not to cancel work.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`].
    pub fn submit_with_deadline(&self, query: BitView<'_>, timeout: Duration) -> Result<Pending> {
        self.submit_inner(query, Some(Instant::now() + timeout))
    }

    fn submit_inner(&self, query: BitView<'_>, deadline: Option<Instant>) -> Result<Pending> {
        let (index, state, work) = self.enqueue(query, 1)?;
        let pending = Pending { batch: state, index, deadline };
        if let Some((batch, state, max_k)) = work {
            self.shared.flush(batch, state, max_k, FlushKind::Full);
        }
        Ok(pending)
    }

    /// Submits one top-k query, returning a [`PendingTopK`] handle whose
    /// [`PendingTopK::wait`] yields the query's `min(k, rows)` best rows
    /// (score descending, then row ascending). Top-k submissions share
    /// batch cycles with plain [`Server::submit`] traffic: the flush
    /// answers the whole cycle at the largest pending k in one fused
    /// sweep, and every handle truncates back to its own k.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`], plus [`ServeError::InvalidConfig`] when
    /// `k == 0`.
    pub fn submit_topk(&self, query: BitView<'_>, k: usize) -> Result<PendingTopK> {
        self.submit_topk_inner(query, k, None)
    }

    /// As [`Server::submit_topk`] with a [`Pending::wait`]-side deadline
    /// (see [`Server::submit_with_deadline`] for the semantics).
    ///
    /// # Errors
    ///
    /// As [`Server::submit_topk`].
    pub fn submit_topk_with_deadline(
        &self,
        query: BitView<'_>,
        k: usize,
        timeout: Duration,
    ) -> Result<PendingTopK> {
        self.submit_topk_inner(query, k, Some(Instant::now() + timeout))
    }

    fn submit_topk_inner(
        &self,
        query: BitView<'_>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<PendingTopK> {
        crate::searchable::check_topk(k)?;
        let (index, state, work) = self.enqueue(query, k)?;
        let pending = PendingTopK { batch: state, index, k, deadline };
        if let Some((batch, state, max_k)) = work {
            self.shared.flush(batch, state, max_k, FlushKind::Full);
        }
        Ok(pending)
    }

    /// Submits a whole frame of already-packed queries in one queue
    /// transaction — the wire front-end's ingest path (see
    /// [`crate::net`]). `words` must hold one or more
    /// `dim().div_ceil(64)`-word rows laid out exactly as a
    /// [`QueryBatch`] stores them; they land in the pending batch via
    /// [`QueryBatchBuilder::push_packed_words`] as one word copy, with
    /// no per-bit repacking and a single lock acquisition for the whole
    /// frame. The frame is admitted or shed atomically against
    /// [`ServeConfig::max_in_flight`], and every query is answered at
    /// `k` (`k == 1` yields one-entry slates; handles truncate like
    /// [`Server::submit_topk`]). A frame that fills the batch is flushed
    /// inline by the submitting thread, exactly like [`Server::submit`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::MalformedPayload`] when `words` does not
    /// form whole queries, [`ServeError::InvalidConfig`] when `k == 0`,
    /// [`ServeError::Overloaded`] when admitting the frame would exceed
    /// the in-flight limit (nothing is enqueued), and
    /// [`ServeError::Shutdown`] after shutdown.
    pub fn submit_packed(&self, words: &[u64], k: usize) -> Result<Vec<PendingTopK>> {
        crate::searchable::check_topk(k)?;
        let (start, count, state, work) = self.enqueue_packed(words, k)?;
        let pendings = (start..start + count)
            .map(|index| PendingTopK { batch: Arc::clone(&state), index, k, deadline: None })
            .collect();
        if let Some((batch, state, max_k)) = work {
            self.shared.flush(batch, state, max_k, FlushKind::Full);
        }
        Ok(pendings)
    }

    /// Queues a frame of packed queries under one lock acquisition,
    /// returning the first query's index in the cycle, the frame's query
    /// count, the cycle's completion state, and — when the frame filled
    /// the batch — the work the caller must flush inline.
    #[allow(clippy::type_complexity)]
    fn enqueue_packed(
        &self,
        words: &[u64],
        k: usize,
    ) -> Result<(usize, usize, Arc<BatchState>, Option<(QueryBatch, Arc<BatchState>, usize)>)> {
        let words_per_query = self.dim().div_ceil(64);
        if words.is_empty() || !words.len().is_multiple_of(words_per_query) {
            return Err(ServeError::MalformedPayload {
                reason: format!(
                    "payload of {} words is not a positive multiple of the {words_per_query}-word \
                     query width (D = {})",
                    words.len(),
                    self.dim()
                ),
            });
        }
        let count = words.len() / words_per_query;
        let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.shutdown {
            return Err(ServeError::Shutdown);
        }
        let limit = self.shared.config.max_in_flight;
        if limit != 0 {
            if self.shared.in_flight.load(Ordering::Relaxed) + count as u64 > limit as u64 {
                self.shared.stats.shed.fetch_add(count as u64, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            // Matches the single-query rule (`in_flight + 1 > limit`
            // sheds): a frame is admitted only whole, so the gauge never
            // exceeds the limit.
            self.shared.in_flight.fetch_add(count as u64, Ordering::Relaxed);
        }
        let start = q.builder.len();
        if let Err(e) = q.builder.push_packed_words(words) {
            // Shape was validated above, so this is unreachable — but a
            // client-fed path never panics on principle. Undo the
            // admission reservation before surfacing the typed error.
            if limit != 0 {
                self.shared.in_flight.fetch_sub(count as u64, Ordering::Relaxed);
            }
            return Err(ServeError::MalformedPayload { reason: e.to_string() });
        }
        q.max_k = q.max_k.max(k);
        if start == 0 {
            q.opened_at = Some(Instant::now());
            if self.shared.flusher_parked.load(Ordering::Relaxed) {
                self.shared.deadline_cv.notify_one();
            }
        }
        let state = Arc::clone(&q.state);
        let work = (q.builder.len() >= self.shared.config.max_batch).then(|| q.take_work());
        Ok((start, count, state, work))
    }

    /// Queues one query with its requested k, returning its index in the
    /// cycle, the cycle's completion state, and — when this query filled
    /// the batch — the work the caller must flush inline.
    #[allow(clippy::type_complexity)]
    fn enqueue(
        &self,
        query: BitView<'_>,
        k: usize,
    ) -> Result<(usize, Arc<BatchState>, Option<(QueryBatch, Arc<BatchState>, usize)>)> {
        if query.len() != self.dim() {
            return Err(ServeError::DimensionMismatch { expected: self.dim(), found: query.len() });
        }
        let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.shutdown {
            return Err(ServeError::Shutdown);
        }
        let limit = self.shared.config.max_in_flight;
        if limit != 0 {
            if self.shared.in_flight.load(Ordering::Relaxed) >= limit as u64 {
                self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            // Under the queue lock, so admission never over-admits a
            // cycle (flushes decrement outside the lock, which can only
            // free slots late — shedding slightly conservatively, never
            // unboundedly).
            self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        }
        q.builder.push(query).expect("dimension checked above");
        q.max_k = q.max_k.max(k);
        let index = q.builder.len() - 1;
        if index == 0 {
            q.opened_at = Some(Instant::now());
            // Only a deep-parked flusher needs a wake-up; a lingering
            // one will notice the queue on its next timed check.
            if self.shared.flusher_parked.load(Ordering::Relaxed) {
                self.shared.deadline_cv.notify_one();
            }
        }
        let state = Arc::clone(&q.state);
        let work = (q.builder.len() >= self.shared.config.max_batch).then(|| q.take_work());
        Ok((index, state, work))
    }

    /// Submit-and-wait convenience: the single-call blocking entry point.
    /// Under thin traffic this waits up to [`ServeConfig::max_delay`] for
    /// the deadline flush — that is the latency budget buying batch
    /// amortization; latency-critical single callers should lower it (or
    /// pipeline via [`Server::submit`]).
    ///
    /// # Errors
    ///
    /// As [`Server::submit`] and [`Pending::wait`].
    pub fn classify(&self, query: BitView<'_>) -> Result<Prediction> {
        self.submit(query)?.wait()
    }

    /// Submit-and-wait with a latency bound: gives up with
    /// [`ServeError::Timeout`] once `timeout` elapses. The query is
    /// still answered server-side (counted in [`Server::stats`]); only
    /// this caller stops waiting.
    ///
    /// # Errors
    ///
    /// As [`Server::submit_with_deadline`] and [`Pending::wait`].
    pub fn classify_with_deadline(
        &self,
        query: BitView<'_>,
        timeout: Duration,
    ) -> Result<Prediction> {
        self.submit_with_deadline(query, timeout)?.wait()
    }

    /// Submit-and-wait for a top-k query: the single-call blocking entry
    /// point of [`Server::submit_topk`], with the same latency budget as
    /// [`Server::classify`].
    ///
    /// # Errors
    ///
    /// As [`Server::submit_topk`] and [`PendingTopK::wait`].
    pub fn classify_topk(&self, query: BitView<'_>, k: usize) -> Result<Vec<Prediction>> {
        self.submit_topk(query, k)?.wait()
    }

    /// Shuts the server down: pending queries are drained and answered,
    /// subsequent submissions fail with [`ServeError::Shutdown`].
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if q.shutdown {
                return;
            }
            q.shutdown = true;
        }
        self.shared.deadline_cv.notify_all();
        let handle = self.flusher.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Empty timed checks the flusher makes before deep-parking. While full
/// flushes keep traffic flowing, the queue looks empty at every check and
/// the flusher stays in this cheap linger loop — submitters never pay a
/// condvar notify.
const LINGER_TICKS: u32 = 32;

/// Deadline-flusher loop: tracks the oldest pending query and flushes
/// once it has waited `max_delay`. While traffic flows it lingers on
/// timed waits (see [`LINGER_TICKS`]); after enough consecutive empty
/// checks it deep-parks until a submitter notifies it, so an idle server
/// costs no wake-ups at all. A query that arrives during a linger sleep
/// is flushed within `2 × max_delay` in the worst case. On shutdown the
/// loop drains whatever is still queued (no query is lost) and exits.
fn run_flusher(shared: &Shared) {
    let max_delay = shared.config.max_delay;
    let mut empty_checks = 0u32;
    let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if q.shutdown {
            if !q.builder.is_empty() {
                let (batch, state, max_k) = q.take_work();
                drop(q);
                shared.flush(batch, state, max_k, FlushKind::Deadline);
            }
            return;
        }
        match q.opened_at {
            None if empty_checks >= LINGER_TICKS => {
                // Written under the queue lock; a submitter that misses
                // the flag (checks before we set it) has not pushed yet
                // and its push happens after we release the lock in
                // wait(), so no wake-up is ever lost.
                shared.flusher_parked.store(true, Ordering::Relaxed);
                q = shared.deadline_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                shared.flusher_parked.store(false, Ordering::Relaxed);
                empty_checks = 0;
            }
            None => {
                empty_checks += 1;
                q = shared
                    .deadline_cv
                    .wait_timeout(q, max_delay)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            Some(opened) => {
                empty_checks = 0;
                let elapsed = opened.elapsed();
                if elapsed >= max_delay {
                    let (batch, state, max_k) = q.take_work();
                    drop(q);
                    shared.flush(batch, state, max_k, FlushKind::Deadline);
                    q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
                } else {
                    q = shared
                        .deadline_cv
                        .wait_timeout(q, max_delay - elapsed)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::seeded;
    use hd_linalg::{BitVector, SearchMemory};
    use rand::Rng;

    fn random_am(vectors: usize, dim: usize, seed: u64) -> Arc<hdc::BinaryAm> {
        let mut rng = seeded(seed);
        let centroids: Vec<(usize, BitVector)> = (0..vectors)
            .map(|v| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                (v % 5, BitVector::from_bools(&bits))
            })
            .collect();
        Arc::new(hdc::BinaryAm::from_centroids(5, centroids).unwrap())
    }

    fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn served_predictions_match_direct_search() {
        let am = random_am(40, 128, 1);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 16,
                max_delay: Duration::from_micros(100),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(50, 128, 2);
        let pendings: Vec<Pending> =
            queries.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
        for (q, p) in queries.iter().zip(pendings) {
            let got = p.wait().unwrap();
            let want = am.search(q).unwrap();
            assert_eq!((got.row, got.class, got.score), (want.row, want.class, want.score));
            assert_eq!(got.generation, 1);
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 50);
        // 50 queries at max_batch 16: up to three full flushes plus a
        // deadline flush for the remainder. Exact counts depend on
        // scheduling (a preempted submitter lets the deadline flusher
        // steal a partial batch), so assert bounds, not equality.
        assert!(stats.full_flushes <= 3, "{stats:?}");
        assert!(stats.deadline_flushes >= 1, "{stats:?}");
        assert!(stats.largest_batch <= 16, "{stats:?}");
        assert!(stats.batches >= 4, "{stats:?}");
    }

    #[test]
    fn mixed_k_submissions_share_one_cycle_and_truncate_back() {
        let am = random_am(40, 128, 11);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_millis(2),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(12, 128, 12);
        let batch = hd_linalg::QueryBatch::from_vectors(&queries).unwrap();
        // Generation 1 serves the AM itself. Generation 2 serves a
        // 2-shard searcher over the same rows whose shard 0 has died for
        // good: every prediction of its cycles, plain or top-k, must
        // carry the cycle's generation and the degraded flag.
        let degraded = crate::ShardedSearcher::from_am(&am, 2).unwrap();
        degraded.inject_shard_panics(0, 100).unwrap();
        let degraded_reference =
            Searchable::search_topk(&degraded, Arc::new(batch.clone()), 45).unwrap();
        assert_eq!(degraded.missing_shards(), vec![0]);
        let references: [Vec<Vec<(usize, usize, u32)>>; 2] = [
            am.search_topk(&batch, 45)
                .unwrap()
                .iter()
                .map(|slate| slate.iter().map(|h| (h.row, h.class, h.score)).collect())
                .collect(),
            degraded_reference
                .iter()
                .map(|slate| slate.iter().map(|w| (w.row, w.class, w.score)).collect())
                .collect(),
        ];
        let degraded: Arc<dyn Searchable> = Arc::new(degraded);
        for (generation, reference) in [1u64, 2].into_iter().zip(&references) {
            if generation == 2 {
                assert_eq!(server.publish(Arc::clone(&degraded)).unwrap(), 2);
            }
            let is_degraded = generation == 2;
            // One pipelined window mixing plain argmax submissions with
            // top-k asks of different depths (including k > rows, which
            // clamps): the flush answers the cycle at the largest pending
            // k and every handle truncates back to its own.
            let ks = [1usize, 3, 7, 45];
            let mut plain = Vec::new();
            let mut ranked = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                if i % 2 == 0 {
                    plain.push((i, server.submit(q.as_view()).unwrap()));
                } else {
                    let k = ks[(i / 2) % ks.len()];
                    ranked.push((i, k, server.submit_topk(q.as_view(), k).unwrap()));
                }
            }
            for (i, p) in plain {
                let got = p.wait().unwrap();
                assert_eq!((got.row, got.class, got.score), reference[i][0]);
                assert_eq!((got.generation, got.degraded), (generation, is_degraded), "query {i}");
            }
            for (i, k, p) in ranked {
                let slate = p.wait().unwrap();
                assert_eq!(slate.len(), k.min(reference[i].len()), "query {i} k {k}");
                for (got, want) in slate.iter().zip(&reference[i]) {
                    assert_eq!((got.row, got.class, got.score), *want, "query {i} k {k}");
                    assert_eq!(
                        (got.generation, got.degraded),
                        (generation, is_degraded),
                        "query {i} k {k}"
                    );
                }
            }
            assert!(server.submit_topk(queries[0].as_view(), 0).is_err());
            // The blocking convenience returns the same slate.
            let slate = server.classify_topk(queries[0].as_view(), 3).unwrap();
            let got: Vec<(usize, usize, u32)> =
                slate.iter().map(|p| (p.row, p.class, p.score)).collect();
            assert_eq!(got, reference[0][..3]);
            assert!(slate.iter().all(|p| p.degraded == is_degraded));
        }
    }

    #[test]
    fn deadline_flush_answers_partial_batches() {
        let am = random_am(16, 64, 3);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 4).remove(0);
        // A single query can never fill the batch; only the deadline can
        // answer it.
        let got = server.classify(q.as_view()).unwrap();
        assert_eq!(got.class, am.classify(&q).unwrap());
        assert_eq!(server.stats().deadline_flushes, 1);
        assert_eq!(server.stats().full_flushes, 0);
    }

    #[test]
    fn publish_swaps_generation_for_later_flushes() {
        let dim = 64;
        let am_a = random_am(24, dim, 5);
        let am_b = random_am(24, dim, 6);
        let server = Server::start(
            Arc::clone(&am_a) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 4, max_delay: Duration::from_millis(5), ..Default::default() },
        )
        .unwrap();
        let q = random_queries(1, dim, 7).remove(0);
        let before = server.classify(q.as_view()).unwrap();
        assert_eq!(before.generation, 1);
        assert_eq!(server.publish(Arc::clone(&am_b) as Arc<dyn Searchable>).unwrap(), 2);
        let after = server.classify(q.as_view()).unwrap();
        assert_eq!(after.generation, 2);
        let want = am_b.search(&q).unwrap();
        assert_eq!((after.row, after.score), (want.row, want.score));
    }

    #[test]
    fn rejects_bad_dimensions_and_post_shutdown_submissions() {
        let am = random_am(8, 64, 8);
        let server =
            Server::start(Arc::clone(&am) as Arc<dyn Searchable>, ServeConfig::default()).unwrap();
        assert!(matches!(
            server.submit(BitVector::zeros(65).as_view()),
            Err(ServeError::DimensionMismatch { expected: 64, found: 65 })
        ));
        server.shutdown();
        assert!(matches!(server.submit(BitVector::zeros(64).as_view()), Err(ServeError::Shutdown)));
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let am = random_am(8, 64, 9);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            // Deadline far away: only the shutdown drain can answer.
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_secs(600),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(5, 64, 10);
        let pendings: Vec<Pending> =
            queries.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
        server.shutdown();
        for (q, p) in queries.iter().zip(pendings) {
            assert_eq!(p.wait().unwrap().class, am.classify(q).unwrap());
        }
    }

    #[test]
    fn panicking_model_answers_with_error_and_keeps_flusher_alive() {
        struct PanickyModel;
        impl crate::Searchable for PanickyModel {
            fn dim(&self) -> usize {
                64
            }
            fn rows(&self) -> usize {
                1
            }
            fn search_topk(
                &self,
                _batch: Arc<hd_linalg::QueryBatch>,
                _k: usize,
            ) -> Result<Vec<Vec<crate::Winner>>> {
                panic!("synthetic model failure");
            }
        }
        let server = Server::start(
            Arc::new(PanickyModel),
            // Large max_batch: both flushes go through the deadline
            // flusher, so a contained panic is also proven not to kill
            // that thread.
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 20).remove(0);
        match server.classify(q.as_view()) {
            Err(ServeError::Model { reason }) => {
                assert!(reason.contains("panicked"), "unexpected reason: {reason}")
            }
            other => panic!("expected a Model error, got {other:?}"),
        }
        // The flusher survived: after swapping in a healthy model, the
        // deadline path answers normally.
        let am = random_am(8, 64, 21);
        server.publish(Arc::clone(&am) as Arc<dyn Searchable>).unwrap();
        assert_eq!(server.classify(q.as_view()).unwrap().class, am.classify(&q).unwrap());
    }

    #[test]
    fn zero_max_batch_rejected() {
        let am = random_am(8, 64, 11);
        assert!(Server::start(
            am as Arc<dyn Searchable>,
            ServeConfig { max_batch: 0, max_delay: Duration::from_micros(1), ..Default::default() }
        )
        .is_err());
    }

    /// Regression: a foreign model returning empty top-k slates used to
    /// panic a plain waiter on `slate[0]`; it must surface as a typed
    /// [`ServeError::Model`] instead.
    #[test]
    fn empty_slate_from_foreign_model_is_a_typed_error_not_a_panic() {
        struct EmptySlateModel;
        impl crate::Searchable for EmptySlateModel {
            fn dim(&self) -> usize {
                64
            }
            fn rows(&self) -> usize {
                4
            }
            fn search_topk(
                &self,
                batch: Arc<hd_linalg::QueryBatch>,
                _k: usize,
            ) -> Result<Vec<Vec<crate::Winner>>> {
                Ok(vec![Vec::new(); batch.len()])
            }
        }
        let server = Server::start(
            Arc::new(EmptySlateModel),
            ServeConfig { max_batch: 2, max_delay: Duration::from_millis(5), ..Default::default() },
        )
        .unwrap();
        let queries = random_queries(2, 64, 30);
        // A plain submission sharing a cycle with a top-k one is
        // answered from the (empty) shared slate.
        let plain = server.submit(queries[0].as_view()).unwrap();
        let ranked = server.submit_topk(queries[1].as_view(), 3).unwrap();
        match plain.wait() {
            Err(ServeError::Model { reason }) => {
                assert!(reason.contains("empty"), "unexpected reason: {reason}")
            }
            other => panic!("expected a Model error, got {other:?}"),
        }
        // The top-k waiter legitimately sees the empty slate.
        assert_eq!(ranked.wait().unwrap(), Vec::new());
    }

    #[test]
    fn submit_packed_matches_per_query_submission() {
        let dim = 130; // dirty-tail width
        let am = random_am(40, dim, 31);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(100),
                ..Default::default()
            },
        )
        .unwrap();
        let queries = random_queries(20, dim, 32);
        let mut words: Vec<u64> = Vec::new();
        for q in &queries {
            words.extend_from_slice(q.as_words());
        }
        // One oversized frame (> max_batch) plus a small one: the first
        // flushes inline, the rest ride the deadline flusher.
        let wpq = dim.div_ceil(64);
        let mut pendings = server.submit_packed(&words[..16 * wpq], 1).unwrap();
        pendings.extend(server.submit_packed(&words[16 * wpq..], 3).unwrap());
        assert_eq!(pendings.len(), queries.len());
        let batch = hd_linalg::QueryBatch::from_vectors(&queries).unwrap();
        let reference = am.search_topk(&batch, 3).unwrap();
        for (i, p) in pendings.into_iter().enumerate() {
            let slate = p.wait().unwrap();
            let want_len = if i < 16 { 1 } else { 3 };
            assert_eq!(slate.len(), want_len, "query {i}");
            for (got, want) in slate.iter().zip(&reference[i]) {
                assert_eq!(
                    (got.row, got.class, got.score),
                    (want.row, want.class, want.score),
                    "query {i}"
                );
            }
        }
    }

    #[test]
    fn submit_packed_rejects_malformed_payloads_and_sheds_whole_frames() {
        let dim = 64;
        let am = random_am(8, dim, 33);
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig { max_batch: 4, max_delay: Duration::from_secs(600), max_in_flight: 4 },
        )
        .unwrap();
        assert!(matches!(server.submit_packed(&[], 1), Err(ServeError::MalformedPayload { .. })));
        assert!(matches!(
            server.submit_packed(&[0u64; 2], 0),
            Err(ServeError::InvalidConfig { .. })
        ));
        // A misaligned payload needs a multi-word width: 100 bits = 2
        // words/query, 3 words is one-and-a-half queries.
        let wide =
            Server::start(random_am(8, 100, 34) as Arc<dyn Searchable>, ServeConfig::default())
                .unwrap();
        assert!(matches!(
            wide.submit_packed(&[0u64; 3], 1),
            Err(ServeError::MalformedPayload { .. })
        ));
        // Admission: a 3-query frame fits the 4-slot gauge; a second
        // 3-query frame would exceed it and is shed whole (nothing
        // partially enqueued — the retry succeeds after capacity frees).
        let held = server.submit_packed(&[1u64, 2, 3], 1).unwrap();
        assert_eq!(server.in_flight(), 3);
        assert!(matches!(server.submit_packed(&[4u64, 5, 6], 1), Err(ServeError::Overloaded)));
        assert_eq!(server.in_flight(), 3);
        assert_eq!(server.stats().shed, 3);
        // One more single query fits exactly at the limit, fills the
        // 4-slot batch, and flushes inline — freeing every slot.
        let single = server.submit(BitVector::zeros(dim).as_view()).unwrap();
        assert_eq!(server.in_flight(), 0);
        for p in held {
            p.wait().unwrap();
        }
        single.wait().unwrap();
    }

    #[test]
    fn serves_raw_search_memory_with_row_as_class() {
        let memory = SearchMemory::from_rows(&random_queries(12, 64, 12)).unwrap();
        let server = Server::start(
            Arc::new(memory.clone()) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(50),
                ..Default::default()
            },
        )
        .unwrap();
        let q = random_queries(1, 64, 13).remove(0);
        let got = server.classify(q.as_view()).unwrap();
        assert_eq!(got.row, got.class);
        let direct = memory
            .winners_batch(&QueryBatch::from_vectors(std::slice::from_ref(&q)).unwrap())
            .unwrap()[0];
        assert_eq!((got.row, got.score), direct);
    }
}

//! Batched associative-search kernels.
//!
//! The MEMHD hardware answers *many* queries per array activation; the
//! software analogue is a popcount sweep that amortizes every load of the
//! memory matrix across a register-blocked tile of queries. This module is
//! the single popcount engine of the workspace: the one-query entry points
//! ([`BitMatrix::dot_all`], [`BitVector::dot`]) and the batched ones
//! ([`BitMatrix::dot_batch`], [`BitMatrix::search_batch`]) all bottom out
//! in the same word kernels, so there is exactly one implementation to
//! test and optimize.
//!
//! Layout: a [`QueryBatch`] packs `Q` equal-length queries row-major (the
//! same packing as [`BitMatrix`]); a [`ScoreMatrix`] holds the resulting
//! `Q × R` scores with one contiguous row per query. Kernels tile over
//! queries in blocks of [`QUERY_TILE`] so each memory-row word is loaded
//! once per tile and feeds independent popcount accumulator chains; for
//! the short packed rows typical of MEMHD-sized memories (≤ 8 words, i.e.
//! `D ≤ 512`) a const-generic kernel with fully unrolled word loops
//! removes all per-row slicing overhead.
//!
//! With the `rayon` feature enabled, batches above a size threshold are
//! swept in parallel query chunks (scoped threads; this offline
//! environment has no rayon crate, but the feature name matches the
//! conventional opt-in so downstream crates forward it unchanged). Results
//! are bit-identical with and without the feature.

use crate::bits::{BitMatrix, BitVector, BitView};
use crate::blocked::BlockedBitMatrix;
use crate::error::{LinalgError, Result};
use crate::kernel;
use std::sync::{Arc, Mutex};

/// Queries per register-blocked tile in the batched kernels.
pub(crate) const QUERY_TILE: usize = 8;

/// Minimum `Q × R` word-products before the `rayon` feature spreads a
/// batch across threads; below this the spawn cost dominates.
#[cfg(feature = "rayon")]
pub(crate) const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Minimum word-slice width before the runtime-dispatched SIMD kernels
/// beat the inline scalar loop; below this the indirect call costs more
/// than the vectorization saves (a MEMHD-sized 128-bit row is 2 words).
const DISPATCH_MIN_WORDS: usize = 8;

/// Minimum batch size before the SIMD entry points re-pack a row-major
/// memory into the interleaved [`BlockedBitMatrix`] layout on the fly;
/// below this the packing cost cannot amortize and the scalar tiled
/// kernels win. Long-lived memories should hold a
/// [`crate::SearchMemory`], which packs once at construction.
const MIN_PACK_QUERIES: usize = 32;

/// Popcount dot product of two equal-length word slices. Routes through
/// the active [`crate::kernel`] backend for wide slices; short slices
/// (every MEMHD-sized row) keep the inline scalar loop.
#[inline]
pub(crate) fn dot_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < DISPATCH_MIN_WORDS {
        kernel::scalar::dot_words(a, b)
    } else {
        // The SIMD kernels read both slices up to `a.len()`; enforce the
        // equal-length contract here even in release builds (the check is
        // noise next to a ≥ 8-word sweep, and a violation would otherwise
        // be an out-of-bounds read rather than safe truncation).
        assert_eq!(a.len(), b.len(), "dot_words: length mismatch");
        (kernel::active_table().dot_words)(a, b)
    }
}

/// Multi-row popcount dot: adds each row's `popcount(row & qs)` into the
/// matching `out` slot, dispatched like [`dot_words`]. One call scores a
/// whole cascade shortlist against one staged query segment, letting the
/// AVX-512 path share each 512-bit query load across four rows.
#[inline]
pub(crate) fn multi_dot_words(qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
    debug_assert_eq!(rows.len(), out.len());
    if qs.len() < DISPATCH_MIN_WORDS {
        kernel::scalar::multi_dot_words(qs, rows, out);
    } else {
        assert_eq!(rows.len(), out.len(), "multi_dot_words: rows/out length mismatch");
        for r in rows {
            assert_eq!(r.len(), qs.len(), "multi_dot_words: length mismatch");
        }
        (kernel::active_table().multi_dot_words)(qs, rows, out)
    }
}

/// Popcount XOR (Hamming distance) of two equal-length word slices,
/// dispatched like [`dot_words`].
#[inline]
pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < DISPATCH_MIN_WORDS {
        kernel::scalar::hamming_words(a, b)
    } else {
        assert_eq!(a.len(), b.len(), "hamming_words: length mismatch");
        (kernel::active_table().hamming_words)(a, b)
    }
}

/// A borrowed associative memory in either storage layout — what the
/// batched dispatchers sweep. Entry points choose the representation
/// ([`BlockedBitMatrix`] when the active backend is SIMD and the batch is
/// large enough to amortize packing) and the `rayon` query chunking
/// composes identically on top of both.
#[derive(Clone, Copy)]
pub(crate) enum MemoryRef<'a> {
    /// Row-major packed rows (the scalar tiled kernels).
    Rows(&'a BitMatrix),
    /// Interleaved row blocks (the SIMD blocked kernels).
    Blocked(&'a BlockedBitMatrix),
}

impl MemoryRef<'_> {
    #[inline]
    #[cfg(feature = "rayon")]
    fn rows(&self) -> usize {
        match self {
            MemoryRef::Rows(m) => m.rows(),
            MemoryRef::Blocked(b) => b.rows(),
        }
    }

    #[inline]
    #[cfg(feature = "rayon")]
    fn words_per_row(&self) -> usize {
        match self {
            MemoryRef::Rows(m) => m.words_per_row_pub(),
            MemoryRef::Blocked(b) => b.words_per_row(),
        }
    }
}

/// Packs `m` for a SIMD sweep when the active backend and batch size
/// justify it.
fn pack_for_sweep(m: &BitMatrix, queries: usize) -> Option<BlockedBitMatrix> {
    (kernel::active() != kernel::Backend::Scalar && queries >= MIN_PACK_QUERIES)
        .then(|| BlockedBitMatrix::from_matrix(m))
}

/// A packed batch of equal-length binary queries.
///
/// Construction packs the queries once; every subsequent batched search
/// reuses the packed words without touching the originals. The packed
/// storage is shared (`Arc`), so clones — and the word-aligned
/// column-segment views [`QueryBatch::word_segment`] hands out — are
/// zero-copy. Column-partitioned layouts should go through
/// [`QueryBatch::segments`], whose derived per-partition views (packed
/// once even off the word grid) are cached on the batch and shared with
/// clones.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, QueryBatch};
///
/// let queries = vec![
///     BitVector::from_bools(&[true, false, true]),
///     BitVector::from_bools(&[false, true, true]),
/// ];
/// let batch = QueryBatch::from_vectors(&queries).unwrap();
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.dim(), 3);
/// ```
#[derive(Clone)]
pub struct QueryBatch {
    queries: Arc<BitMatrix>,
    /// First visible packed word of every row — non-zero only for
    /// column-segment views.
    word_lo: usize,
    /// Visible bits per query (the full width for non-segment batches).
    dim: usize,
    /// Lazily-derived per-partition segment views ([`QueryBatch::segments`]),
    /// keyed by segment length and shared across clones so repeat
    /// searches of the same batch reuse one derivation.
    seg_cache: Arc<Mutex<SegCache>>,
}

/// At most this many distinct partitionings are cached per batch — a
/// batch is normally segmented exactly one way (its mapping's `D / P`),
/// with one spare slot for mixed-layout pipelines.
const SEG_CACHE_SLOTS: usize = 2;

type SegCache = Vec<(usize, Arc<[QueryBatch]>)>;

// The segment-view cache is a derivation, not data: equality, hashing
// (none), and Debug output consider only the visible queries.
impl PartialEq for QueryBatch {
    fn eq(&self, other: &Self) -> bool {
        self.word_lo == other.word_lo && self.dim == other.dim && self.queries == other.queries
    }
}

impl Eq for QueryBatch {}

impl std::fmt::Debug for QueryBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBatch")
            .field("queries", &self.queries)
            .field("word_lo", &self.word_lo)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

impl QueryBatch {
    /// Packs a slice of equal-length queries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::RaggedRows`] on length disagreement.
    pub fn from_vectors(queries: &[BitVector]) -> Result<Self> {
        Ok(Self::from_matrix(BitMatrix::from_rows(queries)?))
    }

    /// Wraps an existing packed matrix (rows = queries).
    pub fn from_matrix(queries: BitMatrix) -> Self {
        let dim = queries.cols();
        QueryBatch {
            queries: Arc::new(queries),
            word_lo: 0,
            dim,
            seg_cache: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Number of queries `Q`.
    pub fn len(&self) -> usize {
        self.queries.rows()
    }

    /// Whether the batch is empty (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.queries.rows() == 0
    }

    /// Query dimensionality `D` (the visible segment width for views from
    /// [`QueryBatch::word_segment`]).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows query `q` as a zero-copy [`BitView`] over the packed words
    /// (use [`BitView::to_bit_vector`] when an owned copy is needed).
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn query(&self, q: usize) -> BitView<'_> {
        BitView::from_clean_words(self.query_words(q), self.dim)
    }

    /// The underlying packed matrix.
    ///
    /// # Panics
    ///
    /// Panics on a column-segment view (from
    /// [`QueryBatch::word_segment`]): a segment has no standalone packed
    /// matrix — that is the copy the view exists to avoid.
    pub fn as_bit_matrix(&self) -> &BitMatrix {
        assert!(
            self.word_lo == 0 && self.dim == self.queries.cols(),
            "as_bit_matrix on a column-segment view"
        );
        &self.queries
    }

    /// A zero-copy view of bit columns `[start, start + len)` of every
    /// query — what column-partitioned layouts (`SegmentedCascade`,
    /// `imc_sim`'s partitioned mappings) feed their per-partition sweeps
    /// instead of re-packing each query's segment. The view shares the
    /// batch's packed storage and behaves as a `len`-bit [`QueryBatch`]
    /// everywhere (searches, further word-aligned sub-segmenting).
    ///
    /// `start` must be word-aligned (`start % 64 == 0`), and the segment
    /// must either end word-aligned or run to the batch's full width —
    /// the two shapes whose packed words are a clean sub-slice of each
    /// row. Unaligned segments need [`BitView::slice`] re-packing.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a zero-width segment,
    /// [`LinalgError::IndexOutOfBounds`] when the segment overruns the
    /// batch width, and [`LinalgError::ShapeMismatch`] for boundaries off
    /// the word grid.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, QueryBatch};
    ///
    /// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 130])]).unwrap();
    /// let seg = batch.word_segment(64, 64).unwrap(); // no copy
    /// assert_eq!((seg.len(), seg.dim()), (1, 64));
    /// assert_eq!(seg.query(0), batch.query(0).slice(64, 64));
    /// ```
    pub fn word_segment(&self, start: usize, len: usize) -> Result<QueryBatch> {
        if len == 0 {
            return Err(LinalgError::Empty { op: "QueryBatch::word_segment" });
        }
        let end = start.checked_add(len).filter(|&e| e <= self.dim).ok_or(
            LinalgError::IndexOutOfBounds { index: start.saturating_add(len), bound: self.dim },
        )?;
        if !start.is_multiple_of(64) || !(end.is_multiple_of(64) || end == self.dim) {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatch::word_segment",
                expected: 64,
                found: if start.is_multiple_of(64) { end % 64 } else { start % 64 },
            });
        }
        Ok(QueryBatch {
            queries: Arc::clone(&self.queries),
            word_lo: self.word_lo + start / 64,
            dim: len,
            seg_cache: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The batch pre-sliced into its `dim / seg_len` consecutive
    /// `seg_len`-bit segments — the zero-repack entry point for
    /// column-partitioned layouts ([`crate::SegmentedCascade`],
    /// `imc_sim`'s partitioned mappings). Segments on the word grid are
    /// zero-copy [`QueryBatch::word_segment`] windows; segments off it
    /// are per-bit re-packed **once**, cached on the batch, and shared
    /// with every clone — repeated searches of the same batch stop
    /// rebuilding their query segments on every call.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `seg_len == 0` and
    /// [`LinalgError::ShapeMismatch`] when `seg_len` does not divide the
    /// batch width.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, QueryBatch};
    ///
    /// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 300])]).unwrap();
    /// let segs = batch.segments(100).unwrap(); // 100 % 64 != 0: packed once
    /// assert_eq!(segs.len(), 3);
    /// assert_eq!(segs[1].query(0), batch.query(0).slice(100, 100));
    /// // Repeat calls (and clones) hand back the same cached derivation.
    /// assert!(std::sync::Arc::ptr_eq(&segs, &batch.clone().segments(100).unwrap()));
    /// ```
    pub fn segments(&self, seg_len: usize) -> Result<Arc<[QueryBatch]>> {
        if seg_len == 0 {
            return Err(LinalgError::Empty { op: "QueryBatch::segments" });
        }
        if !self.dim.is_multiple_of(seg_len) {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatch::segments",
                expected: seg_len,
                found: self.dim,
            });
        }
        let mut cache = self.seg_cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(pos) = cache.iter().position(|(s, _)| *s == seg_len) {
            // LRU touch: move the hit to the back so the hot partitioning
            // outlives transient one-off segmentations instead of being
            // the next FIFO eviction victim.
            let entry = cache.remove(pos);
            let segs = Arc::clone(&entry.1);
            cache.push(entry);
            return Ok(segs);
        }
        let parts = self.dim / seg_len;
        let built: Vec<QueryBatch> = (0..parts)
            .map(|p| {
                let start = p * seg_len;
                let end = start + seg_len;
                if start.is_multiple_of(64) && (end.is_multiple_of(64) || end == self.dim) {
                    self.word_segment(start, seg_len).expect("validated aligned window")
                } else {
                    // The one-time per-bit re-pack for segments off the
                    // word grid — amortized by the cache below.
                    let segs: Vec<BitVector> =
                        (0..self.len()).map(|i| self.query(i).slice(start, seg_len)).collect();
                    QueryBatch::from_vectors(&segs).expect("equal-width non-empty segments")
                }
            })
            .collect();
        let segs: Arc<[QueryBatch]> = built.into();
        while cache.len() >= SEG_CACHE_SLOTS {
            cache.remove(0);
        }
        cache.push((seg_len, Arc::clone(&segs)));
        Ok(segs)
    }

    #[inline]
    pub(crate) fn query_words(&self, q: usize) -> &[u64] {
        let row = self.queries.row_words_pub(q);
        &row[self.word_lo..self.word_lo + self.dim.div_ceil(64)]
    }
}

/// Incrementally packs single queries into a [`QueryBatch`] without
/// re-packing at build time — the accumulation buffer of a micro-batching
/// service, where queries arrive one at a time but must leave as one
/// packed batch.
///
/// Every [`QueryBatchBuilder::push`] appends the query's packed words to
/// one contiguous row-major buffer (exactly the [`QueryBatch`] layout),
/// so [`QueryBatchBuilder::take_batch`] is a move, not a copy.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, QueryBatchBuilder};
///
/// let mut b = QueryBatchBuilder::new(3);
/// b.push(BitVector::from_bools(&[true, false, true]).as_view()).unwrap();
/// b.push(BitVector::from_bools(&[false, true, true]).as_view()).unwrap();
/// let batch = b.take_batch().unwrap();
/// assert_eq!((batch.len(), batch.dim()), (2, 3));
/// assert!(b.is_empty()); // ready for the next fill cycle
/// ```
#[derive(Debug, Clone)]
pub struct QueryBatchBuilder {
    dim: usize,
    words_per_row: usize,
    len: usize,
    data: Vec<u64>,
}

impl QueryBatchBuilder {
    /// Creates an empty builder for queries of `dim` bits.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "query dimensionality must be positive");
        QueryBatchBuilder { dim, words_per_row: dim.div_ceil(64), len: 0, data: Vec::new() }
    }

    /// Like [`QueryBatchBuilder::new`] with room for `queries` queries.
    pub fn with_capacity(dim: usize, queries: usize) -> Self {
        let mut b = Self::new(dim);
        b.data.reserve(queries * b.words_per_row);
        b
    }

    /// Queries accumulated so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no queries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Query dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Appends one query (packed word copy, no bit manipulation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `query.len() != dim()`.
    pub fn push(&mut self, query: BitView<'_>) -> Result<()> {
        if query.len() != self.dim {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatchBuilder::push",
                expected: self.dim,
                found: query.len(),
            });
        }
        self.data.extend_from_slice(query.as_words());
        self.len += 1;
        Ok(())
    }

    /// Appends already-packed queries in one word copy — the zero-repack
    /// wire-ingest path. `words` must hold a whole number of
    /// `dim().div_ceil(64)`-word rows laid out exactly as [`QueryBatch`]
    /// stores them (row-major, little-endian bit order within each word);
    /// a network frame whose payload uses that layout lands in the
    /// builder with a single `memcpy` and no per-bit repacking. Returns
    /// the number of queries appended.
    ///
    /// Padding bits past `dim()` in each row's last word are cleared
    /// here: wire payloads are untrusted, and every other producer of
    /// packed words in this crate maintains the clean-tail invariant the
    /// popcount kernels rely on.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::ShapeMismatch`] if `words.len()` is not a multiple
    /// of the per-row word count.
    pub fn push_packed_words(&mut self, words: &[u64]) -> Result<usize> {
        if words.is_empty() {
            return Err(LinalgError::Empty { op: "QueryBatchBuilder::push_packed_words" });
        }
        if !words.len().is_multiple_of(self.words_per_row) {
            return Err(LinalgError::ShapeMismatch {
                op: "QueryBatchBuilder::push_packed_words",
                expected: self.words_per_row,
                found: words.len(),
            });
        }
        let count = words.len() / self.words_per_row;
        let start = self.data.len();
        self.data.extend_from_slice(words);
        let tail = self.dim % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            let mut row_end = start + self.words_per_row - 1;
            while row_end < self.data.len() {
                self.data[row_end] &= mask;
                row_end += self.words_per_row;
            }
        }
        self.len += count;
        Ok(count)
    }

    /// Moves the accumulated queries out as a packed [`QueryBatch`],
    /// leaving the builder empty and ready for the next fill cycle (the
    /// replacement buffer is pre-sized to the outgoing one's capacity, so
    /// a steady-state fill/take loop never walks the reallocation
    /// ladder).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if no queries were pushed.
    pub fn take_batch(&mut self) -> Result<QueryBatch> {
        if self.len == 0 {
            return Err(LinalgError::Empty { op: "QueryBatchBuilder::take_batch" });
        }
        let rows = std::mem::take(&mut self.len);
        let capacity = self.data.capacity();
        let data = std::mem::replace(&mut self.data, Vec::with_capacity(capacity));
        Ok(QueryBatch::from_matrix(BitMatrix::from_raw_words(rows, self.dim, data)))
    }
}

/// A dense `Q × R` matrix of dot-similarity scores: row `q` holds query
/// `q`'s score against every memory row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreMatrix {
    queries: usize,
    rows: usize,
    data: Vec<u32>,
}

impl ScoreMatrix {
    /// Creates a zeroed `queries × rows` score matrix (reusable scratch for
    /// [`BitMatrix::dot_batch_into`]).
    pub fn zeros(queries: usize, rows: usize) -> Self {
        ScoreMatrix { queries, rows, data: vec![0; queries * rows] }
    }

    /// `(queries, rows)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.queries, self.rows)
    }

    /// Number of queries `Q`.
    pub fn num_queries(&self) -> usize {
        self.queries
    }

    /// Number of memory rows `R` scored per query.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Scores of query `q` against every memory row.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_queries()`.
    pub fn scores(&self, q: usize) -> &[u32] {
        &self.data[q * self.rows..(q + 1) * self.rows]
    }

    /// Winning `(row, score)` for query `q`, ties toward the lower row
    /// index — the tie-break every associative search in the workspace
    /// uses.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_queries()` or the matrix has zero rows.
    pub fn argmax(&self, q: usize) -> (usize, u32) {
        argmax_scores(self.scores(q))
    }

    /// Mutable scores of query `q` — for callers that accumulate partial
    /// scores across sub-searches (e.g. partitioned IMC mappings).
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_queries()`.
    pub fn scores_mut(&mut self, q: usize) -> &mut [u32] {
        &mut self.data[q * self.rows..(q + 1) * self.rows]
    }

    /// Resizes (reallocating only on growth) and zeroes the matrix.
    pub fn reset(&mut self, queries: usize, rows: usize) {
        self.queries = queries;
        self.rows = rows;
        self.data.clear();
        self.data.resize(queries * rows, 0);
    }

    /// The full row-major score buffer — kernel-facing access for the
    /// blocked sweep implementations.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [u32] {
        &mut self.data
    }
}

/// Winner selection over a score row: highest score, ties toward the
/// lower index — the tie-break every associative search in the workspace
/// shares (exported as [`crate::argmax_u32`]).
///
/// Two passes, both branch-predictable and auto-vectorizable: a `u32` max
/// reduction, then the first position holding the max (which IS the
/// lowest-index tie-break).
///
/// # Panics
///
/// Panics if `scores` is empty.
#[inline]
pub fn argmax_scores(scores: &[u32]) -> (usize, u32) {
    assert!(!scores.is_empty(), "argmax over empty score row");
    let max = scores.iter().copied().max().expect("non-empty");
    let idx = scores.iter().position(|&s| s == max).expect("max exists");
    (idx, max)
}

/// Winners of a batched associative search: per query, the best memory row
/// under dot similarity (ties toward the lower row), plus the full score
/// matrix for callers that need runner-ups (e.g. within-class argmax during
/// training).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResults {
    scores: ScoreMatrix,
    winners: Vec<(usize, u32)>,
}

impl SearchResults {
    pub(crate) fn from_scores(scores: ScoreMatrix) -> Self {
        let winners = (0..scores.num_queries()).map(|q| scores.argmax(q)).collect();
        SearchResults { scores, winners }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.winners.len()
    }

    /// Whether there are no results.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// Winning `(row, score)` of query `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn winner(&self, q: usize) -> (usize, u32) {
        self.winners[q]
    }

    /// Winning row indices, one per query.
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.winners.iter().map(|&(r, _)| r)
    }

    /// The full `Q × R` score matrix.
    pub fn score_matrix(&self) -> &ScoreMatrix {
        &self.scores
    }

    /// Consumes the results, yielding the score matrix without a copy.
    pub fn into_score_matrix(self) -> ScoreMatrix {
        self.scores
    }

    /// Scores of query `q` against every memory row.
    pub fn scores(&self, q: usize) -> &[u32] {
        self.scores.scores(q)
    }
}

/// Per-query k-best results of a batched top-k associative search: for
/// every query, the `min(k, rows)` best `(row, score)` pairs sorted by
/// score descending, ties toward the lower row — the same order a stable
/// sort of the full score row by `(score desc, row asc)` produces, so the
/// list's first entry IS the [`BitMatrix::winners_batch`] winner.
///
/// Storage is one flat buffer with [`TopK::hits_per_query`] slots per
/// query; [`TopK::hits`] slices it per query without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    queries: usize,
    k: usize,
    per_query: usize,
    entries: Vec<(usize, u32)>,
}

impl TopK {
    pub(crate) fn from_flat(
        queries: usize,
        k: usize,
        per_query: usize,
        entries: Vec<(usize, u32)>,
    ) -> Self {
        debug_assert_eq!(entries.len(), queries * per_query);
        TopK { queries, k, per_query, entries }
    }

    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.queries
    }

    /// Whether no queries were answered.
    pub fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// The `k` that was requested.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries actually held per query: `min(k, rows)` (a memory with
    /// fewer rows than `k` yields every row).
    #[inline]
    pub fn hits_per_query(&self) -> usize {
        self.per_query
    }

    /// Query `q`'s k-best `(row, score)` list, best first.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    pub fn hits(&self, q: usize) -> &[(usize, u32)] {
        &self.entries[q * self.per_query..(q + 1) * self.per_query]
    }

    /// Consumes the results into one owned list per query.
    pub fn into_vecs(self) -> Vec<Vec<(usize, u32)>> {
        self.entries.chunks(self.per_query.max(1)).map(|c| c.to_vec()).collect()
    }

    /// Consumes the results into the flat per-query lists.
    pub(crate) fn into_entries(self) -> Vec<(usize, u32)> {
        self.entries
    }
}

/// Bounded k-best insertion for an **ascending-row** scan: `list[..
/// *filled]` stays sorted by `(score desc, row asc)`. Rows arrive in
/// ascending order, so a strict `>` threshold against the current k-th
/// score is exact — a later row tying the k-th score loses the row-asc
/// tie-break and can never displace it — and the common case is a single
/// compare (branch only on beat).
#[inline]
pub(crate) fn topk_insert(list: &mut [(usize, u32)], filled: &mut usize, row: usize, score: u32) {
    let n = *filled;
    if n == list.len() {
        if score <= list[n - 1].1 {
            return;
        }
        let mut i = n - 1;
        while i > 0 && list[i - 1].1 < score {
            list[i] = list[i - 1];
            i -= 1;
        }
        list[i] = (row, score);
    } else {
        let mut i = n;
        while i > 0 && list[i - 1].1 < score {
            list[i] = list[i - 1];
            i -= 1;
        }
        list[i] = (row, score);
        *filled = n + 1;
    }
}

impl BitVector {
    /// Dot similarity of this vector against each of `others` — the
    /// one-query-many-memories fast path (all popcounts through the shared
    /// word kernel, no per-pair temporaries).
    ///
    /// # Panics
    ///
    /// Panics if any element of `others` has a different length.
    pub fn dot_many(&self, others: &[BitVector]) -> Vec<u32> {
        others
            .iter()
            .map(|o| {
                assert_eq!(
                    o.len(),
                    self.len(),
                    "dot_many: length mismatch ({} vs {})",
                    o.len(),
                    self.len()
                );
                dot_words(self.as_words(), o.as_words())
            })
            .collect()
    }

    /// Hamming distance of this vector against each of `others`.
    ///
    /// # Panics
    ///
    /// Panics if any element of `others` has a different length.
    pub fn hamming_many(&self, others: &[BitVector]) -> Vec<u32> {
        others
            .iter()
            .map(|o| {
                assert_eq!(
                    o.len(),
                    self.len(),
                    "hamming_many: length mismatch ({} vs {})",
                    o.len(),
                    self.len()
                );
                hamming_words(self.as_words(), o.as_words())
            })
            .collect()
    }
}

/// Core tiled kernel: scores `q_count` queries of `batch` starting at
/// `q_offset` against every row of `memory`, writing row-major into `out`
/// (`q_count × rows` values). Queries advance in tiles of [`QUERY_TILE`]
/// so each memory word is loaded once per tile and feeds independent
/// popcount accumulator chains (ILP), with no per-query allocation.
///
/// Packed-row widths up to 8 words (`D ≤ 512` — every MEMHD AM shape)
/// dispatch to a const-generic kernel whose word loops unroll completely;
/// wider memories take the generic sliced path, where per-word popcounts
/// dominate anyway.
fn dot_batch_kernel(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    q_count: usize,
    out: &mut [u32],
) {
    debug_assert_eq!(out.len(), q_count * memory.rows());
    match memory.words_per_row_pub() {
        1 => kernel_fixed::<1>(memory, batch, q_offset, q_count, out),
        2 => kernel_fixed::<2>(memory, batch, q_offset, q_count, out),
        3 => kernel_fixed::<3>(memory, batch, q_offset, q_count, out),
        4 => kernel_fixed::<4>(memory, batch, q_offset, q_count, out),
        5 => kernel_fixed::<5>(memory, batch, q_offset, q_count, out),
        6 => kernel_fixed::<6>(memory, batch, q_offset, q_count, out),
        7 => kernel_fixed::<7>(memory, batch, q_offset, q_count, out),
        8 => kernel_fixed::<8>(memory, batch, q_offset, q_count, out),
        _ => kernel_generic(memory, batch, q_offset, q_count, out),
    }
}

/// Splits the output block of one query tile into per-query score rows.
#[inline]
fn tile_outputs(out: &mut [u32], q: usize, rows: usize) -> [&mut [u32]; QUERY_TILE] {
    let mut chunks = out[q * rows..(q + QUERY_TILE) * rows].chunks_exact_mut(rows);
    std::array::from_fn(|_| chunks.next().expect("tile output block is QUERY_TILE rows"))
}

/// Fixed-width kernel: `W` = packed words per memory row, known at compile
/// time so the per-row word loop unrolls into straight-line popcounts and
/// the tile's query words live in registers across the whole row sweep.
fn kernel_fixed<const W: usize>(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    q_count: usize,
    out: &mut [u32],
) {
    let rows = memory.rows();
    let words = memory.data_words_pub();
    debug_assert_eq!(words.len(), rows * W);
    let mut q = 0usize;
    while q + QUERY_TILE <= q_count {
        let mut qw = [[0u64; W]; QUERY_TILE];
        for (j, qj) in qw.iter_mut().enumerate() {
            // Queries may be wider than the memory (a cascade stage-0
            // sweep drives a prefix sub-memory with full-width queries);
            // only the memory's words participate.
            qj.copy_from_slice(&batch.query_words(q_offset + q + j)[..W]);
        }
        let mut outs = tile_outputs(out, q, rows);
        for (r, rw) in words.chunks_exact(W).enumerate() {
            let mut acc = [0u32; QUERY_TILE];
            for i in 0..W {
                let w = rw[i];
                for (a, qj) in acc.iter_mut().zip(&qw) {
                    *a += (w & qj[i]).count_ones();
                }
            }
            for (o, a) in outs.iter_mut().zip(acc) {
                o[r] = a;
            }
        }
        q += QUERY_TILE;
    }
    kernel_tail(memory, batch, q_offset, q, q_count, out);
}

/// Generic-width kernel for memories wider than 8 packed words; the
/// re-sliced word loop lets the compiler elide bounds checks, and the
/// per-word popcount stream dominates the per-row overhead at this size.
fn kernel_generic(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    q_count: usize,
    out: &mut [u32],
) {
    let rows = memory.rows();
    let mut q = 0usize;
    while q + QUERY_TILE <= q_count {
        let qs: [&[u64]; QUERY_TILE] = std::array::from_fn(|j| batch.query_words(q_offset + q + j));
        let mut outs = tile_outputs(out, q, rows);
        for r in 0..rows {
            let row = memory.row_words_pub(r);
            let n = row.len();
            let mut acc = [0u32; QUERY_TILE];
            for (a, qj) in acc.iter_mut().zip(qs) {
                *a = dot_words(row, &qj[..n]);
            }
            for (o, a) in outs.iter_mut().zip(acc) {
                o[r] = a;
            }
        }
        q += QUERY_TILE;
    }
    kernel_tail(memory, batch, q_offset, q, q_count, out);
}

/// Scores the final `q_count - q` queries one at a time through the
/// shared word kernel.
fn kernel_tail(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    mut q: usize,
    q_count: usize,
    out: &mut [u32],
) {
    let rows = memory.rows();
    let wpr = memory.words_per_row_pub();
    while q < q_count {
        let qw = &batch.query_words(q_offset + q)[..wpr];
        let row_out = &mut out[q * rows..(q + 1) * rows];
        for (r, slot) in row_out.iter_mut().enumerate() {
            *slot = dot_words(memory.row_words_pub(r), qw);
        }
        q += 1;
    }
}

/// Routes one contiguous query range to the layout-appropriate kernel:
/// the scalar tiled kernels for row-major memories, the active backend's
/// blocked sweep for interleaved ones.
fn dot_range(
    mem: MemoryRef<'_>,
    batch: &QueryBatch,
    q_offset: usize,
    q_count: usize,
    out: &mut [u32],
) {
    match mem {
        MemoryRef::Rows(m) => dot_batch_kernel(m, batch, q_offset, q_count, out),
        MemoryRef::Blocked(b) => {
            (kernel::active_table().blocked_dot_range)(b, batch, q_offset, q_count, out)
        }
    }
}

#[cfg(feature = "rayon")]
pub(crate) fn dot_batch_dispatch(memory: MemoryRef<'_>, batch: &QueryBatch, out: &mut ScoreMatrix) {
    let q = batch.len();
    let rows = memory.rows();
    let work = q * rows * memory.words_per_row();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if threads < 2 || work < PARALLEL_THRESHOLD || q < 2 * QUERY_TILE {
        dot_range(memory, batch, 0, q, &mut out.data);
        return;
    }
    // Chunk queries across threads; each chunk owns a disjoint slice of
    // the output, so the sweep is embarrassingly parallel and the result
    // is bit-identical to the serial order. Chunks align to the query
    // tile so only the final chunk runs the scalar tail.
    let chunks = threads.min(q.div_ceil(QUERY_TILE));
    let per_chunk = q.div_ceil(chunks).next_multiple_of(QUERY_TILE);
    let mut jobs: Vec<(usize, usize, &mut [u32])> = Vec::with_capacity(chunks);
    let mut rest = out.data.as_mut_slice();
    let mut offset = 0usize;
    while offset < q {
        let take = per_chunk.min(q - offset);
        let (head, tail) = rest.split_at_mut(take * rows);
        jobs.push((offset, take, head));
        rest = tail;
        offset += take;
    }
    std::thread::scope(|scope| {
        for (q_offset, q_count, chunk_out) in jobs {
            scope.spawn(move || dot_range(memory, batch, q_offset, q_count, chunk_out));
        }
    });
}

#[cfg(not(feature = "rayon"))]
pub(crate) fn dot_batch_dispatch(memory: MemoryRef<'_>, batch: &QueryBatch, out: &mut ScoreMatrix) {
    dot_range(memory, batch, 0, batch.len(), &mut out.data);
}

impl BitMatrix {
    /// Dot similarity of every row against every query of `batch` — the
    /// batched associative search (`Q` in-memory MVMs in the paper's
    /// architecture, answered in one sweep).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn dot_batch(&self, batch: &QueryBatch) -> Result<ScoreMatrix> {
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows());
        self.dot_batch_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`BitMatrix::dot_batch`] but reuses `out` as scratch (resized
    /// as needed) — the zero-allocation path for tiled sweeps that call
    /// the kernel repeatedly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn dot_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        if batch.dim() != self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "dot_batch",
                expected: self.cols(),
                found: batch.dim(),
            });
        }
        out.reset(batch.len(), self.rows());
        match pack_for_sweep(self, batch.len()) {
            Some(blocked) => dot_batch_dispatch(MemoryRef::Blocked(&blocked), batch, out),
            None => dot_batch_dispatch(MemoryRef::Rows(self), batch, out),
        }
        Ok(())
    }

    /// Batched associative search: per query, the winning row under dot
    /// similarity (ties toward the lower row) plus the full score matrix.
    ///
    /// When only the winners are needed, prefer
    /// [`BitMatrix::winners_batch`], which never materializes the `Q × R`
    /// score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<SearchResults> {
        Ok(SearchResults::from_scores(self.dot_batch(batch)?))
    }

    /// Batched associative search returning only the winning `(row,
    /// score)` per query.
    ///
    /// Runs the same tiled kernel as [`BitMatrix::dot_batch`] but in
    /// query blocks whose score scratch stays cache-resident: scores are
    /// reduced to winners while hot instead of being streamed out, which
    /// is what makes large-batch classification markedly faster than the
    /// per-query loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn winners_batch(&self, batch: &QueryBatch) -> Result<Vec<(usize, u32)>> {
        if batch.dim() != self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "winners_batch",
                expected: self.cols(),
                found: batch.dim(),
            });
        }
        let q_total = batch.len();
        let mut winners = vec![(0usize, 0u32); q_total];
        match pack_for_sweep(self, q_total) {
            Some(blocked) => topk_dispatch(MemoryRef::Blocked(&blocked), batch, 1, &mut winners),
            None => topk_dispatch(MemoryRef::Rows(self), batch, 1, &mut winners),
        }
        Ok(winners)
    }

    /// Batched top-k associative search: per query, the `min(k, rows)`
    /// best `(row, score)` pairs under dot similarity, sorted by score
    /// descending with ties toward the lower row — fused into the sweep
    /// (a bounded k-best list per query, threshold = the running k-th
    /// score), never materializing the `Q × R` score matrix.
    ///
    /// `k == 1` is exactly [`BitMatrix::winners_batch`]; `k >= rows`
    /// returns every row in sorted order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `k == 0` or the memory has no
    /// rows, and [`LinalgError::ShapeMismatch`] if the batch
    /// dimensionality differs from `cols`.
    pub fn topk_batch(&self, batch: &QueryBatch, k: usize) -> Result<TopK> {
        if k == 0 || self.rows() == 0 {
            return Err(LinalgError::Empty { op: "topk_batch" });
        }
        if batch.dim() != self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "topk_batch",
                expected: self.cols(),
                found: batch.dim(),
            });
        }
        let per_query = k.min(self.rows());
        let mut entries = vec![(0usize, 0u32); batch.len() * per_query];
        match pack_for_sweep(self, batch.len()) {
            Some(blocked) => {
                topk_dispatch(MemoryRef::Blocked(&blocked), batch, per_query, &mut entries)
            }
            None => topk_dispatch(MemoryRef::Rows(self), batch, per_query, &mut entries),
        }
        Ok(TopK::from_flat(batch.len(), k, per_query, entries))
    }
}

/// Routes one contiguous winners range to the layout-appropriate kernel.
fn winners_range(
    mem: MemoryRef<'_>,
    batch: &QueryBatch,
    q_offset: usize,
    out: &mut [(usize, u32)],
) {
    match mem {
        MemoryRef::Rows(m) => winners_rows_range(m, batch, q_offset, out),
        MemoryRef::Blocked(b) => {
            (kernel::active_table().blocked_winners_range)(b, batch, q_offset, out)
        }
    }
}

/// Blocked winners sweep over queries `[q_offset, q_offset + out.len())`.
///
/// Fixed-width memories use a fused kernel that tracks each tile query's
/// running winner in registers (no score matrix is ever written); wider
/// memories fill a cache-resident scratch block and reduce it while hot.
fn winners_rows_range(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    out: &mut [(usize, u32)],
) {
    match memory.words_per_row_pub() {
        1 => winners_kernel_fixed::<1>(memory, batch, q_offset, out),
        2 => winners_kernel_fixed::<2>(memory, batch, q_offset, out),
        3 => winners_kernel_fixed::<3>(memory, batch, q_offset, out),
        4 => winners_kernel_fixed::<4>(memory, batch, q_offset, out),
        5 => winners_kernel_fixed::<5>(memory, batch, q_offset, out),
        6 => winners_kernel_fixed::<6>(memory, batch, q_offset, out),
        7 => winners_kernel_fixed::<7>(memory, batch, q_offset, out),
        8 => winners_kernel_fixed::<8>(memory, batch, q_offset, out),
        _ => winners_blocked(memory, batch, q_offset, out),
    }
}

/// Query-side width of the fused winners kernel's 2-D register block.
/// Small enough that the tile's query words stay in registers.
const WINNER_QT: usize = 4;
/// Row-side depth of the 2-D block: each loaded memory word feeds
/// [`WINNER_QT`] queries, and each loaded query word feeds this many rows.
const WINNER_RT: usize = 4;

/// Fused fixed-width winners kernel: a 2-D register block (4 rows × 4
/// queries) so every loaded word — memory or query — feeds four popcount
/// chains, and each query's best `(row, score)` is tracked in registers
/// with a strict `>` compare (which preserves the lowest-row tie-break).
/// No score ever touches memory.
fn winners_kernel_fixed<const W: usize>(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    out: &mut [(usize, u32)],
) {
    let rows = memory.rows();
    let words = memory.data_words_pub();
    debug_assert_eq!(words.len(), rows * W);
    let q_count = out.len();
    let mut q = 0usize;
    while q + WINNER_QT <= q_count {
        let mut qw = [[0u64; W]; WINNER_QT];
        for (j, qj) in qw.iter_mut().enumerate() {
            qj.copy_from_slice(&batch.query_words(q_offset + q + j)[..W]);
        }
        let mut best_score = [0u32; WINNER_QT];
        let mut best_row = [0u32; WINNER_QT];
        let mut r = 0usize;
        while r + WINNER_RT <= rows {
            let block = &words[r * W..(r + WINNER_RT) * W];
            let mut acc = [[0u32; WINNER_QT]; WINNER_RT];
            for i in 0..W {
                for t in 0..WINNER_RT {
                    let w = block[t * W + i];
                    for j in 0..WINNER_QT {
                        acc[t][j] += (w & qw[j][i]).count_ones();
                    }
                }
            }
            for (t, acc_row) in acc.iter().enumerate() {
                for j in 0..WINNER_QT {
                    if acc_row[j] > best_score[j] {
                        best_score[j] = acc_row[j];
                        best_row[j] = (r + t) as u32;
                    }
                }
            }
            r += WINNER_RT;
        }
        // Tail rows of the memory.
        while r < rows {
            let rw = &words[r * W..(r + 1) * W];
            for j in 0..WINNER_QT {
                let s = dot_words(rw, &qw[j]);
                if s > best_score[j] {
                    best_score[j] = s;
                    best_row[j] = r as u32;
                }
            }
            r += 1;
        }
        for j in 0..WINNER_QT {
            out[q + j] = (best_row[j] as usize, best_score[j]);
        }
        q += WINNER_QT;
    }
    // Tail queries: same strict-> winner scan, one query at a time.
    while q < q_count {
        let qw = &batch.query_words(q_offset + q)[..W];
        let mut best = (0usize, 0u32);
        for (r, rw) in words.chunks_exact(W).enumerate() {
            let s = dot_words(rw, qw);
            if s > best.1 {
                best = (r, s);
            }
        }
        out[q] = best;
        q += 1;
    }
}

/// Winners for wide memories: the tiled kernel fills a cache-resident
/// scratch block, which is reduced to per-query winners while hot.
fn winners_blocked(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    out: &mut [(usize, u32)],
) {
    let rows = memory.rows();
    // Keep (block × rows) u32 scratch around L1 size.
    let block = (8192 / rows.max(1)).clamp(QUERY_TILE, 256).next_multiple_of(QUERY_TILE);
    let q_total = out.len();
    let mut scratch = vec![0u32; block.min(q_total.max(1)) * rows];
    let mut done = 0usize;
    while done < q_total {
        let count = block.min(q_total - done);
        let scores = &mut scratch[..count * rows];
        dot_batch_kernel(memory, batch, q_offset + done, count, scores);
        for q in 0..count {
            out[done + q] = argmax_scores(&scores[q * rows..(q + 1) * rows]);
        }
        done += count;
    }
}

/// Routes one contiguous top-k range (`out.len() / k` queries, `k` slots
/// each) to the layout-appropriate kernel. `k == 1` takes the fused
/// winners kernel, whose strict `>` running maximum is the one-slot
/// k-best without the bounded-list bookkeeping.
pub(crate) fn topk_range(
    mem: MemoryRef<'_>,
    batch: &QueryBatch,
    q_offset: usize,
    k: usize,
    out: &mut [(usize, u32)],
) {
    if k == 1 {
        return winners_range(mem, batch, q_offset, out);
    }
    match mem {
        MemoryRef::Rows(m) => topk_rows_range(m, batch, q_offset, k, out),
        MemoryRef::Blocked(b) => {
            (kernel::active_table().blocked_topk_range)(b, batch, q_offset, k, out)
        }
    }
}

/// Row-major fused top-k sweep: per query, one bounded k-best list
/// updated row by row through [`topk_insert`] — the `>` threshold against
/// the running k-th score keeps the common case to a single compare, and
/// no score row is ever materialized. `k` here is already clamped to the
/// row count by the entry points.
fn topk_rows_range(
    memory: &BitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    k: usize,
    out: &mut [(usize, u32)],
) {
    let wpr = memory.words_per_row_pub();
    for (q, slots) in out.chunks_exact_mut(k).enumerate() {
        let qw = &batch.query_words(q_offset + q)[..wpr];
        let mut filled = 0usize;
        for (r, rw) in memory.data_words_pub().chunks_exact(wpr.max(1)).enumerate() {
            let s = dot_words(rw, qw);
            topk_insert(slots, &mut filled, r, s);
        }
        debug_assert_eq!(filled, k);
    }
}

#[cfg(feature = "rayon")]
pub(crate) fn topk_dispatch(
    memory: MemoryRef<'_>,
    batch: &QueryBatch,
    k: usize,
    out: &mut [(usize, u32)],
) {
    let q = out.len() / k;
    let work = q * memory.rows() * memory.words_per_row();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if threads < 2 || work < PARALLEL_THRESHOLD || q < 2 * QUERY_TILE {
        topk_range(memory, batch, 0, k, out);
        return;
    }
    let chunks = threads.min(q.div_ceil(QUERY_TILE));
    let per_chunk = q.div_ceil(chunks).next_multiple_of(QUERY_TILE);
    let mut jobs: Vec<(usize, &mut [(usize, u32)])> = Vec::with_capacity(chunks);
    let mut rest = out;
    let mut offset = 0usize;
    while !rest.is_empty() {
        let take = per_chunk.min(rest.len() / k);
        let (head, tail) = rest.split_at_mut(take * k);
        jobs.push((offset, head));
        rest = tail;
        offset += take;
    }
    std::thread::scope(|scope| {
        for (q_offset, chunk) in jobs {
            scope.spawn(move || topk_range(memory, batch, q_offset, k, chunk));
        }
    });
}

#[cfg(not(feature = "rayon"))]
pub(crate) fn topk_dispatch(
    memory: MemoryRef<'_>,
    batch: &QueryBatch,
    k: usize,
    out: &mut [(usize, u32)],
) {
    topk_range(memory, batch, 0, k, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    fn random_bits(len: usize, rng: &mut rand::rngs::StdRng) -> BitVector {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        BitVector::from_bools(&bits)
    }

    #[test]
    fn batch_matches_sequential_dot_all() {
        let mut rng = seeded(1);
        for dim in [1usize, 63, 64, 65, 128, 257] {
            let rows: Vec<BitVector> = (0..13).map(|_| random_bits(dim, &mut rng)).collect();
            let m = BitMatrix::from_rows(&rows).unwrap();
            let queries: Vec<BitVector> = (0..9).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let scores = m.dot_batch(&batch).unwrap();
            for (q, query) in queries.iter().enumerate() {
                assert_eq!(scores.scores(q), m.dot_all(query).as_slice(), "dim {dim} q {q}");
            }
        }
    }

    #[test]
    fn search_batch_winners_match_argmax() {
        let mut rng = seeded(2);
        let rows: Vec<BitVector> = (0..7).map(|_| random_bits(100, &mut rng)).collect();
        let m = BitMatrix::from_rows(&rows).unwrap();
        let queries: Vec<BitVector> = (0..21).map(|_| random_bits(100, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let results = m.search_batch(&batch).unwrap();
        assert_eq!(results.len(), 21);
        for (q, query) in queries.iter().enumerate() {
            let scores = m.dot_all(query);
            let (row, score) = results.winner(q);
            assert_eq!(score, scores[row]);
            // Low-row tie-break: no earlier row may match the best score.
            for (r, &s) in scores.iter().enumerate().take(row) {
                assert!(s < score, "query {q}: row {r} ties winner {row}");
            }
            assert!(scores.iter().all(|&s| s <= score));
        }
    }

    #[test]
    fn dot_many_and_hamming_many_match_pairwise() {
        let mut rng = seeded(3);
        let v = random_bits(130, &mut rng);
        let others: Vec<BitVector> = (0..6).map(|_| random_bits(130, &mut rng)).collect();
        let dots = v.dot_many(&others);
        let hams = v.hamming_many(&others);
        for (i, o) in others.iter().enumerate() {
            assert_eq!(dots[i], v.dot(o));
            assert_eq!(hams[i], v.hamming(o));
        }
    }

    #[test]
    fn scratch_reuse_resets_state() {
        let mut rng = seeded(4);
        let rows: Vec<BitVector> = (0..3).map(|_| random_bits(64, &mut rng)).collect();
        let m = BitMatrix::from_rows(&rows).unwrap();
        let q1: Vec<BitVector> = (0..5).map(|_| random_bits(64, &mut rng)).collect();
        let q2: Vec<BitVector> = (0..2).map(|_| random_bits(64, &mut rng)).collect();
        let mut scratch = ScoreMatrix::zeros(0, 0);
        m.dot_batch_into(&QueryBatch::from_vectors(&q1).unwrap(), &mut scratch).unwrap();
        assert_eq!(scratch.shape(), (5, 3));
        m.dot_batch_into(&QueryBatch::from_vectors(&q2).unwrap(), &mut scratch).unwrap();
        assert_eq!(scratch.shape(), (2, 3));
        assert_eq!(scratch.scores(1), m.dot_all(&q2[1]).as_slice());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let m = BitMatrix::zeros(2, 64);
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(matches!(
            m.dot_batch(&batch),
            Err(LinalgError::ShapeMismatch { op: "dot_batch", .. })
        ));
    }

    #[test]
    fn query_batch_roundtrip() {
        let queries = vec![BitVector::from_bools(&[true, false, true]), BitVector::zeros(3)];
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        assert_eq!(batch.query(0), queries[0]);
        assert_eq!(batch.query(1), queries[1]);
        assert!(QueryBatch::from_vectors(&[]).is_err());
    }

    #[test]
    fn winners_batch_matches_search_batch() {
        let mut rng = seeded(7);
        for (n_rows, dim, n_queries) in [(3usize, 64usize, 5usize), (128, 128, 300)] {
            let rows: Vec<BitVector> = (0..n_rows).map(|_| random_bits(dim, &mut rng)).collect();
            let m = BitMatrix::from_rows(&rows).unwrap();
            let queries: Vec<BitVector> =
                (0..n_queries).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let winners = m.winners_batch(&batch).unwrap();
            let full = m.search_batch(&batch).unwrap();
            assert_eq!(winners.len(), n_queries);
            for (q, &w) in winners.iter().enumerate() {
                assert_eq!(w, full.winner(q), "query {q}");
            }
        }
        // Dimension mismatch is rejected.
        let m = BitMatrix::zeros(2, 64);
        let bad = QueryBatch::from_vectors(&[BitVector::zeros(63)]).unwrap();
        assert!(m.winners_batch(&bad).is_err());
    }

    #[test]
    fn builder_matches_from_vectors() {
        let mut rng = seeded(11);
        let queries: Vec<BitVector> = (0..6).map(|_| random_bits(130, &mut rng)).collect();
        let mut builder = QueryBatchBuilder::with_capacity(130, queries.len());
        for q in &queries {
            builder.push(q.as_view()).unwrap();
        }
        assert_eq!(builder.len(), 6);
        let batch = builder.take_batch().unwrap();
        assert_eq!(batch, QueryBatch::from_vectors(&queries).unwrap());
        // Builder is reusable after take_batch.
        assert!(builder.is_empty());
        assert!(builder.take_batch().is_err());
        builder.push(queries[0].as_view()).unwrap();
        assert_eq!(builder.take_batch().unwrap().len(), 1);
        // Dimension mismatches are rejected without corrupting state.
        let mut b = QueryBatchBuilder::new(8);
        assert!(b.push(BitVector::zeros(9).as_view()).is_err());
        assert!(b.is_empty());
    }

    #[test]
    fn argmax_scores_tie_break() {
        assert_eq!(argmax_scores(&[3, 5, 5, 1]), (1, 5));
        assert_eq!(argmax_scores(&[7]), (0, 7));
        assert_eq!(argmax_scores(&[0, 0, 0]), (0, 0));
    }

    #[test]
    fn segments_match_per_bit_slices_on_every_grid() {
        let mut rng = seeded(7);
        // Word-aligned (64), unaligned (100, 50), and sub-word (25)
        // partitionings all reproduce the per-bit slices exactly.
        for (dim, seg_len) in [(256usize, 64usize), (300, 100), (300, 50), (100, 25), (130, 65)] {
            let queries: Vec<BitVector> = (0..9).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let segs = batch.segments(seg_len).unwrap();
            assert_eq!(segs.len(), dim / seg_len);
            for (p, seg) in segs.iter().enumerate() {
                assert_eq!((seg.len(), seg.dim()), (queries.len(), seg_len));
                for (i, q) in queries.iter().enumerate() {
                    assert_eq!(
                        seg.query(i).to_bit_vector(),
                        q.slice(p * seg_len, seg_len),
                        "dim {dim} seg {seg_len} part {p} query {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn segments_cache_is_shared_and_bounded() {
        let mut rng = seeded(8);
        let queries: Vec<BitVector> = (0..4).map(|_| random_bits(300, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        // Repeat calls and clones hand back the same Arc — the
        // zero-repack guarantee for repeated unaligned batches.
        let first = batch.segments(100).unwrap();
        assert!(Arc::ptr_eq(&first, &batch.segments(100).unwrap()));
        assert!(Arc::ptr_eq(&first, &batch.clone().segments(100).unwrap()));
        // A second partitioning coexists (two cache slots)...
        let other = batch.segments(150).unwrap();
        assert!(Arc::ptr_eq(&other, &batch.segments(150).unwrap()));
        assert!(Arc::ptr_eq(&first, &batch.segments(100).unwrap()));
        // ...and a third evicts the least-recently-used partitioning:
        // 150 (100 was re-touched on its last hit), never the hot one.
        let third = batch.segments(75).unwrap();
        assert!(Arc::ptr_eq(&third, &batch.segments(75).unwrap()));
        assert!(Arc::ptr_eq(&first, &batch.segments(100).unwrap()));
        let rederived = batch.segments(150).unwrap();
        assert!(!Arc::ptr_eq(&other, &rederived));
        assert_eq!(other.as_ref(), rederived.as_ref());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Any interleaving of `segments` calls across a batch and its
        /// clone — more distinct `seg_len`s than cache slots, so
        /// evictions and re-derivations happen constantly — always
        /// returns views of exactly the requested `seg_len` whose bits
        /// match a per-bit reference slice. A stale-keyed cache entry
        /// (or an eviction bug handing back the wrong partitioning)
        /// fails the width or content assertion immediately.
        #[test]
        fn segments_cache_never_serves_stale_seg_len(
            ops in proptest::collection::vec(0usize..4, 1..24),
            rows in 1usize..5,
            seed in 0u64..(1u64 << 32),
        ) {
            use proptest::prelude::prop_assert_eq;
            let lens = [100usize, 150, 75, 300];
            let mut rng = seeded(seed);
            let queries: Vec<BitVector> = (0..rows).map(|_| random_bits(300, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let clone = batch.clone();
            for (i, &op) in ops.iter().enumerate() {
                let seg_len = lens[op];
                // Alternate between the original and the clone: they
                // share one cache, so hits/evictions cross over.
                let via = if i % 2 == 0 { &batch } else { &clone };
                let segs = via.segments(seg_len).unwrap();
                prop_assert_eq!(segs.len(), 300 / seg_len);
                for (p, seg) in segs.iter().enumerate() {
                    prop_assert_eq!(seg.dim(), seg_len);
                    for q in 0..rows {
                        prop_assert_eq!(
                            seg.query(q).to_bit_vector(),
                            batch.query(q).slice(p * seg_len, seg_len)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn push_packed_words_matches_per_query_push_and_cleans_tails() {
        let mut rng = seeded(23);
        for dim in [64usize, 130, 300] {
            let queries: Vec<BitVector> = (0..6).map(|_| random_bits(dim, &mut rng)).collect();
            // Wire layout: each query's packed words back to back.
            let wpr = dim.div_ceil(64);
            let mut words: Vec<u64> = Vec::with_capacity(6 * wpr);
            for q in &queries {
                words.extend_from_slice(q.as_words());
            }
            // Dirty the padding bits the way a hostile client could.
            if dim % 64 != 0 {
                for r in 0..queries.len() {
                    words[r * wpr + wpr - 1] |= !0u64 << (dim % 64);
                }
            }
            let mut packed = QueryBatchBuilder::new(dim);
            assert_eq!(packed.push_packed_words(&words).unwrap(), queries.len());
            assert_eq!(packed.len(), queries.len());
            let mut reference = QueryBatchBuilder::new(dim);
            for q in &queries {
                reference.push(q.as_view()).unwrap();
            }
            // Bit-identical to the per-query path (tails cleaned), so
            // the wire payload landed without any repacking step.
            assert_eq!(packed.take_batch().unwrap(), reference.take_batch().unwrap());
        }
    }

    #[test]
    fn push_packed_words_rejects_bad_shapes_and_interleaves_with_push() {
        let mut rng = seeded(24);
        let dim = 130usize;
        let wpr = dim.div_ceil(64);
        let queries: Vec<BitVector> = (0..5).map(|_| random_bits(dim, &mut rng)).collect();
        let mut b = QueryBatchBuilder::new(dim);
        assert!(matches!(
            b.push_packed_words(&[]),
            Err(LinalgError::Empty { op: "QueryBatchBuilder::push_packed_words" })
        ));
        let stray = vec![0u64; wpr + 1];
        assert!(matches!(
            b.push_packed_words(&stray),
            Err(LinalgError::ShapeMismatch { found: 4, .. })
        ));
        assert!(b.is_empty(), "failed pushes must not enqueue partial rows");
        // Mixed single-query and packed-frame ingestion builds the same
        // batch as packing everything up front.
        b.push(queries[0].as_view()).unwrap();
        let mut frame: Vec<u64> = Vec::new();
        for q in &queries[1..4] {
            frame.extend_from_slice(q.as_words());
        }
        assert_eq!(b.push_packed_words(&frame).unwrap(), 3);
        b.push(queries[4].as_view()).unwrap();
        assert_eq!(b.take_batch().unwrap(), QueryBatch::from_vectors(&queries).unwrap());
    }

    #[test]
    fn segments_validate_partitioning() {
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(128)]).unwrap();
        assert!(matches!(
            batch.segments(0),
            Err(LinalgError::Empty { op: "QueryBatch::segments" })
        ));
        assert!(matches!(
            batch.segments(100),
            Err(LinalgError::ShapeMismatch { op: "QueryBatch::segments", .. })
        ));
        // The full width is a valid single-segment partitioning.
        let whole = batch.segments(128).unwrap();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0], batch);
    }

    #[test]
    fn large_batch_exercises_tiling_tails() {
        // 10 queries: two full tiles of 4 plus a tail of 2.
        let mut rng = seeded(5);
        let rows: Vec<BitVector> = (0..5).map(|_| random_bits(65, &mut rng)).collect();
        let m = BitMatrix::from_rows(&rows).unwrap();
        let queries: Vec<BitVector> = (0..10).map(|_| random_bits(65, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let scores = m.dot_batch(&batch).unwrap();
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(scores.scores(q), query.dot_many(&rows).as_slice());
        }
    }
}

//! Cache-conscious interleaved associative-memory storage.
//!
//! The row-major [`BitMatrix`] stores one class vector per packed row —
//! natural for construction and mutation, but a SIMD sweep wants the
//! *transposed-within-tile* view: for one query word, the corresponding
//! word of **eight consecutive rows** side by side, so a single vector
//! load feeds eight popcount lanes. [`BlockedBitMatrix`] is that layout:
//! class rows are tiled into blocks of [`LANES`] rows, and each block
//! stores its rows' words column-panel-major — panel `(b, w)` holds word
//! `w` of rows `b·LANES .. b·LANES+LANES` contiguously (512 bits, one
//! AVX-512 register, two AVX2 registers, four NEON registers). Rows are
//! padded to the lane count with all-zero rows, which can never win a
//! search (scores are non-negative and ties break toward lower, real,
//! rows).
//!
//! A batched sweep over this layout streams the memory exactly once per
//! query in perfectly sequential panel order, and every loaded panel
//! feeds [`LANES`] independent accumulator lanes. The per-backend kernels
//! here are published through the [`crate::kernel`] dispatch table; all
//! of them are bit-identical to the scalar row-major path (the
//! `simd_equivalence` suite pins this for every reachable backend).

use crate::batch::{topk_insert, MemoryRef, ScoreMatrix, SearchResults, TopK};
use crate::bits::{BitMatrix, BitVector};
use crate::error::{LinalgError, Result};
use crate::kernel::{self, Backend};
use crate::QueryBatch;

/// Rows per interleaved block — one 512-bit panel of `u64` lanes.
pub const LANES: usize = 8;

/// A [`BitMatrix`] re-packed into interleaved row blocks for SIMD sweeps.
///
/// Construction packs once ([`BlockedBitMatrix::from_matrix`]); searches
/// then run the active [`crate::kernel`] backend. The layout is purely an
/// execution detail: [`BlockedBitMatrix::to_matrix`] recovers the
/// original matrix bit-for-bit.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitMatrix, BitVector, BlockedBitMatrix, QueryBatch};
///
/// let rows = vec![
///     BitVector::from_bools(&[true, false, true]),
///     BitVector::from_bools(&[false, true, true]),
/// ];
/// let m = BitMatrix::from_rows(&rows).unwrap();
/// let blocked = BlockedBitMatrix::from_matrix(&m);
/// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true, true, true])]).unwrap();
/// let scores = blocked.dot_batch(&batch).unwrap();
/// assert_eq!(scores.scores(0), &[2, 2]);
/// assert_eq!(blocked.to_matrix(), m);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    row_blocks: usize,
    /// Panel-major storage: `data[(b * words_per_row + w) * LANES + l]`
    /// is word `w` of row `b * LANES + l` (zero for padding rows).
    data: Vec<u64>,
}

impl BlockedBitMatrix {
    /// Packs a row-major matrix into interleaved blocks.
    pub fn from_matrix(m: &BitMatrix) -> Self {
        let rows = m.rows();
        let wpr = m.words_per_row_pub();
        let row_blocks = rows.div_ceil(LANES);
        let mut data = vec![0u64; row_blocks * wpr * LANES];
        for r in 0..rows {
            let (b, l) = (r / LANES, r % LANES);
            let words = m.row_words_pub(r);
            for (w, &word) in words.iter().enumerate() {
                data[(b * wpr + w) * LANES + l] = word;
            }
        }
        BlockedBitMatrix { rows, cols: m.cols(), words_per_row: wpr, row_blocks, data }
    }

    /// Packs equal-length rows directly (convenience over
    /// [`BitMatrix::from_rows`] + [`BlockedBitMatrix::from_matrix`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row set and
    /// [`LinalgError::RaggedRows`] if rows disagree on length.
    pub fn from_rows(rows: &[BitVector]) -> Result<Self> {
        Ok(Self::from_matrix(&BitMatrix::from_rows(rows)?))
    }

    /// Number of stored (real, unpadded) rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of [`LANES`]-row blocks (the last may be partially padded).
    #[inline]
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// Packed words per row.
    #[inline]
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The interleaved panel buffer.
    #[inline]
    pub(crate) fn data(&self) -> &[u64] {
        &self.data
    }

    /// Panel `(b, w)`: word `w` of the block's [`LANES`] rows.
    #[inline]
    pub(crate) fn panel(&self, b: usize, w: usize) -> &[u64] {
        let start = (b * self.words_per_row + w) * LANES;
        &self.data[start..start + LANES]
    }

    /// Unpacks row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> BitVector {
        assert!(r < self.rows, "row index {r} out of bounds");
        let (b, l) = (r / LANES, r % LANES);
        let words: Vec<u64> = (0..self.words_per_row)
            .map(|w| self.data[(b * self.words_per_row + w) * LANES + l])
            .collect();
        BitVector::from_words(self.cols, words).expect("packed rows have clean tails")
    }

    /// Unpacks the whole matrix back to row-major form (the exact inverse
    /// of [`BlockedBitMatrix::from_matrix`]).
    pub fn to_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            m.set_row(r, &self.row(r)).expect("row width matches");
        }
        m
    }

    /// Copies rows `[start, start + count)` into a new blocked matrix
    /// without round-tripping through the row-major layout.
    ///
    /// `start` must be block-aligned (`start % LANES == 0`): a block is
    /// the smallest unit the interleaved storage can slice contiguously,
    /// and shard planners align on it anyway. The copied region is one
    /// contiguous `memcpy` of whole panels; a `count` that is not a
    /// multiple of [`LANES`] simply leaves the final block partially
    /// padded, exactly as construction would.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `count == 0`,
    /// [`LinalgError::IndexOutOfBounds`] when the range overruns `rows()`,
    /// and [`LinalgError::ShapeMismatch`] when `start` is not
    /// block-aligned.
    pub fn row_range(&self, start: usize, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(LinalgError::Empty { op: "BlockedBitMatrix::row_range" });
        }
        let end = start.checked_add(count).filter(|&e| e <= self.rows).ok_or_else(|| {
            LinalgError::IndexOutOfBounds {
                index: start.saturating_add(count) - 1,
                bound: self.rows,
            }
        })?;
        if !start.is_multiple_of(LANES) {
            return Err(LinalgError::ShapeMismatch {
                op: "BlockedBitMatrix::row_range",
                expected: LANES,
                found: start % LANES,
            });
        }
        let first_block = start / LANES;
        let row_blocks = count.div_ceil(LANES);
        let panel_words = self.words_per_row * LANES;
        let mut data =
            self.data[first_block * panel_words..end.div_ceil(LANES) * panel_words].to_vec();
        // A shard boundary can cut through the source's final copied
        // block; zero the lanes past `count` so padding rows stay all-zero
        // (the invariant every sweep kernel relies on for tie-breaks).
        if !count.is_multiple_of(LANES) {
            let keep = count % LANES;
            let last = row_blocks - 1;
            for w in 0..self.words_per_row {
                let base = (last * self.words_per_row + w) * LANES;
                for lane in keep..LANES {
                    data[base + lane] = 0;
                }
            }
        }
        Ok(BlockedBitMatrix {
            rows: count,
            cols: self.cols,
            words_per_row: self.words_per_row,
            row_blocks,
            data,
        })
    }

    fn check_dim(&self, batch: &QueryBatch, op: &'static str) -> Result<()> {
        if batch.dim() != self.cols {
            return Err(LinalgError::ShapeMismatch { op, expected: self.cols, found: batch.dim() });
        }
        Ok(())
    }

    /// Batched dot-similarity sweep on the active backend (the blocked
    /// analogue of [`BitMatrix::dot_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn dot_batch(&self, batch: &QueryBatch) -> Result<ScoreMatrix> {
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows);
        self.dot_batch_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`BlockedBitMatrix::dot_batch`] but reuses `out` as scratch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn dot_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        self.check_dim(batch, "dot_batch")?;
        out.reset(batch.len(), self.rows);
        crate::batch::dot_batch_dispatch(MemoryRef::Blocked(self), batch, out);
        Ok(())
    }

    /// Batched associative search with the full score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<SearchResults> {
        Ok(SearchResults::from_scores(self.dot_batch(batch)?))
    }

    /// Winners-only batched search (low-row tie-break), never
    /// materializing scores.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the batch dimensionality
    /// differs from `cols`.
    pub fn winners_batch(&self, batch: &QueryBatch) -> Result<Vec<(usize, u32)>> {
        self.check_dim(batch, "winners_batch")?;
        let mut winners = vec![(0usize, 0u32); batch.len()];
        crate::batch::topk_dispatch(MemoryRef::Blocked(self), batch, 1, &mut winners);
        Ok(winners)
    }

    /// [`BlockedBitMatrix::dot_batch`] on an explicit backend — the
    /// equivalence-testing hook (serial; no thread chunking).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn dot_batch_with(&self, batch: &QueryBatch, backend: Backend) -> Result<ScoreMatrix> {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        self.check_dim(batch, "dot_batch")?;
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows);
        (kernel::table_for(backend).blocked_dot_range)(self, batch, 0, batch.len(), out.data_mut());
        Ok(out)
    }

    /// [`BlockedBitMatrix::winners_batch`] on an explicit backend — the
    /// equivalence-testing hook (serial; no thread chunking).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn winners_batch_with(
        &self,
        batch: &QueryBatch,
        backend: Backend,
    ) -> Result<Vec<(usize, u32)>> {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        self.check_dim(batch, "winners_batch")?;
        let mut winners = vec![(0usize, 0u32); batch.len()];
        (kernel::table_for(backend).blocked_winners_range)(self, batch, 0, &mut winners);
        Ok(winners)
    }

    /// Fused top-k batched search on the active backend (the blocked
    /// analogue of [`BitMatrix::topk_batch`]): per-query bounded k-best
    /// lists carried through the 8-row panel sweep, never materializing
    /// scores.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `k == 0` and
    /// [`LinalgError::ShapeMismatch`] on a dimensionality mismatch.
    pub fn topk_batch(&self, batch: &QueryBatch, k: usize) -> Result<TopK> {
        if k == 0 || self.rows == 0 {
            return Err(LinalgError::Empty { op: "topk_batch" });
        }
        self.check_dim(batch, "topk_batch")?;
        let per_query = k.min(self.rows);
        let mut entries = vec![(0usize, 0u32); batch.len() * per_query];
        crate::batch::topk_dispatch(MemoryRef::Blocked(self), batch, per_query, &mut entries);
        Ok(TopK::from_flat(batch.len(), k, per_query, entries))
    }

    /// [`BlockedBitMatrix::topk_batch`] on an explicit backend — the
    /// equivalence-testing hook (serial; no thread chunking).
    ///
    /// # Errors
    ///
    /// As [`BlockedBitMatrix::topk_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn topk_batch_with(&self, batch: &QueryBatch, k: usize, backend: Backend) -> Result<TopK> {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        if k == 0 || self.rows == 0 {
            return Err(LinalgError::Empty { op: "topk_batch" });
        }
        self.check_dim(batch, "topk_batch")?;
        let per_query = k.min(self.rows);
        let mut entries = vec![(0usize, 0u32); batch.len() * per_query];
        (kernel::table_for(backend).blocked_topk_range)(self, batch, 0, per_query, &mut entries);
        Ok(TopK::from_flat(batch.len(), k, per_query, entries))
    }
}

/// A search-optimized associative memory: the row-major matrix plus, when
/// the active backend is SIMD, its interleaved blocked mirror built once
/// at construction.
///
/// This is the type long-lived memories (class AMs, per-partition IMC
/// matrices) should hold: batched searches skip the per-call packing that
/// [`BitMatrix::dot_batch`] would otherwise perform, and on the scalar
/// backend it stays a plain [`BitMatrix`] with zero overhead. Cascade
/// searches additionally cache their derived bound forms (prefix
/// sub-memory, row-suffix table) here, keyed by plan — see
/// [`SearchMemory::search_cascade`]. Equality compares the logical
/// matrix only, and a clone starts with an empty cascade cache (forms
/// re-derive lazily).
#[derive(Debug)]
pub struct SearchMemory {
    matrix: BitMatrix,
    blocked: Option<BlockedBitMatrix>,
    /// Derived cascade bound forms, keyed by plan; invalidated on any
    /// mutation of `matrix`.
    cascade_cache: crate::cascade::CascadeCache,
}

impl Clone for SearchMemory {
    fn clone(&self) -> Self {
        SearchMemory {
            matrix: self.matrix.clone(),
            blocked: self.blocked.clone(),
            cascade_cache: crate::cascade::CascadeCache::new(),
        }
    }
}

impl PartialEq for SearchMemory {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
    }
}

impl Eq for SearchMemory {}

impl From<BitMatrix> for SearchMemory {
    fn from(matrix: BitMatrix) -> Self {
        SearchMemory::new(matrix)
    }
}

impl SearchMemory {
    /// Wraps a matrix, building the blocked mirror iff the active backend
    /// is a SIMD one.
    pub fn new(matrix: BitMatrix) -> Self {
        let blocked = (kernel::active() != Backend::Scalar && matrix.rows() > 0)
            .then(|| BlockedBitMatrix::from_matrix(&matrix));
        SearchMemory { matrix, blocked, cascade_cache: crate::cascade::CascadeCache::new() }
    }

    /// The memory's cascade bound-form cache.
    #[inline]
    pub(crate) fn cascade_cache(&self) -> &crate::cascade::CascadeCache {
        &self.cascade_cache
    }

    /// Builds from equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] / [`LinalgError::RaggedRows`] as
    /// [`BitMatrix::from_rows`] does.
    pub fn from_rows(rows: &[BitVector]) -> Result<Self> {
        Ok(SearchMemory::new(BitMatrix::from_rows(rows)?))
    }

    /// The row-major matrix.
    #[inline]
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Consumes the wrapper, yielding the row-major matrix.
    pub fn into_matrix(self) -> BitMatrix {
        self.matrix
    }

    /// The blocked mirror, when one was built (SIMD backends only).
    #[inline]
    pub fn blocked(&self) -> Option<&BlockedBitMatrix> {
        self.blocked.as_ref()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of columns (bits per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// Mutates the underlying matrix and unconditionally rebuilds the
    /// blocked mirror. Prefer [`SearchMemory::modify_reporting`] when the
    /// closure can tell whether it changed anything.
    pub fn modify<R>(&mut self, f: impl FnOnce(&mut BitMatrix) -> R) -> R {
        let mut out = None;
        self.modify_reporting(|matrix| {
            out = Some(f(matrix));
            true
        });
        out.expect("modify closure always runs")
    }

    /// Like [`SearchMemory::modify`], but the closure reports whether it
    /// actually mutated the matrix and the blocked mirror is rebuilt only
    /// then — so sweeps that touch every cell but flip none (e.g. a
    /// zero-probability fault pass) stay free. A reported mutation also
    /// drops every cached cascade bound form: the prefix sub-memory and
    /// row-suffix tables describe the old bits, and the next
    /// [`SearchMemory::search_cascade`] re-derives them. Returns the
    /// closure's report.
    pub fn modify_reporting(&mut self, f: impl FnOnce(&mut BitMatrix) -> bool) -> bool {
        let changed = f(&mut self.matrix);
        if changed {
            if self.blocked.is_some() {
                self.blocked = Some(BlockedBitMatrix::from_matrix(&self.matrix));
            }
            self.cascade_cache.invalidate();
        }
        changed
    }

    /// Copies rows `[start, start + count)` into a standalone
    /// [`SearchMemory`]. When a blocked mirror exists and `start` is
    /// block-aligned, the mirror is sliced directly (contiguous panel
    /// copy) instead of being re-packed.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `count == 0` and
    /// [`LinalgError::IndexOutOfBounds`] when the range overruns `rows()`.
    pub fn row_range(&self, start: usize, count: usize) -> Result<SearchMemory> {
        let matrix = self.matrix.row_range(start, count)?;
        let blocked = match &self.blocked {
            Some(b) if start.is_multiple_of(LANES) => {
                Some(b.row_range(start, count).expect("range validated by row-major slice"))
            }
            Some(_) => Some(BlockedBitMatrix::from_matrix(&matrix)),
            None => None,
        };
        Ok(SearchMemory { matrix, blocked, cascade_cache: crate::cascade::CascadeCache::new() })
    }

    /// Splits the memory into `shards` contiguous row ranges for
    /// data-parallel serving: each returned `(row_offset, memory)` pair
    /// owns its rows (and its own pre-packed blocked mirror), so the
    /// shards are independently `Send` to per-shard worker threads.
    ///
    /// Boundaries are aligned to [`LANES`] so every shard except possibly
    /// the last starts on a block boundary and the mirrors slice without
    /// re-packing; a shard count above `rows().div_ceil(LANES)` is
    /// clamped, so fewer (never empty) shards may be returned. Global row
    /// indices are recovered as `row_offset + local_row`, and because
    /// shards are ascending contiguous ranges, a merge that scans shards
    /// in order with a strict `>` comparison preserves the workspace's
    /// lowest-row tie-break.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `shards == 0` or an empty
    /// memory.
    pub fn split_rows(&self, shards: usize) -> Result<Vec<(usize, SearchMemory)>> {
        if shards == 0 || self.rows() == 0 {
            return Err(LinalgError::Empty { op: "SearchMemory::split_rows" });
        }
        let blocks = self.rows().div_ceil(LANES);
        let shards = shards.min(blocks);
        // Distribute blocks as evenly as possible (the first `blocks %
        // shards` shards take one extra), so exactly `min(shards,
        // blocks)` non-empty shards come back — never fewer.
        let base = blocks / shards;
        let extra = blocks % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0usize;
        for i in 0..shards {
            let shard_blocks = base + usize::from(i < extra);
            let count = (shard_blocks * LANES).min(self.rows() - start);
            out.push((start, self.row_range(start, count)?));
            start += count;
        }
        debug_assert_eq!(start, self.rows());
        Ok(out)
    }

    #[inline]
    pub(crate) fn memory_ref(&self) -> MemoryRef<'_> {
        match &self.blocked {
            Some(b) => MemoryRef::Blocked(b),
            None => MemoryRef::Rows(&self.matrix),
        }
    }

    /// Dot similarity of every row against one query (single-query slice;
    /// see [`BitMatrix::dot_all`]).
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from `cols`.
    pub fn dot_all(&self, query: &BitVector) -> Vec<u32> {
        self.matrix.dot_all(query)
    }

    /// Dot similarity of row `r` with a query.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or `r >= rows()`.
    pub fn row_dot(&self, r: usize, query: &BitVector) -> u32 {
        self.matrix.row_dot(r, query)
    }

    /// Batched dot-similarity sweep (pre-packed; see
    /// [`BitMatrix::dot_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn dot_batch(&self, batch: &QueryBatch) -> Result<ScoreMatrix> {
        let mut out = ScoreMatrix::zeros(batch.len(), self.rows());
        self.dot_batch_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`SearchMemory::dot_batch`] but reusing `out` as scratch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn dot_batch_into(&self, batch: &QueryBatch, out: &mut ScoreMatrix) -> Result<()> {
        if batch.dim() != self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "dot_batch",
                expected: self.cols(),
                found: batch.dim(),
            });
        }
        out.reset(batch.len(), self.rows());
        crate::batch::dot_batch_dispatch(self.memory_ref(), batch, out);
        Ok(())
    }

    /// Batched associative search with the full score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn search_batch(&self, batch: &QueryBatch) -> Result<SearchResults> {
        Ok(SearchResults::from_scores(self.dot_batch(batch)?))
    }

    /// Winners-only batched search (low-row tie-break).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn winners_batch(&self, batch: &QueryBatch) -> Result<Vec<(usize, u32)>> {
        if batch.dim() != self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "winners_batch",
                expected: self.cols(),
                found: batch.dim(),
            });
        }
        let mut winners = vec![(0usize, 0u32); batch.len()];
        crate::batch::topk_dispatch(self.memory_ref(), batch, 1, &mut winners);
        Ok(winners)
    }

    /// Fused batched top-k search (pre-packed; see
    /// [`BitMatrix::topk_batch`] for the result contract): each query's
    /// `min(k, rows)` best rows by `(score desc, row asc)`, selected
    /// inside the sweep with no score matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `k == 0` or the memory has no
    /// rows, and [`LinalgError::ShapeMismatch`] on a dimensionality
    /// mismatch.
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
        crate::batch::topk_dispatch(self.memory_ref(), batch, per_query, &mut entries);
        Ok(TopK::from_flat(batch.len(), k, per_query, entries))
    }
}

// ---------------------------------------------------------------------------
// Per-backend blocked sweep kernels (published via kernel::KernelTable).
// ---------------------------------------------------------------------------

/// Reduces one query's per-lane candidates to the final winner under the
/// workspace tie-break: highest score, then lowest row. Lane candidates
/// carry the lane's *lowest* max-achieving row, so the global lowest
/// max-achieving row is always among them.
#[cfg(target_arch = "x86_64")]
#[inline]
fn reduce_lane_candidates(rows: usize, candidate: impl Fn(usize) -> (usize, u32)) -> (usize, u32) {
    let mut best = (usize::MAX, 0u32);
    for l in 0..LANES {
        let (row, score) = candidate(l);
        if row >= rows {
            continue;
        }
        if score > best.1 || (score == best.1 && row < best.0) {
            best = (row, score);
        }
    }
    if best.0 == usize::MAX {
        (0, 0)
    } else {
        best
    }
}

/// One query × one block of the portable sweep: eight scalar accumulator
/// lanes over the block's panels — the reference accumulation both scalar
/// entry points share (and the oracle the SIMD `*_block_acc` helpers are
/// tested against).
#[inline]
fn scalar_block_acc(m: &BlockedBitMatrix, b: usize, qw: &[u64]) -> [u32; LANES] {
    let mut acc = [0u32; LANES];
    for (w, &x) in qw.iter().enumerate().take(m.words_per_row()) {
        let panel = m.panel(b, w);
        for (a, &p) in acc.iter_mut().zip(panel) {
            *a += (p & x).count_ones();
        }
    }
    acc
}

/// Portable blocked sweep: eight scalar accumulator lanes per panel.
pub(crate) fn scalar_dot_range(
    m: &BlockedBitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    q_count: usize,
    out: &mut [u32],
) {
    let rows = m.rows();
    debug_assert_eq!(out.len(), q_count * rows);
    for q in 0..q_count {
        let qw = batch.query_words(q_offset + q);
        let out_row = &mut out[q * rows..(q + 1) * rows];
        for b in 0..m.row_blocks() {
            let acc = scalar_block_acc(m, b, qw);
            let base = b * LANES;
            let take = LANES.min(rows - base);
            out_row[base..base + take].copy_from_slice(&acc[..take]);
        }
    }
}

/// Portable blocked winners sweep: strict-`>` tracking over ascending
/// rows preserves the low-row tie-break exactly.
pub(crate) fn scalar_winners_range(
    m: &BlockedBitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    out: &mut [(usize, u32)],
) {
    let rows = m.rows();
    for (q, slot) in out.iter_mut().enumerate() {
        let qw = batch.query_words(q_offset + q);
        let mut best = (0usize, 0u32);
        for b in 0..m.row_blocks() {
            let acc = scalar_block_acc(m, b, qw);
            let base = b * LANES;
            let take = LANES.min(rows - base);
            for (l, &s) in acc.iter().enumerate().take(take) {
                if s > best.1 {
                    best = (base + l, s);
                }
            }
        }
        *slot = best;
    }
}

/// Portable blocked top-k sweep: the panel accumulation of
/// [`scalar_block_acc`] feeding one bounded k-best list per query (`k`
/// pre-clamped to the row count; padding lanes are excluded by the
/// `take` bound, so an all-zero padding row can never enter the list).
pub(crate) fn scalar_topk_range(
    m: &BlockedBitMatrix,
    batch: &QueryBatch,
    q_offset: usize,
    k: usize,
    out: &mut [(usize, u32)],
) {
    let rows = m.rows();
    for (q, slots) in out.chunks_exact_mut(k).enumerate() {
        let qw = batch.query_words(q_offset + q);
        let mut filled = 0usize;
        for b in 0..m.row_blocks() {
            let acc = scalar_block_acc(m, b, qw);
            let base = b * LANES;
            let take = LANES.min(rows - base);
            for (l, &s) in acc.iter().enumerate().take(take) {
                topk_insert(slots, &mut filled, base + l, s);
            }
        }
        debug_assert_eq!(filled, k);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86_blocked::{
    avx2_dot_range, avx2_topk_range, avx2_winners_range, avx512_dot_range, avx512_topk_range,
    avx512_winners_range,
};

/// AVX2 and AVX-512 blocked sweeps. All `unsafe fn`s here are published
/// only through kernel tables gated on `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
mod x86_blocked {
    use super::{reduce_lane_candidates, topk_insert, BlockedBitMatrix, LANES};
    use crate::kernel::x86::popcnt_bytes_avx2;
    use crate::QueryBatch;
    use std::arch::x86_64::*;

    pub(crate) fn avx512_dot_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        q_count: usize,
        out: &mut [u32],
    ) {
        // SAFETY: table selected only after avx512f+vpopcntdq detection.
        unsafe { avx512_dot_range_impl(m, batch, q_offset, q_count, out) }
    }

    pub(crate) fn avx512_winners_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: &mut [(usize, u32)],
    ) {
        // SAFETY: table selected only after avx512f+vpopcntdq detection.
        unsafe { avx512_winners_range_impl(m, batch, q_offset, out) }
    }

    pub(crate) fn avx2_dot_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        q_count: usize,
        out: &mut [u32],
    ) {
        // SAFETY: table selected only after avx2 detection.
        unsafe { avx2_dot_range_impl(m, batch, q_offset, q_count, out) }
    }

    pub(crate) fn avx2_winners_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: &mut [(usize, u32)],
    ) {
        // SAFETY: table selected only after avx2 detection.
        unsafe { avx2_winners_range_impl(m, batch, q_offset, out) }
    }

    pub(crate) fn avx512_topk_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        k: usize,
        out: &mut [(usize, u32)],
    ) {
        // SAFETY: table selected only after avx512f+vpopcntdq detection.
        unsafe { avx512_topk_range_impl(m, batch, q_offset, k, out) }
    }

    pub(crate) fn avx2_topk_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        k: usize,
        out: &mut [(usize, u32)],
    ) {
        // SAFETY: table selected only after avx2 detection.
        unsafe { avx2_topk_range_impl(m, batch, q_offset, k, out) }
    }

    /// One query × one block: per-lane popcount accumulator over the
    /// block's panels (8 × u64 lane counts in one ZMM register).
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn avx512_block_acc(data: *const u64, wpr: usize, qw: &[u64]) -> __m512i {
        let mut acc = _mm512_setzero_si512();
        for (w, &x) in qw.iter().enumerate().take(wpr) {
            let panel = _mm512_loadu_si512(data.add(w * LANES) as *const _);
            let qv = _mm512_set1_epi64(x as i64);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(panel, qv)));
        }
        acc
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn avx512_dot_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        q_count: usize,
        out: &mut [u32],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        debug_assert_eq!(out.len(), q_count * rows);
        for q in 0..q_count {
            let qw = batch.query_words(q_offset + q);
            let out_row = &mut out[q * rows..(q + 1) * rows];
            for b in 0..m.row_blocks() {
                let acc = avx512_block_acc(data.add(b * wpr * LANES), wpr, qw);
                let acc32 = _mm512_cvtepi64_epi32(acc);
                let base = b * LANES;
                if base + LANES <= rows {
                    _mm256_storeu_si256(out_row.as_mut_ptr().add(base) as *mut __m256i, acc32);
                } else {
                    let mut tmp = [0u32; LANES];
                    _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, acc32);
                    let take = rows - base;
                    out_row[base..base + take].copy_from_slice(&tmp[..take]);
                }
            }
        }
    }

    /// Fused winners sweep: per-lane running best `(score, block)` kept in
    /// ZMM registers across the whole row sweep — strict `>` preserves the
    /// lowest block per lane, and the final cross-lane reduction applies
    /// the global lowest-row tie-break.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn avx512_winners_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: &mut [(usize, u32)],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        for (q, slot) in out.iter_mut().enumerate() {
            let qw = batch.query_words(q_offset + q);
            let mut best_score = _mm512_setzero_si512();
            let mut best_block = _mm512_setzero_si512();
            for b in 0..m.row_blocks() {
                let acc = avx512_block_acc(data.add(b * wpr * LANES), wpr, qw);
                let gt = _mm512_cmpgt_epu64_mask(acc, best_score);
                best_score = _mm512_mask_mov_epi64(best_score, gt, acc);
                best_block = _mm512_mask_mov_epi64(best_block, gt, _mm512_set1_epi64(b as i64));
            }
            let mut scores = [0u64; LANES];
            let mut blocks = [0u64; LANES];
            _mm512_storeu_si512(scores.as_mut_ptr() as *mut _, best_score);
            _mm512_storeu_si512(blocks.as_mut_ptr() as *mut _, best_block);
            *slot = reduce_lane_candidates(rows, |l| {
                (blocks[l] as usize * LANES + l, scores[l] as u32)
            });
        }
    }

    /// Fused top-k sweep: once a query's k-best list is full, a whole
    /// block is skipped with one vector compare against the k-th score —
    /// only a lane that strictly beats the threshold (and therefore would
    /// displace the current k-th entry even after tie-breaks) pays the
    /// extract + insert cost. Padding lanes are excluded by `take`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn avx512_topk_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        k: usize,
        out: &mut [(usize, u32)],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        for (q, slots) in out.chunks_exact_mut(k).enumerate() {
            let qw = batch.query_words(q_offset + q);
            let mut filled = 0usize;
            for b in 0..m.row_blocks() {
                let acc = avx512_block_acc(data.add(b * wpr * LANES), wpr, qw);
                if filled == k {
                    let thr = _mm512_set1_epi64(slots[k - 1].1 as i64);
                    if _mm512_cmpgt_epu64_mask(acc, thr) == 0 {
                        continue;
                    }
                }
                let mut tmp = [0u32; LANES];
                _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, _mm512_cvtepi64_epi32(acc));
                let base = b * LANES;
                let take = LANES.min(rows - base);
                for (l, &s) in tmp.iter().enumerate().take(take) {
                    topk_insert(slots, &mut filled, base + l, s);
                }
            }
            debug_assert_eq!(filled, k);
        }
    }

    /// One query × one block on AVX2: the 8-lane panel is two 256-bit
    /// halves; byte counts accumulate across runs of ≤ 31 words before one
    /// `psadbw` horizontal step per half, yielding 8 u64 lane counts.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_block_acc(data: *const u64, wpr: usize, qw: &[u64]) -> (__m256i, __m256i) {
        let zero = _mm256_setzero_si256();
        let mut acc_lo = zero;
        let mut acc_hi = zero;
        let mut w = 0usize;
        while w < wpr {
            let run = (wpr - w).min(31);
            let mut bytes_lo = zero;
            let mut bytes_hi = zero;
            for (i, &qword) in qw.iter().enumerate().take(w + run).skip(w) {
                let qv = _mm256_set1_epi64x(qword as i64);
                let p = data.add(i * LANES);
                let p_lo = _mm256_loadu_si256(p as *const __m256i);
                let p_hi = _mm256_loadu_si256(p.add(4) as *const __m256i);
                bytes_lo = _mm256_add_epi8(bytes_lo, popcnt_bytes_avx2(_mm256_and_si256(p_lo, qv)));
                bytes_hi = _mm256_add_epi8(bytes_hi, popcnt_bytes_avx2(_mm256_and_si256(p_hi, qv)));
            }
            acc_lo = _mm256_add_epi64(acc_lo, _mm256_sad_epu8(bytes_lo, zero));
            acc_hi = _mm256_add_epi64(acc_hi, _mm256_sad_epu8(bytes_hi, zero));
            w += run;
        }
        (acc_lo, acc_hi)
    }

    /// Narrows two 4×u64 lane-count halves to 8 u32 scores (counts are
    /// far below 2³², so the upper dwords are zero).
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_extract(acc_lo: __m256i, acc_hi: __m256i) -> [u32; LANES] {
        let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let lo32 = _mm256_permutevar8x32_epi32(acc_lo, idx);
        let hi32 = _mm256_permutevar8x32_epi32(acc_hi, idx);
        let packed = _mm256_inserti128_si256(lo32, _mm256_castsi256_si128(hi32), 1);
        let mut scores = [0u32; LANES];
        _mm256_storeu_si256(scores.as_mut_ptr() as *mut __m256i, packed);
        scores
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_dot_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        q_count: usize,
        out: &mut [u32],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        debug_assert_eq!(out.len(), q_count * rows);
        for q in 0..q_count {
            let qw = batch.query_words(q_offset + q);
            let out_row = &mut out[q * rows..(q + 1) * rows];
            for b in 0..m.row_blocks() {
                let (acc_lo, acc_hi) = avx2_block_acc(data.add(b * wpr * LANES), wpr, qw);
                let scores = avx2_extract(acc_lo, acc_hi);
                let base = b * LANES;
                let take = LANES.min(rows - base);
                out_row[base..base + take].copy_from_slice(&scores[..take]);
            }
        }
    }

    /// Fused winners sweep: per-lane running best `(score, block)` kept in
    /// YMM registers (64-bit lanes; scores fit in i64 so signed compares
    /// are exact), reduced once per query with the global lowest-row
    /// tie-break.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_winners_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: &mut [(usize, u32)],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        for (q, slot) in out.iter_mut().enumerate() {
            let qw = batch.query_words(q_offset + q);
            let zero = _mm256_setzero_si256();
            let mut best_lo = zero;
            let mut best_hi = zero;
            let mut blk_lo = zero;
            let mut blk_hi = zero;
            for b in 0..m.row_blocks() {
                let (acc_lo, acc_hi) = avx2_block_acc(data.add(b * wpr * LANES), wpr, qw);
                let cur = _mm256_set1_epi64x(b as i64);
                let gt_lo = _mm256_cmpgt_epi64(acc_lo, best_lo);
                best_lo = _mm256_blendv_epi8(best_lo, acc_lo, gt_lo);
                blk_lo = _mm256_blendv_epi8(blk_lo, cur, gt_lo);
                let gt_hi = _mm256_cmpgt_epi64(acc_hi, best_hi);
                best_hi = _mm256_blendv_epi8(best_hi, acc_hi, gt_hi);
                blk_hi = _mm256_blendv_epi8(blk_hi, cur, gt_hi);
            }
            let mut scores = [0u64; LANES];
            let mut blocks = [0u64; LANES];
            _mm256_storeu_si256(scores.as_mut_ptr() as *mut __m256i, best_lo);
            _mm256_storeu_si256(scores.as_mut_ptr().add(4) as *mut __m256i, best_hi);
            _mm256_storeu_si256(blocks.as_mut_ptr() as *mut __m256i, blk_lo);
            _mm256_storeu_si256(blocks.as_mut_ptr().add(4) as *mut __m256i, blk_hi);
            *slot = super::reduce_lane_candidates(rows, |l| {
                (blocks[l] as usize * LANES + l, scores[l] as u32)
            });
        }
    }

    /// Fused top-k sweep: full blocks are skipped with two signed 64-bit
    /// compares against the k-th score (scores fit in i64, so signed
    /// compares are exact); only a beating lane pays extract + insert.
    /// Padding lanes are excluded by `take`.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_topk_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        k: usize,
        out: &mut [(usize, u32)],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        for (q, slots) in out.chunks_exact_mut(k).enumerate() {
            let qw = batch.query_words(q_offset + q);
            let mut filled = 0usize;
            for b in 0..m.row_blocks() {
                let (acc_lo, acc_hi) = avx2_block_acc(data.add(b * wpr * LANES), wpr, qw);
                if filled == k {
                    let thr = _mm256_set1_epi64x(slots[k - 1].1 as i64);
                    let gt = _mm256_or_si256(
                        _mm256_cmpgt_epi64(acc_lo, thr),
                        _mm256_cmpgt_epi64(acc_hi, thr),
                    );
                    if _mm256_movemask_epi8(gt) == 0 {
                        continue;
                    }
                }
                let scores = avx2_extract(acc_lo, acc_hi);
                let base = b * LANES;
                let take = LANES.min(rows - base);
                for (l, &s) in scores.iter().enumerate().take(take) {
                    topk_insert(slots, &mut filled, base + l, s);
                }
            }
            debug_assert_eq!(filled, k);
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) use neon_blocked::{neon_dot_range, neon_topk_range, neon_winners_range};

/// NEON blocked sweeps: the 8-lane panel is four 128-bit vectors, with
/// `vcnt` byte counts widened once per ≤ 31-word run.
#[cfg(target_arch = "aarch64")]
mod neon_blocked {
    use super::{topk_insert, BlockedBitMatrix, LANES};
    use crate::QueryBatch;
    use std::arch::aarch64::*;

    pub(crate) fn neon_dot_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        q_count: usize,
        out: &mut [u32],
    ) {
        // SAFETY: table selected only after neon detection.
        unsafe { neon_dot_range_impl(m, batch, q_offset, q_count, out) }
    }

    pub(crate) fn neon_winners_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: &mut [(usize, u32)],
    ) {
        // SAFETY: table selected only after neon detection.
        unsafe { neon_winners_range_impl(m, batch, q_offset, out) }
    }

    pub(crate) fn neon_topk_range(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        k: usize,
        out: &mut [(usize, u32)],
    ) {
        // SAFETY: table selected only after neon detection.
        unsafe { neon_topk_range_impl(m, batch, q_offset, k, out) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_block_scores(data: *const u64, wpr: usize, qw: &[u64]) -> [u32; LANES] {
        let mut acc = [vdupq_n_u64(0); 4];
        let mut w = 0usize;
        while w < wpr {
            let run = (wpr - w).min(31);
            let mut bytes = [vdupq_n_u8(0); 4];
            for (i, &qword) in qw.iter().enumerate().take(w + run).skip(w) {
                let qv = vdupq_n_u64(qword);
                let p = data.add(i * LANES);
                for (h, byte_acc) in bytes.iter_mut().enumerate() {
                    let panel = vld1q_u64(p.add(2 * h));
                    *byte_acc =
                        vaddq_u8(*byte_acc, vcntq_u8(vreinterpretq_u8_u64(vandq_u64(panel, qv))));
                }
            }
            for (a, &b) in acc.iter_mut().zip(&bytes) {
                *a = vaddq_u64(*a, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(b))));
            }
            w += run;
        }
        let mut scores = [0u32; LANES];
        for (h, &a) in acc.iter().enumerate() {
            scores[2 * h] = vgetq_lane_u64(a, 0) as u32;
            scores[2 * h + 1] = vgetq_lane_u64(a, 1) as u32;
        }
        scores
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_dot_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        q_count: usize,
        out: &mut [u32],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        debug_assert_eq!(out.len(), q_count * rows);
        for q in 0..q_count {
            let qw = batch.query_words(q_offset + q);
            let out_row = &mut out[q * rows..(q + 1) * rows];
            for b in 0..m.row_blocks() {
                let scores = neon_block_scores(data.add(b * wpr * LANES), wpr, qw);
                let base = b * LANES;
                let take = LANES.min(rows - base);
                out_row[base..base + take].copy_from_slice(&scores[..take]);
            }
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_winners_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        out: &mut [(usize, u32)],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        for (q, slot) in out.iter_mut().enumerate() {
            let qw = batch.query_words(q_offset + q);
            let mut best = (0usize, 0u32);
            for b in 0..m.row_blocks() {
                let scores = neon_block_scores(data.add(b * wpr * LANES), wpr, qw);
                let base = b * LANES;
                let take = LANES.min(rows - base);
                for (l, &s) in scores.iter().enumerate().take(take) {
                    if s > best.1 {
                        best = (base + l, s);
                    }
                }
            }
            *slot = best;
        }
    }

    /// Fused top-k sweep: once the k-best list is full, lanes that fail
    /// to beat the k-th score fall through the insert's cheap first
    /// branch; padding lanes are excluded by `take`.
    #[target_feature(enable = "neon")]
    unsafe fn neon_topk_range_impl(
        m: &BlockedBitMatrix,
        batch: &QueryBatch,
        q_offset: usize,
        k: usize,
        out: &mut [(usize, u32)],
    ) {
        let rows = m.rows();
        let wpr = m.words_per_row();
        let data = m.data().as_ptr();
        for (q, slots) in out.chunks_exact_mut(k).enumerate() {
            let qw = batch.query_words(q_offset + q);
            let mut filled = 0usize;
            for b in 0..m.row_blocks() {
                let scores = neon_block_scores(data.add(b * wpr * LANES), wpr, qw);
                let base = b * LANES;
                let take = LANES.min(rows - base);
                for (l, &s) in scores.iter().enumerate().take(take) {
                    topk_insert(slots, &mut filled, base + l, s);
                }
            }
            debug_assert_eq!(filled, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix(rows: usize, cols: usize) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        let mut state = 0x1234_5678_9abc_def0u64;
        for r in 0..rows {
            for c in 0..cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if state >> 63 == 1 {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (rows, cols) in [(1usize, 1usize), (7, 64), (8, 65), (9, 128), (16, 130), (13, 300)] {
            let m = sample_matrix(rows, cols);
            let blocked = BlockedBitMatrix::from_matrix(&m);
            assert_eq!(blocked.shape(), m.shape());
            assert_eq!(blocked.row_blocks(), rows.div_ceil(LANES));
            assert_eq!(blocked.to_matrix(), m, "{rows}x{cols}");
            for r in 0..rows {
                assert_eq!(blocked.row(r), m.row(r), "{rows}x{cols} row {r}");
            }
        }
    }

    #[test]
    fn padding_lanes_are_zero() {
        let m = sample_matrix(5, 64);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        for w in 0..blocked.words_per_row() {
            let panel = blocked.panel(0, w);
            for &lane in &panel[5..] {
                assert_eq!(lane, 0);
            }
        }
    }

    #[test]
    fn search_memory_matches_matrix() {
        let m = sample_matrix(10, 96);
        let mem = SearchMemory::new(m.clone());
        let queries: Vec<BitVector> =
            (0..9).map(|i| sample_matrix(1, 96).row(0).rotate_left(i)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let scores = mem.dot_batch(&batch).unwrap();
        let reference = m.dot_batch(&batch).unwrap();
        assert_eq!(scores, reference);
        assert_eq!(mem.winners_batch(&batch).unwrap(), m.winners_batch(&batch).unwrap());
        assert_eq!(mem, SearchMemory::new(m));
    }

    #[test]
    fn search_memory_modify_rebuilds() {
        let m = sample_matrix(9, 70);
        let mut mem = SearchMemory::new(m);
        mem.modify(|mat| mat.set(8, 69, true));
        assert!(mem.matrix().get(8, 69));
        if let Some(blocked) = mem.blocked() {
            assert!(blocked.row(8).get(69), "blocked mirror must track mutation");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let blocked = BlockedBitMatrix::from_matrix(&sample_matrix(4, 64));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(blocked.dot_batch(&batch).is_err());
        assert!(blocked.winners_batch(&batch).is_err());
    }

    #[test]
    fn blocked_row_range_matches_row_major_slice() {
        let m = sample_matrix(21, 130);
        let blocked = BlockedBitMatrix::from_matrix(&m);
        for (start, count) in [(0usize, 8usize), (8, 8), (8, 13), (16, 5), (0, 21)] {
            let sub = blocked.row_range(start, count).unwrap();
            assert_eq!(sub.to_matrix(), m.row_range(start, count).unwrap(), "{start}+{count}");
            // Padding lanes of the final block stay zero even when the
            // range cuts through a source block.
            let last = sub.row_blocks() - 1;
            for w in 0..sub.words_per_row() {
                for (l, &lane) in sub.panel(last, w).iter().enumerate() {
                    if last * LANES + l >= count {
                        assert_eq!(lane, 0, "padding lane {l} of word {w} dirty");
                    }
                }
            }
        }
        assert!(blocked.row_range(3, 4).is_err(), "unaligned start must be rejected");
        assert!(blocked.row_range(8, 0).is_err());
        assert!(blocked.row_range(16, 6).is_err());
    }

    #[test]
    fn split_rows_covers_all_rows_and_preserves_winners() {
        let m = sample_matrix(29, 96);
        let mem = SearchMemory::new(m.clone());
        let queries: Vec<BitVector> =
            (0..7).map(|i| sample_matrix(1, 96).row(0).rotate_left(i)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let reference = mem.winners_batch(&batch).unwrap();
        for shards in [1usize, 2, 3, 4, 100] {
            let parts = mem.split_rows(shards).unwrap();
            // Exactly min(shards, blocks) shards: 29 rows = 4 blocks, so
            // e.g. 3 shards must yield 3 parts (2+1+1 blocks), not 2.
            assert_eq!(parts.len(), shards.min(29usize.div_ceil(LANES)), "{shards} shards");
            // Contiguous ascending cover of all rows.
            let mut next = 0usize;
            for (offset, part) in &parts {
                assert_eq!(*offset, next);
                for r in 0..part.rows() {
                    assert_eq!(part.matrix().row(r), m.row(offset + r));
                }
                next += part.rows();
            }
            assert_eq!(next, m.rows(), "{shards} shards");
            // Shard-order merge with strict > reproduces the global
            // winners (including the low-row tie-break).
            let merged: Vec<(usize, u32)> = (0..batch.len())
                .map(|q| {
                    let mut best = (0usize, 0u32);
                    let mut first = true;
                    for (offset, part) in &parts {
                        let (row, score) = part.winners_batch(&batch).unwrap()[q];
                        if first || score > best.1 {
                            best = (offset + row, score);
                            first = false;
                        }
                    }
                    best
                })
                .collect();
            assert_eq!(merged, reference, "{shards} shards");
        }
        assert!(mem.split_rows(0).is_err());
    }
}

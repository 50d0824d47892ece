//! Progressive-precision cascade search: prefix-pruned associative
//! lookup that is bit-identical to the exact sweep.
//!
//! The IMC array the paper models evaluates an associative search
//! dimension group by dimension group, and its energy ladder (Fig. 7) is
//! proportional to how many dimensions are activated. The software
//! analogue: score a *prefix* of the dimensions for every row, prune the
//! rows that provably cannot win, and spend the remaining dimensions only
//! on the survivors.
//!
//! Exactness is by construction, not by approximation. The dot
//! similarity a row can still collect from the unscored suffix is bounded
//! by the **Hamming bound**: from `dot = (ones(q) + ones(r) − ham(q,
//! r)) / 2` and `ham ≥ |ones(q) − ones(r)|` over any dimension range,
//!
//! ```text
//! dot_suffix(q, r) ≤ min(ones(q_suffix), ones(r_suffix))
//! ```
//!
//! so after any stage a row `r` may be discarded exactly when
//!
//! ```text
//! partial[r] + min(ones(q_suffix), ones(r_suffix)) < best_partial_so_far
//! ```
//!
//! because its final score is then *strictly* below another row's final
//! score: it can neither win nor tie, so the winner **and** the
//! workspace's low-row tie-break are unchanged. Row suffix popcounts are
//! a property of the stored memory (in the paper's hardware they are
//! known when the array is programmed) and are computed once per search,
//! amortized over the whole batch; query suffix popcounts cost one pass
//! over each query's words. A one-stage [`CascadePlan`] IS the exact
//! search and runs the fused top-k sweep; a plan of `D` one-dimension
//! stages is the paper's column-by-column evaluation. The
//! `cascade_equivalence` proptest suite pins winner/score/tie-break
//! identity against [`crate::SearchMemory::search_batch`] for arbitrary
//! plans on every reachable kernel backend.
//!
//! Every search is a k-best search: the winners entry points
//! ([`crate::SearchMemory::search_cascade`], [`BoundCascade::search`],
//! [`SegmentedCascade::search`]) are its `k == 1` case, pruned against
//! the running maximum instead of the k-th best score.
//!
//! Every search also returns [`CascadeStats`] — per-stage shortlist
//! sizes and the total number of activated row-dimensions — which is the
//! telemetry `imc_sim` converts back into the paper's energy ladder.

use crate::batch::{self, multi_dot_words, topk_insert, TopK};
use crate::bits::BitMatrix;
use crate::blocked::SearchMemory;
use crate::calibrate::CostModel;
use crate::error::{LinalgError, Result};
use crate::kernel::{self, Backend};
use crate::{QueryBatch, QueryBatchBuilder, ScoreMatrix};
use std::sync::{Arc, Mutex};

/// Stage layout of a cascade search: strictly increasing dimension
/// prefixes ending at the full dimensionality.
///
/// Stage `k` scores dimensions `[ends[k-1], ends[k])` (stage 0 starts at
/// 0). Any positive widths are legal; stage boundaries that are multiples
/// of 64 are fastest because they avoid masked boundary words, and a
/// first stage near `D / 8 .. D / 4` is a good default for workloads
/// whose winners separate early (see the README's plan-picking guidance).
///
/// # Example
///
/// ```
/// use hd_linalg::CascadePlan;
///
/// let plan = CascadePlan::from_widths(512, &[64, 192, 256]).unwrap();
/// assert_eq!(plan.stages(), 3);
/// assert_eq!(plan.ends(), &[64, 256, 512]);
/// assert_eq!(CascadePlan::exact(512).stages(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadePlan {
    dim: usize,
    /// Cumulative stage boundaries; strictly increasing, last == `dim`.
    ends: Vec<usize>,
}

impl CascadePlan {
    /// Builds a plan from per-stage widths, which must be positive and
    /// sum to `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `widths` is empty or contains
    /// a zero width, and [`LinalgError::ShapeMismatch`] when the widths
    /// do not sum to `dim`.
    pub fn from_widths(dim: usize, widths: &[usize]) -> Result<Self> {
        if widths.is_empty() {
            return Err(LinalgError::Empty { op: "CascadePlan::from_widths" });
        }
        let mut ends = Vec::with_capacity(widths.len());
        let mut total = 0usize;
        for &w in widths {
            if w == 0 {
                return Err(LinalgError::Empty { op: "CascadePlan stage width" });
            }
            total += w;
            ends.push(total);
        }
        if total != dim {
            return Err(LinalgError::ShapeMismatch {
                op: "CascadePlan::from_widths",
                expected: dim,
                found: total,
            });
        }
        Ok(CascadePlan { dim, ends })
    }

    /// An even split into `stages` stages (the first `dim % stages`
    /// stages take one extra dimension).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero stages or zero `dim`, and
    /// [`LinalgError::ShapeMismatch`] when `stages > dim` (a stage would
    /// be empty).
    pub fn uniform(dim: usize, stages: usize) -> Result<Self> {
        if stages == 0 || dim == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::uniform" });
        }
        if stages > dim {
            return Err(LinalgError::ShapeMismatch {
                op: "CascadePlan::uniform",
                expected: dim,
                found: stages,
            });
        }
        let base = dim / stages;
        let extra = dim % stages;
        let widths: Vec<usize> = (0..stages).map(|s| base + usize::from(s < extra)).collect();
        Self::from_widths(dim, &widths)
    }

    /// The two-stage plan `[first, dim - first]` — score a prefix, then
    /// finish the survivors. The most common shape in practice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when either stage would be empty
    /// (`first == 0` or `first >= dim`).
    pub fn prefix(dim: usize, first: usize) -> Result<Self> {
        if first == 0 || first >= dim {
            return Err(LinalgError::Empty { op: "CascadePlan::prefix" });
        }
        Self::from_widths(dim, &[first, dim - first])
    }

    /// The degenerate one-stage plan: the cascade IS the exact search
    /// (no pruning can fire; telemetry reports full activation).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn exact(dim: usize) -> Self {
        assert!(dim > 0, "cascade plan needs a positive dimensionality");
        CascadePlan { dim, ends: vec![dim] }
    }

    /// Dimensionality the plan covers.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stages.
    #[inline]
    pub fn stages(&self) -> usize {
        self.ends.len()
    }

    /// Cumulative stage boundaries (strictly increasing; last == `dim`).
    #[inline]
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Per-stage widths in dimensions.
    pub fn widths(&self) -> Vec<usize> {
        let mut prev = 0usize;
        self.ends
            .iter()
            .map(|&e| {
                let w = e - prev;
                prev = e;
                w
            })
            .collect()
    }

    /// Rounds every interior stage boundary to the nearest positive
    /// multiple of `unit`, merging stages that collapse onto the same
    /// boundary (the final boundary stays at `dim`). This adapts an
    /// existing plan to a layout with coarser alignment requirements —
    /// `imc_sim`'s partitioned mappings need stage boundaries on segment
    /// boundaries, and word-aligned (64) boundaries avoid masked
    /// boundary words on any layout. Snapping moves boundaries **without
    /// re-validating the tuner's cost model** (answers are unaffected —
    /// plans change cost, never results); when the alignment constraint
    /// is known before tuning, prefer [`CascadePlan::tuned_aligned`],
    /// which scores candidates on the constrained grid and keeps the
    /// exact-plan fallback guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `unit == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::CascadePlan;
    ///
    /// let plan = CascadePlan::from_widths(10_240, &[600, 1_000, 8_640]).unwrap();
    /// let snapped = plan.snapped(2_048).unwrap();
    /// assert_eq!(snapped.ends(), &[2_048, 10_240]); // 600→2048, 1600→2048 (merged)
    /// assert_eq!(plan.snapped(20_000).unwrap().stages(), 1); // unit ≥ dim: exact plan
    /// ```
    pub fn snapped(&self, unit: usize) -> Result<Self> {
        if unit == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::snapped" });
        }
        if unit >= self.dim {
            return Ok(CascadePlan::exact(self.dim));
        }
        let mut ends = Vec::with_capacity(self.ends.len());
        for &e in &self.ends[..self.ends.len() - 1] {
            let r = ((e + unit / 2) / unit * unit).max(unit);
            if r >= self.dim || ends.last().is_some_and(|&prev| r <= prev) {
                continue;
            }
            ends.push(r);
        }
        ends.push(self.dim);
        Ok(CascadePlan { dim: self.dim, ends })
    }

    /// Auto-tunes a stage plan for `memory` from a sample of real
    /// queries, replacing hand-picked prefixes.
    ///
    /// Candidate word-aligned prefix widths are scored by running the
    /// exact Hamming-bound pruning on (a strided subsample of) the query
    /// sample — the expected pruning threshold is a function of the
    /// memory's row-popcount profile and the sample's query popcounts,
    /// and replaying the bound on the sample measures it directly. Each
    /// candidate's measured per-stage shortlist sizes feed a deterministic
    /// cost model (tiled SIMD prefix sweep vs. the pricier per-row
    /// continuation) whose relative prices come from the once-per-host
    /// kernel calibration ([`crate::CostModel::active`]; pin
    /// `HD_LINALG_CALIBRATION=fallback` for fully host-independent
    /// plans), a three-stage refinement of the best prefix is
    /// tried, and the winner is kept only if it beats the exact sweep's
    /// modeled cost — workloads whose rows never separate early get
    /// [`CascadePlan::exact`] back, which *is* the right plan for them.
    ///
    /// The tuned plan is workload advice, not a correctness knob: every
    /// plan yields bit-identical winners; tuning only moves where the
    /// activation (and wall-clock) lands. Tuning runs the candidate
    /// cascades over at most 64 sampled queries, so it costs a few
    /// sample-sized batch searches — amortize it like any other
    /// per-deployment derivation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty memory or query
    /// sample and [`LinalgError::ShapeMismatch`] when the sample's
    /// dimensionality differs from the memory's.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, CascadePlan, QueryBatch, SearchMemory};
    ///
    /// let rows: Vec<BitVector> =
    ///     (0..8).map(|r| BitVector::from_bools(&vec![r % 2 == 0; 256])).collect();
    /// let memory = SearchMemory::from_rows(&rows).unwrap();
    /// let sample = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 256])]).unwrap();
    /// let plan = CascadePlan::tuned(&memory, &sample).unwrap();
    /// assert_eq!(plan.dim(), 256);
    /// assert_eq!(
    ///     memory.search_cascade(&sample, &plan).unwrap().winners(),
    ///     memory.winners_batch(&sample).unwrap()
    /// );
    /// ```
    pub fn tuned(memory: &SearchMemory, sample: &QueryBatch) -> Result<Self> {
        Self::tuned_aligned(memory, sample, 64)
    }

    /// [`CascadePlan::tuned`] with every stage boundary constrained to a
    /// multiple of `unit` — the tuner for layouts with coarser alignment
    /// requirements than the word grid, primarily `imc_sim`'s
    /// partitioned mappings (`unit = D / P`, the segment length).
    /// Candidates are generated **on** the constrained grid and scored
    /// there, so the exact-plan fallback guarantee survives the
    /// constraint: a coarse grid whose cheapest aligned cascade still
    /// loses to the exact sweep gets [`CascadePlan::exact`] back.
    /// (Snapping an unconstrained tuned plan after the fact with
    /// [`CascadePlan::snapped`] does *not* re-validate cost — prefer
    /// this entry point when the constraint is known up front.)
    ///
    /// # Errors
    ///
    /// As [`CascadePlan::tuned`], plus [`LinalgError::Empty`] when
    /// `unit == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, CascadePlan, QueryBatch, SearchMemory};
    ///
    /// let rows: Vec<BitVector> =
    ///     (0..8).map(|r| BitVector::from_bools(&vec![r % 2 == 0; 512])).collect();
    /// let memory = SearchMemory::from_rows(&rows).unwrap();
    /// let sample = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 512])]).unwrap();
    /// let plan = CascadePlan::tuned_aligned(&memory, &sample, 128).unwrap();
    /// for &end in &plan.ends()[..plan.stages() - 1] {
    ///     assert_eq!(end % 128, 0); // every interior boundary on the segment grid
    /// }
    /// ```
    pub fn tuned_aligned(memory: &SearchMemory, sample: &QueryBatch, unit: usize) -> Result<Self> {
        Self::tuned_aligned_with(memory, sample, unit, &CostModel::active())
    }

    /// [`CascadePlan::tuned_aligned`] under an explicit [`CostModel`] —
    /// the hook deterministic tests and offline what-if analyses pin a
    /// model with; production callers use the calibrated
    /// [`CostModel::active`] via the public entry points.
    fn tuned_aligned_with(
        memory: &SearchMemory,
        sample: &QueryBatch,
        unit: usize,
        model: &CostModel,
    ) -> Result<Self> {
        let m = memory.matrix();
        if unit == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::tuned_aligned" });
        }
        if m.rows() == 0 || m.cols() == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::tuned" });
        }
        if sample.is_empty() {
            return Err(LinalgError::Empty { op: "CascadePlan::tuned(sample)" });
        }
        if sample.dim() != m.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "CascadePlan::tuned",
                expected: m.cols(),
                found: sample.dim(),
            });
        }
        let dim = m.cols();

        // Strided subsample: candidate evaluation replays the pruning on
        // every kept query, so cap the work while staying representative
        // of the sample's traffic mix.
        let take = sample.len().min(TUNE_SAMPLE_CAP);
        let sub_owned: QueryBatch;
        let sub = if take == sample.len() {
            sample
        } else {
            let mut builder = QueryBatchBuilder::with_capacity(dim, take);
            for i in 0..take {
                let pick = i * sample.len() / take;
                builder.push(sample.query(pick)).expect("subsample keeps the dimensionality");
            }
            sub_owned = builder.take_batch().expect("take >= 1 query");
            &sub_owned
        };

        // Two-stage candidates on the constrained grid: power-of-two
        // fractions of the dimensionality rounded up to the word grid
        // when the unit allows it, otherwise power-of-two multiples of
        // the unit itself.
        let mut widths: Vec<usize> = Vec::new();
        if unit <= 64 && 64usize.is_multiple_of(unit) {
            for frac in [64usize, 32, 16, 8, 4, 2] {
                let w = (dim / frac).max(1).next_multiple_of(64);
                if w < dim && !widths.contains(&w) {
                    widths.push(w);
                }
            }
        } else {
            let mut w = unit;
            while w < dim {
                widths.push(w);
                w *= 2;
            }
        }
        let exact_cost = modeled_exact_cost(m.rows(), dim, sub.len(), model, unit);
        let mut best: Option<(CascadePlan, f64)> = None;
        for &w in &widths {
            let plan = CascadePlan::prefix(dim, w).expect("0 < w < dim");
            let cost =
                modeled_cost(&plan, m.search_cascade_topk(sub, &plan, 1)?.stats(), model, unit);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
        // Three-stage refinement: give the best prefix a mid checkpoint
        // (on the same grid) so late-separating rows are cut before the
        // full suffix.
        if let Some((two, _)) = &best {
            let e0 = two.ends()[0];
            let grid = if unit <= 64 && 64usize.is_multiple_of(unit) { 64 } else { unit };
            let mid = (4 * e0).next_multiple_of(grid);
            if mid > e0 && mid < dim {
                let plan = CascadePlan::from_widths(dim, &[e0, mid - e0, dim - mid])
                    .expect("strictly increasing boundaries");
                let cost =
                    modeled_cost(&plan, m.search_cascade_topk(sub, &plan, 1)?.stats(), model, unit);
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    best = Some((plan, cost));
                }
            }
        }
        match best {
            Some((plan, cost)) if cost < exact_cost => Ok(plan),
            _ => Ok(CascadePlan::exact(dim)),
        }
    }
}

/// Queries the tuner replays candidate plans over, at most.
const TUNE_SAMPLE_CAP: usize = 64;

/// Packed words one stage `[prev, e)` drives per (query, row) on a
/// layout whose stage grid is `unit`-bit segments.
///
/// On the word grid (`unit % 64 == 0`, including the contiguous
/// `unit = 64` default) a stage reads words `[prev / 64, word_end(e))`:
/// interior boundaries sit on the word grid, so only an unaligned
/// *final* boundary pays a partial word, exactly once. Off the word
/// grid (`unit % 64 != 0` — partitioned layouts with unaligned segment
/// lengths) the storage is per-segment: each `unit`-bit segment lives in
/// its own `word_end(unit)` padded words and a stage drives whole
/// segments, so the per-stage count is segments × padded words — there
/// is no seam word shared with a neighbouring stage. The previous
/// accounting applied the contiguous word-window formula to every grid,
/// which both double-charged a (nonexistent) shared seam word to the
/// two stages meeting at each unaligned boundary and under-charged the
/// padding sub-word segments actually drive.
fn stage_words(prev: usize, e: usize, unit: usize) -> usize {
    if unit.is_multiple_of(64) {
        word_end(e) - prev / 64
    } else {
        (e - prev).div_ceil(unit) * word_end(unit)
    }
}

/// Deterministic cost of one measured cascade under `model`, in stage-0
/// word units, on a layout whose stage grid is `unit`-bit segments.
fn modeled_cost(plan: &CascadePlan, stats: &CascadeStats, model: &CostModel, unit: usize) -> f64 {
    let queries = stats.queries() as f64;
    let mut prev = 0usize;
    let mut cost = 0.0;
    for (k, &e) in plan.ends().iter().enumerate() {
        let words = stage_words(prev, e, unit) as f64;
        let rows_in = stats.stage_rows()[k] as f64;
        cost += if k == 0 {
            rows_in * words
        } else {
            model.cont_weight * rows_in * words + model.row_overhead_words * rows_in
        };
        cost += queries * model.stage_overhead_words;
        prev = e;
    }
    cost
}

/// What the exact one-stage sweep models to, in the same units.
fn modeled_exact_cost(
    rows: usize,
    dim: usize,
    queries: usize,
    model: &CostModel,
    unit: usize,
) -> f64 {
    (queries * rows * stage_words(0, dim, unit)) as f64
        + queries as f64 * model.stage_overhead_words
}

/// Activation telemetry of one cascade search — the quantity the paper's
/// Fig. 7 energy ladder is proportional to.
///
/// `activated_dims` counts `(row, dimension)` products actually scored:
/// an exact search activates `queries × rows × dim` of them, and every
/// pruned row saves its remaining dimensions. [`CascadeStats::merge`]
/// makes the counters additive across query chunks **of the same
/// memory** (merging stats from memories with different row counts would
/// corrupt [`CascadeStats::exact_dims`], so shapes are asserted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeStats {
    queries: usize,
    rows: usize,
    dim: usize,
    stage_rows: Vec<u64>,
    activated_dims: u64,
}

impl CascadeStats {
    pub(crate) fn zeroed(rows: usize, dim: usize, stages: usize) -> Self {
        CascadeStats { queries: 0, rows, dim, stage_rows: vec![0; stages], activated_dims: 0 }
    }

    /// Queries answered.
    #[inline]
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Memory rows searched per query.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of the searched memory.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows entering each stage, summed over queries (stage 0 always
    /// admits every row).
    #[inline]
    pub fn stage_rows(&self) -> &[u64] {
        &self.stage_rows
    }

    /// Total `(row, dimension)` products scored across all queries.
    #[inline]
    pub fn activated_dims(&self) -> u64 {
        self.activated_dims
    }

    /// What an exact search would activate: `queries × rows × dim`.
    #[inline]
    pub fn exact_dims(&self) -> u64 {
        self.queries as u64 * self.rows as u64 * self.dim as u64
    }

    /// `activated_dims / exact_dims` in `(0, 1]` — the relative energy of
    /// the cascade under the paper's activation-proportional model (1.0
    /// when no pruning fired).
    pub fn activation_fraction(&self) -> f64 {
        let exact = self.exact_dims();
        if exact == 0 {
            return 1.0;
        }
        self.activated_dims as f64 / exact as f64
    }

    /// Folds another search's counters into this one (used by the
    /// thread-chunked dispatch; callers may also merge successive
    /// batches against the same memory). Shapes must agree.
    ///
    /// # Panics
    ///
    /// Panics if `other` was produced under a different plan shape
    /// (stage count) or a memory of different dimensionality or row
    /// count.
    pub fn merge(&mut self, other: &CascadeStats) {
        assert_eq!(self.stage_rows.len(), other.stage_rows.len(), "merging unrelated plans");
        assert_eq!(self.dim, other.dim, "merging unrelated memories");
        assert_eq!(self.rows, other.rows, "merging unrelated memories");
        self.queries += other.queries;
        self.activated_dims += other.activated_dims;
        for (a, b) in self.stage_rows.iter_mut().zip(&other.stage_rows) {
            *a += b;
        }
    }
}

/// Winners plus activation telemetry of one cascade search — the k=1
/// view of a [`CascadeTopK`]. Winners are bit-identical to
/// [`crate::BitMatrix::winners_batch`] — same rows, same scores, same
/// low-row tie-break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeResults {
    winners: Vec<(usize, u32)>,
    stats: CascadeStats,
}

impl CascadeResults {
    /// The k=1 view of a top-k cascade: each query's one-entry list is
    /// its winner, so the flat list moves over without a copy.
    fn from_k1(results: CascadeTopK) -> Self {
        debug_assert_eq!(results.topk.hits_per_query(), 1);
        CascadeResults { winners: results.topk.into_entries(), stats: results.stats }
    }

    /// Number of queries answered.
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

    /// All winners, parallel to the batch's queries.
    pub fn winners(&self) -> &[(usize, u32)] {
        &self.winners
    }

    /// Consumes the results, yielding the winners without a copy.
    pub fn into_winners(self) -> Vec<(usize, u32)> {
        self.winners
    }

    /// Activation telemetry of the search.
    pub fn stats(&self) -> &CascadeStats {
        &self.stats
    }
}

/// Per-query k-best lists plus activation telemetry of one cascade
/// top-k search. The lists are bit-identical to
/// [`crate::BitMatrix::topk_batch`] — same rows, same scores, same
/// score-desc/row-asc order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeTopK {
    topk: TopK,
    stats: CascadeStats,
}

impl CascadeTopK {
    /// The per-query k-best lists.
    pub fn topk(&self) -> &TopK {
        &self.topk
    }

    /// Consumes the results, yielding the k-best lists without a copy.
    pub fn into_topk(self) -> TopK {
        self.topk
    }

    /// Activation telemetry of the search.
    pub fn stats(&self) -> &CascadeStats {
        &self.stats
    }
}

/// Exclusive end of the packed-word range covering bits `[.., hi)`.
#[inline]
fn word_end(hi: usize) -> usize {
    (hi - 1) / 64 + 1
}

/// The query words covering bits `[lo, hi)`, ready for a word-slice dot
/// over `[lo/64, word_end(hi))`: borrowed directly when the stage is
/// word-aligned (a final stage ending at `dim` counts — both operands
/// keep clean tails), otherwise boundary-masked into `scratch`.
fn stage_query<'a>(
    qw: &'a [u64],
    lo: usize,
    hi: usize,
    dim: usize,
    scratch: &'a mut Vec<u64>,
) -> &'a [u64] {
    let wlo = lo / 64;
    let whi = word_end(hi);
    if lo.is_multiple_of(64) && (hi.is_multiple_of(64) || hi == dim) {
        &qw[wlo..whi]
    } else {
        mask_stage(qw, lo, hi, scratch);
        scratch
    }
}

/// Copies the query words covering bits `[lo, hi)` into `out`, masking
/// the boundary words so only that dimension range contributes. The
/// masked copy is built once per (query, stage); per-row scoring then
/// reduces to a plain word-slice dot over `[lo/64, word_end(hi))`.
fn mask_stage(qw: &[u64], lo: usize, hi: usize, out: &mut Vec<u64>) {
    debug_assert!(lo < hi);
    let wlo = lo / 64;
    let whi = word_end(hi);
    out.clear();
    out.extend_from_slice(&qw[wlo..whi]);
    let lo_rem = lo % 64;
    if lo_rem != 0 {
        out[0] &= u64::MAX << lo_rem;
    }
    let hi_rem = hi % 64;
    if hi_rem != 0 {
        let last = out.len() - 1;
        out[last] &= (1u64 << hi_rem) - 1;
    }
}

/// Ones of `words`' bits in `[lo, hi)` without copying. Boundary words
/// are handled outside the interior loop so the hot path is a plain
/// branch-free popcount sweep.
fn ones_in_range(words: &[u64], lo: usize, hi: usize) -> u32 {
    debug_assert!(lo < hi);
    let wlo = lo / 64;
    let whi = word_end(hi);
    let lo_mask = u64::MAX << (lo % 64);
    let hi_mask = if hi.is_multiple_of(64) { u64::MAX } else { (1u64 << (hi % 64)) - 1 };
    if whi - wlo == 1 {
        return (words[wlo] & lo_mask & hi_mask).count_ones();
    }
    let mut total = (words[wlo] & lo_mask).count_ones() + (words[whi - 1] & hi_mask).count_ones();
    total += words[wlo + 1..whi - 1].iter().map(|w| w.count_ones()).sum::<u32>();
    total
}

/// Fills `suffix` (one slot per stage) with the popcount of `words` in
/// the dimensions **after** each stage boundary: `suffix[k] =
/// ones(words[ends[k]..dim))` (0 for the final stage). One pass over the
/// suffix words (stage 0's own bits are never needed): per-stage counts,
/// then a reverse cumulative sum.
fn suffix_ones(words: &[u64], ends: &[usize], suffix: &mut [u32]) {
    debug_assert_eq!(suffix.len(), ends.len());
    let stages = ends.len();
    suffix[0] = 0;
    for k in 1..stages {
        suffix[k] = ones_in_range(words, ends[k - 1], ends[k]);
    }
    // suffix[k] currently holds stage k's own ones; shift into "ones
    // after stage k" by accumulating from the back.
    let mut acc = 0u32;
    for s in suffix.iter_mut().rev() {
        let stage = *s;
        *s = acc;
        acc += stage;
    }
}

/// Row-major copy of each row's leading `e0` bits (boundary word
/// masked) — the stage-0 sub-memory the tiled batched kernels sweep.
fn prefix_matrix(m: &BitMatrix, e0: usize) -> BitMatrix {
    let w0 = word_end(e0);
    let mask = if e0.is_multiple_of(64) { u64::MAX } else { (1u64 << (e0 % 64)) - 1 };
    let mut data = Vec::with_capacity(m.rows() * w0);
    for r in 0..m.rows() {
        data.extend_from_slice(&m.row_words_pub(r)[..w0]);
        let last = data.len() - 1;
        data[last] &= mask;
    }
    BitMatrix::from_raw_words(m.rows(), e0, data)
}

/// The k-th best of `values(..)`, via a descending scratch buffer of
/// `k` scores pre-filled with zeros (every score is ≥ 0 and callers
/// guarantee at least `k` values, so the zeros are always displaced —
/// or the k-th best really is 0). The manual shift-insert keeps the
/// per-query cost branch-light: values at or below the current k-th
/// fall through on one compare. `k == 1` is a plain maximum.
fn kth_score(values: impl Iterator<Item = u32>, k: usize, buf: &mut Vec<u32>) -> u32 {
    if k == 1 {
        return values.max().unwrap_or(0);
    }
    buf.clear();
    buf.resize(k, 0);
    let b = &mut buf[..k];
    for s in values {
        if s > b[k - 1] {
            let mut i = k - 1;
            while i > 0 && b[i - 1] < s {
                b[i] = b[i - 1];
                i -= 1;
            }
            b[i] = s;
        }
    }
    b[k - 1]
}

/// The pruning skeleton of every cascade continuation, over queries
/// `[q_offset, q_offset + out.len() / k)`: takes each query's stage-0
/// partial scores (in `scores`, one `rows`-wide slice per query, updated
/// in place), prunes with the Hamming bound against the query's k-th
/// best partial score, finishes the survivors stage by stage through
/// `score_stage`, and writes `k` slots per query, score-desc then
/// row-asc. This skeleton is the exactness-critical core — the
/// contiguous and segmented continuations differ **only** in how a
/// shortlist row collects one stage's dot contribution, which is what
/// `score_stage(s, global_query, cands, partials)` supplies: it must add
/// stage `s`'s dot to `partials[r]` for every `r` in `cands` and return
/// the shortlist's new running maximum.
///
/// The k-th-best threshold stays exact: the k rows holding the k best
/// partials can only grow, so the final k-th best score is at least the
/// current k-th best partial — any row whose bound-capped potential
/// falls strictly below it can neither enter the top-k nor tie into it.
/// Those same k rows also always survive the prune (their own bound is
/// ≥ their partial), so the shortlist never drops below `k`. With
/// `k == 1` the threshold is the scorer's running maximum, so winners
/// pay no extra selection pass. A final stage's row suffixes are zero,
/// so a one-stage plan needs no special case: the stage-0 prune keeps
/// exactly the rows scoring at least the k-th best. `k` arrives
/// pre-clamped to the row count. Stage-0 telemetry is accounted by the
/// caller; this function accumulates stages `1..`.
#[allow(clippy::too_many_arguments)]
fn prune_continuation_topk_range<S>(
    rows: usize,
    ends: &[usize],
    row_suffix: &[u32],
    batch: &QueryBatch,
    k: usize,
    q_offset: usize,
    scores: &mut [u32],
    out: &mut [(usize, u32)],
    stats: &mut CascadeStats,
    mut score_stage: S,
) where
    S: FnMut(usize, usize, &[u32], &mut [u32]) -> u32,
{
    let stages = ends.len();
    debug_assert!(k >= 1 && k <= rows);
    debug_assert_eq!(scores.len() * k, out.len() * rows);
    let mut q_suffix = vec![0u32; stages];
    let mut cands: Vec<u32> = Vec::with_capacity(rows);
    let mut kbuf: Vec<u32> = Vec::with_capacity(k);
    stats.queries += out.len() / k;
    for (q, slots) in out.chunks_exact_mut(k).enumerate() {
        let partials = &mut scores[q * rows..(q + 1) * rows];
        let mut kth = kth_score(partials.iter().copied(), k, &mut kbuf);
        let gq = q_offset + q;
        let qw = batch.query_words(gq);
        // The query-side suffix popcounts cost a pass over the query's
        // words; computed lazily — only for queries whose shortlist the
        // (free) row-side bound alone fails to collapse. Both bounds are
        // exact, so pruning with the weaker one first never changes
        // results, only how much work survives.
        let mut q_suffix_ready = false;
        // Prune after stage `s`: row-side Hamming bound first, then the
        // full min(q, r) bound when more than `k` candidates remain.
        let mut prune =
            |cands: &mut Vec<u32>, partials: &[u32], s: usize, kth: u32, from_all_rows: bool| {
                let row_suf = &row_suffix[s * rows..(s + 1) * rows];
                let keep_r = |r: usize| partials[r] as u64 + row_suf[r] as u64 >= kth as u64;
                if from_all_rows {
                    cands.clear();
                    cands.extend((0..rows).filter(|&r| keep_r(r)).map(|r| r as u32));
                } else {
                    cands.retain(|&r| keep_r(r as usize));
                }
                if cands.len() > k {
                    if !q_suffix_ready {
                        suffix_ones(qw, ends, &mut q_suffix);
                        q_suffix_ready = true;
                    }
                    let qs = q_suffix[s];
                    cands.retain(|&r| {
                        let r = r as usize;
                        partials[r] as u64 + qs.min(row_suf[r]) as u64 >= kth as u64
                    });
                }
            };
        prune(&mut cands, partials, 0, kth, true);
        // Later stages: finish only the shortlist, re-pruning after each.
        for s in 1..stages {
            let max = score_stage(s, gq, &cands, partials);
            stats.stage_rows[s] += cands.len() as u64;
            stats.activated_dims += (cands.len() * (ends[s] - ends[s - 1])) as u64;
            if s + 1 < stages {
                kth = if k == 1 {
                    max
                } else {
                    kth_score(cands.iter().map(|&r| partials[r as usize]), k, &mut kbuf)
                };
                prune(&mut cands, partials, s, kth, false);
            }
        }
        // After the final stage every survivor holds its exact score and
        // the shortlist provably contains the true top-k rows; `cands`
        // stays in ascending row order, so the bounded insert (strict
        // shifts leave a tying later row behind the earlier one)
        // reproduces the workspace's low-row tie-break.
        let mut filled = 0usize;
        for &r in &cands {
            topk_insert(slots, &mut filled, r as usize, partials[r as usize]);
        }
        debug_assert_eq!(filled, k);
    }
}

/// Contiguous-memory continuation: the pruning skeleton with a row-major
/// stage scorer. `multi` is the multi-row word-slice popcount kernel (the
/// active-backend dispatcher in production; an explicit backend's table
/// entry under test): one call per (query, stage) scores the whole
/// shortlist, so the SIMD path shares each staged-query load across rows
/// instead of re-streaming it per flat-kernel call.
#[allow(clippy::too_many_arguments)]
fn continuation_topk_range<M: Fn(&[u64], &[&[u64]], &mut [u32])>(
    m: &BitMatrix,
    batch: &QueryBatch,
    plan: &CascadePlan,
    row_suffix: &[u32],
    k: usize,
    q_offset: usize,
    scores: &mut [u32],
    out: &mut [(usize, u32)],
    stats: &mut CascadeStats,
    multi: M,
) {
    let ends = plan.ends();
    let mut qmasked: Vec<u64> = Vec::new();
    let mut row_refs: Vec<&[u64]> = Vec::new();
    let mut acc: Vec<u32> = Vec::new();
    prune_continuation_topk_range(
        m.rows(),
        ends,
        row_suffix,
        batch,
        k,
        q_offset,
        scores,
        out,
        stats,
        |s, gq, cands, partials| {
            let (lo, hi) = (ends[s - 1], ends[s]);
            let qs = stage_query(batch.query_words(gq), lo, hi, m.cols(), &mut qmasked);
            let (wlo, whi) = (lo / 64, word_end(hi));
            row_refs.clear();
            row_refs.extend(cands.iter().map(|&r| &m.row_words_pub(r as usize)[wlo..whi]));
            acc.clear();
            acc.resize(cands.len(), 0);
            multi(qs, &row_refs, &mut acc);
            add_stage(cands, &acc, partials)
        },
    );
}

/// Adds one stage's per-candidate dots (`acc`, parallel to `cands`) into
/// the partial scores and returns the shortlist's new running maximum —
/// the threshold a `k == 1` continuation prunes against.
fn add_stage(cands: &[u32], acc: &[u32], partials: &mut [u32]) -> u32 {
    let mut max = 0;
    for (&r, &d) in cands.iter().zip(acc) {
        let s = partials[r as usize] + d;
        partials[r as usize] = s;
        max = max.max(s);
    }
    max
}

/// Row suffix popcounts at every stage boundary (`row_suffix[k * rows +
/// r]` = ones of row `r` after stage `k`): a property of the stored
/// memory (known when a hardware array is programmed), computed once per
/// search and amortized over the whole batch.
fn row_suffix_table(m: &BitMatrix, ends: &[usize]) -> Vec<u32> {
    let rows = m.rows();
    let stages = ends.len();
    let mut table = vec![0u32; stages * rows];
    let mut scratch = vec![0u32; stages];
    for r in 0..rows {
        suffix_ones(m.row_words_pub(r), ends, &mut scratch);
        for (k, &s) in scratch.iter().enumerate() {
            table[k * rows + r] = s;
        }
    }
    table
}

/// The run tail of every multi-stage search: stage-0 telemetry over the
/// precomputed stage-0 `scores` (one row per query), then
/// `continuation(per_query, q_offset, scores, out, stats)` over every
/// query, thread-chunked under the `rayon` feature, packed into k-best
/// lists. `k` is the caller's request; lists are clamped to the row
/// count.
fn cascade_run_topk<F>(
    plan: &CascadePlan,
    mut scores: ScoreMatrix,
    k: usize,
    continuation: F,
) -> CascadeTopK
where
    F: Fn(usize, usize, &mut [u32], &mut [(usize, u32)], &mut CascadeStats) + Sync,
{
    let (q_total, rows) = scores.shape();
    let per_query = k.min(rows);
    let mut entries = vec![(0usize, 0u32); q_total * per_query];
    let mut stats = CascadeStats::zeroed(rows, plan.dim(), plan.stages());
    stats.stage_rows[0] = (q_total * rows) as u64;
    stats.activated_dims = (q_total * rows * plan.ends()[0]) as u64;
    chunked_continuation(
        per_query,
        scores.data_mut(),
        &mut entries,
        &mut stats,
        |q_offset, score_chunk, out_chunk, local| {
            continuation(per_query, q_offset, score_chunk, out_chunk, local)
        },
    );
    CascadeTopK { topk: TopK::from_flat(q_total, k, per_query, entries), stats }
}

/// A one-stage plan IS the exact search: the fused top-k sweep answers
/// it (`k == 1` runs the fused winners kernel), and its telemetry —
/// every row activated across the full width — is computed, not counted.
fn exact_cascade(topk: TopK, rows: usize, dim: usize) -> CascadeTopK {
    let queries = topk.len();
    let scored = (queries * rows) as u64;
    let stats = CascadeStats {
        queries,
        rows,
        dim,
        stage_rows: vec![scored],
        activated_dims: scored * dim as u64,
    };
    CascadeTopK { topk, stats }
}

/// The per-(plan, memory) derived artifacts of a multi-stage cascade:
/// the stage-0 prefix sub-memory (pre-packed for the active SIMD
/// backend) and the row-suffix table. Deriving one costs a pass over the
/// memory; every cached search reuses it for free.
#[derive(Debug)]
pub(crate) struct BoundForm {
    /// Stage boundaries this form was derived for (the cache key).
    ends: Vec<usize>,
    /// Boundary-masked stage-0 sub-memory.
    prefix: SearchMemory,
    row_suffix: Vec<u32>,
}

impl BoundForm {
    /// Derives `plan`'s artifacts over `m` — `None` for a one-stage plan,
    /// which the fused sweep answers with nothing derived.
    fn derive(m: &BitMatrix, plan: &CascadePlan) -> Option<Self> {
        (plan.stages() > 1).then(|| BoundForm {
            ends: plan.ends().to_vec(),
            prefix: SearchMemory::new(prefix_matrix(m, plan.ends()[0])),
            row_suffix: row_suffix_table(m, plan.ends()),
        })
    }

    /// The cascade over `m` on the active backend. Stage 0 is the full
    /// batched tiled sweep (SIMD blocked layout, `rayon` chunking) over
    /// the prefix sub-memory, driven by the **full-width** queries — the
    /// kernels read only the memory's word width per row, and the prefix
    /// memory's masked boundary word keeps out-of-stage query bits from
    /// contributing — so the all-rows stage runs at exactly the exact
    /// search's per-dimension cost, with no query re-packing. The pruning
    /// continuation finishes the survivors.
    fn search(
        &self,
        m: &BitMatrix,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
    ) -> CascadeTopK {
        let mut scores = ScoreMatrix::zeros(batch.len(), m.rows());
        batch::dot_batch_dispatch(self.prefix.memory_ref(), batch, &mut scores);
        cascade_run_topk(plan, scores, k, |per_query, q_offset, scores, out, stats| {
            continuation_topk_range(
                m,
                batch,
                plan,
                &self.row_suffix,
                per_query,
                q_offset,
                scores,
                out,
                stats,
                multi_dot_words,
            )
        })
    }
}

/// Runs `plan` over a pre-packed memory with its bound form, if any: a
/// one-stage plan (no form) takes the fused sweep over the memory's own
/// blocked mirror.
fn bound_search(
    memory: &SearchMemory,
    plan: &CascadePlan,
    form: Option<&BoundForm>,
    batch: &QueryBatch,
    k: usize,
) -> Result<CascadeTopK> {
    Ok(match form {
        Some(form) => form.search(memory.matrix(), batch, plan, k),
        None => exact_cascade(memory.topk_batch(batch, k)?, memory.rows(), memory.cols()),
    })
}

/// How many distinct plans a memory caches bound forms for. Repeated-batch
/// loops use one plan (sometimes one tuned + one hand-picked); anything
/// past a handful is churn, and each form costs a prefix copy of the
/// memory.
const BOUND_CACHE_CAP: usize = 4;

/// Per-memory cache of [`BoundForm`]s, keyed by plan stage boundaries and
/// kept in most-recently-used order. Attached to every [`SearchMemory`];
/// invalidated whenever the memory mutates (see
/// [`SearchMemory::modify_reporting`]). Interior mutability keeps
/// [`SearchMemory::search_cascade`] a `&self` call.
pub(crate) struct CascadeCache {
    entries: Mutex<Vec<Arc<BoundForm>>>,
}

impl CascadeCache {
    pub(crate) fn new() -> Self {
        CascadeCache { entries: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<BoundForm>>> {
        // A panic while holding the lock leaves at worst a stale LRU
        // order or a missing entry — both benign — so recover instead of
        // propagating the poison.
        self.entries.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Drops every derived form (the memory's bits changed).
    pub(crate) fn invalidate(&self) {
        self.lock().clear();
    }

    /// Cached forms currently held (test introspection).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns the cached form for `plan`, deriving and inserting it on a
    /// miss (evicting the least-recently-used entry at capacity); `None`
    /// for a one-stage plan, which derives nothing and is never cached.
    /// Derivation runs **outside** the lock — an O(rows × dim) pass must
    /// not serialize concurrent searchers' cache hits — so two threads
    /// missing the same plan may both derive; the loser adopts the
    /// winner's already-inserted form.
    pub(crate) fn get_or_derive(
        &self,
        m: &BitMatrix,
        plan: &CascadePlan,
    ) -> Option<Arc<BoundForm>> {
        if let Some(form) = self.touch(plan) {
            return Some(form);
        }
        let form = Arc::new(BoundForm::derive(m, plan)?);
        let mut entries = self.lock();
        if let Some(pos) = entries.iter().position(|f| f.ends == plan.ends) {
            // Lost the derivation race: keep the inserted form (callers
            // holding it stay coherent with the cache) and drop ours.
            let existing = entries.remove(pos);
            entries.push(Arc::clone(&existing));
            return Some(existing);
        }
        if entries.len() == BOUND_CACHE_CAP {
            entries.remove(0);
        }
        entries.push(Arc::clone(&form));
        Some(form)
    }

    /// Looks up `plan`'s form, refreshing its LRU position on a hit.
    fn touch(&self, plan: &CascadePlan) -> Option<Arc<BoundForm>> {
        let mut entries = self.lock();
        let pos = entries.iter().position(|f| f.ends == plan.ends)?;
        let form = entries.remove(pos);
        entries.push(Arc::clone(&form));
        Some(form)
    }
}

impl std::fmt::Debug for CascadeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeCache").field("entries", &self.lock().len()).finish()
    }
}

/// A cascade plan explicitly bound to one shared memory: a cheap handle
/// over the same per-(plan, memory) bound form that
/// [`SearchMemory::search_cascade`] caches internally. Constructing one
/// warms the memory's cache, pins the derived artifacts for the handle's
/// lifetime (immune to cache eviction), and carries the `Arc` a serving
/// thread needs — this is what `hd_serve`'s cascade adapters hold.
///
/// One-shot callers can simply call [`SearchMemory::search_cascade`]:
/// since the cache landed there, repeated batches against the same
/// memory and plan reuse the derived form either way.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, BoundCascade, CascadePlan, QueryBatch, SearchMemory};
/// use std::sync::Arc;
///
/// let rows: Vec<BitVector> =
///     (0..8).map(|r| BitVector::from_bools(&[r % 2 == 0, true, false, r % 3 == 0])).collect();
/// let memory = Arc::new(SearchMemory::from_rows(&rows).unwrap());
/// let bound = BoundCascade::new(Arc::clone(&memory), CascadePlan::prefix(4, 2).unwrap()).unwrap();
/// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 4])]).unwrap();
/// assert_eq!(bound.search(&batch).unwrap().winners(), memory.winners_batch(&batch).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct BoundCascade {
    memory: Arc<SearchMemory>,
    plan: CascadePlan,
    /// `None` for a one-stage plan (the fused sweep needs no form).
    form: Option<Arc<BoundForm>>,
}

impl BoundCascade {
    /// Binds `plan` to `memory`, deriving (or reusing from the memory's
    /// cache) the stage-0 prefix sub-memory and the row-suffix table.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a memory with no rows and
    /// [`LinalgError::ShapeMismatch`] when the plan's dimensionality
    /// differs from the memory's.
    pub fn new(memory: Arc<SearchMemory>, plan: CascadePlan) -> Result<Self> {
        let m = memory.matrix();
        if m.rows() == 0 {
            return Err(LinalgError::Empty { op: "BoundCascade::new" });
        }
        if plan.dim() != m.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "BoundCascade::new",
                expected: m.cols(),
                found: plan.dim(),
            });
        }
        let form = memory.cascade_cache().get_or_derive(m, &plan);
        Ok(BoundCascade { memory, plan, form })
    }

    /// The bound stage plan.
    pub fn plan(&self) -> &CascadePlan {
        &self.plan
    }

    /// The bound memory.
    pub fn memory(&self) -> &SearchMemory {
        &self.memory
    }

    /// Cascade search over the bound memory — bit-identical winners to
    /// [`SearchMemory::winners_batch`], with no per-call re-derivation.
    /// The k=1 view of [`BoundCascade::search_topk`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the batch
    /// dimensionality differs from the memory's.
    pub fn search(&self, batch: &QueryBatch) -> Result<CascadeResults> {
        self.search_topk(batch, 1).map(CascadeResults::from_k1)
    }

    /// Top-k cascade search over the bound memory — bit-identical lists
    /// to [`SearchMemory::topk_batch`] (score desc, row asc), with no
    /// per-call re-derivation. `k` is clamped to the row count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `k == 0` and
    /// [`LinalgError::ShapeMismatch`] when the batch dimensionality
    /// differs from the memory's.
    pub fn search_topk(&self, batch: &QueryBatch, k: usize) -> Result<CascadeTopK> {
        if k == 0 {
            return Err(LinalgError::Empty { op: "BoundCascade::search_topk" });
        }
        let m = self.memory.matrix();
        if batch.dim() != m.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "BoundCascade::search_topk",
                expected: m.cols(),
                found: batch.dim(),
            });
        }
        bound_search(&self.memory, &self.plan, self.form.as_deref(), batch, k)
    }
}

/// Runs a cascade continuation over all queries, chunked across scoped
/// threads under the `rayon` feature: each chunk owns disjoint score and
/// output slices plus its own telemetry, merged after the join —
/// bit-identical to the serial order because queries are independent.
/// `out` holds `slots_per_query` entries per query; `run(q_offset,
/// scores, out, stats)` must process the chunk's queries exactly as the
/// serial call would. The memory shape comes from `stats`. Stage-0
/// counters are set wholesale by the caller and stay 0 in every
/// chunk-local (continuations never write stage 0), so the general merge
/// adds exactly the later stages.
#[cfg(feature = "rayon")]
fn chunked_continuation<F>(
    slots_per_query: usize,
    scores: &mut [u32],
    out: &mut [(usize, u32)],
    stats: &mut CascadeStats,
    run: F,
) where
    F: Fn(usize, &mut [u32], &mut [(usize, u32)], &mut CascadeStats) + Sync,
{
    let (rows, dim, stages) = (stats.rows, stats.dim, stats.stage_rows.len());
    let q = out.len() / slots_per_query;
    let work = q * rows * dim.div_ceil(64);
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if threads < 2 || work < batch::PARALLEL_THRESHOLD || q < 2 * batch::QUERY_TILE {
        run(0, scores, out, stats);
        return;
    }
    let chunks = threads.min(q.div_ceil(batch::QUERY_TILE));
    let per_chunk = q.div_ceil(chunks).next_multiple_of(batch::QUERY_TILE);
    type Job<'a> = (usize, &'a mut [u32], &'a mut [(usize, u32)]);
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(chunks);
    let mut score_rest = scores;
    let mut out_rest = out;
    let mut offset = 0usize;
    while !out_rest.is_empty() {
        let take = per_chunk.min(out_rest.len() / slots_per_query);
        let (o_head, o_tail) = out_rest.split_at_mut(take * slots_per_query);
        let (s_head, s_tail) = score_rest.split_at_mut(take * rows);
        jobs.push((offset, s_head, o_head));
        out_rest = o_tail;
        score_rest = s_tail;
        offset += take;
    }
    let run = &run;
    let locals: Vec<CascadeStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(q_offset, score_chunk, out_chunk)| {
                scope.spawn(move || {
                    let mut local = CascadeStats::zeroed(rows, dim, stages);
                    run(q_offset, score_chunk, out_chunk, &mut local);
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cascade chunk worker panicked")).collect()
    });
    for local in &locals {
        stats.merge(local);
    }
}

/// Serial fallback of the chunked continuation (no `rayon` feature).
#[cfg(not(feature = "rayon"))]
fn chunked_continuation<F>(
    _slots_per_query: usize,
    scores: &mut [u32],
    out: &mut [(usize, u32)],
    stats: &mut CascadeStats,
    run: F,
) where
    F: Fn(usize, &mut [u32], &mut [(usize, u32)], &mut CascadeStats),
{
    run(0, scores, out, stats);
}

/// A cascade plan bound to a **column-segmented** memory: `P` equal-width
/// segment memories where segment `p` of logical row `r` holds dimensions
/// `[p·seg_len, (p+1)·seg_len)` — the layout `imc_sim`'s partitioned
/// mappings store (one [`SearchMemory`] per partition). Stage boundaries
/// must land on segment boundaries (snap a tuned plan with
/// [`CascadePlan::snapped`]): a prefix of logical dimensions is then a
/// prefix of whole segments, so stage 0 runs each covered partition's
/// tiled SIMD sweep and the pruning continuation finishes survivors
/// segment by segment. Winners (scores and the low-row tie-break
/// included) are bit-identical to accumulating every partition's exact
/// scores.
///
/// The handle owns the per-(plan, layout) derived artifact — the logical
/// row-suffix table assembled from per-partition row popcounts — so
/// repeated batches skip the derivation. The segment memories themselves
/// stay with the caller (who owns and may mutate them): pass the **same**
/// partitions to every [`SegmentedCascade::search`] call, and re-derive
/// the handle when their bits change. `imc_sim::AmMapping` wraps exactly
/// that contract, invalidating its cached handle on fault injection.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, CascadePlan, QueryBatch, SearchMemory, SegmentedCascade};
///
/// // Two 4-bit segments of three 8-bit logical rows.
/// let rows: Vec<BitVector> =
///     (0..3).map(|r| BitVector::from_bools(&vec![r != 1; 8])).collect();
/// let parts: Vec<SearchMemory> = (0..2)
///     .map(|p| {
///         let segs: Vec<BitVector> = rows.iter().map(|row| row.slice(p * 4, 4)).collect();
///         SearchMemory::from_rows(&segs).unwrap()
///     })
///     .collect();
/// let plan = CascadePlan::prefix(8, 4).unwrap(); // boundary on the segment seam
/// let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
/// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 8])]).unwrap();
/// let results = cascade.search(&parts, &batch).unwrap();
/// assert_eq!(results.winner(0), (0, 8));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedCascade {
    plan: CascadePlan,
    rows: usize,
    seg_len: usize,
    /// Logical row-suffix popcounts at every stage boundary, assembled
    /// from per-partition row popcounts (layout: `stages × rows`, like
    /// the contiguous table).
    row_suffix: Vec<u32>,
    /// Total popcount of every partition at derivation time — a cheap
    /// staleness fingerprint: debug builds assert it against the
    /// partitions passed to [`SegmentedCascade::search`], catching
    /// callers that mutated a segment (or swapped in a different
    /// same-shape layout) without re-deriving the handle.
    ones_fingerprint: u64,
}

impl SegmentedCascade {
    /// Derives the handle for `plan` over the segment memories.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for no partitions / empty
    /// partitions and [`LinalgError::ShapeMismatch`] when partitions
    /// disagree on shape, the plan's dimensionality is not
    /// `partitions × seg_len`, or an interior stage boundary is not a
    /// multiple of the segment length (`op:
    /// "SegmentedCascade stage boundary"`, with the offending boundary
    /// as `found`).
    pub fn new(parts: &[SearchMemory], plan: &CascadePlan) -> Result<Self> {
        let (rows, seg_len) = check_segments(parts, plan)?;
        let stages = plan.stages();
        let ends = plan.ends();
        let mut row_suffix = vec![0u32; stages * rows];
        // Suffix-accumulate whole partitions from the back: segment
        // popcounts are a property of the programmed layout, computed
        // once here and reused by every search.
        let mut acc = vec![0u32; rows];
        let mut next_part = parts.len();
        for k in (0..stages).rev() {
            let boundary_seg = ends[k] / seg_len;
            while next_part > boundary_seg {
                next_part -= 1;
                let m = parts[next_part].matrix();
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += m.row_words_pub(r).iter().map(|w| w.count_ones()).sum::<u32>();
                }
            }
            row_suffix[k * rows..(k + 1) * rows].copy_from_slice(&acc);
        }
        Ok(SegmentedCascade {
            plan: plan.clone(),
            rows,
            seg_len,
            row_suffix,
            ones_fingerprint: segments_fingerprint(parts),
        })
    }

    /// The bound stage plan.
    pub fn plan(&self) -> &CascadePlan {
        &self.plan
    }

    /// Cascade search over the segment memories the handle was derived
    /// from. Winners are bit-identical to summing every partition's
    /// exact scores and taking the low-row argmax. The k=1 view of
    /// [`SegmentedCascade::search_topk`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `parts` disagrees
    /// with the bound layout or the batch dimensionality differs from
    /// the plan's, and [`LinalgError::Empty`] for empty partitions.
    pub fn search(&self, parts: &[SearchMemory], batch: &QueryBatch) -> Result<CascadeResults> {
        self.search_topk(parts, batch, 1).map(CascadeResults::from_k1)
    }

    /// Top-k cascade search over the segment memories — per-query k-best
    /// lists bit-identical to summing every partition's exact scores and
    /// selecting with the score-desc/row-asc order. `k` is clamped to
    /// the row count.
    ///
    /// # Errors
    ///
    /// As [`SegmentedCascade::search`], plus [`LinalgError::Empty`] for
    /// `k == 0`.
    pub fn search_topk(
        &self,
        parts: &[SearchMemory],
        batch: &QueryBatch,
        k: usize,
    ) -> Result<CascadeTopK> {
        if k == 0 {
            return Err(LinalgError::Empty { op: "SegmentedCascade::search_topk" });
        }
        let (scores, seg_batches) = self.stage0_setup(parts, batch)?;
        Ok(cascade_run_topk(&self.plan, scores, k, |per_query, q_offset, scores, out, stats| {
            segmented_continuation_topk_range(
                parts,
                &seg_batches,
                batch,
                self.seg_len,
                self.plan.ends(),
                &self.row_suffix,
                per_query,
                q_offset,
                scores,
                out,
                stats,
            )
        }))
    }

    /// The head of [`SegmentedCascade::search_topk`]: validation,
    /// staleness fingerprint, per-partition query segment batches, and
    /// the stage-0 accumulated sweep.
    fn stage0_setup(
        &self,
        parts: &[SearchMemory],
        batch: &QueryBatch,
    ) -> Result<(ScoreMatrix, Arc<[QueryBatch]>)> {
        let (rows, seg_len) = check_segments(parts, &self.plan)?;
        if rows != self.rows || seg_len != self.seg_len {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade::search",
                expected: self.rows,
                found: rows,
            });
        }
        if batch.dim() != self.plan.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade::search",
                expected: self.plan.dim(),
                found: batch.dim(),
            });
        }
        // The row-suffix table describes the bits the handle was derived
        // from; a mutated or swapped segment set would make the pruning
        // bound lie. Cheap popcount fingerprint, debug builds only.
        debug_assert_eq!(
            segments_fingerprint(parts),
            self.ones_fingerprint,
            "SegmentedCascade::search called with partitions whose bits changed since \
             SegmentedCascade::new — re-derive the handle"
        );
        let q = batch.len();
        let ends = self.plan.ends();
        let seg0_count = ends[0] / seg_len;

        // Per-partition query segment batches, via the batch's cached
        // segmented view: word-aligned segments are zero-copy windows
        // over the packed queries, unaligned ones were per-bit packed
        // exactly once — repeat searches over the same batch reuse the
        // same derivation instead of rebuilding it every flush.
        let seg_batches = batch.segments(seg_len)?;

        // Stage 0: every covered partition's full tiled sweep,
        // accumulated digitally — identical structure to the exact
        // partitioned batch search.
        let mut scores = ScoreMatrix::zeros(q, rows);
        let mut scratch = ScoreMatrix::zeros(0, 0);
        for (p, part) in parts.iter().enumerate().take(seg0_count) {
            if p == 0 {
                part.dot_batch_into(&seg_batches[p], &mut scores)
                    .expect("segment width matches partition matrix");
            } else {
                part.dot_batch_into(&seg_batches[p], &mut scratch)
                    .expect("segment width matches partition matrix");
                for i in 0..q {
                    let partials = scratch.scores(i);
                    for (dst, &s) in scores.scores_mut(i).iter_mut().zip(partials) {
                        *dst += s;
                    }
                }
            }
        }
        Ok((scores, seg_batches))
    }
}

/// Total popcount across every partition's rows — the staleness
/// fingerprint [`SegmentedCascade`] pins its derived tables to.
fn segments_fingerprint(parts: &[SearchMemory]) -> u64 {
    parts
        .iter()
        .map(|part| {
            let m = part.matrix();
            (0..m.rows())
                .map(|r| m.row_words_pub(r).iter().map(|w| w.count_ones() as u64).sum::<u64>())
                .sum::<u64>()
        })
        .sum()
}

/// Validates a segment set against a plan; returns `(rows, seg_len)`.
fn check_segments(parts: &[SearchMemory], plan: &CascadePlan) -> Result<(usize, usize)> {
    if parts.is_empty() {
        return Err(LinalgError::Empty { op: "SegmentedCascade partitions" });
    }
    let rows = parts[0].rows();
    let seg_len = parts[0].cols();
    if rows == 0 || seg_len == 0 {
        return Err(LinalgError::Empty { op: "SegmentedCascade partitions" });
    }
    for part in parts {
        if part.rows() != rows {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade segment rows",
                expected: rows,
                found: part.rows(),
            });
        }
        if part.cols() != seg_len {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade segment width",
                expected: seg_len,
                found: part.cols(),
            });
        }
    }
    let dim = seg_len * parts.len();
    if plan.dim() != dim {
        return Err(LinalgError::ShapeMismatch {
            op: "SegmentedCascade plan",
            expected: dim,
            found: plan.dim(),
        });
    }
    for &e in &plan.ends()[..plan.stages() - 1] {
        if !e.is_multiple_of(seg_len) {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade stage boundary",
                expected: seg_len,
                found: e,
            });
        }
    }
    Ok((rows, seg_len))
}

/// The segmented analogue of [`continuation_topk_range`]: the same
/// pruning skeleton (row suffixes from the pre-derived table, query
/// suffixes lazily from the full-width query words, which stage
/// boundaries slice contiguously), with a stage scorer that collects
/// each shortlist row's contribution partition by partition.
#[allow(clippy::too_many_arguments)]
fn segmented_continuation_topk_range(
    parts: &[SearchMemory],
    seg_batches: &[QueryBatch],
    batch: &QueryBatch,
    seg_len: usize,
    ends: &[usize],
    row_suffix: &[u32],
    k: usize,
    q_offset: usize,
    scores: &mut [u32],
    out: &mut [(usize, u32)],
    stats: &mut CascadeStats,
) {
    let mut row_refs: Vec<&[u64]> = Vec::new();
    let mut acc: Vec<u32> = Vec::new();
    prune_continuation_topk_range(
        parts[0].rows(),
        ends,
        row_suffix,
        batch,
        k,
        q_offset,
        scores,
        out,
        stats,
        |s, gq, cands, partials| {
            let (lo, hi) = (ends[s - 1], ends[s]);
            let (p_lo, p_hi) = (lo / seg_len, hi / seg_len);
            acc.clear();
            acc.resize(cands.len(), 0);
            for (p, part) in parts.iter().enumerate().take(p_hi).skip(p_lo) {
                let qs: &[u64] = seg_batches[p].query_words(gq);
                let pm = part.matrix();
                row_refs.clear();
                row_refs.extend(cands.iter().map(|&r| pm.row_words_pub(r as usize)));
                multi_dot_words(qs, &row_refs, &mut acc);
            }
            add_stage(cands, &acc, partials)
        },
    );
}

fn check_cascade(m: &BitMatrix, batch: &QueryBatch, plan: &CascadePlan, k: usize) -> Result<()> {
    if k == 0 {
        return Err(LinalgError::Empty { op: "search_cascade_topk" });
    }
    if m.rows() == 0 {
        return Err(LinalgError::Empty { op: "search_cascade" });
    }
    if batch.dim() != m.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "search_cascade",
            expected: m.cols(),
            found: batch.dim(),
        });
    }
    if plan.dim() != m.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "search_cascade(plan)",
            expected: m.cols(),
            found: plan.dim(),
        });
    }
    Ok(())
}

impl BitMatrix {
    /// Progressive-precision batched search: prefix-scores every row
    /// with the tiled batched kernels, prunes rows that provably cannot
    /// win (Hamming bound), and finishes only the survivors. Winners
    /// (rows, scores, and the low-row tie-break) are bit-identical to
    /// [`BitMatrix::winners_batch`]; the returned [`CascadeStats`]
    /// reports how many row-dimensions were activated. The k=1 view of
    /// [`BitMatrix::search_cascade_topk`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the batch or plan
    /// dimensionality differs from `cols`, and [`LinalgError::Empty`]
    /// for a memory with no rows.
    pub fn search_cascade(&self, batch: &QueryBatch, plan: &CascadePlan) -> Result<CascadeResults> {
        self.search_cascade_topk(batch, plan, 1).map(CascadeResults::from_k1)
    }

    /// Top-k cascade search: per-query k-best `(row, score)` lists
    /// bit-identical to [`BitMatrix::topk_batch`] (score desc, row asc),
    /// pruned against each query's running k-th-best score. `k` is
    /// clamped to the row count. A one-stage plan runs the fused sweep.
    /// The prefix sub-memory and row-suffix table are rebuilt per call;
    /// batch after batch against one memory should go through
    /// [`SearchMemory::search_cascade_topk`] (which caches the derived
    /// bound form per plan) or an explicit [`BoundCascade`] handle.
    ///
    /// # Errors
    ///
    /// As [`BitMatrix::search_cascade`], plus [`LinalgError::Empty`] for
    /// `k == 0`.
    pub fn search_cascade_topk(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
    ) -> Result<CascadeTopK> {
        check_cascade(self, batch, plan, k)?;
        Ok(match BoundForm::derive(self, plan) {
            Some(form) => form.search(self, batch, plan, k),
            None => exact_cascade(self.topk_batch(batch, k)?, self.rows(), self.cols()),
        })
    }
}

impl SearchMemory {
    /// [`BitMatrix::search_cascade`] over this memory's rows — the k=1
    /// view of [`SearchMemory::search_cascade_topk`].
    ///
    /// # Errors
    ///
    /// As [`BitMatrix::search_cascade`].
    pub fn search_cascade(&self, batch: &QueryBatch, plan: &CascadePlan) -> Result<CascadeResults> {
        self.search_cascade_topk(batch, plan, 1).map(CascadeResults::from_k1)
    }

    /// [`BitMatrix::search_cascade_topk`] over this memory's rows. Stage
    /// 0 runs the tiled batched sweep over the (boundary-masked)
    /// dimension prefix of every row; the shortlist stages use row-major
    /// candidate access, so wide rows still ride the active SIMD backend
    /// through the multi-row word kernel. A one-stage plan runs the fused
    /// sweep over the pre-packed mirror.
    ///
    /// The plan's derived artifacts (prefix sub-memory, row-suffix
    /// table) are cached on this memory keyed by the plan's stage
    /// boundaries, so repeated-batch loops — QAT epochs, eval sweeps,
    /// serving flushes — derive them once per (plan, memory) instead of
    /// once per call. Any mutation through [`SearchMemory::modify`] /
    /// [`SearchMemory::modify_reporting`] invalidates the cache, and the
    /// next search re-derives against the new bits.
    ///
    /// # Errors
    ///
    /// As [`BitMatrix::search_cascade_topk`].
    pub fn search_cascade_topk(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
    ) -> Result<CascadeTopK> {
        let m = self.matrix();
        check_cascade(m, batch, plan, k)?;
        let form = self.cascade_cache().get_or_derive(m, plan);
        bound_search(self, plan, form.as_deref(), batch, k)
    }

    /// [`SearchMemory::search_cascade_topk`] on an explicit backend —
    /// the equivalence-testing hook. Every plan, one-stage included,
    /// runs the pruning skeleton: stage 0 per-row through the backend's
    /// flat word kernel, the continuation through its multi-row kernel,
    /// both bit-identical by the kernel contract.
    ///
    /// # Errors
    ///
    /// As [`BitMatrix::search_cascade_topk`].
    ///
    /// # Panics
    ///
    /// Panics if `backend` is unavailable on this host.
    pub fn search_cascade_topk_with(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
        backend: Backend,
    ) -> Result<CascadeTopK> {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        let m = self.matrix();
        check_cascade(m, batch, plan, k)?;
        let table = kernel::table_for(backend);
        let e0 = plan.ends()[0];
        let w0 = word_end(e0);
        // Stage 0 through the explicit backend's flat kernel.
        let mut scores = ScoreMatrix::zeros(batch.len(), m.rows());
        let mut qmasked = Vec::new();
        for q in 0..batch.len() {
            mask_stage(batch.query_words(q), 0, e0, &mut qmasked);
            for (r, slot) in scores.scores_mut(q).iter_mut().enumerate() {
                *slot = (table.dot_words)(&m.row_words_pub(r)[..w0], &qmasked);
            }
        }
        let row_suffix = row_suffix_table(m, plan.ends());
        Ok(cascade_run_topk(plan, scores, k, |per_query, q_offset, scores, out, stats| {
            continuation_topk_range(
                m,
                batch,
                plan,
                &row_suffix,
                per_query,
                q_offset,
                scores,
                out,
                stats,
                |qs: &[u64], rs: &[&[u64]], out: &mut [u32]| (table.multi_dot_words)(qs, rs, out),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::BitVector;
    use rand::Rng;

    fn random_bits(len: usize, rng: &mut rand::rngs::StdRng) -> BitVector {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        BitVector::from_bools(&bits)
    }

    #[test]
    fn plan_construction_and_validation() {
        let p = CascadePlan::from_widths(300, &[100, 100, 100]).unwrap();
        assert_eq!((p.dim(), p.stages()), (300, 3));
        assert_eq!(p.widths(), vec![100, 100, 100]);
        assert_eq!(CascadePlan::uniform(10, 3).unwrap().widths(), vec![4, 3, 3]);
        assert_eq!(CascadePlan::prefix(128, 32).unwrap().ends(), &[32, 128]);
        assert_eq!(CascadePlan::exact(64).ends(), &[64]);
        assert!(CascadePlan::from_widths(10, &[]).is_err());
        assert!(CascadePlan::from_widths(10, &[5, 0, 5]).is_err());
        assert!(CascadePlan::from_widths(10, &[5, 6]).is_err());
        assert!(CascadePlan::uniform(4, 5).is_err());
        assert!(CascadePlan::uniform(0, 1).is_err());
        assert!(CascadePlan::prefix(64, 0).is_err());
        assert!(CascadePlan::prefix(64, 64).is_err());
    }

    #[test]
    fn cascade_matches_exact_search() {
        let mut rng = seeded(21);
        for dim in [1usize, 63, 64, 65, 130, 300] {
            let rows: Vec<BitVector> = (0..13).map(|_| random_bits(dim, &mut rng)).collect();
            let mem = SearchMemory::from_rows(&rows).unwrap();
            let queries: Vec<BitVector> = (0..17).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let reference = mem.winners_batch(&batch).unwrap();
            for plan in [
                CascadePlan::exact(dim),
                CascadePlan::uniform(dim, dim.min(4)).unwrap(),
                CascadePlan::uniform(dim, dim).unwrap(), // one dim per stage
            ] {
                let out = mem.search_cascade(&batch, &plan).unwrap();
                assert_eq!(out.winners(), reference.as_slice(), "dim {dim} plan {plan:?}");
            }
        }
    }

    #[test]
    fn exact_plan_telemetry_is_full_activation() {
        let mut rng = seeded(22);
        let rows: Vec<BitVector> = (0..9).map(|_| random_bits(130, &mut rng)).collect();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let queries: Vec<BitVector> = (0..5).map(|_| random_bits(130, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let out = mem.search_cascade(&batch, &CascadePlan::exact(130)).unwrap();
        let stats = out.stats();
        assert_eq!(stats.queries(), 5);
        assert_eq!(stats.activated_dims(), stats.exact_dims());
        assert_eq!(stats.exact_dims(), 5 * 9 * 130);
        assert!((stats.activation_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(stats.stage_rows(), &[5 * 9]);
    }

    #[test]
    fn pruning_fires_on_separable_rows() {
        // One hot row matches the query everywhere; the others are its
        // complement — after a one-word prefix, all cold rows are pruned.
        let dim = 256;
        let hot = BitVector::ones(dim);
        let cold = BitVector::zeros(dim);
        let rows = vec![cold.clone(), hot.clone(), cold.clone(), cold];
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&[hot]).unwrap();
        let plan = CascadePlan::prefix(dim, 64).unwrap();
        let out = mem.search_cascade(&batch, &plan).unwrap();
        assert_eq!(out.winner(0), (1, 256));
        let stats = out.stats();
        assert!(stats.activated_dims() < stats.exact_dims());
        // Stage 0 admits all 4 rows; only the hot row survives to stage 1.
        assert_eq!(stats.stage_rows(), &[4, 1]);
        assert_eq!(stats.activated_dims(), 4 * 64 + 192);
    }

    #[test]
    fn tie_break_survives_pruning() {
        // Rows 1 and 3 are identical and tie; pruning must not discard
        // the lower-index tying row.
        let mut rng = seeded(23);
        let pattern = random_bits(100, &mut rng);
        let rows =
            vec![BitVector::zeros(100), pattern.clone(), BitVector::zeros(100), pattern.clone()];
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(std::slice::from_ref(&pattern)).unwrap();
        for plan in [
            CascadePlan::exact(100),
            CascadePlan::prefix(100, 30).unwrap(),
            CascadePlan::uniform(100, 100).unwrap(),
        ] {
            let out = mem.search_cascade(&batch, &plan).unwrap();
            assert_eq!(out.winner(0), (1, pattern.count_ones()), "{plan:?}");
        }
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = CascadeStats::zeroed(4, 128, 2);
        a.queries = 3;
        a.activated_dims = 100;
        a.stage_rows = vec![12, 4];
        let mut b = CascadeStats::zeroed(4, 128, 2);
        b.queries = 2;
        b.activated_dims = 50;
        b.stage_rows = vec![8, 2];
        a.merge(&b);
        assert_eq!(a.queries(), 5);
        assert_eq!(a.activated_dims(), 150);
        assert_eq!(a.stage_rows(), &[20, 6]);
    }

    #[test]
    fn dimension_and_plan_mismatches_rejected() {
        let mem = SearchMemory::new(BitMatrix::zeros(2, 64));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(64)]).unwrap();
        let wrong_batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(matches!(
            mem.search_cascade(&wrong_batch, &CascadePlan::exact(64)),
            Err(LinalgError::ShapeMismatch { op: "search_cascade", .. })
        ));
        assert!(matches!(
            mem.search_cascade(&batch, &CascadePlan::exact(65)),
            Err(LinalgError::ShapeMismatch { op: "search_cascade(plan)", .. })
        ));
    }

    #[test]
    fn snapped_rounds_and_merges_boundaries() {
        let plan = CascadePlan::from_widths(10_240, &[600, 1_000, 8_640]).unwrap();
        assert_eq!(plan.snapped(2_048).unwrap().ends(), &[2_048, 10_240]);
        assert_eq!(plan.snapped(64).unwrap().ends(), &[576, 1_600, 10_240]);
        // Unit at or past the dimensionality collapses to the exact plan.
        assert_eq!(plan.snapped(10_240).unwrap().stages(), 1);
        assert_eq!(plan.snapped(99_999).unwrap().stages(), 1);
        // Tiny interior boundaries clamp up to one unit instead of
        // vanishing.
        let small = CascadePlan::from_widths(1_024, &[8, 1_016]).unwrap();
        assert_eq!(small.snapped(256).unwrap().ends(), &[256, 1_024]);
        // Boundaries that round past the end merge into the final stage.
        let late = CascadePlan::from_widths(1_024, &[1_000, 24]).unwrap();
        assert_eq!(late.snapped(256).unwrap().ends(), &[1_024]);
        assert!(plan.snapped(0).is_err());
    }

    /// A class-imbalanced memory (one dense row, sparse rest) plus
    /// traffic near the dense row — the workload whose rows separate
    /// after a short prefix.
    fn imbalanced_setup(
        rows: usize,
        dim: usize,
        queries: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> (SearchMemory, QueryBatch) {
        let mut density = |d: f32| -> BitVector {
            BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < d).collect::<Vec<_>>())
        };
        let mut stored: Vec<BitVector> = vec![density(0.5)];
        for _ in 1..rows {
            stored.push(density(0.02));
        }
        let qs: Vec<BitVector> = (0..queries)
            .map(|i| {
                // Mostly-majority traffic (the bench's mix): minority
                // queries keep every sparse row alive, so their share
                // controls how aggressive a prefix pays off.
                let mut q = stored[if i % 50 == 0 { 1 + i % (rows - 1) } else { 0 }].clone();
                for _ in 0..dim / 20 {
                    let bit = rng.gen_range(0..dim);
                    q.set(bit, !q.get(bit));
                }
                q
            })
            .collect();
        (SearchMemory::from_rows(&stored).unwrap(), QueryBatch::from_vectors(&qs).unwrap())
    }

    #[test]
    fn tuned_picks_multi_stage_on_separable_workloads() {
        let mut rng = seeded(41);
        let (mem, batch) = imbalanced_setup(12, 2048, 100, &mut rng);
        let plan = CascadePlan::tuned(&mem, &batch).unwrap();
        assert!(plan.stages() > 1, "separable workload must cascade: {plan:?}");
        assert!(plan.ends()[0] <= 2048 / 4, "prefix should be short: {plan:?}");
        assert!(plan.ends()[0].is_multiple_of(64), "tuned boundaries are word-aligned");
        // Tuning is deterministic and exact.
        assert_eq!(plan, CascadePlan::tuned(&mem, &batch).unwrap());
        let cascade = mem.search_cascade(&batch, &plan).unwrap();
        assert_eq!(cascade.winners(), mem.winners_batch(&batch).unwrap().as_slice());
        assert!(cascade.stats().activation_fraction() < 0.5, "pruning must fire");
    }

    #[test]
    fn tuned_falls_back_to_exact_on_unprunable_workloads() {
        // Dense random rows and random queries: the Hamming bound cannot
        // separate anything early, so the exact sweep is the right plan.
        let mut rng = seeded(42);
        let stored: Vec<BitVector> = (0..16).map(|_| random_bits(1024, &mut rng)).collect();
        let mem = SearchMemory::from_rows(&stored).unwrap();
        let qs: Vec<BitVector> = (0..40).map(|_| random_bits(1024, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&qs).unwrap();
        let plan = CascadePlan::tuned(&mem, &batch).unwrap();
        assert_eq!(plan, CascadePlan::exact(1024), "{plan:?}");
    }

    #[test]
    fn tuned_validates_inputs() {
        let mem = SearchMemory::new(BitMatrix::zeros(4, 128));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(128)]).unwrap();
        let wrong = QueryBatch::from_vectors(&[BitVector::zeros(130)]).unwrap();
        assert!(matches!(
            CascadePlan::tuned(&mem, &wrong),
            Err(LinalgError::ShapeMismatch { op: "CascadePlan::tuned", .. })
        ));
        let empty_mem = SearchMemory::new(BitMatrix::zeros(0, 128));
        assert!(CascadePlan::tuned(&empty_mem, &batch).is_err());
        let empty_batch = QueryBatch::from_matrix(BitMatrix::zeros(0, 128));
        assert!(CascadePlan::tuned(&mem, &empty_batch).is_err());
        // Tiny dimensionalities have no candidate prefixes: exact plan.
        let narrow = SearchMemory::new(BitMatrix::zeros(4, 64));
        let nb = QueryBatch::from_vectors(&[BitVector::zeros(64)]).unwrap();
        assert_eq!(CascadePlan::tuned(&narrow, &nb).unwrap(), CascadePlan::exact(64));
    }

    #[test]
    fn bound_cache_hits_and_evicts() {
        let mut rng = seeded(43);
        let stored: Vec<BitVector> = (0..9).map(|_| random_bits(256, &mut rng)).collect();
        let mem = SearchMemory::from_rows(&stored).unwrap();
        let batch =
            QueryBatch::from_vectors(&[random_bits(256, &mut rng), random_bits(256, &mut rng)])
                .unwrap();
        assert_eq!(mem.cascade_cache().len(), 0);
        let plan = CascadePlan::prefix(256, 64).unwrap();
        let a = mem.search_cascade(&batch, &plan).unwrap();
        assert_eq!(mem.cascade_cache().len(), 1);
        // A second search with an equal plan reuses the cached form.
        let b = mem.search_cascade(&batch, &plan.clone()).unwrap();
        assert_eq!(a, b);
        assert_eq!(mem.cascade_cache().len(), 1);
        // One-stage plans derive nothing.
        mem.search_cascade(&batch, &CascadePlan::exact(256)).unwrap();
        assert_eq!(mem.cascade_cache().len(), 1);
        // Distinct multi-stage plans each get an entry, LRU-capped.
        for stages in 2..=6 {
            mem.search_cascade(&batch, &CascadePlan::uniform(256, stages).unwrap()).unwrap();
        }
        assert_eq!(mem.cascade_cache().len(), BOUND_CACHE_CAP);
        // An explicit handle shares the memory's cached form.
        let shared = Arc::new(mem.clone());
        let bound = BoundCascade::new(Arc::clone(&shared), plan.clone()).unwrap();
        assert_eq!(shared.cascade_cache().len(), 1);
        assert_eq!(bound.search(&batch).unwrap(), a);
    }

    #[test]
    fn mutation_invalidates_cached_forms_and_stays_exact() {
        let mut rng = seeded(44);
        let stored: Vec<BitVector> = (0..7).map(|_| random_bits(200, &mut rng)).collect();
        let mut mem = SearchMemory::from_rows(&stored).unwrap();
        let batch: QueryBatch = QueryBatch::from_vectors(
            &(0..5).map(|_| random_bits(200, &mut rng)).collect::<Vec<_>>(),
        )
        .unwrap();
        let plan = CascadePlan::from_widths(200, &[64, 70, 66]).unwrap();
        mem.search_cascade(&batch, &plan).unwrap();
        assert_eq!(mem.cascade_cache().len(), 1);
        // Flip a suffix bit of the winning region: the cached row-suffix
        // table is now stale and MUST be dropped.
        mem.modify(|m| {
            let flipped = !m.get(3, 190);
            m.set(3, 190, flipped)
        });
        assert_eq!(mem.cascade_cache().len(), 0, "mutation must invalidate the cache");
        let after = mem.search_cascade(&batch, &plan).unwrap();
        assert_eq!(after.winners(), mem.winners_batch(&batch).unwrap().as_slice());
        assert_eq!(mem.cascade_cache().len(), 1, "next search re-derives");
        // A reported no-op keeps the cache warm.
        mem.modify_reporting(|_| false);
        assert_eq!(mem.cascade_cache().len(), 1);
        // Clones start cold but stay exact.
        let cloned = mem.clone();
        assert_eq!(cloned.cascade_cache().len(), 0);
        assert_eq!(cloned.search_cascade(&batch, &plan).unwrap(), after);
    }

    /// Splits `rows` into `p` equal-width segment memories.
    fn segment_rows(rows: &[BitVector], p: usize) -> Vec<SearchMemory> {
        let dim = rows[0].len();
        let seg = dim / p;
        (0..p)
            .map(|i| {
                let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(i * seg, seg)).collect();
                SearchMemory::from_rows(&segs).unwrap()
            })
            .collect()
    }

    #[test]
    fn segmented_cascade_matches_exact_search() {
        let mut rng = seeded(45);
        // seg_len 64 (word-aligned) and 50 (masked) geometries.
        for (dim, p) in [(256usize, 4usize), (200, 4), (300, 3), (512, 2)] {
            let stored: Vec<BitVector> = (0..13).map(|_| random_bits(dim, &mut rng)).collect();
            let parts = segment_rows(&stored, p);
            let mem = SearchMemory::from_rows(&stored).unwrap();
            let qs: Vec<BitVector> = (0..17).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&qs).unwrap();
            let reference = mem.winners_batch(&batch).unwrap();
            let seg = dim / p;
            let mut plans = vec![CascadePlan::exact(dim)];
            if p > 1 {
                plans.push(CascadePlan::prefix(dim, seg).unwrap());
                plans.push(CascadePlan::uniform(dim, p).unwrap());
            }
            for plan in plans {
                let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
                let out = cascade.search(&parts, &batch).unwrap();
                assert_eq!(out.winners(), reference.as_slice(), "dim {dim} P{p} {plan:?}");
                assert!(out.stats().activated_dims() <= out.stats().exact_dims());
                assert_eq!(out.stats().queries(), 17);
            }
        }
    }

    #[test]
    fn segmented_cascade_prunes_and_ties_like_contiguous() {
        // Dense winner + sparse rows, duplicated winner for the
        // tie-break: pruning fires and the low-row tie survives.
        let dim = 512;
        let mut rng = seeded(46);
        let hot = random_bits(dim, &mut rng);
        let sparse: Vec<BitVector> = (0..5)
            .map(|_| {
                BitVector::from_bools(
                    &(0..dim).map(|_| rng.gen::<f32>() < 0.03).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut stored = vec![sparse[0].clone(), hot.clone(), sparse[1].clone(), hot.clone()];
        stored.extend_from_slice(&sparse[2..]);
        let parts = segment_rows(&stored, 4);
        let plan = CascadePlan::prefix(dim, 128).unwrap();
        let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
        let batch = QueryBatch::from_vectors(std::slice::from_ref(&hot)).unwrap();
        let out = cascade.search(&parts, &batch).unwrap();
        assert_eq!(out.winner(0), (1, hot.count_ones()), "low-row tie-break");
        assert!(out.stats().activated_dims() < out.stats().exact_dims(), "pruning fires");
    }

    #[test]
    fn segmented_cascade_validates_layout() {
        let mut rng = seeded(47);
        let stored: Vec<BitVector> = (0..6).map(|_| random_bits(256, &mut rng)).collect();
        let parts = segment_rows(&stored, 4);
        // Misaligned interior boundary: precise op string.
        let misaligned = CascadePlan::prefix(256, 100).unwrap();
        assert!(matches!(
            SegmentedCascade::new(&parts, &misaligned),
            Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade stage boundary",
                found: 100,
                ..
            })
        ));
        // Plan dimensionality must equal P × seg_len.
        assert!(SegmentedCascade::new(&parts, &CascadePlan::exact(128)).is_err());
        assert!(SegmentedCascade::new(&[], &CascadePlan::exact(256)).is_err());
        // Search-side shape checks.
        let plan = CascadePlan::prefix(256, 64).unwrap();
        let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
        let bad_batch = QueryBatch::from_vectors(&[BitVector::zeros(255)]).unwrap();
        assert!(cascade.search(&parts, &bad_batch).is_err());
        let fewer = &parts[..3];
        assert!(cascade
            .search(fewer, &QueryBatch::from_vectors(&[BitVector::zeros(256)]).unwrap())
            .is_err());
    }

    #[test]
    fn mask_stage_partitions_bits_exactly() {
        let mut rng = seeded(24);
        let q = random_bits(200, &mut rng);
        let row = random_bits(200, &mut rng);
        // Any split into stages must reproduce the full dot exactly.
        for plan in [
            CascadePlan::uniform(200, 7).unwrap(),
            CascadePlan::from_widths(200, &[1, 63, 64, 65, 7]).unwrap(),
        ] {
            let mut total = 0u32;
            let mut masked = Vec::new();
            let mut lo = 0usize;
            for &hi in plan.ends() {
                mask_stage(q.as_words(), lo, hi, &mut masked);
                let (wlo, whi) = (lo / 64, word_end(hi));
                total += batch::dot_words(&row.as_words()[wlo..whi], &masked);
                lo = hi;
            }
            assert_eq!(total, q.dot(&row), "{plan:?}");
        }
    }

    #[test]
    fn stage_words_counts_contiguous_and_segmented_grids() {
        // Contiguous word grid (unit % 64 == 0): a stage reads the word
        // window [prev/64, word_end(e)), seam words genuinely re-read.
        assert_eq!(stage_words(0, 128, 64), 2);
        assert_eq!(stage_words(128, 512, 64), 6);
        assert_eq!(stage_words(0, 100, 64), 2); // unaligned final dim
        assert_eq!(stage_words(128, 200, 128), 2);
        // Segmented grid (unit % 64 != 0): per-segment padded storage,
        // segments × word_end(unit), no shared seam word. The old
        // contiguous formula charged stage [100, 200) of a unit=100
        // layout word_end(200) - 100/64 = 3 words; the real kernels
        // drive one 100-bit segment = 2 padded words.
        assert_eq!(stage_words(0, 100, 100), 2);
        assert_eq!(stage_words(100, 200, 100), 2);
        assert_eq!(stage_words(100, 500, 100), 8);
        // Sub-word segments: the old formula under-charged the padding
        // (stage [64, 128) of a unit=32 layout looked like 1 word; it is
        // two 32-bit segments in their own words).
        assert_eq!(stage_words(0, 64, 32), 2);
        assert_eq!(stage_words(64, 128, 32), 2);
    }

    #[test]
    fn modeled_cost_charges_segmented_stages_without_seam_words() {
        // Regression for the seam-word miscount: an unaligned-unit plan
        // priced under a pinned model must match the hand-computed
        // per-segment accounting, not the contiguous word-window one.
        let model =
            CostModel { cont_weight: 2.0, row_overhead_words: 1.0, stage_overhead_words: 4.0 };
        let plan = CascadePlan::from_widths(200, &[100, 100]).unwrap();
        let mut stats = CascadeStats::zeroed(10, 200, 2);
        stats.queries = 2;
        stats.stage_rows = vec![20, 6];
        // unit = 100: both stages drive one 100-bit segment = 2 padded
        // words. Stage 0: 20 rows × 2 words + 2 queries × 4 overhead.
        // Stage 1: 2.0 × 6 rows × 2 words + 1.0 × 6 rows + 2 × 4.
        let cost = modeled_cost(&plan, &stats, &model, 100);
        assert_eq!(cost, (20.0 * 2.0 + 8.0) + (2.0 * 6.0 * 2.0 + 6.0 + 8.0));
        // The pre-fix contiguous formula would have priced stage 1 at
        // word_end(200) - 100/64 = 3 words (cost 98 total, not 86).
        assert_ne!(cost, (20.0 * 2.0 + 8.0) + (2.0 * 6.0 * 3.0 + 6.0 + 8.0));
        // Exact cost on the same segmented grid: 200 bits = two 100-bit
        // segments = 4 padded words per (query, row).
        let exact = modeled_exact_cost(10, 200, 2, &model, 100);
        assert_eq!(exact, (2 * 10 * 4) as f64 + 2.0 * 4.0);
        // The word grid keeps the contiguous window untouched.
        let aligned = CascadePlan::from_widths(256, &[128, 128]).unwrap();
        let mut astats = CascadeStats::zeroed(10, 256, 2);
        astats.queries = 2;
        astats.stage_rows = vec![20, 6];
        let acost = modeled_cost(&aligned, &astats, &model, 64);
        assert_eq!(acost, (20.0 * 2.0 + 8.0) + (2.0 * 6.0 * 2.0 + 6.0 + 8.0));
    }

    #[test]
    fn tuned_aligned_with_pinned_model_is_deterministic_on_unaligned_units() {
        // The explicit-model hook on an unaligned unit must produce a
        // valid unit-gridded plan, stay deterministic, and stay exact.
        let mut rng = seeded(48);
        let (mem, batch) = imbalanced_setup(10, 500, 60, &mut rng);
        let model = CostModel::fallback();
        let plan = CascadePlan::tuned_aligned_with(&mem, &batch, 100, &model).unwrap();
        assert_eq!(plan, CascadePlan::tuned_aligned_with(&mem, &batch, 100, &model).unwrap());
        for &e in plan.ends() {
            assert!(e == 500 || e.is_multiple_of(100), "boundary {e} off the unit grid");
        }
        let out = mem.search_cascade(&batch, &plan).unwrap();
        assert_eq!(out.winners(), mem.winners_batch(&batch).unwrap().as_slice());
    }
}

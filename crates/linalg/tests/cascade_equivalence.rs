//! Cascade ↔ exact-search equivalence properties.
//!
//! The progressive-precision cascade must be **bit-identical** to the
//! exact batched search — same winning rows, same scores, same low-row
//! tie-break — for arbitrary stage plans (including the degenerate
//! one-stage plan and the `D` one-dimension-stage plan), every tail
//! geometry, and every kernel backend reachable on the host. Telemetry
//! must never claim more activation than the exact search performs.

use hd_linalg::kernel::Backend;
use hd_linalg::{BitMatrix, BitVector, BoundCascade, CascadePlan, QueryBatch, SearchMemory};
use proptest::prelude::*;
use std::sync::Arc;

fn bool_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

/// Dimensions covering sub-word, exact-word, and multi-word tails, plus
/// widths that cross the flat kernels' 4- and 8-word vector strides.
fn dims() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 7, 63, 64, 65, 127, 128, 129, 255, 256, 300, 520])
}

fn bits(len: usize) -> impl Strategy<Value = BitVector> {
    bool_vec(len).prop_map(|b| BitVector::from_bools(&b))
}

fn bit_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    prop::collection::vec(bits(len), rows)
}

/// An arbitrary cascade plan over `dim` dimensions: random interior cut
/// points (deduplicated), so stage widths are unconstrained — unaligned
/// one-dimension slivers included.
fn plans(dim: usize) -> impl Strategy<Value = CascadePlan> {
    prop::collection::vec(1usize..dim.max(2), 0..6).prop_map(move |mut cuts| {
        cuts.retain(|&c| c < dim);
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(dim);
        let mut widths = Vec::with_capacity(cuts.len());
        let mut prev = 0usize;
        for &c in &cuts {
            widths.push(c - prev);
            prev = c;
        }
        CascadePlan::from_widths(dim, &widths).expect("cuts are strictly increasing")
    })
}

/// Asserts cascade output is bit-identical to the exact per-query oracle
/// and that its telemetry is internally consistent.
fn assert_cascade_exact(
    mem: &SearchMemory,
    queries: &[BitVector],
    batch: &QueryBatch,
    plan: &CascadePlan,
    backend: Backend,
) {
    let out = mem.search_cascade_topk_with(batch, plan, 1, backend).unwrap();
    prop_assert_eq!(out.topk().len(), queries.len());
    for (q, query) in queries.iter().enumerate() {
        let scores = mem.dot_all(query);
        let expected = hd_linalg::argmax_u32(&scores);
        prop_assert_eq!(
            out.topk().hits(q)[0],
            expected,
            "backend {} plan {:?} query {}",
            backend,
            plan.ends(),
            q
        );
        // Low-row tie-break: no earlier row reaches the winning score.
        let (row, score) = out.topk().hits(q)[0];
        for (r, &s) in scores.iter().enumerate().take(row) {
            prop_assert!(
                s < score,
                "backend {} query {}: row {} ties winner {}",
                backend,
                q,
                r,
                row
            );
        }
    }
    let stats = out.stats();
    prop_assert_eq!(stats.queries(), queries.len());
    prop_assert!(stats.activated_dims() <= stats.exact_dims());
    prop_assert!(stats.activated_dims() > 0);
    prop_assert_eq!(stats.stage_rows()[0], (queries.len() * mem.rows()) as u64);
    // Shortlists only ever shrink.
    for pair in stats.stage_rows().windows(2) {
        prop_assert!(pair[1] <= pair[0], "shortlist grew: {:?}", stats.stage_rows());
    }
}

proptest! {
    /// Arbitrary plans, arbitrary memories/batches, every reachable
    /// backend: cascade == exact, winners/scores/tie-breaks included.
    #[test]
    fn cascade_matches_exact_for_arbitrary_plans(
        (rows, queries, plan) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (bit_rows(r, d), bit_rows(9, d), plans(d))
        })
    ) {
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            assert_cascade_exact(&mem, &queries, &batch, &plan, backend);
        }
    }

    /// The two degenerate plans: one stage (the cascade IS the exact
    /// search, full activation) and `D` one-dimension stages (the
    /// paper's column-by-column evaluation).
    #[test]
    fn degenerate_plans_match_exact(
        (rows, queries) in (1usize..12, prop::sample::select(vec![1usize, 7, 64, 65, 130]))
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(5, d)))
    ) {
        let dim = rows[0].len();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let exact = CascadePlan::exact(dim);
        let one_dim = CascadePlan::uniform(dim, dim).unwrap();
        prop_assert_eq!(one_dim.stages(), dim);
        for backend in Backend::available() {
            assert_cascade_exact(&mem, &queries, &batch, &exact, backend);
            assert_cascade_exact(&mem, &queries, &batch, &one_dim, backend);
        }
        // The one-stage plan can never prune: telemetry reports exactly
        // the full activation of the exact search.
        let stats_exact = mem.search_cascade(&batch, &exact).unwrap();
        prop_assert_eq!(stats_exact.stats().activated_dims(), stats_exact.stats().exact_dims());
    }

    /// Tie stress: duplicated row patterns force frequent exact ties;
    /// pruning must never discard the lowest tying row, on any backend.
    #[test]
    fn cascade_tie_break_survives_pruning(
        (patterns, picks, queries, plan) in (2usize..5, 64usize..130).prop_flat_map(|(p, d)| {
            (
                bit_rows(p, d),
                prop::collection::vec(0usize..p, 4..30),
                bit_rows(5, d),
                plans(d),
            )
        })
    ) {
        let rows: Vec<BitVector> = picks.iter().map(|&i| patterns[i].clone()).collect();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            assert_cascade_exact(&mem, &queries, &batch, &plan, backend);
        }
    }

    /// The public dispatch entry points (active backend, thread chunking
    /// when the `rayon` feature is on) agree with the explicit-backend
    /// serial path and with `search_batch`/`winners_batch`.
    #[test]
    fn cascade_entry_points_agree(
        (rows, queries, plan) in (1usize..10, prop::sample::select(vec![64usize, 128, 200]))
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(40, d), plans(d)))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let mem = SearchMemory::new(m.clone());
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let reference = mem.winners_batch(&batch).unwrap();
        let via_memory = mem.search_cascade(&batch, &plan).unwrap();
        let via_matrix = m.search_cascade(&batch, &plan).unwrap();
        prop_assert_eq!(via_memory.winners(), reference.as_slice());
        prop_assert_eq!(via_matrix.winners(), reference.as_slice());
        prop_assert_eq!(&via_matrix, &via_memory);
        // Full-score search agrees with the cascade winner too.
        let full = mem.search_batch(&batch).unwrap();
        for q in 0..queries.len() {
            prop_assert_eq!(full.winner(q), via_memory.winner(q));
        }
        // The bound (pre-derived) form answers identically, telemetry
        // included, and keeps answering identically across reuse.
        let bound = BoundCascade::new(Arc::new(mem.clone()), plan.clone()).unwrap();
        prop_assert_eq!(&bound.search(&batch).unwrap(), &via_memory);
        prop_assert_eq!(&bound.search(&batch).unwrap(), &via_memory);
    }
}

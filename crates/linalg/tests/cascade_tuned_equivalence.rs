//! Auto-tuned-plan and cached-bound-form equivalence properties.
//!
//! `CascadePlan::tuned` must always produce a *valid* plan whose cascade
//! is **bit-identical** to the exact sweep — for arbitrary memories and
//! query samples, on every kernel backend reachable on the host (the CI
//! scalar-forced job runs this suite with `HD_LINALG_BACKEND=scalar`).
//! The bound-form cache attached to `SearchMemory` must be equally
//! invisible: repeated searches reuse the cached derivation, mutation
//! invalidates it, and results stay exact either way. The segmented
//! (partitioned-layout) cascade obeys the same contract.

use hd_linalg::kernel::Backend;
use hd_linalg::{BitVector, CascadePlan, CostModel, QueryBatch, SearchMemory, SegmentedCascade};
use proptest::prelude::*;

fn bool_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

fn bits(len: usize) -> impl Strategy<Value = BitVector> {
    bool_vec(len).prop_map(|b| BitVector::from_bools(&b))
}

fn bit_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    prop::collection::vec(bits(len), rows)
}

/// Sparse rows with one dense outlier: the shapes where tuning actually
/// picks a multi-stage plan (uniform random rows tune to the exact plan,
/// which is also worth covering — both appear under this strategy).
fn mixed_density_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    (bit_rows(1, len), prop::collection::vec(0u8..=20, rows.saturating_sub(1))).prop_map(
        move |(dense, densities)| {
            let mut out = dense;
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for (i, d) in densities.iter().enumerate() {
                let bools: Vec<bool> = (0..len)
                    .map(|j| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407 + (i + j) as u64);
                        (state >> 56) as u8 % 100 < *d
                    })
                    .collect();
                out.push(BitVector::from_bools(&bools));
            }
            out
        },
    )
}

/// Dimensions with and without tuning candidates (below 128 every
/// candidate grid is empty and `tuned` must fall back to the exact
/// plan), word-aligned and masked tails included.
fn dims() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![65usize, 128, 130, 192, 256, 300])
}

proptest! {
    /// `tuned` always yields a valid plan whose cascade results are
    /// bit-identical to the exact sweep, on every reachable backend and
    /// through the cached active-backend path (twice, so the second call
    /// exercises a cache hit).
    #[test]
    fn tuned_plan_is_valid_and_exact(
        (rows, queries) in (2usize..14, dims()).prop_flat_map(|(r, d)| {
            (mixed_density_rows(r, d), bit_rows(7, d))
        })
    ) {
        let dim = rows[0].len();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let plan = CascadePlan::tuned(&mem, &batch).unwrap();
        // Structural validity: covers the memory's width, strictly
        // increasing boundaries ending at dim, interior boundaries on
        // the word grid (the tuner's candidate set).
        prop_assert_eq!(plan.dim(), dim);
        let ends = plan.ends();
        prop_assert_eq!(*ends.last().unwrap(), dim);
        for pair in ends.windows(2) {
            prop_assert!(pair[0] < pair[1], "ends not increasing: {:?}", ends);
        }
        for &e in &ends[..ends.len() - 1] {
            prop_assert!(e % 64 == 0, "interior boundary {} off the word grid", e);
        }
        // Tuning is deterministic.
        prop_assert_eq!(&plan, &CascadePlan::tuned(&mem, &batch).unwrap());
        // Bit-identical to the exact sweep everywhere.
        let reference = mem.winners_batch(&batch).unwrap();
        for backend in Backend::available() {
            let out = mem.search_cascade_topk_with(&batch, &plan, 1, backend).unwrap();
            let winners: Vec<_> = (0..out.topk().len()).map(|q| out.topk().hits(q)[0]).collect();
            prop_assert_eq!(winners, reference, "backend {}", backend);
        }
        let first = mem.search_cascade(&batch, &plan).unwrap();
        prop_assert_eq!(first.winners(), reference.as_slice());
        prop_assert_eq!(&mem.search_cascade(&batch, &plan).unwrap(), &first);
    }

    /// Mutating a memory invalidates its cached bound forms: cascades
    /// after the mutation match a freshly-built memory bit for bit (a
    /// stale prefix sub-memory or row-suffix table would corrupt either
    /// the partial scores or the pruning bound).
    #[test]
    fn mutation_rebuilds_cached_bound_forms(
        (rows, queries, flips) in (2usize..10, dims()).prop_flat_map(|(r, d)| {
            (
                bit_rows(r, d),
                bit_rows(6, d),
                prop::collection::vec((0..r, 0..d), 1..8),
            )
        })
    ) {
        let dim = rows[0].len();
        let mut mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let plan = CascadePlan::prefix(dim, dim / 2).unwrap();
        // Warm the cache with pre-mutation derivations.
        mem.search_cascade(&batch, &plan).unwrap();
        mem.modify(|m| {
            for &(r, c) in &flips {
                let flipped = !m.get(r, c);
                m.set(r, c, flipped);
            }
        });
        let fresh = SearchMemory::new(mem.matrix().clone());
        let expected = fresh.winners_batch(&batch).unwrap();
        prop_assert_eq!(mem.winners_batch(&batch).unwrap(), expected.clone());
        let cascade = mem.search_cascade(&batch, &plan).unwrap();
        prop_assert_eq!(cascade.winners(), expected.as_slice());
        // The tuned plan of the mutated memory is exact too.
        let tuned = CascadePlan::tuned(&mem, &batch).unwrap();
        prop_assert_eq!(
            mem.search_cascade(&batch, &tuned).unwrap().winners(),
            expected.as_slice()
        );
    }

    /// The segmented (partitioned-layout) cascade matches the contiguous
    /// exact search for arbitrary segment counts and segment-aligned
    /// plans, including tuned-then-snapped ones.
    #[test]
    fn segmented_cascade_matches_exact(
        (rows, queries, parts_pick) in (2usize..12, prop::sample::select(vec![128usize, 192, 256, 320]))
            .prop_flat_map(|(r, d)| (mixed_density_rows(r, d), bit_rows(6, d), 0usize..3))
    ) {
        let dim = rows[0].len();
        let divisors: Vec<usize> = [2usize, 4, 8, 3, 5].iter().copied().filter(|p| dim % p == 0).collect();
        let p = divisors[parts_pick % divisors.len()];
        let seg = dim / p;
        let parts: Vec<SearchMemory> = (0..p)
            .map(|i| {
                let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(i * seg, seg)).collect();
                SearchMemory::from_rows(&segs).unwrap()
            })
            .collect();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let reference = mem.winners_batch(&batch).unwrap();
        let mut plans = vec![CascadePlan::exact(dim)];
        if p > 1 {
            plans.push(CascadePlan::prefix(dim, seg).unwrap());
            plans.push(CascadePlan::uniform(dim, p).unwrap());
        }
        plans.push(CascadePlan::tuned(&mem, &batch).unwrap().snapped(seg).unwrap());
        let aligned_tuned = CascadePlan::tuned_aligned(&mem, &batch, seg).unwrap();
        for &e in &aligned_tuned.ends()[..aligned_tuned.stages() - 1] {
            prop_assert!(e % seg == 0, "tuned_aligned boundary {} off the {} grid", e, seg);
        }
        plans.push(aligned_tuned);
        for plan in plans {
            let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
            let out = cascade.search(&parts, &batch).unwrap();
            prop_assert_eq!(out.winners(), reference.as_slice(), "P={} {:?}", p, plan);
            // Reuse of the derived handle answers identically.
            prop_assert_eq!(&cascade.search(&parts, &batch).unwrap(), &out);
            let stats = out.stats();
            prop_assert!(stats.activated_dims() <= stats.exact_dims());
            prop_assert_eq!(stats.queries(), queries.len());
        }
    }

    /// Any in-regime cost model survives the calibration cache's decimal
    /// text format bit-identically, and repeated loads are deterministic
    /// — the property that makes calibrated tuning stable across
    /// processes on one host.
    #[test]
    fn calibration_cache_roundtrip_is_deterministic(
        (cont, row, stage, case) in (0u32..=16_384, 0u32..=32_768, 0u32..=131_072, 0u64..u64::MAX)
    ) {
        // Quantized in-regime values (the cache only ever stores these).
        let model = CostModel {
            cont_weight: 1.25 + f64::from(cont) / 1024.0 * (8.0 - 1.25) / 16.0,
            row_overhead_words: f64::from(row) / 1024.0 / 2.0,
            stage_overhead_words: 2.0 + f64::from(stage) / 1024.0 * 62.0 / 128.0,
        }
        .clamped();
        let dir = std::env::temp_dir()
            .join(format!("hd-linalg-proptest-{}-{case:016x}", std::process::id()));
        let path = dir.join("model.txt");
        let backend = hd_linalg::kernel::active();
        model.store(&path, backend).unwrap();
        let first = CostModel::load(&path, backend);
        prop_assert_eq!(first, Some(model));
        // Deterministic across repeat loads, and store∘load is a fixed
        // point (no drift through the decimal format).
        prop_assert_eq!(CostModel::load(&path, backend), first);
        first.unwrap().store(&path, backend).unwrap();
        prop_assert_eq!(CostModel::load(&path, backend), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The calibrated process-wide model is stable across calls and always
/// inside the clamp regime, so every tuned plan in this suite prices
/// candidates consistently. Under the compile-time scalar kill switch
/// (the scalar-forced CI leg) it must be exactly the deterministic
/// fallback constants.
#[test]
fn active_cost_model_is_stable_and_in_regime() {
    let model = CostModel::active();
    assert_eq!(model, CostModel::active());
    assert_eq!(model, model.clamped());
    #[cfg(feature = "force-scalar")]
    assert_eq!(model, CostModel::fallback());
}

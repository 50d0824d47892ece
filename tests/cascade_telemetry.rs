//! Pins the cascade's answers **and** its activation telemetry on fixed
//! seeded workloads.
//!
//! The equivalence suites prove cascade winners equal the exact sweep,
//! but nothing else pins the per-stage shortlist sizes and activated
//! row-dimensions — the counters `imc_sim` turns into the Fig. 7 energy
//! ladder. This test records them for every cascade entry point: the
//! contiguous winners and k=1 top-k searches, the bound handle, the
//! segmented P=16 cascade, and `AmMapping::search_batch_cascade`'s
//! equivalent cycle count. Any change to the pruning schedule, the
//! telemetry accounting or the tuner shows up here as a changed pin.
//!
//! Everything lives in one `#[test]` because it pins the tuner's cost
//! model to its compiled-in constants through `HD_LINALG_CALIBRATION`
//! before anything resolves it (tuned plans must not depend on the
//! host's kernel calibration).

use hd_linalg::rng::seeded;
use hd_linalg::{
    BitVector, BoundCascade, CascadePlan, CascadeStats, QueryBatch, SearchMemory, SegmentedCascade,
};
use hdc::BinaryAm;
use imc_sim::{AmMapping, ArraySpec, MappingStrategy};
use rand::Rng;
use std::sync::Arc;

/// FNV-1a over every `(row, score)` pair, in query order.
fn digest(winners: impl IntoIterator<Item = (usize, u32)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (row, score) in winners {
        for v in [row as u64, u64::from(score)] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The pinned outcome of one cascade search.
#[derive(Debug, PartialEq)]
struct Pin {
    digest: u64,
    stage_rows: Vec<u64>,
    activated_dims: u64,
}

impl Pin {
    fn of(winners: impl IntoIterator<Item = (usize, u32)>, stats: &CascadeStats) -> Self {
        Pin {
            digest: digest(winners),
            stage_rows: stats.stage_rows().to_vec(),
            activated_dims: stats.activated_dims(),
        }
    }

    fn expect(digest: u64, stage_rows: &[u64], activated_dims: u64) -> Self {
        Pin { digest, stage_rows: stage_rows.to_vec(), activated_dims }
    }
}

/// The class-imbalanced 10240×10 AM and 10k-query traffic of the
/// `cascade_search` criterion bench, generated identically: one dense
/// majority centroid, nine 2%-dense minorities, 99% majority traffic
/// with 5% of the bits flipped.
fn imbalanced_10240x10() -> (BinaryAm, Vec<BitVector>, QueryBatch) {
    let dim = 10240usize;
    let vectors = 10usize;
    let mut rng = seeded(17);
    let mut density_bits = |density: f32| -> BitVector {
        BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < density).collect::<Vec<_>>())
    };
    let mut centroids = vec![(0usize, density_bits(0.5))];
    for v in 1..vectors {
        centroids.push((v, density_bits(0.02)));
    }
    let rows: Vec<BitVector> = centroids.iter().map(|(_, b)| b.clone()).collect();
    let am = BinaryAm::from_centroids(vectors, centroids).expect("valid AM");
    let queries: Vec<BitVector> = (0..10_000)
        .map(|i| {
            let base = if i % 100 != 0 { 0 } else { 1 + (i / 100) % (vectors - 1) };
            let mut q = rows[base].clone();
            for _ in 0..dim / 20 {
                let bit = rng.gen_range(0..dim);
                q.set(bit, !q.get(bit));
            }
            q
        })
        .collect();
    (am, rows, QueryBatch::from_vectors(&queries).expect("batch"))
}

/// Runs every contiguous entry point on `plan`, asserts they agree with
/// each other and with the exact sweep, and returns the shared pin.
fn contiguous_pin(memory: &Arc<SearchMemory>, batch: &QueryBatch, plan: &CascadePlan) -> Pin {
    let reference = memory.winners_batch(batch).unwrap();
    let winners = memory.search_cascade(batch, plan).unwrap();
    assert_eq!(winners.winners(), reference.as_slice(), "{plan:?}: cascade is exact");
    let pin = Pin::of(winners.winners().iter().copied(), winners.stats());

    let bound = BoundCascade::new(Arc::clone(memory), plan.clone()).unwrap();
    assert_eq!(bound.search(batch).unwrap(), winners, "{plan:?}: bound handle");
    assert_eq!(
        memory.matrix().search_cascade(batch, plan).unwrap(),
        winners,
        "{plan:?}: BitMatrix"
    );

    let k1 = memory.search_cascade_topk(batch, plan, 1).unwrap();
    let k1_bound = bound.search_topk(batch, 1).unwrap();
    assert_eq!(k1, k1_bound, "{plan:?}: bound k=1");
    assert_eq!(
        Pin::of((0..k1.topk().len()).map(|q| k1.topk().hits(q)[0]), k1.stats()),
        pin,
        "{plan:?}: k=1 top-k equals the winners search, telemetry included"
    );
    pin
}

/// Like [`contiguous_pin`] for the segmented cascade over `parts`.
fn segmented_pin(parts: &[SearchMemory], batch: &QueryBatch, plan: &CascadePlan) -> Pin {
    let cascade = SegmentedCascade::new(parts, plan).unwrap();
    let winners = cascade.search(parts, batch).unwrap();
    let pin = Pin::of(winners.winners().iter().copied(), winners.stats());
    let k1 = cascade.search_topk(parts, batch, 1).unwrap();
    assert_eq!(
        Pin::of((0..k1.topk().len()).map(|q| k1.topk().hits(q)[0]), k1.stats()),
        pin,
        "{plan:?}: segmented k=1 top-k equals the winners search"
    );
    pin
}

#[test]
fn cascade_winners_and_telemetry_are_pinned() {
    std::env::set_var("HD_LINALG_CALIBRATION", "fallback");

    // --- Imbalanced 10240x10, contiguous --------------------------------
    let (am, rows, batch) = imbalanced_10240x10();
    let memory = Arc::new(am.search_memory().clone());
    let exact_digest = digest(memory.winners_batch(&batch).unwrap());
    assert_eq!(exact_digest, 14497945800882704250, "exact winners");

    let d16 = CascadePlan::prefix(10240, 640).unwrap();
    let tuned = CascadePlan::tuned(&memory, &batch).unwrap();
    assert_eq!(tuned.ends(), &[640, 10240], "tuned plan on the imbalanced AM");
    let three = CascadePlan::from_widths(10240, &[128, 512, 9600]).unwrap();
    assert_eq!(
        contiguous_pin(&memory, &batch, &d16),
        Pin::expect(exact_digest, &[100000, 10900], 168640000)
    );
    assert_eq!(
        contiguous_pin(&memory, &batch, &tuned),
        Pin::expect(exact_digest, &[100000, 10900], 168640000)
    );
    assert_eq!(
        contiguous_pin(&memory, &batch, &three),
        Pin::expect(exact_digest, &[100000, 100000, 10900], 168640000)
    );

    // Basic-layout mapping: the Fig. 7 cycle count the telemetry feeds.
    let basic = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
    let cycles = |m: &AmMapping, plan: &CascadePlan| {
        let out = m.search_batch_cascade(&batch, plan).unwrap();
        let reference = m.search_batch(&batch).unwrap();
        assert_eq!(out.predicted_rows, reference.predicted_rows, "{plan:?}: mapped cascade");
        out.equivalent_cycles()
    };
    assert_eq!(cycles(&basic, &d16), 131750.0);
    assert_eq!(cycles(&basic, &three), 131750.0);
    assert_eq!(cycles(&basic, &CascadePlan::exact(10240)), 800000.0);

    // --- Same AM as 16 column segments ----------------------------------
    let parts: Vec<SearchMemory> = (0..16)
        .map(|p| {
            let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(p * 640, 640)).collect();
            SearchMemory::from_rows(&segs).unwrap()
        })
        .collect();
    let seg_three = CascadePlan::from_widths(10240, &[640, 1920, 7680]).unwrap();
    assert_eq!(
        segmented_pin(&parts, &batch, &d16),
        Pin::expect(exact_digest, &[100000, 10900], 168640000)
    );
    assert_eq!(
        segmented_pin(&parts, &batch, &seg_three),
        Pin::expect(exact_digest, &[100000, 10900, 10900], 168640000)
    );
    assert_eq!(
        segmented_pin(&parts, &batch, &CascadePlan::exact(10240)),
        Pin::expect(exact_digest, &[100000], 1024000000)
    );
    let partitioned =
        AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Partitioned { partitions: 16 })
            .unwrap();
    let part_tuned = partitioned.tuned_cascade_plan(&batch).unwrap();
    assert_eq!(part_tuned.ends(), &[640, 10240], "partitioned tuned plan");
    assert_eq!(cycles(&partitioned, &d16), 139984.375);
    assert_eq!(cycles(&partitioned, &part_tuned), 139984.375);

    // --- Uniform 128x128, exact plan -------------------------------------
    let mut rng = seeded(128);
    let mut random_bits =
        || BitVector::from_bools(&(0..128).map(|_| rng.gen::<bool>()).collect::<Vec<_>>());
    let stored: Vec<BitVector> = (0..128).map(|_| random_bits()).collect();
    let queries: Vec<BitVector> = (0..1000).map(|_| random_bits()).collect();
    let small = Arc::new(SearchMemory::from_rows(&stored).unwrap());
    let small_batch = QueryBatch::from_vectors(&queries).unwrap();
    let small_exact = digest(small.winners_batch(&small_batch).unwrap());
    assert_eq!(small_exact, 1821955835218985102, "128x128 exact winners");
    assert_eq!(
        contiguous_pin(&small, &small_batch, &CascadePlan::exact(128)),
        Pin::expect(small_exact, &[1000 * 128], 1000 * 128 * 128)
    );
    let small_am = BinaryAm::from_centroids(128, stored.into_iter().enumerate().collect()).unwrap();
    let small_map =
        AmMapping::new(&small_am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
    let out = small_map.search_batch_cascade(&small_batch, &CascadePlan::exact(128)).unwrap();
    assert_eq!(out.equivalent_cycles(), 1000.0, "128x128 exact-plan cycles");
}

//! Property-based tests for the HDC substrate: encoder laws, binarization
//! invariants, and associative-memory behavior under arbitrary inputs.

use hd_linalg::{BitMatrix, BitVector, Matrix};
use hdc::{encode_dataset, BinaryAm, Encoder, FloatAm, IdLevelEncoder, RandomProjectionEncoder};
use proptest::prelude::*;

fn features(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..1.0, len)
}

/// Feature values that stress float addition: ordinary values of both
/// signs, `±0.0`, subnormals, `±inf`, NaN, extremes, and arbitrary bit
/// patterns (NaN payloads included).
fn hostile_value() -> impl Strategy<Value = f32> {
    let specials = vec![
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 3.0,
        -f32::MIN_POSITIVE / 7.0,
        f32::from_bits(1),
        f32::MAX,
        f32::MIN,
        1e-30,
        -3.5,
    ];
    (0u32..3, prop::sample::select(specials), -4.0f32..4.0, any::<u32>()).prop_map(
        |(kind, special, ordinary, bits)| match kind {
            0 => special,
            1 => ordinary,
            _ => f32::from_bits(bits),
        },
    )
}

/// The reference projection: for each output, walk the set bits of its
/// row of the transposed projection in ascending feature order into one
/// `f32` accumulator.
fn oracle_projection(projection_t: &BitMatrix, x: &[f32]) -> Vec<f32> {
    (0..projection_t.rows())
        .map(|r| {
            let mut acc = 0.0f32;
            for (wi, &word) in projection_t.row_view(r).as_words().iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    acc += x[wi * 64 + w.trailing_zeros() as usize];
                    w &= w - 1;
                }
            }
            acc
        })
        .collect()
}

/// Bits of each value, every NaN mapped to one NaN. Which payload the sum
/// of two NaNs carries is unspecified in Rust (the compiler may commute
/// the operands of an add), so it can differ between two builds of the
/// same loop, the reference's included; every other value must match bit
/// for bit, `-0.0`, subnormals and infinities included.
fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Every encoding path — `encode`, `encode_binary`, `encode_dataset` (fp
/// and binary) and `encode_binary_batch` — against per-row reference
/// hypervectors `expected`, bit for bit.
fn assert_paths_agree<E: Encoder>(enc: &E, rows: &[Vec<f32>], expected: &[Vec<f32>]) {
    let m = Matrix::from_rows(rows).unwrap();
    let ds = encode_dataset(enc, &m).unwrap();
    let batch = enc.encode_binary_batch(&m).unwrap();
    assert_eq!((ds.len(), batch.len()), (rows.len(), rows.len()));
    for (i, (row, want)) in rows.iter().zip(expected).enumerate() {
        let want_bin = enc.binarize(want);
        assert_eq!(bits_of(&enc.encode(row).unwrap()), bits_of(want), "encode, row {i}");
        assert_eq!(enc.encode_binary(row).unwrap(), want_bin, "encode_binary, row {i}");
        assert_eq!(bits_of(ds.fp.row(i)), bits_of(want), "encode_dataset fp, row {i}");
        assert_eq!(ds.bin[i], want_bin, "encode_dataset bin, row {i}");
        assert_eq!(batch.query(i), want_bin, "encode_binary_batch, row {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Projection encoding is linear in the features: H(a·x) = a·H(x).
    #[test]
    fn projection_is_homogeneous(x in features(16), scale in 0.1f32..4.0) {
        let enc = RandomProjectionEncoder::new(16, 64, 3);
        let hx = enc.encode(&x).unwrap();
        let scaled: Vec<f32> = x.iter().map(|v| v * scale).collect();
        let hs = enc.encode(&scaled).unwrap();
        for (a, b) in hx.iter().zip(&hs) {
            prop_assert!((a * scale - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    /// Projection encoding is additive: H(x + y) = H(x) + H(y).
    #[test]
    fn projection_is_additive(x in features(12), y in features(12)) {
        let enc = RandomProjectionEncoder::new(12, 48, 5);
        let hx = enc.encode(&x).unwrap();
        let hy = enc.encode(&y).unwrap();
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let hsum = enc.encode(&sum).unwrap();
        for i in 0..48 {
            let expect = hx[i] + hy[i];
            prop_assert!((hsum[i] - expect).abs() <= 1e-3 * (1.0 + expect.abs()));
        }
    }

    /// Mean-threshold binarization never sets every bit (there is always a
    /// value <= the mean) and is invariant to uniform shifts.
    #[test]
    fn binarization_shift_invariant(x in features(10), shift in -5.0f32..5.0) {
        let enc = RandomProjectionEncoder::new(10, 96, 7);
        let h = enc.encode(&x).unwrap();
        let hb = BitVector::from_mean_threshold(&h);
        prop_assert!(hb.count_ones() < 96);
        let shifted: Vec<f32> = h.iter().map(|v| v + shift).collect();
        let hb2 = BitVector::from_mean_threshold(&shifted);
        prop_assert_eq!(hb, hb2);
    }

    /// ID-Level encoding maps equal inputs to equal hypervectors and stays
    /// within the ±f envelope per dimension.
    #[test]
    fn id_level_bounded(x in features(8)) {
        let enc = IdLevelEncoder::new(8, 64, 8, 11);
        let h = enc.encode(&x).unwrap();
        prop_assert_eq!(h.len(), 64);
        for &v in &h {
            prop_assert!(v.abs() <= 8.0 + 1e-6, "bundled value {v} out of envelope");
        }
        prop_assert_eq!(enc.encode(&x).unwrap(), h);
    }

    /// A query identical to a stored centroid always achieves that
    /// centroid's maximal possible score (its own popcount).
    #[test]
    fn self_query_maximizes_score(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 40), 1..6),
        pick in 0usize..6,
    ) {
        let centroids: Vec<(usize, BitVector)> = rows
            .iter()
            .map(|bits| (0usize, BitVector::from_bools(bits)))
            .collect();
        let n = centroids.len();
        let am = BinaryAm::from_centroids(1, centroids).unwrap();
        let target = pick % n;
        let q = am.centroid(target);
        let scores = am.scores(&q).unwrap();
        prop_assert_eq!(scores[target], q.count_ones());
        for &s in &scores {
            prop_assert!(s <= q.count_ones());
        }
    }

    /// center_and_normalize makes every non-constant row zero-mean and
    /// unit-norm; quantizing then splits each row near-evenly.
    #[test]
    fn center_normalize_invariants(
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 32), 1..5),
    ) {
        let centroids: Vec<(usize, Vec<f32>)> =
            rows.iter().map(|r| (0usize, r.clone())).collect();
        let mut am = FloatAm::from_centroids(1, centroids).unwrap();
        am.center_and_normalize();
        for (i, original) in rows.iter().enumerate() {
            let row = am.centroid(i);
            let constant = original.iter().all(|v| (v - original[0]).abs() < f32::EPSILON);
            if constant {
                continue; // centered constant rows are all-zero
            }
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            prop_assert!(mean.abs() < 1e-4, "row {i} mean {mean}");
            let norm = hd_linalg::l2_norm(row);
            prop_assert!((norm - 1.0).abs() < 1e-3, "row {i} norm {norm}");
        }
    }

    /// encode_dataset output rows agree with per-sample encoding for any
    /// feature matrix.
    #[test]
    fn encode_dataset_rowwise_agreement(
        rows in prop::collection::vec(features(6), 1..8),
    ) {
        let enc = RandomProjectionEncoder::new(6, 32, 13);
        let m = Matrix::from_rows(&rows).unwrap();
        let ds = hdc::encode_dataset(&enc, &m).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let expected = enc.encode(row).unwrap();
            prop_assert_eq!(ds.fp.row(i), expected.as_slice());
            prop_assert_eq!(&ds.bin[i], &enc.encode_binary(row).unwrap());
        }
    }

    /// search_batch returns identical hits (row, class, and score) to N
    /// independent calls of search, for any multi-centroid AM — including
    /// tail-word dimensionalities and score ties between centroids of
    /// different classes (the duplicated rows below force exact ties,
    /// which both paths must break toward the lower row).
    #[test]
    fn search_batch_equals_sequential_search(
        dim in prop::sample::select(vec![65usize, 128, 130]),
        k in 2usize..4,
        per_class in 1usize..4,
        queries in prop::collection::vec(prop::collection::vec(any::<bool>(), 130), 1..10),
        dup_first in any::<bool>(),
    ) {
        // Deterministic centroids with duplicates when dup_first is set:
        // the first centroid of every class is identical, so every query
        // ties across k rows and tie-breaking behavior is observable.
        let mut centroids = Vec::new();
        for class in 0..k {
            for s in 0..per_class {
                let bits: Vec<bool> = (0..dim)
                    .map(|d| {
                        if dup_first && s == 0 {
                            d % 2 == 0
                        } else {
                            (d * 7 + class * 13 + s * 29) % 5 < 2
                        }
                    })
                    .collect();
                centroids.push((class, BitVector::from_bools(&bits)));
            }
        }
        let am = BinaryAm::from_centroids(k, centroids).unwrap();
        let qvs: Vec<BitVector> = queries
            .iter()
            .map(|q| BitVector::from_bools(&q[..dim]))
            .collect();
        let batch = hd_linalg::QueryBatch::from_vectors(&qvs).unwrap();
        let results = am.search_batch(&batch).unwrap();
        prop_assert_eq!(results.len(), qvs.len());
        for (i, q) in qvs.iter().enumerate() {
            let single = am.search(q).unwrap();
            prop_assert_eq!(results.hit(i), &single, "query {}", i);
            prop_assert_eq!(results.scores(i), am.scores(q).unwrap().as_slice());
        }
        // classify_batch is the class projection of the same winners.
        let classes: Vec<usize> = am.classify_batch(&batch).unwrap();
        for (i, q) in qvs.iter().enumerate() {
            prop_assert_eq!(classes[i], am.classify(q).unwrap());
        }
    }

    /// encode_binary_batch packs exactly the per-row encode_binary
    /// results, for both encoder families.
    #[test]
    fn encode_binary_batch_equals_rowwise(
        rows in prop::collection::vec(features(6), 1..8),
    ) {
        let m = Matrix::from_rows(&rows).unwrap();
        let proj = RandomProjectionEncoder::new(6, 65, 17);
        let idlv = IdLevelEncoder::new(6, 64, 8, 17);
        let pb = proj.encode_binary_batch(&m).unwrap();
        let ib = idlv.encode_binary_batch(&m).unwrap();
        prop_assert_eq!(pb.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(pb.query(i), proj.encode_binary(row).unwrap());
            prop_assert_eq!(ib.query(i), idlv.encode_binary(row).unwrap());
        }
    }

    /// The tiled projection kernel is bit-identical to the ascending
    /// set-bit walk on hostile feature values, at tile-edge widths, on
    /// every encoding path; the ID-Level encoder's paths all agree with
    /// its per-row `encode`.
    #[test]
    fn projection_kernel_matches_set_bit_oracle(
        (f, dim, rows) in (
            prop::sample::select(vec![1usize, 7, 784]),
            prop::sample::select(vec![1usize, 15, 16, 17, 63, 65, 1000]),
        )
            .prop_flat_map(|(f, dim)| {
                (Just(f), Just(dim), prop::collection::vec(prop::collection::vec(hostile_value(), f), 1..7))
            }),
        seed in 0u64..1000,
    ) {
        let proj = RandomProjectionEncoder::new(f, dim, seed);
        let expected: Vec<Vec<f32>> =
            rows.iter().map(|r| oracle_projection(proj.projection_t(), r)).collect();
        assert_paths_agree(&proj, &rows, &expected);

        let idlv = IdLevelEncoder::new(f, dim, 8, seed);
        let expected: Vec<Vec<f32>> = rows.iter().map(|r| idlv.encode(r).unwrap()).collect();
        assert_paths_agree(&idlv, &rows, &expected);
    }
}

/// Batches larger than one scratch block of the binary-only path (and
/// than one row group of the kernel) keep row order and bits.
#[test]
fn long_batches_match_the_oracle() {
    let (f, dim) = (7, 65);
    let rows: Vec<Vec<f32>> =
        (0..600).map(|i| (0..f).map(|j| ((i * 31 + j * 7) % 23) as f32 - 11.5).collect()).collect();
    let proj = RandomProjectionEncoder::new(f, dim, 4);
    let expected: Vec<Vec<f32>> =
        rows.iter().map(|r| oracle_projection(proj.projection_t(), r)).collect();
    assert_paths_agree(&proj, &rows, &expected);
}

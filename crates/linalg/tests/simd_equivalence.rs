//! SIMD ↔ scalar equivalence properties.
//!
//! Every kernel backend reachable on the host must be **bit-identical**
//! to the portable scalar reference — dot products, Hamming distances,
//! blocked batched sweeps, and winner selection including the low-row
//! tie-break, across tail-word widths and padding configurations. These
//! properties are the contract that lets the dispatch table swap backends
//! freely at startup. The float kernels (projection and dot-similarity
//! assignment) are held to the same contract, and assignment also to a
//! per-pair `dot` oracle.

use hd_linalg::kernel::{self, Backend};
use hd_linalg::{
    argmax_dot_rows, argmax_dot_rows_with, dot, BitMatrix, BitVector, BlockedBitMatrix, Matrix,
    QueryBatch, SearchMemory,
};
use proptest::prelude::*;

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

/// How [`assignment_case`] fills its matrices.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Values in `[-4, 4)`.
    Smooth,
    /// Small integers in `-2..=2`, so exact score ties are common.
    Ties,
    /// Every centroid is a distinct rotation of one row of values spread
    /// over 2^-10..2^10 in magnitude, and every point is constant: all
    /// scores of a point are equal in exact arithmetic, so the winner is
    /// decided by rounding alone and any change of summation order shows.
    RoundingRace,
}

/// One `f32` from 32 random bits. With probability `special / 512` it is
/// a special pattern: ±0, a subnormal, ±inf, a NaN with a random payload
/// or arbitrary bits; otherwise a value as `fill` says.
fn float_from(bits: u32, special: u32, fill: Fill) -> f32 {
    let sign = bits & 0x8000_0000;
    if bits % 512 < special {
        return f32::from_bits(match (bits >> 9) % 6 {
            0 => sign,
            1 => sign | (bits >> 12 & 0x007f_ffff).max(1),
            2 => sign | 0x7f80_0000,
            3 => 0x7fc0_0000 | (bits >> 12 & 0x003f_ffff),
            _ => bits.rotate_left(13),
        });
    }
    match fill {
        Fill::Smooth => (bits >> 8) as f32 / (1u32 << 24) as f32 * 8.0 - 4.0,
        Fill::Ties => ((bits >> 9) % 5) as f32 - 2.0,
        Fill::RoundingRace => {
            let exponent = 117 + (bits >> 23 & 0xff) % 21;
            f32::from_bits(sign | exponent << 23 | (bits & 0x007f_ffff))
        }
    }
}

/// `(points, centroids)` as `n × d` and `k × d` matrices for
/// dot-similarity assignment, over the centroid counts and widths that
/// straddle the kernel's 16-centroid tiles and 8-element chunks, with
/// `n` on both sides of its 2- and 4-point sweeps.
fn assignment_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    (
        prop::sample::select(vec![1usize, 2, 15, 16, 17, 33, 80]),
        prop::sample::select(vec![1usize, 7, 8, 9, 127, 128, 515]),
        1usize..10,
        prop::sample::select(vec![0u32, 1, 8, 64]),
        prop::sample::select(vec![Fill::Smooth, Fill::Ties, Fill::RoundingRace]),
    )
        .prop_flat_map(|(k, d, n, special, fill)| {
            prop::collection::vec(any::<u32>(), (n + k) * d).prop_map(move |bits| {
                let mut values: Vec<f32> =
                    bits.into_iter().map(|b| float_from(b, special, fill)).collect();
                if let Fill::RoundingRace = fill {
                    let base = values[..d].to_vec();
                    for (r, row) in values.chunks_exact_mut(d).enumerate() {
                        if r < n {
                            let v = row[0];
                            row.fill(v);
                        } else {
                            row.copy_from_slice(&base);
                            row.rotate_left((r - n) % d);
                        }
                    }
                }
                let (points, centroids) = values.split_at(n * d);
                (
                    Matrix::from_vec(n, d, points.to_vec()).unwrap(),
                    Matrix::from_vec(k, d, centroids.to_vec()).unwrap(),
                )
            })
        })
}

proptest! {
    /// Flat dot/hamming kernels agree with scalar on every backend.
    #[test]
    fn flat_kernels_match_scalar(
        (a, b) in dims().prop_flat_map(|d| (bits(d), bits(d)))
    ) {
        let expected_dot = kernel::dot_words_with(Backend::Scalar, a.as_words(), b.as_words());
        let expected_ham =
            kernel::hamming_words_with(Backend::Scalar, a.as_words(), b.as_words());
        for backend in Backend::available() {
            prop_assert_eq!(
                kernel::dot_words_with(backend, a.as_words(), b.as_words()),
                expected_dot,
                "dot backend {}", backend
            );
            prop_assert_eq!(
                kernel::hamming_words_with(backend, a.as_words(), b.as_words()),
                expected_ham,
                "hamming backend {}", backend
            );
        }
    }

    /// Blocked batched dot sweeps are bit-identical to the row-major
    /// scalar reference on every backend, including partially padded
    /// final row blocks.
    #[test]
    fn blocked_dot_matches_scalar(
        (rows, queries) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (bit_rows(r, d), bit_rows(11, d))
        })
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let blocked = BlockedBitMatrix::from_matrix(&m);
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let scores = blocked.dot_batch_with(&batch, backend).unwrap();
            for (q, query) in queries.iter().enumerate() {
                prop_assert_eq!(
                    scores.scores(q),
                    m.dot_all(query).as_slice(),
                    "backend {} query {}", backend, q
                );
            }
        }
    }

    /// Blocked winners agree with the scalar argmax — same winning row,
    /// same score, same low-row tie-break — on every backend.
    #[test]
    fn blocked_winners_match_scalar(
        (rows, queries) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (bit_rows(r, d), bit_rows(9, d))
        })
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let blocked = BlockedBitMatrix::from_matrix(&m);
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let winners = blocked.winners_batch_with(&batch, backend).unwrap();
            for (q, query) in queries.iter().enumerate() {
                let expected = hd_linalg::argmax_u32(&m.dot_all(query));
                prop_assert_eq!(
                    winners[q], expected,
                    "backend {} query {}", backend, q
                );
            }
        }
    }

    /// Tie stress: memories built from a handful of duplicated row
    /// patterns force frequent score ties; every backend must still pick
    /// the lowest winning row.
    #[test]
    fn blocked_winners_tie_break(
        (patterns, picks, queries) in (2usize..5, 64usize..130).prop_flat_map(|(p, d)| {
            (
                bit_rows(p, d),
                prop::collection::vec(0usize..p, 4..35),
                bit_rows(6, d),
            )
        })
    ) {
        // Rows repeat the few patterns (duplicates => exact ties).
        let rows: Vec<BitVector> = picks.iter().map(|&i| patterns[i].clone()).collect();
        let m = BitMatrix::from_rows(&rows).unwrap();
        let blocked = BlockedBitMatrix::from_matrix(&m);
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let winners = blocked.winners_batch_with(&batch, backend).unwrap();
            for (q, query) in queries.iter().enumerate() {
                let scores = m.dot_all(query);
                let (row, score) = winners[q];
                prop_assert_eq!(score, scores[row], "backend {}", backend);
                // No earlier row may reach the winning score.
                for (r, &s) in scores.iter().enumerate().take(row) {
                    prop_assert!(
                        s < score,
                        "backend {} query {}: row {} ties winner {}", backend, q, r, row
                    );
                }
                prop_assert!(scores.iter().all(|&s| s <= score));
            }
        }
    }

    /// Pack → unpack is the identity for every shape.
    #[test]
    fn blocked_roundtrip(
        rows in (1usize..26, dims()).prop_flat_map(|(r, d)| bit_rows(r, d))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let blocked = BlockedBitMatrix::from_matrix(&m);
        prop_assert_eq!(blocked.to_matrix(), m.clone());
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(&blocked.row(r), row);
        }
        // And the same round-trip through the row-slice constructor.
        prop_assert_eq!(BlockedBitMatrix::from_rows(&rows).unwrap().to_matrix(), m);
    }

    /// The public entry points (active-backend dispatch, SearchMemory,
    /// on-the-fly packing in BitMatrix::dot_batch / winners_batch) all
    /// agree with each other — large batches so the packing path engages.
    #[test]
    fn entry_points_agree(
        (rows, queries) in (1usize..17, prop::sample::select(vec![64usize, 128, 200]))
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(40, d)))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let mem = SearchMemory::new(m.clone());
        let blocked = BlockedBitMatrix::from_matrix(&m);
        let batch = QueryBatch::from_vectors(&queries).unwrap();

        let reference = m.dot_batch(&batch).unwrap();
        prop_assert_eq!(&mem.dot_batch(&batch).unwrap(), &reference);
        prop_assert_eq!(&blocked.dot_batch(&batch).unwrap(), &reference);

        let ref_winners = m.winners_batch(&batch).unwrap();
        prop_assert_eq!(&mem.winners_batch(&batch).unwrap(), &ref_winners);
        prop_assert_eq!(&blocked.winners_batch(&batch).unwrap(), &ref_winners);
        for (q, &(row, score)) in ref_winners.iter().enumerate() {
            prop_assert_eq!(reference.scores(q)[row], score);
        }
    }

    /// The projection kernel gives the same bits on every backend, across
    /// tile-edge output widths and row counts on either side of a row
    /// group, with arbitrary float bit patterns (NaN, ±inf, subnormals);
    /// NaN outputs only have to be NaN.
    #[test]
    fn projection_matches_scalar(
        (weights, inputs) in (1usize..12, prop::sample::select(vec![1usize, 15, 16, 17, 65, 130]))
            .prop_flat_map(|(f, d)| {
                (bit_rows(f, d), prop::collection::vec(any::<u32>(), f * 9))
            })
    ) {
        let m = BitMatrix::from_rows(&weights).unwrap();
        let inputs: Vec<f32> = inputs.into_iter().map(f32::from_bits).collect();
        let bits = |backend| {
            let mut out = vec![0.0f32; inputs.len() / m.rows() * m.cols()];
            m.project_rows_with(backend, &inputs, &mut out);
            // Every NaN maps to one NaN: which payload the sum of two NaNs
            // carries is unspecified in Rust, and differs between the
            // portable and AVX2 builds of the kernel.
            out.iter()
                .map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() })
                .collect::<Vec<u32>>()
        };
        let reference = bits(Backend::Scalar);
        for backend in Backend::available() {
            prop_assert_eq!(&bits(backend), &reference, "backend {}", backend);
        }
    }

    /// Dot-similarity assignment equals scoring every pair with `dot` and
    /// keeping the first strictly greater score from centroid 0, for any
    /// float bit patterns (a NaN score never wins a comparison).
    #[test]
    fn argmax_dot_rows_matches_dot_oracle((points, centroids) in assignment_case()) {
        let oracle: Vec<usize> = points
            .iter_rows()
            .map(|p| {
                let (mut best, mut best_score) = (0, dot(p, centroids.row(0)));
                for c in 1..centroids.rows() {
                    let s = dot(p, centroids.row(c));
                    if s > best_score {
                        (best, best_score) = (c, s);
                    }
                }
                best
            })
            .collect();
        let mut out = vec![usize::MAX; points.rows()];
        argmax_dot_rows(&points, &centroids, &mut out);
        prop_assert_eq!(out, oracle);
    }

    /// Dot-similarity assignment gives the same centroids on every
    /// backend.
    #[test]
    fn argmax_dot_rows_matches_scalar((points, centroids) in assignment_case()) {
        let assign = |backend| {
            let mut out = vec![usize::MAX; points.rows()];
            argmax_dot_rows_with(backend, &points, &centroids, &mut out);
            out
        };
        let reference = assign(Backend::Scalar);
        for backend in Backend::available() {
            prop_assert_eq!(&assign(backend), &reference, "backend {}", backend);
        }
    }

}

#[test]
fn active_backend_is_available() {
    let active = kernel::active();
    assert!(active.is_available());
    assert!(Backend::available().contains(&active));
}

//! Pins the bits of seeded k-means runs.
//!
//! `kmeans` is deterministic by seed, and every speed-up of its
//! assignment step must keep it bit-identical: the same centroids, the
//! same assignments, the same iteration count and convergence flag, the
//! same inertia. This test records, for every metric under both seeding
//! strategies, FNV-1a digests of the centroid bits and the assignments
//! plus the exact iteration count, `converged` flag and inertia bits of
//! one seeded run. Two more cases cover a dot-similarity run wider than
//! one 16-centroid tile with a non-multiple-of-8 dimension, and a run
//! that must take the empty-cluster repair path.

use hd_clustering::{kmeans, KmeansConfig, KmeansDistance, KmeansInit, KmeansResult};
use hd_linalg::rng::{seeded, Normal};
use hd_linalg::Matrix;

/// Streaming FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The pinned facts of one run.
#[derive(Debug, PartialEq)]
struct Pin {
    centroids: u64,
    assignments: u64,
    iterations: usize,
    converged: bool,
    inertia: u64,
}

fn pin(r: &KmeansResult) -> Pin {
    let mut h = Fnv::new();
    r.centroids.as_slice().iter().for_each(|v| h.word(u64::from(v.to_bits())));
    let centroids = h.0;
    let mut h = Fnv::new();
    r.assignments.iter().for_each(|&a| h.word(a as u64));
    Pin {
        centroids,
        assignments: h.0,
        iterations: r.iterations,
        converged: r.converged,
        inertia: r.inertia.to_bits(),
    }
}

/// `n` points in `d` dimensions drawn around `blobs` random centers.
fn blobs(n: usize, d: usize, blobs: usize, seed: u64) -> Matrix {
    let mut rng = seeded(seed);
    let unit = Normal::new(0.0, 1.0);
    let centers: Vec<Vec<f32>> =
        (0..blobs).map(|_| (0..d).map(|_| 3.0 * unit.sample(&mut rng)).collect()).collect();
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| centers[i % blobs].iter().map(|c| c + unit.sample(&mut rng)).collect())
        .collect();
    Matrix::from_rows(&rows).expect("consistent rows")
}

fn run(data: &Matrix, k: usize, distance: KmeansDistance, init: KmeansInit, seed: u64) -> Pin {
    let cfg = KmeansConfig::new(k).with_distance(distance).with_init(init).with_seed(seed);
    pin(&kmeans(data, &cfg).expect("valid run"))
}

#[test]
fn every_metric_and_seeding_is_pinned() {
    use KmeansDistance::{Cosine, DotSimilarity, Euclidean};
    use KmeansInit::{KmeansPlusPlus, Random};
    let data = blobs(90, 37, 6, 21);
    let got: Vec<_> = [DotSimilarity, Euclidean, Cosine]
        .into_iter()
        .flat_map(|m| [KmeansPlusPlus, Random].map(|i| ((m, i), run(&data, 7, m, i, 5))))
        .collect();
    let want = vec![
        (
            (DotSimilarity, KmeansPlusPlus),
            Pin {
                centroids: 16624969790577296204,
                assignments: 1566417827941110657,
                iterations: 2,
                converged: true,
                inertia: 4658834804488005857,
            },
        ),
        (
            (DotSimilarity, Random),
            Pin {
                centroids: 15616319609921436270,
                assignments: 9583301704710041249,
                iterations: 3,
                converged: true,
                inertia: 4658815433126303401,
            },
        ),
        (
            (Euclidean, KmeansPlusPlus),
            Pin {
                centroids: 1007412718813774079,
                assignments: 6922391266557995393,
                iterations: 2,
                converged: true,
                inertia: 4658841613441842436,
            },
        ),
        (
            (Euclidean, Random),
            Pin {
                centroids: 12541934188184288078,
                assignments: 5762400319962240102,
                iterations: 5,
                converged: true,
                inertia: 4663822824568720970,
            },
        ),
        (
            (Cosine, KmeansPlusPlus),
            Pin {
                centroids: 4670559667003061261,
                assignments: 14035140671090115526,
                iterations: 2,
                converged: true,
                inertia: 4658830641059456860,
            },
        ),
        (
            (Cosine, Random),
            Pin {
                centroids: 16379874070239862938,
                assignments: 268084777818607457,
                iterations: 4,
                converged: true,
                inertia: 4658813407566914105,
            },
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn dot_similarity_across_two_tiles_is_pinned() {
    // 17 centroids span two 16-wide tiles; d = 130 leaves a 2-element
    // tail after the 8-wide chunks.
    let data = blobs(200, 130, 9, 22);
    assert_eq!(
        run(&data, 17, KmeansDistance::DotSimilarity, KmeansInit::KmeansPlusPlus, 6),
        Pin {
            centroids: 16129235424804069995,
            assignments: 17967366771931802551,
            iterations: 4,
            converged: true,
            inertia: 4672169813746408279,
        }
    );
}

#[test]
fn empty_cluster_repair_is_pinned() {
    // Six copies of `v` and six of `2v`. k-means++ must seed one centroid
    // in each group (the second draw has zero weight on the first
    // centroid's group), and under dot similarity every point then scores
    // higher against `2v` than against `v`, so the first assignment leaves
    // the `v` centroid empty and the repair step re-seeds it.
    let v: Vec<f32> = (0..11).map(|j| 0.25 + j as f32 * 0.5).collect();
    let rows: Vec<Vec<f32>> = (0..12)
        .map(|i| v.iter().map(|x| if i % 2 == 0 { *x } else { 2.0 * x }).collect())
        .collect();
    let data = Matrix::from_rows(&rows).expect("consistent rows");
    assert_eq!(
        run(&data, 2, KmeansDistance::DotSimilarity, KmeansInit::KmeansPlusPlus, 7),
        Pin {
            centroids: 10168536284042696616,
            assignments: 9438574167673906660,
            iterations: 50,
            converged: false,
            inertia: 4644062512696786944,
        }
    );
}

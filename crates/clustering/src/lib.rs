//! K-means clustering with pluggable distance metrics.
//!
//! MEMHD initializes its multi-centroid associative memory by running
//! k-means *per class* over the encoded sample hypervectors (paper
//! §III-A-1). The paper's key detail is that the clustering metric is the
//! **same dot similarity used by the associative search**, so the initial
//! centroids are already optimized for the inference-time comparison. This
//! crate provides that (plus Euclidean and cosine for cross-checks), with
//! k-means++ or random seeding, deterministic behavior under a seed, and
//! empty-cluster repair.
//!
//! # Example
//!
//! ```
//! use hd_clustering::{kmeans, KmeansConfig, KmeansDistance};
//! use hd_linalg::Matrix;
//!
//! // Two obvious blobs.
//! let data = Matrix::from_rows(&[
//!     &[0.0f32, 0.1][..], &[0.1, 0.0][..],
//!     &[5.0, 5.1][..], &[5.1, 5.0][..],
//! ]).unwrap();
//! let config = KmeansConfig::new(2)
//!     .with_distance(KmeansDistance::Euclidean)
//!     .with_seed(7);
//! let result = kmeans(&data, &config).unwrap();
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_eq!(result.assignments[2], result.assignments[3]);
//! assert_ne!(result.assignments[0], result.assignments[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hd_linalg::rng::{derive_seed, seeded};
use hd_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Errors produced by clustering operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusteringError {
    /// More clusters requested than data points available.
    TooFewPoints {
        /// Points available.
        points: usize,
        /// Clusters requested.
        clusters: usize,
    },
    /// `k == 0` or other invalid configuration.
    InvalidConfig {
        /// Description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for ClusteringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusteringError::TooFewPoints { points, clusters } => {
                write!(f, "cannot form {clusters} clusters from {points} points")
            }
            ClusteringError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
        }
    }
}

impl std::error::Error for ClusteringError {}

/// Distance/similarity metric used for cluster assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KmeansDistance {
    /// Assign each point to the centroid with the **highest dot product**.
    ///
    /// This mirrors MEMHD's associative search (Eq. 3) so that clustering
    /// optimizes the same objective inference will use. Lloyd iterations
    /// with a dot objective are not guaranteed monotone, so convergence is
    /// bounded by `max_iters` / assignment fixpoint.
    #[default]
    DotSimilarity,
    /// Standard squared-Euclidean k-means (Lloyd's algorithm; monotone).
    Euclidean,
    /// Cosine similarity (spherical k-means assignment).
    Cosine,
}

impl KmeansDistance {
    /// Score of `point` against `centroid` — **higher is better** for all
    /// variants (Euclidean returns the negated squared distance).
    pub fn score(&self, point: &[f32], centroid: &[f32]) -> f32 {
        match self {
            KmeansDistance::DotSimilarity => hd_linalg::dot(point, centroid),
            KmeansDistance::Euclidean => {
                let d2: f32 = point.iter().zip(centroid).map(|(a, b)| (a - b) * (a - b)).sum();
                -d2
            }
            KmeansDistance::Cosine => {
                let na = hd_linalg::l2_norm(point);
                let nb = hd_linalg::l2_norm(centroid);
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    hd_linalg::dot(point, centroid) / (na * nb)
                }
            }
        }
    }
}

/// Centroid seeding strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KmeansInit {
    /// D²-weighted k-means++ seeding (default).
    #[default]
    KmeansPlusPlus,
    /// Uniform random sample of `k` distinct points.
    Random,
}

/// Configuration for [`kmeans`].
///
/// Construct with [`KmeansConfig::new`] and chain `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansConfig {
    k: usize,
    max_iters: usize,
    distance: KmeansDistance,
    init: KmeansInit,
    seed: u64,
}

impl KmeansConfig {
    /// Creates a configuration for `k` clusters with default settings
    /// (dot-similarity metric, k-means++ init, 50 iterations, seed 0).
    pub fn new(k: usize) -> Self {
        KmeansConfig {
            k,
            max_iters: 50,
            distance: KmeansDistance::default(),
            init: KmeansInit::default(),
            seed: 0,
        }
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the assignment metric.
    pub fn with_distance(mut self, distance: KmeansDistance) -> Self {
        self.distance = distance;
        self
    }

    /// Sets the seeding strategy.
    pub fn with_init(mut self, init: KmeansInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the RNG seed (clustering is fully deterministic given a seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The assignment metric in use.
    pub fn distance(&self) -> KmeansDistance {
        self.distance
    }
}

/// Output of [`kmeans`].
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// `k × D` centroid matrix (row = centroid).
    pub centroids: Matrix,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Final objective: total squared Euclidean distance to assigned
    /// centroids (reported for every metric as a comparable quantity).
    pub inertia: f64,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether assignments reached a fixpoint before `max_iters`.
    pub converged: bool,
}

impl KmeansResult {
    /// Number of points in each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.rows()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn squared_euclidean(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| ((x - y) as f64) * ((x - y) as f64)).sum()
}

fn seed_centroids(data: &Matrix, k: usize, init: KmeansInit, rng: &mut StdRng) -> Vec<usize> {
    let n = data.rows();
    match init {
        KmeansInit::Random => {
            // Sample k distinct indices (partial Fisher–Yates).
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }
        KmeansInit::KmeansPlusPlus => {
            let mut chosen = Vec::with_capacity(k);
            chosen.push(rng.gen_range(0..n));
            let mut dist2: Vec<f64> =
                (0..n).map(|i| squared_euclidean(data.row(i), data.row(chosen[0]))).collect();
            while chosen.len() < k {
                let total: f64 = dist2.iter().sum();
                let next = if total <= 0.0 {
                    // All remaining points coincide with a centroid;
                    // fall back to uniform choice.
                    rng.gen_range(0..n)
                } else {
                    let mut target = rng.gen::<f64>() * total;
                    let mut pick = n - 1;
                    for (i, &d) in dist2.iter().enumerate() {
                        target -= d;
                        if target <= 0.0 {
                            pick = i;
                            break;
                        }
                    }
                    pick
                };
                chosen.push(next);
                for (i, slot) in dist2.iter_mut().enumerate() {
                    let d = squared_euclidean(data.row(i), data.row(next));
                    if d < *slot {
                        *slot = d;
                    }
                }
            }
            chosen
        }
    }
}

/// Runs k-means over the rows of `data`.
///
/// Deterministic for a fixed `(data, config)` pair. Empty clusters are
/// repaired by re-seeding them on the point currently farthest (in squared
/// Euclidean distance) from its assigned centroid.
///
/// # Errors
///
/// Returns [`ClusteringError::InvalidConfig`] if `k == 0` or the data has
/// zero columns, and [`ClusteringError::TooFewPoints`] if `k > data.rows()`.
pub fn kmeans(data: &Matrix, config: &KmeansConfig) -> Result<KmeansResult, ClusteringError> {
    let (n, d) = data.shape();
    if config.k == 0 {
        return Err(ClusteringError::InvalidConfig { reason: "k must be positive".into() });
    }
    if d == 0 {
        return Err(ClusteringError::InvalidConfig {
            reason: "data must have at least one column".into(),
        });
    }
    if n < config.k {
        return Err(ClusteringError::TooFewPoints { points: n, clusters: config.k });
    }

    let mut rng = seeded(derive_seed(config.seed, 0x6b6d_6e73)); // "kmns"
    let seeds = seed_centroids(data, config.k, config.init, &mut rng);
    let mut centroids = Matrix::zeros(config.k, d);
    for (c, &i) in seeds.iter().enumerate() {
        centroids.row_mut(c).copy_from_slice(data.row(i));
    }

    let mut assignments = vec![0usize; n];
    let mut nearest = vec![0usize; n];
    let mut iterations = 0;
    let mut converged = false;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step: the first centroid with the highest score.
        match config.distance {
            KmeansDistance::DotSimilarity => {
                hd_linalg::argmax_dot_rows(data, &centroids, &mut nearest);
            }
            distance => {
                for (i, slot) in nearest.iter_mut().enumerate() {
                    let point = data.row(i);
                    let mut best = 0usize;
                    let mut best_score = distance.score(point, centroids.row(0));
                    for c in 1..config.k {
                        let s = distance.score(point, centroids.row(c));
                        if s > best_score {
                            best_score = s;
                            best = c;
                        }
                    }
                    *slot = best;
                }
            }
        }
        let changed = assignments != nearest;
        assignments.copy_from_slice(&nearest);
        if iter > 0 && !changed {
            converged = true;
            break;
        }

        // Update step: centroid = mean of members.
        let mut sums = Matrix::zeros(config.k, d);
        let mut counts = vec![0usize; config.k];
        for (i, &c) in assignments.iter().enumerate() {
            hd_linalg::axpy(1.0, data.row(i), sums.row_mut(c));
            counts[c] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Empty-cluster repair: steal the point farthest from its
                // centroid.
                let mut worst = 0usize;
                let mut worst_d = -1.0f64;
                for (i, &a) in assignments.iter().enumerate() {
                    let dd = squared_euclidean(data.row(i), centroids.row(a));
                    if dd > worst_d {
                        worst_d = dd;
                        worst = i;
                    }
                }
                centroids.row_mut(c).copy_from_slice(data.row(worst));
                assignments[worst] = c;
            } else {
                let inv = 1.0 / counts[c] as f32;
                let row = sums.row(c).to_vec();
                let dest = centroids.row_mut(c);
                for (dst, s) in dest.iter_mut().zip(row) {
                    *dst = s * inv;
                }
            }
        }
    }

    let inertia: f64 =
        (0..n).map(|i| squared_euclidean(data.row(i), centroids.row(assignments[i]))).sum();

    Ok(KmeansResult { centroids, assignments, inertia, iterations, converged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::Normal;

    fn blobs(per_blob: usize, centers: &[(f32, f32)], noise: f32, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let dist = Normal::new(0.0, noise);
        let mut rows = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per_blob {
                rows.push(vec![cx + dist.sample(&mut rng), cy + dist.sample(&mut rng)]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn separates_clear_blobs_euclidean() {
        let data = blobs(20, &[(0.0, 0.0), (10.0, 10.0), (0.0, 10.0)], 0.3, 1);
        let cfg = KmeansConfig::new(3).with_distance(KmeansDistance::Euclidean).with_seed(2);
        let r = kmeans(&data, &cfg).unwrap();
        let sizes = r.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
        assert!(sizes.iter().all(|&s| s == 20), "sizes {sizes:?}");
        assert!(r.converged);
    }

    #[test]
    fn dot_similarity_separates_directional_blobs() {
        // Directions matter for dot similarity: put blobs on distinct rays.
        let data = blobs(25, &[(10.0, 0.0), (0.0, 10.0)], 0.5, 3);
        let cfg = KmeansConfig::new(2).with_seed(4);
        let r = kmeans(&data, &cfg).unwrap();
        // First 25 points together, last 25 together.
        let a = r.assignments[0];
        assert!(r.assignments[..25].iter().all(|&x| x == a));
        assert!(r.assignments[25..].iter().all(|&x| x != a));
    }

    #[test]
    fn deterministic_under_seed() {
        let data = blobs(15, &[(0.0, 0.0), (5.0, 5.0)], 1.0, 9);
        let cfg = KmeansConfig::new(2).with_seed(42);
        let r1 = kmeans(&data, &cfg).unwrap();
        let r2 = kmeans(&data, &cfg).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.centroids, r2.centroids);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let data = blobs(1, &[(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], 0.0, 1);
        let cfg = KmeansConfig::new(3).with_distance(KmeansDistance::Euclidean).with_seed(1);
        let r = kmeans(&data, &cfg).unwrap();
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1]);
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn rejects_bad_configs() {
        let data = blobs(2, &[(0.0, 0.0)], 0.1, 1);
        assert!(matches!(
            kmeans(&data, &KmeansConfig::new(0)),
            Err(ClusteringError::InvalidConfig { .. })
        ));
        assert!(matches!(
            kmeans(&data, &KmeansConfig::new(5)),
            Err(ClusteringError::TooFewPoints { points: 2, clusters: 5 })
        ));
    }

    #[test]
    fn duplicate_points_handled() {
        // All points identical: k-means++ falls back to uniform choice and
        // empty-cluster repair keeps things finite.
        let rows = vec![vec![1.0f32, 2.0]; 8];
        let data = Matrix::from_rows(&rows).unwrap();
        let cfg = KmeansConfig::new(2).with_distance(KmeansDistance::Euclidean).with_seed(5);
        let r = kmeans(&data, &cfg).unwrap();
        assert_eq!(r.assignments.len(), 8);
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn cosine_metric_scores() {
        let m = KmeansDistance::Cosine;
        assert!((m.score(&[2.0, 0.0], &[5.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(m.score(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(m.score(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn euclidean_score_is_negated_distance() {
        let m = KmeansDistance::Euclidean;
        assert_eq!(m.score(&[0.0, 0.0], &[3.0, 4.0]), -25.0);
    }

    #[test]
    fn random_init_also_works() {
        let data = blobs(20, &[(0.0, 0.0), (10.0, 10.0)], 0.3, 6);
        let cfg = KmeansConfig::new(2)
            .with_distance(KmeansDistance::Euclidean)
            .with_init(KmeansInit::Random)
            .with_seed(8);
        let r = kmeans(&data, &cfg).unwrap();
        let sizes = r.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 20), "sizes {sizes:?}");
    }

    #[test]
    fn iteration_cap_respected() {
        let data = blobs(30, &[(0.0, 0.0), (1.0, 1.0)], 2.0, 7);
        let cfg = KmeansConfig::new(2).with_max_iters(1).with_seed(3);
        let r = kmeans(&data, &cfg).unwrap();
        assert_eq!(r.iterations, 1);
    }
}

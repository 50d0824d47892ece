//! Multi-centroid AM initialization (paper §III-A).
//!
//! Unlike single-centroid HDC — where random initialization is fine because
//! every update for a class lands on the same vector — a multi-centroid AM
//! learns each centroid independently, so *where the centroids start*
//! decides which intra-class modes they can represent. MEMHD therefore
//! seeds the AM in two stages:
//!
//! 1. **Classwise clustering** ([`clustering_init`]): split the encoded
//!    training hypervectors by class and k-means each class into
//!    `n = max(1, ⌊C·R/k⌋)` clusters under **dot similarity** (the same
//!    metric associative search uses). Each cluster centroid becomes an
//!    initial class vector.
//! 2. **Cluster allocation** ([`clustering_init`], continued): the
//!    remaining `C(1−R)` columns are handed out by validating on the
//!    training set, building a confusion matrix, and granting extra
//!    centroids to the classes with the highest misprediction mass —
//!    re-clustering those classes — until every column is used and the IMC
//!    array is fully utilized.
//!
//! Each round's per-class k-means jobs are independent (a job depends only
//! on its class and round), so they run on every core; the allocation
//! logic and validation between rounds stay serial.
//!
//! [`random_sampling_init`] implements the Fig. 5 baseline: centroids are
//! random training hypervectors with columns spread evenly across classes.

use crate::config::MemhdConfig;
use crate::error::{MemhdError, Result};
use hd_clustering::{kmeans, KmeansConfig, KmeansDistance};
use hd_linalg::rng::{derive_seed, seeded};
use hd_linalg::stats::ConfusionMatrix;
use hd_linalg::{Matrix, QueryBatch};
use hdc::{EncodedDataset, FloatAm};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-class view of the encoded training set.
#[derive(Debug)]
struct ClassSamples {
    /// Sample indices (into the encoded set) per class.
    indices: Vec<Vec<usize>>,
    /// FP hypervectors per class, one matrix per class (rows = samples).
    fp: Vec<Matrix>,
}

fn split_by_class(
    encoded: &EncodedDataset,
    labels: &[usize],
    num_classes: usize,
) -> Result<ClassSamples> {
    if encoded.len() != labels.len() {
        return Err(MemhdError::InvalidData {
            reason: format!("{} samples but {} labels", encoded.len(), labels.len()),
        });
    }
    let mut indices = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        if l >= num_classes {
            return Err(MemhdError::InvalidData {
                reason: format!("label {l} out of range for {num_classes} classes"),
            });
        }
        indices[l].push(i);
    }
    if let Some(empty) = indices.iter().position(|v| v.is_empty()) {
        return Err(MemhdError::InvalidData {
            reason: format!("class {empty} has no training samples"),
        });
    }
    let dim = encoded.dim();
    // Hypervectors are *centered* (their own mean removed) before
    // clustering: the associative search operates on mean-threshold
    // binarized vectors, so the clustering similarity (paper §III-A-1:
    // "the same metric employed in associative search") must act on the
    // same informative component. Raw projection hypervectors carry a
    // dominant common-mode term that would make every dot-similarity
    // assignment collapse onto one centroid.
    let fp = indices
        .iter()
        .map(|idx| {
            let mut flat = Vec::with_capacity(idx.len() * dim);
            for &i in idx {
                let row = encoded.fp.row(i);
                let mean = hd_linalg::mean(row);
                flat.extend(row.iter().map(|v| v - mean));
            }
            Matrix::from_vec(idx.len(), dim, flat).expect("consistent dims")
        })
        .collect::<Vec<_>>();
    Ok(ClassSamples { indices, fp })
}

/// Runs k-means for one class and returns `n` centroids (rows).
fn cluster_class(
    class_fp: &Matrix,
    n: usize,
    config: &MemhdConfig,
    class: usize,
    round: usize,
) -> Result<Vec<Vec<f32>>> {
    let cfg = KmeansConfig::new(n)
        .with_distance(KmeansDistance::DotSimilarity)
        .with_max_iters(config.kmeans_max_iters())
        .with_seed(derive_seed(config.seed(), (class as u64) << 8 | round as u64));
    let result = kmeans(class_fp, &cfg)?;
    Ok((0..n).map(|c| result.centroids.row(c).to_vec()).collect())
}

/// Runs one round's k-means jobs — `(class, n)`: cluster `class` into `n`
/// centroids — on up to `available_parallelism` threads. Threads pull jobs
/// from a shared counter and results are stored by job index, so the
/// output (and the first error, in job order) does not depend on the
/// thread count: every job depends only on its own class and round.
fn cluster_round(
    samples: &ClassSamples,
    jobs: &[(usize, usize)],
    config: &MemhdConfig,
    round: usize,
) -> Result<Vec<Vec<Vec<f32>>>> {
    let next = AtomicUsize::new(0);
    let threads =
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(jobs.len());
    let mut results: Vec<Option<Result<Vec<Vec<f32>>>>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes no data; results return through join.
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(class, n)) = jobs.get(job) else { break done };
                        done.push((
                            job,
                            cluster_class(&samples.fp[class], n, config, class, round),
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            for (job, centroids) in h.join().expect("k-means thread panicked") {
                results[job] = Some(centroids);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every job ran")).collect()
}

/// Builds a [`FloatAm`] from per-class centroid lists, L2-normalizing every
/// centroid so learning influence is balanced across siblings (§III-C-4).
fn build_am(num_classes: usize, per_class: &[Vec<Vec<f32>>]) -> Result<FloatAm> {
    let mut centroids = Vec::new();
    for (class, list) in per_class.iter().enumerate() {
        for v in list {
            centroids.push((class, v.clone()));
        }
    }
    let mut am = FloatAm::from_centroids(num_classes, centroids)?;
    am.center_and_normalize();
    Ok(am)
}

/// Validates the current AM on the training set (packed once per
/// [`clustering_init`] as `batch`) and returns the confusion matrix.
///
/// Validation uses the *quantized* AM with binarized queries — the same
/// comparison inference will perform — so allocation reacts to the errors
/// that actually matter after 1-bit quantization. The batched sweep keeps
/// [`hdc::BinaryAm::search`]'s scores and low-row tie-break.
fn validate(
    am: &FloatAm,
    batch: &QueryBatch,
    labels: &[usize],
    num_classes: usize,
) -> Result<ConfusionMatrix> {
    let predicted = am.quantize().classify_batch(batch).map_err(MemhdError::Hdc)?;
    let mut cm = ConfusionMatrix::new(num_classes);
    for (&label, class) in labels.iter().zip(predicted) {
        cm.record(label, class);
    }
    Ok(cm)
}

/// Distributes `batch` extra centroids across classes proportionally to
/// their misprediction counts (largest-remainder method), respecting the
/// per-class capacity `cap[c] - current[c]`. Falls back to even
/// distribution when there are no misses.
fn distribute(batch: usize, misses: &[u64], current: &[usize], cap: &[usize]) -> Vec<usize> {
    let k = misses.len();
    let headroom: Vec<usize> = (0..k).map(|c| cap[c].saturating_sub(current[c])).collect();
    let total_miss: u64 = misses.iter().sum();
    let mut grant = vec![0usize; k];

    // Ideal (possibly fractional) share per class.
    let shares: Vec<f64> = if total_miss == 0 {
        vec![batch as f64 / k as f64; k]
    } else {
        misses.iter().map(|&m| batch as f64 * m as f64 / total_miss as f64).collect()
    };

    // Integer part first, capped by headroom.
    let mut assigned = 0usize;
    for c in 0..k {
        let g = (shares[c].floor() as usize).min(headroom[c]);
        grant[c] = g;
        assigned += g;
    }
    // Hand out the remainder by descending fractional share (then by
    // descending miss count for determinism).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(misses[b].cmp(&misses[a]))
            .then(a.cmp(&b))
    });
    let mut cursor = 0usize;
    while assigned < batch && cursor < 2 * k {
        let c = order[cursor % k];
        if grant[c] < headroom[c] {
            grant[c] += 1;
            assigned += 1;
        }
        cursor += 1;
    }
    // If still short (most classes at capacity), sweep any headroom left.
    if assigned < batch {
        for c in 0..k {
            while assigned < batch && grant[c] < headroom[c] {
                grant[c] += 1;
                assigned += 1;
            }
        }
    }
    grant
}

/// Clustering-based initialization with confusion-driven cluster allocation
/// (paper §III-A, Fig. 2a).
///
/// Returns a [`FloatAm`] with exactly `config.columns()` centroids — a
/// fully-utilized AM.
///
/// # Errors
///
/// Returns [`MemhdError::InvalidData`] if labels are inconsistent, a class
/// has no samples, or the training set is too small to populate all
/// `C` columns (each centroid needs at least one sample to cluster on).
pub fn clustering_init(
    config: &MemhdConfig,
    encoded: &EncodedDataset,
    labels: &[usize],
) -> Result<FloatAm> {
    let k = config.num_classes();
    let columns = config.columns();
    let samples = split_by_class(encoded, labels, k)?;
    let cap: Vec<usize> = samples.indices.iter().map(Vec::len).collect();
    if cap.iter().sum::<usize>() < columns {
        return Err(MemhdError::InvalidData {
            reason: format!(
                "{} training samples cannot seed {columns} centroids",
                cap.iter().sum::<usize>()
            ),
        });
    }

    // Stage 1: classwise clustering at ratio R.
    let n = config.initial_clusters_per_class();
    let mut counts: Vec<usize> = cap.iter().map(|&c| n.min(c)).collect();
    let jobs: Vec<(usize, usize)> = counts.iter().copied().enumerate().collect();
    let mut per_class = cluster_round(&samples, &jobs, config, 0)?;

    // Stage 2: allocate the remaining columns by misprediction mass.
    let batch = encoded.to_query_batch().map_err(MemhdError::Hdc)?;
    let mut round = 1usize;
    loop {
        let used: usize = counts.iter().sum();
        if used >= columns {
            break;
        }
        let remaining = columns - used;
        let rounds_left = config.allocation_rounds().saturating_sub(round - 1).max(1);
        let grant = remaining.div_ceil(rounds_left);

        let am = build_am(k, &per_class)?;
        let cm = validate(&am, &batch, labels, k)?;
        let misses: Vec<u64> = (0..k).map(|c| cm.misses_for_class(c)).collect();
        let grants = distribute(grant, &misses, &counts, &cap);
        if grants.iter().all(|&g| g == 0) {
            // All classes at sample capacity: cannot fill further.
            return Err(MemhdError::InvalidData {
                reason: format!(
                    "cannot allocate {remaining} more centroids: every class \
                     is at its sample capacity"
                ),
            });
        }
        let mut jobs = Vec::new();
        for class in (0..k).filter(|&c| grants[c] > 0) {
            counts[class] += grants[class];
            jobs.push((class, counts[class]));
        }
        for (&(class, _), centroids) in
            jobs.iter().zip(cluster_round(&samples, &jobs, config, round)?)
        {
            per_class[class] = centroids;
        }
        round += 1;
    }

    let am = build_am(k, &per_class)?;
    debug_assert_eq!(am.num_centroids(), columns);
    Ok(am)
}

/// Random-sampling initialization — the Fig. 5 baseline.
///
/// Columns are distributed as evenly as possible across classes and each
/// centroid is a randomly chosen training hypervector of that class
/// (sampled without replacement while samples last).
///
/// # Errors
///
/// Returns [`MemhdError::InvalidData`] under the same conditions as
/// [`clustering_init`].
pub fn random_sampling_init(
    config: &MemhdConfig,
    encoded: &EncodedDataset,
    labels: &[usize],
) -> Result<FloatAm> {
    let k = config.num_classes();
    let columns = config.columns();
    let samples = split_by_class(encoded, labels, k)?;
    let cap: Vec<usize> = samples.indices.iter().map(Vec::len).collect();
    if cap.iter().sum::<usize>() < columns {
        return Err(MemhdError::InvalidData {
            reason: format!(
                "{} training samples cannot seed {columns} centroids",
                cap.iter().sum::<usize>()
            ),
        });
    }

    // Even distribution, then round-robin the remainder over classes with
    // headroom.
    let mut counts = vec![columns / k; k];
    for (c, count) in counts.iter_mut().enumerate() {
        *count = (*count).min(cap[c]);
    }
    let mut assigned: usize = counts.iter().sum();
    let mut class = 0usize;
    let mut stall = 0usize;
    while assigned < columns {
        if counts[class] < cap[class] {
            counts[class] += 1;
            assigned += 1;
            stall = 0;
        } else {
            stall += 1;
            if stall > k {
                return Err(MemhdError::InvalidData {
                    reason: "cannot fill all columns: classes exhausted".into(),
                });
            }
        }
        class = (class + 1) % k;
    }

    let mut rng = seeded(derive_seed(config.seed(), 0x72616e64)); // "rand"
    let mut per_class: Vec<Vec<Vec<f32>>> = Vec::with_capacity(k);
    for c in 0..k {
        // Partial Fisher–Yates to pick counts[c] distinct samples.
        let mut idx = samples.indices[c].clone();
        for i in 0..counts[c] {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        per_class.push(idx[..counts[c]].iter().map(|&i| encoded.fp.row(i).to_vec()).collect());
    }
    build_am(k, &per_class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::{encode_dataset, RandomProjectionEncoder};

    /// Multi-modal 3-class toy set: class anchors on distinct feature
    /// groups, two modes per class.
    fn toy(per_class: usize, seed: u64) -> (EncodedDataset, Vec<usize>) {
        use hd_linalg::rng::Normal;
        let mut rng = seeded(seed);
        let noise = Normal::new(0.0, 0.05);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for s in 0..per_class {
                let mode = s % 2;
                let row: Vec<f32> = (0..12)
                    .map(|j| {
                        let hot = j / 4 == class;
                        let base = if hot { 0.8 } else { 0.2 };
                        let shift = if hot && (j % 2 == mode) { 0.15 } else { 0.0 };
                        (base - shift + noise.sample(&mut rng)).clamp(0.0, 1.0)
                    })
                    .collect();
                rows.push(row);
                labels.push(class);
            }
        }
        let feats = Matrix::from_rows(&rows).unwrap();
        let enc = RandomProjectionEncoder::new(12, 128, 7);
        (encode_dataset(&enc, &feats).unwrap(), labels)
    }

    fn config(columns: usize) -> MemhdConfig {
        MemhdConfig::new(128, columns, 3).unwrap().with_seed(5)
    }

    #[test]
    fn clustering_init_fills_all_columns() {
        let (encoded, labels) = toy(20, 1);
        for columns in [3, 8, 12, 17] {
            let am = clustering_init(&config(columns), &encoded, &labels).unwrap();
            assert_eq!(am.num_centroids(), columns, "columns {columns}");
            // Every class keeps at least one centroid.
            for class in 0..3 {
                assert!(!am.rows_of_class(class).is_empty(), "class {class} lost all centroids");
            }
        }
    }

    #[test]
    fn clustering_init_rows_are_normalized() {
        let (encoded, labels) = toy(15, 2);
        let am = clustering_init(&config(9), &encoded, &labels).unwrap();
        for r in 0..am.num_centroids() {
            let n = hd_linalg::l2_norm(am.centroid(r));
            assert!((n - 1.0).abs() < 1e-4, "row {r} norm {n}");
        }
    }

    #[test]
    fn clustering_init_deterministic() {
        let (encoded, labels) = toy(15, 3);
        let a = clustering_init(&config(10), &encoded, &labels).unwrap();
        let b = clustering_init(&config(10), &encoded, &labels).unwrap();
        assert_eq!(a.as_matrix(), b.as_matrix());
        assert_eq!(a.class_labels(), b.class_labels());
    }

    #[test]
    fn random_sampling_init_fills_and_balances() {
        let (encoded, labels) = toy(20, 4);
        let am = random_sampling_init(&config(12), &encoded, &labels).unwrap();
        assert_eq!(am.num_centroids(), 12);
        for class in 0..3 {
            assert_eq!(am.rows_of_class(class).len(), 4);
        }
    }

    #[test]
    fn random_sampling_remainder_round_robin() {
        let (encoded, labels) = toy(20, 4);
        let am = random_sampling_init(&config(11), &encoded, &labels).unwrap();
        let sizes: Vec<usize> = (0..3).map(|c| am.rows_of_class(c).len()).collect();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 11);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "sizes {sizes:?}");
    }

    #[test]
    fn init_rejects_missing_class() {
        let (encoded, mut labels) = toy(10, 5);
        for l in labels.iter_mut() {
            if *l == 2 {
                *l = 1;
            }
        }
        // Class 2 now empty.
        assert!(matches!(
            clustering_init(&config(6), &encoded, &labels),
            Err(MemhdError::InvalidData { .. })
        ));
    }

    #[test]
    fn init_rejects_too_many_columns() {
        let (encoded, labels) = toy(2, 6); // 6 samples total
        let cfg = MemhdConfig::new(128, 10, 3).unwrap();
        assert!(matches!(
            clustering_init(&cfg, &encoded, &labels),
            Err(MemhdError::InvalidData { .. })
        ));
        assert!(matches!(
            random_sampling_init(&cfg, &encoded, &labels),
            Err(MemhdError::InvalidData { .. })
        ));
    }

    #[test]
    fn init_rejects_label_out_of_range() {
        let (encoded, mut labels) = toy(10, 7);
        labels[0] = 99;
        assert!(clustering_init(&config(6), &encoded, &labels).is_err());
    }

    #[test]
    fn distribute_proportional_to_misses() {
        let grants = distribute(4, &[30, 10, 0], &[2, 2, 2], &[100, 100, 100]);
        assert_eq!(grants.iter().sum::<usize>(), 4);
        assert!(grants[0] >= grants[1]);
        assert!(grants[1] >= grants[2]);
    }

    #[test]
    fn distribute_even_when_no_misses() {
        let grants = distribute(6, &[0, 0, 0], &[1, 1, 1], &[10, 10, 10]);
        assert_eq!(grants, vec![2, 2, 2]);
    }

    #[test]
    fn distribute_respects_capacity() {
        let grants = distribute(5, &[100, 1, 1], &[3, 0, 0], &[3, 10, 10]);
        assert_eq!(grants[0], 0, "class 0 is at capacity");
        assert_eq!(grants.iter().sum::<usize>(), 5);
    }

    #[test]
    fn clustering_beats_random_on_multimodal_toy() {
        // The paper's Fig. 5 claim, miniaturized: initial accuracy of
        // clustering-based init exceeds (or at least matches) random
        // sampling on a multi-modal problem, averaged over seeds.
        let (encoded, labels) = toy(30, 8);
        let mut clu = 0.0;
        let mut ran = 0.0;
        for seed in 0..5u64 {
            let cfg = MemhdConfig::new(128, 9, 3).unwrap().with_seed(seed);
            let am_c = clustering_init(&cfg, &encoded, &labels).unwrap().quantize();
            let am_r = random_sampling_init(&cfg, &encoded, &labels).unwrap().quantize();
            clu += hdc::train::evaluate(&am_c, &encoded.bin, &labels).unwrap();
            ran += hdc::train::evaluate(&am_r, &encoded.bin, &labels).unwrap();
        }
        assert!(clu >= ran - 0.25, "clustering {clu} vs random {ran} (5-seed sums)");
    }
}

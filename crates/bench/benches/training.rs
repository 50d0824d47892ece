//! Training-phase costs: classwise k-means initialization, its
//! dot-similarity assignment step, and one quantization-aware learning
//! epoch, at bench-scale problem sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use hd_datasets::synthetic::SyntheticSpec;
use hd_linalg::rng::{seeded, Normal};
use hd_linalg::Matrix;
use hdc::{encode_dataset, RandomProjectionEncoder};
use memhd::{init, train, MemhdConfig};

/// A `rows × cols` matrix of standard normal values.
fn normal_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut values = vec![0.0f32; rows * cols];
    Normal::new(0.0, 1.0).fill(&mut seeded(seed), &mut values);
    Matrix::from_vec(rows, cols, values).expect("consistent shape")
}

fn bench_training(c: &mut Criterion) {
    let ds = SyntheticSpec::mnist_like(40, 10).generate(5).expect("dataset");
    let encoder = RandomProjectionEncoder::new(ds.feature_dim(), 128, 9);
    let encoded = encode_dataset(&encoder, &ds.train_features).expect("encode");
    let cfg = MemhdConfig::new(128, 64, ds.num_classes).expect("config").with_seed(1);

    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    group.bench_function("clustering_init_128x64", |b| {
        b.iter(|| init::clustering_init(&cfg, &encoded, &ds.train_labels).expect("init"))
    });

    // One Lloyd assignment step: MNIST-like per-class k-means at D = 128,
    // and ISOLET-like at D = 512.
    for (d, k, n) in [(128, 10, 1000), (512, 20, 240)] {
        let points = normal_matrix(n, d, 3);
        let centroids = normal_matrix(k, d, 4);
        let mut out = vec![0usize; n];
        group.bench_function(format!("kmeans_assign/d{d}_k{k}_n{n}"), |b| {
            b.iter(|| hd_linalg::argmax_dot_rows(&points, &centroids, &mut out))
        });
    }

    group.bench_function("random_sampling_init_128x64", |b| {
        b.iter(|| init::random_sampling_init(&cfg, &encoded, &ds.train_labels).expect("init"))
    });

    let fp_template = init::clustering_init(&cfg, &encoded, &ds.train_labels).expect("init");
    group.bench_function("qat_epoch_128x64", |b| {
        b.iter_batched(
            || fp_template.clone(),
            |mut fp| {
                train::quantization_aware_train(
                    &mut fp,
                    &encoded,
                    &ds.train_labels,
                    0.01,
                    1,
                    1,
                    train::TrainOptions::default(),
                )
                .expect("train")
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);

//! Encoding-module throughput: random projection (MVM, the MEMHD/BasicHDC
//! path) vs ID-Level binding (the SearcHD/QuantHD/LeHDC path), across the
//! dimensionalities the paper evaluates. Projection is timed per row
//! (`fp`, `binary`) and batched (`batch`: `encode_binary_batch` over
//! [`BATCH_ROWS`] rows, the tiled kernel fanned out over the cores).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_linalg::rng::seeded;
use hd_linalg::Matrix;
use hdc::{Encoder, IdLevelEncoder, RandomProjectionEncoder};
use rand::Rng;

/// Rows per `encode/projection/batch` call.
const BATCH_ROWS: usize = 1024;

fn feature_vector(f: usize, seed: u64) -> Vec<f32> {
    let mut rng = seeded(seed);
    (0..f).map(|_| rng.gen::<f32>()).collect()
}

fn bench_projection(c: &mut Criterion) {
    let f = 784;
    let x = feature_vector(f, 1);
    let batch = Matrix::from_vec(BATCH_ROWS, f, feature_vector(BATCH_ROWS * f, 3)).expect("shape");
    let mut group = c.benchmark_group("encode/projection");
    for dim in [128usize, 512, 1024] {
        let enc = RandomProjectionEncoder::new(f, dim, 7);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("fp", dim), &dim, |b, _| {
            b.iter(|| enc.encode(&x).expect("encode"))
        });
        group.bench_with_input(BenchmarkId::new("binary", dim), &dim, |b, _| {
            b.iter(|| enc.encode_binary(&x).expect("encode"))
        });
        group.throughput(Throughput::Elements((BATCH_ROWS * dim) as u64));
        group.bench_with_input(BenchmarkId::new("batch", dim), &dim, |b, _| {
            b.iter(|| enc.encode_binary_batch(&batch).expect("encode"))
        });
    }
    group.finish();
}

fn bench_id_level(c: &mut Criterion) {
    let f = 784;
    let x = feature_vector(f, 2);
    let mut group = c.benchmark_group("encode/id_level");
    group.sample_size(20);
    for dim in [128usize, 512, 1024] {
        let enc = IdLevelEncoder::new(f, dim, 64, 7);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("binary", dim), &dim, |b, _| {
            b.iter(|| enc.encode_binary(&x).expect("encode"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_projection, bench_id_level);
criterion_main!(benches);

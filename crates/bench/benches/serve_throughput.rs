//! Serving-layer throughput: single-query submissions through the
//! `hd-serve` micro-batcher vs. the hand-batched classify path.
//!
//! The question this bench answers: how much of the batched SIMD sweep's
//! throughput survives when nobody hands the kernel a batch — when
//! queries arrive one at a time and the server must coalesce them itself?
//! Submitters pipeline a window of in-flight single-query submissions
//! (the "concurrency" in the id: `served_1x256` = 1 submitter thread with
//! 256 in-flight, `served_4x64` = 4 threads with 64 in-flight each), and
//! the micro-batcher flushes every `max_batch` inline.
//! `served_topk5_1x256` is `served_1x256` with every submission asking
//! for its 5 best rows, which takes the k>1 flush path.
//!
//! All shapes use the paper's flagship MEMHD 128 centroids × 128 bits AM,
//! matching `associative_search_batched` in `BENCH_search.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch};
use hd_serve::{Pending, PendingTopK, Searchable, ServeConfig, Server};
use hdc::BinaryAm;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

const QUERIES: usize = 8192;
const DIM: usize = 128;

fn random_am(k: usize, vectors: usize, dim: usize, seed: u64) -> BinaryAm {
    let mut rng = seeded(seed);
    let centroids: Vec<(usize, BitVector)> = (0..vectors)
        .map(|v| {
            let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            (v % k, BitVector::from_bools(&bits))
        })
        .collect();
    BinaryAm::from_centroids(k, centroids).expect("valid AM")
}

fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

/// Pushes `queries` through `server` as pipelined single-query
/// submissions with `window` in-flight, returning a checksum of winning
/// rows (keeps the optimizer honest).
fn drive(server: &Server, queries: &[BitVector], window: usize) -> usize {
    let mut sum = 0usize;
    for chunk in queries.chunks(window) {
        let pendings: Vec<Pending> =
            chunk.iter().map(|q| server.submit(q.as_view()).expect("submit")).collect();
        for p in pendings {
            sum += p.wait().expect("wait").row;
        }
    }
    sum
}

/// As [`drive`], with every submission asking for its `k` best rows;
/// the checksum sums every slate's rows.
fn drive_topk(server: &Server, queries: &[BitVector], window: usize, k: usize) -> usize {
    let mut sum = 0usize;
    for chunk in queries.chunks(window) {
        let pendings: Vec<PendingTopK> =
            chunk.iter().map(|q| server.submit_topk(q.as_view(), k).expect("submit")).collect();
        for p in pendings {
            sum += p.wait().expect("wait").iter().map(|hit| hit.row).sum::<usize>();
        }
    }
    sum
}

fn bench_serve(c: &mut Criterion) {
    // Provenance for the recorded numbers (see BENCH_search.json).
    eprintln!("hd_linalg kernel backend: {}", hd_linalg::kernel::active());
    let am = Arc::new(random_am(10, 128, DIM, 3));
    let queries = random_queries(QUERIES, DIM, 1000);
    let batch = QueryBatch::from_vectors(&queries).expect("batch");

    let mut group = c.benchmark_group("serve_throughput");
    group.throughput(Throughput::Elements(QUERIES as u64));

    // The ceiling: the whole batch handed to the kernel at once.
    group.bench_with_input(
        BenchmarkId::new("direct_batched_classify", QUERIES),
        &batch,
        |b, batch| b.iter(|| am.classify_batch(batch).expect("classify").iter().sum::<usize>()),
    );

    // One submitter, 256 in-flight single-query submissions: every flush
    // is a full inline (flat-combined) one.
    {
        let server = Server::start(
            Arc::clone(&am) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .expect("server");
        group.bench_with_input(
            BenchmarkId::new("served_1x256", QUERIES),
            &queries,
            |b, queries| b.iter(|| drive(&server, queries, 256)),
        );
        group.bench_with_input(
            BenchmarkId::new("served_topk5_1x256", QUERIES),
            &queries,
            |b, queries| b.iter(|| drive_topk(&server, queries, 256, 5)),
        );
        server.shutdown();
    }

    // Four concurrent submitters, 64 in-flight each — contended mutex,
    // cross-thread coalescing, occasional parking.
    {
        let server = Arc::new(
            Server::start(
                Arc::clone(&am) as Arc<dyn Searchable>,
                ServeConfig {
                    max_batch: 64,
                    max_delay: Duration::from_micros(200),
                    ..Default::default()
                },
            )
            .expect("server"),
        );
        group.bench_with_input(BenchmarkId::new("served_4x64", QUERIES), &queries, |b, queries| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = queries
                        .chunks(QUERIES / 4)
                        .map(|part| {
                            let server = Arc::clone(&server);
                            scope.spawn(move || drive(&server, part, 64))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("submitter")).sum::<usize>()
                })
            })
        });
        server.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);

//! Concurrency stress suite for the micro-batcher (the loom-style
//! guarantees, exercised with real threads):
//!
//! 1. concurrent submitters never lose a query — every submission is
//!    answered, exactly once, with the same winner the unserved model
//!    produces;
//! 2. the deadline flush always fires — partial batches that can never
//!    fill are still answered, round after round;
//! 3. a snapshot swap during flushes never mixes model generations — a
//!    response's `(generation, class)` pair is always consistent with one
//!    published model.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, CascadePlan};
use hd_serve::{Pending, Searchable, ServeConfig, Server, ShardedSearcher};
use hdc::BinaryAm;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn random_am(vectors: usize, dim: usize, seed: u64) -> BinaryAm {
    let centroids =
        random_queries(vectors, dim, seed).into_iter().enumerate().map(|(v, b)| (v % 7, b));
    BinaryAm::from_centroids(7, centroids.collect()).unwrap()
}

/// Submitters on many threads, pipelining windows of single-query
/// submissions: every query is answered and matches the direct search.
/// Shared by the per-configuration stress tests below.
fn run_lost_queries_stress(shards: usize, config: ServeConfig, expect_coalesce: bool) {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 400;
    const WINDOW: usize = 50;
    let dim = 128;
    let am = Arc::new(random_am(64, dim, 1));
    let sharded = ShardedSearcher::from_am(&am, shards).unwrap();
    let server = Arc::new(Server::start(Arc::new(sharded) as Arc<dyn Searchable>, config).unwrap());
    let answered: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = Arc::clone(&server);
                let am = Arc::clone(&am);
                scope.spawn(move || {
                    let queries = random_queries(PER_THREAD, dim, 100 + t as u64);
                    let mut answered = 0usize;
                    for window in queries.chunks(WINDOW) {
                        let pendings: Vec<Pending> =
                            window.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
                        for (q, p) in window.iter().zip(pendings) {
                            let got = p.wait().unwrap();
                            let want = am.search(q).unwrap();
                            assert_eq!(
                                (got.row, got.class, got.score),
                                (want.row, want.class, want.score),
                                "thread {t} got a wrong answer"
                            );
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answered.iter().sum::<usize>(), THREADS * PER_THREAD);
    let stats = server.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64, "every submission was accepted");
    assert!(stats.batches > 0);
    if expect_coalesce {
        assert!(
            stats.largest_batch > 1,
            "concurrent submissions should coalesce (largest batch {})",
            stats.largest_batch
        );
    }
}

#[test]
fn concurrent_submitters_never_lose_queries() {
    run_lost_queries_stress(
        2,
        ServeConfig { max_batch: 64, max_delay: Duration::from_micros(200), ..Default::default() },
        true,
    );
}

/// With `max_batch` unreachable, ONLY the single deadline-flusher thread
/// ever answers — the flat-combining inline path never triggers, so this
/// pins the flusher's liveness under sustained multi-thread load.
#[test]
fn flusher_only_submitters_never_lose_queries() {
    run_lost_queries_stress(
        2,
        ServeConfig {
            max_batch: usize::MAX,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
        true,
    );
}

/// Four worker-backed shards under the same load: the supervised fan-out
/// and strict merge hold up with more workers than submitter windows.
#[test]
fn multi_shard_submitters_never_lose_queries() {
    run_lost_queries_stress(
        4,
        ServeConfig { max_batch: 64, max_delay: Duration::from_micros(200), ..Default::default() },
        true,
    );
}

/// The cascade adapter under concurrent submitters: every query is
/// answered exactly once and matches the direct exact search bit for bit
/// — the cascade prunes work, never answers.
#[test]
fn cascade_served_submitters_never_lose_queries() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 300;
    const WINDOW: usize = 50;
    let dim = 256;
    let am = Arc::new(random_am(64, dim, 7));
    let plan = CascadePlan::prefix(dim, 64).unwrap();
    let sharded = ShardedSearcher::from_am_cascade(&am, 2, plan).unwrap();
    assert!(sharded.cascade_plan().is_some());
    let server = Arc::new(
        Server::start(
            Arc::new(sharded) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let answered: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = Arc::clone(&server);
                let am = Arc::clone(&am);
                scope.spawn(move || {
                    let queries = random_queries(PER_THREAD, dim, 700 + t as u64);
                    let mut answered = 0usize;
                    for window in queries.chunks(WINDOW) {
                        let pendings: Vec<Pending> =
                            window.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
                        for (q, p) in window.iter().zip(pendings) {
                            let got = p.wait().unwrap();
                            let want = am.search(q).unwrap();
                            assert_eq!(
                                (got.row, got.class, got.score),
                                (want.row, want.class, want.score),
                                "thread {t}: cascade-served answer diverged from exact"
                            );
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answered.iter().sum::<usize>(), THREADS * PER_THREAD);
    let stats = server.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64, "no lost queries");
}

/// Sharded top-k under concurrent mixed-k submitters: every slate
/// matches the unsharded fused sweep bit for bit — same rows, same
/// order. The catalog stores every centroid twice, in shard-distant
/// duplicate pairs, so nearly every query's k-best list crosses a shard
/// boundary on a tie and exercises the merge's global low-row order.
#[test]
fn sharded_topk_agrees_with_unsharded_under_concurrent_mixed_k() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 200;
    const WINDOW: usize = 40;
    const ROWS: usize = 60;
    let dim = 128;
    // Rows r and r + 30 are identical: with 4 shards over 60 rows the
    // pair always lands in different shards and ties on every query.
    let half = random_queries(ROWS / 2, dim, 41);
    let rows: Vec<BitVector> = half.iter().chain(half.iter()).cloned().collect();
    let classes: Vec<usize> = (0..ROWS).map(|r| r % 7).collect();
    let memory = hd_linalg::SearchMemory::from_rows(&rows).unwrap();
    let sharded = ShardedSearcher::new(memory.clone(), classes.clone(), 4).unwrap();
    assert!(sharded.num_shards() >= 2);
    let server = Arc::new(
        Server::start(
            Arc::new(sharded) as Arc<dyn Searchable>,
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let ks = [1usize, 3, 8, ROWS + 5];
    let answered: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = Arc::clone(&server);
                let memory = memory.clone();
                let classes = classes.clone();
                scope.spawn(move || {
                    let queries = random_queries(PER_THREAD, dim, 4100 + t as u64);
                    let mut answered = 0usize;
                    for window in queries.chunks(WINDOW) {
                        let pendings: Vec<_> = window
                            .iter()
                            .enumerate()
                            .map(|(i, q)| {
                                let k = ks[(t + i) % ks.len()];
                                (k, server.submit_topk(q.as_view(), k).unwrap())
                            })
                            .collect();
                        for (q, (k, p)) in window.iter().zip(pendings) {
                            let slate = p.wait().unwrap();
                            let batch =
                                hd_linalg::QueryBatch::from_vectors(std::slice::from_ref(q))
                                    .unwrap();
                            let want = memory.topk_batch(&batch, k).unwrap();
                            let got: Vec<(usize, u32)> =
                                slate.iter().map(|pr| (pr.row, pr.score)).collect();
                            assert_eq!(got, want.hits(0), "thread {t}, k {k}");
                            for pr in &slate {
                                assert_eq!(pr.class, classes[pr.row]);
                            }
                            // Shard-distant duplicates: a tied pair must
                            // order by global row index.
                            for pair in slate.windows(2) {
                                if pair[0].score == pair[1].score {
                                    assert!(pair[0].row < pair[1].row, "thread {t}, k {k}");
                                }
                            }
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answered.iter().sum::<usize>(), THREADS * PER_THREAD);
    assert_eq!(server.stats().queries, (THREADS * PER_THREAD) as u64, "no lost queries");
}

/// With a batch size nothing ever fills, only the deadline flusher can
/// answer — it must fire every round, including immediately after a
/// previous flush.
#[test]
fn deadline_flush_always_fires() {
    let dim = 64;
    let am = Arc::new(random_am(16, dim, 2));
    let server = Server::start(
        Arc::clone(&am) as Arc<dyn Searchable>,
        ServeConfig {
            max_batch: usize::MAX,
            max_delay: Duration::from_micros(300),
            ..Default::default()
        },
    )
    .unwrap();
    let queries = random_queries(60, dim, 3);
    for (round, window) in queries.chunks(3).enumerate() {
        let pendings: Vec<Pending> =
            window.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
        for (q, p) in window.iter().zip(pendings) {
            // wait() returning at all IS the property: nothing but the
            // deadline can flush these.
            assert_eq!(p.wait().unwrap().class, am.classify(q).unwrap(), "round {round}");
        }
    }
    let stats = server.stats();
    assert_eq!(stats.full_flushes, 0);
    assert!(stats.deadline_flushes >= 20, "expected one flush per round, saw {stats:?}");
    assert_eq!(stats.queries, 60);
}

/// Hot snapshot swaps under sustained load: every response's
/// `(generation, class)` pair must match a published model — a batch that
/// mixed generations would hand some query a class from the wrong model.
/// Model generations are distinguishable by construction: generation `g`
/// labels every centroid with class `g % CLASS_MODELS`.
#[test]
fn snapshot_swap_never_mixes_generations() {
    const CLASS_MODELS: usize = 3;
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 600;
    const WINDOW: usize = 40;
    let dim = 64;
    // All models share the same rows, so scores/rows are
    // generation-independent; only the class labels identify the model.
    let rows = random_queries(32, dim, 4);
    let model_for = |class: usize| -> Arc<dyn Searchable> {
        Arc::new(
            BinaryAm::from_centroids(
                CLASS_MODELS,
                rows.iter().map(|r| (class, r.clone())).collect(),
            )
            .unwrap(),
        )
    };

    let server = Arc::new(
        Server::start(
            model_for(1 % CLASS_MODELS),
            ServeConfig {
                max_batch: 32,
                max_delay: Duration::from_micros(150),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // generation id -> class every centroid of that generation carries.
    let published: Arc<Mutex<HashMap<u64, usize>>> =
        Arc::new(Mutex::new(HashMap::from([(1, 1 % CLASS_MODELS)])));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Publisher: swap models as fast as the lock allows.
        let publisher = {
            let server = Arc::clone(&server);
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut swaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let class = (swaps as usize + 2) % CLASS_MODELS;
                    // Record the mapping BEFORE publishing so no response
                    // can observe an unknown generation.
                    let expected_id = {
                        let mut map = published.lock().unwrap();
                        let id = map.keys().max().unwrap() + 1;
                        map.insert(id, class);
                        id
                    };
                    let id = server.publish(model_for(class)).unwrap();
                    assert_eq!(id, expected_id, "publishes are serialized by this one thread");
                    swaps += 1;
                    std::thread::yield_now();
                }
                swaps
            })
        };

        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = Arc::clone(&server);
                let published = Arc::clone(&published);
                scope.spawn(move || {
                    let queries = random_queries(PER_THREAD, dim, 200 + t as u64);
                    for window in queries.chunks(WINDOW) {
                        let pendings: Vec<Pending> =
                            window.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
                        for p in pendings {
                            let got = p.wait().unwrap();
                            let expected_class =
                                *published.lock().unwrap().get(&got.generation).unwrap_or_else(
                                    || panic!("unknown generation {}", got.generation),
                                );
                            assert_eq!(
                                got.class, expected_class,
                                "generation {} answered with another generation's class",
                                got.generation
                            );
                        }
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let swaps = publisher.join().unwrap();
        assert!(swaps > 0, "publisher never got a swap in");
    });

    let stats = server.stats();
    assert_eq!(
        stats.queries,
        (SUBMITTERS * PER_THREAD) as u64,
        "zero failed or lost queries under swap load"
    );
}

/// Shard-vs-unsharded cascade agreement under concurrent republish: the
/// publisher alternates between a sharded cascade, an unsharded cascade,
/// and the plain exact model — all over the same rows, distinguishable
/// only by class labels. Every response must (a) carry a `(generation,
/// class)` pair consistent with one published model and (b) report the
/// same winning row and score as the direct exact search, so sharded and
/// unsharded cascades demonstrably agree while generations churn.
#[test]
fn cascade_swap_agrees_with_unsharded_and_never_mixes_generations() {
    const CLASS_MODELS: usize = 3;
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 400;
    const WINDOW: usize = 40;
    let dim = 128;
    let rows = random_queries(48, dim, 8);
    let plan = CascadePlan::prefix(dim, 32).unwrap();
    let reference = random_am(48, dim, 8); // same seed => same rows
    let model_for = |class: usize, variant: usize| -> Arc<dyn Searchable> {
        let am = hdc::BinaryAm::from_centroids(
            CLASS_MODELS,
            rows.iter().map(|r| (class, r.clone())).collect(),
        )
        .unwrap();
        match variant % 3 {
            0 => Arc::new(ShardedSearcher::from_am_cascade(&am, 3, plan.clone()).unwrap()),
            1 => Arc::new(ShardedSearcher::from_am_cascade(&am, 1, plan.clone()).unwrap()),
            _ => Arc::new(am),
        }
    };

    let server = Arc::new(
        Server::start(
            model_for(1 % CLASS_MODELS, 0),
            ServeConfig {
                max_batch: 32,
                max_delay: Duration::from_micros(150),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let published: Arc<Mutex<HashMap<u64, usize>>> =
        Arc::new(Mutex::new(HashMap::from([(1, 1 % CLASS_MODELS)])));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let publisher = {
            let server = Arc::clone(&server);
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut swaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let class = (swaps as usize + 2) % CLASS_MODELS;
                    {
                        let mut map = published.lock().unwrap();
                        let id = map.keys().max().unwrap() + 1;
                        map.insert(id, class);
                    }
                    server.publish(model_for(class, swaps as usize)).unwrap();
                    swaps += 1;
                    std::thread::yield_now();
                }
                swaps
            })
        };

        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = Arc::clone(&server);
                let published = Arc::clone(&published);
                let reference = &reference;
                scope.spawn(move || {
                    let queries = random_queries(PER_THREAD, dim, 800 + t as u64);
                    for window in queries.chunks(WINDOW) {
                        let pendings: Vec<Pending> =
                            window.iter().map(|q| server.submit(q.as_view()).unwrap()).collect();
                        for (q, p) in window.iter().zip(pendings) {
                            let got = p.wait().unwrap();
                            // (a) generation consistency.
                            let expected_class =
                                *published.lock().unwrap().get(&got.generation).unwrap_or_else(
                                    || panic!("unknown generation {}", got.generation),
                                );
                            assert_eq!(got.class, expected_class, "mixed generations");
                            // (b) winner agreement: rows are shared by
                            // every published variant, so the winning
                            // row/score must equal the exact search no
                            // matter which cascade variant answered.
                            let want = reference.search(q).unwrap();
                            assert_eq!(
                                (got.row, got.score),
                                (want.row, want.score),
                                "cascade variant diverged from the exact winner"
                            );
                        }
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let swaps = publisher.join().unwrap();
        assert!(swaps > 0, "publisher never got a swap in");
    });

    let stats = server.stats();
    assert_eq!(stats.queries, (SUBMITTERS * PER_THREAD) as u64, "no lost queries under swap load");
}

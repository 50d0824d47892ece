//! The traced layer ladder: the same inputs replayed at each layer
//! boundary in turn — `SearchMemory` → `MemhdModel` adapter →
//! `ShardedSearcher` (1 and 2 shards) → in-process `Server` → UDS → TCP —
//! so each step's delta is that layer's cost.

use crate::fixtures::{QueryGen, ServeFixture, Stack, TrainSplit};
use crate::openloop::{inproc_phase, wire_phase, Conn, PhaseOut};
use crate::report::{median, percentile, Report};
use crate::trace::SpanLog;
use crate::workloads::{max_rate, wide_batch, WideFixture, HI_QPS, LO_QPS, WARMUP_S, WIDE_BATCH};
use crate::Res;
use hd_linalg::{CascadePlan, QueryBatch, QueryBatchBuilder};
use hd_serve::{Searchable, ShardedSearcher, Winner};
use imc_sim::{AmMapping, ArraySpec, MappingStrategy};
use std::sync::Arc;
use std::time::Instant;

/// Measured length of each serving rung, seconds.
const RUNG_S: f64 = 1.0;
/// `--seconds` equivalent of the ladder's max-rate search (10 trials of
/// 0.25 s).
const MAX_RATE_S: f64 = 10.0;
/// Queries replayed through the batch rungs.
const REPLAY: usize = 8192;
/// Interleaved repetitions of the batch rungs. The fastest is reported:
/// a batch rung isolates one layer's own cost, and a host stall during a
/// lap says nothing about that layer.
const ROUNDS: usize = 9;

/// Per-layer metrics and the number of output-check failures.
pub fn ladder(
    serve: &mut ServeFixture,
    wide: &WideFixture,
    wide_gen: &mut QueryGen,
    log: &Arc<SpanLog>,
) -> Res<(Report, u64)> {
    let mut r = Report::default();
    let (mut bad, batch_mean) = serving_rungs(&mut r, serve, log)?;
    bad += small_batch_rungs(&mut r, serve, (batch_mean.round() as usize).max(1))?;
    bad += wide_batch_rungs(&mut r, wide, wide_gen)?;
    add_train_split(&mut r, &serve.split.ok_or("the served model was not trained traced")?);
    Ok((r, bad))
}

/// In process, over UDS and over TCP, each at both rates, on one traced
/// stack; then the max-rate search over UDS. Returns the output-check
/// failures and the UDS rungs' mean flush size.
fn serving_rungs(r: &mut Report, serve: &mut ServeFixture, log: &Arc<SpanLog>) -> Res<(u64, f64)> {
    let stack = Stack::start(serve.model.binary_am(), Some(Arc::clone(log)), true)?;
    let rung = |name: &'static str,
                conn: Option<&mut Conn>,
                serve: &mut ServeFixture,
                rate: f64|
     -> Res<(u64, PhaseOut)> {
        let warm = (rate * WARMUP_S) as usize;
        let pool = serve.draw(warm + (rate * RUNG_S) as usize)?;
        let id = log.new_id();
        log.enter(id);
        let t = Instant::now();
        let out = match conn {
            Some(conn) => wire_phase(conn, &pool, rate, warm)?,
            None => inproc_phase(&stack.server, &pool, rate, warm),
        };
        log.record_as(id, name, 0, t, Instant::now(), out.attempted());
        log.enter(0);
        Ok((id, out))
    };
    let (_, in_lo) = rung("rung.inproc", None, serve, LO_QPS)?;
    let (_, in_hi) = rung("rung.inproc", None, serve, HI_QPS)?;
    let mut uds = Conn::uds(&stack.uds)?;
    let before = stack.server.stats();
    let (uds_lo_id, uds_lo) = rung("rung.uds", Some(&mut uds), serve, LO_QPS)?;
    let (uds_hi_id, uds_hi) = rung("rung.uds", Some(&mut uds), serve, HI_QPS)?;
    let after = stack.server.stats();
    let mut tcp = Conn::tcp(stack.tcp.ok_or("stack has no TCP listener")?)?;
    let (_, tcp_lo) = rung("rung.tcp", Some(&mut tcp), serve, LO_QPS)?;
    let (_, tcp_hi) = rung("rung.tcp", Some(&mut tcp), serve, HI_QPS)?;
    let (max_qps, mut bad, note) = max_rate(&mut uds, serve, MAX_RATE_S)?;
    println!("ladder {note}");
    drop((uds, tcp));
    stack.shutdown();
    for out in [&in_lo, &in_hi, &uds_lo, &uds_hi, &tcp_lo, &tcp_hi] {
        bad += out.mismatches + out.duplicates;
    }

    let p50 = |o: &PhaseOut| o.latency_us(0.5);
    let p99 = |o: &PhaseOut| o.latency_us(0.99);
    let calls = log.children("model.call", &[uds_lo_id, uds_hi_id]);
    let mut call_ns: Vec<u64> = calls.iter().map(|s| s.dur_ns()).collect();
    call_ns.sort_unstable();
    let flushes = calls.len() as f64;
    let batch_mean = calls.iter().map(|s| s.items).sum::<u64>() as f64 / flushes.max(1.0);
    let uds_wall = (uds_lo.wall + uds_hi.wall).as_secs_f64();
    let batches = (after.batches - before.batches).max(1) as f64;
    r.add("server.flushes", flushes, "count");
    r.add("server.batch_mean", batch_mean, "queries");
    r.add(
        "server.full_flush_frac",
        (after.full_flushes - before.full_flushes) as f64 / batches,
        "ratio",
    );
    r.add("server.shed", (after.shed - before.shed) as f64, "count");
    r.add("server.model_call_p50_us", percentile(&call_ns, 0.5) as f64 / 1e3, "us");
    r.add("server.model_call_p99_us", percentile(&call_ns, 0.99) as f64 / 1e3, "us");
    r.add("server.model_busy_frac", call_ns.iter().sum::<u64>() as f64 / 1e9 / uds_wall, "ratio");
    r.add("server.inproc_p50_us.lo", p50(&in_lo), "us");
    r.add("server.inproc_p50_us.hi", p50(&in_hi), "us");
    r.add("server.inproc_p99_us.lo", p99(&in_lo), "us");
    r.add("server.inproc_p99_us.hi", p99(&in_hi), "us");
    r.add("net.uds_p50_us.lo", p50(&uds_lo), "us");
    r.add("net.uds_p50_us.hi", p50(&uds_hi), "us");
    r.add("net.uds_over_inproc_p50_us.lo", p50(&uds_lo) - p50(&in_lo), "us");
    r.add("net.uds_over_inproc_p50_us.hi", p50(&uds_hi) - p50(&in_hi), "us");
    r.add("net.tcp_p50_us.lo", p50(&tcp_lo), "us");
    r.add("net.tcp_p50_us.hi", p50(&tcp_hi), "us");
    r.add("net.uds_max_rate_qps", max_qps, "1/s");
    let uds = [&uds_lo, &uds_hi];
    let sum = |f: fn(&PhaseOut) -> u64| uds.iter().map(|o| f(o)).sum::<u64>() as f64;
    r.add("net.frames", sum(|o| o.frames_sent + o.frames_recv), "count");
    r.add("net.bytes_sent", sum(|o| o.bytes_sent), "bytes");
    r.add("net.bytes_recv", sum(|o| o.bytes_recv), "bytes");
    r.add("net.errors", sum(|o| o.errors + o.missing), "count");
    r.add("gen.late_p99_us", uds.iter().map(|o| o.late_us(0.99)).fold(0.0, f64::max), "us");
    r.add("gen.late_max_us", uds.iter().map(|o| o.late_us(1.0)).fold(0.0, f64::max), "us");
    Ok((bad, batch_mean))
}

/// The served 128×128 AM at the mean flush size: `SearchMemory`, the
/// `MemhdModel` adapter, 1 and 2 shards, and the mapped IMC array.
fn small_batch_rungs(r: &mut Report, serve: &mut ServeFixture, flush: usize) -> Res<u64> {
    let pool = serve.draw(REPLAY)?;
    let batches = split(&pool.batch, flush)?;
    let am = serve.model.binary_am();
    let one = ShardedSearcher::from_am(am, 1)?;
    let two = ShardedSearcher::from_am(am, 2)?;
    let mapping = AmMapping::new(am, ArraySpec::new(128, 128)?, MappingStrategy::Basic)?;
    let memory = am.search_memory();
    let expect = |b: usize, q: usize| pool.expected(b * flush + q);
    let mut bench = Bench::default();
    let mut laps: [Vec<f64>; 5] = Default::default();
    for round in 0..ROUNDS {
        let checking = round == 0;
        laps[0].push(bench.lap(&batches, |b, q| {
            let got = memory.winners_batch(q)?;
            Ok(checking
                && got.iter().enumerate().any(|(j, &(row, score))| {
                    let e = expect(b, j);
                    (row, score) != (e.row, e.score)
                }))
        })?);
        let served: [&dyn Searchable; 3] = [&serve.model, &one, &two];
        for (lap, model) in laps[1..4].iter_mut().zip(served) {
            lap.push(bench.lap(&batches, |b, q| {
                let got = model.search_winners(Arc::clone(q))?;
                Ok(checking && got.iter().enumerate().any(|(j, w)| *w != expect(b, j)))
            })?);
        }
        laps[4].push(bench.lap(&batches, |b, q| {
            let s = mapping.search_batch(q)?;
            Ok(checking
                && (0..s.len()).any(|j| {
                    let e = expect(b, j);
                    (s.predicted_rows[j], s.predicted_classes[j]) != (e.row, e.class)
                }))
        })?);
    }
    let [memory_us, adapter_us, one_us, two_us, mapped_us] = laps.map(|v| fastest(&v));
    r.add("ladder.flush_size", flush as f64, "queries");
    r.add("ladder.memory_call_us.small", memory_us, "us");
    r.add("ladder.adapter_call_us.small", adapter_us, "us");
    r.add("ladder.shard1_call_us.small", one_us, "us");
    r.add("shard.call_us.small", two_us, "us");
    r.add("imc.cycles_per_query", mapping.stats().cycles as f64, "count");
    r.add("imc.mapped_ns_per_query", mapped_us * 1e3 / flush as f64, "ns");
    Ok(bench.bad)
}

/// The 1024×1024 AM in 1024-query batches: the kernel through
/// `SearchMemory` (k=1, k=5, tuned cascade), the adapter, 1 and 2 shards.
fn wide_batch_rungs(r: &mut Report, wide: &WideFixture, gen: &mut QueryGen) -> Res<u64> {
    let batches =
        (0..REPLAY / WIDE_BATCH).map(|_| Ok(wide_batch(wide, gen)?.0)).collect::<Res<Vec<_>>>()?;
    let memory = wide.model.binary_am().search_memory();
    let one = ShardedSearcher::from_am(wide.model.binary_am(), 1)?;
    let plan = CascadePlan::tuned(memory, &batches[0])?;
    let reference =
        batches.iter().map(|b| memory.winners_batch(b)).collect::<Result<Vec<_>, _>>()?;
    let mut bench = Bench::default();
    let mut activation = Vec::new();
    let mut laps: [Vec<f64>; 6] = Default::default();
    for round in 0..ROUNDS {
        let checking = round == 0;
        let differs = |b: usize, got: &mut dyn Iterator<Item = (usize, u32)>| {
            checking && !got.eq(reference[b].iter().copied())
        };
        laps[0].push(
            bench
                .lap(&batches, |b, q| Ok(differs(b, &mut memory.winners_batch(q)?.into_iter())))?,
        );
        laps[1].push(bench.lap(&batches, |b, q| {
            let t = memory.topk_batch(q, 5)?;
            Ok(differs(b, &mut (0..t.len()).map(|j| t.hits(j)[0])))
        })?);
        let served: [&dyn Searchable; 3] = [&wide.model, &one, &wide.searcher];
        for (lap, model) in laps[2..5].iter_mut().zip(served) {
            lap.push(bench.lap(&batches, |b, q| {
                let got = model.search_winners(Arc::clone(q))?;
                Ok(differs(b, &mut got.iter().map(|w: &Winner| (w.row, w.score))))
            })?);
        }
        laps[5].push(bench.lap(&batches, |b, q| {
            let c = memory.search_cascade(q, &plan)?;
            if checking {
                activation.push(c.stats().activation_fraction());
            }
            Ok(differs(b, &mut c.winners().iter().copied()))
        })?);
    }
    let per_query = |v: &Vec<f64>| fastest(v) * 1e3 / WIDE_BATCH as f64;
    let bytes = memory.rows() * memory.cols().div_ceil(64) * 8;
    r.add("linalg.winners_ns_per_query", per_query(&laps[0]), "ns");
    r.add("linalg.topk5_ns_per_query", per_query(&laps[1]), "ns");
    r.add("linalg.bytes_per_query", bytes as f64, "bytes");
    r.add("linalg.cascade_activation_fraction", median(&activation), "ratio");
    r.add("linalg.cascade_ns_per_query", per_query(&laps[5]), "ns");
    r.add("searchable.adapter_ns_per_query", per_query(&laps[2]) - per_query(&laps[0]), "ns");
    r.add("shard.speedup.wide", fastest(&laps[3]) / fastest(&laps[4]), "ratio");
    Ok(bench.bad)
}

fn fastest(laps: &[f64]) -> f64 {
    laps.iter().copied().fold(f64::INFINITY, f64::min)
}

fn add_train_split(r: &mut Report, s: &TrainSplit) {
    r.add("hdc.encode_s", s.encode_s, "s");
    r.add("clustering.init_s", s.init_s, "s");
    r.add("memhd.qat_s", s.qat_s, "s");
    r.add("memhd.qat_epochs", s.epochs as f64, "count");
    r.add("memhd.qat_updates", s.updates as f64, "count");
    r.add("memhd.qat_best_epoch", s.best_epoch as f64, "count");
    let useful = if s.epochs == 0 { 1.0 } else { s.best_epoch as f64 / s.epochs as f64 };
    r.add("memhd.qat_useful_epoch_frac", useful, "ratio");
}

/// Splits queries into whole batches of `size` (a remainder is dropped).
fn split(all: &QueryBatch, size: usize) -> Res<Vec<Arc<QueryBatch>>> {
    let mut out = Vec::new();
    let mut b = QueryBatchBuilder::with_capacity(all.dim(), size);
    for i in 0..all.len() {
        b.push(all.query(i))?;
        if b.len() == size {
            out.push(Arc::new(b.take_batch()?));
        }
    }
    Ok(out)
}

/// Times passes over a set of batches; each call that reports a wrong
/// answer counts toward `bad`.
#[derive(Default)]
struct Bench {
    bad: u64,
}

impl Bench {
    /// Mean µs per call over one pass.
    fn lap(
        &mut self,
        batches: &[Arc<QueryBatch>],
        mut call: impl FnMut(usize, &Arc<QueryBatch>) -> Res<bool>,
    ) -> Res<f64> {
        let t = Instant::now();
        for (i, b) in batches.iter().enumerate() {
            self.bad += u64::from(call(i, b)?);
        }
        Ok(t.elapsed().as_secs_f64() * 1e6 / batches.len() as f64)
    }
}

//! The three workloads' end-to-end measurements.
//!
//! Every workload reports the same end-to-end metrics, each read at the
//! workload's own unit of work (see README.md): `p50_us.lo` and
//! `p50_us.hi` are the median latencies at its light and heavy operating
//! point, `throughput_per_s` its rate of work, `accuracy_pct` the quality
//! of its answers and `ok_frac` the share of attempts that succeeded.
//! Tail percentiles are printed beside them but left out of the result
//! line: on a shared 2-vCPU host they follow the host's own stalls.

use crate::fixtures::{fit, Bases, QueryGen, ServeFixture, Stack, TrainInput, DATA_SEED};
use crate::openloop::{wire_phase, Conn, PhaseOut};
use crate::report::{median, windowed_percentile_us, Report, SplitMix};
use crate::trace::SpanLog;
use crate::Res;
use hd_datasets::synthetic::SyntheticSpec;
use hd_datasets::Dataset;
use hd_linalg::rng::derive_seed;
use hd_linalg::{Matrix, QueryBatch, QueryBatchBuilder};
use hd_serve::{Searchable, ShardedSearcher, Winner};
use memhd::MemhdModel;
use std::sync::Arc;
use std::time::Instant;

/// Offered rates of the `serve_uds` operating points, queries/s.
pub const LO_QPS: f64 = 10_000.0;
pub const HI_QPS: f64 = 40_000.0;
/// p99 limit a rate must meet to count as sustainable: 25× `max_delay`.
/// Tighter limits put the max-rate search inside the range where answers
/// wait on the wire writer's flush (see README.md), whose latency jumps
/// between two levels from run to run.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Fixed open-loop warm-up at the start of a serving phase, excluded.
pub const WARMUP_S: f64 = 0.2;
/// Share of `--seconds` each serving operating point runs for.
const POINT_SHARE: f64 = 0.3;
/// The max-rate search: this many trials, each this share of `--seconds`.
const SWEEP_TRIALS: usize = 10;
const TRIAL_SHARE: f64 = 0.025;
/// Highest rate the max-rate search offers.
const SWEEP_CAP_QPS: f64 = 640_000.0;

/// Shape of the `search_wide` memory: 1024×1024, 64 arrays of 128×128.
pub const WIDE_SHAPE: (usize, usize) = (1024, 1024);
pub const WIDE_BATCH: usize = 1024;
/// Timed calls per block of `search_wide` (one block is the warm-up).
const BLOCK: usize = 8;
/// Calls per window of the windowed percentiles.
const CALL_WINDOW: usize = 100;
/// Held-out bits flipped per wide query (~5% of 1024).
pub const WIDE_FLIPS: usize = 48;

/// One end-to-end measurement.
#[derive(Default)]
pub struct E2e {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures: wrong answers, answers to unknown or
    /// already-answered ids, accuracies that did not repeat.
    pub bad: u64,
    pub notes: Vec<String>,
}

impl E2e {
    /// Puts `ok_frac` and the median latencies in µs at `lo` and `hi`
    /// ahead of the workload's own metrics, and prints the tails beside
    /// them.
    fn finish(&mut self, lo: Latency, hi: Latency) {
        self.notes.push(format!(
            "tails (printed only): p90_us.lo = {:.1}, p99_us.lo = {:.1}, p90_us.hi = {:.1}, \
             p99_us.hi = {:.1}",
            lo.p90, lo.p99, hi.p90, hi.p99
        ));
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        let mut r = Report::default();
        r.add("ok_frac", ok, "ratio");
        r.add("p50_us.lo", lo.p50, "us");
        r.add("p50_us.hi", hi.p50, "us");
        r.metrics.append(&mut self.report.metrics);
        self.report = r;
    }
}

/// Median and tail of one operating point, µs.
struct Latency {
    p50: f64,
    p90: f64,
    p99: f64,
}

impl Latency {
    /// Percentiles of call times, each the median over windows of
    /// [`CALL_WINDOW`] calls.
    fn of_calls(ns: &[u64]) -> Self {
        let at = |p| windowed_percentile_us(ns, CALL_WINDOW, p);
        Latency { p50: at(0.5), p90: at(0.9), p99: at(0.99) }
    }

    fn of_phase(o: &PhaseOut) -> Self {
        Latency { p50: o.latency_us(0.5), p90: o.latency_us(0.9), p99: o.latency_us(0.99) }
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- serve_uds

/// Open loop over UDS at the `lo` and `hi` rates, then the max-rate
/// search, all on one connection.
pub fn serve_e2e(fx: &mut ServeFixture, stack: &Stack, seconds: f64) -> Res<E2e> {
    let mut e = E2e::default();
    let mut conn = Conn::uds(&stack.uds)?;
    let mut points = Vec::new();
    for rate in [LO_QPS, HI_QPS] {
        let out = point(&mut conn, fx, rate, POINT_SHARE * seconds)?;
        e.attempted += out.attempted();
        e.failed += out.failed();
        e.bad += out.mismatches + out.duplicates;
        points.push(out);
    }
    let (lo, hi) = (Latency::of_phase(&points[0]), Latency::of_phase(&points[1]));
    let correct: u64 = points.iter().map(|p| p.correct_class).sum();
    let late_p99 = points.iter().map(|p| p.late_us(0.99)).fold(0.0, f64::max);
    let late_max = points.iter().map(|p| p.late_us(1.0)).fold(0.0, f64::max);
    e.notes.push(format!(
        "serve_uds: n.lo = {}, n.hi = {}; generator late p99 = {late_p99:.1} us, max = \
         {late_max:.1} us",
        points[0].attempted(),
        points[1].attempted(),
    ));
    if late_p99 > P99_LIMIT_US / 2.0 {
        e.notes.push("WARNING: the generator fell behind its schedule".into());
    }

    let (max_rate, bad, note) = max_rate(&mut conn, fx, seconds)?;
    e.bad += bad;
    e.notes.push(note);
    e.notes.push(format!(
        "{} distinct queries drawn (repeated share 0; {} fingerprint redraws)",
        fx.gen.issued, fx.gen.redrawn
    ));
    e.report.add("throughput_per_s", max_rate, "1/s");
    e.report.add("accuracy_pct", 100.0 * correct as f64 / e.attempted.max(1) as f64, "%");
    e.finish(lo, hi);
    Ok(e)
}

/// One operating point: [`WARMUP_S`] of warm-up, left out of the
/// statistics, then `seconds` measured, at `rate`.
pub fn point(conn: &mut Conn, fx: &mut ServeFixture, rate: f64, seconds: f64) -> Res<PhaseOut> {
    let warm = (rate * WARMUP_S) as usize;
    wire_phase(conn, &fx.draw(warm + (rate * seconds) as usize)?, rate, warm)
}

fn passes(t: &PhaseOut) -> bool {
    t.failed() == 0 && t.latency_us(0.99) <= P99_LIMIT_US && !t.backlog_grew(P99_LIMIT_US)
}

/// The highest offered rate whose p99 meets [`P99_LIMIT_US`] with no
/// growing backlog: doubling from twice the `hi` rate (halving if it
/// fails) until a pass and a fail bracket it, then geometric bisection.
/// Returns the rate, the trials' output-check failures and a summary.
pub fn max_rate(conn: &mut Conn, fx: &mut ServeFixture, seconds: f64) -> Res<(f64, u64, String)> {
    let (mut pass, mut fail) = (0.0f64, f64::INFINITY);
    let mut rate = 2.0 * HI_QPS;
    let mut trials = Vec::new();
    while trials.len() < SWEEP_TRIALS {
        let n = (rate * TRIAL_SHARE * seconds) as usize;
        let out = wire_phase(conn, &fx.draw(n)?, rate, 0)?;
        if passes(&out) {
            pass = rate;
        } else {
            fail = rate;
        }
        trials.push(out);
        rate = if fail.is_infinite() {
            (rate * 2.0).min(SWEEP_CAP_QPS)
        } else if pass == 0.0 {
            rate / 2.0
        } else {
            (pass * fail).sqrt()
        };
        if pass == SWEEP_CAP_QPS {
            break;
        }
    }
    let bad = trials.iter().map(|t| t.mismatches + t.duplicates).sum();
    let summary = trials
        .iter()
        .map(|t| {
            let p99 = t.latency_us(0.99);
            format!("{:.0}/s p99 {p99:.0}us {}", t.rate, if passes(t) { "ok" } else { "x" })
        })
        .collect::<Vec<_>>()
        .join(", ");
    Ok((pass, bad, format!("max-rate search (p99 limit {P99_LIMIT_US} us): {summary}")))
}

// ---------------------------------------------------------------- search_wide

pub struct WideFixture {
    pub model: MemhdModel,
    pub bases: Bases,
    pub searcher: ShardedSearcher,
}

/// Set-up of `search_wide`: generate the data, train the 1024×1024 AM,
/// encode the held-out split, start the shard workers.
pub fn wide_setup(log: Option<&SpanLog>) -> Res<WideFixture> {
    let (dim, columns) = WIDE_SHAPE;
    let input = TrainInput::generate(
        "mnist-like",
        SyntheticSpec::mnist_like(200, 100),
        dim,
        columns,
        DATA_SEED,
    )?;
    let (model, _) = fit(&input, log)?;
    let bases = Bases::encode(&model, &input.data)?;
    let searcher = ShardedSearcher::from_am(model.binary_am(), 2)?;
    Ok(WideFixture { model, bases, searcher })
}

/// A fresh batch of distinct wide queries and their labels.
pub fn wide_batch(fx: &WideFixture, gen: &mut QueryGen) -> Res<(Arc<QueryBatch>, Vec<usize>)> {
    let mut b = QueryBatchBuilder::with_capacity(fx.bases.batch.dim(), WIDE_BATCH);
    let labels = gen.draw(&fx.bases, WIDE_BATCH, &mut b);
    Ok((Arc::new(b.take_batch()?), labels))
}

/// Answers of one timed `search_wide` call.
enum Answers {
    K1(Vec<Winner>),
    K5(Vec<Vec<Winner>>),
}

/// Closed loop, one caller: 1024-query batches straight into the sharded
/// searcher, [`BLOCK`] k=1 calls back to back, then [`BLOCK`] k=5 calls.
/// Only the calls are timed; after each block every answer is checked
/// against the unsharded `SearchMemory`, so the reference search neither
/// runs between timed calls nor evicts their working set.
pub fn wide_e2e(
    fx: &WideFixture,
    gen: &mut QueryGen,
    seconds: f64,
    log: Option<&SpanLog>,
) -> Res<E2e> {
    let mut e = E2e::default();
    let am = fx.model.binary_am();
    let memory = am.search_memory();
    let wrong = |w: &Winner, &(row, score): &(usize, u32)| {
        u64::from(w.row != row || w.score != score || w.class != am.class_of(row))
    };
    let mut ns: [Vec<u64>; 2] = Default::default();
    // Queries per second of call time, per pair of k=1 and k=5 blocks.
    let mut rates = Vec::new();
    let mut correct = 0u64;
    let start = Instant::now();
    let mut warm = true;
    while warm || seconds_since(start) < seconds {
        let (mut pair_queries, mut pair_ns) = (0usize, 0u64);
        for (slot, k) in [1, 5].into_iter().enumerate() {
            let block = (0..BLOCK).map(|_| wide_batch(fx, gen)).collect::<Res<Vec<_>>>()?;
            let mut answers = Vec::with_capacity(BLOCK);
            for (b, _) in &block {
                let t = Instant::now();
                let got = match k {
                    1 => fx.searcher.search_winners(Arc::clone(b)).map(Answers::K1),
                    _ => fx.searcher.search_topk(Arc::clone(b), k).map(Answers::K5),
                };
                let end = Instant::now();
                if let (Some(log), false) = (log, warm) {
                    log.record(
                        if k == 1 { "search.k1" } else { "search.k5" },
                        0,
                        t,
                        end,
                        b.len() as u64,
                    );
                }
                answers.push(got.map(|a| (a, (end - t).as_nanos() as u64)));
            }
            if warm {
                continue;
            }
            for ((b, labels), got) in block.iter().zip(answers) {
                e.attempted += b.len() as u64;
                let Ok((got, call_ns)) = got else {
                    e.failed += b.len() as u64;
                    continue;
                };
                ns[slot].push(call_ns);
                pair_queries += b.len();
                pair_ns += call_ns;
                match got {
                    Answers::K1(got) => {
                        let want = memory.winners_batch(b)?;
                        e.bad += u64::from(got.len() != want.len());
                        for (q, (w, r)) in got.iter().zip(&want).enumerate() {
                            e.bad += wrong(w, r);
                            correct += u64::from(w.class == labels[q]);
                        }
                    }
                    Answers::K5(got) => {
                        let want = memory.topk_batch(b, k)?;
                        e.bad += u64::from(got.len() != want.len());
                        for (q, slate) in got.iter().enumerate() {
                            let hits = want.hits(q);
                            e.bad += u64::from(slate.len() != hits.len());
                            e.bad += slate.iter().zip(hits).map(|(w, r)| wrong(w, r)).sum::<u64>();
                        }
                    }
                }
            }
        }
        if !warm && pair_ns > 0 {
            rates.push(pair_queries as f64 * 1e9 / pair_ns as f64);
        }
        warm = false;
    }
    let [k1_ns, k5_ns] = ns;
    let (lo, hi) = (Latency::of_calls(&k1_ns), Latency::of_calls(&k5_ns));
    e.notes.push(format!(
        "search_wide: {} k=1 calls, {} k=5 calls of {WIDE_BATCH} queries; qps.k1 = {:.0}, \
         qps.k5 = {:.0} (1024 / median call); {} distinct queries drawn (repeated share 0; \
         {} fingerprint redraws)",
        k1_ns.len(),
        k5_ns.len(),
        WIDE_BATCH as f64 / (lo.p50 / 1e6),
        WIDE_BATCH as f64 / (hi.p50 / 1e6),
        gen.issued,
        gen.redrawn
    ));
    e.report.add("throughput_per_s", median(&rates), "1/s");
    e.report.add(
        "accuracy_pct",
        100.0 * correct as f64 / (k1_ns.len() * WIDE_BATCH).max(1) as f64,
        "%",
    );
    e.finish(lo, hi);
    Ok(e)
}

// ---------------------------------------------------------------- train

/// The three training inputs: two 128×128 fits (`lo`: their mean per
/// pass) and the Table II ISOLET shape at 512×128 (`hi`), at 1000/200 and
/// 240/60 samples per class. The training data is fixed, so every run
/// fits the same models and the fit time does not change with the data;
/// `seed` picks which half of a doubled held-out split each model is
/// evaluated on.
pub fn train_inputs(seed: u64) -> Res<Vec<TrainInput>> {
    let specs = [
        ("mnist-like", SyntheticSpec::mnist_like(1000, 400), 128),
        ("fmnist-like", SyntheticSpec::fmnist_like(1000, 400), 128),
        ("isolet-like", SyntheticSpec::isolet_like(240, 120), 512),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, spec, dim))| {
            let stream = i as u64 + 1;
            let mut input =
                TrainInput::generate(name, spec, dim, 128, derive_seed(DATA_SEED, stream))?;
            keep_seeded_half(&mut input.data, derive_seed(seed, stream))?;
            Ok(input)
        })
        .collect()
}

/// Keeps a seeded half of a dataset's held-out split.
fn keep_seeded_half(ds: &mut Dataset, seed: u64) -> Res<()> {
    let mut rng = SplitMix(seed);
    let n = ds.test_labels.len();
    let mut rows: Vec<usize> = (0..n).collect();
    for i in 0..n / 2 {
        let j = i + rng.below(n - i);
        rows.swap(i, j);
    }
    rows.truncate(n / 2);
    rows.sort_unstable();
    let features: Vec<&[f32]> = rows.iter().map(|&r| ds.test_features.row(r)).collect();
    ds.test_features = Matrix::from_rows(&features)?;
    ds.test_labels = rows.iter().map(|&r| ds.test_labels[r]).collect();
    Ok(())
}

/// Fits and evaluates every input, pass after pass, until `seconds` have
/// passed (at least two passes, so the accuracy check has a repeat).
/// Returns the measurement and the per-input test accuracies.
pub fn train_e2e(
    inputs: &[TrainInput],
    seconds: f64,
    log: Option<&SpanLog>,
) -> Res<(E2e, Vec<f64>)> {
    let mut e = E2e::default();
    let (mut lo_ns, mut hi_ns) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<f64>> = None;
    // Wall time of each pass's fits, and training samples per second of it.
    let (mut pass_s, mut rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while pass_s.len() < 2 || seconds_since(start) < seconds {
        let mut accs = Vec::with_capacity(inputs.len());
        let mut lo_pass = Vec::new();
        let (mut samples, mut fits_ns) = (0usize, 0u64);
        for input in inputs {
            let pass_id = log.map(|l| {
                let id = l.new_id();
                l.enter(id);
                id
            });
            let t = Instant::now();
            e.attempted += 1;
            let acc = fit(input, log).and_then(|(m, _)| {
                Ok(m.evaluate(&input.data.test_features, &input.data.test_labels)?)
            });
            let end = Instant::now();
            if let (Some(log), Some(id)) = (log, pass_id) {
                log.record_as(id, "train.fit_eval", 0, t, end, input.train_samples() as u64);
            }
            let Ok(acc) = acc else {
                e.failed += 1;
                accs.push(f64::NAN);
                continue;
            };
            samples += input.train_samples();
            let ns = (end - t).as_nanos() as u64;
            fits_ns += ns;
            if input.dim == 128 {
                lo_pass.push(ns);
            } else {
                hi_ns.push(ns);
            }
            accs.push(acc);
        }
        if !lo_pass.is_empty() {
            lo_ns.push(lo_pass.iter().sum::<u64>() / lo_pass.len() as u64);
        }
        pass_s.push(fits_ns as f64 / 1e9);
        rates.push(samples as f64 * 1e9 / fits_ns.max(1) as f64);
        match &first {
            None => first = Some(accs),
            Some(f) => {
                e.bad +=
                    f.iter().zip(&accs).filter(|(a, b)| a.to_bits() != b.to_bits()).count() as u64
            }
        }
    }
    let accs = first.unwrap_or_default();
    let (lo, hi) = (Latency::of_calls(&lo_ns), Latency::of_calls(&hi_ns));
    e.notes.push(format!(
        "train: {} passes; train_s = {:.3} s (median pass of the three fits); test accuracy {}",
        pass_s.len(),
        median(&pass_s),
        inputs
            .iter()
            .zip(&accs)
            .map(|(i, a)| format!("{} {}x{} {:.4}", i.name, i.dim, i.columns, a))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    e.report.add("throughput_per_s", median(&rates), "1/s");
    e.report.add("accuracy_pct", 100.0 * mean(&accs), "%");
    e.finish(lo, hi);
    Ok((e, accs))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Median wall time of `reps` set-ups, keeping the last one built.
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Res<T>,
    mut retire: impl FnMut(T),
) -> Res<(f64, T)> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let built = setup()?;
        times.push(seconds_since(t));
        if let Some(old) = kept.replace(built) {
            retire(old);
        }
    }
    Ok((median(&times), kept.expect("at least one set-up")))
}

//! End-to-end benchmark of the MEMHD reproduction (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_uds|search_wide|train --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). An output-check mismatch prints
//! `"correct": false` and exits non-zero.

mod fixtures;
mod ladder;
mod openloop;
mod report;
mod trace;
mod workloads;

use fixtures::{QueryGen, ServeFixture, Stack};
use hd_linalg::rng::derive_seed;
use report::{result_json, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use trace::SpanLog;
use workloads::{
    serve_e2e, timed_setups, train_e2e, train_inputs, wide_e2e, wide_setup, E2e, WIDE_FLIPS,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload serve_uds|search_wide|train --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServeUds,
    SearchWide,
    Train,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeUds => "serve_uds",
            Workload::SearchWide => "search_wide",
            Workload::Train => "train",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_uds" => Workload::ServeUds,
                    "search_wide" => Workload::SearchWide,
                    "train" => Workload::Train,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints.
struct Outcome {
    metrics: Report,
    attempted: u64,
    failed: u64,
    bad: u64,
}

fn main() -> ExitCode {
    // Pin the cascade cost model to its compiled-in constants: resolving
    // it otherwise measures the host and writes a cache file outside the
    // working directory, and a pinned model keeps tuned plans identical
    // from run to run.
    std::env::set_var("HD_LINALG_CALIBRATION", "fallback");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    provenance(&args);
    let run = if args.trace { traced(&args) } else { untraced(&args) };
    match run {
        Ok(out) => {
            println!("{}", result_json(out.bad == 0, out.attempted, out.failed, &out.metrics));
            if out.bad == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} output-check mismatches", out.bad);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Results from a different kernel backend or cost model are not
/// comparable, so every run states what it ran on.
fn provenance(a: &Args) {
    println!(
        "provenance: workload={} seed={} seconds={} trace={} backend={} calibration={} ({}) \
         nproc={} profile={} features=default",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        hd_linalg::kernel::active(),
        std::env::var("HD_LINALG_CALIBRATION").unwrap_or_default(),
        hd_linalg::CostModel::active(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
}

fn untraced(a: &Args) -> Res<Outcome> {
    let (setup_s, e) = match a.workload {
        Workload::ServeUds => {
            let (setup_s, (mut fx, stack)) = timed_setups(
                SETUP_REPS,
                || {
                    let fx = ServeFixture::new(a.seed, None)?;
                    let stack = Stack::start(fx.model.binary_am(), None, false)?;
                    Ok((fx, stack))
                },
                |(_, stack)| stack.shutdown(),
            )?;
            let e = serve_e2e(&mut fx, &stack, a.seconds);
            stack.shutdown();
            (setup_s, e?)
        }
        Workload::SearchWide => {
            let (setup_s, fx) = timed_setups(SETUP_REPS, || wide_setup(None), drop)?;
            let mut gen = QueryGen::new(derive_seed(a.seed, 0x3e), WIDE_FLIPS);
            (setup_s, wide_e2e(&fx, &mut gen, a.seconds, None)?)
        }
        Workload::Train => {
            let (setup_s, inputs) = timed_setups(SETUP_REPS, || train_inputs(a.seed), drop)?;
            (setup_s, train_e2e(&inputs, a.seconds, None)?.0)
        }
    };
    for note in &e.notes {
        println!("{note}");
    }
    let mut metrics = Report::default();
    metrics.add("setup_s", setup_s, "s");
    metrics.metrics.extend(e.report.metrics);
    metrics.print(&format!("{} end-to-end (untraced)", a.workload.name()));
    Ok(Outcome { metrics, attempted: e.attempted, failed: e.failed, bad: e.bad })
}

/// The traced run: the workload untraced and then traced (their
/// difference is the tracing overhead), followed by the layer ladder.
fn traced(a: &Args) -> Res<Outcome> {
    let log = SpanLog::new();
    let mut bad = 0;
    let mut wide_gen = QueryGen::new(derive_seed(a.seed, 0x3e), WIDE_FLIPS);
    let mut serve = None;
    let mut wide = None;
    let (plain, timed) = match a.workload {
        Workload::ServeUds => {
            let mut fx = ServeFixture::new(a.seed, Some(&log))?;
            let mut run = |log: Option<Arc<SpanLog>>| {
                let stack = Stack::start(fx.model.binary_am(), log, false)?;
                let e = serve_e2e(&mut fx, &stack, a.seconds);
                stack.shutdown();
                e
            };
            let plain = run(None)?;
            let timed = run(Some(Arc::clone(&log)))?;
            serve = Some(fx);
            (plain, timed)
        }
        Workload::SearchWide => {
            let fx = wide_setup(Some(&log))?;
            let plain = wide_e2e(&fx, &mut wide_gen, a.seconds, None)?;
            let timed = wide_e2e(&fx, &mut wide_gen, a.seconds, Some(&log))?;
            wide = Some(fx);
            (plain, timed)
        }
        Workload::Train => {
            let inputs = train_inputs(a.seed)?;
            let (plain, acc_plain) = train_e2e(&inputs, a.seconds, None)?;
            let (timed, acc_timed) = train_e2e(&inputs, a.seconds, Some(&log))?;
            // The traced fit runs `MemhdModel::fit` as its public steps;
            // it must learn exactly the same models.
            let same = acc_plain.iter().zip(&acc_timed).all(|(x, y)| x.to_bits() == y.to_bits());
            if !same {
                eprintln!("perfbench: traced fit accuracy {acc_timed:?} != fit {acc_plain:?}");
                bad += 1;
            }
            (plain, timed)
        }
    };
    let mut serve = match serve {
        Some(fx) => fx,
        None => ServeFixture::new(a.seed, Some(&log))?,
    };
    let wide = match wide {
        Some(fx) => fx,
        None => wide_setup(Some(&log))?,
    };
    let (mut metrics, ladder_bad) = ladder::ladder(&mut serve, &wide, &mut wide_gen, &log)?;
    bad += ladder_bad + plain.bad + timed.bad;

    for note in plain.notes.iter().chain(&timed.notes) {
        println!("{note}");
    }
    plain.report.print(&format!("{} end-to-end (untraced)", a.workload.name()));
    timed.report.print(&format!("{} end-to-end (traced)", a.workload.name()));
    let overhead = overhead_pct(&plain, &timed);
    println!("-- tracing overhead, traced vs untraced");
    for (name, pct) in &overhead {
        println!("{name:<40} {pct:>+15.2} %");
    }
    let headline = overhead.iter().find(|(n, _)| n == "p50_us.hi").map_or(f64::NAN, |o| o.1);
    metrics.add("trace.overhead_pct", headline, "%");
    metrics.print(&format!("{} per-layer (traced ladder)", a.workload.name()));

    let path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", a.workload.name(), a.seed));
    log.write(&path)?;
    println!("spans written to {}", path.display());
    Ok(Outcome {
        metrics,
        attempted: plain.attempted + timed.attempted,
        failed: plain.failed + timed.failed,
        bad,
    })
}

/// Relative change of each latency and throughput metric under tracing.
fn overhead_pct(plain: &E2e, timed: &E2e) -> Vec<(String, f64)> {
    plain
        .report
        .metrics
        .iter()
        .filter(|m| m.unit == "us" || m.unit == "1/s")
        .filter_map(|m| {
            let t = timed.report.get(&m.name)?;
            Some((m.name.clone(), 100.0 * (t - m.value) / m.value))
        })
        .collect()
}

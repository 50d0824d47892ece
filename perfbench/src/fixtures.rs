//! Inputs and systems under test: generated datasets, trained models,
//! pools of distinct queries with their reference answers, and the
//! serving stack.

use crate::report::{fingerprint, SplitMix};
use crate::trace::{SpanLog, Timed};
use crate::Res;
use hd_datasets::synthetic::SyntheticSpec;
use hd_datasets::Dataset;
use hd_linalg::rng::derive_seed;
use hd_linalg::{QueryBatch, QueryBatchBuilder};
use hd_serve::net::{WireConfig, WireServer};
use hd_serve::{Searchable, ServeConfig, Server, ShardedSearcher, Winner};
use hdc::{encode_dataset, BinaryAm, Encoder, RandomProjectionEncoder};
use memhd::train::{quantization_aware_train, TrainOptions};
use memhd::{MemhdConfig, MemhdModel, TrainingHistory};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model seed: part of the program's configuration, not of its input.
const MODEL_SEED: u64 = 1;

/// Seed of the datasets every model is trained on. A model is the
/// system's state, not its input: `--seed` varies what it is asked, and
/// the model (with its fit time and the accuracy it can reach) stays the
/// same.
pub const DATA_SEED: u64 = 7;

/// Shards behind the served model (as in `examples/wire_serving.rs`).
pub const SERVE_SHARDS: usize = 2;

/// The served model: the paper's flagship 128×128 AM on MNIST-like data.
pub const SERVE_SHAPE: (usize, usize) = (128, 128);
/// Held-out bits flipped per served query (~5% of 128).
pub const SERVE_FLIPS: usize = 6;

/// One training input of the `train` workload and of the served models.
pub struct TrainInput {
    pub name: &'static str,
    pub data: Dataset,
    pub dim: usize,
    pub columns: usize,
}

impl TrainInput {
    pub fn generate(
        name: &'static str,
        spec: SyntheticSpec,
        dim: usize,
        columns: usize,
        seed: u64,
    ) -> Res<Self> {
        Ok(TrainInput { name, data: spec.generate(seed)?, dim, columns })
    }

    pub fn config(&self) -> Res<MemhdConfig> {
        Ok(MemhdConfig::new(self.dim, self.columns, self.data.num_classes)?.with_seed(MODEL_SEED))
    }

    pub fn train_samples(&self) -> usize {
        self.data.train_labels.len()
    }
}

/// The MNIST-like stand-in the served model is trained on.
pub fn serve_input() -> Res<TrainInput> {
    let (dim, columns) = SERVE_SHAPE;
    TrainInput::generate(
        "mnist-like",
        SyntheticSpec::mnist_like(1000, 200),
        dim,
        columns,
        DATA_SEED,
    )
}

/// Where a fit spent its time, and how much of its QAT was useful.
#[derive(Debug, Clone, Copy)]
pub struct TrainSplit {
    pub encode_s: f64,
    pub init_s: f64,
    pub qat_s: f64,
    pub epochs: usize,
    pub updates: usize,
    /// Epoch of the best-training-accuracy snapshot the model keeps.
    pub best_epoch: usize,
}

impl TrainSplit {
    fn from_history(encode_s: f64, init_s: f64, qat_s: f64, h: &TrainingHistory) -> Self {
        let records = h.records();
        let best = records
            .iter()
            .fold(None::<(usize, f64)>, |best, r| match best {
                Some((_, acc)) if acc >= r.train_accuracy => best,
                _ => Some((r.epoch, r.train_accuracy)),
            })
            .map_or(0, |(epoch, _)| epoch);
        TrainSplit {
            encode_s,
            init_s,
            qat_s,
            epochs: h.epochs_run(),
            updates: records.iter().map(|r| r.updates).sum(),
            best_epoch: best,
        }
    }
}

/// Trains a model. Untraced, this is `MemhdModel::fit`. Traced, the same
/// pipeline runs as its three public steps (projection encoding,
/// clustering init, quantization-aware training) with a span around
/// each; the `train` workload checks that both give the same accuracy.
pub fn fit(input: &TrainInput, log: Option<&SpanLog>) -> Res<(MemhdModel, Option<TrainSplit>)> {
    let config = input.config()?;
    let ds = &input.data;
    let Some(log) = log else {
        return Ok((MemhdModel::fit(&config, &ds.train_features, &ds.train_labels)?, None));
    };
    let parent = log.current();
    let n = input.train_samples() as u64;
    let t0 = Instant::now();
    let encoder = RandomProjectionEncoder::new(
        ds.train_features.cols(),
        config.dim(),
        derive_seed(config.seed(), 0x656e63),
    );
    let encoded = encode_dataset(&encoder, &ds.train_features)?;
    let t1 = Instant::now();
    let mut fp_am = memhd::init::clustering_init(&config, &encoded, &ds.train_labels)?;
    let t2 = Instant::now();
    let (binary_am, history) = quantization_aware_train(
        &mut fp_am,
        &encoded,
        &ds.train_labels,
        config.learning_rate(),
        config.epochs(),
        derive_seed(config.seed(), 0x747261),
        TrainOptions { eval: None, stop_on_zero_updates: true },
    )?;
    let t3 = Instant::now();
    log.record("hdc.encode", parent, t0, t1, n);
    log.record("clustering.init", parent, t1, t2, input.columns as u64);
    log.record("memhd.qat", parent, t2, t3, history.epochs_run() as u64);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let split = TrainSplit::from_history(secs(t0, t1), secs(t1, t2), secs(t2, t3), &history);
    let model = MemhdModel::assemble(config, encoder, fp_am, binary_am)?;
    Ok((model, Some(split)))
}

/// Held-out encodings of a dataset's test split: the bases queries are
/// derived from.
pub struct Bases {
    pub batch: QueryBatch,
    pub labels: Vec<usize>,
}

impl Bases {
    pub fn encode(model: &MemhdModel, ds: &Dataset) -> Res<Self> {
        Ok(Bases {
            batch: model.encoder().encode_binary_batch(&ds.test_features)?,
            labels: ds.test_labels.clone(),
        })
    }
}

/// Draws queries that never repeat within a run: each is a random
/// held-out encoding with `flips` distinct seeded bit flips, and a draw
/// whose fingerprint was already issued is redrawn (`redrawn` counts
/// those, so the repeated share of issued queries is 0 by construction).
pub struct QueryGen {
    pub rng: SplitMix,
    flips: usize,
    seen: HashSet<u64>,
    pub issued: usize,
    pub redrawn: usize,
}

impl QueryGen {
    pub fn new(seed: u64, flips: usize) -> Self {
        QueryGen { rng: SplitMix(seed), flips, seen: HashSet::new(), issued: 0, redrawn: 0 }
    }

    /// Appends `n` queries to `out`, returning their labels.
    pub fn draw(&mut self, bases: &Bases, n: usize, out: &mut QueryBatchBuilder) -> Vec<usize> {
        let dim = bases.batch.dim();
        let mut labels = Vec::with_capacity(n);
        let mut words = Vec::new();
        let mut flipped: Vec<usize> = Vec::with_capacity(self.flips);
        self.seen.reserve(n);
        while labels.len() < n {
            let b = self.rng.below(bases.batch.len());
            words.clear();
            words.extend_from_slice(bases.batch.query(b).as_words());
            flipped.clear();
            while flipped.len() < self.flips {
                let bit = self.rng.below(dim);
                if !flipped.contains(&bit) {
                    flipped.push(bit);
                    words[bit / 64] ^= 1 << (bit % 64);
                }
            }
            if !self.seen.insert(fingerprint(&words)) {
                self.redrawn += 1;
                continue;
            }
            out.push_packed_words(&words).expect("whole rows of the memory's width");
            labels.push(bases.labels[b]);
        }
        self.issued += n;
        labels
    }
}

/// The served model and the source of its queries.
pub struct ServeFixture {
    pub model: MemhdModel,
    pub split: Option<TrainSplit>,
    bases: Bases,
    pub gen: QueryGen,
    next_id: u64,
}

impl ServeFixture {
    /// Set-up of `serve_uds` before the server starts: generate the data,
    /// train the model, encode the held-out split. `seed` drives the
    /// queries drawn from it.
    pub fn new(seed: u64, log: Option<&SpanLog>) -> Res<Self> {
        let input = serve_input()?;
        let (model, split) = fit(&input, log)?;
        let bases = Bases::encode(&model, &input.data)?;
        let gen = QueryGen::new(derive_seed(seed, 0x9e), SERVE_FLIPS);
        Ok(ServeFixture { model, split, bases, gen, next_id: 0 })
    }

    /// The next `n` distinct queries with their reference answers.
    pub fn draw(&mut self, n: usize) -> Res<Pool> {
        let mut builder = QueryBatchBuilder::with_capacity(self.bases.batch.dim(), n);
        let labels = self.gen.draw(&self.bases, n, &mut builder);
        let batch = builder.take_batch()?;
        let am = self.model.binary_am();
        let expected = am.search_memory().winners_batch(&batch)?;
        let first_id = self.next_id;
        self.next_id += n as u64;
        Ok(Pool {
            batch,
            first_id,
            seed: self.gen.rng.next_u64(),
            labels,
            expected: expected.into_iter().map(|(r, s)| (r as u32, s)).collect(),
            classes: (0..am.num_centroids()).map(|r| am.class_of(r)).collect(),
        })
    }
}

/// Distinct queries for one phase, with their labels and the unsharded
/// in-process reference answer (`SearchMemory::winners_batch`) of each.
pub struct Pool {
    pub batch: QueryBatch,
    /// Wire id of query 0; ids never repeat within a run.
    pub first_id: u64,
    /// Seeds the phase's arrival schedule.
    pub seed: u64,
    pub labels: Vec<usize>,
    expected: Vec<(u32, u32)>,
    classes: Vec<usize>,
}

impl Pool {
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// The reference answer of query `j`.
    pub fn expected(&self, j: usize) -> Winner {
        let (row, score) = self.expected[j];
        Winner { row: row as usize, class: self.classes[row as usize], score }
    }

    /// Whether a served (row, class, score) equals the reference answer.
    pub fn matches(&self, j: usize, row: usize, class: usize, score: u32) -> bool {
        self.expected(j) == Winner { row, class, score }
    }
}

/// The serving stack: `ShardedSearcher` (2 shards) → `Server`
/// (`max_batch` 64, `max_delay` 200 µs) → `WireServer` on a Unix socket
/// in the working directory, and on loopback TCP when asked.
pub struct Stack {
    pub server: Arc<Server>,
    pub wire: WireServer,
    pub uds: PathBuf,
    pub tcp: Option<SocketAddr>,
}

pub fn serve_config() -> ServeConfig {
    ServeConfig { max_batch: 64, max_delay: Duration::from_micros(200), ..Default::default() }
}

impl Stack {
    pub fn start(am: &BinaryAm, log: Option<Arc<SpanLog>>, tcp: bool) -> Res<Self> {
        static SOCKETS: AtomicUsize = AtomicUsize::new(0);
        let sharded = ShardedSearcher::from_am(am, SERVE_SHARDS)?;
        let model: Arc<dyn Searchable> = match log {
            Some(log) => Arc::new(Timed::new(sharded, log)),
            None => Arc::new(sharded),
        };
        let server = Arc::new(Server::start(model, serve_config())?);
        let wire = WireServer::start(Arc::clone(&server), WireConfig::default())?;
        // A relative path keeps the socket inside the working directory
        // and short enough for `sun_path` however deep that directory is.
        let uds = PathBuf::from(format!(
            ".perfbench-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        ));
        wire.listen_uds(&uds)?;
        let tcp = if tcp { Some(wire.listen_tcp("127.0.0.1:0")?) } else { None };
        Ok(Stack { server, wire, uds, tcp })
    }

    /// Stops the front-end and the micro-batcher and joins their threads;
    /// the shard workers are joined when the last model handle drops.
    pub fn shutdown(self) {
        self.wire.shutdown();
        self.server.shutdown();
    }
}

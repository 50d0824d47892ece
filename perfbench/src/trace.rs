//! In-memory spans recorded by the benchmark around calls into the
//! program, and the timing `Searchable` decorator that measures the
//! Server → model boundary without editing `hd_serve`.

use hd_linalg::QueryBatch;
use hd_serve::{Searchable, Winner};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for the run itself); `items` is the work it covered (queries in a
/// flush, samples in a fit, ...).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// Parent for spans recorded inside the program's own threads (the
    /// decorator cannot see which phase the server is serving).
    current: AtomicU64,
}

impl SpanLog {
    pub fn new() -> Arc<Self> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
        })
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Makes `id` the parent of spans the decorator records from now on.
    pub fn enter(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
    }

    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span with a pre-allocated id (so children recorded while
    /// it ran could name it as their parent).
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let span = Span { id, parent, name, start_ns: self.ns(start), end_ns: self.ns(end), items };
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        self.record_as(self.new_id(), name, parent, start, end, items);
    }

    /// Spans named `name` whose parent is one of `parents`.
    pub fn children(&self, name: &str, parents: &[u64]) -> Vec<Span> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.iter().filter(|s| s.name == name && parents.contains(&s.parent)).copied().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"items\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// Wraps the served model and records one `model.call` span per flush
/// (start, end, batch size), parented to the phase being served.
pub struct Timed<M> {
    inner: M,
    log: Arc<SpanLog>,
}

impl<M> Timed<M> {
    pub fn new(inner: M, log: Arc<SpanLog>) -> Self {
        Timed { inner, log }
    }
}

impl<M: Searchable> Searchable for Timed<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> hd_serve::Result<Vec<Winner>> {
        let items = batch.len() as u64;
        let start = Instant::now();
        let out = self.inner.search_winners(batch);
        self.log.record("model.call", self.log.current(), start, Instant::now(), items);
        out
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> hd_serve::Result<Vec<Vec<Winner>>> {
        let items = batch.len() as u64;
        let start = Instant::now();
        let out = self.inner.search_topk(batch, k);
        self.log.record("model.call", self.log.current(), start, Instant::now(), items);
        out
    }

    fn missing_shards(&self) -> Vec<usize> {
        self.inner.missing_shards()
    }
}

//! The open-loop load generator: one sender thread that sleeps until each
//! query is due, and one receiver thread. Over the wire both speak the
//! public `hd_serve::net::wire` codec on their own halves of one socket;
//! in process the sender submits to the `Server` and the receiver waits
//! on the pending answers. Latency runs from the query's intended send
//! time, so a stall also charges the queries it delays.

use crate::fixtures::Pool;
use crate::report::{percentile, windowed_percentile_us, SplitMix};
use crate::Res;
use hd_serve::net::wire::{self, Header, HEADER_LEN};
use hd_serve::Server;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A failed or missing answer's latency: it misses every limit.
pub const FAILED: u64 = u64::MAX;

/// How long the receiver waits for the next frame before it counts the
/// rest of the phase as missing.
const RECV_TIMEOUT: Duration = Duration::from_secs(3);

/// One half of a client socket of either transport.
pub enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A handshaken wire connection, split into its two halves.
pub struct Conn {
    reader: BufReader<Stream>,
    writer: Stream,
    words_per_query: u32,
}

impl Conn {
    pub fn uds(path: &Path) -> Res<Self> {
        Self::handshake(Stream::Unix(UnixStream::connect(path)?))
    }

    pub fn tcp(addr: SocketAddr) -> Res<Self> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Self::handshake(Stream::Tcp(s))
    }

    fn handshake(stream: Stream) -> Res<Self> {
        stream.set_read_timeout(Some(RECV_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::with_capacity(1 << 16, stream);
        wire::write_hello(&mut writer)?;
        writer.flush()?;
        let h = wire::read_header(&mut reader)?;
        if h.frame_type != wire::FT_HELLO_ACK {
            return Err(format!("expected HELLO_ACK, got frame type {}", h.frame_type).into());
        }
        let dim = wire::read_u32(&mut reader)?;
        let _rows = wire::read_u32(&mut reader)?;
        let _generation = wire::read_u64(&mut reader)?;
        Ok(Conn { reader, writer, words_per_query: dim.div_ceil(64) })
    }
}

/// What one open-loop phase measured, per query in schedule order.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub rate: f64,
    /// Leading queries (the warm-up) checked but left out of the
    /// statistics.
    pub warm: usize,
    /// Due time of each query, ns from the phase start.
    pub due_ns: Vec<u64>,
    /// Due time → answer, ns; [`FAILED`] for errors and missing answers.
    pub latency_ns: Vec<u64>,
    /// Due time → actually sent, ns.
    pub late_ns: Vec<u64>,
    pub errors: u64,
    pub missing: u64,
    pub mismatches: u64,
    pub duplicates: u64,
    /// Measured queries answered with their true label.
    pub correct_class: u64,
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub frames_recv: u64,
    pub bytes_recv: u64,
    /// First due time → last outcome.
    pub wall: Duration,
}

impl PhaseOut {
    fn new(rate: f64, n: usize, seed: u64, warm: usize) -> Self {
        PhaseOut {
            rate,
            warm: warm.min(n),
            due_ns: schedule(n, rate, seed),
            latency_ns: vec![FAILED; n],
            late_ns: Vec::with_capacity(n),
            ..Default::default()
        }
    }

    /// Latencies of the measured queries (after the warm-up).
    pub fn measured(&self) -> &[u64] {
        &self.latency_ns[self.warm..]
    }

    pub fn attempted(&self) -> u64 {
        self.measured().len() as u64
    }

    /// Measured queries that got no correct answer: errors, sheds,
    /// timeouts and missing answers.
    pub fn failed(&self) -> u64 {
        self.measured().iter().filter(|&&l| l == FAILED).count() as u64
    }

    /// Percentile `p` of the measured latencies in µs: the median over
    /// windows of ~2000 queries.
    pub fn latency_us(&self, p: f64) -> f64 {
        windowed_percentile_us(self.measured(), 2000, p)
    }

    /// A backlog grew if the median query of the phase's last fifth
    /// waited longer than `limit_us`: the queue was still lengthening
    /// when the phase ended.
    pub fn backlog_grew(&self, limit_us: f64) -> bool {
        let m = self.measured();
        let tail = &m[m.len() * 4 / 5..];
        let mut v = tail.to_vec();
        v.sort_unstable();
        percentile(&v, 0.5) as f64 / 1e3 > limit_us
    }

    pub fn late_us(&self, p: f64) -> f64 {
        let mut v = self.late_ns.clone();
        v.sort_unstable();
        percentile(&v, p) as f64 / 1e3
    }
}

/// Poisson arrivals at `rate`: the due time of each of `n` queries, ns
/// from the phase start, with exponential gaps drawn from `seed`.
/// Independent users arrive this way; a fixed period would also lock the
/// arrivals into one phase against the server's flush deadline.
fn schedule(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let due = at as u64;
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            at += -(1.0 - u).ln() * 1e9 / rate;
            due
        })
        .collect()
}

/// Paces `n` sends at `rate` from `t0`: sleeps until the next query is
/// due (never spins), sends everything due (`send(Some(j))`), flushes
/// (`send(None)`), and records how late each query left. Stops early if
/// a send fails.
fn pace(
    due: &[u64],
    t0: Instant,
    late: &mut Vec<u64>,
    mut send: impl FnMut(Option<usize>) -> bool,
) {
    let n = due.len();
    let mut i = 0;
    while i < n {
        let now = Instant::now();
        let next = t0 + Duration::from_nanos(due[i]);
        if next > now {
            std::thread::sleep(next - now);
            continue;
        }
        let now_ns = (now - t0).as_nanos() as u64;
        let first = i;
        while i < n && due[i] <= now_ns {
            if !send(Some(i)) {
                return;
            }
            i += 1;
        }
        if !send(None) {
            return;
        }
        let sent_ns = t0.elapsed().as_nanos() as u64;
        late.extend(due[first..i].iter().map(|&d| sent_ns.saturating_sub(d)));
    }
}

/// Runs every query of `pool` at `rate` over `conn`, one single-query
/// k=1 QUERY frame each; the first `warm` are left out of the statistics.
pub fn wire_phase(conn: &mut Conn, pool: &Pool, rate: f64, warm: usize) -> Res<PhaseOut> {
    let n = pool.len();
    let mut out = PhaseOut::new(rate, n, pool.seed, warm);
    let wpq = conn.words_per_query;
    let query_frame = (HEADER_LEN + 8 + 8 * wpq as usize) as u64;
    let Conn { reader, writer, .. } = conn;
    let due = out.due_ns.clone();
    let t0 = Instant::now() + Duration::from_micros(500);
    let (mut late, sent) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = Vec::with_capacity(n);
            let mut sent = 0u64;
            let mut w = BufWriter::with_capacity(1 << 16, &mut *writer);
            pace(&due, t0, &mut late, |j| match j {
                Some(j) => {
                    sent += 1;
                    let id = pool.first_id + j as u64;
                    wire::write_query(&mut w, 1, id, wpq, pool.batch.query(j).as_words()).is_ok()
                }
                None => w.flush().is_ok(),
            });
            (late, sent)
        });
        receive(reader, pool, t0, &mut out);
        sender.join().expect("sender thread panicked")
    });
    out.late_ns.append(&mut late);
    out.frames_sent = sent;
    out.bytes_sent = sent * query_frame;
    Ok(out)
}

/// Reads until every query of the phase has an outcome, or the stream
/// goes quiet or breaks (the rest count as missing).
fn receive(reader: &mut BufReader<Stream>, pool: &Pool, t0: Instant, out: &mut PhaseOut) {
    let n = pool.len();
    let mut seen = vec![false; n];
    let mut outcomes = 0usize;
    while outcomes < n {
        let Ok(frame) = read_frame(reader) else { break };
        out.frames_recv += 1;
        out.bytes_recv += frame.bytes;
        let Some(j) = frame.id.checked_sub(pool.first_id).map(|j| j as usize).filter(|&j| j < n)
        else {
            if frame.id == wire::CONNECTION_ERROR_ID {
                break;
            }
            out.mismatches += 1;
            continue;
        };
        if std::mem::replace(&mut seen[j], true) {
            out.duplicates += 1;
            continue;
        }
        outcomes += 1;
        match frame.hit {
            Some((row, class, score, degraded)) => {
                let at = t0.elapsed().as_nanos() as u64;
                if degraded {
                    out.errors += 1;
                } else if pool.matches(j, row, class, score) {
                    out.latency_ns[j] = at.saturating_sub(out.due_ns[j]);
                    out.correct_class += u64::from(j >= out.warm && class == pool.labels[j]);
                } else {
                    out.mismatches += 1;
                }
            }
            None => out.errors += 1,
        }
    }
    out.missing = (n - outcomes) as u64;
    out.wall = t0.elapsed();
}

struct Frame {
    id: u64,
    /// (row, class, score, degraded) of the top hit; `None` for an error.
    hit: Option<(usize, usize, u32, bool)>,
    bytes: u64,
}

fn read_frame(r: &mut BufReader<Stream>) -> Res<Frame> {
    loop {
        let h: Header = wire::read_header(r)?;
        match h.frame_type {
            wire::FT_RESPONSE => {
                let id = wire::read_u64(r)?;
                let _generation = wire::read_u64(r)?;
                let mut hit = None;
                for _ in 0..h.k {
                    let row = wire::read_u32(r)? as usize;
                    let class = wire::read_u32(r)? as usize;
                    let score = wire::read_u32(r)?;
                    let degraded = h.flags & wire::FLAG_DEGRADED != 0;
                    hit.get_or_insert((row, class, score, degraded));
                }
                let bytes = (HEADER_LEN + 16 + 12 * h.k as usize) as u64;
                return Ok(Frame { id, hit, bytes });
            }
            wire::FT_ERROR => {
                let body = wire::read_error_body(r)?;
                let bytes = (HEADER_LEN + 12 + body.message.len()) as u64;
                return Ok(Frame { id: body.id, hit: None, bytes });
            }
            _ if h.is_payload_free() => {}
            other => return Err(format!("unexpected frame type {other} with payload").into()),
        }
    }
}

/// Runs every query of `pool` at `rate` straight into the `Server`; the
/// first `warm` are left out of the statistics.
pub fn inproc_phase(server: &Server, pool: &Pool, rate: f64, warm: usize) -> PhaseOut {
    let n = pool.len();
    let mut out = PhaseOut::new(rate, n, pool.seed, warm);
    let due = out.due_ns.clone();
    let t0 = Instant::now() + Duration::from_micros(500);
    let (tx, rx) = mpsc::channel();
    let mut late = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(n);
            pace(&due, t0, &mut late, |j| match j {
                Some(j) => tx.send((j, server.submit(pool.batch.query(j)).ok())).is_ok(),
                None => true,
            });
            late
        });
        let mut outcomes = 0u64;
        for (j, pending) in rx {
            outcomes += 1;
            match pending.map(|p| p.wait()) {
                Some(Ok(p)) if !p.degraded => {
                    let at = t0.elapsed().as_nanos() as u64;
                    if pool.matches(j, p.row, p.class, p.score) {
                        out.latency_ns[j] = at.saturating_sub(out.due_ns[j]);
                        out.correct_class += u64::from(j >= out.warm && p.class == pool.labels[j]);
                    } else {
                        out.mismatches += 1;
                    }
                }
                _ => out.errors += 1,
            }
        }
        out.missing = n as u64 - outcomes;
        out.wall = t0.elapsed();
        sender.join().expect("sender thread panicked")
    });
    out.late_ns.append(&mut late);
    out
}

//! TCP / Unix-domain-socket front-end for the micro-batching server.
//!
//! A std-only network layer (no external runtime): each listener runs a
//! thread-per-connection accept loop, and each connection runs a reader
//! thread (parse frames → [`crate::Server::submit_packed`]) plus a
//! writer thread (wait pendings in FIFO order → stream response
//! frames). Because co-flushed queries complete together, FIFO waiting
//! streams each micro-batch flush back the moment it publishes —
//! responses are per-flush, never a per-connection barrier.
//!
//! **Zero-repack ingest.** The QUERY payload *is* the
//! [`hd_linalg::QueryBatchBuilder`] row layout: `count` rows of
//! `words_per_query` packed little-endian `u64`s. The reader hands the
//! whole payload to [`crate::Server::submit_packed`], which lands it in
//! the pending batch as one word copy under one queue-lock acquisition.
//!
//! **Backpressure.** Two independent bounds:
//! * per server — [`crate::ServeConfig::max_in_flight`] sheds whole
//!   frames at admission with a typed `OVERLOADED` error frame;
//! * per connection — [`WireConfig::conn_in_flight`] bounds queries
//!   submitted but not yet written back. At the bound the reader stops
//!   reading, which propagates to the client through TCP flow control.
//!
//! **Malformed input never panics a worker.** Recoverable violations
//! (wrong dimensionality, `k == 0`, unknown model key, zero-query
//! frames, shed frames) answer with a typed error frame and keep the
//! connection open; unrecoverable ones (bad magic, unknown frame type,
//! oversized declarations) answer with a final error frame and close —
//! after every already-submitted query's response has been written.
//! Queries in flight are never lost to a later bad frame.

mod client;
mod resilient;
pub mod wire;

pub use client::{WireClient, WireEvent};
pub use resilient::{ResilientClient, ResilientConfig, ResilientError, RetryLedger, Target};
pub use wire::{
    code, serve_error_code, ErrorBody, Header, WireError, CONNECTION_ERROR_ID, FLAG_DEGRADED,
    FLAG_LIVENESS, FT_ERROR, FT_GOAWAY, FT_HELLO, FT_HELLO_ACK, FT_PING, FT_PONG, FT_QUERY,
    FT_RESPONSE, GOAWAY_NONE, HEADER_LEN, MAGIC,
};

use crate::{PendingTopK, ServeError, Server};
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire front-end tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Largest query count a single QUERY frame may declare. A frame
    /// over the limit is connection-fatal ([`code::OVERSIZED_FRAME`]):
    /// its declared payload cannot be trusted enough to drain.
    pub max_frame_queries: u32,
    /// Per-connection bound on queries submitted but not yet written
    /// back. The reader blocks at the bound (TCP flow control carries
    /// the backpressure to the client).
    pub conn_in_flight: usize,
    /// Sets `TCP_NODELAY` on accepted TCP connections (response frames
    /// are small; Nagle batching would add artificial latency under the
    /// micro-batcher's own deadline).
    pub nodelay: bool,
    /// Per-connection liveness deadline. A connection that sends no
    /// bytes for this long is probed with a PING and reaped after one
    /// more period of silence (grace == `idle_timeout`, so an idle or
    /// slow-loris peer holds a reader thread for at most
    /// `idle_timeout + grace`). A peer stalled *mid-frame* is reaped on
    /// the same budget without a PING — it owes us bytes, not liveness.
    /// `None` disables reaping (connections may pin reader threads
    /// forever; only sensible for trusted co-located clients).
    pub idle_timeout: Option<Duration>,
    /// Accept-gate on concurrently served connections. A connect beyond
    /// the limit is answered with a typed [`code::CONNECTION_LIMIT`]
    /// error frame and closed before a reader thread is spawned, so a
    /// connection flood degrades into polite rejections instead of
    /// unbounded thread growth.
    pub max_connections: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame_queries: 4096,
            conn_in_flight: 4096,
            nodelay: true,
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: 1024,
        }
    }
}

impl WireConfig {
    fn validate(&self) -> crate::Result<()> {
        if self.max_frame_queries == 0 || self.conn_in_flight == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_frame_queries and conn_in_flight must be positive".into(),
            });
        }
        if self.idle_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ServeError::InvalidConfig {
                reason: "idle_timeout must be positive (use None to disable reaping)".into(),
            });
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_connections must be positive (the front-end could accept nothing)"
                    .into(),
            });
        }
        Ok(())
    }
}

/// A duplex byte stream of either transport. Everything above this enum
/// is transport-agnostic.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Shuts down both directions, unblocking any thread parked in a
    /// read or write on a clone of this stream.
    pub(crate) fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => drop(s.shutdown(std::net::Shutdown::Both)),
            #[cfg(unix)]
            Stream::Unix(s) => drop(s.shutdown(std::net::Shutdown::Both)),
        }
    }

    /// Bounds every blocking read on this stream (and its clones sharing
    /// the socket): a read that sees no bytes for `timeout` returns a
    /// [`std::io::ErrorKind::WouldBlock`] / `TimedOut` error instead of
    /// parking forever.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

/// Whether an i/o error is a read-timeout expiry (`set_read_timeout`
/// surfaces as `WouldBlock` on Unix sockets and `TimedOut` on others).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// How a listener's accept loop is unblocked at shutdown: a throwaway
/// self-connection.
enum AcceptWaker {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl AcceptWaker {
    fn wake(&self) {
        match self {
            AcceptWaker::Tcp(addr) => drop(TcpStream::connect(addr)),
            #[cfg(unix)]
            AcceptWaker::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// Per-connection state shared between the reader, the writer, and the
/// front-end's drain/shutdown machinery.
struct ConnState {
    /// Id of the last query this connection accepted for answering
    /// ([`GOAWAY_NONE`] until the first one) — what a GOAWAY frame
    /// reports so the client knows which submissions will be answered.
    last_accepted: AtomicU64,
    /// Answers queued for the writer but not yet written back. Drain
    /// waits for this to hit zero on every connection.
    in_flight: AtomicU64,
    /// Set once a GOAWAY has been queued for this connection, so drain
    /// broadcasts and the reader's own draining check don't spam.
    goaway_queued: AtomicBool,
}

impl ConnState {
    fn new() -> Self {
        ConnState {
            last_accepted: AtomicU64::new(GOAWAY_NONE),
            in_flight: AtomicU64::new(0),
            goaway_queued: AtomicBool::new(false),
        }
    }
}

/// One live connection in the front-end's registry.
struct ConnEntry {
    /// Write-half clone, force-closed at shutdown.
    stream: Arc<Stream>,
    /// The reader→writer queue; drain uses it to broadcast GOAWAY.
    outgoing: SyncSender<Outgoing>,
    state: Arc<ConnState>,
    handle: JoinHandle<()>,
}

struct WireShared {
    server: Arc<Server>,
    config: WireConfig,
    shutdown: AtomicBool,
    /// Set by [`WireServer::drain`]: stop accepting QUERY frames and
    /// answer them (and fresh connects) with GOAWAY while in-flight
    /// answers flush.
    draining: AtomicBool,
    /// Live connections, force-closed at shutdown. Entries of finished
    /// connections are pruned opportunistically.
    conns: Mutex<Vec<ConnEntry>>,
    wakers: Mutex<Vec<AcceptWaker>>,
    /// Unix socket paths to unlink at shutdown.
    #[cfg(unix)]
    uds_paths: Mutex<Vec<PathBuf>>,
}

/// The socket front-end: accepts TCP and/or Unix-domain connections and
/// serves the wire protocol over an inner [`Server`].
///
/// One `WireServer` can run several listeners at once (e.g. a TCP port
/// for remote clients and a UDS path for co-located ones); every
/// connection feeds the same micro-batcher, so cross-connection traffic
/// coalesces into shared flush cycles.
///
/// # Example
///
/// ```no_run
/// use hd_serve::net::{WireClient, WireServer};
/// use hd_serve::{Searchable, ServeConfig, Server};
/// use hd_linalg::{BitVector, SearchMemory};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let memory = SearchMemory::from_rows(&vec![BitVector::zeros(256); 4])?;
/// let server = Arc::new(Server::start(
///     Arc::new(memory) as Arc<dyn Searchable>,
///     ServeConfig::default(),
/// )?);
/// let wire = WireServer::start(Arc::clone(&server), Default::default())?;
/// let addr = wire.listen_tcp("127.0.0.1:0")?; // ephemeral port
/// let mut client = WireClient::connect_tcp(addr)?;
/// let ids = client.send_queries(&[BitVector::zeros(256)], 1)?;
/// let event = client.recv()?;
/// # Ok(())
/// # }
/// ```
pub struct WireServer {
    shared: Arc<WireShared>,
    accept_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("config", &self.shared.config)
            .field("shutdown", &self.shared.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WireServer {
    /// Creates a front-end over `server` with no listeners yet; add them
    /// with [`WireServer::listen_tcp`] / [`WireServer::listen_uds`].
    ///
    /// The front-end borrows the server: shutting the front-end down
    /// closes sockets but leaves `server` running for in-process
    /// callers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero limits in
    /// `config`.
    pub fn start(server: Arc<Server>, config: WireConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(WireServer {
            shared: Arc::new(WireShared {
                server,
                config,
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
                wakers: Mutex::new(Vec::new()),
                #[cfg(unix)]
                uds_paths: Mutex::new(Vec::new()),
            }),
            accept_threads: Mutex::new(Vec::new()),
        })
    }

    /// Binds a TCP listener on `addr` and spawns its accept loop.
    /// Returns the bound address — bind to port 0 for an ephemeral port.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] wrapping bind/spawn
    /// failures, or [`ServeError::Shutdown`] after shutdown.
    pub fn listen_tcp<A: ToSocketAddrs>(&self, addr: A) -> crate::Result<SocketAddr> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::Shutdown);
        }
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to bind TCP listener: {e}"),
        })?;
        let local = listener.local_addr().map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to resolve bound TCP address: {e}"),
        })?;
        self.shared
            .wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(AcceptWaker::Tcp(local));
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("hd-wire-tcp-{}", local.port()))
            .spawn(move || accept_loop(&shared, listener))
            .map_err(|e| ServeError::InvalidConfig {
                reason: format!("failed to spawn accept thread: {e}"),
            })?;
        self.accept_threads.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        Ok(local)
    }

    /// Binds a Unix-domain listener on `path` (removing a stale socket
    /// file left by a previous process) and spawns its accept loop. The
    /// socket file is unlinked at shutdown.
    ///
    /// # Errors
    ///
    /// As [`WireServer::listen_tcp`].
    #[cfg(unix)]
    pub fn listen_uds<P: Into<PathBuf>>(&self, path: P) -> crate::Result<()> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::Shutdown);
        }
        let path = path.into();
        // A stale socket file from a crashed predecessor would fail the
        // bind; only ever remove sockets, not regular files.
        if let Ok(meta) = std::fs::symlink_metadata(&path) {
            use std::os::unix::fs::FileTypeExt;
            if meta.file_type().is_socket() {
                let _ = std::fs::remove_file(&path);
            }
        }
        let listener = UnixListener::bind(&path).map_err(|e| ServeError::InvalidConfig {
            reason: format!("failed to bind UDS listener on {}: {e}", path.display()),
        })?;
        let shared = Arc::clone(&self.shared);
        self.shared
            .wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(AcceptWaker::Unix(path.clone()));
        self.shared.uds_paths.lock().unwrap_or_else(PoisonError::into_inner).push(path);
        let handle = std::thread::Builder::new()
            .name("hd-wire-uds".into())
            .spawn(move || accept_loop_uds(&shared, listener))
            .map_err(|e| ServeError::InvalidConfig {
                reason: format!("failed to spawn accept thread: {e}"),
            })?;
        self.accept_threads.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        Ok(())
    }

    /// Live connections currently registered. Finished connections
    /// (disconnected, reaped for idling, or fatally errored) are pruned
    /// before counting.
    pub fn connections(&self) -> usize {
        let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.retain(|c| !c.handle.is_finished());
        conns.len()
    }

    /// Whether [`WireServer::drain`] has begun (or completed).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Gracefully drains the front-end, then shuts it down.
    ///
    /// In order: (1) fresh connects are answered with a GOAWAY frame and
    /// closed, (2) every live connection is sent a GOAWAY carrying the
    /// id of the last query it accepted — everything up to that id will
    /// still be answered, everything after it was never accepted and
    /// must be retried elsewhere, (3) QUERY frames arriving after the
    /// drain began are not submitted; their payloads are consumed and
    /// answered with (another) GOAWAY, (4) all in-flight answers flush
    /// through the per-connection writer FIFOs. Once every accepted
    /// answer is written — or `deadline` expires — the front-end shuts
    /// down exactly like [`WireServer::shutdown`].
    ///
    /// Returns `true` when every accepted in-flight answer was flushed
    /// before the deadline, `false` when the deadline cut the flush
    /// short (only possible if a peer stops reading its answers or the
    /// deadline is shorter than the micro-batcher's flush latency).
    /// Idempotent with [`WireServer::shutdown`]; a repeated call returns
    /// `true` immediately.
    pub fn drain(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return true; // already shut down: nothing left to flush
        }
        let mut flushed = false;
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            let mut pending = 0u64;
            {
                let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
                conns.retain(|c| !c.handle.is_finished());
                for conn in conns.iter() {
                    pending += conn.state.in_flight.load(Ordering::Acquire);
                    // Tell the peer (once) that this connection stops
                    // accepting queries. try_send: a full FIFO means the
                    // writer is busy flushing answers — retry next poll.
                    if !conn.state.goaway_queued.load(Ordering::Relaxed) {
                        match conn.outgoing.try_send(Outgoing::GoAway) {
                            Ok(()) => conn.state.goaway_queued.store(true, Ordering::Relaxed),
                            Err(TrySendError::Full(_)) => pending += 1, // not announced yet
                            Err(TrySendError::Disconnected(_)) => {}
                        }
                    }
                }
            }
            if pending == 0 {
                flushed = true;
                break;
            }
            if start.elapsed() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1).min(deadline));
        }
        self.shutdown();
        flushed
    }

    /// Shuts the front-end down: stops accepting, force-closes every
    /// connection's socket, joins all connection and accept threads, and
    /// unlinks UDS socket files. In-flight queries are still answered by
    /// the inner server (their responses are written if the peer is
    /// still reading). The inner [`Server`] itself keeps running — it
    /// belongs to the caller. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loops with throwaway self-connections, then
        // join them so no new connections register afterwards.
        for waker in self.shared.wakers.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            waker.wake();
        }
        for handle in self.accept_threads.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            let _ = handle.join();
        }
        let conns: Vec<ConnEntry> =
            self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        // Drop the registry's sender clones alongside the socket
        // shutdowns: a writer only exits once every sender of its
        // channel is gone, so holding `outgoing` across the joins would
        // deadlock.
        let mut handles = Vec::with_capacity(conns.len());
        for ConnEntry { stream, outgoing, state: _, handle } in conns {
            stream.shutdown();
            drop(outgoing);
            handles.push(handle);
        }
        for handle in handles {
            let _ = handle.join();
        }
        #[cfg(unix)]
        for path in self.shared.uds_paths.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<WireShared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if shared.config.nodelay {
                    let _ = stream.set_nodelay(true);
                }
                register_connection(shared, Stream::Tcp(stream));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                // Transient accept errors (EMFILE, aborted handshakes)
                // must not kill the listener.
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(unix)]
fn accept_loop_uds(shared: &Arc<WireShared>, listener: UnixListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                register_connection(shared, Stream::Unix(stream));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Accept-gates a fresh connection, then spawns its reader/writer pair
/// and registers the entry for forced shutdown and drain broadcasts.
///
/// Gate order: a draining front-end answers with GOAWAY and closes
/// (nothing was accepted on this connection, so [`GOAWAY_NONE`]); a full
/// front-end ([`WireConfig::max_connections`]) answers with a typed
/// [`code::CONNECTION_LIMIT`] error frame and closes. Both answers are
/// written on the accept thread — the rejected socket never costs a
/// reader thread. A connection whose clone or spawn fails is simply
/// dropped (the client sees a closed socket).
fn register_connection(shared: &Arc<WireShared>, mut stream: Stream) {
    if shared.draining.load(Ordering::Relaxed) {
        let _ = wire::write_goaway(&mut stream, GOAWAY_NONE);
        let _ = stream.flush();
        stream.shutdown();
        return;
    }
    let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
    // Reap finished connections so the registry doesn't grow with
    // churn and the gate counts only live peers.
    conns.retain(|c| !c.handle.is_finished());
    if conns.len() >= shared.config.max_connections {
        drop(conns); // don't hold the registry lock across a socket write
        let _ = wire::write_error(
            &mut stream,
            CONNECTION_ERROR_ID,
            code::CONNECTION_LIMIT,
            &format!(
                "server at its connection limit ({}); retry later",
                shared.config.max_connections
            ),
        );
        let _ = stream.flush();
        stream.shutdown();
        return;
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let write_half = Arc::new(write_half);
    let state = Arc::new(ConnState::new());
    let (tx, rx) = mpsc::sync_channel::<Outgoing>(shared.config.conn_in_flight);
    let conn_shared = Arc::clone(shared);
    let conn_write = Arc::clone(&write_half);
    let conn_state = Arc::clone(&state);
    let conn_tx = tx.clone();
    // The registry lock is held across the spawn and the push: the
    // reader's exit path deregisters itself through this same lock, so a
    // connection that dies instantly cannot deregister *before* its
    // entry exists — that would strand a registry sender clone, and the
    // writer (which drains until every sender is gone) would never exit.
    let Ok(handle) = std::thread::Builder::new().name("hd-wire-conn".into()).spawn(move || {
        connection_reader(&conn_shared, stream, &conn_write, &conn_state, conn_tx, rx)
    }) else {
        return;
    };
    conns.push(ConnEntry { stream: write_half, outgoing: tx, state, handle });
}

/// What the reader queues for the writer thread. FIFO order *is* the
/// response order: answers of one flush cycle complete together, so the
/// writer streams each flush as it publishes.
enum Outgoing {
    HelloAck,
    Answer {
        id: u64,
        pending: PendingTopK,
    },
    Error {
        id: u64,
        code: u16,
        message: String,
        fatal: bool,
    },
    /// Server-initiated liveness probe (idle-timeout grace).
    Ping {
        nonce: u64,
    },
    /// Echo of a client PING.
    Pong {
        nonce: u64,
    },
    /// Drain announcement; the writer stamps the connection's
    /// last-accepted id at write time.
    GoAway,
}

/// Per-connection reader loop: parses frames, submits packed queries,
/// queues outgoing work. Exits on disconnect, fatal protocol error,
/// idle-timeout reaping, or forced socket shutdown; always joins its
/// writer before returning so every in-flight query's response (or the
/// final error frame) is written first.
fn connection_reader(
    shared: &Arc<WireShared>,
    mut stream: Stream,
    write_half: &Arc<Stream>,
    state: &Arc<ConnState>,
    tx: SyncSender<Outgoing>,
    rx: Receiver<Outgoing>,
) {
    let writer_shared = Arc::clone(shared);
    let writer_half = Arc::clone(write_half);
    let writer_state = Arc::clone(state);
    let Ok(writer) = std::thread::Builder::new()
        .name("hd-wire-write".into())
        .spawn(move || connection_writer(&writer_shared, &writer_half, &rx, &writer_state))
    else {
        return;
    };
    read_frames(shared, &mut stream, &tx, state);
    // Deregister before closing the channel: the registry holds a sender
    // clone (for drain broadcasts), and the writer only exits once every
    // sender is gone.
    {
        let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.retain(|c| !Arc::ptr_eq(&c.state, state));
    }
    // Closing the channel lets the writer drain queued answers and exit;
    // a fatal error frame queued last is written after them.
    drop(tx);
    let _ = writer.join();
    // Unblock a peer still writing into a connection we abandoned.
    stream.shutdown();
}

/// Outcome of one budgeted header read (see [`read_header_budgeted`]).
enum HeaderRead {
    /// A complete, magic-valid header.
    Frame(Header),
    /// The read timed out with zero header bytes received: the
    /// connection is idle at a frame boundary (PING-able).
    Idle,
    /// The peer stalled or dribbled mid-header past the liveness budget
    /// (slow-loris): reap without a PING — the peer owes bytes.
    Stalled,
    /// Disconnect (clean EOF, reset, or forced shutdown).
    Closed,
    /// A complete header with the wrong magic.
    BadMagic(String),
}

/// Reads one frame header under the connection's liveness budget.
///
/// Unlike `read_exact`, partial progress survives a read timeout, so a
/// slow-but-live peer is never desynchronized by the probe: either the
/// full header eventually arrives ([`HeaderRead::Frame`]), or the caller
/// learns exactly what state the connection is in. Total time mid-header
/// is bounded by `2 × idle` (the same `idle_timeout + grace` budget an
/// idle connection gets), which also caps a byte-at-a-time slow-loris.
fn read_header_budgeted(stream: &mut Stream, idle: Option<Duration>) -> HeaderRead {
    let mut buf = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    let mut started: Option<Instant> = None;
    while filled < HEADER_LEN {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return HeaderRead::Closed,
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                filled += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => match started {
                // A full idle period with nothing at a frame boundary.
                None => return HeaderRead::Idle,
                // A full idle period of silence mid-header.
                Some(_) => return HeaderRead::Stalled,
            },
            Err(_) => return HeaderRead::Closed,
        }
        if let (Some(t), Some(idle)) = (started, idle) {
            if filled < HEADER_LEN && t.elapsed() > idle.saturating_add(idle) {
                return HeaderRead::Stalled;
            }
        }
    }
    match Header::decode(&buf) {
        Ok(header) => HeaderRead::Frame(header),
        Err(WireError::Protocol(what)) => HeaderRead::BadMagic(what),
        Err(_) => HeaderRead::Closed,
    }
}

/// A [`Read`] adapter that bounds the *total* time spent reading one
/// frame's payload: each chunk still runs under the socket's per-read
/// timeout, and any read past `deadline` fails immediately — so a peer
/// dribbling one byte per timeout period cannot stretch a frame forever.
struct DeadlineRead<'a> {
    inner: &'a mut Stream,
    deadline: Option<Instant>,
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame payload exceeded the liveness budget",
                ));
            }
        }
        self.inner.read(buf)
    }
}

/// Sends on the bounded channel, blocking for backpressure. Returns
/// `false` when the writer is gone (its socket died) — the reader then
/// stops consuming frames.
fn send_outgoing(tx: &SyncSender<Outgoing>, msg: Outgoing) -> bool {
    tx.send(msg).is_ok()
}

fn read_frames(
    shared: &Arc<WireShared>,
    stream: &mut Stream,
    tx: &SyncSender<Outgoing>,
    state: &Arc<ConnState>,
) {
    let server = &shared.server;
    let words_per_query = server.dim().div_ceil(64) as u32;
    let idle = shared.config.idle_timeout;
    if stream.set_read_timeout(idle).is_err() {
        return;
    }
    let mut words: Vec<u64> = Vec::new();
    let mut pinged = false;
    let mut ping_nonce: u64 = 0;
    loop {
        // Announce a drain the moment the reader notices it (the drain
        // loop also broadcasts through the registry sender, whichever
        // side gets there first).
        if shared.draining.load(Ordering::Relaxed)
            && !state.goaway_queued.swap(true, Ordering::Relaxed)
            && !send_outgoing(tx, Outgoing::GoAway)
        {
            return;
        }
        let header = match read_header_budgeted(stream, idle) {
            HeaderRead::Frame(header) => {
                pinged = false;
                header
            }
            HeaderRead::Idle => {
                if pinged {
                    // The grace PING went unanswered: reap.
                    let _ = send_outgoing(
                        tx,
                        Outgoing::Error {
                            id: CONNECTION_ERROR_ID,
                            code: code::IDLE_TIMEOUT,
                            message: "connection idle past idle_timeout and unresponsive to PING"
                                .into(),
                            fatal: true,
                        },
                    );
                    return;
                }
                ping_nonce += 1;
                if !send_outgoing(tx, Outgoing::Ping { nonce: ping_nonce }) {
                    return;
                }
                pinged = true;
                continue;
            }
            HeaderRead::Stalled => {
                // Slow-loris: bytes owed, none arriving. No PING can
                // help; answer a typed reap notice and close.
                let _ = send_outgoing(
                    tx,
                    Outgoing::Error {
                        id: CONNECTION_ERROR_ID,
                        code: code::IDLE_TIMEOUT,
                        message: "frame stalled past the liveness budget".into(),
                        fatal: true,
                    },
                );
                return;
            }
            HeaderRead::Closed => return,
            HeaderRead::BadMagic(what) => {
                let _ = send_outgoing(
                    tx,
                    Outgoing::Error {
                        id: CONNECTION_ERROR_ID,
                        code: code::BAD_MAGIC,
                        message: what,
                        fatal: true,
                    },
                );
                return;
            }
        };
        match header.frame_type {
            FT_HELLO => {
                if !send_outgoing(tx, Outgoing::HelloAck) {
                    return;
                }
            }
            FT_QUERY => {
                if !handle_query_frame(
                    shared,
                    stream,
                    tx,
                    state,
                    &header,
                    words_per_query,
                    &mut words,
                ) {
                    return;
                }
            }
            FT_PING => {
                if !header.is_payload_free() {
                    if !reject_liveness_payload(shared, stream, tx, &header) {
                        return;
                    }
                } else if !send_outgoing(tx, Outgoing::Pong { nonce: header.model_key }) {
                    return;
                }
            }
            FT_PONG | FT_GOAWAY => {
                // A PONG answers our grace probe; a client GOAWAY is a
                // polite leave notice. Either way the peer is alive and
                // there is nothing to answer.
                if !header.is_payload_free()
                    && !reject_liveness_payload(shared, stream, tx, &header)
                {
                    return;
                }
            }
            other if header.is_payload_free() => {
                // Unknown but header-only: the stream is still
                // synchronized, so reject recoverably (the
                // forward-compatibility contract for future frames).
                if !send_outgoing(
                    tx,
                    Outgoing::Error {
                        id: CONNECTION_ERROR_ID,
                        code: code::BAD_FRAME_TYPE,
                        message: format!("unknown header-only frame type {other} (skipped)"),
                        fatal: false,
                    },
                ) {
                    return;
                }
            }
            other => {
                // Unknown type declaring payload bytes: the stream
                // position cannot be trusted. Fatal.
                let _ = send_outgoing(
                    tx,
                    Outgoing::Error {
                        id: CONNECTION_ERROR_ID,
                        code: code::BAD_FRAME_TYPE,
                        message: format!("unknown frame type {other} with declared payload"),
                        fatal: true,
                    },
                );
                return;
            }
        }
    }
}

/// A liveness frame (PING/PONG/GOAWAY) that declared payload bytes
/// violates the header-only contract. If the declaration is within
/// limits, consume it and reject recoverably; an oversized declaration
/// is fatal exactly like a QUERY's. Returns `false` to close.
fn reject_liveness_payload(
    shared: &Arc<WireShared>,
    stream: &mut Stream,
    tx: &SyncSender<Outgoing>,
    header: &Header,
) -> bool {
    let payload_words = header.count as u64 * header.words_per_query as u64;
    if header.count > shared.config.max_frame_queries || header.words_per_query > (1 << 16) {
        let _ = send_outgoing(
            tx,
            Outgoing::Error {
                id: CONNECTION_ERROR_ID,
                code: code::OVERSIZED_FRAME,
                message: format!(
                    "liveness frame type {} declares {} x {} payload words (must be header-only)",
                    header.frame_type, header.count, header.words_per_query
                ),
                fatal: true,
            },
        );
        return false;
    }
    let idle = shared.config.idle_timeout;
    let mut bounded =
        DeadlineRead { inner: stream, deadline: idle.map(|d| Instant::now() + d + d) };
    if wire::drain(&mut bounded, payload_words * 8).is_err() {
        return false;
    }
    send_outgoing(
        tx,
        Outgoing::Error {
            id: CONNECTION_ERROR_ID,
            code: code::MALFORMED,
            message: format!(
                "liveness frame type {} must be header-only (declared payload ignored)",
                header.frame_type
            ),
            fatal: false,
        },
    )
}

/// Handles one QUERY frame; returns `false` when the connection must
/// close (fatal error or disconnect).
fn handle_query_frame(
    shared: &Arc<WireShared>,
    stream: &mut Stream,
    tx: &SyncSender<Outgoing>,
    state: &Arc<ConnState>,
    header: &Header,
    words_per_query: u32,
    words: &mut Vec<u64>,
) -> bool {
    let server = &shared.server;
    let payload_words = header.count as u64 * header.words_per_query as u64;
    let recoverable =
        |id: u64, code: u16, message: String| Outgoing::Error { id, code, message, fatal: false };
    // Declared-size sanity first: everything past this point may trust
    // `count` and `words_per_query` enough to drain the payload.
    if header.count > shared.config.max_frame_queries
        || header.words_per_query > words_per_query.max(1 << 16)
    {
        let _ = send_outgoing(
            tx,
            Outgoing::Error {
                id: CONNECTION_ERROR_ID,
                code: code::OVERSIZED_FRAME,
                message: format!(
                    "frame declares {} queries x {} words (limits: {} queries, {} words)",
                    header.count,
                    header.words_per_query,
                    shared.config.max_frame_queries,
                    words_per_query
                ),
                fatal: true,
            },
        );
        return false;
    }
    // Every payload byte from here on is read under the liveness budget:
    // the per-read socket timeout catches outright stalls, the deadline
    // bounds a dribbling peer's total hold on this frame.
    let frame_deadline = shared.config.idle_timeout.map(|d| Instant::now() + d + d);
    let mut stream = DeadlineRead { inner: stream, deadline: frame_deadline };
    // Recoverable rejections: consume the declared payload so the next
    // frame parses, answer with a typed error frame, keep going. A
    // truncated payload (peer died mid-frame) exits silently.
    let reject = |stream: &mut DeadlineRead<'_>, code: u16, message: String| -> bool {
        let first_id = match wire::read_u64(stream) {
            Ok(id) => id,
            Err(_) => return false,
        };
        if wire::drain(stream, payload_words * 8).is_err() {
            return false;
        }
        send_outgoing(tx, recoverable(first_id, code, message))
    };
    // A draining front-end accepts no further queries: consume the frame
    // and answer with GOAWAY again — the last-accepted id tells the
    // client exactly where the cut happened.
    if shared.draining.load(Ordering::Relaxed) {
        if wire::read_u64(&mut stream).is_err()
            || wire::drain(&mut stream, payload_words * 8).is_err()
        {
            return false;
        }
        state.goaway_queued.store(true, Ordering::Relaxed);
        return send_outgoing(tx, Outgoing::GoAway);
    }
    if header.model_key != 0 {
        return reject(
            &mut stream,
            code::UNKNOWN_MODEL_KEY,
            format!("model key {} unknown (this server serves key 0)", header.model_key),
        );
    }
    if header.count == 0 {
        return reject(&mut stream, code::MALFORMED, "QUERY frame declares zero queries".into());
    }
    if header.words_per_query != words_per_query {
        return reject(
            &mut stream,
            code::DIMENSION_MISMATCH,
            format!(
                "frame packs {} words per query; D = {} needs {}",
                header.words_per_query,
                server.dim(),
                words_per_query
            ),
        );
    }
    if header.k == 0 {
        return reject(&mut stream, code::BAD_K, "k must be at least 1".into());
    }
    let first_id = match wire::read_u64(&mut stream) {
        Ok(id) => id,
        Err(_) => return false,
    };
    if wire::read_words(&mut stream, payload_words as usize, words).is_err() {
        // Mid-frame disconnect: nothing was submitted for this frame;
        // earlier frames' answers still drain through the writer.
        return false;
    }
    match server.submit_packed(words, header.k as usize) {
        Ok(pendings) => {
            state.last_accepted.store(first_id + header.count as u64 - 1, Ordering::Release);
            for (i, pending) in pendings.into_iter().enumerate() {
                // Count before queueing so drain never observes a window
                // where an accepted answer is neither counted nor
                // written; undo if the writer is already gone.
                state.in_flight.fetch_add(1, Ordering::AcqRel);
                if !send_outgoing(tx, Outgoing::Answer { id: first_id + i as u64, pending }) {
                    state.in_flight.fetch_sub(1, Ordering::AcqRel);
                    return false;
                }
            }
            true
        }
        Err(e @ ServeError::Shutdown) => {
            let _ = send_outgoing(
                tx,
                Outgoing::Error {
                    id: first_id,
                    code: code::SHUTDOWN,
                    message: e.to_string(),
                    fatal: true,
                },
            );
            false
        }
        Err(e) => send_outgoing(tx, recoverable(first_id, serve_error_code(&e), e.to_string())),
    }
}

/// Per-connection writer loop: redeems pendings in FIFO order and
/// streams frames back. The `BufWriter` is flushed whenever the queue
/// goes momentarily empty and before blocking on an answer that is not
/// ready, so each micro-batch flush leaves as one syscall burst without
/// waiting for the connection to go idle or for a later flush.
///
/// The connection's `in_flight` gauge (what [`WireServer::drain`] waits
/// on) is decremented only after the answers actually reach the socket —
/// a flush, not just a buffered write — so drain can never close a
/// socket under answers still sitting in the `BufWriter`.
fn connection_writer(
    shared: &Arc<WireShared>,
    stream: &Arc<Stream>,
    rx: &Receiver<Outgoing>,
    state: &Arc<ConnState>,
) {
    let Ok(write_stream) = stream.try_clone() else {
        // No write half: nothing will ever be written; release the
        // gauge for anything the reader queues until it notices.
        for msg in rx.iter() {
            if let Outgoing::Answer { .. } = msg {
                state.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
        return;
    };
    let mut out = BufWriter::new(write_stream);
    // Answers written into the BufWriter but not yet flushed to the
    // socket; settled against `state.in_flight` at each flush.
    let mut unflushed: u64 = 0;
    let settle = |state: &ConnState, unflushed: &mut u64| {
        if *unflushed > 0 {
            state.in_flight.fetch_sub(*unflushed, Ordering::AcqRel);
            *unflushed = 0;
        }
    };
    // On any terminal path, release the gauge for everything queued but
    // never written, so drain is not held hostage by a dead peer.
    let abandon = |state: &ConnState, unflushed: u64, rx: &Receiver<Outgoing>| {
        let mut orphaned = unflushed;
        for msg in rx.iter() {
            if let Outgoing::Answer { .. } = msg {
                orphaned += 1;
            }
        }
        if orphaned > 0 {
            state.in_flight.fetch_sub(orphaned, Ordering::AcqRel);
        }
    };
    loop {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(mpsc::TryRecvError::Empty) => {
                if out.flush().is_err() {
                    abandon(state, unflushed, rx);
                    return;
                }
                settle(state, &mut unflushed);
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break, // reader closed the channel
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
        let io = match msg {
            Outgoing::HelloAck => {
                let server = &shared.server;
                let clamp = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
                let snapshot = server.registry().snapshot();
                wire::write_hello_ack(
                    &mut out,
                    FLAG_LIVENESS,
                    clamp(server.dim()),
                    clamp(snapshot.model().rows()),
                    snapshot.id(),
                )
            }
            Outgoing::Answer { id, pending } => {
                // Everything buffered so far is complete: put it on the
                // socket before blocking on an answer that is not, so an
                // earlier flush's answers never wait on a later one.
                if !pending.is_ready() {
                    if out.flush().is_err() {
                        abandon(state, unflushed + 1, rx);
                        return;
                    }
                    settle(state, &mut unflushed);
                }
                let res = match pending.wait() {
                    Ok(hits) => wire::write_response(&mut out, id, &hits),
                    Err(e) => wire::write_error(&mut out, id, serve_error_code(&e), &e.to_string()),
                };
                // Released at the next flush, or by `abandon` if the
                // write failed.
                unflushed += 1;
                res
            }
            Outgoing::Ping { nonce } => wire::write_ping(&mut out, nonce),
            Outgoing::Pong { nonce } => wire::write_pong(&mut out, nonce),
            Outgoing::GoAway => {
                wire::write_goaway(&mut out, state.last_accepted.load(Ordering::Acquire))
            }
            Outgoing::Error { id, code, message, fatal } => {
                let res = wire::write_error(&mut out, id, code, &message);
                if fatal {
                    if res.and_then(|()| out.flush()).is_ok() {
                        settle(state, &mut unflushed);
                    }
                    abandon(state, unflushed, rx);
                    return;
                }
                res
            }
        };
        if io.is_err() {
            // The peer stopped reading; drain remaining messages without
            // writing so blocked reader sends unblock, then exit. The
            // queries themselves are still answered server-side.
            abandon(state, unflushed, rx);
            return;
        }
    }
    if out.flush().is_ok() {
        settle(state, &mut unflushed);
    } else if unflushed > 0 {
        state.in_flight.fetch_sub(unflushed, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Searchable, ServeConfig};
    use hd_linalg::BitVector;
    use std::time::Duration;

    fn tiny_server() -> Arc<Server> {
        let rows: Vec<BitVector> = (0..8)
            .map(|i| BitVector::from_bools(&(0..64).map(|b| (b + i) % 3 == 0).collect::<Vec<_>>()))
            .collect();
        let memory = hd_linalg::SearchMemory::from_rows(&rows).unwrap();
        Arc::new(
            Server::start(
                Arc::new(memory) as Arc<dyn Searchable>,
                ServeConfig {
                    max_batch: 4,
                    max_delay: Duration::from_micros(100),
                    ..Default::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn config_rejects_zero_limits() {
        let server = tiny_server();
        for config in [
            WireConfig { max_frame_queries: 0, ..Default::default() },
            WireConfig { conn_in_flight: 0, ..Default::default() },
        ] {
            assert!(matches!(
                WireServer::start(Arc::clone(&server), config),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_listeners() {
        let wire = WireServer::start(tiny_server(), WireConfig::default()).unwrap();
        let addr = wire.listen_tcp("127.0.0.1:0").unwrap();
        assert_ne!(addr.port(), 0);
        wire.shutdown();
        wire.shutdown();
        assert!(matches!(wire.listen_tcp("127.0.0.1:0"), Err(ServeError::Shutdown)));
        assert_eq!(wire.connections(), 0);
    }

    #[test]
    fn serve_error_codes_cover_the_wire_variants() {
        assert_eq!(
            serve_error_code(&ServeError::DimensionMismatch { expected: 1, found: 2 }),
            code::DIMENSION_MISMATCH
        );
        assert_eq!(
            serve_error_code(&ServeError::MalformedPayload { reason: String::new() }),
            code::MALFORMED
        );
        assert_eq!(serve_error_code(&ServeError::Overloaded), code::OVERLOADED);
        assert_eq!(serve_error_code(&ServeError::Shutdown), code::SHUTDOWN);
        assert_eq!(serve_error_code(&ServeError::Model { reason: String::new() }), code::MODEL);
    }
}

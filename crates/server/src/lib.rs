//! # tempora-server — the long-running solver service
//!
//! `tempora-serve` turns the prepared-statement lifecycle
//! (`Problem → Plan → run`) into a service: plans are compiled once,
//! interned in a sharded concurrent [`PlanCache`], and reused clone-free
//! across every connection that asks for the same canonical
//! [`JobSpec`](tempora_proto::JobSpec). The paper's economics — pay the
//! temporal-reorg/plan cost once, stream steady-state steps at SIMD
//! speed — applied across requests instead of within one process run.
//!
//! The network layer is a thread-per-connection loop over TCP and/or
//! Unix sockets speaking the [`tempora_proto`] length-prefixed frames,
//! hardened for the long-running deployment regime:
//!
//! - **Graceful drain** — every connection is registered in a
//!   registry slot; [`Server::shutdown`] stops accepting, lets
//!   in-flight replies flush, sends each live connection a final
//!   [`ErrorCode::GoingAway`], force-closes stragglers at the deadline
//!   and **joins** every connection thread (nothing is detached). The
//!   [`DrainReport`] says how clean the exit was.
//! - **Deadlines** — sockets carry read/write timeouts; the read loop
//!   polls through [`FrameAccum`] so an idle peer is reaped after
//!   [`ResilienceConfig::idle_timeout`] and a half-frame slow-loris is
//!   cut with [`ErrorCode::DeadlineExceeded`] after
//!   [`ResilienceConfig::stall_timeout`].
//! - **Admission control** — at most
//!   [`ResilienceConfig::max_connections`] live connections; excess
//!   accepts are answered [`ErrorCode::Busy`] (with a retry hint) and
//!   closed, and a cache entry with its bound of requests already
//!   holding or waiting for its plan sheds with `Busy` instead of
//!   queueing unbounded work.
//!
//! All of it is counted in [`StatsSnapshot`] via [`Server::stats`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod fill;

pub use cache::{CacheConfig, PlanCache, StatsSnapshot};
pub use fill::fresh_state;
#[doc(hidden)]
pub use fill::fresh_state_spec;

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempora_failpoint::failpoint;
use tempora_plan::PlanError;
use tempora_proto::{write_frame, DecodeError, ErrorCode, Frame, FrameAccum, FramePoll, WireError};

/// Why the server could not answer a request with a `ReportReply`.
#[derive(Debug)]
pub enum ServeError {
    /// `PlanBuilder::build` rejected the spec.
    Build(PlanError),
    /// `Plan::run` (or a pre-run check) failed without poisoning.
    Run(PlanError),
    /// The run panicked and poisoned the cached plan; the payload is the
    /// captured panic message. The entry recovers on the next request.
    Poisoned(String),
    /// The work was shed before it was accepted (queue depth bound);
    /// retry after the hinted backoff.
    Busy {
        /// Suggested minimum client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// An internal invariant failed.
    Internal(&'static str),
}

impl ServeError {
    /// The wire-level error category for this failure.
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::Build(_) => ErrorCode::BuildFailed,
            ServeError::Run(_) => ErrorCode::RunFailed,
            ServeError::Poisoned(_) => ErrorCode::Poisoned,
            ServeError::Busy { retry_after_ms } => ErrorCode::Busy {
                retry_after_ms: *retry_after_ms,
            },
            ServeError::Internal(_) => ErrorCode::Internal,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Build(e) => write!(f, "plan build failed: {e}"),
            ServeError::Run(e) => write!(f, "plan run failed: {e}"),
            ServeError::Poisoned(p) => write!(f, "cached plan poisoned by panic: {p}"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "server busy, retry after {retry_after_ms}ms")
            }
            ServeError::Internal(m) => write!(f, "internal server error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Overload and slow-peer defense knobs. The defaults suit a local
/// service under test harness load; production deployments tune them.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Maximum simultaneously live connections; accepts beyond this are
    /// answered [`ErrorCode::Busy`] and closed. `0` means unlimited.
    pub max_connections: usize,
    /// Socket read-poll tick: how often a blocked connection thread
    /// wakes to check the drain flag and its idle/stall budgets. Also
    /// the grace window for late requests after the drain farewell.
    pub poll_tick: Duration,
    /// How long a connection may sit at a frame boundary with no bytes
    /// of a next request before it is reaped.
    pub idle_timeout: Duration,
    /// How long a half-received frame may stall before the peer is
    /// declared slow-loris and cut with [`ErrorCode::DeadlineExceeded`].
    pub stall_timeout: Duration,
    /// Socket write timeout — bounds how long a reply flush may block on
    /// a peer that stopped reading.
    pub write_timeout: Duration,
    /// The `retry_after_ms` hint carried by admission-control `Busy`
    /// replies.
    pub retry_after_ms: u32,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_connections: 256,
            poll_tick: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(60),
            stall_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            retry_after_ms: 25,
        }
    }
}

/// Server shape: where to listen, cache shape, resilience knobs.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// TCP bind address (e.g. `127.0.0.1:0` for an ephemeral port).
    pub tcp: Option<String>,
    /// Unix-socket path. A *stale* socket file (no listener behind it)
    /// is reclaimed; a live one fails the bind with `AddrInUse`.
    pub uds: Option<PathBuf>,
    /// Plan-cache shape.
    pub cache: CacheConfig,
    /// Overload and slow-peer defense.
    pub resilience: ResilienceConfig,
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainReport {
    /// Connections that exited on their own within the deadline.
    pub drained: usize,
    /// Connections force-closed when the deadline expired.
    pub forced: usize,
    /// True when every connection drained without force-closing.
    pub clean: bool,
    /// Wall-clock time the drain took (including the final joins).
    pub elapsed: Duration,
}

/// Network-layer counters (all `Relaxed`: statistics, never used to
/// order memory accesses).
#[derive(Debug, Default)]
struct NetStats {
    conns_opened: AtomicU64,
    conns_rejected: AtomicU64,
    deadline_closes: AtomicU64,
    idle_closes: AtomicU64,
    going_away: AtomicU64,
}

/// One live connection's socket, force-closable from the registry.
enum RawStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-socket connection.
    Uds(UnixStream),
}

impl RawStream {
    fn try_clone(&self) -> std::io::Result<RawStream> {
        Ok(match self {
            RawStream::Tcp(s) => RawStream::Tcp(s.try_clone()?),
            RawStream::Uds(s) => RawStream::Uds(s.try_clone()?),
        })
    }

    fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()> {
        match self {
            RawStream::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            RawStream::Uds(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
        }
    }

    /// Tear the socket down in both directions, waking any thread
    /// blocked on it. Errors are ignored: the peer may already be gone.
    fn force_close(&self) {
        match self {
            RawStream::Tcp(s) => drop(s.shutdown(Shutdown::Both)),
            RawStream::Uds(s) => drop(s.shutdown(Shutdown::Both)),
        }
    }
}

impl Read for RawStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            RawStream::Tcp(s) => s.read(buf),
            RawStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for RawStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            RawStream::Tcp(s) => s.write(buf),
            RawStream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            RawStream::Tcp(s) => s.flush(),
            RawStream::Uds(s) => s.flush(),
        }
    }
}

/// Per-connection slot shared between the connection thread and the
/// registry (for drain observation and force-close).
struct ConnShared {
    /// A clone of the connection's socket, used only to force-close.
    stream: RawStream,
    /// Set by the connection thread on every exit path (incl. panic).
    done: AtomicBool,
}

struct ConnEntry {
    shared: Arc<ConnShared>,
    handle: JoinHandle<()>,
}

/// The connection registry: one slot per live connection plus the
/// drain flag every connection thread polls.
struct Registry {
    draining: AtomicBool,
    live: AtomicUsize,
    next_id: AtomicU64,
    conns: Mutex<Vec<ConnEntry>>,
    stats: NetStats,
}

/// Lock a std mutex, continuing through lock poisoning: the registry's
/// vec stays consistent even if a holder panicked mid-push.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    fn new() -> Registry {
        Registry {
            draining: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
            stats: NetStats::default(),
        }
    }

    /// Join and drop every entry whose thread already finished. Called
    /// from the accept loops so the registry stays bounded by the number
    /// of concurrent connections.
    fn reap_finished(&self) {
        let finished: Vec<ConnEntry> = {
            let mut conns = lock(&self.conns);
            let mut rest = Vec::with_capacity(conns.len());
            let mut finished = Vec::new();
            for entry in conns.drain(..) {
                // Acquire: pairs with the Release in ConnGuard::drop so a
                // `done` observation also sees the thread's final writes.
                if entry.shared.done.load(Ordering::Acquire) {
                    finished.push(entry);
                } else {
                    rest.push(entry);
                }
            }
            *conns = rest;
            finished
        };
        for entry in finished {
            // The thread has already set `done`; join returns promptly.
            let _ = entry.handle.join();
        }
    }
}

/// Ensures the registry sees the connection as finished on every exit
/// path of its thread, including panics (an injected `conn_frame` panic
/// *is* the "connection dropped mid-stream" fault).
struct ConnGuard {
    registry: Arc<Registry>,
    shared: Arc<ConnShared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // The registry holds a clone of this connection's socket, so the
        // thread's own fd closing is not peer-visible; shut the socket
        // down explicitly so the client sees EOF on every exit path
        // (including a panicking one).
        self.shared.stream.force_close();
        // Release: pairs with the Acquire loads in `reap_finished` and
        // the drain wait loop — whoever sees `done == true` also sees
        // everything this thread wrote before exiting.
        self.shared.done.store(true, Ordering::Release);
        // Ordering: Relaxed — `live` is an admission-control estimate;
        // the gate tolerates momentary over/undershoot by one.
        self.registry.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running server: accept loops and connection threads live on
/// background threads until [`Server::shutdown`] drains and joins them.
/// Dropping an un-shut-down server performs a best-effort teardown (stop
/// accepting, force-close connections, remove the socket file) but only
/// joins the acceptors — call `shutdown` for the guaranteed-join drain.
pub struct Server {
    cache: Arc<PlanCache>,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
    acceptors: Vec<JoinHandle<()>>,
    torn_down: bool,
}

/// Reclaim `path` only if no live server answers it: a successful probe
/// connect means the address is genuinely in use and binding must fail;
/// a refused connect means the file is a stale leftover and is removed.
fn reclaim_stale_uds(path: &std::path::Path) -> std::io::Result<()> {
    match UnixStream::connect(path) {
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!("{} is served by a live listener", path.display()),
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        // Connection refused (or any other probe failure): nobody is
        // accepting behind the file, so it is stale and safe to remove.
        Err(_) => std::fs::remove_file(path),
    }
}

impl Server {
    /// Bind the configured listeners and start accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let cache = Arc::new(PlanCache::new(config.cache));
        let registry = Arc::new(Registry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let resilience = config.resilience;
        let mut acceptors = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            tcp_addr = Some(listener.local_addr()?);
            let cache = Arc::clone(&cache);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(TcpIncoming(listener), cache, registry, stop, resilience)
            }));
        }
        let mut uds_path = None;
        if let Some(path) = &config.uds {
            reclaim_stale_uds(path)?;
            let listener = UnixListener::bind(path)?;
            uds_path = Some(path.clone());
            let cache = Arc::clone(&cache);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(UdsIncoming(listener), cache, registry, stop, resilience)
            }));
        }
        Ok(Server {
            cache,
            registry,
            stop,
            tcp_addr,
            uds_path,
            acceptors,
            torn_down: false,
        })
    }

    /// The bound TCP address (with the resolved ephemeral port), if TCP
    /// was configured.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The shared plan cache (for in-process inspection in tests and
    /// the bench harness).
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Cache counters plus the network-layer counters (connections
    /// opened/rejected, deadline and idle closes, `GoingAway` farewells).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = self.cache.stats();
        // Relaxed throughout: statistics reads, no ordering required.
        s.conns_opened = self.registry.stats.conns_opened.load(Ordering::Relaxed);
        // Relaxed: statistic.
        s.conns_rejected = self.registry.stats.conns_rejected.load(Ordering::Relaxed);
        // Relaxed: statistic.
        s.deadline_closes = self.registry.stats.deadline_closes.load(Ordering::Relaxed);
        // Relaxed: statistic.
        s.idle_closes = self.registry.stats.idle_closes.load(Ordering::Relaxed);
        // Relaxed: statistic.
        s.going_away = self.registry.stats.going_away.load(Ordering::Relaxed);
        s
    }

    /// Currently live connections (admission-control view).
    #[must_use]
    pub fn live_connections(&self) -> usize {
        // Relaxed: an estimate is all callers need.
        self.registry.live.load(Ordering::Relaxed)
    }

    /// Gracefully drain and stop the server.
    ///
    /// Stops accepting, raises the drain flag (every connection answers
    /// its next wakeup with a final [`ErrorCode::GoingAway`] and closes,
    /// after flushing any in-flight reply), waits up to `deadline` for
    /// connections to exit on their own, force-closes the stragglers'
    /// sockets, and then **joins every connection thread** — when this
    /// returns, no thread of this server is left running.
    pub fn shutdown(mut self, deadline: Duration) -> DrainReport {
        self.teardown(Some(deadline))
    }

    /// Shared teardown. `drain: Some(deadline)` is the graceful path
    /// (wait + join everything); `None` is the best-effort `Drop` path
    /// (stop accepting, force-close, join only the acceptors — never
    /// block a destructor on a long-running solver step).
    fn teardown(&mut self, drain: Option<Duration>) -> DrainReport {
        if self.torn_down {
            return DrainReport::default();
        }
        self.torn_down = true;
        let start = Instant::now();
        // Release: pairs with the Acquire in the accept loops so a loop
        // woken by the poke below observes the flag.
        self.stop.store(true, Ordering::Release);
        // Release: pairs with the Acquire polls in connection threads —
        // a thread observing `draining` also observes a fully-built
        // registry.
        self.registry.draining.store(true, Ordering::Release);
        // Poke each listener so its blocking accept() returns.
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.uds_path {
            let _ = UnixStream::connect(path);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        // Wait for connections to drain on their own.
        let deadline_at = start + drain.unwrap_or(Duration::ZERO);
        loop {
            let all_done = lock(&self.registry.conns)
                .iter()
                // Acquire: pairs with the Release in ConnGuard::drop.
                .all(|e| e.shared.done.load(Ordering::Acquire));
            if all_done || Instant::now() >= deadline_at {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Force-close stragglers and take ownership of every entry.
        let entries: Vec<ConnEntry> = lock(&self.registry.conns).drain(..).collect();
        let mut report = DrainReport::default();
        for entry in &entries {
            // Acquire: pairs with the Release in ConnGuard::drop.
            if entry.shared.done.load(Ordering::Acquire) {
                report.drained += 1;
            } else {
                report.forced += 1;
                entry.shared.stream.force_close();
            }
        }
        report.clean = report.forced == 0;
        if drain.is_some() {
            // The graceful path joins everyone: force-closed sockets make
            // blocked reads/writes fail, so each thread exits as soon as
            // its current solver step (if any) completes.
            for entry in entries {
                let _ = entry.handle.join();
            }
        }
        // Remove the socket file last, so a restarting instance's
        // stale-probe never races our own listener teardown.
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        report.elapsed = start.elapsed();
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort teardown for servers dropped without `shutdown`:
        // stop accepting, poke and join the acceptors, force-close every
        // connection (their threads exit promptly on the dead socket,
        // but are not joined — a destructor must not block on a solver
        // step), and remove the Unix-socket file.
        let _ = self.teardown(None);
    }
}

/// Accept-source abstraction so TCP and UDS share one accept loop.
trait Incoming {
    fn accept_one(&self) -> std::io::Result<RawStream>;
}

struct TcpIncoming(TcpListener);

impl Incoming for TcpIncoming {
    fn accept_one(&self) -> std::io::Result<RawStream> {
        let (stream, _) = self.0.accept()?;
        stream.set_nodelay(true)?;
        Ok(RawStream::Tcp(stream))
    }
}

struct UdsIncoming(UnixListener);

impl Incoming for UdsIncoming {
    fn accept_one(&self) -> std::io::Result<RawStream> {
        Ok(RawStream::Uds(self.0.accept()?.0))
    }
}

fn accept_loop(
    listener: impl Incoming,
    cache: Arc<PlanCache>,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    cfg: ResilienceConfig,
) {
    loop {
        let stream = listener.accept_one();
        // Acquire: pairs with the Release store in `teardown`.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        registry.reap_finished();
        if stream
            .set_timeouts(cfg.poll_tick, cfg.write_timeout)
            .is_err()
        {
            continue;
        }
        // Admission control: beyond the connection cap, answer Busy with
        // a retry hint and close instead of spawning a thread.
        // Relaxed: the gate tolerates off-by-one racing with ConnGuard.
        if cfg.max_connections > 0 && registry.live.load(Ordering::Relaxed) >= cfg.max_connections {
            registry
                .stats
                .conns_rejected
                // Relaxed: statistic.
                .fetch_add(1, Ordering::Relaxed);
            let mut w = BufWriter::new(stream);
            let _ = write_frame(
                &mut w,
                &Frame::ErrorReply {
                    request_id: 0,
                    code: ErrorCode::Busy {
                        retry_after_ms: cfg.retry_after_ms,
                    },
                    message: "connection limit reached".into(),
                },
            );
            continue;
        }
        // Relaxed: see above — estimate, not a synchronization point.
        registry.live.fetch_add(1, Ordering::Relaxed);
        // Relaxed: statistic.
        registry.stats.conns_opened.fetch_add(1, Ordering::Relaxed);
        // Relaxed: a unique id is all that is needed, not ordering.
        let conn_id = registry.next_id.fetch_add(1, Ordering::Relaxed);
        let Ok(for_registry) = stream.try_clone() else {
            // Relaxed: undo of the estimate above.
            registry.live.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        let shared = Arc::new(ConnShared {
            stream: for_registry,
            done: AtomicBool::new(false),
        });
        let cache = Arc::clone(&cache);
        let thread_registry = Arc::clone(&registry);
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let _guard = ConnGuard {
                registry: Arc::clone(&thread_registry),
                shared: thread_shared,
            };
            failpoint!("conn_accept", conn_id);
            serve_connection(stream, conn_id, &cache, &thread_registry, &cfg);
        });
        lock(&registry.conns).push(ConnEntry { shared, handle });
    }
}

/// One connection's request→reply loop with the resilience rules.
///
/// Recoverable decode failures (truncated body, unknown version/tag,
/// malformed payload — the body was fully consumed, the stream is in
/// sync) answer an `ErrorReply` and keep serving; I/O errors, oversized
/// length prefixes, idle/stall deadline hits and the drain flag close.
fn serve_connection(
    stream: RawStream,
    conn_id: u64,
    cache: &PlanCache,
    registry: &Registry,
    cfg: &ResilienceConfig,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut accum = FrameAccum::new();
    let mut idle_since = Instant::now();
    let mut stall_since: Option<Instant> = None;
    loop {
        // Acquire: pairs with the Release store in `teardown`.
        if registry.draining.load(Ordering::Acquire) {
            drain_farewell(&mut reader, &mut writer, &mut accum, registry, cfg);
            return;
        }
        match accum.poll(&mut reader) {
            Ok(FramePoll::Frame(frame)) => {
                stall_since = None;
                failpoint!("conn_frame", conn_id);
                let reply = dispatch(frame, cache);
                failpoint!("conn_reply", conn_id);
                if write_frame(&mut writer, &reply).is_err() {
                    return;
                }
                idle_since = Instant::now();
            }
            Ok(FramePoll::Eof) => return,
            Ok(FramePoll::Pending { mid_frame }) => {
                if mid_frame {
                    let started = *stall_since.get_or_insert_with(Instant::now);
                    if started.elapsed() >= cfg.stall_timeout {
                        // Slow-loris: a half-frame sat past the stall
                        // budget. The stream cannot be resynchronized —
                        // best-effort typed goodbye, then close (which
                        // releases this thread).
                        registry
                            .stats
                            .deadline_closes
                            // Relaxed: statistic.
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = write_frame(
                            &mut writer,
                            &Frame::ErrorReply {
                                request_id: 0,
                                code: ErrorCode::DeadlineExceeded,
                                message: "frame stalled past the read deadline".into(),
                            },
                        );
                        return;
                    }
                } else {
                    stall_since = None;
                    if idle_since.elapsed() >= cfg.idle_timeout {
                        // Relaxed: statistic.
                        registry.stats.idle_closes.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            Err(err) => {
                if err.recoverable() {
                    let code = match &err {
                        WireError::Decode(DecodeError::UnknownVersion { .. }) => {
                            ErrorCode::UnsupportedVersion
                        }
                        _ => ErrorCode::BadFrame,
                    };
                    let reply = Frame::ErrorReply {
                        request_id: 0,
                        code,
                        message: err.to_string(),
                    };
                    if write_frame(&mut writer, &reply).is_err() {
                        return;
                    }
                    idle_since = Instant::now();
                    continue;
                }
                return;
            }
        }
    }
}

/// The drain-window endgame for one connection: flush a final
/// uncorrelated [`ErrorCode::GoingAway`], then grant one poll tick of
/// grace in which a late request (already in flight when the farewell
/// was sent) is answered `GoingAway` *with its own id*, and close.
fn drain_farewell(
    reader: &mut impl Read,
    writer: &mut impl Write,
    accum: &mut FrameAccum,
    registry: &Registry,
    cfg: &ResilienceConfig,
) {
    // Relaxed: statistic.
    registry.stats.going_away.fetch_add(1, Ordering::Relaxed);
    let farewell = Frame::ErrorReply {
        request_id: 0,
        code: ErrorCode::GoingAway,
        message: "server draining for shutdown".into(),
    };
    if write_frame(writer, &farewell).is_err() {
        return;
    }
    // One grace tick: a request that raced the farewell still gets a
    // correlated GoingAway instead of a dead socket.
    let grace_until = Instant::now() + cfg.poll_tick;
    loop {
        match accum.poll(reader) {
            Ok(FramePoll::Frame(frame)) => {
                let _ = write_frame(
                    writer,
                    &Frame::ErrorReply {
                        request_id: frame.request_id(),
                        code: ErrorCode::GoingAway,
                        message: "server draining for shutdown".into(),
                    },
                );
                return;
            }
            Ok(FramePoll::Pending { .. }) if Instant::now() < grace_until => continue,
            _ => return,
        }
    }
}

/// Answer one decoded request frame.
fn dispatch(frame: Frame, cache: &PlanCache) -> Frame {
    match frame {
        Frame::SubmitProblem { request_id, spec } => match cache.prepare(&spec) {
            Ok(reply) => Frame::ReportReply { request_id, reply },
            Err(e) => Frame::ErrorReply {
                request_id,
                code: e.code(),
                message: e.to_string(),
            },
        },
        Frame::RunSteps {
            request_id,
            spec,
            seed,
        } => match cache.run(&spec, seed) {
            Ok(reply) => Frame::ReportReply { request_id, reply },
            Err(e) => Frame::ErrorReply {
                request_id,
                code: e.code(),
                message: e.to_string(),
            },
        },
        // Reply frames arriving at the server are a client bug.
        Frame::ReportReply { request_id, .. } | Frame::ErrorReply { request_id, .. } => {
            Frame::ErrorReply {
                request_id,
                code: ErrorCode::BadFrame,
                message: "reply frame sent to server".into(),
            }
        }
    }
}

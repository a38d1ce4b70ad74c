//! The `sosd` server: a TCP accept loop multiplexing protocol clients
//! and HTTP scrapers onto one shared [`SweepExecutor`].
//!
//! Ownership: the server owns one executor for its whole lifetime —
//! a warm, content-addressed result memory over the process-wide
//! worker pool (or a private pool when
//! [`ServerOptions::threads`] pins the count). Each accepted
//! connection gets a reader thread; execution itself is serialized on
//! the executor mutex, and every run uses the *full* pool, so requests
//! queue rather than fight over cores. Identical concurrent requests
//! collapse into one execution through the executor's fingerprint
//! memory.
//!
//! Overload: the executor queue is *bounded*
//! ([`ServerOptions::queue_depth`]). A `simulate`/`sweep` request that
//! arrives when the queue is full is shed immediately with a `busy`
//! error carrying a `retry_after_ms` hint, instead of silently pinning
//! a reader thread on the mutex. Requests may also carry a
//! `deadline_ms` budget: an expired deadline is answered with
//! `deadline-exceeded` rather than computed; a `sweep` under deadline
//! executes point by point and stops cooperatively between points,
//! with every completed point already durable in the cache journal.
//!
//! Failure: a panic inside the executor fails only the request that
//! triggered it (`internal`); the poisoned lock is detected on the
//! next access and the executor is rebuilt from the persisted cache
//! file, so one bad request cannot corrupt the daemon's warm state.
//!
//! Observability: every protocol request gets a monotonic
//! `request_id` (echoed in the response along with a `timing`
//! breakdown computed from telemetry snapshot deltas bracketing the
//! request), and doubles it as the trace id of a request-scoped span
//! tree — admission, executor-lock wait, cache probes, sweep points,
//! pool batches — kept in `sos_observe::trace`'s bounded flight
//! recorder and served as Chrome trace-event JSON at
//! `GET /debug/trace` (or the `trace` op). Requests slower than
//! [`ServerOptions::slow_ms`] are counted and logged as structured
//! JSONL; anomalies (internal errors, shedding, executor rebuilds,
//! shutdown drain) dump the recorder's recent spans to the same sink.
//!
//! Shutdown: a `shutdown` request (there is no portable stdlib signal
//! handling) flips a flag and wakes the accept loop; the server stops
//! accepting, drains in-flight connections, persists the sweep cache,
//! and [`Server::run`] returns a [`ServerReport`].

use crate::protocol::{
    self, ErrorCode, Request, Response, WireError, HTTP_GET_PREFIX, PROTOCOL_VERSION,
};
use crate::spec::{analyze_doc, analyze_outcome};
use serde_json::Value;
use sos_observe::telemetry::{self, PhaseKind, TelemetrySnapshot};
use sos_observe::trace;
use sos_sim::SweepExecutor;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a connection may sit idle between requests during normal
/// operation: forever. The read loop polls at this interval only to
/// notice the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Deadline for finishing a frame or HTTP head once its first byte has
/// arrived — a stalled peer must not pin a reader thread forever.
const FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// Default [`ServerOptions::queue_depth`].
const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Per-queued-request slice behind a `busy` error's `retry_after_ms`
/// hint: a shed client is told to come back after roughly this long
/// per request ahead of it.
const RETRY_AFTER_SLICE_MS: u64 = 100;

/// Ceiling for the `retry_after_ms` hint.
const RETRY_AFTER_MAX_MS: u64 = 5_000;

/// Most recent spans included in a flight-recorder anomaly dump.
const ANOMALY_DUMP_SPANS: usize = 64;

/// Floor between two flight-recorder anomaly dumps: a shed storm or a
/// rebuild loop must not turn the slow log into a span firehose.
const ANOMALY_DUMP_INTERVAL: Duration = Duration::from_secs(1);

/// Construction-time knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads for a *private* pool; `None` shares the
    /// process-global pool (sized by `sos_sim::num_threads`).
    pub threads: Option<usize>,
    /// Persistent sweep-cache file: loaded at bind (warm start),
    /// compacted on shutdown. A request's executed points are
    /// journaled with one fsync before it is answered; a `sweep` with
    /// a deadline fsyncs after each point it executes.
    pub cache: Option<PathBuf>,
    /// Admission bound for `simulate`/`sweep`: at most this many such
    /// requests may be executing or waiting on the executor at once;
    /// the rest are shed with `busy` + `retry_after_ms`. `0` sheds
    /// every executor request (useful for drills and tests).
    pub queue_depth: usize,
    /// Slow-request threshold, in milliseconds of total service time:
    /// a protocol request at or over it bumps
    /// `sos_serve_slow_requests_total` and writes one structured JSONL
    /// line (request id, op, timing breakdown) to the slow log.
    /// `None` disables slow-request logging.
    pub slow_ms: Option<u64>,
    /// File receiving slow-request lines and flight-recorder anomaly
    /// dumps (created/appended); `None` sends them to stderr.
    pub slow_log: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            threads: None,
            cache: None,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            slow_ms: None,
            slow_log: None,
        }
    }
}

/// What a drained server did with its life; returned by
/// [`Server::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerReport {
    /// Connections accepted (protocol and HTTP alike).
    pub connections: u64,
    /// Protocol requests answered (including error responses).
    pub requests: u64,
    /// HTTP requests answered (`/metrics`, `/healthz`, 404s).
    pub http_requests: u64,
    /// Error responses among `requests`.
    pub errors: u64,
    /// Results held in the executor memory at shutdown (persisted to
    /// the cache file when one is attached).
    pub cached_points: u64,
}

/// Counters and flags shared by the accept loop and every connection
/// thread.
struct Shared {
    exec: Mutex<SweepExecutor>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    http_requests: AtomicU64,
    errors: AtomicU64,
    /// Admitted executor requests (executing + waiting on the mutex).
    in_flight: AtomicU64,
    /// Admission bound ([`ServerOptions::queue_depth`]).
    queue_depth: usize,
    /// Private-pool thread count, kept so a poisoned executor can be
    /// rebuilt with the same shape it was bound with.
    threads: Option<usize>,
    /// Cache file, kept for executor rebuilds after poisoning.
    cache_path: Option<PathBuf>,
    /// Monotonic protocol request ids; each doubles as the trace id
    /// every span of that request carries.
    request_ids: AtomicU64,
    /// Slow-request threshold ([`ServerOptions::slow_ms`]).
    slow_ms: Option<u64>,
    /// Slow-log / anomaly-dump sink ([`ServerOptions::slow_log`]);
    /// stderr when `None`.
    slow_log: Option<PathBuf>,
    /// Nanoseconds (since `started`) of the last anomaly dump, for
    /// [`ANOMALY_DUMP_INTERVAL`] throttling; 0 = never.
    last_dump_ns: AtomicU64,
    started: Instant,
    addr: SocketAddr,
}

impl Shared {
    fn new(exec: SweepExecutor, opts: &ServerOptions, addr: SocketAddr) -> Shared {
        Shared {
            exec: Mutex::new(exec),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queue_depth: opts.queue_depth,
            threads: opts.threads,
            cache_path: opts.cache.clone(),
            request_ids: AtomicU64::new(0),
            slow_ms: opts.slow_ms,
            slow_log: opts.slow_log.clone(),
            last_dump_ns: AtomicU64::new(0),
            started: Instant::now(),
            addr,
        }
    }
}

/// RAII slot in the bounded executor queue; dropping it releases the
/// slot (including on panic unwind, so a crashed request can never
/// leak queue capacity).
struct AdmissionPermit<'a> {
    shared: &'a Shared,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("in_flight", &self.shared.in_flight.load(Ordering::SeqCst))
            .finish()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claims a queue slot for one executor request, or sheds the request
/// with `busy` + `retry_after_ms` when the queue is full.
fn try_admit(shared: &Shared) -> Result<AdmissionPermit<'_>, WireError> {
    let mut current = shared.in_flight.load(Ordering::SeqCst);
    loop {
        if current >= shared.queue_depth as u64 {
            telemetry::serve_shed();
            anomaly_dump(shared, "shed");
            let retry_after = RETRY_AFTER_SLICE_MS
                .saturating_mul(current.max(1))
                .min(RETRY_AFTER_MAX_MS);
            return Err(WireError::busy(
                format!(
                    "executor queue full ({current} in flight, depth {})",
                    shared.queue_depth
                ),
                retry_after,
            ));
        }
        match shared.in_flight.compare_exchange(
            current,
            current + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Ok(AdmissionPermit { shared }),
            Err(observed) => current = observed,
        }
    }
}

/// A bound, not-yet-running `sosd` server. See the crate docs for an
/// end-to-end example.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    cache_loaded: usize,
}

impl Server {
    /// Binds the listener and prepares the executor (loading the cache
    /// file when [`ServerOptions::cache`] is set). Bind to port 0 for
    /// an ephemeral port, then read it back with [`local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures and cache-file I/O errors. A corrupt
    /// cache is *not* an error: `SweepExecutor::attach_cache`
    /// quarantines the damaged file to `<path>.corrupt` and starts
    /// cold (journal-recovered entries are counted in telemetry as
    /// `sos_serve_recovered_entries`).
    ///
    /// [`local_addr`]: Server::local_addr
    pub fn bind(addr: impl ToSocketAddrs, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // A resident service's metrics plane is always live: telemetry
        // observes but never steers (results are identical either
        // way), and `GET /metrics` must show real counters without
        // requiring a reporter.
        telemetry::set_enabled(true);
        // The request-tracing plane is likewise always on: spans
        // observe but never steer (results stay byte-identical), and
        // the flight recorder is what `GET /debug/trace` and the
        // `trace` op serve.
        trace::set_enabled(true);
        let mut exec = match opts.threads {
            Some(t) => SweepExecutor::with_threads(t),
            None => SweepExecutor::new(),
        };
        let cache_loaded = match &opts.cache {
            Some(path) => exec.attach_cache(path)?,
            None => 0,
        };
        telemetry::serve_recovered(exec.load_report().journal_recovered as u64);
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(exec, &opts, addr)),
            cache_loaded,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Cache entries loaded at bind time (warm-start size).
    pub fn cache_entries_loaded(&self) -> usize {
        self.cache_loaded
    }

    /// Runs the accept loop on the calling thread until a `shutdown`
    /// request arrives, then drains in-flight connections, persists
    /// the sweep cache, and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors (per-connection errors are
    /// counted, not propagated).
    pub fn run(self) -> io::Result<ServerReport> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // Transient accept errors (peer reset mid-handshake)
                // must not kill the daemon.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            // Request/response frames are small and latency-bound;
            // never let Nagle batch them.
            stream.set_nodelay(true).ok();
            self.shared.connections.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            handles.retain(|h| !h.is_finished());
            handles.push(std::thread::spawn(move || {
                handle_connection(stream, &shared)
            }));
        }
        // Drain: every reader thread finishes its in-flight request
        // (idle connections notice the flag within POLL_INTERVAL).
        for handle in handles {
            let _ = handle.join();
        }
        // The drain report includes a flight-recorder dump so the last
        // requests before shutdown survive for post-mortem.
        anomaly_dump(&self.shared, "shutdown-drain");
        let mut exec = lock_executor(&self.shared);
        exec.persist();
        Ok(ServerReport {
            connections: self.shared.connections.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            http_requests: self.shared.http_requests.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            cached_points: exec.cached_points() as u64,
        })
    }

    /// Runs the accept loop on a background thread; the returned
    /// handle joins it. For embedding the daemon in tests or larger
    /// programs — the CLI calls blocking [`run`](Server::run) instead.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        ServerHandle {
            addr,
            join: std::thread::spawn(move || self.run()),
        }
    }
}

/// Handle to a [`Server::spawn`]ed accept loop.
pub struct ServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<io::Result<ServerReport>>,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to drain (after a `shutdown` request) and
    /// returns its report.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::run`]'s error, or
    /// [`io::ErrorKind::Other`] if the server thread panicked.
    pub fn join(self) -> io::Result<ServerReport> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Locks the shared executor, containing the blast radius of a panic
/// in a previous request: a poisoned lock means some request unwound
/// mid-execution and the in-memory executor state (pool bookkeeping,
/// result memory, journal counters) cannot be trusted. Instead of
/// ignoring the poison and serving from that state, the executor is
/// rebuilt from scratch and re-warmed from the persisted cache file —
/// the crash-safe store that journaled every completed point — so the
/// daemon loses at most the panicking request, never its memory.
fn lock_executor<'a>(shared: &'a Shared) -> std::sync::MutexGuard<'a, SweepExecutor> {
    match shared.exec.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            shared.exec.clear_poison();
            let mut fresh = match shared.threads {
                Some(t) => SweepExecutor::with_threads(t),
                None => SweepExecutor::new(),
            };
            if let Some(path) = &shared.cache_path {
                if let Err(e) = fresh.attach_cache(path) {
                    eprintln!(
                        "warning: executor rebuild could not reload cache {}: {e}",
                        path.display()
                    );
                }
            }
            *guard = fresh;
            telemetry::serve_rebuild();
            anomaly_dump(shared, "executor-rebuild");
            eprintln!(
                "warning: executor lock was poisoned by a panicked request; \
                 rebuilt from persisted cache ({} points)",
                guard.cached_points()
            );
            guard
        }
    }
}

/// Appends diagnostic text (slow-request lines, anomaly dumps) to the
/// slow-log sink: the `--slow-log` file when configured, stderr
/// otherwise. Sink failures are swallowed — the observability plane
/// must never fail a request.
fn sink_text(shared: &Shared, text: &str) {
    match &shared.slow_log {
        Some(path) => {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = f.write_all(text.as_bytes());
            }
        }
        None => eprint!("{text}"),
    }
}

/// Dumps the flight recorder's most recent spans (JSONL, one Chrome
/// event per line) to the slow-log sink, prefixed with a reason line.
/// Called on anomalies — internal errors, shedding, executor rebuilds,
/// shutdown drain — so the spans leading up to the event survive for
/// post-mortem. Throttled to one dump per [`ANOMALY_DUMP_INTERVAL`]
/// (a shed storm must not flood the sink) and a no-op while tracing is
/// disabled.
fn anomaly_dump(shared: &Shared, reason: &str) {
    if !trace::enabled() {
        return;
    }
    // Shedding and the shutdown drain are *expected* operational
    // events: dump their context only into an explicitly configured
    // sink, never onto a clean stderr. Internal errors and executor
    // rebuilds always dump — they are the post-mortems this exists
    // for.
    if matches!(reason, "shed" | "shutdown-drain") && shared.slow_log.is_none() {
        return;
    }
    let now_ns = shared.started.elapsed().as_nanos() as u64;
    let last = shared.last_dump_ns.load(Ordering::Relaxed);
    if last != 0 && now_ns.saturating_sub(last) < ANOMALY_DUMP_INTERVAL.as_nanos() as u64 {
        return;
    }
    if shared
        .last_dump_ns
        .compare_exchange(last, now_ns.max(1), Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return; // another thread won the dump
    }
    let spans = trace::recorder().recent(ANOMALY_DUMP_SPANS);
    let mut text = format!(
        "{{\"flight_recorder_dump\":\"{reason}\",\"spans\":{}}}\n",
        spans.len()
    );
    text.push_str(&trace::spans_jsonl(&spans));
    sink_text(shared, &text);
}

/// Server-attributed wall-clock split of one request, measured at the
/// two points a request can block: the admission queue and the
/// executor mutex. The rest of the `timing` doc comes from telemetry
/// snapshot deltas bracketing the request.
#[derive(Debug, Default)]
struct RequestTiming {
    /// Wall time turning the frame into a request: UTF-8 check, JSON
    /// parse and request decode.
    decode_ns: u64,
    /// Wall time spent claiming an admission slot.
    queue_ns: u64,
    /// Wall time blocked on the executor mutex.
    lock_ns: u64,
}

/// Attributed wall clock of `phase` between two snapshots (summed over
/// workers, so parallel phases may exceed request wall time).
fn phase_delta_ns(before: &TelemetrySnapshot, after: &TelemetrySnapshot, phase: PhaseKind) -> u64 {
    let total = |snap: &TelemetrySnapshot| {
        snap.phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0, |p| p.total_ns)
    };
    total(after).saturating_sub(total(before))
}

/// Builds the `timing` doc attached to every successful response: the
/// request's total service time, its queue/lock waits, per-phase
/// attributed wall clock, and work counters — all from the measured
/// waits plus telemetry snapshot deltas bracketing the request.
fn timing_doc(
    timing: &RequestTiming,
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    total_ns: u64,
) -> Value {
    serde_json::json!({
        "total_ns": total_ns,
        "decode_ns": timing.decode_ns,
        "queue_ns": timing.queue_ns,
        "lock_ns": timing.lock_ns,
        "build_ns": phase_delta_ns(before, after, PhaseKind::Build),
        "break_in_ns": phase_delta_ns(before, after, PhaseKind::BreakIn),
        "congestion_ns": phase_delta_ns(before, after, PhaseKind::Congestion),
        "routing_ns": phase_delta_ns(before, after, PhaseKind::Routing),
        "trials": after.trials - before.trials,
        "cache_hits": after.cache_hits - before.cache_hits,
        "builds_reused": after.build_reused - before.build_reused,
    })
}

/// What the first four bytes of a connection turned out to be.
enum Sniff {
    /// A protocol frame of this payload length follows.
    Frame(usize),
    /// An HTTP GET; the prefix bytes belong to the request line.
    Http,
    /// Peer hung up between requests.
    Eof,
    /// Idle connection noticed the shutdown flag.
    Draining,
}

/// Reads exactly `buf.len()` bytes through the polling read timeout.
/// `idle_ok` selects the between-requests behavior: clean EOF and
/// shutdown-draining are reportable outcomes before the first byte,
/// errors after it. Returns the number of bytes read before a clean
/// EOF only in the `idle_ok && n == 0` case.
fn poll_read_exact(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    idle_ok: bool,
) -> io::Result<Option<usize>> {
    let mut filled = 0usize;
    let mut deadline: Option<Instant> = if idle_ok {
        None // idle: wait indefinitely (shutdown flag breaks the wait)
    } else {
        Some(Instant::now() + FRAME_DEADLINE)
    };
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if idle_ok && filled == 0 {
                    return Ok(Some(0));
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                filled += n;
                // First byte of a message arms the stall deadline.
                deadline.get_or_insert_with(|| Instant::now() + FRAME_DEADLINE);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if filled == 0 && idle_ok && shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(filled))
}

/// Reads and classifies the start of the next message on `stream`.
fn sniff(stream: &mut TcpStream, shared: &Shared, prefix: &mut [u8; 4]) -> io::Result<Sniff> {
    match poll_read_exact(stream, prefix, shared, true)? {
        None => Ok(Sniff::Draining),
        Some(0) => Ok(Sniff::Eof),
        Some(_) => {
            if *prefix == HTTP_GET_PREFIX {
                return Ok(Sniff::Http);
            }
            match protocol::frame_len(*prefix) {
                Ok(len) => Ok(Sniff::Frame(len)),
                Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        }
    }
}

/// Serves one accepted connection until EOF, shutdown, or a fatal
/// framing error.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut prefix = [0u8; 4];
    loop {
        match sniff(&mut stream, shared, &mut prefix) {
            Ok(Sniff::Eof) | Ok(Sniff::Draining) => break,
            Ok(Sniff::Http) => {
                shared.http_requests.fetch_add(1, Ordering::Relaxed);
                let _ = serve_http(&mut stream, shared);
                break; // Connection: close
            }
            Ok(Sniff::Frame(len)) => {
                let mut payload = vec![0u8; len];
                if poll_read_exact(&mut stream, &mut payload, shared, false).is_err() {
                    break;
                }
                let (response, shutdown) = respond(&payload, shared);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if matches!(response, Response::Err(_)) {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
                let fatal = matches!(
                    &response,
                    Response::Err(e) if e.code == ErrorCode::BadFrame
                );
                if protocol::write_value(&mut stream, &response.into_value()).is_err() {
                    break;
                }
                if shutdown {
                    initiate_shutdown(shared);
                    break;
                }
                if fatal {
                    break; // cannot resynchronize the stream
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized length prefix: answer once, then close.
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Err(WireError::new(ErrorCode::BadFrame, e.to_string()));
                let _ = protocol::write_value(&mut stream, &resp.into_value());
                break;
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Flips the shutdown flag and wakes the blocking accept loop with a
/// throwaway connection to ourselves.
fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(shared.addr);
}

/// Decodes one request payload and executes it. Returns the response
/// plus whether this request asked for shutdown.
fn respond(payload: &[u8], shared: &Shared) -> (Response, bool) {
    let decode_started = Instant::now();
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            return (
                Response::Err(WireError::new(ErrorCode::BadJson, "frame is not UTF-8")),
                false,
            )
        }
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return (
                Response::Err(WireError::new(ErrorCode::BadJson, e.to_string())),
                false,
            )
        }
    };
    let request = match Request::from_value(&value) {
        Ok(r) => r,
        Err(e) => return (Response::Err(e), false),
    };
    // Freeing the parsed tree is part of decoding it.
    drop(value);
    let mut timing = RequestTiming {
        decode_ns: elapsed_ns(decode_started),
        ..RequestTiming::default()
    };
    let shutdown = matches!(request, Request::Shutdown);
    let op = request.op();
    telemetry::serve_request(op);
    // The request id doubles as the trace id: every span recorded
    // while this request executes carries it, and the response echoes
    // it so a client can find its own spans in `GET /debug/trace`.
    let request_id = shared.request_ids.fetch_add(1, Ordering::Relaxed) + 1;
    let root = trace::enabled()
        .then(|| trace::start_with(format!("request:{op}"), trace::CAT_REQUEST, request_id, 0));
    // Executor execution is serialized on one mutex, so the ambient
    // slot cannot be trampled by a concurrent executor request; spans
    // recorded outside any request (none today) would carry trace 0.
    trace::set_context(request_id, root.as_ref().map_or(0, |r| r.id()));
    let started = Instant::now();
    let before = telemetry::snapshot();
    let outcome = execute(request, shared, started, &mut timing);
    let after = telemetry::snapshot();
    let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    trace::clear_context();
    drop(root);
    let doc = timing_doc(&timing, &before, &after, total_ns);
    let response = match outcome {
        Ok(mut result) => {
            // Additive response fields (protocol stays v1): clients
            // that predate them ignore unknown keys.
            if let Value::Map(entries) = &mut result {
                entries.push(("request_id".into(), Value::U64(request_id)));
                entries.push(("timing".into(), doc.clone()));
            }
            Response::Ok {
                op: op.into(),
                result,
            }
        }
        Err(e) => Response::Err(e),
    };
    if let Some(slow_ms) = shared.slow_ms {
        if total_ns >= slow_ms.saturating_mul(1_000_000) {
            telemetry::serve_slow_request();
            let timing_json = serde_json::to_string(&doc).unwrap_or_else(|_| String::from("null"));
            let ok = matches!(response, Response::Ok { .. });
            sink_text(
                shared,
                &format!(
                    "{{\"slow_request\":{{\"request_id\":{request_id},\"op\":\"{op}\",\"ok\":{ok},\"timing\":{timing_json}}}}}\n"
                ),
            );
        }
    }
    (response, shutdown)
}

/// Has the request's `deadline_ms` budget (counted from `arrival`)
/// already been spent? Checked at admission and, for sweeps, between
/// points — never mid-point, so a point that started always finishes
/// (and is journaled).
fn deadline_expired(arrival: Instant, deadline_ms: Option<u64>) -> bool {
    match deadline_ms {
        Some(ms) => arrival.elapsed() >= Duration::from_millis(ms),
        None => false,
    }
}

/// The `deadline-exceeded` rejection for a request whose budget ran
/// out after `done` of `total` points.
fn deadline_error(deadline_ms: u64, done: usize, total: usize) -> WireError {
    telemetry::serve_deadline_expired();
    WireError::new(
        ErrorCode::DeadlineExceeded,
        format!(
            "deadline of {deadline_ms} ms expired after {done} of {total} point(s); \
             completed points are journaled — retry to resume from cache"
        ),
    )
}

/// Runs one executor-bound closure, converting a panic into an
/// `internal` error response for this request (plus a flight-recorder
/// dump of the spans leading up to it). The unwind poisons the
/// executor lock on its way out; the next [`lock_executor`] rebuilds
/// the executor from the persisted cache.
fn run_guarded(
    shared: &Shared,
    f: impl FnOnce() -> Result<Value, WireError>,
) -> Result<Value, WireError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| {
        anomaly_dump(shared, "internal-error");
        Err(WireError::new(
            ErrorCode::Internal,
            "request panicked in the executor; state will be rebuilt from the persisted cache",
        ))
    })
}

/// Executes a decoded request against the shared executor/telemetry.
/// `arrival` anchors the request's `deadline_ms` budget; the measured
/// queue/lock waits land in `timing`.
fn execute(
    request: Request,
    shared: &Shared,
    arrival: Instant,
    timing: &mut RequestTiming,
) -> Result<Value, WireError> {
    match request {
        Request::Ping => Ok(serde_json::json!({
            "server": "sosd",
            "protocol": PROTOCOL_VERSION,
            "version": env!("CARGO_PKG_VERSION"),
        })),
        Request::Analyze(spec) => {
            let scenario = spec.scenario()?;
            let attack = spec.attack()?;
            let evaluator = spec.evaluator()?;
            let outcome = analyze_outcome(&scenario, &attack, evaluator)?;
            Ok(analyze_doc(&scenario, &attack, evaluator, &outcome))
        }
        Request::Simulate { spec, deadline_ms } => {
            let config = spec.sim_config()?;
            let admit_started = Instant::now();
            let _permit = try_admit(shared)?;
            timing.queue_ns = elapsed_ns(admit_started);
            run_guarded(shared, || {
                let lock_started = Instant::now();
                let mut exec = lock_executor(shared);
                timing.lock_ns = elapsed_ns(lock_started);
                // The queue wait may have eaten the whole budget;
                // refuse before computing, not after.
                if deadline_expired(arrival, deadline_ms) {
                    return Err(deadline_error(deadline_ms.unwrap_or(0), 0, 1));
                }
                let before = exec.stats();
                let (fps, mut results) = exec.run_json(std::slice::from_ref(&config));
                let cached = exec.stats().points_executed == before.points_executed;
                // Built as a map, not with `json!`, which would copy
                // the result's JSON; the executor wrote that JSON once
                // and it is spliced in as is.
                let served_from = if cached { "cache" } else { "computed" };
                Ok(Value::Map(vec![
                    ("fingerprint".into(), Value::Str(format!("{:016x}", fps[0]))),
                    ("cached".into(), Value::Bool(cached)),
                    ("served_from".into(), Value::Str(served_from.into())),
                    ("result".into(), Value::Raw(results.swap_remove(0))),
                ]))
            })
        }
        Request::Sweep { specs, deadline_ms } => {
            let configs = specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.sim_config()
                        .map_err(|e| WireError::new(ErrorCode::BadSpec, format!("specs[{i}]: {e}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let admit_started = Instant::now();
            let _permit = try_admit(shared)?;
            timing.queue_ns = elapsed_ns(admit_started);
            run_guarded(shared, || {
                let lock_started = Instant::now();
                let mut exec = lock_executor(shared);
                timing.lock_ns = elapsed_ns(lock_started);
                let before = exec.stats();
                let (fingerprints, results) = match deadline_ms {
                    // No deadline: one pool submission, identical to
                    // the pre-deadline code path byte for byte.
                    None => exec.run_json(&configs),
                    // Deadline: point-by-point with a cooperative
                    // cancellation check between points. Each result
                    // is byte-identical to the batched path; only the
                    // stats differ (duplicate specs count as cache
                    // hits rather than dedup hits).
                    Some(ms) => {
                        let mut fingerprints = Vec::with_capacity(configs.len());
                        let mut results = Vec::with_capacity(configs.len());
                        for (done, config) in configs.iter().enumerate() {
                            if deadline_expired(arrival, deadline_ms) {
                                return Err(deadline_error(ms, done, configs.len()));
                            }
                            let (fp, result) = exec.run_json(std::slice::from_ref(config));
                            fingerprints.extend(fp);
                            results.extend(result);
                        }
                        (fingerprints, results)
                    }
                };
                let after = exec.stats();
                // Each result is spliced in as the JSON the executor
                // keeps with it, not rebuilt as a tree.
                let points: Vec<Value> = fingerprints
                    .iter()
                    .zip(results)
                    .map(|(fp, result)| {
                        Value::Map(vec![
                            ("fingerprint".into(), Value::Str(format!("{fp:016x}"))),
                            ("result".into(), Value::Raw(result)),
                        ])
                    })
                    .collect();
                // Where the answers came from: nothing executed means
                // pure cache, nothing answered from memory means pure
                // compute, any mix is partial.
                let executed = after.points_executed - before.points_executed;
                let from_memory =
                    (after.cache_hits - before.cache_hits) + (after.dedup_hits - before.dedup_hits);
                let served_from = if executed == 0 {
                    "cache"
                } else if from_memory == 0 {
                    "computed"
                } else {
                    "partial"
                };
                // Built as a map, not with `json!`, which would copy
                // `points`.
                Ok(Value::Map(vec![
                    ("results".into(), Value::Seq(points)),
                    ("served_from".into(), Value::Str(served_from.into())),
                    (
                        "stats".into(),
                        serde_json::json!({
                            "points": after.points - before.points,
                            "cache_hits": after.cache_hits - before.cache_hits,
                            "dedup_hits": after.dedup_hits - before.dedup_hits,
                            "points_executed": after.points_executed - before.points_executed,
                            "trials_executed": after.trials_executed - before.trials_executed,
                        }),
                    ),
                ]))
            })
        }
        Request::Profile => {
            let snapshot = telemetry::snapshot();
            let parsed: Value = serde_json::from_str(&snapshot.to_json())
                .map_err(|e| WireError::new(ErrorCode::Internal, e.to_string()))?;
            Ok(serde_json::json!({
                "table": snapshot.profile_table(),
                "telemetry": parsed,
            }))
        }
        Request::Trace => {
            let spans = trace::recorder().recent(trace::FLIGHT_RECORDER_CAPACITY);
            let doc: Value = serde_json::from_str(&trace::chrome_trace_json(&spans))
                .map_err(|e| WireError::new(ErrorCode::Internal, e.to_string()))?;
            Ok(serde_json::json!({
                "spans": spans.len() as u64,
                "recorded": trace::recorder().recorded(),
                "trace": doc,
            }))
        }
        Request::Shutdown => Ok(serde_json::json!({ "draining": true })),
    }
}

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The health/progress document served at `GET /healthz`: server
/// status and counters wrapping the live telemetry snapshot (same keys
/// as the JSONL reporter sink).
fn health_json(shared: &Shared) -> String {
    let exec_stats = {
        let exec = lock_executor(shared);
        (exec.stats(), exec.cached_points(), exec.last_persist_age())
    };
    let (sweep, cached_points, persist_age) = exec_stats;
    let status = if shared.shutdown.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    // Seconds since the cache file was last compacted to disk; `null`
    // until the first persist (journal appends do not count — they are
    // durable the moment a point completes).
    let last_persist_age_s = match persist_age {
        Some(age) => format!("{:.3}", age.as_secs_f64()),
        None => String::from("null"),
    };
    let snap = telemetry::snapshot();
    // Per-op request counters, in wire-op order.
    let mut requests_by_op = String::from("{");
    for (i, op) in telemetry::SERVE_OPS.iter().enumerate() {
        if i > 0 {
            requests_by_op.push(',');
        }
        requests_by_op.push_str(&format!("\"{op}\":{}", snap.serve_requests_by_op[i]));
    }
    requests_by_op.push('}');
    format!(
        "{{\"status\":\"{status}\",\"uptime_s\":{:.3},\"connections\":{},\"requests\":{},\"http_requests\":{},\"errors\":{},\
         \"requests_by_op\":{requests_by_op},\"slow_requests_total\":{},\
         \"in_flight\":{},\"queue_depth\":{},\"last_persist_age_s\":{last_persist_age_s},\
         \"sweep\":{{\"points\":{},\"cache_hits\":{},\"dedup_hits\":{},\"points_executed\":{},\"trials_executed\":{},\"cached_points\":{cached_points}}},\
         \"telemetry\":{}}}",
        shared.started.elapsed().as_secs_f64(),
        shared.connections.load(Ordering::Relaxed),
        shared.requests.load(Ordering::Relaxed),
        shared.http_requests.load(Ordering::Relaxed),
        shared.errors.load(Ordering::Relaxed),
        snap.serve_slow_requests,
        shared.in_flight.load(Ordering::SeqCst),
        shared.queue_depth,
        sweep.points,
        sweep.cache_hits,
        sweep.dedup_hits,
        sweep.points_executed,
        sweep.trials_executed,
        snap.to_json(),
    )
}

/// Serves one HTTP GET whose first four bytes (`"GET "`) are already
/// consumed: reads the head, routes `/metrics`, `/healthz` and
/// `/debug/trace`, answers 404 otherwise, always `Connection: close`.
fn serve_http(stream: &mut TcpStream, shared: &Shared) -> io::Result<()> {
    // Read until the blank line ending the head (bounded: 8 KiB).
    let mut head = Vec::with_capacity(256);
    let deadline = Instant::now() + FRAME_DEADLINE;
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() >= 8192 || Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "HTTP head too large",
            ));
        }
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let path = head.split_whitespace().next().unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            telemetry::EXPOSITION_CONTENT_TYPE,
            telemetry::exposition(),
        ),
        "/healthz" => ("200 OK", telemetry::JSON_CONTENT_TYPE, health_json(shared)),
        "/debug/trace" => (
            "200 OK",
            telemetry::JSON_CONTENT_TYPE,
            trace::chrome_trace_json(&trace::recorder().recent(trace::FLIGHT_RECORDER_CAPACITY)),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("unknown path {path:?} (try /metrics, /healthz or /debug/trace)\n"),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimSpec;

    fn tiny_spec() -> SimSpec {
        SimSpec {
            overlay_nodes: 200,
            sos_nodes: 30,
            nt: 5,
            nc: 20,
            trials: 2,
            routes: 4,
            ..SimSpec::default()
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sos-serve-server-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create temp dir");
        p
    }

    fn test_shared(opts: &ServerOptions) -> Shared {
        let mut exec = match opts.threads {
            Some(t) => SweepExecutor::with_threads(t),
            None => SweepExecutor::new(),
        };
        if let Some(path) = &opts.cache {
            exec.attach_cache(path).expect("attach cache");
        }
        Shared::new(exec, opts, "127.0.0.1:0".parse().expect("addr"))
    }

    #[test]
    fn zero_depth_queue_sheds_with_retry_hint() {
        let opts = ServerOptions {
            threads: Some(1),
            queue_depth: 0,
            ..ServerOptions::default()
        };
        let shared = test_shared(&opts);
        let err = try_admit(&shared).expect_err("depth 0 sheds everything");
        assert_eq!(err.code, ErrorCode::Busy);
        assert!(err
            .retry_after_ms
            .is_some_and(|ms| ms >= RETRY_AFTER_SLICE_MS));
    }

    #[test]
    fn admission_permit_releases_its_slot_on_drop() {
        let opts = ServerOptions {
            threads: Some(1),
            queue_depth: 1,
            ..ServerOptions::default()
        };
        let shared = test_shared(&opts);
        let permit = try_admit(&shared).expect("first request fits");
        let shed = try_admit(&shared).expect_err("second request is shed");
        assert_eq!(shed.code, ErrorCode::Busy);
        drop(permit);
        assert!(try_admit(&shared).is_ok(), "dropped permit frees the slot");
    }

    #[test]
    fn expired_deadline_is_refused_before_computing() {
        let opts = ServerOptions {
            threads: Some(1),
            ..ServerOptions::default()
        };
        let shared = test_shared(&opts);
        let err = execute(
            Request::Simulate {
                spec: tiny_spec(),
                deadline_ms: Some(0),
            },
            &shared,
            Instant::now(),
            &mut RequestTiming::default(),
        )
        .expect_err("a zero deadline is always already expired");
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert_eq!(shared.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn sweep_under_deadline_reports_resumable_progress() {
        let opts = ServerOptions {
            threads: Some(1),
            ..ServerOptions::default()
        };
        let shared = test_shared(&opts);
        let err = execute(
            Request::Sweep {
                specs: vec![tiny_spec(); 3],
                deadline_ms: Some(0),
            },
            &shared,
            Instant::now(),
            &mut RequestTiming::default(),
        )
        .expect_err("expired sweep deadline");
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(
            err.message.contains("0 of 3"),
            "message names progress: {}",
            err.message
        );
    }

    #[test]
    fn poisoned_lock_rebuilds_executor_from_persisted_cache() {
        let dir = tmp_dir("poison");
        let cache = dir.join("cache.json");
        let spec = tiny_spec();
        let config = spec.sim_config().expect("tiny spec builds");
        // Seed the persistent cache with one computed point.
        let baseline = {
            let mut exec = SweepExecutor::with_threads(1);
            exec.attach_cache(&cache).expect("attach");
            let result = exec.run_one(&config);
            exec.persist();
            serde_json::to_string(&result).expect("serialize")
        };
        let opts = ServerOptions {
            threads: Some(1),
            cache: Some(cache.clone()),
            ..ServerOptions::default()
        };
        let shared = Arc::new(test_shared(&opts));
        // A panicking request poisons the executor lock.
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.exec.lock().expect("not yet poisoned");
            panic!("simulated in-request panic");
        })
        .join();
        assert!(shared.exec.is_poisoned());
        // The next access rebuilds from the cache file: the lock is
        // usable again and the warm point survived the rebuild.
        {
            let mut exec = lock_executor(&shared);
            assert_eq!(exec.cached_points(), 1, "warm point reloaded from disk");
            let before = exec.stats();
            let result = exec.run_one(&config);
            assert_eq!(
                exec.stats().cache_hits,
                before.cache_hits + 1,
                "rebuilt executor answers from cache"
            );
            assert_eq!(
                serde_json::to_string(&result).expect("serialize"),
                baseline,
                "rebuilt warm answer is byte-identical"
            );
        }
        assert!(!shared.exec.is_poisoned(), "poison cleared after rebuild");
        std::fs::remove_dir_all(&dir).ok();
    }
}

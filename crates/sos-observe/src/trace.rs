//! Request-scoped tracing plane: span guards, a bounded flight
//! recorder, and Chrome trace-event export.
//!
//! The live telemetry plane ([`crate::telemetry`]) answers "how is the
//! process doing" with cumulative counters and phase histograms. This
//! module answers "where did *this request* spend its time": `sosd`
//! opens a root span per protocol request and the executor layers
//! below it (admission, executor-lock wait, cache probes, sweep
//! points, pool batch claims) attach child spans, all carrying the
//! request's trace id.
//!
//! Design rules, in order:
//!
//! * **Observes, never steers.** Spans read the monotonic clock and a
//!   process-global id counter — never the deterministic simulation
//!   RNG streams — so results are byte-identical with tracing on or
//!   off (property-tested in `tests/trace_plane.rs`).
//! * **Disabled means free.** Every hook starts with one relaxed
//!   atomic load; [`start`] returns `None` when the plane is off and
//!   the hot paths do nothing else.
//! * **Bounded.** Completed spans land in a fixed-capacity ring (the
//!   *flight recorder*); old spans are overwritten, memory never
//!   grows. The fast path is lock-free: a single `fetch_add` claims a
//!   slot, and the payload store uses an uncontended per-slot
//!   `try_lock` that *drops the span* rather than blocking if a
//!   reader holds the slot (`forbid(unsafe_code)` rules out a
//!   seqlock; losing one span under a concurrent dump is the accepted
//!   trade).
//!
//! Timestamps are nanoseconds since the trace epoch (first enable),
//! from `Instant` — wall-clock monotonic, unaffected by NTP steps.
//! Span ids come from a process-wide counter, never from the
//! simulation RNG streams.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept by the process-global flight recorder.
pub const FLIGHT_RECORDER_CAPACITY: usize = 2048;

/// Span category for request-level spans (`sosd` protocol handling).
pub const CAT_REQUEST: &str = "request";
/// Span category for executor-level spans (cache probes, sweep points).
pub const CAT_EXEC: &str = "exec";
/// Span category for worker-pool spans (batch claims).
pub const CAT_POOL: &str = "pool";

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Next span id; ids are process-unique and strictly increasing.
/// Never fed by (or feeding) the sim RNG streams.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Ambient trace id (the current request id in `sosd`); 0 = none.
static CURRENT_TRACE: AtomicU64 = AtomicU64::new(0);
/// Ambient parent span id for child spans; 0 = root.
static CURRENT_PARENT: AtomicU64 = AtomicU64::new(0);
/// Next lane (Chrome `tid`) for threads that record spans.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's stable lane id for Chrome trace rows.
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// The instant `t = 0` of every span timestamp: pinned on first use
/// (first enable or first span).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns the tracing plane on or off. Enabling pins the epoch so the
/// first span does not pay the `OnceLock` initialization.
pub fn set_enabled(enabled: bool) {
    if enabled {
        let _ = epoch();
    }
    ENABLED.store(enabled, Ordering::Release);
}

/// Whether the tracing plane is on (one relaxed load — the only cost
/// any hook pays when tracing is off).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the ambient trace context: every span started afterwards (on
/// any thread) carries `trace_id` and nests under `parent_span`.
/// `sosd` calls this once per protocol request; executor execution is
/// serialized under one lock, so a single ambient slot is enough.
pub fn set_context(trace_id: u64, parent_span: u64) {
    CURRENT_TRACE.store(trace_id, Ordering::Release);
    CURRENT_PARENT.store(parent_span, Ordering::Release);
}

/// Clears the ambient trace context (end of request).
pub fn clear_context() {
    set_context(0, 0);
}

/// The current ambient trace id (0 when outside any request).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.load(Ordering::Acquire)
}

/// One completed span, as stored by the flight recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name (e.g. `request:simulate`, `sweep-point`).
    pub name: String,
    /// Category: [`CAT_REQUEST`], [`CAT_EXEC`] or [`CAT_POOL`].
    pub cat: &'static str,
    /// Trace (request) id the span belongs to; 0 = untraced.
    pub trace_id: u64,
    /// Process-unique span id.
    pub span_id: u64,
    /// Enclosing span id; 0 = root.
    pub parent_id: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's lane (Chrome `tid`).
    pub lane: u64,
    /// Small numeric annotations (`("trials", 40)`, `("hit", 1)`, …).
    pub args: Vec<(&'static str, u64)>,
}

/// A live span: created by [`start`], recorded into the flight
/// recorder when dropped (or explicitly via [`SpanGuard::end`]).
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    cat: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    started: Instant,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// This span's id (to parent further children under it).
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Attaches a numeric annotation.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        self.args.push((key, value));
    }

    /// Ends the span now and returns the recorded copy.
    pub fn end(mut self) -> Span {
        let span = self.finish();
        recorder().record(span.clone());
        std::mem::forget(self); // finish() consumed the payload
        span
    }

    fn finish(&mut self) -> Span {
        Span {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            start_ns: self.start_ns,
            dur_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            lane: LANE.with(|l| *l),
            args: std::mem::take(&mut self.args),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        recorder().record(self.finish());
    }
}

/// Starts a span under the ambient context, or returns `None` when
/// tracing is disabled. The returned guard records itself on drop.
pub fn start(name: impl Into<String>, cat: &'static str) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    Some(start_with(
        name,
        cat,
        current_trace(),
        CURRENT_PARENT.load(Ordering::Acquire),
    ))
}

/// Starts a span with an explicit trace id and parent (the `sosd`
/// request root uses this; everything below uses [`start`]).
pub fn start_with(
    name: impl Into<String>,
    cat: &'static str,
    trace_id: u64,
    parent_id: u64,
) -> SpanGuard {
    let _ = epoch();
    SpanGuard {
        name: name.into(),
        cat,
        trace_id,
        span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent_id,
        started: Instant::now(),
        start_ns: now_ns(),
        args: Vec::new(),
    }
}

/// Records a completed span that began at `started`, under the
/// ambient context — for call sites that know a span's start only
/// after deciding it completed (e.g. the pool's per-point completion
/// tick). No-op when tracing is disabled.
pub fn record_since(
    name: impl Into<String>,
    cat: &'static str,
    started: Instant,
    args: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    let start_ns = u64::try_from(
        started
            .checked_duration_since(epoch())
            .unwrap_or_default()
            .as_nanos(),
    )
    .unwrap_or(u64::MAX);
    recorder().record(Span {
        name: name.into(),
        cat,
        trace_id: current_trace(),
        span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent_id: CURRENT_PARENT.load(Ordering::Acquire),
        start_ns,
        dur_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        lane: LANE.with(|l| *l),
        args: args.to_vec(),
    });
}

/// A bounded ring of completed spans. See the module docs for the
/// concurrency contract.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Span>>>,
    /// Total spans ever claimed; `claim % capacity` is the slot.
    claim: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            claim: AtomicU64::new(0),
        }
    }

    /// Stores a completed span, overwriting the oldest when full.
    pub fn record(&self, span: Span) {
        let n = self.claim.fetch_add(1, Ordering::Relaxed);
        let slot = (n % self.slots.len() as u64) as usize;
        // Non-blocking by design: a dump in progress holds slot locks
        // briefly; losing that one span beats stalling a worker.
        if let Ok(mut guard) = self.slots[slot].try_lock() {
            *guard = Some(span);
        }
    }

    /// Total spans ever recorded (claims, including any dropped under
    /// try-lock contention).
    pub fn recorded(&self) -> u64 {
        self.claim.load(Ordering::Relaxed)
    }

    /// The most recent spans, oldest first, at most `max`.
    pub fn recent(&self, max: usize) -> Vec<Span> {
        let claimed = self.claim.load(Ordering::Acquire);
        let capacity = self.slots.len() as u64;
        let live = claimed.min(capacity);
        let first = claimed - live;
        let mut out = Vec::with_capacity(live as usize);
        for n in first..claimed {
            let slot = (n % capacity) as usize;
            if let Ok(guard) = self.slots[slot].lock() {
                if let Some(span) = guard.as_ref() {
                    out.push(span.clone());
                }
            }
        }
        if out.len() > max {
            out.drain(..out.len() - max);
        }
        out
    }

    /// Clears every slot (tests and explicit resets).
    pub fn clear(&self) {
        for slot in &self.slots {
            if let Ok(mut guard) = slot.lock() {
                *guard = None;
            }
        }
        self.claim.store(0, Ordering::Release);
    }
}

/// The process-global flight recorder every [`SpanGuard`] records
/// into.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(FLIGHT_RECORDER_CAPACITY))
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders one span as a Chrome trace-event object (`ph: "X"`,
/// timestamps in microseconds with nanosecond precision preserved in
/// the fraction).
fn chrome_event(span: &Span, out: &mut String) {
    out.push_str("{\"name\":\"");
    escape_json(&span.name, out);
    out.push_str("\",\"cat\":\"");
    escape_json(span.cat, out);
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    // Microseconds as a decimal with three fractional digits: Chrome
    // and Perfetto take doubles here; formatting from integers keeps
    // the output byte-stable.
    out.push_str(&format!(
        "{}.{:03}",
        span.start_ns / 1_000,
        span.start_ns % 1_000
    ));
    out.push_str(",\"dur\":");
    out.push_str(&format!("{}.{:03}", span.dur_ns / 1_000, span.dur_ns % 1_000));
    out.push_str(",\"pid\":1,\"tid\":");
    out.push_str(&span.lane.to_string());
    out.push_str(",\"args\":{\"trace_id\":");
    out.push_str(&span.trace_id.to_string());
    out.push_str(",\"span_id\":");
    out.push_str(&span.span_id.to_string());
    out.push_str(",\"parent_id\":");
    out.push_str(&span.parent_id.to_string());
    for (key, value) in &span.args {
        out.push_str(",\"");
        escape_json(key, out);
        out.push_str("\":");
        out.push_str(&value.to_string());
    }
    out.push_str("}}");
}

/// Renders spans as a Chrome trace-event JSON document — the exact
/// bytes `GET /debug/trace` serves; loadable in Perfetto and
/// `chrome://tracing`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        chrome_event(span, &mut out);
    }
    out.push_str("]}");
    out
}

/// Renders spans as JSONL (one Chrome event object per line) — the
/// flight-recorder dump format used by anomaly dumps and slow logs.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160);
    for span in spans {
        chrome_event(span, &mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global enable flag.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_span(name: &str, trace_id: u64) -> Span {
        Span {
            name: name.to_string(),
            cat: CAT_EXEC,
            trace_id,
            span_id: 7,
            parent_id: 3,
            start_ns: 1_234_567,
            dur_ns: 89_012,
            lane: 2,
            args: vec![("trials", 40)],
        }
    }

    #[test]
    fn recorder_keeps_last_n_in_order() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.record(test_span(&format!("s{i}"), i));
        }
        let recent = rec.recent(usize::MAX);
        let names: Vec<&str> = recent.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["s6", "s7", "s8", "s9"]);
        assert_eq!(rec.recorded(), 10);
        let capped = rec.recent(2);
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[0].name, "s8");
        rec.clear();
        assert!(rec.recent(usize::MAX).is_empty());
    }

    #[test]
    fn start_is_none_when_disabled_and_records_when_enabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        assert!(start("nope", CAT_EXEC).is_none());

        set_enabled(true);
        let before = recorder().recorded();
        set_context(42, 9);
        let mut span = start("probe", CAT_EXEC).expect("enabled");
        span.arg("hit", 1);
        let recorded = span.end();
        clear_context();
        set_enabled(false);

        assert_eq!(recorded.trace_id, 42);
        assert_eq!(recorded.parent_id, 9);
        assert_eq!(recorded.args, vec![("hit", 1)]);
        assert!(recorder().recorded() > before);
    }

    #[test]
    fn span_ids_are_unique_and_increasing() {
        let a = start_with("a", CAT_REQUEST, 1, 0);
        let b = start_with("b", CAT_REQUEST, 1, a.id());
        assert!(b.id() > a.id());
        let a = a.end();
        let b = b.end();
        assert_eq!(b.parent_id, a.span_id);
    }

    #[test]
    fn chrome_json_shape_is_loadable() {
        let doc = chrome_trace_json(&[test_span("sweep \"quoted\"", 5)]);
        let parsed: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert_eq!(ev["pid"].as_u64(), Some(1));
        assert_eq!(ev["name"].as_str(), Some("sweep \"quoted\""));
        assert_eq!(ev["args"]["trace_id"].as_u64(), Some(5));
        assert_eq!(ev["args"]["trials"].as_u64(), Some(40));
        // 1_234_567 ns = 1234.567 µs, preserved exactly.
        assert!((ev["ts"].as_f64().unwrap() - 1234.567).abs() < 1e-9);
        assert!((ev["dur"].as_f64().unwrap() - 89.012).abs() < 1e-9);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let spans = vec![test_span("a", 1), test_span("b", 2)];
        let text = spans_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let _: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
        }
    }
}

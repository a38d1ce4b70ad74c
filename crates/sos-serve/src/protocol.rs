//! The `sosd` wire protocol: length-prefixed JSON frames.
//!
//! A connection carries a sequence of *frames* in each direction. Every
//! frame is a 4-byte big-endian payload length followed by exactly that
//! many bytes of UTF-8 JSON. Requests and responses are single JSON
//! objects; one request frame yields exactly one response frame, in
//! order, so a client may pipeline. The full field-by-field reference
//! (with a byte-level worked example) lives in `PROTOCOL.md` at the
//! repository root; this module is its executable counterpart.
//!
//! The same listener also answers plain-HTTP `GET /metrics` and
//! `GET /healthz`: the server sniffs the first four bytes of a
//! connection and treats [`HTTP_GET_PREFIX`] as the start of an HTTP
//! request instead of a length prefix (`"GET "` would decode as a
//! 1.19 GiB frame, far above [`MAX_FRAME_LEN`], so the two grammars
//! cannot collide).

use crate::spec::{SimSpec, SpecError};
use serde_json::Value;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version carried in every request and response (`"v"`).
///
/// Versioning rule: the version bumps only when an existing field
/// changes meaning or shape. *Adding* request kinds, response fields or
/// error codes is backward compatible and does not bump it; clients
/// must ignore response fields they do not know.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame payload (16 MiB). A peer announcing a larger
/// frame is malformed (or speaking another protocol); the server
/// answers [`ErrorCode::BadFrame`] and closes, since the stream cannot
/// be resynchronized.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// First four bytes of an HTTP GET, used to sniff scrapers on the
/// daemon port.
pub const HTTP_GET_PREFIX: [u8; 4] = *b"GET ";

/// Machine-readable error class of a failed request, carried in
/// `error.code`. The string forms are part of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Length prefix exceeds [`MAX_FRAME_LEN`] or the frame body ended
    /// early; the connection is closed after this error.
    BadFrame,
    /// Frame payload is not valid JSON.
    BadJson,
    /// Payload is valid JSON but not a valid request object (not an
    /// object, missing/mistyped `v` or `op`, malformed `spec`/`specs`
    /// containers).
    BadRequest,
    /// `v` names a protocol version this server does not speak.
    BadVersion,
    /// `op` is not a known request kind.
    UnknownOp,
    /// The experiment spec was rejected (unknown field, bad label,
    /// inconsistent topology, zero trial/route counts).
    BadSpec,
    /// The server's bounded admission queue is full; the request was
    /// shed without touching the executor. The error object carries
    /// `retry_after_ms` — a hint for when to try again. Always safe to
    /// retry (the shed request had no side effects).
    Busy,
    /// The request's `deadline_ms` expired before (or while) the
    /// server could finish it. Sweep points completed before expiry
    /// are already journaled in the cache, so a retry resumes instead
    /// of restarting.
    DeadlineExceeded,
    /// The server failed internally while executing a valid request.
    Internal,
}

impl ErrorCode {
    /// The wire form of the code (e.g. `bad-spec`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::Busy => "busy",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire code; `None` for codes this build does not know
    /// (a newer server may add codes — treat them as [`Internal`]).
    ///
    /// [`Internal`]: ErrorCode::Internal
    pub fn parse(raw: &str) -> Option<Self> {
        Some(match raw {
            "bad-frame" => ErrorCode::BadFrame,
            "bad-json" => ErrorCode::BadJson,
            "bad-request" => ErrorCode::BadRequest,
            "bad-version" => ErrorCode::BadVersion,
            "unknown-op" => ErrorCode::UnknownOp,
            "bad-spec" => ErrorCode::BadSpec,
            "busy" => ErrorCode::Busy,
            "deadline-exceeded" => ErrorCode::DeadlineExceeded,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level error: the `error` object of a failed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail (the same messages the CLI prints for the
    /// equivalent mistake).
    pub message: String,
    /// Backoff hint carried by [`ErrorCode::Busy`] responses: how many
    /// milliseconds the client should wait before retrying. Absent on
    /// every other code.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A [`Busy`](ErrorCode::Busy) error with its backoff hint.
    pub fn busy(message: impl Into<String>, retry_after_ms: u64) -> Self {
        WireError {
            code: ErrorCode::Busy,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

impl From<SpecError> for WireError {
    fn from(e: SpecError) -> Self {
        WireError::new(ErrorCode::BadSpec, e.to_string())
    }
}

/// A request frame, decoded. Each variant maps 1:1 to an `op` string.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version handshake; carries no parameters.
    Ping,
    /// Closed-form analysis of one spec.
    Analyze(SimSpec),
    /// Monte Carlo simulation of one spec, answered through the shared
    /// sweep executor (content-addressed: repeats are cache hits).
    /// `deadline_ms` bounds how long the server may spend — queueing
    /// included — before answering [`ErrorCode::DeadlineExceeded`].
    Simulate {
        /// The experiment to run.
        spec: SimSpec,
        /// Optional server-side deadline, in milliseconds from receipt.
        deadline_ms: Option<u64>,
    },
    /// Monte Carlo simulation of many specs. The server checks the
    /// deadline cooperatively *between* points, so an expired sweep
    /// frees the executor instead of running to completion (points
    /// already finished stay journaled in the cache).
    Sweep {
        /// The experiment grid to run.
        specs: Vec<SimSpec>,
        /// Optional server-side deadline, in milliseconds from receipt.
        deadline_ms: Option<u64>,
    },
    /// Current telemetry snapshot: per-phase profile table + counters.
    Profile,
    /// The flight recorder's recent spans as a Chrome trace-event
    /// document (same bytes as `GET /debug/trace`); no parameters.
    Trace,
    /// Begin graceful shutdown: stop accepting, drain in-flight
    /// requests, persist the sweep cache.
    Shutdown,
}

impl Request {
    /// The wire `op` string of this request kind.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Analyze(_) => "analyze",
            Request::Simulate { .. } => "simulate",
            Request::Sweep { .. } => "sweep",
            Request::Profile => "profile",
            Request::Trace => "trace",
            Request::Shutdown => "shutdown",
        }
    }

    /// Encodes the request as its wire JSON object. A spec is embedded
    /// as its [`SimSpec::to_json`] text, so the object is meant for
    /// the compact writers that send it (pretty ones expand it).
    pub fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = vec![
            ("v".into(), Value::U64(PROTOCOL_VERSION)),
            ("op".into(), Value::Str(self.op().into())),
        ];
        match self {
            Request::Ping | Request::Profile | Request::Trace | Request::Shutdown => {}
            Request::Analyze(spec) => {
                entries.push(("spec".into(), Value::Raw(spec.to_json())));
            }
            Request::Simulate { spec, deadline_ms } => {
                entries.push(("spec".into(), Value::Raw(spec.to_json())));
                if let Some(ms) = deadline_ms {
                    entries.push(("deadline_ms".into(), Value::U64(*ms)));
                }
            }
            Request::Sweep { specs, deadline_ms } => return sweep_request(specs, *deadline_ms),
        }
        Value::Map(entries)
    }

    /// Decodes a request from its wire JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] with the matching [`ErrorCode`]
    /// (`bad-request`, `bad-version`, `unknown-op`, `bad-spec`).
    pub fn from_value(value: &Value) -> Result<Request, WireError> {
        let entries = value.as_map().ok_or_else(|| {
            WireError::new(ErrorCode::BadRequest, "request must be a JSON object")
        })?;
        let field = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let v = field("v").and_then(Value::as_u64).ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                "request field `v` must be an integer",
            )
        })?;
        if v != PROTOCOL_VERSION {
            return Err(WireError::new(
                ErrorCode::BadVersion,
                format!(
                    "protocol version {v} not supported (this server speaks {PROTOCOL_VERSION})"
                ),
            ));
        }
        let op = field("op").and_then(Value::as_str).ok_or_else(|| {
            WireError::new(ErrorCode::BadRequest, "request field `op` must be a string")
        })?;
        let spec = || -> Result<SimSpec, WireError> {
            let raw = field("spec").ok_or_else(|| {
                WireError::new(
                    ErrorCode::BadRequest,
                    format!("op `{op}` requires a `spec` object"),
                )
            })?;
            Ok(SimSpec::from_value(raw)?)
        };
        let deadline_ms = || -> Result<Option<u64>, WireError> {
            match field("deadline_ms") {
                None => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                    WireError::new(
                        ErrorCode::BadRequest,
                        "request field `deadline_ms` must be a non-negative integer",
                    )
                }),
            }
        };
        match op {
            "ping" => Ok(Request::Ping),
            "profile" => Ok(Request::Profile),
            "trace" => Ok(Request::Trace),
            "shutdown" => Ok(Request::Shutdown),
            "analyze" => Ok(Request::Analyze(spec()?)),
            "simulate" => Ok(Request::Simulate { spec: spec()?, deadline_ms: deadline_ms()? }),
            "sweep" => {
                let raw = field("specs").and_then(Value::as_array).ok_or_else(|| {
                    WireError::new(
                        ErrorCode::BadRequest,
                        "op `sweep` requires a `specs` array",
                    )
                })?;
                let specs = raw
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        SimSpec::from_value(v).map_err(|e| {
                            WireError::new(ErrorCode::BadSpec, format!("specs[{i}]: {e}"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Sweep { specs, deadline_ms: deadline_ms()? })
            }
            other => Err(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown op `{other}` (ping | analyze | simulate | sweep | profile | trace | shutdown)"),
            )),
        }
    }
}

/// Encodes a `sweep` request straight from borrowed specs — the wire
/// object [`Request::to_value`] writes for [`Request::Sweep`], without
/// first copying the specs into a request.
pub fn sweep_request(specs: &[SimSpec], deadline_ms: Option<u64>) -> Value {
    let mut entries: Vec<(String, Value)> = vec![
        ("v".into(), Value::U64(PROTOCOL_VERSION)),
        ("op".into(), Value::Str("sweep".into())),
        (
            "specs".into(),
            Value::Seq(specs.iter().map(|s| Value::Raw(s.to_json())).collect()),
        ),
    ];
    if let Some(ms) = deadline_ms {
        entries.push(("deadline_ms".into(), Value::U64(ms)));
    }
    Value::Map(entries)
}

/// A response frame, decoded: a successful result or a protocol error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success: the op echoed back plus its op-specific result body.
    Ok {
        /// The request's `op`, echoed.
        op: String,
        /// Op-specific result object (see `PROTOCOL.md`).
        result: Value,
    },
    /// Failure: the request produced no result.
    Err(WireError),
}

impl Response {
    /// Encodes the response as its wire JSON object, moving the
    /// result body into it.
    pub fn into_value(self) -> Value {
        match self {
            Response::Ok { op, result } => Value::Map(vec![
                ("v".into(), Value::U64(PROTOCOL_VERSION)),
                ("ok".into(), Value::Bool(true)),
                ("op".into(), Value::Str(op)),
                ("result".into(), result),
            ]),
            Response::Err(e) => {
                let mut error = vec![
                    ("code".to_string(), Value::Str(e.code.as_str().into())),
                    ("message".to_string(), Value::Str(e.message)),
                ];
                if let Some(ms) = e.retry_after_ms {
                    error.push(("retry_after_ms".to_string(), Value::U64(ms)));
                }
                Value::Map(vec![
                    ("v".into(), Value::U64(PROTOCOL_VERSION)),
                    ("ok".into(), Value::Bool(false)),
                    ("error".into(), Value::Map(error)),
                ])
            }
        }
    }

    /// Decodes a response from its wire JSON object, moving the result
    /// body out of it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] (`bad-request`) when the value is not a
    /// well-formed response object. An unrecognized `error.code` from a
    /// newer server decodes as [`ErrorCode::Internal`].
    pub fn from_value(value: Value) -> Result<Response, WireError> {
        let Value::Map(mut entries) = value else {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "response must be a JSON object",
            ));
        };
        let field = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ok = match field("ok") {
            Some(Value::Bool(b)) => *b,
            _ => {
                return Err(WireError::new(
                    ErrorCode::BadRequest,
                    "response field `ok` must be a boolean",
                ))
            }
        };
        if ok {
            let op = field("op")
                .and_then(Value::as_str)
                .ok_or_else(|| {
                    WireError::new(
                        ErrorCode::BadRequest,
                        "response field `op` must be a string",
                    )
                })?
                .to_string();
            let at = entries
                .iter()
                .position(|(k, _)| k == "result")
                .ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "response is missing `result`")
                })?;
            let result = entries.swap_remove(at).1;
            Ok(Response::Ok { op, result })
        } else {
            let error = field("error").and_then(Value::as_map).ok_or_else(|| {
                WireError::new(ErrorCode::BadRequest, "response is missing `error`")
            })?;
            let get = |key: &str| {
                error
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_str())
                    .unwrap_or("")
                    .to_string()
            };
            let code = ErrorCode::parse(&get("code")).unwrap_or(ErrorCode::Internal);
            let retry_after_ms = error
                .iter()
                .find(|(k, _)| k == "retry_after_ms")
                .and_then(|(_, v)| v.as_u64());
            Ok(Response::Err(WireError {
                code,
                message: get("message"),
                retry_after_ms,
            }))
        }
    }
}

/// Interprets a 4-byte length prefix: the payload length it announces.
///
/// # Errors
///
/// Returns [`ErrorCode::BadFrame`] when the announced length exceeds
/// [`MAX_FRAME_LEN`].
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::new(
            ErrorCode::BadFrame,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    Ok(len)
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_LEN`] as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    check_payload_len(payload.len())?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(payload);
    send_frame(w, frame)
}

/// Serializes a JSON value and writes it as one frame. The JSON is
/// written straight after the frame's prefix, not copied there.
///
/// # Errors
///
/// Propagates [`write_frame`] errors.
pub fn write_value(w: &mut dyn Write, value: &Value) -> io::Result<()> {
    let mut frame = vec![0; 4];
    serde_json::to_writer(&mut frame, value)?;
    send_frame(w, frame)
}

/// Rejects a payload over [`MAX_FRAME_LEN`].
fn check_payload_len(len: usize) -> io::Result<()> {
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    Ok(())
}

/// Fills in the length prefix of `frame` (4 placeholder bytes, then the
/// payload) and writes it.
fn send_frame(w: &mut dyn Write, mut frame: Vec<u8>) -> io::Result<()> {
    let len = frame.len() - 4;
    check_payload_len(len)?;
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    // One write for prefix + payload: two writes would let Nagle hold
    // the payload back until the peer ACKs the 4-byte prefix — a
    // ~40 ms delayed-ACK stall per frame on loopback.
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame payload. Returns `Ok(None)` on clean EOF at a frame
/// boundary (the peer hung up between requests — not an error).
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] for EOF mid-frame,
/// [`io::ErrorKind::InvalidData`] for an oversized length prefix, and
/// any transport error.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => filled += n,
        }
    }
    let len =
        frame_len(prefix).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Reads one frame and parses it as a JSON value. `Ok(None)` on clean
/// EOF, like [`read_frame`].
///
/// # Errors
///
/// [`read_frame`] errors, plus [`io::ErrorKind::InvalidData`] when the
/// payload is not valid JSON.
pub fn read_value(r: &mut dyn Read) -> io::Result<Option<Value>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // 4-byte prefix + 2 of 5 payload bytes
        let mut cursor = io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // EOF inside the prefix itself is also mid-frame.
        let mut cursor = io::Cursor::new(vec![0u8, 0, 1]);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let prefix = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
        let err = frame_len(prefix).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadFrame);
        // The HTTP sniff byte pattern also decodes as an oversized
        // frame, so the grammars cannot alias.
        assert!(frame_len(HTTP_GET_PREFIX).is_err());
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
    }

    #[test]
    fn request_encodings_round_trip() {
        let requests = [
            Request::Ping,
            Request::Profile,
            Request::Trace,
            Request::Shutdown,
            Request::Analyze(SimSpec::default()),
            Request::Simulate {
                spec: SimSpec {
                    trials: 7,
                    ..SimSpec::default()
                },
                deadline_ms: None,
            },
            Request::Simulate {
                spec: SimSpec::default(),
                deadline_ms: Some(1_500),
            },
            Request::Sweep {
                specs: vec![
                    SimSpec::default(),
                    SimSpec {
                        seed: 3,
                        ..SimSpec::default()
                    },
                ],
                deadline_ms: None,
            },
            Request::Sweep {
                specs: vec![SimSpec::default()],
                deadline_ms: Some(30_000),
            },
        ];
        for req in requests {
            let text = serde_json::to_string(&req.to_value()).unwrap();
            let back = Request::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn request_decode_errors_carry_the_right_code() {
        let decode = |text: &str| Request::from_value(&serde_json::from_str(text).unwrap());
        assert_eq!(decode("[1]").unwrap_err().code, ErrorCode::BadRequest);
        assert_eq!(
            decode("{\"op\":\"ping\"}").unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            decode("{\"v\":9,\"op\":\"ping\"}").unwrap_err().code,
            ErrorCode::BadVersion
        );
        assert_eq!(
            decode("{\"v\":1,\"op\":\"dance\"}").unwrap_err().code,
            ErrorCode::UnknownOp
        );
        assert_eq!(
            decode("{\"v\":1,\"op\":\"simulate\"}").unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            decode("{\"v\":1,\"op\":\"simulate\",\"spec\":{\"tirals\":1}}")
                .unwrap_err()
                .code,
            ErrorCode::BadSpec
        );
        assert_eq!(
            decode("{\"v\":1,\"op\":\"sweep\",\"specs\":[{\"mapping\":3}]}")
                .unwrap_err()
                .code,
            ErrorCode::BadSpec
        );
    }

    #[test]
    fn response_encodings_round_trip() {
        let ok = Response::Ok {
            op: "ping".into(),
            result: serde_json::json!({"server": "sosd"}),
        };
        let err = Response::Err(WireError::new(ErrorCode::BadSpec, "unknown spec field `x`"));
        let busy = Response::Err(WireError::busy("admission queue full", 250));
        for resp in [ok, err, busy] {
            let text = serde_json::to_string(&resp.clone().into_value()).unwrap();
            let back = Response::from_value(serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn unknown_error_codes_degrade_to_internal() {
        let text = r#"{"v":1,"ok":false,"error":{"code":"too-new","message":"m"}}"#;
        let resp = Response::from_value(serde_json::from_str(text).unwrap()).unwrap();
        match resp {
            Response::Err(e) => {
                assert_eq!(e.code, ErrorCode::Internal);
                assert_eq!(e.message, "m");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
}

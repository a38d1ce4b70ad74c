//! A minimal blocking protocol client: connect, send one request
//! frame, read one response frame. This is everything `sos client`
//! and the integration tests need to drive a daemon.
//!
//! [`RetryClient`] wraps the raw [`Client`] in a
//! [`sos_faults::RetryPolicy`]-driven reconnect-and-retry loop for
//! *idempotent* requests: transport failures reconnect, `busy`
//! shedding honors the server's `retry_after_ms` hint, and every
//! other protocol error fails fast. `shutdown` is never retried — a
//! lost shutdown response is indistinguishable from a successful
//! drain, and re-sending could kill a freshly restarted daemon.

use crate::protocol::{self, ErrorCode, Request, Response, WireError};
use crate::spec::SimSpec;
use serde_json::Value;
use sos_faults::RetryPolicy;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The server answered with a protocol error response.
    Remote(WireError),
    /// The server's bytes did not decode as a valid response.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client. One request is in flight at a time;
/// the connection is reusable for any number of requests.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Sends one request and returns the response's `result` body.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server answers with an error
    /// response, [`ClientError::Io`]/[`ClientError::Protocol`] for
    /// transport or framing trouble.
    pub fn request(&mut self, request: &Request) -> Result<Value, ClientError> {
        self.call(&request.to_value())
    }

    /// Sends one encoded request object and returns the response's
    /// `result` body.
    fn call(&mut self, request: &Value) -> Result<Value, ClientError> {
        protocol::write_value(&mut self.stream, request)?;
        let value = protocol::read_value(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        match Response::from_value(value).map_err(|e| ClientError::Protocol(e.to_string()))? {
            Response::Ok { result, .. } => Ok(result),
            Response::Err(e) => Err(ClientError::Remote(e)),
        }
    }

    /// `ping` — liveness and version handshake.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn ping(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Ping)
    }

    /// `analyze` — closed-form analysis document for one spec.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn analyze(&mut self, spec: &SimSpec) -> Result<Value, ClientError> {
        self.request(&Request::Analyze(spec.clone()))
    }

    /// `simulate` — Monte Carlo result for one spec
    /// (`{fingerprint, cached, result}`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn simulate(&mut self, spec: &SimSpec) -> Result<Value, ClientError> {
        self.simulate_with(spec, None)
    }

    /// [`simulate`](Client::simulate) with an optional server-side
    /// deadline in milliseconds (the server sheds the request with
    /// `deadline-exceeded` instead of starting work it cannot finish
    /// in time).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn simulate_with(
        &mut self,
        spec: &SimSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        self.request(&Request::Simulate {
            spec: spec.clone(),
            deadline_ms,
        })
    }

    /// `sweep` — Monte Carlo results for many specs as one pool
    /// submission (`{results, stats}`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn sweep(&mut self, specs: &[SimSpec]) -> Result<Value, ClientError> {
        self.sweep_with(specs, None)
    }

    /// [`sweep`](Client::sweep) with an optional server-side deadline
    /// in milliseconds. A deadline makes the server execute point by
    /// point and stop cooperatively between points once the budget is
    /// spent; completed points are already durable in the cache
    /// journal, so a retry resumes where the cancelled sweep stopped.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn sweep_with(
        &mut self,
        specs: &[SimSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        self.call(&protocol::sweep_request(specs, deadline_ms))
    }

    /// `profile` — live telemetry snapshot (`{table, telemetry}`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn profile(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Profile)
    }

    /// `trace` — the flight recorder's recent spans as a Chrome
    /// trace-event document (`{spans, recorded, trace}`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn trace(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Trace)
    }

    /// `shutdown` — ask the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Shutdown)
    }
}

/// A reconnecting client that retries idempotent requests under a
/// [`RetryPolicy`] (ticks are interpreted as milliseconds here).
///
/// Retry classification per failed attempt:
///
/// - [`ClientError::Io`] / [`ClientError::Protocol`] — the connection
///   is suspect: drop it, back off, reconnect, re-send. Safe because
///   every request except `shutdown` is idempotent (`simulate` and
///   `sweep` are memoized by fingerprint, so a duplicate execution
///   returns the byte-identical cached result).
/// - [`ClientError::Remote`] with code `busy` — the server shed the
///   request under load; sleep `max(backoff, retry_after_ms)` and
///   re-send on the same connection.
/// - Any other [`ClientError::Remote`] — deterministic rejection
///   (bad spec, deadline exceeded, internal); retrying cannot help,
///   fail fast.
///
/// The policy's `deadline` bounds the *total* wall-clock budget in
/// milliseconds across all attempts (`u64::MAX` = unbounded).
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<Client>,
    retries: u64,
}

impl RetryClient {
    /// Creates a lazily-connecting retry client for `addr`. The first
    /// connection is made by the first request (and re-made after any
    /// transport failure).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            policy,
            client: None,
            retries: 0,
        }
    }

    /// Total retries performed over this client's lifetime (attempts
    /// beyond the first, across all requests).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends `request`, retrying per the policy. `shutdown` requests
    /// are passed through with exactly one attempt.
    ///
    /// # Errors
    ///
    /// The last attempt's error once attempts or the deadline budget
    /// are exhausted; non-retryable errors immediately.
    pub fn request(&mut self, request: &Request) -> Result<Value, ClientError> {
        self.call(&request.to_value(), !matches!(request, Request::Shutdown))
    }

    /// Sends one encoded request object, retrying per the policy when
    /// `retryable`.
    fn call(&mut self, request: &Value, retryable: bool) -> Result<Value, ClientError> {
        let started = Instant::now();
        let mut attempt = 1u32;
        loop {
            let result = self.attempt(request);
            let err = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            // Reconnect-worthy? Transport and framing errors poison
            // the connection; `busy` does not.
            let (reconnect, server_pause_ms) = match &err {
                ClientError::Io(_) | ClientError::Protocol(_) => (true, None),
                ClientError::Remote(remote) if remote.code == ErrorCode::Busy => {
                    (false, Some(remote.retry_after_ms.unwrap_or(0)))
                }
                ClientError::Remote(_) => return Err(err),
            };
            if !retryable || attempt >= self.policy.max_attempts {
                return Err(err);
            }
            if reconnect {
                self.client = None;
            }
            attempt += 1;
            let pause_ms = self
                .policy
                .backoff_before(attempt)
                .max(server_pause_ms.unwrap_or(0));
            let spent = started.elapsed().as_millis() as u64;
            if spent.saturating_add(pause_ms) >= self.policy.deadline {
                return Err(err);
            }
            if pause_ms > 0 {
                std::thread::sleep(Duration::from_millis(pause_ms));
            }
            self.retries += 1;
            sos_observe::telemetry::serve_retry();
        }
    }

    /// One connect-if-needed + send attempt.
    fn attempt(&mut self, request: &Value) -> Result<Value, ClientError> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr.as_str())?);
        }
        let client = self.client.as_mut().expect("client connected above");
        client.call(request)
    }

    /// Retried [`Client::ping`].
    ///
    /// # Errors
    ///
    /// See [`request`](RetryClient::request).
    pub fn ping(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Ping)
    }

    /// Retried [`Client::analyze`].
    ///
    /// # Errors
    ///
    /// See [`request`](RetryClient::request).
    pub fn analyze(&mut self, spec: &SimSpec) -> Result<Value, ClientError> {
        self.request(&Request::Analyze(spec.clone()))
    }

    /// Retried [`Client::profile`].
    ///
    /// # Errors
    ///
    /// See [`request`](RetryClient::request).
    pub fn profile(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Profile)
    }

    /// Retried [`Client::trace`] (idempotent: reading the flight
    /// recorder has no side effects).
    ///
    /// # Errors
    ///
    /// See [`request`](RetryClient::request).
    pub fn trace(&mut self) -> Result<Value, ClientError> {
        self.request(&Request::Trace)
    }

    /// Retried [`Client::simulate_with`].
    ///
    /// # Errors
    ///
    /// See [`request`](RetryClient::request).
    pub fn simulate_with(
        &mut self,
        spec: &SimSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        self.request(&Request::Simulate {
            spec: spec.clone(),
            deadline_ms,
        })
    }

    /// Retried [`Client::sweep_with`].
    ///
    /// # Errors
    ///
    /// See [`request`](RetryClient::request).
    pub fn sweep_with(
        &mut self,
        specs: &[SimSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Value, ClientError> {
        self.call(&protocol::sweep_request(specs, deadline_ms), true)
    }
}

//! `sos-serve` — the resident `sosd` analysis service.
//!
//! Every one-shot `sos` invocation pays full process startup for work
//! the workspace already knows how to amortize: a persistent
//! process-wide worker pool (`sos_sim::pool`), a content-addressed
//! sweep cache (`sos_sim::sweep`), and a lock-free telemetry plane
//! (`sos_observe::telemetry`). This crate turns those pieces into a
//! long-running daemon:
//!
//! * [`Server`] — a stdlib-TCP accept loop; each connection gets a
//!   reader thread, all requests share one warm
//!   [`SweepExecutor`](sos_sim::SweepExecutor), so repeated and
//!   overlapping requests are answered
//!   from the content-addressed result memory instead of re-simulated.
//! * [`protocol`] — the wire format: length-prefixed JSON frames,
//!   [`Request`]/[`Response`] types, error codes. `PROTOCOL.md` at the
//!   repository root is the field-by-field reference.
//! * [`spec`] — [`SimSpec`], the shared experiment grammar: the same
//!   field names, value grammar and defaults as the `sos` CLI flags,
//!   so a config described over the wire builds the same
//!   `SimulationConfig` (and hits the same cache entry) as the same
//!   config described with flags.
//! * [`Client`] — a blocking client (what `sos client` wraps).
//! * The same listener answers HTTP `GET /metrics` (Prometheus text
//!   exposition) and `GET /healthz` (JSON health/progress snapshot),
//!   so one port serves both protocol clients and scrapers.
//!
//! `OPERATIONS.md` at the repository root is the operator guide
//! (start/stop, cache persistence, scraping, capacity notes).
//!
//! # End-to-end example
//!
//! Bind to an ephemeral port, serve in the background, drive it with a
//! client, and shut it down gracefully:
//!
//! ```
//! use sos_serve::{Client, Server, ServerOptions, SimSpec};
//!
//! // Bind port 0 → the OS picks a free port; run in the background.
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(addr)?;
//!
//! // Liveness + version handshake.
//! let pong = client.ping().expect("ping");
//! assert_eq!(pong["protocol"].as_u64(), Some(1));
//!
//! // Closed-form analysis of the paper's default configuration.
//! let doc = client.analyze(&SimSpec::default()).expect("analyze");
//! let ps = doc["ps"].as_f64().expect("ps");
//! assert!(ps > 0.0 && ps < 1.0);
//!
//! // Monte Carlo: the first run computes, the repeat is a cache hit
//! // with a byte-identical result.
//! let spec = SimSpec {
//!     overlay_nodes: 500,
//!     sos_nodes: 50,
//!     nt: 10,
//!     nc: 50,
//!     trials: 4,
//!     routes: 10,
//!     ..SimSpec::default()
//! };
//! let cold = client.simulate(&spec).expect("simulate");
//! let warm = client.simulate(&spec).expect("simulate again");
//! assert_eq!(cold["cached"], serde_json::Value::Bool(false));
//! assert_eq!(warm["cached"], serde_json::Value::Bool(true));
//! assert_eq!(
//!     serde_json::to_string(&cold["result"]).unwrap(),
//!     serde_json::to_string(&warm["result"]).unwrap(),
//! );
//!
//! // Drain and stop.
//! client.shutdown().expect("shutdown");
//! let report = handle.join()?;
//! assert!(report.requests >= 4);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod spec;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use client::{Client, ClientError, RetryClient};
pub use protocol::{ErrorCode, Request, Response, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{Server, ServerHandle, ServerOptions, ServerReport};
pub use sos_faults::RetryPolicy;
pub use spec::{analyze_doc, analyze_outcome, AnalyzeOutcome, SimSpec, SpecError};

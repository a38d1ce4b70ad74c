//! Deterministic in-process TCP fault proxy for chaos testing.
//!
//! Sits between a protocol client and a running `sosd`, forwarding
//! bytes both ways while injecting transport faults — dropped
//! connections, truncated response frames, read stalls — decided
//! *deterministically* from a seed, the same way the simulation's own
//! fault plane works: every decision is a pure function of
//! `(seed, stream, connection index)` through the shared
//! [`sos_faults::splitmix64`] PRF, so a failing chaos test replays
//! bit-for-bit from its seed.
//!
//! The proxy is protocol-agnostic (it never parses frames); faults are
//! expressed in bytes and milliseconds. Truncation limits are chosen
//! smaller than any response frame (4-byte header + JSON body), so a
//! truncated connection always cuts a frame mid-flight.
//!
//! ```no_run
//! use sos_serve::{ChaosConfig, ChaosProxy};
//!
//! let upstream: std::net::SocketAddr = "127.0.0.1:7070".parse().unwrap();
//! let proxy = ChaosProxy::start(upstream, ChaosConfig {
//!     seed: 7,
//!     drop_rate: 0.3,
//!     ..ChaosConfig::default()
//! })?;
//! // point a RetryClient at proxy.addr() instead of the daemon ...
//! let stats = proxy.stop();
//! assert_eq!(stats.connections, stats.dropped + stats.truncated + stats.stalled + stats.clean);
//! # Ok::<(), std::io::Error>(())
//! ```

use sos_faults::{splitmix64, unit};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Domain-separation tags for the proxy's PRF streams (one per fault
/// class, so tuning one rate never shifts another class's decisions).
const STREAM_DROP: u64 = 0xC4A0_5501;
const STREAM_TRUNCATE: u64 = 0xC4A0_5502;
const STREAM_STALL: u64 = 0xC4A0_5503;
const STREAM_LIMIT: u64 = 0xC4A0_5504;

/// Largest truncation limit in bytes. Every protocol response is at
/// least a 4-byte length prefix plus a JSON object, so cutting within
/// the first [`1`, `TRUNCATE_MAX_BYTES`] bytes always tears a frame.
const TRUNCATE_MAX_BYTES: u64 = 8;

/// Per-connection fault rates and the seed they are drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the decision PRF; same seed, same fault schedule.
    pub seed: u64,
    /// Probability a connection is dropped on accept — the client
    /// sees EOF before any response byte.
    pub drop_rate: f64,
    /// Probability (of the remainder) a connection's *response* bytes
    /// are cut off mid-frame after 1–8 bytes.
    pub truncate_rate: f64,
    /// Probability (of the remainder) the response is stalled by
    /// [`stall_ms`](ChaosConfig::stall_ms) before the first byte.
    pub stall_rate: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 10,
        }
    }
}

/// What the proxy decided for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Clean,
    Drop,
    /// Forward only this many response bytes, then cut the connection.
    Truncate(u64),
    /// Delay the response by this many milliseconds, then forward
    /// normally.
    Stall(u64),
}

impl ChaosConfig {
    /// The deterministic fault decision for the `k`-th accepted
    /// connection. Classes are checked in fixed order (drop, truncate,
    /// stall) with independent PRF streams.
    fn decide(&self, k: u64) -> Decision {
        let draw = |stream: u64| unit(splitmix64(self.seed ^ splitmix64(stream.wrapping_add(k))));
        if self.drop_rate > 0.0 && draw(STREAM_DROP) < self.drop_rate {
            return Decision::Drop;
        }
        if self.truncate_rate > 0.0 && draw(STREAM_TRUNCATE) < self.truncate_rate {
            let raw = splitmix64(self.seed ^ splitmix64(STREAM_LIMIT.wrapping_add(k)));
            return Decision::Truncate(1 + raw % TRUNCATE_MAX_BYTES);
        }
        if self.stall_rate > 0.0 && draw(STREAM_STALL) < self.stall_rate {
            return Decision::Stall(self.stall_ms);
        }
        Decision::Clean
    }
}

/// Counters of what the proxy did, snapshot by [`ChaosProxy::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted (equals the sum of the outcome counters).
    pub connections: u64,
    /// Connections dropped on accept.
    pub dropped: u64,
    /// Connections whose response was truncated mid-frame.
    pub truncated: u64,
    /// Connections whose response was stalled.
    pub stalled: u64,
    /// Connections forwarded without any injected fault.
    pub clean: u64,
}

struct ProxyShared {
    cfg: ChaosConfig,
    upstream: SocketAddr,
    stop: AtomicBool,
    connections: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
    stalled: AtomicU64,
    clean: AtomicU64,
}

/// A running fault proxy; see the [module docs](self) for usage.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts forwarding every
    /// accepted connection to `upstream` under `cfg`'s fault schedule.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn start(upstream: SocketAddr, cfg: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            cfg,
            upstream,
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            clean: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(String::from("sos-chaos-accept"))
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn chaos accept loop");
        Ok(ChaosProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point clients here instead of at
    /// the daemon.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live outcome counters.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            truncated: self.shared.truncated.load(Ordering::Relaxed),
            stalled: self.shared.stalled.load(Ordering::Relaxed),
            clean: self.shared.clean.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, joins the accept loop, and returns the final
    /// counters. In-flight forwarded connections finish on their own.
    pub fn stop(mut self) -> ChaosStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let client = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let k = shared.connections.fetch_add(1, Ordering::Relaxed);
        let decision = shared.cfg.decide(k);
        let conn_shared = Arc::clone(shared);
        // Detached: a forwarded connection ends when either side
        // closes; nothing here outlives the test process.
        let _ = std::thread::Builder::new()
            .name(format!("sos-chaos-conn-{k}"))
            .spawn(move || handle(client, decision, &conn_shared));
    }
}

/// Applies `decision` to one accepted connection.
fn handle(client: TcpStream, decision: Decision, shared: &ProxyShared) {
    if decision == Decision::Drop {
        shared.dropped.fetch_add(1, Ordering::Relaxed);
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let upstream = match TcpStream::connect(shared.upstream) {
        Ok(s) => s,
        Err(_) => {
            // Upstream gone (e.g. daemon killed mid-test): the client
            // sees the same thing as a drop.
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    client.set_nodelay(true).ok();
    upstream.set_nodelay(true).ok();
    let (counter, response_limit, response_delay) = match decision {
        Decision::Truncate(limit) => (&shared.truncated, Some(limit), None),
        Decision::Stall(ms) => (&shared.stalled, None, Some(Duration::from_millis(ms))),
        _ => (&shared.clean, None, None),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    // Request direction: forward freely. Response direction: apply the
    // byte limit / delay. Each direction pumps on its own thread and
    // tears down both sockets when it finishes, which unblocks the
    // other pump.
    let c2u = (client.try_clone().ok(), upstream.try_clone().ok());
    let request_pump = match c2u {
        (Some(from), Some(to)) => std::thread::Builder::new()
            .name(String::from("sos-chaos-up"))
            .spawn(move || pump(from, to, None, None))
            .ok(),
        _ => None,
    };
    pump(upstream, client, response_limit, response_delay);
    if let Some(handle) = request_pump {
        let _ = handle.join();
    }
}

/// Copies bytes `from` → `to` until EOF, error, or `limit` forwarded
/// bytes, optionally delaying before the first byte; then shuts both
/// streams down.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    limit: Option<u64>,
    initial_delay: Option<Duration>,
) {
    let mut delayed = initial_delay;
    let mut forwarded: u64 = 0;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(delay) = delayed.take() {
            std::thread::sleep(delay);
        }
        let allowed = match limit {
            Some(cap) => {
                let room = cap.saturating_sub(forwarded);
                (n as u64).min(room) as usize
            }
            None => n,
        };
        if allowed > 0 && to.write_all(&buf[..allowed]).is_err() {
            break;
        }
        forwarded += allowed as u64;
        if limit.is_some_and(|cap| forwarded >= cap) {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let cfg = ChaosConfig {
            seed: 42,
            drop_rate: 0.3,
            truncate_rate: 0.3,
            stall_rate: 0.2,
            stall_ms: 5,
        };
        let a: Vec<_> = (0..256).map(|k| cfg.decide(k)).collect();
        let b: Vec<_> = (0..256).map(|k| cfg.decide(k)).collect();
        assert_eq!(a, b);
        let other = ChaosConfig { seed: 43, ..cfg };
        let c: Vec<_> = (0..256).map(|k| other.decide(k)).collect();
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn zero_rates_are_always_clean() {
        let cfg = ChaosConfig {
            seed: 9,
            ..ChaosConfig::default()
        };
        assert!((0..512).all(|k| cfg.decide(k) == Decision::Clean));
    }

    #[test]
    fn rates_hit_expected_frequencies() {
        let cfg = ChaosConfig {
            seed: 1234,
            drop_rate: 0.25,
            truncate_rate: 0.25,
            stall_rate: 0.25,
            stall_ms: 1,
        };
        let n = 20_000u64;
        let mut dropped = 0u64;
        let mut truncated = 0u64;
        let mut stalled = 0u64;
        for k in 0..n {
            match cfg.decide(k) {
                Decision::Drop => dropped += 1,
                Decision::Truncate(limit) => {
                    assert!((1..=TRUNCATE_MAX_BYTES).contains(&limit));
                    truncated += 1;
                }
                Decision::Stall(ms) => {
                    assert_eq!(ms, 1);
                    stalled += 1;
                }
                Decision::Clean => {}
            }
        }
        let freq = |count: u64| count as f64 / n as f64;
        assert!(
            (freq(dropped) - 0.25).abs() < 0.02,
            "drop {}",
            freq(dropped)
        );
        // truncate/stall rates apply to the remainder after earlier
        // classes: 0.75 * 0.25 and 0.75 * 0.75 * 0.25.
        assert!(
            (freq(truncated) - 0.1875).abs() < 0.02,
            "truncate {}",
            freq(truncated)
        );
        assert!(
            (freq(stalled) - 0.1406).abs() < 0.02,
            "stall {}",
            freq(stalled)
        );
    }

    #[test]
    fn proxy_forwards_cleanly_at_zero_rates() {
        // Echo upstream: reads one line, writes it back.
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().expect("accept");
            let mut buf = [0u8; 64];
            let n = conn.read(&mut buf).expect("read");
            conn.write_all(&buf[..n]).expect("write");
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosConfig::default()).expect("start");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"ping\n").expect("send");
        let mut reply = [0u8; 5];
        client
            .read_exact(&mut reply)
            .expect("echoed back through proxy");
        assert_eq!(&reply, b"ping\n");
        drop(client);
        echo.join().expect("echo thread");
        let stats = proxy.stop();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.clean, 1);
        assert_eq!(stats.dropped + stats.truncated + stats.stalled, 0);
    }
}

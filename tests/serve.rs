//! End-to-end tests for the resident `sosd` service (`sos-serve`):
//! daemon answers over the wire protocol, results are byte-identical
//! to direct executor runs, repeats are served from the warm cache,
//! the same port speaks HTTP for `/metrics` + `/healthz` +
//! `/debug/trace`, every response carries a `request_id`/`timing`/
//! `served_from` envelope, protocol errors carry stable codes, and
//! shutdown drains cleanly.
//!
//! Global-counter caveat: these tests share one process, so telemetry
//! counters (per-op requests, cache hits) and the flight recorder are
//! cross-contaminated between concurrently-running daemons —
//! assertions on them are monotone (`>=`), while executor-local facts
//! (`served_from`, stats deltas) are exact.

use serde_json::Value;
use sos_serve::{protocol, Client, ClientError, Server, ServerHandle, ServerOptions, SimSpec};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

fn small_spec(seed: u64) -> SimSpec {
    SimSpec {
        overlay_nodes: 400,
        sos_nodes: 40,
        nt: 10,
        nc: 40,
        trials: 3,
        routes: 10,
        seed,
        ..SimSpec::default()
    }
}

fn start(opts: ServerOptions) -> (SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", opts).expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, server.spawn())
}

fn compact(value: &Value) -> String {
    serde_json::to_string(value).expect("serialize")
}

#[test]
fn ping_and_analyze_match_direct_evaluation() {
    let (addr, handle) = start(ServerOptions::default());
    let mut client = Client::connect(addr).expect("connect");

    let pong = client.ping().expect("ping");
    assert_eq!(pong["server"].as_str(), Some("sosd"));
    assert_eq!(pong["protocol"].as_u64(), Some(1));

    // The daemon's analyze document is exactly what direct in-process
    // evaluation of the same spec produces.
    let spec = SimSpec {
        layers: 4,
        ..SimSpec::default()
    };
    let mut served = client.analyze(&spec).expect("analyze");
    // Strip the per-request envelope (request_id, timing): the
    // payload underneath must be byte-identical to direct evaluation.
    if let Value::Map(entries) = &mut served {
        entries.retain(|(k, _)| k != "request_id" && k != "timing");
    }
    let scenario = spec.scenario().expect("scenario");
    let attack = spec.attack().expect("attack");
    let evaluator = spec.evaluator().expect("evaluator");
    let outcome = sos_serve::analyze_outcome(&scenario, &attack, evaluator).expect("outcome");
    let direct = sos_serve::analyze_doc(&scenario, &attack, evaluator, &outcome);
    assert_eq!(compact(&served), compact(&direct));

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert!(report.requests >= 3, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
}

#[test]
fn single_thread_simulate_is_byte_identical_and_cached_on_repeat() {
    // One worker thread → the cold execution is deterministic, so the
    // served result must match a direct single-threaded run byte for
    // byte (the repeat must match verbatim regardless: it is answered
    // from the result memory).
    let (addr, handle) = start(ServerOptions {
        threads: Some(1),
        cache: None,
        ..ServerOptions::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let spec = small_spec(7);
    let config = spec.sim_config().expect("config");

    let cold = client.simulate(&spec).expect("cold simulate");
    assert_eq!(cold["cached"], Value::Bool(false));
    assert_eq!(
        cold["fingerprint"].as_str(),
        Some(format!("{:016x}", sos_sim::config_fingerprint(&config)).as_str())
    );
    let direct = sos_sim::SweepExecutor::with_threads(1).run_one(&config);
    assert_eq!(compact(&cold["result"]), compact(&serde_json::to_value(&direct)));

    let warm = client.simulate(&spec).expect("warm simulate");
    assert_eq!(warm["cached"], Value::Bool(true));
    assert_eq!(compact(&cold["result"]), compact(&warm["result"]));

    // The sweep op answers the same point from cache too and says so
    // in its stats.
    let sweep = client.sweep(&[spec.clone(), small_spec(8)]).expect("sweep");
    let results = sweep["results"].as_array().expect("results");
    assert_eq!(results.len(), 2);
    assert_eq!(compact(&results[0]["result"]), compact(&cold["result"]));
    assert!(sweep["stats"]["cache_hits"].as_u64().expect("stats") >= 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn concurrent_clients_share_the_warm_cache() {
    let cache = std::env::temp_dir().join(format!(
        "sos-serve-test-concurrent-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);

    // Pre-warm the cache file with direct single-threaded runs; the
    // daemon then starts warm and every concurrent client must get the
    // stored bytes back verbatim.
    let specs: Vec<SimSpec> = (0..4).map(|i| small_spec(100 + i)).collect();
    let mut exec = sos_sim::SweepExecutor::with_threads(1);
    exec.attach_cache(&cache).expect("attach cache");
    let direct: Vec<String> = specs
        .iter()
        .map(|s| compact(&serde_json::to_value(&exec.run_one(&s.sim_config().expect("config")))))
        .collect();
    drop(exec);

    let (addr, handle) = start(ServerOptions {
        threads: Some(2),
        cache: Some(cache.clone()),
        ..ServerOptions::default()
    });
    let workers: Vec<_> = specs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, spec)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let body = client.simulate(&spec).expect("simulate");
                (
                    i,
                    compact(&body["result"]),
                    body["cached"] == Value::Bool(true),
                )
            })
        })
        .collect();
    for worker in workers {
        let (i, result, cached) = worker.join().expect("client thread");
        assert!(cached, "point {i} should be a warm cache hit");
        assert_eq!(result, direct[i], "point {i} bytes differ");
    }

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let report = handle.join().expect("join");
    assert!(report.connections >= 5, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    let _ = std::fs::remove_file(&cache);
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: sosd\r\n\r\n").expect("write");
    let mut body = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut body).expect("read");
    String::from_utf8(body).expect("utf8 response")
}

#[test]
fn http_metrics_and_healthz_share_the_protocol_port() {
    let (addr, handle) = start(ServerOptions {
        threads: Some(1),
        cache: None,
        ..ServerOptions::default()
    });

    // Run one simulate first so the phase/worker series have samples.
    Client::connect(addr)
        .expect("connect")
        .simulate(&small_spec(17))
        .expect("simulate");

    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4"),
        "{metrics}"
    );
    for series in [
        "sos_trials_total",
        "sos_routes_total",
        "sos_sweep_points_done",
        "sos_worker_trials_total",
        "sos_phase_seconds_total{phase=\"build\"}",
        "sos_phase_ns{phase=\"routing\",quantile=\"0.95\"}",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    let body = health.split("\r\n\r\n").nth(1).expect("health body");
    let doc: Value = serde_json::from_str(body).expect("health JSON parses");
    assert_eq!(doc["status"].as_str(), Some("ok"));
    assert!(doc["requests"].as_u64().expect("requests") >= 1);
    assert_eq!(doc["in_flight"].as_u64(), Some(0));
    assert_eq!(doc["queue_depth"].as_u64(), Some(16));
    assert_eq!(
        doc["last_persist_age_s"],
        Value::Null,
        "no cache attached, so never persisted"
    );
    assert_eq!(doc["sweep"]["points"].as_u64(), Some(1));
    assert!(doc["telemetry"]["trials"].as_u64().is_some());
    assert!(doc["telemetry"]["serve_shed"].as_u64().is_some());

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let report = handle.join().expect("join");
    assert!(report.http_requests >= 3, "{report:?}");
}

#[test]
fn responses_carry_request_id_timing_and_served_from() {
    let (addr, handle) = start(ServerOptions {
        threads: Some(1),
        cache: None,
        ..ServerOptions::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let spec = small_spec(907);
    let cold_started = std::time::Instant::now();
    let cold = client.simulate(&spec).expect("cold simulate");
    let cold_rtt_ns = u64::try_from(cold_started.elapsed().as_nanos()).unwrap();
    let warm = client.simulate(&spec).expect("warm simulate");

    // served_from reflects the executor's own stats deltas: a cold
    // point is computed, its repeat is answered from the memo.
    assert_eq!(cold["served_from"].as_str(), Some("computed"));
    assert_eq!(warm["served_from"].as_str(), Some("cache"));

    // Request ids are monotonic per daemon and echoed per response.
    let cold_id = cold["request_id"].as_u64().expect("cold request_id");
    let warm_id = warm["request_id"].as_u64().expect("warm request_id");
    assert!(warm_id > cold_id, "ids must increase: {cold_id} then {warm_id}");

    // The timing doc is a complete breakdown, and the server's total
    // is bounded by what this client observed around the call.
    for body in [&cold, &warm] {
        for key in [
            "total_ns",
            "decode_ns",
            "queue_ns",
            "lock_ns",
            "build_ns",
            "break_in_ns",
            "congestion_ns",
            "routing_ns",
            "trials",
            "cache_hits",
            "builds_reused",
        ] {
            assert!(
                body["timing"][key].as_u64().is_some(),
                "missing timing key {key}: {body:?}"
            );
        }
    }
    let cold_total = cold["timing"]["total_ns"].as_u64().expect("total_ns");
    assert!(cold_total > 0, "a computed request takes measurable time");
    assert!(
        cold_total <= cold_rtt_ns,
        "server-attributed time ({cold_total} ns) cannot exceed the \
         client-observed RTT ({cold_rtt_ns} ns)"
    );
    assert!(
        cold["timing"]["trials"].as_u64().expect("trials") >= 3,
        "the cold request executed the spec's trials"
    );

    // Sweep classification: all-warm → cache, warm+cold mix → partial.
    let mixed = client
        .sweep(&[spec.clone(), small_spec(908)])
        .expect("mixed sweep");
    assert_eq!(mixed["served_from"].as_str(), Some("partial"));
    let all_warm = client.sweep(std::slice::from_ref(&spec)).expect("warm sweep");
    assert_eq!(all_warm["served_from"].as_str(), Some("cache"));
    let all_cold = client.sweep(&[small_spec(909)]).expect("cold sweep");
    assert_eq!(all_cold["served_from"].as_str(), Some("computed"));

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn trace_op_and_debug_trace_serve_chrome_trace_json() {
    let (addr, handle) = start(ServerOptions {
        threads: Some(1),
        cache: None,
        ..ServerOptions::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // One cold simulate populates the flight recorder with a request
    // root span plus executor child spans.
    client.simulate(&small_spec(611)).expect("simulate");

    let body = client.trace().expect("trace op");
    assert!(body["spans"].as_u64().expect("spans") >= 1);
    assert!(body["recorded"].as_u64().expect("recorded") >= 1);
    let events = body["trace"]["traceEvents"].as_array().expect("traceEvents");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e["name"].as_str())
        .collect();
    assert!(
        names.contains(&"request:simulate"),
        "missing request root span in {names:?}"
    );
    assert!(
        names.contains(&"cache-probe"),
        "missing cache-probe span in {names:?}"
    );

    // The HTTP endpoint serves the same document shape.
    let http = http_get(addr, "/debug/trace");
    assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
    let doc_body = http.split("\r\n\r\n").nth(1).expect("trace body");
    let doc: Value = serde_json::from_str(doc_body).expect("Chrome trace JSON parses");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    assert!(!doc["traceEvents"].as_array().expect("array").is_empty());

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn healthz_reports_per_op_counters_and_slow_requests() {
    let (addr, handle) = start(ServerOptions {
        threads: Some(1),
        cache: None,
        // Threshold 0: every request counts as slow, so the counter
        // and the log line provably fire.
        slow_ms: Some(0),
        slow_log: Some(std::env::temp_dir().join(format!(
            "sos-serve-test-slowlog-{}.jsonl",
            std::process::id()
        ))),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    client.simulate(&small_spec(713)).expect("simulate");

    let health = http_get(addr, "/healthz");
    let body = health.split("\r\n\r\n").nth(1).expect("health body");
    let doc: Value = serde_json::from_str(body).expect("health JSON parses");
    // Counters are process-global (shared with concurrent tests), so
    // assert presence and monotone floors only.
    for op in ["ping", "analyze", "simulate", "sweep", "profile", "shutdown", "trace"] {
        assert!(
            doc["requests_by_op"][op].as_u64().is_some(),
            "missing per-op counter {op}: {doc:?}"
        );
    }
    assert!(doc["requests_by_op"]["ping"].as_u64().expect("ping count") >= 1);
    assert!(doc["requests_by_op"]["simulate"].as_u64().expect("simulate count") >= 1);
    assert!(doc["slow_requests_total"].as_u64().expect("slow total") >= 2);

    // The slow log got structured JSONL lines for both requests.
    let log_path = std::env::temp_dir().join(format!(
        "sos-serve-test-slowlog-{}.jsonl",
        std::process::id()
    ));
    let log = std::fs::read_to_string(&log_path).expect("slow log exists");
    let slow_lines: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"slow_request\""))
        .collect();
    assert!(slow_lines.len() >= 2, "expected slow lines, got:\n{log}");
    for line in slow_lines {
        let parsed: Value = serde_json::from_str(line).expect("slow line parses");
        assert!(parsed["slow_request"]["request_id"].as_u64().is_some());
        assert!(parsed["slow_request"]["timing"]["total_ns"].as_u64().is_some());
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    let _ = std::fs::remove_file(&log_path);
}

/// Sends one raw frame and reads the error response's code.
fn error_code_for(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    protocol::write_frame(&mut stream, payload).expect("write frame");
    let reply = protocol::read_value(&mut stream)
        .expect("read reply")
        .expect("reply frame");
    assert_eq!(reply["ok"], Value::Bool(false), "{reply:?}");
    reply["error"]["code"].as_str().expect("code").to_string()
}

#[test]
fn protocol_errors_carry_stable_codes() {
    let (addr, handle) = start(ServerOptions::default());

    assert_eq!(error_code_for(addr, b"{not json"), "bad-json");
    assert_eq!(
        error_code_for(addr, br#"{"v":2,"op":"ping"}"#),
        "bad-version"
    );
    assert_eq!(
        error_code_for(addr, br#"{"v":1,"op":"dance"}"#),
        "unknown-op"
    );
    assert_eq!(
        error_code_for(addr, br#"{"v":1,"op":"simulate","spec":{"trials":0}}"#),
        "bad-spec"
    );

    // A small frame nested far deeper than a connection thread's stack
    // could recurse is bad-json, and the daemon keeps serving.
    assert_eq!(error_code_for(addr, "[".repeat(20_004).as_bytes()), "bad-json");
    let mut client = Client::connect(addr).expect("connect after deep nesting");
    assert_eq!(client.ping().expect("ping after deep nesting")["server"].as_str(), Some("sosd"));

    // An oversized length prefix is answered with bad-frame, then the
    // connection is closed without reading the body.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&(u32::try_from(protocol::MAX_FRAME_LEN + 1).unwrap()).to_be_bytes())
        .expect("write prefix");
    let reply = protocol::read_value(&mut stream)
        .expect("read reply")
        .expect("reply frame");
    assert_eq!(reply["error"]["code"].as_str(), Some("bad-frame"));
    assert!(protocol::read_value(&mut stream)
        .expect("closed cleanly")
        .is_none());

    // A typed client surfaces remote errors as ClientError::Remote.
    let mut client = Client::connect(addr).expect("connect");
    let bad = SimSpec {
        mapping: "one-to-zero".into(),
        ..small_spec(1)
    };
    match client.simulate(&bad) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code.as_str(), "bad-spec"),
        other => panic!("expected a remote bad-spec error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert!(report.errors >= 6, "{report:?}");
}

#[test]
fn shutdown_drains_persists_and_releases_the_port() {
    let cache = std::env::temp_dir().join(format!(
        "sos-serve-test-shutdown-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);

    let (addr, handle) = start(ServerOptions {
        threads: Some(1),
        cache: Some(cache.clone()),
        ..ServerOptions::default()
    });
    let spec = small_spec(55);
    let config = spec.sim_config().expect("config");
    let served = {
        let mut client = Client::connect(addr).expect("connect");
        let body = client.simulate(&spec).expect("simulate");
        client.shutdown().expect("shutdown");
        compact(&body["result"])
    };
    let report = handle.join().expect("join");
    assert!(report.cached_points >= 1, "{report:?}");

    // The persisted cache warm-starts a fresh executor: the same point
    // is answered without executing, with the served bytes.
    let mut exec = sos_sim::SweepExecutor::with_threads(1);
    let loaded = exec.attach_cache(&cache).expect("attach persisted cache");
    assert!(loaded >= 1, "cache file should hold the executed point");
    let executed_before = exec.stats().points_executed;
    let replayed = exec.run_one(&config);
    assert_eq!(exec.stats().points_executed, executed_before);
    assert_eq!(compact(&serde_json::to_value(&replayed)), served);

    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
    let _ = std::fs::remove_file(&cache);
}

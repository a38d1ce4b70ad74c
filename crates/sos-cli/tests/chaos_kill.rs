//! Crash-recovery test against the real `sos` binary: a daemon is
//! SIGKILLed while resident (its only durable state the append
//! journal — the main cache file is rewritten only on graceful drain),
//! then restarted on the same cache path. The restarted daemon must
//! answer the same sweep entirely warm, byte-identical to the
//! pre-crash results.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sos")
}

/// Spawns `sos serve` on an ephemeral port with one worker thread and
/// returns the child plus the bound address (parsed from the
/// readiness line).
fn spawn_daemon(cache: &Path) -> (Child, String) {
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--cache",
        ])
        .arg(cache)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sosd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read readiness line");
    assert!(
        line.contains("sosd listening on"),
        "unexpected readiness line: {line:?}"
    );
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address token")
        .to_string();
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr)
}

/// Runs `sos client <args> --addr <addr>` and returns stdout.
fn client(addr: &str, args: &[&str]) -> String {
    let output = Command::new(bin())
        .arg("client")
        .args(args)
        .args(["--addr", addr])
        .output()
        .expect("run sos client");
    assert!(
        output.status.success(),
        "sos client {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

fn compact(value: &serde_json::Value) -> String {
    serde_json::to_string(value).expect("serialize")
}

#[test]
fn sigkilled_daemon_restarts_with_byte_identical_warm_answers() {
    let dir = std::env::temp_dir().join(format!("sos-chaos-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cache = dir.join("cache.json");
    let journal = dir.join("cache.json.journal");

    // Three small distinct sweep points, described the same way a
    // scripted operator would.
    let specs = dir.join("specs.json");
    std::fs::write(
        &specs,
        r#"[
            {"overlay_nodes": 400, "sos_nodes": 40, "nt": 10, "nc": 40, "trials": 2, "routes": 8, "seed": 1},
            {"overlay_nodes": 400, "sos_nodes": 40, "nt": 10, "nc": 40, "trials": 2, "routes": 8, "seed": 2},
            {"overlay_nodes": 400, "sos_nodes": 40, "nt": 10, "nc": 40, "trials": 2, "routes": 8, "seed": 3}
        ]"#,
    )
    .expect("write specs file");
    let specs_arg = specs.display().to_string();

    // Run the sweep; every completed point is journaled before the
    // response frame is written, so durability needs no polling.
    let (mut daemon_a, addr_a) = spawn_daemon(&cache);
    let before: serde_json::Value =
        serde_json::from_str(&client(&addr_a, &["sweep", "--specs", &specs_arg]))
            .expect("parse sweep reply");
    assert_eq!(before["stats"]["points_executed"].as_u64(), Some(3));
    let journal_len = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    assert!(
        journal_len > 0,
        "completed points must already be journaled"
    );

    // Crash: SIGKILL, no drain, no cache rewrite.
    daemon_a.kill().expect("SIGKILL daemon");
    daemon_a.wait().expect("reap daemon");

    // Restart on the same cache path: the journal is replayed, so the
    // same sweep is answered fully warm and byte-identical.
    let (mut daemon_b, addr_b) = spawn_daemon(&cache);
    let after: serde_json::Value =
        serde_json::from_str(&client(&addr_b, &["sweep", "--specs", &specs_arg]))
            .expect("parse sweep reply");
    assert_eq!(
        compact(&after["results"]),
        compact(&before["results"]),
        "post-crash warm results must be byte-identical"
    );
    assert_eq!(
        after["stats"]["cache_hits"].as_u64(),
        Some(3),
        "every point must come from the recovered journal: {}",
        compact(&after["stats"])
    );

    // Graceful drain compacts: the journal folds into the main file.
    client(&addr_b, &["shutdown"]);
    daemon_b.wait().expect("reap daemon");
    assert!(cache.exists(), "drain must persist the main cache file");
    assert!(!journal.exists(), "drain must compact the journal away");

    std::fs::remove_dir_all(&dir).ok();
}

//! Every workload, each run in its own child process (so `VmHWM` is per
//! workload): one warm-up run, then [`REPS`] runs on consecutive seeds,
//! each `run_seconds` long. Prints `workload metric median IQR unit`
//! for every end-to-end metric and writes `bench/out/latest.json`;
//! `--traced` adds one traced run per workload and writes
//! `bench/out/layers.json` and `bench/out/trace.json`.

use crate::catalog::{run_seconds, DEFAULT_SEED, END_TO_END, WORKLOADS};
use crate::{flag, parse_flags, read_json as read, stats};
use serde_json::{json, Value};
use std::process::{Command, ExitCode, Stdio};

/// Measured runs per workload in full mode.
const REPS: u64 = 5;

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["seed"], &["quick", "traced"])?;
    let quick = flags.contains_key("quick");
    let seed: u64 = flag(&flags, "seed", DEFAULT_SEED)?;
    // Quick mode checks correctness and the output schema only: one
    // 1-second run per workload, no warm-up, no timing gate.
    let (reps, seconds) = if quick {
        (1, 1.0)
    } else {
        (REPS, run_seconds()?)
    };
    let traced = flags.contains_key("traced");
    let exe = std::env::current_exe().map_err(|e| format!("locating sosbench: {e}"))?;
    std::fs::create_dir_all("bench/out").map_err(|e| format!("creating bench/out: {e}"))?;

    let mut ok = true;
    let mut docs = Vec::new();
    let mut layer_docs = Vec::new();
    let mut events = Vec::new();
    println!("workload metric median IQR unit");
    for workload in WORKLOADS {
        let run = |seed: u64, trace: bool| child(&exe, workload, seed, seconds, trace);
        if !quick {
            run(seed + 1_000, false)?;
        }
        let mut runs = Vec::new();
        for rep in 0..reps {
            let doc = run(seed + rep, false)?;
            ok &= doc["correct"] == Value::Bool(true);
            runs.push(doc);
        }
        let mut summary = Vec::new();
        for metric in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r["metrics"][metric.name]["value"]
                        .as_f64()
                        .ok_or(metric.name)
                })
                .collect::<Result<_, _>>()
                .map_err(|m| format!("{workload}: run did not report {m}"))?;
            let (median, iqr) = (stats::median(&values), stats::iqr(&values));
            println!(
                "{workload} {} {median:.6} {iqr:.6} {}",
                metric.name, metric.unit
            );
            summary.push((
                metric.name.to_string(),
                json!({ "median": median, "iqr": iqr, "unit": metric.unit, "values": values }),
            ));
        }
        docs.push(json!({ "name": workload, "runs": runs, "summary": Value::Map(summary) }));
        if traced {
            let doc = run(seed, true)?;
            ok &= doc["correct"] == Value::Bool(true);
            let layers = read(&format!("bench/out/layers-{workload}.json"))?;
            layer_docs.push((workload.to_string(), layers));
            let trace = read(&format!("bench/out/trace-{workload}.json"))?;
            events.extend(trace["traceEvents"].as_array().cloned().unwrap_or_default());
        }
    }
    let latest = json!({
        "host": host_facts(),
        "seed": seed,
        "seconds": seconds,
        "reps": reps,
        "workloads": docs,
    });
    write("bench/out/latest.json", &latest)?;
    if traced {
        write("bench/out/layers.json", &Value::Map(layer_docs))?;
        write("bench/out/trace.json", &json!({ "traceEvents": events }))?;
    }
    if !ok {
        eprintln!("sosbench: a correctness check failed (see FAILED lines above)");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its result line.
fn child(
    exe: &std::path::Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Value, String> {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    for line in stdout.lines().filter(|l| *l != last) {
        eprintln!("  {line}");
    }
    serde_json::from_str(last).map_err(|_| {
        format!(
            "{workload} (seed {seed}, trace {trace}) printed no result ({})",
            output.status
        )
    })
}

/// What the numbers depend on: cores, the filesystem under the caches
/// (every cold daemon request fsyncs a journal there) and the compiler.
fn host_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    json!({ "nproc": nproc, "filesystem": filesystem_of("bench/out"), "rustc": rustc })
}

/// The type of the filesystem holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &str) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn write(path: &str, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).expect("document serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))
}

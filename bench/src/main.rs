//! `sosbench`: the repository's benchmark. Run it through `bench/run.sh`,
//! which builds the `sos` daemon and this binary first.
//!
//! ```text
//! sosbench --workload W --seed N --seconds S --trace 0|1   one run
//! sosbench [--seed N] [--quick] [--traced]                 every workload
//! sosbench compare A.json B.json                            parent vs change
//! sosbench validate [BENCHMARK.json]                        schema check
//! ```
//!
//! A single run prints its result as the last line of stdout: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced).

mod catalog;
mod compare;
mod replay;
mod stats;
mod suite;
mod validate;
mod workloads;

use catalog::DEFAULT_SEED;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("validate") => validate::main(&args[1..]),
        _ if args.iter().any(|a| a == "--workload") => single_run(&args),
        _ => suite::main(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sosbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs; every flag must be one of `known`.
pub fn parse_flags(
    args: &[String],
    known: &[&str],
    switches: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        if switches.contains(&name) {
            flags.insert(name.to_string(), "1".to_string());
        } else if known.contains(&name) {
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} expects a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(flags)
}

/// Parses flag `name` (or returns `default` when absent).
pub fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
    }
}

/// Reads and parses the JSON file at `path`.
pub fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let workload = flags.get("workload").cloned().unwrap_or_default();
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            catalog::WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = flag(&flags, "seed", DEFAULT_SEED)?;
    let seconds: f64 = match flags.get("seconds") {
        Some(_) => flag(&flags, "seconds", 0.0)?,
        None => catalog::run_seconds()?,
    };
    let traced = match flag(&flags, "trace", 0u8)? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let (doc, correct) = if traced {
        traced_run(&workload, seed, seconds)?
    } else {
        untraced_run(&workload, seed, seconds)?
    };
    println!(
        "{}",
        serde_json::to_string(&doc).expect("result serializes")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `metrics` object: `values` in catalogue order, named and with
/// units from the catalogue.
fn metrics_doc(values: &[(&str, f64)], catalogue: &[catalog::Metric]) -> Value {
    assert_eq!(
        values.len(),
        catalogue.len(),
        "one value per catalogued metric"
    );
    Value::Map(
        values
            .iter()
            .zip(catalogue)
            .map(|((name, value), metric)| {
                assert_eq!(*name, metric.name, "values follow the catalogue's order");
                (
                    name.to_string(),
                    json!({ "value": value, "unit": metric.unit }),
                )
            })
            .collect(),
    )
}

fn result_doc(attempted: u64, failed: u64, failures: &[String], metrics: Value) -> (Value, bool) {
    for failure in failures {
        eprintln!("FAILED: {failure}");
    }
    let correct = failed == 0 && attempted > 0;
    (
        json!({ "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics }),
        correct,
    )
}

fn untraced_run(workload: &str, seed: u64, seconds: f64) -> Result<(Value, bool), String> {
    let scratch = PathBuf::from(format!("bench/out/tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let ctx = workloads::Ctx {
        scratch: scratch.clone(),
        sos_bin: std::env::var_os("SOSBENCH_SOS_BIN").map(PathBuf::from),
    };
    let run = workloads::measure(workload, seed, seconds, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let run = run?;
    if run.cold.wall_ms.is_empty() || run.warm.wall_ms.is_empty() {
        return Err(format!(
            "{workload}: no operation succeeded ({})",
            run.failures.join("; ")
        ));
    }
    // Human-readable detail before the result line: sample counts, the
    // median and the highest percentile with ten samples beyond it.
    for (name, class) in [("cold", &run.cold), ("warm", &run.warm)] {
        let wall = &class.wall_ms;
        let tail = stats::tail_percentile(wall).map_or(
            "no percentile with 10 samples beyond".to_string(),
            |(p, v)| format!("p{p} {v:.4} ms"),
        );
        println!(
            "{workload} {name}: n={} reported {:.4} ms, p50 {:.4} ms, {tail}",
            wall.len(),
            run.latency_ms(class),
            stats::median(wall)
        );
    }
    println!(
        "{workload} set-ups: n={} {:?} s",
        run.setup_s.len(),
        run.setup_s
    );
    println!("{workload} peak RSS (VmHWM): {:.1} MiB", run.peak_rss_mb);
    let values = [
        ("setup_s", stats::median(&run.setup_s)),
        ("cold_ms", run.latency_ms(&run.cold)),
        ("warm_ms", run.latency_ms(&run.warm)),
    ];
    let metrics = metrics_doc(&values, &catalog::END_TO_END);
    Ok(result_doc(
        run.attempted,
        run.failed,
        &run.failures,
        metrics,
    ))
}

/// Most of a replayed trial that may fall outside the timed layers
/// before the layer breakdown counts as failed.
const MAX_UNATTRIBUTED: f64 = 0.10;

fn traced_run(workload: &str, seed: u64, seconds: f64) -> Result<(Value, bool), String> {
    let mut replayer = replay::Replayer::new();
    let mut layers = replay::Layers::default();
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for pass in 0u64.. {
        for spec in workloads::replay_specs(workload, seed, pass) {
            attempted += 1;
            if let Err(e) = replayer.replay(&spec, &mut layers) {
                failed += 1;
                failures.push(format!("{workload}: {e}"));
            }
        }
        replayer.recording = false;
        if Instant::now() >= deadline {
            break;
        }
    }
    attempted += 1;
    if layers.unattributed_share() > MAX_UNATTRIBUTED {
        failed += 1;
        failures.push(format!(
            "{workload}: {:.1}% of replayed trial time is outside the timed layers",
            layers.unattributed_share() * 100.0
        ));
    }
    let doc = layers.doc();
    println!(
        "{workload} layers: {}",
        serde_json::to_string(&doc).expect("layers serialize")
    );
    std::fs::create_dir_all("bench/out").map_err(|e| format!("creating bench/out: {e}"))?;
    let trace = json!({ "traceEvents": replayer.trace_events(workload) });
    for (path, doc) in [
        (format!("bench/out/trace-{workload}.json"), &trace),
        (format!("bench/out/layers-{workload}.json"), &doc),
    ] {
        std::fs::write(&path, serde_json::to_string(doc).expect("serializes"))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let catalogue = catalog::PER_LAYER.map(|layer| layer.metric);
    let metrics = metrics_doc(&layers.metrics(), &catalogue);
    Ok(result_doc(attempted, failed, &failures, metrics))
}

//! Regenerates the complete experiment suite into a directory: every
//! section of [`sos_bench::report::SECTIONS`] (paper figures,
//! ablations, extensions, the sensitivity tornado and a traced run) as
//! one file each, plus a JSON manifest.
//!
//! ```text
//! cargo run --release -p sos-bench --bin full_report [-- <output-dir>] [--cache <file>]
//! ```
//!
//! Defaults to `./data`. Monte Carlo experiments use the default
//! ablation sizing (100 trials × 100 routes, seed 42); the whole run
//! takes well under a second on two cores and is reproducible bit for
//! bit. All Monte Carlo sweeps go through `sos_sim::run_sweep`; with
//! `--cache` pointing at a persistent cache file, a re-run after an
//! analytic-only change reuses every simulated point and the files stay
//! byte-identical.

use sos_bench::ablations::AblationOptions;
use sos_bench::report::SECTIONS;
use std::fs;
use std::path::PathBuf;

const USAGE: &str = "usage: full_report [<output-dir>] [--cache <file>]";

/// The output directory and the sweep cache file named on the command
/// line. An unknown flag or a second directory is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(PathBuf, Option<String>), String> {
    let mut dir: Option<PathBuf> = None;
    let mut cache = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--cache" {
            cache = Some(args.next().ok_or("--cache expects a file path")?);
        } else if let Some(path) = arg.strip_prefix("--cache=") {
            cache = Some(path.to_string());
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else if let Some(first) = &dir {
            return Err(format!(
                "one output directory expected, got `{}` and `{arg}`",
                first.display()
            ));
        } else {
            dir = Some(arg.into());
        }
    }
    Ok((dir.unwrap_or_else(|| PathBuf::from("data")), cache))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (dir, cache) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(path) = cache {
        let loaded = sos_sim::set_global_cache(&path)?;
        eprintln!("sweep cache {path}: {loaded} entries loaded");
    }
    fs::create_dir_all(&dir)?;
    // Live telemetry for the whole suite: the manifest embeds the
    // per-phase profile so every report records where its wall-clock
    // went. Telemetry observes but never steers — the files stay
    // byte-identical with it on or off.
    sos_observe::telemetry::set_enabled(true);
    let opts = AblationOptions::default();
    let mut written = Vec::new();
    for section in SECTIONS {
        fs::write(dir.join(section.file), (section.render)(opts))?;
        written.push(section.file);
        eprintln!("wrote {}", section.name());
    }

    sos_sim::persist_global_cache();
    // Manifest, including how much work the sweep executor actually
    // did vs answered from its cache/dedup layers.
    let sweep = sos_sim::sweep_stats();
    eprintln!(
        "sweep executor: {} points ({} executed, {} cache hits, {} dedup hits), {} trials run",
        sweep.points,
        sweep.points_executed,
        sweep.cache_hits,
        sweep.dedup_hits,
        sweep.trials_executed,
    );
    let manifest = serde_json::json!({
        "suite": "sos-resilience full report",
        "paper": "Analyzing the Secure Overlay Services Architecture under Intelligent DDoS Attacks (ICDCS 2004)",
        "monte_carlo": { "trials": opts.trials, "routes_per_trial": opts.routes_per_trial, "seed": opts.seed },
        "sweep": {
            "points": sweep.points,
            "points_executed": sweep.points_executed,
            "cache_hits": sweep.cache_hits,
            "dedup_hits": sweep.dedup_hits,
            "trials_executed": sweep.trials_executed,
            "pool_batches": sweep.pool_batches,
        },
        "files": written,
        "profile": serde_json::from_str::<serde_json::Value>(
            &sos_observe::telemetry::snapshot().to_json(),
        )?,
    });
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string_pretty(&manifest)?,
    )?;
    println!(
        "full report written to {} ({} files + manifest.json)",
        dir.display(),
        written.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_args;
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Result<(PathBuf, Option<String>), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn directory_and_cache_in_any_order() {
        assert_eq!(parse(&[]), Ok((PathBuf::from("data"), None)));
        let want = Ok((PathBuf::from("out"), Some("c.json".to_string())));
        assert_eq!(parse(&["out", "--cache", "c.json"]), want);
        assert_eq!(parse(&["--cache=c.json", "out"]), want);
    }

    #[test]
    fn unknown_flags_and_a_second_directory_are_refused() {
        let err = parse(&["--cahce", "x"]).unwrap_err();
        assert!(err.contains("--cahce"), "{err}");
        let err = parse(&["out", "-v"]).unwrap_err();
        assert!(err.contains("-v"), "{err}");
        let err = parse(&["a", "b"]).unwrap_err();
        assert!(err.contains("`a`") && err.contains("`b`"), "{err}");
        assert!(parse(&["--cache"]).is_err());
    }
}

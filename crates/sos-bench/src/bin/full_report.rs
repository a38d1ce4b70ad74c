//! Regenerates the complete experiment suite into a directory:
//! every paper figure, every ablation/extension, and the sensitivity
//! tornado, as CSV files plus a JSON manifest.
//!
//! ```text
//! cargo run --release -p sos-bench --bin full_report [-- <output-dir>] [--cache <file>]
//! ```
//!
//! Defaults to `./data`. Monte Carlo experiments use the default
//! ablation sizing (100 trials × 100 routes, seed 42); the whole run
//! takes well under a second on two cores and is reproducible bit for
//! bit. All Monte Carlo sweeps go through `sos_sim::run_sweep`; with
//! `--cache` (or, without it, `SOS_SWEEP_CACHE`) pointing at a
//! persistent cache file, a re-run after an analytic-only change reuses
//! every simulated point and the CSVs stay byte-identical.

use sos_bench::ablations::{self, AblationOptions};
use sos_bench::figures;
use sos_sim::ComparisonRow;
use std::fs;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut dir: PathBuf = PathBuf::from("data");
    let mut cache = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--cache" {
            cache = Some(args.next().ok_or("--cache expects a file path")?);
        } else if let Some(path) = arg.strip_prefix("--cache=") {
            cache = Some(path.to_string());
        } else {
            dir = arg.into();
        }
    }
    // `--cache` wins over the environment.
    if let Some(path) =
        cache.or_else(|| std::env::var("SOS_SWEEP_CACHE").ok().filter(|p| !p.is_empty()))
    {
        let loaded = sos_sim::set_global_cache(&path)?;
        eprintln!("sweep cache {path}: {loaded} entries loaded");
    }
    fs::create_dir_all(&dir)?;
    // Live telemetry for the whole suite: the manifest embeds the
    // per-phase profile so every report records where its wall-clock
    // went. Telemetry observes but never steers — the CSVs stay
    // byte-identical with it on or off.
    sos_observe::telemetry::set_enabled(true);
    let opts = AblationOptions::default();
    let mut written: Vec<String> = Vec::new();

    // Paper figures.
    for table in figures::all() {
        let name = format!("{}.csv", table.title);
        fs::write(dir.join(&name), table.to_string())?;
        written.push(name);
    }
    fs::write(
        dir.join("fig4a-exact.csv"),
        figures::fig4a_exact().to_string(),
    )?;
    written.push("fig4a-exact.csv".to_string());
    fs::write(dir.join("fig-nc.csv"), figures::supplemental_nc().to_string())?;
    written.push("fig-nc.csv".to_string());

    // Machine-readable bundle of every figure (same data as the CSVs).
    let mut all_tables = figures::all();
    all_tables.push(figures::fig4a_exact());
    fs::write(
        dir.join("figures.json"),
        serde_json::to_string_pretty(&all_tables)?,
    )?;
    written.push("figures.json".to_string());

    // Ablations and extensions.
    let evaluator_rows = ablations::evaluator_ablation(opts);
    let mut csv = String::from("# ablation-evaluator\n");
    csv.push_str(ComparisonRow::CSV_HEADER);
    csv.push('\n');
    for row in &evaluator_rows {
        csv.push_str(&row.to_string());
        csv.push('\n');
    }
    fs::write(dir.join("ablation-evaluator.csv"), csv)?;
    written.push("ablation-evaluator.csv".to_string());

    for (name, table) in [
        ("ablation-routing", ablations::routing_ablation(opts)),
        ("ablation-chord", ablations::chord_ablation(opts)),
        ("ablation-multirole", ablations::multirole_ablation()),
        ("ext-repair", ablations::repair_extension(opts)),
        ("ext-monitoring", ablations::monitoring_extension(opts)),
        ("ext-faults", ablations::fault_sweep(opts)),
        ("ext-flow", ablations::flow_extension(opts)),
        ("ext-stabilization", ablations::stabilization_extension()),
        ("ext-staleness", ablations::staleness_extension()),
        ("ext-protocol-churn", ablations::protocol_churn_extension()),
    ] {
        let file = format!("{name}.csv");
        fs::write(dir.join(&file), table.to_string())?;
        written.push(file);
        eprintln!("wrote {name}");
    }

    // Latency frontier.
    {
        let mut csv = String::from("# ext-latency\ndesign,P_S,latency,pareto\n");
        for p in ablations::latency_frontier() {
            csv.push_str(&p.to_string());
            csv.push('\n');
        }
        fs::write(dir.join("ext-latency.csv"), csv)?;
        written.push("ext-latency.csv".to_string());
    }

    // Sensitivity tornado.
    {
        use sos_analysis::{tornado, OperatingPoint};
        use sos_core::PathEvaluator;
        let point = OperatingPoint::paper_default();
        let base = point.price(PathEvaluator::Binomial)?;
        let mut csv = format!("# sensitivity\n# base P_S: {base:.6}\nparameter,ps_low,ps_high,swing\n");
        for e in tornado(&point, 0.25, PathEvaluator::Binomial)? {
            csv.push_str(&e.to_string());
            csv.push('\n');
        }
        fs::write(dir.join("sensitivity.csv"), csv)?;
        written.push("sensitivity.csv".to_string());
    }

    // Observability artifacts: a traced run of the paper's intelligent
    // attacker, exported through the standard sinks so the report
    // bundle carries a replayable event log alongside the aggregates.
    {
        use sos_core::{MappingDegree, Scenario, SystemParams, ThreatPreset};
        use sos_observe::MemoryRecorder;
        use sos_sim::engine::{Simulation, SimulationConfig};
        let preset = ThreatPreset::PaperIntelligent;
        let system = SystemParams::new(10_000, 100, 0.5)?;
        let scenario = Scenario::builder()
            .system(system)
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()?;
        let cfg = SimulationConfig::new(scenario, preset.attack(&system))
            .trials(5)
            .routes_per_trial(opts.routes_per_trial)
            .seed(opts.seed);
        let recorder = MemoryRecorder::new();
        let (_, metrics) = Simulation::new(cfg).run_traced(&recorder);
        let events = recorder.take_events();
        fs::write(dir.join("trace-paper-intelligent.jsonl"), sos_observe::write_jsonl(&events))?;
        written.push("trace-paper-intelligent.jsonl".to_string());
        fs::write(dir.join("metrics-paper-intelligent.csv"), metrics.to_csv())?;
        written.push("metrics-paper-intelligent.csv".to_string());
        eprintln!("wrote trace-paper-intelligent ({} events)", events.len());
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
        manifest["files"].as_array().unwrap().len()
    );
    Ok(())
}

//! The metric catalogue: every workload, end-to-end metric and
//! per-layer metric the benchmark reports. `BENCHMARK.json` must list
//! exactly these (the validator checks it), and each per-layer metric
//! names the end-to-end metric it should move and the workload on which
//! that movement should show.

/// The workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "paper-report",
    "chord10k-trials",
    "chord10k-1t",
    "sweep-grid",
    "sosd-loopback",
];

/// The seed whose outputs are pinned by digest (see `workloads::PINNED`).
pub const DEFAULT_SEED: u64 = 13;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [Metric; 3] = [
    lower("setup_s", "s"),
    lower("cold_ms", "ms"),
    lower("warm_ms", "ms"),
];

/// A per-layer metric plus the prediction it carries: a change that
/// improves it should move `moves` on workload `on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// The metric.
    pub metric: Metric,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload on which that movement shows.
    pub on: &'static str,
}

const fn layer(metric: Metric, moves: &'static str, on: &'static str) -> Layer {
    Layer { metric, moves, on }
}

/// Per-layer metrics, reported by every workload's traced run (a
/// replay of the workload's own trials; see `replay`): self time per
/// trial of each layer, and the replay's time outside them. Each maps
/// to the workload whose replayed trials give that layer its largest
/// measured share (the shares are in `bench/README.md`).
pub const PER_LAYER: [Layer; 5] = [
    layer(lower("build_us", "us"), "cold_ms", "chord10k-1t"),
    layer(lower("attack_us", "us"), "cold_ms", "paper-report"),
    layer(lower("price_us", "us"), "cold_ms", "paper-report"),
    layer(lower("route_us", "us"), "cold_ms", "sweep-grid"),
    layer(lower("unattributed_us", "us"), "cold_ms", "paper-report"),
];

/// The run length `BENCHMARK.json` declares (`run_seconds`): the one
/// length of every run the suite makes.
pub fn run_seconds() -> Result<f64, String> {
    crate::read_json("BENCHMARK.json")?["run_seconds"]
        .as_u64()
        .map(|s| s as f64)
        .ok_or_else(|| "BENCHMARK.json: run_seconds is not a whole number".into())
}

//! Cross-crate properties of the request-tracing plane and the
//! Prometheus exposition.
//!
//! Tracing mirrors telemetry's contract: it observes but never steers.
//! Spans read the monotonic clock and a process-global id counter —
//! never the deterministic simulation RNG streams — so every entry
//! point must produce the same results with tracing on or off, at
//! every thread count. The guarantee is structural; these proptests
//! pin it against regression (same contract and thresholds as
//! `tests/telemetry.rs`).
//!
//! The exposition conformance test checks the daemon's `/metrics`
//! payload against the Prometheus text-format rules: every sample
//! belongs to a family with `# HELP` and `# TYPE` comments, metric
//! names match `[a-z_][a-z0-9_]*`, no series is emitted twice, and
//! every value parses as a float.

use proptest::prelude::*;
use sos::core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos::sim::engine::{Simulation, SimulationConfig, SimulationResult, TransportKind};
use sos::sim::routing::RoutingPolicy;
use sos::sim::{num_threads, SweepExecutor};
use sos_bench::ablations;
use sos_observe::telemetry;
use sos_observe::trace;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// The enable flag is process-global; tests in this binary serialize
/// on it so one test's `set_enabled(false)` cannot race another's
/// instrumented run.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn scenario() -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(600, 50, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap()
}

/// Strategy: one small sweep point (kept tiny — every case runs the
/// full Monte Carlo twice at four thread counts).
fn point_strategy() -> impl Strategy<Value = SimulationConfig> {
    (
        0u64..120,  // congestion budget
        0u64..30,   // break-in budget
        1u64..6,    // trials
        0u64..1000, // seed
        prop_oneof![
            Just(RoutingPolicy::RandomGood),
            Just(RoutingPolicy::FirstGood),
            Just(RoutingPolicy::Backtracking),
        ],
        prop_oneof![Just(TransportKind::Direct), Just(TransportKind::Chord)],
    )
        .prop_map(|(n_c, n_t, trials, seed, policy, transport)| {
            SimulationConfig::new(
                scenario(),
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(n_t, n_c),
                },
            )
            .policy(policy)
            .transport(transport)
            .trials(trials)
            .routes_per_trial(10)
            .seed(seed)
        })
}

/// Byte-level equality on everything integer, merge-order slack on
/// float aggregates — the engine's own determinism contract (see
/// `tests/telemetry.rs` and `tests/sweep_executor.rs`).
fn assert_identical(
    off: &SimulationResult,
    on: &SimulationResult,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(off.successes, on.successes, "successes diverged: {}", ctx);
    prop_assert_eq!(off.attempts, on.attempts, "attempts diverged: {}", ctx);
    prop_assert_eq!(&off.failure_depths, &on.failure_depths, "depths diverged: {}", ctx);
    prop_assert_eq!(off.per_trial.count, on.per_trial.count, "trial count diverged: {}", ctx);
    prop_assert!((off.per_trial.mean - on.per_trial.mean).abs() < 1e-12, "{}", ctx);
    prop_assert!((off.mean_underlay_hops - on.mean_underlay_hops).abs() < 1e-12, "{}", ctx);
    prop_assert!((off.realized_ps_binomial - on.realized_ps_binomial).abs() < 1e-12, "{}", ctx);
    prop_assert!(
        (off.realized_ps_hypergeometric - on.realized_ps_hypergeometric).abs() < 1e-12,
        "{}", ctx
    );
    Ok(())
}

/// Runs `f` with the tracing plane live, then restores the disabled
/// state.
fn with_trace<T>(f: impl FnOnce() -> T) -> T {
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `run_parallel` with tracing on is byte-identical to tracing off
    /// at every thread count.
    #[test]
    fn run_parallel_is_bit_identical_with_tracing_on(cfg in point_strategy()) {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1usize, 2, 4, 8] {
            trace::set_enabled(false);
            let off = Simulation::new(cfg.clone()).run_parallel(threads);
            let on = with_trace(|| Simulation::new(cfg.clone()).run_parallel(threads));
            assert_identical(&off, &on, &format!("run_parallel at {threads} threads"))?;
        }
    }

    /// A sweep through the executor with tracing on is byte-identical
    /// to tracing off at every thread count.
    #[test]
    fn run_sweep_is_bit_identical_with_tracing_on(
        configs in proptest::collection::vec(point_strategy(), 1..4),
    ) {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1usize, 2, 4, 8] {
            trace::set_enabled(false);
            let off = SweepExecutor::with_threads(threads).run(&configs);
            let on = with_trace(|| SweepExecutor::with_threads(threads).run(&configs));
            for (point, (off, on)) in off.iter().zip(&on).enumerate() {
                assert_identical(off, on, &format!("sweep point {point} at {threads} threads"))?;
            }
        }
    }
}

/// The tracing plane is actually live during the identical runs above:
/// an instrumented sweep lands executor and pool spans in the flight
/// recorder.
#[test]
fn trace_plane_records_spans_during_instrumented_sweep() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimulationConfig::new(
        scenario(),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(10, 60),
        },
    )
    .trials(4)
    .routes_per_trial(10)
    .seed(7);
    trace::recorder().clear();
    with_trace(|| SweepExecutor::with_threads(2).run(&[cfg]));
    assert!(trace::recorder().recorded() > 0, "no spans recorded");
    let spans = trace::recorder().recent(usize::MAX);
    for name in ["cache-probe", "sweep-point", "pool-batch"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing {name} span among {:?}",
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
}

/// What each observability plane costs on the 42-point profiling grid
/// (`sos_bench::ablations::profile_grid`, 2 trials and 20 routes per
/// point, seed 13), each run on a fresh all-core executor. Each plane
/// is timed in off/on pairs, which side runs first alternating from
/// pair to pair, and the bound is on the ratio of the medians,
/// median(off) / median(on):
///
/// * telemetry (flight recorder off): at least 0.776, three quarters of
///   the 1.034 the grid once measured;
/// * flight recorder (telemetry on for both sides): at least 0.98.
///
/// Every run must deliver the same per-point counts. A timing test, so
/// it is ignored by default; run it with
/// `cargo test --release --test trace_plane -- --ignored --nocapture`.
#[test]
#[ignore = "timing test; run in release"]
fn observability_planes_cost_little_on_the_sweep_grid() {
    const PAIRS: usize = 31;
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let configs = ablations::profile_grid(ablations::AblationOptions {
        trials: 2,
        routes_per_trial: 20,
        seed: 13,
    });
    let threads = num_threads();
    let run_once = || {
        let start = Instant::now();
        let results = SweepExecutor::with_threads(threads).run(&configs);
        let secs = start.elapsed().as_secs_f64();
        (results.iter().map(|r| r.successes).collect::<Vec<u64>>(), secs)
    };
    let expected = run_once().0;
    let median = |mut secs: Vec<f64>| {
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    };
    // Median wall seconds with the plane off and on.
    let medians = |set_plane: &dyn Fn(bool)| {
        let mut secs = [Vec::new(), Vec::new()];
        for pair in 0..=PAIRS {
            for on in [pair % 2 == 1, pair % 2 == 0] {
                set_plane(on);
                let (successes, s) = run_once();
                assert_eq!(successes, expected, "results changed with the plane on={on}");
                // Pair 0 is the warm-up.
                if pair > 0 {
                    secs[usize::from(on)].push(s);
                }
            }
        }
        let [off, on] = secs;
        (median(off), median(on))
    };
    trace::set_enabled(false);
    let (tele_off, tele_on) = medians(&telemetry::set_enabled);
    telemetry::set_enabled(true);
    let (rec_off, rec_on) = medians(&trace::set_enabled);
    trace::set_enabled(false);
    telemetry::set_enabled(false);
    eprintln!(
        "telemetry: off {:.2} ms, on {:.2} ms, ratio {:.3}; flight recorder: off {:.2} ms, \
         on {:.2} ms, ratio {:.3} ({threads} workers, {PAIRS} pairs)",
        tele_off * 1e3,
        tele_on * 1e3,
        tele_off / tele_on,
        rec_off * 1e3,
        rec_on * 1e3,
        rec_off / rec_on,
    );
    assert!(tele_off / tele_on >= 0.776, "telemetry costs more than its bound");
    assert!(rec_off / rec_on >= 0.98, "the flight recorder costs more than 2%");
}

/// A metric name the Prometheus text format accepts (the exposition
/// sticks to the lowercase subset: `[a-z_][a-z0-9_]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The `/metrics` payload conforms to the Prometheus text format:
/// every sample's family has `# HELP` and `# TYPE`, names are valid,
/// no duplicate series, every value parses as a float — including the
/// per-op request counters and the slow-request counter this plane
/// added.
#[test]
fn exposition_conforms_to_prometheus_text_format() {
    let text = telemetry::snapshot().to_exposition();
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut seen: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(valid_metric_name(name), "invalid HELP name {name:?}");
            helped.insert(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped"),
                "unknown TYPE {kind:?} for {name}"
            );
            typed.insert(name.to_string(), kind.to_string());
        } else {
            assert!(!line.starts_with('#'), "unknown comment line {line:?}");
            let mut parts = line.split_whitespace();
            let sample = parts.next().expect("sample name");
            let value = parts.next().unwrap_or_else(|| panic!("sample without value: {line}"));
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparsable value {value:?} in {line}"));
            let (name, labels) = match sample.split_once('{') {
                Some((n, rest)) => (n, format!("{{{rest}")),
                None => (sample, String::new()),
            };
            assert!(valid_metric_name(name), "invalid metric name {name:?}");
            // Summary and histogram families declare HELP/TYPE on the
            // base name; their samples carry `_sum`/`_count`/`_bucket`
            // suffixes.
            let family = if typed.contains_key(name) {
                name
            } else {
                let base = name
                    .strip_suffix("_sum")
                    .or_else(|| name.strip_suffix("_count"))
                    .or_else(|| name.strip_suffix("_bucket"))
                    .unwrap_or(name);
                assert!(
                    matches!(
                        typed.get(base).map(String::as_str),
                        Some("summary") | Some("histogram")
                    ),
                    "sample {name} has no # TYPE (and no summary/histogram family)"
                );
                base
            };
            assert!(helped.contains(family), "sample {name} has no # HELP");
            let series = format!("{name}{labels}");
            assert!(seen.insert(series.clone()), "duplicate series {series}");
        }
    }
    assert!(!seen.is_empty(), "exposition is empty");
    for name in ["sos_serve_requests_total", "sos_serve_slow_requests_total"] {
        assert!(
            helped.contains(name) && typed.contains_key(name),
            "missing serve series {name}"
        );
    }
}

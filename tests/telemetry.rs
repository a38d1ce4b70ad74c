//! Cross-crate property: the live telemetry plane observes but never
//! steers. With telemetry and the progress reporter enabled, every
//! simulation entry point — `run_parallel` at 1/2/4/8 threads and a
//! sweep through the executor — must produce the same results as the
//! telemetry-off run: integer counts exactly, float aggregates within
//! the engine's own merge-order slack. The guarantee is structural
//! (telemetry never touches the RNG streams); this pins it against
//! regression.

use proptest::prelude::*;
use sos::core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos::sim::engine::{Simulation, SimulationConfig, SimulationResult, TransportKind};
use sos::sim::routing::RoutingPolicy;
use sos::sim::SweepExecutor;
use sos_observe::telemetry::{self, PhaseKind};
use sos_observe::{ProgressReporter, ReporterOptions};
use std::sync::Mutex;
use std::time::Duration;

/// The enable flag is process-global; tests in this binary serialize
/// on it so one test's `set_enabled(false)` cannot race another's
/// instrumented run.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

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

/// Byte-level equality on everything integer (who delivered what),
/// and merge-order slack on float aggregates: at >1 thread the racy
/// batch-to-worker assignment reorders float sums by ~1e-16 with or
/// without telemetry, so exact float equality is not the engine's
/// guarantee (see `tests/sweep_executor.rs`, which uses the same
/// contract).
fn assert_identical(off: &SimulationResult, on: &SimulationResult, ctx: &str) -> Result<(), TestCaseError> {
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

/// Runs `f` under an active progress reporter (telemetry enabled,
/// background snapshot thread live), then restores the disabled state.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> T {
    let reporter = ProgressReporter::start(ReporterOptions {
        interval: Duration::from_millis(5),
        progress: false,
        out: None,
    });
    let out = f();
    reporter.finish();
    telemetry::set_enabled(false);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `run_parallel` with telemetry + reporter on is byte-identical
    /// to telemetry off at every thread count.
    #[test]
    fn run_parallel_is_bit_identical_with_telemetry_on(cfg in point_strategy()) {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1usize, 2, 4, 8] {
            telemetry::set_enabled(false);
            let off = Simulation::new(cfg.clone()).run_parallel(threads);
            let on = with_telemetry(|| Simulation::new(cfg.clone()).run_parallel(threads));
            assert_identical(&off, &on, &format!("run_parallel at {threads} threads"))?;
        }
    }

    /// A sweep through the executor with telemetry + reporter on is
    /// byte-identical to telemetry off at every thread count.
    #[test]
    fn run_sweep_is_bit_identical_with_telemetry_on(
        configs in proptest::collection::vec(point_strategy(), 1..4),
    ) {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1usize, 2, 4, 8] {
            telemetry::set_enabled(false);
            let off = SweepExecutor::with_threads(threads).run(&configs);
            let on = with_telemetry(|| SweepExecutor::with_threads(threads).run(&configs));
            for (point, (off, on)) in off.iter().zip(&on).enumerate() {
                assert_identical(off, on, &format!("sweep point {point} at {threads} threads"))?;
            }
        }
    }
}

/// Telemetry counters actually move while the guarantee holds: the
/// plane is live (not accidentally compiled out) during the identical
/// runs above, and every engine phase gets its wall clock attributed.
#[test]
fn telemetry_counters_advance_during_instrumented_runs() {
    let cfg = SimulationConfig::new(
        scenario(),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(10, 60),
        },
    )
    .trials(4)
    .routes_per_trial(10)
    .seed(7);
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = telemetry::snapshot();
    with_telemetry(|| Simulation::new(cfg).run_parallel(2));
    let after = telemetry::snapshot();
    assert!(
        after.trials >= before.trials + 4,
        "trial counter did not advance: {} -> {}",
        before.trials,
        after.trials
    );
    assert!(
        after.routes >= before.routes + 40,
        "route counter did not advance"
    );
    assert_eq!(after.phases.len(), PhaseKind::ALL.len());
    for (was, now) in before.phases.iter().zip(&after.phases) {
        assert!(
            now.total_ns > was.total_ns,
            "{} phase total did not advance",
            now.phase.label()
        );
    }
}

/// `pool_map` jobs are not trials: running them on the global pool
/// with telemetry on leaves the trial, batch and sweep-point counters
/// where they were, so a report's `trials == expected_trials` holds.
#[test]
fn pool_map_jobs_leave_trial_and_point_counters_unchanged() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let counters = || {
        let s = telemetry::snapshot();
        (s.trials, s.batches, s.expected_trials, s.expected_points, s.points_done)
    };
    let before = counters();
    let out = with_telemetry(|| sos::sim::pool_map(16, |i| i * i));
    assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    assert_eq!(counters(), before);
}

/// The build memo's one rule, pinned by its hit count: a pool worker
/// keeps a slot per trial index below 2 plus one shared slot, and a
/// slot hits only on the exact `(seed, trial, scenario)` it last built.
/// Four points that differ only in the attack replay the first point's
/// trials three times. At 3 trials per point trial 2 has the shared
/// slot to itself, so one worker reuses 3 × 3 = 9 builds; at 12 the
/// shared slot ends each point holding trial 11, so only trials 0 and
/// 1 hit: 3 × 2 = 6. One `run_parallel` config has no repeated trial
/// index and reuses none.
#[test]
fn sweep_build_memo_hits_are_pinned() {
    let memo_scenario = Scenario::builder()
        .system(SystemParams::new(400, 48, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(6)
        .build()
        .unwrap();
    let points = |trials: u64| -> Vec<SimulationConfig> {
        [40u64, 80, 120, 160]
            .into_iter()
            .map(|nc| {
                SimulationConfig::new(
                    memo_scenario.clone(),
                    AttackConfig::OneBurst {
                        budget: AttackBudget::new(10, nc),
                    },
                )
                .trials(trials)
                .routes_per_trial(12)
                .seed(7)
            })
            .collect()
    };
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reused = |run: &dyn Fn()| {
        let before = telemetry::snapshot().build_reused;
        with_telemetry(run);
        telemetry::snapshot().build_reused - before
    };
    for (trials, expected) in [(3u64, 9u64), (12, 6)] {
        let configs = points(trials);
        let hits = reused(&|| {
            SweepExecutor::with_threads(1).run(&configs);
        });
        assert_eq!(hits, expected, "{trials} trials per point");
    }
    let single = points(12).remove(0);
    let hits = reused(&|| {
        Simulation::new(single.clone()).run_parallel(2);
    });
    assert_eq!(hits, 0, "a single config repeats no trial index");
}

//! Cross-crate properties of the sweep executor: at any thread count,
//! running a sweep through the persistent pool must reproduce the
//! per-point `run_parallel` results (counts exactly, float aggregates
//! within merge-order slack), and a warm cache must reproduce a cold
//! run byte-for-byte.

use proptest::prelude::*;
use sos::core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos::sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos::sim::routing::RoutingPolicy;
use sos::sim::SweepExecutor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers the warm-cache runs in this process. The vendored
/// `proptest!` registers each property twice (it adds a `#[test]` to the
/// one written here) and both copies draw the same cases, so process id
/// and case alone let two concurrent runs share, and delete, one cache
/// file.
static RUN: AtomicU64 = AtomicU64::new(0);

fn scenario() -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(600, 50, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap()
}

/// Strategy: one small sweep point (kept tiny — every proptest case
/// runs the full Monte Carlo at four thread counts).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The executor's output for a random sweep equals running each
    /// point on its own via `run_parallel`, at every thread count: the
    /// pool/queue/dedup machinery decides only who runs a trial, never
    /// what the trial computes.
    #[test]
    fn sweep_matches_per_point_run_parallel_at_any_thread_count(
        configs in proptest::collection::vec(point_strategy(), 1..4),
    ) {
        let reference: Vec<_> = configs
            .iter()
            .map(|cfg| Simulation::new(cfg.clone()).run_parallel(2))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let swept = SweepExecutor::with_threads(threads).run(&configs);
            for (point, (swept, reference)) in swept.iter().zip(&reference).enumerate() {
                // Integer counts are exact at any thread count.
                prop_assert_eq!(swept.successes, reference.successes,
                    "{} threads, point {}", threads, point);
                prop_assert_eq!(swept.attempts, reference.attempts);
                prop_assert_eq!(&swept.failure_depths, &reference.failure_depths);
                prop_assert_eq!(swept.per_trial.count, reference.per_trial.count);
                // Float aggregates carry merge-order slack only.
                prop_assert!((swept.per_trial.mean - reference.per_trial.mean).abs() < 1e-12);
                prop_assert!((swept.mean_underlay_hops - reference.mean_underlay_hops).abs() < 1e-12);
                prop_assert!(
                    (swept.realized_ps_binomial - reference.realized_ps_binomial).abs() < 1e-12
                );
                prop_assert!(
                    (swept.realized_ps_hypergeometric - reference.realized_ps_hypergeometric)
                        .abs() < 1e-12
                );
            }
        }
    }

    /// A warm cache reproduces the cold run byte-for-byte: the stored
    /// result round-trips through the cache file with identical f64
    /// bits, so downstream CSVs cannot drift between cold and warm runs.
    #[test]
    fn warm_cache_is_byte_identical_to_cold_run(
        configs in proptest::collection::vec(point_strategy(), 1..3),
        case in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir().join("sos-sweep-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let run = RUN.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("cache-{}-{case}-{run}.json", std::process::id()));
        // Clear both the cache file and its append journal: a journal
        // left by an earlier run would warm-start the "cold" executor.
        let journal = dir.join(format!("cache-{}-{case}-{run}.json.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal);

        let mut cold = SweepExecutor::with_threads(2);
        cold.attach_cache(&path).unwrap();
        let cold_results = cold.run(&configs);
        prop_assert!(cold.stats().points_executed > 0);
        drop(cold);

        let mut warm = SweepExecutor::with_threads(2);
        let loaded = warm.attach_cache(&path).unwrap();
        prop_assert!(loaded > 0);
        let warm_results = warm.run(&configs);
        prop_assert_eq!(warm.stats().points_executed, 0,
            "warm run must answer every point from the cache");
        prop_assert_eq!(
            serde_json::to_string(&cold_results).unwrap(),
            serde_json::to_string(&warm_results).unwrap(),
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal);
    }
}

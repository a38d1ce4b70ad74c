//! The engine's per-worker build memo must be observationally pure:
//! a persistent `SweepExecutor`, whose pool workers memoize builds
//! across sweep points, serializes byte-identical results at every
//! thread count to per-config `Simulation::run_parallel` calls, whose
//! one-shot scratches cannot hit. The memo only ever skips the
//! dedicated build RNG sub-streams, so downstream attack/routing draws
//! cannot shift.

use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos_sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos_sim::SweepExecutor;

fn scenario(mapping_k: u64) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(400, 48, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(mapping_k))
        .filters(6)
        .build()
        .unwrap()
}

/// A grid with attack-only transitions over a shared structure (exact
/// memo hits) and a mapping-degree change over the same membership (a
/// miss that rebuilds in place), on both transports.
fn grid() -> Vec<SimulationConfig> {
    let mut configs = Vec::new();
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for nc in [40u64, 80, 120] {
            configs.push(
                SimulationConfig::new(
                    scenario(2),
                    AttackConfig::OneBurst {
                        budget: AttackBudget::new(10, nc),
                    },
                )
                .trials(6)
                .routes_per_trial(12)
                .seed(7)
                .transport(transport),
            );
        }
        configs.push(
            SimulationConfig::new(
                scenario(4),
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(10, 80),
                },
            )
            .trials(6)
            .routes_per_trial(12)
            .seed(7)
            .transport(transport),
        );
    }
    configs
}

#[test]
fn memoized_sweeps_match_memo_free_runs_at_any_thread_count() {
    let configs = grid();
    for threads in [1usize, 2, 4, 8] {
        let swept = SweepExecutor::with_threads(threads).run(&configs);
        for (cfg, result) in configs.iter().zip(&swept) {
            let reference = Simulation::new(cfg.clone()).run_parallel(threads);
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(result).unwrap(),
                "build memo changed a sweep result at {threads} threads ({cfg:?})"
            );
        }
    }
}

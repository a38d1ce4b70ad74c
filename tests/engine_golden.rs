//! Golden digests of trial-engine runs whose trials route more
//! messages than one chunk of the batched route kernel holds (64
//! lanes): 150 routes per trial span three chunks, so the engine's
//! chunk loop — each chunk's route offset, its per-lane seeds and the
//! per-chunk accumulation of outcomes and events — decides every
//! number here. Both transports, all three routing policies, and runs
//! with and without benign faults are covered. How the engine chunks
//! routes may change; none of these digests may.

use sos::core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos::sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos::sim::routing::RoutingPolicy;
use sos_faults::FaultConfig;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn configs() -> Vec<SimulationConfig> {
    let scenario = Scenario::builder()
        .system(SystemParams::new(600, 50, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap();
    let mut configs = Vec::new();
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for policy in [
            RoutingPolicy::RandomGood,
            RoutingPolicy::FirstGood,
            RoutingPolicy::Backtracking,
        ] {
            for faults in [
                FaultConfig::none(),
                FaultConfig::none().loss(0.05).misroute(0.05),
            ] {
                configs.push(
                    SimulationConfig::new(
                        scenario.clone(),
                        AttackConfig::OneBurst {
                            budget: AttackBudget::new(10, 120),
                        },
                    )
                    .transport(transport)
                    .policy(policy)
                    .faults(faults)
                    .trials(4)
                    .routes_per_trial(150)
                    .seed(11),
                );
            }
        }
    }
    configs
}

/// Serial `run()`s: `run_parallel` folds float statistics per batch,
/// so its results may differ from these in the last ulps.
#[test]
fn multi_chunk_runs_are_pinned() {
    let mut json = String::new();
    for cfg in configs() {
        json.push_str(&serde_json::to_string(&Simulation::new(cfg).run()).unwrap());
        json.push('\n');
    }
    let got = fnv(json.as_bytes());
    assert_eq!(
        got, 0x303a_a3d5_1905_665e,
        "digest moved: {got:#x} for {json}"
    );
}

/// One line of result JSON per config.
fn results_json(run: impl Fn(Simulation) -> String) -> String {
    configs()
        .into_iter()
        .map(|cfg| run(Simulation::new(cfg)) + "\n")
        .collect()
}

/// `run_parallel` folds batch partials in trial order over batch
/// boundaries that do not depend on the thread count, so 1, 2 and 4
/// threads share one digest.
#[test]
fn parallel_runs_are_pinned() {
    for threads in [1, 2, 4] {
        let json = results_json(|sim| serde_json::to_string(&sim.run_parallel(threads)).unwrap());
        let got = fnv(json.as_bytes());
        assert_eq!(
            got, 0x5b4f_9294_7f97_17df,
            "digest moved at {threads} threads: {got:#x} for {json}"
        );
    }
}

/// The integer rows of a metrics CSV: counters, histogram counts and
/// bucket counts. Histogram sums and means are float folds and are
/// left out.
fn integer_metrics(csv: &str) -> String {
    csv.lines()
        .filter(|row| !row.contains(",histogram,sum,") && !row.contains(",histogram,mean,"))
        .map(|row| format!("{row}\n"))
        .collect()
}

/// A traced parallel run's result and integer metrics.
#[test]
fn parallel_traced_runs_are_pinned() {
    let json = results_json(|sim| {
        let (result, metrics) = sim.run_parallel_traced(3, &sos_observe::NullRecorder);
        serde_json::to_string(&result).unwrap() + "\n" + &integer_metrics(&metrics.to_csv())
    });
    let got = fnv(json.as_bytes());
    assert_eq!(
        got, 0x0ad0_37f8_02e5_5175,
        "digest moved: {got:#x} for {json}"
    );
}

//! Golden digests of trial-engine runs whose trials route more
//! messages than one chunk of the batched route kernel holds (64
//! lanes): 150 routes per trial span three chunks, so the engine's
//! chunk loop — each chunk's route offset, its per-lane seeds and the
//! per-chunk accumulation of outcomes and events — decides every
//! number here. Both transports, all three routing policies, and runs
//! with and without benign faults are covered. How the engine chunks
//! routes may change; none of these digests may. The last test checks
//! the engine's delivered counts against a plain trial loop that
//! rebuilds everything per trial.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sos::attack::OneBurstAttacker;
use sos::core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos::overlay::{ChordRing, NodeId, Overlay, Transport};
use sos::sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos::sim::routing::{self, RouteCtx, RouteScratch, RoutingPolicy};
use sos::sim::{route_lane_seed, stream, trial_stream_seed};
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

/// The engine against a hand-written trial loop: every trial builds a
/// fresh overlay and ring, attacks, and routes each message with the
/// scalar `routing::route`, drawing from the engine's own per-trial
/// and per-route streams. The engine reuses its scratch, memoizes
/// builds and routes in batched lanes; none of that may change which
/// routes deliver or how many underlay hops they take (the Chord
/// ring's ids decide the latter).
#[test]
fn engine_matches_a_fresh_build_trial_loop() {
    const SEED: u64 = 13;
    const TRIALS: u64 = 4;
    const ROUTES: u64 = 50;
    let scenario = Scenario::builder()
        .system(SystemParams::new(1_000, 100, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(5))
        .filters(10)
        .build()
        .unwrap();
    let budget = AttackBudget::new(100, 100);
    for kind in [TransportKind::Direct, TransportKind::Chord] {
        let (mut delivered, mut hops) = (0u64, 0usize);
        for trial in 0..TRIALS {
            let rng = |tag| StdRng::seed_from_u64(trial_stream_seed(SEED, tag, trial));
            let mut overlay = Overlay::build(&scenario, &mut rng(stream::OVERLAY_BUILD));
            let mut transport = match kind {
                TransportKind::Direct => Transport::Direct,
                TransportKind::Chord => {
                    let members: Vec<NodeId> = overlay.overlay_ids().collect();
                    Transport::Chord(ChordRing::build(&mut rng(stream::RING_BUILD), &members))
                }
            };
            OneBurstAttacker::new(budget).execute(&mut overlay, &mut rng(stream::ATTACK));
            transport.sync_damage(&overlay);
            let ctx = RouteCtx::new(&overlay, &transport, RoutingPolicy::default());
            for route in 0..ROUTES {
                let mut route_rng = StdRng::seed_from_u64(route_lane_seed(SEED, trial, route));
                let mut scratch = RouteScratch::new();
                let result = routing::route(&ctx, &mut route_rng, &mut scratch);
                if result.delivered {
                    delivered += 1;
                    hops += result.underlay_hops;
                }
            }
        }
        let cfg = SimulationConfig::new(scenario.clone(), AttackConfig::OneBurst { budget })
            .transport(kind)
            .trials(TRIALS)
            .routes_per_trial(ROUTES)
            .seed(SEED);
        for (name, result) in [
            ("run", Simulation::new(cfg.clone()).run()),
            ("run_parallel", Simulation::new(cfg).run_parallel(2)),
        ] {
            assert_eq!(result.successes, delivered, "{kind:?} {name}");
            let engine_hops = result.mean_underlay_hops * delivered as f64;
            assert!(
                (engine_hops - hops as f64).abs() < 1e-6,
                "{kind:?} {name}: {engine_hops} underlay hops, loop took {hops}"
            );
        }
    }
}

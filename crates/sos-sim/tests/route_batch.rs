//! The batched SoA route kernel must be observationally pure: every
//! lane equals the scalar `routing::route` oracle (same
//! delivered/hops/incidents, same RNG sub-stream) however a trial's
//! routes are split into chunks, and whole-run results are
//! byte-identical at any thread count — each route draws from its own
//! `route_lane_seed` stream, so lane order and chunking cannot perturb
//! draws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_attack::OneBurstAttacker;
use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos_faults::{FaultConfig, FaultPlan, RetryPolicy};
use sos_overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Transport};
use sos_sim::engine::{SimulationConfig, TransportKind};
use sos_sim::routing::{route, RouteCtx, RouteScratch, RoutingPolicy};
use sos_sim::{
    route_lane_seed, stream, trial_stream_seed, RouteBatchScratch, Simulation, SweepExecutor,
};

const POLICIES: [RoutingPolicy; 3] = [
    RoutingPolicy::RandomGood,
    RoutingPolicy::FirstGood,
    RoutingPolicy::Backtracking,
];

fn scenario() -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(500, 45, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap()
}

/// A damaged overlay plus transport, the way the engine prepares one:
/// build, attack, sync, then resolve the ring liveness mask once.
fn damaged(seed: u64, chord: bool, faults: Option<&FaultPlan>) -> (Overlay, Transport, NodeBitSet) {
    let sc = scenario();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = Overlay::build(&sc, &mut rng);
    let mut transport = if chord {
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let mut ring_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        Transport::Chord(ChordRing::build(&mut ring_rng, &members))
    } else {
        Transport::Direct
    };
    let mut attack_rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    OneBurstAttacker::new(AttackBudget::new(60, 90)).execute(&mut overlay, &mut attack_rng);
    transport.sync_damage(&overlay);
    let mut mask = NodeBitSet::new();
    let has_mask = transport.refresh_alive_positions(&overlay, faults, &mut mask);
    assert_eq!(has_mask, chord, "chord transports always produce a mask");
    (overlay, transport, mask)
}

/// Evaluates `count` lanes through the kernel in the given mode and
/// clones the per-lane results out.
#[allow(clippy::too_many_arguments)]
fn kernel_results(
    overlay: &Overlay,
    transport: &Transport,
    policy: RoutingPolicy,
    faults: Option<&FaultPlan>,
    route_master: u64,
    count: usize,
    alive: Option<&NodeBitSet>,
    batched: bool,
) -> Vec<sos_sim::routing::RouteResult> {
    let mut kernel = RouteBatchScratch::new();
    let mut oracle = RouteScratch::new();
    kernel.begin_trial();
    kernel.evaluate(
        overlay,
        transport,
        policy,
        faults,
        &RetryPolicy::none(),
        route_master,
        0,
        count,
        alive,
        &mut oracle,
        batched,
    );
    (0..count).map(|k| kernel.result(k).clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lane-for-lane: the batched fast path equals the scalar oracle —
    /// and both equal a by-hand `route` call seeded with the public
    /// `route_lane_seed` derivation, with the liveness mask and again
    /// with per-node (closure) liveness — across all three routing
    /// policies, both transports, and fault plane off, lossy, and
    /// crashing (the mask then encodes "good and not crashed").
    #[test]
    fn kernel_lanes_match_scalar_oracle(seed in 0..1_000u64, trial in 0..50u64) {
        let lossy = FaultConfig::none().loss(0.25).delay(0.2, 2).seed(9);
        let crashing = FaultConfig::none().crash(0.15).seed(9);
        let route_master = trial_stream_seed(seed, stream::ROUTE, trial);
        let count = 24usize;
        for chord in [false, true] {
            for policy in POLICIES {
                for fault_cfg in [None, Some(&lossy), Some(&crashing)] {
                    let faulted = fault_cfg.is_some();
                    let new_plan = || fault_cfg.map(|cfg| FaultPlan::new(cfg, trial));
                    let plan_mask = new_plan();
                    let (overlay, transport, mask) = damaged(seed, chord, plan_mask.as_ref());
                    let alive = chord.then_some(&mask);

                    let plan_a = new_plan();
                    let fast = kernel_results(
                        &overlay, &transport, policy, plan_a.as_ref(),
                        route_master, count, alive, true,
                    );
                    let plan_b = new_plan();
                    let slow = kernel_results(
                        &overlay, &transport, policy, plan_b.as_ref(),
                        route_master, count, alive, false,
                    );
                    prop_assert_eq!(
                        &fast, &slow,
                        "kernel != oracle: chord={} policy={} faults={}",
                        chord, policy, faulted
                    );

                    // And a by-hand scalar loop over the public lane-seed
                    // helper reproduces the same lanes, masked and with
                    // the liveness derived per node.
                    let plan_c = new_plan();
                    let plan_d = new_plan();
                    let masked = RouteCtx {
                        faults: plan_c.as_ref(),
                        alive,
                        ..RouteCtx::new(&overlay, &transport, policy)
                    };
                    let unmasked = RouteCtx { faults: plan_d.as_ref(), alive: None, ..masked };
                    let mut scratch = RouteScratch::new();
                    for (k, expect) in fast.iter().enumerate() {
                        for ctx in [&masked, &unmasked] {
                            let mut rng = StdRng::seed_from_u64(
                                route_lane_seed(seed, trial, k as u64),
                            );
                            let manual = route(ctx, &mut rng, &mut scratch);
                            prop_assert_eq!(
                                manual, expect,
                                "lane {} != manual: chord={} policy={} faults={} masked={}",
                                k, chord, policy, faulted, ctx.alive.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    /// One trial's 24 routes evaluated in chunks of 1, 4, 16 or 24
    /// lanes through one kernel scratch (one `begin_trial`, so later
    /// chunks price Chord hops from the memo earlier chunks filled)
    /// equal the unchunked scalar oracle lane for lane — across all
    /// three policies, both transports, and fault plane off, lossy and
    /// crashing.
    #[test]
    fn chunked_kernel_lanes_match_scalar_oracle(seed in 0..1_000u64, trial in 0..50u64) {
        let lossy = FaultConfig::none().loss(0.25).delay(0.2, 2).seed(9);
        let crashing = FaultConfig::none().crash(0.15).seed(9);
        let route_master = trial_stream_seed(seed, stream::ROUTE, trial);
        let count = 24usize;
        for chord in [false, true] {
            for policy in POLICIES {
                for fault_cfg in [None, Some(&lossy), Some(&crashing)] {
                    let new_plan = || fault_cfg.map(|cfg| FaultPlan::new(cfg, trial));
                    let plan_mask = new_plan();
                    let (overlay, transport, mask) = damaged(seed, chord, plan_mask.as_ref());
                    let alive = chord.then_some(&mask);
                    let plan_oracle = new_plan();
                    let oracle = kernel_results(
                        &overlay, &transport, policy, plan_oracle.as_ref(),
                        route_master, count, alive, false,
                    );
                    for chunk in [1usize, 4, 16, 24] {
                        let plan = new_plan();
                        let mut kernel = RouteBatchScratch::new();
                        let mut scratch = RouteScratch::new();
                        kernel.begin_trial();
                        let mut lanes = Vec::new();
                        for first in (0..count).step_by(chunk) {
                            let n = chunk.min(count - first);
                            kernel.evaluate(
                                &overlay, &transport, policy, plan.as_ref(),
                                &RetryPolicy::none(), route_master, first as u64, n,
                                alive, &mut scratch, true,
                            );
                            lanes.extend((0..n).map(|k| kernel.result(k).clone()));
                        }
                        prop_assert_eq!(
                            &lanes, &oracle,
                            "chunks of {} != oracle: chord={} policy={} faults={}",
                            chunk, chord, policy, fault_cfg.is_some()
                        );
                    }
                }
            }
        }
    }
}

fn sim_config(transport: TransportKind, policy: RoutingPolicy, faulted: bool) -> SimulationConfig {
    let mut cfg = SimulationConfig::new(
        scenario(),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(40, 70),
        },
    )
    .trials(12)
    .routes_per_trial(30)
    .seed(11)
    .transport(transport)
    .policy(policy);
    if faulted {
        cfg = cfg.faults(FaultConfig::none().loss(0.2).seed(3));
    }
    cfg
}

/// `run_parallel` output is byte-identical at 1/2/4/8 threads, for
/// greedy and backtracking policies, both transports, fault plane on
/// and off.
#[test]
fn run_parallel_byte_identical_across_threads() {
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for (policy, faulted) in [
            (RoutingPolicy::RandomGood, false),
            (RoutingPolicy::FirstGood, false),
            (RoutingPolicy::Backtracking, false),
            (RoutingPolicy::RandomGood, true),
        ] {
            let sim = Simulation::new(sim_config(transport, policy, faulted));
            let mut reference: Option<String> = None;
            for threads in [1usize, 2, 4, 8] {
                let json = serde_json::to_string(&sim.run_parallel(threads)).unwrap();
                match &reference {
                    None => reference = Some(json),
                    Some(expect) => assert_eq!(
                        expect, &json,
                        "{threads} threads diverged ({transport:?} {policy} faults={faulted})"
                    ),
                }
            }
        }
    }
}

/// `run_sweep` (the pooled executor) is byte-identical at 1/2/4/8
/// threads too — the kernel lives below the sweep scheduler, so who
/// routes a trial never changes what it delivers.
#[test]
fn run_sweep_byte_identical_across_threads() {
    let configs: Vec<SimulationConfig> = [TransportKind::Direct, TransportKind::Chord]
        .into_iter()
        .flat_map(|t| {
            POLICIES
                .into_iter()
                .map(move |p| sim_config(t, p, false).trials(8))
        })
        .collect();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let results = SweepExecutor::with_threads(threads).run(&configs);
        let json = serde_json::to_string(&results).unwrap();
        match &reference {
            None => reference = Some(json),
            Some(expect) => assert_eq!(expect, &json, "sweep diverged at {threads} threads"),
        }
    }
}

/// Fig. 4-style statistical check: after the per-route stream
/// migration the Monte Carlo delivery probability still matches the
/// paper's hypergeometric evaluator priced on the same realized damage
/// (the distribution is unchanged even though the draws moved to
/// dedicated `ROUTE` sub-streams).
#[test]
fn mc_still_matches_analytic_model_after_stream_migration() {
    let cfg = SimulationConfig::new(
        scenario(),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(0, 120),
        },
    )
    .trials(80)
    .routes_per_trial(50)
    .seed(29);
    let result = Simulation::new(cfg).run_parallel(4);
    let mc = result.success_rate();
    let analytic = result.realized_ps_hypergeometric;
    assert!(
        (mc - analytic).abs() < 0.04,
        "MC {mc} vs hypergeometric {analytic}"
    );
}

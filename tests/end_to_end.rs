//! End-to-end integration tests spanning overlay construction, attack
//! execution, routing, and the analytical pricing of realized states.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sos::attack::{OneBurstAttacker, SuccessiveAttacker};
use sos::core::{
    AttackBudget, MappingDegree, NodeDistribution, PathEvaluator, Scenario,
    SuccessiveParams, SystemParams,
};
use sos::overlay::{ChordRing, HopCtx, NodeId, Overlay, Transport};
use sos::sim::routing::{route, RouteCtx, RouteScratch, RoutingPolicy};

fn scenario() -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(1_000, 90, 0.5).unwrap())
        .layers(3)
        .distribution(NodeDistribution::Increasing)
        .mapping(MappingDegree::OneTo(3))
        .filters(10)
        .build()
        .unwrap()
}

#[test]
fn attack_outcome_and_overlay_state_are_consistent() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut overlay = Overlay::build(&scenario(), &mut rng);
    let outcome =
        OneBurstAttacker::new(AttackBudget::new(150, 250)).execute(&mut overlay, &mut rng);

    // Every broken node in the outcome is Broken on the overlay; every
    // congested node is Congested; totals agree with the compromise
    // state.
    for &b in &outcome.broken {
        assert_eq!(overlay.status(b), sos::overlay::NodeStatus::Broken);
    }
    for &c in &outcome.congested {
        assert_eq!(overlay.status(c), sos::overlay::NodeStatus::Congested);
    }
    let state = overlay.compromise_state();
    let sos_broken: usize = outcome
        .broken
        .iter()
        .filter(|&&b| overlay.layer_of(b).is_some())
        .count();
    assert_eq!(state.total_broken(), sos_broken as f64);
    let infra_congested: usize = outcome
        .congested
        .iter()
        .filter(|&&c| overlay.layer_of(c).is_some())
        .count();
    assert_eq!(state.total_congested(), infra_congested as f64);
}

#[test]
fn routing_respects_attack_damage() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut overlay = Overlay::build(&scenario(), &mut rng);
    SuccessiveAttacker::new(
        AttackBudget::new(150, 250),
        SuccessiveParams::paper_default(),
    )
    .execute(&mut overlay, &mut rng);

    let ctx = RouteCtx::new(&overlay, &Transport::Direct, RoutingPolicy::RandomGood);
    let mut scratch = RouteScratch::new();
    for _ in 0..200 {
        let result = route(&ctx, &mut rng, &mut scratch);
        // Whatever path was taken, every node on it must be good.
        for node in &result.path {
            assert!(overlay.is_good(*node), "routed through bad node {node}");
        }
        if result.delivered {
            assert_eq!(result.deepest_layer, 4);
            assert_eq!(result.path.len(), 4);
        }
    }
}

#[test]
fn realized_state_pricing_brackets_empirical_rate() {
    // Price the *realized* compromise state with eq.(1) and check the
    // empirical delivery rate on the same overlay is in the same
    // neighbourhood (binomial evaluator, random-good routing).
    let mut rng = StdRng::seed_from_u64(3);
    let mut hits = 0u32;
    let mut total = 0u32;
    let mut predicted = 0.0f64;
    let overlays = 40;
    for seed in 0..overlays {
        let mut rng_build = StdRng::seed_from_u64(1_000 + seed);
        let mut overlay = Overlay::build(&scenario(), &mut rng_build);
        OneBurstAttacker::new(AttackBudget::new(100, 200))
            .execute(&mut overlay, &mut rng_build);
        predicted += PathEvaluator::Binomial
            .success_probability(overlay.scenario().topology(), &overlay.compromise_state())
            .value();
        let ctx = RouteCtx::new(&overlay, &Transport::Direct, RoutingPolicy::RandomGood);
        let mut scratch = RouteScratch::new();
        for _ in 0..100 {
            total += 1;
            if route(&ctx, &mut rng, &mut scratch).delivered {
                hits += 1;
            }
        }
    }
    let empirical = hits as f64 / total as f64;
    let predicted = predicted / overlays as f64;
    assert!(
        (empirical - predicted).abs() < 0.08,
        "empirical {empirical} vs eq.(1)-on-realized {predicted}"
    );
}

#[test]
fn chord_ring_covers_overlay_and_routes() {
    let mut rng = StdRng::seed_from_u64(4);
    let overlay = Overlay::build(&scenario(), &mut rng);
    let members: Vec<NodeId> = overlay.overlay_ids().collect();
    let ring = ChordRing::build(&mut rng, &members);
    assert_eq!(ring.len(), 1_000);
    // Every SOS neighbor relationship is routable over the clean ring.
    let transport = Transport::Chord(ring);
    for layer in 1..=2usize {
        for &node in overlay.layer_members(layer).iter().take(10) {
            for &next in overlay.neighbors(node) {
                assert!(
                    transport
                        .deliver(&HopCtx::new(&overlay), node, next, None)
                        .is_delivered(),
                    "{node} -> {next} not routable on a clean ring"
                );
            }
        }
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = |seed: u64| -> (usize, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::build(&scenario(), &mut rng);
        let outcome = SuccessiveAttacker::new(
            AttackBudget::new(120, 220),
            SuccessiveParams::paper_default(),
        )
        .execute(&mut overlay, &mut rng);
        let state = overlay.compromise_state();
        let per_layer: Vec<f64> = (1..=4).map(|i| state.bad(i)).collect();
        (outcome.total_attempts(), per_layer)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn increasing_distribution_shapes_the_overlay() {
    let mut rng = StdRng::seed_from_u64(5);
    let overlay = Overlay::build(&scenario(), &mut rng);
    let sizes: Vec<usize> = (1..=3).map(|l| overlay.layer_members(l).len()).collect();
    assert_eq!(sizes.iter().sum::<usize>(), 90);
    assert_eq!(sizes[0], 30, "first layer fixed at n/L");
    assert!(sizes[1] < sizes[2], "increasing distribution toward target");
}

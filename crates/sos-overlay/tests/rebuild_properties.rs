//! Property tests for the zero-rebuild construction paths: rebuilding
//! a dirty structure in place (`build_into`) must be observationally
//! identical to building a fresh one — same topology, same statuses,
//! same RNG consumption — across randomized scenarios and ring sizes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_core::{MappingDegree, Scenario, SystemParams};
use sos_overlay::{ChordRing, NodeId, NodeStatus, Overlay};

fn scenario(big_n: u64, sos: u64, layers: usize, mapping: MappingDegree) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(big_n, sos, 0.5).unwrap())
        .layers(layers)
        .mapping(mapping)
        .filters(6)
        .build()
        .unwrap()
}

/// Compares every public observable of two overlays.
fn assert_overlays_match(fresh: &Overlay, reused: &Overlay) {
    assert_eq!(fresh.overlay_node_count(), reused.overlay_node_count());
    assert_eq!(fresh.layer_count(), reused.layer_count());
    assert_eq!(fresh.total_bad(), reused.total_bad());
    for layer in 1..=fresh.layer_count() {
        assert_eq!(fresh.layer_members(layer), reused.layer_members(layer));
    }
    for id in fresh.overlay_ids() {
        assert_eq!(fresh.role(id), reused.role(id));
        assert_eq!(fresh.status(id), reused.status(id));
        assert_eq!(fresh.neighbors(id), reused.neighbors(id));
        assert_eq!(fresh.is_good(id), reused.is_good(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Overlay::build_into` on an arbitrarily dirty overlay (different
    /// scenario shape, attack damage) equals a fresh `Overlay::build`
    /// bit for bit, including the number of RNG draws consumed.
    #[test]
    fn overlay_rebuild_matches_fresh_build(
        seed in 0u64..10_000,
        big_n in 300u64..1_500,
        sos in 24u64..80,
        layers in 2usize..5,
        mapping_k in 1u64..6,
        dirty_seed in 0u64..10_000,
    ) {
        let target = scenario(big_n, sos, layers, MappingDegree::OneTo(mapping_k));
        // Dirty state: an overlay of a *different* shape with damage.
        let dirty_scenario = scenario(500, 40, 3, MappingDegree::ONE_TO_ONE);
        let mut dirty_rng = StdRng::seed_from_u64(dirty_seed);
        let mut reused = Overlay::build(&dirty_scenario, &mut dirty_rng);
        let victims: Vec<NodeId> = reused.overlay_ids().take(25).collect();
        for v in victims {
            reused.set_status(v, NodeStatus::Congested);
        }

        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let mut reuse_rng = StdRng::seed_from_u64(seed);
        let fresh = Overlay::build(&target, &mut fresh_rng);
        reused.build_into(&target, &mut reuse_rng);

        assert_overlays_match(&fresh, &reused);
        // Same draw count: the streams stay aligned after the build.
        prop_assert_eq!(fresh_rng.gen::<u64>(), reuse_rng.gen::<u64>());
    }

    /// `ChordRing::build_into` on a dirty ring equals a fresh build:
    /// same ids, same lookups from every member, same RNG consumption.
    #[test]
    fn ring_rebuild_matches_fresh_build(
        seed in 0u64..10_000,
        members_n in 1u32..400,
        dirty_n in 1u32..400,
    ) {
        let members: Vec<NodeId> = (0..members_n).map(NodeId).collect();
        let mut reused = {
            let dirty: Vec<NodeId> = (500..500 + dirty_n).map(NodeId).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1_57);
            ChordRing::build(&mut rng, &dirty)
        };

        let mut fresh_rng = StdRng::seed_from_u64(seed);
        let mut reuse_rng = StdRng::seed_from_u64(seed);
        let fresh = ChordRing::build(&mut fresh_rng, &members);
        reused.build_into(&mut reuse_rng, &members);

        prop_assert_eq!(fresh.len(), reused.len());
        let mut probe = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for &m in &members {
            prop_assert_eq!(fresh.id_of(m), reused.id_of(m));
            prop_assert_eq!(fresh.successor(m), reused.successor(m));
            let key = probe.gen::<u64>();
            prop_assert_eq!(fresh.lookup(m, key), reused.lookup(m, key));
        }
        prop_assert_eq!(fresh_rng.gen::<u64>(), reuse_rng.gen::<u64>());
    }

    /// The engine's *exact* reuse path: a memo hit keeps the built
    /// overlay and only calls `reset_statuses`, which must equal a
    /// fresh build from the same seed once attack damage is cleared.
    #[test]
    fn status_reset_matches_fresh_build(
        seed in 0u64..10_000,
        big_n in 300u64..1_200,
        sos in 24u64..64,
        layers in 2usize..5,
        mapping_k in 1u64..6,
        damage in 0usize..60,
    ) {
        let s = scenario(big_n, sos, layers, MappingDegree::OneTo(mapping_k));
        let mut reused = Overlay::build(&s, &mut StdRng::seed_from_u64(seed));
        let victims: Vec<NodeId> = reused.overlay_ids().take(damage).collect();
        for v in victims {
            reused.set_status(v, NodeStatus::Broken);
        }
        reused.reset_statuses();
        let fresh = Overlay::build(&s, &mut StdRng::seed_from_u64(seed));
        assert_overlays_match(&fresh, &reused);
    }
}

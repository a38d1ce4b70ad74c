//! Property tests for churn invariants:
//!
//! * node counts are conserved by churn steps (the overlay never gains
//!   or loses nodes; with promotion the SOS population is conserved
//!   too, without it SOS losses are exactly the `SosLost` events);
//! * after a stabilize round, no dead node is retained in any alive
//!   node's successor list on the protocol ring.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_core::{MappingDegree, Scenario, SystemParams};
use sos_overlay::churn::{ChurnEvent, ChurnModel};
use sos_overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
use sos_overlay::{NodeId, Overlay, Role};

fn build_overlay(seed: u64) -> Overlay {
    let scenario = Scenario::builder()
        .system(SystemParams::new(400, 48, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(8)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    Overlay::build(&scenario, &mut rng)
}

fn sos_population(o: &Overlay) -> usize {
    (1..=o.layer_count())
        .map(|l| o.layer_members(l).len())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn conserves the overlay node population, and with promotion
    /// enabled conserves the SOS population exactly; without promotion
    /// the SOS population shrinks by exactly the number of `SosLost`
    /// events. Every overlay node always has exactly one role.
    #[test]
    fn churn_conserves_node_counts(
        seed in 0u64..10_000,
        rate in 0.0f64..0.3,
        promote_bit in 0u8..2,
        steps in 1usize..8,
    ) {
        let promote = promote_bit == 1;
        let mut o = build_overlay(seed);
        let nodes_before = o.overlay_node_count();
        let sos_before = sos_population(&o);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let model = ChurnModel::new(rate, promote);
        let mut sos_lost = 0usize;
        for _ in 0..steps {
            for e in model.step(&mut o, &mut rng) {
                if matches!(e, ChurnEvent::SosLost { .. }) {
                    sos_lost += 1;
                }
            }
        }
        prop_assert_eq!(o.overlay_node_count(), nodes_before);
        if promote {
            prop_assert_eq!(sos_population(&o), sos_before);
            prop_assert_eq!(sos_lost, 0);
        } else {
            prop_assert_eq!(sos_population(&o), sos_before - sos_lost);
        }
        // Role bookkeeping stays consistent: each layer member is an Sos
        // node of that layer, and each claims exactly one layer.
        for layer in 1..=o.layer_count() {
            for &m in o.layer_members(layer) {
                prop_assert_eq!(o.role(m), Role::Sos { layer: layer as u16 });
                prop_assert_eq!(o.layer_of(m), Some(layer));
            }
        }
    }
}

fn build_protocol(
    n: usize,
    seed: u64,
) -> (
    ChordProtocol,
    sos_des::Scheduler<sos_overlay::MaintenanceEvent>,
    Vec<u64>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut proto = ChordProtocol::new(ProtocolConfig::default());
    let mut sched = sos_des::Scheduler::new();
    let mut ids: Vec<u64> = Vec::new();
    for i in 0..n {
        let mut id = rng.gen::<u64>();
        while ids.contains(&id) {
            id = rng.gen::<u64>();
        }
        ids.push(id);
        if i == 0 {
            proto.bootstrap(id, NodeId(i as u32), &mut sched);
        } else {
            let via = ids[rng.gen_range(0..i)];
            proto.join(id, NodeId(i as u32), via, &mut sched);
            let now = sched.now();
            run_maintenance(&mut proto, &mut sched, now + 25);
        }
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 2_000);
    (proto, sched, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After a full stabilize round following failures, no alive node
    /// retains a dead node in its successor list: stabilize both skips
    /// dead heads *and* filters dead entries when copying the
    /// successor's list forward.
    #[test]
    fn stabilize_purges_dead_successor_entries(
        seed in 0u64..10_000,
        kill_fraction in 0.1f64..0.3,
    ) {
        let n = 48usize;
        let (mut proto, mut sched, ids) = build_protocol(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let kills = ((n as f64) * kill_fraction) as usize;
        let mut killed = std::collections::HashSet::new();
        while killed.len() < kills {
            let victim = ids[rng.gen_range(0..ids.len())];
            if killed.insert(victim) {
                proto.kill(victim);
            }
        }
        // One full stabilize round for every node (interval is 10 ticks;
        // give a couple of rounds so rescue paths also settle).
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 50);
        for id in proto.alive_ids() {
            let list = proto.successor_list_of(id).unwrap();
            prop_assert!(!list.is_empty(), "alive node {id} has an empty list");
            for &entry in &list {
                prop_assert!(
                    proto.is_alive(entry),
                    "alive node {} retains dead successor {} after stabilize",
                    id,
                    entry
                );
            }
        }
    }
}

//! Property-based tests for the Chord substrate: the oracle ring and
//! the maintenance protocol under random join/kill schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_des::Scheduler;
use sos_overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
use sos_overlay::{ChordRing, NodeId};
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_ring_lookup_always_matches_naive(
        n in 2u32..150,
        seed in 0u64..1_000,
        keys in prop::collection::vec(0u64..u64::MAX, 1..20),
    ) {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = ChordRing::build(&mut rng, &members);
        for key in keys {
            let from = NodeId(rng.gen_range(0..n));
            let out = ring.lookup(from, key);
            prop_assert_eq!(out.owner, ring.owner_of(key));
            // Path length stays within the Chord bound with slack.
            prop_assert!(out.hops() <= 2 * 64);
        }
    }

    #[test]
    fn oracle_ring_survives_random_failures(
        n in 20u32..120,
        seed in 0u64..1_000,
        dead_fraction in 0.0f64..0.4,
    ) {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = ChordRing::build(&mut rng, &members);
        let dead: HashSet<NodeId> = members
            .iter()
            .filter(|_| rng.gen::<f64>() < dead_fraction)
            .copied()
            .collect();
        for _ in 0..10 {
            let key = rng.gen::<u64>();
            let owner = ring.owner_of(key);
            let alive_sources: Vec<NodeId> = members
                .iter()
                .filter(|m| !dead.contains(m))
                .copied()
                .collect();
            prop_assume!(!alive_sources.is_empty());
            let from = alive_sources[rng.gen_range(0..alive_sources.len())];
            let mut path = Vec::new();
            let result = ring.lookup_avoiding(from, key, |x| !dead.contains(&x), Some(&mut path));
            if dead.contains(&owner) {
                prop_assert!(result.is_none(), "dead owner cannot be found");
            } else if let Some((found, _)) = result {
                // When a route exists it must be correct and clean.
                prop_assert_eq!(found, owner);
                prop_assert!(path.iter().all(|p| !dead.contains(p)));
            }
            // A missing route is acceptable only under heavy failure
            // (successor-list exhaustion); correctness is what we pin.
        }
    }

    #[test]
    fn protocol_converges_after_random_schedule(
        n in 4usize..40,
        kills in 0usize..8,
        seed in 0u64..500,
    ) {
        prop_assume!(kills < n / 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = Scheduler::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut used = HashSet::new();
        for i in 0..n {
            let mut id = rng.gen::<u64>();
            while !used.insert(id) {
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
        // Random kills.
        let mut killed = HashSet::new();
        while killed.len() < kills {
            let victim = ids[rng.gen_range(0..ids.len())];
            if killed.insert(victim) {
                proto.kill(victim);
            }
        }
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 5_000);
        prop_assert!(
            proto.is_converged(),
            "fraction = {}",
            proto.convergence_fraction()
        );
        // Converged lookups match the oracle from every alive node.
        let survivors: Vec<u64> = ids
            .iter()
            .filter(|id| !killed.contains(id))
            .copied()
            .collect();
        for _ in 0..5 {
            let key = rng.gen::<u64>();
            let from = survivors[rng.gen_range(0..survivors.len())];
            prop_assert_eq!(proto.lookup(from, key), proto.oracle_successor(key));
        }
    }
}

//! The public contract of the Chord maintenance protocol and of the
//! event scheduler that drives it: what each query answers for known,
//! dead and unknown ids, the ring-order answers, the routing invariants
//! under a fault plan, the maintenance timers, and the scheduler's
//! firing order and accounting. `protocol_golden.rs` pins exact
//! numbers; these tests state the rules those numbers follow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::core::{MappingDegree, Scenario, SystemParams};
use sos::des::{run_until, Scheduler, SimTime, Simulation, StepOutcome};
use sos::overlay::protocol::{run_maintenance, ChordProtocol, MaintenanceEvent, ProtocolConfig};
use sos::overlay::{NodeId, NodeStatus, Overlay};
use sos_faults::{FaultConfig, FaultPlan};
use std::collections::HashSet;

/// Identifier-space size; the protocol's hop budget is `2n + ID_BITS`.
const ID_BITS: usize = 64;

/// A ring of `n` random ids, joined one by one with maintenance
/// interleaved, then run until every pointer has settled.
fn converged_ring(
    n: usize,
    seed: u64,
    cfg: ProtocolConfig,
) -> (ChordProtocol, Scheduler<MaintenanceEvent>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut proto = ChordProtocol::new(cfg);
    let mut sched = Scheduler::new();
    let mut ids: Vec<u64> = Vec::with_capacity(n);
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
            run_maintenance(&mut proto, &mut sched, now + 30);
        }
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 2_000);
    assert!(proto.is_converged(), "fixture ring must converge");
    (proto, sched, ids)
}

/// A ring with the given ids, overlay node `i` behind `ids[i]`, with no
/// maintenance run yet.
fn fresh_ring(ids: &[u64]) -> (ChordProtocol, Scheduler<MaintenanceEvent>) {
    let mut proto = ChordProtocol::new(ProtocolConfig::default());
    let mut sched = Scheduler::new();
    proto.bootstrap(ids[0], NodeId(0), &mut sched);
    for (i, &id) in ids.iter().enumerate().skip(1) {
        proto.join(id, NodeId(i as u32), ids[0], &mut sched);
    }
    (proto, sched)
}

fn plan(cfg: FaultConfig) -> FaultPlan {
    FaultPlan::new(&cfg, 1)
}

#[test]
fn unknown_ids_are_absent_from_every_query() {
    let (proto, _, ids) = converged_ring(16, 11, ProtocolConfig::default());
    let stranger = (0u64..).find(|x| !ids.contains(x)).unwrap();
    assert!(!proto.is_alive(stranger));
    assert_eq!(proto.successor_list_of(stranger), None);
    assert_eq!(proto.overlay_of(stranger), None);
    assert_eq!(proto.successor_walk(stranger, 7, None), None);
    assert_eq!(proto.chord_id_of(NodeId(999)), None);
}

#[test]
fn a_lookup_from_an_unknown_id_fails_but_is_counted() {
    let (proto, _, ids) = converged_ring(16, 12, ProtocolConfig::default());
    let stranger = (0u64..).find(|x| !ids.contains(x)).unwrap();
    let before = proto.lookups_issued();
    assert_eq!(proto.lookup_with_hops(stranger, 7, None), None);
    assert_eq!(proto.lookups_issued(), before + 1);
}

#[test]
fn a_lookup_from_an_unknown_id_draws_misroutes_until_a_clean_step() {
    let (proto, _, ids) = converged_ring(16, 13, ProtocolConfig::default());
    let stranger = (0u64..).find(|x| !ids.contains(x)).unwrap();
    // No misroute rate: every routing step draws clean.
    let clean = plan(FaultConfig::none().loss(0.5).seed(3));
    assert_eq!(proto.lookup_with_hops(stranger, 7, Some(&clean)), None);
    assert_eq!(
        clean.misroute_draws(),
        1,
        "first step is clean and dead-ends"
    );
    let hostile = plan(FaultConfig::none().misroute(1.0).seed(3));
    assert_eq!(proto.lookup_with_hops(stranger, 7, Some(&hostile)), None);
    assert_eq!(hostile.misroute_draws(), (2 * ids.len() + ID_BITS) as u64);
}

#[test]
fn alive_ids_are_in_ring_order_and_exclude_the_dead() {
    let (mut proto, _, ids) = converged_ring(24, 14, ProtocolConfig::default());
    let dead: HashSet<u64> = ids.iter().copied().step_by(3).collect();
    for &id in &dead {
        proto.kill(id);
    }
    let mut expected: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|id| !dead.contains(id))
        .collect();
    expected.sort_unstable();
    assert_eq!(proto.alive_ids(), expected);
    assert_eq!(proto.alive_count(), expected.len());
}

#[test]
fn oracle_successor_wraps_past_the_largest_id() {
    let (proto, _) = fresh_ring(&[200, 100, 300]);
    assert_eq!(proto.oracle_successor(0), Some(100));
    assert_eq!(proto.oracle_successor(100), Some(100));
    assert_eq!(proto.oracle_successor(101), Some(200));
    assert_eq!(proto.oracle_successor(300), Some(300));
    assert_eq!(proto.oracle_successor(301), Some(100));
    assert_eq!(proto.oracle_successor(u64::MAX), Some(100));
}

#[test]
fn oracle_successor_skips_dead_nodes_and_is_none_on_a_dead_ring() {
    let (mut proto, _) = fresh_ring(&[100, 200, 300]);
    proto.kill(200);
    assert_eq!(proto.oracle_successor(150), Some(300));
    proto.kill(300);
    assert_eq!(proto.oracle_successor(150), Some(100));
    proto.kill(100);
    assert_eq!(proto.oracle_successor(150), None);
    assert!(proto.alive_ids().is_empty());
}

#[test]
fn a_killed_node_keeps_its_chord_id_but_not_its_overlay_node() {
    let (mut proto, _) = fresh_ring(&[100, 200, 300]);
    assert_eq!(proto.overlay_of(200), Some(NodeId(1)));
    proto.kill(200);
    assert!(!proto.is_alive(200));
    assert_eq!(proto.overlay_of(200), None);
    assert_eq!(proto.chord_id_of(NodeId(1)), Some(200));
    assert!(
        proto.successor_list_of(200).is_some(),
        "dead state is frozen, not dropped"
    );
}

#[test]
fn converged_successor_lists_follow_ring_order() {
    let cfg = ProtocolConfig {
        successor_list_len: 4,
        ..ProtocolConfig::default()
    };
    let (proto, _, _) = converged_ring(20, 15, cfg);
    let ring = proto.alive_ids();
    for (i, &id) in ring.iter().enumerate() {
        let expected: Vec<u64> = (1..=4).map(|k| ring[(i + k) % ring.len()]).collect();
        assert_eq!(
            proto.successor_list_of(id).unwrap(),
            expected,
            "list of {id}"
        );
    }
}

#[test]
fn converged_lookups_reach_the_oracle_owner_in_at_least_one_hop() {
    let (proto, _, ids) = converged_ring(40, 16, ProtocolConfig::default());
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..200 {
        let key = rng.gen::<u64>();
        let from = ids[rng.gen_range(0..ids.len())];
        let (owner, hops) = proto.lookup_with_hops(from, key, None).unwrap();
        assert_eq!(Some(owner), proto.oracle_successor(key));
        assert!((1..=ids.len()).contains(&hops), "{hops} hops");
    }
}

#[test]
fn successor_walk_finds_the_same_owner_as_finger_routing() {
    let (proto, _, ids) = converged_ring(32, 18, ProtocolConfig::default());
    let mut rng = StdRng::seed_from_u64(19);
    for _ in 0..200 {
        let key = rng.gen::<u64>();
        let from = ids[rng.gen_range(0..ids.len())];
        let walked = proto.successor_walk(from, key, None).unwrap();
        assert_eq!(Some(walked.0), proto.lookup(from, key));
        assert!(walked.1 >= 1 && walked.1 <= ids.len());
    }
}

#[test]
fn a_fault_plan_without_crashes_or_misroutes_routes_like_no_plan() {
    let (mut proto, mut sched, ids) = converged_ring(32, 20, ProtocolConfig::default());
    for &id in ids.iter().step_by(5) {
        proto.kill(id);
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 12);
    // Loss, delay and slow-down act on message delivery in the
    // transport, not on the protocol's choice of next hop.
    let inert = plan(
        FaultConfig::none()
            .loss(0.3)
            .delay(0.3, 4)
            .slow(0.3, 2)
            .seed(21),
    );
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..200 {
        let key = rng.gen::<u64>();
        let from = ids[rng.gen_range(0..ids.len())];
        assert_eq!(
            proto.lookup_with_hops(from, key, Some(&inert)),
            proto.lookup_with_hops(from, key, None)
        );
        assert_eq!(
            proto.successor_walk(from, key, Some(&inert)),
            proto.successor_walk(from, key, None)
        );
    }
}

#[test]
fn crashed_and_dead_nodes_are_never_named_owners() {
    let (mut proto, mut sched, ids) = converged_ring(48, 23, ProtocolConfig::default());
    for &id in ids.iter().step_by(6) {
        proto.kill(id);
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 15);
    let faults = plan(FaultConfig::none().crash(0.2).misroute(0.1).seed(24));
    let mut rng = StdRng::seed_from_u64(25);
    let mut owners = 0;
    for _ in 0..300 {
        let key = rng.gen::<u64>();
        let from = ids[rng.gen_range(0..ids.len())];
        let results = [
            proto.lookup_with_hops(from, key, Some(&faults)),
            proto.successor_walk(from, key, Some(&faults)),
        ];
        for (owner, _) in results.into_iter().flatten() {
            let node = proto.overlay_of(owner).expect("owner is alive on the ring");
            assert!(!faults.is_crashed(node.0), "owner {owner} is crashed");
            owners += 1;
        }
    }
    assert!(owners > 0, "some lookups must succeed");
}

#[test]
fn misrouting_every_step_spends_the_whole_hop_budget() {
    let (proto, _, ids) = converged_ring(12, 26, ProtocolConfig::default());
    let hostile = plan(FaultConfig::none().misroute(1.0).seed(27));
    let from = ids[0];
    let first_successor = proto.successor_list_of(from).unwrap()[0];
    let (owner, hops) = proto
        .lookup_with_hops(from, 12_345, Some(&hostile))
        .unwrap();
    assert_eq!(hops, 2 * ids.len() + ID_BITS);
    assert_eq!(
        owner, first_successor,
        "no progress: the origin's best guess"
    );
}

#[test]
fn a_two_node_ring_splits_the_key_space() {
    let mut proto = ChordProtocol::new(ProtocolConfig::default());
    let mut sched = Scheduler::new();
    proto.bootstrap(1_000, NodeId(0), &mut sched);
    proto.join(5_000, NodeId(1), 1_000, &mut sched);
    run_maintenance(&mut proto, &mut sched, SimTime::from_ticks(200));
    assert!(proto.is_converged());
    assert_eq!(proto.successor_list_of(1_000).unwrap(), vec![5_000]);
    assert_eq!(proto.successor_list_of(5_000).unwrap(), vec![1_000]);
    for from in [1_000, 5_000] {
        assert_eq!(proto.lookup(from, 3_000), Some(5_000));
        assert_eq!(proto.lookup(from, 5_000), Some(5_000));
        assert_eq!(proto.lookup(from, 6_000), Some(1_000));
        assert_eq!(proto.lookup(from, 10), Some(1_000));
    }
}

#[test]
fn one_node_fires_stabilize_and_fix_fingers_on_their_intervals() {
    let mut proto = ChordProtocol::new(ProtocolConfig::default());
    let mut sched = Scheduler::new();
    proto.bootstrap(42, NodeId(0), &mut sched);
    // Stabilize at 10, 20, 30; fix-fingers at 15, 30.
    let (outcome, fired) = run_maintenance(&mut proto, &mut sched, SimTime::from_ticks(30));
    assert_eq!((outcome, fired), (StepOutcome::DeadlineReached, 5));
    assert_eq!(proto.lookups_issued(), 2, "one lookup per fix-fingers");
    assert_eq!(proto.lookup(42, 7), Some(42));
    assert_eq!(proto.lookups_issued(), 3);
    assert_eq!(sched.pending(), 2, "both timers re-armed");
}

#[test]
fn a_dead_node_drops_its_timers() {
    let (mut proto, mut sched, ids) = converged_ring(10, 28, ProtocolConfig::default());
    assert_eq!(sched.pending(), 2 * ids.len());
    proto.kill(ids[3]);
    proto.kill(ids[7]);
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 30);
    assert_eq!(sched.pending(), 2 * (ids.len() - 2));
}

#[test]
fn timers_armed_by_another_protocol_are_dropped() {
    let (_, mut foreign, a_ids) = converged_ring(10, 31, ProtocolConfig::default());
    // B's slots 0–3 are also slots of A; only the ids tell them apart.
    let b_ids = [1_000, 2_000, 3_000, 4_000];
    assert!(b_ids.iter().all(|id| !a_ids.contains(id)));
    let (mut b, _) = fresh_ring(&b_ids);
    let lists = |p: &ChordProtocol| b_ids.map(|id| p.successor_list_of(id));
    let before = (b.lookups_issued(), lists(&b), b.convergence_fraction());
    let (queued, processed) = (foreign.pending() as u64, foreign.processed());
    assert_eq!(queued, 2 * a_ids.len() as u64);

    // Every timer fires within one interval; one re-armed by mistake
    // would keep the queue busy past the deadline.
    let deadline = foreign.now() + 1_000;
    let (outcome, fired) = run_until(&mut b, &mut foreign, deadline);
    assert_eq!((outcome, fired), (StepOutcome::Quiescent, queued));
    assert_eq!(foreign.pending(), 0, "no foreign timer is re-armed");
    assert_eq!(foreign.processed(), processed + queued);
    assert_eq!(
        (b.lookups_issued(), lists(&b), b.convergence_fraction()),
        before,
        "no foreign timer touches B"
    );
}

#[test]
fn successor_lists_never_exceed_the_configured_length() {
    let cfg = ProtocolConfig {
        successor_list_len: 3,
        ..ProtocolConfig::default()
    };
    let (mut proto, mut sched, ids) = converged_ring(30, 29, cfg);
    for &id in ids.iter().step_by(4) {
        proto.kill(id);
    }
    let start = sched.now();
    for step in 1..=20u64 {
        run_maintenance(&mut proto, &mut sched, start + step * 7);
        for &id in &ids {
            let len = proto.successor_list_of(id).unwrap().len();
            assert!((1..=3).contains(&len), "{id} holds {len} successors");
        }
    }
}

#[test]
fn settled_lists_hold_exactly_the_configured_length() {
    for len in [1, 2, 3, 8] {
        let cfg = ProtocolConfig {
            successor_list_len: len,
            ..ProtocolConfig::default()
        };
        let (mut proto, mut sched, ids) = converged_ring(10, 32, cfg);
        let ring = proto.alive_ids();
        let expected = len.min(ring.len() - 1);
        for (i, &id) in ring.iter().enumerate() {
            let list = proto.successor_list_of(id).unwrap();
            let next: Vec<u64> = (1..=expected).map(|k| ring[(i + k) % ring.len()]).collect();
            assert_eq!(list, next, "L={len}: list of {id}");
        }
        // Recovery refills lists from the successor's; they still never
        // grow past L.
        for &id in ids.iter().step_by(3) {
            proto.kill(id);
        }
        let start = sched.now();
        for step in 1..=30u64 {
            run_maintenance(&mut proto, &mut sched, start + step * 5);
            for id in proto.alive_ids() {
                let held = proto.successor_list_of(id).unwrap().len();
                assert!((1..=len).contains(&held), "L={len}: {id} holds {held}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "maintenance intervals must be at least one tick")]
fn a_zero_stabilize_interval_is_rejected() {
    ChordProtocol::new(ProtocolConfig {
        stabilize_interval: 0,
        ..ProtocolConfig::default()
    });
}

#[test]
#[should_panic(expected = "maintenance intervals must be at least one tick")]
fn a_zero_fix_fingers_interval_is_rejected() {
    ChordProtocol::new(ProtocolConfig {
        fix_fingers_interval: 0,
        ..ProtocolConfig::default()
    });
}

#[test]
#[should_panic(expected = "the successor list must hold at least one entry")]
fn an_empty_successor_list_is_rejected() {
    ChordProtocol::new(ProtocolConfig {
        successor_list_len: 0,
        ..ProtocolConfig::default()
    });
}

#[test]
fn one_stabilize_round_clears_dead_entries_from_alive_lists() {
    let (mut proto, mut sched, ids) = converged_ring(30, 30, ProtocolConfig::default());
    for &id in ids.iter().step_by(5) {
        proto.kill(id);
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 10);
    for id in proto.alive_ids() {
        for entry in proto.successor_list_of(id).unwrap() {
            assert!(proto.is_alive(entry), "{id} still lists dead {entry}");
        }
    }
}

#[test]
fn overlay_damage_kills_exactly_the_damaged_ring_members() {
    let scenario = Scenario::builder()
        .system(SystemParams::new(200, 24, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(4)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let mut overlay = Overlay::build(&scenario, &mut rng);
    let nodes: Vec<NodeId> = overlay.overlay_ids().collect();
    let mut proto = ChordProtocol::new(ProtocolConfig::default());
    let mut sched = Scheduler::new();
    // Ids 1000, 1001, ...: distinct and in overlay order.
    proto.bootstrap(1_000, nodes[0], &mut sched);
    for (i, &node) in nodes.iter().enumerate().skip(1) {
        proto.join(1_000 + i as u64, node, 1_000, &mut sched);
    }
    for (i, &node) in nodes.iter().enumerate() {
        match i % 5 {
            1 => overlay.set_status(node, NodeStatus::Congested),
            3 => overlay.set_status(node, NodeStatus::Broken),
            _ => {}
        }
    }
    assert!(!proto.damage_synced(&overlay));
    proto.sync_overlay_damage(&overlay);
    assert!(proto.damage_synced(&overlay));
    for (i, &node) in nodes.iter().enumerate() {
        let id = 1_000 + i as u64;
        assert_eq!(proto.chord_id_of(node), Some(id));
        assert_eq!(proto.is_alive(id), overlay.is_good(node), "node {i}");
    }
    // Ring damage is one-way: healing the overlay resurrects no member.
    overlay.reset_statuses();
    assert!(proto.damage_synced(&overlay));
    assert!(!proto.is_alive(1_001));
}

#[test]
#[should_panic(expected = "is not an alive member")]
fn joining_via_a_dead_member_panics() {
    let (mut proto, mut sched) = fresh_ring(&[100, 200]);
    proto.kill(200);
    proto.join(300, NodeId(2), 200, &mut sched);
}

#[test]
#[should_panic(expected = "unknown chord id")]
fn killing_an_unknown_id_panics() {
    let (mut proto, _) = fresh_ring(&[100, 200]);
    proto.kill(150);
}

#[test]
#[should_panic(expected = "requires an empty network")]
fn a_second_bootstrap_panics() {
    let (mut proto, mut sched) = fresh_ring(&[100]);
    proto.bootstrap(200, NodeId(1), &mut sched);
}

/// Records what fired; an event `n` that is not a multiple of 10
/// schedules `n - 1` at the same tick, behind whatever is already
/// queued there.
struct Echo {
    fired: Vec<(u64, u32)>,
}

impl Simulation for Echo {
    type Event = u32;

    fn handle(&mut self, at: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        self.fired.push((at.ticks(), event));
        if !event.is_multiple_of(10) {
            sched.schedule(at, event - 1);
        }
    }
}

#[test]
fn events_scheduled_for_the_current_tick_queue_behind_it() {
    let mut sched = Scheduler::new();
    sched.schedule(SimTime::from_ticks(5), 12);
    sched.schedule(SimTime::from_ticks(5), 21);
    sched.schedule(SimTime::from_ticks(6), 30);
    let mut world = Echo { fired: Vec::new() };
    let (outcome, n) = run_until(&mut world, &mut sched, SimTime::from_ticks(100));
    assert_eq!(outcome, StepOutcome::Quiescent);
    assert_eq!(n, 6);
    assert_eq!(
        world.fired,
        vec![(5, 12), (5, 21), (5, 11), (5, 20), (5, 10), (6, 30)]
    );
}

#[test]
fn the_scheduler_accounts_for_every_event() {
    let mut sched: Scheduler<u32> = Scheduler::new();
    assert!(sched.is_empty());
    assert_eq!(sched.pop(), None);
    assert_eq!(sched.now(), SimTime::ZERO);
    for i in 0..30u32 {
        sched.schedule(SimTime::from_ticks(u64::from(i % 4) * 10), i);
    }
    assert_eq!(sched.pending(), 30);
    let mut last = SimTime::ZERO;
    for popped in 1..=30u64 {
        let (at, _) = sched.pop().unwrap();
        assert!(at >= last, "time never runs backwards");
        last = at;
        assert_eq!(sched.processed(), popped);
        assert_eq!(sched.pending() as u64, 30 - popped);
    }
    assert!(sched.is_empty());
    assert_eq!(sched.pop(), None);
    assert_eq!(
        sched.now(),
        SimTime::from_ticks(30),
        "an empty pop keeps the clock"
    );
}

#[test]
fn run_until_treats_the_deadline_as_inclusive() {
    let mut sched = Scheduler::new();
    sched.schedule(SimTime::from_ticks(10), 0);
    sched.schedule(SimTime::from_ticks(11), 0);
    let mut world = Echo { fired: Vec::new() };
    let (outcome, n) = run_until(&mut world, &mut sched, SimTime::from_ticks(10));
    assert_eq!((outcome, n), (StepOutcome::DeadlineReached, 1));
    assert_eq!(sched.now(), SimTime::from_ticks(10));
    let mut empty: Scheduler<u32> = Scheduler::new();
    let (outcome, n) = run_until(&mut world, &mut empty, SimTime::from_ticks(10));
    assert_eq!((outcome, n), (StepOutcome::Quiescent, 0));
}

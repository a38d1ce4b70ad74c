//! `run_maintenance` jumps a link-settled ring's clock over whole timer
//! periods instead of stepping them, and writes the fingers the skipped
//! fix-fingers firings would have written. These tests hold it to the
//! plain stepping reference, `sos_des::run_until`: after every
//! maintenance call two copies of one ring agree on every observable
//! (alive ids, successor lists, finger tables, lookups issued, events
//! processed, the clock and the pending queue in firing order), and they
//! keep agreeing through a later failure and recovery, which is where a
//! wrong finger cursor or a reordered queue would show.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::des::{run_until, Scheduler, SimTime, StepOutcome};
use sos::overlay::protocol::{run_maintenance, ChordProtocol, MaintenanceEvent, ProtocolConfig};
use sos::overlay::NodeId;
use std::collections::HashSet;

type Ring = (ChordProtocol, Scheduler<MaintenanceEvent>);

/// Everything a caller can see of a ring and its timers.
#[derive(Debug, PartialEq)]
struct Observed {
    alive: Vec<u64>,
    lists: Vec<Option<Vec<u64>>>,
    fingers: Vec<Option<Vec<u64>>>,
    lookups_issued: u64,
    processed: u64,
    now: SimTime,
    pending: Vec<(SimTime, MaintenanceEvent)>,
}

fn observe((proto, sched): &Ring, ids: &[u64]) -> Observed {
    Observed {
        alive: proto.alive_ids(),
        lists: ids.iter().map(|&id| proto.successor_list_of(id)).collect(),
        fingers: ids.iter().map(|&id| proto.finger_table_of(id)).collect(),
        lookups_issued: proto.lookups_issued(),
        processed: sched.processed(),
        now: sched.now(),
        pending: sched.iter_pending().map(|(at, &e)| (at, e)).collect(),
    }
}

/// The same ring twice: `stepped` advances with `run_until`, `skipped`
/// with `run_maintenance`. Every other operation is applied to both.
struct Twin {
    stepped: Ring,
    skipped: Ring,
    ids: Vec<u64>,
}

impl Twin {
    fn new(cfg: ProtocolConfig) -> Self {
        let ring = || (ChordProtocol::new(cfg), Scheduler::new());
        Twin {
            stepped: ring(),
            skipped: ring(),
            ids: Vec::new(),
        }
    }

    fn both(&mut self, op: impl Fn(&mut ChordProtocol, &mut Scheduler<MaintenanceEvent>)) {
        op(&mut self.stepped.0, &mut self.stepped.1);
        op(&mut self.skipped.0, &mut self.skipped.1);
    }

    fn add(&mut self, id: u64, via: Option<u64>) {
        let node = NodeId(self.ids.len() as u32);
        self.ids.push(id);
        self.both(|proto, sched| match via {
            None => proto.bootstrap(id, node, sched),
            Some(via) => proto.join(id, node, via, sched),
        });
    }

    /// Runs maintenance for `ticks` on both copies and compares them.
    fn maintain(&mut self, ticks: u64) -> Result<(), TestCaseError> {
        let deadline = self.stepped.1.now() + ticks;
        prop_assert_eq!(self.skipped.1.now(), self.stepped.1.now());
        let stepped = run_until(&mut self.stepped.0, &mut self.stepped.1, deadline);
        let skipped = run_maintenance(&mut self.skipped.0, &mut self.skipped.1, deadline);
        prop_assert_eq!(skipped, stepped, "outcome and event count to {}", deadline);
        self.agree()
    }

    fn agree(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            observe(&self.skipped, &self.ids),
            observe(&self.stepped, &self.ids)
        );
        Ok(())
    }

    /// Routes `keys` from every alive member on both copies; hop counts
    /// depend on every finger.
    fn lookups_agree(&self, keys: &[u64]) -> Result<(), TestCaseError> {
        let routes = |proto: &ChordProtocol| -> Vec<Option<(u64, usize)>> {
            let members = proto.alive_ids();
            members
                .iter()
                .flat_map(|&from| keys.iter().map(move |&key| (from, key)))
                .map(|(from, key)| proto.lookup_with_hops(from, key, None))
                .collect()
        };
        prop_assert_eq!(routes(&self.skipped.0), routes(&self.stepped.0));
        Ok(())
    }
}

/// `lcm(stabilize_interval, fix_fingers_interval)`: the jump's unit.
fn period(cfg: &ProtocolConfig) -> u64 {
    let (a, b) = (cfg.stabilize_interval, cfg.fix_fingers_interval);
    (1..=b).map(|k| a * k).find(|m| m % b == 0).unwrap()
}

/// `(stabilize_interval, fix_fingers_interval)` pairs: the default, the
/// longer period on either timer, equal periods, and short ones.
const INTERVALS: [(u64, u64); 4] = [(10, 15), (15, 10), (10, 10), (4, 6)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_maintenance_matches_stepping_every_event(
        n in prop_oneof![1usize..=2, 3usize..=9, 10usize..=32],
        len in prop_oneof![Just(1usize), Just(3usize), Just(8usize)],
        intervals in 0usize..INTERVALS.len(),
        cadence in (1usize..=8, prop_oneof![Just(7u64), Just(25u64), Just(30u64), Just(45u64)]),
        settle in 0u64..4,
        killed_before in prop_oneof![
            Just(0usize), Just(0usize), Just(0usize), Just(0usize), Just(1usize), Just(2usize)
        ],
        tails in prop::collection::vec((0u64..4, 0u64..3), 1..5),
        seed in 0u64..1_000_000,
    ) {
        // `prop_oneof!` leaves its value type to the first use.
        let (n, len, settle, killed_before): (usize, usize, u64, usize) =
            (n, len, settle, killed_before);
        let (join_every, interleave): (usize, u64) = cadence;
        let tails: Vec<(u64, u64)> = tails;
        let (stabilize_interval, fix_fingers_interval) = INTERVALS[intervals];
        let cfg = ProtocolConfig {
            stabilize_interval,
            fix_fingers_interval,
            successor_list_len: len,
        };
        let lcm = period(&cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut twin = Twin::new(cfg);
        let mut used = HashSet::new();
        for i in 0..n {
            let mut id = rng.gen::<u64>();
            while !used.insert(id) {
                id = rng.gen::<u64>();
            }
            let via = (i > 0).then(|| twin.ids[rng.gen_range(0..i)]);
            twin.add(id, via);
            if i % join_every == 0 {
                twin.maintain(interleave)?;
            }
        }
        // Some rings settle with dead members, which never counts as
        // the oracle state.
        for _ in 0..killed_before.min(n - 1) {
            let victim = twin.ids[rng.gen_range(0..n)];
            twin.both(|proto, _| proto.kill(victim));
        }
        // Short of one period, or long enough to converge (a whole
        // number of periods, or one tick off it).
        let settle = match settle {
            0 => lcm - 1,
            1 | 2 => 2_400 / lcm * lcm,
            _ => 2_400 / lcm * lcm + 1,
        };
        twin.maintain(settle)?;
        // Later calls: multiples of the period and one tick either side.
        for &(k, off) in &tails {
            twin.maintain((k * lcm + off).saturating_sub(1).max(1))?;
        }
        let keys: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        twin.lookups_agree(&keys)?;

        // A late join: successor lists settle within a few periods, but
        // the fingers that should now name the newcomer wait for their
        // node's cursor, so the jumps that follow must write them.
        let mut id = rng.gen::<u64>();
        while !used.insert(id) {
            id = rng.gen::<u64>();
        }
        let alive = twin.stepped.0.alive_ids();
        twin.add(id, Some(alive[rng.gen_range(0..alive.len())]));
        for _ in 0..40 {
            twin.maintain(lcm)?;
            twin.lookups_agree(&keys)?;
        }
        twin.maintain(1_200 / lcm * lcm)?;
        twin.lookups_agree(&keys)?;

        // A failure the ring must recover from: the order in which
        // fingers are repaired follows each node's cursor.
        let alive = twin.stepped.0.alive_ids();
        for &victim in alive.iter().skip(1).step_by(4) {
            twin.both(|proto, _| proto.kill(victim));
        }
        for _ in 0..12 {
            twin.maintain(10)?;
            twin.lookups_agree(&keys)?;
        }
        twin.maintain(3 * lcm)?;
        twin.lookups_agree(&keys)?;
    }
}

/// An `n`-node ring with the default timers, joined one node at a time
/// and settled well past convergence.
fn settled_ring(n: u32) -> (Ring, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(u64::from(n));
    let mut proto = ChordProtocol::new(ProtocolConfig::default());
    let mut sched = Scheduler::new();
    let mut ids: Vec<u64> = Vec::new();
    for i in 0..n {
        let id = rng.gen::<u64>();
        if i == 0 {
            proto.bootstrap(id, NodeId(0), &mut sched);
        } else {
            let via = ids[rng.gen_range(0..ids.len())];
            proto.join(id, NodeId(i), via, &mut sched);
            let now = sched.now();
            run_until(&mut proto, &mut sched, now + 30);
        }
        ids.push(id);
    }
    let now = sched.now();
    run_until(&mut proto, &mut sched, now + 3_000);
    assert!(proto.is_converged());
    ((proto, sched), ids)
}

/// What stepping the default timers in `sched` to `deadline` amounts
/// to: `(firings, fix-fingers firings, time of the last firing)`. Each
/// timer fires at its due time and every period after it up to the
/// deadline.
fn closed_form_counts(
    sched: &Scheduler<MaintenanceEvent>,
    deadline: SimTime,
) -> (u64, u64, SimTime) {
    let (mut firings, mut fix_firings, mut last) = (0u64, 0u64, sched.now());
    for (at, event) in sched.iter_pending() {
        let period = interval(event);
        let k = (deadline - at) / period + 1;
        firings += k;
        if let MaintenanceEvent::FixFingers(_) = event {
            fix_firings += k;
        }
        last = last.max(at + (k - 1) * period);
    }
    (firings, fix_firings, last)
}

/// How many fingers of the alive members differ from their oracle
/// owner, `oracle_successor(id + 2^k)`.
fn stale_fingers(proto: &ChordProtocol) -> usize {
    proto
        .alive_ids()
        .into_iter()
        .flat_map(|id| {
            let fingers = proto.finger_table_of(id).unwrap();
            (0..64).filter(move |&k| {
                Some(fingers[k]) != proto.oracle_successor(id.wrapping_add(1 << k))
            })
        })
        .count()
}

#[test]
fn a_settled_ring_skips_a_trillion_ticks_with_closed_form_counts() {
    const TICKS: u64 = 1_000_000_000_000;
    let ((mut proto, mut sched), ids) = settled_ring(64);
    let deadline = sched.now() + TICKS;
    let (firings, fix_firings, last) = closed_form_counts(&sched, deadline);
    // The stepping reference for the tail: the queue one period-multiple
    // earlier, stepped event by event.
    let jump = TICKS / 30 * 30;
    let (mut reference, mut reference_sched) = (proto.clone(), sched.clone());
    run_until(
        &mut reference,
        &mut reference_sched,
        SimTime::from_ticks(deadline.ticks() - jump),
    );

    let (processed, lookups) = (sched.processed(), proto.lookups_issued());
    let (outcome, fired) = run_maintenance(&mut proto, &mut sched, deadline);
    assert_eq!((outcome, fired), (StepOutcome::DeadlineReached, firings));
    assert_eq!(sched.processed(), processed + firings);
    assert_eq!(proto.lookups_issued(), lookups + fix_firings);
    assert_eq!(sched.now(), last);
    assert_eq!(sched.pending(), 2 * ids.len());
    let shifted: Vec<(SimTime, MaintenanceEvent)> = reference_sched
        .iter_pending()
        .map(|(at, &e)| (at + jump, e))
        .collect();
    let pending: Vec<(SimTime, MaintenanceEvent)> =
        sched.iter_pending().map(|(at, &e)| (at, e)).collect();
    assert_eq!(pending, shifted, "same timers, same order, one jump later");
    assert!(proto.is_converged());
    let mut rng = StdRng::seed_from_u64(65);
    for _ in 0..100 {
        let key = rng.gen::<u64>();
        let from = ids[rng.gen_range(0..ids.len())];
        assert_eq!(proto.lookup(from, key), proto.oracle_successor(key));
    }
}

/// One node joins a settled 64-node ring. Its links settle within a few
/// stabilize rounds, while the fingers that should name it (and its own)
/// wait for their node's cursor. Short calls are held to stepping finger
/// by finger with jumps of fewer than 64 fix-fingers rounds; then one
/// call skips 10^12 ticks, which returns only because the jump ran, and
/// must leave every finger at its oracle owner.
#[test]
fn a_link_settled_ring_writes_the_skipped_fingers_in_closed_form() {
    const TICKS: u64 = 1_000_000_000_000;
    let ((proto, sched), ids) = settled_ring(64);
    let mut twin = Twin {
        stepped: (proto.clone(), sched.clone()),
        skipped: (proto, sched),
        ids,
    };
    let mut rng = StdRng::seed_from_u64(66);
    let newcomer = loop {
        let id = rng.gen::<u64>();
        if !twin.ids.contains(&id) {
            break id;
        }
    };
    let via = twin.ids[rng.gen_range(0..twin.ids.len())];
    twin.add(newcomer, Some(via));
    // Step both copies until every successor list is the oracle's.
    let lists_settled = |proto: &ChordProtocol| {
        let alive = proto.alive_ids();
        let n = alive.len();
        alive.iter().enumerate().all(|(i, &id)| {
            let expected = (1..=8.min(n - 1)).map(|k| alive[(i + k) % n]).collect();
            proto.successor_list_of(id) == Some(expected)
        })
    };
    let mut stepped = 0;
    while !lists_settled(&twin.stepped.0) {
        assert!(stepped < 1_000, "links settle within 1,000 ticks");
        stepped += 10;
        twin.both(|proto, sched| {
            let deadline = sched.now() + 10;
            run_until(proto, sched, deadline);
        });
    }
    assert!(stale_fingers(&twin.skipped.0) > 0, "fingers settle last");

    for ticks in [30, 60, 31, 90, 29, 120] {
        twin.maintain(ticks).unwrap();
    }
    assert!(
        stale_fingers(&twin.skipped.0) > 0,
        "the short jumps ran with fingers still stale"
    );

    let (mut proto, mut sched) = twin.skipped;
    let deadline = sched.now() + TICKS;
    let (firings, fix_firings, last) = closed_form_counts(&sched, deadline);
    let lookups = proto.lookups_issued();
    let outcome = run_maintenance(&mut proto, &mut sched, deadline);
    assert_eq!(outcome, (StepOutcome::DeadlineReached, firings));
    assert_eq!(proto.lookups_issued(), lookups + fix_firings);
    assert_eq!(sched.now(), last);
    assert_eq!(stale_fingers(&proto), 0, "every finger at its oracle owner");
}

/// The default timers' period: 10 ticks for stabilize, 15 for
/// fix-fingers.
fn interval(event: &MaintenanceEvent) -> u64 {
    match event {
        MaintenanceEvent::Stabilize(_) => 10,
        MaintenanceEvent::FixFingers(_) => 15,
    }
}

/// A scheduler with its clock at `now` holding `events`, queued in the
/// order given.
fn requeue(now: SimTime, events: &[(SimTime, MaintenanceEvent)]) -> Scheduler<MaintenanceEvent> {
    let mut sched = Scheduler::new();
    sched.schedule(now, events[0].1);
    sched.pop();
    for &(at, event) in events {
        sched.schedule(at, event);
    }
    sched
}

/// Queues that maintenance never builds on its own: timers reordered
/// within a tick, thinned, delayed, armed by another protocol or armed
/// twice. Each must end where stepping ends, whether the jump waits for
/// every pending timer to fire once or applies at once.
#[test]
fn a_queue_out_of_phase_steps_like_the_reference() {
    let ((proto, sched), ids) = settled_ring(32);
    let ((_, foreign), _) = settled_ring(5);
    let now = sched.now();
    let pending: Vec<(SimTime, MaintenanceEvent)> =
        sched.iter_pending().map(|(at, &e)| (at, e)).collect();
    let mut reversed = pending.clone();
    reversed.reverse();
    reversed.sort_by_key(|&(at, _)| at);
    let mut late = pending.clone();
    let (due, first) = late[0];
    late[0].0 = due + 3 * interval(&first);
    let mut alien = pending.clone();
    let stranger = *foreign.iter_pending().next().unwrap().1;
    alien.push((now + interval(&stranger), stranger));
    // One stabilize and one fix-fingers moved to the earlier of their
    // ticks, stabilize first: re-arming queues the longer period first.
    let mut mixed = pending.clone();
    let stabilize = mixed.remove(
        mixed
            .iter()
            .position(|(_, e)| matches!(e, MaintenanceEvent::Stabilize(_)))
            .unwrap(),
    );
    let fix = mixed.remove(
        mixed
            .iter()
            .position(|(_, e)| matches!(e, MaintenanceEvent::FixFingers(_)))
            .unwrap(),
    );
    let at = stabilize.0.min(fix.0);
    mixed.extend([(at, stabilize.1), (at, fix.1)]);
    let mut doubled = pending.clone();
    doubled.push(pending[0]);
    let tampered = [
        ("reversed within each tick", reversed),
        ("clock a tick past the last re-arm", pending.clone()),
        ("one timer due after its interval", late),
        ("a timer of another protocol", alien),
        ("stabilize queued ahead of fix-fingers", mixed),
        ("one timer armed twice", doubled),
    ];
    for (what, events) in tampered {
        let clock = now + u64::from(what.starts_with("clock"));
        let queue = requeue(clock, &events);
        let mut twin = Twin {
            stepped: (proto.clone(), queue.clone()),
            skipped: (proto.clone(), queue),
            ids: ids.clone(),
        };
        if let Err(e) = step_then_recover(&mut twin) {
            panic!("{what}: {e}");
        }
    }
}

/// Maintenance over deadlines on and off the period, then a failure and
/// ten recovery steps, with lookups compared along the way.
fn step_then_recover(twin: &mut Twin) -> Result<(), TestCaseError> {
    let keys = [7, u64::MAX / 3, u64::MAX - 11];
    for ticks in [7, 30, 29, 31, 300, 1_000, 61] {
        twin.maintain(ticks)?;
    }
    twin.lookups_agree(&keys)?;
    let victims: Vec<u64> = twin.ids.iter().copied().step_by(5).collect();
    for victim in victims {
        twin.both(|proto, _| proto.kill(victim));
    }
    for _ in 0..10 {
        twin.maintain(10)?;
        twin.lookups_agree(&keys)?;
    }
    Ok(())
}

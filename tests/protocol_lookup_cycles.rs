//! A plan-free Chord lookup is a pure function of the node it is at, so
//! one that revisits a node circles the same loop until its hop budget
//! runs out, and `route` ends it in closed form. A lookup with a fault
//! plan draws a misroute decision on every step and so steps every hop.
//! A plan with only message loss changes no routing decision (loss is
//! the transport's, and neither crashes nor misroutes are drawn true),
//! which makes its lookups the stepping reference: on rings left stale
//! by a mass kill, both must return the same owner and hop count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::des::Scheduler;
use sos::overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
use sos::overlay::NodeId;
use sos_faults::{FaultConfig, FaultPlan};
use std::collections::HashSet;

const RINGS: u64 = 48;
const LOOKUPS_PER_RING: usize = 200;

/// One random ring: joined node by node with a little maintenance after
/// each join, then 20–60% of it killed and 0–20 ticks of maintenance
/// run. Returns the protocol and every id that ever joined.
fn stale_ring(rng: &mut StdRng) -> (ChordProtocol, Vec<u64>) {
    let n = rng.gen_range(8..=128usize);
    let successor_list_len = [1usize, 3, 8][rng.gen_range(0..3usize)];
    let mut proto = ChordProtocol::new(ProtocolConfig {
        successor_list_len,
        ..ProtocolConfig::default()
    });
    let mut sched = Scheduler::new();
    let mut ids: Vec<u64> = Vec::with_capacity(n);
    let mut used = HashSet::new();
    for i in 0..n {
        let mut id = rng.gen::<u64>();
        while !used.insert(id) {
            id = rng.gen::<u64>();
        }
        if i == 0 {
            proto.bootstrap(id, NodeId(0), &mut sched);
        } else {
            let via = ids[rng.gen_range(0..i)];
            proto.join(id, NodeId(i as u32), via, &mut sched);
            let now = sched.now();
            run_maintenance(&mut proto, &mut sched, now + 30);
        }
        ids.push(id);
    }
    let kills = n * rng.gen_range(20..=60usize) / 100;
    let mut killed = HashSet::new();
    while killed.len() < kills {
        let victim = ids[rng.gen_range(0..n)];
        if killed.insert(victim) {
            proto.kill(victim);
        }
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + rng.gen_range(0..=20u64));
    (proto, ids)
}

#[test]
fn plan_free_lookups_match_stepping_every_hop() {
    let plan = FaultPlan::new(
        &FaultConfig {
            loss_rate: 0.3,
            seed: 5,
            ..FaultConfig::none()
        },
        0,
    );
    let mut exhausted = 0usize;
    for seed in 0..RINGS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (proto, ids) = stale_ring(&mut rng);
        let max_hops = 2 * ids.len() as u64 + 64;
        for _ in 0..LOOKUPS_PER_RING {
            let key = rng.gen::<u64>();
            // Dead members too: they keep their stale pointers.
            let from = ids[rng.gen_range(0..ids.len())];
            let issued = proto.lookups_issued();
            let closed_form = proto.lookup_with_hops(from, key, None);
            assert_eq!(proto.lookups_issued(), issued + 1);
            let draws = plan.misroute_draws();
            let stepped = proto.lookup_with_hops(from, key, Some(&plan));
            assert_eq!(proto.lookups_issued(), issued + 2);
            assert_eq!(
                closed_form, stepped,
                "ring {seed}: lookup of {key:#x} from {from:#x}"
            );
            if plan.misroute_draws() - draws == max_hops {
                exhausted += 1;
            }
        }
    }
    // Without lookups that run out of hops the comparison shows nothing.
    assert!(
        exhausted >= 400,
        "only {exhausted} reference lookups exhausted their hop budget"
    );
}

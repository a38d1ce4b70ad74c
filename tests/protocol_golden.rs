//! Golden values for the Chord maintenance protocol: a seeded ring's
//! recovery trajectory, a few hundred lookup results with and without
//! a fault plan, and the text of the two protocol report sections,
//! pinned exactly. The protocol's internal state layout may change;
//! none of these numbers may.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::des::Scheduler;
use sos::overlay::protocol::{run_maintenance, ChordProtocol, MaintenanceEvent, ProtocolConfig};
use sos::overlay::NodeId;
use sos_bench::ablations;
use sos_faults::{FaultConfig, FaultPlan};
use std::collections::HashSet;

const RING: usize = 96;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_ids(ids: &[u64]) -> u64 {
    let bytes: Vec<u8> = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Digest of lookup results, each `[1, owner, hops]` or `[0]`.
fn digest_results(results: &[Option<(u64, usize)>]) -> u64 {
    let out: Vec<u64> = results
        .iter()
        .flat_map(|r| match *r {
            Some((owner, hops)) => vec![1, owner, hops as u64],
            None => vec![0],
        })
        .collect();
    digest_ids(&out)
}

/// A ring of `RING` nodes with short successor lists, joined one by one
/// with maintenance interleaved between joins.
fn seeded_ring() -> (ChordProtocol, Scheduler<MaintenanceEvent>, Vec<u64>, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x5057);
    let mut proto = ChordProtocol::new(ProtocolConfig {
        successor_list_len: 3,
        ..ProtocolConfig::default()
    });
    let mut sched = Scheduler::new();
    let mut ids: Vec<u64> = Vec::with_capacity(RING);
    let mut used = HashSet::new();
    for i in 0..RING {
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
    (proto, sched, ids, rng)
}

/// One recovery step: `(convergence fraction, lookups issued, events
/// processed, digest of alive ids, digest of every successor list)`.
type Step = (f64, u64, u64, u64, u64);

fn step_of(proto: &ChordProtocol, sched: &Scheduler<MaintenanceEvent>, ids: &[u64]) -> Step {
    let lists: Vec<u64> = ids
        .iter()
        .flat_map(|&id| {
            let list = proto.successor_list_of(id).expect("joined id").to_vec();
            std::iter::once(list.len() as u64).chain(list)
        })
        .collect();
    (
        proto.convergence_fraction(),
        proto.lookups_issued(),
        sched.processed(),
        digest_ids(&proto.alive_ids()),
        digest_ids(&lists),
    )
}

#[test]
fn recovery_trajectory_is_pinned() {
    let (mut proto, mut sched, ids, mut rng) = seeded_ring();
    let mut steps = vec![step_of(&proto, &sched, &ids)];
    let mut killed = HashSet::new();
    while killed.len() < RING / 4 {
        let victim = ids[rng.gen_range(0..ids.len())];
        if killed.insert(victim) {
            proto.kill(victim);
        }
    }
    steps.push(step_of(&proto, &sched, &ids));
    let start = sched.now();
    for step in 1..=12u64 {
        run_maintenance(&mut proto, &mut sched, start + step * 10);
        steps.push(step_of(&proto, &sched, &ids));
    }
    assert_eq!(steps, PINNED_STEPS);
}

/// Before the kill, after it, then every 10 ticks of maintenance.
#[rustfmt::skip]
const PINNED_STEPS: [Step; 14] = [
    (1.0, 9405, 23275, 0x4c342c0308e02ca4, 0x251a02a56ec0f7d4),
    (0.7222222222222222, 9405, 23275, 0x83be87d4972854af, 0x251a02a56ec0f7d4),
    (0.9722222222222222, 9405, 23371, 0x83be87d4972854af, 0xefd666969225600a),
    (0.9722222222222222, 9477, 23539, 0x83be87d4972854af, 0xc63428a83e589f41),
    (0.9722222222222222, 9549, 23683, 0x83be87d4972854af, 0x92aeae5962f88d27),
    (0.9861111111111112, 9549, 23755, 0x83be87d4972854af, 0x8facef32a509f3df),
    (0.9861111111111112, 9621, 23899, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9693, 24043, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9693, 24115, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9765, 24259, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9837, 24403, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9837, 24475, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9909, 24619, 0x83be87d4972854af, 0xda5127d92c070166),
    (0.9861111111111112, 9981, 24763, 0x83be87d4972854af, 0xda5127d92c070166),
];

#[test]
fn lookup_results_are_pinned() {
    let (mut proto, mut sched, ids, mut rng) = seeded_ring();
    for &victim in ids.iter().step_by(4) {
        proto.kill(victim);
    }
    // Mid-recovery: pointers are stale, so every routing branch runs.
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 15);
    let plan = FaultPlan::new(
        &FaultConfig {
            crash_rate: 0.1,
            misroute_rate: 0.2,
            seed: 77,
            ..FaultConfig::none()
        },
        3,
    );
    let mut results: Vec<Option<(u64, usize)>> = Vec::new();
    for i in 0..300 {
        let key = rng.gen::<u64>();
        // Mostly real members, dead ones included; a few unknown ids.
        let from = if i % 50 == 7 {
            rng.gen::<u64>()
        } else {
            ids[rng.gen_range(0..ids.len())]
        };
        results.push(proto.lookup_with_hops(from, key, None));
        results.push(proto.lookup_with_hops(from, key, Some(&plan)));
        results.push(proto.successor_walk(from, key, Some(&plan)));
        results.push(proto.successor_walk(from, key, None));
    }
    let found = results.iter().filter(|r| r.is_some()).count();
    let summary = (
        found,
        digest_results(&results),
        proto.lookups_issued(),
        plan.misroute_draws(),
    );
    assert_eq!(summary, PINNED_LOOKUPS);
}

/// `(results found, digest of all results, lookups issued, misroute
/// draws)`.
const PINNED_LOOKUPS: (usize, u64, u64, u64) = (1176, 0x0d9da1b7256a47de, 10077, 1864);

#[test]
fn lookups_right_after_a_mass_kill_are_pinned() {
    let (mut proto, _sched, ids, mut rng) = seeded_ring();
    for &victim in ids.iter().step_by(2) {
        proto.kill(victim);
    }
    // No maintenance: half the pointers name dead members, and some
    // lookups circle stale pointers until the hop budget runs out.
    let max_hops = 2 * RING + 64;
    let mut results: Vec<Option<(u64, usize)>> = Vec::new();
    for _ in 0..300 {
        let key = rng.gen::<u64>();
        let from = ids[rng.gen_range(0..ids.len())];
        results.push(proto.lookup_with_hops(from, key, None));
    }
    let exhausted = results
        .iter()
        .filter(|r| matches!(r, Some((_, hops)) if *hops == max_hops))
        .count();
    assert!(exhausted >= 10, "only {exhausted} lookups ran out of hops");
    let found = results.iter().filter(|r| r.is_some()).count();
    let summary = (found, digest_results(&results), proto.lookups_issued());
    assert_eq!(summary, PINNED_AFTER_MASS_KILL, "{exhausted} exhausted");
}

/// `(results found, digest of all results, lookups issued)` for plan-free
/// lookups on the seeded ring with every second member dead.
const PINNED_AFTER_MASS_KILL: (usize, u64, u64) = (204, 0xa566b35cc2ab3494, 9705);

#[test]
fn protocol_report_sections_are_pinned() {
    let stabilization = ablations::stabilization_extension().to_string();
    let staleness = ablations::staleness_extension_with_trials(1).to_string();
    let digests = (
        fnv1a64(stabilization.as_bytes()),
        fnv1a64(staleness.as_bytes()),
    );
    assert_eq!(digests, PINNED_SECTIONS);
}

/// FNV-1a-64 of `ext-stabilization` and one-trial `ext-staleness`.
const PINNED_SECTIONS: (u64, u64) = (0xa31f50308d226807, 0x99fe560dafdc21d0);

#[test]
fn multi_unit_report_sections_are_pinned() {
    let opts = ablations::AblationOptions::quick();
    let sections = [
        ablations::staleness_extension_with_trials(4),
        ablations::protocol_churn_extension(),
        ablations::flow_extension(opts),
        ablations::repair_extension(opts),
    ];
    let digests = sections.map(|table| {
        let json = serde_json::to_string(&table).expect("tables serialize");
        fnv1a64(json.as_bytes())
    });
    assert_eq!(digests, PINNED_MULTI_UNIT);
}

/// FNV-1a-64 of the JSON (every `f64` exact, unlike the CSV's six
/// decimals) of four-trial `ext-staleness`, `ext-protocol-churn`, and
/// quick-sized `ext-flow` and `ext-repair`. Each section sums or
/// averages floats over several independent units (trials, intervals,
/// load ratios, persistences), so a reordered reduction shows here.
const PINNED_MULTI_UNIT: [u64; 4] = [
    0xdae6f8c5e3aa3c51,
    0x77dba1013007d60e,
    0xf390852baba3f660,
    0xe910814a26b675f4,
];

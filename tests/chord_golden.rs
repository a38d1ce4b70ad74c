//! Golden values for the Chord routing substrate (`ChordRing`): greedy
//! lookups, masked lookups with their traces and successor walks over
//! seeded rings with part of the nodes dead, a join/leave sequence, and
//! one paper-scale Chord simulation, pinned as FNV digests. How the
//! ring computes a greedy step may change; none of these numbers may.
//! Nor may the member an identifier collision re-rolls, nor the ring's
//! id order, which must be a comparison sort of the draws.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sos::overlay::{ChordRing, NodeBitSet, NodeId};
use sos::sim::Simulation;
use sos_serve::SimSpec;

/// FNV-1a over a stream of `u64` words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn answer(&mut self, answer: Option<(NodeId, usize)>) {
        match answer {
            Some((owner, hops)) => {
                self.word(u64::from(owner.0));
                self.word(hops as u64);
            }
            None => self.word(u64::MAX),
        }
    }

    fn nodes(&mut self, nodes: &[NodeId]) {
        self.word(nodes.len() as u64);
        for n in nodes {
            self.word(u64::from(n.0));
        }
    }
}

fn ring(n: u32, seed: u64) -> ChordRing {
    let members: Vec<NodeId> = (0..n).map(NodeId).collect();
    ChordRing::build(&mut StdRng::seed_from_u64(seed), &members)
}

/// Digest of 200 queries on a ring of `n` nodes with `dead_percent` of
/// them dead: every query's `lookup_avoiding` answer and path,
/// `lookup_masked` answer and trace, and both successor walks.
fn routing_digest(n: u32, dead_percent: u32) -> u64 {
    let r = ring(n, 0xC0DE ^ u64::from(n));
    let mut rng = StdRng::seed_from_u64(u64::from(n) * 100 + u64::from(dead_percent));
    let dead: Vec<bool> = (0..n)
        .map(|_| rng.gen_range(0..100u32) < dead_percent)
        .collect();
    let alive = |m: NodeId| !dead[m.index()];
    let mut mask = NodeBitSet::new();
    r.fill_alive_positions(alive, &mut mask);
    let (mut path, mut trace) = (Vec::new(), Vec::new());
    let mut h = Fnv::new();
    for _ in 0..200 {
        let key = rng.gen::<u64>();
        let from = NodeId(rng.gen_range(0..n));
        h.answer(r.lookup_avoiding(from, key, alive, Some(&mut path)));
        h.nodes(&path);
        h.answer(r.lookup_masked(from, key, &mask, Some(&mut trace)));
        h.nodes(&trace);
        h.answer(r.successor_walk_hops(from, key, alive));
        h.answer(r.successor_walk_hops_masked(from, key, &mask));
    }
    h.0
}

/// Replays a fixed list of draws.
struct ScriptedRng(std::vec::IntoIter<u64>);

impl RngCore for ScriptedRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("script exhausted")
    }
}

/// Both members draw id 5; the larger `NodeId` is re-rolled, whichever
/// order the member list gives them in.
#[test]
fn id_collision_rerolls_the_larger_member_whatever_the_input_order() {
    let (a, b) = (NodeId(3), NodeId(7));
    for members in [[a, b], [b, a]] {
        let ring = ChordRing::build(&mut ScriptedRng(vec![5, 5, 9].into_iter()), &members);
        assert_eq!(ring.id_of(a), Some(5), "{members:?}");
        assert_eq!(ring.id_of(b), Some(9), "{members:?}");
    }
}

/// The ring's `(id, member)` pairs in ring order, walked by `successor`
/// from the owner of key 0, the member with the smallest id.
fn walk(ring: &ChordRing) -> Vec<(u64, NodeId)> {
    let mut at = ring.owner_of(0);
    (0..ring.len())
        .map(|_| {
            let here = at;
            at = ring.successor(here);
            (ring.id_of(here).expect("walked node is on the ring"), here)
        })
        .collect()
}

/// Builds a ring whose member `i` draws `draws[i]` (distinct) and checks
/// its order against a comparison sort of the draws.
fn assert_ring_sorts(case: &str, draws: Vec<u64>) {
    let members: Vec<NodeId> = (0..draws.len() as u32).map(NodeId).collect();
    let mut expected: Vec<(u64, NodeId)> =
        draws.iter().copied().zip(members.iter().copied()).collect();
    expected.sort_unstable_by_key(|&(id, _)| id);
    assert!(
        expected.windows(2).all(|w| w[0].0 < w[1].0),
        "{case}: draws must be distinct"
    );
    let ring = ChordRing::build(&mut ScriptedRng(draws.into_iter()), &members);
    assert_eq!(walk(&ring), expected, "{case}");
}

/// The ring's id order is a comparison sort of the draws, whatever the
/// draws' high bits, however they arrive, and with exact collisions.
#[test]
fn ring_order_is_a_comparison_sort_on_adversarial_ids() {
    let mut rng = StdRng::seed_from_u64(0xAD5);
    let n = 2_000;
    let random = |rng: &mut StdRng| -> Vec<u64> { (0..n).map(|_| rng.gen()).collect() };

    // One bucket for any digit width: the top 22 bits are all the same.
    let shared_top = random(&mut rng)
        .into_iter()
        .map(|x| (0x2A_5A5A << 42) | (x >> 22))
        .collect();
    assert_ring_sorts("shared top 22 bits", shared_top);

    let lowest_bit = random(&mut rng)[..n / 2]
        .iter()
        .flat_map(|&x| [x | 1, x & !1])
        .collect();
    assert_ring_sorts("differ only in the lowest bit", lowest_bit);

    let mut descending = random(&mut rng);
    descending.sort_unstable_by(|a, b| b.cmp(a));
    assert_ring_sorts("descending", descending);

    let mut extremes = random(&mut rng);
    extremes[..4].copy_from_slice(&[u64::MAX, 0, u64::MAX - 1, 1]);
    assert_ring_sorts("0 and u64::MAX", extremes);

    // Members 3, n-2 and n-1 draw x; members 700 and n-3 draw y > x.
    // Re-rolls go in (id, NodeId) order: n-2, n-1, then n-3.
    let (x, y) = (1 << 40, u64::MAX - 7);
    let mut draws = random(&mut rng);
    for i in [3, n - 2, n - 1] {
        draws[i] = x;
    }
    for i in [700, n - 3] {
        draws[i] = y;
    }
    let rerolls = [0, u64::MAX, 5];
    let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let script = draws.iter().chain(&rerolls).copied().collect::<Vec<_>>();
    let ring = ChordRing::build(&mut ScriptedRng(script.into_iter()), &members);
    for (i, id) in [n - 2, n - 1, n - 3].into_iter().zip(rerolls) {
        draws[i] = id;
    }
    let mut expected: Vec<(u64, NodeId)> = draws.into_iter().zip(members).collect();
    expected.sort_unstable_by_key(|&(id, _)| id);
    assert_eq!(walk(&ring), expected, "exact collisions");
}

#[test]
fn lookups_and_walks_are_pinned() {
    // (n, [0% dead, 30% dead, 90% dead])
    let pinned: [(u32, [u64; 3]); 5] = [
        (
            1,
            [
                0x214e_8d80_0d3f_d0a5,
                0x214e_8d80_0d3f_d0a5,
                0x9a7c_0b37_554e_bb25,
            ],
        ),
        (
            2,
            [
                0x3694_2571_1280_9d84,
                0x5f8c_0660_b7dd_9e67,
                0xaa2e_b3f6_3b3f_fe95,
            ],
        ),
        (
            17,
            [
                0xd3e3_aa8b_84ad_d2b5,
                0x2668_9ec0_f695_255b,
                0xc785_1ace_6755_756a,
            ],
        ),
        (
            1_000,
            [
                0xea5e_aeea_5ef4_2d22,
                0xc84d_e6f0_f1e5_a662,
                0xfee5_f698_4aac_2f76,
            ],
        ),
        (
            10_000,
            [
                0x1856_7690_d1a6_e2a4,
                0x5963_2720_0957_2d18,
                0x0ce1_439b_d846_9a7d,
            ],
        ),
    ];
    let got: Vec<(u32, [u64; 3])> = pinned
        .iter()
        .map(|&(n, _)| (n, [0, 30, 90].map(|dead| routing_digest(n, dead))))
        .collect();
    assert_eq!(got, pinned, "routing digests moved: {got:#x?}");
}

#[test]
fn join_leave_sequence_is_pinned() {
    let mut r = ring(64, 0x101);
    let mut rng = StdRng::seed_from_u64(0x102);
    let mut on_ring: Vec<u32> = (0..64).collect();
    let mut h = Fnv::new();
    for step in 0..60u32 {
        if step % 3 == 2 {
            let gone = on_ring.swap_remove(rng.gen_range(0..on_ring.len()));
            r.leave(NodeId(gone));
        } else {
            let new = 64 + step;
            r.join(&mut rng, NodeId(new));
            on_ring.push(new);
        }
        h.word(r.len() as u64);
        for &m in &on_ring {
            let m = NodeId(m);
            h.word(r.id_of(m).expect("member is on the ring"));
            h.word(u64::from(r.successor(m).0));
        }
        for _ in 0..20 {
            let key = rng.gen::<u64>();
            let from = NodeId(on_ring[rng.gen_range(0..on_ring.len())]);
            let out = r.lookup(from, key);
            assert_eq!(out.owner, r.owner_of(key));
            h.nodes(&out.path);
        }
    }
    assert_eq!(
        h.0, 0x02ed_7958_1933_637d,
        "join/leave digest moved: {:#x}",
        h.0
    );
}

#[test]
fn paper_scale_chord_simulation_is_pinned() {
    // The paper's configuration and intelligent attacker (N=10,000,
    // n=100, one-to-2, successive N_T=200/N_C=2,000) routed over
    // Chord: three trials of 50 routes.
    let spec = SimSpec {
        transport: "chord".into(),
        trials: 3,
        routes: 50,
        seed: 0x5EED,
        ..SimSpec::default()
    };
    let config = spec.sim_config().expect("valid spec");
    let result = Simulation::new(config).run();
    let json = serde_json::to_string(&result).expect("result serializes");
    let mut h = Fnv::new();
    h.bytes(json.as_bytes());
    assert_eq!(
        h.0, 0x8283_b6e0_4c35_485f,
        "simulation digest moved: {:#x} for {json}",
        h.0
    );
}

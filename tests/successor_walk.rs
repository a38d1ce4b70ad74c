//! The masked successor walk (`ChordRing::successor_walk_hops_masked`)
//! answers in closed form from the mask's words. This file holds it to
//! the walk it stands for, stepped one successor list at a time, on
//! random masks and on masks whose one dead run is a position shorter
//! than, or exactly as long as, the successor list, placed across a
//! 64-bit word boundary, across the ring's wrap and inside one word.
//! Where the querying node is alive, the closure form
//! `successor_walk_hops` must agree too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::overlay::chord::SUCCESSOR_LIST_LEN;
use sos::overlay::{ChordRing, NodeBitSet, NodeId};

/// A seeded ring, its members in ring order (position 0 holds the
/// smallest id) and each member's position.
struct Ring {
    ring: ChordRing,
    order: Vec<NodeId>,
    position_of: Vec<usize>,
}

fn ring_in_order(n: u32, seed: u64) -> Ring {
    let members: Vec<NodeId> = (0..n).map(NodeId).collect();
    let ring = ChordRing::build(&mut StdRng::seed_from_u64(seed), &members);
    let mut order = vec![ring.owner_of(0)];
    while order.len() < members.len() {
        order.push(ring.successor(*order.last().unwrap()));
    }
    let mut position_of = vec![0; order.len()];
    for (p, m) in order.iter().enumerate() {
        position_of[m.index()] = p;
    }
    Ring {
        ring,
        order,
        position_of,
    }
}

/// The walk stepped: from `from_pos`, each hop moves to the nearest of
/// the next `min(SUCCESSOR_LIST_LEN, n − 1)` positions that is the
/// owner, the querying node or alive in the mask.
fn stepped_walk(n: usize, from_pos: usize, owner_pos: usize, alive: &NodeBitSet) -> Option<usize> {
    if !(owner_pos == from_pos || alive.contains_index(owner_pos)) {
        return None;
    }
    let limit = SUCCESSOR_LIST_LEN.min(n - 1);
    let mut pos = from_pos;
    for hops in 0..n {
        if pos == owner_pos {
            return Some(hops);
        }
        pos = (1..=limit)
            .map(|k| (pos + k) % n)
            .find(|&s| s == owner_pos || s == from_pos || alive.contains_index(s))?;
    }
    None
}

/// What the checks below saw, so a test that stops reaching a case
/// fails instead of passing vacuously.
#[derive(Default)]
struct Seen {
    walks: usize,
    severed: usize,
    same_node: usize,
    dead_from: usize,
    dead_owner: usize,
    long_walks: usize,
}

/// Checks one query, `from` at `from_pos` and the owner at `owner_pos`.
fn check(r: &Ring, from_pos: usize, owner_pos: usize, alive: &NodeBitSet, seen: &mut Seen) {
    let n = r.order.len();
    let (from, owner) = (r.order[from_pos], r.order[owner_pos]);
    let key = r.ring.id_of(owner).unwrap();
    let expect = stepped_walk(n, from_pos, owner_pos, alive).map(|hops| (owner, hops));
    let got = r.ring.successor_walk_hops_masked(from, key, alive);
    assert_eq!(got, expect, "n {n}, from {from_pos}, owner {owner_pos}");
    if alive.contains_index(from_pos) {
        let by_closure = r.ring.successor_walk_hops(from, key, |m| {
            alive.contains_index(r.position_of[m.index()])
        });
        assert_eq!(
            by_closure, got,
            "closure form, n {n}, from {from_pos}, owner {owner_pos}"
        );
    } else {
        seen.dead_from += 1;
    }
    seen.walks += 1;
    if owner_pos == from_pos {
        seen.same_node += 1;
    } else if !alive.contains_index(owner_pos) {
        seen.dead_owner += 1;
    } else if got.is_none() {
        seen.severed += 1;
    } else if got.is_some_and(|(_, hops)| hops > SUCCESSOR_LIST_LEN) {
        seen.long_walks += 1;
    }
}

/// A mask over `n` positions with each position dead with probability
/// `dead`. Built by inserting the alive positions into an empty set, so
/// the backing words end at the last alive position and the rest read
/// as absent.
fn random_mask(n: usize, dead: f64, rng: &mut StdRng) -> NodeBitSet {
    let mut mask = NodeBitSet::new();
    for p in 0..n {
        if rng.gen::<f64>() >= dead {
            mask.insert_index(p);
        }
    }
    mask
}

/// A mask over `n` positions, all alive but `len` in a row from `start`
/// (wrapping).
fn one_dead_run(n: usize, start: usize, len: usize) -> NodeBitSet {
    let mut mask = NodeBitSet::new();
    mask.fill_first(n);
    for k in 0..len {
        mask.remove_index((start + k) % n);
    }
    mask
}

const SIZES: [u32; 9] = [1, 2, 3, 17, 63, 64, 65, 1_000, 10_000];

#[test]
fn closed_form_matches_the_stepped_walk_on_random_masks() {
    let mut seen = Seen::default();
    for n in SIZES {
        let r = ring_in_order(n, 0x5EED ^ u64::from(n));
        let n = n as usize;
        let mut rng = StdRng::seed_from_u64(u64::from(n as u32) * 7 + 1);
        for dead in [0.0, 0.1, 0.3, 0.6, 0.9, 1.0] {
            let mask = random_mask(n, dead, &mut rng);
            if n <= 65 {
                for from_pos in 0..n {
                    for owner_pos in 0..n {
                        check(&r, from_pos, owner_pos, &mask, &mut seen);
                    }
                }
            } else {
                for _ in 0..300 {
                    let from_pos = rng.gen_range(0..n);
                    let owner_pos = if rng.gen::<f64>() < 0.05 {
                        from_pos
                    } else {
                        rng.gen_range(0..n)
                    };
                    check(&r, from_pos, owner_pos, &mask, &mut seen);
                }
            }
        }
    }
    assert!(seen.walks > 50_000, "{}", seen.walks);
    for (case, count) in [
        ("owner == from", seen.same_node),
        ("dead from", seen.dead_from),
        ("dead owner", seen.dead_owner),
        ("severed walk", seen.severed),
        ("walk longer than a successor list", seen.long_walks),
    ] {
        assert!(count >= 50, "{case}: only {count} queries");
    }
}

#[test]
fn dead_runs_sever_the_walk_at_exactly_the_successor_list_length() {
    let mut seen = Seen::default();
    let (mut severed_at_limit, mut crossed_below_limit) = (0, 0);
    for n in SIZES {
        let r = ring_in_order(n, 0xD1CE ^ u64::from(n));
        let n = n as usize;
        if n < 3 {
            continue;
        }
        let limit = SUCCESSOR_LIST_LEN.min(n - 1);
        // Runs centred on the first three and the last word boundary
        // inside the ring, on the wrap from n − 1 to 0, and inside the
        // first two words.
        let boundaries: Vec<usize> = (64..n).step_by(64).collect();
        let mut centres: Vec<usize> = boundaries.iter().take(3).copied().collect();
        centres.extend(boundaries.last().filter(|&&b| b > 192));
        centres.push(n);
        centres.extend([32, 96].into_iter().filter(|&c| c + limit < n));
        for centre in centres {
            for len in [limit - 1, limit] {
                let start = (centre + n - len / 2) % n;
                let mask = one_dead_run(n, start, len);
                let before = (start + n - 1) % n;
                let after = (start + len) % n;
                // The walk over the run, from just before it to just
                // after it, then every from/owner pair near the run.
                let out = r.ring.successor_walk_hops_masked(
                    r.order[before],
                    r.ring.id_of(r.order[after]).unwrap(),
                    &mask,
                );
                if len == limit && after != before {
                    assert_eq!(out, None, "n {n}, run of {len} from {start}");
                    severed_at_limit += 1;
                } else if len < limit {
                    assert_eq!(
                        out,
                        Some((r.order[after], 1)),
                        "n {n}, run of {len} from {start}"
                    );
                    crossed_below_limit += 1;
                }
                let near: Vec<usize> = (0..len + 6).map(|k| (start + n - 3 + k) % n).collect();
                for &from_pos in &near {
                    for &owner_pos in &near {
                        check(&r, from_pos, owner_pos, &mask, &mut seen);
                    }
                }
                // And walks from far away that end past the run.
                let from_pos = (after + n / 2) % n;
                check(&r, from_pos, after, &mask, &mut seen);
                check(&r, from_pos, (after + 5) % n, &mask, &mut seen);
            }
        }
    }
    assert!(severed_at_limit >= 10, "{severed_at_limit}");
    assert!(crossed_below_limit >= 10, "{crossed_below_limit}");
    assert!(seen.severed >= 100, "{}", seen.severed);
    assert!(seen.dead_from >= 100, "{}", seen.dead_from);
    assert!(seen.dead_owner >= 100, "{}", seen.dead_owner);
}

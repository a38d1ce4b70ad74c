//! The samplers against a sparse partial Fisher–Yates reference.
//!
//! Every overlay build, attack and route entry sample goes through
//! `sos::math::sampling`, and the committed results pin its exact picks.
//! These properties hold the dense sampler and the free functions to
//! the sparse swap-map loop that the dense draw replaced: the same picks
//! for random `(n, k)` and the same RNG state afterwards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::math::sampling::{sample_from, sample_indices, IndexSampler};
use std::collections::HashMap;

/// The sparse partial Fisher–Yates: only displaced positions are stored.
fn reference(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n);
    let mut swaps: HashMap<usize, usize> = HashMap::new();
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let vi = *swaps.get(&i).unwrap_or(&i);
        let vj = *swaps.get(&j).unwrap_or(&j);
        out.push(vj);
        swaps.insert(j, vi);
        swaps.insert(i, vj);
    }
    out
}

/// Random shapes: empty populations, `k = 0`, `k = n`, small `k` from
/// large `n`, and populations that grow past and shrink below earlier
/// ones.
fn shapes(count: usize) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(0x5A3D);
    let mut out = vec![(0, 0), (1, 0), (1, 1), (64, 64), (64, 0), (10_000, 100)];
    for _ in 0..count {
        let n = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..8usize),
            1 | 2 => rng.gen_range(0..200usize),
            _ => rng.gen_range(0..2_000usize),
        };
        let k = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => n,
            _ => rng.gen_range(0..=n),
        };
        out.push((n, k));
    }
    out
}

#[test]
fn reused_sampler_matches_the_sparse_reference() {
    let mut sampler = IndexSampler::new();
    let mut picks = Vec::new();
    let mut items_out = Vec::new();
    for (case, (n, k)) in shapes(2_000).into_iter().enumerate() {
        let mut a = StdRng::seed_from_u64(case as u64);
        let mut b = StdRng::seed_from_u64(case as u64);
        sampler.sample_indices_into(&mut b, n, k, &mut picks);
        assert_eq!(picks, reference(&mut a, n, k), "indices n={n} k={k}");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state n={n} k={k}");

        let items: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
        sampler.sample_from_into(&mut b, &items, k, &mut items_out);
        let expect: Vec<u64> = reference(&mut a, n, k).iter().map(|&i| items[i]).collect();
        assert_eq!(items_out, expect, "items n={n} k={k}");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state n={n} k={k}");
    }
}

#[test]
fn free_functions_match_the_sparse_reference() {
    for (case, (n, k)) in shapes(500).into_iter().enumerate() {
        let seed = 0xF00D + case as u64;
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        assert_eq!(
            sample_indices(&mut b, n, k),
            reference(&mut a, n, k),
            "n={n} k={k}"
        );
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state n={n} k={k}");

        let items: Vec<String> = (0..n).map(|i| format!("node-{i}")).collect();
        let expect: Vec<String> = reference(&mut a, n, k)
            .into_iter()
            .map(|i| items[i].clone())
            .collect();
        assert_eq!(sample_from(&mut b, &items, k), expect, "n={n} k={k}");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state n={n} k={k}");
    }
}

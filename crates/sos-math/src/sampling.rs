//! Random sampling helpers used by the attack and overlay simulators.
//!
//! All helpers take a caller-supplied [`rand::Rng`] so that every simulation
//! in the workspace is reproducible from a single seed.

use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `k` distinct indices uniformly from `0..n` using a partial
/// Fisher–Yates shuffle: pick `i` is position `i` after swapping it with
/// `gen_range(i..n)`.
///
/// Shuffles a fresh `0..n` array, so a call allocates O(n); hot loops
/// reuse one [`IndexSampler`] instead.
///
/// # Panics
///
/// Panics if `k > n`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let picks = sos_math::sampling::sample_indices(&mut rng, 100, 5);
/// assert_eq!(picks.len(), 5);
/// let mut sorted = picks.clone();
/// sorted.sort_unstable();
/// sorted.dedup();
/// assert_eq!(sorted.len(), 5); // all distinct
/// ```
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    IndexSampler::new().sample_indices_into(rng, n, k, &mut out);
    out
}

/// Draws `k` distinct elements from `items` without replacement, cloning
/// the chosen elements. Same picks as [`sample_indices`] over
/// `items.len()`.
///
/// # Panics
///
/// Panics if `k > items.len()`.
pub fn sample_from<R: Rng + ?Sized, T: Clone>(rng: &mut R, items: &[T], k: usize) -> Vec<T> {
    let mut out = Vec::new();
    IndexSampler::new().sample_from_into(rng, items, k, &mut out);
    out
}

/// Splits `total` items into integer bucket sizes proportional to `weights`
/// using the largest-remainder (Hamilton) method, preserving
/// `Σ result = total` exactly.
///
/// Used to spread fractional average-case counts (e.g. break-in attempts
/// per layer) onto concrete overlays while conserving node counts.
///
/// # Panics
///
/// Panics if `weights` is empty, any weight is negative, or all weights are
/// zero while `total > 0`.
///
/// # Example
///
/// ```
/// let split = sos_math::sampling::proportional_split(10, &[1.0, 1.0, 1.0]);
/// assert_eq!(split.iter().sum::<u64>(), 10);
/// assert!(split.iter().all(|&s| s == 3 || s == 4));
/// ```
pub fn proportional_split(total: u64, weights: &[f64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "weights must be non-empty");
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative: {weights:?}"
    );
    let sum: f64 = weights.iter().sum();
    if total == 0 {
        return vec![0; weights.len()];
    }
    assert!(sum > 0.0, "all-zero weights cannot split {total} items");
    let mut floors: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as f64 * w / sum;
        let fl = exact.floor() as u64;
        floors.push(fl);
        assigned += fl;
        remainders.push((i, exact - fl as f64));
    }
    // Distribute the leftover units to the largest remainders
    // (deterministic tie-break on index for reproducibility).
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut leftover = total - assigned;
    for (i, _) in remainders {
        if leftover == 0 {
            break;
        }
        floors[i] += 1;
        leftover -= 1;
    }
    floors
}

/// Rounds a non-negative real to one of its two nearest integers, chosen
/// randomly so the expectation equals `x` (stochastic rounding).
///
/// Used to realize fractional average-case quantities (e.g. a mapping
/// degree of `16.5` neighbors) on concrete overlays without bias.
///
/// # Panics
///
/// Panics if `x` is negative or not finite.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let r = sos_math::sampling::stochastic_round(&mut rng, 2.5);
/// assert!(r == 2 || r == 3);
/// assert_eq!(sos_math::sampling::stochastic_round(&mut rng, 4.0), 4);
/// ```
pub fn stochastic_round<R: Rng + ?Sized>(rng: &mut R, x: f64) -> u64 {
    assert!(x.is_finite() && x >= 0.0, "cannot round {x}");
    let floor = x.floor();
    let frac = x - floor;
    let base = floor as u64;
    if frac > 0.0 && rng.gen::<f64>() < frac {
        base + 1
    } else {
        base
    }
}

/// Bernoulli trial: returns `true` with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]`.
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    rng.gen::<f64>() < p
}

/// Shuffles a slice in place (thin wrapper so downstream crates only depend
/// on `sos-math` for randomized operations).
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    items.shuffle(rng);
}

/// SplitMix64 finalizer: a bijective avalanche mix over `u64`.
///
/// Used to derive independent RNG sub-stream seeds from a master seed —
/// flipping any input bit flips each output bit with probability ≈ 1/2,
/// so nearby `(seed, stream, index)` tuples land on unrelated seeds.
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the seed of sub-stream `stream` at position `index` under a
/// master `seed`.
///
/// Each `(stream, index)` pair names a statistically independent RNG
/// stream: the trial engine gives every random *purpose* (overlay
/// build, ring build, attack, trace sampling) its own stream so that a
/// consumer may skip one stream entirely (e.g. reuse a memoized build)
/// without perturbing a single draw of the others. Every argument is
/// avalanche-mixed before combination, so `seed = 0`, `index = 0`, or
/// equal arguments produce no degenerate collapses.
pub const fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)).wrapping_add(splitmix64(index)))
}

/// Allocation-reusing counterpart to [`sample_indices`] / [`sample_from`]:
/// the same picks and the same RNG calls, with no heap allocation once
/// warm. Hot loops (overlay builds, the route kernels' entry samples)
/// hold one sampler each.
///
/// The sampler keeps a dense position array that is the identity on
/// every slot between calls. A draw shuffles its first `k` positions in
/// place and then undoes exactly the slots it touched, so every draw is
/// O(k) for any `n`. The array grows once to the largest `n` seen, so
/// a sampler holds one word per item of its largest population.
#[derive(Debug, Default, Clone)]
pub struct IndexSampler {
    /// `perm[p] == p` for every `p` between calls.
    perm: Vec<usize>,
}

impl IndexSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws `k` distinct indices uniformly from `0..n` into `out`
    /// (cleared first). Same picks as [`sample_indices`].
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: usize,
        k: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.reserve(k);
        self.draw(rng, n, k, |i| out.push(i));
    }

    /// Draws `k` distinct elements from `items` without replacement into
    /// `out` (cleared first), cloning the chosen elements. Same picks as
    /// [`sample_from`].
    ///
    /// # Panics
    ///
    /// Panics if `k > items.len()`.
    pub fn sample_from_into<R: Rng + ?Sized, T: Clone>(
        &mut self,
        rng: &mut R,
        items: &[T],
        k: usize,
        out: &mut Vec<T>,
    ) {
        out.clear();
        out.reserve(k);
        self.draw(rng, items.len(), k, |i| out.push(items[i].clone()));
    }

    fn draw<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: usize,
        k: usize,
        mut pick: impl FnMut(usize),
    ) {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let len = self.perm.len();
        if len < n {
            self.perm.extend(len..n);
        }
        let perm = &mut self.perm[..n];
        for i in 0..k {
            let j = rng.gen_range(i..n);
            perm.swap(i, j);
            pick(perm[i]);
        }
        // Undo. A slot `p ≥ k` changes only when a step `i` swaps it
        // in; the first time, its own value `p` moves to position `i`,
        // which no later step touches. So the changed slots in `k..n`
        // are exactly the picks `v ≥ k`, and `perm[..k]` holds the picks.
        for i in 0..k {
            let v = perm[i];
            if v >= k {
                perm[v] = v;
            }
            perm[i] = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(1..200usize);
            let k = rng.gen_range(0..=n);
            let picks = sample_indices(&mut rng, n, k);
            assert_eq!(picks.len(), k);
            assert!(picks.iter().all(|&i| i < n));
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates for n={n} k={k}");
        }
    }

    #[test]
    fn sample_indices_full_population_is_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut picks = sample_indices(&mut rng, 16, 16);
        picks.sort_unstable();
        assert_eq!(picks, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 10;
        let mut counts = vec![0u32; n];
        let trials = 20_000;
        for _ in 0..trials {
            for i in sample_indices(&mut rng, n, 3) {
                counts[i] += 1;
            }
        }
        let expect = trials as f64 * 3.0 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 0.05 * expect,
                "index {i} drawn {c} times, expected ≈{expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_indices(&mut rng, 3, 4);
    }

    #[test]
    fn proportional_split_conserves_total() {
        let cases: &[(u64, &[f64])] = &[
            (100, &[1.0, 2.0, 3.0]),
            (7, &[0.4, 0.4, 0.2]),
            (1, &[5.0, 5.0]),
            (0, &[1.0]),
            (13, &[1e-9, 1.0, 1e-9]),
        ];
        for (total, weights) in cases {
            let split = proportional_split(*total, weights);
            assert_eq!(split.iter().sum::<u64>(), *total, "weights {weights:?}");
        }
    }

    #[test]
    fn proportional_split_proportions_close() {
        let split = proportional_split(1000, &[1.0, 2.0, 7.0]);
        assert_eq!(split, vec![100, 200, 700]);
    }

    #[test]
    fn stochastic_round_unbiased() {
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 40_000;
        let total: u64 = (0..trials).map(|_| stochastic_round(&mut rng, 2.3)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn stochastic_round_integer_is_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(stochastic_round(&mut rng, 7.0), 7);
            assert_eq!(stochastic_round(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 50_000;
        let hits = (0..trials).filter(|_| bernoulli(&mut rng, 0.3)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.3).abs() < 0.01, "observed {freq}");
    }

    #[test]
    fn bernoulli_degenerate() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!bernoulli(&mut rng, 0.0));
        assert!(bernoulli(&mut rng, 1.0));
    }

    #[test]
    fn sampler_matches_free_functions_bit_for_bit() {
        let mut sampler = IndexSampler::new();
        let mut idx_buf = Vec::new();
        let mut items_buf: Vec<char> = Vec::new();
        let items: Vec<char> = ('a'..='z').collect();
        for seed in 0..64u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let n = 1 + (seed as usize * 7) % 120;
            let k = (seed as usize * 3) % (n + 1);
            sampler.sample_indices_into(&mut b, n, k, &mut idx_buf);
            assert_eq!(sample_indices(&mut a, n, k), idx_buf);
            let kk = (seed as usize) % (items.len() + 1);
            sampler.sample_from_into(&mut b, &items, kk, &mut items_buf);
            assert_eq!(sample_from(&mut a, &items, kk), items_buf);
            // Both RNGs must also be left in the same state.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn stream_seeds_are_distinct_across_streams_and_indices() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for seed in [0u64, 1, 13, u64::MAX] {
            for stream in 0..8u64 {
                for index in 0..64u64 {
                    assert!(
                        seen.insert(stream_seed(seed, stream, index)),
                        "collision at seed={seed} stream={stream} index={index}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_seed_no_degenerate_collapse_at_zero() {
        // The old xor-multiply derivation collapsed every stream to the
        // master seed at trial 0; the mixed derivation must not.
        let s0 = stream_seed(7, 0, 0);
        let s1 = stream_seed(7, 1, 0);
        let s2 = stream_seed(7, 2, 0);
        assert_ne!(s0, 7);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn splitmix64_is_stable() {
        // Reference values from the published SplitMix64 finalizer; the
        // derivation feeding every Monte Carlo stream must never drift.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampler_rejects_oversample() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        IndexSampler::new().sample_indices_into(&mut rng, 3, 4, &mut out);
    }
}

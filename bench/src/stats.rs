//! Summary statistics, the tail-percentile rule, input-seed derivation
//! and the output digest.

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones an outside check
/// computes from the same values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    q3 - q1
}

/// The smallest value (infinite for no values).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples
/// beyond it, with its nearest-rank value: 20 samples give p50, 100
/// give p90, 1,000 give p99. `None` below 20 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
    Some((p, v[rank - 1]))
}

/// FNV-1a, 64-bit: the digest pinned for each workload's outputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seed of input `index` of a run with benchmark seed `seed`
/// (splitmix64 over the pair), so every input of every run differs and
/// the same seed always regenerates the same inputs.
pub fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 2.5, 3.75));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&ramp(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&ramp(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn fnv1a64_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn input_seeds_are_distinct_and_repeatable() {
        assert_eq!(input_seed(13, 0), input_seed(13, 0));
        assert_ne!(input_seed(13, 0), input_seed(13, 1));
        assert_ne!(input_seed(13, 0), input_seed(14, 0));
    }
}

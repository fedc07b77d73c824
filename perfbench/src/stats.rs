//! Order statistics and the transcript digest.

use std::time::Duration;

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of `samples`; 0 for none.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail percentile a sample of `count` values supports: 0.99, or
/// below 1000 values the highest with ten values beyond it, but never
/// below the median.
pub fn tail_p(count: usize) -> f64 {
    (1.0 - 10.0 / count.max(1) as f64).clamp(0.5, 0.99)
}

/// The 0.99-quantile of samples in arrival order, cut into windows of at
/// least 1000 samples (ten beyond the percentile each): the median
/// window's. Fewer than 2000 samples form one window; below 1000, the
/// [`tail_p`]-quantile stands in, as the highest percentile the sample
/// supports (`paper-grid` has tens of jobs and slices per run).
pub fn p99(samples: &[f64]) -> f64 {
    if samples.len() < 1000 {
        return quantile(samples, tail_p(samples.len()));
    }
    let windows = samples.len() / 1000;
    let size = samples.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { samples.len() } else { (w + 1) * size };
            quantile(&samples[w * size..end], 0.99)
        })
        .collect();
    median(&tails)
}

/// Whether a sample supports the `p`-quantile: at least ten samples lie
/// beyond it.
pub fn supports(count: usize, p: f64) -> bool {
    (count as f64) * (1.0 - p) >= 10.0
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over a reply's bytes: the per-line transcript digest compared
/// between the socket run and the in-process replay.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: derives independent per-connection and per-session
/// seeds from the single `--seed` argument.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Two equal halves: the median is the top of the lower half.
        assert_eq!(median(&[1.0, 1.0, 9.0, 9.0]), 1.0);
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut s: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(p99(&s), 98.0);
        // A stall inflates one window's tail; the median window ignores it.
        for x in &mut s[..100] {
            *x = 1e6;
        }
        assert_eq!(p99(&s), 98.0);
        // Below 1000 samples: the highest percentile with ten beyond.
        assert_eq!(p99(&s[..500]), quantile(&s[..500], 0.98));
        assert_eq!(p99(&[]), 0.0);
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert_eq!(tail_p(40), 0.75);
        assert_eq!(tail_p(5000), 0.99);
        assert_eq!(tail_p(12), 0.5);
        assert!(supports(40, tail_p(40)));
    }

    #[test]
    fn seeds_and_digests_are_stable() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}

//! Order statistics and the seeded shuffle.

/// Median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles a tail may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A pooled tail: the highest percentile of [`TAIL_PERCENTILES`] that
/// leaves at least ten samples beyond it, read by nearest rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The pooled tail of `values`. The percentile is chosen for the
/// `guaranteed` sample count a run always reaches (`values` may hold
/// more), so every run of a workload reports the same percentile. With
/// fewer than twenty samples no percentile leaves ten beyond it and the
/// median is used.
pub fn tail(values: &[f64], guaranteed: usize) -> Tail {
    let n = guaranteed.min(values.len());
    let percentile = TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: nearest_rank(values, percentile),
        samples: values.len(),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples
/// (tolerant of the rounding in `p * n / 100`).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 100);
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        assert_eq!(tail(&values, 81).percentile, 75.0);
        assert_eq!(tail(&values, 1000).percentile, 90.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0], 3).percentile, 50.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..20).collect();
        SplitMix64::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}

//! Order statistics shared by every workload.

/// Nearest-rank percentile `p` (0–100] of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    match rank(sorted.len(), p) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A tail percentile with the count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// `p50`, `p90`, `p99` or `p99.9`.
    pub label: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten samples
/// beyond it. Below twenty samples not even the median qualifies, and the
/// median is reported anyway, so every workload has a tail figure.
pub fn tail(samples: &[f64]) -> Tail {
    const LADDER: [(&str, f64); 4] = [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p50", 50.0)];
    let n = samples.len();
    let (label, p) = LADDER
        .into_iter()
        .find(|&(_, p)| n - rank(n, p) >= 10)
        .unwrap_or(("p50", 50.0));
    Tail {
        label,
        value: percentile(samples, p),
        samples: n,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (0 when empty).
/// Integer per-mille arithmetic, so p99.9 of 10,000 samples is rank 9,990
/// exactly rather than whatever `0.999 * 10000.0` rounds to.
fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: nothing has ten beyond it, so the median stands in.
        assert_eq!(tail(&ramp(19)).label, "p50");
        // 20: the median has exactly ten beyond it.
        let t = tail(&ramp(20));
        assert_eq!((t.label, t.value, t.samples), ("p50", 10.0, 20));
        // 99: p90 has 9 beyond — still the median.
        assert_eq!(tail(&ramp(99)).label, "p50");
        assert_eq!(tail(&ramp(100)).label, "p90");
        assert_eq!(tail(&ramp(999)).label, "p90");
        let t = tail(&ramp(1000));
        assert_eq!((t.label, t.value), ("p99", 990.0));
        assert_eq!(tail(&ramp(9_999)).label, "p99");
        let t = tail(&ramp(10_000));
        assert_eq!((t.label, t.value, t.samples), ("p99.9", 9990.0, 10_000));
    }
}

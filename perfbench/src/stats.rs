//! Sample summaries: the median and the highest percentile (up to p99) that
//! still has at least ten samples beyond it, always with the sample count.

/// Latency (or any timing) samples in microseconds.  A request that failed,
/// was refused or timed out is recorded with [`Samples::push_missed`]: it
/// counts as missing every latency limit, so it sorts above every real
/// sample.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    missed: usize,
}

/// The value reported for a missed request: it exceeds every latency limit.
pub const MISSED_US: f64 = f64::INFINITY;

/// Samples beyond the reported tail percentile, at minimum.
const TAIL_SUPPORT: usize = 10;

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, us: f64) {
        self.values.push(us);
    }

    pub fn push_missed(&mut self) {
        self.missed += 1;
        self.values.push(MISSED_US);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn missed(&self) -> usize {
        self.missed
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.missed += other.missed;
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), nearest-rank.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest percentile up to 99 with at least ten samples beyond it:
    /// p99 from 1000 samples on, lower for smaller samples.  Returns
    /// `(percentile, value)`; `None` below eleven samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.values.len())?;
        Some((p, self.percentile(p)))
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The highest percentile (capped at 99) leaving at least ten of `n`
/// samples strictly above its rank.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n <= TAIL_SUPPORT {
        return None;
    }
    let p = 100.0 * (n - TAIL_SUPPORT) as f64 / n as f64;
    Some(p.min(99.0))
}

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a small set of values (set-up repetitions and the like).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        let mut s = Samples::new();
        for v in 1..=500 {
            s.push(v as f64);
        }
        let (p, v) = s.tail().expect("500 samples support a tail");
        assert_eq!(p, 98.0);
        assert_eq!(v, 490.0);
        assert_eq!((1..=500).filter(|&x| x as f64 > v).count(), 10);
    }

    #[test]
    fn missed_requests_miss_every_limit() {
        let mut s = Samples::new();
        for v in 1..=99 {
            s.push(v as f64);
        }
        s.push_missed();
        assert_eq!(s.missed(), 1);
        assert_eq!(s.percentile(100.0), MISSED_US);
        assert_eq!(s.median(), 50.0);
    }
}

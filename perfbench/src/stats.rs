//! Percentiles, the tail-percentile rule and small summaries.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(q: f64, n: usize) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest candidate percentile with at least ten samples beyond
/// it, or `None` when even the median has fewer than ten.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&q| beyond(q, n) >= 10)
}

/// A timing sample summarized as median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at `want` when the sample supports it (ten samples beyond).
    pub tail: f64,
    /// The tail percentile the caller asked for.
    pub want: f64,
    /// The highest percentile the sample supports.
    pub supported: Option<f64>,
}

impl Summary {
    /// Summarize `values` (any order) at median and the `want` tail.
    pub fn of(values: &[f64], want: f64) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n,
                p50: f64::NAN,
                tail: f64::NAN,
                want,
                supported: None,
            };
        }
        Summary {
            n,
            p50: nearest_rank(&v, 0.5),
            tail: nearest_rank(&v, want),
            want,
            supported: supported_tail(n),
        }
    }

    /// Whether the sample has at least ten values beyond `want`.
    pub fn tail_ok(&self) -> bool {
        self.supported.is_some_and(|q| q >= self.want)
    }

    /// One human line: `p50=… p99=… (n=…, highest supported p99.9)`.
    pub fn describe(&self, unit: &str) -> String {
        let sup = match self.supported {
            Some(q) => format!("p{}", q * 100.0),
            None => "none".into(),
        };
        let tail = if self.want > 0.5 {
            format!(" p{}={:.3}{unit}", self.want * 100.0, self.tail)
        } else {
            String::new()
        };
        format!(
            "p50={:.3}{unit}{tail} (n={}, highest supported {sup})",
            self.p50, self.n
        )
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values, 0.5).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9
        assert_eq!(beyond(0.99, 1000), 10);
        assert_eq!(beyond(0.99, 999), 9);
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn summary_states_its_count_and_support() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v, 0.99);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail, 989.0);
        assert!(s.tail_ok());
        assert!(s.describe("ms").contains("n=1000"));
        let short = Summary::of(&v[..500], 0.99);
        assert!(!short.tail_ok());
    }
}

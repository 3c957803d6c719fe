//! The benchmark's own arithmetic: percentiles with the tail-sample rule,
//! goodput, medians and a fingerprint for bit-identity checks.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending): the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Fails unless percentile `p` of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn check_tail(what: &str, n: usize, p: f64) -> Result<(), String> {
    let beyond = samples_beyond(n, p);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "{what}: p{p} of {n} samples has {beyond} beyond it, fewer than {MIN_TAIL_SAMPLES}"
        ));
    }
    Ok(())
}

/// Latency limits a request must meet to count towards goodput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// Time to first token, ns.
    pub ttft_ns: u64,
    /// Time per output token, ns.
    pub tpot_ns: u64,
}

/// Completed requests meeting `slo`, per second of `span_ns`. Only completed
/// requests are passed in: a shed, lost or failed request has no latency and
/// so counts as a miss by construction.
pub fn goodput(completed: &[(u64, u64)], slo: Slo, span_ns: u64) -> f64 {
    let met = completed.iter().filter(|&&(ttft, tpot)| ttft <= slo.ttft_ns && tpot <= slo.tpot_ns);
    per_second(met.count() as u64, span_ns)
}

/// `count` per second of `span_ns`.
pub fn per_second(count: u64, span_ns: u64) -> f64 {
    assert!(span_ns > 0, "rate over an empty span");
    count as f64 / (span_ns as f64 * 1e-9)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a over a stream of words: equal inputs give equal fingerprints, so
/// two passes whose simulated outputs differ in any bit are told apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        let w: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&w, 99.0), 990);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_p99() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(0, 99.0), 0);
        assert!(check_tail("x", 1000, 99.0).is_ok());
        assert!(check_tail("x", 999, 99.0).is_err());
        assert!(check_tail("x", 20, 50.0).is_ok());
    }

    #[test]
    fn goodput_counts_shed_and_failed_as_misses() {
        let slo = Slo { ttft_ns: 100, tpot_ns: 10 };
        // Ten submitted over one second: four shed or failed (absent), one
        // completed too slowly to first token, one too slowly per token.
        let completed = [(50, 5), (100, 10), (20, 1), (101, 1), (30, 11), (99, 9)];
        assert_eq!(goodput(&completed, slo, 1_000_000_000), 4.0);
        assert_eq!(goodput(&[], slo, 1_000_000_000), 0.0);
        assert_eq!(goodput(&completed, slo, 500_000_000), 8.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fingerprints_tell_words_apart() {
        let fp = |words: &[u64]| {
            let mut f = Fingerprint::default();
            words.iter().for_each(|&w| f.add(w));
            f
        };
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 3, 2]));
        assert_ne!(fp(&[0]), fp(&[]));
    }
}

//! Order statistics and the result digest.

/// Median of `values`; the mean of the two middle values for an even
/// count. Every per-layer timing the harness reports is one of these,
/// printed with its sample count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// spreads printed here are the ones the acceptance rule is stated in.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// First quartile of `values`; the value itself for a single sample.
/// Host times are summarized by it where neighbours on the box can
/// only ever add to them.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).map_or_else(|| median(values), |(q1, _)| q1)
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread `compare` holds against a metric's bound. 0 below
/// two samples or for a zero median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else {
        return 0.0;
    };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// 64-bit FNV-1a, the hash `NocStats::digest` uses, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds one integer in, little-endian.
    pub fn u64(self, x: u64) -> Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The result digest of one iteration: FNV-1a over the neuron →
/// crossbar assignment, the simulator's own statistics digest (taken
/// with the scheduler counters cleared), Eq. 8's cut spikes and the
/// hop-weighted packet total. Two commits that print the same digest
/// produced the same mapping and the same simulated behaviour.
pub fn result_digest(
    assignment: &[u32],
    noc_digest: u64,
    cut_spikes: u64,
    hop_weighted_packets: u64,
) -> u64 {
    let mut h = Fnv::default();
    for &c in assignment {
        h = h.bytes(&c.to_le_bytes());
    }
    h.u64(noc_digest)
        .u64(cut_spikes)
        .u64(hop_weighted_packets)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), 1.0);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
        assert_eq!(lower_quartile(&v), 2.75);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn result_digest_is_stable_and_sensitive() {
        let d = result_digest(&[0, 1, 2, 1], 42, 7, 9);
        assert_eq!(d, result_digest(&[0, 1, 2, 1], 42, 7, 9));
        // pinned (FNV-1a of the little-endian bytes, computed outside this
        // program): a changed value means every recorded digest moved
        assert_eq!(d, 0x4236_99c5_2675_0fe3);
        assert_ne!(d, result_digest(&[0, 1, 1, 2], 42, 7, 9));
        assert_ne!(d, result_digest(&[0, 1, 2, 1], 43, 7, 9));
        assert_ne!(d, result_digest(&[0, 1, 2, 1], 42, 8, 9));
        assert_ne!(d, result_digest(&[0, 1, 2, 1], 42, 7, 10));
    }
}

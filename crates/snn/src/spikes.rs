//! Spike trains and inter-spike-interval (ISI) analysis.
//!
//! The paper's hardware metrics (ISI distortion, spike disorder) are defined
//! over the spike trains emitted by individual neurons. This module provides
//! the common representation, shared by the simulator, the spike graph and
//! the applications, and [`isi_distortion`], the metric's definition on one
//! pair of trains. The NoC statistics compute both metrics over whole
//! delivery logs themselves.

use serde::{Deserialize, Serialize};

/// Spike times of a single neuron, in simulation timesteps (1 ms default).
///
/// Invariant: times are strictly increasing (a neuron spikes at most once per
/// timestep). Constructors enforce this; [`SpikeTrain::push`] panics on
/// violation in debug builds and silently drops duplicates in release builds.
///
/// ```
/// use neuromap_snn::spikes::SpikeTrain;
/// let t = SpikeTrain::from_times(vec![2, 5, 9]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.isis(), vec![3, 4]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeTrain {
    times: Vec<u32>,
}

impl SpikeTrain {
    /// Creates an empty spike train.
    pub fn new() -> Self {
        Self { times: Vec::new() }
    }

    /// Creates a spike train from a vector of spike times.
    ///
    /// The input is sorted and deduplicated so the strictly-increasing
    /// invariant always holds.
    pub fn from_times(mut times: Vec<u32>) -> Self {
        times.sort_unstable();
        times.dedup();
        Self { times }
    }

    /// Appends a spike at time `t`.
    ///
    /// Spikes arriving at or before the last recorded time are ignored,
    /// preserving the strictly-increasing invariant.
    pub fn push(&mut self, t: u32) {
        if let Some(&last) = self.times.last() {
            if t <= last {
                debug_assert!(t > last, "spike times must be strictly increasing");
                return;
            }
        }
        self.times.push(t);
    }

    /// Number of spikes in the train.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the train contains no spikes.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The spike times as a slice.
    pub fn times(&self) -> &[u32] {
        &self.times
    }

    /// Iterates over spike times.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.times.iter()
    }

    /// Inter-spike intervals: differences of consecutive spike times.
    ///
    /// Empty for trains with fewer than two spikes.
    pub fn isis(&self) -> Vec<u32> {
        self.times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Mean firing rate in Hz over a window of `duration_ms` milliseconds
    /// (assuming 1 ms timesteps).
    ///
    /// # Panics
    ///
    /// Panics if `duration_ms` is zero.
    pub fn rate_hz(&self, duration_ms: u32) -> f64 {
        assert!(duration_ms > 0, "duration must be positive");
        self.times.len() as f64 * 1000.0 / duration_ms as f64
    }

    /// Number of spikes in the half-open window `[start, end)`.
    pub fn count_in(&self, start: u32, end: u32) -> usize {
        let lo = self.times.partition_point(|&t| t < start);
        let hi = self.times.partition_point(|&t| t < end);
        hi - lo
    }

    /// First spike time, if any — the quantity used by latency (temporal)
    /// decoding.
    pub fn first(&self) -> Option<u32> {
        self.times.first().copied()
    }

    /// Last spike time, if any.
    pub fn last(&self) -> Option<u32> {
        self.times.last().copied()
    }
}

impl FromIterator<u32> for SpikeTrain {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Self::from_times(iter.into_iter().collect())
    }
}

impl Extend<u32> for SpikeTrain {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

impl<'a> IntoIterator for &'a SpikeTrain {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.times.iter()
    }
}

/// Maximum absolute difference between the ISI sequences of two trains,
/// truncated to the shorter train.
///
/// This is the paper's *inter-spike-interval distortion* when applied to the
/// send-side and receive-side images of the same neuron's spike stream
/// (Section II, "Introduced metric"). Returns 0 when either train has fewer
/// than two spikes.
///
/// ```
/// use neuromap_snn::spikes::{isi_distortion, SpikeTrain};
/// let sent = SpikeTrain::from_times(vec![0, 10, 20]);
/// let recv = SpikeTrain::from_times(vec![3, 14, 23]); // ISIs 11, 9 vs 10, 10
/// assert_eq!(isi_distortion(&sent, &recv), 1);
/// ```
pub fn isi_distortion(sent: &SpikeTrain, received: &SpikeTrain) -> u32 {
    let a = sent.isis();
    let b = received.isis();
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| x.abs_diff(y))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_times_sorts_and_dedups() {
        let t = SpikeTrain::from_times(vec![5, 1, 5, 3]);
        assert_eq!(t.times(), &[1, 3, 5]);
    }

    #[test]
    fn push_keeps_monotone_in_release() {
        let mut t = SpikeTrain::new();
        t.push(4);
        t.push(9);
        assert_eq!(t.times(), &[4, 9]);
    }

    #[test]
    fn isis_of_short_trains_are_empty() {
        assert!(SpikeTrain::new().isis().is_empty());
        assert!(SpikeTrain::from_times(vec![7]).isis().is_empty());
    }

    #[test]
    fn rate_counts_spikes_per_second() {
        let t = SpikeTrain::from_times(vec![0, 100, 200, 300]);
        assert!((t.rate_hz(1000) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn count_in_window_is_half_open() {
        let t = SpikeTrain::from_times(vec![0, 5, 10, 15]);
        assert_eq!(t.count_in(5, 15), 2);
        assert_eq!(t.count_in(0, 1), 1);
        assert_eq!(t.count_in(16, 100), 0);
    }

    #[test]
    fn isi_distortion_zero_for_pure_shift() {
        let sent = SpikeTrain::from_times(vec![0, 10, 20, 30]);
        let recv = SpikeTrain::from_times(vec![7, 17, 27, 37]);
        assert_eq!(isi_distortion(&sent, &recv), 0);
    }

    #[test]
    fn isi_distortion_detects_congestion_delay() {
        let sent = SpikeTrain::from_times(vec![0, 10, 20]);
        // second spike delayed by 6 extra cycles: ISIs become 16, 4
        let recv = SpikeTrain::from_times(vec![2, 18, 22]);
        assert_eq!(isi_distortion(&sent, &recv), 6);
    }

    #[test]
    fn collect_from_iterator() {
        let t: SpikeTrain = [9u32, 1, 4].into_iter().collect();
        assert_eq!(t.times(), &[1, 4, 9]);
    }
}

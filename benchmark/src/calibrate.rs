//! A fixed piece of work timed all through a run, so host time can be
//! reported at a nominal machine speed.
//!
//! The box this benchmark runs on shares its memory system with
//! neighbours (the ROADMAP: "the box … throttles, so same-run ratios …
//! are the currency, not absolute ns"). Probes of 50 ms each, a minute
//! per kind: a pure ALU loop read 9 % apart between its first and last
//! decile, a walk inside the private cache 17 %, a pseudo-random walk
//! over 8 MiB 90 %, in bursts of about a second and in episodes of
//! minutes. An iteration of a workload sits between the first and the
//! last: part of it waits on memory as the walk does, part of it does
//! not.
//!
//! So the timed pass times that walk after every iteration and divides
//! the run's host times by `1 - s + s * walk / nominal`, with `s` the
//! share of an iteration taken to slow down as the walk does. `s = 1`
//! (dividing by the walk outright) over-corrects: in a trial of twelve
//! seeds a workload it spread `hd_tree_paper` 20 % where the raw medians
//! spread 14 %. `s = 0` leaves the episodes in: 18 % on
//! `chip4_hier_multilevel` in the same trial, where `s = 1` read 6 %.
//! `s = 1/2` was never the best of the three and never bad; the README
//! has the table.
//!
//! The kernel belongs to the harness and never changes with the library,
//! so a faster library still reads faster by exactly as much. Raw wall
//! time is reported beside every scaled one.

use std::hint::black_box;
use std::time::Instant;

/// What one calibration takes on the reference box when it is quiet, in
/// seconds: scaled timings read as seconds on such a machine. Changing
/// it (or the kernel) rescales every recorded timing.
pub const NOMINAL_S: f64 = 0.12;

/// Share of an iteration's time taken to slow down as the walk does.
const WALK_LIKE_SHARE: f64 = 0.5;

/// `u32` words walked: 8 MiB, past the private caches, since the
/// simulator's working set is too.
const WORDS: usize = 1 << 21;
/// Dependent read-modify-write steps per calibration.
const STEPS: usize = 1 << 21;

/// The calibration kernel and the memory it walks, allocated once so
/// that a calibration pays no page faults.
pub struct Calibrator {
    table: Vec<u32>,
}

impl Default for Calibrator {
    /// A calibrator; single-threaded, as the workloads are.
    fn default() -> Self {
        Self {
            table: (0..WORDS as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }
}

impl Calibrator {
    /// Runs the kernel and returns the wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        black_box(kernel(&mut self.table, black_box(1)));
        start.elapsed().as_secs_f64()
    }
}

/// A pseudo-random walk of dependent read-modify-writes over `table`.
fn kernel(table: &mut [u32], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize ^ acc as usize) & (WORDS - 1);
        let v = table[i];
        acc = acc.wrapping_add(u64::from(v).wrapping_mul(x >> 32));
        table[i] = v.rotate_left(5) ^ acc as u32;
    }
    acc
}

/// What scales a host time taken in a run to nominal machine speed,
/// given every calibration of that run. Neighbours only ever slow the
/// walk down, so the run's level is read off the lower quartile, not
/// the median: a burst that hits half the calibrations does not move
/// it.
pub fn scale_to_nominal(calibrations_s: &[f64]) -> f64 {
    let walk = crate::stats::lower_quartile(calibrations_s) / NOMINAL_S;
    1.0 / (1.0 - WALK_LIKE_SHARE + WALK_LIKE_SHARE * walk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_damped() {
        let mut c = Calibrator::default();
        let fresh = c.table.clone();
        assert!(c.run() > 0.0);
        assert_eq!(kernel(&mut fresh.clone(), 1), kernel(&mut fresh.clone(), 1));
        assert_ne!(kernel(&mut fresh.clone(), 1), kernel(&mut fresh.clone(), 3));
        assert_eq!(scale_to_nominal(&[NOMINAL_S; 5]), 1.0);
        // a walk at half speed is taken to slow an iteration by half as
        // much: 1 / (0.5 + 0.5 * 2)
        let slow = scale_to_nominal(&[2.0 * NOMINAL_S; 5]);
        assert!((slow - 1.0 / 1.5).abs() < 1e-12, "{slow}");
        // one calibration in a burst does not move the run's level
        let burst = [NOMINAL_S, NOMINAL_S, NOMINAL_S, NOMINAL_S, 3.0 * NOMINAL_S];
        assert_eq!(scale_to_nominal(&burst), 1.0);
    }
}

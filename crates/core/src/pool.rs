//! A persistent, deterministic phase-synchronized worker pool.
//!
//! The optimizers alternate between an embarrassingly parallel phase
//! (step + evaluate every candidate) and a tiny sequential reduction
//! (update the global best). The seed implementation spawned a fresh
//! `thread::scope` per evaluation round; this pool spawns each worker
//! **once** per optimizer call and keeps it alive across all rounds,
//! synchronizing rounds by message passing (one command in, one result
//! out, per worker per round).
//!
//! ## Determinism contract
//!
//! * Each worker exclusively owns its state `W` for the whole run; no
//!   worker ever observes another worker's state.
//! * `reduce` runs on the caller's thread between rounds and receives the
//!   per-worker results **in worker-index order**, regardless of which
//!   worker finished first.
//! * The next round's command is a pure function of those results.
//!
//! Results are therefore a pure function of the initial states and
//! closures — independent of thread count and scheduling. With a single
//! worker everything runs inline on the caller's thread through the same
//! code path, so `threads = 1` and `threads = N` produce byte-identical
//! outputs as long as the caller partitions state deterministically.
//!
//! [`map_ranges`] is the crate's only fan-out of independent work
//! (placement restarts, boundary shards) and
//! [`ranges`] its only index split — `pso::SwarmState::new` cuts the
//! swarm into the shards it keeps for the whole search by it too. Nothing
//! else in `neuromap-core` spawns a thread or divides a length by a
//! worker count.

use std::ops::Range;
use std::sync::mpsc;

/// Splits `0..len` into `min(workers, len)` contiguous ranges, in order:
/// none empty (so none at all for `len = 0`), sizes differing by at most
/// one, the larger first. A `len.div_ceil(workers)` chunking is *not*
/// equivalent: it leaves empty tail ranges — workers spawned with nothing
/// to do (5 items over 4 workers: 2, 2, 1, 0).
pub fn ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, len.max(1));
    let (base, extra) = (len / workers, len % workers);
    (0..workers.min(len))
        .map(|w| {
            let lo = w * base + w.min(extra);
            lo..lo + base + usize::from(w < extra)
        })
        .collect()
}

/// Runs `work` once per [`ranges`]`(len, threads)` range, in parallel,
/// and returns the results **in range order**: folded front to back they
/// are what one sequential `work(0..len)` scan produces, whatever
/// `threads` is. A single range runs inline on the caller's thread;
/// panics in `work` propagate.
pub fn map_ranges<R: Send>(
    len: usize,
    threads: usize,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::new();
    run_phased(
        ranges(len, threads),
        1,
        (),
        |_, (), range| work(range.clone()),
        |_, results| {
            out = results;
            None
        },
    );
    out
}

/// Runs `rounds` alternating work/reduce phases over per-worker states.
///
/// Per round `r`, every worker runs `work(r, &cmd, &mut w_i)` in
/// parallel; the caller's thread then runs `reduce(r, results)` over the
/// results in worker-index order. `reduce` returns the command for the
/// next round, or `None` to stop early.
///
/// Returns the final worker states (in order).
///
/// # Panics
///
/// Propagates panics from `work` and `reduce` (scoped threads join on
/// scope exit; a panicked worker poisons the run).
pub fn run_phased<W, R, C>(
    mut workers: Vec<W>,
    rounds: u32,
    first_cmd: C,
    work: impl Fn(u32, &C, &mut W) -> R + Sync,
    mut reduce: impl FnMut(u32, Vec<R>) -> Option<C>,
) -> Vec<W>
where
    W: Send,
    R: Send,
    C: Clone + Send + Sync,
{
    if rounds == 0 {
        return workers;
    }

    if workers.len() <= 1 {
        let mut cmd = first_cmd;
        for r in 0..rounds {
            let results: Vec<R> = workers.iter_mut().map(|w| work(r, &cmd, w)).collect();
            match reduce(r, results) {
                Some(next) => cmd = next,
                None => break,
            }
        }
        return workers;
    }

    let work = &work;
    std::thread::scope(|s| {
        let mut cmd_txs = Vec::with_capacity(workers.len());
        let mut res_rxs = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        for mut w in workers.drain(..) {
            let (cmd_tx, cmd_rx) = mpsc::channel::<(u32, C)>();
            let (res_tx, res_rx) = mpsc::channel::<R>();
            cmd_txs.push(cmd_tx);
            res_rxs.push(res_rx);
            handles.push(s.spawn(move || {
                while let Ok((r, cmd)) = cmd_rx.recv() {
                    let result = work(r, &cmd, &mut w);
                    if res_tx.send(result).is_err() {
                        break;
                    }
                }
                w
            }));
        }

        let mut cmd = first_cmd;
        for r in 0..rounds {
            for tx in &cmd_txs {
                tx.send((r, cmd.clone())).expect("worker alive");
            }
            let results: Vec<R> = res_rxs
                .iter()
                .map(|rx| rx.recv().expect("worker answers every round"))
                .collect();
            match reduce(r, results) {
                Some(next) => cmd = next,
                None => break,
            }
        }
        drop(cmd_txs); // hang up: workers exit their loop and return state

        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread completes"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums per-worker contributions over rounds; equivalent for any
    /// worker count.
    fn run_sum(num_workers: usize) -> (Vec<u64>, Vec<u64>) {
        // worker state: accumulator; command: the round's multiplier
        let workers: Vec<u64> = vec![0; num_workers];
        let mut trace = Vec::new();
        let finals = run_phased(
            workers,
            5,
            1u64,
            |round, mult, acc| {
                *acc += u64::from(round + 1) * *mult;
                *acc
            },
            |_, results| {
                let total: u64 = results.iter().sum();
                trace.push(total);
                Some(total % 7 + 1)
            },
        );
        (finals, trace)
    }

    #[test]
    fn single_and_multi_worker_agree_per_worker() {
        // per-worker state evolution must not depend on *other* workers
        // except through the reduce-produced command
        let (f1, t1) = run_sum(1);
        let (f4, t4) = run_sum(4);
        assert_eq!(f1[0], t1.last().copied().unwrap(), "sanity");
        // all workers of the 4-run evolve identically (same commands)
        assert!(f4.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(t4.len(), t1.len());
    }

    #[test]
    fn results_arrive_in_worker_order() {
        let workers: Vec<usize> = (0..6).collect();
        let mut seen = Vec::new();
        run_phased(
            workers,
            3,
            (),
            |_, (), idx| {
                // stagger finish times in reverse order
                std::thread::sleep(std::time::Duration::from_millis((6 - *idx as u64) * 2));
                *idx
            },
            |_, results| {
                seen.push(results.clone());
                Some(())
            },
        );
        for round in seen {
            assert_eq!(round, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn early_stop_skips_remaining_rounds() {
        let mut rounds_run = 0;
        run_phased(
            vec![0u32; 3],
            100,
            (),
            |_, (), w| {
                *w += 1;
                *w
            },
            |r, _| {
                rounds_run = r + 1;
                if r == 4 {
                    None
                } else {
                    Some(())
                }
            },
        );
        assert_eq!(rounds_run, 5);
    }

    #[test]
    fn zero_rounds_is_noop() {
        let out = run_phased(vec![7u8; 2], 0, (), |_, (), w| *w, |_, _| Some(()));
        assert_eq!(out, vec![7, 7]);
    }

    #[test]
    fn ranges_partition_in_order_without_empty_chunks() {
        for len in [1usize, 2, 5, 8, 13] {
            for workers in [0, 1, len.saturating_sub(1), len, len + 3] {
                let split = ranges(len, workers);
                assert_eq!(split.len(), workers.clamp(1, len), "{len}/{workers}");
                let mut next = 0;
                for r in &split {
                    assert_eq!(r.start, next, "{len}/{workers}: contiguous, in order");
                    assert!(!r.is_empty(), "{len}/{workers}: {r:?} is empty");
                    next = r.end;
                }
                assert_eq!(next, len, "{len}/{workers}: covers 0..len");
                let sizes: Vec<usize> = split.iter().map(Range::len).collect();
                assert!(
                    sizes.windows(2).all(|w| w[0] >= w[1])
                        && sizes[0] - sizes[sizes.len() - 1] <= 1,
                    "{len}/{workers}: {sizes:?} must be balanced, larger first"
                );
            }
        }
        assert!(ranges(0, 4).is_empty());
    }

    #[test]
    fn map_ranges_returns_results_in_range_order() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        for threads in [1usize, 4] {
            // force the ranges to finish last-first
            let split = ranges(10, threads);
            let finished = AtomicUsize::new(0);
            let chunks = map_ranges(10, threads, |r| {
                let turn = split.iter().rev().position(|x| *x == r).unwrap();
                while finished.load(SeqCst) != turn {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, SeqCst);
                r.collect::<Vec<usize>>()
            });
            assert_eq!(chunks.len(), threads);
            assert_eq!(chunks.concat(), (0..10).collect::<Vec<_>>(), "{threads}");
        }
        let none: Vec<usize> = map_ranges(0, 4, |r| r.len());
        assert!(none.is_empty(), "no items, no work");
    }

    #[test]
    fn final_states_returned_in_order() {
        let out = run_phased(
            (0..5u32).collect::<Vec<_>>(),
            2,
            (),
            |_, (), w| {
                *w *= 10;
                *w
            },
            |_, _| Some(()),
        );
        assert_eq!(out, vec![0, 100, 200, 300, 400]);
    }
}

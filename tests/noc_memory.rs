//! The interconnect run's heap, counted: a run that returns only
//! statistics folds them as it delivers, so its peak live heap is a
//! small fraction of the delivery log it does not build (32 bytes a
//! delivery).
//!
//! The allocator below counts every allocation of this test binary, so
//! the file holds one test: a second one running on another thread
//! would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use neuromap::hw::energy::EnergyModel;
use neuromap::noc::config::NocConfig;
use neuromap::noc::sim::NocSim;
use neuromap::noc::stats::Delivery;
use neuromap::noc::topology::NocTree;
use neuromap::noc::traffic::SpikeFlow;

/// [`System`], counting the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Per-synapse traffic on a 12-crossbar tree, the shape of the paper's
/// digit-recognition flow: 600 neurons, each with 40 remote synapses over
/// three crossbars, firing every 4th of 40 steps — 240 000 unicast flows,
/// a spike's 40 emitted back to back by ascending destination.
fn per_synapse_flows() -> Vec<SpikeFlow> {
    let (crossbars, neurons, synapses, steps, period) = (12u32, 600u32, 40u32, 40u32, 4u32);
    let mut flows = Vec::new();
    for n in 0..neurons {
        let src = n % crossbars;
        let mut dsts: Vec<u32> = (0..synapses)
            .map(|j| (src + 1 + (n / crossbars + j) % 3) % crossbars)
            .collect();
        dsts.sort_unstable();
        for step in (n % period..steps).step_by(period as usize) {
            flows.extend(
                dsts.iter()
                    .map(|&dst| SpikeFlow::unicast(n, src, dst, step)),
            );
        }
    }
    flows
}

#[test]
fn a_statistics_run_holds_a_small_fraction_of_the_log_it_skips() {
    let flows = per_synapse_flows();
    assert_eq!(flows.len(), 240_000);
    let cfg = NocConfig {
        cycles_per_step: 8192,
        ..NocConfig::default()
    };
    let mut sim = NocSim::new(Box::new(NocTree::new(12, 4)), cfg, EnergyModel::default());

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let stats = sim.run(&flows).expect("drains");
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(stats.delivered, 240_000);
    let log = stats.delivered as usize * std::mem::size_of::<Delivery>();
    assert_eq!(log, 7_680_000, "a log is 32 bytes a delivery");
    // the run's own tables (the schedule's groups, the plan, the packets
    // in flight, the statistics' interned streams, step summaries and
    // 512 KB of staged deliveries) measure ≈ 1.2 MB here; the log alone
    // would be 7.7 MB, and the run that built it peaked at 9.6 MB
    assert!(
        peak * 4 < log,
        "the run's heap peaked {peak} bytes above its start, a quarter of the {log}-byte log \
         it no longer builds is {}",
        log / 4
    );
}

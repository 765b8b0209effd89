//! Kernel microbenchmark workloads behind `repro bench` (and the host
//! calibration of the end-to-end benchmark).
//!
//! The workload is a bundle of self-rescheduling event chains whose delays
//! spread across several timer-wheel levels (so cascades are exercised, not
//! just slot zero). The same chain runs on both kernels:
//!
//! - [`run_typed_chain`] — the production [`tsuru_sim::Sim`] with a typed
//!   event enum (zero allocations per event);
//! - [`run_boxed_chain`] — the pre-wheel reference kernel
//!   ([`crate::refkernel::RefSim`], binary heap + one boxed closure per
//!   event).
//!
//! Timing helpers live here too so every wall-clock read in the bench
//! harness sits behind one explicitly waived function.

use std::time::Instant;

use crate::refkernel::RefSim;
use tsuru_sim::{Event, Sim, SimDuration, SimTime};

/// Concurrent chains per workload. The queue depth is where the two
/// kernels diverge: the reference heap pays `O(log n)` pointer-chasing per
/// op while the wheel stays O(1), so the bench holds a deep queue — the
/// regime E2/E8-style multi-trial sweeps put the kernel in.
pub const CHAINS: u64 = 4096;

/// Delay spread for the next hop of a chain, in simulated nanoseconds.
/// Mixes sub-microsecond hops (wheel level 0–1) with hops up to ~2 ms
/// (level 3+), forcing cascades on the wheel and deep re-heapify on the
/// reference heap, while keeping slot occupancy realistic.
#[inline]
fn chain_delay(state: u64) -> u64 {
    1 + (state % 9973) * 101 + (state % 31) * 32_768
}

/// Typed chain event: each dispatch bumps the shared counter and
/// reschedules itself until `left` runs out.
enum Tick {
    Step { left: u32 },
}

impl Event<u64> for Tick {
    fn dispatch(self, state: &mut u64, sim: &mut Sim<u64, Self>) {
        match self {
            Tick::Step { left } => {
                *state += 1;
                if left > 0 {
                    let d = chain_delay(*state);
                    sim.schedule_event_in(SimDuration::from_nanos(d), Tick::Step {
                        left: left - 1,
                    });
                }
            }
        }
    }
}

/// What one chain run observed. `alloc_events` and `peak_slab` are
/// deterministic (they depend only on the schedule, never on wall-clock),
/// so CI can ratchet them alongside the wall-clock rate.
#[derive(Debug, Clone, Copy)]
pub struct ChainRun {
    /// Events actually dispatched.
    pub events: u64,
    /// High-water mark of the pending queue.
    pub peak_pending: usize,
    /// Pending-store capacity growths (≈ allocations) during the run.
    pub alloc_events: u64,
    /// High-water mark of the wheel's batch slab (0 for the reference
    /// kernel, which has no batch path).
    pub peak_slab: usize,
}

/// Run ~`total_events` typed events through the production kernel.
pub fn run_typed_chain(total_events: u64) -> ChainRun {
    let per_chain = (total_events / CHAINS).max(1) as u32;
    let mut sim: Sim<u64, Tick> = Sim::new();
    for c in 0..CHAINS {
        sim.schedule_event_at(SimTime::from_nanos(1 + c), Tick::Step {
            left: per_chain - 1,
        });
    }
    let mut state = 0u64;
    sim.run(&mut state);
    ChainRun {
        events: sim.events_executed(),
        peak_pending: sim.peak_pending(),
        alloc_events: sim.alloc_events(),
        peak_slab: sim.peak_slab(),
    }
}

/// One hop of the boxed-closure chain on the reference kernel. Every
/// reschedule allocates a fresh `Box<dyn FnOnce>` — the cost the typed
/// kernel removed.
fn boxed_hop(state: &mut u64, sim: &mut RefSim<u64>, left: u32) {
    *state += 1;
    if left > 0 {
        let d = chain_delay(*state);
        sim.schedule_in(SimDuration::from_nanos(d), move |s, sim| {
            boxed_hop(s, sim, left - 1)
        });
    }
}

/// Run ~`total_events` boxed-closure events through the reference kernel.
/// Every event is one fresh `Box<dyn FnOnce>` by construction, so
/// `alloc_events` is the event count — the 1-allocation-per-event floor
/// the typed kernel's slab amortizes away.
pub fn run_boxed_chain(total_events: u64) -> ChainRun {
    let per_chain = (total_events / CHAINS).max(1) as u32;
    let mut sim: RefSim<u64> = RefSim::new();
    for c in 0..CHAINS {
        let left = per_chain - 1;
        sim.schedule_at(SimTime::from_nanos(1 + c), move |s, sim| {
            boxed_hop(s, sim, left)
        });
    }
    let mut state = 0u64;
    sim.run(&mut state);
    ChainRun {
        events: sim.events_executed(),
        peak_pending: sim.peak_pending(),
        alloc_events: sim.events_executed(),
        peak_slab: 0,
    }
}

/// One measured kernel rate, as emitted into `BENCH.json`.
#[derive(Debug, Clone)]
pub struct KernelRate {
    /// Which kernel ran (`"typed_wheel"` / `"boxed_heap"`).
    pub kernel: &'static str,
    /// Events actually dispatched.
    pub events: u64,
    /// Wall-clock seconds for the drain.
    pub secs: f64,
    /// `events / secs`.
    pub events_per_sec: f64,
    /// High-water mark of the pending queue during the run.
    pub peak_pending: usize,
    /// Pending-store capacity growths per dispatched event — the kernel's
    /// allocation rate. Deterministic, so CI ratchets it.
    pub allocs_per_event: f64,
    /// High-water mark of the wheel's batch slab during the run.
    pub peak_slab: usize,
}

/// Time `f` and return its result plus elapsed wall-clock seconds. The one
/// sanctioned wall-clock read in the bench harness: benches measure real
/// time by definition, and nothing here feeds simulated results.
pub fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // detlint: allow(wall_clock) — bench harness measures real time by definition
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Repetitions per measurement; the fastest is kept. Best-of-N reports the
/// kernel's actual cost — the slower repeats measure scheduler noise, not
/// the code — and keeps the CI regression gate stable. Shared CI hosts
/// show multi-second slow bursts, so N spans several of them.
pub const REPS: usize = 9;

fn best_of(kernel: &'static str, run: impl Fn() -> ChainRun) -> KernelRate {
    let mut best: Option<KernelRate> = None;
    for _ in 0..REPS {
        let (r, secs) = time_secs(&run);
        let rate = KernelRate {
            kernel,
            events: r.events,
            secs,
            events_per_sec: r.events as f64 / secs.max(1e-9),
            peak_pending: r.peak_pending,
            allocs_per_event: r.alloc_events as f64 / r.events.max(1) as f64,
            peak_slab: r.peak_slab,
        };
        if best.as_ref().is_none_or(|b| rate.events_per_sec > b.events_per_sec) {
            best = Some(rate);
        }
    }
    best.expect("REPS > 0")
}

/// Measure the typed kernel's event rate over ~`total_events` events
/// (best of [`REPS`] runs).
pub fn measure_typed(total_events: u64) -> KernelRate {
    best_of("typed_wheel", || run_typed_chain(total_events))
}

/// Measure the reference boxed-closure kernel over ~`total_events` events
/// (best of [`REPS`] runs).
pub fn measure_boxed(total_events: u64) -> KernelRate {
    best_of("boxed_heap", || run_boxed_chain(total_events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kernels_execute_the_same_event_count() {
        let typed = run_typed_chain(4096);
        let boxed = run_boxed_chain(4096);
        assert_eq!(typed.events, boxed.events);
        assert_eq!(typed.events, (4096 / CHAINS) * CHAINS);
        // All chains start pending, so the high-water mark sees every chain.
        assert!(typed.peak_pending >= CHAINS as usize);
        assert!(boxed.peak_pending >= CHAINS as usize);
        // The boxed reference allocates per event; the typed wheel's
        // capacity growths amortize to a small fraction of that.
        assert_eq!(boxed.alloc_events, boxed.events);
        assert!(typed.alloc_events < typed.events / 2);
    }

    #[test]
    fn chain_stats_are_deterministic() {
        let a = run_typed_chain(8192);
        let b = run_typed_chain(8192);
        assert_eq!(a.alloc_events, b.alloc_events);
        assert_eq!(a.peak_slab, b.peak_slab);
        assert_eq!(a.peak_pending, b.peak_pending);
    }
}

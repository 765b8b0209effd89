//! The pre-wheel event kernel, preserved as a benchmark reference.
//!
//! This is the kernel the simulator shipped with before the typed-event /
//! timer-wheel rewrite: a `BinaryHeap` ordered by `(time, seq)` holding one
//! **boxed closure per event**. It exists only so `repro bench` can
//! measure the new kernel against the old one on the same workload —
//! nothing in the simulator proper uses it.
//!
//! The semantics match the old `tsuru_sim::Sim` exactly (earliest-first,
//! FIFO on timestamp ties via the monotone `seq`), so a chain workload run
//! here and on the real kernel executes the same event sequence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tsuru_sim::{SimDuration, SimTime};

/// A one-shot boxed event handler for the reference kernel.
pub type RefEventFn<S> = Box<dyn FnOnce(&mut S, &mut RefSim<S>)>;

struct Scheduled<S> {
    time: SimTime,
    seq: u64,
    f: RefEventFn<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}

impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S> Ord for Scheduled<S> {
    /// Reversed so the max-heap pops the *earliest* event; equal timestamps
    /// pop in insertion (`seq`) order.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference discrete-event simulator: binary heap + boxed closures.
pub struct RefSim<S> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<S>>,
    next_seq: u64,
    executed: u64,
    peak: usize,
}

impl<S> Default for RefSim<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> RefSim<S> {
    /// A simulator at time zero with an empty event queue.
    pub fn new() -> Self {
        RefSim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            executed: 0,
            peak: 0,
        }
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending queue.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Schedule `f` at absolute time `t` (which must not be in the past).
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut S, &mut RefSim<S>) + 'static) {
        assert!(t >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            time: t,
            seq,
            f: Box::new(f),
        });
        self.peak = self.peak.max(self.queue.len());
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut RefSim<S>) + 'static,
    ) {
        let t = self.now.checked_add(delay).expect("event time overflow");
        self.schedule_at(t, f);
    }

    /// Pop and run the earliest event; false if the queue is empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.time;
        self.executed += 1;
        (ev.f)(state, self);
        true
    }

    /// Run until the queue is empty.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_on_ties_and_time_order() {
        let mut sim: RefSim<Vec<u32>> = RefSim::new();
        sim.schedule_at(SimTime::from_nanos(5), |s, _| s.push(2));
        sim.schedule_at(SimTime::from_nanos(1), |s, _| s.push(1));
        sim.schedule_at(SimTime::from_nanos(5), |s, _| s.push(3));
        let mut out = Vec::new();
        sim.run(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.peak_pending(), 3);
    }
}

//! Property-based tests of the timer-wheel kernel against a reference
//! binary-heap model.
//!
//! The wheel replaced a `BinaryHeap<(time, seq)>`; the determinism contract
//! requires the two to pop in *exactly* the same `(time, seq)` order under
//! any interleaving of schedules, cancellations, and time advances. These
//! tests drive both side by side over arbitrary operation scripts.

use proptest::prelude::*;
use tsuru_sim::{Event, Sim, SimTime, TimerToken};

/// Firing log: `(fire_time_nanos, id)` per dispatched event.
type Log = Vec<(u64, u64)>;

/// Minimal typed event for the harness.
enum Ev {
    Rec { id: u64 },
}

impl Event<Log> for Ev {
    fn dispatch(self, state: &mut Log, sim: &mut Sim<Log, Self>) {
        match self {
            Ev::Rec { id } => state.push((sim.now().as_nanos(), id)),
        }
    }
}

/// One step of an operation script.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `offset` nanoseconds after the current instant.
    Schedule { offset: u64 },
    /// Cancel the `k`-th issued token (mod the number issued so far).
    Cancel { k: usize },
    /// Advance simulated time by `dt` nanoseconds, firing due events.
    Advance { dt: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..5_000).prop_map(|offset| Op::Schedule { offset }),
        2 => (0usize..64).prop_map(|k| Op::Cancel { k }),
        2 => (0u64..8_000).prop_map(|dt| Op::Advance { dt }),
    ]
}

/// Reference model of the kernel queue: a plain sorted pending set.
#[derive(Default)]
struct Model {
    /// `(time, id)` still pending; `id` doubles as the model's seq because
    /// both counters advance by one per schedule call.
    pending: Vec<(u64, u64)>,
    /// Everything the model has fired, in order: `(fire_time, id)`.
    log: Log,
    now: u64,
    next_id: u64,
}

impl Model {
    fn schedule(&mut self, at: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((at, id));
        id
    }

    /// Cancel by id; true if it was still pending (mirrors `Sim::cancel`).
    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|&(_, i)| i == id) {
            Some(p) => {
                self.pending.remove(p);
                true
            }
            None => false,
        }
    }

    /// Fire everything due at or before `horizon` in `(time, seq)` order —
    /// the reference BinaryHeap pop order.
    fn advance(&mut self, horizon: u64) {
        loop {
            let Some(&min) = self.pending.iter().min() else { break };
            if min.0 > horizon {
                break;
            }
            self.pending.retain(|&e| e != min);
            self.now = min.0;
            self.log.push(min);
        }
        self.now = self.now.max(horizon);
    }
}

/// Run one script through both implementations and return
/// `(kernel log, model log, kernel, model, issued tokens)`.
fn run_script(ops: &[Op]) -> (Sim<Log, Ev>, Model, Log) {
    let mut sim: Sim<Log, Ev> = Sim::new();
    let mut log: Log = Vec::new();
    let mut model = Model::default();
    let mut tokens: Vec<(TimerToken, u64)> = Vec::new();
    for op in ops {
        match *op {
            Op::Schedule { offset } => {
                let at = model.now + offset;
                let id = model.next_id;
                let tok = sim.schedule_event_at(SimTime::from_nanos(at), Ev::Rec { id });
                let mid = model.schedule(at);
                assert_eq!(id, mid);
                tokens.push((tok, id));
            }
            Op::Cancel { k } => {
                if tokens.is_empty() {
                    continue;
                }
                let (tok, id) = tokens[k % tokens.len()];
                let kernel_hit = sim.cancel(tok);
                let model_hit = model.cancel(id);
                assert_eq!(
                    kernel_hit, model_hit,
                    "cancel of id {id} disagreed with the model"
                );
            }
            Op::Advance { dt } => {
                let horizon = model.now + dt;
                sim.run_until(&mut log, SimTime::from_nanos(horizon));
                model.advance(horizon);
                assert_eq!(sim.now().as_nanos(), model.now);
            }
        }
    }
    // Drain whatever is left so every surviving event fires.
    sim.run(&mut log);
    model.advance(u64::MAX);
    (sim, model, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wheel pops in exactly the reference heap's `(time, seq)` order
    /// under arbitrary interleaved schedule/cancel/advance scripts.
    #[test]
    fn wheel_matches_binary_heap_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let (sim, model, log) = run_script(&ops);
        prop_assert_eq!(&log, &model.log, "pop order diverged from the reference model");
        prop_assert_eq!(sim.pending(), 0);
        prop_assert!(model.pending.is_empty());
    }

    /// Cancelled events never fire, every non-cancelled event fires exactly
    /// once, and the wheel's slots are reclaimed (len returns to zero).
    #[test]
    fn cancelled_events_never_fire(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let (sim, model, log) = run_script(&ops);
        // Every id the model still knows as fired must appear exactly once;
        // every other issued id was cancelled and must not appear at all.
        let fired: std::collections::HashSet<u64> = model.log.iter().map(|&(_, id)| id).collect();
        prop_assert_eq!(log.len(), model.log.len());
        for id in 0..model.next_id {
            let n = log.iter().filter(|&&(_, i)| i == id).count();
            if fired.contains(&id) {
                prop_assert_eq!(n, 1, "id {} should fire exactly once", id);
            } else {
                prop_assert_eq!(n, 0, "cancelled id {} fired", id);
            }
        }
        // Slot reclamation: the queue is empty and reusable afterwards.
        prop_assert_eq!(sim.pending(), 0);
        let mut sim = sim;
        let mut log2: Log = Vec::new();
        let t = sim.now() + tsuru_sim::SimDuration::from_nanos(7);
        sim.schedule_event_at(t, Ev::Rec { id: u64::MAX });
        sim.run(&mut log2);
        prop_assert_eq!(log2.len(), 1);
        prop_assert_eq!(sim.pending(), 0);
    }
}

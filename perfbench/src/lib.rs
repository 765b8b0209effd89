//! # tsuru-perfbench — host-time benchmark of the whole system
//!
//! Three workloads drive the workspace crates through their public
//! functions, phase by phase, so every phase can be timed from here:
//!
//! - [`metro`]: one E12 sharded world at 4000 tenants;
//! - [`drills`]: E2-shaped surprise-failure drills on the two-site shop;
//! - [`chaos`]: seeded fault plans through the history and alert trials.
//!
//! A workload runs in passes. Each pass returns a [`Pass`]: host
//! timings, the simulated-output digest, deterministic work counts and
//! oracle verdicts. `main.rs` turns passes into the metrics, and
//! `README.md` in this directory explains what each metric predicts.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::Instant;

pub mod chaos;
pub mod digest;
pub mod drills;
pub mod metro;
pub mod trace;

use digest::Fnv;
use trace::Spans;
use tsuru_sim::{Event, Sim};
use tsuru_storage::{metric_names, GroupId, StorageWorld};

/// The seed a reference output digest is recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// What one pass of a workload measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass, probes excluded.
    pub wall_s: f64,
    /// Worlds the pass's drive constructs.
    pub worlds: u64,
    /// Host seconds per world construction, from the burst of builds
    /// before the timed drive (see [`time_builds`]).
    pub builds_s: Vec<f64>,
    /// Simulated business orders completed.
    pub orders: u64,
    /// Host milliseconds per trial.
    pub trial_ms: Vec<f64>,
    /// Digest of the simulated outputs.
    pub outputs: Fnv,
    /// Deterministic work counts, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Seed-independent oracle expectations checked.
    pub checks: u64,
    /// The expectations that did not hold.
    pub failures: Vec<String>,
    /// Host-time probes of a finished world (traced passes only), by
    /// per-layer metric name.
    pub probes: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Record one oracle expectation.
    pub fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !holds {
            self.failures.push(what());
        }
    }

    /// Add `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Raise the count `name` to at least `v`.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        let slot = self.counts.entry(name).or_insert(0.0);
        *slot = slot.max(v);
    }

    /// Count the work of a finished kernel.
    pub fn count_sim<S, E: Event<S>>(&mut self, sim: &Sim<S, E>) {
        self.count("sim.events", sim.events_executed() as f64);
        self.count_max("sim.peak_pending", sim.peak_pending() as f64);
        self.count("sim.alloc_events", sim.alloc_events() as f64);
    }

    /// Count the work of a finished storage world.
    pub fn count_storage(&mut self, st: &StorageWorld) {
        let counter = |name| st.metrics.counter(name) as f64;
        let samples = st
            .metrics
            .series(metric_names::RPO_LAG)
            .map_or(0, |s| s.len());
        self.count("telemetry.sample_calls", samples as f64);
        self.count("storage.writes_acked", st.ack_log.len() as f64);
        self.count(
            "storage.writes_failed",
            counter(metric_names::WRITES_FAILED),
        );
        self.count(
            "storage.journal_stall_retries",
            counter(metric_names::JOURNAL_STALL_RETRIES),
        );
        self.count(
            "storage.write_order_waits",
            counter(metric_names::WRITE_ORDER_WAITS),
        );
    }
}

/// Time `n` back-to-back constructions of a pass's world, dropping each
/// untimed. A burst reuses warm memory, so its median moves with the cost
/// of construction rather than with page faults left by the last trial.
pub fn time_builds<T>(n: u64, mut build: impl FnMut(u64) -> T) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let (world, secs) = timed(|| build(i));
            drop(world);
            secs
        })
        .collect()
}

/// Journal entries shipped and WAN frames sent by `groups`.
pub fn frame_totals(st: &StorageWorld, groups: &[GroupId]) -> (u64, u64) {
    groups.iter().fold((0, 0), |(entries, frames), &g| {
        let s = &st.fabric.group(g).stats;
        (entries + s.entries_transferred, frames + s.frames_sent)
    })
}

/// Journal entries per WAN frame.
pub fn per_frame(entries: u64, frames: u64) -> f64 {
    entries as f64 / frames.max(1) as f64
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One E12 sharded world at [`metro::TENANTS`] tenants.
    Metro,
    /// [`drills::DRILLS_PER_MODE`] drills under each of two backup modes.
    Drills,
    /// [`chaos::PLANS`] fault plans through history and alert trials.
    Chaos,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Metro, Workload::Drills, Workload::Chaos];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Metro => "metro",
            Workload::Drills => "drills",
            Workload::Chaos => "chaos",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One full pass. Spans are recorded into `spans` when it is on, and
    /// probes of a finished world run only then.
    pub fn pass(self, seed: u64, spans: &mut Spans) -> Pass {
        match self {
            Workload::Metro => metro::pass(seed, spans),
            Workload::Drills => drills::pass(seed, spans),
            Workload::Chaos => chaos::pass(seed, spans),
        }
    }

    /// A short untimed run that faults in code and warms the allocator.
    pub fn warm_up(self, seed: u64) {
        match self {
            Workload::Metro => metro::warm_up(seed),
            Workload::Drills => drills::warm_up(seed),
            Workload::Chaos => chaos::warm_up(seed),
        }
    }
}

/// Host seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Time `f` in host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs_since(t))
}

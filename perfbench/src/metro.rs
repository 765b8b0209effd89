//! `metro`: one E12 sharded world, driven phase by phase as
//! `run_e12_trial` drives it.

use std::hint::black_box;
use std::time::Instant;

use tsuru_core::tenants::{build_tenant_world, TenantOp};
use tsuru_core::{E12Row, TenantParams, TenantWorld};
use tsuru_sim::Sim;
use tsuru_storage::metric_names;

use crate::trace::Spans;
use crate::{frame_totals, per_frame, secs_since, time_builds, timed, Pass};

/// Tenants (= consistency groups) in the benchmark world. Large enough
/// that the per-event walk over every group dominates; 1000 tenants hide
/// it, 10k take tens of seconds per pass.
pub const TENANTS: u32 = 4000;

/// Calls timed by the `telemetry.shard_sample_us` probe.
const SHARD_SAMPLE_REPS: u32 = 100;

/// World constructions timed per pass for the set-up median.
const SETUP_BUILDS: u64 = 7;

/// A finished metro world and its E12 row.
pub struct MetroRun {
    /// The row `run_e12_trial` reports for the same seed and size.
    pub row: E12Row,
    /// The world after quiescence.
    pub world: TenantWorld,
    /// The kernel after quiescence.
    pub sim: Sim<TenantWorld, TenantOp>,
}

/// Build, run to the probe instant, take the RPO reading, run to
/// quiescence, read the shard lanes back and verify every group — the
/// phases of `run_e12_trial`, each in its own span.
pub fn drive(seed: u64, p: &TenantParams, spans: &mut Spans, trial: u64) -> MetroRun {
    let (mut w, mut sim) = spans.time("core.build", trial, || build_tenant_world(seed, p));
    spans.time("sim.run", trial, || sim.run_until(&mut w, p.probe_at));
    let probe = spans.time("storage.rpo_report", trial, || {
        w.st.rpo_report(&w.groups, p.probe_at)
    });
    spans.time("sim.run", trial, || sim.run(&mut w));

    let (peak_jnl, peak_lag, drain_ns, entries, frames) =
        spans.time("telemetry.readback", trial, || {
            let mut peak_jnl = 0f64;
            for (_, ts) in
                w.st.metrics
                    .shard_lanes(metric_names::SHARD_JOURNAL_OCCUPANCY)
            {
                peak_jnl = peak_jnl.max(ts.max().unwrap_or(0.0));
            }
            let mut peak_lag = 0f64;
            let mut drain_ns = 0u64;
            for (_, ts) in w.st.metrics.shard_lanes(metric_names::SHARD_APPLY_LAG) {
                peak_lag = peak_lag.max(ts.max().unwrap_or(0.0));
                for &(t, v) in ts.points() {
                    if v > 0.0 {
                        drain_ns = drain_ns.max(t.as_nanos());
                    }
                }
            }
            let (entries, frames) = frame_totals(&w.st, &w.groups);
            (peak_jnl, peak_lag, drain_ns, entries, frames)
        });
    let consistent = spans.time("storage.verify", trial, || {
        w.st.verify_consistency(&w.groups).is_consistent()
    });

    let row = E12Row {
        tenants: p.tenants,
        shards: p.shards,
        writes_acked: w.acked,
        backlog_at_probe: probe.lost_writes,
        rpo_at_probe_ms: probe.rpo.as_nanos() as f64 / 1e6,
        peak_shard_jnl_kib: peak_jnl / 1024.0,
        peak_shard_lag: peak_lag,
        entries_per_frame: per_frame(entries, frames),
        drain_ms: drain_ns as f64 / 1e6,
        consistent,
    };
    MetroRun { row, world: w, sim }
}

/// One pass: one world of [`TENANTS`] tenants.
pub fn pass(seed: u64, spans: &mut Spans) -> Pass {
    pass_at(seed, &TenantParams::for_scale(TENANTS), spans)
}

/// One pass of a world built from `p`.
pub fn pass_at(seed: u64, p: &TenantParams, spans: &mut Spans) -> Pass {
    let mut out = Pass {
        worlds: 1,
        builds_s: time_builds(SETUP_BUILDS, |_| build_tenant_world(seed, p)),
        ..Pass::default()
    };

    let start = Instant::now();
    let root = spans.enter("pass", 0);
    let mut run = drive(seed, p, spans, 1);
    spans.exit(root);

    let orders = p.tenants as u64 * p.orders_per_tenant as u64;
    let w = &run.world;
    out.expect(w.failed == 0, || {
        format!("metro: {} host writes failed", w.failed)
    });
    out.expect(run.row.consistent, || {
        "metro: a backup image is not prefix-consistent".into()
    });
    out.expect(w.acked + w.degraded == 2 * orders, || {
        format!(
            "metro: {} of {} writes acknowledged",
            w.acked + w.degraded,
            2 * orders
        )
    });
    out.orders = orders;
    out.outputs.str(&format!("{:?}", run.row));

    out.count_sim(&run.sim);
    out.count_storage(&w.st);
    out.count("storage.entries_per_frame", run.row.entries_per_frame);

    let probes_s = if spans.is_on() {
        let t = Instant::now();
        probe(&mut out, &mut run);
        secs_since(t)
    } else {
        0.0
    };
    drop(run);

    out.wall_s = secs_since(start) - probes_s;
    out.trial_ms.push(out.wall_s * 1e3);
    out
}

/// Host-time probes of the finished world: a metrics snapshot, then
/// repeated shard sampling (which appends samples, so it runs last).
fn probe(out: &mut Pass, run: &mut MetroRun) {
    let (snap, snapshot_s) = timed(|| run.world.st.metrics.snapshot());
    black_box(snap);
    out.probes.insert("telemetry.snapshot_s", snapshot_s);

    let now = run.sim.now();
    let TenantWorld { st, shards, .. } = &mut run.world;
    let (_, secs) = timed(|| {
        for _ in 0..SHARD_SAMPLE_REPS {
            st.sample_shard_series(black_box(shards), now);
        }
    });
    out.probes.insert(
        "telemetry.shard_sample_us",
        secs * 1e6 / SHARD_SAMPLE_REPS as f64,
    );
}

/// Untimed: a small world through every phase.
pub fn warm_up(seed: u64) {
    pass_at(seed, &TenantParams::for_scale(200), &mut Spans::new(false));
}

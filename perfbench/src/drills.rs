//! `drills`: E2-shaped surprise-failure drills on the two-site shop,
//! driven phase by phase as `e2_drill` drives them.

use std::hint::black_box;
use std::time::Instant;

use tsuru_core::experiments::E2Trial;
use tsuru_core::{BackupMode, RigConfig, TwoSiteRig};
use tsuru_sim::{DetRng, SimDuration, SimTime};
use tsuru_storage::RpoReport;

use crate::trace::Spans;
use crate::{frame_totals, per_frame, secs_since, time_builds, timed, Pass};

/// Drills per backup mode in one pass (the pass runs both modes).
pub const DRILLS_PER_MODE: u64 = 60;

/// Rig constructions timed per pass for the set-up median, alternating
/// the two modes.
const SETUP_BUILDS: u64 = 16;

/// The two modes a pass splits its drills between.
pub const MODES: [BackupMode; 2] = [BackupMode::AdcConsistencyGroup, BackupMode::AdcPerVolume];

/// Pump jitter between sessions, as `repro e2` runs the drills.
pub fn session_jitter() -> SimDuration {
    SimDuration::from_millis(2)
}

/// A finished drill.
pub struct DrillRun {
    /// The verdict `e2_drill` reports for the same inputs.
    pub verdict: E2Trial,
    /// RPO at the failure instant, as failover reported it.
    pub rpo: RpoReport,
    /// The rig after recovery.
    pub rig: TwoSiteRig,
}

/// The rig of drill `t` in `mode`, configured as `e2_drill` does.
fn drill_config(
    base_seed: u64,
    t: u64,
    mode: BackupMode,
    session_jitter: SimDuration,
) -> RigConfig {
    let mut cfg = RigConfig {
        seed: DetRng::trial_seed(base_seed, t),
        mode,
        ..Default::default()
    };
    cfg.engine.pump_jitter = session_jitter;
    cfg.workload.think_time_mean = SimDuration::from_millis(2);
    cfg
}

/// Build, run to a surprise failure, fail over, recover — drill `t` of
/// `e2_drill`. Failover is `TwoSiteRig::failover` taken apart into its
/// three storage calls so each gets a span.
pub fn drive(
    base_seed: u64,
    t: u64,
    mode: BackupMode,
    session_jitter: SimDuration,
    spans: &mut Spans,
    trial: u64,
) -> DrillRun {
    let cfg = drill_config(base_seed, t, mode, session_jitter);
    let mut rig = spans.time("core.build", trial, || TwoSiteRig::new(cfg));

    let fail_at = SimTime::from_millis(80 + (t * 13) % 80);
    rig.schedule_main_failure(fail_at);
    rig.world.app_mut().stop_after_orders = None;
    spans.time("sim.run", trial, || {
        tsuru_ecom::driver::start_clients(&mut rig.world, &mut rig.sim);
        rig.sim
            .run_until(&mut rig.world, fail_at + SimDuration::from_millis(200));
    });

    spans.time("storage.failover", trial, || {
        for &g in &rig.groups {
            rig.world.st.promote_group(g);
        }
    });
    let consistency = spans.time("storage.verify", trial, || {
        rig.world.st.verify_consistency(&rig.groups)
    });
    let rpo = spans.time("storage.rpo_report", trial, || {
        rig.world.st.rpo_report(&rig.groups, fail_at)
    });
    let outcome = spans.time("minidb.recover", trial, || rig.recover_from_backup());

    let hard_failure = outcome.hard_failure();
    let verdict = E2Trial {
        mode: mode.label().into(),
        storage_collapse: !consistency.prefix.consistent,
        business_collapse: hard_failure || !outcome.fully_consistent(),
        hard_failure,
        lost_orders: outcome.orders.as_ref().map(|o| o.lost).unwrap_or(0),
    };
    DrillRun { verdict, rpo, rig }
}

/// One pass: [`DRILLS_PER_MODE`] paired drills under each of [`MODES`].
pub fn pass(seed: u64, spans: &mut Spans) -> Pass {
    pass_with(seed, DRILLS_PER_MODE, spans)
}

/// One pass of `per_mode` drills under each of [`MODES`].
pub fn pass_with(seed: u64, per_mode: u64, spans: &mut Spans) -> Pass {
    let mut out = Pass {
        worlds: MODES.len() as u64 * per_mode,
        builds_s: time_builds(SETUP_BUILDS, |i| {
            let mode = MODES[(i % 2) as usize];
            TwoSiteRig::new(drill_config(seed, i / 2, mode, session_jitter()))
        }),
        ..Pass::default()
    };
    let start = Instant::now();
    let mut probes_s = 0.0;
    let (mut entries, mut frames) = (0u64, 0u64);
    let root = spans.enter("pass", 0);
    for (mi, &mode) in MODES.iter().enumerate() {
        for t in 0..per_mode {
            let trial = 1 + mi as u64 * per_mode + t;
            let drill_start = Instant::now();
            let open = spans.enter("drill", trial);
            let run = drive(seed, t, mode, session_jitter(), spans, trial);
            spans.exit(open);
            out.trial_ms.push(secs_since(drill_start) * 1e3);

            let v = &run.verdict;
            if mode == BackupMode::AdcConsistencyGroup {
                out.expect(!v.storage_collapse && !v.business_collapse, || {
                    format!("drills: consistency-group drill {t} collapsed: {v:?}")
                });
            }
            out.orders += run.rig.committed_orders();
            out.outputs
                .str(&format!("{v:?}"))
                .u64(run.rig.committed_orders())
                .u64(run.rpo.lost_writes)
                .u64(run.rpo.acked_writes)
                .u64(run.rpo.rpo.as_nanos());

            let st = &run.rig.world.st;
            out.count_sim(&run.rig.sim);
            out.count_storage(st);
            out.count("minidb.hard_failures", v.hard_failure as u64 as f64);
            let (e, f) = frame_totals(st, &run.rig.groups);
            entries += e;
            frames += f;

            if spans.is_on() && trial == MODES.len() as u64 * per_mode {
                let probe_start = Instant::now();
                let (snap, snapshot_s) = timed(|| st.metrics.snapshot());
                black_box(snap);
                out.probes.insert("telemetry.snapshot_s", snapshot_s);
                probes_s += secs_since(probe_start);
            }
        }
    }
    spans.exit(root);
    out.count("storage.entries_per_frame", per_frame(entries, frames));
    out.wall_s = secs_since(start) - probes_s;
    out
}

/// Untimed: two drills per mode.
pub fn warm_up(seed: u64) {
    pass_with(seed, 2, &mut Spans::new(false));
}

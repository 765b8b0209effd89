//! `chaos`: seeded fault plans, each replayed through the history trial
//! (ecom workload, consistency group and naive) and through one alert
//! trial (supervisor armed, default rule profile, core-quartet plan).

use std::time::Instant;

use tsuru_chaos::{
    run_chaos_trial_alerts, run_chaos_trial_history, ChaosConfig, ChaosReport, FaultPlan,
};
use tsuru_core::{BackupMode, RigConfig, TwoSiteRig};
use tsuru_sim::DetRng;
use tsuru_storage::AlertProfile;

use crate::trace::Spans;
use crate::{secs_since, time_builds, Pass};

/// Fault plans in one pass.
pub const PLANS: u64 = 16;

/// The rig a history trial builds inside `run_chaos_trial_history`. The
/// trial builds its own, so a pass times separate builds of it, one per
/// plan, for the set-up median.
fn trial_rig_config(seed: u64, cfg: &ChaosConfig) -> RigConfig {
    let mut rig = RigConfig {
        seed,
        mode: BackupMode::AdcConsistencyGroup,
        history: true,
        ..RigConfig::default()
    };
    rig.workload.think_time_mean = cfg.think_time;
    rig
}

/// One pass: [`PLANS`] fault plans.
pub fn pass(seed: u64, spans: &mut Spans) -> Pass {
    pass_with(seed, PLANS, spans)
}

/// One pass of `plans` fault plans.
pub fn pass_with(seed: u64, plans: u64, spans: &mut Spans) -> Pass {
    let cfg = ChaosConfig::default();
    let supervised = ChaosConfig {
        supervisor: true,
        ..ChaosConfig::default()
    };
    let mut out = Pass {
        worlds: plans,
        builds_s: time_builds(plans, |i| {
            TwoSiteRig::new(trial_rig_config(DetRng::trial_seed(seed, i), &cfg))
        }),
        ..Pass::default()
    };
    let start = Instant::now();
    let root = spans.enter("pass", 0);
    for i in 0..plans {
        let plan_start = Instant::now();
        let trial = i + 1;
        let open = spans.enter("plan", trial);
        let plan_seed = DetRng::trial_seed(seed, i);
        let random = FaultPlan::random(plan_seed, cfg.horizon);
        let quartet = FaultPlan::core_quartet(plan_seed, supervised.horizon);

        let (cg, cg_history) = spans.time("chaos.history_trial", trial, || {
            run_chaos_trial_history(plan_seed, BackupMode::AdcConsistencyGroup, &random, &cfg)
        });
        let (naive, naive_history) = spans.time("chaos.history_trial", trial, || {
            run_chaos_trial_history(plan_seed, BackupMode::AdcPerVolume, &random, &cfg)
        });
        let (alert, incidents) = spans.time("chaos.alert_trial", trial, || {
            run_chaos_trial_alerts(
                plan_seed,
                BackupMode::AdcConsistencyGroup,
                &quartet,
                &supervised,
                AlertProfile::default_profile(),
            )
        });
        spans.exit(open);
        out.trial_ms.push(secs_since(plan_start) * 1e3);

        for (report, export) in [
            (&cg, &cg_history),
            (&naive, &naive_history),
            (&alert, &incidents),
        ] {
            out.outputs.str(&report.render()).str(export);
            out.orders += report.committed_orders;
            out.count("chaos.audits", report.audits as f64);
        }
        out.expect(cg.is_clean(), || violations("history", &cg));
        out.expect(alert.is_clean(), || violations("alert", &alert));
        out.count(
            "chaos.violations.cg",
            (cg.violations.len() + alert.violations.len()) as f64,
        );
        out.count("chaos.violations.naive", naive.violations.len() as f64);
        for h in [cg.history, naive.history].into_iter().flatten() {
            out.count("history.records", h.records as f64);
            out.count("history.ops_checked", h.ops_checked as f64);
            out.count("history.anomalies", h.anomalies as f64);
        }
        let incidents = alert.alerts.as_ref().map_or(0, |a| a.incidents);
        out.count("telemetry.incidents", incidents as f64);
    }
    spans.exit(root);
    out.wall_s = secs_since(start);
    out
}

fn violations(trial: &str, report: &ChaosReport) -> String {
    format!(
        "chaos: consistency-group {trial} trial seed {:#x} had {} violations",
        report.seed,
        report.violations.len()
    )
}

/// Untimed: one plan.
pub fn warm_up(seed: u64) {
    pass_with(seed, 1, &mut Spans::new(false));
}

//! The benchmark drives the crates phase by phase so it can time each
//! phase. These tests pin that the phased drives produce exactly what the
//! experiment runners behind `repro` produce, so the benchmark measures
//! the program `repro` runs, and that tracing changes no output or count.

use tsuru_core::experiments::e2_drill;
use tsuru_core::tenants::run_e12_trial;
use tsuru_core::TenantParams;
use tsuru_perfbench::trace::Spans;
use tsuru_perfbench::{chaos, drills, metro, Pass};

#[test]
fn metro_drive_reproduces_the_e12_row() {
    for (seed, tenants) in [(3, 24), (0xC0FFEE, 64)] {
        let mut spans = Spans::new(true);
        let run = metro::drive(seed, &TenantParams::for_scale(tenants), &mut spans, 0);
        let want = run_e12_trial(seed, tenants);
        assert_eq!(
            format!("{:?}", run.row),
            format!("{want:?}"),
            "seed {seed}, {tenants} tenants"
        );
        assert!(run.row.consistent);
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.build",
                "sim.run",
                "storage.rpo_report",
                "sim.run",
                "telemetry.readback",
                "storage.verify"
            ]
        );
    }
}

#[test]
fn drill_drive_reproduces_e2_drill_verdicts() {
    for mode in drills::MODES {
        for t in 0..3 {
            let mut spans = Spans::new(false);
            let run = drills::drive(1000, t, mode, drills::session_jitter(), &mut spans, t);
            let want = e2_drill(1000, t, mode, drills::session_jitter());
            assert_eq!(
                format!("{:?}", run.verdict),
                format!("{want:?}"),
                "{mode:?} drill {t}"
            );
        }
    }
}

fn assert_same_outputs_and_counts(untraced: &Pass, traced: &Pass) {
    assert_eq!(untraced.outputs, traced.outputs);
    assert_eq!(untraced.counts, traced.counts);
    assert!(untraced.failures.is_empty(), "{:?}", untraced.failures);
    assert!(untraced.checks > 0);
}

#[test]
fn tracing_changes_no_output_or_count() {
    let p = TenantParams::for_scale(32);
    let mut on = Spans::new(true);
    let traced = metro::pass_at(5, &p, &mut on);
    assert_same_outputs_and_counts(&metro::pass_at(5, &p, &mut Spans::new(false)), &traced);
    assert!(traced.probes.contains_key("telemetry.shard_sample_us"));

    let traced = drills::pass_with(5, 1, &mut on);
    assert_same_outputs_and_counts(&drills::pass_with(5, 1, &mut Spans::new(false)), &traced);

    let traced = chaos::pass_with(5, 1, &mut on);
    assert_same_outputs_and_counts(&chaos::pass_with(5, 1, &mut Spans::new(false)), &traced);
    assert!(traced.counts["chaos.audits"] > 0.0);
}

#[test]
fn outputs_depend_on_the_seed() {
    let p = TenantParams::for_scale(16);
    let mut off = Spans::new(false);
    assert_ne!(
        metro::pass_at(1, &p, &mut off).outputs,
        metro::pass_at(2, &p, &mut off).outputs
    );
}

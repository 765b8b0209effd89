//! # tsuru-bench — benchmarks and the experiment reproduction harness
//!
//! Two kinds of measurement live here:
//!
//! - the **`repro` binary** (`cargo run -p tsuru-bench --release --bin
//!   repro [e1|e2|e3|e4|e5|e6|all]`) regenerates every experiment table
//!   from DESIGN.md §4 in simulated time — the reproduction of the paper's
//!   figures/claims (results recorded in EXPERIMENTS.md);
//! - `repro bench` ([`kernelbench`]) measures the *wall-clock* cost of the
//!   event kernel against the preserved reference kernel ([`refkernel`]),
//!   so regressions in the substrate are caught.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernelbench;
pub mod refkernel;

use tsuru_core::experiments::{E1Row, E2Row, E3Row, E4Row, E5Row};
use tsuru_core::{f2, render_table};

/// Render the E1 (no-slowdown) table.
pub fn render_e1(rows: &[E1Row]) -> String {
    render_table(
        &["mode", "rtt_ms", "tps", "mean_ms", "p50_ms", "p99_ms"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    f2(r.rtt_ms),
                    f2(r.tps),
                    format!("{:.3}", r.mean_ms),
                    format!("{:.3}", r.p50_ms),
                    format!("{:.3}", r.p99_ms),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the E2 (collapse) table.
pub fn render_e2(rows: &[E2Row]) -> String {
    render_table(
        &[
            "mode",
            "trials",
            "storage_collapse",
            "business_collapse",
            "hard_failures",
            "avg_lost_orders",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.trials.to_string(),
                    format!("{}/{}", r.storage_collapses, r.trials),
                    format!("{}/{}", r.business_collapses, r.trials),
                    r.hard_recovery_failures.to_string(),
                    f2(r.avg_lost_orders),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the E3 (RPO) table.
pub fn render_e3(rows: &[E3Row]) -> String {
    render_table(
        &[
            "mode",
            "bw_mbps",
            "journal_mib",
            "committed",
            "lost_orders",
            "rpo_ms",
            "stalls",
            "p99_ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.bandwidth_mbps.to_string(),
                    r.journal_mib.to_string(),
                    r.committed_orders.to_string(),
                    r.lost_orders.to_string(),
                    f2(r.rpo_ms),
                    r.journal_stalls.to_string(),
                    format!("{:.3}", r.p99_ms),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the E4 (snapshot) table.
pub fn render_e4(rows: &[E4Row]) -> String {
    render_table(
        &[
            "scenario",
            "analytics_orders",
            "image_consistent",
            "cow_saves",
            "committed_at_end",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.analytics_orders.to_string(),
                    r.image_consistent.to_string(),
                    r.cow_saves.to_string(),
                    r.committed_at_end.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the E5 (operator automation) table.
pub fn render_e5(rows: &[E5Row]) -> String {
    render_table(
        &[
            "volumes",
            "user_actions(op)",
            "user_actions(manual)",
            "rounds",
            "api_mutations",
            "pairs",
            "backup_claims",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.volumes.to_string(),
                    r.user_actions_operator.to_string(),
                    r.user_actions_manual.to_string(),
                    r.rounds.to_string(),
                    r.api_mutations.to_string(),
                    r.pairs.to_string(),
                    r.backup_claims.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the A1 (backup lag ablation) table.
pub fn render_a1(rows: &[tsuru_core::experiments::A1Row]) -> String {
    render_table(
        &[
            "pump_us",
            "batch",
            "mean_lag_writes",
            "max_lag_writes",
            "frames",
            "p99_ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.pump_interval_us.to_string(),
                    r.batch_max_entries.to_string(),
                    f2(r.mean_lag_writes),
                    r.max_lag_writes.to_string(),
                    r.frames_sent.to_string(),
                    format!("{:.3}", r.p99_ms),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the A2 (journal-full policy ablation) table.
pub fn render_a2(rows: &[tsuru_core::experiments::A2Row]) -> String {
    render_table(
        &[
            "policy",
            "journal_kib",
            "committed",
            "p99_ms",
            "stalls",
            "degraded_acks",
            "lost_orders",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    r.journal_kib.to_string(),
                    r.committed.to_string(),
                    format!("{:.3}", r.p99_ms),
                    r.stalls.to_string(),
                    r.degraded_acks.to_string(),
                    r.lost_orders.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the E7 (three-data-centre) table.
pub fn render_e7(rows: &[tsuru_core::experiments::E7Row]) -> String {
    render_table(
        &[
            "mode",
            "p50_ms",
            "committed",
            "far_recovered",
            "metro_recovered",
            "best_copy_lost",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    format!("{:.3}", r.p50_ms),
                    r.committed.to_string(),
                    r.far_recovered.to_string(),
                    r.metro_recovered
                        .map(|m| m.to_string())
                        .unwrap_or_else(|| "—".into()),
                    r.best_copy_lost.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Render the E12 (metro-scale tenant-scaling) table.
pub fn render_e12(rows: &[tsuru_core::E12Row]) -> String {
    render_table(
        &[
            "tenants",
            "shards",
            "acked",
            "backlog@probe",
            "rpo_ms@probe",
            "peak_jnl_kib",
            "peak_lag",
            "ent/frame",
            "drain_ms",
            "consistent",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tenants.to_string(),
                    r.shards.to_string(),
                    r.writes_acked.to_string(),
                    r.backlog_at_probe.to_string(),
                    f2(r.rpo_at_probe_ms),
                    f2(r.peak_shard_jnl_kib),
                    format!("{:.0}", r.peak_shard_lag),
                    f2(r.entries_per_frame),
                    f2(r.drain_ms),
                    if r.consistent { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Serialize a rendered table (as produced by the `render_*` functions)
/// into CSV, so plots of the paper's "figures" can be regenerated from the
/// same rows (`repro --csv`).
pub fn table_to_csv(table: &str) -> String {
    let mut out = String::new();
    for (i, line) in table.lines().enumerate() {
        if i == 1 {
            continue; // the dashes separator
        }
        let cells: Vec<&str> = line.split_whitespace().collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let rows = vec![E1Row {
            mode: "none".into(),
            rtt_ms: 2.0,
            tps: 1000.0,
            mean_ms: 0.1,
            p50_ms: 0.1,
            p99_ms: 0.2,
        }];
        let t = render_e1(&rows);
        assert!(t.contains("none"));
        assert!(t.contains("p99_ms"));
        let csv = table_to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "mode,rtt_ms,tps,mean_ms,p50_ms,p99_ms");
        assert!(lines[1].starts_with("none,2.00,"));
    }
}

//! `perfbench --workload <metro|drills|chaos> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs passes of one workload for `--seconds` of host time and prints,
//! as its last stdout line, one JSON object: the checks attempted and
//! failed, and every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`) by name with its unit. A readable summary goes to
//! stderr. `perfbench/run.py` builds this binary and adds the process's
//! peak resident memory.

use std::process::ExitCode;
use std::time::Instant;

use tsuru_bench::kernelbench::{measure_boxed, measure_typed};
use tsuru_perfbench::trace::{self_time_by_layer, total_by_name, Spans};
use tsuru_perfbench::{median, quantile, Pass, Workload, DEFAULT_SEED};

/// Reference output digests, one `<workload> <seed> <digest>` per line.
const REFERENCE: &str = include_str!("../reference.txt");

/// Events per host-calibration kernel run (best of several runs).
const CALIBRATION_EVENTS: u64 = 1 << 21;

/// Deterministic work counts the traced run reports (unit `count`).
const COUNTS: [&str; 16] = [
    "telemetry.sample_calls",
    "telemetry.incidents",
    "storage.writes_acked",
    "storage.writes_failed",
    "storage.journal_stall_retries",
    "storage.write_order_waits",
    "minidb.hard_failures",
    "chaos.audits",
    "chaos.violations.cg",
    "chaos.violations.naive",
    "history.records",
    "history.ops_checked",
    "history.anomalies",
    "sim.events",
    "sim.peak_pending",
    "sim.alloc_events",
];

/// Host seconds per pass inside the spans of one call: (metric, span).
const SPAN_TOTALS: [(&str, &str); 5] = [
    ("storage.verify_s", "storage.verify"),
    ("storage.rpo_report_s", "storage.rpo_report"),
    ("storage.failover_s", "storage.failover"),
    ("minidb.recover_s", "minidb.recover"),
    ("sim.run_s", "sim.run"),
];

/// Self time per pass of each layer: (layer, metric).
const LAYERS: [(&str, &str); 7] = [
    ("bench", "self.bench_s"),
    ("core", "self.core_s"),
    ("sim", "self.sim_s"),
    ("storage", "self.storage_s"),
    ("telemetry", "self.telemetry_s"),
    ("minidb", "self.minidb_s"),
    ("chaos", "self.chaos_s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn reference_digest(workload: Workload, seed: u64) -> Option<u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            let d = u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()?;
            (w == workload.name() && s.parse::<u64>().ok()? == seed).then_some(d)
        })
}

/// Checks across passes: oracle verdicts, pass-to-pass determinism of the
/// outputs and counts, and the reference digest on the default seed.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failures: Vec<String>,
}

impl Verdict {
    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failures.push(what());
        }
    }

    fn judge(&mut self, workload: Workload, seed: u64, first: &Pass, pass: &Pass, index: usize) {
        self.attempted += pass.checks;
        self.failures.extend(pass.failures.iter().cloned());
        if index > 0 {
            self.check(pass.outputs == first.outputs, || {
                format!(
                    "pass {index}: outputs digest {:#x} differs from pass 0",
                    pass.outputs.get()
                )
            });
            self.check(pass.counts == first.counts, || {
                format!("pass {index}: work counts differ from pass 0")
            });
        }
        if seed == DEFAULT_SEED {
            let want = reference_digest(workload, seed);
            self.check(want == Some(pass.outputs.get()), || {
                format!(
                    "pass {index}: outputs digest {:#x} differs from the reference {want:x?}",
                    pass.outputs.get()
                )
            });
        }
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(passes: &[Pass]) -> Metrics {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Set-up: the median construction time of one world, times the worlds
    // one pass's drive constructs.
    let builds: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.builds_s.iter().copied())
        .collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.orders as f64 / p.wall_s).collect();
    let trials: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.trial_ms.iter().copied())
        .collect();
    vec![
        ("wall_s", median(&walls), "s"),
        ("setup_s", median(&builds) * passes[0].worlds as f64, "s"),
        ("orders_per_s", median(&rates), "orders/s"),
        ("trial_ms.p50", quantile(&trials, 0.5), "ms"),
        ("trial_ms.p90", quantile(&trials, 0.9), "ms"),
    ]
}

/// Per-layer metrics from the traced passes (each with its span slice),
/// the untraced passes of the same run, and the host calibration.
fn per_layer(
    traced: &[(Pass, Vec<tsuru_perfbench::trace::Span>, usize)],
    untraced: &[Pass],
    calibration: (f64, f64),
) -> Metrics {
    let first = &traced[0].0;
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0.0);
    let span_total = |name: &str| {
        let v: Vec<f64> = traced
            .iter()
            .map(|(_, spans, _)| total_by_name(spans).get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let span_p50_ms = |name: &str| {
        let v: Vec<f64> = traced
            .iter()
            .flat_map(|(_, spans, _)| {
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.secs() * 1e3)
            })
            .collect();
        median(&v)
    };
    let probe = |name: &str| {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|(p, _, _)| p.probes.get(name).copied())
            .collect();
        median(&v)
    };
    let builds: Vec<f64> = traced
        .iter()
        .map(|(p, _, _)| p)
        .chain(untraced)
        .flat_map(|p| p.builds_s.iter().copied())
        .collect();
    let traced_wall = median(&traced.iter().map(|(p, _, _)| p.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let run_s = span_total("sim.run");
    let events = count("sim.events");

    let mut m: Metrics = COUNTS
        .iter()
        .map(|&name| (name, count(name), "count"))
        .collect();
    m.extend(
        SPAN_TOTALS
            .iter()
            .map(|&(name, span)| (name, span_total(span), "s")),
    );
    let ns_per_event = if events > 0.0 {
        run_s * 1e9 / events
    } else {
        0.0
    };
    m.extend([
        (
            "storage.entries_per_frame",
            count("storage.entries_per_frame"),
            "entries/frame",
        ),
        (
            "telemetry.shard_sample_us",
            probe("telemetry.shard_sample_us"),
            "us",
        ),
        ("telemetry.snapshot_s", probe("telemetry.snapshot_s"), "s"),
        (
            "chaos.history_trial_ms.p50",
            span_p50_ms("chaos.history_trial"),
            "ms",
        ),
        (
            "chaos.alert_trial_ms.p50",
            span_p50_ms("chaos.alert_trial"),
            "ms",
        ),
        ("sim.ns_per_event", ns_per_event, "ns"),
        ("sim.kernel_events_per_s", calibration.0, "events/s"),
        ("sim.ref_events_per_s", calibration.1, "events/s"),
        ("core.build_s", median(&builds), "s"),
    ]);
    for (layer, name) in LAYERS {
        let v: Vec<f64> = traced
            .iter()
            .map(|(_, spans, base)| {
                self_time_by_layer(spans, *base)
                    .get(layer)
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        m.push((name, median(&v), "s"));
    }
    m.push(("trace.wall_s", traced_wall, "s"));
    m.push(("trace.overhead_s", traced_wall - untraced_wall, "s"));
    m.push(("trace.spans", traced[0].1.len() as f64, "count"));
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    w.warm_up(args.seed);
    let calibration = if args.trace {
        let _ = (
            measure_typed(CALIBRATION_EVENTS / 16),
            measure_boxed(CALIBRATION_EVENTS / 16),
        );
        let typed = measure_typed(CALIBRATION_EVENTS).events_per_sec;
        let boxed = measure_boxed(CALIBRATION_EVENTS).events_per_sec;
        (typed, boxed)
    } else {
        (0.0, 0.0)
    };

    // Untraced passes only, or untraced and traced passes alternating.
    let mut spans = Spans::new(false);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let min_each = if args.trace { 2 } else { 3 };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = untraced.len() >= min_each && (!args.trace || traced.len() >= min_each);
        if enough && elapsed >= args.seconds {
            break;
        }
        let trace_this = args.trace && untraced.len() > traced.len();
        spans.set_on(trace_this);
        let mark = spans.mark();
        let pass = w.pass(args.seed, &mut spans);
        if trace_this {
            traced.push((pass, spans.since(mark).to_vec(), mark));
        } else {
            untraced.push(pass);
        }
    }

    let mut verdict = Verdict::default();
    let first = &untraced[0];
    let all = untraced.iter().chain(traced.iter().map(|(p, _, _)| p));
    for (i, pass) in all.enumerate() {
        verdict.judge(w, args.seed, first, pass, i);
    }
    let metrics = if args.trace {
        per_layer(&traced, &untraced, calibration)
    } else {
        end_to_end(&untraced)
    };

    eprintln!(
        "perfbench {} seed={} passes={} traced={} outputs={:#018x}",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        first.outputs.get()
    );
    let trials: usize = untraced.iter().map(|p| p.trial_ms.len()).sum();
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    eprintln!(
        "  trials timed: {trials}; untraced pass walls (s): {}",
        walls.join(" ")
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    let failed = verdict.failures.len() as u64;
    eprintln!(
        "  {:<32} {:>16.6} ({failed} of {} checks)",
        "failed_frac",
        failed as f64 / verdict.attempted.max(1) as f64,
        verdict.attempted
    );
    for f in &verdict.failures {
        eprintln!("  FAILED: {f}");
    }

    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.chrome_json()));
        match written {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    println!("{}", json(failed == 0, verdict.attempted, failed, &metrics));
    ExitCode::SUCCESS
}

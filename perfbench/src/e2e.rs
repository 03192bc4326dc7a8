//! The end-to-end run: spans off, monitored and bare runs paired per
//! iteration with their order alternated, every iteration checked.

use crate::postmortem::{self, PostMortem};
use crate::stats::median;
use crate::workload::{self, storm_expected_calls, Inputs, Run, Workload};
use crate::{checks, metric, Report};
use std::time::{Duration, Instant};

/// Iterations measured even when they overrun the time budget.
pub const MIN_ITERATIONS: u64 = 3;

/// One monitored run and its checks.
pub fn monitored(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    spans: bool,
    failures: &mut Vec<String>,
) -> Run {
    let steps = workload.steps();
    let run = workload::run(workload, seed, inputs, steps, true, spans);
    let expected = workload.is_storm().then(|| storm_expected_calls(steps));
    checks::issued(&run, expected.as_deref(), failures);
    checks::booked(workload, &run, steps, failures);
    run
}

/// The post-mortem of a checked monitored run, and its checks.
pub fn postmortem(run: &mut Run, spans: bool, failures: &mut Vec<String>) -> PostMortem {
    let ipms = run.ipms();
    let profiles = std::mem::take(&mut run.run.profiles);
    let captured: u64 = profiles.iter().map(|p| p.monitor.trace_captured).sum();
    let pm = postmortem::run(&ipms, profiles, run.tail_s, spans, failures);
    if captured != pm.retained {
        failures.push(format!(
            "{captured} trace records captured, {} drained",
            pm.retained
        ));
    }
    pm
}

/// One bare run and its checks.
pub fn bare(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    spans: bool,
    failures: &mut Vec<String>,
) -> Run {
    let steps = workload.steps();
    let run = workload::run(workload, seed, inputs, steps, false, spans);
    let expected = workload.is_storm().then(|| storm_expected_calls(steps));
    checks::issued(&run, expected.as_deref(), failures);
    run
}

/// Count one checked iteration, reporting its failures on stderr.
pub fn tally(failures: &[String], attempted: &mut u64, failed: &mut u64) {
    *attempted += 1;
    if !failures.is_empty() {
        *failed += 1;
        for f in failures.iter().take(5) {
            eprintln!("perfbench: iteration {}: {f}", *attempted);
        }
    }
}

/// Peak resident set of this process, MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn measure(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    budget: Duration,
    setup_s: f64,
) -> Report {
    let start = Instant::now();
    let (mut run_s, mut run_cpu_s, mut dilatation) = (Vec::new(), Vec::new(), Vec::new());
    let (mut postmortem_s, mut export_s, mut parse_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut pairs = 0u64;
    let mut capture_ratio = 0.0;
    while attempted < MIN_ITERATIONS || start.elapsed() < budget {
        let mut failures = Vec::new();
        // the last monitored run of the iteration gets the post-mortem
        let mut last = None;
        for _ in 0..workload.pairs_per_iteration() {
            let (mon, bare) = if pairs.is_multiple_of(2) {
                let m = monitored(workload, seed, inputs, false, &mut failures);
                (m, bare(workload, seed, inputs, false, &mut failures))
            } else {
                let b = bare(workload, seed, inputs, false, &mut failures);
                (monitored(workload, seed, inputs, false, &mut failures), b)
            };
            pairs += 1;
            checks::paired(&mon, &bare, &mut failures);
            run_s.push(mon.wall_s);
            run_cpu_s.push(mon.cpu_s());
            dilatation.push(mon.wall_s / bare.wall_s);
            last = Some(mon);
        }
        let mut mon = last.expect("at least one pair per iteration");
        let pm = postmortem(&mut mon, false, &mut failures);
        tally(&failures, &mut attempted, &mut failed);
        postmortem_s.push(pm.postmortem_s());
        export_s.push(pm.trace_export_s());
        parse_s.push(pm.parse_s());
        let (emitted, captured) = pm.monitor.iter().fold((0, 0), |(e, c), m| {
            (e + m.trace_emitted, c + m.trace_captured)
        });
        if emitted > 0 {
            capture_ratio = captured as f64 / emitted as f64;
        }
    }
    Report {
        attempted,
        failed,
        // wall-clock run_s swings with the load other tenants put on a
        // shared box while the paired dilatation and the ranks' CPU time
        // hold steady; the capture ratio is undefined on the untraced
        // storm: both are printed, not reported
        ungated: vec![
            metric("run_s", median(&run_s), "s"),
            metric("trace_capture_ratio", capture_ratio, "ratio"),
        ],
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("run_cpu_s", median(&run_cpu_s), "s"),
            metric("dilatation", median(&dilatation), "ratio"),
            metric("postmortem_s", median(&postmortem_s), "s"),
            metric("trace_export_s", median(&export_s), "s"),
            metric("parse_s", median(&parse_s), "s"),
            metric("rss_peak_mb", rss_peak_mb(), "MiB"),
        ],
    }
}

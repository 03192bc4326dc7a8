//! The IPM monitor's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload storm|storm_traced|md --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with spans off; `--trace 1`
//! runs the record-path ledger and the span run and reports the per-layer
//! metrics. Either way every timed iteration is checked, a summary table
//! goes to stdout, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md`.

mod checks;
mod e2e;
mod ledger;
mod postmortem;
mod probe;
mod spanrun;
mod stats;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Inputs, Workload};

#[global_allocator]
static GLOBAL: ledger::CountingAlloc = ledger::CountingAlloc;

/// Child processes started to time set-up (`setup_s` is their median): at
/// least [`SETUP_SAMPLES`], and more until they have taken
/// [`SETUP_MIN_TIME`], so a quick set-up gets more samples.
const SETUP_SAMPLES: usize = 15;
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up, print the seconds it took and exit (one `setup_s` sample).
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-child" {
            setup_child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

/// Everything before the first timed iteration: interner and spec-registry
/// seeding, input generation, and a short monitored + bare warm-up run of
/// the workload with its post-mortem (cluster construction, thread start,
/// first-touch of every code path).
fn setup(workload: Workload, seed: u64) -> Inputs {
    ipm_interpose::Registry::global();
    ipm_interpose::NameTable::global();
    let inputs = Inputs::generate(seed);
    let steps = workload.warmup_steps();
    let mut monitored = workload::run(workload, seed, &inputs, steps, true, false);
    e2e::postmortem(&mut monitored, false, &mut Vec::new());
    workload::run(workload, seed, &inputs, steps, false, false);
    inputs
}

/// Median over fresh processes of the time each took, by its own clock,
/// from entering `main` until it was set up.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < SETUP_SAMPLES || start.elapsed() < SETUP_MIN_TIME {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .arg("--setup-child")
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start set-up process: {e}"))?;
        let line = String::from_utf8_lossy(&out.stdout);
        match line.trim().parse::<f64>() {
            Ok(s) if out.status.success() => samples.push(s),
            _ => return Err(format!("set-up process failed ({})", out.status)),
        }
    }
    Ok(stats::median(&samples))
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// What a run reports: the checked iteration counts and its metrics.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed in the table only, not in the JSON result.
    pub ungated: Vec<Metric>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_report(args: &Args, report: &Report) {
    println!(
        "# {} seed {} ({} run): {} iterations, {} failed, failed_frac {}",
        args.workload.name(),
        args.seed,
        if args.trace { "span" } else { "end-to-end" },
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &report.ungated {
        println!(
            "{:<36} {:>16.6} {} (not in the result)",
            m.name, m.value, m.unit
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload storm|storm_traced|md --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_child {
        setup(args.workload, args.seed);
        println!("{}", start.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        let inputs = setup(args.workload, args.seed);
        spanrun::measure(args.workload, args.seed, &inputs, budget)
    } else {
        let setup_s = match measure_setup(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let inputs = setup(args.workload, args.seed);
        e2e::measure(args.workload, args.seed, &inputs, budget, setup_s)
    };
    print_report(&args, &report);
    ExitCode::SUCCESS
}

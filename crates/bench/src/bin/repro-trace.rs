//! Emit a trace of a monitored two-rank run.
//!
//! Runs the demo workload of [`ipm_bench::trace_fig`] and prints the
//! Chrome trace-event JSON to stdout (or writes it to the file given as
//! the first argument). Load the output in `chrome://tracing` or
//! <https://ui.perfetto.dev>. With `--otlp` the same run is exported as
//! OTLP-shaped `resourceSpans` JSON instead — the document any
//! OTLP-ingesting backend accepts on `/v1/traces`.
//!
//! ```text
//! cargo run --release -p ipm-bench --bin repro-trace -- trace.json
//! cargo run --release -p ipm-bench --bin repro-trace -- --otlp spans.json
//! ```

use ipm_bench::trace_fig::build_demo_trace;
use ipm_core::{validate_otlp, Otlp};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Write `json` to the file `out`, or to stdout without one. A reader that
/// closes the pipe early (`| head`) ends the output quietly.
fn write_or_print(json: &str, out: Option<String>, hint: &str) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("repro-trace: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("repro-trace: wrote {path} — {hint}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let written = stdout
                .write_all(json.as_bytes())
                .and_then(|()| stdout.flush());
            if let Err(e) = written {
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("repro-trace: cannot write to stdout: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_otlp(out: Option<String>) -> ExitCode {
    let (export, captured, dropped) = ipm_bench::trace_fig::demo_export(2);
    let json = export.to(Otlp).expect("demo has ranks");
    let stats = validate_otlp(&json).expect("exporter produced invalid OTLP");
    eprintln!(
        "repro-trace: {} spans over {} ranks, {} links, {} summary spans; \
         ring captured {captured} / dropped {dropped}",
        stats.spans, stats.resources, stats.links, stats.summary_spans,
    );
    write_or_print(&json, out, "POST it to an OTLP/HTTP collector's /v1/traces")
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let otlp = args.iter().any(|a| a == "--otlp");
    args.retain(|a| a != "--otlp");
    let out = args.into_iter().next();

    if otlp {
        return run_otlp(out);
    }

    let demo = build_demo_trace(2);
    eprintln!(
        "repro-trace: {} slices over {} lanes ({} ranks), {} flow arrows; \
         ring captured {} / dropped {}",
        demo.stats.slices,
        demo.stats.lanes,
        demo.stats.processes,
        demo.stats.flow_pairs,
        demo.captured,
        demo.dropped,
    );
    write_or_print(
        &demo.json,
        out,
        "open it in chrome://tracing or ui.perfetto.dev",
    )
}

//! `ipm_parse` — the offline report tool, as a CLI (paper §II).
//!
//! Reads one or more per-rank IPM XML logs and regenerates reports:
//!
//! ```text
//! ipm_parse profile.xml                    # single-rank banner
//! ipm_parse -b rank*.xml                   # cluster banner
//! ipm_parse -html out.html rank*.xml       # HTML page
//! ipm_parse -cube rank*.xml                # CUBE text view
//! ipm_parse -cubexml rank*.xml             # CUBE XML document
//! ipm_parse trace rank*.xml                # Chrome/Perfetto trace JSON
//! ipm_parse otlp rank*.xml                 # OTLP resourceSpans JSON
//! ```

use ipm_core::export::{Banner, Cube, CubeXml, Html};
use ipm_core::parse::export_from_xml;
use ipm_core::{validate_chrome_trace, validate_otlp, ChromeTrace, Otlp};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ipm_parse [-b | -html <out.html> | -cube | -cubexml | trace | otlp] <profile.xml>..."
    );
    ExitCode::FAILURE
}

fn read_all(files: &[String]) -> Result<Vec<String>, ExitCode> {
    let mut xmls = Vec::new();
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(s) => xmls.push(s),
            Err(e) => {
                eprintln!("ipm_parse: cannot read {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(xmls)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    let (mode, html_out, files): (&str, Option<String>, &[String]) = match args[0].as_str() {
        "-b" => ("banner", None, &args[1..]),
        "-html" => {
            if args.len() < 3 {
                return usage();
            }
            ("html", Some(args[1].clone()), &args[2..])
        }
        "-cube" => ("cube", None, &args[1..]),
        "-cubexml" => ("cubexml", None, &args[1..]),
        "trace" | "-trace" => ("trace", None, &args[1..]),
        "otlp" | "-otlp" => ("otlp", None, &args[1..]),
        _ => ("banner", None, &args[..]),
    };
    if files.is_empty() {
        return usage();
    }

    let xmls = match read_all(files) {
        Ok(x) => x,
        Err(code) => return code,
    };
    let export = match export_from_xml(&xmls) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ipm_parse: {e}");
            return ExitCode::FAILURE;
        }
    };

    let doc = match mode {
        "trace" => {
            let json = export.to(ChromeTrace).expect("ranks present");
            match validate_chrome_trace(&json) {
                Ok(stats) => eprintln!(
                    "ipm_parse: trace ok — {} slices, {} ranks, {} lanes, {} flows",
                    stats.slices, stats.processes, stats.lanes, stats.flow_pairs
                ),
                Err(e) => {
                    eprintln!("ipm_parse: internal error, produced invalid trace: {e}");
                    return ExitCode::FAILURE;
                }
            }
            json
        }
        "otlp" => {
            let json = export.to(Otlp).expect("ranks present");
            match validate_otlp(&json) {
                Ok(stats) => eprintln!(
                    "ipm_parse: otlp ok — {} spans, {} ranks, {} links, {} summaries",
                    stats.spans, stats.resources, stats.links, stats.summary_spans
                ),
                Err(e) => {
                    eprintln!("ipm_parse: internal error, produced invalid OTLP: {e}");
                    return ExitCode::FAILURE;
                }
            }
            json
        }
        // node count is inferred from the distinct hosts by the builder
        "banner" => export.to(Banner).expect("profiles present"),
        "html" => {
            let html = export.to(Html).expect("profiles present");
            let out = html_out.expect("checked");
            if let Err(e) = std::fs::write(&out, html) {
                eprintln!("ipm_parse: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("ipm_parse: wrote {out}");
            return ExitCode::SUCCESS;
        }
        "cube" => export.to(Cube).expect("profiles present"),
        "cubexml" => export.to(CubeXml).expect("profiles present"),
        _ => unreachable!(),
    };
    emit(&doc)
}

/// Write `doc` to stdout. A reader that closes the pipe early (`| head`)
/// ends the output quietly; any other write error fails the run.
fn emit(doc: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(doc.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ipm_parse: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

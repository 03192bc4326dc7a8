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

use ipm_core::export::{Banner, Html};
use ipm_core::parse::export_from_xml;
use ipm_core::{
    build_cube, cube_to_xml, render_cube_text, validate_chrome_trace, ChromeTrace, ClusterReport,
};
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

    match mode {
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
            print!("{json}");
        }
        "otlp" => {
            #[cfg(feature = "otlp")]
            {
                let json = export.to(ipm_core::export::Otlp).expect("ranks present");
                match ipm_core::export::validate_otlp(&json) {
                    Ok(stats) => eprintln!(
                        "ipm_parse: otlp ok — {} spans, {} ranks, {} links, {} summaries",
                        stats.spans, stats.resources, stats.links, stats.summary_spans
                    ),
                    Err(e) => {
                        eprintln!("ipm_parse: internal error, produced invalid OTLP: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                print!("{json}");
            }
            #[cfg(not(feature = "otlp"))]
            {
                eprintln!("ipm_parse: built without the `otlp` feature");
                return ExitCode::FAILURE;
            }
        }
        "banner" => {
            // node count is inferred from the distinct hosts by the builder
            let banner = export.to(Banner).expect("profiles present");
            print!("{banner}");
        }
        "html" => {
            let html = export.to(Html).expect("profiles present");
            let out = html_out.expect("checked");
            if let Err(e) = std::fs::write(&out, html) {
                eprintln!("ipm_parse: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("ipm_parse: wrote {out}");
        }
        "cube" | "cubexml" => {
            let src = export.source();
            let report = ClusterReport::from_profiles(src.profiles(), src.node_count());
            let cube = build_cube(&report);
            if mode == "cube" {
                print!("{}", render_cube_text(&cube));
            } else {
                print!("{}", cube_to_xml(&cube, &report));
            }
        }
        _ => unreachable!(),
    }
    ExitCode::SUCCESS
}

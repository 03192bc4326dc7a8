//! What IPM pays at exit, timed step by step and checked.
//!
//! After a monitored run every rank's profile, drained trace and XML log go
//! through the public `ipm-core` export pipeline exactly as a deployment
//! would use it; the `ipm_parse` side then rebuilds the view from the logs.

use crate::probe::SpanLog;
use ipm_core::export::{ExportRank, ExportSource, Exporter};
use ipm_core::parse::export_from_xml;
use ipm_core::{
    validate_chrome_trace, validate_otlp, Banner, ChromeTrace, Ipm, MonitorInfo, Otlp, RankProfile,
    Xml,
};
use std::sync::Arc;

/// Step timings (seconds) and output sizes of one post-mortem, with the
/// monitor's own accounting from the profiles it rendered.
#[derive(Debug, Default)]
pub struct PostMortem {
    /// Per-rank self-accounting and trace ledger.
    pub monitor: Vec<MonitorInfo>,
    /// Events booked over all ranks.
    pub booked: u64,
    /// Table-overflow and KTT drops over all ranks.
    pub dropped_events: u64,
    /// The steps' spans, when the post-mortem ran with spans on.
    pub spans: SpanLog,
    /// The harness's exit path for the run, from the last rank's app return
    /// to `run_cluster`'s return: `IpmCuda::finalize` (KTT drain) and
    /// `Ipm::profile` per rank, and the thread joins.
    pub finalize_s: f64,
    /// `Ipm::profile` per rank, timed again here (part of `finalize_s`).
    pub profile_s: f64,
    pub banner_s: f64,
    pub xml_s: f64,
    pub drain_s: f64,
    pub chrome_s: f64,
    pub otlp_s: f64,
    pub parse_xml_s: f64,
    pub parse_banner_s: f64,
    pub xml_bytes: usize,
    pub chrome_bytes: usize,
    pub otlp_bytes: usize,
    /// Trace records drained over all ranks.
    pub retained: u64,
}

impl PostMortem {
    /// `IpmCuda::finalize` and `Ipm::profile` per rank (the harness's exit
    /// path), the cluster banner, the per-rank XML logs.
    pub fn postmortem_s(&self) -> f64 {
        self.finalize_s + self.banner_s + self.xml_s
    }

    /// Trace drain plus the Chrome and OTLP renders of all ranks.
    pub fn trace_export_s(&self) -> f64 {
        self.drain_s + self.chrome_s + self.otlp_s
    }

    /// The `ipm_parse` path: every log back into an export view, plus a
    /// banner from it.
    pub fn parse_s(&self) -> f64 {
        self.parse_xml_s + self.parse_banner_s
    }
}

/// Markers that close one Chrome slice: the `E` of a `B`/`E` pair, or a
/// complete `X` event (compaction summaries). Quotes inside names are
/// escaped, so the markers cannot occur inside a string value.
const CHROME_SLICE_ENDS: &[&str] = &["\"ph\":\"E\"", "\"ph\":\"X\""];
/// One per OTLP span (links carry ids but no times).
const OTLP_SPAN_STARTS: &[&str] = &["\"startTimeUnixNano\""];

/// Records per rank fed to the export validators on every iteration.
///
/// `validate_chrome_trace` and `validate_otlp` parse with `jsonw`, whose
/// string scanner re-validates the UTF-8 of the whole remaining document
/// for every character it reads: their cost grows with the square of the
/// document, and a full `md` or `storm_traced` export would take hours.
/// The full exports are therefore counted by [`occurrences`], and the
/// validators check the same exporters over each rank's first records.
const VALIDATED_RECORDS: usize = 64;

fn occurrences(text: &str, markers: &[&str]) -> u64 {
    markers.iter().map(|m| text.matches(m).count() as u64).sum()
}

/// Render each rank's first [`VALIDATED_RECORDS`] records through both
/// trace exporters and validate the documents.
fn validate_sample(all: &ExportSource, failures: &mut Vec<String>) {
    let ranks: Vec<ExportRank> = all
        .ranks
        .iter()
        .map(|r| ExportRank {
            records: r.records.iter().take(VALIDATED_RECORDS).cloned().collect(),
            profile: None,
            prof: Vec::new(),
            host: r.host.clone(),
            ..*r
        })
        .collect();
    let records: usize = ranks.iter().map(|r| r.records.len()).sum();
    let sample = ExportSource {
        ranks,
        nodes: None,
        max_rows: 0,
    };
    let chrome = ChromeTrace.render(&sample).expect("ranks present");
    match validate_chrome_trace(&chrome) {
        Ok(stats) if stats.slices == records => {}
        Ok(stats) => failures.push(format!(
            "validated chrome sample has {} slices for {records} records",
            stats.slices
        )),
        Err(e) => failures.push(format!("chrome trace invalid: {e}")),
    }
    let otlp = Otlp.render(&sample).expect("ranks present");
    match validate_otlp(&otlp) {
        Ok(stats) if stats.spans == records => {}
        Ok(stats) => failures.push(format!(
            "validated OTLP sample has {} spans for {records} records",
            stats.spans
        )),
        Err(e) => failures.push(format!("OTLP export invalid: {e}")),
    }
}

/// Events booked in a profile (all entries, pseudo-events included).
pub fn booked(p: &RankProfile) -> u64 {
    p.entries.iter().map(|e| e.stats.count).sum()
}

/// Run the post-mortem over one monitored run's ranks, whose exit path in
/// the harness took `finalize_s`, recording a span per step when `spans`;
/// failed checks are appended to `failures`.
pub fn run(
    ipms: &[Arc<Ipm>],
    profiles: Vec<RankProfile>,
    finalize_s: f64,
    spans: bool,
    failures: &mut Vec<String>,
) -> PostMortem {
    let mut pm = PostMortem {
        finalize_s,
        monitor: profiles.iter().map(|p| p.monitor).collect(),
        booked: profiles.iter().map(booked).sum(),
        dropped_events: profiles.iter().map(|p| p.dropped_events).sum(),
        ..PostMortem::default()
    };
    if spans {
        SpanLog::begin("postmortem", 16);
    }

    // the harness already profiled each rank after finalizing it; the
    // repeat reads the same table and costs the same
    for (ipm, p) in ipms.iter().zip(&profiles) {
        let (again, s) = SpanLog::time("monitor.profile", || ipm.profile());
        pm.profile_s += s;
        if booked(&again) != booked(p) {
            failures.push(format!(
                "rank {}: profile booked {} events, then {}",
                p.rank,
                booked(p),
                booked(&again)
            ));
        }
    }

    let mut ranks = Vec::with_capacity(profiles.len());
    let mut xmls = Vec::with_capacity(profiles.len());
    for (ipm, p) in ipms.iter().zip(profiles) {
        let (records, s) = SpanLog::time("trace.drain", || ipm.drain_trace());
        pm.drain_s += s;
        pm.retained += records.len() as u64;
        let src = ExportSource {
            ranks: vec![ExportRank {
                rank: p.rank,
                host: p.host.clone(),
                epoch: ipm.epoch(),
                records,
                prof: Vec::new(),
                profile: Some(p),
            }],
            nodes: None,
            max_rows: 0,
        };
        let (xml, s) = SpanLog::time("export.xml", || Xml.render(&src));
        pm.xml_s += s;
        let xml = xml.expect("the rank carries a profile");
        pm.xml_bytes += xml.len();
        xmls.push(xml);
        ranks.extend(src.ranks);
    }
    let all = ExportSource {
        ranks,
        nodes: None,
        max_rows: 0,
    };

    let (banner, s) = SpanLog::time("export.banner", || Banner.render(&all));
    pm.banner_s = s;
    let banner = banner.expect("every rank carries a profile");

    let (chrome, s) = SpanLog::time("export.chrome", || ChromeTrace.render(&all));
    pm.chrome_s = s;
    let chrome = chrome.expect("ranks present");
    pm.chrome_bytes = chrome.len();
    let slices = occurrences(&chrome, CHROME_SLICE_ENDS);
    if slices != pm.retained {
        failures.push(format!(
            "chrome trace has {slices} slices for {} retained records",
            pm.retained
        ));
    }

    let (otlp, s) = SpanLog::time("export.otlp", || Otlp.render(&all));
    pm.otlp_s = s;
    let otlp = otlp.expect("ranks present");
    pm.otlp_bytes = otlp.len();
    let otlp_spans = occurrences(&otlp, OTLP_SPAN_STARTS);
    if otlp_spans != pm.retained {
        failures.push(format!(
            "OTLP export has {otlp_spans} spans for {} retained records",
            pm.retained
        ));
    }
    validate_sample(&all, failures);

    let (parsed, s) = SpanLog::time("parse.xml", || export_from_xml(&xmls));
    pm.parse_xml_s = s;
    match parsed {
        Ok(parsed) => {
            let (reparsed, s) = SpanLog::time("parse.banner", || parsed.to(Banner));
            pm.parse_banner_s = s;
            if reparsed.as_deref() != Ok(banner.as_str()) {
                failures.push("banner from the parsed logs differs from the live banner".into());
            }
        }
        Err(e) => failures.push(format!("XML logs do not parse: {e:?}")),
    }
    if spans {
        pm.spans = SpanLog::finish();
    }
    pm
}

//! Malformed logs never panic the offline tools.
//!
//! The committed goldens — XML logs with and without a trace section, and
//! the Chrome and OTLP documents — are truncated and mutated at random.
//! Every mutant must either be rejected (`export_from_xml`,
//! `validate_chrome_trace` or `validate_otlp` returns `Err`) or load into
//! a source that every backend renders without a panic, into Chrome and
//! OTLP documents that validate.

use ipm_repro::ipm::parse::export_from_xml;
use ipm_repro::ipm::{
    validate_chrome_trace, validate_otlp, Banner, ChromeTrace, Export, Html, Otlp, RegionReport,
    Xml,
};
use proptest::prelude::*;

const XML_LOGS: [&str; 5] = [
    include_str!("golden/mixed_trace.xml"),
    include_str!("golden/report_md.xml"),
    include_str!("golden/report_hpl.xml"),
    include_str!("golden/report_paratec.xml"),
    include_str!("golden/report_md_host_only.xml"),
];

const JSON_DOCS: [&str; 2] = [
    include_str!("golden/mixed_trace.chrome.json"),
    include_str!("golden/mixed_trace.otlp.json"),
];

/// Text spliced into a document: numbers a reader must refuse or bound,
/// markup and JSON punctuation, and whole elements whose references
/// dangle (a region past the region table, a kernel without its launch).
const TOKENS: [&str; 27] = [
    "NaN",
    "inf",
    "-inf",
    "-1",
    "0",
    "1e400",
    "-1e308",
    "18446744073709551616",
    "\"",
    "<",
    ">",
    "&",
    "&amp;",
    "=",
    "/>",
    "\n",
    "{",
    "}",
    "[",
    "]",
    ",",
    "\\",
    "\\u00",
    "é",
    "<event kind=\"K\" name=\"k\" begin=\"2\" end=\"1\" bytes=\"0\" region=\"9\" stream=\"4000000000\" corr=\"77\"/>\n",
    "<region id=\"9\">r</region>\n",
    "<entry name=\"x\" bytes=\"0\" region=\"7\" count=\"0\" total=\"1\" min=\"inf\" max=\"-inf\"/>\n",
];

/// The nearest char boundary of `s` at or below `pos % (len + 1)`.
fn boundary(s: &str, pos: u64) -> usize {
    let mut at = (pos % (s.len() as u64 + 1)) as usize;
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Apply one edit: `op` picks truncate, delete, insert, insert as a new
/// line, replace or duplicate, at byte `pos` over about `len` bytes,
/// splicing `TOKENS[tok]`.
fn mutate(s: &mut String, (op, pos, len, tok): (u8, u64, usize, usize)) {
    let at = boundary(s, pos);
    let end = boundary(s, (at + len) as u64).max(at);
    let token = TOKENS[tok % TOKENS.len()];
    match op {
        0 => s.truncate(at),
        1 => s.replace_range(at..end, ""),
        2 => s.insert_str(at, token),
        3 => {
            let line = s[at..].find('\n').map_or(s.len(), |n| at + n + 1);
            s.insert_str(line, token);
        }
        4 => s.replace_range(at..end, token),
        _ => {
            let copy = s[at..end].to_owned();
            s.insert_str(end, &copy);
        }
    }
}

/// Render a loaded source through every backend without a panic; the
/// trace documents it writes must be valid.
fn render_everything(e: &Export) {
    let _ = e.to(Banner);
    let _ = e.to(RegionReport);
    let _ = e.to(Xml);
    let _ = e.to(Html);
    let chrome = e.to(ChromeTrace).expect("a loaded source has ranks");
    if let Err(err) = validate_chrome_trace(&chrome) {
        panic!("invalid Chrome trace: {err}\n{chrome}");
    }
    let otlp = e.to(Otlp).expect("a loaded source has ranks");
    if let Err(err) = validate_otlp(&otlp) {
        panic!("invalid OTLP document: {err}\n{otlp}");
    }
}

fn edits() -> impl Strategy<Value = Vec<(u8, u64, usize, usize)>> {
    prop::collection::vec((0u8..6, any::<u64>(), 0usize..48, 0usize..64), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn mutated_xml_logs_are_rejected_or_render(which in 0usize..5, edits in edits()) {
        let mut xml = XML_LOGS[which].to_owned();
        for edit in edits {
            mutate(&mut xml, edit);
        }
        if let Ok(e) = export_from_xml(std::slice::from_ref(&xml)) {
            render_everything(&e);
        }
        // the log again with its ranks renumbered (0 → 10, 1 → 11): the
        // cluster renderings and several ranks
        let again = xml.replace("<task rank=\"", "<task rank=\"1");
        if let Ok(e) = export_from_xml(&[xml, again]) {
            render_everything(&e);
        }
    }

    #[test]
    fn mutated_trace_documents_are_rejected_or_valid(which in 0usize..2, edits in edits()) {
        let mut json = JSON_DOCS[which].to_owned();
        for edit in edits {
            mutate(&mut json, edit);
        }
        let _ = validate_chrome_trace(&json);
        let _ = validate_otlp(&json);
    }
}

/// The unmutated inputs load, validate and render, so the properties
/// above start from documents every reader accepts.
#[test]
fn the_unmutated_goldens_are_accepted() {
    for xml in XML_LOGS {
        let e = export_from_xml(&[xml.to_owned()]).expect("golden log parses");
        render_everything(&e);
    }
    validate_chrome_trace(JSON_DOCS[0]).expect("golden chrome trace is valid");
    validate_otlp(JSON_DOCS[1]).expect("golden OTLP document is valid");
}

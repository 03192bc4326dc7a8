//! OTLP-shaped trace backend (`resourceSpans` JSON), so the telemetry the
//! wrappers capture can feed standard OpenTelemetry collectors.
//!
//! The shape follows the OTLP/JSON trace encoding: one `resourceSpans`
//! entry per rank whose resource attributes identify it (`ipm.rank`,
//! `host.name`, and `ipm.command` when a profile is attached), one scope
//! (`ipm.trace`), and one span per trace record. As in the proto3 JSON
//! mapping, 64-bit integers — `intValue` attributes and the
//! `startTimeUnixNano`/`endTimeUnixNano` fields — are encoded as strings.
//! Timestamps are nanoseconds relative to the rank's clock-alignment
//! epoch (signed: records captured before the epoch legitimately go
//! negative). Span **links** are the OTLP analogue of the Chrome-trace
//! flow arrows: each `cudaLaunch` host span links to the kernel span that
//! carries the same correlation id. Compaction summaries carry their
//! aggregate as `count`/`total_us`/`min_us`/`max_us` attributes, exactly
//! like the Chrome `X` events.
//!
//! Everything is hand-rolled over [`crate::jsonw`] — no serde, no
//! OpenTelemetry SDK — and [`validate_otlp`] is the structural checker
//! mirroring [`super::validate_chrome_trace`].

use super::{ExportRank, ExportSource};
use crate::jsonw::{
    parse_json, push_escaped, push_f64, push_hex16, push_hex32, push_i64, push_u64, Json,
};
use crate::trace::{TraceKind, TraceRecord};
use ipm_gpu_sim::ProfKind;
use std::collections::{HashMap, HashSet};

/// Signed nanoseconds relative to the epoch, rounded to the nearest tick.
fn ns(t: f64, epoch: f64) -> i64 {
    ((t - epoch) * 1e9).round() as i64
}

/// An OTLP attribute list written straight into the output: `[` when
/// opened, `,` between entries, and `]` plus the enclosing object's
/// closing brace from [`Attrs::end`].
struct Attrs<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> Attrs<'o> {
    fn open(out: &'o mut String) -> Self {
        out.push('[');
        Attrs { out, empty: true }
    }

    /// The output, positioned for the value object of attribute `key`.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push_str("{\"key\":\"");
        push_escaped(self.out, key);
        self.out.push_str("\",\"value\":{");
        self.out
    }

    fn int(&mut self, key: &str, val: u64) {
        let out = self.key(key);
        out.push_str("\"intValue\":\"");
        push_u64(out, val);
        out.push_str("\"}}");
    }

    fn str(&mut self, key: &str, val: &str) {
        let out = self.key(key);
        out.push_str("\"stringValue\":\"");
        push_escaped(out, val);
        out.push_str("\"}}");
    }

    fn f64(&mut self, key: &str, val: f64) {
        let out = self.key(key);
        out.push_str("\"doubleValue\":");
        push_f64(out, val);
        out.push_str("}}");
    }

    /// Compaction aggregate attributes, mirroring the Chrome `X` event args.
    fn summary(&mut self, t: &TraceRecord) {
        if let Some(a) = &t.agg {
            self.int("count", a.count);
            self.f64("total_us", a.total * 1e6);
            self.f64("min_us", a.min * 1e6);
            self.f64("max_us", a.max * 1e6);
        }
    }

    /// Close the list, then the object holding it, with a span link to
    /// `(trace_id, span_id)` in between when given.
    fn end(self, link: Option<(u128, usize)>) {
        self.out.push(']');
        if let Some((trace_id, span_id)) = link {
            self.out.push_str(",\"links\":[{\"traceId\":\"");
            push_hex32(self.out, trace_id);
            self.out.push_str("\",\"spanId\":\"");
            push_hex16(self.out, span_id as u64);
            self.out.push_str("\"}]");
        }
        self.out.push('}');
    }
}

/// One rank's spans under construction, written straight into the output
/// with `,\n` between spans. Span ids count up from 1 in write order.
struct Spans<'o> {
    out: &'o mut String,
    trace_id: u128,
    n: usize,
}

impl Spans<'_> {
    /// Start the next span and return its attribute list; every span
    /// carries at least a stream or region attribute, so the list is never
    /// empty.
    fn open(&mut self, name: &str, kind: u32, start: i64, end: i64) -> Attrs<'_> {
        if self.n > 0 {
            self.out.push_str(",\n");
        }
        self.n += 1;
        let out = &mut *self.out;
        out.push_str("{\"traceId\":\"");
        push_hex32(out, self.trace_id);
        out.push_str("\",\"spanId\":\"");
        push_hex16(out, self.n as u64);
        out.push_str("\",\"name\":\"");
        push_escaped(out, name);
        out.push_str("\",\"kind\":");
        push_u64(out, u64::from(kind));
        out.push_str(",\"startTimeUnixNano\":\"");
        push_i64(out, start);
        out.push_str("\",\"endTimeUnixNano\":\"");
        push_i64(out, end);
        out.push_str("\",\"attributes\":");
        Attrs::open(out)
    }
}

/// About what one span line takes, for reserving the output up front: a
/// kernel span with its kernel name, or a launch span with its link, takes
/// some 370 bytes. A rendering that outgrows its reservation is copied
/// into a buffer twice the size, and on several threads each helper's
/// buffer that overflows is copied once more; at 320 bytes that made a
/// two-rank rendering of launch/kernel pairs slower on two threads than on
/// one.
pub(super) const SPAN_BYTES: usize = 400;

/// OTLP span kinds used here: host-side wrapped calls and idle intervals
/// are `INTERNAL`, device-side executions are `CONSUMER` (they consume the
/// launch the host span produced).
const KIND_INTERNAL: u32 = 1;
const KIND_CONSUMER: u32 = 5;

/// Write all of one rank's spans, device side first so host `cudaLaunch`
/// spans can link to the kernel span their correlation id resolves to.
fn rank_spans(out: &mut String, r: &ExportRank, trace_id: u128) {
    let mut spans = Spans {
        out,
        trace_id,
        n: 0,
    };

    // Device spans (profiler ground truth wins, as in the Chrome backend),
    // recording which span id each correlation id landed on.
    let mut corr_span: HashMap<u64, usize> = HashMap::new();
    if !r.prof.is_empty() {
        for p in &r.prof {
            let mut attrs = spans.open(
                &p.method,
                KIND_CONSUMER,
                ns(p.start, r.epoch),
                ns(p.start + p.gputime, r.epoch),
            );
            attrs.int("ipm.stream", p.stream.0 as u64);
            attrs.f64("gputime_us", p.gputime * 1e6);
            let linked = p.kind == ProfKind::Kernel && p.corr != 0;
            if linked {
                attrs.int("ipm.corr", p.corr);
            }
            attrs.end(None);
            if linked {
                corr_span.insert(p.corr, spans.n);
            }
        }
    } else {
        for t in r.records.iter().filter(|t| t.kind == TraceKind::KernelExec) {
            let mut attrs = spans.open(
                t.name,
                KIND_CONSUMER,
                ns(t.begin, r.epoch),
                ns(t.end, r.epoch),
            );
            attrs.int("ipm.stream", u64::from(t.stream.unwrap_or(0)));
            attrs.int("ipm.region", u64::from(t.region));
            if let Some(detail) = t.detail_name() {
                attrs.str("ipm.kernel", detail);
            }
            if t.corr != 0 {
                attrs.int("ipm.corr", t.corr);
            }
            attrs.summary(t);
            attrs.end(None);
            if t.corr != 0 {
                corr_span.insert(t.corr, spans.n);
            }
        }
    }

    // Host spans: wrapped calls + host-idle intervals.
    for t in r.records.iter().filter(|t| t.kind != TraceKind::KernelExec) {
        let link = if t.corr != 0 {
            corr_span.get(&t.corr).map(|&span_id| (trace_id, span_id))
        } else {
            None
        };
        let mut attrs = spans.open(
            t.name,
            KIND_INTERNAL,
            ns(t.begin, r.epoch),
            ns(t.end, r.epoch),
        );
        if t.bytes > 0 {
            attrs.int("ipm.bytes", t.bytes);
        }
        attrs.int("ipm.region", u64::from(t.region));
        attrs.summary(t);
        if link.is_some() {
            attrs.int("ipm.corr", t.corr);
        }
        attrs.end(link);
    }
    if spans.n > 0 {
        spans.out.push('\n');
    }
}

/// Render the source as OTLP/JSON: `{"resourceSpans":[...]}`, one entry
/// per rank, one span per trace record, one line per span — in one pass
/// over the borrowed records into one output buffer, on up to `threads`
/// threads (see [`super::render_ranks`]).
pub(crate) fn otlp_trace_json(src: &ExportSource, threads: usize) -> String {
    let ranks = &src.ranks;
    let mut out = super::trace_buffer(super::records(ranks) * SPAN_BYTES);
    out.push_str("{\"resourceSpans\":[\n");
    super::render_ranks(&mut out, ranks, SPAN_BYTES, threads, |out, i, r| {
        out.push_str("{\"resource\":{\"attributes\":");
        let mut attrs = Attrs::open(out);
        attrs.int("ipm.rank", r.rank as u64);
        attrs.str("host.name", &r.host);
        if let Some(p) = &r.profile {
            if !p.command.is_empty() {
                attrs.str("ipm.command", &p.command);
            }
        }
        attrs.end(None);
        out.push_str(
            ",\"scopeSpans\":[{\"scope\":{\"name\":\"ipm.trace\",\"version\":\"2.0\"},\"spans\":[\n",
        );
        rank_spans(out, r, r.rank as u128 + 1);
        out.push_str("]}]}");
        if i + 1 < ranks.len() {
            out.push(',');
        }
        out.push('\n');
    });
    out.push_str("]}\n");
    out
}

/// Structural facts about a validated OTLP document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OtlpStats {
    /// `resourceSpans` entries (ranks).
    pub resources: usize,
    /// Total spans across all scopes.
    pub spans: usize,
    /// Span links, all resolved.
    pub links: usize,
    /// Spans carrying a compaction aggregate (`count` attribute).
    pub summary_spans: usize,
}

fn attr_map(node: &Json) -> Result<HashMap<&str, &Json>, String> {
    let mut map = HashMap::new();
    if let Some(attrs) = node.get("attributes") {
        let attrs = attrs.as_arr().ok_or("attributes is not an array")?;
        for a in attrs {
            let key = a
                .get("key")
                .and_then(Json::as_str)
                .ok_or("attribute without key")?;
            let value = a.get("value").ok_or("attribute without value")?;
            map.insert(key, value);
        }
    }
    Ok(map)
}

fn span_time(span: &Json, field: &str, i: usize) -> Result<i64, String> {
    span.get(field)
        .and_then(Json::as_str)
        .ok_or(format!("span {i}: missing {field}"))?
        .parse::<i64>()
        .map_err(|_| format!("span {i}: {field} is not an integer nanosecond string"))
}

fn hex_id(span: &Json, field: &str, len: usize, i: usize) -> Result<String, String> {
    let id = span
        .get(field)
        .and_then(Json::as_str)
        .ok_or(format!("span {i}: missing {field}"))?;
    if id.len() != len || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("span {i}: {field} '{id}' is not {len} hex digits"));
    }
    if id.bytes().all(|b| b == b'0') {
        return Err(format!("span {i}: {field} is all-zero"));
    }
    Ok(id.to_owned())
}

/// Validate OTLP/JSON structurally: the document parses, `resourceSpans`
/// is present, every resource identifies its rank (`ipm.rank` int attr +
/// `host.name` string attr), every span carries well-formed ids
/// (non-zero 32/16 hex digits, `spanId` unique per trace), a name, and
/// integer nano timestamps with `start <= end`, summary spans carry the
/// full aggregate, and every span link resolves to an existing span.
pub fn validate_otlp(text: &str) -> Result<OtlpStats, String> {
    let doc = parse_json(text)?;
    let resources = doc
        .get("resourceSpans")
        .and_then(Json::as_arr)
        .ok_or("missing resourceSpans array")?;

    let mut stats = OtlpStats {
        resources: resources.len(),
        ..OtlpStats::default()
    };
    let mut ids: HashSet<(String, String)> = HashSet::new();
    let mut links: Vec<(String, String)> = Vec::new();

    for (ri, rs) in resources.iter().enumerate() {
        let resource = rs
            .get("resource")
            .ok_or(format!("resourceSpans {ri}: missing resource"))?;
        let rattrs = attr_map(resource)?;
        let rank = rattrs
            .get("ipm.rank")
            .and_then(|v| v.get("intValue"))
            .and_then(Json::as_str)
            .ok_or(format!(
                "resourceSpans {ri}: missing ipm.rank int attribute"
            ))?;
        rank.parse::<u64>()
            .map_err(|_| format!("resourceSpans {ri}: ipm.rank '{rank}' is not an integer"))?;
        rattrs
            .get("host.name")
            .and_then(|v| v.get("stringValue"))
            .and_then(Json::as_str)
            .ok_or(format!(
                "resourceSpans {ri}: missing host.name string attribute"
            ))?;

        let scopes = rs
            .get("scopeSpans")
            .and_then(Json::as_arr)
            .ok_or(format!("resourceSpans {ri}: missing scopeSpans array"))?;
        for scope in scopes {
            scope
                .get("scope")
                .and_then(|s| s.get("name"))
                .and_then(Json::as_str)
                .ok_or(format!("resourceSpans {ri}: scope without name"))?;
            let spans = scope
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or(format!("resourceSpans {ri}: missing spans array"))?;
            for (i, span) in spans.iter().enumerate() {
                let trace_id = hex_id(span, "traceId", 32, i)?;
                let span_id = hex_id(span, "spanId", 16, i)?;
                if !ids.insert((trace_id.clone(), span_id.clone())) {
                    return Err(format!(
                        "span {i}: duplicate spanId {span_id} in trace {trace_id}"
                    ));
                }
                let name = span
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("span {i}: missing name"))?;
                if name.is_empty() {
                    return Err(format!("span {i}: empty name"));
                }
                let start = span_time(span, "startTimeUnixNano", i)?;
                let end = span_time(span, "endTimeUnixNano", i)?;
                if start > end {
                    return Err(format!("span {i} '{name}': start {start} after end {end}"));
                }
                let sattrs = attr_map(span)?;
                if sattrs.contains_key("count") {
                    for key in ["total_us", "min_us", "max_us"] {
                        if !sattrs.contains_key(key) {
                            return Err(format!(
                                "span {i} '{name}': summary span missing {key} attribute"
                            ));
                        }
                    }
                    stats.summary_spans += 1;
                }
                if let Some(span_links) = span.get("links") {
                    let span_links = span_links
                        .as_arr()
                        .ok_or(format!("span {i}: links is not an array"))?;
                    for l in span_links {
                        let lt = l
                            .get("traceId")
                            .and_then(Json::as_str)
                            .ok_or(format!("span {i}: link without traceId"))?;
                        let ls = l
                            .get("spanId")
                            .and_then(Json::as_str)
                            .ok_or(format!("span {i}: link without spanId"))?;
                        links.push((lt.to_owned(), ls.to_owned()));
                    }
                }
                stats.spans += 1;
            }
        }
    }

    for (lt, ls) in &links {
        if !ids.contains(&(lt.clone(), ls.clone())) {
            return Err(format!("link to {lt}/{ls} does not resolve to any span"));
        }
    }
    stats.links = links.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::TraceAgg;
    use crate::export::{Export, Otlp};

    fn rec(kind: TraceKind, name: &'static str, begin: f64, end: f64, corr: u64) -> TraceRecord {
        TraceRecord {
            kind,
            name,
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: if kind == TraceKind::KernelExec {
                Some(0)
            } else {
                None
            },
            corr,
            agg: None,
        }
    }

    fn export(rank: ExportRank) -> String {
        Export::new().with_trace_rank(rank).to(Otlp).unwrap()
    }

    #[test]
    fn launch_and_kernel_produce_a_resolved_link() {
        let rank = ExportRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records: vec![
                rec(TraceKind::Call, "cudaLaunch", 1.0, 1.1, 42),
                rec(TraceKind::KernelExec, "@CUDA_EXEC_STRM00", 1.2, 2.0, 42),
            ],
            ..ExportRank::default()
        };
        let json = export(rank);
        let stats = validate_otlp(&json).expect("valid OTLP");
        assert_eq!(stats.resources, 1);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.links, 1);
    }

    #[test]
    fn full_export_of_twenty_thousand_records_validates() {
        let json = export(crate::export::chrome::tests::launch_storm(10_000));
        let stats = validate_otlp(&json).expect("full export valid");
        assert_eq!(stats.spans, 20_000);
        assert_eq!(stats.links, 10_000);
    }

    #[test]
    fn pre_epoch_records_get_negative_nanos_and_still_validate() {
        let rank = ExportRank {
            rank: 0,
            host: String::new(),
            epoch: 10.0,
            records: vec![rec(TraceKind::Call, "cudaMalloc", 9.5, 9.75, 0)],
            ..ExportRank::default()
        };
        let json = export(rank);
        validate_otlp(&json).expect("valid OTLP");
        assert!(
            json.contains("\"startTimeUnixNano\":\"-500000000\""),
            "{json}"
        );
    }

    #[test]
    fn summary_spans_carry_the_full_aggregate() {
        let mut r = rec(TraceKind::Call, "cudaLaunch", 1.0, 3.0, 0);
        r.agg = Some(Box::new(TraceAgg {
            count: 9,
            total: 1.5,
            min: 0.1,
            max: 0.3,
            exemplar: (1.2, 1.5),
        }));
        let rank = ExportRank {
            rank: 2,
            host: "dirac02".to_owned(),
            epoch: 0.0,
            records: vec![r],
            ..ExportRank::default()
        };
        let json = export(rank);
        let stats = validate_otlp(&json).expect("valid OTLP");
        assert_eq!(stats.summary_spans, 1);
        assert!(json.contains("\"intValue\":\"9\""), "{json}");
    }

    #[test]
    fn names_with_escapes_survive() {
        let rank = ExportRank {
            rank: 0,
            host: "h\"x\\y".to_owned(),
            epoch: 0.0,
            records: vec![rec(TraceKind::Call, "weird\"\\\nname", 0.0, 1.0, 0)],
            ..ExportRank::default()
        };
        let json = export(rank);
        validate_otlp(&json).expect("valid OTLP");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_otlp("not json").is_err());
        assert!(validate_otlp("{}").unwrap_err().contains("resourceSpans"));
        // dangling link
        let bad = r#"{"resourceSpans":[{"resource":{"attributes":[
            {"key":"ipm.rank","value":{"intValue":"0"}},
            {"key":"host.name","value":{"stringValue":"h"}}]},
            "scopeSpans":[{"scope":{"name":"ipm.trace"},"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000001",
             "name":"x","kind":1,"startTimeUnixNano":"0","endTimeUnixNano":"1",
             "links":[{"traceId":"00000000000000000000000000000001","spanId":"00000000000000ff"}]}
            ]}]}]}"#;
        assert!(validate_otlp(bad).unwrap_err().contains("does not resolve"));
        // start after end
        let bad = r#"{"resourceSpans":[{"resource":{"attributes":[
            {"key":"ipm.rank","value":{"intValue":"0"}},
            {"key":"host.name","value":{"stringValue":"h"}}]},
            "scopeSpans":[{"scope":{"name":"ipm.trace"},"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000001",
             "name":"x","kind":1,"startTimeUnixNano":"5","endTimeUnixNano":"1"}
            ]}]}]}"#;
        assert!(validate_otlp(bad).unwrap_err().contains("after end"));
    }
}

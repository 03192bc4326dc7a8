//! The XML profiling log.
//!
//! Besides the banner, IPM "writes a more detailed profiling log in XML
//! format which includes the full details of the hash table" (paper §II).
//! This module owns that format: a small, self-contained dialect that
//! round-trips a [`RankProfile`] and its trace exactly. The `Xml` backend
//! of [`crate::export`] writes it, one `<task>` per rank, and
//! [`crate::parse::export_from_xml`] (what `ipm_parse` consumes) reads it
//! back in one pass, one rank per `<task>`.
//!
//! ```xml
//! <ipm version="2.0">
//!   <task rank="0" nranks="16" host="dirac18" wallclock="45.78">
//!     <command>pmemd.cuda.MPI</command>
//!     <regions><region id="0">&lt;program&gt;</region></regions>
//!     <hash>
//!       <entry name="cudaLaunch" bytes="0" region="0"
//!              count="1927994" total="9.48" min="..." max="..."/>
//!     </hash>
//!   </task>
//! </ipm>
//! ```
//!
//! The reader is line-based: every element sits on a line of its own, so
//! the writer escapes a newline inside a name or command as `&#10;`.

use crate::compact::TraceAgg;
use crate::export::ExportRank;
use crate::jsonw::{push_f64, push_non_finite, push_u64};
use crate::profile::{MonitorInfo, ProfileEntry, RankProfile};
use crate::trace::{TraceKind, TraceRecord};
use ipm_interpose::{CallHandle, CallId};
use ipm_sim_core::RunningStats;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// XML parsing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlError {
    /// Expected element or attribute missing.
    Missing(&'static str),
    /// A numeric attribute failed to parse.
    BadNumber(String),
    /// Structurally malformed input.
    Malformed(String),
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::Missing(what) => write!(f, "missing {what}"),
            XmlError::BadNumber(s) => write!(f, "bad number: {s}"),
            XmlError::Malformed(s) => write!(f, "malformed XML: {s}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// A string escaped for an XML attribute value or text node, formatted
/// straight into the output: runs without `&<>"` or a newline are copied
/// from the borrowed input, so nothing is allocated.
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                b'\n' => "&#10;",
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            f.write_str(esc)?;
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

/// Append `s` escaped as by [`Escaped`]; a string without `&<>"` or a
/// newline (almost every name) is copied whole.
fn push_escaped(out: &mut String, s: &str) {
    if s.bytes()
        .any(|b| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\n'))
    {
        let _ = write!(out, "{}", Escaped(s));
    } else {
        out.push_str(s);
    }
}

/// Append ` name="<v>"` for an integer attribute.
fn push_int_attr(out: &mut String, name: &str, v: u64) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_u64(out, v);
    out.push('"');
}

/// Append ` name="<v>"` for an `f64` attribute, as `{}` writes it. Trace
/// times are finite, but an empty hash entry's `min` and `max` are the
/// infinities, and a loaded log's statistics and wallclock are not
/// bounded.
fn push_f64_attr(out: &mut String, name: &str, v: f64) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    if v.is_finite() {
        push_f64(out, v);
    } else {
        push_non_finite(out, v);
    }
    out.push('"');
}

/// Append ` name="<s>"`, escaped.
fn push_str_attr(out: &mut String, name: &str, s: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_escaped(out, s);
    out.push('"');
}

/// The entities [`Escaped`] writes, and the characters they stand for.
const ENTITIES: [(&str, char); 5] = [
    ("&amp;", '&'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&#10;", '\n'),
];

/// Inverse of [`Escaped`], in one scan; borrows values that hold no
/// entity. An `&` that starts no known entity stays literal.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let (len, c) = ENTITIES
            .iter()
            .find(|(entity, _)| rest.starts_with(entity))
            .map_or((1, '&'), |&(entity, c)| (entity.len(), c));
        out.push(c);
        rest = &rest[len..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// About what one `<event/>` line takes, for reserving the output up front.
pub(crate) const EVENT_BYTES: usize = 160;

/// The fewest bytes one `<event/>` line [`write_xml`] writes takes (an
/// empty name and one-digit numbers, indented): a log of `n` bytes holds
/// at most `n / MIN_EVENT_BYTES` records.
pub(crate) const MIN_EVENT_BYTES: usize = 80;

/// Append a profile plus its event trace to `out`: the trace's records are
/// embedded as `<event/>` lines in a `<trace>` section (with the rank's
/// clock-alignment epoch on the `<trace>` element, so multi-rank exports
/// line up their lanes), and a single XML log carries everything
/// `ipm_parse trace` needs. This is the only writer of the log; the `Xml`
/// backend of [`crate::export`] renders every rank through it into one
/// buffer.
pub(crate) fn write_xml(out: &mut String, p: &RankProfile, trace: &[TraceRecord], epoch: f64) {
    out.push_str("<ipm version=\"2.0\">\n");
    out.push_str("  <task");
    push_int_attr(out, "rank", p.rank as u64);
    push_int_attr(out, "nranks", p.nranks as u64);
    push_str_attr(out, "host", &p.host);
    push_f64_attr(out, "wallclock", p.wallclock);
    push_int_attr(out, "dropped", p.dropped_events);
    out.push_str(">\n");
    let _ = writeln!(out, "    <command>{}</command>", Escaped(&p.command));
    let m = &p.monitor;
    let _ = writeln!(
        out,
        "    <monitor self_wall_ns=\"{}\" emitted=\"{}\" captured=\"{}\" dropped=\"{}\" compacted=\"{}\" ring_hwm_bytes=\"{}\"/>",
        m.self_wall_ns, m.trace_emitted, m.trace_captured, m.trace_dropped, m.trace_compacted, m.ring_hwm_bytes,
    );
    out.push_str("    <regions>\n");
    for (i, r) in p.regions.iter().enumerate() {
        let _ = writeln!(out, "      <region id=\"{}\">{}</region>", i, Escaped(r));
    }
    out.push_str("    </regions>\n");
    if !trace.is_empty() {
        out.push_str("    <trace");
        if epoch != 0.0 {
            push_f64_attr(out, "epoch", epoch);
        }
        out.push_str(">\n");
        for t in trace {
            out.push_str("      <event kind=\"");
            out.push(t.kind.tag());
            out.push('"');
            push_str_attr(out, "name", t.name);
            if let Some(d) = t.detail_name() {
                push_str_attr(out, "detail", d);
            }
            push_f64_attr(out, "begin", t.begin);
            push_f64_attr(out, "end", t.end);
            push_int_attr(out, "bytes", t.bytes);
            push_int_attr(out, "region", u64::from(t.region));
            if let Some(s) = t.stream {
                push_int_attr(out, "stream", u64::from(s));
            }
            push_int_attr(out, "corr", t.corr);
            if let Some(a) = &t.agg {
                push_int_attr(out, "count", a.count);
                push_f64_attr(out, "total", a.total);
                push_f64_attr(out, "min", a.min);
                push_f64_attr(out, "max", a.max);
                push_f64_attr(out, "ex_begin", a.exemplar.0);
                push_f64_attr(out, "ex_end", a.exemplar.1);
            }
            out.push_str("/>\n");
        }
        out.push_str("    </trace>\n");
    }
    out.push_str("    <hash>\n");
    for e in &p.entries {
        out.push_str("      <entry");
        push_str_attr(out, "name", &e.name);
        if let Some(d) = &e.detail {
            push_str_attr(out, "detail", d);
        }
        push_int_attr(out, "bytes", e.bytes);
        push_int_attr(out, "region", u64::from(e.region));
        push_int_attr(out, "count", e.stats.count);
        push_f64_attr(out, "total", e.stats.total);
        push_f64_attr(out, "min", e.stats.min);
        push_f64_attr(out, "max", e.stats.max);
        out.push_str("/>\n");
    }
    out.push_str("    </hash>\n  </task>\n</ipm>\n");
}

/// The attributes of one start tag such as `<task rank="0" host="x">`,
/// split in one pass into `(name, raw value)` pairs borrowed from the tag.
/// Lookups compare whole names, so `begin` never matches inside
/// `ex_begin`, nor inside another attribute's value. The pair buffer is
/// reused from one tag to the next.
#[derive(Default)]
struct Attrs<'a>(Vec<(&'a str, &'a str)>);

/// The largest magnitude a parsed trace time may have, in seconds (some
/// 31,700 years): far past any run, and small enough that every
/// difference of two times stays finite when scaled to ns.
const MAX_TIME: f64 = 1e12;

impl<'a> Attrs<'a> {
    /// Split `tag` (leading whitespace and the `<element` name skipped),
    /// replacing the previous tag's attributes.
    fn split(&mut self, tag: &'a str) -> &Self {
        self.0.clear();
        let tag = tag.trim_start();
        let Some(start) = tag.find(char::is_whitespace) else {
            return self;
        };
        let mut rest = &tag[start..];
        while let Some(eq) = rest.find('=') {
            let Some(value) = rest[eq + 1..].strip_prefix('"') else {
                break;
            };
            let Some(close) = value.find('"') else {
                break;
            };
            self.0.push((rest[..eq].trim_start(), &value[..close]));
            rest = &value[close + 1..];
        }
        self
    }

    /// The raw (still escaped) value of attribute `name`.
    fn raw(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }

    /// The unescaped value of attribute `name`.
    fn text(&self, name: &str) -> Option<Cow<'a, str>> {
        self.raw(name).map(unescape)
    }

    fn num<T: FromStr>(&self, name: &'static str) -> Result<T, XmlError> {
        num(self.raw(name), name)
    }

    fn opt_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, XmlError> {
        opt_num(self.raw(name))
    }

    fn time(&self, name: &'static str) -> Result<f64, XmlError> {
        time(self.raw(name), name)
    }

    fn opt_time(&self, name: &str) -> Result<Option<f64>, XmlError> {
        opt_time(self.raw(name))
    }
}

/// The numeric value of attribute `name`, whose raw value is `raw`.
fn num<T: FromStr>(raw: Option<&str>, name: &'static str) -> Result<T, XmlError> {
    opt_num(raw)?.ok_or(XmlError::Missing(name))
}

/// A numeric attribute that may legitimately be absent (fields added after
/// logs in the wild were written): absent is `None`, present but
/// unparseable is still an error.
fn opt_num<T: FromStr>(raw: Option<&str>) -> Result<Option<T>, XmlError> {
    raw.map(|raw| raw.parse().map_err(|_| XmlError::BadNumber(raw.to_owned())))
        .transpose()
}

/// A time or duration attribute, in seconds, of magnitude at most
/// [`MAX_TIME`]: trace times and aggregates are sorted, subtracted and
/// scaled to µs or ns before they are rendered as numbers, so `NaN`,
/// infinities and values whose scaled differences overflow are bad
/// numbers.
fn time(raw: Option<&str>, name: &'static str) -> Result<f64, XmlError> {
    opt_time(raw)?.ok_or(XmlError::Missing(name))
}

/// [`time`] for an attribute that may be absent.
fn opt_time(raw: Option<&str>) -> Result<Option<f64>, XmlError> {
    match opt_num::<f64>(raw)? {
        Some(v) if v.is_nan() || v.abs() > MAX_TIME => {
            Err(XmlError::BadNumber(raw.unwrap_or_default().to_owned()))
        }
        v => Ok(v),
    }
}

/// The raw (still escaped) values of one `<event/>` tag, one slot per
/// attribute [`write_xml`] may write; a slot is `None` where the tag lacks
/// the attribute. Both ways of reading a tag fill these slots, and
/// [`event`] checks them, so they reject and accept the same tags.
#[derive(Debug, Default, PartialEq)]
struct EventAttrs<'a> {
    kind: Option<&'a str>,
    name: Option<&'a str>,
    detail: Option<&'a str>,
    begin: Option<&'a str>,
    end: Option<&'a str>,
    bytes: Option<&'a str>,
    region: Option<&'a str>,
    stream: Option<&'a str>,
    corr: Option<&'a str>,
    count: Option<&'a str>,
    total: Option<&'a str>,
    min: Option<&'a str>,
    max: Option<&'a str>,
    ex_begin: Option<&'a str>,
    ex_end: Option<&'a str>,
}

impl<'a> EventAttrs<'a> {
    /// Every slot with its attribute's name, in the order [`write_xml`]
    /// writes them.
    fn slots(&mut self) -> [(&'static str, &mut Option<&'a str>); 15] {
        [
            ("kind", &mut self.kind),
            ("name", &mut self.name),
            ("detail", &mut self.detail),
            ("begin", &mut self.begin),
            ("end", &mut self.end),
            ("bytes", &mut self.bytes),
            ("region", &mut self.region),
            ("stream", &mut self.stream),
            ("corr", &mut self.corr),
            ("count", &mut self.count),
            ("total", &mut self.total),
            ("min", &mut self.min),
            ("max", &mut self.max),
            ("ex_begin", &mut self.ex_begin),
            ("ex_end", &mut self.ex_end),
        ]
    }

    /// Read an `<event/>` line as [`write_xml`] writes it, in one scan:
    /// `<event`, then ` name="value"` for some of the attributes in the
    /// writer's order, then `/>`. Any other line (attributes reordered,
    /// other spacing, an unterminated value, trailing text) gives `None`;
    /// [`Attrs::split`] reads it instead. On a line this accepts, the split
    /// finds the same pairs, so both ways give the same slots.
    fn writer_order(line: &'a str) -> Option<Self> {
        let b = line.as_bytes();
        if !b.starts_with(b"<event") {
            return None;
        }
        let mut at = "<event".len();
        let mut e = Self::default();
        for (name, slot) in e.slots() {
            let eq = at + 1 + name.len();
            if b.get(at) != Some(&b' ')
                || b.get(at + 1..eq) != Some(name.as_bytes())
                || b.get(eq..eq + 2) != Some(b"=\"")
            {
                continue;
            }
            let start = eq + 2;
            let len = b[start..].iter().position(|&c| c == b'"')?;
            *slot = Some(&line[start..start + len]);
            at = start + len + 1;
        }
        (&b[at..] == b"/>").then_some(e)
    }

    /// The slots of a tag split by [`Attrs::split`]: each attribute's
    /// first value.
    fn from_attrs(a: &Attrs<'a>) -> Self {
        let mut e = Self::default();
        for (name, slot) in e.slots() {
            *slot = a.raw(name);
        }
        e
    }
}

/// The element a trimmed log line opens or closes (`task` for
/// `<task rank=..>`, `/task` for `</task>`), or `None` for a line that is
/// not markup.
fn element(line: &str) -> Option<&str> {
    let tag = line.strip_prefix('<')?;
    let end = tag.find(|c: char| c.is_whitespace() || c == '>');
    Some(&tag[..end.unwrap_or(tag.len())])
}

/// A `<task>` being read: its start tag's fields, and what its elements
/// added since.
struct OpenTask {
    profile: RankProfile,
    command: Option<String>,
    epoch: f64,
    records: Vec<TraceRecord>,
}

/// Read a log in one pass over its lines. Each `<task>` becomes one
/// [`ExportRank`] with its profile, its `<trace>` records and the trace's
/// clock-alignment epoch (0 when it records none), so the several ranks
/// one `Xml` export writes load as several ranks. Markup outside a
/// `<task>`, other than the `<ipm>` wrapper, is malformed, as is a log
/// without a `<task>` or with one left open. The first `<task>`'s records
/// go into `records`, an empty buffer the caller may have reserved.
pub(crate) fn read_log(
    xml: &str,
    mut records: Vec<TraceRecord>,
) -> Result<Vec<ExportRank>, XmlError> {
    let mut ranks = Vec::new();
    let mut attrs = Attrs::default();
    let mut names = Names::default();
    let mut open: Option<OpenTask> = None;
    for line in xml.lines().map(str::trim) {
        let Some(element) = element(line) else {
            continue;
        };
        let Some(task) = open.as_mut() else {
            match element {
                "task" => {
                    open = Some(OpenTask {
                        profile: task_start(attrs.split(line))?,
                        command: None,
                        epoch: 0.0,
                        records: std::mem::take(&mut records),
                    })
                }
                "ipm" | "/ipm" => {}
                _ => return Err(XmlError::Malformed(format!("{line} outside a <task>"))),
            }
            continue;
        };
        match element {
            "task" => return Err(XmlError::Malformed(format!("{line} inside a <task>"))),
            "/task" => {
                let OpenTask {
                    mut profile,
                    command,
                    epoch,
                    records,
                } = open.take().expect("a <task> is open");
                profile.command = command.ok_or(XmlError::Missing("<command>"))?;
                if profile.regions.is_empty() {
                    return Err(XmlError::Missing("<regions>"));
                }
                ranks.push(ExportRank {
                    epoch,
                    records,
                    ..ExportRank::from_profile(profile)
                });
            }
            "command" => {
                let inner = line
                    .strip_prefix("<command>")
                    .and_then(|s| s.strip_suffix("</command>"))
                    .ok_or_else(|| XmlError::Malformed(line.to_owned()))?;
                task.command = Some(unescape(inner).into_owned());
            }
            "monitor" => task.profile.monitor = monitor(attrs.split(line))?,
            "region" => {
                let inner = line
                    .split_once('>')
                    .and_then(|(_, rest)| rest.strip_suffix("</region>"))
                    .ok_or_else(|| XmlError::Malformed(line.to_owned()))?;
                task.profile.regions.push(unescape(inner).into_owned());
            }
            "entry" => task.profile.entries.push(entry(attrs.split(line))?),
            "trace" => task.epoch = attrs.split(line).opt_time("epoch")?.unwrap_or(0.0),
            "event" => {
                let e = EventAttrs::writer_order(line)
                    .unwrap_or_else(|| EventAttrs::from_attrs(attrs.split(line)));
                task.records.push(event(&e, &mut names)?)
            }
            // the section tags `<regions>`, `<hash>`, `</trace>`, …
            _ => {}
        }
    }
    if open.is_some() {
        return Err(XmlError::Malformed("a <task> without </task>".to_owned()));
    }
    if ranks.is_empty() {
        return Err(XmlError::Missing("<task>"));
    }
    Ok(ranks)
}

/// The profile a `<task>` start tag describes, before its elements fill
/// in the command, monitor, regions and entries.
fn task_start(task: &Attrs) -> Result<RankProfile, XmlError> {
    Ok(RankProfile {
        rank: task.num("rank")?,
        nranks: task.num("nranks")?,
        wallclock: task.time("wallclock")?,
        dropped_events: task.num("dropped")?,
        host: task
            .text("host")
            .ok_or(XmlError::Missing("host"))?
            .into_owned(),
        command: String::new(),
        // a log from a monitor older than the element has none
        monitor: MonitorInfo::default(),
        regions: Vec::new(),
        entries: Vec::new(),
    })
}

fn monitor(m: &Attrs) -> Result<MonitorInfo, XmlError> {
    Ok(MonitorInfo {
        self_wall_ns: m.num("self_wall_ns")?,
        trace_emitted: m.num("emitted")?,
        trace_captured: m.num("captured")?,
        trace_dropped: m.num("dropped")?,
        // absent in pre-compaction logs
        trace_compacted: m.opt_num("compacted")?.unwrap_or(0),
        ring_hwm_bytes: m.num("ring_hwm_bytes")?,
    })
}

fn entry(e: &Attrs) -> Result<ProfileEntry, XmlError> {
    let stats = RunningStats {
        count: e.num("count")?,
        // min and max of an empty entry are the infinities
        total: e.time("total")?,
        min: e.num("min")?,
        max: e.num("max")?,
    };
    Ok(ProfileEntry {
        name: e
            .text("name")
            .ok_or(XmlError::Missing("name"))?
            .into_owned(),
        detail: e.text("detail").map(Cow::into_owned),
        bytes: e.num("bytes")?,
        region: e.num("region")?,
        stats,
    })
}

/// A log's event names, each resolved once: raw (still escaped) value →
/// its interned id and the process-lifetime string records carry. Names
/// repeat across a log's events, so almost every lookup hits here and
/// skips both the unescape and the shared lock of the global name table,
/// which several logs read on several threads would contend on. A hash
/// map, not a scan, keeps a log of many distinct names linear.
#[derive(Default)]
struct Names<'a>(HashMap<&'a str, (CallId, &'static str)>);

impl<'a> Names<'a> {
    /// The interned id and name an escaped value stands for: each distinct
    /// one is stored once (and kept for the rest of the process, like every
    /// interned name).
    fn get(&mut self, raw: &'a str) -> (CallId, &'static str) {
        *self.0.entry(raw).or_insert_with(|| {
            let h = CallHandle::of(&unescape(raw));
            (h.id, h.name())
        })
    }
}

fn event<'a>(e: &EventAttrs<'a>, names: &mut Names<'a>) -> Result<TraceRecord, XmlError> {
    let kind_raw = unescape(e.kind.ok_or(XmlError::Missing("kind"))?);
    let kind = kind_raw
        .chars()
        .next()
        .and_then(TraceKind::from_tag)
        .ok_or_else(|| XmlError::Malformed(format!("unknown event kind '{kind_raw}'")))?;
    let (begin, end) = (time(e.begin, "begin")?, time(e.end, "end")?);
    if end < begin {
        return Err(XmlError::Malformed(format!(
            "event ends at {end} before it begins at {begin}"
        )));
    }
    Ok(TraceRecord {
        kind,
        name: names.get(e.name.ok_or(XmlError::Missing("name"))?).1,
        detail: e.detail.map(|d| names.get(d).0),
        begin,
        end,
        bytes: num(e.bytes, "bytes")?,
        region: num(e.region, "region")?,
        stream: opt_num(e.stream)?,
        corr: num(e.corr, "corr")?,
        // summary records carry the aggregate attributes, keyed on
        // `count`; raw records (and pre-compaction logs) omit them
        agg: match e.count {
            Some(_) => Some(Box::new(TraceAgg {
                count: num(e.count, "count")?,
                total: time(e.total, "total")?,
                min: time(e.min, "min")?,
                max: time(e.max, "max")?,
                exemplar: (time(e.ex_begin, "ex_begin")?, time(e.ex_end, "ex_end")?),
            })),
            None => None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_trace(p: &RankProfile, trace: &[TraceRecord], epoch: f64) -> String {
        let mut out = String::new();
        write_xml(&mut out, p, trace, epoch);
        out
    }

    fn to_xml(p: &RankProfile) -> String {
        with_trace(p, &[], 0.0)
    }

    /// The one rank a log loads as.
    fn load(xml: &str) -> Result<ExportRank, XmlError> {
        let mut ranks = read_log(xml, Vec::new())?;
        assert_eq!(ranks.len(), 1, "{xml}");
        Ok(ranks.remove(0))
    }

    fn load_profile(xml: &str) -> Result<RankProfile, XmlError> {
        Ok(load(xml)?.profile.expect("a loaded rank has a profile"))
    }

    fn load_records(xml: &str) -> Result<Vec<TraceRecord>, XmlError> {
        Ok(load(xml)?.records)
    }

    fn sample() -> RankProfile {
        let mut stats = RunningStats::new();
        stats.record(1.5);
        stats.record(0.5);
        RankProfile {
            rank: 3,
            nranks: 16,
            host: "dirac18".to_owned(),
            command: "pmemd.cuda.MPI -O -i mdin".to_owned(),
            wallclock: 45.78,
            regions: vec!["<program>".to_owned(), "pme".to_owned()],
            entries: vec![
                ProfileEntry {
                    name: "cudaMemcpy(D2H)".to_owned(),
                    detail: None,
                    bytes: 800_000,
                    region: 1,
                    stats,
                },
                ProfileEntry {
                    name: "@CUDA_EXEC_STRM00".to_owned(),
                    detail: Some("CalculatePMEOrthogonalNonbondForces".to_owned()),
                    bytes: 0,
                    region: 0,
                    stats,
                },
            ],
            dropped_events: 7,
            monitor: MonitorInfo {
                self_wall_ns: 12_345,
                trace_emitted: 100,
                trace_captured: 90,
                trace_dropped: 2,
                trace_compacted: 8,
                ring_hwm_bytes: 4096,
            },
        }
    }

    /// A summary record, as the compactor writes one.
    fn summary() -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name: "cudaLaunch",
            detail: None,
            begin: 1.0,
            end: 4.75,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: Some(Box::new(TraceAgg {
                count: 3,
                total: 2.5,
                min: 0.5,
                max: 1.0,
                exemplar: (2.0, 2.125),
            })),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let p = sample();
        let xml = to_xml(&p);
        let back = load_profile(&xml).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn xml_contains_full_hash_details() {
        let xml = to_xml(&sample());
        assert!(xml.contains("name=\"cudaMemcpy(D2H)\""));
        assert!(xml.contains("bytes=\"800000\""));
        assert!(xml.contains("detail=\"CalculatePMEOrthogonalNonbondForces\""));
        assert!(xml.contains("count=\"2\""));
    }

    #[test]
    fn special_characters_are_escaped() {
        let mut p = sample();
        p.command = "./app <input> & \"stuff\"".to_owned();
        let xml = to_xml(&p);
        assert!(!xml.contains("<input>"));
        let back = load_profile(&xml).unwrap();
        assert_eq!(back.command, "./app <input> & \"stuff\"");
        assert_eq!(back.regions[0], "<program>");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(load_profile("").unwrap_err(), XmlError::Missing("<task>"));
        let bad = "<task rank=\"x\" nranks=\"1\" host=\"h\" wallclock=\"1\" dropped=\"0\">";
        assert!(matches!(
            load_profile(bad).unwrap_err(),
            XmlError::BadNumber(_)
        ));
        for (element, missing) in [("<command>", "<command>"), ("<region ", "<regions>")] {
            let without: String = to_xml(&sample())
                .lines()
                .filter(|l| !l.contains(element))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(
                load_profile(&without).unwrap_err(),
                XmlError::Missing(missing)
            );
        }
    }

    #[test]
    fn markup_outside_a_task_is_malformed() {
        let xml = to_xml(&sample());
        let entry = xml.lines().find(|l| l.contains("<entry ")).unwrap();
        for bad in [
            // an element after the task closed
            format!("{xml}{entry}\n"),
            // a task left open, or opened inside another
            xml.replace("  </task>\n", ""),
            xml.replace("  </task>\n", "").replace("</ipm>\n", "") + &xml,
            // a close without an open task
            format!("</task>\n{xml}"),
        ] {
            assert!(
                matches!(
                    read_log(&bad, Vec::new()).unwrap_err(),
                    XmlError::Malformed(_)
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn newlines_survive_the_log() {
        let mut p = sample();
        p.command = "mpirun -np 2\n./md".to_owned();
        p.host = "dirac\n18".to_owned();
        p.regions[1] = "pme\n".to_owned();
        p.entries[1].detail = Some("\nk".to_owned());
        let xml = to_xml(&p);
        assert!(
            xml.contains("<command>mpirun -np 2&#10;./md</command>"),
            "{xml}"
        );
        assert_eq!(load_profile(&xml).unwrap(), p);
        // a literal `&#10;` stays literal
        p.command = "a&#10;b".to_owned();
        assert_eq!(load_profile(&to_xml(&p)).unwrap(), p);
    }

    #[test]
    fn monitor_self_accounting_roundtrips() {
        let p = sample();
        let xml = to_xml(&p);
        assert!(xml.contains("<monitor self_wall_ns=\"12345\""));
        assert!(xml.contains("captured=\"90\" dropped=\"2\" compacted=\"8\""));
        let back = load_profile(&xml).unwrap();
        assert_eq!(back.monitor, p.monitor);
    }

    #[test]
    fn pre_compaction_monitor_element_defaults_compacted() {
        let xml = to_xml(&sample()).replace(" compacted=\"8\"", "");
        let back = load_profile(&xml).unwrap();
        assert_eq!(back.monitor.trace_compacted, 0);
        assert_eq!(back.monitor.trace_captured, 90, "other fields untouched");
    }

    #[test]
    fn logs_without_monitor_element_default_it() {
        let xml: String = to_xml(&sample())
            .lines()
            .filter(|l| !l.contains("<monitor"))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = load_profile(&xml).unwrap();
        assert_eq!(back.monitor, MonitorInfo::default());
    }

    #[test]
    fn trace_section_roundtrips() {
        let trace = vec![
            TraceRecord {
                kind: TraceKind::Call,
                name: "cudaLaunch",
                detail: None,
                begin: 1.0,
                end: 1.25,
                bytes: 0,
                region: 1,
                stream: None,
                corr: 9,
                agg: None,
            },
            TraceRecord {
                kind: TraceKind::KernelExec,
                name: "@CUDA_EXEC_STRM02",
                detail: Some(CallHandle::of("square<T>").id),
                begin: 1.25,
                end: 2.5,
                bytes: 0,
                region: 0,
                stream: Some(2),
                corr: 9,
                agg: None,
            },
        ];
        let xml = with_trace(&sample(), &trace, 0.0);
        let back = load_records(&xml).unwrap();
        assert_eq!(back, trace);
        // and the profile parse still works with the trace embedded
        assert_eq!(load_profile(&xml).unwrap(), sample());
        // a traceless log parses to an empty trace
        assert_eq!(load_records(&to_xml(&sample())).unwrap(), Vec::new());
    }

    #[test]
    fn summary_records_and_epoch_roundtrip() {
        // a multi-digit count and sub-unit dyadic bounds
        let trace = vec![TraceRecord {
            agg: Some(Box::new(TraceAgg {
                count: 123,
                min: 0.001953125,
                max: 0.125,
                ..*summary().agg.unwrap()
            })),
            ..summary()
        }];
        let xml = with_trace(&sample(), &trace, 0.5);
        assert!(xml.contains("<trace epoch=\"0.5\">"));
        assert!(xml.contains("count=\"123\""));
        assert_eq!(load_records(&xml).unwrap(), trace);
        assert_eq!(load(&xml).unwrap().epoch, 0.5);
        // epoch 0 writes the bare element, which parses back to 0
        let xml0 = with_trace(&sample(), &trace, 0.0);
        assert!(xml0.contains("<trace>"));
        assert_eq!(load(&xml0).unwrap().epoch, 0.0);
        // traceless logs have epoch 0 too
        assert_eq!(load(&to_xml(&sample())).unwrap().epoch, 0.0);
    }

    #[test]
    fn event_attributes_match_whole_names_in_any_order() {
        let trace = vec![summary()];
        let xml = with_trace(&sample(), &trace, 0.0);
        let moved = " ex_begin=\"2\" ex_end=\"2.125\"";
        assert!(xml.contains(moved), "{xml}");
        // `ex_begin`/`ex_end` now precede `begin`/`end` on the line
        let reordered = xml.replace(moved, "").replace(
            "name=\"cudaLaunch\" begin=",
            &format!("name=\"cudaLaunch\"{moved} begin="),
        );
        assert_ne!(reordered, xml);
        assert_eq!(load_records(&reordered).unwrap(), trace);
    }

    #[test]
    fn xml_escaper_fast_path_matches_escaped() {
        for s in [
            "",
            "cudaLaunch",
            "cudaMemcpy(D2H)",
            "@CUDA_EXEC_STRM00",
            "./app <input> & \"stuff\"",
            "square<T>",
            "a&b",
            "énd✓ \\ \n",
        ] {
            let mut out = String::from("<x>");
            push_escaped(&mut out, s);
            assert_eq!(out, format!("<x>{}", Escaped(s)), "{s:?}");
        }
    }

    #[test]
    fn non_finite_trace_numbers_are_rejected() {
        let trace = vec![summary()];
        let xml = with_trace(&sample(), &trace, 0.5);
        assert_eq!(load_records(&xml).unwrap(), trace);
        for attr in [
            "begin=\"1\"",
            "end=\"4.75\"",
            "total=\"2.5\"",
            "min=\"0.5\"",
            "max=\"1\"",
            "ex_begin=\"2\"",
            "ex_end=\"2.125\"",
        ] {
            let (name, _) = attr.split_once('=').unwrap();
            for bad in ["NaN", "inf", "-inf", "infinity", "1e303", "-1e308"] {
                let xml = xml.replacen(&format!(" {attr}"), &format!(" {name}=\"{bad}\""), 1);
                assert_ne!(xml, with_trace(&sample(), &trace, 0.5), "{attr}");
                assert_eq!(
                    load_records(&xml).unwrap_err(),
                    XmlError::BadNumber(bad.to_owned()),
                    "{name}={bad}"
                );
            }
        }
        for bad in ["NaN", "inf", "-inf", "1e303", "-1e308"] {
            let xml = xml.replace("<trace epoch=\"0.5\">", &format!("<trace epoch=\"{bad}\">"));
            assert_eq!(load(&xml).unwrap_err(), XmlError::BadNumber(bad.to_owned()));
        }
    }

    #[test]
    fn an_event_ending_before_it_begins_is_malformed() {
        let trace = vec![TraceRecord {
            agg: None,
            ..summary()
        }];
        let xml = with_trace(&sample(), &trace, 0.0).replace("end=\"4.75\"", "end=\"0.5\"");
        assert!(matches!(
            load_records(&xml).unwrap_err(),
            XmlError::Malformed(_)
        ));
    }

    #[test]
    fn unescape_reads_each_entity_in_one_scan() {
        for (s, want) in [
            ("&amp;&lt;&gt;&quot;&#10;", "&<>\"\n"),
            ("a&lt;&lt;b&gt;&gt;&quot;&quot;", "a<<b>>\"\""),
            ("&amp;lt;", "&lt;"),
            ("&amp;amp;", "&amp;"),
            // a literal `&#10;`, as the writer escapes it
            ("&amp;#10;", "&#10;"),
            // unknown or cut-off entities stay literal
            ("&nbsp;&#9;&lt", "&nbsp;&#9;&lt"),
            ("a & b&", "a & b&"),
            ("&&lt;", "&<"),
            ("plain", "plain"),
            ("", ""),
        ] {
            assert_eq!(unescape(s), want, "{s}");
        }
        assert_eq!(Escaped("&#10;").to_string(), "&amp;#10;");
    }

    use proptest::prelude::*;

    /// Fragments that join into strings dense in entities, whole, cut off
    /// and nested.
    const FRAGMENTS: [&str; 14] = [
        "&amp;", "&lt;", "&gt;", "&quot;", "&#10;", "&", ";", "a", "lt;", "amp;", "#10;", "<",
        "\"", "\n",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// The one scan reads what five chained replacements (`&amp;`
        /// last) read, and inverts the escaper.
        #[test]
        fn unescape_matches_chained_replacements(
            parts in prop::collection::vec(0..FRAGMENTS.len(), 0..16),
        ) {
            let s: String = parts.iter().map(|&i| FRAGMENTS[i]).collect();
            let chained = s
                .replace("&quot;", "\"")
                .replace("&gt;", ">")
                .replace("&lt;", "<")
                .replace("&#10;", "\n")
                .replace("&amp;", "&");
            prop_assert_eq!(unescape(&s), chained);
            let escaped = Escaped(&s).to_string();
            prop_assert_eq!(unescape(&escaped), s.as_str());
        }
    }

    /// An `<event/>` line read as [`read_log`] reads it (the writer-order
    /// scan, else the split), and by the split alone.
    fn both_ways(line: &str) -> [Result<TraceRecord, XmlError>; 2] {
        let mut attrs = Attrs::default();
        let fast = EventAttrs::writer_order(line)
            .unwrap_or_else(|| EventAttrs::from_attrs(attrs.split(line)));
        let general = EventAttrs::from_attrs(Attrs::default().split(line));
        [
            event(&fast, &mut Names::default()),
            event(&general, &mut Names::default()),
        ]
    }

    /// A trace record of any kind, with or without a detail, a stream and
    /// an aggregate, whose names may need escaping.
    fn arb_record() -> impl Strategy<Value = TraceRecord> {
        let name = "[a-z_<>&\";#10 \n]{1,10}";
        (
            (0u8..3, name, prop::option::of(name)),
            (0.0f64..1e3, 0.0f64..10.0),
            (
                any::<u64>(),
                any::<u16>(),
                prop::option::of(any::<u32>()),
                any::<u64>(),
            ),
            prop::option::of((1u64..1000, 0.0f64..10.0, 0.0f64..1.0, 0.0f64..1.0)),
        )
            .prop_map(
                |((kind, name, detail), (begin, dur), (bytes, region, stream, corr), agg)| {
                    TraceRecord {
                        kind: [TraceKind::Call, TraceKind::KernelExec, TraceKind::HostIdle]
                            [kind as usize],
                        name: CallHandle::of(&name).name(),
                        detail: detail.map(|d| CallHandle::of(&d).id),
                        begin,
                        end: begin + dur,
                        bytes,
                        region,
                        stream,
                        corr,
                        agg: agg.map(|(count, total, min, span)| {
                            Box::new(TraceAgg {
                                count,
                                total,
                                min,
                                max: min + span,
                                exemplar: (begin, begin + span),
                            })
                        }),
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The writer-order scan reads every `<event/>` line the writer
        /// writes, to the slots the general split finds; a log whose
        /// events have their attributes rotated, which the scan refuses,
        /// parses to the same records; and a cut-off, unterminated or
        /// trailing-junk line reads the same either way.
        #[test]
        fn writer_order_scan_equals_the_general_split(
            trace in prop::collection::vec(arb_record(), 1..24),
            (turn, cut, junk) in (any::<usize>(), any::<usize>(), 0usize..4),
        ) {
            let xml = with_trace(&sample(), &trace, 0.0);
            prop_assert_eq!(&load_records(&xml).unwrap(), &trace);
            let mut rotated = String::new();
            for line in xml.lines() {
                let trimmed = line.trim();
                if !trimmed.starts_with("<event ") {
                    rotated.push_str(line);
                    rotated.push('\n');
                    continue;
                }
                let fast = EventAttrs::writer_order(trimmed);
                prop_assert!(fast.is_some(), "{trimmed}");
                let mut attrs = Attrs::default();
                let split = attrs.split(trimmed);
                prop_assert_eq!(fast, Some(EventAttrs::from_attrs(split)));
                let mut turned = split.0.clone();
                turned.rotate_left(1 + turn % (split.0.len() - 1));
                let turned: String = turned.iter().map(|(k, v)| format!(" {k}=\"{v}\"")).collect();
                let turned = format!("<event{turned}/>");
                prop_assert!(EventAttrs::writer_order(&turned).is_none(), "{turned}");
                rotated.push_str(&format!("      {turned}\n"));

                let at = cut % trimmed.len();
                let at = (0..=at).rev().find(|&i| trimmed.is_char_boundary(i)).unwrap_or(0);
                let close = trimmed.rfind("\"/>").unwrap_or(0);
                for bad in [
                    trimmed[..at].to_owned(),
                    format!("{}{}", &trimmed[..close], &trimmed[close + 1..]),
                    format!("{trimmed}{}", [" x", "junk", "/>", " a=\"1\""][junk]),
                ] {
                    let [fast, general] = both_ways(&bad);
                    prop_assert_eq!(fast, general, "{}", bad);
                }
            }
            prop_assert_eq!(load_records(&rotated).unwrap(), trace);
        }
    }

    #[test]
    fn a_log_of_ten_thousand_distinct_names_parses() {
        let trace: Vec<TraceRecord> = (0..10_000)
            .map(|i| TraceRecord {
                kind: TraceKind::KernelExec,
                name: "@CUDA_EXEC_STRM00",
                detail: Some(CallHandle::of(&format!("distinct_kernel_{i}<float>")).id),
                begin: i as f64,
                end: i as f64 + 0.5,
                bytes: 0,
                region: 0,
                stream: Some(0),
                corr: i,
                agg: None,
            })
            .collect();
        let xml = with_trace(&sample(), &trace, 0.0);
        assert_eq!(load_records(&xml).unwrap(), trace);
    }

    #[test]
    fn parser_survives_reordered_attributes() {
        let xml = to_xml(&sample()).replace("rank=\"3\" nranks=\"16\"", "nranks=\"16\" rank=\"3\"");
        let back = load_profile(&xml).unwrap();
        assert_eq!(back.rank, 3);
        assert_eq!(back.nranks, 16);
    }
}

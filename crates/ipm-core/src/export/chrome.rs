//! Chrome trace-event backend of the export pipeline.
//!
//! Merges host-side trace records with the device ground truth (`gpu-sim`
//! [`ProfRecord`]s) into Chrome trace-event JSON loadable in Perfetto /
//! `chrome://tracing`: one process per rank, a host lane plus one lane per
//! stream, and flow arrows linking each `cudaLaunch` to the kernel
//! execution it submitted (via the correlation id the runtime assigns at
//! enqueue). [`validate_chrome_trace`] is the matching structural
//! validator (matched `B`/`E` pairs, per-lane timestamp monotonicity,
//! resolved flow bindings) shared by tests and the `ipm_parse trace`
//! subcommand.

use super::ExportRank;
use crate::jsonw::{parse_json, push_escaped, push_f64, push_u64, Escaped, Json};
use crate::trace::{TraceKind, TraceRecord};
use ipm_gpu_sim::{ProfKind, ProfRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};

/// Microseconds for the `ts` field (Chrome's unit).
fn us(t: f64) -> f64 {
    t * 1e6
}

/// The record a slice stands for, borrowed; its `args` object is rendered
/// from it at emit time.
#[derive(Clone, Copy)]
enum Args<'a> {
    /// A host-lane record: `bytes` (when non-zero), `region`, and a
    /// summary's aggregate.
    Host(&'a TraceRecord),
    /// A `KernelExec` record on a device lane: `region` and a summary's
    /// aggregate.
    Kernel(&'a TraceRecord),
    /// Profiler ground truth: the device-side duration.
    Prof(&'a ProfRecord),
}

impl Args<'_> {
    /// Compaction summary: emitted as a Chrome `X` (complete) event rather
    /// than a `B`/`E` pair. A summary spans `first_begin..last_end` of the
    /// records it absorbed, so two summaries in a log (one a striped ring
    /// wrote, say, whose stripes each compacted an interleaved subsequence
    /// of a burst) can *partially* overlap — something `B`/`E` nesting
    /// cannot express. An `X` event carries its own `dur` and takes no
    /// part in the nesting stack, so overlap is harmless.
    fn summary(self) -> bool {
        match self {
            Args::Host(t) | Args::Kernel(t) => t.is_summary(),
            Args::Prof(_) => false,
        }
    }

    /// Append the members of the `args` object, without braces. A
    /// summary's aggregate fields come last, so Perfetto shows how many
    /// events a compacted slice stands for.
    fn push(self, out: &mut String) {
        let t = match self {
            Args::Prof(p) => {
                out.push_str("\"gputime_us\":");
                push_f64(out, us(p.gputime));
                return;
            }
            Args::Host(t) => {
                if t.bytes > 0 {
                    out.push_str("\"bytes\":");
                    push_u64(out, t.bytes);
                    out.push(',');
                }
                t
            }
            Args::Kernel(t) => t,
        };
        out.push_str("\"region\":");
        push_u64(out, u64::from(t.region));
        if let Some(a) = &t.agg {
            out.push_str(",\"count\":");
            push_u64(out, a.count);
            out.push_str(",\"total_us\":");
            push_f64(out, us(a.total));
            out.push_str(",\"min_us\":");
            push_f64(out, us(a.min));
            out.push_str(",\"max_us\":");
            push_f64(out, us(a.max));
        }
    }
}

/// About what one record adds to the document (a `B`/`E` pair, sometimes a
/// flow event), for reserving the output up front.
pub(super) const RECORD_BYTES: usize = 256;

/// An interval destined for one lane.
struct LaneSlice<'a> {
    name: &'a str,
    begin: f64,
    end: f64,
    args: Args<'a>,
    /// Flow id to terminate at this slice's begin (0 = none).
    flow_in: u64,
    /// Flow id to originate at this slice's begin (0 = none).
    flow_out: u64,
}

/// The `traceEvents` array under construction, written straight into the
/// output document with `,\n` between events.
struct Events<'o> {
    out: &'o mut String,
    n: usize,
}

impl Events<'_> {
    /// The output, positioned for the next event.
    fn next(&mut self) -> &mut String {
        if self.n > 0 {
            self.out.push_str(",\n");
        }
        self.n += 1;
        self.out
    }

    fn meta(&mut self, pid: usize, tid: Option<u64>, which: &str, label: fmt::Arguments<'_>) {
        let out = self.next();
        let _ = write!(out, "{{\"ph\":\"M\",\"name\":\"{which}\",\"pid\":{pid}");
        if let Some(tid) = tid {
            let _ = write!(out, ",\"tid\":{tid}");
        }
        let _ = write!(out, ",\"args\":{{\"name\":\"{label}\"}}}}");
    }
}

/// `,"pid":<pid>,"tid":<tid>,"ts":` — what every event on one lane
/// writes between its name and its timestamp.
fn lane_key(pid: usize, tid: u64) -> String {
    let mut key = String::with_capacity(40);
    key.push_str(",\"pid\":");
    push_u64(&mut key, pid as u64);
    key.push_str(",\"tid\":");
    push_u64(&mut key, tid);
    key.push_str(",\"ts\":");
    key
}

/// Emit one lane's slices: raw records as properly nested `B`/`E` pairs,
/// summaries (and raw records that overlap an open slice without nesting
/// in it) as self-contained `X` events. Events are produced in
/// `(begin, -end)` order and every event's `ts` is either the current
/// slice's begin or a pending end ≤ it, so timestamps are non-decreasing
/// even when summary spans partially overlap raw slices or each other.
fn emit_lane(ev: &mut Events, pid: usize, tid: u64, mut slices: Vec<LaneSlice<'_>>) {
    if slices.is_empty() {
        return;
    }
    slices.sort_by(|a, b| {
        a.begin
            .partial_cmp(&b.begin)
            .expect("finite timestamps")
            .then(b.end.partial_cmp(&a.end).expect("finite timestamps"))
    });
    let lane = lane_key(pid, tid);
    // stack of pending end timestamps with their slice names
    let mut stack: Vec<(f64, &str)> = Vec::new();
    let close = |stack: &mut Vec<(f64, &str)>, upto: f64, ev: &mut Events| {
        while let Some(&(end, name)) = stack.last() {
            if end > upto {
                break;
            }
            stack.pop();
            let out = ev.next();
            out.push_str("{\"ph\":\"E\",\"name\":\"");
            push_escaped(out, name);
            out.push('"');
            out.push_str(&lane);
            push_f64(out, us(end));
            out.push('}');
        }
    };
    for s in slices {
        close(&mut stack, s.begin, ev);
        for (id, head) in [
            (
                s.flow_in,
                "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"launch\",\"name\":\"launch\",\"id\":",
            ),
            (
                s.flow_out,
                "{\"ph\":\"s\",\"cat\":\"launch\",\"name\":\"launch\",\"id\":",
            ),
        ] {
            if id != 0 {
                let out = ev.next();
                out.push_str(head);
                push_u64(out, id);
                out.push_str(&lane);
                push_f64(out, us(s.begin));
                out.push('}');
            }
        }
        // a raw slice that overlaps the open one without nesting in it
        // (only a malformed log has one) is drawn whole, like a summary
        let whole = s.args.summary() || stack.last().is_some_and(|&(end, _)| s.end > end);
        let out = ev.next();
        out.push_str(if whole {
            "{\"ph\":\"X\",\"name\":\""
        } else {
            "{\"ph\":\"B\",\"name\":\""
        });
        push_escaped(out, s.name);
        out.push('"');
        out.push_str(&lane);
        if whole {
            push_f64(out, us(s.begin));
            out.push_str(",\"dur\":");
            push_f64(out, us(s.end - s.begin));
        } else {
            push_f64(out, us(s.begin));
            stack.push((s.end, s.name));
        }
        out.push_str(",\"args\":{");
        s.args.push(out);
        out.push_str("}}");
    }
    close(&mut stack, f64::INFINITY, ev);
}

/// Render ranks into Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object form), in one pass over the borrowed records into one output
/// buffer, on up to `threads` threads (see [`super::render_ranks`]). One
/// process per rank; `tid 0` is the host lane and `tid 1 + s` is device
/// stream `s`. `cudaLaunch` slices originate flow arrows (`ph:"s"`) that
/// terminate (`ph:"f"`) at the kernel slice with the same correlation id.
/// Raw records render as `B`/`E` pairs; compaction summaries render as `X`
/// (complete) events carrying their aggregate in `args`, since two
/// summaries may partially overlap in time. `ranks` must not be empty.
pub(crate) fn chrome_trace_json(ranks: &[ExportRank], threads: usize) -> String {
    let mut out = super::trace_buffer(super::records(ranks) * RECORD_BYTES);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    super::render_ranks(&mut out, ranks, RECORD_BYTES, threads, |out, i, r| {
        // every rank writes metadata events, so all but the first rank's
        // start after an earlier event
        let mut ev = Events { out, n: i };
        rank_events(&mut ev, r);
    });
    out.push_str("\n]}\n");
    out
}

/// One rank's events: its process and lane names, the host lane, then one
/// lane per device stream.
fn rank_events(ev: &mut Events, r: &ExportRank) {
    let pid = r.rank;
    if r.host.is_empty() {
        ev.meta(pid, None, "process_name", format_args!("rank {}", r.rank));
    } else {
        let host = Escaped(&r.host);
        ev.meta(
            pid,
            None,
            "process_name",
            format_args!("rank {} ({host})", r.rank),
        );
    }
    ev.meta(pid, Some(0), "thread_name", format_args!("host"));

    // Flow arrows link a launch to the kernel it submitted. Only a
    // correlation id with exactly one kernel slice and one host slice
    // gets one, so a log that lost or repeated either end still renders
    // matched pairs.
    let use_prof = !r.prof.is_empty();
    let mut ends: HashMap<u64, [u32; 2]> = HashMap::new();
    let mut kernel = |corr: u64| {
        if corr != 0 {
            ends.entry(corr).or_default()[1] += 1;
        }
    };
    if use_prof {
        let kernels = r.prof.iter().filter(|p| p.kind == ProfKind::Kernel);
        kernels.for_each(|p| kernel(p.corr));
    } else {
        let kernels = r.records.iter().filter(|t| t.kind == TraceKind::KernelExec);
        kernels.for_each(|t| kernel(t.corr));
    }
    for t in &r.records {
        if t.kind != TraceKind::KernelExec && t.corr != 0 {
            if let Some(n) = ends.get_mut(&t.corr) {
                n[0] += 1;
            }
        }
    }
    let flow = |corr: u64| {
        if corr != 0 && ends.get(&corr) == Some(&[1, 1]) {
            corr
        } else {
            0
        }
    };

    // Host lane: wrapped calls + host-idle intervals.
    let host_slices: Vec<LaneSlice> = r
        .records
        .iter()
        .filter(|t| t.kind != TraceKind::KernelExec)
        .map(|t| LaneSlice {
            name: t.name,
            begin: t.begin - r.epoch,
            end: t.end - r.epoch,
            args: Args::Host(t),
            flow_in: 0,
            flow_out: flow(t.corr),
        })
        .collect();
    emit_lane(ev, pid, 0, host_slices);

    // Device lanes: one per stream, in stream order, from the profiler
    // ground truth when available, otherwise from KTT KernelExec records.
    let mut lanes: BTreeMap<u32, Vec<LaneSlice>> = BTreeMap::new();
    if use_prof {
        for p in &r.prof {
            lanes.entry(p.stream.0).or_default().push(LaneSlice {
                name: &p.method,
                begin: p.start - r.epoch,
                end: p.start + p.gputime - r.epoch,
                args: Args::Prof(p),
                flow_in: if p.kind == ProfKind::Kernel {
                    flow(p.corr)
                } else {
                    0
                },
                flow_out: 0,
            });
        }
    } else {
        for t in r.records.iter().filter(|t| t.kind == TraceKind::KernelExec) {
            lanes
                .entry(t.stream.unwrap_or(0))
                .or_default()
                .push(LaneSlice {
                    name: t.detail_name().unwrap_or(t.name),
                    begin: t.begin - r.epoch,
                    end: t.end - r.epoch,
                    args: Args::Kernel(t),
                    flow_in: flow(t.corr),
                    flow_out: 0,
                });
        }
    }
    for (s, slices) in lanes {
        let tid = 1 + u64::from(s);
        ev.meta(pid, Some(tid), "thread_name", format_args!("stream {s}"));
        emit_lane(ev, pid, tid, slices);
    }
}

/// Structural facts about a validated trace, for assertions and the CLI
/// summary line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Completed `B`/`E` slice pairs.
    pub slices: usize,
    /// Distinct processes (ranks).
    pub processes: usize,
    /// Distinct `(pid, tid)` lanes carrying at least one slice.
    pub lanes: usize,
    /// Flow arrows with both a start (`s`) and a finish (`f`) binding.
    pub flow_pairs: usize,
}

/// Validate Chrome trace-event JSON structurally: the document parses, every
/// `B` has a matching `E` (same lane, same name, LIFO order), every `X`
/// carries a name and a finite non-negative `dur`, timestamps are monotone
/// non-decreasing per lane, and every flow start resolves to a flow finish
/// (and vice versa). Returns summary stats on success (`X` events count as
/// completed slices).
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut lanes_with_slices: std::collections::HashSet<(u64, u64)> =
        std::collections::HashSet::new();
    let mut processes: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut flow_starts: HashMap<u64, usize> = HashMap::new();
    let mut flow_finishes: HashMap<u64, usize> = HashMap::new();
    let mut slices = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing pid"))? as u64;
        processes.insert(pid);
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing ts"))?;
        if !ts.is_finite() {
            return Err(format!("event {i}: non-finite ts"));
        }
        let lane = (pid, tid);
        if let Some(prev) = last_ts.get(&lane) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: lane ({pid},{tid}) timestamp regressed {prev} -> {ts}"
                ));
            }
        }
        last_ts.insert(lane, ts);
        match ph {
            "B" => {
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: B without name"))?;
                stacks.entry(lane).or_default().push(name.to_owned());
                lanes_with_slices.insert(lane);
            }
            "E" => {
                let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
                let stack = stacks.entry(lane).or_default();
                match stack.pop() {
                    Some(open) if name.is_empty() || open == name => slices += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E '{name}' does not match open B '{open}' on lane ({pid},{tid})"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E '{name}' with no open B on lane ({pid},{tid})"
                        ))
                    }
                }
            }
            "s" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: flow start without id"))?
                    as u64;
                *flow_starts.entry(id).or_default() += 1;
            }
            "f" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: flow finish without id"))?
                    as u64;
                *flow_finishes.entry(id).or_default() += 1;
            }
            "X" => {
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: X without name"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: X with bad dur {dur}"));
                }
                slices += 1;
                lanes_with_slices.insert(lane);
            }
            "i" | "C" => {} // tolerated, unused by our exporter
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }

    for (lane, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "lane ({},{}) has {} unclosed B events (first: '{}')",
                lane.0,
                lane.1,
                stack.len(),
                stack[0]
            ));
        }
    }
    let mut flow_pairs = 0usize;
    for (id, n) in &flow_starts {
        match flow_finishes.get(id) {
            Some(m) if m == n => flow_pairs += n,
            _ => {
                return Err(format!(
                    "flow id {id}: {n} starts without matching finishes"
                ))
            }
        }
    }
    for id in flow_finishes.keys() {
        if !flow_starts.contains_key(id) {
            return Err(format!("flow id {id}: finish without start"));
        }
    }

    Ok(TraceStats {
        slices,
        processes: processes.len(),
        lanes: lanes_with_slices.len(),
        flow_pairs,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compact::TraceAgg;
    use crate::export::{ChromeTrace, Export};
    use ipm_gpu_sim::{ProfRecord, StreamId};
    use ipm_interpose::CallHandle;

    fn call(name: &'static str, begin: f64, end: f64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name,
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: None,
        }
    }

    fn export(ranks: Vec<ExportRank>) -> String {
        let mut e = Export::new();
        for r in ranks {
            e = e.with_trace_rank(r);
        }
        e.to(ChromeTrace).expect("chrome export")
    }

    #[test]
    fn partially_overlapping_summaries_export_as_x_events() {
        // Summaries of one burst whose spans partially overlap, as a log
        // can carry them (a lock-striped ring compacted each stripe's
        // interleaved subsequence of a burst on its own). The exporter
        // must render every summary as an X event — B/E nesting cannot
        // express partial overlap (regression: E timestamps regressed and
        // the validator rejected the exporter's own output).
        let summary = |begin: f64, end: f64| TraceRecord {
            agg: Some(Box::new(TraceAgg {
                count: 3,
                total: 1.5,
                min: 0.5,
                max: 0.5,
                exemplar: (begin, begin + 0.5),
            })),
            ..call("cudaLaunch", begin, end)
        };
        let records = vec![
            summary(0.0, 4.0),
            summary(1.0, 5.0),
            call("cudaLaunch", 1.5, 2.0),
            summary(2.0, 6.0),
            call("cudaLaunch", 7.0, 8.0),
        ];
        let rank = ExportRank {
            rank: 0,
            host: String::new(),
            epoch: 0.0,
            records,
            ..ExportRank::default()
        };
        let json = export(vec![rank]);
        let stats = validate_chrome_trace(&json).expect("overlapping summaries export invalid");
        assert_eq!(stats.slices, 5);
        let opened = |ph: &str| json.matches(&format!("{{\"ph\":\"{ph}\",\"name\"")).count();
        assert_eq!(opened("X"), 3, "one X event per summary: {json}");
        assert_eq!(opened("B"), 2, "raw records keep their B/E pairs: {json}");
    }

    #[test]
    fn records_a_malformed_log_can_hold_still_export_valid_traces() {
        let kernel = |corr: u64, stream: u32, begin: f64, end: f64| TraceRecord {
            kind: TraceKind::KernelExec,
            name: "@CUDA_EXEC_STRM00",
            detail: Some(CallHandle::of("k").id),
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: Some(stream),
            corr,
            agg: None,
        };
        let mut launch = call("cudaLaunch", 1.0, 1.1);
        launch.corr = 5;
        let rank = ExportRank {
            records: vec![
                // corr 5: one launch, two kernels; corr 9: no launch
                launch,
                kernel(5, 0, 2.0, 3.0),
                kernel(5, 0, 2.5, 3.5),
                kernel(9, u32::MAX, 4.0, 5.0),
            ],
            ..ExportRank::default()
        };
        let json = export(vec![rank]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.flow_pairs, 0);
        assert_eq!(stats.lanes, 3);
        assert!(json.contains("\"tid\":4294967296"), "{json}");
        assert!(json.contains("\"ph\":\"X\",\"name\":\"k\""), "{json}");
    }

    /// `n` launches on the host lane, each with its kernel execution on
    /// one of two streams: `2 * n` records, `n` flows.
    pub(crate) fn launch_storm(n: usize) -> ExportRank {
        let mut records = Vec::with_capacity(2 * n);
        for i in 0..n {
            let t = i as f64 * 1e-4;
            let corr = i as u64 + 1;
            let mut launch = call("cudaLaunch", t, t + 2e-5);
            launch.corr = corr;
            records.push(launch);
            let stream = (i % 2) as u32;
            records.push(TraceRecord {
                kind: TraceKind::KernelExec,
                name: CallHandle::of(&format!("@CUDA_EXEC_STRM0{stream}")).name(),
                detail: Some(CallHandle::of("kernel").id),
                begin: t + 3e-5,
                end: t + 1.5e-4,
                bytes: 0,
                region: 0,
                stream: Some(stream),
                corr,
                agg: None,
            });
        }
        ExportRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records,
            ..ExportRank::default()
        }
    }

    #[test]
    fn full_export_of_twenty_thousand_records_validates() {
        let json = export(vec![launch_storm(10_000)]);
        let stats = validate_chrome_trace(&json).expect("full export valid");
        assert_eq!(stats.slices, 20_000);
        assert_eq!(stats.lanes, 3, "host lane + two stream lanes");
        assert_eq!(stats.flow_pairs, 10_000);
    }

    #[test]
    fn epoch_shifts_exported_timestamps() {
        let rank = ExportRank {
            rank: 0,
            host: String::new(),
            epoch: 10.0,
            records: vec![call("cudaMalloc", 10.5, 11.0)],
            ..ExportRank::default()
        };
        let json = export(vec![rank]);
        validate_chrome_trace(&json).expect("valid trace");
        // 10.5s on the rank clock is 0.5s after the epoch -> ts 500000 us
        assert!(json.contains("\"ts\":500000"), "{json}");
        assert!(!json.contains("\"ts\":10500000"), "{json}");
    }

    #[test]
    fn summary_slices_carry_count_args() {
        let mut rec = call("cudaLaunch", 1.0, 3.0);
        rec.agg = Some(Box::new(TraceAgg {
            count: 17,
            total: 1.25,
            min: 0.05,
            max: 0.2,
            exemplar: (1.4, 1.6),
        }));
        let rank = ExportRank {
            rank: 0,
            host: String::new(),
            epoch: 0.0,
            records: vec![rec],
            ..ExportRank::default()
        };
        let json = export(vec![rank]);
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("\"count\":17"), "{json}");
        assert!(json.contains("\"total_us\":1250000"), "{json}");
    }

    #[test]
    fn chrome_trace_is_valid_and_has_flows() {
        let mut launch = call("cudaLaunch", 1.0, 1.00001);
        launch.corr = 42;
        let exec = TraceRecord {
            kind: TraceKind::KernelExec,
            name: "@CUDA_EXEC_STRM00",
            detail: Some(CallHandle::of("square").id),
            begin: 1.0001,
            end: 2.15,
            bytes: 0,
            region: 0,
            stream: Some(0),
            corr: 42,
            agg: None,
        };
        let rank = ExportRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records: vec![
                call("cudaMalloc", 0.0, 0.5),
                launch.clone(),
                call("cudaMemcpy(D2H)", 2.2, 2.3),
            ],
            ..ExportRank::default()
        };
        let mut with_exec = rank.clone();
        with_exec.records.push(exec);
        let json = export(vec![with_exec]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.processes, 1);
        assert_eq!(stats.lanes, 2, "host lane + one stream lane");
        assert_eq!(stats.slices, 4);
        assert_eq!(stats.flow_pairs, 1);

        // prof records take precedence for device lanes when present
        launch.corr = 7;
        let prof_rank = ExportRank {
            rank: 1,
            host: String::new(),
            epoch: 0.0,
            records: vec![launch],
            prof: vec![ProfRecord {
                method: "square".to_owned(),
                kind: ProfKind::Kernel,
                stream: StreamId::DEFAULT,
                start: 1.0002,
                gputime: 1.15,
                cputime: 1e-5,
                corr: 7,
            }],
            profile: None,
        };
        let json = export(vec![prof_rank]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.flow_pairs, 1);
    }

    #[test]
    fn nested_and_adjacent_slices_emit_proper_b_e() {
        // outer call wrapping an inner call, then an adjacent one
        let rank = ExportRank {
            rank: 0,
            host: String::new(),
            epoch: 0.0,
            records: vec![
                call("cublasDgemm", 0.0, 1.0),
                call("cudaLaunch", 0.2, 0.4),
                call("cudaFree", 1.0, 1.1),
            ],
            ..ExportRank::default()
        };
        let json = export(vec![rank]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.slices, 3);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        // unmatched B
        let bad = r#"{"traceEvents":[{"ph":"B","name":"x","pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
        // regressed timestamps
        let bad = r#"{"traceEvents":[
            {"ph":"B","name":"x","pid":0,"tid":0,"ts":5},
            {"ph":"E","name":"x","pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("regressed"));
        // flow start without finish
        let bad = r#"{"traceEvents":[{"ph":"s","id":3,"pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("flow id 3"));
    }
}

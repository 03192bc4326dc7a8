//! Golden-file tests for the merged multi-rank trace exports.
//!
//! Builds a deterministic two-rank trace — each rank's ring compacts a
//! host-call burst into a summary record, and the ranks start at different
//! local epochs — then pins the exporters' exact JSON against
//! `results/trace_compacted.json` and `results/trace_otlp.json`. A second,
//! hand-built two-rank source covers every branch of the Chrome, OTLP and
//! XML trace writers (profiler ground truth, several streams, summaries on
//! host and kernel lanes, names that need escaping) against
//! `tests/golden/mixed_trace.*`. Regenerate the goldens after an
//! intentional exporter change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use ipm_repro::gpu::{ProfKind, ProfRecord, StreamId};
use ipm_repro::interpose::CallHandle;
use ipm_repro::ipm::parse::export_from_xml;
use ipm_repro::ipm::{
    validate_chrome_trace, ChromeTrace, CompactPolicy, Export, ExportRank, MonitorInfo,
    ProfileEntry, RankProfile, TraceAgg, TraceKind, TraceRecord, TraceRing, Xml,
};
use ipm_repro::sim::RunningStats;

#[path = "support/golden.rs"]
mod golden;
use golden::check_golden;

fn rec(
    kind: TraceKind,
    name: &str,
    begin: f64,
    end: f64,
    stream: Option<u32>,
    corr: u64,
) -> TraceRecord {
    TraceRecord {
        kind,
        name: CallHandle::of(name).name(),
        detail: None,
        begin,
        end,
        bytes: 0,
        region: 0,
        stream,
        corr,
        agg: None,
    }
}

/// One rank's worth of deterministic workload, expressed in that rank's own
/// clock (everything offset by its epoch `e`). Dyadic timestamps keep the
/// exported microsecond values integral, so the JSON is stable digit-for-digit.
fn rank(r: usize, e: f64, corr: u64) -> ExportRank {
    let ring = TraceRing::with_policy(64, CompactPolicy::with_high_water(4));
    for i in 0..6 {
        let b = e + i as f64 * 0.25;
        ring.push(rec(
            TraceKind::Call,
            "cudaMemcpy(H2D)",
            b,
            b + 0.125,
            None,
            0,
        ));
    }
    ring.push(rec(
        TraceKind::Call,
        "cudaLaunch",
        e + 1.5,
        e + 1.625,
        None,
        corr,
    ));
    ring.push(rec(
        TraceKind::KernelExec,
        "@CUDA_EXEC_STRM00",
        e + 1.75,
        e + 2.0,
        Some(0),
        corr,
    ));
    // pushed after the exec record but earlier in time: exercises the
    // tail check and the merged drain
    ring.push(rec(
        TraceKind::HostIdle,
        "@CUDA_HOST_IDLE",
        e + 1.625,
        e + 1.75,
        None,
        0,
    ));
    assert_eq!(
        ring.counters().captured + ring.counters().dropped + ring.counters().compacted,
        ring.counters().emitted
    );
    assert!(ring.counters().compacted > 0, "burst must compact");
    ExportRank {
        rank: r,
        host: format!("dirac{r:02}"),
        epoch: e,
        records: ring.drain(),
        ..ExportRank::default()
    }
}

#[test]
fn merged_two_rank_export_matches_golden() {
    // rank 1 boots 1.5 virtual seconds after rank 0; epoch alignment must
    // land the identical workloads on identical timestamps anyway
    let json = Export::new()
        .with_trace_rank(rank(0, 1.0, 7))
        .with_trace_rank(rank(1, 2.5, 9))
        .to(ChromeTrace)
        .expect("ranks present");

    // structurally valid: parses, every B closes, ts monotone per lane,
    // every flow start finds its finish
    let stats = validate_chrome_trace(&json).expect("exporter output invalid");
    assert_eq!(stats.processes, 2);
    // per rank: compacted summary + launch + host idle + kernel exec
    assert_eq!(stats.slices, 8);
    assert_eq!(stats.lanes, 4, "host lane + one stream lane per rank");
    assert_eq!(stats.flow_pairs, 2, "one launch→exec arrow per rank");

    // the compacted burst exports as ONE slice carrying its aggregate
    // args: 6 merged copies of 0.125 s each
    assert_eq!(json.matches("\"count\":6").count(), 2);
    assert_eq!(json.matches("\"total_us\":750000").count(), 2);

    // epoch alignment: each rank's first slice sits at ts 0 even though
    // their local clocks started 1.5 s apart
    assert_eq!(json.matches("\"ts\":0,").count(), 2);
    // and the kernel execs land on the same aligned instant on both ranks
    assert_eq!(json.matches("\"ts\":1750000,").count(), 2);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/trace_compacted.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "export drifted from results/trace_compacted.json"
    );
}

/// The same deterministic two-rank workload pinned through the OTLP
/// backend against `results/trace_otlp.json` (regenerate with
/// `UPDATE_GOLDEN=1` after an intentional exporter change).
#[cfg(feature = "otlp")]
#[test]
fn merged_two_rank_otlp_export_matches_golden() {
    use ipm_repro::ipm::{validate_otlp, Otlp};
    let json = Export::new()
        .with_trace_rank(rank(0, 1.0, 7))
        .with_trace_rank(rank(1, 2.5, 9))
        .to(Otlp)
        .expect("ranks present");

    let stats = validate_otlp(&json).expect("exporter output invalid");
    assert_eq!(stats.resources, 2);
    // per rank: compacted summary + launch + host idle + kernel exec
    assert_eq!(stats.spans, 8);
    assert_eq!(stats.links, 2, "one launch→exec link per rank");
    assert_eq!(stats.summary_spans, 2, "one compacted burst per rank");

    // epoch alignment: each rank's first span starts at nano 0 even though
    // their local clocks started 1.5 s apart
    assert_eq!(json.matches("\"startTimeUnixNano\":\"0\"").count(), 2);
    assert_eq!(
        json.matches("\"startTimeUnixNano\":\"1750000000\"").count(),
        2
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/trace_otlp.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(json, golden, "export drifted from results/trace_otlp.json");
}

/// Link correlation, checked span by span: every `cudaLaunch` span in the
/// OTLP document carries exactly one link, and that link resolves to a
/// kernel-execution span in the same trace.
#[cfg(feature = "otlp")]
#[test]
fn every_launch_span_links_to_its_kernel_span() {
    use ipm_repro::ipm::jsonw::{parse_json, Json};
    use ipm_repro::ipm::Otlp;
    use std::collections::HashMap;

    let json = Export::new()
        .with_trace_rank(rank(0, 1.0, 7))
        .with_trace_rank(rank(1, 2.5, 9))
        .to(Otlp)
        .expect("ranks present");
    let doc = parse_json(&json).expect("parses");

    // first pass: index every span's name by (traceId, spanId)
    let mut names: HashMap<(String, String), String> = HashMap::new();
    let mut spans: Vec<&Json> = Vec::new();
    for rs in doc.get("resourceSpans").and_then(Json::as_arr).unwrap() {
        for scope in rs.get("scopeSpans").and_then(Json::as_arr).unwrap() {
            for span in scope.get("spans").and_then(Json::as_arr).unwrap() {
                let key = (
                    span.get("traceId")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                    span.get("spanId")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                );
                let name = span.get("name").and_then(Json::as_str).unwrap().to_owned();
                names.insert(key, name);
                spans.push(span);
            }
        }
    }

    let mut launches = 0;
    for span in spans {
        if span.get("name").and_then(Json::as_str) != Some("cudaLaunch") {
            continue;
        }
        launches += 1;
        let links = span
            .get("links")
            .and_then(Json::as_arr)
            .expect("launch span without links");
        assert_eq!(links.len(), 1);
        let own_trace = span.get("traceId").and_then(Json::as_str).unwrap();
        let lt = links[0].get("traceId").and_then(Json::as_str).unwrap();
        let ls = links[0].get("spanId").and_then(Json::as_str).unwrap();
        assert_eq!(lt, own_trace, "links stay within the rank's trace");
        let target = &names[&(lt.to_owned(), ls.to_owned())];
        assert!(
            target.starts_with("@CUDA_EXEC_STRM"),
            "launch links to '{target}', not a kernel span"
        );
    }
    assert_eq!(launches, 2, "one launch span per rank");
}

/// A summary record: `count` events merged over `begin..end`.
fn summary(kind: TraceKind, name: &str, begin: f64, end: f64, stream: Option<u32>) -> TraceRecord {
    TraceRecord {
        agg: Some(Box::new(TraceAgg {
            count: 5,
            total: 0.07,
            min: 0.01,
            max: 0.03,
            exemplar: (begin + 0.1, begin + 0.13),
        })),
        ..rec(kind, name, begin, end, stream, 0)
    }
}

fn entry(name: &str, detail: Option<&str>, bytes: u64, region: u16) -> ProfileEntry {
    let mut stats = RunningStats::new();
    stats.record(0.3);
    stats.record(0.1);
    ProfileEntry {
        name: name.to_owned(),
        detail: detail.map(str::to_owned),
        bytes,
        region,
        stats,
    }
}

/// Names and hosts carrying every character class a writer must escape:
/// a quote, a backslash, control characters and XML's `&<>`.
const NASTY: &str = "q\"b\\c\u{1}t\t&<x>";

/// Two ranks covering every branch of the three trace writers. Rank 0 has
/// profiler ground truth, so its device lanes come from `ProfRecord`s
/// (kernels and a memcpy, on two streams); rank 1 has none, so its device
/// lanes come from `KernelExec` records (two streams, one of them carrying
/// a compaction summary). Both host lanes mix raw calls, calls with bytes,
/// a summary and a host-idle interval. Timestamps are deliberately not
/// dyadic, so any change in the exporters' arithmetic shows in the digits.
fn mixed_export() -> Export {
    let nasty_name = format!("cudaMemcpy{NASTY}");
    let p = |rank: usize, host: &str| RankProfile {
        rank,
        nranks: 2,
        host: host.to_owned(),
        command: format!("./md {NASTY}"),
        wallclock: 3.3,
        regions: vec!["<program>".to_owned(), format!("pme{NASTY}")],
        entries: vec![
            entry(&nasty_name, None, 4096, 1),
            entry("@CUDA_EXEC_STRM00", Some(&format!("kern{NASTY}")), 0, 0),
        ],
        dropped_events: 1,
        monitor: MonitorInfo::default(),
    };

    let mut copy = rec(TraceKind::Call, &nasty_name, 0.3, 0.45, None, 0);
    copy.bytes = 4096;
    copy.region = 1;
    let mut exec = rec(
        TraceKind::KernelExec,
        "@CUDA_EXEC_STRM00",
        0.6,
        0.7,
        Some(0),
        11,
    );
    exec.detail = Some(CallHandle::of("ignored when prof is present").id);
    let rank0 = vec![
        copy,
        rec(TraceKind::Call, "cudaLaunch", 0.5, 0.52, None, 11),
        rec(TraceKind::Call, "cudaLaunch", 0.53, 0.55, None, 12),
        summary(TraceKind::Call, "cudaGetLastError", 0.6, 0.9, None),
        rec(TraceKind::HostIdle, "@CUDA_HOST_IDLE", 0.95, 1.1, None, 0),
        exec,
    ];
    let prof0 = vec![
        ProfRecord {
            method: format!("kern{NASTY}"),
            kind: ProfKind::Kernel,
            stream: StreamId(0),
            start: 0.56,
            gputime: 0.2,
            cputime: 1e-5,
            corr: 11,
        },
        ProfRecord {
            method: "other".to_owned(),
            kind: ProfKind::Kernel,
            stream: StreamId(1),
            start: 0.57,
            gputime: 0.13,
            cputime: 1e-5,
            corr: 12,
        },
        ProfRecord {
            method: "memcpyDtoH".to_owned(),
            kind: ProfKind::MemcpyD2H,
            stream: StreamId(1),
            start: 0.8,
            gputime: 0.05,
            cputime: 2e-5,
            corr: 0,
        },
    ];

    let e1 = 2.7;
    let mut copy = rec(
        TraceKind::Call,
        "cudaMemcpy(D2H)",
        e1 + 0.1,
        e1 + 0.3,
        None,
        0,
    );
    copy.bytes = 800_000;
    let mut k21 = rec(
        TraceKind::KernelExec,
        "@CUDA_EXEC_STRM00",
        e1 + 0.45,
        e1 + 0.6,
        Some(0),
        21,
    );
    k21.detail = Some(CallHandle::of(&format!("kern{NASTY}")).id);
    let rank1 = vec![
        copy,
        rec(TraceKind::Call, "cudaLaunch", e1 + 0.4, e1 + 0.41, None, 21),
        rec(
            TraceKind::Call,
            "cudaLaunch",
            e1 + 0.42,
            e1 + 0.43,
            None,
            22,
        ),
        summary(TraceKind::Call, &nasty_name, e1 + 0.7, e1 + 1.1, None),
        rec(
            TraceKind::HostIdle,
            "@CUDA_HOST_IDLE",
            e1 + 1.2,
            e1 + 1.3,
            None,
            0,
        ),
        k21,
        rec(
            TraceKind::KernelExec,
            "@CUDA_EXEC_STRM02",
            e1 + 0.44,
            e1 + 0.5,
            Some(2),
            22,
        ),
        summary(
            TraceKind::KernelExec,
            "@CUDA_EXEC_STRM00",
            e1 + 0.65,
            e1 + 0.95,
            Some(0),
        ),
    ];

    Export::new()
        .rank(p(0, &format!("dirac{NASTY}")))
        .with_trace(rank0)
        .with_prof(prof0)
        .with_epoch(0.1)
        .rank(p(1, "dirac01"))
        .with_trace(rank1)
        .with_epoch(e1)
}

/// Every trace writer over [`mixed_export`], pinned byte for byte against
/// `tests/golden/mixed_trace.*` (regenerate with `UPDATE_GOLDEN=1` after an
/// intentional format change).
#[test]
fn mixed_two_rank_export_matches_golden_in_every_trace_format() {
    let export = mixed_export();

    let chrome = export.to(ChromeTrace).expect("ranks present");
    let stats = validate_chrome_trace(&chrome).expect("chrome export invalid");
    assert_eq!(stats.processes, 2);
    // rank 0: 5 host + 3 prof slices; rank 1: 5 host + 3 kernel slices
    assert_eq!(stats.slices, 16);
    // host + streams 0,1 on rank 0; host + streams 0,2 on rank 1
    assert_eq!(stats.lanes, 6);
    assert_eq!(stats.flow_pairs, 4);
    assert!(chrome.contains("\"gputime_us\":"), "{chrome}");
    check_golden("mixed_trace.chrome.json", &chrome);

    let xml = export.to(Xml).expect("every rank carries a profile");
    check_golden("mixed_trace.xml", &xml);

    #[cfg(feature = "otlp")]
    {
        use ipm_repro::ipm::{validate_otlp, Otlp};
        let otlp = export.to(Otlp).expect("ranks present");
        let stats = validate_otlp(&otlp).expect("OTLP export invalid");
        assert_eq!(stats.resources, 2);
        assert_eq!(stats.spans, 16);
        assert_eq!(stats.links, 4);
        assert_eq!(stats.summary_spans, 3);
        check_golden("mixed_trace.otlp.json", &otlp);
    }
}

/// The committed two-rank XML golden loads back as its two ranks, each
/// with its own profile, records and epoch, and re-renders byte for byte.
#[test]
fn mixed_xml_golden_loads_as_its_two_ranks() {
    let golden = include_str!("golden/mixed_trace.xml");
    let loaded = export_from_xml(&[golden.to_owned()]).expect("golden log parses");
    let epochs: Vec<(usize, f64)> = loaded
        .source()
        .ranks
        .iter()
        .map(|r| (r.rank, r.epoch))
        .collect();
    assert_eq!(epochs, [(0, 0.1), (1, 2.7)]);
    for (got, want) in loaded
        .source()
        .ranks
        .iter()
        .zip(&mixed_export().source().ranks)
    {
        assert_eq!(got.profile, want.profile);
        assert_eq!(got.records, want.records);
    }
    assert!(loaded.to(Xml).expect("every rank carries a profile") == golden);
}

//! `ipm_parse` — the offline report generator.
//!
//! The paper (§II): "The XML file can then be used by the IPM parser
//! (`ipm_parse`) to produce a number of different output formats. The
//! parser can re-produce the banner, it can generate an HTML based webpage
//! ... and it can convert the IPM profile into the CUBE format." This
//! module is that tool as a library: banner regeneration, a self-contained
//! HTML report, and the CUBE conversion (see [`crate::cube`]).

use crate::aggregate::ClusterReport;
use crate::export::{fan_out, threads_for, Export};
use crate::profile::RankProfile;
use crate::trace::TraceRecord;
use crate::xml::{read_log, Escaped, XmlError, EVENT_BYTES, MIN_EVENT_BYTES};
use std::fmt::Write as _;

/// Rebuild the canonical export view from a set of XML logs: each
/// `<task>` of each log becomes one rank carrying its parsed profile, the
/// embedded `<trace>` records, and the recorded clock-alignment epoch,
/// sorted by rank. Every `ipm_parse` rendering goes through this one
/// loader. Two tasks of the same rank, in one log or in two, are
/// malformed: their trace lanes would share one process.
///
/// Logs whose size puts them at `PARALLEL_RECORDS` `<event>` lines or
/// more in all are read on one thread per core, up to one per log, as
/// trace renderings are; the result, and the error of the first malformed
/// log in input order, are those of a serial read.
pub fn export_from_xml(xmls: &[String]) -> Result<Export, XmlError> {
    let records = xmls.iter().map(String::len).sum::<usize>() / EVENT_BYTES;
    read_logs(xmls, threads_for(xmls.len(), records))
}

/// [`export_from_xml`] on up to `threads` threads. Each log's record
/// buffer is reserved on the calling thread (see [`fan_out`]), for as many
/// records as the log's size allows, so no records land in a helper's
/// malloc arena and none are regrown and copied. The part of a buffer its
/// records do not fill is never written, so it adds no resident pages.
fn read_logs(xmls: &[String], threads: usize) -> Result<Export, XmlError> {
    let reserve = |_: usize, logs: &[String]| -> Vec<Vec<TraceRecord>> {
        logs.iter()
            .map(|xml| Vec::with_capacity(xml.len() / MIN_EVENT_BYTES))
            .collect()
    };
    let read = |_: usize, logs: &[String], buffers: Vec<Vec<TraceRecord>>| {
        logs.iter()
            .zip(buffers)
            .map(|(xml, records)| read_log(xml, records))
            .collect::<Result<Vec<_>, _>>()
    };
    let (head, rest) = fan_out(xmls, threads, reserve, read);
    let mut ranks = Vec::new();
    for logs in std::iter::once(head).chain(rest) {
        ranks.extend(logs?.into_iter().flatten());
    }
    ranks.sort_by_key(|r| r.rank);
    if let Some(w) = ranks.windows(2).find(|w| w[0].rank == w[1].rank) {
        return Err(XmlError::Malformed(format!(
            "two <task>s of rank {}",
            w[0].rank
        )));
    }
    Ok(ranks
        .into_iter()
        .fold(Export::new(), Export::with_trace_rank))
}

/// Generate the HTML report page for a set of rank profiles — the format
/// "well-suited for permanent storage of the profiling report". The `Html`
/// backend of [`crate::export`] renders through this.
pub(crate) fn html_report(profiles: &[RankProfile], nodes: usize) -> String {
    let report = ClusterReport::from_profiles(profiles.to_vec(), nodes);
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(
        out,
        "<title>IPM profile: {}</title>",
        Escaped(&report.command)
    );
    out.push_str(
        "<style>body{font-family:monospace}table{border-collapse:collapse}\n\
         td,th{border:1px solid #999;padding:2px 8px;text-align:right}\n\
         th{background:#eee}td.name{text-align:left}</style></head><body>\n",
    );
    let _ = writeln!(out, "<h1>IPM profile</h1>");
    let _ = writeln!(
        out,
        "<p>command: <b>{}</b><br>tasks: {} on {} nodes<br>wallclock (max): {:.2} s<br>\
         %comm: {:.2}%<br>GPU utilization: {:.2}%</p>",
        Escaped(&report.command),
        report.nranks,
        report.nodes,
        report.wallclock_max,
        report.comm_fraction() * 100.0,
        report.gpu_utilization() * 100.0,
    );

    out.push_str("<h2>Events</h2>\n<table><tr><th>name</th><th>time [s]</th><th>count</th><th>%wall</th></tr>\n");
    for (name, stats) in report.totals_by_name() {
        let _ = writeln!(
            out,
            "<tr><td class=\"name\">{}</td><td>{:.2}</td><td>{}</td><td>{:.2}</td></tr>",
            Escaped(&name),
            stats.total,
            stats.count,
            100.0 * stats.total / report.wallclock_total.max(f64::MIN_POSITIVE),
        );
    }
    out.push_str("</table>\n");

    let kernels = report.kernel_shares();
    if !kernels.is_empty() {
        out.push_str("<h2>GPU kernels</h2>\n<table><tr><th>kernel</th><th>share of GPU time</th><th>imbalance</th></tr>\n");
        let imb = report.kernel_imbalance();
        for (k, share) in kernels {
            let i = imb
                .iter()
                .find(|(n, _)| n == &k)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            let _ = writeln!(
                out,
                "<tr><td class=\"name\">{}</td><td>{:.2}%</td><td>{:.1}%</td></tr>",
                Escaped(&k),
                share * 100.0,
                i * 100.0,
            );
        }
        out.push_str("</table>\n");
    }

    out.push_str("<h2>Per-rank wallclock</h2>\n<table><tr><th>rank</th><th>host</th><th>wallclock [s]</th><th>MPI [s]</th></tr>\n");
    for p in report.profiles() {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td class=\"name\">{}</td><td>{:.2}</td><td>{:.2}</td></tr>",
            p.rank,
            Escaped(&p.host),
            p.wallclock,
            p.family_time(crate::profile::EventFamily::Mpi),
        );
    }
    out.push_str("</table>\n</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{
        validate_otlp, Banner, ChromeTrace, ExportError, Otlp, Xml, PARALLEL_RECORDS,
    };
    use crate::profile::ProfileEntry;
    use ipm_sim_core::RunningStats;

    fn to_xml(p: &RankProfile) -> String {
        Export::from_profile(p.clone()).to(Xml).unwrap()
    }

    fn profile(rank: usize) -> RankProfile {
        let mut stats = RunningStats::new();
        stats.record(2.0);
        RankProfile {
            rank,
            nranks: 2,
            host: format!("dirac{rank:02}"),
            command: "./a.out <x>".to_owned(),
            wallclock: 10.0,
            regions: vec!["<program>".to_owned()],
            entries: vec![
                ProfileEntry {
                    name: "MPI_Allreduce".to_owned(),
                    detail: None,
                    bytes: 64,
                    region: 0,
                    stats,
                },
                ProfileEntry {
                    name: "@CUDA_EXEC_STRM00".to_owned(),
                    detail: Some("zgemm_kernel_NN".to_owned()),
                    bytes: 0,
                    region: 0,
                    stats,
                },
            ],
            dropped_events: 0,
            monitor: Default::default(),
        }
    }

    #[test]
    fn banner_regenerates_from_xml() {
        let xml = to_xml(&profile(0));
        let banner = export_from_xml(&[xml]).unwrap().to(Banner).unwrap();
        assert!(banner.contains("MPI_Allreduce"));
        assert!(banner.contains("##IPMv2.0"));
    }

    #[test]
    fn two_logs_of_one_rank_are_malformed() {
        let xmls = vec![
            to_xml(&profile(1)),
            to_xml(&profile(0)),
            to_xml(&profile(1)),
        ];
        assert_eq!(
            export_from_xml(&xmls).unwrap_err(),
            XmlError::Malformed("two <task>s of rank 1".to_owned())
        );
        // two tasks of one rank in one log, as well
        let one_log = Export::from_profiles([profile(0), profile(1), profile(0)])
            .to(Xml)
            .unwrap();
        assert_eq!(
            export_from_xml(&[one_log]).unwrap_err(),
            XmlError::Malformed("two <task>s of rank 0".to_owned())
        );
    }

    /// Four logs, in the rank order 2, 0, 3, 1, whose size puts them past
    /// the thread threshold together.
    fn big_logs() -> Vec<String> {
        let logs: Vec<String> = [2, 0, 3, 1]
            .map(|rank| {
                let records =
                    crate::export::chrome::tests::launch_storm(PARALLEL_RECORDS / 4).records;
                Export::from_profile(profile(rank))
                    .with_trace(records)
                    .to(Xml)
                    .unwrap()
            })
            .into();
        let bytes: usize = logs.iter().map(String::len).sum();
        assert!(bytes / EVENT_BYTES >= PARALLEL_RECORDS, "{bytes} bytes");
        logs
    }

    #[test]
    fn threaded_and_serial_reads_agree() {
        let logs = big_logs();
        let mut one_by_one: Vec<(usize, String)> = logs
            .iter()
            .map(|log| {
                let e = export_from_xml(std::slice::from_ref(log)).unwrap();
                (e.source().ranks[0].rank, e.to(Xml).unwrap())
            })
            .collect();
        one_by_one.sort();
        let serial: String = one_by_one.into_iter().map(|(_, xml)| xml).collect();
        for threads in 1..=5 {
            let xml = read_logs(&logs, threads).unwrap().to(Xml).unwrap();
            assert!(xml == serial, "{threads} threads");
        }
        assert!(export_from_xml(&logs).unwrap().to(Xml).unwrap() == serial);
    }

    #[test]
    fn a_threaded_read_returns_the_first_bad_logs_error() {
        let mut logs = big_logs();
        // log 2 fails at its last event, log 3 at its first line
        let last = logs[1].rfind("<event kind=\"C\"").unwrap();
        logs[1].replace_range(last..last, "<event kind=\"X\"/>\n");
        logs[2] = logs[2].replacen("rank=\"3\"", "rank=\"three\"", 1);
        let second = read_logs(&logs[1..2], 1).unwrap_err();
        assert_eq!(
            second,
            XmlError::Malformed("unknown event kind 'X'".to_owned())
        );
        assert_eq!(
            read_logs(&logs[2..3], 1).unwrap_err(),
            XmlError::BadNumber("three".to_owned())
        );
        for threads in 1..=5 {
            assert_eq!(
                read_logs(&logs, threads).unwrap_err(),
                second,
                "{threads} threads"
            );
        }
        assert_eq!(export_from_xml(&logs).unwrap_err(), second);
        // two big logs of one rank
        let mut logs = big_logs();
        logs[2] = logs[3].clone();
        for threads in 1..=5 {
            assert_eq!(
                read_logs(&logs, threads).unwrap_err(),
                XmlError::Malformed("two <task>s of rank 1".to_owned())
            );
        }
    }

    #[test]
    fn cluster_banner_from_multiple_xmls() {
        let xmls = vec![to_xml(&profile(0)), to_xml(&profile(1))];
        let banner = export_from_xml(&xmls).unwrap().nodes(2).to(Banner).unwrap();
        assert!(banner.contains("mpi_tasks : 2 on 2 nodes"));
        assert!(banner.contains("MPI_Allreduce"));
    }

    #[test]
    fn empty_log_set_is_an_error_not_a_panic() {
        let export = export_from_xml(&[]).unwrap();
        assert_eq!(export.to(Banner).unwrap_err(), ExportError::NoRanks);
        assert_eq!(export.to(ChromeTrace).unwrap_err(), ExportError::NoRanks);
        assert_eq!(export.to(Otlp).unwrap_err(), ExportError::NoRanks);
    }

    #[test]
    fn html_report_is_wellformed_enough() {
        let html = html_report(&[profile(0), profile(1)], 2);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("zgemm_kernel_NN"));
        assert!(html.contains("&lt;x&gt;")); // command escaped
        assert!(html.ends_with("</html>\n"));
        // one row per rank in the per-rank table
        assert!(html.contains("dirac00") && html.contains("dirac01"));
    }

    #[test]
    fn bad_xml_propagates_error() {
        assert!(export_from_xml(&["not xml".to_owned()]).is_err());
    }

    /// One log per rank of a launch and its kernel; `at(rank)` gives the
    /// pair's correlation id and start time.
    fn launch_logs(at: fn(usize) -> (u64, f64)) -> [String; 2] {
        use crate::trace::{TraceKind, TraceRecord};
        [0, 1].map(|rank: usize| {
            let (corr, t) = at(rank);
            let launch = TraceRecord {
                kind: TraceKind::Call,
                name: "cudaLaunch",
                detail: None,
                begin: t,
                end: t + 0.001,
                bytes: 0,
                region: 0,
                stream: None,
                corr,
                agg: None,
            };
            let kernel = TraceRecord {
                kind: TraceKind::KernelExec,
                name: "@CUDA_EXEC_STRM00",
                detail: Some(ipm_interpose::CallHandle::of("zgemm_kernel_NN").id),
                begin: t + 0.002,
                end: t + 0.05,
                stream: Some(0),
                ..launch.clone()
            };
            Export::from_profile(profile(rank))
                .with_trace(vec![launch, kernel])
                .to(Xml)
                .unwrap()
        })
    }

    #[test]
    fn chrome_trace_from_xml_logs_is_valid() {
        let json = export_from_xml(&launch_logs(|rank| (1 + rank as u64, 0.1 * rank as f64)))
            .unwrap()
            .to(ChromeTrace)
            .unwrap();
        let stats = crate::export::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(stats.processes, 2);
        assert_eq!(stats.lanes, 4, "host + stream lane per rank");
        assert_eq!(stats.slices, 4);
        assert_eq!(stats.flow_pairs, 2);
    }

    #[test]
    fn otlp_from_xml_logs_is_valid_and_linked() {
        // both ranks reuse one correlation id at the same local times: each
        // rank keeps its own link
        let json = export_from_xml(&launch_logs(|_| (5, 0.1)))
            .unwrap()
            .to(Otlp)
            .unwrap();
        let stats = validate_otlp(&json).expect("valid OTLP");
        assert_eq!(stats.resources, 2);
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.links, 2, "one launch→kernel link per rank");
    }

    #[test]
    fn chrome_trace_from_xml_applies_recorded_epochs() {
        use crate::export::validate_chrome_trace;
        use crate::trace::{TraceKind, TraceRecord};

        // two ranks whose clocks disagree: each records the shared cluster
        // instant at a different local time; after alignment both slices
        // start at the same exported ts
        let mk = |rank: usize, epoch: f64| {
            let trace = vec![TraceRecord {
                kind: TraceKind::Call,
                name: "MPI_Allreduce",
                detail: None,
                begin: epoch + 0.25,
                end: epoch + 0.5,
                bytes: 64,
                region: 0,
                stream: None,
                corr: 0,
                agg: None,
            }];
            Export::from_profile(profile(rank))
                .with_trace(trace)
                .with_epoch(epoch)
                .to(Xml)
                .unwrap()
        };
        let json = export_from_xml(&[mk(0, 5.0), mk(1, 9.0)])
            .unwrap()
            .to(ChromeTrace)
            .unwrap();
        validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(
            json.matches("\"ts\":250000,").count() + json.matches("\"ts\":250000}").count(),
            2,
            "both ranks' slices align at 0.25s past the epoch:\n{json}"
        );
    }
}

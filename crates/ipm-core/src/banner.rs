//! The IPM banner report.
//!
//! Immediately after program termination IPM writes a banner to stdout
//! summarizing the run (paper §II, shown in Figs. 4–6 and 11). Two
//! flavors, both rendered by the [`Banner`](crate::export::Banner) backend:
//!
//! * `render_banner` — single-rank banner, the Fig. 4/5/6 format: a
//!   header block plus the function table sorted by total time with
//!   `[time] [count] <%wall>` columns.
//! * `render_cluster_banner` — the multi-rank format of Fig. 11:
//!   `[total] <avg> min max` rows for wallclock and each subsystem,
//!   `%wall` and `#calls` sections, then the aggregated function table.

use crate::aggregate::ClusterReport;
use crate::profile::RankProfile;
use ipm_sim_core::units::{fmt_pct, fmt_secs};
use ipm_sim_core::RunningStats;
use std::collections::HashMap;

const RULE: &str = "##IPMv2.0########################################################\n";

/// Render a single-rank banner (Figs. 4–6). `max_rows` limits the function
/// table (0 = unlimited).
pub(crate) fn render_banner(profile: &RankProfile, max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(RULE);
    out.push_str("#\n");
    out.push_str(&format!("# command   : {}\n", profile.command));
    out.push_str(&format!("# host      : {}\n", profile.host));
    out.push_str(&format!("# wallclock : {}\n", fmt_secs(profile.wallclock)));
    out.push_str("#\n");
    out.push_str(&format!(
        "# {:<24} {:>8} {:>9} {:>9}\n",
        "", "[time]", "[count]", "<%wall>"
    ));
    let totals = profile.totals_by_name();
    let rows = if max_rows == 0 {
        totals.len()
    } else {
        max_rows.min(totals.len())
    };
    for (name, stats) in totals.into_iter().take(rows) {
        let pct = if profile.wallclock > 0.0 {
            stats.total / profile.wallclock
        } else {
            0.0
        };
        out.push_str(&format!(
            "# {:<24} {:>8} {:>9} {:>9}\n",
            name,
            fmt_secs(stats.total),
            stats.count,
            fmt_pct(pct),
        ));
    }
    out.push_str("#\n");
    out.push_str(&render_monitor_section(profile));
    out.push_str(RULE);
    out
}

/// Format wall-clock nanoseconds of monitor bookkeeping for the banner.
fn fmt_wall_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The "monitor the monitor" banner section: what IPM itself cost, on the
/// wall clock, plus trace-ring capture/drop accounting and memory.
fn render_monitor_section(profile: &RankProfile) -> String {
    let m = &profile.monitor;
    let mut out = String::new();
    out.push_str(&format!(
        "# monitor   : self {} wall-clock\n",
        fmt_wall_ns(m.self_wall_ns)
    ));
    out.push_str(&format!(
        "#             trace {} captured / {} dropped / {} compacted / {} emitted\n",
        m.trace_captured, m.trace_dropped, m.trace_compacted, m.trace_emitted
    ));
    out.push_str(&format!(
        "#             ring hwm {} bytes\n",
        m.ring_hwm_bytes
    ));
    out.push_str("#\n");
    out
}

/// Render the cluster banner (Fig. 11 format) from an aggregated report.
pub(crate) fn render_cluster_banner(report: &ClusterReport, max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(RULE);
    out.push_str("#\n");
    out.push_str(&format!("# command   : {}\n", report.command));
    out.push_str(&format!(
        "# mpi_tasks : {} on {} nodes{:>24}: {}\n",
        report.nranks,
        report.nodes,
        "%comm ",
        fmt_pct(report.comm_fraction()),
    ));
    out.push_str(&format!(
        "# wallclock : {} (max over tasks)\n",
        fmt_secs(report.wallclock_max)
    ));
    out.push_str("#\n");
    out.push_str(&format!(
        "# {:<12}: {:>10} {:>10} {:>10} {:>10}\n",
        "", "[total]", "<avg>", "min", "max"
    ));
    out.push_str(&format!(
        "# {:<12}: {:>10} {:>10} {:>10} {:>10}\n",
        "wallclock",
        fmt_secs(report.wallclock_total),
        fmt_secs(report.wallclock_total / report.nranks as f64),
        fmt_secs(report.wallclock_min),
        fmt_secs(report.wallclock_max),
    ));
    for (label, agg) in report.subsystem_rows() {
        out.push_str(&format!(
            "# {:<12}: {:>10} {:>10} {:>10} {:>10}\n",
            label,
            fmt_secs(agg.total),
            fmt_secs(agg.total / report.nranks as f64),
            fmt_secs(agg.min),
            fmt_secs(agg.max),
        ));
    }
    out.push_str("#\n");
    out.push_str(&format!(
        "# {:<36} {:>10} {:>10} {:>9}\n",
        "", "[time]", "[count]", "<%wall>"
    ));
    let totals = report.totals_by_name();
    let wall = report.wallclock_total;
    let rows = if max_rows == 0 {
        totals.len()
    } else {
        max_rows.min(totals.len())
    };
    for (name, stats) in totals.into_iter().take(rows) {
        let pct = if wall > 0.0 { stats.total / wall } else { 0.0 };
        out.push_str(&format!(
            "# {:<36} {:>10} {:>10} {:>9}\n",
            name,
            fmt_secs(stats.total),
            stats.count,
            fmt_pct(pct),
        ));
    }
    out.push_str("#\n");
    out.push_str(RULE);
    out
}

/// Render the per-region breakdown (IPM's `MPI_Pcontrol` regions): one
/// section per user region, each with its own function table.
pub(crate) fn render_region_report(profile: &RankProfile, max_rows: usize) -> String {
    let mut out = String::new();
    for (region_id, region_name) in profile.regions.iter().enumerate() {
        let mut map: HashMap<&str, RunningStats> = HashMap::new();
        for e in profile
            .entries
            .iter()
            .filter(|e| e.region as usize == region_id)
        {
            map.entry(&e.name).or_default().merge(&e.stats);
        }
        if map.is_empty() {
            continue;
        }
        let mut rows: Vec<_> = map.into_iter().collect();
        rows.sort_by(|a, b| {
            b.1.total
                .partial_cmp(&a.1.total)
                .expect("finite totals")
                .then_with(|| a.0.cmp(b.0))
        });
        let region_total: f64 = rows.iter().map(|(_, s)| s.total).sum();
        out.push_str(&format!(
            "# region {:<24} [events: {:.2} s]
",
            region_name, region_total
        ));
        let limit = if max_rows == 0 {
            rows.len()
        } else {
            max_rows.min(rows.len())
        };
        for (name, stats) in rows.into_iter().take(limit) {
            out.push_str(&format!(
                "#   {:<24} {:>8} {:>9}
",
                name,
                fmt_secs(stats.total),
                stats.count,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileEntry;
    use ipm_sim_core::RunningStats;

    fn sample_profile() -> RankProfile {
        let mk = |name: &str, total: f64, count: u64| {
            let mut stats = RunningStats::new();
            for _ in 0..count {
                stats.record(total / count as f64);
            }
            ProfileEntry {
                name: name.to_owned(),
                detail: None,
                bytes: 0,
                region: 0,
                stats,
            }
        };
        RankProfile {
            rank: 0,
            nranks: 1,
            host: "dirac15".to_owned(),
            command: "./cuda.ipm".to_owned(),
            wallclock: 3.59,
            regions: vec!["<program>".to_owned()],
            entries: vec![
                mk("cudaMalloc", 2.43, 1),
                mk("cudaMemcpy(D2H)", 1.16, 1),
                mk("cudaMemcpy(H2D)", 0.01, 1),
                mk("cudaSetupArgument", 0.0, 2),
                mk("cudaLaunch", 0.0, 1),
            ],
            dropped_events: 0,
            monitor: crate::profile::MonitorInfo {
                self_wall_ns: 12_500,
                trace_emitted: 6,
                trace_captured: 6,
                trace_dropped: 0,
                trace_compacted: 0,
                ring_hwm_bytes: 768,
            },
        }
    }

    #[test]
    fn banner_matches_fig4_structure() {
        let banner = render_banner(&sample_profile(), 0);
        assert!(banner.starts_with("##IPMv2.0"));
        assert!(banner.contains("# command   : ./cuda.ipm"));
        assert!(banner.contains("# host      : dirac15"));
        assert!(banner.contains("# wallclock : 3.59"));
        assert!(banner.contains("[time]"));
        assert!(banner.contains("<%wall>"));
        // sorted: cudaMalloc first with ~67.7% of wall
        let malloc_line = banner
            .lines()
            .find(|l| l.contains("cudaMalloc"))
            .expect("cudaMalloc row");
        assert!(malloc_line.contains("2.43"));
        assert!(
            malloc_line.contains("67.69") || malloc_line.contains("67.7"),
            "{malloc_line}"
        );
        // ordering: Malloc before D2H before H2D
        let pos = |s: &str| banner.find(s).unwrap();
        assert!(pos("cudaMalloc") < pos("cudaMemcpy(D2H)"));
        assert!(pos("cudaMemcpy(D2H)") < pos("cudaMemcpy(H2D)"));
    }

    #[test]
    fn monitor_section_is_golden() {
        let banner = render_banner(&sample_profile(), 0);
        let expected = "\
# monitor   : self 12.5 us wall-clock
#             trace 6 captured / 0 dropped / 0 compacted / 6 emitted
#             ring hwm 768 bytes
";
        assert!(
            banner.contains(expected),
            "monitor section drifted:\n{banner}"
        );
    }

    #[test]
    fn wall_ns_formatting_picks_sane_units() {
        assert_eq!(fmt_wall_ns(999), "999 ns");
        assert_eq!(fmt_wall_ns(12_500), "12.5 us");
        assert_eq!(fmt_wall_ns(3_400_000), "3.4 ms");
        assert_eq!(fmt_wall_ns(2_150_000_000), "2.15 s");
    }

    #[test]
    fn max_rows_truncates_table() {
        let banner = render_banner(&sample_profile(), 2);
        assert!(banner.contains("cudaMalloc"));
        assert!(banner.contains("cudaMemcpy(D2H)"));
        assert!(!banner.contains("cudaSetupArgument"));
    }

    #[test]
    fn region_report_sections_follow_regions() {
        let mut p = sample_profile();
        p.regions.push("solver".to_owned());
        let mut stats = RunningStats::new();
        stats.record(7.0);
        p.entries.push(crate::profile::ProfileEntry {
            name: "MPI_Allreduce".to_owned(),
            detail: None,
            bytes: 64,
            region: 1,
            stats,
        });
        let report = render_region_report(&p, 0);
        assert!(report.contains("region <program>"));
        assert!(report.contains("region solver"));
        // the solver section contains the allreduce, the program section
        // contains cudaMalloc
        let solver_pos = report.find("region solver").unwrap();
        let allreduce_pos = report.find("MPI_Allreduce").unwrap();
        assert!(allreduce_pos > solver_pos);
    }

    #[test]
    fn zero_wallclock_renders_without_panicking() {
        let mut p = sample_profile();
        p.wallclock = 0.0;
        let banner = render_banner(&p, 0);
        assert!(banner.contains("0.00"));
    }
}

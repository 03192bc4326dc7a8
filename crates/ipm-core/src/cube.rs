//! CUBE conversion.
//!
//! IPM profiles can be converted "into the CUBE format … particularly well
//! suited for the interactive exploration of performance data using the
//! CUBE GUI" (paper §II; Fig. 9 is a CUBE screenshot of the HPL run). CUBE
//! organizes data along three dimensions: a **metric tree**, a **call
//! tree** (here: the CUDA metric hierarchy above the MPI hierarchy, as the
//! Fig. 9 caption describes), and the **system tree** (nodes → ranks).
//!
//! This module builds the metric tree; the `Cube` and `CubeXml` backends of
//! [`crate::export`] render it as the text view used by the `repro-fig9`
//! experiment binary and as a machine-readable CUBE-like XML document.

use crate::aggregate::ClusterReport;
use crate::profile::EventFamily;
use crate::xml::Escaped;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One metric node of the CUBE hierarchy with per-rank severity values.
#[derive(Clone, Debug)]
pub struct CubeMetric {
    pub name: String,
    /// Value per rank (the "severity" in CUBE terms), seconds.
    pub per_rank: Vec<f64>,
    pub children: Vec<CubeMetric>,
}

impl CubeMetric {
    /// Sum over ranks.
    pub fn total(&self) -> f64 {
        self.per_rank.iter().sum()
    }

    /// Recursively count nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(CubeMetric::node_count)
            .sum::<usize>()
    }
}

/// Build the CUBE metric hierarchy from an aggregated report: the CUDA
/// hierarchy (per-stream kernel execution, host idle, API time) above the
/// MPI hierarchy (per-call totals) — Fig. 9's layout.
pub fn build_cube(report: &ClusterReport) -> CubeMetric {
    let nranks = report.nranks;
    let per_rank_of =
        |name: &str| -> Vec<f64> { report.profiles().iter().map(|p| p.time_of(name)).collect() };

    // the stream names with the kernels each ran, and the MPI call names,
    // over every rank, in name order
    let mut streams: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut mpi_names: BTreeSet<&str> = BTreeSet::new();
    for e in report.profiles().iter().flat_map(|p| &p.entries) {
        match e.family() {
            EventFamily::GpuExec => streams
                .entry(&e.name)
                .or_default()
                .extend(e.detail.as_deref()),
            EventFamily::Mpi => {
                mpi_names.insert(&e.name);
            }
            _ => {}
        }
    }

    // CUDA subtree: kernels per stream
    let mut stream_children: Vec<CubeMetric> = Vec::new();
    for (sname, kernel_names) in streams {
        let children: Vec<CubeMetric> = kernel_names
            .into_iter()
            .map(|k| CubeMetric {
                per_rank: report
                    .profiles()
                    .iter()
                    .map(|p| {
                        p.entries
                            .iter()
                            .filter(|e| e.name == sname && e.detail.as_deref() == Some(k))
                            .map(|e| e.stats.total)
                            .sum()
                    })
                    .collect(),
                name: k.to_owned(),
                children: Vec::new(),
            })
            .collect();
        stream_children.push(CubeMetric {
            name: sname.to_owned(),
            per_rank: per_rank_of(sname),
            children,
        });
    }

    let cuda_api: Vec<f64> = report
        .profiles()
        .iter()
        .map(|p| p.family_time(EventFamily::Cuda))
        .collect();
    let host_idle: Vec<f64> = report
        .profiles()
        .iter()
        .map(|p| p.family_time(EventFamily::HostIdle))
        .collect();
    let cuda_subtree = CubeMetric {
        name: "CUDA".to_owned(),
        per_rank: (0..nranks)
            .map(|r| {
                cuda_api[r]
                    + host_idle[r]
                    + stream_children.iter().map(|s| s.per_rank[r]).sum::<f64>()
            })
            .collect(),
        children: {
            let mut ch = vec![
                CubeMetric {
                    name: "API time".to_owned(),
                    per_rank: cuda_api,
                    children: vec![],
                },
                CubeMetric {
                    name: "@CUDA_HOST_IDLE".to_owned(),
                    per_rank: host_idle,
                    children: vec![],
                },
            ];
            ch.extend(stream_children);
            ch
        },
    };

    // MPI subtree: one child per MPI call
    let mpi_children: Vec<CubeMetric> = mpi_names
        .into_iter()
        .map(|n| CubeMetric {
            name: n.to_owned(),
            per_rank: per_rank_of(n),
            children: vec![],
        })
        .collect();
    let mpi_subtree = CubeMetric {
        name: "MPI".to_owned(),
        per_rank: report
            .profiles()
            .iter()
            .map(|p| p.family_time(EventFamily::Mpi))
            .collect(),
        children: mpi_children,
    };

    CubeMetric {
        name: "time".to_owned(),
        per_rank: report.profiles().iter().map(|p| p.wallclock).collect(),
        // CUDA hierarchy above MPI, per the Fig. 9 caption
        children: vec![cuda_subtree, mpi_subtree],
    }
}

/// Serialize a metric tree as CUBE-like XML, names and hosts escaped as in
/// the profiling log.
pub(crate) fn cube_to_xml(root: &CubeMetric, report: &ClusterReport) -> String {
    let mut out = String::new();
    out.push_str("<cube version=\"4.0\">\n  <system>\n");
    for p in report.profiles() {
        let _ = writeln!(
            out,
            "    <rank id=\"{}\" host=\"{}\"/>",
            p.rank,
            Escaped(&p.host)
        );
    }
    out.push_str("  </system>\n");
    write_metric(&mut out, root, 1);
    out.push_str("</cube>\n");
    out
}

fn write_metric(out: &mut String, m: &CubeMetric, depth: usize) {
    let pad = "  ".repeat(depth);
    let values: Vec<String> = m.per_rank.iter().map(|v| format!("{v:.6}")).collect();
    let _ = writeln!(
        out,
        "{pad}<metric name=\"{}\" total=\"{:.6}\" severity=\"{}\">",
        Escaped(&m.name),
        m.total(),
        values.join(",")
    );
    for c in &m.children {
        write_metric(out, c, depth + 1);
    }
    let _ = writeln!(out, "{pad}</metric>");
}

/// Text rendering of the metric tree with per-rank distribution summaries
/// — the console stand-in for the CUBE GUI view of Fig. 9.
pub(crate) fn render_cube_text(root: &CubeMetric) -> String {
    let mut out = String::new();
    render_node(&mut out, root, 0);
    out
}

fn render_node(out: &mut String, m: &CubeMetric, depth: usize) {
    let pad = "  ".repeat(depth);
    let n = m.per_rank.len().max(1);
    let min = m.per_rank.iter().copied().fold(f64::INFINITY, f64::min);
    let max = m.per_rank.iter().copied().fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "{pad}{:<40} total {:>10.3}s  avg {:>9.3}s  min {:>9.3}s  max {:>9.3}s",
        m.name,
        m.total(),
        m.total() / n as f64,
        if min.is_finite() { min } else { 0.0 },
        max,
    );
    for c in &m.children {
        render_node(out, c, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileEntry, RankProfile};
    use ipm_sim_core::RunningStats;

    fn report() -> ClusterReport {
        let mk = |rank: usize| {
            let mut s = RunningStats::new();
            s.record(1.0 + rank as f64);
            let entry = |name: &str, detail: Option<&str>| ProfileEntry {
                name: name.to_owned(),
                detail: detail.map(str::to_owned),
                bytes: 0,
                region: 0,
                stats: s,
            };
            RankProfile {
                rank,
                nranks: 2,
                host: format!("dirac{rank:02}"),
                command: "hpl".to_owned(),
                wallclock: 10.0,
                regions: vec!["<program>".to_owned()],
                entries: vec![
                    entry("@CUDA_EXEC_STRM00", Some("dgemm_nn_e_kernel")),
                    entry("@CUDA_EXEC_STRM00", Some("transpose")),
                    entry("MPI_Send", None),
                    entry("cudaMemcpy(D2H)", None),
                    entry("@CUDA_HOST_IDLE", None),
                ],
                dropped_events: 0,
                monitor: Default::default(),
            }
        };
        ClusterReport::from_profiles(vec![mk(0), mk(1)], 2)
    }

    #[test]
    fn cube_tree_has_cuda_above_mpi() {
        let cube = build_cube(&report());
        assert_eq!(cube.name, "time");
        assert_eq!(cube.children[0].name, "CUDA");
        assert_eq!(cube.children[1].name, "MPI");
    }

    #[test]
    fn kernels_nest_under_streams() {
        let cube = build_cube(&report());
        let cuda = &cube.children[0];
        let stream = cuda
            .children
            .iter()
            .find(|c| c.name == "@CUDA_EXEC_STRM00")
            .expect("stream node");
        let names: Vec<&str> = stream.children.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"dgemm_nn_e_kernel"));
        assert!(names.contains(&"transpose"));
        // per-rank values present for each rank
        assert_eq!(stream.children[0].per_rank.len(), 2);
    }

    #[test]
    fn totals_aggregate_children_consistently() {
        let cube = build_cube(&report());
        let mpi = &cube.children[1];
        let child_sum: f64 = mpi.children.iter().map(CubeMetric::total).sum();
        assert!((mpi.total() - child_sum).abs() < 1e-9);
    }

    #[test]
    fn xml_and_text_renderings_contain_the_tree() {
        let r = report();
        let cube = build_cube(&r);
        let xml = cube_to_xml(&cube, &r);
        assert!(xml.contains("<cube version=\"4.0\">"));
        assert!(xml.contains("dgemm_nn_e_kernel"));
        assert!(xml.contains("<rank id=\"1\" host=\"dirac01\"/>"));
        let text = render_cube_text(&cube);
        assert!(text.contains("@CUDA_EXEC_STRM00"));
        assert!(text.contains("MPI_Send"));
        assert!(cube.node_count() >= 8);
    }

    #[test]
    fn cube_xml_escapes_names_and_hosts() {
        let mut profiles = report().profiles().to_vec();
        profiles[0].host = "h\"x".to_owned();
        profiles[0].entries[0].detail = Some("void k<float>(a&b)".to_owned());
        let r = ClusterReport::from_profiles(profiles, 2);
        let xml = cube_to_xml(&build_cube(&r), &r);
        assert!(xml.contains("<rank id=\"0\" host=\"h&quot;x\"/>"), "{xml}");
        assert!(
            xml.contains("<metric name=\"void k&lt;float&gt;(a&amp;b)\""),
            "{xml}"
        );
        assert!(!xml.contains("k<float>") && !xml.contains("h\"x"), "{xml}");
    }
}

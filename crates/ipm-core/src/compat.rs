//! Compatibility layer: deprecated export entry points, plus the legacy
//! string-keyed record path kept alive as a differential-test oracle.
//!
//! Before the unified [`crate::export`] pipeline, each rendering was a free
//! function with its own `(profile, trace, epoch)` plumbing. Those names
//! live on here as thin forwarding shims so external code keeps compiling;
//! everything in-repo uses the [`crate::export::Export`] builder (the
//! workspace denies `deprecated`, so a stray in-repo caller of these is a
//! build error). See DESIGN.md for the old-name → new-call migration table.
//!
//! [`LegacyMirror`] reconstructs the pre-interning record path — an
//! [`EventSignature`] built with a fresh `Arc<str>` per recorded call,
//! hashed on the name string — so tests can run both paths against the
//! same event stream and demand byte-identical reports.

use crate::aggregate::ClusterReport;
use crate::profile::{ProfileEntry, RankProfile};
use crate::sig::EventSignature;
use crate::trace::{TraceRank, TraceRecord};
use ipm_interpose::{CallHandle, CallId, NameTable};
use ipm_sim_core::RunningStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The pre-refactor record path, replayed next to the interned one.
///
/// Installed on an [`crate::Ipm`] via `install_mirror`, it receives every
/// event the primary [`crate::PerfTable`] receives and records it the way
/// the pre-[`crate::sig::SigKey`] monitor did: resolve the name *per call*,
/// allocate a fresh `Arc<str>` for the signature (the duplication the
/// refactor removed), and key a single string-hashed map with it. The
/// differential test swaps its entries into a cloned profile and demands
/// the rendered banner / region report / XML match the primary byte for
/// byte.
#[derive(Default)]
pub struct LegacyMirror {
    table: Mutex<HashMap<EventSignature, RunningStats>>,
}

impl LegacyMirror {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Legacy form of [`ipm_interpose::MonitorSink::update`]: per-call
    /// name resolution and `Arc` allocation, string-keyed insert.
    pub fn update(&self, call: CallHandle, bytes: u64, region: u16, duration: f64) {
        let sig = EventSignature {
            name: Arc::from(call.name()),
            bytes,
            region,
            detail: None,
        };
        self.table.lock().entry(sig).or_default().record(duration);
    }

    /// Legacy form of [`crate::Ipm::update_pseudo`].
    pub fn pseudo(&self, name: CallId, detail: Option<CallId>, region: u16, duration: f64) {
        let names = NameTable::global();
        let sig = EventSignature {
            name: Arc::from(names.name(name)),
            bytes: 0,
            region,
            detail: detail.map(|d| Arc::from(names.name(d))),
        };
        self.table.lock().entry(sig).or_default().record(duration);
    }

    /// The mirror's accumulated table, in [`crate::PerfTable::snapshot`]
    /// order, so the two paths compare positionally.
    pub fn snapshot(&self) -> Vec<(EventSignature, RunningStats)> {
        let mut out: Vec<(EventSignature, RunningStats)> = self
            .table
            .lock()
            .iter()
            .map(|(sig, stats)| (sig.clone(), *stats))
            .collect();
        out.sort_by(|(a, _), (b, _)| {
            (&a.name, a.bytes, a.region, &a.detail).cmp(&(&b.name, b.bytes, b.region, &b.detail))
        });
        out
    }

    /// The mirror's table as profile entries — drop-in replacement for a
    /// [`RankProfile::entries`] built from the primary table.
    pub fn profile_entries(&self) -> Vec<ProfileEntry> {
        self.snapshot()
            .into_iter()
            .map(|(sig, stats)| ProfileEntry {
                name: sig.name.to_string(),
                detail: sig.detail.as_ref().map(|d| d.to_string()),
                bytes: sig.bytes,
                region: sig.region,
                stats,
            })
            .collect()
    }
}

/// The banner report for one rank.
#[deprecated(
    since = "0.1.0",
    note = "use Export::from_profile(p).max_rows(n).to(Banner)"
)]
pub fn render_banner(profile: &RankProfile, max_rows: usize) -> String {
    crate::banner::render_banner(profile, max_rows)
}

/// The cross-rank cluster banner.
#[deprecated(
    since = "0.1.0",
    note = "use Export::from_profiles(ps).nodes(n).max_rows(r).to(Banner)"
)]
pub fn render_cluster_banner(report: &ClusterReport, max_rows: usize) -> String {
    crate::banner::render_cluster_banner(report, max_rows)
}

/// The per-region breakdown report.
#[deprecated(
    since = "0.1.0",
    note = "use Export::from_profile(p).max_rows(n).to(RegionReport)"
)]
pub fn render_region_report(profile: &RankProfile, max_rows: usize) -> String {
    crate::banner::render_region_report(profile, max_rows)
}

/// XML log with an embedded (epoch-0) trace section.
#[deprecated(
    since = "0.1.0",
    note = "use Export::from_profile(p).with_trace(t).to(Xml)"
)]
pub fn to_xml_with_trace(p: &RankProfile, trace: &[TraceRecord]) -> String {
    xml_with_trace(p, trace, 0.0)
}

/// XML log with an embedded trace section and explicit epoch.
#[deprecated(
    since = "0.1.0",
    note = "use Export::from_profile(p).with_trace(t).with_epoch(e).to(Xml)"
)]
pub fn to_xml_with_trace_at(p: &RankProfile, trace: &[TraceRecord], epoch: f64) -> String {
    xml_with_trace(p, trace, epoch)
}

fn xml_with_trace(p: &RankProfile, trace: &[TraceRecord], epoch: f64) -> String {
    let mut out = String::new();
    crate::xml::write_xml(&mut out, p, trace, epoch);
    out
}

/// Chrome trace-event JSON for a set of ranks.
#[deprecated(
    since = "0.1.0",
    note = "use Export::new().with_trace_rank(r).to(ChromeTrace)"
)]
pub fn chrome_trace(ranks: &[TraceRank]) -> String {
    let ranks: Vec<crate::export::ExportRank> = ranks
        .iter()
        .cloned()
        .map(crate::export::ExportRank::from_trace_rank)
        .collect();
    crate::export::chrome::chrome_trace_json(&ranks)
}

/// The `ipm_parse -html` report page.
#[deprecated(
    since = "0.1.0",
    note = "use Export::from_profiles(ps).nodes(n).to(Html)"
)]
pub fn html_report(profiles: &[RankProfile], nodes: usize) -> String {
    crate::parse::html_report(profiles, nodes)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::export::{Banner, ChromeTrace, Export, Html, RegionReport, Xml};
    use crate::monitor::{Ipm, IpmConfig};
    use crate::trace::TraceKind;
    use ipm_gpu_sim::{CudaApi, GpuConfig, GpuRuntime};
    use std::sync::Arc;

    fn profiled_run() -> (RankProfile, Vec<TraceRecord>) {
        let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        ipm.set_metadata(0, 1, "dirac00", "./cuda.ipm");
        let cuda = crate::cuda_mon::IpmCuda::new(ipm.clone(), rt);
        let dev = cuda.cuda_malloc(4096).unwrap();
        cuda.cuda_free(dev).unwrap();
        (ipm.profile(), ipm.drain_trace())
    }

    #[test]
    fn shims_match_the_builder_output_exactly() {
        let (profile, trace) = profiled_run();

        assert_eq!(
            render_banner(&profile, 10),
            Export::from_profile(profile.clone())
                .max_rows(10)
                .to(Banner)
                .unwrap()
        );
        assert_eq!(
            render_region_report(&profile, 5),
            Export::from_profile(profile.clone())
                .max_rows(5)
                .to(RegionReport)
                .unwrap()
        );
        assert_eq!(
            to_xml_with_trace(&profile, &trace),
            Export::from_profile(profile.clone())
                .with_trace(trace.clone())
                .to(Xml)
                .unwrap()
        );
        assert_eq!(
            to_xml_with_trace_at(&profile, &trace, 1.5),
            Export::from_profile(profile.clone())
                .with_trace(trace.clone())
                .with_epoch(1.5)
                .to(Xml)
                .unwrap()
        );
        assert_eq!(
            html_report(std::slice::from_ref(&profile), 1),
            Export::from_profile(profile.clone())
                .nodes(1)
                .to(Html)
                .unwrap()
        );

        // the builder renders the cluster banner once >1 rank is present
        let mut p1 = profile.clone();
        p1.rank = 1;
        let report = ClusterReport::from_profiles(vec![profile.clone(), p1.clone()], 1);
        assert_eq!(
            render_cluster_banner(&report, 8),
            Export::from_profiles([profile.clone(), p1])
                .nodes(1)
                .max_rows(8)
                .to(Banner)
                .unwrap()
        );

        let rank = TraceRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records: trace
                .iter()
                .filter(|t| t.kind != TraceKind::KernelExec)
                .cloned()
                .collect(),
            prof: Vec::new(),
        };
        assert_eq!(
            chrome_trace(std::slice::from_ref(&rank)),
            Export::new().with_trace_rank(rank).to(ChromeTrace).unwrap()
        );
    }
}

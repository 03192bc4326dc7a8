//! Profile data model: what one rank's monitoring run produces.
//!
//! A [`RankProfile`] is the content of IPM's XML log for one MPI task: the
//! run metadata plus every hash-table entry. [`RankProfile`] also derives
//! the high-level characteristics the banner reports (%comm, GPU
//! utilization, host idle time) by classifying entry names into families.

use ipm_sim_core::RunningStats;

/// Which subsystem an event belongs to, derived from its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventFamily {
    Mpi,
    /// CUDA runtime/driver host-side calls.
    Cuda,
    Cublas,
    Cufft,
    /// `@CUDA_EXEC_*` pseudo-events: kernel time on the device.
    GpuExec,
    /// `@CUDA_HOST_IDLE`.
    HostIdle,
    Other,
}

/// Classify an event name (banner families, paper Figs. 4–6 and 11).
pub fn classify(name: &str) -> EventFamily {
    if name.starts_with("@CUDA_EXEC") {
        EventFamily::GpuExec
    } else if name == "@CUDA_HOST_IDLE" {
        EventFamily::HostIdle
    } else if name.starts_with("MPI_") {
        EventFamily::Mpi
    } else if name.starts_with("cublas") {
        EventFamily::Cublas
    } else if name.starts_with("cufft") {
        EventFamily::Cufft
    } else if name.starts_with("cuda") || name.starts_with("cu") {
        EventFamily::Cuda
    } else {
        EventFamily::Other
    }
}

/// One hash-table entry in a profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEntry {
    pub name: String,
    /// Kernel symbol for GPU-exec entries.
    pub detail: Option<String>,
    pub bytes: u64,
    pub region: u16,
    pub stats: RunningStats,
}

impl ProfileEntry {
    /// The family this entry belongs to.
    pub fn family(&self) -> EventFamily {
        classify(&self.name)
    }
}

/// Monitor self-accounting: what the monitoring itself cost, measured on
/// the *wall* clock (real nanoseconds of bookkeeping — hash-table updates,
/// trace capture, KTT sweeps — not virtual time, which belongs to the
/// modeled run). The "monitor the monitor" numbers behind the banner's
/// `# monitor:` section and the XML `<monitor>` element.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorInfo {
    /// Wall-clock nanoseconds spent inside IPM bookkeeping.
    pub self_wall_ns: u64,
    /// Trace records offered to the ring.
    pub trace_emitted: u64,
    /// Trace records stored (possibly later drained).
    pub trace_captured: u64,
    /// Trace records refused because the ring was full.
    pub trace_dropped: u64,
    /// Trace records absorbed into summaries by a compacting ring. The ring
    /// no longer compacts, so this is 0 for a live rank, which keeps
    /// `trace_captured + trace_dropped == trace_emitted`; it can be nonzero
    /// only when read from a log written by a compacting ring. Kept for such
    /// logs, and while `perfbench/` still reads it; the banner and the XML
    /// log still print it.
    pub trace_compacted: u64,
    /// High-water memory footprint of the trace ring's record slots, bytes.
    pub ring_hwm_bytes: u64,
}

/// The complete monitoring output of one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct RankProfile {
    pub rank: usize,
    pub nranks: usize,
    pub host: String,
    pub command: String,
    /// Total wallclock (virtual seconds) of the monitored run.
    pub wallclock: f64,
    /// User region names; index 0 is the whole program.
    pub regions: Vec<String>,
    pub entries: Vec<ProfileEntry>,
    /// Events dropped by table/KTT capacity limits (monitoring fidelity
    /// diagnostics).
    pub dropped_events: u64,
    /// Self-accounting of the monitor's own cost.
    pub monitor: MonitorInfo,
}

impl RankProfile {
    /// Total time in entries of one family.
    pub fn family_time(&self, family: EventFamily) -> f64 {
        // `+ 0.0` normalizes the empty-sum identity (-0.0) to +0.0
        self.entries
            .iter()
            .filter(|e| e.family() == family)
            .map(|e| e.stats.total)
            .sum::<f64>()
            + 0.0
    }

    /// Communication fraction of wallclock (`%comm` in the banner).
    pub fn comm_fraction(&self) -> f64 {
        if self.wallclock == 0.0 {
            return 0.0;
        }
        self.family_time(EventFamily::Mpi) / self.wallclock
    }

    /// GPU utilization: device kernel time over wallclock (the paper's
    /// Amber study reports 35.96%).
    pub fn gpu_utilization(&self) -> f64 {
        if self.wallclock == 0.0 {
            return 0.0;
        }
        self.family_time(EventFamily::GpuExec) / self.wallclock
    }

    /// Total implicit host blocking (`@CUDA_HOST_IDLE`).
    pub fn host_idle_time(&self) -> f64 {
        self.family_time(EventFamily::HostIdle)
    }

    /// Aggregate stats per name, sorted by descending total time — the
    /// banner's function table.
    pub fn totals_by_name(&self) -> Vec<(String, RunningStats)> {
        let mut map = std::collections::HashMap::<String, RunningStats>::new();
        for e in &self.entries {
            map.entry(e.name.clone()).or_default().merge(&e.stats);
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.total
                .partial_cmp(&a.1.total)
                .expect("finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }

    /// Per-kernel device time: `(kernel symbol, stream-summed stats)`,
    /// sorted by descending total — the XML log's per-kernel breakdown.
    pub fn kernel_breakdown(&self) -> Vec<(String, RunningStats)> {
        let mut map = std::collections::HashMap::<String, RunningStats>::new();
        for e in &self.entries {
            if e.family() == EventFamily::GpuExec {
                let key = e.detail.clone().unwrap_or_else(|| "<unknown>".to_owned());
                map.entry(key).or_default().merge(&e.stats);
            }
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort_by(|a, b| b.1.total.partial_cmp(&a.1.total).expect("finite"));
        out
    }

    /// Total time for one entry name (0 when absent).
    pub fn time_of(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.stats.total)
            .sum::<f64>()
            + 0.0
    }

    /// Call count for one entry name.
    pub fn count_of(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.stats.count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, total: f64) -> ProfileEntry {
        let mut stats = RunningStats::new();
        stats.record(total);
        ProfileEntry {
            name: name.to_owned(),
            detail: None,
            bytes: 0,
            region: 0,
            stats,
        }
    }

    fn profile(entries: Vec<ProfileEntry>) -> RankProfile {
        RankProfile {
            rank: 0,
            nranks: 1,
            host: "dirac15".to_owned(),
            command: "./cuda.ipm".to_owned(),
            wallclock: 10.0,
            regions: vec!["<program>".to_owned()],
            entries,
            dropped_events: 0,
            monitor: MonitorInfo::default(),
        }
    }

    #[test]
    fn classification_covers_all_families() {
        assert_eq!(classify("MPI_Allreduce"), EventFamily::Mpi);
        assert_eq!(classify("cudaMemcpy(D2H)"), EventFamily::Cuda);
        assert_eq!(classify("cuMemcpyDtoH"), EventFamily::Cuda);
        assert_eq!(classify("cublasZgemm"), EventFamily::Cublas);
        assert_eq!(classify("cufftExecZ2Z"), EventFamily::Cufft);
        assert_eq!(classify("@CUDA_EXEC_STRM00"), EventFamily::GpuExec);
        assert_eq!(classify("@CUDA_HOST_IDLE"), EventFamily::HostIdle);
        assert_eq!(classify("fopen"), EventFamily::Other);
    }

    #[test]
    fn fractions_derive_from_families() {
        let p = profile(vec![
            entry("MPI_Send", 2.0),
            entry("@CUDA_EXEC_STRM00", 3.5),
            entry("@CUDA_HOST_IDLE", 1.0),
            entry("cudaMemcpy(D2H)", 0.5),
        ]);
        assert!((p.comm_fraction() - 0.2).abs() < 1e-12);
        assert!((p.gpu_utilization() - 0.35).abs() < 1e-12);
        assert_eq!(p.host_idle_time(), 1.0);
    }

    #[test]
    fn kernel_breakdown_groups_by_detail() {
        let mut e1 = entry("@CUDA_EXEC_STRM00", 1.0);
        e1.detail = Some("square".to_owned());
        let mut e2 = entry("@CUDA_EXEC_STRM01", 2.0);
        e2.detail = Some("square".to_owned());
        let mut e3 = entry("@CUDA_EXEC_STRM00", 0.5);
        e3.detail = Some("transpose".to_owned());
        let p = profile(vec![e1, e2, e3]);
        let breakdown = p.kernel_breakdown();
        assert_eq!(breakdown[0].0, "square");
        assert_eq!(breakdown[0].1.total, 3.0);
        assert_eq!(breakdown[1].0, "transpose");
    }

    #[test]
    fn totals_by_name_merge_variants_and_sort_descending_then_by_name() {
        let mut h2d_small = entry("cudaMemcpy(H2D)", 0.5);
        h2d_small.bytes = 100;
        let mut h2d_large = entry("cudaMemcpy(H2D)", 1.5);
        h2d_large.bytes = 200;
        let p = profile(vec![
            entry("small", 0.1),
            h2d_small,
            entry("big", 5.0),
            h2d_large,
            entry("tie_b", 2.0),
            entry("tie_a", 2.0),
        ]);
        let totals = p.totals_by_name();
        let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["big", "cudaMemcpy(H2D)", "tie_a", "tie_b", "small"],
            "byte variants merge; descending total; equal totals by name"
        );
        assert_eq!(totals[1].1.count, 2);
        assert_eq!(totals[1].1.total, 2.0);
    }

    #[test]
    fn zero_wallclock_is_safe() {
        let mut p = profile(vec![entry("MPI_Send", 1.0)]);
        p.wallclock = 0.0;
        assert_eq!(p.comm_fraction(), 0.0);
        assert_eq!(p.gpu_utilization(), 0.0);
    }

    #[test]
    fn lookups_by_name() {
        let p = profile(vec![entry("cudaLaunch", 0.25), entry("cudaLaunch", 0.75)]);
        assert_eq!(p.time_of("cudaLaunch"), 1.0);
        assert_eq!(p.count_of("cudaLaunch"), 2);
        assert_eq!(p.time_of("nothere"), 0.0);
    }
}

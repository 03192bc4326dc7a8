//! The device-side ground-truth profiler (`CUDA_PROFILE=1` analogue).
//!
//! Section IV-A of the paper validates IPM's event-based kernel timing
//! against "the CUDA profiler", which the real runtime activates through the
//! `CUDA_PROFILE` environment variable and which logs per-invocation kernel
//! statistics to a file. Our simulator records exactly what that profiler
//! sees: the **true device-side duration** of every kernel and memory
//! transfer, free of the event-bracketing overhead that IPM's method pays.
//! This is the comparator column of Table I.

use crate::device::StreamId;

/// Kind of device operation recorded by the profiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfKind {
    Kernel,
    MemcpyH2D,
    MemcpyD2H,
    MemcpyD2D,
    MemcpyToSymbol,
    Memset,
}

/// One line of the profiler log.
#[derive(Clone, Debug)]
pub struct ProfRecord {
    /// Kernel symbol or `memcpy*` method name.
    pub method: String,
    pub kind: ProfKind,
    pub stream: StreamId,
    /// Device start timestamp (virtual seconds).
    pub start: f64,
    /// True device-side duration (virtual seconds).
    pub gputime: f64,
    /// Host-side duration of the submitting call (virtual seconds).
    pub cputime: f64,
    /// Process-unique correlation id linking this device record to the
    /// host-side API call that submitted it (0 when untracked). The
    /// nvprof/CUPTI `correlationId` analogue; trace exporters use it to
    /// draw launch→kernel flow arrows.
    pub corr: u64,
}

/// Accumulates profiler records for one context.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    records: Vec<ProfRecord>,
}

impl Profiler {
    /// A profiler in the given state; disabled profilers drop records.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            records: Vec::new(),
        }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one device operation. `rec` builds the record, and runs only
    /// when the profiler is enabled, so a disabled profiler costs the
    /// submitting call no allocation.
    pub fn record(&mut self, rec: impl FnOnce() -> ProfRecord) {
        if self.enabled {
            self.records.push(rec());
        }
    }

    /// All records so far, in submission order.
    pub fn records(&self) -> &[ProfRecord] {
        &self.records
    }

    /// Sum of true device durations for the kernel `name` — the number the
    /// paper's Table I derives from the CUDA profiler log ("we sum the
    /// kernel execution times over all invocations").
    pub fn kernel_time_total(&self, name: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.kind == ProfKind::Kernel && r.method == name)
            .map(|r| r.gputime)
            .sum()
    }

    /// Sum of true device durations over *all* kernels.
    pub fn all_kernel_time(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.kind == ProfKind::Kernel)
            .map(|r| r.gputime)
            .sum()
    }

    /// Number of kernel invocations of `name`.
    pub fn kernel_invocations(&self, name: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.kind == ProfKind::Kernel && r.method == name)
            .count()
    }

    /// Distinct kernel names seen, in first-seen order.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.records {
            if r.kind == ProfKind::Kernel && !names.iter().any(|n| n == &r.method) {
                names.push(r.method.clone());
            }
        }
        names
    }

    /// Render the log in the text format of the CUDA 3.x profiler:
    ///
    /// ```text
    /// # CUDA_PROFILE_LOG_VERSION 2.0
    /// method=[ square ] gputime=[ 1153.376 ] cputime=[ 8.000 ]
    /// ```
    ///
    /// Times are microseconds, as in the real log.
    pub fn render_log(&self) -> String {
        let mut out = String::from("# CUDA_PROFILE_LOG_VERSION 2.0\n# CUDA_DEVICE 0 Tesla C2050\n");
        for r in &self.records {
            out.push_str(&format!(
                "method=[ {} ] gputime=[ {:.3} ] cputime=[ {:.3} ]\n",
                r.method,
                r.gputime * 1e6,
                r.cputime * 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(method: &str, kind: ProfKind, gputime: f64) -> ProfRecord {
        ProfRecord {
            method: method.to_owned(),
            kind,
            stream: StreamId::DEFAULT,
            start: 0.0,
            gputime,
            cputime: 1e-6,
            corr: 0,
        }
    }

    #[test]
    fn disabled_profiler_drops_records() {
        let mut p = Profiler::new(false);
        p.record(|| rec("k", ProfKind::Kernel, 0.1));
        assert!(p.records().is_empty());
        assert_eq!(p.kernel_time_total("k"), 0.0);
    }

    #[test]
    fn kernel_totals_sum_invocations() {
        let mut p = Profiler::new(true);
        p.record(|| rec("k", ProfKind::Kernel, 0.1));
        p.record(|| rec("k", ProfKind::Kernel, 0.2));
        p.record(|| rec("other", ProfKind::Kernel, 1.0));
        p.record(|| rec("memcpyHtoD", ProfKind::MemcpyH2D, 5.0));
        assert!((p.kernel_time_total("k") - 0.3).abs() < 1e-12);
        assert_eq!(p.kernel_invocations("k"), 2);
        assert!((p.all_kernel_time() - 1.3).abs() < 1e-12);
        assert_eq!(p.kernel_names(), vec!["k".to_owned(), "other".to_owned()]);
    }

    #[test]
    fn log_format_is_cuda_profile_like() {
        let mut p = Profiler::new(true);
        p.record(|| rec("square", ProfKind::Kernel, 1.153376e-3));
        let log = p.render_log();
        assert!(log.starts_with("# CUDA_PROFILE_LOG_VERSION 2.0"));
        assert!(log.contains("method=[ square ] gputime=[ 1153.376 ]"));
    }
}

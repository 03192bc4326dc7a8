//! The streaming-trace demo behind `repro-trace`: run the Fig. 3 `square`
//! program (plus a two-stream kernel burst) under full monitoring on a
//! profiler-enabled GPU, then merge the host-side IPM trace ring with the
//! runtime's ground-truth [`ProfRecord`]s into Chrome trace-event JSON.
//! The output loads in `chrome://tracing` or <https://ui.perfetto.dev>:
//! one process per rank, a host lane plus one lane per CUDA stream, and
//! flow arrows linking each `cudaLaunch` to the kernel execution it
//! enqueued.
//!
//! [`ProfRecord`]: ipm_gpu_sim::ProfRecord

use ipm_apps::{run_square, SquareConfig};
use ipm_core::{
    validate_chrome_trace, ChromeTrace, Export, ExportRank, Ipm, IpmConfig, IpmCuda, TraceStats,
};
use ipm_gpu_sim::{
    launch_kernel, CudaApi, GpuConfig, GpuRuntime, Kernel, KernelArg, KernelCost, LaunchConfig,
};
use std::sync::Arc;

/// Everything the demo produced: the JSON document plus the numbers the
/// binary reports (structural stats and ring accounting).
pub struct TraceDemo {
    /// Chrome trace-event JSON, already validated.
    pub json: String,
    /// Structural stats from [`validate_chrome_trace`].
    pub stats: TraceStats,
    /// Trace-ring records captured, summed over ranks.
    pub captured: u64,
    /// Trace-ring records dropped, summed over ranks.
    pub dropped: u64,
}

/// Run the monitored demo workload on `nranks` simulated ranks and return
/// the ready-to-render [`Export`] plus the ring accounting (records
/// captured / dropped, summed over ranks). The caller picks the backend —
/// [`ChromeTrace`] for `repro-trace`, `Otlp` for `repro-trace --otlp`.
pub fn demo_export(nranks: usize) -> (Export, u64, u64) {
    let mut export = Export::new();
    let (mut captured, mut dropped) = (0u64, 0u64);
    for r in 0..nranks {
        let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node().with_profiler()));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let host = format!("dirac{r:02}");
        ipm.set_metadata(r, nranks, &host, "./square.ipm");
        let cuda = IpmCuda::new(ipm.clone(), rt.clone());

        run_square(&cuda, SquareConfig::tiny()).expect("square failed");

        // a two-stream burst so the trace shows concurrent device lanes
        let d = cuda.cuda_malloc(4096).expect("malloc");
        let streams = [
            cuda.cuda_stream_create().expect("stream"),
            cuda.cuda_stream_create().expect("stream"),
        ];
        let k = Kernel::timed("saxpy_burst", KernelCost::Fixed(0.002));
        for i in 0..3 {
            for &s in &streams {
                let mut lc = LaunchConfig::simple(8u32, 32u32);
                lc.stream = s;
                launch_kernel(&cuda, &k, lc, &[KernelArg::Ptr(d), KernelArg::U64(i)])
                    .expect("launch");
            }
        }
        cuda.cuda_thread_synchronize().expect("sync");
        cuda.finalize();

        let m = ipm.monitor_info();
        captured += m.trace_captured;
        dropped += m.trace_dropped;
        export = export.with_trace_rank(ExportRank {
            rank: r,
            host,
            epoch: ipm.epoch(),
            records: ipm.drain_trace(),
            prof: rt.profiler_records(),
            profile: None,
        });
    }
    (export, captured, dropped)
}

/// Run the monitored demo workload on `nranks` simulated ranks and export
/// the merged trace. Panics if the exporter ever produces structurally
/// invalid JSON — that is a bug, not an input condition.
pub fn build_demo_trace(nranks: usize) -> TraceDemo {
    let (export, captured, dropped) = demo_export(nranks);
    let json = export.to(ChromeTrace).expect("demo has ranks");
    let stats = validate_chrome_trace(&json).expect("exporter produced invalid chrome trace");
    TraceDemo {
        json,
        stats,
        captured,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_trace_is_structurally_valid_chrome_json() {
        let demo = build_demo_trace(2);
        assert_eq!(demo.stats.processes, 2, "one process per rank");
        // per rank: host lane + default stream + two burst streams
        assert!(demo.stats.lanes >= 6, "lanes {}", demo.stats.lanes);
        assert!(demo.stats.slices > 20, "slices {}", demo.stats.slices);
        // every burst/square launch links host → device
        assert!(
            demo.stats.flow_pairs >= 7 * 2,
            "flows {}",
            demo.stats.flow_pairs
        );
        assert_eq!(demo.dropped, 0, "demo workload must not overflow the ring");
        assert!(demo.captured > 0);
    }
}

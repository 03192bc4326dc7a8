//! The monitored CUDA API — IPM's interposition layer for `cuda*` calls.
//!
//! [`IpmCuda`] implements [`CudaApi`] by wrapping another implementation
//! (normally the bare [`ipm_gpu_sim::GpuRuntime`]), with the paper's three
//! measurement mechanisms layered in:
//!
//! 1. **Host-side timing** (§III-A): every call runs inside the Fig. 2
//!    wrapper anatomy; synchronous memcpys are split by direction
//!    (`cudaMemcpy(D2H)` / `cudaMemcpy(H2D)`) as IPM optionally does.
//! 2. **GPU kernel timing** (§III-B): `cudaLaunch` is bracketed with
//!    events recorded into the kernel timing table; completion is swept
//!    lazily after D2H copies and explicit synchronizations, producing
//!    `@CUDA_EXEC_STRMxx` entries tagged with the kernel symbol.
//! 3. **Host-idle identification** (§III-C): before each call in the
//!    implicit-blocking set, the wrapper synchronizes with the device and
//!    books the wait separately as `@CUDA_HOST_IDLE`, leaving the call
//!    itself with just its own transfer time.
//!
//! All of that plumbing lives in the shared `FacadeCore`; this facade is
//! just the `CudaApi` surface naming each call via [`site!`] — the probe
//! and the sweep are steered by the interned spec flags, so e.g.
//! `cudaMemcpy(H2D)` probes while `cudaMemset` (the paper's noted
//! exception) does not, and `cudaMemcpy(D2H)` sweeps while
//! `cudaMemcpy(H2D)` does not.

use crate::facade::FacadeCore;
use crate::monitor::Ipm;
use ipm_gpu_sim::{
    CudaApi, CudaResult, DeviceProperties, DevicePtr, EventId, Kernel, KernelArg, LaunchConfig,
    StreamId,
};
use ipm_interpose::site;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Streams of this thread's successful `cudaConfigureCall`s not yet
    /// launched, needed by the `cudaLaunch` wrapper for KTT attribution
    /// (the launch itself does not carry the stream). Per thread, like
    /// CUDA's own configuration stack, so the hand-off takes no lock.
    static PENDING_STREAM: RefCell<Vec<StreamId>> = const { RefCell::new(Vec::new()) };
}

/// The monitored CUDA runtime facade.
pub struct IpmCuda {
    core: FacadeCore,
    inner: Arc<dyn CudaApi>,
}

impl IpmCuda {
    /// Install monitoring around `inner`.
    pub fn new(ipm: Arc<Ipm>, inner: Arc<dyn CudaApi>) -> Self {
        Self {
            core: FacadeCore::new(ipm, Some(inner.clone())),
            inner,
        }
    }

    /// Drain any in-flight kernel timings (call before producing the
    /// profile). Safe to call multiple times.
    pub fn finalize(&self) {
        self.core.finalize()
    }

    /// The monitoring context this facade reports into.
    pub fn ipm(&self) -> &Arc<Ipm> {
        self.core.ipm()
    }

    /// The wrapped (real) API.
    pub fn inner(&self) -> &Arc<dyn CudaApi> {
        &self.inner
    }
}

impl CudaApi for IpmCuda {
    fn cuda_malloc(&self, size: usize) -> CudaResult<DevicePtr> {
        self.core.wrapped(site!("cudaMalloc"), size as u64, || {
            self.inner.cuda_malloc(size)
        })
    }

    fn cuda_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaFree"), 0, || self.inner.cuda_free(ptr))
    }

    fn cuda_memcpy_h2d(&self, dst: DevicePtr, src: &[u8]) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpy(H2D)"), src.len() as u64, || {
                self.inner.cuda_memcpy_h2d(dst, src)
            })
    }

    fn cuda_memcpy_d2h(&self, dst: &mut [u8], src: DevicePtr) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpy(D2H)"), dst.len() as u64, || {
                self.inner.cuda_memcpy_d2h(dst, src)
            })
    }

    fn cuda_memcpy_h2d_sized(
        &self,
        dst: DevicePtr,
        src: &[u8],
        total_bytes: u64,
    ) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpy(H2D)"), total_bytes, || {
                self.inner.cuda_memcpy_h2d_sized(dst, src, total_bytes)
            })
    }

    fn cuda_memcpy_d2h_sized(
        &self,
        dst: &mut [u8],
        src: DevicePtr,
        total_bytes: u64,
    ) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpy(D2H)"), total_bytes, || {
                self.inner.cuda_memcpy_d2h_sized(dst, src, total_bytes)
            })
    }

    fn cuda_memcpy_d2d(&self, dst: DevicePtr, src: DevicePtr, len: usize) -> CudaResult<()> {
        self.core.wrapped(site!("cudaMemcpy(D2D)"), len as u64, || {
            self.inner.cuda_memcpy_d2d(dst, src, len)
        })
    }

    fn cuda_memcpy_h2d_async(
        &self,
        dst: DevicePtr,
        src: &[u8],
        stream: StreamId,
    ) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpyAsync(H2D)"), src.len() as u64, || {
                self.inner.cuda_memcpy_h2d_async(dst, src, stream)
            })
    }

    fn cuda_memcpy_d2h_async(
        &self,
        dst: &mut [u8],
        src: DevicePtr,
        stream: StreamId,
    ) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpyAsync(D2H)"), dst.len() as u64, || {
                self.inner.cuda_memcpy_d2h_async(dst, src, stream)
            })
    }

    fn cuda_memcpy_to_symbol(&self, symbol: &str, src: &[u8]) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaMemcpyToSymbol"), src.len() as u64, || {
                self.inner.cuda_memcpy_to_symbol(symbol, src)
            })
    }

    fn cuda_memset(&self, dst: DevicePtr, value: u8, len: usize) -> CudaResult<()> {
        // NOT in the implicit-blocking set (§III-C): no host-idle probe
        self.core.wrapped(site!("cudaMemset"), len as u64, || {
            self.inner.cuda_memset(dst, value, len)
        })
    }

    fn cuda_configure_call(&self, config: LaunchConfig) -> CudaResult<()> {
        let out = self.core.wrapped(site!("cudaConfigureCall"), 0, || {
            self.inner.cuda_configure_call(config)
        });
        // a configuration the runtime refused stages nothing to launch
        if out.is_ok() {
            PENDING_STREAM.with_borrow_mut(|pending| pending.push(config.stream));
        }
        out
    }

    fn cuda_setup_argument(&self, arg: KernelArg) -> CudaResult<()> {
        self.core
            .wrapped(site!("cudaSetupArgument"), arg.size() as u64, || {
                self.inner.cuda_setup_argument(arg)
            })
    }

    fn cuda_launch(&self, kernel: &Kernel) -> CudaResult<()> {
        let stream = PENDING_STREAM
            .with_borrow_mut(Vec::pop)
            .unwrap_or(StreamId::DEFAULT);
        self.core.launch(site!("cudaLaunch"), kernel, stream, || {
            self.inner.cuda_launch(kernel)
        })
    }

    fn cuda_stream_create(&self) -> CudaResult<StreamId> {
        self.core.wrapped(site!("cudaStreamCreate"), 0, || {
            self.inner.cuda_stream_create()
        })
    }

    fn cuda_stream_destroy(&self, stream: StreamId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaStreamDestroy"), 0, || {
            self.inner.cuda_stream_destroy(stream)
        })
    }

    fn cuda_stream_synchronize(&self, stream: StreamId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaStreamSynchronize"), 0, || {
            self.inner.cuda_stream_synchronize(stream)
        })
    }

    fn cuda_stream_query(&self, stream: StreamId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaStreamQuery"), 0, || {
            self.inner.cuda_stream_query(stream)
        })
    }

    fn cuda_event_create(&self) -> CudaResult<EventId> {
        self.core.wrapped(site!("cudaEventCreate"), 0, || {
            self.inner.cuda_event_create()
        })
    }

    fn cuda_event_destroy(&self, event: EventId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaEventDestroy"), 0, || {
            self.inner.cuda_event_destroy(event)
        })
    }

    fn cuda_event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaEventRecord"), 0, || {
            self.inner.cuda_event_record(event, stream)
        })
    }

    fn cuda_event_query(&self, event: EventId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaEventQuery"), 0, || {
            self.inner.cuda_event_query(event)
        })
    }

    fn cuda_event_synchronize(&self, event: EventId) -> CudaResult<()> {
        self.core.wrapped(site!("cudaEventSynchronize"), 0, || {
            self.inner.cuda_event_synchronize(event)
        })
    }

    fn cuda_event_elapsed_time(&self, start: EventId, stop: EventId) -> CudaResult<f64> {
        self.core.wrapped(site!("cudaEventElapsedTime"), 0, || {
            self.inner.cuda_event_elapsed_time(start, stop)
        })
    }

    fn cuda_thread_synchronize(&self) -> CudaResult<()> {
        self.core.wrapped(site!("cudaThreadSynchronize"), 0, || {
            self.inner.cuda_thread_synchronize()
        })
    }

    fn cuda_get_device_count(&self) -> CudaResult<i32> {
        self.core.wrapped(site!("cudaGetDeviceCount"), 0, || {
            self.inner.cuda_get_device_count()
        })
    }

    fn cuda_set_device(&self, ordinal: i32) -> CudaResult<()> {
        self.core.wrapped(site!("cudaSetDevice"), 0, || {
            self.inner.cuda_set_device(ordinal)
        })
    }

    fn cuda_get_device_properties(&self) -> CudaResult<DeviceProperties> {
        self.core.wrapped(site!("cudaGetDeviceProperties"), 0, || {
            self.inner.cuda_get_device_properties()
        })
    }

    fn cuda_get_last_error(&self) -> Option<ipm_gpu_sim::CudaError> {
        self.core.wrapped(site!("cudaGetLastError"), 0, || {
            self.inner.cuda_get_last_error()
        })
    }

    // Introspection used by IPM itself (KTT correlation, trace placement):
    // unwrapped, so the monitor's own probing stays invisible to the profile.
    fn cuda_last_launch_correlation_id(&self) -> u64 {
        self.inner.cuda_last_launch_correlation_id()
    }

    fn cuda_event_timestamp(&self, event: EventId) -> CudaResult<f64> {
        self.inner.cuda_event_timestamp(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::IpmConfig;
    use crate::sig::SigKey;
    use ipm_gpu_sim::{launch_kernel, GpuConfig, GpuRuntime, Kernel, KernelCost};

    /// The Fig. 3 `square` scenario under monitoring.
    fn square_run(cfg: IpmConfig) -> (Arc<Ipm>, IpmCuda) {
        let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
        let ipm = Ipm::new(rt.clock().clone(), cfg);
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let n = 100_000usize;
        let size = n * 8;
        let host: Vec<u8> = vec![1u8; size];
        let dev = cuda.cuda_malloc(size).unwrap();
        cuda.cuda_memcpy_h2d(dev, &host).unwrap();
        let k = Kernel::timed("square", KernelCost::Fixed(1.15));
        launch_kernel(
            &cuda,
            &k,
            LaunchConfig::simple(n as u32, 1u32),
            &[KernelArg::I32(0)],
        )
        .unwrap();
        let mut out = vec![0u8; size];
        cuda.cuda_memcpy_d2h(&mut out, dev).unwrap();
        cuda.cuda_free(dev).unwrap();
        cuda.finalize();
        (ipm, cuda)
    }

    #[test]
    fn fig4_host_only_profile_shape() {
        let (ipm, _cuda) = square_run(IpmConfig::host_timing_only());
        let p = ipm.profile();
        // first call (cudaMalloc) absorbs context init: dominates
        let malloc = p.time_of("cudaMalloc");
        assert!(malloc > 1.0, "cudaMalloc = {malloc}");
        // D2H blocks on the kernel: ~1.15 s; H2D is fast
        let d2h = p.time_of("cudaMemcpy(D2H)");
        let h2d = p.time_of("cudaMemcpy(H2D)");
        assert!(d2h > 1.0, "d2h = {d2h}");
        assert!(h2d < 0.05, "h2d = {h2d}");
        // launch is asynchronous: tiny
        assert!(p.time_of("cudaLaunch") < 1e-3);
        // no pseudo entries in host-only mode
        assert_eq!(p.time_of("@CUDA_EXEC_STRM00"), 0.0);
        assert_eq!(p.host_idle_time(), 0.0);
    }

    #[test]
    fn fig5_gpu_timing_adds_exec_entry() {
        let (ipm, _cuda) = square_run(IpmConfig::with_gpu_timing_only());
        let p = ipm.profile();
        let exec = p.time_of("@CUDA_EXEC_STRM00");
        assert!((exec - 1.15).abs() < 1e-3, "exec = {exec}");
        // kernel symbol attached for the XML breakdown
        let breakdown = p.kernel_breakdown();
        assert_eq!(breakdown[0].0, "square");
        // D2H still carries the implicit wait (host idle off)
        assert!(p.time_of("cudaMemcpy(D2H)") > 1.0);
    }

    #[test]
    fn fig6_host_idle_reattributes_the_wait() {
        let (ipm, _cuda) = square_run(IpmConfig::default());
        let p = ipm.profile();
        let idle = p.host_idle_time();
        let d2h = p.time_of("cudaMemcpy(D2H)");
        let exec = p.time_of("@CUDA_EXEC_STRM00");
        // the wait moved out of the memcpy into @CUDA_HOST_IDLE
        assert!((idle - 1.15).abs() < 0.01, "idle = {idle}");
        assert!(d2h < 0.05, "d2h = {d2h}");
        assert!((exec - 1.15).abs() < 1e-3, "exec = {exec}");
    }

    #[test]
    fn pseudo_event_records_agree_with_their_table_entries() {
        use crate::trace::TraceKind;
        use std::collections::HashMap;
        let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let dev = cuda.cuda_malloc(4096).unwrap();
        let mut out = vec![0u8; 4096];
        let k = Kernel::timed("agree", KernelCost::Fixed(0.25));
        let launch = || launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        ipm.region_enter("solve");
        launch();
        launch();
        // blocking D2H: waits on both kernels (host idle), then sweeps them
        cuda.cuda_memcpy_d2h(&mut out, dev).unwrap();
        ipm.region_exit();
        launch();
        // a blocking H2D waits on the third kernel; finalize books it
        cuda.cuda_memcpy_h2d(dev, &out).unwrap();
        cuda.finalize();

        // every pseudo-event booking has an interval and the ring has room,
        // so each table entry's count is exactly its number of records
        let p = ipm.profile();
        let booked: HashMap<(&str, Option<&str>, u16), u64> = p
            .entries
            .iter()
            .filter(|e| e.name.starts_with('@'))
            .map(|e| {
                (
                    (e.name.as_str(), e.detail.as_deref(), e.region),
                    e.stats.count,
                )
            })
            .collect();
        let records = ipm.drain_trace();
        assert_eq!(ipm.monitor_info().trace_dropped, 0);
        let mut recorded: HashMap<(&str, Option<&str>, u16), u64> = HashMap::new();
        for r in records
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::KernelExec | TraceKind::HostIdle))
        {
            *recorded
                .entry((r.name, r.detail_name(), r.region))
                .or_default() += 1;
        }
        assert_eq!(recorded, booked);
        let execs = records
            .iter()
            .filter(|r| r.kind == TraceKind::KernelExec)
            .count();
        assert_eq!(execs, 3);
        // both regions hold a pseudo-event of each kind
        for region in [0, 1] {
            assert!(booked.contains_key(&("@CUDA_HOST_IDLE", None, region)));
            assert!(booked.contains_key(&("@CUDA_EXEC_STRM00", Some("agree"), region)));
        }
    }

    /// A failed `cudaMalloc` and a failed `cudaMemcpy(D2H)`, with a kernel
    /// in flight: each books one call event with its byte attribute and
    /// one call record, the D2H probe books the wait for the kernel, the
    /// sweep after the failed copy books the kernel exactly once, and the
    /// pseudo-event records agree with their table entries.
    #[test]
    fn a_failed_malloc_and_copy_each_book_one_call() {
        use crate::trace::{TraceKind, TraceRecord};
        use ipm_gpu_sim::CudaError;
        use std::collections::HashMap;
        let gpu = GpuConfig::dirac_node().with_context_init(0.0);
        let too_big = gpu.device_memory as usize + 1;
        let rt = Arc::new(GpuRuntime::single(gpu));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let freed = cuda.cuda_malloc(64).unwrap();
        cuda.cuda_free(freed).unwrap();
        let k = Kernel::timed("in_flight", KernelCost::Fixed(0.25));
        launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        assert_eq!(cuda.cuda_malloc(too_big), Err(CudaError::MemoryAllocation));
        let mut out = [0u8; 32];
        assert_eq!(
            cuda.cuda_memcpy_d2h(&mut out, freed),
            Err(CudaError::InvalidDevicePointer)
        );
        cuda.finalize();

        let p = ipm.profile();
        let count = |name: &str, bytes: u64| {
            let entry = p
                .entries
                .iter()
                .find(|e| e.name == name && e.bytes == bytes);
            entry.map_or(0, |e| e.stats.count)
        };
        assert_eq!(count("cudaMalloc", too_big as u64), 1);
        assert_eq!(count("cudaMemcpy(D2H)", 32), 1);
        assert_eq!(count("@CUDA_HOST_IDLE", 0), 1);
        assert!((p.host_idle_time() - 0.25).abs() < 0.01);
        assert_eq!(p.count_of("@CUDA_EXEC_STRM00"), 1);

        let info = ipm.monitor_info();
        let records = ipm.drain_trace();
        let calls = |name: &str, bytes: u64| {
            let call = |r: &&TraceRecord| r.kind == TraceKind::Call && r.name == name;
            records
                .iter()
                .filter(call)
                .filter(|r| r.bytes == bytes)
                .count()
        };
        assert_eq!(calls("cudaMalloc", too_big as u64), 1);
        assert_eq!(calls("cudaMemcpy(D2H)", 32), 1);
        let mut recorded: HashMap<(&str, Option<&str>), u64> = HashMap::new();
        for r in records.iter().filter(|r| r.kind != TraceKind::Call) {
            *recorded.entry((r.name, r.detail_name())).or_default() += 1;
        }
        let booked: HashMap<(&str, Option<&str>), u64> = p
            .entries
            .iter()
            .filter(|e| e.name.starts_with('@'))
            .map(|e| ((e.name.as_str(), e.detail.as_deref()), e.stats.count))
            .collect();
        assert_eq!(recorded, booked);
        assert_eq!(booked[&("@CUDA_EXEC_STRM00", Some("in_flight"))], 1);
        assert_eq!(info.trace_captured + info.trace_dropped, info.trace_emitted);
    }

    #[test]
    fn trace_captures_the_run_end_to_end() {
        use crate::export::{validate_chrome_trace, ChromeTrace, Export, ExportRank};
        use crate::trace::TraceKind;
        let (ipm, _cuda) = square_run(IpmConfig::default());

        // exact accounting all the way through the monitored run
        let m = ipm.monitor_info();
        assert!(m.trace_captured > 0);
        assert_eq!(m.trace_captured + m.trace_dropped, m.trace_emitted);
        assert!(m.self_wall_ns > 0, "bookkeeping cost must be accounted");
        assert!(m.ring_hwm_bytes > 0);

        let records = ipm.drain_trace();
        assert_eq!(records.len() as u64, m.trace_captured);

        // every cudaLaunch call record carries the correlation id of the
        // kernel execution it enqueued
        let mut launch_corrs: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == TraceKind::Call && r.name == "cudaLaunch")
            .map(|r| r.corr)
            .collect();
        let mut exec_corrs: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == TraceKind::KernelExec)
            .map(|r| r.corr)
            .collect();
        assert!(!launch_corrs.is_empty());
        assert!(launch_corrs.iter().all(|&c| c != 0), "{launch_corrs:?}");
        launch_corrs.sort_unstable();
        exec_corrs.sort_unstable();
        assert_eq!(launch_corrs, exec_corrs);

        // the implicit wait shows up as a host-idle interval
        assert!(records.iter().any(|r| r.kind == TraceKind::HostIdle));

        // and the whole thing exports as a valid Chrome trace with the
        // launch → kernel flow resolved
        let json = Export::new()
            .with_trace_rank(ExportRank {
                rank: 0,
                host: "dirac00".to_owned(),
                epoch: 0.0,
                records,
                ..ExportRank::default()
            })
            .to(ChromeTrace)
            .unwrap();
        let stats = validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(stats.flow_pairs >= 1, "launch→exec flow missing");
    }

    #[test]
    fn memset_gets_no_host_idle_probe() {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let dev = cuda.cuda_malloc(1024).unwrap();
        let k = Kernel::timed("busy", KernelCost::Fixed(0.5));
        launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        cuda.cuda_memset(dev, 0, 1024).unwrap();
        let p = ipm.profile();
        // no idle was booked, and memset didn't wait for the kernel
        assert_eq!(p.host_idle_time(), 0.0);
        assert!(p.time_of("cudaMemset") < 1e-3);
    }

    #[test]
    fn per_stream_exec_entries() {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let s1 = cuda.cuda_stream_create().unwrap();
        let k = Kernel::timed("k", KernelCost::Fixed(0.1));
        launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        launch_kernel(
            &cuda,
            &k,
            LaunchConfig::simple(1u32, 1u32).on_stream(s1),
            &[],
        )
        .unwrap();
        cuda.finalize();
        let p = ipm.profile();
        assert!(p.time_of("@CUDA_EXEC_STRM00") > 0.09);
        assert!(p.time_of(&SigKey::exec_stream_name(s1.0)) > 0.09);
    }

    #[test]
    fn exec_time_correction_shrinks_measurements() {
        let measure = |correction: Option<f64>| {
            let rt = Arc::new(GpuRuntime::single(
                GpuConfig::dirac_node().with_context_init(0.0),
            ));
            let ipm = Ipm::new(
                rt.clock().clone(),
                IpmConfig {
                    exec_time_correction: correction,
                    ..IpmConfig::default()
                },
            );
            let cuda = IpmCuda::new(ipm.clone(), rt);
            let k = Kernel::timed("k", KernelCost::Fixed(0.01));
            launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
            cuda.finalize();
            ipm.profile().time_of("@CUDA_EXEC_STRM00")
        };
        let raw = measure(None);
        let corrected = measure(Some(8.5e-6));
        assert!(
            corrected < raw,
            "correction had no effect: {corrected} vs {raw}"
        );
    }

    #[test]
    fn every_call_policy_does_not_deadlock_on_launch() {
        // regression: the launch wrapper used to sweep the KTT while
        // holding its lock under KttCheckPolicy::EveryCall
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(
            rt.clock().clone(),
            IpmConfig {
                ktt_policy: crate::ktt::KttCheckPolicy::EveryCall,
                ..IpmConfig::default()
            },
        );
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let k = Kernel::timed("k", KernelCost::Fixed(1e-4));
        for _ in 0..16 {
            launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
            cuda.cuda_stream_query(StreamId::DEFAULT).ok();
        }
        cuda.cuda_thread_synchronize().unwrap();
        cuda.finalize();
        assert_eq!(ipm.profile().count_of("cudaLaunch"), 16);
        assert!(ipm.profile().time_of("@CUDA_EXEC_STRM00") > 0.0);
    }

    /// What a call in the sweep table may need.
    struct Fix {
        dev: DevicePtr,
        events: (EventId, EventId),
        stream: StreamId,
        kernel: Kernel,
    }

    #[test]
    fn sweep_points_are_the_syncs_and_device_to_host_copies() {
        type Call = fn(&IpmCuda, &Fix) -> bool;
        let calls: &[(&str, bool, Call)] = &[
            ("cudaMalloc", false, |c, _| c.cuda_malloc(64).is_ok()),
            ("cudaFree", false, |c, f| c.cuda_free(f.dev).is_ok()),
            ("cudaMemcpy(H2D)", false, |c, f| {
                c.cuda_memcpy_h2d(f.dev, &[1; 8]).is_ok()
            }),
            ("cudaMemcpy(D2H)", true, |c, f| {
                c.cuda_memcpy_d2h(&mut [0; 8], f.dev).is_ok()
            }),
            ("cudaMemcpy(H2D) sized", false, |c, f| {
                c.cuda_memcpy_h2d_sized(f.dev, &[1; 8], 8).is_ok()
            }),
            ("cudaMemcpy(D2H) sized", true, |c, f| {
                c.cuda_memcpy_d2h_sized(&mut [0; 8], f.dev, 8).is_ok()
            }),
            ("cudaMemcpy(D2D)", false, |c, f| {
                c.cuda_memcpy_d2d(f.dev, f.dev, 8).is_ok()
            }),
            ("cudaMemcpyAsync(H2D)", false, |c, f| {
                c.cuda_memcpy_h2d_async(f.dev, &[1; 8], f.stream).is_ok()
            }),
            ("cudaMemcpyAsync(D2H)", true, |c, f| {
                c.cuda_memcpy_d2h_async(&mut [0; 8], f.dev, f.stream)
                    .is_ok()
            }),
            ("cudaMemcpyToSymbol", false, |c, _| {
                c.cuda_memcpy_to_symbol("s", &[1; 8]).is_ok()
            }),
            ("cudaMemset", false, |c, f| {
                c.cuda_memset(f.dev, 0, 8).is_ok()
            }),
            ("cudaConfigureCall", false, |c, _| {
                c.cuda_configure_call(LaunchConfig::simple(1u32, 1u32))
                    .is_ok()
            }),
            ("cudaSetupArgument", false, |c, _| {
                c.cuda_setup_argument(KernelArg::I32(0)).is_ok()
            }),
            ("cudaLaunch", false, |c, f| {
                launch_kernel(c, &f.kernel, LaunchConfig::simple(1u32, 1u32), &[]).is_ok()
            }),
            ("cudaStreamCreate", false, |c, _| {
                c.cuda_stream_create().is_ok()
            }),
            ("cudaStreamDestroy", false, |c, f| {
                c.cuda_stream_destroy(f.stream).is_ok()
            }),
            ("cudaStreamSynchronize", true, |c, f| {
                c.cuda_stream_synchronize(f.stream).is_ok()
            }),
            ("cudaStreamQuery", false, |c, f| {
                c.cuda_stream_query(f.stream).is_ok()
            }),
            ("cudaEventCreate", false, |c, _| {
                c.cuda_event_create().is_ok()
            }),
            ("cudaEventDestroy", false, |c, f| {
                c.cuda_event_destroy(f.events.0).is_ok()
            }),
            ("cudaEventRecord", false, |c, f| {
                c.cuda_event_record(f.events.0, f.stream).is_ok()
            }),
            ("cudaEventQuery", false, |c, f| {
                c.cuda_event_query(f.events.0).is_ok()
            }),
            ("cudaEventSynchronize", true, |c, f| {
                c.cuda_event_synchronize(f.events.0).is_ok()
            }),
            ("cudaEventElapsedTime", false, |c, f| {
                c.cuda_event_elapsed_time(f.events.0, f.events.1).is_ok()
            }),
            ("cudaThreadSynchronize", true, |c, _| {
                c.cuda_thread_synchronize().is_ok()
            }),
            ("cudaGetDeviceCount", false, |c, _| {
                c.cuda_get_device_count().is_ok()
            }),
            ("cudaSetDevice", false, |c, _| c.cuda_set_device(0).is_ok()),
            ("cudaGetDeviceProperties", false, |c, _| {
                c.cuda_get_device_properties().is_ok()
            }),
            ("cudaGetLastError", false, |c, _| {
                c.cuda_get_last_error().is_none()
            }),
        ];
        for &(name, sweeps, call) in calls {
            let rt = Arc::new(GpuRuntime::single(
                GpuConfig::dirac_node().with_context_init(0.0),
            ));
            let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
            let cuda = IpmCuda::new(ipm.clone(), rt.clone());
            let fix = Fix {
                dev: cuda.cuda_malloc(64).unwrap(),
                events: (
                    cuda.cuda_event_create().unwrap(),
                    cuda.cuda_event_create().unwrap(),
                ),
                stream: cuda.cuda_stream_create().unwrap(),
                kernel: Kernel::timed("again", KernelCost::Fixed(1e-3)),
            };
            let done = Kernel::timed("done", KernelCost::Fixed(1e-3));
            launch_kernel(&cuda, &done, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
            // the kernel has finished, but nothing has swept it yet
            rt.clock().advance(1.0);
            assert_eq!(ipm.profile().count_of("@CUDA_EXEC_STRM00"), 0, "{name}");
            call(&cuda, &fix);
            assert_eq!(
                ipm.profile().count_of("@CUDA_EXEC_STRM00") > 0,
                sweeps,
                "{name} sweeps: {sweeps}"
            );
        }
    }

    #[test]
    fn a_rejected_launch_books_no_kernel_and_no_correlation() {
        use crate::trace::TraceKind;
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm.clone(), rt);
        let ran = Kernel::timed("ran", KernelCost::Fixed(0.01));
        launch_kernel(&cuda, &ran, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        // nothing is configured, so the runtime rejects this launch
        let never = Kernel::timed("never_ran", KernelCost::Fixed(0.01));
        assert_eq!(
            cuda.cuda_launch(&never),
            Err(ipm_gpu_sim::CudaError::MissingConfiguration)
        );
        cuda.cuda_thread_synchronize().unwrap();
        cuda.finalize();

        let p = ipm.profile();
        assert_eq!(p.count_of("cudaLaunch"), 2);
        assert_eq!(p.count_of("@CUDA_EXEC_STRM00"), 1);
        let kernels: Vec<String> = p.kernel_breakdown().into_iter().map(|(k, _)| k).collect();
        assert_eq!(kernels, ["ran"]);
        assert_eq!(p.dropped_events, 0, "a rejected launch is not a KTT drop");

        let records = ipm.drain_trace();
        let launches: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == TraceKind::Call && r.name == "cudaLaunch")
            .map(|r| r.corr)
            .collect();
        let execs: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == TraceKind::KernelExec)
            .map(|r| r.corr)
            .collect();
        assert_eq!(launches.len(), 2);
        assert_ne!(launches[0], 0);
        assert_eq!(launches[1], 0, "the rejected launch enqueued nothing");
        assert_eq!(execs, [launches[0]]);
    }

    #[test]
    fn a_refused_configuration_hands_no_stream_to_the_next_launch() {
        use crate::facade::tests::Recording;
        use std::sync::atomic::Ordering;
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let device = Recording::new(rt.clone());
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm.clone(), device.clone());
        let (ran_on, refused) = (
            cuda.cuda_stream_create().unwrap(),
            cuda.cuda_stream_create().unwrap(),
        );
        cuda.cuda_configure_call(LaunchConfig::simple(1u32, 1u32).on_stream(ran_on))
            .unwrap();
        device.refuse_configure.store(true, Ordering::Relaxed);
        assert!(cuda
            .cuda_configure_call(LaunchConfig::simple(1u32, 1u32).on_stream(refused))
            .is_err());
        // the runtime launches the configuration it accepted, so the
        // kernel's timing belongs to that configuration's stream
        cuda.cuda_launch(&Kernel::timed("k", KernelCost::Fixed(0.01)))
            .unwrap();
        cuda.finalize();
        let p = ipm.profile();
        assert_eq!(p.count_of("cudaConfigureCall"), 2);
        assert_eq!(p.count_of(&SigKey::exec_stream_name(ran_on.0)), 1);
        assert_eq!(p.count_of(&SigKey::exec_stream_name(refused.0)), 0);
    }

    #[test]
    fn monitoring_overhead_is_small_but_nonzero() {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let clock = rt.clock().clone();
        let ipm = Ipm::new(clock.clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm, rt);
        let before = clock.now();
        for _ in 0..1000 {
            cuda.cuda_stream_query(StreamId::DEFAULT).ok();
        }
        let per_call = (clock.now() - before) / 1000.0;
        // bare call is 0.3 µs; wrapper adds 0.3 µs more
        assert!(per_call < 2e-6, "per-call cost {per_call}");
        assert!(per_call > 0.3e-6, "monitoring added nothing? {per_call}");
    }

    #[test]
    fn return_values_pass_through_unchanged() {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm, rt);
        assert_eq!(cuda.cuda_get_device_count().unwrap(), 1);
        assert!(cuda.cuda_set_device(7).is_err());
        let p = cuda.cuda_malloc(16).unwrap();
        cuda.cuda_memcpy_h2d(p, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        cuda.cuda_memcpy_d2h(&mut out, p).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }
}

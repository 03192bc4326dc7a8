//! The shared wrapper core — **one** anatomy for all five monitor facades.
//!
//! Every monitored facade (`cuda_mon`, `driver_mon`, `mpi_mon`,
//! `numlib_mon`, `io_mon`) used to carry its own copy of the Fig. 2
//! plumbing: clock/sink/overhead lookup, host-idle probing, the kernel
//! launch bracket, KTT sweeping, completion booking. [`FacadeCore`] is that
//! plumbing factored into one place; facades hold a core and only name
//! their calls, so timing, byte attribution, host-idle probing, kernel
//! timing and self-overhead accounting cannot drift apart between API
//! families.
//!
//! The core is steered by the interned [`CallHandle`]: a call whose spec
//! row is in the implicit blocking set (§III-C) is probed for accumulated
//! device work before being timed, and a sweep point (an explicit
//! synchronization or a device-to-host copy, §III-B) is followed by a
//! check of the kernel timing table for finished kernels. Launches go
//! through [`FacadeCore::launch`], the one event bracket. Facades with no
//! device behind them (MPI, I/O, and the numerical libraries, whose device
//! traffic is already monitored through the CUDA facade they sit on)
//! construct the core with `device: None`, which turns probing, bracketing
//! and sweeping into no-ops.

use crate::ktt::{CompletedKernel, KttCheckPolicy, Launched};
use crate::monitor::{Event, Ipm};
use crate::sig::SigKey;
use crate::trace::TraceKind;
use ipm_gpu_sim::{CudaApi, Kernel, StreamId};
use ipm_interpose::{site, wrap_call_sized, CallHandle, CallId, NameTable};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// The interned id of a kernel symbol, for the launch bracket.
///
/// A launch resolves its kernel's symbol every time, and the interner's
/// lookup by string takes a lock every rank thread shares plus a hash. A
/// small per-thread cache keyed by the symbol's address answers a repeat
/// launch of the same kernel object instead; a hit is checked against the
/// interned name, so a freed and reused address can never alias another
/// kernel.
fn kernel_id(symbol: &str) -> CallId {
    const WAYS: usize = 64;
    thread_local! {
        static BY_ADDRESS: [Cell<(usize, CallId)>; WAYS] =
            const { [const { Cell::new((0, CallId(0))) }; WAYS] };
    }
    let addr = symbol.as_ptr() as usize;
    BY_ADDRESS.with(|cache| {
        let way = &cache[(addr >> 4 ^ addr >> 10) % WAYS];
        let (cached_addr, id) = way.get();
        if cached_addr == addr && NameTable::global().name(id) == symbol {
            return id;
        }
        let id = CallHandle::of(symbol).id;
        way.set((addr, id));
        id
    })
}

/// Virtual time charged per wrapped call — the monitoring perturbation the
/// dilatation study (Fig. 8) measures. Calibrated so full MPI+CUDA
/// monitoring of HPL costs ~0.2% of runtime.
const WRAPPER_OVERHEAD: f64 = 0.3e-6;

/// The state every monitored facade shares: the monitoring context, the
/// *real* device API used for IPM-internal probing (invisible to the
/// profile), and the interned `@CUDA_EXEC_STRMxx` ids.
///
/// Lock order: the KTT, then the table's and the ring's own locks (booking
/// a sweep's completions deposits into them), then the `@CUDA_EXEC_STRMxx`
/// cache, held for one lookup (a sweep resolves its ids while its deposit
/// holds the delta cell). Nothing takes an earlier lock while holding a
/// later one.
pub(crate) struct FacadeCore {
    ipm: Arc<Ipm>,
    /// The bare (unmonitored) device API for host-idle probes and KTT
    /// sweeps; `None` for facades that never touch the device directly.
    device: Option<Arc<dyn CudaApi>>,
    /// Interned `@CUDA_EXEC_STRMxx` ids, one per stream seen.
    exec_ids: Mutex<HashMap<u32, CallId>>,
}

impl FacadeCore {
    pub(crate) fn new(ipm: Arc<Ipm>, device: Option<Arc<dyn CudaApi>>) -> Self {
        Self {
            ipm,
            device,
            exec_ids: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn ipm(&self) -> &Arc<Ipm> {
        &self.ipm
    }

    /// The Fig. 2 anatomy: probe (if blocking), time, then sweep the KTT
    /// after a sweep point (or after every call under the eager policy).
    #[inline]
    pub(crate) fn wrapped<R>(&self, call: CallHandle, bytes: u64, real: impl FnOnce() -> R) -> R {
        self.wrapped_sized(call, real, |_| bytes)
    }

    /// [`Self::wrapped`] for calls sized by their *result* (`MPI_Recv`,
    /// `MPI_Wait`): the byte attribute is measured after the real call
    /// completes, before the sink sees the event.
    #[inline]
    pub(crate) fn wrapped_sized<R>(
        &self,
        call: CallHandle,
        real: impl FnOnce() -> R,
        bytes_of: impl FnOnce(&R) -> u64,
    ) -> R {
        let out = self.timed(call, real, bytes_of);
        self.sweep_after(call);
        out
    }

    /// A kernel launch (§III-B). The call is timed with its handle marked
    /// as a launch, so its trace record carries the launch's correlation
    /// id. With GPU timing on, the launch is bracketed by start/stop events
    /// whose timing slot in the KTT belongs to `kernel` on `stream`; a
    /// launch the runtime rejects stores none. Without a device or GPU
    /// timing it is a plain wrapped call.
    pub(crate) fn launch<R: Launched>(
        &self,
        call: CallHandle,
        kernel: &Kernel,
        stream: StreamId,
        real: impl FnOnce() -> R,
    ) -> R {
        let call = CallHandle {
            launch: true,
            ..call
        };
        let Some(device) = self
            .device
            .as_ref()
            .filter(|_| self.ipm.config().gpu_timing)
        else {
            return self.wrapped(call, 0, real);
        };
        let kernel = kernel_id(kernel.name());
        // the KTT lock is held across the timed launch, so nothing inside
        // may sweep (that would take the lock again): the sweep runs once
        // the lock has dropped
        // speccheck: allow(lock-across-call) — the KTT bracket requires it
        let out = {
            let mut ktt = self.ipm.ktt().lock();
            ktt.time_launch(device.as_ref(), kernel, stream, || {
                self.timed(call, real, |_| 0)
            })
        };
        self.sweep_after(call);
        out
    }

    /// Probe (if blocking) and time one call, without any sweep — safe to
    /// run while the KTT lock is held.
    ///
    /// `#[inline]` keeps this per-call path inlined into every facade entry
    /// point whatever codegen unit rustc puts it in: left to the default
    /// heuristics, an unrelated change elsewhere in the crate once turned it
    /// into an out-of-line call inside `cudaLaunch` and cost the
    /// CUDA-call storm about 7% CPU time.
    #[inline]
    fn timed<R>(
        &self,
        call: CallHandle,
        real: impl FnOnce() -> R,
        bytes_of: impl FnOnce(&R) -> u64,
    ) -> R {
        if call.implicit_sync {
            self.absorb_host_idle();
        }
        wrap_call_sized(
            self.ipm.clock(),
            self.ipm.as_ref(),
            call,
            WRAPPER_OVERHEAD,
            real,
            bytes_of,
        )
    }

    /// Measure implicit host blocking before a call in the blocking set:
    /// synchronize with all outstanding device work (through the *real*
    /// API — IPM-internal calls are invisible to the profile) and book the
    /// wait as `@CUDA_HOST_IDLE`.
    fn absorb_host_idle(&self) {
        let Some(device) = &self.device else { return };
        if !self.ipm.config().host_idle {
            return;
        }
        let before = self.ipm.clock().now();
        let _ = device.cuda_thread_synchronize();
        let after = self.ipm.clock().now();
        let idle = after - before;
        if idle > 0.0 {
            self.ipm.book(std::iter::once(Event {
                kind: TraceKind::HostIdle,
                name: site!("@CUDA_HOST_IDLE").id,
                detail: None,
                bytes: 0,
                duration: idle,
                interval: Some((before, after)),
                stream: None,
                corr: 0,
            }));
        }
    }

    /// Sweep after `call` when its handle marks a sweep point, or after
    /// every call under `KttCheckPolicy::EveryCall`.
    #[inline]
    fn sweep_after(&self, call: CallHandle) {
        if call.sweeps || self.ipm.config().ktt_policy == KttCheckPolicy::EveryCall {
            self.sweep_ktt();
        }
    }

    /// Sweep the KTT for completed kernels and book `@CUDA_EXEC_STRMxx`
    /// entries. Completions are booked while the KTT lock is still held:
    /// they come out of the table's reused buffer, so a sweep allocates
    /// nothing.
    fn sweep_ktt(&self) {
        let Some(device) = &self.device else { return };
        if !self.ipm.config().gpu_timing {
            return;
        }
        let mut ktt = self.ipm.ktt().lock();
        self.book_completed(ktt.collect_completed(device.as_ref()));
    }

    /// Book a sweep's completions as one booking.
    fn book_completed(&self, completed: &[CompletedKernel]) {
        if completed.is_empty() {
            return;
        }
        let correction = self.ipm.config().exec_time_correction.unwrap_or(0.0);
        // the stream → `@CUDA_EXEC_STRMxx` cache is consulted once per run
        // of same-stream completions, not per completion (format + intern
        // run once per stream for the life of the facade)
        let run = Cell::new(None);
        self.ipm.book(completed.iter().map(|c| {
            let exec = match run.get() {
                Some((stream, exec)) if stream == c.stream => exec,
                _ => {
                    let exec = *self.exec_ids.lock().entry(c.stream.0).or_insert_with(|| {
                        CallHandle::of(&SigKey::exec_stream_name(c.stream.0)).id
                    });
                    run.set(Some((c.stream, exec)));
                    exec
                }
            };
            Event {
                kind: TraceKind::KernelExec,
                name: exec,
                detail: Some(c.kernel),
                bytes: 0,
                duration: (c.duration - correction).max(0.0),
                interval: c.interval,
                stream: Some(c.stream.0),
                corr: c.corr,
            }
        }));
    }

    /// Drain any in-flight kernel timings (call before producing the
    /// profile). Safe to call multiple times; no-op without a device.
    pub(crate) fn finalize(&self) {
        let Some(device) = &self.device else { return };
        if !self.ipm.config().gpu_timing {
            return;
        }
        let mut ktt = self.ipm.ktt().lock();
        self.book_completed(ktt.drain(device.as_ref()));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::monitor::IpmConfig;
    use ipm_gpu_sim::{
        CudaError, CudaResult, DeviceProperties, DevicePtr, EventId, GpuConfig, GpuRuntime,
        KernelArg, LaunchConfig,
    };
    use ipm_sim_core::SimClock;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A `CudaApi` in front of a runtime that logs the event calls it
    /// forwards (record, query, elapsed time, timestamp) and, while
    /// `refuse_configure` is set, refuses `cudaConfigureCall`.
    pub(crate) struct Recording {
        rt: Arc<GpuRuntime>,
        pub(crate) log: Mutex<Vec<&'static str>>,
        pub(crate) refuse_configure: AtomicBool,
    }

    impl Recording {
        pub(crate) fn new(rt: Arc<GpuRuntime>) -> Arc<Self> {
            Arc::new(Self {
                rt,
                log: Mutex::new(Vec::new()),
                refuse_configure: AtomicBool::new(false),
            })
        }

        fn logged<R>(&self, call: &'static str, real: impl FnOnce() -> R) -> R {
            self.log.lock().push(call);
            real()
        }
    }

    macro_rules! forward {
        ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
            $(fn $name(&self, $($arg: $ty),*) -> $ret {
                self.rt.$name($($arg),*)
            })*
        };
    }

    impl CudaApi for Recording {
        forward! {
            cuda_malloc(size: usize) -> CudaResult<DevicePtr>;
            cuda_free(ptr: DevicePtr) -> CudaResult<()>;
            cuda_memcpy_h2d(dst: DevicePtr, src: &[u8]) -> CudaResult<()>;
            cuda_memcpy_d2h(dst: &mut [u8], src: DevicePtr) -> CudaResult<()>;
            cuda_memcpy_h2d_sized(dst: DevicePtr, src: &[u8], total: u64) -> CudaResult<()>;
            cuda_memcpy_d2h_sized(dst: &mut [u8], src: DevicePtr, total: u64) -> CudaResult<()>;
            cuda_memcpy_d2d(dst: DevicePtr, src: DevicePtr, len: usize) -> CudaResult<()>;
            cuda_memcpy_h2d_async(dst: DevicePtr, src: &[u8], s: StreamId) -> CudaResult<()>;
            cuda_memcpy_d2h_async(dst: &mut [u8], src: DevicePtr, s: StreamId) -> CudaResult<()>;
            cuda_memcpy_to_symbol(symbol: &str, src: &[u8]) -> CudaResult<()>;
            cuda_memset(dst: DevicePtr, value: u8, len: usize) -> CudaResult<()>;
            cuda_setup_argument(arg: KernelArg) -> CudaResult<()>;
            cuda_launch(kernel: &Kernel) -> CudaResult<()>;
            cuda_stream_create() -> CudaResult<StreamId>;
            cuda_stream_destroy(stream: StreamId) -> CudaResult<()>;
            cuda_stream_synchronize(stream: StreamId) -> CudaResult<()>;
            cuda_stream_query(stream: StreamId) -> CudaResult<()>;
            cuda_event_create() -> CudaResult<EventId>;
            cuda_event_destroy(event: EventId) -> CudaResult<()>;
            cuda_event_synchronize(event: EventId) -> CudaResult<()>;
            cuda_thread_synchronize() -> CudaResult<()>;
            cuda_get_device_count() -> CudaResult<i32>;
            cuda_set_device(ordinal: i32) -> CudaResult<()>;
            cuda_get_device_properties() -> CudaResult<DeviceProperties>;
            cuda_get_last_error() -> Option<CudaError>;
            cuda_last_launch_correlation_id() -> u64;
        }

        fn cuda_configure_call(&self, config: LaunchConfig) -> CudaResult<()> {
            if self.refuse_configure.load(Ordering::Relaxed) {
                return Err(CudaError::InvalidConfiguration);
            }
            self.rt.cuda_configure_call(config)
        }

        fn cuda_event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
            self.logged("record", || self.rt.cuda_event_record(event, stream))
        }

        fn cuda_event_query(&self, event: EventId) -> CudaResult<()> {
            self.logged("query", || self.rt.cuda_event_query(event))
        }

        fn cuda_event_elapsed_time(&self, start: EventId, stop: EventId) -> CudaResult<f64> {
            self.logged("elapsed", || self.rt.cuda_event_elapsed_time(start, stop))
        }

        fn cuda_event_timestamp(&self, event: EventId) -> CudaResult<f64> {
            self.logged("timestamp", || self.rt.cuda_event_timestamp(event))
        }
    }

    #[test]
    fn deviceless_cores_never_probe_or_sweep() {
        let ipm = Ipm::new(SimClock::new(), IpmConfig::default());
        let core = FacadeCore::new(ipm.clone(), None);
        // cublasSetMatrix is ImplicitSync in the spec, but with no device
        // there is nothing to probe — status quo for the numlib facade
        core.wrapped(CallHandle::of("cublasSetMatrix"), 128, || ());
        core.sweep_ktt();
        core.finalize();
        let p = ipm.profile();
        assert_eq!(p.count_of("cublasSetMatrix"), 1);
        assert_eq!(p.host_idle_time(), 0.0);
    }

    #[test]
    fn kernel_ids_follow_the_symbol_not_its_address() {
        let mut symbol = String::from("kernel_id_first");
        let first = kernel_id(&symbol);
        assert_eq!(first, CallHandle::of("kernel_id_first").id);
        assert_eq!(kernel_id(&symbol), first, "a repeat launch hits the cache");
        // same address, same length, new symbol: the cached id must not
        // be reused
        symbol.replace_range(.., "kernel_id_other");
        let other = kernel_id(&symbol);
        assert_eq!(other, CallHandle::of("kernel_id_other").id);
        assert_ne!(other, first);
    }

    #[test]
    fn blocking_set_probes_are_driven_by_the_interned_flag() {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let core = FacadeCore::new(ipm.clone(), Some(rt.clone()));
        // enqueue 0.2 s of kernel work, then issue an ImplicitSync call:
        // the wait must land in @CUDA_HOST_IDLE, not in the call
        let k = ipm_gpu_sim::Kernel::timed("busy", ipm_gpu_sim::KernelCost::Fixed(0.2));
        ipm_gpu_sim::launch_kernel(
            rt.as_ref(),
            &k,
            ipm_gpu_sim::LaunchConfig::simple(1u32, 1u32),
            &[],
        )
        .unwrap();
        core.wrapped(CallHandle::of("cudaMemcpy(D2H)"), 64, || {
            rt.clock().advance(1e-3)
        });
        let p = ipm.profile();
        assert!((p.host_idle_time() - 0.2).abs() < 0.01);
        assert!(p.time_of("cudaMemcpy(D2H)") < 0.01);
        // a NonBlocking call never probes
        core.wrapped(CallHandle::of("cudaMemset"), 64, || ());
        assert!((ipm.profile().host_idle_time() - 0.2).abs() < 0.01);
    }

    /// Only the handles `FacadeCore::launch` times carry the launch mark:
    /// the three launch entry points' records carry their kernels'
    /// correlation ids, and no other call's record does, though the
    /// runtime's last-launch id stays set after a launch. No handle the
    /// interner hands out is marked, whoever resolves it.
    #[test]
    fn only_the_launch_bracket_marks_a_call_as_a_launch() {
        use crate::driver_mon::IpmDriver;
        use crate::export::{Export, Xml};
        use crate::trace::TraceKind;
        use ipm_gpu_sim::{DriverContext, KernelCost};
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = crate::cuda_mon::IpmCuda::new(ipm.clone(), rt.clone());
        let drv = IpmDriver::new(ipm.clone(), Arc::new(DriverContext::new(rt)));
        let config = || LaunchConfig::simple(1u32, 1u32);
        let k = Kernel::timed("marked", KernelCost::Fixed(1e-3));
        ipm_gpu_sim::launch_kernel(&cuda, &k, config(), &[]).unwrap();
        assert_eq!(cuda.cuda_get_last_error(), None);
        drv.cu_init(0).unwrap();
        let m = drv.cu_module_load("m").unwrap();
        drv.register_function(m, Kernel::timed("marked", KernelCost::Fixed(1e-3)))
            .unwrap();
        let f = drv.cu_module_get_function(m, "marked").unwrap();
        drv.cu_func_set_block_shape(1, 1, 1).unwrap();
        drv.cu_launch_grid(&f, 1, 1).unwrap();
        drv.cu_launch_kernel(&k, config(), &[]).unwrap();
        drv.cu_ctx_synchronize().unwrap();
        let records = ipm.drain_trace();
        let corrs = |kind| -> Vec<(&str, u64)> {
            let of_kind = records.iter().filter(|r| r.kind == kind && r.corr != 0);
            of_kind.map(|r| (r.name, r.corr)).collect()
        };
        let launches = corrs(TraceKind::Call);
        let names: Vec<&str> = launches.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["cudaLaunch", "cuLaunchGrid", "cuLaunchKernel"]);
        let execs: Vec<u64> = corrs(TraceKind::KernelExec).iter().map(|c| c.1).collect();
        assert_eq!(execs, launches.iter().map(|c| c.1).collect::<Vec<_>>());

        let names = NameTable::global();
        for h in [
            site!("cudaLaunch"),
            site!("cuLaunchGrid"),
            site!("cuLaunchKernel"),
        ] {
            assert!(!h.launch && !CallHandle::of(h.name()).launch && !names.handle(h.id).launch);
        }
        // nor is the handle the XML reader resolves a logged launch through
        let xml = Export::from_profile(ipm.profile()).with_trace(records);
        let read = crate::parse::export_from_xml(&[xml.to(Xml).unwrap()]).unwrap();
        let read = &read.source().ranks[0].records;
        assert!(read
            .iter()
            .any(|r| r.name == "cuLaunchKernel" && r.corr != 0));
        assert!(read.iter().all(|r| !names.lookup(r.name).unwrap().launch));
    }

    /// The device calls IPM makes to time a kernel: two event records
    /// around each launch, then one query and one elapsed-time read when a
    /// sweep finds it done. Only a traced rank also reads the two event
    /// timestamps, and the virtual clock ends where it does untraced.
    #[test]
    fn a_sweep_reads_event_timestamps_only_for_a_trace() {
        let run = |cfg: IpmConfig| {
            let rt = Arc::new(GpuRuntime::single(
                GpuConfig::dirac_node().with_context_init(0.0),
            ));
            let device = Recording::new(rt.clone());
            let ipm = Ipm::new(rt.clock().clone(), cfg);
            let core = FacadeCore::new(ipm.clone(), Some(device.clone()));
            let k = Kernel::timed("counted", ipm_gpu_sim::KernelCost::Fixed(1e-3));
            for _ in 0..3 {
                core.launch(CallHandle::of("cudaLaunch"), &k, StreamId::DEFAULT, || {
                    ipm_gpu_sim::launch_kernel(
                        rt.as_ref(),
                        &k,
                        LaunchConfig::simple(1u32, 1u32),
                        &[],
                    )
                })
                .unwrap();
            }
            core.wrapped(CallHandle::of("cudaThreadSynchronize"), 0, || {
                rt.thread_synchronize()
            })
            .unwrap();
            assert_eq!(ipm.profile().count_of("@CUDA_EXEC_STRM00"), 3);
            let log = device.log.lock().clone();
            (log, rt.clock().now())
        };
        let (traced, traced_end) = run(IpmConfig::default());
        let (untraced, untraced_end) = run(IpmConfig::default().without_tracing());
        let bracket = ["record", "record"].repeat(3);
        let sweep = |timestamps: &[&'static str]| -> Vec<&'static str> {
            (0..3)
                .flat_map(|_| ["query", "elapsed"].iter().chain(timestamps).copied())
                .collect()
        };
        assert_eq!(untraced, [bracket.clone(), sweep(&[])].concat());
        assert_eq!(
            traced,
            [bracket, sweep(&["timestamp", "timestamp"])].concat()
        );
        assert_eq!(traced_end, untraced_end, "a timestamp read moved the clock");
    }
}

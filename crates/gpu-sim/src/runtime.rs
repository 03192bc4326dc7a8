//! The per-context CUDA runtime.
//!
//! A [`GpuRuntime`] is what one MPI rank (one process in the paper's world)
//! sees of the GPU: the `cuda*` runtime API. It owns the context-local state
//! — streams, events, the launch-configuration stack used by the
//! `cudaConfigureCall` / `cudaSetupArgument` / `cudaLaunch` trio — and
//! advances its host's virtual clock by modeled durations.
//!
//! ## Timing semantics (the behaviors IPM observes)
//!
//! * **Kernel launches are asynchronous** (paper §III): the launch returns
//!   after a few µs of submission overhead while the kernel is scheduled on
//!   the stream's device timeline. With `launch_blocking`
//!   (`CUDA_LAUNCH_BLOCKING=1`) the host instead waits for completion.
//! * **Synchronous memory operations block implicitly** (paper §III-C):
//!   a sync `cudaMemcpy` first waits for all outstanding device work
//!   (legacy default-stream semantics), then pays the transfer time. This
//!   is the *implicit host blocking* that IPM's `@CUDA_HOST_IDLE` metric
//!   quantifies.
//! * **`cudaMemset` is the exception**: the paper's microbenchmark found it
//!   does *not* block implicitly; we enqueue it on the device timeline and
//!   return after API overhead.
//! * **Events timestamp on-device**: `cudaEventRecord` enqueues a small
//!   operation (2–15 µs) whose completion time becomes the event timestamp;
//!   bracketing a kernel with events therefore over-reports by roughly one
//!   record overhead — exactly the bias Table I shows for IPM.
//! * **The first API call is expensive**: context creation (~1.3 s on
//!   Dirac) is charged lazily, surfacing in whichever call comes first
//!   (`cudaMalloc` in Fig. 4, `cudaGetDeviceCount` in the Amber profile).

use crate::config::GpuConfig;
use crate::counters::CounterStore;
use crate::device::{Device, DeviceProperties, EventId, StreamId};
use crate::error::{CudaError, CudaResult};
use crate::kernel::{Kernel, KernelArg, KernelCtx, LaunchConfig};
use crate::memory::DevicePtr;
use crate::profiler::{ProfKind, ProfRecord, Profiler};
use ipm_sim_core::{SimClock, SimRng};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum threads per block on compute capability 2.0.
const MAX_THREADS_PER_BLOCK: u64 = 1024;

/// Process-global correlation-id source (the CUPTI `correlationId`
/// analogue). Globally unique even when several contexts share one device,
/// so a merged multi-rank trace never aliases two launches.
static NEXT_CORRELATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Correlation id of the most recent kernel enqueued *by this thread*.
    /// Ranks are one-thread-per-process in the simulation, so this is the
    /// per-process "last launch" an interposition layer asks about.
    static LAST_LAUNCH_CORR: Cell<u64> = const { Cell::new(0) };
}

/// Correlation id assigned to the calling thread's most recent kernel
/// launch (0 if this thread has not launched a kernel yet, or if its most
/// recent launch was rejected).
pub fn last_launch_correlation_id() -> u64 {
    LAST_LAUNCH_CORR.with(Cell::get)
}

/// Forget the calling thread's last launch. Every launch entry point calls
/// this before it can fail, so a rejected launch reads 0 instead of the id
/// of an earlier kernel.
pub(crate) fn clear_last_launch() {
    LAST_LAUNCH_CORR.with(|c| c.set(0));
}

#[derive(Debug, Clone, Copy)]
struct StreamState {
    /// Device time at which the last operation enqueued on this stream
    /// completes.
    last_end: f64,
}

#[derive(Debug, Clone, Copy)]
struct EventState {
    /// Device timestamp at which the recorded event completes; `None` until
    /// the first `cudaEventRecord`.
    recorded_at: Option<f64>,
}

#[derive(Debug)]
struct PendingLaunch {
    config: LaunchConfig,
    args: Vec<KernelArg>,
}

struct Inner {
    initialized: bool,
    streams: HashMap<StreamId, StreamState>,
    next_stream: u32,
    events: HashMap<EventId, EventState>,
    next_event: u64,
    launch_stack: Vec<PendingLaunch>,
    /// Completion times (f64 bits) of kernels admitted to the in-context
    /// concurrency window, used to enforce the 16-concurrent-kernel limit.
    active_kernel_ends: Vec<u64>,
    rng: SimRng,
    profiler: Profiler,
    counters: CounterStore,
    last_error: Option<CudaError>,
    device_ordinal: i32,
}

/// One context's view of a simulated GPU: the `cuda*` runtime API.
pub struct GpuRuntime {
    device: Arc<Device>,
    clock: SimClock,
    inner: Mutex<Inner>,
}

impl GpuRuntime {
    /// Attach a new context to `device`, driven by the host clock `clock`
    /// (typically the owning rank's clock).
    pub fn new(device: Arc<Device>, clock: SimClock) -> Self {
        let cfg = device.config();
        let mut streams = HashMap::new();
        streams.insert(StreamId::DEFAULT, StreamState { last_end: 0.0 });
        let inner = Inner {
            initialized: false,
            streams,
            next_stream: 1,
            events: HashMap::new(),
            next_event: 1,
            launch_stack: Vec::new(),
            active_kernel_ends: Vec::new(),
            rng: SimRng::new(cfg.seed).fork(0xCDA),
            profiler: Profiler::new(cfg.profile),
            counters: CounterStore::new(cfg.counters),
            last_error: None,
            device_ordinal: 0,
        };
        Self {
            device,
            clock,
            inner: Mutex::new(inner),
        }
    }

    /// Convenience: a fresh single-context runtime over a new device.
    pub fn single(config: GpuConfig) -> Self {
        let clock = SimClock::new();
        Self::new(Device::new(config), clock)
    }

    /// The host virtual clock this runtime advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The underlying shared device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Snapshot of the ground-truth profiler records (empty unless the
    /// config enabled profiling).
    pub fn profiler_records(&self) -> Vec<ProfRecord> {
        self.inner.lock().profiler.records().to_vec()
    }

    /// Render the `CUDA_PROFILE`-style log.
    pub fn profiler_log(&self) -> String {
        self.inner.lock().profiler.render_log()
    }

    /// Run `f` over the profiler (read-only helpers like totals).
    pub fn with_profiler<R>(&self, f: impl FnOnce(&Profiler) -> R) -> R {
        f(&self.inner.lock().profiler)
    }

    /// Snapshot of the per-kernel hardware counters (empty unless the
    /// config enabled them).
    pub fn counters(&self) -> CounterStore {
        self.inner.lock().counters.clone()
    }

    fn cfg(&self) -> &GpuConfig {
        self.device.config()
    }

    /// Charge lazy context initialization on the first API call.
    fn ensure_init(&self, inner: &mut Inner) {
        if !inner.initialized {
            inner.initialized = true;
            self.device.attach_context();
            self.clock.advance(self.cfg().context_init);
        }
    }

    /// Device time at which *all* outstanding work of this context is done
    /// (the legacy default-stream synchronization point).
    fn sync_point(inner: &Inner) -> f64 {
        inner
            .streams
            .values()
            .map(|s| s.last_end)
            .fold(0.0, f64::max)
    }

    fn record_err(&self, inner: &mut Inner, e: CudaError) -> CudaError {
        inner.last_error = Some(e);
        e
    }

    /// Admit a kernel to the in-context concurrency window. Returns the
    /// earliest start not violating the device's concurrent-kernel limit.
    fn admit_kernel(inner: &mut Inner, proposed: f64, limit: usize) -> f64 {
        // retire kernels finished by `proposed`
        inner
            .active_kernel_ends
            .retain(|&bits| f64::from_bits(bits) > proposed);
        if inner.active_kernel_ends.len() < limit {
            return proposed;
        }
        // wait for the earliest-finishing active kernel
        let (idx, &bits) = inner
            .active_kernel_ends
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| b)
            .expect("window is non-empty");
        inner.active_kernel_ends.swap_remove(idx);
        proposed.max(f64::from_bits(bits))
    }

    fn enqueue_kernel(
        &self,
        inner: &mut Inner,
        kernel: &Kernel,
        config: LaunchConfig,
        args: &[KernelArg],
    ) -> CudaResult<()> {
        if config.block.count() > MAX_THREADS_PER_BLOCK
            || config.grid.count() == 0
            || config.block.count() == 0
        {
            return Err(self.record_err(inner, CudaError::InvalidConfiguration));
        }
        if !inner.streams.contains_key(&config.stream) {
            return Err(self.record_err(inner, CudaError::InvalidResourceHandle));
        }
        let cfg = self.cfg();
        let now = self.clock.now();
        let mut proposed = now.max(inner.streams[&config.stream].last_end);
        if config.stream == StreamId::DEFAULT {
            // legacy default stream serializes against all other streams
            proposed = proposed.max(Self::sync_point(inner));
        }
        proposed = Self::admit_kernel(inner, proposed, cfg.max_concurrent_kernels);

        let base = kernel.duration(&config, &cfg.compute);
        let duration = {
            let d = cfg.noise.perturb_event(base, &mut inner.rng);
            d.max(cfg.compute.kernel_overhead)
        };
        let start = self.device.reserve_compute(proposed, duration);
        let end = start + duration;
        inner
            .streams
            .get_mut(&config.stream)
            .expect("checked")
            .last_end = end;
        inner.active_kernel_ends.push(end.to_bits());

        let corr = NEXT_CORRELATION.fetch_add(1, Ordering::Relaxed);
        LAST_LAUNCH_CORR.with(|c| c.set(corr));
        inner.profiler.record(|| ProfRecord {
            method: kernel.name().to_owned(),
            kind: ProfKind::Kernel,
            stream: config.stream,
            start,
            gputime: duration,
            cputime: cfg.launch_overhead,
            corr,
        });
        if inner.counters.enabled() {
            let threads = config.total_threads();
            let (flops, bytes) = match kernel.cost() {
                crate::kernel::KernelCost::Roofline {
                    flops_per_thread,
                    bytes_per_thread,
                    ..
                } => (
                    flops_per_thread * threads as f64,
                    bytes_per_thread * threads as f64,
                ),
                // fixed-cost kernels carry no arithmetic model
                crate::kernel::KernelCost::Fixed(_) => (0.0, 0.0),
            };
            inner
                .counters
                .record(kernel.name(), flops, bytes, threads, duration);
        }

        // Apply the kernel's semantic effect eagerly: program order on this
        // context guarantees no host observation before a synchronizing op.
        if let Some(effect) = kernel.effect() {
            let effect = effect.clone();
            self.device.with_heap(|heap| {
                let mut ctx = KernelCtx { config, args, heap };
                effect(&mut ctx);
            });
        }

        self.clock.advance(cfg.launch_overhead);
        if cfg.launch_blocking {
            self.clock.advance_to(end);
        }
        Ok(())
    }

    /// Shared path for the three synchronous copy flavors: wait for
    /// outstanding device work (implicit blocking), pay the transfer, then
    /// occupy the default stream until done.
    fn sync_transfer(
        &self,
        inner: &mut Inner,
        bytes: u64,
        kind: ProfKind,
        method: &str,
    ) -> (f64, f64) {
        let cfg = self.cfg();
        self.clock.advance(cfg.api_overhead);
        let host_before = self.clock.now();
        // implicit host blocking: wait for every outstanding device op
        self.clock.advance_to(Self::sync_point(inner));
        let model = match kind {
            ProfKind::MemcpyH2D | ProfKind::MemcpyToSymbol => &cfg.h2d,
            ProfKind::MemcpyD2H => &cfg.d2h,
            ProfKind::MemcpyD2D | ProfKind::Memset => &cfg.d2d,
            ProfKind::Kernel => unreachable!("kernels do not use sync_transfer"),
        };
        let duration = cfg
            .noise
            .perturb_event(model.time(bytes), &mut inner.rng)
            .max(0.0);
        let start = self.clock.now();
        let end = self.clock.advance(duration);
        inner
            .streams
            .get_mut(&StreamId::DEFAULT)
            .expect("default stream")
            .last_end = end;
        inner.profiler.record(|| ProfRecord {
            method: method.to_owned(),
            kind,
            stream: StreamId::DEFAULT,
            start,
            gputime: duration,
            cputime: end - host_before,
            corr: 0,
        });
        (start, end)
    }

    // ----------------------------------------------------------------
    // Memory management
    // ----------------------------------------------------------------

    /// `cudaMalloc`.
    pub fn malloc(&self, size: usize) -> CudaResult<DevicePtr> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().alloc_overhead);
        self.device
            .with_heap(|h| h.malloc(size))
            .map_err(|e| self.record_err(&mut inner, e))
    }

    /// `cudaFree`.
    pub fn free(&self, ptr: DevicePtr) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().alloc_overhead);
        self.device
            .with_heap(|h| h.free(ptr))
            .map_err(|e| self.record_err(&mut inner, e))
    }

    /// Synchronous `cudaMemcpy(..., cudaMemcpyHostToDevice)`.
    pub fn memcpy_h2d(&self, dst: DevicePtr, src: &[u8]) -> CudaResult<()> {
        self.memcpy_h2d_sized(dst, src, src.len() as u64)
    }

    /// Synchronous H2D copy whose *virtual* size is `total_bytes` while
    /// only `src` (a prefix) is physically written. The scale adapter for
    /// paper-size workloads; `total_bytes >= src.len()` is required. The
    /// destination allocation must hold the full `total_bytes`.
    pub fn memcpy_h2d_sized(&self, dst: DevicePtr, src: &[u8], total_bytes: u64) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        if (src.len() as u64) > total_bytes {
            return Err(self.record_err(&mut inner, CudaError::InvalidValue));
        }
        let logical = self
            .device
            .with_heap(|h| h.remaining_len(dst))
            .map_err(|e| self.record_err(&mut inner, e))?;
        if (logical as u64) < total_bytes {
            return Err(self.record_err(&mut inner, CudaError::InvalidValue));
        }
        self.device
            .with_heap(|h| h.write(dst, src))
            .map_err(|e| self.record_err(&mut inner, e))?;
        self.sync_transfer(&mut inner, total_bytes, ProfKind::MemcpyH2D, "memcpyHtoD");
        Ok(())
    }

    /// Synchronous `cudaMemcpy(..., cudaMemcpyDeviceToHost)`.
    pub fn memcpy_d2h(&self, dst: &mut [u8], src: DevicePtr) -> CudaResult<()> {
        let total = dst.len() as u64;
        self.memcpy_d2h_sized(dst, src, total)
    }

    /// Synchronous D2H copy whose *virtual* size is `total_bytes` while
    /// only `dst` (a prefix) is physically read back.
    pub fn memcpy_d2h_sized(
        &self,
        dst: &mut [u8],
        src: DevicePtr,
        total_bytes: u64,
    ) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        if (dst.len() as u64) > total_bytes {
            return Err(self.record_err(&mut inner, CudaError::InvalidValue));
        }
        let logical = self
            .device
            .with_heap(|h| h.remaining_len(src))
            .map_err(|e| self.record_err(&mut inner, e))?;
        if (logical as u64) < total_bytes {
            return Err(self.record_err(&mut inner, CudaError::InvalidValue));
        }
        // wait + transfer first: the data host-side becomes visible *after*
        // the device drained, which is also when we read the heap
        self.sync_transfer(&mut inner, total_bytes, ProfKind::MemcpyD2H, "memcpyDtoH");
        self.device
            .with_heap(|h| h.read(src, dst))
            .map_err(|e| self.record_err(&mut inner, e))
    }

    /// Synchronous device-to-device `cudaMemcpy`.
    pub fn memcpy_d2d(&self, dst: DevicePtr, src: DevicePtr, len: usize) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.device
            .with_heap(|h| h.copy(dst, src, len))
            .map_err(|e| self.record_err(&mut inner, e))?;
        self.sync_transfer(&mut inner, len as u64, ProfKind::MemcpyD2D, "memcpyDtoD");
        Ok(())
    }

    /// `cudaMemcpyToSymbol` (synchronous, implicit blocking — it is in the
    /// paper's identified blocking set).
    pub fn memcpy_to_symbol(&self, symbol: &str, src: &[u8]) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        let ptr = self
            .device
            .symbol(symbol, src.len())
            .map_err(|e| self.record_err(&mut inner, e))?;
        self.device
            .with_heap(|h| h.write(ptr, src))
            .map_err(|e| self.record_err(&mut inner, e))?;
        self.sync_transfer(
            &mut inner,
            src.len() as u64,
            ProfKind::MemcpyToSymbol,
            "memcpyToSymbol",
        );
        Ok(())
    }

    /// Asynchronous `cudaMemcpyAsync` host→device on `stream` (pinned-rate).
    pub fn memcpy_h2d_async(&self, dst: DevicePtr, src: &[u8], stream: StreamId) -> CudaResult<()> {
        self.async_transfer(
            src.len() as u64,
            stream,
            ProfKind::MemcpyH2D,
            "memcpyHtoDasync",
            |dev| dev.with_heap(|h| h.write(dst, src)),
        )
    }

    /// Asynchronous `cudaMemcpyAsync` device→host on `stream` (pinned-rate).
    ///
    /// Data lands in `dst` immediately (Rust cannot defer the write), but
    /// virtual time treats the copy as completing on the stream; call
    /// [`GpuRuntime::stream_synchronize`] before trusting *timing*.
    pub fn memcpy_d2h_async(
        &self,
        dst: &mut [u8],
        src: DevicePtr,
        stream: StreamId,
    ) -> CudaResult<()> {
        self.async_transfer(
            dst.len() as u64,
            stream,
            ProfKind::MemcpyD2H,
            "memcpyDtoHasync",
            |dev| dev.with_heap(|h| h.read(src, dst)),
        )
    }

    fn async_transfer(
        &self,
        bytes: u64,
        stream: StreamId,
        kind: ProfKind,
        method: &str,
        apply: impl FnOnce(&Device) -> CudaResult<()>,
    ) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        let cfg = self.cfg();
        if !inner.streams.contains_key(&stream) {
            return Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle));
        }
        apply(&self.device).map_err(|e| self.record_err(&mut inner, e))?;
        let now = self.clock.now();
        let mut start = now.max(inner.streams[&stream].last_end);
        if stream == StreamId::DEFAULT {
            start = start.max(Self::sync_point(&inner));
        }
        let duration = cfg
            .noise
            .perturb_event(cfg.pinned.time(bytes), &mut inner.rng)
            .max(0.0);
        let end = start + duration;
        inner.streams.get_mut(&stream).expect("checked").last_end = end;
        inner.profiler.record(|| ProfRecord {
            method: method.to_owned(),
            kind,
            stream,
            start,
            gputime: duration,
            cputime: cfg.launch_overhead,
            corr: 0,
        });
        self.clock.advance(cfg.launch_overhead);
        Ok(())
    }

    /// `cudaMemset` — notably **not** implicitly blocking (paper §III-C);
    /// enqueued on the default stream's device timeline.
    pub fn memset(&self, dst: DevicePtr, value: u8, len: usize) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        let cfg = self.cfg();
        self.device
            .with_heap(|h| h.memset(dst, value, len))
            .map_err(|e| self.record_err(&mut inner, e))?;
        let start = self.clock.now().max(Self::sync_point(&inner));
        let duration = cfg.d2d.time(len as u64);
        inner
            .streams
            .get_mut(&StreamId::DEFAULT)
            .expect("default stream")
            .last_end = start + duration;
        inner.profiler.record(|| ProfRecord {
            method: "memset".to_owned(),
            kind: ProfKind::Memset,
            stream: StreamId::DEFAULT,
            start,
            gputime: duration,
            cputime: cfg.api_overhead,
            corr: 0,
        });
        self.clock.advance(cfg.api_overhead);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Kernel launch
    // ----------------------------------------------------------------

    /// `cudaConfigureCall`: push an execution configuration.
    pub fn configure_call(&self, config: LaunchConfig) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        inner.launch_stack.push(PendingLaunch {
            config,
            args: Vec::new(),
        });
        Ok(())
    }

    /// `cudaSetupArgument`: marshal one argument for the pending launch.
    pub fn setup_argument(&self, arg: KernelArg) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        match inner.launch_stack.last_mut() {
            Some(pending) => {
                pending.args.push(arg);
                Ok(())
            }
            None => Err(self.record_err(&mut inner, CudaError::MissingConfiguration)),
        }
    }

    /// `cudaLaunch`: launch `kernel` with the pending configuration.
    pub fn launch(&self, kernel: &Kernel) -> CudaResult<()> {
        clear_last_launch();
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        let pending = match inner.launch_stack.pop() {
            Some(p) => p,
            None => return Err(self.record_err(&mut inner, CudaError::MissingConfiguration)),
        };
        self.enqueue_kernel(&mut inner, kernel, pending.config, &pending.args)
    }

    // ----------------------------------------------------------------
    // Streams
    // ----------------------------------------------------------------

    /// `cudaStreamCreate`.
    pub fn stream_create(&self) -> CudaResult<StreamId> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        let id = StreamId(inner.next_stream);
        inner.next_stream += 1;
        inner.streams.insert(id, StreamState { last_end: 0.0 });
        Ok(id)
    }

    /// `cudaStreamDestroy`. The default stream cannot be destroyed.
    pub fn stream_destroy(&self, stream: StreamId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        if stream == StreamId::DEFAULT || inner.streams.remove(&stream).is_none() {
            return Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle));
        }
        Ok(())
    }

    /// `cudaStreamSynchronize`: block until `stream` drains.
    pub fn stream_synchronize(&self, stream: StreamId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        match inner.streams.get(&stream) {
            Some(s) => {
                self.clock.advance_to(s.last_end);
                Ok(())
            }
            None => Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle)),
        }
    }

    /// `cudaStreamQuery`: `Ok` if the stream has drained, `NotReady`
    /// otherwise.
    pub fn stream_query(&self, stream: StreamId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        match inner.streams.get(&stream) {
            Some(s) if s.last_end <= self.clock.now() => Ok(()),
            Some(_) => Err(CudaError::NotReady),
            None => Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle)),
        }
    }

    /// `cudaThreadSynchronize` (CUDA 3.x name; later `cudaDeviceSynchronize`):
    /// block until all outstanding work of this context completes.
    pub fn thread_synchronize(&self) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        self.clock.advance_to(Self::sync_point(&inner));
        Ok(())
    }

    // ----------------------------------------------------------------
    // Events
    // ----------------------------------------------------------------

    /// `cudaEventCreate`.
    pub fn event_create(&self) -> CudaResult<EventId> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        let id = EventId(inner.next_event);
        inner.next_event += 1;
        inner.events.insert(id, EventState { recorded_at: None });
        Ok(id)
    }

    /// `cudaEventDestroy`.
    pub fn event_destroy(&self, event: EventId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        if inner.events.remove(&event).is_none() {
            return Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle));
        }
        Ok(())
    }

    /// `cudaEventRecord`: enqueue a timestamping operation on `stream`.
    /// The record itself occupies the stream for a few microseconds — the
    /// source of IPM's slight over-reporting in Table I.
    pub fn event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        let cfg = self.cfg();
        self.clock.advance(cfg.api_overhead);
        if !inner.events.contains_key(&event) {
            return Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle));
        }
        let Some(s) = inner.streams.get(&stream).copied() else {
            return Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle));
        };
        let (lo, hi) = cfg.event_record_overhead;
        let overhead = inner.rng.uniform_in(lo, hi);
        let start = self.clock.now().max(s.last_end);
        let ts = start + overhead;
        inner.streams.get_mut(&stream).expect("checked").last_end = ts;
        inner.events.get_mut(&event).expect("checked").recorded_at = Some(ts);
        Ok(())
    }

    /// `cudaEventQuery`: `Ok` once the recorded event has completed on the
    /// device; `NotReady` while work is still pending. As in CUDA, querying
    /// a never-recorded event reports `Ok` (it is trivially "complete").
    pub fn event_query(&self, event: EventId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        match inner.events.get(&event) {
            Some(EventState {
                recorded_at: Some(ts),
            }) if *ts > self.clock.now() => Err(CudaError::NotReady),
            Some(_) => Ok(()),
            None => Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle)),
        }
    }

    /// `cudaEventSynchronize`: block until the event completes.
    pub fn event_synchronize(&self, event: EventId) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        match inner.events.get(&event) {
            Some(EventState {
                recorded_at: Some(ts),
            }) => {
                self.clock.advance_to(*ts);
                Ok(())
            }
            Some(_) => Err(self.record_err(&mut inner, CudaError::EventNotRecorded)),
            None => Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle)),
        }
    }

    /// `cudaEventElapsedTime`, in **seconds** (the real API returns
    /// milliseconds; seconds keep this workspace single-unit).
    /// Errors with `NotReady` if either event has not completed yet.
    pub fn event_elapsed_time(&self, start: EventId, stop: EventId) -> CudaResult<f64> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        let get = |inner: &Inner, id: EventId| -> CudaResult<f64> {
            match inner.events.get(&id) {
                Some(EventState {
                    recorded_at: Some(ts),
                }) => Ok(*ts),
                Some(_) => Err(CudaError::EventNotRecorded),
                None => Err(CudaError::InvalidResourceHandle),
            }
        };
        let t0 = get(&inner, start).map_err(|e| self.record_err(&mut inner, e))?;
        let t1 = get(&inner, stop).map_err(|e| self.record_err(&mut inner, e))?;
        let now = self.clock.now();
        if t0 > now || t1 > now {
            return Err(CudaError::NotReady);
        }
        Ok(t1 - t0)
    }

    /// Absolute device completion timestamp of a recorded event (virtual
    /// seconds on the shared timeline). Not a `cuda*` entry point — this is
    /// the introspection hook trace exporters use to place event-bracketed
    /// intervals on the device timeline. Free of API overhead so probing
    /// does not perturb the run. Errors if the event was never recorded or
    /// has not completed yet.
    pub fn event_timestamp(&self, event: EventId) -> CudaResult<f64> {
        let mut inner = self.inner.lock();
        match inner.events.get(&event) {
            Some(EventState {
                recorded_at: Some(ts),
            }) if *ts <= self.clock.now() => Ok(*ts),
            Some(EventState {
                recorded_at: Some(_),
            }) => Err(CudaError::NotReady),
            Some(_) => Err(CudaError::EventNotRecorded),
            None => Err(self.record_err(&mut inner, CudaError::InvalidResourceHandle)),
        }
    }

    // ----------------------------------------------------------------
    // Device management
    // ----------------------------------------------------------------

    /// `cudaGetDeviceCount`. Triggers lazy initialization, which is why the
    /// Amber profile in the paper shows substantial time here.
    pub fn get_device_count(&self) -> CudaResult<i32> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        Ok(1)
    }

    /// `cudaSetDevice` (single-device nodes: only ordinal 0 is valid, as on
    /// Dirac).
    pub fn set_device(&self, ordinal: i32) -> CudaResult<()> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        if ordinal != 0 {
            return Err(self.record_err(&mut inner, CudaError::InvalidDevice));
        }
        inner.device_ordinal = ordinal;
        Ok(())
    }

    /// `cudaGetDeviceProperties`.
    pub fn get_device_properties(&self) -> CudaResult<DeviceProperties> {
        let mut inner = self.inner.lock();
        self.ensure_init(&mut inner);
        self.clock.advance(self.cfg().api_overhead);
        Ok(self.device.properties().clone())
    }

    /// `cudaGetLastError`: returns and clears the sticky error.
    pub fn get_last_error(&self) -> Option<CudaError> {
        let mut inner = self.inner.lock();
        self.clock.advance(self.cfg().api_overhead);
        inner.last_error.take()
    }
}

impl std::fmt::Debug for GpuRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuRuntime")
            .field("device", &self.device)
            .field("now", &self.clock.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Dim3, KernelCost};

    fn rt() -> GpuRuntime {
        // zero init cost keeps arithmetic easy in unit tests
        GpuRuntime::single(GpuConfig::dirac_node().with_context_init(0.0))
    }

    fn fixed_kernel(d: f64) -> Kernel {
        Kernel::timed("k", KernelCost::Fixed(d))
    }

    fn launch(rt: &GpuRuntime, k: &Kernel, config: LaunchConfig) {
        rt.configure_call(config).unwrap();
        rt.setup_argument(KernelArg::I32(0)).unwrap();
        rt.launch(k).unwrap();
    }

    #[test]
    fn first_call_pays_context_init() {
        let rt = GpuRuntime::single(GpuConfig::dirac_node().with_context_init(1.29));
        assert_eq!(rt.clock().now(), 0.0);
        let before = rt.clock().now();
        rt.malloc(1024).unwrap();
        let first = rt.clock().now() - before;
        assert!(first >= 1.29, "first call took {first}");
        let before = rt.clock().now();
        rt.malloc(1024).unwrap();
        let second = rt.clock().now() - before;
        assert!(second < 0.001, "second call took {second}");
    }

    #[test]
    fn launch_is_asynchronous() {
        let rt = rt();
        let k = fixed_kernel(1.0);
        let before = rt.clock().now();
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        let host_cost = rt.clock().now() - before;
        assert!(host_cost < 1e-3, "launch blocked the host for {host_cost}");
        rt.thread_synchronize().unwrap();
        assert!(rt.clock().now() >= before + 1.0);
    }

    #[test]
    fn launch_blocking_waits() {
        let rt = GpuRuntime::single(
            GpuConfig::dirac_node()
                .with_context_init(0.0)
                .with_launch_blocking(),
        );
        let k = fixed_kernel(0.5);
        let before = rt.clock().now();
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        assert!(rt.clock().now() - before >= 0.5);
    }

    #[test]
    fn sync_d2h_blocks_on_outstanding_kernel() {
        // the Fig. 3/6 scenario: async kernel, then blocking memcpy
        let rt = rt();
        let n = 100_000usize;
        let dev = rt.malloc(n * 8).unwrap();
        let host: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let bytes: Vec<u8> = host.iter().flat_map(|v| v.to_le_bytes()).collect();
        rt.memcpy_h2d(dev, &bytes).unwrap();

        let k = Kernel::with_effect("square", KernelCost::Fixed(1.15), move |ctx| {
            let p = ctx.args[0].as_ptr().unwrap();
            let n = ctx.args[1].as_i32().unwrap() as usize;
            ctx.heap.map_f64(p, n, |_, v| v * v).unwrap();
        });
        rt.configure_call(LaunchConfig::simple(Dim3::x(n as u32), 1u32))
            .unwrap();
        rt.setup_argument(KernelArg::Ptr(dev)).unwrap();
        rt.setup_argument(KernelArg::I32(n as i32)).unwrap();
        rt.launch(&k).unwrap();

        let before = rt.clock().now();
        let mut out = vec![0u8; n * 8];
        rt.memcpy_d2h(&mut out, dev).unwrap();
        let d2h_time = rt.clock().now() - before;
        // dominated by the implicit wait for the 1.15 s kernel
        assert!(d2h_time > 1.1, "d2h took {d2h_time}");

        // and the data is really squared
        let v0 = f64::from_le_bytes(out[8 * 7..8 * 8].try_into().unwrap());
        assert_eq!(v0, 49.0);
    }

    #[test]
    fn memset_does_not_block_host() {
        let rt = rt();
        let dev = rt.malloc(1 << 20).unwrap();
        launch(&rt, &fixed_kernel(2.0), LaunchConfig::simple(1u32, 1u32));
        let before = rt.clock().now();
        rt.memset(dev, 0xFF, 1 << 20).unwrap();
        let cost = rt.clock().now() - before;
        assert!(cost < 1e-3, "memset blocked for {cost}");
    }

    #[test]
    fn event_bracketing_overreports_kernel_time_slightly() {
        let rt = rt();
        let start = rt.event_create().unwrap();
        let stop = rt.event_create().unwrap();
        rt.event_record(start, StreamId::DEFAULT).unwrap();
        launch(&rt, &fixed_kernel(0.010), LaunchConfig::simple(1u32, 1u32));
        rt.event_record(stop, StreamId::DEFAULT).unwrap();
        rt.thread_synchronize().unwrap();
        let measured = rt.event_elapsed_time(start, stop).unwrap();
        let (lo, hi) = rt.device().config().event_record_overhead;
        assert!(measured >= 0.010 + lo, "measured {measured}");
        assert!(measured <= 0.010 + hi + 1e-9, "measured {measured}");
    }

    #[test]
    fn event_query_tracks_device_progress() {
        let rt = rt();
        let ev = rt.event_create().unwrap();
        launch(&rt, &fixed_kernel(1.0), LaunchConfig::simple(1u32, 1u32));
        rt.event_record(ev, StreamId::DEFAULT).unwrap();
        assert_eq!(rt.event_query(ev).unwrap_err(), CudaError::NotReady);
        rt.thread_synchronize().unwrap();
        assert!(rt.event_query(ev).is_ok());
    }

    #[test]
    fn unrecorded_event_query_is_complete_like_cuda() {
        let rt = rt();
        let ev = rt.event_create().unwrap();
        assert!(rt.event_query(ev).is_ok());
        assert_eq!(
            rt.event_synchronize(ev).unwrap_err(),
            CudaError::EventNotRecorded
        );
    }

    #[test]
    fn elapsed_time_before_completion_is_not_ready() {
        let rt = rt();
        let (a, b) = (rt.event_create().unwrap(), rt.event_create().unwrap());
        rt.event_record(a, StreamId::DEFAULT).unwrap();
        launch(&rt, &fixed_kernel(1.0), LaunchConfig::simple(1u32, 1u32));
        rt.event_record(b, StreamId::DEFAULT).unwrap();
        assert_eq!(
            rt.event_elapsed_time(a, b).unwrap_err(),
            CudaError::NotReady
        );
    }

    #[test]
    fn streams_overlap_but_default_stream_serializes() {
        let rt = rt();
        let s1 = rt.stream_create().unwrap();
        let s2 = rt.stream_create().unwrap();
        let k = fixed_kernel(1.0);
        let t0 = rt.clock().now();
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32).on_stream(s1));
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32).on_stream(s2));
        rt.thread_synchronize().unwrap();
        let overlapped = rt.clock().now() - t0;
        assert!(overlapped < 1.5, "streams did not overlap: {overlapped}");

        // same two kernels via the default stream serialize
        let t1 = rt.clock().now();
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        rt.thread_synchronize().unwrap();
        let serialized = rt.clock().now() - t1;
        assert!(serialized >= 2.0, "default stream overlapped: {serialized}");
    }

    #[test]
    fn concurrent_kernel_limit_enforced() {
        let rt = rt();
        // 20 streams, each a 1 s kernel; limit is 16 → two waves → ~2 s
        let streams: Vec<_> = (0..20).map(|_| rt.stream_create().unwrap()).collect();
        let k = fixed_kernel(1.0);
        let t0 = rt.clock().now();
        for s in &streams {
            launch(&rt, &k, LaunchConfig::simple(1u32, 1u32).on_stream(*s));
        }
        rt.thread_synchronize().unwrap();
        let took = rt.clock().now() - t0;
        assert!(took >= 2.0, "limit not enforced: {took}");
        assert!(took < 3.0, "over-serialized: {took}");
    }

    #[test]
    fn launch_without_configuration_fails() {
        let rt = rt();
        let k = fixed_kernel(0.1);
        assert_eq!(rt.launch(&k).unwrap_err(), CudaError::MissingConfiguration);
        assert_eq!(rt.get_last_error(), Some(CudaError::MissingConfiguration));
        assert_eq!(rt.get_last_error(), None); // sticky error cleared
    }

    #[test]
    fn a_rejected_launch_leaves_no_correlation_id() {
        let rt = rt();
        let k = fixed_kernel(0.1);
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        assert_ne!(last_launch_correlation_id(), 0);
        assert!(rt.launch(&k).is_err());
        assert_eq!(last_launch_correlation_id(), 0);
    }

    #[test]
    fn invalid_configuration_rejected() {
        let rt = rt();
        let k = fixed_kernel(0.1);
        rt.configure_call(LaunchConfig::simple(1u32, 2048u32))
            .unwrap();
        assert_eq!(rt.launch(&k).unwrap_err(), CudaError::InvalidConfiguration);
    }

    #[test]
    fn destroyed_stream_is_invalid() {
        let rt = rt();
        let s = rt.stream_create().unwrap();
        rt.stream_destroy(s).unwrap();
        assert_eq!(
            rt.stream_synchronize(s).unwrap_err(),
            CudaError::InvalidResourceHandle
        );
        assert_eq!(
            rt.stream_destroy(StreamId::DEFAULT).unwrap_err(),
            CudaError::InvalidResourceHandle
        );
    }

    #[test]
    fn memcpy_to_symbol_roundtrip() {
        let rt = rt();
        rt.memcpy_to_symbol("c_params", &[1, 2, 3, 4]).unwrap();
        let ptr = rt.device().symbol("c_params", 4).unwrap();
        let mut out = [0u8; 4];
        rt.device().with_heap(|h| h.read(ptr, &mut out)).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn profiler_captures_true_kernel_time() {
        let rt = GpuRuntime::single(
            GpuConfig::dirac_node()
                .with_context_init(0.0)
                .with_profiler(),
        );
        let k = fixed_kernel(0.25);
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        launch(&rt, &k, LaunchConfig::simple(1u32, 1u32));
        rt.thread_synchronize().unwrap();
        assert!((rt.with_profiler(|p| p.kernel_time_total("k")) - 0.5).abs() < 1e-9);
        assert_eq!(rt.with_profiler(|p| p.kernel_invocations("k")), 2);
    }

    #[test]
    fn stream_query_reports_progress() {
        let rt = rt();
        let s = rt.stream_create().unwrap();
        launch(
            &rt,
            &fixed_kernel(1.0),
            LaunchConfig::simple(1u32, 1u32).on_stream(s),
        );
        assert_eq!(rt.stream_query(s).unwrap_err(), CudaError::NotReady);
        rt.stream_synchronize(s).unwrap();
        assert!(rt.stream_query(s).is_ok());
    }

    #[test]
    fn device_management_calls() {
        let rt = rt();
        assert_eq!(rt.get_device_count().unwrap(), 1);
        rt.set_device(0).unwrap();
        assert_eq!(rt.set_device(3).unwrap_err(), CudaError::InvalidDevice);
        assert_eq!(rt.get_device_properties().unwrap().name, "Tesla C2050");
    }
}

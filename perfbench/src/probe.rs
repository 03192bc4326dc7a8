//! Benchmark-owned wrappers around the `RankCtx` API objects.
//!
//! The app closure swaps `ctx.cuda`, `ctx.mpi`, `ctx.fft` and `ctx.io` for
//! these probes, so every call the workload issues passes through code the
//! benchmark owns and the program itself stays uninstrumented. A probe
//! always counts the calls it forwards (the correctness checks compare the
//! counts with what IPM booked); in the span run it also records one span
//! per call into a preallocated per-thread log.
//!
//! Both the monitored and the bare side of every measurement run behind
//! the same probes, so their cost cancels in every monitored − bare
//! difference.

use ipm_gpu_sim::{
    CudaApi, CudaError, CudaResult, DeviceProperties, DevicePtr, EventId, Kernel, KernelArg,
    LaunchConfig, StreamId,
};
use ipm_mpi_sim::{MpiApi, MpiResult, ReduceOp, Request};
use ipm_numlib::{FftApi, FftDirection, FftType, PlanId};
use ipm_sim_core::fsio::{FileHandle, FsResult, IoApi, OpenMode};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

macro_rules! calls {
    ($($id:ident = $name:literal,)*) => {
        /// Every call a probe forwards, named as IPM books it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Call { $($id,)* }

        /// IPM event name per [`Call`], in declaration order.
        pub const CALL_NAMES: &[&str] = &[$($name,)*];
    };
}

calls! {
    CudaMalloc = "cudaMalloc",
    CudaFree = "cudaFree",
    MemcpyH2d = "cudaMemcpy(H2D)",
    MemcpyD2h = "cudaMemcpy(D2H)",
    MemcpyD2d = "cudaMemcpy(D2D)",
    MemcpyH2dAsync = "cudaMemcpyAsync(H2D)",
    MemcpyD2hAsync = "cudaMemcpyAsync(D2H)",
    MemcpyToSymbol = "cudaMemcpyToSymbol",
    Memset = "cudaMemset",
    Configure = "cudaConfigureCall",
    SetupArgument = "cudaSetupArgument",
    Launch = "cudaLaunch",
    StreamCreate = "cudaStreamCreate",
    StreamDestroy = "cudaStreamDestroy",
    StreamSynchronize = "cudaStreamSynchronize",
    StreamQuery = "cudaStreamQuery",
    EventCreate = "cudaEventCreate",
    EventDestroy = "cudaEventDestroy",
    EventRecord = "cudaEventRecord",
    EventQuery = "cudaEventQuery",
    EventSynchronize = "cudaEventSynchronize",
    EventElapsedTime = "cudaEventElapsedTime",
    ThreadSynchronize = "cudaThreadSynchronize",
    GetDeviceCount = "cudaGetDeviceCount",
    SetDevice = "cudaSetDevice",
    GetDeviceProperties = "cudaGetDeviceProperties",
    GetLastError = "cudaGetLastError",
    MpiSend = "MPI_Send",
    MpiRecv = "MPI_Recv",
    MpiIsend = "MPI_Isend",
    MpiIrecv = "MPI_Irecv",
    MpiWait = "MPI_Wait",
    MpiBarrier = "MPI_Barrier",
    MpiBcast = "MPI_Bcast",
    MpiReduce = "MPI_Reduce",
    MpiAllreduce = "MPI_Allreduce",
    MpiGather = "MPI_Gather",
    MpiAllgather = "MPI_Allgather",
    MpiAlltoall = "MPI_Alltoall",
    FftPlan1d = "cufftPlan1d",
    FftSetStream = "cufftSetStream",
    FftExecZ2z = "cufftExecZ2Z",
    FftDestroy = "cufftDestroy",
    Fopen = "fopen",
    Fread = "fread",
    Fwrite = "fwrite",
    Fclose = "fclose",
}

/// First call of the MPI block in [`CALL_NAMES`]; everything before it is
/// a CUDA runtime call.
pub const FIRST_MPI: usize = Call::MpiSend as usize;
/// First CUFFT call.
pub const FIRST_FFT: usize = Call::FftPlan1d as usize;
/// First file-I/O call.
pub const FIRST_IO: usize = Call::Fopen as usize;

/// Nanoseconds since the process-wide span epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval: what was called, when, and the span that was open
/// around it (`u32::MAX` for a root).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// A thread's span log: preallocated, appended without locking, and
/// handed back by [`SpanLog::finish`] when the thread's work ends.
#[derive(Debug)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// Index of the open root, [`NO_PARENT`] while the log is closed.
    open: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::CLOSED
    }
}

thread_local! {
    static LOG: RefCell<SpanLog> = const { RefCell::new(SpanLog::CLOSED) };
}

impl SpanLog {
    const CLOSED: Self = Self {
        spans: Vec::new(),
        open: NO_PARENT,
    };

    /// Start this thread's log with room for `capacity` spans and open a
    /// root span `name`; every span recorded until [`SpanLog::finish`]
    /// becomes its child.
    pub fn begin(name: &'static str, capacity: usize) {
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            l.spans = Vec::with_capacity(capacity + 1);
            l.spans.push(Span {
                name,
                start_ns: now_ns(),
                end_ns: 0,
                parent: NO_PARENT,
            });
            l.open = 0;
        });
    }

    /// Record one child span of the open root.
    #[inline]
    fn record(name: &'static str, start_ns: u64, end_ns: u64) {
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            let parent = l.open;
            l.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
            });
        });
    }

    /// Close the root span and take the log.
    pub fn finish() -> SpanLog {
        LOG.with(|l| {
            let mut log = std::mem::take(&mut *l.borrow_mut());
            if let Some(root) = log.spans.first_mut() {
                root.end_ns = now_ns();
            }
            log
        })
    }

    /// Time `f`, returning its result and duration in seconds; when this
    /// thread has a log open, the interval is also recorded as a child
    /// span of its root (the post-mortem steps).
    pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        if LOG.with(|l| l.borrow().open != NO_PARENT) {
            Self::record(name, start, end);
        }
        (out, (end - start) as f64 * 1e-9)
    }
}

/// Per-rank call counters shared by one rank's four probes.
pub struct Probe {
    counts: Vec<AtomicU64>,
    spans: bool,
}

impl Probe {
    pub fn new(spans: bool) -> Arc<Self> {
        Arc::new(Self {
            counts: CALL_NAMES.iter().map(|_| AtomicU64::new(0)).collect(),
            spans,
        })
    }

    /// Count one call and, in the span run, time it.
    #[inline]
    fn call<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        // one writer per probe (the rank thread): a plain load/store pair,
        // not a locked read-modify-write
        let slot = &self.counts[call as usize];
        slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if !self.spans {
            return f();
        }
        let start = now_ns();
        let out = f();
        SpanLog::record(CALL_NAMES[call as usize], start, now_ns());
        out
    }

    /// Calls forwarded so far, indexed like [`CALL_NAMES`].
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Probe around the (possibly monitored) CUDA runtime.
pub struct CudaProbe {
    pub inner: Arc<dyn CudaApi>,
    pub probe: Arc<Probe>,
}

impl CudaApi for CudaProbe {
    fn cuda_malloc(&self, size: usize) -> CudaResult<DevicePtr> {
        self.probe
            .call(Call::CudaMalloc, || self.inner.cuda_malloc(size))
    }
    fn cuda_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.probe
            .call(Call::CudaFree, || self.inner.cuda_free(ptr))
    }
    fn cuda_memcpy_h2d(&self, dst: DevicePtr, src: &[u8]) -> CudaResult<()> {
        self.probe
            .call(Call::MemcpyH2d, || self.inner.cuda_memcpy_h2d(dst, src))
    }
    fn cuda_memcpy_d2h(&self, dst: &mut [u8], src: DevicePtr) -> CudaResult<()> {
        self.probe
            .call(Call::MemcpyD2h, || self.inner.cuda_memcpy_d2h(dst, src))
    }
    fn cuda_memcpy_h2d_sized(&self, dst: DevicePtr, src: &[u8], total: u64) -> CudaResult<()> {
        self.probe.call(Call::MemcpyH2d, || {
            self.inner.cuda_memcpy_h2d_sized(dst, src, total)
        })
    }
    fn cuda_memcpy_d2h_sized(&self, dst: &mut [u8], src: DevicePtr, total: u64) -> CudaResult<()> {
        self.probe.call(Call::MemcpyD2h, || {
            self.inner.cuda_memcpy_d2h_sized(dst, src, total)
        })
    }
    fn cuda_memcpy_d2d(&self, dst: DevicePtr, src: DevicePtr, len: usize) -> CudaResult<()> {
        self.probe.call(Call::MemcpyD2d, || {
            self.inner.cuda_memcpy_d2d(dst, src, len)
        })
    }
    fn cuda_memcpy_h2d_async(&self, dst: DevicePtr, src: &[u8], s: StreamId) -> CudaResult<()> {
        self.probe.call(Call::MemcpyH2dAsync, || {
            self.inner.cuda_memcpy_h2d_async(dst, src, s)
        })
    }
    fn cuda_memcpy_d2h_async(&self, dst: &mut [u8], src: DevicePtr, s: StreamId) -> CudaResult<()> {
        self.probe.call(Call::MemcpyD2hAsync, || {
            self.inner.cuda_memcpy_d2h_async(dst, src, s)
        })
    }
    fn cuda_memcpy_to_symbol(&self, symbol: &str, src: &[u8]) -> CudaResult<()> {
        self.probe.call(Call::MemcpyToSymbol, || {
            self.inner.cuda_memcpy_to_symbol(symbol, src)
        })
    }
    fn cuda_memset(&self, dst: DevicePtr, value: u8, len: usize) -> CudaResult<()> {
        self.probe
            .call(Call::Memset, || self.inner.cuda_memset(dst, value, len))
    }
    fn cuda_configure_call(&self, config: LaunchConfig) -> CudaResult<()> {
        self.probe
            .call(Call::Configure, || self.inner.cuda_configure_call(config))
    }
    fn cuda_setup_argument(&self, arg: KernelArg) -> CudaResult<()> {
        self.probe
            .call(Call::SetupArgument, || self.inner.cuda_setup_argument(arg))
    }
    fn cuda_launch(&self, kernel: &Kernel) -> CudaResult<()> {
        self.probe
            .call(Call::Launch, || self.inner.cuda_launch(kernel))
    }
    fn cuda_stream_create(&self) -> CudaResult<StreamId> {
        self.probe
            .call(Call::StreamCreate, || self.inner.cuda_stream_create())
    }
    fn cuda_stream_destroy(&self, stream: StreamId) -> CudaResult<()> {
        self.probe.call(Call::StreamDestroy, || {
            self.inner.cuda_stream_destroy(stream)
        })
    }
    fn cuda_stream_synchronize(&self, stream: StreamId) -> CudaResult<()> {
        self.probe.call(Call::StreamSynchronize, || {
            self.inner.cuda_stream_synchronize(stream)
        })
    }
    fn cuda_stream_query(&self, stream: StreamId) -> CudaResult<()> {
        self.probe
            .call(Call::StreamQuery, || self.inner.cuda_stream_query(stream))
    }
    fn cuda_event_create(&self) -> CudaResult<EventId> {
        self.probe
            .call(Call::EventCreate, || self.inner.cuda_event_create())
    }
    fn cuda_event_destroy(&self, event: EventId) -> CudaResult<()> {
        self.probe
            .call(Call::EventDestroy, || self.inner.cuda_event_destroy(event))
    }
    fn cuda_event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
        self.probe.call(Call::EventRecord, || {
            self.inner.cuda_event_record(event, stream)
        })
    }
    fn cuda_event_query(&self, event: EventId) -> CudaResult<()> {
        self.probe
            .call(Call::EventQuery, || self.inner.cuda_event_query(event))
    }
    fn cuda_event_synchronize(&self, event: EventId) -> CudaResult<()> {
        self.probe.call(Call::EventSynchronize, || {
            self.inner.cuda_event_synchronize(event)
        })
    }
    fn cuda_event_elapsed_time(&self, start: EventId, stop: EventId) -> CudaResult<f64> {
        self.probe.call(Call::EventElapsedTime, || {
            self.inner.cuda_event_elapsed_time(start, stop)
        })
    }
    fn cuda_thread_synchronize(&self) -> CudaResult<()> {
        self.probe.call(Call::ThreadSynchronize, || {
            self.inner.cuda_thread_synchronize()
        })
    }
    fn cuda_get_device_count(&self) -> CudaResult<i32> {
        self.probe
            .call(Call::GetDeviceCount, || self.inner.cuda_get_device_count())
    }
    fn cuda_set_device(&self, ordinal: i32) -> CudaResult<()> {
        self.probe
            .call(Call::SetDevice, || self.inner.cuda_set_device(ordinal))
    }
    fn cuda_get_device_properties(&self) -> CudaResult<DeviceProperties> {
        self.probe.call(Call::GetDeviceProperties, || {
            self.inner.cuda_get_device_properties()
        })
    }
    fn cuda_get_last_error(&self) -> Option<CudaError> {
        self.probe
            .call(Call::GetLastError, || self.inner.cuda_get_last_error())
    }
    // introspection, not an application call: forwarded untimed
    fn cuda_last_launch_correlation_id(&self) -> u64 {
        self.inner.cuda_last_launch_correlation_id()
    }
    fn cuda_event_timestamp(&self, event: EventId) -> CudaResult<f64> {
        self.inner.cuda_event_timestamp(event)
    }
}

/// Probe around the (possibly monitored) MPI API.
pub struct MpiProbe {
    pub inner: Arc<dyn MpiApi>,
    pub probe: Arc<Probe>,
}

impl MpiApi for MpiProbe {
    // rank/size/wtime are not booked by IPM: forwarded uncounted
    fn mpi_comm_rank(&self) -> usize {
        self.inner.mpi_comm_rank()
    }
    fn mpi_comm_size(&self) -> usize {
        self.inner.mpi_comm_size()
    }
    fn mpi_send(&self, dest: usize, tag: i32, data: &[u8]) -> MpiResult<()> {
        self.probe
            .call(Call::MpiSend, || self.inner.mpi_send(dest, tag, data))
    }
    fn mpi_recv(&self, src: Option<usize>, tag: i32) -> MpiResult<(usize, Vec<u8>)> {
        self.probe
            .call(Call::MpiRecv, || self.inner.mpi_recv(src, tag))
    }
    fn mpi_isend(&self, dest: usize, tag: i32, data: &[u8]) -> MpiResult<Request> {
        self.probe
            .call(Call::MpiIsend, || self.inner.mpi_isend(dest, tag, data))
    }
    fn mpi_irecv(&self, src: Option<usize>, tag: i32) -> MpiResult<Request> {
        self.probe
            .call(Call::MpiIrecv, || self.inner.mpi_irecv(src, tag))
    }
    fn mpi_wait(&self, req: &mut Request) -> MpiResult<Option<(usize, Vec<u8>)>> {
        self.probe.call(Call::MpiWait, || self.inner.mpi_wait(req))
    }
    fn mpi_barrier(&self) -> MpiResult<()> {
        self.probe
            .call(Call::MpiBarrier, || self.inner.mpi_barrier())
    }
    fn mpi_bcast(&self, root: usize, data: Vec<u8>) -> MpiResult<Vec<u8>> {
        self.probe
            .call(Call::MpiBcast, || self.inner.mpi_bcast(root, data))
    }
    fn mpi_reduce_f64(
        &self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> MpiResult<Option<Vec<f64>>> {
        self.probe.call(Call::MpiReduce, || {
            self.inner.mpi_reduce_f64(root, data, op)
        })
    }
    fn mpi_allreduce_f64(&self, data: &[f64], op: ReduceOp) -> MpiResult<Vec<f64>> {
        self.probe.call(Call::MpiAllreduce, || {
            self.inner.mpi_allreduce_f64(data, op)
        })
    }
    fn mpi_gather(&self, root: usize, data: &[u8]) -> MpiResult<Option<Vec<Vec<u8>>>> {
        self.probe
            .call(Call::MpiGather, || self.inner.mpi_gather(root, data))
    }
    fn mpi_allgather(&self, data: &[u8]) -> MpiResult<Vec<Vec<u8>>> {
        self.probe
            .call(Call::MpiAllgather, || self.inner.mpi_allgather(data))
    }
    fn mpi_alltoall(&self, data: &[u8]) -> MpiResult<Vec<u8>> {
        self.probe
            .call(Call::MpiAlltoall, || self.inner.mpi_alltoall(data))
    }
    fn mpi_wtime(&self) -> f64 {
        self.inner.mpi_wtime()
    }
}

/// Probe around the (possibly monitored) CUFFT API.
pub struct FftProbe {
    pub inner: Arc<dyn FftApi>,
    pub probe: Arc<Probe>,
}

impl FftApi for FftProbe {
    fn cufft_plan_1d(&self, n: usize, ty: FftType, batch: usize) -> CudaResult<PlanId> {
        self.probe
            .call(Call::FftPlan1d, || self.inner.cufft_plan_1d(n, ty, batch))
    }
    fn cufft_set_stream(&self, plan: PlanId, stream: StreamId) -> CudaResult<()> {
        self.probe.call(Call::FftSetStream, || {
            self.inner.cufft_set_stream(plan, stream)
        })
    }
    fn cufft_exec_z2z(
        &self,
        plan: PlanId,
        idata: DevicePtr,
        odata: DevicePtr,
        dir: FftDirection,
    ) -> CudaResult<()> {
        self.probe.call(Call::FftExecZ2z, || {
            self.inner.cufft_exec_z2z(plan, idata, odata, dir)
        })
    }
    fn cufft_destroy(&self, plan: PlanId) -> CudaResult<()> {
        self.probe
            .call(Call::FftDestroy, || self.inner.cufft_destroy(plan))
    }
}

/// Probe around the (possibly monitored) file-I/O API.
pub struct IoProbe {
    pub inner: Arc<dyn IoApi>,
    pub probe: Arc<Probe>,
}

impl IoApi for IoProbe {
    fn fopen(&self, path: &str, mode: OpenMode) -> FsResult<FileHandle> {
        self.probe
            .call(Call::Fopen, || self.inner.fopen(path, mode))
    }
    fn fread(&self, h: FileHandle, buf: &mut [u8]) -> FsResult<usize> {
        self.probe.call(Call::Fread, || self.inner.fread(h, buf))
    }
    fn fwrite(&self, h: FileHandle, data: &[u8]) -> FsResult<usize> {
        self.probe.call(Call::Fwrite, || self.inner.fwrite(h, data))
    }
    fn fclose(&self, h: FileHandle) -> FsResult<()> {
        self.probe.call(Call::Fclose, || self.inner.fclose(h))
    }
}

//! The record path allocates nothing in steady state.
//!
//! A counting global allocator (per thread, so the harness's other test
//! threads do not leak into a count) checks the three per-event paths a
//! monitored run takes most often, after a warm-up that lets the table's
//! delta cell, the KTT's event pairs and completion buffer, and the
//! `@CUDA_EXEC_STRMxx` cache reach their steady state:
//!
//! * a traced [`Ipm::span`] (table deposit plus trace-ring push);
//! * a timed `cudaLaunch` (KTT bracketing plus the wrapped launch);
//! * a booked kernel completion (KTT sweep, `@CUDA_EXEC_STRMxx` deposit and
//!   its kernel-execution trace record).
//!
//! A thread whose keys outnumber its delta cell is checked too: the cell
//! flushes itself into the table's shared map whenever it fills, and once
//! that map holds every key, those deposits allocate nothing either.
//!
//! The device behind the CUDA facade is the simulator. The monitored paths
//! are compared against the same calls made on the bare runtime, and must
//! add nothing; with its profiler off, the bare runtime's launches and
//! copies allocate nothing either.

use ipm_core::table::CELL_SLOTS;
use ipm_core::{Ipm, IpmConfig, IpmCuda, PerfTable, SigKey};
use ipm_gpu_sim::{
    launch_kernel, CudaApi, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig,
};
use ipm_interpose::{CallHandle, MonitorSink};
use ipm_sim_core::SimClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// per-thread counter is a const-initialized `Cell` with no destructor, so
// bumping it never allocates or touches allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn traced_span_allocates_nothing() {
    let ipm = Ipm::new(SimClock::new(), IpmConfig::default());
    assert!(ipm.config().trace_capacity > 0);
    let calls = ["cudaStreamQuery", "cudaEventQuery", "cudaLaunch"].map(CallHandle::of);
    let span = |i: usize| {
        let t = i as f64 * 1e-6;
        ipm.span(calls[i % 3], 0, t, t + 3e-7);
    };
    // first deposits insert the keys into this thread's delta cell
    (0..64).for_each(span);
    let n = 20_000;
    let counted = allocs(|| (64..64 + n).for_each(span));
    assert_eq!(counted, 0, "{counted} allocations over {n} traced spans");
    assert_eq!(ipm.monitor_info().trace_captured, 64 + n as u64);

    // a drain empties the ring; the first push after it reserves the
    // whole capacity again (once), and pushes after that allocate nothing
    assert_eq!(ipm.drain_trace().len(), 64 + n);
    let refill = allocs(|| (0..512).for_each(span));
    assert!(refill <= 1, "{refill} allocations refilling");
    let counted = allocs(|| (0..n).for_each(span));
    assert_eq!(counted, 0, "{counted} allocations after a drain");
}

#[test]
fn deposits_past_a_full_cell_allocate_nothing() {
    let table = PerfTable::new();
    let id = CallHandle::of("alloc_free_key").id;
    let keys: Vec<SigKey> = (0..2 * CELL_SLOTS as u64)
        .map(|i| SigKey::call(id, i))
        .collect();
    let deposit_all = || {
        for (i, &key) in keys.iter().enumerate() {
            table.update_key(key, i as f64 * 1e-9);
        }
    };
    // warm-up: the cell fills and flushes itself into the shared map,
    // which sizes the map and the drain buffer
    deposit_all();
    assert_eq!(table.len(), keys.len());
    let counted = allocs(|| (0..4).for_each(|_| deposit_all()));
    assert_eq!(
        counted,
        0,
        "{counted} allocations over {} deposits",
        4 * keys.len()
    );
    assert_eq!(table.len(), keys.len());
    assert_eq!(table.overflow(), 0);
}

/// A monitored facade and the bare runtime it wraps, traced, with one
/// kernel and a device buffer for the D2H sweep point.
struct Rig {
    rt: Arc<GpuRuntime>,
    cuda: IpmCuda,
    kernel: Kernel,
    dev: ipm_gpu_sim::DevicePtr,
}

impl Rig {
    fn new() -> Self {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm, rt.clone());
        let dev = cuda.cuda_malloc(64).unwrap();
        Self {
            rt,
            cuda,
            kernel: Kernel::timed("steady_kernel", KernelCost::Fixed(1e-6)),
            dev,
        }
    }

    fn launches(&self, api: &dyn CudaApi, n: usize) {
        for _ in 0..n {
            launch_kernel(api, &self.kernel, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        }
    }

    fn d2h(&self, api: &dyn CudaApi) {
        let mut host = [0u8; 64];
        api.cuda_memcpy_d2h(&mut host, self.dev).unwrap();
    }
}

#[test]
fn timed_launches_and_booked_completions_allocate_nothing_beyond_the_device() {
    const BATCH: usize = 256;
    let rig = Rig::new();
    // warm-up: event pairs for a full batch, the completion buffer sized to
    // a batch, the stream's `@CUDA_EXEC_STRMxx` id and every table key
    for _ in 0..3 {
        rig.launches(&rig.cuda, BATCH);
        rig.rt.thread_synchronize().unwrap();
        rig.d2h(&rig.cuda);
    }
    let booked = || {
        let p = rig.cuda.ipm().profile();
        p.count_of("@CUDA_EXEC_STRM00")
    };
    let before = booked();

    let monitored_launches = allocs(|| rig.launches(&rig.cuda, BATCH));
    let bare_launches = allocs(|| rig.launches(rig.rt.as_ref(), BATCH));
    // with its profiler off, the device builds no profiler record
    assert_eq!(
        bare_launches, 0,
        "the bare runtime allocated over {BATCH} launches"
    );
    assert_eq!(
        monitored_launches, bare_launches,
        "the monitor allocated over {BATCH} timed launches"
    );

    // one D2H sweep books the whole batch
    rig.rt.thread_synchronize().unwrap();
    let monitored_sweep = allocs(|| rig.d2h(&rig.cuda));
    let bare_copy = allocs(|| rig.d2h(rig.rt.as_ref()));
    assert_eq!(bare_copy, 0, "the bare runtime allocated over a D2H copy");
    assert_eq!(
        monitored_sweep, bare_copy,
        "the monitor allocated while booking {BATCH} completions"
    );
    assert_eq!(
        booked() - before,
        BATCH as u64,
        "the sweep booked the batch"
    );
}

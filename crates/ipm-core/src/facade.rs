//! The shared wrapper core — **one** anatomy for all five monitor facades.
//!
//! Every monitored facade (`cuda_mon`, `driver_mon`, `mpi_mon`,
//! `numlib_mon`, `io_mon`) used to carry its own copy of the Fig. 2
//! plumbing: clock/sink/overhead lookup, host-idle probing, KTT sweeping,
//! completion booking. [`FacadeCore`] is that plumbing factored into one
//! place; facades hold a core and delegate, so timing, byte attribution,
//! host-idle probing, and self-overhead accounting cannot drift apart
//! between API families.
//!
//! The core is steered by the interned [`CallHandle`]: a call whose spec
//! row is in the implicit blocking set (§III-C) is probed for accumulated
//! device work before being timed, and everything else passes straight to
//! [`wrap_call`]. Facades with no device behind them (MPI, I/O, and the
//! numerical libraries, whose device traffic is already monitored through
//! the CUDA facade they sit on) construct the core with `device: None`,
//! which turns probing and sweeping into no-ops.

use crate::ktt::{CompletedKernel, KttCheckPolicy};
use crate::monitor::{Ipm, PseudoEvent};
use crate::sig::EventSignature;
use crate::trace::TraceKind;
use ipm_gpu_sim::CudaApi;
use ipm_interpose::{site, wrap_call, wrap_call_sized, CallHandle, CallId, NameTable};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// The interned id of a kernel symbol, for the launch wrappers.
///
/// A launch resolves its kernel's symbol every time, and the interner's
/// lookup by string takes a lock every rank thread shares plus a hash. A
/// small per-thread cache keyed by the symbol's address answers a repeat
/// launch of the same kernel object instead; a hit is checked against the
/// interned name, so a freed and reused address can never alias another
/// kernel.
pub(crate) fn kernel_id(symbol: &str) -> CallId {
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
/// Lock order: the KTT, then the `@CUDA_EXEC_STRMxx` cache, then the
/// table's and the ring's own locks (booking a completion deposits into
/// them). Nothing takes the KTT while holding a later lock.
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

    /// The Fig. 2 anatomy without any KTT sweep — safe to call while the
    /// KTT lock is held (launch wrappers do exactly that). Calls in the
    /// implicit blocking set are probed for host idle first.
    ///
    /// `#[inline]` keeps this per-call path inlined into every facade entry
    /// point whatever codegen unit rustc puts it in: left to the default
    /// heuristics, an unrelated change elsewhere in the crate once turned it
    /// into an out-of-line call inside `cudaLaunch` and cost the
    /// CUDA-call storm about 7% CPU time.
    #[inline]
    pub(crate) fn wrapped_no_sweep<R>(
        &self,
        call: CallHandle,
        bytes: u64,
        real: impl FnOnce() -> R,
    ) -> R {
        if call.implicit_sync {
            self.absorb_host_idle();
        }
        wrap_call(
            self.ipm.clock(),
            self.ipm.as_ref(),
            call,
            bytes,
            WRAPPER_OVERHEAD,
            real,
        )
    }

    /// The full anatomy: probe (if blocking), time, then sweep the KTT when
    /// the policy asks for a check on every call.
    pub(crate) fn wrapped<R>(&self, call: CallHandle, bytes: u64, real: impl FnOnce() -> R) -> R {
        let out = self.wrapped_no_sweep(call, bytes, real);
        self.sweep_if_every_call();
        out
    }

    /// [`Self::wrapped`] for calls sized by their *result* (`MPI_Recv`,
    /// `MPI_Wait`): the byte attribute is measured after the real call
    /// completes, before the sink sees the event.
    pub(crate) fn wrapped_sized<R>(
        &self,
        call: CallHandle,
        real: impl FnOnce() -> R,
        bytes_of: impl FnOnce(&R) -> u64,
    ) -> R {
        if call.implicit_sync {
            self.absorb_host_idle();
        }
        let out = wrap_call_sized(
            self.ipm.clock(),
            self.ipm.as_ref(),
            call,
            WRAPPER_OVERHEAD,
            real,
            bytes_of,
        );
        self.sweep_if_every_call();
        out
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
            self.ipm.book_pseudo(PseudoEvent {
                kind: TraceKind::HostIdle,
                name: site!("@CUDA_HOST_IDLE").id,
                detail: None,
                duration: idle,
                interval: Some((before, after)),
                stream: None,
                corr: 0,
            });
        }
    }

    /// Sweep the KTT for completed kernels and book `@CUDA_EXEC_STRMxx`
    /// entries (paper: done in D2H transfer wrappers). Completions are
    /// booked while the KTT lock is still held: they come out of the
    /// table's reused buffer, so a sweep allocates nothing.
    pub(crate) fn sweep_ktt(&self) {
        let Some(device) = &self.device else { return };
        if !self.ipm.config().gpu_timing {
            return;
        }
        let mut ktt = self.ipm.ktt().lock();
        self.book_completed(ktt.collect_completed(device.as_ref()));
    }

    /// Sweep only under `KttCheckPolicy::EveryCall` — the tail of the full
    /// anatomy, also called by launch wrappers after the KTT lock drops.
    pub(crate) fn sweep_if_every_call(&self) {
        if self.ipm.config().ktt_policy == KttCheckPolicy::EveryCall {
            self.sweep_ktt();
        }
    }

    fn book_completed(&self, completed: impl ExactSizeIterator<Item = CompletedKernel>) {
        if completed.len() == 0 {
            return;
        }
        let correction = self.ipm.config().exec_time_correction.unwrap_or(0.0);
        // the stream → `@CUDA_EXEC_STRMxx` cache is consulted once per
        // sweep, not per completion (format + intern run once per stream)
        let mut exec_ids = self.exec_ids.lock();
        for c in completed {
            let exec = *exec_ids.entry(c.stream.0).or_insert_with(|| {
                CallHandle::of(&EventSignature::exec_stream_name(c.stream.0)).id
            });
            self.ipm.book_pseudo(PseudoEvent {
                kind: TraceKind::KernelExec,
                name: exec,
                detail: Some(c.kernel),
                duration: (c.duration - correction).max(0.0),
                interval: c.interval,
                stream: Some(c.stream.0),
                corr: c.corr,
            });
        }
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
mod tests {
    use super::*;
    use crate::monitor::IpmConfig;
    use ipm_gpu_sim::{GpuConfig, GpuRuntime};
    use ipm_sim_core::SimClock;

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
}

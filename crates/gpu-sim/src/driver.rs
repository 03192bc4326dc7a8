//! The CUDA **driver API** (`cu*`) facade.
//!
//! CUDA exposes two overlapping APIs (paper §III-A): the runtime API
//! (`cudaMalloc`, aimed at application developers) and the driver API
//! (`cuMemAlloc`, richer resource control, preferred by library and
//! middleware authors — CUBLAS and CUFFT sit on it). IPM wraps both. This
//! module models the driver API as a thin layer over the same context state,
//! with the driver's explicit initialization discipline: every call before
//! [`DriverContext::cu_init`] fails with `NotInitialized`, mirroring
//! `CUDA_ERROR_NOT_INITIALIZED`.

use crate::device::{EventId, StreamId};
use crate::error::{CudaError, CudaResult};
use crate::kernel::{Kernel, KernelArg, LaunchConfig};
use crate::memory::DevicePtr;
use crate::runtime::GpuRuntime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A driver-API context over a shared [`GpuRuntime`].
pub struct DriverContext {
    rt: Arc<GpuRuntime>,
    initialized: AtomicBool,
    modules: parking_lot::Mutex<std::collections::HashMap<ModuleHandle, Module>>,
    launch_state: parking_lot::Mutex<LaunchState>,
}

impl DriverContext {
    /// Wrap a runtime in the driver-API discipline (uninitialized).
    pub fn new(rt: Arc<GpuRuntime>) -> Self {
        Self {
            rt,
            initialized: AtomicBool::new(false),
            modules: parking_lot::Mutex::new(std::collections::HashMap::new()),
            launch_state: parking_lot::Mutex::new(LaunchState::default()),
        }
    }

    /// Access to the underlying runtime (used by library layers that mix
    /// driver and runtime calls, as real CUBLAS does).
    pub fn runtime(&self) -> &Arc<GpuRuntime> {
        &self.rt
    }

    fn check_init(&self) -> CudaResult<()> {
        if self.initialized.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(CudaError::NotInitialized)
        }
    }

    /// `cuInit` — mandatory first driver call.
    pub fn cu_init(&self, flags: u32) -> CudaResult<()> {
        if flags != 0 {
            return Err(CudaError::InvalidValue);
        }
        self.initialized.store(true, Ordering::Release);
        Ok(())
    }

    /// `cuDeviceGetCount`.
    pub fn cu_device_get_count(&self) -> CudaResult<i32> {
        self.check_init()?;
        self.rt.get_device_count()
    }

    /// `cuDeviceGet` — returns the device ordinal handle.
    pub fn cu_device_get(&self, ordinal: i32) -> CudaResult<i32> {
        self.check_init()?;
        if ordinal != 0 {
            return Err(CudaError::InvalidDevice);
        }
        Ok(0)
    }

    /// `cuDeviceGetName`.
    pub fn cu_device_get_name(&self, device: i32) -> CudaResult<String> {
        self.check_init()?;
        if device != 0 {
            return Err(CudaError::InvalidDevice);
        }
        Ok(self.rt.get_device_properties()?.name)
    }

    /// `cuDeviceTotalMem`.
    pub fn cu_device_total_mem(&self, device: i32) -> CudaResult<u64> {
        self.check_init()?;
        if device != 0 {
            return Err(CudaError::InvalidDevice);
        }
        Ok(self.rt.get_device_properties()?.total_global_mem)
    }

    /// `cuMemAlloc`.
    pub fn cu_mem_alloc(&self, size: usize) -> CudaResult<DevicePtr> {
        self.check_init()?;
        self.rt.malloc(size)
    }

    /// `cuMemFree`.
    pub fn cu_mem_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.check_init()?;
        self.rt.free(ptr)
    }

    /// `cuMemcpyHtoD` (synchronous, implicit blocking).
    pub fn cu_memcpy_htod(&self, dst: DevicePtr, src: &[u8]) -> CudaResult<()> {
        self.check_init()?;
        self.rt.memcpy_h2d(dst, src)
    }

    /// `cuMemcpyDtoH` (synchronous, implicit blocking).
    pub fn cu_memcpy_dtoh(&self, dst: &mut [u8], src: DevicePtr) -> CudaResult<()> {
        self.check_init()?;
        self.rt.memcpy_d2h(dst, src)
    }

    /// `cuMemcpyDtoD`.
    pub fn cu_memcpy_dtod(&self, dst: DevicePtr, src: DevicePtr, len: usize) -> CudaResult<()> {
        self.check_init()?;
        self.rt.memcpy_d2d(dst, src, len)
    }

    /// `cuMemsetD8` — like `cudaMemset`, **not** implicitly blocking
    /// (the paper's microbenchmark singles out both `cudaMemset` and
    /// `cuMemset` as the exceptions).
    pub fn cu_memset_d8(&self, dst: DevicePtr, value: u8, len: usize) -> CudaResult<()> {
        self.check_init()?;
        self.rt.memset(dst, value, len)
    }

    /// `cuLaunchKernel` — the driver API launches in one call rather than
    /// through the configure/setup/launch trio.
    pub fn cu_launch_kernel(
        &self,
        kernel: &Kernel,
        config: LaunchConfig,
        args: &[KernelArg],
    ) -> CudaResult<()> {
        crate::runtime::clear_last_launch();
        self.check_init()?;
        self.rt.configure_call(config)?;
        for &arg in args {
            self.rt.setup_argument(arg)?;
        }
        self.rt.launch(kernel)
    }

    /// `cuStreamCreate`.
    pub fn cu_stream_create(&self) -> CudaResult<StreamId> {
        self.check_init()?;
        self.rt.stream_create()
    }

    /// `cuStreamSynchronize`.
    pub fn cu_stream_synchronize(&self, stream: StreamId) -> CudaResult<()> {
        self.check_init()?;
        self.rt.stream_synchronize(stream)
    }

    /// `cuStreamDestroy`.
    pub fn cu_stream_destroy(&self, stream: StreamId) -> CudaResult<()> {
        self.check_init()?;
        self.rt.stream_destroy(stream)
    }

    /// `cuEventCreate`.
    pub fn cu_event_create(&self) -> CudaResult<EventId> {
        self.check_init()?;
        self.rt.event_create()
    }

    /// `cuEventRecord`.
    pub fn cu_event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
        self.check_init()?;
        self.rt.event_record(event, stream)
    }

    /// `cuEventQuery`.
    pub fn cu_event_query(&self, event: EventId) -> CudaResult<()> {
        self.check_init()?;
        self.rt.event_query(event)
    }

    /// `cuEventSynchronize`.
    pub fn cu_event_synchronize(&self, event: EventId) -> CudaResult<()> {
        self.check_init()?;
        self.rt.event_synchronize(event)
    }

    /// `cuEventElapsedTime` (seconds; see the runtime-API note).
    pub fn cu_event_elapsed_time(&self, start: EventId, stop: EventId) -> CudaResult<f64> {
        self.check_init()?;
        self.rt.event_elapsed_time(start, stop)
    }

    /// `cuEventDestroy`.
    pub fn cu_event_destroy(&self, event: EventId) -> CudaResult<()> {
        self.check_init()?;
        self.rt.event_destroy(event)
    }

    /// `cuCtxSynchronize`.
    pub fn cu_ctx_synchronize(&self) -> CudaResult<()> {
        self.check_init()?;
        self.rt.thread_synchronize()
    }

    // ----------------------------------------------------------------
    // Module management and the old-style launch path
    // (cuModuleLoad → cuModuleGetFunction → cuFuncSetBlockShape →
    //  cuParamSet* → cuLaunchGrid), the API pre-4.0 middleware used.
    // ----------------------------------------------------------------

    /// `cuModuleLoad`: register a module (a named bag of kernels).
    pub fn cu_module_load(&self, name: &str) -> CudaResult<ModuleHandle> {
        self.check_init()?;
        let mut modules = self.modules.lock();
        let id = ModuleHandle(modules.len() as u64 + 1);
        modules.insert(
            id,
            Module {
                name: name.to_owned(),
                functions: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Register a kernel in a module so `cuModuleGetFunction` can find it
    /// (the analogue of the kernel being present in the cubin).
    pub fn register_function(&self, module: ModuleHandle, kernel: Kernel) -> CudaResult<()> {
        let mut modules = self.modules.lock();
        let m = modules
            .get_mut(&module)
            .ok_or(CudaError::InvalidResourceHandle)?;
        m.functions.push(kernel);
        Ok(())
    }

    /// `cuModuleGetFunction`.
    pub fn cu_module_get_function(&self, module: ModuleHandle, name: &str) -> CudaResult<Kernel> {
        self.check_init()?;
        let modules = self.modules.lock();
        let m = modules
            .get(&module)
            .ok_or(CudaError::InvalidResourceHandle)?;
        m.functions
            .iter()
            .find(|k| k.name() == name)
            .cloned()
            .ok_or(CudaError::InvalidValue)
    }

    /// `cuFuncSetBlockShape`.
    pub fn cu_func_set_block_shape(&self, x: u32, y: u32, z: u32) -> CudaResult<()> {
        self.check_init()?;
        if x == 0 || y == 0 || z == 0 {
            return Err(CudaError::InvalidValue);
        }
        self.launch_state.lock().block = crate::kernel::Dim3 { x, y, z };
        Ok(())
    }

    /// `cuParamSetv` (also standing in for `cuParamSeti`/`cuParamSetf`:
    /// one entry point taking the already-marshalled argument).
    pub fn cu_param_set(&self, arg: KernelArg) -> CudaResult<()> {
        self.check_init()?;
        self.launch_state.lock().args.push(arg);
        Ok(())
    }

    /// `cuLaunchGrid`: launch with the accumulated block shape and
    /// parameters on the default stream, clearing them afterwards.
    pub fn cu_launch_grid(&self, kernel: &Kernel, grid_x: u32, grid_y: u32) -> CudaResult<()> {
        crate::runtime::clear_last_launch();
        self.check_init()?;
        let (block, args) = {
            let mut st = self.launch_state.lock();
            (st.block, std::mem::take(&mut st.args))
        };
        let config = LaunchConfig {
            grid: crate::kernel::Dim3::xy(grid_x, grid_y),
            block,
            shared_mem: 0,
            stream: StreamId::DEFAULT,
        };
        self.rt.configure_call(config)?;
        for arg in args {
            self.rt.setup_argument(arg)?;
        }
        self.rt.launch(kernel)
    }
}

/// Handle to a loaded module (`CUmodule`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModuleHandle(u64);

struct Module {
    #[allow(dead_code)] // kept for diagnostics / future listing APIs
    name: String,
    functions: Vec<Kernel>,
}

#[derive(Default)]
struct LaunchState {
    block: crate::kernel::Dim3,
    args: Vec<KernelArg>,
}

impl Default for crate::kernel::Dim3 {
    fn default() -> Self {
        crate::kernel::Dim3::x(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::KernelCost;

    fn ctx() -> DriverContext {
        DriverContext::new(Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        )))
    }

    #[test]
    fn calls_before_cu_init_fail() {
        let c = ctx();
        assert_eq!(
            c.cu_device_get_count().unwrap_err(),
            CudaError::NotInitialized
        );
        assert_eq!(c.cu_mem_alloc(64).unwrap_err(), CudaError::NotInitialized);
        c.cu_init(0).unwrap();
        assert_eq!(c.cu_device_get_count().unwrap(), 1);
    }

    #[test]
    fn cu_init_rejects_flags() {
        let c = ctx();
        assert_eq!(c.cu_init(1).unwrap_err(), CudaError::InvalidValue);
    }

    #[test]
    fn device_queries() {
        let c = ctx();
        c.cu_init(0).unwrap();
        assert_eq!(c.cu_device_get(0).unwrap(), 0);
        assert_eq!(c.cu_device_get(1).unwrap_err(), CudaError::InvalidDevice);
        assert_eq!(c.cu_device_get_name(0).unwrap(), "Tesla C2050");
        assert_eq!(c.cu_device_total_mem(0).unwrap(), 3 * 1024 * 1024 * 1024);
    }

    #[test]
    fn memory_roundtrip_through_driver_api() {
        let c = ctx();
        c.cu_init(0).unwrap();
        let p = c.cu_mem_alloc(8).unwrap();
        c.cu_memcpy_htod(p, &[9, 8, 7, 6, 5, 4, 3, 2]).unwrap();
        let mut out = [0u8; 8];
        c.cu_memcpy_dtoh(&mut out, p).unwrap();
        assert_eq!(out, [9, 8, 7, 6, 5, 4, 3, 2]);
        c.cu_mem_free(p).unwrap();
    }

    #[test]
    fn single_call_launch_and_sync() {
        let c = ctx();
        c.cu_init(0).unwrap();
        let k = Kernel::timed("drv_kernel", KernelCost::Fixed(0.2));
        c.cu_launch_kernel(&k, LaunchConfig::simple(8u32, 32u32), &[])
            .unwrap();
        let before = c.runtime().clock().now();
        c.cu_ctx_synchronize().unwrap();
        assert!(c.runtime().clock().now() >= before + 0.19);
    }

    #[test]
    fn module_and_param_launch_path() {
        let c = ctx();
        c.cu_init(0).unwrap();
        let m = c.cu_module_load("hpl_kernels.cubin").unwrap();
        c.register_function(
            m,
            Kernel::timed("dgemm_nn_e_kernel", KernelCost::Fixed(0.05)),
        )
        .unwrap();
        let f = c.cu_module_get_function(m, "dgemm_nn_e_kernel").unwrap();
        assert_eq!(f.name(), "dgemm_nn_e_kernel");
        assert_eq!(
            c.cu_module_get_function(m, "missing").unwrap_err(),
            CudaError::InvalidValue
        );
        c.cu_func_set_block_shape(16, 16, 1).unwrap();
        c.cu_param_set(KernelArg::I32(128)).unwrap();
        c.cu_launch_grid(&f, 8, 8).unwrap();
        let before = c.runtime().clock().now();
        c.cu_ctx_synchronize().unwrap();
        assert!(c.runtime().clock().now() >= before + 0.049);
        // params were consumed: a second launch starts clean
        c.cu_func_set_block_shape(1, 1, 1).unwrap();
        c.cu_launch_grid(&f, 1, 1).unwrap();
        c.cu_ctx_synchronize().unwrap();
    }

    #[test]
    fn bad_block_shape_rejected() {
        let c = ctx();
        c.cu_init(0).unwrap();
        assert_eq!(
            c.cu_func_set_block_shape(0, 1, 1).unwrap_err(),
            CudaError::InvalidValue
        );
    }

    #[test]
    fn driver_events_bracket_kernels() {
        let c = ctx();
        c.cu_init(0).unwrap();
        let start = c.cu_event_create().unwrap();
        let stop = c.cu_event_create().unwrap();
        c.cu_event_record(start, StreamId::DEFAULT).unwrap();
        let k = Kernel::timed("k", KernelCost::Fixed(0.1));
        c.cu_launch_kernel(&k, LaunchConfig::simple(1u32, 1u32), &[])
            .unwrap();
        c.cu_event_record(stop, StreamId::DEFAULT).unwrap();
        c.cu_ctx_synchronize().unwrap();
        let dt = c.cu_event_elapsed_time(start, stop).unwrap();
        assert!((0.1..0.1 + 1e-3).contains(&dt), "dt = {dt}");
    }
}

//! Monitored numerical-library APIs (paper §III-D).
//!
//! IPM wraps the CUBLAS and CUFFT entry points, recording "the size of
//! matrices, vectors, or operations for each call in the *bytes* parameter
//! ... \[allowing\] correlation of achieved performance with the size of the
//! operation". [`IpmBlas`] and [`IpmFft`] are those wrappers. Note the
//! layering: for full fidelity the wrapped library context should itself be
//! constructed over the *monitored* CUDA facade, so its internal launches
//! and transfers are intercepted too — exactly how `LD_PRELOAD` composes in
//! the real tool.

use crate::facade::FacadeCore;
use crate::monitor::Ipm;
use ipm_gpu_sim::{CudaResult, DevicePtr, StreamId};
use ipm_interpose::site;
use ipm_numlib::{BlasApi, Complex64, FftApi, FftDirection, FftType, PlanId, Transpose};
use std::sync::Arc;

/// The monitored CUBLAS facade.
pub struct IpmBlas<B: BlasApi> {
    core: FacadeCore,
    inner: B,
}

impl<B: BlasApi> IpmBlas<B> {
    /// Install monitoring around `inner`.
    pub fn new(ipm: Arc<Ipm>, inner: B) -> Self {
        Self {
            core: FacadeCore::new(ipm, None),
            inner,
        }
    }

    /// The wrapped library.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The monitoring context.
    pub fn ipm(&self) -> &Arc<Ipm> {
        self.core.ipm()
    }
}

impl<B: BlasApi> BlasApi for IpmBlas<B> {
    fn cublas_alloc(&self, n: usize, elem_size: usize) -> CudaResult<DevicePtr> {
        self.core
            .wrapped(site!("cublasAlloc"), (n * elem_size) as u64, || {
                self.inner.cublas_alloc(n, elem_size)
            })
    }

    fn cublas_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.core
            .wrapped(site!("cublasFree"), 0, || self.inner.cublas_free(ptr))
    }

    fn cublas_set_matrix(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        host: &[u8],
        dev: DevicePtr,
    ) -> CudaResult<()> {
        self.core.wrapped(
            site!("cublasSetMatrix"),
            (rows * cols * elem_size) as u64,
            || {
                self.inner
                    .cublas_set_matrix(rows, cols, elem_size, host, dev)
            },
        )
    }

    fn cublas_get_matrix(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        dev: DevicePtr,
        host: &mut [u8],
    ) -> CudaResult<()> {
        self.core.wrapped(
            site!("cublasGetMatrix"),
            (rows * cols * elem_size) as u64,
            || {
                self.inner
                    .cublas_get_matrix(rows, cols, elem_size, dev, host)
            },
        )
    }

    fn cublas_set_matrix_modeled(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        host_prefix: &[u8],
        dev: DevicePtr,
    ) -> CudaResult<()> {
        self.core.wrapped(
            site!("cublasSetMatrix"),
            (rows * cols * elem_size) as u64,
            || {
                self.inner
                    .cublas_set_matrix_modeled(rows, cols, elem_size, host_prefix, dev)
            },
        )
    }

    fn cublas_get_matrix_modeled(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        dev: DevicePtr,
        host_prefix: &mut [u8],
    ) -> CudaResult<()> {
        self.core.wrapped(
            site!("cublasGetMatrix"),
            (rows * cols * elem_size) as u64,
            || {
                self.inner
                    .cublas_get_matrix_modeled(rows, cols, elem_size, dev, host_prefix)
            },
        )
    }

    fn cublas_set_vector(
        &self,
        n: usize,
        elem_size: usize,
        host: &[u8],
        dev: DevicePtr,
    ) -> CudaResult<()> {
        self.core
            .wrapped(site!("cublasSetVector"), (n * elem_size) as u64, || {
                self.inner.cublas_set_vector(n, elem_size, host, dev)
            })
    }

    fn cublas_get_vector(
        &self,
        n: usize,
        elem_size: usize,
        dev: DevicePtr,
        host: &mut [u8],
    ) -> CudaResult<()> {
        self.core
            .wrapped(site!("cublasGetVector"), (n * elem_size) as u64, || {
                self.inner.cublas_get_vector(n, elem_size, dev, host)
            })
    }

    fn cublas_dgemm(
        &self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        da: DevicePtr,
        lda: usize,
        db: DevicePtr,
        ldb: usize,
        beta: f64,
        dc: DevicePtr,
        ldc: usize,
    ) -> CudaResult<()> {
        // operand footprint: A(mk) + B(kn) + C(mn) doubles
        let bytes = 8 * (m * k + k * n + m * n) as u64;
        self.core.wrapped(site!("cublasDgemm"), bytes, || {
            self.inner
                .cublas_dgemm(ta, tb, m, n, k, alpha, da, lda, db, ldb, beta, dc, ldc)
        })
    }

    fn cublas_zgemm(
        &self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: Complex64,
        da: DevicePtr,
        lda: usize,
        db: DevicePtr,
        ldb: usize,
        beta: Complex64,
        dc: DevicePtr,
        ldc: usize,
    ) -> CudaResult<()> {
        let bytes = 16 * (m * k + k * n + m * n) as u64;
        self.core.wrapped(site!("cublasZgemm"), bytes, || {
            self.inner
                .cublas_zgemm(ta, tb, m, n, k, alpha, da, lda, db, ldb, beta, dc, ldc)
        })
    }

    fn cublas_daxpy(&self, n: usize, alpha: f64, dx: DevicePtr, dy: DevicePtr) -> CudaResult<()> {
        self.core.wrapped(site!("cublasDaxpy"), 16 * n as u64, || {
            self.inner.cublas_daxpy(n, alpha, dx, dy)
        })
    }

    fn cublas_ddot(&self, n: usize, dx: DevicePtr, dy: DevicePtr) -> CudaResult<f64> {
        self.core.wrapped(site!("cublasDdot"), 16 * n as u64, || {
            self.inner.cublas_ddot(n, dx, dy)
        })
    }
}

/// The monitored CUFFT facade. Wraps the concrete context (it needs plan
/// metadata to derive operand sizes).
pub struct IpmFft {
    core: FacadeCore,
    inner: Arc<ipm_numlib::CufftContext>,
}

impl IpmFft {
    /// Install monitoring around `inner`.
    pub fn new(ipm: Arc<Ipm>, inner: Arc<ipm_numlib::CufftContext>) -> Self {
        Self {
            core: FacadeCore::new(ipm, None),
            inner,
        }
    }

    /// The wrapped library.
    pub fn inner(&self) -> &Arc<ipm_numlib::CufftContext> {
        &self.inner
    }

    /// The monitoring context.
    pub fn ipm(&self) -> &Arc<Ipm> {
        self.core.ipm()
    }
}

impl FftApi for IpmFft {
    fn cufft_plan_1d(&self, n: usize, ty: FftType, batch: usize) -> CudaResult<PlanId> {
        self.core
            .wrapped(site!("cufftPlan1d"), (16 * n * batch) as u64, || {
                self.inner.plan_1d(n, ty, batch)
            })
    }

    fn cufft_set_stream(&self, plan: PlanId, stream: StreamId) -> CudaResult<()> {
        self.core.wrapped(site!("cufftSetStream"), 0, || {
            self.inner.set_stream(plan, stream)
        })
    }

    fn cufft_exec_z2z(
        &self,
        plan: PlanId,
        idata: DevicePtr,
        odata: DevicePtr,
        dir: FftDirection,
    ) -> CudaResult<()> {
        let bytes = self
            .inner
            .plan_info(plan)
            .map(|(n, b)| (16 * n * b) as u64)
            .unwrap_or(0);
        self.core.wrapped(site!("cufftExecZ2Z"), bytes, || {
            self.inner.exec_z2z(plan, idata, odata, dir)
        })
    }

    fn cufft_destroy(&self, plan: PlanId) -> CudaResult<()> {
        self.core
            .wrapped(site!("cufftDestroy"), 0, || self.inner.destroy(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuda_mon::IpmCuda;
    use crate::monitor::IpmConfig;
    use ipm_gpu_sim::{CudaApi, GpuConfig, GpuRuntime};
    use ipm_numlib::{CublasContext, CufftConfig, CufftContext, DeviceLibConfig};

    /// Full monitored stack: IPM around CUDA, CUBLAS built over the
    /// monitored CUDA, IPM around CUBLAS.
    fn stack() -> (Arc<Ipm>, IpmBlas<CublasContext>) {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda: Arc<dyn CudaApi> = Arc::new(IpmCuda::new(ipm.clone(), rt));
        let blas = CublasContext::init(cuda, DeviceLibConfig::default());
        (ipm.clone(), IpmBlas::new(ipm, blas))
    }

    #[test]
    fn cublas_calls_record_operand_bytes() {
        let (ipm, blas) = stack();
        let d = blas.cublas_alloc(16, 8).unwrap();
        let host: Vec<u8> = vec![0; 128];
        blas.cublas_set_matrix(4, 4, 8, &host, d).unwrap();
        blas.cublas_dgemm(
            Transpose::N,
            Transpose::N,
            4,
            4,
            4,
            1.0,
            d,
            4,
            d,
            4,
            0.0,
            d,
            4,
        )
        .unwrap();
        let p = ipm.profile();
        let set = p
            .entries
            .iter()
            .find(|e| e.name == "cublasSetMatrix")
            .unwrap();
        assert_eq!(set.bytes, 128);
        let gemm = p.entries.iter().find(|e| e.name == "cublasDgemm").unwrap();
        assert_eq!(gemm.bytes, 8 * (16 + 16 + 16));
    }

    #[test]
    fn internal_cuda_calls_are_also_intercepted() {
        // the LD_PRELOAD composition property: CUBLAS's own launches and
        // memcpys show up in the profile alongside the cublas* entries
        let (ipm, blas) = stack();
        let d = blas.cublas_alloc(16, 8).unwrap();
        let host = vec![0u8; 128];
        blas.cublas_set_matrix(4, 4, 8, &host, d).unwrap();
        blas.cublas_dgemm(
            Transpose::N,
            Transpose::N,
            4,
            4,
            4,
            1.0,
            d,
            4,
            d,
            4,
            0.0,
            d,
            4,
        )
        .unwrap();
        let p = ipm.profile();
        assert!(
            p.count_of("cudaLaunch") >= 1,
            "library launch not intercepted"
        );
        assert!(
            p.count_of("cudaMemcpy(H2D)") >= 1,
            "library transfer not intercepted"
        );
        assert!(p.count_of("cudaConfigureCall") >= 1);
    }

    #[test]
    fn gemm_kernel_time_lands_in_exec_entries() {
        let (ipm, blas) = stack();
        let d = blas.cublas_alloc(64 * 64, 8).unwrap();
        blas.cublas_dgemm(
            Transpose::N,
            Transpose::N,
            64,
            64,
            64,
            1.0,
            d,
            64,
            d,
            64,
            0.0,
            d,
            64,
        )
        .unwrap();
        // sweep happens via a monitored sync call
        let host = &mut [0u8; 8][..];
        let _ = blas.cublas_get_vector(1, 8, d, host);
        let p = ipm.profile();
        let exec = p.time_of("@CUDA_EXEC_STRM00");
        assert!(exec > 0.0, "gemm kernel not timed");
        let breakdown = p.kernel_breakdown();
        assert_eq!(breakdown[0].0, "dgemm_kernel_NN");
    }

    #[test]
    fn cufft_exec_records_plan_sizes() {
        let rt = Arc::new(GpuRuntime::single(
            GpuConfig::dirac_node().with_context_init(0.0),
        ));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda: Arc<dyn CudaApi> = Arc::new(IpmCuda::new(ipm.clone(), rt.clone()));
        let fft = IpmFft::new(
            ipm.clone(),
            Arc::new(CufftContext::new(cuda, CufftConfig::default())),
        );
        let d = rt.malloc(64 * 16).unwrap();
        let plan = fft.cufft_plan_1d(64, FftType::Z2Z, 1).unwrap();
        fft.cufft_exec_z2z(plan, d, d, FftDirection::Forward)
            .unwrap();
        fft.cufft_destroy(plan).unwrap();
        let p = ipm.profile();
        let exec = p.entries.iter().find(|e| e.name == "cufftExecZ2Z").unwrap();
        assert_eq!(exec.bytes, 16 * 64);
        assert_eq!(p.count_of("cufftPlan1d"), 1);
        assert_eq!(p.count_of("cufftDestroy"), 1);
    }
}

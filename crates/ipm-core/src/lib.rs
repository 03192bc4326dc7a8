//! # ipm-core
//!
//! IPM — Integrated Performance Monitoring — as described in
//! *"Comprehensive Performance Monitoring for GPU Cluster Systems"*
//! (Fürlinger, Wright, Skinner; IPPS/IPDPS 2011). A scalable, low-overhead
//! profiling layer interposed between an application and its runtimes
//! (CUDA runtime + driver, CUBLAS, CUFFT, MPI), producing banner reports,
//! XML logs, HTML pages, and CUBE conversions.
//!
//! ## Architecture (paper section → module)
//!
//! | Paper | Module | What it is |
//! |---|---|---|
//! | §II Fig. 1 | [`sig`], [`table`] | event signatures + the performance data hash table |
//! | §III-A Fig. 2 | [`cuda_mon`] | the wrapped CUDA runtime (host-side timing) |
//! | §III-B | [`ktt`] | kernel timing table, `@CUDA_EXEC_STRMxx` entries |
//! | §III-C | [`hostidle`], [`cuda_mon`] | blocking-set discovery, `@CUDA_HOST_IDLE` |
//! | §III-D | [`numlib_mon`] | CUBLAS/CUFFT wrappers with operand sizes |
//! | §II | [`banner`], [`xml`], [`parse`], [`cube`] | reports: banner, XML log, `ipm_parse`, CUBE |
//! | §V | [`aggregate`] | cross-rank integration (the cluster view) |
//! | Fig. 7 | [`timeline`] | the monitoring-timeline rendering |
//!
//! ## Monitoring deployment model
//!
//! A rank builds its stack like this (the analogue of `LD_PRELOAD`ing
//! `libipm.so` — application code is identical monitored or not):
//!
//! ```
//! use std::sync::Arc;
//! use ipm_core::{Ipm, IpmConfig, IpmCuda};
//! use ipm_gpu_sim::{CudaApi, GpuConfig, GpuRuntime};
//!
//! let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
//! let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
//! let cuda: Arc<dyn CudaApi> = Arc::new(IpmCuda::new(ipm.clone(), rt));
//! // hand `cuda` to the application (and to CUBLAS/CUFFT constructors, so
//! // library-internal launches are monitored too) ...
//! let dev = cuda.cuda_malloc(1024).unwrap();
//! cuda.cuda_free(dev).unwrap();
//! let profile = ipm.profile();
//! assert_eq!(profile.count_of("cudaMalloc"), 1);
//! ```

pub mod aggregate;
pub mod banner;
pub mod compact;
pub mod cube;
pub mod cuda_mon;
pub mod driver_mon;
pub mod export;
pub(crate) mod facade;
pub mod hostidle;
pub mod io_mon;
pub mod jsonw;
pub mod ktt;
pub mod monitor;
pub mod mpi_mon;
pub mod numlib_mon;
pub mod papi;
pub mod parse;
pub mod profile;
pub mod sig;
pub mod table;
pub mod timeline;
pub mod trace;
pub mod xml;

pub use aggregate::{ClusterReport, ClusterSnapshot, RankSpread};
pub use compact::{compact_records, merge_runs, CompactPolicy, TraceAgg};
pub use cube::{build_cube, CubeMetric};
pub use cuda_mon::IpmCuda;
pub use driver_mon::IpmDriver;
pub use export::{
    validate_chrome_trace, validate_otlp, Banner, ChromeTrace, Cube, CubeXml, Export, ExportError,
    ExportRank, ExportSource, Exporter, Html, Otlp, OtlpStats, RegionReport, TraceStats, Xml,
};
pub use hostidle::{discover_blocking_set, render_probe_table, BlockingProbe};
pub use io_mon::IpmIo;
pub use ktt::{CompletedKernel, Ktt, KttCheckPolicy};
pub use monitor::{FamilyDelta, Ipm, IpmConfig, Snapshot, TraceDelta};
pub use mpi_mon::IpmMpi;
pub use numlib_mon::{IpmBlas, IpmFft};
pub use papi::{BoundResource, CounterRow, GpuCounterReport};
pub use profile::{classify, EventFamily, MonitorInfo, ProfileEntry, RankProfile};
pub use sig::{EventSignature, SigKey};
pub use table::PerfTable;
pub use timeline::render_timeline;
pub use trace::{TraceCounters, TraceKind, TraceRecord, TraceRing};
pub use xml::XmlError;

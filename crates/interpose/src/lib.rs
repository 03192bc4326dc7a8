//! # ipm-interpose
//!
//! Library-interposition machinery for the IPM reproduction:
//!
//! * [`spec`] — the formal call specification IPM's wrapper generator
//!   consumes: all 65 CUDA runtime + 99 CUDA driver + 167 CUBLAS +
//!   13 CUFFT entry points (the counts quoted in §III-A/§III-D of the
//!   paper), each tagged with its API family, its blocking class (the
//!   *implicit blocking set* of §III-C), and whether it carries a byte
//!   count.
//! * [`registry`] — the unified table with interned [`registry::CallId`]s,
//!   plus the [`registry::NameTable`] interner and the [`site!`] per-site
//!   resolution cache: the record path carries only ids; names come back
//!   at report time.
//! * [`wrap`] — the wrapper anatomy of Fig. 2: a higher-order `wrap_call`,
//!   reporting into a [`wrap::MonitorSink`].
//!
//! In the real tool, interposition happens at the dynamic linker
//! (`LD_PRELOAD`) or via `ld --wrap`. Rust has no stable equivalent, so the
//! seam is a trait: applications program against `CudaApi` / `MpiApi` /
//! `BlasApi` / `FftApi` (defined next to each substrate), and `ipm-core`
//! provides monitored implementations that wrap the bare ones. Application
//! code is byte-for-byte identical under both stacks — the deployment
//! property the paper advertises.

pub mod registry;
pub mod spec;
pub mod wrap;

pub use registry::{CallHandle, CallId, CallSite, NameTable, Registry};
pub use spec::{ApiFamily, BlockingClass, CallSpec};
pub use wrap::{wrap_call, wrap_call_sized, MonitorSink, NullSink};

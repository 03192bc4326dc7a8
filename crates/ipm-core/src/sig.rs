//! Event signatures — the hash keys of IPM's performance data table.
//!
//! Fig. 1 of the paper: the hash key ("event signature") is derived from
//! the monitored event's **name** (e.g. `MPI_Send`, `cudaMemcpy(D2H)`, or a
//! pseudo-event like `@CUDA_EXEC_STRM00`), plus attributes — the **byte
//! count** involved, the active user **region**, and for pseudo-events a
//! **detail** string (the kernel symbol for GPU-execution entries, so the
//! XML log can break kernel time down per kernel and per stream).
//!
//! The one form of that key is [`SigKey`]: the name and the detail are
//! interned [`CallId`]s, so the table, the trace and both booking paths
//! hash and compare plain integers. Names come back only at report time.

use ipm_interpose::CallId;

/// Pseudo-event prefix: entries that do not correspond to a host function
/// (paper §III-B uses `@` for this).
pub const PSEUDO_PREFIX: char = '@';

/// The key of one performance-table entry: the interned name id plus the
/// value attributes, all `Copy`. This is what the performance table hashes
/// on the record path — no string hashing, no `Arc` traffic. Names come
/// back only at report time, through the interner's lock-free
/// [`NameTable::name`](ipm_interpose::NameTable::name).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SigKey {
    /// Interned call or pseudo-event name.
    pub id: CallId,
    /// Byte-count attribute (0 when the event carries none).
    pub bytes: u64,
    /// User region id (0 = whole program).
    pub region: u16,
    /// Interned detail attribute (kernel symbol for `@CUDA_EXEC_*`).
    pub detail: Option<CallId>,
}

/// The former name of [`SigKey`]. It stays only because the benchmark
/// crate (`perfbench/src/checks.rs`) still calls
/// `EventSignature::exec_stream_name`; it goes when that call does.
pub type EventSignature = SigKey;

impl SigKey {
    /// Key for a plain call in the global region.
    pub fn call(id: CallId, bytes: u64) -> Self {
        Self {
            id,
            bytes,
            region: 0,
            detail: None,
        }
    }

    /// The `@CUDA_EXEC_STRMxx` name for kernel execution time on a stream
    /// (paper §III-B).
    pub fn exec_stream_name(stream: u32) -> String {
        format!("@CUDA_EXEC_STRM{stream:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_interpose::{CallHandle, NameTable};
    use std::collections::HashSet;

    fn key(name: &str, bytes: u64) -> SigKey {
        SigKey::call(CallHandle::of(name).id, bytes)
    }

    #[test]
    fn stream_names_match_the_paper_format() {
        assert_eq!(SigKey::exec_stream_name(0), "@CUDA_EXEC_STRM00");
        assert_eq!(SigKey::exec_stream_name(7), "@CUDA_EXEC_STRM07");
        assert_eq!(SigKey::exec_stream_name(12), "@CUDA_EXEC_STRM12");
    }

    #[test]
    fn signatures_are_injective_over_the_whole_registry() {
        // every spec row must intern to its own id, so no two rows share a
        // table slot
        use ipm_interpose::{ApiFamily, Registry};
        let reg = Registry::global();
        for i in 0..reg.len() {
            let spec = reg.spec(CallId(i as u32));
            assert_eq!(
                CallHandle::of(spec.name).id,
                CallId(i as u32),
                "{}",
                spec.name
            );
        }
        // per-family counts pin the paper's interface inventory
        assert_eq!(reg.family(ApiFamily::CudaRuntime).count(), 65);
        assert_eq!(reg.family(ApiFamily::CudaDriver).count(), 99);
        assert_eq!(reg.family(ApiFamily::Cublas).count(), 167);
        assert_eq!(reg.family(ApiFamily::Cufft).count(), 13);
        assert_eq!(reg.family(ApiFamily::Mpi).count(), 17);
        assert_eq!(reg.family(ApiFamily::Io).count(), 4);
    }

    #[test]
    fn signatures_distinguish_all_attributes() {
        let exec = |kernel: &str| SigKey {
            detail: Some(CallHandle::of(kernel).id),
            ..key("@CUDA_EXEC_STRM00", 0)
        };
        let set: HashSet<SigKey> = [
            key("cudaMemcpy(D2H)", 1024),
            key("cudaMemcpy(D2H)", 2048), // other size
            key("cudaMemcpy(H2D)", 1024), // other dir
            SigKey {
                region: 1,
                ..key("cudaMemcpy(D2H)", 1024)
            },
            exec("square"),
            exec("other"),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn keys_roundtrip_through_the_interner() {
        let sig = SigKey {
            region: 3,
            detail: Some(CallHandle::of("square").id),
            ..key("@CUDA_EXEC_STRM00", 0)
        };
        let names = NameTable::global();
        assert_eq!(names.name(sig.id), "@CUDA_EXEC_STRM00");
        assert_eq!(sig.detail.map(|d| names.name(d)), Some("square"));
        // interning is stable, so equal signatures make equal keys
        assert_eq!(key("@CUDA_EXEC_STRM00", 0).id, sig.id);
        assert_eq!(key("cudaMemcpy(D2H)", 1), key("cudaMemcpy(D2H)", 1));
    }
}

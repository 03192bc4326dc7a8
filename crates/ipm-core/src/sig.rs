//! Event signatures — the hash keys of IPM's performance data table.
//!
//! Fig. 1 of the paper: the hash key ("event signature") is derived from
//! the monitored event's **name** (e.g. `MPI_Send`, `cudaMemcpy(D2H)`, or a
//! pseudo-event like `@CUDA_EXEC_STRM00`), plus attributes — the **byte
//! count** involved, the active user **region**, and for pseudo-events a
//! **detail** string (the kernel symbol for GPU-execution entries, so the
//! XML log can break kernel time down per kernel and per stream).

use ipm_interpose::{CallHandle, CallId};
use std::fmt;

/// Pseudo-event prefix: entries that do not correspond to a host function
/// (paper §III-B uses `@` for this).
pub const PSEUDO_PREFIX: char = '@';

/// The key of one performance-table entry, in its string form. Names are
/// `'static`: spec names are literals, and every other name the monitor
/// sees is interned for the life of the process (see
/// [`NameTable`](ipm_interpose::NameTable)).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventSignature {
    /// Call or pseudo-event name.
    pub name: &'static str,
    /// Byte-count attribute (0 when the event carries none).
    pub bytes: u64,
    /// User region id (0 = whole program).
    pub region: u16,
    /// Extra attribute: kernel symbol for `@CUDA_EXEC_*` entries.
    pub detail: Option<&'static str>,
}

impl EventSignature {
    /// Signature for a plain call in the global region.
    pub fn call(name: &'static str, bytes: u64) -> Self {
        Self {
            name,
            bytes,
            region: 0,
            detail: None,
        }
    }

    /// Signature in an explicit region.
    pub fn in_region(mut self, region: u16) -> Self {
        self.region = region;
        self
    }

    /// Attach a detail attribute.
    pub fn with_detail(mut self, detail: &'static str) -> Self {
        self.detail = Some(detail);
        self
    }

    /// Is this a pseudo-event (`@`-prefixed)?
    pub fn is_pseudo(&self) -> bool {
        self.name.starts_with(PSEUDO_PREFIX)
    }

    /// The `@CUDA_EXEC_STRMxx` name for kernel execution time on a stream
    /// (paper §III-B).
    pub fn exec_stream_name(stream: u32) -> String {
        format!("@CUDA_EXEC_STRM{stream:02}")
    }

    /// The `@CUDA_HOST_IDLE` pseudo-event (paper §III-C).
    pub const HOST_IDLE: &'static str = "@CUDA_HOST_IDLE";

    /// Intern this signature into its hot-path [`SigKey`] form.
    pub fn key(&self) -> SigKey {
        SigKey {
            id: CallHandle::of(self.name).id,
            bytes: self.bytes,
            region: self.region,
            detail: self.detail.map(|d| CallHandle::of(d).id),
        }
    }
}

/// The hot-path form of an event signature: the interned name id plus the
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
}

impl fmt::Debug for EventSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if self.bytes > 0 {
            write!(f, "[{}B]", self.bytes)?;
        }
        if self.region != 0 {
            write!(f, "@r{}", self.region)?;
        }
        if let Some(d) = &self.detail {
            write!(f, "<{d}>")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn signatures_distinguish_all_attributes() {
        let mut set = HashSet::new();
        set.insert(EventSignature::call("cudaMemcpy(D2H)", 1024));
        set.insert(EventSignature::call("cudaMemcpy(D2H)", 2048)); // other size
        set.insert(EventSignature::call("cudaMemcpy(H2D)", 1024)); // other dir
        set.insert(EventSignature::call("cudaMemcpy(D2H)", 1024).in_region(1));
        set.insert(EventSignature::call("@CUDA_EXEC_STRM00", 0).with_detail("square"));
        set.insert(EventSignature::call("@CUDA_EXEC_STRM00", 0).with_detail("other"));
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn identical_signatures_collide() {
        let a = EventSignature::call("MPI_Send", 64).in_region(2);
        let b = EventSignature::call("MPI_Send", 64).in_region(2);
        assert_eq!(a, b);
    }

    #[test]
    fn pseudo_detection() {
        assert!(EventSignature::call("@CUDA_HOST_IDLE", 0).is_pseudo());
        assert!(!EventSignature::call("cudaMalloc", 0).is_pseudo());
    }

    #[test]
    fn stream_names_match_the_paper_format() {
        assert_eq!(EventSignature::exec_stream_name(0), "@CUDA_EXEC_STRM00");
        assert_eq!(EventSignature::exec_stream_name(7), "@CUDA_EXEC_STRM07");
        assert_eq!(EventSignature::exec_stream_name(12), "@CUDA_EXEC_STRM12");
    }

    #[test]
    fn signatures_are_injective_over_the_whole_registry() {
        // every spec row must hash to its own table slot: build one
        // signature per registered call and demand zero collisions
        use ipm_interpose::{CallId, Registry};
        let reg = Registry::global();
        let mut set = HashSet::new();
        for i in 0..reg.len() {
            let spec = reg.spec(CallId(i as u32));
            set.insert(EventSignature::call(spec.name, 0));
        }
        assert_eq!(
            set.len(),
            reg.len(),
            "two registry rows collapsed to one signature"
        );
        // per-family counts pin the paper's interface inventory
        use ipm_interpose::ApiFamily;
        assert_eq!(reg.family(ApiFamily::CudaRuntime).count(), 65);
        assert_eq!(reg.family(ApiFamily::CudaDriver).count(), 99);
        assert_eq!(reg.family(ApiFamily::Cublas).count(), 167);
        assert_eq!(reg.family(ApiFamily::Cufft).count(), 13);
        assert_eq!(reg.family(ApiFamily::Mpi).count(), 17);
        assert_eq!(reg.family(ApiFamily::Io).count(), 4);
    }

    #[test]
    fn keys_roundtrip_through_the_interner() {
        let sig = EventSignature::call("cudaMemcpy(D2H)", 800_000)
            .in_region(3)
            .with_detail("square");
        let key = sig.key();
        let names = ipm_interpose::NameTable::global();
        assert_eq!(names.name(key.id), sig.name);
        assert_eq!(key.detail.map(|d| names.name(d)), sig.detail);
        assert_eq!((key.bytes, key.region), (sig.bytes, sig.region));
        // interning is stable, so equal signatures make equal keys
        assert_eq!(sig.key(), key);
        // and distinct attributes stay distinct in key space
        assert_ne!(
            EventSignature::call("cudaMemcpy(D2H)", 1).key(),
            EventSignature::call("cudaMemcpy(D2H)", 2).key()
        );
        assert_ne!(
            EventSignature::call("cudaMemcpy(D2H)", 1).key(),
            EventSignature::call("cudaMemcpy(H2D)", 1).key()
        );
    }

    #[test]
    fn debug_format_is_compact() {
        let sig = EventSignature::call("cudaMemcpy(D2H)", 800_000)
            .in_region(3)
            .with_detail("k");
        let s = format!("{sig:?}");
        assert!(s.contains("cudaMemcpy(D2H)"));
        assert!(s.contains("800000B"));
        assert!(s.contains("@r3"));
        assert!(s.contains("<k>"));
    }
}

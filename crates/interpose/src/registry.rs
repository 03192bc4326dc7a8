//! The unified call registry and the name interner.
//!
//! Collects every [`CallSpec`] from the specification into one table with
//! stable integer [`CallId`]s — the analogue of IPM's generated wrapper
//! table. Monitors intern call names once and use ids on the hot path.
//!
//! Two layers live here:
//!
//! * [`Registry`] — the immutable spec table (one row per specified entry
//!   point, `CallId` = row index).
//! * [`NameTable`] — the process-wide **interner**. It is seeded with the
//!   registry rows (so a spec name's interned id *is* its registry id) and
//!   grows append-only with dynamic names the monitors invent at run time:
//!   direction-split copies (`cudaMemcpy(H2D)`), pseudo-events
//!   (`@CUDA_EXEC_STRM00`, `@CUDA_HOST_IDLE`), kernel symbols. The record
//!   path carries only the interned [`CallId`]; the string comes back out
//!   at report/export time via [`NameTable::name`].
//!
//! Wrap sites resolve their name exactly once through a [`CallSite`]
//! static (see the [`site!`](crate::site) macro): the first execution
//! interns the name and caches the packed [`CallHandle`] in an atomic, so
//! the steady-state cost of a wrapped call includes no string hashing and
//! no allocation.

use crate::spec::{
    cublas_calls, ApiFamily, BlockingClass, CallSpec, CUDA_DRIVER_CALLS, CUDA_RUNTIME_CALLS,
    CUFFT_CALLS, IO_CALLS, MPI_CALLS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Index of a call in the global registry / name table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u32);

/// The global wrapper registry.
pub struct Registry {
    calls: Vec<CallSpec>,
    by_name: HashMap<&'static str, CallId>,
}

impl Registry {
    fn build() -> Self {
        let mut calls: Vec<CallSpec> = Vec::new();
        calls.extend_from_slice(CUDA_RUNTIME_CALLS);
        calls.extend_from_slice(CUDA_DRIVER_CALLS);
        calls.extend(cublas_calls());
        calls.extend_from_slice(CUFFT_CALLS);
        calls.extend_from_slice(MPI_CALLS);
        calls.extend_from_slice(IO_CALLS);
        let by_name = calls
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name, CallId(i as u32)))
            .collect();
        Self { calls, by_name }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(Registry::build)
    }

    /// Total number of interposable calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True if the registry is empty (it never is; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Look up a call by name.
    pub fn id(&self, name: &str) -> Option<CallId> {
        self.by_name.get(name).copied()
    }

    /// The spec for an id.
    pub fn spec(&self, id: CallId) -> &CallSpec {
        &self.calls[id.0 as usize]
    }

    /// All calls of one family.
    pub fn family(&self, family: ApiFamily) -> impl Iterator<Item = &CallSpec> {
        self.calls.iter().filter(move |c| c.family == family)
    }

    /// The **implicit blocking set**: the calls IPM instruments with a
    /// preceding `cudaStreamSynchronize` for host-idle attribution.
    pub fn implicit_blocking_set(&self) -> impl Iterator<Item = &CallSpec> {
        self.calls
            .iter()
            .filter(|c| c.blocking == BlockingClass::ImplicitSync)
    }
}

/// What a wrap site needs to know about its call, resolved once and carried
/// by value on the hot path: the interned id plus the flags that steer the
/// wrapper anatomy around the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallHandle {
    /// Interned name id (spec row index for specified calls).
    pub id: CallId,
    /// In the implicit blocking set (§III-C): the wrapper core probes host
    /// idle before timing the call.
    pub implicit_sync: bool,
    /// A sweep point (§III-B): the wrapper core checks the kernel timing
    /// table for finished kernels after the call. Set for explicit
    /// synchronizations and device-to-host copies.
    pub sweeps: bool,
    /// A kernel launch, whose record carries the launch's correlation id.
    /// Never set by the interner: the core's launch bracket sets it.
    pub launch: bool,
}

#[derive(Clone, Copy)]
struct NameRow {
    name: &'static str,
    implicit_sync: bool,
    sweeps: bool,
}

impl NameRow {
    /// The row for `name`, its flags taken from `spec` (none without one).
    fn new(name: &'static str, spec: Option<&CallSpec>) -> Self {
        let blocking = spec.map(|s| s.blocking);
        Self {
            name,
            implicit_sync: blocking == Some(BlockingClass::ImplicitSync),
            sweeps: blocking == Some(BlockingClass::ExplicitSync) || device_to_host(name),
        }
    }

    fn handle(&self, id: CallId) -> CallHandle {
        CallHandle {
            id,
            implicit_sync: self.implicit_sync,
            sweeps: self.sweeps,
            launch: false,
        }
    }
}

/// A device-to-host copy: a direction-split runtime copy (`…(D2H)`) or a
/// driver `cuMemcpyDtoH…`. The host consumes what such a copy returns, so
/// it is where the paper checks for finished kernels.
fn device_to_host(name: &str) -> bool {
    name.ends_with("(D2H)") || name.starts_with("cuMemcpyDtoH")
}

/// Log2 of the rows in the first chunk of the id → row table; chunk `k`
/// holds `64 << k` rows, so [`CHUNKS`] chunks cover every `u32` id.
const ROWS0_SHIFT: u32 = 6;
const CHUNKS: usize = 32 - ROWS0_SHIFT as usize;

/// An id's `(chunk, offset)` in the doubling chunk layout.
#[inline]
fn locate(id: CallId) -> (usize, usize) {
    let v = id.0 as usize + (1 << ROWS0_SHIFT);
    let top = usize::BITS - 1 - v.leading_zeros();
    ((top - ROWS0_SHIFT) as usize, v - (1 << top))
}

/// The process-wide name interner (see the module docs).
///
/// Every name lives for the rest of the process (a spec name is already
/// `'static`; a dynamic one is leaked once, when first interned), so a
/// resolved name is a plain `&'static str` that records can carry by
/// value. Rows sit in an append-only table of fixed doubling chunks, each
/// row a write-once cell published before its id is handed out: resolving
/// an id ([`NameTable::name`], [`NameTable::handle`]) takes no lock and
/// touches no shared counter.
pub struct NameTable {
    chunks: [OnceLock<Box<[OnceLock<NameRow>]>>; CHUNKS],
    /// The string → id half: only lookup by name and the append itself
    /// take this lock.
    by_name: RwLock<HashMap<&'static str, CallId>>,
}

impl NameTable {
    fn build() -> Self {
        let reg = Registry::global();
        let table = Self {
            chunks: [const { OnceLock::new() }; CHUNKS],
            by_name: RwLock::new(HashMap::with_capacity(reg.len())),
        };
        {
            let mut by_name = table.by_name.write().expect("name table poisoned");
            for i in 0..reg.len() {
                let spec = reg.spec(CallId(i as u32));
                table.append(&mut by_name, NameRow::new(spec.name, Some(spec)));
            }
        }
        table
    }

    /// The process-wide interner, seeded from [`Registry::global`].
    pub fn global() -> &'static NameTable {
        static TABLE: OnceLock<NameTable> = OnceLock::new();
        TABLE.get_or_init(NameTable::build)
    }

    /// Publish `row` under the next id (write lock held by the caller).
    fn append(&self, by_name: &mut HashMap<&'static str, CallId>, row: NameRow) -> CallId {
        let id = CallId(by_name.len() as u32);
        let (chunk, offset) = locate(id);
        let rows = self.chunks[chunk].get_or_init(|| {
            (0..1usize << (chunk as u32 + ROWS0_SHIFT))
                .map(|_| OnceLock::new())
                .collect()
        });
        if rows[offset].set(row).is_err() {
            unreachable!("interner row {} published twice", id.0);
        }
        by_name.insert(row.name, id);
        id
    }

    /// The published row for an id this table issued.
    #[inline]
    fn row(&self, id: CallId) -> &NameRow {
        let (chunk, offset) = locate(id);
        self.chunks[chunk]
            .get()
            .and_then(|rows| rows[offset].get())
            .unwrap_or_else(|| panic!("call id {} was never issued", id.0))
    }

    /// Intern `name`, returning its handle. The flags come from the
    /// registry row of the same name, or — for derived names such as
    /// `cudaMemcpy(H2D)` — from the base name before the `(` suffix; a
    /// `…(D2H)` name is a sweep point whatever its base. Unknown names
    /// intern with no flags (plain timed call).
    pub fn intern(&self, name: &str) -> CallHandle {
        if let Some(h) = self.lookup(name) {
            return h;
        }
        let reg = Registry::global();
        let base = name.split('(').next().unwrap_or(name);
        let spec = reg.id(name).or_else(|| reg.id(base)).map(|id| reg.spec(id));
        let mut by_name = self.by_name.write().expect("name table poisoned");
        // double-check: another thread may have interned it meanwhile
        if let Some(&id) = by_name.get(name) {
            return self.row(id).handle(id);
        }
        let row = NameRow::new(Box::leak(Box::<str>::from(name)), spec);
        let id = self.append(&mut by_name, row);
        row.handle(id)
    }

    /// The handle for an already-interned name, if any.
    pub fn lookup(&self, name: &str) -> Option<CallHandle> {
        let id = *self
            .by_name
            .read()
            .expect("name table poisoned")
            .get(name)?;
        Some(self.row(id).handle(id))
    }

    /// The interned name for an id — O(1), lock-free, no allocation.
    ///
    /// Panics on an id this table never issued (there is no way to obtain
    /// one through the public API).
    #[inline]
    pub fn name(&self, id: CallId) -> &'static str {
        self.row(id).name
    }

    /// The handle for an id this table issued (lock-free, like
    /// [`NameTable::name`]).
    #[inline]
    pub fn handle(&self, id: CallId) -> CallHandle {
        self.row(id).handle(id)
    }

    /// Number of interned names (≥ the registry size).
    pub fn len(&self) -> usize {
        self.by_name.read().expect("name table poisoned").len()
    }

    /// Never true; for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CallHandle {
    /// Intern `name` in the global table — the dynamic-name path (tests,
    /// parsed logs, derived names built at run time). Wrap sites with a
    /// literal name should use the [`site!`](crate::site) macro instead,
    /// which caches this resolution in a per-site static.
    pub fn of(name: &str) -> CallHandle {
        NameTable::global().intern(name)
    }

    /// The interned name (lock-free; see [`NameTable::name`]).
    pub fn name(&self) -> &'static str {
        NameTable::global().name(self.id)
    }
}

// CallHandle packing for the CallSite atomic: bit 63 marks "resolved",
// bits 0/1 carry the spec flags, bits 2.. the id. 2^61 ids is plenty.
const SITE_RESOLVED: u64 = 1 << 63;

fn pack(h: CallHandle) -> u64 {
    SITE_RESOLVED | ((h.id.0 as u64) << 2) | ((h.implicit_sync as u64) << 1) | (h.sweeps as u64)
}

fn unpack(v: u64) -> CallHandle {
    CallHandle {
        id: CallId(((v & !SITE_RESOLVED) >> 2) as u32),
        implicit_sync: v & 0b10 != 0,
        sweeps: v & 0b01 != 0,
        launch: false,
    }
}

/// Per-call-site resolution cache: a static cell that interns its name on
/// first use and then answers from one relaxed atomic load. Declared by
/// the [`site!`](crate::site) macro; rarely used directly.
pub struct CallSite {
    name: &'static str,
    cell: AtomicU64,
}

impl CallSite {
    /// A site for `name`, unresolved until first use.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// The site's handle (resolving and caching it on first call).
    #[inline]
    pub fn handle(&self) -> CallHandle {
        let v = self.cell.load(Ordering::Relaxed);
        if v != 0 {
            return unpack(v);
        }
        self.resolve_slow()
    }

    #[cold]
    fn resolve_slow(&self) -> CallHandle {
        let h = NameTable::global().intern(self.name);
        self.cell.store(pack(h), Ordering::Relaxed);
        h
    }
}

/// Resolve a wrap site's name literal to its [`CallHandle`] through a
/// per-site static cache: the name is interned exactly once per site, and
/// every later execution is a single atomic load.
///
/// ```
/// use ipm_interpose::site;
/// let h = site!("cudaMemcpy");
/// assert!(h.implicit_sync && !h.sweeps);
/// ```
#[macro_export]
macro_rules! site {
    ($name:literal) => {{
        static SITE: $crate::registry::CallSite = $crate::registry::CallSite::new($name);
        SITE.handle()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_aggregates_all_families() {
        let r = Registry::global();
        assert_eq!(r.family(ApiFamily::CudaRuntime).count(), 65);
        assert_eq!(r.family(ApiFamily::CudaDriver).count(), 99);
        assert_eq!(r.family(ApiFamily::Cublas).count(), 167);
        assert_eq!(r.family(ApiFamily::Cufft).count(), 13);
        assert_eq!(r.family(ApiFamily::Io).count(), 4);
        assert!(r.family(ApiFamily::Mpi).count() > 10);
        assert_eq!(
            r.len(),
            65 + 99 + 167 + 13 + 4 + r.family(ApiFamily::Mpi).count()
        );
        assert!(!r.is_empty());
    }

    #[test]
    fn lookup_roundtrips() {
        let r = Registry::global();
        let id = r.id("cudaLaunch").expect("cudaLaunch registered");
        assert_eq!(r.spec(id).name, "cudaLaunch");
        assert!(r.id("cudaNotARealCall").is_none());
    }

    #[test]
    fn implicit_blocking_set_is_cuda_memory_ops_plus_cublas_transfers() {
        let r = Registry::global();
        let set: Vec<&str> = r.implicit_blocking_set().map(|c| c.name).collect();
        assert!(set.contains(&"cudaMemcpy"));
        assert!(set.contains(&"cuMemcpyDtoH"));
        assert!(set.contains(&"cublasGetMatrix"));
        assert!(!set.iter().any(|n| n.contains("Memset")));
        assert!(!set.iter().any(|n| n.ends_with("Async")));
    }

    #[test]
    fn ids_are_stable_across_lookups() {
        let r = Registry::global();
        assert_eq!(r.id("cublasZgemm"), r.id("cublasZgemm"));
        assert_ne!(r.id("cudaMemcpy"), r.id("cuMemcpyHtoD"));
    }

    #[test]
    fn interner_is_seeded_with_the_registry() {
        let reg = Registry::global();
        let names = NameTable::global();
        assert!(names.len() >= reg.len());
        // a spec name's interned id IS its registry id
        let h = names.intern("cudaMemcpy");
        assert_eq!(Some(h.id), reg.id("cudaMemcpy"));
        assert_eq!(names.name(h.id), "cudaMemcpy");
        assert!(h.implicit_sync && !h.sweeps);
    }

    #[test]
    fn dynamic_names_get_appended_ids_with_base_name_attributes() {
        let names = NameTable::global();
        let split = names.intern("cudaMemcpy(D2H)");
        assert!(
            split.id.0 as usize >= Registry::global().len(),
            "derived names live past the spec rows"
        );
        // attributes come from the cudaMemcpy base row
        assert!(split.implicit_sync && split.sweeps);
        let async_split = names.intern("cudaMemcpyAsync(H2D)");
        assert!(!async_split.implicit_sync && !async_split.sweeps);
        // pseudo-events and unknown names carry no attributes
        let idle = names.intern("@CUDA_HOST_IDLE");
        assert!(!idle.implicit_sync && !idle.sweeps);
        // interning is idempotent
        assert_eq!(names.intern("cudaMemcpy(D2H)"), split);
        assert_eq!(names.name(split.id), "cudaMemcpy(D2H)");
    }

    #[test]
    fn sweep_points_are_explicit_syncs_and_device_to_host_copies() {
        let reg = Registry::global();
        let names = NameTable::global();
        let expect = |spec: &CallSpec, name: &str| {
            spec.blocking == BlockingClass::ExplicitSync
                || name.ends_with("(D2H)")
                || name.starts_with("cuMemcpyDtoH")
        };
        for i in 0..reg.len() {
            let spec = reg.spec(CallId(i as u32));
            assert_eq!(
                names.intern(spec.name).sweeps,
                expect(spec, spec.name),
                "{}",
                spec.name
            );
            for dir in ["(D2H)", "(H2D)"] {
                let derived = format!("{}{dir}", spec.name);
                let h = names.intern(&derived);
                assert_eq!(h.sweeps, expect(spec, &derived), "{derived}");
                assert_eq!(h.implicit_sync, names.intern(spec.name).implicit_sync);
            }
        }
        // the runtime and driver sweep sets the CUDA facades wrap
        let sweeping = |names: &[&str]| {
            names
                .iter()
                .map(|n| CallHandle::of(n).sweeps)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sweeping(&[
                "cudaStreamSynchronize",
                "cudaEventSynchronize",
                "cudaThreadSynchronize",
                "cudaMemcpy(D2H)",
                "cudaMemcpyAsync(D2H)",
                "cuCtxSynchronize",
                "cuEventSynchronize",
                "cuStreamSynchronize",
                "cuMemcpyDtoH",
            ]),
            [true; 9]
        );
        assert_eq!(
            sweeping(&[
                "cudaMemcpy(H2D)",
                "cudaMemcpy(D2D)",
                "cudaLaunch",
                "cuMemcpyHtoD",
                "cuLaunchGrid",
                "@CUDA_HOST_IDLE"
            ]),
            [false; 6]
        );
    }

    #[test]
    fn chunk_layout_covers_ids_contiguously() {
        assert_eq!(locate(CallId(0)), (0, 0));
        assert_eq!(locate(CallId(63)), (0, 63));
        assert_eq!(locate(CallId(64)), (1, 0));
        assert_eq!(locate(CallId(191)), (1, 127));
        assert_eq!(locate(CallId(192)), (2, 0));
        assert_eq!(locate(CallId(u32::MAX - 64)).0, CHUNKS - 1);
    }

    #[test]
    fn concurrent_interning_publishes_rows_before_ids() {
        // a private table, so the chunk boundaries crossed are known
        let table = NameTable::build();
        let start = table.len();
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 400;
        let (tx, rx) = std::sync::mpsc::channel::<(String, CallHandle)>();
        let rx = std::sync::Mutex::new(rx);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let tx = tx.clone();
                let table = &table;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        // every other name is a derived name, so resolved
                        // handles carry spec flags too
                        let name = if i % 2 == 0 {
                            format!("stress_{w}_{i}")
                        } else {
                            format!("cudaMemcpy(stress_{w}_{i})")
                        };
                        let h = table.intern(&name);
                        tx.send((name, h)).unwrap();
                    }
                });
            }
            drop(tx);
            for _ in 0..2 {
                let (rx, table) = (&rx, &table);
                scope.spawn(move || loop {
                    let Ok((name, h)) = rx.lock().unwrap().recv() else {
                        break;
                    };
                    // resolved on a thread that never interned it
                    assert_eq!(table.name(h.id), name);
                    assert_eq!(table.handle(h.id), h);
                    assert_eq!(h.implicit_sync, name.starts_with("cudaMemcpy("));
                });
            }
        });
        let end = table.len();
        assert_eq!(end, start + WRITERS * PER_WRITER);
        assert!(
            locate(CallId(end as u32 - 1)).0 >= locate(CallId(start as u32)).0 + 2,
            "the stress run must cross at least two chunk boundaries"
        );
        // every id resolves, and lookup by name agrees with it
        for id in 0..end as u32 {
            let id = CallId(id);
            assert_eq!(table.lookup(table.name(id)).map(|h| h.id), Some(id));
        }
    }

    #[test]
    fn call_sites_cache_their_resolution() {
        let first = site!("cudaMemcpy");
        let second = site!("cudaMemcpy");
        // two *sites* for the same name share the interned id
        assert_eq!(first.id, second.id);
        assert!(first.implicit_sync && !first.sweeps);
        // a site's repeated executions agree with the interner
        for _ in 0..3 {
            assert_eq!(site!("MPI_Recv"), CallHandle::of("MPI_Recv"));
        }
        // packing roundtrips all flag combinations
        for (implicit_sync, sweeps) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let h = CallHandle {
                id: CallId(12345),
                implicit_sync,
                sweeps,
                launch: false,
            };
            assert_eq!(unpack(pack(h)), h);
        }
    }
}

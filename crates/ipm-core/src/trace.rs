//! Streaming event trace: bounded per-rank rings.
//!
//! The paper's IPM is strictly post-mortem: the hash table aggregates, the
//! banner summarizes, event ordering is lost. This module adds the
//! event-stream layer modern GPU telemetry systems build on:
//!
//! * [`TraceRing`] — a bounded ring, one buffer behind one lock, capturing
//!   one compact [`TraceRecord`] per wrapped call, KTT completion, and
//!   `@CUDA_HOST_IDLE` interval, with **exact drop accounting**: the
//!   invariant `captured + dropped == emitted` holds at every instant,
//!   under concurrent emission, whether or not the ring overflowed.
//!
//! Rendering (`Export::….to(ChromeTrace | Otlp)`) lives in the unified
//! [`crate::export`] pipeline, whose per-rank input is
//! [`crate::export::ExportRank`].
//!
//! A full ring has one behaviour: it drops the new record and counts the
//! drop. A dropped record is still booked in the perf table, which is the
//! paper's own way of bounding a long run. Drains order the buffer through
//! [`crate::compact::merge_runs`].

use crate::compact::TraceAgg;
use ipm_interpose::{CallId, NameTable};
#[cfg(not(loom))]
use std::cell::UnsafeCell;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// What a trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A host-side wrapped API call (the Fig. 2 anatomy).
    Call,
    /// A device-side kernel execution interval (KTT completion).
    KernelExec,
    /// An implicit host-blocking interval (`@CUDA_HOST_IDLE`).
    HostIdle,
}

impl TraceKind {
    /// Stable one-letter tag used by the XML encoding.
    pub fn tag(self) -> char {
        match self {
            TraceKind::Call => 'C',
            TraceKind::KernelExec => 'K',
            TraceKind::HostIdle => 'I',
        }
    }

    /// Inverse of [`TraceKind::tag`].
    pub fn from_tag(tag: char) -> Option<Self> {
        match tag {
            'C' => Some(TraceKind::Call),
            'K' => Some(TraceKind::KernelExec),
            'I' => Some(TraceKind::HostIdle),
            _ => None,
        }
    }
}

/// One captured event: a compact, fixed-shape record of 80 bytes (pinned
/// below). Its name is interned (`NameTable::name`), so it lives for the
/// rest of the process and a push copies a pointer instead of touching a
/// shared refcount; its kernel symbol is kept as the interned id the table
/// keys on, resolved to text only by the writers. A record the monitor
/// captures is always raw: its aggregate is a null pointer.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    pub kind: TraceKind,
    /// Registry name (`cudaMemcpy(D2H)`, `MPI_Allreduce`, …) or, for
    /// `KernelExec`, the `@CUDA_EXEC_STRMxx` pseudo-event name.
    pub name: &'static str,
    /// Kernel symbol for `KernelExec` records, as its interned id (the
    /// same id `SigKey::detail` carries); see [`TraceRecord::detail_name`].
    pub detail: Option<CallId>,
    /// Begin timestamp, virtual seconds.
    pub begin: f64,
    /// End timestamp, virtual seconds.
    pub end: f64,
    pub bytes: u64,
    /// Active user region at capture time.
    pub region: u16,
    /// Device stream for `KernelExec`; `None` means the host lane.
    pub stream: Option<u32>,
    /// Correlation id linking a `cudaLaunch` call to its kernel execution
    /// (0 when untracked).
    pub corr: u64,
    /// Present on summary records that [`crate::compact::compact_records`]
    /// folds, or that an older log holds: the aggregate of every record
    /// merged in. `None` means a raw, single-event record, the only kind a
    /// ring captures. Kept, with summary rendering and reading, while
    /// `perfbench/` still builds and compacts records itself.
    pub agg: Option<Box<TraceAgg>>,
}

// every copy of the trace (the ring's buffer, drained vectors, export
// sources, parsed logs) pays for each byte of the record
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 80);

impl TraceRecord {
    /// Whether this record is a compaction summary.
    pub fn is_summary(&self) -> bool {
        self.agg.is_some()
    }

    /// Original events this record represents: 1 for a raw record, the
    /// merged count for a summary. Σ `event_count` is the conserved
    /// quantity compaction never changes.
    pub fn event_count(&self) -> u64 {
        self.agg.as_ref().map_or(1, |a| a.count)
    }

    /// Summed busy time this record represents, virtual seconds: its own
    /// duration for a raw record, the merged total for a summary (the
    /// summary's `end - begin` span also covers the gaps *between* merged
    /// events, so it is not the conserved quantity — this is).
    pub fn busy_total(&self) -> f64 {
        self.agg.as_ref().map_or(self.end - self.begin, |a| a.total)
    }

    /// The kernel symbol's text, resolved through the global name table.
    pub fn detail_name(&self) -> Option<&'static str> {
        self.detail.map(|d| NameTable::global().name(d))
    }

    /// This record's aggregate, treating a raw record as a unit summary.
    pub(crate) fn agg_or_unit(&self) -> TraceAgg {
        self.agg.as_deref().copied().unwrap_or(TraceAgg {
            count: 1,
            total: self.end - self.begin,
            min: self.end - self.begin,
            max: self.end - self.begin,
            exemplar: (self.begin, self.end),
        })
    }
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// Default ring capacity (records).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;
/// Former default number of lock stripes. The ring is one buffer now, so
/// this no longer shapes it; [`TraceRing::new`] ignores its second argument.
/// Kept while `perfbench/` still passes it.
pub const DEFAULT_TRACE_SHARDS: usize = 8;

/// Minimal spin mutex for the ring. Uncontended acquire is one
/// compare-exchange and release one store — roughly half the cost of a
/// futex-backed mutex, which matters at the per-wrapped-call push rate.
/// A rank's ring has one writer (the rank's thread) and readers that only
/// sample it, and critical sections are tiny appends, so spinning on the
/// exceptional conflict is cheap.
#[cfg(not(loom))]
struct SpinLock<T> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: the lock protocol below gives exclusive &mut access to `data`
// between a successful compare-exchange (Acquire) and the guard's release
// store, so sharing across threads is sound for Send payloads.
#[cfg(not(loom))]
unsafe impl<T: Send> Send for SpinLock<T> {}
#[cfg(not(loom))]
unsafe impl<T: Send> Sync for SpinLock<T> {}

// Model-checking flavour: a raw spin loop never yields to loom's cooperative
// scheduler, so under `--cfg loom` the ring lock becomes a scheduler-aware
// mutex (blocked threads are unschedulable, keeping exploration finite).
// The guard API is identical, callers don't change.
#[cfg(loom)]
struct SpinLock<T> {
    inner: loom::sync::Mutex<T>,
}

#[cfg(loom)]
impl<T> SpinLock<T> {
    fn new(value: T) -> Self {
        Self {
            inner: loom::sync::Mutex::new(value),
        }
    }

    fn lock(&self) -> loom::sync::MutexGuard<'_, T> {
        self.inner.lock()
    }
}

#[cfg(not(loom))]
impl<T> SpinLock<T> {
    fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    fn lock(&self) -> SpinGuard<'_, T> {
        loop {
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinGuard { lock: self };
            }
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(not(loom))]
struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

#[cfg(not(loom))]
impl<T> std::ops::Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock
        unsafe { &*self.lock.data.get() }
    }
}

#[cfg(not(loom))]
impl<T> std::ops::DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively
        unsafe { &mut *self.lock.data.get() }
    }
}

#[cfg(not(loom))]
impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// A consistent sample of a ring's cumulative counters, taken under one
/// lock acquisition (see [`TraceRing::counters`]); always satisfies
/// `captured + dropped == emitted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Records offered (the sum of the other two).
    pub emitted: u64,
    /// Records stored (possibly drained since).
    pub captured: u64,
    /// Records refused because the ring was full.
    pub dropped: u64,
}

/// The ring's record buffer plus bookkeeping that only ever changes under
/// the ring's lock (so it needs no atomics of its own).
#[derive(Default)]
struct Buffer {
    buf: Vec<TraceRecord>,
    /// Most records ever resident at once.
    hwm: usize,
    /// Records the ring has stored (cumulative, survives drains).
    captured: u64,
    /// Records the ring has refused.
    dropped: u64,
}

/// A bounded trace ring: one buffer behind one lock.
///
/// Each rank's monitor owns its ring, and only the rank's own thread
/// pushes into it; readers (counter samples, drains) take the same lock
/// briefly. A full ring drops the *new* record (launches must never block
/// on telemetry). Drop accounting is exact by construction: every offer
/// increments exactly one of `captured` or `dropped` under the lock, and
/// `emitted` is *defined* as their sum, so `captured + dropped == emitted`
/// holds at every instant, under any interleaving.
pub struct TraceRing {
    inner: SpinLock<Buffer>,
    capacity: usize,
}

impl TraceRing {
    /// Ring with `capacity` record slots (at least 1). `_stripes` is
    /// ignored: it is left over from the ring's striped layout, and is kept
    /// while `perfbench/` still passes it.
    pub fn new(capacity: usize, _stripes: usize) -> Self {
        let capacity = capacity.max(1);
        // the buffer is reserved to the whole capacity up front (and again
        // by the first push after a drain), so no push ever grows it by
        // reallocating; untouched capacity costs address space, not memory
        Self {
            inner: SpinLock::new(Buffer {
                buf: Vec::with_capacity(capacity),
                ..Buffer::default()
            }),
            capacity,
        }
    }

    /// Total record capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer one record; returns `false` (and counts a drop) if the ring
    /// is full. Never blocks beyond the ring's lock; the hot path is one
    /// uncontended lock and plain arithmetic under it.
    pub fn push(&self, rec: TraceRecord) -> bool {
        let mut b = self.inner.lock();
        if b.buf.len() >= self.capacity {
            b.dropped += 1;
            return false;
        }
        if b.buf.capacity() == 0 {
            // first push after a drain: reserve the whole capacity again.
            // Drains leave the buffer empty instead, so a final drain does
            // not hold reserved memory the post-mortem that follows could
            // have reused.
            b.buf.reserve_exact(self.capacity);
        }
        b.buf.push(rec);
        b.captured += 1;
        b.hwm = b.hwm.max(b.buf.len());
        true
    }

    /// All cumulative counters, read under one lock acquisition. Because
    /// the two tallies are sampled together (and `emitted` is their sum by
    /// definition), the returned snapshot satisfies
    /// `captured + dropped == emitted` even while writers are running.
    pub fn counters(&self) -> TraceCounters {
        let b = self.inner.lock();
        TraceCounters {
            emitted: b.captured + b.dropped,
            captured: b.captured,
            dropped: b.dropped,
        }
    }

    /// Records currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether no records are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark: the most records ever resident at once, never
    /// above capacity. Drains do not reset it.
    pub fn high_water_mark(&self) -> u64 {
        self.inner.lock().hwm as u64
    }

    /// High-water memory footprint in bytes: the record slots that were
    /// ever resident at once.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_mark() * std::mem::size_of::<TraceRecord>() as u64
    }

    /// Remove and return every resident record in `(begin, end)` order.
    /// Frees ring space for further capture; counters are cumulative and
    /// unaffected. The buffer is handed over as it stands and
    /// [`merge_runs`](crate::compact::merge_runs) orders it in one pass,
    /// cutting it only where back-dated appends broke its order — the
    /// same record-for-record output as a stable sort, with each record
    /// moved once.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let buf = std::mem::take(&mut self.inner.lock().buf);
        crate::compact::merge_runs(vec![buf])
    }

    /// Copy every resident record without removing it, in `(begin, end)`
    /// order (the same merge as [`TraceRing::drain`], over a copy).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let buf = self.inner.lock().buf.clone();
        crate::compact::merge_runs(vec![buf])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::cmp_time;
    use std::sync::Arc;

    fn call(name: &'static str, begin: f64, end: f64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name,
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: None,
        }
    }

    #[test]
    fn ring_accounting_is_exact_without_overflow() {
        let ring = TraceRing::new(16, 4);
        for i in 0..10 {
            assert!(ring.push(call("x", i as f64, i as f64 + 0.5)));
        }
        let c = ring.counters();
        assert_eq!(c.emitted, 10);
        assert_eq!(c.captured, 10);
        assert_eq!(c.dropped, 0);
        assert_eq!(c.captured + c.dropped, c.emitted);
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.high_water_mark(), 10);
    }

    #[test]
    fn full_ring_drops_and_accounts() {
        let ring = TraceRing::new(4, 2);
        let mut accepted = 0;
        for i in 0..20 {
            if ring.push(call("x", i as f64, i as f64)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        let c = ring.counters();
        assert_eq!(c.emitted, 20);
        assert_eq!(c.captured, 4);
        assert_eq!(c.dropped, 16);
        assert_eq!(c.captured + c.dropped, c.emitted);
    }

    #[test]
    fn drain_frees_space_and_sorts() {
        let ring = TraceRing::new(8, 3);
        for &t in &[3.0, 1.0, 2.0] {
            ring.push(call("x", t, t + 0.1));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(drained.windows(2).all(|w| w[0].begin <= w[1].begin));
        assert!(ring.is_empty());
        // freed space accepts new records
        assert!(ring.push(call("y", 9.0, 9.5)));
        assert_eq!(ring.counters().captured, 4);
    }

    #[test]
    fn concurrent_emission_keeps_accounting_exact() {
        let ring = Arc::new(TraceRing::new(256, 8));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let ring = ring.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        ring.push(call("k", (t * 100 + i) as f64, (t * 100 + i) as f64 + 0.5));
                    }
                });
            }
        });
        let c = ring.counters();
        assert_eq!(c.emitted, 800);
        assert_eq!(c.captured + c.dropped, 800);
        assert_eq!(ring.len() as u64, c.captured);
    }

    #[test]
    fn a_full_ring_keeps_the_oldest_records_and_drops_the_new() {
        let ring = TraceRing::new(4, 1);
        for i in 0..20 {
            assert_eq!(ring.push(call("x", i as f64, i as f64)), i < 4);
        }
        let c = ring.counters();
        assert_eq!((c.captured, c.dropped, c.emitted), (4, 16, 20));
        let kept: Vec<f64> = ring.drain().iter().map(|r| r.begin).collect();
        assert_eq!(kept, [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn drain_orders_back_dated_appends() {
        // every fourth record began before the one ahead of it, as a
        // kernel execution a KTT sweep appends does; ties keep push order
        let ring = TraceRing::new(64, 1);
        let mut pushed = Vec::new();
        for i in 0..32 {
            let t = (i / 2) as f64;
            let mut r = call("x", if i % 4 == 3 { t - 1.5 } else { t }, t + 0.5);
            r.corr = i;
            assert!(ring.push(r.clone()));
            pushed.push(r);
        }
        pushed.sort_by(cmp_time);
        assert_eq!(ring.snapshot(), pushed);
        assert_eq!(ring.drain(), pushed);
    }

    #[test]
    fn a_ring_holds_exactly_its_capacity() {
        for capacity in [1, 5, 7, 64] {
            let ring = TraceRing::new(capacity, 4);
            let accepted = (0..2 * capacity)
                .filter(|&i| ring.push(call("x", i as f64, i as f64)))
                .count();
            assert_eq!(accepted, capacity);
            assert_eq!(ring.capacity(), capacity);
            assert_eq!(ring.counters().dropped, capacity as u64);
        }
    }

    #[test]
    fn high_water_mark_is_the_most_resident_at_once() {
        let ring = TraceRing::new(16, 4);
        let push = |n: usize| (0..n).for_each(|i| assert!(ring.push(call("x", i as f64, 1e9))));
        push(2);
        assert_eq!(ring.drain().len(), 2);
        push(2);
        assert_eq!(ring.high_water_mark(), 2, "never 4 resident at once");
        push(3);
        assert_eq!(ring.high_water_mark(), 5);
        assert_eq!(ring.drain().len(), 5);
        assert_eq!(ring.high_water_mark(), 5, "drains keep the mark");
    }

    #[test]
    fn counters_sweep_closes_and_matches_drained_events() {
        let ring = TraceRing::new(8, 1);
        for i in 0..50 {
            ring.push(call("x", i as f64, i as f64 + 0.5));
        }
        let c = ring.counters();
        assert_eq!(c.emitted, 50);
        assert_eq!(c.dropped, 42, "a ring of 8 drops the rest");
        assert_eq!(c.captured + c.dropped, c.emitted);
        // what drains is every offer the ring did not drop
        assert_eq!(ring.drain().len() as u64, c.emitted - c.dropped);
        assert_eq!(ring.counters(), c, "drains leave the counters alone");
    }

    #[test]
    fn counters_ledger_closes_while_writers_race() {
        // the one-lock counter read must return a closing ledger at any
        // instant, concurrent pushes (2,000 into 64 slots) notwithstanding
        let ring = Arc::new(TraceRing::new(64, 1));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ring = ring.clone();
                scope.spawn(move || {
                    for i in 0..500 {
                        let b = (t * 500 + i) as f64;
                        ring.push(call("k", b, b + 0.5));
                    }
                });
            }
            let ring = ring.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    let c = ring.counters();
                    assert_eq!(
                        c.captured + c.dropped,
                        c.emitted,
                        "mid-run counter sweep tore"
                    );
                }
            });
        });
        let c = ring.counters();
        assert_eq!((c.captured, c.dropped), (64, 2_000 - 64));
    }
}

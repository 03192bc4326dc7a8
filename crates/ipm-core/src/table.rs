//! The performance data hash table (paper Fig. 1).
//!
//! IPM's central data structure: for each event signature it stores the
//! number of calls, the total time, and the per-call minimum and maximum.
//! The real IPM uses a fixed-size open-addressing table so monitoring
//! never allocates unboundedly on the hot path; we keep that property with
//! a **capacity cap** (overflowing signatures are counted, not stored) and
//! two layers:
//!
//! * **Per-thread delta cells**: the record path ([`PerfTable::update_key`])
//!   deposits into a cell owned by the calling thread — an uncontended
//!   private mutex around a fixed array of [`CELL_SLOTS`] open-addressing
//!   `(SigKey, RunningStats)` slots, allocated once when the cell is
//!   registered. The slot is found by a multiplicative hash of the key's
//!   integer fields and a linear probe, so a steady-state recorded call
//!   performs no shared-lock acquisition and no heap allocation. A cell
//!   admits new keys up to [`CELL_LOAD_LIMIT`]; a new key that finds its
//!   cell full flushes the cell into the shared map first, so a cell never
//!   grows.
//! * **One shared map**: every read path first *flushes* the delta cells
//!   into the shared map (where the capacity cap is enforced), then reads,
//!   all under the map's lock. Flushing drains each cell, so no
//!   observation is ever counted twice, and cells are registered in the
//!   table so no observation is lost when a thread exits.

use crate::sig::SigKey;
use ipm_interpose::CallId;
use ipm_sim_core::RunningStats;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

// Model-checking flavour: under `--cfg loom` the cell and map mutexes
// become loom primitives so every interleaving of the update/flush path is
// explored (see `tests/loom.rs`). The APIs are identical.
#[cfg(loom)]
use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
use parking_lot::{Mutex, MutexGuard};

/// Default maximum number of distinct signatures (mirrors IPM's
/// `MAXSIZE_HASH`-style compile-time bound).
pub const DEFAULT_CAPACITY: usize = 32 * 1024;

/// Slots in one delta cell, a power of two. Under `--cfg loom` a cell has
/// two, so the models reach the full-cell path with a key or two.
#[cfg(not(loom))]
pub const CELL_SLOTS: usize = 512;
#[cfg(loom)]
pub const CELL_SLOTS: usize = 2;

/// Distinct keys a cell admits between flushes: ¾ of its slots, so a
/// probe always ends at an empty slot.
pub const CELL_LOAD_LIMIT: usize = CELL_SLOTS * 3 / 4;

/// Home slot of `key`: one multiply per integer field, high bits kept.
/// Not collision-resistant (byte counts come from the application), but
/// the load limit bounds any probe to one walk of the cell.
#[inline]
fn home_slot(key: &SigKey) -> usize {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    let detail = key.detail.map_or(0, |d| u64::from(d.0) + 1);
    let fields = [
        u64::from(key.id.0),
        key.bytes,
        u64::from(key.region),
        detail,
    ];
    let hash = fields
        .into_iter()
        .fold(0u64, |h, field| (h ^ field).wrapping_mul(MUL));
    (hash >> (64 - CELL_SLOTS.trailing_zeros())) as usize
}

/// One thread's private accumulator: deltas not yet merged into the
/// shared map. The mutex is uncontended in steady state (only the owning
/// thread and an occasional flusher touch it).
struct DeltaCell {
    slots: Mutex<Slots>,
}

/// A cell's open-addressing array. A slot whose `count` is 0 is empty.
struct Slots {
    slots: Box<[(SigKey, RunningStats); CELL_SLOTS]>,
    /// Indices of the slots holding a delta, so a drain visits only those.
    /// Reserved to the load limit, so it never reallocates.
    occupied: Vec<u16>,
}

const _: () = assert!(CELL_SLOTS <= 1 << 16, "slot indices are u16");

impl DeltaCell {
    fn new() -> Self {
        let empty = (SigKey::call(CallId(0), 0), RunningStats::default());
        let slots = vec![empty; CELL_SLOTS].into_boxed_slice();
        Self {
            slots: Mutex::new(Slots {
                slots: slots.try_into().expect("CELL_SLOTS slots"),
                occupied: Vec::with_capacity(CELL_LOAD_LIMIT),
            }),
        }
    }
}

impl Slots {
    /// Record one observation of `key`. False, with nothing recorded, when
    /// `key` is new and the cell is at its load limit. Always inlined:
    /// left to the heuristics, the deposit of a wrapped call and that of a
    /// sweep shared one out-of-line copy, and a monitored query call cost
    /// about 10 ns more.
    #[inline(always)]
    fn record(&mut self, key: SigKey, duration: f64) -> bool {
        let mut i = home_slot(&key);
        loop {
            let (slot_key, stats) = &mut self.slots[i];
            if stats.count == 0 {
                if self.occupied.len() == CELL_LOAD_LIMIT {
                    return false;
                }
                self.occupied.push(i as u16);
                debug_assert!(self.occupied.len() <= CELL_LOAD_LIMIT);
                *slot_key = key;
                *stats = RunningStats::default();
            } else if *slot_key != key {
                i = (i + 1) % CELL_SLOTS;
                continue;
            }
            stats.record(duration);
            return true;
        }
    }

    /// Move every delta into `out` and empty the cell.
    fn drain_into(&mut self, out: &mut Vec<(SigKey, RunningStats)>) {
        for i in self.occupied.drain(..) {
            let slot = &mut self.slots[usize::from(i)];
            out.push(*slot);
            slot.1.count = 0;
        }
    }
}

/// Everything a flush merges into, behind the table's one shared lock.
#[derive(Default)]
struct Merged {
    map: HashMap<SigKey, RunningStats>,
    /// Observations dropped because the map was full.
    overflow: u64,
    /// Reused buffer a flush copies one cell into, so the cell's lock is
    /// held only for the copy, never for the merge.
    scratch: Vec<(SigKey, RunningStats)>,
}

impl Merged {
    /// Drain one cell and merge its deltas, enforcing the capacity cap (a
    /// dropped delta counts all its observations as overflow). Runs under
    /// the shared lock, taking the cell's lock inside it.
    fn absorb(&mut self, cell: &DeltaCell, capacity: usize) {
        cell.slots.lock().drain_into(&mut self.scratch);
        for (key, delta) in self.scratch.drain(..) {
            if let Some(stats) = self.map.get_mut(&key) {
                stats.merge(&delta);
            } else if self.map.len() < capacity {
                self.map.insert(key, delta);
            } else {
                self.overflow += delta.count;
            }
        }
    }
}

thread_local! {
    /// Per-thread cache of this thread's cells, keyed by table identity.
    /// The hot slot covers the common one-table case; `others` holds weak
    /// references for threads that feed several tables.
    static THREAD_CELLS: RefCell<ThreadCells> = RefCell::new(ThreadCells {
        fast_id: u64::MAX,
        fast: None,
        others: HashMap::new(),
    });
}

struct ThreadCells {
    fast_id: u64,
    fast: Option<Arc<DeltaCell>>,
    others: HashMap<u64, Weak<DeltaCell>>,
}

/// Process-unique table identities for the thread-local cell cache.
/// Deliberately a std atomic even under loom: identity allocation is not
/// part of the modeled protocol.
fn next_table_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Capacity-bounded statistics table with per-thread delta cells.
pub struct PerfTable {
    /// Identity for the thread-local cell cache.
    id: u64,
    /// Every delta cell ever handed to a thread. The table holds the
    /// strong reference, so a thread exiting never takes deltas with it.
    cells: Mutex<Vec<Arc<DeltaCell>>>,
    /// The shared map. Taken after the cell list is copied, and before
    /// any cell lock.
    merged: Mutex<Merged>,
    /// Maximum number of entries in the shared map.
    capacity: usize,
}

impl PerfTable {
    /// Table with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Table holding at most `capacity` distinct signatures.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            id: next_table_id(),
            cells: Mutex::new(Vec::new()),
            merged: Mutex::new(Merged::default()),
            capacity,
        }
    }

    /// Run `f` against this thread's delta cell, creating and registering
    /// the cell on first use. The cached cell is borrowed, not cloned, so
    /// `f` must not re-enter the thread's cell cache.
    #[inline]
    fn with_cell(&self, f: impl FnOnce(&DeltaCell)) {
        THREAD_CELLS.with(|tls| {
            {
                let cached = tls.borrow();
                if cached.fast_id == self.id {
                    if let Some(cell) = &cached.fast {
                        return f(cell);
                    }
                }
            }
            let cell = self.lookup_or_register_cell(&mut tls.borrow_mut());
            f(&cell);
        });
    }

    #[cold]
    fn lookup_or_register_cell(&self, tls: &mut ThreadCells) -> Arc<DeltaCell> {
        let cell = match tls.others.get(&self.id).and_then(Weak::upgrade) {
            Some(cell) => cell,
            None => {
                let cell = Arc::new(DeltaCell::new());
                self.cells.lock().push(cell.clone());
                // drop cache entries for tables that no longer exist
                tls.others.retain(|_, w| w.strong_count() > 0);
                cell
            }
        };
        tls.others.insert(self.id, Arc::downgrade(&cell));
        if let Some(prev) = tls.fast.take() {
            tls.others.insert(tls.fast_id, Arc::downgrade(&prev));
        }
        tls.fast_id = self.id;
        tls.fast = Some(cell.clone());
        cell
    }

    /// Record one observation of `key` with the given duration — the
    /// `UPDATE_DATA` of the wrapper anatomy (Fig. 2), as a deposit of one.
    /// Lands in the calling thread's delta cell: no shared lock and no
    /// allocation.
    #[inline]
    pub fn update_key(&self, key: SigKey, duration: f64) {
        self.update_keys(std::iter::once((key, duration)));
    }

    /// Record several observations in one deposit: the thread's delta cell
    /// is looked up and locked once for all of them (once more after each
    /// flush a full cell forces). `observations` is drawn while the cell is
    /// locked and the thread's cell cache is borrowed, so it must not touch
    /// any `PerfTable`.
    #[inline]
    pub(crate) fn update_keys(&self, observations: impl IntoIterator<Item = (SigKey, f64)>) {
        self.with_cell(|cell| {
            let mut slots = cell.slots.lock();
            for (key, duration) in observations {
                while !slots.record(key, duration) {
                    slots = self.flush_full_cell(cell, slots);
                }
            }
        });
    }

    /// A new key found `cell` full: flush the cell into the shared map,
    /// where the capacity cap applies, and hand back the emptied cell's
    /// guard, which admits any key. The cell never grows, and this
    /// thread's deltas reach the map in the order they were deposited. The
    /// cell's guard is dropped before the map's lock is taken, keeping the
    /// lock order map, then cell.
    #[cold]
    fn flush_full_cell<'c>(
        &self,
        cell: &'c DeltaCell,
        slots: MutexGuard<'c, Slots>,
    ) -> MutexGuard<'c, Slots> {
        drop(slots);
        self.merged.lock().absorb(cell, self.capacity);
        cell.slots.lock()
    }

    /// Merge every thread's pending deltas into the shared map, then
    /// answer `read` from it under the same lock. All read paths go
    /// through here, so reads observe every completed `update_key`.
    ///
    /// Drain and merge happen under one lock, so a reader racing another
    /// reader's flush can never find a cell already emptied and its delta
    /// not yet merged.
    fn flushed<R>(&self, read: impl FnOnce(&Merged) -> R) -> R {
        let cells = self.cells.lock().clone();
        let mut merged = self.merged.lock();
        for cell in &cells {
            merged.absorb(cell, self.capacity);
        }
        read(&merged)
    }

    /// Look up the statistics for a signature.
    pub fn get(&self, key: SigKey) -> Option<RunningStats> {
        self.flushed(|m| m.map.get(&key).copied())
    }

    /// Number of distinct signatures stored.
    pub fn len(&self) -> usize {
        self.flushed(|m| m.map.len())
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observations dropped due to the capacity cap.
    pub fn overflow(&self) -> u64 {
        self.flushed(|m| m.overflow)
    }

    /// Snapshot all entries, in no particular order. Names stay interned:
    /// the report paths resolve (and order) what they show. Not a hot
    /// path.
    pub fn snapshot(&self) -> Vec<(SigKey, RunningStats)> {
        self.flushed(|m| m.map.iter().map(|(key, stats)| (*key, *stats)).collect())
    }
}

impl Default for PerfTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_interpose::CallHandle;
    use std::sync::Arc;
    use std::thread;

    fn key(name: &str, bytes: u64) -> SigKey {
        SigKey::call(CallHandle::of(name).id, bytes)
    }

    #[test]
    fn update_accumulates_per_signature() {
        let t = PerfTable::new();
        let sig = key("cudaMemcpy(D2H)", 4096);
        t.update_key(sig, 1.0);
        t.update_key(sig, 3.0);
        let stats = t.get(sig).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, 4.0);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 3.0);
    }

    #[test]
    fn distinct_byte_counts_get_distinct_entries() {
        let t = PerfTable::new();
        t.update_key(key("cudaMemcpy(H2D)", 100), 0.1);
        t.update_key(key("cudaMemcpy(H2D)", 200), 0.2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn capacity_cap_counts_overflow() {
        let t = PerfTable::with_capacity(4);
        for i in 0..10u64 {
            t.update_key(key("x", i), 0.1);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.overflow(), 6);
        // existing entries still update after saturation
        let (stored, before) = t.snapshot().remove(0);
        t.update_key(stored, 0.1);
        assert_eq!(t.get(stored).unwrap().count, before.count + 1);
    }

    #[test]
    fn keys_past_a_full_cell_come_back_exactly() {
        // twice the cell's slots with no read in between: the cell fills
        // and flushes itself several times on every pass
        let t = PerfTable::new();
        let keys = 2 * CELL_SLOTS as u64;
        for pass in 0..3 {
            for i in 0..keys {
                t.update_key(key("k", i), (i + pass) as f64);
            }
        }
        for i in 0..keys {
            let stats = t.get(key("k", i)).unwrap();
            assert_eq!(
                (stats.count, stats.min, stats.max),
                (3, i as f64, (i + 2) as f64)
            );
        }
        assert_eq!(t.len(), keys as usize);
        assert_eq!(t.overflow(), 0);
    }

    #[test]
    fn one_deposit_books_what_single_updates_book() {
        // a batch longer than the cell holds: it flushes mid-deposit
        let (batched, single) = (PerfTable::new(), PerfTable::new());
        let observations: Vec<(SigKey, f64)> = (0..3 * CELL_SLOTS as u64)
            .map(|i| (key("k", i % (2 * CELL_SLOTS as u64)), i as f64))
            .collect();
        batched.update_keys(observations.iter().copied());
        for &(k, d) in &observations {
            single.update_key(k, d);
        }
        assert_eq!(batched.len(), 2 * CELL_SLOTS);
        for (k, stats) in single.snapshot() {
            assert_eq!(batched.get(k), Some(stats));
        }
    }

    #[test]
    fn a_full_cell_still_counts_overflow_exactly() {
        let t = PerfTable::with_capacity(4);
        let keys = 2 * CELL_SLOTS as u64;
        for i in 0..keys {
            t.update_key(key("x", i), 0.1);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.overflow(), keys - 4);
    }

    #[test]
    fn reads_observe_deltas_still_resident_in_cells() {
        // no explicit flush API: every read path flushes implicitly
        let t = PerfTable::new();
        t.update_key(key("MPI_Send", 8), 1.0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        t.update_key(key("MPI_Send", 8), 1.0);
        assert_eq!(t.get(key("MPI_Send", 8)).unwrap().count, 2);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.count, 2);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let t = Arc::new(PerfTable::new());
        let threads: Vec<_> = (0..8)
            .map(|k| {
                let t = t.clone();
                thread::spawn(move || {
                    let (sig, own) = (key("hot", 0), key("own", k));
                    for _ in 0..10_000 {
                        t.update_key(sig, 1e-6);
                        t.update_key(own, 1e-6);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.get(key("hot", 0)).unwrap().count, 80_000);
        for k in 0..8 {
            assert_eq!(t.get(key("own", k)).unwrap().count, 10_000);
        }
        assert_eq!(t.overflow(), 0);
    }

    #[test]
    fn exited_threads_leave_their_deltas_behind() {
        // the table owns the strong reference to each cell: a thread
        // dying with unflushed deltas must not lose them
        let t = Arc::new(PerfTable::new());
        let h = {
            let t = t.clone();
            thread::spawn(move || {
                t.update_key(key("MPI_Barrier", 0), 0.5);
            })
        };
        h.join().unwrap();
        assert_eq!(t.get(key("MPI_Barrier", 0)).unwrap().count, 1);
    }

    #[test]
    fn one_thread_feeding_two_tables_keeps_them_separate() {
        let a = PerfTable::new();
        let b = PerfTable::new();
        let sig = key("cudaFree", 0);
        a.update_key(sig, 1.0);
        b.update_key(sig, 2.0);
        a.update_key(sig, 1.0);
        assert_eq!(a.get(sig).unwrap().count, 2);
        assert_eq!(a.get(sig).unwrap().total, 2.0);
        assert_eq!(b.get(sig).unwrap().count, 1);
        assert_eq!(b.get(sig).unwrap().total, 2.0);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = PerfTable::new();
        assert!(t.is_empty());
        assert!(t.snapshot().is_empty());
    }
}

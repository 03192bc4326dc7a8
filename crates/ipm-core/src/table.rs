//! The performance data hash table (paper Fig. 1).
//!
//! IPM's central data structure: for each event signature it stores the
//! number of calls, the total time, and the per-call minimum and maximum.
//! The real IPM uses a fixed-size open-addressing table so monitoring
//! never allocates unboundedly on the hot path; we keep that property with
//! a **capacity cap** (overflowing signatures are counted, not stored) and
//! two layers of concurrency structure:
//!
//! * **Per-thread delta cells**: the record path ([`PerfTable::update_key`])
//!   deposits into a cell owned by the calling thread — an uncontended
//!   private mutex around a small [`SigKey`] → [`RunningStats`] map whose
//!   capacity survives flushes, so a steady-state recorded call performs
//!   no shared-lock acquisition and no heap allocation.
//! * **Lock-striped shards**: every read path first *flushes* the delta
//!   cells into the shared shards (where the capacity cap is enforced),
//!   then reads. Flushing drains each cell, so no observation is ever
//!   counted twice, and cells are registered in the table so no
//!   observation is lost when a thread exits.
//!
//! The striping degree is an explicit parameter because it is one of the
//! ablations benchmarked in `ipm-bench`.

use crate::sig::{EventSignature, SigKey};
use ipm_sim_core::RunningStats;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

// Model-checking flavour: under `--cfg loom` the stripe/cell mutexes and
// the len/overflow atomics become loom primitives so every interleaving of
// the update/flush path is explored (see `tests/loom.rs`). The APIs are
// identical.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::Mutex;
#[cfg(not(loom))]
use parking_lot::Mutex;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Default maximum number of distinct signatures (mirrors IPM's
/// `MAXSIZE_HASH`-style compile-time bound).
pub const DEFAULT_CAPACITY: usize = 32 * 1024;

/// Default number of lock stripes.
pub const DEFAULT_SHARDS: usize = 16;

/// One thread's private accumulator: deltas not yet merged into the
/// shared shards. The mutex is uncontended in steady state (only the
/// owning thread and an occasional flusher touch it).
#[derive(Default)]
struct DeltaCell {
    deltas: Mutex<HashMap<SigKey, RunningStats>>,
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

/// Sharded, capacity-bounded statistics table with per-thread delta cells.
pub struct PerfTable {
    /// Identity for the thread-local cell cache.
    id: u64,
    shards: Box<[Mutex<HashMap<SigKey, RunningStats>>]>,
    /// Every delta cell ever handed to a thread. The table holds the
    /// strong reference, so a thread exiting never takes deltas with it.
    cells: Mutex<Vec<Arc<DeltaCell>>>,
    /// Serializes flushes, and holds the scratch buffer a flush drains a
    /// cell into. Taken before any cell or shard lock, and never while
    /// one is held.
    flushing: Mutex<Vec<(SigKey, RunningStats)>>,
    /// Maximum total entries across all shards.
    capacity: usize,
    /// Entries currently stored (approximate upper bound maintained
    /// atomically; never undercounts).
    len: AtomicU64,
    /// Observations dropped because the table was full.
    overflow: AtomicU64,
}

impl PerfTable {
    /// Table with default capacity and striping.
    pub fn new() -> Self {
        Self::with_shape(DEFAULT_CAPACITY, DEFAULT_SHARDS)
    }

    /// Table with explicit capacity and stripe count (stripes are rounded
    /// up to a power of two).
    pub fn with_shape(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let vec: Vec<_> = (0..shards).map(|_| Mutex::new(HashMap::new())).collect();
        Self {
            id: next_table_id(),
            shards: vec.into_boxed_slice(),
            cells: Mutex::new(Vec::new()),
            flushing: Mutex::new(Vec::new()),
            capacity,
            len: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_for(&self, key: &SigKey) -> &Mutex<HashMap<SigKey, RunningStats>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() as usize) & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Run `f` against this thread's delta cell, creating and registering
    /// the cell on first use.
    #[inline]
    fn with_cell(&self, f: impl FnOnce(&DeltaCell)) {
        THREAD_CELLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if tls.fast_id == self.id {
                if let Some(cell) = tls.fast.clone() {
                    drop(tls);
                    return f(&cell);
                }
            }
            let cell = self.lookup_or_register_cell(&mut tls);
            drop(tls);
            f(&cell);
        });
    }

    #[cold]
    fn lookup_or_register_cell(&self, tls: &mut ThreadCells) -> Arc<DeltaCell> {
        let cell = match tls.others.get(&self.id).and_then(Weak::upgrade) {
            Some(cell) => cell,
            None => {
                let cell = Arc::new(DeltaCell::default());
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
    /// `UPDATE_DATA` of the wrapper anatomy (Fig. 2). Lands in the calling
    /// thread's delta cell: no shared lock, and no allocation once the
    /// cell has seen the key (the cell map keeps its capacity across
    /// flushes).
    #[inline]
    pub fn update_key(&self, key: SigKey, duration: f64) {
        self.with_cell(|cell| {
            cell.deltas.lock().entry(key).or_default().record(duration);
        });
    }

    /// [`PerfTable::update_key`] for a string-keyed signature: interns the
    /// name(s) first. Report-path and test convenience — the facades
    /// resolve their names once, not per call.
    pub fn update(&self, sig: &EventSignature, duration: f64) {
        self.update_key(sig.key(), duration);
    }

    /// Merge every thread's pending deltas into the shared shards. All
    /// read paths call this first, so reads observe every completed
    /// `update_key`. Draining keeps each cell's map capacity, preserving
    /// the no-allocation steady state.
    ///
    /// Flushes are serialized: a delta drained out of its cell is merged
    /// into its shard before any other flush can start. Otherwise a reader
    /// racing another reader's flush could find a cell already emptied
    /// and a shard not yet merged, and miss an update that completed
    /// before its read began.
    fn flush_cells(&self) {
        let mut scratch = self.flushing.lock();
        self.drain_cells_into_shards(&mut scratch);
    }

    /// The body of [`Self::flush_cells`], run under its serializing lock.
    fn drain_cells_into_shards(&self, scratch: &mut Vec<(SigKey, RunningStats)>) {
        let cells: Vec<Arc<DeltaCell>> = self.cells.lock().iter().cloned().collect();
        for cell in cells {
            scratch.extend(cell.deltas.lock().drain());
            for (key, stats) in scratch.drain(..) {
                self.merge(key, stats);
            }
        }
    }

    /// Merge one flushed delta into its shard, enforcing the capacity cap
    /// (a dropped delta counts all its observations as overflow).
    fn merge(&self, key: SigKey, delta: RunningStats) {
        let mut shard = self.shard_for(&key).lock();
        if let Some(stats) = shard.get_mut(&key) {
            stats.merge(&delta);
            return;
        }
        if self.len.load(Ordering::Relaxed) as usize >= self.capacity {
            self.overflow.fetch_add(delta.count, Ordering::Relaxed);
            return;
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        shard.insert(key, delta);
    }

    /// Look up the statistics for a signature.
    pub fn get(&self, sig: &EventSignature) -> Option<RunningStats> {
        self.flush_cells();
        let key = sig.key();
        self.shard_for(&key).lock().get(&key).copied()
    }

    /// Number of distinct signatures stored.
    pub fn len(&self) -> usize {
        self.flush_cells();
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observations dropped due to the capacity cap.
    pub fn overflow(&self) -> u64 {
        self.flush_cells();
        self.overflow.load(Ordering::Relaxed)
    }

    /// Snapshot all entries with names resolved, deterministically ordered
    /// by (name, bytes, region, detail). Used at report time; not a hot
    /// path.
    pub fn snapshot(&self) -> Vec<(EventSignature, RunningStats)> {
        self.flush_cells();
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            for (key, stats) in shard.lock().iter() {
                out.push((key.resolve(), *stats));
            }
        }
        out.sort_by_key(|(s, _)| (s.name, s.bytes, s.region, s.detail));
        out
    }

    /// Aggregate total time per *name* (summing over bytes/region/detail) —
    /// the banner's view of the table.
    pub fn totals_by_name(&self) -> Vec<(String, RunningStats)> {
        let mut map: HashMap<String, RunningStats> = HashMap::new();
        for (sig, stats) in self.snapshot() {
            map.entry(sig.name.to_string()).or_default().merge(&stats);
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort_by(|a, b| b.1.total.partial_cmp(&a.1.total).expect("finite totals"));
        out
    }

    /// Sum of total durations over entries whose name satisfies `pred`.
    pub fn time_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.snapshot()
            .iter()
            .filter(|(s, _)| pred(s.name))
            .map(|(_, st)| st.total)
            .sum()
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
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn update_accumulates_per_signature() {
        let t = PerfTable::new();
        let sig = EventSignature::call("cudaMemcpy(D2H)", 4096);
        t.update(&sig, 1.0);
        t.update(&sig, 3.0);
        let stats = t.get(&sig).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, 4.0);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 3.0);
    }

    #[test]
    fn update_key_is_the_hot_path_form_of_update() {
        let t = PerfTable::new();
        let sig = EventSignature::call("cudaLaunch", 0).in_region(2);
        t.update_key(sig.key(), 0.5);
        t.update(&sig, 0.25);
        let stats = t.get(&sig).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, 0.75);
    }

    #[test]
    fn distinct_byte_counts_get_distinct_entries() {
        let t = PerfTable::new();
        t.update(&EventSignature::call("cudaMemcpy(H2D)", 100), 0.1);
        t.update(&EventSignature::call("cudaMemcpy(H2D)", 200), 0.2);
        assert_eq!(t.len(), 2);
        // but the banner view merges them by name
        let totals = t.totals_by_name();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].1.count, 2);
    }

    #[test]
    fn capacity_cap_counts_overflow() {
        let t = PerfTable::with_shape(4, 2);
        for i in 0..10u64 {
            t.update(&EventSignature::call("x", i), 0.1);
        }
        assert!(t.len() <= 4);
        assert!(t.overflow() >= 6);
        // existing entries still update after saturation
        let first = EventSignature::call("x", 0);
        if let Some(before) = t.get(&first) {
            t.update(&first, 0.1);
            assert_eq!(t.get(&first).unwrap().count, before.count + 1);
        }
    }

    #[test]
    fn reads_observe_deltas_still_resident_in_cells() {
        // no explicit flush API: every read path flushes implicitly
        let t = PerfTable::new();
        t.update(&EventSignature::call("MPI_Send", 8), 1.0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        t.update(&EventSignature::call("MPI_Send", 8), 1.0);
        assert_eq!(
            t.get(&EventSignature::call("MPI_Send", 8)).unwrap().count,
            2
        );
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.count, 2);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let t = PerfTable::new();
        t.update(&EventSignature::call("zeta", 0), 0.1);
        t.update(&EventSignature::call("alpha", 4), 0.1);
        t.update(&EventSignature::call("alpha", 2), 0.1);
        t.update(&EventSignature::call("alpha", 2).in_region(1), 0.1);
        let names: Vec<(String, u64, u16)> = t
            .snapshot()
            .into_iter()
            .map(|(s, _)| (s.name.to_string(), s.bytes, s.region))
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha".to_owned(), 2, 0),
                ("alpha".to_owned(), 2, 1),
                ("alpha".to_owned(), 4, 0),
                ("zeta".to_owned(), 0, 0),
            ]
        );
    }

    #[test]
    fn totals_sorted_descending() {
        let t = PerfTable::new();
        t.update(&EventSignature::call("small", 0), 0.1);
        t.update(&EventSignature::call("big", 0), 5.0);
        t.update(&EventSignature::call("mid", 0), 1.0);
        let names: Vec<_> = t.totals_by_name().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["big", "mid", "small"]);
    }

    #[test]
    fn time_where_filters_by_family() {
        let t = PerfTable::new();
        t.update(&EventSignature::call("MPI_Send", 8), 1.0);
        t.update(&EventSignature::call("MPI_Recv", 8), 2.0);
        t.update(&EventSignature::call("cudaMemcpy(D2H)", 8), 4.0);
        assert_eq!(t.time_where(|n| n.starts_with("MPI_")), 3.0);
        assert_eq!(t.time_where(|n| n.starts_with("cuda")), 4.0);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let t = Arc::new(PerfTable::new());
        let threads: Vec<_> = (0..8)
            .map(|k| {
                let t = t.clone();
                thread::spawn(move || {
                    let sig = EventSignature::call("hot", 0);
                    let own = EventSignature::call("own", k);
                    for _ in 0..10_000 {
                        t.update(&sig, 1e-6);
                        t.update(&own, 1e-6);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(
            t.get(&EventSignature::call("hot", 0)).unwrap().count,
            80_000
        );
        for k in 0..8 {
            assert_eq!(
                t.get(&EventSignature::call("own", k)).unwrap().count,
                10_000
            );
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
                t.update(&EventSignature::call("MPI_Barrier", 0), 0.5);
            })
        };
        h.join().unwrap();
        assert_eq!(
            t.get(&EventSignature::call("MPI_Barrier", 0))
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn one_thread_feeding_two_tables_keeps_them_separate() {
        let a = PerfTable::new();
        let b = PerfTable::new();
        let sig = EventSignature::call("cudaFree", 0);
        a.update(&sig, 1.0);
        b.update(&sig, 2.0);
        a.update(&sig, 1.0);
        assert_eq!(a.get(&sig).unwrap().count, 2);
        assert_eq!(a.get(&sig).unwrap().total, 2.0);
        assert_eq!(b.get(&sig).unwrap().count, 1);
        assert_eq!(b.get(&sig).unwrap().total, 2.0);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = PerfTable::new();
        assert!(t.is_empty());
        assert!(t.snapshot().is_empty());
        assert!(t.totals_by_name().is_empty());
    }
}

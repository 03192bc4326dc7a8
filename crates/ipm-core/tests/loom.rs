//! Exhaustive schedule exploration of the two concurrency-critical monitor
//! structures: the trace ring (one buffer behind one lock) and the perf
//! table's delta-cell flush into its shared map. Compiled (and run) only under
//! `RUSTFLAGS="--cfg loom"`, where a delta cell admits one key, so the table
//! models also reach the path a new key takes past a full cell:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ipm-core --test loom --release
//! ```
//!
//! These upgrade PR 1's randomized property tests to model checking: every
//! sequentially-consistent interleaving of lock/atomic operations the models
//! reach is visited (up to `LOOM_MAX_ITERATIONS`), not a sampled handful.
#![cfg(loom)]

use ipm_core::{PerfTable, SigKey, TraceKind, TraceRecord, TraceRing};
use ipm_interpose::CallHandle;
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;

/// The table key of a plain call in the global region.
fn key(name: &str, bytes: u64) -> SigKey {
    SigKey::call(CallHandle::of(name).id, bytes)
}

fn rec(name: &'static str, begin: f64) -> TraceRecord {
    TraceRecord {
        kind: TraceKind::Call,
        name,
        detail: None,
        begin,
        end: begin + 1e-6,
        bytes: 64,
        region: 0,
        stream: None,
        corr: 0,
        agg: None,
    }
}

/// The ring's core invariant, `captured + dropped == emitted`, under
/// concurrent emitters contending for a ring that is too small for the
/// combined load (so both the accept and the drop path are explored).
#[test]
fn trace_ring_accounting_is_exact_under_concurrent_emit() {
    loom::model(|| {
        // capacity 3: four offers => at least one drop.
        let ring = Arc::new(TraceRing::new(3, 1));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..2 {
                        if ring.push(rec("cudaLaunch", (t * 2 + i) as f64)) {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

        let c = ring.counters();
        assert_eq!(c.emitted, 4);
        assert_eq!(c.captured + c.dropped, c.emitted);
        assert_eq!(c.captured, accepted);
        assert_eq!(c.captured, 3);
        assert_eq!(c.dropped, 1);
        assert_eq!(ring.len() as u64, c.captured);
    });
}

/// A drain racing the emitters must neither disturb the cumulative counters
/// nor lose a record: everything accepted is either drained or still
/// resident afterwards.
#[test]
fn trace_ring_drain_races_emitters_without_losing_records() {
    loom::model(|| {
        let ring = Arc::new(TraceRing::new(4, 1));
        let emitter = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                ring.push(rec("cudaMemcpy(H2D)", 1.0));
                ring.push(rec("cudaMemcpy(D2H)", 2.0));
            })
        };
        let drained_mid = ring.drain().len() as u64;
        emitter.join().unwrap();

        let c = ring.counters();
        assert_eq!(c.captured + c.dropped, c.emitted);
        assert_eq!(c.emitted, 2);
        assert_eq!(c.dropped, 0);
        // counters are cumulative: the mid-flight drain removed records but
        // not history, and no accepted record vanished.
        assert_eq!(drained_mid + ring.len() as u64, c.captured);
        assert_eq!(c.captured, 2);
    });
}

/// The thread-local delta-cell flush: recorders deposit into private cells
/// (`update_key`) while a drainer races them with flushing reads
/// (`snapshot`/`get`). Whatever the interleaving, no delta may be lost
/// (every completed update is eventually visible) and none may be counted
/// twice (flushing drains a cell, it does not copy it).
#[test]
fn delta_cell_flush_races_recorders_without_losing_or_doubling() {
    loom::model(|| {
        let table = Arc::new(PerfTable::new());
        let hot = key("cudaLaunch", 0);
        let recorders: Vec<_> = (0..2)
            .map(|t| {
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    // two updates per thread: the second lands on a key the
                    // cell has already seen *unless* a racing flush drained
                    // it in between — both shapes are explored
                    table.update_key(key("cudaLaunch", 0), 1e-6);
                    table.update_key(key("cudaMemcpy(H2D)", 64 * t), 2e-6);
                })
            })
            .collect();

        // mid-flight flushing read, racing both recorders: it may observe
        // any prefix of the updates, but never a torn or doubled one
        let mid: u64 = table.snapshot().iter().map(|(_, stats)| stats.count).sum();
        assert!(mid <= 4, "mid-flight snapshot invented {mid} observations");

        for h in recorders {
            h.join().unwrap();
        }

        // after the recorders retire, a flushing read recovers every
        // completed update exactly once — across cells *and* across the
        // earlier drain (flushed deltas merged into the map stay there)
        let hot_stats = table.get(hot).unwrap();
        assert_eq!(hot_stats.count, 2, "hot-key delta lost or doubled");
        assert_eq!(hot_stats.total, 2e-6);
        let total: u64 = table.snapshot().iter().map(|(_, stats)| stats.count).sum();
        assert_eq!(total, 4, "flush lost or double-counted a delta cell");
        assert_eq!(table.overflow(), 0);
    });
}

/// A read that starts after an update completed must see it, even while
/// another reader is mid-flush. One thread updates and then signals; a
/// second thread flushes (any read does); a third thread, once it sees the
/// signal, reads and must find the update. Without serialized flushes the
/// second thread could have drained the update out of its delta cell but
/// not yet merged it into the shared map when the third thread looks.
#[test]
fn flushing_read_never_hides_a_completed_update() {
    loom::model(|| {
        let table = Arc::new(PerfTable::new());
        let done = Arc::new(AtomicBool::new(false));
        let updater = {
            let (table, done) = (Arc::clone(&table), Arc::clone(&done));
            thread::spawn(move || {
                // fills the one-key loom cell, so the watched update takes
                // the full-cell path unless the flusher drained it first
                table.update_key(key("cudaMemcpy(H2D)", 64), 1e-6);
                table.update_key(key("cudaLaunch", 0), 1e-6);
                done.store(true, Ordering::SeqCst);
            })
        };
        let flusher = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                table.len();
            })
        };
        let reader = {
            let (table, done) = (Arc::clone(&table), Arc::clone(&done));
            thread::spawn(move || {
                if done.load(Ordering::SeqCst) {
                    let seen = table.get(key("cudaLaunch", 0));
                    assert_eq!(
                        seen.map(|s| s.count),
                        Some(1),
                        "read after the update completed missed it"
                    );
                }
            })
        };
        for h in [updater, flusher, reader] {
            h.join().unwrap();
        }
    });
}

/// The shared-map merge: concurrent updates to one hot signature must
/// merge (no lost counts), and the capacity cap is exact — it never stores
/// more than `capacity` entries, and every offer is either stored or
/// counted as overflow.
#[test]
fn perf_table_updates_merge_and_respect_exact_capacity() {
    loom::model(|| {
        let table = Arc::new(PerfTable::with_capacity(2));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    table.update_key(key("hot", 0), 1e-6);
                    table.update_key(key("own", t), 1e-6);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let hot = table.get(key("hot", 0)).unwrap();
        assert_eq!(hot.count, 2, "hot-signature update lost");
        // 3 distinct signatures offered into capacity 2: no offer may
        // vanish, so entries stored plus overflowed updates cover all 4
        assert!(table.len() <= 2);
        let stored_updates: u64 = [
            table.get(key("hot", 0)),
            table.get(key("own", 0)),
            table.get(key("own", 1)),
        ]
        .iter()
        .flatten()
        .map(|s| s.count)
        .sum();
        assert_eq!(stored_updates + table.overflow(), 4);
    });
}

/// A new key that finds its cell full flushes the cell into the shared map,
/// racing another thread's flushing read. Whatever the interleaving, no
/// delta is lost or doubled, and the map never holds more than its
/// capacity: three keys into capacity 2, so one key's offer overflows.
#[test]
fn full_cell_flush_races_a_read_without_losing_or_doubling() {
    loom::model(|| {
        let table = Arc::new(PerfTable::with_capacity(2));
        let recorder = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                // the first key fills the cell; the next two take the
                // full-cell path unless the read drained it in between
                for bytes in [0, 64, 128] {
                    table.update_key(key("cudaMemcpy(D2H)", bytes), 1e-6);
                }
            })
        };
        let flusher = {
            let table = Arc::clone(&table);
            thread::spawn(move || {
                let mid = table.len();
                assert!(mid <= 2, "mid-flight map holds {mid} entries");
            })
        };
        for h in [recorder, flusher] {
            h.join().unwrap();
        }

        assert_eq!(table.len(), 2);
        let stored: u64 = table.snapshot().iter().map(|(_, stats)| stats.count).sum();
        assert_eq!(
            stored + table.overflow(),
            3,
            "full-cell delta lost or doubled"
        );
    });
}

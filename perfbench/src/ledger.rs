//! The isolated record-path ledger.
//!
//! Single-threaded timings of each step a recorded call takes, measured
//! through the public API of its layer: the virtual clock (`sim-core`), the
//! call-site lookup and wrapper anatomy (`interpose`), the monitor as sink
//! with and without tracing (`monitor`), the table deposit (`table`), the
//! trace ring's capture and drop paths (`trace`), and compaction and the
//! drain-side merge (`compact`). A counting allocator gives allocations per
//! steady-state recorded call. Every figure is the median of several
//! batches; `calibration_ns` times a fixed integer loop so the others can
//! be read as ratios on another machine.

use crate::stats::median;
use ipm_core::{
    compact_records, merge_runs, CompactPolicy, Ipm, IpmConfig, PerfTable, SigKey, TraceKind,
    TraceRecord, TraceRing,
};
use ipm_interpose::{site, wrap_call, CallHandle, MonitorSink, NameTable, NullSink};
use ipm_sim_core::SimClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The process allocator, counting allocations while the ledger asks it to.
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a side effect that touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Ledger figures, nanoseconds per operation unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub clock_now_ns: f64,
    pub site_ns: f64,
    pub wrap_call_null_ns: f64,
    pub sink_update_ns: f64,
    pub sink_span_traced_ns: f64,
    pub table_update_ns: f64,
    pub ring_push_ns: f64,
    pub ring_push_full_ns: f64,
    pub compact_ns_per_record: f64,
    pub merge_ns_per_record: f64,
    pub allocs_per_call_untraced: f64,
    pub allocs_per_call_traced: f64,
    pub calibration_ns: f64,
}

impl Ledger {
    /// The steps one query-class call takes through the record path: the
    /// site lookup, the wrapper anatomy (two clock reads and the overhead
    /// charge), and the sink (table deposit; plus the ring push when
    /// `traced`).
    pub fn query_step_sum_ns(&self, traced: bool) -> f64 {
        let sink = if traced {
            self.sink_span_traced_ns
        } else {
            self.sink_update_ns
        };
        self.site_ns + self.wrap_call_null_ns + sink
    }
}

const BATCHES: usize = 7;
/// Operations per batch for the per-call steps.
const OPS: u64 = 200_000;
/// Records per trace buffer for the compaction, merge and ring timings.
const RECORDS: usize = 1 << 15;

/// Median over [`BATCHES`] of the per-operation time of `batch`, which
/// runs `ops` operations and returns the nanoseconds it spent on them
/// (so a batch can exclude its own set-up).
fn per_op(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch() as f64 / ops as f64).collect();
    median(&samples)
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Three query-class calls. The workloads' query class is
/// `cudaGetLastError`; the record path costs the same whichever call it
/// books, and three keep the table from holding a single entry.
fn query_calls() -> [CallHandle; 3] {
    [
        CallHandle::of("cudaStreamQuery"),
        CallHandle::of("cudaEventQuery"),
        CallHandle::of("cudaGetLastError"),
    ]
}

/// `n` call records in time order, one per query-class call. With `runs`, record `i` repeats its neighbour's
/// signature in short runs so a compaction pass has work to merge.
fn records(n: usize, runs: bool) -> Vec<TraceRecord> {
    let names = query_calls().map(|h| NameTable::global().name(h.id));
    (0..n)
        .map(|i| {
            let which = if runs { (i / 4) % 3 } else { i % 3 };
            let begin = i as f64 * 1e-6;
            TraceRecord {
                kind: TraceKind::Call,
                name: names[which].clone(),
                detail: None,
                begin,
                end: begin + 3e-7,
                bytes: 0,
                region: 0,
                stream: None,
                corr: 0,
                agg: None,
            }
        })
        .collect()
}

fn allocs_per_call(clock: &SimClock, sink: &dyn MonitorSink) -> f64 {
    let calls = query_calls();
    let drive = |n: u64| {
        for i in 0..n {
            wrap_call(clock, sink, calls[(i % 3) as usize], 0, 0.0, || {
                black_box(i)
            });
        }
    };
    drive(1024); // cell registration, first inserts
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    drive(OPS);
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) as f64 / OPS as f64
}

pub fn measure() -> Ledger {
    let mut l = Ledger::default();
    let calls = query_calls();
    let clock = SimClock::new();

    l.calibration_ns = per_op(OPS * 10, || {
        timed(|| {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..OPS * 10 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 33;
            }
            black_box(x);
        })
    });

    l.clock_now_ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(clock.now());
            }
        })
    });

    l.site_ns = per_op(OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(site!("cudaStreamQuery"));
            }
        })
    });

    l.wrap_call_null_ns = per_op(OPS, || {
        let sink: &dyn MonitorSink = &NullSink;
        timed(|| {
            for i in 0..OPS {
                wrap_call(&clock, sink, calls[(i % 3) as usize], 0, 0.0, || {
                    black_box(i)
                });
            }
        })
    });

    let untraced = Ipm::new(clock.clone(), IpmConfig::default().without_tracing());
    l.sink_update_ns = per_op(OPS, || {
        timed(|| {
            for i in 0..OPS {
                let t = i as f64 * 1e-6;
                untraced.span(calls[(i % 3) as usize], 0, t, t + 3e-7);
            }
        })
    });

    let traced_cfg = IpmConfig {
        trace_capacity: (OPS as usize * 2).next_power_of_two(),
        ..IpmConfig::default()
    };
    let traced = Ipm::new(clock.clone(), traced_cfg);
    l.sink_span_traced_ns = per_op(OPS, || {
        let ns = timed(|| {
            for i in 0..OPS {
                let t = i as f64 * 1e-6;
                traced.span(calls[(i % 3) as usize], 0, t, t + 3e-7);
            }
        });
        drop(traced.drain_trace());
        ns
    });

    let table = PerfTable::new();
    let keys = calls.map(|h| SigKey::call(h.id, 0));
    l.table_update_ns = per_op(OPS, || {
        timed(|| {
            for i in 0..OPS {
                table.update_key(keys[(i % 3) as usize], 3e-7);
            }
        })
    });

    let template = records(RECORDS, false);
    // twice the batch: writers rotate stripes in blocks from a per-thread
    // counter, so a batch need not split evenly and must never hit a full
    // stripe
    let ring = TraceRing::new(2 * RECORDS, ipm_core::trace::DEFAULT_TRACE_SHARDS);
    l.ring_push_ns = per_op(RECORDS as u64, || {
        let input = template.clone();
        let ns = timed(|| {
            for rec in input {
                black_box(ring.push(rec));
            }
        });
        drop(ring.drain());
        ns
    });

    let full = TraceRing::new(64, 1);
    for rec in records(64, false) {
        full.push(rec);
    }
    l.ring_push_full_ns = per_op(RECORDS as u64, || {
        let input = template.clone();
        timed(|| {
            for rec in input {
                black_box(full.push(rec));
            }
        })
    });

    let mergeable = records(RECORDS, true);
    let policy = CompactPolicy::with_high_water(1);
    l.compact_ns_per_record = per_op(RECORDS as u64, || {
        let mut buf = mergeable.clone();
        let ns = timed(|| {
            black_box(compact_records(&mut buf, &policy));
        });
        drop(buf);
        ns
    });

    // eight stripes' worth of interleaved, individually sorted runs
    let stripes = ipm_core::trace::DEFAULT_TRACE_SHARDS;
    let mut runs = vec![Vec::new(); stripes];
    for (i, rec) in template.iter().enumerate() {
        runs[i % stripes].push(rec.clone());
    }
    l.merge_ns_per_record = per_op(RECORDS as u64, || {
        let input = runs.clone();
        let mut out = Vec::new();
        let ns = timed(|| out = merge_runs(input));
        black_box(out.len());
        ns
    });

    l.allocs_per_call_untraced = allocs_per_call(&clock, untraced.as_ref());
    let traced = Ipm::new(clock.clone(), traced_cfg);
    l.allocs_per_call_traced = allocs_per_call(&clock, traced.as_ref());
    l
}

//! Microbenchmark: what does the compaction/retention engine cost, and
//! what does it buy?
//!
//! Two criterion series time the push hot path with the compactor off and
//! on (a bursty same-signature stream, the shape the merge pass targets).
//! The custom report then runs a 200k-event synthetic workload through
//! both configurations and measures the numbers the ISSUE's acceptance
//! bar names:
//!
//! * peak resident records, compacted vs. not (retention under a
//!   4k-per-stripe high-water mark);
//! * drain latency, compacted vs. not;
//! * the k-way merged drain against the old sort-everything drain on the
//!   same runs — the merge must not be slower than the global sort it
//!   replaced.
//!
//! The report is also written to `BENCH_trace.json` at the workspace root
//! so CI and later sessions can diff it.

use criterion::{criterion_group, Criterion};
use ipm_core::{merge_runs, CompactPolicy, TraceKind, TraceRecord, TraceRing};
use std::hint::black_box;

/// Quantum keeping all virtual timestamps dyadic (exact sums).
const Q: f64 = 1.0 / (1 << 20) as f64;

fn rec(name: &'static str, begin: f64, end: f64) -> TraceRecord {
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

/// The synthetic workload: bursts of identical short calls (64 per burst,
/// three rotating signatures) — compressible, like a polling loop or a
/// solver's per-step call pattern.
fn feed(ring: &TraceRing, events: u64) {
    let names = ["cudaLaunch", "cudaMemcpy(D2H)", "MPI_Send"];
    let mut t = 0.0f64;
    for i in 0..events {
        let name = names[((i / 64) % 3) as usize];
        let dur = ((i % 13) + 1) as f64 * Q;
        ring.push(rec(name, t, t + dur));
        t += dur + Q;
    }
}

fn bench_push_paths(c: &mut Criterion) {
    let plain = TraceRing::new(1 << 20, 8);
    let mut t = 0.0f64;
    c.bench_function("trace_push_uncompacted", |b| {
        b.iter(|| {
            t += 2.0 * Q;
            black_box(plain.push(rec("cudaLaunch", t, t + Q)))
        })
    });

    let compacting = TraceRing::with_policy(1 << 20, 8, CompactPolicy::with_high_water(4096));
    let mut t = 0.0f64;
    c.bench_function("trace_push_compacting", |b| {
        b.iter(|| {
            t += 2.0 * Q;
            black_box(compacting.push(rec("cudaLaunch", t, t + Q)))
        })
    });
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn compaction_report() {
    const EVENTS: u64 = 200_000;
    const ROUNDS: usize = 10;

    // retention + drain latency, compacted vs. not (fresh ring per round:
    // drain empties it)
    let fill_and_drain = |policy: Option<CompactPolicy>| {
        let ring = match policy {
            Some(p) => TraceRing::with_policy(1 << 20, 8, p),
            None => TraceRing::new(1 << 20, 8),
        };
        feed(&ring, EVENTS);
        let peak = ring.high_water_mark();
        let resident = ring.len();
        let t = std::time::Instant::now();
        let drained = ring.drain();
        let drain_ms = ms(t.elapsed());
        let effective: u64 = drained.iter().map(|r| r.event_count()).sum();
        assert_eq!(effective, EVENTS - ring.counters().dropped, "conservation");
        (peak, resident, drain_ms, ring.counters().compacted)
    };
    let mut plain = (0, 0, f64::INFINITY, 0);
    let mut compacted = (0, 0, f64::INFINITY, 0);
    for _ in 0..ROUNDS {
        let p = fill_and_drain(None);
        plain = (p.0, p.1, plain.2.min(p.2), p.3);
        let c = fill_and_drain(Some(CompactPolicy::with_high_water(4096)));
        compacted = (c.0, c.1, compacted.2.min(c.2), c.3);
    }

    // merged drain vs. the old global sort, on identical uncompacted runs
    // (the per-round clone happens outside the timed region for both)
    let ring = TraceRing::new(1 << 20, 8);
    feed(&ring, EVENTS);
    let runs = ring.snapshot_runs();
    let (mut merge_ms, mut sort_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let rs = runs.clone();
        let t = std::time::Instant::now();
        black_box(merge_runs(rs));
        merge_ms = merge_ms.min(ms(t.elapsed()));

        let rs = runs.clone();
        let t = std::time::Instant::now();
        // the pre-merge drain: concatenate the stripes, sort the lot
        let mut all: Vec<TraceRecord> = rs.into_iter().flatten().collect();
        all.sort_by(|a, b| {
            a.begin
                .partial_cmp(&b.begin)
                .unwrap()
                .then(a.end.partial_cmp(&b.end).unwrap())
        });
        black_box(all);
        sort_ms = sort_ms.min(ms(t.elapsed()));
    }

    let json = format!(
        "{{\n  \"events\": {EVENTS},\n  \"uncompacted\": {{\"resident_peak\": {}, \"resident_final\": {}, \"drain_ms\": {:.3}}},\n  \"compacted\": {{\"resident_peak\": {}, \"resident_final\": {}, \"drain_ms\": {:.3}, \"compacted_away\": {}}},\n  \"merged_drain_ms\": {:.3},\n  \"global_sort_ms\": {:.3}\n}}\n",
        plain.0, plain.1, plain.2, compacted.0, compacted.1, compacted.2, compacted.3, merge_ms, sort_ms,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    std::fs::write(path, &json).expect("write BENCH_trace.json");
    println!("trace compaction report (fastest of {ROUNDS} rounds) -> BENCH_trace.json\n{json}");
    assert!(
        compacted.0 < plain.0,
        "compaction must lower peak residency: {} vs {}",
        compacted.0,
        plain.0
    );
    assert!(
        merge_ms <= sort_ms * 1.10,
        "merged drain slower than the global sort it replaced: {merge_ms:.3} ms vs {sort_ms:.3} ms"
    );
}

criterion_group!(benches, bench_push_paths);

fn main() {
    benches();
    compaction_report();
}

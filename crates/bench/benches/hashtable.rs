//! Microbenchmark: the performance data hash table.
//!
//! IPM's design premise is that `UPDATE_DATA` must be cheap enough to run
//! on every intercepted call. This bench measures the *real* (wall-clock)
//! cost of table updates — hot-entry updates, distinct-signature inserts —
//! and update throughput with eight threads recording at once, each into
//! its own delta cell, followed by one flushing read.

use criterion::{criterion_group, criterion_main, Criterion};
use ipm_core::{EventSignature, PerfTable};
use std::hint::black_box;
use std::sync::Arc;
use std::thread;

fn bench_single_thread(c: &mut Criterion) {
    let table = PerfTable::new();
    let sig = EventSignature::call("cudaLaunch", 0);
    c.bench_function("table_update_hot_entry", |b| {
        b.iter(|| table.update(black_box(&sig), black_box(1.5e-6)))
    });

    let sigs: Vec<EventSignature> = (0..256)
        .map(|i| EventSignature::call("cudaMemcpy(D2H)", i * 64))
        .collect();
    let mut idx = 0usize;
    c.bench_function("table_update_rotating_256_sigs", |b| {
        b.iter(|| {
            table.update(black_box(&sigs[idx & 255]), 1.0e-6);
            idx += 1;
        })
    });
}

fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_contended");
    group.sample_size(20);
    group.bench_function("8_threads", |b| {
        b.iter(|| {
            let table = Arc::new(PerfTable::new());
            thread::scope(|s| {
                for t in 0..8 {
                    let table = table.clone();
                    s.spawn(move || {
                        let sig = EventSignature::call("MPI_Send", t);
                        for _ in 0..5_000 {
                            table.update(&sig, 1e-6);
                        }
                    });
                }
            });
            black_box(table.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_thread, bench_contended);
criterion_main!(benches);

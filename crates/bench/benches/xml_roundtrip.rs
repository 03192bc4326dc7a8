//! Microbenchmark: XML profile log writer and parser.
//!
//! IPM writes one XML log per rank at job exit and `ipm_parse` reads them
//! all back; at tens of thousands of ranks the serialization cost matters.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipm_core::parse::export_from_xml;
use ipm_core::{Export, ProfileEntry, RankProfile, Xml};
use ipm_sim_core::RunningStats;
use std::hint::black_box;

fn big_profile(entries: usize) -> RankProfile {
    let mut stats = RunningStats::new();
    stats.record(1.25e-3);
    stats.record(3.75e-3);
    RankProfile {
        rank: 11,
        nranks: 4096,
        host: "dirac11".to_owned(),
        command: "pmemd.cuda.MPI -O -i mdin".to_owned(),
        wallclock: 45.78,
        regions: vec!["<program>".to_owned(), "pme".to_owned()],
        entries: (0..entries)
            .map(|i| ProfileEntry {
                name: format!("cudaMemcpy(D2H)#{}", i % 40),
                detail: if i % 5 == 0 {
                    Some(format!("kernel_{i}"))
                } else {
                    None
                },
                bytes: (i as u64) * 640,
                region: (i % 2) as u16,
                stats,
            })
            .collect(),
        dropped_events: 0,
        monitor: Default::default(),
    }
}

fn bench_xml(c: &mut Criterion) {
    let export = Export::from_profile(big_profile(2_000));
    let xml = export.to(Xml).expect("one profiled rank");
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("write_2k_entries", |b| {
        b.iter(|| black_box(export.to(Xml).expect("one profiled rank")))
    });
    group.bench_function("parse_2k_entries", |b| {
        b.iter(|| black_box(export_from_xml(std::slice::from_ref(&xml)).expect("roundtrip")))
    });
    group.finish();
}

criterion_group!(benches, bench_xml);
criterion_main!(benches);

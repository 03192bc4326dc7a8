//! Property-based tests over the core data structures and invariants.

use ipm_repro::interpose::CallHandle;
use ipm_repro::ipm::parse::export_from_xml;
use ipm_repro::ipm::table::CELL_SLOTS;
use ipm_repro::ipm::{
    compact_records, merge_runs, validate_chrome_trace, ChromeTrace, CompactPolicy, Export,
    ExportRank, PerfTable, ProfileEntry, RankProfile, SigKey, TraceAgg, TraceKind, TraceRecord,
    TraceRing, Xml,
};
use ipm_repro::numlib::{blaskernels, fftkernels, Complex64, FftDirection, Transpose};
use ipm_repro::sim::{RunningStats, SimClock, SimRng};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Performance hash table vs a reference model
// ---------------------------------------------------------------------

/// The table key of a call named `name` in `region`.
fn key_in(name: &str, bytes: u64, region: u16) -> SigKey {
    SigKey {
        region,
        ..SigKey::call(CallHandle::of(name).id, bytes)
    }
}

proptest! {
    /// PerfTable agrees with a naive HashMap model for any update stream.
    #[test]
    fn perf_table_matches_reference_model(
        updates in prop::collection::vec(
            ((0u8..6), (0u64..4), (0u16..3), 0.0f64..10.0),
            1..200,
        )
    ) {
        let names = ["cudaMemcpy(D2H)", "cudaLaunch", "MPI_Send", "@CUDA_HOST_IDLE", "cublasZgemm", "cufftExecZ2Z"];
        let table = PerfTable::new();
        let mut model: std::collections::HashMap<(u8, u64, u16), RunningStats> =
            std::collections::HashMap::new();
        for &(n, bytes, region, dur) in &updates {
            table.update_key(key_in(names[n as usize], bytes, region), dur);
            model.entry((n, bytes, region)).or_default().record(dur);
        }
        prop_assert_eq!(table.len(), model.len());
        for ((n, bytes, region), want) in model {
            let got = table.get(key_in(names[n as usize], bytes, region)).expect("entry exists");
            prop_assert_eq!(got.count, want.count);
            prop_assert!((got.total - want.total).abs() < 1e-9);
            prop_assert_eq!(got.min, want.min);
            prop_assert_eq!(got.max, want.max);
        }
    }

    /// The capacity cap is exact under any flush schedule: reading after
    /// every `k`-th update, the table never holds more than `cap` entries,
    /// and every update so far is either stored or counted as overflow.
    #[test]
    fn perf_table_never_exceeds_capacity(cap in 1usize..32, k in 1u64..16, n in 0u64..200) {
        let table = PerfTable::with_capacity(cap);
        for i in 0..n {
            table.update_key(key_in("x", i, 0), 0.5);
            if (i + 1) % k == 0 || i + 1 == n {
                prop_assert!(table.len() <= cap);
                prop_assert_eq!(table.len() as u64 + table.overflow(), i + 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The table does not depend on the flush schedule, including past a
    /// full delta cell. One thread offers up to twice a cell's slots in
    /// distinct keys (each once in order, then a random tail over them),
    /// reading after every `k`-th update. With room for every key the
    /// table equals a naive model; without it the map holds exactly `cap`
    /// entries, and stored counts plus overflow cover every update.
    #[test]
    fn perf_table_is_independent_of_the_flush_schedule(
        distinct in 1usize..(2 * CELL_SLOTS + 1),
        cap in 1usize..(2 * CELL_SLOTS + 1),
        k in 1usize..(2 * CELL_SLOTS),
        tail in prop::collection::vec((any::<u64>(), 0.0f64..10.0), 0..1024),
    ) {
        let table = PerfTable::with_capacity(cap);
        let mut model: std::collections::HashMap<u64, RunningStats> =
            std::collections::HashMap::new();
        let first = (0..distinct as u64).map(|i| (i, (i % 7) as f64 * 0.5));
        let rest = tail.iter().map(|&(raw, dur)| (raw % distinct as u64, dur));
        let mut updates = 0u64;
        for (i, dur) in first.chain(rest) {
            table.update_key(key_in("flush_schedule", i, 0), dur);
            model.entry(i).or_default().record(dur);
            updates += 1;
            if updates.is_multiple_of(k as u64) {
                prop_assert!(table.len() <= cap);
            }
        }
        if cap >= distinct {
            prop_assert_eq!(table.len(), distinct);
            prop_assert_eq!(table.overflow(), 0);
            for (i, want) in model {
                let got = table.get(key_in("flush_schedule", i, 0))
                    .expect("entry exists");
                prop_assert_eq!(got.count, want.count);
                prop_assert!((got.total - want.total).abs() <= 1e-9 * want.total.abs());
                prop_assert_eq!(got.min, want.min);
                prop_assert_eq!(got.max, want.max);
            }
        } else {
            prop_assert_eq!(table.len(), cap);
            let stored: u64 = table.snapshot().iter().map(|(_, s)| s.count).sum();
            prop_assert_eq!(stored + table.overflow(), updates);
        }
    }
}

// ---------------------------------------------------------------------
// XML round trip for arbitrary profiles
// ---------------------------------------------------------------------

fn arb_profile() -> impl Strategy<Value = RankProfile> {
    let entry = (
        "[a-zA-Z@_()<>&\"0-9]{1,24}",
        prop::option::of("[a-z_]{1,16}"),
        any::<u32>(),
        0u16..4,
        1u64..1000,
        0.0f64..100.0,
    )
        .prop_map(|(name, detail, bytes, region, count, total)| {
            let mut stats = RunningStats::new();
            for i in 0..count.min(5) {
                stats.record(total / (i + 1) as f64);
            }
            ProfileEntry {
                name,
                detail,
                bytes: bytes as u64,
                region,
                stats,
            }
        });
    (
        0usize..512,
        "[ -~\n\r\t]{0,40}",
        prop::collection::vec(entry, 0..20),
        0.0f64..1e5,
    )
        .prop_map(|(rank, command, entries, wallclock)| RankProfile {
            rank,
            nranks: rank + 1,
            host: format!("dirac{:02}", rank % 48),
            command,
            wallclock,
            regions: vec!["<program>".to_owned(), "solve & report".to_owned()],
            entries,
            dropped_events: rank as u64,
            monitor: Default::default(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Profiles of distinct ranks written into one log by the `Xml`
    /// backend load back exactly, one rank per `<task>`.
    #[test]
    fn xml_roundtrip_is_identity(profiles in prop::collection::vec(arb_profile(), 1..4)) {
        let mut profiles = profiles;
        for (i, p) in profiles.iter_mut().enumerate() {
            p.rank = 3 * p.rank + i;
        }
        let xml = Export::from_profiles(profiles.clone()).to(Xml).expect("profiles");
        let back = export_from_xml(&[xml]).expect("parse");
        profiles.sort_by_key(|p| p.rank);
        prop_assert_eq!(back.source().profiles(), profiles);
    }
}

/// A finite time within the log reader's 1e12 s bound, of either sign:
/// a subnormal, one of the binade just under the bound (clamped to it), or
/// one of any binade up to 2^40.
fn arb_time() -> impl Strategy<Value = f64> {
    (0u8..4, any::<u64>()).prop_map(|(class, bits)| {
        let exponent = match class {
            0 => 0,
            1 => 1062,
            _ => (bits >> 52) % 1063,
        };
        let t = f64::from_bits(bits & (1 << 63) | exponent << 52 | bits & ((1 << 52) - 1));
        t.clamp(-1e12, 1e12)
    })
}

/// A trace record over two such times, half of them compaction summaries
/// whose aggregate is three more.
fn arb_timed_record() -> impl Strategy<Value = TraceRecord> {
    (
        (arb_time(), arb_time()),
        (arb_time(), arb_time(), arb_time()),
        prop::option::of(1u64..1000),
    )
        .prop_map(|((a, b), (total, min, max), count)| {
            let (begin, end) = if a <= b { (a, b) } else { (b, a) };
            let mut r = trace_rec(TraceKind::Call, "cudaLaunch", begin, end, None, 0);
            r.agg = count.map(|count| {
                Box::new(TraceAgg {
                    count,
                    total,
                    min,
                    max,
                    exemplar: (begin, end),
                })
            });
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Trace times written into the log by the `Xml` backend load back bit
    /// for bit: the writer's shortest digits always read back as the same
    /// `f64`, from subnormals to the reader's bound.
    #[test]
    fn xml_trace_times_roundtrip_bit_for_bit(
        records in prop::collection::vec(arb_timed_record(), 1..64),
        epoch in arb_time(),
    ) {
        let profile = RankProfile {
            rank: 0,
            nranks: 1,
            host: "dirac00".to_owned(),
            command: "times".to_owned(),
            wallclock: 1.0,
            regions: vec!["<program>".to_owned()],
            entries: Vec::new(),
            dropped_events: 0,
            monitor: Default::default(),
        };
        let xml = Export::from_profile(profile)
            .with_trace(records.clone())
            .with_epoch(epoch)
            .to(Xml)
            .expect("a profiled rank");
        let back = export_from_xml(&[xml]).expect("parse");
        let rank = &back.source().ranks[0];
        // an epoch of ±0 means "unaligned" and is left out of the log
        let epoch = if epoch == 0.0 { 0.0 } else { epoch };
        prop_assert_eq!(rank.epoch.to_bits(), epoch.to_bits());
        prop_assert_eq!(rank.records.len(), records.len());
        let bits = |r: &TraceRecord| {
            let agg = r.agg.as_ref().map(|a| {
                [a.total, a.min, a.max, a.exemplar.0, a.exemplar.1].map(f64::to_bits)
            });
            (r.begin.to_bits(), r.end.to_bits(), r.agg.as_ref().map(|a| a.count), agg)
        };
        for (got, want) in rank.records.iter().zip(&records) {
            prop_assert_eq!(bits(got), bits(want));
        }
    }
}

// ---------------------------------------------------------------------
// Numerics: FFT and GEMM invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Forward-then-inverse FFT recovers the signal (scaled by n).
    #[test]
    fn fft_roundtrip(signal in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..6)) {
        // extend to the next power of two
        let n = signal.len().next_power_of_two().max(2);
        let mut data: Vec<Complex64> =
            signal.iter().map(|&(re, im)| Complex64::new(re, im)).collect();
        data.resize(n, Complex64::ZERO);
        let orig = data.clone();
        fftkernels::fft_in_place(&mut data, FftDirection::Forward);
        fftkernels::fft_in_place(&mut data, FftDirection::Inverse);
        for (got, want) in data.iter().zip(&orig) {
            let scaled = got.scale(1.0 / n as f64);
            prop_assert!((scaled - *want).abs() < 1e-6,
                "{scaled:?} vs {want:?}");
        }
    }

    /// Parseval: energy is preserved (up to the 1/n convention).
    #[test]
    fn fft_parseval(signal in prop::collection::vec(-1e2f64..1e2, 4..5)) {
        let n = 16;
        let mut data: Vec<Complex64> =
            signal.iter().map(|&re| Complex64::new(re, 0.0)).collect();
        data.resize(n, Complex64::ZERO);
        let time_energy: f64 = data.iter().map(|c| c.norm_sqr()).sum();
        fftkernels::fft_in_place(&mut data, FftDirection::Forward);
        let freq_energy: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-6 * time_energy.max(1.0));
    }

    /// GEMM: identity is neutral and alpha scales linearly.
    #[test]
    fn dgemm_identity_and_scaling(
        vals in prop::collection::vec(-1e3f64..1e3, 9..10),
        alpha in -8.0f64..8.0,
    ) {
        let n = 3;
        let a = vals.clone();
        let mut ident = vec![0.0; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        // I * A = A
        let mut c = vec![0.0; n * n];
        blaskernels::dgemm(Transpose::N, Transpose::N, n, n, n, 1.0, &ident, n, &a, n, 0.0, &mut c, n);
        for (got, want) in c.iter().zip(&a) {
            prop_assert!((got - want).abs() < 1e-9);
        }
        // alpha * (A*I) = alpha * A
        let mut c2 = vec![0.0; n * n];
        blaskernels::dgemm(Transpose::N, Transpose::N, n, n, n, alpha, &a, n, &ident, n, 0.0, &mut c2, n);
        for (got, want) in c2.iter().zip(&a) {
            prop_assert!((got - alpha * want).abs() < 1e-6 * want.abs().max(1.0));
        }
    }

    /// Transposing both operands transposes the product:
    /// (A^T B^T)^T = B A.
    #[test]
    fn dgemm_transpose_identity(
        a in prop::collection::vec(-100.0f64..100.0, 4..5),
        b in prop::collection::vec(-100.0f64..100.0, 4..5),
    ) {
        let n = 2;
        let mut ba = vec![0.0; 4];
        blaskernels::dgemm(Transpose::N, Transpose::N, n, n, n, 1.0, &b, n, &a, n, 0.0, &mut ba, n);
        let mut atbt = vec![0.0; 4];
        blaskernels::dgemm(Transpose::T, Transpose::T, n, n, n, 1.0, &a, n, &b, n, 0.0, &mut atbt, n);
        // (A^T B^T) should equal (B A)^T
        for i in 0..n {
            for j in 0..n {
                prop_assert!((atbt[j * n + i] - ba[i * n + j]).abs() < 1e-9);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Clock and RNG invariants
// ---------------------------------------------------------------------

proptest! {
    /// The virtual clock is monotone under any interleaving of advance
    /// and advance_to.
    #[test]
    fn clock_is_monotone(ops in prop::collection::vec((any::<bool>(), 0.0f64..100.0), 1..50)) {
        let clock = SimClock::new();
        let mut last = 0.0;
        for (kind, v) in ops {
            if kind {
                clock.advance(v);
            } else {
                clock.advance_to(v);
            }
            let now = clock.now();
            prop_assert!(now >= last, "clock went backwards: {last} -> {now}");
            last = now;
        }
    }

    /// RunningStats invariants: min <= mean <= max, total = sum.
    #[test]
    fn running_stats_invariants(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut stats = RunningStats::new();
        for &v in &values {
            stats.record(v);
        }
        prop_assert_eq!(stats.count as usize, values.len());
        prop_assert!(stats.min <= stats.mean() + 1e-9);
        prop_assert!(stats.mean() <= stats.max + 1e-9);
        let sum: f64 = values.iter().sum();
        prop_assert!((stats.total - sum).abs() < 1e-6 * sum.abs().max(1.0));
    }

    /// SimRng uniform draws respect their bounds; below() respects n.
    #[test]
    fn rng_bounds(seed in any::<u64>(), lo in -1e3f64..0.0, width in 0.001f64..1e3, n in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let u = rng.uniform_in(lo, lo + width);
            prop_assert!(u >= lo && u < lo + width);
            prop_assert!(rng.below(n) < n);
        }
    }
}

// ---------------------------------------------------------------------
// MPI collectives vs sequential folds
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Allreduce equals the sequential fold over all contributions, for
    /// any rank count and payload.
    #[test]
    fn allreduce_matches_sequential_fold(
        nranks in 1usize..6,
        base in prop::collection::vec(-1e3f64..1e3, 1..8),
    ) {
        use ipm_repro::mpi::{ReduceOp, World};
        let base = std::sync::Arc::new(base);
        let expected: Vec<f64> = base
            .iter()
            .map(|v| (0..nranks).map(|r| v + r as f64).sum())
            .collect();
        let outs = World::run(nranks, |rank| {
            let mine: Vec<f64> = base.iter().map(|v| v + rank.rank() as f64).collect();
            rank.allreduce_f64(&mine, ReduceOp::Sum).expect("allreduce")
        });
        for got in outs {
            for (g, w) in got.iter().zip(&expected) {
                prop_assert!((g - w).abs() < 1e-6 * w.abs().max(1.0));
            }
        }
    }
}

// ---------------------------------------------------------------------
// GPU runtime semantics
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// For any sequence of kernels and syncs, a synchronous D2H copy never
    /// completes before every previously launched kernel's device time has
    /// elapsed — the implicit-blocking invariant IPM relies on.
    #[test]
    fn sync_d2h_waits_for_all_prior_kernels(
        durations in prop::collection::vec(1e-4f64..5e-2, 1..10),
    ) {
        use ipm_repro::gpu::{launch_kernel, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig};
        let rt = GpuRuntime::single(GpuConfig::dirac_node().with_context_init(0.0));
        let dev = rt.malloc(64).expect("malloc");
        let total: f64 = durations.iter().sum();
        for &d in &durations {
            let k = Kernel::timed("k", KernelCost::Fixed(d));
            launch_kernel(&rt, &k, LaunchConfig::simple(1u32, 1u32), &[]).expect("launch");
        }
        let mut out = [0u8; 64];
        rt.memcpy_d2h(&mut out, dev).expect("d2h");
        prop_assert!(
            rt.clock().now() >= total,
            "host at {} before kernels totalling {total} finished",
            rt.clock().now()
        );
    }

    /// Event timestamps recorded on one stream are monotone in record
    /// order, whatever work is interleaved.
    #[test]
    fn event_timestamps_are_monotone_per_stream(
        plan in prop::collection::vec((any::<bool>(), 1e-5f64..1e-2), 2..12),
    ) {
        use ipm_repro::gpu::{launch_kernel, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig, StreamId};
        let rt = GpuRuntime::single(GpuConfig::dirac_node().with_context_init(0.0));
        let mut events = Vec::new();
        for (do_kernel, dur) in plan {
            if do_kernel {
                let k = Kernel::timed("k", KernelCost::Fixed(dur));
                launch_kernel(&rt, &k, LaunchConfig::simple(1u32, 1u32), &[]).expect("launch");
            }
            let ev = rt.event_create().expect("event");
            rt.event_record(ev, StreamId::DEFAULT).expect("record");
            events.push(ev);
        }
        rt.thread_synchronize().expect("sync");
        for pair in events.windows(2) {
            let dt = rt.event_elapsed_time(pair[0], pair[1]).expect("elapsed");
            prop_assert!(dt >= 0.0, "events out of order: {dt}");
        }
    }
}

// ---------------------------------------------------------------------
// Streaming trace: ring accounting and Chrome-trace export
// ---------------------------------------------------------------------

fn trace_rec(
    kind: TraceKind,
    name: &'static str,
    begin: f64,
    end: f64,
    stream: Option<u32>,
    corr: u64,
) -> TraceRecord {
    TraceRecord {
        kind,
        name,
        detail: None,
        begin,
        end,
        bytes: 0,
        region: 0,
        stream,
        corr,
        agg: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Under concurrent emission from several ranks' worth of threads, the
    /// trace ring's books balance exactly whatever the capacity:
    /// captured + dropped == emitted, the ring holds exactly its capacity,
    /// and a drain hands back precisely the captured records in timestamp
    /// order.
    #[test]
    fn trace_ring_accounting_exact_under_concurrent_emission(
        capacity in 1usize..257,
        pushes in prop::collection::vec(0usize..300, 1..5),
    ) {
        let ring = TraceRing::new(capacity, 1);
        std::thread::scope(|s| {
            for (t, &n) in pushes.iter().enumerate() {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..n {
                        let b = (t * 1000 + i) as f64;
                        ring.push(trace_rec(
                            TraceKind::Call, "cudaStreamQuery", b, b + 0.5, None, 0,
                        ));
                    }
                });
            }
        });
        let total: u64 = pushes.iter().map(|&n| n as u64).sum();
        prop_assert_eq!(ring.counters().emitted, total);
        prop_assert_eq!(ring.counters().captured + ring.counters().dropped, ring.counters().emitted);
        prop_assert_eq!(ring.counters().captured, total.min(capacity as u64));
        prop_assert_eq!(ring.high_water_mark(), ring.counters().captured);
        let drained = ring.drain();
        prop_assert_eq!(drained.len() as u64, ring.counters().captured);
        for w in drained.windows(2) {
            prop_assert!(w[0].begin <= w[1].begin, "drain not time-sorted");
        }
        // Counters are cumulative; draining frees space without forgetting.
        prop_assert!(ring.is_empty());
        prop_assert_eq!(ring.counters().captured + ring.counters().dropped, total);
        prop_assert!(ring.push(trace_rec(TraceKind::Call, "x", 0.0, 1.0, None, 0)));
        prop_assert_eq!(ring.counters().emitted, total + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Any generated multi-rank workload exports to structurally valid
    /// Chrome trace-event JSON: balanced B/E slices, per-lane monotone
    /// timestamps, every flow arrow paired — with the exact slice, lane,
    /// process, and flow counts the workload implies. Names include quotes,
    /// backslashes, and control characters to exercise JSON escaping.
    #[test]
    fn chrome_trace_export_is_well_formed(
        plans in prop::collection::vec(
            prop::collection::vec(
                // (is_launch, name index, duration, gap before, stream)
                (any::<bool>(), 0usize..6, 1e-6f64..1e-2, 0.0f64..1e-3, 0u32..3),
                1..25,
            ),
            1..4,
        ),
    ) {
        let names = [
            "cudaLaunch",
            "cudaMemcpy(H2D)",
            "MPI_Allreduce",
            "odd \"name\" with \\escapes\tand\ncontrol",
            "@CUDA_HOST_IDLE",
            "cuCtxCreate",
        ];
        let mut corr = 0u64;
        let mut launches = 0usize;
        let mut total = 0usize;
        let mut lanes = 0usize;
        let ranks: Vec<ExportRank> = plans
            .iter()
            .enumerate()
            .map(|(r, plan)| {
                let mut records = Vec::new();
                let mut host_t = 0.0f64;
                let mut stream_t = [0.0f64; 3];
                let mut streams_used = std::collections::HashSet::new();
                for &(is_launch, name, dur, gap, stream) in plan {
                    let begin = host_t + gap;
                    let end = begin + dur;
                    host_t = end;
                    let kind =
                        if name == 4 { TraceKind::HostIdle } else { TraceKind::Call };
                    let c = if is_launch {
                        corr += 1;
                        launches += 1;
                        corr
                    } else {
                        0
                    };
                    records.push(trace_rec(kind, names[name], begin, end, None, c));
                    total += 1;
                    if is_launch {
                        // The matching device-side execution on its stream.
                        let s = stream as usize;
                        let kb = stream_t[s].max(end);
                        let ke = kb + dur;
                        stream_t[s] = ke;
                        records.push(trace_rec(
                            TraceKind::KernelExec,
                            "@CUDA_EXEC",
                            kb,
                            ke,
                            Some(stream),
                            c,
                        ));
                        total += 1;
                        streams_used.insert(stream);
                    }
                }
                lanes += 1 + streams_used.len(); // host lane + device lanes
                ExportRank {
                    rank: r,
                    host: format!("dirac{r:02}"),
                    epoch: 0.0,
                    records,
                    ..ExportRank::default()
                }
            })
            .collect();
        let nranks = ranks.len();
        let export = ranks.into_iter().fold(Export::new(), Export::with_trace_rank);
        let json = export.to(ChromeTrace).expect("ranks present");
        let stats = match validate_chrome_trace(&json) {
            Ok(stats) => stats,
            Err(e) => return Err(TestCaseError::fail(format!("invalid trace: {e}"))),
        };
        prop_assert_eq!(stats.processes, nranks);
        prop_assert_eq!(stats.slices, total);
        prop_assert_eq!(stats.flow_pairs, launches);
        prop_assert_eq!(stats.lanes, lanes);
    }
}

// ---------------------------------------------------------------------
// Trace summaries: conservation, export, and merge-vs-sort equivalence
// ---------------------------------------------------------------------

/// Timestamp quantum for conservation properties: durations and gaps are
/// integer multiples of 2^-20 s, so every partial sum is a dyadic rational
/// well inside f64's exact-integer range — summation order cannot perturb
/// totals and `==` on f64 sums is legitimate.
const Q: f64 = 1.0 / (1 << 20) as f64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// `compact_records` over a time-ordered stream conserves per-signature
    /// event count and total busy time EXACTLY (not approximately),
    /// whatever the stream; summary min/max never escape the durations
    /// actually merged; and the pass reports exactly what it folded away.
    #[test]
    fn compaction_conserves_per_signature_count_and_time(
        high_water in 1usize..48,
        // (signature index, duration steps, gap steps)
        stream in prop::collection::vec((0usize..4, 1u32..64, 0u32..32), 1..400),
    ) {
        let names = ["cudaLaunch", "cudaMemcpy(H2D)", "MPI_Allreduce", "@CUDA_HOST_IDLE"];
        // reference model: per-signature (count, total, min, max)
        let mut model = std::collections::HashMap::<usize, (u64, f64, f64, f64)>::new();
        let mut records = Vec::with_capacity(stream.len());
        let mut t = 0.0f64;
        for &(sig, dur, gap) in &stream {
            let begin = t + gap as f64 * Q;
            let end = begin + dur as f64 * Q;
            t = end;
            let kind = if sig == 3 { TraceKind::HostIdle } else { TraceKind::Call };
            records.push(trace_rec(kind, names[sig], begin, end, None, 0));
            let e = model.entry(sig).or_insert((0, 0.0, f64::INFINITY, 0.0));
            e.0 += 1;
            e.1 += dur as f64 * Q;
            e.2 = e.2.min(dur as f64 * Q);
            e.3 = e.3.max(dur as f64 * Q);
        }
        let folded = compact_records(&mut records, &CompactPolicy::with_high_water(high_water));
        prop_assert_eq!(records.len() + folded, stream.len());
        let mut got = std::collections::HashMap::<usize, (u64, f64)>::new();
        for r in &records {
            let sig = names.iter().position(|n| **n == *r.name).expect("known name");
            let e = got.entry(sig).or_default();
            e.0 += r.event_count();
            e.1 += r.busy_total();
            if let Some(a) = &r.agg {
                let (_, _, min, max) = model[&sig];
                prop_assert!(a.min >= min && a.max <= max,
                    "summary [{}, {}] escapes merged durations [{min}, {max}]", a.min, a.max);
                prop_assert!(a.min <= a.max);
                let (eb, ee) = a.exemplar;
                prop_assert!(eb >= r.begin && ee <= r.end, "exemplar outside summary span");
                prop_assert!((ee - eb) == a.max, "exemplar is the longest merged record");
            }
        }
        for (sig, (count, total, _, _)) in model {
            let (gc, gt) = got.get(&sig).copied().unwrap_or_default();
            prop_assert_eq!(gc, count, "event count not conserved for {}", names[sig]);
            // exact: quantized dyadic durations make every sum exact
            prop_assert_eq!(gt, total, "busy time not conserved for {}", names[sig]);
        }
    }

    /// A drained ring, full or not, compacted into summaries always exports
    /// to structurally valid Chrome trace JSON, summaries rendered as
    /// self-contained `X` events and raw records as nested `B`/`E` pairs.
    #[test]
    fn compacted_drain_exports_valid_chrome_trace(
        capacity in 8usize..500,
        // (signature index, duration steps, gap steps)
        stream in prop::collection::vec((0usize..4, 1u32..64, 0u32..16), 1..400),
    ) {
        let names = ["cudaLaunch", "cudaMemcpy(H2D)", "@CUDA_HOST_IDLE", "@CUDA_EXEC_STRM00"];
        let ring = TraceRing::new(capacity, 1);
        let mut t = 0.0f64;
        for &(sig, dur, gap) in &stream {
            let begin = t + gap as f64 * Q;
            let end = begin + dur as f64 * Q;
            t = end;
            let (kind, stream_id) = match sig {
                2 => (TraceKind::HostIdle, None),
                3 => (TraceKind::KernelExec, Some(0)),
                _ => (TraceKind::Call, None),
            };
            ring.push(trace_rec(kind, names[sig], begin, end, stream_id, 0));
        }
        let mut records = ring.drain();
        compact_records(&mut records, &CompactPolicy::with_high_water(1));
        let rank = ExportRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records,
            ..ExportRank::default()
        };
        let json = Export::new()
            .with_trace_rank(rank)
            .to(ChromeTrace)
            .expect("rank present");
        if let Err(e) = validate_chrome_trace(&json) {
            return Err(TestCaseError::fail(format!("invalid compacted trace: {e}")));
        }
    }

    /// The merged drain equals a sort-everything drain record-for-record
    /// on uncompacted input: it reproduces the stable sort of the accepted
    /// records in push order, ties and all.
    #[test]
    fn merged_drain_equals_global_sort_reference(
        capacity in 8usize..300,
        // unordered (begin, duration) pairs, coarse enough to force ties
        stream in prop::collection::vec((0u32..24, 0u32..4), 1..300),
    ) {
        let ring = TraceRing::new(capacity, 1);
        let mut reference = Vec::new();
        for (i, &(begin, dur)) in stream.iter().enumerate() {
            let rec = trace_rec(
                TraceKind::Call,
                ["a", "b", "c"][i % 3],
                begin as f64 * 0.125,
                (begin + dur) as f64 * 0.125,
                None,
                i as u64 + 1, // distinct corrs make records distinguishable
            );
            if ring.push(rec.clone()) {
                reference.push(rec);
            }
        }
        reference.sort_by(|a, b| {
            a.begin
                .partial_cmp(&b.begin)
                .unwrap()
                .then(a.end.partial_cmp(&b.end).unwrap())
        });
        prop_assert_eq!(&ring.snapshot(), &reference, "snapshot differs from stable global sort");
        prop_assert_eq!(&ring.drain(), &reference, "drain differs from stable global sort");
    }

    /// `merge_runs` on direct input, beyond the one run a ring hands it:
    /// up to 12 runs, empty ones among them, keys drawn from a handful of
    /// values so ties across runs are the rule, and runs sorted, blocky
    /// (sorted stretches whose order breaks, like a buffer a kernel sweep
    /// appended to) or unsorted. The result is the stable sort of the
    /// runs' concatenation.
    #[test]
    fn merge_runs_equals_stable_sort_of_any_runs(
        runs in prop::collection::vec(
            (prop::collection::vec((0u32..6, 0u32..3), 0..40), 0u8..3),
            0..13,
        ),
    ) {
        let mut id = 0u64;
        let runs: Vec<Vec<TraceRecord>> = runs
            .into_iter()
            .map(|(keys, shape)| {
                let mut keys = keys;
                match shape {
                    0 => keys.sort_unstable(),
                    1 => keys.chunks_mut(5).for_each(<[_]>::sort_unstable),
                    _ => {}
                }
                keys.into_iter()
                    .map(|(begin, dur)| {
                        id += 1; // distinct corrs make records distinguishable
                        trace_rec(
                            TraceKind::Call,
                            "m",
                            f64::from(begin),
                            f64::from(begin + dur),
                            None,
                            id,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut reference: Vec<TraceRecord> = runs.iter().flatten().cloned().collect();
        reference.sort_by(|a, b| {
            a.begin
                .partial_cmp(&b.begin)
                .unwrap()
                .then(a.end.partial_cmp(&b.end).unwrap())
        });
        prop_assert_eq!(merge_runs(runs), reference);
    }
}

// ---------------------------------------------------------------------
// MPI ordering
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Messages between one sender/receiver pair with one tag are
    /// non-overtaking (MPI's ordering guarantee).
    #[test]
    fn same_tag_messages_do_not_overtake(n in 1usize..30) {
        use ipm_repro::mpi::World;
        let outs = World::run(2, |rank| {
            if rank.rank() == 0 {
                for i in 0..n {
                    rank.send(1, 5, &[i as u8]).expect("send");
                }
                Vec::new()
            } else {
                (0..n).map(|_| rank.recv(Some(0), 5).expect("recv").1[0]).collect()
            }
        });
        let got = &outs[1];
        let want: Vec<u8> = (0..n as u8).collect();
        prop_assert_eq!(got, &want);
    }
}

// ---------------------------------------------------------------------
// OTLP export
// ---------------------------------------------------------------------

mod otlp_props {
    use super::*;
    use ipm_repro::ipm::{validate_otlp, Otlp};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Whatever a trace ring hands back — partial launch/kernel pairs,
        /// dropped records — compacted into summaries, the
        /// OTLP backend renders a document [`validate_otlp`] accepts, and
        /// the spans/links it reports never exceed what went in.
        #[test]
        fn arbitrary_ring_contents_export_to_valid_otlp(
            capacity in 8usize..300,
            epoch in 0.0f64..4.0,
            // (signature index, duration steps, gap steps, corr)
            stream in prop::collection::vec(
                (0usize..5, 1u32..64, 0u32..16, 0u64..6), 1..300,
            ),
        ) {
            const Q: f64 = 1.0 / (1 << 20) as f64;
            let names = [
                "cudaLaunch",
                "cudaMemcpy(H2D)",
                "@CUDA_HOST_IDLE",
                "@CUDA_EXEC_STRM00",
                "odd \"name\" with \\escapes",
            ];
            let ring = TraceRing::new(capacity, 1);
            let mut t = 0.0f64;
            let mut launches = 0usize;
            for &(sig, dur, gap, corr) in &stream {
                let begin = t + gap as f64 * Q;
                let end = begin + dur as f64 * Q;
                t = end;
                let (kind, stream_id) = match sig {
                    2 => (TraceKind::HostIdle, None),
                    3 => (TraceKind::KernelExec, Some(0)),
                    _ => (TraceKind::Call, None),
                };
                // corr only on launches and kernels, so links can resolve
                let corr = if sig == 0 || sig == 3 { corr } else { 0 };
                if ring.push(trace_rec(kind, names[sig], begin, end, stream_id, corr))
                    && sig == 0 && corr != 0
                {
                    launches += 1;
                }
            }
            let mut records = ring.drain();
            compact_records(&mut records, &CompactPolicy::with_high_water(1));
            let json = Export::new()
                .with_trace_rank(ExportRank {
                    rank: 3,
                    host: "dirac03".to_owned(),
                    epoch,
                    records,
                    ..ExportRank::default()
                })
                .to(Otlp)
                .expect("rank present");
            let stats = match validate_otlp(&json) {
                Ok(stats) => stats,
                Err(e) => return Err(TestCaseError::fail(format!("invalid OTLP: {e}"))),
            };
            prop_assert_eq!(stats.resources, 1);
            // every span comes from a drained record; a link needs a live
            // launch, so compaction can only shrink these
            prop_assert!(stats.spans as u64 <= ring.counters().captured);
            prop_assert!(stats.links <= launches);
        }
    }
}

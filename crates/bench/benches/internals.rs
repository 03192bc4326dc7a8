//! The figures of IPM's internals that no perfbench metric covers, timed
//! with `std::time::Instant`:
//!
//! * lazy (D2H-only) vs eager (every-call) KTT sweeping, the paper's
//!   §III-B choice — gated: eager ÷ lazy time at or above [`KTT_FLOOR`];
//! * interned vs string-keyed `wrap_call` throughput at 4 threads —
//!   gated: interned ÷ string-keyed at or above [`INTERNED_FLOOR`];
//! * contended 8-thread `PerfTable` updates plus one flushing read —
//!   reported;
//! * the MPI substrate's collective rendezvous per world size — reported.
//!
//! Each comparison interleaves its configurations batch by batch and keeps
//! each one's fastest batch, so machine-wide drift cancels. Every batch
//! checks that the configurations it compares booked the same work; a
//! ratio over unequal work fails the run. The bench reads no flag,
//! environment variable or file, and exits non-zero when a gated ratio
//! falls below its floor:
//!
//! ```text
//! cargo bench -p ipm-bench --bench internals
//! ```
//!
//! The per-layer cost of one recorded call (clock, site, wrapper, deposit,
//! trace push, compaction, merge) and the allocations per call are
//! perfbench's `--trace 1` ledger, not this bench.

use ipm_core::{EventSignature, Ipm, IpmConfig, IpmCuda, KttCheckPolicy, PerfTable};
use ipm_gpu_sim::{
    launch_kernel, CudaApi, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig, StreamId,
};
use ipm_interpose::{wrap_call, CallHandle, MonitorSink};
use ipm_mpi_sim::{ReduceOp, World};
use ipm_sim_core::{RunningStats, SimClock};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Eager KTT sweeping must cost at least this many times the lazy policy
/// on the launch-heavy workload (2.06–2.79× over eleven runs on a 2-vCPU
/// VM).
const KTT_FLOOR: f64 = 1.5;
/// The interned record path must carry at least this many times the
/// string-keyed path's calls per second at 4 threads (2.95–4.34× over
/// eleven runs on a 2-vCPU VM).
const INTERNED_FLOOR: f64 = 2.0;

/// Run `f` and return its result with its wall time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

// ---------------------------------------------------------------------------
// KTT sweep policy: a launch-heavy workload (many kernels, cheap queries in
// between, sporadic D2H transfers) under each policy.
// ---------------------------------------------------------------------------

const KTT_BURSTS: usize = 20;
const KTT_LAUNCHES: usize = 16;

/// One monitored run under `policy`; returns the `@CUDA_EXEC_*` count it
/// booked.
fn ktt_run(policy: KttCheckPolicy) -> u64 {
    let rt = Arc::new(GpuRuntime::single(
        GpuConfig::dirac_node().with_context_init(0.0),
    ));
    let ipm = Ipm::new(
        rt.clock().clone(),
        IpmConfig {
            ktt_policy: policy,
            ..IpmConfig::default()
        },
    );
    let cuda = IpmCuda::new(ipm.clone(), rt);
    let kernel = Kernel::timed("k", KernelCost::Fixed(5e-6));
    let dev = cuda.cuda_malloc(4096).unwrap();
    let mut out = vec![0u8; 4096];
    for burst in 0..KTT_BURSTS {
        for _ in 0..KTT_LAUNCHES {
            launch_kernel(&cuda, &kernel, LaunchConfig::simple(32u32, 128u32), &[]).unwrap();
        }
        // cheap calls in between: under EveryCall each one sweeps the KTT
        for _ in 0..16 {
            cuda.cuda_stream_query(StreamId::DEFAULT).ok();
        }
        if burst % 4 == 3 {
            cuda.cuda_memcpy_d2h(&mut out, dev).unwrap();
        }
    }
    cuda.cuda_thread_synchronize().unwrap();
    cuda.cuda_free(dev).unwrap();
    cuda.finalize();
    ipm.profile()
        .entries
        .iter()
        .filter(|e| e.name.starts_with("@CUDA_EXEC_"))
        .map(|e| e.stats.count)
        .sum()
}

/// Best per-run time of each policy, in µs; returns eager ÷ lazy.
fn ktt_policy() -> f64 {
    const RUNS: usize = 20;
    const ROUNDS: usize = 20;
    let mut best = [Duration::MAX; 2];
    for _ in 0..ROUNDS {
        let mut booked = [0u64; 2];
        for (i, policy) in [KttCheckPolicy::D2hOnly, KttCheckPolicy::EveryCall]
            .into_iter()
            .enumerate()
        {
            let (n, t) = timed(|| (0..RUNS).map(|_| ktt_run(policy)).sum::<u64>());
            booked[i] = n;
            best[i] = best[i].min(t / RUNS as u32);
        }
        let want = (RUNS * KTT_BURSTS * KTT_LAUNCHES) as u64;
        assert!(
            booked == [want, want],
            "lazy and eager KTT runs booked different work: {booked:?} @CUDA_EXEC_* \
             events, expected {want} each"
        );
    }
    let [lazy, eager] = best.map(|d| d.as_secs_f64() * 1e6);
    let ratio = eager / lazy;
    println!(
        "ktt sweep: lazy (D2H only) {lazy:.0} us/run, eager (every call) {eager:.0} us/run \
         => {ratio:.2}x (floor {KTT_FLOOR}x)"
    );
    ratio
}

// ---------------------------------------------------------------------------
// Interned vs string-keyed record path. Both run the same `wrap_call`
// anatomy and differ only in the sink behind it.
// ---------------------------------------------------------------------------

/// The record path before names were interned, kept as the baseline: the
/// name resolved and a fresh `Arc<str>` allocated per call, one
/// string-hashed map behind one global mutex, and every call timed for
/// self-accounting.
#[derive(Default)]
struct StringKeyedSink {
    table: Mutex<HashMap<(Arc<str>, u64), RunningStats>>,
    self_ns: AtomicU64,
}

impl MonitorSink for StringKeyedSink {
    fn update(&self, call: CallHandle, bytes: u64, duration: f64) {
        let t = Instant::now();
        let key = (Arc::from(call.name()), bytes);
        self.table
            .lock()
            .expect("a recorder thread panicked")
            .entry(key)
            .or_default()
            .record(duration);
        self.self_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

const THREADS: usize = 4;
const PER_THREAD: u64 = 200_000;

/// Hammer `sink` from [`THREADS`] threads, [`PER_THREAD`] recorded calls
/// each: a rotating mix of calls, half of them byte-attributed.
fn hammer(clock: &SimClock, sink: &dyn MonitorSink) -> Duration {
    timed(|| {
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mix = [
                        CallHandle::of("cudaLaunch"),
                        CallHandle::of("cudaMemcpy(H2D)"),
                        CallHandle::of("MPI_Send"),
                        CallHandle::of("cudaStreamQuery"),
                    ];
                    for i in 0..PER_THREAD {
                        let bytes = if i & 1 == 0 { 0 } else { 4096 };
                        wrap_call(clock, sink, mix[(i & 3) as usize], bytes, 0.0, || {
                            black_box(i)
                        });
                    }
                });
            }
        })
    })
    .1
}

/// Best calls/s of each sink; returns interned ÷ string-keyed.
fn record_path() -> f64 {
    const ROUNDS: usize = 7;
    let calls = THREADS as u64 * PER_THREAD;
    let mut best = [Duration::MAX; 2];
    for _ in 0..ROUNDS {
        // fresh sinks per batch, tracing off: the record path under test,
        // not the event ring
        let clock = SimClock::new();
        let keyed = StringKeyedSink::default();
        best[0] = best[0].min(hammer(&clock, &keyed));
        let ipm = Ipm::new(clock.clone(), IpmConfig::default().without_tracing());
        best[1] = best[1].min(hammer(&clock, &*ipm));

        let keyed_booked: u64 = keyed.table.lock().unwrap().values().map(|s| s.count).sum();
        let ipm_booked: u64 = ipm.profile().entries.iter().map(|e| e.stats.count).sum();
        assert!(
            keyed_booked == calls && ipm_booked == calls,
            "the sinks booked different work: string-keyed {keyed_booked}, interned \
             {ipm_booked}, expected {calls} calls each"
        );
    }
    let [keyed, interned] = best.map(|d| calls as f64 / d.as_secs_f64() / 1e6);
    let ratio = interned / keyed;
    println!(
        "record path, {THREADS} threads: string-keyed {keyed:.1} M calls/s, interned \
         {interned:.1} M calls/s => {ratio:.2}x (floor {INTERNED_FLOOR}x)"
    );
    ratio
}

// ---------------------------------------------------------------------------
// Reported only.
// ---------------------------------------------------------------------------

/// Eight threads update one `PerfTable`, each into its own delta cell,
/// then one read flushes the cells into the shared map.
fn contended_table() {
    const THREADS: u64 = 8;
    const UPDATES: usize = 5_000;
    const ROUNDS: usize = 20;
    let mut times: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let table = PerfTable::new();
            let (len, t) = timed(|| {
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let table = &table;
                        s.spawn(move || {
                            let sig = EventSignature::call("MPI_Send", t);
                            for _ in 0..UPDATES {
                                table.update(&sig, 1e-6);
                            }
                        });
                    }
                });
                table.len()
            });
            assert_eq!(len, THREADS as usize, "one signature per thread");
            t.as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    println!(
        "perf table, {THREADS} threads x {UPDATES} updates + one flushing read: \
         min {:.2} ms, median {:.2} ms",
        times[0],
        times[ROUNDS / 2]
    );
}

/// Barrier and allreduce rounds of the MPI substrate at several world
/// sizes: the cross-thread rendezvous that bounds large-rank experiments.
fn collectives() {
    const COLLECTIVES: u32 = 100;
    const ROUNDS: usize = 5;
    for ranks in [2usize, 8, 32] {
        let (mut barrier, mut allreduce) = (Duration::MAX, Duration::MAX);
        for _ in 0..ROUNDS {
            barrier = barrier.min(
                timed(|| {
                    World::run(ranks, |rank| {
                        for _ in 0..COLLECTIVES {
                            rank.barrier().unwrap();
                        }
                    })
                })
                .1,
            );
            let (sums, t) = timed(|| {
                World::run(ranks, |rank| {
                    let mut acc = 0.0;
                    for _ in 0..COLLECTIVES {
                        acc = rank.allreduce_f64(&[1.0], ReduceOp::Sum).unwrap()[0];
                    }
                    acc
                })
            });
            assert!(sums.iter().all(|&s| s == ranks as f64));
            allreduce = allreduce.min(t);
        }
        let per_round = |d: Duration| d.as_secs_f64() * 1e6 / COLLECTIVES as f64;
        println!(
            "collectives, {ranks} ranks: barrier {:.1} us/round ({:.2} us/rank), \
             allreduce {:.1} us/round ({:.2} us/rank)",
            per_round(barrier),
            per_round(barrier) / ranks as f64,
            per_round(allreduce),
            per_round(allreduce) / ranks as f64,
        );
    }
}

fn main() {
    let ktt = ktt_policy();
    let interned = record_path();
    contended_table();
    collectives();

    let mut failed = false;
    for (name, ratio, floor) in [
        ("eager / lazy KTT sweep", ktt, KTT_FLOOR),
        (
            "interned / string-keyed record path",
            interned,
            INTERNED_FLOOR,
        ),
    ] {
        if ratio < floor {
            eprintln!("FAIL: {name} is {ratio:.2}x, below its floor of {floor}x");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

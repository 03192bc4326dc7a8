//! The three workloads and one cluster run of each.
//!
//! Every workload runs 2 ranks on 2 nodes through `ipm_apps::run_cluster`
//! (one OS thread per rank, each a closed loop: its next call is issued
//! when the previous one returns). The app closure installs the probes of
//! [`crate::probe`] in place of the rank's API objects, runs the workload,
//! and hands back what the checks need.

use crate::probe::{Call, CudaProbe, FftProbe, IoProbe, MpiProbe, Probe, SpanLog, CALL_NAMES};
use ipm_apps::{
    run_amber, run_cluster, run_cluster_observed, AmberConfig, ClusterConfig, ClusterObserver,
    ClusterRun, RankCtx,
};
use ipm_core::{Ipm, IpmConfig};
use ipm_gpu_sim::{
    launch_kernel, CudaApi, CudaResult, Kernel, KernelArg, KernelCost, LaunchConfig,
};
use ipm_sim_core::{NoiseModel, SimRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const RANKS: usize = 2;
pub const NODES: usize = 2;

/// Storm iterations per rank and cluster run.
pub const STORM_ITERS: usize = 3_200;
/// `storm_traced` iterations per rank: fewer, since its post-mortem
/// exports every record the run emits.
pub const STORM_TRACED_ITERS: usize = 1_300;
/// One storm iteration: the CUDA runtime calls one rank issues in one `md`
/// step, as its probes count them (CUFFT's calls aside), with the costs
/// taken out: 2 symbol copies, 12 launch triplets, 2 get-last-errors, a
/// thread synchronize (the KTT sweep) and 2 synchronous D2H copies (the
/// host-idle probe).
const STORM_MIX: [(Unit, usize); 5] = [
    (Unit::Symbol, 2),
    (Unit::Launch, STORM_LAUNCHES_PER_ITER),
    (Unit::LastError, 2),
    (Unit::Sync, 1),
    (Unit::Copy, 2),
];
pub const STORM_LAUNCHES_PER_ITER: usize = 12;
/// Call units in one storm iteration.
const STORM_UNITS_PER_ITER: usize = 19;
/// Trace records one storm iteration can emit: 43 calls, 12 kernel
/// executions, and host-idle records of the two copies.
const STORM_RECORDS_PER_ITER: usize = 64;
/// The `md` run length: enough steps (about 65 records each) that the
/// default 65,536-record trace ring fills and drops.
pub const MD_STEPS: usize = 1_200;

/// `md` reaches CUFFT only through `ctx.fft`; each `cufftExecZ2Z` then
/// launches one radix kernel on the monitored CUDA runtime the library was
/// built over (a configure, two pointer arguments, a launch), which the
/// profile books but the probes never see.
pub const CALLS_PER_FFT_EXEC: [(Call, u64); 3] = [
    (Call::Configure, 1),
    (Call::SetupArgument, 2),
    (Call::Launch, 1),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Storm,
    StormTraced,
    Md,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "storm" => Some(Self::Storm),
            "storm_traced" => Some(Self::StormTraced),
            "md" => Some(Self::Md),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Storm => "storm",
            Self::StormTraced => "storm_traced",
            Self::Md => "md",
        }
    }

    pub fn is_storm(self) -> bool {
        self != Self::Md
    }

    /// The monitored configuration of this workload.
    pub fn ipm_config(self) -> IpmConfig {
        match self {
            // the paper's aggregate-only mode
            Self::Storm => IpmConfig::default().without_tracing(),
            // a ring that holds the whole run, so every push is a capture
            Self::StormTraced => IpmConfig {
                trace_capacity: (STORM_TRACED_ITERS * STORM_RECORDS_PER_ITER * 3 / 2)
                    .next_power_of_two(),
                ..IpmConfig::default()
            },
            // the default deployment: the ring fills and drops
            Self::Md => IpmConfig::default(),
        }
    }

    pub fn cluster(self, seed: u64, monitored: bool) -> ClusterConfig {
        let cfg = ClusterConfig::dirac(RANKS, NODES)
            .with_command(self.name())
            .with_noise(NoiseModel::QUIET, seed);
        if monitored {
            cfg.with_ipm(self.ipm_config())
        } else {
            cfg.unmonitored()
        }
    }

    /// Storm iterations or md steps per rank in a timed run.
    pub fn steps(self) -> usize {
        match self {
            Self::Storm => STORM_ITERS,
            Self::StormTraced => STORM_TRACED_ITERS,
            Self::Md => MD_STEPS,
        }
    }

    /// Monitored + bare run pairs per end-to-end iteration; only the last
    /// monitored run gets the post-mortem. `storm_traced` runs are short
    /// beside its post-mortem, so it pairs several.
    pub fn pairs_per_iteration(self) -> usize {
        match self {
            Self::StormTraced => 5,
            Self::Storm | Self::Md => 1,
        }
    }

    /// Storm iterations or md steps per rank in a set-up warm-up run.
    pub fn warmup_steps(self) -> usize {
        self.steps() / 10
    }

    /// Spans one rank records in a run of `steps` (sizing its log).
    fn spans_per_rank(self, steps: usize) -> usize {
        match self {
            Self::Storm | Self::StormTraced => steps * 48 + 16,
            // 12 launch triplets, 2 symbol copies, 2 D2H, a sync, 2
            // get-last-errors and rank 0's 2 FFTs; MPI and IO now and then
            Self::Md => steps * 48 + 64,
        }
    }
}

/// The generated inputs: per rank, the storm's call units, one seeded
/// shuffle of [`STORM_MIX`] per iteration.
pub struct Inputs {
    pub storm_units: Vec<Vec<Unit>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mix: Vec<Unit> = STORM_MIX
            .iter()
            .flat_map(|&(unit, n)| std::iter::repeat_n(unit, n))
            .collect();
        assert_eq!(mix.len(), STORM_UNITS_PER_ITER);
        let storm_units = (0..RANKS)
            .map(|rank| {
                let mut rng = SimRng::new(seed).fork(rank as u64);
                let mut units = Vec::with_capacity(STORM_ITERS * STORM_UNITS_PER_ITER);
                for _ in 0..STORM_ITERS {
                    let mut iter = mix.clone();
                    for i in (1..iter.len()).rev() {
                        iter.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    units.extend(iter);
                }
                units
            })
            .collect();
        Self { storm_units }
    }
}

/// The storm's call units: a symbol copy, a kernel launch triplet, a
/// get-last-error, a thread synchronize, a synchronous D2H.
#[derive(Clone, Copy)]
pub enum Unit {
    Symbol,
    Launch,
    LastError,
    Sync,
    Copy,
}

/// The storm loop on one rank: its units in order, then a last sweep.
fn storm(cuda: &dyn CudaApi, units: &[Unit]) -> CudaResult<()> {
    let dev = cuda.cuda_malloc(4096)?;
    let kernel = Kernel::timed("storm_kernel", KernelCost::Fixed(1e-7));
    let config = LaunchConfig::simple(1u32, 32u32);
    let params = [0u8; 64];
    let mut host = [0u8; 64];
    for unit in units {
        match unit {
            Unit::Symbol => cuda.cuda_memcpy_to_symbol("cStorm", &params)?,
            Unit::Launch => launch_kernel(cuda, &kernel, config, &[KernelArg::Ptr(dev)])?,
            Unit::LastError => {
                if let Some(e) = cuda.cuda_get_last_error() {
                    return Err(e);
                }
            }
            Unit::Sync => cuda.cuda_thread_synchronize()?,
            Unit::Copy => cuda.cuda_memcpy_d2h(&mut host, dev)?,
        }
    }
    // every kernel is booked before the harness finalizes
    cuda.cuda_thread_synchronize()?;
    cuda.cuda_free(dev)
}

/// The calls one storm rank issues in `iters` iterations, indexed like
/// [`CALL_NAMES`].
pub fn storm_expected_calls(iters: usize) -> Vec<u64> {
    let mut counts = vec![0u64; CALL_NAMES.len()];
    let n = iters as u64;
    let launches = n * STORM_LAUNCHES_PER_ITER as u64;
    for (call, count) in [
        (Call::CudaMalloc, 1),
        (Call::MemcpyToSymbol, 2 * n),
        (Call::Configure, launches),
        (Call::SetupArgument, launches),
        (Call::Launch, launches),
        (Call::GetLastError, 2 * n),
        (Call::ThreadSynchronize, n + 1),
        (Call::MemcpyD2h, 2 * n),
        (Call::CudaFree, 1),
    ] {
        counts[call as usize] = count;
    }
    counts
}

/// What one rank hands back from the app closure.
pub struct RankOut {
    /// Calls the rank issued through its probes.
    pub calls: Vec<u64>,
    /// The first API error, if any.
    pub error: Option<String>,
    /// `md`'s energy observable (0 for the storm).
    pub energy: f64,
    /// When the app returned (before the harness finalizes the rank).
    pub app_end: Instant,
    /// CPU time the rank thread ran during the app.
    pub cpu_ns: u64,
    pub ipm: Option<Arc<Ipm>>,
    /// The rank's spans (empty outside the span run).
    pub spans: SpanLog,
}

/// One cluster run and what the benchmark measured around it.
pub struct Run {
    pub run: ClusterRun<RankOut>,
    /// Launch until every rank returned and finalized.
    pub wall_s: f64,
    /// From the last rank's app return to the run's return: the harness's
    /// per-rank `IpmCuda::finalize` + `Ipm::profile`, and the joins.
    pub tail_s: f64,
    /// Wall time of each live-observer `sample()` sweep.
    pub sample_ns: Vec<u64>,
}

/// CPU time the calling thread has run, from the scheduler's per-thread
/// accounting; unlike wall time it excludes time spent waiting for a core.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("Linux per-thread schedstat")
}

impl Run {
    /// CPU seconds the rank threads ran their apps, summed over ranks.
    pub fn cpu_s(&self) -> f64 {
        self.run.outputs.iter().map(|o| o.cpu_ns).sum::<u64>() as f64 * 1e-9
    }

    pub fn ipms(&self) -> Vec<Arc<Ipm>> {
        self.run
            .outputs
            .iter()
            .filter_map(|o| o.ipm.clone())
            .collect()
    }
}

/// Run `workload` once on the cluster for `steps` storm iterations or md
/// steps per rank, monitored or bare, with the probes counting (and
/// recording spans when `spans`).
pub fn run(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    steps: usize,
    monitored: bool,
    spans: bool,
) -> Run {
    let config = workload.cluster(seed, monitored);
    let quiet = Quiet::default();
    let app = |ctx: &mut RankCtx| {
        let probe = Probe::new(spans);
        ctx.cuda = Arc::new(CudaProbe {
            inner: ctx.cuda.clone(),
            probe: probe.clone(),
        });
        ctx.mpi = Arc::new(MpiProbe {
            inner: ctx.mpi.clone(),
            probe: probe.clone(),
        });
        ctx.fft = Arc::new(FftProbe {
            inner: ctx.fft.clone(),
            probe: probe.clone(),
        });
        ctx.io = Arc::new(IoProbe {
            inner: ctx.io.clone(),
            probe: probe.clone(),
        });
        if spans {
            SpanLog::begin("rank.app", workload.spans_per_rank(steps));
        }
        let cpu_start = thread_cpu_ns();
        let (result, energy) = match workload {
            Workload::Storm | Workload::StormTraced => (
                storm(
                    ctx.cuda.as_ref(),
                    &inputs.storm_units[ctx.rank][..steps * STORM_UNITS_PER_ITER],
                ),
                0.0,
            ),
            Workload::Md => {
                let cfg = AmberConfig {
                    steps,
                    ..AmberConfig::jac_dhfr()
                };
                match run_amber(ctx, cfg) {
                    Ok(r) => (Ok(()), r.energy),
                    Err(e) => (Err(e), 0.0),
                }
            }
        };
        let cpu_ns = thread_cpu_ns() - cpu_start;
        quiet.app_returned();
        let spans = if spans {
            SpanLog::finish()
        } else {
            SpanLog::default()
        };
        RankOut {
            calls: probe.counts(),
            error: result.err().map(|e| e.to_string()),
            energy,
            app_end: Instant::now(),
            cpu_ns,
            ipm: ctx.ipm.clone(),
            spans,
        }
    };

    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let run = if workload == Workload::StormTraced && monitored {
        run_cluster_observed(&config, app, |obs| observe(obs, &quiet, &samples))
    } else {
        run_cluster(&config, app)
    };
    let end = Instant::now();
    let last_app = run
        .outputs
        .iter()
        .map(|o| o.app_end)
        .max()
        .expect("ranks returned");
    Run {
        wall_s: (end - start).as_secs_f64(),
        tail_s: end.saturating_duration_since(last_app).as_secs_f64(),
        sample_ns: samples.into_inner().expect("observer samples"),
        run,
    }
}

/// Keeps the live observer's sweeps away from the ranks' final profiles.
///
/// `PerfTable` readers flush every thread's delta cell into the shared
/// shards: a sweep that has drained a cell but not yet merged it hides
/// those deltas from a concurrent `Ipm::profile`, and the harness takes
/// each rank's final profile right after its app returns. Seen once in
/// some 800 `storm_traced` iterations, 719 `cudaLaunch` events short. So
/// once any rank's app has returned the observer takes no sweep until the
/// run is over, and the returning rank waits out a sweep in flight.
#[derive(Default)]
struct Quiet {
    /// Held by the observer for the length of a sweep.
    sweep: Mutex<()>,
    apps_returned: AtomicUsize,
}

impl Quiet {
    fn app_returned(&self) {
        self.apps_returned.fetch_add(1, Ordering::SeqCst);
        drop(self.sweep.lock().expect("observer sweep gate"));
    }

    fn ranks_finishing(&self) -> bool {
        self.apps_returned.load(Ordering::SeqCst) > 0
    }
}

/// The live observer: one `sample()` sweep per auto-tuned period, sleeping
/// in short slices so it notices the end of the run promptly; the sweep
/// after the ranks are done collects the final delta.
fn observe(obs: &ClusterObserver, quiet: &Quiet, samples: &Mutex<Vec<u64>>) {
    const SLICE: Duration = Duration::from_millis(1);
    loop {
        let done = obs.is_done();
        {
            let _sweep = quiet.sweep.lock().expect("observer sweep gate");
            if done || !quiet.ranks_finishing() {
                let t = Instant::now();
                if obs.sample().is_some() {
                    let ns = t.elapsed().as_nanos() as u64;
                    samples.lock().expect("observer samples").push(ns);
                }
            }
        }
        if done {
            return;
        }
        let period = obs.auto_period().unwrap_or(SLICE);
        let wake = Instant::now() + period;
        while !obs.is_done() {
            let now = Instant::now();
            if now >= wake {
                break;
            }
            std::thread::sleep((wake - now).min(SLICE));
        }
    }
}

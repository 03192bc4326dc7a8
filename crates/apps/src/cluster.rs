//! The GPU-cluster harness.
//!
//! Ties the substrates together the way a Dirac job does: `nranks` MPI
//! ranks (OS threads) spread block-wise over `nodes` nodes, one simulated
//! Tesla C2050 per node (shared by the node's ranks), CUBLAS/CUFFT library
//! contexts per rank, and — when monitoring is enabled — a per-rank IPM
//! context whose facades wrap every API the application touches.
//!
//! Applications receive a [`RankCtx`] and program against the `*Api`
//! traits only, so the same application code runs monitored and
//! unmonitored (the paper's no-relink deployment property).

use ipm_core::{
    ClusterSnapshot, Ipm, IpmBlas, IpmConfig, IpmCuda, IpmFft, IpmIo, IpmMpi, RankProfile, Snapshot,
};
use ipm_gpu_sim::{CudaApi, Device, GpuConfig, GpuRuntime};
use ipm_mpi_sim::{MpiApi, World, WorldConfig};
use ipm_numlib::{
    BlasApi, CublasContext, CufftConfig, CufftContext, DeviceLibConfig, FftApi, HostBlas,
    HostLibConfig,
};
use ipm_sim_core::fsio::{FsConfig, IoApi, RankFs, SimFs};
use ipm_sim_core::{NoiseModel, SimClock, SimRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cluster-run configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// MPI ranks.
    pub nranks: usize,
    /// Nodes; ranks are block-mapped, one GPU per node.
    pub nodes: usize,
    /// Per-node GPU configuration.
    pub gpu: GpuConfig,
    /// IPM configuration; `None` runs unmonitored (the Fig. 8 baseline).
    pub ipm: Option<IpmConfig>,
    /// Command string for the report metadata.
    pub command: String,
    /// Run-level noise (applied to each rank's finished wallclock).
    pub noise: NoiseModel,
    /// Seed for the run-noise draw.
    pub seed: u64,
}

impl ClusterConfig {
    /// A Dirac-like run: `nranks` over `nodes` nodes, monitored with IPM
    /// defaults, no noise.
    pub fn dirac(nranks: usize, nodes: usize) -> Self {
        assert!(
            nodes > 0 && nranks >= nodes,
            "need at least one rank per node"
        );
        Self {
            nranks,
            nodes,
            gpu: GpuConfig::dirac_node(),
            ipm: Some(IpmConfig::default()),
            command: "<app>".to_owned(),
            noise: NoiseModel::QUIET,
            seed: 0x5EED,
        }
    }

    /// Disable monitoring (baseline runs of the dilatation study).
    pub fn unmonitored(mut self) -> Self {
        self.ipm = None;
        self
    }

    /// Override the IPM configuration.
    pub fn with_ipm(mut self, cfg: IpmConfig) -> Self {
        self.ipm = Some(cfg);
        self
    }

    /// Set the command metadata.
    pub fn with_command(mut self, cmd: &str) -> Self {
        self.command = cmd.to_owned();
        self
    }

    /// Enable run-level noise with a seed.
    pub fn with_noise(mut self, noise: NoiseModel, seed: u64) -> Self {
        self.noise = noise;
        self.seed = seed;
        self
    }

    fn ranks_per_node(&self) -> usize {
        self.nranks.div_ceil(self.nodes)
    }
}

/// Everything one rank's application code gets to touch.
pub struct RankCtx {
    pub rank: usize,
    pub nranks: usize,
    pub node: usize,
    pub clock: SimClock,
    /// The (possibly monitored) CUDA runtime API.
    pub cuda: Arc<dyn CudaApi>,
    /// The (possibly monitored) MPI API.
    pub mpi: Arc<dyn MpiApi>,
    /// The (possibly monitored) CUBLAS API, built over `cuda`.
    pub blas: Arc<dyn BlasApi>,
    /// The (possibly monitored) CUFFT API, built over `cuda`.
    pub fft: Arc<dyn FftApi>,
    /// The host "MKL" BLAS (unaccelerated baseline).
    pub host_blas: HostBlas,
    /// The (possibly monitored) file-I/O API over the shared scratch FS.
    pub io: Arc<dyn IoApi>,
    /// Deterministic per-rank RNG for workload generation.
    pub rng: SimRng,
    /// The IPM context (None when unmonitored).
    pub ipm: Option<Arc<Ipm>>,
    cuda_mon: Option<Arc<IpmCuda>>,
}

impl RankCtx {
    /// Enter a named IPM region (no-op when unmonitored).
    pub fn region_enter(&self, name: &str) {
        if let Some(ipm) = &self.ipm {
            ipm.region_enter(name);
        }
    }

    /// Exit the current IPM region.
    pub fn region_exit(&self) {
        if let Some(ipm) = &self.ipm {
            ipm.region_exit();
        }
    }

    /// Model host-side computation for `dt` virtual seconds.
    pub fn compute(&self, dt: f64) {
        self.clock.advance(dt);
    }

    fn finalize(&self) -> Option<RankProfile> {
        if let Some(mon) = &self.cuda_mon {
            mon.finalize();
        }
        self.ipm.as_ref().map(|ipm| ipm.profile())
    }
}

/// Live view of a cluster run in flight, handed to the observer closure of
/// [`run_cluster_observed`]. Ranks register their IPM context as they come
/// up; the observer polls [`ClusterObserver::sample`] for cluster-wide
/// telemetry deltas while the application is still running.
pub struct ClusterObserver {
    ipms: Mutex<Vec<(usize, Arc<Ipm>)>>,
    done: AtomicBool,
    /// EWMA of the wall-clock cost of one [`ClusterObserver::sample`]
    /// sweep, seconds; `None` until the first sweep.
    sample_cost: Mutex<Option<f64>>,
}

/// Bounds for the auto-tuned polling period: even a free snapshot is not
/// polled faster than 1 ms, and even a very expensive one is still polled
/// every few seconds so the dashboard keeps moving.
const MIN_SAMPLE_PERIOD: Duration = Duration::from_millis(1);
const MAX_SAMPLE_PERIOD: Duration = Duration::from_secs(5);

/// Live-telemetry overhead budget: the fraction of wall-clock time the
/// observer may spend taking [`Ipm::snapshot`]s. The auto-tuned period is
/// the measured sweep cost divided by it, so expensive snapshots are
/// polled less often.
const SNAPSHOT_OVERHEAD_BUDGET: f64 = 0.01;

/// The polling period that keeps observer overhead within `budget`: the
/// measured per-sweep cost divided by the budget fraction, clamped to
/// [`MIN_SAMPLE_PERIOD`, `MAX_SAMPLE_PERIOD`]. A 50 µs sweep on a 1%
/// budget polls every 5 ms.
pub fn period_for_budget(sweep_cost: Duration, budget: f64) -> Duration {
    assert!(budget > 0.0, "snapshot budget must be positive");
    let period = sweep_cost.as_secs_f64() / budget;
    Duration::from_secs_f64(period).clamp(MIN_SAMPLE_PERIOD, MAX_SAMPLE_PERIOD)
}

impl ClusterObserver {
    fn new() -> Self {
        Self {
            ipms: Mutex::new(Vec::new()),
            done: AtomicBool::new(false),
            sample_cost: Mutex::new(None),
        }
    }

    fn register(&self, rank: usize, ipm: Arc<Ipm>) {
        self.ipms
            .lock()
            .expect("observer registry poisoned")
            .push((rank, ipm));
    }

    fn finish(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Ranks that have come up (registered their IPM context) so far.
    pub fn ranks_up(&self) -> usize {
        self.ipms.lock().expect("observer registry poisoned").len()
    }

    /// True once every rank has returned from the application.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Take one telemetry sample: a [`Snapshot`] delta per registered rank,
    /// merged into a cluster-wide view. Returns the merged snapshot plus
    /// the widest per-rank interval (virtual seconds) it covers — the
    /// denominator for busy-fraction displays. `None` until at least one
    /// rank is up, and always `None` for unmonitored runs.
    pub fn sample(&self) -> Option<(ClusterSnapshot, f64)> {
        let ipms: Vec<(usize, Arc<Ipm>)> = self
            .ipms
            .lock()
            .expect("observer registry poisoned")
            .clone();
        if ipms.is_empty() {
            return None;
        }
        let sweep_start = Instant::now();
        let snaps: Vec<Snapshot> = ipms.iter().map(|(_, ipm)| ipm.snapshot()).collect();
        self.record_sweep_cost(sweep_start.elapsed());
        let interval = snaps.iter().map(|s| s.interval).fold(0.0, f64::max);
        Some((ClusterSnapshot::merge(&snaps), interval))
    }

    /// Fold one measured sweep cost into the EWMA (α = 1/4: smooth enough
    /// to ride out scheduler noise, fast enough to track load changes
    /// within a handful of samples).
    fn record_sweep_cost(&self, cost: Duration) {
        let mut ewma = self.sample_cost.lock().expect("sample cost poisoned");
        let cost = cost.as_secs_f64();
        *ewma = Some(match *ewma {
            None => cost,
            Some(prev) => prev + (cost - prev) * 0.25,
        });
    }

    /// The auto-tuned polling period (ROADMAP: sampling-rate auto-tuning):
    /// the EWMA per-sweep cost measured by [`ClusterObserver::sample`]
    /// against a budget of 1% of wall-clock time, clamped to sane bounds.
    /// `None` until the first sweep has been measured — callers fall back
    /// to a fixed warm-up period.
    pub fn auto_period(&self) -> Option<Duration> {
        let cost = (*self.sample_cost.lock().expect("sample cost poisoned"))?;
        Some(period_for_budget(
            Duration::from_secs_f64(cost),
            SNAPSHOT_OVERHEAD_BUDGET,
        ))
    }
}

/// The outcome of a cluster run.
pub struct ClusterRun<R> {
    /// Per-rank application return values (rank order).
    pub outputs: Vec<R>,
    /// Per-rank wallclock, after run-level noise (rank order).
    pub wallclocks: Vec<f64>,
    /// Per-rank IPM profiles (empty when unmonitored).
    pub profiles: Vec<RankProfile>,
}

impl<R> ClusterRun<R> {
    /// Max wallclock over ranks — the job's runtime.
    pub fn runtime(&self) -> f64 {
        self.wallclocks.iter().copied().fold(0.0, f64::max)
    }
}

/// The API facades plus monitor handles one rank's stack is built from,
/// monitored or bare depending on [`ClusterConfig::ipm`].
type RankStack = (
    Arc<dyn CudaApi>,
    Arc<dyn MpiApi>,
    Option<Arc<Ipm>>,
    Option<Arc<IpmCuda>>,
);

/// Run `app` on a simulated cluster. One OS thread per rank.
pub fn run_cluster<R: Send>(
    config: &ClusterConfig,
    app: impl Fn(&mut RankCtx) -> R + Send + Sync,
) -> ClusterRun<R> {
    run_cluster_observed(config, app, |_| {})
}

/// Like [`run_cluster`], but with a live observer: `observe` runs on its
/// own thread concurrently with the ranks and receives a
/// [`ClusterObserver`] for periodic [`ClusterObserver::sample`] calls — the
/// cluster-wide live-telemetry view. The observer should poll
/// [`ClusterObserver::is_done`] and return promptly once it flips.
pub fn run_cluster_observed<R: Send>(
    config: &ClusterConfig,
    app: impl Fn(&mut RankCtx) -> R + Send + Sync,
    observe: impl FnOnce(&ClusterObserver) + Send,
) -> ClusterRun<R> {
    let observer = ClusterObserver::new();
    let rpn = config.ranks_per_node();
    let devices: Vec<Arc<Device>> = (0..config.nodes)
        .map(|node| {
            let d = Device::new(config.gpu.clone());
            // ranks are block-mapped; the last node may hold fewer
            let lo = node * rpn;
            let hi = ((node + 1) * rpn).min(config.nranks);
            d.set_expected_contexts(hi.saturating_sub(lo));
            d
        })
        .collect();
    let world_cfg = WorldConfig::dirac(config.nranks, rpn);
    let world = World::new(world_cfg);
    let scratch_fs = SimFs::new(FsConfig::default());

    let results: Vec<(R, f64, Option<RankProfile>)> = std::thread::scope(|s| {
        let obs = &observer;
        let watcher = s.spawn(move || observe(obs));
        let handles: Vec<_> = (0..config.nranks)
            .map(|r| {
                let world = world.clone();
                let scratch_fs = scratch_fs.clone();
                let device = devices[(r / rpn).min(config.nodes - 1)].clone();
                let app = &app;
                let config = &config;
                let obs = &observer;
                s.spawn(move || {
                    let clock = SimClock::new();
                    let rank = world.rank_with_clock(r, clock.clone());
                    let node = rank.node();
                    let gpu = Arc::new(GpuRuntime::new(device, clock.clone()));
                    let mut rng = SimRng::new(config.seed).fork(r as u64);

                    let (cuda, mpi, ipm, cuda_mon): RankStack = match config.ipm {
                        Some(ipm_cfg) => {
                            let ipm = Ipm::new(clock.clone(), ipm_cfg);
                            ipm.set_metadata(
                                r,
                                config.nranks,
                                &format!("dirac{node:02}"),
                                &config.command,
                            );
                            let mon = Arc::new(IpmCuda::new(ipm.clone(), gpu));
                            let mpi: Arc<dyn MpiApi> = Arc::new(IpmMpi::new(ipm.clone(), rank));
                            (mon.clone() as Arc<dyn CudaApi>, mpi, Some(ipm), Some(mon))
                        }
                        None => (gpu as Arc<dyn CudaApi>, Arc::new(rank), None, None),
                    };
                    if let Some(ipm) = &ipm {
                        obs.register(r, ipm.clone());
                    }

                    let blas_inner = CublasContext::init(cuda.clone(), DeviceLibConfig::default());
                    let fft_inner =
                        Arc::new(CufftContext::new(cuda.clone(), CufftConfig::default()));
                    let (blas, fft): (Arc<dyn BlasApi>, Arc<dyn FftApi>) = match &ipm {
                        Some(ipm) => (
                            Arc::new(IpmBlas::new(ipm.clone(), blas_inner)),
                            Arc::new(IpmFft::new(ipm.clone(), fft_inner)),
                        ),
                        None => (Arc::new(blas_inner), fft_inner),
                    };

                    let rank_fs = RankFs {
                        fs: scratch_fs,
                        clock: clock.clone(),
                    };
                    let io: Arc<dyn IoApi> = match &ipm {
                        Some(ipm) => Arc::new(IpmIo::new(ipm.clone(), rank_fs)),
                        None => Arc::new(rank_fs),
                    };
                    let mut ctx = RankCtx {
                        rank: r,
                        nranks: config.nranks,
                        node,
                        clock: clock.clone(),
                        cuda,
                        mpi,
                        blas,
                        fft,
                        host_blas: HostBlas::new(clock.clone(), HostLibConfig::default()),
                        io,
                        rng: rng.fork(0xA99),
                        ipm,
                        cuda_mon,
                    };
                    let out = app(&mut ctx);
                    let profile = ctx.finalize();
                    let wall = clock.now() * config.noise.run_multiplier(&mut rng);
                    (out, wall, profile)
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect();
        observer.finish();
        watcher.join().expect("observer thread panicked");
        results
    });

    let mut outputs = Vec::with_capacity(results.len());
    let mut wallclocks = Vec::with_capacity(results.len());
    let mut profiles = Vec::new();
    for (out, wall, profile) in results {
        outputs.push(out);
        wallclocks.push(wall);
        if let Some(p) = profile {
            profiles.push(p);
        }
    }
    ClusterRun {
        outputs,
        wallclocks,
        profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_gpu_sim::{launch_kernel, Kernel, KernelArg, KernelCost, LaunchConfig};
    use ipm_mpi_sim::ReduceOp;

    #[test]
    fn monitored_run_produces_profiles() {
        let cfg = ClusterConfig::dirac(4, 2).with_command("test-app");
        let run = run_cluster(&cfg, |ctx| {
            let d = ctx.cuda.cuda_malloc(1024).unwrap();
            let k = Kernel::timed("work", KernelCost::Fixed(0.1));
            launch_kernel(
                ctx.cuda.as_ref(),
                &k,
                LaunchConfig::simple(8u32, 32u32),
                &[KernelArg::Ptr(d)],
            )
            .unwrap();
            let mut out = vec![0u8; 1024];
            ctx.cuda.cuda_memcpy_d2h(&mut out, d).unwrap();
            ctx.mpi.mpi_allreduce_f64(&[1.0], ReduceOp::Sum).unwrap()[0]
        });
        assert_eq!(run.outputs, vec![4.0; 4]);
        assert_eq!(run.profiles.len(), 4);
        for p in &run.profiles {
            assert_eq!(p.count_of("cudaLaunch"), 1);
            assert_eq!(p.count_of("MPI_Allreduce"), 1);
            assert!(p.time_of("@CUDA_EXEC_STRM00") > 0.09);
            assert_eq!(p.command, "test-app");
        }
        assert!(run.runtime() > 0.1);
    }

    #[test]
    fn unmonitored_run_has_no_profiles_and_is_faster() {
        let app = |ctx: &mut RankCtx| {
            for _ in 0..100 {
                let d = ctx.cuda.cuda_malloc(64).unwrap();
                ctx.cuda.cuda_free(d).unwrap();
            }
        };
        let mon = run_cluster(&ClusterConfig::dirac(2, 1), app);
        let bare = run_cluster(&ClusterConfig::dirac(2, 1).unmonitored(), app);
        assert!(bare.profiles.is_empty());
        assert_eq!(mon.profiles.len(), 2);
        // monitoring dilates the runtime slightly, never shrinks it
        assert!(mon.runtime() >= bare.runtime());
        let dilatation = (mon.runtime() - bare.runtime()) / bare.runtime();
        assert!(dilatation < 0.05, "dilatation {dilatation}");
    }

    #[test]
    fn ranks_on_one_node_share_the_gpu() {
        // two ranks, one node: device kernels serialize across contexts
        let app = |ctx: &mut RankCtx| {
            let k = Kernel::timed("spin", KernelCost::Fixed(0.5));
            launch_kernel(ctx.cuda.as_ref(), &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
            ctx.cuda.cuda_thread_synchronize().unwrap();
            ctx.clock.now()
        };
        let shared = run_cluster(&ClusterConfig::dirac(2, 1).unmonitored(), app);
        let exclusive = run_cluster(&ClusterConfig::dirac(2, 2).unmonitored(), app);
        // with a shared GPU at least one rank waits for the other's kernel
        assert!(
            shared.runtime() >= exclusive.runtime() + 0.4,
            "shared {} vs exclusive {}",
            shared.runtime(),
            exclusive.runtime()
        );
    }

    #[test]
    fn observed_run_samples_live_telemetry() {
        use ipm_core::EventFamily;
        let cfg = ClusterConfig::dirac(2, 1).with_command("observed");
        let samples = Mutex::new(Vec::new());
        let run = run_cluster_observed(
            &cfg,
            |ctx| {
                for _ in 0..50 {
                    let k = Kernel::timed("work", KernelCost::Fixed(0.01));
                    launch_kernel(
                        ctx.cuda.as_ref(),
                        &k,
                        LaunchConfig::simple(8u32, 32u32),
                        &[],
                    )
                    .unwrap();
                    ctx.cuda.cuda_thread_synchronize().unwrap();
                    ctx.mpi.mpi_allreduce_f64(&[1.0], ReduceOp::Sum).unwrap();
                }
            },
            |obs| {
                while !obs.is_done() {
                    if let Some(sample) = obs.sample() {
                        samples.lock().unwrap().push(sample);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                // one last delta: everything booked since the final poll
                if let Some(sample) = obs.sample() {
                    samples.lock().unwrap().push(sample);
                }
            },
        );
        assert_eq!(run.profiles.len(), 2);
        let samples = samples.into_inner().unwrap();
        assert!(!samples.is_empty(), "observer never sampled");
        // deltas are exhaustive: summed across samples they recover the
        // cumulative per-family totals of the final profiles
        let sampled_gpu: f64 = samples
            .iter()
            .filter_map(|(snap, _)| snap.family(EventFamily::GpuExec))
            .map(|spread| spread.total)
            .sum();
        let booked_gpu: f64 = run
            .profiles
            .iter()
            .map(|p| p.family_time(EventFamily::GpuExec))
            .sum();
        assert!(
            booked_gpu > 0.9,
            "workload booked {booked_gpu} s of GPU exec"
        );
        assert!(
            (sampled_gpu - booked_gpu).abs() < 1e-9,
            "sampled {sampled_gpu} vs booked {booked_gpu}"
        );
        // sequence numbers advance monotonically
        let seqs: Vec<u64> = samples.iter().map(|(s, _)| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] <= w[1]), "{seqs:?}");
    }

    #[test]
    fn noise_spreads_wallclocks() {
        let cfg = ClusterConfig::dirac(4, 4).unmonitored().with_noise(
            NoiseModel {
                run_sigma: 0.01,
                event_jitter: 0.0,
            },
            42,
        );
        let run = run_cluster(&cfg, |ctx| ctx.compute(100.0));
        let min = run.wallclocks.iter().copied().fold(f64::INFINITY, f64::min);
        let max = run.runtime();
        assert!(max > min, "noise produced identical wallclocks");
        assert!((max - 100.0).abs() < 10.0);
    }

    #[test]
    fn regions_work_through_the_ctx() {
        let run = run_cluster(&ClusterConfig::dirac(1, 1), |ctx| {
            ctx.region_enter("phase1");
            ctx.mpi.mpi_barrier().unwrap();
            ctx.region_exit();
        });
        let p = &run.profiles[0];
        assert!(p.regions.contains(&"phase1".to_owned()));
    }

    #[test]
    fn blas_and_fft_are_wired_through_monitoring() {
        let run = run_cluster(&ClusterConfig::dirac(1, 1), |ctx| {
            let d = ctx.blas.cublas_alloc(16, 8).unwrap();
            ctx.blas
                .cublas_dgemm(
                    ipm_numlib::Transpose::N,
                    ipm_numlib::Transpose::N,
                    4,
                    4,
                    4,
                    1.0,
                    d,
                    4,
                    d,
                    4,
                    0.0,
                    d,
                    4,
                )
                .unwrap();
            let plan = ctx
                .fft
                .cufft_plan_1d(64, ipm_numlib::FftType::Z2Z, 1)
                .unwrap();
            let dd = ctx.cuda.cuda_malloc(64 * 16).unwrap();
            ctx.fft
                .cufft_exec_z2z(plan, dd, dd, ipm_numlib::FftDirection::Forward)
                .unwrap();
        });
        let p = &run.profiles[0];
        assert_eq!(p.count_of("cublasDgemm"), 1);
        assert_eq!(p.count_of("cufftExecZ2Z"), 1);
        // library-internal launches intercepted too
        assert!(p.count_of("cudaLaunch") >= 2);
    }

    #[test]
    fn period_for_budget_scales_and_clamps() {
        use std::time::Duration;
        // 50 µs sweep on a 1% budget → poll every 5 ms
        assert_eq!(
            period_for_budget(Duration::from_micros(50), 0.01),
            Duration::from_millis(5)
        );
        // a free sweep still waits the minimum period
        assert_eq!(
            period_for_budget(Duration::ZERO, 0.01),
            Duration::from_millis(1)
        );
        // a pathological sweep is capped so the dashboard keeps moving
        assert_eq!(
            period_for_budget(Duration::from_secs(10), 0.01),
            Duration::from_secs(5)
        );
    }

    #[test]
    fn observer_auto_tunes_its_polling_period() {
        let cfg = ClusterConfig::dirac(2, 1).with_command("tuned");
        let periods = Mutex::new(Vec::new());
        run_cluster_observed(
            &cfg,
            |ctx| {
                for _ in 0..20 {
                    let k = Kernel::timed("work", KernelCost::Fixed(0.01));
                    launch_kernel(
                        ctx.cuda.as_ref(),
                        &k,
                        LaunchConfig::simple(8u32, 32u32),
                        &[],
                    )
                    .unwrap();
                    ctx.cuda.cuda_thread_synchronize().unwrap();
                }
            },
            |obs| {
                // before any sweep there is no measurement to tune from
                assert!(obs.auto_period().is_none());
                while !obs.is_done() {
                    obs.sample();
                    // warm-up fallback until the first sweep lands
                    let period = obs
                        .auto_period()
                        .unwrap_or(std::time::Duration::from_millis(1));
                    periods.lock().unwrap().push(period);
                    std::thread::sleep(period);
                }
            },
        );
        let periods = periods.into_inner().unwrap();
        assert!(!periods.is_empty(), "observer never polled");
        // once a sweep was measured every derived period respects the bounds
        assert!(periods
            .iter()
            .all(|p| (MIN_SAMPLE_PERIOD..=MAX_SAMPLE_PERIOD).contains(p)));
    }
}

//! Cross-crate integration tests: the full monitored stack end to end.
//!
//! Each test exercises several workspace crates together the way a user
//! of the released tool would: application → (IPM) → substrates →
//! reports → `ipm_parse` round trips.

use ipm_repro::apps::{
    run_amber, run_cluster, run_hpl, run_square, AmberConfig, ClusterConfig, HplConfig,
    SquareConfig,
};
use ipm_repro::gpu::{GpuConfig, GpuRuntime};
use ipm_repro::ipm::parse::export_from_xml;
use ipm_repro::ipm::{Banner, ClusterReport, CubeXml, Export, Html, Ipm, IpmConfig, IpmCuda, Xml};
use std::sync::Arc;

/// The full Fig. 3→Fig. 6 pipeline: app → monitor → banner → XML →
/// ipm_parse → identical banner.
#[test]
fn square_profile_survives_the_xml_roundtrip() {
    let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
    let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
    ipm.set_metadata(0, 1, "dirac15", "./cuda.ipm");
    let cuda = IpmCuda::new(ipm.clone(), rt);
    run_square(&cuda, SquareConfig::default()).expect("square");
    cuda.finalize();

    let profile = ipm.profile();
    let direct_banner = Export::from(&ipm).max_rows(0).to(Banner).expect("profile");
    let xml = Export::from_profile(profile.clone())
        .to(Xml)
        .expect("profile");
    let parsed = export_from_xml(&[xml]).expect("parse own XML");
    assert_eq!(parsed.source().profiles(), [profile]);
    let reparsed_banner = parsed.to(Banner).expect("banner from XML");
    assert_eq!(direct_banner, reparsed_banner);
}

/// Monitoring must not change application *results* — only add overhead.
#[test]
fn monitoring_is_semantically_transparent() {
    let monitored = {
        let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        let cuda = IpmCuda::new(ipm, rt);
        run_square(&cuda, SquareConfig::tiny()).expect("square")
    };
    let bare = {
        let rt = GpuRuntime::single(GpuConfig::dirac_node());
        run_square(&rt, SquareConfig::tiny()).expect("square")
    };
    assert_eq!(monitored, bare);
}

/// A multi-rank job: profiles aggregate, parse, and render across every
/// output format.
#[test]
fn cluster_run_feeds_every_report_format() {
    let nranks = 4;
    let cfg = ClusterConfig::dirac(nranks, 2).with_command("xhpl.cuda");
    let run = run_cluster(&cfg, |ctx| run_hpl(ctx, HplConfig::tiny()).expect("hpl"));
    assert_eq!(run.profiles.len(), nranks);

    // per-rank XML logs, like the files IPM writes at job exit
    let xmls: Vec<String> = run
        .profiles
        .iter()
        .map(|p| Export::from_profile(p.clone()).to(Xml).expect("profile"))
        .collect();
    let banner = export_from_xml(&xmls)
        .expect("parse XML logs")
        .nodes(2)
        .to(Banner)
        .expect("cluster banner");
    assert!(banner.contains("mpi_tasks : 4 on 2 nodes"));
    assert!(banner.contains("dgemm_nn_e_kernel") || banner.contains("@CUDA_EXEC_STRM"));

    let export = Export::from_profiles(run.profiles.clone()).nodes(2);
    let html = export.to(Html).expect("ranks present");
    assert!(html.contains("dgemm_nn_e_kernel"));

    let cube = ipm_repro::ipm::build_cube(&ClusterReport::from_profiles(run.profiles, 2));
    assert!(cube.node_count() > 5);
    let cube_xml = export.to(CubeXml).expect("ranks present");
    assert!(cube_xml.contains("<cube"));
}

/// Two ranks sharing one GPU serialize their kernels; the profiles show
/// the contention as longer device times than the exclusive setup.
#[test]
fn shared_gpu_contention_is_visible_in_profiles() {
    let run_with = |nodes: usize| {
        let cfg = ClusterConfig::dirac(2, nodes).with_command("md");
        let mut amber = AmberConfig::tiny();
        amber.steps = 40;
        let run = run_cluster(&cfg, |ctx| run_amber(ctx, amber).expect("md"));
        run.wallclocks.iter().copied().fold(0.0f64, f64::max)
    };
    let exclusive = run_with(2);
    let shared = run_with(1);
    assert!(
        shared > exclusive * 1.05,
        "no visible contention: shared {shared} vs exclusive {exclusive}"
    );
}

/// Trace compaction is observability-internal: an MD cluster run with the
/// compactor off and one with a tight high-water mark must produce identical
/// profiles — same wallclocks, same regions, same `@CUDA_EXEC_STRMxx` and
/// `@CUDA_HOST_IDLE` totals, entry-for-entry equal perf tables — while the
/// compacted run's widened trace ledger still accounts for exactly the
/// events the uncompacted run captured.
#[test]
fn trace_compaction_never_perturbs_the_profile() {
    let run_with = |ipm_cfg: IpmConfig| {
        let cfg = ClusterConfig::dirac(2, 2)
            .with_command("md")
            .with_ipm(ipm_cfg);
        let mut amber = AmberConfig::tiny();
        amber.steps = 24;
        run_cluster(&cfg, |ctx| {
            let out = run_amber(ctx, amber).expect("md");
            // a status-poll burst: the adjacent-duplicate record shape
            // compaction exists to collapse in real traces
            for _ in 0..200 {
                ctx.cuda.cuda_get_device_count().expect("poll");
            }
            out
        })
    };
    let off = run_with(IpmConfig::default());
    let on = run_with(IpmConfig::default().with_trace_compaction(32));

    assert_eq!(off.wallclocks, on.wallclocks, "compaction perturbed timing");
    assert_eq!(off.profiles.len(), on.profiles.len());
    let mut compacted = 0;
    for (a, b) in off.profiles.iter().zip(&on.profiles) {
        assert_eq!(a.wallclock, b.wallclock);
        assert_eq!(a.regions, b.regions);
        // entry-for-entry equal perf tables, compared as sets of entries
        // (sort first)
        let sorted = |p: &ipm_repro::ipm::RankProfile| {
            let mut e = p.entries.clone();
            e.sort_by(|x, y| {
                (&x.name, &x.detail, x.bytes, x.region)
                    .cmp(&(&y.name, &y.detail, y.bytes, y.region))
            });
            e
        };
        assert_eq!(sorted(a), sorted(b), "perf table must be untouched");
        // the headline report quantities, spelled out
        assert!(a.time_of("@CUDA_EXEC_STRM00") > 0.0);
        assert_eq!(
            a.time_of("@CUDA_EXEC_STRM00"),
            b.time_of("@CUDA_EXEC_STRM00")
        );
        assert_eq!(a.time_of("@CUDA_HOST_IDLE"), b.time_of("@CUDA_HOST_IDLE"));
        // both runs saw the same event stream; compaction only reshapes it
        assert_eq!(a.monitor.trace_compacted, 0);
        assert_eq!(
            a.monitor.trace_captured + a.monitor.trace_dropped,
            b.monitor.trace_captured + b.monitor.trace_dropped + b.monitor.trace_compacted,
        );
        compacted += b.monitor.trace_compacted;
    }
    assert!(compacted > 0, "tight cap never engaged the compactor");
}

/// The same application binary code runs monitored and unmonitored — the
/// paper's deployment property — and the monitored run self-reports an
/// overhead below 1%.
#[test]
fn dilatation_stays_below_one_percent() {
    let app = |ctx: &mut ipm_repro::apps::RankCtx| run_hpl(ctx, HplConfig::tiny()).expect("hpl");
    let monitored = run_cluster(&ClusterConfig::dirac(2, 2), app);
    let bare = run_cluster(&ClusterConfig::dirac(2, 2).unmonitored(), app);
    let mon_t = monitored.wallclocks.iter().copied().fold(0.0f64, f64::max);
    let bare_t = bare.wallclocks.iter().copied().fold(0.0f64, f64::max);
    let dil = (mon_t - bare_t) / bare_t;
    assert!(dil >= 0.0, "monitored run faster than bare: {dil}");
    assert!(dil < 0.01, "dilatation {dil}");
    // and the outputs agree
    assert_eq!(monitored.outputs[0].gpu_flops, bare.outputs[0].gpu_flops);
}

/// Driver-API usage (cu*) hits the same device state as the runtime API.
#[test]
fn driver_and_runtime_apis_share_one_device() {
    use ipm_repro::gpu::DriverContext;
    let rt = Arc::new(GpuRuntime::single(
        GpuConfig::dirac_node().with_context_init(0.0),
    ));
    let drv = DriverContext::new(rt.clone());
    drv.cu_init(0).expect("cuInit");
    let p = drv.cu_mem_alloc(64).expect("cuMemAlloc");
    drv.cu_memcpy_htod(p, &[5u8; 64]).expect("cuMemcpyHtoD");
    // read back through the *runtime* API
    let mut out = [0u8; 64];
    rt.memcpy_d2h(&mut out, p).expect("cudaMemcpy");
    assert_eq!(out, [5u8; 64]);
    assert_eq!(rt.device().memory_used(), 64);
}

/// The blocking-set microbenchmark, the spec registry, and the monitored
/// facade all agree on which calls block implicitly.
#[test]
fn blocking_classification_is_consistent_across_layers() {
    use ipm_repro::interpose::{BlockingClass, Registry};
    let probes = ipm_repro::ipm::discover_blocking_set();
    let registry = Registry::global();
    let memcpy_spec = registry.spec(registry.id("cudaMemcpy").expect("cudaMemcpy"));
    assert_eq!(memcpy_spec.blocking, BlockingClass::ImplicitSync);
    let memset_spec = registry.spec(registry.id("cudaMemset").expect("cudaMemset"));
    assert_ne!(memset_spec.blocking, BlockingClass::ImplicitSync);
    assert!(probes
        .iter()
        .any(|p| p.name == "cudaMemcpy(D2H)" && p.blocks));
    assert!(probes.iter().any(|p| p.name == "cudaMemset" && !p.blocks));
}

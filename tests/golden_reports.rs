//! Golden-file tests for the per-rank reports of real application runs.
//!
//! Four single-rank runs — md, hpl, paratec (thunking CUBLAS) and md under
//! host-timing-only monitoring — each render their banner, region report
//! (both with every row) and XML log, pinned byte for byte against
//! `tests/golden/report_<run>.*`. Together they cover kernel launches and
//! `@` pseudo entries (exec, host idle), byte-attributed MPI and CUBLAS
//! calls, regions, and the non-KTT configuration.
//!
//! The monitor's own wall-clock cost (`self_wall_ns`) is the only
//! wall-clock value in these reports and is zeroed before rendering; every
//! other figure is virtual time, so the renderings are stable across
//! processes and build profiles. Regenerate after an intentional report
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use ipm_repro::apps::{
    run_amber, run_cluster, run_hpl, run_paratec, AmberConfig, BlasBackend, ClusterConfig,
    HplConfig, ParatecConfig, RankCtx,
};
use ipm_repro::ipm::{Banner, Export, IpmConfig, RankProfile, RegionReport, Xml};

#[path = "support/golden.rs"]
mod golden;
use golden::check_golden;

/// Run `app` monitored on one rank of a one-node Dirac cluster and return
/// its profile with the wall-clock self-cost zeroed.
fn profiled_run<R: Send>(
    cfg: IpmConfig,
    command: &str,
    app: impl Fn(&mut RankCtx) -> R + Send + Sync,
) -> RankProfile {
    let cluster = ClusterConfig::dirac(1, 1)
        .with_ipm(cfg)
        .with_command(command);
    let run = run_cluster(&cluster, app);
    let mut profile = run.profiles.into_iter().next().expect("one rank");
    profile.monitor.self_wall_ns = 0;
    profile
}

/// Banner, region report and XML for `p`, each against its golden.
fn check_reports(run: &str, p: &RankProfile) {
    let export = Export::from_profile(p.clone()).max_rows(0);
    check_golden(
        &format!("report_{run}.banner.txt"),
        &export.to(Banner).expect("banner"),
    );
    check_golden(
        &format!("report_{run}.region.txt"),
        &export.to(RegionReport).expect("region report"),
    );
    check_golden(&format!("report_{run}.xml"), &export.to(Xml).expect("xml"));
}

/// The MD (PMEMD-like) workload: kernels, transfers, host idle, regions.
#[test]
fn md_reports_match_golden() {
    let p = profiled_run(IpmConfig::default(), "pmemd.cuda", |ctx| {
        run_amber(ctx, AmberConfig::tiny()).expect("md")
    });
    assert!(
        p.entries.iter().any(|e| e.name == "cudaLaunch"),
        "md run recorded no launches — golden is vacuous"
    );
    assert!(
        p.entries.iter().any(|e| e.name.starts_with('@')),
        "md run produced no pseudo entries (exec/idle) — pseudo path untested"
    );
    check_reports("md", &p);
}

/// The Linpack workload: raw kernel launches, event-API synchronization,
/// byte-attributed MPI and async copies.
#[test]
fn hpl_reports_match_golden() {
    let p = profiled_run(IpmConfig::default(), "xhpl.cuda", |ctx| {
        run_hpl(ctx, HplConfig::tiny()).expect("hpl")
    });
    assert!(
        p.entries
            .iter()
            .any(|e| e.name.starts_with("MPI_") && e.bytes > 0),
        "hpl run recorded no byte-attributed MPI calls"
    );
    check_reports("hpl", &p);
}

/// The PARATEC workload with the thunking-CUBLAS backend: every zgemm
/// routes through the numlib facade with byte attribution.
#[test]
fn paratec_reports_match_golden() {
    let p = profiled_run(IpmConfig::default(), "paratec.mpi", |ctx| {
        run_paratec(ctx, ParatecConfig::tiny(BlasBackend::CublasThunking)).expect("paratec")
    });
    assert!(
        p.entries
            .iter()
            .any(|e| e.name.starts_with("cublas") && e.bytes > 0),
        "paratec run recorded no byte-attributed cublas calls"
    );
    check_reports("paratec", &p);
}

/// Host-timing-only configuration: no KTT booking, regions still present.
#[test]
fn host_only_md_reports_match_golden() {
    let p = profiled_run(IpmConfig::host_timing_only(), "pmemd.cuda", |ctx| {
        run_amber(ctx, AmberConfig::tiny()).expect("md")
    });
    check_reports("md_host_only", &p);
}

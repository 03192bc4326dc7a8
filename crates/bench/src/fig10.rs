//! Fig. 10 — the scaling of PARATEC.
//!
//! 32 Dirac nodes, 32/64/128/256 MPI processes, host MKL BLAS vs thunking
//! CUBLAS. The paper's findings, asserted by the tests:
//!
//! * CUBLAS accelerates the application by ~35% (1976 s → 1285 s at 32
//!   procs);
//! * within CUBLAS time, the blocking `cublasSetMatrix`/`GetMatrix`
//!   transfers dwarf the actual `zgemm` kernel time;
//! * scaling is good up to 128 processes, then MPI starts to dominate,
//!   with `MPI_Gather` growing sharply;
//! * CUBLAS time stays roughly constant with rank count (shared GPUs vs
//!   shrinking per-rank data).

use ipm_apps::{run_cluster, run_paratec, BlasBackend, ClusterConfig, ParatecConfig};
use ipm_core::{ClusterReport, EventFamily};

/// One bar of the Fig. 10 chart.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    pub procs: usize,
    pub backend: BlasBackend,
    /// Job runtime (max wallclock over ranks).
    pub wallclock: f64,
    /// Per-rank averages of the breakdown components (seconds).
    pub mpi: f64,
    pub mpi_allreduce: f64,
    pub mpi_wait: f64,
    pub mpi_gather: f64,
    pub cublas: f64,
    pub cublas_set_matrix: f64,
    pub cublas_get_matrix: f64,
    pub zgemm_kernel: f64,
}

/// Run one configuration.
pub fn measure(procs: usize, nodes: usize, backend: BlasBackend, cfg: ParatecConfig) -> Fig10Row {
    let cluster = ClusterConfig::dirac(procs, nodes).with_command("paratec");
    let run = run_cluster(&cluster, |ctx| run_paratec(ctx, cfg).expect("scf"));
    let report = ClusterReport::from_profiles(run.profiles, nodes);
    let per_rank = |t: f64| t / procs as f64;
    Fig10Row {
        procs,
        backend,
        wallclock: report.wallclock_max,
        mpi: per_rank(report.family_spread(EventFamily::Mpi).total),
        mpi_allreduce: per_rank(report.time_of("MPI_Allreduce")),
        mpi_wait: per_rank(report.time_of("MPI_Wait")),
        mpi_gather: per_rank(report.time_of("MPI_Gather")),
        cublas: per_rank(report.family_spread(EventFamily::Cublas).total),
        cublas_set_matrix: per_rank(report.time_of("cublasSetMatrix")),
        cublas_get_matrix: per_rank(report.time_of("cublasGetMatrix")),
        zgemm_kernel: per_rank(
            report
                .kernel_rank_matrix()
                .into_iter()
                .filter(|(k, _)| k.starts_with("zgemm"))
                .map(|(_, t)| t.iter().sum::<f64>())
                .sum::<f64>()
                + 0.0, // normalize the empty-sum identity (-0.0)
        ),
    }
}

/// The full sweep: both backends at each scale, on 32 nodes.
pub fn run_fig10(scales: &[usize], cfg_of: impl Fn(BlasBackend) -> ParatecConfig) -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    for &procs in scales {
        let nodes = procs.min(32);
        for backend in [BlasBackend::HostMkl, BlasBackend::CublasThunking] {
            rows.push(measure(procs, nodes, backend, cfg_of(backend)));
        }
    }
    rows
}

/// Render the chart data as a table.
pub fn render(rows: &[Fig10Row]) -> String {
    let mut out = String::from(
        "procs backend   wallclock     MPI  Allreduce   Wait  Gather  CUBLAS  SetMat  GetMat  zgemm\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:<9} {:>9.1} {:>7.1} {:>10.2} {:>6.2} {:>7.2} {:>7.1} {:>7.1} {:>7.1} {:>6.2}\n",
            r.procs,
            match r.backend {
                BlasBackend::HostMkl => "MKL",
                BlasBackend::CublasThunking => "CUBLAS",
            },
            r.wallclock,
            r.mpi,
            r.mpi_allreduce,
            r.mpi_wait,
            r.mpi_gather,
            r.cublas,
            r.cublas_set_matrix,
            r.cublas_get_matrix,
            r.zgemm_kernel,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced sweep: the paper's shape at test-friendly sizes. It is
    /// deterministic, so it runs once and the tests below share it.
    fn quick_sweep() -> &'static [Fig10Row] {
        static ROWS: std::sync::OnceLock<Vec<Fig10Row>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| {
            let cfg = |backend| ParatecConfig {
                nbands: 64,
                npw: 1 << 17,
                iterations: 4,
                gemms_per_iter: 6,
                ffts_per_iter: 2,
                gather_bytes: 64 * 1024,
                gathers_per_iter: 8,
                other_work_per_iter: 16.0,
                backend,
            };
            run_fig10(&[4, 8, 16], cfg)
        })
    }

    #[test]
    fn cublas_beats_mkl_at_small_scale() {
        let rows = quick_sweep();
        let mkl = rows
            .iter()
            .find(|r| r.procs == 4 && r.backend == BlasBackend::HostMkl)
            .unwrap();
        let dev = rows
            .iter()
            .find(|r| r.procs == 4 && r.backend == BlasBackend::CublasThunking)
            .unwrap();
        assert!(
            dev.wallclock < mkl.wallclock,
            "CUBLAS {} not faster than MKL {}",
            dev.wallclock,
            mkl.wallclock
        );
    }

    #[test]
    fn transfers_dwarf_zgemm_compute() {
        let rows = quick_sweep();
        for r in rows
            .iter()
            .filter(|r| r.backend == BlasBackend::CublasThunking)
        {
            let transfers = r.cublas_set_matrix + r.cublas_get_matrix;
            assert!(
                transfers > r.zgemm_kernel,
                "procs {}: transfers {} vs zgemm {}",
                r.procs,
                transfers,
                r.zgemm_kernel
            );
        }
    }

    #[test]
    fn gather_per_rank_grows_with_scale() {
        let rows = quick_sweep();
        let gather = |procs: usize| {
            rows.iter()
                .find(|r| r.procs == procs && r.backend == BlasBackend::HostMkl)
                .unwrap()
                .mpi_gather
        };
        assert!(
            gather(16) > 2.0 * gather(4),
            "gather {} -> {}",
            gather(4),
            gather(16)
        );
    }

    #[test]
    fn application_scales_then_mpi_fraction_rises() {
        let rows = quick_sweep();
        let wall = |procs: usize| {
            rows.iter()
                .find(|r| r.procs == procs && r.backend == BlasBackend::HostMkl)
                .unwrap()
        };
        // runtime drops from 4 to 8 procs (strong scaling works)
        assert!(wall(8).wallclock < wall(4).wallclock);
        // but the MPI fraction grows monotonically with scale
        let frac = |r: &Fig10Row| r.mpi / r.wallclock;
        assert!(frac(wall(8)) > frac(wall(4)));
        assert!(frac(wall(16)) > frac(wall(8)));
    }

    #[test]
    fn rendered_table_has_all_rows() {
        let rows = quick_sweep();
        let text = render(rows);
        assert_eq!(text.lines().count(), 1 + rows.len());
        assert!(text.contains("CUBLAS"));
        assert!(text.contains("MKL"));
    }
}

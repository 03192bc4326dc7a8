//! Fig. 9 — the CUBE view of the CUDA-accelerated HPL run.
//!
//! The paper shows a CUBE screenshot of HPL on 16 Dirac nodes: four GPU
//! kernels (`dgemm_nn_e_kernel`, `dgemm_nt_tex_kernel`, `dtrsm_gpu_64_mm`,
//! `transpose`) with per-stream, per-node time distributions; computation
//! well balanced; `@CUDA_HOST_IDLE` almost zero (asynchronous transfers);
//! 2–5 s per task of manual `cudaEventSynchronize`.

use ipm_apps::{run_cluster, run_hpl, ClusterConfig, HplConfig};
use ipm_core::{ClusterReport, Cube, CubeXml, Export};

/// Outcome of the Fig. 9 experiment.
pub struct Fig9Result {
    pub report: ClusterReport,
}

/// Run HPL monitored on `nranks` ranks (paper: 16).
pub fn run_fig9(nranks: usize, hpl: HplConfig) -> Fig9Result {
    let cfg = ClusterConfig::dirac(nranks, nranks).with_command("xhpl.cuda");
    let run = run_cluster(&cfg, |ctx| run_hpl(ctx, hpl).expect("hpl"));
    let report = ClusterReport::from_profiles(run.profiles, nranks);
    Fig9Result { report }
}

impl Fig9Result {
    /// The run's profiles, one node per rank.
    fn export(&self) -> Export {
        Export::from_profiles(self.report.profiles().to_vec()).nodes(self.report.nranks)
    }

    /// The textual CUBE rendering (the Fig. 9 stand-in).
    pub fn render(&self) -> String {
        self.export()
            .to(Cube)
            .expect("every rank carries a profile")
    }

    /// The CUBE XML document.
    pub fn cube_xml(&self) -> String {
        self.export()
            .to(CubeXml)
            .expect("every rank carries a profile")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_core::build_cube;

    fn result() -> Fig9Result {
        run_fig9(4, HplConfig::tiny())
    }

    #[test]
    fn cube_shows_the_four_kernels_per_stream() {
        let r = result();
        let text = r.render();
        for k in [
            "dgemm_nn_e_kernel",
            "dgemm_nt_tex_kernel",
            "dtrsm_gpu_64_mm",
            "transpose",
        ] {
            assert!(text.contains(k), "cube missing {k}");
        }
        assert!(text.contains("@CUDA_EXEC_STRM"), "no per-stream nodes");
        assert!(text.contains("MPI"), "MPI hierarchy missing");
    }

    #[test]
    fn host_idle_is_negligible_in_the_cube() {
        let r = result();
        let cube = build_cube(&r.report);
        let cuda = &cube.children[0];
        let idle = cuda
            .children
            .iter()
            .find(|c| c.name == "@CUDA_HOST_IDLE")
            .expect("idle node");
        assert!(
            idle.total() < 0.01 * r.report.wallclock_total,
            "host idle {} vs wallclock {}",
            idle.total(),
            r.report.wallclock_total
        );
    }

    #[test]
    fn xml_document_carries_per_rank_severities() {
        let r = result();
        let xml = r.cube_xml();
        assert!(xml.contains("<cube version=\"4.0\">"));
        assert!(xml.contains("dgemm_nn_e_kernel"));
        // 4 ranks → severity lists have 4 comma-separated values
        let line = xml
            .lines()
            .find(|l| l.contains("dgemm_nn_e_kernel"))
            .unwrap();
        let severity = line.split("severity=\"").nth(1).unwrap();
        assert_eq!(severity.split(',').count(), 4, "line: {line}");
    }

    #[test]
    fn event_sync_present_but_bounded() {
        let r = result();
        let per_rank = r.report.time_of("cudaEventSynchronize") / 4.0;
        let wall = r.report.wallclock_max;
        assert!(per_rank > 0.0);
        assert!(
            per_rank < 0.2 * wall,
            "event sync {per_rank} vs wall {wall}"
        );
    }
}

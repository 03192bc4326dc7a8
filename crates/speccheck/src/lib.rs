//! # ipm-speccheck
//!
//! Workspace-aware spec-conformance checker for the IPM reproduction.
//!
//! The paper's monitoring layer derives its wrappers from a formal
//! interface inventory (65 CUDA runtime, 99 driver, 167 CUBLAS, 13 CUFFT
//! calls). This crate closes the loop statically: it reconciles every
//! [`CallSpec`](ipm_interpose::CallSpec) row against the monitored facades
//! and lints the wrapper anatomy itself:
//!
//! - **Spec coverage** — missing wrappers, orphan wrappers, orphan facade
//!   entry points, per-family counts, cross-family name injectivity.
//! - **Wrapper anatomy** — one sink report per call, the §III-C memset
//!   exclusion held at the spec level (the blocking class drives the probe
//!   now), byte attribution matching the spec, no guard held across the
//!   real call, no nested locks in the hash table / trace ring, and
//!   *one* anatomy: monitor facades must delegate timing/probing/booking
//!   to `FacadeCore` rather than re-grow their own copies of the plumbing.
//!
//! Findings render rustc-style (`error[code]: ... --> file:line`) or as
//! JSON; a committed baseline allowlists the justified set so CI fails
//! only on *new* violations. See `DESIGN.md` §"Static analysis".

pub mod baseline;
pub mod checks;
pub mod diag;
pub mod extract;

pub use checks::{run, spec_from_registry, Role, SpecRow, EXPECTED_COUNTS, SCANNED_FILES};
pub use diag::{render_json, render_text, Diagnostic};
pub use extract::SourceFile;

use std::path::{Path, PathBuf};

/// The workspace root (this crate lives at `<root>/crates/speccheck`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/speccheck has a workspace root two levels up")
        .to_path_buf()
}

/// Load the default scan set from disk.
pub fn load_sources(root: &Path) -> std::io::Result<Vec<(Role, SourceFile)>> {
    SCANNED_FILES
        .iter()
        .map(|&(rel, role)| {
            let text = std::fs::read_to_string(root.join(rel))?;
            Ok((role, SourceFile::new(rel, text)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real_run() -> Vec<Diagnostic> {
        let files = load_sources(&workspace_root()).expect("scan set readable");
        run(&spec_from_registry(), &files)
    }

    /// The justified findings the committed baseline carries — everything
    /// else in the workspace must be clean.
    const EXPECTED_KEYS: &[&str] = &[
        "missing-wrapper:MPI_Comm_rank",
        "missing-wrapper:MPI_Comm_size",
        "missing-wrapper:MPI_Wtime",
        "missing-wrapper:cublasInit",
        "missing-wrapper:cublasSetKernelStream",
        "missing-wrapper:cublasShutdown",
        "orphan-facade:cuLaunchKernel",
        "orphan-wrapper:cuLaunchKernel",
    ];

    #[test]
    fn workspace_findings_match_the_committed_baseline_exactly() {
        let mut keys: Vec<String> = real_run().iter().map(|d| d.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys, EXPECTED_KEYS, "workspace drifted from the baseline");

        let text = std::fs::read_to_string(workspace_root().join(baseline::BASELINE_FILE))
            .expect("committed baseline present");
        let committed = baseline::parse(&text);
        let p = baseline::partition(real_run(), &committed);
        assert!(
            p.new.is_empty(),
            "unbaselined findings:\n{}",
            render_text(&p.new)
        );
        assert!(p.stale.is_empty(), "stale baseline entries: {:?}", p.stale);
    }

    #[test]
    fn deliberately_unwrapping_a_call_is_detected() {
        let mut files = load_sources(&workspace_root()).unwrap();
        for (_, f) in &mut files {
            if f.rel.ends_with("driver_mon.rs") {
                // sabotage: the cuMemAlloc wrapper no longer reports
                f.text = f.text.replace("\"cuMemAlloc\"", "\"cuMemAllocRenamed\"");
            }
        }
        let diags = run(&spec_from_registry(), &files);
        let keys: Vec<String> = diags.iter().map(|d| d.key()).collect();
        assert!(
            keys.contains(&"missing-wrapper:cuMemAlloc".to_owned()),
            "{keys:?}"
        );
        assert!(keys.contains(&"orphan-wrapper:cuMemAllocRenamed".to_owned()));
        // and the finding renders rustc-style with a real location
        let text = render_text(&diags);
        assert!(text.contains("error[missing-wrapper]:"));
        assert!(text.contains("--> crates/gpu-sim/src/driver.rs:"));
    }

    #[test]
    fn deliberately_removing_a_spec_row_is_detected() {
        let files = load_sources(&workspace_root()).unwrap();
        let spec: Vec<SpecRow> = spec_from_registry()
            .into_iter()
            .filter(|r| r.name != "cudaMemcpy")
            .collect();
        let diags = run(&spec, &files);
        let keys: Vec<String> = diags.iter().map(|d| d.key()).collect();
        assert!(keys.contains(&"family-count:cuda-runtime".to_owned()));
        assert!(keys.contains(&"orphan-facade:cudaMemcpy".to_owned()));
        assert!(keys.contains(&"orphan-wrapper:cudaMemcpy".to_owned()));
        assert!(render_json(&diags).contains("\"code\":\"family-count\""));
    }

    #[test]
    fn wrap_once_lint_fires_without_waiver_and_respects_it() {
        let spec = spec_from_registry();
        let body = |waiver: &str| {
            format!(
                "    fn cuda_launch(&self) {{\n\
                 {waiver}\
                 \x20       self.wrapped(\"cudaLaunch\", 0, || a())\n\
                 \x20       self.wrapped(\"cudaLaunch\", 0, || b())\n\
                 \x20   }}\n"
            )
        };
        let mon = |text: String| {
            vec![(
                Role::Monitor,
                SourceFile::new("crates/ipm-core/src/cuda_mon.rs", text),
            )]
        };
        let fired = run(&spec, &mon(body("")));
        assert_eq!(
            fired.iter().filter(|d| d.code == "wrap-once").count(),
            1,
            "{fired:?}"
        );
        let waived = run(
            &spec,
            &mon(body("        // speccheck: allow(wrap-once)\n")),
        );
        assert!(waived.iter().all(|d| d.code != "wrap-once"), "{waived:?}");
    }

    #[test]
    fn anatomy_lint_catches_regrown_plumbing() {
        let spec = spec_from_registry();
        let text = "    fn wrapped<R>(&self, call: CallHandle, bytes: u64) -> R {\n\
                    \x20       wrap_call(self.ipm.clock(), self.ipm.as_ref(), call, bytes, ov, real)\n\
                    \x20   }\n\
                    \x20   fn probe(&self) {\n\
                    \x20       let before = self.ipm.clock().now();\n\
                    \x20   }\n";
        let files = vec![(
            Role::Monitor,
            SourceFile::new("crates/ipm-core/src/cuda_mon.rs", text),
        )];
        let diags = run(&spec, &files);
        let targets: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == "anatomy")
            .map(|d| d.target.as_str())
            .collect();
        assert!(targets.contains(&"wrap_call"), "{targets:?}");
        assert!(targets.contains(&"clock().now"), "{targets:?}");

        // the real workspace carries no anatomy findings at all: every
        // facade delegates to the shared core
        let real = real_run();
        assert!(
            real.iter().all(|d| d.code != "anatomy"),
            "{:?}",
            real.iter()
                .filter(|d| d.code == "anatomy")
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn anatomy_lint_catches_a_facade_booking_a_pseudo_event() {
        // sabotage: the D2H wrapper books its own host-idle wait instead of
        // leaving the probe to the shared core
        let mut files = load_sources(&workspace_root()).unwrap();
        let d2h =
            "    fn cuda_memcpy_d2h(&self, dst: &mut [u8], src: DevicePtr) -> CudaResult<()> {\n";
        for (_, f) in &mut files {
            if f.rel.ends_with("cuda_mon.rs") {
                assert!(f.text.contains(d2h), "no D2H wrapper to sabotage");
                f.text = f
                    .text
                    .replacen(d2h, &format!("{d2h}        self.ipm().book(idle);\n"), 1);
            }
        }
        let found: Vec<_> = run(&spec_from_registry(), &files)
            .into_iter()
            .filter(|d| d.code == "anatomy")
            .collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].target, "book");
        assert!(found[0].file.ends_with("cuda_mon.rs"));
    }

    #[test]
    fn anatomy_lint_catches_a_facade_regrowing_the_launch_bracket() {
        // sabotage: the runtime launch wrapper brackets and sweeps the KTT
        // itself instead of leaving both to the shared core
        let mut files = load_sources(&workspace_root()).unwrap();
        let launch = "        self.core.launch(site!(\"cudaLaunch\")";
        for (_, f) in &mut files {
            if f.rel.ends_with("cuda_mon.rs") {
                assert!(f.text.contains(launch), "no launch wrapper to sabotage");
                f.text = f.text.replacen(
                    launch,
                    &format!(
                        "        let mut ktt = self.ipm().ktt().lock();\n\
                         \x20       ktt.time_launch(self.inner.as_ref(), id, stream, || ());\n\
                         \x20       self.core.sweep_ktt();\n{launch}"
                    ),
                    1,
                );
            }
        }
        let diags = run(&spec_from_registry(), &files);
        let mut anatomy: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == "anatomy")
            .map(|d| d.target.as_str())
            .collect();
        anatomy.sort_unstable();
        assert_eq!(anatomy, [".ktt()", "sweep_ktt", "time_launch"]);
        // and the guard is now held across the wrapped launch, unwaived
        assert!(
            diags
                .iter()
                .any(|d| d.code == "lock-across-call" && d.file.ends_with("cuda_mon.rs")),
            "{diags:?}"
        );
    }

    #[test]
    fn the_core_launch_bracket_is_the_one_waived_lock_across_call() {
        let mut files = load_sources(&workspace_root()).unwrap();
        let waiver = "// speccheck: allow(lock-across-call)";
        for (_, f) in &mut files {
            if f.rel.ends_with("facade.rs") {
                assert_eq!(f.text.matches(waiver).count(), 1);
                f.text = f.text.replace(waiver, "//");
            }
        }
        let keys: Vec<String> = run(&spec_from_registry(), &files)
            .iter()
            .filter(|d| d.code == "lock-across-call")
            .map(|d| format!("{}:{}", d.file, d.target))
            .collect();
        assert_eq!(keys, ["crates/ipm-core/src/facade.rs:launch"]);
    }

    #[test]
    fn misclassifying_a_memset_as_blocking_is_detected() {
        let mut spec = spec_from_registry();
        for r in &mut spec {
            if r.name == "cudaMemset" {
                r.blocking = ipm_interpose::BlockingClass::ImplicitSync;
            }
        }
        let files = load_sources(&workspace_root()).unwrap();
        let diags = run(&spec, &files);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "host-idle" && d.target == "cudaMemset"),
            "{diags:?}"
        );
    }

    #[test]
    fn io_family_is_reconciled_like_the_paper_families() {
        // dropping the fread wrapper must be caught, proving the I/O
        // facade participates in the same coverage checks
        let mut files = load_sources(&workspace_root()).unwrap();
        for (_, f) in &mut files {
            if f.rel.ends_with("io_mon.rs") {
                f.text = f
                    .text
                    .replace("site!(\"fread\")", "site!(\"freadSkipped\")");
            }
        }
        let diags = run(&spec_from_registry(), &files);
        let keys: Vec<String> = diags.iter().map(|d| d.key()).collect();
        assert!(
            keys.contains(&"missing-wrapper:fread".to_owned()),
            "{keys:?}"
        );
    }

    #[test]
    fn host_idle_lint_enforces_routing_and_memset_exclusion() {
        let spec = spec_from_registry();
        let text = "    fn absorb_host_idle(&self) {}\n\
                    \x20   fn memcpy(&self) {\n\
                    \x20       self.wrapped(\"cudaMemcpy\", n, || x())\n\
                    \x20   }\n\
                    \x20   fn memset(&self) {\n\
                    \x20       self.absorb_host_idle();\n\
                    \x20       self.wrapped(\"cudaMemset\", n, || x())\n\
                    \x20   }\n";
        let files = vec![(
            Role::Monitor,
            SourceFile::new("crates/ipm-core/src/cuda_mon.rs", text),
        )];
        let diags = run(&spec, &files);
        let codes: Vec<(&str, &str)> = diags
            .iter()
            .filter(|d| d.code == "host-idle")
            .map(|d| (d.code, d.target.as_str()))
            .collect();
        assert!(codes.contains(&("host-idle", "cudaMemcpy")), "{codes:?}");
        assert!(codes.contains(&("host-idle", "cudaMemset")), "{codes:?}");
    }

    #[test]
    fn bytes_lint_matches_spec_attribution() {
        let spec = spec_from_registry();
        let text = "    fn a(&self) {\n\
                    \x20       self.wrapped(\"cudaMemcpy\", 0, || x())\n\
                    \x20   }\n\
                    \x20   fn b(&self) {\n\
                    \x20       self.wrapped(\"cudaFree\", n as u64, || x())\n\
                    \x20   }\n";
        let files = vec![(
            Role::Monitor,
            SourceFile::new("crates/ipm-core/src/cuda_mon.rs", text),
        )];
        let diags = run(&spec, &files);
        let bytes: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "bytes-attr").collect();
        assert_eq!(bytes.len(), 2, "{diags:?}");
    }

    #[test]
    fn lock_across_call_lint_fires_and_respects_waiver() {
        let spec = spec_from_registry();
        let body = |waiver: &str| {
            format!(
                "    fn cuda_launch(&self) {{\n\
                 {waiver}\
                 \x20       let mut ktt = self.ipm.ktt().lock();\n\
                 \x20       ktt.go(|| self.wrapped(\"cudaLaunch\", 0, || x()));\n\
                 \x20   }}\n"
            )
        };
        let mon = |text: String| {
            vec![(
                Role::Monitor,
                SourceFile::new("crates/ipm-core/src/cuda_mon.rs", text),
            )]
        };
        let fired = run(&spec, &mon(body("")));
        assert_eq!(
            fired
                .iter()
                .filter(|d| d.code == "lock-across-call")
                .count(),
            1,
            "{fired:?}"
        );
        let waived = run(
            &spec,
            &mon(body("        // speccheck: allow(lock-across-call)\n")),
        );
        assert!(
            waived.iter().all(|d| d.code != "lock-across-call"),
            "{waived:?}"
        );
    }

    #[test]
    fn lock_order_lint_catches_nested_stripes() {
        let text = "    fn update(&self) {\n\
                    \x20       let mut shard = self.shards[0].lock();\n\
                    \x20       let other = self.shards[1].lock();\n\
                    \x20   }\n";
        let files = vec![(
            Role::LockDiscipline,
            SourceFile::new("crates/ipm-core/src/table.rs", text),
        )];
        let diags = run(&[], &files);
        assert_eq!(diags.iter().filter(|d| d.code == "lock-order").count(), 1);
    }
}

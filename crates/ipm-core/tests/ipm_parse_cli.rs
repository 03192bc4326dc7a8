//! The `ipm_parse` binary end to end: every mode loads its logs through
//! `parse::export_from_xml`, so a malformed log set is refused the same
//! way by all of them.

use ipm_core::{to_xml, ProfileEntry, RankProfile};
use ipm_sim_core::RunningStats;
use std::path::PathBuf;
use std::process::{Command, Output};

fn profile(rank: usize) -> RankProfile {
    let mut stats = RunningStats::new();
    stats.record(2.0);
    RankProfile {
        rank,
        nranks: 1,
        host: "dirac00".to_owned(),
        command: "./a.out".to_owned(),
        wallclock: 10.0,
        regions: vec!["<program>".to_owned()],
        entries: vec![ProfileEntry {
            name: "MPI_Allreduce".to_owned(),
            detail: None,
            bytes: 64,
            region: 0,
            stats,
        }],
        dropped_events: 0,
        monitor: Default::default(),
    }
}

/// Write `profile` as an XML log to a temp file unique to this test.
fn log_file(test: &str, n: usize, profile: &RankProfile) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ipm_parse_cli_{}_{test}_{n}.xml",
        std::process::id()
    ));
    std::fs::write(&path, to_xml(profile)).expect("temp log writable");
    path
}

fn ipm_parse(args: &[&str], logs: &[PathBuf]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_ipm_parse"))
        .args(args)
        .args(logs)
        .output()
        .expect("ipm_parse runs");
    for log in logs {
        let _ = std::fs::remove_file(log);
    }
    out
}

#[test]
fn banner_cube_and_trace_refuse_two_logs_of_one_rank() {
    for mode in ["-b", "-cube", "trace"] {
        let test = mode.trim_start_matches('-');
        let logs = [
            log_file(test, 0, &profile(0)),
            log_file(test, 1, &profile(0)),
        ];
        let out = ipm_parse(&[mode], &logs);
        assert!(!out.status.success(), "{mode} accepted two logs of rank 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("two logs of rank 0"), "{mode}: {stderr}");
    }
}

#[test]
fn banner_renders_one_good_log() {
    let logs = [log_file("banner", 0, &profile(0))];
    let out = ipm_parse(&["-b"], &logs);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let banner = String::from_utf8_lossy(&out.stdout);
    assert!(banner.contains("##IPMv2.0"), "{banner}");
    assert!(banner.contains("MPI_Allreduce"), "{banner}");
}

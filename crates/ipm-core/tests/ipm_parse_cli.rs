//! The `ipm_parse` binary end to end: every mode loads its logs through
//! `parse::export_from_xml`, so a malformed log set is refused the same
//! way by all of them.

use ipm_core::{Export, ProfileEntry, RankProfile, Xml};
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
    let xml = Export::from_profile(profile.clone())
        .to(Xml)
        .expect("a profiled rank");
    std::fs::write(&path, xml).expect("temp log writable");
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
        assert!(stderr.contains("two <task>s of rank 0"), "{mode}: {stderr}");
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

#[test]
fn cubexml_escapes_the_two_ranks_of_the_mixed_golden() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/mixed_trace.xml"
    );
    let out = ipm_parse(&["-cubexml", golden], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let xml = String::from_utf8_lossy(&out.stdout);
    assert!(
        xml.contains("<rank id=\"0\" host=\"diracq&quot;b\\c\u{1}t\t&amp;&lt;x&gt;\"/>"),
        "{xml}"
    );
    assert!(xml.contains("<rank id=\"1\" host=\"dirac01\"/>"), "{xml}");
    assert!(
        xml.contains("<metric name=\"kernq&quot;b\\c\u{1}t\t&amp;&lt;x&gt;\""),
        "{xml}"
    );
    assert!(!xml.contains("q\"b"), "{xml}");
}

#[test]
fn a_reader_closing_the_pipe_early_ends_the_output_quietly() {
    use ipm_core::{TraceKind, TraceRecord};
    use std::io::Read;
    use std::process::Stdio;

    // 20,000 launches render to a few MB of JSON, far past a pipe's buffer,
    // so the writer is still writing when the reader goes away
    let records = (0..20_000)
        .map(|i| TraceRecord {
            kind: TraceKind::Call,
            name: "cudaLaunch",
            detail: None,
            begin: i as f64 * 1e-5,
            end: i as f64 * 1e-5 + 4e-6,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: None,
        })
        .collect();
    let path = std::env::temp_dir().join(format!(
        "ipm_parse_cli_{}_broken_pipe.xml",
        std::process::id()
    ));
    let xml = Export::from_profile(profile(0))
        .with_trace(records)
        .to(Xml)
        .expect("a profiled rank");
    std::fs::write(&path, xml).expect("temp log writable");

    let mut child = Command::new(env!("CARGO_BIN_EXE_ipm_parse"))
        .arg("trace")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ipm_parse runs");
    let mut head = [0u8; 100];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("the first bytes of the trace");
    // the stdout handle is dropped here: the pipe's read end closes
    let out = child.wait_with_output().expect("ipm_parse exits");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

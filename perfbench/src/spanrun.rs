//! The span run: per-layer metrics.
//!
//! First the isolated record-path ledger, then iterations of three cluster
//! runs in rotating order: bare with spans, monitored with spans, and
//! monitored with spans off (the end-to-end configuration, so the spans'
//! own cost shows as `span.overhead_s`). Every monitored run is followed by
//! its post-mortem and every iteration is checked as in the end-to-end run.
//! Per-call figures are monitored − bare differences of per-call medians,
//! taken per iteration; the reported value is their median over iterations.

use crate::e2e::{self, MIN_ITERATIONS};
use crate::ledger::{self, Ledger};
use crate::postmortem::PostMortem;
use crate::probe::{Call, SpanLog, CALL_NAMES, FIRST_FFT, FIRST_IO, FIRST_MPI, NO_PARENT};
use crate::stats::{median, p50_p99, quantile};
use crate::workload::{Inputs, Run, Workload};
use crate::{checks, metric, Metric, Report};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const QUERY: [Call; 3] = [Call::StreamQuery, Call::EventQuery, Call::GetLastError];
const LAUNCH: [Call; 3] = [Call::Configure, Call::SetupArgument, Call::Launch];

/// Per-call span durations of one run, pooled over ranks, indexed like
/// [`CALL_NAMES`], plus each rank's app wall time.
struct CallTimes {
    by_call: Vec<Vec<u64>>,
    calls: Vec<u64>,
    app_ns: u64,
}

impl CallTimes {
    fn of(run: &Run) -> Self {
        let index: HashMap<&str, usize> = CALL_NAMES
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i))
            .collect();
        let mut by_call = vec![Vec::new(); CALL_NAMES.len()];
        let mut calls = vec![0u64; CALL_NAMES.len()];
        let mut app_ns = 0;
        for out in &run.run.outputs {
            for (c, n) in calls.iter_mut().zip(&out.calls) {
                *c += n;
            }
            for s in &out.spans.spans {
                if s.parent == NO_PARENT {
                    app_ns += s.end_ns - s.start_ns;
                } else if let Some(&i) = index.get(s.name) {
                    by_call[i].push(s.end_ns - s.start_ns);
                }
            }
        }
        Self {
            by_call,
            calls,
            app_ns,
        }
    }

    fn median(&self, call: usize) -> f64 {
        p50_p99(&self.by_call[call]).0
    }

    fn pooled(&self, calls: std::ops::Range<usize>) -> Vec<u64> {
        self.by_call[calls].iter().flatten().copied().collect()
    }
}

/// Monitored − bare per-call median, weighted by how often each call of
/// `calls` was issued, summed, and divided by `per` (0 when none ran).
fn overhead(
    mon: &CallTimes,
    bare: &CallTimes,
    calls: impl IntoIterator<Item = usize>,
    per: u64,
) -> f64 {
    let mut sum = 0.0;
    for c in calls {
        let n = mon.calls[c];
        if n > 0 && !bare.by_call[c].is_empty() {
            sum += n as f64 * (mon.median(c) - bare.median(c));
        }
    }
    if per == 0 {
        0.0
    } else {
        sum / per as f64
    }
}

fn issued(t: &CallTimes, calls: impl IntoIterator<Item = usize>) -> u64 {
    calls.into_iter().map(|c| t.calls[c]).sum()
}

/// Per-iteration series, one value per iteration (or per monitored run).
#[derive(Default)]
struct Series {
    query: Vec<f64>,
    launch: Vec<f64>,
    sync_copy: Vec<f64>,
    call_p50: Vec<f64>,
    call_p99: Vec<f64>,
    mpi: Vec<f64>,
    numlib: Vec<f64>,
    io: Vec<f64>,
    gpu_sim: Vec<f64>,
    mpi_sim: Vec<f64>,
    fft_us: Vec<f64>,
    self_accounted: Vec<f64>,
    self_per_event: Vec<f64>,
    span_run_s: Vec<f64>,
    count_run_s: Vec<f64>,
    snapshots: Vec<f64>,
    sample_ns: Vec<u64>,
    pms: Vec<PostMortem>,
}

impl Series {
    fn spans(&mut self, mon: &Run, bare: &Run, pm: &PostMortem) {
        let (m, b) = (CallTimes::of(mon), CallTimes::of(bare));
        let q = QUERY.map(|c| c as usize);
        self.query.push(overhead(&m, &b, q, issued(&m, q)));
        self.launch.push(overhead(
            &m,
            &b,
            LAUNCH.map(|c| c as usize),
            m.calls[Call::Launch as usize],
        ));
        let d2h = Call::MemcpyD2h as usize;
        self.sync_copy.push(overhead(&m, &b, [d2h], m.calls[d2h]));
        let (p50, p99) = p50_p99(&m.pooled(0..FIRST_MPI));
        self.call_p50.push(p50);
        self.call_p99.push(p99);
        let per_family =
            |range: std::ops::Range<usize>| overhead(&m, &b, range.clone(), issued(&m, range));
        self.mpi.push(per_family(FIRST_MPI..FIRST_FFT));
        self.numlib.push(per_family(FIRST_FFT..FIRST_IO));
        self.io.push(per_family(FIRST_IO..CALL_NAMES.len()));
        self.gpu_sim.push(p50_p99(&b.pooled(0..FIRST_MPI)).0);
        self.mpi_sim
            .push(p50_p99(&b.pooled(FIRST_MPI..FIRST_FFT)).0);
        self.fft_us.push(b.median(Call::FftExecZ2z as usize) / 1e3);
        let self_ns: u64 = pm.monitor.iter().map(|m| m.self_wall_ns).sum();
        let cost = m.app_ns as f64 - b.app_ns as f64;
        self.self_accounted.push(self_ns as f64 / cost);
    }

    fn monitored(&mut self, run: &Run, pm: PostMortem) {
        self.snapshots.push(run.sample_ns.len() as f64);
        self.sample_ns.extend(&run.sample_ns);
        let self_ns: u64 = pm.monitor.iter().map(|m| m.self_wall_ns).sum();
        self.self_per_event
            .push(self_ns as f64 / pm.booked.max(1) as f64);
        self.pms.push(pm);
    }
}

/// Where the last iteration's spans are written.
fn spans_path(workload: Workload) -> String {
    format!(
        "{}/out/spans_{}.tsv",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    )
}

/// Write spans as `side rank index parent name start_ns end_ns` rows.
fn write_spans(workload: Workload, logs: &[(&str, usize, &SpanLog)]) {
    let mut out = String::from("side\trank\tindex\tparent\tname\tstart_ns\tend_ns\n");
    for (side, rank, log) in logs {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{side}\t{rank}\t{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
    let path = spans_path(workload);
    let written = std::path::Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, out));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}

#[derive(Clone, Copy)]
enum Kind {
    BareSpans,
    MonitoredSpans,
    MonitoredCount,
}

pub fn measure(workload: Workload, seed: u64, inputs: &Inputs, budget: Duration) -> Report {
    let start = Instant::now();
    let ledger = ledger::measure();
    let mut s = Series::default();
    let (mut attempted, mut failed) = (0, 0);
    let order = [Kind::BareSpans, Kind::MonitoredSpans, Kind::MonitoredCount];
    loop {
        let mut failures = Vec::new();
        let (mut bare, mut mon_spans, mut pm_spans) = (None, None, None);
        for i in 0..order.len() {
            match order[(i + attempted as usize) % order.len()] {
                Kind::BareSpans => {
                    bare = Some(e2e::bare(workload, seed, inputs, true, &mut failures));
                }
                Kind::MonitoredSpans => {
                    let mut run = e2e::monitored(workload, seed, inputs, true, &mut failures);
                    let pm = e2e::postmortem(&mut run, true, &mut failures);
                    s.span_run_s.push(run.wall_s);
                    mon_spans = Some(run);
                    pm_spans = Some(pm);
                }
                Kind::MonitoredCount => {
                    let mut run = e2e::monitored(workload, seed, inputs, false, &mut failures);
                    let pm = e2e::postmortem(&mut run, false, &mut failures);
                    s.count_run_s.push(run.wall_s);
                    s.monitored(&run, pm);
                }
            }
        }
        let (bare, mon, pm) = (
            bare.expect("bare run"),
            mon_spans.expect("monitored run"),
            pm_spans.expect("post-mortem"),
        );
        checks::paired(&mon, &bare, &mut failures);
        e2e::tally(&failures, &mut attempted, &mut failed);
        s.spans(&mon, &bare, &pm);
        let done = attempted >= MIN_ITERATIONS && start.elapsed() >= budget;
        if done {
            let mut logs = Vec::new();
            for (side, run) in [("monitored", &mon), ("bare", &bare)] {
                for (rank, out) in run.run.outputs.iter().enumerate() {
                    logs.push((side, rank, &out.spans));
                }
            }
            logs.push(("monitored", 0, &pm.spans));
            write_spans(workload, &logs);
        }
        s.monitored(&mon, pm);
        if done {
            break;
        }
    }
    Report {
        attempted,
        failed,
        metrics: metrics(workload, &s, &ledger),
        ungated: Vec::new(),
    }
}

fn metrics(workload: Workload, s: &Series, l: &Ledger) -> Vec<Metric> {
    let pm_ms = |f: fn(&PostMortem) -> f64| -> f64 {
        median(&s.pms.iter().map(|p| f(p) * 1e3).collect::<Vec<_>>())
    };
    let pm_bytes = |f: fn(&PostMortem) -> usize| -> f64 {
        median(&s.pms.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let last = s.pms.last().expect("a monitored run");
    let sum = |f: fn(&ipm_core::MonitorInfo) -> u64| -> f64 {
        last.monitor.iter().map(f).sum::<u64>() as f64
    };
    let emitted = sum(|m| m.trace_emitted);
    let captured = sum(|m| m.trace_captured);
    let sample_us: Vec<f64> = s.sample_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let query_overhead = median(&s.query);
    let step_sum =
        l.query_step_sum_ns(workload == Workload::StormTraced || workload == Workload::Md);
    vec![
        metric("cuda_mon.query_overhead_ns", query_overhead, "ns"),
        metric("cuda_mon.launch_overhead_ns", median(&s.launch), "ns"),
        metric("cuda_mon.sync_copy_overhead_ns", median(&s.sync_copy), "ns"),
        metric("cuda_mon.call_ns.p50", median(&s.call_p50), "ns"),
        metric("cuda_mon.call_ns.p99", median(&s.call_p99), "ns"),
        metric("mpi_mon.overhead_ns", median(&s.mpi), "ns"),
        metric("numlib_mon.overhead_ns", median(&s.numlib), "ns"),
        metric("io_mon.overhead_ns", median(&s.io), "ns"),
        metric("gpu_sim.call_ns.p50", median(&s.gpu_sim), "ns"),
        metric("mpi_sim.call_ns.p50", median(&s.mpi_sim), "ns"),
        metric("numlib.fft_us.p50", median(&s.fft_us), "us"),
        metric("monitor.snapshot_us.p50", quantile(&sample_us, 0.5), "us"),
        metric("monitor.snapshot_us.p99", quantile(&sample_us, 0.99), "us"),
        metric("monitor.snapshots", median(&s.snapshots), "count"),
        metric("cuda_mon.finalize_ms", pm_ms(|p| p.finalize_s), "ms"),
        metric("monitor.profile_ms", pm_ms(|p| p.profile_s), "ms"),
        metric("export.banner_ms", pm_ms(|p| p.banner_s), "ms"),
        metric("export.xml_ms", pm_ms(|p| p.xml_s), "ms"),
        metric("export.xml_bytes", pm_bytes(|p| p.xml_bytes), "bytes"),
        metric("trace.drain_ms", pm_ms(|p| p.drain_s), "ms"),
        metric("export.chrome_ms", pm_ms(|p| p.chrome_s), "ms"),
        metric("export.otlp_ms", pm_ms(|p| p.otlp_s), "ms"),
        metric("export.chrome_bytes", pm_bytes(|p| p.chrome_bytes), "bytes"),
        metric("export.otlp_bytes", pm_bytes(|p| p.otlp_bytes), "bytes"),
        metric("parse.xml_ms", pm_ms(|p| p.parse_xml_s), "ms"),
        metric("parse.banner_ms", pm_ms(|p| p.parse_banner_s), "ms"),
        metric("trace.emitted", emitted, "count"),
        metric("trace.captured", captured, "count"),
        metric("trace.dropped", sum(|m| m.trace_dropped), "count"),
        metric("trace.compacted", sum(|m| m.trace_compacted), "count"),
        metric(
            "trace.capture_ratio",
            if emitted > 0.0 {
                captured / emitted
            } else {
                0.0
            },
            "ratio",
        ),
        metric("table.dropped_events", last.dropped_events as f64, "count"),
        metric("events.booked", last.booked as f64, "count"),
        metric("monitor.self_ns_per_event", median(&s.self_per_event), "ns"),
        metric(
            "monitor.self_accounted_frac",
            median(&s.self_accounted),
            "ratio",
        ),
        metric(
            "span.overhead_s",
            median(&s.span_run_s) - median(&s.count_run_s),
            "s",
        ),
        metric("ledger.clock_now_ns", l.clock_now_ns, "ns"),
        metric("ledger.site_ns", l.site_ns, "ns"),
        metric("ledger.wrap_call_null_ns", l.wrap_call_null_ns, "ns"),
        metric("ledger.sink_update_ns", l.sink_update_ns, "ns"),
        metric("ledger.sink_span_traced_ns", l.sink_span_traced_ns, "ns"),
        metric("ledger.table_update_ns", l.table_update_ns, "ns"),
        metric("ledger.ring_push_ns", l.ring_push_ns, "ns"),
        metric("ledger.ring_push_full_ns", l.ring_push_full_ns, "ns"),
        metric(
            "ledger.compact_ns_per_record",
            l.compact_ns_per_record,
            "ns",
        ),
        metric("ledger.merge_ns_per_record", l.merge_ns_per_record, "ns"),
        metric(
            "ledger.allocs_per_call.untraced",
            l.allocs_per_call_untraced,
            "count",
        ),
        metric(
            "ledger.allocs_per_call.traced",
            l.allocs_per_call_traced,
            "count",
        ),
        metric("ledger.calibration_ns", l.calibration_ns, "ns"),
        metric("ledger.step_sum_ns", step_sum, "ns"),
        metric("ledger.residue_ns", query_overhead - step_sum, "ns"),
    ]
}

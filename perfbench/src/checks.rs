//! Correctness checks on every timed iteration. Each failed check is a
//! message; an iteration with any message counts as failed.

use crate::probe::{Call, CALL_NAMES};
use crate::workload::{Run, Workload, CALLS_PER_FFT_EXEC, STORM_LAUNCHES_PER_ITER};
use ipm_core::{EventSignature, RankProfile};

/// No API call of any rank errored, and (for the storm) every rank issued
/// exactly the calls its loop computes.
pub fn issued(run: &Run, expected: Option<&[u64]>, failures: &mut Vec<String>) {
    for (rank, out) in run.run.outputs.iter().enumerate() {
        if let Some(e) = &out.error {
            failures.push(format!("rank {rank}: API call failed: {e}"));
        }
        if let Some(expected) = expected {
            if out.calls != expected {
                failures.push(format!(
                    "rank {rank}: issued calls differ from the storm loop"
                ));
            }
        }
    }
}

/// The profile IPM booked for `calls` issued through the probes: one
/// event per call, plus, for `md`, the launch triplets CUFFT issues
/// inside each `cufftExecZ2Z`.
fn expected_booked(workload: Workload, calls: &[u64]) -> Vec<u64> {
    let mut booked = calls.to_vec();
    if workload == Workload::Md {
        let execs = calls[Call::FftExecZ2z as usize];
        for (call, per_exec) in CALLS_PER_FFT_EXEC {
            booked[call as usize] += execs * per_exec;
        }
    }
    booked
}

/// IPM booked exactly the issued calls, every kernel's execution (storm),
/// dropped nothing from the table or KTT, and its trace ledger closes.
pub fn booked(workload: Workload, run: &Run, storm_iters: usize, failures: &mut Vec<String>) {
    for (out, p) in run.run.outputs.iter().zip(&run.run.profiles) {
        let r = p.rank;
        let want = expected_booked(workload, &out.calls);
        for (name, &n) in CALL_NAMES.iter().zip(&want) {
            let got = p.count_of(name);
            if got != n {
                failures.push(format!("rank {r}: {name} booked {got}, issued {n}"));
            }
        }
        for e in &p.entries {
            let pseudo = e.name.starts_with(ipm_core::sig::PSEUDO_PREFIX);
            if !pseudo && !CALL_NAMES.contains(&e.name.as_str()) {
                failures.push(format!("rank {r}: booked {}, never issued", e.name));
            }
        }
        if workload.is_storm() {
            let exec = p.count_of(&EventSignature::exec_stream_name(0));
            let launched = (storm_iters * STORM_LAUNCHES_PER_ITER) as u64;
            if exec != launched {
                failures.push(format!(
                    "rank {r}: {exec} kernel executions booked, {launched} launched"
                ));
            }
        }
        if p.dropped_events != 0 {
            failures.push(format!("rank {r}: {} events dropped", p.dropped_events));
        }
        ledger_closes(p, failures);
        if workload == Workload::StormTraced && p.monitor.trace_dropped != 0 {
            failures.push(format!(
                "rank {r}: the ring sized for the whole run dropped {} records",
                p.monitor.trace_dropped
            ));
        }
    }
}

fn ledger_closes(p: &RankProfile, failures: &mut Vec<String>) {
    let m = &p.monitor;
    if m.trace_captured + m.trace_dropped + m.trace_compacted != m.trace_emitted {
        failures.push(format!(
            "rank {}: trace ledger open: {} captured + {} dropped + {} compacted != {} emitted",
            p.rank, m.trace_captured, m.trace_dropped, m.trace_compacted, m.trace_emitted
        ));
    }
}

/// The monitored and bare runs of one iteration issued the same calls and,
/// for `md`, computed the same energies.
pub fn paired(monitored: &Run, bare: &Run, failures: &mut Vec<String>) {
    for (rank, (m, b)) in monitored
        .run
        .outputs
        .iter()
        .zip(&bare.run.outputs)
        .enumerate()
    {
        if m.calls != b.calls {
            failures.push(format!(
                "rank {rank}: monitored and bare runs issued different calls"
            ));
        }
        if m.energy.to_bits() != b.energy.to_bits() {
            failures.push(format!(
                "rank {rank}: energy {} monitored, {} bare",
                m.energy, b.energy
            ));
        }
    }
}

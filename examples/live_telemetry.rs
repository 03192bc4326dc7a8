//! Live telemetry: watch a cluster job while it runs.
//!
//! Runs an HPL-like Linpack job on a simulated 4-rank/2-node cluster and,
//! concurrently, samples every rank's IPM context through
//! [`ClusterObserver::sample`]: each sample is a cheap per-family *delta*
//! of the performance table since the previous sample, merged across ranks
//! into a one-line cluster dashboard. This is the monitoring-as-you-go
//! counterpart of the post-mortem banner — nothing about the application
//! changes, the observer just polls the same IPM contexts the wrappers
//! feed.
//!
//! ```text
//! cargo run --release --example live_telemetry
//! ```

use ipm_repro::apps::hpl::{run_hpl, HplConfig};
use ipm_repro::apps::{run_cluster_observed, ClusterConfig};
use std::time::Duration;

fn main() {
    let (nranks, nodes) = (4, 2);
    let cluster = ClusterConfig::dirac(nranks, nodes).with_command("./xhpl.ipm");
    // a mid-size instance: enough panel iterations for several samples
    let hpl = HplConfig {
        n: 16_384,
        nb: 256,
        overlap: 0.9,
    };

    println!("live cluster view ({nranks} ranks on {nodes} nodes, virtual time):");
    let run = run_cluster_observed(
        &cluster,
        |ctx| run_hpl(ctx, hpl).expect("hpl rank failed"),
        |obs| {
            while !obs.is_done() {
                // auto-tuned: the period that keeps the measured sweep cost
                // within each rank's snapshot overhead budget (fixed 2 ms
                // warm-up until the first sweep has been timed)
                let period = obs.auto_period().unwrap_or(Duration::from_millis(2));
                std::thread::sleep(period);
                print_sample(obs);
            }
            // final delta: whatever was booked after the last poll
            print_sample(obs);
        },
    );

    let gflops: f64 = run.outputs.iter().map(|r| r.gflops()).sum();
    println!(
        "\njob done: {:.2} virtual s, {gflops:.1} GFLOP/s aggregate",
        run.runtime()
    );

    // monitor-the-monitor: what the telemetry itself cost, per rank
    for p in &run.profiles {
        let m = &p.monitor;
        println!(
            "rank {}: IPM self-cost {:.3} ms wall-clock, trace {} captured / {} dropped",
            p.rank,
            m.self_wall_ns as f64 / 1e6,
            m.trace_captured,
            m.trace_dropped,
        );
    }
}

fn print_sample(obs: &ipm_repro::apps::ClusterObserver) {
    if let Some((snap, interval)) = obs.sample() {
        if interval > 0.0 {
            println!("  {}", snap.render_line(interval));
        }
    }
}

//! Quickstart: monitor a CUDA program with IPM, no source changes.
//!
//! This is the paper's Fig. 3 program (`square`) run under full IPM
//! monitoring — the exact scenario of Figs. 4–6. The application code
//! (`run_square`) only knows the `CudaApi` trait; installing IPM is the
//! single line that wraps the runtime, the library analogue of
//! `LD_PRELOAD=libipm.so`.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ipm_repro::apps::{run_square, SquareConfig};
use ipm_repro::gpu::{GpuConfig, GpuRuntime};
use ipm_repro::ipm::{Banner, Export, Ipm, IpmConfig, IpmCuda, Xml};
use std::sync::Arc;

fn main() {
    // the "machine": one simulated Dirac node (Tesla C2050, CUDA 3.1)
    let runtime = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));

    // install IPM between the application and the runtime
    let ipm = Ipm::new(runtime.clock().clone(), IpmConfig::default());
    ipm.set_metadata(0, 1, "dirac15", "./cuda.ipm");
    let cuda = IpmCuda::new(ipm.clone(), runtime);

    // run the unmodified application against the monitored API
    let result = run_square(&cuda, SquareConfig::default()).expect("square");
    println!(
        "array returned from the device, first elements: {:?}",
        &result[..4.min(result.len())]
    );
    println!("(at the paper's N=100k/REPEAT=10k shape the kernel is timing-modeled;");
    println!(" use SquareConfig::tiny() to see the math verified for real)\n");

    // at exit, IPM prints the banner (Fig. 6) — the export pipeline
    // captures the live context and renders it through any backend
    cuda.finalize();
    let profile = ipm.profile();
    println!(
        "{}",
        Export::from(&ipm)
            .max_rows(10)
            .to(Banner)
            .expect("profile present")
    );

    // ... and writes the XML log for ipm_parse
    let xml = Export::from_profile(profile.clone())
        .to(Xml)
        .expect("profile present");
    println!(
        "XML profiling log: {} bytes (first line: {})",
        xml.len(),
        xml.lines().next().unwrap()
    );

    println!(
        "\nkey metrics: kernel time on GPU = {:.2} s, implicit host blocking = {:.2} s",
        profile.time_of("@CUDA_EXEC_STRM00"),
        profile.host_idle_time(),
    );
}

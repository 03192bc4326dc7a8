//! The unified export pipeline: one canonical view of a run, many renderings.
//!
//! The paper's §II reporting layer emits one profile through several
//! renderings (banner, XML log, `ipm_parse` HTML/CUBE). This module is the
//! single entry point for all of them: an [`ExportSource`] holds the
//! canonical per-rank view (profile + trace records + device ground truth +
//! clock epoch), an [`Exporter`] turns that view into one output format,
//! and the [`Export`] builder assembles the source from whatever the caller
//! has on hand — a live [`Ipm`] context, parsed XML logs, or raw pieces.
//!
//! ```text
//!   Ipm ──┐
//!   XML ──┼─► Export (builder) ─► ExportSource ─► Exporter::render ─► String
//!   raw ──┘        .rank(..)        per-rank:        Banner
//!                  .with_trace(..)   profile          RegionReport
//!                  .with_epoch(..)   records          Xml
//!                  .nodes(..)        prof             Html
//!                  .to(backend) ──►  epoch            Cube, CubeXml
//!                                                     ChromeTrace
//!                                                     Otlp  (feature "otlp")
//! ```
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ipm_core::export::{Banner, ChromeTrace, Export, Xml};
//! use ipm_core::{Ipm, IpmConfig, IpmCuda};
//! use ipm_gpu_sim::{CudaApi, GpuConfig, GpuRuntime};
//!
//! let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
//! let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
//! let cuda = IpmCuda::new(ipm.clone(), rt);
//! let dev = cuda.cuda_malloc(1024).unwrap();
//! cuda.cuda_free(dev).unwrap();
//!
//! let banner = Export::from(&ipm).max_rows(10).to(Banner).unwrap();
//! assert!(banner.contains("cudaMalloc"));
//! let xml = Export::from(&ipm).to(Xml).unwrap();
//! let trace = Export::from(&ipm).to(ChromeTrace).unwrap();
//! ```

pub mod chrome;
#[cfg(feature = "otlp")]
pub mod otlp;

pub use chrome::{validate_chrome_trace, TraceStats};
#[cfg(feature = "otlp")]
pub use otlp::{validate_otlp, OtlpStats};

use crate::aggregate::ClusterReport;
use crate::cube::{build_cube, cube_to_xml, render_cube_text};
use crate::monitor::Ipm;
use crate::profile::RankProfile;
use crate::trace::TraceRecord;
use ipm_gpu_sim::ProfRecord;
use std::sync::Arc;

/// One rank's slice of the canonical export view.
#[derive(Clone, Debug, Default)]
pub struct ExportRank {
    pub rank: usize,
    /// Host name (Perfetto process label, OTLP `host.name`).
    pub host: String,
    /// This rank's clock-alignment epoch, virtual seconds: the shared
    /// cluster instant (first `MPI_Init` return) expressed on the rank's
    /// own clock. The trace exporters subtract it from every timestamp, so
    /// merged multi-rank lanes line up at `ts = 0` even when ranks booted
    /// at different absolute times. 0 means unaligned (single-rank export
    /// or pre-epoch logs).
    pub epoch: f64,
    /// Host-side trace records (drained or snapshotted from the ring).
    pub records: Vec<TraceRecord>,
    /// Device-side ground truth from the simulator profiler. When present,
    /// device lanes are built from these (they include memcpys and carry
    /// true durations); the ring's `KernelExec` records are the fallback
    /// when the profiler was disabled.
    pub prof: Vec<ProfRecord>,
    /// The aggregated profile (hash-table contents + monitor
    /// self-accounting). Absent for trace-only sources.
    pub profile: Option<RankProfile>,
}

impl ExportRank {
    pub(crate) fn from_profile(p: RankProfile) -> Self {
        ExportRank {
            rank: p.rank,
            host: p.host.clone(),
            epoch: 0.0,
            records: Vec::new(),
            prof: Vec::new(),
            profile: Some(p),
        }
    }
}

/// Host and device records of `ranks`.
fn records(ranks: &[ExportRank]) -> usize {
    ranks.iter().map(|r| r.records.len() + r.prof.len()).sum()
}

/// An empty output buffer for a trace rendering of `ranks`, reserved at
/// `bytes_per_record` per host and device record, so the document is not
/// regrown and copied while it is written.
fn trace_buffer(ranks: &[ExportRank], bytes_per_record: usize) -> String {
    String::with_capacity(4096 + records(ranks) * bytes_per_record)
}

/// Records a multi-rank trace rendering, or a multi-log parse, must hold
/// before its parts go to several threads. In three runs of
/// `thread_crossover_table` (below) on a 2-vCPU VM, a two-rank Chrome or
/// OTLP rendering was faster on two threads than on one at every size
/// from 2,048 to 131,072 records (OTLP at 16,384: 4.1–4.9 → 3.3–4.2 ms),
/// and two threads read two 76,703-event logs in about half the time of
/// one. Below this size a rendering takes a few ms; the threshold keeps
/// it off threads and off `available_parallelism`.
pub(crate) const PARALLEL_RECORDS: usize = 1 << 14;

/// How many threads a job over `parts` parts (ranks, logs) that hold
/// `records` records in all uses: one for a single part or fewer than
/// [`PARALLEL_RECORDS`] records, else one per core up to one per part.
/// The record count is checked first because `available_parallelism`
/// reads cgroup files, which would cost an empty export more than its
/// render.
pub(crate) fn threads_for(parts: usize, records: usize) -> usize {
    if parts < 2 || records < PARALLEL_RECORDS {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(parts)
}

/// Cut `items` into at most `threads` contiguous chunks of equal item
/// count and return `work(at, chunk, prepare(at, chunk))` for the first
/// chunk and for each other one in order, where `at` is the index of the
/// chunk's first item. The first chunk runs on the calling thread; each
/// other one runs on a scoped thread of its own (or on the calling
/// thread, if the OS refuses the thread). A panic in any chunk reaches the
/// caller.
///
/// `prepare` runs on the calling thread, before the chunk's thread starts:
/// a buffer the helper allocated itself would come from that thread's own
/// malloc arena, whose pages outlive the thread and add to the process's
/// peak resident set.
pub(crate) fn fan_out<T, S, R>(
    items: &[T],
    threads: usize,
    mut prepare: impl FnMut(usize, &[T]) -> S,
    work: impl Fn(usize, &[T], S) -> R + Sync,
) -> (R, Vec<R>)
where
    T: Sync,
    S: Send,
    R: Send,
{
    let per = items.len().div_ceil(threads.max(1)).max(1);
    let mut chunks = items.chunks(per);
    let head = chunks.next().unwrap_or_default();
    let head_state = prepare(0, head);
    let work = &work;
    if chunks.len() == 0 {
        return (work(0, head, head_state), Vec::new());
    }
    std::thread::scope(|s| {
        let helpers: Vec<_> = chunks
            .enumerate()
            .map(|(k, chunk)| {
                let at = (k + 1) * per;
                let run = move |state| work(at, chunk, state);
                let state = prepare(at, chunk);
                std::thread::Builder::new()
                    .spawn_scoped(s, move || run(state))
                    .map_err(|_| run(prepare(at, chunk)))
            })
            .collect();
        let head = work(0, head, head_state);
        let rest = helpers
            .into_iter()
            .map(|helper| {
                helper.map_or_else(
                    |result| result,
                    |h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
                )
            })
            .collect();
        (head, rest)
    })
}

/// Render every rank into `out` in rank order, calling
/// `render(out, index, rank)` once per rank, on up to `threads` threads
/// (see [`fan_out`]): the first chunk of ranks renders into `out`, each
/// other one into its own buffer, and the buffers are appended in order,
/// so the output is the same for every thread count.
fn render_ranks<F>(
    out: &mut String,
    ranks: &[ExportRank],
    bytes_per_record: usize,
    threads: usize,
    render: F,
) where
    F: Fn(&mut String, usize, &ExportRank) + Sync,
{
    let (head, rest) = fan_out(
        ranks,
        threads,
        |at, chunk| match at {
            0 => std::mem::take(&mut *out),
            _ => trace_buffer(chunk, bytes_per_record),
        },
        |at, chunk, mut buf| {
            for (i, r) in chunk.iter().enumerate() {
                render(&mut buf, at + i, r);
            }
            buf
        },
    );
    *out = head;
    for buf in rest {
        out.push_str(&buf);
    }
}

/// The canonical view every exporter renders: per-rank data plus the few
/// presentation knobs the text renderings take.
#[derive(Clone, Debug, Default)]
pub struct ExportSource {
    pub ranks: Vec<ExportRank>,
    /// Node count for cluster renderings; `None` means "infer from the
    /// distinct host names".
    pub nodes: Option<usize>,
    /// Row cap for the banner/region tables (0 = renderer default).
    pub max_rows: usize,
}

impl ExportSource {
    /// Node count: the explicit override, else the number of distinct
    /// non-empty host names (at least 1).
    pub fn node_count(&self) -> usize {
        self.nodes.unwrap_or_else(|| {
            let hosts: std::collections::HashSet<&str> = self
                .ranks
                .iter()
                .map(|r| r.host.as_str())
                .filter(|h| !h.is_empty())
                .collect();
            hosts.len().max(1)
        })
    }

    /// The profiles present, in rank order.
    pub fn profiles(&self) -> Vec<RankProfile> {
        self.ranks
            .iter()
            .filter_map(|r| r.profile.clone())
            .collect()
    }

    fn require_profiles(&self) -> Result<Vec<RankProfile>, ExportError> {
        if self.ranks.is_empty() {
            return Err(ExportError::NoRanks);
        }
        if let Some(r) = self.ranks.iter().find(|r| r.profile.is_none()) {
            return Err(ExportError::MissingProfile { rank: r.rank });
        }
        Ok(self.profiles())
    }
}

/// Why an export could not be rendered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExportError {
    /// The source holds no ranks at all.
    NoRanks,
    /// The requested rendering needs a profile this rank does not carry
    /// (trace-only source fed to a profile rendering).
    MissingProfile { rank: usize },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::NoRanks => write!(f, "export source holds no ranks"),
            ExportError::MissingProfile { rank } => {
                write!(f, "rank {rank} carries no profile for this rendering")
            }
        }
    }
}

impl std::error::Error for ExportError {}

/// One output format of the pipeline. Implementations render the whole
/// canonical view; they never see the raw `(profile, trace, epoch)` tuples
/// the pre-pipeline free functions used to take.
pub trait Exporter {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError>;
}

/// The banner rendering: the single-rank banner (paper Fig. 6) for one
/// profile, the cluster banner (Fig. 11) when several ranks are present.
pub struct Banner;

impl Exporter for Banner {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        let profiles = src.require_profiles()?;
        if profiles.len() == 1 {
            Ok(crate::banner::render_banner(&profiles[0], src.max_rows))
        } else {
            let report = ClusterReport::from_profiles(profiles, src.node_count());
            Ok(crate::banner::render_cluster_banner(&report, src.max_rows))
        }
    }
}

/// The per-region breakdown report for a single rank.
pub struct RegionReport;

impl Exporter for RegionReport {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        let profiles = src.require_profiles()?;
        Ok(crate::banner::render_region_report(
            &profiles[0],
            src.max_rows,
        ))
    }
}

/// The XML profiling log: one `<task>` document per rank (the on-disk
/// format `ipm_parse` consumes), embedded trace section included.
pub struct Xml;

impl Exporter for Xml {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        if src.ranks.is_empty() {
            return Err(ExportError::NoRanks);
        }
        let mut out = trace_buffer(&src.ranks, crate::xml::EVENT_BYTES);
        for r in &src.ranks {
            let p = r
                .profile
                .as_ref()
                .ok_or(ExportError::MissingProfile { rank: r.rank })?;
            crate::xml::write_xml(&mut out, p, &r.records, r.epoch);
        }
        Ok(out)
    }
}

/// The `ipm_parse -html`-style report page.
pub struct Html;

impl Exporter for Html {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        let profiles = src.require_profiles()?;
        Ok(crate::parse::html_report(&profiles, src.node_count()))
    }
}

/// The `ipm_parse -cube` view: the CUBE metric tree (paper Fig. 9) as
/// text, one line per node with its per-rank distribution.
pub struct Cube;

impl Exporter for Cube {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        let report = ClusterReport::from_profiles(src.require_profiles()?, src.node_count());
        Ok(render_cube_text(&build_cube(&report)))
    }
}

/// The `ipm_parse -cubexml` document: the CUBE metric tree and the
/// system tree (ranks and their hosts) as CUBE-like XML.
pub struct CubeXml;

impl Exporter for CubeXml {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        let report = ClusterReport::from_profiles(src.require_profiles()?, src.node_count());
        Ok(cube_to_xml(&build_cube(&report), &report))
    }
}

/// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
pub struct ChromeTrace;

impl Exporter for ChromeTrace {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        if src.ranks.is_empty() {
            return Err(ExportError::NoRanks);
        }
        let threads = threads_for(src.ranks.len(), records(&src.ranks));
        Ok(chrome::chrome_trace_json(&src.ranks, threads))
    }
}

/// OTLP-shaped trace JSON (`resourceSpans`), for feeding standard
/// OpenTelemetry collectors. Only present with the `otlp` feature.
#[cfg(feature = "otlp")]
pub struct Otlp;

#[cfg(feature = "otlp")]
impl Exporter for Otlp {
    fn render(&self, src: &ExportSource) -> Result<String, ExportError> {
        if src.ranks.is_empty() {
            return Err(ExportError::NoRanks);
        }
        let threads = threads_for(src.ranks.len(), records(&src.ranks));
        Ok(otlp::otlp_trace_json(src, threads))
    }
}

/// Builder assembling an [`ExportSource`] and handing it to an exporter.
///
/// Rank-scoped setters (`with_trace`, `with_prof`, `with_epoch`) apply to
/// the most recently added rank, so a multi-rank source reads as a flat
/// chain: `.rank(p0).with_trace(t0).rank(p1).with_trace(t1)`.
#[derive(Clone, Debug, Default)]
pub struct Export {
    src: ExportSource,
}

impl Export {
    /// An empty source; add ranks with [`Export::rank`] /
    /// [`Export::with_trace_rank`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A source with one profiled rank.
    pub fn from_profile(p: RankProfile) -> Self {
        Export::new().rank(p)
    }

    /// A source with one profiled rank per element, in iteration order.
    pub fn from_profiles(ps: impl IntoIterator<Item = RankProfile>) -> Self {
        ps.into_iter().fold(Export::new(), Export::rank)
    }

    /// Append one rank from its profile.
    pub fn rank(mut self, p: RankProfile) -> Self {
        self.src.ranks.push(ExportRank::from_profile(p));
        self
    }

    /// Append one rank as given (a trace-only rank leaves `profile` empty).
    pub fn with_trace_rank(mut self, r: ExportRank) -> Self {
        self.src.ranks.push(r);
        self
    }

    /// Attach trace records to the last added rank (creates a bare rank 0
    /// if none exists yet).
    pub fn with_trace(mut self, records: Vec<TraceRecord>) -> Self {
        self.last_rank().records = records;
        self
    }

    /// Attach device profiler ground truth to the last added rank.
    pub fn with_prof(mut self, prof: Vec<ProfRecord>) -> Self {
        self.last_rank().prof = prof;
        self
    }

    /// Set the clock-alignment epoch of the last added rank.
    pub fn with_epoch(mut self, epoch: f64) -> Self {
        self.last_rank().epoch = epoch;
        self
    }

    /// Override the node count used by cluster renderings.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.src.nodes = Some(nodes);
        self
    }

    /// Cap table rows in the banner/region renderings (0 = no cap).
    pub fn max_rows(mut self, rows: usize) -> Self {
        self.src.max_rows = rows;
        self
    }

    /// The assembled canonical view.
    pub fn source(&self) -> &ExportSource {
        &self.src
    }

    /// Render through the given backend.
    pub fn to<E: Exporter>(&self, exporter: E) -> Result<String, ExportError> {
        exporter.render(&self.src)
    }

    fn last_rank(&mut self) -> &mut ExportRank {
        if self.src.ranks.is_empty() {
            self.src.ranks.push(ExportRank::default());
        }
        self.src.ranks.last_mut().expect("non-empty")
    }
}

/// Capture a live context: its profile, a trace snapshot (the ring is left
/// intact — use [`Ipm::drain_trace`] + [`Export::with_trace`] to consume
/// instead), and its clock epoch.
impl From<&Ipm> for Export {
    fn from(ipm: &Ipm) -> Self {
        let profile = ipm.profile();
        let records = ipm.trace_snapshot();
        let epoch = ipm.epoch();
        Export::from_profile(profile)
            .with_trace(records)
            .with_epoch(epoch)
    }
}

impl From<&Arc<Ipm>> for Export {
    fn from(ipm: &Arc<Ipm>) -> Self {
        Export::from(ipm.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::IpmConfig;
    use ipm_gpu_sim::{CudaApi, GpuConfig, GpuRuntime};

    fn live_ipm() -> Arc<Ipm> {
        let rt = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
        let ipm = Ipm::new(rt.clock().clone(), IpmConfig::default());
        ipm.set_metadata(0, 1, "dirac00", "./cuda.ipm");
        let cuda = crate::cuda_mon::IpmCuda::new(ipm.clone(), rt);
        let dev = cuda.cuda_malloc(4096).unwrap();
        cuda.cuda_free(dev).unwrap();
        ipm
    }

    #[test]
    fn builder_from_live_context_feeds_every_backend() {
        let ipm = live_ipm();
        let banner = Export::from(&ipm).max_rows(10).to(Banner).unwrap();
        assert!(banner.contains("cudaMalloc"), "{banner}");

        let xml = Export::from(&ipm).to(Xml).unwrap();
        let parsed = crate::parse::export_from_xml(&[xml]).expect("roundtrip");
        assert_eq!(parsed.source().ranks[0].host, "dirac00");

        let chrome = Export::from(&ipm).to(ChromeTrace).unwrap();
        validate_chrome_trace(&chrome).expect("valid chrome trace");

        let html = Export::from(&ipm).to(Html).unwrap();
        assert!(html.contains("<html"), "{html}");

        let cube = Export::from(&ipm).to(Cube).unwrap();
        assert!(cube.contains("API time"), "{cube}");
        let cube_xml = Export::from(&ipm).to(CubeXml).unwrap();
        assert!(cube_xml.contains("host=\"dirac00\""), "{cube_xml}");

        let regions = Export::from(&ipm).to(RegionReport).unwrap();
        assert!(!regions.is_empty());
    }

    #[test]
    fn snapshot_capture_leaves_the_ring_intact() {
        let ipm = live_ipm();
        let before = ipm.monitor_info().trace_captured;
        let _ = Export::from(&ipm).to(ChromeTrace).unwrap();
        assert_eq!(ipm.monitor_info().trace_captured, before);
    }

    #[test]
    fn multi_rank_source_renders_the_cluster_banner() {
        let mut p0 = live_ipm().profile();
        p0.rank = 0;
        p0.nranks = 2;
        let mut p1 = p0.clone();
        p1.rank = 1;
        p1.host = "dirac01".to_owned();
        let banner = Export::from_profiles([p0, p1]).to(Banner).unwrap();
        assert!(banner.contains("# mpi_tasks : 2 on"), "{banner}");
    }

    #[test]
    fn profile_renderings_reject_trace_only_sources() {
        let t = ExportRank {
            rank: 3,
            ..ExportRank::default()
        };
        let e = Export::new().with_trace_rank(t);
        assert_eq!(
            e.to(Banner).unwrap_err(),
            ExportError::MissingProfile { rank: 3 }
        );
        assert_eq!(Export::new().to(Banner).unwrap_err(), ExportError::NoRanks);
        assert_eq!(
            Export::new().to(ChromeTrace).unwrap_err(),
            ExportError::NoRanks
        );
    }

    /// Rank `rank` with `launches` launch/kernel pairs (none: a rank
    /// without records), its device lanes fed by the profiler when `prof`,
    /// and a profile (OTLP labels the rank with its command).
    fn traced_rank(rank: usize, launches: usize, prof: bool) -> ExportRank {
        let mut r = chrome::tests::launch_storm(launches);
        r.rank = rank;
        r.host = format!("dirac{rank:02}");
        r.epoch = rank as f64 * 0.25;
        if launches > 0 {
            r.records.push(TraceRecord {
                kind: crate::trace::TraceKind::Call,
                name: "cudaGetLastError",
                detail: None,
                begin: 1.0,
                end: 1.1,
                bytes: 0,
                region: 0,
                stream: None,
                corr: 0,
                agg: Some(crate::compact::TraceAgg {
                    count: 3,
                    total: 2.5e-2,
                    min: 5e-3,
                    max: 1e-2,
                    exemplar: (1.0, 1.01),
                }),
            });
        }
        if prof {
            r.prof = r
                .records
                .iter()
                .filter(|t| t.kind == crate::trace::TraceKind::KernelExec)
                .map(|t| ProfRecord {
                    method: t.detail.unwrap_or(t.name).to_owned(),
                    kind: ipm_gpu_sim::ProfKind::Kernel,
                    stream: ipm_gpu_sim::StreamId(t.stream.unwrap_or(0)),
                    start: t.begin,
                    gputime: t.end - t.begin,
                    cputime: 1e-6,
                    corr: t.corr,
                })
                .collect();
        }
        r.profile = Some(RankProfile {
            rank,
            nranks: 1,
            host: r.host.clone(),
            command: "storm".to_owned(),
            wallclock: 1.5,
            regions: vec!["<program>".to_owned()],
            entries: Vec::new(),
            dropped_events: 0,
            monitor: Default::default(),
        });
        r
    }

    #[test]
    fn rendering_on_several_threads_is_byte_identical() {
        // launches per rank such that two such ranks pass the threshold
        let big = PARALLEL_RECORDS / 4 + 1;
        let cases: Vec<Vec<ExportRank>> = vec![
            vec![traced_rank(0, 40, false)],
            vec![traced_rank(0, big, false), traced_rank(1, big, true)],
            vec![
                traced_rank(0, 30, true),
                traced_rank(1, 0, false),
                traced_rank(2, 50, false),
            ],
            (0..5)
                .map(|r| traced_rank(r, [10, 0, 0, 200, 3][r], r % 2 == 1))
                .collect(),
            (0..9)
                .map(|r| traced_rank(r, if r == 4 { 2 * big } else { r * 7 }, r % 3 == 0))
                .collect(),
        ];
        let mut above = 0;
        for ranks in cases {
            let src = ExportSource {
                ranks,
                ..ExportSource::default()
            };
            let n = src.ranks.len();
            above += usize::from(records(&src.ranks) >= PARALLEL_RECORDS);
            let chrome = chrome::chrome_trace_json(&src.ranks, 1);
            validate_chrome_trace(&chrome).expect("valid chrome trace");
            #[cfg(feature = "otlp")]
            let otlp = otlp::otlp_trace_json(&src, 1);
            for threads in [2, 3, 4, 16] {
                let what = format!("{n} ranks on {threads} threads");
                assert!(
                    chrome::chrome_trace_json(&src.ranks, threads) == chrome,
                    "chrome, {what}"
                );
                #[cfg(feature = "otlp")]
                assert!(otlp::otlp_trace_json(&src, threads) == otlp, "otlp, {what}");
            }
            // the backends pick their own thread count
            assert!(ChromeTrace.render(&src).unwrap() == chrome);
            #[cfg(feature = "otlp")]
            assert!(Otlp.render(&src).unwrap() == otlp);
        }
        assert_eq!(above, 2, "cases on both sides of the threshold");
    }

    /// The 1 → 2 thread table behind [`PARALLEL_RECORDS`]: two ranks of
    /// launch/kernel pairs, the best of 60 interleaved renders per thread
    /// count. It times rather than checks, so it only runs when asked:
    /// `cargo test --release -p ipm-core --lib thread_crossover_table --
    /// --ignored --nocapture`.
    #[test]
    #[ignore = "a timing table, not a check"]
    fn thread_crossover_table() {
        use std::time::Instant;
        println!("| records | Chrome 1 → 2 threads | OTLP 1 → 2 threads |");
        for records in [2_048, 4_096, 16_384, 65_536, 131_072] {
            let src = ExportSource {
                ranks: vec![
                    traced_rank(0, records / 4, false),
                    traced_rank(1, records / 4, false),
                ],
                ..ExportSource::default()
            };
            // best ms of [Chrome, OTLP] on [1, 2] threads
            let mut best = [[f64::INFINITY; 2]; 2];
            for _ in 0..60 {
                for threads in [1, 2] {
                    let t = Instant::now();
                    std::hint::black_box(chrome::chrome_trace_json(&src.ranks, threads));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    best[0][threads - 1] = best[0][threads - 1].min(ms);
                    #[cfg(feature = "otlp")]
                    {
                        let t = Instant::now();
                        std::hint::black_box(otlp::otlp_trace_json(&src, threads));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        best[1][threads - 1] = best[1][threads - 1].min(ms);
                    }
                }
            }
            let [chrome, otlp] = best;
            println!(
                "| {records} | {:.2} → {:.2} ms | {:.2} → {:.2} ms |",
                chrome[0], chrome[1], otlp[0], otlp[1]
            );
        }
    }

    #[test]
    fn node_count_is_inferred_from_distinct_hosts() {
        let mk = |rank: usize, host: &str| {
            let mut p = live_ipm().profile();
            p.rank = rank;
            p.host = host.to_owned();
            p
        };
        let e = Export::from_profiles([mk(0, "a"), mk(1, "a"), mk(2, "b")]);
        assert_eq!(e.source().node_count(), 2);
        assert_eq!(e.nodes(3).source().node_count(), 3);
    }
}

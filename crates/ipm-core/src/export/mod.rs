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
//!                                                     Otlp
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
pub mod otlp;

pub use chrome::{validate_chrome_trace, TraceStats};
pub use otlp::{validate_otlp, OtlpStats};

use crate::aggregate::ClusterReport;
use crate::cube::{build_cube, cube_to_xml, render_cube_text};
use crate::monitor::Ipm;
use crate::profile::RankProfile;
use crate::trace::TraceRecord;
use crate::xml::{ENTRY_BYTES, EVENT_BYTES};
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

/// An empty output buffer for a document of about `bytes` bytes, reserved
/// up front so the document is not regrown and copied while it is
/// written. Every large document the exporters write comes from here, and
/// its whole huge pages are advised as such (see [`advise_huge_pages`]).
fn trace_buffer(bytes: usize) -> String {
    let out = String::with_capacity(4096 + bytes);
    advise_huge_pages(&out);
    out
}

/// The size of a transparent huge page (x86-64, and aarch64 with 4 KiB
/// base pages).
const HUGE_PAGE: usize = 2 << 20;

/// The whole [`HUGE_PAGE`]-aligned pages inside `[addr, addr + len)`, as
/// `(start, len)`, or `None` when not one fits.
fn huge_range(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

/// Ask the kernel to back the whole 2 MiB pages of `buf`'s allocation
/// with transparent huge pages. A document of tens of MB written into
/// fresh 4 KiB pages spends much of its time faulting them in, at about
/// 2 µs a page, and faults on two threads do not overlap; a 2 MiB page
/// is one fault, which costs 3.5× less per byte (EXPERIMENTS.md, "Trace
/// and log documents in 2 MiB pages"). A buffer holding no whole aligned
/// page makes no call. The advice is advice only: its error is ignored,
/// and off Linux (or under Miri) it is not given.
fn advise_huge_pages(buf: &String) {
    let Some((start, len)) = huge_range(buf.as_ptr() as usize, buf.capacity()) else {
        return;
    };
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `huge_range` keeps `[start, start + len)` inside
        // `[ptr, ptr + capacity)`, the allocation `buf` owns, and
        // `MADV_HUGEPAGE` changes how its pages are backed, not what they
        // hold: nothing is read, written or unmapped.
        unsafe {
            madvise(start as *mut c_void, len, MADV_HUGEPAGE);
        }
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = (start, len);
}

/// Records a multi-rank trace rendering, or a multi-log parse, must hold
/// before its parts go to several threads. In three runs of
/// `thread_crossover_table` (below) on a 2-vCPU VM, output buffers
/// hinted into huge pages, a two-rank Chrome or OTLP rendering was faster
/// on two threads than on one at every size from 2,048 to 131,072
/// records (OTLP at 16,384: 3.6–6.6 → 2.5–3.7 ms; at 131,072: 40–41 →
/// 26–27 ms), and two threads read two 76,703-event logs in about half
/// the time of one. Below this size a rendering takes a few ms; the
/// threshold keeps it off threads and off `available_parallelism`.
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
            _ => trace_buffer(records(chunk) * bytes_per_record),
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
        // an `<event>` per record, and an `<entry>` per signature of the
        // `<hash>` or a `<region>` per region
        let bytes = src
            .ranks
            .iter()
            .map(|r| {
                let p = r.profile.as_ref();
                let entries = p.map_or(0, |p| p.entries.len() + p.regions.len());
                r.records.len() * EVENT_BYTES + entries * ENTRY_BYTES
            })
            .sum();
        let mut out = trace_buffer(bytes);
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
/// OpenTelemetry collectors.
pub struct Otlp;

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
    use proptest::prelude::*;

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
                agg: Some(Box::new(crate::compact::TraceAgg {
                    count: 3,
                    total: 2.5e-2,
                    min: 5e-3,
                    max: 1e-2,
                    exemplar: (1.0, 1.01),
                })),
            });
        }
        if prof {
            r.prof = r
                .records
                .iter()
                .filter(|t| t.kind == crate::trace::TraceKind::KernelExec)
                .map(|t| ProfRecord {
                    method: t.detail_name().unwrap_or(t.name).to_owned(),
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
            let otlp = otlp::otlp_trace_json(&src, 1);
            for threads in [2, 3, 4, 16] {
                let what = format!("{n} ranks on {threads} threads");
                assert!(
                    chrome::chrome_trace_json(&src.ranks, threads) == chrome,
                    "chrome, {what}"
                );
                assert!(otlp::otlp_trace_json(&src, threads) == otlp, "otlp, {what}");
            }
            // the backends pick their own thread count
            assert!(ChromeTrace.render(&src).unwrap() == chrome);
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
                    let t = Instant::now();
                    std::hint::black_box(otlp::otlp_trace_json(&src, threads));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    best[1][threads - 1] = best[1][threads - 1].min(ms);
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
    fn huge_range_holds_only_whole_aligned_pages() {
        const H: usize = HUGE_PAGE;
        assert_eq!(huge_range(0, 0), None);
        assert_eq!(huge_range(0, H - 1), None);
        assert_eq!(huge_range(H, H - 1), None);
        assert_eq!(huge_range(1, 2 * H - 2), None, "straddles one boundary");
        assert_eq!(huge_range(0, H), Some((0, H)));
        assert_eq!(huge_range(1, 2 * H - 1), Some((H, H)));
        assert_eq!(huge_range(H - 4096, 3 * H), Some((H, 2 * H)));
        assert_eq!(huge_range(usize::MAX - H, H), None, "no page past the top");
        assert_eq!(huge_range(usize::MAX, 2), None, "the end overflows");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn huge_range_stays_inside_the_buffer_on_aligned_pages(
            addr in 0usize..(1 << 47),
            len in 0usize..(1 << 26),
        ) {
            const H: usize = HUGE_PAGE;
            let first = addr.next_multiple_of(H);
            match huge_range(addr, len) {
                Some((start, n)) => {
                    prop_assert!(addr <= start && start + n <= addr + len);
                    prop_assert!(start % H == 0 && n % H == 0 && n > 0);
                    // every whole aligned page is in the range
                    prop_assert_eq!(start, first);
                    prop_assert!(addr + len - (start + n) < H);
                }
                None => prop_assert!(first + H > addr + len),
            }
        }
    }

    /// The flags of the mapping in `/proc/self/smaps` that holds `addr`.
    #[cfg(all(target_os = "linux", not(miri)))]
    fn vm_flags(addr: usize) -> Option<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut holds = false;
        for line in smaps.lines() {
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                if holds {
                    return Some(flags.trim().to_owned());
                }
            } else if let Some((lo, hi)) = line
                .split_once(' ')
                .and_then(|(range, _)| range.split_once('-'))
            {
                // a mapping's first line: `lo-hi perms offset ...`
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    holds = (lo..hi).contains(&addr);
                }
            }
        }
        None
    }

    /// Check that the mapping holding each document's first whole 2 MiB
    /// page is advised for huge pages (`hg`), or print why the kernel
    /// cannot give them. Reads `/proc` and `/sys` only.
    #[cfg(all(target_os = "linux", not(miri)))]
    fn assert_hinted(docs: &[(&str, String, usize)]) {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        match thp {
            Err(e) => return println!("no transparent huge pages ({e}): VmFlags not checked"),
            Ok(mode) if mode.contains("[never]") => {
                return println!("transparent huge pages are `never`: VmFlags not checked")
            }
            Ok(_) if status.contains("THP_enabled:\t0") => {
                return println!("this process has THP disabled: VmFlags not checked")
            }
            Ok(_) => {}
        }
        for (what, doc, _) in docs {
            let (start, _) = huge_range(doc.as_ptr() as usize, doc.capacity()).unwrap();
            let flags = vm_flags(start).expect("a mapping holds the buffer");
            assert!(
                flags.split_whitespace().any(|f| f == "hg"),
                "{what}: VmFlags {flags}"
            );
        }
    }

    #[test]
    fn every_document_is_written_into_its_hinted_buffer() {
        // two ranks of 2 × PARALLEL_RECORDS / 2 records each, rendered on
        // two threads, so each helper's chunk is a hinted buffer too
        let src = ExportSource {
            ranks: vec![
                traced_rank(0, PARALLEL_RECORDS / 2, false),
                traced_rank(1, PARALLEL_RECORDS / 2, true),
            ],
            ..ExportSource::default()
        };
        let n = records(&src.ranks);
        let log = ExportSource {
            ranks: vec![traced_rank(0, PARALLEL_RECORDS, false)],
            ..ExportSource::default()
        };
        let log_records = log.ranks[0].records.len();
        assert!(log_records >= PARALLEL_RECORDS);
        let docs = [
            (
                "Chrome",
                chrome::chrome_trace_json(&src.ranks, 2),
                4096 + n * chrome::RECORD_BYTES,
            ),
            (
                "OTLP",
                otlp::otlp_trace_json(&src, 2),
                4096 + n * otlp::SPAN_BYTES,
            ),
            (
                "XML",
                Xml.render(&log).unwrap(),
                // its `<event>`s and its one `<region>`
                4096 + log_records * EVENT_BYTES + ENTRY_BYTES,
            ),
        ];
        for (what, doc, reserved) in &docs {
            // it never outgrew its first reservation, so it was never
            // copied out of the hinted buffer
            assert_eq!(doc.capacity(), *reserved, "{what}: {} bytes", doc.len());
            assert!(*reserved >= 2 * HUGE_PAGE, "{what} holds a whole huge page");
        }

        #[cfg(all(target_os = "linux", not(miri)))]
        assert_hinted(&docs);
    }

    #[test]
    fn a_log_of_ten_thousand_signatures_fits_its_reservation() {
        let mut p = traced_rank(0, 0, false).profile.unwrap();
        p.entries = (0..10_000u64)
            .map(|i| {
                let mut stats = ipm_sim_core::RunningStats::new();
                stats.record(1.25e-3 * i as f64);
                stats.record(3.5e-6);
                crate::profile::ProfileEntry {
                    name: "@CUDA_EXEC_STRM03".to_owned(),
                    detail: Some(format!("scatter_kernel_{i}<float, 4>")),
                    bytes: i * 4096,
                    region: 0,
                    stats,
                }
            })
            .collect();
        let reserved = 4096 + (p.entries.len() + p.regions.len()) * ENTRY_BYTES;
        let xml = Export::from_profile(p).to(Xml).unwrap();
        assert_eq!(xml.capacity(), reserved, "{} bytes", xml.len());
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

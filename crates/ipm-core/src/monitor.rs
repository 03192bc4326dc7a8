//! The per-rank IPM context.
//!
//! One [`Ipm`] instance lives in each monitored process (MPI rank). It owns
//! the performance hash table, the kernel timing table, the user-region
//! stack, and the run metadata, and it is the [`MonitorSink`] all generated
//! wrappers report into. The monitored API facades
//! ([`crate::cuda_mon::IpmCuda`] and friends) share it via `Arc`.

use crate::compact::CompactPolicy;
use crate::ktt::{Ktt, KttCheckPolicy};
use crate::profile::{classify, EventFamily, MonitorInfo, ProfileEntry, RankProfile};
use crate::sig::SigKey;
use crate::table::PerfTable;
use crate::trace::{TraceCounters, TraceKind, TraceRecord, TraceRing};
use ipm_interpose::{site, CallHandle, CallId, MonitorSink, NameTable};
use ipm_sim_core::SimClock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Self-accounting sampling period: one recorded event in this many gets
/// a real `Instant` bracket around its bookkeeping, booked at `×SELF_SAMPLE`
/// weight. See [`Ipm::self_begin`].
const SELF_SAMPLE: u64 = 64;

/// Ceiling on a single sampled bookkeeping measurement. The bracket meters
/// monitor code that costs well under a microsecond; a reading beyond this
/// caught a scheduler preemption, not bookkeeping, and scaling it by
/// [`SELF_SAMPLE`] would let one descheduled sample dominate the reported
/// self cost.
const SELF_CLAMP_NS: u64 = 10_000;

/// Kernel timing table slots.
const KTT_CAPACITY: usize = 1024;

/// Monitoring configuration (what the paper toggles between Figs. 4/5/6).
#[derive(Clone, Copy, Debug)]
pub struct IpmConfig {
    /// Time GPU kernels via the event API (§III-B; Fig. 5).
    pub gpu_timing: bool,
    /// Identify implicit host blocking (§III-C; Fig. 6).
    pub host_idle: bool,
    /// When to sweep the KTT.
    pub ktt_policy: KttCheckPolicy,
    /// Optional per-invocation correction subtracted from event-bracketed
    /// kernel durations (the paper's "future work" overhead correction,
    /// evaluated as an ablation of Table I).
    pub exec_time_correction: Option<f64>,
    /// Trace-ring capacity in records; 0 disables event tracing entirely
    /// (the aggregate-only mode of the original paper).
    pub trace_capacity: usize,
    /// Trace retention policy: once the ring holds its high-water mark of
    /// records, adjacent same-signature records merge into summary
    /// records instead of the ring dropping once full. Disabled by default.
    pub trace_compaction: CompactPolicy,
}

impl Default for IpmConfig {
    fn default() -> Self {
        Self {
            gpu_timing: true,
            host_idle: true,
            ktt_policy: KttCheckPolicy::D2hOnly,
            exec_time_correction: None,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
            trace_compaction: CompactPolicy::DISABLED,
        }
    }
}

impl IpmConfig {
    /// Host-side timing only (the Fig. 4 configuration).
    pub fn host_timing_only() -> Self {
        Self {
            gpu_timing: false,
            host_idle: false,
            ..Self::default()
        }
    }

    /// Host timing + GPU kernel timing, no host-idle (Fig. 5).
    pub fn with_gpu_timing_only() -> Self {
        Self {
            gpu_timing: true,
            host_idle: false,
            ..Self::default()
        }
    }

    /// Disable the trace ring (aggregate-only monitoring, the paper's
    /// original mode; the baseline of the trace-overhead bench).
    pub fn without_tracing(mut self) -> Self {
        self.trace_capacity = 0;
        self
    }

    /// Enable trace compaction: once `high_water` records are resident in
    /// the rank's ring, pushes merge adjacent same-signature records into
    /// summaries instead of eventually dropping.
    pub fn with_trace_compaction(mut self, high_water: usize) -> Self {
        self.trace_compaction = CompactPolicy::with_high_water(high_water);
        self
    }
}

/// Per-family activity since the previous snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FamilyDelta {
    pub family: EventFamily,
    /// Calls completed in the interval.
    pub count: u64,
    /// Bytes moved in the interval.
    pub bytes: u64,
    /// Time spent in the interval (virtual seconds).
    pub time: f64,
}

/// Trace-ring activity since the previous snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceDelta {
    /// Records offered to the ring in the interval.
    pub emitted: u64,
    /// Change in individually-accounted records. Signed: a compaction pass
    /// moves records out of `captured`, so a busy interval can end with
    /// fewer accounted records than it started with.
    pub captured: i64,
    /// Records refused (ring full) in the interval.
    pub dropped: u64,
    /// Records absorbed into summaries in the interval. The invariant
    /// `captured + dropped + compacted == emitted` holds per interval
    /// (with `captured` signed) exactly as it does cumulatively.
    pub compacted: u64,
}

/// One periodic sample of a running rank — a cheap delta of the perf table
/// since the previous [`Ipm::snapshot`] call, the unit the live-telemetry
/// view streams. Zero-activity families are omitted.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub rank: usize,
    /// Monotone per-rank sample number (0 for the first snapshot).
    pub seq: u64,
    /// Virtual time of this sample.
    pub at: f64,
    /// Virtual seconds since the previous sample (since monitoring start
    /// for the first).
    pub interval: f64,
    pub families: Vec<FamilyDelta>,
    /// Trace-ring activity in the interval (all zero when tracing is off).
    pub trace: TraceDelta,
}

impl Snapshot {
    /// The delta for one family, if it was active.
    pub fn family(&self, family: EventFamily) -> Option<&FamilyDelta> {
        self.families.iter().find(|f| f.family == family)
    }
}

/// Fixed presentation order for family deltas.
const FAMILY_ORDER: [EventFamily; 7] = [
    EventFamily::Mpi,
    EventFamily::Cuda,
    EventFamily::Cublas,
    EventFamily::Cufft,
    EventFamily::GpuExec,
    EventFamily::HostIdle,
    EventFamily::Other,
];

#[derive(Default)]
struct SnapState {
    seq: u64,
    last_at: Option<f64>,
    /// Cumulative `(count, bytes, time)` per family at the last snapshot.
    last: HashMap<EventFamily, (u64, u64, f64)>,
    /// Cumulative trace counters at the last snapshot.
    last_trace: TraceCounters,
}

/// One pseudo-event as the facade core hands it to [`Ipm::book_pseudo`]:
/// a kernel execution (`@CUDA_EXEC_STRMxx`, detail = kernel symbol) or an
/// implicit host wait (`@CUDA_HOST_IDLE`).
pub(crate) struct PseudoEvent {
    pub(crate) kind: TraceKind,
    /// Interned pseudo-event name.
    pub(crate) name: CallId,
    /// Interned kernel symbol of a `@CUDA_EXEC_*` entry.
    pub(crate) detail: Option<CallId>,
    /// The duration the table books (virtual seconds).
    pub(crate) duration: f64,
    /// `(begin, end)` that places the event in the trace; `None` books the
    /// table entry only.
    pub(crate) interval: Option<(f64, f64)>,
    pub(crate) stream: Option<u32>,
    /// Correlation id of the launch (0 when untracked).
    pub(crate) corr: u64,
}

/// The per-rank monitoring context.
pub struct Ipm {
    cfg: IpmConfig,
    clock: SimClock,
    table: PerfTable,
    ktt: Mutex<Ktt>,
    region: AtomicU16,
    regions: Mutex<Vec<String>>,
    meta: Mutex<Meta>,
    start: f64,
    /// Cluster clock-alignment instant (first `MPI_Init` return on this
    /// rank's clock); `None` until [`Ipm::mark_epoch`] runs.
    epoch: Mutex<Option<f64>>,
    /// Event trace ring; `None` when tracing is disabled.
    trace: Option<TraceRing>,
    /// Wall-clock (real, not virtual) nanoseconds of IPM's own bookkeeping
    /// — the "monitor the monitor" counter.
    self_ns: AtomicU64,
    /// Recorded events since start, driving the sampled self-accounting:
    /// timing every event's bookkeeping costs two clock reads — several
    /// times the delta-cell deposit being metered — so one event in
    /// [`SELF_SAMPLE`] is timed and its cost scaled up. Unbiased, and
    /// ~2 ns amortized instead of ~85 ns exact.
    self_events: AtomicU64,
    snap: Mutex<SnapState>,
}

#[derive(Clone, Debug)]
struct Meta {
    rank: usize,
    nranks: usize,
    host: String,
    command: String,
}

impl Ipm {
    /// Create a monitoring context on `clock` (the rank's virtual clock).
    pub fn new(clock: SimClock, cfg: IpmConfig) -> Arc<Self> {
        let start = clock.now();
        Arc::new(Self {
            table: PerfTable::new(),
            ktt: Mutex::new(Ktt::new(KTT_CAPACITY)),
            region: AtomicU16::new(0),
            regions: Mutex::new(vec!["<program>".to_owned()]),
            meta: Mutex::new(Meta {
                rank: 0,
                nranks: 1,
                host: "dirac00".to_owned(),
                command: "<unknown>".to_owned(),
            }),
            epoch: Mutex::new(None),
            trace: (cfg.trace_capacity > 0)
                .then(|| TraceRing::with_policy(cfg.trace_capacity, cfg.trace_compaction)),
            self_ns: AtomicU64::new(0),
            self_events: AtomicU64::new(0),
            snap: Mutex::new(SnapState::default()),
            cfg,
            clock,
            start,
        })
    }

    /// Set run metadata (rank, world size, host name, command line).
    pub fn set_metadata(&self, rank: usize, nranks: usize, host: &str, command: &str) {
        let mut m = self.meta.lock();
        m.rank = rank;
        m.nranks = nranks;
        m.host = host.to_owned();
        m.command = command.to_owned();
    }

    /// The active configuration.
    pub fn config(&self) -> &IpmConfig {
        &self.cfg
    }

    /// The monitored clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The kernel timing table (facades lock it around launches/sweeps).
    pub(crate) fn ktt(&self) -> &Mutex<Ktt> {
        &self.ktt
    }

    /// The one signature-construction site of the record path: every
    /// table update — wrapped call or pseudo-event — keys through here, so
    /// the attributes can never diverge between the two.
    #[inline]
    fn sig_key(&self, id: CallId, bytes: u64, detail: Option<CallId>) -> SigKey {
        SigKey {
            id,
            bytes,
            region: self.region.load(Ordering::Relaxed),
            detail,
        }
    }

    /// Start self-accounting for one recorded event: every
    /// [`SELF_SAMPLE`]th event gets a real timestamp (the first always
    /// does, so any monitored run accounts a nonzero cost).
    #[inline]
    fn self_begin(&self) -> Option<Instant> {
        let n = self.self_events.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(SELF_SAMPLE).then(Instant::now)
    }

    /// Close a [`Self::self_begin`] bracket: a sampled event books its
    /// measured cost on behalf of the `SELF_SAMPLE - 1` unmeasured events
    /// around it, clamped to [`SELF_CLAMP_NS`] so a preempted sample can't
    /// be amplified into the dominant term.
    #[inline]
    fn self_end(&self, t: Option<Instant>) {
        if let Some(t) = t {
            let ns = (t.elapsed().as_nanos() as u64).min(SELF_CLAMP_NS);
            self.self_ns.fetch_add(ns * SELF_SAMPLE, Ordering::Relaxed);
        }
    }

    /// Pin the cluster clock-alignment epoch to the current virtual time.
    /// First call wins; later calls are no-ops. The MPI facade calls this
    /// when a rank attaches to the world — the analogue of `MPI_Init`
    /// returning, the first instant every rank has passed through.
    pub fn mark_epoch(&self) {
        let mut epoch = self.epoch.lock();
        if epoch.is_none() {
            *epoch = Some(self.clock.now());
        }
    }

    /// The clock-alignment epoch: the marked instant, or monitoring start
    /// when [`Ipm::mark_epoch`] never ran (single-rank runs without MPI).
    /// Exporters subtract this from trace timestamps so merged multi-rank
    /// lanes share `ts = 0`.
    pub fn epoch(&self) -> f64 {
        self.epoch.lock().unwrap_or(self.start)
    }

    /// Book one pseudo-event — the one way `@CUDA_EXEC_STRMxx` and
    /// `@CUDA_HOST_IDLE` enter the monitor. The table entry and, when
    /// tracing is on and the event has an interval, its trace record are
    /// written from one key (one region read), under the same sampled
    /// self-accounting bracket as a wrapped call's [`MonitorSink::span`].
    pub(crate) fn book_pseudo(&self, ev: PseudoEvent) {
        let t = self.self_begin();
        let key = self.sig_key(ev.name, 0, ev.detail);
        self.table.update_key(key, ev.duration);
        if let (Some(ring), Some((begin, end))) = (&self.trace, ev.interval) {
            ring.push(TraceRecord {
                kind: ev.kind,
                name: NameTable::global().name(ev.name),
                detail: key.detail,
                begin,
                end,
                bytes: 0,
                region: key.region,
                stream: ev.stream,
                corr: ev.corr,
                agg: None,
            });
        }
        self.self_end(t);
    }

    /// Remove and return every captured trace record (sorted by begin),
    /// freeing ring space. Empty when tracing is disabled.
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        self.trace
            .as_ref()
            .map(TraceRing::drain)
            .unwrap_or_default()
    }

    /// Copy the resident trace records without consuming them.
    pub fn trace_snapshot(&self) -> Vec<TraceRecord> {
        self.trace
            .as_ref()
            .map(TraceRing::snapshot)
            .unwrap_or_default()
    }

    /// Current self-accounting counters. The four trace counters come from
    /// one consistent [`TraceRing::counters`] read, so the reported ledger
    /// closes (`captured + dropped + compacted == emitted`) even when this
    /// is sampled mid-run with writers still pushing.
    pub fn monitor_info(&self) -> MonitorInfo {
        let trace = self
            .trace
            .as_ref()
            .map(TraceRing::counters)
            .unwrap_or_default();
        MonitorInfo {
            self_wall_ns: self.self_ns.load(Ordering::Relaxed),
            trace_emitted: trace.emitted,
            trace_captured: trace.captured,
            trace_dropped: trace.dropped,
            trace_compacted: trace.compacted,
            ring_hwm_bytes: self
                .trace
                .as_ref()
                .map(TraceRing::high_water_bytes)
                .unwrap_or(0),
        }
    }

    /// Produce the next periodic sample: per-family activity since the
    /// previous `snapshot` call. Cost is one pass over the perf table —
    /// cheap enough to run at a few hertz against a live rank.
    pub fn snapshot(&self) -> Snapshot {
        let t = Instant::now();
        // The snap lock is taken *before* sampling the cumulative counters
        // and held until the baselines are replaced: two concurrent
        // snapshot() callers are serialized, so the later one can never
        // compute deltas from a counter read older than the stored
        // baseline (which would underflow the unsigned subtractions).
        let mut snap = self.snap.lock();
        let mut totals: HashMap<EventFamily, (u64, u64, f64)> = HashMap::new();
        let names = NameTable::global();
        for (key, stats) in self.table.snapshot() {
            let e = totals.entry(classify(names.name(key.id))).or_default();
            e.0 += stats.count;
            e.1 += key.bytes * stats.count;
            e.2 += stats.total;
        }
        let now = self.clock.now();
        let rank = self.meta.lock().rank;
        let cur_trace = self
            .trace
            .as_ref()
            .map(TraceRing::counters)
            .unwrap_or_default();
        let interval = now - snap.last_at.unwrap_or(self.start);
        let mut families = Vec::new();
        for family in FAMILY_ORDER {
            let cur = totals.get(&family).copied().unwrap_or_default();
            let prev = snap.last.get(&family).copied().unwrap_or_default();
            let delta = FamilyDelta {
                family,
                count: cur.0 - prev.0,
                bytes: cur.1 - prev.1,
                time: cur.2 - prev.2,
            };
            if delta.count > 0 || delta.time != 0.0 {
                families.push(delta);
            }
        }
        let prev_trace = snap.last_trace;
        let trace = TraceDelta {
            emitted: cur_trace.emitted - prev_trace.emitted,
            // compaction can shrink cumulative captured between samples
            captured: cur_trace.captured as i64 - prev_trace.captured as i64,
            dropped: cur_trace.dropped - prev_trace.dropped,
            compacted: cur_trace.compacted - prev_trace.compacted,
        };
        let seq = snap.seq;
        snap.seq += 1;
        snap.last_at = Some(now);
        snap.last = totals;
        snap.last_trace = cur_trace;
        drop(snap);
        self.self_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Snapshot {
            rank,
            seq,
            at: now,
            interval,
            families,
            trace,
        }
    }

    /// Enter a user region (IPM's `MPI_Pcontrol` regions); returns its id.
    /// Regions of the same name share an id.
    pub fn region_enter(&self, name: &str) -> u16 {
        let mut regions = self.regions.lock();
        let id = match regions.iter().position(|r| r == name) {
            Some(i) => i as u16,
            None => {
                regions.push(name.to_owned());
                (regions.len() - 1) as u16
            }
        };
        self.region.store(id, Ordering::Relaxed);
        id
    }

    /// Leave the current region (back to the whole-program region).
    pub fn region_exit(&self) {
        self.region.store(0, Ordering::Relaxed);
    }

    /// Produce the rank's profile (the XML log content), its entries
    /// ordered by (name, bytes, region, detail). Does **not** drain the
    /// KTT — call the CUDA facade's `finalize` first if GPU timing is on.
    pub fn profile(&self) -> RankProfile {
        let meta = self.meta.lock().clone();
        let names = NameTable::global();
        let mut rows: Vec<_> = self
            .table
            .snapshot()
            .into_iter()
            .map(|(key, stats)| {
                let detail = key.detail.map(|d| names.name(d));
                ((names.name(key.id), key.bytes, key.region, detail), stats)
            })
            .collect();
        rows.sort_by_key(|(sig, _)| *sig);
        let entries = rows
            .into_iter()
            .map(|((name, bytes, region, detail), stats)| ProfileEntry {
                name: name.to_owned(),
                detail: detail.map(str::to_owned),
                bytes,
                region,
                stats,
            })
            .collect();
        RankProfile {
            rank: meta.rank,
            nranks: meta.nranks,
            host: meta.host,
            command: meta.command,
            wallclock: self.clock.now() - self.start,
            regions: self.regions.lock().clone(),
            entries,
            dropped_events: self.table.overflow() + self.ktt.lock().dropped(),
            monitor: self.monitor_info(),
        }
    }
}

impl MonitorSink for Ipm {
    fn span(&self, call: CallHandle, bytes: u64, begin: f64, end: f64) {
        let t = self.self_begin();
        let key = self.sig_key(call.id, bytes, None);
        self.table.update_key(key, end - begin);
        if let Some(ring) = &self.trace {
            // a launch wrapper just ran the real call on this thread, so the
            // runtime's thread-local correlation id belongs to this record
            let corr = if call.id == site!("cudaLaunch").id || call.id == site!("cuLaunchGrid").id {
                ipm_gpu_sim::last_launch_correlation_id()
            } else {
                0
            };
            ring.push(TraceRecord {
                kind: TraceKind::Call,
                // lock-free interner lookup of a `'static` name: no
                // allocation and no shared refcount on the record path
                name: NameTable::global().name(call.id),
                detail: None,
                begin,
                end,
                bytes,
                region: key.region,
                stream: None,
                corr,
                agg: None,
            });
        }
        self.self_end(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ipm() -> Arc<Ipm> {
        Ipm::new(SimClock::new(), IpmConfig::default())
    }

    #[test]
    fn sink_updates_land_in_table() {
        let m = ipm();
        m.span(CallHandle::of("cudaMalloc"), 0, 0.0, 2.43);
        m.span(CallHandle::of("cudaMalloc"), 0, 3.0, 3.01);
        let p = m.profile();
        assert_eq!(p.count_of("cudaMalloc"), 2);
        assert!((p.time_of("cudaMalloc") - 2.44).abs() < 1e-12);
    }

    #[test]
    fn regions_partition_events() {
        let m = ipm();
        m.span(CallHandle::of("MPI_Send"), 8, 0.0, 1.0);
        let r = m.region_enter("solver");
        assert_eq!(r, 1);
        m.span(CallHandle::of("MPI_Send"), 8, 1.0, 3.0);
        m.region_exit();
        m.span(CallHandle::of("MPI_Send"), 8, 3.0, 7.0);
        let p = m.profile();
        assert_eq!(p.regions, vec!["<program>", "solver"]);
        let by_region: Vec<(u16, u64)> = p
            .entries
            .iter()
            .filter(|e| e.name == "MPI_Send")
            .map(|e| (e.region, e.stats.count))
            .collect();
        // the call after `region_exit` is booked back in region 0
        assert_eq!(by_region, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn reentering_a_region_reuses_its_id() {
        let m = ipm();
        let a = m.region_enter("phase");
        m.region_exit();
        let b = m.region_enter("phase");
        assert_eq!(a, b);
        assert_eq!(m.profile().regions.len(), 2);
    }

    #[test]
    fn wallclock_tracks_clock_progress() {
        let clock = SimClock::new();
        let m = Ipm::new(clock.clone(), IpmConfig::default());
        clock.advance(3.5);
        assert!((m.profile().wallclock - 3.5).abs() < 1e-12);
    }

    #[test]
    fn metadata_propagates_to_profile() {
        let m = ipm();
        m.set_metadata(3, 16, "dirac18", "pmemd.cuda.MPI");
        let p = m.profile();
        assert_eq!(p.rank, 3);
        assert_eq!(p.nranks, 16);
        assert_eq!(p.host, "dirac18");
        assert_eq!(p.command, "pmemd.cuda.MPI");
    }

    #[test]
    fn pseudo_events_carry_detail() {
        let m = ipm();
        m.book_pseudo(PseudoEvent {
            kind: TraceKind::KernelExec,
            name: CallHandle::of("@CUDA_EXEC_STRM00").id,
            detail: Some(CallHandle::of("square").id),
            duration: 1.16,
            interval: None,
            stream: Some(0),
            corr: 0,
        });
        let p = m.profile();
        let e = p
            .entries
            .iter()
            .find(|e| e.name == "@CUDA_EXEC_STRM00")
            .unwrap();
        assert_eq!(e.detail.as_deref(), Some("square"));
    }

    #[test]
    fn profile_order_is_deterministic() {
        let m = ipm();
        let call = |name, bytes| m.span(CallHandle::of(name), bytes, 0.0, 0.1);
        call("zeta", 0);
        call("alpha", 4);
        call("alpha", 2);
        m.region_enter("phase");
        call("alpha", 2);
        let order: Vec<(String, u64, u16)> = m
            .profile()
            .entries
            .into_iter()
            .map(|e| (e.name, e.bytes, e.region))
            .collect();
        assert_eq!(
            order,
            vec![
                ("alpha".to_owned(), 2, 0),
                ("alpha".to_owned(), 2, 1),
                ("alpha".to_owned(), 4, 0),
                ("zeta".to_owned(), 0, 0),
            ]
        );
    }

    #[test]
    fn config_presets_match_figures() {
        let fig4 = IpmConfig::host_timing_only();
        assert!(!fig4.gpu_timing && !fig4.host_idle);
        let fig5 = IpmConfig::with_gpu_timing_only();
        assert!(fig5.gpu_timing && !fig5.host_idle);
        let fig6 = IpmConfig::default();
        assert!(fig6.gpu_timing && fig6.host_idle);
    }

    #[test]
    fn epoch_is_first_call_wins_and_defaults_to_start() {
        let clock = SimClock::new();
        clock.advance(1.0);
        let m = Ipm::new(clock.clone(), IpmConfig::default());
        assert_eq!(m.epoch(), 1.0, "unmarked epoch is monitoring start");
        clock.advance(2.0);
        m.mark_epoch();
        assert_eq!(m.epoch(), 3.0);
        clock.advance(5.0);
        m.mark_epoch();
        assert_eq!(m.epoch(), 3.0, "second mark is a no-op");
    }

    #[test]
    fn snapshot_reports_trace_deltas_including_compaction() {
        let clock = SimClock::new();
        let cfg = IpmConfig {
            trace_capacity: 1 << 10,
            ..IpmConfig::default()
        }
        .with_trace_compaction(8);
        let m = Ipm::new(clock.clone(), cfg);
        for i in 0..6 {
            m.span(CallHandle::of("cudaMalloc"), 0, i as f64, i as f64 + 0.1);
        }
        let s = m.snapshot();
        assert_eq!(s.trace.emitted, 6);
        assert_eq!(s.trace.captured, 6);
        assert_eq!(s.trace.dropped, 0);
        assert_eq!(s.trace.compacted, 0);
        // push past the high-water mark so a pass merges the backlog; the
        // interval's captured delta goes negative while emitted stays
        // exactly the number of new offers
        for i in 6..40 {
            m.span(CallHandle::of("cudaMalloc"), 0, i as f64, i as f64 + 0.1);
        }
        let s = m.snapshot();
        assert_eq!(s.trace.emitted, 34);
        assert!(s.trace.compacted > 0);
        assert_eq!(
            s.trace.captured + s.trace.dropped as i64 + s.trace.compacted as i64,
            s.trace.emitted as i64,
            "interval accounting closes"
        );
        let info = m.monitor_info();
        assert_eq!(
            info.trace_captured + info.trace_dropped + info.trace_compacted,
            info.trace_emitted
        );
    }
}

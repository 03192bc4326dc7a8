//! The per-rank IPM context.
//!
//! One [`Ipm`] instance lives in each monitored process (MPI rank). It owns
//! the performance hash table, the kernel timing table, the user-region
//! stack, and the run metadata, and it is the [`MonitorSink`] all generated
//! wrappers report into. The monitored API facades
//! ([`crate::cuda_mon::IpmCuda`] and friends) share it via `Arc`.

use crate::ktt::{Ktt, KttCheckPolicy};
use crate::profile::{classify, EventFamily, MonitorInfo, ProfileEntry, RankProfile};
use crate::sig::SigKey;
use crate::table::PerfTable;
use crate::trace::{TraceCounters, TraceKind, TraceRecord, TraceRing};
use ipm_interpose::{CallHandle, CallId, MonitorSink, NameTable};
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
    /// (the aggregate-only mode of the original paper). A full ring drops
    /// new records and counts them; the table still books every event.
    pub trace_capacity: usize,
}

impl Default for IpmConfig {
    fn default() -> Self {
        Self {
            gpu_timing: true,
            host_idle: true,
            ktt_policy: KttCheckPolicy::D2hOnly,
            exec_time_correction: None,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
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
    /// Records stored in the interval.
    pub captured: u64,
    /// Records refused (ring full) in the interval. The invariant
    /// `captured + dropped == emitted` holds per interval exactly as it
    /// does cumulatively.
    pub dropped: u64,
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

/// One event as [`Ipm::book`] takes it: a wrapped call, a kernel
/// execution (`@CUDA_EXEC_STRMxx`, detail = kernel symbol) or an implicit
/// host wait (`@CUDA_HOST_IDLE`).
#[derive(Clone, Copy)]
pub(crate) struct Event {
    pub(crate) kind: TraceKind,
    /// Interned event name.
    pub(crate) name: CallId,
    /// Interned kernel symbol of a `@CUDA_EXEC_*` entry.
    pub(crate) detail: Option<CallId>,
    /// Byte attribute (0 for pseudo-events).
    pub(crate) bytes: u64,
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
    /// Bookings since start (a wrapped call, a host-idle wait, or a whole
    /// sweep's completions, traced or not), driving the sampled
    /// self-accounting: timing every booking costs two clock reads —
    /// several times the delta-cell deposit being metered — so one booking
    /// in [`SELF_SAMPLE`] is timed and its cost scaled up. Unbiased, and
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
            ktt: Mutex::new(Ktt::new(KTT_CAPACITY, cfg.trace_capacity > 0)),
            region: AtomicU16::new(0),
            regions: Mutex::new(vec!["<program>".to_owned()]),
            meta: Mutex::new(Meta {
                rank: 0,
                nranks: 1,
                host: "dirac00".to_owned(),
                command: "<unknown>".to_owned(),
            }),
            epoch: Mutex::new(None),
            trace: (cfg.trace_capacity > 0).then(|| TraceRing::new(cfg.trace_capacity, 1)),
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

    /// Start self-accounting for one booking: every [`SELF_SAMPLE`]th
    /// booking gets a real timestamp (the first always does, so any
    /// monitored run accounts a nonzero cost).
    #[inline]
    fn self_begin(&self) -> Option<Instant> {
        let n = self.self_events.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(SELF_SAMPLE).then(Instant::now)
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

    /// Book `events` — the one way anything enters the monitor: a wrapped
    /// call ([`MonitorSink::span`]), a host-idle wait, or all of a KTT
    /// sweep's completions. Every event is keyed from one region read, so
    /// a record's attributes are its table entry's. The table entries go
    /// into the thread's delta cell in one deposit; then, when tracing is
    /// on, each event with an interval has its record pushed, after the
    /// cell's lock has dropped. The whole booking is one sampled
    /// self-accounting event. `events` is walked twice when tracing is on,
    /// the first time under the cell's lock, so it must not book anything.
    #[inline]
    pub(crate) fn book(&self, events: impl Iterator<Item = Event> + Clone) {
        let t = self.self_begin();
        let region = self.region.load(Ordering::Relaxed);
        let key = |ev: &Event| SigKey {
            id: ev.name,
            bytes: ev.bytes,
            region,
            detail: ev.detail,
        };
        self.table
            .update_keys(events.clone().map(|ev| (key(&ev), ev.duration)));
        if let Some(ring) = &self.trace {
            for ev in events {
                let Some((begin, end)) = ev.interval else {
                    continue;
                };
                let key = key(&ev);
                ring.push(TraceRecord {
                    kind: ev.kind,
                    // lock-free interner lookup of a `'static` name: no
                    // allocation and no shared refcount on the record path
                    name: NameTable::global().name(key.id),
                    detail: key.detail,
                    begin,
                    end,
                    bytes: key.bytes,
                    region: key.region,
                    stream: ev.stream,
                    corr: ev.corr,
                    agg: None,
                });
            }
        }
        if let Some(t) = t {
            // a sampled booking stands for the `SELF_SAMPLE - 1` unmeasured
            // ones around it, clamped so a preempted sample is not
            // amplified into the dominant term
            let ns = (t.elapsed().as_nanos() as u64).min(SELF_CLAMP_NS);
            self.self_ns.fetch_add(ns * SELF_SAMPLE, Ordering::Relaxed);
        }
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

    /// Current self-accounting counters. The trace counters come from one
    /// consistent [`TraceRing::counters`] read, so the reported ledger
    /// closes (`captured + dropped == emitted`) even when this is sampled
    /// mid-run with writers still pushing. `trace_compacted` is always 0.
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
            trace_compacted: 0,
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
            captured: cur_trace.captured - prev_trace.captured,
            dropped: cur_trace.dropped - prev_trace.dropped,
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
        self.book(std::iter::once(Event {
            kind: TraceKind::Call,
            name: call.id,
            detail: None,
            bytes,
            duration: end - begin,
            interval: Some((begin, end)),
            stream: None,
            // a launch wrapper just ran the real call on this thread, so the
            // runtime's thread-local correlation id belongs to this record
            corr: if call.launch {
                ipm_gpu_sim::last_launch_correlation_id()
            } else {
                0
            },
        }));
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
        m.book(std::iter::once(Event {
            kind: TraceKind::KernelExec,
            name: CallHandle::of("@CUDA_EXEC_STRM00").id,
            detail: Some(CallHandle::of("square").id),
            bytes: 0,
            duration: 1.16,
            interval: None,
            stream: Some(0),
            corr: 0,
        }));
        let p = m.profile();
        let e = p
            .entries
            .iter()
            .find(|e| e.name == "@CUDA_EXEC_STRM00")
            .unwrap();
        assert_eq!(e.detail.as_deref(), Some("square"));
    }

    /// A sweep's completions are one booking — one delta-cell deposit and
    /// one sampled self-accounting event — whether the rank keeps a trace
    /// or not; traced, every completion still gets its record.
    #[test]
    fn a_sweep_is_one_booking_traced_or_not() {
        use crate::cuda_mon::IpmCuda;
        use ipm_gpu_sim::{launch_kernel, CudaApi, GpuConfig, GpuRuntime, Kernel, KernelCost};
        use ipm_gpu_sim::{LaunchConfig, StreamId};
        for cfg in [IpmConfig::default(), IpmConfig::default().without_tracing()] {
            let rt = Arc::new(GpuRuntime::single(
                GpuConfig::dirac_node().with_context_init(0.0),
            ));
            let m = Ipm::new(rt.clock().clone(), cfg);
            let cuda = IpmCuda::new(m.clone(), rt.clone());
            let k = Kernel::timed("swept", KernelCost::Fixed(1e-4));
            for _ in 0..12 {
                launch_kernel(&cuda, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
            }
            // the device drains outside the monitor: no host-idle wait
            rt.thread_synchronize().unwrap();
            let before = m.self_events.load(Ordering::Relaxed);
            cuda.cuda_stream_synchronize(StreamId::DEFAULT).unwrap();
            let bookings = m.self_events.load(Ordering::Relaxed) - before;
            assert_eq!(bookings, 2, "the call and its sweep");
            assert_eq!(m.profile().count_of("@CUDA_EXEC_STRM00"), 12);
            let records = m.drain_trace();
            let execs = records.iter().filter(|r| r.kind == TraceKind::KernelExec);
            assert_eq!(execs.count(), if cfg.trace_capacity > 0 { 12 } else { 0 });
        }
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
    fn snapshot_reports_trace_deltas_including_drops() {
        let clock = SimClock::new();
        let cfg = IpmConfig {
            trace_capacity: 8,
            ..IpmConfig::default()
        };
        let m = Ipm::new(clock.clone(), cfg);
        for i in 0..6 {
            m.span(CallHandle::of("cudaMalloc"), 0, i as f64, i as f64 + 0.1);
        }
        let s = m.snapshot();
        assert_eq!(s.trace.emitted, 6);
        assert_eq!(s.trace.captured, 6);
        assert_eq!(s.trace.dropped, 0);
        // push past the ring's 8 slots: the interval captures the last two
        // free slots and drops the rest
        for i in 6..40 {
            m.span(CallHandle::of("cudaMalloc"), 0, i as f64, i as f64 + 0.1);
        }
        let s = m.snapshot();
        assert_eq!(s.trace.emitted, 34);
        assert_eq!(s.trace.captured, 2);
        assert_eq!(s.trace.dropped, 32);
        assert_eq!(
            s.trace.captured + s.trace.dropped,
            s.trace.emitted,
            "interval accounting closes"
        );
        let info = m.monitor_info();
        assert_eq!(info.trace_captured + info.trace_dropped, info.trace_emitted);
        assert_eq!(info.trace_compacted, 0);
        assert_eq!(m.profile().count_of("cudaMalloc"), 40, "drops are booked");
    }
}

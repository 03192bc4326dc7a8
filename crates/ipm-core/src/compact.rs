//! Summary records and the k-way merge behind every trace drain.
//!
//! * [`merge_runs`] — k-way merge of mostly sorted runs. Records are
//!   appended in virtual-time order per rank, so a ring's buffer is
//!   already (nearly) sorted; one merge pass on drain, cutting it where
//!   its order breaks and moving whole blocks, produces the *same
//!   record-for-record order* a stable global sort would.
//! * [`compact_records`] — folds adjacent records of the same event
//!   signature into one summary record carrying [`TraceAgg`]
//!   `{count, total, min, max}` plus one kept exemplar interval. It
//!   **conserves per-signature event count and total virtual time
//!   exactly**: summing [`TraceRecord::event_count`] /
//!   [`TraceRecord::busy_total`] over the output equals the same sums over
//!   the input, per signature (proptested in `tests/properties.rs`).
//!
//! The trace ring no longer compacts: a full ring drops and counts, and
//! the perf table still books every dropped event. Summary records remain
//! a log format — the Chrome, OTLP and XML writers render them and the XML
//! reader reads them — and [`compact_records`], [`CompactPolicy`] and
//! [`TraceAgg`] are kept while `perfbench/` still builds and compacts
//! records itself.

use crate::trace::TraceRecord;
use std::cmp::Ordering;

/// Aggregate payload of a summary record: the statistics of every record
/// merged into it. `count`/`total` are conserved quantities; `min`/`max`
/// bound every merged record's individual duration; `exemplar` is the
/// `(begin, end)` interval of the longest single record absorbed, kept so
/// a compacted timeline still shows one representative real slice. Kept,
/// with summary records, while `perfbench/` still builds and compacts
/// records itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceAgg {
    /// Original records represented (each raw record counts 1).
    pub count: u64,
    /// Summed individual durations, virtual seconds.
    pub total: f64,
    /// Shortest individual duration merged.
    pub min: f64,
    /// Longest individual duration merged.
    pub max: f64,
    /// `(begin, end)` of the longest single record merged — the exemplar.
    pub exemplar: (f64, f64),
}

/// Whether [`compact_records`] merges. Kept while `perfbench/` still
/// builds one with [`CompactPolicy::with_high_water`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactPolicy {
    /// Any nonzero value makes [`compact_records`] merge; 0 disables it.
    pub high_water: usize,
}

impl CompactPolicy {
    /// Compaction off: [`compact_records`] merges nothing.
    pub const DISABLED: Self = Self { high_water: 0 };

    /// A policy that merges any run of adjacent same-signature records
    /// whenever `high_water` is nonzero.
    pub fn with_high_water(high_water: usize) -> Self {
        Self { high_water }
    }

    /// Whether this policy ever compacts.
    pub fn is_enabled(&self) -> bool {
        self.high_water > 0
    }
}

/// Drain/export ordering: `(begin, end)`, the key the old global sort used.
pub(crate) fn cmp_time(a: &TraceRecord, b: &TraceRecord) -> Ordering {
    a.begin
        .partial_cmp(&b.begin)
        .expect("finite timestamps")
        .then(a.end.partial_cmp(&b.end).expect("finite timestamps"))
}

/// Two records share an event signature when every field the perf table
/// keys on matches: kind, name, detail, byte attribute, user region, and
/// device stream. Only same-signature records may merge, so a summary is
/// attributable exactly like the raw records it absorbed.
fn same_signature(a: &TraceRecord, b: &TraceRecord) -> bool {
    a.kind == b.kind
        && a.bytes == b.bytes
        && a.region == b.region
        && a.stream == b.stream
        && a.name == b.name
        && a.detail == b.detail
}

/// Is this record eligible for merging? Records carrying a correlation id
/// never merge: flow arrows (`cudaLaunch` → kernel) must keep binding to a
/// real slice.
fn mergeable(rec: &TraceRecord) -> bool {
    rec.corr == 0
}

/// Fold `rec` into `tail` (same signature, `tail` immediately precedes
/// `rec` in time order). The summary spans `first_begin .. last_end`. A
/// summary's aggregate is boxed by its first fold and updated in place by
/// every later one, so a run of `n` records allocates once.
fn fold(tail: &mut TraceRecord, rec: &TraceRecord) {
    let b = rec.agg_or_unit();
    if tail.agg.is_none() {
        tail.agg = Some(Box::new(tail.agg_or_unit()));
    }
    let a = tail.agg.as_deref_mut().expect("boxed above");
    if b.max > a.max {
        a.exemplar = b.exemplar;
    }
    a.count += b.count;
    a.total += b.total;
    a.min = a.min.min(b.min);
    a.max = a.max.max(b.max);
    tail.end = rec.end; // last_end; begin stays first_begin
    tail.corr = 0;
}

/// One compaction pass over a buffer in `(begin, end)` order, as
/// [`crate::TraceRing::drain`] returns it: merge every run of adjacent,
/// mergeable, same-signature records into a single summary record.
/// In-place, stable, O(n). A disabled `policy` merges nothing. Returns how
/// many records were compacted away (input length minus output length).
/// Kept while `perfbench/` still times it.
pub fn compact_records(buf: &mut Vec<TraceRecord>, policy: &CompactPolicy) -> usize {
    if !policy.is_enabled() {
        return 0;
    }
    let before = buf.len();
    let mut write = 0usize;
    for read in 0..buf.len() {
        if write > 0 {
            let (head, rest) = buf.split_at_mut(read);
            let tail = &mut head[write - 1];
            let rec = &rest[0];
            if mergeable(tail) && mergeable(rec) && same_signature(tail, rec) {
                fold(tail, rec);
                continue;
            }
        }
        buf.swap(write, read);
        write += 1;
    }
    buf.truncate(write);
    before - write
}

/// K-way merge of runs into one `(begin, end)`-ordered vector, equal
/// record-for-record to the stable sort of the runs' concatenation (ties
/// resolve to the lower run index; proptested in `tests/properties.rs`).
///
/// The runs are expected to be mostly sorted, as a ring's buffer is: it
/// is appended in time order except where a kernel sweep appends
/// executions that began earlier. Each run is cut where its order breaks,
/// and the sorted pieces are merged in one pass into one reserved vector:
/// the piece whose head comes first in `((begin, end), piece index)` order
/// hands over, as one block move, every record that still comes before
/// the next piece's head. A ring's sorted stretches are long, so blocks
/// are long and each record is moved once; records are moved, not cloned,
/// so a summary's boxed aggregate changes hands without an allocation.
pub fn merge_runs(mut runs: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut pieces = Vec::new();
    for run in &runs {
        let mut start = 0;
        for i in 1..run.len() {
            if cmp_time(&run[i], &run[i - 1]).is_lt() {
                pieces.push(&run[start..i]);
                start = i;
            }
        }
        if start < run.len() {
            pieces.push(&run[start..]);
        }
    }
    if pieces.len() <= 1 {
        // one sorted run, or none: hand it back as it is
        return runs.into_iter().find(|r| !r.is_empty()).unwrap_or_default();
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let dst = &mut out.spare_capacity_mut()[..total];
    let mut filled = 0;
    let mut heads = Heads::new(pieces);
    while let Some(f) = heads.first() {
        let run = heads.pieces[f];
        let take = match heads.second() {
            None => run.len(),
            Some(s) => {
                // piece `f`'s records ahead of piece `s`'s head: earlier,
                // or tied and from the lower-index piece
                let head = &heads.pieces[s][0];
                gallop(run, |r| match cmp_time(r, head) {
                    Ordering::Less => true,
                    Ordering::Equal => f < s,
                    Ordering::Greater => false,
                })
            }
        };
        let block = &mut dst[filled..filled + take];
        // SAFETY: a bitwise copy into uninitialized slots of `out`, which
        // does not own them yet (its length is still 0); who owns the
        // records is settled below
        unsafe {
            std::ptr::copy_nonoverlapping(run.as_ptr(), block.as_mut_ptr().cast(), take);
        }
        filled += take;
        heads.advance(take);
    }
    assert_eq!(filled, total, "every record merged once");
    // SAFETY: the pieces partition the runs and the merge took each piece
    // front to back exactly once, so `out`'s first `total` slots hold a
    // copy of every record of every run, each once. `out` takes them over
    // and the runs give theirs up without dropping them, so every record
    // has one owner again. Nothing between the two can panic: a panic in
    // the merge above left `out` empty and the runs owning everything.
    unsafe {
        out.set_len(total);
        for run in &mut runs {
            run.set_len(0);
        }
    }
    out
}

/// The sorted pieces being merged. A piece joins a binary min-heap of
/// piece indices, ordered by each piece's head in `((begin, end), index)`
/// order, only once the merge reaches its head; exhausted pieces leave
/// it. A ring's buffer cuts into many pieces that each overlap only
/// their neighbours in time, so the heap stays small.
struct Heads<'r> {
    /// The unmerged rest of each piece.
    pieces: Vec<&'r [TraceRecord]>,
    /// Piece indices by head, in the heap's order; `order[next..]` wait.
    order: Vec<usize>,
    next: usize,
    heap: Vec<usize>,
}

impl<'r> Heads<'r> {
    fn new(pieces: Vec<&'r [TraceRecord]>) -> Self {
        let mut order: Vec<usize> = (0..pieces.len()).collect();
        // stable: tied heads keep the lower index first
        order.sort_by(|&a, &b| cmp_time(&pieces[a][0], &pieces[b][0]));
        Heads {
            pieces,
            order,
            next: 0,
            heap: Vec::new(),
        }
    }

    /// Whether piece `a`'s head comes before piece `b`'s.
    fn before(&self, a: usize, b: usize) -> bool {
        cmp_time(&self.pieces[a][0], &self.pieces[b][0])
            .then(a.cmp(&b))
            .is_lt()
    }

    /// The piece whose head comes first, after admitting every waiting
    /// piece whose head comes before the heap's.
    fn first(&mut self) -> Option<usize> {
        while let Some(&p) = self.order.get(self.next) {
            if self.heap.first().is_some_and(|&f| self.before(f, p)) {
                break;
            }
            self.next += 1;
            self.heap.push(p);
            self.sift_up(self.heap.len() - 1);
        }
        self.heap.first().copied()
    }

    /// The piece whose head comes second: one of the root's children, or
    /// the first waiting piece.
    fn second(&self) -> Option<usize> {
        [
            self.heap.get(1),
            self.heap.get(2),
            self.order.get(self.next),
        ]
        .into_iter()
        .flatten()
        .copied()
        .reduce(|a, b| if self.before(a, b) { a } else { b })
    }

    /// Drop the first piece's first `n` records and restore the order.
    fn advance(&mut self, n: usize) {
        let f = self.heap[0];
        self.pieces[f] = &self.pieces[f][n..];
        if self.pieces[f].is_empty() {
            self.heap.swap_remove(0);
        }
        self.sift_down(0);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.before(self.heap[i], self.heap[parent]) {
                return;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut min = i;
            for c in [2 * i + 1, 2 * i + 2] {
                if c < self.heap.len() && self.before(self.heap[c], self.heap[min]) {
                    min = c;
                }
            }
            if min == i {
                return;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }
}

/// The length of the prefix of `run` whose records satisfy `pred`, for a
/// `pred` that holds on `run[0]` and, once false, stays false. Probes
/// indices 1, 2, 4, … and then bisects the last gap, so a prefix of `k`
/// records costs O(log k) comparisons, however long the run.
fn gallop(run: &[TraceRecord], pred: impl Fn(&TraceRecord) -> bool) -> usize {
    let mut hi = 1;
    while hi < run.len() && pred(&run[hi]) {
        hi *= 2;
    }
    // `run[hi / 2]` is the last record known to satisfy `pred`
    let lo = hi / 2 + 1;
    let hi = hi.min(run.len());
    lo + run[lo..hi].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    fn rec(name: &'static str, begin: f64, end: f64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name,
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: None,
        }
    }

    #[test]
    fn adjacent_same_signature_records_merge_into_a_summary() {
        let mut buf = vec![
            rec("cudaLaunch", 0.0, 0.1),
            rec("cudaLaunch", 0.2, 0.5),
            rec("cudaLaunch", 0.6, 0.7),
            rec("MPI_Send", 1.0, 1.2),
        ];
        let removed = compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(removed, 2);
        assert_eq!(buf.len(), 2);
        let s = &buf[0];
        assert_eq!(s.name, "cudaLaunch");
        assert_eq!(s.begin, 0.0, "first_begin");
        assert_eq!(s.end, 0.7, "last_end");
        let a = s.agg.as_deref().expect("summary");
        assert_eq!(a.count, 3);
        assert!((a.total - 0.5).abs() < 1e-12);
        assert!((a.min - 0.1).abs() < 1e-12);
        assert!((a.max - 0.3).abs() < 1e-12);
        assert_eq!(a.exemplar, (0.2, 0.5), "longest slice kept as exemplar");
        assert!(buf[1].agg.is_none(), "lone record stays raw");
    }

    #[test]
    fn a_long_run_folds_into_one_summary_in_place() {
        let durations = [0.25, 0.5, 0.125, 1.0, 0.0625, 0.75];
        let mut buf: Vec<TraceRecord> = durations
            .iter()
            .enumerate()
            .map(|(i, d)| rec("cudaMemset", 2.0 * i as f64, 2.0 * i as f64 + d))
            .collect();
        let removed = compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(removed, durations.len() - 1);
        let s = &buf[0];
        assert_eq!((s.begin, s.end), (0.0, 10.75), "first_begin .. last_end");
        let a = s.agg.as_deref().expect("summary");
        assert_eq!(a.count, 6);
        assert_eq!(a.total, 2.6875);
        assert_eq!(a.min, 0.0625);
        assert_eq!(a.max, 1.0);
        assert_eq!(a.exemplar, (6.0, 7.0), "the longest record");
    }

    #[test]
    fn a_folded_summary_survives_drain_xml_chrome_and_otlp() {
        use crate::export::{validate_chrome_trace, validate_otlp, ChromeTrace, Export, Otlp, Xml};
        use crate::profile::RankProfile;
        use crate::trace::TraceRing;

        // the first five records fold into one summary; the sixth, the
        // longest, stays raw
        let ring = TraceRing::new(64, 1);
        for (i, d) in [0.5, 0.25, 1.5, 0.75, 0.125, 2.0].into_iter().enumerate() {
            assert!(ring.push(rec("cudaMemset", 4.0 * i as f64, 4.0 * i as f64 + d)));
        }
        let mut drained = ring.drain();
        let last = drained.pop().expect("six records");
        compact_records(&mut drained, &CompactPolicy::with_high_water(1));
        drained.push(last);
        assert_eq!(drained.len(), 2);
        let want = TraceAgg {
            count: 5,
            total: 3.125,
            min: 0.125,
            max: 1.5,
            exemplar: (8.0, 9.5),
        };
        assert_eq!(drained[0].agg.as_deref(), Some(&want));
        assert!(!drained[1].is_summary());

        let profile = RankProfile {
            rank: 0,
            nranks: 1,
            host: "dirac00".to_owned(),
            command: "memset".to_owned(),
            wallclock: 24.0,
            regions: vec!["<program>".to_owned()],
            entries: Vec::new(),
            dropped_events: 0,
            monitor: Default::default(),
        };
        let xml = Export::from_profile(profile)
            .with_trace(drained.clone())
            .to(Xml)
            .unwrap();
        let back = crate::parse::export_from_xml(&[xml]).unwrap();
        assert_eq!(back.source().ranks[0].records, drained);

        let chrome = back.to(ChromeTrace).unwrap();
        validate_chrome_trace(&chrome).expect("valid Chrome trace");
        assert!(
            chrome.contains("\"count\":5,\"total_us\":3125000,"),
            "{chrome}"
        );
        let otlp = back.to(Otlp).unwrap();
        assert_eq!(validate_otlp(&otlp).expect("valid OTLP").summary_spans, 1);
        assert!(otlp.contains("\"intValue\":\"5\""), "{otlp}");
    }

    #[test]
    fn summaries_merge_with_later_records_and_conserve() {
        let mut buf = vec![rec("x", 0.0, 1.0), rec("x", 1.0, 2.0), rec("x", 2.0, 2.25)];
        compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(buf.len(), 1);
        // a second pass over [summary, new records] keeps conserving
        buf.push(rec("x", 3.0, 3.5));
        compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(buf.len(), 1);
        let a = buf[0].agg.as_deref().unwrap();
        assert_eq!(a.count, 4);
        assert!((a.total - 2.75).abs() < 1e-12);
        assert_eq!(a.min, 0.25);
        assert_eq!(a.max, 1.0);
        assert_eq!(buf[0].event_count(), 4);
        assert!((buf[0].busy_total() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn correlated_records_never_merge() {
        let mut launch = rec("cudaLaunch", 0.0, 0.1);
        launch.corr = 7;
        let mut launch2 = rec("cudaLaunch", 0.2, 0.3);
        launch2.corr = 8;
        let mut buf = vec![launch, launch2];
        assert_eq!(
            compact_records(&mut buf, &CompactPolicy::with_high_water(1)),
            0
        );
    }

    #[test]
    fn a_disabled_policy_merges_nothing() {
        let mut buf = vec![rec("x", 0.0, 1.0), rec("x", 1.0, 2.0)];
        assert_eq!(compact_records(&mut buf, &CompactPolicy::DISABLED), 0);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn different_signatures_split_runs() {
        let mut a = rec("cudaMemcpy(H2D)", 0.0, 0.1);
        a.bytes = 64;
        let mut b = rec("cudaMemcpy(H2D)", 0.2, 0.3);
        b.bytes = 128; // different byte attribute: different signature
        let mut buf = vec![a, b];
        assert_eq!(
            compact_records(&mut buf, &CompactPolicy::with_high_water(1)),
            0
        );
    }

    #[test]
    fn merge_runs_equals_stable_sort_of_concatenation() {
        let runs = vec![
            vec![rec("a", 0.0, 1.0), rec("a", 2.0, 3.0)],
            vec![rec("b", 0.0, 1.0), rec("b", 1.5, 1.6)],
            vec![],
            vec![rec("c", 0.5, 0.6)],
        ];
        let mut reference: Vec<TraceRecord> = runs.iter().flatten().cloned().collect();
        reference.sort_by(cmp_time);
        let merged = merge_runs(runs);
        assert_eq!(merged, reference);
        // the (0.0, 1.0) tie resolved to run 0's record first
        assert_eq!(merged[0].name, "a");
        assert_eq!(merged[1].name, "b");
    }

    #[test]
    fn merge_runs_of_stripe_shaped_runs_equals_stable_sort() {
        // one writer's records dealt to 8 runs in blocks of 64. Every
        // seventh record is a kernel execution a sweep appends after it
        // ended, so it begins before the call ahead of it: each run cuts
        // into hundreds of pieces. Calls come in pairs with equal times,
        // for ties across runs, and some are summaries, whose boxes the
        // merge must move.
        let mut runs = vec![Vec::new(); 8];
        for i in 0..20_000usize {
            let t = (i / 2) as f64 * 1e-6;
            let mut r = if i % 7 == 6 {
                let mut k = rec("@CUDA_EXEC_STRM00", t - 3e-5 * (i % 5 + 1) as f64, t);
                k.kind = TraceKind::KernelExec;
                k
            } else {
                rec("cudaStreamQuery", t, t + 5e-7)
            };
            r.corr = i as u64;
            if i % 11 == 0 {
                r.agg = Some(Box::new(r.agg_or_unit()));
            }
            runs[(i / 64) % 8].push(r);
        }
        let pieces: usize = runs
            .iter()
            .map(|run| {
                1 + run
                    .windows(2)
                    .filter(|w| cmp_time(&w[1], &w[0]).is_lt())
                    .count()
            })
            .sum();
        assert!(pieces > 2_000, "{pieces} pieces");
        let mut reference: Vec<TraceRecord> = runs.iter().flatten().cloned().collect();
        reference.sort_by(cmp_time);
        assert_eq!(merge_runs(runs), reference);
    }

    #[test]
    fn gallop_finds_every_prefix_length() {
        let run: Vec<TraceRecord> = (0..40).map(|i| rec("x", i as f64, i as f64)).collect();
        for k in 1..=run.len() {
            assert_eq!(gallop(&run, |r| r.begin < k as f64), k, "prefix of {k}");
        }
    }
}

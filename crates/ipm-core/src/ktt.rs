//! The kernel timing table (KTT, paper §III-B).
//!
//! A statically sized table of in-flight kernel timings. IPM's
//! `cudaLaunch` wrapper enqueues a start event before and a stop event
//! after the launch, storing `(start, stop, stream, kernel)` in a free
//! slot. Because kernels run asynchronously, completion is checked
//! *lazily* — by default only inside device-to-host transfer wrappers
//! ("since any data used by the host has to be requested explicitly by a
//! later D2H transfer, it is safe to assume at least one such transfer
//! occurs after the launch"). When a `cudaEventQuery` on the stop event
//! succeeds, the duration is read with `cudaEventElapsedTime`, the slot is
//! freed, and a `@CUDA_EXEC_STRMxx` entry lands in the hash table.

use ipm_gpu_sim::{CudaApi, EventId, StreamId};
use ipm_interpose::CallId;

/// When the wrapper layer sweeps the KTT for completed kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KttCheckPolicy {
    /// Only in device-to-host memory transfer wrappers — the paper's
    /// choice, minimizing query overhead.
    D2hOnly,
    /// In every CUDA runtime wrapper — the eager alternative the paper
    /// rejects as potentially costly (benchmarked as an ablation).
    EveryCall,
}

/// One in-flight kernel timing.
#[derive(Clone, Copy, Debug)]
struct Slot {
    start: EventId,
    stop: EventId,
    stream: StreamId,
    /// Interned kernel symbol.
    kernel: CallId,
    /// Correlation id of the bracketed launch (0 if the backend does not
    /// track launches), linking this timing to the submitting host call.
    corr: u64,
}

/// A completed kernel timing, ready for the hash table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompletedKernel {
    /// Interned kernel symbol.
    pub kernel: CallId,
    pub stream: StreamId,
    /// Event-bracketed duration in seconds (true kernel time plus roughly
    /// one event-record overhead — the bias Table I quantifies).
    pub duration: f64,
    /// Correlation id of the launch (0 when untracked).
    pub corr: u64,
    /// Absolute `(start, stop)` event timestamps on the device timeline,
    /// when the backend exposes them — what places this kernel in a trace.
    pub interval: Option<(f64, f64)>,
}

/// Positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// The statically allocated kernel timing table.
///
/// An occupancy bitmask (one bit per slot) indexes the slots: a launch
/// takes the lowest free slot from the first word with a clear bit, and a
/// sweep visits only the set bits, in slot order, stopping once it has
/// seen every in-flight timing. Neither walks the whole table.
pub struct Ktt {
    slots: Vec<Option<Slot>>,
    /// Bit `i % 64` of word `i / 64` is set while slot `i` is occupied.
    occupied: Vec<u64>,
    in_flight: usize,
    /// Recycled event pairs, so steady-state monitoring does not keep
    /// creating CUDA events.
    free_events: Vec<(EventId, EventId)>,
    /// Completions of the latest sweep; its capacity is kept, so a sweep
    /// in steady state does not allocate.
    done: Vec<CompletedKernel>,
    /// Launches not timed because every slot was busy.
    dropped: u64,
}

impl Ktt {
    /// Table with `capacity` slots (IPM uses a fixed compile-time size).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            slots: vec![None; capacity],
            occupied: vec![0; capacity.div_ceil(64)],
            in_flight: 0,
            free_events: Vec::new(),
            done: Vec::new(),
            dropped: 0,
        }
    }

    /// Number of occupied slots.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Launches that could not be timed (table full).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The lowest free slot, if any.
    fn free_slot(&self) -> Option<usize> {
        if self.in_flight == self.slots.len() {
            return None;
        }
        let (word, bits) = self
            .occupied
            .iter()
            .enumerate()
            .find(|(_, w)| **w != u64::MAX)?;
        Some(word * 64 + bits.trailing_ones() as usize)
    }

    /// Bracket `launch` with start/stop events on `stream` and store the
    /// timing slot for the interned `kernel` symbol. Called by the
    /// `cudaLaunch` wrapper. If the table is full the launch still
    /// proceeds, just untimed.
    pub fn time_launch<R>(
        &mut self,
        api: &dyn CudaApi,
        kernel: CallId,
        stream: StreamId,
        launch: impl FnOnce() -> R,
    ) -> R {
        let Some(idx) = self.free_slot() else {
            self.dropped += 1;
            return launch();
        };
        let events = self.free_events.pop().map(Ok).unwrap_or_else(|| {
            Ok::<_, ipm_gpu_sim::CudaError>((api.cuda_event_create()?, api.cuda_event_create()?))
        });
        let Ok((start, stop)) = events else {
            self.dropped += 1;
            return launch();
        };
        if api.cuda_event_record(start, stream).is_err() {
            self.free_events.push((start, stop));
            self.dropped += 1;
            return launch();
        }
        let ret = launch();
        if api.cuda_event_record(stop, stream).is_err() {
            self.free_events.push((start, stop));
            self.dropped += 1;
            return ret;
        }
        let corr = api.cuda_last_launch_correlation_id();
        self.slots[idx] = Some(Slot {
            start,
            stop,
            stream,
            kernel,
            corr,
        });
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.in_flight += 1;
        ret
    }

    /// Sweep for completed kernels: query each occupied slot's stop event,
    /// in slot order; on success, read the elapsed time and free the slot.
    /// The completions are drained from a buffer the table reuses.
    pub fn collect_completed(&mut self, api: &dyn CudaApi) -> std::vec::Drain<'_, CompletedKernel> {
        self.done.clear();
        let mut unvisited = self.in_flight;
        for word in 0..self.occupied.len() {
            if unvisited == 0 {
                break;
            }
            let bits = self.occupied[word];
            unvisited -= bits.count_ones() as usize;
            for bit in set_bits(bits) {
                let idx = word * 64 + bit;
                let Some(s) = self.slots[idx] else {
                    unreachable!("occupancy bit set on empty KTT slot {idx}")
                };
                if api.cuda_event_query(s.stop).is_err() {
                    continue; // still running
                }
                if let Ok(duration) = api.cuda_event_elapsed_time(s.start, s.stop) {
                    let interval = match (
                        api.cuda_event_timestamp(s.start),
                        api.cuda_event_timestamp(s.stop),
                    ) {
                        (Ok(t0), Ok(t1)) => Some((t0, t1)),
                        _ => None,
                    };
                    self.done.push(CompletedKernel {
                        kernel: s.kernel,
                        stream: s.stream,
                        duration,
                        corr: s.corr,
                        interval,
                    });
                }
                self.free_events.push((s.start, s.stop));
                self.slots[idx] = None;
                self.occupied[word] &= !(1 << bit);
                self.in_flight -= 1;
            }
        }
        self.done.drain(..)
    }

    /// Force-complete everything (used at finalize time): synchronizes each
    /// remaining stop event, then collects.
    pub fn drain(&mut self, api: &dyn CudaApi) -> std::vec::Drain<'_, CompletedKernel> {
        for (word, &bits) in self.occupied.iter().enumerate() {
            for slot in set_bits(bits).filter_map(|bit| self.slots[word * 64 + bit]) {
                let _ = api.cuda_event_synchronize(slot.stop);
            }
        }
        self.collect_completed(api)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_gpu_sim::{launch_kernel, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig};
    use ipm_interpose::{CallHandle, NameTable};
    use proptest::prelude::*;

    fn rt() -> GpuRuntime {
        GpuRuntime::single(GpuConfig::dirac_node().with_context_init(0.0))
    }

    fn launch_on(ktt: &mut Ktt, rt: &GpuRuntime, name: &str, stream: StreamId, dur: f64) {
        let k = Kernel::timed(name, KernelCost::Fixed(dur));
        ktt.time_launch(rt, CallHandle::of(name).id, stream, || {
            launch_kernel(
                rt,
                &k,
                LaunchConfig::simple(1u32, 1u32).on_stream(stream),
                &[],
            )
            .unwrap();
        });
    }

    fn timed_launch(ktt: &mut Ktt, rt: &GpuRuntime, name: &str, dur: f64) {
        launch_on(ktt, rt, name, StreamId::DEFAULT, dur);
    }

    fn name(c: &CompletedKernel) -> &'static str {
        NameTable::global().name(c.kernel)
    }

    #[test]
    fn kernel_timing_roundtrip() {
        let rt = rt();
        let mut ktt = Ktt::new(8);
        timed_launch(&mut ktt, &rt, "square", 0.5);
        assert_eq!(ktt.in_flight(), 1);
        // kernel still running: nothing completes
        assert_eq!(ktt.collect_completed(&rt).len(), 0);
        assert_eq!(ktt.in_flight(), 1);
        // after the device drains, collection succeeds
        rt.thread_synchronize().unwrap();
        let done: Vec<_> = ktt.collect_completed(&rt).collect();
        assert_eq!(done.len(), 1);
        assert_eq!(name(&done[0]), "square");
        assert!(done[0].duration >= 0.5, "measured {}", done[0].duration);
        assert!(done[0].duration < 0.5 + 1e-3);
        assert_eq!(ktt.in_flight(), 0);
    }

    #[test]
    fn full_table_drops_but_launch_proceeds() {
        let rt = rt();
        let mut ktt = Ktt::new(2);
        for i in 0..4 {
            timed_launch(&mut ktt, &rt, &format!("k{i}"), 0.1);
        }
        assert_eq!(ktt.in_flight(), 2);
        assert_eq!(ktt.dropped(), 2);
        // all four kernels really ran
        rt.thread_synchronize().unwrap();
        assert!(rt.clock().now() >= 0.4);
    }

    #[test]
    fn event_pairs_are_recycled() {
        let rt = rt();
        let mut ktt = Ktt::new(4);
        for round in 0..5 {
            timed_launch(&mut ktt, &rt, "k", 0.01);
            rt.thread_synchronize().unwrap();
            assert_eq!(ktt.collect_completed(&rt).len(), 1, "round {round}");
        }
        // after the first round the same event pair is reused
        assert_eq!(ktt.free_events.len(), 1);
    }

    #[test]
    fn drain_collects_in_flight_kernels() {
        let rt = rt();
        let mut ktt = Ktt::new(4);
        timed_launch(&mut ktt, &rt, "a", 1.0);
        timed_launch(&mut ktt, &rt, "b", 1.0);
        let names: Vec<&str> = ktt.drain(&rt).map(|c| name(&c)).collect();
        assert_eq!(names, ["a", "b"], "slot order");
        assert_eq!(ktt.in_flight(), 0);
    }

    #[test]
    fn per_stream_attribution() {
        let rt = rt();
        let s1 = rt.stream_create().unwrap();
        let mut ktt = Ktt::new(4);
        launch_on(&mut ktt, &rt, "k", s1, 0.2);
        let done: Vec<_> = ktt.drain(&rt).collect();
        assert_eq!(done[0].stream, s1);
    }

    #[test]
    fn slots_past_the_first_mask_word_are_taken_and_swept() {
        let rt = rt();
        let mut ktt = Ktt::new(130);
        for i in 0..130 {
            timed_launch(&mut ktt, &rt, &format!("w{i}"), 1e-3);
        }
        assert_eq!(ktt.in_flight(), 130);
        timed_launch(&mut ktt, &rt, "over", 1e-3);
        assert_eq!(ktt.dropped(), 1);
        rt.thread_synchronize().unwrap();
        let names: Vec<&str> = ktt.collect_completed(&rt).map(|c| name(&c)).collect();
        let expect: Vec<String> = (0..130).map(|i| format!("w{i}")).collect();
        assert_eq!(names, expect);
        assert_eq!(ktt.in_flight(), 0);
    }

    /// The table as it was before the occupancy mask: a linear scan for
    /// the first free slot and a sweep over every slot. It makes the same
    /// device calls in the same order, so on an identical runtime it must
    /// produce the same completions.
    struct ReferenceKtt {
        slots: Vec<Option<Slot>>,
        free_events: Vec<(EventId, EventId)>,
        dropped: u64,
    }

    impl ReferenceKtt {
        fn launch(&mut self, api: &GpuRuntime, kernel: CallId, stream: StreamId, k: &Kernel) {
            let launch = || {
                launch_kernel(
                    api,
                    k,
                    LaunchConfig::simple(1u32, 1u32).on_stream(stream),
                    &[],
                )
                .unwrap()
            };
            let Some(idx) = self.slots.iter().position(|s| s.is_none()) else {
                self.dropped += 1;
                return launch();
            };
            let (start, stop) = self.free_events.pop().unwrap_or_else(|| {
                (
                    api.cuda_event_create().unwrap(),
                    api.cuda_event_create().unwrap(),
                )
            });
            api.cuda_event_record(start, stream).unwrap();
            launch();
            api.cuda_event_record(stop, stream).unwrap();
            let corr = api.cuda_last_launch_correlation_id();
            self.slots[idx] = Some(Slot {
                start,
                stop,
                stream,
                kernel,
                corr,
            });
        }

        fn sweep(&mut self, api: &GpuRuntime) -> Vec<CompletedKernel> {
            let mut done = Vec::new();
            for slot in self.slots.iter_mut() {
                let Some(Slot {
                    start,
                    stop,
                    stream,
                    kernel,
                    corr,
                }) = *slot
                else {
                    continue;
                };
                if api.cuda_event_query(stop).is_err() {
                    continue;
                }
                if let Ok(duration) = api.cuda_event_elapsed_time(start, stop) {
                    let interval = match (
                        api.cuda_event_timestamp(start),
                        api.cuda_event_timestamp(stop),
                    ) {
                        (Ok(t0), Ok(t1)) => Some((t0, t1)),
                        _ => None,
                    };
                    done.push(CompletedKernel {
                        kernel,
                        stream,
                        duration,
                        corr,
                        interval,
                    });
                }
                self.free_events.push((start, stop));
                *slot = None;
            }
            done
        }

        fn in_flight(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Random launch / progress / sweep schedules: the masked table
        /// and the scanning reference, each on its own identical runtime,
        /// agree on every completion (and its order), on `dropped()` and
        /// on `in_flight()` after every step. Launches outnumber sweeps, so
        /// timings pile up past the first mask word and full tables drop.
        #[test]
        fn masked_ktt_matches_scanning_reference(
            cap_pick in 0usize..5,
            ops in prop::collection::vec((0u8..64, 0u8..4, 0usize..3, 1u32..2000), 1..400),
        ) {
            let capacity = [1, 3, 64, 65, 130][cap_pick];
            let (rt, ref_rt) = (rt(), rt());
            let streams: Vec<StreamId> = std::iter::once(StreamId::DEFAULT)
                .chain((0..2).map(|_| rt.stream_create().unwrap()))
                .collect();
            for &s in &streams[1..] {
                prop_assert_eq!(ref_rt.stream_create().unwrap(), s);
            }
            let kernels: Vec<(CallId, &str)> = ["ka", "kb", "kc", "kd"]
                .iter()
                .map(|&n| (CallHandle::of(n).id, n))
                .collect();
            // correlation ids are process-wide, so the two runtimes number
            // the same launch differently: map ours onto the reference's
            let mut same_launch = std::collections::HashMap::new();
            let as_reference = |map: &std::collections::HashMap<u64, u64>, c: CompletedKernel| {
                CompletedKernel { corr: map[&c.corr], ..c }
            };
            let mut ktt = Ktt::new(capacity);
            let mut reference = ReferenceKtt {
                slots: vec![None; capacity],
                free_events: Vec::new(),
                dropped: 0,
            };
            for (op, k, s, micros) in ops {
                match op {
                    0..=47 => {
                        let (id, name) = kernels[k as usize];
                        let kernel = Kernel::timed(name, KernelCost::Fixed(micros as f64 * 1e-6));
                        ktt.time_launch(&rt, id, streams[s], || {
                            launch_kernel(
                                &rt,
                                &kernel,
                                LaunchConfig::simple(1u32, 1u32).on_stream(streams[s]),
                                &[],
                            )
                            .unwrap()
                        });
                        let corr = ipm_gpu_sim::last_launch_correlation_id();
                        reference.launch(&ref_rt, id, streams[s], &kernel);
                        same_launch.insert(corr, ipm_gpu_sim::last_launch_correlation_id());
                    }
                    48..=55 => {
                        rt.clock().advance(micros as f64 * 1e-6);
                        ref_rt.clock().advance(micros as f64 * 1e-6);
                    }
                    56 => {
                        rt.thread_synchronize().unwrap();
                        ref_rt.thread_synchronize().unwrap();
                    }
                    _ => {
                        let got: Vec<CompletedKernel> =
                            ktt.collect_completed(&rt).map(|c| as_reference(&same_launch, c)).collect();
                        prop_assert_eq!(got, reference.sweep(&ref_rt));
                    }
                }
                prop_assert_eq!(ktt.dropped(), reference.dropped);
                prop_assert_eq!(ktt.in_flight(), reference.in_flight());
            }
            for slot in reference.slots.iter().flatten() {
                let _ = ref_rt.cuda_event_synchronize(slot.stop);
            }
            let rest: Vec<CompletedKernel> = ktt.drain(&rt).map(|c| as_reference(&same_launch, c)).collect();
            prop_assert_eq!(rest, reference.sweep(&ref_rt));
            prop_assert_eq!(ktt.in_flight(), 0);
        }
    }
}

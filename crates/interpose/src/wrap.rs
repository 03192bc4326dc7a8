//! The wrapper anatomy (paper Fig. 2).
//!
//! Every IPM wrapper follows the same shape:
//!
//! ```c
//! cudaError_t cudaCall(arg1, ...) {
//!     begin = get_time();
//!     ret = real_cudaCall(arg1, ...);
//!     end = get_time();
//!     UPDATE_DATA(CUDA_CALL_ID, end - begin);
//!     return ret;
//! }
//! ```
//!
//! [`wrap_call`] is that anatomy as a reusable function: time the *real*
//! call on the caller's virtual clock, report `(call, bytes, duration)` to
//! a [`MonitorSink`], pass the return value through unchanged. The call is
//! identified by a [`CallHandle`] — the interned `CALL_ID` of the C
//! original, resolved once per site via the [`site!`](crate::site) macro —
//! so the steady-state record path never touches the name string.

use crate::registry::CallHandle;
use ipm_sim_core::SimClock;

/// Where wrappers deposit measurements. Implemented by `ipm-core`'s
/// performance hash table; tests use simple recording sinks.
pub trait MonitorSink: Send + Sync {
    /// Record one completed call: its interned handle, the byte count
    /// attribute (0 when the call has none), and the host-side duration.
    fn update(&self, call: CallHandle, bytes: u64, duration: f64);

    /// Record one completed call with its begin/end timestamps. Sinks that
    /// keep an event stream (the trace ring) override this to capture the
    /// interval; the default forwards the duration to [`Self::update`], so
    /// aggregate-only sinks need not care.
    fn span(&self, call: CallHandle, bytes: u64, begin: f64, end: f64) {
        self.update(call, bytes, end - begin);
    }
}

/// A sink that drops everything (monitoring disabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl MonitorSink for NullSink {
    fn update(&self, _call: CallHandle, _bytes: u64, _duration: f64) {}
}

/// Execute `real` bracketed by virtual-clock timestamps and report the
/// duration to `sink` — Fig. 2 as a higher-order function. A configurable
/// `overhead` is charged to the clock to model the cost of the monitoring
/// itself (what the paper's runtime-dilatation study measures).
pub fn wrap_call<R>(
    clock: &SimClock,
    sink: &dyn MonitorSink,
    call: CallHandle,
    bytes: u64,
    overhead: f64,
    real: impl FnOnce() -> R,
) -> R {
    let begin = clock.now();
    let ret = real();
    clock.advance(overhead);
    let end = clock.now();
    sink.span(call, bytes, begin, end);
    ret
}

/// [`wrap_call`] for calls whose byte count is only known once the real
/// call has returned (e.g. `MPI_Recv`, where the received payload *is* the
/// result): `bytes_of` inspects the return value, after timing but before
/// the sink sees the event, so the recorded size reflects what actually
/// moved. A failed call may legitimately report 0.
pub fn wrap_call_sized<R>(
    clock: &SimClock,
    sink: &dyn MonitorSink,
    call: CallHandle,
    overhead: f64,
    real: impl FnOnce() -> R,
    bytes_of: impl FnOnce(&R) -> u64,
) -> R {
    let begin = clock.now();
    let ret = real();
    clock.advance(overhead);
    let end = clock.now();
    sink.span(call, bytes_of(&ret), begin, end);
    ret
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;
    use parking_lot::Mutex;

    #[derive(Default)]
    struct RecordingSink {
        events: Mutex<Vec<(CallHandle, u64, f64)>>,
    }

    impl MonitorSink for RecordingSink {
        fn update(&self, call: CallHandle, bytes: u64, duration: f64) {
            self.events.lock().push((call, bytes, duration));
        }
    }

    #[test]
    fn wrap_call_times_the_inner_call() {
        let clock = SimClock::new();
        let sink = RecordingSink::default();
        let out = wrap_call(&clock, &sink, site!("cudaMemcpy"), 4096, 0.0, || {
            clock.advance(0.25); // the "real" call takes 0.25 virtual s
            42
        });
        assert_eq!(out, 42);
        let events = sink.events.lock();
        assert_eq!(events.len(), 1);
        let (call, bytes, duration) = events[0];
        assert_eq!(call.name(), "cudaMemcpy");
        assert_eq!(bytes, 4096);
        assert!((duration - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wrap_call_charges_monitoring_overhead() {
        let clock = SimClock::new();
        let sink = NullSink;
        wrap_call(&clock, &sink, site!("cudaLaunch"), 0, 1e-6, || {});
        assert!((clock.now() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn return_values_and_errors_pass_through() {
        let clock = SimClock::new();
        let sink = NullSink;
        let ok: Result<i32, &str> = wrap_call(&clock, &sink, site!("x"), 0, 0.0, || Ok(7));
        let err: Result<i32, &str> = wrap_call(&clock, &sink, site!("x"), 0, 0.0, || Err("boom"));
        assert_eq!(ok, Ok(7));
        assert_eq!(err, Err("boom"));
    }

    #[derive(Default)]
    struct SpanSink {
        spans: Mutex<Vec<(CallHandle, f64, f64)>>,
    }

    impl MonitorSink for SpanSink {
        fn update(&self, _call: CallHandle, _bytes: u64, _duration: f64) {}
        fn span(&self, call: CallHandle, _bytes: u64, begin: f64, end: f64) {
            self.spans.lock().push((call, begin, end));
        }
    }

    #[test]
    fn span_override_sees_begin_and_end_timestamps() {
        let clock = SimClock::new();
        clock.advance(1.0);
        let sink = SpanSink::default();
        wrap_call(&clock, &sink, site!("cudaLaunch"), 0, 0.0, || {
            clock.advance(0.5)
        });
        let spans = sink.spans.lock();
        assert_eq!(spans.len(), 1);
        let (call, begin, end) = spans[0];
        assert_eq!(call.name(), "cudaLaunch");
        assert!((begin - 1.0).abs() < 1e-12);
        assert!((end - 1.5).abs() < 1e-12);
    }

    #[test]
    fn wrap_call_sized_records_result_derived_bytes() {
        let clock = SimClock::new();
        let sink = RecordingSink::default();
        let got: Result<Vec<u8>, &str> = wrap_call_sized(
            &clock,
            &sink,
            site!("MPI_Recv"),
            0.0,
            || Ok(vec![0u8; 512]),
            |r| r.as_ref().map_or(0, |d: &Vec<u8>| d.len() as u64),
        );
        assert_eq!(got.unwrap().len(), 512);
        let events = sink.events.lock();
        assert_eq!(events[0].1, 512);
        assert_eq!(events[0].0.name(), "MPI_Recv");
        // errors pass through and record zero bytes
        drop(events);
        let err: Result<Vec<u8>, &str> = wrap_call_sized(
            &clock,
            &sink,
            site!("MPI_Recv"),
            0.0,
            || Err("truncated"),
            |r| r.as_ref().map_or(0, |d: &Vec<u8>| d.len() as u64),
        );
        assert!(err.is_err());
        assert_eq!(sink.events.lock()[1].1, 0);
    }

    #[test]
    fn nested_wrapped_calls_nest_durations() {
        // an outer library call (cublasDgemm) that internally makes a
        // wrapped runtime call (cudaLaunch): the outer duration includes
        // the inner one, as it does for real IPM
        let clock = SimClock::new();
        let sink = RecordingSink::default();
        wrap_call(&clock, &sink, site!("cublasDgemm"), 0, 0.0, || {
            wrap_call(&clock, &sink, site!("cudaLaunch"), 0, 0.0, || {
                clock.advance(0.1)
            });
            clock.advance(0.05);
        });
        let events = sink.events.lock();
        assert_eq!(events[0].0.name(), "cudaLaunch");
        assert_eq!(events[1].0.name(), "cublasDgemm");
        assert!(events[1].2 > events[0].2);
        assert!((events[1].2 - 0.15).abs() < 1e-12);
    }
}

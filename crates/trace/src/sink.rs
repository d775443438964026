//! The [`Tracer`] trait and the built-in sinks.
//!
//! Instrumented code holds a `&mut dyn Tracer` and calls [`emit`] with a
//! closure; when the sink reports itself disabled the closure is never
//! invoked, so event construction (string formatting, unit conversion)
//! costs nothing on the untraced path beyond one virtual call per site.

use crate::event::Event;
use crate::summary::TraceSummary;

/// A destination for trace events.
pub trait Tracer {
    /// Whether this sink wants events at all. Call sites should skip event
    /// construction when this returns `false` (see [`emit`]).
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, ev: &Event);
}

/// Builds and records an event only if the tracer is enabled.
///
/// The closure defers all field computation — formatting a label, reading a
/// capacitor level — until we know someone is listening.
#[inline]
pub fn emit(tracer: &mut dyn Tracer, build: impl FnOnce() -> Event) {
    if tracer.enabled() {
        let ev = build();
        tracer.record(&ev);
    }
}

/// The zero-cost sink: reports itself disabled and drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _ev: &Event) {}
}

/// Unbounded in-memory sink; the workhorse for tests.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Every event recorded, in order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tracer for VecSink {
    fn record(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

/// Metrics-only sink: folds every event into a [`TraceSummary`] without
/// retaining the events themselves. Constant memory regardless of run
/// length.
#[derive(Debug, Clone, Default)]
pub struct CounterSink {
    /// The running summary.
    pub summary: TraceSummary,
}

impl CounterSink {
    /// Creates an empty counter sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tracer for CounterSink {
    fn record(&mut self, ev: &Event) {
        self.summary.observe(ev);
    }
}

/// Renders events to JSONL in memory, one `\n`-terminated line per event;
/// `repro --trace` writes the captured text to the trace file verbatim, and
/// the `nvp-trace` binary reads it back.
///
/// This is the building block for deterministic parallel tracing: each
/// sweep job records into its own `JsonlBufSink`, and the sweep engine
/// concatenates the buffers in job-submission order, producing a trace
/// file identical to a serial run's.
#[derive(Debug, Clone, Default)]
pub struct JsonlBufSink {
    buf: String,
    written: u64,
}

impl JsonlBufSink {
    /// Creates an empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The accumulated JSONL text (one `\n`-terminated line per event).
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the sink, returning the accumulated JSONL text.
    pub fn into_string(self) -> String {
        self.buf
    }
}

impl Tracer for JsonlBufSink {
    fn record(&mut self, ev: &Event) {
        self.buf.push_str(&ev.to_json());
        self.buf.push('\n');
        self.written += 1;
    }
}

/// Fans one event stream out to two sinks (e.g. JSONL file + counters).
pub struct TeeSink<'a> {
    /// First sink.
    pub a: &'a mut dyn Tracer,
    /// Second sink.
    pub b: &'a mut dyn Tracer,
}

impl Tracer for TeeSink<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&mut self, ev: &Event) {
        if self.a.enabled() {
            self.a.record(ev);
        }
        if self.b.enabled() {
            self.b.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(tick: u64) -> Event {
        Event::OutageStart { tick }
    }

    #[test]
    fn noop_never_builds_the_event() {
        let mut noop = NoopTracer;
        let mut built = false;
        emit(&mut noop, || {
            built = true;
            ev(0)
        });
        assert!(!built, "closure must not run for a disabled sink");
    }

    #[test]
    fn vec_sink_keeps_order() {
        let mut sink = VecSink::new();
        for t in 0..5 {
            emit(&mut sink, || ev(t));
        }
        let ticks: Vec<u64> = sink.events.iter().map(|e| e.tick()).collect();
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn counter_sink_counts_without_storing() {
        let mut sink = CounterSink::new();
        for t in 0..4 {
            sink.record(&ev(t));
        }
        sink.record(&Event::OutageEnd {
            tick: 9,
            duration: 5,
        });
        assert_eq!(sink.summary.count(EventKind::OutageStart), 4);
        assert_eq!(sink.summary.count(EventKind::OutageEnd), 1);
        assert_eq!(sink.summary.total(), 5);
    }

    #[test]
    fn jsonl_sink_roundtrips_through_a_file() {
        let path = std::env::temp_dir().join("nvp_trace_sink_test.jsonl");
        let mut sink = JsonlBufSink::new();
        let events = vec![
            Event::RunStart {
                tick: 0,
                label: "t".into(),
            },
            ev(3),
            Event::OutageEnd {
                tick: 8,
                duration: 5,
            },
        ];
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.written(), 3);
        assert_eq!(sink.as_str().lines().count(), 3);
        std::fs::write(&path, sink.into_string()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<Event> = text.lines().map(|l| Event::from_json(l).unwrap()).collect();
        assert_eq!(back, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tee_sink_feeds_both() {
        let mut a = VecSink::new();
        let mut b = CounterSink::new();
        {
            let mut tee = TeeSink {
                a: &mut a,
                b: &mut b,
            };
            emit(&mut tee, || ev(1));
            emit(&mut tee, || ev(2));
        }
        assert_eq!(a.events.len(), 2);
        assert_eq!(b.summary.total(), 2);
    }
}

//! # viprof-telemetry — the pipeline's self-observability layer
//!
//! VIProf's thesis is that a profiler must see every layer of the
//! stack; this crate applies that thesis to the profiler itself. One
//! [`Telemetry`] registry rides along a session and collects, from
//! every pipeline stage (NMI handler → ring buffer → daemon → journal
//! → resolver → report):
//!
//! * **counters / gauges / histograms** ([`metrics`]) — always-on
//!   atomics, JXPerf-style: cheap enough to never turn off;
//! * **stage timers** ([`metrics::Stage`]) — entry counts and
//!   durations in **virtual cycles** (the sim clock), never wall time,
//!   so a seeded run reproduces its own overhead breakdown
//!   bit-for-bit;
//! * a **flight recorder** ([`recorder`]) — a bounded ring of
//!   structured events that makes fault-matrix runs explainable after
//!   the fact.
//!
//! Registration (name → handle) is the cold path, behind a mutex;
//! instrumentation sites resolve their handles once at attach time and
//! then touch only atomics. Telemetry never charges simulated cycles:
//! the observed run's virtual timing is identical with the layer on or
//! off, which `journal_costs_no_cycles`-style tests rely on.
//!
//! Exports ([`export::TelemetrySnapshot`]) are fully ordered and
//! integer-valued, so the JSON form is byte-identical across same-seed
//! runs — the determinism contract `tests/telemetry.rs` pins.

pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod timeline;
pub mod trace;

pub use export::{log2_rows, HistogramSnapshot, StageSnapshot, TelemetrySnapshot};
pub use health::{
    HealthFinding, HealthReport, HealthRule, Severity, DEFAULT_HEALTH_RULES,
};
pub use metrics::{bucket_hi, bucket_lo, bucket_of, Counter, Gauge, Histogram, Stage, BUCKETS};
pub use recorder::{Event, FlightRecorder, DEFAULT_EVENT_CAPACITY};
pub use timeline::{Timeline, TimelineWindow, DEFAULT_TIMELINE_CAPACITY};
pub use trace::{
    LineageEntry, LineageTable, SpanRecord, SpanStore, TraceCtx, TraceLayer,
    TraceSnapshot, DEFAULT_SPAN_CAPACITY,
};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    stages: Mutex<BTreeMap<&'static str, Stage>>,
    recorder: Mutex<FlightRecorder>,
    tracer: Mutex<SpanStore>,
    timeline: Mutex<Timeline>,
    /// Virtual "now": clocked layers publish the sim clock here so
    /// clock-less layers (journal, agent, bench harness) can stamp
    /// flight-recorder events with a deterministic timestamp.
    now: AtomicU64,
}

/// A clonable handle to one telemetry registry. Cloning shares the
/// registry (sessions pass the same handle down every layer).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Registry>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Get-or-create; call once per site and keep the handle (the
    /// lookup locks a map, the handle does not).
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .counters
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .clone()
    }

    pub fn stage(&self, name: &'static str) -> Stage {
        self.inner
            .stages
            .lock()
            .unwrap()
            .entry(name)
            .or_default()
            .clone()
    }

    /// Publish the sim clock (cheap atomic store; clocked layers call
    /// this as time advances).
    pub fn set_now(&self, cycles: u64) {
        self.inner.now.store(cycles, Ordering::Relaxed);
    }

    /// Last published virtual time.
    pub fn now(&self) -> u64 {
        self.inner.now.load(Ordering::Relaxed)
    }

    /// Record a flight-recorder event stamped with the current virtual
    /// time. Only call from deterministic (single-threaded or
    /// post-join) contexts.
    pub fn event(&self, kind: &str, detail: &str, fields: &[(&str, u64)]) {
        self.event_at(self.now(), kind, detail, fields);
    }

    /// [`Self::event`] with an explicit virtual timestamp.
    pub fn event_at(&self, cycles: u64, kind: &str, detail: &str, fields: &[(&str, u64)]) {
        self.inner
            .recorder
            .lock()
            .unwrap()
            .record(cycles, kind, detail, fields);
    }

    /// Open a trace span at the current virtual time. `parent: None`
    /// starts a new trace; the first root becomes the session root,
    /// discoverable by lower layers via [`Self::trace_root`]. Like
    /// flight-recorder events, only call from deterministic
    /// (single-threaded or post-join) contexts.
    pub fn trace_begin(
        &self,
        layer: TraceLayer,
        name: &str,
        parent: Option<TraceCtx>,
    ) -> TraceCtx {
        self.trace_begin_at(self.now(), layer, name, parent)
    }

    /// [`Self::trace_begin`] with an explicit virtual timestamp.
    pub fn trace_begin_at(
        &self,
        cycles: u64,
        layer: TraceLayer,
        name: &str,
        parent: Option<TraceCtx>,
    ) -> TraceCtx {
        let (ctx, recorded) = self
            .inner
            .tracer
            .lock()
            .unwrap()
            .begin(layer, name, parent, cycles);
        if recorded {
            self.counter(names::TRACE_SPANS_RECORDED).inc();
        } else {
            self.counter(names::TRACE_SPANS_DROPPED).inc();
        }
        ctx
    }

    /// Close a trace span at the current virtual time, attaching
    /// `fields`. Closing a span the bounded store dropped is a no-op.
    pub fn trace_end(&self, ctx: TraceCtx, fields: &[(&str, u64)]) {
        self.trace_end_at(self.now(), ctx, fields);
    }

    /// [`Self::trace_end`] with an explicit virtual timestamp.
    pub fn trace_end_at(&self, cycles: u64, ctx: TraceCtx, fields: &[(&str, u64)]) {
        self.inner.tracer.lock().unwrap().end(ctx, cycles, fields);
    }

    /// The first root span opened in this registry (the session root).
    pub fn trace_root(&self) -> Option<TraceCtx> {
        self.inner.tracer.lock().unwrap().root()
    }

    /// Materialize the span store into ordered plain data.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.inner.tracer.lock().unwrap().snapshot()
    }

    /// Sample the timeline at the current virtual time: read the
    /// tracked series ([`names::TIMELINE_COUNTERS`] /
    /// [`names::TIMELINE_GAUGES`]) and append one window of deltas.
    /// The drain routine calls this once per drain, the final flush at
    /// `stop()` included. Like flight-recorder events, only call from
    /// deterministic contexts.
    pub fn sample_timeline(&self) {
        self.sample_timeline_at(self.now());
    }

    /// [`Self::sample_timeline`] with an explicit virtual timestamp.
    /// Reads the registry without registering anything, so sampling
    /// never changes which metrics a snapshot contains.
    pub fn sample_timeline_at(&self, cycles: u64) {
        let counters: Vec<(&'static str, u64)> = {
            let map = self.inner.counters.lock().unwrap();
            names::TIMELINE_COUNTERS
                .iter()
                .map(|name| (*name, map.get(*name).map(|c| c.get()).unwrap_or(0)))
                .collect()
        };
        let gauges: Vec<(&'static str, u64)> = {
            let map = self.inner.gauges.lock().unwrap();
            names::TIMELINE_GAUGES
                .iter()
                .map(|name| (*name, map.get(*name).map(|g| g.get()).unwrap_or(0)))
                .collect()
        };
        self.inner
            .timeline
            .lock()
            .unwrap()
            .record(cycles, &counters, &gauges);
        // Self-accounting (after the record, so the timeline never
        // tracks its own counters).
        self.counter(names::TIMELINE_SAMPLES).inc();
    }

    /// Materialize the timeline ring into ordered plain data.
    pub fn timeline_snapshot(&self) -> Timeline {
        self.inner.timeline.lock().unwrap().clone()
    }

    /// Materialize everything into ordered plain data.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.to_string(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.to_string(),
                count: h.count(),
                sum: h.sum(),
                buckets: h.nonzero_buckets(),
            })
            .collect();
        let stages = self
            .inner
            .stages
            .lock()
            .unwrap()
            .iter()
            .map(|(name, s)| StageSnapshot {
                name: name.to_string(),
                entries: s.entries(),
                cycles: s.cycles(),
            })
            .collect();
        let recorder = self.inner.recorder.lock().unwrap();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            stages,
            events: recorder.events(),
            events_dropped: recorder.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_registry() {
        let t = Telemetry::new();
        let a = t.counter(names::DAEMON_DRAINS);
        let b = t.clone().counter(names::DAEMON_DRAINS);
        a.add(2);
        b.inc();
        assert_eq!(t.counter(names::DAEMON_DRAINS).get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let t = Telemetry::new();
            // Registered out of order; the snapshot sorts by name.
            t.counter(names::SESSION_STOPS).inc();
            t.counter(names::DAEMON_WAKEUPS).add(5);
            t.gauge(names::BUFFER_OCCUPANCY).set(3);
            t.histogram(names::DAEMON_BATCH_SAMPLES).record(12);
            t.set_now(500);
            t.event(names::EVENT_DAEMON_STALL, "", &[("missed", 1)]);
            t.stage(names::STAGE_DAEMON_DRAIN).record(90);
            t.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let names: Vec<&str> = a.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec![names::DAEMON_WAKEUPS, names::SESSION_STOPS]);
        assert_eq!(a.events[0].cycles, 500);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::new();
        t.counter(names::BUFFER_DROPPED).add(7);
        t.stage(names::STAGE_NMI_HANDLER).record(123);
        t.event_at(9, names::EVENT_SESSION_STOP, "s", &[]);
        let snap = t.snapshot();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn trace_spans_ride_the_registry() {
        let t = Telemetry::new();
        t.set_now(1_000);
        let root = t.trace_begin(TraceLayer::Session, "session", None);
        assert_eq!(t.trace_root(), Some(root));
        t.set_now(1_200);
        let drain = t.trace_begin(TraceLayer::Drain, "daemon.drain", Some(root));
        t.set_now(1_260);
        t.trace_end(drain, &[("samples", 4)]);
        t.set_now(2_000);
        t.trace_end(root, &[]);

        let trace = t.trace_snapshot();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "session");
        assert_eq!(trace.spans[1].parent, root.span);
        assert_eq!(trace.spans[1].duration(), 60);
        assert_eq!(trace.spans[1].field("samples"), Some(4));

        let snap = t.snapshot();
        assert_eq!(snap.counter(names::TRACE_SPANS_RECORDED), 2);
        assert_eq!(snap.counter(names::TRACE_SPANS_DROPPED), 0);
    }

    #[test]
    fn timeline_sampling_tracks_allowlisted_series_without_registering() {
        let t = Telemetry::new();
        t.counter(names::BUFFER_DROPPED).add(2);
        t.set_now(1_000);
        t.sample_timeline();
        t.counter(names::BUFFER_DROPPED).add(3);
        t.counter(names::LIVE_FULL_REBUILDS).add(9); // untracked by the timeline
        t.set_now(2_000);
        t.sample_timeline();

        let tl = t.timeline_snapshot();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.series(names::BUFFER_DROPPED), vec![(1_000, 2), (2_000, 3)]);
        assert_eq!(tl.total(names::BUFFER_DROPPED), 5);
        assert_eq!(tl.total(names::LIVE_FULL_REBUILDS), 0, "untracked series ignored");

        let snap = t.snapshot();
        assert_eq!(snap.counter(names::TIMELINE_SAMPLES), 2);
        // Reading the allowlist registers nothing: tracked-but-silent
        // series stay out of the snapshot entirely.
        assert!(
            snap.counters.iter().all(|(n, _)| n != names::GOVERNOR_BACKOFFS),
            "sampling must not register silent series"
        );
    }
}

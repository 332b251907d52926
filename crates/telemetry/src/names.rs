//! The metric catalog: every name the pipeline records, in one place.
//!
//! Instrumentation sites must take names from here — the catalog is
//! the telemetry schema, and `scripts/verify.sh` diffs it (via
//! `viprof stat --schema`) against the reviewed golden list in
//! `scripts/telemetry-schema.txt`, so additions and removals fail CI
//! until the golden file is updated alongside them.

// ---- counters ----
pub const CPU_SAMPLES_DELIVERED: &str = "cpu.samples_delivered";
pub const CPU_SAMPLES_SUPPRESSED: &str = "cpu.samples_suppressed";
pub const BUFFER_PUSHED: &str = "buffer.pushed";
pub const BUFFER_DROPPED: &str = "buffer.dropped";
pub const BUFFER_DRAIN_ALLOCATED_SLOTS: &str = "buffer.drain_allocated_slots";
pub const DAEMON_WAKEUPS: &str = "daemon.wakeups";
pub const DAEMON_DRAINS: &str = "daemon.drains";
pub const DAEMON_STALLS: &str = "daemon.stalls";
pub const DAEMON_BATCHES_JOURNALED: &str = "daemon.batches_journaled";
pub const DAEMON_DEAD_GEN_DROPPED: &str = "daemon.dead_gen_dropped";
pub const DAEMON_DEADLINE_MISSES: &str = "daemon.deadline_misses";
pub const GOVERNOR_BACKOFFS: &str = "governor.backoffs";
pub const GOVERNOR_ESCALATIONS: &str = "governor.escalations";
pub const GOVERNOR_RECOVERIES: &str = "governor.recoveries";
pub const SUPERVISOR_RESTARTS: &str = "supervisor.restarts";
pub const SUPERVISOR_MISSED: &str = "supervisor.missed";
pub const SUPERVISOR_REDRAINED_SAMPLES: &str = "supervisor.redrained_samples";
pub const JOURNAL_APPENDS: &str = "journal.appends";
pub const JOURNAL_COMMITS: &str = "journal.commits";
pub const JOURNAL_REPAIRS: &str = "journal.repairs";
pub const JOURNAL_APPENDED_BYTES: &str = "journal.appended_bytes";
/// No longer recorded: the live engine ingests no batches. Kept
/// because perfbench's per-layer `core.live_batches` still reads it
/// (as 0) until perfbench drops that metric.
pub const LIVE_BATCHES: &str = "live.batches";
pub const LIVE_FULL_REBUILDS: &str = "live.full_rebuilds";
/// No longer recorded: the live engine reloads through the batch
/// loader and extends no index. Kept because perfbench's per-layer
/// `core.live_extends` still reads it (as 0) until perfbench drops
/// that metric.
pub const LIVE_INCREMENTAL_EXTENDS: &str = "live.incremental_extends";
pub const AGENT_MAPS_WRITTEN: &str = "agent.maps_written";
pub const AGENT_MAP_ENTRIES: &str = "agent.map_entries";
pub const AGENT_GC_EPOCHS: &str = "agent.gc_epochs";
pub const VM_GC_COLLECTIONS: &str = "vm.gc_collections";
pub const REGISTRY_GENERATION_BUMPS: &str = "registry.generation_bumps";
pub const REGISTRY_REAPS: &str = "registry.reaps";
pub const REGISTRY_REGISTRATIONS: &str = "registry.registrations";
pub const RESOLVE_SHARD_PANICS: &str = "resolve.shard_panics";
pub const SESSION_INSTALLS: &str = "session.installs";
pub const SESSION_STOPS: &str = "session.stops";
pub const TIMELINE_SAMPLES: &str = "timeline.samples";
pub const TRACE_SPANS_DROPPED: &str = "trace.spans_dropped";
pub const TRACE_SPANS_RECORDED: &str = "trace.spans_recorded";

/// Saturation counters: the one naming convention for "a bounded
/// resource was full (or a governor shed load) and records were
/// discarded". Such counters end in `dropped` or `suppressed`, or name
/// the eviction (`evicted`); nothing else may use those suffixes, and
/// every counter using them must appear here — the catalog test
/// enforces both directions, so a new saturation point cannot ship
/// under an ad-hoc name. The flight recorder's and span store's ring
/// evictions surface as `events_dropped` (a snapshot field, by design
/// outside the registry) and [`TRACE_SPANS_DROPPED`] respectively.
pub const SATURATION_COUNTERS: &[&str] = &[
    BUFFER_DROPPED,
    CPU_SAMPLES_SUPPRESSED,
    DAEMON_DEAD_GEN_DROPPED,
    TRACE_SPANS_DROPPED,
];

/// Counter series the [`crate::timeline::Timeline`] tracks per drain
/// window, sorted. Deliberately a session-side allowlist: `resolve.*`
/// and `live.*` series are excluded so the exported timeline is a pure function of the *session* — invariant
/// to how (threads) and when (batch vs sealed live) the profile is
/// later resolved.
pub const TIMELINE_COUNTERS: &[&str] = &[
    AGENT_MAPS_WRITTEN,
    BUFFER_DROPPED,
    BUFFER_PUSHED,
    CPU_SAMPLES_DELIVERED,
    CPU_SAMPLES_SUPPRESSED,
    DAEMON_BATCHES_JOURNALED,
    DAEMON_DEAD_GEN_DROPPED,
    DAEMON_DEADLINE_MISSES,
    DAEMON_DRAINS,
    DAEMON_STALLS,
    DAEMON_WAKEUPS,
    GOVERNOR_BACKOFFS,
    GOVERNOR_ESCALATIONS,
    GOVERNOR_RECOVERIES,
    JOURNAL_APPENDS,
    JOURNAL_COMMITS,
    JOURNAL_REPAIRS,
    SUPERVISOR_MISSED,
    SUPERVISOR_REDRAINED_SAMPLES,
    SUPERVISOR_RESTARTS,
    TRACE_SPANS_DROPPED,
    VM_GC_COLLECTIONS,
];

// ---- gauges ----
pub const BUFFER_OCCUPANCY: &str = "buffer.occupancy";
pub const BUFFER_CAPACITY: &str = "buffer.capacity";
pub const GOVERNOR_PERIOD: &str = "governor.period";
pub const SUPERVISOR_LAST_BACKOFF: &str = "supervisor.last_backoff";
pub const RESOLVE_SHARDS: &str = "resolve.shards";

/// Gauge tracks the timeline records per window (absolute values, not
/// deltas), sorted. Same session-side rule as [`TIMELINE_COUNTERS`].
pub const TIMELINE_GAUGES: &[&str] = &[
    BUFFER_CAPACITY,
    BUFFER_OCCUPANCY,
    GOVERNOR_PERIOD,
    SUPERVISOR_LAST_BACKOFF,
];

// ---- histograms ----
pub const DAEMON_BATCH_SAMPLES: &str = "daemon.batch_samples";
pub const RESOLVE_SHARD_SAMPLES: &str = "resolve.shard_samples";

// ---- stages (virtual-cycle spans; offline stages count work units) ----
pub const STAGE_NMI_HANDLER: &str = "stage.nmi_handler";
pub const STAGE_DAEMON_DRAIN: &str = "stage.daemon_drain";
pub const STAGE_AGENT_MAP_WRITE: &str = "stage.agent_map_write";
pub const STAGE_RESOLVE_LOAD: &str = "stage.resolve_load";

// ---- trace spans (the causal tree `viprof trace` renders) ----
pub const SPAN_AGENT_MAP_WRITE: &str = "span.agent_map_write";
pub const SPAN_DAEMON_DRAIN: &str = "span.daemon_drain";
pub const SPAN_LIVE_REBUILD: &str = "span.live_rebuild";
pub const SPAN_RESOLVE: &str = "span.resolve";
pub const SPAN_RESOLVE_INCARNATION: &str = "span.resolve_incarnation";
pub const SPAN_RESOLVE_INGEST: &str = "span.resolve_ingest";
pub const SPAN_RESOLVE_SHARDS: &str = "span.resolve_shards";
pub const SPAN_SESSION: &str = "span.session";
pub const SPAN_SUPERVISOR_REDRAIN: &str = "span.supervisor_redrain";
pub const SPAN_VM_GC: &str = "span.vm_gc";

// ---- lineage loss buckets (`SessionReport.lineage` rows) ----
pub const LINEAGE_BLOCKED: &str = "lineage.blocked";
pub const LINEAGE_DROPPED: &str = "lineage.dropped";
pub const LINEAGE_EVICTED: &str = "lineage.evicted";
pub const LINEAGE_QUARANTINED: &str = "lineage.quarantined";

// ---- health rule ids (`SessionReport.health` findings) ----
pub const HEALTH_BUFFER_OVERFLOW: &str = "health.buffer_overflow";
pub const HEALTH_DEAD_GENERATION: &str = "health.dead_generation";
pub const HEALTH_DEADLINE_MISS: &str = "health.deadline_miss";
pub const HEALTH_GOVERNOR_BACKOFF: &str = "health.governor_backoff";
pub const HEALTH_GOVERNOR_ESCALATION: &str = "health.governor_escalation";
pub const HEALTH_JOURNAL_REPAIR: &str = "health.journal_repair";
pub const HEALTH_SPANS_DROPPED: &str = "health.spans_dropped";
pub const HEALTH_SUPERVISOR_RESTART: &str = "health.supervisor_restart";

// ---- flight-recorder event kinds ----
pub const EVENT_DAEMON_STALL: &str = "daemon.stall";
pub const EVENT_GOVERNOR_RATE_CHANGE: &str = "governor.rate_change";
pub const EVENT_RESOLVE_SHARD_QUARANTINE: &str = "resolve.shard_quarantine";
pub const EVENT_SUPERVISOR_MISSED: &str = "supervisor.missed_window";
pub const EVENT_SUPERVISOR_RESTART: &str = "supervisor.restart";
pub const EVENT_REGISTRY_REAP: &str = "registry.reap";
pub const EVENT_SESSION_INSTALL: &str = "session.install";
pub const EVENT_SESSION_STOP: &str = "session.stop";

/// The full schema: `(kind, name)` pairs, grouped by kind in
/// declaration order (names sorted within each kind).
pub const ALL_METRICS: &[(&str, &str)] = &[
    ("counter", AGENT_GC_EPOCHS),
    ("counter", AGENT_MAP_ENTRIES),
    ("counter", AGENT_MAPS_WRITTEN),
    ("counter", BUFFER_DRAIN_ALLOCATED_SLOTS),
    ("counter", BUFFER_DROPPED),
    ("counter", BUFFER_PUSHED),
    ("counter", CPU_SAMPLES_DELIVERED),
    ("counter", CPU_SAMPLES_SUPPRESSED),
    ("counter", DAEMON_BATCHES_JOURNALED),
    ("counter", DAEMON_DEAD_GEN_DROPPED),
    ("counter", DAEMON_DEADLINE_MISSES),
    ("counter", DAEMON_DRAINS),
    ("counter", DAEMON_STALLS),
    ("counter", DAEMON_WAKEUPS),
    ("counter", GOVERNOR_BACKOFFS),
    ("counter", GOVERNOR_ESCALATIONS),
    ("counter", GOVERNOR_RECOVERIES),
    ("counter", JOURNAL_APPENDED_BYTES),
    ("counter", JOURNAL_APPENDS),
    ("counter", JOURNAL_COMMITS),
    ("counter", JOURNAL_REPAIRS),
    ("counter", LIVE_FULL_REBUILDS),
    ("counter", REGISTRY_GENERATION_BUMPS),
    ("counter", REGISTRY_REAPS),
    ("counter", REGISTRY_REGISTRATIONS),
    ("counter", RESOLVE_SHARD_PANICS),
    ("counter", SESSION_INSTALLS),
    ("counter", SESSION_STOPS),
    ("counter", SUPERVISOR_MISSED),
    ("counter", SUPERVISOR_REDRAINED_SAMPLES),
    ("counter", SUPERVISOR_RESTARTS),
    ("counter", TIMELINE_SAMPLES),
    ("counter", TRACE_SPANS_DROPPED),
    ("counter", TRACE_SPANS_RECORDED),
    ("counter", VM_GC_COLLECTIONS),
    ("gauge", BUFFER_CAPACITY),
    ("gauge", BUFFER_OCCUPANCY),
    ("gauge", GOVERNOR_PERIOD),
    ("gauge", RESOLVE_SHARDS),
    ("gauge", SUPERVISOR_LAST_BACKOFF),
    ("histogram", DAEMON_BATCH_SAMPLES),
    ("histogram", RESOLVE_SHARD_SAMPLES),
    ("stage", STAGE_AGENT_MAP_WRITE),
    ("stage", STAGE_DAEMON_DRAIN),
    ("stage", STAGE_NMI_HANDLER),
    ("stage", STAGE_RESOLVE_LOAD),
    ("span", SPAN_AGENT_MAP_WRITE),
    ("span", SPAN_DAEMON_DRAIN),
    ("span", SPAN_LIVE_REBUILD),
    ("span", SPAN_RESOLVE),
    ("span", SPAN_RESOLVE_INCARNATION),
    ("span", SPAN_RESOLVE_INGEST),
    ("span", SPAN_RESOLVE_SHARDS),
    ("span", SPAN_SESSION),
    ("span", SPAN_SUPERVISOR_REDRAIN),
    ("span", SPAN_VM_GC),
    ("lineage", LINEAGE_BLOCKED),
    ("lineage", LINEAGE_DROPPED),
    ("lineage", LINEAGE_EVICTED),
    ("lineage", LINEAGE_QUARANTINED),
    ("health", HEALTH_BUFFER_OVERFLOW),
    ("health", HEALTH_DEAD_GENERATION),
    ("health", HEALTH_DEADLINE_MISS),
    ("health", HEALTH_GOVERNOR_BACKOFF),
    ("health", HEALTH_GOVERNOR_ESCALATION),
    ("health", HEALTH_JOURNAL_REPAIR),
    ("health", HEALTH_SPANS_DROPPED),
    ("health", HEALTH_SUPERVISOR_RESTART),
    ("event", EVENT_DAEMON_STALL),
    ("event", EVENT_GOVERNOR_RATE_CHANGE),
    ("event", EVENT_REGISTRY_REAP),
    ("event", EVENT_RESOLVE_SHARD_QUARANTINE),
    ("event", EVENT_SESSION_INSTALL),
    ("event", EVENT_SESSION_STOP),
    ("event", EVENT_SUPERVISOR_MISSED),
    ("event", EVENT_SUPERVISOR_RESTART),
];

/// Schema as printable lines (`<kind> <name>`), the exact format the
/// golden file stores.
pub fn schema_lines() -> Vec<String> {
    ALL_METRICS
        .iter()
        .map(|(kind, name)| format!("{kind} {name}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [&str; 8] = [
        "counter",
        "gauge",
        "histogram",
        "stage",
        "span",
        "lineage",
        "health",
        "event",
    ];

    #[test]
    fn catalog_has_no_duplicates_and_is_sorted_within_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for (kind, name) in ALL_METRICS {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(KINDS.contains(kind), "unknown metric kind {kind}");
        }
        for kind in KINDS {
            let names: Vec<&str> = ALL_METRICS
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, n)| *n)
                .collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "{kind} names out of order");
        }
    }

    /// The saturation-counter convention, both directions: every
    /// counter whose name signals discarded records is listed in
    /// [`SATURATION_COUNTERS`], and everything listed is a cataloged
    /// counter with a conforming name.
    #[test]
    fn saturation_counters_follow_the_convention() {
        let is_saturation_name = |name: &str| {
            name.ends_with("dropped")
                || name.ends_with("suppressed")
                || name.contains("evicted")
        };
        let counters: Vec<&str> = ALL_METRICS
            .iter()
            .filter(|(k, _)| *k == "counter")
            .map(|(_, n)| *n)
            .collect();
        for name in SATURATION_COUNTERS {
            assert!(
                counters.contains(name),
                "{name} is listed as a saturation counter but not cataloged"
            );
            assert!(
                is_saturation_name(name),
                "{name} does not follow the saturation naming convention"
            );
        }
        for name in &counters {
            assert_eq!(
                is_saturation_name(name),
                SATURATION_COUNTERS.contains(name),
                "saturation audit out of sync for {name}"
            );
        }
        let mut sorted = SATURATION_COUNTERS.to_vec();
        sorted.sort_unstable();
        assert_eq!(SATURATION_COUNTERS, sorted, "audit list out of order");
    }

    /// The timeline allowlists: sorted, cataloged under the right
    /// kind, and free of resolve-time series (which would break the
    /// timeline's invariance to how the profile is later resolved).
    #[test]
    fn timeline_allowlists_are_sorted_cataloged_session_side_series() {
        let of_kind = |kind: &str| -> Vec<&str> {
            ALL_METRICS
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, n)| *n)
                .collect()
        };
        let counters = of_kind("counter");
        let gauges = of_kind("gauge");
        for (list, catalog) in [
            (TIMELINE_COUNTERS, &counters),
            (TIMELINE_GAUGES, &gauges),
        ] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            assert_eq!(list, sorted, "allowlist out of order");
            for name in list {
                assert!(catalog.contains(name), "{name} not cataloged");
                for banned in ["resolve.", "live.", "report.", "bench.", "timeline."] {
                    assert!(
                        !name.starts_with(banned),
                        "{name} is resolve-time or self-referential"
                    );
                }
            }
        }
        // Every cataloged saturation counter the session side can tick
        // is visible to the timeline (resolve-side ones excluded).
        for name in SATURATION_COUNTERS {
            if name.starts_with("resolve.") {
                continue;
            }
            assert!(
                TIMELINE_COUNTERS.contains(name),
                "saturation counter {name} invisible to the timeline"
            );
        }
    }
}

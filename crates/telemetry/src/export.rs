//! Snapshot exporters: deterministic JSON and a human-text rendering.
//!
//! The JSON form goes through [`crate::json`] and is fully ordered —
//! object keys come from sorted registry iteration and every value is
//! an integer — so two runs with the same seed produce byte-identical
//! bytes. [`TelemetrySnapshot::from_json`] reads snapshots back
//! (`viprof stat` consumes exported sessions offline).

use crate::json::{get, parse_json, JsonWriter};
use crate::recorder::Event;

/// Materialized view of one registry: plain ordered data, so it can be
/// compared, cloned, and embedded in report structs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// `(name, value)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Sorted by name.
    pub stages: Vec<StageSnapshot>,
    /// Flight-recorder contents, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring to make room.
    pub events_dropped: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    /// Non-empty log2 buckets as `(bucket index, count)`, ascending.
    pub buckets: Vec<(usize, u64)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    pub name: String,
    pub entries: u64,
    pub cycles: u64,
}

impl TelemetrySnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name)
    }

    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Events of one kind, oldest first.
    pub fn events_of(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Deterministic JSON: same snapshot → same bytes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("counters");
        w.obj_open();
        for (name, v) in &self.counters {
            w.key(name);
            w.num(*v);
        }
        w.obj_close();
        w.key("gauges");
        w.obj_open();
        for (name, v) in &self.gauges {
            w.key(name);
            w.num(*v);
        }
        w.obj_close();
        w.key("histograms");
        w.obj_open();
        for h in &self.histograms {
            w.key(&h.name);
            w.obj_open();
            w.key("count");
            w.num(h.count);
            w.key("sum");
            w.num(h.sum);
            w.key("buckets");
            w.obj_open();
            for (k, n) in &h.buckets {
                w.key(&k.to_string());
                w.num(*n);
            }
            w.obj_close();
            w.obj_close();
        }
        w.obj_close();
        w.key("stages");
        w.obj_open();
        for s in &self.stages {
            w.key(&s.name);
            w.obj_open();
            w.key("entries");
            w.num(s.entries);
            w.key("cycles");
            w.num(s.cycles);
            w.obj_close();
        }
        w.obj_close();
        w.key("events");
        w.arr_open();
        for e in &self.events {
            w.obj_open();
            w.key("seq");
            w.num(e.seq);
            w.key("cycles");
            w.num(e.cycles);
            w.key("kind");
            w.str(&e.kind);
            w.key("detail");
            w.str(&e.detail);
            w.key("fields");
            w.obj_open();
            for (k, v) in &e.fields {
                w.key(k);
                w.num(*v);
            }
            w.obj_close();
            w.obj_close();
        }
        w.arr_close();
        w.key("events_dropped");
        w.num(self.events_dropped);
        w.obj_close();
        w.finish()
    }

    /// Parse a snapshot previously written by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        let root = parse_json(text)?;
        let top = root.as_obj("top level")?;
        let mut snap = TelemetrySnapshot::default();
        for (name, v) in get(top, "counters")?.as_obj("counters")? {
            snap.counters.push((name.clone(), v.as_num(name)?));
        }
        for (name, v) in get(top, "gauges")?.as_obj("gauges")? {
            snap.gauges.push((name.clone(), v.as_num(name)?));
        }
        for (name, v) in get(top, "histograms")?.as_obj("histograms")? {
            let h = v.as_obj(name)?;
            let mut buckets = Vec::new();
            for (k, n) in get(h, "buckets")?.as_obj("buckets")? {
                let idx: usize = k
                    .parse()
                    .map_err(|_| format!("bad bucket index {k:?}"))?;
                buckets.push((idx, n.as_num(k)?));
            }
            snap.histograms.push(HistogramSnapshot {
                name: name.clone(),
                count: get(h, "count")?.as_num("count")?,
                sum: get(h, "sum")?.as_num("sum")?,
                buckets,
            });
        }
        for (name, v) in get(top, "stages")?.as_obj("stages")? {
            let s = v.as_obj(name)?;
            snap.stages.push(StageSnapshot {
                name: name.clone(),
                entries: get(s, "entries")?.as_num("entries")?,
                cycles: get(s, "cycles")?.as_num("cycles")?,
            });
        }
        for v in get(top, "events")?.as_arr("events")? {
            let e = v.as_obj("event")?;
            let mut fields = Vec::new();
            for (k, fv) in get(e, "fields")?.as_obj("fields")? {
                fields.push((k.clone(), fv.as_num(k)?));
            }
            snap.events.push(Event {
                seq: get(e, "seq")?.as_num("seq")?,
                cycles: get(e, "cycles")?.as_num("cycles")?,
                kind: get(e, "kind")?.as_str("kind")?.to_string(),
                detail: get(e, "detail")?.as_str("detail")?.to_string(),
                fields,
            });
        }
        snap.events_dropped = get(top, "events_dropped")?.as_num("events_dropped")?;
        Ok(snap)
    }
}

fn lookup(list: &[(String, u64)], name: &str) -> u64 {
    list.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Render non-empty log2 buckets (`(bucket index, count)` pairs, the
/// shape [`crate::metrics::Histogram::nonzero_buckets`] and
/// [`crate::trace::TraceSnapshot::duration_buckets`] produce) as
/// aligned `[lo..hi] count` rows — the one formatter shared by
/// `viprof stat --histograms` and `viprof trace --top`.
pub fn log2_rows(buckets: &[(usize, u64)]) -> Vec<String> {
    buckets
        .iter()
        .map(|(k, n)| {
            format!(
                "[{:>20}..{:>20}] {n}",
                crate::metrics::bucket_lo(*k),
                crate::metrics::bucket_hi(*k)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![("a.count".into(), 3), ("b.count".into(), 0)],
            gauges: vec![("g.occ".into(), 17)],
            histograms: vec![HistogramSnapshot {
                name: "h.sizes".into(),
                count: 4,
                sum: 1030,
                buckets: vec![(1, 3), (11, 1)],
            }],
            stages: vec![StageSnapshot {
                name: "stage.x".into(),
                entries: 2,
                cycles: 9000,
            }],
            events: vec![Event {
                seq: 0,
                cycles: 1234,
                kind: "k.e".into(),
                detail: "path/with \"quotes\"\nand newline".into(),
                fields: vec![("n".into(), 8)],
            }],
            events_dropped: 1,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let json = snap.to_json();
        let back = TelemetrySnapshot::from_json(&json).expect("parse back");
        assert_eq!(back, snap);
        // And the re-export is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn empty_snapshot_exports_and_parses() {
        let snap = TelemetrySnapshot::default();
        let json = snap.to_json();
        assert_eq!(
            TelemetrySnapshot::from_json(&json).expect("parse"),
            snap
        );
        assert!(json.contains("\"events_dropped\":0"));
    }

    #[test]
    fn accessors_find_entries() {
        let snap = sample();
        assert_eq!(snap.counter("a.count"), 3);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("g.occ"), 17);
        assert_eq!(snap.stage("stage.x").unwrap().cycles, 9000);
        assert_eq!(snap.histogram("h.sizes").unwrap().count, 4);
        assert_eq!(snap.events_of("k.e").len(), 1);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TelemetrySnapshot::from_json("").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\":12}").is_err());
        assert!(TelemetrySnapshot::from_json("{}").is_err());
        assert!(parse_json("{\"a\":1}garbage").is_err());
    }
}

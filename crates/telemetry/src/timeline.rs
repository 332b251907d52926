//! Temporal telemetry: a bounded ring of per-drain-window snapshot
//! deltas, the time-series face of the registry.
//!
//! [`crate::export::TelemetrySnapshot`] is point-in-time: it tells an
//! operator *how much* was dropped, evicted, or repaired by the end of
//! a session, but not *when* — a governor backoff ramp, an overflow
//! burst and a journal-repair storm all collapse into the same final
//! totals. The [`Timeline`] keeps the shape: the daemon samples a
//! fixed allowlist of series ([`crate::names::TIMELINE_COUNTERS`] /
//! [`crate::names::TIMELINE_GAUGES`]) after every drain window (and on
//! supervisor-forced redrains), and each sample appends one
//! [`TimelineWindow`] holding the per-window **counter deltas** and
//! the absolute **gauge values** at the window's end, stamped with the
//! sim clock.
//!
//! Determinism and bounds:
//!
//! * timestamps come only from the virtual clock, so a seeded run
//!   reproduces its timeline byte for byte;
//! * windows with an equal timestamp merge into their predecessor, so
//!   window timestamps are *strictly* monotone;
//! * when the ring exceeds its capacity the two **oldest** windows
//!   coalesce (deltas summed, the later gauges kept) — old history
//!   loses resolution, but no delta is ever discarded, so the windows
//!   always telescope exactly: for every tracked counter, the sum of
//!   window deltas equals the final cumulative value;
//! * the JSON export is canonical (`from_json(to_json(t))` is exact
//!   and re-serialization is a byte-level fixed point), the contract
//!   `viprof diff` and the committed `results/` baselines rely on.

use crate::json::{get, parse_json, JsonWriter};

/// Default ring bound: enough windows for minutes of fast drains
/// before early history starts coalescing.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 256;

/// One sampled drain window: counter deltas since the previous window
/// and gauge values at the window's end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineWindow {
    /// Sim-clock timestamp of the window's end (strictly monotone
    /// across the ring).
    pub cycles: u64,
    /// Raw samples merged into this window (same-timestamp merges and
    /// capacity coalescing make this > 1).
    pub samples: u64,
    /// Nonzero per-window counter deltas, `(name, delta)` sorted by
    /// name. Series whose value did not move are omitted.
    pub counters: Vec<(String, u64)>,
    /// Absolute values of every tracked gauge at the window's end,
    /// `(name, value)` sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl TimelineWindow {
    /// This window's delta for `name` (0 when the series didn't move).
    pub fn delta(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value at the window's end (0 when untracked).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// The bounded, deterministic ring of [`TimelineWindow`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    capacity: usize,
    /// Sim-clock origin the windows count from (0 for a session).
    origin: u64,
    /// Raw samples recorded (merges and coalescing never lose any).
    samples: u64,
    /// Oldest-pair merges performed to stay within capacity.
    coalesced: u64,
    /// Cumulative totals per tracked counter at the last sample — the
    /// baseline the next sample's deltas are computed against. Always
    /// equal to the telescoped sum of the window deltas.
    totals: Vec<(String, u64)>,
    windows: Vec<TimelineWindow>,
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }
}

impl Timeline {
    /// An empty timeline bounded to `capacity` windows (min 2, so the
    /// oldest-pair coalescing rule always applies).
    pub fn with_capacity(capacity: usize) -> Timeline {
        Timeline {
            capacity: capacity.max(2),
            origin: 0,
            samples: 0,
            coalesced: 0,
            totals: Vec::new(),
            windows: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn windows(&self) -> &[TimelineWindow] {
        &self.windows
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Raw samples recorded over the session.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Oldest-pair merges performed to stay within capacity.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Cumulative total for `name`: the telescoped sum of every
    /// window's delta.
    pub fn total(&self, name: &str) -> u64 {
        self.totals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Record one sample: `counters` are cumulative values of the
    /// tracked series, `gauges` are current values. A sample at the
    /// same timestamp as the last window merges into it; otherwise a
    /// new window is appended (coalescing the two oldest when full).
    pub fn record(
        &mut self,
        cycles: u64,
        counters: &[(&'static str, u64)],
        gauges: &[(&'static str, u64)],
    ) {
        self.samples += 1;
        let mut deltas: Vec<(String, u64)> = Vec::new();
        for (name, value) in counters {
            let prev = self.total(name);
            // Registry counters are monotone; a decrease can only mean
            // a caller mixed registries, which the delta ignores.
            if *value > prev {
                deltas.push((name.to_string(), value - prev));
                set_total(&mut self.totals, name, *value);
            }
        }
        let gauges: Vec<(String, u64)> = gauges
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect();
        if let Some(last) = self.windows.last_mut() {
            if last.cycles == cycles {
                for (name, d) in deltas {
                    merge_delta(&mut last.counters, &name, d);
                }
                last.gauges = gauges;
                last.samples += 1;
                return;
            }
            debug_assert!(last.cycles < cycles, "sim clock went backwards");
        }
        self.windows.push(TimelineWindow {
            cycles,
            samples: 1,
            counters: deltas,
            gauges,
        });
        if self.windows.len() > self.capacity {
            self.coalesce_oldest();
        }
    }

    /// Merge the two oldest windows into one (deltas summed, samples
    /// summed, the later timestamp and gauges kept) — the bound loses
    /// early-history resolution, never data.
    fn coalesce_oldest(&mut self) {
        if self.windows.len() < 2 {
            return;
        }
        let oldest = self.windows.remove(0);
        let into = &mut self.windows[0];
        for (name, d) in oldest.counters {
            merge_delta(&mut into.counters, &name, d);
        }
        into.samples += oldest.samples;
        self.coalesced += 1;
    }

    /// Per-window series for `name`: `(end cycles, delta)` per window,
    /// oldest first (zero-delta windows included).
    pub fn series(&self, name: &str) -> Vec<(u64, u64)> {
        self.windows
            .iter()
            .map(|w| (w.cycles, w.delta(name)))
            .collect()
    }

    /// The `k` series with the largest cumulative movement, `(name,
    /// total delta)` sorted by total descending then name — "what
    /// changed most over this session".
    pub fn top_movers(&self, k: usize) -> Vec<(String, u64)> {
        let mut movers: Vec<(String, u64)> = self
            .totals
            .iter()
            .filter(|(_, v)| *v > 0)
            .cloned()
            .collect();
        movers.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        movers.truncate(k);
        movers
    }

    /// Deterministic JSON: same timeline → same bytes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("capacity");
        w.num(self.capacity as u64);
        w.key("origin");
        w.num(self.origin);
        w.key("samples");
        w.num(self.samples);
        w.key("coalesced");
        w.num(self.coalesced);
        w.key("windows");
        w.arr_open();
        for win in &self.windows {
            w.obj_open();
            w.key("cycles");
            w.num(win.cycles);
            w.key("samples");
            w.num(win.samples);
            w.key("counters");
            w.obj_open();
            for (name, v) in &win.counters {
                w.key(name);
                w.num(*v);
            }
            w.obj_close();
            w.key("gauges");
            w.obj_open();
            for (name, v) in &win.gauges {
                w.key(name);
                w.num(*v);
            }
            w.obj_close();
            w.obj_close();
        }
        w.arr_close();
        w.obj_close();
        w.finish()
    }

    /// Parse a timeline previously written by [`Self::to_json`]. The
    /// cumulative totals are rebuilt by telescoping the windows, so
    /// the round-trip is exact.
    pub fn from_json(text: &str) -> Result<Timeline, String> {
        let root = parse_json(text)?;
        let top = root.as_obj("top level")?;
        let mut t = Timeline::with_capacity(
            get(top, "capacity")?.as_num("capacity")? as usize,
        );
        t.origin = get(top, "origin")?.as_num("origin")?;
        t.samples = get(top, "samples")?.as_num("samples")?;
        t.coalesced = get(top, "coalesced")?.as_num("coalesced")?;
        for v in get(top, "windows")?.as_arr("windows")? {
            let w = v.as_obj("window")?;
            let mut counters = Vec::new();
            for (name, d) in get(w, "counters")?.as_obj("counters")? {
                let d = d.as_num(name)?;
                counters.push((name.clone(), d));
                let total = t.total(name).checked_add(d).ok_or("counter total overflows")?;
                set_total(&mut t.totals, name, total);
            }
            let mut gauges = Vec::new();
            for (name, g) in get(w, "gauges")?.as_obj("gauges")? {
                gauges.push((name.clone(), g.as_num(name)?));
            }
            let win = TimelineWindow {
                cycles: get(w, "cycles")?.as_num("cycles")?,
                samples: get(w, "samples")?.as_num("samples")?,
                counters,
                gauges,
            };
            if let Some(last) = t.windows.last() {
                if last.cycles >= win.cycles {
                    return Err(format!(
                        "window timestamps not strictly monotone at {}",
                        win.cycles
                    ));
                }
            }
            t.windows.push(win);
        }
        Ok(t)
    }

    /// Aligned human rendering (the `viprof stat --health` context
    /// view): one line per window, top movers as a footer.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "timeline: {} window(s) from {} sample(s), {} coalesced\n",
            self.windows.len(),
            self.samples,
            self.coalesced
        );
        for w in &self.windows {
            let moved: Vec<String> = w
                .counters
                .iter()
                .map(|(n, d)| format!("{n}+{d}"))
                .collect();
            out.push_str(&format!(
                "  @{:<14} x{:<3} {}\n",
                w.cycles,
                w.samples,
                if moved.is_empty() {
                    "(quiet)".to_string()
                } else {
                    moved.join(" ")
                }
            ));
        }
        let movers = self.top_movers(5);
        if !movers.is_empty() {
            out.push_str("top movers:\n");
            for (name, total) in movers {
                out.push_str(&format!("  {name:<40} {total:>14}\n"));
            }
        }
        out
    }
}

fn set_total(totals: &mut Vec<(String, u64)>, name: &str, value: u64) {
    match totals.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) => *v = value,
        None => {
            totals.push((name.to_string(), value));
            totals.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }
}

fn merge_delta(counters: &mut Vec<(String, u64)>, name: &str, delta: u64) {
    match counters.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) => *v += delta,
        None => {
            counters.push((name.to_string(), delta));
            counters.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(t: &mut Timeline, cycles: u64, dropped: u64, period: u64) {
        t.record(
            cycles,
            &[("buffer.dropped", dropped), ("daemon.drains", cycles / 100)],
            &[("governor.period", period)],
        );
    }

    #[test]
    fn deltas_telescope_to_cumulative_totals() {
        let mut t = Timeline::with_capacity(8);
        sample_at(&mut t, 100, 0, 15_000);
        sample_at(&mut t, 200, 3, 15_000);
        sample_at(&mut t, 300, 3, 60_000);
        sample_at(&mut t, 400, 10, 60_000);
        let telescoped: u64 = t.windows().iter().map(|w| w.delta("buffer.dropped")).sum();
        assert_eq!(telescoped, 10);
        assert_eq!(t.total("buffer.dropped"), 10);
        assert_eq!(t.total("daemon.drains"), 4);
        assert_eq!(t.samples(), 4);
        // Gauge tracks are absolute, not deltas.
        assert_eq!(
            t.windows().iter().map(|w| (w.cycles, w.gauge("governor.period"))).collect::<Vec<_>>(),
            vec![(100, 15_000), (200, 15_000), (300, 60_000), (400, 60_000)]
        );
    }

    #[test]
    fn same_timestamp_samples_merge_and_stay_strictly_monotone() {
        let mut t = Timeline::with_capacity(8);
        sample_at(&mut t, 100, 1, 0);
        sample_at(&mut t, 100, 2, 0);
        sample_at(&mut t, 250, 2, 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.windows()[0].samples, 2);
        assert_eq!(t.windows()[0].delta("buffer.dropped"), 2);
        assert!(t.windows()[0].cycles < t.windows()[1].cycles);
        assert_eq!(t.samples(), 3);
    }

    #[test]
    fn capacity_coalesces_oldest_without_losing_deltas() {
        let mut t = Timeline::with_capacity(4);
        for i in 1..=10u64 {
            sample_at(&mut t, i * 100, i, 0);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.coalesced(), 6);
        assert_eq!(t.samples(), 10);
        let telescoped: u64 = t.windows().iter().map(|w| w.delta("buffer.dropped")).sum();
        assert_eq!(telescoped, 10, "coalescing must preserve the telescoping sum");
        let merged: u64 = t.windows().iter().map(|w| w.samples).sum();
        assert_eq!(merged, 10);
        // Still strictly monotone after merging.
        for pair in t.windows().windows(2) {
            assert!(pair[0].cycles < pair[1].cycles);
        }
    }

    #[test]
    fn json_round_trip_is_exact_and_canonical() {
        let mut t = Timeline::with_capacity(4);
        for i in 1..=6u64 {
            sample_at(&mut t, i * 97, i * i, 15_000 * i);
        }
        let json = t.to_json();
        let back = Timeline::from_json(&json).expect("parse back");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "canonical form is a fixed point");
    }

    #[test]
    fn parser_rejects_non_monotone_windows() {
        let mut t = Timeline::with_capacity(4);
        sample_at(&mut t, 100, 1, 0);
        sample_at(&mut t, 200, 2, 0);
        let bad = t.to_json().replace("\"cycles\":200", "\"cycles\":100");
        assert!(Timeline::from_json(&bad).is_err());
    }

    #[test]
    fn top_movers_rank_by_total_delta() {
        let mut t = Timeline::with_capacity(8);
        t.record(1_000, &[("buffer.dropped", 5), ("journal.repairs", 1)], &[]);
        t.record(2_000, &[("buffer.dropped", 5), ("journal.repairs", 9)], &[]);
        assert_eq!(
            t.top_movers(5),
            vec![("journal.repairs".to_string(), 9), ("buffer.dropped".to_string(), 5)]
        );
    }
}

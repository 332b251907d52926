//! Declarative health rules over the telemetry timeline.
//!
//! A raw counter dump makes the *operator* do the diagnosis; the rules
//! engine turns the [`Timeline`] into typed
//! findings — "sustained ring overflow", "governor escalated", "the
//! journal needed repairs" — each with a severity, the evidence window
//! range, and the burst shape (peak window, longest sustained run).
//! `SessionReport.health`, the `viprof report` HEALTH footer and
//! `viprof stat --health` all surface the same [`HealthReport`].
//!
//! Rule semantics, chosen so a clean run can never false-positive:
//! a [`HealthRule`] watches one timeline counter series and fires only
//! when (a) the cumulative delta reaches `threshold` **and** (b) some
//! `sustain` consecutive windows each moved the series. Rules with
//! `sustain > 1` therefore have hysteresis: an isolated one-window
//! blip stays quiet. `escalate_sustain` bumps the severity one level
//! when the longest consecutive run reaches it (a drop *storm* is
//! worse than a drop).
//!
//! Evaluation is a pure function of the timeline, so batch reports,
//! sealed live snapshots and offline `viprof stat --health` over the
//! same exported `timeline.json` agree exactly.

use crate::json::{get, parse_json, JsonWriter};
use crate::names;
use crate::timeline::Timeline;
use std::fmt;

/// Finding severity, ordered: `Info < Warning < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected under the configuration (e.g. the governor doing its
    /// job), worth a line but not an alarm.
    Info,
    /// Data was lost or repaired; the profile is still accounted.
    Warning,
    /// The pipeline was overwhelmed or gave up headroom; results need
    /// scrutiny.
    Critical,
}

impl Severity {
    /// One level worse (saturating at [`Severity::Critical`]).
    pub fn escalated(self) -> Severity {
        match self {
            Severity::Info => Severity::Warning,
            _ => Severity::Critical,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    pub fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            "critical" => Ok(Severity::Critical),
            _ => Err(format!("unknown severity {s:?}")),
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One declarative rule: watch a timeline counter series, fire on a
/// sustained threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthRule {
    /// Catalog id (`names::HEALTH_*`), the finding's stable name.
    pub id: &'static str,
    /// The timeline counter series this rule watches.
    pub series: &'static str,
    /// Minimum cumulative delta over the timeline to fire.
    pub threshold: u64,
    /// Consecutive nonzero-delta windows required to fire (>= 1; more
    /// than 1 gives the rule hysteresis against one-window blips).
    pub sustain: u64,
    /// Severity when fired.
    pub severity: Severity,
    /// If nonzero and the longest consecutive nonzero run reaches this
    /// many windows, the severity escalates one level.
    pub escalate_sustain: u64,
}

/// The reviewed default rule set, sorted by id — one rule per loss or
/// pressure signal the pipeline can emit.
pub const DEFAULT_HEALTH_RULES: &[HealthRule] = &[
    HealthRule {
        id: names::HEALTH_BUFFER_OVERFLOW,
        series: names::BUFFER_DROPPED,
        threshold: 1,
        sustain: 1,
        severity: Severity::Warning,
        escalate_sustain: 3,
    },
    HealthRule {
        id: names::HEALTH_DEAD_GENERATION,
        series: names::DAEMON_DEAD_GEN_DROPPED,
        threshold: 1,
        sustain: 1,
        severity: Severity::Info,
        escalate_sustain: 0,
    },
    HealthRule {
        id: names::HEALTH_DEADLINE_MISS,
        series: names::DAEMON_DEADLINE_MISSES,
        threshold: 1,
        sustain: 1,
        severity: Severity::Warning,
        escalate_sustain: 0,
    },
    HealthRule {
        id: names::HEALTH_GOVERNOR_BACKOFF,
        series: names::GOVERNOR_BACKOFFS,
        threshold: 1,
        sustain: 1,
        severity: Severity::Info,
        escalate_sustain: 0,
    },
    HealthRule {
        id: names::HEALTH_GOVERNOR_ESCALATION,
        series: names::GOVERNOR_ESCALATIONS,
        threshold: 1,
        sustain: 1,
        severity: Severity::Critical,
        escalate_sustain: 0,
    },
    HealthRule {
        id: names::HEALTH_JOURNAL_REPAIR,
        series: names::JOURNAL_REPAIRS,
        threshold: 1,
        sustain: 1,
        severity: Severity::Warning,
        escalate_sustain: 0,
    },
    HealthRule {
        id: names::HEALTH_SPANS_DROPPED,
        series: names::TRACE_SPANS_DROPPED,
        threshold: 1,
        sustain: 1,
        severity: Severity::Info,
        escalate_sustain: 0,
    },
    HealthRule {
        id: names::HEALTH_SUPERVISOR_RESTART,
        series: names::SUPERVISOR_RESTARTS,
        threshold: 1,
        sustain: 1,
        severity: Severity::Warning,
        escalate_sustain: 0,
    },
];

/// One fired rule with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthFinding {
    /// The rule id (`health.*`).
    pub rule: String,
    /// The counter series the evidence came from.
    pub series: String,
    pub severity: Severity,
    /// Cumulative delta over the timeline.
    pub total: u64,
    /// Windows in which the series moved.
    pub windows: u64,
    /// Largest single-window delta.
    pub peak: u64,
    /// Longest run of consecutive windows with movement.
    pub longest_run: u64,
    /// Sim-clock stamp of the first window with movement.
    pub first_cycles: u64,
    /// Sim-clock stamp of the last window with movement.
    pub last_cycles: u64,
}

impl HealthFinding {
    /// One human line, the `viprof report` HEALTH footer format.
    pub fn render_line(&self) -> String {
        format!(
            "[{}] {}: {} over {} window(s) (peak {}, run {}, cycles {}..{})",
            self.severity,
            self.rule,
            self.total,
            self.windows,
            self.peak,
            self.longest_run,
            self.first_cycles,
            self.last_cycles
        )
    }
}

/// Every fired rule, worst first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Sorted by severity descending, then rule id.
    pub findings: Vec<HealthFinding>,
}

impl HealthReport {
    /// Evaluate the reviewed default rules over `timeline`.
    pub fn evaluate(timeline: &Timeline) -> HealthReport {
        HealthReport::evaluate_with(DEFAULT_HEALTH_RULES, timeline)
    }

    /// Evaluate an explicit rule set over `timeline`. Pure: the same
    /// timeline and rules always produce the same report.
    pub fn evaluate_with(rules: &[HealthRule], timeline: &Timeline) -> HealthReport {
        let mut findings = Vec::new();
        for rule in rules {
            let mut total = 0u64;
            let mut windows = 0u64;
            let mut peak = 0u64;
            let mut run = 0u64;
            let mut longest_run = 0u64;
            let mut first_cycles = 0u64;
            let mut last_cycles = 0u64;
            for w in timeline.windows() {
                let d = w.delta(rule.series);
                if d == 0 {
                    run = 0;
                    continue;
                }
                if total == 0 {
                    first_cycles = w.cycles;
                }
                last_cycles = w.cycles;
                total += d;
                windows += 1;
                peak = peak.max(d);
                run += 1;
                longest_run = longest_run.max(run);
            }
            if total < rule.threshold || longest_run < rule.sustain {
                continue;
            }
            let severity = if rule.escalate_sustain > 0 && longest_run >= rule.escalate_sustain
            {
                rule.severity.escalated()
            } else {
                rule.severity
            };
            findings.push(HealthFinding {
                rule: rule.id.to_string(),
                series: rule.series.to_string(),
                severity,
                total,
                windows,
                peak,
                longest_run,
                first_cycles,
                last_cycles,
            });
        }
        findings.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.rule.cmp(&b.rule)));
        HealthReport { findings }
    }

    /// No rule fired.
    pub fn is_healthy(&self) -> bool {
        self.findings.is_empty()
    }

    /// The worst fired severity, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// The finding for `rule`, if it fired.
    pub fn finding(&self, rule: &str) -> Option<&HealthFinding> {
        self.findings.iter().find(|f| f.rule == rule)
    }

    /// Deterministic JSON: same report → same bytes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("findings");
        w.arr_open();
        for f in &self.findings {
            w.obj_open();
            w.key("rule");
            w.str(&f.rule);
            w.key("series");
            w.str(&f.series);
            w.key("severity");
            w.str(f.severity.as_str());
            w.key("total");
            w.num(f.total);
            w.key("windows");
            w.num(f.windows);
            w.key("peak");
            w.num(f.peak);
            w.key("longest_run");
            w.num(f.longest_run);
            w.key("first_cycles");
            w.num(f.first_cycles);
            w.key("last_cycles");
            w.num(f.last_cycles);
            w.obj_close();
        }
        w.arr_close();
        w.obj_close();
        w.finish()
    }

    /// Parse a report previously written by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<HealthReport, String> {
        let root = parse_json(text)?;
        let top = root.as_obj("top level")?;
        let mut report = HealthReport::default();
        for v in get(top, "findings")?.as_arr("findings")? {
            let f = v.as_obj("finding")?;
            report.findings.push(HealthFinding {
                rule: get(f, "rule")?.as_str("rule")?.to_string(),
                series: get(f, "series")?.as_str("series")?.to_string(),
                severity: Severity::parse(get(f, "severity")?.as_str("severity")?)?,
                total: get(f, "total")?.as_num("total")?,
                windows: get(f, "windows")?.as_num("windows")?,
                peak: get(f, "peak")?.as_num("peak")?,
                longest_run: get(f, "longest_run")?.as_num("longest_run")?,
                first_cycles: get(f, "first_cycles")?.as_num("first_cycles")?,
                last_cycles: get(f, "last_cycles")?.as_num("last_cycles")?,
            });
        }
        Ok(report)
    }

    /// Human rendering: one line per finding, or a clean bill.
    pub fn render_text(&self) -> String {
        if self.findings.is_empty() {
            return "health: ok (no rule fired)\n".to_string();
        }
        let mut out = format!("health: {} finding(s)\n", self.findings.len());
        for f in &self.findings {
            out.push_str("  ");
            out.push_str(&f.render_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timeline with `buffer.dropped` deltas per window as given.
    fn drops_timeline(deltas: &[u64]) -> Timeline {
        let mut t = Timeline::with_capacity(64);
        let mut total = 0u64;
        for (i, d) in deltas.iter().enumerate() {
            total += d;
            t.record(
                (i as u64 + 1) * 100,
                &[(names::BUFFER_DROPPED, total)],
                &[],
            );
        }
        t
    }

    #[test]
    fn clean_timeline_fires_nothing() {
        let t = drops_timeline(&[0, 0, 0, 0]);
        let report = HealthReport::evaluate(&t);
        assert!(report.is_healthy(), "{report:?}");
        assert_eq!(report.worst(), None);
        assert!(HealthReport::evaluate(&Timeline::default()).is_healthy());
    }

    #[test]
    fn single_blip_fires_at_base_severity() {
        let t = drops_timeline(&[0, 4, 0, 0]);
        let report = HealthReport::evaluate(&t);
        let f = report.finding(names::HEALTH_BUFFER_OVERFLOW).expect("fired");
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!((f.total, f.windows, f.peak, f.longest_run), (4, 1, 4, 1));
        assert_eq!((f.first_cycles, f.last_cycles), (200, 200));
    }

    #[test]
    fn sustained_storm_escalates() {
        let t = drops_timeline(&[1, 2, 3, 0, 1]);
        let report = HealthReport::evaluate(&t);
        let f = report.finding(names::HEALTH_BUFFER_OVERFLOW).expect("fired");
        assert_eq!(f.severity, Severity::Critical, "3-window run escalates");
        assert_eq!(f.longest_run, 3);
        assert_eq!(f.windows, 4);
        assert_eq!(f.total, 7);
    }

    #[test]
    fn sustain_requirement_has_hysteresis() {
        let rule = HealthRule {
            id: names::HEALTH_BUFFER_OVERFLOW,
            series: names::BUFFER_DROPPED,
            threshold: 1,
            sustain: 2,
            severity: Severity::Warning,
            escalate_sustain: 0,
        };
        // Isolated blips: total clears the threshold, but no two
        // consecutive windows moved — the rule stays quiet.
        let blips = drops_timeline(&[3, 0, 3, 0, 3]);
        assert!(HealthReport::evaluate_with(&[rule], &blips).is_healthy());
        // Two adjacent windows: fires.
        let sustained = drops_timeline(&[0, 3, 3, 0]);
        let report = HealthReport::evaluate_with(&[rule], &sustained);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].longest_run, 2);
    }

    #[test]
    fn findings_sort_worst_first_and_severities_order() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
        assert_eq!(Severity::Info.escalated(), Severity::Warning);
        assert_eq!(Severity::Critical.escalated(), Severity::Critical);

        let mut t = Timeline::with_capacity(16);
        t.record(
            100,
            &[(names::GOVERNOR_BACKOFFS, 1), (names::JOURNAL_REPAIRS, 2)],
            &[],
        );
        let report = HealthReport::evaluate(&t);
        let severities: Vec<Severity> = report.findings.iter().map(|f| f.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted, "worst first");
        assert_eq!(report.worst(), Some(Severity::Warning));
        assert_eq!(
            report.findings[0].rule,
            names::HEALTH_JOURNAL_REPAIR,
            "warning before info"
        );
    }

    #[test]
    fn json_round_trips_exactly() {
        let t = drops_timeline(&[1, 2, 3]);
        let report = HealthReport::evaluate(&t);
        assert!(!report.is_healthy());
        let json = report.to_json();
        let back = HealthReport::from_json(&json).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
        let empty = HealthReport::default();
        assert_eq!(
            HealthReport::from_json(&empty.to_json()).unwrap(),
            empty
        );
    }

    #[test]
    fn default_rules_are_sorted_and_watch_cataloged_series() {
        let counters: Vec<&str> = names::ALL_METRICS
            .iter()
            .filter(|(k, _)| *k == "counter")
            .map(|(_, n)| *n)
            .collect();
        let healths: Vec<&str> = names::ALL_METRICS
            .iter()
            .filter(|(k, _)| *k == "health")
            .map(|(_, n)| *n)
            .collect();
        let ids: Vec<&str> = DEFAULT_HEALTH_RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "rules out of order");
        assert_eq!(ids, healths, "catalog and rule set must agree");
        for rule in DEFAULT_HEALTH_RULES {
            assert!(
                counters.contains(&rule.series),
                "{} watches uncataloged series {}",
                rule.id,
                rule.series
            );
            assert!(
                names::TIMELINE_COUNTERS.contains(&rule.series),
                "{} watches a series the timeline does not track",
                rule.id
            );
            assert!(rule.sustain >= 1);
        }
    }
}

//! `opreport`-style post-processing.
//!
//! Aggregates the sample database by (image, symbol), resolving
//! file-backed offsets through image symbol tables. Anonymous ranges
//! render as `anon (range:0x…-0x…),process` and symbol-less images as
//! `(no symbols)` — reproducing the lower half of the paper's Figure 1.
//! (The upper half — resolved VM and JIT methods — needs VIProf's
//! post-processor in the `viprof` crate, which builds on this one.)

use crate::samples::{SampleDb, SampleOrigin};
use sim_cpu::HwEvent;
use sim_os::Kernel;
use std::collections::HashMap;
use viprof_telemetry::impl_to_json;
use viprof_telemetry::json::{Json, ToJson};

/// Report shaping options.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Event columns, in order. Defaults to whatever the DB contains,
    /// cycles first.
    pub events: Option<Vec<HwEvent>>,
    /// Drop rows below this percentage of the primary event.
    pub min_primary_percent: f64,
    /// Keep at most this many rows.
    pub max_rows: Option<usize>,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            events: None,
            min_primary_percent: 0.0,
            max_rows: None,
        }
    }
}

/// One aggregated row.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    pub image: String,
    pub symbol: String,
    /// Counts per event, in the report's event order.
    pub counts: Vec<u64>,
    /// Percentages per event.
    pub percents: Vec<f64>,
}

/// A rendered profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub events: Vec<HwEvent>,
    pub totals: Vec<u64>,
    pub rows: Vec<ReportRow>,
}

impl_to_json!(ReportRow { image, symbol, counts, percents });

/// `viprof report --json`: events by variant name, then totals and
/// rows.
impl ToJson for Report {
    fn to_json(&self) -> Json {
        let events = self.events.iter().map(|e| format!("{e:?}").to_json()).collect();
        Json::obj([
            ("events", Json::Arr(events)),
            ("totals", self.totals.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl Report {
    /// Percentage for (row, event index), 0 when the event saw no
    /// samples.
    fn percent(count: u64, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        }
    }

    /// Figure-1-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{:<10}", e.column_label()));
        }
        out.push_str(&format!("{:<44}{}\n", "Image name", "Symbol name"));
        for r in &self.rows {
            for p in &r.percents {
                out.push_str(&format!("{:<10.4}", p));
            }
            out.push_str(&format!("{:<44}{}\n", r.image, r.symbol));
        }
        out
    }

    /// CSV rendering: one header row, then
    /// `image,symbol,<count>,<percent>` per event column. Fields with
    /// commas/quotes are quoted per RFC 4180.
    pub fn render_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::from("image,symbol");
        for e in &self.events {
            out.push_str(&format!(",{}_count,{}_percent", e.unit_name(), e.unit_name()));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&field(&r.image));
            out.push(',');
            out.push_str(&field(&r.symbol));
            for (c, p) in r.counts.iter().zip(&r.percents) {
                out.push_str(&format!(",{c},{p:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// Find a row by (image, symbol) — test convenience.
    pub fn find(&self, image: &str, symbol: &str) -> Option<&ReportRow> {
        self.rows
            .iter()
            .find(|r| r.image == image && r.symbol == symbol)
    }
}

/// Stock OProfile labelling of one bucket: (image name, symbol name).
/// Exposed so VIProf's post-processor can fall back to it for every
/// bucket its code maps don't cover.
pub fn bucket_label(bucket: &crate::samples::SampleBucket, kernel: &Kernel) -> (String, String) {
    match bucket.origin {
        SampleOrigin::Image(id) => {
            let img = kernel.images.get(id);
            let symbol = img
                .resolve(bucket.addr)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "(no symbols)".to_string());
            (img.name.clone(), symbol)
        }
        SampleOrigin::Anon { pid, start, end } => {
            let proc_name = kernel
                .process(pid)
                .map(|p| p.name.clone())
                .unwrap_or_else(|| format!("pid{}", pid.0));
            (
                format!("anon (range:0x{start:x}-0x{end:x}),{proc_name}"),
                "(no symbols)".to_string(),
            )
        }
        // Stock opreport has no code maps: JIT samples stay opaque.
        SampleOrigin::JitApp { pid, .. } => {
            let proc_name = kernel
                .process(pid)
                .map(|p| p.name.clone())
                .unwrap_or_else(|| format!("pid{}", pid.0));
            (format!("JIT.App,{proc_name}"), "(no symbols)".to_string())
        }
        SampleOrigin::Unknown => ("(unknown)".to_string(), "(no symbols)".to_string()),
    }
}

/// Event columns and their totals for a database under `options` —
/// the first step of [`aggregate`], exposed so external aggregators
/// (VIProf's sharded resolution engine) share the exact same column
/// selection: explicit order, or discovered with cycles first.
pub fn report_events(db: &SampleDb, options: &ReportOptions) -> (Vec<HwEvent>, Vec<u64>) {
    let events: Vec<HwEvent> = options.events.clone().unwrap_or_else(|| {
        let mut evs: Vec<HwEvent> = HwEvent::ALL
            .iter()
            .copied()
            .filter(|e| db.total(*e) > 0)
            .collect();
        evs.sort_by_key(|e| *e != HwEvent::Cycles);
        evs
    });
    let totals: Vec<u64> = events.iter().map(|e| db.total(*e)).collect();
    (events, totals)
}

/// Finish a report from pre-aggregated `(image, symbol) → per-event
/// counts`: percentage computation, deterministic row ordering, the
/// min-percent filter and row cap — exactly the shaping [`aggregate`]
/// performs, exposed so external aggregators produce bit-identical
/// reports.
pub fn finish_report(
    events: Vec<HwEvent>,
    totals: Vec<u64>,
    agg: HashMap<(String, String), Vec<u64>>,
    options: &ReportOptions,
) -> Report {
    let mut rows: Vec<ReportRow> = agg
        .into_iter()
        .map(|((image, symbol), counts)| {
            let percents = counts
                .iter()
                .zip(&totals)
                .map(|(c, t)| Report::percent(*c, *t))
                .collect();
            ReportRow {
                image,
                symbol,
                counts,
                percents,
            }
        })
        .collect();
    // Primary-event descending, then name for determinism.
    rows.sort_by(|a, b| {
        b.counts[0]
            .cmp(&a.counts[0])
            .then_with(|| a.image.cmp(&b.image))
            .then_with(|| a.symbol.cmp(&b.symbol))
    });
    rows.retain(|r| r.percents[0] >= options.min_primary_percent);
    if let Some(n) = options.max_rows {
        rows.truncate(n);
    }
    Report {
        events,
        totals,
        rows,
    }
}

/// Aggregate a sample DB into a report using a custom bucket labeller.
/// `opreport` uses [`bucket_label`]; VIProf passes a labeller that
/// resolves boot-image and JIT buckets first.
pub fn aggregate(
    db: &SampleDb,
    options: &ReportOptions,
    mut labeller: impl FnMut(&crate::samples::SampleBucket) -> (String, String),
) -> Report {
    let (events, totals) = report_events(db, options);
    let mut agg: HashMap<(String, String), Vec<u64>> = HashMap::new();
    for (bucket, count) in db.iter() {
        let Some(col) = events.iter().position(|e| *e == bucket.event) else {
            continue;
        };
        let key = labeller(bucket);
        agg.entry(key).or_insert_with(|| vec![0; events.len()])[col] += count;
    }
    finish_report(events, totals, agg, options)
}

/// Resolve a sample-db into a stock opreport.
pub fn opreport(db: &SampleDb, kernel: &Kernel, options: &ReportOptions) -> Report {
    aggregate(db, options, |bucket| bucket_label(bucket, kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::SampleBucket;
    use sim_cpu::Pid;
    use sim_os::{Image, Symbol};

    fn kernel_with_app() -> (Kernel, sim_os::ImageId, Pid) {
        let mut k = Kernel::new();
        let img = k.images.insert(
            Image::new("libc-2.3.2.so", 0x4000)
                .with_symbols([Symbol::new("memset", 0x1000, 0x400)]),
        );
        let pid = k.spawn("jikesrvm");
        (k, img, pid)
    }

    fn db_with(buckets: &[(SampleOrigin, HwEvent, u64, u64)]) -> SampleDb {
        let mut db = SampleDb::new();
        for (origin, event, addr, count) in buckets {
            db.add(
                SampleBucket {
                    origin: *origin,
                    event: *event,
                    addr: *addr,
                    epoch: 0,
                },
                *count,
            );
        }
        db
    }

    #[test]
    fn image_samples_resolve_to_symbols() {
        let (k, img, _) = kernel_with_app();
        let db = db_with(&[
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 60),
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1100, 30),
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x0100, 10), // gap
        ]);
        let r = opreport(&db, &k, &ReportOptions::default());
        let memset = r.find("libc-2.3.2.so", "memset").unwrap();
        assert_eq!(memset.counts, vec![90]);
        assert!((memset.percents[0] - 90.0).abs() < 1e-9);
        let nosym = r.find("libc-2.3.2.so", "(no symbols)").unwrap();
        assert_eq!(nosym.counts, vec![10]);
    }

    #[test]
    fn anon_rows_render_range_and_process() {
        let (k, _, pid) = kernel_with_app();
        let db = db_with(&[(
            SampleOrigin::Anon {
                pid,
                start: 0x64000000,
                end: 0x65000000,
            },
            HwEvent::Cycles,
            0x64000100,
            5,
        )]);
        let r = opreport(&db, &k, &ReportOptions::default());
        assert_eq!(
            r.rows[0].image,
            "anon (range:0x64000000-0x65000000),jikesrvm"
        );
        assert_eq!(r.rows[0].symbol, "(no symbols)");
    }

    #[test]
    fn two_event_columns_like_figure1() {
        let (k, img, _) = kernel_with_app();
        let db = db_with(&[
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 80),
            (SampleOrigin::Image(img), HwEvent::L2Miss, 0x1000, 20),
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x0000, 20),
        ]);
        let r = opreport(&db, &k, &ReportOptions::default());
        assert_eq!(r.events, vec![HwEvent::Cycles, HwEvent::L2Miss]);
        let memset = r.find("libc-2.3.2.so", "memset").unwrap();
        assert_eq!(memset.counts, vec![80, 20]);
        assert!((memset.percents[1] - 100.0).abs() < 1e-9);
        let text = r.render_text();
        assert!(text.contains("Time %"));
        assert!(text.contains("Dmiss %"));
        assert!(text.contains("memset"));
    }

    #[test]
    fn rows_sorted_by_primary_event_desc() {
        let (k, img, pid) = kernel_with_app();
        let db = db_with(&[
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 10),
            (
                SampleOrigin::Anon {
                    pid,
                    start: 0x1000,
                    end: 0x2000,
                },
                HwEvent::Cycles,
                0x1000,
                90,
            ),
        ]);
        let r = opreport(&db, &k, &ReportOptions::default());
        assert!(r.rows[0].image.starts_with("anon"));
        assert_eq!(r.rows[1].symbol, "memset");
    }

    #[test]
    fn min_percent_and_max_rows_filter() {
        let (k, img, _) = kernel_with_app();
        let db = db_with(&[
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 97),
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x0000, 3),
        ]);
        let filtered = opreport(
            &db,
            &k,
            &ReportOptions {
                min_primary_percent: 5.0,
                ..Default::default()
            },
        );
        assert_eq!(filtered.rows.len(), 1);
        let truncated = opreport(
            &db,
            &k,
            &ReportOptions {
                max_rows: Some(1),
                ..Default::default()
            },
        );
        assert_eq!(truncated.rows.len(), 1);
    }

    #[test]
    fn percentages_sum_to_at_most_100() {
        let (k, img, pid) = kernel_with_app();
        let db = db_with(&[
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 33),
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x0000, 41),
            (
                SampleOrigin::Anon {
                    pid,
                    start: 0,
                    end: 0x1000,
                },
                HwEvent::Cycles,
                0,
                26,
            ),
        ]);
        let r = opreport(&db, &k, &ReportOptions::default());
        let primary: f64 = r.rows.iter().map(|row| row.percents[0]).sum();
        assert!((primary - 100.0).abs() < 1e-6);
    }

    #[test]
    fn csv_rendering_quotes_and_aligns_columns() {
        let (k, img, pid) = kernel_with_app();
        let db = db_with(&[
            (SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 3),
            (
                SampleOrigin::Anon {
                    pid,
                    start: 0x1000,
                    end: 0x2000,
                },
                HwEvent::Cycles,
                0x1000,
                1,
            ),
        ]);
        let csv = opreport(&db, &k, &ReportOptions::default()).render_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "image,symbol,GLOBAL_POWER_EVENTS_count,GLOBAL_POWER_EVENTS_percent"
        );
        // Each data line has exactly 4 fields; the anon image (which
        // contains a comma) is quoted.
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), 2);
        assert!(body.iter().any(|l| l.starts_with("libc-2.3.2.so,memset,3,")));
        assert!(body
            .iter()
            .any(|l| l.starts_with("\"anon (range:0x1000-0x2000),jikesrvm\",")));
    }

    #[test]
    fn report_serializes_to_json() {
        let (k, img, _) = kernel_with_app();
        let db = db_with(&[(SampleOrigin::Image(img), HwEvent::Cycles, 0x1000, 3)]);
        let r = opreport(&db, &k, &ReportOptions::default());
        let json = r.to_json().to_string();
        assert!(
            json.starts_with(r#"{"events":["Cycles"],"totals":[3],"rows":[{"image":"#),
            "{json}"
        );
        assert!(json.ends_with(r#""counts":[3],"percents":[100.0]}]}"#), "{json}");
        assert_eq!(
            viprof_telemetry::json::parse_json(&r.to_json().to_pretty()).unwrap(),
            r.to_json()
        );
    }

    #[test]
    fn empty_db_renders_empty_report() {
        let (k, _, _) = kernel_with_app();
        let r = opreport(&SampleDb::new(), &k, &ReportOptions::default());
        assert!(r.rows.is_empty());
        assert!(r.events.is_empty());
    }
}

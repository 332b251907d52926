//! Experiment harness shared by the figure-regenerating binaries.
//!
//! Reproduction protocol (paper §4.1): each configuration is run ten
//! times, the fastest and slowest runs are dropped, and the remaining
//! eight are averaged. Every run gets its own noise seed (derived
//! deterministically from the experiment seed, benchmark, configuration
//! and trial index), mirroring the run-to-run variation of a real
//! full-system testbed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{mpsc, OnceLock};
use viprof_telemetry::json::{Json, ToJson};
use viprof_telemetry::impl_to_json;
use viprof_workloads::{
    calibrate, catalog, programs, run_benchmark, BenchParams, ProfilerKind, Suite, WorkPlan,
};

/// Harness options, read from the environment so `cargo run` stays
/// simple:
///
/// * `VIPROF_SCALE`  — fraction of the paper's base seconds to simulate
///   (default 1.0; the simulator is fast enough for full scale);
/// * `VIPROF_TRIALS` — runs per configuration (default 10, the paper's);
/// * `VIPROF_SEED`   — experiment master seed (default 2007).
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    pub scale: f64,
    pub trials: u32,
    pub seed: u64,
}

impl HarnessOpts {
    /// The harness knobs as the `config` block of the shared artifact
    /// envelope (see [`write_artifact`]).
    pub fn config_json(&self) -> Json {
        Json::obj([("scale", self.scale.to_json()), ("trials", self.trials.to_json())])
    }

    pub fn from_env() -> HarnessOpts {
        let get = |k: &str| std::env::var(k).ok();
        HarnessOpts {
            scale: get("VIPROF_SCALE")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1.0),
            trials: get("VIPROF_TRIALS")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10),
            seed: get("VIPROF_SEED")
                .and_then(|v| v.parse().ok())
                .unwrap_or(2007),
        }
    }
}

/// The paper's measurement protocol: drop min and max, average the rest.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    if xs.len() <= 2 {
        return xs.iter().sum::<f64>() / xs.len() as f64;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let inner = &v[1..v.len() - 1];
    inner.iter().sum::<f64>() / inner.len() as f64
}

/// Stable per-run seed (FNV-1a over the identifying tuple).
pub fn run_seed(master: u64, bench: &str, config: &str, trial: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ master;
    for b in bench
        .bytes()
        .chain(config.bytes())
        .chain(trial.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One profiler configuration of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig2Config {
    Base,
    Oprofile90k,
    Viprof45k,
    Viprof90k,
    Viprof450k,
}

impl Fig2Config {
    pub const ALL: [Fig2Config; 5] = [
        Fig2Config::Base,
        Fig2Config::Oprofile90k,
        Fig2Config::Viprof45k,
        Fig2Config::Viprof90k,
        Fig2Config::Viprof450k,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Fig2Config::Base => "base",
            Fig2Config::Oprofile90k => "Oprof 90K",
            Fig2Config::Viprof45k => "VIProf 45K",
            Fig2Config::Viprof90k => "VIProf 90K",
            Fig2Config::Viprof450k => "VIProf 450K",
        }
    }

    pub fn profiler(self) -> ProfilerKind {
        match self {
            Fig2Config::Base => ProfilerKind::None,
            Fig2Config::Oprofile90k => ProfilerKind::oprofile_at(90_000),
            Fig2Config::Viprof45k => ProfilerKind::viprof_at(45_000),
            Fig2Config::Viprof90k => ProfilerKind::viprof_at(90_000),
            Fig2Config::Viprof450k => ProfilerKind::viprof_at(450_000),
        }
    }
}

/// Measured seconds for every config of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchMeasurement {
    pub name: String,
    pub suite: String,
    /// Trimmed-mean seconds per config label.
    pub seconds: BTreeMap<String, f64>,
    /// Slowdown vs. base per config label.
    pub slowdown: BTreeMap<String, f64>,
}

impl_to_json!(BenchMeasurement { name, suite, seconds, slowdown });

/// Measure one benchmark across the given configs.
pub fn measure_benchmark(
    params: &BenchParams,
    configs: &[Fig2Config],
    opts: HarnessOpts,
) -> BenchMeasurement {
    let built = programs::build(params);
    let plan: WorkPlan = calibrate(&built, opts.scale);
    let mut seconds = BTreeMap::new();
    for cfg in configs {
        let mut runs = Vec::with_capacity(opts.trials as usize);
        for trial in 0..opts.trials {
            let seed = run_seed(opts.seed, params.name, cfg.label(), trial);
            let out = run_benchmark(&built, &plan, cfg.profiler(), seed, true);
            runs.push(out.seconds);
        }
        seconds.insert(cfg.label().to_string(), trimmed_mean(&runs));
    }
    let base = seconds.get("base").copied().unwrap_or(f64::NAN);
    let slowdown = seconds
        .iter()
        .map(|(k, v)| (k.clone(), v / base))
        .collect();
    BenchMeasurement {
        name: params.name.to_string(),
        suite: params.suite.as_str().to_string(),
        seconds,
        slowdown,
    }
}

/// Measure the whole catalog in parallel (one thread per benchmark).
pub fn measure_catalog(configs: &[Fig2Config], opts: HarnessOpts) -> Vec<BenchMeasurement> {
    let benchmarks = catalog();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for params in &benchmarks {
            let tx = tx.clone();
            let configs = configs.to_vec();
            scope.spawn(move || {
                let m = measure_benchmark(params, &configs, opts);
                tx.send((params.name, m)).expect("harness channel closed");
            });
        }
        drop(tx);
    });
    let mut by_name: BTreeMap<&str, BenchMeasurement> = rx.into_iter().collect();
    // Preserve catalog order.
    benchmarks
        .iter()
        .filter_map(|p| by_name.remove(p.name))
        .collect()
}

/// Collapse the seven JVM98 programs into the single averaged bar of
/// Figure 2, and append the cross-benchmark average row.
pub fn figure2_rows(measurements: &[BenchMeasurement]) -> Vec<BenchMeasurement> {
    let mut rows = Vec::new();
    rows.extend(
        measurements
            .iter()
            .filter(|m| m.suite == Suite::PseudoJbb.as_str())
            .cloned(),
    );
    let jvm98: Vec<&BenchMeasurement> = measurements
        .iter()
        .filter(|m| m.suite == Suite::Jvm98.as_str())
        .collect();
    if !jvm98.is_empty() {
        rows.push(average_rows("JVM98", &jvm98));
    }
    rows.extend(
        measurements
            .iter()
            .filter(|m| m.suite == Suite::Dacapo.as_str())
            .cloned(),
    );
    let shown: Vec<&BenchMeasurement> = rows.iter().collect();
    rows.push(average_rows("Average", &shown));
    rows
}

fn average_rows(name: &str, rows: &[&BenchMeasurement]) -> BenchMeasurement {
    let mut seconds = BTreeMap::new();
    let mut slowdown = BTreeMap::new();
    if let Some(first) = rows.first() {
        for key in first.seconds.keys() {
            let s: f64 = rows.iter().map(|r| r.seconds[key]).sum::<f64>() / rows.len() as f64;
            seconds.insert(key.clone(), s);
            let d: f64 = rows.iter().map(|r| r.slowdown[key]).sum::<f64>() / rows.len() as f64;
            slowdown.insert(key.clone(), d);
        }
    }
    BenchMeasurement {
        name: name.to_string(),
        suite: "aggregate".to_string(),
        seconds,
        slowdown,
    }
}

/// Where experiment outputs land (`VIPROF_RESULTS`, default `results/`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("VIPROF_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// `VIPROF_QUIET=1` silences the harness's progress chatter on stderr
/// (the artifacts themselves are unaffected).
pub fn quiet() -> bool {
    static QUIET: OnceLock<bool> = OnceLock::new();
    *QUIET.get_or_init(|| {
        std::env::var("VIPROF_QUIET").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Persist a `BENCH_*.json` artifact in the canonical envelope every
/// bench bin shares: `{name, seed, config, metrics, gates}`.
/// `viprof diff` detects this shape and diffs the `metrics`/`gates`
/// subtrees, so two fixed-seed runs of the same bin can be gated
/// against each other (or against a committed artifact) uniformly.
pub fn write_artifact(
    file: &str,
    seed: u64,
    config: &impl ToJson,
    metrics: &impl ToJson,
    gates: &impl ToJson,
) {
    let value = Json::obj([
        ("name", file.trim_end_matches(".json").to_json()),
        ("seed", seed.to_json()),
        ("config", config.to_json()),
        ("metrics", metrics.to_json()),
        ("gates", gates.to_json()),
    ]);
    write_json(file, &value);
}

/// Persist a JSON result artifact.
pub fn write_json(name: &str, value: &impl ToJson) {
    let path = results_dir().join(name);
    let data = value.to_json().to_pretty();
    std::fs::write(&path, &data).expect("write results");
    if !quiet() {
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_extremes() {
        let xs = [1.0, 10.0, 2.0, 3.0, 100.0];
        // drops 1.0 and 100.0 → mean of (2,3,10) = 5
        assert!((trimmed_mean(&xs) - 5.0).abs() < 1e-12);
        assert_eq!(trimmed_mean(&[4.0]), 4.0);
        assert_eq!(trimmed_mean(&[4.0, 6.0]), 5.0);
    }

    #[test]
    fn write_json_writes_the_artifact_into_the_results_dir() {
        let dir = std::env::temp_dir().join(format!("viprof-bench-results-{}", std::process::id()));
        std::env::set_var("VIPROF_RESULTS", &dir);
        let value = BTreeMap::from([("ok", 1u64)]);
        write_json("probe.json", &value);
        let written = std::fs::read_to_string(dir.join("probe.json")).expect("artifact written");
        assert_eq!(written, value.to_json().to_pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_seeds_are_distinct_and_stable() {
        let a = run_seed(1, "antlr", "base", 0);
        let b = run_seed(1, "antlr", "base", 1);
        let c = run_seed(1, "antlr", "Oprof 90K", 0);
        let d = run_seed(2, "antlr", "base", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, run_seed(1, "antlr", "base", 0));
    }

    #[test]
    fn figure2_rows_aggregate_jvm98_and_average() {
        let mk = |name: &str, suite: &str, slow: f64| BenchMeasurement {
            name: name.to_string(),
            suite: suite.to_string(),
            seconds: BTreeMap::from([("base".to_string(), 10.0)]),
            slowdown: BTreeMap::from([("base".to_string(), slow)]),
        };
        let ms = vec![
            mk("compress", "JVM98", 1.02),
            mk("jess", "JVM98", 1.04),
            mk("pseudojbb", "pseudoJBB", 1.01),
            mk("antlr", "DaCapo", 1.12),
        ];
        let rows = figure2_rows(&ms);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["pseudojbb", "JVM98", "antlr", "Average"]);
        let jvm98 = &rows[1];
        assert!((jvm98.slowdown["base"] - 1.03).abs() < 1e-12);
        let avg = &rows[3];
        assert!((avg.slowdown["base"] - (1.01 + 1.03 + 1.12) / 3.0).abs() < 1e-12);
    }
}

//! Resolution-engine benchmark: legacy per-bucket epoch walk vs. the
//! flattened interval index, single-threaded and sharded.
//!
//! Synthetic sessions (1M–10M samples, varying epoch depth and PID
//! count) are generated deterministically, then each post-processing
//! path runs end to end — resolver load / index build, report
//! aggregation and quality classification — with the reports asserted
//! bit-identical between paths before any number is written. Results
//! land in `results/BENCH_resolve.json`.
//!
//! Usage: `bench_resolve [--smoke]` — `--smoke` shrinks every scenario
//! (and drops the 10M one) so `scripts/verify.sh` can run it as a
//! correctness smoke test in seconds.
//!
//! The run also measures the cost of the self-telemetry layer on the
//! acceptance scenario (the engine's resolve with and without an
//! attached registry) and asserts it stays under 3% — always-on
//! telemetry is a design contract, not a hope.

use oprofile::report::ReportOptions;
use oprofile::{SampleBucket, SampleDb, SampleOrigin};
use sim_cpu::HwEvent;
use sim_os::Kernel;
use std::time::Instant;
use viprof::codemap::{map_path, render_map, CodeMapEntry};
use viprof::report::{self as oracle, viprof_report};
use viprof::resolve::ResolveOptions;
use viprof::{ReportSpec, ResolutionEngine, ViprofResolver};
use viprof_bench::{quiet, write_artifact};
use viprof_telemetry::impl_to_json;
use viprof_telemetry::Telemetry;

/// Master seed of the deterministic session generator (each scenario
/// derives its stream as `GENERATOR_SEED ^ samples`).
const GENERATOR_SEED: u64 = 0x5EED;

/// Deterministic generator (SplitMix64) so every trial and every run
/// resolves the exact same session.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    pids: usize,
    epochs: u64,
    methods_per_pid: u64,
    samples: u64,
}

const BASE: u64 = 0x6400_0000;
const METHOD_STRIDE: u64 = 0x100;
const METHOD_SIZE: u64 = 0x80;

const SCENARIOS: [Scenario; 4] = [
    // The acceptance scenario: deep epoch chains make the legacy
    // backward walk scan ~epochs/2 maps per bucket.
    Scenario {
        name: "deep_epochs_1m",
        pids: 4,
        epochs: 64,
        methods_per_pid: 4096,
        samples: 1_000_000,
    },
    Scenario {
        name: "shallow_epochs_1m",
        pids: 4,
        epochs: 4,
        methods_per_pid: 4096,
        samples: 1_000_000,
    },
    Scenario {
        name: "many_pids_1m",
        pids: 64,
        epochs: 16,
        methods_per_pid: 1024,
        samples: 1_000_000,
    },
    Scenario {
        name: "deep_epochs_10m",
        pids: 4,
        epochs: 64,
        methods_per_pid: 4096,
        samples: 10_000_000,
    },
];

/// Build the on-disk map chains and the sample database for one
/// scenario. Method `m` of each PID is compiled in epoch `m % epochs`
/// at `BASE + m * METHOD_STRIDE`; most samples arrive at the final
/// epoch (deep backward walks), a slice arrives at epoch 0 (forward
/// salvage), and a slice misses every method (unresolved).
fn build_session(s: &Scenario) -> (Kernel, SampleDb) {
    let mut kernel = Kernel::new();
    let mut pids = Vec::with_capacity(s.pids);
    for i in 0..s.pids {
        let pid = kernel.spawn(format!("jikesrvm-{i}"));
        for epoch in 0..s.epochs {
            let entries: Vec<CodeMapEntry> = (0..s.methods_per_pid)
                .filter(|m| m % s.epochs == epoch)
                .map(|m| CodeMapEntry {
                    addr: BASE + m * METHOD_STRIDE,
                    size: METHOD_SIZE,
                    level: "O2".to_string(),
                    signature: format!("bench.P{i}.M{m:05}.run"),
                })
                .collect();
            kernel
                .vfs
                .write(map_path(pid, epoch), render_map(&entries).into_bytes());
        }
        pids.push(pid);
    }

    let mut rng = SplitMix64(GENERATOR_SEED ^ s.samples);
    let mut db = SampleDb::new();
    let span = s.methods_per_pid * METHOD_STRIDE;
    for _ in 0..s.samples {
        let pid = pids[rng.below(s.pids as u64) as usize];
        let roll = rng.below(100);
        // 90% deep-walk hits, 5% salvage (early epoch), 5% misses
        // (inter-method gaps), so every classification path is hot.
        let (addr, epoch) = if roll < 90 {
            let m = rng.below(s.methods_per_pid);
            (
                BASE + m * METHOD_STRIDE + rng.below(METHOD_SIZE),
                s.epochs - 1,
            )
        } else if roll < 95 {
            let m = rng.below(s.methods_per_pid);
            (BASE + m * METHOD_STRIDE + rng.below(METHOD_SIZE), 0)
        } else {
            // Force the offset past the method body: every lookup
            // lands in an inter-method gap.
            ((BASE + rng.below(span)) | METHOD_SIZE, s.epochs - 1)
        };
        let event = if rng.below(4) == 0 {
            HwEvent::L2Miss
        } else {
            HwEvent::Cycles
        };
        db.add(
            SampleBucket {
                origin: SampleOrigin::JitApp { pid, gen: 0 },
                event,
                addr,
                epoch,
            },
            1,
        );
    }
    (kernel, db)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

struct ThreadResult {
    threads: usize,
    setup_ms: f64,
    report_ms: f64,
    samples_per_sec: f64,
    speedup_vs_legacy: f64,
}

impl_to_json!(ThreadResult { threads, setup_ms, report_ms, samples_per_sec, speedup_vs_legacy });

struct ScenarioResult {
    name: String,
    samples: u64,
    buckets: usize,
    pids: usize,
    epochs: u64,
    methods_per_pid: u64,
    legacy_setup_ms: f64,
    legacy_report_ms: f64,
    legacy_samples_per_sec: f64,
    flat: Vec<ThreadResult>,
}

impl_to_json!(ScenarioResult {
    name,
    samples,
    buckets,
    pids,
    epochs,
    methods_per_pid,
    legacy_setup_ms,
    legacy_report_ms,
    legacy_samples_per_sec,
    flat,
});

struct BenchConfig {
    smoke: bool,
    trials: u32,
    thread_counts: Vec<usize>,
}

impl_to_json!(BenchConfig { smoke, trials, thread_counts });

struct BenchMetrics {
    scenarios: Vec<ScenarioResult>,
    telemetry_overhead: TelemetryOverhead,
    trace_overhead: TraceOverhead,
}

impl_to_json!(BenchMetrics { scenarios, telemetry_overhead, trace_overhead });

struct BenchGates {
    reports_bit_identical: bool,
    telemetry_overhead_under_3pct: bool,
    trace_overhead_under_3pct: bool,
}

impl_to_json!(BenchGates {
    reports_bit_identical,
    telemetry_overhead_under_3pct,
    trace_overhead_under_3pct,
});

/// Cost of the always-on telemetry layer on the acceptance scenario:
/// the engine's resolve timed with and without an attached registry.
struct TelemetryOverhead {
    scenario: String,
    runs: u32,
    flat_plain_ms: f64,
    flat_telemetry_ms: f64,
    flat_overhead_pct: f64,
}

impl_to_json!(TelemetryOverhead {
    scenario,
    runs,
    flat_plain_ms,
    flat_telemetry_ms,
    flat_overhead_pct,
});

/// Cost of the lineage/trace pass on the flat engine: the same resolve
/// with `ReportSpec::trace` off vs on (the default).
struct TraceOverhead {
    scenario: String,
    runs: u32,
    plain_ms: f64,
    traced_ms: f64,
    overhead_pct: f64,
}

impl_to_json!(TraceOverhead { scenario, runs, plain_ms, traced_ms, overhead_pct });

/// Overhead is a delta of two min-of-N timings, so tiny smoke runs can
/// report wild percentages on sub-millisecond noise; an absolute slack
/// of 0.5 ms keeps the gate meaningful at every scale.
fn overhead_ok(plain_ms: f64, telemetry_ms: f64) -> bool {
    let delta = telemetry_ms - plain_ms;
    delta < 0.5 || delta / plain_ms * 100.0 < 3.0
}

/// Time the two sides of a comparison, `runs` trials each: `run(false)`
/// is the baseline, `run(true)` the variant; min-of-N per side. The
/// side that runs second in a pair reuses the caches the first one
/// warmed, so the order flips on every trial.
fn min_of_alternating(runs: u32, mut run: impl FnMut(bool)) -> (f64, f64) {
    let mut ms = [f64::INFINITY; 2];
    for trial in 0..runs {
        let first = trial % 2 == 1;
        for variant in [first, !first] {
            let t = Instant::now();
            run(variant);
            ms[variant as usize] = ms[variant as usize].min(ms_since(t));
        }
    }
    (ms[0], ms[1])
}

/// Measure telemetry overhead on the report path of one scenario: the
/// flat engine with and without its counter bundle.
fn measure_telemetry_overhead(s: &Scenario, runs: u32) -> TelemetryOverhead {
    let (kernel, db) = build_session(s);
    let (resolver, _) =
        ViprofResolver::load_with(&kernel, ResolveOptions::default()).expect("load maps");
    let mut engine_plain = ResolutionEngine::build(&resolver);
    let mut engine_tel = ResolutionEngine::build(&resolver);
    engine_tel.set_telemetry(&Telemetry::new());
    let spec = ReportSpec::default().threads(1);

    let (flat_plain_ms, flat_telemetry_ms) = min_of_alternating(runs, |telemetry| {
        let engine = if telemetry {
            &mut engine_tel
        } else {
            &mut engine_plain
        };
        let _ = engine.resolve(&db, &kernel, &spec);
    });
    TelemetryOverhead {
        scenario: s.name.to_string(),
        runs,
        flat_plain_ms,
        flat_telemetry_ms,
        flat_overhead_pct: (flat_telemetry_ms - flat_plain_ms) / flat_plain_ms * 100.0,
    }
}

/// Measure the lineage/trace construction overhead on the flat engine:
/// `with_trace(false)` vs the tracing default, alternated like the
/// telemetry measurement.
fn measure_trace_overhead(s: &Scenario, runs: u32) -> TraceOverhead {
    let (kernel, db) = build_session(s);
    let (resolver, _) =
        ViprofResolver::load_with(&kernel, ResolveOptions::default()).expect("load maps");
    let mut engine = ResolutionEngine::build(&resolver);
    let spec_plain = ReportSpec::default().threads(1).with_trace(false);
    let spec_traced = ReportSpec::default().threads(1);

    let (plain_ms, traced_ms) = min_of_alternating(runs, |traced| {
        let spec = if traced { &spec_traced } else { &spec_plain };
        let _ = engine.resolve(&db, &kernel, spec);
    });
    TraceOverhead {
        scenario: s.name.to_string(),
        runs,
        plain_ms,
        traced_ms,
        overhead_pct: (traced_ms - plain_ms) / plain_ms * 100.0,
    }
}

fn run_scenario(s: &Scenario, trials: u32, thread_counts: &[usize]) -> ScenarioResult {
    let (kernel, db) = build_session(s);
    let options = ReportOptions::default();
    let total = db.total_samples() as f64;

    // Legacy reference: epoch-walk resolver, report + quality.
    let mut legacy_setup = f64::INFINITY;
    let mut legacy_report_ms = f64::INFINITY;
    let mut walk = None;
    for _ in 0..trials {
        let t0 = Instant::now();
        let (resolver, _) =
            ViprofResolver::load_with(&kernel, ResolveOptions::default()).expect("load maps");
        let setup = ms_since(t0);
        let t1 = Instant::now();
        let report = viprof_report(&db, &kernel, &resolver, &options);
        let quality = oracle::quality(&resolver, &db);
        legacy_report_ms = legacy_report_ms.min(ms_since(t1));
        legacy_setup = legacy_setup.min(setup);
        walk = Some((report, quality));
    }
    let (walk_report, walk_quality) = walk.expect("at least one trial");
    assert_eq!(
        walk_quality.accounted(),
        db.total_samples(),
        "legacy quality accounts for every sample"
    );

    // Flattened engine, across shard counts.
    let mut flat = Vec::new();
    for &threads in thread_counts {
        let spec = ReportSpec::default()
            .with_options(options.clone())
            .threads(threads);
        let mut setup_ms = f64::INFINITY;
        let mut report_ms = f64::INFINITY;
        for _ in 0..trials {
            let t0 = Instant::now();
            let (resolver, _) =
                ViprofResolver::load_with(&kernel, ResolveOptions::default()).expect("load maps");
            let mut engine = ResolutionEngine::build(&resolver);
            let setup = ms_since(t0);
            let t1 = Instant::now();
            let session = engine.resolve(&db, &kernel, &spec);
            report_ms = report_ms.min(ms_since(t1));
            setup_ms = setup_ms.min(setup);
            // The speedup is only worth reporting if the output is the
            // same bytes the legacy path produces.
            assert_eq!(session.lines, walk_report, "flat report diverged ({threads} threads)");
            assert_eq!(session.quality, walk_quality, "flat quality diverged ({threads} threads)");
        }
        flat.push(ThreadResult {
            threads,
            setup_ms,
            report_ms,
            samples_per_sec: total / (report_ms / 1e3),
            speedup_vs_legacy: legacy_report_ms / report_ms,
        });
    }

    ScenarioResult {
        name: s.name.to_string(),
        samples: s.samples,
        buckets: db.iter().count(),
        pids: s.pids,
        epochs: s.epochs,
        methods_per_pid: s.methods_per_pid,
        legacy_setup_ms: legacy_setup,
        legacy_report_ms,
        legacy_samples_per_sec: total / (legacy_report_ms / 1e3),
        flat,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trials = if smoke { 1 } else { 3 };
    let thread_counts = vec![1usize, 2, 4, 8];

    let mut scenarios = Vec::new();
    for s in &SCENARIOS {
        let mut s = *s;
        if smoke {
            if s.name == "deep_epochs_10m" {
                continue;
            }
            s.samples = 20_000;
            s.methods_per_pid = s.methods_per_pid.min(256);
        }
        if !quiet() {
            eprintln!("scenario {} ({} samples)...", s.name, s.samples);
        }
        let r = run_scenario(&s, trials, &thread_counts);
        println!(
            "{:>18}: legacy {:>9.1} ms | flat x1 {:>9.1} ms ({:.2}x) | best {:.2}x @{} threads",
            r.name,
            r.legacy_report_ms,
            r.flat[0].report_ms,
            r.flat[0].speedup_vs_legacy,
            r.flat
                .iter()
                .map(|t| t.speedup_vs_legacy)
                .fold(0.0f64, f64::max),
            r.flat
                .iter()
                .max_by(|a, b| a.speedup_vs_legacy.total_cmp(&b.speedup_vs_legacy))
                .map_or(1, |t| t.threads),
        );
        scenarios.push(r);
    }

    // Telemetry-overhead gate on the acceptance scenario (shrunk the
    // same way under --smoke so the gate runs everywhere).
    let mut accept = SCENARIOS[0];
    if smoke {
        accept.samples = 20_000;
        accept.methods_per_pid = accept.methods_per_pid.min(256);
    }
    if !quiet() {
        eprintln!("telemetry overhead on {}...", accept.name);
    }
    let overhead = measure_telemetry_overhead(&accept, trials.max(5));
    println!(
        "telemetry overhead ({}): flat {:+.2}% ({:.1} -> {:.1} ms)",
        overhead.scenario,
        overhead.flat_overhead_pct,
        overhead.flat_plain_ms,
        overhead.flat_telemetry_ms,
    );
    let telemetry_gate = overhead_ok(overhead.flat_plain_ms, overhead.flat_telemetry_ms);
    assert!(
        telemetry_gate,
        "flat-path telemetry overhead exceeds 3%: {:.2}%",
        overhead.flat_overhead_pct
    );

    // Lineage/trace gate: the causal-tracing pass rides the same <3%
    // budget as the telemetry layer.
    if !quiet() {
        eprintln!("trace overhead on {}...", accept.name);
    }
    let trace_overhead = measure_trace_overhead(&accept, trials.max(5));
    println!(
        "trace overhead ({}): {:+.2}% ({:.1} -> {:.1} ms)",
        trace_overhead.scenario,
        trace_overhead.overhead_pct,
        trace_overhead.plain_ms,
        trace_overhead.traced_ms,
    );
    let trace_gate = overhead_ok(trace_overhead.plain_ms, trace_overhead.traced_ms);
    assert!(
        trace_gate,
        "lineage/trace overhead exceeds 3%: {:.2}%",
        trace_overhead.overhead_pct
    );

    write_artifact(
        "BENCH_resolve.json",
        GENERATOR_SEED,
        &BenchConfig {
            smoke,
            trials,
            thread_counts,
        },
        &BenchMetrics {
            scenarios,
            telemetry_overhead: overhead,
            trace_overhead,
        },
        &BenchGates {
            // run_scenario asserts bit-identity before returning, so
            // reaching the artifact write means that gate held.
            reports_bit_identical: true,
            telemetry_overhead_under_3pct: telemetry_gate,
            trace_overhead_under_3pct: trace_gate,
        },
    );
}

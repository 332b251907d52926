//! The profiler's own host cost: how much wall-clock time a profiled
//! run spends over an unprofiled one, per delivered sample.
//!
//! Runs antlr at the benchmark's `collect` configuration (scale 0.08,
//! one sample per 90K cycles, Figure 2's background load) with no
//! profiler, with stock OProfile and with VIProf, interleaved over
//! seeds and rounds, and prints the median host time of each:
//!
//! ```text
//! cargo run --release --example host_cost [rounds] [seeds]
//! ```
//!
//! `rounds` defaults to 8 and `seeds` (seeds 1..=N) to 3. The first
//! round of every configuration is a warm-up and is not counted.
//! "Over unprofiled" is the median minus the unprofiled median; the
//! cost per delivered sample divides it by the median number of
//! samples the CPU delivered to the profiler's handler.

use std::time::Instant;
use viprof_repro::workloads::{
    calibrate, find_benchmark, programs, run_benchmark, ProfilerKind,
};

const BENCH: &str = "antlr";
const SCALE: f64 = 0.08;
const PERIOD: u64 = 90_000;

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn main() {
    let arg = |i: usize, default: u64| {
        std::env::args()
            .nth(i)
            .map(|s| s.parse::<u64>().expect("rounds and seeds are counts"))
            .unwrap_or(default)
            .max(1)
    };
    let (rounds, seeds) = (arg(1, 8), arg(2, 3));
    let params = find_benchmark(BENCH).expect("antlr is in the catalog");
    let built = programs::build(&params);
    let plan = calibrate(&built, SCALE);

    let kinds = [
        ("none", ProfilerKind::None),
        ("OProfile", ProfilerKind::oprofile_at(PERIOD)),
        ("VIProf", ProfilerKind::viprof_at(PERIOD)),
    ];
    let mut host_ms = vec![Vec::new(); kinds.len()];
    let mut samples = vec![Vec::new(); kinds.len()];
    for round in 0..=rounds {
        for seed in 1..=seeds {
            for (i, (_, kind)) in kinds.iter().enumerate() {
                let start = Instant::now();
                let out = run_benchmark(&built, &plan, kind.clone(), seed, true);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if round > 0 {
                    host_ms[i].push(ms);
                    samples[i].push(out.machine.cpu.stats.samples_delivered as f64);
                }
            }
        }
    }

    println!(
        "{BENCH}, scale {SCALE}, period {PERIOD}, background load: \
         medians of {rounds} rounds x {seeds} seeds"
    );
    println!(
        "{:<10}{:>10}{:>18}{:>12}{:>14}",
        "profiler", "host ms", "over unprofiled", "samples", "us/sample"
    );
    let base = median(&mut host_ms[0]);
    let mut per_sample = Vec::new();
    for (i, (label, _)) in kinds.iter().enumerate() {
        let ms = median(&mut host_ms[i]);
        let delivered = median(&mut samples[i]);
        if i == 0 {
            println!("{label:<10}{ms:>10.1}{:>18}{:>12}{:>14}", "-", "-", "-");
            continue;
        }
        let over = ms - base;
        let us = over * 1e3 / delivered.max(1.0);
        per_sample.push(us);
        println!("{label:<10}{ms:>10.1}{over:>+18.1}{delivered:>12.0}{us:>14.3}");
    }
    println!(
        "VIProf / OProfile host cost per delivered sample: {:.2}x",
        per_sample[1] / per_sample[0]
    );
}

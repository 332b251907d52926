//! Adversarial map text: the epoch code-map reader over damaged bytes.
//!
//! Inputs are excerpts of real map files the VM agent wrote during a
//! profiled run, damaged by the seeded mutator in `support`. Two
//! properties:
//!
//! * the production parse, which interns each line's text into the
//!   incarnation's symbol table, decodes exactly what a plain copy of
//!   the line rules does (`trim`, `splitn(4, ' ')`, hex fields through
//!   `from_str_radix`): the same addresses, sizes, tier labels,
//!   signatures and quarantine count, and never panics;
//! * a batch report and live snapshots taken as the files appear tally
//!   a damaged directory alike: the same quarantined lines, skipped
//!   files and failed incarnations.

mod support;

use std::sync::OnceLock;
use support::{check, Gen};
use viprof_repro::oprofile::SampleDb;
use viprof_repro::sim_cpu::ProcKey;
use viprof_repro::sim_os::Kernel;
use viprof_repro::telemetry::Telemetry;
use viprof_repro::viprof::codemap::{map_path, parse_map, CodeMapEntry, Symbols, JIT_MAP_DIR};
use viprof_repro::viprof::{LiveEngine, ReportSpec, ResolutionQuality, Viprof};
use viprof_repro::workloads::{calibrate, find_benchmark, programs, run_benchmark, ProfilerKind};

/// The line rules as a plain reference: every clean line becomes an
/// owned entry, every other non-blank, non-comment line is counted.
fn reference_parse(text: &str) -> (Vec<CodeMapEntry>, u64) {
    let mut entries = Vec::new();
    let mut quarantined = 0;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let entry = (|| {
            let mut parts = line.splitn(4, ' ');
            let (addr, size, level, signature) =
                (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
            Some(CodeMapEntry {
                addr: u64::from_str_radix(addr, 16).ok()?,
                size: u64::from_str_radix(size, 16).ok()?,
                level: level.to_string(),
                signature: signature.to_string(),
            })
        })();
        match entry {
            Some(e) => entries.push(e),
            None => quarantined += 1,
        }
    }
    (entries, quarantined)
}

/// Every map file the agent wrote in a short profiled run, as bytes.
fn real_maps() -> &'static [Vec<u8>] {
    static MAPS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    MAPS.get_or_init(|| {
        let mut params = find_benchmark("fop").expect("benchmark exists");
        params.support_methods = params.support_methods.min(120);
        params.heap_mb = 2;
        let built = programs::build(&params);
        let plan = calibrate(&built, 0.02);
        let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(20_000), 11, false);
        let vfs = &out.machine.kernel.vfs;
        let maps: Vec<Vec<u8>> = vfs
            .list(JIT_MAP_DIR)
            .into_iter()
            .filter(|path| path.contains("/map."))
            .map(|path| vfs.read(path).expect("listed").to_vec())
            .filter(|bytes| !bytes.is_empty())
            .collect();
        assert!(maps.len() >= 2, "too few map files: {}", maps.len());
        maps
    })
}

/// Text the line rules treat specially: field separators and other
/// whitespace, line ends, comment marks, hex signs and digits past a
/// `u64`.
const TOKENS: [&str; 14] = [
    " ", "  ", "\t", "\r", "\n", "\r\n", "\u{a0}", "\u{2003}", "#", "+", "-", "F", "g",
    "ffffffffffffffff0",
];

/// A damaged excerpt of a real map: a run of its lines with tokens
/// the line rules treat specially spliced in, then (mostly) mutated
/// byte-wise.
fn damaged_map(g: &mut Gen) -> Vec<u8> {
    let maps = real_maps();
    let text = std::str::from_utf8(&maps[g.range(0..maps.len())]).expect("the agent writes text");
    let lines: Vec<&str> = text.lines().collect();
    let first = g.range(0..lines.len());
    let last = (first + g.range(1usize..24)).min(lines.len());
    let mut excerpt = lines[first..last].join("\n") + "\n";
    for _ in 0..g.range(0u32..4) {
        // The agent writes ASCII, so every byte offset is a boundary.
        let at = g.range(0..excerpt.len() + 1);
        excerpt.insert_str(at, TOKENS[g.range(0..TOKENS.len())]);
    }
    if g.range(0u32..4) == 0 {
        excerpt.into_bytes()
    } else {
        g.mutate(excerpt.as_bytes())
    }
}

#[test]
fn real_maps_parse_clean() {
    for bytes in real_maps() {
        let text = std::str::from_utf8(bytes).expect("the agent writes text");
        let parsed = parse_map(text, &mut Symbols::default());
        assert_eq!(parsed.quarantined, 0);
        assert!(!parsed.entries.is_empty());
    }
}

#[test]
fn damaged_text_parses_like_the_reference_rules() {
    check(
        "damaged_text_parses_like_the_reference_rules",
        512,
        damaged_map,
        |bytes| {
            // Text that is not UTF-8 never reaches the parser: the
            // loader skips the file (the tally property covers it).
            let Ok(text) = std::str::from_utf8(&bytes) else {
                return;
            };
            let (want, want_quarantined) = reference_parse(text);
            // A table shared with an unrelated map first, as one
            // incarnation's later files are: ids must not leak across.
            let mut symbols = Symbols::default();
            parse_map("0000000000000010 00000010 base other.Method.run\n", &mut symbols);
            let parsed = parse_map(text, &mut symbols);
            assert_eq!(parsed.quarantined, want_quarantined);
            let got: Vec<CodeMapEntry> = parsed.entries.iter().map(|e| symbols.text(e)).collect();
            assert_eq!(got, want);
        },
    );
}

/// One incarnation's directory: damaged map files, some under a bad
/// or unpadded epoch suffix, in the order they appear on disk. Map
/// files are written once, so each name appears once.
fn damaged_directory(g: &mut Gen) -> Vec<(String, Vec<u8>)> {
    let mut files = g.vec(1..6, |g| {
        let name = match g.range(0u32..8) {
            0 => "zzz".to_string(),
            1 => format!("{}", g.range(0u64..6)),
            _ => format!("{:010}", g.range(0u64..6)),
        };
        (name, damaged_map(g))
    });
    let mut seen = std::collections::HashSet::new();
    files.retain(|(name, _)| seen.insert(name.clone()));
    files
}

/// The load-time damage a quality report carries.
fn tallies(q: &ResolutionQuality) -> (u64, u64, u64) {
    (q.quarantined_lines, q.skipped_map_files, q.failed_pids)
}

#[test]
fn batch_and_live_readers_tally_damage_alike() {
    check(
        "batch_and_live_readers_tally_damage_alike",
        128,
        |g| (damaged_directory(g), damaged_directory(g)),
        |(first, second)| {
            let mut kernel = Kernel::new();
            let pid = kernel.spawn("java");
            let keys = [ProcKey::new(pid, 0), ProcKey::new(pid, 1)];
            let mut live = LiveEngine::new(&Telemetry::new());
            let empty = SampleDb::new();
            let spec = ReportSpec::default();
            // Files appear one at a time, as the agent writes them; a
            // live snapshot follows each.
            for (key, (name, bytes)) in first
                .iter()
                .map(|f| (keys[0], f))
                .chain(second.iter().map(|f| (keys[1], f)))
            {
                let prefix = map_path(key, 0);
                let path = format!("{}{name}", &prefix[..prefix.len() - 10]);
                kernel.vfs.write(path, bytes.clone());
                live.snapshot(&empty, &kernel, &spec);
            }
            let batch = Viprof::make_report(&empty, &kernel, &spec).expect("the session reports");
            let live = live.snapshot(&empty, &kernel, &spec);
            assert_eq!(tallies(&live.quality), tallies(&batch.quality));
        },
    );
}

//! `viprof` — offline post-processing CLI.
//!
//! Operates on a session directory exported by
//! `Viprof::export_session` (sample database, epoch code maps,
//! `RVM.map`, image/process metadata, telemetry, timeline, trace and,
//! with journaling on, the sample-batch journal), the way `opreport`
//! operates on `/var/lib/oprofile` after `opcontrol --stop`.
//!
//! [`USAGE`] lists the subcommands; each one's module documents its
//! flags. Every subcommand also takes `--json` (stdout is exactly one
//! JSON document, status goes to stderr) and `--recover` (import a
//! session that fails its manifest checks, with one `WARNING` line per
//! mismatch on stderr). Sessions resolve across `available_parallelism()`
//! shards; the output is bit-identical for every shard count.
//!
//! Exit status: 0 on success; 1 when `diff` found a regression; 2 on a
//! usage error or a missing, corrupt or mismatched input.

mod diff;
mod report;
mod stat;
mod top;
mod trace;

use sim_os::{Kernel, Vfs};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use viprof::{ReportSpec, Viprof, ViprofError};

const USAGE: &str = "\
usage: viprof report <session-dir> [--classic] [--lineage] [--min <percent>] [--rows <n>] [--csv]
       viprof stat   <session-dir> [--health] [--events <n>] [--histograms]
       viprof stat   --schema
       viprof trace  <session-dir> [--chrome] [--top <n>]
       viprof top    <session-dir> [--interval <n>] [--rows <n>]
       viprof diff   <baseline> <candidate> [--tolerance <pct>]
every subcommand also takes --json and --recover";

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let result = match words.next().as_deref() {
        Some("report") => report::run(words).map(|()| ExitCode::SUCCESS),
        Some("stat") => stat::run(words).map(|()| ExitCode::SUCCESS),
        Some("trace") => trace::run(words).map(|()| ExitCode::SUCCESS),
        Some("top") => top::run(words).map(|()| ExitCode::SUCCESS),
        Some("diff") => diff::run(words),
        Some(other) => Err(usage(format!("unknown subcommand `{other}`"))),
        None => Err(usage("missing subcommand")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("viprof: {e}");
        ExitCode::from(2)
    })
}

/// A usage error: what was wrong, then the usage text.
fn usage(what: impl std::fmt::Display) -> String {
    format!("{what}\n{USAGE}")
}

/// One subcommand's command line: positional words, the shared
/// `--json`/`--recover` switches, and the subcommand's own flags.
#[derive(Default)]
struct Args {
    json: bool,
    recover: bool,
    positional: Vec<String>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `words` against the switches and `--name <value>` flags
    /// this subcommand takes; any other `--` word is a usage error.
    fn parse(
        words: impl IntoIterator<Item = String>,
        switches: &[&'static str],
        valued: &[&'static str],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut words = words.into_iter();
        while let Some(word) = words.next() {
            if word == "--json" {
                args.json = true;
            } else if word == "--recover" {
                args.recover = true;
            } else if !word.starts_with("--") {
                args.positional.push(word);
            } else if let Some(&switch) = switches.iter().find(|s| **s == word) {
                args.switches.push(switch);
            } else if let Some(&flag) = valued.iter().find(|f| **f == word) {
                let value = words.next().ok_or_else(|| usage(format!("{flag} needs a value")))?;
                args.values.push((flag, value));
            } else {
                return Err(usage(format!("unknown flag `{word}`")));
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The last value given for `flag`, parsed as `T`.
    fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some((_, raw)) = self.values.iter().rev().find(|(f, _)| *f == flag) else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|_| usage(format!("bad value `{raw}` for {flag}")))
    }

    /// Exactly `N` positional words.
    fn positional<const N: usize>(&self) -> Result<[&str; N], String> {
        let words: Vec<&str> = self.positional.iter().map(String::as_str).collect();
        words
            .try_into()
            .map_err(|_| usage(format!("expected {N} path argument(s)")))
    }
}

/// Import the session at `dir`: strictly, or under `recover` leniently,
/// with one `WARNING` line per manifest mismatch on stderr.
fn open_session(dir: &Path, recover: bool) -> Result<Kernel, String> {
    if !recover {
        return Viprof::import_session(dir).map_err(|e| match e {
            ViprofError::Corrupt { .. } => format!("{e} (try --recover)"),
            e => e.to_string(),
        });
    }
    let (kernel, mismatches) = Viprof::import_session_lenient(dir).map_err(|e| e.to_string())?;
    for m in &mismatches {
        eprintln!("viprof: WARNING: {}: {m}", dir.display());
    }
    Ok(kernel)
}

/// Read the session artifact at `path` and parse it.
fn read_artifact<T>(
    vfs: &Vfs,
    path: &str,
    parse: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<T, String> {
    let raw = vfs.read(path).ok_or_else(|| format!("no {path} in session"))?;
    parse(raw).map_err(|e| format!("corrupt {path}: {e}"))
}

/// A JSON artifact's parser, for [`read_artifact`].
fn json<T>(parse: fn(&str) -> Result<T, String>) -> impl FnOnce(&[u8]) -> Result<T, String> {
    move |raw| std::str::from_utf8(raw).map_err(|e| e.to_string()).and_then(parse)
}

/// The resolve spec every subcommand starts from: one shard per
/// available core.
fn report_spec() -> ReportSpec {
    ReportSpec::default().threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

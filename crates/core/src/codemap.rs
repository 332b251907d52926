//! Epoch code maps: the files the VM Agent writes and the
//! epoch-chained lookup the post-processor runs.
//!
//! One map file per execution epoch, each a *partial* map: only
//! methods compiled/recompiled during that epoch plus methods moved by
//! the previous collection (§3.1). Resolution of a sample `(pc, e)`
//! searches map `e`, then `e-1`, `e-2`, … — "the method which the
//! sample will be associated with is the most recently compiled — or
//! moved — method to occupy that address space" (§3.2).

use crate::error::ViprofError;
use sim_cpu::{Addr, ProcKey};
use sim_os::Vfs;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// VFS directory the agent writes maps under.
pub const JIT_MAP_DIR: &str = "/var/lib/oprofile/jit";

/// One code-body record as the agent writes it (see [`render_map`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeMapEntry {
    pub addr: Addr,
    pub size: u64,
    /// Tier label, e.g. `base`, `O1`, `O2`.
    pub level: String,
    /// Fully-qualified method signature.
    pub signature: String,
}

/// One code-body record as loaded: its address range and the ids of
/// its tier label and signature in the incarnation's [`Symbols`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    pub addr: Addr,
    pub size: u64,
    /// Id of the tier label.
    pub level: u32,
    /// Id of the method signature.
    pub signature: u32,
}

impl MapEntry {
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.addr && pc < self.addr.saturating_add(self.size)
    }
}

/// The text of one incarnation's maps: each distinct tier label and
/// signature stored once, named by a dense id in first-parse order.
/// The table only grows, so an id stays valid as later files are
/// parsed into it.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Symbols {
    /// The id of `text`, adding it when it is new.
    pub fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.names.len() as u32;
        let name: Arc<str> = Arc::from(text);
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// The text an id names.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Every interned text, indexed by id.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// A loaded entry in the agent's writer form.
    pub fn text(&self, e: &MapEntry) -> CodeMapEntry {
        CodeMapEntry {
            addr: e.addr,
            size: e.size,
            level: self.name(e.level).to_string(),
            signature: self.name(e.signature).to_string(),
        }
    }
}

/// Map-file path for (incarnation, epoch). Zero-padded so the VFS's
/// lexicographic listing is also numeric epoch order. Each incarnation
/// of a pid gets its own generation directory — a restarted VM resets
/// its epoch counter to 0 without ever touching (or being resolved
/// against) its predecessor's chain. A bare `Pid` coerces to
/// generation 0.
pub fn map_path(key: impl Into<ProcKey>, epoch: u64) -> String {
    format!("{}{epoch:010}", map_prefix(key.into()))
}

/// The path prefix every map file of one incarnation starts with; the
/// rest of the path is the file's epoch.
pub(crate) fn map_prefix(key: ProcKey) -> String {
    format!("{JIT_MAP_DIR}/{}/{}/map.", key.pid.0, key.gen)
}

/// The epoch a listed map path names: the rest of the path after
/// `prefix`, when it is a number.
pub(crate) fn path_epoch(prefix: &str, path: &str) -> Option<u64> {
    path[prefix.len()..].parse::<u64>().ok()
}

/// Read one listed map file under the loader's per-file rules, parsing
/// its text into `symbols` and adding its damage to the caller's
/// tallies. The file is unusable — `None`, counted in `skipped_files` —
/// when the path after `prefix` is not a numeric epoch, when it does
/// not read back, or when its content is not UTF-8. Bad lines inside a
/// usable file are counted in `quarantined_lines` (see [`parse_map`]).
pub(crate) fn read_map_file(
    vfs: &Vfs,
    prefix: &str,
    path: &str,
    symbols: &mut Symbols,
    quarantined_lines: &mut u64,
    skipped_files: &mut u64,
) -> Option<EpochMap> {
    let usable = path_epoch(prefix, path).and_then(|epoch| {
        // A listed path should always read back; treat a miss like any
        // other unusable file rather than panicking mid-report.
        let text = std::str::from_utf8(vfs.read(path)?).ok()?;
        Some((epoch, parse_map(text, symbols)))
    });
    match usable {
        Some((epoch, parsed)) => {
            *quarantined_lines += parsed.quarantined;
            Some(EpochMap::new(epoch, parsed.entries))
        }
        None => {
            *skipped_files += 1;
            None
        }
    }
}

/// Path of the agent's code-map write-ahead journal for one
/// incarnation. Lives beside the map files (same per-incarnation
/// directory) but outside the `map.` prefix, so map listings never
/// pick it up.
pub fn journal_path(key: impl Into<ProcKey>) -> String {
    let key = key.into();
    format!("{JIT_MAP_DIR}/{}/{}/journal", key.pid.0, key.gen)
}

/// Render entries in the on-disk text format:
/// `addr(hex) size(hex) level signature`.
pub fn render_map(entries: &[CodeMapEntry]) -> String {
    let mut s = String::with_capacity(entries.len() * 80);
    for e in entries {
        render_line(&mut s, e.addr, e.size, &e.level, &e.signature);
    }
    s
}

/// Append one map line to `out` (the format [`render_map`] writes),
/// allocating nothing beyond `out`'s growth.
pub(crate) fn render_line(out: &mut String, addr: Addr, size: u64, level: &str, signature: &str) {
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "{addr:016x} {size:08x} {level} {signature}");
}

/// Outcome of a (lossy) map parse: the entries that decoded cleanly
/// plus a count of lines that did not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedMap {
    pub entries: Vec<MapEntry>,
    /// Lines rejected (malformed field layout, bad hex).
    pub quarantined: u64,
}

fn parse_line<'t>(
    line: &'t str,
    symbols: &mut Symbols,
    last_level: &mut Option<(&'t str, u32)>,
) -> Option<MapEntry> {
    let mut parts = line.splitn(4, ' ');
    let (addr, size, level, signature) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    let addr = u64::from_str_radix(addr, 16).ok()?;
    let size = u64::from_str_radix(size, 16).ok()?;
    let level = match *last_level {
        Some((text, id)) if text == level => id,
        _ => {
            let id = symbols.intern(level);
            *last_level = Some((level, id));
            id
        }
    };
    Some(MapEntry {
        addr,
        size,
        level,
        signature: symbols.intern(signature),
    })
}

/// Parse a map file into `symbols`, quarantining bad lines instead of
/// failing. Only lines that decode cleanly add text to the table.
///
/// A map written by a crashing agent (or damaged on disk) is still
/// mostly good: every cleanly-decoded line is kept, every damaged one
/// is counted. One flipped bit must not cost a whole epoch's worth of
/// resolution — the count surfaces in
/// [`crate::resolve::ResolutionQuality::quarantined_lines`].
pub fn parse_map(text: &str, symbols: &mut Symbols) -> ParsedMap {
    let mut out = ParsedMap::default();
    // Runs of lines share a tier label: reuse the last one's id
    // instead of hashing it again.
    let mut last_level = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line(line, symbols, &mut last_level) {
            Some(e) => out.entries.push(e),
            None => out.quarantined += 1,
        }
    }
    out
}

/// One epoch's map, indexed for address lookup. Its entries name their
/// text in the [`Symbols`] of the set they were parsed into.
#[derive(Debug, Clone)]
pub struct EpochMap {
    pub epoch: u64,
    /// Sorted by `addr`. Entries within one map never overlap (each is
    /// a distinct heap object), so binary search suffices.
    entries: Vec<MapEntry>,
}

impl EpochMap {
    pub(crate) fn new(epoch: u64, mut entries: Vec<MapEntry>) -> Self {
        entries.sort_by_key(|e| e.addr);
        EpochMap { epoch, entries }
    }

    pub fn entries(&self) -> &[MapEntry] {
        &self.entries
    }

    pub fn resolve(&self, pc: Addr) -> Option<&MapEntry> {
        let pos = self.entries.partition_point(|e| e.addr <= pc);
        if pos == 0 {
            return None;
        }
        let cand = &self.entries[pos - 1];
        cand.contains(pc).then_some(cand)
    }
}

/// All epoch maps of one VM, ready for chained resolution, with the
/// one symbol table their entries name their text in.
#[derive(Debug, Clone, Default)]
pub struct CodeMapSet {
    /// Sorted ascending by epoch.
    maps: Vec<EpochMap>,
    symbols: Symbols,
    /// Map lines rejected during load (see [`parse_map`]).
    pub quarantined_lines: u64,
    /// Whole map files skipped as unusable (unparseable filename or
    /// non-UTF-8 content).
    pub skipped_files: u64,
}

impl CodeMapSet {
    /// A set of `(epoch, entries)` maps given in the agent's writer
    /// form, interned in order as the loader would parse their files.
    pub fn new(maps: Vec<(u64, Vec<CodeMapEntry>)>) -> Self {
        let mut symbols = Symbols::default();
        let maps = maps
            .into_iter()
            .map(|(epoch, entries)| {
                let entries = entries
                    .iter()
                    .map(|e| MapEntry {
                        addr: e.addr,
                        size: e.size,
                        level: symbols.intern(&e.level),
                        signature: symbols.intern(&e.signature),
                    })
                    .collect();
                EpochMap::new(epoch, entries)
            })
            .collect();
        CodeMapSet::from_parts(maps, symbols)
    }

    /// Assemble a set from maps parsed into `symbols`, sorting the maps
    /// by epoch (stable, so maps naming one epoch keep their order).
    pub(crate) fn from_parts(mut maps: Vec<EpochMap>, symbols: Symbols) -> Self {
        maps.sort_by_key(|m| m.epoch);
        CodeMapSet {
            maps,
            symbols,
            quarantined_lines: 0,
            skipped_files: 0,
        }
    }

    /// Load every map file for one incarnation from the VFS.
    ///
    /// Degrades per file: an unusable file (garbage filename, binary
    /// content) is skipped and counted; bad lines inside a usable file
    /// are quarantined and counted. `Err` only when map files exist for
    /// the incarnation but *none* could be used at all.
    pub fn load(vfs: &Vfs, key: impl Into<ProcKey>) -> Result<CodeMapSet, ViprofError> {
        let key = key.into();
        let prefix = map_prefix(key);
        let paths = vfs.list(&prefix);
        let mut symbols = Symbols::default();
        let (mut quarantined_lines, mut skipped_files) = (0, 0);
        let maps: Vec<EpochMap> = paths
            .iter()
            .filter_map(|path| {
                read_map_file(
                    vfs,
                    &prefix,
                    path,
                    &mut symbols,
                    &mut quarantined_lines,
                    &mut skipped_files,
                )
            })
            .collect();
        if !paths.is_empty() && maps.is_empty() {
            return Err(ViprofError::NoUsableMaps { pid: key.pid });
        }
        Ok(CodeMapSet {
            quarantined_lines,
            skipped_files,
            ..CodeMapSet::from_parts(maps, symbols)
        })
    }

    pub fn maps(&self) -> &[EpochMap] {
        &self.maps
    }

    /// The table every entry of this set names its text in.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// The paper's resolution algorithm: search the sample's epoch map,
    /// then walk backwards until the first map containing the address.
    /// Returns the occupant's signature.
    pub fn resolve(&self, pc: Addr, epoch: u64) -> Option<&str> {
        self.walk_back(pc, epoch)
            .map(|e| self.symbols.name(e.signature))
    }

    fn walk_back(&self, pc: Addr, epoch: u64) -> Option<&MapEntry> {
        let start = self.maps.partition_point(|m| m.epoch <= epoch);
        self.maps[..start]
            .iter()
            .rev()
            .find_map(|m| m.resolve(pc))
    }

    /// Salvage resolution for damaged chains: the paper's backward walk
    /// first; on a miss, search *forward* through later epochs. A
    /// forward hit is second-class — the body provably occupied the
    /// address at some *later* time, so the attribution may be stale —
    /// but it recovers samples whose own epoch's map was lost, or whose
    /// epoch tag was skewed backwards by a lagging driver-side counter.
    /// Returns the signature and whether it came from the stale
    /// (forward) path.
    pub fn resolve_salvage(&self, pc: Addr, epoch: u64) -> Option<(&str, bool)> {
        let hit = match self.walk_back(pc, epoch) {
            Some(e) => (e, false),
            None => {
                let start = self.maps.partition_point(|m| m.epoch <= epoch);
                (self.maps[start..].iter().find_map(|m| m.resolve(pc))?, true)
            }
        };
        Some((self.symbols.name(hit.0.signature), hit.1))
    }

    /// Epochs absent from the chain. The agent writes one map per epoch
    /// from 0 up to the final flush, so any gap (or missing head) means
    /// a lost write.
    pub fn missing_epochs(&self) -> u64 {
        match self.maps.last() {
            Some(last) => (last.epoch + 1).saturating_sub(self.maps.len() as u64),
            None => 0,
        }
    }

    /// Total entries across all maps (agent overhead accounting).
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(|m| m.entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::Pid;

    fn e(addr: Addr, size: u64, sig: &str) -> CodeMapEntry {
        CodeMapEntry {
            addr,
            size,
            level: "base".to_string(),
            signature: sig.to_string(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let entries = vec![
            e(0x6400_0040, 0x80, "app.Main.run"),
            e(0x6400_0100, 0x40, "app.Util.helper"),
        ];
        let mut symbols = Symbols::default();
        let parsed = parse_map(&render_map(&entries), &mut symbols);
        let text: Vec<CodeMapEntry> = parsed.entries.iter().map(|e| symbols.text(e)).collect();
        assert_eq!(text, entries);
        assert_eq!(parsed.quarantined, 0);
    }

    #[test]
    fn parse_quarantines_malformed_lines() {
        // Bad lines are counted, good lines around them survive.
        let text = "xyz 10 base sig\n\
                    100 40 base app.Good.one\n\
                    10 zz base sig\n\
                    10 20 base\n\
                    # comment\n\
                    \n\
                    200 40 base app.Good.two\n";
        let mut symbols = Symbols::default();
        let parsed = parse_map(text, &mut symbols);
        assert_eq!(parsed.quarantined, 3);
        let sigs: Vec<&str> = parsed
            .entries
            .iter()
            .map(|e| symbols.name(e.signature))
            .collect();
        assert_eq!(sigs, vec!["app.Good.one", "app.Good.two"]);
        assert_eq!(parse_map("# comment\n\n", &mut symbols), ParsedMap::default());
    }

    #[test]
    fn signatures_with_spaces_survive() {
        // splitn(4) keeps everything after the level as the signature.
        let entries = vec![e(0x10, 0x10, "app.Main.run (I)V")];
        let mut symbols = Symbols::default();
        let parsed = parse_map(&render_map(&entries), &mut symbols);
        assert_eq!(symbols.name(parsed.entries[0].signature), "app.Main.run (I)V");
    }

    #[test]
    fn epoch_map_binary_search() {
        let set = CodeMapSet::new(vec![(0, vec![e(0x200, 0x40, "b"), e(0x100, 0x40, "a")])]);
        let (m, symbols) = (&set.maps()[0], set.symbols());
        let sig = |pc| m.resolve(pc).map(|e| symbols.name(e.signature));
        assert_eq!(sig(0x100), Some("a"));
        assert_eq!(sig(0x13f), Some("a"));
        assert!(sig(0x140).is_none(), "gap");
        assert_eq!(sig(0x23f), Some("b"));
        assert!(sig(0x240).is_none());
        assert!(sig(0x0).is_none());
    }

    #[test]
    fn backward_search_finds_most_recent_occupant() {
        // Epoch 0: method A at 0x100. Epoch 1: method B compiled over
        // the same address (A died). Epoch 2: nothing at 0x100.
        let set = CodeMapSet::new(vec![
            (0, vec![e(0x100, 0x40, "A")]),
            (1, vec![e(0x100, 0x40, "B")]),
            (2, vec![e(0x900, 0x40, "C")]),
        ]);
        // Sample in epoch 0 → A (epoch-0 map hit directly).
        assert_eq!(set.resolve(0x110, 0).unwrap(), "A");
        // Sample in epoch 1 → B.
        assert_eq!(set.resolve(0x110, 1).unwrap(), "B");
        // Sample in epoch 2 → backward search lands on B, the most
        // recent occupant (paper §3.2).
        assert_eq!(set.resolve(0x110, 2).unwrap(), "B");
        // Unknown address in any epoch → None.
        assert!(set.resolve(0x500, 2).is_none());
    }

    #[test]
    fn resolution_never_looks_forward() {
        // Method compiled in epoch 3 must not resolve samples from
        // epoch 1 (the address belonged to nobody back then).
        let set = CodeMapSet::new(vec![(3, vec![e(0x100, 0x40, "X")])]);
        assert!(set.resolve(0x110, 1).is_none());
        assert_eq!(set.resolve(0x110, 3).unwrap(), "X");
        assert_eq!(
            set.resolve(0x110, 9).unwrap(),
            "X",
            "later epochs fall back to the last write"
        );
    }

    #[test]
    fn vfs_load_orders_epochs_numerically() {
        let mut vfs = Vfs::new();
        let pid = Pid(12);
        // Write out of order, with >9 epochs to catch lexicographic bugs.
        for epoch in [10u64, 2, 0, 7] {
            let entries = vec![e(0x100 * (epoch + 1), 0x40, &format!("m{epoch}"))];
            vfs.write(map_path(pid, epoch), render_map(&entries).into_bytes());
        }
        let set = CodeMapSet::load(&vfs, pid).unwrap();
        let epochs: Vec<u64> = set.maps().iter().map(|m| m.epoch).collect();
        assert_eq!(epochs, vec![0, 2, 7, 10]);
        assert_eq!(set.resolve(0x300, 5).unwrap(), "m2");
        // Other pids' maps are invisible.
        assert!(CodeMapSet::load(&vfs, Pid(99)).unwrap().is_empty());
    }

    #[test]
    fn load_degrades_around_damaged_files() {
        let mut vfs = Vfs::new();
        let pid = Pid(5);
        vfs.write(map_path(pid, 0), render_map(&[e(0x100, 0x40, "good")]).into_bytes());
        // Epoch 1: one good line, one garbled.
        vfs.write(
            map_path(pid, 1),
            b"!! torn garbage\n0000000000000200 00000040 base alive\n".to_vec(),
        );
        // Non-UTF-8 file: skipped wholesale.
        vfs.write(map_path(pid, 2), vec![0xff, 0xfe, 0x00, 0x80]);
        // Garbage filename under the same prefix: skipped.
        vfs.write(format!("{JIT_MAP_DIR}/{}/0/map.zzz", pid.0), b"x".to_vec());
        let set = CodeMapSet::load(&vfs, pid).unwrap();
        assert_eq!(set.maps().len(), 2);
        assert_eq!(set.quarantined_lines, 1);
        assert_eq!(set.skipped_files, 2);
        assert_eq!(set.resolve(0x210, 1).unwrap(), "alive");
    }

    #[test]
    fn load_errors_only_when_nothing_is_usable() {
        let mut vfs = Vfs::new();
        let pid = Pid(6);
        vfs.write(map_path(pid, 0), vec![0xff, 0xfe]);
        let err = CodeMapSet::load(&vfs, pid).unwrap_err();
        assert_eq!(err, ViprofError::NoUsableMaps { pid });
    }

    #[test]
    fn salvage_searches_forward_after_backward_misses() {
        // Epoch 1's map was lost; method X only appears in epoch 3's
        // map. A sample tagged epoch 1 misses backwards but salvages
        // forwards — flagged stale.
        let set = CodeMapSet::new(vec![
            (0, vec![e(0x900, 0x40, "old")]),
            (3, vec![e(0x100, 0x40, "X")]),
        ]);
        assert!(set.resolve(0x110, 1).is_none());
        let (hit, stale) = set.resolve_salvage(0x110, 1).unwrap();
        assert_eq!((hit, stale), ("X", true));
        // A backward hit is never marked stale.
        let (hit, stale) = set.resolve_salvage(0x910, 2).unwrap();
        assert_eq!((hit, stale), ("old", false));
        // Nothing anywhere: still a miss.
        assert!(set.resolve_salvage(0x500, 1).is_none());
    }

    #[test]
    fn generations_keep_separate_map_chains() {
        let mut vfs = Vfs::new();
        let pid = Pid(9);
        // Gen 0 (a bare Pid coerces to gen 0) and gen 1 both write an
        // epoch-0 map at the same address — different methods.
        vfs.write(map_path(pid, 0), render_map(&[e(0x100, 0x40, "old.Main")]).into_bytes());
        vfs.write(
            map_path(ProcKey::new(pid, 1), 0),
            render_map(&[e(0x100, 0x40, "new.Main")]).into_bytes(),
        );
        let g0 = CodeMapSet::load(&vfs, pid).unwrap();
        let g1 = CodeMapSet::load(&vfs, ProcKey::new(pid, 1)).unwrap();
        assert_eq!(g0.resolve(0x110, 0).unwrap(), "old.Main");
        assert_eq!(g1.resolve(0x110, 0).unwrap(), "new.Main");
        // A generation that never ran has no maps at all.
        assert!(CodeMapSet::load(&vfs, ProcKey::new(pid, 2)).unwrap().is_empty());
    }

    #[test]
    fn missing_epochs_counts_chain_gaps() {
        let gap = CodeMapSet::new(vec![
            (0, vec![]),
            (3, vec![]),
        ]);
        assert_eq!(gap.missing_epochs(), 2, "epochs 1 and 2 lost");
        let headless = CodeMapSet::new(vec![(2, vec![])]);
        assert_eq!(headless.missing_epochs(), 2, "epochs 0 and 1 lost");
        let full = CodeMapSet::new(vec![
            (0, vec![]),
            (1, vec![]),
        ]);
        assert_eq!(full.missing_epochs(), 0);
        assert_eq!(CodeMapSet::default().missing_epochs(), 0);
    }
}

//! Flattened epoch interval index.
//!
//! [`crate::codemap::CodeMapSet::resolve`] implements the paper's
//! backward walk literally: search the sample's epoch map, then every
//! earlier map, one binary search per epoch (§3.2). Correct, but the
//! post-processing hot path pays O(epochs · log entries) per bucket on
//! deep-epoch sessions.
//!
//! [`FlatIndex`] collapses the whole chain into one sorted table of
//! disjoint address segments. Each segment carries the *layer list* of
//! epochs whose map covers it, epoch-ascending, with the covering
//! entry's signature id. The ids are the ones the loader parsed the
//! maps into ([`crate::codemap::Symbols`], one table per incarnation),
//! so flattening hashes no text: the index shares the table's
//! [`Arc<str>`] names and counts its distinct signatures from its
//! layers. Resolution becomes
//! one binary search over segments plus one `partition_point` over the
//! segment's layers:
//!
//! * backward walk ("most recent occupant", last-writer-wins) — the
//!   greatest layer with epoch ≤ the sample's epoch;
//! * forward salvage (stale attribution for damaged chains) — the
//!   smallest layer with epoch > the sample's epoch, when no backward
//!   layer exists.
//!
//! The flattening reproduces the chained walk *exactly*, including its
//! shadowing quirk: within one epoch map, `EpochMap::resolve` only
//! consults the entry with the greatest start address ≤ pc, so an
//! earlier entry that overlaps past a later entry's start is never
//! seen there. Effective per-epoch coverage of an entry is therefore
//! `[addr, min(addr + size, next entry's addr))`, and for duplicate
//! start addresses only the last entry in sort order (stable, so
//! insertion order) counts. Equivalence against the legacy walk is
//! property-tested in `tests/prop_resolve_flat.rs`.

use crate::codemap::{CodeMapSet, EpochMap};
use sim_cpu::Addr;
use std::sync::Arc;

/// One covering layer discovered during flattening: which map (epoch +
/// position in the set, to order duplicate-epoch maps exactly like the
/// walk does), covering which address range, resolving to which
/// signature id.
struct LayerSpan {
    start: u64,
    end: u64,
    epoch: u64,
    /// Position of the map within the sorted set.
    ordinal: u32,
    sym: u32,
}

impl LayerSpan {
    /// Walk order: the backward walk visits maps in descending
    /// `(epoch, ordinal)`; forward salvage in ascending order past the
    /// sample's epoch.
    fn key(&self) -> (u64, u32) {
        (self.epoch, self.ordinal)
    }
}

/// The flattened, immutable index for one pid's epoch-map chain.
///
/// Column-oriented storage: segment `i` spans
/// `[starts[i], ends[i])` and owns layers
/// `layer_off[i] .. layer_off[i + 1]`, sorted ascending by
/// `(epoch, map ordinal)`. A layer names its signature by the
/// incarnation's symbol id; lookups hand out the shared [`Arc<str>`]
/// instead of allocating a `String` per bucket.
///
/// `==` compares segments, layers and each layer's signature *text*:
/// two indexes over the same chain are equal whatever order their
/// symbol tables assigned ids in.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    starts: Vec<u64>,
    ends: Vec<u64>,
    layer_off: Vec<u32>,
    layer_epochs: Vec<u64>,
    layer_syms: Vec<u32>,
    /// The incarnation's symbol names, indexed by id: the table's own
    /// `Arc`s, so a copy costs no text.
    syms: Vec<Arc<str>>,
}

impl PartialEq for FlatIndex {
    fn eq(&self, other: &Self) -> bool {
        self.starts == other.starts
            && self.ends == other.ends
            && self.layer_off == other.layer_off
            && self.layer_epochs == other.layer_epochs
            && self.layer_syms.len() == other.layer_syms.len()
            && self
                .layer_syms
                .iter()
                .zip(&other.layer_syms)
                .all(|(&a, &b)| self.syms[a as usize] == other.syms[b as usize])
    }
}

impl FlatIndex {
    /// Flatten a loaded epoch chain. Build cost is
    /// O(total entries · log total entries); every subsequent lookup is
    /// two binary searches regardless of epoch depth.
    pub fn build(set: &CodeMapSet) -> FlatIndex {
        let mut spans: Vec<LayerSpan> = Vec::with_capacity(set.total_entries());
        for (ordinal, map) in set.maps().iter().enumerate() {
            Self::map_spans(map, ordinal as u32, &mut spans);
        }
        Self::sweep(spans, set.symbols().names().to_vec())
    }

    /// Generate the effective coverage spans of one epoch map.
    fn map_spans(map: &EpochMap, ordinal: u32, spans: &mut Vec<LayerSpan>) {
        let entries = map.entries();
        let mut i = 0;
        while i < entries.len() {
            // Group entries sharing a start address: the walk's
            // `partition_point(addr <= pc)` lands on the *last* of
            // the group, so only that entry can ever resolve.
            let addr = entries[i].addr;
            let mut j = i + 1;
            while j < entries.len() && entries[j].addr == addr {
                j += 1;
            }
            let cand = &entries[j - 1];
            // Coverage is cut at the next distinct start address:
            // past it the walk consults a later entry and never
            // falls back, even on a containment miss.
            let mut end = addr.saturating_add(cand.size);
            if let Some(next) = entries.get(j) {
                end = end.min(next.addr);
            }
            if end > addr {
                spans.push(LayerSpan {
                    start: addr,
                    end,
                    epoch: map.epoch,
                    ordinal,
                    sym: cand.signature,
                });
            }
            i = j;
        }
    }

    /// Boundary sweep: turn per-epoch spans into disjoint elementary
    /// segments, each snapshotting the set of layers covering it.
    fn sweep(mut spans: Vec<LayerSpan>, syms: Vec<Arc<str>>) -> FlatIndex {
        spans.sort_unstable_by_key(|s| s.start);
        let mut by_end: Vec<u32> = (0..spans.len() as u32).collect();
        by_end.sort_unstable_by_key(|&i| spans[i as usize].end);

        let mut idx = FlatIndex {
            syms,
            layer_off: vec![0],
            ..FlatIndex::default()
        };
        // Spans from one map never overlap (entry groups are disjoint
        // after truncation), so `(epoch, ordinal)` uniquely keys the
        // active set at any address, and the set holds at most one span
        // per map: a sorted vector, short as the chain is deep.
        let mut active: Vec<((u64, u32), u32)> = Vec::new();
        let (mut si, mut ei) = (0, 0);
        // Boundaries are every span's start and end, visited in order:
        // each step's next one is the smaller of the next start and the
        // next end, both past the current boundary.
        let Some(first) = spans.first() else {
            return idx;
        };
        let mut b = first.start;
        loop {
            while ei < by_end.len() && spans[by_end[ei] as usize].end <= b {
                let key = spans[by_end[ei] as usize].key();
                if let Ok(pos) = active.binary_search_by_key(&key, |a| a.0) {
                    active.remove(pos);
                }
                ei += 1;
            }
            while si < spans.len() && spans[si].start <= b {
                let span = &spans[si];
                match active.binary_search_by_key(&span.key(), |a| a.0) {
                    Ok(pos) => active[pos].1 = span.sym,
                    Err(pos) => active.insert(pos, (span.key(), span.sym)),
                }
                si += 1;
            }
            let next_start = spans.get(si).map(|s| s.start);
            let next_end = by_end.get(ei).map(|&i| spans[i as usize].end);
            let Some(next) = next_start.into_iter().chain(next_end).min() else {
                break;
            };
            if !active.is_empty() {
                if idx.mergeable(b, &active) {
                    *idx.ends.last_mut().expect("mergeable implies a segment") = next;
                } else {
                    idx.starts.push(b);
                    idx.ends.push(next);
                    for &((epoch, _), sym) in &active {
                        idx.layer_epochs.push(epoch);
                        idx.layer_syms.push(sym);
                    }
                    idx.layer_off.push(idx.layer_epochs.len() as u32);
                }
            }
            b = next;
        }
        idx
    }

    /// Can `[b, …)` extend the previous segment? Only when it is
    /// contiguous and carries the identical layer stack.
    fn mergeable(&self, b: u64, active: &[((u64, u32), u32)]) -> bool {
        let n = self.starts.len();
        if n == 0 || self.ends[n - 1] != b {
            return false;
        }
        let lo = self.layer_off[n - 1] as usize;
        let hi = self.layer_off[n] as usize;
        hi - lo == active.len()
            && active
                .iter()
                .zip(lo..hi)
                .all(|(&((epoch, _), sym), k)| {
                    self.layer_epochs[k] == epoch && self.layer_syms[k] == sym
                })
    }

    /// The paper's backward walk, flattened: the most recent occupant
    /// of `pc` at or before `epoch`, or `None`.
    pub fn resolve(&self, pc: Addr, epoch: u64) -> Option<&Arc<str>> {
        match self.lookup(pc, epoch) {
            Some((sym, false)) => Some(sym),
            _ => None,
        }
    }

    /// Backward walk plus forward salvage, mirroring the chained
    /// walk's salvage in the test oracle (`tests/support/oracle.rs`):
    /// a backward hit is `(sym, false)`; when every covering layer is
    /// *later* than the sample's epoch the earliest one is returned as
    /// `(sym, true)` (stale attribution); an uncovered pc is `None`.
    pub fn resolve_salvage(&self, pc: Addr, epoch: u64) -> Option<(&Arc<str>, bool)> {
        self.lookup(pc, epoch)
    }

    fn lookup(&self, pc: Addr, epoch: u64) -> Option<(&Arc<str>, bool)> {
        let seg = self.starts.partition_point(|s| *s <= pc).checked_sub(1)?;
        if pc >= self.ends[seg] {
            return None;
        }
        let lo = self.layer_off[seg] as usize;
        let hi = self.layer_off[seg + 1] as usize;
        let pos = self.layer_epochs[lo..hi].partition_point(|e| *e <= epoch);
        if pos > 0 {
            Some((&self.syms[self.layer_syms[lo + pos - 1] as usize], false))
        } else {
            // A segment only exists where at least one layer covers it,
            // so a backward miss always salvages forward within it.
            Some((&self.syms[self.layer_syms[lo] as usize], true))
        }
    }

    /// Number of disjoint address segments.
    pub fn segments(&self) -> usize {
        self.starts.len()
    }

    /// Total layer records across all segments.
    pub fn layers(&self) -> usize {
        self.layer_epochs.len()
    }

    /// Number of distinct signatures the layers resolve to.
    pub fn interned_symbols(&self) -> usize {
        let mut seen = vec![false; self.syms.len()];
        self.layer_syms
            .iter()
            .filter(|&&s| !std::mem::replace(&mut seen[s as usize], true))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::CodeMapEntry;

    fn e(addr: Addr, size: u64, sig: &str) -> CodeMapEntry {
        CodeMapEntry {
            addr,
            size,
            level: "base".to_string(),
            signature: sig.to_string(),
        }
    }

    fn sig(hit: Option<(&Arc<str>, bool)>) -> Option<(&str, bool)> {
        hit.map(|(s, stale)| (&**s, stale))
    }

    #[test]
    fn backward_walk_finds_most_recent_occupant() {
        let set = CodeMapSet::new(vec![
            (0, vec![e(0x100, 0x40, "A")]),
            (1, vec![e(0x100, 0x40, "B")]),
            (2, vec![e(0x900, 0x40, "C")]),
        ]);
        let f = FlatIndex::build(&set);
        assert_eq!(f.resolve(0x110, 0).map(|s| &**s), Some("A"));
        assert_eq!(f.resolve(0x110, 1).map(|s| &**s), Some("B"));
        assert_eq!(f.resolve(0x110, 2).map(|s| &**s), Some("B"));
        assert!(f.resolve(0x500, 2).is_none());
        assert!(f.resolve(0x13f, 9).is_some());
        assert!(f.resolve(0x140, 9).is_none(), "exclusive end");
    }

    #[test]
    fn resolution_never_looks_forward_without_salvage() {
        let set = CodeMapSet::new(vec![(3, vec![e(0x100, 0x40, "X")])]);
        let f = FlatIndex::build(&set);
        assert!(f.resolve(0x110, 1).is_none());
        assert_eq!(f.resolve(0x110, 3).map(|s| &**s), Some("X"));
        assert_eq!(f.resolve(0x110, 9).map(|s| &**s), Some("X"));
    }

    #[test]
    fn salvage_matches_the_chained_walk() {
        let set = CodeMapSet::new(vec![
            (0, vec![e(0x900, 0x40, "old")]),
            (3, vec![e(0x100, 0x40, "X")]),
            (5, vec![e(0x100, 0x40, "Y")]),
        ]);
        let f = FlatIndex::build(&set);
        // Forward salvage picks the *earliest* later layer, like the
        // walk's forward scan.
        assert_eq!(sig(f.resolve_salvage(0x110, 1)), Some(("X", true)));
        // Backward hits are never stale.
        assert_eq!(sig(f.resolve_salvage(0x910, 2)), Some(("old", false)));
        assert_eq!(sig(f.resolve_salvage(0x110, 4)), Some(("X", false)));
        assert!(f.resolve_salvage(0x500, 1).is_none());
    }

    #[test]
    fn shadowing_is_reproduced_exactly() {
        // "big" overlaps past "small"'s start; the walk consults only
        // the last entry with addr <= pc, so pcs past small's end are
        // misses even though big's range covers them.
        let set = CodeMapSet::new(vec![(
            0,
            vec![e(0x100, 0x100, "big"), e(0x180, 0x40, "small")],
        )]);
        let f = FlatIndex::build(&set);
        assert_eq!(f.resolve(0x150, 0).map(|s| &**s), Some("big"));
        assert_eq!(f.resolve(0x190, 0).map(|s| &**s), Some("small"));
        assert!(f.resolve(0x1c8, 0).is_none(), "shadowed gap");
        assert!(set.resolve(0x1c8, 0).is_none(), "walk agrees");
    }

    #[test]
    fn duplicate_start_addresses_use_the_last_entry() {
        // Stable sort keeps insertion order; the walk's candidate is
        // the last of the equal-addr group.
        let set = CodeMapSet::new(vec![(
            0,
            vec![e(0x100, 0x40, "first"), e(0x100, 0x20, "second")],
        )]);
        let f = FlatIndex::build(&set);
        assert_eq!(f.resolve(0x110, 0).map(|s| &**s), Some("second"));
        assert!(f.resolve(0x130, 0).is_none(), "first is shadowed entirely");
        assert_eq!(set.resolve(0x110, 0).unwrap(), "second");
        assert!(set.resolve(0x130, 0).is_none());
    }

    #[test]
    fn zero_sized_entries_cover_nothing() {
        let set = CodeMapSet::new(vec![(0, vec![e(0x100, 0, "ghost")])]);
        let f = FlatIndex::build(&set);
        assert!(f.resolve(0x100, 0).is_none());
        assert_eq!(f.segments(), 0);
    }

    #[test]
    fn interning_dedups_signatures_across_epochs() {
        let set = CodeMapSet::new(vec![
            (0, vec![e(0x100, 0x40, "m"), e(0x200, 0x40, "n")]),
            (1, vec![e(0x300, 0x40, "m")]),
        ]);
        let f = FlatIndex::build(&set);
        assert_eq!(f.interned_symbols(), 2);
        // The two "m" layers hand out the same allocation.
        let a = f.resolve(0x110, 0).unwrap().clone();
        let b = f.resolve(0x310, 1).unwrap().clone();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn contiguous_identical_layers_merge() {
        // Two adjacent entries with the same signature in the same
        // epoch flatten to a single segment.
        let set = CodeMapSet::new(vec![(
            0,
            vec![e(0x100, 0x40, "m"), e(0x140, 0x40, "m")],
        )]);
        let f = FlatIndex::build(&set);
        assert_eq!(f.segments(), 1);
        assert_eq!(f.resolve(0x17f, 0).map(|s| &**s), Some("m"));
        assert!(f.resolve(0x180, 0).is_none());
    }

    #[test]
    fn empty_set_resolves_nothing() {
        let f = FlatIndex::build(&CodeMapSet::default());
        assert!(f.resolve_salvage(0x100, 0).is_none());
        assert_eq!(f.segments(), 0);
    }
}

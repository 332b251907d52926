//! Semispace copying heap with code bodies interleaved among data.
//!
//! This reproduces the Jikes RVM property the paper singles out (§3.1):
//! "the code and data regions are both interwound into a single heap …
//! the body of a method can exist at several different memory locations
//! during a single execution." Every collection copies live objects —
//! including JIT code bodies — to the other semispace, so code *moves*,
//! and each collection boundary is a VIProf *execution epoch*.
//!
//! Objects are referenced through stable handles ([`ObjRef`]); their
//! simulated addresses change on collection. Liveness of data is real
//! (traced from roots through fields); liveness of code is decided by
//! the VM (a method's superseded bodies die at the next GC).

use crate::bytecode::{ClassId, MethodId};
use sim_cpu::Addr;

/// Stable handle to a heap object (survives moves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(pub u32);

/// A slot value: integer or reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    I64(i64),
    Ref(Option<ObjRef>),
}

impl Default for Value {
    fn default() -> Self {
        Value::I64(0)
    }
}

impl Value {
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            Value::Ref(Some(r)) => r.0 as i64,
            Value::Ref(None) => 0,
        }
    }

    pub fn as_ref(self) -> Option<ObjRef> {
        match self {
            Value::Ref(r) => r,
            Value::I64(_) => None,
        }
    }
}

/// What an object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    Data(ClassId),
    Array,
    /// A JIT-compiled method body: `size` bytes of machine code.
    Code(MethodId),
}

/// Object header + payload.
///
/// The payload is materialized at the object's first slot write: until
/// then `slots` is empty and every one of the `len` slots reads
/// `Value::I64(0)`. A never-written object (a retained cache array, say)
/// so costs no host memory and no scan: the mark loops trace `slots`,
/// which holds no reference until something is written. The simulated
/// size, `byte_size`, always counts all `len` slots.
#[derive(Debug, Clone)]
pub struct HeapObject {
    pub addr: Addr,
    pub kind: ObjKind,
    /// Materialized payload: empty, or exactly `len` slots.
    slots: Vec<Value>,
    /// Logical slot count (0 for code bodies).
    len: usize,
    pub byte_size: u64,
    /// Collections survived (drives mature-space promotion).
    pub survivals: u32,
    /// Promoted to the non-moving mature space (Jikes RVM's "mature
    /// space" — the paper §4.3 notes that once the GC moves hot code
    /// there, "there is less need for any runtime work" by the agent).
    pub mature: bool,
}

impl HeapObject {
    /// Number of slots (fields or array elements) the object has.
    pub fn slot_count(&self) -> usize {
        self.len
    }

    /// Read slot `i`; an unwritten slot reads `Value::I64(0)`. Panics
    /// when `i` is not below [`slot_count`](Self::slot_count).
    pub fn slot(&self, i: usize) -> Value {
        assert!(i < self.len, "slot {i} out of bounds 0..{}", self.len);
        self.slots.get(i).copied().unwrap_or_default()
    }

    /// Write slot `i`, materializing the payload on the first write.
    /// Panics when `i` is not below [`slot_count`](Self::slot_count).
    pub fn set_slot(&mut self, i: usize, v: Value) {
        assert!(i < self.len, "slot {i} out of bounds 0..{}", self.len);
        if self.slots.is_empty() {
            self.slots = vec![Value::default(); self.len];
        }
        self.slots[i] = v;
    }
}

/// One object relocation performed by a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveEvent {
    pub obj: ObjRef,
    pub kind: ObjKind,
    pub old_addr: Addr,
    pub new_addr: Addr,
    pub byte_size: u64,
}

/// Collection outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    pub live_bytes: u64,
    /// Bytes actually copied (mature objects are traced but not moved).
    pub copied_bytes: u64,
    pub live_objects: u64,
    pub freed_objects: u64,
    pub moved_code_bodies: u64,
}

/// Allocation failure: the current semispace cannot fit the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSpace {
    pub requested: u64,
    pub available: u64,
}

impl std::fmt::Display for OutOfSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "semispace exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfSpace {}

const HEADER_BYTES: u64 = 16;
const SLOT_BYTES: u64 = 8;
const ALIGN: u64 = 16;

fn align_up(x: u64) -> u64 {
    x.div_ceil(ALIGN) * ALIGN
}

/// Collection strategy.
///
/// The paper's whole problem statement — code bodies that "exist at
/// several different memory locations during a single execution" —
/// presupposes a *moving* collector (Jikes RVM's copying heap). The
/// non-moving mark-sweep mode is the ablation: with it, code never
/// moves, the agent's maps contain compile records only, and the GC
/// move hook never fires (experiment E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcMode {
    #[default]
    Copying,
    NonMoving,
}

/// Mature-space configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatureConfig {
    /// Objects surviving this many collections are promoted into the
    /// non-moving mature space.
    pub promote_after: u32,
    /// Fraction of the heap region reserved for the mature space.
    pub fraction: f64,
}

impl Default for MatureConfig {
    fn default() -> Self {
        MatureConfig {
            promote_after: 3,
            fraction: 0.25,
        }
    }
}

/// The heap.
#[derive(Debug, Clone)]
pub struct Heap {
    /// The full anon region registered with the profiler.
    region: (Addr, Addr),
    /// Which half of the nursery area is the active from-space (0/1).
    active: usize,
    /// Bump pointer within the active semispace.
    alloc_ptr: Addr,
    /// Bump pointer within the mature space (equal to `region.1` when
    /// no mature space is configured).
    mature_ptr: Addr,
    /// Start of the mature space (== `region.1` when disabled).
    mature_start: Addr,
    mature: Option<MatureConfig>,
    mode: GcMode,
    /// Non-moving mode: reclaimed `[addr, addr+len)` holes, sorted and
    /// coalesced; allocation is first-fit from here before bumping.
    holes: Vec<(Addr, u64)>,
    /// Non-moving mode: bump-consumed ephemeral segments, reclaimed
    /// wholesale at the next collection.
    ephemeral_segments: Vec<(Addr, u64)>,
    objects: Vec<Option<HeapObject>>,
    free: Vec<u32>,
    /// Completed collections (== the VIProf epoch counter's source).
    pub collections: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Total bytes copied by collections.
    pub bytes_copied: u64,
    /// Objects promoted to the mature space so far.
    pub promotions: u64,
}

impl Heap {
    /// Build over `region`; the region is split into two semispaces
    /// (no mature space).
    pub fn new(region: (Addr, Addr)) -> Self {
        Self::with_mature_opt(region, None)
    }

    /// Build with a mature space carved off the end of the region.
    pub fn with_mature(region: (Addr, Addr), config: MatureConfig) -> Self {
        Self::with_mature_opt(region, Some(config))
    }

    /// Build a non-moving mark-sweep heap over the whole region (no
    /// semispaces, no mature space — nothing ever moves).
    pub fn non_moving(region: (Addr, Addr)) -> Self {
        let mut h = Self::with_mature_opt(region, None);
        h.mode = GcMode::NonMoving;
        h
    }

    pub fn mode(&self) -> GcMode {
        self.mode
    }

    fn with_mature_opt(region: (Addr, Addr), mature: Option<MatureConfig>) -> Self {
        assert!(region.1 > region.0, "empty heap region");
        assert!((region.1 - region.0) >= 4 * ALIGN, "heap too small");
        let mature_start = match mature {
            Some(c) => {
                assert!((0.0..0.9).contains(&c.fraction), "bad mature fraction");
                let bytes = ((region.1 - region.0) as f64 * c.fraction) as u64;
                let start = region.1 - bytes / ALIGN * ALIGN;
                debug_assert!(start > region.0);
                start
            }
            None => region.1,
        };
        let mut h = Heap {
            region,
            active: 0,
            alloc_ptr: 0,
            mature_ptr: mature_start,
            mature_start,
            mature,
            mode: GcMode::Copying,
            holes: Vec::new(),
            ephemeral_segments: Vec::new(),
            objects: Vec::new(),
            free: Vec::new(),
            collections: 0,
            bytes_allocated: 0,
            bytes_copied: 0,
            promotions: 0,
        };
        h.alloc_ptr = h.space_bounds(0).0;
        h
    }

    pub fn region(&self) -> (Addr, Addr) {
        self.region
    }

    /// Bounds of semispace `i` (0 or 1) within the nursery area.
    /// Non-moving mode has a single space spanning the whole region.
    fn space_bounds(&self, i: usize) -> (Addr, Addr) {
        if self.mode == GcMode::NonMoving {
            return self.region;
        }
        let half = (self.mature_start - self.region.0) / 2;
        let start = self.region.0 + i as u64 * half;
        (start, start + half)
    }

    /// Free bytes left in the mature space.
    pub fn mature_available(&self) -> u64 {
        self.region.1 - self.mature_ptr
    }

    /// Bytes still available for allocation (bump headroom plus, in
    /// non-moving mode, reclaimed holes).
    pub fn available(&self) -> u64 {
        let bump = self.space_bounds(self.active).1 - self.alloc_ptr;
        let holes: u64 = self.holes.iter().map(|(_, len)| len).sum();
        bump + holes
    }

    /// Total capacity of one semispace.
    pub fn semispace_bytes(&self) -> u64 {
        (self.mature_start - self.region.0) / 2
    }

    fn object_bytes(kind: ObjKind, slots: usize, code_bytes: u64) -> u64 {
        match kind {
            ObjKind::Code(_) => align_up(HEADER_BYTES + code_bytes),
            _ => align_up(HEADER_BYTES + slots as u64 * SLOT_BYTES),
        }
    }

    fn store(&mut self, obj: HeapObject) -> ObjRef {
        if let Some(idx) = self.free.pop() {
            self.objects[idx as usize] = Some(obj);
            ObjRef(idx)
        } else {
            self.objects.push(Some(obj));
            ObjRef(self.objects.len() as u32 - 1)
        }
    }

    /// Allocate a data object with `slots` fields.
    pub fn alloc_data(&mut self, class: ClassId, slots: usize) -> Result<ObjRef, OutOfSpace> {
        self.alloc(ObjKind::Data(class), slots, 0)
    }

    /// Allocate an array of `len` slots.
    pub fn alloc_array(&mut self, len: usize) -> Result<ObjRef, OutOfSpace> {
        self.alloc(ObjKind::Array, len, 0)
    }

    /// Allocate a code body of `code_bytes` machine-code bytes.
    pub fn alloc_code(&mut self, method: MethodId, code_bytes: u64) -> Result<ObjRef, OutOfSpace> {
        self.alloc(ObjKind::Code(method), 0, code_bytes)
    }

    fn alloc(&mut self, kind: ObjKind, slots: usize, code_bytes: u64) -> Result<ObjRef, OutOfSpace> {
        let bytes = Self::object_bytes(kind, slots, code_bytes);
        let addr = match self.carve(bytes) {
            Some(a) => a,
            None => {
                return Err(OutOfSpace {
                    requested: bytes,
                    available: self.available(),
                })
            }
        };
        self.bytes_allocated += bytes;
        Ok(self.store(HeapObject {
            addr,
            kind,
            slots: Vec::new(),
            len: slots,
            byte_size: bytes,
            survivals: 0,
            mature: false,
        }))
    }

    /// Find space for `bytes`: first-fit from the non-moving free list,
    /// then the bump pointer.
    fn carve(&mut self, bytes: u64) -> Option<Addr> {
        if self.mode == GcMode::NonMoving {
            if let Some(i) = self.holes.iter().position(|(_, len)| *len >= bytes) {
                let (start, len) = self.holes[i];
                if len == bytes {
                    self.holes.remove(i);
                } else {
                    self.holes[i] = (start + bytes, len - bytes);
                }
                return Some(start);
            }
        }
        let (_, end) = self.space_bounds(self.active);
        if self.alloc_ptr + bytes > end {
            return None;
        }
        let addr = self.alloc_ptr;
        self.alloc_ptr += bytes;
        Some(addr)
    }

    /// Return `[addr, addr+len)` to the non-moving free list, keeping
    /// it sorted and coalesced.
    fn free_hole(&mut self, addr: Addr, len: u64) {
        debug_assert_eq!(self.mode, GcMode::NonMoving);
        let pos = self.holes.partition_point(|(a, _)| *a < addr);
        self.holes.insert(pos, (addr, len));
        // Coalesce with neighbours.
        if pos + 1 < self.holes.len() && self.holes[pos].0 + self.holes[pos].1 == self.holes[pos + 1].0 {
            self.holes[pos].1 += self.holes[pos + 1].1;
            self.holes.remove(pos + 1);
        }
        if pos > 0 && self.holes[pos - 1].0 + self.holes[pos - 1].1 == self.holes[pos].0 {
            self.holes[pos - 1].1 += self.holes[pos].1;
            self.holes.remove(pos);
        }
    }

    /// Consume up to `bytes` of the active semispace as *ephemeral*
    /// garbage: short-lived allocations that will all be dead by the
    /// next collection, so no handles are created. Returns how many
    /// bytes were actually consumed (less than `bytes` when the space
    /// fills — the caller should collect and retry with the remainder).
    /// This backs the batched execution mode: allocation *pressure* is
    /// preserved exactly even when individual objects are not.
    pub fn alloc_ephemeral(&mut self, bytes: u64) -> u64 {
        // Bump region first; in non-moving mode, spill into free-list
        // holes, remembering every consumed segment so the next
        // collection can reclaim it.
        let (_, end) = self.space_bounds(self.active);
        let bump_room = end - self.alloc_ptr;
        let mut consumed = bytes.min(bump_room);
        if consumed > 0 && self.mode == GcMode::NonMoving {
            match self.ephemeral_segments.last_mut() {
                Some((a, len)) if *a + *len == self.alloc_ptr => *len += consumed,
                _ => self.ephemeral_segments.push((self.alloc_ptr, consumed)),
            }
        }
        self.alloc_ptr += consumed;
        if self.mode == GcMode::NonMoving {
            while consumed < bytes && !self.holes.is_empty() {
                let (start, len) = self.holes[0];
                let take = len.min(bytes - consumed);
                if take == len {
                    self.holes.remove(0);
                } else {
                    self.holes[0] = (start + take, len - take);
                }
                self.ephemeral_segments.push((start, take));
                consumed += take;
            }
        }
        self.bytes_allocated += consumed;
        consumed
    }

    pub fn get(&self, r: ObjRef) -> &HeapObject {
        self.objects[r.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("dangling object handle {r:?}"))
    }

    pub fn get_mut(&mut self, r: ObjRef) -> &mut HeapObject {
        self.objects[r.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("dangling object handle {r:?}"))
    }

    /// Whether the handle currently refers to a live object.
    pub fn is_live(&self, r: ObjRef) -> bool {
        (r.0 as usize) < self.objects.len() && self.objects[r.0 as usize].is_some()
    }

    pub fn addr_of(&self, r: ObjRef) -> Addr {
        self.get(r).addr
    }

    /// Address range `[addr, addr+size)` of an object — for code bodies
    /// this is the PC range execution is attributed to.
    pub fn range_of(&self, r: ObjRef) -> (Addr, Addr) {
        let o = self.get(r);
        (o.addr, o.addr + o.byte_size)
    }

    /// Collect: trace from `roots` (plus `live_code`, which the VM
    /// declares live regardless of data reachability), copy live
    /// objects to the other semispace, free the rest, and report every
    /// relocation through `on_move`.
    pub fn collect(
        &mut self,
        roots: &[ObjRef],
        live_code: &[ObjRef],
        mut on_move: impl FnMut(&MoveEvent),
    ) -> GcStats {
        if self.mode == GcMode::NonMoving {
            return self.collect_non_moving(roots, live_code);
        }
        let to = 1 - self.active;
        let (to_start, to_end) = self.space_bounds(to);

        // Mark phase: BFS from roots ∪ live_code.
        let mut marked = vec![false; self.objects.len()];
        let mut worklist: Vec<ObjRef> = Vec::new();
        for &r in roots.iter().chain(live_code) {
            if self.is_live(r) && !marked[r.0 as usize] {
                marked[r.0 as usize] = true;
                worklist.push(r);
            }
        }
        let mut order: Vec<ObjRef> = Vec::new();
        while let Some(r) = worklist.pop() {
            order.push(r);
            // Only a materialized payload can hold a reference.
            let obj = self.get(r);
            for slot in &obj.slots {
                if let Some(child) = slot.as_ref() {
                    if self.is_live(child) && !marked[child.0 as usize] {
                        marked[child.0 as usize] = true;
                        worklist.push(child);
                    }
                }
            }
        }
        // Copy in handle order for deterministic layout.
        order.sort_unstable();

        let mut stats = GcStats::default();
        let mut bump = to_start;
        let promote_after = self.mature.map(|c| c.promote_after);
        let mut promoted = 0u64;
        let mut mature_ptr = self.mature_ptr;
        for r in order {
            let mature_room = self.region.1 - mature_ptr;
            let obj = self.objects[r.0 as usize]
                .as_mut()
                .expect("marked object must be live");
            let bytes = obj.byte_size;
            stats.live_bytes += bytes;
            stats.live_objects += 1;
            // Mature objects never move (and are not re-reported).
            if obj.mature {
                continue;
            }
            obj.survivals += 1;
            // Promote long-lived survivors into the mature space.
            let new_addr = match promote_after {
                Some(n) if obj.survivals >= n && bytes <= mature_room => {
                    obj.mature = true;
                    promoted += 1;
                    let a = mature_ptr;
                    mature_ptr += bytes;
                    a
                }
                _ => {
                    assert!(
                        bump + bytes <= to_end,
                        "to-space overflow during copy (live set exceeds a semispace)"
                    );
                    let a = bump;
                    bump += bytes;
                    a
                }
            };
            let ev = MoveEvent {
                obj: r,
                kind: obj.kind,
                old_addr: obj.addr,
                new_addr,
                byte_size: bytes,
            };
            obj.addr = new_addr;
            stats.copied_bytes += bytes;
            if matches!(ev.kind, ObjKind::Code(_)) {
                stats.moved_code_bodies += 1;
            }
            on_move(&ev);
        }
        self.mature_ptr = mature_ptr;
        self.promotions += promoted;
        self.bytes_copied += stats.copied_bytes;

        // Sweep: free unmarked handles.
        for (i, slot) in self.objects.iter_mut().enumerate() {
            if slot.is_some() && !marked[i] {
                *slot = None;
                self.free.push(i as u32);
                stats.freed_objects += 1;
            }
        }

        self.active = to;
        self.alloc_ptr = bump;
        self.collections += 1;
        stats
    }

    /// Mark-sweep collection: nothing moves; dead objects' extents (and
    /// ephemeral segments) return to the free list.
    fn collect_non_moving(&mut self, roots: &[ObjRef], live_code: &[ObjRef]) -> GcStats {
        // Mark phase (identical reachability to the copying collector).
        let mut marked = vec![false; self.objects.len()];
        let mut worklist: Vec<ObjRef> = Vec::new();
        for &r in roots.iter().chain(live_code) {
            if self.is_live(r) && !marked[r.0 as usize] {
                marked[r.0 as usize] = true;
                worklist.push(r);
            }
        }
        let mut stats = GcStats::default();
        while let Some(r) = worklist.pop() {
            let obj = self.get(r);
            stats.live_objects += 1;
            stats.live_bytes += obj.byte_size;
            // Only a materialized payload can hold a reference.
            for slot in &obj.slots {
                if let Some(child) = slot.as_ref() {
                    if self.is_live(child) && !marked[child.0 as usize] {
                        marked[child.0 as usize] = true;
                        worklist.push(child);
                    }
                }
            }
        }
        // Survival counting still happens (age statistics), but nothing
        // is promoted or moved.
        for (i, m) in marked.iter().enumerate() {
            if *m {
                if let Some(obj) = self.objects[i].as_mut() {
                    obj.survivals += 1;
                }
            }
        }
        // Sweep: dead extents become holes.
        let mut dead: Vec<(Addr, u64, u32)> = Vec::new();
        for (i, slot) in self.objects.iter().enumerate() {
            if let Some(obj) = slot {
                if !marked[i] {
                    dead.push((obj.addr, obj.byte_size, i as u32));
                }
            }
        }
        for (addr, len, idx) in dead {
            self.objects[idx as usize] = None;
            self.free.push(idx);
            self.free_hole(addr, len);
            stats.freed_objects += 1;
        }
        let segments = std::mem::take(&mut self.ephemeral_segments);
        for (addr, len) in segments {
            self.free_hole(addr, len);
        }
        self.collections += 1;
        stats
    }
}

#[cfg(test)]
impl Heap {
    pub(crate) fn live_object_count(&self) -> u64 {
        self.objects.iter().filter(|o| o.is_some()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new((0x6000_0000, 0x6000_4000)) // two 8 KiB semispaces
    }

    #[test]
    fn alloc_bumps_within_active_space() {
        let mut h = heap();
        let a = h.alloc_data(ClassId(0), 2).unwrap();
        let b = h.alloc_data(ClassId(0), 2).unwrap();
        assert!(h.addr_of(b) > h.addr_of(a));
        assert!(h.addr_of(a) >= 0x6000_0000);
        assert!(h.addr_of(b) < 0x6000_2000, "stays in first semispace");
    }

    #[test]
    fn out_of_space_reported() {
        let mut h = heap();
        // Fill the 8 KiB semispace with 512-slot arrays (16+4096 → 4112→4128).
        assert!(h.alloc_array(512).is_ok());
        let e = h.alloc_array(512).unwrap_err();
        assert!(e.requested > e.available);
    }

    #[test]
    fn collect_frees_garbage_and_keeps_roots() {
        let mut h = heap();
        let keep = h.alloc_data(ClassId(0), 1).unwrap();
        let lose = h.alloc_data(ClassId(0), 1).unwrap();
        let stats = h.collect(&[keep], &[], |_| {});
        assert_eq!(stats.live_objects, 1);
        assert_eq!(stats.freed_objects, 1);
        assert!(h.is_live(keep));
        assert!(!h.is_live(lose));
    }

    #[test]
    fn collect_traces_through_fields() {
        let mut h = heap();
        let child = h.alloc_data(ClassId(0), 0).unwrap();
        let parent = h.alloc_data(ClassId(0), 1).unwrap();
        h.get_mut(parent).set_slot(0, Value::Ref(Some(child)));
        let stats = h.collect(&[parent], &[], |_| {});
        assert_eq!(stats.live_objects, 2);
        assert!(h.is_live(child));
    }

    #[test]
    fn collect_moves_objects_to_other_semispace() {
        let mut h = heap();
        let a = h.alloc_data(ClassId(0), 1).unwrap();
        let before = h.addr_of(a);
        let mut moves = Vec::new();
        h.collect(&[a], &[], |m| moves.push(*m));
        let after = h.addr_of(a);
        assert_ne!(before, after);
        assert!(after >= 0x6000_2000, "copied into second semispace");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].old_addr, before);
        assert_eq!(moves[0].new_addr, after);
    }

    #[test]
    fn code_bodies_survive_via_live_code_and_report_moves() {
        let mut h = heap();
        let code = h.alloc_code(MethodId(3), 100).unwrap();
        let stale = h.alloc_code(MethodId(3), 80).unwrap();
        let mut code_moves = 0;
        let stats = h.collect(&[], &[code], |m| {
            if matches!(m.kind, ObjKind::Code(_)) {
                code_moves += 1;
            }
        });
        assert_eq!(stats.moved_code_bodies, 1);
        assert_eq!(code_moves, 1);
        assert!(h.is_live(code));
        assert!(!h.is_live(stale), "superseded body collected");
    }

    #[test]
    fn allocation_resumes_after_collection() {
        let mut h = heap();
        for _ in 0..3 {
            h.alloc_array(100).unwrap();
        }
        h.collect(&[], &[], |_| {});
        // Everything died: the new space is empty again.
        let r = h.alloc_array(100).unwrap();
        assert!(h.is_live(r));
        assert_eq!(h.collections, 1);
    }

    #[test]
    fn two_collections_round_trip_addresses() {
        let mut h = heap();
        let a = h.alloc_data(ClassId(0), 1).unwrap();
        let addr0 = h.addr_of(a);
        h.collect(&[a], &[], |_| {});
        h.collect(&[a], &[], |_| {});
        // Back in the first semispace at its start.
        assert_eq!(h.addr_of(a), addr0);
    }

    #[test]
    fn handles_are_reused_after_free() {
        let mut h = heap();
        let a = h.alloc_data(ClassId(0), 1).unwrap();
        h.collect(&[], &[], |_| {});
        assert!(!h.is_live(a));
        let b = h.alloc_data(ClassId(0), 1).unwrap();
        assert_eq!(a, b, "freed handle is recycled");
    }

    #[test]
    fn cyclic_graphs_do_not_hang_collection() {
        let mut h = heap();
        let a = h.alloc_data(ClassId(0), 1).unwrap();
        let b = h.alloc_data(ClassId(0), 1).unwrap();
        h.get_mut(a).set_slot(0, Value::Ref(Some(b)));
        h.get_mut(b).set_slot(0, Value::Ref(Some(a)));
        let stats = h.collect(&[a], &[], |_| {});
        assert_eq!(stats.live_objects, 2);
    }

    #[test]
    fn ephemeral_allocation_fills_and_reports_partial() {
        let mut h = heap(); // 8 KiB semispaces
        let real = h.alloc_data(ClassId(0), 1).unwrap();
        let avail = h.available();
        assert_eq!(h.alloc_ephemeral(100), 100);
        // Ask for more than fits: get only what's left.
        let got = h.alloc_ephemeral(avail);
        assert_eq!(got, avail - 100);
        assert_eq!(h.available(), 0);
        // Collection reclaims every ephemeral byte; the real object lives.
        h.collect(&[real], &[], |_| {});
        assert!(h.is_live(real));
        assert!(h.available() > avail / 2);
    }

    #[test]
    fn mature_objects_stop_moving_after_promotion() {
        let mut h = Heap::with_mature(
            (0x6000_0000, 0x6001_0000),
            MatureConfig {
                promote_after: 2,
                fraction: 0.25,
            },
        );
        let code = h.alloc_code(MethodId(1), 100).unwrap();
        let mut moves = Vec::new();
        // GC 1: survives (survivals=1), moves. GC 2: promoted to mature.
        h.collect(&[], &[code], |m| moves.push(*m));
        h.collect(&[], &[code], |m| moves.push(*m));
        assert_eq!(moves.len(), 2);
        assert!(h.get(code).mature);
        assert_eq!(h.promotions, 1);
        let mature_addr = h.addr_of(code);
        // GC 3+: no more moves, address stable.
        h.collect(&[], &[code], |m| moves.push(*m));
        h.collect(&[], &[code], |m| moves.push(*m));
        assert_eq!(moves.len(), 2, "mature body must not move again");
        assert_eq!(h.addr_of(code), mature_addr);
        // The mature copy lives in the reserved top quarter.
        assert!(mature_addr >= 0x6000_0000 + 0xC000);
    }

    #[test]
    fn mature_space_shrinks_semispaces() {
        let plain = Heap::new((0, 0x10000));
        let seg = Heap::with_mature(
            (0, 0x10000),
            MatureConfig {
                promote_after: 1,
                fraction: 0.5,
            },
        );
        assert_eq!(plain.semispace_bytes(), 0x8000);
        assert_eq!(seg.semispace_bytes(), 0x4000);
        assert_eq!(seg.mature_available(), 0x8000);
    }

    #[test]
    fn full_mature_space_keeps_objects_in_nursery() {
        let mut h = Heap::with_mature(
            (0, 0x1000),
            MatureConfig {
                promote_after: 1,
                fraction: 0.1, // 256 bytes of mature space
            },
        );
        // A ~500-byte array cannot fit the 256-byte mature space: it
        // keeps getting copied between semispaces instead.
        let big = h.alloc_array(60).unwrap(); // 16+480 ≈ 496 bytes
        let a0 = h.addr_of(big);
        h.collect(&[big], &[], |_| {});
        assert!(!h.get(big).mature);
        assert_ne!(h.addr_of(big), a0, "still moving");
    }

    #[test]
    fn non_moving_collect_keeps_addresses_and_frees_holes() {
        let mut h = Heap::non_moving((0x7000_0000, 0x7000_4000));
        let keep = h.alloc_data(ClassId(0), 4).unwrap();
        let lose = h.alloc_array(16).unwrap();
        let keep2 = h.alloc_code(MethodId(1), 100).unwrap();
        let a_keep = h.addr_of(keep);
        let a_lose = h.addr_of(lose);
        let a_keep2 = h.addr_of(keep2);
        let mut moves = 0;
        let stats = h.collect(&[keep], &[keep2], |_| moves += 1);
        assert_eq!(moves, 0, "non-moving collector must not move");
        assert_eq!(h.addr_of(keep), a_keep);
        assert_eq!(h.addr_of(keep2), a_keep2);
        assert!(!h.is_live(lose));
        assert_eq!(stats.copied_bytes, 0);
        assert_eq!(stats.freed_objects, 1);
        // The hole is reused by a same-sized allocation.
        let again = h.alloc_array(16).unwrap();
        assert_eq!(h.addr_of(again), a_lose, "first-fit reuses the hole");
    }

    #[test]
    fn non_moving_holes_coalesce() {
        let mut h = Heap::non_moving((0x7000_0000, 0x7000_4000));
        let a = h.alloc_array(16).unwrap();
        let b = h.alloc_array(16).unwrap();
        let c = h.alloc_array(16).unwrap();
        let start = h.addr_of(a);
        let size = h.get(a).byte_size;
        // Free a and c first (non-adjacent), then b merges all three.
        h.collect(&[b], &[], |_| {});
        h.collect(&[], &[], |_| {});
        let _ = c;
        // One coalesced hole of 3 objects: a big array fits exactly there.
        let big = h.alloc_array((3 * size as usize - 16) / 8).unwrap();
        assert_eq!(h.addr_of(big), start);
    }

    #[test]
    fn non_moving_ephemeral_bytes_are_reclaimed() {
        let mut h = Heap::non_moving((0x7000_0000, 0x7000_1000)); // 4 KiB
        let keep = h.alloc_data(ClassId(0), 2).unwrap();
        let avail = h.available();
        assert_eq!(h.alloc_ephemeral(avail), avail);
        assert_eq!(h.available(), 0);
        h.collect(&[keep], &[], |_| {});
        assert_eq!(h.available(), avail, "every ephemeral byte reclaimed");
        assert!(h.is_live(keep));
        // And allocation keeps working from the holes.
        for _ in 0..10 {
            h.alloc_data(ClassId(0), 2).unwrap();
        }
    }

    #[test]
    fn non_moving_survives_many_cycles_without_leaking() {
        let mut h = Heap::non_moving((0x7000_0000, 0x7000_2000)); // 8 KiB
        let keep = h.alloc_data(ClassId(0), 4).unwrap();
        for _ in 0..50 {
            while h.alloc_array(8).is_ok() {}
            h.collect(&[keep], &[], |_| {});
        }
        assert!(h.is_live(keep));
        assert!(h.available() > 0x1000, "space must be reclaimed each cycle");
    }

    #[test]
    fn unwritten_slots_read_zero_across_collections_promotion_and_non_moving() {
        let config = MatureConfig {
            promote_after: 2,
            fraction: 0.25,
        };
        for (mut h, promoted) in [
            (heap(), 0),
            (Heap::with_mature((0x6000_0000, 0x6001_0000), config), 2),
            (Heap::non_moving((0x7000_0000, 0x7000_4000)), 0),
        ] {
            let arr = h.alloc_array(64).unwrap();
            let obj = h.alloc_data(ClassId(0), 3).unwrap();
            h.get_mut(obj).set_slot(1, Value::I64(7));
            for _ in 0..4 {
                h.collect(&[arr, obj], &[], |_| {});
                let (a, o) = (h.get(arr), h.get(obj));
                assert_eq!(a.slot_count(), 64);
                assert!((0..64).all(|i| a.slot(i) == Value::I64(0)), "{:?}", h.mode());
                let fields: Vec<Value> = (0..3).map(|i| o.slot(i)).collect();
                assert_eq!(fields, [Value::I64(0), Value::I64(7), Value::I64(0)]);
                assert_eq!(a.byte_size, align_up(HEADER_BYTES + 64 * SLOT_BYTES));
            }
            assert_eq!(h.promotions, promoted, "{:?}", h.mode());
        }
    }

    #[test]
    fn a_reference_written_into_a_retained_array_keeps_its_target_alive() {
        let mut h = Heap::with_mature(
            (0x6000_0000, 0x6001_0000),
            MatureConfig {
                promote_after: 1,
                fraction: 0.25,
            },
        );
        let retained = h.alloc_array(512).unwrap();
        h.collect(&[retained], &[], |_| {});
        assert!(h.get(retained).mature, "promoted with its payload still unwritten");
        let target = h.alloc_data(ClassId(0), 1).unwrap();
        h.get_mut(retained).set_slot(300, Value::Ref(Some(target)));
        let stats = h.collect(&[retained], &[], |_| {});
        assert!(h.is_live(target));
        assert_eq!(stats.live_objects, 2);
        assert_eq!(h.get(retained).slot(300), Value::Ref(Some(target)));
        assert_eq!(h.get(retained).slot(299), Value::I64(0));
        // Overwriting the only reference lets the target die.
        h.get_mut(retained).set_slot(300, Value::I64(1));
        h.collect(&[retained], &[], |_| {});
        assert!(!h.is_live(target));
    }

    #[test]
    #[should_panic(expected = "slot 4 out of bounds 0..4")]
    fn slot_past_slot_count_panics() {
        let mut h = heap();
        let arr = h.alloc_array(4).unwrap();
        h.get(arr).slot(4);
    }

    #[test]
    #[should_panic(expected = "slot 4 out of bounds 0..4")]
    fn set_slot_past_slot_count_panics() {
        let mut h = heap();
        let arr = h.alloc_array(4).unwrap();
        h.get_mut(arr).set_slot(4, Value::I64(1));
    }

    #[test]
    #[should_panic(expected = "slot 1 out of bounds 0..1")]
    fn slot_past_a_written_payload_panics() {
        let mut h = heap();
        let obj = h.alloc_data(ClassId(0), 1).unwrap();
        h.get_mut(obj).set_slot(0, Value::I64(1));
        h.get(obj).slot(1);
    }

    #[test]
    fn range_of_covers_byte_size() {
        let mut h = heap();
        let c = h.alloc_code(MethodId(0), 100).unwrap();
        let (s, e) = h.range_of(c);
        assert_eq!(e - s, align_up(HEADER_BYTES + 100));
    }
}

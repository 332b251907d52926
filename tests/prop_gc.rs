//! Property tests of the garbage collector: data integrity across
//! collections, address-space discipline, copying/non-moving
//! equivalence, and payloads materialized at first write against an
//! eager model.

mod support;

use support::{check, Gen};
use viprof_repro::sim_jvm::{ClassId, GcMode, Heap, MatureConfig, ObjRef, Value};

/// Build a random object forest: each object may point at up to two
/// earlier objects and carries a distinctive integer payload.
#[derive(Debug, Clone)]
struct Spec {
    payload: i64,
    link_a: Option<usize>,
    link_b: Option<usize>,
    rooted: bool,
}

fn arb_specs(g: &mut Gen) -> Vec<Spec> {
    let n = g.range(1usize..64);
    (0..n)
        .map(|i| {
            let (payload, rooted) = (g.i64(), g.bool());
            let (a, b, la, lb) = (g.range(0usize..64), g.range(0usize..64), g.bool(), g.bool());
            Spec {
                payload,
                link_a: (la && i > 0).then(|| a % i),
                link_b: (lb && i > 0).then(|| b % i),
                rooted,
            }
        })
        .collect()
}

fn build_heap(specs: &[Spec], mode: GcMode) -> (Heap, Vec<ObjRef>, Vec<ObjRef>) {
    let region = (0x6000_0000u64, 0x6000_0000 + 512 * 1024);
    let mut heap = match mode {
        GcMode::Copying => Heap::with_mature(
            region,
            MatureConfig {
                promote_after: 2,
                fraction: 0.25,
            },
        ),
        GcMode::NonMoving => Heap::non_moving(region),
    };
    let mut objs = Vec::with_capacity(specs.len());
    let mut roots = Vec::new();
    for s in specs {
        let r = heap.alloc_data(ClassId(0), 3).expect("fits");
        heap.get_mut(r).set_slot(0, Value::I64(s.payload));
        if let Some(a) = s.link_a {
            let target: ObjRef = objs[a];
            heap.get_mut(r).set_slot(1, Value::Ref(Some(target)));
        }
        if let Some(b) = s.link_b {
            let target: ObjRef = objs[b];
            heap.get_mut(r).set_slot(2, Value::Ref(Some(target)));
        }
        if s.rooted {
            roots.push(r);
        }
        objs.push(r);
    }
    (heap, objs, roots)
}

/// Oracle reachability over the spec graph.
fn reachable(specs: &[Spec]) -> Vec<bool> {
    let mut live = vec![false; specs.len()];
    let mut work: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.rooted)
        .map(|(i, _)| i)
        .collect();
    while let Some(i) = work.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        for l in [specs[i].link_a, specs[i].link_b].into_iter().flatten() {
            work.push(l);
        }
    }
    live
}

fn check_after_gcs(specs: &[Spec], mode: GcMode, gcs: usize) {
    let (mut heap, objs, roots) = build_heap(specs, mode);
    for _ in 0..gcs {
        heap.collect(&roots, &[], |_| {});
    }
    let live = reachable(specs);
    for (i, s) in specs.iter().enumerate() {
        assert_eq!(
            heap.is_live(objs[i]),
            live[i],
            "object {i} liveness (mode {mode:?})"
        );
        if live[i] {
            let obj = heap.get(objs[i]);
            assert_eq!(obj.slot(0), Value::I64(s.payload), "payload of {i}");
            // Links still point at the intended (live) targets.
            if let Some(a) = s.link_a {
                assert_eq!(obj.slot(1), Value::Ref(Some(objs[a])));
            }
            if let Some(b) = s.link_b {
                assert_eq!(obj.slot(2), Value::Ref(Some(objs[b])));
            }
        }
    }
    // Live objects never overlap in the address space.
    let mut extents: Vec<(u64, u64)> = (0..specs.len())
        .filter(|i| live[*i])
        .map(|i| heap.range_of(objs[i]))
        .collect();
    extents.sort_unstable();
    for w in extents.windows(2) {
        assert!(w[0].1 <= w[1].0, "live objects overlap: {w:?}");
    }
}

#[test]
fn copying_gc_preserves_graphs_and_never_overlaps() {
    check(
        "copying_gc_preserves_graphs_and_never_overlaps",
        128,
        |g| (arb_specs(g), g.range(1usize..6)),
        |(specs, gcs)| {
            check_after_gcs(&specs, GcMode::Copying, gcs);
        },
    );
}

#[test]
fn non_moving_gc_preserves_graphs_and_never_overlaps() {
    check(
        "non_moving_gc_preserves_graphs_and_never_overlaps",
        128,
        |g| (arb_specs(g), g.range(1usize..6)),
        |(specs, gcs)| {
            check_after_gcs(&specs, GcMode::NonMoving, gcs);
        },
    );
}

#[test]
fn non_moving_addresses_are_stable() {
    check("non_moving_addresses_are_stable", 128, arb_specs, |specs| {
        let (mut heap, objs, roots) = build_heap(&specs, GcMode::NonMoving);
        let before: Vec<Option<u64>> = objs
            .iter()
            .map(|r| heap.is_live(*r).then(|| heap.addr_of(*r)))
            .collect();
        heap.collect(&roots, &[], |_| {});
        heap.collect(&roots, &[], |_| {});
        for (i, r) in objs.iter().enumerate() {
            if heap.is_live(*r) {
                assert_eq!(Some(heap.addr_of(*r)), before[i]);
            }
        }
    });
}

#[test]
fn both_collectors_agree_on_liveness() {
    check(
        "both_collectors_agree_on_liveness",
        128,
        |g| (arb_specs(g), g.range(1usize..4)),
        |(specs, gcs)| {
            let (mut copy_heap, copy_objs, copy_roots) = build_heap(&specs, GcMode::Copying);
            let (mut ms_heap, ms_objs, ms_roots) = build_heap(&specs, GcMode::NonMoving);
            for _ in 0..gcs {
                copy_heap.collect(&copy_roots, &[], |_| {});
                ms_heap.collect(&ms_roots, &[], |_| {});
            }
            for i in 0..specs.len() {
                assert_eq!(
                    copy_heap.is_live(copy_objs[i]),
                    ms_heap.is_live(ms_objs[i]),
                    "object {} liveness diverges between collectors",
                    i
                );
            }
        },
    );
}

/// One step of a random heap history. Object and slot choices are raw
/// draws, taken modulo what exists when the step runs.
#[derive(Debug, Clone)]
enum Step {
    AllocData { slots: usize, rooted: bool },
    /// Mostly retained-cache-sized arrays that nothing ever writes.
    AllocArray { len: usize, rooted: bool },
    /// `fresh` aims the write at a never-written object when one exists.
    WriteInt { obj: usize, slot: usize, value: i64, fresh: bool },
    WriteRef { obj: usize, slot: usize, target: Option<usize>, fresh: bool },
    Read { obj: usize, slot: usize },
    Unroot { obj: usize },
    Collect,
}

fn arb_history(g: &mut Gen) -> Vec<Step> {
    g.vec(1..96, |g| {
        let (obj, slot) = (g.range(0usize..1 << 16), g.range(0usize..1 << 16));
        match g.range(0u32..16) {
            0..=1 => Step::AllocData { slots: g.range(0usize..6), rooted: g.bool() },
            2..=3 => {
                let len = if g.bool() { 512 } else { g.range(0usize..80) };
                Step::AllocArray { len, rooted: g.bool() }
            }
            4..=6 => Step::WriteInt { obj, slot, value: g.i64(), fresh: g.bool() },
            7..=9 => {
                let target = g.option(|g| g.range(0usize..1 << 16));
                Step::WriteRef { obj, slot, target, fresh: g.bool() }
            }
            10..=12 => Step::Read { obj, slot },
            13 => Step::Unroot { obj },
            _ => Step::Collect,
        }
    })
}

/// A model slot: an integer, or a reference to a model object by index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelValue {
    Int(i64),
    Ref(Option<usize>),
}

/// A model object: an eager payload, written or not.
struct ModelObj {
    handle: ObjRef,
    slots: Vec<ModelValue>,
    bytes: u64,
    rooted: bool,
    written: bool,
}

/// Run `history` on `heap` beside an eager `Vec` model: every
/// read must equal the model's, and after every collection liveness
/// must equal the model's reachability, with the live counts and bytes
/// its sums.
fn run_against_model(history: &[Step], mut heap: Heap) {
    let mut model: Vec<Option<ModelObj>> = Vec::new();
    let value_of = |model: &[Option<ModelObj>], v: ModelValue| match v {
        ModelValue::Int(x) => Value::I64(x),
        ModelValue::Ref(r) => Value::Ref(r.map(|i| model[i].as_ref().expect("live target").handle)),
    };
    for (at, step) in history.iter().enumerate() {
        let live: Vec<usize> = (0..model.len()).filter(|i| model[*i].is_some()).collect();
        // Pick a live object with at least one slot; with `fresh`, a
        // never-written one first.
        let pick = |model: &[Option<ModelObj>], obj: usize, fresh: bool| {
            let with_slots = |i: &&usize| !model[**i].as_ref().unwrap().slots.is_empty();
            let candidates: Vec<usize> = live.iter().filter(with_slots).copied().collect();
            let unwritten: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|i| !model[*i].as_ref().unwrap().written)
                .collect();
            let pool = if fresh && !unwritten.is_empty() { unwritten } else { candidates };
            (!pool.is_empty()).then(|| pool[obj % pool.len()])
        };
        match *step {
            Step::AllocData { slots, rooted } | Step::AllocArray { len: slots, rooted } => {
                let r = match step {
                    Step::AllocData { .. } => heap.alloc_data(ClassId(0), slots),
                    _ => heap.alloc_array(slots),
                };
                // A full heap refuses the allocation; the model skips it.
                if let Ok(handle) = r {
                    let obj = heap.get(handle);
                    assert_eq!(obj.slot_count(), slots, "step {at}");
                    assert_eq!(obj.byte_size, (16 + 8 * slots as u64).div_ceil(16) * 16);
                    model.push(Some(ModelObj {
                        handle,
                        slots: vec![ModelValue::Int(0); slots],
                        bytes: obj.byte_size,
                        rooted,
                        written: false,
                    }));
                }
            }
            Step::WriteInt { obj, slot, value, fresh } => {
                if let Some(i) = pick(&model, obj, fresh) {
                    let m = model[i].as_mut().unwrap();
                    let s = slot % m.slots.len();
                    m.slots[s] = ModelValue::Int(value);
                    m.written = true;
                    heap.get_mut(m.handle).set_slot(s, Value::I64(value));
                }
            }
            Step::WriteRef { obj, slot, target, fresh } => {
                if let Some(i) = pick(&model, obj, fresh) {
                    let t = target.filter(|_| !live.is_empty()).map(|t| live[t % live.len()]);
                    let v = ModelValue::Ref(t);
                    let written = value_of(&model, v);
                    let m = model[i].as_mut().unwrap();
                    let s = slot % m.slots.len();
                    m.slots[s] = v;
                    m.written = true;
                    heap.get_mut(m.handle).set_slot(s, written);
                }
            }
            Step::Read { obj, slot } => {
                if let Some(i) = pick(&model, obj, false) {
                    let m = model[i].as_ref().unwrap();
                    let s = slot % m.slots.len();
                    let want = value_of(&model, m.slots[s]);
                    assert_eq!(heap.get(m.handle).slot(s), want, "step {at}: read of slot {s}");
                }
            }
            Step::Unroot { obj } => {
                if !live.is_empty() {
                    model[live[obj % live.len()]].as_mut().unwrap().rooted = false;
                }
            }
            Step::Collect => {
                // Model reachability from the rooted objects.
                let mut reached = vec![false; model.len()];
                let mut work: Vec<usize> =
                    live.iter().copied().filter(|i| model[*i].as_ref().unwrap().rooted).collect();
                while let Some(i) = work.pop() {
                    if std::mem::replace(&mut reached[i], true) {
                        continue;
                    }
                    for v in &model[i].as_ref().unwrap().slots {
                        if let ModelValue::Ref(Some(t)) = v {
                            work.push(*t);
                        }
                    }
                }
                let roots: Vec<ObjRef> = live
                    .iter()
                    .map(|i| model[*i].as_ref().unwrap())
                    .filter(|m| m.rooted)
                    .map(|m| m.handle)
                    .collect();
                let stats = heap.collect(&roots, &[], |_| {});
                let (mut objects, mut bytes) = (0u64, 0u64);
                for &i in &live {
                    let m = model[i].as_ref().unwrap();
                    assert_eq!(heap.is_live(m.handle), reached[i], "step {at}: liveness of object {i}");
                    if reached[i] {
                        objects += 1;
                        bytes += m.bytes;
                    } else {
                        model[i] = None;
                    }
                }
                assert_eq!(stats.live_objects, objects, "step {at}: live_objects");
                assert_eq!(stats.live_bytes, bytes, "step {at}: live_bytes");
                assert_eq!(stats.freed_objects, live.len() as u64 - objects, "step {at}");
                // Every slot of every survivor still reads as the model's.
                for m in model.iter().flatten() {
                    let obj = heap.get(m.handle);
                    for (s, v) in m.slots.iter().enumerate() {
                        assert_eq!(obj.slot(s), value_of(&model, *v), "step {at}: slot {s}");
                    }
                }
            }
        }
    }
}

fn differential_heaps() -> [Heap; 3] {
    let region = (0x6000_0000u64, 0x6000_0000 + 1024 * 1024);
    let mature = MatureConfig {
        promote_after: 2,
        fraction: 0.25,
    };
    [
        Heap::new(region),
        Heap::with_mature(region, mature),
        Heap::non_moving(region),
    ]
}

#[test]
fn lazy_payload_heaps_match_an_eager_model() {
    check("lazy_payload_heaps_match_an_eager_model", 128, arb_history, |history| {
        for heap in differential_heaps() {
            run_against_model(&history, heap);
        }
    });
}

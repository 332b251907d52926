//! The vertically integrated report — the paper's Figure 1 (upper
//! half): VM-internal methods (`RVM.map`), JIT'd application methods
//! (`JIT.App`), native libraries and kernel symbols, side by side with
//! per-event percentage columns.
//!
//! This module is the *test oracle*: the paper's post-processing as
//! written (§3.2) — per-bucket backward epoch walks over the loaded
//! maps, `String` labels, one thread. Production post-processing goes
//! through [`crate::engine::ResolutionEngine::resolve`], which must
//! produce bit-identical rows and quality (enforced by the engine
//! tests, the fault-matrix suite and `tests/prop_resolve_flat.rs`).

use crate::resolve::{ResolutionQuality, ViprofResolver};
use oprofile::report::{aggregate, bucket_label, Report, ReportOptions};
use oprofile::{SampleBucket, SampleDb, SampleOrigin};
use sim_cpu::ProcKey;
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL};
use sim_os::Kernel;
use std::collections::HashSet;

/// Produce the merged VIProf report from a sample database (reference
/// single-threaded walk).
pub fn viprof_report(
    db: &SampleDb,
    kernel: &Kernel,
    resolver: &ViprofResolver,
    options: &ReportOptions,
) -> Report {
    aggregate(db, options, |bucket| label(resolver, bucket, kernel))
}

/// Label one bucket by walking the loaded maps: (image column, symbol
/// column).
pub fn label(
    resolver: &ViprofResolver,
    bucket: &SampleBucket,
    kernel: &Kernel,
) -> (String, String) {
    match bucket.origin {
        // VM boot image: resolve through RVM.map; the paper prints
        // these rows under image name `RVM.map`.
        SampleOrigin::Image(id) if Some(id) == resolver.boot_image_id() => {
            match resolver.bootmap().resolve(bucket.addr) {
                Some(m) => (RVM_MAP_IMAGE_LABEL.to_string(), m.name.clone()),
                None => (BOOT_IMAGE_NAME.to_string(), "(no symbols)".to_string()),
            }
        }
        // Registered-heap samples: epoch-chained code-map search
        // against the *stamped incarnation's* maps only, with the
        // forward-salvage fallback for damaged chains. A sample whose
        // generation has no maps stays unresolved even if a different
        // incarnation of the pid has maps — attribution never crosses
        // an incarnation boundary.
        SampleOrigin::JitApp { pid, gen } => {
            let resolved = resolver
                .codemaps(ProcKey::new(pid, gen))
                .and_then(|set| set.resolve_salvage(bucket.addr, bucket.epoch));
            match resolved {
                Some((signature, _)) => ("JIT.App".to_string(), signature.to_string()),
                None => ("JIT.App".to_string(), "(unresolved jit)".to_string()),
            }
        }
        _ => bucket_label(bucket, kernel),
    }
}

/// Classify every sample in `db` into the quality report by walking the
/// loaded maps: the same lookups [`label`] performs, aggregated —
/// resolved / stale-epoch fallback / unresolved / blocked, plus the
/// load-time damage counters.
pub fn quality(resolver: &ViprofResolver, db: &SampleDb) -> ResolutionQuality {
    let mut q = ResolutionQuality {
        dropped: db.dropped,
        evicted: db.evicted,
        failed_pids: resolver.failed_pids().len() as u64,
        ..ResolutionQuality::default()
    };
    for (_, set) in resolver.sets() {
        q.quarantined_lines += set.quarantined_lines;
        q.skipped_map_files += set.skipped_files;
        q.missing_epochs += set.missing_epochs();
    }
    // Pids with at least one loaded incarnation: the lookup behind
    // cross-incarnation blocking.
    let pids_with_maps: HashSet<u32> = resolver.sets().map(|(key, _)| key.pid.0).collect();
    for (bucket, count) in db.iter() {
        match bucket.origin {
            SampleOrigin::JitApp { pid, gen } => match resolver.codemaps(ProcKey::new(pid, gen)) {
                Some(set) => match set.resolve_salvage(bucket.addr, bucket.epoch) {
                    Some((_, false)) => q.resolved += count,
                    Some((_, true)) => q.stale_epoch += count,
                    None => q.unresolved += count,
                },
                // No maps for this incarnation. If another incarnation
                // of the pid has maps, the only reason these samples are
                // unattributed is the isolation invariant — count them
                // as blocked, not merely unresolved.
                None if pids_with_maps.contains(&pid.0) => q.cross_incarnation_blocked += count,
                None => q.unresolved += count,
            },
            // Image-backed samples always attribute to at least the
            // image, boot-image ones through RVM.map.
            SampleOrigin::Image(_) => q.resolved += count,
            // Anon ranges and unknown PCs carry no symbol information
            // by definition.
            SampleOrigin::Anon { .. } | SampleOrigin::Unknown => q.unresolved += count,
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{map_path, render_map, CodeMapEntry};
    use sim_cpu::HwEvent;
    use sim_jvm::bootimage::well_known;
    use sim_jvm::BootImage;

    #[test]
    fn figure1_shape_rvm_jit_and_libc_rows_coexist() {
        let mut k = Kernel::new();
        let pid = k.spawn("jikesrvm");
        let mut boot = BootImage::jikes_standard();
        boot.install(&mut k, pid, 0x0900_0000);
        let libc = k.images.insert(
            sim_os::Image::new("libc-2.3.2.so", 0x4000)
                .with_symbols([sim_os::Symbol::new("memset", 0x1000, 0x400)]),
        );
        k.vfs.write(
            map_path(pid, 0),
            render_map(&[CodeMapEntry {
                addr: 0x6400_0040,
                size: 0x100,
                level: "O2".into(),
                signature: "dacapo.ps.Scanner.parseLine".into(),
            }])
            .into_bytes(),
        );

        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = SampleDb::new();
        let mut add = |origin, addr, event, n| {
            db.add(
                SampleBucket {
                    origin,
                    event,
                    addr,
                    epoch: 0,
                },
                n,
            )
        };
        // VM-internal time (interpreter method at offset 0).
        add(SampleOrigin::Image(boot_id), 0x10, HwEvent::Cycles, 30);
        // JIT'd app method.
        add(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, HwEvent::Cycles, 50);
        add(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, HwEvent::L2Miss, 5);
        // Native memset with heavy misses (the paper's top Dmiss row).
        add(SampleOrigin::Image(libc), 0x1100, HwEvent::Cycles, 20);
        add(SampleOrigin::Image(libc), 0x1100, HwEvent::L2Miss, 15);

        let resolver = ViprofResolver::load_with(&k, crate::resolve::ResolveOptions::default())
            .unwrap()
            .0;
        let r = viprof_report(&db, &k, &resolver, &ReportOptions::default());

        let jit = r.find("JIT.App", "dacapo.ps.Scanner.parseLine").unwrap();
        assert_eq!(jit.counts, vec![50, 5]);
        let vm = r.find("RVM.map", well_known::INTERPRET).unwrap();
        assert_eq!(vm.counts, vec![30, 0]);
        let memset = r.find("libc-2.3.2.so", "memset").unwrap();
        assert!((memset.percents[1] - 75.0).abs() < 1e-9, "Dmiss-dominant");
        // Figure-1 text shape.
        let text = r.render_text();
        assert!(text.contains("Time %"));
        assert!(text.contains("Dmiss %"));
        assert!(text.contains("RVM.map"));
        assert!(text.contains("JIT.App"));
        assert!(text.contains("memset"));
    }
}

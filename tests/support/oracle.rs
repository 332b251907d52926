//! The differential oracle for post-processing: the paper's procedure
//! as written (§3.2). Each bucket is resolved against its own epoch's
//! map, walking backwards through earlier maps, with `String` labels,
//! on one thread. Production resolution goes through
//! `ResolutionEngine::resolve` (and `Viprof::make_report`, which loads
//! and calls it), and must produce bit-identical rows and quality.
//!
//! Only the map loading is shared with production
//! (`ViprofResolver::load_with`). The oracle finds the boot image and
//! the incarnations on its own: the image by name in the kernel's
//! image table, the incarnations by listing `JIT_MAP_DIR`.

use std::collections::HashSet;
use viprof_repro::oprofile::report::{aggregate, bucket_label, Report, ReportOptions};
use viprof_repro::oprofile::{SampleBucket, SampleDb, SampleOrigin};
use viprof_repro::sim_cpu::{Addr, Pid, ProcKey};
use viprof_repro::sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL};
use viprof_repro::sim_os::Kernel;
use viprof_repro::viprof::{CodeMapSet, ResolutionQuality, ViprofResolver, JIT_MAP_DIR};

/// The merged VIProf report of `db`, every bucket labelled by
/// [`label`].
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
        SampleOrigin::Image(id) if Some(id) == kernel.images.find_by_name(BOOT_IMAGE_NAME) => {
            match resolver.bootmap().resolve(bucket.addr) {
                Some(m) => (RVM_MAP_IMAGE_LABEL.to_string(), m.name.clone()),
                None => (BOOT_IMAGE_NAME.to_string(), "(no symbols)".to_string()),
            }
        }
        // Registered-heap samples: epoch-chained code-map search
        // against the *stamped incarnation's* maps only, with the
        // forward-salvage fallback for damaged chains. A sample whose
        // generation has no maps stays unresolved even if a different
        // incarnation of the pid has maps: attribution never crosses
        // an incarnation boundary.
        SampleOrigin::JitApp { pid, gen } => {
            let resolved = resolver
                .codemaps(ProcKey::new(pid, gen))
                .and_then(|set| resolve_salvage(set, bucket.addr, bucket.epoch));
            match resolved {
                Some((signature, _)) => ("JIT.App".to_string(), signature.to_string()),
                None => ("JIT.App".to_string(), "(unresolved jit)".to_string()),
            }
        }
        _ => bucket_label(bucket, kernel),
    }
}

/// Classify every sample in `db` by walking the loaded maps: the same
/// lookups [`label`] performs, aggregated into resolved, stale-epoch,
/// unresolved and blocked, plus the load-time damage counters of every
/// incarnation `kernel`'s map directory lists.
pub fn quality(resolver: &ViprofResolver, kernel: &Kernel, db: &SampleDb) -> ResolutionQuality {
    let mut q = ResolutionQuality {
        dropped: db.dropped,
        evicted: db.evicted,
        failed_pids: resolver.failed_pids().len() as u64,
        ..ResolutionQuality::default()
    };
    let loaded: Vec<(ProcKey, &CodeMapSet)> = incarnations(kernel)
        .into_iter()
        .filter_map(|key| Some((key, resolver.codemaps(key)?)))
        .collect();
    for (_, set) in &loaded {
        q.quarantined_lines += set.quarantined_lines;
        q.skipped_map_files += set.skipped_files;
        q.missing_epochs += set.missing_epochs();
    }
    // Pids with at least one loaded incarnation: the lookup behind
    // cross-incarnation blocking.
    let pids_with_maps: HashSet<u32> = loaded.iter().map(|(key, _)| key.pid.0).collect();
    for (bucket, count) in db.iter() {
        match bucket.origin {
            SampleOrigin::JitApp { pid, gen } => match resolver.codemaps(ProcKey::new(pid, gen)) {
                Some(set) => match resolve_salvage(set, bucket.addr, bucket.epoch) {
                    Some((_, false)) => q.resolved += count,
                    Some((_, true)) => q.stale_epoch += count,
                    None => q.unresolved += count,
                },
                // No maps for this incarnation. If another incarnation
                // of the pid has maps, the only reason these samples are
                // unattributed is the isolation invariant: count them
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

/// Salvage resolution for damaged chains: the paper's backward walk
/// (search the sample's epoch map, then earlier ones) first; on a miss,
/// search *forward* through later epochs. A forward hit is
/// second-class: the body provably occupied the address at some
/// *later* time, so the attribution may be stale. Returns the
/// signature and whether it came from the stale (forward) path.
pub fn resolve_salvage(set: &CodeMapSet, pc: Addr, epoch: u64) -> Option<(&str, bool)> {
    let maps = set.maps();
    let start = maps.partition_point(|m| m.epoch <= epoch);
    let (hit, stale) = match maps[..start].iter().rev().find_map(|m| m.resolve(pc)) {
        Some(e) => (e, false),
        None => (maps[start..].iter().find_map(|m| m.resolve(pc))?, true),
    };
    Some((set.symbols().name(hit.signature), stale))
}

/// Every incarnation with a directory under `JIT_MAP_DIR`
/// (`<pid>/<gen>/…`), sorted, each once.
fn incarnations(kernel: &Kernel) -> Vec<ProcKey> {
    let prefix = format!("{JIT_MAP_DIR}/");
    let mut keys: Vec<ProcKey> = kernel
        .vfs
        .list(&prefix)
        .iter()
        .filter_map(|path| {
            let mut parts = path[prefix.len()..].split('/');
            let pid = parts.next()?.parse().ok()?;
            let gen = parts.next()?.parse().ok()?;
            Some(ProcKey::new(Pid(pid), gen))
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

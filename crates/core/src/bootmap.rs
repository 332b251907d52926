//! Boot-image map reading (`RVM.map`).
//!
//! Paper §3.2: Jikes RVM is written mostly in Java, so OProfile cannot
//! profile the VM itself — but "the build mechanism for Jikes RVM
//! produces a static image (in a Jikes internal format) and an
//! associated map. We modify the OProfile post processing tool to read
//! in the Jikes RVM internal map and use it to process samples
//! associated with the VM component of the execution."

use crate::error::ViprofError;
use sim_jvm::bootimage::{parse_map, BootMethod, RVM_MAP_PATH};
use sim_os::Vfs;

/// Loaded boot-image method map, indexed for offset lookup.
#[derive(Debug, Clone, Default)]
pub struct BootMap {
    /// Sorted by offset.
    methods: Vec<BootMethod>,
}

impl BootMap {
    pub fn new(mut methods: Vec<BootMethod>) -> Self {
        methods.sort_by_key(|m| m.offset);
        BootMap { methods }
    }

    /// Load `RVM.map` from the VFS (absent file → empty map; the
    /// post-processor then degrades to OProfile behaviour).
    pub fn load(vfs: &Vfs) -> Result<BootMap, ViprofError> {
        match vfs.read(RVM_MAP_PATH) {
            None => Ok(BootMap::default()),
            Some(raw) => {
                let text = std::str::from_utf8(raw).map_err(|e| ViprofError::Corrupt {
                    path: RVM_MAP_PATH.to_string(),
                    detail: format!("not UTF-8: {e}"),
                })?;
                let methods = parse_map(text).map_err(|detail| ViprofError::Corrupt {
                    path: RVM_MAP_PATH.to_string(),
                    detail,
                })?;
                Ok(BootMap::new(methods))
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// The loaded methods, sorted by offset — the flattening input for
    /// [`crate::engine::ResolutionEngine`].
    pub fn methods(&self) -> &[BootMethod] {
        &self.methods
    }

    /// Resolve an offset *within the boot image* to a VM method.
    pub fn resolve(&self, offset: u64) -> Option<&BootMethod> {
        let pos = self.methods.partition_point(|m| m.offset <= offset);
        if pos == 0 {
            return None;
        }
        let cand = &self.methods[pos - 1];
        (offset < cand.offset.saturating_add(cand.size)).then_some(cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use sim_jvm::BootImage;
    use sim_os::Kernel;

    #[test]
    fn load_resolves_installed_boot_image() {
        let mut k = Kernel::new();
        let pid = k.spawn("jikesrvm");
        let mut boot = BootImage::jikes_standard();
        boot.install(&mut k, pid, 0x0900_0000);
        let map = BootMap::load(&k.vfs).unwrap();
        assert_eq!(map.len(), boot.methods().len());
        // First method starts at offset 0.
        let m = map.resolve(0x10).unwrap();
        assert_eq!(m.name, sim_jvm::bootimage::well_known::INTERPRET);
        // Past the end: none.
        assert!(map.resolve(boot.total_size()).is_none());
    }

    #[test]
    fn missing_map_degrades_to_empty() {
        let vfs = Vfs::new();
        let map = BootMap::load(&vfs).unwrap();
        assert!(map.is_empty());
        assert!(map.resolve(0).is_none());
    }

    #[test]
    fn resolve_respects_method_bounds() {
        let map = BootMap::new(vec![
            BootMethod {
                name: "a".into(),
                offset: 0x100,
                size: 0x100,
            },
            BootMethod {
                name: "b".into(),
                offset: 0x300,
                size: 0x100,
            },
        ]);
        assert!(map.resolve(0x0ff).is_none());
        assert_eq!(map.resolve(0x100).unwrap().name, "a");
        assert_eq!(map.resolve(0x1ff).unwrap().name, "a");
        assert!(map.resolve(0x200).is_none(), "gap between methods");
        assert_eq!(map.resolve(0x3ff).unwrap().name, "b");
    }
}

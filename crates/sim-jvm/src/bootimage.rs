//! The VM boot image and its method map (`RVM.map`).
//!
//! Jikes RVM is written in Java: its class loader, compilers and GC are
//! compiled ahead of time into a *boot image* that the OS maps like any
//! other file — but with no ELF symbol table, so stock OProfile can only
//! report `RVM.code.image (no symbols)` (paper Figure 1, lower half).
//! The build also produces an internal method map; VIProf's
//! post-processor reads it to attribute boot-image samples to VM-internal
//! methods (Figure 1, upper half). This module models both artifacts.
use sim_cpu::{Addr, Pid};
use sim_os::{Image, ImageId, Kernel, Loader};

/// Where the VM build drops its method map in the simulated VFS.
pub const RVM_MAP_PATH: &str = "/jikes/RVM.map";

/// OS-visible name of the boot image mapping.
pub const BOOT_IMAGE_NAME: &str = "RVM.code.image";

/// Name the *resolved* rows carry in VIProf reports (the paper prints
/// boot-image methods under the image name `RVM.map`).
pub const RVM_MAP_IMAGE_LABEL: &str = "RVM.map";

/// One VM-internal method in the boot image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootMethod {
    pub name: String,
    pub offset: u64,
    pub size: u64,
}

/// Well-known boot methods the simulated VM charges its internal work
/// to. Names follow Jikes RVM 2.4.4 (several appear verbatim in the
/// paper's Figure 1).
pub mod well_known {
    pub const INTERPRET: &str = "com.ibm.jikesrvm.VM_Runtime.interpretMethod";
    pub const BASELINE_COMPILE: &str =
        "com.ibm.jikesrvm.compilers.baseline.VM_BaselineCompiler.compile";
    pub const OPT_COMPILE: &str = "com.ibm.jikesrvm.opt.VM_OptimizingCompiler.compile";
    pub const GC_COLLECT: &str = "com.ibm.jikesrvm.mm.VM_CopyingCollector.collect";
    pub const ALLOC_SLOWPATH: &str = "com.ibm.jikesrvm.mm.VM_Allocator.allocSlowPath";
    pub const CLASSLOAD: &str = "com.ibm.jikesrvm.classloader.VM_ClassLoader.loadClass";
    pub const AOS_DECIDE: &str = "com.ibm.jikesrvm.adaptive.VM_Controller.recompileDecision";
    pub const MAIN_RUN: &str = "com.ibm.jikesrvm.MainThread.run";
    // Figure-1 decoration: sub-phases of compilation and GC that the
    // paper's sample profile surfaces individually.
    pub const OSR_PROLOGUE: &str =
        "com.ibm.jikesrvm.classloader.VM_NormalMethod.getOsrPrologueLength";
    pub const HAS_ARRAY_READ: &str = "com.ibm.jikesrvm.classloader.VM_NormalMethod.hasArrayRead";
    pub const CODE_PATCH_MAPS: &str =
        "com.ibm.jikesrvm.opt.VM_OptCompiledMethod.createCodePatchMaps";
    pub const MISSED_SPILLS: &str =
        "com.ibm.jikesrvm.opt.VM_OptGenericGCMapIterator.checkForMissedSpills";
    pub const FINALIZE_OSR: &str =
        "com.ibm.jikesrvm.classloader.VM_NormalMethod.finalizeOsrSpecialization";
    pub const MC_OFFSET: &str = "com.ibm.jikesrvm.opt.VM_OptMachineCodeMap.getMethodForMCOffset";
    pub const VECTOR_TRIM: &str = "java.util.Vector.trimToSize";
    /// VIProf's VM Agent library (hooked into the VM, so it lives in VM
    /// space); map writes are charged here + to kernel `sys_write`.
    pub const AGENT_MAPWRITE: &str = "com.ibm.jikesrvm.viprof.VM_Agent.writeCodeMap";
}

/// The boot image: method map + (once installed) its mapping address.
#[derive(Debug, Clone)]
pub struct BootImage {
    methods: Vec<BootMethod>,
    /// Set by [`BootImage::install`].
    image_id: Option<ImageId>,
    base: Option<Addr>,
}

impl BootImage {
    /// Build an image from (name, size) pairs laid out contiguously.
    pub fn from_methods<'a>(methods: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        let mut offset = 0u64;
        let methods = methods
            .into_iter()
            .map(|(name, size)| {
                let m = BootMethod {
                    name: name.to_string(),
                    offset,
                    size,
                };
                offset += size;
                m
            })
            .collect();
        BootImage {
            methods,
            image_id: None,
            base: None,
        }
    }

    /// The standard Jikes-RVM-shaped boot image used by every benchmark.
    pub fn jikes_standard() -> Self {
        use well_known::*;
        BootImage::from_methods([
            (INTERPRET, 0x4000),
            (BASELINE_COMPILE, 0x6000),
            (OPT_COMPILE, 0xa000),
            (GC_COLLECT, 0x5000),
            (ALLOC_SLOWPATH, 0x1000),
            (CLASSLOAD, 0x3000),
            (AOS_DECIDE, 0x0800),
            (MAIN_RUN, 0x0800),
            (OSR_PROLOGUE, 0x0400),
            (HAS_ARRAY_READ, 0x0400),
            (CODE_PATCH_MAPS, 0x0800),
            (MISSED_SPILLS, 0x0600),
            (FINALIZE_OSR, 0x0400),
            (MC_OFFSET, 0x0600),
            (VECTOR_TRIM, 0x0200),
            (AGENT_MAPWRITE, 0x0400),
        ])
    }

    pub fn methods(&self) -> &[BootMethod] {
        &self.methods
    }

    pub fn total_size(&self) -> u64 {
        self.methods.iter().map(|m| m.size).sum()
    }

    pub fn image_id(&self) -> Option<ImageId> {
        self.image_id
    }

    pub fn base(&self) -> Option<Addr> {
        self.base
    }

    /// Serialize the map in the Jikes-internal text format our
    /// post-processor understands: `hex-offset hex-size name`.
    pub fn render_map(&self) -> String {
        let mut s = String::with_capacity(self.methods.len() * 64);
        for m in &self.methods {
            s.push_str(&format!("{:08x} {:08x} {}\n", m.offset, m.size, m.name));
        }
        s
    }

    /// Map the boot image into `pid`'s address space (as the symbol-less
    /// `RVM.code.image`) and write `RVM.map` to the VFS. Returns the
    /// mapping base.
    pub fn install(&mut self, kernel: &mut Kernel, pid: Pid, hint: Addr) -> Addr {
        let id = match kernel.images.find_by_name(BOOT_IMAGE_NAME) {
            Some(id) => id,
            // Deliberately NO symbols: this is what stock OProfile sees.
            None => kernel
                .images
                .insert(Image::new(BOOT_IMAGE_NAME, self.total_size().max(1))),
        };
        let base = Loader::load_image(kernel, pid, id, hint);
        kernel.vfs.write(RVM_MAP_PATH, self.render_map().into_bytes());
        self.image_id = Some(id);
        self.base = Some(base);
        base
    }

    /// Absolute PC range of a boot method (panics if not installed or
    /// unknown — both are setup bugs).
    pub fn range(&self, name: &str) -> (Addr, Addr) {
        let base = self.base.expect("boot image not installed");
        let m = self
            .methods
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown boot method {name}"));
        (base + m.offset, base + m.offset + m.size)
    }
}

/// Parse a rendered `RVM.map` back into boot methods (used by VIProf's
/// post-processor; lives here so the format has a single owner).
pub fn parse_map(text: &str) -> Result<Vec<BootMethod>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let (Some(off), Some(size), Some(name)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("RVM.map line {}: malformed", lineno + 1));
        };
        let offset = u64::from_str_radix(off, 16)
            .map_err(|e| format!("RVM.map line {}: bad offset: {e}", lineno + 1))?;
        let size = u64::from_str_radix(size, 16)
            .map_err(|e| format!("RVM.map line {}: bad size: {e}", lineno + 1))?;
        out.push(BootMethod {
            name: name.to_string(),
            offset,
            size,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methods_are_laid_out_contiguously() {
        let b = BootImage::jikes_standard();
        let ms = b.methods();
        for w in ms.windows(2) {
            assert_eq!(w[0].offset + w[0].size, w[1].offset);
        }
        assert_eq!(b.total_size(), ms.last().unwrap().offset + ms.last().unwrap().size);
    }

    #[test]
    fn map_render_parse_round_trip() {
        let b = BootImage::jikes_standard();
        let parsed = parse_map(&b.render_map()).unwrap();
        assert_eq!(parsed, b.methods());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_map("zzzz 10 name").is_err());
        assert!(parse_map("10").is_err());
        // Comments and blanks are fine.
        assert_eq!(parse_map("# comment\n\n").unwrap().len(), 0);
    }

    #[test]
    fn install_maps_symbolless_image_and_writes_map() {
        let mut k = Kernel::new();
        let pid = k.spawn("jikesrvm");
        let mut b = BootImage::jikes_standard();
        let base = b.install(&mut k, pid, 0x0900_0000);
        // The OS-visible image has no symbols (OProfile's blind spot).
        let img = k.images.get(b.image_id().unwrap());
        assert_eq!(img.name, BOOT_IMAGE_NAME);
        assert!(img.symbols().is_empty());
        // The map file exists and parses.
        let raw = k.vfs.read(RVM_MAP_PATH).unwrap();
        let parsed = parse_map(std::str::from_utf8(raw).unwrap()).unwrap();
        assert_eq!(parsed.len(), b.methods().len());
        // Ranges are absolute.
        let (s, e) = b.range(well_known::INTERPRET);
        assert_eq!(s, base);
        assert_eq!(e - s, 0x4000);
    }

    #[test]
    fn resolve_offset_finds_covering_method() {
        let b = BootImage::jikes_standard();
        let covering = |offset: u64| {
            b.methods()
                .iter()
                .find(|m| offset >= m.offset && offset < m.offset + m.size)
        };
        assert_eq!(covering(0x4000 + 1).unwrap().name, well_known::BASELINE_COMPILE);
        assert!(covering(b.total_size()).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown boot method")]
    fn unknown_method_range_panics() {
        let mut k = Kernel::new();
        let pid = k.spawn("jvm");
        let mut b = BootImage::jikes_standard();
        b.install(&mut k, pid, 0x0900_0000);
        b.range("not.a.method");
    }
}

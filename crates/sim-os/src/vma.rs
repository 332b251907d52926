//! Virtual memory areas and per-process address spaces.
//!
//! OProfile classifies every sample by walking the interrupted process's
//! VMA list: a PC either falls in a region backed by a mapped image
//! (binary/library — resolvable to a symbol) or in an *anonymous*
//! region (JIT code heaps, malloc arenas). The anonymous case is
//! precisely where OProfile loses information and where VIProf's
//! registered-heap check takes over, so this module keeps the
//! image/anon distinction explicit.

use crate::image::ImageId;
use sim_cpu::Addr;
use viprof_telemetry::impl_to_json;
use viprof_telemetry::json::{get, Json, ToJson};

/// What backs a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaBacking {
    /// File-backed: PC−start+file_offset is an offset into the image.
    Image { image: ImageId, file_offset: u64 },
    /// Anonymous memory (heaps, JIT code). OProfile logs these as
    /// `anon (range:0x…-0x…)`.
    Anon,
}

/// One mapping in an address space. `start..end` is half-open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    pub start: Addr,
    pub end: Addr,
    pub backing: VmaBacking,
}

impl Vma {
    pub fn image(start: Addr, end: Addr, image: ImageId, file_offset: u64) -> Self {
        assert!(start < end, "empty VMA {start:#x}..{end:#x}");
        Vma {
            start,
            end,
            backing: VmaBacking::Image { image, file_offset },
        }
    }

    pub fn anon(start: Addr, end: Addr) -> Self {
        assert!(start < end, "empty VMA {start:#x}..{end:#x}");
        Vma {
            start,
            end,
            backing: VmaBacking::Anon,
        }
    }

    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Always false for a VMA built by [`Vma::image`] or [`Vma::anon`].
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn is_anon(&self) -> bool {
        matches!(self.backing, VmaBacking::Anon)
    }
}

/// A process's sorted, non-overlapping VMA list.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Sorted by `start`.
    vmas: Vec<Vma>,
}

/// Error returned when a mapping would overlap an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapError {
    pub existing: Vma,
}

impl std::fmt::Display for OverlapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mapping overlaps existing VMA {:#x}..{:#x}",
            self.existing.start, self.existing.end
        )
    }
}

impl std::error::Error for OverlapError {}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Insert a mapping; fails if it overlaps an existing VMA.
    pub fn map(&mut self, vma: Vma) -> Result<(), OverlapError> {
        let pos = self.vmas.partition_point(|v| v.start < vma.start);
        if pos > 0 {
            let prev = self.vmas[pos - 1];
            if prev.end > vma.start {
                return Err(OverlapError { existing: prev });
            }
        }
        if pos < self.vmas.len() {
            let next = self.vmas[pos];
            if vma.end > next.start {
                return Err(OverlapError { existing: next });
            }
        }
        self.vmas.insert(pos, vma);
        Ok(())
    }

    /// Binary-search the VMA containing `addr`.
    pub fn lookup(&self, addr: Addr) -> Option<&Vma> {
        let pos = self.vmas.partition_point(|v| v.start <= addr);
        if pos == 0 {
            return None;
        }
        let cand = &self.vmas[pos - 1];
        cand.contains(addr).then_some(cand)
    }

    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Base virtual address where `image` is mapped (the VMA covering
    /// the image's file offset 0), if present.
    pub fn image_base(&self, image: ImageId) -> Option<Addr> {
        self.vmas.iter().find_map(|v| match v.backing {
            VmaBacking::Image {
                image: id,
                file_offset,
            } if id == image => v.start.checked_sub(file_offset),
            _ => None,
        })
    }

    /// Lowest address at or above `hint` where `size` bytes fit without
    /// overlapping any mapping (used by the loader's bump allocation).
    pub fn find_free(&self, hint: Addr, size: u64) -> Addr {
        let mut candidate = hint;
        for v in &self.vmas {
            if v.end <= candidate {
                continue;
            }
            if v.start >= candidate && v.start - candidate >= size {
                break;
            }
            candidate = v.end;
        }
        candidate
    }
}

/// A `u32` field of an exported record.
pub(crate) fn u32_of(v: &Json, what: &str) -> Result<u32, String> {
    u32::try_from(v.as_num(what)?).map_err(|_| format!("{what}: out of range"))
}

/// The externally tagged enum layout: `"Anon"` or
/// `{"Image":{"image":…,"file_offset":…}}`.
impl ToJson for VmaBacking {
    fn to_json(&self) -> Json {
        match self {
            VmaBacking::Image { image, file_offset } => Json::obj([(
                "Image",
                Json::obj([("image", image.to_json()), ("file_offset", file_offset.to_json())]),
            )]),
            VmaBacking::Anon => "Anon".to_json(),
        }
    }
}

impl_to_json!(Vma { start, end, backing });
impl_to_json!(AddressSpace { vmas });

impl AddressSpace {
    /// Read back the form written by [`ToJson::to_json`]: `{"vmas":
    /// [{"start","end","backing"}]}`. Empty or overlapping mappings are
    /// rejected, as [`AddressSpace::map`] rejects them.
    pub fn from_json(v: &Json) -> Result<AddressSpace, String> {
        let mut space = AddressSpace::new();
        for vma in get(v.as_obj("address space")?, "vmas")?.as_arr("vmas")? {
            let o = vma.as_obj("vma")?;
            let backing = match get(o, "backing")? {
                Json::Str(s) if s == "Anon" => VmaBacking::Anon,
                b => {
                    let image = get(b.as_obj("backing")?, "Image")?.as_obj("Image")?;
                    VmaBacking::Image {
                        image: ImageId(u32_of(get(image, "image")?, "image")?),
                        file_offset: get(image, "file_offset")?.as_num("file_offset")?,
                    }
                }
            };
            let start = get(o, "start")?.as_num("start")?;
            let end = get(o, "end")?.as_num("end")?;
            if start >= end {
                return Err(format!("empty vma {start:#x}..{end:#x}"));
            }
            space.map(Vma { start, end, backing }).map_err(|e| e.to_string())?;
        }
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(id: u32) -> VmaBacking {
        VmaBacking::Image {
            image: ImageId(id),
            file_offset: 0,
        }
    }

    #[test]
    fn map_and_lookup() {
        let mut a = AddressSpace::new();
        a.map(Vma::image(0x1000, 0x2000, ImageId(1), 0)).unwrap();
        a.map(Vma::anon(0x8000, 0x9000)).unwrap();
        assert_eq!(a.lookup(0x1800).unwrap().backing, img(1));
        assert!(a.lookup(0x8000).unwrap().is_anon());
        assert!(a.lookup(0x0fff).is_none());
        assert!(a.lookup(0x2000).is_none(), "end is exclusive");
        assert!(a.lookup(0x7fff).is_none(), "gap between VMAs");
    }

    #[test]
    fn overlap_rejected_both_sides() {
        let mut a = AddressSpace::new();
        a.map(Vma::anon(0x1000, 0x2000)).unwrap();
        assert!(a.map(Vma::anon(0x1800, 0x2800)).is_err());
        assert!(a.map(Vma::anon(0x0800, 0x1001)).is_err());
        assert!(a.map(Vma::anon(0x1000, 0x2000)).is_err());
        // Adjacent is fine.
        assert!(a.map(Vma::anon(0x2000, 0x3000)).is_ok());
        assert!(a.map(Vma::anon(0x0800, 0x1000)).is_ok());
    }

    #[test]
    fn resolve_image_offset_applies_file_offset() {
        // The kernel resolves a user PC through the process's mapping,
        // adding the mapping's file offset.
        let mut k = crate::Kernel::new();
        let pid = k.spawn("app");
        let space = &mut k.process_mut(pid).unwrap().space;
        space.map(Vma::image(0x4000, 0x5000, ImageId(3), 0x200)).unwrap();
        space.map(Vma::anon(0x6000, 0x7000)).unwrap();
        let image_of = |pc| k.resolve_pc(pid, pc, sim_cpu::CpuMode::User).image;
        assert_eq!(image_of(0x4010), Some((ImageId(3), 0x210)));
        assert_eq!(image_of(0x6010), None);
    }

    #[test]
    fn find_free_skips_existing_mappings() {
        let mut a = AddressSpace::new();
        a.map(Vma::anon(0x1000, 0x2000)).unwrap();
        a.map(Vma::anon(0x3000, 0x4000)).unwrap();
        // Fits in the 0x2000..0x3000 gap.
        assert_eq!(a.find_free(0x0, 0x1000), 0x0);
        assert_eq!(a.find_free(0x1000, 0x1000), 0x2000);
        // Too big for the gap → lands after the last VMA.
        assert_eq!(a.find_free(0x1000, 0x1001), 0x4000);
    }

    #[test]
    fn mapping_keeps_sorted_order() {
        let mut a = AddressSpace::new();
        a.map(Vma::anon(0x9000, 0xA000)).unwrap();
        a.map(Vma::anon(0x1000, 0x2000)).unwrap();
        a.map(Vma::anon(0x5000, 0x6000)).unwrap();
        let starts: Vec<Addr> = a.vmas().iter().map(|v| v.start).collect();
        assert_eq!(starts, [0x1000, 0x5000, 0x9000]);
    }

    #[test]
    fn json_round_trips_and_rejects_overlap() {
        let mut a = AddressSpace::new();
        a.map(Vma::anon(0x5000, 0x6000)).unwrap();
        a.map(Vma::image(0x1000, 0x2000, ImageId(3), 0x40)).unwrap();
        let json = a.to_json().to_string();
        assert!(json.contains(r#""backing":"Anon""#), "{json}");
        assert!(json.contains(r#""backing":{"Image":{"image":3,"file_offset":64}}"#), "{json}");
        let back = AddressSpace::from_json(&viprof_telemetry::json::parse_json(&json).unwrap());
        assert_eq!(back.unwrap().vmas(), a.vmas());

        let overlap = r#"{"vmas":[{"start":0,"end":16,"backing":"Anon"},
                                  {"start":8,"end":32,"backing":"Anon"}]}"#;
        let overlap = viprof_telemetry::json::parse_json(overlap).unwrap();
        assert!(AddressSpace::from_json(&overlap).unwrap_err().contains("overlaps"));
    }
}

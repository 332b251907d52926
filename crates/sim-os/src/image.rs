//! Object-file images and their symbol tables.
//!
//! An [`Image`] stands in for an ELF binary or shared library: a named
//! text section of a given size plus a sorted symbol table. OProfile
//! resolves a sample by computing the PC's offset into the backing image
//! and binary-searching the symbol table — [`Image::resolve`] is that
//! operation. Images with an empty table report as `(no symbols)`,
//! exactly like the `libxul.so.0d` and `RVM.code.image` rows in the
//! paper's Figure 1.

use viprof_telemetry::impl_to_json;
use viprof_telemetry::json::{get, Json, ToJson};
/// Index into the global [`ImageTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub u32);

/// One function/method in an image's symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    pub name: String,
    /// Offset of the symbol's first byte within the image text.
    pub offset: u64,
    /// Size in bytes; `offset + size` is exclusive.
    pub size: u64,
}

impl Symbol {
    pub fn new(name: impl Into<String>, offset: u64, size: u64) -> Self {
        Symbol {
            name: name.into(),
            offset,
            size,
        }
    }

    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.offset && offset < self.offset + self.size
    }
}

/// An object file: named text region plus symbol table.
#[derive(Debug, Clone)]
pub struct Image {
    pub name: String,
    pub text_size: u64,
    /// Sorted by `offset`; non-overlapping (checked on insertion).
    symbols: Vec<Symbol>,
}

impl Image {
    pub fn new(name: impl Into<String>, text_size: u64) -> Self {
        Image {
            name: name.into(),
            text_size,
            symbols: Vec::new(),
        }
    }

    /// Add a symbol, keeping the table sorted. Panics on overlap or
    /// out-of-bounds — symbol tables come from our own builders, so a
    /// violation is a bug, not input error.
    pub fn add_symbol(&mut self, sym: Symbol) {
        assert!(
            sym.offset + sym.size <= self.text_size,
            "symbol {} [{:#x}+{:#x}] exceeds image {} text size {:#x}",
            sym.name,
            sym.offset,
            sym.size,
            self.name,
            self.text_size
        );
        let pos = self
            .symbols
            .partition_point(|s| s.offset < sym.offset);
        if pos > 0 {
            let prev = &self.symbols[pos - 1];
            assert!(
                prev.offset + prev.size <= sym.offset,
                "symbol {} overlaps {} in {}",
                sym.name,
                prev.name,
                self.name
            );
        }
        if pos < self.symbols.len() {
            let next = &self.symbols[pos];
            assert!(
                sym.offset + sym.size <= next.offset,
                "symbol {} overlaps {} in {}",
                sym.name,
                next.name,
                self.name
            );
        }
        self.symbols.insert(pos, sym);
    }

    /// Builder-style bulk construction.
    pub fn with_symbols(mut self, syms: impl IntoIterator<Item = Symbol>) -> Self {
        for s in syms {
            self.add_symbol(s);
        }
        self
    }

    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Binary-search the symbol covering `offset`.
    pub fn resolve(&self, offset: u64) -> Option<&Symbol> {
        let pos = self.symbols.partition_point(|s| s.offset <= offset);
        if pos == 0 {
            return None;
        }
        let cand = &self.symbols[pos - 1];
        cand.contains(offset).then_some(cand)
    }
}

/// Global table of every image known to the kernel.
#[derive(Debug, Clone, Default)]
pub struct ImageTable {
    images: Vec<Image>,
}

impl ImageTable {
    pub fn new() -> Self {
        ImageTable::default()
    }

    pub fn insert(&mut self, image: Image) -> ImageId {
        assert!(
            self.find_by_name(&image.name).is_none(),
            "duplicate image name {}",
            image.name
        );
        self.images.push(image);
        ImageId(self.images.len() as u32 - 1)
    }

    pub fn get(&self, id: ImageId) -> &Image {
        &self.images[id.0 as usize]
    }

    pub fn get_mut(&mut self, id: ImageId) -> &mut Image {
        &mut self.images[id.0 as usize]
    }

    pub fn find_by_name(&self, name: &str) -> Option<ImageId> {
        self.images
            .iter()
            .position(|i| i.name == name)
            .map(|p| ImageId(p as u32))
    }

    pub fn len(&self) -> usize {
        self.images.len()
    }

    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (ImageId, &Image)> {
        self.images
            .iter()
            .enumerate()
            .map(|(i, img)| (ImageId(i as u32), img))
    }
}

impl ToJson for ImageId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl_to_json!(Symbol { name, offset, size });
impl_to_json!(Image { name, text_size, symbols });
impl_to_json!(ImageTable { images });

impl ImageTable {
    /// Read back the session-export form written by
    /// [`ToJson::to_json`]: `{"images":[{"name","text_size","symbols":
    /// [{"name","offset","size"}]}]}`. Unknown keys are ignored. Symbol
    /// tables must be sorted, non-overlapping and inside the text, as
    /// [`Image::add_symbol`] keeps them.
    pub fn from_json(v: &Json) -> Result<ImageTable, String> {
        let mut images = Vec::new();
        for img in get(v.as_obj("image table")?, "images")?.as_arr("images")? {
            let o = img.as_obj("image")?;
            let mut image = Image::new(
                get(o, "name")?.as_str("name")?,
                get(o, "text_size")?.as_num("text_size")?,
            );
            let mut covered = 0;
            for sym in get(o, "symbols")?.as_arr("symbols")? {
                let s = sym.as_obj("symbol")?;
                let sym = Symbol::new(
                    get(s, "name")?.as_str("name")?,
                    get(s, "offset")?.as_num("offset")?,
                    get(s, "size")?.as_num("size")?,
                );
                match sym.offset.checked_add(sym.size) {
                    Some(end) if sym.offset >= covered && end <= image.text_size => covered = end,
                    _ => return Err(format!("{}: symbol {} out of place", image.name, sym.name)),
                }
                image.symbols.push(sym);
            }
            images.push(image);
        }
        Ok(ImageTable { images })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn libc() -> Image {
        Image::new("libc-2.3.2.so", 0x10000).with_symbols([
            Symbol::new("memset", 0x1000, 0x200),
            Symbol::new("memcpy", 0x1200, 0x300),
            Symbol::new("strlen", 0x2000, 0x100),
        ])
    }

    #[test]
    fn resolve_hits_within_symbol() {
        let img = libc();
        assert_eq!(img.resolve(0x1000).unwrap().name, "memset");
        assert_eq!(img.resolve(0x11ff).unwrap().name, "memset");
        assert_eq!(img.resolve(0x1200).unwrap().name, "memcpy");
        assert_eq!(img.resolve(0x20ff).unwrap().name, "strlen");
    }

    #[test]
    fn resolve_misses_in_gaps_and_before_first() {
        let img = libc();
        assert!(img.resolve(0x0).is_none());
        assert!(img.resolve(0x0fff).is_none());
        assert!(img.resolve(0x1500).is_none(), "gap between memcpy and strlen");
        assert!(img.resolve(0x2100).is_none(), "just past strlen");
    }

    #[test]
    fn out_of_order_insertion_keeps_table_sorted() {
        let mut img = Image::new("x", 0x1000);
        img.add_symbol(Symbol::new("c", 0x800, 0x10));
        img.add_symbol(Symbol::new("a", 0x100, 0x10));
        img.add_symbol(Symbol::new("b", 0x400, 0x10));
        let names: Vec<&str> = img.symbols().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_symbols_rejected() {
        let mut img = Image::new("x", 0x1000);
        img.add_symbol(Symbol::new("a", 0x100, 0x100));
        img.add_symbol(Symbol::new("b", 0x180, 0x10));
    }

    #[test]
    #[should_panic(expected = "exceeds image")]
    fn symbol_past_text_rejected() {
        let mut img = Image::new("x", 0x100);
        img.add_symbol(Symbol::new("a", 0x80, 0x100));
    }

    #[test]
    fn no_symbols_image_reports_none() {
        let img = Image::new("libxul.so.0d", 0x100000);
        assert!(img.symbols().is_empty());
        assert!(img.resolve(0x500).is_none());
    }

    #[test]
    fn table_intern_and_lookup() {
        let mut t = ImageTable::new();
        let a = t.insert(Image::new("vmlinux", 0x100000));
        let b = t.insert(libc());
        assert_ne!(a, b);
        assert_eq!(t.find_by_name("libc-2.3.2.so"), Some(b));
        assert_eq!(t.get(a).name, "vmlinux");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate image")]
    fn table_rejects_duplicate_names() {
        let mut t = ImageTable::new();
        t.insert(Image::new("x", 1));
        t.insert(Image::new("x", 2));
    }

    #[test]
    fn json_round_trips_and_rejects_misplaced_symbols() {
        let mut t = ImageTable::new();
        t.insert(libc());
        t.insert(Image::new("libxul.so.0d", 0x100000));
        let json = t.to_json().to_string();
        let parse = |text: &str| {
            ImageTable::from_json(&viprof_telemetry::json::parse_json(text).unwrap())
        };
        let back = parse(&json).unwrap();
        assert_eq!(back.to_json().to_string(), json);
        assert_eq!(back.get(ImageId(0)).resolve(0x1200).unwrap().name, "memcpy");

        let overlap = r#"{"images":[{"name":"x","text_size":256,"symbols":[
            {"name":"a","offset":0,"size":32},{"name":"b","offset":16,"size":8}]}]}"#;
        assert!(parse(overlap).unwrap_err().contains("symbol b out of place"));
        let past_text = r#"{"images":[{"name":"x","text_size":16,"symbols":[
            {"name":"a","offset":8,"size":18446744073709551615}]}]}"#;
        assert!(parse(past_text).is_err());
    }
}

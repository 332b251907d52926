//! In-memory virtual filesystem.
//!
//! Stands in for `/var/lib/oprofile/samples/…` and the directory where
//! VIProf's VM agent writes its epoch code maps. A `BTreeMap` keeps
//! listings sorted, which the epoch-chained post-processor relies on to
//! enumerate `jit-map.<pid>.<epoch>` files in epoch order.

use std::collections::BTreeMap;
use std::fmt;

/// Typed failure for in-place file mutations ([`Vfs::truncate`],
/// [`Vfs::patch`]). A fault injector that thinks it is tearing a file
/// but is actually aiming past the end deserves an error, not a silent
/// clamp that quietly weakens the fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The target file does not exist.
    NotFound { path: String },
    /// The requested range falls outside the file's current extent.
    OutOfRange {
        path: String,
        offset: usize,
        len: usize,
        file_len: usize,
    },
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound { path } => write!(f, "vfs: no such file: {path}"),
            VfsError::OutOfRange {
                path,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "vfs: range {offset}..{} out of bounds for {path} ({file_len} bytes)",
                offset + len
            ),
        }
    }
}

impl std::error::Error for VfsError {}

/// Flat, ordered, in-memory file store.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    files: BTreeMap<String, Vec<u8>>,
}

impl Vfs {
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Create or truncate a file with the given content.
    pub fn write(&mut self, path: impl Into<String>, data: impl Into<Vec<u8>>) {
        self.files.insert(path.into(), data.into());
    }

    /// Append to a file, creating it if absent. The path is copied into
    /// a key only when the file is new.
    pub fn append(&mut self, path: &str, data: &[u8]) {
        match self.files.get_mut(path) {
            Some(file) => file.extend_from_slice(data),
            None => {
                self.files.insert(path.to_string(), data.to_vec());
            }
        }
    }

    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|v| v.as_slice())
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    pub fn remove(&mut self, path: &str) -> Option<Vec<u8>> {
        self.files.remove(path)
    }

    /// Truncate a file to `len` bytes, returning how many bytes were
    /// removed. This is the "torn write" fault seam: a writer that died
    /// mid-`write(2)` leaves exactly such a prefix on disk. A `len`
    /// beyond the file's extent is an [`VfsError::OutOfRange`] — a torn
    /// write cannot make a file longer.
    pub fn truncate(&mut self, path: &str, len: usize) -> Result<usize, VfsError> {
        match self.files.get_mut(path) {
            Some(data) if len <= data.len() => {
                let removed = data.len() - len;
                data.truncate(len);
                Ok(removed)
            }
            Some(data) => Err(VfsError::OutOfRange {
                path: path.to_string(),
                offset: len,
                len: 0,
                file_len: data.len(),
            }),
            None => Err(VfsError::NotFound {
                path: path.to_string(),
            }),
        }
    }

    /// Overwrite bytes at `offset` in an existing file. The "bit rot /
    /// corrupt block" fault seam. The whole range must lie inside the
    /// file — patching past the end is [`VfsError::OutOfRange`], never
    /// a silent clip (bit rot flips bytes that exist; it does not
    /// extend files).
    pub fn patch(&mut self, path: &str, offset: usize, bytes: &[u8]) -> Result<(), VfsError> {
        match self.files.get_mut(path) {
            Some(data) => {
                let end = offset.checked_add(bytes.len());
                match end {
                    Some(end) if end <= data.len() => {
                        data[offset..end].copy_from_slice(bytes);
                        Ok(())
                    }
                    _ => Err(VfsError::OutOfRange {
                        path: path.to_string(),
                        offset,
                        len: bytes.len(),
                        file_len: data.len(),
                    }),
                }
            }
            None => Err(VfsError::NotFound {
                path: path.to_string(),
            }),
        }
    }

    /// All paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<&str> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Export every file to a real directory (simulated path separators
    /// become host separators). Lets post-processing tools run outside
    /// the simulation, like `opreport` runs after `opcontrol --stop`.
    pub fn export_to_dir(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        for (path, data) in &self.files {
            let rel = path.trim_start_matches('/');
            let host = dir.join(rel);
            if let Some(parent) = host.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(host, data)?;
        }
        Ok(self.files.len())
    }

    /// Import a directory tree exported by [`Vfs::export_to_dir`].
    pub fn import_from_dir(dir: &std::path::Path) -> std::io::Result<Vfs> {
        fn walk(base: &std::path::Path, dir: &std::path::Path, vfs: &mut Vfs) -> std::io::Result<()> {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    walk(base, &path, vfs)?;
                } else {
                    let rel = path
                        .strip_prefix(base)
                        .expect("walk stays under base")
                        .to_string_lossy()
                        .replace('\\', "/");
                    vfs.write(format!("/{rel}"), std::fs::read(&path)?);
                }
            }
            Ok(())
        }
        let mut vfs = Vfs::new();
        walk(dir, dir, &mut vfs)?;
        Ok(vfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut v = Vfs::new();
        v.write("/samples/a", b"hello".to_vec());
        assert_eq!(v.read("/samples/a"), Some(&b"hello"[..]));
        assert!(v.read("/samples/b").is_none());
    }

    #[test]
    fn write_truncates() {
        let mut v = Vfs::new();
        v.write("/f", b"long content".to_vec());
        v.write("/f", b"x".to_vec());
        assert_eq!(v.read("/f"), Some(&b"x"[..]));
    }

    #[test]
    fn append_creates_and_extends() {
        let mut v = Vfs::new();
        v.append("/log", b"ab");
        v.append("/log", b"cd");
        assert_eq!(v.read("/log"), Some(&b"abcd"[..]));
    }

    #[test]
    fn list_is_prefix_filtered_and_sorted() {
        let mut v = Vfs::new();
        v.write("/maps/jit-map.12.2", vec![]);
        v.write("/maps/jit-map.12.0", vec![]);
        v.write("/maps/jit-map.12.1", vec![]);
        v.write("/samples/x", vec![]);
        assert_eq!(
            v.list("/maps/"),
            vec![
                "/maps/jit-map.12.0",
                "/maps/jit-map.12.1",
                "/maps/jit-map.12.2"
            ]
        );
        assert_eq!(v.list("/nope/"), Vec::<&str>::new());
    }

    #[test]
    fn truncate_models_a_torn_write() {
        let mut v = Vfs::new();
        v.write("/maps/m", b"line one\nline two\n".to_vec());
        assert_eq!(v.truncate("/maps/m", 12), Ok(6));
        assert_eq!(v.read("/maps/m"), Some(&b"line one\nlin"[..]));
        // Truncating to the current length removes nothing.
        assert_eq!(v.truncate("/maps/m", 12), Ok(0));
        assert_eq!(v.truncate("/maps/m", 0), Ok(12));
    }

    #[test]
    fn truncate_rejects_out_of_range_and_missing() {
        let mut v = Vfs::new();
        v.write("/maps/m", b"twelve bytes".to_vec());
        assert_eq!(
            v.truncate("/maps/m", 13),
            Err(VfsError::OutOfRange {
                path: "/maps/m".into(),
                offset: 13,
                len: 0,
                file_len: 12,
            })
        );
        assert_eq!(v.read("/maps/m").unwrap().len(), 12, "file untouched");
        assert_eq!(
            v.truncate("/nope", 0),
            Err(VfsError::NotFound { path: "/nope".into() })
        );
    }

    #[test]
    fn patch_corrupts_in_place_without_extending() {
        let mut v = Vfs::new();
        v.write("/f", b"0123456789".to_vec());
        assert_eq!(v.patch("/f", 4, b"zz"), Ok(()));
        assert_eq!(v.read("/f"), Some(&b"0123zz6789"[..]));
        // Boundary: a patch ending exactly at the file's end is fine.
        assert_eq!(v.patch("/f", 8, b"ab"), Ok(()));
        assert_eq!(v.read("/f"), Some(&b"0123zz67ab"[..]));
        // Empty patch at the end offset touches nothing but is in range.
        assert_eq!(v.patch("/f", 10, b""), Ok(()));
    }

    #[test]
    fn patch_rejects_out_of_range_and_missing() {
        let mut v = Vfs::new();
        v.write("/f", b"0123456789".to_vec());
        // One byte past the end: error, not a clip.
        assert_eq!(
            v.patch("/f", 8, b"abc"),
            Err(VfsError::OutOfRange {
                path: "/f".into(),
                offset: 8,
                len: 3,
                file_len: 10,
            })
        );
        assert_eq!(v.read("/f"), Some(&b"0123456789"[..]), "file untouched");
        assert!(matches!(
            v.patch("/f", 10, b"x"),
            Err(VfsError::OutOfRange { .. })
        ));
        // Overflow-proof: offset + len wrapping must not panic or pass.
        assert!(matches!(
            v.patch("/f", usize::MAX, b"x"),
            Err(VfsError::OutOfRange { .. })
        ));
        assert_eq!(
            v.patch("/nope", 0, b"x"),
            Err(VfsError::NotFound { path: "/nope".into() })
        );
    }

    #[test]
    fn remove_and_accounting() {
        let mut v = Vfs::new();
        v.write("/a", b"12345".to_vec());
        v.write("/b", b"678".to_vec());
        assert_eq!(v.files.values().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(v.remove("/a"), Some(b"12345".to_vec()));
        assert_eq!(v.len(), 1);
        assert!(!v.exists("/a"));
    }

    #[test]
    fn export_import_round_trip() {
        let mut v = Vfs::new();
        v.write("/var/lib/oprofile/samples/current.db", b"binary\x00data".to_vec());
        v.write("/jikes/RVM.map", b"00000000 00004000 m\n".to_vec());
        v.write("/var/lib/oprofile/jit/4/map.0000000000", b"entry\n".to_vec());
        let dir = std::env::temp_dir().join(format!("viprof-vfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(v.export_to_dir(&dir).unwrap(), 3);
        let back = Vfs::import_from_dir(&dir).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(
            back.read("/var/lib/oprofile/samples/current.db"),
            v.read("/var/lib/oprofile/samples/current.db")
        );
        assert_eq!(back.read("/jikes/RVM.map"), v.read("/jikes/RVM.map"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

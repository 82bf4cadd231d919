//! Read-only memory mapping without external crates.
//!
//! The serve tier wants frame bytes that (a) are shared between
//! processes by the page cache, (b) cost no resident memory until
//! touched, and (c) outlive any `File` handle. On unix targets that is
//! `mmap(PROT_READ, MAP_PRIVATE)` — declared here directly against the
//! C library `std` already links, since the vendored-only build has no
//! `libc`/`memmap2` crate. Everywhere else (and on any mapping failure)
//! [`MappedBytes`] degrades to an owned heap read of the same file: the
//! view layer reads with explicit little-endian loads either way, so the
//! two representations are indistinguishable above this module.
//!
//! This is the only `unsafe` in the serve library; the invariants are local:
//! a successful `mmap` of `len > 0` bytes with `PROT_READ`/`MAP_PRIVATE`
//! yields a pointer valid for `len` reads for the life of the mapping,
//! and `munmap` is called exactly once, with the original pointer and
//! length, on drop. The mapping is private and read-only, so no aliasing
//! rule can be violated by other code in this process.

use std::fs::File;
use std::io::Read;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::unix::io::AsRawFd;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A live read-only file mapping.
    #[derive(Debug)]
    pub struct Mapping {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ) and private; moving
    // the raw pointer to another thread cannot race any write.
    unsafe impl Send for Mapping {}
    // SAFETY: all access goes through `&self` reads of read-only pages,
    // so concurrent shared use from multiple threads is sound.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map `len` bytes of `file` read-only, or `None` when the
        /// kernel refuses (caller falls back to a heap read).
        pub fn new(file: &std::fs::File, len: usize) -> Option<Mapping> {
            if len == 0 {
                return None;
            }
            // SAFETY: fd is valid for the duration of the call; a
            // MAP_FAILED (-1) return is checked before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return None;
            }
            Some(Mapping { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr is a live PROT_READ mapping of exactly len
            // bytes (established in `new`, released only in `drop`).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: ptr/len are the exact values returned by mmap and
            // this is the only munmap call for them.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Immutable file bytes: a real memory mapping when the platform
/// provides one, an owned heap buffer otherwise. Dereferences to `[u8]`
/// either way.
#[derive(Debug)]
pub enum MappedBytes {
    /// Kernel-backed read-only mapping (unix).
    #[cfg(unix)]
    Mapped(sys::Mapping),
    /// Heap fallback: the whole file read into memory.
    Owned(Vec<u8>),
}

impl MappedBytes {
    /// Map (or read) the whole file at `path`.
    pub fn open(path: &Path) -> std::io::Result<MappedBytes> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
        })?;
        #[cfg(unix)]
        if let Some(mapping) = sys::Mapping::new(&file, len) {
            return Ok(MappedBytes::Mapped(mapping));
        }
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(MappedBytes::Owned(buf))
    }

    /// The file bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            MappedBytes::Mapped(m) => m.bytes(),
            MappedBytes::Owned(v) => v,
        }
    }
}

impl std::ops::Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let path = std::env::temp_dir().join(format!("asrank_mmap_test_{}", std::process::id()));
        let content: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &content).unwrap();
        let mapped = MappedBytes::open(&path).unwrap();
        assert_eq!(&mapped[..], &content[..]);
        #[cfg(unix)]
        assert!(matches!(mapped, MappedBytes::Mapped(_)), "unix target should really mmap");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let path = std::env::temp_dir().join(format!("asrank_mmap_empty_{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let mapped = MappedBytes::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(matches!(mapped, MappedBytes::Owned(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(MappedBytes::open(Path::new("/nonexistent/asrank")).is_err());
    }
}

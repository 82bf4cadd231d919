//! Bounds-checked byte cursor.
//!
//! `bytes::Buf` panics on overrun, which is unacceptable when parsing
//! untrusted files. [`Cursor`] wraps a byte slice with fallible reads
//! carrying a static context string, so every decode failure names the
//! field that was being parsed.

use crate::error::MrtError;

/// A fallible, bounds-checked reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all bytes are consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Take the next `n` bytes as a sub-slice.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], MrtError> {
        if self.remaining() < n {
            return Err(MrtError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Split off a child cursor over the next `n` bytes.
    pub fn sub(&mut self, n: usize, context: &'static str) -> Result<Cursor<'a>, MrtError> {
        Ok(Cursor::new(self.take(n, context)?))
    }

    /// Read a `u8`.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, MrtError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, MrtError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, MrtError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// `value` as a `u16` length or count, or [`MrtError::Overflow`] naming
/// `context` when it does not fit.
pub(crate) fn fit_u16(value: usize, context: &'static str) -> Result<u16, MrtError> {
    u16::try_from(value).map_err(|_| MrtError::Overflow {
        context,
        value,
        max: usize::from(u16::MAX),
    })
}

/// Fill in the `u16` length reserved at `pos` with the number of bytes
/// written after it.
pub(crate) fn patch_len_u16(
    out: &mut [u8],
    pos: usize,
    context: &'static str,
) -> Result<(), MrtError> {
    let len = fit_u16(out.len() - pos - 2, context)?;
    out[pos..pos + 2].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Append a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance() {
        let data = [1u8, 0, 2, 0, 0, 0, 3, 9];
        let mut c = Cursor::new(&data);
        assert_eq!(c.u8("a").unwrap(), 1);
        assert_eq!(c.u16("b").unwrap(), 2);
        assert_eq!(c.u32("c").unwrap(), 3);
        assert_eq!(c.remaining(), 1);
        assert_eq!(c.take(1, "d").unwrap(), &[9]);
        assert!(c.is_empty());
    }

    #[test]
    fn overrun_is_an_error_not_a_panic() {
        let mut c = Cursor::new(&[1u8]);
        assert!(matches!(
            c.u32("field"),
            Err(MrtError::Truncated { context: "field" })
        ));
        // The failed read must not consume anything.
        assert_eq!(c.remaining(), 1);
    }

    #[test]
    fn sub_cursor_is_bounded() {
        let data = [1u8, 2, 3, 4];
        let mut c = Cursor::new(&data);
        let mut s = c.sub(2, "sub").unwrap();
        assert_eq!(s.u16("x").unwrap(), 0x0102);
        assert!(s.u8("y").is_err());
        assert_eq!(c.remaining(), 2);
    }

    #[test]
    fn put_helpers_are_big_endian() {
        let mut v = Vec::new();
        put_u16(&mut v, 0x0102);
        put_u32(&mut v, 0x03040506);
        assert_eq!(v, vec![1, 2, 3, 4, 5, 6]);
    }
}

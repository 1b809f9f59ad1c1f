//! Decoding cursor over a borrowed byte slice.

use crate::varint::read_varint;
use crate::{WireError, WireResult};

/// Cursor that consumes typed values from a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Current offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> WireResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a LEB128 varint.
    pub fn get_varint(&mut self) -> WireResult<u64> {
        let (value, consumed) = read_varint(&self.input[self.pos..])?;
        self.pos += consumed;
        Ok(value)
    }

    /// Reads `n` raw bytes without a length prefix.
    pub fn get_raw(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a varint length prefix followed by that many bytes.
    pub fn get_bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = self.get_varint()?;
        let len = usize::try_from(len).map_err(|_| WireError::LengthOverflow {
            declared: len,
            max: usize::MAX as u64,
        })?;
        if len > self.remaining() {
            return Err(WireError::LengthOverflow {
                declared: len as u64,
                max: self.remaining() as u64,
            });
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> WireResult<String> {
        Ok(self.get_str()?.to_string())
    }

    /// Reads a length-prefixed UTF-8 string without copying it: the returned
    /// slice borrows the input (the zero-copy counterpart of
    /// [`Reader::get_string`]).
    pub fn get_str(&mut self) -> WireResult<&'a str> {
        let bytes = self.get_bytes()?;
        core::str::from_utf8(bytes).map_err(|_| WireError::Corrupt("invalid utf-8 string"))
    }

    /// Reads a boolean byte, rejecting values other than 0 and 1.
    pub fn get_bool(&mut self) -> WireResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                what: "bool",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_reports_sizes() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedEof {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn length_prefix_larger_than_input_rejected() {
        // Varint declares 100 bytes but only 2 follow.
        let mut buf = Vec::new();
        crate::varint::write_varint(&mut buf, 100);
        buf.extend_from_slice(&[1, 2]);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.get_bytes().unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.get_bool().unwrap_err(),
            WireError::InvalidTag { what: "bool", .. }
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        crate::varint::write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.get_string().unwrap_err(),
            WireError::Corrupt("invalid utf-8 string")
        );
    }

    #[test]
    fn position_tracking() {
        let mut r = Reader::new(&[1, 2, 3, 4]);
        assert_eq!(r.position(), 0);
        r.get_u8().unwrap();
        assert_eq!(r.position(), 1);
        r.get_raw(2).unwrap();
        assert_eq!(r.position(), 3);
        assert_eq!(r.remaining(), 1);
        assert!(!r.is_empty());
    }
}

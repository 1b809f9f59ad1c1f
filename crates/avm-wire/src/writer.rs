//! Append-only encoder cursor.

use crate::varint::write_varint;

/// Growable byte buffer with typed append helpers.
///
/// All multi-byte fixed-width integers are written little-endian.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes of preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the underlying bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a varint length prefix followed by `bytes`.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Appends a UTF-8 string with a varint length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a boolean as a single byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reader;

    #[test]
    fn fixed_width_little_endian() {
        let mut w = Writer::new();
        w.put_u32(0x03040506);
        w.put_u64(0x0708090a0b0c0d0e);
        assert_eq!(
            w.as_slice(),
            &[
                0x06, 0x05, 0x04, 0x03, //
                0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07
            ]
        );
    }

    #[test]
    fn writer_reader_symmetry() {
        let mut w = Writer::with_capacity(64);
        w.put_u8(7);
        w.put_bool(true);
        w.put_varint(300);
        w.put_bytes(b"hello");
        w.put_str("world");
        w.put_i64(-42);

        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_varint().unwrap(), 300);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_string().unwrap(), "world");
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_writer() {
        let w = Writer::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }
}

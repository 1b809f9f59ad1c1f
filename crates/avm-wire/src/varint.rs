//! LEB128 variable-length unsigned integer encoding.
//!
//! Varints keep the execution log compact: most sequence numbers, step
//! deltas and payload lengths are small, so they usually occupy one or two
//! bytes instead of eight.

use crate::{WireError, WireResult};

/// Maximum number of bytes a 64-bit varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out` and returns the number of
/// bytes written.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
///
/// `#[inline]` so that [`crate::Reader::get_varint`] absorbs it instead of
/// calling it: an audit reads three to five varints per log entry, tens of
/// thousands of entries per segment.
#[inline]
pub fn read_varint(input: &[u8]) -> WireResult<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(WireError::VarintOverflow);
        }
        let low = (byte & 0x7f) as u64;
        // The tenth byte may only contribute a single bit.
        if shift == 63 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(WireError::UnexpectedEof {
        needed: 1,
        remaining: 0,
    })
}

/// Number of bytes the varint encoding of `value` occupies.
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Encodes a signed integer with ZigZag so small negative numbers stay short.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            let written = write_varint(&mut buf, v);
            assert_eq!(written, buf.len());
            assert_eq!(written, varint_len(v));
            let (decoded, consumed) = read_varint(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let truncated = &buf[..buf.len() - 1];
        assert!(read_varint(truncated).is_err());
    }

    #[test]
    fn overlong_encoding_rejected() {
        // Eleven continuation bytes can never be a valid 64-bit varint.
        let bad = [0x80u8; 11];
        assert_eq!(read_varint(&bad).unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn tenth_byte_overflow_rejected() {
        // 10 bytes whose final byte carries more than one bit of payload.
        let mut bad = vec![0xffu8; 9];
        bad.push(0x7f);
        assert_eq!(read_varint(&bad).unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small.
        assert!(varint_len(zigzag_encode(-1)) == 1);
        assert!(varint_len(zigzag_encode(63)) == 1);
    }
}

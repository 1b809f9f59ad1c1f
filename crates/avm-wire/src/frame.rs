//! Checksummed framing for records stored on disk or shipped over the
//! simulated network.
//!
//! A frame is `MAGIC (1) || varint length || payload || crc32 (4)`, where the
//! checksum covers the payload only.  Frames let a reader resynchronise and
//! detect truncation when scanning a byte stream of concatenated records,
//! e.g. a persisted execution log.

use crate::checksum::{crc32, Crc32};
use crate::varint::{read_varint, varint_len, write_varint};
use crate::WireError;

/// Magic byte prefixing every frame.
pub const FRAME_MAGIC: u8 = 0xA7;

/// Errors surfaced when reading a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The first byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// The payload checksum did not match.
    BadChecksum {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The length prefix was malformed.
    BadLength,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(b) => write!(f, "bad frame magic byte {b:#04x}"),
            FrameError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::BadLength => write!(f, "malformed frame length"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends a frame containing `payload` to `out`.
///
/// Returns the total number of bytes appended.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) -> usize {
    out.push(FRAME_MAGIC);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    1 + varint_len(payload.len() as u64) + payload.len() + 4
}

/// Appends one frame whose payload is the concatenation of `parts`.
///
/// Byte-identical to [`write_frame`] over the concatenated parts, but the
/// payload bytes are copied **once** — straight from each part into `out` —
/// with the checksum accumulated incrementally ([`Crc32`]) instead of over a
/// materialized concatenation.  This is what lets message sealing write an
/// envelope prefix and a caller-owned body into the packet without an
/// intermediate payload buffer.
pub fn write_frame_parts(out: &mut Vec<u8>, parts: &[&[u8]]) -> usize {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(1 + varint_len(len as u64) + len + 4);
    out.push(FRAME_MAGIC);
    write_varint(out, len as u64);
    let mut crc = Crc32::new();
    for part in parts {
        out.extend_from_slice(part);
        crc.update(part);
    }
    out.extend_from_slice(&crc.finish().to_le_bytes());
    1 + varint_len(len as u64) + len + 4
}

/// One parsed frame, borrowing its payload from the input stream.
///
/// The borrowed form of [`read_frame`]'s tuple: `payload` aliases the input
/// buffer (no copy), and `consumed` says where the next frame starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The checksum-verified payload, borrowed from the input.
    pub payload: &'a [u8],
    /// Total bytes the frame occupied, header and checksum included.
    pub consumed: usize,
}

impl<'a> Frame<'a> {
    /// Parses one frame from the front of `input` without copying the
    /// payload.
    pub fn parse(input: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        let (payload, consumed) = read_frame(input)?;
        Ok(Frame { payload, consumed })
    }
}

/// Reads one frame from the front of `input`.
///
/// Returns the payload and the total number of bytes the frame occupied.
pub fn read_frame(input: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if input.is_empty() {
        return Err(FrameError::Truncated);
    }
    if input[0] != FRAME_MAGIC {
        return Err(FrameError::BadMagic(input[0]));
    }
    // A stream that ends inside the length prefix is truncation, exactly
    // like one that ends inside the payload — a torn append routinely cuts
    // mid-varint, since payloads over 127 bytes have multi-byte lengths.
    let (len, len_bytes) = read_varint(&input[1..]).map_err(|e| match e {
        WireError::UnexpectedEof { .. } => FrameError::Truncated,
        _ => FrameError::BadLength,
    })?;
    // The varint is complete, so a length no input could hold is corruption,
    // not a torn append; a representable one longer than the input is
    // truncation.
    let len = usize::try_from(len).map_err(|_| FrameError::BadLength)?;
    let header = 1 + len_bytes;
    let total = header
        .checked_add(len)
        .and_then(|n| n.checked_add(4))
        .filter(|&n| n <= isize::MAX as usize)
        .ok_or(FrameError::BadLength)?;
    if input.len() < total {
        return Err(FrameError::Truncated);
    }
    let payload = &input[header..header + len];
    let stored = u32::from_le_bytes([
        input[header + len],
        input[header + len + 1],
        input[header + len + 2],
        input[header + len + 3],
    ]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(FrameError::BadChecksum { stored, computed });
    }
    Ok((payload, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let mut out = Vec::new();
        let n = write_frame(&mut out, b"payload");
        assert_eq!(n, out.len());
        let (payload, consumed) = read_frame(&out).unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(consumed, out.len());
    }

    #[test]
    fn empty_payload_frame() {
        let mut out = Vec::new();
        write_frame(&mut out, b"");
        let (payload, consumed) = read_frame(&out).unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, out.len());
    }

    #[test]
    fn corruption_detected() {
        let mut out = Vec::new();
        write_frame(&mut out, b"some payload bytes");
        let mid = out.len() / 2;
        out[mid] ^= 0xff;
        assert!(matches!(
            read_frame(&out).unwrap_err(),
            FrameError::BadChecksum { .. } | FrameError::BadLength | FrameError::Truncated
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut out = Vec::new();
        write_frame(&mut out, b"x");
        out[0] = 0x00;
        assert_eq!(read_frame(&out).unwrap_err(), FrameError::BadMagic(0));
    }

    #[test]
    fn truncation_inside_the_header_is_truncated_not_bad_length() {
        let mut out = Vec::new();
        // 300-byte payload: the length prefix is a two-byte varint.
        write_frame(&mut out, &[7u8; 300]);
        // Cut after just the magic byte, then mid-way through the varint.
        assert_eq!(read_frame(&out[..1]).unwrap_err(), FrameError::Truncated);
        assert_eq!(read_frame(&out[..2]).unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn overlong_length_varint_is_bad_length() {
        // Eleven continuation bytes after the magic can never be a valid
        // 64-bit varint: corruption, not truncation.
        let mut bad = vec![FRAME_MAGIC];
        bad.extend_from_slice(&[0x80u8; 11]);
        assert_eq!(read_frame(&bad).unwrap_err(), FrameError::BadLength);
    }

    /// A complete length prefix whose frame no input could hold (the
    /// header arithmetic would overflow) is `BadLength`, not a panic and not
    /// `Truncated`; a representable length past the end stays `Truncated`.
    #[test]
    fn unrepresentable_length_is_bad_length() {
        for len in [u64::MAX - 2, usize::MAX as u64, u64::MAX, 1 << 63] {
            let mut hostile = vec![FRAME_MAGIC];
            write_varint(&mut hostile, len);
            hostile.extend_from_slice(b"some trailing bytes");
            assert_eq!(
                read_frame(&hostile).unwrap_err(),
                FrameError::BadLength,
                "length {len}"
            );
        }
        let mut long = vec![FRAME_MAGIC];
        write_varint(&mut long, 1 << 40);
        long.extend_from_slice(&[0; 8]);
        assert_eq!(read_frame(&long).unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn truncation_detected() {
        let mut out = Vec::new();
        write_frame(&mut out, b"truncate me please");
        let cut = &out[..out.len() - 3];
        assert_eq!(read_frame(cut).unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn frame_parts_match_concatenated_payload() {
        for parts in [
            vec![b"ab".as_slice(), b"".as_slice(), b"cdef".as_slice()],
            vec![b"".as_slice()],
            vec![],
            vec![&[0xA7u8; 300] as &[u8], b"tail".as_slice()],
        ] {
            let concatenated: Vec<u8> = parts.concat();
            let mut whole = Vec::new();
            let n_whole = write_frame(&mut whole, &concatenated);
            let mut split = Vec::new();
            let n_split = write_frame_parts(&mut split, &parts);
            assert_eq!(whole, split);
            assert_eq!(n_whole, n_split);
        }
    }

    #[test]
    fn parsed_frame_borrows_the_input() {
        let mut out = Vec::new();
        write_frame(&mut out, b"borrowed bytes");
        let frame = Frame::parse(&out).unwrap();
        assert_eq!(frame.payload, b"borrowed bytes");
        assert_eq!(frame.consumed, out.len());
        // The payload aliases the packet buffer: same address range.
        let payload_ptr = frame.payload.as_ptr() as usize;
        let packet_ptr = out.as_ptr() as usize;
        assert!(payload_ptr >= packet_ptr && payload_ptr < packet_ptr + out.len());
    }

    #[test]
    fn iterate_many_frames() {
        let mut out = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut out, &[i; 5]);
        }
        let mut rest = &out[..];
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let (payload, consumed) = read_frame(rest).unwrap();
            frames.push(payload);
            rest = &rest[consumed..];
        }
        assert_eq!(frames.len(), 10);
        assert_eq!(frames[3], &[3u8; 5]);
    }
}

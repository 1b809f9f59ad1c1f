//! Binary wire-format primitives shared across the AVM workspace.
//!
//! Every persistent or network-visible structure in this reproduction (log
//! entries, authenticators, snapshots, simulated packets) is serialized with
//! the small, explicit codec defined here rather than with an external
//! serialization framework.  This keeps byte counts — which several of the
//! paper's experiments report — fully under our control and auditable.
//!
//! The format is deliberately simple:
//!
//! * fixed-width integers are little-endian,
//! * variable-width unsigned integers use LEB128 (`varint`),
//! * byte strings are length-prefixed with a varint,
//! * optional framing adds a magic byte, a length and a CRC-32 checksum.
//!
//! The [`Encode`] and [`Decode`] traits give each crate a uniform way to
//! declare wire formats; [`Writer`] and [`Reader`] are the low-level cursors.
//! On top of the primitives, [`blob`] defines the digest-addressed transfer
//! messages ([`BlobRequest`]/[`BlobResponse`]) of the §3.5 snapshot download
//! protocol, and [`audit`] defines the full audit protocol
//! ([`AuditRequest`]/[`AuditResponse`]: manifest, blob, log-segment and
//! snapshot-section fetches) those messages ride in; their semantics live in
//! `avm-core`'s `ondemand` and `endpoint` modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod audit;
pub mod blob;
pub mod checksum;
pub mod frame;
pub mod reader;
pub mod varint;
pub mod writer;

pub use attest::{
    AttestChallenge, AttestQuote, AttestQuoteRef, ATTEST_NONCE_LEN, DEFAULT_FRESHNESS_US,
};
pub use audit::{
    encode_log_segment, encode_sections_with, open_message, open_session_frame, seal_message,
    AuditRequest, AuditResponse, AuditResponseRef, SegmentAddress,
};
pub use blob::{
    BlobDigest, BlobRequest, BlobResponse, BlobResponseRef, BLOB_DIGEST_LEN, DEFAULT_BLOB_BATCH,
};
pub use checksum::crc32;
pub use frame::{read_frame, write_frame, write_frame_parts, Frame, FrameError, FRAME_MAGIC};
pub use reader::Reader;
pub use writer::Writer;

/// Error produced when decoding malformed wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Number of additional bytes that were required.
        needed: usize,
        /// Number of bytes that remained in the input.
        remaining: usize,
    },
    /// A varint was longer than the maximum allowed encoding.
    VarintOverflow,
    /// A length prefix exceeded the configured or sane limit.
    LengthOverflow {
        /// The declared length.
        declared: u64,
        /// The maximum permitted length.
        max: u64,
    },
    /// A tag byte did not correspond to any known variant.
    InvalidTag {
        /// Name of the type being decoded.
        what: &'static str,
        /// The unrecognised tag value.
        tag: u64,
    },
    /// A checksum or magic value did not match.
    Corrupt(&'static str),
    /// Trailing bytes remained after a complete decode where none were expected.
    TrailingBytes(usize),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} more bytes, {remaining} remaining"
            ),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::LengthOverflow { declared, max } => {
                write!(f, "declared length {declared} exceeds maximum {max}")
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            WireError::Corrupt(what) => write!(f, "corrupt data: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;

/// Types that can serialize themselves into the AVM wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience helper returning the encoding as a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Number of bytes the encoding occupies.
    ///
    /// The default *encodes into a scratch buffer to count*; types whose
    /// length is asked for on a hot path (log entries, blob messages)
    /// override it with arithmetic, pinned equal to `encode_to_vec().len()`
    /// by their tests.
    fn encoded_len(&self) -> usize {
        self.encode_to_vec().len()
    }
}

/// Types that can deserialize themselves from the AVM wire format.
pub trait Decode: Sized {
    /// Reads one value from `r`, advancing the cursor.
    fn decode(r: &mut Reader<'_>) -> WireResult<Self>;

    /// Decodes a value from `bytes`, requiring that the whole input is consumed.
    fn decode_exact(bytes: &[u8]) -> WireResult<Self> {
        decode_exact_with(bytes, Self::decode)
    }
}

/// Runs `decode` over `bytes` and requires that it consumed them all —
/// [`Decode::decode_exact`] for a decoder whose value *borrows* `bytes`
/// (the trait erases the input lifetime, which a view must keep).
pub fn decode_exact_with<'a, T>(
    bytes: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> WireResult<T>,
) -> WireResult<T> {
    let mut r = Reader::new(bytes);
    let v = decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(r.get_bytes()?.to_vec())
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_string()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.get_varint()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let n = r.get_varint()?;
        // Guard against absurd allocations from corrupt length prefixes.
        let n = usize::try_from(n).map_err(|_| WireError::LengthOverflow {
            declared: n,
            max: usize::MAX as u64,
        })?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                what: "Option",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: Vec<u8>,
    }

    impl Encode for Pair {
        fn encode(&self, w: &mut Writer) {
            w.put_varint(self.a);
            w.put_bytes(&self.b);
        }
    }

    impl Decode for Pair {
        fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
            Ok(Pair {
                a: r.get_varint()?,
                b: r.get_bytes()?.to_vec(),
            })
        }
    }

    #[test]
    fn roundtrip_struct() {
        let p = Pair {
            a: 123456,
            b: vec![1, 2, 3, 255],
        };
        let bytes = p.encode_to_vec();
        assert_eq!(Pair::decode_exact(&bytes).unwrap(), p);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = Pair { a: 1, b: vec![] };
        let mut bytes = p.encode_to_vec();
        bytes.push(0);
        assert_eq!(
            Pair::decode_exact(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(
            Option::<u64>::decode_exact(&some.encode_to_vec()).unwrap(),
            some
        );
        assert_eq!(
            Option::<u64>::decode_exact(&none.encode_to_vec()).unwrap(),
            none
        );
    }

    #[test]
    fn vec_of_u64_roundtrip() {
        let v: Vec<u64> = vec![0, 1, 127, 128, u64::MAX];
        assert_eq!(Vec::<u64>::decode_exact(&v.encode_to_vec()).unwrap(), v);
    }

    #[test]
    fn invalid_option_tag() {
        let err = Option::<u64>::decode_exact(&[9]).unwrap_err();
        assert!(matches!(err, WireError::InvalidTag { what: "Option", .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::UnexpectedEof {
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("needed 4"));
        assert!(WireError::VarintOverflow.to_string().contains("64"));
    }
}

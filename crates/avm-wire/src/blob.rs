//! Digest-addressed blob transfer: the wire half of the hash-addressed
//! snapshot download protocol (paper §3.5).
//!
//! An auditor reconstructing snapshot state does not need whole snapshot
//! sections: state payloads (memory pages, disk blocks) are content-addressed
//! by their SHA-256, so the auditor enumerates the digests a snapshot chain
//! references and requests **only the digests it does not already hold** — a
//! Venti-style content-addressed transfer.  This module defines the two
//! messages of that exchange:
//!
//! * [`BlobRequest`] — auditor → operator: the list of 32-byte digests the
//!   auditor is missing.
//! * [`BlobResponse`] — operator → auditor: one payload per requested digest,
//!   in request order (`None` where the operator does not hold the blob).
//!
//! The response deliberately does **not** echo the digests: the auditor must
//! re-hash every received payload and compare against what it asked for
//! (authentication against the digest, and transitively against the Merkle
//! state root the digests came from), so repeating them would only inflate
//! the transfer the experiments measure.
//!
//! The semantic layer — which digests to ask for, verification, caching —
//! lives in `avm-core` (`ondemand` module); this module is only the byte
//! format.

use crate::varint::varint_len;
use crate::{Decode, Encode, Reader, WireError, WireResult, Writer};

/// Length of a content digest on the wire (SHA-256).
pub const BLOB_DIGEST_LEN: usize = 32;

/// A raw 32-byte content digest as carried on the wire.
///
/// `avm-wire` sits below `avm-crypto`, so the digest is a plain byte array
/// here; `avm-core` converts to and from its typed `Digest`.
pub type BlobDigest = [u8; BLOB_DIGEST_LEN];

impl Encode for BlobDigest {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self);
    }
}

impl Decode for BlobDigest {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let raw = r.get_raw(BLOB_DIGEST_LEN)?;
        let mut out = [0u8; BLOB_DIGEST_LEN];
        out.copy_from_slice(raw);
        Ok(out)
    }
}

/// Auditor → operator: "send me the payloads for these digests".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlobRequest {
    /// Digests the auditor does not hold, in the order it wants them served.
    pub digests: Vec<BlobDigest>,
}

/// Default number of digests per batched [`BlobRequest`].
///
/// Each round trip then carries up to 32 × 32 B of request and up to 16 KiB
/// of 512 B chunk payloads — enough to amortise the per-round-trip latency
/// without turning the exchange back into one monolithic download.
pub const DEFAULT_BLOB_BATCH: usize = 32;

impl BlobRequest {
    /// True when nothing is requested (every needed digest was cached).
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Number of requested digests.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Splits `digests` into per-round-trip requests of at most
    /// `max_per_request` digests each (`0` means unlimited — a single
    /// request).  Order is preserved across the batches, so the batched
    /// exchange serves the same blobs in the same order as a one-request
    /// exchange (each batch still carries its own count prefix, so the
    /// concatenated framing differs by a few varint bytes).
    pub fn batches(digests: &[BlobDigest], max_per_request: usize) -> Vec<BlobRequest> {
        if digests.is_empty() {
            return Vec::new();
        }
        let per = if max_per_request == 0 {
            digests.len()
        } else {
            max_per_request
        };
        digests
            .chunks(per)
            .map(|c| BlobRequest {
                digests: c.to_vec(),
            })
            .collect()
    }
}

impl Encode for BlobRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.digests.len() as u64);
        for d in &self.digests {
            d.encode(w);
        }
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.digests.len() as u64) + self.digests.len() * BLOB_DIGEST_LEN
    }
}

impl Decode for BlobRequest {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let n = r.get_varint()?;
        // A digest is 32 bytes on the wire; a count that cannot fit in the
        // remaining input is corrupt, and bounding it up front prevents
        // attacker-controlled allocations.
        let max = (r.remaining() / BLOB_DIGEST_LEN) as u64;
        if n > max {
            return Err(WireError::LengthOverflow { declared: n, max });
        }
        let mut digests = Vec::with_capacity(n as usize);
        for _ in 0..n {
            digests.push(BlobDigest::decode(r)?);
        }
        Ok(BlobRequest { digests })
    }
}

/// Operator → auditor: the payloads for a [`BlobRequest`], in request order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlobResponse {
    /// One entry per requested digest: the payload, or `None` when the
    /// operator's store does not hold that digest (which an auditor treats
    /// as the operator failing to substantiate its own snapshot).
    pub blobs: Vec<Option<Vec<u8>>>,
}

impl BlobResponse {
    /// Total payload bytes carried (excluding framing).
    pub fn payload_bytes(&self) -> u64 {
        self.blobs.iter().flatten().map(|b| b.len() as u64).sum()
    }

    /// This response's borrowed view, which writes its bytes.
    pub(crate) fn view(&self) -> BlobResponseRef<'_> {
        BlobResponseRef {
            blobs: self.blobs.iter().map(Option::as_deref).collect(),
        }
    }
}

/// Encoded size of a blob response holding `blobs`: the count, then per
/// entry a tag byte and, when present, the length-prefixed payload.
fn blobs_encoded_len<'a>(blobs: impl ExactSizeIterator<Item = Option<&'a [u8]>>) -> usize {
    varint_len(blobs.len() as u64)
        + blobs
            .map(|blob| 1 + blob.map_or(0, |b| varint_len(b.len() as u64) + b.len()))
            .sum::<usize>()
}

impl Encode for BlobResponse {
    fn encode(&self, w: &mut Writer) {
        self.view().encode(w);
    }

    fn encoded_len(&self) -> usize {
        blobs_encoded_len(self.blobs.iter().map(Option::as_deref))
    }
}

impl Decode for BlobResponse {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        BlobResponseRef::decode(r).map(|blobs| blobs.to_owned())
    }
}

/// Borrowed view of a [`BlobResponse`]: every payload aliases the packet
/// buffer it was decoded from, so a receiver can verify digests (and decide
/// what to keep) without first copying each blob into its own `Vec`.
///
/// Encoding a `BlobResponseRef` is byte-identical to encoding the
/// [`BlobResponse`] it borrows from or converts into.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlobResponseRef<'a> {
    /// One entry per requested digest, borrowing from the decode input.
    pub blobs: Vec<Option<&'a [u8]>>,
}

impl<'a> BlobResponseRef<'a> {
    /// Decodes a borrowed response from `r`; the payload slices live as long
    /// as the reader's input.  (An inherent method, not [`Decode`]: the trait
    /// erases the input lifetime, which a borrowing decode must keep.)
    pub fn decode(r: &mut Reader<'a>) -> WireResult<BlobResponseRef<'a>> {
        let n = r.get_varint()?;
        // Every entry costs at least one tag byte.
        let max = r.remaining() as u64;
        if n > max {
            return Err(WireError::LengthOverflow { declared: n, max });
        }
        let mut blobs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            blobs.push(match r.get_u8()? {
                0 => None,
                1 => Some(r.get_bytes()?),
                tag => {
                    return Err(WireError::InvalidTag {
                        what: "Option",
                        tag: tag as u64,
                    })
                }
            });
        }
        Ok(BlobResponseRef { blobs })
    }

    /// Total payload bytes carried (excluding framing).
    pub fn payload_bytes(&self) -> u64 {
        self.blobs.iter().flatten().map(|b| b.len() as u64).sum()
    }

    /// Copies the borrowed payloads into an owned [`BlobResponse`].
    pub fn to_owned(&self) -> BlobResponse {
        BlobResponse {
            blobs: self.blobs.iter().map(|b| b.map(<[u8]>::to_vec)).collect(),
        }
    }
}

impl Encode for BlobResponseRef<'_> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.blobs.len() as u64);
        for blob in &self.blobs {
            match blob {
                None => w.put_u8(0),
                Some(payload) => {
                    w.put_u8(1);
                    w.put_bytes(payload);
                }
            }
        }
    }

    fn encoded_len(&self) -> usize {
        blobs_encoded_len(self.blobs.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(fill: u8) -> BlobDigest {
        [fill; BLOB_DIGEST_LEN]
    }

    #[test]
    fn request_roundtrip() {
        let req = BlobRequest {
            digests: vec![digest(1), digest(0xff), digest(0)],
        };
        assert_eq!(req.len(), 3);
        assert!(!req.is_empty());
        let bytes = req.encode_to_vec();
        // varint count + 3 * 32 digest bytes.
        assert_eq!(bytes.len(), 1 + 3 * BLOB_DIGEST_LEN);
        assert_eq!(BlobRequest::decode_exact(&bytes).unwrap(), req);

        let empty = BlobRequest::default();
        assert!(empty.is_empty());
        assert_eq!(
            BlobRequest::decode_exact(&empty.encode_to_vec()).unwrap(),
            empty
        );
    }

    #[test]
    fn response_roundtrip_and_payload_accounting() {
        let resp = BlobResponse {
            blobs: vec![Some(vec![9u8; 100]), None, Some(vec![])],
        };
        assert_eq!(resp.payload_bytes(), 100);
        let bytes = resp.encode_to_vec();
        assert_eq!(BlobResponse::decode_exact(&bytes).unwrap(), resp);
    }

    #[test]
    fn batches_preserve_order_and_bound_size() {
        let digests: Vec<BlobDigest> = (0u8..10).map(digest).collect();
        let batches = BlobRequest::batches(&digests, 4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let rejoined: Vec<BlobDigest> = batches
            .iter()
            .flat_map(|b| b.digests.iter().copied())
            .collect();
        assert_eq!(rejoined, digests);
        // 0 = unlimited: one request with everything.
        let unlimited = BlobRequest::batches(&digests, 0);
        assert_eq!(unlimited.len(), 1);
        assert_eq!(unlimited[0].digests, digests);
        assert!(BlobRequest::batches(&[], 4).is_empty());
    }

    #[test]
    fn truncated_request_rejected() {
        let req = BlobRequest {
            digests: vec![digest(7), digest(8)],
        };
        let bytes = req.encode_to_vec();
        assert!(BlobRequest::decode_exact(&bytes[..bytes.len() - 1]).is_err());
        // A corrupt count larger than the remaining input is rejected
        // before any allocation.
        let mut corrupt = Vec::new();
        crate::varint::write_varint(&mut corrupt, u64::MAX);
        assert!(matches!(
            BlobRequest::decode_exact(&corrupt).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn borrowed_response_matches_owned_decode() {
        let resp = BlobResponse {
            blobs: vec![Some(vec![9u8; 100]), None, Some(vec![])],
        };
        let bytes = resp.encode_to_vec();
        let mut r = Reader::new(&bytes);
        let borrowed = BlobResponseRef::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(borrowed.payload_bytes(), resp.payload_bytes());
        assert_eq!(borrowed.to_owned(), resp);
        // Re-encoding the borrowed view reproduces the original bytes.
        assert_eq!(borrowed.encode_to_vec(), bytes);
        // The payloads alias the input buffer, not fresh allocations.
        let payload = borrowed.blobs[0].unwrap();
        let ptr = payload.as_ptr() as usize;
        let base = bytes.as_ptr() as usize;
        assert!(ptr >= base && ptr < base + bytes.len());
    }

    #[test]
    fn truncated_response_rejected() {
        let resp = BlobResponse {
            blobs: vec![Some(vec![1, 2, 3])],
        };
        let bytes = resp.encode_to_vec();
        assert!(BlobResponse::decode_exact(&bytes[..bytes.len() - 1]).is_err());
        let mut corrupt = Vec::new();
        crate::varint::write_varint(&mut corrupt, u64::MAX);
        assert!(matches!(
            BlobResponse::decode_exact(&corrupt).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }
}

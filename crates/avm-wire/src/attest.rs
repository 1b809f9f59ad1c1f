//! The attestation wire messages: nonce'd challenge, envelope response.
//!
//! The confidential-VM related work frames launch verification as a
//! challenge/response: the verifier sends a fresh nonce, the attester
//! answers with a *quote* — its attestation envelope plus a signature
//! binding the envelope to that nonce — and the verifier accepts only
//! quotes produced inside a freshness window.  This module defines the byte
//! format of that exchange; the envelope itself is an *opaque byte string*
//! at this layer (`avm-wire` sits below `avm-attest`, which defines the
//! envelope semantics), exactly like manifests and section streams in
//! [`crate::audit`].
//!
//! The two messages ride the ordinary audit session
//! ([`crate::audit::AuditRequest::Attest`] /
//! [`crate::audit::AuditResponse::Attestation`]), so an auditor verifies the
//! launch measurement and then continues into spot-check auditing over the
//! same session — one connection covers launch *and* lifetime.

use crate::{Decode, Encode, Reader, WireResult, Writer};

/// Length of the challenge nonce in bytes.
pub const ATTEST_NONCE_LEN: usize = 32;

/// Default freshness window: a quote answering a challenge issued more than
/// this many microseconds ago is rejected as expired.
pub const DEFAULT_FRESHNESS_US: u64 = 5_000_000;

/// Verifier → attester: "prove your launch state, binding the proof to this
/// nonce".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestChallenge {
    /// Fresh, unpredictable challenge nonce.  A quote echoing any other
    /// nonce is a replay of an earlier attestation.
    pub nonce: [u8; ATTEST_NONCE_LEN],
    /// Verifier clock when the challenge was issued (µs); anchors the
    /// freshness window.
    pub issued_at_us: u64,
}

impl Encode for AttestChallenge {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.nonce);
        w.put_varint(self.issued_at_us);
    }
}

impl Decode for AttestChallenge {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let mut nonce = [0u8; ATTEST_NONCE_LEN];
        nonce.copy_from_slice(r.get_raw(ATTEST_NONCE_LEN)?);
        Ok(AttestChallenge {
            nonce,
            issued_at_us: r.get_varint()?,
        })
    }
}

/// Attester → verifier: the attestation quote answering one challenge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestQuote {
    /// The encoded attestation envelope (opaque at this layer; decoded and
    /// verified by `avm-attest`).
    pub envelope: Vec<u8>,
    /// Echo of the challenge nonce this quote answers.
    pub nonce: [u8; ATTEST_NONCE_LEN],
    /// Attester clock when the quote was signed (µs).
    pub signed_at_us: u64,
    /// Signature over `(nonce, signed_at_us, envelope digest)` with the
    /// attester's key — the anti-replay binding.
    pub signature: Vec<u8>,
}

impl AttestQuote {
    /// This quote's borrowed view, which writes its bytes.
    pub(crate) fn view(&self) -> AttestQuoteRef<'_> {
        AttestQuoteRef {
            envelope: &self.envelope,
            nonce: self.nonce,
            signed_at_us: self.signed_at_us,
            signature: &self.signature,
        }
    }
}

impl Encode for AttestQuote {
    fn encode(&self, w: &mut Writer) {
        self.view().encode(w);
    }
}

impl Decode for AttestQuote {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        AttestQuoteRef::decode(r).map(|quote| quote.to_owned())
    }
}

/// Borrowed view of an [`AttestQuote`]: the envelope and signature alias the
/// packet buffer they were decoded from (see
/// [`crate::audit::AuditResponseRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestQuoteRef<'a> {
    /// The encoded attestation envelope, borrowed from the packet.
    pub envelope: &'a [u8],
    /// Echo of the challenge nonce.
    pub nonce: [u8; ATTEST_NONCE_LEN],
    /// Attester clock when the quote was signed (µs).
    pub signed_at_us: u64,
    /// Signature bytes, borrowed from the packet.
    pub signature: &'a [u8],
}

impl<'a> AttestQuoteRef<'a> {
    /// Decodes a borrowed quote; payload slices live as long as the input.
    pub fn decode(r: &mut Reader<'a>) -> WireResult<AttestQuoteRef<'a>> {
        let envelope = r.get_bytes()?;
        let mut nonce = [0u8; ATTEST_NONCE_LEN];
        nonce.copy_from_slice(r.get_raw(ATTEST_NONCE_LEN)?);
        Ok(AttestQuoteRef {
            envelope,
            nonce,
            signed_at_us: r.get_varint()?,
            signature: r.get_bytes()?,
        })
    }

    /// Copies the borrowed payloads into an owned [`AttestQuote`].
    pub fn to_owned(&self) -> AttestQuote {
        AttestQuote {
            envelope: self.envelope.to_vec(),
            nonce: self.nonce,
            signed_at_us: self.signed_at_us,
            signature: self.signature.to_vec(),
        }
    }
}

impl Encode for AttestQuoteRef<'_> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.envelope);
        w.put_raw(&self.nonce);
        w.put_varint(self.signed_at_us);
        w.put_bytes(self.signature);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_quote() -> AttestQuote {
        AttestQuote {
            envelope: vec![0xaa; 120],
            nonce: [7u8; ATTEST_NONCE_LEN],
            signed_at_us: 123_456,
            signature: vec![0x55; 64],
        }
    }

    #[test]
    fn challenge_roundtrips() {
        let c = AttestChallenge {
            nonce: [9u8; ATTEST_NONCE_LEN],
            issued_at_us: 44,
        };
        let bytes = c.encode_to_vec();
        assert_eq!(AttestChallenge::decode_exact(&bytes).unwrap(), c);
        assert!(AttestChallenge::decode_exact(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn quote_roundtrips() {
        let q = sample_quote();
        let bytes = q.encode_to_vec();
        assert_eq!(AttestQuote::decode_exact(&bytes).unwrap(), q);
        assert!(AttestQuote::decode_exact(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn borrowed_quote_matches_owned_and_reencodes_identically() {
        let q = sample_quote();
        let bytes = q.encode_to_vec();
        let mut r = Reader::new(&bytes);
        let borrowed = AttestQuoteRef::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(borrowed.to_owned(), q);
        assert_eq!(borrowed.encode_to_vec(), bytes);
    }
}

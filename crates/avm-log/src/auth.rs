//! Authenticators and acknowledgments.

use avm_crypto::keys::{KeyError, SigningKey, VerifyingKey};
use avm_crypto::sha256::{sha256, Digest};
use avm_wire::{Decode, Encode, Reader, WireError, WireResult, Writer};

use crate::entry::{chain_hash, EntryKind, LogEntry};

/// An authenticator `a_i = (s_i, h_i, σ(s_i || h_i))`, the signed commitment
/// to a log prefix that the AVMM attaches to every outgoing message
/// (paper §4.3).
///
/// `prev_hash` (`h_{i-1}`) is included so the recipient can recompute
/// `h_i = H(h_{i-1} || s_i || SEND || H(m))` and thereby verify that entry
/// `e_i` really is `SEND(m)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Authenticator {
    /// Sequence number `s_i` of the committed entry.
    pub seq: u64,
    /// Chained hash `h_i` of the committed entry.
    pub hash: Digest,
    /// `h_{i-1}`, allowing the recipient to recompute `h_i` for the message.
    pub prev_hash: Digest,
    /// Signature over `s_i || h_i` with the machine's private key.
    pub signature: Vec<u8>,
}

impl Authenticator {
    /// Bytes covered by the authenticator signature.
    pub fn signed_payload(seq: u64, hash: &Digest) -> Vec<u8> {
        let mut payload = Vec::with_capacity(8 + 32 + 16);
        payload.extend_from_slice(b"avm-authenticator");
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(hash.as_bytes());
        payload
    }

    /// Creates an authenticator for `entry`, whose predecessor hash is `prev_hash`.
    pub fn create(key: &SigningKey, entry: &LogEntry, prev_hash: Digest) -> Authenticator {
        let signature = key.sign(&Self::signed_payload(entry.seq, &entry.hash));
        Authenticator {
            seq: entry.seq,
            hash: entry.hash,
            prev_hash,
            signature,
        }
    }

    /// Verifies the signature under `key`.
    pub fn verify_signature(&self, key: &VerifyingKey) -> Result<(), KeyError> {
        key.verify(&Self::signed_payload(self.seq, &self.hash), &self.signature)
    }

    /// Checks that this authenticator commits to an entry of `kind` whose
    /// content is `content` — i.e. recomputes
    /// `h_i = H(h_{i-1} || s_i || t_i || H(c_i))` and compares.
    pub fn commits_to(&self, kind: EntryKind, content: &[u8]) -> bool {
        chain_hash(&self.prev_hash, self.seq, kind, content) == self.hash
    }
}

impl Encode for Authenticator {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.seq);
        w.put_raw(self.hash.as_bytes());
        w.put_raw(self.prev_hash.as_bytes());
        w.put_bytes(&self.signature);
    }
}

impl Decode for Authenticator {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let seq = r.get_varint()?;
        let hash = Digest::from_slice(r.get_raw(32)?).ok_or(WireError::Corrupt("digest"))?;
        let prev_hash = Digest::from_slice(r.get_raw(32)?).ok_or(WireError::Corrupt("digest"))?;
        let signature = r.get_bytes()?.to_vec();
        Ok(Authenticator {
            seq,
            hash,
            prev_hash,
            signature,
        })
    }
}

/// An acknowledgment for a received message.
///
/// When the AVMM receives a message it logs `RECV(m)` and returns an
/// acknowledgment carrying the authenticator for that entry; a user such as
/// Alice acknowledges with "just a signed hash of the corresponding message"
/// (paper §4.3).  Both forms are represented here: `authenticator` is present
/// for AVMM-side acks and absent for plain user acks.
///
/// The acknowledged message is not carried: whoever checks an
/// acknowledgment holds the message it acknowledges, and
/// [`Acknowledgment::verify`] hashes it there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acknowledgment {
    /// Authenticator for the receiver's RECV entry (AVMM-side acks).
    pub authenticator: Option<Authenticator>,
    /// Signature over the message hash (user-side acks, or additional
    /// binding for AVMM acks).
    pub signature: Vec<u8>,
}

impl Acknowledgment {
    /// Bytes covered by the acknowledgment signature: `"avm-ack" || H(m)`.
    fn signed_payload(message: &[u8]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32 + 8);
        payload.extend_from_slice(b"avm-ack");
        payload.extend_from_slice(sha256(message).as_bytes());
        payload
    }

    /// Creates a user-side acknowledgment (signed message hash only).
    pub fn user_ack(key: &SigningKey, message: &[u8]) -> Acknowledgment {
        Acknowledgment {
            authenticator: None,
            signature: key.sign(&Self::signed_payload(message)),
        }
    }

    /// Creates an AVMM-side acknowledgment carrying the RECV authenticator.
    pub fn avmm_ack(key: &SigningKey, message: &[u8], recv_auth: Authenticator) -> Acknowledgment {
        Acknowledgment {
            authenticator: Some(recv_auth),
            signature: key.sign(&Self::signed_payload(message)),
        }
    }

    /// Verifies the acknowledgment against the acknowledged message and the
    /// receiver's key.
    ///
    /// The attached authenticator (if any) is checked for a valid signature;
    /// use [`Acknowledgment::verify_with_recv_content`] to additionally check
    /// that it commits to a specific RECV entry content.
    pub fn verify(&self, key: &VerifyingKey, message: &[u8]) -> Result<(), KeyError> {
        key.verify(&Self::signed_payload(message), &self.signature)?;
        if let Some(auth) = &self.authenticator {
            auth.verify_signature(key)?;
        }
        Ok(())
    }

    /// Verifies the acknowledgment *and* that its authenticator commits to a
    /// RECV entry with exactly `recv_entry_content` as its content `c_i`
    /// (the receiver's log format determines those bytes; for the AVMM they
    /// are the encoded `RecvRecord`).
    pub fn verify_with_recv_content(
        &self,
        key: &VerifyingKey,
        message: &[u8],
        recv_entry_content: &[u8],
    ) -> Result<(), KeyError> {
        self.verify(key, message)?;
        match &self.authenticator {
            Some(auth) if auth.commits_to(EntryKind::Recv, recv_entry_content) => Ok(()),
            _ => Err(KeyError::BadSignature),
        }
    }
}

impl Encode for Acknowledgment {
    fn encode(&self, w: &mut Writer) {
        self.authenticator.encode(w);
        w.put_bytes(&self.signature);
    }
}

impl Decode for Acknowledgment {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let authenticator = Option::<Authenticator>::decode(r)?;
        let signature = r.get_bytes()?.to_vec();
        Ok(Acknowledgment {
            authenticator,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::keys::SignatureScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> SigningKey {
        let mut rng = StdRng::seed_from_u64(77);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    #[test]
    fn authenticator_signature_verifies() {
        let k = key();
        let entry = LogEntry::chained(&Digest::ZERO, 3, EntryKind::Send, b"m".to_vec());
        let auth = Authenticator::create(&k, &entry, Digest::ZERO);
        auth.verify_signature(&k.verifying_key()).unwrap();
        assert!(auth.commits_to(EntryKind::Send, b"m"));
        assert!(!auth.commits_to(EntryKind::Send, b"other"));
        assert!(!auth.commits_to(EntryKind::Recv, b"m"));
    }

    #[test]
    fn forged_authenticator_rejected() {
        let k = key();
        let entry = LogEntry::chained(&Digest::ZERO, 3, EntryKind::Send, b"m".to_vec());
        let mut auth = Authenticator::create(&k, &entry, Digest::ZERO);
        auth.seq = 4;
        assert!(auth.verify_signature(&k.verifying_key()).is_err());
    }

    #[test]
    fn authenticator_wire_roundtrip() {
        let k = key();
        let entry = LogEntry::chained(&Digest::ZERO, 9, EntryKind::Send, b"payload".to_vec());
        let auth = Authenticator::create(&k, &entry, Digest::ZERO);
        let bytes = auth.encode_to_vec();
        assert_eq!(Authenticator::decode_exact(&bytes).unwrap(), auth);
    }

    #[test]
    fn user_ack_verifies() {
        let k = key();
        let ack = Acknowledgment::user_ack(&k, b"the message");
        ack.verify(&k.verifying_key(), b"the message").unwrap();
        assert!(ack.verify(&k.verifying_key(), b"another message").is_err());
    }

    #[test]
    fn avmm_ack_requires_matching_recv_entry() {
        let k = key();
        let recv_entry = LogEntry::chained(&Digest::ZERO, 5, EntryKind::Recv, b"msg".to_vec());
        let auth = Authenticator::create(&k, &recv_entry, Digest::ZERO);
        let ack = Acknowledgment::avmm_ack(&k, b"msg", auth.clone());
        ack.verify(&k.verifying_key(), b"msg").unwrap();
        ack.verify_with_recv_content(&k.verifying_key(), b"msg", b"msg")
            .unwrap();

        // An ack whose authenticator commits to different entry content is
        // rejected by the strong check.
        let bad_ack = Acknowledgment::avmm_ack(&k, b"other", auth);
        assert!(bad_ack
            .verify_with_recv_content(&k.verifying_key(), b"other", b"other")
            .is_err());
        // A user ack (no authenticator) also fails the strong check.
        let user = Acknowledgment::user_ack(&k, b"m");
        assert!(user
            .verify_with_recv_content(&k.verifying_key(), b"m", b"m")
            .is_err());
    }

    #[test]
    fn ack_wire_roundtrip() {
        let k = key();
        let recv_entry = LogEntry::chained(&Digest::ZERO, 5, EntryKind::Recv, b"msg".to_vec());
        let auth = Authenticator::create(&k, &recv_entry, Digest::ZERO);
        for ack in [
            Acknowledgment::user_ack(&k, b"m"),
            Acknowledgment::avmm_ack(&k, b"msg", auth),
        ] {
            let bytes = ack.encode_to_vec();
            assert_eq!(Acknowledgment::decode_exact(&bytes).unwrap(), ack);
        }
    }
}

//! The signed, authenticated wire format exchanged between machines.
//!
//! Every packet the guest emits is wrapped in an [`Envelope`] before it
//! leaves the machine: the AVMM "adds a cryptographic signature to each
//! packet" and "attaches an authenticator to each outgoing message"
//! (paper §4.3, §6.7).  Acknowledgments, challenges and challenge responses
//! use the same envelope with a different [`EnvelopeKind`].

use avm_crypto::keys::{KeyError, SigningKey, VerifyingKey};
use avm_log::{Acknowledgment, Authenticator};
use avm_wire::{Decode, Encode, Reader, WireError, WireResult, Writer};

/// What an envelope carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvelopeKind {
    /// Application data produced by the guest.
    Data,
    /// An acknowledgment for a previously received Data envelope.
    Ack,
    /// A forwarded challenge: "please answer this request or be suspected"
    /// (multi-party protocol, §4.6).
    Challenge,
    /// A response to a challenge.
    ChallengeResponse,
}

impl EnvelopeKind {
    fn tag(&self) -> u8 {
        match self {
            EnvelopeKind::Data => 1,
            EnvelopeKind::Ack => 2,
            EnvelopeKind::Challenge => 3,
            EnvelopeKind::ChallengeResponse => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<EnvelopeKind> {
        Some(match tag {
            1 => EnvelopeKind::Data,
            2 => EnvelopeKind::Ack,
            3 => EnvelopeKind::Challenge,
            4 => EnvelopeKind::ChallengeResponse,
            _ => return None,
        })
    }
}

/// A network-visible message between machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Message class.
    pub kind: EnvelopeKind,
    /// Sender node name.
    pub from: String,
    /// Recipient node name.
    pub to: String,
    /// Sender-local message number (used to match acknowledgments and
    /// retransmissions).
    pub msg_id: u64,
    /// The guest payload (Data), or an encoded [`Acknowledgment`] (Ack), or
    /// challenge material.
    pub payload: Vec<u8>,
    /// Sender's signature over the envelope header and payload.
    pub signature: Vec<u8>,
    /// Authenticator for the sender's SEND log entry (Data envelopes from an
    /// AVMM; `None` for plain user messages and acks).
    pub authenticator: Option<Authenticator>,
}

impl Envelope {
    /// Bytes covered by the envelope signature.
    fn signed_payload(
        kind: EnvelopeKind,
        from: &str,
        to: &str,
        msg_id: u64,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(payload.len() + 64);
        w.put_raw(b"avm-envelope-v1");
        w.put_u8(kind.tag());
        w.put_str(from);
        w.put_str(to);
        w.put_varint(msg_id);
        w.put_bytes(payload);
        w.into_bytes()
    }

    /// Creates and signs an envelope.
    pub fn create(
        kind: EnvelopeKind,
        from: &str,
        to: &str,
        msg_id: u64,
        payload: Vec<u8>,
        key: &SigningKey,
        authenticator: Option<Authenticator>,
    ) -> Envelope {
        let signature = key.sign(&Self::signed_payload(kind, from, to, msg_id, &payload));
        Envelope {
            kind,
            from: from.to_string(),
            to: to.to_string(),
            msg_id,
            payload,
            signature,
            authenticator,
        }
    }

    /// Creates a Data envelope carrying an acknowledgment payload.
    pub fn ack(
        from: &str,
        to: &str,
        msg_id: u64,
        ack: &Acknowledgment,
        key: &SigningKey,
    ) -> Envelope {
        Envelope::create(
            EnvelopeKind::Ack,
            from,
            to,
            msg_id,
            ack.encode_to_vec(),
            key,
            None,
        )
    }

    /// Verifies the envelope signature under the sender's key.
    pub fn verify_signature(&self, sender_key: &VerifyingKey) -> Result<(), KeyError> {
        sender_key.verify(
            &Self::signed_payload(self.kind, &self.from, &self.to, self.msg_id, &self.payload),
            &self.signature,
        )
    }

    /// Decodes the acknowledgment carried by an Ack envelope.
    pub fn decode_ack(&self) -> Option<Acknowledgment> {
        if self.kind != EnvelopeKind::Ack {
            return None;
        }
        Acknowledgment::decode_exact(&self.payload).ok()
    }
}

impl Encode for Envelope {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.kind.tag());
        w.put_str(&self.from);
        w.put_str(&self.to);
        w.put_varint(self.msg_id);
        w.put_bytes(&self.payload);
        w.put_bytes(&self.signature);
        self.authenticator.encode(w);
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let tag = r.get_u8()?;
        let kind = EnvelopeKind::from_tag(tag).ok_or(WireError::InvalidTag {
            what: "EnvelopeKind",
            tag: tag as u64,
        })?;
        Ok(Envelope {
            kind,
            from: r.get_string()?,
            to: r.get_string()?,
            msg_id: r.get_varint()?,
            payload: r.get_bytes()?.to_vec(),
            signature: r.get_bytes()?.to_vec(),
            authenticator: Option::<Authenticator>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::keys::SignatureScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    #[test]
    fn envelope_sign_verify_roundtrip() {
        let k = key(1);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            7,
            b"game update".to_vec(),
            &k,
            None,
        );
        env.verify_signature(&k.verifying_key()).unwrap();
        let bytes = env.encode_to_vec();
        let decoded = Envelope::decode_exact(&bytes).unwrap();
        assert_eq!(decoded, env);
        assert_eq!(env.encoded_len(), bytes.len());
    }

    #[test]
    fn tampered_envelope_rejected() {
        let k = key(2);
        let mut env = Envelope::create(EnvelopeKind::Data, "a", "b", 1, b"x".to_vec(), &k, None);
        env.payload = b"y".to_vec();
        assert!(env.verify_signature(&k.verifying_key()).is_err());

        let mut env2 = Envelope::create(EnvelopeKind::Data, "a", "b", 1, b"x".to_vec(), &k, None);
        env2.to = "mallory".to_string();
        assert!(env2.verify_signature(&k.verifying_key()).is_err());
    }

    #[test]
    fn wrong_sender_key_rejected() {
        let k1 = key(3);
        let k2 = key(4);
        let env = Envelope::create(EnvelopeKind::Data, "a", "b", 1, b"x".to_vec(), &k1, None);
        assert!(env.verify_signature(&k2.verifying_key()).is_err());
    }

    #[test]
    fn ack_envelope_carries_acknowledgment() {
        let k = key(5);
        let ack = Acknowledgment::user_ack(&k, b"message");
        let env = Envelope::ack("bob", "alice", 3, &ack, &k);
        assert_eq!(env.kind, EnvelopeKind::Ack);
        assert_eq!(env.decode_ack().unwrap(), ack);

        let data = Envelope::create(EnvelopeKind::Data, "a", "b", 1, vec![], &k, None);
        assert!(data.decode_ack().is_none());
    }

    #[test]
    fn null_scheme_envelopes_have_empty_signatures() {
        let mut rng = StdRng::seed_from_u64(6);
        let k = SigningKey::generate(&mut rng, SignatureScheme::Null);
        let env = Envelope::create(EnvelopeKind::Data, "a", "b", 1, b"x".to_vec(), &k, None);
        assert!(env.signature.is_empty());
        env.verify_signature(&k.verifying_key()).unwrap();
    }

    #[test]
    fn invalid_kind_tag_rejected() {
        let k = key(7);
        let env = Envelope::create(EnvelopeKind::Data, "a", "b", 1, vec![], &k, None);
        let mut bytes = env.encode_to_vec();
        bytes[0] = 99;
        assert!(Envelope::decode_exact(&bytes).is_err());
    }
}

//! Signing identities and certificates.
//!
//! The AVM design assumes that "each party has a certified keypair, which can
//! be used to sign messages" (paper §4.1, assumption 3), e.g. issued by a
//! game-server administrator or cloud operator acting as a certificate
//! authority.  This module wraps the raw RSA primitives into named signer
//! identities, adds a `Null` scheme used by the *avmm-nosig* measurement
//! configuration, and provides minimal certificates binding a name to a key.

use rand::Rng;

use crate::bignum::BigUint;
use crate::rsa::{RsaError, RsaKeyPair, RsaPublicKey, MAX_EXPONENT_BITS, MAX_MODULUS_BITS};
use crate::sha256::{sha256, Digest};

/// Signature scheme selector, mirroring the paper's measurement configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureScheme {
    /// RSA with the given modulus size in bits (the paper uses 768).
    Rsa(usize),
    /// No signatures at all (the `avmm-nosig` configuration); authenticators
    /// degrade to plain hashes and provide no non-repudiation.
    Null,
}

impl SignatureScheme {
    /// The paper's default: 768-bit RSA (§6.2).
    pub const PAPER_DEFAULT: SignatureScheme = SignatureScheme::Rsa(768);

    /// Human-readable label used by the benchmark harness.
    pub fn label(&self) -> String {
        match self {
            SignatureScheme::Rsa(bits) => format!("rsa{bits}"),
            SignatureScheme::Null => "nosig".to_string(),
        }
    }
}

/// A signing keypair owned by one party (player, server operator, auditor).
#[derive(Debug, Clone)]
pub enum SigningKey {
    /// RSA private key.
    Rsa(RsaKeyPair),
    /// The null scheme: signing produces an empty signature.
    Null,
}

/// The public, verification half of a [`SigningKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyingKey {
    /// RSA public key.
    Rsa(RsaPublicKey),
    /// The null scheme accepts only empty signatures.
    Null,
}

/// Errors from identity-level signature operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The underlying RSA operation failed.
    Rsa(RsaError),
    /// A signature did not verify.
    BadSignature,
    /// A certificate's binding did not verify.
    BadCertificate,
}

impl core::fmt::Display for KeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KeyError::Rsa(e) => write!(f, "rsa error: {e}"),
            KeyError::BadSignature => write!(f, "signature verification failed"),
            KeyError::BadCertificate => write!(f, "certificate verification failed"),
        }
    }
}

impl std::error::Error for KeyError {}

impl From<RsaError> for KeyError {
    fn from(e: RsaError) -> Self {
        KeyError::Rsa(e)
    }
}

impl SigningKey {
    /// Generates a key for `scheme`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, scheme: SignatureScheme) -> SigningKey {
        match scheme {
            SignatureScheme::Rsa(bits) => SigningKey::Rsa(RsaKeyPair::generate(rng, bits)),
            SignatureScheme::Null => SigningKey::Null,
        }
    }

    /// Returns the corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        match self {
            SigningKey::Rsa(kp) => VerifyingKey::Rsa(kp.public().clone()),
            SigningKey::Null => VerifyingKey::Null,
        }
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        match self {
            SigningKey::Rsa(kp) => kp.sign(message),
            SigningKey::Null => Vec::new(),
        }
    }

    /// Signs a precomputed digest.
    pub fn sign_digest(&self, digest: &Digest) -> Vec<u8> {
        match self {
            SigningKey::Rsa(kp) => kp.sign_digest(digest),
            SigningKey::Null => Vec::new(),
        }
    }

    /// The scheme this key belongs to.
    pub fn scheme(&self) -> SignatureScheme {
        match self {
            SigningKey::Rsa(kp) => SignatureScheme::Rsa(kp.public().n().bit_len()),
            SigningKey::Null => SignatureScheme::Null,
        }
    }
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), KeyError> {
        match self {
            VerifyingKey::Rsa(pk) => pk.verify(message, signature).map_err(KeyError::from),
            VerifyingKey::Null => {
                if signature.is_empty() {
                    Ok(())
                } else {
                    Err(KeyError::BadSignature)
                }
            }
        }
    }

    /// Verifies a signature over a precomputed digest.
    pub fn verify_digest(&self, digest: &Digest, signature: &[u8]) -> Result<(), KeyError> {
        match self {
            VerifyingKey::Rsa(pk) => pk.verify_digest(digest, signature).map_err(KeyError::from),
            VerifyingKey::Null => {
                if signature.is_empty() {
                    Ok(())
                } else {
                    Err(KeyError::BadSignature)
                }
            }
        }
    }

    /// Stable fingerprint identifying this key.
    pub fn fingerprint(&self) -> Digest {
        match self {
            VerifyingKey::Rsa(pk) => pk.fingerprint(),
            VerifyingKey::Null => sha256(b"null-key"),
        }
    }

    /// Length in bytes of signatures produced under this key (0 for `Null`).
    pub fn signature_len(&self) -> usize {
        match self {
            VerifyingKey::Rsa(pk) => pk.modulus_len(),
            VerifyingKey::Null => 0,
        }
    }

    /// Serializes the key for embedding in certificates and logs.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            VerifyingKey::Rsa(pk) => {
                let n = pk.n().to_be_bytes();
                let e = pk.e().to_be_bytes();
                let mut out = Vec::with_capacity(1 + 4 + n.len() + 4 + e.len());
                out.push(1);
                out.extend_from_slice(&(n.len() as u32).to_le_bytes());
                out.extend_from_slice(&n);
                out.extend_from_slice(&(e.len() as u32).to_le_bytes());
                out.extend_from_slice(&e);
                out
            }
            VerifyingKey::Null => vec![0],
        }
    }

    /// Deserializes a key produced by [`VerifyingKey::to_bytes`].
    ///
    /// The bytes come from a peer and an RSA key builds its Montgomery
    /// context here, which is O(bits²) work: the encoded modulus and
    /// exponent lengths are bounded ([`MAX_MODULUS_BITS`],
    /// [`MAX_EXPONENT_BITS`]) on the borrowed input before anything is
    /// copied or computed, and [`RsaPublicKey::new`] rejects small or even
    /// moduli before building the context.
    pub fn from_bytes(bytes: &[u8]) -> Option<VerifyingKey> {
        /// Splits one `u32`-length-prefixed chunk of at most `max_len` bytes
        /// off the front of `bytes`.
        fn split_chunk(bytes: &[u8], max_len: usize) -> Option<(&[u8], &[u8])> {
            let (len, rest) = bytes.split_first_chunk::<4>()?;
            let len = u32::from_le_bytes(*len) as usize;
            if len > max_len || len > rest.len() {
                return None;
            }
            Some(rest.split_at(len))
        }
        match bytes.split_first()? {
            (0, []) => Some(VerifyingKey::Null),
            (1, rest) => {
                let (n, rest) = split_chunk(rest, MAX_MODULUS_BITS / 8)?;
                let (e, rest) = split_chunk(rest, MAX_EXPONENT_BITS / 8)?;
                if !rest.is_empty() {
                    return None;
                }
                RsaPublicKey::new(BigUint::from_be_bytes(n), BigUint::from_be_bytes(e))
                    .ok()
                    .map(VerifyingKey::Rsa)
            }
            _ => None,
        }
    }
}

/// A named identity: a party in the AVM protocol (player, operator, auditor).
#[derive(Debug, Clone)]
pub struct Identity {
    /// Human-readable name ("alice", "bob", "charlie").
    pub name: String,
    /// The identity's signing key.
    pub signing_key: SigningKey,
}

impl Identity {
    /// Generates a fresh identity.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, name: &str, scheme: SignatureScheme) -> Identity {
        Identity {
            name: name.to_string(),
            signing_key: SigningKey::generate(rng, scheme),
        }
    }

    /// The verification key other parties use.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// Stable node identifier derived from the key fingerprint.
    pub fn node_id(&self) -> Digest {
        self.verifying_key().fingerprint()
    }
}

/// A certificate binding a name to a verification key, signed by an issuer
/// (e.g. the tournament administrator in the gaming scenario).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Name of the certified party.
    pub subject: String,
    /// The certified verification key.
    pub key: VerifyingKey,
    /// Issuer's signature over `subject || key`.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Issues a certificate for `subject_key` under the issuer's signing key.
    pub fn issue(issuer: &SigningKey, subject: &str, subject_key: &VerifyingKey) -> Certificate {
        let payload = Self::payload(subject, subject_key);
        Certificate {
            subject: subject.to_string(),
            key: subject_key.clone(),
            signature: issuer.sign(&payload),
        }
    }

    /// Verifies the certificate against the issuer's verification key.
    pub fn verify(&self, issuer: &VerifyingKey) -> Result<(), KeyError> {
        let payload = Self::payload(&self.subject, &self.key);
        issuer
            .verify(&payload, &self.signature)
            .map_err(|_| KeyError::BadCertificate)
    }

    fn payload(subject: &str, key: &VerifyingKey) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(b"avm-certificate-v1");
        payload.extend_from_slice(&(subject.len() as u32).to_le_bytes());
        payload.extend_from_slice(subject.as_bytes());
        payload.extend_from_slice(&key.to_bytes());
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn rsa_identity_sign_verify() {
        let mut rng = rng();
        let alice = Identity::generate(&mut rng, "alice", SignatureScheme::Rsa(512));
        let sig = alice.signing_key.sign(b"hello");
        alice.verifying_key().verify(b"hello", &sig).unwrap();
        assert_eq!(
            alice.verifying_key().verify(b"tampered", &sig),
            Err(KeyError::Rsa(RsaError::BadSignature))
        );
        assert_eq!(alice.signing_key.scheme(), SignatureScheme::Rsa(512));
    }

    #[test]
    fn null_scheme_accepts_only_empty_signatures() {
        let mut rng = rng();
        let id = Identity::generate(&mut rng, "nosig", SignatureScheme::Null);
        let sig = id.signing_key.sign(b"anything");
        assert!(sig.is_empty());
        id.verifying_key().verify(b"anything", &sig).unwrap();
        assert_eq!(
            id.verifying_key().verify(b"anything", &[1, 2, 3]),
            Err(KeyError::BadSignature)
        );
        assert_eq!(id.verifying_key().signature_len(), 0);
    }

    #[test]
    fn node_ids_are_distinct() {
        let mut rng = rng();
        let a = Identity::generate(&mut rng, "a", SignatureScheme::Rsa(512));
        let b = Identity::generate(&mut rng, "b", SignatureScheme::Rsa(512));
        assert_ne!(a.node_id(), b.node_id());
    }

    #[test]
    fn verifying_key_roundtrips_through_bytes() {
        let mut rng = rng();
        let id = Identity::generate(&mut rng, "x", SignatureScheme::Rsa(512));
        let vk = id.verifying_key();
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()).unwrap(), vk);
        assert_eq!(
            VerifyingKey::from_bytes(&VerifyingKey::Null.to_bytes()).unwrap(),
            VerifyingKey::Null
        );
        assert!(VerifyingKey::from_bytes(&[]).is_none());
        assert!(VerifyingKey::from_bytes(&[7, 7, 7]).is_none());
        let mut truncated = vk.to_bytes();
        truncated.truncate(truncated.len() - 3);
        assert!(VerifyingKey::from_bytes(&truncated).is_none());
    }

    /// Encodes an RSA key from raw modulus / exponent bytes, as a peer could.
    fn encode_rsa(n: &[u8], e: &[u8]) -> Vec<u8> {
        let mut out = vec![1];
        out.extend_from_slice(&(n.len() as u32).to_le_bytes());
        out.extend_from_slice(n);
        out.extend_from_slice(&(e.len() as u32).to_le_bytes());
        out.extend_from_slice(e);
        out
    }

    #[test]
    fn hostile_key_encodings_are_rejected_before_any_arithmetic() {
        let e = [1, 0, 1];
        let odd = |len: usize| {
            let mut n = vec![0xffu8; len];
            n[len - 1] |= 1;
            n
        };
        // Sanity: a well-formed odd 512-bit modulus parses.
        assert!(VerifyingKey::from_bytes(&encode_rsa(&odd(64), &e)).is_some());
        // Over the cap (by one byte, and grossly), under the floor, even.
        assert!(
            VerifyingKey::from_bytes(&encode_rsa(&odd(MAX_MODULUS_BITS / 8 + 1), &e)).is_none()
        );
        assert!(VerifyingKey::from_bytes(&encode_rsa(&odd(1 << 16), &e)).is_none());
        assert!(VerifyingKey::from_bytes(&encode_rsa(&odd(16), &e)).is_none());
        let mut even = odd(64);
        even[63] &= 0xfe;
        assert!(VerifyingKey::from_bytes(&encode_rsa(&even, &e)).is_none());
        // Leading zeros do not smuggle a small modulus past the floor.
        let mut padded = vec![0u8; 48];
        padded.extend_from_slice(&odd(16));
        assert!(VerifyingKey::from_bytes(&encode_rsa(&padded, &e)).is_none());
        // Exponent over 64 bits.
        assert!(VerifyingKey::from_bytes(&encode_rsa(&odd(64), &[1; 9])).is_none());
        // A length prefix that promises more than the input holds — up to
        // 4 GiB — is refused on the borrowed bytes; nothing is reserved.
        let mut lying = vec![1];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        lying.extend_from_slice(&[0xff; 8]);
        assert!(VerifyingKey::from_bytes(&lying).is_none());
        // Truncated inside either length prefix, and trailing bytes.
        let good = encode_rsa(&odd(64), &e);
        for cut in [1, 3, 5, 5 + 64, 5 + 64 + 2, good.len() - 1] {
            assert!(
                VerifyingKey::from_bytes(&good[..cut]).is_none(),
                "cut {cut}"
            );
        }
        let mut trailing = good;
        trailing.push(0);
        assert!(VerifyingKey::from_bytes(&trailing).is_none());
    }

    #[test]
    fn certificates_verify_and_reject_forgery() {
        let mut rng = rng();
        let ca = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let alice = Identity::generate(&mut rng, "alice", SignatureScheme::Rsa(512));
        let cert = Certificate::issue(&ca, "alice", &alice.verifying_key());
        cert.verify(&ca.verifying_key()).unwrap();

        // Tampering with the subject invalidates the certificate.
        let mut forged = cert.clone();
        forged.subject = "mallory".to_string();
        assert_eq!(
            forged.verify(&ca.verifying_key()),
            Err(KeyError::BadCertificate)
        );

        // A different CA key does not validate it either.
        let other_ca = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        assert!(cert.verify(&other_ca.verifying_key()).is_err());
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(SignatureScheme::Rsa(768).label(), "rsa768");
        assert_eq!(SignatureScheme::Null.label(), "nosig");
        assert_eq!(SignatureScheme::PAPER_DEFAULT, SignatureScheme::Rsa(768));
    }
}

//! RSA signatures (PKCS#1 v1.5-style, SHA-256 message digests).
//!
//! The paper's prototype signs every outgoing packet and acknowledgment with
//! a 768-bit RSA key (§6.2); the evaluation also discusses the effect of the
//! signature scheme on latency (§6.8).  This module provides key generation
//! for arbitrary modulus sizes, signing (with the CRT optimisation) and
//! verification, built solely on [`crate::bignum::BigUint`].

use rand::Rng;

use crate::bignum::{BigUint, MontgomeryCtx64};
use crate::sha256::{sha256, Digest};

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// The requested modulus size is too small to hold the padded digest.
    ModulusTooSmall(usize),
    /// A signature failed to verify.
    BadSignature,
    /// The signature bytes are malformed (e.g. numerically ≥ the modulus).
    MalformedSignature,
    /// A public key is unusable: modulus over [`MAX_MODULUS_BITS`] or even,
    /// or exponent over [`MAX_EXPONENT_BITS`].
    InvalidPublicKey,
}

impl core::fmt::Display for RsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RsaError::ModulusTooSmall(bits) => {
                write!(f, "RSA modulus of {bits} bits is too small")
            }
            RsaError::BadSignature => write!(f, "signature verification failed"),
            RsaError::MalformedSignature => write!(f, "malformed signature"),
            RsaError::InvalidPublicKey => write!(f, "invalid RSA public key"),
        }
    }
}

impl std::error::Error for RsaError {}

/// Minimum modulus size able to hold the PKCS#1-style padded SHA-256 digest.
pub const MIN_MODULUS_BITS: usize = 384;

/// Largest modulus a public key may have.  Public keys arrive from peers
/// (certificates, logs), and building one costs O(bits²), so the size is
/// capped before any arithmetic runs on it.
pub const MAX_MODULUS_BITS: usize = 8192;

/// Largest public exponent a key may have (65537 in this workspace).
pub const MAX_EXPONENT_BITS: usize = 64;

/// RSA public key.
///
/// Carries the Montgomery context for its modulus, built once by
/// [`RsaPublicKey::new`], so a verification costs only the exponentiation.
/// The fields are private so the context cannot go stale; equality is on
/// `(n, e)`.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    /// Public exponent (65537 in this workspace).
    e: BigUint,
    /// Montgomery context for — and owner of — the modulus `n = p * q`
    /// (boxed: keys are moved and stored in enums far more than verified).
    ctx: Box<MontgomeryCtx64>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

/// RSA private key with CRT parameters.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    /// The corresponding public key.
    pub public: RsaPublicKey,
    /// Private exponent.
    d: BigUint,
    /// First prime factor.
    p: BigUint,
    /// Second prime factor.
    q: BigUint,
    /// `d mod (p-1)`.
    dp: BigUint,
    /// `d mod (q-1)`.
    dq: BigUint,
    /// `q^-1 mod p`.
    qinv: BigUint,
}

/// An RSA keypair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// Private half (includes the public key).
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a keypair with a modulus of exactly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < MIN_MODULUS_BITS` — use [`RsaKeyPair::try_generate`]
    /// for a fallible variant.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RsaKeyPair {
        Self::try_generate(rng, bits).expect("modulus too small")
    }

    /// Fallible key generation.
    pub fn try_generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<RsaKeyPair, RsaError> {
        if bits < MIN_MODULUS_BITS {
            return Err(RsaError::ModulusTooSmall(bits));
        }
        if bits > MAX_MODULUS_BITS {
            return Err(RsaError::InvalidPublicKey);
        }
        let e = BigUint::from_u64(65537);
        let half = bits / 2;
        let mr_rounds = 16;
        loop {
            let p = BigUint::generate_prime(rng, half, mr_rounds);
            let q = BigUint::generate_prime(rng, bits - half, mr_rounds);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            if !e.gcd(&phi).is_one() {
                continue;
            }
            let d = match e.modinv(&phi) {
                Some(d) => d,
                None => continue,
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = match q.modinv(&p) {
                Some(v) => v,
                None => continue,
            };
            let public = RsaPublicKey::new(n, e.clone())?;
            return Ok(RsaKeyPair {
                private: RsaPrivateKey {
                    public,
                    d,
                    p,
                    q,
                    dp,
                    dq,
                    qinv,
                },
            });
        }
    }

    /// Returns the public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.private.public
    }

    /// Signs `message` (hashing it with SHA-256 first).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        self.private.sign_digest(&sha256(message))
    }

    /// Signs a precomputed digest.
    pub fn sign_digest(&self, digest: &Digest) -> Vec<u8> {
        self.private.sign_digest(digest)
    }
}

impl RsaPrivateKey {
    /// Size of the modulus in whole bytes (rounded up).
    fn modulus_len(&self) -> usize {
        self.public.modulus_len()
    }

    /// Signs a SHA-256 digest and returns the signature bytes
    /// (big-endian, padded to the modulus length).
    ///
    /// The CRT exponentiations run through the 64-bit-limb Montgomery path
    /// ([`BigUint::modpow`]), whose fixed-window table selection is a
    /// constant-time masked scan — the secret exponents `dp`/`dq` never
    /// drive a data-dependent table index.
    pub fn sign_digest(&self, digest: &Digest) -> Vec<u8> {
        let em = encode_digest(digest, self.modulus_len());
        let m = BigUint::from_be_bytes(&em);
        let s = self.modpow_crt(&m);
        s.to_be_bytes_padded(self.modulus_len())
            .expect("signature fits modulus length")
    }

    /// RSA private-key operation using the Chinese Remainder Theorem.
    fn modpow_crt(&self, m: &BigUint) -> BigUint {
        let m1 = m.modpow(&self.dp, &self.p);
        let m2 = m.modpow(&self.dq, &self.q);
        // h = qinv * (m1 - m2) mod p  (add p first to avoid underflow).
        let m2_mod_p = m2.rem(&self.p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(&self.p).sub(&m2_mod_p)
        };
        let h = self.qinv.mulmod(&diff, &self.p);
        m2.add(&h.mul(&self.q))
    }

    /// Naive non-CRT, non-Montgomery signing baseline.
    ///
    /// Retained so tests can assert the optimised path ([`Self::sign_digest`]:
    /// CRT + Montgomery fixed-window exponentiation) is bit-identical, and so
    /// benches can measure the speedup against it.
    #[doc(hidden)]
    pub fn sign_digest_slow(&self, digest: &Digest) -> Vec<u8> {
        let em = encode_digest(digest, self.modulus_len());
        let m = BigUint::from_be_bytes(&em);
        let s = m.modpow_slow(&self.d, self.public.n());
        s.to_be_bytes_padded(self.modulus_len())
            .expect("signature fits modulus length")
    }
}

impl RsaPublicKey {
    /// Builds a public key and its Montgomery context.
    ///
    /// The size and parity checks run before any arithmetic: the modulus
    /// must have between [`MIN_MODULUS_BITS`] and [`MAX_MODULUS_BITS`] bits
    /// and be odd (every product of two odd primes is), and the exponent
    /// must fit [`MAX_EXPONENT_BITS`].
    pub fn new(n: BigUint, e: BigUint) -> Result<RsaPublicKey, RsaError> {
        let bits = n.bit_len();
        if bits < MIN_MODULUS_BITS {
            return Err(RsaError::ModulusTooSmall(bits));
        }
        if bits > MAX_MODULUS_BITS || e.bit_len() > MAX_EXPONENT_BITS {
            return Err(RsaError::InvalidPublicKey);
        }
        let ctx = Box::new(MontgomeryCtx64::new(&n).ok_or(RsaError::InvalidPublicKey)?);
        Ok(RsaPublicKey { e, ctx })
    }

    /// Modulus `n = p * q`.
    pub fn n(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// Public exponent.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// Size of the modulus in whole bytes (rounded up).
    pub fn modulus_len(&self) -> usize {
        self.n().bit_len().div_ceil(8)
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        self.verify_digest(&sha256(message), signature)
    }

    /// Verifies a signature over a precomputed digest.
    pub fn verify_digest(&self, digest: &Digest, signature: &[u8]) -> Result<(), RsaError> {
        if signature.len() != self.modulus_len() {
            return Err(RsaError::MalformedSignature);
        }
        let s = BigUint::from_be_bytes(signature);
        if s >= *self.n() {
            return Err(RsaError::MalformedSignature);
        }
        let m = self.ctx.modpow(&s, &self.e);
        let em = m
            .to_be_bytes_padded(self.modulus_len())
            .ok_or(RsaError::MalformedSignature)?;
        let expected = encode_digest(digest, self.modulus_len());
        if constant_time_eq(&em, &expected) {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }

    /// Stable fingerprint of the public key (hash of `n || e`).
    pub fn fingerprint(&self) -> Digest {
        let mut data = self.n().to_be_bytes();
        data.extend_from_slice(&self.e.to_be_bytes());
        sha256(&data)
    }
}

/// EMSA-PKCS1-v1_5-style encoding: `0x00 0x01 0xFF.. 0x00 || digest`.
fn encode_digest(digest: &Digest, em_len: usize) -> Vec<u8> {
    let d = digest.as_bytes();
    // Require at least 8 bytes of 0xFF padding as PKCS#1 does.
    assert!(
        em_len >= d.len() + 11,
        "modulus too small for digest encoding"
    );
    let mut em = Vec::with_capacity(em_len);
    em.push(0x00);
    em.push(0x01);
    em.resize(em_len - d.len() - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(d);
    em
}

/// Constant-time byte-slice comparison.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keypair(bits: usize) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        RsaKeyPair::generate(&mut rng, bits)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_keypair(512);
        let msg = b"the AVMM attaches an authenticator to each outgoing message";
        let sig = kp.sign(msg);
        assert_eq!(sig.len(), kp.public().modulus_len());
        kp.public().verify(msg, &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = test_keypair(512);
        let sig = kp.sign(b"original message");
        assert_eq!(
            kp.public().verify(b"tampered message", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = test_keypair(512);
        let mut sig = kp.sign(b"message");
        sig[10] ^= 0x55;
        assert!(kp.public().verify(b"message", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = test_keypair(512);
        let mut rng = StdRng::seed_from_u64(0xB0B);
        let kp2 = RsaKeyPair::generate(&mut rng, 512);
        let sig = kp1.sign(b"message");
        assert!(kp2.public().verify(b"message", &sig).is_err());
    }

    #[test]
    fn malformed_signature_lengths() {
        let kp = test_keypair(512);
        assert_eq!(
            kp.public().verify(b"m", &[0u8; 3]),
            Err(RsaError::MalformedSignature)
        );
        // A signature numerically >= n is malformed.
        let huge = vec![0xffu8; kp.public().modulus_len()];
        assert_eq!(
            kp.public().verify(b"m", &huge),
            Err(RsaError::MalformedSignature)
        );
    }

    #[test]
    fn crt_matches_slow_path() {
        let kp = test_keypair(512);
        let digest = sha256(b"cross-check CRT");
        assert_eq!(
            kp.private.sign_digest(&digest),
            kp.private.sign_digest_slow(&digest)
        );
    }

    #[test]
    fn modulus_has_requested_size() {
        for bits in [384usize, 512] {
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let kp = RsaKeyPair::generate(&mut rng, bits);
            assert_eq!(kp.public().n().bit_len(), bits);
        }
    }

    #[test]
    fn too_small_modulus_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            RsaKeyPair::try_generate(&mut rng, 128).unwrap_err(),
            RsaError::ModulusTooSmall(128)
        );
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let kp1 = test_keypair(512);
        let mut rng = StdRng::seed_from_u64(99);
        let kp2 = RsaKeyPair::generate(&mut rng, 512);
        assert_eq!(kp1.public().fingerprint(), kp1.public().fingerprint());
        assert_ne!(kp1.public().fingerprint(), kp2.public().fingerprint());
    }
}

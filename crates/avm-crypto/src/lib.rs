//! Cryptographic substrate for the Accountable Virtual Machines reproduction.
//!
//! The AVM design (Haeberlen et al., OSDI 2010) assumes three cryptographic
//! capabilities: a collision-resistant hash function, certified signing
//! keypairs, and hash trees over snapshot state (paper §4.1, §4.3, §4.4).
//! This crate implements all of them from scratch so the rest of the
//! workspace has no external cryptographic dependencies:
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4) with incremental hashing.
//! * [`bignum`] — arbitrary-precision unsigned integers (the numeric core).
//! * [`rsa`] — RSA keypairs, PKCS#1 v1.5-style signing and verification,
//!   including the 768-bit keys the paper's evaluation uses.
//! * [`merkle`] — Merkle hash trees for authenticated snapshots.
//! * [`parallel`] — the one place the workspace starts threads: a scoped
//!   split into parts, under batched leaf hashing (the snapshot pipeline's
//!   chunk-hash stage), the audit's chain checks and its replay lanes.
//! * [`keys`] — named identities, signature-scheme selection (including the
//!   `nosig` measurement configuration) and simple certificates.
//!
//! # Example
//!
//! ```
//! use avm_crypto::keys::{Identity, SignatureScheme};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Small key for the doctest; the paper's experiments use Rsa(768).
//! let alice = Identity::generate(&mut rng, "alice", SignatureScheme::Rsa(512));
//! let sig = alice.signing_key.sign(b"SEND(m)");
//! assert!(alice.verifying_key().verify(b"SEND(m)", &sig).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bignum;
pub mod keys;
pub mod merkle;
pub mod parallel;
pub mod rsa;
pub mod sha256;

pub use bignum::{ct_select64, BigUint, MontgomeryCtx64};
pub use keys::{Certificate, Identity, KeyError, SignatureScheme, SigningKey, VerifyingKey};
pub use merkle::{MerkleProof, MerkleTree};
pub use parallel::sha256_batch;
pub use rsa::{RsaError, RsaKeyPair, RsaPublicKey};
pub use sha256::{
    sha256, sha256_concat, sha256_multi, sha256_multi_prefixed, Digest, Sha256, DIGEST_LEN,
};

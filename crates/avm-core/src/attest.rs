//! The avm-core side of accountable attestation: building and serving
//! attestation envelopes for a recording [`Avmm`].
//!
//! `avm-attest` defines the envelope semantics over digests and opaque
//! bytes; this module binds them to the concrete types of the core — the
//! [`VmImage`] whose canonical serialization gets measured chunk by chunk,
//! the [`MetaRecord`] that is log entry 1's content, and the provider's
//! signing key that seals the boot log and signs the genesis authenticator.
//!
//! Two roles:
//!
//! * **Provider**: [`build_envelope`] reproduces the measured boot an AVMM
//!   performs at launch (measure image → measure META → seal) and anchors
//!   it with the genesis authenticator; an [`Attestor`] holds the encoded
//!   envelope and answers [`AttestChallenge`]s with signed quotes.  Every
//!   piece is deterministic — the same image, name and key always produce
//!   byte-identical envelopes, which is what lets a crash-recovered
//!   provider re-serve *the* envelope, not merely an equivalent one.
//! * **Auditor**: [`LaunchPolicy`] packages the reference launch state and
//!   freshness window; [`LaunchPolicy::verify`] classifies a quote into an
//!   [`AttestVerdict`].

use avm_attest::{
    make_quote, verify_quote, AttestVerdict, AttestationEnvelope, BootEventLog, ExpectedLaunch,
    ImageMeasurement, EVENT_GENESIS, EVENT_IMAGE,
};
use avm_crypto::keys::{SignatureScheme, SigningKey, VerifyingKey};
use avm_crypto::sha256::{sha256, Digest};
use avm_log::{Authenticator, EntryKind, LogEntry};
use avm_vm::{ImageKind, VmImage};
use avm_wire::attest::{AttestChallenge, AttestQuote};
use avm_wire::Encode;

use crate::error::CoreError;
use crate::events::MetaRecord;
use crate::recorder::Avmm;

/// The canonical byte serialization of a [`VmImage`] — the exact preimage
/// of [`VmImage::digest`], laid out flat so it can be measured chunk by
/// chunk.  Two images have equal canonical bytes iff they have equal
/// digests.
pub fn image_bytes(image: &VmImage) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64 + image.disk().len());
    bytes.extend_from_slice(b"avm-image-v1");
    bytes.extend_from_slice(&(image.name().len() as u64).to_le_bytes());
    bytes.extend_from_slice(image.name().as_bytes());
    bytes.extend_from_slice(&image.mem_size().to_le_bytes());
    bytes.extend_from_slice(&(image.disk().len() as u64).to_le_bytes());
    bytes.extend_from_slice(image.disk());
    match image.kind() {
        ImageKind::Bytecode {
            code,
            load_addr,
            entry,
        } => {
            bytes.push(0u8);
            bytes.extend_from_slice(&(code.len() as u64).to_le_bytes());
            bytes.extend_from_slice(code);
            bytes.extend_from_slice(&load_addr.to_le_bytes());
            bytes.extend_from_slice(&entry.to_le_bytes());
        }
        ImageKind::Native { program, config } => {
            bytes.push(1u8);
            bytes.extend_from_slice(&(program.len() as u64).to_le_bytes());
            bytes.extend_from_slice(program.as_bytes());
            bytes.extend_from_slice(&(config.len() as u64).to_le_bytes());
            bytes.extend_from_slice(config);
        }
    }
    bytes
}

/// Chunk-granular measurement of `image`'s canonical bytes.
pub fn measure_image(image: &VmImage) -> ImageMeasurement {
    ImageMeasurement::measure(&image_bytes(image))
}

/// The META record content an honest launch of `image` as `node_name` under
/// `scheme` records as log entry 1 (must mirror [`Avmm::new`]).
pub fn expected_meta(image: &VmImage, node_name: &str, scheme: SignatureScheme) -> Vec<u8> {
    MetaRecord {
        image_digest: image.digest(),
        node_name: node_name.to_string(),
        scheme_label: scheme.label(),
    }
    .encode_to_vec()
}

/// The reference launch state an auditor expects of a provider running
/// `image` as `node_name` under `scheme`.
pub fn expected_launch(
    image: &VmImage,
    node_name: &str,
    scheme: SignatureScheme,
) -> ExpectedLaunch {
    ExpectedLaunch {
        measurement: measure_image(image),
        meta_content: expected_meta(image, node_name, scheme),
    }
}

/// Builds the attestation envelope for a launch whose META log entry is
/// `meta_entry`: re-runs the measured boot (measure image root, measure
/// META content, seal) and signs the genesis authenticator over the entry.
///
/// Deterministic: RSA signing in this workspace is deterministic, so the
/// same `(image, meta_entry, key)` always yields byte-identical envelopes.
pub fn build_envelope_from_parts(
    image: &VmImage,
    meta_entry: &LogEntry,
    key: &SigningKey,
) -> Result<AttestationEnvelope, CoreError> {
    if meta_entry.kind != EntryKind::Meta || meta_entry.seq != 1 {
        return Err(CoreError::Snapshot(
            "attestation requires the log's initial META entry".to_string(),
        ));
    }
    let measurement = measure_image(image);
    let mut boot = BootEventLog::new();
    boot.measure(EVENT_IMAGE, measurement.root.as_bytes())
        .expect("fresh boot log is unsealed");
    boot.measure(EVENT_GENESIS, &meta_entry.content)
        .expect("fresh boot log is unsealed");
    boot.seal(key);
    let genesis = Authenticator::create(key, meta_entry, Digest::ZERO);
    Ok(AttestationEnvelope {
        image: measurement,
        boot,
        meta_content: meta_entry.content.clone(),
        genesis,
    })
}

/// [`build_envelope_from_parts`] for a live recorder: uses its first log
/// entry and its signing key.  Fails if `image` is not the image the AVMM
/// actually booted.
pub fn build_envelope(avmm: &Avmm, image: &VmImage) -> Result<AttestationEnvelope, CoreError> {
    if image.digest() != avmm.image_digest() {
        return Err(CoreError::Snapshot(
            "attestation image is not the booted image".to_string(),
        ));
    }
    let meta_entry = avmm
        .log()
        .entries()
        .first()
        .ok_or_else(|| CoreError::Snapshot("empty log cannot attest".to_string()))?;
    build_envelope_from_parts(image, meta_entry, avmm.signing_key())
}

/// The provider-side attestation responder: holds one encoded envelope and
/// signs a fresh quote per challenge.
#[derive(Debug, Clone)]
pub struct Attestor {
    envelope_bytes: Vec<u8>,
    key: SigningKey,
    /// Tamper harness: when set, every challenge is answered with this
    /// canned quote — a replay attack in a box.
    replayed: Option<AttestQuote>,
}

impl Attestor {
    /// An attestor serving `envelope`, signing quotes with `key`.
    pub fn new(envelope: &AttestationEnvelope, key: SigningKey) -> Attestor {
        Attestor::from_envelope_bytes(envelope.encode_to_vec(), key)
    }

    /// An attestor serving already-encoded envelope bytes (e.g. the bytes a
    /// recovered provider loaded back from its blob arena).
    pub fn from_envelope_bytes(envelope_bytes: Vec<u8>, key: SigningKey) -> Attestor {
        Attestor {
            envelope_bytes,
            key,
            replayed: None,
        }
    }

    /// An attestor for a live recorder's launch.
    pub fn for_avmm(avmm: &Avmm, image: &VmImage) -> Result<Attestor, CoreError> {
        let envelope = build_envelope(avmm, image)?;
        Ok(Attestor::new(&envelope, avmm.signing_key().clone()))
    }

    /// The encoded envelope this attestor serves.
    pub fn envelope_bytes(&self) -> &[u8] {
        &self.envelope_bytes
    }

    /// Digest of the served envelope.
    pub fn envelope_digest(&self) -> Digest {
        sha256(&self.envelope_bytes)
    }

    /// Tamper harness: answer every challenge by replaying `quote` instead
    /// of signing a fresh one (the stale-nonce attack).
    pub fn with_replayed_quote(mut self, quote: AttestQuote) -> Attestor {
        self.replayed = Some(quote);
        self
    }

    /// Answers `challenge` with a quote binding the envelope to its nonce.
    pub fn quote(&self, challenge: &AttestChallenge) -> AttestQuote {
        if let Some(canned) = &self.replayed {
            return canned.clone();
        }
        make_quote(&self.envelope_bytes, challenge, &self.key)
    }
}

/// The auditor-side attestation policy: reference launch state and the
/// provider's key.  A quote must answer a challenge issued within
/// [`avm_wire::attest::DEFAULT_FRESHNESS_US`].
#[derive(Debug, Clone)]
pub struct LaunchPolicy {
    /// The reference launch (image measurement + expected META content).
    pub expected: ExpectedLaunch,
    /// The provider's verification key.
    pub provider_key: VerifyingKey,
}

impl LaunchPolicy {
    /// A policy expecting `image` run as `node_name` under `scheme`.
    pub fn new(
        image: &VmImage,
        node_name: &str,
        scheme: SignatureScheme,
        provider_key: VerifyingKey,
    ) -> LaunchPolicy {
        LaunchPolicy {
            expected: expected_launch(image, node_name, scheme),
            provider_key,
        }
    }

    /// Verifies `quote` against `challenge` at verifier time `now_us`.
    pub fn verify(
        &self,
        quote: &AttestQuote,
        challenge: &AttestChallenge,
        now_us: u64,
    ) -> (AttestVerdict, Option<AttestationEnvelope>) {
        verify_quote(
            quote,
            challenge,
            now_us,
            avm_wire::attest::DEFAULT_FRESHNESS_US,
            &self.expected,
            &self.provider_key,
        )
    }
}

/// Derives a deterministic-but-session-unique challenge nonce.  Real
/// deployments draw nonces from an RNG; the simulation derives them from
/// the session id and issue time so runs are reproducible while still
/// giving every auditor session a distinct nonce.
pub fn challenge_nonce(session_id: u64, issued_at_us: u64) -> [u8; 32] {
    let mut preimage = Vec::with_capacity(32);
    preimage.extend_from_slice(b"avm-attest-nonce");
    preimage.extend_from_slice(&session_id.to_le_bytes());
    preimage.extend_from_slice(&issued_at_us.to_le_bytes());
    *sha256(&preimage).as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{key, record_with_snapshots};

    #[test]
    fn image_bytes_is_the_digest_preimage() {
        let (_, image) = record_with_snapshots(1);
        assert_eq!(sha256(&image_bytes(&image)), image.digest());
    }

    #[test]
    fn envelope_is_deterministic_and_verifies() {
        let (bob, image) = record_with_snapshots(2);
        let a = build_envelope(&bob, &image).unwrap();
        let b = build_envelope(&bob, &image).unwrap();
        assert_eq!(a.encode_to_vec(), b.encode_to_vec());

        let policy = LaunchPolicy::new(
            &image,
            "bob",
            avm_crypto::keys::SignatureScheme::Rsa(512),
            key(1).verifying_key(),
        );
        let challenge = AttestChallenge {
            nonce: challenge_nonce(1, 100),
            issued_at_us: 100,
        };
        let attestor = Attestor::for_avmm(&bob, &image).unwrap();
        let quote = attestor.quote(&challenge);
        let (verdict, envelope) = policy.verify(&quote, &challenge, 200);
        assert_eq!(verdict, AttestVerdict::Verified);
        assert_eq!(envelope.unwrap(), a);
    }

    #[test]
    fn wrong_image_is_rejected_at_build_time() {
        let (bob, _) = record_with_snapshots(1);
        let other = VmImage::bytecode("other", 64 * 1024, vec![0u8; 4], 0, 0);
        assert!(build_envelope(&bob, &other).is_err());
    }

    #[test]
    fn replayed_quotes_are_stale() {
        let (bob, image) = record_with_snapshots(1);
        let policy = LaunchPolicy::new(
            &image,
            "bob",
            avm_crypto::keys::SignatureScheme::Rsa(512),
            key(1).verifying_key(),
        );
        let old = AttestChallenge {
            nonce: challenge_nonce(7, 50),
            issued_at_us: 50,
        };
        let attestor = Attestor::for_avmm(&bob, &image).unwrap();
        let replayer = attestor.clone().with_replayed_quote(attestor.quote(&old));
        let fresh = AttestChallenge {
            nonce: challenge_nonce(1, 400),
            issued_at_us: 400,
        };
        let (verdict, _) = policy.verify(&replayer.quote(&fresh), &fresh, 500);
        assert_eq!(verdict, AttestVerdict::StaleNonce);
    }
}

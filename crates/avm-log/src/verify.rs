//! Syntactic verification of log segments against authenticators.
//!
//! This is the first half of an audit (paper §4.5): before replaying
//! anything, the auditor checks that the log segment it downloaded is
//! *genuine* — the hash chain is intact, the sequence numbers are dense, and
//! every authenticator the auditor has previously collected matches the
//! corresponding entry.  A machine that has tampered with, reordered, or
//! forked its log cannot pass this check.

use avm_crypto::keys::VerifyingKey;
use avm_crypto::sha256::{sha256_multi, Digest};

use crate::auth::Authenticator;
use crate::entry::EntryView;

/// Reasons a log segment fails syntactic verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogVerifyError {
    /// The segment is empty.
    EmptySegment,
    /// Sequence numbers are not dense and increasing.
    BadSequence {
        /// Sequence number that was expected.
        expected: u64,
        /// Sequence number that was found.
        found: u64,
    },
    /// An entry's hash does not extend the chain correctly (tampering).
    BrokenChain {
        /// Sequence number of the offending entry.
        seq: u64,
    },
    /// An authenticator's signature is invalid.
    BadAuthenticatorSignature {
        /// Sequence number the authenticator claims to commit to.
        seq: u64,
    },
    /// An authenticator refers to a sequence number outside the segment.
    AuthenticatorOutOfRange {
        /// Sequence number the authenticator refers to.
        seq: u64,
        /// First sequence number in the segment.
        first: u64,
        /// Last sequence number in the segment.
        last: u64,
    },
    /// An authenticator does not match the entry with the same sequence
    /// number — the machine forked or rewrote its log.
    AuthenticatorMismatch {
        /// Sequence number at which the mismatch was detected.
        seq: u64,
    },
}

impl core::fmt::Display for LogVerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LogVerifyError::EmptySegment => write!(f, "empty log segment"),
            LogVerifyError::BadSequence { expected, found } => {
                write!(f, "bad sequence number: expected {expected}, found {found}")
            }
            LogVerifyError::BrokenChain { seq } => {
                write!(f, "hash chain broken at sequence {seq}")
            }
            LogVerifyError::BadAuthenticatorSignature { seq } => {
                write!(f, "invalid authenticator signature for sequence {seq}")
            }
            LogVerifyError::AuthenticatorOutOfRange { seq, first, last } => {
                write!(
                    f,
                    "authenticator for sequence {seq} outside segment [{first}, {last}]"
                )
            }
            LogVerifyError::AuthenticatorMismatch { seq } => {
                write!(
                    f,
                    "authenticator does not match log entry at sequence {seq}"
                )
            }
        }
    }
}

impl std::error::Error for LogVerifyError {}

/// Summary of a successfully verified segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSummary {
    /// First sequence number in the segment.
    pub first_seq: u64,
    /// Last sequence number in the segment.
    pub last_seq: u64,
    /// Hash of the final entry (the new chain head).
    pub final_hash: Digest,
    /// Number of authenticators that were checked against the segment.
    pub authenticators_checked: usize,
}

/// Entries hashed per batch by [`verify_chain`]: a whole number of
/// eight-lane groups, small enough that the scratch buffers (one content
/// hash, one 73-byte link and one link hash per entry) stay a few KiB
/// however long the segment is.
pub const CHAIN_BLOCK: usize = 64;

/// Length of the link preimage `h_{i-1} || s_i || t_i || H(c_i)`.
const LINK_LEN: usize = 32 + 8 + 1 + 32;

/// The one chain check: `entries` have dense sequence numbers counting up
/// from `entries[0].seq`, and every entry's hash extends the chain from
/// `prev` (the hash of the entry before the first; `h_0 = 0` at the start of
/// a log).
///
/// Entry `i` is checked against the hash entry `i-1` *claims*, not one
/// recomputed for it — if that claim is false, entry `i-1` is itself
/// reported first — so the entries are independent of one another and are
/// hashed [`CHAIN_BLOCK`] at a time through the multi-buffer SHA-256 core:
/// content hashes, then the 73-byte links, eight lanes each.  An in-order
/// scan then reports the first offending entry, the same error an
/// entry-at-a-time [`LogEntry::verify_against`] loop reports.
///
/// Generic over the [`EntryView`]: an owned log and a segment still sitting
/// in the packet it arrived in are checked by the same code, each content
/// byte hashed from wherever the view says it is.
///
/// [`LogEntry::verify_against`]: crate::LogEntry::verify_against
pub fn verify_chain<E: EntryView>(prev: &Digest, entries: &[E]) -> Result<(), LogVerifyError> {
    let Some(first) = entries.first() else {
        return Ok(());
    };
    let mut expected = first.seq();
    let mut prev = *prev;
    for block in entries.chunks(CHAIN_BLOCK) {
        let contents: Vec<&[u8]> = block.iter().map(|e| e.content()).collect();
        let content_hashes = sha256_multi(&contents);
        let mut links = Vec::with_capacity(block.len());
        for (entry, content_hash) in block.iter().zip(&content_hashes) {
            let mut link = [0u8; LINK_LEN];
            link[..32].copy_from_slice(prev.as_bytes());
            link[32..40].copy_from_slice(&entry.seq().to_le_bytes());
            link[40] = entry.kind().tag();
            link[41..].copy_from_slice(content_hash.as_bytes());
            links.push(link);
            prev = entry.hash();
        }
        let link_views: Vec<&[u8]> = links.iter().map(|l| l.as_slice()).collect();
        let hashes = sha256_multi(&link_views);
        for (entry, hash) in block.iter().zip(&hashes) {
            if entry.seq() != expected {
                return Err(LogVerifyError::BadSequence {
                    expected,
                    found: entry.seq(),
                });
            }
            if *hash != entry.hash() {
                return Err(LogVerifyError::BrokenChain { seq: entry.seq() });
            }
            // Wrapping: a hostile first seq near u64::MAX must not panic.
            expected = expected.wrapping_add(1);
        }
    }
    Ok(())
}

/// Verifies a log segment.
///
/// * `prev_hash` — hash of the entry immediately before the segment
///   (`h_0 = 0` when the segment starts the log).
/// * `segment` — the entries, in order.
/// * `authenticators` — authenticators previously collected from the audited
///   machine; each must carry a valid signature under `machine_key` and must
///   match the entry with the same sequence number.
pub fn verify_segment<E: EntryView>(
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
) -> Result<SegmentSummary, LogVerifyError> {
    let first_seq = segment.first().ok_or(LogVerifyError::EmptySegment)?.seq();
    let last = segment.last().expect("non-empty");
    let last_seq = last.seq();

    // 1. Dense sequence numbers and intact hash chain.
    verify_chain(prev_hash, segment)?;

    // 2. Every collected authenticator matches the corresponding entry.
    for auth in authenticators {
        auth.verify_signature(machine_key)
            .map_err(|_| LogVerifyError::BadAuthenticatorSignature { seq: auth.seq })?;
        if auth.seq < first_seq || auth.seq > last_seq {
            return Err(LogVerifyError::AuthenticatorOutOfRange {
                seq: auth.seq,
                first: first_seq,
                last: last_seq,
            });
        }
        let idx = (auth.seq - first_seq) as usize;
        let entry_prev = if idx == 0 {
            *prev_hash
        } else {
            segment[idx - 1].hash()
        };
        if segment[idx].hash() != auth.hash || entry_prev != auth.prev_hash {
            return Err(LogVerifyError::AuthenticatorMismatch { seq: auth.seq });
        }
    }

    Ok(SegmentSummary {
        first_seq,
        last_seq,
        final_hash: last.hash(),
        authenticators_checked: authenticators.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{EntryKind, LogEntry};
    use crate::log::TamperEvidentLog;
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> SigningKey {
        let mut rng = StdRng::seed_from_u64(11);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn build(n: u64, k: &SigningKey) -> (TamperEvidentLog, Vec<Authenticator>) {
        let mut log = TamperEvidentLog::new();
        let mut auths = Vec::new();
        for i in 0..n {
            let (_, auth) =
                log.append_authenticated(EntryKind::Send, format!("m{i}").into_bytes(), k);
            auths.push(auth);
        }
        (log, auths)
    }

    #[test]
    fn honest_log_verifies() {
        let k = key();
        let (log, auths) = build(12, &k);
        let (prev, seg) = log.segment(1, 12).unwrap();
        let summary = verify_segment(&prev, &seg, &auths, &k.verifying_key()).unwrap();
        assert_eq!(summary.first_seq, 1);
        assert_eq!(summary.last_seq, 12);
        assert_eq!(summary.final_hash, log.last_hash());
        assert_eq!(summary.authenticators_checked, 12);
    }

    #[test]
    fn partial_segment_verifies_with_matching_authenticators() {
        let k = key();
        let (log, auths) = build(20, &k);
        let (prev, seg) = log.segment(5, 15).unwrap();
        let subset: Vec<_> = auths
            .iter()
            .filter(|a| a.seq >= 5 && a.seq <= 15)
            .cloned()
            .collect();
        verify_segment(&prev, &seg, &subset, &k.verifying_key()).unwrap();
    }

    #[test]
    fn empty_segment_rejected() {
        let k = key();
        assert_eq!(
            verify_segment::<LogEntry>(&Digest::ZERO, &[], &[], &k.verifying_key()).unwrap_err(),
            LogVerifyError::EmptySegment
        );
    }

    #[test]
    fn tampered_content_detected() {
        let k = key();
        let (log, auths) = build(8, &k);
        let (prev, mut seg) = log.segment(1, 8).unwrap();
        seg[3].content = b"forged".to_vec();
        assert_eq!(
            verify_segment(&prev, &seg, &auths, &k.verifying_key()).unwrap_err(),
            LogVerifyError::BrokenChain { seq: 4 }
        );
    }

    #[test]
    fn dropped_entry_detected() {
        let k = key();
        let (log, _) = build(8, &k);
        let (prev, mut seg) = log.segment(1, 8).unwrap();
        seg.remove(3);
        let err = verify_segment(&prev, &seg, &[], &k.verifying_key()).unwrap_err();
        assert_eq!(
            err,
            LogVerifyError::BadSequence {
                expected: 4,
                found: 5
            }
        );
    }

    #[test]
    fn forked_log_detected_by_authenticator_mismatch() {
        let k = key();
        // The machine hands out authenticators for one history ...
        let (_, auths) = build(6, &k);
        // ... but later presents a different log with the same seq numbers.
        let mut other = TamperEvidentLog::new();
        for i in 0..6u64 {
            other.append(EntryKind::Send, format!("rewritten-{i}").into_bytes());
        }
        let (prev, seg) = other.segment(1, 6).unwrap();
        let err = verify_segment(&prev, &seg, &auths, &k.verifying_key()).unwrap_err();
        assert!(matches!(err, LogVerifyError::AuthenticatorMismatch { .. }));
    }

    #[test]
    fn authenticator_with_bad_signature_detected() {
        let k = key();
        let (log, mut auths) = build(4, &k);
        auths[2].signature[5] ^= 0xff;
        let (prev, seg) = log.segment(1, 4).unwrap();
        assert_eq!(
            verify_segment(&prev, &seg, &auths, &k.verifying_key()).unwrap_err(),
            LogVerifyError::BadAuthenticatorSignature { seq: 3 }
        );
    }

    #[test]
    fn authenticator_outside_segment_detected() {
        let k = key();
        let (log, auths) = build(10, &k);
        let (prev, seg) = log.segment(1, 5).unwrap();
        let err = verify_segment(&prev, &seg, &auths, &k.verifying_key()).unwrap_err();
        assert!(matches!(
            err,
            LogVerifyError::AuthenticatorOutOfRange { .. }
        ));
    }

    #[test]
    fn wrong_machine_key_detected() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(999);
        let other = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let (log, auths) = build(4, &k);
        let (prev, seg) = log.segment(1, 4).unwrap();
        assert!(verify_segment(&prev, &seg, &auths, &other.verifying_key()).is_err());
    }
}

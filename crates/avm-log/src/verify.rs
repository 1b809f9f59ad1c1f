//! Syntactic verification of log segments against authenticators.
//!
//! This is the first half of an audit (paper §4.5): before replaying
//! anything, the auditor checks that the log segment it downloaded is
//! *genuine* — the hash chain is intact, the sequence numbers are dense, and
//! every authenticator the auditor has previously collected matches the
//! corresponding entry.  A machine that has tampered with, reordered, or
//! forked its log cannot pass this check.
//!
//! A long segment is checked on every core.  Each entry is checked against
//! the hash its predecessor *claims*, so any contiguous range of entries can
//! be checked on its own: [`verify_chain`] and [`verify_segment`] cut a
//! segment of at least [`SPLIT_THRESHOLD`] entries into contiguous parts,
//! two per core ([`parts_for`]), check part `i` against the claimed hash of
//! the entry before its first on a scoped thread, and the authenticators in
//! contiguous parts of their list beside it.  Of the parts' results the
//! first error in seq order wins — in list order for authenticators, and a
//! chain error before any authenticator error — which is exactly the
//! `Result` the serial scan returns.  A shorter segment, or any segment on
//! a one-core host, is checked on the calling thread and spawns nothing.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

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

/// Entries hashed per batch by the chain check: a whole number of
/// eight-lane groups, small enough that the scratch buffers (one content
/// hash, one 73-byte link and one link hash per entry) stay a few KiB
/// however long the segment is.
pub const CHAIN_BLOCK: usize = 64;

/// Entries from which [`verify_chain`] and [`verify_segment`] split a
/// segment across threads, every part at least half this long.
///
/// Measured on a 2-vCPU x86-64 host (release build): spawning and joining
/// one scoped thread costs about 36 µs, and checking one entry of a game log
/// about 0.24 µs of chain hashing plus its share of the authenticator
/// signatures — so a part of 2 048 entries carries about 0.5 ms of work and
/// the spawn stays under a tenth of it.  The whole-log audits of a game
/// session (tens of thousands of entries per client) split; a §3.5
/// spot-check chunk (tens to hundreds of entries) never does.
pub const SPLIT_THRESHOLD: usize = 4096;

/// How many parts a check of `len` entries runs in on this host: one below
/// [`SPLIT_THRESHOLD`] or on a one-core host, otherwise two per core with
/// every part at least `SPLIT_THRESHOLD / 2` entries long.
///
/// Two per core, not one: a whole-log audit replays beside its syntactic
/// phase (`avm_core::audit::audit_log`), and parts of half the size still
/// even out across the cores once the replay occupies one of them.  On a
/// 2-vCPU host, a 30k-entry game log's syntactic phase beside its replay
/// took about 7.9 ms in 2 parts and 6.7 ms in 4, against 11.1 ms for the
/// two phases in sequence; its chain check alone took about 7.1 ms in one
/// part, 3.9 ms in 2 and 4.4 ms in 4.
pub fn parts_for(len: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    if len < SPLIT_THRESHOLD || cores == 1 {
        return 1;
    }
    (2 * cores).min(len / (SPLIT_THRESHOLD / 2))
}

/// The `i`-th of the `parts` contiguous ranges `0..len` is cut into.
fn part(len: usize, parts: usize, i: usize) -> Range<usize> {
    i * len / parts..(i + 1) * len / parts
}

/// `check(i)` for every part `i < parts`, in part order: part 0 on the
/// calling thread, every other on a scoped thread of its own (or on the
/// calling thread too, should the host refuse a thread).  Scoped, not
/// `avm_crypto::parallel`'s parked pool: a part borrows the entries where
/// they lie — in the packet, for an audit — and a pool worker could only
/// take an owned copy.
fn in_parts<R: Send>(parts: usize, check: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if parts <= 1 {
        return vec![check(0)];
    }
    std::thread::scope(|scope| {
        let check = &check;
        let spawned: Vec<_> = (1..parts)
            .map(|i| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || check(i))
                    .map_err(|_| i)
            })
            .collect();
        let mut results = Vec::with_capacity(parts);
        results.push(check(0));
        for handle in spawned {
            results.push(match handle {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                Err(i) => check(i),
            });
        }
        results
    })
}

/// Length of the link preimage `h_{i-1} || s_i || t_i || H(c_i)`.
const LINK_LEN: usize = 32 + 8 + 1 + 32;

/// The one chain check, of the entries at `range` of `entries`: their
/// sequence numbers count up densely from `entries[0].seq` and every one's
/// hash extends the chain from `prev` (the hash of the entry before the
/// segment; `h_0 = 0` at the start of a log).  The first entry of the range
/// is checked against the hash the entry before it *claims* — `prev` for
/// the segment's first — so a range is checked without the ones before it.
///
/// Entries are hashed [`CHAIN_BLOCK`] at a time through the multi-buffer
/// SHA-256 core: content hashes, then the 73-byte links, eight lanes each.
/// An in-order scan then reports the range's first offending entry.
fn chain_part<E: EntryView>(
    prev: &Digest,
    entries: &[E],
    range: Range<usize>,
) -> Result<(), LogVerifyError> {
    let Some(first) = entries.first() else {
        return Ok(());
    };
    // Wrapping: a hostile first seq near u64::MAX must not panic.
    let mut expected = first.seq().wrapping_add(range.start as u64);
    let mut prev = match range.start {
        0 => *prev,
        start => entries[start - 1].hash(),
    };
    for block in entries[range].chunks(CHAIN_BLOCK) {
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
            expected = expected.wrapping_add(1);
        }
    }
    Ok(())
}

/// The chain check: `entries` have dense sequence numbers counting up from
/// `entries[0].seq`, and every entry's hash extends the chain from `prev`
/// (the hash of the entry before the first; `h_0 = 0` at the start of a
/// log).
///
/// Entry `i` is checked against the hash entry `i-1` *claims*, not one
/// recomputed for it — if that claim is false, entry `i-1` is itself
/// reported first — so the entries are independent of one another: they
/// are hashed [`CHAIN_BLOCK`] at a time through the multi-buffer SHA-256
/// core, and a segment of [`SPLIT_THRESHOLD`] entries or more is cut into
/// [`parts_for`] contiguous parts checked side by side (module docs).  The
/// first offending entry in seq order is reported, the same error an
/// entry-at-a-time [`LogEntry::verify_against`] loop reports.
///
/// Generic over the [`EntryView`]: an owned log and a segment still sitting
/// in the packet it arrived in are checked by the same code, each content
/// byte hashed from wherever the view says it is.
///
/// [`LogEntry::verify_against`]: crate::LogEntry::verify_against
pub fn verify_chain<E: EntryView>(prev: &Digest, entries: &[E]) -> Result<(), LogVerifyError> {
    chain_in_parts(prev, entries, parts_for(entries.len()))
}

/// [`verify_chain`] cut into `parts` contiguous parts (at least one, at
/// most one per entry; part `i` starts at entry `i * len / parts`) whatever
/// the host: the split itself, which the differential tests hold to the
/// serial scan on any number of cores.
pub fn chain_in_parts<E: EntryView>(
    prev: &Digest,
    entries: &[E],
    parts: usize,
) -> Result<(), LogVerifyError> {
    let parts = parts.clamp(1, entries.len().max(1));
    in_parts(parts, |i| {
        chain_part(prev, entries, part(entries.len(), parts, i))
    })
    .into_iter()
    .collect()
}

/// Verifies a log segment.
///
/// * `prev_hash` — hash of the entry immediately before the segment
///   (`h_0 = 0` when the segment starts the log).
/// * `segment` — the entries, in order.
/// * `authenticators` — authenticators previously collected from the audited
///   machine; each must carry a valid signature under `machine_key` and must
///   match the entry with the same sequence number.
///
/// The result is the serial scan's: the chain's first error, else the first
/// authenticator in list order that fails.  A segment of
/// [`SPLIT_THRESHOLD`] entries or more is checked in [`parts_for`] parts
/// side by side — each a contiguous range of the chain and a contiguous
/// share of the authenticator list (module docs).
pub fn verify_segment<E: EntryView>(
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
) -> Result<SegmentSummary, LogVerifyError> {
    segment_in_parts(
        prev_hash,
        segment,
        authenticators,
        machine_key,
        parts_for(segment.len()),
    )
}

/// [`verify_segment`] cut into `parts` parts (at least one, at most one per
/// entry) whatever the host, like [`chain_in_parts`].
pub fn segment_in_parts<E: EntryView>(
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
    parts: usize,
) -> Result<SegmentSummary, LogVerifyError> {
    let first_seq = segment.first().ok_or(LogVerifyError::EmptySegment)?.seq();
    let last = segment.last().expect("non-empty");
    let last_seq = last.seq();
    let parts = parts.clamp(1, segment.len());

    // Per part: 1. dense sequence numbers and an intact hash chain over its
    // range; 2. every collected authenticator in its share of the list
    // matches the corresponding entry.  A part whose chain fails skips its
    // authenticators: a chain error is the verdict whatever they say.
    let (chain, auths): (Vec<_>, Vec<_>) = in_parts(parts, |i| {
        let chain = chain_part(prev_hash, segment, part(segment.len(), parts, i));
        let auths = match chain {
            Ok(()) => authenticators[part(authenticators.len(), parts, i)]
                .iter()
                .try_for_each(|auth| check_authenticator(auth, prev_hash, segment, machine_key)),
            Err(_) => Ok(()),
        };
        (chain, auths)
    })
    .into_iter()
    .unzip();
    chain.into_iter().collect::<Result<(), _>>()?;
    auths.into_iter().collect::<Result<(), _>>()?;

    Ok(SegmentSummary {
        first_seq,
        last_seq,
        final_hash: last.hash(),
        authenticators_checked: authenticators.len(),
    })
}

/// One collected authenticator against the non-empty `segment`: a valid
/// signature, a seq inside the segment, and the hashes of that entry and of
/// the one before it.
fn check_authenticator<E: EntryView>(
    auth: &Authenticator,
    prev_hash: &Digest,
    segment: &[E],
    machine_key: &VerifyingKey,
) -> Result<(), LogVerifyError> {
    let (first_seq, last_seq) = (segment[0].seq(), segment[segment.len() - 1].seq());
    auth.verify_signature(machine_key)
        .map_err(|_| LogVerifyError::BadAuthenticatorSignature { seq: auth.seq })?;
    if auth.seq < first_seq || auth.seq > last_seq {
        return Err(LogVerifyError::AuthenticatorOutOfRange {
            seq: auth.seq,
            first: first_seq,
            last: last_seq,
        });
    }
    // A chain that passed puts seq `first_seq + idx` at `idx`.  Checked in
    // parts, this may run beside a part whose chain fails, with seqs that
    // are not dense; that part's error is then the verdict, and a seq with
    // no entry at its index only has to be some error.
    let idx = usize::try_from(auth.seq - first_seq).unwrap_or(usize::MAX);
    let Some(entry) = segment.get(idx) else {
        return Err(LogVerifyError::AuthenticatorMismatch { seq: auth.seq });
    };
    let entry_prev = match idx {
        0 => *prev_hash,
        _ => segment[idx - 1].hash(),
    };
    if entry.hash() != auth.hash || entry_prev != auth.prev_hash {
        return Err(LogVerifyError::AuthenticatorMismatch { seq: auth.seq });
    }
    Ok(())
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

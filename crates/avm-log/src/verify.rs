//! Syntactic verification of log segments against authenticators.
//!
//! This is the first half of an audit (paper §4.5): before replaying
//! anything, the auditor checks that the log segment it downloaded is
//! *genuine* — the hash chain is intact, the sequence numbers are dense, and
//! every authenticator the auditor has previously collected matches the
//! corresponding entry.  A machine that has tampered with, reordered, or
//! forked its log cannot pass this check.
//!
//! A long segment is checked on every core.  Each run of entries is hashed
//! from the hash the entry before it *claims* (see [`verify_chain`]), so
//! any contiguous range of whole runs can be checked on its own:
//! [`verify_chain`] and [`verify_segment`] cut a segment of at least
//! [`SPLIT_THRESHOLD`] entries into contiguous parts, two per core
//! ([`parts_for`]), each starting at a run boundary, check part `i` from
//! the claim before its first entry on a scoped thread
//! ([`avm_crypto::parallel::in_parts`]: the part borrows the entries where
//! they lie — in the packet, for an audit), and verify the signatures of
//! contiguous parts of the authenticator list beside it.  Of
//! the parts' results the first error in seq order wins, and a chain error
//! before any authenticator error; the authenticators are then matched in
//! list order against the hashes the parts computed — exactly the `Result`
//! the serial scan returns.  A shorter segment, or any segment on a
//! one-core host, is checked on the calling thread and spawns nothing.

use std::ops::Range;

use avm_crypto::keys::VerifyingKey;
use avm_crypto::parallel::{cores, in_parts};
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
    /// The hash of every entry, in order ([`Chain::hashes`]).
    pub hashes: Vec<Digest>,
}

/// Runs hashed side by side by the chain check: a whole number of
/// eight-lane groups, small enough that the scratch buffers (one content
/// hash, one 73-byte link and one link hash per run) stay a few KiB
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
    let cores = cores();
    if len < SPLIT_THRESHOLD || cores == 1 {
        return 1;
    }
    (2 * cores).min(len / (SPLIT_THRESHOLD / 2))
}

/// The `i`-th of the `parts` contiguous ranges `0..len` is cut into.
fn part(len: usize, parts: usize, i: usize) -> Range<usize> {
    i * len / parts..(i + 1) * len / parts
}

/// Length of the link preimage `h_{i-1} || s_i || t_i || H(c_i)`.
const LINK_LEN: usize = 32 + 8 + 1 + 32;

/// What [`verify_chain`] found: the hash of every entry, and the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// `h_i` of every entry, in order: its claim where it makes one, else
    /// the hash computed from the claim before it.
    pub hashes: Vec<Digest>,
    /// The first fault in seq order, or `Ok`.
    pub verdict: Result<(), LogVerifyError>,
}

/// The `parts` contiguous ranges `entries` is checked in, each paired with
/// its share of `hashes` (one slot per entry): part `i` starts at the first
/// entry at or after `i * len / parts` that follows a claim (or at 0), so
/// every part is made of whole runs.
fn run_parts<'h, E: EntryView>(
    entries: &[E],
    parts: usize,
    mut hashes: &'h mut [Digest],
) -> Vec<(Range<usize>, &'h mut [Digest])> {
    let len = entries.len();
    let mut starts: Vec<usize> = (0..parts)
        .map(|i| {
            let mut start = part(len, parts, i).start;
            while start > 0 && start < len && entries[start - 1].claim().is_none() {
                start += 1;
            }
            start
        })
        .collect();
    starts.push(len);
    starts
        .windows(2)
        .map(|w| {
            let (share, rest) = std::mem::take(&mut hashes).split_at_mut(w[1] - w[0]);
            hashes = rest;
            (w[0]..w[1], share)
        })
        .collect()
}

/// The one chain check, of the entries at `range` of `entries` — whole runs,
/// so the entry before the range (if any) claims its hash.  Their sequence
/// numbers count up densely from `entries[0].seq`, and every *run* of
/// entries up to one that claims its hash is hashed from the claim before
/// it (`prev` for the segment's first) and must reach that claim.  A range
/// is thereby checked without the ones before it.
///
/// Runs are hashed side by side through the multi-buffer SHA-256 core,
/// [`CHAIN_BLOCK`] at a time, one entry of each per step: content hashes,
/// then the 73-byte links.  The range's first fault in entry order is
/// reported — at an entry whose seq is wrong, or at the claim its run does
/// not reach (a seq error first where both fall on one entry) — and every
/// entry gets its hash either way, the claim where it makes one.  A run
/// that no claim ends, after the last claim of the segment, is bound to
/// nothing: a broken chain at the segment's last entry.
fn chain_part<E: EntryView>(
    prev: &Digest,
    entries: &[E],
    range: Range<usize>,
    hashes: &mut [Digest],
) -> Result<(), LogVerifyError> {
    if range.is_empty() {
        return Ok(());
    }
    let first = &entries[0];
    let head = match range.start {
        0 => *prev,
        start => entries[start - 1]
            .claim()
            .expect("a part starts after a claim"),
    };
    let base = range.start;
    let part = &entries[range];
    // Wrapping: a hostile first seq near u64::MAX must not panic.
    let bad_seq = part.iter().enumerate().find_map(|(j, entry)| {
        let expected = first.seq().wrapping_add((base + j) as u64);
        (entry.seq() != expected).then_some((
            j,
            LogVerifyError::BadSequence {
                expected,
                found: entry.seq(),
            },
        ))
    });

    // Every claim is an entry's hash whatever the run before it computes,
    // and the head of the run after it.
    let mut runs = Vec::new();
    let mut start = 0;
    for (j, entry) in part.iter().enumerate() {
        if let Some(claim) = entry.claim() {
            hashes[j] = claim;
            runs.push(start..j + 1);
            start = j + 1;
        }
    }
    let mut broken = (start < part.len()).then(|| part.len() - 1);
    if start < part.len() {
        runs.push(start..part.len());
    }
    for group in runs.chunks(CHAIN_BLOCK) {
        let mut heads: Vec<Digest> = group
            .iter()
            .map(|run| match run.start {
                0 => head,
                start => hashes[start - 1],
            })
            .collect();
        let longest = group.iter().map(Range::len).max().unwrap_or(0);
        for step in 0..longest {
            let live: Vec<(usize, usize)> = group
                .iter()
                .enumerate()
                .filter(|(_, run)| step < run.len())
                .map(|(g, run)| (g, run.start + step))
                .collect();
            let contents: Vec<&[u8]> = live.iter().map(|&(_, j)| part[j].content()).collect();
            let content_hashes = sha256_multi(&contents);
            let links: Vec<[u8; LINK_LEN]> = live
                .iter()
                .zip(&content_hashes)
                .map(|(&(g, j), content_hash)| {
                    let mut link = [0u8; LINK_LEN];
                    link[..32].copy_from_slice(heads[g].as_bytes());
                    link[32..40].copy_from_slice(&part[j].seq().to_le_bytes());
                    link[40] = part[j].kind().tag();
                    link[41..].copy_from_slice(content_hash.as_bytes());
                    link
                })
                .collect();
            let link_views: Vec<&[u8]> = links.iter().map(|l| l.as_slice()).collect();
            for (&(g, j), hash) in live.iter().zip(sha256_multi(&link_views)) {
                heads[g] = hash;
                match part[j].claim() {
                    Some(claim) if claim != hash && broken.is_none_or(|b| j < b) => {
                        broken = Some(j);
                    }
                    Some(_) => {}
                    None => hashes[j] = hash,
                }
            }
        }
    }
    match (bad_seq, broken) {
        (Some((s, _)), Some(b)) if b < s => Err(LogVerifyError::BrokenChain { seq: part[b].seq() }),
        (Some((_, error)), _) => Err(error),
        (None, Some(b)) => Err(LogVerifyError::BrokenChain { seq: part[b].seq() }),
        (None, None) => Ok(()),
    }
}

/// The chain check: `entries` have dense sequence numbers counting up from
/// `entries[0].seq`, and their hashes extend the chain from `prev` (the
/// hash of the entry before the first; `h_0 = 0` at the start of a log).
///
/// Every entry that claims its hash ends a *run*: the entries after the
/// claim before it (`prev` for the first run) are hashed from that claim
/// and must reach this one.  A stored entry claims its hash, so an owned
/// log is checked entry by entry; a wire segment claims one only at its
/// checkpoints ([`crate::wire`]).  Either way the runs are independent of
/// one another: they are hashed side by side through the multi-buffer
/// SHA-256 core, and a segment of [`SPLIT_THRESHOLD`] entries or more is
/// cut into [`parts_for`] contiguous parts of whole runs, checked side by
/// side (module docs).  The first fault in seq order is reported — the
/// serial scan's, evaluated at the claims: with every hash claimed, the
/// error an entry-at-a-time [`LogEntry::verify_against`] loop reports; with
/// checkpoints, the first claim at or after an altered entry.  The hashes
/// the check gave every entry, fault or not, are [`chain_in_parts`]'s
/// ([`Chain::hashes`]).
///
/// Generic over the [`EntryView`]: an owned log and a segment still sitting
/// in the packet it arrived in are checked by the same code, each content
/// byte hashed from wherever the view says it is.
///
/// [`LogEntry::verify_against`]: crate::LogEntry::verify_against
pub fn verify_chain<E: EntryView>(prev: &Digest, entries: &[E]) -> Result<(), LogVerifyError> {
    chain_in_parts(prev, entries, parts_for(entries.len())).verdict
}

/// [`verify_chain`] cut into `parts` contiguous parts (at least one, at
/// most one per entry; part `i` starts at the first run boundary at or
/// after entry `i * len / parts`) whatever the host, with the hash it gave
/// every entry: the split itself, which the differential tests hold to the
/// serial scan on any number of cores, and what an auditor that keeps a
/// segment ([`parts_for`] parts) copies the hashes from.
pub fn chain_in_parts<E: EntryView>(prev: &Digest, entries: &[E], parts: usize) -> Chain {
    let parts = parts.clamp(1, entries.len().max(1));
    let mut hashes = vec![Digest::ZERO; entries.len()];
    let verdict = in_parts(
        run_parts(entries, parts, &mut hashes),
        |_, (range, share)| chain_part(prev, entries, range, share),
    )
    .into_iter()
    .collect();
    Chain { hashes, verdict }
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
/// The result is the serial scan's: the chain's first error
/// ([`verify_chain`]), else the first authenticator in list order that
/// fails.  An authenticator is matched against the hashes the chain check
/// gave the entries, so it may name any entry of a wire segment, a
/// checkpoint or not.  A segment of [`SPLIT_THRESHOLD`] entries or more is
/// checked in [`parts_for`] parts side by side — each a contiguous range of
/// the chain and the signatures of a contiguous share of the authenticator
/// list (module docs).
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
    let last_seq = segment.last().expect("non-empty").seq();
    let parts = parts.clamp(1, segment.len());

    // Per part: 1. dense sequence numbers and an intact hash chain over its
    // range; 2. the signatures of its share of the authenticator list (the
    // costly half of an authenticator check).
    let mut hashes = vec![Digest::ZERO; segment.len()];
    let mut chain = Ok(());
    let mut bad_signature = None;
    let checked = in_parts(
        run_parts(segment, parts, &mut hashes),
        |i, (range, share)| {
            let verdict = chain_part(prev_hash, segment, range, share);
            let share = part(authenticators.len(), parts, i);
            let bad = authenticators[share.clone()]
                .iter()
                .position(|auth| auth.verify_signature(machine_key).is_err())
                .map(|j| share.start + j);
            (verdict, bad)
        },
    );
    for (verdict, bad) in checked {
        if chain.is_ok() {
            chain = verdict;
        }
        bad_signature = bad_signature.or(bad);
    }
    chain?;
    // 3. Every authenticator in list order: its signature, then its seq
    // and hashes against the chain.
    for (i, auth) in authenticators.iter().enumerate() {
        if bad_signature == Some(i) {
            return Err(LogVerifyError::BadAuthenticatorSignature { seq: auth.seq });
        }
        check_authenticator(auth, prev_hash, first_seq, last_seq, &hashes)?;
    }

    Ok(SegmentSummary {
        first_seq,
        last_seq,
        final_hash: *hashes.last().expect("non-empty"),
        authenticators_checked: authenticators.len(),
        hashes,
    })
}

/// One collected authenticator whose signature verified, against a segment
/// whose chain passed — so seq `first_seq + idx` is at `idx`, and `hashes`
/// holds every entry's hash: a seq inside the segment, and the hashes of
/// that entry and of the one before it.
fn check_authenticator(
    auth: &Authenticator,
    prev_hash: &Digest,
    first_seq: u64,
    last_seq: u64,
    hashes: &[Digest],
) -> Result<(), LogVerifyError> {
    if auth.seq < first_seq || auth.seq > last_seq {
        return Err(LogVerifyError::AuthenticatorOutOfRange {
            seq: auth.seq,
            first: first_seq,
            last: last_seq,
        });
    }
    let idx = usize::try_from(auth.seq - first_seq).unwrap_or(usize::MAX);
    let Some(hash) = hashes.get(idx) else {
        return Err(LogVerifyError::AuthenticatorMismatch { seq: auth.seq });
    };
    let entry_prev = match idx {
        0 => *prev_hash,
        _ => hashes[idx - 1],
    };
    if *hash != auth.hash || entry_prev != auth.prev_hash {
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

    /// Entries that claim no hash are bound to nothing, however the check
    /// is cut: a broken chain at the last, with every hash computed.
    #[test]
    fn an_unclaimed_tail_is_broken_in_any_number_of_parts() {
        use crate::entry::LogEntryRef;
        let k = key();
        let (log, _) = build(40, &k);
        let views: Vec<LogEntryRef<'_>> = log
            .entries()
            .iter()
            .enumerate()
            .map(|(i, e)| LogEntryRef {
                seq: e.seq,
                kind: e.kind,
                content: &e.content,
                claim: (i < 3).then_some(e.hash.as_bytes()),
            })
            .collect();
        for parts in 1..5 {
            let chain = chain_in_parts(&Digest::ZERO, &views, parts);
            assert_eq!(chain.verdict, Err(LogVerifyError::BrokenChain { seq: 40 }));
            let recorded: Vec<Digest> = log.entries().iter().map(|e| e.hash).collect();
            assert_eq!(chain.hashes, recorded);
        }
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

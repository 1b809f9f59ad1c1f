//! Differential test: the run-based [`verify_chain`] against the
//! entry-at-a-time loop it replaced, and the split of a long segment into
//! parts ([`chain_in_parts`], [`segment_in_parts`]) against the same loop
//! and an in-order authenticator loop.
//!
//! The loops below are the only serial chain and authenticator checks left
//! in the workspace; they stay as the reference.  [`verify_chain_serial`] is
//! the loop as it was when every entry claimed its hash (an owned log);
//! [`serial_at_claims`] is the same loop evaluated at the claims only, as a
//! wire segment carries them (hashes at checkpoints, [`avm_log::wire`]), and
//! reduces to the first when every entry claims.  A wire segment carries no
//! seq: entry `i` is `first_seq + i`, so a record dropped, duplicated or
//! swapped is hashed under the seq of the place it landed in, and what the
//! owned loop calls `BadSequence` a wire segment sees as `BrokenChain` at
//! the next claim.  Equality of the results
//! is the whole contract: the same `Ok`, or the same error variant naming
//! the same sequence number(s) — the seq `avm-store` cuts a torn tail at —
//! and the same hash for every entry.  The split is driven with an explicit
//! part count, so it is exercised on a host of any core count.  Runs in
//! release in CI too, where the eight-lane SHA-256 path actually vectorises.

use std::sync::OnceLock;

use avm_crypto::keys::{SignatureScheme, SigningKey, VerifyingKey};
use avm_crypto::sha256::Digest;
use avm_log::entry::chain_hash;
use avm_log::verify::{chain_in_parts, segment_in_parts, CHAIN_BLOCK, SPLIT_THRESHOLD};
use avm_log::wire::{carries_hash, decode_entries, wire_entries};
use avm_log::{
    verify_chain, verify_segment, Authenticator, Chain, EntryKind, EntryView, LogEntry,
    LogVerifyError, SegmentSummary,
};
use avm_wire::Encode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Content lengths around the SHA-256 padding boundaries (one block with and
/// without room for the length, exactly one block, two-block boundary) plus
/// one long entry, so lanes of a group finish at different block counts.
const RAGGED_LENS: [usize; 6] = [0, 55, 56, 64, 119, 300];

const KINDS: [EntryKind; 6] = [
    EntryKind::Send,
    EntryKind::Recv,
    EntryKind::Ack,
    EntryKind::NdEvent,
    EntryKind::Snapshot,
    EntryKind::Meta,
];

/// The reference: one `verify_against` per entry, in order.
fn verify_chain_serial(prev: &Digest, entries: &[LogEntry]) -> Result<(), LogVerifyError> {
    let Some(first) = entries.first() else {
        return Ok(());
    };
    let mut prev = *prev;
    for (i, entry) in entries.iter().enumerate() {
        let expected = first.seq.wrapping_add(i as u64);
        if entry.seq != expected {
            return Err(LogVerifyError::BadSequence {
                expected,
                found: entry.seq,
            });
        }
        if !entry.verify_against(&prev) {
            return Err(LogVerifyError::BrokenChain { seq: entry.seq });
        }
        prev = entry.hash;
    }
    Ok(())
}

/// An entry as a segment carries it, owned so that a test can damage any
/// field: its seq the position it landed in, a claimed hash, or none.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shipped {
    seq: u64,
    kind: EntryKind,
    content: Vec<u8>,
    claim: Option<Digest>,
}

impl EntryView for Shipped {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn kind(&self) -> EntryKind {
        self.kind
    }
    fn content(&self) -> &[u8] {
        &self.content
    }
    fn claim(&self) -> Option<Digest> {
        self.claim
    }
}

/// `entries` as a segment of their number ships them from `first_seq`:
/// entry `i` has seq `first_seq + i` — its position, whatever seq it was
/// stored under — and claims its stored hash at a checkpoint.
fn ship_from(first_seq: u64, entries: &[LogEntry]) -> Vec<Shipped> {
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| Shipped {
            seq: first_seq.wrapping_add(i as u64),
            kind: e.kind,
            content: e.content.clone(),
            claim: carries_hash(entries.len(), i).then_some(e.hash),
        })
        .collect()
}

/// [`ship_from`] the first entry's own seq.
fn ship(entries: &[LogEntry]) -> Vec<Shipped> {
    ship_from(entries.first().map_or(1, |e| e.seq), entries)
}

/// `shipped` through the bytes when a body can carry it — seqs dense from
/// the first, claims where [`carries_hash`] puts them: its records encoded
/// as one run and decoded in place, which must give back every field.
fn through_the_body(shipped: &[Shipped]) -> Option<Vec<Shipped>> {
    let n = shipped.len();
    let first = shipped.first().map_or(1, |e| e.seq);
    let carried = shipped.iter().enumerate().all(|(i, e)| {
        e.seq == first.wrapping_add(i as u64) && e.claim.is_some() == carries_hash(n, i)
    });
    if !carried {
        return None;
    }
    let as_stored: Vec<LogEntry> = shipped
        .iter()
        .map(|e| e.to_entry(e.claim.unwrap_or(Digest::ZERO)))
        .collect();
    let run: Vec<u8> = wire_entries(&as_stored)
        .flat_map(|e| e.encode_to_vec())
        .collect();
    let views = decode_entries(first, n as u64, &run).expect("a carried segment decodes");
    Some(
        views
            .iter()
            .map(|v| Shipped {
                seq: v.seq,
                kind: v.kind,
                content: v.content.to_vec(),
                claim: v.claim(),
            })
            .collect(),
    )
}

/// The reference at the claims: entry by entry in order, the seq, then the
/// hash from the one before — the claim where an entry makes one, else the
/// hash computed for it — compared with the entry's claim where it makes
/// one.  After the last claim nothing binds an entry: a broken chain at the
/// last.  Every entry's hash comes back beside the first fault.
fn serial_at_claims<E: EntryView>(prev: &Digest, entries: &[E]) -> Chain {
    let mut chain = Chain {
        hashes: Vec::new(),
        verdict: Ok(()),
    };
    let Some(first) = entries.first() else {
        return chain;
    };
    let mut head = *prev;
    for (i, entry) in entries.iter().enumerate() {
        let expected = first.seq().wrapping_add(i as u64);
        if chain.verdict.is_ok() && entry.seq() != expected {
            chain.verdict = Err(LogVerifyError::BadSequence {
                expected,
                found: entry.seq(),
            });
        }
        let hash = chain_hash(&head, entry.seq(), entry.kind(), entry.content());
        head = match entry.claim() {
            Some(claim) => {
                if chain.verdict.is_ok() && claim != hash {
                    chain.verdict = Err(LogVerifyError::BrokenChain { seq: entry.seq() });
                }
                claim
            }
            None => hash,
        };
        chain.hashes.push(head);
    }
    let last = entries.last().expect("non-empty");
    if chain.verdict.is_ok() && last.claim().is_none() {
        chain.verdict = Err(LogVerifyError::BrokenChain { seq: last.seq() });
    }
    chain
}

fn flip(d: &Digest) -> Digest {
    let mut bytes = *d.as_bytes();
    bytes[7] ^= 0x10;
    Digest::from_slice(&bytes).expect("32 bytes")
}

/// An honest chain of `shape.len()` entries from `first_seq`, anchored at
/// `prev`; `shape[i]` picks entry `i`'s content length and kind.
fn honest_chain(prev: &Digest, first_seq: u64, shape: &[(usize, usize)]) -> Vec<LogEntry> {
    let mut entries: Vec<LogEntry> = Vec::with_capacity(shape.len());
    let mut head = *prev;
    for (i, &(len, kind)) in shape.iter().enumerate() {
        let seq = first_seq.wrapping_add(i as u64);
        let content = (0..RAGGED_LENS[len % RAGGED_LENS.len()])
            .map(|b| (b as u8).wrapping_mul(37).wrapping_add(i as u8))
            .collect();
        let entry = LogEntry::chained(&head, seq, KINDS[kind % KINDS.len()], content);
        head = entry.hash;
        entries.push(entry);
    }
    entries
}

/// Applies mutation `what` (0 = none) to entry `at`; a mutated `prev_hash`
/// of the first entry is a mutated anchor.
fn mutate(prev: &mut Digest, entries: &mut [LogEntry], what: usize, at: usize) {
    if entries.is_empty() {
        return;
    }
    let at = at % entries.len();
    match what % 6 {
        0 => {}
        1 => match entries[at].content.first_mut() {
            Some(byte) => *byte ^= 1,
            None => entries[at].content.push(0),
        },
        2 => entries[at].seq = entries[at].seq.wrapping_add(1),
        3 => {
            let tag = entries[at].kind.tag();
            entries[at].kind = EntryKind::from_tag(tag % 6 + 1).expect("tags are 1..=6");
        }
        4 => entries[at].hash = flip(&entries[at].hash),
        _ => {
            // The entry is internally consistent, but extends a different
            // predecessor than the one before it.
            if at == 0 {
                *prev = flip(prev);
            } else {
                let e = &entries[at];
                let forked = flip(&entries[at - 1].hash);
                entries[at] = LogEntry::chained(&forked, e.seq, e.kind, e.content.clone());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn verify_chain_matches_the_serial_loop(
        shape in proptest::collection::vec((0usize..6, 0usize..6), 0..101),
        first_seq in 1u64..5_000,
        anchor in any::<u8>(),
        what in 0usize..6,
        at in any::<usize>(),
    ) {
        let mut prev = Digest::from_slice(&[anchor; 32]).expect("32 bytes");
        let mut entries = honest_chain(&prev, first_seq, &shape);
        prop_assert_eq!(verify_chain(&prev, &entries), Ok(()));
        mutate(&mut prev, &mut entries, what, at);
        let serial = verify_chain_serial(&prev, &entries);
        prop_assert_eq!(verify_chain(&prev, &entries), serial.clone());
        // Every hash claimed: the reference at the claims is today's loop,
        // and the hashes are the claims.
        let at_claims = serial_at_claims(&prev, &entries);
        prop_assert_eq!(&at_claims.verdict, &serial);
        let claimed: Vec<Digest> = entries.iter().map(|e| e.hash).collect();
        prop_assert_eq!(&at_claims.hashes, &claimed);
        prop_assert_eq!(chain_in_parts(&prev, &entries, 1), at_claims);
    }
}

/// Every mutation at every position around the batch boundaries, for
/// segments one short of, exactly, and one past whole batches.
#[test]
fn batch_boundaries_report_the_same_first_fault() {
    let b = CHAIN_BLOCK;
    for n in [b - 1, b, b + 1, 2 * b, 2 * b + 1] {
        let shape: Vec<(usize, usize)> = (0..n).map(|i| (i, i / 2)).collect();
        for at in [0, 1, b - 2, b - 1, b, b + 1, n - 1] {
            for what in 0..6 {
                let mut prev = Digest::ZERO;
                let mut entries = honest_chain(&prev, 1, &shape);
                mutate(&mut prev, &mut entries, what, at);
                let got = verify_chain(&prev, &entries);
                assert_eq!(
                    got,
                    verify_chain_serial(&prev, &entries),
                    "n {n}, mutation {what} at {at}"
                );
                assert_eq!(got.is_ok(), what == 0, "n {n}, mutation {what} at {at}");
            }
        }
    }
}

/// Sequence numbers come off the wire: a segment that starts at `u64::MAX`
/// must get a verdict, not an overflow panic.
#[test]
fn sequence_numbers_at_the_top_of_the_range_do_not_panic() {
    let entries = honest_chain(&Digest::ZERO, u64::MAX, &[(1, 0), (2, 1), (3, 2)]);
    assert_eq!(entries[1].seq, 0);
    assert_eq!(
        verify_chain(&Digest::ZERO, &entries),
        verify_chain_serial(&Digest::ZERO, &entries)
    );
}

// ---------------------------------------------------------------------------
// Long segments, checked in parts
// ---------------------------------------------------------------------------

/// First seq of the long chain: seqs below it are out of range.
const LONG_FIRST: u64 = 100;
/// The long chain is this much longer than the split threshold; a test cuts
/// a prefix of it, so every length in `SPLIT_THRESHOLD + 1 ..= SPLIT_THRESHOLD
/// + LONG_EXTRA` is an honest chain.
const LONG_EXTRA: usize = 1500;

/// A long honest chain, the key that signs for it and a pool of
/// authenticators — built once: RSA key generation and signing are slow in
/// debug.
struct Long {
    entries: Vec<LogEntry>,
    key: VerifyingKey,
    /// Genuine authenticators spread over the chain.
    honest: Vec<Authenticator>,
    /// Genuinely signed, for seqs no prefix of the chain holds.
    out_of_range: Vec<Authenticator>,
    /// Genuinely signed, for seqs of the chain but over a twin history's
    /// hashes.
    twins: Vec<Authenticator>,
}

fn long() -> &'static Long {
    static LONG: OnceLock<Long> = OnceLock::new();
    LONG.get_or_init(|| {
        let len = SPLIT_THRESHOLD + LONG_EXTRA;
        let shape: Vec<(usize, usize)> = (0..len).map(|i| (i % 5, i % 7)).collect();
        let entries = honest_chain(&Digest::ZERO, LONG_FIRST, &shape);
        let mut rng = StdRng::seed_from_u64(35);
        let signer = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let prev_of = |i: usize| match i {
            0 => Digest::ZERO,
            i => entries[i - 1].hash,
        };
        let authenticate = |i: usize| Authenticator::create(&signer, &entries[i], prev_of(i));
        // Every 199th entry, and both ends.
        let honest = (0..len)
            .step_by(199)
            .chain([len - 1])
            .map(authenticate)
            .collect();
        let out_of_range = [LONG_FIRST - 1, LONG_FIRST + len as u64 + 7]
            .into_iter()
            .map(|seq| {
                let entry = LogEntry::chained(&Digest::ZERO, seq, EntryKind::Send, b"x".to_vec());
                Authenticator::create(&signer, &entry, Digest::ZERO)
            })
            .collect();
        let twins = (0..len)
            .step_by(613)
            .map(|i| {
                let e = &entries[i];
                let twin = LogEntry::chained(&prev_of(i), e.seq, e.kind, b"twin".to_vec());
                Authenticator::create(&signer, &twin, prev_of(i))
            })
            .collect();
        Long {
            entries,
            key: signer.verifying_key(),
            honest,
            out_of_range,
            twins,
        }
    })
}

/// The reference for a segment: the serial chain loop at the claims, then
/// one authenticator at a time in list order — signature, range, hashes
/// (the ones that loop gave the entries).
fn verify_segment_serial<E: EntryView>(
    prev: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    key: &VerifyingKey,
) -> Result<SegmentSummary, LogVerifyError> {
    let first = segment.first().ok_or(LogVerifyError::EmptySegment)?.seq();
    let last = segment.last().expect("non-empty").seq();
    let chain = serial_at_claims(prev, segment);
    chain.verdict?;
    let hashes = chain.hashes;
    for auth in authenticators {
        auth.verify_signature(key)
            .map_err(|_| LogVerifyError::BadAuthenticatorSignature { seq: auth.seq })?;
        if auth.seq < first || auth.seq > last {
            return Err(LogVerifyError::AuthenticatorOutOfRange {
                seq: auth.seq,
                first,
                last,
            });
        }
        let idx = (auth.seq - first) as usize;
        let entry_prev = if idx == 0 { *prev } else { hashes[idx - 1] };
        if hashes[idx] != auth.hash || entry_prev != auth.prev_hash {
            return Err(LogVerifyError::AuthenticatorMismatch { seq: auth.seq });
        }
    }
    Ok(SegmentSummary {
        first_seq: first,
        last_seq: last,
        final_hash: *hashes.last().expect("non-empty"),
        authenticators_checked: authenticators.len(),
        hashes,
    })
}

/// The first and last entry of every part `len` entries are cut into when
/// checked in `parts` parts (part `i` starts at `i * len / parts`).
fn part_ends(len: usize, parts: usize) -> Vec<usize> {
    (1..parts)
        .flat_map(|i| {
            let start = i * len / parts;
            [start - 1, start]
        })
        .chain([0, len - 1])
        .collect()
}

/// One piece of damage to a long segment: a flipped content byte, a seq gap
/// (the entry dropped), a flipped claimed hash, a seq bumped in place or a
/// fork, at `at` — or, with `at_part_end`, at the first or last entry of a
/// part.
fn damage(
    prev: &mut Digest,
    entries: &mut Vec<LogEntry>,
    parts: usize,
    (kind, at, at_part_end): (usize, usize, bool),
) {
    let at = if at_part_end {
        let ends = part_ends(entries.len(), parts);
        ends[at % ends.len()]
    } else {
        at % entries.len()
    };
    match kind % 5 {
        0 => mutate(prev, entries, 1, at),
        1 => {
            entries.remove(at);
        }
        2 => mutate(prev, entries, 4, at),
        3 => mutate(prev, entries, 2, at),
        _ => mutate(prev, entries, 5, at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A segment above the threshold, split into 2–4 parts, with up to three
    /// pieces of damage: the split reports the serial loop's first fault.
    #[test]
    fn split_chain_matches_the_serial_loop(
        extra in 1usize..LONG_EXTRA,
        parts in 2usize..5,
        damages in proptest::collection::vec((0usize..5, any::<usize>(), any::<bool>()), 0..4),
    ) {
        let mut prev = Digest::ZERO;
        let mut entries = long().entries[..SPLIT_THRESHOLD + extra].to_vec();
        for d in damages {
            damage(&mut prev, &mut entries, parts, d);
        }
        let serial = verify_chain_serial(&prev, &entries);
        let split = chain_in_parts(&prev, &entries, parts);
        prop_assert_eq!(&split.verdict, &serial);
        prop_assert_eq!(split, serial_at_claims(&prev, &entries));
        // And in as many parts as this host picks.
        prop_assert_eq!(verify_chain(&prev, &entries), serial);
    }

    /// Authenticators checked in parts: a bad signature, a seq outside the
    /// segment, a flipped `prev_hash` or a twin history's hash, each at a
    /// random list position (and now and then a damaged chain, whose error
    /// comes first) give what the in-order serial loop gives.
    #[test]
    fn split_authenticators_match_the_serial_loop(
        extra in 1usize..LONG_EXTRA,
        parts in 2usize..5,
        picks in proptest::collection::vec((any::<usize>(), 0usize..6), 1..10),
        chain_damage in proptest::option::of((0usize..5, any::<usize>(), any::<bool>())),
    ) {
        let long = long();
        let mut prev = Digest::ZERO;
        let mut entries = long.entries[..SPLIT_THRESHOLD + extra].to_vec();
        let auths: Vec<Authenticator> = picks
            .into_iter()
            .map(|(i, what)| {
                let mut auth = long.honest[i % long.honest.len()].clone();
                match what {
                    1 => auth.signature[3] ^= 0x40,
                    2 => auth = long.out_of_range[i % long.out_of_range.len()].clone(),
                    3 => auth.prev_hash = flip(&auth.prev_hash),
                    4 => auth = long.twins[i % long.twins.len()].clone(),
                    _ => {}
                }
                auth
            })
            .collect();
        if let Some(d) = chain_damage {
            damage(&mut prev, &mut entries, parts, d);
        }
        let serial = verify_segment_serial(&prev, &entries, &auths, &long.key);
        prop_assert_eq!(
            segment_in_parts(&prev, &entries, &auths, &long.key, parts),
            serial.clone()
        );
        prop_assert_eq!(verify_segment(&prev, &entries, &auths, &long.key), serial);
        // The same segment as it ships: the authenticators name entries
        // that carry no hash, and are matched against computed ones.
        let shipped = ship(&entries);
        let serial = verify_segment_serial(&prev, &shipped, &auths, &long.key);
        prop_assert_eq!(
            segment_in_parts(&prev, &shipped, &auths, &long.key, parts),
            serial.clone()
        );
        prop_assert_eq!(verify_segment(&prev, &shipped, &auths, &long.key), serial);
    }
}

/// Every kind of damage at the first and last entry of every part of a
/// segment one past the threshold, split in three.
#[test]
fn part_ends_report_the_same_first_fault() {
    let parts = 3;
    let len = SPLIT_THRESHOLD + 1;
    let ends = part_ends(len, parts);
    for (at, &position) in ends.iter().enumerate() {
        for kind in 0..5 {
            let mut prev = Digest::ZERO;
            let mut entries = long().entries[..len].to_vec();
            damage(&mut prev, &mut entries, parts, (kind, at, true));
            let got = chain_in_parts(&prev, &entries, parts).verdict;
            assert_eq!(
                got,
                verify_chain_serial(&prev, &entries),
                "damage {kind} at entry {position}"
            );
            // Dropping the last entry leaves an honest, shorter chain.
            let honest = kind == 1 && position == len - 1;
            assert_eq!(got.is_ok(), honest, "damage {kind} at entry {position}");
        }
    }
}

// ---------------------------------------------------------------------------
// Segments as they ship: hashes at checkpoints
// ---------------------------------------------------------------------------

/// Where a check in `parts` parts starts each part: at the first entry at or
/// after `i * len / parts` that follows a claim.
fn run_aligned_starts(entries: &[Shipped], parts: usize) -> Vec<usize> {
    (0..parts)
        .map(|i| {
            let mut start = i * entries.len() / parts;
            while start > 0 && start < entries.len() && entries[start - 1].claim.is_none() {
                start += 1;
            }
            start
        })
        .collect()
}

/// Kinds of damage [`damaged_shipment`] does.
const DAMAGES: usize = 11;

/// The honest `stored` entries shipped, then one piece of damage at `at`:
/// 0 a content byte, 1 a wrong first seq, 2 the claim of the checkpoint at
/// or after `at` flipped, 3 a record dropped, 4 duplicated or 9 swapped
/// with the next and the rest re-shipped from the same first seq (claims
/// where a segment of the new length puts them), 5 a record dropped with
/// the claims left where they were, 6 a fork (the entry extends a different
/// predecessor), 7 a claim taken away, 8 a false claim added, 10 a tag.
fn damaged_shipment(
    prev: &mut Digest,
    stored: &[LogEntry],
    what: usize,
    at: usize,
) -> Vec<Shipped> {
    let at = at % stored.len();
    let first = stored[0].seq;
    let reshipped = |edit: &dyn Fn(&mut Vec<LogEntry>)| {
        let mut stored = stored.to_vec();
        edit(&mut stored);
        ship_from(first, &stored)
    };
    match what % DAMAGES {
        1 => ship_from(first.wrapping_add(1 + at as u64 % 7), stored),
        3 => reshipped(&|stored| drop(stored.remove(at))),
        4 => reshipped(&|stored| stored.insert(at, stored[at].clone())),
        9 => reshipped(&|stored| {
            let n = stored.len();
            if n > 1 {
                stored.swap(at % (n - 1), at % (n - 1) + 1);
            }
        }),
        6 => {
            let mut stored = stored.to_vec();
            mutate(prev, &mut stored, 5, at);
            ship(&stored)
        }
        what => {
            let mut shipped = ship(stored);
            match what {
                0 => {
                    let mut stored = stored.to_vec();
                    mutate(prev, &mut stored, 1, at);
                    shipped[at].content = stored[at].content.clone();
                }
                10 => {
                    let tag = shipped[at].kind.tag();
                    shipped[at].kind = EntryKind::from_tag(tag % 6 + 1).expect("tags are 1..=6");
                }
                2 => {
                    let claimed = (at..shipped.len())
                        .find(|&i| shipped[i].claim.is_some())
                        .expect("the last entry claims");
                    shipped[claimed].claim = shipped[claimed].claim.map(|c| flip(&c));
                }
                5 => {
                    shipped.remove(at);
                    for (i, entry) in shipped.iter_mut().enumerate() {
                        entry.seq = first.wrapping_add(i as u64);
                    }
                }
                7 => shipped[at].claim = None,
                _ => shipped[at].claim = Some(flip(&stored[at].hash)),
            }
            shipped
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An honest segment of any length ships with hashes at its
    /// checkpoints only and no seq, and the check computes every other
    /// hash: in any number of parts the hashes are the recorded ones — also
    /// through the encoded run of records and the in-place decode.
    #[test]
    fn honest_segments_compute_the_recorded_hashes(
        len in 0usize..700,
        seed in any::<u8>(),
        first_seq in 1u64..5_000,
        parts in 1usize..5,
    ) {
        let shape: Vec<(usize, usize)> =
            (0..len).map(|i| (i + seed as usize, i * 7 + seed as usize)).collect();
        let prev = Digest::from_slice(&[seed; 32]).expect("32 bytes");
        let stored = honest_chain(&prev, first_seq, &shape);
        let recorded = Chain {
            hashes: stored.iter().map(|e| e.hash).collect(),
            verdict: Ok(()),
        };
        let shipped = ship(&stored);
        prop_assert_eq!(chain_in_parts(&prev, &shipped, parts), recorded.clone());
        prop_assert_eq!(serial_at_claims(&prev, &shipped), recorded.clone());
        let run: Vec<u8> = wire_entries(&stored).flat_map(|e| e.encode_to_vec()).collect();
        let views =
            decode_entries(first_seq, len as u64, &run).expect("an honest segment decodes");
        prop_assert_eq!(chain_in_parts(&prev, &views, parts), recorded);
        prop_assert_eq!(through_the_body(&shipped), Some(shipped));
    }

    /// Each kind of damage at any entry, checked in any number of parts:
    /// the verdict and every hash are the serial loop's at the claims — also
    /// decoded from the body, for every kind a body can carry.  A wire
    /// segment's seqs are dense by construction, so its fault is never
    /// `BadSequence`.
    #[test]
    fn damaged_segments_match_the_serial_loop_at_claims(
        len in 1usize..700,
        seed in any::<u8>(),
        first_seq in 1u64..5_000,
        what in 0usize..DAMAGES,
        at in any::<usize>(),
        parts in 1usize..5,
    ) {
        let shape: Vec<(usize, usize)> =
            (0..len).map(|i| (i * 3 + seed as usize, i + seed as usize)).collect();
        let mut prev = Digest::ZERO;
        let stored = honest_chain(&prev, first_seq, &shape);
        let shipped = damaged_shipment(&mut prev, &stored, what, at);
        let serial = serial_at_claims(&prev, &shipped);
        prop_assert!(!matches!(serial.verdict, Err(LogVerifyError::BadSequence { .. })));
        prop_assert_eq!(chain_in_parts(&prev, &shipped, parts), serial.clone());
        prop_assert_eq!(verify_chain(&prev, &shipped), serial.verdict.clone());
        let carried = through_the_body(&shipped);
        let byte_kinds = [0, 1, 2, 3, 4, 6, 9, 10];
        prop_assert!(carried.is_some() || !byte_kinds.contains(&what), "damage {}", what);
        if let Some(decoded) = carried {
            prop_assert_eq!(&decoded, &shipped);
            prop_assert_eq!(chain_in_parts(&prev, &decoded, parts), serial);
        }
    }
}

/// Every kind of damage at the first and last entry of every run-aligned
/// part of a long shipped segment (hashes every 64 entries), split in two
/// to four parts: the serial loop's verdict and hashes.
#[test]
fn run_aligned_part_ends_report_the_same_first_fault() {
    let len = SPLIT_THRESHOLD + 777;
    let stored = &long().entries[..len];
    for parts in 2..5 {
        let starts = run_aligned_starts(&ship(stored), parts);
        let ends: Vec<usize> = starts[1..]
            .iter()
            .flat_map(|&start| [start - 1, start])
            .chain([0, len - 1])
            .collect();
        for &at in &ends {
            for what in 0..DAMAGES {
                let mut prev = Digest::ZERO;
                let shipped = damaged_shipment(&mut prev, stored, what, at);
                let got = chain_in_parts(&prev, &shipped, parts);
                assert_eq!(
                    got,
                    serial_at_claims(&prev, &shipped),
                    "{parts} parts, damage {what} at entry {at}"
                );
                // Dropping the last entry and re-shipping leaves an honest,
                // shorter segment; a claim taken away before the last only
                // merges two runs; a fork changes nothing but the forked
                // entry's hash, which ships only at a checkpoint.
                let harmless = (what == 3 && at == len - 1)
                    || (what == 7 && at < len - 1)
                    || (what == 6 && at > 0 && !carries_hash(len, at));
                assert_eq!(got.verdict.is_ok(), harmless, "damage {what} at {at}");
            }
        }
    }
}

/// A received segment whose entries do not hash to a claim is broken at
/// the first checkpoint at or after the altered entry, not at the entry
/// itself; an owned copy with the hashes the check gave it (what evidence
/// holds) claims every hash and names the same seq.
#[test]
fn a_broken_run_names_its_checkpoint_and_its_owned_copy_agrees() {
    let shape: Vec<(usize, usize)> = (0..100).map(|i| (i, i)).collect();
    let mut prev = Digest::ZERO;
    let stored = honest_chain(&prev, 1, &shape);
    // K = 12: entry 3 runs to the checkpoint at entry 11 (seq 12).
    let shipped = damaged_shipment(&mut prev, &stored, 0, 3);
    let chain = verify_chain_on(&prev, &shipped);
    assert_eq!(chain.verdict, Err(LogVerifyError::BrokenChain { seq: 12 }));
    let owned: Vec<LogEntry> = shipped
        .iter()
        .zip(&chain.hashes)
        .map(|(e, hash)| e.to_entry(*hash))
        .collect();
    assert_eq!(verify_chain(&prev, &owned), chain.verdict);
    assert_eq!(verify_chain_serial(&prev, &owned), chain.verdict);
}

fn verify_chain_on(prev: &Digest, shipped: &[Shipped]) -> Chain {
    chain_in_parts(prev, shipped, 1)
}

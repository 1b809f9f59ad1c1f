//! Differential test: the batched [`verify_chain`] against the
//! entry-at-a-time loop it replaced.
//!
//! The loop below is the only serial chain check left in the workspace; it
//! stays as the reference.  Equality of the two `Result`s is the whole
//! contract: the same `Ok`, or the same error variant naming the same
//! sequence number(s).  Runs in release in CI too, where the eight-lane
//! SHA-256 path actually vectorises.

use avm_crypto::sha256::Digest;
use avm_log::verify::CHAIN_BLOCK;
use avm_log::{verify_chain, EntryKind, LogEntry, LogVerifyError};
use proptest::prelude::*;

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
        prop_assert_eq!(
            verify_chain(&prev, &entries),
            verify_chain_serial(&prev, &entries)
        );
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

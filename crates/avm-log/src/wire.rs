//! A log segment on the wire: hashes at checkpoints.
//!
//! A stored entry is its record `s_i ‖ t_i ‖ c_i` followed by its hash
//! `h_i`.  But `h_i = H(h_{i-1} ‖ s_i ‖ t_i ‖ H(c_i))` is a function of the
//! entries before it, and an auditor hashes every entry it receives anyway,
//! so a segment need not ship it.  A segment of `n` entries carries a
//! claimed hash only at its *checkpoints* — every `K`-th entry and its last,
//! with `K = clamp(n / 8, 1, 64)` ([`carries_hash`]) — and every other entry
//! as its bare record.  [`crate::verify_chain`] computes each *run* of
//! entries up to a checkpoint from the claim before it (the segment's
//! `prev_hash` for the first) and compares the result with the checkpoint's
//! claim: eight runs or more fill the eight SHA-256 lanes, even on a
//! 42-entry spot-check chunk.
//!
//! This module owns the format: [`carries_hash`] is the one spacing rule,
//! [`wire_entries`] is what a provider encodes and [`decode_entries`] what
//! an auditor decodes.  `avm-wire` carries each entry as an opaque byte
//! string.

use avm_wire::{decode_exact_with, Encode, WireResult, Writer};

use crate::entry::{get_hash, LogEntry, LogEntryRef};

/// Runs a segment is cut into, at least: one per SHA-256 lane.
const RUNS: usize = 8;

/// The longest run: a segment of more than `RUNS * MAX_RUN` entries has
/// more runs, so a long whole log ships a hash every `MAX_RUN` entries and
/// a part of it split across cores still holds many runs.
const MAX_RUN: usize = 64;

/// Whether entry `i` of a segment of `len` entries carries its hash on the
/// wire: every `K`-th entry and the last, `K = clamp(len / 8, 1, 64)`.  The
/// one spacing rule; `K` is never a setting.
pub fn carries_hash(len: usize, i: usize) -> bool {
    let k = (len / RUNS).clamp(1, MAX_RUN);
    i % k == k - 1 || i + 1 == len
}

/// One entry as a segment carries it: its record, followed by its hash at a
/// checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct WireEntry<'a> {
    entry: &'a LogEntry,
    claims: bool,
}

impl Encode for WireEntry<'_> {
    fn encode(&self, w: &mut Writer) {
        self.entry.encode_record(w);
        if self.claims {
            w.put_raw(self.entry.hash.as_bytes());
        }
    }

    fn encoded_len(&self) -> usize {
        self.entry.record_len() + if self.claims { 32 } else { 0 }
    }
}

/// `entries` as a segment carries them, for `avm_wire::audit::encode_log_segment`.
pub fn wire_entries(entries: &[LogEntry]) -> impl ExactSizeIterator<Item = WireEntry<'_>> + Clone {
    let len = entries.len();
    entries.iter().enumerate().map(move |(i, entry)| WireEntry {
        entry,
        claims: carries_hash(len, i),
    })
}

/// Decodes the entries of a received segment in place, one encoded entry
/// per element: entry `i` is its record, followed by its claimed hash where
/// [`carries_hash`] puts one, and nothing after.  One allocation, of one
/// view per element: the caller's list is already bounded by the bytes
/// that arrived.
pub fn decode_entries<'a>(entries: &[&'a [u8]]) -> WireResult<Vec<LogEntryRef<'a>>> {
    let len = entries.len();
    let mut views = Vec::with_capacity(len);
    for (i, bytes) in entries.iter().enumerate() {
        views.push(decode_exact_with(bytes, |r| {
            let mut entry = LogEntryRef::decode(r)?;
            if carries_hash(len, i) {
                entry.claim = Some(get_hash(r)?);
            }
            Ok(entry)
        })?);
    }
    Ok(views)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{EntryKind, EntryView};
    use avm_crypto::sha256::Digest;

    fn checkpoints(len: usize) -> Vec<usize> {
        (0..len).filter(|&i| carries_hash(len, i)).collect()
    }

    #[test]
    fn spacing_follows_the_segment_length() {
        assert!(checkpoints(0).is_empty());
        assert_eq!(checkpoints(1), [0]);
        // Below 16 entries every entry is a checkpoint.
        assert_eq!(checkpoints(15), (0..15).collect::<Vec<_>>());
        // A 42-entry chunk: K = 5, eight full runs and the last entry.
        assert_eq!(checkpoints(42), [4, 9, 14, 19, 24, 29, 34, 39, 41]);
        assert_eq!(checkpoints(52).len(), 9);
        // A whole game log: K = 64 and the last entry.
        assert_eq!(checkpoints(30_437).len(), 476);
        for len in 1..2_000 {
            let cps = checkpoints(len);
            assert_eq!(cps.last(), Some(&(len - 1)), "len {len}");
            let runs = cps.len();
            assert!(runs >= RUNS.min(len), "len {len}: {runs} runs");
            let longest = cps
                .iter()
                .scan(None, |prev: &mut Option<usize>, &c| {
                    let run = c - prev.map_or(0, |p| p + 1) + 1;
                    *prev = Some(c);
                    Some(run)
                })
                .max();
            assert!(longest <= Some(MAX_RUN), "len {len}");
        }
    }

    #[test]
    fn a_stored_entry_is_its_wire_entry_and_its_hash() {
        let mut prev = Digest::ZERO;
        let entries: Vec<LogEntry> = (1..=40u64)
            .map(|seq| {
                let e = LogEntry::chained(&prev, seq, EntryKind::Send, vec![seq as u8; 3]);
                prev = e.hash;
                e
            })
            .collect();
        let wire: Vec<Vec<u8>> = wire_entries(&entries)
            .map(|w| {
                assert_eq!(w.encoded_len(), w.encode_to_vec().len());
                w.encode_to_vec()
            })
            .collect();
        let slices: Vec<&[u8]> = wire.iter().map(Vec::as_slice).collect();
        let views = decode_entries(&slices).unwrap();
        for (i, ((entry, bytes), view)) in entries.iter().zip(&wire).zip(&views).enumerate() {
            let stored = entry.encode_to_vec();
            if carries_hash(entries.len(), i) {
                assert_eq!(bytes, &stored);
                assert_eq!(view.claim(), Some(entry.hash));
            } else {
                assert_eq!(bytes[..], stored[..stored.len() - 32]);
                assert_eq!(view.claim(), None);
            }
            assert_eq!(view.to_entry(entry.hash), *entry);
        }
        // A claim where the rule puts none, or none where it puts one, is
        // trailing bytes or a truncation.
        let mut shifted = slices.clone();
        shifted.pop();
        assert!(decode_entries(&shifted).is_err());
    }
}

//! A log segment on the wire: one run of records, hashes at checkpoints.
//!
//! An owned entry is its seq `s_i`, its record `t_i ‖ c_i` and its hash
//! `h_i`.  A segment ships less — the same record a segment file stores
//! (`avm-store`), with claims at checkpoints of its own:
//!
//! * **No seq.**  Sequence numbers count up densely (§4.3), so the segment
//!   names its first one and entry `i` is `first_seq + i`.  A record the
//!   provider drops, duplicates or reorders is hashed under the seq of the
//!   place it landed in, and the chain breaks there.
//! * **No outer length.**  A record ends where its content length says, so
//!   the segment's records are one byte run, parsed in one pass.
//! * **Hashes at checkpoints.**  `h_i = H(h_{i-1} ‖ s_i ‖ t_i ‖ H(c_i))` is a
//!   function of the entries before it, and an auditor hashes every entry
//!   it receives anyway.  A segment of `n` entries carries a claimed hash
//!   only at its *checkpoints* — every `K`-th entry and its last, with
//!   `K = clamp(n / 8, 1, 64)` ([`carries_hash`]).  [`crate::verify_chain`]
//!   computes each *run* of entries up to a checkpoint from the claim before
//!   it (the segment's `prev_hash` for the first) and compares the result
//!   with the checkpoint's claim: eight runs or more fill the eight SHA-256
//!   lanes, even on a 42-entry spot-check chunk.
//!
//! This module owns the format: [`carries_hash`] is the one spacing rule,
//! [`wire_entries`] is what a provider encodes and [`decode_entries`] what
//! an auditor decodes.  `avm-wire` carries the records as one opaque run.

use avm_wire::{decode_exact_with, Encode, WireError, WireResult, Writer};

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

/// One entry as a segment carries it: its record `t_i ‖ c_i` — no seq, no
/// length in front — followed by its hash at a checkpoint.
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
        self.entry.stored_size() + if self.claims { 32 } else { 0 }
    }
}

/// `entries` as a segment carries them, for `avm_wire::audit::encode_log_segment`
/// (which names the first entry's seq beside them).
pub fn wire_entries(entries: &[LogEntry]) -> impl ExactSizeIterator<Item = WireEntry<'_>> + Clone {
    let len = entries.len();
    entries.iter().enumerate().map(move |(i, entry)| WireEntry {
        entry,
        claims: carries_hash(len, i),
    })
}

/// Decodes the `count` entries of a received segment in place, in one pass
/// over its `records`: entry `i` is the record with seq `first_seq + i`,
/// followed by its claimed hash where [`carries_hash`] puts one, and
/// nothing follows the last.  One allocation, of one view per entry: a
/// `count` the bytes cannot hold (every record is at least a tag and a
/// content length) is refused before it, and a seq past `u64::MAX` is an
/// error, not a wrap.
pub fn decode_entries(
    first_seq: u64,
    count: u64,
    records: &[u8],
) -> WireResult<Vec<LogEntryRef<'_>>> {
    let max = (records.len() / 2) as u64;
    if count > max {
        return Err(WireError::LengthOverflow {
            declared: count,
            max,
        });
    }
    let len = count as usize;
    decode_exact_with(records, |r| {
        let mut views = Vec::with_capacity(len);
        for i in 0..len {
            let seq = first_seq
                .checked_add(i as u64)
                .ok_or(WireError::Corrupt("log segment seq past u64::MAX"))?;
            let mut entry = LogEntryRef::decode_record(r, seq)?;
            if carries_hash(len, i) {
                entry.claim = Some(get_hash(r)?);
            }
            views.push(entry);
        }
        Ok(views)
    })
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
    fn a_wire_entry_is_its_stored_record_and_its_claim() {
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
        let records = wire.concat();
        let views = decode_entries(1, 40, &records).unwrap();
        for (i, ((entry, bytes), view)) in entries.iter().zip(&wire).zip(&views).enumerate() {
            let mut record = Writer::new();
            entry.encode_record(&mut record);
            let record = record.into_bytes();
            assert_eq!(record.len(), entry.stored_size());
            if carries_hash(entries.len(), i) {
                assert_eq!(bytes[..], [&record[..], entry.hash.as_bytes()].concat());
                assert_eq!(view.claim(), Some(entry.hash));
            } else {
                assert_eq!(bytes[..], record[..]);
                assert_eq!(view.claim(), None);
            }
            assert_eq!(view.to_entry(entry.hash), *entry);
        }
        // A count other than the one encoded puts a claim where the rule
        // puts none, or none where it puts one: the run frames itself, so
        // that is trailing bytes or a truncation.
        assert!(decode_entries(1, 39, &records).is_err());
        assert!(decode_entries(1, 41, &records).is_err());
        // The seq is the position: the same run from another first seq is
        // the same records under other seqs.
        let moved = decode_entries(7, 40, &records).unwrap();
        for (m, v) in moved.iter().zip(&views) {
            assert_eq!(
                (m.seq, m.kind, m.content, m.claim),
                (v.seq + 6, v.kind, v.content, v.claim)
            );
        }
        // A seq past u64::MAX is an error, not a wrap.
        let two: Vec<u8> = wire_entries(&entries[..2])
            .flat_map(|w| w.encode_to_vec())
            .collect();
        assert!(decode_entries(u64::MAX - 1, 2, &two).is_ok());
        assert!(matches!(
            decode_entries(u64::MAX, 2, &two),
            Err(WireError::Corrupt(_))
        ));
    }
}

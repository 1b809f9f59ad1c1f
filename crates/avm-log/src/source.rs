//! Read-only log access, independent of where the entries live.
//!
//! The audit endpoint serves log segments to auditors (paper §3.5), from a
//! recorder's whole [`TamperEvidentLog`] or from a prefix of its entries (a
//! durable provider serves the entries already on disk).  [`LogSource`] is
//! the small trait both implement: a dense, 1-based, hash-chained run of
//! entries starting at the `h_0 = 0` anchor.

use avm_crypto::sha256::Digest;

use crate::entry::LogEntry;
use crate::log::TamperEvidentLog;

/// A readable hash-chained log: dense 1-based sequence numbers anchored at
/// `h_0 = 0`.
///
/// Implementors guarantee `entries()[i].seq == i + 1`; the provided methods
/// rely on it.
pub trait LogSource: core::fmt::Debug {
    /// All entries, in sequence order.
    fn entries(&self) -> &[LogEntry];

    /// Number of entries.
    fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when the log holds no entries.
    fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The segment with sequence numbers in `[from_seq, to_seq]`, borrowed,
    /// plus the hash of the entry preceding it (needed to verify the chain
    /// from the segment start).  `None` when `from_seq` is 0, the range is
    /// empty, or it reaches past the end of the log.  This is the one place
    /// the bounds are checked: [`LogSource::segment`] clones what it
    /// returns, and the audit endpoint encodes it in place.
    fn segment_slice(&self, from_seq: u64, to_seq: u64) -> Option<(Digest, &[LogEntry])> {
        if from_seq == 0 || from_seq > to_seq {
            return None;
        }
        let entries = self.entries();
        let start = usize::try_from(from_seq - 1).ok()?;
        let end = usize::try_from(to_seq).ok()?;
        if end > entries.len() {
            return None;
        }
        let prev_hash = if start == 0 {
            Digest::ZERO
        } else {
            entries[start - 1].hash
        };
        Some((prev_hash, &entries[start..end]))
    }

    /// [`LogSource::segment_slice`] with the entries cloned.
    fn segment(&self, from_seq: u64, to_seq: u64) -> Option<(Digest, Vec<LogEntry>)> {
        self.segment_slice(from_seq, to_seq)
            .map(|(prev_hash, entries)| (prev_hash, entries.to_vec()))
    }
}

impl LogSource for TamperEvidentLog {
    fn entries(&self) -> &[LogEntry] {
        TamperEvidentLog::entries(self)
    }
}

/// A run of entries from seq 1 — a log's prefix — is a source of its own.
impl LogSource for [LogEntry] {
    fn entries(&self) -> &[LogEntry] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryKind;

    fn sample(n: u64) -> TamperEvidentLog {
        let mut log = TamperEvidentLog::new();
        for i in 0..n {
            log.append(EntryKind::Meta, vec![i as u8]);
        }
        log
    }

    #[test]
    fn trait_segment_matches_inherent_segment() {
        let log = sample(8);
        let src: &dyn LogSource = &log;
        assert_eq!(src.len(), 8);
        assert!(!src.is_empty());
        for (from, to) in [(1, 8), (1, 1), (3, 6), (8, 8)] {
            assert_eq!(src.segment(from, to), log.segment(from, to));
        }
        for (from, to) in [(0, 3), (5, 4), (5, 9)] {
            assert!(src.segment(from, to).is_none());
            assert!(log.segment(from, to).is_none());
        }
    }

    #[test]
    fn default_segment_impl_is_correct() {
        // The slice implementor provides only `entries`.
        let log = sample(6);
        let plain: &[LogEntry] = log.entries();
        for (from, to) in [(1, 6), (2, 5), (1, 1), (6, 6), (0, 2), (4, 3), (3, 7)] {
            assert_eq!(plain.segment(from, to), log.segment(from, to));
        }
        // A prefix serves only what it holds.
        let prefix = &log.entries()[..4];
        assert_eq!(prefix.segment(1, 4), log.segment(1, 4));
        assert!(prefix.segment(3, 5).is_none());
    }
}

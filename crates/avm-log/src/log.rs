//! The append-only tamper-evident log.

use avm_crypto::keys::SigningKey;
use avm_crypto::sha256::Digest;
use avm_wire::{Reader, Writer};

use crate::auth::Authenticator;
use crate::entry::{get_hash, EntryKind, EntryView, LogEntry, LogEntryRef};
use crate::source::LogSource;
use crate::verify::{chain_in_parts, parts_for, verify_chain, LogVerifyError};

/// An append-only hash-chained log owned by one machine.
#[derive(Debug, Clone, Default)]
pub struct TamperEvidentLog {
    entries: Vec<LogEntry>,
}

impl TamperEvidentLog {
    /// Creates an empty log (the chain anchor is `h_0 := 0`).
    pub fn new() -> TamperEvidentLog {
        TamperEvidentLog::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry has been appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence number the next appended entry will get (1-based).
    pub fn next_seq(&self) -> u64 {
        self.entries.last().map_or(1, |e| e.seq + 1)
    }

    /// Hash of the last entry (`h_0 = 0` for an empty log).
    pub fn last_hash(&self) -> Digest {
        self.entries.last().map_or(Digest::ZERO, |e| e.hash)
    }

    /// Hash of the entry *before* the last one (used when building
    /// authenticators, which carry `h_{i-1}`).
    pub fn prev_hash(&self) -> Digest {
        if self.entries.len() >= 2 {
            self.entries[self.entries.len() - 2].hash
        } else {
            Digest::ZERO
        }
    }

    /// Appends an entry of `kind` with `content`; returns a reference to it.
    pub fn append(&mut self, kind: EntryKind, content: Vec<u8>) -> &LogEntry {
        let entry = LogEntry::chained(&self.last_hash(), self.next_seq(), kind, content);
        self.entries.push(entry);
        self.entries.last().expect("just pushed")
    }

    /// Appends an entry and immediately produces an authenticator for it.
    pub fn append_authenticated(
        &mut self,
        kind: EntryKind,
        content: Vec<u8>,
        key: &SigningKey,
    ) -> (&LogEntry, Authenticator) {
        let prev = self.last_hash();
        let entry = LogEntry::chained(&prev, self.next_seq(), kind, content);
        let auth = Authenticator::create(key, &entry, prev);
        self.entries.push(entry);
        (self.entries.last().expect("just pushed"), auth)
    }

    /// Produces an authenticator for the most recent entry.
    pub fn authenticate_last(&self, key: &SigningKey) -> Option<Authenticator> {
        let entry = self.entries.last()?;
        Some(Authenticator::create(key, entry, self.prev_hash()))
    }

    /// All entries.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Entries whose *sequence numbers* fall in `range`, borrowed rather
    /// than cloned (sequence numbers are 1-based; indices are not).
    ///
    /// Out-of-range bounds are clamped, so `log.entries_range(5..)` on a
    /// three-entry log is simply empty.
    ///
    /// ```
    /// use avm_log::{EntryKind, TamperEvidentLog};
    /// let mut log = TamperEvidentLog::new();
    /// for i in 0..5u8 {
    ///     log.append(EntryKind::Meta, vec![i]);
    /// }
    /// let mid = log.entries_range(2..=4);
    /// assert_eq!(mid.len(), 3);
    /// assert_eq!(mid[0].seq, 2);
    /// assert_eq!(log.entries_range(..), log.entries());
    /// ```
    pub fn entries_range<R: core::ops::RangeBounds<u64>>(&self, range: R) -> &[LogEntry] {
        use core::ops::Bound;
        let len = self.entries.len() as u64;
        let start_seq = match range.start_bound() {
            Bound::Included(&s) => s.max(1),
            Bound::Excluded(&s) => s.saturating_add(1).max(1),
            Bound::Unbounded => 1,
        };
        let end_seq_excl = match range.end_bound() {
            Bound::Included(&e) => e.saturating_add(1),
            Bound::Excluded(&e) => e,
            Bound::Unbounded => u64::MAX,
        };
        let start = (start_seq - 1).min(len);
        let end = end_seq_excl.saturating_sub(1).min(len).max(start);
        &self.entries[start as usize..end as usize]
    }

    /// Rebuilds a log from entries recovered elsewhere (e.g. persisted
    /// segment files), verifying that they form a dense 1-based chain from
    /// the anchor `h_0 = 0`.
    pub fn from_entries(entries: Vec<LogEntry>) -> Result<TamperEvidentLog, LogVerifyError> {
        if let Some(first) = entries.first() {
            if first.seq != 1 {
                return Err(LogVerifyError::BadSequence {
                    expected: 1,
                    found: first.seq,
                });
            }
        }
        verify_chain(&Digest::ZERO, &entries)?;
        Ok(TamperEvidentLog { entries })
    }

    /// Returns the entry with sequence number `seq`.
    pub fn entry(&self, seq: u64) -> Option<&LogEntry> {
        // Sequence numbers are dense and 1-based.
        let idx = seq.checked_sub(1)? as usize;
        self.entries.get(idx)
    }

    /// Returns the log segment with sequence numbers in `[from_seq, to_seq]`,
    /// together with the hash of the entry preceding the segment (needed to
    /// verify the chain from the segment start).
    pub fn segment(&self, from_seq: u64, to_seq: u64) -> Option<(Digest, Vec<LogEntry>)> {
        LogSource::segment(self, from_seq, to_seq)
    }

    /// Total stored size of all entries, in bytes (log-growth accounting):
    /// what the log holds, not what a segment of it ships.
    pub fn total_stored_size(&self) -> u64 {
        self.entries.iter().map(|e| e.stored_size() as u64).sum()
    }

    /// Serializes the whole log as a segment file stores it: the entry
    /// count, every entry's record `t_i ‖ c_i` (the seq is its position,
    /// from 1) and the hash of the last entry — the one checkpoint the rest
    /// of the chain is derived towards.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(self.entries.len() as u64);
        for e in &self.entries {
            e.encode_record(&mut w);
        }
        if let Some(last) = self.entries.last() {
            w.put_raw(last.hash.as_bytes());
        }
        w.into_bytes()
    }

    /// Deserializes a log produced by [`TamperEvidentLog::to_bytes`],
    /// deriving every entry's hash from `h_0 = 0`; records that do not
    /// reach the stored head hash are [`avm_wire::WireError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<TamperEvidentLog, avm_wire::WireError> {
        let mut r = Reader::new(bytes);
        let n = r.get_varint()?;
        let mut views = Vec::with_capacity((n as usize).min(r.remaining() / 2));
        for seq in 1..=n {
            views.push(LogEntryRef::decode_record(&mut r, seq)?);
        }
        if let Some(last) = views.last_mut() {
            last.claim = Some(get_hash(&mut r)?);
        }
        if !r.is_empty() {
            return Err(avm_wire::WireError::TrailingBytes(r.remaining()));
        }
        let chain = chain_in_parts(&Digest::ZERO, &views, parts_for(views.len()));
        chain.verdict.map_err(|_| {
            avm_wire::WireError::Corrupt("log records do not reach their head hash")
        })?;
        let entries = views
            .iter()
            .zip(chain.hashes)
            .map(|(view, hash)| view.to_entry(hash))
            .collect();
        Ok(TamperEvidentLog { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::keys::SignatureScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> SigningKey {
        let mut rng = StdRng::seed_from_u64(7);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn sample_log(n: u64) -> TamperEvidentLog {
        let mut log = TamperEvidentLog::new();
        for i in 0..n {
            let kind = match i % 3 {
                0 => EntryKind::Send,
                1 => EntryKind::Recv,
                _ => EntryKind::NdEvent,
            };
            log.append(kind, format!("entry-{i}").into_bytes());
        }
        log
    }

    #[test]
    fn empty_log_properties() {
        let log = TamperEvidentLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.next_seq(), 1);
        assert_eq!(log.last_hash(), Digest::ZERO);
        assert_eq!(log.prev_hash(), Digest::ZERO);
        assert!(log.entry(1).is_none());
    }

    #[test]
    fn append_builds_a_valid_chain() {
        let log = sample_log(10);
        assert_eq!(log.len(), 10);
        let mut prev = Digest::ZERO;
        for (i, e) in log.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
            assert!(e.verify_against(&prev));
            prev = e.hash;
        }
    }

    #[test]
    fn entry_lookup_by_seq() {
        let log = sample_log(5);
        assert_eq!(log.entry(1).unwrap().seq, 1);
        assert_eq!(log.entry(5).unwrap().seq, 5);
        assert!(log.entry(0).is_none());
        assert!(log.entry(6).is_none());
    }

    #[test]
    fn segment_extraction_includes_prev_hash() {
        let log = sample_log(10);
        let (prev, seg) = log.segment(4, 7).unwrap();
        assert_eq!(prev, log.entry(3).unwrap().hash);
        assert_eq!(seg.len(), 4);
        assert_eq!(seg[0].seq, 4);
        assert_eq!(seg[3].seq, 7);

        let (prev, seg) = log.segment(1, 10).unwrap();
        assert_eq!(prev, Digest::ZERO);
        assert_eq!(seg.len(), 10);

        assert!(log.segment(0, 3).is_none());
        assert!(log.segment(5, 4).is_none());
        assert!(log.segment(5, 11).is_none());
    }

    #[test]
    fn authenticated_append_commits_to_entry() {
        let k = key();
        let mut log = TamperEvidentLog::new();
        log.append(EntryKind::Meta, b"prologue".to_vec());
        let (entry, auth) = log.append_authenticated(EntryKind::Send, b"msg".to_vec(), &k);
        assert_eq!(entry.seq, 2);
        auth.verify_signature(&k.verifying_key()).unwrap();
        assert!(auth.commits_to(EntryKind::Send, b"msg"));
        assert_eq!(auth.prev_hash, log.entry(1).unwrap().hash);

        let last_auth = log.authenticate_last(&k).unwrap();
        assert_eq!(last_auth, auth);
    }

    #[test]
    fn serialization_roundtrip() {
        let log = sample_log(25);
        let bytes = log.to_bytes();
        let restored = TamperEvidentLog::from_bytes(&bytes).unwrap();
        assert_eq!(restored.entries(), log.entries());
        assert!(TamperEvidentLog::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        // The count, every entry's record, and one hash.
        assert_eq!(bytes.len() as u64, 1 + log.total_stored_size() + 32);
        // A changed record no longer reaches the head hash.
        let mut damaged = bytes.clone();
        damaged[4] ^= 1;
        assert!(TamperEvidentLog::from_bytes(&damaged).is_err());
        let empty = TamperEvidentLog::new().to_bytes();
        assert_eq!(empty, [0]);
        assert!(TamperEvidentLog::from_bytes(&empty).unwrap().is_empty());
    }

    #[test]
    fn authenticate_last_on_empty_log_is_none() {
        let log = TamperEvidentLog::new();
        assert!(log.authenticate_last(&key()).is_none());
    }

    #[test]
    fn entries_range_selects_by_sequence_number() {
        let log = sample_log(10);
        let mid = log.entries_range(3..=5);
        assert_eq!(mid.len(), 3);
        assert_eq!(mid[0].seq, 3);
        assert_eq!(mid[2].seq, 5);
        assert_eq!(log.entries_range(..), log.entries());
        assert_eq!(log.entries_range(8..).len(), 3);
        assert_eq!(log.entries_range(11..), &[]);
        assert_eq!(log.entries_range(..1), &[]);
        assert_eq!(log.entries_range(4..4), &[]);
        assert_eq!(log.entries_range(0..3).len(), 2); // clamps to seq 1
        assert!(TamperEvidentLog::new().entries_range(..).is_empty());
    }

    #[test]
    fn from_entries_verifies_the_chain() {
        let log = sample_log(6);
        let rebuilt = TamperEvidentLog::from_entries(log.entries().to_vec()).unwrap();
        assert_eq!(rebuilt.entries(), log.entries());
        assert!(TamperEvidentLog::from_entries(Vec::new())
            .unwrap()
            .is_empty());

        // A gap in the sequence numbers is rejected.
        let mut gapped = log.entries().to_vec();
        gapped.remove(2);
        assert!(matches!(
            TamperEvidentLog::from_entries(gapped),
            Err(LogVerifyError::BadSequence { expected: 3, .. })
        ));

        // A rewritten entry breaks the chain.
        let mut tampered = log.entries().to_vec();
        tampered[3].content = b"rewritten".to_vec();
        assert!(matches!(
            TamperEvidentLog::from_entries(tampered),
            Err(LogVerifyError::BrokenChain { seq: 4 })
        ));
    }
}

//! Log entries and the hash chain.

use avm_crypto::sha256::{sha256, sha256_concat, Digest};
use avm_wire::varint::varint_len;
use avm_wire::{Decode, Encode, Reader, WireError, WireResult, Writer};

/// The type tag `t_i` of a log entry.
///
/// The first three variants are the message-exchange stream; the remaining
/// ones are the execution-trace stream the AVMM adds (paper §4.4: "the
/// tamper-evident log now contains two parallel streams of information").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// An outgoing network message.
    Send,
    /// An incoming network message (logged together with the sender's signature).
    Recv,
    /// An acknowledgment for a message we received.
    Ack,
    /// A nondeterministic input delivered to the AVM (clock read, packet
    /// injection, local input), stamped with its position in the instruction
    /// stream.  These are the paper's `TimeTracker`/MAC-layer entries.
    NdEvent,
    /// A snapshot record: the top-level hash of the AVM state.
    Snapshot,
    /// Administrative records (image digest, configuration, epoch markers).
    Meta,
}

impl EntryKind {
    /// Stable numeric tag used in the hash computation and on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            EntryKind::Send => 1,
            EntryKind::Recv => 2,
            EntryKind::Ack => 3,
            EntryKind::NdEvent => 4,
            EntryKind::Snapshot => 5,
            EntryKind::Meta => 6,
        }
    }

    /// Inverse of [`EntryKind::tag`].
    pub fn from_tag(tag: u8) -> Option<EntryKind> {
        Some(match tag {
            1 => EntryKind::Send,
            2 => EntryKind::Recv,
            3 => EntryKind::Ack,
            4 => EntryKind::NdEvent,
            5 => EntryKind::Snapshot,
            6 => EntryKind::Meta,
            _ => return None,
        })
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            EntryKind::Send => "SEND",
            EntryKind::Recv => "RECV",
            EntryKind::Ack => "ACK",
            EntryKind::NdEvent => "NDEVENT",
            EntryKind::Snapshot => "SNAPSHOT",
            EntryKind::Meta => "META",
        }
    }
}

/// One log entry `e_i = (s_i, t_i, c_i, h_i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Monotonically increasing sequence number `s_i`.
    pub seq: u64,
    /// Entry type `t_i`.
    pub kind: EntryKind,
    /// Entry content `c_i`.
    pub content: Vec<u8>,
    /// Chained hash `h_i`.
    pub hash: Digest,
}

/// Read access to one log entry `e_i = (s_i, t_i, c_i, h_i)`, whoever owns
/// its content: a [`LogEntry`] owns it, a [`LogEntryRef`] borrows it from
/// the packet it arrived in.  Every check an auditor runs over a segment —
/// [`crate::verify_chain`], [`crate::verify_segment`], `avm-core`'s content
/// checks and replay — is written once against this view.  A view is
/// `Sync`: a long segment is checked in parts, on several threads at once.
///
/// A view need not carry its hash.  An owned [`LogEntry`] claims one; an
/// entry of a wire segment or of a segment file claims one only at a
/// checkpoint ([`crate::wire`], `avm-store`), and [`crate::verify_chain`]
/// computes the rest from the claim before them.
pub trait EntryView: Sync {
    /// Sequence number `s_i`.
    fn seq(&self) -> u64;
    /// Entry type `t_i`.
    fn kind(&self) -> EntryKind;
    /// Entry content `c_i`.
    fn content(&self) -> &[u8];
    /// The chained hash `h_i` this entry claims, if it carries one.
    fn claim(&self) -> Option<Digest>;

    /// An owned copy of the entry with hash `hash` — the one
    /// [`crate::verify_chain`] gave it — which is what an auditor keeps of a
    /// segment that failed its audit, as transferable evidence.
    fn to_entry(&self, hash: Digest) -> LogEntry {
        LogEntry {
            seq: self.seq(),
            kind: self.kind(),
            content: self.content().to_vec(),
            hash,
        }
    }
}

impl EntryView for LogEntry {
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
        Some(self.hash)
    }
}

/// A log entry decoded *in place*: sequence number and kind by value, content
/// and any claimed hash still the bytes of the input it was decoded from.
/// Decoding one allocates nothing, so an auditor can check and replay a
/// downloaded segment straight from the packet buffer.
///
/// [`LogEntryRef::decode_record`] reads the *record* `t_i ‖ c_i`, which is
/// an entry as a wire segment carries it between checkpoints and as a
/// segment file stores it — the seq is the record's position, so the caller
/// supplies it.  The input is the
/// audited machine's, so every length is checked against the bytes that
/// remain before anything is sliced; [`LogEntry`]'s `Decode` is the seq,
/// this decode, the hash after it and a copy, so the two accept the same
/// records and report the same [`WireError`] on the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntryRef<'a> {
    /// Monotonically increasing sequence number `s_i`.
    pub seq: u64,
    /// Entry type `t_i`.
    pub kind: EntryKind,
    /// Entry content `c_i`, borrowed from the input.
    pub content: &'a [u8],
    /// The chained hash `h_i` the entry claims, borrowed from the input: set
    /// at a checkpoint of a wire segment ([`crate::wire::decode_entries`]),
    /// `None` elsewhere.
    pub claim: Option<&'a [u8; 32]>,
}

impl<'a> LogEntryRef<'a> {
    /// Reads one record `t_i ‖ c_i` from `r` as the entry with seq `seq`,
    /// claiming no hash; the content lives as long as `r`'s input.  The one
    /// record parser: a wire segment's decode, a segment file's scan and
    /// [`crate::TamperEvidentLog::from_bytes`] all call it.
    pub fn decode_record(r: &mut Reader<'a>, seq: u64) -> WireResult<LogEntryRef<'a>> {
        let tag = r.get_u8()?;
        let kind = EntryKind::from_tag(tag).ok_or(WireError::InvalidTag {
            what: "EntryKind",
            tag: tag as u64,
        })?;
        let content = r.get_bytes()?;
        Ok(LogEntryRef {
            seq,
            kind,
            content,
            claim: None,
        })
    }
}

/// Reads a 32-byte hash from `r`, borrowed from its input.
pub(crate) fn get_hash<'a>(r: &mut Reader<'a>) -> WireResult<&'a [u8; 32]> {
    r.get_raw(32)?
        .try_into()
        .map_err(|_| WireError::Corrupt("digest"))
}

impl EntryView for LogEntryRef<'_> {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn kind(&self) -> EntryKind {
        self.kind
    }
    fn content(&self) -> &[u8] {
        self.content
    }
    fn claim(&self) -> Option<Digest> {
        self.claim.map(|hash| Digest(*hash))
    }
}

/// Computes `h_i = H(h_{i-1} || s_i || t_i || H(c_i))` (paper §4.3).
pub fn chain_hash(prev: &Digest, seq: u64, kind: EntryKind, content: &[u8]) -> Digest {
    let content_hash = sha256(content);
    sha256_concat(&[
        prev.as_bytes(),
        &seq.to_le_bytes(),
        &[kind.tag()],
        content_hash.as_bytes(),
    ])
}

impl LogEntry {
    /// Constructs the entry following `prev` in the chain.
    pub fn chained(prev: &Digest, seq: u64, kind: EntryKind, content: Vec<u8>) -> LogEntry {
        let hash = chain_hash(prev, seq, kind, &content);
        LogEntry {
            seq,
            kind,
            content,
            hash,
        }
    }

    /// Recomputes this entry's hash from `prev` and checks it matches.
    pub fn verify_against(&self, prev: &Digest) -> bool {
        chain_hash(prev, self.seq, self.kind, &self.content) == self.hash
    }

    /// Size of the stored entry — its record `t_i ‖ c_i` — in bytes: what
    /// the log grows by (`Avmm::log_bytes`) and what `avm-store` writes for
    /// the entry inside its frame.  The seq is the entry's position and the
    /// hash is derived from the checkpoints around it, so neither is stored.
    pub fn stored_size(&self) -> usize {
        let content = self.content.len();
        1 + varint_len(content as u64) + content
    }

    /// Writes the record `t_i ‖ c_i`: the entry without its seq and hash,
    /// as a log segment ships it and as a segment file stores it
    /// ([`LogEntryRef::decode_record`] reads it back).
    pub fn encode_record(&self, w: &mut Writer) {
        w.put_u8(self.kind.tag());
        w.put_bytes(&self.content);
    }
}

/// A self-contained entry: its seq, its record, then its hash.  Neither the
/// store nor the wire holds an entry in this form; it is what a caller that
/// wants one owned entry as bytes, on its own, gets.
impl Encode for LogEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.seq);
        self.encode_record(w);
        w.put_raw(self.hash.as_bytes());
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.seq) + self.stored_size() + 32
    }
}

impl Decode for LogEntry {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let seq = r.get_varint()?;
        let record = LogEntryRef::decode_record(r, seq)?;
        let hash = get_hash(r)?;
        Ok(record.to_entry(Digest(*hash)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kinds_roundtrip_through_tags() {
        for kind in [
            EntryKind::Send,
            EntryKind::Recv,
            EntryKind::Ack,
            EntryKind::NdEvent,
            EntryKind::Snapshot,
            EntryKind::Meta,
        ] {
            assert_eq!(EntryKind::from_tag(kind.tag()), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(EntryKind::from_tag(0), None);
        assert_eq!(EntryKind::from_tag(99), None);
    }

    #[test]
    fn chain_hash_matches_definition() {
        let prev = Digest::ZERO;
        let content = b"hello".to_vec();
        let h = chain_hash(&prev, 7, EntryKind::Send, &content);
        let manual = sha256_concat(&[
            prev.as_bytes(),
            &7u64.to_le_bytes(),
            &[1u8],
            sha256(b"hello").as_bytes(),
        ]);
        assert_eq!(h, manual);
    }

    #[test]
    fn chained_entry_verifies_and_detects_tampering() {
        let prev = Digest::ZERO;
        let e = LogEntry::chained(&prev, 1, EntryKind::Recv, b"msg".to_vec());
        assert!(e.verify_against(&prev));

        let mut tampered = e.clone();
        tampered.content = b"other".to_vec();
        assert!(!tampered.verify_against(&prev));

        let mut reseq = e.clone();
        reseq.seq = 2;
        assert!(!reseq.verify_against(&prev));

        let mut rekind = e;
        rekind.kind = EntryKind::Send;
        assert!(!rekind.verify_against(&prev));
    }

    #[test]
    fn entry_wire_roundtrip() {
        let e = LogEntry::chained(&Digest::ZERO, 42, EntryKind::NdEvent, vec![1, 2, 3]);
        let bytes = e.encode_to_vec();
        assert_eq!(LogEntry::decode_exact(&bytes).unwrap(), e);
        let mut record = Writer::new();
        e.encode_record(&mut record);
        assert_eq!(bytes[1..bytes.len() - 32], *record.as_slice());
        assert_eq!(e.stored_size(), record.as_slice().len());
    }

    proptest! {
        /// The arithmetic `encoded_len` is the encoding's length, for
        /// sequence numbers of every width and content lengths on both sides
        /// of the varint boundaries.
        #[test]
        fn encoded_len_is_the_encoding_s_length(
            seq_bits in 0u32..65,
            seq in any::<u64>(),
            boundary in 0usize..8,
            jitter in 0usize..3,
            tag in 1u8..7,
        ) {
            let seq = if seq_bits == 0 { 0 } else { seq >> (64 - seq_bits) };
            let len = [0, 1, 126, 127, 128, 16_382, 16_383, 16_384][boundary] + jitter;
            let e = LogEntry {
                seq,
                kind: EntryKind::from_tag(tag).unwrap(),
                content: vec![tag; len],
                hash: Digest::ZERO,
            };
            prop_assert_eq!(e.encoded_len(), e.encode_to_vec().len());
            let mut record = Writer::new();
            e.encode_record(&mut record);
            prop_assert_eq!(e.stored_size(), record.as_slice().len());
            prop_assert_eq!(e.encoded_len(), varint_len(seq) + e.stored_size() + 32);
        }
    }

    #[test]
    fn invalid_kind_tag_rejected() {
        let e = LogEntry::chained(&Digest::ZERO, 1, EntryKind::Send, vec![]);
        let mut bytes = e.encode_to_vec();
        bytes[1] = 77; // corrupt the kind tag
        assert!(LogEntry::decode_exact(&bytes).is_err());
    }
}

//! Content formats of AVMM log entries.
//!
//! The tamper-evident log carries "two parallel streams of information:
//! message exchanges and nondeterministic inputs" (paper §4.4).  This module
//! defines the byte-level content (`c_i`) of every entry type the recorder
//! writes, plus the classification used to reproduce the log-composition
//! breakdown of Figure 4 (TimeTracker vs MAC-layer vs other vs
//! tamper-evident overhead).
//!
//! The records that carry a payload — SEND, RECV, ACK — also have a
//! *borrowed* form ([`SendRecordRef`], [`RecvRecordRef`], [`AckRecordRef`])
//! whose strings and byte fields are slices of the entry content they were
//! decoded from: an audit compares and hashes them where they lie and copies
//! only the one packet it injects.  Each owned record's `Decode` is the
//! borrowed decode followed by a copy, so there is one parser per format.
//!
//! The two streams are cross-referenced by seq alone: a packet injection
//! names the RECV entry it injected (`step ‖ 2 ‖ recv_seq`) and an ACK the
//! SEND it acknowledges.  No record repeats a digest of bytes the log
//! already holds — the auditor hashes what it received, and replay injects
//! the RECV's own payload.

use avm_crypto::sha256::Digest;
use avm_log::EntryKind;
use avm_vm::devices::InputEvent;
use avm_wire::{decode_exact_with, Decode, Encode, Reader, WireError, WireResult, Writer};

/// Content of a SEND entry: an outgoing message and the instruction-stream
/// position at which the guest emitted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRecord {
    /// Machine step count when the packet left the guest.
    pub step: u64,
    /// Destination node name (application-level addressing).
    pub dest: String,
    /// Packet payload exactly as the guest produced it.
    pub payload: Vec<u8>,
}

impl Encode for SendRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.step);
        w.put_str(&self.dest);
        w.put_bytes(&self.payload);
    }
}

impl Decode for SendRecord {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let rec = SendRecordRef::decode(r)?;
        Ok(SendRecord {
            step: rec.step,
            dest: rec.dest.to_string(),
            payload: rec.payload.to_vec(),
        })
    }
}

/// A [`SendRecord`] decoded in place: `dest` and `payload` borrow the entry
/// content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRecordRef<'a> {
    /// Machine step count when the packet left the guest.
    pub step: u64,
    /// Destination node name.
    pub dest: &'a str,
    /// Packet payload exactly as the guest produced it.
    pub payload: &'a [u8],
}

impl<'a> SendRecordRef<'a> {
    /// Reads one record from `r`.
    pub fn decode(r: &mut Reader<'a>) -> WireResult<SendRecordRef<'a>> {
        Ok(SendRecordRef {
            step: r.get_varint()?,
            dest: r.get_str()?,
            payload: r.get_bytes()?,
        })
    }

    /// Decodes `content`, requiring that all of it is consumed.
    pub fn decode_exact(content: &'a [u8]) -> WireResult<SendRecordRef<'a>> {
        decode_exact_with(content, Self::decode)
    }
}

/// Content of a RECV entry: an incoming message, logged together with the
/// sender's signature (which the AVMM strips before injection, §4.3) and
/// the message id that signature covers, so that the log and the sender's
/// key suffice to check it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvRecord {
    /// Name of the sending node.
    pub source: String,
    /// The sender's message number, as its envelope carried it.
    pub msg_id: u64,
    /// Message payload.
    pub payload: Vec<u8>,
    /// The sender's signature over the message.
    pub signature: Vec<u8>,
}

impl Encode for RecvRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.source);
        w.put_varint(self.msg_id);
        w.put_bytes(&self.payload);
        w.put_bytes(&self.signature);
    }
}

impl Decode for RecvRecord {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let rec = RecvRecordRef::decode(r)?;
        Ok(RecvRecord {
            source: rec.source.to_string(),
            msg_id: rec.msg_id,
            payload: rec.payload.to_vec(),
            signature: rec.signature.to_vec(),
        })
    }
}

/// A [`RecvRecord`] decoded in place: every field borrows the entry content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRecordRef<'a> {
    /// Name of the sending node.
    pub source: &'a str,
    /// The sender's message number, as its envelope carried it.
    pub msg_id: u64,
    /// Message payload.
    pub payload: &'a [u8],
    /// The sender's signature over the message.
    pub signature: &'a [u8],
}

impl<'a> RecvRecordRef<'a> {
    /// Reads one record from `r`.
    pub fn decode(r: &mut Reader<'a>) -> WireResult<RecvRecordRef<'a>> {
        Ok(RecvRecordRef {
            source: r.get_str()?,
            msg_id: r.get_varint()?,
            payload: r.get_bytes()?,
            signature: r.get_bytes()?,
        })
    }

    /// Decodes `content`, requiring that all of it is consumed.
    pub fn decode_exact(content: &'a [u8]) -> WireResult<RecvRecordRef<'a>> {
        decode_exact_with(content, Self::decode)
    }
}

/// Content of an ACK entry: the acknowledgment we received for one of our
/// SEND entries (the auditor checks that every message was acknowledged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckRecord {
    /// Sequence number of the SEND entry being acknowledged.
    pub send_seq: u64,
    /// The peer's acknowledgment, encoded.
    pub ack_bytes: Vec<u8>,
}

impl Encode for AckRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.send_seq);
        w.put_bytes(&self.ack_bytes);
    }
}

impl Decode for AckRecord {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let rec = AckRecordRef::decode(r)?;
        Ok(AckRecord {
            send_seq: rec.send_seq,
            ack_bytes: rec.ack_bytes.to_vec(),
        })
    }
}

/// An [`AckRecord`] decoded in place: `ack_bytes` borrows the entry content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecordRef<'a> {
    /// Sequence number of the SEND entry being acknowledged.
    pub send_seq: u64,
    /// The peer's acknowledgment, encoded.
    pub ack_bytes: &'a [u8],
}

impl<'a> AckRecordRef<'a> {
    /// Reads one record from `r`.
    pub fn decode(r: &mut Reader<'a>) -> WireResult<AckRecordRef<'a>> {
        Ok(AckRecordRef {
            send_seq: r.get_varint()?,
            ack_bytes: r.get_bytes()?,
        })
    }

    /// Decodes `content`, requiring that all of it is consumed.
    pub fn decode_exact(content: &'a [u8]) -> WireResult<AckRecordRef<'a>> {
        decode_exact_with(content, Self::decode)
    }
}

/// The nondeterministic input classes the AVMM records (paper §4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdDetail {
    /// The guest read the virtual clock and was given `value`
    /// (the paper's `TimeTracker` entries).
    ClockRead {
        /// Microsecond value delivered to the guest.
        value: u64,
    },
    /// A received message was injected into the guest NIC.  Names the RECV
    /// entry whose payload was injected: the injection carries no copy or
    /// hash of that payload, so what the guest was given is the logged RECV
    /// by construction, and the syntactic phase checks that the RECV is
    /// there.
    PacketInjected {
        /// Sequence number of the corresponding RECV entry, earlier in the
        /// log.
        recv_seq: u64,
    },
    /// A local input event (keyboard/mouse) was injected.
    InputInjected {
        /// The injected event.
        event: InputEvent,
    },
}

/// Content of an NDEVENT entry: one nondeterministic input with its
/// instruction-stream position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdEventRecord {
    /// Machine step count at which the input was (or will be) visible to the
    /// guest.
    pub step: u64,
    /// What was injected.
    pub detail: NdDetail,
}

impl Encode for NdEventRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.step);
        match &self.detail {
            NdDetail::ClockRead { value } => {
                w.put_u8(1);
                w.put_varint(*value);
            }
            NdDetail::PacketInjected { recv_seq } => {
                w.put_u8(2);
                w.put_varint(*recv_seq);
            }
            NdDetail::InputInjected { event } => {
                w.put_u8(3);
                event.encode(w);
            }
        }
    }
}

impl Decode for NdEventRecord {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let step = r.get_varint()?;
        let tag = r.get_u8()?;
        let detail = match tag {
            1 => NdDetail::ClockRead {
                value: r.get_varint()?,
            },
            2 => NdDetail::PacketInjected {
                recv_seq: r.get_varint()?,
            },
            3 => NdDetail::InputInjected {
                event: InputEvent::decode(r)?,
            },
            other => {
                return Err(WireError::InvalidTag {
                    what: "NdDetail",
                    tag: other as u64,
                })
            }
        };
        Ok(NdEventRecord { step, detail })
    }
}

/// Content of a SNAPSHOT entry: the top-level hash of the AVM state at a
/// given point, recorded so auditors can verify downloaded snapshots and so
/// replay can be checked mid-stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Machine step count at which the snapshot was taken.
    pub step: u64,
    /// Snapshot identifier (dense, starting at 0).
    pub snapshot_id: u64,
    /// Merkle root over the AVM state (memory pages, disk blocks, CPU and
    /// device state).
    pub state_root: Digest,
}

impl Encode for SnapshotRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.step);
        w.put_varint(self.snapshot_id);
        w.put_raw(self.state_root.as_bytes());
    }
}

impl Decode for SnapshotRecord {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(SnapshotRecord {
            step: r.get_varint()?,
            snapshot_id: r.get_varint()?,
            state_root: Digest::from_slice(r.get_raw(32)?).ok_or(WireError::Corrupt("digest"))?,
        })
    }
}

/// Content of the initial META entry: which image this execution claims to
/// run, under which configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaRecord {
    /// Digest of the VM image.
    pub image_digest: Digest,
    /// Name of the machine/owner.
    pub node_name: String,
    /// Label of the signature scheme in use.
    pub scheme_label: String,
}

impl Encode for MetaRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self.image_digest.as_bytes());
        w.put_str(&self.node_name);
        w.put_str(&self.scheme_label);
    }
}

impl Decode for MetaRecord {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(MetaRecord {
            image_digest: Digest::from_slice(r.get_raw(32)?).ok_or(WireError::Corrupt("digest"))?,
            node_name: r.get_string()?,
            scheme_label: r.get_string()?,
        })
    }
}

/// Log-content classes used by the Figure 4 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryClass {
    /// Clock/timing entries (the paper's `TimeTracker`, ~59% of the log).
    TimeTracker,
    /// Network packet payloads entering or leaving the AVM (~14%).
    MacLayer,
    /// Everything else needed for replay (other nondeterministic events,
    /// snapshots, metadata).
    Other,
    /// Data only needed for tamper evidence (acknowledgments; the harness
    /// additionally accounts authenticators and signatures here).
    TamperEvident,
}

impl EntryClass {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            EntryClass::TimeTracker => "timetracker",
            EntryClass::MacLayer => "mac-layer",
            EntryClass::Other => "other",
            EntryClass::TamperEvident => "tamper-evident",
        }
    }
}

/// Classifies a log entry for the Figure 4 breakdown.
pub fn classify_entry(kind: EntryKind, content: &[u8]) -> EntryClass {
    match kind {
        EntryKind::NdEvent => match NdEventRecord::decode_exact(content) {
            Ok(rec) => match rec.detail {
                NdDetail::ClockRead { .. } => EntryClass::TimeTracker,
                NdDetail::PacketInjected { .. } => EntryClass::MacLayer,
                NdDetail::InputInjected { .. } => EntryClass::Other,
            },
            Err(_) => EntryClass::Other,
        },
        EntryKind::Send | EntryKind::Recv => EntryClass::MacLayer,
        EntryKind::Ack => EntryClass::TamperEvident,
        EntryKind::Snapshot | EntryKind::Meta => EntryClass::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::sha256::sha256;

    #[test]
    fn send_record_roundtrip() {
        let rec = SendRecord {
            step: 12345,
            dest: "bob".into(),
            payload: vec![1, 2, 3],
        };
        assert_eq!(SendRecord::decode_exact(&rec.encode_to_vec()).unwrap(), rec);
    }

    #[test]
    fn recv_record_roundtrip() {
        let rec = RecvRecord {
            source: "alice".into(),
            msg_id: 300,
            payload: b"hello".to_vec(),
            signature: vec![9; 64],
        };
        let bytes = rec.encode_to_vec();
        assert_eq!(RecvRecord::decode_exact(&bytes).unwrap(), rec);
        // source ‖ varint msg_id (two bytes for 300) ‖ payload ‖ signature.
        assert_eq!(bytes.len(), (1 + 5) + 2 + (1 + 5) + (1 + 64));
    }

    #[test]
    fn ack_record_roundtrip() {
        let rec = AckRecord {
            send_seq: 88,
            ack_bytes: vec![1, 2, 3, 4],
        };
        assert_eq!(AckRecord::decode_exact(&rec.encode_to_vec()).unwrap(), rec);
    }

    #[test]
    fn nd_event_variants_roundtrip() {
        let records = vec![
            NdEventRecord {
                step: 1,
                detail: NdDetail::ClockRead { value: 5_000_000 },
            },
            NdEventRecord {
                step: 2,
                detail: NdDetail::PacketInjected { recv_seq: 7 },
            },
            NdEventRecord {
                step: 3,
                detail: NdDetail::InputInjected {
                    event: InputEvent {
                        device: 0,
                        code: 32,
                        value: 1,
                    },
                },
            },
        ];
        for rec in records {
            assert_eq!(
                NdEventRecord::decode_exact(&rec.encode_to_vec()).unwrap(),
                rec
            );
        }
        // An injection is its step, its tag and the RECV's seq, nothing more.
        let injection = NdEventRecord {
            step: 2,
            detail: NdDetail::PacketInjected { recv_seq: 300 },
        };
        assert_eq!(injection.encode_to_vec(), [2, 2, 0xac, 0x02]);
    }

    #[test]
    fn invalid_nd_tag_rejected() {
        let rec = NdEventRecord {
            step: 1,
            detail: NdDetail::ClockRead { value: 3 },
        };
        let mut bytes = rec.encode_to_vec();
        bytes[1] = 9;
        assert!(NdEventRecord::decode_exact(&bytes).is_err());
    }

    #[test]
    fn snapshot_and_meta_roundtrip() {
        let s = SnapshotRecord {
            step: 500,
            snapshot_id: 3,
            state_root: sha256(b"root"),
        };
        assert_eq!(SnapshotRecord::decode_exact(&s.encode_to_vec()).unwrap(), s);
        let m = MetaRecord {
            image_digest: sha256(b"image"),
            node_name: "bob".into(),
            scheme_label: "rsa768".into(),
        };
        assert_eq!(MetaRecord::decode_exact(&m.encode_to_vec()).unwrap(), m);
    }

    #[test]
    fn classification_matches_figure4_categories() {
        let clock = NdEventRecord {
            step: 1,
            detail: NdDetail::ClockRead { value: 1 },
        };
        assert_eq!(
            classify_entry(EntryKind::NdEvent, &clock.encode_to_vec()),
            EntryClass::TimeTracker
        );
        let pkt = NdEventRecord {
            step: 1,
            detail: NdDetail::PacketInjected { recv_seq: 1 },
        };
        assert_eq!(
            classify_entry(EntryKind::NdEvent, &pkt.encode_to_vec()),
            EntryClass::MacLayer
        );
        assert_eq!(classify_entry(EntryKind::Send, &[]), EntryClass::MacLayer);
        assert_eq!(classify_entry(EntryKind::Recv, &[]), EntryClass::MacLayer);
        assert_eq!(
            classify_entry(EntryKind::Ack, &[]),
            EntryClass::TamperEvident
        );
        assert_eq!(classify_entry(EntryKind::Meta, &[]), EntryClass::Other);
        assert_eq!(
            classify_entry(EntryKind::NdEvent, &[255]),
            EntryClass::Other
        );
        assert_eq!(EntryClass::TimeTracker.label(), "timetracker");
    }
}

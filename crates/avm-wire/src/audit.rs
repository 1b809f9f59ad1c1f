//! The audit wire protocol: one request/response message pair for every
//! exchange an auditor performs against a provider (paper §3.5, §4.5).
//!
//! The paper's audits are a *distributed* exchange: Alice downloads Bob's
//! log, snapshots, and — in the incremental mode of §3.5 — individual state
//! blobs over a real link.  This module defines the byte format of that
//! exchange so the same protocol can be carried by different transports (an
//! in-process call, or the simulated network in `avm-net`):
//!
//! * [`AuditRequest`] — auditor → provider.  Five kinds, covering every
//!   exchange a spot check, full audit or attested audit performs:
//!   1. **manifest fetch** — the chain-manifest metadata that starts an
//!      on-demand or dedup reconstruction,
//!   2. **batched blob fetch** — a [`BlobRequest`] of content digests,
//!   3. **log-segment fetch** — log entries addressed either by sequence
//!      range (full audits) or by snapshot chunk (spot checks, §3.5),
//!   4. **snapshot-section fetch** — the whole-section transfer stream of
//!      the full-download model,
//!   5. **attestation challenge** — the nonce'd launch-measurement
//!      challenge of [`crate::attest`], sent before the audit proper.
//! * [`AuditResponse`] — provider → auditor: the matching payloads, or an
//!   [`AuditResponse::Error`] when the provider cannot serve the request.
//!
//! Manifest and section payloads are *opaque byte strings* at this layer:
//! `avm-wire` sits below `avm-core`, so the semantic types (`ChainManifest`,
//! the section stream) encode themselves and travel here as bytes.  A log
//! segment's entries travel as one opaque run of records for the same
//! reason: `avm-log` decides what a record holds (its tag and content, and
//! its hash at a checkpoint) and where it ends.
//!
//! # Envelopes, sessions, and retransmission
//!
//! On a lossy transport, requests are retransmitted on timeout, so a
//! response must be matchable to the request that caused it — and a
//! provider serving many concurrent auditors must know *which* auditor's
//! request-id space a frame belongs to.  [`seal_session_message`] wraps an
//! encoded message in `varint session-id || varint request-id || message`,
//! framed with the checksummed [`crate::frame`] format;
//! [`open_session_message`] reverses it.  Request ids are scoped to their
//! session: two sessions may both be on request 3 without ambiguity.  A
//! receiver discards frames whose (session, request) pair does not match an
//! exchange it is waiting on (stale responses to a retransmitted request).
//!
//! Single-session transports use the [`seal_message`] / [`open_message`]
//! wrappers, which pin the session id to [`CLIENT_SESSION`] — a fleet
//! session sealing with the same id is therefore *byte-identical* on the
//! wire to the single-client path, which is what lets the fleet refactor
//! pin its N=1 run against the legacy transport.  [`seal_encoded_message`]
//! seals an already-encoded message body, so a provider can serve one
//! cached response encoding to many sessions without re-encoding it.
//!
//! # Writing a response once
//!
//! A provider does not need an owned [`AuditResponse`] to answer: the bulk
//! variants have writers that produce the same bytes straight from what the
//! provider holds.  [`encode_log_segment`] encodes each record in place into
//! a buffer sized from `Encode::encoded_len` (no `Vec` per entry);
//! [`encode_sections_with`] lets the caller serialise the section stream
//! into the body behind its length prefix; the small variants encode through
//! the borrowed [`AuditResponseRef`].  Each writer is pinned equal to
//! [`AuditResponse`]'s `Encode` by `tests/zero_copy.rs`.

use crate::attest::{AttestChallenge, AttestQuote, AttestQuoteRef};
use crate::blob::{BlobRequest, BlobResponse, BlobResponseRef};
use crate::frame::{read_frame, write_frame_parts};
use crate::varint::{varint_len, write_varint};
use crate::{decode_exact_with, Decode, Encode, Reader, WireError, WireResult, Writer};

/// How a log-segment fetch addresses the entries it wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentAddress {
    /// An explicit sequence range `[from_seq, to_seq]`, 1-based inclusive;
    /// `to_seq == 0` means "to the end of the log".  Used by full audits.
    Seq {
        /// First sequence number requested.
        from_seq: u64,
        /// Last sequence number requested (0 = end of log).
        to_seq: u64,
    },
    /// The §3.5 chunk between two snapshots: the SNAPSHOT entry for
    /// `start_snapshot` — the chunk's anchor, which records the root of the
    /// state replay starts from — and every entry after it up to the
    /// SNAPSHOT entry `chunk` snapshots later (both inclusive), or the end
    /// of the log.  The provider resolves the boundaries — only it knows its
    /// log's layout.
    Chunk {
        /// Snapshot id the chunk starts from.
        start_snapshot: u64,
        /// Number of consecutive segments covered (`k`).
        chunk: u64,
    },
}

impl Encode for SegmentAddress {
    fn encode(&self, w: &mut Writer) {
        match self {
            SegmentAddress::Seq { from_seq, to_seq } => {
                w.put_u8(1);
                w.put_varint(*from_seq);
                w.put_varint(*to_seq);
            }
            SegmentAddress::Chunk {
                start_snapshot,
                chunk,
            } => {
                w.put_u8(2);
                w.put_varint(*start_snapshot);
                w.put_varint(*chunk);
            }
        }
    }
}

impl Decode for SegmentAddress {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            1 => Ok(SegmentAddress::Seq {
                from_seq: r.get_varint()?,
                to_seq: r.get_varint()?,
            }),
            2 => Ok(SegmentAddress::Chunk {
                start_snapshot: r.get_varint()?,
                chunk: r.get_varint()?,
            }),
            tag => Err(WireError::InvalidTag {
                what: "SegmentAddress",
                tag: tag as u64,
            }),
        }
    }
}

/// Auditor → provider: one request of the audit protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditRequest {
    /// "Send me the chain manifest for snapshot `snapshot_id`" — the
    /// metadata download that starts an on-demand or dedup reconstruction.
    Manifest {
        /// Snapshot the manifest should reconstruct.
        snapshot_id: u64,
    },
    /// "Send me these payload blobs" — the batched digest-addressed fetch.
    Blobs(BlobRequest),
    /// "Send me this log segment" (by seq range or snapshot chunk).
    LogSegment(SegmentAddress),
    /// "Send me the whole-section transfer stream up to snapshot `upto_id`"
    /// — the paper's full snapshot dump.  No audit session sends it: a
    /// full-download spot check asks for the manifest and blobs.
    Sections {
        /// Snapshot the download reconstructs.
        upto_id: u64,
    },
    /// "Prove your launch state, bound to this nonce" — the attestation
    /// challenge ([`crate::attest`]).  Auditors send it first and continue
    /// into ordinary spot-check requests over the same session.
    Attest(AttestChallenge),
}

impl Encode for AuditRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            AuditRequest::Manifest { snapshot_id } => {
                w.put_u8(1);
                w.put_varint(*snapshot_id);
            }
            AuditRequest::Blobs(req) => {
                w.put_u8(2);
                req.encode(w);
            }
            AuditRequest::LogSegment(addr) => {
                w.put_u8(3);
                addr.encode(w);
            }
            AuditRequest::Sections { upto_id } => {
                w.put_u8(4);
                w.put_varint(*upto_id);
            }
            AuditRequest::Attest(challenge) => {
                w.put_u8(5);
                challenge.encode(w);
            }
        }
    }
}

impl Decode for AuditRequest {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            1 => Ok(AuditRequest::Manifest {
                snapshot_id: r.get_varint()?,
            }),
            2 => Ok(AuditRequest::Blobs(BlobRequest::decode(r)?)),
            3 => Ok(AuditRequest::LogSegment(SegmentAddress::decode(r)?)),
            4 => Ok(AuditRequest::Sections {
                upto_id: r.get_varint()?,
            }),
            5 => Ok(AuditRequest::Attest(AttestChallenge::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                what: "AuditRequest",
                tag: tag as u64,
            }),
        }
    }
}

/// Provider → auditor: the answer to one [`AuditRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditResponse {
    /// The encoded `ChainManifest` (opaque at this layer).
    Manifest {
        /// Encoded manifest bytes.
        manifest: Vec<u8>,
    },
    /// The payloads for a [`AuditRequest::Blobs`] request.
    Blobs(BlobResponse),
    /// A log segment: the chain hash preceding its first entry, that
    /// entry's sequence number, the number of entries and their records as
    /// one byte run.  Entry `i` has seq `first_seq + i`, so no record
    /// carries one, and a record frames itself (`avm-log`'s `wire` module
    /// owns its layout: tag, content, and its hash only at a checkpoint; at
    /// this layer the run is opaque).
    ///
    /// For a [`SegmentAddress::Chunk`] request on a log whose SNAPSHOT
    /// records do not all decode, an honest provider returns the log
    /// *prefix* up to and including the first undecodable record — the
    /// auditor's syntactic phase, which decodes every record it received,
    /// reaches the malformed-log verdict itself (it never trusts the
    /// provider's own classification).
    LogSegment {
        /// Hash of the entry preceding the segment (the chain anchor a
        /// syntactic check verifies against).
        prev_hash: [u8; 32],
        /// Sequence number of the first entry.
        first_seq: u64,
        /// Number of entries in `records`.
        count: u64,
        /// The entries' records, back to back.
        records: Vec<u8>,
    },
    /// The whole-section transfer stream (opaque at this layer).
    Sections {
        /// The stream bytes.
        stream: Vec<u8>,
    },
    /// The provider cannot serve the request (unknown snapshot, no log, …).
    Error {
        /// Human-readable reason, mapped back to an error by the client.
        message: String,
    },
    /// The attestation quote answering an [`AuditRequest::Attest`]
    /// challenge.  Nonce-dependent, so never served from a response cache.
    Attestation(AttestQuote),
}

impl Encode for AuditResponse {
    fn encode(&self, w: &mut Writer) {
        self.view().encode(w);
    }
}

/// Writes a [`AuditResponse::LogSegment`] body: the one layout every
/// response writer and [`encode_log_segment`] produce.
fn put_log_segment(
    w: &mut Writer,
    prev_hash: &[u8; 32],
    first_seq: u64,
    count: u64,
    records: &[u8],
) {
    w.put_u8(3);
    w.put_raw(prev_hash);
    w.put_varint(first_seq);
    w.put_varint(count);
    w.put_bytes(records);
}

/// Reads a [`AuditResponse::LogSegment`] body after its tag, records still
/// borrowed.  A record is at least a tag and a content length, so a `count`
/// above `records.len() / 2` is refused before anyone sizes a list by it.
fn get_log_segment<'a>(r: &mut Reader<'a>) -> WireResult<([u8; 32], u64, u64, &'a [u8])> {
    let mut prev_hash = [0u8; 32];
    prev_hash.copy_from_slice(r.get_raw(32)?);
    let first_seq = r.get_varint()?;
    let count = r.get_varint()?;
    let records = r.get_bytes()?;
    let max = (records.len() / 2) as u64;
    if count > max {
        return Err(WireError::LengthOverflow {
            declared: count,
            max,
        });
    }
    Ok((prev_hash, first_seq, count, records))
}

/// Encodes an [`AuditResponse::LogSegment`] straight from the entries a
/// provider only borrows: byte-identical to the owned response holding
/// their records back to back, but each record is written once, in place,
/// into a buffer sized from `E::encoded_len` — no owned copy and no growth.
/// (`E` is `avm-log`'s `WireEntry`, which sits above this crate, decides
/// which records carry their hash and overrides `encoded_len` with
/// arithmetic; `records` is walked twice, to size and to write.)
pub fn encode_log_segment<E: Encode>(
    prev_hash: &[u8; 32],
    first_seq: u64,
    records: impl ExactSizeIterator<Item = E> + Clone,
) -> Vec<u8> {
    let len: usize = records.clone().map(|record| record.encoded_len()).sum();
    let count = records.len() as u64;
    let mut w = Writer::with_capacity(
        1 + 32 + varint_len(first_seq) + varint_len(count) + varint_len(len as u64) + len,
    );
    w.put_u8(3);
    w.put_raw(prev_hash);
    w.put_varint(first_seq);
    w.put_varint(count);
    w.put_varint(len as u64);
    for record in records {
        record.encode(&mut w);
    }
    w.into_bytes()
}

/// Encodes an [`AuditResponse::Sections`] whose `len`-byte stream `fill`
/// appends in place, so the stream is serialised straight into the response
/// body instead of into a `Vec` of its own first.
///
/// # Panics
/// If `fill` appends anything but exactly `len` bytes — the length prefix is
/// already written by then, so the body would not decode.
pub fn encode_sections_with(len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + varint_len(len as u64) + len);
    body.push(4);
    write_varint(&mut body, len as u64);
    let start = body.len();
    fill(&mut body);
    assert_eq!(body.len() - start, len, "section stream length");
    body
}

impl Decode for AuditResponse {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        AuditResponseRef::decode(r).map(|response| response.to_owned())
    }
}

impl AuditResponse {
    /// This response's borrowed view, which writes its bytes.
    fn view(&self) -> AuditResponseRef<'_> {
        match self {
            AuditResponse::Manifest { manifest } => AuditResponseRef::Manifest { manifest },
            AuditResponse::Blobs(resp) => AuditResponseRef::Blobs(resp.view()),
            AuditResponse::LogSegment {
                prev_hash,
                first_seq,
                count,
                records,
            } => AuditResponseRef::LogSegment {
                prev_hash: *prev_hash,
                first_seq: *first_seq,
                count: *count,
                records,
            },
            AuditResponse::Sections { stream } => AuditResponseRef::Sections { stream },
            AuditResponse::Error { message } => AuditResponseRef::Error { message },
            AuditResponse::Attestation(quote) => AuditResponseRef::Attestation(quote.view()),
        }
    }

    /// The variant's name, for protocol-violation diagnostics.
    pub fn variant_name(&self) -> &'static str {
        match self {
            AuditResponse::Manifest { .. } => "Manifest",
            AuditResponse::Blobs(_) => "Blobs",
            AuditResponse::LogSegment { .. } => "LogSegment",
            AuditResponse::Sections { .. } => "Sections",
            AuditResponse::Error { .. } => "Error",
            AuditResponse::Attestation(_) => "Attestation",
        }
    }
}

/// Borrowed view of an [`AuditResponse`]: every bulk payload — the manifest
/// bytes, each blob, a log segment's records, the sections stream — aliases
/// the packet buffer it was decoded from.
///
/// This is what lets a receiver parse a response straight out of the framed
/// packet, verify or measure it, and copy only what it decides to keep,
/// instead of materializing an owned [`AuditResponse`] first.  Encoding a
/// `AuditResponseRef` is byte-identical to encoding the owned response it
/// borrows from or converts into ([`AuditResponseRef::to_owned`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditResponseRef<'a> {
    /// The encoded `ChainManifest`, borrowed from the packet.
    Manifest {
        /// Encoded manifest bytes.
        manifest: &'a [u8],
    },
    /// The payloads for a blob request, each borrowed from the packet.
    Blobs(BlobResponseRef<'a>),
    /// A log segment with its chain anchor; the records borrow from the
    /// packet.
    LogSegment {
        /// Hash of the entry preceding the segment.
        prev_hash: [u8; 32],
        /// Sequence number of the first entry.
        first_seq: u64,
        /// Number of entries in `records`.
        count: u64,
        /// The entries' records, back to back.
        records: &'a [u8],
    },
    /// The whole-section transfer stream, borrowed from the packet.
    Sections {
        /// The stream bytes.
        stream: &'a [u8],
    },
    /// The provider cannot serve the request.
    Error {
        /// Human-readable reason.
        message: &'a str,
    },
    /// The attestation quote; envelope and signature borrow from the packet.
    Attestation(AttestQuoteRef<'a>),
}

impl<'a> AuditResponseRef<'a> {
    /// Decodes a borrowed response from `r`; the payload slices live as long
    /// as the reader's input.  (An inherent method, not [`Decode`]: the trait
    /// erases the input lifetime, which a borrowing decode must keep.)
    pub fn decode(r: &mut Reader<'a>) -> WireResult<AuditResponseRef<'a>> {
        match r.get_u8()? {
            1 => Ok(AuditResponseRef::Manifest {
                manifest: r.get_bytes()?,
            }),
            2 => Ok(AuditResponseRef::Blobs(BlobResponseRef::decode(r)?)),
            3 => {
                let (prev_hash, first_seq, count, records) = get_log_segment(r)?;
                Ok(AuditResponseRef::LogSegment {
                    prev_hash,
                    first_seq,
                    count,
                    records,
                })
            }
            4 => Ok(AuditResponseRef::Sections {
                stream: r.get_bytes()?,
            }),
            5 => Ok(AuditResponseRef::Error {
                message: r.get_str()?,
            }),
            6 => Ok(AuditResponseRef::Attestation(AttestQuoteRef::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                what: "AuditResponse",
                tag: tag as u64,
            }),
        }
    }

    /// Decodes a borrowed response from `bytes`, requiring that the whole
    /// input is consumed.
    pub fn decode_exact(bytes: &'a [u8]) -> WireResult<AuditResponseRef<'a>> {
        decode_exact_with(bytes, Self::decode)
    }

    /// Copies the borrowed payloads into an owned [`AuditResponse`].
    pub fn to_owned(&self) -> AuditResponse {
        match self {
            AuditResponseRef::Manifest { manifest } => AuditResponse::Manifest {
                manifest: manifest.to_vec(),
            },
            AuditResponseRef::Blobs(resp) => AuditResponse::Blobs(resp.to_owned()),
            AuditResponseRef::LogSegment {
                prev_hash,
                first_seq,
                count,
                records,
            } => AuditResponse::LogSegment {
                prev_hash: *prev_hash,
                first_seq: *first_seq,
                count: *count,
                records: records.to_vec(),
            },
            AuditResponseRef::Sections { stream } => AuditResponse::Sections {
                stream: stream.to_vec(),
            },
            AuditResponseRef::Error { message } => AuditResponse::Error {
                message: (*message).to_string(),
            },
            AuditResponseRef::Attestation(quote) => AuditResponse::Attestation(quote.to_owned()),
        }
    }

    /// The variant's name, for protocol-violation diagnostics.
    pub fn variant_name(&self) -> &'static str {
        match self {
            AuditResponseRef::Manifest { .. } => "Manifest",
            AuditResponseRef::Blobs(_) => "Blobs",
            AuditResponseRef::LogSegment { .. } => "LogSegment",
            AuditResponseRef::Sections { .. } => "Sections",
            AuditResponseRef::Error { .. } => "Error",
            AuditResponseRef::Attestation(_) => "Attestation",
        }
    }
}

impl Encode for AuditResponseRef<'_> {
    fn encode(&self, w: &mut Writer) {
        match self {
            AuditResponseRef::Manifest { manifest } => {
                w.put_u8(1);
                w.put_bytes(manifest);
            }
            AuditResponseRef::Blobs(resp) => {
                w.put_u8(2);
                resp.encode(w);
            }
            AuditResponseRef::LogSegment {
                prev_hash,
                first_seq,
                count,
                records,
            } => put_log_segment(w, prev_hash, *first_seq, *count, records),
            AuditResponseRef::Sections { stream } => {
                w.put_u8(4);
                w.put_bytes(stream);
            }
            AuditResponseRef::Error { message } => {
                w.put_u8(5);
                w.put_str(message);
            }
            AuditResponseRef::Attestation(quote) => {
                w.put_u8(6);
                quote.encode(w);
            }
        }
    }
}

/// The session id used by single-session transports (the [`seal_message`] /
/// [`open_message`] compatibility wrappers).  Fleet sessions count up from
/// this value, so auditor #0 of a fleet is wire-identical to a lone client.
pub const CLIENT_SESSION: u64 = 1;

/// Seals `message` into one transport packet: `session_id || request_id ||
/// message`, wrapped in a checksummed frame ([`crate::frame`]).  The same
/// sealing is used in both directions; a response carries the session and
/// request ids of the request it answers.
pub fn seal_session_message<M: Encode>(session_id: u64, request_id: u64, message: &M) -> Vec<u8> {
    seal_encoded_message(session_id, request_id, &message.encode_to_vec())
}

/// Seals an *already-encoded* message body under a session envelope —
/// byte-identical to [`seal_session_message`] over the message that produced
/// `encoded`.  This is what lets a provider cache one response encoding and
/// serve it to many sessions without re-encoding (or re-hashing) it.
///
/// The body is copied **once**, straight from `encoded` into the packet
/// ([`write_frame_parts`] accumulates the checksum incrementally), so a
/// cached multi-megabyte sections stream costs one copy per send rather than
/// an envelope copy plus a framing copy.
pub fn seal_encoded_message(session_id: u64, request_id: u64, encoded: &[u8]) -> Vec<u8> {
    let mut envelope = Writer::with_capacity(20);
    envelope.put_varint(session_id);
    envelope.put_varint(request_id);
    let mut packet = Vec::new();
    write_frame_parts(&mut packet, &[envelope.as_slice(), encoded]);
    packet
}

/// Opens the framed session envelope *without decoding the message*:
/// returns the session id, request id, and the borrowed encoded message
/// body (aliasing `packet`).
///
/// This is the cheap first step of every receive path: a receiver can match
/// (session, request) against the exchange it is waiting on — and drop a
/// stale retransmission duplicate — before paying to decode (or copy) a
/// potentially large message body.
pub fn open_session_frame(packet: &[u8]) -> WireResult<(u64, u64, &[u8])> {
    let (payload, consumed) = read_frame(packet).map_err(|_| WireError::Corrupt("audit frame"))?;
    if consumed != packet.len() {
        return Err(WireError::TrailingBytes(packet.len() - consumed));
    }
    let mut r = Reader::new(payload);
    let session_id = r.get_varint()?;
    let request_id = r.get_varint()?;
    Ok((session_id, request_id, &payload[r.position()..]))
}

/// Opens a packet produced by [`seal_session_message`], returning the
/// session id, request id, and decoded message.  Fails on framing
/// corruption, truncation, trailing bytes, or an undecodable message.
pub fn open_session_message<M: Decode>(packet: &[u8]) -> WireResult<(u64, u64, M)> {
    let (session_id, request_id, body) = open_session_frame(packet)?;
    let message = M::decode_exact(body)?;
    Ok((session_id, request_id, message))
}

/// Seals `message` under the fixed [`CLIENT_SESSION`] id — the
/// single-session transport wrapper.
pub fn seal_message<M: Encode>(request_id: u64, message: &M) -> Vec<u8> {
    seal_session_message(CLIENT_SESSION, request_id, message)
}

/// Opens a packet sealed under [`CLIENT_SESSION`], returning the request id
/// and the decoded message.  A packet from any other session is rejected as
/// corrupt-for-this-receiver: single-session transports never share a link
/// with fleet sessions.
pub fn open_message<M: Decode>(packet: &[u8]) -> WireResult<(u64, M)> {
    let (session_id, request_id, message) = open_session_message(packet)?;
    if session_id != CLIENT_SESSION {
        return Err(WireError::Corrupt("unexpected audit session"));
    }
    Ok((request_id, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    fn roundtrip_request(req: AuditRequest) {
        let bytes = req.encode_to_vec();
        assert_eq!(AuditRequest::decode_exact(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: AuditResponse) {
        let bytes = resp.encode_to_vec();
        assert_eq!(AuditResponse::decode_exact(&bytes).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(AuditRequest::Manifest { snapshot_id: 7 });
        roundtrip_request(AuditRequest::Blobs(BlobRequest {
            digests: vec![[3u8; 32], [0u8; 32]],
        }));
        roundtrip_request(AuditRequest::LogSegment(SegmentAddress::Seq {
            from_seq: 1,
            to_seq: 0,
        }));
        roundtrip_request(AuditRequest::LogSegment(SegmentAddress::Chunk {
            start_snapshot: 2,
            chunk: 3,
        }));
        roundtrip_request(AuditRequest::Sections { upto_id: 12 });
        roundtrip_request(AuditRequest::Attest(AttestChallenge {
            nonce: [0x5c; 32],
            issued_at_us: 77,
        }));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(AuditResponse::Manifest {
            manifest: vec![1, 2, 3],
        });
        roundtrip_response(AuditResponse::Blobs(BlobResponse {
            blobs: vec![Some(vec![9u8; 40]), None],
        }));
        roundtrip_response(AuditResponse::LogSegment {
            prev_hash: [0xab; 32],
            first_seq: 300,
            count: 3,
            records: vec![1, 0, 2, 0, 3, 1, 9],
        });
        roundtrip_response(AuditResponse::Sections {
            stream: vec![0u8; 100],
        });
        roundtrip_response(AuditResponse::Error {
            message: "snapshot 9 not found".into(),
        });
        roundtrip_response(AuditResponse::Attestation(AttestQuote {
            envelope: vec![1u8; 77],
            nonce: [0x5c; 32],
            signed_at_us: 78,
            signature: vec![9u8; 64],
        }));
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(matches!(
            AuditRequest::decode_exact(&[9]).unwrap_err(),
            WireError::InvalidTag {
                what: "AuditRequest",
                ..
            }
        ));
        assert!(matches!(
            AuditResponse::decode_exact(&[0]).unwrap_err(),
            WireError::InvalidTag {
                what: "AuditResponse",
                ..
            }
        ));
        assert!(matches!(
            SegmentAddress::decode_exact(&[7]).unwrap_err(),
            WireError::InvalidTag {
                what: "SegmentAddress",
                ..
            }
        ));
    }

    #[test]
    fn seal_open_roundtrip_carries_request_id() {
        let req = AuditRequest::Manifest { snapshot_id: 4 };
        let packet = seal_message(99, &req);
        let (id, opened): (u64, AuditRequest) = open_message(&packet).unwrap();
        assert_eq!(id, 99);
        assert_eq!(opened, req);
    }

    #[test]
    fn corrupt_packets_rejected() {
        let req = AuditRequest::Sections { upto_id: 1 };
        let mut packet = seal_message(1, &req);
        // Flip a payload byte: the frame checksum catches it.
        let mid = packet.len() / 2;
        packet[mid] ^= 0xff;
        assert!(open_message::<AuditRequest>(&packet).is_err());
        // Truncation.
        let packet = seal_message(1, &req);
        assert!(open_message::<AuditRequest>(&packet[..packet.len() - 1]).is_err());
        // Trailing garbage after the frame.
        let mut packet = seal_message(1, &req);
        packet.push(0);
        assert!(matches!(
            open_message::<AuditRequest>(&packet).unwrap_err(),
            WireError::TrailingBytes(1)
        ));
    }

    #[test]
    fn trailing_bytes_inside_payload_rejected() {
        // A sealed Manifest request with an extra byte inside the frame
        // payload decodes the message but must reject the leftovers.
        let mut w = Writer::new();
        w.put_varint(CLIENT_SESSION);
        w.put_varint(5u64);
        AuditRequest::Manifest { snapshot_id: 1 }.encode(&mut w);
        w.put_u8(0xee);
        let mut packet = Vec::new();
        write_frame(&mut packet, &w.into_bytes());
        assert!(matches!(
            open_message::<AuditRequest>(&packet).unwrap_err(),
            WireError::TrailingBytes(1)
        ));
    }

    #[test]
    fn session_seal_open_roundtrip() {
        let resp = AuditResponse::Sections {
            stream: vec![7u8; 33],
        };
        let packet = seal_session_message(42, 9, &resp);
        let (session, id, opened): (u64, u64, AuditResponse) =
            open_session_message(&packet).unwrap();
        assert_eq!((session, id), (42, 9));
        assert_eq!(opened, resp);
        // The single-session opener rejects foreign sessions...
        assert!(open_message::<AuditResponse>(&packet).is_err());
        // ...and the single-session sealer is exactly session CLIENT_SESSION.
        let compat = seal_message(9, &resp);
        assert_eq!(compat, seal_session_message(CLIENT_SESSION, 9, &resp));
    }

    #[test]
    fn sealing_encoded_bytes_matches_sealing_the_message() {
        let resp = AuditResponse::Manifest {
            manifest: vec![1, 2, 3, 4],
        };
        let encoded = resp.encode_to_vec();
        assert_eq!(
            seal_encoded_message(3, 11, &encoded),
            seal_session_message(3, 11, &resp)
        );
    }

    fn sample_responses() -> Vec<AuditResponse> {
        vec![
            AuditResponse::Manifest {
                manifest: vec![1, 2, 3],
            },
            AuditResponse::Blobs(BlobResponse {
                blobs: vec![Some(vec![9u8; 40]), None, Some(vec![])],
            }),
            AuditResponse::LogSegment {
                prev_hash: [0xab; 32],
                first_seq: 1,
                count: 3,
                records: vec![1, 0, 2, 0, 3, 1, 9],
            },
            AuditResponse::Sections {
                stream: vec![0u8; 100],
            },
            AuditResponse::Error {
                message: "snapshot 9 not found".into(),
            },
            AuditResponse::Attestation(AttestQuote {
                envelope: vec![3u8; 50],
                nonce: [0x11; 32],
                signed_at_us: 9,
                signature: vec![8u8; 32],
            }),
        ]
    }

    #[test]
    fn borrowed_response_decode_matches_owned_and_reencodes_identically() {
        for resp in sample_responses() {
            let bytes = resp.encode_to_vec();
            let borrowed = AuditResponseRef::decode_exact(&bytes).unwrap();
            assert_eq!(borrowed.to_owned(), resp);
            assert_eq!(borrowed.variant_name(), resp.variant_name());
            assert_eq!(borrowed.encode_to_vec(), bytes);
        }
    }

    #[test]
    fn session_frame_peeks_ids_and_borrows_the_body() {
        let resp = AuditResponse::Sections {
            stream: vec![7u8; 513],
        };
        let packet = seal_session_message(42, 9, &resp);
        let (session, id, body) = open_session_frame(&packet).unwrap();
        assert_eq!((session, id), (42, 9));
        // The body aliases the packet buffer and decodes to the message.
        let ptr = body.as_ptr() as usize;
        let base = packet.as_ptr() as usize;
        assert!(ptr >= base && ptr < base + packet.len());
        assert_eq!(AuditResponse::decode_exact(body).unwrap(), resp);
        // The borrowed decode sees the same message without copying it.
        let borrowed = AuditResponseRef::decode_exact(body).unwrap();
        match borrowed {
            AuditResponseRef::Sections { stream } => assert_eq!(stream, &[7u8; 513][..]),
            other => panic!("unexpected variant {}", other.variant_name()),
        }
    }

    #[test]
    fn truncated_borrowed_response_rejected() {
        for resp in sample_responses() {
            let bytes = resp.encode_to_vec();
            assert!(AuditResponseRef::decode_exact(&bytes[..bytes.len() - 1]).is_err());
        }
        // An entry count above what the records could hold — every record
        // is at least a tag and a content length — is refused by both
        // decoders before anyone sizes a list by it.
        for (count, records) in [
            (0x1f_ffffu64, &[1u8, 0][..]),
            (2, &[1, 0, 1][..]),
            (1, &[][..]),
        ] {
            let mut corrupt = Writer::new();
            put_log_segment(&mut corrupt, &[0; 32], 1, count, records);
            let corrupt = corrupt.into_bytes();
            assert!(matches!(
                AuditResponseRef::decode_exact(&corrupt).unwrap_err(),
                WireError::LengthOverflow { declared, .. } if declared == count
            ));
            assert!(AuditResponse::decode_exact(&corrupt).is_err());
        }
    }
}

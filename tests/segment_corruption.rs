//! Every single-byte corruption of a log-segment response is refused.
//!
//! A segment ships a hash only at its checkpoints ([`avm_log::wire`]); the
//! auditor computes every other one.  The property the per-entry hashes
//! used to give must still hold: a provider that changes any one byte of a
//! `LogSegment` body — and re-seals it, so the frame checksum passes — gets
//! no consistent report.  Each corrupted body ends the audit with a decode
//! error or a `SyntacticFailure`, for a whole log and for a spot-check
//! chunk: an `AuditClient` audits a real `ProviderNode` behind a relay that
//! rewrites its sealed responses.
//!
//! A segment body is `prev_hash ‖ first_seq ‖ count ‖ records`, the records
//! one run with no seq and no length of their own.  A body whose count,
//! record lengths, checkpoint bytes or first seq disagree with its size —
//! a count above what the bytes allow, a record cut mid-content, trailing
//! bytes, a seq past `u64::MAX` — is refused without a panic, before
//! anything is allocated for it beyond one view per two bytes of its run.

use std::sync::OnceLock;

use avm_core::config::AvmmOptions;
use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport, AUDITOR_NODE};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::fleet::ProviderNode;
use avm_core::recorder::{Avmm, HostClock};
use avm_core::snapshot::SnapshotStore;
use avm_core::FaultReason;
use avm_crypto::keys::{SignatureScheme, SigningKey, VerifyingKey};
use avm_log::wire::{carries_hash, decode_entries};
use avm_log::{EntryKind, TamperEvidentLog};
use avm_net::{Delivery, Endpoint, LinkConfig, NodeId, SimNet};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::audit::{
    open_session_frame, seal_encoded_message, AuditRequest, AuditResponseRef, SegmentAddress,
};
use avm_wire::varint::{varint_len, write_varint};
use avm_wire::WireError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A recorded worker: its log, store, image and key.
struct Recording {
    log: TamperEvidentLog,
    store: SnapshotStore,
    image: VmImage,
    key: VerifyingKey,
}

/// Snapshots taken, one after every `PACKETS_PER_SNAPSHOT` packets: enough
/// entries per chunk that some ship without their hash.
const SNAPSHOTS: u64 = 3;
const PACKETS_PER_SNAPSHOT: u64 = 4;

fn recording() -> &'static Recording {
    static RECORDING: OnceLock<Recording> = OnceLock::new();
    RECORDING.get_or_init(|| {
        let src = r"
                movi r1, 0x8000
                movi r2, 512
                movi r5, 0x9000
            loop:
                clock r4
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                load r3, r5
                add r3, r0
                store r3, r5
                send r1, r0
                jmp loop
            ";
        let image = VmImage::bytecode("worker", 128 * 1024, assemble(src, 0).unwrap(), 0, 0);
        let mut rng = StdRng::seed_from_u64(38);
        let operator = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let alice = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let key = operator.verifying_key();
        let mut bob = Avmm::new(
            "bob",
            &image,
            &GuestRegistry::new(),
            operator,
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
        )
        .unwrap();
        bob.add_peer("alice", alice.verifying_key());
        let mut clock = HostClock::at(10);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..SNAPSHOTS * PACKETS_PER_SNAPSHOT {
            clock.advance_to(clock.now() + 1_000);
            let payload = encode_guest_packet("alice", format!("work-{i}").as_bytes());
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i + 1,
                payload,
                &alice,
                None,
            );
            bob.deliver(&env).unwrap();
            bob.run_slice(&clock, 100_000).unwrap();
            if (i + 1) % PACKETS_PER_SNAPSHOT == 0 {
                bob.take_snapshot();
            }
        }
        Recording {
            log: bob.log().clone(),
            store: bob.snapshots().clone(),
            image,
            key,
        }
    })
}

/// What happens to a `LogSegment` body on its way to the auditor.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// Byte `at` gets a bit flipped — a different bit for each byte — or,
    /// with `all_bits`, all of them.
    Byte { at: usize, all_bits: bool },
    /// The body is rewritten.
    Rewrite(fn(&[u8]) -> Vec<u8>),
}

fn corrupt(body: &[u8], corruption: Corruption) -> Vec<u8> {
    match corruption {
        Corruption::Byte { at, all_bits } => {
            let mut body = body.to_vec();
            body[at] ^= if all_bits { 0xff } else { 1 << (at % 8) };
            body
        }
        Corruption::Rewrite(rewrite) => rewrite(body),
    }
}

const RELAY: NodeId = NodeId(5);
const PROVIDER: NodeId = NodeId(9);

/// Sits between the auditor and a real `ProviderNode` it holds: hands it
/// every request, and re-seals every `LogSegment` response the provider
/// sends back over the wire with its body corrupted.
struct Relay<'a> {
    provider: ProviderNode<'a>,
    corruption: Option<Corruption>,
}

impl Endpoint for Relay<'_> {
    fn node(&self) -> NodeId {
        RELAY
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        if delivery.from != PROVIDER {
            let forwarded = Delivery {
                from: RELAY,
                to: PROVIDER,
                ..delivery
            };
            self.provider.on_delivery(net, forwarded);
            return;
        }
        let (session, id, body) = open_session_frame(&delivery.payload).unwrap();
        let body = match (
            AuditResponseRef::decode_exact(body).unwrap(),
            self.corruption,
        ) {
            (AuditResponseRef::LogSegment { .. }, Some(corruption)) => corrupt(body, corruption),
            _ => body.to_vec(),
        };
        let _ = net.send(
            RELAY,
            AUDITOR_NODE,
            seal_encoded_message(session, id, &body),
        );
    }

    fn on_tick(&mut self, net: &mut SimNet) -> Option<u64> {
        self.provider.on_tick(net)
    }
}

/// A client auditing `rec` through the relay.
fn relayed_client(
    rec: &Recording,
    corruption: Option<Corruption>,
) -> AuditClient<SimNetTransport<'_>> {
    let relay = Relay {
        provider: ProviderNode::new(PROVIDER, AuditServer::new(&rec.log, &rec.store)),
        corruption,
    };
    AuditClient::new(SimNetTransport::with_provider(relay, LinkConfig::default()))
}

/// How an audit of a corrupted segment ended: `Err` (a decode error, a
/// protocol violation or a refused chunk) or the fault of its report.
type Outcome = Result<FaultReason, String>;

fn refused_whole_log(rec: &Recording, corruption: Option<Corruption>) -> Outcome {
    let report = relayed_client(rec, corruption)
        .audit_log(
            "bob",
            1,
            0,
            &[],
            &rec.key,
            &rec.image,
            &GuestRegistry::new(),
        )
        .map_err(|e| e.to_string())?;
    Ok(report
        .fault()
        .cloned()
        .unwrap_or_else(|| panic!("{corruption:?}: a corrupted log passes")))
}

/// The chunk after snapshot 1, checked in full through the relay.
fn refused_chunk(rec: &Recording, corruption: Option<Corruption>) -> Outcome {
    let mut client = relayed_client(rec, corruption);
    let report = client
        .spot_check(1, 1, &rec.image, &GuestRegistry::new())
        .map_err(|e| e.to_string())?;
    // A lossless link: an answer that does not decode ends the exchange on
    // its first copy, and nothing is ever sent again.
    assert_eq!(client.transport_stats().retransmissions, 0);
    assert!(!report.consistent);
    Ok(report.fault.expect("an inconsistent chunk names its fault"))
}

/// The length of a `LogSegment` body: the whole log, and the chunk after
/// snapshot 1.
fn body_lens(rec: &Recording) -> (usize, usize) {
    let server = AuditServer::new(&rec.log, &rec.store);
    (
        server.respond(&whole_log()).len(),
        server.respond(&chunk_after_1()).len(),
    )
}

fn whole_log() -> AuditRequest {
    AuditRequest::LogSegment(SegmentAddress::Seq {
        from_seq: 1,
        to_seq: 0,
    })
}

fn chunk_after_1() -> AuditRequest {
    AuditRequest::LogSegment(SegmentAddress::Chunk {
        start_snapshot: 1,
        chunk: 1,
    })
}

#[test]
fn the_honest_segments_pass_and_ship_runs() {
    let rec = recording();
    let registry = GuestRegistry::new();
    let mut client = AuditClient::new(SimNetTransport::new(
        AuditServer::new(&rec.log, &rec.store),
        LinkConfig::default(),
    ));
    let report = client
        .audit_log("bob", 1, 0, &[], &rec.key, &rec.image, &registry)
        .unwrap();
    assert!(report.passed(), "{:?}", report.fault());
    let chunk = client.spot_check(1, 1, &rec.image, &registry).unwrap();
    assert!(chunk.consistent, "{:?}", chunk.fault);
    // Long enough that both segments leave hashes out.
    let chunk_len = chunk.entries_replayed as usize + 1;
    assert!(chunk_len >= 16, "{chunk_len} entries");
    assert!(rec.log.len() >= 64, "{} entries", rec.log.len());
    // The relay, corrupting nothing, agrees.
    let mut relayed = relayed_client(rec, None);
    let whole = relayed
        .audit_log("bob", 1, 0, &[], &rec.key, &rec.image, &registry)
        .unwrap();
    assert_eq!(whole, report);
    let relayed_chunk = relayed.spot_check(1, 1, &rec.image, &registry).unwrap();
    assert_eq!(relayed_chunk.semantic(), chunk.semantic());
}

#[test]
fn every_single_byte_corruption_of_a_segment_is_refused() {
    let rec = recording();
    let (whole_len, chunk_len) = body_lens(rec);
    let (mut errors, mut syntactic) = (0usize, 0usize);
    let mut tally = |corruption: Corruption, way: &str, outcome: Outcome| match outcome {
        Err(_) => errors += 1,
        Ok(FaultReason::SyntacticFailure(_)) => syntactic += 1,
        Ok(other) => panic!("{corruption:?}, {way}: {other:?}"),
    };
    for at in 0..whole_len {
        for all_bits in [false, true] {
            let corruption = Corruption::Byte { at, all_bits };
            tally(
                corruption,
                "whole log",
                refused_whole_log(rec, Some(corruption)),
            );
            if at < chunk_len {
                tally(corruption, "chunk", refused_chunk(rec, Some(corruption)));
            }
        }
    }
    // Both kinds of refusal occur: framing bytes break the decode, content
    // and hash bytes break the chain.
    assert!(
        errors > 0 && syntactic > 0,
        "{errors} errors, {syntactic} syntactic"
    );
}

/// The parts of a `LogSegment` body, records still borrowed.
fn parts(body: &[u8]) -> ([u8; 32], u64, u64, &[u8]) {
    match AuditResponseRef::decode_exact(body).unwrap() {
        AuditResponseRef::LogSegment {
            prev_hash,
            first_seq,
            count,
            records,
        } => (prev_hash, first_seq, count, records),
        other => panic!("a segment, got {}", other.variant_name()),
    }
}

/// A `LogSegment` body from its parts, whatever they say.
fn body_of(prev_hash: [u8; 32], first_seq: u64, count: u64, records: &[u8]) -> Vec<u8> {
    let mut body = vec![3u8];
    body.extend_from_slice(&prev_hash);
    write_varint(&mut body, first_seq);
    write_varint(&mut body, count);
    write_varint(&mut body, records.len() as u64);
    body.extend_from_slice(records);
    body
}

/// One more record than two bytes each allow.
fn count_above_the_bytes(body: &[u8]) -> Vec<u8> {
    let (prev, first, _, records) = parts(body);
    body_of(prev, first, records.len() as u64 / 2 + 1, records)
}

/// The run cut in the middle of its last record's content.
fn record_cut_mid_content(body: &[u8]) -> Vec<u8> {
    let (prev, first, count, records) = parts(body);
    let views = decode_entries(first, count, records).unwrap();
    let last = views.last().unwrap();
    assert!(last.content.len() >= 2, "the last record has content");
    let content_at = last.content.as_ptr() as usize - records.as_ptr() as usize;
    let cut = content_at + last.content.len() / 2;
    body_of(prev, first, count, &records[..cut])
}

/// Bytes after the last record, inside the run.
fn trailing_bytes_in_the_run(body: &[u8]) -> Vec<u8> {
    let (prev, first, count, records) = parts(body);
    body_of(prev, first, count, &[records, &[0, 0, 0]].concat())
}

/// Bytes after the run, inside the body.
fn trailing_bytes_after_the_run(body: &[u8]) -> Vec<u8> {
    [body, &[1][..]].concat()
}

/// A first seq whose last entry's seq, `first_seq + count − 1`, is past
/// `u64::MAX`.
fn seq_past_the_end(body: &[u8]) -> Vec<u8> {
    let (prev, _, count, records) = parts(body);
    body_of(prev, u64::MAX - count + 2, count, records)
}

/// Each hostile body — for a whole log and for a chunk — is refused by
/// the auditor with an error, never a report and never a panic; the
/// decoders refuse it within the input: a count above what the run could
/// hold before any view is allocated, and an honest run's views at most
/// one per two bytes of it.
#[test]
fn a_body_at_odds_with_its_size_is_refused_within_the_input() {
    let rec = recording();
    let server = AuditServer::new(&rec.log, &rec.store);
    type Rewrite = fn(&[u8]) -> Vec<u8>;
    // A body that is no response at all ends the exchange on its first copy:
    // the auditor names the decode error.
    let hostile: [(Rewrite, &str); 5] = [
        (
            count_above_the_bytes,
            "audit transport: undecodable response: declared length",
        ),
        (record_cut_mid_content, "log entry does not decode"),
        (
            trailing_bytes_in_the_run,
            "log entry does not decode: 3 trailing bytes",
        ),
        (
            trailing_bytes_after_the_run,
            "audit transport: undecodable response: 1 trailing bytes",
        ),
        (seq_past_the_end, "seq past u64::MAX"),
    ];
    for (rewrite, wanted) in hostile {
        for (request, name) in [(whole_log(), "whole log"), (chunk_after_1(), "chunk")] {
            let body = rewrite(&server.respond(&request));
            let decoded = AuditResponseRef::decode_exact(&body);
            if let Ok(AuditResponseRef::LogSegment {
                first_seq,
                count,
                records,
                ..
            }) = decoded
            {
                assert!(count <= records.len() as u64 / 2, "{name}: {wanted}");
                assert!(decode_entries(first_seq, count, records).is_err(), "{name}");
            }
            let corruption = Some(Corruption::Rewrite(rewrite));
            let outcomes = [
                refused_whole_log(rec, corruption),
                refused_chunk(rec, corruption),
            ];
            for (outcome, way) in outcomes.into_iter().zip(["whole log", "chunk"]) {
                let error = outcome.expect_err(way);
                // A whole log that does not start at seq 1 is refused
                // before it is decoded.
                let refused_early = way == "whole log" && error.contains("starts at seq");
                assert!(error.contains(wanted) || refused_early, "{way}: {error}");
            }
        }
    }
    // The count bound is the decoder's own, not only the response's.
    let body = server.respond(&whole_log());
    let (_, first, count, records) = parts(&body);
    assert!(matches!(
        decode_entries(first, records.len() as u64 / 2 + 1, records),
        Err(WireError::LengthOverflow { .. })
    ));
    assert!(decode_entries(first, u64::MAX, records).is_err());

    // Checkpoint bytes: a checkpoint without its hash, a record between
    // checkpoints with one.
    let n = count as usize;
    let views = decode_entries(first, count, records).unwrap();
    let span = |i: usize| {
        let view = &views[i];
        let len_len = varint_len(view.content.len() as u64);
        let at = view.content.as_ptr() as usize - records.as_ptr() as usize - len_len - 1;
        let claim = if view.claim.is_some() { 32 } else { 0 };
        (at, 1 + len_len + view.content.len() + claim)
    };
    let checkpoint = (0..n).find(|&i| carries_hash(n, i)).unwrap();
    let between = (0..n).find(|&i| !carries_hash(n, i)).unwrap();
    let (at, len) = span(checkpoint);
    let missing = [&records[..at + len - 32], &records[at + len..]].concat();
    let (at, len) = span(between);
    let extra = [&records[..at + len], &[0u8; 32][..], &records[at + len..]].concat();
    for run in [missing, extra] {
        assert!(decode_entries(first, count, &run).is_err());
    }

    // The honest decode allocates one view per entry: at most one per two
    // bytes of the run, whatever a count claims.
    assert_eq!(views.len(), n);
    assert!(views.capacity() <= records.len() / 2);
    assert!(views.iter().any(|v| v.claim.is_none()));
    assert!(views.iter().any(|v| v.kind == EntryKind::Snapshot));
}

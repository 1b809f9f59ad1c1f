//! Every single-byte corruption of a log-segment response is refused.
//!
//! A segment ships a hash only at its checkpoints ([`avm_log::wire`]); the
//! auditor computes every other one.  The property the per-entry hashes
//! used to give must still hold: a provider that changes any one byte of a
//! `LogSegment` body — and re-seals it, so the frame checksum passes — gets
//! no consistent report.  Each corrupted body ends the audit with a decode
//! error or a `SyntacticFailure`, for a whole log and for a spot-check
//! chunk, on both auditors: `AuditClient` over a transport that seals and
//! opens every body as `SimNetTransport` does (`SimNetTransport`'s own
//! provider half serves only honest bodies), and `FleetAuditor` against a
//! real `ProviderNode` behind a relay that rewrites its sealed responses.
//!
//! A body whose entry count, entry lengths or checkpoint bytes disagree
//! with its size is refused before anything is allocated for it beyond one
//! view per entry it really holds.

use std::sync::OnceLock;

use avm_core::config::AvmmOptions;
use avm_core::endpoint::{
    AuditClient, AuditServer, AuditTransport, SimNetTransport, TransportStats,
};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::fleet::{AuditTask, FleetAuditor, ProviderConfig, ProviderNode};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::snapshot::SnapshotStore;
use avm_core::spotcheck::SpotCheckReport;
use avm_core::{CoreError, FaultReason};
use avm_crypto::keys::{SignatureScheme, SigningKey, VerifyingKey};
use avm_log::wire::{carries_hash, decode_entries};
use avm_log::{EntryKind, TamperEvidentLog};
use avm_net::{run_event_loop, Delivery, Endpoint, LinkConfig, NodeId, SimNet};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::audit::{
    open_session_frame, seal_encoded_message, AuditRequest, AuditResponseRef, SegmentAddress,
    CLIENT_SESSION,
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

/// Which byte of a `LogSegment` body to corrupt, and how: each byte gets a
/// different bit flipped, or, with `all_bits`, all of them.
#[derive(Debug, Clone, Copy)]
struct Corruption {
    at: usize,
    all_bits: bool,
}

fn corrupt(body: &[u8], corruption: Corruption) -> Vec<u8> {
    let mut body = body.to_vec();
    let at = corruption.at;
    body[at] ^= if corruption.all_bits {
        0xff
    } else {
        1 << (at % 8)
    };
    body
}

/// A provider answering in process whose `LogSegment` bodies are corrupted,
/// each body sealed into a frame and opened again as the simulated wire's
/// two halves do.
struct CorruptingTransport<'a> {
    server: AuditServer<'a>,
    corruption: Option<Corruption>,
    next_request_id: u64,
}

impl AuditTransport for CorruptingTransport<'_> {
    fn exchange<R>(
        &mut self,
        request: &AuditRequest,
        on_response: impl FnOnce(AuditResponseRef<'_>) -> R,
    ) -> Result<R, CoreError> {
        let mut body = self.server.respond(request);
        if let (AuditRequest::LogSegment(_), Some(corruption)) = (request, self.corruption) {
            body = corrupt(&body, corruption);
        }
        self.next_request_id += 1;
        let packet = seal_encoded_message(CLIENT_SESSION, self.next_request_id, &body);
        let dropped = |e: WireError| CoreError::Snapshot(format!("response dropped: {e}"));
        let (_, _, body) = open_session_frame(&packet).map_err(dropped)?;
        let response = AuditResponseRef::decode_exact(body).map_err(dropped)?;
        Ok(on_response(response))
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

const AUDITOR: NodeId = NodeId(2);
const RELAY: NodeId = NodeId(5);
const PROVIDER: NodeId = NodeId(9);

/// Sits between the auditor and a real `ProviderNode`: forwards requests,
/// and re-seals every `LogSegment` response with one byte of its body
/// corrupted.
struct Relay {
    corruption: Option<Corruption>,
}

impl Endpoint for Relay {
    fn node(&self) -> NodeId {
        RELAY
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        if delivery.from != PROVIDER {
            let _ = net.send(RELAY, PROVIDER, delivery.payload);
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
        let _ = net.send(RELAY, AUDITOR, seal_encoded_message(session, id, &body));
    }

    fn on_tick(&mut self, _: &mut SimNet) -> Option<u64> {
        None
    }
}

/// The chunk after snapshot 1, checked by a `FleetAuditor` against a
/// `ProviderNode` behind the relay.
fn fleet_chunk_check(
    rec: &Recording,
    corruption: Option<Corruption>,
) -> Result<SpotCheckReport, CoreError> {
    let registry = GuestRegistry::new();
    let mut net = SimNet::new(LinkConfig::default());
    let mut provider = ProviderNode::new(
        PROVIDER,
        AuditServer::new(&rec.log, &rec.store),
        ProviderConfig::default(),
    );
    let mut relay = Relay { corruption };
    let task = AuditTask {
        start_snapshot: 1,
        chunk: 1,
        on_demand: false,
        start_at_us: 0,
    };
    let mut auditor = FleetAuditor::new(AUDITOR, RELAY, 7, &rec.image, &registry, task, 100_000);
    run_event_loop(
        &mut net,
        &mut [&mut relay, &mut provider, &mut auditor],
        100_000,
    );
    auditor.into_parts().0
}

/// How an audit of a corrupted segment ended: `Err` (a decode error, a
/// protocol violation or a refused chunk) or the fault of its report.
type Outcome = Result<FaultReason, String>;

fn refused_whole_log(rec: &Recording, corruption: Option<Corruption>) -> Outcome {
    let report = AuditClient::new(CorruptingTransport {
        server: AuditServer::new(&rec.log, &rec.store),
        corruption,
        next_request_id: 0,
    })
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

fn chunk_fault(report: SpotCheckReport) -> FaultReason {
    assert!(!report.consistent);
    report.fault.expect("an inconsistent chunk names its fault")
}

fn refused_chunk(rec: &Recording, corruption: Option<Corruption>) -> Outcome {
    let report = AuditClient::new(CorruptingTransport {
        server: AuditServer::new(&rec.log, &rec.store),
        corruption,
        next_request_id: 0,
    })
    .spot_check(1, 1, &rec.image, &GuestRegistry::new())
    .map_err(|e| e.to_string())?;
    Ok(chunk_fault(report))
}

fn refused_fleet_chunk(rec: &Recording, corruption: Option<Corruption>) -> Outcome {
    fleet_chunk_check(rec, corruption)
        .map(chunk_fault)
        .map_err(|e| e.to_string())
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
    // The corrupting transport and relay, corrupting nothing, agree.
    let whole = AuditClient::new(CorruptingTransport {
        server: AuditServer::new(&rec.log, &rec.store),
        corruption: None,
        next_request_id: 0,
    })
    .audit_log("bob", 1, 0, &[], &rec.key, &rec.image, &registry)
    .unwrap();
    assert_eq!(whole, report);
    for outcome in [
        fleet_chunk_check(rec, None).unwrap(),
        AuditClient::new(CorruptingTransport {
            server: AuditServer::new(&rec.log, &rec.store),
            corruption: None,
            next_request_id: 0,
        })
        .spot_check(1, 1, &rec.image, &registry)
        .unwrap(),
    ] {
        assert!(outcome.consistent, "{:?}", outcome.fault);
        assert_eq!(outcome.log_transfer_bytes, chunk.log_transfer_bytes);
    }
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
            let corruption = Corruption { at, all_bits };
            tally(
                corruption,
                "whole log",
                refused_whole_log(rec, Some(corruption)),
            );
            if at < chunk_len {
                tally(corruption, "chunk", refused_chunk(rec, Some(corruption)));
                tally(
                    corruption,
                    "fleet chunk",
                    refused_fleet_chunk(rec, Some(corruption)),
                );
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

/// A body whose count, entry lengths or checkpoint bytes disagree with its
/// size is refused, and no more views are ever allocated than there are
/// entries the body could hold.
#[test]
fn a_body_at_odds_with_its_size_is_refused_within_the_input() {
    let rec = recording();
    let body = AuditServer::new(&rec.log, &rec.store).respond(&whole_log());
    let AuditResponseRef::LogSegment { entries, .. } =
        AuditResponseRef::decode_exact(&body).unwrap()
    else {
        panic!("a segment");
    };
    let n = entries.len();
    // tag ‖ prev hash ‖ count ‖ (length ‖ entry)*
    let count_at = 1 + 32;
    let first_at = count_at + varint_len(n as u64);
    let with_varint = |at: usize, len: usize, value: u64| {
        let mut varint = Vec::new();
        write_varint(&mut varint, value);
        let mut odd = body.clone();
        odd.splice(at..at + len, varint);
        odd
    };
    let count_len = varint_len(n as u64);

    // A count no body could hold is refused before anything is allocated.
    assert!(matches!(
        AuditResponseRef::decode_exact(&with_varint(count_at, count_len, u64::MAX >> 1))
            .unwrap_err(),
        WireError::LengthOverflow { .. }
    ));
    // One entry more or fewer than the body holds.
    for count in [n + 1, n - 1] {
        let odd = with_varint(count_at, count_len, count as u64);
        assert!(
            AuditResponseRef::decode_exact(&odd).is_err(),
            "count {count}"
        );
    }
    // An entry longer than the rest of the body.
    let first_len = varint_len(entries[0].len() as u64);
    let odd = with_varint(first_at, first_len, body.len() as u64);
    assert!(matches!(
        AuditResponseRef::decode_exact(&odd).unwrap_err(),
        WireError::LengthOverflow { .. } | WireError::UnexpectedEof { .. }
    ));

    // Checkpoint bytes: a checkpoint without its hash, an entry between
    // checkpoints with one.
    let checkpoint = (0..n).find(|&i| carries_hash(n, i)).unwrap();
    let between = (0..n).find(|&i| !carries_hash(n, i)).unwrap();
    let mut missing: Vec<Vec<u8>> = entries.iter().map(|e| e.to_vec()).collect();
    let cut = missing[checkpoint].len() - 32;
    missing[checkpoint].truncate(cut);
    let mut extra: Vec<Vec<u8>> = entries.iter().map(|e| e.to_vec()).collect();
    extra[between].extend_from_slice(&[0u8; 32]);
    for (list, want) in [(missing, "unexpected end of input"), (extra, "trailing")] {
        let refs: Vec<&[u8]> = list.iter().map(Vec::as_slice).collect();
        let error = decode_entries(&refs).unwrap_err().to_string();
        assert!(error.contains(want), "{error}");
    }

    // The honest decode allocates one view per entry: at most one per body
    // byte, whatever a count claims.
    let views = decode_entries(&entries).unwrap();
    assert_eq!(views.len(), n);
    assert!(views.capacity() <= body.len());
    assert!(views.iter().any(|v| v.claim.is_none()));
    assert!(views.iter().any(|v| v.kind == EntryKind::Snapshot));
}

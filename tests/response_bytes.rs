//! The bytes a provider answers with, per variant, and the packet that
//! carries them.
//!
//! `AuditServer::respond` writes each response once, straight from the log
//! and store it borrows; every other way a response reaches an auditor —
//! `AuditServer::handle`, `ProviderNode`'s cached and uncached arms — is
//! derived from it.  These tests pin its output against an
//! [`AuditResponse`] built *by hand* from the log's and the store's public
//! API and encoded by `AuditResponse`'s own `Encode`, for every request kind
//! including the ones answered with an error, and then pin the provider
//! endpoint's packet — what every auditor, a client's or a fleet's, receives
//! — against `seal_session_message` over that same response.

use std::sync::OnceLock;

use avm_core::attest::{challenge_nonce, Attestor};
use avm_core::config::AvmmOptions;
use avm_core::endpoint::{AuditServer, AUDITOR_NODE, PROVIDER_NODE};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::fleet::ProviderNode;
use avm_core::recorder::{Avmm, HostClock};
use avm_core::snapshot::SnapshotStore;
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_crypto::sha256::Digest;
use avm_log::wire::carries_hash;
use avm_log::{EntryKind, LogEntry, TamperEvidentLog};
use avm_net::{Endpoint, LinkConfig, SimNet};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::attest::AttestChallenge;
use avm_wire::audit::{
    seal_session_message, AuditRequest, AuditResponse, SegmentAddress, CLIENT_SESSION,
};
use avm_wire::varint::write_varint;
use avm_wire::{BlobRequest, BlobResponse, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SNAPSHOTS: u64 = 4;

fn worker_image() -> VmImage {
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
            movi r7, 0
            movi r8, 8
            diskwr r7, r5, r8
            send r1, r0
            jmp loop
        ";
    VmImage::bytecode("worker", 128 * 1024, assemble(src, 0).unwrap(), 0, 0)
        .with_disk(vec![0u8; 8192])
}

/// What a provider serves from: a recording's log and snapshot store, and
/// the attestor over its launch.
struct Provider {
    log: TamperEvidentLog,
    store: SnapshotStore,
    attestor: Attestor,
}

impl Provider {
    fn server(&self) -> AuditServer<'_> {
        AuditServer::new(&self.log, &self.store).with_attestor(&self.attestor)
    }
}

/// A recording with a snapshot after every delivered packet (ids
/// `0..SNAPSHOTS`, in log order), built once: RSA keygen is slow in debug.
fn fixture() -> &'static Provider {
    static PROVIDER: OnceLock<Provider> = OnceLock::new();
    PROVIDER.get_or_init(|| {
        let image = worker_image();
        let mut rng = StdRng::seed_from_u64(23);
        let operator = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let alice = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
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
        for i in 0..SNAPSHOTS {
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
            bob.take_snapshot();
        }
        Provider {
            log: bob.log().clone(),
            store: bob.snapshots().clone(),
            attestor: Attestor::for_avmm(&bob, &image).unwrap(),
        }
    })
}

/// The response `entries` make, built by hand: the first entry's seq, the
/// count, and one run of the stored entries, each less its leading seq
/// varint and less its trailing 32-byte hash wherever no checkpoint of a
/// segment of their number falls.
fn segment(prev: Digest, entries: &[LogEntry]) -> AuditResponse {
    let mut records = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let stored = e.encode_to_vec();
        let mut seq = Vec::new();
        write_varint(&mut seq, e.seq);
        assert_eq!(stored[..seq.len()], seq);
        let end = match carries_hash(entries.len(), i) {
            true => stored.len(),
            false => stored.len() - 32,
        };
        records.extend_from_slice(&stored[seq.len()..end]);
    }
    AuditResponse::LogSegment {
        prev_hash: prev.0,
        first_seq: entries[0].seq,
        count: entries.len() as u64,
        records,
    }
}

fn error(message: impl Into<String>) -> AuditResponse {
    AuditResponse::Error {
        message: message.into(),
    }
}

fn seq(from_seq: u64, to_seq: u64) -> AuditRequest {
    AuditRequest::LogSegment(SegmentAddress::Seq { from_seq, to_seq })
}

fn chunk(start_snapshot: u64, chunk: u64) -> AuditRequest {
    AuditRequest::LogSegment(SegmentAddress::Chunk {
        start_snapshot,
        chunk,
    })
}

/// Indices of the SNAPSHOT entries of `log`; the fixture takes snapshot `i`
/// as its `i`-th, so the index is the snapshot id.
fn snapshot_indices(log: &TamperEvidentLog) -> Vec<usize> {
    let at: Vec<usize> = log
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EntryKind::Snapshot)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len() as u64, SNAPSHOTS);
    at
}

/// `log` with the content of its second SNAPSHOT record replaced by bytes
/// that do not decode, re-chained; and the index of that record.
fn with_corrupt_snapshot_record(log: &TamperEvidentLog) -> (TamperEvidentLog, usize) {
    let corrupt_at = snapshot_indices(log)[1];
    let mut rebuilt = TamperEvidentLog::new();
    for (i, e) in log.entries().iter().enumerate() {
        let content = if i == corrupt_at {
            vec![0xff, 0x01]
        } else {
            e.content.clone()
        };
        rebuilt.append(e.kind, content);
    }
    (rebuilt, corrupt_at)
}

/// Every request kind against the fixture's provider, each with the response
/// an honest provider owes it.
fn cases(provider: &Provider) -> Vec<(AuditRequest, AuditResponse)> {
    let Provider {
        log,
        store,
        attestor,
    } = provider;
    let entries = log.entries();
    let len = entries.len() as u64;
    let snaps = snapshot_indices(log);
    let mut cases = Vec::new();

    // Manifest: known, unknown.
    cases.push((
        AuditRequest::Manifest { snapshot_id: 2 },
        AuditResponse::Manifest {
            manifest: store.chain_manifest_upto(2).unwrap().encode_to_vec(),
        },
    ));
    cases.push((
        AuditRequest::Manifest { snapshot_id: 9 },
        error("snapshot 9 not found"),
    ));

    // Blobs: held (every blob snapshot 2 references), one unknown digest in
    // the middle, nothing at all.
    let manifest = store.chain_manifest_upto(2).unwrap();
    let mut digests: Vec<[u8; 32]> = manifest
        .mem_refs
        .iter()
        .chain(&manifest.disk_refs)
        .map(|(_, digest)| digest.0)
        .collect();
    assert!(digests.len() > 2, "the fixture references blobs");
    digests.insert(1, [0xee; 32]);
    let blobs: Vec<Option<Vec<u8>>> = digests
        .iter()
        .map(|raw| store.payload(&Digest(*raw)).map(<[u8]>::to_vec))
        .collect();
    assert!(blobs[0].is_some() && blobs[1].is_none());
    cases.push((
        AuditRequest::Blobs(BlobRequest { digests }),
        AuditResponse::Blobs(BlobResponse { blobs }),
    ));
    cases.push((
        AuditRequest::Blobs(BlobRequest::default()),
        AuditResponse::Blobs(BlobResponse::default()),
    ));

    // LogSegment by sequence range.
    cases.push((seq(1, len), segment(Digest::ZERO, entries)));
    cases.push((seq(3, 7), segment(entries[1].hash, &entries[2..7])));
    cases.push((seq(2, 0), segment(entries[0].hash, &entries[1..])));
    cases.push((
        seq(len, len),
        segment(
            entries[entries.len() - 2].hash,
            &entries[entries.len() - 1..],
        ),
    ));
    cases.push((
        seq(5, len + 1),
        error(format!("log segment 5..{} out of range", len + 1)),
    ));
    cases.push((seq(0, 3), error("log segment 0..3 out of range")));
    cases.push((
        seq(0, 0),
        error(format!("log segment 0..{len} out of range")),
    ));
    cases.push((seq(6, 5), error("log segment 6..5 out of range")));
    cases.push((
        seq(u64::MAX, u64::MAX),
        error(format!("log segment {0}..{0} out of range", u64::MAX)),
    ));

    // LogSegment by snapshot chunk: from the start SNAPSHOT entry, anchored
    // at the entry before it.
    cases.push((
        chunk(0, 1),
        segment(entries[snaps[0] - 1].hash, &entries[snaps[0]..=snaps[1]]),
    ));
    cases.push((
        chunk(1, 2),
        segment(entries[snaps[1] - 1].hash, &entries[snaps[1]..=snaps[3]]),
    ));
    let last = snaps[3];
    cases.push((
        chunk(SNAPSHOTS - 1, 1),
        segment(entries[last - 1].hash, &entries[last..]),
    ));
    cases.push((
        chunk(1, u64::MAX),
        segment(entries[snaps[1] - 1].hash, &entries[snaps[1]..]),
    ));
    cases.push((chunk(99, 1), error("snapshot 99 not in log")));

    // Sections: known, unknown.
    cases.push((
        AuditRequest::Sections { upto_id: 3 },
        AuditResponse::Sections {
            stream: store.transfer_stream_upto(3),
        },
    ));
    cases.push((
        AuditRequest::Sections { upto_id: 9 },
        error("snapshot 9 not found"),
    ));

    // Attest.
    let challenge = AttestChallenge {
        nonce: challenge_nonce(7, 1_000),
        issued_at_us: 1_000,
    };
    cases.push((
        AuditRequest::Attest(challenge),
        AuditResponse::Attestation(attestor.quote(&challenge)),
    ));
    cases
}

#[test]
fn respond_is_the_hand_built_response_for_every_request() {
    let provider = fixture();
    let server = provider.server();
    for (request, expected) in cases(provider) {
        assert_eq!(
            server.respond(&request),
            expected.encode_to_vec(),
            "{request:?}"
        );
        assert_eq!(server.handle(&request), expected, "{request:?}");
    }

    // A provider that serves less answers what it cannot with an error.
    let store_only = AuditServer::for_store(&provider.store);
    let no_attestor = AuditServer::new(&provider.log, &provider.store);
    let challenge = AttestChallenge {
        nonce: [3; 32],
        issued_at_us: 5,
    };
    for (server, request, message) in [
        (&store_only, seq(1, 0), "provider serves no log"),
        (&store_only, chunk(0, 1), "provider serves no log"),
        (
            &no_attestor,
            AuditRequest::Attest(challenge),
            "provider serves no attestation",
        ),
    ] {
        assert_eq!(server.respond(&request), error(message).encode_to_vec());
        assert_eq!(server.handle(&request), error(message));
    }
}

/// A log whose SNAPSHOT records do not all decode: a chunk request gets the
/// prefix up to and including the first corrupt record, anchored at genesis;
/// a sequence request is served as usual.
#[test]
fn undecodable_snapshot_record_answers_a_chunk_with_the_log_prefix() {
    let provider = fixture();
    let (rebuilt, corrupt_at) = with_corrupt_snapshot_record(&provider.log);
    let server = AuditServer::new(&rebuilt, &provider.store);
    let prefix = segment(Digest::ZERO, &rebuilt.entries()[..=corrupt_at]);
    for request in [chunk(0, 1), chunk(2, 1), chunk(99, u64::MAX)] {
        assert_eq!(server.respond(&request), prefix.encode_to_vec());
        assert_eq!(server.handle(&request), prefix);
    }
    let whole = segment(Digest::ZERO, rebuilt.entries());
    assert_eq!(server.respond(&seq(1, 0)), whole.encode_to_vec());
}

/// Entry contents straddling every varint boundary, in one segment: the
/// body's pre-sized length arithmetic and the per-entry length prefixes are
/// the owned encoding's.
#[test]
fn segment_of_boundary_sized_entries_is_the_owned_encoding() {
    let mut log = TamperEvidentLog::new();
    for (i, len) in [0usize, 1, 127, 128, 129, 16_383, 16_384, 16_385, 90, 91]
        .into_iter()
        .enumerate()
    {
        log.append(EntryKind::NdEvent, vec![i as u8; len]);
    }
    // Sequence numbers past the one-byte varints as well.
    for i in 0..130u8 {
        log.append(EntryKind::Meta, vec![i]);
    }
    let server = AuditServer::new(&log, &fixture().store);
    let entries = log.entries();
    for (from, to) in [(1u64, 0u64), (2, 9), (7, 7), (120, 0), (127, 129)] {
        let end = if to == 0 { entries.len() } else { to as usize };
        let prev = if from == 1 {
            Digest::ZERO
        } else {
            entries[from as usize - 2].hash
        };
        let expected = segment(prev, &entries[from as usize - 1..end]);
        assert_eq!(
            server.respond(&seq(from, to)),
            expected.encode_to_vec(),
            "{from}..{to}"
        );
    }
}

/// Sends `request` to `provider` over `net` as (`session_id`, `request_id`)
/// and returns the one packet it answers with.
fn ask(
    net: &mut SimNet,
    provider: &mut ProviderNode<'_>,
    session_id: u64,
    request_id: u64,
    request: &AuditRequest,
) -> Vec<u8> {
    net.send(
        AUDITOR_NODE,
        PROVIDER_NODE,
        seal_session_message(session_id, request_id, request),
    );
    let mut answers = Vec::new();
    while let Some(at) = net.next_delivery_at() {
        for delivery in net.advance_to(at) {
            if delivery.to == PROVIDER_NODE {
                provider.on_delivery(net, delivery);
                provider.on_tick(net);
            } else {
                answers.push(delivery.payload);
            }
        }
    }
    assert_eq!(answers.len(), 1, "{request:?}");
    answers.pop().unwrap()
}

/// `ProviderNode` seals the same bytes whether it fills its response cache,
/// answers from it, or serves a request it never caches — and they are the
/// hand-built response under the asking session's envelope.
#[test]
fn provider_node_packets_are_identical_cached_and_uncached() {
    let provider = fixture();
    let mut net = SimNet::new(LinkConfig::default());
    let mut node = ProviderNode::new(PROVIDER_NODE, provider.server());
    let mut request_id = 0;
    let (mut cacheable, mut cached_bytes) = (0u64, 0u64);
    for (request, expected) in cases(provider) {
        let before = node.stats().cache;
        // Two sessions ask the same thing: the first fills the cache (when
        // the request is cacheable at all), the second is served from it.
        for session_id in [CLIENT_SESSION, CLIENT_SESSION + 4] {
            request_id += 1;
            let packet = ask(&mut net, &mut node, session_id, request_id, &request);
            assert_eq!(
                packet,
                seal_session_message(session_id, request_id, &expected),
                "{request:?} in session {session_id}"
            );
        }
        let after = node.stats().cache;
        let is_cacheable = matches!(
            request,
            AuditRequest::Manifest { .. }
                | AuditRequest::Sections { .. }
                | AuditRequest::LogSegment(SegmentAddress::Chunk { .. })
        );
        if is_cacheable {
            cacheable += 1;
            cached_bytes += expected.encode_to_vec().len() as u64;
            assert_eq!(
                (after.misses, after.hits),
                (before.misses + 1, before.hits + 1)
            );
        } else {
            assert_eq!(after, before, "{request:?} must bypass the cache");
        }
    }
    let cache = node.stats().cache;
    assert_eq!(cache.entries, cacheable);
    assert_eq!(cache.bytes, cached_bytes);
}

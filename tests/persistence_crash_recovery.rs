//! Fault-injected crash-recovery properties for the durable provider.
//!
//! A durable provider runs a random interleaving of deliveries, runs,
//! snapshots and prunes over a [`SimStorage`] armed with a byte-granular
//! crash point.  Whenever the crash kills it, recovery from the rebooted
//! storage must yield a provider whose log is an exact, chain-verified
//! prefix of the reference execution, whose spot-check reports are
//! indistinguishable whether the log is served from memory or from the
//! recovered disk segments, and whose arenas already hold every payload
//! blob the rebuilt snapshot store references (nothing is re-fetched or
//! re-stored).  An unkilled durable provider must be audit-identical to a
//! plain in-memory recorder fed the same inputs.

use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
use avm_core::persist::{PersistConfig, Provider};
use avm_core::spotcheck::SpotCheckReport;
use avm_core::{Avmm, AvmmOptions, Envelope, EnvelopeKind, HostClock};
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_log::{EntryKind, TamperEvidentLog};
use avm_net::LinkConfig;
use avm_store::{ArenaConfig, SegmentConfig, SegmentStore, SimStorage, SyncPolicy};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic RSA-512 key (mirrors avm-core's private test fixture —
/// integration tests cannot reach it).
fn key(seed: u64) -> SigningKey {
    let mut rng = StdRng::seed_from_u64(seed);
    SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
}

/// The worker guest the avm-core test suites record: accumulates received
/// bytes, writes a counter to disk, echoes every packet.
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

fn small_cfg() -> PersistConfig {
    PersistConfig {
        segments: SegmentConfig {
            max_segment_bytes: 2048,
            seal_every_entries: 3,
            sync_policy: SyncPolicy::PerBatch,
            ..SegmentConfig::default()
        },
        arenas: ArenaConfig {
            max_arena_bytes: 8 * 1024,
            ..ArenaConfig::default()
        },
    }
}

fn options() -> AvmmOptions {
    AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512))
}

/// One step of the randomised workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Deliver a packet and run the guest (it echoes).
    Deliver,
    /// Run the guest without input.
    Run,
    /// Take a snapshot.
    Snapshot,
    /// Prune everything below the newest snapshot.
    Prune,
}

fn decode_op(raw: u8) -> Op {
    match raw % 6 {
        0 | 1 => Op::Deliver,
        2 => Op::Run,
        3 | 4 => Op::Snapshot,
        _ => Op::Prune,
    }
}

/// Applies `op` to a durable provider.  `Err` means the injected crash
/// fired; the provider is dead.
fn apply_durable(
    bob: &mut Provider<SimStorage>,
    alice_key: &SigningKey,
    clock: &mut HostClock,
    round: u64,
    op: Op,
) -> Result<(), ()> {
    clock.advance_to(clock.now() + 1_000);
    let fail = |_| ();
    match op {
        Op::Deliver => {
            let payload = encode_guest_packet("alice", format!("work-{round}").as_bytes());
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                round + 1,
                payload,
                alice_key,
                None,
            );
            bob.deliver(&env).map_err(fail)?;
            bob.run_slice(clock, 100_000).map_err(fail)?;
        }
        Op::Run => {
            bob.run_slice(clock, 20_000).map_err(fail)?;
        }
        Op::Snapshot => {
            bob.take_snapshot().map_err(fail)?;
        }
        Op::Prune => {
            let store = bob.avmm().snapshots();
            if store.next_id() > store.base_id() + 1 {
                let target = store.next_id() - 1;
                bob.prune_snapshots_upto(target).map_err(fail)?;
            }
        }
    }
    Ok(())
}

/// Applies `op` to the plain in-memory reference recorder.
fn apply_reference(
    bob: &mut Avmm,
    alice_key: &SigningKey,
    clock: &mut HostClock,
    round: u64,
    op: Op,
) {
    clock.advance_to(clock.now() + 1_000);
    match op {
        Op::Deliver => {
            let payload = encode_guest_packet("alice", format!("work-{round}").as_bytes());
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                round + 1,
                payload,
                alice_key,
                None,
            );
            bob.deliver(&env).unwrap();
            bob.run_slice(clock, 100_000).unwrap();
        }
        Op::Run => {
            bob.run_slice(clock, 20_000).unwrap();
        }
        Op::Snapshot => {
            bob.take_snapshot();
        }
        Op::Prune => {
            let store = bob.snapshots();
            if store.next_id() > store.base_id() + 1 {
                let target = store.next_id() - 1;
                bob.prune_snapshots_upto(target).unwrap();
            }
        }
    }
}

fn spot_check_report(server: AuditServer<'_>, image: &VmImage, start: u64) -> SpotCheckReport {
    let mut client = AuditClient::new(SimNetTransport::new(server, LinkConfig::default()));
    client
        .spot_check(start, 1_000, image, &GuestRegistry::new())
        .expect("spot check over a recovered provider must run")
}

/// The newest snapshot id whose SNAPSHOT entry is in the log and which the
/// store retains — the strongest spot-check start an auditor can pick.
fn newest_auditable_snapshot(provider: &Provider<SimStorage>) -> Option<u64> {
    use avm_wire::Decode;
    let store = provider.avmm().snapshots();
    provider
        .avmm()
        .log()
        .entries()
        .iter()
        .filter(|e| e.kind == EntryKind::Snapshot)
        .filter_map(|e| avm_core::SnapshotRecord::decode_exact(&e.content).ok())
        .map(|rec| rec.snapshot_id)
        .rfind(|id| store.get(*id).is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random write/snapshot/prune/crash interleavings: the recovered
    /// provider is an honest prefix of the reference execution, its
    /// disk-served audits match its memory-served audits, and its arenas
    /// already hold every blob its snapshot store references.
    #[test]
    fn crashed_provider_recovers_an_audit_identical_prefix(
        raw_ops in proptest::collection::vec(0u8..6, 2..7),
        budget in 400u64..20_000,
    ) {
        let image = worker_image();
        let registry = GuestRegistry::new();
        let alice_key = key(2);
        let ops: Vec<Op> = raw_ops.iter().map(|r| decode_op(*r)).collect();

        // Reference: the same inputs into a plain in-memory recorder.
        let mut reference = Avmm::new("bob", &image, &registry, key(1), options()).unwrap();
        reference.add_peer("alice", alice_key.verifying_key());
        let mut ref_clock = HostClock::at(10);
        reference.run_slice(&ref_clock, 10_000).unwrap();
        for (round, op) in ops.iter().enumerate() {
            apply_reference(&mut reference, &alice_key, &mut ref_clock, round as u64, *op);
        }

        // Durable provider with an armed crash point.
        let storage = SimStorage::new();
        let mut bob = Provider::create(
            storage.clone(), "bob", &image, &registry, key(1), options(), small_cfg(),
        ).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let mut clock = HostClock::at(10);
        bob.run_slice(&clock, 10_000).unwrap();
        storage.set_crash_point(budget);
        for (round, op) in ops.iter().enumerate() {
            if apply_durable(&mut bob, &alice_key, &mut clock, round as u64, *op).is_err() {
                break;
            }
        }
        let survived = !storage.crashed();
        drop(bob);

        // Recovery must always succeed: crashes tear, they never tamper.
        let (recovered, report) = Provider::recover(
            storage.reboot(), "bob", &image, &registry, key(1), options(), small_cfg(),
        ).expect("crash recovery must never fail on honest storage");

        // The recovered log is an exact prefix of the reference execution.
        let ref_entries = reference.log().entries();
        let n = report.entries_recovered as usize;
        prop_assert!(n >= 1, "the META entry is always durable");
        prop_assert!(n <= ref_entries.len());
        prop_assert_eq!(recovered.avmm().log().entries(), &ref_entries[..n]);
        if survived {
            prop_assert_eq!(n, ref_entries.len());
        }

        // The arenas hold every blob the rebuilt store references: a
        // spot-checking auditor (or the next flush) re-fetches nothing.
        for digest in recovered.avmm().snapshots().pooled_digests() {
            prop_assert!(recovered.blob_persisted(&digest));
        }

        // Disk-served and memory-served audits are indistinguishable, and
        // both are consistent; when nothing was lost (and the prune windows
        // agree) the unkilled reference reports the same verdict, replay
        // work and transfer accounting.
        if let Some(start) = newest_auditable_snapshot(&recovered) {
            let from_disk = spot_check_report(recovered.audit_server(), &image, start);
            let from_memory = spot_check_report(
                AuditServer::new(recovered.avmm().log(), recovered.avmm().snapshots()),
                &image,
                start,
            );
            prop_assert!(from_disk.consistent, "{:?}", from_disk.fault);
            prop_assert_eq!(&from_disk, &from_memory);
            if survived
                && reference.snapshots().base_id() == recovered.avmm().snapshots().base_id()
            {
                let unkilled = spot_check_report(
                    AuditServer::new(reference.log(), reference.snapshots()),
                    &image,
                    start,
                );
                prop_assert_eq!(&from_disk, &unkilled);
            }
        }
    }
}

/// An unkilled durable provider and a plain in-memory recorder given the
/// same inputs produce byte-identical logs and spot-check reports — the
/// persistence layer is invisible to auditors.
#[test]
fn durable_provider_is_audit_identical_to_in_memory_recorder() {
    let image = worker_image();
    let registry = GuestRegistry::new();
    let alice_key = key(2);
    let ops = [
        Op::Deliver,
        Op::Snapshot,
        Op::Deliver,
        Op::Snapshot,
        Op::Prune,
        Op::Deliver,
        Op::Snapshot,
    ];

    let mut reference = Avmm::new("bob", &image, &registry, key(1), options()).unwrap();
    reference.add_peer("alice", alice_key.verifying_key());
    let mut ref_clock = HostClock::at(10);
    reference.run_slice(&ref_clock, 10_000).unwrap();

    let mut bob = Provider::create(
        SimStorage::new(),
        "bob",
        &image,
        &registry,
        key(1),
        options(),
        small_cfg(),
    )
    .unwrap();
    bob.add_peer("alice", alice_key.verifying_key());
    let mut clock = HostClock::at(10);
    bob.run_slice(&clock, 10_000).unwrap();

    for (round, op) in ops.iter().enumerate() {
        apply_reference(
            &mut reference,
            &alice_key,
            &mut ref_clock,
            round as u64,
            *op,
        );
        apply_durable(&mut bob, &alice_key, &mut clock, round as u64, *op).unwrap();
    }

    assert_eq!(bob.avmm().log().entries(), reference.log().entries());
    let start = newest_auditable_snapshot(&bob).expect("snapshots were taken");
    let durable = spot_check_report(bob.audit_server(), &image, start);
    let in_memory = spot_check_report(
        AuditServer::new(reference.log(), reference.snapshots()),
        &image,
        start,
    );
    assert!(durable.consistent, "{:?}", durable.fault);
    assert_eq!(durable, in_memory);
}

/// Regression (the malformed-record-at-a-segment-boundary case): a provider
/// whose own SNAPSHOT record is undecodable serves its honest log *prefix*,
/// and serving that prefix from recovered disk segments — with the
/// malformed record sitting at a segment file boundary — behaves exactly
/// like serving it from memory.
#[test]
fn malformed_snapshot_record_prefix_is_identical_from_disk_segments() {
    let image = worker_image();
    let registry = GuestRegistry::new();
    let signing = key(1);

    // Record a session, then rebuild the log with the second SNAPSHOT
    // record's content replaced by undecodable bytes (correctly chained —
    // the recorder really logged garbage).
    let mut recorder = Avmm::new("bob", &image, &registry, signing.clone(), options()).unwrap();
    recorder.add_peer("alice", key(2).verifying_key());
    let mut clock = HostClock::at(10);
    recorder.run_slice(&clock, 10_000).unwrap();
    for i in 0..3u64 {
        clock.advance_to(clock.now() + 1_000);
        let payload = encode_guest_packet("alice", format!("work-{i}").as_bytes());
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            i + 1,
            payload,
            &key(2),
            None,
        );
        recorder.deliver(&env).unwrap();
        recorder.run_slice(&clock, 100_000).unwrap();
        recorder.take_snapshot();
    }
    let mut rebuilt = TamperEvidentLog::new();
    let mut snapshot_entries_seen = 0;
    for e in recorder.log().entries() {
        let content = if e.kind == EntryKind::Snapshot {
            snapshot_entries_seen += 1;
            if snapshot_entries_seen == 2 {
                vec![0xff, 0x01]
            } else {
                e.content.clone()
            }
        } else {
            e.content.clone()
        };
        rebuilt.append(e.kind, content);
    }

    // Persist the rebuilt log with one-entry segments: every entry — the
    // malformed SNAPSHOT record included — sits at a segment boundary.
    let storage = SimStorage::new();
    let cfg = SegmentConfig {
        max_segment_bytes: 1,
        seal_every_entries: 1,
        sync_policy: SyncPolicy::PerSeal,
        ..SegmentConfig::default()
    };
    let mut segments = SegmentStore::create(storage.clone(), cfg).unwrap();
    let mut prev = avm_crypto::sha256::Digest::ZERO;
    for entry in rebuilt.entries() {
        segments.append_entry(entry).unwrap();
        let auth = avm_log::Authenticator::create(&signing, entry, prev);
        segments.seal(&auth).unwrap();
        prev = entry.hash;
    }
    assert!(segments.segment_files() > rebuilt.len() as u64 / 2);
    drop(segments);

    let (_, scan) =
        SegmentStore::recover(storage.reboot(), cfg, Some(&signing.verifying_key())).unwrap();
    assert_eq!(scan.entries, rebuilt.entries());

    let from_memory =
        spot_check_report(AuditServer::new(&rebuilt, recorder.snapshots()), &image, 0);
    let from_disk = spot_check_report(
        AuditServer::with_log_source(&scan.entries, recorder.snapshots()),
        &image,
        0,
    );
    assert!(matches!(
        from_memory.fault,
        Some(avm_core::FaultReason::MalformedLog { .. })
    ));
    assert_eq!(from_disk, from_memory);
}

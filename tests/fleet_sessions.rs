//! Fleet-auditing equivalence properties: N concurrent sessionful auditors
//! interleaved on one provider node must be *observationally serial* — every
//! session reaches the same report a lone `AuditClient` would have, under
//! arbitrary write/snapshot interleavings, chunk choices, download modes,
//! deterministic link loss, and arbitrary session interleavings
//! (inter-arrival gaps).

use avm_core::config::AvmmOptions;
use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport, AUDITOR_NODE, PROVIDER_NODE};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::fleet::{run_fleet, AuditTask, FleetAuditor, FleetConfig, ProviderNode};
use avm_core::recorder::{Avmm, HostClock};
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_net::{run_event_loop, Endpoint, LinkConfig, NodeId, SimNet};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::audit::CLIENT_SESSION;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Records a worker AVMM whose state diverges with every packet, taking
/// snapshots where the workload says so (at least one).  Returns the
/// recorder and the number of snapshots taken.
fn record_workload(
    image: &VmImage,
    registry: &GuestRegistry,
    workload: &[(u8, bool)],
) -> (Avmm, u64) {
    let mut rng = StdRng::seed_from_u64(19);
    let operator_key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
    let alice_key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
    let mut avmm = Avmm::new(
        "bob",
        image,
        registry,
        operator_key,
        AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
    )
    .unwrap();
    avmm.add_peer("alice", alice_key.verifying_key());
    let mut clock = HostClock::at(5);
    avmm.run_slice(&clock, 10_000).unwrap();
    let mut snapshots_taken = 0u64;
    for (i, (sel, snap)) in workload.iter().enumerate() {
        clock.advance_to(clock.now() + 500);
        let payload = encode_guest_packet("alice", &[b'w', *sel, i as u8]);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            i as u64 + 1,
            payload,
            &alice_key,
            None,
        );
        avmm.deliver(&env).unwrap();
        avmm.run_slice(&clock, 100_000).unwrap();
        if *snap {
            avmm.take_snapshot();
            snapshots_taken += 1;
        }
    }
    if snapshots_taken == 0 {
        avmm.take_snapshot();
        snapshots_taken = 1;
    }
    (avmm, snapshots_taken)
}

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
    VmImage::bytecode("fleet-prop", 128 * 1024, assemble(src, 0).unwrap(), 0, 0)
        .with_disk(vec![0u8; 8192])
}

proptest! {
    // Every case records a full AVMM session (RSA keygen + signing) and then
    // replays the checked chunk once per auditor, so the case count is kept
    // small; the interleavings inside each case are what the property
    // quantifies over.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (1) With N interleaved sessions on the provider, every session's
    /// report is semantically identical to a lone client's — same verdict,
    /// fault, replay progress, transfer accounting and fetched digests — for
    /// any inter-arrival gap and link-loss pattern.
    /// (2) The shared response cache pays each cacheable encoding once:
    /// exactly 2 misses (log chunk + manifest-or-sections), and every
    /// further serve of those keys is a hit.
    #[test]
    fn interleaved_fleet_sessions_match_serial_client(
        workload in proptest::collection::vec((0u8..6, any::<bool>()), 2..6),
        start_pick in any::<u8>(),
        k in 1u64..3,
        loss_pick in 0usize..4,
        on_demand in any::<bool>(),
        auditors in 2usize..6,
        gap_pick in 0usize..4,
    ) {
        let image = worker_image();
        let registry = GuestRegistry::new();
        let (avmm, snapshots_taken) = record_workload(&image, &registry, &workload);
        let start = start_pick as u64 % snapshots_taken;
        // drop_every = 1 would drop *every* packet (a black hole); quantify
        // over lossless and partial-loss links.
        let drop_every = [0u64, 2, 3, 5][loss_pick];
        let link = LinkConfig { drop_every, ..LinkConfig::default() };
        let inter_arrival_us = [0u64, 130, 500, 1_700][gap_pick];

        // Serial baseline: one client over its own simulated link.
        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::new(avmm.log(), avmm.snapshots()),
            link,
        ));
        let baseline = if on_demand {
            client.spot_check_on_demand(start, k, &image, &registry).unwrap()
        } else {
            client.spot_check(start, k, &image, &registry).unwrap()
        };

        // (1) N interleaved sessions on one provider.
        let config = FleetConfig {
            link,
            auditors,
            inter_arrival_us,
            start_snapshot: start,
            chunk: k,
            on_demand,
        };
        let outcome = run_fleet(avmm.log(), avmm.snapshots(), &image, &registry, &config);
        prop_assert!(outcome.event_loop.quiescent);
        prop_assert_eq!(outcome.reports.len(), auditors);
        prop_assert_eq!(outcome.latencies_us.len(), auditors);
        for report in &outcome.reports {
            let report = report.as_ref().unwrap();
            prop_assert_eq!(baseline.semantic(), report.semantic());
            if drop_every == 0 {
                prop_assert_eq!(report.transport.retransmissions, 0);
            }
            prop_assert!(report.transport.round_trips >= 1);
        }

        // (2) Shared-cache accounting: the provider encodes the two
        // cacheable responses once; every further serve (other sessions,
        // loss-induced re-requests) hits the cache.
        prop_assert_eq!(outcome.providers.len(), 1);
        let stats = &outcome.providers[0];
        prop_assert_eq!(stats.sessions_created, auditors as u64);
        prop_assert_eq!(stats.cache.entries, 2);
        prop_assert_eq!(stats.cache.misses, 2);
        prop_assert!(
            stats.cache.hits >= 2 * (auditors as u64 - 1),
            "expected at least {} shared-cache hits, saw {}",
            2 * (auditors as u64 - 1),
            stats.cache.hits
        );
    }
}

/// Heterogeneous tasks on one provider: auditors checking *different* chunk
/// ranges force cache misses — one per distinct cacheable encoding (a
/// `LogChunk{start,k}` per distinct task, a `Manifest(start)` per distinct
/// start) — while auditors sharing a range still hit.  Every session must
/// also match its own serial baseline, so the mixed hit/miss traffic is
/// provably not leaking one task's bytes into another's audit.
#[test]
fn heterogeneous_chunk_ranges_miss_per_distinct_key() {
    let image = worker_image();
    let registry = GuestRegistry::new();
    let workload = [(0u8, true), (1, true), (2, true), (3, false)];
    let (avmm, snapshots_taken) = record_workload(&image, &registry, &workload);
    assert_eq!(snapshots_taken, 3);

    // Five sessions over four distinct (start, k) tasks and three distinct
    // starts; the last task repeats the first so at least one pair shares
    // *both* cacheable keys.
    let tasks: [(u64, u64); 5] = [(0, 1), (1, 1), (0, 2), (2, 1), (0, 1)];
    let distinct_chunks = 4u64; // |{(start, k)}|
    let distinct_manifests = 3u64; // |{start}|

    // Serial baselines, one client per task.
    let baselines: Vec<_> = tasks
        .iter()
        .map(|&(start, k)| {
            let mut client = AuditClient::new(SimNetTransport::new(
                AuditServer::new(avmm.log(), avmm.snapshots()),
                LinkConfig::default(),
            ));
            client
                .spot_check_on_demand(start, k, &image, &registry)
                .unwrap()
        })
        .collect();

    let link = LinkConfig::default();
    let timeout_us = 8 * link.latency_us + link.serialise_micros(1 << 20);
    let mut net = SimNet::new(link);
    let mut provider = ProviderNode::new(
        PROVIDER_NODE,
        AuditServer::new(avmm.log(), avmm.snapshots()),
    );
    let mut auditors: Vec<FleetAuditor> = tasks
        .iter()
        .enumerate()
        .map(|(i, &(start, k))| {
            FleetAuditor::new(
                NodeId(AUDITOR_NODE.0 + i as u32),
                PROVIDER_NODE,
                CLIENT_SESSION + i as u64,
                &image,
                &registry,
                AuditTask {
                    start_snapshot: start,
                    chunk: k,
                    on_demand: true,
                    start_at_us: i as u64 * 150,
                },
                timeout_us,
            )
        })
        .collect();
    let mut endpoints: Vec<&mut dyn Endpoint> = vec![&mut provider];
    for auditor in auditors.iter_mut() {
        endpoints.push(auditor);
    }
    let report = run_event_loop(&mut net, &mut endpoints, 10_000_000);
    assert!(report.quiescent);
    drop(endpoints);

    // Hit/miss accounting: on a lossless link each session serves exactly
    // one chunk and one manifest request, so the cacheable traffic is
    // 2 × sessions, of which only the distinct encodings miss.
    let stats = provider.stats();
    assert_eq!(stats.sessions_created, tasks.len() as u64);
    assert_eq!(stats.cache.misses, distinct_chunks + distinct_manifests);
    assert_eq!(stats.cache.entries, distinct_chunks + distinct_manifests);
    assert_eq!(
        stats.cache.hits,
        2 * tasks.len() as u64 - (distinct_chunks + distinct_manifests)
    );

    for (auditor, baseline) in auditors.into_iter().zip(&baselines) {
        assert!(auditor.finished());
        let (outcome, _cache) = auditor.into_parts();
        let fleet_report = outcome.unwrap();
        assert_eq!(fleet_report.semantic(), baseline.semantic());
        assert_eq!(fleet_report.transport.retransmissions, 0);
    }
}

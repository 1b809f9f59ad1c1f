//! Shared test fixtures: the worker guest + AVMM recording the spot-check
//! and endpoint test suites both audit.  One definition keeps their
//! "identical semantics across transports" comparisons honest — both sides
//! always record the same workload.  Beside it: shared unsigned recordings
//! of the worker and the database guest (each with a twin execution), and
//! providers that tamper with what they send, for both audit drivers.

use std::sync::OnceLock;

use crate::config::AvmmOptions;
use crate::endpoint::{link_timeout_us, AuditServer, AuditTransport, TransportStats};
use crate::envelope::{Envelope, EnvelopeKind};
use crate::error::CoreError;
use crate::fleet::{AuditTask, FleetAuditor};
use crate::ondemand::AuditorBlobCache;
use crate::recorder::{Avmm, HostClock};
use crate::snapshot::SnapshotStore;
use crate::spotcheck::SpotCheckReport;
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_log::{Authenticator, TamperEvidentLog};
use avm_net::{run_event_loop, Delivery, Endpoint, LinkConfig, NodeId, SimNet};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::audit::{open_session_message, seal_encoded_message, AuditRequest, AuditResponseRef};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic RSA-512 signing key from a fixed seed.
pub(crate) fn key(seed: u64) -> SigningKey {
    let mut rng = StdRng::seed_from_u64(seed);
    SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
}

/// A guest that accumulates received bytes into memory and periodically
/// writes a counter to disk, so snapshots have real divergent content.
pub(crate) fn worker_image() -> VmImage {
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

/// Records a session with `n_snapshots` snapshots, one after every
/// delivered packet.  The operator signs with `key(1)`, the peer with
/// `key(2)`.
pub(crate) fn record_with_snapshots(n_snapshots: u64) -> (Avmm, VmImage) {
    let image = worker_image();
    let alice_key = key(2);
    let mut bob = Avmm::new(
        "bob",
        &image,
        &GuestRegistry::new(),
        key(1),
        AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
    )
    .unwrap();
    bob.add_peer("alice", alice_key.verifying_key());
    let mut clock = HostClock::at(10);
    bob.run_slice(&clock, 10_000).unwrap();
    for i in 0..n_snapshots {
        clock.advance_to(clock.now() + 1_000);
        let payload = encode_guest_packet("alice", format!("work-{i}").as_bytes());
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            i + 1,
            payload,
            &alice_key,
            None,
        );
        bob.deliver(&env).unwrap();
        bob.run_slice(&clock, 100_000).unwrap();
        bob.take_snapshot();
    }
    (bob, image)
}

/// A recording whose provider state is owned, so fixtures can be shared.
pub(crate) struct Recording {
    pub image: VmImage,
    pub registry: GuestRegistry,
    pub log: TamperEvidentLog,
    pub store: SnapshotStore,
    /// What the peer collected: the authenticator of every acknowledgment
    /// and of every envelope the machine sent (all under
    /// `VerifyingKey::Null`).
    pub authenticators: Vec<Authenticator>,
}

/// Records `image` (unsigned, so it builds fast) over one delivered packet
/// per entry of `payloads`, snapshotting after every `snapshot_every`-th
/// packet and after the last.  The peer acknowledges each packet the machine
/// sends once the snapshot decision is made, so a chunk can open with ACKs
/// of SENDs from before it.
fn record(
    image: VmImage,
    registry: GuestRegistry,
    payloads: impl Iterator<Item = Vec<u8>>,
    snapshot_every: u64,
) -> Recording {
    let options = AvmmOptions::default().with_scheme(SignatureScheme::Null);
    let mut bob = Avmm::new("bob", &image, &registry, SigningKey::Null, options).unwrap();
    bob.add_peer("alice", SigningKey::Null.verifying_key());
    let mut clock = HostClock::at(10);
    bob.run_slice(&clock, 20_000).unwrap();
    let mut authenticators = Vec::new();
    let mut sent = 0;
    for payload in payloads {
        sent += 1;
        clock.advance_to(clock.now() + 1_000);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            sent,
            payload,
            &SigningKey::Null,
            None,
        );
        let ack = bob
            .deliver(&env)
            .unwrap()
            .expect("a recording machine acknowledges");
        authenticators.extend(ack.decode_ack().and_then(|ack| ack.authenticator));
        let outbound = bob.run_slice(&clock, 100_000).unwrap();
        if sent % snapshot_every == 0 {
            bob.take_snapshot();
        }
        for out in outbound {
            authenticators.extend(out.envelope.authenticator);
            let ack = Envelope::create(
                EnvelopeKind::Ack,
                "alice",
                "bob",
                out.envelope.msg_id,
                Vec::new(),
                &SigningKey::Null,
                None,
            );
            bob.deliver(&ack).unwrap();
        }
    }
    bob.take_snapshot();
    Recording {
        image,
        registry,
        log: bob.log().clone(),
        store: bob.snapshots().clone(),
        authenticators,
    }
}

/// The bytecode worker guest over four packets, a snapshot after each;
/// `twin` sends longer packets, so its log and store are another
/// execution's, one whose counter no replay of the honest log reaches.  An
/// auditor holding the honest run's authenticators refuses the twin's log;
/// one holding none judges only the chunk and the state served with it.
pub(crate) fn worker_recording(twin: bool) -> &'static Recording {
    static RECORDINGS: [OnceLock<Recording>; 2] = [OnceLock::new(), OnceLock::new()];
    RECORDINGS[usize::from(twin)].get_or_init(|| {
        let tag = if twin { "twins" } else { "work" };
        let payloads =
            (0..4).map(move |i| encode_guest_packet("alice", format!("{tag}-{i}").as_bytes()));
        record(worker_image(), GuestRegistry::new(), payloads, 1)
    })
}

/// The native database guest over its `sql-bench` workload, a snapshot
/// every 8 requests; `twin` runs the workload over more rows.
pub(crate) fn db_recording(twin: bool) -> &'static Recording {
    static RECORDINGS: [OnceLock<Recording>; 2] = [OnceLock::new(), OnceLock::new()];
    RECORDINGS[usize::from(twin)].get_or_init(|| {
        let cfg = avm_db::server::DbConfig::new("alice");
        let mut workload = avm_db::WorkloadGen::new(if twin { 7 } else { 6 });
        let payloads = std::iter::from_fn(move || workload.next_packet("bob"));
        record(avm_db::db_image(&cfg), avm_db::db_registry(), payloads, 8)
    })
}

/// A provider on no network whose encoded response passes through `tamper`
/// (with the request it answers) on its way to the auditor.  A body that no
/// longer decodes is dropped, as `PendingExchange::accept` drops it; with no
/// retransmit timer to wait out, the exchange fails on the spot.
pub(crate) struct TamperingTransport<'a, F> {
    pub server: AuditServer<'a>,
    pub tamper: F,
}

impl<F: FnMut(&AuditRequest, Vec<u8>) -> Vec<u8>> AuditTransport for TamperingTransport<'_, F> {
    fn exchange<R>(
        &mut self,
        request: &AuditRequest,
        on_response: impl FnOnce(AuditResponseRef<'_>) -> R,
    ) -> Result<R, CoreError> {
        let body = (self.tamper)(request, self.server.respond(request));
        let response = AuditResponseRef::decode_exact(&body)
            .map_err(|e| CoreError::Snapshot(format!("response dropped: {e}")))?;
        Ok(on_response(response))
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// [`TamperingTransport`]'s provider as an endpoint on a shared network:
/// each request is answered, through `tamper`, the moment it arrives.
pub(crate) struct TamperingProvider<'a, F> {
    pub server: AuditServer<'a>,
    pub tamper: F,
}

/// Node the fleet fixtures' provider binds.
const PROVIDER: NodeId = NodeId(1);

impl<F: FnMut(&AuditRequest, Vec<u8>) -> Vec<u8>> Endpoint for TamperingProvider<'_, F> {
    fn node(&self) -> NodeId {
        PROVIDER
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        let Ok((session, id, request)) = open_session_message::<AuditRequest>(&delivery.payload)
        else {
            return;
        };
        let body = (self.tamper)(&request, self.server.respond(&request));
        let _ = net.send(
            PROVIDER,
            delivery.from,
            seal_encoded_message(session, id, &body),
        );
    }

    fn on_tick(&mut self, _: &mut SimNet) -> Option<u64> {
        None
    }
}

/// A [`FleetAuditor`] for the fleet fixtures' provider, checking the chunk
/// after `start` (`k = 1`) `on_demand` or in full.
pub(crate) fn fleet_auditor<'a>(
    image: &'a VmImage,
    registry: &'a GuestRegistry,
    start: u64,
    on_demand: bool,
) -> FleetAuditor<'a> {
    let task = AuditTask {
        start_snapshot: start,
        chunk: 1,
        on_demand,
        start_at_us: 0,
    };
    let timeout = link_timeout_us(&LinkConfig::default());
    FleetAuditor::new(NodeId(2), PROVIDER, 7, image, registry, task, timeout)
}

/// Runs `auditor` against `provider` on a lossless shared network: how it
/// ended, and the blob cache it left.
pub(crate) fn fleet_spot_check(
    provider: &mut dyn Endpoint,
    mut auditor: FleetAuditor<'_>,
) -> (Result<SpotCheckReport, CoreError>, AuditorBlobCache) {
    let mut net = SimNet::new(LinkConfig::default());
    run_event_loop(&mut net, &mut [provider, &mut auditor], 1_000_000);
    auditor.into_parts()
}

//! Shared test fixtures: the worker guest + AVMM recording the spot-check
//! and endpoint test suites both audit.  One definition keeps their
//! "identical semantics across transports" comparisons honest — both sides
//! always record the same workload.  Beside it: shared unsigned recordings
//! of the worker and the database guest (each with a twin execution), a
//! *converging* twin of the worker's start state, a native guest that
//! appends records across disk leaves, and a provider that tampers with
//! what it sends.

use std::sync::OnceLock;

use crate::config::AvmmOptions;
use crate::endpoint::{AuditClient, AuditServer, SimNetTransport, PROVIDER_NODE};
use crate::envelope::{Envelope, EnvelopeKind};
use crate::recorder::{Avmm, HostClock};
use crate::snapshot::SnapshotStore;
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_log::{Authenticator, TamperEvidentLog};
use avm_net::{Delivery, Endpoint, LinkConfig, NodeId, SimNet};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{
    GuestCtx, GuestKernel, GuestRegistry, GuestStep, Machine, VmError, VmImage, CHUNK_SIZE,
};
use avm_wire::audit::{open_session_message, seal_encoded_message, AuditRequest};
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
/// of SENDs from before it.  `before_snapshot` sees the machine just before
/// each snapshot is taken, with the id it will get: an honest provider
/// leaves it alone.
fn record(
    image: VmImage,
    registry: GuestRegistry,
    payloads: impl Iterator<Item = Vec<u8>>,
    snapshot_every: u64,
    mut before_snapshot: impl FnMut(u64, &mut Machine),
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
            before_snapshot(bob.snapshots().next_id(), bob.machine_mut());
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
    before_snapshot(bob.snapshots().next_id(), bob.machine_mut());
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
    RECORDINGS[usize::from(twin)]
        .get_or_init(|| worker_edited_at(&worker_payloads(twin), u64::MAX, |_| {}))
}

/// The packets of [`worker_recording`]`(twin)`.
fn worker_payloads(twin: bool) -> Vec<Vec<u8>> {
    let tag = if twin { "twins" } else { "work" };
    (0..4)
        .map(|i| encode_guest_packet("alice", format!("{tag}-{i}").as_bytes()))
        .collect()
}

/// The worker's rx buffer: `recv` fills it with each packet before the
/// guest reads a byte of it.
pub(crate) const WORKER_RX_BUFFER: u64 = 0x8000;

/// Flips the bytes of the worker's disk counter (8 bytes at offset 0, which
/// it `diskwr`s whole per packet and never reads) that `mask` selects, bit
/// `i` for byte `i` — as a provider editing the disk would: no guest
/// access, so no access counter moves.
pub(crate) fn flip_disk_counter(machine: &mut Machine, mask: u8) {
    let disk = &mut machine.devices_mut().disk;
    let mut leaf = disk.block(0).unwrap().to_vec();
    for (i, byte) in leaf[..8].iter_mut().enumerate() {
        if mask >> i & 1 == 1 {
            *byte ^= 0x5a;
        }
    }
    disk.set_block(0, &leaf).unwrap();
}

/// The worker guest over `payloads` (a snapshot after each) whose machine,
/// just before snapshot `id` is taken, goes through `edit`: a provider that
/// snapshots a state the honest execution never had.  When `edit` changes
/// only bytes the next packet overwrites before it reads them (the disk
/// counter, [`flip_disk_counter`], or the rx buffer up to the next packet's
/// length)
/// the execution converges: every later entry and root is the honest
/// run's, so its store served with the honest log is a *converging twin* —
/// a start state that differs from the one the log records, which a replay
/// of the chunk cannot tell apart.
pub(crate) fn worker_edited_at(
    payloads: &[Vec<u8>],
    id: u64,
    edit: impl Fn(&mut Machine),
) -> Recording {
    record(
        worker_image(),
        GuestRegistry::new(),
        payloads.iter().cloned(),
        1,
        |next, machine| {
            if next == id {
                edit(machine);
            }
        },
    )
}

/// [`worker_recording`]`(false)`'s converging twin at snapshot
/// [`CONVERGING_AT`]: the disk counter's bytes flipped, which the chunk's
/// first `diskwr` overwrites.
pub(crate) fn converging_worker_twin() -> &'static Recording {
    static RECORDING: OnceLock<Recording> = OnceLock::new();
    RECORDING.get_or_init(|| {
        worker_edited_at(&worker_payloads(false), CONVERGING_AT, |machine| {
            flip_disk_counter(machine, 0xff)
        })
    })
}

/// The snapshot [`converging_worker_twin`] diverges at.
pub(crate) const CONVERGING_AT: u64 = 1;

/// Disk offset of the [`disk_counter_recording`] guest's counter: inside
/// leaf 9, in the second page.
const DISK_COUNTER: u64 = 0x1234;

/// A bytecode guest that, per packet, read-modify-writes an 8-byte counter
/// at [`DISK_COUNTER`] on its disk, through a memory word it zeroes again
/// afterwards (as it does the rx word the packet lands in): between packets
/// its memory is the image's, and only its disk diverges.
pub(crate) fn disk_counter_recording() -> &'static Recording {
    static RECORDING: OnceLock<Recording> = OnceLock::new();
    RECORDING.get_or_init(|| {
        let src = format!(
            r"
                movi r1, 0x8000     ; rx word
                movi r2, 8          ; max len: one word
                movi r5, 0x9000     ; scratch word
                movi r7, {DISK_COUNTER}
                movi r8, 8
                movi r9, 0
            loop:
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                store r9, r1
                diskrd r7, r5, r8
                load r3, r5
                addi r3, 1
                store r3, r5
                diskwr r7, r5, r8
                store r9, r5
                jmp loop
            "
        );
        let image = VmImage::bytecode("counter", 64 * 1024, assemble(&src, 0).unwrap(), 0, 0)
            .with_disk(vec![0u8; 8192]);
        let payloads = (0..4u8).map(|i| vec![i; 8]);
        record(image, GuestRegistry::new(), payloads, 1, |_, _| {})
    })
}

/// Bytes per record of the [`ledger_recording`] guest.
const LEDGER_RECORD: usize = 100;
/// The ledger's ring: two disk leaves, so appends wrap and later ones land
/// on leaves an earlier pass already wrote.
const LEDGER_RING: usize = 2 * CHUNK_SIZE;

/// A native guest that appends each packet, cut or padded to
/// [`LEDGER_RECORD`] bytes, to a ring of [`LEDGER_RING`] bytes at the start
/// of its disk — a write-ahead log with nothing in memory.  A miss leaves
/// its cursor where the record would have gone; the session replays the
/// chunk again from the start.
struct Ledger {
    cursor: usize,
}

impl GuestKernel for Ledger {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestStep {
        let Some(packet) = ctx.recv_packet() else {
            return GuestStep::Idle;
        };
        let mut record = [0u8; LEDGER_RECORD];
        let n = packet.len().min(LEDGER_RECORD);
        record[..n].copy_from_slice(&packet[..n]);
        if self.cursor + LEDGER_RECORD > LEDGER_RING {
            self.cursor = 0;
        }
        let _ = ctx.disk_write(self.cursor as u64, &record);
        self.cursor += LEDGER_RECORD;
        GuestStep::Ran { cost: 1 }
    }
    fn save_state(&self) -> Vec<u8> {
        (self.cursor as u64).to_le_bytes().to_vec()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), VmError> {
        let bytes: [u8; 8] = bytes
            .try_into()
            .map_err(|_| VmError::CorruptState("ledger state"))?;
        self.cursor = u64::from_le_bytes(bytes) as usize;
        Ok(())
    }
    fn name(&self) -> &str {
        "ledger"
    }
}

/// The native [`Ledger`] guest over 18 packets, a snapshot after each: its
/// second pass over the ring appends across the boundary of two leaves that
/// both hold records of the first.
pub(crate) fn ledger_recording() -> &'static Recording {
    static RECORDING: OnceLock<Recording> = OnceLock::new();
    RECORDING.get_or_init(|| {
        let mut registry = GuestRegistry::new();
        registry.register("ledger", |_| Ok(Box::new(Ledger { cursor: 0 })));
        let image =
            VmImage::native("ledger", 64 * 1024, "ledger", Vec::new()).with_disk(vec![0u8; 4096]);
        let payloads = (0..18u8).map(|i| encode_guest_packet("alice", &[b'a' + i; LEDGER_RECORD]));
        record(image, registry, payloads, 1, |_, _| {})
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
        record(
            avm_db::db_image(&cfg),
            avm_db::db_registry(),
            payloads,
            8,
            |_, _| {},
        )
    })
}

/// A provider endpoint whose encoded response passes through `tamper`
/// (with the request it answers) on its way to the auditor: each request is
/// answered the moment it arrives.  A body that no longer decodes ends the
/// exchange with its decode error.
pub(crate) struct TamperingProvider<'a, F> {
    pub server: AuditServer<'a>,
    pub tamper: F,
}

impl<F: FnMut(&AuditRequest, Vec<u8>) -> Vec<u8>> Endpoint for TamperingProvider<'_, F> {
    fn node(&self) -> NodeId {
        PROVIDER_NODE
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        let Ok((session, id, request)) = open_session_message::<AuditRequest>(&delivery.payload)
        else {
            return;
        };
        let body = (self.tamper)(&request, self.server.respond(&request));
        let _ = net.send(
            PROVIDER_NODE,
            delivery.from,
            seal_encoded_message(session, id, &body),
        );
    }

    fn on_tick(&mut self, _: &mut SimNet) -> Option<u64> {
        None
    }
}

/// A client on a lossless link to a [`TamperingProvider`].
pub(crate) fn tampering_client<'a, F>(
    server: AuditServer<'a>,
    tamper: F,
) -> AuditClient<SimNetTransport<'a>>
where
    F: FnMut(&AuditRequest, Vec<u8>) -> Vec<u8> + 'a,
{
    let provider = TamperingProvider { server, tamper };
    AuditClient::new(SimNetTransport::with_provider(
        provider,
        LinkConfig::default(),
    ))
}

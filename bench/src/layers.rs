//! The one file that names the repository's crates.
//!
//! Every type the workloads use is re-exported from here and every call the
//! driver makes into a layer goes through a function of this file, which
//! also records the call's span (`<layer>.<function>`).  When a later PR
//! deletes `AuditTransport::provider_store` or merges `AuditClient` with
//! `FleetAuditor` (ROADMAP items 1–2), re-pointing the benchmark is an edit
//! to this file; the workload definitions do not move.

use std::path::Path;

use rand::rngs::StdRng;

use crate::trace::Tracer;

pub use avm_attest::AttestVerdict;
pub use avm_compress::CompressionStats;
pub use avm_core::attest::{Attestor, LaunchPolicy};
pub use avm_core::audit::{AuditOutcome, AuditReport};
pub use avm_core::config::{AvmmOptions, ExecConfig};
pub use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
pub use avm_core::envelope::{Envelope, EnvelopeKind};
pub use avm_core::error::{CoreError, FaultReason};
pub use avm_core::events::{
    AckRecord, NdDetail, NdEventRecord, RecvRecord, SendRecord, SnapshotRecord,
};
pub use avm_core::fleet::{FleetConfig, FleetOutcome};
pub use avm_core::ondemand::AuditorBlobCache;
pub use avm_core::paraudit::ParallelReplayStats;
pub use avm_core::persist::{PersistConfig, PersistError, Provider, RecoveryReport};
pub use avm_core::recorder::{Avmm, AvmmStats, HostClock};
pub use avm_core::replay::{ReplayOutcome, Replayer};
pub use avm_core::runtime::Runtime;
pub use avm_core::snapshot::{SnapshotStore, StateTreeCache};
pub use avm_core::spotcheck::SpotCheckReport;
pub use avm_crypto::keys::{Identity, SignatureScheme, SigningKey, VerifyingKey};
pub use avm_crypto::parallel::PoolStats;
pub use avm_crypto::sha256::Digest;
pub use avm_db::{DbRequest, DbResponse};
pub use avm_log::{
    Acknowledgment, Authenticator, EntryKind, LogEntry, LogSource, TamperEvidentLog,
};
pub use avm_net::{LinkConfig, SimNet};
pub use avm_store::{DurabilityStats, FileStorage};
pub use avm_vm::devices::InputEvent;
pub use avm_vm::{GuestRegistry, Machine, StopCondition, VmExit, VmImage};
pub use avm_wire::audit::{AuditRequest, AuditResponse, SegmentAddress};
pub use avm_wire::{Decode, Encode};

/// The signature scheme of every workload (the paper's RSA-768).
pub const SCHEME: SignatureScheme = SignatureScheme::Rsa(768);

// ---------------------------------------------------------------------------
// crypto
// ---------------------------------------------------------------------------

pub fn generate_identity(rng: &mut StdRng, name: &str) -> Identity {
    Identity::generate(rng, name, SCHEME)
}

pub fn pool_stats() -> PoolStats {
    avm_crypto::parallel::global_pool_stats()
}

/// Lanes a parallel replay can really use: the pool's workers plus the
/// calling thread, which always takes a share.
pub fn parallel_lanes() -> usize {
    avm_crypto::parallel::global_pool().workers() + 1
}

pub fn sha256(data: &[u8]) -> Digest {
    avm_crypto::sha256::sha256(data)
}

/// Digest over a sequence of byte strings (a run's generated inputs).
pub fn digest_of<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h = avm_crypto::sha256::Sha256::new();
    for part in parts {
        h.update(&(part.len() as u64).to_le_bytes());
        h.update(part);
    }
    h.finalize().to_hex()
}

// ---------------------------------------------------------------------------
// vm
// ---------------------------------------------------------------------------

pub fn machine_from_image(image: &VmImage, registry: &GuestRegistry) -> Machine {
    Machine::from_image(image, registry).expect("benchmark image instantiates")
}

pub fn encode_guest_packet(dest: &str, body: &[u8]) -> Vec<u8> {
    avm_vm::packet::encode_guest_packet(dest, body)
}

pub fn assemble(source: &str) -> Vec<u8> {
    avm_vm::bytecode::assemble(source, 0).expect("benchmark guest assembles")
}

// ---------------------------------------------------------------------------
// game guest
// ---------------------------------------------------------------------------

pub const GAME_SERVER: &str = "server";

pub fn game_registry() -> GuestRegistry {
    avm_game::game_registry()
}

pub fn game_client_image(player: &str, cheat: Option<&str>) -> VmImage {
    let mut cfg = avm_game::ClientConfig::new(player, GAME_SERVER);
    if let Some(name) = cheat {
        let cheat = avm_game::cheats::cheat_by_name(name).expect("cheat in the catalogue");
        cfg = cfg.with_cheat(cheat.id);
    }
    avm_game::client_image(&cfg)
}

pub fn game_server_image(players: &[String]) -> VmImage {
    avm_game::server_image(&avm_game::ServerConfig::new(GAME_SERVER, players))
}

/// The four local inputs a game client understands, as `(code, value)`.
pub fn game_input(kind: u64, value: i64) -> InputEvent {
    let code = match kind % 4 {
        0 => avm_game::client::INPUT_MOVE_X,
        1 => avm_game::client::INPUT_MOVE_Y,
        2 => avm_game::client::INPUT_AIM,
        _ => avm_game::client::INPUT_FIRE,
    };
    InputEvent {
        device: 0,
        code,
        value,
    }
}

/// Frames a game client has rendered, read back from its kernel state.
pub fn game_frames_rendered(machine: &Machine) -> u64 {
    use avm_vm::GuestKernel;
    // NativeCpu state = [halted byte] ++ kernel state.
    let state = machine.save_cpu_state();
    let mut probe = avm_game::GameClient::new(avm_game::ClientConfig::new("probe", "probe"));
    probe
        .restore_state(&state[1..])
        .expect("game client state decodes");
    probe.frames_rendered()
}

// ---------------------------------------------------------------------------
// db guest
// ---------------------------------------------------------------------------

pub fn db_registry() -> GuestRegistry {
    avm_db::db_registry()
}

/// The database guest answering to `client`.
pub fn db_image(client: &str) -> VmImage {
    avm_db::db_image(&avm_db::server::DbConfig::new(client))
}

// ---------------------------------------------------------------------------
// recorder / runtime
// ---------------------------------------------------------------------------

pub fn new_avmm(
    name: &str,
    image: &VmImage,
    registry: &GuestRegistry,
    key: &SigningKey,
    options: AvmmOptions,
) -> Avmm {
    Avmm::new(name, image, registry, key.clone(), options).expect("benchmark avmm starts")
}

pub fn runtime_tick(tr: &mut Tracer, rt: &mut Runtime, dt_us: u64) {
    tr.span("recorder.runtime_tick", || rt.tick(dt_us))
        .expect("runtime tick");
}

pub fn avmm_deliver(tr: &mut Tracer, avmm: &mut Avmm, envelope: &Envelope) -> Option<Envelope> {
    tr.span("recorder.deliver", || avmm.deliver(envelope))
        .expect("honest envelope is accepted")
}

/// Runs one slice and returns the guest payloads it sent.
pub fn avmm_run_slice(
    tr: &mut Tracer,
    avmm: &mut Avmm,
    clock: &HostClock,
    max_steps: u64,
) -> Vec<Vec<u8>> {
    tr.span("recorder.run_slice", || avmm.run_slice(clock, max_steps))
        .expect("guest runs")
        .into_iter()
        .map(|m| m.envelope.payload)
        .collect()
}

pub fn avmm_inject_input(tr: &mut Tracer, avmm: &mut Avmm, event: InputEvent) {
    tr.span("recorder.inject_input", || avmm.inject_input(event));
}

pub fn avmm_take_snapshot(tr: &mut Tracer, avmm: &mut Avmm) -> u64 {
    tr.span("recorder.take_snapshot", || avmm.take_snapshot().id)
}

pub fn data_envelope(
    from: &str,
    to: &str,
    msg_id: u64,
    payload: Vec<u8>,
    key: &SigningKey,
) -> Envelope {
    Envelope::create(EnvelopeKind::Data, from, to, msg_id, payload, key, None)
}

// ---------------------------------------------------------------------------
// store / persist
// ---------------------------------------------------------------------------

pub type DurableProvider = Provider<FileStorage>;

fn open_storage(dir: &Path) -> FileStorage {
    FileStorage::open(dir).expect("benchmark scratch directory opens")
}

/// A durable provider on real files under `dir`, default `PersistConfig`.
pub fn provider_create(
    dir: &Path,
    name: &str,
    image: &VmImage,
    registry: &GuestRegistry,
    key: &SigningKey,
    options: AvmmOptions,
) -> DurableProvider {
    Provider::create(
        open_storage(dir),
        name,
        image,
        registry,
        key.clone(),
        options,
        PersistConfig::default(),
    )
    .expect("durable provider starts")
}

pub fn provider_recover(
    tr: &mut Tracer,
    dir: &Path,
    name: &str,
    image: &VmImage,
    registry: &GuestRegistry,
    key: &SigningKey,
    options: AvmmOptions,
) -> Result<(DurableProvider, RecoveryReport), PersistError> {
    tr.span("store.recover", || {
        Provider::recover(
            open_storage(dir),
            name,
            image,
            registry,
            key.clone(),
            options,
            PersistConfig::default(),
        )
    })
}

pub fn provider_deliver(tr: &mut Tracer, p: &mut DurableProvider, envelope: &Envelope) {
    tr.span("store.provider_deliver", || p.deliver(envelope))
        .expect("honest envelope is accepted and persisted");
}

pub fn provider_run_slice(
    tr: &mut Tracer,
    p: &mut DurableProvider,
    clock: &HostClock,
    max_steps: u64,
) -> Vec<Vec<u8>> {
    tr.span("store.provider_run_slice", || p.run_slice(clock, max_steps))
        .expect("guest runs and its log persists")
        .into_iter()
        .map(|m| m.envelope.payload)
        .collect()
}

pub fn provider_take_snapshot(tr: &mut Tracer, p: &mut DurableProvider) -> u64 {
    tr.span("store.provider_take_snapshot", || p.take_snapshot())
        .expect("snapshot persists")
}

/// Bytes of every file under `dir` (what recovery has to read).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// log
// ---------------------------------------------------------------------------

/// `log` rebuilt with the SEND entry at `seq` carrying a forged payload.
/// Re-appending keeps the hash chain intact, so the forgery surfaces as a
/// replay divergence, not as a broken chain (the §2.2 cheat a spot check
/// exists to catch).
pub fn forge_send(log: &TamperEvidentLog, seq: u64, dest: &str) -> TamperEvidentLog {
    let mut rebuilt = TamperEvidentLog::new();
    for e in log.entries() {
        let content = if e.seq == seq {
            let mut rec = SendRecord::decode_exact(&e.content).expect("SEND entry decodes");
            rec.payload = encode_guest_packet(dest, b"forged");
            rec.encode_to_vec()
        } else {
            e.content.clone()
        };
        rebuilt.append(e.kind, content);
    }
    rebuilt
}

/// Sequence numbers of the SEND entries strictly between the SNAPSHOT
/// entries of snapshots `start` and `start + 1`.
pub fn send_seqs_in_chunk(log: &TamperEvidentLog, start: u64) -> Vec<u64> {
    let mut inside = false;
    let mut out = Vec::new();
    for e in log.entries() {
        match e.kind {
            EntryKind::Snapshot => {
                let id = SnapshotRecord::decode_exact(&e.content).map(|r| r.snapshot_id);
                match id {
                    Ok(id) if id == start => inside = true,
                    Ok(id) if id == start + 1 => break,
                    _ => {}
                }
            }
            EntryKind::Send if inside => out.push(e.seq),
            _ => {}
        }
    }
    out
}

/// The authenticators `machine` handed out, as its peers hold them: every
/// ACK entry a peer logged for a message it sent to `machine` carries the
/// authenticator of `machine`'s RECV entry (paper §4.3).
pub fn collect_authenticators(
    machine: &str,
    peer_logs: &[&TamperEvidentLog],
) -> Vec<Authenticator> {
    let mut out = Vec::new();
    for log in peer_logs {
        let mut dest_of_send = std::collections::HashMap::new();
        for entry in log.entries() {
            match entry.kind {
                EntryKind::Send => {
                    if let Ok(rec) = SendRecord::decode_exact(&entry.content) {
                        dest_of_send.insert(entry.seq, rec.dest);
                    }
                }
                EntryKind::Ack => {
                    let Ok(rec) = AckRecord::decode_exact(&entry.content) else {
                        continue;
                    };
                    if dest_of_send.get(&rec.send_seq).map(String::as_str) != Some(machine) {
                        continue;
                    }
                    if let Ok(ack) = Acknowledgment::decode_exact(&rec.ack_bytes) {
                        out.extend(ack.authenticator);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// `(source, payload)` of the first `n` messages `log`'s machine received.
pub fn received_packets(log: &TamperEvidentLog, n: usize) -> Vec<(String, Vec<u8>)> {
    log.entries()
        .iter()
        .filter(|e| e.kind == EntryKind::Recv)
        .filter_map(|e| RecvRecord::decode_exact(&e.content).ok())
        .map(|r| (r.source, r.payload))
        .take(n)
        .collect()
}

/// Guest step of the last positioned event in `entries` (what a replay of
/// them executes up to).
pub fn last_event_step(entries: &[LogEntry]) -> u64 {
    entries
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            EntryKind::Send => SendRecord::decode_exact(&e.content).ok().map(|r| r.step),
            EntryKind::NdEvent => NdEventRecord::decode_exact(&e.content).ok().map(|r| r.step),
            EntryKind::Snapshot => SnapshotRecord::decode_exact(&e.content)
                .ok()
                .map(|r| r.step),
            _ => None,
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// endpoint
// ---------------------------------------------------------------------------

pub type SimClient<'a> = AuditClient<SimNetTransport<'a>>;

/// An auditor connected to `server` over the default simulated LAN link.
pub fn sim_client(server: AuditServer<'_>) -> SimClient<'_> {
    AuditClient::new(SimNetTransport::new(server, LinkConfig::default()))
}

pub fn sim_client_with_cache(server: AuditServer<'_>, cache: AuditorBlobCache) -> SimClient<'_> {
    AuditClient::with_cache(SimNetTransport::new(server, LinkConfig::default()), cache)
}

/// Full audit of a machine's whole log over the wire.
pub fn audit_whole_log(
    tr: &mut Tracer,
    client: &mut SimClient<'_>,
    machine: &str,
    authenticators: &[Authenticator],
    key: &VerifyingKey,
    image: &VmImage,
    registry: &GuestRegistry,
) -> Result<AuditReport, CoreError> {
    tr.span("endpoint.audit_log", || {
        client.audit_log(machine, 1, 0, authenticators, key, image, registry)
    })
}

/// An auditor's blob cache holding everything `image` alone determines.
pub fn cache_seeded_from(image: &VmImage, registry: &GuestRegistry) -> AuditorBlobCache {
    let mut cache = AuditorBlobCache::new();
    cache.seed_from_machine(&machine_from_image(image, registry));
    cache
}

pub fn spot_check(
    tr: &mut Tracer,
    client: &mut SimClient<'_>,
    start_snapshot: u64,
    image: &VmImage,
    registry: &GuestRegistry,
) -> Result<SpotCheckReport, CoreError> {
    tr.span("endpoint.spot_check", || {
        client.spot_check(start_snapshot, 1, image, registry)
    })
}

pub fn spot_check_on_demand(
    tr: &mut Tracer,
    client: &mut SimClient<'_>,
    start_snapshot: u64,
    image: &VmImage,
    registry: &GuestRegistry,
) -> Result<SpotCheckReport, CoreError> {
    tr.span("endpoint.spot_check_on_demand", || {
        client.spot_check_on_demand(start_snapshot, 1, image, registry)
    })
}

// ---------------------------------------------------------------------------
// fleet / attest
// ---------------------------------------------------------------------------

pub fn attestor_for(avmm: &Avmm, booted: &VmImage) -> Attestor {
    Attestor::for_avmm(avmm, booted).expect("launch envelope builds")
}

/// What the auditors expect to have been launched.
pub fn launch_policy(image: &VmImage, name: &str, key: &VerifyingKey) -> LaunchPolicy {
    LaunchPolicy::new(image, name, SCHEME, key.clone())
}

/// One wave of attest-then-audit sessions: `auditors` on-demand auditors,
/// `inter_arrival_us` apart, all spot-checking chunk `start_snapshot` on
/// one provider node serving `avmm`'s log and snapshots.
#[allow(clippy::too_many_arguments)]
pub fn attested_fleet_wave(
    tr: &mut Tracer,
    avmm: &Avmm,
    image: &VmImage,
    registry: &GuestRegistry,
    start_snapshot: u64,
    auditors: usize,
    inter_arrival_us: u64,
    attestor: &Attestor,
    policy: &LaunchPolicy,
) -> FleetOutcome {
    let config = FleetConfig {
        auditors,
        start_snapshot,
        chunk: 1,
        inter_arrival_us,
        ..FleetConfig::default()
    };
    tr.span("fleet.run_attested_fleet", || {
        avm_core::fleet::run_attested_fleet(
            avmm.log(),
            avmm.snapshots(),
            image,
            registry,
            &config,
            attestor,
            policy,
        )
    })
}

// ---------------------------------------------------------------------------
// host
// ---------------------------------------------------------------------------

/// Creates (emptying it first) a scratch directory under the benchmark's
/// own `out/` directory.
pub fn scratch_dir(out_dir: &Path, name: &str) -> std::path::PathBuf {
    let dir = out_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark scratch directory is writable");
    dir
}

// ---------------------------------------------------------------------------
// layer replays: each layer's public functions, one call at a time
// ---------------------------------------------------------------------------
//
// `Avmm::deliver`, `Provider::deliver` and `AuditClient::spot_check` hide
// the layers beneath them, so the traced run re-drives those layers on the
// inputs the workload produced.  Each function below is one such call; it
// returns what the call produced and how long it took.

pub fn unit_sign(tr: &mut Tracer, key: &SigningKey, digest: &Digest) -> (Vec<u8>, u64) {
    tr.timed("crypto.sign_digest", || key.sign_digest(digest))
}

pub fn unit_verify(tr: &mut Tracer, key: &VerifyingKey, digest: &Digest, sig: &[u8]) -> u64 {
    tr.timed("crypto.verify_digest", || key.verify_digest(digest, sig))
        .1
}

/// SHA-256 of `n` chunk-sized inputs, one call each.
pub fn unit_sha256_chunks(tr: &mut Tracer, n: usize) -> u64 {
    let chunk = [0x5au8; avm_vm::CHUNK_SIZE];
    tr.timed("crypto.sha256_chunks", || {
        for _ in 0..n {
            std::hint::black_box(avm_crypto::sha256::sha256(std::hint::black_box(&chunk)));
        }
    })
    .1
}

/// Updates `updates` leaves of a Merkle tree with `leaves` leaves.
pub fn unit_merkle_update(tr: &mut Tracer, leaves: usize, updates: usize) -> u64 {
    let mut tree = avm_crypto::merkle::MerkleTree::from_leaf_hashes(vec![Digest::ZERO; leaves]);
    let stride = (leaves / updates.max(1)).max(1);
    let batch: Vec<(usize, Digest)> = (0..updates)
        .map(|i| ((i * stride) % leaves, sha256(&i.to_le_bytes())))
        .collect();
    tr.timed("crypto.merkle_update", || tree.update_leaf_hashes(&batch))
        .1
}

/// Leaves of `machine`'s state tree (3 header leaves, chunks, blocks).
pub fn state_tree_leaves(machine: &Machine) -> usize {
    3 + machine.memory().chunk_count() + machine.devices().disk.block_count()
}

/// Re-appends every entry of `entries` to a fresh log.
pub fn unit_log_append(tr: &mut Tracer, entries: &[LogEntry]) -> u64 {
    let mut log = TamperEvidentLog::new();
    tr.timed("log.append", || {
        for e in entries {
            log.append(e.kind, e.content.clone());
        }
    })
    .1
}

/// Re-appends the first `n` entries with an authenticator each.
pub fn unit_log_append_authenticated(
    tr: &mut Tracer,
    entries: &[LogEntry],
    n: usize,
    key: &SigningKey,
) -> u64 {
    let mut log = TamperEvidentLog::new();
    tr.timed("log.append_authenticated", || {
        for e in entries.iter().take(n) {
            log.append_authenticated(e.kind, e.content.clone(), key);
        }
    })
    .1
}

pub fn unit_log_verify(
    tr: &mut Tracer,
    entries: &[LogEntry],
    authenticators: &[Authenticator],
    key: &VerifyingKey,
) -> u64 {
    let (result, ns) = tr.timed("log.verify_segment", || {
        avm_log::verify_segment(&Digest::ZERO, entries, authenticators, key)
    });
    result.expect("recorded log verifies");
    ns
}

pub fn unit_log_segment(tr: &mut Tracer, log: &TamperEvidentLog) -> u64 {
    tr.timed("log.segment", || log.segment(1, log.len() as u64))
        .1
}

pub fn unit_refresh(tr: &mut Tracer, cache: &mut StateTreeCache, machine: &Machine) -> u64 {
    tr.timed("snapshot.refresh", || cache.refresh(machine)).1
}

pub fn unit_capture(
    tr: &mut Tracer,
    cache: &mut StateTreeCache,
    machine: &mut Machine,
    id: u64,
    full_memory: bool,
) -> (avm_core::snapshot::Snapshot, u64) {
    tr.timed("snapshot.capture", || {
        avm_core::snapshot::capture_with_cache(machine, cache, id, full_memory)
    })
}

pub fn unit_push(
    tr: &mut Tracer,
    store: &mut SnapshotStore,
    snapshot: avm_core::snapshot::Snapshot,
) -> u64 {
    tr.timed("snapshot.push", || store.push(snapshot)).1
}

pub fn unit_materialize(
    tr: &mut Tracer,
    store: &SnapshotStore,
    id: u64,
    image: &VmImage,
    registry: &GuestRegistry,
) -> (Machine, u64) {
    let (machine, ns) = tr.timed("snapshot.materialize", || {
        store.materialize(id, image, registry)
    });
    (machine.expect("recorded snapshot materializes"), ns)
}

pub fn unit_transfer_stream(tr: &mut Tracer, store: &SnapshotStore, id: u64) -> (Vec<u8>, u64) {
    tr.timed("snapshot.transfer_stream", || {
        store.transfer_stream_upto(id)
    })
}

pub fn unit_compress_measure(tr: &mut Tracer, data: &[u8]) -> u64 {
    tr.timed("compress.measure", || {
        CompressionStats::measure(data, avm_core::spotcheck::TRANSFER_COMPRESSION)
    })
    .1
}

/// The hypothetical full-dump pricing an on-demand check performs.
pub fn unit_price_full(tr: &mut Tracer, store: &SnapshotStore, id: u64) -> u64 {
    tr.timed("ondemand.price_full", || {
        store.transfer_cost_upto(id, avm_core::spotcheck::TRANSFER_COMPRESSION)
    })
    .1
}

pub fn unit_chain_manifest(tr: &mut Tracer, store: &SnapshotStore, id: u64) -> u64 {
    let (manifest, ns) = tr.timed("ondemand.chain_manifest", || store.chain_manifest_upto(id));
    manifest.expect("recorded snapshot has a manifest");
    ns
}

/// Stages snapshot `id` for on-demand replay (what an on-demand audit does
/// after fetching the manifest).
pub fn unit_replayer_on_demand(
    tr: &mut Tracer,
    image: &VmImage,
    registry: &GuestRegistry,
    store: &SnapshotStore,
    id: u64,
    cache: &AuditorBlobCache,
) -> (Replayer, u64) {
    let (result, ns) = tr.timed("ondemand.materialize", || {
        Replayer::from_snapshot_on_demand(image, registry, store, id, cache)
    });
    (result.expect("recorded snapshot stages").0, ns)
}

/// Digests of the chunks and blocks `machine` faulted in while replaying
/// from snapshot `id` — what the settle-time blob exchange asks for.
pub fn faulted_digests(machine: &Machine, store: &SnapshotStore, id: u64) -> Vec<Digest> {
    let manifest = store
        .chain_manifest_upto(id)
        .expect("recorded snapshot has a manifest");
    let find = |refs: &[(u32, Digest)], index: usize| {
        refs.iter()
            .find(|(i, _)| *i as usize == index)
            .map(|(_, d)| *d)
    };
    let chunks = machine
        .memory()
        .faulted_chunks()
        .iter()
        .filter_map(|&i| find(&manifest.mem_refs, i));
    let blocks = machine
        .devices()
        .disk
        .faulted_blocks()
        .iter()
        .filter_map(|&i| find(&manifest.disk_refs, i));
    chunks.chain(blocks).collect()
}

/// Fetches `needed` into a copy of `cache` straight from the store.
pub fn unit_fetch_blobs(
    tr: &mut Tracer,
    store: &SnapshotStore,
    needed: &[Digest],
    cache: &AuditorBlobCache,
) -> u64 {
    let mut cache = cache.clone();
    let (result, ns) = tr.timed("ondemand.fetch_blobs", || {
        avm_core::ondemand::fetch_blobs(
            &mut cache,
            store,
            needed,
            avm_wire::DEFAULT_BLOB_BATCH,
            avm_core::spotcheck::TRANSFER_COMPRESSION,
        )
    });
    result.expect("the store serves its own blobs");
    ns
}

/// Replays `entries` on `machine`-state reconstructed by `replayer`.
pub fn unit_replay(
    tr: &mut Tracer,
    replayer: &mut Replayer,
    entries: &[LogEntry],
) -> (ReplayOutcome, u64) {
    tr.timed("replay.replay", || replayer.replay(entries))
}

pub fn replayer_from_image(image: &VmImage, registry: &GuestRegistry) -> Replayer {
    Replayer::from_image(image, registry).expect("benchmark image instantiates")
}

pub fn replayer_from_snapshot(
    image: &VmImage,
    registry: &GuestRegistry,
    store: &SnapshotStore,
    id: u64,
) -> Replayer {
    Replayer::from_snapshot(image, registry, store, id).expect("recorded snapshot materializes")
}

/// Which request a layer replay sends to the provider endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    WholeLog,
    LogChunk,
    Manifest,
    Sections,
    Attest,
}

pub fn audit_request(kind: RequestKind, start_snapshot: u64) -> AuditRequest {
    match kind {
        RequestKind::WholeLog => AuditRequest::LogSegment(SegmentAddress::Seq {
            from_seq: 1,
            to_seq: 0,
        }),
        RequestKind::LogChunk => AuditRequest::LogSegment(SegmentAddress::Chunk {
            start_snapshot,
            chunk: 1,
        }),
        RequestKind::Manifest => AuditRequest::Manifest {
            snapshot_id: start_snapshot,
        },
        RequestKind::Sections => AuditRequest::Sections {
            upto_id: start_snapshot,
        },
        RequestKind::Attest => AuditRequest::Attest(attest_challenge(start_snapshot, 1_000)),
    }
}

pub fn blobs_request(digests: &[Digest]) -> AuditRequest {
    AuditRequest::Blobs(avm_wire::BlobRequest {
        digests: digests.iter().map(|d| d.0).collect(),
    })
}

pub fn attest_challenge(session: u64, issued_at_us: u64) -> avm_wire::attest::AttestChallenge {
    avm_wire::attest::AttestChallenge {
        nonce: avm_core::attest::challenge_nonce(session, issued_at_us),
        issued_at_us,
    }
}

pub fn unit_handle(
    tr: &mut Tracer,
    name: &'static str,
    server: &AuditServer<'_>,
    request: &AuditRequest,
) -> (AuditResponse, u64) {
    tr.timed(name, || server.handle(request))
}

pub fn unit_seal(tr: &mut Tracer, response: &AuditResponse) -> (Vec<u8>, u64) {
    tr.timed("wire.seal_message", || {
        avm_wire::audit::seal_message(1, response)
    })
}

pub fn unit_open(tr: &mut Tracer, packet: &[u8]) -> u64 {
    let (opened, ns) = tr.timed("wire.open_message", || {
        avm_wire::audit::open_message::<AuditResponse>(packet)
    });
    opened.expect("sealed response opens");
    ns
}

pub fn unit_fetch_log_chunk(
    tr: &mut Tracer,
    client: &mut SimClient<'_>,
    c: u64,
) -> (Vec<LogEntry>, u64) {
    let (entries, ns) = tr.timed("endpoint.fetch_log_chunk", || client.fetch_log_chunk(c, 1));
    (entries.expect("provider serves the chunk"), ns)
}

/// The k-chunk starting at snapshot `c`, downloaded through `client`.
pub fn fetch_log_chunk_k(client: &mut SimClient<'_>, c: u64, k: u64) -> Vec<LogEntry> {
    client
        .fetch_log_chunk(c, k)
        .expect("provider serves the chunk")
}

pub fn unit_fetch_whole_log(tr: &mut Tracer, client: &mut SimClient<'_>) -> (Vec<LogEntry>, u64) {
    let (segment, ns) = tr.timed("endpoint.fetch_log_segment", || {
        client.fetch_log_segment(1, 0)
    });
    (segment.expect("provider serves the log").1, ns)
}

pub fn unit_fetch_sections(tr: &mut Tracer, client: &mut SimClient<'_>, c: u64) -> (Vec<u8>, u64) {
    let (stream, ns) = tr.timed("endpoint.fetch_sections", || client.fetch_sections(c));
    (stream.expect("provider serves the sections"), ns)
}

pub fn unit_fetch_manifest(tr: &mut Tracer, client: &mut SimClient<'_>, c: u64) -> u64 {
    let (manifest, ns) = tr.timed("endpoint.fetch_manifest", || client.fetch_manifest(c));
    manifest.expect("provider serves the manifest");
    ns
}

/// Pushes `n` packets of `size` bytes through a fresh simulated link.
pub fn unit_simnet(tr: &mut Tracer, n: usize, size: usize) -> u64 {
    use avm_net::NodeId;
    let mut net = SimNet::new(LinkConfig::default());
    let payload = vec![0u8; size];
    tr.timed("net.send_and_deliver", || {
        for _ in 0..n {
            net.send(NodeId(1), NodeId(2), payload.clone());
            let due = net.next_delivery_at().expect("packet in flight");
            std::hint::black_box(net.advance_to(due));
        }
    })
    .1
}

/// Appends `entries` to fresh segment files under `dir`, sealing (and so
/// fsyncing) at the default interval.  A seal is one small append plus the
/// fsync, so its time stands for the sync's.  Returns (append ns, sync ns,
/// syncs).
pub fn unit_segment_store(
    tr: &mut Tracer,
    dir: &Path,
    entries: &[LogEntry],
    key: &SigningKey,
) -> (u64, u64, u64) {
    let mut segments =
        avm_store::SegmentStore::create(open_storage(dir), avm_store::SegmentConfig::default())
            .expect("segment store starts");
    let (mut append_ns, mut sync_ns, mut syncs) = (0, 0, 0);
    let mut prev = Digest::ZERO;
    for entry in entries {
        append_ns += tr
            .timed("store.append_entry", || segments.append_entry(entry))
            .1;
        if segments.needs_seal() {
            let auth = Authenticator::create(key, entry, prev);
            let (sealed, ns) = tr.timed("store.seal_sync", || segments.seal(&auth));
            sealed.expect("seal matches the chain head");
            sync_ns += ns;
            syncs += 1;
        }
        prev = entry.hash;
    }
    (append_ns, sync_ns, syncs)
}

/// Puts every pooled blob of `store` into a fresh arena under `dir`.
/// Returns (put ns, blobs).
pub fn unit_arena_put(tr: &mut Tracer, dir: &Path, store: &SnapshotStore) -> (u64, u64) {
    let mut arenas =
        avm_store::ArenaStore::create(open_storage(dir), avm_store::ArenaConfig::default())
            .expect("arena store starts");
    let digests = store.pooled_digests();
    let (_, ns) = tr.timed("store.arena_put", || {
        for d in &digests {
            let payload = store.payload(d).expect("pooled blob");
            arenas.put(*d, payload).expect("arena append");
        }
    });
    arenas.flush().expect("arena fsync");
    (ns, digests.len() as u64)
}

/// Scans the segment and arena files under `dir`, as recovery does first.
pub fn unit_scan(tr: &mut Tracer, dir: &Path, key: &VerifyingKey) -> u64 {
    let storage = open_storage(dir);
    tr.timed("store.scan", || {
        avm_store::scan_segments(&storage, Some(key)).expect("clean segments scan");
        avm_store::scan_arenas(&storage).expect("clean arenas scan");
    })
    .1
}

/// One k-chunk replayed on `workers` lanes.
pub fn unit_replay_parallel(
    tr: &mut Tracer,
    entries: &[LogEntry],
    image: &VmImage,
    registry: &GuestRegistry,
    store: &SnapshotStore,
    start_snapshot: u64,
    workers: usize,
) -> (ParallelReplayStats, bool, u64) {
    let (outcome, ns) = tr.timed("paraudit.replay_chunk_parallel", || {
        avm_core::paraudit::replay_chunk_parallel(
            entries,
            image,
            registry,
            store,
            start_snapshot,
            workers,
        )
    });
    let outcome = outcome.expect("recorded chunk replays");
    (outcome.stats, outcome.consistent, ns)
}

pub fn unit_measure_image(tr: &mut Tracer, image: &VmImage) -> u64 {
    tr.timed("attest.measure_image", || {
        avm_core::attest::measure_image(image)
    })
    .1
}

pub fn unit_build_envelope(tr: &mut Tracer, avmm: &Avmm, image: &VmImage) -> u64 {
    let (envelope, ns) = tr.timed("attest.build_envelope", || {
        avm_core::attest::build_envelope(avmm, image)
    });
    envelope.expect("launch envelope builds");
    ns
}

/// One quote and its verification.  Returns (quote ns, verify ns, quote
/// bytes, verdict).
pub fn unit_quote(
    tr: &mut Tracer,
    attestor: &Attestor,
    policy: &LaunchPolicy,
    session: u64,
) -> (u64, u64, usize, AttestVerdict) {
    let challenge = attest_challenge(session, 1_000);
    let (quote, quote_ns) = tr.timed("attest.quote", || attestor.quote(&challenge));
    let ((verdict, _), verify_ns) = tr.timed("attest.verify_quote", || {
        policy.verify(&quote, &challenge, 1_200)
    });
    (quote_ns, verify_ns, quote.encode_to_vec().len(), verdict)
}

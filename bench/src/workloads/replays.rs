//! Layer replays: the per-layer numbers of a traced run.
//!
//! `Avmm::deliver`, `Provider::deliver` and `AuditClient::spot_check` hide
//! the layers beneath them.  After the shared phases, a traced run
//! therefore re-drives each lower layer's public functions on the inputs
//! the workload itself produced — the recorded entries, the machine at
//! each snapshot point, the requests an audit sends — timing each from
//! outside.  Counts come from the crates' own `*Stats` and repeat exactly;
//! a `_share` is count × unit time ÷ the phase's sample.

use std::path::Path;

use crate::barehost::{BareHost, BareScript};
use crate::layers::{
    self, AuditServer, AuditorBlobCache, Authenticator, Avmm, GuestRegistry, LogEntry, RequestKind,
    SigningKey, SnapshotStore, SpotCheckReport, TamperEvidentLog, VmImage,
};
use crate::metrics::{ratio, Metrics};
use crate::timing::Sampler;
use crate::trace::Tracer;

/// At most this many chunks are re-driven per audit-side replay.
const SAMPLED_CHUNKS: usize = 12;

/// An evenly spaced sample of `provider`'s `n` chunks, as audit targets.
pub fn sample_chunks<'a, 'b>(provider: &'a Audited<'b>, n: usize) -> Vec<(&'a Audited<'b>, u64)> {
    let take = n.clamp(1, SAMPLED_CHUNKS);
    (0..take)
        .map(|i| (provider, (i * n / take) as u64))
        .collect()
}

fn mean(total: u64, n: usize) -> f64 {
    ratio(total as f64, n as f64)
}

/// Counts of the recorded execution, from the crates' own counters.
/// `stats[i]` are host `i`'s counters as the recording left them (a
/// recovered provider re-derives only some of them from its log).
pub fn recording_counts(avmms: &[&Avmm], stats: &[layers::AvmmStats], l: &mut Metrics) {
    for (a, s) in avmms.iter().zip(stats) {
        let store = a.snapshots();
        l.add("vm.steps", a.machine().step_count() as f64);
        l.add("crypto.sign_count", s.signatures_made as f64);
        l.add("crypto.verify_count", s.signatures_verified as f64);
        l.add("log.entries", a.log().len() as f64);
        l.add("log.bytes", a.log_bytes() as f64);
        l.add("recorder.packets_in", s.packets_in as f64);
        l.add("recorder.packets_out", s.packets_out as f64);
        l.add("recorder.snapshots", s.snapshots_taken as f64);
        l.add(
            "snapshot.logical_bytes",
            store.logical_payload_bytes() as f64,
        );
        l.add("snapshot.stored_bytes", store.stored_payload_bytes() as f64);
        if !store.is_empty() {
            let captured: usize = store.all().iter().map(|s| s.chunk_count()).sum();
            l.set(
                "vm.dirty_chunks_per_snapshot",
                mean(captured as u64, store.len()),
            );
        }
    }
    l.set(
        "snapshot.dedup_ratio",
        ratio(
            l.get("snapshot.logical_bytes"),
            l.get("snapshot.stored_bytes"),
        ),
    );
}

/// The interpreter's own speed, from the bare run.
pub fn vm_units(bare: &Sampler, exits: u64, l: &mut Metrics) {
    l.set(
        "vm.run_ns_per_kstep",
        ratio(bare.total_ns() as f64 * 1e3, l.get("vm.steps")),
    );
    l.set("vm.exits", exits as f64);
}

/// Signing, verifying and hashing unit times, and signing's share of the
/// record phase.
pub fn crypto_units(
    tr: &mut Tracer,
    key: &SigningKey,
    tree_leaves: usize,
    record_ns: u64,
    l: &mut Metrics,
) {
    let digest = layers::sha256(b"benchmark digest");
    let (signature, _) = layers::unit_sign(tr, key, &digest);
    let sign_ns = (0..32)
        .map(|_| layers::unit_sign(tr, key, &digest).1)
        .min()
        .expect("32 signatures");
    let verifier = key.verifying_key();
    let verify_ns = (0..32)
        .map(|_| layers::unit_verify(tr, &verifier, &digest, &signature))
        .min()
        .expect("32 verifications");
    l.set("crypto.sign_ns", sign_ns as f64);
    l.set("crypto.verify_ns", verify_ns as f64);
    l.set(
        "crypto.sign_share_record",
        ratio(
            l.get("crypto.sign_count") * sign_ns as f64,
            record_ns as f64,
        ),
    );
    const HASHES: usize = 4096;
    let hash_ns = (0..5)
        .map(|_| layers::unit_sha256_chunks(tr, HASHES))
        .min()
        .expect("five batches");
    l.set("crypto.sha256_chunk_ns", mean(hash_ns, HASHES));
    const UPDATES: usize = 64;
    let merkle_ns = (0..5)
        .map(|_| layers::unit_merkle_update(tr, tree_leaves, UPDATES))
        .min()
        .expect("five batches");
    l.set("crypto.merkle_update_ns_per_leaf", mean(merkle_ns, UPDATES));
}

/// The worker pool's work over the whole run.
pub fn pool_units(before: &layers::PoolStats, l: &mut Metrics) {
    let delta = layers::pool_stats().since(before);
    l.set("crypto.pool_tasks", delta.tasks as f64);
    l.set("crypto.pool_hash_jobs", delta.jobs as f64);
}

/// Log append, verify and segment unit times over one recorded log.
pub fn log_units(
    tr: &mut Tracer,
    log: &TamperEvidentLog,
    authenticators: &[Authenticator],
    key: &SigningKey,
    l: &mut Metrics,
) {
    let entries = log.entries();
    let n = entries.len();
    l.set(
        "log.append_ns",
        mean(layers::unit_log_append(tr, entries), n),
    );
    let authed = n.min(64);
    l.set(
        "log.append_auth_ns",
        mean(
            layers::unit_log_append_authenticated(tr, entries, authed, key),
            authed,
        ),
    );
    l.set(
        "log.verify_ns_per_entry",
        mean(
            layers::unit_log_verify(tr, entries, authenticators, &key.verifying_key()),
            n,
        ),
    );
    l.set(
        "log.segment_ns_per_entry",
        mean(layers::unit_log_segment(tr, log), n),
    );
}

/// Recorder unit times from the spans of one traced in-memory recording:
/// `spans_before..` are the spans that recording added.
pub fn recorder_units(
    tr: &Tracer,
    spans_before: usize,
    avmm: &Avmm,
    record_ns: u64,
    l: &mut Metrics,
) {
    let (mut deliver, mut slice, mut snap) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    for s in &tr.spans()[spans_before..] {
        let slot = match s.name {
            "recorder.deliver" => &mut deliver,
            "recorder.run_slice" => &mut slice,
            "recorder.take_snapshot" => &mut snap,
            _ => continue,
        };
        slot.0 += s.duration_ns();
        slot.1 += 1;
    }
    let deliver_ns = ratio(deliver.0 as f64, deliver.1 as f64);
    let snapshot_ns = ratio(snap.0 as f64, snap.1 as f64);
    l.set("recorder.deliver_ns", deliver_ns);
    l.set(
        "recorder.run_slice_ns_per_kstep",
        ratio(slice.0 as f64 * 1e3, avmm.machine().step_count() as f64),
    );
    l.set("recorder.take_snapshot_ns", snapshot_ns);
    l.set(
        "recorder.deliver_share_record",
        ratio(l.get("recorder.packets_in") * deliver_ns, record_ns as f64),
    );
    l.set(
        "recorder.snapshot_share_record",
        ratio(l.get("recorder.snapshots") * snapshot_ns, record_ns as f64),
    );
}

/// The write side of `snapshot`: the guest is re-run bare to every
/// snapshot point of the recording and refreshed, captured and pushed
/// there.
pub fn snapshot_write_units(
    tr: &mut Tracer,
    avmm: &Avmm,
    image: &VmImage,
    registry: &GuestRegistry,
    l: &mut Metrics,
) {
    let points: Vec<(usize, u64)> = avmm
        .log()
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == layers::EntryKind::Snapshot)
        .map(|(i, e)| (i, layers::last_event_step(std::slice::from_ref(e))))
        .collect();
    if points.is_empty() {
        return;
    }
    let script = BareScript::from_log(avmm.log().entries(), &points);
    let mut host = BareHost::new(layers::machine_from_image(image, registry), &script);
    let full_memory = avmm.options().full_memory_snapshots;
    let mut cache = layers::StateTreeCache::new();
    let mut store = SnapshotStore::new();
    let (mut refresh, mut capture, mut push) = (0, 0, 0);
    for id in 0..points.len() {
        host.run_block();
        refresh += layers::unit_refresh(tr, &mut cache, host.machine());
        let (snapshot, ns) =
            layers::unit_capture(tr, &mut cache, host.machine_mut(), id as u64, full_memory);
        capture += ns;
        push += layers::unit_push(tr, &mut store, snapshot);
    }
    l.set("snapshot.refresh_ns", mean(refresh, points.len()));
    l.set("snapshot.capture_ns", mean(capture, points.len()));
    l.set("snapshot.push_ns", mean(push, points.len()));
}

/// `net`: the simulated link's own host cost per packet.
pub fn net_units(tr: &mut Tracer, packet_bytes: usize, l: &mut Metrics) {
    const PACKETS: usize = 2000;
    l.set(
        "net.host_ns_per_packet",
        mean(
            layers::unit_simnet(tr, PACKETS, packet_bytes.max(1)),
            PACKETS,
        ),
    );
}

/// What the audits of one pass reported.
#[derive(Default)]
pub struct AuditTotals {
    pub audits: u64,
    pub round_trips: u64,
    pub retransmissions: u64,
    pub wire_bytes: u64,
    pub sim_us: u64,
    pub entries: u64,
    pub steps: u64,
    pub blobs_fetched: u64,
    pub cache_hits: u64,
    pub faulted: u64,
    pub staged: u64,
}

impl AuditTotals {
    pub fn add_report(&mut self, r: &SpotCheckReport) {
        self.audits += 1;
        self.round_trips += r.transport.round_trips;
        self.retransmissions += r.transport.retransmissions;
        self.wire_bytes += r.transport.wire_bytes();
        self.sim_us += r.transport.elapsed_micros;
        self.entries += r.entries_replayed;
        self.steps += r.steps_replayed;
        if let Some(cost) = &r.on_demand {
            let faulted = cost.chunks_faulted + cost.blocks_faulted;
            self.blobs_fetched += cost.fetched.len() as u64;
            self.cache_hits += cost.cache_hits;
            self.faulted += faulted;
            self.staged += faulted + cost.untouched_staged;
        }
    }

    /// Counts of one audit pass.
    pub fn report(&self, l: &mut Metrics) {
        l.set("endpoint.round_trips", self.round_trips as f64);
        l.set(
            "endpoint.requests",
            (self.round_trips + self.retransmissions) as f64,
        );
        l.set("wire.frames", 2.0 * self.round_trips as f64);
        l.set("wire.bytes", self.wire_bytes as f64);
        l.add("net.packets", 2.0 * self.round_trips as f64);
        l.set("net.retransmissions", self.retransmissions as f64);
        l.set(
            "net.sim_us_per_audit",
            ratio(self.sim_us as f64, self.audits as f64),
        );
        l.set("replay.entries", self.entries as f64);
        l.set("replay.steps", self.steps as f64);
        l.set("ondemand.blobs_fetched", self.blobs_fetched as f64);
        l.set("ondemand.cache_hits", self.cache_hits as f64);
        l.set("ondemand.chunks_faulted", self.faulted as f64);
        l.set("ondemand.staged", self.staged as f64);
        l.set(
            "ondemand.useful_ratio",
            ratio(self.faulted as f64, self.staged as f64),
        );
    }
}

/// How a workload's audits download state.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Whole log, replay from the image (`game_sig`).
    WholeLog,
    /// Chunk plus the full section stream (`db_durable`).
    FullDownload,
    /// Chunk, manifest and faulted blobs (`sparse_ondemand`, `fleet_attested`).
    OnDemand,
}

/// One provider as the audit-side replays see it.
pub struct Audited<'a> {
    pub server: AuditServer<'a>,
    pub store: &'a SnapshotStore,
    pub image: &'a VmImage,
    pub registry: &'a GuestRegistry,
    /// Blobs an on-demand audit of each sampled chunk fetched.
    pub cache: Option<&'a AuditorBlobCache>,
}

/// The read side: endpoint handling, wire sealing, fetches, compression
/// pricing, materialization and replay, each re-driven on a sample of the
/// audits: `targets` are (provider, chunk) pairs.  `pass_ns` and
/// `pass_audits` describe the audit pass the shares refer to.
pub fn audit_units(
    tr: &mut Tracer,
    targets: &[(&Audited<'_>, u64)],
    mode: Mode,
    pass_ns: u64,
    pass_audits: u64,
    l: &mut Metrics,
) {
    let n = targets.len();
    let mut handle = [0u64; 4]; // log, manifest, blobs, sections
    let (mut seal_ns, mut open_ns, mut sealed_bytes) = (0u64, 0u64, 0u64);
    let (mut fetch_log, mut fetch_sections, mut fetch_manifest) = (0u64, 0u64, 0u64);
    let (mut measure_ns, mut measured_bytes) = (0u64, 0u64);
    let (mut materialize, mut stream_ns) = (0u64, 0u64);
    let (mut manifest_ns, mut lazy_ns, mut blobs_ns, mut price_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut replay_ns, mut entries, mut steps, mut lazy_faults) = (0u64, 0u64, 0u64, 0u64);

    let mut seal_open = |tr: &mut Tracer, response: &layers::AuditResponse| {
        let (packet, ns) = layers::unit_seal(tr, response);
        seal_ns += ns;
        open_ns += layers::unit_open(tr, &packet);
        sealed_bytes += packet.len() as u64;
    };

    for &(a, c) in targets {
        // Provider side: answer the requests this mode sends, seal, open.
        let log_kind = if mode == Mode::WholeLog {
            RequestKind::WholeLog
        } else {
            RequestKind::LogChunk
        };
        let (response, ns) = layers::unit_handle(
            tr,
            "endpoint.handle.log_chunk",
            &a.server,
            &layers::audit_request(log_kind, c),
        );
        handle[0] += ns;
        seal_open(tr, &response);

        // Auditor side: the same downloads through a client.
        let mut client = layers::sim_client(a.server);
        let (chunk_entries, ns) = if mode == Mode::WholeLog {
            layers::unit_fetch_whole_log(tr, &mut client)
        } else {
            layers::unit_fetch_log_chunk(tr, &mut client, c)
        };
        fetch_log += ns;
        if mode != Mode::WholeLog {
            // A spot check prices the chunk it downloaded.
            let log_bytes: Vec<u8> = chunk_entries
                .iter()
                .flat_map(layers::Encode::encode_to_vec)
                .collect();
            measure_ns += layers::unit_compress_measure(tr, &log_bytes);
            measured_bytes += log_bytes.len() as u64;
        }

        let mut replayer = match mode {
            Mode::WholeLog => layers::replayer_from_image(a.image, a.registry),
            Mode::FullDownload => {
                let (response, ns) = layers::unit_handle(
                    tr,
                    "endpoint.handle.sections",
                    &a.server,
                    &layers::audit_request(RequestKind::Sections, c),
                );
                handle[3] += ns;
                seal_open(tr, &response);
                let (stream, ns) = layers::unit_fetch_sections(tr, &mut client, c);
                fetch_sections += ns;
                stream_ns += layers::unit_transfer_stream(tr, a.store, c).1;
                measure_ns += layers::unit_compress_measure(tr, &stream);
                measured_bytes += stream.len() as u64;
                materialize += layers::unit_materialize(tr, a.store, c, a.image, a.registry).1;
                layers::replayer_from_snapshot(a.image, a.registry, a.store, c)
            }
            Mode::OnDemand => {
                let (response, ns) = layers::unit_handle(
                    tr,
                    "endpoint.handle.manifest",
                    &a.server,
                    &layers::audit_request(RequestKind::Manifest, c),
                );
                handle[1] += ns;
                seal_open(tr, &response);
                fetch_manifest += layers::unit_fetch_manifest(tr, &mut client, c);
                manifest_ns += layers::unit_chain_manifest(tr, a.store, c);
                // The pricing of the dump nobody downloaded.
                let (stream, ns) = layers::unit_transfer_stream(tr, a.store, c);
                stream_ns += ns;
                price_ns += layers::unit_price_full(tr, a.store, c);
                measured_bytes += stream.len() as u64;
                let seeded = a.cache.expect("on-demand replays bring a cache");
                let (replayer, ns) =
                    layers::unit_replayer_on_demand(tr, a.image, a.registry, a.store, c, seeded);
                lazy_ns += ns;
                replayer
            }
        };
        let (outcome, ns) = layers::unit_replay(tr, &mut replayer, &chunk_entries);
        replay_ns += ns;
        if let layers::ReplayOutcome::Consistent(summary) = outcome {
            entries += summary.entries_replayed;
            steps += summary.steps_executed;
        }
        if mode == Mode::OnDemand {
            let faulted = layers::faulted_digests(replayer.machine(), a.store, c);
            lazy_faults += replayer.machine().memory().faulted_chunks().len() as u64;
            let (response, ns) = layers::unit_handle(
                tr,
                "endpoint.handle.blobs",
                &a.server,
                &layers::blobs_request(&faulted),
            );
            handle[2] += ns;
            seal_open(tr, &response);
            blobs_ns += layers::unit_fetch_blobs(
                tr,
                a.store,
                &faulted,
                a.cache.expect("on-demand replays bring a cache"),
            );
        }
    }

    l.set("endpoint.handle_ns.log_chunk", mean(handle[0], n));
    l.set("endpoint.handle_ns.manifest", mean(handle[1], n));
    l.set("endpoint.handle_ns.blobs", mean(handle[2], n));
    l.set("endpoint.handle_ns.sections", mean(handle[3], n));
    l.set("endpoint.fetch_log_chunk_ns", mean(fetch_log, n));
    l.set("endpoint.fetch_sections_ns", mean(fetch_sections, n));
    l.set("endpoint.fetch_manifest_ns", mean(fetch_manifest, n));
    l.set(
        "wire.seal_ns_per_kb",
        ratio(seal_ns as f64 * 1024.0, sealed_bytes as f64),
    );
    l.set(
        "wire.open_ns_per_kb",
        ratio(open_ns as f64 * 1024.0, sealed_bytes as f64),
    );
    // Pricing a dump builds its stream and then compresses it; only the
    // second half is `compress`'s.
    let compress_ns = if mode == Mode::OnDemand {
        measure_ns + price_ns.saturating_sub(stream_ns)
    } else {
        measure_ns
    };
    l.set(
        "compress.measure_ns_per_kb",
        ratio(compress_ns as f64 * 1024.0, measured_bytes as f64),
    );
    // Scale the sampled chunks to the whole pass.
    let scale = ratio(pass_audits as f64, n as f64);
    l.set("compress.bytes_in", measured_bytes as f64 * scale);
    l.set(
        "compress.share_audit",
        ratio(compress_ns as f64 * scale, pass_ns as f64),
    );
    l.set("snapshot.materialize_ns", mean(materialize, n));
    l.set("snapshot.transfer_stream_ns", mean(stream_ns, n));
    l.set("ondemand.manifest_ns", mean(manifest_ns, n));
    l.set("ondemand.materialize_ns", mean(lazy_ns, n));
    l.set("ondemand.fetch_blobs_ns", mean(blobs_ns, n));
    l.set("ondemand.price_full_ns", mean(price_ns, n));
    l.set("vm.lazy_faults", lazy_faults as f64 * scale);
    l.set(
        "replay.ns_per_entry",
        ratio(replay_ns as f64, entries as f64),
    );
    l.set(
        "replay.ns_per_kstep",
        ratio(replay_ns as f64 * 1e3, steps as f64),
    );
    l.set(
        "replay.share_audit",
        ratio(replay_ns as f64 * scale, pass_ns as f64),
    );
}

/// The write side of `store`: the recorded entries and pooled blobs are
/// appended to fresh files under `dir` with real fsync, and the recorded
/// directory `recorded` is scanned as recovery scans it.  `twin_record_ns`
/// is the record sample of the in-memory twin (same requests, no
/// `Provider`).
#[allow(clippy::too_many_arguments)]
pub fn store_units(
    tr: &mut Tracer,
    dir: &Path,
    recorded: &Path,
    avmm: &Avmm,
    key: &SigningKey,
    durable: &layers::DurabilityStats,
    record_ns: u64,
    twin_record_ns: u64,
    l: &mut Metrics,
) {
    let entries: &[LogEntry] = avmm.log().entries();
    let seg_dir = layers::scratch_dir(dir, "unit-seg");
    let (append_ns, sync_ns, syncs) = layers::unit_segment_store(tr, &seg_dir, entries, key);
    let arena_dir = layers::scratch_dir(dir, "unit-arena");
    let (put_ns, blobs) = layers::unit_arena_put(tr, &arena_dir, avmm.snapshots());
    let append_entry_ns = mean(append_ns, entries.len());
    let sync_unit_ns = ratio(sync_ns as f64, syncs as f64);
    let put_unit_ns = ratio(put_ns as f64, blobs as f64);
    l.set("store.append_entry_ns", append_entry_ns);
    l.set("store.sync_ns", sync_unit_ns);
    l.set("store.arena_put_ns", put_unit_ns);
    // What persisting costs is what is left when the same requests are
    // recorded on the same monitor without a `Provider` around it.
    l.set(
        "store.persist_share_record",
        ratio(
            record_ns.saturating_sub(twin_record_ns) as f64,
            record_ns as f64,
        ),
    );
    l.set(
        "store.fsync_model_over_measured",
        ratio(
            durable.modelled_sync_micros as f64 * 1e3,
            durable.syncs as f64 * sync_unit_ns,
        ),
    );
    let scan_ns = layers::unit_scan(tr, recorded, &key.verifying_key());
    l.set(
        "store.scan_ns_per_mb",
        ratio(scan_ns as f64, layers::dir_bytes(recorded) as f64 / 1e6),
    );
}

/// `paraudit`: one k=8 chunk replayed on one lane and on every pool lane.
/// Blocking spot checks are serial today, so no end-to-end metric moves
/// with this; it is the baseline the first parallel-audit claim needs.
pub fn paraudit_units(
    tr: &mut Tracer,
    server: AuditServer<'_>,
    store: &SnapshotStore,
    image: &VmImage,
    registry: &GuestRegistry,
    l: &mut Metrics,
) {
    const K: u64 = 8;
    if (store.len() as u64) <= K {
        return;
    }
    let mut client = layers::sim_client(server);
    let entries = layers::fetch_log_chunk_k(&mut client, 0, K);
    let lanes = layers::parallel_lanes();
    let mut wall = [u64::MAX; 2];
    let mut fallbacks = 0;
    for _ in 0..3 {
        for (slot, workers) in [1, lanes].into_iter().enumerate() {
            let (stats, consistent, ns) =
                layers::unit_replay_parallel(tr, &entries, image, registry, store, 0, workers);
            assert!(consistent, "recorded chunk replays consistently");
            wall[slot] = wall[slot].min(ns);
            fallbacks += u64::from(stats.fell_back_serial);
            l.set("paraudit.units", stats.units as f64);
        }
    }
    l.set("paraudit.wall_ns_w1", wall[0] as f64);
    l.set("paraudit.wall_ns_wn", wall[1] as f64);
    l.set(
        "paraudit.speedup_measured",
        ratio(wall[0] as f64, wall[1] as f64),
    );
    l.set("paraudit.fallbacks", fallbacks as f64);
}

/// `attest`: measuring the image, building the launch envelope, quoting
/// and verifying, each on its own; and the endpoint answering a challenge.
pub fn attest_units(
    tr: &mut Tracer,
    avmm: &Avmm,
    image: &VmImage,
    attestor: &layers::Attestor,
    policy: &layers::LaunchPolicy,
    l: &mut Metrics,
) {
    l.set(
        "attest.measure_image_ns",
        layers::unit_measure_image(tr, image) as f64,
    );
    l.set(
        "attest.build_envelope_ns",
        layers::unit_build_envelope(tr, avmm, image) as f64,
    );
    let (mut quote_ns, mut verify_ns, mut quote_bytes) = (u64::MAX, u64::MAX, 0);
    for session in 0..16 {
        let (q, v, bytes, verdict) = layers::unit_quote(tr, attestor, policy, session);
        assert!(verdict.is_verified(), "the honest launch verifies");
        quote_ns = quote_ns.min(q);
        verify_ns = verify_ns.min(v);
        quote_bytes = bytes;
    }
    l.set("attest.quote_ns", quote_ns as f64);
    l.set("attest.verify_quote_ns", verify_ns as f64);
    l.set("attest.quote_bytes", quote_bytes as f64);
    l.set(
        "attest.envelope_bytes",
        attestor.envelope_bytes().len() as f64,
    );
    let server = AuditServer::new(avmm.log(), avmm.snapshots()).with_attestor(attestor);
    let handle_ns = (0..16)
        .map(|session| {
            layers::unit_handle(
                tr,
                "endpoint.handle.attest",
                &server,
                &layers::audit_request(RequestKind::Attest, session),
            )
            .1
        })
        .min()
        .expect("sixteen challenges");
    l.set("endpoint.handle_ns.attest", handle_ns as f64);
}

//! One function per pinned experiment of the paper's evaluation.
//!
//! Every `exp_*` function prints the regenerated rows (markdown-ish) to
//! stdout, asserts the relations its table or figure claims, and returns the
//! integers the `BENCH_*.json` pin at the repository root holds, in the
//! pin's key order.  Every workload has one size and a fixed seed, and
//! nothing here reads a host clock, so a run reproduces its pin exactly on
//! any host.

use avm_attest::AttestVerdict;
use avm_compress::{compress, CompressionLevel};
use avm_core::audit::audit_log;
use avm_core::config::{AvmmOptions, ExecConfig};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::events::{classify_entry, EntryClass};
use avm_core::persist::{PersistConfig, PersistError, Provider};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::spotcheck::spot_check;
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_db::{db_image, db_registry, server::DbConfig, WorkloadGen};
use avm_game::cheats::{cheat_catalog, CheatClass};
use avm_game::game_registry;
use avm_log::{EntryKind, TamperEvidentLog};
use avm_store::{ArenaConfig, FsyncModel, SegmentConfig, SimStorage, SyncPolicy};
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::Encode;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pricing;
use crate::scenario::GameScenario;

fn small_scenario(config: ExecConfig) -> GameScenario {
    GameScenario {
        rsa_bits: 512,
        steps_per_tick: 8_000,
        ..GameScenario::standard(config, 300_000)
    }
}

/// Rebuilds a cheater's log so its META entry claims the honest reference
/// image — what a real cheater would do to hide the installed cheat.
fn forge_meta_to_claim(
    log: &TamperEvidentLog,
    honest_image: &VmImage,
    node: &str,
    scheme_label: &str,
) -> TamperEvidentLog {
    use avm_core::events::MetaRecord;
    let mut rebuilt = TamperEvidentLog::new();
    for e in log.entries() {
        let content = if e.kind == EntryKind::Meta {
            MetaRecord {
                image_digest: honest_image.digest(),
                node_name: node.to_string(),
                scheme_label: scheme_label.to_string(),
            }
            .encode_to_vec()
        } else {
            e.content.clone()
        };
        rebuilt.append(e.kind, content);
    }
    rebuilt
}

// ---------------------------------------------------------------------------
// Recordings: a client's signed packets fed to a recording host
// ---------------------------------------------------------------------------

/// The signature scheme of every recording outside the game sessions.
const SCHEME: SignatureScheme = SignatureScheme::Rsa(512);

/// A recording's options: the defaults, signing with [`SCHEME`].
fn options() -> AvmmOptions {
    AvmmOptions::default().with_scheme(SCHEME)
}

/// A recording's operator and client keys, drawn from `seed`.
fn keys(seed: u64, host: &str) -> (Identity, Identity) {
    let mut rng = StdRng::seed_from_u64(seed);
    let operator = Identity::generate(&mut rng, host, SCHEME);
    (operator, Identity::generate(&mut rng, "client", SCHEME))
}

/// A recorder of `image` named `host`, signing with the operator's key and
/// taking the client's packets.
fn live_host(
    host: &str,
    image: &VmImage,
    registry: &GuestRegistry,
    (operator, client): &(Identity, Identity),
    options: AvmmOptions,
) -> Avmm {
    let mut avmm = Avmm::new(host, image, registry, operator.signing_key.clone(), options).unwrap();
    avmm.add_peer("client", client.verifying_key());
    avmm
}

/// What a recording feeds: the recorder alone, or a provider that mirrors
/// every event to its storage (where an armed crash point fails a write).
enum Host<'a> {
    Live(&'a mut Avmm),
    Durable(&'a mut Provider<SimStorage>),
}

impl Host<'_> {
    /// Delivers `packet`, if any, then runs the guest for up to `steps`
    /// steps at `clock`.
    fn run(
        &mut self,
        packet: Option<&Envelope>,
        clock: &HostClock,
        steps: u64,
    ) -> Result<(), PersistError> {
        match self {
            Host::Live(avmm) => {
                if let Some(env) = packet {
                    avmm.deliver(env)?;
                }
                avmm.run_slice(clock, steps)?;
            }
            Host::Durable(provider) => {
                if let Some(env) = packet {
                    provider.deliver(env)?;
                }
                provider.run_slice(clock, steps)?;
            }
        }
        Ok(())
    }

    /// The guest's warm-up before the first packet: 50 000 steps at 1 ms.
    fn warm_up(&mut self) -> Result<(), PersistError> {
        self.run(None, &HostClock::at(1_000), 50_000)
    }

    /// Takes a snapshot and returns its id.
    fn snapshot(&mut self) -> Result<u64, PersistError> {
        match self {
            Host::Live(avmm) => Ok(avmm.take_snapshot().id),
            Host::Durable(provider) => provider.take_snapshot(),
        }
    }

    /// The recorder being fed.
    fn avmm(&self) -> &Avmm {
        match self {
            Host::Live(avmm) => avmm,
            Host::Durable(provider) => provider.avmm(),
        }
    }
}

/// Feeds the sparse guest one signed client packet per message id in `ids`,
/// each 2 ms after the one before from `clock`; round `i` carries `body(i)`,
/// the page selector and then the disk block selector.  Each round is run
/// and snapshotted, and `after` sees the recorder and the snapshot's id.
/// The first write the host refuses ends the feed with its error.
fn record_sparse(
    mut host: Host,
    client: &Identity,
    mut clock: HostClock,
    ids: impl IntoIterator<Item = u64>,
    body: impl Fn(u64) -> [u8; 2],
    mut after: impl FnMut(&Avmm, u64),
) -> Result<(), PersistError> {
    for (i, msg_id) in (0u64..).zip(ids) {
        clock.advance_to(clock.now() + 2_000);
        let payload = encode_guest_packet("host", &body(i));
        let env = Envelope::create(
            EnvelopeKind::Data,
            "client",
            "host",
            msg_id,
            payload,
            &client.signing_key,
            None,
        );
        host.run(Some(&env), &clock, 100_000)?;
        let snapshot = host.snapshot()?;
        after(host.avmm(), snapshot);
    }
    Ok(())
}

/// The sparse guest `image` recorded live with keys from `seed`: a warm-up,
/// then `rounds` packets, round `i` bumping page `i % touch_pages` and disk
/// block `i % 8`, each snapshotted.
fn sparse_host(
    seed: u64,
    image: &VmImage,
    options: AvmmOptions,
    touch_pages: u64,
    rounds: u64,
    after: impl FnMut(&Avmm, u64),
) -> Avmm {
    let keys = keys(seed, "host");
    let mut avmm = live_host("host", image, &GuestRegistry::new(), &keys, options);
    let mut host = Host::Live(&mut avmm);
    host.warm_up().unwrap();
    let body = |i: u64| [(i % touch_pages) as u8, (i % 8) as u8];
    record_sparse(host, &keys.1, HostClock::at(1_000), 1..=rounds, body, after).unwrap();
    avmm
}

/// Feeds the database guest the sql-bench stream over `rows` rows after a
/// warm-up: one signed client request every 5 ms, snapshotted after every
/// `snapshot_every` requests.  Just before snapshot `n` is taken, `tamper`
/// sees a live recorder and `n` (a provider hands its recorder to no one).
fn record_db(
    mut host: Host,
    client: &Identity,
    rows: u64,
    snapshot_every: u64,
    mut tamper: impl FnMut(&mut Avmm, u64),
) -> Result<(), PersistError> {
    let mut workload = WorkloadGen::new(rows);
    let mut clock = HostClock::at(1_000);
    host.warm_up()?;
    let mut msg_id = 0u64;
    while let Some(payload) = workload.next_packet("db-host") {
        msg_id += 1;
        clock.advance_to(clock.now() + 5_000);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "client",
            "db-host",
            msg_id,
            payload,
            &client.signing_key,
            None,
        );
        host.run(Some(&env), &clock, 100_000)?;
        if msg_id.is_multiple_of(snapshot_every) {
            if let Host::Live(avmm) = &mut host {
                tamper(avmm, msg_id / snapshot_every - 1);
            }
            host.snapshot()?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Table 1 + §6.3
// ---------------------------------------------------------------------------

/// Table 1 and §6.3: detectability of the 26-cheat catalogue, then the
/// functionality check on a signed session.
///
/// Every cheat is installed in a player's image; the player then *claims* to
/// run the official image.  A full audit against the official image must
/// report a fault for every single cheat; a missed cheat fails the run.  In
/// the §6.3 session the first player cheats and the others play honestly.
pub fn exp_table1() -> Vec<(String, u64)> {
    let catalog = cheat_catalog();

    println!("# Table 1: Detectability of Counterstrike-style cheats");
    println!("| cheat | class | audit result |");
    println!("|---|---|---|");
    let mut detected = 0usize;
    for cheat in &catalog {
        let mut scenario = small_scenario(ExecConfig::AvmmNoSig);
        scenario.cheat_on_first_player = Some(cheat.id);
        let result = scenario.run();
        let cheater = result.players[0].clone();
        let avmm = result.avmm(&cheater);
        let forged = forge_meta_to_claim(
            avmm.log(),
            &result.reference_client_images[0],
            &cheater,
            "nosig",
        );
        let (prev, segment) = forged.segment(1, forged.len() as u64).unwrap();
        let report = audit_log(
            &cheater,
            &prev,
            &segment,
            &[],
            &result.identities[0].verifying_key(),
            &result.reference_client_images[0],
            &game_registry(),
        );
        let caught = !report.passed();
        if caught {
            detected += 1;
        }
        println!(
            "| {} | {} | {} |",
            cheat.name,
            match cheat.class {
                CheatClass::InstallDetectable => "install-detectable",
                CheatClass::DetectableAnyImplementation => "any-implementation",
            },
            if caught {
                "fault detected"
            } else {
                "NOT DETECTED"
            }
        );
    }
    let total = catalog.len();
    let any_implementation = catalog
        .iter()
        .filter(|c| c.class == CheatClass::DetectableAnyImplementation)
        .count();
    println!(
        "\nTotal examined: {}  detectable: {}  (implementation-specific: {}, any implementation: {}, not detectable: {})",
        total, detected, total - any_implementation, any_implementation, total - detected
    );
    assert_eq!(total, 26, "the catalogue holds 26 cheats");
    assert_eq!(detected, total, "an installed cheat passed its audit");
    let mut m = vec![
        ("cheats_total".to_string(), total as u64),
        ("cheats_detected".to_string(), detected as u64),
        (
            "ok_every_cheat_detected".to_string(),
            (detected == total) as u64,
        ),
    ];

    let mut scenario = small_scenario(ExecConfig::AvmmRsa768);
    scenario.cheat_on_first_player = Some(
        avm_game::cheats::cheat_by_name("unlimited-ammo")
            .unwrap()
            .id,
    );
    let result = scenario.run();
    let mut honest_pass = 0u64;
    let mut cheaters_caught = 0u64;
    println!("# §6.3 functionality check");
    for (i, player) in result.players.iter().enumerate() {
        let avmm = result.avmm(player);
        let log = forge_meta_to_claim(
            avmm.log(),
            &result.reference_client_images[i],
            player,
            &avmm.options().signature_scheme.label(),
        );
        let (prev, segment) = log.segment(1, log.len() as u64).unwrap();
        let report = audit_log(
            player,
            &prev,
            &segment,
            &[],
            &result.identities[i].verifying_key(),
            &result.reference_client_images[i],
            &game_registry(),
        );
        let is_cheater = i == 0;
        println!(
            "| {player} | {} | audit: {} |",
            if is_cheater { "cheater" } else { "honest" },
            if report.passed() { "pass" } else { "FAULT" }
        );
        if is_cheater && !report.passed() {
            cheaters_caught += 1;
        }
        if !is_cheater && report.passed() {
            honest_pass += 1;
        }
    }
    m.push(("honest_players_passed".into(), honest_pass));
    m.push(("ok_cheater_caught".into(), (cheaters_caught == 1) as u64));
    m
}

// ---------------------------------------------------------------------------
// Figures 3 & 4, §6.5, §6.7: one short game session's log and traffic
// ---------------------------------------------------------------------------

/// Figures 3 and 4 (log growth and composition by content class), §6.5 (the
/// frame-rate cap's busy-wait explodes the log; the exponential clock-read
/// delay recovers it) and §6.7 (what accountability adds to a player's
/// network traffic).  Figures 3/4 and §6.7 read the same signed session.
///
/// `compressed_bytes` depends on the log's *content*, which is a function of
/// the session's inputs because `Runtime` runs its hosts in name order.
pub fn exp_gamelog() -> Vec<(String, u64)> {
    let result = small_scenario(ExecConfig::AvmmRsa768).run();
    let player = result.players[1].clone();
    let avmm = result.avmm(&player);
    let log = avmm.log();

    let mut class_bytes: Vec<(EntryClass, u64)> = vec![
        (EntryClass::TimeTracker, 0),
        (EntryClass::MacLayer, 0),
        (EntryClass::Other, 0),
        (EntryClass::TamperEvident, 0),
    ];
    for e in log.entries() {
        let class = classify_entry(e.kind, &e.content);
        let slot = class_bytes.iter_mut().find(|(c, _)| *c == class).unwrap();
        slot.1 += e.stored_size() as u64;
    }
    // Replay-only ("equivalent VMware") log: drop the acknowledgments and the
    // per-entry signatures that only exist for tamper evidence.
    let replay_only_bytes: u64 = log
        .entries()
        .iter()
        .filter(|e| e.kind != EntryKind::Ack)
        .map(|e| e.stored_size() as u64)
        .sum::<u64>()
        .saturating_sub(
            avmm.stats().packets_in * result.identities[0].verifying_key().signature_len() as u64,
        );
    let serialized = log.to_bytes();
    let compressed_bytes = compress(&serialized, CompressionLevel::Default).len() as u64;
    let sim_seconds = result.duration_us as f64 / 1e6;

    println!("# Figure 3 / Figure 4: log growth and composition ({player})");
    println!("sim time: {sim_seconds:.1} s");
    println!(
        "AVMM log: {} bytes ({:.1} KB/min)",
        serialized.len(),
        serialized.len() as f64 / 1024.0 / (sim_seconds / 60.0)
    );
    println!("equivalent replay-only log: {replay_only_bytes} bytes");
    println!("compressed: {compressed_bytes} bytes");
    println!("| class | bytes | share |");
    println!("|---|---|---|");
    let total: u64 = class_bytes.iter().map(|(_, b)| *b).sum();
    for (class, bytes) in &class_bytes {
        println!(
            "| {} | {} | {:.1}% |",
            class.label(),
            bytes,
            100.0 * *bytes as f64 / total.max(1) as f64
        );
    }
    let mut m = vec![
        ("log_bytes".to_string(), serialized.len() as u64),
        ("compressed_bytes".to_string(), compressed_bytes),
        ("replay_only_bytes".to_string(), replay_only_bytes),
    ];
    for (class, bytes) in &class_bytes {
        let label = class.label().replace('-', "_");
        m.push((format!("class_bytes_{label}"), *bytes));
    }

    let clock_reads = |cap: Option<u32>, optimize: bool| -> u64 {
        let mut scenario = small_scenario(ExecConfig::AvmmNoSig);
        scenario.frame_cap_fps = cap;
        scenario.clock_optimization = optimize;
        let result = scenario.run();
        result.stats(&result.players[1].clone()).clock_reads
    };
    let uncapped = clock_reads(None, false);
    let capped = clock_reads(Some(72), false);
    let capped_optimized = clock_reads(Some(72), true);
    println!("# §6.5 clock-read optimisation");
    println!("| configuration | clock reads logged |");
    println!("|---|---|");
    println!("| uncapped | {uncapped} |");
    println!("| capped 72 fps | {capped} |");
    println!("| capped 72 fps + optimisation | {capped_optimized} |");
    assert!(
        capped > 3 * uncapped,
        "frame cap should multiply clock reads: capped={capped} uncapped={uncapped}"
    );
    assert!(
        capped_optimized < capped / 2,
        "optimisation should recover most of the growth: optimized={capped_optimized} capped={capped}"
    );
    m.push(("clock_reads_uncapped".into(), uncapped));
    m.push(("clock_reads_capped".into(), capped));
    m.push(("clock_reads_capped_optimized".into(), capped_optimized));

    // Bare hardware: only the guest payload bytes cross the wire.  Count the
    // payload bytes recorded in SEND entries.
    let payload_bytes: u64 = {
        use avm_core::events::SendRecord;
        use avm_wire::Decode;
        log.entries()
            .iter()
            .filter(|e| e.kind == EntryKind::Send)
            .filter_map(|e| SendRecord::decode_exact(&e.content).ok())
            .map(|r| r.payload.len() as u64)
            .sum()
    };
    let node = result.runtime.node_id(&player).unwrap();
    let tx_bytes = result.runtime.net().stats(node).tx_bytes;
    let packets_out = result.stats(&player).packets_out;
    let bare_kbps = payload_bytes as f64 * 8.0 / sim_seconds / 1000.0;
    let avmm_kbps = tx_bytes as f64 * 8.0 / sim_seconds / 1000.0;
    println!("# §6.7 network traffic ({player})");
    println!(
        "bare-hw: {bare_kbps:.1} kbps   avmm-rsa768: {avmm_kbps:.1} kbps   packets sent: {packets_out}"
    );
    m.push(("payload_bytes".into(), payload_bytes));
    m.push(("tx_bytes".into(), tx_bytes));
    m.push(("packets_out".into(), packets_out));
    m
}

// ---------------------------------------------------------------------------
// Figure 9 + §6.12: spot checking on the database workload
// ---------------------------------------------------------------------------

/// Figure 9 and §6.12: spot-check cost versus chunk size on the database
/// workload, plus snapshot size statistics.  Pins the full-audit
/// denominators once, then per `k` the sums the printed ratios are means of.
pub fn exp_spotcheck() -> Vec<(String, u64)> {
    let registry = db_registry();
    let keys = keys(7, "db-host");
    let image = db_image(&DbConfig::new("client"));
    let mut avmm = live_host("db-host", &image, &registry, &keys, options());
    record_db(Host::Live(&mut avmm), &keys.1, 60, 40, |_, _| {}).unwrap();
    avmm.take_snapshot();

    // Full-audit baseline: a full audit downloads the whole log (no
    // snapshot state — replay starts from the reference image) as one
    // segment, priced like the spot-check chunks, raw and through the same
    // compression model.
    let total_entries = avmm.log().len() as u64;
    let whole_log = pricing::log_segment(avmm.log().entries());
    let n_snapshots = avmm.snapshots().len() as u64;

    println!("# §6.12 snapshots");
    println!(
        "snapshots: {n_snapshots}, memory bytes per snapshot: {}, incremental disk bytes: {:?}",
        avmm.snapshots()
            .get(0)
            .map(|s| s.memory_bytes())
            .unwrap_or(0),
        avmm.snapshots()
            .all()
            .iter()
            .map(|s| s.disk_bytes())
            .collect::<Vec<_>>(),
    );
    println!(
        "content-addressed store: {} logical payload bytes held as {} unique bytes ({} blobs, {:.1}x dedup)",
        avmm.snapshots().logical_payload_bytes(),
        avmm.snapshots().stored_payload_bytes(),
        avmm.snapshots().unique_payloads(),
        avmm.snapshots().logical_payload_bytes() as f64
            / avmm.snapshots().stored_payload_bytes().max(1) as f64,
    );

    println!("# Figure 9: spot-check cost vs chunk size");
    println!(
        "| k | replay (relative) | transferred (relative) | transferred compressed (relative) |"
    );
    println!("|---|---|---|---|");
    let mut m = vec![
        ("full_audit_entries".to_string(), total_entries),
        ("full_audit_log_bytes".to_string(), whole_log.raw_bytes),
        (
            "full_audit_log_compressed_bytes".to_string(),
            whole_log.compressed_bytes,
        ),
    ];
    let mut shorter = (0.0, 0.0);
    for k in [1u64, 2, 3] {
        // Average over all valid starting snapshots (excluding chunks that
        // start at the very beginning, as the paper does).
        let (mut chunks, mut entries_replayed) = (0u64, 0u64);
        let (mut transfer_bytes, mut transfer_compressed_bytes) = (0u64, 0u64);
        for start in 1..n_snapshots.saturating_sub(k) {
            let report =
                spot_check(avmm.log(), avmm.snapshots(), start, k, &image, &registry).unwrap();
            assert!(
                report.consistent,
                "honest chunk failed (start={start}, k={k}): {:?}",
                report.fault
            );
            chunks += 1;
            entries_replayed += report.entries_replayed;
            // Figure 9's transfer is the chunk plus the paper's full snapshot
            // dump, priced: the check itself downloads only what the image
            // lacks.
            let full_dump = pricing::full_dump(avmm.snapshots(), &report);
            transfer_bytes += report.log_transfer_bytes + full_dump.raw_bytes;
            transfer_compressed_bytes += pricing::log_chunk(avmm.log(), &report).compressed_bytes
                + full_dump.compressed_bytes;
        }
        assert!(chunks > 0, "no chunk of {k} segments to check");
        let mean_over = |sum: u64, full: u64| sum as f64 / (chunks * full) as f64;
        let replay = mean_over(entries_replayed, total_entries);
        let transfer = mean_over(transfer_bytes, whole_log.raw_bytes);
        // Both sides of this ratio use the §6.12 transfer model (the
        // prototype ships compressed snapshots and the audit tool compresses
        // the log), so it is directly comparable to `transfer`.
        let transfer_compressed = mean_over(transfer_compressed_bytes, whole_log.compressed_bytes);
        println!("| {k} | {replay:.2} | {transfer:.2} | {transfer_compressed:.2} |");
        assert!(
            replay >= shorter.0 && transfer >= shorter.1,
            "a longer chunk must cost at least as much: k={k} replay {replay} transfer {transfer}"
        );
        assert!(
            transfer_compressed > 0.0 && transfer_compressed < transfer,
            "compressed transfer should undercut raw: k={k} {transfer_compressed} vs {transfer}"
        );
        shorter = (replay, transfer);
        m.push((format!("k{k}_chunks"), chunks));
        m.push((format!("k{k}_entries_replayed"), entries_replayed));
        m.push((format!("k{k}_transfer_bytes"), transfer_bytes));
        m.push((
            format!("k{k}_transfer_compressed_bytes"),
            transfer_compressed_bytes,
        ));
    }
    m
}

// ---------------------------------------------------------------------------
// Idle-guest substrate of the snapshot experiments and bench groups
// ---------------------------------------------------------------------------

/// The reference image behind [`snapshot_machine`]: an idle guest with
/// `pages` of memory and a small disk.
pub fn snapshot_image(pages: usize, disk_pages: usize) -> VmImage {
    use avm_vm::bytecode::assemble;
    use avm_vm::PAGE_SIZE;
    let code = assemble("halt", 0).unwrap();
    VmImage::bytecode("fig6-snapshot", (pages * PAGE_SIZE) as u64, code, 0, 0)
        .with_disk(vec![0u8; disk_pages * PAGE_SIZE])
}

/// Builds an idle machine with `pages` of guest memory and a small disk,
/// used by the snapshot experiments and the `fig6_snapshot_incremental` and
/// `snapshot_dedup` bench groups.
pub fn snapshot_machine(pages: usize, disk_pages: usize) -> avm_vm::Machine {
    avm_vm::Machine::from_image(&snapshot_image(pages, disk_pages), &GuestRegistry::new()).unwrap()
}

// ---------------------------------------------------------------------------
// §6.12 substrate: content-addressed snapshot storage + compressed transfer
// ---------------------------------------------------------------------------

/// §6.12 substrate: content-addressed snapshot storage and compression-aware
/// transfer modelling.
///
/// A guest with a small dirty working set takes repeated *full* memory
/// captures: the content-addressed pool stores O(unique pages), so idle
/// captures add ~0 bytes, and the modelled auditor download is reported both
/// raw and compressed (the paper ships compressed incremental snapshots).
/// Every materialization is authenticated against its recorded root, so the
/// experiment doubles as a round-trip check of the pooled storage.
pub fn exp_snapshot_dedup() -> Vec<(String, u64)> {
    use avm_core::snapshot::{capture_with_cache, SnapshotStore, StateTreeCache};
    use avm_vm::PAGE_SIZE;

    let pages = 128;
    let idle_captures = 4;
    let busy_captures = 3;

    let mut m = snapshot_machine(pages, 16);
    let image = snapshot_image(pages, 16);
    let registry = GuestRegistry::new();
    let mut cache = StateTreeCache::new();
    let mut store = SnapshotStore::new();
    let mut id = 0u64;

    println!("# §6.12 substrate: content-addressed snapshots");
    println!("| capture | kind | logical bytes | stored bytes (cumulative) |");
    println!("|---|---|---|---|");
    let push = |store: &mut SnapshotStore,
                m: &mut avm_vm::Machine,
                cache: &mut StateTreeCache,
                id: &mut u64,
                kind: &str| {
        let snap = capture_with_cache(m, cache, *id, true);
        let logical = snap.total_bytes();
        store.push(snap);
        println!(
            "| {} | {} | {} | {} |",
            id,
            kind,
            logical,
            store.stored_payload_bytes()
        );
        *id += 1;
    };

    // Busy phase: dirty one page between full captures.
    for i in 0..busy_captures {
        m.memory_mut()
            .write_u8(((i % pages) * PAGE_SIZE) as u64, i as u8 + 1)
            .unwrap();
        push(&mut store, &mut m, &mut cache, &mut id, "busy");
    }
    let stored_before_idle = store.stored_payload_bytes();
    // Idle phase: repeated full captures with no guest activity.
    for _ in 0..idle_captures {
        push(&mut store, &mut m, &mut cache, &mut id, "idle");
    }
    let (logical, stored) = (store.logical_payload_bytes(), store.stored_payload_bytes());
    assert_eq!(
        stored, stored_before_idle,
        "idle full captures must not grow the pool"
    );

    // Round trip every snapshot (materialize authenticates the state root)
    // and pin the accounting to the stream it counts.
    for sid in 0..id {
        store
            .materialize(sid, &image, &registry)
            .expect("pooled snapshot must round-trip");
        assert_eq!(
            store.transfer_stream_upto(sid).len() as u64,
            store.transfer_bytes_upto(sid)
        );
    }

    let cost = store.transfer_cost_upto(id - 1, CompressionLevel::Default);
    println!(
        "logical: {} bytes  stored: {} bytes ({:.1}x dedup, {} unique blobs)",
        logical,
        stored,
        logical as f64 / stored.max(1) as f64,
        store.unique_payloads(),
    );
    println!(
        "auditor transfer to the final snapshot: raw {} bytes, compressed {} bytes ({:.1}x)",
        cost.raw_bytes,
        cost.compressed_bytes,
        cost.ratio(),
    );
    // The logical volume kept growing over a pool that did not, and the
    // idle guest compresses heavily.
    assert!(logical > 4 * stored, "logical {logical} vs stored {stored}");
    assert!(
        cost.compressed_bytes > 0 && cost.compressed_bytes < cost.raw_bytes / 4,
        "transfer raw {} vs compressed {}",
        cost.raw_bytes,
        cost.compressed_bytes
    );
    vec![
        ("ok_captures".into(), id),
        (
            "ok_idle_captures_free".into(),
            (stored == stored_before_idle) as u64,
        ),
        ("logical_bytes".into(), logical),
        ("stored_bytes".into(), stored),
        ("transfer_raw".into(), cost.raw_bytes),
        ("transfer_compressed".into(), cost.compressed_bytes),
    ]
}

// ---------------------------------------------------------------------------
// §3.5 substrate: on-demand partial-state replay vs full snapshot downloads
// ---------------------------------------------------------------------------

/// A guest with a large, sparsely-touched memory: packet `i` bumps a counter
/// in page `i % touch_pages` of a dedicated region and mirrors it to disk
/// block `i % 8`, so the divergent state grows with the run while any one
/// log segment touches only a couple of pages.
fn sparse_touch_image(pages: usize) -> VmImage {
    use avm_vm::bytecode::assemble;
    use avm_vm::PAGE_SIZE;
    let src = r"
            movi r1, 0x8000     ; rx buffer
            movi r2, 64         ; max len
            movi r5, 0x40000    ; touch region base (page 64)
        loop:
            recv r0, r1, r2
            cmp r0, r6
            jne got
            idle
            jmp loop
        got:
            loadb r3, r1, 5     ; page selector (body starts after the
                                ; 5-byte 'host' addressing header)
            movi r4, 4096
            mul r3, r4
            add r3, r5          ; target = base + sel * 4096
            load r7, r3
            addi r7, 1
            store r7, r3        ; bump the page's counter
            store r7, r3, 512   ; and scatter it twice more so the page
            store r7, r3, 1024  ; compresses like real data, not zeroes
            movi r4, 8
            loadb r8, r1, 6     ; disk block selector byte
            movi r9, 4096
            mul r8, r9
            diskwr r8, r3, r4   ; mirror 8 bytes to the selected block
            jmp loop
        ";
    VmImage::bytecode(
        "sparse-touch",
        (pages * PAGE_SIZE) as u64,
        assemble(src, 0).unwrap(),
        0,
        0,
    )
    .with_disk(vec![0u8; 8 * PAGE_SIZE])
}

/// The recording behind [`exp_ondemand`]: the sparse-touch guest fed one
/// packet (touching one fresh page + one disk block) per snapshot.  Returns
/// the recorder, its image and the number of snapshots taken.
pub(crate) fn ondemand_recording() -> (Avmm, VmImage, u64) {
    let image = sparse_touch_image(96);
    let n_snapshots = 6;
    let avmm = sparse_host(11, &image, options(), 24, n_snapshots, |_, _| {});
    (avmm, image, n_snapshots)
}

/// §3.5 substrate: spot-check transfer cost under the three download models
/// — full snapshot dump, digest-addressed dedup transfer, and on-demand
/// partial-state replay — on a sparse-touch workload.
///
/// Reproduces the claim that an auditor who "incrementally request\[s\] the
/// parts of the state that are accessed" downloads strictly less than any
/// full-state download: the chain accumulates divergent pages the chunk's
/// replay never touches.  Verdicts agree between modes, and a warm cache
/// never re-downloads.
pub fn exp_ondemand() -> Vec<(String, u64)> {
    use avm_core::ondemand::AuditorBlobCache;
    use avm_core::spotcheck::spot_check_on_demand;

    let registry = GuestRegistry::new();
    let (avmm, image, n_snapshots) = ondemand_recording();

    // Fig. 9-style table: one row per k, averaged over starting snapshots,
    // with the three §3.5 transfer models side by side.  Each row uses fresh
    // caches so averaging is not polluted by earlier rows' downloads.
    println!("# §3.5 substrate: snapshot transfer models (sparse-touch workload)");
    println!("| k | full dump (raw/comp) | dedup transfer (raw/comp) | on-demand (raw/comp) |");
    println!("|---|---|---|---|");
    for k in [1u64, 2] {
        let mut cols = [0u64; 6];
        let mut rows = 0u64;
        for start in 1..n_snapshots.saturating_sub(k) {
            let mut fresh = AuditorBlobCache::new();
            let dedup = pricing::dedup_download(avmm.snapshots(), start, &image, &fresh);
            let report = spot_check_on_demand(
                avmm.log(),
                avmm.snapshots(),
                start,
                k,
                &image,
                &registry,
                &mut fresh,
            )
            .unwrap();
            assert!(report.consistent, "honest chunk ({start},{k}) failed");
            let full = pricing::full_dump(avmm.snapshots(), &report);
            let on_demand = pricing::on_demand_download(avmm.snapshots(), &report);
            for (col, priced) in [full, dedup, on_demand].into_iter().enumerate() {
                cols[2 * col] += priced.raw_bytes;
                cols[2 * col + 1] += priced.compressed_bytes;
            }
            rows += 1;
        }
        assert!(rows > 0, "no chunk of {k} segments to check");
        println!(
            "| {} | {} / {} | {} / {} | {} / {} |",
            k,
            cols[0] / rows,
            cols[1] / rows,
            cols[2] / rows,
            cols[3] / rows,
            cols[4] / rows,
            cols[5] / rows,
        );
    }

    // Headline comparison: one mid-chain chunk, all three models, plus the
    // full-replay verdict cross-check and the warm-cache property.
    let start = n_snapshots - 2;
    let k = 1;
    let full_report =
        spot_check(avmm.log(), avmm.snapshots(), start, k, &image, &registry).unwrap();
    let mut cache = AuditorBlobCache::new();
    let dedup = pricing::dedup_download(avmm.snapshots(), start, &image, &cache);
    let check = |cache: &mut AuditorBlobCache| {
        spot_check_on_demand(
            avmm.log(),
            avmm.snapshots(),
            start,
            k,
            &image,
            &registry,
            cache,
        )
        .unwrap()
    };
    let od_report = check(&mut cache);
    let warm = check(&mut cache);
    let cost = od_report.on_demand.as_ref().unwrap();
    let full = pricing::full_dump(avmm.snapshots(), &full_report);
    let on_demand = pricing::on_demand_download(avmm.snapshots(), &od_report);
    let warm_refetches = warm.on_demand.as_ref().unwrap().fetched.len() as u64;
    let verdicts_agree = full_report.consistent == od_report.consistent
        && full_report.entries_replayed == od_report.entries_replayed;
    println!(
        "\nchunk (start={start}, k={k}): full dump {} B ({} B compressed), dedup {} B ({} B), on-demand {} B ({} B)",
        full.raw_bytes,
        full.compressed_bytes,
        dedup.raw_bytes,
        dedup.compressed_bytes,
        cost.transfer_bytes,
        on_demand.compressed_bytes,
    );
    println!(
        "on-demand faulted {} chunks + {} blocks; {} staged divergent chunks/blocks were never touched (transfer saved)",
        cost.chunks_faulted, cost.blocks_faulted, cost.untouched_staged,
    );
    println!(
        "warm-cache re-check fetched {} blobs; verdicts agree: {}",
        warm_refetches, verdicts_agree,
    );
    assert!(verdicts_agree, "full and on-demand replay must agree");
    assert!(
        cost.transfer_bytes < dedup.raw_bytes,
        "on-demand raw {} must be strictly below dedup raw {}",
        cost.transfer_bytes,
        dedup.raw_bytes
    );
    assert!(
        on_demand.compressed_bytes < dedup.compressed_bytes,
        "on-demand compressed {} must be strictly below dedup compressed {}",
        on_demand.compressed_bytes,
        dedup.compressed_bytes
    );
    assert!(
        dedup.raw_bytes < full.raw_bytes,
        "dedup raw {} must undercut the full dump {}",
        dedup.raw_bytes,
        full.raw_bytes
    );
    assert!(
        cost.chunks_faulted > 0,
        "the chunk's replay faults state in"
    );
    assert!(
        cost.untouched_staged > 0,
        "a sparse-touch chunk must leave divergent state untouched"
    );
    assert_eq!(warm_refetches, 0, "a warm cache never re-downloads");
    vec![
        ("ok_verdicts_agree".into(), verdicts_agree as u64),
        ("ok_warm_refetches".into(), warm_refetches),
        ("snapshots".into(), n_snapshots),
        ("full_raw".into(), full.raw_bytes),
        ("full_compressed".into(), full.compressed_bytes),
        ("dedup_raw".into(), dedup.raw_bytes),
        ("dedup_compressed".into(), dedup.compressed_bytes),
        ("ondemand_raw".into(), cost.transfer_bytes),
        ("ondemand_compressed".into(), on_demand.compressed_bytes),
        ("chunks_faulted".into(), cost.chunks_faulted),
    ]
}

// ---------------------------------------------------------------------------
// Chunk-granular state pipeline: sub-page accounting end-to-end
// ---------------------------------------------------------------------------

/// A sparse writer: each packet bumps an 8-byte counter in the page selected
/// by the payload (dirtying exactly one 512 B chunk) and mirrors it to one
/// disk block — the workload §3.5/§6.12 predict benefits most from sub-page
/// accountability.
fn sparse_writer_image(pages: usize) -> VmImage {
    use avm_vm::bytecode::assemble;
    use avm_vm::PAGE_SIZE;
    let src = r"
            movi r1, 0x8000     ; rx buffer
            movi r2, 64         ; max len
            movi r5, 0x40000    ; touch region base (page 64)
        loop:
            recv r0, r1, r2
            cmp r0, r6
            jne got
            idle
            jmp loop
        got:
            loadb r3, r1, 5     ; page selector (body starts after the
                                ; 5-byte 'host' addressing header)
            movi r4, 4096
            mul r3, r4
            add r3, r5          ; target = base + sel * 4096
            load r7, r3
            addi r7, 1
            store r7, r3        ; 8-byte bump: exactly one dirty chunk
            movi r4, 8
            loadb r8, r1, 6     ; disk block selector byte
            movi r9, 4096
            mul r8, r9
            diskwr r8, r3, r4
            jmp loop
        ";
    VmImage::bytecode(
        "sparse-writer",
        (pages * PAGE_SIZE) as u64,
        assemble(src, 0).unwrap(),
        0,
        0,
    )
    .with_disk(vec![0u8; 8 * PAGE_SIZE])
}

/// Chunk-granular state pipeline end-to-end: records a sparse writer with
/// incremental snapshots and compares every stage — snapshot payloads, the
/// content-addressed pool, and on-demand replay transfer — against the
/// page-granular equivalents, plus the round trips of the check's blob
/// exchanges against a blob-at-a-time auditor's, and a retention prune.
///
/// The page-granular numbers are modelled from the same recording: a page
/// pipeline would ship/store every 4 KiB page containing at least one dirty
/// chunk (shadow-interned by content so its pool dedups the same way), and
/// an on-demand page auditor would fault whole pages where ours faults
/// 512 B chunks.  The acceptance bar is strict inequality on snapshot
/// logical and stored bytes and on-demand transfer bytes.
pub fn exp_chunked() -> Vec<(String, u64)> {
    use avm_core::ondemand::AuditorBlobCache;
    use avm_core::replay::{ReplayOutcome, Replayer};
    use avm_core::snapshot::SNAPSHOT_HEADER_BYTES;
    use avm_core::spotcheck::spot_check_on_demand;
    use avm_crypto::sha256::sha256;
    use avm_vm::{CHUNKS_PER_PAGE, PAGE_SIZE};
    use std::collections::{HashMap, HashSet};

    let registry = GuestRegistry::new();
    let image = sparse_writer_image(96);
    let n_snapshots: u64 = 8;

    // Record: one packet (8 bytes into one page + one disk block) per
    // snapshot, tracking per capture what a page-granular pipeline would
    // have shipped (logical) and pooled (stored, shadow-interned by page
    // content so it dedups exactly like the real pool).
    let mut chunk_logical = 0u64;
    let mut page_logical = 0u64;
    let mut page_pool: HashMap<avm_crypto::sha256::Digest, u64> = HashMap::new();
    println!("# Chunk-granular state pipeline (sparse writer)");
    println!("| snapshot | chunks carried | chunk bytes | page-equivalent bytes |");
    println!("|---|---|---|---|");
    let account = |avmm: &Avmm, snap_id: u64| {
        let snap = avmm.snapshots().get(snap_id).unwrap();
        let dirty_pages: HashSet<usize> = snap
            .mem_chunk_refs()
            .iter()
            .map(|(idx, _)| *idx as usize / CHUNKS_PER_PAGE)
            .collect();
        let snap_page_logical = dirty_pages.len() as u64 * (PAGE_SIZE as u64 + 4)
            + snap.disk_bytes()
            + snap.disk_block_refs().len() as u64 * 4
            + SNAPSHOT_HEADER_BYTES
            + snap.cpu_state.len() as u64
            + snap.dev_state.len() as u64;
        chunk_logical += snap.total_bytes();
        page_logical += snap_page_logical;
        // Shadow page pool: contents are unchanged since the capture (the
        // guest idles between packets), so reading them now is exact.
        for p in &dirty_pages {
            let content = avmm.machine().memory().page(*p).expect("page in range");
            page_pool.entry(sha256(content)).or_insert(PAGE_SIZE as u64);
        }
        println!(
            "| {} | {} | {} | {} |",
            snap_id,
            snap.chunk_count(),
            snap.total_bytes(),
            snap_page_logical
        );
    };
    // Selectors cycle over a small page set so a replayed segment revisits
    // pages that already diverged at its starting snapshot — the faults a
    // §3.5 auditor actually pays for.
    let incremental = options().with_incremental_snapshots();
    let avmm = sparse_host(23, &image, incremental, 6, n_snapshots, account);
    let chunk_stored = avmm.snapshots().stored_payload_bytes();
    let page_stored: u64 = page_pool.values().sum();

    // On-demand replay of one mid-chain chunk, chunk faults vs the pages a
    // page-granular auditor would have pulled for the same accesses.  The
    // replayed packets revisit pages that diverged before `start`, so the
    // session fetches several remote chunk blobs.
    let start = n_snapshots - 3;
    let k = 2u64;
    // Replay runs the entries after the chunk's anchor.
    let entries = &pricing::chunk_entries(avmm.log(), start, k)[1..];
    let fresh = AuditorBlobCache::new();
    let (mut replayer, session) =
        Replayer::from_snapshot_on_demand(&image, &registry, avmm.snapshots(), start, &fresh)
            .unwrap();
    let outcome = replayer.replay(entries);
    assert!(
        matches!(outcome, ReplayOutcome::Consistent(_)),
        "honest chunk must replay: {outcome:?}"
    );
    let faulted_pages: HashSet<usize> = replayer
        .machine()
        .memory()
        .faulted_chunks()
        .iter()
        .map(|c| c / CHUNKS_PER_PAGE)
        .collect();
    let mut settle_cache = AuditorBlobCache::new();
    let cost = session
        .finish(replayer.machine(), avmm.snapshots(), &mut settle_cache)
        .unwrap();
    let chunk_ondemand = cost.transfer_bytes;
    // Page-granular equivalent: the manifest carries one 36-byte ref per
    // divergent page instead of per divergent chunk, and every faulted
    // divergent page ships whole (its counter makes it non-derivable).
    let manifest = avmm.snapshots().chain_manifest_upto(start).unwrap();
    let manifest_pages: HashSet<usize> = manifest
        .mem_refs
        .iter()
        .map(|(idx, _)| *idx as usize / CHUNKS_PER_PAGE)
        .collect();
    let page_manifest_bytes = cost.manifest_bytes - manifest.mem_refs.len() as u64 * 36
        + manifest_pages.len() as u64 * 36;
    let page_ondemand = page_manifest_bytes + faulted_pages.len() as u64 * (PAGE_SIZE as u64 + 4);

    // Round-trip accounting through the spot-check surface (fresh cache so
    // nothing is subsidised), plus the verdict cross-check.
    let full_report =
        spot_check(avmm.log(), avmm.snapshots(), start, k, &image, &registry).unwrap();
    let mut od_cache = AuditorBlobCache::new();
    let od_report = spot_check_on_demand(
        avmm.log(),
        avmm.snapshots(),
        start,
        k,
        &image,
        &registry,
        &mut od_cache,
    )
    .unwrap();
    let rtts_batched = od_report.on_demand_round_trips().unwrap();
    // A blob-at-a-time auditor pays the manifest's round trip and one per
    // fetched blob; an exchange per miss never pays more.
    let rtts_unbatched = 1 + od_report.on_demand.as_ref().unwrap().fetched.len() as u64;
    assert!(
        rtts_batched <= rtts_unbatched,
        "an exchange per miss must not cost more round trips than one per blob: \
         {rtts_batched} vs {rtts_unbatched}"
    );

    // Retention: prune the first half of the chain; surviving snapshots keep
    // materializing (authenticated internally) while unreferenced chunk
    // blobs are evicted.
    let mut pruned = avmm.snapshots().clone();
    let freed = pruned.prune_upto(n_snapshots / 2).unwrap();
    for id in (n_snapshots / 2)..n_snapshots {
        pruned
            .materialize(id, &image, &registry)
            .expect("surviving snapshot must materialize after prune");
    }

    let verdicts_agree = full_report.consistent == od_report.consistent
        && full_report.entries_replayed == od_report.entries_replayed;
    println!(
        "\nsnapshot chain: {} B chunk-granular vs {} B page-equivalent ({:.1}x)",
        chunk_logical,
        page_logical,
        page_logical as f64 / chunk_logical.max(1) as f64,
    );
    println!(
        "pool stored: {} B chunk-granular vs {} B page-equivalent ({:.1}x)",
        chunk_stored,
        page_stored,
        page_stored as f64 / chunk_stored.max(1) as f64,
    );
    println!(
        "on-demand chunk ({start},k={k}): {} B chunk-granular ({} chunks faulted) vs {} B page-equivalent ({} pages)",
        chunk_ondemand,
        cost.chunks_faulted,
        page_ondemand,
        faulted_pages.len(),
    );
    println!(
        "blob exchange round trips: {} (one per miss) vs {rtts_unbatched} blob-at-a-time",
        rtts_batched,
    );
    println!(
        "prune_upto({}) freed {} B of pooled payload; later snapshots still authenticate",
        n_snapshots / 2,
        freed,
    );
    assert!(verdicts_agree, "full and on-demand checks must agree");
    assert!(
        chunk_stored < page_stored,
        "chunk pool {chunk_stored} B must be strictly below the page-equivalent pool {page_stored} B"
    );
    assert!(
        chunk_ondemand < page_ondemand,
        "chunk on-demand {chunk_ondemand} B must be strictly below the page equivalent {page_ondemand} B"
    );
    assert!(
        chunk_logical < page_logical,
        "sparse incremental captures must ship fewer bytes at chunk granularity"
    );
    // The manifest, then at least one exchange for a miss.
    assert!(rtts_batched >= 2, "{rtts_batched} round trips");
    assert!(freed > 0, "the prune must free pooled payload");
    vec![
        ("ok_verdicts_agree".into(), verdicts_agree as u64),
        ("snapshots".into(), n_snapshots),
        ("chunk_logical_bytes".into(), chunk_logical),
        ("page_logical_bytes".into(), page_logical),
        ("chunk_stored_bytes".into(), chunk_stored),
        ("page_stored_bytes".into(), page_stored),
        ("chunk_ondemand_bytes".into(), chunk_ondemand),
        ("page_ondemand_bytes".into(), page_ondemand),
        ("rtts_batched".into(), rtts_batched),
    ]
}

// ---------------------------------------------------------------------------
// Networked audit endpoints: one protocol, measured on every link
// ---------------------------------------------------------------------------

/// Networked audit: drives the *same* §3.5 on-demand spot check over the
/// simulated WAN (the free function), a lossless LAN and a lossy LAN and
/// compares them — the verdicts and transfer accounting must be identical
/// everywhere, and the lossy link must complete correctly via
/// timeout-and-retransmit, paying for every retry in wire bytes and
/// simulated wall time.  (What a lossless exchange costs on a link is
/// pinned per packet in `avm-core`'s endpoint tests.)
pub fn exp_netaudit() -> Vec<(String, u64)> {
    use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
    use avm_core::ondemand::AuditorBlobCache;
    use avm_core::spotcheck::spot_check_on_demand;
    use avm_net::LinkConfig;

    let registry = GuestRegistry::new();
    // The sparse-touch guest writes into pages 64..64+touch_pages, so the
    // image must extend past that region.
    let image = sparse_touch_image(96);
    let n_snapshots: u64 = 5;
    let avmm = sparse_host(13, &image, options(), 16, n_snapshots, |_, _| {});

    let start = n_snapshots - 2;
    let k = 1u64;
    let link = LinkConfig::default();
    // Few enough packets cross per direction that a sparse drop pattern
    // would never fire; every-2nd-packet loss exercises retransmission on
    // both the request and the response path.
    let lossy_link = LinkConfig {
        drop_every: 2,
        ..link
    };
    let client = |link| {
        AuditClient::new(SimNetTransport::new(
            AuditServer::new(avmm.log(), avmm.snapshots()),
            link,
        ))
    };

    // 1. Baseline: the free-function wrapper (simulated WAN link).
    let mut free_cache = AuditorBlobCache::new();
    let baseline = spot_check_on_demand(
        avmm.log(),
        avmm.snapshots(),
        start,
        k,
        &image,
        &registry,
        &mut free_cache,
    )
    .unwrap();
    assert!(baseline.consistent, "honest chunk must pass");

    // 2. The simulated network, lossless LAN; 3. deterministically lossy.
    let clean_report = client(link)
        .spot_check_on_demand(start, k, &image, &registry)
        .unwrap();
    let lossy_report = client(lossy_link)
        .spot_check_on_demand(start, k, &image, &registry)
        .unwrap();

    // 4. Full-download mode: free function vs the LAN.
    let full_baseline =
        spot_check(avmm.log(), avmm.snapshots(), start, k, &image, &registry).unwrap();
    let full_net_report = client(link)
        .spot_check(start, k, &image, &registry)
        .unwrap();

    let semantic_match_clean = baseline.semantic() == clean_report.semantic();
    let semantic_match_lossy = baseline.semantic() == lossy_report.semantic();
    let semantic_match_full = full_baseline.semantic() == full_net_report.semantic();
    let measured_clean_us = clean_report.transport.elapsed_micros;
    let measured_lossy_us = lossy_report.transport.elapsed_micros;
    let retransmissions_lossy = lossy_report.transport.retransmissions;

    assert!(
        semantic_match_clean,
        "LAN check must equal the WAN baseline"
    );
    assert!(semantic_match_lossy, "loss must not change the audit");
    assert!(semantic_match_full, "full-download mode must match too");
    assert_eq!(clean_report.transport.retransmissions, 0);
    assert!(measured_clean_us > 0, "a clean exchange takes time");
    assert!(retransmissions_lossy > 0, "drop-every-2 must force retries");
    assert!(measured_lossy_us > measured_clean_us);

    println!(
        "# Networked audit: one protocol over pluggable transports (chunk start={start}, k={k})"
    );
    println!("| path | round trips | wire bytes (req/resp) | retransmits | latency µs |");
    println!("|---|---|---|---|---|");
    for (label, report) in [
        ("simnet WAN (free function)", &baseline),
        ("simnet LAN (lossless)", &clean_report),
        ("simnet LAN (drop every 2nd)", &lossy_report),
        ("simnet LAN, full download", &full_net_report),
    ] {
        let t = report.transport;
        println!(
            "| {label} | {} | {} / {} | {} | {} |",
            t.round_trips, t.request_bytes, t.response_bytes, t.retransmissions, t.elapsed_micros,
        );
    }
    println!(
        "\nclean link {measured_clean_us} µs; lossy link finished correctly after \
         {retransmissions_lossy} retransmissions in {measured_lossy_us} µs",
    );
    println!(
        "verdict/accounting identical across transports: on-demand {}, lossy {}, full {}",
        semantic_match_clean, semantic_match_lossy, semantic_match_full,
    );

    vec![
        (
            "ok_semantic_match_clean".into(),
            semantic_match_clean as u64,
        ),
        (
            "ok_semantic_match_lossy".into(),
            semantic_match_lossy as u64,
        ),
        ("ok_semantic_match_full".into(), semantic_match_full as u64),
        ("measured_clean_us".into(), measured_clean_us),
        ("measured_lossy_us".into(), measured_lossy_us),
        ("retransmissions_lossy".into(), retransmissions_lossy),
    ]
}

// ---------------------------------------------------------------------------
// Durable accountability: fsync policies + crash recovery (avm-store/persist)
// ---------------------------------------------------------------------------

/// The store configuration the `persist` experiment runs under: small
/// segments/arenas so rotation and sealing actually happen in a five-round run.
fn persist_cfg(policy: SyncPolicy, model: FsyncModel) -> PersistConfig {
    PersistConfig {
        segments: SegmentConfig {
            max_segment_bytes: 16 * 1024,
            seal_every_entries: 8,
            sync_policy: policy,
            fsync_model: model,
        },
        arenas: ArenaConfig {
            max_arena_bytes: 64 * 1024,
            fsync_model: model,
        },
    }
}

/// The standard persist workload on a fresh provider over `storage`: a
/// warm-up, then `rounds` sparse-touch packets over 16 pages, each run and
/// snapshotted, every event mirrored to storage.
fn persist_recording(
    storage: SimStorage,
    image: &VmImage,
    (operator, client): &(Identity, Identity),
    cfg: PersistConfig,
    rounds: u64,
) -> Provider<SimStorage> {
    let mut provider = Provider::create(
        storage,
        "host",
        image,
        &GuestRegistry::new(),
        operator.signing_key.clone(),
        options(),
        cfg,
    )
    .unwrap();
    provider.add_peer("client", client.verifying_key());
    let mut host = Host::Durable(&mut provider);
    host.warm_up().unwrap();
    let body = |i: u64| [(i % 16) as u8, (i % 8) as u8];
    record_sparse(
        host,
        client,
        HostClock::at(1_000),
        1..=rounds,
        body,
        |_, _| {},
    )
    .unwrap();
    provider
}

/// Spot-checks one chunk of a durable provider through its audit endpoint —
/// the report is served from the persisted segment image, exactly what an
/// auditor would see after the provider restarts.
fn spot_check_durable(
    provider: &Provider<SimStorage>,
    image: &VmImage,
    start: u64,
) -> avm_core::spotcheck::SpotCheckReport {
    use avm_core::endpoint::{AuditClient, SimNetTransport};
    let mut client = AuditClient::new(SimNetTransport::new(
        provider.audit_server(),
        avm_net::LinkConfig::WAN,
    ));
    client
        .spot_check(start, 1, image, &GuestRegistry::new())
        .unwrap()
}

/// Builds the persist workload once (clean shutdown, `rounds` snapshots) and
/// returns what is needed to recover a provider from it — the substrate of
/// the `persist` criterion group, which times `Provider::recover` alone.
pub fn persist_demo_storage(
    rounds: u64,
) -> (
    SimStorage,
    VmImage,
    avm_crypto::keys::SigningKey,
    PersistConfig,
) {
    let keys = keys(29, "host");
    let image = sparse_touch_image(96);
    let cfg = persist_cfg(SyncPolicy::PerBatch, FsyncModel::DISK_2010);
    let storage = SimStorage::new();
    persist_recording(storage.clone(), &image, &keys, cfg, rounds);
    (storage, image, keys.0.signing_key, cfg)
}

/// Durable accountability (ROADMAP; paper §3 — the log *is* the evidence):
/// the recording AVMM mirrored to append-only log segments and blob arenas.
/// Measures the per-entry / per-batch / per-seal fsync trade-off under the
/// modelled 2010-era disk (plus an SSD contrast row), then kills and
/// recovers the provider twice — once after a clean shutdown, once mid-write
/// — and checks the recovered audits: a clean restart must
/// produce spot checks identical to the pre-shutdown provider's, and a crash
/// recovery must truncate the torn tail and still pass.
pub fn exp_persist() -> Vec<(String, u64)> {
    let keys = keys(29, "host");
    let rounds: u64 = 5;
    let image = sparse_touch_image(96);
    let cfg = persist_cfg(SyncPolicy::PerBatch, FsyncModel::DISK_2010);
    let recover = |storage: SimStorage| {
        Provider::recover(
            storage,
            "host",
            &image,
            &GuestRegistry::new(),
            keys.0.signing_key.clone(),
            options(),
            cfg,
        )
        .unwrap()
    };

    // 1. The fsync-policy trade-off: the identical workload under each
    //    policy, with each fsync priced by the disk model.
    let mut m = Vec::new();
    let policies = [
        ("per_entry", SyncPolicy::PerEntry, FsyncModel::DISK_2010),
        ("per_batch", SyncPolicy::PerBatch, FsyncModel::DISK_2010),
        ("per_seal", SyncPolicy::PerSeal, FsyncModel::DISK_2010),
        ("per_entry_ssd", SyncPolicy::PerEntry, FsyncModel::SSD),
    ]
    .map(|(label, policy, model)| {
        let policy_cfg = persist_cfg(policy, model);
        let provider = persist_recording(SimStorage::new(), &image, &keys, policy_cfg, rounds);
        let stats = provider.durability_stats();
        m.push((format!("{label}_syncs"), stats.syncs));
        m.push((format!("{label}_appended_bytes"), stats.appended_bytes));
        m.push((
            format!("{label}_modelled_sync_micros"),
            stats.modelled_sync_micros,
        ));
        (label, stats)
    });

    // 2. Clean shutdown → recovery.  A prune first, so the recovered arena
    //    numbers include compaction; the pre-shutdown spot check is the
    //    reference the recovered one must equal field for field.
    let storage = SimStorage::new();
    let mut provider = persist_recording(storage.clone(), &image, &keys, cfg, rounds);
    let start = rounds - 2;
    provider.prune_snapshots_upto(start).unwrap();
    let before = spot_check_durable(&provider, &image, start);
    drop(provider); // the process dies; only the bytes in `storage` survive
    let (recovered, clean) = recover(storage.reboot());
    let after = spot_check_durable(&recovered, &image, start);
    let audit_identical_after_clean_recovery = before == after;

    // 3. Crash mid-write → recovery by torn-tail truncation.  Arm a byte
    //    budget and keep recording until a write dies mid-record.
    let storage = SimStorage::new();
    let mut provider = persist_recording(storage.clone(), &image, &keys, cfg, rounds);
    storage.set_crash_point(6_000);
    record_sparse(
        Host::Durable(&mut provider),
        &keys.1,
        HostClock::at(1_000_000),
        rounds + 1..rounds + 1_001,
        |i| [(i % 16) as u8, 3],
        |_, _| {},
    )
    .expect_err("crash point never hit");
    assert!(storage.crashed());
    let (crashed_recovered, crash) = recover(storage.reboot());
    let crash_start = crash.snapshots_recovered.saturating_sub(2);
    let crash_check = spot_check_durable(&crashed_recovered, &image, crash_start);
    let audit_consistent_after_crash_recovery = crash_check.consistent;

    assert!(
        audit_identical_after_clean_recovery,
        "clean restart must reproduce the exact pre-shutdown spot check"
    );
    assert!(
        audit_consistent_after_crash_recovery,
        "crash recovery must truncate the torn tail and still pass audits"
    );
    assert_eq!(
        clean.torn_bytes_truncated, 0,
        "clean shutdown tears nothing"
    );
    assert!(
        crash.torn_bytes_truncated > 0,
        "the crash budget must land mid-record"
    );
    assert!(clean.snapshots_verified > 0 && crash.snapshots_verified > 0);

    println!("# Durable accountability: fsync-policy trade-off + crash recovery");
    println!("| sync policy | fsyncs | appended bytes | modelled sync time (ms) |");
    println!("|---|---|---|---|");
    for (label, stats) in &policies {
        println!(
            "| {} | {} | {} | {:.3} |",
            label,
            stats.syncs,
            stats.appended_bytes,
            stats.modelled_sync_micros as f64 / 1000.0
        );
    }
    // The ladder is ordered the way the cost model predicts, without
    // changing what is written.
    let [entry, batch, seal, ssd] = policies.map(|(_, stats)| stats);
    assert!(
        entry.syncs > batch.syncs && batch.syncs > seal.syncs,
        "sync counts must fall from per-entry to per-seal: {} / {} / {}",
        entry.syncs,
        batch.syncs,
        seal.syncs
    );
    assert_eq!(
        entry.appended_bytes, seal.appended_bytes,
        "the sync policy must not change what is written"
    );
    assert!(
        entry.modelled_sync_micros > batch.modelled_sync_micros
            && batch.modelled_sync_micros > seal.modelled_sync_micros
    );
    assert!(
        ssd.modelled_sync_micros * 10 < entry.modelled_sync_micros,
        "the SSD model must undercut the 2010 disk by an order of magnitude"
    );
    println!(
        "\nclean restart: {} entries recovered, {} snapshots rebuilt (base {}), {} entries \
         replayed, {} roots verified; arenas {} blobs / {} B after prune+compaction; \
         audits identical: {audit_identical_after_clean_recovery}",
        clean.entries_recovered,
        clean.snapshots_recovered,
        clean.base_snapshot_id,
        clean.entries_replayed,
        clean.snapshots_verified,
        clean.arena_blobs,
        clean.arena_bytes,
    );
    println!(
        "crash restart: {} B torn tail truncated, {} entries survived (sealed upto {}), {} \
         replayed, {} roots verified; audit consistent: \
         {audit_consistent_after_crash_recovery}",
        crash.torn_bytes_truncated,
        crash.entries_recovered,
        crash.sealed_upto,
        crash.entries_replayed,
        crash.snapshots_verified,
    );

    for (prefix, rep) in [("clean", &clean), ("crash", &crash)] {
        m.push((format!("{prefix}_entries_recovered"), rep.entries_recovered));
        m.push((
            format!("{prefix}_snapshots_recovered"),
            rep.snapshots_recovered,
        ));
        m.push((format!("{prefix}_entries_replayed"), rep.entries_replayed));
        m.push((
            format!("{prefix}_snapshots_verified"),
            rep.snapshots_verified,
        ));
        m.push((format!("{prefix}_arena_blobs"), rep.arena_blobs));
        m.push((format!("{prefix}_arena_bytes"), rep.arena_bytes));
        m.push((
            format!("{prefix}_torn_bytes_truncated"),
            rep.torn_bytes_truncated,
        ));
    }
    m.push((
        "ok_audit_identical_after_clean_recovery".into(),
        audit_identical_after_clean_recovery as u64,
    ));
    m.push((
        "ok_audit_consistent_after_crash_recovery".into(),
        audit_consistent_after_crash_recovery as u64,
    ));
    m
}

// ---------------------------------------------------------------------------
// Fleet-scale auditing: N concurrent sessions against a shared provider node
// ---------------------------------------------------------------------------

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile_us(sorted: &[u64], numerator: u64, denominator: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * numerator).div_ceil(denominator);
    sorted[(rank.max(1) - 1).min(sorted.len() as u64 - 1) as usize]
}

/// Fleet-scale auditing (§2's many-auditors deployment model): N concurrent
/// spot-check sessions interleaved against one sessionful provider node on a
/// shared simulated network, swept over fleet sizes.
///
/// Reports audits/sec, aggregate link throughput and median session
/// completion latency per N, plus the provider's shared-response-cache hit
/// rates.  Pins the semantics: the N=1 run equals a lone `AuditClient`'s
/// report — by construction, since the client runs its audit as that same
/// auditor against that same provider node — and ten auditors of one epoch
/// share encodings.
pub fn exp_fleet() -> Vec<(String, u64)> {
    use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
    use avm_core::fleet::{run_fleet, FleetConfig};
    use avm_net::LinkConfig;

    let registry = GuestRegistry::new();
    let image = sparse_touch_image(96);
    let n_snapshots: u64 = 5;
    let avmm = sparse_host(23, &image, options(), 16, n_snapshots, |_, _| {});

    let start = n_snapshots - 2;
    let k = 1u64;
    let link = LinkConfig::default();

    // The identity pin: a lone client's report.
    let mut client = AuditClient::new(SimNetTransport::new(
        AuditServer::new(avmm.log(), avmm.snapshots()),
        link,
    ));
    let baseline = client
        .spot_check_on_demand(start, k, &image, &registry)
        .unwrap();
    assert!(baseline.consistent, "honest chunk must pass");

    println!("# Fleet auditing: N concurrent sessions, one provider node (start={start}, k={k})");
    println!(
        "| N | audits/s (sim) | µs/audit | p50 µs | wire MB | link MB/s | cache hit/miss | retx |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    let mut n1_identical = false;
    let mut cache_hits_at_n10 = 0u64;
    let mut all_consistent = true;
    for n in [1u64, 10, 100] {
        let config = FleetConfig {
            link,
            auditors: n as usize,
            start_snapshot: start,
            chunk: k,
            inter_arrival_us: 200,
            ..FleetConfig::default()
        };
        let outcome = run_fleet(avmm.log(), avmm.snapshots(), &image, &registry, &config);
        assert!(outcome.event_loop.quiescent, "fleet of {n} must quiesce");
        let audits_ok = outcome
            .reports
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|rep| rep.consistent))
            .count() as u64;
        all_consistent &= audits_ok == n;
        if n == 1 {
            n1_identical = outcome.reports[0]
                .as_ref()
                .is_ok_and(|rep| rep == &baseline);
        }
        let provider = outcome.providers[0];
        if n == 10 {
            cache_hits_at_n10 = provider.cache.hits;
        }
        let mut latencies = outcome.latencies_us.clone();
        latencies.sort_unstable();
        let p50_us = percentile_us(&latencies, 50, 100);
        let sim_elapsed_us = outcome.event_loop.now_us.max(1);
        let us_per_audit = sim_elapsed_us / audits_ok.max(1);
        let wire_bytes: u64 = outcome.node_stats.iter().map(|(_, s)| s.tx_bytes).sum();
        let retransmissions: u64 = outcome
            .reports
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|rep| rep.transport.retransmissions)
            .sum();
        println!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {}/{} | {} |",
            n,
            audits_ok * 1_000_000 / sim_elapsed_us,
            us_per_audit,
            p50_us,
            wire_bytes as f64 / 1e6,
            (wire_bytes * 1_000_000 / sim_elapsed_us) as f64 / 1e6,
            provider.cache.hits,
            provider.cache.misses,
            retransmissions,
        );
        rows.push((format!("n{n}_us_per_audit"), us_per_audit));
        rows.push((format!("n{n}_p50_us"), p50_us));
        rows.push((format!("n{n}_wire_bytes"), wire_bytes));
        rows.push((format!("n{n}_cache_hits"), provider.cache.hits));
        rows.push((format!("n{n}_retransmissions"), retransmissions));
    }
    println!("\nN=1 equal to a lone client: {n1_identical}");
    assert!(n1_identical, "fleet N=1 must equal a lone client");
    assert!(all_consistent, "every fleet session must pass");
    assert!(
        cache_hits_at_n10 > 0,
        "ten auditors of one epoch must share encodings"
    );

    let mut m = vec![
        ("ok_n1_identical".to_string(), n1_identical as u64),
        (
            "ok_cache_hits_at_n10".to_string(),
            (cache_hits_at_n10 > 0) as u64,
        ),
        ("ok_all_consistent".to_string(), all_consistent as u64),
    ];
    m.extend(rows);
    m
}

// ---------------------------------------------------------------------------
// Accountable attestation: attest-then-audit at fleet scale (avm-attest)
// ---------------------------------------------------------------------------

/// Accountable attestation at fleet scale: the avm-db server runs as an
/// attested workload under client churn; a fleet of N auditors each opens a
/// session, challenges the provider's launch (nonce'd
/// [`AttestChallenge`](avm_wire::attest::AttestChallenge) → signed quote →
/// [`LaunchPolicy`](avm_core::attest::LaunchPolicy) verdict) and only then
/// continues into spot-check auditing over the same session.
///
/// Alongside the honest sweep, each tamper class gets its distinct verdict:
/// a tampered initial image (`ImageMismatch`, including a rejected fleet
/// that generates no audit traffic), a boot event log extended after
/// sealing (`BootLogForged`), a replayed stale-nonce quote (`StaleNonce`),
/// and post-launch execution tampering — which attestation *cannot* see
/// (the envelope covers only the launch) and the spot check catches.  A
/// crash/recovery pass pins that a durable provider re-serves byte-identical
/// envelope bytes and passes the same fleet as its unkilled twin.
pub fn exp_attest() -> Vec<(String, u64)> {
    use avm_attest::{AttestationEnvelope, BootEvent, BootEventLog};
    use avm_core::attest::{challenge_nonce, Attestor, LaunchPolicy};
    use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
    use avm_core::fleet::{run_attested_fleet, FleetConfig, FleetOutcome};
    use avm_crypto::sha256::sha256;
    use avm_net::LinkConfig;
    use avm_wire::attest::AttestChallenge;
    use avm_wire::{Decode, Reader};
    use std::collections::HashSet;

    let registry = db_registry();
    let keys = keys(31, "db-host");
    let image = db_image(&DbConfig::new("client"));

    // Churn: the sql-bench stream over 8 rows, a snapshot every 8 requests
    // and one at the end.  When `tamper_before` names a snapshot, guest
    // memory is overwritten right before that snapshot is captured —
    // execution tampering the launch attestation cannot see.
    let record = |tamper_before: Option<u64>| {
        let mut avmm = live_host("db-host", &image, &registry, &keys, options());
        let tamper = |avmm: &mut Avmm, snapshot: u64| {
            if tamper_before == Some(snapshot) {
                let addr = avmm.machine().memory().size() - 64;
                avmm.machine_mut()
                    .memory_mut()
                    .write_u8(addr, 0xAA)
                    .unwrap();
            }
        };
        record_db(Host::Live(&mut avmm), &keys.1, 8, 8, tamper).unwrap();
        avmm.take_snapshot();
        avmm
    };

    let avmm = record(None);
    let n_snapshots = avmm.snapshots().len() as u64;
    let start = n_snapshots - 2;
    let k = 1u64;
    let link = LinkConfig::default();

    let attestor = Attestor::for_avmm(&avmm, &image).unwrap();
    let policy = LaunchPolicy::new(&image, "db-host", SCHEME, keys.0.verifying_key());
    let envelope_bytes = attestor.envelope_bytes().len() as u64;

    // 1. One honest session over SimNetTransport: challenge → verify →
    //    continue into the on-demand spot check on the same session.
    let server = AuditServer::new(avmm.log(), avmm.snapshots()).with_attestor(&attestor);
    let mut session = AuditClient::new(SimNetTransport::new(server, link));
    let challenge = AttestChallenge {
        nonce: challenge_nonce(900, 10_000),
        issued_at_us: 10_000,
    };
    let quote_bytes = attestor.quote(&challenge).encode_to_vec().len() as u64;
    let (session_verdict, session_envelope) = session.attest(&challenge, &policy, 10_500).unwrap();
    let audit_after = session
        .spot_check_on_demand(start, k, &image, &registry)
        .unwrap();
    let honest_session = session_verdict == AttestVerdict::Verified
        && session_envelope.is_some()
        && audit_after.consistent;

    // 2. The honest attested-fleet sweep.
    println!("# Accountable attestation: attest-then-audit fleet (start={start}, k={k})");
    println!("envelope: {envelope_bytes} B, quote: {quote_bytes} B");
    println!("| N | attested | audits ok | p50 µs | p99 µs | wire MB | served | cache hits |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    let mut honest_fleet = true;
    for n in [1u64, 10, 50] {
        let config = FleetConfig {
            link,
            auditors: n as usize,
            start_snapshot: start,
            chunk: k,
            inter_arrival_us: 200,
            ..FleetConfig::default()
        };
        let outcome = run_attested_fleet(
            avmm.log(),
            avmm.snapshots(),
            &image,
            &registry,
            &config,
            &attestor,
            &policy,
        );
        assert!(
            outcome.event_loop.quiescent,
            "attested fleet of {n} must quiesce"
        );
        let attested_ok = outcome
            .attest_verdicts
            .iter()
            .filter(|v| **v == Some(AttestVerdict::Verified))
            .count() as u64;
        let audits_ok = outcome
            .reports
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|rep| rep.consistent))
            .count() as u64;
        honest_fleet &= attested_ok == n && audits_ok == n;
        let mut latencies = outcome.latencies_us.clone();
        latencies.sort_unstable();
        let p50_us = percentile_us(&latencies, 50, 100);
        let wire_bytes: u64 = outcome.node_stats.iter().map(|(_, s)| s.tx_bytes).sum();
        let provider = outcome.providers[0];
        println!(
            "| {} | {} | {} | {} | {} | {:.2} | {} | {} |",
            n,
            attested_ok,
            audits_ok,
            p50_us,
            percentile_us(&latencies, 99, 100),
            wire_bytes as f64 / 1e6,
            provider.requests_served,
            provider.cache.hits,
        );
        rows.push((format!("n{n}_p50_us"), p50_us));
        rows.push((format!("n{n}_wire_bytes"), wire_bytes));
        rows.push((format!("n{n}_requests_served"), provider.requests_served));
        rows.push((format!("n{n}_cache_hits"), provider.cache.hits));
    }

    // 3. Tampered initial image: a provider that booted something else.
    //    Verified directly, then as a fleet — rejected sessions must end at
    //    the challenge, generating no audit traffic.
    let tampered_image = image.clone().with_disk(vec![0xEEu8; 512]);
    let tampered_avmm = live_host("db-host", &tampered_image, &registry, &keys, options());
    let tampered_attestor = Attestor::for_avmm(&tampered_avmm, &tampered_image).unwrap();
    let ch = AttestChallenge {
        nonce: challenge_nonce(901, 20_000),
        issued_at_us: 20_000,
    };
    let (image_tamper, _) = policy.verify(&tampered_attestor.quote(&ch), &ch, 20_500);
    let reject_n = 4usize;
    let reject_cfg = FleetConfig {
        link,
        auditors: reject_n,
        start_snapshot: 0,
        chunk: k,
        inter_arrival_us: 200,
        ..FleetConfig::default()
    };
    let rejected = run_attested_fleet(
        tampered_avmm.log(),
        tampered_avmm.snapshots(),
        &image,
        &registry,
        &reject_cfg,
        &tampered_attestor,
        &policy,
    );
    let reject_fleet_all_mismatch = rejected
        .attest_verdicts
        .iter()
        .all(|v| *v == Some(AttestVerdict::ImageMismatch))
        && rejected.reports.iter().all(|r| r.is_err());
    let reject_fleet_one_request_each = rejected.providers[0].requests_served == reject_n as u64;

    // 4. Boot event log extended after sealing: keep the original seal,
    //    append one event — the recomputed register breaks the seal.
    let envelope = AttestationEnvelope::decode_exact(attestor.envelope_bytes()).unwrap();
    let boot_bytes = envelope.boot.encode_to_vec();
    let mut reader = Reader::new(&boot_bytes);
    let mut events = Vec::<BootEvent>::decode(&mut reader).unwrap();
    let seal = Option::<Vec<u8>>::decode(&mut reader).unwrap();
    events.push(BootEvent {
        label: "avm.extra".to_string(),
        payload_digest: sha256(b"measured after the seal"),
    });
    let forged = AttestationEnvelope {
        boot: BootEventLog::from_parts(events, seal),
        ..envelope
    };
    let forger = Attestor::new(&forged, keys.0.signing_key.clone());
    let ch = AttestChallenge {
        nonce: challenge_nonce(902, 30_000),
        issued_at_us: 30_000,
    };
    let (log_fork, _) = policy.verify(&forger.quote(&ch), &ch, 30_500);

    // 5. Replayed (stale-nonce) attestation: a canned quote for an old
    //    challenge answered to a fresh one.
    let old = AttestChallenge {
        nonce: challenge_nonce(77, 1_000),
        issued_at_us: 1_000,
    };
    let replayer = attestor.clone().with_replayed_quote(attestor.quote(&old));
    let fresh = AttestChallenge {
        nonce: challenge_nonce(903, 50_000),
        issued_at_us: 50_000,
    };
    let (stale_nonce, _) = policy.verify(&replayer.quote(&fresh), &fresh, 50_500);

    let verdicts: HashSet<AttestVerdict> =
        [AttestVerdict::Verified, image_tamper, log_fork, stale_nonce]
            .into_iter()
            .collect();
    let verdicts_distinct = verdicts.len() == 4;

    // 6. Post-launch execution tampering: same honest launch, guest memory
    //    overwritten mid-run.  The launch attestation stays green — and the
    //    spot check over the tampered chunk goes red.  Launch measurement
    //    alone is not accountability; the audit continues where the
    //    envelope's coverage ends.
    let tamper_snapshot = n_snapshots - 2;
    let tampered_exec = record(Some(tamper_snapshot));
    let exec_attestor = Attestor::for_avmm(&tampered_exec, &image).unwrap();
    let ch = AttestChallenge {
        nonce: challenge_nonce(904, 60_000),
        issued_at_us: 60_000,
    };
    let (post_verdict, _) = policy.verify(&exec_attestor.quote(&ch), &ch, 60_500);
    let post_launch_attest_verified = post_verdict == AttestVerdict::Verified;
    let post_report = spot_check(
        tampered_exec.log(),
        tampered_exec.snapshots(),
        tamper_snapshot - 1,
        k,
        &image,
        &registry,
    )
    .unwrap();
    let post_launch_audit_caught = !post_report.consistent;

    // 7. Crash/recovery: a durable twin pair over avm-store, each fed the
    //    stream over 3 rows with a snapshot after every request.  The
    //    recovered provider must re-serve *the* envelope (byte-identical)
    //    and pass the same fleet attest-then-audit as the unkilled twin.
    let pcfg = persist_cfg(SyncPolicy::PerBatch, FsyncModel::DISK_2010);
    let durable = |storage: SimStorage| {
        let mut p = Provider::create(
            storage,
            "db-host",
            &image,
            &registry,
            keys.0.signing_key.clone(),
            options(),
            pcfg,
        )
        .unwrap();
        p.add_peer("client", keys.1.verifying_key());
        record_db(Host::Durable(&mut p), &keys.1, 3, 1, |_, _| {}).unwrap();
        p
    };
    let twin = durable(SimStorage::new());
    let storage = SimStorage::new();
    let victim = durable(storage.clone());
    drop(victim); // the process dies; only the bytes in `storage` survive
    let (recovered, _) = Provider::recover(
        storage.reboot(),
        "db-host",
        &image,
        &registry,
        keys.0.signing_key.clone(),
        options(),
        pcfg,
    )
    .unwrap();
    let recovered_envelope_identical =
        recovered.attestation_envelope_bytes() == twin.attestation_envelope_bytes();
    let recovered_matches_live =
        recovered.attestation_envelope_bytes() == attestor.envelope_bytes();
    let p_start = twin.avmm().snapshots().len() as u64 - 2;
    let fleet_cfg = FleetConfig {
        link,
        auditors: 4,
        start_snapshot: p_start,
        chunk: k,
        inter_arrival_us: 200,
        ..FleetConfig::default()
    };
    let run_provider_fleet = |p: &Provider<SimStorage>, att: &Attestor| {
        run_attested_fleet(
            p.avmm().log(),
            p.avmm().snapshots(),
            &image,
            &registry,
            &fleet_cfg,
            att,
            &policy,
        )
    };
    let twin_out = run_provider_fleet(&twin, twin.attestor());
    let rec_out = run_provider_fleet(&recovered, recovered.attestor());
    let semantic = |o: &FleetOutcome| {
        o.reports
            .iter()
            .map(|r| r.as_ref().ok().cloned())
            .collect::<Vec<_>>()
    };
    let recovered_fleet_matches = rec_out.attest_verdicts == twin_out.attest_verdicts
        && rec_out
            .attest_verdicts
            .iter()
            .all(|v| *v == Some(AttestVerdict::Verified))
        && semantic(&rec_out) == semantic(&twin_out)
        && semantic(&rec_out)
            .iter()
            .all(|r| r.as_ref().is_some_and(|rep| rep.consistent));

    println!(
        "\ntamper verdicts: image={image_tamper}, boot-log fork={log_fork}, replay={stale_nonce} \
         (distinct: {verdicts_distinct}); post-launch tamper: attest says {post_verdict}, \
         audit caught: {post_launch_audit_caught}"
    );
    println!(
        "rejected fleet: all ImageMismatch={reject_fleet_all_mismatch}, one request per \
         session={reject_fleet_one_request_each}"
    );
    println!(
        "crash recovery: envelope identical={recovered_envelope_identical} (matches live \
         recorder: {recovered_matches_live}), recovered fleet matches twin: \
         {recovered_fleet_matches}"
    );

    let mut m: Vec<(String, u64)> = [
        ("ok_honest_session", honest_session),
        ("ok_honest_fleet", honest_fleet),
        (
            "ok_image_tamper_distinct",
            image_tamper == AttestVerdict::ImageMismatch,
        ),
        (
            "ok_log_fork_distinct",
            log_fork == AttestVerdict::BootLogForged,
        ),
        (
            "ok_stale_nonce_distinct",
            stale_nonce == AttestVerdict::StaleNonce,
        ),
        ("ok_verdicts_distinct", verdicts_distinct),
        (
            "ok_post_launch_detected",
            post_launch_attest_verified && post_launch_audit_caught,
        ),
        (
            "ok_reject_no_audit_traffic",
            reject_fleet_all_mismatch && reject_fleet_one_request_each,
        ),
        (
            "ok_recovered_envelope_identical",
            recovered_envelope_identical,
        ),
        ("ok_recovered_matches_live", recovered_matches_live),
        ("ok_recovered_fleet_matches", recovered_fleet_matches),
    ]
    .map(|(key, ok)| (key.to_string(), ok as u64))
    .into();
    m.push(("envelope_bytes".into(), envelope_bytes));
    m.push(("quote_bytes".into(), quote_bytes));
    m.extend(rows);
    m
}

/// The ids that select an experiment, the pin it writes, and the run that
/// produces the pin's metrics.
pub type Experiment = (
    &'static [&'static str],
    &'static str,
    fn() -> Vec<(String, u64)>,
);

/// Every experiment, in the order `experiments all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        &["table1", "functionality", "sec6.3"],
        "BENCH_table1.json",
        exp_table1,
    ),
    (
        &[
            "gamelog",
            "fig3",
            "fig4",
            "loggrowth",
            "sec6.5",
            "clockopt",
            "sec6.7",
            "traffic",
        ],
        "BENCH_gamelog.json",
        exp_gamelog,
    ),
    (
        &["fig9", "sec6.12", "spotcheck"],
        "BENCH_fig9.json",
        exp_spotcheck,
    ),
    (
        &["dedup", "cas", "snapshotdedup"],
        "BENCH_dedup.json",
        exp_snapshot_dedup,
    ),
    (
        &["ondemand", "sec3.5", "partialstate"],
        "BENCH_ondemand.json",
        exp_ondemand,
    ),
    (
        &["chunked", "subpage", "chunks"],
        "BENCH_chunked.json",
        exp_chunked,
    ),
    (
        &["netaudit", "netcheck", "endpoints"],
        "BENCH_netaudit.json",
        exp_netaudit,
    ),
    (
        &["persist", "durability", "crashrecovery"],
        "BENCH_persist.json",
        exp_persist,
    ),
    (
        &["fleet", "sessions", "scale"],
        "BENCH_fleet.json",
        exp_fleet,
    ),
    (
        &["attest", "attestation", "launch"],
        "BENCH_attest.json",
        exp_attest,
    ),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// `experiments <id>` runs the first entry that lists `id`, and two
    /// entries writing one file would overwrite each other's pin: every
    /// selection id and every pin file names one experiment, and no id is
    /// the binary's `all`.
    #[test]
    fn every_id_and_pin_file_names_one_experiment() {
        let ids: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(ids, ..)| ids.iter().copied())
            .collect();
        let files: Vec<&str> = EXPERIMENTS.iter().map(|&(_, file, _)| file).collect();
        assert!(!ids.contains(&"all"), "`all` selects every experiment");
        for names in [ids, files] {
            for (i, name) in names.iter().enumerate() {
                assert!(!names[..i].contains(name), "{name} names two experiments");
            }
        }
    }
}

//! Cross-crate integration tests: end-to-end accountability scenarios that
//! span the VM, the tamper-evident log, the AVMM, the workloads and the
//! audit tool.

use std::collections::HashMap;

use avm_core::audit::audit_log;
use avm_core::config::{AvmmOptions, ExecConfig};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::events::RecvRecord;
use avm_core::multiparty::{AuthenticatorStore, EvidencePool};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::runtime::Runtime;
use avm_core::spotcheck::spot_check;
use avm_crypto::keys::{Identity, SignatureScheme, VerifyingKey};
use avm_db::{db_image, db_registry, server::DbConfig, WorkloadGen};
use avm_game::{cheats, client_image, game_registry, server_image, ClientConfig, ServerConfig};
use avm_log::{EntryKind, TamperEvidentLog};
use avm_net::LinkConfig;
use avm_vm::packet::encode_guest_packet;
use avm_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(20101004) // OSDI'10
}

/// Records a short game-client session driven directly (no network runtime):
/// the server side is emulated by the test.
fn record_game_session(cheat: Option<u32>) -> (Avmm, Identity, Identity, avm_vm::VmImage) {
    let registry = game_registry();
    let mut rng = rng();
    let scheme = SignatureScheme::Rsa(512);
    let player_id = Identity::generate(&mut rng, "player", scheme);
    let server_id = Identity::generate(&mut rng, "server", scheme);
    let mut cfg = ClientConfig::new("player", "server");
    if let Some(c) = cheat {
        cfg = cfg.with_cheat(c);
    }
    let image = client_image(&cfg);
    let reference = client_image(&ClientConfig::new("player", "server"));
    let mut avmm = Avmm::new(
        "player",
        &image,
        &registry,
        player_id.signing_key.clone(),
        AvmmOptions::for_config(ExecConfig::AvmmRsa768).with_scheme(scheme),
    )
    .unwrap();
    avmm.add_peer("server", server_id.verifying_key());

    let mut clock = HostClock::at(1_000);
    avmm.inject_input(avm_vm::devices::InputEvent {
        device: 0,
        code: avm_game::client::INPUT_FIRE,
        value: 1,
    });
    for _ in 0..12 {
        clock.advance_to(clock.now() + 40_000);
        avmm.run_slice(&clock, 20_000).unwrap();
    }
    (avmm, player_id, server_id, reference)
}

#[test]
fn honest_game_client_passes_end_to_end_audit() {
    let (avmm, player_id, _, reference) = record_game_session(None);
    assert!(avmm.stats().packets_out > 0, "the client sent no updates");
    let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
    let report = audit_log(
        "player",
        &prev,
        &segment,
        &[],
        &player_id.verifying_key(),
        &reference,
        &game_registry(),
    );
    assert!(report.passed(), "{:?}", report.fault());
}

#[test]
fn every_class2_cheat_is_caught_even_with_forged_meta() {
    // The four network-visible cheats of Table 1: caught regardless of how
    // the cheater frames his log.
    for name in [
        "unlimited-ammo",
        "unlimited-health",
        "rapid-fire",
        "teleport",
    ] {
        let cheat = cheats::cheat_by_name(name).unwrap();
        let (avmm, player_id, _, reference) = record_game_session(Some(cheat.id));
        // The cheater claims the official image.
        let mut forged = avm_log::TamperEvidentLog::new();
        for e in avmm.log().entries() {
            let content = if e.kind == EntryKind::Meta {
                avm_core::events::MetaRecord {
                    image_digest: reference.digest(),
                    node_name: "player".into(),
                    scheme_label: "rsa512".into(),
                }
                .encode_to_vec()
            } else {
                e.content.clone()
            };
            forged.append(e.kind, content);
        }
        let (prev, segment) = forged.segment(1, forged.len() as u64).unwrap();
        let report = audit_log(
            "player",
            &prev,
            &segment,
            &[],
            &player_id.verifying_key(),
            &reference,
            &game_registry(),
        );
        assert!(!report.passed(), "cheat '{name}' was not detected");
    }
}

#[test]
fn evidence_against_cheater_convinces_third_party_and_fills_pool() {
    let cheat = cheats::cheat_by_name("speedhack").unwrap();
    let (avmm, player_id, _, reference) = record_game_session(Some(cheat.id));
    let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
    let report = audit_log(
        "player",
        &prev,
        &segment,
        &[],
        &player_id.verifying_key(),
        &reference,
        &game_registry(),
    );
    let avm_core::audit::AuditOutcome::Fail(evidence) = report.outcome else {
        panic!("cheater passed the audit");
    };
    // Charlie verifies Alice's evidence independently and blacklists the cheater.
    let mut pool = EvidencePool::new();
    assert!(pool.submit(
        *evidence,
        &player_id.verifying_key(),
        &reference,
        &game_registry()
    ));
    assert!(pool.is_exposed("player"));
}

#[test]
fn multiparty_authenticator_collection_feeds_the_audit() {
    let (avmm, player_id, _, reference) = record_game_session(None);
    // Another user collected authenticators from the player's messages.
    let mut store = AuthenticatorStore::new();
    if let Some(head) = avmm.head_authenticator() {
        store.add("player", head);
    }
    let collected = store.for_machine("player");
    assert!(!collected.is_empty());

    // An audit using the collected authenticators still passes for the
    // honest machine.
    let last_seq = collected.last().unwrap().seq;
    let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
    let in_range: Vec<_> = collected
        .into_iter()
        .filter(|a| a.seq <= last_seq)
        .collect();
    let report = audit_log(
        "player",
        &prev,
        &segment,
        &in_range,
        &player_id.verifying_key(),
        &reference,
        &game_registry(),
    );
    assert!(report.passed(), "{:?}", report.fault());
}

/// Records the database guest serving the workload over `rows` rows (four
/// requests per row), with a snapshot every 16 requests; returns the host's AVMM, the operator's and the
/// customer's identities and the image.
fn record_db_session(rows: u64) -> (Avmm, Identity, Identity, avm_vm::VmImage) {
    let registry = db_registry();
    let mut rng = rng();
    let scheme = SignatureScheme::Rsa(512);
    let operator = Identity::generate(&mut rng, "host", scheme);
    let customer = Identity::generate(&mut rng, "customer", scheme);
    let cfg = DbConfig::new("customer");
    let image = db_image(&cfg);
    let mut avmm = Avmm::new(
        "host",
        &image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(scheme),
    )
    .unwrap();
    avmm.add_peer("customer", customer.verifying_key());

    let mut clock = HostClock::at(500);
    avmm.run_slice(&clock, 20_000).unwrap();
    let mut workload = WorkloadGen::new(rows);
    let mut msg = 0u64;
    let mut n = 0u64;
    while let Some(req) = workload.next_request() {
        msg += 1;
        n += 1;
        clock.advance_to(clock.now() + 2_000);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "customer",
            "host",
            msg,
            encode_guest_packet("host", &req.encode_to_vec()),
            &customer.signing_key,
            None,
        );
        avmm.deliver(&env).unwrap();
        avmm.run_slice(&clock, 50_000).unwrap();
        if n.is_multiple_of(16) {
            avmm.take_snapshot();
        }
    }
    avmm.take_snapshot();
    (avmm, operator, customer, image)
}

#[test]
fn database_workload_spot_check_end_to_end() {
    let registry = db_registry();
    let (avmm, operator, _, image) = record_db_session(12);
    assert!(avmm.snapshots().len() >= 3);

    // Spot-check a middle chunk; it passes and costs less than a full audit.
    let report = spot_check(avmm.log(), avmm.snapshots(), 1, 1, &image, &registry).unwrap();
    assert!(report.consistent, "{:?}", report.fault);
    assert!(report.entries_replayed < avmm.log().len() as u64);

    // A full audit passes too.
    let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
    let full = audit_log(
        "host",
        &prev,
        &segment,
        &[],
        &operator.verifying_key(),
        &image,
        &registry,
    );
    assert!(full.passed(), "{:?}", full.fault());
}

#[test]
fn exec_config_matrix_is_consistent_with_options() {
    for config in ExecConfig::ALL {
        let options = AvmmOptions::for_config(config);
        assert_eq!(options.tamper_evident, config.tamper_evident());
        assert_eq!(options.signature_scheme, config.signature_scheme());
    }
}

/// Rebuilds the envelope behind every RECV entry of `host`'s log — sender,
/// msg id, payload and signature as the record logged them, `host` as the
/// recipient — and checks it under the sender's key; returns how many it
/// checked.  A RECV whose msg id is off by one must not check: the id is
/// part of what the sender signed.
fn check_recv_envelopes(
    host: &str,
    log: &TamperEvidentLog,
    keys: &HashMap<String, VerifyingKey>,
) -> usize {
    let mut checked = 0;
    for entry in log.entries().iter().filter(|e| e.kind == EntryKind::Recv) {
        let rec = RecvRecord::decode_exact(&entry.content).unwrap();
        let key = &keys[&rec.source];
        let mut envelope = Envelope {
            kind: EnvelopeKind::Data,
            from: rec.source,
            to: host.to_string(),
            msg_id: rec.msg_id,
            payload: rec.payload,
            signature: rec.signature,
            authenticator: None,
        };
        envelope
            .verify_signature(key)
            .unwrap_or_else(|e| panic!("{host}: RECV {} does not check: {e:?}", entry.seq));
        envelope.msg_id += 1;
        assert!(
            envelope.verify_signature(key).is_err(),
            "{host}: RECV {} checks under another msg id",
            entry.seq
        );
        checked += 1;
    }
    checked
}

/// A RECV entry holds all its sender signed: the log and the sender's key
/// suffice to check it, on the database host and on every game host.
#[test]
fn every_recv_entry_carries_the_envelope_its_sender_signed() {
    let (db, _, customer, _) = record_db_session(2);
    let keys = HashMap::from([("customer".to_string(), customer.verifying_key())]);
    assert_eq!(check_recv_envelopes("host", db.log(), &keys), 8);

    let registry = game_registry();
    let mut rng = rng();
    let scheme = SignatureScheme::Rsa(512);
    let players = ["alice", "bob"];
    let ids: Vec<Identity> = ["alice", "bob", "server"]
        .iter()
        .map(|name| Identity::generate(&mut rng, name, scheme))
        .collect();
    let options = AvmmOptions::for_config(ExecConfig::AvmmRsa768).with_scheme(scheme);
    let mut rt = Runtime::new(LinkConfig::default());
    rt.set_steps_per_slice(30_000);
    let names: Vec<String> = players.iter().map(|p| p.to_string()).collect();
    let mut server = Avmm::new(
        "server",
        &server_image(&ServerConfig::new("server", &names)),
        &registry,
        ids[2].signing_key.clone(),
        options.clone(),
    )
    .unwrap();
    for (i, player) in players.iter().enumerate() {
        let mut avmm = Avmm::new(
            player,
            &client_image(&ClientConfig::new(player, "server")),
            &registry,
            ids[i].signing_key.clone(),
            options.clone(),
        )
        .unwrap();
        avmm.add_peer("server", ids[2].verifying_key());
        server.add_peer(player, ids[i].verifying_key());
        rt.add_host(avmm);
    }
    rt.add_host(server);
    rt.run_for(200_000, 10_000).unwrap();
    let keys: HashMap<String, VerifyingKey> = ["alice", "bob", "server"]
        .iter()
        .zip(&ids)
        .map(|(name, id)| (name.to_string(), id.verifying_key()))
        .collect();
    for host in ["alice", "bob", "server"] {
        let checked = check_recv_envelopes(host, rt.host(host).unwrap().log(), &keys);
        assert!(checked > 0, "{host} received nothing");
    }
}

//! Cross-crate integration tests: end-to-end accountability scenarios that
//! span the VM, the tamper-evident log, the AVMM, the workloads and the
//! audit tool.

use avm_core::audit::audit_log;
use avm_core::config::{AvmmOptions, ExecConfig};
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::multiparty::{AuthenticatorStore, EvidencePool};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::spotcheck::spot_check;
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_db::{db_image, db_registry, server::DbConfig, WorkloadGen};
use avm_game::{cheats, client_image, game_registry, ClientConfig};
use avm_log::EntryKind;
use avm_vm::packet::encode_guest_packet;
use avm_wire::Encode;
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

#[test]
fn database_workload_spot_check_end_to_end() {
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
    let mut workload = WorkloadGen::new(12);
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

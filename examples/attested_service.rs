//! A confidential service that proves *what it booted* before anyone
//! trusts *how it ran* — and keeps that proof across a crash.
//!
//! Attestation and accountability meet in the middle: the attestation
//! envelope binds the guest image measurement and the sealed boot event
//! log to the genesis authenticator of the provider's tamper-evident log,
//! so the auditor who verifies the launch holds the anchor of the very
//! chain they then spot-check.  This example runs the whole arc on real
//! files:
//!
//! 1. a [`Provider`] boots the avm-db guest with durable storage, records
//!    a workload, and serves an attested fleet: every auditor challenges
//!    the launch (nonce → quote → verdict) before auditing;
//! 2. the process crashes — only the bytes on disk survive;
//! 3. [`Provider::recover`] rebuilds log, snapshots *and attestor*; the
//!    recovered envelope is byte-identical to the original, so a second
//!    fleet verifies the same launch and audits the same chain;
//! 4. a provider that booted a tampered image is challenged by the same
//!    fleet and rejected at the door ([`AttestVerdict::ImageMismatch`]),
//!    with zero audit traffic spent on it.
//!
//! ```text
//! cargo run --release -p avm-examples --example attested_service
//! ```

use avm_core::attest::LaunchPolicy;
use avm_core::config::AvmmOptions;
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::fleet::{run_attested_fleet, FleetConfig};
use avm_core::persist::{PersistConfig, Provider};
use avm_core::recorder::HostClock;
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_db::{db_image, db_registry, server::DbConfig, WorkloadGen};
use avm_store::FileStorage;
use avm_vm::VmImage;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let registry = db_registry();
    let scheme = SignatureScheme::Rsa(512);
    let mut rng = StdRng::seed_from_u64(23);
    let operator = Identity::generate(&mut rng, "enclave-host", scheme);
    let customer = Identity::generate(&mut rng, "customer", scheme);

    let cfg = DbConfig::new("customer");
    let image = db_image(&cfg);

    let root = std::env::temp_dir().join("avm_attested_service_example");
    let _ = std::fs::remove_dir_all(&root);

    // 1. Boot the guest with durable storage and record a workload.  The
    //    attestation envelope is built at launch from the image measurement
    //    and the META log entry, and persisted alongside the log.
    let storage = FileStorage::open(&root).unwrap();
    let mut provider = Provider::create(
        storage,
        "enclave-host",
        &image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(scheme),
        PersistConfig::default(),
    )
    .unwrap();
    provider.add_peer("customer", customer.verifying_key());
    let envelope_at_launch = provider.attestation_envelope_bytes().to_vec();

    let mut clock = HostClock::at(1_000);
    let mut workload = WorkloadGen::new(6);
    let mut msg_id = 0;
    provider.run_slice(&clock, 50_000).unwrap();
    while let Some(packet) = workload.next_packet("enclave-host") {
        msg_id += 1;
        clock.advance_to(clock.now() + 3_000);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "customer",
            "enclave-host",
            msg_id,
            packet,
            &customer.signing_key,
            None,
        );
        provider.deliver(&env).unwrap();
        provider.run_slice(&clock, 100_000).unwrap();
        if msg_id % 8 == 0 {
            provider.take_snapshot().unwrap();
        }
    }
    provider.take_snapshot().unwrap();
    let snapshots = provider.avmm().snapshots().len() as u64;
    println!(
        "recorded: {} log entries, {snapshots} snapshots, envelope {} bytes",
        provider.avmm().log().len(),
        envelope_at_launch.len()
    );

    // The auditors' reference: the image they expect, the name and scheme it
    // must run under, and the operator's public key.
    let policy = LaunchPolicy::new(&image, "enclave-host", scheme, operator.verifying_key());
    let fleet = FleetConfig {
        auditors: 8,
        start_snapshot: snapshots - 2,
        chunk: 1,
        inter_arrival_us: 400,
        ..FleetConfig::default()
    };

    let outcome = run_attested_fleet(
        provider.avmm().log(),
        provider.avmm().snapshots(),
        &image,
        &registry,
        &fleet,
        provider.attestor(),
        &policy,
    );
    report("live provider", &outcome, true);

    // 2. Crash: drop the provider; only the directory remains.
    drop(provider);

    // 3. Recover and re-attest.  Envelope construction is deterministic
    //    (same image, name, key), so the recovered provider serves *the*
    //    envelope, byte for byte — attestation survives the crash exactly
    //    as the accountability chain does.
    let storage = FileStorage::open(&root).unwrap();
    let (recovered, recovery) = Provider::recover(
        storage,
        "enclave-host",
        &image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(scheme),
        PersistConfig::default(),
    )
    .unwrap();
    assert_eq!(
        recovered.attestation_envelope_bytes(),
        &envelope_at_launch[..]
    );
    println!(
        "recovered: {} entries, {} snapshots, envelope byte-identical to launch",
        recovery.entries_recovered, recovery.snapshots_recovered
    );

    let outcome = run_attested_fleet(
        recovered.avmm().log(),
        recovered.avmm().snapshots(),
        &image,
        &registry,
        &fleet,
        recovered.attestor(),
        &policy,
    );
    report("recovered provider", &outcome, true);

    // 4. A provider that booted something else entirely: same operator key,
    //    same node name, different image bytes.  Its quotes are honest about
    //    what it measured — which is exactly how it gets caught.
    let rogue_image = tampered(&image);
    let rogue_root = std::env::temp_dir().join("avm_attested_service_rogue");
    let _ = std::fs::remove_dir_all(&rogue_root);
    let rogue = Provider::create(
        FileStorage::open(&rogue_root).unwrap(),
        "enclave-host",
        &rogue_image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(scheme),
        PersistConfig::default(),
    )
    .unwrap();
    let outcome = run_attested_fleet(
        rogue.avmm().log(),
        rogue.avmm().snapshots(),
        &rogue_image,
        &registry,
        &FleetConfig {
            auditors: 4,
            start_snapshot: 0,
            chunk: 1,
            inter_arrival_us: 400,
            ..FleetConfig::default()
        },
        rogue.attestor(),
        &policy,
    );
    report("rogue provider", &outcome, false);

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&rogue_root);
    println!("ok: verified launches audited, the rogue rejected at the door");
}

/// The booted image with its disk contents swapped — a different workload
/// hiding behind the same name.
fn tampered(image: &VmImage) -> VmImage {
    image.clone().with_disk(vec![0xEEu8; 512])
}

/// Prints one fleet's outcome and asserts the expected shape.
fn report(label: &str, outcome: &avm_core::fleet::FleetOutcome, expect_verified: bool) {
    let verified = outcome
        .attest_verdicts
        .iter()
        .filter(|v| matches!(v, Some(avm_attest::AttestVerdict::Verified)))
        .count();
    let audited = outcome
        .reports
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|r| r.consistent))
        .count();
    println!(
        "{label}: {}/{} launches verified, {audited} consistent audits",
        verified,
        outcome.attest_verdicts.len()
    );
    if expect_verified {
        assert_eq!(verified, outcome.attest_verdicts.len());
        assert_eq!(audited, outcome.reports.len());
    } else {
        assert_eq!(verified, 0);
        assert_eq!(audited, 0, "rejected sessions must carry no audit traffic");
        for verdict in &outcome.attest_verdicts {
            assert_eq!(*verdict, Some(avm_attest::AttestVerdict::ImageMismatch));
        }
    }
}

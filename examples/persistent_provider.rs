//! A durable provider surviving a crash and then serving a fleet audit.
//!
//! The paper's accountability story only works if the provider's log
//! outlives the provider's process: an auditor who shows up *after* a
//! power cut must still get the same tamper-evident chain.  This example
//! wires the pieces end to end on real files:
//!
//! 1. a [`Provider`] records a database workload with periodic snapshots,
//!    mirroring every log entry and snapshot manifest to a directory via
//!    `FileStorage`;
//! 2. the process "crashes" — the `Provider` is dropped and only the bytes
//!    on disk survive;
//! 3. [`Provider::recover`] rebuilds the log from the segment files,
//!    re-verifies the recorded state roots by replay, and resumes;
//! 4. a fleet of concurrent auditors spot-checks the *recovered* provider
//!    over the simulated network ([`run_fleet`]), sharing one response
//!    cache on the provider node.
//!
//! ```text
//! cargo run --release -p avm-examples --example persistent_provider
//! ```

use avm_core::config::AvmmOptions;
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::fleet::{run_fleet, FleetConfig};
use avm_core::persist::{PersistConfig, Provider};
use avm_core::recorder::HostClock;
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_db::{db_image, db_registry, server::DbConfig, WorkloadGen};
use avm_store::FileStorage;
use avm_vm::packet::encode_guest_packet;
use avm_wire::Encode;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let registry = db_registry();
    let scheme = SignatureScheme::Rsa(512);
    let mut rng = StdRng::seed_from_u64(17);
    let operator = Identity::generate(&mut rng, "cloud-host", scheme);
    let customer = Identity::generate(&mut rng, "customer", scheme);

    let cfg = DbConfig::new("customer");
    let image = db_image(&cfg);

    // Everything durable lives directly under this directory: log segment
    // files, seals, snapshot-manifest blobs.
    let root = std::env::temp_dir().join("avm_persistent_provider_example");
    let _ = std::fs::remove_dir_all(&root);
    let storage = FileStorage::open(&root).unwrap();

    // 1. Record: every log entry is flushed to the segment files as it is
    //    appended, every snapshot's manifest into a blob arena.
    let mut provider = Provider::create(
        storage,
        "cloud-host",
        &image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(scheme),
        PersistConfig::default(),
    )
    .unwrap();
    provider.add_peer("customer", customer.verifying_key());

    let mut clock = HostClock::at(1_000);
    let mut workload = WorkloadGen::new(33);
    let mut msg_id = 0;
    let mut since_snapshot = 0;
    provider.run_slice(&clock, 50_000).unwrap();
    while let Some(req) = workload.next_request() {
        msg_id += 1;
        clock.advance_to(clock.now() + 3_000);
        let env = Envelope::create(
            EnvelopeKind::Data,
            "customer",
            "cloud-host",
            msg_id,
            encode_guest_packet("cloud-host", &req.encode_to_vec()),
            &customer.signing_key,
            None,
        );
        provider.deliver(&env).unwrap();
        provider.run_slice(&clock, 100_000).unwrap();
        since_snapshot += 1;
        if since_snapshot == 25 {
            provider.take_snapshot().unwrap();
            since_snapshot = 0;
        }
    }
    provider.take_snapshot().unwrap();
    let recorded_entries = provider.avmm().log().len();
    let recorded_snapshots = provider.avmm().snapshots().len();
    println!(
        "recorded: {} log entries, {} snapshots, {} requests -> {} segment files in {}",
        recorded_entries,
        recorded_snapshots,
        workload.issued(),
        provider.segment_files(),
        root.display()
    );

    // 2. Crash.  No shutdown hook runs; the in-memory AVMM, snapshot store
    //    and caches are simply gone.
    drop(provider);

    // 3. Recover from the bytes alone.  The chain is re-verified (hashes,
    //    seal signatures) and the tail replayed from the last durable
    //    snapshot, checking state roots like an auditor would.
    let storage = FileStorage::open(&root).unwrap();
    let (recovered, report) = Provider::recover(
        storage,
        "cloud-host",
        &image,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(scheme),
        PersistConfig::default(),
    )
    .unwrap();
    println!(
        "recovered: {} entries, {} snapshots rebuilt, tail of {} entries replayed, {} state roots verified",
        report.entries_recovered,
        report.snapshots_recovered,
        report.entries_replayed,
        report.snapshots_verified
    );
    assert_eq!(recovered.avmm().log().len(), recorded_entries);
    assert_eq!(recovered.avmm().snapshots().len(), recorded_snapshots);

    // 4. Serve a fleet audit from the recovered log: 12 auditors
    //    spot-check the same chunk concurrently over one simulated network,
    //    so the provider's shared response cache pays the log/manifest
    //    encoding once.
    let fleet = FleetConfig {
        auditors: 12,
        start_snapshot: 1,
        chunk: 1,
        inter_arrival_us: 400,
        ..FleetConfig::default()
    };
    let outcome = run_fleet(
        recovered.avmm().log(),
        recovered.avmm().snapshots(),
        &image,
        &registry,
        &fleet,
    );
    assert!(outcome.event_loop.quiescent);
    let mut consistent = 0;
    for report in &outcome.reports {
        let report = report.as_ref().expect("fleet session failed");
        assert!(report.consistent);
        consistent += 1;
    }
    let stats = &outcome.providers[0];
    println!(
        "fleet audit of the recovered provider: {}/{} sessions consistent, \
         {} requests served, cache {} hits / {} misses, slowest session {} µs",
        consistent,
        fleet.auditors,
        stats.requests_served,
        stats.cache.hits,
        stats.cache.misses,
        outcome.latencies_us.iter().max().copied().unwrap_or(0)
    );
    assert!(stats.cache.hits > 0);

    let _ = std::fs::remove_dir_all(&root);
    println!("ok: the crash cost nothing an auditor could notice");
}

//! Criterion benchmarks backing the paper's evaluation.
//!
//! One benchmark group per kernel the evaluation leans on, each timed
//! against the reference it replaced.  Whole record → audit paths are timed
//! end to end by the standalone `bench/` package, and the deterministic
//! tables and figures come from the `experiments` binary.

use criterion::{criterion_group, criterion_main, Criterion};

use avm_bench::scenario::GameScenario;
use avm_compress::{compress, CompressionLevel};
use avm_core::config::ExecConfig;
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_log::{EntryKind, TamperEvidentLog};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Figure 5 substrate: the per-packet signature generation / verification
/// that dominates the avmm-rsa768 ping time.
fn bench_fig5_signatures(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(768));
    let verifier = key.verifying_key();
    let payload = [0u8; 60];
    let sig = key.sign(&payload);
    let mut group = c.benchmark_group("fig5_ping_rtt");
    group.sample_size(10);
    group.bench_function("rsa768_sign_packet", |b| b.iter(|| key.sign(&payload)));
    group.bench_function("rsa768_verify_packet", |b| {
        b.iter(|| verifier.verify(&payload, &sig).unwrap())
    });
    group.finish();
}

/// Figures 3/4 substrate: tamper-evident log append and compression.
fn bench_fig3_fig4_logging(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_fig4_log_growth");
    group.sample_size(10);
    group.bench_function("append_1000_entries", |b| {
        b.iter(|| {
            let mut log = TamperEvidentLog::new();
            for i in 0..1000u64 {
                log.append(EntryKind::NdEvent, i.to_le_bytes().to_vec());
            }
            log.len()
        })
    });
    let mut log = TamperEvidentLog::new();
    for i in 0..5000u64 {
        log.append(EntryKind::NdEvent, (i * 37).to_le_bytes().to_vec());
    }
    let bytes = log.to_bytes();
    group.bench_function("compress_log", |b| {
        b.iter(|| compress(&bytes, CompressionLevel::Fast).len())
    });
    group.finish();
}

/// Figure 7 substrate: a short game session in the fastest and the slowest
/// configuration.
fn bench_fig7_framerate(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_framerate");
    group.sample_size(10);
    for config in [ExecConfig::BareHw, ExecConfig::AvmmRsa768] {
        group.bench_function(config.label(), |b| {
            b.iter(|| {
                let mut s = GameScenario::standard(config, 200_000);
                s.rsa_bits = 512;
                s.steps_per_tick = 8_000;
                let result = s.run();
                result.frames_rendered(&result.players[1].clone())
            })
        });
    }
    group.finish();
}

/// §6.12 substrate: content-addressed snapshot storage.  `push_dedup_hit`
/// interns a full capture whose pages are already pooled (the steady-state
/// cost of a snapshot on an idle guest); `transfer_compress` measures the
/// compression-aware transfer model end to end.
fn bench_snapshot_dedup(c: &mut Criterion) {
    use avm_bench::experiments::{snapshot_image, snapshot_machine};
    use avm_core::snapshot::{capture_with_cache, SnapshotStore, StateTreeCache};

    let pages = 256usize;
    let mut group = c.benchmark_group("snapshot_dedup");
    group.sample_size(10);

    let mut machine = snapshot_machine(pages, 16);
    let mut cache = StateTreeCache::new();
    let mut store = SnapshotStore::new();
    let mut id = 0u64;
    store.push(capture_with_cache(&mut machine, &mut cache, id, true));
    group.bench_function(format!("push_dedup_hit_{pages}p"), |b| {
        b.iter(|| {
            id += 1;
            let snap = capture_with_cache(&mut machine, &mut cache, id, true);
            store.push(snap);
            store.stored_payload_bytes()
        })
    });

    let image = snapshot_image(pages, 16);
    let registry = avm_vm::GuestRegistry::new();
    group.bench_function(format!("materialize_pooled_{pages}p"), |b| {
        b.iter(|| {
            store
                .materialize(0, &image, &registry)
                .unwrap()
                .step_count()
        })
    });
    group.bench_function(format!("transfer_compress_{pages}p"), |b| {
        b.iter(|| {
            store
                .transfer_cost_upto(0, CompressionLevel::Fast)
                .compressed_bytes
        })
    });
    group.finish();
}

/// Figure 6 substrate: the incremental state-root pipeline versus a full
/// Merkle rebuild, plus the Montgomery RSA hot path versus the naive
/// baseline.  The acceptance bar: >=5x at 256+ pages with one dirty page,
/// and Montgomery sign/verify clearly ahead of `sign_digest_slow`.
fn bench_fig6_snapshot_incremental(c: &mut Criterion) {
    use avm_bench::experiments::snapshot_machine;
    use avm_core::snapshot::{build_state_tree_uncached, StateTreeCache};
    use avm_crypto::rsa::RsaKeyPair;
    use avm_crypto::sha256::sha256;
    use avm_vm::PAGE_SIZE;

    let mut group = c.benchmark_group("fig6_snapshot_incremental");
    group.sample_size(10);
    for &pages in &[256usize, 1024] {
        let mut machine = snapshot_machine(pages, 16);
        group.bench_function(format!("full_rebuild_{pages}p"), |b| {
            b.iter(|| build_state_tree_uncached(&machine).root())
        });
        let mut cache = StateTreeCache::new();
        cache.refresh(&machine);
        machine.memory_mut().clear_dirty();
        machine.devices_mut().disk.clear_dirty();
        let mut next = 0usize;
        group.bench_function(format!("incremental_1dirty_{pages}p"), |b| {
            b.iter(|| {
                let page = next % pages;
                next += 1;
                machine
                    .memory_mut()
                    .write_u8((page * PAGE_SIZE) as u64, next as u8)
                    .unwrap();
                let root = cache.refresh(&machine);
                machine.memory_mut().clear_dirty();
                machine.devices_mut().disk.clear_dirty();
                root
            })
        });
    }
    // RSA-768: CRT + Montgomery fixed-window versus the naive baseline.
    let mut rng = StdRng::seed_from_u64(768);
    let kp = RsaKeyPair::generate(&mut rng, 768);
    let digest = sha256(b"per-packet authenticator");
    assert_eq!(
        kp.private.sign_digest(&digest),
        kp.private.sign_digest_slow(&digest),
        "optimised signature must be bit-identical to the naive baseline"
    );
    group.bench_function("rsa768_sign_montgomery_crt", |b| {
        b.iter(|| kp.private.sign_digest(&digest))
    });
    group.bench_function("rsa768_sign_slow_baseline", |b| {
        b.iter(|| kp.private.sign_digest_slow(&digest))
    });
    let sig = kp.private.sign_digest(&digest);
    group.bench_function("rsa768_verify", |b| {
        b.iter(|| kp.public().verify_digest(&digest, &sig).unwrap())
    });
    group.finish();
}

/// The parallel chunk-hash stage: `sha256_batch`'s scoped split versus a
/// serial hash loop over the same dirty-chunk batch and versus one part of
/// the multi-buffer core (`sha256_multi` on the calling thread, what the
/// split runs in each part), plus the end-to-end
/// `StateTreeCache::refresh` with a large dirty set (which routes its leaf
/// hashing through the split).  The gap between the one-part row and the
/// split is what the threads buy; on one core it does not split.
fn bench_parallel_chunk_hashing(c: &mut Criterion) {
    use avm_bench::experiments::snapshot_machine;
    use avm_core::snapshot::StateTreeCache;
    use avm_crypto::parallel::sha256_batch;
    use avm_crypto::sha256::{sha256, sha256_multi};
    use avm_vm::{CHUNK_SIZE, PAGE_SIZE};

    let mut group = c.benchmark_group("parallel_chunk_hashing");
    group.sample_size(10);
    // 4096 chunks (2 MiB) of non-trivial data, the dirty set of a busy
    // large guest between two snapshots.
    let chunks: Vec<Vec<u8>> = (0..4096usize)
        .map(|i| {
            (0..CHUNK_SIZE)
                .map(|j| (i * 31 + j * 7) as u8)
                .collect::<Vec<u8>>()
        })
        .collect();
    let slices: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let serial: Vec<_> = slices.iter().map(|s| sha256(s)).collect();
    assert_eq!(
        sha256_batch(&slices),
        serial,
        "the split must be bit-identical to serial hashing"
    );
    assert_eq!(sha256_multi(&slices), serial, "and so must one part");
    group.bench_function("serial_sha256_4096x512B", |b| {
        b.iter(|| slices.iter().map(|s| sha256(s)).collect::<Vec<_>>())
    });
    group.bench_function("one_part_sha256_multi_4096x512B", |b| {
        b.iter(|| sha256_multi(&slices))
    });
    group.bench_function("split_sha256_4096x512B", |b| {
        b.iter(|| sha256_batch(&slices))
    });
    // End to end: a refresh with 512 dirty chunks on a 1024-page guest.
    let pages = 1024usize;
    let mut machine = snapshot_machine(pages, 16);
    let mut cache = StateTreeCache::new();
    cache.refresh(&machine);
    machine.clear_dirty_tracking();
    let mut round = 0u8;
    group.bench_function("refresh_512_dirty_chunks_1024p", |b| {
        b.iter(|| {
            round = round.wrapping_add(1);
            for p in 0..512usize {
                machine
                    .memory_mut()
                    .write_u8((p * PAGE_SIZE) as u64, round)
                    .unwrap();
            }
            let root = cache.refresh(&machine);
            machine.clear_dirty_tracking();
            root
        })
    });
    group.finish();
}

/// The raw-speed crypto floor, each optimised core against the reference it
/// replaced: multi-buffer SHA-256 versus the scalar loop on 512 B chunk
/// leaves, and borrowed-slice audit-response decoding versus the owned
/// decode.  Every pair asserts bit-identity before timing.  (The Montgomery
/// RSA-768 signer is timed against `sign_digest_slow` in
/// `fig6_snapshot_incremental`.)
fn bench_crypto_floor(c: &mut Criterion) {
    use avm_crypto::sha256::{sha256, sha256_multi};
    use avm_vm::CHUNK_SIZE;
    use avm_wire::audit::seal_session_message;
    use avm_wire::{AuditResponse, AuditResponseRef, BlobResponse, Decode};

    let mut group = c.benchmark_group("crypto_floor");
    group.sample_size(10);

    // Multi-buffer SHA-256 on the Merkle leaf shape (512 B chunks).
    let chunks: Vec<Vec<u8>> = (0..4096usize)
        .map(|i| {
            (0..CHUNK_SIZE)
                .map(|j| (i * 131 + j * 11) as u8)
                .collect::<Vec<u8>>()
        })
        .collect();
    let slices: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let scalar: Vec<_> = slices.iter().map(|s| sha256(s)).collect();
    assert_eq!(
        sha256_multi(&slices),
        scalar,
        "multi-buffer lanes must be bit-identical to scalar SHA-256"
    );
    group.bench_function("sha256_scalar_4096x512B", |b| {
        b.iter(|| slices.iter().map(|s| sha256(s)).collect::<Vec<_>>())
    });
    group.bench_function("sha256_multibuffer_4096x512B", |b| {
        b.iter(|| sha256_multi(&slices))
    });

    // Zero-copy wire frames: peel a sealed 64-blob response with the
    // borrowed decoder versus the owned one.
    let response = AuditResponse::Blobs(BlobResponse {
        blobs: chunks[..64].iter().map(|c| Some(c.clone())).collect(),
    });
    let packet = seal_session_message(1, 7, &response);
    let body = &packet[..];
    let borrowed_body = {
        let (_, _, body) = avm_wire::open_session_frame(body).unwrap();
        body
    };
    assert_eq!(
        AuditResponseRef::decode_exact(borrowed_body)
            .unwrap()
            .to_owned(),
        AuditResponse::decode_exact(borrowed_body).unwrap(),
        "borrowed decode must agree with owned decode"
    );
    group.bench_function("audit_response_decode_owned_64x512B", |b| {
        b.iter(|| AuditResponse::decode_exact(borrowed_body).unwrap())
    });
    group.bench_function("audit_response_decode_borrowed_64x512B", |b| {
        b.iter(|| AuditResponseRef::decode_exact(borrowed_body).unwrap())
    });
    group.bench_function("seal_session_message_64x512B", |b| {
        b.iter(|| seal_session_message(1, 7, &response))
    });
    group.finish();
}

/// The three kernels every audited byte passes through before replay: the
/// frame checksum, the hash-chain check, and the authenticator signature
/// check — at the shape of a `game_sig` whole-log audit (≈1 MiB, ≈30k small
/// entries, RSA-768).
fn bench_verify_kernels(c: &mut Criterion) {
    use avm_crypto::sha256::{sha256, Digest};
    use avm_log::verify_chain;

    let mut group = c.benchmark_group("crc32_1mib");
    group.sample_size(10);
    let buf: Vec<u8> = (0..1usize << 20)
        .map(|i| (i * 31 + i / 251) as u8)
        .collect();
    group.bench_function("crc32", |b| b.iter(|| avm_wire::crc32(&buf)));
    // The frame sizes the workloads send: a small response, and the
    // `db_durable` section stream a full-download spot check seals and opens.
    group.bench_function("crc32_4kib", |b| b.iter(|| avm_wire::crc32(&buf[..4096])));
    group.bench_function("crc32_614kb", |b| {
        b.iter(|| avm_wire::crc32(&buf[..614_000]))
    });
    group.finish();

    let mut group = c.benchmark_group("verify_chain_30k");
    group.sample_size(10);
    let mut log = TamperEvidentLog::new();
    for i in 0..30_000u64 {
        let content = vec![i as u8; 8 + (i % 7) as usize * 9];
        log.append(EntryKind::NdEvent, content);
    }
    // `verify_chain` splits 30k entries into `parts_for` parts on a
    // multi-core host; `one_part` is the same check on the calling thread.
    // Both over the stored log, every hash claimed; `shipped` and
    // `shipped_one_part` over the same log as a segment response carries it
    // (a hash every 64 entries), decoded in place: what an auditor checks.
    group.bench_function("verify_chain", |b| {
        b.iter(|| verify_chain(&Digest::ZERO, log.entries()).unwrap())
    });
    group.bench_function("one_part", |b| {
        b.iter(|| {
            avm_log::verify::chain_in_parts(&Digest::ZERO, log.entries(), 1)
                .verdict
                .unwrap()
        })
    });
    let run: Vec<u8> = avm_log::wire::wire_entries(log.entries())
        .flat_map(|e| avm_wire::Encode::encode_to_vec(&e))
        .collect();
    let shipped = avm_log::wire::decode_entries(1, log.len() as u64, &run).unwrap();
    group.bench_function("shipped", |b| {
        b.iter(|| verify_chain(&Digest::ZERO, &shipped).unwrap())
    });
    group.bench_function("shipped_one_part", |b| {
        b.iter(|| {
            avm_log::verify::chain_in_parts(&Digest::ZERO, &shipped, 1)
                .verdict
                .unwrap()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("rsa768_verify");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(768));
    let verifier = key.verifying_key();
    let digest = sha256(b"authenticator");
    let sig = key.sign_digest(&digest);
    group.bench_function("verify_digest", |b| {
        b.iter(|| verifier.verify_digest(&digest, &sig).unwrap())
    });
    group.bench_function("parse_key", |b| {
        let bytes = verifier.to_bytes();
        b.iter(|| avm_crypto::VerifyingKey::from_bytes(&bytes).unwrap())
    });
    group.finish();
}

/// The four phases of a whole-log audit after the packet is opened, over a
/// recorded game client's log (2 simulated seconds, > 10 000 entries) served
/// as one packet: decoding the entries in place (against the decode that
/// copies every entry out), then the chain check, the cross-reference check
/// and the replay — each reading entry contents straight from the packet.
fn bench_audit_segment(c: &mut Criterion) {
    use avm_core::audit::syntactic_content_checks;
    use avm_core::endpoint::AuditServer;
    use avm_core::replay::Replayer;
    use avm_crypto::sha256::Digest;
    use avm_log::verify::chain_in_parts;
    use avm_log::wire::decode_entries;
    use avm_log::{verify_chain, EntryView, LogEntryRef};
    use avm_wire::audit::{
        open_session_frame, seal_encoded_message, AuditRequest, AuditResponseRef, SegmentAddress,
    };

    let scenario = GameScenario {
        rsa_bits: 512,
        ..GameScenario::standard(ExecConfig::AvmmRsa768, 2_000_000)
    };
    let result = scenario.run();
    let avmm = result.avmm("alice");
    assert!(avmm.log().len() >= 10_000, "{} entries", avmm.log().len());
    let image = &result.reference_client_images[0];
    let registry = avm_game::game_registry();

    let whole_log = AuditRequest::LogSegment(SegmentAddress::Seq {
        from_seq: 1,
        to_seq: 0,
    });
    let server = AuditServer::new(avmm.log(), avmm.snapshots());
    let packet = seal_encoded_message(1, 1, &server.respond(&whole_log));
    let (_, _, body) = open_session_frame(&packet).unwrap();
    let decode_in_place = || -> Vec<LogEntryRef<'_>> {
        match AuditResponseRef::decode_exact(body).unwrap() {
            AuditResponseRef::LogSegment {
                first_seq,
                count,
                records,
                ..
            } => decode_entries(first_seq, count, records).unwrap(),
            other => panic!("unexpected {} response", other.variant_name()),
        }
    };
    let segment = decode_in_place();
    let hashes = chain_in_parts(&Digest::ZERO, &segment, 1).hashes;
    assert!(segment
        .iter()
        .zip(hashes)
        .map(|(entry, hash)| entry.to_entry(hash))
        .eq(avmm.log().entries().iter().cloned()));

    let mut group = c.benchmark_group("audit_segment");
    group.sample_size(10);
    group.bench_function("decode_in_place", |b| b.iter(|| decode_in_place().len()));
    group.bench_function("decode_owned_reference", |b| {
        b.iter(|| {
            let decoded: Vec<_> = decode_in_place()
                .iter()
                .map(|entry| entry.to_entry(Digest::ZERO))
                .collect();
            decoded.len()
        })
    });
    group.bench_function("verify_chain", |b| {
        b.iter(|| verify_chain(&Digest::ZERO, &segment).unwrap())
    });
    group.bench_function("content_checks", |b| {
        b.iter(|| syntactic_content_checks(&segment).unwrap())
    });
    group.bench_function("replay", |b| {
        b.iter(|| {
            let mut replayer = Replayer::from_image(image, &registry).unwrap();
            assert!(replayer.replay(&segment).is_consistent());
        })
    });
    group.finish();
}

/// Durable-store substrate: `Provider::recover` — scan and chain-verify the
/// segment files, rebuild the snapshot store from persisted manifests,
/// replay the log tail with root verification — from the storage image a
/// short snapshot workload leaves behind.
fn bench_persist_recovery(c: &mut Criterion) {
    use avm_bench::experiments::persist_demo_storage;
    use avm_core::config::AvmmOptions;
    use avm_core::persist::Provider;

    let (storage, image, key, cfg) = persist_demo_storage(4);
    let registry = avm_vm::GuestRegistry::new();
    let options = AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512));
    let mut group = c.benchmark_group("persist");
    group.sample_size(10);
    group.bench_function("recover_4_snapshots", |b| {
        b.iter(|| {
            let (_, report) = Provider::recover(
                storage.reboot(),
                "host",
                &image,
                &registry,
                key.clone(),
                options.clone(),
                cfg,
            )
            .unwrap();
            assert!(report.snapshots_verified > 0);
            report.entries_recovered
        })
    });
    group.finish();
}

/// What an audit costs before it replays anything, on the two image shapes
/// `bench/` audits: the db guest (512 KiB + 256 KiB disk, full snapshots)
/// and the sparse guest (4 MiB + 256 KiB, dirty-only snapshots).  Each path
/// starts from the image's memoised baseline (`VmImage::baseline`), so it
/// costs what the snapshot changed, not a hash of the whole image; every
/// root is first checked against `build_state_tree_uncached`.
fn bench_image_baseline(c: &mut Criterion) {
    use avm_bench::experiments::snapshot_image;
    use avm_core::ondemand::{materialize_on_demand, AuditorBlobCache};
    use avm_core::replay::Replayer;
    use avm_core::snapshot::{
        build_state_tree_uncached, capture_with_cache, compute_state_root, SnapshotStore,
        StateTreeCache,
    };
    use avm_vm::{Machine, CHUNK_SIZE, PAGE_SIZE};

    let db = (
        "db",
        avm_db::db_image(&avm_db::server::DbConfig::new("customer")),
        avm_db::db_registry(),
        true,
    );
    let sparse = (
        "sparse",
        snapshot_image(1024, 64),
        avm_vm::GuestRegistry::new(),
        false,
    );
    let mut group = c.benchmark_group("image_baseline");
    group.sample_size(10);
    for (shape, image, registry, full_memory) in [db, sparse] {
        // Two snapshots, each after four pages and one disk block changed.
        let mut machine = Machine::from_image(&image, &registry).unwrap();
        assert_eq!(
            compute_state_root(&machine),
            build_state_tree_uncached(&machine).root()
        );
        let mut tree = StateTreeCache::new();
        let mut store = SnapshotStore::new();
        for id in 0..2u64 {
            for page in 0..4 {
                let addr = ((17 + 5 * page + id as usize) * PAGE_SIZE) as u64;
                machine.memory_mut().write_u64(addr, id + 1).unwrap();
            }
            let block = (id as usize * CHUNK_SIZE) as u64;
            machine
                .devices_mut()
                .disk
                .write(block, &[id as u8 + 1; 8])
                .unwrap();
            store.push(capture_with_cache(&mut machine, &mut tree, id, full_memory));
        }
        let recorded = build_state_tree_uncached(&machine).root();
        let cache = AuditorBlobCache::new();
        let restored = store.materialize(1, &image, &registry).unwrap();
        assert_eq!(build_state_tree_uncached(&restored).root(), recorded);
        let (lazy, _) = materialize_on_demand(&store, 1, &image, &registry, &cache).unwrap();
        assert_eq!(compute_state_root(&lazy), recorded);
        let mut replayer = Replayer::from_snapshot(&image, &registry, &store, 1).unwrap();
        assert_eq!(replayer.current_state_root(), recorded);

        group.bench_function(format!("{shape}_materialize_on_demand"), |b| {
            b.iter(|| {
                let (_, session) =
                    materialize_on_demand(&store, 1, &image, &registry, &cache).unwrap();
                session.staged_chunks()
            })
        });
        group.bench_function(format!("{shape}_snapshot_materialize"), |b| {
            b.iter(|| {
                store
                    .materialize(1, &image, &registry)
                    .unwrap()
                    .step_count()
            })
        });
        group.bench_function(format!("{shape}_replayer_from_snapshot"), |b| {
            b.iter(|| {
                Replayer::from_snapshot(&image, &registry, &store, 1)
                    .unwrap()
                    .current_state_root()
            })
        });
    }
    group.finish();
}

/// What a fresh machine costs: `Machine::from_image` and its drop, on the
/// sparse guest's shape (4 MiB of memory holding one page of program, a
/// 256 KiB zero disk) and on the db guest (512 KiB + 256 KiB disk).  Every
/// recording, bare run and audit pays this once per machine.  Both stores
/// share the image baseline's pages until written, so it is reference counts
/// and per-leaf bookkeeping, not a copy of the image; each image's machine is
/// first checked against `build_state_tree_uncached`.
fn bench_machine_from_image(c: &mut Criterion) {
    use avm_bench::experiments::snapshot_image;
    use avm_core::snapshot::{build_state_tree_uncached, compute_state_root};
    use avm_vm::Machine;

    let mut group = c.benchmark_group("machine_from_image");
    group.sample_size(20);
    let shapes = [
        (
            "sparse_4mib",
            snapshot_image(1024, 64),
            avm_vm::GuestRegistry::new(),
        ),
        (
            "db",
            avm_db::db_image(&avm_db::server::DbConfig::new("customer")),
            avm_db::db_registry(),
        ),
    ];
    for (shape, image, registry) in shapes {
        let machine = Machine::from_image(&image, &registry).unwrap();
        assert_eq!(
            compute_state_root(&machine),
            build_state_tree_uncached(&machine).root()
        );
        group.bench_function(shape, |b| {
            b.iter(|| {
                let machine = Machine::from_image(&image, &registry).unwrap();
                let steps = machine.step_count();
                drop(machine);
                steps
            })
        });
    }
    group.finish();
}

/// What a response costs between the provider's state and the auditor's
/// `&[LogEntry]`, with nothing checked or replayed: `AuditServer::respond`
/// → `seal_encoded_message` → `open_session_frame` → borrowed decode → owned
/// entries, on a `game_sig`-shaped whole-log segment (30k small entries),
/// and `respond` → seal → open on the db shape's section stream (a full
/// dump of the 512 KiB guest).  Each body is first checked against the
/// owned `AuditResponse` built by hand and encoded by its own `Encode` —
/// which is also the reference timed beside the log segment: the run of
/// records built from each stored encoding, the whole message encoded
/// again, then framed.
fn bench_response_path(c: &mut Criterion) {
    use avm_core::endpoint::AuditServer;
    use avm_core::snapshot::{capture, SnapshotStore};
    use avm_crypto::sha256::Digest;
    use avm_log::verify::chain_in_parts;
    use avm_log::wire::{carries_hash, decode_entries};
    use avm_log::{EntryView, LogEntry, LogEntryRef};
    use avm_vm::{Machine, PAGE_SIZE};
    use avm_wire::audit::{
        open_session_frame, seal_encoded_message, seal_session_message, AuditRequest,
        AuditResponse, AuditResponseRef, SegmentAddress,
    };
    use avm_wire::Encode;

    let mut group = c.benchmark_group("response_path");
    group.sample_size(10);

    let mut log = TamperEvidentLog::new();
    for i in 0..30_000u64 {
        let content = vec![i as u8; 8 + (i % 7) as usize * 9];
        log.append(EntryKind::NdEvent, content);
    }
    let no_snapshots = SnapshotStore::new();
    let server = AuditServer::new(&log, &no_snapshots);
    let whole_log = AuditRequest::LogSegment(SegmentAddress::Seq {
        from_seq: 1,
        to_seq: 0,
    });
    // One run of the stored encodings, each less its seq varint, and less
    // its hash where no checkpoint falls.
    let n = log.len();
    let owned_segment = || {
        let mut records = Vec::new();
        for (i, e) in log.entries().iter().enumerate() {
            let stored = e.encode_to_vec();
            let seq_len = avm_wire::varint::varint_len(e.seq);
            let end = match carries_hash(n, i) {
                true => stored.len(),
                false => stored.len() - 32,
            };
            records.extend_from_slice(&stored[seq_len..end]);
        }
        AuditResponse::LogSegment {
            prev_hash: Digest::ZERO.0,
            first_seq: 1,
            count: n as u64,
            records,
        }
    };
    assert_eq!(server.respond(&whole_log), owned_segment().encode_to_vec());
    let receive = |packet: &[u8], check: &dyn Fn(&[LogEntryRef<'_>])| {
        let (_, _, body) = open_session_frame(packet).unwrap();
        match AuditResponseRef::decode_exact(body).unwrap() {
            AuditResponseRef::LogSegment {
                first_seq,
                count,
                records,
                ..
            } => {
                let decoded = decode_entries(first_seq, count, records).unwrap();
                check(&decoded);
                decoded.len()
            }
            other => panic!("unexpected {} response", other.variant_name()),
        }
    };
    receive(
        &seal_encoded_message(1, 1, &server.respond(&whole_log)),
        &|decoded| {
            let hashes = chain_in_parts(&Digest::ZERO, decoded, 1).hashes;
            let owned: Vec<LogEntry> = decoded
                .iter()
                .zip(hashes)
                .map(|(entry, hash)| entry.to_entry(hash))
                .collect();
            assert_eq!(owned, log.entries());
        },
    );
    group.bench_function("log_segment_30k", |b| {
        b.iter(|| {
            receive(
                &seal_encoded_message(1, 1, &server.respond(&whole_log)),
                &|_| {},
            )
        })
    });
    group.bench_function("log_segment_30k_owned_reference", |b| {
        b.iter(|| receive(&seal_session_message(1, 1, &owned_segment()), &|_| {}))
    });

    let image = avm_db::db_image(&avm_db::server::DbConfig::new("customer"));
    let mut machine = Machine::from_image(&image, &avm_db::db_registry()).unwrap();
    for page in 0..64 {
        let addr = (2 * page * PAGE_SIZE) as u64;
        machine
            .memory_mut()
            .write_u64(addr, page as u64 + 1)
            .unwrap();
    }
    let mut store = SnapshotStore::new();
    store.push(capture(&mut machine, 0, true));
    let server = AuditServer::for_store(&store);
    let sections = AuditRequest::Sections { upto_id: 0 };
    let owned_sections = AuditResponse::Sections {
        stream: store.transfer_stream_upto(0),
    };
    assert_eq!(server.respond(&sections), owned_sections.encode_to_vec());
    group.bench_function("sections_db_full_dump", |b| {
        b.iter(|| {
            let packet = seal_encoded_message(1, 1, &server.respond(&sections));
            let (_, _, body) = open_session_frame(&packet).unwrap();
            match AuditResponseRef::decode_exact(body).unwrap() {
                AuditResponseRef::Sections { stream } => stream.len(),
                other => panic!("unexpected {} response", other.variant_name()),
            }
        })
    });
    group.finish();
}

/// What residency costs an on-demand replay that never faults: the same
/// 200 k-step load/add/store loop on a 4 MiB machine with K chunks staged at
/// the far end of memory (and, at the largest K, 64 staged disk blocks) that
/// the loop never touches.  Every instruction fetch, load and store asks "is
/// any chunk I touch staged?"; ns per step is the printed time ÷ 200 000 and
/// must not depend on K.  Staged contents equal what the image holds there,
/// so every variant must reach the root of the K = 0 run before it is timed.
fn bench_ondemand_residency(c: &mut Criterion) {
    use avm_core::snapshot::compute_state_root;
    use avm_vm::bytecode::assemble;
    use avm_vm::{GuestRegistry, Machine, StopCondition, VmExit, VmImage, CHUNK_SIZE, PAGE_SIZE};

    const STEPS: u64 = 200_000;
    let src = r"
            movi r1, 0x2000
        loop:
            load r3, r1
            addi r3, 1
            store r3, r1
            jmp loop
        ";
    let image = VmImage::bytecode("residency", 4 << 20, assemble(src, 0).unwrap(), 0, 0)
        .with_disk(vec![0u8; 64 * PAGE_SIZE]);
    let registry = GuestRegistry::new();
    let run = |machine: &mut Machine| {
        let until = StopCondition::AtStep(machine.step_count() + STEPS);
        assert_eq!(machine.run(until).unwrap(), VmExit::StepLimit);
    };

    let mut group = c.benchmark_group("ondemand_residency");
    group.sample_size(10);
    let mut expected_root = None;
    for staged in [0usize, 1, 256, 4096] {
        let mut machine = Machine::from_image(&image, &registry).unwrap();
        let chunks = machine.memory().chunk_count();
        for idx in chunks - staged..chunks {
            let hash = machine.memory().leaves().leaf_hash(idx).unwrap();
            machine
                .memory_mut()
                .stage_lazy_chunk(idx, vec![0u8; CHUNK_SIZE], hash)
                .unwrap();
        }
        let blocks = if staged == 4096 { 64 } else { 0 };
        for idx in 0..blocks {
            let disk = &mut machine.devices_mut().disk;
            let hash = disk.leaves().leaf_hash(idx).unwrap();
            disk.leaves_mut()
                .stage_lazy(idx, vec![0u8; CHUNK_SIZE], hash)
                .unwrap();
        }
        run(&mut machine);
        let root = compute_state_root(&machine);
        assert_eq!(*expected_root.get_or_insert(root), root, "K = {staged}");
        assert_eq!(machine.memory().leaves().staged_count(), staged);
        assert_eq!(machine.devices().disk.leaves().staged_count(), blocks);
        group.bench_function(format!("loop_200k_steps_staged_{staged}"), |b| {
            b.iter(|| {
                run(&mut machine);
                machine.step_count()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig5_signatures,
    bench_fig3_fig4_logging,
    bench_fig7_framerate,
    bench_fig6_snapshot_incremental,
    bench_parallel_chunk_hashing,
    bench_crypto_floor,
    bench_verify_kernels,
    bench_snapshot_dedup,
    bench_image_baseline,
    bench_machine_from_image,
    bench_response_path,
    bench_audit_segment,
    bench_ondemand_residency,
    bench_persist_recovery
);
criterion_main!(benches);

//! Property-based tests over the core data structures and invariants.

use avm_compress::{compress, decompress, CompressionLevel};
use avm_core::snapshot::{
    build_state_tree_uncached, capture_with_cache, SnapshotStore, StateTreeCache,
};
use avm_crypto::merkle::MerkleTree;
use avm_crypto::sha256::{sha256, Digest};
use avm_log::{verify_segment, EntryKind, LogEntry, TamperEvidentLog};
use avm_vm::bytecode::{assemble, Instruction, Reg};
use avm_vm::{GuestRegistry, Machine, StopCondition, VmExit, VmImage};
use avm_wire::varint::{read_varint, varint_len, write_varint, zigzag_decode, zigzag_encode};
use avm_wire::{read_frame, write_frame};
use proptest::prelude::*;

/// The state at snapshot `upto_id` built by walking `store`'s pool section by
/// section instead of staging its collapsed references: the reference
/// [`SnapshotStore::materialize`] is held to.
/// Memory sections before the chain's last full dump are superseded; every
/// disk section applies.
fn pool_walk(store: &SnapshotStore, upto_id: u64, image: &VmImage) -> Machine {
    let chain: Vec<_> = store.all().iter().filter(|s| s.id <= upto_id).collect();
    let base = chain.iter().rev().find(|s| s.full_memory).map(|s| s.id);
    let mut machine = Machine::from_image(image, &GuestRegistry::new()).unwrap();
    for s in &chain {
        let memory = if base.is_none_or(|base| s.id >= base) {
            s.mem_chunk_refs()
        } else {
            &[]
        };
        for (store_leaves, refs) in machine
            .stores_mut()
            .into_iter()
            .zip([memory, s.disk_block_refs()])
        {
            for (idx, hash) in refs {
                let leaf = store.payload(hash).expect("pooled leaf");
                store_leaves
                    .set_leaf(*idx as usize, leaf)
                    .expect("leaf in range");
            }
        }
    }
    let target = chain.last().expect("retained snapshot");
    machine.restore_cpu_state(&target.cpu_state).unwrap();
    machine
        .devices_mut()
        .restore_volatile(&target.dev_state)
        .unwrap();
    machine.set_control_state(target.step, target.halted, false);
    machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Varints round-trip for every value and their length prediction is exact.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        let n = write_varint(&mut buf, v);
        prop_assert_eq!(n, varint_len(v));
        let (decoded, used) = read_varint(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(used, n);
    }

    /// ZigZag encoding is a bijection.
    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }

    /// Frames survive arbitrary payloads and detect single-byte corruption.
    #[test]
    fn frame_roundtrip_and_corruption(payload in proptest::collection::vec(any::<u8>(), 0..512), flip in any::<usize>()) {
        let mut out = Vec::new();
        write_frame(&mut out, &payload);
        let (decoded, consumed) = read_frame(&out).unwrap();
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(consumed, out.len());
        if !out.is_empty() {
            let idx = flip % out.len();
            let mut corrupted = out.clone();
            corrupted[idx] ^= 0x01;
            // Either an error, or (only if the flipped bit is inside the
            // varint length redundancy) a different payload — never a silent
            // identical success.
            if let Ok((p, _)) = read_frame(&corrupted) {
                prop_assert_ne!(p, &payload[..]);
            }
        }
    }

    /// Compression is lossless for arbitrary data at every level.
    #[test]
    fn compression_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for level in [CompressionLevel::Fast, CompressionLevel::Default] {
            let c = compress(&data, level);
            prop_assert_eq!(decompress(&c).unwrap(), data.clone());
        }
    }

    /// Merkle proofs verify for every leaf and fail for the wrong leaf data.
    #[test]
    fn merkle_proofs(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..24)) {
        let tree = MerkleTree::from_leaves(&leaves);
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(leaf, &root));
            prop_assert!(!proof.verify(b"definitely not the leaf", &root));
        }
    }

    /// The hash chain of a log built from arbitrary entries is intact, and
    /// tampering with any single entry breaks verification.
    #[test]
    fn log_chain_integrity(
        contents in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..32),
        victim in any::<usize>()
    ) {
        let mut log = TamperEvidentLog::new();
        for c in &contents {
            log.append(EntryKind::NdEvent, c.clone());
        }
        let (prev, segment) = log.segment(1, log.len() as u64).unwrap();
        // Chain verifies without any authenticators.
        let null_key = avm_crypto::keys::SigningKey::Null.verifying_key();
        prop_assert!(verify_segment(&prev, &segment, &[], &null_key).is_ok());

        // Tamper with one entry: verification must fail.
        let idx = victim % segment.len();
        let mut tampered: Vec<LogEntry> = segment.clone();
        tampered[idx].content.push(0xAB);
        prop_assert!(verify_segment(&prev, &tampered, &[], &null_key).is_err());
    }

    /// SHA-256 incremental hashing equals one-shot hashing for any split.
    #[test]
    fn sha256_incremental(data in proptest::collection::vec(any::<u8>(), 0..2048), split in any::<usize>()) {
        let cut = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = avm_crypto::sha256::Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Every instruction encoding round-trips through decode.
    #[test]
    fn instruction_roundtrip(op in 0u8..8, a in 0u8..16, b in 0u8..16, imm in any::<u64>()) {
        let ins = match op {
            0 => Instruction::MovImm(Reg(a), imm),
            1 => Instruction::Add(Reg(a), Reg(b)),
            2 => Instruction::Load(Reg(a), Reg(b), imm),
            3 => Instruction::Jmp(imm),
            4 => Instruction::Cmp(Reg(a), Reg(b)),
            5 => Instruction::Send(Reg(a), Reg(b)),
            6 => Instruction::Push(Reg(a)),
            _ => Instruction::Clock(Reg(a)),
        };
        let bytes = ins.encode_to_vec();
        let (decoded, len) = Instruction::decode(&bytes, 0).unwrap();
        prop_assert_eq!(decoded, ins);
        prop_assert_eq!(len as usize, bytes.len());
    }

    /// The incremental state-root pipeline agrees with a from-scratch
    /// rebuild after arbitrary interleavings of memory writes, disk block
    /// writes and snapshots.
    ///
    /// Each op is `(kind, location, value)`: kind 0-3 writes memory, 4-6
    /// writes the disk, 7 takes a snapshot (which refreshes the long-lived
    /// cache and clears dirty tracking, exactly like the recorder does).
    #[test]
    fn incremental_state_root_matches_full_recompute(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u8>()), 1..48)
    ) {
        let pages = 16usize;
        let image = VmImage::bytecode(
            "root-prop",
            (pages * avm_vm::PAGE_SIZE) as u64,
            assemble("halt", 0).unwrap(),
            0,
            0,
        )
        .with_disk(vec![0u8; 8 * avm_vm::PAGE_SIZE]);
        let mut m = Machine::from_image(&image, &GuestRegistry::new()).unwrap();
        let mut cache = StateTreeCache::new();
        let mut snapshots = 0u64;
        for (kind, loc, val) in ops {
            match kind {
                0..=3 => {
                    let addr = loc as u64 % m.memory().size();
                    m.memory_mut().write_u8(addr, val).unwrap();
                }
                4..=6 => {
                    let off = loc as u64 % m.devices().disk.size();
                    m.devices_mut().disk.write(off, &[val]).unwrap();
                }
                _ => {
                    let snap = capture_with_cache(&mut m, &mut cache, snapshots, val % 2 == 0);
                    snapshots += 1;
                    prop_assert_eq!(
                        snap.state_root,
                        build_state_tree_uncached(&m).root(),
                        "snapshot root diverged"
                    );
                }
            }
        }
        // Final root must agree regardless of where the op stream stopped.
        prop_assert_eq!(cache.refresh(&m), build_state_tree_uncached(&m).root());
    }

    /// Transfer accounting equals the length of the section stream a full
    /// dump is shipped as, for every snapshot in a chain built from an
    /// arbitrary interleaving of memory writes, disk writes, and
    /// full/incremental captures; materialization gives the machine and the
    /// root a walk of the pool gives, before and after a prune; the
    /// content-addressed store never holds more than the logical payload;
    /// and a prune is invisible to every surviving snapshot's manifest and
    /// materialized state.
    ///
    /// Each op is `(kind, location, value)`: kind 0-2 writes memory, 3-5
    /// writes the disk, 6-7 takes a snapshot (full when `value` is even).
    #[test]
    fn transfer_accounting_matches_materialize_consumption(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u8>()), 1..32)
    ) {
        let pages = 16usize;
        let image = VmImage::bytecode(
            "transfer-prop",
            (pages * avm_vm::PAGE_SIZE) as u64,
            assemble("halt", 0).unwrap(),
            0,
            0,
        )
        .with_disk(vec![0u8; 8 * avm_vm::PAGE_SIZE]);
        let registry = GuestRegistry::new();
        let mut m = Machine::from_image(&image, &registry).unwrap();
        let mut cache = StateTreeCache::new();
        let mut store = SnapshotStore::new();
        let mut captures = 0u64;
        for (kind, loc, val) in ops {
            match kind {
                0..=2 => {
                    let addr = loc as u64 % m.memory().size();
                    m.memory_mut().write_u8(addr, val).unwrap();
                }
                3..=5 => {
                    let off = loc as u64 % m.devices().disk.size();
                    m.devices_mut().disk.write(off, &[val]).unwrap();
                }
                _ => {
                    let snap = capture_with_cache(&mut m, &mut cache, captures, val % 2 == 0);
                    store.push(snap);
                    captures += 1;
                }
            }
        }
        // Always end on a capture so there is at least one snapshot.
        store.push(capture_with_cache(&mut m, &mut cache, captures, true));
        captures += 1;

        // Materialization builds the state a walk of the pool builds: the
        // same machine, and the root the snapshot recorded.
        let round_trip = |store: &SnapshotStore, id: u64| -> Result<(), TestCaseError> {
            let installed = store.materialize(id, &image, &registry).unwrap();
            let walked = pool_walk(store, id, &image);
            prop_assert_eq!(installed.state_digest(), walked.state_digest(), "snapshot {}", id);
            let root = build_state_tree_uncached(&installed).root();
            prop_assert_eq!(root, build_state_tree_uncached(&walked).root(), "snapshot {}", id);
            prop_assert_eq!(root, store.get(id).unwrap().state_root, "snapshot {}", id);
            Ok(())
        };
        for id in 0..captures {
            round_trip(&store, id)?;
            prop_assert_eq!(
                store.transfer_stream_upto(id).len() as u64,
                store.transfer_bytes_upto(id),
                "serialised transfer stream length diverged at snapshot {}",
                id
            );
        }
        // The final capture left the machine state untouched since its root
        // was recorded, so the last materialization is bit-identical.
        let last = store.materialize(captures - 1, &image, &registry).unwrap();
        prop_assert_eq!(last.state_digest(), m.state_digest());

        // Content addressing: storage is bounded by the logical payload, and
        // a repeated idle full capture adds nothing.
        prop_assert!(store.stored_payload_bytes() <= store.logical_payload_bytes());
        let stored_before = store.stored_payload_bytes();
        store.push(capture_with_cache(&mut m, &mut cache, captures, true));
        captures += 1;
        prop_assert_eq!(store.stored_payload_bytes(), stored_before);

        // Pruning at an arbitrary retained point must preserve every
        // surviving snapshot bit-for-bit (materialize re-authenticates the
        // root internally) and keep the accounting equality intact, while
        // never growing the pool.  The prune collapses the chain with the
        // same walk the manifest does, so a surviving snapshot's manifest
        // and materialized state are what they were before it.
        let prune_at = captures / 2;
        let before: Vec<_> = (prune_at..captures)
            .map(|id| {
                let manifest = store.chain_manifest_upto(id).unwrap();
                let digest = store.materialize(id, &image, &registry).unwrap().state_digest();
                (manifest, digest)
            })
            .collect();
        store.prune_upto(prune_at).unwrap();
        prop_assert!(store.stored_payload_bytes() <= stored_before);
        for (id, (manifest, digest)) in (prune_at..captures).zip(before) {
            round_trip(&store, id)?;
            prop_assert_eq!(
                store.transfer_stream_upto(id).len() as u64,
                store.transfer_bytes_upto(id),
                "post-prune accounting diverged at snapshot {}",
                id
            );
            prop_assert_eq!(
                store.chain_manifest_upto(id).unwrap(),
                manifest,
                "prune changed the manifest at snapshot {}",
                id
            );
            prop_assert_eq!(
                store.materialize(id, &image, &registry).unwrap().state_digest(),
                digest,
                "prune changed the state at snapshot {}",
                id
            );
        }
        let last = store.materialize(captures - 1, &image, &registry).unwrap();
        prop_assert_eq!(last.state_digest(), m.state_digest());
    }

    /// On-demand (lazy, demand-paged) reconstruction is equivalent to a full
    /// snapshot download under arbitrary interleavings of memory writes,
    /// disk writes, packet-driven guest activity and full/incremental
    /// captures: for every snapshot in the chain the lazily materialized
    /// machine reaches the same state roots as the fully materialized one —
    /// before and after replaying more work — and the auditor's persistent
    /// blob cache never downloads the same digest twice across checks.
    ///
    /// Each op is `(kind, location, value)`: kind 0-2 writes guest memory
    /// (in the guest-visible data region), kind 3-4 writes the disk, kind 5
    /// injects a packet and runs the guest (which bumps a page selected by
    /// the packet and mirrors it to disk), kind 6-7 takes a snapshot (full
    /// when `value` is even).
    #[test]
    fn on_demand_replay_matches_full_materialization(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u8>()), 1..24)
    ) {
        use avm_core::ondemand::{materialize_on_demand, AuditorBlobCache};
        use avm_core::snapshot::{compute_state_root, SnapshotStore};
        use std::collections::HashSet;

        // Guest: each packet's first byte selects one of 6 data pages; the
        // guest bumps a counter there and mirrors 8 bytes to disk block
        // (sel % 4).
        let src = r"
                movi r1, 0x7000     ; rx buffer
                movi r2, 64
                movi r5, 0x8000     ; data region base (page 8)
            loop:
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                loadb r3, r1        ; page selector
                movi r4, 4096
                mul r3, r4
                add r3, r5
                load r7, r3
                addi r7, 1
                store r7, r3
                movi r4, 8
                loadb r8, r1
                movi r9, 3
                and r8, r9
                movi r9, 4096
                mul r8, r9
                diskwr r8, r3, r4
                jmp loop
            ";
        let pages = 16usize;
        let image = VmImage::bytecode(
            "ondemand-prop",
            (pages * avm_vm::PAGE_SIZE) as u64,
            assemble(src, 0).unwrap(),
            0,
            0,
        )
        .with_disk(vec![0u8; 4 * avm_vm::PAGE_SIZE]);
        let registry = GuestRegistry::new();
        let mut m = Machine::from_image(&image, &registry).unwrap();
        let run_until_idle = |m: &mut Machine| loop {
            match m.run(StopCondition::Unbounded).unwrap() {
                VmExit::Idle | VmExit::Halted => break,
                _ => {}
            }
        };
        run_until_idle(&mut m);
        let mut cache = StateTreeCache::new();
        let mut store = SnapshotStore::new();
        let mut captures = 0u64;
        for (kind, loc, val) in ops {
            match kind {
                0..=2 => {
                    // Stay inside the guest-visible data region so operator
                    // tampering never corrupts the guest code.
                    let addr = 0x8000 + (loc as u64 % 0x8000);
                    m.memory_mut().write_u8(addr, val).unwrap();
                }
                3..=4 => {
                    let off = loc as u64 % m.devices().disk.size();
                    m.devices_mut().disk.write(off, &[val]).unwrap();
                }
                5 => {
                    m.inject_packet(vec![val % 6]);
                    run_until_idle(&mut m);
                }
                _ => {
                    store.push(capture_with_cache(&mut m, &mut cache, captures, val % 2 == 0));
                    captures += 1;
                }
            }
        }
        store.push(capture_with_cache(&mut m, &mut cache, captures, true));
        captures += 1;

        // One persistent auditor cache across every check; a digest fetched
        // once must never be fetched again.
        let mut auditor = AuditorBlobCache::new();
        let mut ever_fetched: HashSet<avm_crypto::sha256::Digest> = HashSet::new();
        for id in 0..captures {
            let full = store.materialize(id, &image, &registry).unwrap();
            let (mut lazy, session) =
                materialize_on_demand(&store, id, &image, &registry, &auditor).unwrap();
            prop_assert_eq!(
                compute_state_root(&lazy),
                compute_state_root(&full),
                "starting root diverged at snapshot {}",
                id
            );
            // Drive both machines identically past the snapshot.
            let mut full = full;
            for sel in [id as u8 % 6, (id as u8 + 2) % 6] {
                lazy.inject_packet(vec![sel]);
                full.inject_packet(vec![sel]);
                run_until_idle(&mut lazy);
                run_until_idle(&mut full);
            }
            prop_assert_eq!(
                compute_state_root(&lazy),
                compute_state_root(&full),
                "post-replay root diverged at snapshot {}",
                id
            );
            let cost = session
                .finish(&lazy, &store, &mut auditor)
                .unwrap();
            for digest in &cost.fetched {
                prop_assert!(
                    ever_fetched.insert(*digest),
                    "digest {} was downloaded twice",
                    digest.short_hex()
                );
            }
            // Whatever was fetched is now cached.
            for digest in &cost.fetched {
                prop_assert!(auditor.contains(digest));
            }
        }
    }

    /// The chunk-granular pipeline is equivalent to page granularity under
    /// arbitrary write/snapshot/fault interleavings: sub-page writes at
    /// arbitrary offsets and lengths produce incremental chunk-leaf state
    /// roots equal to an uncached rebuild, chunk-granular materialization
    /// reproduces the exact raw contents (the page-agnostic `state_digest`)
    /// the live machine had at each capture, staged-chunk demand faulting
    /// reaches the same roots as a full download, and the batched blob
    /// exchange returns the same blobs as one-at-a-time for any batch size.
    ///
    /// Each op is `(kind, location, value)`: kind 0-3 writes 1-9 bytes at an
    /// arbitrary (chunk-straddling) address, kind 4 writes the disk, kind
    /// 5-7 takes a snapshot (full when `value` is even).
    #[test]
    fn chunk_granular_pipeline_equals_page_granular_reference(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u8>()), 1..32),
        batch in 1usize..9,
        fault_byte in any::<u8>()
    ) {
        use avm_core::ondemand::{fetch_blobs, materialize_on_demand, AuditorBlobCache};
        use avm_core::snapshot::{compute_state_root, SnapshotStore};

        let pages = 8usize;
        let image = VmImage::bytecode(
            "chunk-prop",
            (pages * avm_vm::PAGE_SIZE) as u64,
            assemble("halt", 0).unwrap(),
            0,
            0,
        )
        .with_disk(vec![0u8; 4 * avm_vm::PAGE_SIZE]);
        let registry = GuestRegistry::new();
        let mut m = Machine::from_image(&image, &registry).unwrap();
        let mut cache = StateTreeCache::new();
        let mut store = SnapshotStore::new();
        let mut captures = 0u64;
        let mut live_digests = Vec::new();
        for (kind, loc, val) in ops {
            match kind {
                0..=3 => {
                    // 1-9 byte writes at arbitrary addresses: most stay
                    // inside one 512 B chunk, some straddle chunk and page
                    // boundaries.
                    let len = 1 + (val as usize % 9);
                    let addr = (loc as u64) % (m.memory().size() - len as u64);
                    m.memory_mut().write(addr, &vec![val; len]).unwrap();
                }
                4 => {
                    let off = loc as u64 % m.devices().disk.size();
                    m.devices_mut().disk.write(off, &[val]).unwrap();
                }
                _ => {
                    let snap = capture_with_cache(&mut m, &mut cache, captures, val % 2 == 0);
                    prop_assert_eq!(
                        snap.state_root,
                        build_state_tree_uncached(&m).root(),
                        "incremental chunk root diverged at snapshot {}",
                        captures
                    );
                    store.push(snap);
                    captures += 1;
                    live_digests.push(m.state_digest());
                }
            }
        }
        store.push(capture_with_cache(&mut m, &mut cache, captures, true));
        captures += 1;
        live_digests.push(m.state_digest());

        let auditor = AuditorBlobCache::new();
        for id in 0..captures {
            // Materialized contents equal the page-agnostic raw contents the
            // live machine had at capture — what a page-granular pipeline
            // reconstructs, byte for byte.
            let full = store.materialize(id, &image, &registry).unwrap();
            prop_assert_eq!(
                full.state_digest(),
                live_digests[id as usize],
                "materialized contents diverged at snapshot {}",
                id
            );
            // Fault interleaving: stage the divergent chunks lazily, touch a
            // pseudo-random subset, and require root equality throughout.
            let (mut lazy, session) =
                materialize_on_demand(&store, id, &image, &registry, &auditor).unwrap();
            prop_assert_eq!(compute_state_root(&lazy), compute_state_root(&full));
            let addr = (fault_byte as u64).wrapping_mul(131) % lazy.memory().size();
            let _ = lazy.memory_mut().read_u8(addr).unwrap();
            let mut settle = AuditorBlobCache::new();
            let cost = session
                .finish(&lazy, &store, &mut settle)
                .unwrap();
            prop_assert_eq!(compute_state_root(&lazy), compute_state_root(&full));
            prop_assert_eq!(
                cost.chunks_faulted as usize,
                lazy.memory().faulted_chunks().len()
            );
        }

        // Batched blob exchange: any batch size returns the same blobs in
        // the same order as one-at-a-time, never with more round trips per
        // blob.
        let manifest = store.chain_manifest_upto(captures - 1).unwrap();
        let needed: Vec<Digest> = manifest
            .mem_refs
            .iter()
            .chain(&manifest.disk_refs)
            .map(|(_, d)| *d)
            .collect();
        let mut a = AuditorBlobCache::new();
        let mut b = AuditorBlobCache::new();
        let batched = fetch_blobs(&mut a, &store, &needed, batch, CompressionLevel::Default).unwrap();
        let unbatched = fetch_blobs(&mut b, &store, &needed, 1, CompressionLevel::Default).unwrap();
        prop_assert_eq!(&batched.fetched, &unbatched.fetched);
        prop_assert_eq!(batched.payload_bytes, unbatched.payload_bytes);
        prop_assert!(batched.round_trips <= unbatched.round_trips);
        prop_assert_eq!(unbatched.round_trips, unbatched.fetched.len() as u64);
    }

    /// The machine is deterministic: the same guest program with the same
    /// injected clock values always reaches the same state digest.
    #[test]
    fn machine_determinism(clocks in proptest::collection::vec(0u64..1_000_000, 1..8)) {
        let src = r"
                movi r2, 0
            loop:
                clock r1
                add r2, r1
                store r2, r3, 0x4000
                cmp r1, r4
                jne loop
                halt
            ";
        let run = |values: &[u64]| -> (u64, Digest) {
            let image = VmImage::bytecode("det", 64 * 1024, assemble(src, 0).unwrap(), 0, 0);
            let mut m = Machine::from_image(&image, &GuestRegistry::new()).unwrap();
            let mut it = values.iter().copied().chain(std::iter::repeat(0));
            loop {
                match m.run(StopCondition::Unbounded).unwrap() {
                    VmExit::ClockRead => m.provide_clock(it.next().unwrap()).unwrap(),
                    VmExit::Halted => break,
                    _ => {}
                }
            }
            (m.step_count(), m.state_digest())
        };
        let a = run(&clocks);
        let b = run(&clocks);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Networked audit endpoints
// ---------------------------------------------------------------------------

proptest! {
    // Every case records a full AVMM session (RSA keygen + signing), so the
    // case count is kept small; the interleavings inside each case are what
    // the property quantifies over.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A spot check driven over the simulated network reaches the identical
    /// verdict, fault, progress counters, and transfer-byte/round-trip
    /// accounting as the in-process path, under arbitrary write/snapshot
    /// interleavings, chunk choices, download modes, and deterministic link
    /// loss — and a lossless link never retransmits.  On demand, the
    /// miss-driven check also equals the provider replaying from its own
    /// store and settling afterwards.
    #[test]
    fn networked_spot_check_equals_in_process(
        workload in proptest::collection::vec((0u8..6, any::<bool>()), 2..6),
        start_pick in any::<u8>(),
        k in 1u64..3,
        loss_pick in 0usize..4,
        on_demand in any::<bool>(),
    ) {
        use avm_core::config::AvmmOptions;
        use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
        use avm_core::envelope::{Envelope, EnvelopeKind};
        use avm_core::ondemand::AuditorBlobCache;
        use avm_core::recorder::{Avmm, HostClock};
        use avm_core::replay::Replayer;
        use avm_core::spotcheck::{spot_check, spot_check_on_demand};
        use avm_crypto::keys::{SignatureScheme, SigningKey};
        use avm_net::LinkConfig;
        use avm_vm::packet::encode_guest_packet;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // A worker guest whose state diverges with every packet.
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
        let image = VmImage::bytecode("net-prop", 128 * 1024, assemble(src, 0).unwrap(), 0, 0)
            .with_disk(vec![0u8; 8192]);
        let registry = GuestRegistry::new();
        let mut rng = StdRng::seed_from_u64(7);
        let operator_key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let alice_key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let mut avmm = Avmm::new(
            "bob",
            &image,
            &registry,
            operator_key,
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
        )
        .unwrap();
        avmm.add_peer("alice", alice_key.verifying_key());
        let mut clock = HostClock::at(5);
        avmm.run_slice(&clock, 10_000).unwrap();
        let mut snapshots_taken = 0u64;
        for (i, (sel, snap)) in workload.iter().enumerate() {
            clock.advance_to(clock.now() + 500);
            let payload = encode_guest_packet("alice", &[b'w', *sel, i as u8]);
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i as u64 + 1,
                payload,
                &alice_key,
                None,
            );
            avmm.deliver(&env).unwrap();
            avmm.run_slice(&clock, 100_000).unwrap();
            if *snap {
                avmm.take_snapshot();
                snapshots_taken += 1;
            }
        }
        if snapshots_taken == 0 {
            avmm.take_snapshot();
            snapshots_taken = 1;
        }
        let start = start_pick as u64 % snapshots_taken;
        // drop_every = 1 would drop *every* packet (a black hole, tested
        // separately); quantify over lossless and partial-loss links.
        let drop_every = [0u64, 2, 3, 5][loss_pick];
        let link = LinkConfig { drop_every, ..LinkConfig::default() };

        // In-process baseline and the same check over the simulated network.
        let (baseline, net_report, fetched_equal) = if on_demand {
            let mut free_cache = AuditorBlobCache::new();
            let baseline = spot_check_on_demand(
                avmm.log(), avmm.snapshots(), start, k, &image, &registry, &mut free_cache,
            ).unwrap();
            let mut client = AuditClient::new(SimNetTransport::new(
                AuditServer::new(avmm.log(), avmm.snapshots()),
                link,
            ));
            let net_report = client.spot_check_on_demand(start, k, &image, &registry).unwrap();
            let fetched_equal = baseline.on_demand.as_ref().map(|c| c.fetched.clone())
                == net_report.on_demand.as_ref().map(|c| c.fetched.clone());

            // The miss-driven check against the provider staging its own
            // store and settling afterwards: the same verdict, progress and
            // final root, and the same blobs — received in first-touch
            // order, one request per miss.
            let chunk = client.fetch_log_chunk(start, k).unwrap();
            let mut cache = AuditorBlobCache::new();
            let (mut replayer, staged) = Replayer::from_snapshot_on_demand(
                &image, &registry, avmm.snapshots(), start, &cache,
            ).unwrap();
            let outcome = replayer.replay(&chunk);
            let summary = replayer.summary();
            prop_assert_eq!(net_report.consistent, outcome.is_consistent());
            prop_assert_eq!(net_report.fault.as_ref(), outcome.fault());
            prop_assert_eq!(net_report.entries_replayed, summary.entries_replayed);
            prop_assert_eq!(net_report.steps_replayed, summary.steps_executed);
            prop_assert_eq!(net_report.final_state, summary.final_state);
            let settled = staged.finish(replayer.machine(), avmm.snapshots(), &mut cache).unwrap();
            let cost = net_report.on_demand.as_ref().unwrap();
            let manifest = avmm.snapshots().chain_manifest_upto(start).unwrap();
            // First-touch order within each store is the order its faults
            // list: the order the settled exchange asks in.
            for refs in [&manifest.mem_refs, &manifest.disk_refs] {
                let of_store = |fetched: &[Digest]| -> Vec<Digest> {
                    fetched.iter().copied().filter(|d| refs.iter().any(|(_, r)| r == d)).collect()
                };
                prop_assert_eq!(of_store(&cost.fetched), of_store(&settled.fetched));
            }
            prop_assert_eq!(cost.fetched.len(), settled.fetched.len());
            prop_assert_eq!(cost.round_trips, 1 + cost.fetched_per_exchange.len() as u64);
            let blob_exchanges = net_report.transport.round_trips - 2;
            prop_assert_eq!(cost.round_trips, 1 + blob_exchanges);
            (baseline, net_report, fetched_equal)
        } else {
            let baseline = spot_check(
                avmm.log(), avmm.snapshots(), start, k, &image, &registry,
            ).unwrap();
            let mut client = AuditClient::new(SimNetTransport::new(
                AuditServer::new(avmm.log(), avmm.snapshots()),
                link,
            ));
            let net_report = client.spot_check(start, k, &image, &registry).unwrap();
            (baseline, net_report, true)
        };

        prop_assert_eq!(baseline.semantic(), net_report.semantic());
        prop_assert!(fetched_equal, "transferred digests diverged across transports");
        if drop_every == 0 {
            prop_assert_eq!(net_report.transport.retransmissions, 0);
        }
        prop_assert!(net_report.transport.round_trips >= 1);
        prop_assert!(net_report.measured_latency_micros() > 0);
    }
}

//! What an auditor derives once from its reference image must be what it
//! used to derive on every audit, and the checks that ride on it must still
//! bite.
//!
//! A `VmImage` memoises everything the image alone determines — digest,
//! leaf hashes, a digest → location index, the Merkle state tree
//! (`VmImage::baseline`) — and every audit starts from it instead of hashing
//! a fresh machine.  Pinned here: (a) the baseline is what hashing a fresh
//! machine from raw contents yields, for every image shape; (b) an image
//! whose memo is still empty and a warmed clone audit identically, report
//! for report, fault for fault, root for root; (c) tampered manifests,
//! sections and blobs fail with the errors they always failed with; (d) a
//! write to a seeded machine invalidates the slots it covers and no others;
//! (e) machines built from one image share its pages until they write them,
//! and no write, install or fault-in on one shows in another or in the
//! baseline; and the memo cannot outlive a change to what it was derived
//! from.

use std::sync::OnceLock;

use avm_attest::AttestVerdict;
use avm_core::attest::{challenge_nonce, Attestor, LaunchPolicy};
use avm_core::config::AvmmOptions;
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::error::CoreError;
use avm_core::ondemand::{materialize_on_demand, AuditorBlobCache};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::replay::Replayer;
use avm_core::snapshot::{
    build_state_tree_uncached, capture, compute_state_root, Snapshot, SnapshotStore,
};
use avm_core::spotcheck::{snapshot_positions, spot_check, spot_check_on_demand};
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_crypto::sha256::sha256;
use avm_db::server::DbConfig;
use avm_db::{db_image, db_registry};
use avm_log::LogEntry;
use avm_vm::bytecode::assemble;
use avm_vm::image::BaselineLocation;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{
    GuestCtx, GuestKernel, GuestRegistry, GuestStep, ImageKind, Machine, StopCondition, VmError,
    VmExit, VmImage, CHUNKS_PER_PAGE, CHUNK_SIZE, PAGE_SIZE, STATE_HEADER_LEAVES,
};
use avm_wire::attest::AttestChallenge;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCHEME: SignatureScheme = SignatureScheme::Rsa(512);

/// RSA key generation is the slow part of every case and has nothing to do
/// with what is quantified over.
fn identities() -> &'static (Identity, Identity) {
    static IDS: OnceLock<(Identity, Identity)> = OnceLock::new();
    IDS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(19);
        (
            Identity::generate(&mut rng, "host", SCHEME),
            Identity::generate(&mut rng, "alice", SCHEME),
        )
    })
}

/// A native guest that idles; `state` is all there is to its CPU state, so
/// two registries mapping one program name to different `state`s build
/// machines that differ in the header leaves only.
struct IdleKernel {
    state: Vec<u8>,
}

impl GuestKernel for IdleKernel {
    fn step(&mut self, _ctx: &mut GuestCtx<'_>) -> GuestStep {
        GuestStep::Idle
    }
    fn save_state(&self) -> Vec<u8> {
        self.state.clone()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), VmError> {
        self.state = bytes.to_vec();
        Ok(())
    }
    fn name(&self) -> &str {
        "idle"
    }
}

fn idle_registry(state: &'static [u8]) -> GuestRegistry {
    let mut registry = GuestRegistry::new();
    registry.register("idle", move |config| {
        Ok(Box::new(IdleKernel {
            state: [state, config].concat(),
        }))
    });
    registry
}

/// The baseline against a machine hashed from raw contents: every leaf, the
/// root through each path that now starts from the memo, and the raw
/// contents against the image itself.
fn check_baseline(image: &VmImage, registry: &GuestRegistry) -> Result<(), TestCaseError> {
    let machine = Machine::from_image(image, registry).unwrap();
    let reference = build_state_tree_uncached(&machine);
    let baseline = image.baseline();
    let [chunks, blocks] = baseline.leaf_hashes();
    prop_assert_eq!(chunks.len(), machine.memory().chunk_count());
    prop_assert_eq!(blocks.len(), machine.devices().disk.block_count());
    prop_assert_eq!(
        &reference.leaves()[STATE_HEADER_LEAVES..],
        &[chunks, blocks].concat()[..]
    );
    // Every digest the index knows sits where it says, and it knows them all.
    for (i, hash) in chunks.iter().chain(blocks).enumerate() {
        let content = match baseline.locate(hash) {
            Some(BaselineLocation::Chunk(c)) => machine.memory().chunk(c),
            Some(BaselineLocation::Block(b)) => machine.devices().disk.block(b),
            None => None,
        };
        prop_assert_eq!(content.map(sha256), Some(*hash), "leaf {}", i);
    }
    prop_assert_eq!(compute_state_root(&machine), reference.root());
    // And the machine holds what the image says: zeros, but for a bytecode
    // program at its load address and the image's disk from offset 0.
    let [mut mem, mut disk] = contents(&machine);
    if let ImageKind::Bytecode {
        code, load_addr, ..
    } = image.kind()
    {
        let program = *load_addr as usize..*load_addr as usize + code.len();
        prop_assert_eq!(&mem[program.clone()], &code[..]);
        mem[program].fill(0);
    }
    prop_assert_eq!(&disk[..image.disk().len()], image.disk());
    disk[..image.disk().len()].fill(0);
    prop_assert!(mem.iter().chain(&disk).all(|&b| b == 0));
    let mut replayer = Replayer::from_image(image, registry).unwrap();
    prop_assert_eq!(replayer.current_state_root(), reference.root());
    Ok(())
}

/// A worker guest whose memory and disk diverge with every packet (the
/// guest `networked_spot_check_equals_in_process` records).
fn worker_image() -> VmImage {
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
    VmImage::bytecode("baseline-prop", 128 * 1024, assemble(src, 0).unwrap(), 0, 0)
        .with_disk([vec![0u8; 2 * CHUNK_SIZE], vec![7u8; 100]].concat())
}

/// A machine's memory and disk, byte for byte, in `Machine::stores` order.
fn contents(machine: &Machine) -> [Vec<u8>; 2] {
    machine.stores().map(|store| {
        let leaves = (0..store.leaf_count()).map(|i| store.leaf(i).unwrap());
        leaves.collect::<Vec<_>>().concat()
    })
}

/// One step of `machines_from_one_image_keep_their_writes_to_themselves` on
/// `machine`, mirrored in `expected` (its `contents`): a write, a whole-leaf
/// install (of the leaf's own bytes when `val` is even), or a leaf staged and
/// faulted in by a one-byte read — in memory or on the disk.
fn apply(
    machine: &mut Machine,
    expected: &mut [Vec<u8>; 2],
    kind: u8,
    to_disk: bool,
    (loc, len, val): (u16, usize, u8),
) -> Result<(), TestCaseError> {
    let expected = &mut expected[to_disk as usize];
    let leaf = CHUNK_SIZE;
    let idx = loc as usize % (expected.len() / leaf);
    let range = idx * leaf..(idx + 1) * leaf;
    match kind {
        0 => {
            let len = len.min(expected.len());
            let addr = loc as usize * 37 % (expected.len() - len + 1);
            let data = vec![val; len];
            if to_disk {
                machine
                    .devices_mut()
                    .disk
                    .write(addr as u64, &data)
                    .unwrap();
            } else {
                machine.memory_mut().write(addr as u64, &data).unwrap();
            }
            expected[addr..addr + len].copy_from_slice(&data);
        }
        1 => {
            let data = match val % 2 {
                0 => expected[range.clone()].to_vec(),
                _ => vec![val; leaf],
            };
            if to_disk {
                machine.devices_mut().disk.set_block(idx, &data).unwrap();
            } else {
                machine
                    .memory_mut()
                    .set_chunk_from_slice(idx, &data)
                    .unwrap();
            }
            expected[range].copy_from_slice(&data);
        }
        _ => {
            let content = vec![val; leaf];
            let (hash, mut byte) = (sha256(&content), [0u8]);
            if to_disk {
                let disk = &mut machine.devices_mut().disk;
                disk.leaves_mut()
                    .stage_lazy(idx, content.clone(), hash)
                    .unwrap();
                disk.read(range.start as u64, &mut byte).unwrap();
            } else {
                let mem = machine.memory_mut();
                mem.stage_lazy_chunk(idx, content.clone(), hash).unwrap();
                mem.read(range.start as u64, &mut byte).unwrap();
            }
            prop_assert_eq!(byte[0], val);
            expected[range].copy_from_slice(&content);
        }
    }
    Ok(())
}

fn data_envelope(to: &str, msg_id: u64, body: &[u8]) -> Envelope {
    Envelope::create(
        EnvelopeKind::Data,
        "alice",
        to,
        msg_id,
        encode_guest_packet("alice", body),
        &identities().1.signing_key,
        None,
    )
}

/// Records `ops` on a fresh monitor: kind 0-1 pokes guest memory behind the
/// guest's back (so some chunks replay to a fault), 2-4 delivers a packet,
/// 5-7 takes a snapshot.  Always ends on a snapshot.
fn record(image: &VmImage, ops: &[(u8, u16, u8)]) -> Avmm {
    let mut avmm = Avmm::new(
        "host",
        image,
        &GuestRegistry::new(),
        identities().0.signing_key.clone(),
        AvmmOptions::default().with_scheme(SCHEME),
    )
    .unwrap();
    avmm.add_peer("alice", identities().1.verifying_key());
    let mut clock = HostClock::at(5);
    avmm.run_slice(&clock, 10_000).unwrap();
    avmm.take_snapshot();
    let mut msg_id = 0;
    for &(kind, loc, val) in ops {
        match kind {
            0..=1 => {
                let addr = 0x9000 + loc as u64 % 0x6000;
                avmm.machine_mut().memory_mut().write_u8(addr, val).unwrap();
            }
            2..=4 => {
                msg_id += 1;
                clock.advance_to(clock.now() + 500);
                avmm.deliver(&data_envelope("host", msg_id, &[b'w', val, loc as u8]))
                    .unwrap();
                avmm.run_slice(&clock, 100_000).unwrap();
            }
            _ => {
                avmm.take_snapshot();
            }
        }
    }
    avmm.take_snapshot();
    avmm
}

/// The chunk a `(start, k)` spot check replays.
fn chunk_entries(avmm: &Avmm, start: u64, k: u64) -> Vec<LogEntry> {
    let positions = snapshot_positions(avmm.log()).unwrap();
    let at = |id: u64| positions.iter().find(|(_, i, _)| *i == id).map(|p| p.0);
    let begin = at(start).unwrap() + 1;
    match at(start + k) {
        Some(end) => avmm.log().entries()[begin..=end].to_vec(),
        None => avmm.log().entries()[begin..].to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Bytecode images whose program straddles chunk and page
    /// boundaries at an arbitrary load address, with disks that are not a
    /// whole number of blocks.
    #[test]
    fn baseline_of_bytecode_images(
        pages in 1usize..6,
        load_pick in any::<u16>(),
        code in proptest::collection::vec(any::<u8>(), 1..1400),
        disk in proptest::collection::vec(any::<u8>(), 0..(2 * PAGE_SIZE + 50)),
    ) {
        let mem_size = (pages * avm_vm::PAGE_SIZE) as u64;
        let code = &code[..code.len().min(mem_size as usize)];
        let load_addr = load_pick as u64 % (mem_size - code.len() as u64 + 1);
        let image = VmImage::bytecode("shape", mem_size, code.to_vec(), load_addr, load_addr)
            .with_disk(disk);
        check_baseline(&image, &GuestRegistry::new())?;
    }

    /// (a) Native images, with and without a disk, under two registries
    /// that build different CPUs from the same image.
    #[test]
    fn baseline_of_native_images(
        pages in 1usize..6,
        config in proptest::collection::vec(any::<u8>(), 0..16),
        disk in proptest::option::of(proptest::collection::vec(any::<u8>(), 1..(PAGE_SIZE + 700))),
    ) {
        let mut image = VmImage::native("shape", (pages * avm_vm::PAGE_SIZE) as u64, "idle", config);
        if let Some(disk) = disk {
            image = image.with_disk(disk);
        }
        let (one, other) = (idle_registry(b"one"), idle_registry(b"another"));
        check_baseline(&image, &one)?;
        check_baseline(&image, &other)?;
        // The registry picks the CPU, which only the header leaves cover.
        let root = |registry| compute_state_root(&Machine::from_image(&image, registry).unwrap());
        prop_assert_ne!(root(&one), root(&other));
    }

    /// (d) Arbitrary writes to a machine whose hash caches were seeded from
    /// the baseline: every slot a write covered was emptied (the memoised
    /// hash is the contents' own), so the cached root is the uncached one.
    #[test]
    fn writes_to_a_seeded_machine_invalidate_what_they_cover(
        writes in proptest::collection::vec((any::<u16>(), 1usize..1100, any::<u8>(), any::<bool>()), 1..12)
    ) {
        let image = worker_image();
        let mut m = Machine::from_image(&image, &GuestRegistry::new()).unwrap();
        for (loc, len, val, to_disk) in writes {
            if to_disk {
                let off = loc as u64 % (m.devices().disk.size() - len as u64);
                m.devices_mut().disk.write(off, &vec![val; len]).unwrap();
            } else {
                let addr = loc as u64 % (m.memory().size() - len as u64);
                m.memory_mut().write(addr, &vec![val; len]).unwrap();
            }
            prop_assert_eq!(compute_state_root(&m), build_state_tree_uncached(&m).root());
        }
        let baseline = image.baseline();
        for c in 0..m.memory().chunk_count() {
            let hash = m.memory().leaves().leaf_hash(c).unwrap();
            prop_assert_eq!(hash, sha256(m.memory().chunk(c).unwrap()));
            // A chunk no write dirtied still answers with the seeded value.
            if !m.memory().leaves().dirty_leaves().contains(&c) {
                prop_assert_eq!(hash, baseline.leaf_hashes()[0][c]);
            }
        }
    }

    /// (e) Two machines from one image, arbitrary interleaved writes,
    /// installs and fault-ins on either: after every step each holds exactly
    /// what was done to it (never the other's bytes), its cached root is the
    /// uncached one, and the baseline — digest, leaf hashes, root — is what
    /// it was; a machine built afterwards starts where both did.
    #[test]
    fn machines_from_one_image_keep_their_writes_to_themselves(
        steps in proptest::collection::vec(
            (any::<bool>(), 0u8..3, any::<bool>(), (any::<u16>(), 1usize..1100, any::<u8>())),
            1..16,
        )
    ) {
        let (image, registry) = (worker_image(), GuestRegistry::new());
        let baseline = image.baseline();
        let derived = |b: &avm_vm::image::ImageBaseline| {
            (b.digest(), b.leaf_hashes().map(<[_]>::to_vec), b.state_tree().root())
        };
        let before = derived(baseline);
        let mut machines = [(); 2].map(|()| Machine::from_image(&image, &registry).unwrap());
        let fresh = contents(&machines[0]);
        let mut expected = [fresh.clone(), fresh.clone()];
        for (second, kind, to_disk, at) in steps {
            let which = second as usize;
            apply(&mut machines[which], &mut expected[which], kind, to_disk, at)?;
            for (machine, expected) in machines.iter().zip(&expected) {
                prop_assert!(contents(machine) == *expected);
                prop_assert_eq!(
                    compute_state_root(machine),
                    build_state_tree_uncached(machine).root()
                );
            }
            prop_assert!(derived(baseline) == before);
        }
        let late = Machine::from_image(&image, &registry).unwrap();
        prop_assert!(contents(&late) == fresh);
    }
}

proptest! {
    // Every case records a signed session; the interleavings inside a case
    // are what the property quantifies over.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (b) An image nobody has used yet and a warmed clone are the same
    /// auditor: equal reports (verdict, fault, progress, bytes, the whole
    /// `OnDemandCost`) in both download modes, equal fault lists, and equal
    /// state roots after every replayed entry — which, where the machine is
    /// fully resident, are also the roots hashing raw contents yields.
    #[test]
    fn cold_and_warm_images_audit_identically(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u8>()), 2..14),
        start_pick in any::<u8>(),
        k in 1u64..3,
    ) {
        let registry = GuestRegistry::new();
        let warm = worker_image();
        let avmm = record(&warm, &ops);
        let (log, store) = (avmm.log(), avmm.snapshots());
        let start = start_pick as u64 % store.len() as u64;
        // Warm beyond doubt: digest, leaves, a machine, one audit of each kind.
        warm.baseline();
        spot_check(log, store, start, k, &warm, &registry).unwrap();
        spot_check_on_demand(log, store, start, k, &warm, &registry, &mut AuditorBlobCache::new())
            .unwrap();
        let warm = warm.clone();

        let full = |image: &VmImage| spot_check(log, store, start, k, image, &registry).unwrap();
        prop_assert_eq!(full(&worker_image()), full(&warm));
        let on_demand = |image: &VmImage| {
            let mut cache = AuditorBlobCache::new();
            let first = spot_check_on_demand(log, store, start, k, image, &registry, &mut cache);
            let again = spot_check_on_demand(log, store, start, k, image, &registry, &mut cache);
            (first.unwrap(), again.unwrap())
        };
        let (cold_reports, warm_reports) = (on_demand(&worker_image()), on_demand(&warm));
        prop_assert_eq!(&cold_reports, &warm_reports);
        prop_assert_eq!(cold_reports.0.consistent, full(&warm).consistent);

        // Entry by entry: four replayers over the same chunk.
        let entries = chunk_entries(&avmm, start, k);
        let cache = AuditorBlobCache::new();
        let cold = worker_image();
        let mut replayers = [
            Replayer::from_snapshot(&cold, &registry, store, start).unwrap(),
            Replayer::from_snapshot(&warm, &registry, store, start).unwrap(),
            Replayer::from_snapshot_on_demand(&worker_image(), &registry, store, start, &cache)
                .unwrap().0,
            Replayer::from_snapshot_on_demand(&warm, &registry, store, start, &cache).unwrap().0,
        ];
        for entry in &entries {
            let results: Vec<_> = replayers.iter_mut().map(|r| r.replay_entry(entry)).collect();
            prop_assert!(results.iter().all(|r| *r == results[0]), "{:?}", results);
            if results[0].is_err() {
                break;
            }
            let roots: Vec<_> = replayers.iter_mut().map(|r| r.current_state_root()).collect();
            prop_assert!(roots.iter().all(|r| *r == roots[0]), "{:?}", roots);
            prop_assert_eq!(roots[0], build_state_tree_uncached(replayers[0].machine()).root());
        }
        let faults = |r: &Replayer| (
            r.machine().memory().faulted_chunks().to_vec(),
            r.machine().devices().disk.faulted_blocks().to_vec(),
        );
        prop_assert_eq!(faults(&replayers[2]), faults(&replayers[3]));
        prop_assert_eq!(replayers[0].summary(), replayers[3].summary());

        // The whole log from the image's initial state.
        let mut from_cold = Replayer::from_image(&worker_image(), &registry).unwrap();
        let mut from_warm = Replayer::from_image(&warm, &registry).unwrap();
        prop_assert_eq!(from_cold.replay(log.entries()), from_warm.replay(log.entries()));
        prop_assert_eq!(
            from_warm.current_state_root(),
            build_state_tree_uncached(from_warm.machine()).root()
        );
    }
}

/// The worker guest after one packet, captured in full: as it was, and with
/// one byte of its counter chunk flipped under the stale digest.
fn worker_snapshots() -> (VmImage, Snapshot, Snapshot) {
    let image = worker_image();
    let mut machine = Machine::from_image(&image, &GuestRegistry::new()).unwrap();
    machine.inject_packet(encode_guest_packet("alice", b"one packet"));
    loop {
        match machine.run(StopCondition::Unbounded).unwrap() {
            VmExit::ClockRead => machine.provide_clock(9).unwrap(),
            VmExit::Idle => break,
            _ => {}
        }
    }
    let honest = capture(&mut machine, 0, true);
    let mut flipped = honest.clone();
    flipped.mem_chunks[COUNTER_CHUNK].2[0] ^= 0xff;
    (image, honest, flipped)
}

/// Chunks of the guest's counter cell (0x9000) and receive buffer (0x8000):
/// the two the packet made diverge from the image.
const COUNTER_CHUNK: usize = 0x9000 / CHUNK_SIZE;
const BUFFER_CHUNK: usize = 0x8000 / CHUNK_SIZE;

fn store_of(snapshot: Snapshot) -> SnapshotStore {
    let mut store = SnapshotStore::new();
    store.push(snapshot);
    store
}

fn snapshot_error<T: std::fmt::Debug>(result: Result<T, CoreError>) -> String {
    match result {
        Err(CoreError::Snapshot(message)) => message,
        other => panic!("expected a snapshot error, got {other:?}"),
    }
}

/// (c) The incremental checks reject what the full rebuilds rejected, in
/// the same words: a manifest that lies about one reference, a section
/// with one flipped byte, a staged blob that is not what its digest says.
#[test]
fn tampered_manifest_section_and_blob_still_fail() {
    let (image, honest, flipped) = worker_snapshots();
    let registry = GuestRegistry::new();
    let cache = AuditorBlobCache::new();
    let store = store_of(honest);
    assert!(store.materialize(0, &image, &registry).is_ok());
    assert!(materialize_on_demand(&store, 0, &image, &registry, &cache).is_ok());

    // One reference swapped for another pooled digest (staged, then caught
    // by the root), and one swapped for the reference image's own (nothing
    // staged there at all, caught by the root just the same).
    let manifest = store.chain_manifest_upto(0).unwrap();
    let image_own = image.baseline().leaf_hashes()[0][COUNTER_CHUNK];
    let pooled = manifest.mem_refs[BUFFER_CHUNK].1;
    assert_eq!(manifest.mem_refs[COUNTER_CHUNK].0 as usize, COUNTER_CHUNK);
    assert!(manifest.mem_refs[COUNTER_CHUNK].1 != image_own && pooled != image_own);
    for lie in [pooled, image_own] {
        let mut forged = manifest.clone();
        forged.mem_refs[COUNTER_CHUNK].1 = lie;
        let message = snapshot_error(Replayer::from_manifest_on_demand(
            &forged, 0, &image, &registry, &cache,
        ));
        assert!(
            message.contains("manifest does not authenticate"),
            "{message}"
        );
    }

    // One flipped byte in a section: the manifest still authenticates, and
    // materializing hashes every byte it takes from the pool against the
    // digest it was staged under.
    let tampered = store_of(flipped);
    let message = snapshot_error(tampered.materialize(0, &image, &registry));
    let counter = manifest.mem_refs[COUNTER_CHUNK].1;
    assert_eq!(
        message,
        format!(
            "received blob does not hash to its requested digest {}",
            counter.short_hex()
        )
    );

    // The same bytes served on demand: staging hashes nothing, the blob
    // check on receipt names them.
    let (mut lazy, session) =
        materialize_on_demand(&tampered, 0, &image, &registry, &cache).unwrap();
    lazy.memory_mut()
        .read_u8(COUNTER_CHUNK as u64 * 512)
        .unwrap();
    let message = snapshot_error(session.finish(&lazy, &tampered, &mut cache.clone()));
    assert!(message.contains("received blob does not hash"), "{message}");
}

/// Content the reference image holds at *another* index is staged out of
/// the auditor's own fresh machine (found through the baseline's index) and
/// never fetched, for chunks and blocks alike.
#[test]
fn content_the_image_holds_elsewhere_is_staged_locally() {
    let image = worker_image();
    let registry = GuestRegistry::new();
    let mut machine = Machine::from_image(&image, &registry).unwrap();
    let code = machine.memory().chunk(0).unwrap().to_vec();
    let sevens = machine.devices().disk.block(2).unwrap().to_vec();
    machine.memory_mut().write(0x9000, &code).unwrap();
    machine.devices_mut().disk.write(0, &sevens).unwrap();
    let store = store_of(capture(&mut machine, 0, false));

    let cache = AuditorBlobCache::new();
    let (mut lazy, session) = materialize_on_demand(&store, 0, &image, &registry, &cache).unwrap();
    assert_eq!((session.staged_chunks(), session.staged_blocks()), (1, 1));
    assert_eq!(compute_state_root(&lazy), compute_state_root(&machine));
    assert_eq!(
        lazy.memory_mut().read_vec(0x9000, CHUNK_SIZE).unwrap(),
        code
    );
    let mut block = vec![0u8; CHUNK_SIZE];
    lazy.devices_mut().disk.read(0, &mut block).unwrap();
    assert_eq!(block, sevens);
    let cost = session
        .finish(&lazy, &store, &mut AuditorBlobCache::new())
        .unwrap();
    assert_eq!((cost.chunks_faulted, cost.blocks_faulted), (1, 1));
    assert_eq!(cost.locally_derived, 2);
    assert!(cost.fetched.is_empty());
    assert_eq!(cost.transfer_bytes, cost.manifest_bytes);
}

/// The memo must not outlive a change to the image.  Warm an honest db
/// image every way there is, then do what `bench`'s `fleet_attested` does
/// for its rogue provider — `clone().with_disk(..)` — and the result has to
/// be a different image in every respect.
#[test]
fn warmed_clone_with_disk_forgets_the_baseline() {
    let image = db_image(&DbConfig::new("alice"));
    let registry = db_registry();
    let digest = image.digest();
    let blocks = image.baseline().leaf_hashes()[1].to_vec();
    let mut machine = Machine::from_image(&image, &registry).unwrap();
    let store = store_of(capture(&mut machine, 0, true));
    store.materialize(0, &image, &registry).unwrap();
    materialize_on_demand(&store, 0, &image, &registry, &AuditorBlobCache::new()).unwrap();

    let rogue = image.clone().with_disk(vec![0xEE; 512]);
    assert_ne!(rogue, image);
    assert_ne!(rogue.digest(), digest);
    let zero = sha256(&[0; CHUNK_SIZE]);
    assert_eq!(
        rogue.baseline().leaf_hashes()[1],
        [
            &[sha256(&[0xEE; CHUNK_SIZE])][..],
            &[zero; CHUNKS_PER_PAGE - 1]
        ]
        .concat()
    );
    assert!(!blocks.contains(&rogue.baseline().leaf_hashes()[1][0]));
    let machine = Machine::from_image(&rogue, &registry).unwrap();
    assert_eq!(
        compute_state_root(&machine),
        build_state_tree_uncached(&machine).root()
    );
    // The honest image is untouched by what its clone went through.
    assert_eq!(image.digest(), digest);
    assert_eq!(image.baseline().leaf_hashes()[1], &blocks[..]);

    // A provider that booted the rogue image is rejected at the door.
    let (operator, _) = identities();
    let booted = Avmm::new(
        "host",
        &rogue,
        &registry,
        operator.signing_key.clone(),
        AvmmOptions::default().with_scheme(SCHEME),
    )
    .unwrap();
    let attestor = Attestor::for_avmm(&booted, &rogue).unwrap();
    let policy = LaunchPolicy::new(&image, "host", SCHEME, operator.verifying_key());
    let challenge = AttestChallenge {
        nonce: challenge_nonce(7, 1_000),
        issued_at_us: 1_000,
    };
    let (verdict, _) = policy.verify(&attestor.quote(&challenge), &challenge, 1_500);
    assert_eq!(verdict, AttestVerdict::ImageMismatch);
}

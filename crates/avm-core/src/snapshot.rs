//! Incremental snapshots with authenticated (Merkle) state roots, stored in
//! a content-addressed, reference-counted pool.
//!
//! The AVMM "periodically takes a snapshot of the AVM's state … snapshots are
//! incremental, that is, they only contain the state that has changed since
//! the last snapshot.  The AVMM also maintains a hash tree over the state;
//! after each snapshot, it updates the tree and then records the top-level
//! value in the log" (paper §4.4).  Auditors use snapshots as the starting
//! points of spot checks (§3.5, §6.12) and authenticate downloaded state
//! against the recorded root.
//!
//! # Chunk granularity
//!
//! The unit of accountability throughout this module is the 512 B **chunk**
//! ([`avm_vm::CHUNK_SIZE`], eight per page), the one leaf of every machine
//! store, memory and disk alike: snapshot payloads, Merkle leaves, pool
//! blobs, manifest references and transfer sections are all chunk-sized,
//! matching the VM's chunk-granular dirty tracking.  A guest that bumps an
//! 8-byte counter therefore costs one 512 B chunk of hashing, storage and
//! transfer instead of a 4 KiB page — in memory or on the disk.  (A
//! physical disk writes whole sectors, which would make leaves finer than a
//! sector pointless; this VM's disk is byte-addressed, and its guests write
//! a few bytes at a time: a `diskwr` of one counter, a database's appended
//! record.)  A disk "block" below is a disk leaf.
//!
//! Mirroring the prototype's behaviour reported in §6.12, a snapshot carries
//! a *full* dump of guest memory chunks plus *incremental* (dirty-only) disk
//! blocks; passing `full_memory = false` to [`capture`] captures dirty-only
//! memory as well for harnesses that want the optimised variant.
//!
//! # Content-addressed storage and pruning
//!
//! [`capture`] produces a [`Snapshot`] holding raw chunk/block payloads — the
//! unit a recorder hands over the wire.  [`SnapshotStore::push`] does *not*
//! keep those payloads per snapshot: every payload is interned into a
//! content-addressed [pool](SnapshotStore::stored_payload_bytes) keyed by its
//! SHA-256 (the same digests the Merkle leaves are built from), and the
//! stored [`StoredSnapshot`] records only `(index, hash)` references.  A
//! full-memory capture therefore costs O(unique chunks) of storage instead of
//! O(chunks): identical chunks across snapshots — and identical chunks
//! *within* one snapshot, e.g. zero chunks — share a single blob, so repeated
//! captures of a mostly-idle guest add almost nothing to the pool.
//! [`SnapshotStore::materialize`] stages the collapsed references from the
//! pool the way an audit session stages a manifest, authenticates them
//! against the recorded Merkle root and hashes every blob it installs
//! against its digest, so a corrupted or substituted blob can never go
//! unnoticed.
//!
//! Pool entries are reference-counted by the snapshots holding them, which
//! makes retention bounded: [`SnapshotStore::prune_upto`] rebases the chain
//! onto a chosen snapshot — collapsing everything older into one synthetic
//! full snapshot, exactly the state [`SnapshotStore::materialize`] would
//! have reconstructed — and drops every blob no surviving snapshot
//! references.  Snapshots older than the rebase point become unavailable;
//! everything from it onward keeps materializing and authenticating as
//! before, and new captures keep appending.
//!
//! # One builder of a start state, one section-stream writer
//!
//! "The full state at snapshot `n`" is built one way, by provider and
//! auditor alike: the references the chain collapses to are staged
//! ([`crate::ondemand`], one root check), and the leaves' bytes arrive
//! before replay, as replay touches them, or — in
//! [`SnapshotStore::materialize`] — at once from the store's own pool.
//! Which sections a state is made of — a later full memory dump supersedes
//! every earlier memory section, every disk section applies — is decided in
//! one walk, `sections_upto`, that the manifest, pruning and the section
//! stream all consume, so none of them can disagree with another.
//!
//! The paper's full download (§3.5) ships the state at snapshot `n` as one
//! byte stream of snapshot *sections* (headers, indexed chunks, indexed disk
//! blocks, then the target's CPU and device state).
//! [`SnapshotStore::append_transfer_stream_upto`] writes it (the layout is
//! on it); nothing in the workspace reads it.  It stays for the `Sections`
//! answer, which only the `bench/` harness requests, and for pricing.
//!
//! Because the paper's prototype ships snapshots *compressed* (§6.12
//! reports compressed numbers), [`SnapshotStore::transfer_cost_upto`]
//! routes the same stream through `avm-compress`, yielding raw and
//! compressed sizes side by side.
//!
//! # The incremental state-root pipeline
//!
//! The state root covers a fixed leaf order — CPU state, device state,
//! control word, then every leaf of each of [`Machine::stores`] (every
//! memory chunk, every disk block) — so recorder and auditor always derive
//! comparable roots.  That order is written down in `Machine::stores` and
//! nowhere else: everything here walks the two stores with a running leaf
//! base.  Naively a root is O(total state) of hashing per snapshot; the
//! paper's own AVMM "maintains" the tree instead of rebuilding it, and so
//! does this module:
//!
//! 1. `avm-vm` memoises each leaf's SHA-256, emptying a slot the moment
//!    that chunk/block is written ([`avm_vm::LeafStore::leaf_hash`]).
//! 2. [`StateTreeCache`] keeps the Merkle tree alive across snapshots and,
//!    on [`StateTreeCache::refresh`], re-derives only the three header
//!    leaves plus the leaves flagged by the stores' dirty bits, updating
//!    the tree in one O(dirty + log n) batch
//!    ([`MerkleTree::update_leaf_hashes`]).  The dirty-leaf hashing itself
//!    is fanned across a small hand-rolled scoped-thread worker pool
//!    ([`avm_vm::LeafStore::prime_hashes`] →
//!    [`avm_crypto::parallel::sha256_batch`]), so the remaining O(dirty)
//!    work scales across cores for large guests.
//!
//! 3. Nobody builds the tree of a machine that is still what its image made
//!    it: [`avm_vm::VmImage::baseline`] holds that tree (header leaves as
//!    placeholders) and the leaf hashes under it, derived once per image.
//!    Staging and the replayer start from a copy and replace the leaves
//!    the snapshot changed, so reconstructing and authenticating a
//!    snapshot hashes the bytes that came out of the store and nothing
//!    that is the reference image's own.  A reference whose digest is the
//!    image's own leaf there (a full memory dump of a chunk the guest never
//!    touched) costs a compare and is not staged at all.
//!
//! **Invalidation contract:** `refresh` trusts the dirty bits to name every
//! chunk/block whose contents changed since the cache was last in sync.
//! That holds as long as dirty bits are only cleared at capture points
//! (which is when the cache is refreshed); callers that clear dirty
//! tracking elsewhere must call [`StateTreeCache::invalidate`] first.
//! Refreshing a leaf whose content did not change is always safe — updates
//! are idempotent — so it does not matter if dirty bits over-approximate.
//! [`build_state_tree_uncached`] remains as the reference implementation;
//! tests and benches cross-check the cached root against it.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use avm_compress::{CompressionLevel, CompressionStats};
use avm_crypto::merkle::MerkleTree;
use avm_crypto::sha256::{sha256, Digest};
use avm_vm::image::ImageBaseline;
use avm_vm::{GuestRegistry, LeafStore, Machine, VmImage, STATE_HEADER_LEAVES};

use crate::error::CoreError;
use crate::ondemand::{stage_from_manifest, AuditorBlobCache};

/// Fixed framing bytes per snapshot: `id` (8) + `step` (8) + the
/// `full_memory`/`halted` flags (2) + the state root (32).
pub const SNAPSHOT_HEADER_BYTES: u64 = 50;

/// Bytes a snapshot header occupies in the section stream: the framing
/// ([`SNAPSHOT_HEADER_BYTES`]) plus its memory and disk section counts.
const STREAM_HEADER_BYTES: u64 = SNAPSHOT_HEADER_BYTES + 8;

/// The `u32` lengths in front of the section stream's CPU and device state.
const STREAM_TRAILER_BYTES: u64 = 8;

/// A point-in-time capture of AVM state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Dense snapshot identifier (0, 1, 2, …).
    pub id: u64,
    /// Machine step count at capture time.
    pub step: u64,
    /// Whether the memory section contains every chunk (`true`) or only
    /// chunks dirtied since the previous snapshot (`false`).
    pub full_memory: bool,
    /// Captured memory chunks as `(chunk index, content hash, contents)`.
    /// The hash is the VM's memoised Merkle leaf hash, carried along so the
    /// content-addressed [`SnapshotStore`] never rehashes payloads on push.
    pub mem_chunks: Vec<(u32, Digest, Vec<u8>)>,
    /// Captured disk blocks as `(block index, content hash, contents)` —
    /// always incremental.
    pub disk_blocks: Vec<(u32, Digest, Vec<u8>)>,
    /// Serialized CPU state.
    pub cpu_state: Vec<u8>,
    /// Serialized volatile device state.
    pub dev_state: Vec<u8>,
    /// Whether the guest had halted.
    pub halted: bool,
    /// Merkle root over the complete machine state at capture time.
    pub state_root: Digest,
}

impl Snapshot {
    /// Bytes of captured memory chunk payloads.
    pub fn memory_bytes(&self) -> u64 {
        self.mem_chunks.iter().map(|(_, _, p)| p.len() as u64).sum()
    }

    /// Bytes of captured disk block payloads.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_blocks
            .iter()
            .map(|(_, _, b)| b.len() as u64)
            .sum()
    }

    /// Number of memory chunks this snapshot carries (all chunks for a full
    /// capture, dirty chunks only for an incremental one).
    pub fn chunk_count(&self) -> usize {
        self.mem_chunks.len()
    }

    /// Framing bytes beyond the raw payloads: the per-entry `u32` indices
    /// (which dominate relative overhead for small dirty-only captures) plus
    /// the fixed header ([`SNAPSHOT_HEADER_BYTES`]).
    pub fn metadata_bytes(&self) -> u64 {
        (self.mem_chunks.len() + self.disk_blocks.len()) as u64 * 4 + SNAPSHOT_HEADER_BYTES
    }

    /// Total size of the snapshot as stored or transferred: payloads
    /// (memory + disk + CPU + devices) plus [`Snapshot::metadata_bytes`].
    ///
    /// Counting the framing keeps full and dirty-only captures comparable —
    /// a dirty-only capture pays per-entry index overhead that a "payload
    /// only" total would hide.
    pub fn total_bytes(&self) -> u64 {
        self.memory_bytes()
            + self.disk_bytes()
            + self.cpu_state.len() as u64
            + self.dev_state.len() as u64
            + self.metadata_bytes()
    }
}

/// Hashes the three header leaves (CPU, devices, control word) that precede
/// the per-chunk and per-block leaves in the fixed leaf order.
fn header_leaves(machine: &Machine) -> [Digest; STATE_HEADER_LEAVES] {
    let mut control = Vec::with_capacity(10);
    control.extend_from_slice(&machine.step_count().to_le_bytes());
    control.push(u8::from(machine.is_halted()));
    control.push(u8::from(machine.is_waiting_clock()));
    [
        sha256(&machine.save_cpu_state()),
        sha256(&machine.devices().save_volatile()),
        sha256(&control),
    ]
}

/// Computes the Merkle root over the complete state of `machine`.
///
/// The leaf order is fixed (CPU state, device state, control word, every
/// memory chunk, every disk block), so the recording AVMM and a replaying
/// auditor always derive comparable roots.  Chunk and block leaves come from
/// the VM's memoised hash caches; hot paths that take repeated roots should
/// hold a [`StateTreeCache`] instead, which also reuses the tree's interior
/// nodes.
pub fn compute_state_root(machine: &Machine) -> Digest {
    build_state_tree(machine).root()
}

/// Builds the full Merkle tree over machine state (exposed so auditors can
/// produce inclusion proofs for individual chunks).
///
/// Missing chunk/block hashes are filled in bulk across the scoped worker
/// pool before the leaves are collected, so a cold full build parallelises
/// the same way an incremental refresh does.
pub fn build_state_tree(machine: &Machine) -> MerkleTree {
    let mut leaves = header_leaves(machine).to_vec();
    for store in machine.stores() {
        let all: Vec<usize> = (0..store.leaf_count()).collect();
        store.prime_hashes(&all);
        leaves.extend(
            all.iter()
                .map(|&i| store.leaf_hash(i).expect("leaf in range")),
        );
    }
    MerkleTree::from_leaf_hashes(leaves)
}

/// Reference tree construction that rehashes every chunk and block from raw
/// contents, bypassing the VM hash caches, the worker pool and any
/// [`StateTreeCache`].
///
/// This is the seed implementation's cost model, kept as the baseline the
/// property tests cross-check against and the benches compare with.
pub fn build_state_tree_uncached(machine: &Machine) -> MerkleTree {
    let mut leaves = header_leaves(machine).to_vec();
    for store in machine.stores() {
        leaves
            .extend((0..store.leaf_count()).map(|i| sha256(store.leaf(i).expect("leaf in range"))));
    }
    MerkleTree::from_leaf_hashes(leaves)
}

/// A Merkle state tree kept alive between snapshots so each refresh costs
/// O(dirty leaves + log n) instead of O(total state).
///
/// See the module docs for the invalidation contract.  A fresh (or
/// [`StateTreeCache::invalidate`]d) cache rebuilds the tree in full on its
/// next refresh, so holding one is never less correct than calling
/// [`compute_state_root`] — only faster.
#[derive(Debug, Clone, Default)]
pub struct StateTreeCache {
    tree: Option<MerkleTree>,
    /// [`Machine::state_version`] at the last refresh.  While it is
    /// unchanged, the three header leaves (CPU, devices, control word) are
    /// guaranteed unchanged too, so refresh skips reserialising and
    /// rehashing them — pure-memory workloads (the `fig6inc` benchmark, a
    /// guest idling between captures) then pay only for dirty chunk leaves.
    header_version: Option<u64>,
}

impl StateTreeCache {
    /// Creates an empty cache (the first refresh builds the full tree).
    pub fn new() -> StateTreeCache {
        StateTreeCache::default()
    }

    /// A cache in sync with a machine fresh from `image`: a copy of the
    /// tree the image's baseline holds ([`avm_vm::VmImage::baseline`]),
    /// whose header leaves the first refresh fills in.  Whoever then changes
    /// the machine keeps to the invalidation contract from here — which is
    /// how an audit authenticates its start state by updating the leaves
    /// that diverge from the image instead of building a tree.
    pub(crate) fn from_baseline(image: &VmImage) -> StateTreeCache {
        StateTreeCache {
            tree: Some(image.baseline().state_tree().clone()),
            header_version: None,
        }
    }

    /// Drops the cached tree, forcing the next refresh to rebuild it.
    ///
    /// Required before reusing the cache on a *different* machine, or after
    /// clearing dirty bits without refreshing.
    pub fn invalidate(&mut self) {
        self.tree = None;
        self.header_version = None;
    }

    /// The cached tree, if one has been built (for inclusion proofs).
    pub fn tree(&self) -> Option<&MerkleTree> {
        self.tree.as_ref()
    }

    /// Synchronises the cached tree with `machine` and returns the root.
    ///
    /// Chunk and block leaves are re-derived only where the machine's dirty
    /// bits say the contents may have changed since the last refresh, with
    /// the missing hashes computed in one parallel batch (see the module
    /// docs).  The three header leaves (CPU, devices, control word) are
    /// re-derived only when [`Machine::state_version`] moved since the last
    /// refresh — the version is a conservative change counter over exactly
    /// the state those leaves cover, so an unchanged version proves the
    /// serialised headers (and hence their hashes) are identical.
    pub fn refresh(&mut self, machine: &Machine) -> Digest {
        let dirty = machine.stores().map(|store| store.dirty_leaves());
        self.refresh_leaves(machine, dirty.each_ref().map(Vec::as_slice))
    }

    /// [`StateTreeCache::refresh`] over leaves the caller names instead of
    /// the dirty bits, one list per store of [`Machine::stores`]: on-demand
    /// staging changes what a leaf *hashes to* without writing it, so it
    /// passes the indices it staged.
    pub(crate) fn refresh_leaves(&mut self, machine: &Machine, leaves: [&[usize]; 2]) -> Digest {
        let stores = machine.stores();
        let leaf_count = STATE_HEADER_LEAVES + stores.iter().map(|s| s.leaf_count()).sum::<usize>();
        let version = machine.state_version();
        match &mut self.tree {
            Some(tree) if tree.leaf_count() == leaf_count => {
                let mut updates: Vec<(usize, Digest)> = Vec::new();
                if self.header_version != Some(version) {
                    updates.extend(header_leaves(machine).into_iter().enumerate());
                }
                let mut base = STATE_HEADER_LEAVES;
                for (store, indices) in stores.into_iter().zip(leaves) {
                    // Fan the leaf hashing across the worker pool before the
                    // serial tree update reads the memoised values.
                    store.prime_hashes(indices);
                    updates.extend(
                        indices
                            .iter()
                            .map(|&i| (base + i, store.leaf_hash(i).expect("named leaf in range"))),
                    );
                    base += store.leaf_count();
                }
                let ok = tree.update_leaf_hashes(&updates);
                debug_assert!(ok, "state tree leaf indices in range");
                self.header_version = Some(version);
                tree.root()
            }
            _ => {
                let tree = build_state_tree(machine);
                let root = tree.root();
                self.tree = Some(tree);
                self.header_version = Some(version);
                root
            }
        }
    }
}

/// Captures a snapshot of `machine` and clears its dirty tracking.
///
/// `full_memory` selects between the paper-prototype behaviour (full memory
/// dump, §6.12) and dirty-chunk-only memory.  This convenience form rebuilds
/// the state tree from the (memoised) leaf hashes; hot paths taking repeated
/// snapshots should use [`capture_with_cache`].
pub fn capture(machine: &mut Machine, id: u64, full_memory: bool) -> Snapshot {
    let mut cache = StateTreeCache::new();
    capture_with_cache(machine, &mut cache, id, full_memory)
}

/// Captures a snapshot of `machine`, maintaining `cache` incrementally, and
/// clears the machine's dirty tracking.
///
/// The dirty bits consumed here serve double duty: they select which leaves
/// of `cache` to refresh *and* which chunks/blocks the snapshot carries, so
/// the snapshot and the root it records are always mutually consistent.
pub fn capture_with_cache(
    machine: &mut Machine,
    cache: &mut StateTreeCache,
    id: u64,
    full_memory: bool,
) -> Snapshot {
    // A partially-resident machine (on-demand audits) pairs staged authentic
    // *hashes* with stale raw *contents*; capturing it would intern those
    // stale bytes under authentic digests and poison every store the
    // snapshot is pushed into.  Recording machines never stage, so this is
    // loud protection against misuse, not a reachable runtime state.
    assert!(
        machine.stores().iter().all(|s| s.staged_count() == 0),
        "cannot capture a machine with staged demand-paged state"
    );
    let state_root = cache.refresh(machine);
    // The leaf hashes are memoised by the VM (and fresh after the refresh
    // above); carrying them with the payloads lets the content-addressed
    // store intern without rehashing.
    let capture_leaves = |store: &LeafStore, whole: bool| -> Vec<(u32, Digest, Vec<u8>)> {
        let indices = if whole {
            (0..store.leaf_count()).collect()
        } else {
            store.dirty_leaves()
        };
        let captured = |i: usize| {
            let hash = store.leaf_hash(i).expect("leaf hash");
            (i as u32, hash, store.leaf(i).expect("leaf").to_vec())
        };
        indices.into_iter().map(captured).collect()
    };
    // Memory is dumped whole on request; the disk is always incremental.
    let [memory, disk] = machine.stores();
    let (mem_chunks, disk_blocks) = (
        capture_leaves(memory, full_memory),
        capture_leaves(disk, false),
    );
    let snapshot = Snapshot {
        id,
        step: machine.step_count(),
        full_memory,
        mem_chunks,
        disk_blocks,
        cpu_state: machine.save_cpu_state(),
        dev_state: machine.devices().save_volatile(),
        halted: machine.is_halted(),
        state_root,
    };
    // clear_dirty_tracking (not devices_mut + clear_dirty) so an idle
    // machine's state version stays put and the next refresh can skip the
    // header leaves.
    machine.clear_dirty_tracking();
    snapshot
}

/// A snapshot as kept by the [`SnapshotStore`]: payloads are replaced by
/// content-addressed references into the store's shared blob pool.
///
/// Byte-accounting methods ([`StoredSnapshot::memory_bytes`],
/// [`StoredSnapshot::total_bytes`], …) report the *logical* (wire-equivalent)
/// sizes, identical to what the originating [`Snapshot`] reported — the
/// dedup savings are a property of the store, visible through
/// [`SnapshotStore::stored_payload_bytes`].
#[derive(Debug, Clone)]
pub struct StoredSnapshot {
    /// Dense snapshot identifier (0, 1, 2, …).
    pub id: u64,
    /// Machine step count at capture time.
    pub step: u64,
    /// Whether this snapshot's memory section is a chain memory base: it
    /// supersedes every earlier memory section, so reconstruction starts
    /// from the reference image plus this section alone.  True for captures
    /// taken with `full_memory` (which carry every chunk) and for the
    /// synthetic snapshot [`SnapshotStore::prune_upto`] rebases onto (which
    /// carries the *effective* chunk set — chunks never written stay
    /// image-derived); false for dirty-only incremental captures.
    pub full_memory: bool,
    /// Whether the guest had halted.
    pub halted: bool,
    /// Merkle root over the complete machine state at capture time.
    pub state_root: Digest,
    /// Serialized CPU state.
    pub cpu_state: Vec<u8>,
    /// Serialized volatile device state.
    pub dev_state: Vec<u8>,
    mem_chunks: Vec<(u32, Digest)>,
    disk_blocks: Vec<(u32, Digest)>,
    mem_payload_bytes: u64,
    disk_payload_bytes: u64,
}

impl StoredSnapshot {
    /// Logical bytes of the captured memory chunk payloads.
    pub fn memory_bytes(&self) -> u64 {
        self.mem_payload_bytes
    }

    /// Logical bytes of the captured disk block payloads.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_payload_bytes
    }

    /// Number of memory chunks this snapshot references.
    pub fn chunk_count(&self) -> usize {
        self.mem_chunks.len()
    }

    /// Content references for the memory section, as `(chunk index, hash)`.
    pub fn mem_chunk_refs(&self) -> &[(u32, Digest)] {
        &self.mem_chunks
    }

    /// Content references for the disk section, as `(block index, hash)`.
    pub fn disk_block_refs(&self) -> &[(u32, Digest)] {
        &self.disk_blocks
    }

    /// Framing bytes beyond the raw payloads, mirroring
    /// [`Snapshot::metadata_bytes`].
    pub fn metadata_bytes(&self) -> u64 {
        (self.mem_chunks.len() + self.disk_blocks.len()) as u64 * 4 + SNAPSHOT_HEADER_BYTES
    }

    /// Logical total size as transferred, mirroring [`Snapshot::total_bytes`].
    pub fn total_bytes(&self) -> u64 {
        self.memory_bytes()
            + self.disk_bytes()
            + self.cpu_state.len() as u64
            + self.dev_state.len() as u64
            + self.metadata_bytes()
    }
}

/// A reference-counted blob held by the pool.
#[derive(Debug, Clone)]
struct PoolEntry {
    data: Vec<u8>,
    /// Number of `(index, hash)` references across all retained snapshots.
    refs: u64,
}

/// Content-addressed, reference-counted blob pool shared by all snapshots in
/// a store.
#[derive(Debug, Clone, Default)]
struct PayloadPool {
    blobs: HashMap<Digest, PoolEntry>,
    /// Unique bytes currently held (drops when pruning releases last refs).
    stored_bytes: u64,
    /// Cumulative logical bytes ever interned.
    pushed_bytes: u64,
    /// Cumulative bytes saved by dedup at intern time.
    deduped_bytes: u64,
}

impl PayloadPool {
    /// Interns `data` under the caller-supplied content `hash` (the VM's
    /// memoised Merkle leaf hash, so pushing never rehashes payloads),
    /// acquiring one reference.  Only the first occurrence of any content
    /// costs storage; later occurrences are accounted as deduplicated.
    ///
    /// The digest is trusted here: a snapshot pushed with a digest that does
    /// not match its payload mis-keys the blob, and materialization of any
    /// snapshot referencing it fails the state-root authentication — the
    /// same verdict tampered content gets.
    fn intern(&mut self, hash: Digest, data: Vec<u8>) {
        self.pushed_bytes += data.len() as u64;
        match self.blobs.entry(hash) {
            Entry::Occupied(mut slot) => {
                slot.get_mut().refs += 1;
                self.deduped_bytes += data.len() as u64;
            }
            Entry::Vacant(slot) => {
                self.stored_bytes += data.len() as u64;
                slot.insert(PoolEntry { data, refs: 1 });
            }
        }
    }

    /// Acquires one more reference to an already-pooled blob (rebasing).
    fn retain(&mut self, hash: &Digest) {
        self.blobs
            .get_mut(hash)
            .expect("retained blob must be pooled")
            .refs += 1;
    }

    /// Releases one reference; the last release evicts the blob and returns
    /// its size (0 while other references survive).
    fn release(&mut self, hash: &Digest) -> u64 {
        let Entry::Occupied(mut slot) = self.blobs.entry(*hash) else {
            debug_assert!(false, "released blob must be pooled");
            return 0;
        };
        let entry = slot.get_mut();
        entry.refs -= 1;
        if entry.refs > 0 {
            return 0;
        }
        let freed = entry.data.len() as u64;
        slot.remove();
        self.stored_bytes -= freed;
        freed
    }

    fn get(&self, hash: &Digest) -> Option<&[u8]> {
        self.blobs.get(hash).map(|e| e.data.as_slice())
    }
}

/// Raw and compressed size of a modelled transfer.
///
/// Re-exported alias of `avm-compress`'s accounting type so callers get
/// `ratio()` / `compressed_fraction()` for free.
pub type TransferCost = CompressionStats;

/// An ordered collection of snapshots from one execution, backed by a
/// content-addressed payload pool (see the module docs).
///
/// This is the reproduction of §4.4's snapshot machinery on the recorder
/// side and §3.5's download models on the auditor side: push captures as
/// they are taken, then either [`materialize`](SnapshotStore::materialize) a
/// full download (authenticated against the recorded Merkle root), price it
/// with [`transfer_cost_upto`](SnapshotStore::transfer_cost_upto), or go
/// digest-addressed via [`chain_manifest_upto`](SnapshotStore::chain_manifest_upto)
/// / [`serve_blobs`](SnapshotStore::serve_blobs) (see [`crate::ondemand`]).
///
/// ```
/// use avm_core::snapshot::{capture, SnapshotStore};
/// use avm_compress::CompressionLevel;
/// use avm_vm::bytecode::assemble;
/// use avm_vm::{GuestRegistry, Machine, VmImage};
///
/// let image = VmImage::bytecode("doc", 64 * 1024, assemble("halt", 0).unwrap(), 0, 0);
/// let registry = GuestRegistry::new();
/// let mut machine = Machine::from_image(&image, &registry).unwrap();
/// machine.memory_mut().write_u8(0x9000, 7).unwrap();
///
/// // Record side: capture a full snapshot; the store interns 512 B chunk
/// // payloads by SHA-256, so the mostly-zero guest stores far less than it
/// // captured.
/// let mut store = SnapshotStore::new();
/// store.push(capture(&mut machine, 0, true));
/// assert!(store.stored_payload_bytes() < store.logical_payload_bytes());
///
/// // Audit side: a full download reconstructs bit-identical state (the
/// // recorded state root is verified internally) at a measurable cost.
/// let restored = store.materialize(0, &image, &registry).unwrap();
/// assert_eq!(restored.state_digest(), machine.state_digest());
/// let cost = store.transfer_cost_upto(0, CompressionLevel::Default);
/// assert!(cost.compressed_bytes < cost.raw_bytes);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SnapshotStore {
    /// Retained snapshots; `snapshots[i].id == base_id + i`.
    snapshots: Vec<StoredSnapshot>,
    pool: PayloadPool,
    /// Id of the first retained snapshot (> 0 after pruning).
    base_id: u64,
    /// The baseline of the image the machine started from, when the store
    /// was created for one: the on-demand manifest leaves out every
    /// reference equal to its leaf at that index.
    image: Option<Arc<ImageBaseline>>,
}

impl SnapshotStore {
    /// Creates an empty store that knows no image: its on-demand manifest
    /// ([`SnapshotStore::chain_manifest_upto`]) lists every effective
    /// reference, the image's own leaves included.
    pub fn new() -> SnapshotStore {
        SnapshotStore::default()
    }

    /// Creates an empty store for a machine built from `image`: its
    /// on-demand manifest lists only the references whose digest differs
    /// from the image's own leaf there ([`VmImage::baseline`]), which is
    /// all an auditor holding the image lacks.
    pub fn for_image(image: &VmImage) -> SnapshotStore {
        SnapshotStore {
            image: Some(Arc::clone(image.shared_baseline())),
            ..SnapshotStore::default()
        }
    }

    /// This empty store, with the next pushed snapshot required to carry
    /// `base_id` — the shape a store has right after
    /// [`SnapshotStore::prune_upto`] dropped everything below `base_id`.
    /// Recovery uses this to rebuild a pruned store from persisted
    /// manifests without replaying the pruned-away history.
    pub fn with_base(self, base_id: u64) -> SnapshotStore {
        debug_assert!(self.is_empty(), "only an empty store is rebased");
        SnapshotStore { base_id, ..self }
    }

    /// Digests of every payload blob the pool currently holds (unordered).
    /// This is the live set a durable blob store must retain for this
    /// store's snapshots to keep materializing.
    pub fn pooled_digests(&self) -> Vec<Digest> {
        self.pool.blobs.keys().copied().collect()
    }

    /// Adds a snapshot (ids must be dense and increasing; the next id is
    /// [`SnapshotStore::next_id`]), interning its payloads into the
    /// content-addressed pool.
    ///
    /// # Panics
    ///
    /// If a section of `snapshot` is not strictly increasing by index,
    /// which no [`capture`] produces; [`SnapshotStore::try_push`] refuses
    /// such a snapshot instead.
    pub fn push(&mut self, snapshot: Snapshot) {
        if let Err(e) = self.try_push(snapshot) {
            panic!("{e}");
        }
    }

    /// [`SnapshotStore::push`] for a snapshot from outside the recorder
    /// (recovery reads it back from storage): a section that is not
    /// strictly increasing by index — the precondition of the merge that
    /// collapses the chain into the on-demand manifest and into a prune's
    /// rebased snapshot — is refused, with nothing changed, naming the
    /// first index out of order.
    pub fn try_push(&mut self, snapshot: Snapshot) -> Result<(), CoreError> {
        let sections = [
            ("chunk", &snapshot.mem_chunks),
            ("disk block", &snapshot.disk_blocks),
        ];
        for (name, leaves) in sections {
            if let Some(idx) = first_out_of_order(leaves.iter().map(|(idx, ..)| *idx)) {
                return Err(CoreError::Snapshot(format!(
                    "snapshot {} section is not strictly increasing at {name} {idx}",
                    snapshot.id
                )));
            }
        }
        debug_assert_eq!(snapshot.id, self.next_id());
        let mem_payload_bytes = snapshot.memory_bytes();
        let disk_payload_bytes = snapshot.disk_bytes();
        let mem_chunks = snapshot
            .mem_chunks
            .into_iter()
            .map(|(idx, hash, chunk)| {
                self.pool.intern(hash, chunk);
                (idx, hash)
            })
            .collect();
        let disk_blocks = snapshot
            .disk_blocks
            .into_iter()
            .map(|(idx, hash, block)| {
                self.pool.intern(hash, block);
                (idx, hash)
            })
            .collect();
        self.snapshots.push(StoredSnapshot {
            id: snapshot.id,
            step: snapshot.step,
            full_memory: snapshot.full_memory,
            halted: snapshot.halted,
            state_root: snapshot.state_root,
            cpu_state: snapshot.cpu_state,
            dev_state: snapshot.dev_state,
            mem_chunks,
            disk_blocks,
            mem_payload_bytes,
            disk_payload_bytes,
        });
        Ok(())
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when no snapshot is retained.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Id of the first retained snapshot (0 until pruned).
    pub fn base_id(&self) -> u64 {
        self.base_id
    }

    /// Id the next pushed snapshot must carry.
    pub fn next_id(&self) -> u64 {
        self.base_id + self.snapshots.len() as u64
    }

    /// Returns snapshot `id`, if retained (pruned and never-pushed ids are
    /// both `None`).
    pub fn get(&self, id: u64) -> Option<&StoredSnapshot> {
        let pos = id.checked_sub(self.base_id)?;
        self.snapshots.get(pos as usize)
    }

    /// All retained snapshots, in id order.
    pub fn all(&self) -> &[StoredSnapshot] {
        &self.snapshots
    }

    /// The sections that make up the state at snapshot `upto_id`: each
    /// retained snapshot with ids `<= upto_id`, in order, with its
    /// `[memory, disk]` references in [`Machine::stores`] order.
    ///
    /// This is the one place the supersession rule is written.  The last
    /// full memory dump in the chain overwrites every chunk, so the memory
    /// sections before it come out empty; the disk has no full dumps, so
    /// every disk section applies.  A section is therefore either whole or
    /// empty.  Materialization, the transfer accounting, the transfer
    /// stream, the on-demand manifest and pruning all walk this, so they
    /// cannot disagree about which sections an auditor must download.
    /// `upto_id` may exceed the store (an untrusted log can reference ids
    /// the store never saw); the range is clamped so every walk stays total.
    pub(crate) fn sections_upto(
        &self,
        upto_id: u64,
    ) -> impl Iterator<Item = (&StoredSnapshot, [&[(u32, Digest)]; 2])> {
        let end = upto_id
            .saturating_sub(self.base_id)
            .saturating_add(if upto_id >= self.base_id { 1 } else { 0 })
            .min(self.snapshots.len() as u64);
        let chain = &self.snapshots[..end as usize];
        let base = chain
            .iter()
            .rev()
            .find(|s| s.full_memory)
            .map_or(self.base_id, |s| s.id);
        chain.iter().map(move |s| {
            let memory: &[(u32, Digest)] = if s.id >= base { &s.mem_chunks } else { &[] };
            (s, [memory, s.disk_blocks.as_slice()])
        })
    }

    /// The effective `[memory, disk]` references at snapshot `upto_id`:
    /// [`SnapshotStore::sections_upto`] collapsed so the latest write of
    /// each leaf wins, sorted by index.  This is the snapshot a prune
    /// rebases onto, and the on-demand manifest before the image's own
    /// leaves are left out.
    ///
    /// Every section is strictly increasing by index
    /// ([`SnapshotStore::try_push`] refuses one that is not, and a rebased
    /// section is this function's output), so the collapse is one k-way
    /// merge per store over the non-empty sections — O(references · log
    /// sections), a plain copy when one section holds the store's
    /// references — instead of a map rebuilt on every manifest request.
    pub(crate) fn effective_refs_upto(&self, upto_id: u64) -> [Vec<(u32, Digest)>; 2] {
        let mut sections: [Vec<&[(u32, Digest)]>; 2] = Default::default();
        for (_, refs) in self.sections_upto(upto_id) {
            for (chain, refs) in sections.iter_mut().zip(refs) {
                if !refs.is_empty() {
                    chain.push(refs);
                }
            }
        }
        sections.map(|chain| merge_latest(&chain))
    }

    /// [`SnapshotStore::effective_refs_upto`] less every reference whose
    /// digest is the image's own leaf at that index
    /// ([`SnapshotStore::for_image`]): what an auditor holding the image
    /// lacks, and so the content of the on-demand manifest.
    pub(crate) fn lacking_refs_upto(&self, upto_id: u64) -> [Vec<(u32, Digest)>; 2] {
        let mut effective = self.effective_refs_upto(upto_id);
        if let Some(image) = &self.image {
            for (refs, own) in effective.iter_mut().zip(image.leaf_hashes()) {
                refs.retain(|(idx, digest)| own.get(*idx as usize) != Some(digest));
            }
        }
        effective
    }

    /// Resolves a content hash to its payload, if the pool holds it.
    pub fn payload(&self, hash: &Digest) -> Option<&[u8]> {
        self.pool.get(hash)
    }

    /// Unique payload bytes the pool actually holds.  This is the O(unique
    /// chunks) storage cost of the store, and it shrinks when
    /// [`SnapshotStore::prune_upto`] drops the last reference to a blob.
    pub fn stored_payload_bytes(&self) -> u64 {
        self.pool.stored_bytes
    }

    /// Payload bytes that were pushed but *not* stored because identical
    /// content was already pooled (cumulative over all pushes).
    pub fn deduped_payload_bytes(&self) -> u64 {
        self.pool.deduped_bytes
    }

    /// Logical payload bytes pushed across all snapshots ever (what a
    /// non-deduplicating, non-pruning store would hold).
    pub fn logical_payload_bytes(&self) -> u64 {
        self.pool.pushed_bytes
    }

    /// Number of unique payload blobs in the pool.
    pub fn unique_payloads(&self) -> usize {
        self.pool.blobs.len()
    }

    /// Rebases the chain onto snapshot `new_base_id`: snapshots with smaller
    /// ids are dropped, the chain state they contributed is collapsed into a
    /// synthetic full snapshot at `new_base_id` (the exact state
    /// [`SnapshotStore::materialize`] reconstructs there, so it still
    /// authenticates against the recorded root), and every blob no surviving
    /// snapshot references is evicted from the pool.
    ///
    /// Returns the payload bytes freed.  Pruning at or below the current
    /// base is a no-op; pruning at an unretained id is an error.  Later
    /// snapshots — and snapshots captured after the prune — keep
    /// materializing unchanged.
    pub fn prune_upto(&mut self, new_base_id: u64) -> Result<u64, CoreError> {
        if new_base_id <= self.base_id {
            return if self.get(self.base_id).is_some() || new_base_id == self.base_id {
                Ok(0)
            } else {
                Err(CoreError::Snapshot(format!(
                    "cannot prune empty store at snapshot {new_base_id}"
                )))
            };
        }
        let target = self.get(new_base_id).ok_or_else(|| {
            CoreError::Snapshot(format!("cannot prune at unretained snapshot {new_base_id}"))
        })?;
        let [mem_chunks, disk_blocks] = self.effective_refs_upto(new_base_id);
        let payload_len = |hash: &Digest| {
            self.pool.get(hash).map(|b| b.len() as u64).expect(
                "every reference of a retained snapshot holds a pool ref, so the blob exists",
            )
        };
        let mem_payload_bytes = mem_chunks.iter().map(|(_, h)| payload_len(h)).sum();
        let disk_payload_bytes = disk_blocks.iter().map(|(_, h)| payload_len(h)).sum();
        let rebased = StoredSnapshot {
            id: new_base_id,
            step: target.step,
            // The rebased snapshot *is* the chain's memory base now.
            full_memory: true,
            halted: target.halted,
            state_root: target.state_root,
            cpu_state: target.cpu_state.clone(),
            dev_state: target.dev_state.clone(),
            mem_chunks,
            disk_blocks,
            mem_payload_bytes,
            disk_payload_bytes,
        };
        // Acquire the rebased snapshot's references before releasing the
        // dropped snapshots', so blobs shared between them never hit zero.
        for (_, hash) in rebased.mem_chunks.iter().chain(&rebased.disk_blocks) {
            self.pool.retain(hash);
        }
        let drop_count = (new_base_id - self.base_id) as usize + 1;
        let mut freed = 0u64;
        for s in &self.snapshots[..drop_count] {
            for (_, hash) in s.mem_chunks.iter().chain(&s.disk_blocks) {
                freed += self.pool.release(hash);
            }
        }
        let tail = self.snapshots.split_off(drop_count);
        self.snapshots = std::iter::once(rebased).chain(tail).collect();
        self.base_id = new_base_id;
        Ok(freed)
    }

    /// Number of bytes an auditor must download to reconstruct the state at
    /// snapshot `upto_id`: every snapshot header (with its two section
    /// counts) in the retained chain, the chain of incremental disk blocks,
    /// the memory sections not superseded by a later full dump (including
    /// the base full dump itself), per-entry index framing, and the target's
    /// length-prefixed CPU/device state — exactly the length of
    /// [`SnapshotStore::transfer_stream_upto`].
    pub fn transfer_bytes_upto(&self, upto_id: u64) -> u64 {
        let mut total = 0u64;
        for (s, sections) in self.sections_upto(upto_id) {
            total += STREAM_HEADER_BYTES;
            // A section is whole or empty, so a non-empty one costs the
            // snapshot's own payload bytes for it.
            for (refs, payload) in sections.into_iter().zip([s.memory_bytes(), s.disk_bytes()]) {
                if !refs.is_empty() {
                    total += refs.len() as u64 * 4 + payload;
                }
            }
        }
        let Some(last) = self.get(upto_id) else {
            return total;
        };
        total + STREAM_TRAILER_BYTES + last.cpu_state.len() as u64 + last.dev_state.len() as u64
    }

    /// Serialises the section stream of the full dump up to snapshot
    /// `upto_id` (the layout is on
    /// [`SnapshotStore::append_transfer_stream_upto`]).
    ///
    /// The stream's length always equals
    /// [`SnapshotStore::transfer_bytes_upto`].  Nothing in the workspace
    /// reads it: the `Sections` answer, which only the `bench/` harness
    /// requests, and the pricing of the paper's full dump use it.
    pub fn transfer_stream_upto(&self, upto_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.transfer_bytes_upto(upto_id) as usize);
        self.append_transfer_stream_upto(upto_id, &mut out);
        out
    }

    /// Appends [`SnapshotStore::transfer_stream_upto`] to `out` — exactly
    /// [`SnapshotStore::transfer_bytes_upto`] bytes — so the audit endpoint
    /// serialises the stream straight into its response body.
    ///
    /// The layout, all integers little-endian:
    ///
    /// * per retained snapshot with id `<= upto_id`, in id order:
    ///   `id u64 ‖ step u64 ‖ full u8 ‖ halted u8 ‖ root[32] ‖
    ///   mem_count u32 ‖ disk_count u32`, then `mem_count` memory items and
    ///   `disk_count` disk items, each `u32 idx ‖ payload` with a payload of
    ///   exactly the store's leaf size (`mem_count` is 0 when a later full
    ///   dump supersedes the section);
    /// * then the target's `cpu_len u32 ‖ cpu_state ‖ dev_len u32 ‖
    ///   dev_state` (absent when `upto_id` is not retained).
    pub fn append_transfer_stream_upto(&self, upto_id: u64, out: &mut Vec<u8>) {
        for (s, sections) in self.sections_upto(upto_id) {
            out.extend_from_slice(&s.id.to_le_bytes());
            out.extend_from_slice(&s.step.to_le_bytes());
            out.push(u8::from(s.full_memory));
            out.push(u8::from(s.halted));
            out.extend_from_slice(s.state_root.as_bytes());
            for refs in sections {
                out.extend_from_slice(&(refs.len() as u32).to_le_bytes());
            }
            for (idx, hash) in sections.into_iter().flatten() {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(self.pool.get(hash).expect("pooled leaf"));
            }
        }
        if let Some(last) = self.get(upto_id) {
            for state in [&last.cpu_state, &last.dev_state] {
                out.extend_from_slice(&(state.len() as u32).to_le_bytes());
                out.extend_from_slice(state);
            }
        }
    }

    /// Raw and compressed bytes of the transfer up to snapshot `upto_id`,
    /// compressing the actual [`SnapshotStore::transfer_stream_upto`] stream
    /// at `level` — the §6.12 numbers, which report *compressed* snapshots.
    pub fn transfer_cost_upto(&self, upto_id: u64, level: CompressionLevel) -> TransferCost {
        CompressionStats::measure(&self.transfer_stream_upto(upto_id), level)
    }

    /// Reconstructs a machine, fully resident, in the state captured by
    /// snapshot `upto_id`: every effective reference is staged from the
    /// pool as an audit session stages a manifest (one root check), then
    /// installed once it hashes to its digest.  A reference that does not
    /// authenticate, or a blob that is not what its digest says, means the
    /// snapshot data was tampered with: a [`CoreError::Snapshot`].
    pub fn materialize(
        &self,
        upto_id: u64,
        image: &VmImage,
        registry: &GuestRegistry,
    ) -> Result<Machine, CoreError> {
        self.materialize_with_tree(upto_id, image, registry)
            .map(|(machine, _)| machine)
    }

    /// [`SnapshotStore::materialize`], additionally handing over the state
    /// tree the reconstruction was authenticated with, in sync with the
    /// returned machine — a replayer continues from it.
    pub(crate) fn materialize_with_tree(
        &self,
        upto_id: u64,
        image: &VmImage,
        registry: &GuestRegistry,
    ) -> Result<(Machine, StateTreeCache), CoreError> {
        // Every effective reference, not only what the store's own image
        // lacks: `image` may be another one.
        let manifest = self.manifest_listing(upto_id, self.effective_refs_upto(upto_id))?;
        let (mut machine, state_tree, session) = stage_from_manifest(
            &manifest,
            0,
            image,
            registry,
            &AuditorBlobCache::new(),
            Some(self),
        )?;
        session.install(&mut machine)?;
        Ok((machine, state_tree))
    }
}

/// The first index of `indices` that is not above the one before it.
pub(crate) fn first_out_of_order(indices: impl Iterator<Item = u32>) -> Option<u32> {
    let mut last = None;
    for idx in indices {
        if last.is_some_and(|last| idx <= last) {
            return Some(idx);
        }
        last = Some(idx);
    }
    None
}

/// Merges `sections` (oldest first, each strictly increasing by index) into
/// one strictly increasing list in which the latest section's reference
/// wins each index.  A min-heap holds each section's next index, ties
/// broken towards the later section, so the first time an index is popped
/// it comes from its last writer and every later pop of it is skipped.  A
/// lone section — memory since a full dump that nothing wrote after — is
/// copied without the heap, which would cost more on the db guest's
/// 1,024-chunk dump than the rest of its manifest request.
fn merge_latest(sections: &[&[(u32, Digest)]]) -> Vec<(u32, Digest)> {
    if let [only] = sections {
        return only.to_vec();
    }
    let mut heads: BinaryHeap<Reverse<(u32, Reverse<usize>)>> = sections
        .iter()
        .enumerate()
        .map(|(at, refs)| Reverse((refs[0].0, Reverse(at))))
        .collect();
    let mut cursors = vec![0usize; sections.len()];
    let mut merged: Vec<(u32, Digest)> =
        Vec::with_capacity(sections.iter().map(|refs| refs.len()).max().unwrap_or(0));
    while let Some(Reverse((idx, Reverse(at)))) = heads.pop() {
        if merged.last().is_none_or(|(last, _)| *last != idx) {
            merged.push(sections[at][cursors[at]]);
        }
        cursors[at] += 1;
        if let Some((next, _)) = sections[at].get(cursors[at]) {
            heads.push(Reverse((*next, Reverse(at))));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_vm::bytecode::assemble;
    use avm_vm::{StopCondition, VmExit, CHUNKS_PER_PAGE, CHUNK_SIZE, PAGE_SIZE};
    use proptest::prelude::*;

    fn image() -> VmImage {
        image_ending_with("")
    }

    /// [`image`] with `tail` assembled after its program.
    fn image_ending_with(tail: &str) -> VmImage {
        // A guest that stores an increasing counter to memory and disk each
        // time it receives a packet, so state actually changes between
        // snapshots.
        let src = r"
                movi r1, 0x8000     ; rx buffer
                movi r2, 64         ; max len
                movi r5, 0x9000     ; counter cell
                movi r7, 0          ; disk offset register
            loop:
                recv r0, r1, r2
                cmp r0, r6          ; r6 == 0
                jne got
                idle
                jmp loop
            got:
                load r3, r5
                addi r3, 1
                store r3, r5
                movi r4, 8
                diskwr r7, r5, r4
                jmp loop
            ";
        let code = assemble(&format!("{src}{tail}"), 0).unwrap();
        VmImage::bytecode("snapshot-test", 128 * 1024, code, 0, 0).with_disk(vec![0u8; 16384])
    }

    fn run_until_idle(m: &mut Machine) {
        loop {
            match m.run(StopCondition::Unbounded).unwrap() {
                VmExit::Idle | VmExit::Halted => break,
                _ => {}
            }
        }
    }

    /// Chunk index of the guest's counter cell at 0x9000.
    const COUNTER_CHUNK: u32 = (0x9000 / CHUNK_SIZE) as u32;

    #[test]
    fn capture_and_materialize_single_snapshot() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);

        let snap = capture(&mut m, 0, true);
        assert_eq!(snap.id, 0);
        assert!(snap.memory_bytes() > 0);
        assert!(snap.disk_bytes() > 0);
        assert_eq!(snap.state_root, compute_state_root(&m));

        let mut store = SnapshotStore::new();
        store.push(snap);
        let restored = store.materialize(0, &img, &reg).unwrap();
        assert_eq!(restored.state_digest(), m.state_digest());
        assert_eq!(restored.step_count(), m.step_count());
    }

    #[test]
    fn incremental_chain_materializes_each_point() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        let mut reference_digests = Vec::new();

        run_until_idle(&mut m);
        for i in 0..4u64 {
            m.inject_packet(vec![i as u8]);
            run_until_idle(&mut m);
            let snap = capture(&mut m, i, false);
            store.push(snap);
            reference_digests.push(m.state_digest());
        }
        assert_eq!(store.len(), 4);
        for i in 0..4u64 {
            let restored = store.materialize(i, &img, &reg).unwrap();
            assert_eq!(
                restored.state_digest(),
                reference_digests[i as usize],
                "snapshot {i}"
            );
        }
    }

    #[test]
    fn incremental_snapshots_are_smaller_than_full() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let full = capture(&mut m, 0, true);
        m.inject_packet(vec![2]);
        run_until_idle(&mut m);
        let incr = capture(&mut m, 1, false);
        assert!(incr.memory_bytes() < full.memory_bytes());
        assert!(incr.total_bytes() < full.total_bytes());
        // Chunk granularity: the incremental capture carries whole chunks,
        // not whole pages — the counter bump costs one 512 B chunk.
        assert!(incr
            .mem_chunks
            .iter()
            .all(|(_, _, c)| c.len() == CHUNK_SIZE));
        assert!(
            incr.memory_bytes() < incr.chunk_count() as u64 * PAGE_SIZE as u64,
            "sub-page capture must undercut page granularity"
        );
    }

    #[test]
    fn tampered_snapshot_detected_at_materialization() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let mut snap = capture(&mut m, 0, true);
        // Tamper with the captured counter chunk (e.g. pretend the counter
        // was higher), re-hashing it like a forger rewriting their own
        // capture would.
        if let Some((_, hash, chunk)) = snap
            .mem_chunks
            .iter_mut()
            .find(|(idx, _, _)| *idx == COUNTER_CHUNK)
        {
            chunk[0] ^= 0xff;
            *hash = sha256(chunk);
        }
        let mut store = SnapshotStore::new();
        store.push(snap);
        assert!(matches!(
            store.materialize(0, &img, &reg).unwrap_err(),
            CoreError::Snapshot(_)
        ));
    }

    /// A full-memory chain whose memory is still the image's: materializing
    /// it stages and installs the disk blocks whose bytes differ from the
    /// image and nothing else — no memory chunk, not the disk block written
    /// back to the image's zeros — and the root is the one a tree built from
    /// scratch gives.
    #[test]
    fn full_dump_equal_to_the_image_refreshes_only_what_differs() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        let disk = |m: &mut Machine, block: usize, byte: u8| {
            let addr = (block * CHUNK_SIZE) as u64;
            m.devices_mut().disk.write(addr, &[byte; 8]).unwrap();
        };
        disk(&mut m, 1, 7);
        // Dirty on the recorder, but written back to the image's zeros.
        disk(&mut m, 2, 0);
        store.push(capture(&mut m, 0, true));
        disk(&mut m, 3, 9);
        store.push(capture(&mut m, 1, true));
        assert_eq!(
            store.get(1).unwrap().chunk_count(),
            m.memory().chunk_count()
        );

        // The two halves of `materialize`: staging, then the install pass.
        let manifest = store.manifest_listing(1, store.effective_refs_upto(1));
        let cache = AuditorBlobCache::new();
        let (mut staged, _, session) =
            stage_from_manifest(&manifest.unwrap(), 0, &img, &reg, &cache, Some(&store)).unwrap();
        assert_eq!((session.staged_chunks(), session.staged_blocks()), (0, 2));
        session.install(&mut staged).unwrap();
        assert_eq!(staged.stores().map(LeafStore::staged_count), [0, 0]);
        let block = |at: usize| staged.stores()[1].leaf(at).unwrap()[0];
        assert_eq!((block(1), block(3)), (7, 9));

        let restored = store.materialize(1, &img, &reg).unwrap();
        let root = build_state_tree_uncached(&restored).root();
        assert_eq!(root, store.get(1).unwrap().state_root);
        assert_eq!(restored.state_digest(), m.state_digest());
        assert_eq!(restored.state_digest(), staged.state_digest());
    }

    /// `materialize` stages every effective reference, not only what the
    /// store's image lacks: given an image whose code chunk differs from the
    /// store's, it still builds the recorded state, because the full dump's
    /// code chunk — the store's image's own, so left out of the manifest —
    /// is staged over it.
    #[test]
    fn materialize_against_another_image_builds_the_recorded_state() {
        let img = image();
        let other = image_ending_with("movi r1, 7\n");
        assert_ne!(
            img.baseline().chunk_hashes()[0],
            other.baseline().chunk_hashes()[0]
        );
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let mut store = SnapshotStore::for_image(&img);
        store.push(capture(&mut m, 0, true));
        let manifest = store.chain_manifest_upto(0).unwrap();
        assert!(manifest.mem_refs.iter().all(|(idx, _)| *idx != 0));
        let restored = store.materialize(0, &other, &reg).unwrap();
        assert_eq!(restored.state_digest(), m.state_digest());
    }

    /// What `materialize` and `Replayer::from_snapshot` hand over is fully
    /// resident — nothing staged in either store, nothing faulted — so it
    /// can be captured straight away, as recovery resumes recording on it;
    /// and the capture records the root the store holds.
    #[test]
    fn a_materialized_machine_is_resident_and_captures() {
        let (bob, image) = crate::testutil::record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let store = bob.snapshots();
        for id in 0..store.next_id() {
            let replayer =
                crate::replay::Replayer::from_snapshot(&image, &registry, store, id).unwrap();
            let materialized = store.materialize(id, &image, &registry).unwrap();
            for mut machine in [materialized, replayer.into_parts().0] {
                assert!(machine.stores().iter().all(|s| s.staged_count() == 0));
                assert!(machine.stores().iter().all(|s| s.faulted().is_empty()));
                let snapshot = capture(&mut machine, id, true);
                assert_eq!(snapshot.state_root, store.get(id).unwrap().state_root);
            }
        }
    }

    /// Tampering with a payload while keeping its original digest mis-keys
    /// the blob.  If the pool already holds the true content under that key
    /// (dedup), materialization silently self-heals; if not, the state-root
    /// authentication rejects the forged bytes.  Either way the forgery
    /// cannot produce a wrong-but-accepted state.
    #[test]
    fn stale_digest_tampering_cannot_forge_state() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let reference = m.state_digest();
        let mut snap = capture(&mut m, 0, true);
        if let Some((_, _, chunk)) = snap
            .mem_chunks
            .iter_mut()
            .find(|(idx, _, _)| *idx == COUNTER_CHUNK)
        {
            chunk[0] ^= 0xff; // content changed, digest left stale
        }
        let mut store = SnapshotStore::new();
        store.push(snap);
        match store.materialize(0, &img, &reg) {
            // Dedup resolved the stale key to the true content: the forged
            // bytes never made it into the reconstructed state.
            Ok(restored) => assert_eq!(restored.state_digest(), reference),
            // Or the forged bytes were applied and authentication caught it.
            Err(e) => assert!(matches!(e, CoreError::Snapshot(_))),
        }
    }

    /// The leaf order as literals: three header leaves, chunk `c` at leaf
    /// `3 + c`, block `b` at leaf `3 + chunk_count + b` — on a machine with a
    /// write and a staged leaf in each store, whichever way the tree is
    /// built.
    #[test]
    fn leaf_order_is_header_then_chunks_then_blocks() {
        let img = image();
        let mut m = Machine::from_image(&img, &GuestRegistry::new()).unwrap();
        let (chunks, blocks) = (m.memory().chunk_count(), m.devices().disk.block_count());
        assert_eq!((chunks, blocks), (256, 32));
        let mut written_chunk = vec![0u8; 512];
        written_chunk[1] = 0xAA;
        m.memory_mut().write_u8(5 * 512 + 1, 0xAA).unwrap();
        let mut written_block = vec![0u8; 512];
        written_block[7] = 0xBB;
        m.devices_mut().disk.write(2 * 512 + 7, &[0xBB]).unwrap();
        let (staged_chunk, staged_block) = (vec![0xCC; 512], vec![0xDD; 512]);
        m.memory_mut()
            .stage_lazy_chunk(200, staged_chunk.clone(), sha256(&staged_chunk))
            .unwrap();
        m.devices_mut()
            .disk
            .stage_lazy_block(3, staged_block.clone(), sha256(&staged_block))
            .unwrap();

        let tree = build_state_tree(&m);
        let root = tree.root();
        assert_eq!(tree.leaf_count(), 3 + 256 + 32);
        let proves = |leaf: usize, content: &[u8]| {
            let proof = tree.prove(leaf).expect("leaf in range");
            proof.verify_hash(sha256(content), &root)
        };
        assert!(proves(3 + 5, &written_chunk));
        assert!(proves(3 + 200, &staged_chunk));
        assert!(proves(3 + 256 + 2, &written_block));
        assert!(proves(3 + 256 + 3, &staged_block));
        assert!(!proves(3 + 6, &written_chunk) && !proves(3 + 256 + 1, &written_block));

        // The image's tree with exactly those four leaves (and the header)
        // replaced is the same tree.
        let mut cache = StateTreeCache::from_baseline(&img);
        assert_eq!(cache.refresh_leaves(&m, [&[5, 200], &[2, 3]]), root);
        assert_eq!(cache.refresh(&m), root);
        // So is a rehash of raw contents, once nothing is staged any more.
        assert_eq!(m.memory_mut().read_u8(200 * 512).unwrap(), 0xCC);
        let mut byte = [0u8];
        m.devices_mut().disk.read(3 * 512, &mut byte).unwrap();
        assert_eq!(byte, [0xDD]);
        let faulted = m.stores().map(|s| s.faulted().to_vec());
        assert_eq!(faulted, [vec![200], vec![3]]);
        // (Reading the disk bumped its read counter: a header leaf, not a
        // store leaf — take the reference root from the cached builder.)
        assert_eq!(
            build_state_tree_uncached(&m).root(),
            build_state_tree(&m).root()
        );
        assert_eq!(
            build_state_tree_uncached(&m).leaves()[3..],
            tree.leaves()[3..]
        );
    }

    /// A partially-resident (demand-paged) machine must never be captured:
    /// it would intern stale raw contents under authentic digests and
    /// poison the content-addressed pool.
    #[test]
    #[should_panic(expected = "staged demand-paged state")]
    fn capture_of_partially_resident_machine_is_rejected() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let authentic = vec![9u8; CHUNK_SIZE];
        let hash = sha256(&authentic);
        m.memory_mut().stage_lazy_chunk(3, authentic, hash).unwrap();
        let _ = capture(&mut m, 0, true);
    }

    #[test]
    fn missing_snapshot_is_an_error() {
        let store = SnapshotStore::new();
        assert!(store.is_empty());
        assert!(store
            .materialize(0, &image(), &GuestRegistry::new())
            .is_err());
    }

    /// An untrusted log can reference snapshot ids the store never saw; the
    /// accounting entry points must stay total (no slice panic) and
    /// materialization must report the missing snapshot as an error.
    #[test]
    fn out_of_range_ids_do_not_panic() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        for i in 0..3u64 {
            m.inject_packet(vec![i as u8]);
            run_until_idle(&mut m);
            store.push(capture(&mut m, i, i == 0));
        }
        for wild_id in [3u64, 9, u64::MAX] {
            let bytes = store.transfer_bytes_upto(wild_id);
            assert!(bytes > 0);
            assert_eq!(store.transfer_stream_upto(wild_id).len() as u64, bytes);
            assert!(matches!(
                store.materialize(wild_id, &img, &reg).unwrap_err(),
                CoreError::Snapshot(_)
            ));
        }
    }

    #[test]
    fn transfer_accounting_counts_chain() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        for i in 0..3u64 {
            m.inject_packet(vec![i as u8]);
            run_until_idle(&mut m);
            store.push(capture(&mut m, i, false));
        }
        let t0 = store.transfer_bytes_upto(0);
        let t2 = store.transfer_bytes_upto(2);
        assert!(t2 >= t0);
        assert!(t2 > 0);
    }

    /// Regression: for a chain `[full(0), inc(1), inc(2)]` the base full dump
    /// is state the auditor must download — the old accounting skipped the
    /// memory section of *every* non-target full snapshot, undercounting by
    /// the entire base dump.
    #[test]
    fn transfer_accounting_counts_base_full_dump() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let full = capture(&mut m, 0, true);
        let base_dump_bytes = full.memory_bytes();
        store.push(full);
        for i in 1..3u64 {
            m.inject_packet(vec![i as u8]);
            run_until_idle(&mut m);
            store.push(capture(&mut m, i, false));
        }
        let t2 = store.transfer_bytes_upto(2);
        assert!(
            t2 > base_dump_bytes,
            "transfer accounting must include the base full dump ({base_dump_bytes} bytes), got {t2}"
        );
        // The serialised transfer stream is exactly as long as the
        // accounting says.
        for id in 0..3u64 {
            assert_eq!(
                store.transfer_stream_upto(id).len() as u64,
                store.transfer_bytes_upto(id),
                "snapshot {id}"
            );
        }
    }

    /// Memory sections that a later full dump overwrites are not part of the
    /// transfer (or of materialization): `[full(0), inc(1), full(2), inc(3)]`
    /// costs the same up to id 3 as the chain without snapshot 0's and 1's
    /// memory sections.
    #[test]
    fn superseded_memory_sections_are_skipped() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        for (i, full) in [(0u64, true), (1, false), (2, true), (3, false)] {
            m.inject_packet(vec![i as u8 + 1]);
            run_until_idle(&mut m);
            store.push(capture(&mut m, i, full));
        }
        let restored = store.materialize(3, &img, &reg).unwrap();
        assert_eq!(restored.state_digest(), m.state_digest());
        // Superseded sections excluded: the total is less than the sum of all
        // snapshots' memory payloads would imply.
        let superseded: u64 = store.get(0).unwrap().memory_bytes();
        let all_payloads: u64 = store.all().iter().map(|s| s.total_bytes()).sum();
        assert!(store.transfer_bytes_upto(3) < all_payloads);
        assert!(superseded > 0);
        // But everything from the last full dump onward is included.
        assert!(
            store.transfer_bytes_upto(3)
                >= store.get(2).unwrap().memory_bytes() + store.get(3).unwrap().memory_bytes()
        );
    }

    /// The content-addressed pool makes repeated full captures of an idle
    /// guest free: the second capture's chunks are all dedup hits, so the
    /// stored payload does not grow, while the logical accounting does.
    #[test]
    fn idle_full_captures_store_no_new_payload() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let mut store = SnapshotStore::new();
        store.push(capture(&mut m, 0, true));
        let stored_after_first = store.stored_payload_bytes();
        assert!(stored_after_first > 0);
        // A mostly-zero guest dedups heavily even within one capture.
        assert!(
            stored_after_first < store.logical_payload_bytes(),
            "identical chunks within one full dump should share a blob"
        );
        store.push(capture(&mut m, 1, true)); // no writes since snapshot 0
        assert_eq!(
            store.stored_payload_bytes(),
            stored_after_first,
            "an idle full capture must add zero stored payload bytes"
        );
        assert_eq!(
            store.logical_payload_bytes(),
            stored_after_first + store.deduped_payload_bytes()
        );
        // Both snapshots still materialize bit-identically (roots verified
        // inside materialize).
        let m0 = store.materialize(0, &img, &reg).unwrap();
        let m1 = store.materialize(1, &img, &reg).unwrap();
        assert_eq!(m0.state_digest(), m1.state_digest());
        assert_eq!(m1.state_digest(), m.state_digest());
    }

    /// Pruning rebases the chain: earlier snapshots disappear, unreferenced
    /// blobs are evicted, and everything from the new base onward — plus
    /// snapshots captured after the prune — still materializes and
    /// authenticates.
    #[test]
    fn prune_drops_blobs_and_preserves_later_snapshots() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut cache = StateTreeCache::new();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        let mut digests = Vec::new();
        for i in 0..5u64 {
            m.inject_packet(vec![i as u8 + 1]);
            run_until_idle(&mut m);
            store.push(capture_with_cache(&mut m, &mut cache, i, i == 0));
            digests.push(m.state_digest());
        }
        let stored_before = store.stored_payload_bytes();

        let freed = store.prune_upto(2).unwrap();
        assert!(freed > 0, "the dropped counter-chunk versions must free");
        assert_eq!(store.base_id(), 2);
        assert_eq!(store.len(), 3);
        assert_eq!(store.next_id(), 5);
        assert_eq!(
            store.stored_payload_bytes(),
            stored_before - freed,
            "freed bytes must reconcile with the pool accounting"
        );
        // Pruned ids are gone; the accounting stays total on them.
        assert!(store.get(1).is_none());
        assert!(store.materialize(1, &img, &reg).is_err());
        let _ = store.transfer_bytes_upto(1);
        // Every surviving snapshot materializes bit-identically (materialize
        // authenticates the root internally — the rebased base included).
        for id in 2..5u64 {
            let restored = store.materialize(id, &img, &reg).unwrap();
            assert_eq!(restored.state_digest(), digests[id as usize], "id {id}");
            let stream = store.transfer_stream_upto(id);
            assert_eq!(stream.len() as u64, store.transfer_bytes_upto(id));
        }

        // Recapture after the prune: the chain keeps growing from next_id.
        m.inject_packet(vec![9]);
        run_until_idle(&mut m);
        store.push(capture_with_cache(
            &mut m,
            &mut cache,
            store.next_id(),
            false,
        ));
        let restored = store.materialize(5, &img, &reg).unwrap();
        assert_eq!(restored.state_digest(), m.state_digest());

        // Pruning again at the base is a no-op; pruning at a dropped or
        // unknown id is an error.
        assert_eq!(store.prune_upto(2).unwrap(), 0);
        assert!(store.prune_upto(99).is_err());
    }

    /// A prune in the middle of incremental-only history (no full dump after
    /// the base) must fold the dropped disk and memory increments into the
    /// rebased snapshot — state from snapshot 0 survives via the rebase.
    #[test]
    fn prune_folds_incremental_history_into_base() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        for i in 0..4u64 {
            m.inject_packet(vec![i as u8 + 1]);
            run_until_idle(&mut m);
            store.push(capture(&mut m, i, false)); // incremental only
        }
        let want = store.materialize(3, &img, &reg).unwrap().state_digest();
        store.prune_upto(2).unwrap();
        assert!(store.get(2).unwrap().full_memory, "rebased base is full");
        let got = store.materialize(3, &img, &reg).unwrap().state_digest();
        assert_eq!(got, want);
    }

    /// The compression-aware transfer model measures the real stream: raw
    /// equals the byte accounting, and the mostly-zero guest state compresses
    /// far below raw.
    #[test]
    fn transfer_cost_reports_raw_and_compressed() {
        use avm_compress::CompressionLevel;
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![7]);
        run_until_idle(&mut m);
        let mut store = SnapshotStore::new();
        store.push(capture(&mut m, 0, true));
        let cost = store.transfer_cost_upto(0, CompressionLevel::Default);
        assert_eq!(cost.raw_bytes, store.transfer_bytes_upto(0));
        assert!(cost.compressed_bytes > 0);
        assert!(
            cost.compressed_bytes < cost.raw_bytes / 4,
            "idle guest memory should compress well: {} vs {}",
            cost.compressed_bytes,
            cost.raw_bytes
        );
    }

    #[test]
    fn cached_roots_match_uncached_rebuild_across_snapshots() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut cache = StateTreeCache::new();
        run_until_idle(&mut m);
        for i in 0..6u64 {
            m.inject_packet(vec![i as u8]);
            run_until_idle(&mut m);
            // Refresh twice between captures: updates must be idempotent.
            let mid_root = cache.refresh(&m);
            assert_eq!(mid_root, build_state_tree_uncached(&m).root(), "mid {i}");
            let snap = capture_with_cache(&mut m, &mut cache, i, i % 2 == 0);
            assert_eq!(
                snap.state_root,
                build_state_tree_uncached(&m).root(),
                "snapshot {i}"
            );
            assert_eq!(snap.state_root, compute_state_root(&m), "stateless {i}");
        }
        // After invalidation the rebuilt tree agrees with the incremental one.
        let before = cache.refresh(&m);
        cache.invalidate();
        assert_eq!(cache.refresh(&m), before);
        assert!(cache.tree().is_some());
    }

    /// The header-leaf skip must never miss a header change: device-state
    /// mutations that dirty no chunk (an injected packet, a console write)
    /// still have to show up in the next refreshed root, while refreshes
    /// with no header activity at all stay correct too.
    #[test]
    fn header_leaves_skip_is_sound() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut cache = StateTreeCache::new();
        run_until_idle(&mut m);
        capture_with_cache(&mut m, &mut cache, 0, true);

        // Idle machine: repeated refreshes, version unchanged, root stable
        // and equal to a full rebuild.
        let v = m.state_version();
        let r1 = cache.refresh(&m);
        assert_eq!(m.state_version(), v);
        assert_eq!(r1, build_state_tree_uncached(&m).root());
        assert_eq!(cache.refresh(&m), r1);

        // A packet injection changes only volatile device state (the NIC rx
        // queue) — no chunk is dirtied.  The refresh must pick it up.
        m.inject_packet(vec![0xAB, 0xCD]);
        let r2 = cache.refresh(&m);
        assert_ne!(r1, r2, "injected packet must change the header leaves");
        assert_eq!(r2, build_state_tree_uncached(&m).root());

        // Memory-only writes between refreshes: header version is untouched
        // (the skip engages) and the root still matches a rebuild.
        m.memory_mut().write_u8(0x9100, 9).unwrap();
        let v2 = m.state_version();
        let r3 = cache.refresh(&m);
        assert_eq!(m.state_version(), v2);
        assert_ne!(r2, r3);
        assert_eq!(r3, build_state_tree_uncached(&m).root());
    }

    #[test]
    fn cache_survives_direct_tampering_via_dirty_bits() {
        // Writes through memory_mut()/disk (how a cheating operator would
        // tamper mid-run) set dirty bits, so the cached tree must pick them
        // up on the next refresh.
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut cache = StateTreeCache::new();
        run_until_idle(&mut m);
        capture_with_cache(&mut m, &mut cache, 0, true);
        m.memory_mut().write_u64(0x9000, 0xDEAD).unwrap();
        m.devices_mut().disk.write(0, &[0xAB; 16]).unwrap();
        assert_eq!(cache.refresh(&m), build_state_tree_uncached(&m).root());
    }

    #[test]
    fn snapshot_accounting_includes_framing() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let snap = capture(&mut m, 0, true);
        assert_eq!(
            snap.chunk_count(),
            m.memory().page_count() * CHUNKS_PER_PAGE
        );
        assert_eq!(
            snap.metadata_bytes(),
            (snap.mem_chunks.len() + snap.disk_blocks.len()) as u64 * 4 + 50
        );
        assert_eq!(
            snap.total_bytes(),
            snap.memory_bytes()
                + snap.disk_bytes()
                + snap.cpu_state.len() as u64
                + snap.dev_state.len() as u64
                + snap.metadata_bytes()
        );
    }

    #[test]
    fn state_root_changes_with_state() {
        let img = image();
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        run_until_idle(&mut m);
        let r1 = compute_state_root(&m);
        m.inject_packet(vec![9]);
        run_until_idle(&mut m);
        let r2 = compute_state_root(&m);
        assert_ne!(r1, r2);
        // The tree exposes per-leaf proofs.
        let tree = build_state_tree(&m);
        assert!(tree.leaf_count() > 3);
        let proof = tree.prove(0).unwrap();
        assert!(proof.verify_hash(sha256(&m.save_cpu_state()), &tree.root()));
    }

    /// The effective references at `upto_id` as the chain collapsed before
    /// the merge: every retained section up to it (memory from the last
    /// full dump on, every disk section) inserted into a map in id order,
    /// so the latest write of each index wins.
    fn btreemap_collapse(store: &SnapshotStore, upto_id: u64) -> [Vec<(u32, Digest)>; 2] {
        use std::collections::BTreeMap;
        let chain: Vec<&StoredSnapshot> = store.all().iter().filter(|s| s.id <= upto_id).collect();
        let base = chain.iter().rev().find(|s| s.full_memory).map(|s| s.id);
        let mut leaves: [BTreeMap<u32, Digest>; 2] = Default::default();
        for s in chain {
            if base.is_none_or(|base| base <= s.id) {
                leaves[0].extend(s.mem_chunk_refs().iter().copied());
            }
            leaves[1].extend(s.disk_block_refs().iter().copied());
        }
        leaves.map(|leaves| leaves.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random chains of full and incremental captures of a
        /// bytecode guest — writes to random chunks and blocks, often back
        /// to the image's zeros — with prunes interleaved, at every retained
        /// snapshot: the merge is the map collapse; the manifest is that
        /// collapse less every reference equal to the image's leaf; the
        /// manifest authenticates as an auditor receives it; and the
        /// provider's on-demand start has the full download's root.
        ///
        /// Each op is `(kind, location, value)`: kind 0-2 writes memory, 3-4
        /// writes the disk (the value is small, so a write is often a zero),
        /// 5-7 takes a snapshot (full when `value` is even), 8 prunes at a
        /// retained snapshot.
        #[test]
        fn linear_collapse_is_the_btreemap_collapse(
            ops in proptest::collection::vec(
                (0u8..9, any::<u16>(), any::<u8>()),
                1..40,
            )
        ) {
            use crate::ondemand::{materialize_on_demand, AuditorBlobCache};
            use crate::replay::Replayer;
            use avm_wire::Encode;

            let img = image();
            let reg = GuestRegistry::new();
            let mut m = Machine::from_image(&img, &reg).unwrap();
            let mut cache = StateTreeCache::new();
            let mut store = SnapshotStore::for_image(&img);
            for (kind, loc, val) in ops {
                let val = val % 4;
                match kind {
                    0..=2 => {
                        let addr = loc as u64 * 7 % m.memory().size();
                        m.memory_mut().write_u8(addr, val).unwrap();
                    }
                    3..=4 => {
                        let off = loc as u64 * 7 % m.devices().disk.size();
                        m.devices_mut().disk.write(off, &[val]).unwrap();
                    }
                    5..=7 => {
                        let id = store.next_id();
                        store.push(capture_with_cache(&mut m, &mut cache, id, val % 2 == 0));
                    }
                    _ if store.is_empty() => {}
                    _ => {
                        let at = store.base_id() + u64::from(val) % store.len() as u64;
                        store.prune_upto(at).unwrap();
                    }
                }
            }
            let id = store.next_id();
            store.push(capture_with_cache(&mut m, &mut cache, id, false));

            let own = img.baseline().leaf_hashes();
            let no_cache = AuditorBlobCache::new();
            for id in store.base_id()..store.next_id() {
                let reference = btreemap_collapse(&store, id);
                prop_assert_eq!(&store.effective_refs_upto(id), &reference, "snapshot {}", id);

                let manifest = store.chain_manifest_upto(id).unwrap();
                let [mem_refs, disk_refs] = reference.map(|refs| refs.into_iter());
                let lacks = |at: usize| move |(idx, digest): &(u32, Digest)| own[at][*idx as usize] != *digest;
                prop_assert_eq!(&manifest.mem_refs, &mem_refs.filter(lacks(0)).collect::<Vec<_>>());
                prop_assert_eq!(&manifest.disk_refs, &disk_refs.filter(lacks(1)).collect::<Vec<_>>());

                let received = manifest.encoded_len() as u64;
                let audited = Replayer::from_manifest_on_demand(&manifest, received, &img, &reg, &no_cache);
                prop_assert!(audited.is_ok(), "snapshot {}: {:?}", id, audited.err());
                let (lazy, _) = materialize_on_demand(&store, id, &img, &reg, &no_cache).unwrap();
                let full = store.materialize(id, &img, &reg).unwrap();
                prop_assert_eq!(compute_state_root(&lazy), compute_state_root(&full), "snapshot {}", id);
            }
        }
    }
}

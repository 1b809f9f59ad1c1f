//! Digest-addressed snapshot transfer and on-demand partial-state replay.
//!
//! Paper §3.5: an auditor starting a spot check "can either download an
//! entire snapshot or incrementally request the parts of the state that are
//! accessed during replay".  This module implements both halves of that
//! sentence, and the provider's own full build, on top of the
//! content-addressed [`SnapshotStore`]:
//!
//! 1. **Digest-addressed transfer.**  The auditor first downloads a
//!    [`ChainManifest`] — snapshot metadata plus the `(index, SHA-256)`
//!    references of the state at the starting snapshot that the reference
//!    image does not already hold — and then
//!    requests payload *blobs by digest* ([`avm_wire::BlobRequest`] /
//!    [`avm_wire::BlobResponse`]).  Digests the auditor can already produce
//!    (from its persistent [`AuditorBlobCache`], or because the public
//!    reference image holds that content somewhere) are never transferred,
//!    and duplicate content (every zero chunk, say) is transferred at most
//!    once.
//!    A full-download audit session makes exactly that download, in
//!    batches; [`dedup_transfer_upto`] prices it from the provider's side —
//!    the "dedup" column of the spot-check accounting.
//!
//! 2. **On-demand replay.**  The starting machine is built from the
//!    manifest *only*.  Memory chunks and disk blocks whose manifest digest
//!    differs from what the local reference image yields are staged for
//!    demand paging and fault in lazily as the replayed workload touches
//!    them, so the auditor downloads exactly the 512 B chunks the execution
//!    accesses — not the 4 KiB pages around them.  What the auditor can
//!    produce itself (its cache, the image) is staged with its contents
//!    ([`avm_vm::LeafStore::stage_lazy`]); the rest is staged *byteless*
//!    ([`avm_vm::LeafStore::stage_byteless`]), and the first touch of such a
//!    leaf is a miss the audit session answers with one blob exchange
//!    ([`crate::session`], "# Misses").  A provider auditing itself
//!    ([`materialize_on_demand`], [`crate::replay::Replayer::from_snapshot_on_demand`])
//!    stages the same way with its own store as the source of the rest, and
//!    [`OnDemandSession::finish`] turns the fault lists into the blob
//!    exchange that store would have served — the "on-demand" column.
//!
//! 3. **The provider's own full state.**  [`SnapshotStore::materialize`]
//!    is the same staging from the store's pool, plus one pass that
//!    installs each staged leaf once it hashes to its digest
//!    (`OnDemandSession::install`).
//!
//! # Round trips and batching
//!
//! Bytes are not the whole price of on-demand transfer: every exchange is a
//! network round trip.  An on-demand audit session asks, per miss, for every
//! blob the missing access needs in one [`BlobRequest`]; a full-download
//! session asks for every digest it staged byteless before replay, and the
//! provider-side [`fetch_blobs`] / [`OnDemandSession::finish`] settle after
//! it, both in requests of up to [`avm_wire::DEFAULT_BLOB_BATCH`] digests.
//! Every accounting struct reports the round trips the exchange performed
//! ([`BlobFetch::round_trips`], [`OnDemandCost::round_trips`]), priced in
//! modelled wall time by a configurable [`avm_wire::RttModel`].  (What a
//! blob-at-a-time auditor would have paid instead is `1 + fetched.len()`;
//! the comparison lives with the experiment that prints it,
//! `avm_bench::pricing`.)
//!
//! Authentication never weakens in either mode: the manifest is verified by
//! deriving the Merkle state root its leaf hashes imply and comparing
//! against the recorded root, and every blob is verified against the digest
//! it was requested under (which the root covers) before it is used or
//! cached — a tampered manifest or substituted blob is rejected exactly like
//! a tampered full snapshot.
//!
//! # What comes from the image, once
//!
//! Which references diverge from the reference image, which digests the
//! image can produce itself, and the tree the manifest's root is derived
//! from are all read off the image's memoised baseline
//! ([`avm_vm::VmImage::baseline`]): staging compares each reference with the
//! baseline's leaf, finds image-held content through its digest → location
//! index and copies it out of the still-fresh machine, and authenticates by
//! replacing the header and the staged leaves in a copy of the baseline's
//! tree.  So staging costs what the snapshot changed — O(divergent · log n)
//! — and hashes nothing: a blob is hashed once, when it is received
//! ([`BlobFetch`]); the tree then goes to the replayer, whose first root
//! check is incremental too.

use std::collections::{HashMap, HashSet};

use avm_compress::{CompressionLevel, CompressionStats, StreamMeasurer};
use avm_crypto::parallel::sha256_batch;
use avm_crypto::sha256::{sha256, Digest};
use avm_vm::{GuestRegistry, Machine, VmImage};
use avm_wire::varint::varint_len;
use avm_wire::{
    BlobRequest, BlobResponse, BlobResponseRef, Decode, Encode, Reader, RttModel, WireResult,
    Writer, DEFAULT_BLOB_BATCH,
};

use crate::error::CoreError;
use crate::snapshot::{first_out_of_order, SnapshotStore, StateTreeCache, TransferCost};

/// Snapshot metadata an auditor downloads to begin an on-demand (or
/// dedup-transfer) reconstruction: everything about the state at a snapshot
/// *except* the payload bytes, which are referenced by digest.
///
/// `mem_refs` and `disk_refs` are the *effective* references of the complete
/// state — the snapshot chain already collapsed (last write per index wins,
/// memory sections superseded by a later full dump dropped), strictly
/// increasing by index — that the reference image does not already hold.
/// Memory references address 512 B chunks; disk references address whole
/// blocks.  An index absent from the lists holds the image's own leaf
/// there, which the auditor derives locally at zero transfer cost; the root
/// check covers it like any listed leaf.  (A store that knows no image,
/// [`SnapshotStore::new`], lists the image-equal references too; staging
/// skips them.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainManifest {
    /// Id of the snapshot this manifest reconstructs.
    pub snapshot_id: u64,
    /// Machine step count at capture time.
    pub step: u64,
    /// Whether the guest had halted.
    pub halted: bool,
    /// Merkle root over the complete machine state; the manifest
    /// authenticates against it (see [`materialize_on_demand`]).
    pub state_root: Digest,
    /// Serialized CPU state at the snapshot.
    pub cpu_state: Vec<u8>,
    /// Serialized volatile device state at the snapshot.
    pub dev_state: Vec<u8>,
    /// Effective `(chunk index, content hash)` references the image does
    /// not hold, strictly increasing by index.
    pub mem_refs: Vec<(u32, Digest)>,
    /// Effective `(block index, content hash)` references the image does
    /// not hold, strictly increasing by index.
    pub disk_refs: Vec<(u32, Digest)>,
}

/// Encoded size of one reference: a 4-byte index and a 32-byte digest.
const REF_LEN: usize = 4 + 32;

fn encode_refs(w: &mut Writer, refs: &[(u32, Digest)]) {
    w.put_varint(refs.len() as u64);
    for (idx, hash) in refs {
        w.put_u32(*idx);
        w.put_raw(hash.as_bytes());
    }
}

fn refs_encoded_len(refs: &[(u32, Digest)]) -> usize {
    varint_len(refs.len() as u64) + refs.len() * REF_LEN
}

fn bytes_encoded_len(bytes: &[u8]) -> usize {
    varint_len(bytes.len() as u64) + bytes.len()
}

fn decode_refs(r: &mut Reader<'_>) -> WireResult<Vec<(u32, Digest)>> {
    let n = r.get_varint()?;
    let max = (r.remaining() / REF_LEN) as u64;
    if n > max {
        return Err(avm_wire::WireError::LengthOverflow { declared: n, max });
    }
    let mut refs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let idx = r.get_u32()?;
        let hash =
            Digest::from_slice(r.get_raw(32)?).ok_or(avm_wire::WireError::Corrupt("digest"))?;
        refs.push((idx, hash));
    }
    Ok(refs)
}

impl Encode for ChainManifest {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.snapshot_id);
        w.put_varint(self.step);
        w.put_bool(self.halted);
        w.put_raw(self.state_root.as_bytes());
        w.put_bytes(&self.cpu_state);
        w.put_bytes(&self.dev_state);
        encode_refs(w, &self.mem_refs);
        encode_refs(w, &self.disk_refs);
    }

    /// By arithmetic: a manifest is ~40 KB, and its size is read on every
    /// on-demand start.
    fn encoded_len(&self) -> usize {
        varint_len(self.snapshot_id)
            + varint_len(self.step)
            + 1
            + 32
            + bytes_encoded_len(&self.cpu_state)
            + bytes_encoded_len(&self.dev_state)
            + refs_encoded_len(&self.mem_refs)
            + refs_encoded_len(&self.disk_refs)
    }
}

impl Decode for ChainManifest {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(ChainManifest {
            snapshot_id: r.get_varint()?,
            step: r.get_varint()?,
            halted: r.get_bool()?,
            state_root: Digest::from_slice(r.get_raw(32)?)
                .ok_or(avm_wire::WireError::Corrupt("digest"))?,
            cpu_state: r.get_bytes()?.to_vec(),
            dev_state: r.get_bytes()?.to_vec(),
            mem_refs: decode_refs(r)?,
            disk_refs: decode_refs(r)?,
        })
    }
}

impl SnapshotStore {
    /// Builds the [`ChainManifest`] for the state at snapshot `upto_id`:
    /// the references the sections [`SnapshotStore::materialize`] applies
    /// collapse to (later writes win, memory sections before the last full
    /// dump are superseded), less every reference whose digest is the leaf
    /// the store's image holds at that index ([`SnapshotStore::for_image`];
    /// a store that knows no image lists them all).  So the manifest costs
    /// what the snapshot changed: a guest that keeps its state in CPU state
    /// sends a full memory dump's worth of nothing.
    pub fn chain_manifest_upto(&self, upto_id: u64) -> Result<ChainManifest, CoreError> {
        self.manifest_listing(upto_id, self.lacking_refs_upto(upto_id))
    }

    /// The manifest of snapshot `upto_id` with `[mem_refs, disk_refs]` as
    /// its references: [`SnapshotStore::chain_manifest_upto`] lists what the
    /// store's image lacks, [`SnapshotStore::materialize`] every effective
    /// reference, so it builds the same state whatever image it is given.
    pub(crate) fn manifest_listing(
        &self,
        upto_id: u64,
        [mem_refs, disk_refs]: [Vec<(u32, Digest)>; 2],
    ) -> Result<ChainManifest, CoreError> {
        let target = self
            .get(upto_id)
            .ok_or_else(|| CoreError::Snapshot(format!("snapshot {upto_id} not found")))?;
        Ok(ChainManifest {
            snapshot_id: target.id,
            step: target.step,
            halted: target.halted,
            state_root: target.state_root,
            cpu_state: target.cpu_state.clone(),
            dev_state: target.dev_state.clone(),
            mem_refs,
            disk_refs,
        })
    }

    /// Operator side of the blob exchange: serves each requested digest from
    /// the content-addressed pool, in request order.
    pub fn serve_blobs(&self, request: &BlobRequest) -> BlobResponse {
        self.lend_blobs(request).to_owned()
    }

    /// [`SnapshotStore::serve_blobs`] with the payloads still borrowed from
    /// the pool — what an in-process auditor authenticates before it copies
    /// anything.
    pub fn lend_blobs(&self, request: &BlobRequest) -> BlobResponseRef<'_> {
        BlobResponseRef {
            blobs: request
                .digests
                .iter()
                .map(|raw| self.payload(&Digest(*raw)))
                .collect(),
        }
    }
}

/// The auditor's persistent store of verified payload blobs, keyed by
/// SHA-256.
///
/// Every blob was either verified on receipt ([`AuditorBlobCache::
/// insert_verified`]) or derived locally from the reference image
/// ([`AuditorBlobCache::seed_from_machine`]); a digest the cache holds is
/// therefore *never requested again* — the cache is what makes the
/// digest-addressed protocol cheaper than shipping sections, across spot
/// checks as well as within one.
#[derive(Debug, Clone, Default)]
pub struct AuditorBlobCache {
    blobs: HashMap<Digest, Vec<u8>>,
    stored_bytes: u64,
}

impl AuditorBlobCache {
    /// Creates an empty cache.
    pub fn new() -> AuditorBlobCache {
        AuditorBlobCache::default()
    }

    /// True if the cache holds `digest`.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.blobs.contains_key(digest)
    }

    /// The cached payload for `digest`, if held.
    pub fn get(&self, digest: &Digest) -> Option<&[u8]> {
        self.blobs.get(digest).map(|b| b.as_slice())
    }

    /// Number of cached blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total payload bytes held.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Inserts a received blob after verifying it hashes to `digest` — the
    /// per-blob authentication of the transfer protocol.  A mismatch means
    /// the operator substituted content and is rejected.
    pub fn insert_verified(&mut self, digest: Digest, payload: Vec<u8>) -> Result<(), CoreError> {
        verify_blob(&digest, &payload)?;
        self.insert_trusted(digest, payload);
        Ok(())
    }

    /// Inserts a blob whose hash the caller has already verified (avoids
    /// re-hashing payloads that just went through [`verify_blob`]).
    pub(crate) fn insert_trusted(&mut self, digest: Digest, payload: Vec<u8>) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.blobs.entry(digest) {
            self.stored_bytes += payload.len() as u64;
            slot.insert(payload);
        }
    }

    /// Moves every blob of `other` into this cache.
    pub(crate) fn absorb(&mut self, other: AuditorBlobCache) {
        for (digest, payload) in other.blobs {
            self.insert_trusted(digest, payload);
        }
    }

    /// Seeds the cache with every memory chunk and disk block payload of
    /// `machine` (normally a machine freshly instantiated from the public
    /// reference image): content the auditor can derive locally never needs
    /// to cross the wire, whatever index the operator's snapshot references
    /// it at.
    pub fn seed_from_machine(&mut self, machine: &Machine) {
        // A partially-resident machine pairs staged (authentic) hashes with
        // stale raw contents; seeding from one would poison the cache.
        assert!(
            machine.stores().iter().all(|s| s.staged_count() == 0),
            "cannot seed a blob cache from a machine with staged demand-paged state"
        );
        // insert_trusted, not insert_verified: leaf_hash *is* the SHA-256 of
        // exactly these contents, so re-hashing every leaf would double the
        // seed's cost for zero added assurance.  The hash derivation itself
        // runs on the worker pool.
        for store in machine.stores() {
            let all: Vec<usize> = (0..store.leaf_count()).collect();
            store.prime_hashes(&all);
            for i in all {
                let hash = store.leaf_hash(i).expect("leaf in range");
                // A mostly-zero image repeats a handful of digests thousands
                // of times; skip the payload copy for digests already held.
                if !self.contains(&hash) {
                    self.insert_trusted(hash, store.leaf(i).expect("leaf in range").to_vec());
                }
            }
        }
    }

    /// Persists every cached blob into a durable blob arena (content-
    /// addressed, so blobs the arena already holds cost nothing), then
    /// flushes.  Blobs are written in digest order, making the on-disk
    /// image a deterministic function of the cache contents.
    ///
    /// Returns how many blobs were newly written.  A restarted auditor
    /// recovers with [`AuditorBlobCache::from_arena_scan`] and never
    /// refetches a digest it already paid for.
    pub fn persist_into<S: avm_store::Storage>(
        &self,
        arena: &mut avm_store::ArenaStore<S>,
    ) -> Result<u64, CoreError> {
        let mut digests: Vec<&Digest> = self.blobs.keys().collect();
        digests.sort();
        let mut written = 0u64;
        for digest in digests {
            if arena
                .put(*digest, &self.blobs[digest])
                .map_err(persistence_error)?
            {
                written += 1;
            }
        }
        arena.flush().map_err(persistence_error)?;
        Ok(written)
    }

    /// Rebuilds a cache from an arena recovery scan, re-verifying every
    /// payload against its digest — recovered bytes get no more trust than
    /// received ones, so a corrupted arena surfaces here instead of
    /// poisoning later audits.
    pub fn from_arena_scan(scan: &avm_store::ArenaScan) -> Result<AuditorBlobCache, CoreError> {
        let mut cache = AuditorBlobCache::new();
        // One batched pass through the multi-buffer hashing pipeline instead
        // of a scalar hash per recovered blob.
        let payloads: Vec<&[u8]> = scan.blobs.iter().map(|(_, p)| p.as_slice()).collect();
        let actual = sha256_batch(&payloads);
        for ((digest, payload), hash) in scan.blobs.iter().zip(actual) {
            if hash != *digest {
                return Err(blob_mismatch(digest));
            }
            cache.insert_trusted(*digest, payload.clone());
        }
        Ok(cache)
    }
}

/// Error for a blob-arena operation during cache persistence.
fn persistence_error(e: avm_store::StoreError) -> CoreError {
    CoreError::Snapshot(format!("blob cache persistence: {e}"))
}

/// Error for a digest the operator's store cannot substantiate.
fn operator_missing(digest: &Digest) -> CoreError {
    CoreError::Snapshot(format!(
        "operator could not serve blob {} referenced by its own snapshot",
        digest.short_hex()
    ))
}

/// Error for a payload that does not hash to the digest it was requested
/// (or recovered) under.
fn blob_mismatch(digest: &Digest) -> CoreError {
    CoreError::Snapshot(format!(
        "received blob does not hash to its requested digest {}",
        digest.short_hex()
    ))
}

/// The per-blob authentication of the transfer protocol: a received payload
/// must hash to the digest it was requested under.
fn verify_blob(digest: &Digest, payload: &[u8]) -> Result<(), CoreError> {
    if sha256(payload) != *digest {
        return Err(blob_mismatch(digest));
    }
    Ok(())
}

/// Batched form of [`verify_blob`]: hashes every payload through the
/// multi-buffer SHA-256 lanes ([`sha256_batch`]) and compares each against
/// the digest it travels under.  One batch per received blob response keeps
/// the auditor's authentication step on the vectorised hashing floor.
fn verify_blob_batch(digests: &[Digest], payloads: &[&[u8]]) -> Result<(), CoreError> {
    debug_assert_eq!(digests.len(), payloads.len());
    for (digest, hash) in digests.iter().zip(sha256_batch(payloads)) {
        if hash != *digest {
            return Err(blob_mismatch(digest));
        }
    }
    Ok(())
}

/// The authentication step every download model shares: `response` must
/// carry one payload per digest of `request`, and each payload must hash to
/// the digest it was requested under (one batched hashing pass).  Returns
/// the payloads, still borrowed from the response.
pub(crate) fn verify_blob_response<'r>(
    request: &BlobRequest,
    response: &BlobResponseRef<'r>,
) -> Result<Vec<&'r [u8]>, CoreError> {
    let digests: Vec<Digest> = request.digests.iter().map(|raw| Digest(*raw)).collect();
    if response.blobs.len() != digests.len() {
        let named: Vec<String> = digests.iter().map(Digest::short_hex).collect();
        return Err(CoreError::Snapshot(format!(
            "blob response carries {} payloads for {} requested digests ({})",
            response.blobs.len(),
            digests.len(),
            named.join(", ")
        )));
    }
    let mut payloads = Vec::with_capacity(digests.len());
    for (digest, blob) in digests.iter().zip(&response.blobs) {
        payloads.push(blob.ok_or_else(|| operator_missing(digest))?);
    }
    verify_blob_batch(&digests, &payloads)?;
    Ok(payloads)
}

/// Accounting for one blob download.
///
/// `accept` authenticates and keeps one response, whoever carries the
/// messages and however the requests were chosen: the provider-side
/// [`fetch_blobs`] / [`OnDemandSession::finish`] `plan` batches up front,
/// the sans-IO [`crate::session::AuditSession`] prefetches in batches (full
/// download) or asks for what each miss needs (on demand).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlobFetch {
    /// Digests actually transferred, in request order (never contains a
    /// digest the cache already held).
    pub fetched: Vec<Digest>,
    /// How many of `fetched` each exchange carried, in order.
    pub per_exchange: Vec<usize>,
    /// Digests satisfied from the cache instead of the wire.
    pub cache_hits: u64,
    /// Request/response round trips the exchange performed (0 when nothing
    /// needed fetching).
    pub round_trips: u64,
    /// Encoded size of the upstream [`BlobRequest`]s, summed over batches.
    pub request_bytes: u64,
    /// Encoded [`BlobResponse`] stream (the download).  `raw_bytes` is what
    /// was received; `compressed_bytes` is filled only by [`fetch_blobs`],
    /// the one caller that is handed a compression level to price it at.
    pub response: TransferCost,
    /// Raw payload bytes inside the response (excluding framing).
    pub payload_bytes: u64,
}

impl BlobFetch {
    /// The front half: collapses duplicates in `needed`, counts the digests
    /// `cache` already holds as hits, and splits the rest into requests of
    /// at most `max_per_request` digests (`0` = one request for everything).
    pub(crate) fn plan(
        &mut self,
        cache: &AuditorBlobCache,
        needed: &[Digest],
        max_per_request: usize,
    ) -> Vec<BlobRequest> {
        let mut seen = HashSet::new();
        let mut missing: Vec<avm_wire::BlobDigest> = Vec::new();
        for digest in needed {
            if !seen.insert(*digest) {
                continue;
            }
            if cache.contains(digest) {
                self.cache_hits += 1;
            } else {
                missing.push(digest.0);
            }
        }
        BlobRequest::batches(&missing, max_per_request)
    }

    /// The back half: authenticates `response` against `request` while its
    /// payloads are still borrowed, then accounts the round trip and copies
    /// each payload into `cache` — the only copy a blob ever gets.
    pub(crate) fn accept(
        &mut self,
        cache: &mut AuditorBlobCache,
        request: &BlobRequest,
        response: &BlobResponseRef<'_>,
    ) -> Result<(), CoreError> {
        let payloads = verify_blob_response(request, response)?;
        self.round_trips += 1;
        self.per_exchange.push(payloads.len());
        self.request_bytes += request.encoded_len() as u64;
        self.payload_bytes += response.payload_bytes();
        self.response.raw_bytes += response.encoded_len() as u64;
        for (raw, payload) in request.digests.iter().zip(payloads) {
            cache.insert_trusted(Digest(*raw), payload.to_vec());
            self.fetched.push(Digest(*raw));
        }
        Ok(())
    }
}

/// Runs one digest-addressed exchange against the operator's own store:
/// requests every digest in `needed` that `cache` does not hold (duplicates
/// collapsed) in batches of at most `max_per_request` digests (`0` = a
/// single request), verifies each received blob against its digest, and
/// inserts the verified blobs into `cache`.
///
/// Returns the exchange's byte and round-trip accounting, with the response
/// stream priced at `level`; fails if the store cannot serve a requested
/// digest or serves content that does not hash to it.
pub fn fetch_blobs(
    cache: &mut AuditorBlobCache,
    store: &SnapshotStore,
    needed: &[Digest],
    max_per_request: usize,
    level: CompressionLevel,
) -> Result<BlobFetch, CoreError> {
    let mut fetch = BlobFetch::default();
    let mut stream = StreamMeasurer::new();
    for request in fetch.plan(cache, needed, max_per_request) {
        let response = store.lend_blobs(&request);
        fetch.accept(cache, &request, &response)?;
        stream.push(&response.encode_to_vec());
    }
    fetch.response = stream.finish(level);
    Ok(fetch)
}

/// Accounting for a dedup-transfer full-state download
/// ([`dedup_transfer_upto`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupTransfer {
    /// Encoded manifest size (metadata the auditor must always download).
    pub manifest_bytes: u64,
    /// Number of blobs transferred.
    pub blobs_fetched: u64,
    /// Digests skipped because the auditor could derive them locally from
    /// the reference image, or already held them in its cache.
    pub blobs_skipped: u64,
    /// Encoded size of the upstream request.
    pub request_bytes: u64,
    /// The download (manifest + blob response as one stream), raw and
    /// compressed.
    pub transfer: TransferCost,
}

/// Models a digest-addressed download of the *complete* state at snapshot
/// `upto_id`: manifest plus every referenced blob the auditor cannot already
/// produce — the middle column between a full section download
/// ([`SnapshotStore::transfer_cost_upto`]) and on-demand replay.
///
/// This is provider-side pricing of a download nobody made (no audit calls
/// it; `avm_bench::pricing` does).  The cache is consulted read-only:
/// letting a hypothetical download populate it would subsidise a measured
/// one.  What the auditor can derive locally is whatever the image's
/// baseline locates ([`avm_vm::image::ImageBaseline::locate`]).
pub fn dedup_transfer_upto(
    store: &SnapshotStore,
    upto_id: u64,
    image: &VmImage,
    cache: &AuditorBlobCache,
    level: CompressionLevel,
) -> Result<DedupTransfer, CoreError> {
    let manifest = store.chain_manifest_upto(upto_id)?;
    let manifest_encoded = manifest.encode_to_vec();
    let baseline = image.baseline();

    let mut request = BlobRequest::default();
    let mut seen = HashSet::new();
    let mut skipped = 0u64;
    for (_, digest) in manifest.mem_refs.iter().chain(&manifest.disk_refs) {
        if !seen.insert(*digest) {
            continue;
        }
        if baseline.locate(digest).is_some() || cache.contains(digest) {
            skipped += 1;
        } else {
            request.digests.push(digest.0);
        }
    }
    // Priced, never kept — but authenticated like any other download.
    let response = store.lend_blobs(&request);
    verify_blob_response(&request, &response)?;
    let transfer = CompressionStats::measure_stream(
        [manifest_encoded.as_slice(), &response.encode_to_vec()],
        level,
    );
    Ok(DedupTransfer {
        manifest_bytes: manifest_encoded.len() as u64,
        blobs_fetched: request.digests.len() as u64,
        blobs_skipped: skipped,
        request_bytes: request.encoded_len() as u64,
        transfer,
    })
}

/// Byte, fault and round-trip accounting of a finished on-demand replay
/// ([`OnDemandSession::finish`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnDemandCost {
    /// Encoded manifest size.
    pub manifest_bytes: u64,
    /// Memory chunks faulted in during replay.
    pub chunks_faulted: u64,
    /// Disk blocks faulted in during replay.
    pub blocks_faulted: u64,
    /// Staged chunks/blocks the replay never touched — divergent state whose
    /// contents were never transferred (the §3.5 saving).
    pub untouched_staged: u64,
    /// Digests actually transferred for the faults (after dedup and cache),
    /// in the order they were received.
    pub fetched: Vec<Digest>,
    /// How many of `fetched` each blob exchange carried, in order.
    pub fetched_per_exchange: Vec<usize>,
    /// Unique faulted digests served from the auditor cache at zero transfer
    /// cost.
    pub cache_hits: u64,
    /// Unique faulted digests the auditor derived from its own reference
    /// image (content-addressed, whatever index the content sat at) — also
    /// zero transfer cost, mirroring the dedup model's "derivable" skip.
    pub locally_derived: u64,
    /// Encoded size of the upstream requests, summed over batches.
    pub request_bytes: u64,
    /// Round trips the download performed: one for the manifest plus one
    /// per [`BlobRequest`].
    pub round_trips: u64,
    /// Bytes the auditor downloaded: the encoded manifest plus every encoded
    /// blob response.
    pub transfer_bytes: u64,
}

impl OnDemandCost {
    /// Modelled wall time of the download under `model`.
    pub fn latency_micros(&self, model: &RttModel) -> u64 {
        model.latency_micros(self.round_trips, self.transfer_bytes)
    }
}

/// Where a staged blob's contents came from, which decides what the auditor
/// pays when the blob faults in: only [`StagedSource::Remote`] blobs cross
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StagedSource {
    /// Already held in the auditor's persistent cache.
    Cache,
    /// Derivable from the reference image (content-addressed: the local
    /// machine holds identical content, possibly at a different index).
    Local,
    /// Only the operator's store has it — transferred on first touch.
    Remote,
}

/// What [`OnDemandSession::classify_faults`] decided about a finished
/// replay's fault lists — the wire-facing half (`needed`) and the free
/// half (cache hits, locally derived), plus the counters the final
/// [`OnDemandCost`] reports.  An audit session received every `needed`
/// blob on a miss; [`OnDemandSession::finish`] still has to fetch them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultClassification {
    /// Unique faulted digests only the operator can serve, in fault order.
    pub needed: Vec<Digest>,
    /// Unique faulted digests served from the auditor cache (as classified
    /// at staging time).
    pub cache_hits: u64,
    /// Unique faulted digests derivable from the reference image.
    pub locally_derived: u64,
    /// Memory chunks faulted during replay.
    pub chunks_faulted: u64,
    /// Disk blocks faulted during replay.
    pub blocks_faulted: u64,
    /// Staged chunks/blocks the replay never touched.
    pub untouched_staged: u64,
}

/// Tracks one on-demand reconstruction from staging to settlement.
///
/// Produced by [`materialize_on_demand`]; after the replay (or any workload)
/// has run on the returned machine, [`OnDemandSession::finish`] converts the
/// machine's fault lists into the blob exchange the auditor performed and
/// its cost.
#[derive(Debug, Clone)]
pub struct OnDemandSession {
    snapshot_id: u64,
    state_root: Digest,
    manifest_bytes: u64,
    /// Leaf index → staged digest, per store of [`Machine::stores`].
    staged: [HashMap<usize, Digest>; 2],
    /// Source classification per staged digest (a digest staged at several
    /// indices resolves identically everywhere).
    sources: HashMap<Digest, StagedSource>,
    /// Digests staged without their bytes, each once, in manifest order.
    byteless: Vec<Digest>,
}

impl OnDemandSession {
    /// Id of the snapshot the session reconstructs.
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// The authenticated state root of the starting snapshot.
    pub fn state_root(&self) -> Digest {
        self.state_root
    }

    /// Encoded manifest size — the metadata download that starts the session.
    pub fn manifest_bytes(&self) -> u64 {
        self.manifest_bytes
    }

    /// Number of memory chunks staged for demand paging (state that diverges
    /// from the reference image and *would* all have to be downloaded by a
    /// full transfer).
    pub fn staged_chunks(&self) -> usize {
        self.staged[0].len()
    }

    /// Number of disk blocks staged for demand paging.
    pub fn staged_blocks(&self) -> usize {
        self.staged[1].len()
    }

    /// The digests staged byteless — neither the cache nor the image held
    /// them — each once, in manifest order: everything a full download
    /// fetches before replay.
    pub(crate) fn byteless(&self) -> &[Digest] {
        &self.byteless
    }

    /// Settles the session: reads the machine's fault lists, performs the
    /// batched digest-addressed exchange for every touched blob the auditor
    /// could not produce itself (cached and image-derivable content is free,
    /// like in the dedup model), inserts the fetched blobs into `cache`, and
    /// returns the accounting — bytes and round trips.
    ///
    /// `machine` must be the machine returned by [`materialize_on_demand`]
    /// alongside this session; `store` is the operator's snapshot store the
    /// blobs are fetched from.
    pub fn finish(
        &self,
        machine: &Machine,
        store: &SnapshotStore,
        cache: &mut AuditorBlobCache,
    ) -> Result<OnDemandCost, CoreError> {
        let classification = self.classify_faults(machine)?;
        let mut fetch = BlobFetch::default();
        for request in fetch.plan(cache, &classification.needed, DEFAULT_BLOB_BATCH) {
            fetch.accept(cache, &request, &store.lend_blobs(&request))?;
        }
        Ok(self.assemble_cost(classification, fetch))
    }

    /// Digests of the leaves `machine`'s first refused access needed
    /// ([`avm_vm::LeafStore::missed`]), memory's before the disk's, each
    /// once: what one blob request asks for.
    pub(crate) fn missed(&self, machine: &Machine) -> Vec<Digest> {
        let mut digests = Vec::new();
        for (store, staged) in machine.stores().iter().zip(&self.staged) {
            for leaf in store.missed() {
                if let Some(digest) = staged.get(leaf) {
                    if !digests.contains(digest) {
                        digests.push(*digest);
                    }
                }
            }
        }
        digests
    }

    /// Hands `content` — received, and checked to hash to `digest` — to
    /// every leaf of `machine` still staged byteless under `digest`.
    pub(crate) fn supply(&self, machine: &mut Machine, digest: &Digest, content: &[u8]) {
        for (store, staged) in machine.stores_mut().into_iter().zip(&self.staged) {
            for (&leaf, _) in staged.iter().filter(|(_, d)| *d == digest) {
                // A leaf that already has its bytes, or was overwritten
                // whole, needs none.
                let _ = store.supply(leaf, content.to_vec());
            }
        }
    }

    /// Makes `machine` — staged by this session, untouched since — fully
    /// resident: every staged leaf is installed without a fault
    /// ([`avm_vm::LeafStore::install_staged`]) and must hash to the digest
    /// it was staged under, the check a received blob gets.  After an error
    /// `machine` holds unchecked bytes and is to be dropped.
    pub(crate) fn install(&self, machine: &mut Machine) -> Result<(), CoreError> {
        for (store, staged) in machine.stores_mut().into_iter().zip(&self.staged) {
            let mut staged: Vec<(usize, Digest)> = staged.iter().map(|(&l, &d)| (l, d)).collect();
            staged.sort_unstable_by_key(|&(leaf, _)| leaf);
            for (leaf, digest) in &staged {
                store
                    .install_staged(*leaf)
                    .ok_or_else(|| operator_missing(digest))?;
            }
            let (digests, payloads): (Vec<Digest>, Vec<&[u8]>) = staged
                .iter()
                .map(|&(leaf, digest)| (digest, store.leaf(leaf).expect("a staged leaf")))
                .unzip();
            verify_blob_batch(&digests, &payloads)?;
        }
        Ok(())
    }

    /// The settle-time classification of the machine's fault lists: which
    /// unique faulted digests must cross the wire and which are free
    /// (cached / image-derivable), plus the fault and untouched counters.
    ///
    /// [`OnDemandSession::finish`] and [`crate::session::AuditSession`] both
    /// settle with `classify_faults` → [`OnDemandSession::assemble_cost`];
    /// `finish` fetches what is `needed` in between, the session already
    /// received it on its misses.
    pub(crate) fn classify_faults(
        &self,
        machine: &Machine,
    ) -> Result<FaultClassification, CoreError> {
        let stores = machine.stores();
        let mut needed = Vec::new();
        let mut cache_hits = 0u64;
        let mut locally_derived = 0u64;
        let mut seen = HashSet::new();
        // Memory's faults, then the disk's, each in first-touch order.
        for (store, staged) in stores.iter().zip(&self.staged) {
            for idx in store.faulted() {
                let digest = *staged.get(idx).ok_or_else(|| {
                    CoreError::Snapshot(format!(
                        "faulted {} {idx} was never staged",
                        store.leaf_name()
                    ))
                })?;
                if !seen.insert(digest) {
                    continue;
                }
                match self.sources.get(&digest) {
                    Some(StagedSource::Remote) => needed.push(digest),
                    Some(StagedSource::Local) => locally_derived += 1,
                    Some(StagedSource::Cache) => cache_hits += 1,
                    None => {
                        return Err(CoreError::Snapshot(format!(
                            "faulted digest {} has no staging source",
                            digest.short_hex()
                        )))
                    }
                }
            }
        }
        let [chunks_faulted, blocks_faulted] = stores.map(|s| s.faulted().len() as u64);
        Ok(FaultClassification {
            needed,
            cache_hits,
            locally_derived,
            chunks_faulted,
            blocks_faulted,
            untouched_staged: stores.iter().map(|s| s.staged_count() as u64).sum(),
        })
    }

    /// Assembles the [`OnDemandCost`] from a classification and the blob
    /// exchange it led to.
    pub(crate) fn assemble_cost(
        &self,
        classification: FaultClassification,
        fetch: BlobFetch,
    ) -> OnDemandCost {
        OnDemandCost {
            manifest_bytes: self.manifest_bytes,
            chunks_faulted: classification.chunks_faulted,
            blocks_faulted: classification.blocks_faulted,
            untouched_staged: classification.untouched_staged,
            round_trips: 1 + fetch.round_trips,
            fetched: fetch.fetched,
            fetched_per_exchange: fetch.per_exchange,
            cache_hits: classification.cache_hits + fetch.cache_hits,
            locally_derived: classification.locally_derived,
            request_bytes: fetch.request_bytes,
            transfer_bytes: self.manifest_bytes + fetch.response.raw_bytes,
        }
    }
}

/// Reconstructs the machine state at snapshot `upto_id` *lazily*: metadata
/// is applied eagerly, but chunk/block contents that differ from the local
/// reference image are only staged — they fault in (and are accounted as
/// transferred) when the workload actually touches them (paper §3.5).
///
/// This is the provider auditing itself: contents are staged from `cache`
/// when it holds the digest, from the image when it holds the content, and
/// otherwise from the store's own pool — the same staging an audit session
/// runs with nothing but what it received.  The manifest itself is
/// authenticated before the machine is returned: the Merkle root over the
/// manifest's leaf hashes (plus the reference image's own hashes for
/// unreferenced leaves) must equal the recorded state root, so a manifest
/// that lies about any reference is rejected before replay starts.
///
/// ```
/// use avm_core::ondemand::{materialize_on_demand, AuditorBlobCache};
/// use avm_core::snapshot::{capture, compute_state_root, SnapshotStore};
/// use avm_vm::bytecode::assemble;
/// use avm_vm::{GuestRegistry, Machine, VmImage};
///
/// let image = VmImage::bytecode("doc", 64 * 1024, assemble("halt", 0).unwrap(), 0, 0);
/// let registry = GuestRegistry::new();
/// let mut m = Machine::from_image(&image, &registry).unwrap();
/// m.memory_mut().write_u8(0x4000, 1).unwrap(); // diverges one chunk
/// m.memory_mut().write_u8(0x9000, 2).unwrap(); // diverges another chunk
/// let mut store = SnapshotStore::new();
/// store.push(capture(&mut m, 0, true));
///
/// // The auditor starts from metadata only; the root is already correct.
/// let mut cache = AuditorBlobCache::new();
/// let (mut lazy, session) =
///     materialize_on_demand(&store, 0, &image, &registry, &cache).unwrap();
/// assert_eq!(compute_state_root(&lazy), compute_state_root(&m));
/// assert_eq!(session.staged_chunks(), 2);
///
/// // Touch one of the two divergent chunks: only its 512 B blob is
/// // transferred.
/// assert_eq!(lazy.memory_mut().read_u8(0x4000).unwrap(), 1);
/// let cost = session.finish(&lazy, &store, &mut cache).unwrap();
/// assert_eq!(cost.chunks_faulted, 1);
/// assert_eq!(cost.untouched_staged, 1);
/// ```
pub fn materialize_on_demand(
    store: &SnapshotStore,
    upto_id: u64,
    image: &VmImage,
    registry: &GuestRegistry,
    cache: &AuditorBlobCache,
) -> Result<(Machine, OnDemandSession), CoreError> {
    let manifest = store.chain_manifest_upto(upto_id)?;
    let manifest_bytes = manifest.encoded_len() as u64;
    stage_from_manifest(
        &manifest,
        manifest_bytes,
        image,
        registry,
        cache,
        Some(store),
    )
    .map(|(machine, _, session)| (machine, session))
}

/// A manifest reference whose digest differs from what the reference image
/// holds there, resolved to the contents that will be staged in its place
/// (`None`: staged byteless).
struct Divergent {
    /// Position in [`Machine::stores`], and the leaf there.
    store: usize,
    leaf: usize,
    digest: Digest,
    content: Option<Vec<u8>>,
    source: StagedSource,
}

/// The on-demand start state of `manifest`: a machine with the manifest's
/// metadata restored and every divergent reference staged, the state tree
/// the manifest was authenticated with (in sync with the machine — a
/// replayer continues from it) and the session that settles the accounting.
/// `manifest_bytes` is what the manifest cost to download: the length of
/// the encoding that arrived, or of the one an in-process caller would have
/// been sent.
///
/// What `cache` or the image holds is staged with its contents; the rest is
/// staged with what `remote` — a provider's own store — holds, or byteless
/// without one (an audit session's start: see [`crate::session`]).
pub(crate) fn stage_from_manifest(
    manifest: &ChainManifest,
    manifest_bytes: u64,
    image: &VmImage,
    registry: &GuestRegistry,
    cache: &AuditorBlobCache,
    remote: Option<&SnapshotStore>,
) -> Result<(Machine, StateTreeCache, OnDemandSession), CoreError> {
    let (machine, session, staged) =
        stage_divergent(manifest, manifest_bytes, image, registry, cache, remote)?;

    // Authenticate the manifest: the root over header leaves (from the
    // restored metadata) and per-leaf hashes (staged or locally derived)
    // must equal the recorded root.  Every leaf the manifest does not
    // contradict is the reference image's own, so the image's tree with the
    // header and the staged leaves replaced is exactly that root.
    let mut state_tree = StateTreeCache::from_baseline(image);
    let root = state_tree.refresh_leaves(&machine, staged.each_ref().map(Vec::as_slice));
    if root != manifest.state_root {
        return Err(CoreError::Snapshot(format!(
            "manifest does not authenticate: derived root {} != recorded root {}",
            root.short_hex(),
            manifest.state_root.short_hex()
        )));
    }

    Ok((machine, state_tree, session))
}

/// The staging half of [`stage_from_manifest`]: a machine with the
/// manifest's metadata restored and every divergent reference staged, its
/// session, and the leaf indices staged per store of [`Machine::stores`] —
/// each in manifest order, so the leaf updates and hash batches they become
/// repeat exactly from run to run.
fn stage_divergent(
    manifest: &ChainManifest,
    manifest_bytes: u64,
    image: &VmImage,
    registry: &GuestRegistry,
    cache: &AuditorBlobCache,
    remote: Option<&SnapshotStore>,
) -> Result<(Machine, OnDemandSession, [Vec<usize>; 2]), CoreError> {
    let mut machine = Machine::from_image(image, registry).map_err(CoreError::Vm)?;
    // What the three header leaves cover: CPU, volatile devices, control.
    machine.restore_cpu_state(&manifest.cpu_state)?;
    machine
        .devices_mut()
        .restore_volatile(&manifest.dev_state)?;
    machine.set_control_state(manifest.step, manifest.halted, false);

    // Resolve every reference that diverges from the reference image to the
    // contents to stage.  The cache and the image are free — a blob whose
    // bytes sit *anywhere* in a fresh machine never needs to cross the wire
    // (the same content-addressed skip the dedup model applies), and this
    // machine is still fresh, so they are copied straight out of it.  Only
    // the operator's pool costs a transfer when the blob is touched.
    let baseline = image.baseline();
    let stores = machine.stores();
    let sections = [&manifest.mem_refs, &manifest.disk_refs];
    let mut divergent: Vec<Divergent> = Vec::new();
    for (at, (refs, image_own)) in sections.into_iter().zip(baseline.leaf_hashes()).enumerate() {
        // A list out of order could name one leaf twice, once with a
        // digest the root check never sees; it is refused before anything
        // stages.
        if let Some(idx) = first_out_of_order(refs.iter().map(|(idx, _)| *idx)) {
            return Err(CoreError::Snapshot(format!(
                "manifest references are not strictly increasing at {} {idx}",
                stores[at].leaf_name()
            )));
        }
        for (idx, digest) in refs {
            let leaf = *idx as usize;
            let own = image_own.get(leaf).ok_or_else(|| {
                CoreError::Snapshot(format!(
                    "manifest references {} {idx} out of range",
                    stores[at].leaf_name()
                ))
            })?;
            if own == digest {
                continue; // the reference image already yields this content here
            }
            let held_by_image = || {
                let (store, leaf) = baseline.locate(digest)?.store_and_leaf();
                stores[store].leaf(leaf)
            };
            let (content, source) = if let Some(cached) = cache.get(digest) {
                (Some(cached), StagedSource::Cache)
            } else if let Some(local) = held_by_image() {
                (Some(local), StagedSource::Local)
            } else {
                (
                    remote.and_then(|store| store.payload(digest)),
                    StagedSource::Remote,
                )
            };
            divergent.push(Divergent {
                store: at,
                leaf,
                digest: *digest,
                content: content.map(<[u8]>::to_vec),
                source,
            });
        }
    }

    let mut session = OnDemandSession {
        snapshot_id: manifest.snapshot_id,
        state_root: manifest.state_root,
        manifest_bytes,
        staged: Default::default(),
        sources: HashMap::new(),
        byteless: Vec::new(),
    };
    let mut staged: [Vec<usize>; 2] = Default::default();
    for d in divergent {
        let first = session.sources.insert(d.digest, d.source).is_none();
        if first && d.content.is_none() {
            session.byteless.push(d.digest);
        }
        let store = &mut machine.stores_mut()[d.store];
        let name = store.leaf_name();
        let staging = match d.content {
            Some(content) => store.stage_lazy(d.leaf, content, d.digest),
            None => store.stage_byteless(d.leaf, d.digest),
        };
        staging.ok_or_else(|| {
            CoreError::Snapshot(format!(
                "content staged at {name} {} has a bad size",
                d.leaf
            ))
        })?;
        session.staged[d.store].insert(d.leaf, d.digest);
        staged[d.store].push(d.leaf);
    }
    machine.clear_dirty_tracking();
    Ok((machine, session, staged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{capture, capture_with_cache, SnapshotStore, StateTreeCache};
    use avm_vm::bytecode::assemble;
    use avm_vm::{StopCondition, VmExit, PAGE_SIZE};
    use proptest::prelude::*;

    /// A guest that, per packet, bumps a counter page selected by the first
    /// payload byte and mirrors 8 bytes of it to the matching disk block.
    fn image(pages: usize) -> VmImage {
        let src = r"
                movi r1, 0x8000     ; rx buffer
                movi r2, 64         ; max len
                movi r5, 0x10000    ; page region base
            loop:
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                loadb r3, r1        ; selector byte
                movi r4, 4096
                mul r3, r4
                add r3, r5          ; target = base + sel * 4096
                load r7, r3
                addi r7, 1
                store r7, r3
                movi r4, 8
                mov r8, r3
                sub r8, r5          ; disk offset = sel * 4096
                diskwr r8, r3, r4
                jmp loop
            ";
        let code = assemble(src, 0).unwrap();
        VmImage::bytecode("ondemand-test", (pages * PAGE_SIZE) as u64, code, 0, 0)
            .with_disk(vec![0u8; 8 * PAGE_SIZE])
    }

    fn run_until_idle(m: &mut Machine) {
        loop {
            match m.run(StopCondition::Unbounded).unwrap() {
                VmExit::Idle | VmExit::Halted => break,
                _ => {}
            }
        }
    }

    /// Records a chain of `n` snapshots; packet `i` touches page selector
    /// `i % 6`.
    fn record_chain(n: u64) -> (Machine, SnapshotStore, VmImage, GuestRegistry) {
        let img = image(64);
        let reg = GuestRegistry::new();
        let mut m = Machine::from_image(&img, &reg).unwrap();
        let mut cache = StateTreeCache::new();
        let mut store = SnapshotStore::new();
        run_until_idle(&mut m);
        for i in 0..n {
            m.inject_packet(vec![(i % 6) as u8]);
            run_until_idle(&mut m);
            store.push(capture_with_cache(&mut m, &mut cache, i, i == 0));
        }
        (m, store, img, reg)
    }

    #[test]
    fn manifest_roundtrips_and_collapses_chain() {
        let (_, store, _, _) = record_chain(4);
        let manifest = store.chain_manifest_upto(3).unwrap();
        assert_eq!(manifest.snapshot_id, 3);
        // Effective refs are unique and sorted by index.
        for w in manifest.mem_refs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for w in manifest.disk_refs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Snapshot 0 was a full dump: the manifest covers every chunk.
        assert_eq!(manifest.mem_refs.len(), 64 * avm_vm::CHUNKS_PER_PAGE);
        let bytes = manifest.encode_to_vec();
        assert_eq!(ChainManifest::decode_exact(&bytes).unwrap(), manifest);
        assert!(store.chain_manifest_upto(99).is_err());
    }

    #[test]
    fn serve_blobs_answers_by_digest() {
        let (_, store, _, _) = record_chain(2);
        let manifest = store.chain_manifest_upto(1).unwrap();
        let some = manifest.mem_refs[0].1;
        let req = BlobRequest {
            digests: vec![some.0, [0u8; 32]],
        };
        let resp = store.serve_blobs(&req);
        assert_eq!(resp.blobs.len(), 2);
        assert_eq!(sha256(resp.blobs[0].as_ref().unwrap()), some);
        assert!(resp.blobs[1].is_none());
    }

    #[test]
    fn on_demand_machine_matches_materialized_state_lazily() {
        let (recorder, store, img, reg) = record_chain(5);
        let reference = store.materialize(4, &img, &reg).unwrap();
        let cache = AuditorBlobCache::new();
        let (mut lazy, session) = materialize_on_demand(&store, 4, &img, &reg, &cache).unwrap();
        // Roots agree before anything was transferred beyond the manifest.
        assert_eq!(session.state_root(), store.get(4).unwrap().state_root);
        assert_eq!(
            crate::snapshot::compute_state_root(&lazy),
            crate::snapshot::compute_state_root(&reference)
        );
        assert!(session.staged_chunks() > 0);
        assert_eq!(lazy.memory().faulted_chunks().len(), 0);

        // The leaf lists handed to `refresh_leaves` are in manifest order —
        // the same in every run, unlike the session's lookup maps.
        let manifest = store.chain_manifest_upto(4).unwrap();
        let stage = || stage_divergent(&manifest, 0, &img, &reg, &cache, Some(&store)).unwrap();
        let (_, staged, [chunks, blocks]) = stage();
        let (_, _, [chunks_again, blocks_again]) = stage();
        assert_eq!((&chunks, &blocks), (&chunks_again, &blocks_again));
        assert_eq!(chunks, [64, 128, 136, 144, 152, 160]);
        assert_eq!(blocks, [0, 8, 16, 24, 32]);
        assert_eq!(chunks.len(), staged.staged_chunks());
        assert_eq!(blocks.len(), staged.staged_blocks());

        // Drive both machines identically; roots must stay equal.
        let mut full = store.materialize(4, &img, &reg).unwrap();
        for sel in [1u8, 3, 1] {
            lazy.inject_packet(vec![sel]);
            full.inject_packet(vec![sel]);
            run_until_idle(&mut lazy);
            run_until_idle(&mut full);
        }
        assert_eq!(
            crate::snapshot::compute_state_root(&lazy),
            crate::snapshot::compute_state_root(&full)
        );
        // The workload touched a strict subset of the staged state.
        let mut auditor_cache = AuditorBlobCache::new();
        let cost = session.finish(&lazy, &store, &mut auditor_cache).unwrap();
        assert!(cost.chunks_faulted > 0);
        assert!(
            cost.untouched_staged > 0,
            "sparse touch must leave staged state untransferred"
        );
        assert!(cost.transfer_bytes > cost.manifest_bytes);
        // Round-trip accounting: the manifest plus at least one blob batch,
        // never more than one trip per fetched blob.
        assert!(cost.round_trips >= 2);
        assert!(cost.round_trips <= 1 + cost.fetched.len() as u64);
        let _ = recorder;
    }

    /// First-touch *order* is observable (it orders the blob requests), so
    /// it is pinned as literals: per packet the guest reads the rx buffer
    /// (chunk 0x8000 / 512 = 64, first packet only), then read-modify-writes
    /// the counter chunk (128 + 8 · selector) and the 8 mirrored bytes of
    /// disk block 8 · selector (offset `selector · 4096`, in 512 B leaves).
    /// The code chunk is the image's own and never
    /// staged; selector 2's chunk and block stay untouched.
    #[test]
    fn fault_order_is_first_touch_order() {
        let (_, store, img, reg) = record_chain(5);
        let cache = AuditorBlobCache::new();
        let (mut lazy, _) = materialize_on_demand(&store, 4, &img, &reg, &cache).unwrap();
        for sel in [3u8, 1, 3, 0, 4] {
            lazy.inject_packet(vec![sel]);
            run_until_idle(&mut lazy);
        }
        assert_eq!(lazy.memory().faulted_chunks(), &[64, 152, 136, 128, 160]);
        assert_eq!(lazy.devices().disk.faulted_blocks(), &[24, 8, 0, 32]);
        assert_eq!(lazy.memory().staged_chunk_count(), 1);
        assert_eq!(lazy.devices().disk.staged_block_count(), 1);
    }

    #[test]
    fn warm_cache_never_refetches() {
        let (_, store, img, reg) = record_chain(4);
        let mut cache = AuditorBlobCache::new();
        let run_check = |cache: &mut AuditorBlobCache| {
            let (mut lazy, session) = materialize_on_demand(&store, 3, &img, &reg, cache).unwrap();
            lazy.inject_packet(vec![2]);
            run_until_idle(&mut lazy);
            session.finish(&lazy, &store, cache).unwrap()
        };
        let first = run_check(&mut cache);
        assert!(!first.fetched.is_empty());
        let second = run_check(&mut cache);
        assert!(
            second.fetched.is_empty(),
            "every digest was cached after the first check: {:?}",
            second.fetched
        );
        assert_eq!(
            second.cache_hits,
            first.cache_hits + first.fetched.len() as u64
        );
        // The second check still paid for the manifest, nothing else — and
        // exactly one round trip (the manifest's).
        assert_eq!(second.transfer_bytes, second.manifest_bytes);
        assert!(second.transfer_bytes < first.transfer_bytes);
        assert_eq!(second.round_trips, 1);
    }

    #[test]
    fn image_seeded_cache_skips_derivable_blobs() {
        let (_, store, img, reg) = record_chain(3);
        let mut seeded = AuditorBlobCache::new();
        seeded.seed_from_machine(&Machine::from_image(&img, &reg).unwrap());
        assert!(!seeded.is_empty());
        // Full-state dedup download: with the seeded cache it only ships
        // divergent content; blobs skipped must cover all derivable ones.
        let dedup =
            dedup_transfer_upto(&store, 2, &img, &seeded, CompressionLevel::Default).unwrap();
        assert!(dedup.blobs_fetched > 0);
        assert!(dedup.blobs_skipped > 0);
        assert!(dedup.transfer.raw_bytes > dedup.manifest_bytes);
        // The dedup download is far below the section-based full download.
        assert!(dedup.transfer.raw_bytes < store.transfer_bytes_upto(2));
    }

    #[test]
    fn tampered_manifest_is_rejected() {
        let (_, store, img, reg) = record_chain(3);
        let cache = AuditorBlobCache::new();
        // Baseline sanity.
        assert!(materialize_on_demand(&store, 2, &img, &reg, &cache).is_ok());

        // A store whose recorded root was forged (the operator rewriting a
        // capture) must fail manifest authentication before replay starts.
        let img2 = image(64);
        let reg2 = GuestRegistry::new();
        let mut m = Machine::from_image(&img2, &reg2).unwrap();
        run_until_idle(&mut m);
        m.inject_packet(vec![1]);
        run_until_idle(&mut m);
        let mut snap = capture(&mut m, 0, true);
        snap.state_root = sha256(b"forged root");
        let mut forged = SnapshotStore::new();
        forged.push(snap);
        match materialize_on_demand(&forged, 0, &img2, &reg2, &cache) {
            Err(CoreError::Snapshot(msg)) => assert!(msg.contains("authenticate"), "{msg}"),
            other => panic!("expected authentication failure, got {other:?}"),
        }
    }

    #[test]
    fn fetch_blobs_dedups_and_verifies() {
        let (_, store, _, _) = record_chain(2);
        let manifest = store.chain_manifest_upto(1).unwrap();
        let d0 = manifest.mem_refs[0].1;
        let d1 = manifest.mem_refs[1].1;
        let mut cache = AuditorBlobCache::new();
        let fetch = fetch_blobs(
            &mut cache,
            &store,
            &[d0, d1, d0, d1],
            DEFAULT_BLOB_BATCH,
            CompressionLevel::Default,
        )
        .unwrap();
        // Duplicates collapsed (d0 may equal d1 if both chunks hold the same
        // content; either way nothing is fetched twice).
        let unique: HashSet<Digest> = [d0, d1].into_iter().collect();
        assert_eq!(fetch.fetched.len(), unique.len());
        assert!(cache.contains(&d0) && cache.contains(&d1));
        // Asking again: all hits, nothing shipped, zero round trips.
        let again = fetch_blobs(
            &mut cache,
            &store,
            &[d0, d1],
            DEFAULT_BLOB_BATCH,
            CompressionLevel::Default,
        )
        .unwrap();
        assert!(again.fetched.is_empty());
        assert_eq!(again.cache_hits, unique.len() as u64);
        assert_eq!(again.round_trips, 0);
        // Unknown digest is an operator failure.
        assert!(fetch_blobs(
            &mut cache,
            &store,
            &[sha256(b"unknown")],
            DEFAULT_BLOB_BATCH,
            CompressionLevel::Default
        )
        .is_err());
        // insert_verified rejects content not matching the digest.
        assert!(cache
            .insert_verified(sha256(b"a"), b"not a".to_vec())
            .is_err());
    }

    /// The satellite acceptance check for batching: a batched fetch returns
    /// exactly the same blobs as a one-digest-per-request fetch, in the same
    /// order, with a round-trip count that can only be lower.
    #[test]
    fn batched_fetch_equals_unbatched_with_fewer_round_trips() {
        let (_, store, _, _) = record_chain(3);
        let manifest = store.chain_manifest_upto(2).unwrap();
        let needed: Vec<Digest> = manifest
            .mem_refs
            .iter()
            .chain(&manifest.disk_refs)
            .map(|(_, d)| *d)
            .collect();

        let mut one_at_a_time = AuditorBlobCache::new();
        let unbatched = fetch_blobs(
            &mut one_at_a_time,
            &store,
            &needed,
            1,
            CompressionLevel::Default,
        )
        .unwrap();
        let mut batched_cache = AuditorBlobCache::new();
        let batched = fetch_blobs(
            &mut batched_cache,
            &store,
            &needed,
            DEFAULT_BLOB_BATCH,
            CompressionLevel::Default,
        )
        .unwrap();

        // Same blobs, same order, same payload bytes.
        assert_eq!(batched.fetched, unbatched.fetched);
        assert_eq!(batched.payload_bytes, unbatched.payload_bytes);
        for d in &batched.fetched {
            assert_eq!(batched_cache.get(d), one_at_a_time.get(d));
        }
        // Unbatched pays one round trip per blob; batching divides that.
        assert_eq!(unbatched.round_trips, unbatched.fetched.len() as u64);
        assert!(batched.round_trips <= unbatched.round_trips);
        assert!(
            batched.round_trips < unbatched.round_trips,
            "this chain fetches {} blobs, so batching must save round trips",
            unbatched.fetched.len()
        );
        // The RTT model orders the two accordingly.
        let model = RttModel::default();
        assert!(
            model.latency_micros(batched.round_trips, batched.response.raw_bytes)
                < model.latency_micros(unbatched.round_trips, unbatched.response.raw_bytes)
        );
    }

    /// On-demand replay keeps working against a pruned (rebased) store: the
    /// manifest of a surviving snapshot collapses the rebased chain, blobs
    /// still resolve, and the session settles.
    #[test]
    fn on_demand_works_after_prune() {
        let (_, mut store, img, reg) = record_chain(5);
        store.prune_upto(2).unwrap();
        let cache = AuditorBlobCache::new();
        let (mut lazy, session) = materialize_on_demand(&store, 4, &img, &reg, &cache).unwrap();
        let reference = store.materialize(4, &img, &reg).unwrap();
        assert_eq!(
            crate::snapshot::compute_state_root(&lazy),
            crate::snapshot::compute_state_root(&reference)
        );
        lazy.inject_packet(vec![1]);
        run_until_idle(&mut lazy);
        let mut auditor = AuditorBlobCache::new();
        let cost = session.finish(&lazy, &store, &mut auditor).unwrap();
        assert!(cost.chunks_faulted > 0);
        // Pruned snapshots have no manifest.
        assert!(store.chain_manifest_upto(1).is_err());
    }

    /// A cache persisted through a blob arena and recovered after a restart
    /// is the same cache: the second audit's settle-time exchange fetches
    /// nothing, because every digest it faults is already held.
    #[test]
    fn cache_persists_through_arena_and_skips_refetch_after_restart() {
        use avm_store::{ArenaConfig, ArenaStore, SimStorage};

        let (_, store, img, reg) = record_chain(4);

        // First audit with a cold cache: pays for its faulted blobs.
        let mut cache = AuditorBlobCache::new();
        let (mut lazy, session) = materialize_on_demand(&store, 3, &img, &reg, &cache).unwrap();
        lazy.inject_packet(vec![1]);
        run_until_idle(&mut lazy);
        let first = session.finish(&lazy, &store, &mut cache).unwrap();
        assert!(!first.fetched.is_empty());

        // Persist, "restart" (drop the arena handle), recover from the
        // surviving bytes.
        let storage = SimStorage::new();
        let mut arena = ArenaStore::create(storage.clone(), ArenaConfig::default()).unwrap();
        let written = cache.persist_into(&mut arena).unwrap();
        assert_eq!(written, cache.len() as u64);
        // Persisting again is free: the arena is content-addressed.
        assert_eq!(cache.persist_into(&mut arena).unwrap(), 0);
        drop(arena);
        let (_, scan) = ArenaStore::recover(storage, ArenaConfig::default()).unwrap();
        let recovered = AuditorBlobCache::from_arena_scan(&scan).unwrap();
        assert_eq!(recovered.len(), cache.len());
        assert_eq!(recovered.stored_bytes(), cache.stored_bytes());

        // Second audit of the same epoch with the recovered cache: every
        // fault is a cache hit, nothing crosses the wire.
        let (mut lazy, session) = materialize_on_demand(&store, 3, &img, &reg, &recovered).unwrap();
        lazy.inject_packet(vec![1]);
        run_until_idle(&mut lazy);
        let mut recovered = recovered;
        let second = session.finish(&lazy, &store, &mut recovered).unwrap();
        assert!(second.fetched.is_empty());
        assert!(second.cache_hits >= first.fetched.len() as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The arithmetic `encoded_len` is the length of the encoding, for
        /// every width of every varint the manifest carries.
        #[test]
        fn manifest_encoded_len_is_the_encoding_length(
            snapshot_id in any::<u64>(),
            step in any::<u64>(),
            halted in any::<bool>(),
            root in any::<[u8; 32]>(),
            cpu_state in collection::vec(any::<u8>(), 0..300),
            dev_state in collection::vec(any::<u8>(), 0..20),
            mem_refs in collection::vec((any::<u32>(), any::<[u8; 32]>()), 0..300),
            disk_refs in collection::vec((any::<u32>(), any::<[u8; 32]>()), 0..3),
        ) {
            let refs = |refs: Vec<(u32, [u8; 32])>| -> Vec<(u32, Digest)> {
                refs.into_iter().map(|(idx, raw)| (idx, Digest(raw))).collect()
            };
            let manifest = ChainManifest {
                snapshot_id,
                step,
                halted,
                state_root: Digest(root),
                cpu_state,
                dev_state,
                mem_refs: refs(mem_refs),
                disk_refs: refs(disk_refs),
            };
            prop_assert_eq!(manifest.encoded_len(), manifest.encode_to_vec().len());
        }
    }

    /// Recovery re-verifies payloads: a flipped byte in the arena surfaces
    /// as a digest mismatch instead of poisoning later audits.
    #[test]
    fn corrupted_arena_blob_is_rejected_on_recovery() {
        let digest = sha256(b"payload");
        let mut scan_blob = b"payload".to_vec();
        scan_blob[0] ^= 1;
        let scan = avm_store::scan_arenas(&avm_store::SimStorage::new())
            .map(|mut s| {
                s.blobs.push((digest, scan_blob));
                s
            })
            .unwrap();
        assert!(AuditorBlobCache::from_arena_scan(&scan).is_err());
    }
}

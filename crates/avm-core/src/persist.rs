//! Durable providers: crash recovery by checkpointed replay.
//!
//! A provider whose tamper-evident log lives only in RAM loses exactly the
//! evidence audits depend on when it restarts.  [`Provider`] wraps the
//! recording [`Avmm`] and mirrors everything an audit needs onto an
//! [`avm_store`] backend after every event:
//!
//! * every log entry goes to the append-only segment files, with the
//!   provider's own signed authenticators persisted as periodic *seals*;
//! * every snapshot's payload blobs and its durable record (the
//!   [`StoredSnapshot`]'s metadata and content-hash references, stored as
//!   an arena blob under the SHA-256 of its bytes) go to the blob arenas,
//!   and a MANIFEST record ties the record's digest into the segment
//!   stream;
//! * prunes append a PRUNE record (the new base and its rebased record)
//!   and then compact the arenas down to the live blob set.
//!
//! The write ordering is the durability invariant: for a snapshot, blobs →
//! record blob → MANIFEST record → SNAPSHOT log entry.  Appends are
//! sequential, so any crash that leaves the SNAPSHOT entry readable also
//! left everything the entry references readable.  [`Provider::recover`]
//! relies on this: it scans the segments (truncating a torn tail, refusing
//! on tampering), rebuilds the [`SnapshotStore`] from persisted records,
//! replays the log tail from the last durable snapshot — verifying state
//! roots exactly like an auditor — and resumes a live [`Avmm`] at the
//! recorded head.
//!
//! The provider keeps its log once, in the recorder's [`TamperEvidentLog`].
//! [`Provider::audit_server`] serves auditors the prefix of that log the
//! segment files hold — the entries a crash now would recover — so what an
//! auditor downloads never runs ahead of the disk.  Recovery moves the
//! entries it scanned into the resumed recorder's log.
//!
//! The crash-versus-tamper distinction (see [`avm_store::StoreError`])
//! carries through: a torn write recovers silently by truncation; a flipped
//! byte in sealed history, a broken hash chain or a forged seal fails
//! recovery with [`PersistError::Store`] carrying the tamper taxonomy, and
//! replay divergence fails with [`PersistError::Tampered`].

use std::collections::{BTreeMap, HashMap, HashSet};

use avm_crypto::keys::SigningKey;
use avm_crypto::sha256::{sha256, Digest};
use avm_log::{Authenticator, EntryKind, TamperEvidentLog};
use avm_store::{ArenaStore, DurabilityStats, SegmentStore, Storage, StoreError};
use avm_vm::devices::InputEvent;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::Decode;

use crate::attest::{build_envelope_from_parts, Attestor};
use crate::config::AvmmOptions;
use crate::endpoint::AuditServer;
use crate::envelope::Envelope;
use crate::error::{CoreError, FaultReason};
use crate::events::{MetaRecord, SnapshotRecord};
use crate::recorder::{Avmm, HostClock, OutboundMessage};
use crate::replay::{ReplayOutcome, Replayer};
use crate::snapshot::{SnapshotStore, StoredSnapshot};

pub use avm_store::{ArenaConfig, SegmentConfig};

/// Configuration for a durable provider's storage layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistConfig {
    /// Log segment rotation, sealing and sync policy.
    pub segments: SegmentConfig,
    /// Blob arena rotation and sync pricing.
    pub arenas: ArenaConfig,
}

/// Why a durable provider could not be created or recovered.
#[derive(Debug)]
pub enum PersistError {
    /// The storage layer failed — includes the tamper taxonomy
    /// ([`StoreError::Tamper`]) for damaged sealed bytes.
    Store(StoreError),
    /// The wrapped recorder failed.
    Core(CoreError),
    /// The persisted log is structurally intact but replay proved it
    /// inconsistent (or it claims a different image), or a durable snapshot
    /// record or payload is missing or misplaced, which no crash can cause
    /// — the same verdict an auditor would reach, raised at recovery time.
    Tampered(FaultReason),
    /// The provider's own in-memory state is inconsistent while it persists
    /// it (e.g. a SNAPSHOT entry naming a snapshot its store does not hold).
    Corrupt(String),
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "storage error: {e}"),
            PersistError::Core(e) => write!(f, "recorder error: {e}"),
            PersistError::Tampered(r) => write!(f, "persisted log is tampered: {r}"),
            PersistError::Corrupt(d) => write!(f, "persisted state corrupt: {d}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        PersistError::Store(e)
    }
}

impl From<CoreError> for PersistError {
    fn from(e: CoreError) -> Self {
        PersistError::Core(e)
    }
}

impl PersistError {
    /// True when the failure is evidence of tampering (as opposed to a torn
    /// write, an I/O fault, or an internal inconsistency).
    pub fn is_tamper(&self) -> bool {
        match self {
            PersistError::Store(e) => e.is_tamper(),
            PersistError::Tampered(_) => true,
            _ => false,
        }
    }
}

/// What [`Provider::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log entries recovered from the segment files.
    pub entries_recovered: u64,
    /// Highest sequence number covered by a persisted seal.
    pub sealed_upto: u64,
    /// Bytes dropped as torn tails (segments + arenas); 0 on a clean start.
    pub torn_bytes_truncated: u64,
    /// Base (oldest retained) snapshot id of the rebuilt store.
    pub base_snapshot_id: u64,
    /// Snapshots rebuilt into the store from persisted manifests.
    pub snapshots_recovered: u64,
    /// Log entries re-executed from the last durable snapshot to the head.
    pub entries_replayed: u64,
    /// SNAPSHOT state roots verified during that replay.
    pub snapshots_verified: u64,
    /// Blobs live in the arenas after recovery.
    pub arena_blobs: u64,
    /// Payload bytes live in the arenas after recovery.
    pub arena_bytes: u64,
}

/// A recording [`Avmm`] whose log, snapshots and authenticator chain are
/// mirrored to durable storage after every event.
///
/// All recording entry points ([`Provider::run_slice`],
/// [`Provider::deliver`], [`Provider::take_snapshot`], …) delegate to the
/// wrapped AVMM and then flush the new log suffix to the segment files, so
/// the persisted chain head never trails the in-memory one across calls.
pub struct Provider<S: Storage + Clone> {
    avmm: Avmm,
    segments: SegmentStore<S>,
    arenas: ArenaStore<S>,
    /// Manifest digest per retained snapshot id (the arenas' live set,
    /// together with the pooled payload digests).
    manifest_digests: BTreeMap<u64, Digest>,
    /// Entries of `avmm.log()` already written to the segment files — the
    /// prefix [`Provider::audit_server`] serves.
    persisted_entries: u64,
    /// The launch attestation responder.  Its envelope bytes are persisted
    /// to the arenas at create time, and recovery re-derives the identical
    /// bytes from the durable META entry — so a recovered provider
    /// re-serves *the* envelope, byte for byte.
    attestor: Attestor,
}

impl<S: Storage + Clone> core::fmt::Debug for Provider<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Provider")
            .field("name", &self.avmm.name())
            .field("persisted_entries", &self.persisted_entries)
            .field("sealed_upto", &self.segments.sealed_upto())
            .field("arena_blobs", &self.arenas.blob_count())
            .finish_non_exhaustive()
    }
}

impl<S: Storage + Clone> Provider<S> {
    /// Creates a fresh durable provider on empty `storage`.
    ///
    /// The AVMM's initial META entry is persisted before this returns.
    pub fn create(
        storage: S,
        name: &str,
        image: &VmImage,
        registry: &GuestRegistry,
        signing_key: SigningKey,
        options: AvmmOptions,
        cfg: PersistConfig,
    ) -> Result<Provider<S>, PersistError> {
        let segments = SegmentStore::create(storage.clone(), cfg.segments)?;
        let arenas = ArenaStore::create(storage, cfg.arenas)?;
        Provider::start(
            name,
            image,
            registry,
            signing_key,
            options,
            segments,
            arenas,
        )
    }

    /// A fresh recorder over `segments` and `arenas`, its attestation
    /// envelope and initial META entry persisted before this returns.
    fn start(
        name: &str,
        image: &VmImage,
        registry: &GuestRegistry,
        signing_key: SigningKey,
        options: AvmmOptions,
        segments: SegmentStore<S>,
        mut arenas: ArenaStore<S>,
    ) -> Result<Provider<S>, PersistError> {
        let avmm = Avmm::new(name, image, registry, signing_key, options)?;
        let attestor = Attestor::for_avmm(&avmm, image)?;
        persist_envelope(&mut arenas, &attestor)?;
        let mut provider = Provider {
            avmm,
            segments,
            arenas,
            manifest_digests: BTreeMap::new(),
            persisted_entries: 0,
            attestor,
        };
        provider.flush()?;
        Ok(provider)
    }

    /// Recovers a durable provider from the bytes in `storage`.
    ///
    /// Torn tails (a crash mid-append) are truncated silently; damage to
    /// sealed, durable bytes — a flipped byte, a broken hash chain, a bad
    /// seal signature — refuses recovery with a tamper-classified error.
    /// The log is then rebuilt and *re-verified*: the snapshot store is
    /// reconstructed from persisted manifests and the tail of the log is
    /// replayed from the last durable snapshot, checking recorded state
    /// roots exactly like an auditor's spot check, before the live AVMM
    /// resumes at the head.
    ///
    /// ```
    /// use avm_core::persist::{PersistConfig, Provider};
    /// use avm_core::{AvmmOptions, HostClock};
    /// use avm_crypto::keys::{SignatureScheme, SigningKey};
    /// use avm_store::SimStorage;
    /// use avm_vm::bytecode::assemble;
    /// use avm_vm::{GuestRegistry, VmImage};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let image = VmImage::bytecode("doc", 64 * 1024, assemble("halt", 0).unwrap(), 0, 0);
    /// let registry = GuestRegistry::new();
    /// let key = SigningKey::generate(&mut StdRng::seed_from_u64(7), SignatureScheme::Rsa(512));
    /// let storage = SimStorage::new();
    ///
    /// let mut provider = Provider::create(
    ///     storage.clone(), "alice", &image, &registry,
    ///     key.clone(), AvmmOptions::default(), PersistConfig::default(),
    /// ).unwrap();
    /// provider.run_slice(&HostClock::at(1_000), 10_000).unwrap();
    /// provider.take_snapshot().unwrap();
    /// let recorded = provider.avmm().log().len();
    /// drop(provider); // the process dies; only the bytes in `storage` survive
    ///
    /// let (recovered, report) = Provider::recover(
    ///     storage.reboot(), "alice", &image, &registry,
    ///     key, AvmmOptions::default(), PersistConfig::default(),
    /// ).unwrap();
    /// assert_eq!(recovered.avmm().log().len(), recorded);
    /// assert_eq!(report.snapshots_recovered, 1);
    /// assert_eq!(report.snapshots_verified, 1);
    /// ```
    pub fn recover(
        storage: S,
        name: &str,
        image: &VmImage,
        registry: &GuestRegistry,
        signing_key: SigningKey,
        options: AvmmOptions,
        cfg: PersistConfig,
    ) -> Result<(Provider<S>, RecoveryReport), PersistError> {
        let verifier = signing_key.verifying_key();
        let (segments, scan) =
            SegmentStore::recover(storage.clone(), cfg.segments, Some(&verifier))?;
        let (mut arenas, arena_scan) = ArenaStore::recover(storage, cfg.arenas)?;

        // A crash during create can die before the initial META entry became
        // durable.  Resuming over an empty log would record an AVMM that
        // never writes META — every later audit would reject the log as
        // malformed — so recovery re-runs the create path instead: a fresh
        // recorder whose initial META entry is persisted before this returns.
        if scan.entries.is_empty() {
            let provider = Provider::start(
                name,
                image,
                registry,
                signing_key,
                options,
                segments,
                arenas,
            )?;
            let report = RecoveryReport {
                torn_bytes_truncated: scan.torn_bytes + arena_scan.torn_bytes,
                arena_blobs: provider.arenas.blob_count(),
                arena_bytes: provider.arenas.stored_bytes(),
                ..RecoveryReport::default()
            };
            return Ok((provider, report));
        }

        // The scan already verified framing, chain and seals; from_entries
        // re-verifies the chain while building the in-memory log (defence
        // in depth — recovery must never trust a single pass).
        let log = TamperEvidentLog::from_entries(scan.entries)
            .map_err(|e| PersistError::Tampered(FaultReason::SyntacticFailure(e.to_string())))?;

        // The log's META entry must commit to *our* image, like replay_meta
        // checks for an auditor.
        if let Some(first) = log.entries().first() {
            if first.kind != EntryKind::Meta {
                return Err(PersistError::Tampered(FaultReason::SyntacticFailure(
                    "log does not start with a META entry".into(),
                )));
            }
            let meta = MetaRecord::decode_exact(&first.content)
                .map_err(|_| PersistError::Tampered(FaultReason::MalformedLog { seq: 1 }))?;
            if meta.image_digest != image.digest() {
                return Err(PersistError::Tampered(FaultReason::ImageMismatch {
                    recorded: meta.image_digest.short_hex(),
                    reference: image.digest().short_hex(),
                }));
            }
        }

        let blobs: HashMap<Digest, Vec<u8>> = arena_scan.blobs.into_iter().collect();

        // Re-derive the attestation envelope from the durable META entry.
        // Every input is deterministic, so these are byte-for-byte the
        // bytes `create` served and persisted: a recovered provider
        // re-serves *the* envelope.  A persisted copy that disagrees is
        // tampering (content addressing makes that unreachable unless the
        // storage layer lies); a missing copy is a torn write at create
        // time and is simply re-persisted.
        let meta_entry = log.entries().first().expect("non-empty log scanned");
        let envelope = build_envelope_from_parts(image, meta_entry, &signing_key)?;
        let attestor = Attestor::new(&envelope, signing_key.clone());
        if let Some(persisted) = blobs.get(&attestor.envelope_digest()) {
            if persisted != attestor.envelope_bytes() {
                return Err(PersistError::Tampered(FaultReason::SyntacticFailure(
                    "persisted attestation envelope does not match the recorded launch".into(),
                )));
            }
        } else {
            persist_envelope(&mut arenas, &attestor)?;
        }

        // Last manifest per id wins: a crash can leave an orphaned manifest
        // record for a snapshot whose log entry never became durable, and a
        // prune rewrites the base's manifest.
        let mut manifest_digests: BTreeMap<u64, Digest> = BTreeMap::new();
        for (id, digest) in &scan.manifests {
            manifest_digests.insert(*id, *digest);
        }
        let mut store = SnapshotStore::for_image(image);
        if let Some((base_id, base_digest)) = scan.prunes.last().copied() {
            manifest_digests = manifest_digests.split_off(&base_id);
            manifest_digests.insert(base_id, base_digest);
            store = store.with_base(base_id);
        }

        // SNAPSHOT entries in the durable log, as (snapshot id, log position).
        let mut snapshot_entries: Vec<(u64, usize)> = Vec::new();
        for (pos, entry) in log.entries().iter().enumerate() {
            if entry.kind == EntryKind::Snapshot {
                let rec = SnapshotRecord::decode_exact(&entry.content).map_err(|_| {
                    PersistError::Tampered(FaultReason::MalformedLog { seq: entry.seq })
                })?;
                snapshot_entries.push((rec.snapshot_id, pos));
            }
        }

        // Rebuild the store: the pruned base from its PRUNE manifest, then
        // every later snapshot whose SNAPSHOT entry became durable.  The
        // write ordering guarantees their manifests and blobs are durable
        // too; a miss here is tampering, not a crash artefact.
        // A section that is not strictly increasing by index was never
        // captured: it is refused as tampering.
        let rebuild = |store: &mut SnapshotStore, id: u64| {
            let stored = stored_snapshot(id, &manifest_digests, &blobs)?;
            store
                .try_push_stored(stored, |hash| &blobs[hash])
                .map_err(|e| PersistError::Tampered(FaultReason::SyntacticFailure(e.to_string())))
        };
        if store.next_id() > 0 && manifest_digests.contains_key(&store.base_id()) {
            let base_id = store.base_id();
            rebuild(&mut store, base_id)?;
        }
        let mut last_durable: Option<(u64, usize)> = None;
        for (id, pos) in &snapshot_entries {
            if *id >= store.next_id() {
                rebuild(&mut store, *id)?;
            }
            if *id < store.next_id() && store.get(*id).is_some() {
                last_durable = Some((*id, *pos));
            }
        }

        // Checkpointed replay: start from the newest snapshot that has a
        // durable SNAPSHOT entry, re-execute the tail, verify roots.  The
        // tail includes the checkpoint's own SNAPSHOT entry: replaying it
        // runs zero steps and re-verifies the restored root against the
        // log before anything executes on top of it.
        let mut replayer = match last_durable {
            Some((id, _)) => Replayer::from_snapshot(image, registry, &store, id)?,
            None => Replayer::from_image(image, registry)?,
        };
        let tail_start = last_durable.map_or(0, |(_, pos)| pos);
        let summary = match replayer.replay(&log.entries()[tail_start..]) {
            ReplayOutcome::Consistent(summary) => summary,
            ReplayOutcome::Fault(reason) => return Err(PersistError::Tampered(reason)),
        };
        let (machine, state_tree) = replayer.into_parts();

        // A crash between a durable PRUNE record and the end of arena
        // compaction leaves blobs only pruned-away snapshots referenced
        // (likewise a snapshot whose blobs landed but whose log entry never
        // became durable).  Re-run the compaction the crash interrupted so
        // orphans cannot leak space indefinitely; a clean shutdown has no
        // orphans and skips the rewrite.
        let mut live: HashSet<Digest> = store.pooled_digests().into_iter().collect();
        live.extend(manifest_digests.values().copied());
        live.insert(attestor.envelope_digest());
        if arenas.orphan_count(&live) > 0 {
            arenas.compact(&live)?;
        }

        let report = RecoveryReport {
            entries_recovered: log.len() as u64,
            sealed_upto: scan.sealed_upto,
            torn_bytes_truncated: scan.torn_bytes + arena_scan.torn_bytes,
            base_snapshot_id: store.base_id(),
            snapshots_recovered: store.len() as u64,
            entries_replayed: summary.entries_replayed,
            snapshots_verified: summary.snapshots_verified,
            arena_blobs: arenas.blob_count(),
            arena_bytes: arenas.stored_bytes(),
        };

        let persisted_entries = log.len() as u64;
        let avmm = Avmm::resume(
            name,
            machine,
            state_tree,
            image.digest(),
            signing_key,
            options,
            log,
            store,
        );
        Ok((
            Provider {
                avmm,
                segments,
                arenas,
                manifest_digests,
                persisted_entries,
                attestor,
            },
            report,
        ))
    }

    /// The wrapped recording AVMM (read-only; mutations go through the
    /// provider so they are persisted).
    pub fn avmm(&self) -> &Avmm {
        &self.avmm
    }

    /// Registers a peer's verification key on the wrapped AVMM.
    pub fn add_peer(&mut self, name: &str, key: avm_crypto::keys::VerifyingKey) {
        self.avmm.add_peer(name, key);
    }

    /// [`Avmm::run_slice`], with the produced log suffix persisted before
    /// the outbound messages are returned (an emitted message's SEND entry
    /// is durable before any peer can have seen the message).
    pub fn run_slice(
        &mut self,
        clock: &HostClock,
        max_steps: u64,
    ) -> Result<Vec<OutboundMessage>, PersistError> {
        let outbound = self.avmm.run_slice(clock, max_steps)?;
        self.flush()?;
        Ok(outbound)
    }

    /// [`Avmm::deliver`], persisted: a duplicate logs nothing, so nothing
    /// is written for it.
    pub fn deliver(&mut self, envelope: &Envelope) -> Result<Option<Envelope>, PersistError> {
        let ack = self.avmm.deliver(envelope)?;
        self.flush()?;
        Ok(ack)
    }

    /// [`Avmm::inject_input`], persisted.
    pub fn inject_input(&mut self, event: InputEvent) -> Result<(), PersistError> {
        self.avmm.inject_input(event);
        self.flush()
    }

    /// [`Avmm::take_snapshot`], persisted; returns the snapshot id.
    pub fn take_snapshot(&mut self) -> Result<u64, PersistError> {
        let id = self.avmm.take_snapshot().id;
        self.flush()?;
        Ok(id)
    }

    /// [`Avmm::prune_snapshots_upto`], with durable bookkeeping: the
    /// rebased base's manifest is persisted, a PRUNE record marks the new
    /// base in the segment stream (fsynced before any blob is dropped), and
    /// the arenas are compacted down to the blobs the surviving snapshots
    /// and manifests still reference.  Returns the in-memory payload bytes
    /// freed.
    pub fn prune_snapshots_upto(&mut self, id: u64) -> Result<u64, PersistError> {
        self.flush()?;
        let freed = self.avmm.prune_snapshots_upto(id)?;
        let base_id = self.avmm.snapshots().base_id();
        if base_id != id {
            // Prune at-or-below the existing base: nothing moved.
            return Ok(freed);
        }
        let base = self
            .avmm
            .snapshots()
            .get(base_id)
            .expect("prune_upto retains its target");
        let bytes = base.record();
        let digest = sha256(&bytes);
        self.arenas.put(digest, &bytes)?;
        self.arenas.flush()?;
        self.segments.append_prune(base_id, digest)?;
        self.manifest_digests = self.manifest_digests.split_off(&base_id);
        self.manifest_digests.insert(base_id, digest);
        let mut live: HashSet<Digest> =
            self.avmm.snapshots().pooled_digests().into_iter().collect();
        live.extend(self.manifest_digests.values().copied());
        live.insert(self.attestor.envelope_digest());
        self.arenas.compact(&live)?;
        Ok(freed)
    }

    /// An audit endpoint serving the entries of the log the segment files
    /// hold (with the in-memory snapshot store), so what auditors download
    /// is exactly what survives a crash — with the provider's attestation
    /// responder attached, so sessions can attest-then-audit.
    pub fn audit_server(&self) -> AuditServer<'_> {
        let on_disk = &self.avmm.log().entries()[..self.persisted_entries as usize];
        AuditServer::with_log_source(on_disk, self.avmm.snapshots()).with_attestor(&self.attestor)
    }

    /// The provider's attestation responder.
    pub fn attestor(&self) -> &Attestor {
        &self.attestor
    }

    /// The encoded attestation envelope this provider serves — stable,
    /// byte for byte, across crash and recovery.
    pub fn attestation_envelope_bytes(&self) -> &[u8] {
        self.attestor.envelope_bytes()
    }

    /// Combined durable-write accounting (segments + arenas).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.segments.stats().merged(&self.arenas.stats())
    }

    /// Number of segment files written so far.
    pub fn segment_files(&self) -> u64 {
        self.segments.segment_files()
    }

    /// Highest sequence number covered by a persisted seal.
    pub fn sealed_upto(&self) -> u64 {
        self.segments.sealed_upto()
    }

    /// True when `digest` is already durable in the arenas — the test
    /// surface for "recovery and later snapshots never re-store a blob the
    /// arenas still hold".
    pub fn blob_persisted(&self, digest: &Digest) -> bool {
        self.arenas.contains(digest)
    }

    /// Mirrors the log entries the AVMM appended since the last flush to
    /// the segment files, persisting snapshot payloads ahead of the
    /// SNAPSHOT entries that reference them, and ends the batch with a HEAD
    /// that binds its entries to their hash on disk.
    fn flush(&mut self) -> Result<(), PersistError> {
        let start = self.persisted_entries as usize;
        let end = self.avmm.log().len();
        if end == start {
            return Ok(());
        }
        for index in start..end {
            let entry = &self.avmm.log().entries()[index];
            if entry.kind == EntryKind::Snapshot {
                let rec = SnapshotRecord::decode_exact(&entry.content).map_err(|_| {
                    PersistError::Corrupt(format!("own SNAPSHOT entry {} undecodable", entry.seq))
                })?;
                self.persist_snapshot(rec.snapshot_id)?;
                // Blob and manifest appends precede the entry append in the
                // storage timeline: a durable SNAPSHOT entry implies its
                // manifest and blobs are durable.
                self.arenas.flush()?;
            }
            let entries = self.avmm.log().entries();
            let entry = &entries[index];
            self.segments.append_entry(entry)?;
            self.persisted_entries += 1;
            if self.segments.needs_seal() {
                let prev = index
                    .checked_sub(1)
                    .map_or(Digest::ZERO, |i| entries[i].hash);
                let auth = Authenticator::create(self.avmm.signing_key(), entry, prev);
                self.segments.seal(&auth)?;
            }
        }
        self.segments.append_head()?;
        self.arenas.flush()?;
        self.segments.flush_batch()?;
        Ok(())
    }

    /// Writes snapshot `id`'s payload blobs and manifest to the arenas and
    /// ties the manifest digest into the segment stream.
    fn persist_snapshot(&mut self, id: u64) -> Result<(), PersistError> {
        let Provider {
            avmm,
            segments,
            arenas,
            manifest_digests,
            ..
        } = self;
        let snapshots = avmm.snapshots();
        let snap = snapshots.get(id).ok_or_else(|| {
            PersistError::Corrupt(format!("SNAPSHOT entry references unknown snapshot {id}"))
        })?;
        for (_, hash) in snap.mem_chunk_refs().iter().chain(snap.disk_block_refs()) {
            if !arenas.contains(hash) {
                let payload = snapshots.payload(hash).ok_or_else(|| {
                    PersistError::Corrupt(format!("snapshot {id} blob missing from pool"))
                })?;
                arenas.put(*hash, payload)?;
            }
        }
        let bytes = snap.record();
        let digest = sha256(&bytes);
        arenas.put(digest, &bytes)?;
        segments.append_manifest(id, digest)?;
        manifest_digests.insert(id, digest);
        Ok(())
    }
}

/// Makes `attestor`'s envelope bytes durable in the arenas (content
/// addressed under their digest, like every other blob).
fn persist_envelope<S: Storage + Clone>(
    arenas: &mut ArenaStore<S>,
    attestor: &Attestor,
) -> Result<(), PersistError> {
    let digest = attestor.envelope_digest();
    if !arenas.contains(&digest) {
        arenas.put(digest, attestor.envelope_bytes())?;
        arenas.flush()?;
    }
    Ok(())
}

/// Reads snapshot `id`'s durable record back: its digest from the
/// persisted MANIFEST records, its bytes and every payload it references
/// from the arena blobs.
///
/// It is called only for a snapshot whose SNAPSHOT entry (or PRUNE record)
/// is durable, and [`Provider::flush`] makes the payloads, the record and
/// its MANIFEST durable before that entry, while compaction makes its new
/// arena files durable before it removes the old ones.  A crash therefore
/// cannot leave any of them missing or misplaced: each failure here is a
/// rewritten file, and is reported as tampering.
fn stored_snapshot(
    id: u64,
    manifest_digests: &BTreeMap<u64, Digest>,
    blobs: &HashMap<Digest, Vec<u8>>,
) -> Result<StoredSnapshot, PersistError> {
    let tampered = |detail: String| PersistError::Tampered(FaultReason::SyntacticFailure(detail));
    let digest = manifest_digests
        .get(&id)
        .ok_or_else(|| tampered(format!("no persisted manifest for snapshot {id}")))?;
    let bytes = blobs.get(digest).ok_or_else(|| {
        tampered(format!(
            "manifest blob for snapshot {id} missing from arenas"
        ))
    })?;
    let stored = StoredSnapshot::from_record(bytes)
        .map_err(|e| tampered(format!("manifest for snapshot {id} undecodable: {e}")))?;
    if stored.id != id {
        return Err(tampered(format!(
            "manifest digest for snapshot {id} resolves to manifest of snapshot {}",
            stored.id
        )));
    }
    let refs = stored
        .mem_chunk_refs()
        .iter()
        .chain(stored.disk_block_refs());
    if let Some((_, hash)) = refs.into_iter().find(|(_, hash)| !blobs.contains_key(hash)) {
        return Err(tampered(format!(
            "snapshot {id} payload {} missing from arenas",
            hash.short_hex()
        )));
    }
    Ok(stored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvelopeKind;
    use crate::testutil::{key, worker_image};
    use avm_crypto::keys::SignatureScheme;
    use avm_store::{SimStorage, SyncPolicy};
    use avm_vm::packet::encode_guest_packet;
    use avm_vm::GuestRegistry;
    use avm_wire::audit::{AuditRequest, AuditResponseRef, SegmentAddress};

    fn small_cfg() -> PersistConfig {
        PersistConfig {
            segments: SegmentConfig {
                max_segment_bytes: 1024,
                seal_every_entries: 4,
                sync_policy: SyncPolicy::PerBatch,
                ..SegmentConfig::default()
            },
            arenas: ArenaConfig {
                max_arena_bytes: 16 * 1024,
                ..ArenaConfig::default()
            },
        }
    }

    /// Drives a durable provider through the same workload as
    /// `testutil::record_with_snapshots`: one delivered packet, an echo run
    /// and a snapshot per round.
    fn provider_with_snapshots(
        storage: SimStorage,
        n_snapshots: u64,
        cfg: PersistConfig,
    ) -> (Provider<SimStorage>, VmImage) {
        let image = worker_image();
        let alice_key = key(2);
        let mut bob = Provider::create(
            storage,
            "bob",
            &image,
            &GuestRegistry::new(),
            key(1),
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
            cfg,
        )
        .unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let mut clock = HostClock::at(10);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..n_snapshots {
            clock.advance_to(clock.now() + 1_000);
            let payload = encode_guest_packet("alice", format!("work-{i}").as_bytes());
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i + 1,
                payload,
                &alice_key,
                None,
            );
            bob.deliver(&env).unwrap();
            bob.run_slice(&clock, 100_000).unwrap();
            bob.take_snapshot().unwrap();
        }
        (bob, image)
    }

    fn try_recover_bob(
        storage: SimStorage,
        image: &VmImage,
        cfg: PersistConfig,
    ) -> Result<(Provider<SimStorage>, RecoveryReport), PersistError> {
        Provider::recover(
            storage,
            "bob",
            image,
            &GuestRegistry::new(),
            key(1),
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
            cfg,
        )
    }

    fn recover_bob(
        storage: SimStorage,
        image: &VmImage,
        cfg: PersistConfig,
    ) -> (Provider<SimStorage>, RecoveryReport) {
        try_recover_bob(storage, image, cfg).unwrap()
    }

    fn spot_check_via(
        provider: &Provider<SimStorage>,
        image: &VmImage,
        start: u64,
        k: u64,
    ) -> crate::spotcheck::SpotCheckReport {
        let transport = crate::endpoint::SimNetTransport::new(
            provider.audit_server(),
            avm_net::LinkConfig::default(),
        );
        let mut client = crate::endpoint::AuditClient::new(transport);
        client
            .spot_check(start, k, image, &GuestRegistry::new())
            .unwrap()
    }

    #[test]
    fn clean_shutdown_recovers_identical_audits() {
        let storage = SimStorage::new();
        let (bob, image) = provider_with_snapshots(storage.clone(), 3, small_cfg());
        let live_log = bob.avmm().log().entries().to_vec();
        let live_snapshots = bob.avmm().snapshots().all().to_vec();
        let live_report = spot_check_via(&bob, &image, 1, 2);
        assert!(live_report.consistent);
        assert!(bob.segment_files() >= 2, "workload should rotate segments");
        drop(bob);

        let (recovered, report) = recover_bob(storage.reboot(), &image, small_cfg());
        assert_eq!(report.entries_recovered, live_log.len() as u64);
        assert_eq!(report.torn_bytes_truncated, 0);
        assert_eq!(report.snapshots_recovered, 3);
        assert!(report.snapshots_verified >= 1);
        assert_eq!(recovered.avmm().log().entries(), &live_log[..]);
        // Each snapshot's durable record reads back as the snapshot itself:
        // id, step, flags, root, CPU and device state, references.
        assert_eq!(recovered.avmm().snapshots().all(), &live_snapshots[..]);
        // The recovered provider's audits — served from the disk image of
        // the log — are indistinguishable from the never-killed provider's.
        assert_eq!(spot_check_via(&recovered, &image, 1, 2), live_report);
    }

    #[test]
    fn crash_mid_append_recovers_a_clean_prefix() {
        let storage = SimStorage::new();
        let (bob, image) = provider_with_snapshots(storage.clone(), 1, small_cfg());
        // Kill the provider a few bytes into some future append: the next
        // workload round dies mid-write.
        storage.set_crash_point(300);
        let alice_key = key(2);
        let mut bob = bob;
        let clock = HostClock::at(50_000);
        let mut crashed = false;
        for i in 0..8u64 {
            let payload = encode_guest_packet("alice", format!("late-{i}").as_bytes());
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i + 100,
                payload,
                &alice_key,
                None,
            );
            let died = bob.deliver(&env).is_err()
                || bob.run_slice(&clock, 100_000).is_err()
                || bob.take_snapshot().is_err();
            if died {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "crash budget should kill the provider");
        let live_log = bob.avmm().log().entries().to_vec();
        let live_snapshots = bob.avmm().snapshots().all().to_vec();
        drop(bob);

        let (recovered, report) = recover_bob(storage.reboot(), &image, small_cfg());
        // The recovered log is a clean prefix of what the killed provider
        // had in memory — nothing reordered, nothing invented.
        let n = report.entries_recovered as usize;
        assert!(n >= 2, "the pre-crash workload was durable");
        assert!(n <= live_log.len());
        assert_eq!(recovered.avmm().log().entries(), &live_log[..n]);
        // So are its snapshots: every one whose SNAPSHOT entry became
        // durable reads back field for field.
        let snapshots = recovered.avmm().snapshots().all();
        assert!(!snapshots.is_empty());
        assert_eq!(snapshots, &live_snapshots[..snapshots.len()]);
        // And it keeps recording: the chain head extends without error.
        let mut recovered = recovered;
        recovered.take_snapshot().unwrap();
        assert_eq!(recovered.avmm().log().len(), n + 1);
    }

    /// A durable provider serves what a crash leaves.  For crash points
    /// spread over all of a workload's flushes, the killed provider's
    /// whole-log answer is, byte for byte, the answer of the provider
    /// recovered from its disk — also when the recorder's log had run ahead
    /// of the disk.
    #[test]
    fn the_served_log_is_the_log_a_crash_recovers() {
        let image = worker_image();
        let (bob_key, alice_key) = (key(1), key(2));
        let options = AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512));
        let recover = |storage: SimStorage| {
            Provider::recover(
                storage,
                "bob",
                &image,
                &GuestRegistry::new(),
                bob_key.clone(),
                options.clone(),
                small_cfg(),
            )
            .unwrap()
        };
        // A fresh provider, and the bytes it writes before its workload.
        let create = || {
            let storage = SimStorage::new();
            let mut bob = Provider::create(
                storage.clone(),
                "bob",
                &image,
                &GuestRegistry::new(),
                bob_key.clone(),
                options.clone(),
                small_cfg(),
            )
            .unwrap();
            bob.add_peer("alice", alice_key.verifying_key());
            (storage, bob)
        };
        // Three rounds of a delivered packet, an echo run and a snapshot;
        // every storage write is inside a flush.  False once an operation
        // failed.
        let workload = |bob: &mut Provider<SimStorage>| {
            let clock = HostClock::at(10);
            (0..3u64).all(|i| {
                let payload = encode_guest_packet("alice", format!("work-{i}").as_bytes());
                let env = Envelope::create(
                    EnvelopeKind::Data,
                    "alice",
                    "bob",
                    i + 1,
                    payload,
                    &alice_key,
                    None,
                );
                bob.deliver(&env).is_ok()
                    && bob.run_slice(&clock, 100_000).is_ok()
                    && bob.take_snapshot().is_ok()
            })
        };
        let (storage, mut bob) = create();
        let before = storage.total_bytes();
        assert!(workload(&mut bob));
        let written = storage.total_bytes() - before;

        let whole_log = AuditRequest::LogSegment(SegmentAddress::Seq {
            from_seq: 1,
            to_seq: 0,
        });
        // Densely through the first round's log records (entries, seals,
        // heads, a rotation), then spread over every round.
        let budgets = (0..600)
            .step_by(7)
            .chain((1..40).map(|step| written * step / 40));
        let mut ran_ahead = 0;
        for budget in budgets {
            let (storage, mut bob) = create();
            storage.set_crash_point(budget);
            assert!(!workload(&mut bob) && storage.crashed(), "budget {budget}");

            let served = bob.audit_server().respond(&whole_log);
            let Ok(AuditResponseRef::LogSegment { count, .. }) =
                AuditResponseRef::decode_exact(&served)
            else {
                panic!("budget {budget}: no whole-log answer");
            };
            if count < bob.avmm().log().len() as u64 {
                ran_ahead += 1;
            }
            drop(bob);
            let (recovered, report) = recover(storage.reboot());
            assert_eq!(report.entries_recovered, count, "budget {budget}");
            assert_eq!(
                recovered.audit_server().respond(&whole_log),
                served,
                "budget {budget}"
            );
        }
        assert!(
            ran_ahead > 0,
            "no crash left the recorder ahead of the disk"
        );
    }

    #[test]
    fn crash_before_initial_meta_recovers_by_recreating() {
        let image = worker_image();
        let storage = SimStorage::new();
        // Die during create, inside the very first META entry's append (the
        // ~41-byte segment header fits; the META frame does not): nothing of
        // the log is durable.
        storage.set_crash_point(60);
        assert!(Provider::create(
            storage.clone(),
            "bob",
            &image,
            &GuestRegistry::new(),
            key(1),
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
            small_cfg(),
        )
        .is_err());

        let survivor = storage.reboot();
        let (recovered, report) = recover_bob(survivor.clone(), &image, small_cfg());
        assert_eq!(report.entries_recovered, 0);
        assert!(report.torn_bytes_truncated > 0);
        // Recovery re-ran the create path: the log starts with META again,
        // and it is durable — a further recovery sees it.
        assert_eq!(recovered.avmm().log().len(), 1);
        assert_eq!(recovered.avmm().log().entries()[0].kind, EntryKind::Meta);
        let mut recovered = recovered;
        recovered.run_slice(&HostClock::at(10), 10_000).unwrap();
        recovered.take_snapshot().unwrap();
        let live_log = recovered.avmm().log().entries().to_vec();
        drop(recovered);
        let (again, report) = recover_bob(survivor.reboot(), &image, small_cfg());
        assert_eq!(report.entries_recovered, live_log.len() as u64);
        assert_eq!(again.avmm().log().entries(), &live_log[..]);
    }

    #[test]
    fn crash_during_prune_compaction_recompacts_on_recovery() {
        // Reference: the same workload with an uninterrupted prune.
        let (mut clean, image) = provider_with_snapshots(SimStorage::new(), 4, small_cfg());
        clean.prune_snapshots_upto(2).unwrap();
        let compacted_blobs = clean.arenas.blob_count();
        drop(clean);

        // Find a crash budget that lands after the PRUNE record is durable
        // but before compaction finishes rewriting the arenas.
        let mut exercised = false;
        for budget in (50..6000u64).step_by(200) {
            let storage = SimStorage::new();
            let (mut bob, _) = provider_with_snapshots(storage.clone(), 4, small_cfg());
            storage.set_crash_point(budget);
            if bob.prune_snapshots_upto(2).is_ok() {
                break; // budget outlived the whole prune; later ones will too
            }
            drop(bob);
            let (recovered, report) = recover_bob(storage.reboot(), &image, small_cfg());
            if report.base_snapshot_id != 2 {
                continue; // died before the PRUNE record became durable
            }
            exercised = true;
            // The interrupted compaction was re-run during recovery: the
            // arenas hold exactly what a clean prune leaves, no orphans.
            assert_eq!(report.arena_blobs, compacted_blobs);
            assert_eq!(recovered.arenas.blob_count(), compacted_blobs);
            assert!(spot_check_via(&recovered, &image, 3, 1).consistent);
        }
        assert!(
            exercised,
            "no budget hit the PRUNE-durable, compaction-torn window"
        );
    }

    #[test]
    fn flipped_byte_in_sealed_history_is_tamper_not_torn() {
        let storage = SimStorage::new();
        let (bob, image) = provider_with_snapshots(storage.clone(), 2, small_cfg());
        drop(bob);
        // Flip one byte inside the first segment's first ENTRY record —
        // sealed, fsynced history, nowhere near the writable tail.
        let rebooted = storage.reboot();
        rebooted.corrupt("seg-000000", 60);
        let err = try_recover_bob(rebooted, &image, small_cfg()).unwrap_err();
        assert!(err.is_tamper(), "got non-tamper error: {err}");
        assert!(matches!(err, PersistError::Store(StoreError::Tamper(_))));
    }

    /// A persisted section whose indices are not strictly increasing holds
    /// the same leaves as the captured one, so its state still
    /// authenticates; it was never captured, and recovery refuses it as
    /// tampering, naming the index, before the chain is collapsed.
    #[test]
    fn a_persisted_section_out_of_order_is_tamper() {
        let storage = SimStorage::new();
        let (mut bob, image) = provider_with_snapshots(storage.clone(), 2, small_cfg());
        let mut stored = bob.avmm().snapshots().get(1).unwrap().clone();
        let mem_chunks = stored.mem_chunk_refs_mut();
        assert!(mem_chunks.len() >= 2, "a full memory dump");
        mem_chunks.swap(0, 1);
        let swapped = mem_chunks[1].0;
        let bytes = stored.record();
        let digest = sha256(&bytes);
        bob.arenas.put(digest, &bytes).unwrap();
        bob.arenas.flush().unwrap();
        bob.segments.append_manifest(1, digest).unwrap();
        bob.segments.flush_batch().unwrap();
        drop(bob);
        let err = try_recover_bob(storage.reboot(), &image, small_cfg()).unwrap_err();
        assert!(err.is_tamper(), "got non-tamper error: {err}");
        let named = format!("snapshot 1 section is not strictly increasing at chunk {swapped}");
        assert!(
            matches!(&err, PersistError::Tampered(FaultReason::SyntacticFailure(d)) if d.contains(&named)),
            "{err}"
        );
    }

    /// A MANIFEST record that names another snapshot's durable record can
    /// only come from a rewritten segment file: recovery reports tampering.
    #[test]
    fn a_manifest_naming_another_snapshot_is_tamper() {
        let storage = SimStorage::new();
        let (mut bob, image) = provider_with_snapshots(storage.clone(), 2, small_cfg());
        let of_snapshot_0 = bob.manifest_digests[&0];
        bob.segments.append_manifest(1, of_snapshot_0).unwrap();
        bob.segments.flush_batch().unwrap();
        drop(bob);
        let err = try_recover_bob(storage.reboot(), &image, small_cfg()).unwrap_err();
        assert!(err.is_tamper(), "got non-tamper error: {err}");
        let named = "manifest digest for snapshot 1 resolves to manifest of snapshot 0";
        assert!(
            matches!(&err, PersistError::Tampered(FaultReason::SyntacticFailure(d)) if d == named),
            "{err}"
        );
    }

    /// Payloads are durable before the SNAPSHOT entry that references them,
    /// and compaction removes old arena files only after the new ones are
    /// durable, so no crash loses a live payload: arenas rewritten without
    /// one are tampering.
    #[test]
    fn a_live_payload_missing_from_the_arenas_is_tamper() {
        let storage = SimStorage::new();
        let (mut bob, image) = provider_with_snapshots(storage.clone(), 2, small_cfg());
        let snapshots = bob.avmm().snapshots();
        let dropped = snapshots.get(1).unwrap().mem_chunk_refs()[0].1;
        let mut live: HashSet<Digest> = snapshots.pooled_digests().into_iter().collect();
        live.extend(bob.manifest_digests.values().copied());
        live.insert(bob.attestor.envelope_digest());
        assert!(live.remove(&dropped));
        bob.arenas.compact(&live).unwrap();
        drop(bob);
        let err = try_recover_bob(storage.reboot(), &image, small_cfg()).unwrap_err();
        assert!(err.is_tamper(), "got non-tamper error: {err}");
        let named = format!("payload {} missing from arenas", dropped.short_hex());
        assert!(
            matches!(&err, PersistError::Tampered(FaultReason::SyntacticFailure(d)) if d.contains(&named)),
            "{err}"
        );
    }

    #[test]
    fn prune_is_durable_and_compacts_arenas() {
        let storage = SimStorage::new();
        let (mut bob, image) = provider_with_snapshots(storage.clone(), 4, small_cfg());
        let blobs_before = bob.arenas.blob_count();
        let freed = bob.prune_snapshots_upto(2).unwrap();
        assert!(freed > 0);
        assert!(bob.arenas.blob_count() < blobs_before);
        let live_report = spot_check_via(&bob, &image, 3, 1);
        assert!(live_report.consistent);
        drop(bob);

        let (recovered, report) = recover_bob(storage.reboot(), &image, small_cfg());
        assert_eq!(report.base_snapshot_id, 2);
        assert_eq!(recovered.avmm().snapshots().base_id(), 2);
        assert_eq!(report.snapshots_recovered, 2);
        assert_eq!(spot_check_via(&recovered, &image, 3, 1), live_report);
        // Every blob the rebuilt store references survived compaction; a
        // post-recovery snapshot re-puts nothing.
        for digest in recovered.avmm().snapshots().pooled_digests() {
            assert!(recovered.arenas.contains(&digest));
        }
    }

    #[test]
    fn recovery_of_recovered_provider_is_stable() {
        let storage = SimStorage::new();
        let (bob, image) = provider_with_snapshots(storage.clone(), 2, small_cfg());
        drop(bob);
        let survivor = storage.reboot();
        let (mut once, _) = recover_bob(survivor.clone(), &image, small_cfg());
        // Keep working after recovery, then recover again from the result.
        once.take_snapshot().unwrap();
        let live_log = once.avmm().log().entries().to_vec();
        let live_report = spot_check_via(&once, &image, 1, 1);
        drop(once);
        let (twice, report) = recover_bob(survivor.reboot(), &image, small_cfg());
        assert_eq!(report.entries_recovered, live_log.len() as u64);
        assert_eq!(twice.avmm().log().entries(), &live_log[..]);
        assert_eq!(spot_check_via(&twice, &image, 1, 1), live_report);
    }

    /// The attestation envelope survives crash/recovery byte for byte: the
    /// recovered provider re-serves *the* envelope (same bytes, durable in
    /// the arenas), its audit endpoint answers challenges, and pruning's
    /// arena compaction never drops it.
    #[test]
    fn recovered_provider_serves_the_identical_envelope() {
        let storage = SimStorage::new();
        let (mut bob, image) = provider_with_snapshots(storage.clone(), 4, small_cfg());
        let live_envelope = bob.attestation_envelope_bytes().to_vec();
        let digest = bob.attestor().envelope_digest();
        assert!(bob.blob_persisted(&digest), "envelope is durable at create");
        bob.prune_snapshots_upto(2).unwrap();
        assert!(
            bob.blob_persisted(&digest),
            "compaction keeps the envelope live"
        );
        drop(bob);

        let (recovered, _) = recover_bob(storage.reboot(), &image, small_cfg());
        assert_eq!(recovered.attestation_envelope_bytes(), &live_envelope[..]);
        assert!(recovered.blob_persisted(&digest));

        // The recovered audit endpoint attests: challenge → verified quote.
        let policy = crate::attest::LaunchPolicy::new(
            &image,
            "bob",
            SignatureScheme::Rsa(512),
            key(1).verifying_key(),
        );
        let transport = crate::endpoint::SimNetTransport::new(
            recovered.audit_server(),
            avm_net::LinkConfig::default(),
        );
        let mut client = crate::endpoint::AuditClient::new(transport);
        let challenge = avm_wire::attest::AttestChallenge {
            nonce: crate::attest::challenge_nonce(1, 5_000),
            issued_at_us: 5_000,
        };
        let (verdict, envelope) = client.attest(&challenge, &policy, 6_000).unwrap();
        assert!(verdict.is_verified(), "verdict {verdict}");
        assert_eq!(
            avm_wire::Encode::encode_to_vec(&envelope.unwrap()),
            live_envelope
        );
    }

    #[test]
    fn per_entry_policy_syncs_more_than_per_seal() {
        let mk = |policy| PersistConfig {
            segments: SegmentConfig {
                sync_policy: policy,
                ..small_cfg().segments
            },
            arenas: small_cfg().arenas,
        };
        let (eager, _) = provider_with_snapshots(SimStorage::new(), 2, mk(SyncPolicy::PerEntry));
        let (lazy, _) = provider_with_snapshots(SimStorage::new(), 2, mk(SyncPolicy::PerSeal));
        let eager_stats = eager.segments.stats();
        let lazy_stats = lazy.segments.stats();
        assert!(eager_stats.syncs > lazy_stats.syncs);
        assert!(eager_stats.modelled_sync_micros > lazy_stats.modelled_sync_micros);
        assert_eq!(eager_stats.appended_bytes, lazy_stats.appended_bytes);
    }
}

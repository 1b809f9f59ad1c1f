//! Append-only log segment files.
//!
//! # On-disk layout
//!
//! The log lives in files `seg-000000`, `seg-000001`, … each a stream of
//! CRC-framed records (`avm_wire::write_frame`: magic, varint length,
//! payload, crc32).  An entry's record is the entry as a log segment ships
//! it, `t_i ‖ varint len ‖ c_i` ([`LogEntry::encode_record`]), so its first
//! byte is its kind tag (1–6); every other record opens with a zero byte and
//! its type:
//!
//! | payload                   | record   | after the two leading bytes                          |
//! |---------------------------|----------|------------------------------------------------------|
//! | `t_i ‖ varint len ‖ c_i`  | ENTRY    | (the whole payload is the entry's record)            |
//! | `0 ‖ 0 ‖ …`               | HEADER   | varint segment index, varint first seq, `h` anchor   |
//! | `0 ‖ 1 ‖ …`               | SEAL     | an encoded [`Authenticator`] for the last entry      |
//! | `0 ‖ 2 ‖ …`               | MANIFEST | varint snapshot id, manifest digest                  |
//! | `0 ‖ 3 ‖ …`               | PRUNE    | varint base snapshot id, base manifest digest        |
//! | `0 ‖ 4 ‖ …`               | HEAD     | `h` of the last entry, unsigned                      |
//!
//! No single changed byte turns one kind of record into another: as an
//! entry, a zero-led record's type byte is a content length far shorter
//! than the record, and each zero-led record but MANIFEST/PRUNE has a shape
//! of its own.
//!
//! Every file opens with a HEADER whose anchor is the chained hash of the
//! last entry in the previous segment (`h_0 = 0` for `seg-000000`) and
//! whose first seq names the file's first entry; entry `i` of the file is
//! `first seq + i`.  An entry stores no hash: `h_i` is a function of the
//! entries before it, so the files keep the chain only at *checkpoints* —
//! the HEADER anchors, the SEALs (which commit to `h_{s-1}` and `h_s`)
//! and the HEADs — and [`scan_segments`]
//! derives every hash with the auditor's [`chain_in_parts`], each run of
//! entries from the checkpoint before it to the one that must match it.  A
//! damaged entry is a [`TamperKind::BrokenHashChain`] at the first
//! checkpoint at or after it.  A SEAL carries the provider's own signed
//! authenticator for the chain head; seals are written every
//! `seal_every_entries` entries, always fsynced, and a segment only rotates
//! immediately after a seal — so every file except the last ends with a
//! SEAL.  A HEAD ([`SegmentStore::append_head`]) binds the entries written
//! since the last checkpoint at the end of every batch, so only a batch a
//! crash cut short leaves entries after the last checkpoint; those are
//! recovered with hashes chained from it.  Recovery classifies damage:
//!
//! * an **incomplete final frame in the final file** is a torn write — the
//!   one thing a crash can produce — and is silently truncated;
//! * anything else (bad CRC mid-file, a record that does not parse, a run
//!   that misses its checkpoint, bad seal, missing trailing seal in a
//!   non-final file) required rewriting durable bytes and is reported as
//!   [`StoreError::Tamper`].

use avm_crypto::keys::VerifyingKey;
use avm_crypto::sha256::Digest;
use avm_log::entry::chain_hash;
use avm_log::verify::{chain_in_parts, parts_for};
use avm_log::{Authenticator, EntryView, LogEntry, LogEntryRef, LogVerifyError};
use avm_wire::{
    decode_exact_with, read_frame, write_frame, Decode, Encode, FrameError, Reader, WireError,
    WireResult, Writer,
};

use crate::error::{StoreError, TamperKind};
use crate::fsync::{DurabilityMeter, DurabilityStats, FsyncModel, SyncPolicy};
use crate::storage::Storage;

/// File-name prefix for segment files.
pub const SEGMENT_PREFIX: &str = "seg-";

/// First byte of every record that is not an entry (an entry's first byte
/// is its kind tag, never 0); the record's type follows it.
const CONTROL: u8 = 0;
const REC_HEADER: u8 = 0;
const REC_SEAL: u8 = 1;
const REC_MANIFEST: u8 = 2;
const REC_PRUNE: u8 = 3;
const REC_HEAD: u8 = 4;

/// Configuration for the segment writer.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Rotate to a new file once the current one reaches this size.
    /// Rotation only happens at a seal, so files overshoot by up to one
    /// seal interval.
    pub max_segment_bytes: u64,
    /// Seal (and fsync) after this many entries.
    pub seal_every_entries: u64,
    /// When appends are fsynced.
    pub sync_policy: SyncPolicy,
    /// How syncs are priced.
    pub fsync_model: FsyncModel,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            max_segment_bytes: 64 * 1024,
            seal_every_entries: 32,
            sync_policy: SyncPolicy::PerSeal,
            fsync_model: FsyncModel::DISK_2010,
        }
    }
}

fn segment_file_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index:06}")
}

/// Result of a read-only scan of the segment files.
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// Decoded log entries in sequence order, every hash derived and every
    /// run of them checked against its checkpoint.
    pub entries: Vec<LogEntry>,
    /// `(snapshot_id, manifest_digest)` records, in persistence order.
    pub manifests: Vec<(u64, Digest)>,
    /// `(base_id, base_manifest_digest)` prune records, in order.
    pub prunes: Vec<(u64, Digest)>,
    /// Highest sequence number covered by a valid seal.
    pub sealed_upto: u64,
    /// Bytes in the torn tail (0 when the tail is clean).
    pub torn_bytes: u64,
    /// Torn tail location: file name and the byte length to keep.
    pub torn: Option<(String, u64)>,
    /// Highest sequence number a checkpoint claims the hash of.
    claimed_upto: u64,
    /// Index of the final (writable) segment file.
    resume_index: u64,
    /// Length of the final file after the torn tail is dropped.
    resume_file_len: u64,
    /// True when the final file needs its HEADER (re)written — either no
    /// files exist yet, or a crash tore the header append itself.
    needs_header: bool,
}

fn tamper(kind: TamperKind) -> StoreError {
    StoreError::Tamper(kind)
}

/// One parsed record.
enum Record {
    /// An entry, its hash not yet derived (zero until the chain pass).
    Entry(LogEntry),
    Header {
        index: u64,
        first_seq: u64,
        anchor: Digest,
    },
    Seal(Authenticator),
    Manifest(u64, Digest),
    Prune(u64, Digest),
    Head(Digest),
}

fn get_digest(r: &mut Reader<'_>) -> WireResult<Digest> {
    Digest::from_slice(r.get_raw(32)?).ok_or(WireError::Corrupt("digest"))
}

/// Parses one record payload, which must be exactly one record; an entry
/// gets seq `next_seq`.
fn parse_record(payload: &[u8], next_seq: u64) -> WireResult<Record> {
    decode_exact_with(payload, |r| {
        if payload.first() != Some(&CONTROL) {
            let entry = LogEntryRef::decode_record(r, next_seq)?;
            return Ok(Record::Entry(entry.to_entry(Digest::ZERO)));
        }
        r.get_u8()?;
        Ok(match r.get_u8()? {
            REC_HEADER => Record::Header {
                index: r.get_varint()?,
                first_seq: r.get_varint()?,
                anchor: get_digest(r)?,
            },
            REC_SEAL => Record::Seal(Authenticator::decode(r)?),
            REC_MANIFEST => Record::Manifest(r.get_varint()?, get_digest(r)?),
            REC_PRUNE => Record::Prune(r.get_varint()?, get_digest(r)?),
            REC_HEAD => Record::Head(get_digest(r)?),
            other => {
                return Err(WireError::InvalidTag {
                    what: "segment record",
                    tag: other as u64,
                })
            }
        })
    })
}

/// The checkpoints the record pass found.
#[derive(Default)]
struct Checkpoints {
    /// Per entry, the hash a checkpoint claims for it.
    claims: Vec<Option<Digest>>,
    /// `file_starts[i]` is the number of entries before file `i`.
    file_starts: Vec<usize>,
}

impl Checkpoints {
    /// Records a claim that `h_seq` is `hash` (`seq` 0: the anchor
    /// `h_0 = 0`); false when an earlier checkpoint claims otherwise.
    fn claim(&mut self, seq: u64, hash: Digest) -> bool {
        let Some(index) = seq.checked_sub(1) else {
            return hash == Digest::ZERO;
        };
        match &mut self.claims[index as usize] {
            Some(claimed) => *claimed == hash,
            slot => {
                *slot = Some(hash);
                true
            }
        }
    }
}

/// Scans the segment files in `storage` without modifying anything.
///
/// Verifies framing, file structure, the hash chain at every checkpoint
/// across file boundaries, and (when `verifier` is given) every seal
/// signature.  A torn tail in the final file is reported in the scan, not
/// an error; all other damage is [`StoreError::Tamper`].
pub fn scan_segments<S: Storage>(
    storage: &S,
    verifier: Option<&VerifyingKey>,
) -> Result<SegmentScan, StoreError> {
    let names: Vec<String> = storage
        .list()?
        .into_iter()
        .filter(|n| n.starts_with(SEGMENT_PREFIX))
        .collect();

    let mut scan = SegmentScan {
        entries: Vec::new(),
        manifests: Vec::new(),
        prunes: Vec::new(),
        sealed_upto: 0,
        torn_bytes: 0,
        torn: None,
        claimed_upto: 0,
        resume_index: 0,
        resume_file_len: 0,
        needs_header: true,
    };
    let mut checkpoints = Checkpoints::default();
    let records = scan_records(storage, &names, verifier, &mut scan, &mut checkpoints);

    // The record pass collected the entries and the hashes checkpoints
    // claim; the chain is derived here, every run up to a checkpoint in one
    // batched pass.  Every collected entry was read before whatever stopped
    // the record pass, so a chain fault is the earlier damage and is the one
    // reported.
    let claimed = checkpoints
        .claims
        .iter()
        .rposition(Option::is_some)
        .map_or(0, |i| i + 1);
    let views: Vec<LogEntryRef<'_>> = scan.entries[..claimed]
        .iter()
        .zip(&checkpoints.claims)
        .map(|(entry, claim)| LogEntryRef {
            seq: entry.seq,
            kind: entry.kind,
            content: &entry.content,
            claim: claim.as_ref().map(|hash| &hash.0),
        })
        .collect();
    let chain = chain_in_parts(&Digest::ZERO, &views, parts_for(views.len()));
    if let Err(fault) = chain.verdict {
        let LogVerifyError::BrokenChain { seq } = fault else {
            unreachable!("a stored entry's seq is its position, got {fault}")
        };
        let index = (seq - 1) as usize;
        let file = checkpoints
            .file_starts
            .partition_point(|&start| start <= index)
            - 1;
        return Err(tamper(TamperKind::BrokenHashChain {
            file: names[file].clone(),
            seq,
        }));
    }
    for (entry, hash) in scan.entries.iter_mut().zip(chain.hashes) {
        entry.hash = hash;
    }
    // Entries after the last checkpoint: a batch a crash cut short.
    let mut prev = claimed
        .checked_sub(1)
        .map_or(Digest::ZERO, |i| scan.entries[i].hash);
    for entry in &mut scan.entries[claimed..] {
        entry.hash = chain_hash(&prev, entry.seq, entry.kind, &entry.content);
        prev = entry.hash;
    }
    records?;
    scan.claimed_upto = claimed as u64;
    Ok(scan)
}

/// The record pass of [`scan_segments`]: framing, file structure and seals,
/// with every entry's hash left for the chain pass and every checkpoint's
/// claim collected into `checkpoints`.
fn scan_records<S: Storage>(
    storage: &S,
    names: &[String],
    verifier: Option<&VerifyingKey>,
    scan: &mut SegmentScan,
    checkpoints: &mut Checkpoints,
) -> Result<(), StoreError> {
    for (fi, name) in names.iter().enumerate() {
        checkpoints.file_starts.push(scan.entries.len());
        let data = storage.read(name)?;
        let is_last = fi + 1 == names.len();
        let mut off = 0usize;
        let mut saw_header = false;
        let mut last_was_seal = false;
        let mut keep_len = data.len();

        while off < data.len() {
            let (payload, consumed) = match read_frame(&data[off..]) {
                Ok(frame) => frame,
                Err(FrameError::Truncated) if is_last => {
                    // A torn append: the one kind of damage a crash produces.
                    // It tears the last append only, so a whole frame after
                    // the cut means a length was rewritten, not torn.
                    if (off + 1..data.len()).any(|p| read_frame(&data[p..]).is_ok()) {
                        return Err(tamper(TamperKind::BadRecord {
                            file: name.clone(),
                            detail: "a frame cut short is followed by a whole frame".into(),
                        }));
                    }
                    scan.torn = Some((name.clone(), off as u64));
                    scan.torn_bytes = (data.len() - off) as u64;
                    keep_len = off;
                    break;
                }
                Err(e) => {
                    return Err(tamper(TamperKind::BadRecord {
                        file: name.clone(),
                        detail: e.to_string(),
                    }))
                }
            };
            let bad_segment = |detail: &str| {
                tamper(TamperKind::BadSegment {
                    file: name.clone(),
                    detail: detail.into(),
                })
            };
            let last_seq = scan.entries.len() as u64;
            let record = parse_record(payload, last_seq + 1).map_err(|e| {
                tamper(TamperKind::BadRecord {
                    file: name.clone(),
                    detail: format!("{e:?}"),
                })
            })?;
            last_was_seal = matches!(record, Record::Seal(_));
            match record {
                Record::Header {
                    index,
                    first_seq,
                    anchor,
                } if !saw_header => {
                    if index != fi as u64
                        || first_seq != last_seq + 1
                        || !checkpoints.claim(last_seq, anchor)
                    {
                        return Err(bad_segment(&format!(
                            "header (index {index}, first seq {first_seq}) does not \
                             anchor to the preceding segment"
                        )));
                    }
                    saw_header = true;
                }
                _ if !saw_header => {
                    return Err(bad_segment("file does not start with a segment header"));
                }
                Record::Header { .. } => {
                    return Err(bad_segment("unexpected mid-file segment header"));
                }
                Record::Entry(entry) => {
                    scan.entries.push(entry);
                    checkpoints.claims.push(None);
                }
                Record::Seal(auth) => {
                    let bad_seal = |detail: &str| {
                        tamper(TamperKind::BadSeal {
                            file: name.clone(),
                            seq: auth.seq,
                            detail: detail.into(),
                        })
                    };
                    // A seal commits to `h_{s-1}` and `h_s`: two checkpoints.
                    if auth.seq != last_seq
                        || last_seq == 0
                        || !checkpoints.claim(last_seq - 1, auth.prev_hash)
                        || !checkpoints.claim(last_seq, auth.hash)
                    {
                        return Err(bad_seal("seal does not commit to the chain head"));
                    }
                    if let Some(key) = verifier {
                        auth.verify_signature(key)
                            .map_err(|_| bad_seal("invalid seal signature"))?;
                    }
                    scan.sealed_upto = last_seq;
                }
                Record::Manifest(id, digest) => scan.manifests.push((id, digest)),
                Record::Prune(id, digest) => scan.prunes.push((id, digest)),
                Record::Head(hash) => {
                    if !checkpoints.claim(last_seq, hash) {
                        return Err(bad_segment("head does not match the checkpoint before it"));
                    }
                }
            }
            off += consumed;
        }

        if !is_last && !last_was_seal {
            // Rotation happens only right after a seal; a non-final file
            // without a trailing seal lost durable bytes.
            return Err(tamper(TamperKind::BadSegment {
                file: name.clone(),
                detail: "non-final segment does not end with a seal".into(),
            }));
        }
        if is_last {
            scan.resume_index = fi as u64;
            scan.resume_file_len = keep_len as u64;
            scan.needs_header = !saw_header;
        }
    }
    Ok(())
}

/// Appender over a chain of segment files.
#[derive(Debug)]
pub struct SegmentStore<S: Storage> {
    storage: S,
    cfg: SegmentConfig,
    file: String,
    file_len: u64,
    segment_index: u64,
    last_seq: u64,
    last_hash: Digest,
    prev_of_last: Digest,
    entries_since_seal: u64,
    sealed_upto: u64,
    /// Highest seq whose hash a HEADER, SEAL or HEAD on disk claims.
    claimed_upto: u64,
    meter: DurabilityMeter,
}

impl<S: Storage> SegmentStore<S> {
    /// Creates a fresh segment chain; errors if segment files already exist
    /// (use [`SegmentStore::recover`] for those).
    pub fn create(storage: S, cfg: SegmentConfig) -> Result<SegmentStore<S>, StoreError> {
        if storage
            .list()?
            .iter()
            .any(|n| n.starts_with(SEGMENT_PREFIX))
        {
            return Err(StoreError::Io(
                "segment files already exist; use recover".into(),
            ));
        }
        let mut store = SegmentStore {
            storage,
            cfg,
            file: segment_file_name(0),
            file_len: 0,
            segment_index: 0,
            last_seq: 0,
            last_hash: Digest::ZERO,
            prev_of_last: Digest::ZERO,
            entries_since_seal: 0,
            sealed_upto: 0,
            claimed_upto: 0,
            meter: DurabilityMeter::new(cfg.fsync_model),
        };
        store.append_header()?;
        store.sync()?;
        Ok(store)
    }

    /// Recovers a writer from existing segment files: scans and verifies
    /// them, truncates a torn tail, and positions the writer at the chain
    /// head.  Genuine tampering fails with [`StoreError::Tamper`].
    pub fn recover(
        mut storage: S,
        cfg: SegmentConfig,
        verifier: Option<&VerifyingKey>,
    ) -> Result<(SegmentStore<S>, SegmentScan), StoreError> {
        let scan = scan_segments(&storage, verifier)?;
        if let Some((file, keep)) = &scan.torn {
            storage.truncate(file, *keep)?;
        }
        let (last_hash, prev_of_last) = match scan.entries.len() {
            0 => (Digest::ZERO, Digest::ZERO),
            1 => (scan.entries[0].hash, Digest::ZERO),
            n => (scan.entries[n - 1].hash, scan.entries[n - 2].hash),
        };
        let last_seq = scan.entries.len() as u64;
        let mut store = SegmentStore {
            storage,
            cfg,
            file: segment_file_name(scan.resume_index),
            file_len: scan.resume_file_len,
            segment_index: scan.resume_index,
            last_seq,
            last_hash,
            prev_of_last,
            entries_since_seal: last_seq - scan.sealed_upto,
            sealed_upto: scan.sealed_upto,
            claimed_upto: scan.claimed_upto,
            meter: DurabilityMeter::new(cfg.fsync_model),
        };
        if scan.needs_header {
            store.append_header()?;
            store.sync()?;
        }
        Ok((store, scan))
    }

    fn append_frame(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(payload.len() + 8);
        let n = write_frame(&mut buf, payload);
        self.storage.append(&self.file, &buf)?;
        self.file_len += n as u64;
        self.meter.record_append(n as u64);
        Ok(())
    }

    /// A writer for a record of type `record`, the two leading bytes written.
    fn control(record: u8) -> Writer {
        let mut w = Writer::new();
        w.put_u8(CONTROL);
        w.put_u8(record);
        w
    }

    fn append_header(&mut self) -> Result<(), StoreError> {
        let mut w = Self::control(REC_HEADER);
        w.put_varint(self.segment_index);
        w.put_varint(self.last_seq + 1);
        w.put_raw(self.last_hash.as_bytes());
        self.append_frame(&w.into_bytes())?;
        self.claimed_upto = self.last_seq;
        Ok(())
    }

    /// Appends a log entry — its record `t_i ‖ c_i`, [`LogEntry::stored_size`]
    /// bytes in a frame; it must extend the persisted chain exactly.
    pub fn append_entry(&mut self, entry: &LogEntry) -> Result<(), StoreError> {
        if entry.seq != self.last_seq + 1 || !entry.verify_against(&self.last_hash) {
            return Err(StoreError::Io(format!(
                "entry {} does not extend the persisted chain (head {})",
                entry.seq, self.last_seq
            )));
        }
        let mut w = Writer::new();
        entry.encode_record(&mut w);
        self.append_frame(&w.into_bytes())?;
        self.prev_of_last = self.last_hash;
        self.last_hash = entry.hash;
        self.last_seq = entry.seq;
        self.entries_since_seal += 1;
        if matches!(self.cfg.sync_policy, SyncPolicy::PerEntry) {
            self.sync()?;
        }
        Ok(())
    }

    /// True when enough entries accumulated since the last seal.
    pub fn needs_seal(&self) -> bool {
        self.entries_since_seal >= self.cfg.seal_every_entries.max(1)
    }

    /// Appends a seal — the provider's signed authenticator for the chain
    /// head — and fsyncs.  Rotates to a new segment file afterwards when the
    /// current one is over the size limit.
    pub fn seal(&mut self, auth: &Authenticator) -> Result<(), StoreError> {
        if auth.seq != self.last_seq
            || auth.hash != self.last_hash
            || auth.prev_hash != self.prev_of_last
        {
            return Err(StoreError::Io(
                "seal authenticator does not match the chain head".into(),
            ));
        }
        let mut w = Self::control(REC_SEAL);
        auth.encode(&mut w);
        self.append_frame(&w.into_bytes())?;
        self.sync()?; // a seal is a durability point under every policy
        self.sealed_upto = self.last_seq;
        self.claimed_upto = self.last_seq;
        self.entries_since_seal = 0;
        if self.file_len >= self.cfg.max_segment_bytes {
            self.segment_index += 1;
            self.file = segment_file_name(self.segment_index);
            self.file_len = 0;
            self.append_header()?;
            self.sync()?;
        }
        Ok(())
    }

    /// Records that the manifest for `snapshot_id` (with digest `manifest`)
    /// is durable in the arenas.  Written *after* the arena blobs, *before*
    /// the SNAPSHOT log entry, so a surviving SNAPSHOT entry implies its
    /// snapshot is reconstructible.
    pub fn append_manifest(
        &mut self,
        snapshot_id: u64,
        manifest: Digest,
    ) -> Result<(), StoreError> {
        let mut w = Self::control(REC_MANIFEST);
        w.put_varint(snapshot_id);
        w.put_raw(manifest.as_bytes());
        self.append_frame(&w.into_bytes())?;
        if matches!(self.cfg.sync_policy, SyncPolicy::PerEntry) {
            self.sync()?;
        }
        Ok(())
    }

    /// Records a prune: snapshots below `base_id` collapsed into the rebased
    /// base whose manifest digest is `base_manifest`.  Always fsynced —
    /// arena compaction may delete blobs the moment this record is durable.
    pub fn append_prune(&mut self, base_id: u64, base_manifest: Digest) -> Result<(), StoreError> {
        let mut w = Self::control(REC_PRUNE);
        w.put_varint(base_id);
        w.put_raw(base_manifest.as_bytes());
        self.append_frame(&w.into_bytes())?;
        self.sync()
    }

    /// Appends a HEAD — the hash of the last entry, unsigned — unless a
    /// seal or header already claims it.  The checkpoint that ends a batch
    /// of appends (`avm-core`'s provider writes one at the end of every
    /// flush): every entry before it is bound to a hash on disk, so a
    /// changed entry is a chain break at recovery, signed or not.
    pub fn append_head(&mut self) -> Result<(), StoreError> {
        if self.claimed_upto == self.last_seq {
            return Ok(());
        }
        let mut w = Self::control(REC_HEAD);
        w.put_raw(self.last_hash.as_bytes());
        self.append_frame(&w.into_bytes())?;
        self.claimed_upto = self.last_seq;
        Ok(())
    }

    /// Fsyncs outstanding appends (priced by the fsync model).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.meter.sync(&mut self.storage)
    }

    /// Commit point for [`SyncPolicy::PerBatch`]: syncs the batch under it.
    /// [`SyncPolicy::PerEntry`] synced every entry as it was appended, and
    /// the batch's HEAD rides on the next sync, as under
    /// [`SyncPolicy::PerSeal`].
    pub fn flush_batch(&mut self) -> Result<(), StoreError> {
        match self.cfg.sync_policy {
            SyncPolicy::PerBatch => self.sync(),
            SyncPolicy::PerEntry | SyncPolicy::PerSeal => Ok(()),
        }
    }

    /// Sequence number of the last persisted entry.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Highest sequence number covered by a seal.
    pub fn sealed_upto(&self) -> u64 {
        self.sealed_upto
    }

    /// Number of segment files written so far.
    pub fn segment_files(&self) -> u64 {
        self.segment_index + 1
    }

    /// Durability counters for this writer.
    pub fn stats(&self) -> DurabilityStats {
        self.meter.stats()
    }

    /// Bytes appended but not yet covered by a sync.
    pub fn unsynced_bytes(&self) -> u64 {
        self.meter.unsynced_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use avm_log::{EntryKind, TamperEvidentLog};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> SigningKey {
        let mut rng = StdRng::seed_from_u64(42);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn small_cfg() -> SegmentConfig {
        SegmentConfig {
            max_segment_bytes: 512,
            seal_every_entries: 4,
            sync_policy: SyncPolicy::PerSeal,
            fsync_model: FsyncModel::DISK_2010,
        }
    }

    /// Appends `n` entries with seals (and rotation) driven by the config.
    fn write_log(
        store: &mut SegmentStore<SimStorage>,
        log: &mut TamperEvidentLog,
        signing: &SigningKey,
        n: usize,
    ) -> Result<(), StoreError> {
        for i in 0..n {
            let prev = log.last_hash();
            let entry = log
                .append(EntryKind::Meta, format!("payload-{i}").into_bytes())
                .clone();
            store.append_entry(&entry)?;
            if store.needs_seal() {
                let auth = Authenticator::create(signing, &entry, prev);
                store.seal(&auth)?;
            }
        }
        Ok(())
    }

    #[test]
    fn roundtrip_with_rotation_and_seals() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 25).unwrap();
        assert!(store.segment_files() > 1, "expected rotation");
        assert_eq!(store.last_seq(), 25);
        assert_eq!(store.sealed_upto(), 24);

        let scan = scan_segments(&storage, Some(&signing.verifying_key())).unwrap();
        assert_eq!(scan.entries, log.entries());
        assert_eq!(scan.sealed_upto, 24);
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn recover_resumes_appending() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 10).unwrap();
        drop(store);

        let (mut store, scan) =
            SegmentStore::recover(storage.clone(), small_cfg(), Some(&signing.verifying_key()))
                .unwrap();
        assert_eq!(scan.entries.len(), 10);
        write_log(&mut store, &mut log, &signing, 10).unwrap();
        let scan = scan_segments(&storage, Some(&signing.verifying_key())).unwrap();
        assert_eq!(scan.entries, log.entries());
        assert_eq!(scan.entries.len(), 20);
    }

    #[test]
    fn torn_tail_is_truncated_silently() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 6).unwrap();

        // Crash mid-way through the next entry's frame.
        storage.set_crash_point(3);
        let entry = log.append(EntryKind::Meta, b"doomed".to_vec()).clone();
        assert_eq!(store.append_entry(&entry), Err(StoreError::Crashed));

        let rebooted = storage.reboot();
        let (store, scan) = SegmentStore::recover(
            rebooted.clone(),
            small_cfg(),
            Some(&signing.verifying_key()),
        )
        .unwrap();
        assert_eq!(scan.entries.len(), 6, "torn entry dropped");
        assert!(scan.torn_bytes > 0);
        assert_eq!(store.last_seq(), 6);
        // After truncation a rescan sees a clean tail.
        let rescan = scan_segments(&rebooted, Some(&signing.verifying_key())).unwrap();
        assert_eq!(rescan.torn_bytes, 0);
    }

    #[test]
    fn crash_inside_frame_header_is_torn_tail_not_tamper() {
        let signing = key();
        // Tear the next append inside the frame header itself: after just
        // the magic byte (budget 1) or mid-way through the multi-byte
        // length varint (budget 2 — the payload is over 127 bytes).
        for budget in [1u64, 2] {
            let storage = SimStorage::new();
            let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
            let mut log = TamperEvidentLog::new();
            write_log(&mut store, &mut log, &signing, 6).unwrap();

            storage.set_crash_point(budget);
            let entry = log.append(EntryKind::Meta, vec![9u8; 200]).clone();
            assert_eq!(store.append_entry(&entry), Err(StoreError::Crashed));

            let (store, scan) = SegmentStore::recover(
                storage.reboot(),
                small_cfg(),
                Some(&signing.verifying_key()),
            )
            .unwrap();
            assert_eq!(
                scan.entries.len(),
                6,
                "torn entry dropped (budget {budget})"
            );
            assert_eq!(scan.torn_bytes, budget);
            assert_eq!(store.last_seq(), 6);
        }
    }

    #[test]
    fn crash_during_first_header_recovers_to_empty() {
        let storage = SimStorage::new();
        storage.set_crash_point(2);
        assert!(matches!(
            SegmentStore::create(storage.clone(), small_cfg()),
            Err(StoreError::Crashed)
        ));
        let rebooted = storage.reboot();
        let (store, scan) = SegmentStore::recover(rebooted, small_cfg(), None).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(store.last_seq(), 0);
    }

    #[test]
    fn flipped_byte_in_sealed_region_is_tamper_not_torn() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 8).unwrap();

        // Flip a byte well inside the first (sealed, synced) region.
        storage.corrupt("seg-000000", 60);
        let err = scan_segments(&storage, Some(&signing.verifying_key())).unwrap_err();
        assert!(err.is_tamper(), "got {err:?}");
        assert!(matches!(
            SegmentStore::recover(
                storage.reboot(),
                small_cfg(),
                Some(&signing.verifying_key())
            ),
            Err(StoreError::Tamper(_))
        ));
    }

    #[test]
    fn truncation_inside_a_non_final_file_is_tamper() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 25).unwrap();
        assert!(store.segment_files() > 1);

        // Chop the end of the *first* file: it no longer ends with a seal
        // (or tears a frame mid-file) — never the torn-tail path.
        let mut s = storage.clone();
        let len = s.read("seg-000000").unwrap().len() as u64;
        s.truncate("seg-000000", len - 5).unwrap();
        let err = scan_segments(&storage, Some(&signing.verifying_key())).unwrap_err();
        assert!(err.is_tamper(), "got {err:?}");
    }

    /// Rewrites `file`, replacing each frame's payload with what `rewrite`
    /// returns for it (given the payload and the seq of the entry it holds,
    /// if it is an entry record), every frame re-framed with a valid CRC.
    fn reframe(
        storage: &SimStorage,
        file: &str,
        mut rewrite: impl FnMut(&[u8], Option<u64>) -> Option<Vec<u8>>,
    ) {
        let mut s = storage.clone();
        let data = s.read(file).unwrap();
        let first_seq = match parse_record(read_frame(&data).unwrap().0, 0) {
            Ok(Record::Header { first_seq, .. }) => first_seq,
            _ => panic!("{file} starts with a header"),
        };
        let (mut rewritten, mut off, mut seq) = (Vec::new(), 0, first_seq);
        while off < data.len() {
            let (payload, consumed) = read_frame(&data[off..]).unwrap();
            let entry_seq = (payload[0] != CONTROL).then_some(seq);
            seq += entry_seq.is_some() as u64;
            match rewrite(payload, entry_seq) {
                Some(payload) => {
                    write_frame(&mut rewritten, &payload);
                }
                None => rewritten.extend_from_slice(&data[off..off + consumed]),
            }
            off += consumed;
        }
        s.remove(file).unwrap();
        s.append(file, &rewritten).unwrap();
    }

    /// The record of `payload` (an entry record) with `content` in place of
    /// its own.
    fn with_content(payload: &[u8], content: &[u8]) -> Vec<u8> {
        let entry = decode_exact_with(payload, |r| LogEntryRef::decode_record(r, 0)).unwrap();
        let mut w = Writer::new();
        LogEntry {
            content: content.to_vec(),
            ..entry.to_entry(Digest::ZERO)
        }
        .encode_record(&mut w);
        w.into_bytes()
    }

    /// A forged entry re-framed with a valid CRC is a chain break in the
    /// file that holds it, at the first checkpoint at or after it (seq 3:
    /// the seal of seq 4 commits to `h_3` too) — also when a later file is
    /// damaged too (the batched chain pass runs after the record pass, and
    /// must still report the earlier damage).
    #[test]
    fn reframed_forged_entry_is_a_chain_break_in_its_own_file() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 25).unwrap();
        assert!(store.segment_files() > 2);

        // Rewrite seq 3 in seg-000000: new content, same place.
        reframe(&storage, "seg-000000", |payload, seq| {
            (seq == Some(3)).then(|| with_content(payload, b"forged"))
        });
        // And chop the trailing seal off the second file.
        let mut s = storage.clone();
        let len = s.read("seg-000001").unwrap().len() as u64;
        s.truncate("seg-000001", len - 5).unwrap();

        assert_eq!(
            scan_segments(&storage, Some(&signing.verifying_key())).unwrap_err(),
            StoreError::Tamper(TamperKind::BrokenHashChain {
                file: "seg-000000".into(),
                seq: 3,
            })
        );
    }

    /// A stored entry is its record: what `append_entry` appends is one
    /// frame around [`LogEntry::stored_size`] bytes, the entry's record.
    #[test]
    fn stored_size_is_what_append_entry_appends_less_framing() {
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        for len in [0usize, 1, 126, 127, 128, 300, 16_384] {
            let entry = log.append(EntryKind::Recv, vec![7; len]).clone();
            let before = storage.read("seg-000000").unwrap().len();
            let appended = store.stats().appended_bytes;
            store.append_entry(&entry).unwrap();
            let data = storage.read("seg-000000").unwrap();
            let (payload, frame) = read_frame(&data[before..]).unwrap();
            assert_eq!(frame, data.len() - before);
            assert_eq!(store.stats().appended_bytes - appended, frame as u64);
            let mut record = Writer::new();
            entry.encode_record(&mut record);
            assert_eq!(payload, record.as_slice());
            assert_eq!(payload.len(), entry.stored_size(), "content of {len} B");
        }
    }

    /// The entries written since the last seal are bound by the batch's
    /// HEAD: a changed one is a chain break at the head's seq.  Entries a
    /// crash left after the last checkpoint are recovered, hashes chained
    /// from it.
    #[test]
    fn a_head_binds_the_entries_after_the_last_seal() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 6).unwrap();
        store.append_head().unwrap();
        let bytes = store.stats().appended_bytes;
        store.append_head().unwrap();
        assert_eq!(
            store.stats().appended_bytes,
            bytes,
            "seq 6 is claimed already"
        );
        write_log(&mut store, &mut log, &signing, 1).unwrap();
        let scan = scan_segments(&storage, Some(&signing.verifying_key())).unwrap();
        assert_eq!(scan.entries, log.entries(), "seq 7 chained from the head");

        reframe(&storage, "seg-000000", |payload, seq| {
            (seq == Some(5)).then(|| with_content(payload, b"forged"))
        });
        assert_eq!(
            scan_segments(&storage, Some(&signing.verifying_key())).unwrap_err(),
            StoreError::Tamper(TamperKind::BrokenHashChain {
                file: "seg-000000".into(),
                seq: 6,
            })
        );
    }

    #[test]
    fn reordered_entry_breaks_the_chain() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage, small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 3).unwrap();
        // An entry that skips a sequence number is rejected at append time.
        let bogus = LogEntry::chained(&log.last_hash(), 7, EntryKind::Meta, vec![]);
        assert!(matches!(store.append_entry(&bogus), Err(StoreError::Io(_))));
    }

    #[test]
    fn manifests_and_prunes_roundtrip() {
        let signing = key();
        let storage = SimStorage::new();
        let mut store = SegmentStore::create(storage.clone(), small_cfg()).unwrap();
        let mut log = TamperEvidentLog::new();
        write_log(&mut store, &mut log, &signing, 5).unwrap();
        let d1 = avm_crypto::sha256::sha256(b"manifest-1");
        let d2 = avm_crypto::sha256::sha256(b"manifest-2");
        store.append_manifest(1, d1).unwrap();
        store.append_manifest(2, d2).unwrap();
        store.append_prune(2, d2).unwrap();
        let scan = scan_segments(&storage, Some(&signing.verifying_key())).unwrap();
        assert_eq!(scan.manifests, vec![(1, d1), (2, d2)]);
        assert_eq!(scan.prunes, vec![(2, d2)]);
    }

    #[test]
    fn sync_policies_price_differently() {
        let signing = key();
        let mut totals = Vec::new();
        for policy in [
            SyncPolicy::PerEntry,
            SyncPolicy::PerBatch,
            SyncPolicy::PerSeal,
        ] {
            let cfg = SegmentConfig {
                sync_policy: policy,
                ..small_cfg()
            };
            let mut store = SegmentStore::create(SimStorage::new(), cfg).unwrap();
            let mut log = TamperEvidentLog::new();
            write_log(&mut store, &mut log, &signing, 20).unwrap();
            store.flush_batch().unwrap();
            totals.push(store.stats());
        }
        // Per-entry syncs strictly more often (and at higher modelled cost)
        // than per-batch, which syncs at least as often as per-seal.
        assert!(totals[0].syncs > totals[2].syncs);
        assert!(totals[0].modelled_sync_micros > totals[2].modelled_sync_micros);
        assert_eq!(
            totals[0].appended_bytes, totals[2].appended_bytes,
            "policy must not change what is written"
        );
    }
}

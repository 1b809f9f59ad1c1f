//! Every single-byte change to a checkpointed record of the segment files is
//! refused at recovery.
//!
//! A stored entry is its record `t_i ‖ c_i`: its seq is its position after
//! the file's HEADER, and its hash is derived from the checkpoints around it
//! — the HEADER anchors, the signed SEALs and the unsigned HEAD that ends
//! every batch of appends ([`avm_store::segment`]).  The untrusted host's
//! disk holds nothing else an entry's hash could be checked against, so
//! every field of it is driven here: each byte of every HEADER, ENTRY, SEAL
//! and HEAD record of a sealed and flushed store is changed — one bit, all
//! bits, and every other value of the two leading bytes that say what a
//! record is — and re-framed with a valid CRC.  Each change is
//! `StoreError::Tamper` at recovery, never a recovered log whose hashes
//! differ.  A crash, by contrast, only cuts the final file's last frame,
//! and a cut anywhere inside it is a silent torn tail.

use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_crypto::sha256::sha256;
use avm_log::{Authenticator, EntryKind, LogEntry, TamperEvidentLog};
use avm_store::{
    scan_segments, FsyncModel, SegmentConfig, SegmentStore, SimStorage, Storage, StoreError,
    SyncPolicy,
};
use avm_wire::{read_frame, write_frame};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg() -> SegmentConfig {
    SegmentConfig {
        max_segment_bytes: 512,
        seal_every_entries: 4,
        sync_policy: SyncPolicy::PerBatch,
        fsync_model: FsyncModel::DISK_2010,
    }
}

fn key() -> SigningKey {
    SigningKey::generate(&mut StdRng::seed_from_u64(9), SignatureScheme::Rsa(512))
}

/// Appends `n` entries as one batch — a seal wherever the store asks for
/// one — and ends it with a HEAD, as a provider's flush does.
fn batch(
    store: &mut SegmentStore<SimStorage>,
    log: &mut TamperEvidentLog,
    signing: &SigningKey,
    n: usize,
) {
    for _ in 0..n {
        let prev = log.last_hash();
        let i = log.len();
        let kind = [EntryKind::Send, EntryKind::Recv, EntryKind::NdEvent][i % 3];
        let entry = log.append(kind, format!("entry-{i}").into_bytes()).clone();
        store.append_entry(&entry).unwrap();
        if store.needs_seal() {
            store
                .seal(&Authenticator::create(signing, &entry, prev))
                .unwrap();
        }
    }
    store.append_head().unwrap();
    store.flush_batch().unwrap();
}

/// A sealed and flushed store over three or more files, with manifest and
/// prune records among its entries, and the log it holds.
fn store() -> (SimStorage, TamperEvidentLog, SigningKey) {
    let signing = key();
    let storage = SimStorage::new();
    let mut store = SegmentStore::create(storage.clone(), cfg()).unwrap();
    let mut log = TamperEvidentLog::new();
    for (i, n) in [1, 2, 3, 1, 4, 2, 3, 3, 2].into_iter().enumerate() {
        batch(&mut store, &mut log, &signing, n);
        if i == 3 {
            store.append_manifest(1, sha256(b"manifest")).unwrap();
            store.append_prune(1, sha256(b"manifest")).unwrap();
        }
    }
    assert!(store.segment_files() >= 3);
    (storage, log, signing)
}

fn files(storage: &SimStorage) -> Vec<String> {
    let mut names = storage.list().unwrap();
    names.sort();
    names
}

/// Every frame of `data`: (start offset, payload range, total length).
fn frames(data: &[u8]) -> Vec<(usize, std::ops::Range<usize>, usize)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < data.len() {
        let (payload, consumed) = read_frame(&data[off..]).unwrap();
        let header = consumed - payload.len() - 4;
        out.push((off, off + header..off + header + payload.len(), consumed));
        off += consumed;
    }
    out
}

/// What a record is, by its two leading bytes.
fn record_kind(payload: &[u8]) -> &'static str {
    match (payload[0], payload[1]) {
        (0, 0) => "HEADER",
        (0, 1) => "SEAL",
        (0, 2) => "MANIFEST",
        (0, 3) => "PRUNE",
        (0, 4) => "HEAD",
        (0, _) => unreachable!("no such record"),
        _ => "ENTRY",
    }
}

/// A copy of `storage` with `file` replaced by `data`.
fn with_file(storage: &SimStorage, file: &str, data: &[u8]) -> SimStorage {
    let mut copy = storage.reboot();
    copy.remove(file).unwrap();
    copy.append(file, data).unwrap();
    copy
}

#[test]
fn the_honest_store_recovers_its_log_and_holds_every_record() {
    let (storage, log, signing) = store();
    let scan = scan_segments(&storage, Some(&signing.verifying_key())).unwrap();
    assert_eq!(scan.entries, log.entries());
    assert_eq!(scan.torn_bytes, 0);
    let mut kinds: Vec<&str> = Vec::new();
    let mut entry_records: Vec<Vec<u8>> = Vec::new();
    for file in files(&storage) {
        let data = storage.read(&file).unwrap();
        for (_, payload, _) in frames(&data) {
            let kind = record_kind(&data[payload.clone()]);
            if kind == "ENTRY" {
                entry_records.push(data[payload].to_vec());
            }
            kinds.push(kind);
        }
    }
    for kind in ["HEADER", "ENTRY", "SEAL", "HEAD", "MANIFEST", "PRUNE"] {
        assert!(kinds.contains(&kind), "no {kind} record");
    }
    assert_eq!(kinds.last(), Some(&"HEAD"), "the store ends flushed");
    // An entry's record is all the files hold of it.
    let records: Vec<Vec<u8>> = log
        .entries()
        .iter()
        .map(|e| {
            let mut w = avm_wire::Writer::new();
            e.encode_record(&mut w);
            assert_eq!(w.len(), e.stored_size());
            w.into_bytes()
        })
        .collect();
    assert_eq!(entry_records, records);
}

#[test]
fn every_single_byte_change_to_a_checkpointed_record_is_tamper() {
    let (storage, log, signing) = store();
    let verifier = signing.verifying_key();
    let mut checked = 0usize;
    for file in files(&storage) {
        let data = storage.read(&file).unwrap();
        for (start, payload_at, total) in frames(&data) {
            let payload = &data[payload_at.clone()];
            let kind = record_kind(payload);
            if matches!(kind, "MANIFEST" | "PRUNE") {
                continue;
            }
            for at in 0..payload.len() {
                let mut values = vec![payload[at] ^ (1 << (at % 8)), payload[at] ^ 0xff];
                if at < 2 {
                    values = (0..=255u8).filter(|&v| v != payload[at]).collect();
                }
                for value in values {
                    let mut changed = payload.to_vec();
                    changed[at] = value;
                    let mut bytes = data[..start].to_vec();
                    write_frame(&mut bytes, &changed);
                    bytes.extend_from_slice(&data[start + total..]);
                    let copy = with_file(&storage, &file, &bytes);
                    match SegmentStore::recover(copy, cfg(), Some(&verifier)) {
                        Err(StoreError::Tamper(_)) => {}
                        Err(other) => panic!("{file} {kind} byte {at} = {value:#x}: {other}"),
                        Ok((_, scan)) => panic!(
                            "{file} {kind} byte {at} = {value:#x} recovered {} entries \
                             (log: {}), same hashes: {}",
                            scan.entries.len(),
                            log.len(),
                            scan.entries == log.entries()
                        ),
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 2_000, "{checked} changes");
}

/// `storage` with one more entry appended after its last HEAD, as a crash
/// between an entry and its batch's HEAD leaves it, and that log.
fn cut_short(storage: &SimStorage, log: &TamperEvidentLog) -> (SimStorage, TamperEvidentLog) {
    let copy = storage.reboot();
    let (mut store, _) = SegmentStore::recover(copy.clone(), cfg(), None).unwrap();
    let mut log = log.clone();
    let entry: LogEntry = log.append(EntryKind::Recv, vec![5; 200]).clone();
    store.append_entry(&entry).unwrap();
    (copy, log)
}

#[test]
fn a_cut_inside_the_final_frame_is_a_silent_torn_tail() {
    let (storage, log, signing) = store();
    let verifier = signing.verifying_key();
    let (short, longer) = cut_short(&storage, &log);
    // The flushed store ends with a HEAD; a batch cut short, with an entry.
    for (storage, log, kept_entries) in [(&storage, &log, log.len()), (&short, &longer, log.len())]
    {
        let last = files(storage).pop().unwrap();
        let data = storage.read(&last).unwrap();
        let (start, _, total) = *frames(&data).last().unwrap();
        for keep in start + 1..start + total {
            let copy = with_file(storage, &last, &data[..keep]);
            let (mut store, scan) = SegmentStore::recover(copy.clone(), cfg(), Some(&verifier))
                .unwrap_or_else(|e| panic!("cut at {keep} of {last}: {e}"));
            assert_eq!(scan.torn_bytes, (keep - start) as u64);
            assert_eq!(scan.entries, log.entries()[..kept_entries]);
            // The truncated store resumes where the chain ends.
            let mut resumed = TamperEvidentLog::from_entries(scan.entries).unwrap();
            batch(&mut store, &mut resumed, &signing, 2);
            let rescan = scan_segments(&copy, Some(&verifier)).unwrap();
            assert_eq!(rescan.entries, resumed.entries());
            assert_eq!(rescan.torn_bytes, 0);
        }
    }
}

/// A crash tears only the last append, so a frame of the final file that
/// claims to run past its end while whole frames follow it had its length
/// rewritten: tamper, never a torn tail that drops what follows.
#[test]
fn a_rewritten_frame_length_is_tamper_not_a_torn_tail() {
    let (storage, _, signing) = store();
    let last = files(&storage).pop().unwrap();
    let data = storage.read(&last).unwrap();
    let frames = frames(&data);
    for &(start, ref payload, _) in &frames[..frames.len() - 1] {
        let mut bytes = data[..start + 1].to_vec();
        avm_wire::varint::write_varint(&mut bytes, data.len() as u64);
        bytes.extend_from_slice(&data[payload.start..]);
        let copy = with_file(&storage, &last, &bytes);
        match SegmentStore::recover(copy, cfg(), Some(&signing.verifying_key())) {
            Err(StoreError::Tamper(_)) => {}
            Err(other) => panic!("frame at {start}: {other}"),
            Ok((_, scan)) => panic!("frame at {start}: torn tail of {} B", scan.torn_bytes),
        }
    }
}

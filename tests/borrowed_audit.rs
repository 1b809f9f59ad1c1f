//! A log segment audited where it landed agrees with the owned audit.
//!
//! `avm_core::audit::audit_log` is one implementation, instantiated over
//! [`LogEntryRef`]s decoded in place from the provider's bytes (what
//! `AuditClient::audit_log` runs on) and over owned [`LogEntry`]s (what
//! `Evidence::verify` and every `&[LogEntry]` caller pass).  A segment ships
//! a hash only at its checkpoints ([`avm_log::wire`]); the owned segment is
//! the one an auditor keeps — every entry with the hash the chain check gave
//! it, so every entry claims one.  These tests take the *encoded* segment of
//! an honest recording — its first seq and its run of records, no record
//! carrying a seq — damage it one field at a time, and require the two
//! instantiations to return the same [`AuditReport`] — verdict, fault, counts
//! and, on failure, evidence that is equal and that a third party can
//! verify — or the decoder to refuse the bytes with the reference's error.
//!
//! `LogEntry`'s `Decode` is its seq, the in-place record decode, its hash
//! and a copy, so the decoders are also pinned against [`segment_reference`]
//! and [`stored_reference`], the owned decodes as they were written before
//! there was a borrowed one.

use std::sync::OnceLock;

use avm_core::audit::{audit_log, AuditOutcome, AuditReport};
use avm_core::config::AvmmOptions;
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::FaultReason;
use avm_crypto::keys::{SignatureScheme, SigningKey, VerifyingKey};
use avm_crypto::sha256::Digest;
use avm_log::verify::chain_in_parts;
use avm_log::wire::{carries_hash, decode_entries, wire_entries};
use avm_log::{Authenticator, EntryKind, EntryView, LogEntry, LogEntryRef, TamperEvidentLog};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::varint::{varint_len, write_varint};
use avm_wire::{Decode, Encode, Reader, WireError, WireResult};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What an auditor holds before it asks for the log, and the log it is sent.
struct Recording {
    image: VmImage,
    key: VerifyingKey,
    authenticators: Vec<Authenticator>,
    /// The whole log as the machine stores it.
    entries: Vec<LogEntry>,
    /// The whole log as a provider serves it.
    segment: Shipped,
}

/// `entries`, a log from seq 1, as a segment response ships them.
fn shipped(entries: &[LogEntry]) -> Shipped {
    Shipped {
        first_seq: 1,
        records: wire_entries(entries).map(|e| e.encode_to_vec()).collect(),
    }
}

/// An echo guest recorded over three packets and one snapshot, with the
/// authenticators its peer collected — built once: RSA keygen is slow in
/// debug.
fn recording() -> &'static Recording {
    static RECORDING: OnceLock<Recording> = OnceLock::new();
    RECORDING.get_or_init(|| {
        let src = r"
                movi r1, 0x8000
                movi r2, 512
            loop:
                clock r4
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                send r1, r0
                jmp loop
            ";
        let image = VmImage::bytecode("echo", 128 * 1024, assemble(src, 0).unwrap(), 0, 0);
        let mut rng = StdRng::seed_from_u64(41);
        let bob_key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let alice_key = SigningKey::generate(&mut rng, SignatureScheme::Rsa(512));
        let key = bob_key.verifying_key();
        let mut bob = Avmm::new(
            "bob",
            &image,
            &GuestRegistry::new(),
            bob_key,
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
        )
        .unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let mut authenticators = Vec::new();
        let mut clock = HostClock::at(100);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..3u8 {
            clock.advance_to(clock.now() + 500);
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i as u64 + 1,
                encode_guest_packet("alice", &[b'p', i]),
                &alice_key,
                None,
            );
            let ack = bob.deliver(&env).unwrap().unwrap();
            authenticators.extend(ack.decode_ack().unwrap().authenticator);
            for out in bob.run_slice(&clock, 50_000).unwrap() {
                authenticators.extend(out.envelope.authenticator);
            }
            if i == 1 {
                bob.take_snapshot();
            }
        }
        let kinds: Vec<EntryKind> = bob.log().entries().iter().map(|e| e.kind).collect();
        for kind in [
            EntryKind::Meta,
            EntryKind::Recv,
            EntryKind::Send,
            EntryKind::NdEvent,
            EntryKind::Snapshot,
        ] {
            assert!(kinds.contains(&kind), "the recording has no {kind:?} entry");
        }
        assert!(!authenticators.is_empty());
        let entries = bob.log().entries().to_vec();
        // Long enough that some entries ship without their hash.
        assert!(entries.len() >= 16, "{} entries", entries.len());
        Recording {
            image,
            key,
            authenticators,
            segment: shipped(&entries),
            entries,
        }
    })
}

/// The seq, kind, content and claimed hash of one decoded entry.
type Fields = (u64, EntryKind, Vec<u8>, Option<Digest>);

/// One record `t_i ‖ c_i` read as the entry with seq `seq`, then its hash
/// if it `claims` one: the owned decode as it was written before there was
/// a borrowed one.
fn record_reference(r: &mut Reader<'_>, seq: u64, claims: bool) -> WireResult<Fields> {
    let tag = r.get_u8()?;
    let kind = EntryKind::from_tag(tag).ok_or(WireError::InvalidTag {
        what: "EntryKind",
        tag: tag as u64,
    })?;
    let content = r.get_bytes()?.to_vec();
    let claim = match claims {
        true => Some(Digest::from_slice(r.get_raw(32)?).ok_or(WireError::Corrupt("digest"))?),
        false => None,
    };
    Ok((seq, kind, content, claim))
}

fn exact<T>(bytes: &[u8], decode: impl FnOnce(&mut Reader<'_>) -> WireResult<T>) -> WireResult<T> {
    let mut r = Reader::new(bytes);
    let value = decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

/// A stored entry: its seq varint, its record and its hash.
fn stored_reference(bytes: &[u8]) -> WireResult<Fields> {
    exact(bytes, |r| {
        let seq = r.get_varint()?;
        record_reference(r, seq, true)
    })
}

/// A segment's `count` records from `first_seq`, one after another, each
/// claiming its hash where the checkpoints put one — the reference the
/// in-place decode is held to, error for error.
fn segment_reference(first_seq: u64, count: u64, records: &[u8]) -> WireResult<Vec<Fields>> {
    if count > records.len() as u64 / 2 {
        return Err(WireError::LengthOverflow {
            declared: count,
            max: records.len() as u64 / 2,
        });
    }
    exact(records, |r| {
        (0..count)
            .map(|i| {
                let seq = first_seq
                    .checked_add(i)
                    .ok_or(WireError::Corrupt("log segment seq past u64::MAX"))?;
                record_reference(r, seq, carries_hash(count as usize, i as usize))
            })
            .collect()
    })
}

fn fields(view: &LogEntryRef<'_>) -> Fields {
    (view.seq, view.kind, view.content.to_vec(), view.claim())
}

/// A segment as a provider ships it, kept one record per element so a test
/// can damage one: the first seq, and each entry's record with its hash at
/// a checkpoint.  On the wire the records are one run.
#[derive(Clone, PartialEq)]
struct Shipped {
    first_seq: u64,
    records: Vec<Vec<u8>>,
}

type Decoded<'a> = (Vec<LogEntryRef<'a>>, Vec<LogEntry>);

/// Decodes the segment `first_seq`, `count`, `run` in place and requires
/// what the reference decodes, or its error; `None` when it was refused.
/// The owned copy is the segment with the hashes its chain check gives it.
fn decode_both(
    first_seq: u64,
    count: u64,
    run: &[u8],
) -> Result<Option<Decoded<'_>>, TestCaseError> {
    let views = decode_entries(first_seq, count, run);
    prop_assert_eq!(
        &views
            .clone()
            .map(|views| views.iter().map(fields).collect()),
        &segment_reference(first_seq, count, run)
    );
    let Ok(views) = views else {
        return Ok(None);
    };
    let hashes = chain_in_parts(&Digest::ZERO, &views, 1).hashes;
    let owned = views
        .iter()
        .zip(hashes)
        .map(|(view, hash)| view.to_entry(hash))
        .collect();
    Ok(Some((views, owned)))
}

/// Audits `segment` decoded in place and decoded into owned entries, and
/// requires equal reports; a failing audit's evidence must be the owned
/// segment and must verify for a third party.  `None` when the bytes do not
/// decode (identically, see [`decode_both`]).
fn audit_both(
    segment: &Shipped,
    authenticators: &[Authenticator],
) -> Result<Option<AuditReport>, TestCaseError> {
    let rec = recording();
    let registry = GuestRegistry::new();
    let run = segment.records.concat();
    let count = segment.records.len() as u64;
    let Some((views, owned)) = decode_both(segment.first_seq, count, &run)? else {
        return Ok(None);
    };
    let (name, prev) = ("bob", Digest::ZERO);
    let borrowed = audit_log(
        name,
        &prev,
        &views,
        authenticators,
        &rec.key,
        &rec.image,
        &registry,
    );
    let reference = audit_log(
        name,
        &prev,
        &owned,
        authenticators,
        &rec.key,
        &rec.image,
        &registry,
    );
    // `outcome` (the fault and its evidence, or the replay summary),
    // `entries_examined` and `syntactic_ok` are all of a report.
    prop_assert_eq!(&borrowed, &reference);
    prop_assert_eq!(borrowed.entries_examined, count);
    if let AuditOutcome::Fail(evidence) = &borrowed.outcome {
        prop_assert_eq!(&evidence.segment, &owned);
        // An empty segment proves nothing to a third party, by design.
        prop_assert_eq!(
            evidence.verify(&rec.key, &rec.image, &registry),
            !owned.is_empty()
        );
    }
    Ok(Some(borrowed))
}

/// Where the fields of one record sit after its one-byte tag: `(content
/// length varint offset, its length, content offset, content length)`.
fn layout(record: &[u8], claims: bool) -> (usize, usize, usize, usize) {
    let (_, _, content, _) = exact(record, |r| record_reference(r, 0, claims))
        .expect("the recording's own records decode");
    let len_at = 1;
    let len_len = varint_len(content.len() as u64);
    (len_at, len_len, len_at + len_len, content.len())
}

/// Replaces `encoding[at..at + len]` with the varint of `value`.
fn splice_varint(encoding: &mut Vec<u8>, at: usize, len: usize, value: u64) {
    let mut varint = Vec::new();
    write_varint(&mut varint, value);
    encoding.splice(at..at + len, varint);
}

/// One single-field mutation of the shipped segment; `pick` selects the
/// byte, bit or value within the field.  Returns whether the mutation must
/// turn a passing audit into a failing one whenever the bytes still decode.
/// A record dropped, duplicated or swapped is hashed under the seq of the
/// place it landed in, so the chain breaks at the next checkpoint.
fn mutate(segment: &mut Shipped, which: u8, index: usize, pick: u64) -> bool {
    let records = &mut segment.records;
    let len = records.len();
    let index = index % len;
    let claims = carries_hash(len, index);
    let (len_at, len_len, content_at, content_len) = layout(&records[index], claims);
    let record = &mut records[index];
    match which {
        // the first seq: another value, any width.
        0 => {
            let old = segment.first_seq;
            segment.first_seq = if pick.is_multiple_of(4) {
                pick
            } else {
                old ^ (1 + pick % 64)
            };
            segment.first_seq != old
        }
        // kind tag: any byte, valid or not.
        1 => {
            let old = record[0];
            record[0] = pick as u8;
            pick as u8 != old
        }
        // one content bit.
        2 if content_len > 0 => {
            record[content_at + pick as usize % content_len] ^= 1 << (pick % 8);
            true
        }
        // one bit of a claimed hash: this entry's, or the next checkpoint's.
        3 => {
            let at = (index..len).find(|&i| carries_hash(len, i)).unwrap();
            let claim = &mut records[at];
            let hash_at = claim.len() - 32;
            claim[hash_at + pick as usize % 32] ^= 1 << (pick % 8);
            true
        }
        // content-length varint: the content now overruns or underruns.
        4 => {
            let declared = if pick.is_multiple_of(2) {
                pick >> 8
            } else {
                pick % (2 * content_len as u64 + 2)
            };
            splice_varint(record, len_at, len_len, declared);
            false
        }
        // a record dropped (a dropped last record leaves an honest prefix).
        5 => {
            records.remove(index);
            false
        }
        // a record duplicated.
        6 => {
            let copy = records[index].clone();
            records.insert(index, copy);
            true
        }
        // two neighbours swapped.
        7 if records.len() > 1 => {
            let index = index % (records.len() - 1);
            records.swap(index, index + 1);
            true
        }
        // the tail of the last record cut off.
        8 => {
            let last = records.last_mut().unwrap();
            let cut = 1 + pick as usize % last.len();
            last.truncate(last.len() - cut);
            false
        }
        _ => false,
    }
}

/// The recording with the content of entry `index` changed by `edit` and the
/// hash chain rebuilt over it: well-formed to the chain check, so the fault
/// — if the edit caused one — is for the content checks or replay to find.
fn rechained(index: usize, edit: impl Fn(&mut Vec<u8>)) -> Shipped {
    let mut log = TamperEvidentLog::new();
    for (i, entry) in recording().entries.iter().enumerate() {
        let mut content = entry.content.clone();
        if i == index {
            edit(&mut content);
        }
        log.append(entry.kind, content);
    }
    shipped(log.entries())
}

#[test]
fn honest_recording_passes_both_ways() {
    let rec = recording();
    let report = audit_both(&rec.segment, &rec.authenticators)
        .unwrap()
        .expect("the recording decodes");
    assert!(report.passed(), "{:?}", report.fault());
    assert!(report.syntactic_ok);
    // An empty segment is refused the same way by both.
    let report = audit_both(&shipped(&[]), &[]).unwrap().unwrap();
    assert_eq!(
        report.fault(),
        Some(&FaultReason::SyntacticFailure(
            "empty log segment".to_string()
        ))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every single-field mutation of the encoded segment: equal reports, or
    /// equal decode errors.
    #[test]
    fn mutated_segment_is_judged_the_same_borrowed_and_owned(
        which in 0u8..9,
        index in any::<usize>(),
        pick in any::<u64>(),
    ) {
        let rec = recording();
        let mut segment = rec.segment.clone();
        let must_fail = mutate(&mut segment, which, index, pick);
        if let Some(report) = audit_both(&segment, &rec.authenticators)? {
            prop_assert!(!(must_fail && report.passed()), "mutation {which} went unnoticed");
            // A segment that differs from the recording fails syntactically:
            // no single-field mutation keeps the chain intact.
            prop_assert!(report.passed() || !report.syntactic_ok || segment == rec.segment);
        }
    }

    /// Content edits under a rebuilt chain reach the content checks and the
    /// replayer: the same fault, at the same entry, with the same detail.
    #[test]
    fn rechained_content_edit_is_judged_the_same_borrowed_and_owned(
        index in any::<usize>(),
        how in 0u8..8,
        pick in any::<u64>(),
    ) {
        let index = index % recording().entries.len();
        // Mostly bit flips: a record that still decodes is what reaches the
        // cross-reference check and the replayer.
        let segment = rechained(index, |content| match how {
            0 => content.truncate(pick as usize % (content.len() + 1)),
            1 => content.push(pick as u8),
            2 => content.clear(),
            _ if !content.is_empty() => {
                let at = pick as usize % content.len();
                content[at] ^= 1 << (pick % 8);
            }
            _ => {}
        });
        // Authenticators commit to the original chain; the rebuilt one is
        // audited without them, as a machine that rewrote its log would
        // hope to be.
        let report = audit_both(&segment, &[])?.expect("re-encoded entries decode");
        prop_assert!(report.passed() || report.fault().is_some());
    }

    /// `LogEntryRef::decode_record` never panics, allocates nothing — the
    /// content and claimed hash it hands out are bytes of the input — and
    /// accepts, refuses and consumes exactly as the reference owned decode
    /// does: a stored entry, and a one-entry segment (whose entry claims
    /// its hash) from any first seq.
    #[test]
    fn decode_in_place_matches_the_owned_decode_on_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..80),
        from_recording in 0u8..3,
        index in any::<usize>(),
        which_seq in 0u8..3,
        any_seq in any::<u64>(),
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        cut in proptest::option::of(any::<usize>()),
    ) {
        fn is_copy<T: Copy>() {}
        is_copy::<LogEntryRef<'static>>();

        let first_seq = [1, u64::MAX, any_seq][which_seq as usize];
        let rec = recording();
        let entry = &rec.entries[index % rec.entries.len()];
        let mut bytes = match from_recording {
            0 => noise,
            1 => entry.encode_to_vec(),
            _ => wire_entries(std::slice::from_ref(entry)).next().unwrap().encode_to_vec(),
        };
        for (at, byte) in damage {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        prop_assert_eq!(
            &LogEntry::decode_exact(&bytes).map(|e| (e.seq, e.kind, e.content, Some(e.hash))),
            &stored_reference(&bytes)
        );
        let one = decode_entries(first_seq, 1, &bytes).map(|views| views[0]);
        let reference = segment_reference(first_seq, 1, &bytes).map(|mut all| all.remove(0));
        prop_assert_eq!(&one.clone().map(|e| fields(&e)), &reference);
        if let Ok(view) = one {
            let input = bytes.as_ptr_range();
            prop_assert!(view.content.is_empty() || input.contains(&view.content.as_ptr()));
            let claim = view.claim.expect("a segment's last entry claims its hash");
            prop_assert!(input.contains(&claim.as_ptr()));
            let stored = view.to_entry(Digest(*claim)).encode_to_vec();
            prop_assert_eq!(&stored[varint_len(first_seq)..], &bytes[..]);
        }
        // The streaming form stops where the record ends.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xa5; 3]);
        let mut r = Reader::new(&padded);
        if let Ok(view) = LogEntryRef::decode_record(&mut r, first_seq) {
            let stored = view.to_entry(Digest::ZERO).encoded_len();
            prop_assert_eq!(r.position() + varint_len(first_seq) + 32, stored);
        }
    }
}

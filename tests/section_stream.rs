//! A hostile section stream is refused, never installed.
//!
//! `SnapshotStore::materialize` builds a snapshot's state from the
//! whole-section stream through `avm_core::snapshot::install_sections`, the
//! stream's one reader (no auditor asks for the stream: a full-download spot
//! check fetches the manifest and the blobs the image lacks).  These tests
//! take the honest stream of every snapshot in a recording, damage it one way
//! at a time — truncated, a section count or a state length inflated to
//! `u32::MAX`, the wrong final snapshot, an index outside its store, bytes
//! after the end — and require the reader to end in `CoreError::Snapshot`.

use std::sync::OnceLock;

use avm_core::config::AvmmOptions;
use avm_core::envelope::{Envelope, EnvelopeKind};
use avm_core::recorder::{Avmm, HostClock};
use avm_core::snapshot::{install_sections, SnapshotStore};
use avm_core::CoreError;
use avm_crypto::keys::{SignatureScheme, SigningKey};
use avm_vm::bytecode::assemble;
use avm_vm::packet::encode_guest_packet;
use avm_vm::{GuestRegistry, VmImage, CHUNK_SIZE, PAGE_SIZE};
use proptest::prelude::*;

/// Snapshots in the recording.
const SNAPSHOTS: u64 = 4;

/// What a recording left: the image and the snapshot store.
struct Recording {
    image: VmImage,
    store: SnapshotStore,
}

/// A guest that adds each packet into a memory cell and writes the cell to
/// disk, recorded with a snapshot after every packet (incremental, so every
/// header carries memory and disk items).  Unsigned, so it builds fast.
fn recording() -> &'static Recording {
    static RECORDING: OnceLock<Recording> = OnceLock::new();
    RECORDING.get_or_init(|| {
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
        let image = VmImage::bytecode("worker", 128 * 1024, assemble(src, 0).unwrap(), 0, 0)
            .with_disk(vec![0u8; 2 * PAGE_SIZE]);
        let options = AvmmOptions::default()
            .with_scheme(SignatureScheme::Null)
            .with_incremental_snapshots();
        let mut bob = Avmm::new(
            "bob",
            &image,
            &GuestRegistry::new(),
            SigningKey::Null,
            options,
        )
        .unwrap();
        bob.add_peer("alice", SigningKey::Null.verifying_key());
        let mut clock = HostClock::at(10);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..SNAPSHOTS {
            clock.advance_to(clock.now() + 1_000);
            let payload = encode_guest_packet("alice", format!("work-{i}").as_bytes());
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i + 1,
                payload,
                &SigningKey::Null,
                None,
            );
            bob.deliver(&env).unwrap();
            bob.run_slice(&clock, 100_000).unwrap();
            bob.take_snapshot();
        }
        Recording {
            image,
            store: bob.snapshots().clone(),
        }
    })
}

/// Where things sit in an honest stream: per header its offset, its two
/// counts and the offset of its first item; then the trailer's offset.
struct Layout {
    headers: Vec<(usize, [u32; 2], usize)>,
    trailer: usize,
}

/// Walks an honest stream by its documented layout (a test-side reference,
/// trusting every number, so only ever run on the store's own output).
fn layout(stream: &[u8], headers: usize) -> Layout {
    let u32_at = |at: usize| u32::from_le_bytes(stream[at..at + 4].try_into().unwrap());
    let mut at = 0;
    let mut out = Vec::new();
    for _ in 0..headers {
        let counts = [u32_at(at + 50), u32_at(at + 54)];
        let items = at + 58;
        out.push((at, counts, items));
        at = items + counts[0] as usize * (4 + CHUNK_SIZE) + counts[1] as usize * (4 + CHUNK_SIZE);
    }
    Layout {
        headers: out,
        trailer: at,
    }
}

fn refused<T>(result: Result<T, CoreError>) -> Result<(), TestCaseError> {
    match result {
        Err(CoreError::Snapshot(_)) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!(
            "expected a snapshot error, got {other}"
        ))),
        Ok(_) => Err(TestCaseError::fail("a damaged stream was accepted")),
    }
}

#[test]
fn honest_streams_install_and_pass() {
    let fx = recording();
    let registry = GuestRegistry::new();
    for id in 0..SNAPSHOTS {
        let stream = fx.store.transfer_stream_upto(id);
        let (machine, _) = install_sections(&stream, id, &fx.image, &registry).unwrap();
        let reference = fx.store.materialize(id, &fx.image, &registry).unwrap();
        assert_eq!(machine.state_digest(), reference.state_digest());
        let layout = layout(&stream, id as usize + 1);
        assert!(layout
            .headers
            .iter()
            .all(|(_, [mem, disk], _)| mem + disk > 0));
        assert!(layout.trailer < stream.len());
        assert_eq!(stream.len() as u64, fx.store.transfer_bytes_upto(id));
    }
}

/// A provider that answers `Sections { upto_id: n }` with its own honest
/// stream for `n - 1` is refused: the stream ends one snapshot early.
#[test]
fn stream_for_the_previous_snapshot_is_refused() {
    let fx = recording();
    let registry = GuestRegistry::new();
    let stream = fx.store.transfer_stream_upto(1);
    let error = install_sections(&stream, 2, &fx.image, &registry).unwrap_err();
    assert!(
        error
            .to_string()
            .starts_with("snapshot error: section stream: "),
        "{error}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every damaged stream is a `CoreError::Snapshot` from the reader — no
    /// panic, no machine.
    ///
    /// `kind` picks the damage: 0 truncates, 1 inflates a section count,
    /// 2 inflates a state length, 3 serves another snapshot's stream,
    /// 4 rewrites the last header's id, 5 points an item outside its store,
    /// 6 appends bytes.
    #[test]
    fn hostile_section_stream_is_refused(
        id in 0..SNAPSHOTS,
        kind in 0u8..7,
        pick in any::<u32>(),
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let fx = recording();
        let registry = GuestRegistry::new();
        let mut stream = fx.store.transfer_stream_upto(id);
        let layout = layout(&stream, id as usize + 1);
        let header = layout.headers[pick as usize % layout.headers.len()];
        let put = |stream: &mut Vec<u8>, at: usize, value: u32| {
            stream[at..at + 4].copy_from_slice(&value.to_le_bytes());
        };
        match kind {
            0 => stream.truncate(pick as usize % stream.len()),
            1 => put(&mut stream, header.0 + 50 + 4 * (pick as usize % 2), u32::MAX),
            2 => {
                let cpu_len = u32::from_le_bytes(
                    stream[layout.trailer..layout.trailer + 4].try_into().unwrap(),
                );
                let dev_len_at = layout.trailer + 4 + cpu_len as usize;
                put(&mut stream, [layout.trailer, dev_len_at][pick as usize % 2], u32::MAX);
            }
            3 => {
                let other = (id + 1 + u64::from(pick) % (SNAPSHOTS - 1)) % SNAPSHOTS;
                prop_assert_ne!(other, id);
                stream = fx.store.transfer_stream_upto(other);
            }
            4 => {
                let at = layout.headers.last().unwrap().0;
                let wrong = id ^ (1 + u64::from(pick));
                stream[at..at + 8].copy_from_slice(&wrong.to_le_bytes());
            }
            5 => {
                let (_, counts, items) = *layout
                    .headers
                    .iter()
                    .find(|(_, [mem, _], _)| *mem > 0)
                    .expect("a header with memory items");
                prop_assert!(counts[0] > 0);
                let chunks = fx.image.baseline().chunk_hashes().len() as u32;
                put(&mut stream, items, chunks.saturating_add(pick % 1024));
            }
            _ => stream.extend_from_slice(&extra),
        }
        refused(install_sections(&stream, id, &fx.image, &registry))?;
    }
}

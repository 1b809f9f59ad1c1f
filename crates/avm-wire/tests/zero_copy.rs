//! Property battery for the zero-copy wire path.
//!
//! The borrowed-slice decoders ([`AuditResponseRef`], [`BlobResponseRef`])
//! and the multi-part frame writer ([`write_frame_parts`]) exist purely as
//! allocation-avoiding twins of the owned path — the bytes on the wire must
//! not change.  These properties pin that equivalence from both directions:
//! borrowed decode agrees with owned decode on arbitrary messages, and
//! re-sealing a decoded frame reproduces the original packet bit for bit.

use avm_wire::audit::{
    encode_log_segment, encode_sections_with, open_session_frame, open_session_message,
    seal_encoded_message, seal_session_message,
};
use avm_wire::{
    read_frame, write_frame, write_frame_parts, AuditResponse, AuditResponseRef, BlobRequest,
    BlobResponse, BlobResponseRef, Decode, Encode, Reader, Writer,
};
use proptest::prelude::*;

/// Payload lengths on both sides of every varint length-prefix boundary.
const BOUNDARY_LENS: [usize; 8] = [0, 1, 127, 128, 129, 16_383, 16_384, 16_385];

/// A byte string of a boundary length or a short arbitrary one.
fn boundary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0usize..BOUNDARY_LENS.len(), any::<u8>())
            .prop_map(|(i, fill)| vec![fill; BOUNDARY_LENS[i]]),
        proptest::collection::vec(any::<u8>(), 0..200),
    ]
}

/// A record whose encoding is its bytes, as a wire entry's is its fields:
/// stands in for the type `avm-log` defines above this crate.
struct Raw<'a>(&'a [u8]);

impl Encode for Raw<'_> {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self.0);
    }
}

/// Arbitrary audit responses covering every variant, including empty and
/// `None` payloads.
fn audit_response_strategy() -> impl Strategy<Value = AuditResponse> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..200);
    prop_oneof![
        bytes().prop_map(|manifest| AuditResponse::Manifest { manifest }),
        proptest::collection::vec(proptest::option::of(bytes()), 0..6)
            .prop_map(|blobs| AuditResponse::Blobs(BlobResponse { blobs })),
        // Any count the run could hold: at least two bytes per record.
        (any::<[u8; 32]>(), any::<u64>(), any::<u64>(), bytes()).prop_map(
            |(prev_hash, first_seq, count, records)| AuditResponse::LogSegment {
                prev_hash,
                first_seq,
                count: count % (records.len() as u64 / 2 + 1),
                records,
            }
        ),
        bytes().prop_map(|stream| AuditResponse::Sections { stream }),
        proptest::collection::vec(any::<u8>(), 0..60).prop_map(|raw| AuditResponse::Error {
            // Project arbitrary bytes into printable ASCII so the message is
            // valid UTF-8 (the wire type is a string).
            message: raw.into_iter().map(|b| char::from(b'!' + b % 94)).collect(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Borrowed-slice decode equals owned decode for every response shape,
    /// and the borrowed value re-encodes to exactly the bytes it was decoded
    /// from.
    #[test]
    fn borrowed_audit_decode_matches_owned(response in audit_response_strategy()) {
        let encoded = response.encode_to_vec();
        let owned = AuditResponse::decode_exact(&encoded).unwrap();
        let borrowed = AuditResponseRef::decode_exact(&encoded).unwrap();
        prop_assert_eq!(&owned, &response);
        prop_assert_eq!(borrowed.to_owned(), response);
        prop_assert_eq!(borrowed.encode_to_vec(), encoded);
    }

    /// Blob responses: borrowed and owned decoders agree, payload accounting
    /// agrees, and the borrowed re-encode is byte-identical.
    #[test]
    fn borrowed_blob_decode_matches_owned(
        blobs in proptest::collection::vec(
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..300)),
            0..8,
        )
    ) {
        let response = BlobResponse { blobs };
        let encoded = response.encode_to_vec();
        let mut r = Reader::new(&encoded);
        let borrowed = BlobResponseRef::decode(&mut r).unwrap();
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(borrowed.payload_bytes(), response.payload_bytes());
        prop_assert_eq!(borrowed.to_owned(), response);
        prop_assert_eq!(borrowed.encode_to_vec(), encoded);
    }

    /// The arithmetic `encoded_len` overrides are the encoding's length, for
    /// counts and payload lengths on both sides of the varint boundaries.
    #[test]
    fn blob_message_encoded_len_is_the_encoding_s_length(
        digests in proptest::collection::vec(any::<[u8; 32]>(), 0..140),
        blobs in proptest::collection::vec(proptest::option::of(boundary_bytes()), 0..6),
        empties in 0usize..140,
    ) {
        let request = BlobRequest { digests };
        prop_assert_eq!(request.encoded_len(), request.encode_to_vec().len());
        // Few large payloads, then enough absent ones to push the count
        // past one varint byte.
        let mut blobs = blobs;
        blobs.extend(std::iter::repeat_n(None, empties));
        let response = BlobResponse { blobs };
        let encoded = response.encode_to_vec();
        prop_assert_eq!(response.encoded_len(), encoded.len());
        let mut r = Reader::new(&encoded);
        let borrowed = BlobResponseRef::decode(&mut r).unwrap();
        prop_assert_eq!(borrowed.encoded_len(), encoded.len());
    }

    /// The in-place segment writer over any record list is the owned
    /// `LogSegment` response holding their run, for counts, first seqs and
    /// run lengths on both sides of the varint boundaries.
    #[test]
    fn segment_writer_equals_the_owned_log_segment_encoding(
        prev_hash in any::<[u8; 32]>(),
        first_seq in any::<u64>(),
        records in proptest::collection::vec(boundary_bytes(), 0..6),
        padding in 0usize..140,
    ) {
        let mut records = records;
        records.extend((0..padding).map(|i| vec![i as u8; i % 3]));
        let owned = AuditResponse::LogSegment {
            prev_hash,
            first_seq,
            count: records.len() as u64,
            records: records.concat(),
        };
        let raw = records.iter().map(|record| Raw(record));
        prop_assert_eq!(encode_log_segment(&prev_hash, first_seq, raw), owned.encode_to_vec());
    }

    /// The fill-in-place sections writer is the owned `Sections` response.
    #[test]
    fn sections_writer_equals_the_owned_sections_encoding(stream in boundary_bytes()) {
        let written = encode_sections_with(stream.len(), |body| body.extend_from_slice(&stream));
        prop_assert_eq!(written, AuditResponse::Sections { stream }.encode_to_vec());
    }

    /// Sealing, peeking and re-sealing a session packet is lossless: the
    /// envelope ids survive, the body slice is the message encoding, and
    /// `seal_encoded_message` over the decoded body rebuilds the identical
    /// packet.
    #[test]
    fn reseal_reproduces_original_packet(
        session_id in any::<u64>(),
        request_id in any::<u64>(),
        response in audit_response_strategy(),
    ) {
        let packet = seal_session_message(session_id, request_id, &response);
        let (sid, rid, body) = open_session_frame(&packet).unwrap();
        prop_assert_eq!(sid, session_id);
        prop_assert_eq!(rid, request_id);
        prop_assert_eq!(body, &response.encode_to_vec()[..]);
        // Peek agrees with the full decode...
        let (sid2, rid2, decoded) =
            open_session_message::<AuditResponse>(&packet).unwrap();
        prop_assert_eq!((sid2, rid2), (sid, rid));
        prop_assert_eq!(&decoded, &response);
        // ...and a borrowed decode of the body re-seals bit-identically.
        let borrowed = AuditResponseRef::decode_exact(body).unwrap();
        let resealed = seal_encoded_message(sid, rid, &borrowed.encode_to_vec());
        prop_assert_eq!(resealed, packet);
    }

    /// The multi-part frame writer produces exactly the bytes of the
    /// single-buffer writer over the concatenated parts, for every split.
    #[test]
    fn frame_parts_equal_single_buffer_frame(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let mut bounds: Vec<usize> = cuts
            .into_iter()
            .map(|c| if payload.is_empty() { 0 } else { c % payload.len() })
            .collect();
        bounds.push(0);
        bounds.push(payload.len());
        bounds.sort_unstable();
        let parts: Vec<&[u8]> = bounds
            .windows(2)
            .map(|w| &payload[w[0]..w[1]])
            .collect();

        let mut whole = Vec::new();
        write_frame(&mut whole, &payload);
        let mut split = Vec::new();
        let written = write_frame_parts(&mut split, &parts);
        prop_assert_eq!(written, split.len());
        prop_assert_eq!(&split, &whole);
        let (decoded, consumed) = read_frame(&split).unwrap();
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(consumed, split.len());
    }
}

/// The same equality where the checksum's streamed path engages: parts
/// larger than one 3-stream super-block, split off-stride, beside short and
/// empty ones.
#[test]
fn frame_parts_with_a_part_above_a_super_block_equal_single_buffer_frame() {
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 131 + i / 97) as u8).collect();
    for cuts in [
        vec![0, 9_001, 9_004, 20_000],
        vec![0, 3, 3, 12_345, 20_000],
        vec![0, 20_000],
    ] {
        let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &payload[w[0]..w[1]]).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, &payload);
        let mut split = Vec::new();
        assert_eq!(write_frame_parts(&mut split, &parts), whole.len());
        assert_eq!(split, whole, "cuts {cuts:?}");
    }
}

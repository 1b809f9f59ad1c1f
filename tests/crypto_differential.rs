//! Differential battery pinning the raw-speed crypto floor to its references.
//!
//! Each optimised core introduced by the crypto-floor work has a slower,
//! independently-written counterpart that stays in the tree precisely so these
//! tests can compare them on arbitrary inputs:
//!
//! * multi-buffer SHA-256 (`sha256_multi`) vs. the scalar one-message path,
//! * the 64-bit-limb Montgomery context (`MontgomeryCtx64`) vs. schoolbook
//!   multiply + div-rem and the plain square-and-multiply `modpow_slow`,
//! * constant-time fixed-window table selection (`ct_select64`) vs. naive
//!   indexing,
//! * the RSA-CRT fast path vs. the non-CRT, non-Montgomery slow signer,
//! * signature verification through the Montgomery context a public key
//!   carries vs. `modpow_slow` on the bare `(n, e)`.
//!
//! A mismatch on any lane, limb width, or window index is a soundness bug in
//! the accountability chain — hashes and signatures are what auditors check —
//! so these run on every `cargo test`, plus in release mode in CI where the
//! vectorised code paths actually engage.

use avm_crypto::rsa::{RsaError, RsaKeyPair, RsaPublicKey};
use avm_crypto::sha256::{sha256, sha256_multi, sha256_multi_prefixed, Digest};
use avm_crypto::{ct_select64, BigUint, MontgomeryCtx64, VerifyingKey};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The SHA-256 padding boundaries: an empty message, 55 bytes (last block
/// with room for the length), 56 bytes (length spills into an extra block),
/// one full block, and one byte past it.
const SHA_BOUNDARY_LENS: [usize; 7] = [0, 1, 55, 56, 63, 64, 65];

#[test]
fn multi_buffer_sha256_matches_scalar_at_padding_boundaries() {
    // Every combination of boundary lengths across 1..=9 lanes, so each
    // group width (8-wide, 4-wide, scalar remainder) sees ragged tails.
    for lanes in 1..=9usize {
        let messages: Vec<Vec<u8>> = (0..lanes)
            .map(|i| {
                let len = SHA_BOUNDARY_LENS[i % SHA_BOUNDARY_LENS.len()];
                (0..len)
                    .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
                    .collect()
            })
            .collect();
        let views: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let multi = sha256_multi(&views);
        for (message, digest) in messages.iter().zip(&multi) {
            assert_eq!(
                *digest,
                sha256(message),
                "lane disagreed with scalar SHA-256"
            );
        }
    }
}

#[test]
fn empty_lane_list_is_empty() {
    assert!(sha256_multi(&[]).is_empty());
}

/// Builds an odd modulus of at least two bytes from arbitrary input bytes.
fn odd_modulus(bytes: &[u8]) -> BigUint {
    let mut raw = bytes.to_vec();
    if raw.len() < 2 {
        raw.resize(2, 0x5a);
    }
    raw[0] |= 0x80; // keep the declared width
    let last = raw.len() - 1;
    raw[last] |= 0x01; // Montgomery requires an odd modulus
    BigUint::from_be_bytes(&raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multi-buffer SHA-256 equals the scalar path for arbitrary lane counts
    /// and arbitrary (independently sized) message bodies.
    #[test]
    fn sha256_multi_matches_scalar(
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            0..12,
        )
    ) {
        let views: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let multi = sha256_multi(&views);
        prop_assert_eq!(multi.len(), messages.len());
        for (message, digest) in messages.iter().zip(&multi) {
            prop_assert_eq!(*digest, sha256(message));
        }
    }

    /// The shared-prefix variant equals hashing prefix ‖ body per lane.
    #[test]
    fn sha256_multi_prefixed_matches_concatenation(
        prefix in proptest::collection::vec(any::<u8>(), 0..100),
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..150),
            1..6,
        )
    ) {
        let views: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
        let multi = sha256_multi_prefixed(&prefix, &views);
        for (body, digest) in bodies.iter().zip(&multi) {
            let mut whole = prefix.clone();
            whole.extend_from_slice(body);
            prop_assert_eq!(*digest, sha256(&whole));
        }
    }

    /// 64-bit Montgomery multiplication and squaring agree with schoolbook
    /// mul + div-rem, over random odd moduli of odd and even limb counts (the
    /// 64-bit context packs 32-bit limb pairs, so odd counts exercise the
    /// half-filled top limb).
    #[test]
    fn montgomery64_mulmod_matches_reference(
        modulus_bytes in proptest::collection::vec(any::<u8>(), 2..48),
        a_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let n = odd_modulus(&modulus_bytes);
        let ctx64 = MontgomeryCtx64::new(&n).expect("odd modulus");
        let a = BigUint::from_be_bytes(&a_bytes).rem(&n);
        let b = BigUint::from_be_bytes(&b_bytes).rem(&n);
        prop_assert_eq!(ctx64.mulmod(&a, &b), a.mulmod(&b, &n));
        prop_assert_eq!(ctx64.sqrmod(&a), a.mulmod(&a, &n));
        prop_assert_eq!(ctx64.sqrmod(&a), ctx64.mulmod(&a, &a));
    }

    /// Windowed 64-bit modpow — through the dispatching entry point and on
    /// the context directly — agrees with the binary square-and-multiply
    /// reference.
    #[test]
    fn montgomery64_modpow_matches_reference(
        modulus_bytes in proptest::collection::vec(any::<u8>(), 2..32),
        base_bytes in proptest::collection::vec(any::<u8>(), 0..32),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let n = odd_modulus(&modulus_bytes);
        let base = BigUint::from_be_bytes(&base_bytes).rem(&n);
        let exp = BigUint::from_be_bytes(&exp_bytes);
        let slow = base.modpow_slow(&exp, &n);
        prop_assert_eq!(&base.modpow(&exp, &n), &slow);
        let ctx64 = MontgomeryCtx64::new(&n).expect("odd modulus");
        prop_assert_eq!(&ctx64.modpow(&base, &exp), &slow);
    }

    /// Constant-time window selection returns exactly the naively indexed
    /// table entry for every in-range index.
    #[test]
    fn ct_select64_matches_naive_indexing(
        entries in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..8),
            1..33,
        ),
        index in any::<usize>(),
    ) {
        // All rows of a window table share one width; pad to the widest.
        let width = entries.iter().map(Vec::len).max().unwrap();
        let table: Vec<Vec<u64>> = entries
            .into_iter()
            .map(|mut row| { row.resize(width, 0); row })
            .collect();
        let index = index % table.len();
        prop_assert_eq!(ct_select64(&table, index), table[index].clone());
    }
}

/// End-to-end pin: the RSA-CRT signer riding 64-bit Montgomery produces the
/// same signatures as the non-CRT schoolbook signer, bit for bit.
#[test]
fn rsa_sign_fast_path_matches_slow() {
    let mut rng = StdRng::seed_from_u64(0xd1ff_c0de);
    let keys = RsaKeyPair::generate(&mut rng, 512);
    for round in 0u8..4 {
        let digest = sha256(&[round; 17]);
        assert_eq!(
            keys.sign_digest(&digest),
            keys.private.sign_digest_slow(&digest)
        );
    }
}

/// Verification restated from the definition, on the bare `(n, e)`: length
/// and range checks, schoolbook `s^e mod n`, and the PKCS#1 v1.5-style
/// encoding `00 01 FF.. 00 || digest` spelled out byte by byte.
fn reference_verify(key: &RsaPublicKey, digest: &Digest, signature: &[u8]) -> Result<(), RsaError> {
    let len = key.n().bit_len().div_ceil(8);
    if signature.len() != len {
        return Err(RsaError::MalformedSignature);
    }
    let s = BigUint::from_be_bytes(signature);
    if s >= *key.n() {
        return Err(RsaError::MalformedSignature);
    }
    let mut expected = vec![0xffu8; len];
    expected[0] = 0x00;
    expected[1] = 0x01;
    expected[len - 33] = 0x00;
    expected[len - 32..].copy_from_slice(digest.as_bytes());
    match s.modpow_slow(key.e(), key.n()).to_be_bytes_padded(len) {
        Some(em) if em == expected => Ok(()),
        _ => Err(RsaError::BadSignature),
    }
}

/// The context-carrying `verify_digest` returns exactly what the reference
/// returns — for honest signatures, bit-flipped ones, signatures over
/// another digest or under another key, wrong lengths and `s ≥ n` — and a
/// cloned or re-parsed key is the same key.
#[test]
fn rsa_verify_through_key_context_matches_slow_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0e1f);
    let stranger = RsaKeyPair::generate(&mut rng, 512);
    for bits in [512usize, 768, 1024] {
        let keys = RsaKeyPair::generate(&mut rng, bits);
        let public = keys.public();
        let len = public.modulus_len();
        let digest = sha256(&[bits as u8; 9]);
        let other_digest = sha256(b"another message");
        let honest = keys.sign_digest(&digest);

        let mut candidates = vec![
            honest.clone(),
            keys.sign_digest(&other_digest),
            vec![0u8; len],
            public.n().to_be_bytes_padded(len).unwrap(), // s = n
            vec![0xff; len],                             // s > n
            public
                .n()
                .sub(&BigUint::one())
                .to_be_bytes_padded(len)
                .unwrap(), // s = n - 1
            honest[..len - 1].to_vec(),
            [honest.as_slice(), &[0]].concat(),
            Vec::new(),
        ];
        if bits == 512 {
            candidates.push(stranger.sign_digest(&digest));
        }
        for bit in [0, 7, 8 * (len / 2), 8 * len - 9] {
            let mut flipped = honest.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            candidates.push(flipped);
        }

        let cloned = public.clone();
        let reparsed = match VerifyingKey::from_bytes(&VerifyingKey::Rsa(cloned.clone()).to_bytes())
        {
            Some(VerifyingKey::Rsa(key)) => key,
            other => panic!("{bits}-bit key did not round-trip: {other:?}"),
        };
        assert_eq!(&cloned, public);
        assert_eq!(&reparsed, public);

        assert_eq!(public.verify_digest(&digest, &honest), Ok(()));
        for candidate in &candidates {
            let expected = reference_verify(public, &digest, candidate);
            for key in [public, &cloned, &reparsed] {
                assert_eq!(
                    key.verify_digest(&digest, candidate),
                    expected,
                    "{bits}-bit key, {}-byte candidate",
                    candidate.len()
                );
            }
        }
        for malformed in [
            &candidates[3],
            &candidates[4],
            &candidates[6],
            &candidates[7],
        ] {
            assert_eq!(
                public.verify_digest(&digest, malformed),
                Err(RsaError::MalformedSignature)
            );
        }
    }
}

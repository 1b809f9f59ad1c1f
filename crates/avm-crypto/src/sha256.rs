//! SHA-256 implemented from the FIPS 180-4 specification.
//!
//! The AVM design assumes a pre-image-, second-pre-image- and
//! collision-resistant hash function (paper §4.1, assumption 2); SHA-256 is
//! the concrete instantiation used throughout this workspace for the log hash
//! chain, snapshot hash trees and signature padding.

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest, used as the hash-chain anchor `h_0 := 0` (paper §4.3).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Builds a digest from a byte slice of exactly [`DIGEST_LEN`] bytes.
    pub fn from_slice(bytes: &[u8]) -> Option<Digest> {
        if bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut arr = [0u8; DIGEST_LEN];
        arr.copy_from_slice(bytes);
        Some(Digest(arr))
    }

    /// Hex representation of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Short (8 hex character) prefix for human-readable identifiers.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl core::fmt::Debug for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest({})", self.short_hex())
    }
}

impl core::fmt::Display for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes SHA-256 over the concatenation of several byte slices.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.  Whole blocks are compressed where they
    /// lie in `data`; only a partial block is copied, into the buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                compress_block(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress_block(&mut self.state, block.try_into().expect("64-byte block"));
        }
        // Stash the remainder (when there is one, the buffer is empty).
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros until 8 bytes remain in a block, then the
        // message length in bits — one block, or two when fewer than 9 bytes
        // of the buffered block are free.
        let n = self.buffer_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        for block in tail[..end].chunks_exact(64) {
            compress_block(&mut self.state, block.try_into().expect("64-byte block"));
        }
        digest_from_state(&self.state)
    }
}

/// One FIPS 180-4 round: `s` is `[a, b, c, d, e, f, g, h]`.
#[inline(always)]
fn round(s: &mut [u32; 8], k: u32, w: u32) {
    let [a, b, c, d, e, f, g, h] = *s;
    let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
    let ch = (e & f) ^ ((!e) & g);
    let temp1 = h
        .wrapping_add(s1)
        .wrapping_add(ch)
        .wrapping_add(k)
        .wrapping_add(w);
    let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
    let maj = (a & b) ^ (a & c) ^ (b & c);
    let temp2 = s0.wrapping_add(maj);
    let (new_a, new_e) = (temp1.wrapping_add(temp2), d.wrapping_add(temp1));
    *s = [new_a, a, b, c, new_e, e, f, g];
}

/// One scalar FIPS 180-4 compression over a 64-byte block.  The message
/// schedule rolls through 16 words: `w[i % 16]` holds word `i` from the
/// moment it is computed until word `i + 16` replaces it.
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte word"));
    }
    let mut s = *state;
    for i in 0..16 {
        round(&mut s, K[i], w[i]);
    }
    for i in 16..64 {
        let (w15, w2) = (w[(i - 15) % 16], w[(i - 2) % 16]);
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        let wi = w[i % 16]
            .wrapping_add(s0)
            .wrapping_add(w[(i - 7) % 16])
            .wrapping_add(s1);
        w[i % 16] = wi;
        round(&mut s, K[i], wi);
    }
    for (word, sum) in state.iter_mut().zip(s) {
        *word = word.wrapping_add(sum);
    }
}

fn digest_from_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

// --- Multi-buffer (lane-parallel) hashing ---------------------------------
//
// The snapshot pipeline hashes thousands of small, independent messages
// (512 B chunk leaves, 65 B Merkle nodes). A scalar SHA-256 is latency-bound:
// every round depends on the previous one. Interleaving several independent
// messages through one pass of the message schedule turns that dependency
// chain into element-wise operations over `[u32; LANES]` arrays, which the
// compiler auto-vectorises (the workspace forbids `unsafe`, so there are no
// explicit SIMD intrinsics here) and which otherwise still fill the pipeline
// via instruction-level parallelism.

/// Number of interleaved messages in the wide path.
const LANES_WIDE: usize = 8;
/// Number of interleaved messages in the narrow (SSE-width) path.
const LANES_NARROW: usize = 4;

/// Total number of 64-byte blocks in the padded form of an `n`-byte message.
fn padded_blocks(n: usize) -> usize {
    // message + 0x80 + 8-byte length, rounded up to a whole block.
    n / 64 + if n % 64 < 56 { 1 } else { 2 }
}

/// Materialises block `blk` of the padded stream `prefix || msg || padding`.
fn padded_block(prefix: &[u8], msg: &[u8], blk: usize, total_blocks: usize) -> [u8; 64] {
    let n = prefix.len() + msg.len();
    let mut out = [0u8; 64];
    let start = blk * 64;
    if start < prefix.len() {
        let pend = prefix.len().min(start + 64);
        out[..pend - start].copy_from_slice(&prefix[start..pend]);
    }
    let mstart = start.max(prefix.len());
    if mstart < n && mstart < start + 64 {
        let mend = n.min(start + 64);
        out[mstart - start..mend - start]
            .copy_from_slice(&msg[mstart - prefix.len()..mend - prefix.len()]);
    }
    if (start..start + 64).contains(&n) {
        out[n - start] = 0x80;
    }
    if blk + 1 == total_blocks {
        let bits = (n as u64).wrapping_mul(8);
        out[56..].copy_from_slice(&bits.to_be_bytes());
    }
    out
}

/// One compression pass over `L` independent blocks through a shared message
/// schedule. `state[word][lane]` holds lane `lane`'s chaining value.
fn compress_lanes<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[[u8; 64]; L]) {
    let mut w = [[0u32; L]; 64];
    for t in 0..16 {
        for l in 0..L {
            let b = &blocks[l];
            w[t][l] = u32::from_be_bytes([b[t * 4], b[t * 4 + 1], b[t * 4 + 2], b[t * 4 + 3]]);
        }
    }
    for t in 16..64 {
        let mut wt = [0u32; L];
        for l in 0..L {
            let w15 = w[t - 15][l];
            let w2 = w[t - 2][l];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            wt[l] = w[t - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7][l])
                .wrapping_add(s1);
        }
        w[t] = wt;
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for l in 0..L {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ ((!e[l]) & g[l]);
            t1[l] = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t][l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        let mut e_next = [0u32; L];
        let mut a_next = [0u32; L];
        for l in 0..L {
            e_next[l] = d[l].wrapping_add(t1[l]);
            a_next[l] = t1[l].wrapping_add(t2[l]);
        }
        e = e_next;
        d = c;
        c = b;
        b = a;
        a = a_next;
    }
    let sums = [a, b, c, d, e, f, g, h];
    for (word, sum) in state.iter_mut().zip(sums.iter()) {
        for l in 0..L {
            word[l] = word[l].wrapping_add(sum[l]);
        }
    }
}

/// Hashes `L` messages (each `prefix || msgs[i]`) in lockstep. Lanes run the
/// multi-buffer core for as many blocks as the shortest lane has, then finish
/// ragged tails on the scalar core — for the uniform-length batches the
/// snapshot pipeline produces, everything stays in the wide path.
fn sha256_group<const L: usize>(prefix: &[u8], msgs: &[&[u8]; L]) -> [Digest; L] {
    let mut nblocks = [0usize; L];
    for l in 0..L {
        nblocks[l] = padded_blocks(prefix.len() + msgs[l].len());
    }
    let min_blocks = *nblocks.iter().min().expect("L > 0");
    let mut state = [[0u32; L]; 8];
    for (i, word) in state.iter_mut().enumerate() {
        *word = [H0[i]; L];
    }
    let mut blocks = [[0u8; 64]; L];
    for blk in 0..min_blocks {
        for l in 0..L {
            blocks[l] = padded_block(prefix, msgs[l], blk, nblocks[l]);
        }
        compress_lanes(&mut state, &blocks);
    }
    core::array::from_fn(|l| {
        let mut st: [u32; 8] = core::array::from_fn(|i| state[i][l]);
        for blk in min_blocks..nblocks[l] {
            let b = padded_block(prefix, msgs[l], blk, nblocks[l]);
            compress_block(&mut st, &b);
        }
        digest_from_state(&st)
    })
}

/// Hashes many independent messages with the multi-buffer core.
///
/// Bit-identical to `inputs.iter().map(|m| sha256(m))` — pinned by
/// `tests/crypto_differential.rs` — but compresses 8 (then 4) messages per
/// pass through a shared message schedule. This is the serial building block
/// under [`crate::parallel::sha256_batch`]; call that instead when batches
/// are large enough to also split across threads.
pub fn sha256_multi(inputs: &[&[u8]]) -> Vec<Digest> {
    sha256_multi_prefixed(&[], inputs)
}

/// Like [`sha256_multi`] but hashes `prefix || input` for every input without
/// materialising the concatenations (the Merkle layer's domain-separation
/// prefixes use this).
pub fn sha256_multi_prefixed(prefix: &[u8], inputs: &[&[u8]]) -> Vec<Digest> {
    let mut out = Vec::with_capacity(inputs.len());
    let mut rest = inputs;
    while rest.len() >= LANES_WIDE {
        let group: &[&[u8]; LANES_WIDE] = rest[..LANES_WIDE].try_into().expect("length checked");
        out.extend(sha256_group::<LANES_WIDE>(prefix, group));
        rest = &rest[LANES_WIDE..];
    }
    if rest.len() >= LANES_NARROW {
        let group: &[&[u8]; LANES_NARROW] =
            rest[..LANES_NARROW].try_into().expect("length checked");
        out.extend(sha256_group::<LANES_NARROW>(prefix, group));
        rest = &rest[LANES_NARROW..];
    }
    for msg in rest {
        out.push(sha256_concat(&[prefix, msg]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    #[test]
    fn fips_test_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn concat_helper() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"abc");
        assert_eq!(Digest::from_slice(d.as_bytes()), Some(d));
        assert_eq!(Digest::from_slice(&[0u8; 5]), None);
        assert_eq!(d.short_hex(), "ba7816bf");
        assert_eq!(format!("{d:?}"), "Digest(ba7816bf)");
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn multi_matches_scalar() {
        // Cover every lane-count path: wide (8), narrow (4), scalar remainder,
        // and mixes; include padding-boundary lengths and ragged groups.
        let lengths = [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 512, 513];
        let msgs: Vec<Vec<u8>> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        for count in 0..=msgs.len() {
            let slices: Vec<&[u8]> = msgs[..count].iter().map(|m| m.as_slice()).collect();
            let got = sha256_multi(&slices);
            let want: Vec<Digest> = slices.iter().map(|m| sha256(m)).collect();
            assert_eq!(got, want, "count {count}");
        }
    }

    #[test]
    fn multi_prefixed_matches_concat() {
        let msgs: Vec<Vec<u8>> = (0..9).map(|i| vec![i as u8; i * 17]).collect();
        let slices: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for prefix in [
            &b""[..],
            &b"\x00"[..],
            &b"\x01"[..],
            &b"long-prefix-over-a-block-boundary-long-prefix-over-a-block-boundary"[..],
        ] {
            let got = sha256_multi_prefixed(prefix, &slices);
            let want: Vec<Digest> = slices.iter().map(|m| sha256_concat(&[prefix, m])).collect();
            assert_eq!(got, want, "prefix len {}", prefix.len());
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the block size exercise the padding logic.
        for len in [55usize, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), sha256(&data), "length {len}");
        }
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;

    // Not a correctness test: quick local probe for the multi-buffer speedup.
    // Run with `cargo test --release -p avm-crypto sha256_multi_speedup -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn sha256_multi_speedup() {
        let msgs: Vec<Vec<u8>> = (0..4096).map(|i| vec![(i % 251) as u8; 512]).collect();
        let slices: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let t0 = std::time::Instant::now();
        let mut scalar = Vec::new();
        for _ in 0..8 {
            scalar = slices.iter().map(|m| sha256(m)).collect::<Vec<_>>();
        }
        let scalar_t = t0.elapsed();
        let t1 = std::time::Instant::now();
        let mut multi = Vec::new();
        for _ in 0..8 {
            multi = sha256_multi(&slices);
        }
        let multi_t = t1.elapsed();
        assert_eq!(scalar, multi);
        println!(
            "scalar {:?}  multi {:?}  speedup {:.2}x",
            scalar_t,
            multi_t,
            scalar_t.as_secs_f64() / multi_t.as_secs_f64()
        );
    }
}

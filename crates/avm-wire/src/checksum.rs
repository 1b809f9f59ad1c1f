//! CRC-32 (IEEE 802.3 polynomial) checksum.
//!
//! Used by the framing layer and by the compressor to detect accidental
//! corruption; it is *not* a cryptographic integrity mechanism (the
//! tamper-evident log's hash chain serves that purpose).
//!
//! # One step, three streams
//!
//! The one step function folds sixteen bytes into the register with sixteen
//! independent table lookups (slicing-by-16).  Each step still waits for the
//! one before it, so a single stream is bound by that chain's latency, not by
//! the loads.  [`Crc32::update`] therefore cuts every whole super-block of
//! `3 × STREAM` bytes into thirds and folds them as three independent streams
//! — the first from the running register, the other two from zero — which
//! the CPU overlaps.
//!
//! The streams are joined with the algebra zlib's `crc32_combine` uses.
//! Without the pre- and post-inversion the register update is linear over
//! GF(2), so the register after `A ‖ B` is the register after `A` carried
//! through `|B|` zero bytes, XOR the register of `B` alone started from
//! zero.  Carrying a register through `STREAM` zero bytes is a fixed 32 × 32
//! bit matrix ("multiply by x^(8·STREAM) mod P"); it is stored as four
//! 256-entry tables (`SHIFT`) computed at compile time, so a join is eight
//! lookups and nothing is exponentiated at run time.  Whatever is left after
//! the super-blocks goes through the same step function, then bytewise.
//! The output is bit-identical to the one-stream loop.

/// Computes the CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finish()
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Bytes per stream: a super-block of `3 × STREAM` bytes folds as three
/// streams.  Fixed by measurement (`crc32_1mib` kernel bench): 128 to 1024
/// run a 614 KB or 1 MiB input equally fast, and 256 streams the most of a
/// 4 KiB frame (3 840 of its bytes) without the join costing anything.
const STREAM: usize = 256;

/// Builds the sixteen slicing tables: `tables[0]` is the classic bytewise
/// table, and `tables[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so sixteen input bytes fold into the state with sixteen independent
/// lookups instead of a sixteen-deep dependency chain.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Lookup tables for sixteen-bytes-per-step (slicing-by-16) CRC computation.
static CRC_TABLES: [[u32; 256]; 16] = build_tables();

/// Builds the join tables: `shift[k][b]` is the register `b << 8k` carried
/// through `STREAM` zero bytes.  The carry is linear, so a register's image
/// is the XOR of its four bytes' entries.
const fn build_shift() -> [[u32; 256]; 4] {
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut crc = (b as u32) << (8 * k);
            let mut n = 0;
            while n < STREAM {
                crc = (crc >> 8) ^ CRC_TABLES[0][(crc & 0xff) as usize];
                n += 1;
            }
            shift[k][b] = crc;
            b += 1;
        }
        k += 1;
    }
    shift
}

/// "Multiply by x^(8·STREAM) mod P" as four byte-indexed tables.
static SHIFT: [[u32; 256]; 4] = build_shift();

/// The one step: folds sixteen bytes into the (un-inverted) register.
#[inline(always)]
fn step(crc: u32, s: &[u8; 16]) -> u32 {
    let t = &CRC_TABLES;
    let x = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
    t[15][(x & 0xff) as usize]
        ^ t[14][((x >> 8) & 0xff) as usize]
        ^ t[13][((x >> 16) & 0xff) as usize]
        ^ t[12][(x >> 24) as usize]
        ^ t[11][s[4] as usize]
        ^ t[10][s[5] as usize]
        ^ t[9][s[6] as usize]
        ^ t[8][s[7] as usize]
        ^ t[7][s[8] as usize]
        ^ t[6][s[9] as usize]
        ^ t[5][s[10] as usize]
        ^ t[4][s[11] as usize]
        ^ t[3][s[12] as usize]
        ^ t[2][s[13] as usize]
        ^ t[1][s[14] as usize]
        ^ t[0][s[15] as usize]
}

/// The register carried through `STREAM` zero bytes.
#[inline(always)]
fn shift(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xff) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xff) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xff) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

impl Crc32 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    ///
    /// Whole super-blocks fold as three streams joined by the fixed shift,
    /// then whole 16-byte strides one after another; the bytewise loop
    /// handles only the tail shorter than one stride (see the module docs).
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(3 * STREAM);
        for block in &mut blocks {
            let (strides, _) = block.as_chunks::<16>();
            let (first, rest) = strides.split_at(STREAM / 16);
            let (second, third) = rest.split_at(STREAM / 16);
            let (mut c0, mut c1, mut c2) = (crc, 0, 0);
            for ((a, b), c) in first.iter().zip(second).zip(third) {
                c0 = step(c0, a);
                c1 = step(c1, b);
                c2 = step(c2, c);
            }
            crc = shift(shift(c0) ^ c1) ^ c2;
        }
        let (strides, tail) = blocks.remainder().as_chunks::<16>();
        for s in strides {
            crc = step(crc, s);
        }
        for &byte in tail {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Returns the finished checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes in one super-block: the shortest input the streams engage on.
    const SUPER_BLOCK: usize = 3 * STREAM;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bit-at-a-time CRC-32: the independent reference the sliced path is
    /// pinned against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        bitwise_prefixes(data).last().copied().unwrap_or(0)
    }

    /// The bitwise CRC-32 of every prefix of `data`, shortest first (the
    /// empty prefix included), in one pass.
    fn bitwise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut crc = 0xFFFF_FFFFu32;
        let mut out = vec![0];
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            out.push(crc ^ 0xFFFF_FFFF);
        }
        out
    }

    /// Seeded (xorshift) buffer, so stride positions see unrelated bytes.
    fn seeded_buffer(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// The join tables are the shift they claim: a register carried through
    /// `STREAM` zero bytes one byte at a time.
    #[test]
    fn shift_is_stream_zero_bytes() {
        for reg in [0, 1, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678, 0xDEAD_BEEF] {
            let mut slow = reg;
            for _ in 0..STREAM {
                slow = (slow >> 8) ^ CRC_TABLES[0][(slow & 0xff) as usize];
            }
            assert_eq!(shift(reg), slow, "register {reg:#010x}");
        }
    }

    /// Every length from empty to four super-blocks and 33 bytes, at sixteen
    /// start offsets: the one-stride path, one to four streamed super-blocks
    /// and every remainder after them.
    #[test]
    fn sliced_matches_bitwise_at_every_length_and_offset() {
        let max = 4 * SUPER_BLOCK + 33;
        let buf = seeded_buffer(16 + max);
        for start in 0..16 {
            let data = &buf[start..start + max];
            for (len, expected) in bitwise_prefixes(data).into_iter().enumerate() {
                assert_eq!(crc32(&data[..len]), expected, "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = seeded_buffer(80);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    /// Incremental updates split at seeded random points agree with the
    /// one-shot checksum, with at least one part above the streamed
    /// threshold and one below it in every split.
    #[test]
    fn incremental_at_random_splits_matches_oneshot() {
        let data = seeded_buffer(3 * SUPER_BLOCK + 777);
        let whole = crc32_bitwise(&data);
        assert_eq!(crc32(&data), whole);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for round in 0..64 {
            // One long part (streams engage), then short and random ones.
            let mut cuts = vec![SUPER_BLOCK + next(SUPER_BLOCK)];
            cuts.push(cuts[0] + 1 + next(SUPER_BLOCK / 2));
            for _ in 0..round % 5 {
                cuts.push(next(data.len()));
            }
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            assert_eq!(h.finish(), whole, "round {round}");
        }
    }

    /// A buffer of more than 2 MiB: hundreds of super-blocks in a row.
    #[test]
    fn large_buffer_matches_bitwise() {
        let data = seeded_buffer((2 << 20) + 5);
        assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abcd"));
    }
}

//! CRC-32 (IEEE 802.3 polynomial) checksum.
//!
//! Used by the framing layer and by the compressor to detect accidental
//! corruption; it is *not* a cryptographic integrity mechanism (the
//! tamper-evident log's hash chain serves that purpose).

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

impl Crc32 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    ///
    /// Whole 16-byte strides fold through sixteen table lookups; the bytewise
    /// loop handles only the tail shorter than one stride.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut strides = data.chunks_exact(16);
        for s in &mut strides {
            let s: &[u8; 16] = s.try_into().expect("chunks_exact(16)");
            let x = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
            crc = t[15][(x & 0xff) as usize]
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
                ^ t[0][s[15] as usize];
        }
        for &byte in strides.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
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
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
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

    #[test]
    fn sliced_matches_bitwise_at_every_length_and_offset() {
        let buf = seeded_buffer(16 + 80);
        for start in 0..16 {
            for len in 0..=80 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "start {start}, len {len}");
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

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abcd"));
    }
}

//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) with a
//! slicing-by-8 kernel, so checksumming a 16 MB snapshot costs
//! milliseconds instead of dominating a warm start. Tables are derived
//! at first use — no build scripts, no unsafe, no dependencies.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// 8 × 256 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[k]` advances a CRC by `k` additional zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            t[0][i as usize] = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// The CRC-32 of `data` (initial value `!0`, final xor `!0` — the
/// standard zlib/PNG parameterization).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc: u32 = !0;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn matches_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_matches_reference_on_all_alignments() {
        let data: Vec<u8> = (0..1021u32)
            .map(|i| (i.wrapping_mul(31) >> 2).to_le_bytes()[0])
            .collect();
        for start in 0..8 {
            for end in [start, start + 1, start + 7, start + 64, data.len()] {
                let slice = &data[start..end.max(start)];
                assert_eq!(crc32(slice), crc32_reference(slice), "at {start}..{end}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data: Vec<u8> = (0..255).collect();
        let clean = crc32(&data);
        for pos in (0..data.len()).step_by(17) {
            data[pos] ^= 0x10;
            assert_ne!(crc32(&data), clean, "flip at {pos} undetected");
            data[pos] ^= 0x10;
        }
    }
}

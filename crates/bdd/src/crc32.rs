//! CRC32 (IEEE 802.3 polynomial), table-driven.
//!
//! The pager's block format and `jedd-store`'s snapshot and log formats
//! frame every payload with this checksum so torn writes and bit flips
//! are detected before any bytes are interpreted. It lives in `jedd-bdd`
//! (the workspace's leaf crate) so both the pager and the store share one
//! implementation; `jedd-store` re-exports it. Implemented in-tree
//! because the workspace builds fully offline.

/// Reflected IEEE polynomial, the one used by zlib/PNG/Ethernet.
const POLY: u32 = 0xedb8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// The CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn detects_single_byte_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x40;
            assert_ne!(crc32(&flipped), base, "flip at {i} undetected");
        }
    }
}

//! The corruption checksum shared by every binary codec in the workspace:
//! the [`StoreCheckpoint`](crate::StoreCheckpoint) blob and the
//! `specsync-net` wire frame.
//!
//! It is FNV-1a taken a 64-bit word at a time instead of a byte at a
//! time, over four interleaved lanes so the multiplies of neighbouring
//! words overlap in the pipeline:
//!
//! ```text
//! step(h, v)  = (h ^ v) * 0x0000_0100_0000_01b3        (mod 2^64)
//! lane i      = step over words i, i+4, i+8, ... of every whole
//!               32-byte block, starting from 0xcbf2_9ce4_8422_2325;
//!               words are little-endian u64
//! checksum    = step over lanes 0..4, then over each tail byte (the
//!               < 32 bytes past the last whole block), starting from
//!               the same offset basis
//! ```
//!
//! Detection argument: for a fixed state `h`, `v -> step(h, v)` is a
//! bijection (xor is, and the FNV prime is odd, hence invertible mod
//! 2^64); for a fixed input `v`, `h -> step(h, v)` is a bijection too. So
//! a change confined to one word (or one tail byte) changes the state of
//! the lane that absorbs it, every later step on that lane carries the
//! difference through, and the fold carries the lane difference into the
//! sum. Every single-bit or single-byte flip is therefore rejected — the
//! property both codecs' corruption tests pin. Like FNV-1a itself this
//! detects accidents, not adversaries; it is not collision resistant.
//! The length is not mixed in: both codecs frame the payload with an
//! exact length that decoding enforces.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const LANES: usize = 4;
const BLOCK: usize = LANES * 8;

fn step(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(PRIME)
}

fn le_u64(word: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(word);
    u64::from_le_bytes(bytes)
}

/// Word-wise four-lane FNV-1a over `bytes`; see the module docs for the
/// exact definition.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut lanes = [OFFSET_BASIS; LANES];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_u64(word));
        }
    }
    let folded = lanes
        .iter()
        .fold(OFFSET_BASIS, |hash, &lane| step(hash, lane));
    blocks
        .remainder()
        .iter()
        .fold(folded, |hash, &b| step(hash, u64::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, spelled out without lanes or iterator adapters.
    fn reference(bytes: &[u8]) -> u64 {
        let whole = bytes.len() / BLOCK * BLOCK;
        let mut lanes = [OFFSET_BASIS; LANES];
        let mut i = 0;
        while i < whole {
            let word = u64::from_le_bytes([
                bytes[i],
                bytes[i + 1],
                bytes[i + 2],
                bytes[i + 3],
                bytes[i + 4],
                bytes[i + 5],
                bytes[i + 6],
                bytes[i + 7],
            ]);
            let lane = (i / 8) % LANES;
            lanes[lane] = (lanes[lane] ^ word).wrapping_mul(PRIME);
            i += 8;
        }
        let mut hash = OFFSET_BASIS;
        for lane in lanes {
            hash = (hash ^ lane).wrapping_mul(PRIME);
        }
        for &b in &bytes[whole..] {
            hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
        hash
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37) ^ 0x5a)
            .collect()
    }

    #[test]
    fn known_answers() {
        // Pinned, and cross-checked against an independent implementation
        // of the module-doc definition: changing any of these changes both
        // codecs' formats.
        assert_eq!(fnv1a(&[]), 0xf797_3b6e_20c9_7451);
        assert_eq!(fnv1a(&[0x61]), 0x7f6e_2c21_b650_6d90);
        assert_eq!(fnv1a(&sample(31)), 0x3209_3220_962b_aeca);
        assert_eq!(fnv1a(&sample(32)), 0xa9cf_b740_3c74_9981);
        assert_eq!(fnv1a(&sample(33)), 0x008d_dd26_ba20_cc01);
    }

    #[test]
    fn matches_the_spelled_out_definition() {
        for len in 0..=200 {
            let bytes = sample(len);
            assert_eq!(fnv1a(&bytes), reference(&bytes), "length {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        for len in 0..=96 {
            let bytes = sample(len);
            let sum = fnv1a(&bytes);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(fnv1a(&flipped), sum, "length {len}, byte {i}, bit {bit}");
                }
            }
        }
    }
}

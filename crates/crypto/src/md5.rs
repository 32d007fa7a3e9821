//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! The paper represents every URL by a 16-byte MD5 signature in the browser
//! index (§5) and builds its digital-watermark integrity protocol on MD5
//! digests (§6.1). MD5 is cryptographically broken by modern standards; it
//! is implemented here because it is what the paper specifies, and because
//! the reproduction must not depend on crates outside the approved offline
//! set. Do not use this for new security designs.

use std::fmt;

/// A 16-byte MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Renders the digest as 32 lowercase hex characters.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parses 32 hex characters into a digest.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental MD5 context.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes.
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            length: 0,
            buffer: [0u8; 64],
            buffered: 0,
        }
    }

    /// Feeds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let (block, rest) = input.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte block"));
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finishes the digest, consuming the context.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length.wrapping_mul(8);
        // Padding: 0x80, zeros up to byte 56 of a block, then the message
        // length in bits, little-endian. `buffered < 64` always holds, so
        // the 0x80 fits; past byte 56 the length spills into a second
        // block.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }
}

/// One MD5 step: `a = b + ((a + f(b, c, d) + m + k) <<< s)`. The message
/// word and constant are summed first and the round function last, so
/// only the round function waits on `b`, the previous step's result.
macro_rules! step {
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
        $a = $a.wrapping_add($m.wrapping_add($k));
        $a = $f!($a, $b, $c, $d).rotate_left($s).wrapping_add($b);
    };
}

/// `F(b, c, d) = (b & c) | (!b & d)`, written as `((c ^ d) & b) ^ d`.
macro_rules! f {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a.wrapping_add((($c ^ $d) & $b) ^ $d)
    };
}

/// `G(b, c, d) = (b & d) | (c & !d)`. The two terms share no set bits, so
/// they are added separately and `!d & c` need not wait for `b`.
macro_rules! g {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a.wrapping_add(!$d & $c).wrapping_add($d & $b)
    };
}

/// `H(b, c, d) = b ^ c ^ d`.
macro_rules! h {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a.wrapping_add($b ^ $c ^ $d)
    };
}

/// `I(b, c, d) = c ^ (b | !d)`.
macro_rules! i {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a.wrapping_add($c ^ ($b | !$d))
    };
}

/// The RFC 1321 compression function, unrolled: each of the 64 steps
/// carries its own message-word index, sine-derived constant
/// `floor(2^32 * abs(sin(i + 1)))` and shift.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d] = *state;

    step!(f, a, b, c, d, m[0], 0xd76aa478, 7);
    step!(f, d, a, b, c, m[1], 0xe8c7b756, 12);
    step!(f, c, d, a, b, m[2], 0x242070db, 17);
    step!(f, b, c, d, a, m[3], 0xc1bdceee, 22);
    step!(f, a, b, c, d, m[4], 0xf57c0faf, 7);
    step!(f, d, a, b, c, m[5], 0x4787c62a, 12);
    step!(f, c, d, a, b, m[6], 0xa8304613, 17);
    step!(f, b, c, d, a, m[7], 0xfd469501, 22);
    step!(f, a, b, c, d, m[8], 0x698098d8, 7);
    step!(f, d, a, b, c, m[9], 0x8b44f7af, 12);
    step!(f, c, d, a, b, m[10], 0xffff5bb1, 17);
    step!(f, b, c, d, a, m[11], 0x895cd7be, 22);
    step!(f, a, b, c, d, m[12], 0x6b901122, 7);
    step!(f, d, a, b, c, m[13], 0xfd987193, 12);
    step!(f, c, d, a, b, m[14], 0xa679438e, 17);
    step!(f, b, c, d, a, m[15], 0x49b40821, 22);

    step!(g, a, b, c, d, m[1], 0xf61e2562, 5);
    step!(g, d, a, b, c, m[6], 0xc040b340, 9);
    step!(g, c, d, a, b, m[11], 0x265e5a51, 14);
    step!(g, b, c, d, a, m[0], 0xe9b6c7aa, 20);
    step!(g, a, b, c, d, m[5], 0xd62f105d, 5);
    step!(g, d, a, b, c, m[10], 0x02441453, 9);
    step!(g, c, d, a, b, m[15], 0xd8a1e681, 14);
    step!(g, b, c, d, a, m[4], 0xe7d3fbc8, 20);
    step!(g, a, b, c, d, m[9], 0x21e1cde6, 5);
    step!(g, d, a, b, c, m[14], 0xc33707d6, 9);
    step!(g, c, d, a, b, m[3], 0xf4d50d87, 14);
    step!(g, b, c, d, a, m[8], 0x455a14ed, 20);
    step!(g, a, b, c, d, m[13], 0xa9e3e905, 5);
    step!(g, d, a, b, c, m[2], 0xfcefa3f8, 9);
    step!(g, c, d, a, b, m[7], 0x676f02d9, 14);
    step!(g, b, c, d, a, m[12], 0x8d2a4c8a, 20);

    step!(h, a, b, c, d, m[5], 0xfffa3942, 4);
    step!(h, d, a, b, c, m[8], 0x8771f681, 11);
    step!(h, c, d, a, b, m[11], 0x6d9d6122, 16);
    step!(h, b, c, d, a, m[14], 0xfde5380c, 23);
    step!(h, a, b, c, d, m[1], 0xa4beea44, 4);
    step!(h, d, a, b, c, m[4], 0x4bdecfa9, 11);
    step!(h, c, d, a, b, m[7], 0xf6bb4b60, 16);
    step!(h, b, c, d, a, m[10], 0xbebfbc70, 23);
    step!(h, a, b, c, d, m[13], 0x289b7ec6, 4);
    step!(h, d, a, b, c, m[0], 0xeaa127fa, 11);
    step!(h, c, d, a, b, m[3], 0xd4ef3085, 16);
    step!(h, b, c, d, a, m[6], 0x04881d05, 23);
    step!(h, a, b, c, d, m[9], 0xd9d4d039, 4);
    step!(h, d, a, b, c, m[12], 0xe6db99e5, 11);
    step!(h, c, d, a, b, m[15], 0x1fa27cf8, 16);
    step!(h, b, c, d, a, m[2], 0xc4ac5665, 23);

    step!(i, a, b, c, d, m[0], 0xf4292244, 6);
    step!(i, d, a, b, c, m[7], 0x432aff97, 10);
    step!(i, c, d, a, b, m[14], 0xab9423a7, 15);
    step!(i, b, c, d, a, m[5], 0xfc93a039, 21);
    step!(i, a, b, c, d, m[12], 0x655b59c3, 6);
    step!(i, d, a, b, c, m[3], 0x8f0ccc92, 10);
    step!(i, c, d, a, b, m[10], 0xffeff47d, 15);
    step!(i, b, c, d, a, m[1], 0x85845dd1, 21);
    step!(i, a, b, c, d, m[8], 0x6fa87e4f, 6);
    step!(i, d, a, b, c, m[15], 0xfe2ce6e0, 10);
    step!(i, c, d, a, b, m[6], 0xa3014314, 15);
    step!(i, b, c, d, a, m[13], 0x4e0811a1, 21);
    step!(i, a, b, c, d, m[4], 0xf7537e82, 6);
    step!(i, d, a, b, c, m[11], 0xbd3af235, 10);
    step!(i, c, d, a, b, m[2], 0x2ad7d2bb, 15);
    step!(i, b, c, d, a, m[9], 0xeb86d391, 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// One-shot MD5 of `data`.
pub fn md5(data: &[u8]) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&str, &str); 7] = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(md5(input.as_bytes()).to_hex(), expect, "input {input:?}");
        }
    }

    /// RFC 1321's million-`a` message: 15 625 full blocks, then a
    /// padding-only block.
    #[test]
    fn rfc1321_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(md5(&data).to_hex(), "7707d6ae4e027c70eea2a935c2296f21");
    }

    /// Digests at every padding boundary (the length field fitting in the
    /// last block or spilling into a second one), checked against an
    /// independent MD5 implementation.
    #[test]
    fn known_answers_at_padding_boundaries() {
        let cases: [(usize, &str); 10] = [
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (1, "89e74e640b8c46257a29de0616794d5d"),
            (55, "c9e512626618c9980ef21a96597af94c"),
            (56, "ecde7caa08e9f5657c863df107cac60a"),
            (63, "2f0301069e1c40af7f6c8f843b1b13f2"),
            (64, "b6bf87c24b1bc334e2541387a92b981b"),
            (65, "f168246f08b6134d66bd2a10343fa9f1"),
            (1000, "2b1e78d5765de9e10495a01412a1cf22"),
            (4095, "374a73c9e9e475a75a620dd3b0819034"),
            (1 << 20, "3f2c8bd9cfde6550fdff4b36617c3261"),
        ];
        for (len, expect) in cases {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(md5(&data).to_hex(), expect, "len {len}");
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = md5(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut ctx = Md5::new();
        let mut off = 0;
        for chunk in [1usize, 7, 63, 64, 65, 128, 200, 472] {
            let end = (off + chunk).min(data.len());
            ctx.update(&data[off..end]);
            off = end;
        }
        assert_eq!(off, data.len());
        assert_eq!(ctx.finalize(), oneshot);
    }

    #[test]
    fn exact_block_boundaries() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let d1 = md5(&data);
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = md5(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("short"), None);
        assert_eq!(Digest::from_hex(&"zz".repeat(16)), None);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"alpha"), md5(b"beta"));
        assert_ne!(md5(b""), md5(b"\0"));
    }

    #[test]
    fn display_matches_hex() {
        let d = md5(b"abc");
        assert_eq!(format!("{d}"), d.to_hex());
    }
}

//! The workspace's one byte-wise content hash: 64-bit FNV-1a. Its values are
//! persisted (decode-cache file names, sweep-cache channel identities), so the
//! algorithm and the little-endian byte order of [`Fnv1a::write_u64`] are an
//! on-disk contract.

/// A streaming 64-bit FNV-1a hasher.
///
/// ```
/// use noise::fnv::Fnv1a;
///
/// // The published FNV-1a test vector for "a".
/// assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` in order.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds one word as its eight little-endian bytes.
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        self.write(&word.to_le_bytes())
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

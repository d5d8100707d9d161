//! Sparse paged data memory.
//!
//! lev64 data memory is a flat 64-bit byte-addressed space backed by 4 KiB
//! pages allocated on demand. Unwritten bytes read as zero. Accesses may be
//! unaligned and may straddle page boundaries.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sparse byte-addressable memory with on-demand 4 KiB pages.
///
/// ```
/// use levioso_isa::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x9999), 0, "untouched memory reads as zero");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr` into an array.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: access stays within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_SIZE {
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `i64`.
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn write_i64(&mut self, addr: u64, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Copies `data` into memory starting at `addr`.
    pub fn write_slice(&mut self, addr: u64, data: &[u8]) {
        self.write_bytes(addr, data);
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i as u64))).collect()
    }

    /// Reads `len` contiguous `i64` values.
    pub fn read_i64_vec(&self, addr: u64, len: usize) -> Vec<i64> {
        (0..len).map(|i| self.read_i64(addr + 8 * i as u64)).collect()
    }

    /// A stable fingerprint of the full memory contents (FNV-1a over
    /// allocated pages in address order, skipping all-zero pages so that
    /// touched-but-zero memory compares equal to untouched memory).
    pub fn fingerprint(&self) -> u64 {
        let mut keys: Vec<u64> =
            self.pages.iter().filter(|(_, p)| p.iter().any(|&b| b != 0)).map(|(&k, _)| k).collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for k in keys {
            for b in k.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            for &b in self.pages[&k].iter() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write_u64(8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(8), 0x89ab_cdef);
        assert_eq!(m.read_u16(8), 0xcdef);
        assert_eq!(m.read_u8(15), 0x01);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
        // Byte-level view across the boundary matches.
        assert_eq!(m.read_u8(addr + 3), 0x55);
        assert_eq!(m.read_u8(addr + 4), 0x44);
    }

    #[test]
    fn i64_slice_round_trip() {
        let mut m = Memory::new();
        let vals = [1i64, -2, i64::MAX, i64::MIN, 0];
        for (i, &v) in vals.iter().enumerate() {
            m.write_i64(0x4000 + 8 * i as u64, v);
        }
        assert_eq!(m.read_i64_vec(0x4000, 5), vals);
    }

    #[test]
    fn fingerprint_ignores_zero_pages() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write_u8(0x7000, 0); // touched but still zero
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.write_u8(0x7000, 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let mut a = Memory::new();
        a.write_u8(0x1000, 1);
        a.write_u8(0x9000, 2);
        let mut b = Memory::new();
        b.write_u8(0x9000, 2);
        b.write_u8(0x1000, 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}

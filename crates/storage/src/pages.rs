//! Fixed-size pages, the unit of I/O between store files and the page
//! cache.
//!
//! Every page ends in a 16-byte **integrity trailer**:
//!
//! ```text
//! +------------------------------+---------+---------+---------+
//! | record area (8176 bytes)     | magic   | stamp   | crc32   |
//! |                              | u32 LE  | u64 LE  | u32 LE  |
//! +------------------------------+---------+---------+---------+
//! ```
//!
//! The CRC covers everything before it (record area + magic + stamp), so
//! torn writes and bit flips are detected on fault-in instead of being
//! decoded as records. The stamp is a diagnostic checkpoint-epoch mark
//! written by the page cache at write-back — it tells an investigator
//! *when* a page was last persisted, but does not participate in
//! verification. An all-zero page is valid by definition: it is a page
//! that has never been written (record stores treat zero records as
//! not-in-use, and a fresh trailer of zeros carries no claim to check).
//!
//! Records are laid out only in the record area ([`PAGE_USABLE_SIZE`]);
//! [`locate_record`] floors the records-per-page division so no record
//! ever straddles into the trailer.

use crate::codec::{crc32, get_u32, get_u64, set_u32, set_u64};

/// Size of a page in bytes, including the integrity trailer.
pub const PAGE_SIZE: usize = 8192;

/// Size of the integrity trailer at the end of every page.
pub const PAGE_TRAILER_SIZE: usize = 16;

/// Bytes of a page available to records (everything before the trailer).
pub const PAGE_USABLE_SIZE: usize = PAGE_SIZE - PAGE_TRAILER_SIZE;

/// Magic marker beginning every page trailer ("GSPG").
pub const PAGE_TRAILER_MAGIC: u32 = 0x4753_5047;

/// Outcome of verifying one page image against its trailer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageVerdict {
    /// Every byte is zero: a page that has never been written. Valid.
    AllZero,
    /// The trailer is well-formed and the CRC matches the page image.
    Valid {
        /// The checkpoint-epoch stamp recorded at the last write-back.
        stamp: u64,
    },
    /// The trailer is missing, malformed or the CRC disagrees with the
    /// page image: a torn write, stale sector or bit flip.
    Corrupt {
        /// CRC computed over the page image as read.
        expected: u32,
        /// CRC stored in the trailer (zero when the trailer is absent).
        found: u32,
    },
}

/// An in-memory copy of one page of a store file.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// Creates a zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        }
    }

    /// Creates a page from raw bytes, zero-padding or truncating to
    /// [`PAGE_SIZE`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut data = vec![0u8; PAGE_SIZE];
        let n = bytes.len().min(PAGE_SIZE);
        data[..n].copy_from_slice(&bytes[..n]);
        Page {
            data: data.into_boxed_slice(),
        }
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the page contents.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Returns the slice holding one record of `record_size` bytes at
    /// `offset_in_page`.
    #[inline]
    pub fn record(&self, offset_in_page: usize, record_size: usize) -> &[u8] {
        &self.data[offset_in_page..offset_in_page + record_size]
    }

    /// Returns the mutable slice holding one record of `record_size` bytes
    /// at `offset_in_page`.
    #[inline]
    pub fn record_mut(&mut self, offset_in_page: usize, record_size: usize) -> &mut [u8] {
        &mut self.data[offset_in_page..offset_in_page + record_size]
    }

    /// Returns `true` if every byte of the page is zero (i.e. no record in
    /// this page has ever been written).
    pub fn is_all_zero(&self) -> bool {
        self.data.iter().all(|&b| b == 0)
    }

    /// Writes the integrity trailer: magic, `stamp`, and a CRC over
    /// everything before the CRC field. Called by the page cache
    /// immediately before every write-back so the on-disk image always
    /// carries a matching checksum.
    pub fn seal(&mut self, stamp: u64) {
        let t = PAGE_USABLE_SIZE;
        set_u32(&mut self.data, t, PAGE_TRAILER_MAGIC);
        set_u64(&mut self.data, t + 4, stamp);
        let crc = crc32(&self.data[..PAGE_SIZE - 4]);
        set_u32(&mut self.data, PAGE_SIZE - 4, crc);
    }

    /// Verifies the page image against its trailer. See [`PageVerdict`]
    /// for the three outcomes; only `Corrupt` indicates a problem.
    pub fn verify(&self) -> PageVerdict {
        if self.is_all_zero() {
            return PageVerdict::AllZero;
        }
        let t = PAGE_USABLE_SIZE;
        let magic = get_u32(&self.data, t);
        let stamp = get_u64(&self.data, t + 4);
        let found = get_u32(&self.data, PAGE_SIZE - 4);
        let expected = crc32(&self.data[..PAGE_SIZE - 4]);
        if magic != PAGE_TRAILER_MAGIC || found != expected {
            return PageVerdict::Corrupt { expected, found };
        }
        PageVerdict::Valid { stamp }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes, zero={})", PAGE_SIZE, self.is_all_zero())
    }
}

/// Identifies the position of a record within a paged file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordLocation {
    /// Page number within the file.
    pub page_no: u64,
    /// Byte offset of the record within the page.
    pub offset_in_page: usize,
}

/// Number of `record_size`-byte records that fit in the record area of one
/// page. Floored, so the last partial slot (and the trailer) are never
/// used for records.
#[inline]
pub fn records_per_page(record_size: usize) -> u64 {
    (PAGE_USABLE_SIZE / record_size) as u64
}

/// Computes where record `id` of a store with `record_size`-byte records
/// lives.
#[inline]
pub fn locate_record(id: u64, record_size: usize) -> RecordLocation {
    let per_page = records_per_page(record_size);
    RecordLocation {
        page_no: id / per_page,
        offset_in_page: (id % per_page) as usize * record_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert!(p.is_all_zero());
        assert_eq!(p.bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn from_bytes_pads_and_truncates() {
        let p = Page::from_bytes(&[1, 2, 3]);
        assert_eq!(&p.bytes()[..3], &[1, 2, 3]);
        assert!(p.bytes()[3..].iter().all(|&b| b == 0));

        let big = vec![7u8; PAGE_SIZE + 100];
        let p = Page::from_bytes(&big);
        assert_eq!(p.bytes().len(), PAGE_SIZE);
        assert!(p.bytes().iter().all(|&b| b == 7));
    }

    #[test]
    fn record_slices() {
        let mut p = Page::zeroed();
        p.record_mut(64, 64).copy_from_slice(&[9u8; 64]);
        assert!(p.record(64, 64).iter().all(|&b| b == 9));
        assert!(p.record(0, 64).iter().all(|&b| b == 0));
        assert!(!p.is_all_zero());
    }

    #[test]
    fn locate_record_small_ids() {
        let loc = locate_record(0, 64);
        assert_eq!(
            loc,
            RecordLocation {
                page_no: 0,
                offset_in_page: 0
            }
        );
        let loc = locate_record(1, 64);
        assert_eq!(
            loc,
            RecordLocation {
                page_no: 0,
                offset_in_page: 64
            }
        );
    }

    #[test]
    fn locate_record_page_boundaries() {
        let per_page = records_per_page(64);
        let loc = locate_record(per_page, 64);
        assert_eq!(loc.page_no, 1);
        assert_eq!(loc.offset_in_page, 0);
        let loc = locate_record(per_page - 1, 64);
        assert_eq!(loc.page_no, 0);
        assert_eq!(loc.offset_in_page, (per_page as usize - 1) * 64);
    }

    #[test]
    fn locate_record_larger_records() {
        let per_page = records_per_page(128);
        let loc = locate_record(per_page * 3 + 5, 128);
        assert_eq!(loc.page_no, 3);
        assert_eq!(loc.offset_in_page, 5 * 128);
    }

    #[test]
    fn records_never_reach_the_trailer() {
        for size in [64usize, 128] {
            let per_page = records_per_page(size);
            assert!(per_page as usize * size <= PAGE_USABLE_SIZE);
            let loc = locate_record(per_page - 1, size);
            assert!(loc.offset_in_page + size <= PAGE_USABLE_SIZE);
        }
    }

    #[test]
    fn crc_matches_known_vectors() {
        // The trailer checksum is the standard CRC-32 (IEEE 802.3).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_then_verify_round_trips() {
        let mut p = Page::zeroed();
        p.record_mut(0, 64).copy_from_slice(&[5u8; 64]);
        p.seal(42);
        assert_eq!(p.verify(), PageVerdict::Valid { stamp: 42 });
    }

    #[test]
    fn all_zero_page_is_trivially_valid() {
        assert_eq!(Page::zeroed().verify(), PageVerdict::AllZero);
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let mut p = Page::zeroed();
        p.record_mut(128, 64).copy_from_slice(&[7u8; 64]);
        p.seal(1);
        for at in [0usize, 130, PAGE_USABLE_SIZE + 1, PAGE_SIZE - 1] {
            let mut flipped = p.clone();
            flipped.bytes_mut()[at] ^= 0x10;
            assert!(
                matches!(flipped.verify(), PageVerdict::Corrupt { .. }),
                "flip at {at} must be caught"
            );
        }
    }

    #[test]
    fn unsealed_nonzero_page_is_corrupt() {
        // A page with data but no trailer (e.g. a write torn before the
        // trailer bytes landed) must not verify.
        let mut p = Page::zeroed();
        p.record_mut(0, 64).copy_from_slice(&[9u8; 64]);
        let v = p.verify();
        assert!(matches!(v, PageVerdict::Corrupt { found: 0, .. }), "{v:?}");
    }

    #[test]
    fn torn_half_page_is_detected() {
        let mut p = Page::zeroed();
        for b in p.bytes_mut().iter_mut() {
            *b = 3;
        }
        p.seal(9);
        // Simulate a torn write: the second half never hit the disk.
        let mut torn = p.bytes().to_vec();
        for b in torn[PAGE_SIZE / 2..].iter_mut() {
            *b = 0;
        }
        assert!(matches!(
            Page::from_bytes(&torn).verify(),
            PageVerdict::Corrupt { .. }
        ));
    }

    #[test]
    fn reseal_after_mutation_restores_validity() {
        let mut p = Page::zeroed();
        p.record_mut(0, 64).copy_from_slice(&[1u8; 64]);
        p.seal(1);
        p.record_mut(64, 64).copy_from_slice(&[2u8; 64]);
        assert!(matches!(p.verify(), PageVerdict::Corrupt { .. }));
        p.seal(2);
        assert_eq!(p.verify(), PageVerdict::Valid { stamp: 2 });
    }
}

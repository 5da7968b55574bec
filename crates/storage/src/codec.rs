//! The byte codec every persisted and wire format goes through.
//!
//! The write-ahead log, the commit records inside it, the store files
//! (record slots, page trailers, token files, `.id` sidecars) and the
//! server's wire frames all encode integers little-endian, prefix strings
//! with a `u32` byte length, tag property values the same way and
//! checksum with the same CRC-32. This module is the only place those
//! choices are made:
//!
//! * [`crc32`] / [`Crc32`] — slice-by-16 CRC-32 (IEEE 802.3);
//! * `put_*` — append a value to a growing buffer;
//! * `get_*` / `set_*` — read or overwrite a value at a fixed offset of a
//!   fixed-size layout (record slots, page trailers, frame headers);
//! * [`Reader`] — a bounds-checked cursor for variable-length payloads,
//!   failing with a [`CodecError`] instead of panicking;
//! * [`put_value`] / [`Reader::value`] — the one [`PropertyValue`]
//!   encoding: tag `0` bool (one byte), `1` `i64`, `2` `f64` bits, `3`
//!   string.
//!
//! Each layer maps [`CodecError`] into its own error type once.

use std::fmt;
use std::mem::size_of;

use crate::value::PropertyValue;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Folds one byte into a running CRC bit by bit — the definition of the
/// checksum, and the generator of [`CRC_TABLES`].
const fn crc32_byte_bitwise(mut crc: u32, byte: u8) -> u32 {
    crc ^= byte as u32;
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// Slicing-by-16 lookup tables (Kounavis & Berry), built at compile time.
/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so sixteen lookups fold
/// sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc32_byte_bitwise(0, i as u8);
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// An incremental CRC-32: feeding slices one after another yields the
/// checksum of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// Folds `data` into the running checksum, sixteen bytes per step and
    /// the tail one byte at a time.
    pub fn update(mut self, data: &[u8]) -> Self {
        let t = &CRC_TABLES;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            let lo = self.0 ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            self.0 = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][usize::from(b[4])]
                ^ t[10][usize::from(b[5])]
                ^ t[9][usize::from(b[6])]
                ^ t[8][usize::from(b[7])]
                ^ t[7][usize::from(b[8])]
                ^ t[6][usize::from(b[9])]
                ^ t[5][usize::from(b[10])]
                ^ t[4][usize::from(b[11])]
                ^ t[3][usize::from(b[12])]
                ^ t[2][usize::from(b[13])]
                ^ t[1][usize::from(b[14])]
                ^ t[0][usize::from(b[15])];
        }
        for &byte in blocks.remainder() {
            self.0 = (self.0 >> 8) ^ t[0][((self.0 ^ u32::from(byte)) & 0xFF) as usize];
        }
        self
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// The CRC-32 (IEEE 802.3) checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::default().update(data).finish()
}

/// Why a [`Reader`] refused its input, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset, from the start of the decoded buffer, of the field
    /// that failed.
    pub offset: usize,
    /// What was wrong with it.
    pub what: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked little-endian cursor over one encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! le_ints {
    ($($ty:ident: $put:ident, $get:ident, $set:ident;)*) => {
        $(
            #[doc = concat!("Appends a little-endian `", stringify!($ty), "`.")]
            #[inline]
            pub fn $put(out: &mut Vec<u8>, value: $ty) {
                out.extend_from_slice(&value.to_le_bytes());
            }

            #[doc = concat!("Reads the little-endian `", stringify!($ty), "` at `at`.")]
            /// Panics if it does not fit: fixed layouts check their buffer
            /// length once, up front.
            #[inline]
            pub fn $get(buf: &[u8], at: usize) -> $ty {
                let mut bytes = [0u8; size_of::<$ty>()];
                bytes.copy_from_slice(&buf[at..at + size_of::<$ty>()]);
                $ty::from_le_bytes(bytes)
            }

            #[doc = concat!("Overwrites the little-endian `", stringify!($ty), "` at `at`.")]
            #[inline]
            pub fn $set(buf: &mut [u8], at: usize, value: $ty) {
                buf[at..at + size_of::<$ty>()].copy_from_slice(&value.to_le_bytes());
            }
        )*

        impl Reader<'_> {
            $(
                #[doc = concat!("Reads a little-endian `", stringify!($ty), "`.")]
                #[inline]
                pub fn $ty(&mut self) -> Result<$ty, CodecError> {
                    Ok($get(self.bytes(size_of::<$ty>())?, 0))
                }
            )*
        }
    };
}

le_ints! {
    u16: put_u16, get_u16, set_u16;
    u32: put_u32, get_u32, set_u32;
    u64: put_u64, get_u64, set_u64;
    i64: put_i64, get_i64, set_i64;
}

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a string as a `u32` byte length followed by its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a property value: its tag byte, then its body.
pub fn put_value(out: &mut Vec<u8>, value: &PropertyValue) {
    match value {
        PropertyValue::Bool(b) => {
            put_u8(out, 0);
            put_u8(out, u8::from(*b));
        }
        PropertyValue::Int(i) => {
            put_u8(out, 1);
            put_i64(out, *i);
        }
        PropertyValue::Float(x) => {
            put_u8(out, 2);
            put_u64(out, x.to_bits());
        }
        PropertyValue::String(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
    }
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Offset of the next byte to be read.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error for the field starting at `offset`.
    pub fn error_at(&self, offset: usize, what: &'static str) -> CodecError {
        CodecError { offset, what }
    }

    /// Takes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(self.error_at(self.pos, "truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| self.error_at(at, "invalid UTF-8"))
    }

    /// Reads a property value written by [`put_value`].
    pub fn value(&mut self) -> Result<PropertyValue, CodecError> {
        let at = self.pos;
        Ok(match self.u8()? {
            0 => PropertyValue::Bool(self.u8()? != 0),
            1 => PropertyValue::Int(self.i64()?),
            2 => PropertyValue::Float(f64::from_bits(self.u64()?)),
            3 => PropertyValue::String(self.str()?.to_owned()),
            _ => return Err(self.error_at(at, "unknown value tag")),
        })
    }

    /// Reads an item count with `prefix` and refuses it unless that many
    /// items of at least `min_item_bytes` each still fit in the buffer,
    /// so a lying count is caught before anything is allocated for it.
    pub fn count<T: Into<u64>>(
        &mut self,
        prefix: fn(&mut Self) -> Result<T, CodecError>,
        min_item_bytes: usize,
    ) -> Result<usize, CodecError> {
        let at = self.pos;
        let n = prefix(self)?.into();
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining() / min_item_bytes.max(1))
            .ok_or(self.error_at(at, "count exceeds the bytes left"))
    }

    /// Refuses bytes left over after the last field.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.error_at(self.pos, "trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integers_are_little_endian_at_every_offset() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xAA);
        put_u16(&mut out, 0x0102);
        put_u32(&mut out, 0x0304_0506);
        put_i64(&mut out, -2);
        assert_eq!(out[..7], [0xAA, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03]);
        assert_eq!(out[7..], [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(
            (get_u16(&out, 1), get_u32(&out, 3), get_i64(&out, 7)),
            (0x0102, 0x0304_0506, -2)
        );
        set_u64(&mut out, 7, 0x0708_090A_0B0C_0D0E);
        assert_eq!(get_u64(&out, 7), 0x0708_090A_0B0C_0D0E);
    }

    #[test]
    fn reader_refuses_with_the_offset_of_the_bad_field() {
        let mut out = Vec::new();
        put_str(&mut out, "ok");
        put_u8(&mut out, 9);
        let mut r = Reader::new(&out);
        assert_eq!(r.str(), Ok("ok"));
        assert_eq!(
            r.value().unwrap_err(),
            CodecError {
                offset: 6,
                what: "unknown value tag"
            }
        );

        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err().offset, 0);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.finish().unwrap_err().offset, 2);
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xFF]).str().unwrap_err().what,
            "invalid UTF-8"
        );
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut out = vec![3, 0, 0, 0];
        out.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&out).count(Reader::u32, 4), Ok(3));
        assert!(Reader::new(&out).count(Reader::u32, 5).is_err());
        set_u32(&mut out, 0, u32::MAX);
        assert!(Reader::new(&out).count(Reader::u32, 1).is_err());
    }

    /// The checksum by its bit-at-a-time definition.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(0xFFFF_FFFF, |crc, &byte| crc32_byte_bitwise(crc, byte))
    }

    #[test]
    fn crc_matches_the_check_value_and_the_bitwise_definition() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let data: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(151) ^ (i >> 2)) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_incremental_crc_equals_whole(
            whole in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
            cuts in (0usize..256, 0usize..256),
        ) {
            // Two cut points anywhere, so the pieces are rarely multiples
            // of the sixteen-byte block.
            let (i, j) = (cuts.0.min(whole.len()), cuts.1.min(whole.len()));
            let (i, j) = (i.min(j), i.max(j));
            let pieces = Crc32::default()
                .update(&whole[..i])
                .update(&whole[i..j])
                .update(&whole[j..]);
            prop_assert_eq!(crc32(&whole), pieces.finish());
            prop_assert_eq!(crc32(&whole), crc32_bitwise(&whole));
        }

        #[test]
        fn prop_values_round_trip(i in proptest::num::i64::ANY, x in -1e9f64..1e9, s in "[a-zé€]{0,16}") {
            let values = [
                PropertyValue::Bool(i % 2 == 0),
                PropertyValue::Int(i),
                PropertyValue::Float(x),
                PropertyValue::String(s),
            ];
            let mut out = Vec::new();
            values.iter().for_each(|v| put_value(&mut out, v));
            let mut r = Reader::new(&out);
            for v in values {
                prop_assert_eq!(r.value().unwrap(), v);
            }
            prop_assert!(r.finish().is_ok());
        }
    }
}

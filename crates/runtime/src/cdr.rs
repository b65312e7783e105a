//! CDR — CORBA's Common Data Representation, as carried by IIOP.
//!
//! Primitives are *naturally aligned* relative to the start of the
//! encapsulation, in the sender's byte order (a GIOP header flag says
//! which).  Strings carry a length that *includes* a NUL terminator.

use crate::buf::{MarshalBuf, MsgReader};
use crate::error::DecodeError;

/// Byte order of a CDR stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteOrder {
    /// Big-endian ("network order"; the paper's SPARC machines).
    Big,
    /// Little-endian (the GIOP flag bit set).
    Little,
}

impl ByteOrder {
    /// The GIOP flags-byte encoding of this order.
    #[inline]
    #[must_use]
    pub fn giop_flag(self) -> u8 {
        match self {
            ByteOrder::Big => 0,
            ByteOrder::Little => 1,
        }
    }

    /// Parses the GIOP flags byte.
    #[inline]
    pub fn from_giop_flag(flags: u8) -> Self {
        if flags & 1 == 0 {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        }
    }

    /// The machine's native order.
    #[inline]
    #[must_use]
    pub fn native() -> Self {
        if cfg!(target_endian = "little") {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        }
    }
}

/// CDR encoder state: a byte order plus the stream-start offset that
/// alignment is computed against.
#[derive(Clone, Copy, Debug)]
pub struct CdrOut {
    /// Byte order of the stream.
    pub order: ByteOrder,
    /// Buffer offset where the CDR stream begins (alignment origin).
    pub base: usize,
}

impl CdrOut {
    /// A stream beginning at the buffer's current end.
    #[inline]
    #[must_use]
    pub fn begin(buf: &MarshalBuf, order: ByteOrder) -> Self {
        CdrOut {
            order,
            base: buf.len(),
        }
    }

    /// Pads so the next datum is `align`-aligned within the stream.
    #[inline]
    pub fn align(&self, buf: &mut MarshalBuf, align: usize) {
        let pos = buf.len() - self.base;
        let target = crate::align_up(pos, align);
        buf.put_zeros(target - pos);
    }

    /// Appends an aligned `u32`.
    #[inline]
    pub fn put_u32(&self, buf: &mut MarshalBuf, v: u32) {
        self.align(buf, 4);
        match self.order {
            ByteOrder::Big => buf.put_u32_be(v),
            ByteOrder::Little => buf.put_u32_le(v),
        }
    }

    /// Appends an aligned `i32`.
    #[inline]
    pub fn put_i32(&self, buf: &mut MarshalBuf, v: i32) {
        self.put_u32(buf, v as u32);
    }

    /// Appends an aligned `u16`.
    #[inline]
    pub fn put_u16(&self, buf: &mut MarshalBuf, v: u16) {
        self.align(buf, 2);
        let b = match self.order {
            ByteOrder::Big => v.to_be_bytes(),
            ByteOrder::Little => v.to_le_bytes(),
        };
        buf.put_bytes(&b);
    }

    /// Appends an aligned `u64`.
    #[inline]
    pub fn put_u64(&self, buf: &mut MarshalBuf, v: u64) {
        self.align(buf, 8);
        let b = match self.order {
            ByteOrder::Big => v.to_be_bytes(),
            ByteOrder::Little => v.to_le_bytes(),
        };
        buf.put_bytes(&b);
    }

    /// Appends one byte (octet/char/boolean).
    #[inline]
    pub fn put_u8(&self, buf: &mut MarshalBuf, v: u8) {
        buf.put_u8(v);
    }

    /// Appends an aligned IEEE-754 single.
    #[inline]
    pub fn put_f32(&self, buf: &mut MarshalBuf, v: f32) {
        self.put_u32(buf, v.to_bits());
    }

    /// Appends an aligned IEEE-754 double.
    #[inline]
    pub fn put_f64(&self, buf: &mut MarshalBuf, v: f64) {
        self.put_u64(buf, v.to_bits());
    }

    /// Appends a CDR string: u32 length *including* NUL, bytes, NUL.
    #[inline]
    pub fn put_string(&self, buf: &mut MarshalBuf, s: &str) {
        self.put_u32(buf, s.len() as u32 + 1);
        buf.put_bytes(s.as_bytes());
        buf.put_u8(0);
    }

    /// Appends a CDR sequence header (element count).
    #[inline]
    pub fn put_seq_len(&self, buf: &mut MarshalBuf, n: usize) {
        self.put_u32(buf, n as u32);
    }
}

/// CDR decoder state over a [`MsgReader`].
#[derive(Clone, Copy, Debug)]
pub struct CdrIn {
    /// Byte order of the stream.
    pub order: ByteOrder,
    /// Reader position where the CDR stream begins (alignment origin).
    pub base: usize,
}

impl CdrIn {
    /// A stream beginning at the reader's current position.
    #[inline]
    #[must_use]
    pub fn begin(r: &MsgReader<'_>, order: ByteOrder) -> Self {
        CdrIn {
            order,
            base: r.pos(),
        }
    }

    /// Skips padding so the next datum is `align`-aligned.
    #[inline]
    pub fn align(&self, r: &mut MsgReader<'_>, align: usize) -> Result<(), DecodeError> {
        let pos = r.pos() - self.base;
        let target = crate::align_up(pos, align);
        r.skip(target - pos)
    }

    /// Reads an aligned `u32`.
    #[inline]
    pub fn get_u32(&self, r: &mut MsgReader<'_>) -> Result<u32, DecodeError> {
        self.align(r, 4)?;
        match self.order {
            ByteOrder::Big => r.get_u32_be(),
            ByteOrder::Little => r.get_u32_le(),
        }
    }

    /// Reads an aligned `i32`.
    #[inline]
    pub fn get_i32(&self, r: &mut MsgReader<'_>) -> Result<i32, DecodeError> {
        Ok(self.get_u32(r)? as i32)
    }

    /// Reads an aligned `u16`.
    #[inline]
    pub fn get_u16(&self, r: &mut MsgReader<'_>) -> Result<u16, DecodeError> {
        self.align(r, 2)?;
        let b = r.bytes(2)?;
        Ok(match self.order {
            ByteOrder::Big => u16::from_be_bytes([b[0], b[1]]),
            ByteOrder::Little => u16::from_le_bytes([b[0], b[1]]),
        })
    }

    /// Reads an aligned `u64`.
    #[inline]
    pub fn get_u64(&self, r: &mut MsgReader<'_>) -> Result<u64, DecodeError> {
        self.align(r, 8)?;
        let b = r.bytes(8)?;
        let arr: [u8; 8] = b.try_into().expect("len 8");
        Ok(match self.order {
            ByteOrder::Big => u64::from_be_bytes(arr),
            ByteOrder::Little => u64::from_le_bytes(arr),
        })
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&self, r: &mut MsgReader<'_>) -> Result<u8, DecodeError> {
        r.get_u8()
    }

    /// Reads an aligned IEEE-754 single.
    #[inline]
    pub fn get_f32(&self, r: &mut MsgReader<'_>) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.get_u32(r)?))
    }

    /// Reads an aligned IEEE-754 double.
    #[inline]
    pub fn get_f64(&self, r: &mut MsgReader<'_>) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64(r)?))
    }

    /// Reads a CDR string, returning the bytes *without* the NUL.
    #[inline]
    pub fn get_string<'a>(&self, r: &mut MsgReader<'a>) -> Result<&'a [u8], DecodeError> {
        let n = self.get_u32(r)? as usize;
        if n == 0 {
            return Err(DecodeError::BadValue("CDR string length must include NUL"));
        }
        let s = r.bytes(n)?;
        if s[n - 1] != 0 {
            return Err(DecodeError::BadValue("CDR string missing NUL terminator"));
        }
        Ok(&s[..n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_alignment_inserts_padding() {
        let mut buf = MarshalBuf::new();
        let out = CdrOut::begin(&buf, ByteOrder::Big);
        out.put_u8(&mut buf, 7);
        out.put_u32(&mut buf, 0x01020304); // 3 bytes padding first
        assert_eq!(buf.as_slice(), &[7, 0, 0, 0, 1, 2, 3, 4]);
        out.put_u8(&mut buf, 9);
        out.put_f64(&mut buf, 1.0); // 7 bytes padding to offset 16
        assert_eq!(buf.len(), 24);
    }

    #[test]
    fn alignment_is_relative_to_stream_base() {
        let mut buf = MarshalBuf::new();
        buf.put_u8(0xAA); // pre-existing header byte
        let out = CdrOut::begin(&buf, ByteOrder::Big);
        out.put_u32(&mut buf, 5); // aligned at stream offset 0, no pad
        assert_eq!(buf.as_slice(), &[0xAA, 0, 0, 0, 5]);

        let data = buf.as_slice().to_vec();
        let mut r = MsgReader::new(&data);
        r.get_u8().unwrap();
        let cin = CdrIn::begin(&r, ByteOrder::Big);
        assert_eq!(cin.get_u32(&mut r).unwrap(), 5);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut buf = MarshalBuf::new();
        let out = CdrOut::begin(&buf, ByteOrder::Little);
        out.put_u32(&mut buf, 0x01020304);
        out.put_u16(&mut buf, 0x0506);
        out.put_u64(&mut buf, 0x0708090a0b0c0d0e);
        let data = buf.into_vec();
        assert_eq!(&data[..4], &[4, 3, 2, 1]);
        let mut r = MsgReader::new(&data);
        let cin = CdrIn::begin(&r, ByteOrder::Little);
        assert_eq!(cin.get_u32(&mut r).unwrap(), 0x01020304);
        assert_eq!(cin.get_u16(&mut r).unwrap(), 0x0506);
        assert_eq!(cin.get_u64(&mut r).unwrap(), 0x0708090a0b0c0d0e);
    }

    #[test]
    fn string_includes_nul() {
        let mut buf = MarshalBuf::new();
        let out = CdrOut::begin(&buf, ByteOrder::Big);
        out.put_string(&mut buf, "hi");
        // length 3 (incl NUL) + 'h' 'i' '\0'
        assert_eq!(buf.as_slice(), &[0, 0, 0, 3, b'h', b'i', 0]);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let cin = CdrIn::begin(&r, ByteOrder::Big);
        assert_eq!(cin.get_string(&mut r).unwrap(), b"hi");
    }

    #[test]
    fn bad_strings_rejected() {
        // Zero length.
        let data = [0, 0, 0, 0];
        let mut r = MsgReader::new(&data);
        let cin = CdrIn::begin(&r, ByteOrder::Big);
        assert!(cin.get_string(&mut r).is_err());
        // Missing NUL.
        let data = [0, 0, 0, 2, b'h', b'i'];
        let mut r = MsgReader::new(&data);
        let cin = CdrIn::begin(&r, ByteOrder::Big);
        assert!(cin.get_string(&mut r).is_err());
    }

    #[test]
    fn floats_roundtrip() {
        let mut buf = MarshalBuf::new();
        let out = CdrOut::begin(&buf, ByteOrder::Little);
        out.put_f32(&mut buf, 2.5);
        out.put_f64(&mut buf, -8.125);
        let data = buf.into_vec();
        let mut r = MsgReader::new(&data);
        let cin = CdrIn::begin(&r, ByteOrder::Little);
        assert_eq!(cin.get_f32(&mut r).unwrap(), 2.5);
        assert_eq!(cin.get_f64(&mut r).unwrap(), -8.125);
    }

    #[test]
    fn giop_flag_roundtrip() {
        assert_eq!(
            ByteOrder::from_giop_flag(ByteOrder::Big.giop_flag()),
            ByteOrder::Big
        );
        assert_eq!(
            ByteOrder::from_giop_flag(ByteOrder::Little.giop_flag()),
            ByteOrder::Little
        );
    }
}

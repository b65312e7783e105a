//! Mach 3 typed messages.
//!
//! A Mach message is a fixed header followed by *typed* data items:
//! each item is preceded by a type descriptor word giving the type
//! name, element size in bits, and element count (with a long form for
//! counts that overflow the 12-bit field).  MIG and Flick's Mach 3
//! back end both emit this format; its self-describing nature is what
//! makes MIG stubs cheap for small messages and comparatively slow for
//! large ones (Figure 7).

use crate::buf::{MarshalBuf, MsgReader};
use crate::error::DecodeError;

/// `MACH_MSG_TYPE_*` names for the types Flick emits.
pub mod type_name {
    /// 32-bit integer.
    pub const INTEGER_32: u8 = 2;
    /// 8-bit character.
    pub const CHAR: u8 = 8;
    /// Uninterpreted byte.
    pub const BYTE: u8 = 9;
    /// 64-bit integer.
    pub const INTEGER_64: u8 = 11;
    /// 32-bit real.
    pub const REAL_32: u8 = 25;
    /// 64-bit real.
    pub const REAL_64: u8 = 26;
}

/// Size of the fixed message header in bytes.
pub const HEADER_BYTES: usize = 24;

/// Largest element count expressible in a short-form descriptor.
pub const SHORT_FORM_MAX: u32 = 0x0fff;

/// The fixed Mach message header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachHeader {
    /// Message size in bytes, header included.
    pub size: u32,
    /// Destination port name.
    pub remote_port: u32,
    /// Reply port name.
    pub local_port: u32,
    /// Message id; MIG uses `base_id + procedure index`.
    pub id: i32,
}

impl MachHeader {
    /// Writes the header (native-order words, per Mach convention —
    /// Mach messages never cross byte orders on one host).
    pub fn write(&self, buf: &mut MarshalBuf) {
        // The header carries the full message size, so one hook counts
        // the whole message even though the body is written after.
        crate::metrics::encode_end(crate::metrics::Codec::Mach, u64::from(self.size));
        let mut c = buf.chunk(HEADER_BYTES);
        c.put_u32_le_at(0, 0); // msgh_bits: simple message
        c.put_u32_le_at(4, self.size);
        c.put_u32_le_at(8, self.remote_port);
        c.put_u32_le_at(12, self.local_port);
        c.put_u32_le_at(16, 0); // msgh_kind / reserved
        c.put_u32_le_at(20, self.id as u32);
    }

    /// Reads a header.
    pub fn read(r: &mut MsgReader<'_>) -> Result<Self, DecodeError> {
        let c = r.chunk(HEADER_BYTES)?;
        let h = MachHeader {
            size: c.get_u32_le_at(4),
            remote_port: c.get_u32_le_at(8),
            local_port: c.get_u32_le_at(12),
            id: c.get_u32_le_at(20) as i32,
        };
        crate::metrics::decode_end(crate::metrics::Codec::Mach, u64::from(h.size));
        Ok(h)
    }
}

/// A decoded type descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TypeDesc {
    /// `MACH_MSG_TYPE_*` name.
    pub name: u8,
    /// Element size in bits.
    pub size_bits: u8,
    /// Element count.
    pub number: u32,
}

impl TypeDesc {
    /// Total payload bytes described (count × size, byte-rounded).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        (self.number as usize * self.size_bits as usize).div_ceil(8)
    }
}

/// Writes a type descriptor, choosing short or long form by `number`.
#[inline]
pub fn put_type(buf: &mut MarshalBuf, name: u8, size_bits: u8, number: u32) {
    if number <= SHORT_FORM_MAX {
        // word = name | size << 8 | number << 16 | inline bit (1 << 28)
        let w = u32::from(name) | (u32::from(size_bits) << 8) | (number << 16) | (1 << 28); // msgt_inline
        buf.put_u32_le(w);
    } else {
        // Long form: header word with msgt_longform, then name/size and
        // number words.
        let w = (1 << 28) | (1 << 29); // inline | longform
        buf.put_u32_le(w);
        buf.put_u32_le(u32::from(name) | (u32::from(size_bits) << 16));
        buf.put_u32_le(number);
    }
}

/// Reads a type descriptor (either form).
#[inline]
pub fn get_type(r: &mut MsgReader<'_>) -> Result<TypeDesc, DecodeError> {
    let w = r.get_u32_le()?;
    if w & (1 << 29) != 0 {
        // Long form.
        let ns = r.get_u32_le()?;
        let number = r.get_u32_le()?;
        Ok(TypeDesc {
            name: (ns & 0xff) as u8,
            size_bits: ((ns >> 16) & 0xff) as u8,
            number,
        })
    } else {
        Ok(TypeDesc {
            name: (w & 0xff) as u8,
            size_bits: ((w >> 8) & 0xff) as u8,
            number: (w >> 16) & 0x0fff,
        })
    }
}

/// Writes a typed array of 32-bit integers (descriptor + data).
pub fn put_i32_array(buf: &mut MarshalBuf, data: &[i32]) {
    put_type(buf, type_name::INTEGER_32, 32, data.len() as u32);
    buf.ensure(data.len() * 4);
    for &v in data {
        buf.put_u32_le(v as u32);
    }
}

/// Reads a typed array of 32-bit integers, verifying the descriptor.
pub fn get_i32_array(r: &mut MsgReader<'_>) -> Result<Vec<i32>, DecodeError> {
    let t = get_type(r)?;
    if t.name != type_name::INTEGER_32 || t.size_bits != 32 {
        return Err(DecodeError::BadHeader("expected INTEGER_32 descriptor"));
    }
    let mut out = Vec::with_capacity(t.number as usize);
    for _ in 0..t.number {
        out.push(r.get_u32_le()? as i32);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = MachHeader {
            size: 64,
            remote_port: 5,
            local_port: 9,
            id: 2400,
        };
        let mut b = MarshalBuf::new();
        h.write(&mut b);
        assert_eq!(b.len(), HEADER_BYTES);
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        assert_eq!(MachHeader::read(&mut r).unwrap(), h);
    }

    #[test]
    fn short_form_descriptor() {
        let mut b = MarshalBuf::new();
        put_type(&mut b, type_name::INTEGER_32, 32, 16);
        assert_eq!(b.len(), 4, "short form is one word");
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        let t = get_type(&mut r).unwrap();
        assert_eq!(
            t,
            TypeDesc {
                name: 2,
                size_bits: 32,
                number: 16
            }
        );
        assert_eq!(t.payload_bytes(), 64);
    }

    #[test]
    fn long_form_descriptor() {
        let mut b = MarshalBuf::new();
        put_type(&mut b, type_name::BYTE, 8, 100_000);
        assert_eq!(b.len(), 12, "long form is three words");
        let data = b.into_vec();
        let mut r = MsgReader::new(&data);
        let t = get_type(&mut r).unwrap();
        assert_eq!(
            t,
            TypeDesc {
                name: 9,
                size_bits: 8,
                number: 100_000
            }
        );
    }

    #[test]
    fn boundary_count_uses_short_form() {
        let mut b = MarshalBuf::new();
        put_type(&mut b, type_name::CHAR, 8, SHORT_FORM_MAX);
        assert_eq!(b.len(), 4);
        let mut b2 = MarshalBuf::new();
        put_type(&mut b2, type_name::CHAR, 8, SHORT_FORM_MAX + 1);
        assert_eq!(b2.len(), 12);
    }

    #[test]
    fn i32_array_roundtrip() {
        let data: Vec<i32> = (-8..8).collect();
        let mut b = MarshalBuf::new();
        put_i32_array(&mut b, &data);
        let bytes = b.into_vec();
        let mut r = MsgReader::new(&bytes);
        assert_eq!(get_i32_array(&mut r).unwrap(), data);
        assert!(r.is_exhausted());
    }

    #[test]
    fn wrong_descriptor_rejected() {
        let mut b = MarshalBuf::new();
        put_type(&mut b, type_name::CHAR, 8, 4);
        b.put_bytes(&[0; 4]);
        let bytes = b.into_vec();
        let mut r = MsgReader::new(&bytes);
        assert!(get_i32_array(&mut r).is_err());
    }
}

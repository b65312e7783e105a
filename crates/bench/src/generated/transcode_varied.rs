//! Flick-generated transcoder — interface `Varied`, `xdr` → `cdr-le`.
//! Generated by flick-backend; do not edit.
#![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]

use flick_runtime::bridge::BridgeOp;
use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::error::DecodeError;

/// True when the `fuse-transcode` pass collapsed agreeing runs;
/// false for the decode-then-re-encode ablation build.
pub const FUSED: bool = true;
/// Source (client-facing) encoding.
pub const SRC_ENCODING: &str = "xdr";
/// Target (server-facing) encoding.
pub const DST_ENCODING: &str = "cdr-le";
/// Byte-order flag for outgoing GIOP headers on the target side.
pub const DST_LITTLE_ENDIAN: bool = true;
/// ONC RPC program / version on the source side (the wire
/// header carries 32 bits; synthesized CORBA ids truncate).
pub const PROGRAM: u32 = 2153500668u32;
pub const VERSION: u32 = 1u32;

/// Per-operation gateway table consumed by `flick_runtime::bridge`.
pub static BRIDGE_OPS: &[BridgeOp] = &[
    BridgeOp {
        proc_num: 1u32,
        name: "put_samples",
        oneway: false,
        idempotent: false,
        request: transcode_put_samples_request,
        reply: transcode_put_samples_reply,
        request_naive: transcode_put_samples_request_naive,
        reply_naive: transcode_put_samples_reply_naive,
    },
    BridgeOp {
        proc_num: 2u32,
        name: "put_grid",
        oneway: false,
        idempotent: false,
        request: transcode_put_grid_request,
        reply: transcode_put_grid_reply,
        request_naive: transcode_put_grid_request_naive,
        reply_naive: transcode_put_grid_reply_naive,
    },
    BridgeOp {
        proc_num: 3u32,
        name: "tally",
        oneway: false,
        idempotent: false,
        request: transcode_tally_request,
        reply: transcode_tally_reply,
        request_naive: transcode_tally_request_naive,
        reply_naive: transcode_tally_reply_naive,
    },
    BridgeOp {
        proc_num: 4u32,
        name: "nudge",
        oneway: true,
        idempotent: true,
        request: transcode_nudge_request,
        reply: transcode_nudge_reply,
        request_naive: transcode_nudge_request_naive,
        reply_naive: transcode_nudge_reply_naive,
    },
];

/// Rewrites the `put_samples` request body xdr → cdr-le.
pub fn transcode_put_samples_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    if _len1 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len1 as u64, bound: 64 }); }
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _v3 = r.get_u32_be()? as u32;
        buf.align_from(_db, 4);
        buf.put_u32_le((_v3) as u32);
        let _d4 = (r.get_u32_be()? as i32) as i64;
        buf.align_from(_db, 4);
        buf.put_u32_le((_d4) as u32);
        match _d4 {
            0i64 => {
                let _v5 = r.get_u32_be()? as u8;
                buf.put_u8((_v5) as u8);
            }
            1i64 => {
                let _v6 = r.get_u32_be()? as i32;
                buf.align_from(_db, 4);
                buf.put_u32_le((_v6) as u32);
            }
            2i64 => {
                let _v7 = r.get_u32_be()? as i32;
                buf.align_from(_db, 4);
                buf.put_u32_le((_v7) as u32);
            }
            _ => {
                let _v8 = f64::from_bits(r.get_u64_be()?);
                buf.align_from(_db, 8);
                buf.put_u64_le((_v8).to_bits());
            }
        }
        let _v9 = f32::from_bits(r.get_u32_be()?);
        buf.align_from(_db, 4);
        buf.put_u32_le((_v9).to_bits());
        let _v10 = f64::from_bits(r.get_u64_be()?);
        buf.align_from(_db, 8);
        buf.put_u64_le((_v10).to_bits());
        let _len11 = r.get_u32_be()? as usize;
        if _len11 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len11 as u64, bound: 32 }); }
        let _bytes12 = r.bytes(_len11)?;
        r.skip((4 - _len11 % 4) % 4)?;
        let _s13 = std::str::from_utf8(_bytes12).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
        buf.align_from(_db, 4);
        buf.put_u32_le((_s13.len() + 1) as u32);
        buf.put_bytes(_s13.as_bytes());
        buf.put_u8(0);
    }
    Ok(())
}

/// Rewrites the `put_samples` reply body cdr-le → xdr.
pub fn transcode_put_samples_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `put_samples` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_put_samples_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    if _len1 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len1 as u64, bound: 64 }); }
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _v3 = r.get_u32_be()? as u32;
        buf.align_from(_db, 4);
        buf.put_u32_le((_v3) as u32);
        let _d4 = (r.get_u32_be()? as i32) as i64;
        buf.align_from(_db, 4);
        buf.put_u32_le((_d4) as u32);
        match _d4 {
            0i64 => {
                let _v5 = r.get_u32_be()? as u8;
                buf.put_u8((_v5) as u8);
            }
            1i64 => {
                let _v6 = r.get_u32_be()? as i32;
                buf.align_from(_db, 4);
                buf.put_u32_le((_v6) as u32);
            }
            2i64 => {
                let _v7 = r.get_u32_be()? as i32;
                buf.align_from(_db, 4);
                buf.put_u32_le((_v7) as u32);
            }
            _ => {
                let _v8 = f64::from_bits(r.get_u64_be()?);
                buf.align_from(_db, 8);
                buf.put_u64_le((_v8).to_bits());
            }
        }
        let _v9 = f32::from_bits(r.get_u32_be()?);
        buf.align_from(_db, 4);
        buf.put_u32_le((_v9).to_bits());
        let _v10 = f64::from_bits(r.get_u64_be()?);
        buf.align_from(_db, 8);
        buf.put_u64_le((_v10).to_bits());
        let _len11 = r.get_u32_be()? as usize;
        if _len11 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len11 as u64, bound: 32 }); }
        let _bytes12 = r.bytes(_len11)?;
        r.skip((4 - _len11 % 4) % 4)?;
        let _s13 = String::from_utf8(_bytes12.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        buf.align_from(_db, 4);
        buf.put_u32_le((_s13.len() + 1) as u32);
        buf.put_bytes(_s13.as_bytes());
        buf.put_u8(0);
    }
    Ok(())
}

/// Rewrites the `put_samples` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_put_samples_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `put_samples` request body cdr-le → xdr (reverse gateway).
pub fn transcode_put_samples_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _len1 = r.get_u32_le()? as usize;
    if _len1 as u64 > 64 { return Err(DecodeError::BoundExceeded { got: _len1 as u64, bound: 64 }); }
    buf.put_u32_be(_len1 as u32);
    for _i2 in 0.._len1 {
        r.align_from(_sb, 4)?;
        let _v3 = r.get_u32_le()? as u32;
        buf.put_u32_be((_v3) as u32);
        r.align_from(_sb, 4)?;
        let _d4 = (r.get_u32_le()? as i32) as i64;
        buf.put_u32_be((_d4) as u32);
        match _d4 {
            0i64 => {
                let _v5 = r.get_u8()? as u8;
                buf.put_u32_be((_v5) as u32);
            }
            1i64 => {
                r.align_from(_sb, 4)?;
                let _v6 = r.get_u32_le()? as i32;
                buf.put_u32_be((_v6) as u32);
            }
            2i64 => {
                r.align_from(_sb, 4)?;
                let _v7 = r.get_u32_le()? as i32;
                buf.put_u32_be((_v7) as u32);
            }
            _ => {
                r.align_from(_sb, 8)?;
                let _v8 = f64::from_bits(r.get_u64_le()?);
                buf.put_u64_be((_v8).to_bits());
            }
        }
        r.align_from(_sb, 4)?;
        let _v9 = f32::from_bits(r.get_u32_le()?);
        buf.put_u32_be((_v9).to_bits());
        r.align_from(_sb, 8)?;
        let _v10 = f64::from_bits(r.get_u64_le()?);
        buf.put_u64_be((_v10).to_bits());
        r.align_from(_sb, 4)?;
        let _len11 = r.get_u32_le()? as usize;
        if _len11 as u64 > 32 { return Err(DecodeError::BoundExceeded { got: _len11 as u64, bound: 32 }); }
        if _len11 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes12 = &r.bytes(_len11)?[.._len11 - 1];
        let _s13 = std::str::from_utf8(_bytes12).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
        buf.put_u32_be(_s13.len() as u32);
        buf.put_bytes(_s13.as_bytes());
        buf.align_to(4);
    }
    Ok(())
}

/// Rewrites the `put_samples` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_put_samples_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `put_grid` request body xdr → cdr-le.
pub fn transcode_put_grid_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    buf.align_from(_db, 4);
    let _c1 = r.chunk(48)?; // one truncation check
    let mut _w2 = buf.chunk(48);
    for _i4 in 0..12usize {
        let _v3 = _c1.get_u32_be_at(0 + _i4 * 4) as i32;
        _w2.put_u32_le_at(0 + _i4 * 4, (_v3) as u32);
    }
    Ok(())
}

/// Rewrites the `put_grid` reply body cdr-le → xdr.
pub fn transcode_put_grid_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `put_grid` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_put_grid_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    buf.align_from(_db, 4);
    for _i1 in 0..12usize {
        let _v2 = r.get_u32_be()? as i32;
        buf.put_u32_le((_v2) as u32);
    }
    Ok(())
}

/// Rewrites the `put_grid` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_put_grid_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `put_grid` request body cdr-le → xdr (reverse gateway).
pub fn transcode_put_grid_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _c1 = r.chunk(48)?; // one truncation check
    let mut _w2 = buf.chunk(48);
    for _i4 in 0..12usize {
        let _v3 = _c1.get_u32_le_at(0 + _i4 * 4) as i32;
        _w2.put_u32_be_at(0 + _i4 * 4, (_v3) as u32);
    }
    Ok(())
}

/// Rewrites the `put_grid` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_put_grid_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `tally` request body xdr → cdr-le.
pub fn transcode_tally_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _d1 = (r.get_u32_be()? as i32) as i64;
    buf.align_from(_db, 4);
    buf.put_u32_le((_d1) as u32);
    match _d1 {
        0i64 => {
            let _v2 = r.get_u32_be()? as u8;
            buf.put_u8((_v2) as u8);
        }
        1i64 => {
            let _v3 = r.get_u32_be()? as i32;
            buf.align_from(_db, 4);
            buf.put_u32_le((_v3) as u32);
        }
        2i64 => {
            let _v4 = r.get_u32_be()? as i32;
            buf.align_from(_db, 4);
            buf.put_u32_le((_v4) as u32);
        }
        _ => {
            let _v5 = f64::from_bits(r.get_u64_be()?);
            buf.align_from(_db, 8);
            buf.put_u64_le((_v5).to_bits());
        }
    }
    let _v6 = r.get_u32_be()? as u8;
    buf.put_u8((_v6) as u8);
    Ok(())
}

/// Rewrites the `tally` reply body cdr-le → xdr.
pub fn transcode_tally_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _v1 = r.get_u32_le()? as i32;
    buf.put_u32_be((_v1) as u32);
    Ok(())
}

/// Rewrites the `tally` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_tally_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _d1 = (r.get_u32_be()? as i32) as i64;
    buf.align_from(_db, 4);
    buf.put_u32_le((_d1) as u32);
    match _d1 {
        0i64 => {
            let _v2 = r.get_u32_be()? as u8;
            buf.put_u8((_v2) as u8);
        }
        1i64 => {
            let _v3 = r.get_u32_be()? as i32;
            buf.align_from(_db, 4);
            buf.put_u32_le((_v3) as u32);
        }
        2i64 => {
            let _v4 = r.get_u32_be()? as i32;
            buf.align_from(_db, 4);
            buf.put_u32_le((_v4) as u32);
        }
        _ => {
            let _v5 = f64::from_bits(r.get_u64_be()?);
            buf.align_from(_db, 8);
            buf.put_u64_le((_v5).to_bits());
        }
    }
    let _v6 = r.get_u32_be()? as u8;
    buf.put_u8((_v6) as u8);
    Ok(())
}

/// Rewrites the `tally` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_tally_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _v1 = r.get_u32_le()? as i32;
    buf.put_u32_be((_v1) as u32);
    Ok(())
}

/// Rewrites the `tally` request body cdr-le → xdr (reverse gateway).
pub fn transcode_tally_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _d1 = (r.get_u32_le()? as i32) as i64;
    buf.put_u32_be((_d1) as u32);
    match _d1 {
        0i64 => {
            let _v2 = r.get_u8()? as u8;
            buf.put_u32_be((_v2) as u32);
        }
        1i64 => {
            r.align_from(_sb, 4)?;
            let _v3 = r.get_u32_le()? as i32;
            buf.put_u32_be((_v3) as u32);
        }
        2i64 => {
            r.align_from(_sb, 4)?;
            let _v4 = r.get_u32_le()? as i32;
            buf.put_u32_be((_v4) as u32);
        }
        _ => {
            r.align_from(_sb, 8)?;
            let _v5 = f64::from_bits(r.get_u64_le()?);
            buf.put_u64_be((_v5).to_bits());
        }
    }
    let _v6 = r.get_u8()? as u8;
    buf.put_u32_be((_v6) as u32);
    Ok(())
}

/// Rewrites the `tally` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_tally_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _v1 = r.get_u32_be()? as i32;
    buf.align_from(_db, 4);
    buf.put_u32_le((_v1) as u32);
    Ok(())
}

/// Rewrites the `nudge` request body xdr → cdr-le.
pub fn transcode_nudge_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _v1 = r.get_u32_be()? as i32 as i16;
    buf.align_from(_db, 2);
    buf.put_u16_le((_v1) as u16);
    let _v2 = r.get_u32_be()? as u16;
    buf.align_from(_db, 2);
    buf.put_u16_le((_v2) as u16);
    Ok(())
}

/// Rewrites the `nudge` reply body cdr-le → xdr.
pub fn transcode_nudge_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `nudge` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_nudge_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _v1 = r.get_u32_be()? as i32 as i16;
    buf.align_from(_db, 2);
    buf.put_u16_le((_v1) as u16);
    let _v2 = r.get_u32_be()? as u16;
    buf.align_from(_db, 2);
    buf.put_u16_le((_v2) as u16);
    Ok(())
}

/// Rewrites the `nudge` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_nudge_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `nudge` request body cdr-le → xdr (reverse gateway).
pub fn transcode_nudge_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 2)?;
    let _v1 = r.get_u16_le()? as i16;
    buf.put_u32_be((_v1) as i32 as u32);
    r.align_from(_sb, 2)?;
    let _v2 = r.get_u16_le()? as u16;
    buf.put_u32_be((_v2) as u32);
    Ok(())
}

/// Rewrites the `nudge` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_nudge_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Dispatches a `request` rewrite on the source procedure number.
pub fn transcode_request(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_put_samples_request(src, buf)?; Ok("put_samples") }
        2u32 => { transcode_put_grid_request(src, buf)?; Ok("put_grid") }
        3u32 => { transcode_tally_request(src, buf)?; Ok("tally") }
        4u32 => { transcode_nudge_request(src, buf)?; Ok("nudge") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `request_naive` rewrite on the source procedure number.
pub fn transcode_request_naive(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_put_samples_request_naive(src, buf)?; Ok("put_samples") }
        2u32 => { transcode_put_grid_request_naive(src, buf)?; Ok("put_grid") }
        3u32 => { transcode_tally_request_naive(src, buf)?; Ok("tally") }
        4u32 => { transcode_nudge_request_naive(src, buf)?; Ok("nudge") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply` rewrite on the source procedure number.
pub fn transcode_reply(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_put_samples_reply(src, buf),
        2u32 => transcode_put_grid_reply(src, buf),
        3u32 => transcode_tally_reply(src, buf),
        4u32 => transcode_nudge_reply(src, buf),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply_naive` rewrite on the source procedure number.
pub fn transcode_reply_naive(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_put_samples_reply_naive(src, buf),
        2u32 => transcode_put_grid_reply_naive(src, buf),
        3u32 => transcode_tally_reply_naive(src, buf),
        4u32 => transcode_nudge_reply_naive(src, buf),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply_rev` rewrite on the source procedure number.
pub fn transcode_reply_rev(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_put_samples_reply_rev(src, buf),
        2u32 => transcode_put_grid_reply_rev(src, buf),
        3u32 => transcode_tally_reply_rev(src, buf),
        4u32 => transcode_nudge_reply_rev(src, buf),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Reads a zero-padded machine word of the discriminator (§3.3:
/// "Flick generates demultiplexing code that examines machine
/// word-size chunks of the discriminator").
#[inline]
fn word_at(s: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    if i < s.len() {
        let n = (s.len() - i).min(4);
        w[..n].copy_from_slice(&s[i..i + n]);
    }
    u32::from_ne_bytes(w)
}

/// Reverse-gateway request dispatch on the wire operation name,
/// demultiplexed word by word; returns the procedure number for
/// the outgoing call header.
pub fn transcode_request_by_name(op: &[u8], src: &[u8], buf: &mut MarshalBuf) -> Result<u32, DecodeError> {
    match word_at(op, 0) {
        1601467760u32 => {
            match word_at(op, 4) {
                1684632167u32 if op.len() == 8 => { // "put_grid"
                    transcode_put_grid_request_rev(src, buf)?;
                    Ok(2u32)
                }
                1886216563u32 => {
                    match word_at(op, 8) {
                        7562604u32 if op.len() == 11 => { // "put_samples"
                            transcode_put_samples_request_rev(src, buf)?;
                            Ok(1u32)
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        1734636910u32 => {
            match word_at(op, 4) {
                101u32 if op.len() == 5 => { // "nudge"
                    transcode_nudge_request_rev(src, buf)?;
                    Ok(4u32)
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        1819042164u32 => {
            match word_at(op, 4) {
                121u32 if op.len() == 5 => { // "tally"
                    transcode_tally_request_rev(src, buf)?;
                    Ok(3u32)
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
    }
}


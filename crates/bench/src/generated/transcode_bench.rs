//! Flick-generated transcoder — interface `Bench`, `xdr` → `cdr-le`.
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
pub const PROGRAM: u32 = 4219518105u32;
pub const VERSION: u32 = 1u32;

/// Per-operation gateway table consumed by `flick_runtime::bridge`.
pub static BRIDGE_OPS: &[BridgeOp] = &[
    BridgeOp {
        proc_num: 1u32,
        name: "send_ints",
        oneway: false,
        idempotent: false,
        request: transcode_send_ints_request,
        reply: transcode_send_ints_reply,
        request_naive: transcode_send_ints_request_naive,
        reply_naive: transcode_send_ints_reply_naive,
    },
    BridgeOp {
        proc_num: 2u32,
        name: "send_rects",
        oneway: false,
        idempotent: false,
        request: transcode_send_rects_request,
        reply: transcode_send_rects_reply,
        request_naive: transcode_send_rects_request_naive,
        reply_naive: transcode_send_rects_reply_naive,
    },
    BridgeOp {
        proc_num: 3u32,
        name: "send_dirents",
        oneway: false,
        idempotent: false,
        request: transcode_send_dirents_request,
        reply: transcode_send_dirents_reply,
        request_naive: transcode_send_dirents_request_naive,
        reply_naive: transcode_send_dirents_reply_naive,
    },
    BridgeOp {
        proc_num: 4u32,
        name: "echo_stat",
        oneway: false,
        idempotent: false,
        request: transcode_echo_stat_request,
        reply: transcode_echo_stat_reply,
        request_naive: transcode_echo_stat_request_naive,
        reply_naive: transcode_echo_stat_reply_naive,
    },
];

/// Rewrites the `send_ints` request body xdr → cdr-le.
pub fn transcode_send_ints_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    buf.align_from(_db, 4);
    for _i2 in 0.._len1 {
        let _v3 = r.get_u32_be()? as i32;
        buf.put_u32_le((_v3) as u32);
    }
    Ok(())
}

/// Rewrites the `send_ints` reply body cdr-le → xdr.
pub fn transcode_send_ints_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_ints` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_send_ints_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    buf.align_from(_db, 4);
    let mut _v2: Vec<i32> = Vec::with_capacity(_len1.min(r.remaining() / 4 + 1));
    for _i3 in 0.._len1 {
        _v2.push(r.get_u32_be()? as i32);
    }
    for _e4 in &_v2 {
        buf.put_u32_le((*_e4) as u32);
    }
    Ok(())
}

/// Rewrites the `send_ints` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_send_ints_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_ints` request body cdr-le → xdr (reverse gateway).
pub fn transcode_send_ints_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _len1 = r.get_u32_le()? as usize;
    buf.put_u32_be(_len1 as u32);
    r.align_from(_sb, 4)?;
    for _i2 in 0.._len1 {
        let _v3 = r.get_u32_le()? as i32;
        buf.put_u32_be((_v3) as u32);
    }
    Ok(())
}

/// Rewrites the `send_ints` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_send_ints_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_rects` request body xdr → cdr-le.
pub fn transcode_send_rects_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        buf.align_from(_db, 4);
        let _c3 = r.chunk(16)?; // one truncation check
        let mut _w4 = buf.chunk(16);
        for _i6 in 0..4usize {
            let _v5 = _c3.get_u32_be_at(0 + _i6 * 4) as i32;
            _w4.put_u32_le_at(0 + _i6 * 4, (_v5) as u32);
        }
    }
    Ok(())
}

/// Rewrites the `send_rects` reply body cdr-le → xdr.
pub fn transcode_send_rects_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_rects` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_send_rects_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        buf.align_from(_db, 4);
        for _i3 in 0..4usize {
            let _v4 = r.get_u32_be()? as i32;
            buf.put_u32_le((_v4) as u32);
        }
    }
    Ok(())
}

/// Rewrites the `send_rects` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_send_rects_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_rects` request body cdr-le → xdr (reverse gateway).
pub fn transcode_send_rects_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _len1 = r.get_u32_le()? as usize;
    buf.put_u32_be(_len1 as u32);
    for _i2 in 0.._len1 {
        r.align_from(_sb, 4)?;
        let _c3 = r.chunk(16)?; // one truncation check
        let mut _w4 = buf.chunk(16);
        for _i6 in 0..4usize {
            let _v5 = _c3.get_u32_le_at(0 + _i6 * 4) as i32;
            _w4.put_u32_be_at(0 + _i6 * 4, (_v5) as u32);
        }
    }
    Ok(())
}

/// Rewrites the `send_rects` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_send_rects_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_dirents` request body xdr → cdr-le.
pub fn transcode_send_dirents_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _len3 = r.get_u32_be()? as usize;
        let _bytes4 = r.bytes(_len3)?;
        r.skip((4 - _len3 % 4) % 4)?;
        let _s5 = std::str::from_utf8(_bytes4).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
        buf.align_from(_db, 4);
        buf.put_u32_le((_s5.len() + 1) as u32);
        buf.put_bytes(_s5.as_bytes());
        buf.put_u8(0);
        buf.align_from(_db, 4);
        let _c6 = r.chunk(136)?; // one truncation check
        let mut _w7 = buf.chunk(136);
        for _i9 in 0..30usize {
            let _v8 = _c6.get_u32_be_at(0 + _i9 * 4) as i32;
            _w7.put_u32_le_at(0 + _i9 * 4, (_v8) as u32);
        }
        _w7.put_bytes_at(120, _c6.bytes_at(120, 16)); // fused: 16 values block-copied
    }
    Ok(())
}

/// Rewrites the `send_dirents` reply body cdr-le → xdr.
pub fn transcode_send_dirents_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_dirents` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_send_dirents_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    let _len1 = r.get_u32_be()? as usize;
    buf.align_from(_db, 4);
    buf.put_u32_le(_len1 as u32);
    for _i2 in 0.._len1 {
        let _len3 = r.get_u32_be()? as usize;
        let _bytes4 = r.bytes(_len3)?;
        r.skip((4 - _len3 % 4) % 4)?;
        let _s5 = String::from_utf8(_bytes4.to_vec()).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?;
        buf.align_from(_db, 4);
        buf.put_u32_le((_s5.len() + 1) as u32);
        buf.put_bytes(_s5.as_bytes());
        buf.put_u8(0);
        buf.align_from(_db, 4);
        for _i6 in 0..30usize {
            let _v7 = r.get_u32_be()? as i32;
            buf.put_u32_le((_v7) as u32);
        }
        for _i8 in 0..16usize {
            let _v9 = r.get_u8()? as u8;
            buf.put_u8((_v9) as u8);
        }
    }
    Ok(())
}

/// Rewrites the `send_dirents` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_send_dirents_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `send_dirents` request body cdr-le → xdr (reverse gateway).
pub fn transcode_send_dirents_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _len1 = r.get_u32_le()? as usize;
    buf.put_u32_be(_len1 as u32);
    for _i2 in 0.._len1 {
        r.align_from(_sb, 4)?;
        let _len3 = r.get_u32_le()? as usize;
        if _len3 == 0 { return Err(DecodeError::BadValue("CDR string length must include NUL")); }
        let _bytes4 = &r.bytes(_len3)?[.._len3 - 1];
        let _s5 = std::str::from_utf8(_bytes4).map_err(|_| DecodeError::BadValue("string is not UTF-8"))?; // zero-copy
        buf.put_u32_be(_s5.len() as u32);
        buf.put_bytes(_s5.as_bytes());
        buf.align_to(4);
        r.align_from(_sb, 4)?;
        let _c6 = r.chunk(136)?; // one truncation check
        let mut _w7 = buf.chunk(136);
        for _i9 in 0..30usize {
            let _v8 = _c6.get_u32_le_at(0 + _i9 * 4) as i32;
            _w7.put_u32_be_at(0 + _i9 * 4, (_v8) as u32);
        }
        _w7.put_bytes_at(120, _c6.bytes_at(120, 16)); // fused: 16 values block-copied
    }
    Ok(())
}

/// Rewrites the `send_dirents` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_send_dirents_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let _ = (src, buf);
    Ok(())
}

/// Rewrites the `echo_stat` request body xdr → cdr-le.
pub fn transcode_echo_stat_request(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    buf.align_from(_db, 4);
    let _c1 = r.chunk(136)?; // one truncation check
    let mut _w2 = buf.chunk(136);
    for _i4 in 0..30usize {
        let _v3 = _c1.get_u32_be_at(0 + _i4 * 4) as i32;
        _w2.put_u32_le_at(0 + _i4 * 4, (_v3) as u32);
    }
    _w2.put_bytes_at(120, _c1.bytes_at(120, 16)); // fused: 16 values block-copied
    Ok(())
}

/// Rewrites the `echo_stat` reply body cdr-le → xdr.
pub fn transcode_echo_stat_reply(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _c1 = r.chunk(136)?; // one truncation check
    let mut _w2 = buf.chunk(136);
    for _i4 in 0..30usize {
        let _v3 = _c1.get_u32_le_at(0 + _i4 * 4) as i32;
        _w2.put_u32_be_at(0 + _i4 * 4, (_v3) as u32);
    }
    _w2.put_bytes_at(120, _c1.bytes_at(120, 16)); // fused: 16 values block-copied
    Ok(())
}

/// Rewrites the `echo_stat` request body xdr → cdr-le slot by slot (the fuse-transcode ablation path).
pub fn transcode_echo_stat_request_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    buf.align_from(_db, 4);
    for _i1 in 0..30usize {
        let _v2 = r.get_u32_be()? as i32;
        buf.put_u32_le((_v2) as u32);
    }
    for _i3 in 0..16usize {
        let _v4 = r.get_u8()? as u8;
        buf.put_u8((_v4) as u8);
    }
    Ok(())
}

/// Rewrites the `echo_stat` reply body cdr-le → xdr slot by slot (the fuse-transcode ablation path).
pub fn transcode_echo_stat_reply_naive(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    for _i1 in 0..30usize {
        let _v2 = r.get_u32_le()? as i32;
        buf.put_u32_be((_v2) as u32);
    }
    for _i3 in 0..16usize {
        let _v4 = r.get_u8()? as u8;
        buf.put_u8((_v4) as u8);
    }
    Ok(())
}

/// Rewrites the `echo_stat` request body cdr-le → xdr (reverse gateway).
pub fn transcode_echo_stat_request_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    r.align_from(_sb, 4)?;
    let _c1 = r.chunk(136)?; // one truncation check
    let mut _w2 = buf.chunk(136);
    for _i4 in 0..30usize {
        let _v3 = _c1.get_u32_le_at(0 + _i4 * 4) as i32;
        _w2.put_u32_be_at(0 + _i4 * 4, (_v3) as u32);
    }
    _w2.put_bytes_at(120, _c1.bytes_at(120, 16)); // fused: 16 values block-copied
    Ok(())
}

/// Rewrites the `echo_stat` reply body xdr → cdr-le (reverse gateway).
pub fn transcode_echo_stat_reply_rev(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    let mut _reader = MsgReader::new(src);
    let r = &mut _reader;
    let _sb = r.pos();
    let _db = buf.len();
    buf.align_from(_db, 4);
    let _c1 = r.chunk(136)?; // one truncation check
    let mut _w2 = buf.chunk(136);
    for _i4 in 0..30usize {
        let _v3 = _c1.get_u32_be_at(0 + _i4 * 4) as i32;
        _w2.put_u32_le_at(0 + _i4 * 4, (_v3) as u32);
    }
    _w2.put_bytes_at(120, _c1.bytes_at(120, 16)); // fused: 16 values block-copied
    Ok(())
}

/// Dispatches a `request` rewrite on the source procedure number.
pub fn transcode_request(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_send_ints_request(src, buf)?; Ok("send_ints") }
        2u32 => { transcode_send_rects_request(src, buf)?; Ok("send_rects") }
        3u32 => { transcode_send_dirents_request(src, buf)?; Ok("send_dirents") }
        4u32 => { transcode_echo_stat_request(src, buf)?; Ok("echo_stat") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `request_naive` rewrite on the source procedure number.
pub fn transcode_request_naive(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<&'static str, DecodeError> {
    match proc_num {
        1u32 => { transcode_send_ints_request_naive(src, buf)?; Ok("send_ints") }
        2u32 => { transcode_send_rects_request_naive(src, buf)?; Ok("send_rects") }
        3u32 => { transcode_send_dirents_request_naive(src, buf)?; Ok("send_dirents") }
        4u32 => { transcode_echo_stat_request_naive(src, buf)?; Ok("echo_stat") }
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply` rewrite on the source procedure number.
pub fn transcode_reply(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_send_ints_reply(src, buf),
        2u32 => transcode_send_rects_reply(src, buf),
        3u32 => transcode_send_dirents_reply(src, buf),
        4u32 => transcode_echo_stat_reply(src, buf),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply_naive` rewrite on the source procedure number.
pub fn transcode_reply_naive(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_send_ints_reply_naive(src, buf),
        2u32 => transcode_send_rects_reply_naive(src, buf),
        3u32 => transcode_send_dirents_reply_naive(src, buf),
        4u32 => transcode_echo_stat_reply_naive(src, buf),
        _ => Err(DecodeError::BadHeader("unknown procedure")),
    }
}

/// Dispatches a `reply_rev` rewrite on the source procedure number.
pub fn transcode_reply_rev(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {
    match proc_num {
        1u32 => transcode_send_ints_reply_rev(src, buf),
        2u32 => transcode_send_rects_reply_rev(src, buf),
        3u32 => transcode_send_dirents_reply_rev(src, buf),
        4u32 => transcode_echo_stat_reply_rev(src, buf),
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
        1684956531u32 => {
            match word_at(op, 4) {
                1667592799u32 => {
                    match word_at(op, 8) {
                        29556u32 if op.len() == 10 => { // "send_rects"
                            transcode_send_rects_request_rev(src, buf)?;
                            Ok(2u32)
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                1919509599u32 => {
                    match word_at(op, 8) {
                        1937010277u32 if op.len() == 12 => { // "send_dirents"
                            transcode_send_dirents_request_rev(src, buf)?;
                            Ok(3u32)
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                1953392991u32 => {
                    match word_at(op, 8) {
                        115u32 if op.len() == 9 => { // "send_ints"
                            transcode_send_ints_request_rev(src, buf)?;
                            Ok(1u32)
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        1869112165u32 => {
            match word_at(op, 4) {
                1635021663u32 => {
                    match word_at(op, 8) {
                        116u32 if op.len() == 9 => { // "echo_stat"
                            transcode_echo_stat_request_rev(src, buf)?;
                            Ok(4u32)
                        }
                        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
                    }
                }
                _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
            }
        }
        _ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),
    }
}


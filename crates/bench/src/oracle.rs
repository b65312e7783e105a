//! The endpoint-composition oracle for the generated gateways.
//!
//! A transcoder from encoding A to encoding B must behave like the two
//! endpoint stubs composed: decode with A's generated decoder, then
//! re-encode the presented values with B's generated encoder — a
//! converter is two marshalers over one type description
//! (Fisher/Pucella/Reppy).  These functions are that composition for
//! the checked-in `Bench` gateway (`tests/bridge.rs` composes the
//! `Varied` one the same way).  They are written against the endpoint
//! stubs only, so they check the gateway lowering independently of its
//! own fused and `_naive` twins.

use flick_runtime::{DecodeError, MarshalBuf, MsgReader};

use crate::generated::{iiop_bench as ib, onc_bench as ob};

/// One composed leg: `Ok` with the re-encoded body in `out`, or the
/// decoder's rejection.
pub type Composed = Result<(), DecodeError>;

/// The rejection of a procedure the interface does not define.
pub fn unknown() -> Composed {
    Err(DecodeError::BadHeader("unknown procedure"))
}

fn stat_to_cdr(s: &ob::Stat) -> ib::Stat {
    ib::Stat {
        fields: s.fields,
        tag: s.tag,
    }
}

fn stat_to_xdr(s: &ib::Stat) -> ob::Stat {
    ob::Stat {
        fields: s.fields,
        tag: s.tag,
    }
}

fn point_to_cdr(p: &ob::Point) -> ib::Point {
    ib::Point { x: p.x, y: p.y }
}

/// `Bench` request leg, ONC/XDR → IIOP/CDR:
/// `iiop_bench::encode_*_request(onc_bench::decode_*_request(body))`.
///
/// # Errors
/// The XDR decoder's rejection of `body`.
pub fn bench_request(proc_num: u32, body: &[u8], out: &mut MarshalBuf) -> Composed {
    let r = &mut MsgReader::new(body);
    match proc_num {
        1 => ib::encode_send_ints_request(out, &ob::decode_send_ints_request(r)?.0),
        2 => {
            let (rects,) = ob::decode_send_rects_request(r)?;
            let rects: Vec<ib::Rect> = rects
                .iter()
                .map(|x| ib::Rect {
                    min: point_to_cdr(&x.min),
                    max: point_to_cdr(&x.max),
                })
                .collect();
            ib::encode_send_rects_request(out, &rects);
        }
        3 => {
            let (entries,) = ob::decode_send_dirents_request(r)?;
            let entries: Vec<ib::Dirent> = entries
                .iter()
                .map(|d| ib::Dirent {
                    name: d.name.clone(),
                    info: stat_to_cdr(&d.info),
                })
                .collect();
            ib::encode_send_dirents_request(out, &entries);
        }
        4 => ib::encode_echo_stat_request(out, &stat_to_cdr(&ob::decode_echo_stat_request(r)?.0)),
        _ => return unknown(),
    }
    Ok(())
}

/// `Bench` reply leg, IIOP/CDR → ONC/XDR:
/// `onc_bench::encode_*_reply(iiop_bench::decode_*_reply(body))`.
///
/// # Errors
/// The CDR decoder's rejection of `body`.
pub fn bench_reply(proc_num: u32, body: &[u8], out: &mut MarshalBuf) -> Composed {
    let r = &mut MsgReader::new(body);
    match proc_num {
        1 => {
            ib::decode_send_ints_reply(r)?;
            ob::encode_send_ints_reply(out);
        }
        2 => {
            ib::decode_send_rects_reply(r)?;
            ob::encode_send_rects_reply(out);
        }
        3 => {
            ib::decode_send_dirents_reply(r)?;
            ob::encode_send_dirents_reply(out);
        }
        4 => ob::encode_echo_stat_reply(out, &stat_to_xdr(&ib::decode_echo_stat_reply(r)?.0)),
        _ => return unknown(),
    }
    Ok(())
}

//! The transcoding gateway end-to-end: an ONC client talks through
//! [`flick_runtime::bridge::Bridge`] (driving the generated
//! `transcode_bench` rewrites) to the generated IIOP server, including
//! a hostile link seeded with [`flick_transport::fault::FaultPlan`].
//!
//! The load-bearing claims: the fused encoding-to-encoding rewrites are
//! **byte-identical** to the slot-by-slot (`fuse-transcode` ablated)
//! path on both legs, for clean and hostile traffic alike; and both
//! agree with the endpoint composition (decode with one generated stub
//! module, re-encode with the other, see `flick_bench::oracle`), which
//! checks the gateway lowering independently of its own twins.
//!
//! One presented-value difference is known and deliberate: a union arm
//! with several labels (`Shade`'s `case 1: case 2:`) presents as one
//! variant, so the composition re-encodes the arm's first label while
//! the gateway forwards the label it read.

use flick_bench::generated::{
    iiop_bench, onc_bench, transcode_bench, transcode_varied, varied_iiop, varied_onc,
};
use flick_bench::{data, oracle};
use flick_runtime::bridge::{Bridge, BridgeOutcome};
use flick_runtime::buf::{MarshalBuf, MsgReader};
use flick_runtime::cdr::ByteOrder;
use flick_runtime::oncrpc::{self, CallHeader, ReplyVerdict};
use flick_runtime::DecodeError;
use flick_transport::fault::{FaultConfig, FaultPlan};

struct Srv;

impl iiop_bench::Server for Srv {
    fn send_ints(&mut self, _vals: Vec<i32>) {}
    fn send_rects(&mut self, _rects: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _entries: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        s
    }
}

/// The upstream half: one in-process generated GIOP server.
fn upstream(msg: &[u8]) -> Option<Vec<u8>> {
    let mut reply = MarshalBuf::new();
    if iiop_bench::handle_message(msg, &mut reply, &mut Srv) {
        Some(reply.as_slice().to_vec())
    } else {
        None
    }
}

fn order() -> ByteOrder {
    if transcode_bench::DST_LITTLE_ENDIAN {
        ByteOrder::Little
    } else {
        ByteOrder::Big
    }
}

fn bridge(naive: bool) -> Bridge {
    Bridge::new(
        transcode_bench::BRIDGE_OPS,
        transcode_bench::PROGRAM,
        transcode_bench::VERSION,
        b"bench-object",
        order(),
        naive,
    )
}

/// One complete ONC call record: header plus an XDR body built by the
/// generated client encoder.
fn record(proc_num: u32, body: impl FnOnce(&mut MarshalBuf)) -> Vec<u8> {
    let mut b = MarshalBuf::new();
    CallHeader {
        xid: 0x5eed_0000 + proc_num,
        prog: transcode_bench::PROGRAM,
        vers: transcode_bench::VERSION,
        proc: proc_num,
    }
    .write(&mut b);
    body(&mut b);
    b.into_vec()
}

/// The four bench operations as call records over the shared workload.
fn workload_records() -> Vec<Vec<u8>> {
    vec![
        record(1, |b| {
            onc_bench::encode_send_ints_request(b, &data::onc::ints(64));
        }),
        record(2, |b| {
            onc_bench::encode_send_rects_request(b, &data::onc::rects(16));
        }),
        record(3, |b| {
            onc_bench::encode_send_dirents_request(b, &data::onc::dirents(4));
        }),
        record(4, |b| {
            onc_bench::encode_echo_stat_request(b, &data::onc::stat());
        }),
    ]
}

fn verdict_of(reply: &[u8]) -> (u32, ReplyVerdict) {
    let mut r = MsgReader::new(reply);
    oncrpc::read_reply_verdict(&mut r).expect("reply parses")
}

#[test]
fn gateway_round_trips_the_bench_workload() {
    let mut b = bridge(false);
    let mut reply = MarshalBuf::new();
    for rec in workload_records() {
        let out = b.handle_record(&rec, &mut reply, &mut upstream);
        assert_eq!(out, BridgeOutcome::Replied);
        let (_, verdict) = verdict_of(reply.as_slice());
        assert_eq!(verdict, ReplyVerdict::Success, "op must forward cleanly");
    }
    assert_eq!(b.counters().forwarded, 4);
    assert_eq!(b.counters().rejected, 0);
    assert_eq!(b.counters().fallback, 0);

    // echo_stat's reply crossed CDR and came back as XDR the generated
    // ONC client can decode — and the stat survived both rewrites.
    let rec = record(4, |buf| {
        onc_bench::encode_echo_stat_request(buf, &data::onc::stat());
    });
    b.handle_record(&rec, &mut reply, &mut upstream);
    let mut r = MsgReader::new(reply.as_slice());
    let (xid, verdict) = oncrpc::read_reply_verdict(&mut r).unwrap();
    assert_eq!((xid, verdict), (0x5eed_0004, ReplyVerdict::Success));
    let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("XDR reply decodes");
    assert_eq!(back, data::onc::stat());
    assert!(r.is_exhausted());
}

#[test]
fn fused_path_is_byte_identical_to_naive_on_both_legs() {
    let mut fused = bridge(false);
    let mut naive = bridge(true);
    for rec in workload_records() {
        let mut sent_fused = Vec::new();
        let mut sent_naive = Vec::new();
        let mut reply_fused = MarshalBuf::new();
        let mut reply_naive = MarshalBuf::new();
        fused.handle_record(&rec, &mut reply_fused, &mut |msg: &[u8]| {
            sent_fused = msg.to_vec();
            upstream(msg)
        });
        naive.handle_record(&rec, &mut reply_naive, &mut |msg: &[u8]| {
            sent_naive = msg.to_vec();
            upstream(msg)
        });
        assert_eq!(
            sent_fused, sent_naive,
            "request leg: fused GIOP bytes must match the ablated path"
        );
        assert_eq!(
            reply_fused.as_slice(),
            reply_naive.as_slice(),
            "reply leg: fused XDR bytes must match the ablated path"
        );
    }
    assert_eq!(fused.counters().fallback, 0);
    assert_eq!(
        naive.counters().fallback,
        4,
        "naive requests count as fallbacks"
    );
    assert_eq!(naive.counters().forwarded, 4);
}

#[test]
fn hostile_link_rejects_identically_on_fused_and_naive_paths() {
    // A corrupting client->gateway link: truncations and bit flips at
    // 25% each, seeded so every run sees the same hostile stream.
    let mut plan: FaultPlan<Vec<u8>> = FaultPlan::new(FaultConfig::corrupting(0xF11C, 250, 250));
    let mut fused = bridge(false);
    let mut naive = bridge(true);
    let clean = workload_records();
    let (mut delivered, mut answered) = (0u64, 0u64);
    for round in 0..60 {
        let rec = clean[round % clean.len()].clone();
        for mutated in plan.apply(rec) {
            delivered += 1;
            let mut reply_fused = MarshalBuf::new();
            let mut reply_naive = MarshalBuf::new();
            let out_fused = fused.handle_record(&mutated, &mut reply_fused, &mut upstream);
            let out_naive = naive.handle_record(&mutated, &mut reply_naive, &mut upstream);
            assert_eq!(out_fused, out_naive, "accept/reject must agree");
            assert_eq!(
                reply_fused.as_slice(),
                reply_naive.as_slice(),
                "hostile record answered differently by the fused path"
            );
            if out_fused == BridgeOutcome::Replied {
                answered += 1;
                // Whatever the link did, the answer is a well-formed
                // ONC reply, never a crash or garbage.
                let _ = verdict_of(reply_fused.as_slice());
            }
        }
    }
    assert!(delivered > 30, "the link dropped nearly everything");
    assert!(answered > 0);
    let (f, n) = (fused.counters(), naive.counters());
    assert_eq!(f.forwarded, n.forwarded);
    assert_eq!(f.rejected, n.rejected);
    assert!(
        f.rejected > 0,
        "a 50% corruption rate must produce rejects (got {f:?})"
    );
    assert!(f.forwarded > 0, "some records must survive intact ({f:?})");
}

// ---- endpoint-composition oracle ----

/// One gateway leg, or its endpoint composition.
type Rewrite = fn(u32, &[u8], &mut MarshalBuf) -> Result<(), DecodeError>;

/// Runs `body` through the gateway rewrite and the endpoint
/// composition: they must agree on accept/reject, and accepted inputs
/// must produce byte-identical output.  Returns whether it was
/// accepted.
fn agrees(leg: &str, proc_num: u32, body: &[u8], gateway: Rewrite, compose: Rewrite) -> bool {
    let (mut via_gateway, mut via_stubs) = (MarshalBuf::new(), MarshalBuf::new());
    let g = gateway(proc_num, body, &mut via_gateway);
    let c = compose(proc_num, body, &mut via_stubs);
    assert_eq!(
        g.is_ok(),
        c.is_ok(),
        "{leg} proc {proc_num}: accept/reject differs on {body:02x?}: gateway={g:?} composition={c:?}"
    );
    if g.is_ok() {
        assert_eq!(
            via_gateway.as_slice(),
            via_stubs.as_slice(),
            "{leg} proc {proc_num}: bytes differ on {body:02x?}"
        );
    }
    g.is_ok()
}

/// `golden` itself, every truncation of it, and every single-byte
/// inversion of it: hostile inputs that stay near the deep paths.
fn near(golden: &[u8]) -> Vec<Vec<u8>> {
    let mut out = vec![golden.to_vec()];
    out.extend((0..golden.len()).map(|n| golden[..n].to_vec()));
    for i in 0..golden.len() {
        let mut m = golden.to_vec();
        m[i] ^= 0xff;
        out.push(m);
    }
    out
}

/// Checks every golden body and its hostile neighbours on one leg;
/// every golden body must be accepted.
fn check_leg(leg: &str, goldens: &[(u32, Vec<u8>)], gateway: Rewrite, compose: Rewrite) {
    let (mut accepted, mut rejected) = (0, 0);
    for (proc_num, golden) in goldens {
        assert!(
            agrees(leg, *proc_num, golden, gateway, compose),
            "{leg} proc {proc_num}: golden body rejected"
        );
        for body in near(golden) {
            if agrees(leg, *proc_num, &body, gateway, compose) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{leg}: {accepted} accepted, {rejected} rejected"
    );
}

fn body(encode: impl FnOnce(&mut MarshalBuf)) -> Vec<u8> {
    let mut b = MarshalBuf::new();
    encode(&mut b);
    b.into_vec()
}

#[test]
fn bench_gateway_matches_the_endpoint_composition() {
    let requests = vec![
        (
            1,
            body(|b| onc_bench::encode_send_ints_request(b, &data::onc::ints(8))),
        ),
        (
            2,
            body(|b| onc_bench::encode_send_rects_request(b, &data::onc::rects(3))),
        ),
        (
            3,
            body(|b| onc_bench::encode_send_dirents_request(b, &data::onc::dirents(2))),
        ),
        (
            4,
            body(|b| onc_bench::encode_echo_stat_request(b, &data::onc::stat())),
        ),
    ];
    for fused in [true, false] {
        let gateway: Rewrite = if fused {
            |p, s, d| transcode_bench::transcode_request(p, s, d).map(|_| ())
        } else {
            |p, s, d| transcode_bench::transcode_request_naive(p, s, d).map(|_| ())
        };
        check_leg("bench request", &requests, gateway, oracle::bench_request);
    }

    let replies = vec![
        (1, Vec::new()),
        (2, Vec::new()),
        (3, Vec::new()),
        (
            4,
            body(|b| iiop_bench::encode_echo_stat_reply(b, &data::iiop::stat())),
        ),
    ];
    check_leg(
        "bench reply",
        &replies,
        transcode_bench::transcode_reply,
        oracle::bench_reply,
    );
    check_leg(
        "bench reply (naive)",
        &replies,
        transcode_bench::transcode_reply_naive,
        oracle::bench_reply,
    );
}

fn shade_to_cdr(s: &varied_onc::Shade) -> varied_iiop::Shade {
    match *s {
        varied_onc::Shade::Warm(v) => varied_iiop::Shade::Warm(v),
        varied_onc::Shade::Cool(v) => varied_iiop::Shade::Cool(v),
        varied_onc::Shade::Other(d, v) => varied_iiop::Shade::Other(d, v),
    }
}

/// `Varied` request leg, ONC/XDR → IIOP/CDR (little-endian):
/// `varied_iiop::encode_*_request(varied_onc::decode_*_request(body))`.
fn varied_request(proc_num: u32, body: &[u8], out: &mut MarshalBuf) -> oracle::Composed {
    let r = &mut MsgReader::new(body);
    match proc_num {
        1 => {
            let (samples,) = varied_onc::decode_put_samples_request(r)?;
            let samples: Vec<varied_iiop::Sample> = samples
                .iter()
                .map(|s| varied_iiop::Sample {
                    color: s.color,
                    shade: shade_to_cdr(&s.shade),
                    weight: s.weight,
                    precise: s.precise,
                    label: s.label.clone(),
                })
                .collect();
            varied_iiop::encode_put_samples_request(out, &samples);
        }
        2 => varied_iiop::encode_put_grid_request(out, &varied_onc::decode_put_grid_request(r)?.0),
        3 => {
            let (shade, strict) = varied_onc::decode_tally_request(r)?;
            varied_iiop::encode_tally_request(out, &shade_to_cdr(&shade), strict);
        }
        4 => {
            let (dx, dy) = varied_onc::decode_nudge_request(r)?;
            varied_iiop::encode_nudge_request(out, dx, dy);
        }
        _ => return oracle::unknown(),
    }
    Ok(())
}

/// `Varied` reply leg, IIOP/CDR → ONC/XDR (the oneway `nudge` has no
/// reply).
fn varied_reply(proc_num: u32, body: &[u8], out: &mut MarshalBuf) -> oracle::Composed {
    let r = &mut MsgReader::new(body);
    match proc_num {
        1 => {
            varied_iiop::decode_put_samples_reply(r)?;
            varied_onc::encode_put_samples_reply(out);
        }
        2 => {
            varied_iiop::decode_put_grid_reply(r)?;
            varied_onc::encode_put_grid_reply(out);
        }
        3 => varied_onc::encode_tally_reply(out, varied_iiop::decode_tally_reply(r)?.0),
        _ => return oracle::unknown(),
    }
    Ok(())
}

/// One `Varied` sample per case the gateway must carry: every `Color`,
/// every `Shade` arm (the default arm with several labels), and the
/// float values a decode-then-re-encode could disturb — NaNs with
/// payloads, negative zero, infinities, subnormals.
fn varied_samples() -> Vec<varied_onc::Sample> {
    use varied_onc::{Sample, Shade};
    let shades = [
        Shade::Warm(0xa5),
        Shade::Cool(-7),
        Shade::Other(3, -0.0),
        Shade::Other(-1, f64::NAN),
        Shade::Other(i64::from(i32::MAX), f64::from_bits(0x7ff8_dead_beef_0001)),
        Shade::Other(i64::from(i32::MIN), f64::MIN_POSITIVE / 4.0),
    ];
    let floats = [
        (f32::NAN, f64::INFINITY),
        (-0.0, -0.0),
        (
            f32::from_bits(0xffc0_1234),
            f64::from_bits(0xfff0_0000_0000_0001),
        ),
        (f32::from_bits(1), f64::NEG_INFINITY),
        (1.5, 1.0e300),
    ];
    let mut out = Vec::new();
    for (i, shade) in shades.iter().enumerate() {
        let (weight, precise) = floats[i % floats.len()];
        out.push(Sample {
            color: (i % 3) as u32,
            shade: shade.clone(),
            weight,
            precise,
            label: "é".repeat(i),
        });
    }
    out
}

#[test]
fn varied_gateway_matches_the_endpoint_composition() {
    use varied_onc::Shade;
    let samples = varied_samples();
    let grid: [[i32; 4]; 3] = [[1, -2, 3, -4], [i32::MIN, i32::MAX, 0, 7], [8, 9, 10, 11]];
    let mut requests = vec![
        (
            1,
            body(|b| varied_onc::encode_put_samples_request(b, &samples)),
        ),
        (2, body(|b| varied_onc::encode_put_grid_request(b, &grid))),
        (4, body(|b| varied_onc::encode_nudge_request(b, -3, 0xfffe))),
    ];
    for s in &samples {
        for strict in [0, 1] {
            requests.push((
                3,
                body(|b| varied_onc::encode_tally_request(b, &s.shade, strict)),
            ));
        }
    }
    for fused in [true, false] {
        let gateway: Rewrite = if fused {
            |p, s, d| transcode_varied::transcode_request(p, s, d).map(|_| ())
        } else {
            |p, s, d| transcode_varied::transcode_request_naive(p, s, d).map(|_| ())
        };
        check_leg("varied request", &requests, gateway, varied_request);
    }

    let replies = vec![
        (1, Vec::new()),
        (2, Vec::new()),
        (3, body(|b| varied_iiop::encode_tally_reply(b, -5))),
    ];
    check_leg(
        "varied reply",
        &replies,
        transcode_varied::transcode_reply,
        varied_reply,
    );
    check_leg(
        "varied reply (naive)",
        &replies,
        transcode_varied::transcode_reply_naive,
        varied_reply,
    );

    // `Shade`'s second `cool` label: the gateway forwards label 2,
    // while the composition re-encodes the arm's first label (1); the
    // rest of the message is identical.
    let mut two = body(|b| varied_onc::encode_tally_request(b, &Shade::Cool(41), 1));
    two[..4].copy_from_slice(&2u32.to_be_bytes());
    let (mut via_gateway, mut via_stubs) = (MarshalBuf::new(), MarshalBuf::new());
    transcode_varied::transcode_request(3, &two, &mut via_gateway).expect("label 2 is valid");
    varied_request(3, &two, &mut via_stubs).expect("label 2 is valid");
    let mut expect = via_stubs.as_slice().to_vec();
    expect[..4].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(via_gateway.as_slice(), &expect[..]);
}

//! Structure-aware decoder fuzzing: mutate golden messages for every
//! encoding and assert the decode paths *fail safely* — they return
//! `DecodeError` (or answer a protocol-level error reply), never
//! panic, and never allocate unboundedly off a hostile length field.
//!
//! Deterministic by construction: the mutation schedule comes from a
//! seeded [`SplitMix64`], so a failing seed/iteration reproduces
//! exactly.  Usage:
//!
//! ```text
//! cargo run --release -p flick-bench --bin fuzz_decode -- [--seed N] [--iters N]
//! ```
//!
//! Exits nonzero on any panic or allocation-bound violation; CI runs
//! this with a fixed seed as a smoke test.

use std::panic::{self, AssertUnwindSafe};

use flick_bench::allocwatch::{self, PeakAlloc};
use flick_bench::generated::{fluke_bench, iiop_bench, mach_bench, onc_bench, transcode_bench};
use flick_bench::{data, oracle};
use flick_runtime::cdr::ByteOrder;
use flick_runtime::giop::{self, MsgType};
use flick_runtime::oncrpc::CallHeader;
use flick_runtime::MarshalBuf;
use flick_transport::fault::SplitMix64;

// A hostile length field must not translate into a giant allocation:
// decoders bound claimed lengths against the bytes actually present.
// The shared peak-tracking allocator enforces that mechanically (see
// `flick_bench::allocwatch`, also behind `tests/zero_alloc.rs`).
#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Hard ceiling on transient allocation while decoding one mutated
/// message.  Golden messages are a few KiB; the framing caps stop at
/// 16 MiB — anything past 32 MiB means a length field was trusted.
const ALLOC_BOUND: usize = 32 << 20;

// ---- trivial servers ----

// The position-independent encodings (XDR, Fluke) carry a reply-alias
// mark on `echo_stat`, so their servers speak the copy-on-write
// `Echoed` contract; answering `Unchanged` keeps the fuzzer on the
// request-byte-replay path the mark enables.
macro_rules! sink_server {
    ($name:ident, $module:ident, echoed) => {
        struct $name;
        impl $module::Server for $name {
            fn send_ints(&mut self, _vals: Vec<i32>) {}
            fn send_rects(&mut self, _rects: Vec<$module::Rect>) {}
            fn send_dirents(&mut self, _entries: Vec<$module::Dirent>) {}
            fn echo_stat(&mut self, _s: $module::Stat) -> flick_runtime::Echoed<$module::Stat> {
                flick_runtime::Echoed::Unchanged
            }
        }
    };
    ($name:ident, $module:ident, owned) => {
        struct $name;
        impl $module::Server for $name {
            fn send_ints(&mut self, _vals: Vec<i32>) {}
            fn send_rects(&mut self, _rects: Vec<$module::Rect>) {}
            fn send_dirents(&mut self, _entries: Vec<$module::Dirent>) {}
            fn echo_stat(&mut self, s: $module::Stat) -> $module::Stat {
                s
            }
        }
    };
}

sink_server!(OncSink, onc_bench, echoed);
sink_server!(IiopSink, iiop_bench, owned);
sink_server!(MachSink, mach_bench, owned);
sink_server!(FlukeSink, fluke_bench, echoed);

// ---- golden seed messages ----

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

/// Complete ONC call records (header + arguments) for every operation.
fn onc_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    let mut push = |f: &dyn Fn(&mut MarshalBuf), proc: u32| {
        let mut b = MarshalBuf::new();
        CallHeader {
            xid: 0x1111_0000 + proc,
            prog: PROG,
            vers: VERS,
            proc,
        }
        .write(&mut b);
        f(&mut b);
        seeds.push(b.into_vec());
    };
    push(
        &|b| onc_bench::encode_send_ints_request(b, &data::onc::ints(16)),
        1,
    );
    push(
        &|b| onc_bench::encode_send_rects_request(b, &data::onc::rects(4)),
        2,
    );
    push(
        &|b| onc_bench::encode_send_dirents_request(b, &data::onc::dirents(3)),
        3,
    );
    push(
        &|b| onc_bench::encode_echo_stat_request(b, &data::onc::stat()),
        4,
    );
    seeds
}

/// An encoder closure writing one operation's golden arguments.
type Encoder<'a> = &'a dyn Fn(&mut MarshalBuf);

/// A decode entry point: true when the mutated bytes were accepted
/// (or answered), false when they were rejected.
type Entry<'a> = &'a dyn Fn(&[u8]) -> bool;
/// One transcode path (fused or naive): proc number, source bytes, sink.
type XcPath<'a> = &'a dyn Fn(u32, &[u8], &mut MarshalBuf) -> Result<(), flick_runtime::DecodeError>;
/// One equivalence leg: name, seed corpus, fused path, naive path,
/// endpoint composition.
type XcLeg<'a> = (
    &'a str,
    &'a [(u32, Vec<u8>)],
    XcPath<'a>,
    XcPath<'a>,
    XcPath<'a>,
);

/// Complete GIOP request messages for every operation.
fn giop_seeds() -> Vec<Vec<u8>> {
    let ops: [(&str, Encoder); 4] = [
        ("send_ints", &|b| {
            iiop_bench::encode_send_ints_request(b, &data::iiop::ints(16))
        }),
        ("send_rects", &|b| {
            iiop_bench::encode_send_rects_request(b, &data::iiop::rects(4))
        }),
        ("send_dirents", &|b| {
            iiop_bench::encode_send_dirents_request(b, &data::iiop::dirents(3))
        }),
        ("echo_stat", &|b| {
            iiop_bench::encode_echo_stat_request(b, &data::iiop::stat())
        }),
    ];
    let mut seeds = Vec::new();
    for (i, (op, body)) in ops.iter().enumerate() {
        let order = ByteOrder::Big;
        let mut b = MarshalBuf::new();
        let at = giop::begin_message(&mut b, order, MsgType::Request);
        let out = flick_runtime::cdr::CdrOut::begin(&b, order);
        giop::put_request_header(&mut b, &out, 0x2222_0000 + i as u32, true, b"key", op);
        body(&mut b);
        giop::finish_message(&mut b, at, order);
        seeds.push(b.into_vec());
    }
    seeds
}

/// Mach / Fluke dispatch bodies, paired with their message id.
fn body_seeds(encode: [Encoder; 4]) -> Vec<(u32, Vec<u8>)> {
    encode
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut b = MarshalBuf::new();
            f(&mut b);
            (i as u32 + 1, b.into_vec())
        })
        .collect()
}

// ---- mutation engine ----

/// One structure-aware mutation: the golden bytes survive mostly
/// intact so the fuzz walk stays near the decoders' deep paths
/// instead of dying at the magic/header checks every time.
fn mutate(rng: &mut SplitMix64, golden: &[u8]) -> Vec<u8> {
    let mut m = golden.to_vec();
    let rolls = 1 + rng.below(3) as usize;
    for _ in 0..rolls {
        if m.is_empty() {
            break;
        }
        match rng.below(6) {
            // single-bit flip anywhere
            0 => {
                let bit = rng.below(m.len() as u64 * 8) as usize;
                m[bit / 8] ^= 1 << (bit % 8);
            }
            // overwrite one byte
            1 => {
                let at = rng.below(m.len() as u64) as usize;
                m[at] = rng.next_u32() as u8;
            }
            // truncate to a prefix
            2 => {
                let keep = rng.below(m.len() as u64 + 1) as usize;
                m.truncate(keep);
            }
            // extend with junk
            3 => {
                let extra = rng.below(64) as usize;
                m.extend((0..extra).map(|_| rng.next_u32() as u8));
            }
            // length-field tamper: stomp an aligned u32 with a huge
            // or boundary value — the classic unbounded-alloc vector
            4 => {
                if m.len() >= 4 {
                    let words = (m.len() / 4) as u64;
                    let at = rng.below(words) as usize * 4;
                    let v: u32 = match rng.below(4) {
                        0 => u32::MAX,
                        1 => 0x7fff_ffff,
                        2 => 0x0100_0000,
                        _ => rng.next_u32(),
                    };
                    m[at..at + 4].copy_from_slice(&v.to_be_bytes());
                }
            }
            // swap two bytes (reorders discriminators, lengths)
            _ => {
                let a = rng.below(m.len() as u64) as usize;
                let b = rng.below(m.len() as u64) as usize;
                m.swap(a, b);
            }
        }
    }
    m
}

// ---- per-encoding fuzz loops ----

struct Tally {
    ok: u64,
    rejected: u64,
    panics: u64,
    alloc_violations: u64,
}

fn fuzz_encoding(
    name: &str,
    seed: u64,
    iters: u64,
    seeds: &[Vec<u8>],
    decode: &dyn Fn(&[u8]) -> bool,
) -> Tally {
    let mut rng = SplitMix64::new(seed ^ name.len() as u64);
    let mut t = Tally {
        ok: 0,
        rejected: 0,
        panics: 0,
        alloc_violations: 0,
    };
    for i in 0..iters {
        let golden = &seeds[(i % seeds.len() as u64) as usize];
        let mutated = mutate(&mut rng, golden);
        let live = allocwatch::live();
        allocwatch::reset_peak();
        match panic::catch_unwind(AssertUnwindSafe(|| decode(&mutated))) {
            Ok(true) => t.ok += 1,
            Ok(false) => t.rejected += 1,
            Err(_) => {
                t.panics += 1;
                eprintln!("PANIC: encoding={name} seed={seed} iteration={i}");
            }
        }
        let delta = allocwatch::peak_delta(live);
        if delta > ALLOC_BOUND {
            t.alloc_violations += 1;
            eprintln!("ALLOC BOUND: encoding={name} seed={seed} iteration={i} peak={delta} bytes");
        }
    }
    t
}

// ---- transcode equivalence (fuse-transcode ablation property) ----

/// Fuzzes the generated gateway rewrites for equivalence: on every
/// mutated body, the fused path and the slot-by-slot (`fuse-transcode`
/// ablated) path must agree on accept/reject, and accepted inputs must
/// produce byte-identical output.  Rejections must match exactly too,
/// except that a fused block copy may observe a truncation at a
/// different offset than the per-slot loop — there, agreeing that the
/// input is truncated is the contract.
///
/// The third path is the endpoint composition (`flick_bench::oracle`:
/// decode with one generated stub module, re-encode with the other).
/// It must agree with the fused path on accept/reject and, when both
/// accept, byte for byte; its errors come from a different decoder, so
/// they are not compared.  Returns the tally, the fused/naive
/// divergences, and the fused/composition divergences.
fn fuzz_transcode(
    name: &str,
    seed: u64,
    iters: u64,
    seeds: &[(u32, Vec<u8>)],
    fused: XcPath,
    naive: XcPath,
    compose: XcPath,
) -> (Tally, u64, u64) {
    let mut rng = SplitMix64::new(seed ^ 0xfced ^ name.len() as u64);
    let mut t = Tally {
        ok: 0,
        rejected: 0,
        panics: 0,
        alloc_violations: 0,
    };
    let mut divergences = 0u64;
    let mut oracle_divergences = 0u64;
    let mut fused_out = MarshalBuf::new();
    let mut naive_out = MarshalBuf::new();
    let mut composed_out = MarshalBuf::new();
    for i in 0..iters {
        let (proc, golden) = &seeds[(i % seeds.len() as u64) as usize];
        let mutated = mutate(&mut rng, golden);
        let live = allocwatch::live();
        allocwatch::reset_peak();
        let verdict = panic::catch_unwind(AssertUnwindSafe(|| {
            fused_out.clear();
            naive_out.clear();
            composed_out.clear();
            let a = fused(*proc, &mutated, &mut fused_out);
            let b = naive(*proc, &mutated, &mut naive_out);
            let c = compose(*proc, &mutated, &mut composed_out);
            let agrees = match (&a, &c) {
                (Ok(()), Ok(())) => fused_out.as_slice() == composed_out.as_slice(),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agrees {
                oracle_divergences += 1;
                eprintln!(
                    "DIVERGED (composition): dir={name} seed={seed} iteration={i} \
                     fused={a:?} composed={c:?}"
                );
            }
            match (a, b) {
                (Ok(()), Ok(())) => {
                    if fused_out.as_slice() == naive_out.as_slice() {
                        Ok(true)
                    } else {
                        eprintln!(
                            "DIVERGED (bytes): dir={name} seed={seed} iteration={i} \
                             fused={}B naive={}B",
                            fused_out.len(),
                            naive_out.len()
                        );
                        Err(())
                    }
                }
                (Err(ea), Err(eb)) => {
                    let truncated = |e: &flick_runtime::DecodeError| {
                        matches!(e.root(), flick_runtime::DecodeError::Truncated { .. })
                    };
                    if ea == eb || (truncated(&ea) && truncated(&eb)) {
                        Ok(false)
                    } else {
                        eprintln!(
                            "DIVERGED (errors): dir={name} seed={seed} iteration={i} \
                             fused={ea:?} naive={eb:?}"
                        );
                        Err(())
                    }
                }
                (a, b) => {
                    eprintln!(
                        "DIVERGED (accept/reject): dir={name} seed={seed} iteration={i} \
                         fused={a:?} naive={b:?}"
                    );
                    Err(())
                }
            }
        }));
        match verdict {
            Ok(Ok(true)) => t.ok += 1,
            Ok(Ok(false)) => t.rejected += 1,
            Ok(Err(())) => divergences += 1,
            Err(_) => {
                t.panics += 1;
                eprintln!("PANIC: dir={name} seed={seed} iteration={i}");
            }
        }
        let delta = allocwatch::peak_delta(live);
        if delta > ALLOC_BOUND {
            t.alloc_violations += 1;
            eprintln!("ALLOC BOUND: dir={name} seed={seed} iteration={i} peak={delta} bytes");
        }
    }
    (t, divergences, oracle_divergences)
}

fn main() {
    let mut seed = 0x5eed_f11c_u64;
    let mut iters = 10_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).unwrap_or(iters),
            other => {
                eprintln!("unknown flag {other}; usage: fuzz_decode [--seed N] [--iters N]");
                std::process::exit(2);
            }
        }
    }

    // Panics are counted, not printed: silence the default hook.
    panic::set_hook(Box::new(|_| {}));

    let onc = onc_seeds();
    let giop = giop_seeds();
    let mach = body_seeds([
        &|b| mach_bench::encode_send_ints_request(b, &data::mach::ints(16)),
        &|b| mach_bench::encode_send_rects_request(b, &data::mach::rects(4)),
        &|b| mach_bench::encode_send_dirents_request(b, &data::mach::dirents(3)),
        &|b| mach_bench::encode_echo_stat_request(b, &data::mach::stat()),
    ]);
    let fluke = body_seeds([
        &|b| fluke_bench::encode_send_ints_request(b, &data::fluke::ints(16)),
        &|b| fluke_bench::encode_send_rects_request(b, &data::fluke::rects(4)),
        &|b| fluke_bench::encode_send_dirents_request(b, &data::fluke::dirents(3)),
        &|b| fluke_bench::encode_echo_stat_request(b, &data::fluke::stat()),
    ]);

    // Mach/Fluke bodies carry no message id; replay the proc schedule
    // the seeds were built with.
    let mach_bodies: Vec<Vec<u8>> = mach.iter().map(|(_, b)| b.clone()).collect();
    let fluke_bodies: Vec<Vec<u8>> = fluke.iter().map(|(_, b)| b.clone()).collect();

    let runs: [(&str, &[Vec<u8>], Entry); 4] = [
        ("xdr", &onc, &|m: &[u8]| {
            let mut reply = MarshalBuf::new();
            onc_bench::handle_call(m, PROG, VERS, &mut reply, &mut OncSink)
        }),
        ("cdr", &giop, &|m: &[u8]| {
            let mut reply = MarshalBuf::new();
            iiop_bench::handle_message(m, &mut reply, &mut IiopSink)
        }),
        ("mach", &mach_bodies, &|m: &[u8]| {
            let mut reply = MarshalBuf::new();
            let proc = 1 + (m.first().copied().unwrap_or(0) as u32 % 4);
            mach_bench::dispatch(proc, m, &mut reply, &mut MachSink).is_ok()
        }),
        ("fluke", &fluke_bodies, &|m: &[u8]| {
            let mut reply = MarshalBuf::new();
            let proc = 1 + (m.first().copied().unwrap_or(0) as u32 % 4);
            fluke_bench::dispatch(proc, m, &mut reply, &mut FlukeSink).is_ok()
        }),
    ];

    let mut failed = false;
    println!("fuzz_decode: seed={seed} iters={iters} per encoding");
    for (name, seeds, decode) in runs {
        let t = fuzz_encoding(name, seed, iters, seeds, decode);
        println!(
            "  {name:<5} ok={:<6} rejected={:<6} panics={} alloc_violations={}",
            t.ok, t.rejected, t.panics, t.alloc_violations
        );
        if t.panics > 0 || t.alloc_violations > 0 {
            failed = true;
        }
    }
    // Gateway rewrites: fused vs slot-by-slot equivalence, and fused vs
    // the endpoint composition, over mutated bodies, both legs.  The request corpus reuses the ONC records
    // with their call headers stripped; the reply corpus is the CDR
    // bodies the IIOP server would answer with (echo_stat's stat; the
    // send_* replies are empty).
    let req_seeds: Vec<(u32, Vec<u8>)> = onc
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            (
                i as u32 + 1,
                rec[flick_runtime::oncrpc::CALL_HEADER_BYTES..].to_vec(),
            )
        })
        .collect();
    let mut reply_seeds: Vec<(u32, Vec<u8>)> =
        vec![(1, Vec::new()), (2, Vec::new()), (3, Vec::new())];
    {
        let mut b = MarshalBuf::new();
        iiop_bench::encode_echo_stat_request(&mut b, &data::iiop::stat());
        reply_seeds.push((4, b.into_vec()));
    }
    let legs: [XcLeg; 2] = [
        (
            "xdr->cdr",
            &req_seeds,
            &|p, s, d| transcode_bench::transcode_request(p, s, d).map(|_| ()),
            &|p, s, d| transcode_bench::transcode_request_naive(p, s, d).map(|_| ()),
            &oracle::bench_request,
        ),
        (
            "cdr->xdr",
            &reply_seeds,
            &|p, s, d| transcode_bench::transcode_reply(p, s, d),
            &|p, s, d| transcode_bench::transcode_reply_naive(p, s, d),
            &oracle::bench_reply,
        ),
    ];
    for (name, seeds, fused, naive, compose) in legs {
        let (t, divergences, oracle_divergences) =
            fuzz_transcode(name, seed, iters, seeds, fused, naive, compose);
        println!(
            "  transcode {name:<9} ok={:<6} rejected={:<6} panics={} alloc_violations={} \
             divergences={divergences} composition_divergences={oracle_divergences}",
            t.ok, t.rejected, t.panics, t.alloc_violations
        );
        if t.panics > 0 || t.alloc_violations > 0 || divergences > 0 || oracle_divergences > 0 {
            failed = true;
        }
    }

    let _ = panic::take_hook();
    if failed {
        eprintln!("fuzz_decode: FAILED");
        std::process::exit(1);
    }
    println!("fuzz_decode: all decoders failed safely");
}

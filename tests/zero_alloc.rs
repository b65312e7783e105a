//! Zero-allocation steady state: after warmup, a complete ONC echo
//! round trip and a complete GIOP echo round trip perform **zero**
//! per-call heap allocations.
//!
//! The claim composes four mechanisms, each asserted elsewhere and
//! proven end-to-end here under a peak-tracking global allocator:
//!
//! * encode buffers come from the thread-local pool
//!   (`flick_runtime::pool`) and recycle on drop, so the warm path
//!   reuses grown capacity instead of reallocating;
//! * the `reuse-slots` pass classifies the echo argument
//!   arena-resident: a packed stat decodes through a chunk into a
//!   stack value;
//! * the `reply-alias` pass answers an `Echoed::Unchanged` reply with
//!   the request's own bytes (ONC/XDR), and the GIOP request header
//!   parses borrowed (`get_request_header_ref`), so neither server
//!   path builds owned strings or buffers;
//! * all transport headers are plain-old-data.
//!
//! The claims are per thread: every round trip runs on the test's own
//! thread, and the tests in this file run on parallel threads, so each
//! test diffs its own thread's allocation counters
//! (`allocwatch::thread_alloc_events`) — a neighbour's warmup cannot
//! land in its window.  Zero events is exactly "the heap was not
//! touched": every alloc and growing realloc counts one.

use flick_bench::allocwatch::{self, PeakAlloc};
use flick_bench::data;
use flick_bench::generated::{iiop_bench, onc_bench};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader};
use flick_runtime::{pool, MsgReader};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const PROG: u32 = 0x2000_0042;
const VERS: u32 = 1;

/// With the span recorder active (`FLICK_TELEMETRY=1` under the
/// `telemetry` feature) tracing itself may allocate; the zero-heap
/// claim is about the untraced hot path.
fn tracing_active() -> bool {
    cfg!(feature = "telemetry") && flick_telemetry::enabled()
}

struct OncId;

impl onc_bench::Server for OncId {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<onc_bench::Dirent>) {}
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

struct IiopId;

impl iiop_bench::Server for IiopId {
    fn send_ints(&mut self, _v: Vec<i32>) {}
    fn send_rects(&mut self, _v: Vec<iiop_bench::Rect>) {}
    fn send_dirents(&mut self, _v: Vec<iiop_bench::Dirent>) {}
    fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
        // CDR is position-dependent, so no `Echoed` contract here: the
        // reply re-marshals — but entirely through stack storage.
        s
    }
}

/// One complete ONC round trip: pooled client encode, robust server
/// entry (header parse + dispatch + reply marshal), client reply
/// decode.  Mirrors what the generated `call_echo_stat` stub and a
/// datagram server loop do per call, minus the socket.
fn onc_round_trip(stat: &onc_bench::Stat, srv: &mut OncId) -> i32 {
    let mut call = pool::checkout();
    CallHeader {
        xid: 7,
        prog: PROG,
        vers: VERS,
        proc: 4,
    }
    .write(&mut call);
    onc_bench::encode_echo_stat_request(&mut call, stat);

    let mut reply = pool::checkout();
    assert!(onc_bench::handle_call(
        call.as_slice(),
        PROG,
        VERS,
        &mut reply,
        srv
    ));

    let mut r = MsgReader::new(reply.as_slice());
    oncrpc::read_reply(&mut r).expect("reply accepted");
    let (back,) = onc_bench::decode_echo_stat_reply(&mut r).expect("reply decodes");
    back.fields[0]
}

/// One complete GIOP round trip: pooled client encode (full message
/// framing + request header), robust server entry, client reply-header
/// parse + body decode.
fn giop_round_trip(stat: &iiop_bench::Stat, srv: &mut IiopId) -> i32 {
    let order = ByteOrder::Big;
    let mut call = pool::checkout();
    let at = giop::begin_message(&mut call, order, MsgType::Request);
    let out = CdrOut::begin(&call, order);
    giop::put_request_header(&mut call, &out, 7, true, b"key", "echo_stat");
    iiop_bench::encode_echo_stat_request(&mut call, stat);
    giop::finish_message(&mut call, at, order);

    let mut reply = pool::checkout();
    assert!(iiop_bench::handle_message(call.as_slice(), &mut reply, srv));

    let mut r = MsgReader::new(reply.as_slice());
    let h = giop::read_header(&mut r).expect("reply header");
    let cdr = CdrIn::begin(&r, h.order);
    let rh = giop::get_reply_header(&mut r, &cdr).expect("reply ok");
    assert_eq!(rh.status, ReplyStatus::NoException);
    let (back,) = iiop_bench::decode_echo_stat_reply(&mut r).expect("reply decodes");
    back.fields[0]
}

#[test]
fn warm_onc_round_trip_is_allocation_free() {
    let stat = data::onc::stat();
    let mut srv = OncId;
    let want = stat.fields[0];
    // Warmup: grow the pooled buffers, initialize thread-locals and
    // lazies, fault in whatever the first calls need.
    for _ in 0..32 {
        assert_eq!(onc_round_trip(&stat, &mut srv), want);
    }

    let events = allocwatch::thread_alloc_events();
    let bytes = allocwatch::thread_alloc_bytes();
    let mut acc = 0i64;
    for _ in 0..100 {
        acc += i64::from(onc_round_trip(&stat, &mut srv));
    }
    std::hint::black_box(acc);

    if tracing_active() {
        return;
    }
    assert_eq!(
        allocwatch::thread_alloc_events() - events,
        0,
        "warm ONC round trips touched the heap ({} bytes over 100 calls)",
        allocwatch::thread_alloc_bytes() - bytes
    );
}

#[test]
fn warm_giop_round_trip_is_allocation_free() {
    let stat = data::iiop::stat();
    let mut srv = IiopId;
    let want = stat.fields[0];
    for _ in 0..32 {
        assert_eq!(giop_round_trip(&stat, &mut srv), want);
    }

    let events = allocwatch::thread_alloc_events();
    let bytes = allocwatch::thread_alloc_bytes();
    let mut acc = 0i64;
    for _ in 0..100 {
        acc += i64::from(giop_round_trip(&stat, &mut srv));
    }
    std::hint::black_box(acc);

    if tracing_active() {
        return;
    }
    assert_eq!(
        allocwatch::thread_alloc_events() - events,
        0,
        "warm GIOP round trips touched the heap ({} bytes over 100 calls)",
        allocwatch::thread_alloc_bytes() - bytes
    );
}

#[test]
fn pool_telemetry_sees_steady_state_hits() {
    // Independent of the allocator: after one warm call, every
    // checkout is a pool hit and every drop recycles.  The pool is
    // thread-local, so this too is a claim about this thread alone.
    let stat = data::onc::stat();
    let mut srv = OncId;
    onc_round_trip(&stat, &mut srv);
    let free_before = pool::free_buffers();
    assert!(free_before >= 2, "both call buffers recycled");
    onc_round_trip(&stat, &mut srv);
    assert_eq!(
        pool::free_buffers(),
        free_before,
        "steady state neither grows nor shrinks the free list"
    );
}

//! The runtime side: one fabric worker serving generated ONC and GIOP
//! servers (or the transcoding bridge), and one client thread driving
//! them in a closed or an open loop.
//!
//! The traced run wraps the public traits `fabric::Conn`,
//! `fabric::Acceptor`, `fabric::FrameHandler` and `bridge::UpstreamLink`
//! with timing shims; nothing inside the crates is instrumented.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use flick_bench::generated::{iiop_bench, onc_bench, transcode_bench};
use flick_runtime::bridge::{BreakerPolicy, Bridge, BridgeCounters, Supervisor, UpstreamLink};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::fabric::{
    service_handler, Accepted, Acceptor, BridgeHandler, Conn, Fabric, FabricStats, FrameHandler,
    FrameId, Framing, ReadStatus, ReplySink, WriteStatus,
};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader, RecordScan, ReplyVerdict};
use flick_runtime::{Echoed, Limits, MarshalBuf, MsgReader};
use flick_transport::listener::{listen, StreamConnector, StreamListener};
use flick_transport::stream::StreamEnd;

use crate::report;
use crate::rng::Rng;
use crate::trace::{self, Layer};

const PROG: u32 = transcode_bench::PROGRAM;
const VERS: u32 = transcode_bench::VERSION;
const OBJECT_KEY: &[u8] = b"bench-object";
/// Seeded argument variants per operation.
const VARIANTS: usize = 16;
/// Servers compare their decoded arguments with the seeded inputs on
/// one call in this many.
const SERVER_CHECK_EVERY: u64 = 8;
/// The traced run samples the calls whose xids are multiples of this:
/// it matches their client writes to handler starts, and splits their
/// handler spans at the server method's entry and exit.
const SAMPLE: u32 = 16;
const RING: usize = 1 << 16;
/// Latency samples kept per slice, at most.  A fixed budget keeps the
/// benchmark's own memory (and so `peak_rss_mib`) independent of how
/// fast the program runs.
const SLICE_SAMPLES: usize = 4096;

/// One operation of the `Bench` interface with its argument size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Ints(usize),
    Rects(usize),
    Dirents(usize),
    Stat,
}

impl Op {
    fn proc(self) -> u32 {
        match self {
            Op::Ints(_) => 1,
            Op::Rects(_) => 2,
            Op::Dirents(_) => 3,
            Op::Stat => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Op::Ints(_) => "send_ints",
            Op::Rects(_) => "send_rects",
            Op::Dirents(_) => "send_dirents",
            Op::Stat => "echo_stat",
        }
    }
}

/// How load is offered.
#[derive(Clone, Copy, Debug)]
pub enum Loop {
    /// Each connection keeps `depth` calls outstanding.
    Closed { depth: usize },
    /// Poisson arrivals at `rate` calls/s, regardless of replies.
    Open { rate: f64 },
}

/// A runtime workload: what the connections speak, the op mix, and the
/// loop.
#[derive(Clone, Debug)]
pub struct Plan {
    pub conns: Vec<Framing>,
    pub bridge: bool,
    pub ops: Vec<Op>,
    pub load: Loop,
    /// Record the latency of one call in this many (by xid).
    pub latency_stride: u32,
}

// ---------------------------------------------------------------- inputs

type RawStat = ([i32; 30], [u8; 16]);

struct Raw {
    ints: Vec<Vec<i32>>,
    rects: Vec<Vec<[i32; 4]>>,
    dirents: Vec<Vec<(String, RawStat)>>,
    stats: Vec<RawStat>,
}

fn raw_stat(rng: &mut Rng, k: usize) -> RawStat {
    let mut fields = [0i32; 30];
    for f in &mut fields {
        *f = rng.next_u64() as i32;
    }
    fields[0] = k as i32;
    let mut tag = [0u8; 16];
    for t in &mut tag {
        *t = b'a' + rng.below(26) as u8;
    }
    (fields, tag)
}

impl Raw {
    /// Seeded inputs for every op in `ops`.  Variant `k` carries `k` in
    /// its first field so a server can find the input it must equal.
    /// Sizes are fixed by the op; only contents vary with the seed.
    fn new(seed: u64, ops: &[Op]) -> Raw {
        let mut rng = Rng::new(seed ^ 0x1ed9_e500);
        let size = |want: fn(Op) -> Option<usize>| ops.iter().find_map(|&o| want(o)).unwrap_or(0);
        let n_ints = size(|o| if let Op::Ints(n) = o { Some(n) } else { None });
        let n_rects = size(|o| if let Op::Rects(n) = o { Some(n) } else { None });
        let n_dirents = size(|o| {
            if let Op::Dirents(n) = o {
                Some(n)
            } else {
                None
            }
        });
        let mut raw = Raw {
            ints: Vec::new(),
            rects: Vec::new(),
            dirents: Vec::new(),
            stats: Vec::new(),
        };
        for k in 0..VARIANTS {
            let mut ints: Vec<i32> = (0..n_ints.max(1)).map(|_| rng.next_u64() as i32).collect();
            ints[0] = k as i32;
            raw.ints.push(ints);
            let mut rects: Vec<[i32; 4]> = (0..n_rects.max(1))
                .map(|_| std::array::from_fn(|_| rng.next_u64() as i32))
                .collect();
            rects[0][0] = k as i32;
            raw.rects.push(rects);
            // Names take every length from 97 to 128 bytes in turn, so
            // each entry encodes to about 256 bytes whatever the seed.
            let dirents = (0..n_dirents.max(1))
                .map(|e| {
                    let len = 97 + e % 32;
                    let name: String = (0..len)
                        .map(|_| (b'a' + rng.below(26) as u8) as char)
                        .collect();
                    let key = if e == 0 {
                        k
                    } else {
                        rng.below(1 << 20) as usize
                    };
                    (name, raw_stat(&mut rng, key))
                })
                .collect();
            raw.dirents.push(dirents);
            raw.stats.push(raw_stat(&mut rng, k));
        }
        raw
    }
}

macro_rules! typed_inputs {
    ($name:ident, $m:ident) => {
        /// The seeded inputs in one generated module's presented types.
        pub struct $name {
            ints: Vec<Vec<i32>>,
            rects: Vec<Vec<$m::Rect>>,
            dirents: Vec<Vec<$m::Dirent>>,
            stats: Vec<$m::Stat>,
        }

        impl $name {
            fn new(raw: &Raw) -> Self {
                let stat = |s: &RawStat| $m::Stat {
                    fields: s.0,
                    tag: s.1,
                };
                $name {
                    ints: raw.ints.clone(),
                    rects: raw
                        .rects
                        .iter()
                        .map(|v| {
                            v.iter()
                                .map(|r| $m::Rect {
                                    min: $m::Point { x: r[0], y: r[1] },
                                    max: $m::Point { x: r[2], y: r[3] },
                                })
                                .collect()
                        })
                        .collect(),
                    dirents: raw
                        .dirents
                        .iter()
                        .map(|v| {
                            v.iter()
                                .map(|(name, s)| $m::Dirent {
                                    name: name.clone(),
                                    info: stat(s),
                                })
                                .collect()
                        })
                        .collect(),
                    stats: raw.stats.iter().map(stat).collect(),
                }
            }

            fn encode(&self, op: Op, k: usize, buf: &mut MarshalBuf) {
                match op {
                    Op::Ints(_) => $m::encode_send_ints_request(buf, &self.ints[k]),
                    Op::Rects(_) => $m::encode_send_rects_request(buf, &self.rects[k]),
                    Op::Dirents(_) => $m::encode_send_dirents_request(buf, &self.dirents[k]),
                    Op::Stat => $m::encode_echo_stat_request(buf, &self.stats[k]),
                }
            }

            /// Decodes a reply body and checks an echo against what was
            /// sent.
            fn check_reply(&self, op: Op, k: usize, r: &mut MsgReader<'_>) -> Result<(), String> {
                let e = |e: flick_runtime::DecodeError| format!("{} reply: {e}", op.name());
                match op {
                    Op::Ints(_) => $m::decode_send_ints_reply(r).map_err(e),
                    Op::Rects(_) => $m::decode_send_rects_reply(r).map_err(e),
                    Op::Dirents(_) => $m::decode_send_dirents_reply(r).map_err(e),
                    Op::Stat => {
                        let (s,) = $m::decode_echo_stat_reply(r).map_err(e)?;
                        if s == self.stats[k] {
                            Ok(())
                        } else {
                            Err("echoed Stat differs from the one sent".into())
                        }
                    }
                }
            }
        }
    };
}

typed_inputs!(OncInputs, onc_bench);
typed_inputs!(IiopInputs, iiop_bench);

/// The seeded inputs in both encodings' types.
pub struct Inputs {
    onc: OncInputs,
    iiop: IiopInputs,
}

impl Inputs {
    #[must_use]
    pub fn new(seed: u64, ops: &[Op]) -> Inputs {
        let raw = Raw::new(seed, ops);
        Inputs {
            onc: OncInputs::new(&raw),
            iiop: IiopInputs::new(&raw),
        }
    }
}

// ---------------------------------------------------------------- servers

/// Server-side argument checks, shared by every server instance.
#[derive(Default)]
pub struct Checks {
    pub checked: AtomicU64,
    pub failed: AtomicU64,
}

impl Checks {
    fn record(&self, ok: bool) {
        self.checked.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

macro_rules! server {
    ($name:ident, $m:ident, $ret:ident, $field:ident, $echo:expr) => {
        struct $name {
            inputs: Arc<Inputs>,
            checks: Arc<Checks>,
            calls: u64,
        }

        impl $name {
            /// True on the calls whose arguments are compared.
            fn sampled(&mut self) -> bool {
                self.calls += 1;
                self.calls % SERVER_CHECK_EVERY == 0
            }

            fn variant<T: PartialEq>(&self, key: i32, table: &[T], got: &T) -> bool {
                usize::try_from(key)
                    .ok()
                    .and_then(|k| table.get(k))
                    .is_some_and(|want| want == got)
            }
        }

        impl $m::Server for $name {
            fn send_ints(&mut self, vals: Vec<i32>) {
                trace::mark_enter();
                if self.sampled() {
                    let key = vals.first().copied().unwrap_or(-1);
                    let ok = self.variant(key, &self.inputs.$field.ints, &vals);
                    self.checks.record(ok);
                }
                trace::mark_exit();
            }

            fn send_rects(&mut self, rects: Vec<$m::Rect>) {
                trace::mark_enter();
                if self.sampled() {
                    let key = rects.first().map_or(-1, |r| r.min.x);
                    let ok = self.variant(key, &self.inputs.$field.rects, &rects);
                    self.checks.record(ok);
                }
                trace::mark_exit();
            }

            fn send_dirents(&mut self, entries: Vec<$m::Dirent>) {
                trace::mark_enter();
                if self.sampled() {
                    let key = entries.first().map_or(-1, |d| d.info.fields[0]);
                    let ok = self.variant(key, &self.inputs.$field.dirents, &entries);
                    self.checks.record(ok);
                }
                trace::mark_exit();
            }

            fn echo_stat(&mut self, s: $m::Stat) -> $ret {
                trace::mark_enter();
                if self.sampled() {
                    let ok = self.variant(s.fields[0], &self.inputs.$field.stats, &s);
                    self.checks.record(ok);
                }
                trace::mark_exit();
                $echo(s)
            }
        }
    };
}

server!(OncSrv, onc_bench, OncEcho, onc, |_| Echoed::Unchanged);
server!(IiopSrv, iiop_bench, IiopEcho, iiop, |s| s);
type OncEcho = Echoed<onc_bench::Stat>;
type IiopEcho = iiop_bench::Stat;

// ---------------------------------------------------------------- tracing shims

/// What the shims count besides spans.
#[derive(Default)]
struct TransportCounts {
    reads: AtomicU64,
    empty_reads: AtomicU64,
    writes: AtomicU64,
    short_writes: AtomicU64,
    /// Allocation events (any thread's) while a handler ran.
    handler_allocs: AtomicU64,
}

fn transport_counts() -> &'static TransportCounts {
    static C: OnceLock<TransportCounts> = OnceLock::new();
    C.get_or_init(TransportCounts::default)
}

/// Client write times for sampled xids, read by the handler shim.
fn write_ring() -> &'static [AtomicU64] {
    static R: OnceLock<Vec<AtomicU64>> = OnceLock::new();
    R.get_or_init(|| (0..RING).map(|_| AtomicU64::new(0)).collect())
}

fn waits() -> &'static Mutex<Vec<u64>> {
    static W: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();
    W.get_or_init(|| Mutex::new(Vec::new()))
}

static WORKER_TID: AtomicU64 = AtomicU64::new(0);

/// Times every `read_into`/`write_some` the fabric makes.
struct TracedConn(Box<dyn Conn>);

impl Conn for TracedConn {
    fn read_into(&mut self, buf: &mut MarshalBuf, max: usize) -> ReadStatus {
        trace::begin(Layer::TransportRead as usize, 0);
        let st = self.0.read_into(buf, max);
        trace::end();
        let c = transport_counts();
        c.reads.fetch_add(1, Ordering::Relaxed);
        if st == ReadStatus::Empty {
            c.empty_reads.fetch_add(1, Ordering::Relaxed);
        }
        st
    }

    fn write_some(&mut self, bytes: &[u8]) -> WriteStatus {
        trace::begin(Layer::TransportWrite as usize, 0);
        let st = self.0.write_some(bytes);
        trace::end();
        let c = transport_counts();
        c.writes.fetch_add(1, Ordering::Relaxed);
        if !matches!(st, WriteStatus::Wrote(n) if n == bytes.len()) {
            c.short_writes.fetch_add(1, Ordering::Relaxed);
        }
        st
    }

    fn close(&mut self) {
        self.0.close();
    }

    fn is_datagram(&self) -> bool {
        self.0.is_datagram()
    }
}

/// Times each frame's handler and splits it at the server method's
/// entry and exit: decode before, work between, reply encode after.
struct TracedHandler {
    inner: Box<dyn FrameHandler>,
    framing: Framing,
}

fn frame_xid(framing: Framing, frame: &[u8]) -> u32 {
    match framing {
        Framing::OncRecord => frame
            .get(..4)
            .map_or(0, |b| u32::from_be_bytes([b[0], b[1], b[2], b[3]])),
        Framing::Giop => giop::peek_request(frame).map_or(0, |p| p.request_id),
    }
}

/// Records the marks left by a server method as children of the open
/// span: decode `[start, enter]`, work, reply encode `[exit, end]`.
fn split_at_marks(decode: Layer) {
    if let Some((enter, exit)) = trace::take_marks() {
        let end = trace::now_ns();
        if exit >= enter && enter >= trace::current_start() {
            trace::child(decode as usize, trace::current_start(), enter);
            trace::child(Layer::Work as usize, enter, exit);
            trace::child(Layer::ReplyEncode as usize, exit, end);
        }
    }
}

/// On sampled xids, records how long the call waited between the
/// client's write and its handler span's `start`.
fn sample_wait(xid: u32, start: u64) {
    if xid.is_multiple_of(SAMPLE) {
        let wrote = write_ring()[xid as usize % RING].load(Ordering::Relaxed);
        if wrote != 0 && start >= wrote {
            waits()
                .lock()
                .expect("wait samples poisoned")
                .push(start - wrote);
        }
    }
}

/// The handler shim's bookkeeping before the wrapped handler runs;
/// returns the allocation count to pass to [`shim_exit`].
fn shim_enter(xid: u32) -> usize {
    trace::begin(Layer::Handler as usize, u64::from(xid));
    trace::arm_marks(xid.is_multiple_of(SAMPLE));
    flick_bench::allocwatch::alloc_events()
}

/// The handler shim's bookkeeping after the wrapped handler returns.
/// The wait sample reads a line the client core wrote, so it is taken
/// after the span closes.
fn shim_exit(xid: u32, allocs: usize, decode: Layer) {
    let n = flick_bench::allocwatch::alloc_events().saturating_sub(allocs);
    transport_counts()
        .handler_allocs
        .fetch_add(n as u64, Ordering::Relaxed);
    trace::arm_marks(false);
    split_at_marks(decode);
    let start = trace::current_start();
    trace::end();
    sample_wait(xid, start);
}

impl FrameHandler for TracedHandler {
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        if WORKER_TID.load(Ordering::Relaxed) == 0 {
            WORKER_TID.store(report::current_tid(), Ordering::Relaxed);
        }
        let xid = frame_xid(self.framing, frame);
        let allocs = shim_enter(xid);
        self.inner.on_frame(id, frame, sink);
        shim_exit(
            xid,
            allocs,
            match self.framing {
                Framing::OncRecord => Layer::DecodeXdr,
                Framing::Giop => Layer::DecodeCdr,
            },
        );
    }

    fn poll(&mut self, sink: &mut ReplySink) {
        self.inner.poll(sink);
    }
}

/// What the handler shim's own bookkeeping adds to one handler span.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShimCost {
    /// The shim's own sequence inside the span (allocation count,
    /// server-method marks and split on sampled calls) around a call
    /// that does nothing (ns per span).
    pub span_ns: f64,
    /// Counting one allocation with `allocwatch` (ns), on an
    /// uncontended thread.
    pub alloc_ns: f64,
}

/// Measures [`ShimCost`] on the calling thread with tracing on, as the
/// median of several batches.  It leaves spans and totals behind: call
/// it before the accumulators are reset.
#[must_use]
pub fn shim_cost() -> ShimCost {
    const N: u32 = 4_096;
    let batch = || {
        let before = trace::totals(Layer::Handler as usize).total_ns;
        for xid in 1..=N {
            let allocs = shim_enter(xid);
            trace::mark_enter();
            trace::mark_exit();
            shim_exit(xid, allocs, Layer::DecodeXdr);
        }
        let after = trace::totals(Layer::Handler as usize).total_ns;
        let time_allocs = |counting: bool| {
            trace::count_allocs(counting);
            let t = trace::now_ns();
            for i in 0..N {
                drop(std::hint::black_box(Box::new(i)));
            }
            trace::count_allocs(false);
            trace::now_ns() - t
        };
        let (on, off) = (time_allocs(true), time_allocs(false));
        (
            after.saturating_sub(before) as f64 / f64::from(N),
            (on as f64 - off as f64) / f64::from(N),
        )
    };
    let runs: Vec<(f64, f64)> = (0..9).map(|_| batch()).collect();
    let each = |f: fn(&(f64, f64)) -> f64| report::median(&runs.iter().map(f).collect::<Vec<_>>());
    ShimCost {
        span_ns: each(|r| r.0),
        alloc_ns: each(|r| r.1).max(0.0),
    }
}

/// The bridge's upstream link, timed when tracing.
struct TracedUpstream<L> {
    inner: L,
    on: bool,
}

impl<L: UpstreamLink> UpstreamLink for TracedUpstream<L> {
    fn forward(&mut self, request: &[u8], idempotent: bool) -> Option<Vec<u8>> {
        if !self.on {
            return self.inner.forward(request, idempotent);
        }
        trace::begin(Layer::BridgeUpstream as usize, trace::current_xid());
        let r = self.inner.forward(request, idempotent);
        split_at_marks(Layer::DecodeCdr);
        trace::end();
        r
    }
}

/// Folds a bridge handler's counters into the run's totals when the
/// fabric drops it (handlers live inside the fabric).
struct Metered<F: UpstreamLink + Send> {
    inner: BridgeHandler<F>,
    totals: Arc<Mutex<BridgeCounters>>,
}

impl<F: UpstreamLink + Send> FrameHandler for Metered<F> {
    fn on_frame(&mut self, id: FrameId, frame: &[u8], sink: &mut ReplySink) {
        self.inner.on_frame(id, frame, sink);
    }
}

impl<F: UpstreamLink + Send> Drop for Metered<F> {
    fn drop(&mut self) {
        let c = self.inner.counters();
        if let Ok(mut t) = self.totals.lock() {
            t.forwarded += c.forwarded;
            t.rejected += c.rejected;
            t.fallback += c.fallback;
        }
    }
}

/// Accepts the client's connections in dial order, giving each its
/// planned framing and handler — shimmed when tracing.
struct LedgerAcceptor {
    listener: StreamListener,
    next: VecDeque<(Framing, Box<dyn FrameHandler>)>,
    traced: bool,
}

impl Acceptor for LedgerAcceptor {
    fn accept(&mut self) -> Option<Accepted> {
        let conn = self.listener.accept()?;
        let (framing, handler) = self.next.pop_front()?;
        Some(if self.traced {
            Accepted {
                conn: Box::new(TracedConn(Box::new(conn))),
                framing,
                handler: Box::new(TracedHandler {
                    inner: handler,
                    framing,
                }),
            }
        } else {
            Accepted {
                conn: Box::new(conn),
                framing,
                handler,
            }
        })
    }
}

// ---------------------------------------------------------------- the rig

/// A running server plus the client's connected ends.
pub struct Rig {
    server: JoinHandle<FabricStats>,
    connector: StreamConnector,
    conns: Vec<ClientConn>,
    /// The seeded inputs the client sends and the servers check.
    inputs: Arc<Inputs>,
    pub checks: Arc<Checks>,
    bridge_totals: Arc<Mutex<BridgeCounters>>,
}

fn handler_for(
    plan: &Plan,
    framing: Framing,
    inputs: &Arc<Inputs>,
    checks: &Arc<Checks>,
    totals: &Arc<Mutex<BridgeCounters>>,
    traced: bool,
) -> Box<dyn FrameHandler> {
    let iiop = IiopSrv {
        inputs: inputs.clone(),
        checks: checks.clone(),
        calls: 0,
    };
    if plan.bridge {
        let order = if transcode_bench::DST_LITTLE_ENDIAN {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        };
        let bridge = Bridge::new(
            transcode_bench::BRIDGE_OPS,
            PROG,
            VERS,
            OBJECT_KEY,
            order,
            false,
        );
        let mut srv = iiop;
        let upstream = Supervisor::new(
            move |msg: &[u8]| {
                let mut reply = MarshalBuf::new();
                iiop_bench::handle_message(msg, &mut reply, &mut srv).then(|| reply.into_vec())
            },
            BreakerPolicy::default(),
        );
        return Box::new(Metered {
            inner: BridgeHandler::new(
                bridge,
                TracedUpstream {
                    inner: upstream,
                    on: traced,
                },
            ),
            totals: totals.clone(),
        });
    }
    match framing {
        Framing::OncRecord => {
            let mut srv = OncSrv {
                inputs: inputs.clone(),
                checks: checks.clone(),
                calls: 0,
            };
            Box::new(service_handler(
                move |frame: &[u8], reply: &mut MarshalBuf| {
                    onc_bench::handle_call(frame, PROG, VERS, reply, &mut srv)
                },
            ))
        }
        Framing::Giop => {
            let mut srv = iiop;
            Box::new(service_handler(
                move |msg: &[u8], reply: &mut MarshalBuf| {
                    iiop_bench::handle_message(msg, reply, &mut srv)
                },
            ))
        }
    }
}

impl Rig {
    /// Starts one fabric worker serving `plan`'s connections and dials
    /// them.
    #[must_use]
    pub fn start(plan: &Plan, inputs: &Arc<Inputs>, traced: bool) -> Rig {
        let checks = Arc::new(Checks::default());
        let bridge_totals: Arc<Mutex<BridgeCounters>> = Arc::default();
        let (listener, connector) = listen(usize::MAX);
        let next = plan
            .conns
            .iter()
            .map(|&f| {
                (
                    f,
                    handler_for(plan, f, inputs, &checks, &bridge_totals, traced),
                )
            })
            .collect();
        let acceptor = LedgerAcceptor {
            listener,
            next,
            traced,
        };
        let server = std::thread::spawn(move || {
            report::pin_to(report::SERVER_CPU);
            Fabric::new(Limits::default()).workers(1).serve(acceptor)
        });

        let conns = plan
            .conns
            .iter()
            .map(|&framing| ClientConn {
                end: connector.connect(),
                framing,
                inbuf: MarshalBuf::with_capacity(1 << 16),
                out: MarshalBuf::with_capacity(1 << 12),
                queued: 0,
                pending: VecDeque::new(),
            })
            .collect();
        Rig {
            server,
            connector,
            conns,
            inputs: inputs.clone(),
            checks,
            bridge_totals,
        }
    }

    /// Closes every connection and waits for the fabric to finish.
    pub fn stop(self) -> (FabricStats, BridgeCounters) {
        drop(self.conns);
        drop(self.connector);
        let stats = self.server.join().expect("fabric thread panicked");
        let totals = *self.bridge_totals.lock().expect("bridge totals poisoned");
        (stats, totals)
    }
}

// ---------------------------------------------------------------- the client

struct Pending {
    xid: u32,
    op: Op,
    k: usize,
    /// Encoded argument bytes.
    bytes: u64,
    /// When the call was due (open loop) or written (closed loop), if
    /// its latency is recorded.
    t0: u64,
}

struct ClientConn {
    end: StreamEnd,
    framing: Framing,
    inbuf: MarshalBuf,
    out: MarshalBuf,
    /// Calls in `out` not yet written.
    queued: usize,
    pending: VecDeque<Pending>,
}

/// What the client measured.
#[derive(Default)]
pub struct Load {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Calls answered inside the measured window.
    pub calls: u64,
    pub window_ns: u64,
    /// Open loop: how late each request went out (ns).
    pub lateness: Vec<u64>,
    /// The fabric worker's CPU over the window (traced runs).
    pub worker_cpu_ns: u64,
    pub allocs: u64,
    /// The window cut into equal slices.
    pub slices: Vec<Slice>,
    pub slice_ns: u64,
}

/// What one slice of the measured window saw.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    pub calls: u64,
    pub payload_bytes: u64,
    /// Latency samples (ns), unsorted, spread evenly over the slice.
    pub latencies: Vec<u64>,
    /// Process CPU minus the client thread's CPU.
    pub server_cpu_ns: u64,
    /// Timed calls answered in the slice.
    timed: u64,
    /// One timed call in `2^stride_log` is kept.
    stride_log: u32,
}

impl Slice {
    /// Keeps one timed call in `2^stride_log`.  When the budget fills,
    /// every other sample goes and the stride doubles, so the samples
    /// cover the whole slice, not just its start (which follows a
    /// pause and a refilled pipeline).
    fn record(&mut self, ns: u64) {
        self.timed += 1;
        if self.timed & ((1 << self.stride_log) - 1) != 0 {
            return;
        }
        self.latencies.push(ns);
        if self.latencies.len() == SLICE_SAMPLES {
            let mut k = 0;
            self.latencies.retain(|_| {
                k += 1;
                k % 2 == 0
            });
            self.stride_log += 1;
        }
    }
}

impl Load {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Run limits for the client loop.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub warmup_ns: u64,
    pub measure_ns: u64,
    /// Stop issuing after this many calls (smoke runs).
    pub max_calls: u64,
    /// Slices the measured window is cut into.
    pub slices: usize,
}

struct Client<'a> {
    plan: &'a Plan,
    inputs: &'a Inputs,
    rng: Rng,
    next_xid: u32,
    traced: bool,
    /// Start of the measured window.
    w0: u64,
    load: Load,
}

impl Client<'_> {
    fn pick(&mut self) -> (Op, usize) {
        let op = self.plan.ops[self.rng.below(self.plan.ops.len() as u64) as usize];
        (op, self.rng.below(VARIANTS as u64) as usize)
    }

    /// Encodes and frames one call into `c`'s outgoing batch; `due` is
    /// the open loop's scheduled time (0 in a closed loop).
    fn queue(&mut self, c: &mut ClientConn, due: u64) {
        let (op, k) = self.pick();
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        let tr = self.traced;
        if tr {
            trace::begin(Layer::ClientSend as usize, u64::from(xid));
        }
        let b = &mut c.out;
        let start = b.len();
        let body_at;
        match c.framing {
            Framing::OncRecord => {
                b.put_u32_be(0); // record mark, patched below
                CallHeader {
                    xid,
                    prog: PROG,
                    vers: VERS,
                    proc: op.proc(),
                }
                .write(b);
                body_at = b.len();
                if tr {
                    trace::begin(Layer::EncodeXdr as usize, u64::from(xid));
                }
                self.inputs.onc.encode(op, k, b);
                if tr {
                    trace::end();
                }
                let len = u32::try_from(b.len() - start - 4).expect("record fits a mark");
                b.patch_u32_be(start, 0x8000_0000 | len);
            }
            Framing::Giop => {
                let order = ByteOrder::native();
                let at = giop::begin_message(b, order, MsgType::Request);
                let cdr = CdrOut::begin(b, order);
                giop::put_request_header(b, &cdr, xid, true, OBJECT_KEY, op.name());
                body_at = b.len();
                if tr {
                    trace::begin(Layer::EncodeCdr as usize, u64::from(xid));
                }
                self.inputs.iiop.encode(op, k, b);
                if tr {
                    trace::end();
                }
                giop::finish_message(b, at, order);
            }
        }
        if tr {
            trace::end();
        }
        self.load.attempted += 1;
        c.queued += 1;
        c.pending.push_back(Pending {
            xid,
            op,
            k,
            bytes: (c.out.len() - body_at) as u64,
            t0: due,
        });
    }

    /// Writes `c`'s batch in one transport write.  Closed-loop calls
    /// whose latency is recorded are timed from here.
    fn flush(&mut self, c: &mut ClientConn) {
        if c.queued == 0 {
            return;
        }
        let tr = self.traced;
        let now = trace::now_ns();
        let stride = self.plan.latency_stride;
        let batch = c.pending.len() - c.queued;
        for p in c.pending.range_mut(batch..) {
            if tr && p.xid % SAMPLE == 0 {
                write_ring()[p.xid as usize % RING].store(now, Ordering::Relaxed);
            }
            if p.xid % stride != 0 {
                p.t0 = 0;
            } else if p.t0 == 0 {
                p.t0 = now;
            }
        }
        if tr {
            trace::begin(Layer::ClientWrite as usize, 0);
        }
        c.end.write(c.out.as_slice());
        if tr {
            trace::end();
        }
        c.out.clear();
        c.queued = 0;
    }

    /// Answers every outstanding call, runs `f` with the connections
    /// idle, and refills a closed loop's pipeline; returns how long `f`
    /// took.
    fn pause(&mut self, conns: &mut [ClientConn], f: &mut dyn FnMut()) -> u64 {
        let give_up = trace::now_ns() + 30_000_000_000;
        while conns.iter().any(|c| !c.pending.is_empty()) {
            for c in conns.iter_mut() {
                self.receive(c);
            }
            if trace::now_ns() > give_up {
                // The closing drain reports the calls still missing.
                break;
            }
        }
        let t = trace::now_ns();
        f();
        let paused = trace::now_ns() - t;
        if let Loop::Closed { depth } = self.plan.load {
            for c in conns.iter_mut() {
                for _ in 0..depth.saturating_sub(c.pending.len()) {
                    self.queue(c, 0);
                }
                self.flush(c);
            }
        }
        paused
    }

    /// The slice of the measured window `now` falls in.
    fn slot(&self, now: u64) -> Option<usize> {
        let i = now.checked_sub(self.w0)? / self.load.slice_ns.max(1);
        usize::try_from(i)
            .ok()
            .filter(|&i| i < self.load.slices.len())
    }

    /// Reads what is available on `c` and handles every complete reply;
    /// returns how many were handled.
    fn receive(&mut self, c: &mut ClientConn) -> usize {
        let tr = self.traced;
        if tr {
            trace::begin(Layer::ClientRead as usize, 0);
        }
        let st = c.end.read_available(&mut c.inbuf, 1 << 20);
        if tr {
            trace::end();
        }
        if !matches!(st, ReadStatus::Read(_)) {
            return 0;
        }
        let now = trace::now_ns();
        let slot = self.slot(now);
        let mut pos = 0;
        let mut handled = 0;
        loop {
            let stream = &c.inbuf.as_slice()[pos..];
            let frame = match c.framing {
                Framing::OncRecord => {
                    match oncrpc::scan_record_limited(stream, oncrpc::MAX_RECORD_BYTES) {
                        Ok(RecordScan::Complete(p, used)) => Some((p, used)),
                        Ok(RecordScan::Partial) => None,
                        Ok(RecordScan::Fragmented) | Err(_) => {
                            self.load.fail("unparseable reply record".into());
                            pos = c.inbuf.len();
                            None
                        }
                    }
                }
                Framing::Giop => giop_frame(stream).map(|n| (&stream[..n], n)),
            };
            let Some((frame, used)) = frame else { break };
            pos += used;
            handled += 1;
            let Some(p) = c.pending.pop_front() else {
                self.load.fail("reply with no call outstanding".into());
                continue;
            };
            if tr {
                trace::begin(Layer::ClientRecv as usize, u64::from(p.xid));
            }
            let verdict = check_reply(self.inputs, c.framing, &p, frame, tr);
            if tr {
                trace::end();
            }
            match verdict {
                Ok(()) => {
                    self.load.succeeded += 1;
                    if let Some(s) = slot {
                        let load = &mut self.load;
                        let slice = &mut load.slices[s];
                        load.calls += 1;
                        slice.calls += 1;
                        slice.payload_bytes += p.bytes;
                        if p.t0 != 0 {
                            slice.record(now.saturating_sub(p.t0));
                        }
                    }
                }
                Err(why) => self.load.fail(why),
            }
        }
        c.inbuf.drain_front(pos);
        handled
    }
}

/// Length of the complete GIOP message at the front of `stream`.
fn giop_frame(stream: &[u8]) -> Option<usize> {
    if stream.len() < giop::HEADER_BYTES {
        return None;
    }
    let mut r = MsgReader::new(stream);
    let h = giop::read_header(&mut r).ok()?;
    let total = giop::HEADER_BYTES + h.size as usize;
    (stream.len() >= total).then_some(total)
}

/// Parses one reply: framing header, xid and verdict, then the body
/// through the generated decoder (echoes compared with what was sent).
fn check_reply(
    inputs: &Inputs,
    framing: Framing,
    p: &Pending,
    frame: &[u8],
    tr: bool,
) -> Result<(), String> {
    let k = p.k;
    let mut r = MsgReader::new(frame);
    let decode = |r: &mut MsgReader<'_>| {
        if tr {
            trace::begin(Layer::DecodeReply as usize, u64::from(p.xid));
        }
        let res = match framing {
            Framing::OncRecord => inputs.onc.check_reply(p.op, k, r),
            Framing::Giop => inputs.iiop.check_reply(p.op, k, r),
        };
        if tr {
            trace::end();
        }
        res
    };
    match framing {
        Framing::OncRecord => {
            let (xid, verdict) =
                oncrpc::read_reply_verdict(&mut r).map_err(|e| format!("reply header: {e}"))?;
            if xid != p.xid {
                return Err(format!("reply xid {xid} for call {}", p.xid));
            }
            if verdict != ReplyVerdict::Success {
                return Err(format!("{} refused: {verdict:?}", p.op.name()));
            }
            decode(&mut r)
        }
        Framing::Giop => {
            let h = giop::read_header(&mut r).map_err(|e| format!("GIOP header: {e}"))?;
            if h.msg_type != MsgType::Reply {
                return Err(format!("GIOP {:?} where a reply was due", h.msg_type));
            }
            let cdr = CdrIn::begin(&r, h.order);
            let rh =
                giop::get_reply_header(&mut r, &cdr).map_err(|e| format!("reply header: {e}"))?;
            if rh.request_id != p.xid {
                return Err(format!("reply id {} for call {}", rh.request_id, p.xid));
            }
            if rh.status != ReplyStatus::NoException {
                return Err(format!("{} raised {:?}", p.op.name(), rh.status));
            }
            decode(&mut r)
        }
    }
}

/// Drives `rig` with `plan`'s loop for the window, then drains every
/// outstanding call.
///
/// With `pause`, each slice of the window begins with a pause: the
/// client answers every outstanding call, runs `pause` with the
/// connections idle, and refills the pipeline.  The time `pause` takes
/// is cut out of the window, and the server CPU it overlaps is left
/// out of every slice, so the slices measure serving alone.
pub fn drive(
    rig: &mut Rig,
    plan: &Plan,
    seed: u64,
    window: Window,
    traced: bool,
    mut pause: Option<&mut dyn FnMut()>,
) -> Load {
    let start = trace::now_ns();
    let w0 = start + window.warmup_ns;
    let mut w1 = w0 + window.measure_ns;
    let inputs = rig.inputs.clone();
    let mut client = Client {
        plan,
        inputs: &inputs,
        rng: Rng::new(seed ^ 0xca11),
        next_xid: 1,
        traced,
        w0,
        load: Load {
            slices: vec![Slice::default(); window.slices.max(1)],
            slice_ns: window.measure_ns / window.slices.max(1) as u64,
            ..Load::default()
        },
    };
    let mut arrivals = Rng::new(seed ^ 0xa771_7a15);
    let conns = &mut rig.conns;
    let mut marks: Option<(u64, u64)> = None; // worker cpu, allocs at the window's start
    let mut cpu_slot: Option<(usize, u64, u64)> = None; // slice, cpu, own cpu at its start
    let mut closed_at = None;
    let mut stopping = false;
    let mut next_due = start;
    if let Loop::Closed { depth } = plan.load {
        for c in conns.iter_mut() {
            for _ in 0..depth {
                client.queue(c, 0);
            }
            client.flush(c);
        }
    }
    loop {
        let mut progress = 0;
        let now = trace::now_ns();
        if let Loop::Open { rate } = plan.load {
            while !stopping && next_due <= now {
                let late = trace::now_ns().saturating_sub(next_due);
                if next_due >= client.w0 && next_due < w1 {
                    client.load.lateness.push(late);
                }
                client.queue(&mut conns[0], next_due.max(1));
                client.flush(&mut conns[0]);
                // Exponential inter-arrival gaps: a Poisson process.
                let gap = -(1.0 - arrivals.unit()).ln() / rate;
                next_due += (gap * 1e9) as u64;
                progress += 1;
            }
        }
        for c in conns.iter_mut() {
            let n = client.receive(c);
            progress += n;
            if !stopping && n > 0 && matches!(plan.load, Loop::Closed { .. }) {
                for _ in 0..n {
                    client.queue(c, 0);
                }
                client.flush(c);
            }
        }
        let now = trace::now_ns();
        if marks.is_none() && now >= client.w0 {
            if traced {
                trace::reset();
                reset_shim_counts();
            }
            marks = Some(cpu_marks());
        }
        let slot = client.slot(now).filter(|_| !stopping);
        if slot != cpu_slot.map(|c| c.0) {
            if let Some((prev, p0, o0)) = cpu_slot {
                let (p, o) = (report::process_cpu_ns(), report::thread_cpu_ns());
                client.load.slices[prev].server_cpu_ns += (p - p0).saturating_sub(o - o0);
            }
            if let (Some(_), Some(f)) = (slot, pause.as_deref_mut()) {
                let paused = client.pause(conns, f);
                client.w0 += paused;
                w1 += paused;
                next_due += paused;
            }
            let (p, o) = (report::process_cpu_ns(), report::thread_cpu_ns());
            cpu_slot = slot.map(|s| (s, p, o));
        }
        if closed_at.is_none()
            && (now >= w1 || (!stopping && client.load.attempted >= window.max_calls))
        {
            let (k0, a0) = marks.unwrap_or_else(cpu_marks);
            let (k1, a1) = cpu_marks();
            let load = &mut client.load;
            load.worker_cpu_ns = k1.saturating_sub(k0);
            load.allocs = a1.saturating_sub(a0);
            load.window_ns = now.saturating_sub(client.w0).max(1);
            if let Some((s, p0, o0)) = cpu_slot.take() {
                let (p1, o1) = (report::process_cpu_ns(), report::thread_cpu_ns());
                load.slices[s].server_cpu_ns += (p1 - p0).saturating_sub(o1 - o0);
            }
            closed_at = Some(now);
            stopping = true;
        }
        if stopping && conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        if stopping && now.saturating_sub(closed_at.unwrap_or(now)) > 30_000_000_000 {
            let missing: usize = conns.iter().map(|c| c.pending.len()).sum();
            client.load.fail(format!("{missing} calls never answered"));
            break;
        }
        if progress == 0 {
            std::hint::spin_loop();
        }
    }
    client.load
}

/// The fabric worker's CPU time (once a traced handler has seen it) and
/// the allocation events so far.
fn cpu_marks() -> (u64, u64) {
    let tid = WORKER_TID.load(Ordering::Relaxed);
    (
        if tid == 0 {
            0
        } else {
            report::task_cpu_ns(tid)
        },
        flick_bench::allocwatch::alloc_events() as u64,
    )
}

/// Transport counters and wait samples from the traced shims.
pub struct ShimCounts {
    pub reads: u64,
    pub empty_reads: u64,
    pub writes: u64,
    pub short_writes: u64,
    pub handler_allocs: u64,
    pub waits: Vec<u64>,
}

/// Takes (and clears) what the shims counted.
#[must_use]
pub fn take_shim_counts() -> ShimCounts {
    let c = transport_counts();
    ShimCounts {
        reads: c.reads.swap(0, Ordering::Relaxed),
        empty_reads: c.empty_reads.swap(0, Ordering::Relaxed),
        writes: c.writes.swap(0, Ordering::Relaxed),
        short_writes: c.short_writes.swap(0, Ordering::Relaxed),
        handler_allocs: c.handler_allocs.swap(0, Ordering::Relaxed),
        waits: std::mem::take(&mut *waits().lock().expect("wait samples poisoned")),
    }
}

/// Clears the shim counters (at the start of a measured window).
pub fn reset_shim_counts() {
    let _ = take_shim_counts();
}

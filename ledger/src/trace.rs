//! Outside-in tracing: spans recorded by the benchmark around calls
//! into each layer's public functions, never inside the crates.
//!
//! Every span has a name, start, end, parent and the call's xid (0 for
//! spans that serve many calls at once, such as one transport read).
//! Per-layer totals (busy time, self time, count) accumulate for every
//! span; whole spans are kept in memory only for sampled calls, and
//! written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use flick_bench::allocwatch::PeakAlloc;

/// A layer boundary the benchmark times.  The discriminant indexes the
/// accumulator table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    // Client side (the load generator's own thread).
    ClientSend,
    ClientRecv,
    ClientRead,
    ClientWrite,
    EncodeXdr,
    EncodeCdr,
    DecodeReply,
    // Server side (the fabric worker).
    TransportRead,
    TransportWrite,
    Handler,
    DecodeXdr,
    DecodeCdr,
    Work,
    ReplyEncode,
    BridgeUpstream,
    // Compiler.
    Compile,
    Parse,
    Presgen,
    Backend,
    Plan,
    EmitC,
    PrintC,
    EmitRust,
    /// `lower` plus the named MIR passes, in `PASS_NAMES` order.
    Pass0,
}

/// Slots for `lower` + the 11 named passes.
pub const PASSES: usize = 12;
const LAYERS: usize = Layer::Pass0 as usize + PASSES;

impl Layer {
    /// The pass slot `i` (0 = `lower`).
    #[must_use]
    pub fn pass(i: usize) -> usize {
        Layer::Pass0 as usize + i
    }
}

/// The span name of layer slot `i`.
#[must_use]
pub fn layer_name(i: usize) -> &'static str {
    const NAMES: [&str; Layer::Pass0 as usize] = [
        "client.send",
        "client.recv",
        "client.read",
        "client.write",
        "stubs.encode.xdr",
        "stubs.encode.cdr",
        "stubs.decode_reply",
        "transport.read",
        "transport.write",
        "handler",
        "stubs.decode.xdr",
        "stubs.decode.cdr",
        "server.work",
        "stubs.encode_reply",
        "bridge.upstream",
        "compile",
        "frontend.parse",
        "presgen",
        "backend",
        "backend.plan",
        "backend.emit_c",
        "cast.print_c",
        "backend.emit_rust",
    ];
    match NAMES.get(i) {
        Some(n) => n,
        None => PASS_SPAN_NAMES[i - Layer::Pass0 as usize],
    }
}

const PASS_SPAN_NAMES: [&str; PASSES] = [
    "backend.pass.lower",
    "backend.pass.dead-slot",
    "backend.pass.classify-storage",
    "backend.pass.reuse-slots",
    "backend.pass.hoist-checks",
    "backend.pass.form-chunks",
    "backend.pass.coalesce-memcpy",
    "backend.pass.fuse-transcode",
    "backend.pass.inline-marshal",
    "backend.pass.reply-alias",
    "backend.pass.demux-switch",
    "backend.pass.merge-prefix",
];

/// The pass names in slot order, `lower` first.
#[must_use]
pub fn pass_names() -> [&'static str; PASSES] {
    let mut out = ["lower"; PASSES];
    out[1..].copy_from_slice(&flick_backend::PASS_NAMES);
    out
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: usize,
    pub xid: u64,
    pub start: u64,
    pub end: u64,
}

/// Per-layer accumulators, padded so the client and worker threads do
/// not share cache lines.
#[repr(align(64))]
#[derive(Default)]
struct Acc {
    total: AtomicU64,
    own: AtomicU64,
    count: AtomicU64,
}

/// Totals for one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Whether wrappers record at all (the traced run turns this on).
static ON: AtomicBool = AtomicBool::new(false);
/// Threads that have opened a span; each numbers its spans under its
/// own prefix, so the client and worker never share a counter.
static THREADS: AtomicU64 = AtomicU64::new(0);
/// Keep whole spans for one call in this many (by xid).
const SAMPLE_EVERY: u64 = 64;
const MAX_KEPT: usize = 50_000;

fn accs() -> &'static [Acc; LAYERS] {
    static A: OnceLock<[Acc; LAYERS]> = OnceLock::new();
    A.get_or_init(|| std::array::from_fn(|_| Acc::default()))
}

fn kept() -> &'static Mutex<Vec<Span>> {
    static K: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    K.get_or_init(|| Mutex::new(Vec::new()))
}

/// Nanoseconds since the process's first call.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let e = *EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

#[must_use]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Clears every accumulator and kept span (between untraced and traced
/// phases, or between setup and the measured window).
pub fn reset() {
    for a in accs() {
        a.total.store(0, Ordering::Relaxed);
        a.own.store(0, Ordering::Relaxed);
        a.count.store(0, Ordering::Relaxed);
    }
    kept().lock().expect("span store poisoned").clear();
}

/// Snapshot of one layer's accumulators.
#[must_use]
pub fn totals(layer: usize) -> LayerTotals {
    let a = &accs()[layer];
    LayerTotals {
        total_ns: a.total.load(Ordering::Relaxed),
        self_ns: a.own.load(Ordering::Relaxed),
        count: a.count.load(Ordering::Relaxed),
    }
}

/// All layers' snapshots, with their span names.
#[must_use]
pub fn all_totals() -> Vec<(&'static str, LayerTotals)> {
    (0..LAYERS).map(|i| (layer_name(i), totals(i))).collect()
}

/// The spans kept so far, sorted by start.
#[must_use]
pub fn kept_spans() -> Vec<Span> {
    let mut v = kept().lock().expect("span store poisoned").clone();
    v.sort_by_key(|s| (s.start, s.id));
    v
}

struct Open {
    id: u64,
    layer: usize,
    xid: u64,
    start: u64,
    child_ns: u64,
    keep: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    /// Server-method entry/exit marks, consumed by the innermost
    /// hosting span (a handler or the bridge's upstream).
    static MARKS: RefCell<Option<(u64, u64)>> = const { RefCell::new(None) };
    /// Whether the server method now running leaves marks.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// This thread's span-id prefix and the last number under it.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A new span id, unique across threads and never 0.
fn next_id() -> u64 {
    IDS.with(|c| {
        let (mut prefix, n) = c.get();
        if prefix == 0 {
            prefix = (THREADS.fetch_add(1, Ordering::Relaxed) + 1) << 40;
        }
        c.set((prefix, n + 1));
        prefix | (n + 1)
    })
}

/// Compile spans carry xids from here up; compiles are few, so their
/// spans are always kept.
pub const COMPILE_XID_BASE: u64 = 1 << 40;

fn keep_xid(xid: u64) -> bool {
    xid.is_multiple_of(SAMPLE_EVERY) || xid >= COMPILE_XID_BASE
}

/// Opens a span on this thread; close it with [`end`].  `xid` 0 means
/// the span serves no single call (it is kept one time in
/// [`SAMPLE_EVERY`]).  Spans are recorded only while tracing is
/// enabled; toggle it only between spans.
pub fn begin(layer: usize, xid: u64) {
    if !enabled() {
        return;
    }
    let id = next_id();
    let keep = if xid == 0 {
        id.is_multiple_of(SAMPLE_EVERY)
    } else {
        keep_xid(xid)
    };
    let start = now_ns();
    STACK.with(|s| {
        s.borrow_mut().push(Open {
            id,
            layer,
            xid,
            start,
            child_ns: 0,
            keep,
        });
    });
}

/// Closes the innermost open span on this thread.
pub fn end() {
    if !enabled() {
        return;
    }
    let end = now_ns();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let open = s.pop().expect("trace::end without begin");
        let parent = s.last_mut();
        let dur = end.saturating_sub(open.start);
        let pid = parent.as_ref().map_or(0, |p| p.id);
        if let Some(p) = parent {
            p.child_ns += dur;
        }
        account(open.layer, dur, dur.saturating_sub(open.child_ns));
        if open.keep {
            store(Span {
                id: open.id,
                parent: pid,
                layer: open.layer,
                xid: open.xid,
                start: open.start,
                end,
            });
        }
    });
}

/// Records a finished child `[start, end]` of the innermost open span
/// (one whose endpoints were measured by other means, such as the
/// server-method marks or a `BackendTrace` split).
pub fn child(layer: usize, start: u64, end: u64) {
    if !enabled() {
        return;
    }
    let dur = end.saturating_sub(start);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last_mut().expect("trace::child outside a span");
        parent.child_ns += dur;
        account(layer, dur, dur);
        if parent.keep {
            let (pid, xid) = (parent.id, parent.xid);
            store(Span {
                id: next_id(),
                parent: pid,
                layer,
                xid,
                start,
                end,
            });
        }
    });
}

/// Records a finished child `[start, end]` of the innermost open span
/// together with its own finished children `(layer, start, end)`.
pub fn child_tree(layer: usize, start: u64, end: u64, kids: &[(usize, u64, u64)]) {
    if !enabled() {
        return;
    }

    let kid_ns: u64 = kids.iter().map(|&(_, s, e)| e.saturating_sub(s)).sum();
    let dur = end.saturating_sub(start);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last_mut().expect("trace::child_tree outside a span");
        parent.child_ns += dur;
        account(layer, dur, dur.saturating_sub(kid_ns));
        let id = next_id();
        let (pid, xid, keep) = (parent.id, parent.xid, parent.keep);
        for &(kl, ks, ke) in kids {
            let kd = ke.saturating_sub(ks);
            account(kl, kd, kd);
            if keep {
                store(Span {
                    id: next_id(),
                    parent: id,
                    layer: kl,
                    xid,
                    start: ks,
                    end: ke,
                });
            }
        }
        if keep {
            store(Span {
                id,
                parent: pid,
                layer,
                xid,
                start,
                end,
            });
        }
    });
}

/// The xid of the innermost open span on this thread (0 if none).
#[must_use]
pub fn current_xid() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |o| o.xid))
}

/// Start time of the innermost open span on this thread.
#[must_use]
pub fn current_start() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |o| o.start))
}

/// Makes the next server method on this thread leave marks (or not).
/// Marks cost two clock reads, so the handler shim arms them on
/// sampled calls only.
pub fn arm_marks(on: bool) {
    ARMED.with(|a| a.set(on));
}

/// Called by the server implementations on entry to the user method.
pub fn mark_enter() {
    if enabled() && ARMED.with(Cell::get) {
        let t = now_ns();
        MARKS.with(|m| *m.borrow_mut() = Some((t, 0)));
    }
}

/// Called by the server implementations on exit from the user method.
pub fn mark_exit() {
    if enabled() && ARMED.with(Cell::get) {
        let t = now_ns();
        MARKS.with(|m| {
            if let Some((_, exit)) = m.borrow_mut().as_mut() {
                *exit = t;
            }
        });
    }
}

/// Takes the server-method marks left since the innermost span began.
#[must_use]
pub fn take_marks() -> Option<(u64, u64)> {
    MARKS.with(|m| m.borrow_mut().take())
}

fn account(layer: usize, dur: u64, own: u64) {
    let a = &accs()[layer];
    a.total.fetch_add(dur, Ordering::Relaxed);
    a.own.fetch_add(own, Ordering::Relaxed);
    a.count.fetch_add(1, Ordering::Relaxed);
}

fn store(span: Span) {
    let mut k = kept().lock().expect("span store poisoned");
    if k.len() < MAX_KEPT {
        k.push(span);
    }
}

/// Global allocator that counts allocations (through
/// [`flick_bench::allocwatch`]) only while counting is switched on, so
/// the timed run pays nothing for it.
pub struct SwitchAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Starts or stops allocation counting.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` (directly or through
// `PeakAlloc`, which itself forwards to `System`), so memory is always
// allocated and freed by the same underlying allocator; the counting
// side only updates atomics.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            // SAFETY: forwarded with the caller's layout.
            unsafe { PeakAlloc.alloc(layout) }
        } else {
            // SAFETY: forwarded with the caller's layout.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Only allocation events are read, so frees bypass the live-byte
        // bookkeeping (a block allocated uncounted may be freed while
        // counting).
        // SAFETY: `ptr` came from `System` (possibly via `PeakAlloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { PeakAlloc.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

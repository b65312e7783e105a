//! The Rust stub emitter: marshal plans → executable Rust source.
//!
//! The paper's back ends emit C; this emitter targets Rust against
//! `flick-runtime` so the benchmark harness can *execute* the exact
//! code the optimizer planned.  The same [`PlanNode`] trees drive both
//! emitters, so the optimization decisions — hoisted `ensure`s,
//! chunked constant-offset stores, `memcpy` runs, inlined bodies,
//! word-wise demultiplexing switches — appear identically in both
//! outputs.
//!
//! Generated module shape (per presentation × back end):
//!
//! * presented Rust types (structs/enums mirroring the C presentation);
//! * `encode_<op>_request` / `decode_<op>_request` and the reply pair
//!   for every operation;
//! * out-of-line `marshal_<T>` / `unmarshal_<T>` functions for
//!   recursive types (and for everything when inlining is off);
//! * a `Server` trait plus `dispatch` (numeric discriminators) and
//!   `dispatch_by_name` (word-wise string demultiplex, §3.3).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use flick_pres::{PresC, PresId, PresNode};

use crate::encoding::{Encoding, Order, StringWire, WirePrim};
use crate::layout::{LayoutCursor, SizeClass, ValPath};
use crate::mir::{Demux, DemuxArm, DemuxNode, PrefixStep, SlotStorage};
use crate::plan::{MsgPlan, PlanNode, StubPlan, StubPlans};
use crate::BackEnd;

/// Emits the complete Rust module for the optimized MIR `full` under
/// `be`.
///
/// # Errors
/// Returns a message for constructs the Rust emitter cannot express.
pub fn emit(presc: &PresC, full: &StubPlans, be: &BackEnd) -> Result<String, String> {
    let mut e = Emitter {
        presc,
        be,
        hoist: full.hoist,
        memcpy: full.memcpy,
        out: String::new(),
        tmp: 0,
        types: BTreeMap::new(),
        prefetched_len: None,
    };
    e.module(full)?;
    Ok(e.out)
}

struct Emitter<'a> {
    presc: &'a PresC,
    be: &'a BackEnd,
    /// Whether the `hoist-checks` pass ran (from [`StubPlans::hoist`]).
    hoist: bool,
    /// Whether the `coalesce-memcpy` pass ran.
    memcpy: bool,
    out: String,
    tmp: usize,
    /// Generated type definitions, keyed by type name.
    types: BTreeMap<String, String>,
    /// Local holding a count the `merge-prefix` pass hoisted above the
    /// dispatch switch; the next length-prefix read consumes it
    /// instead of re-reading the wire.
    prefetched_len: Option<String>,
}

/// The Rust spelling of a wire primitive's presented value.
pub(crate) fn prim_rust_ty(p: WirePrim) -> &'static str {
    if p.float {
        return if p.size == 4 { "f32" } else { "f64" };
    }
    match (p.size, p.signed) {
        (1, true) => "i8",
        (1, false) => "u8",
        (2, true) => "i16",
        (2, false) => "u16",
        (4, true) => "i32",
        (4, false) => "u32",
        (8, true) => "i64",
        _ => "u64",
    }
}

fn zero_of(ty: &str) -> String {
    match ty {
        "f32" => "0.0f32".into(),
        "f64" => "0.0f64".into(),
        t => format!("0{t}"),
    }
}

fn cap_first(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => {
            let mut out: String = f.to_uppercase().collect();
            out.push_str(c.as_str());
            out
        }
        None => String::from("Arm"),
    }
}

/// The accessor suffix a wire form moves through (`u8`, `u32_be`, …).
fn accessor(prim: WirePrim) -> String {
    match (prim.slot, prim.order) {
        (1, _) => "u8".into(),
        (2 | 4, Order::Big) => format!("u{}_be", prim.slot * 8),
        (2 | 4, Order::Little) => format!("u{}_le", prim.slot * 8),
        (_, Order::Big) => "u64_be".into(),
        (_, Order::Little) => "u64_le".into(),
    }
}

/// `vexpr` converted to the raw word a wire form stores (widened
/// signed values sign-extend into their slot).
fn stored(prim: WirePrim, vexpr: &str) -> String {
    if prim.float {
        return format!("({vexpr}).to_bits()");
    }
    match prim.slot {
        1 => format!("({vexpr}) as u8"),
        2 => format!("({vexpr}) as u16"),
        4 if prim.size < 4 && prim.signed => format!("({vexpr}) as i32 as u32"),
        4 => format!("({vexpr}) as u32"),
        _ => format!("({vexpr}) as u64"),
    }
}

/// The raw word `raw` read in a wire form, converted to the presented
/// value (widened values truncate exactly as the decoder does).
fn presented(prim: WirePrim, raw: &str) -> String {
    if prim.float {
        return format!("f{}::from_bits({raw})", u32::from(prim.size) * 8);
    }
    let ty = prim_rust_ty(prim);
    if prim.slot == 4 && prim.size < 4 && prim.signed {
        format!("{raw} as i32 as {ty}")
    } else {
        format!("{raw} as {ty}")
    }
}

/// The statement writing `vexpr` in wire form `prim` to `buf`.
pub(crate) fn put_prim_call(prim: WirePrim, vexpr: &str) -> String {
    format!("buf.put_{}({});", accessor(prim), stored(prim, vexpr))
}

/// The expression reading one value in wire form `prim` from `r`.
pub(crate) fn get_prim_expr(prim: WirePrim) -> String {
    presented(prim, &format!("r.get_{}()?", accessor(prim)))
}

/// The statement writing `vexpr` in wire form `prim` at offset
/// `off_expr` of chunk writer `cvar`.
pub(crate) fn chunk_put_call(prim: WirePrim, off_expr: &str, vexpr: &str, cvar: &str) -> String {
    format!(
        "{cvar}.put_{}_at({off_expr}, {});",
        accessor(prim),
        stored(prim, vexpr)
    )
}

/// The expression reading one value in wire form `prim` at offset
/// `off_expr` of chunk reader `cvar`.
pub(crate) fn chunk_get_expr(prim: WirePrim, off_expr: &str, cvar: &str) -> String {
    presented(
        prim,
        &format!("{cvar}.get_{}_at({off_expr})", accessor(prim)),
    )
}

/// The statement writing the count prefix `vexpr_len` under `enc`.
pub(crate) fn len_prefix_call(enc: &Encoding, vexpr_len: &str) -> String {
    let suffix = match enc.len_prefix().order {
        Order::Big => "be",
        Order::Little => "le",
    };
    format!("buf.put_u32_{suffix}({vexpr_len} as u32);")
}

/// The expression reading a count prefix under `enc`.
pub(crate) fn len_prefix_expr(enc: &Encoding) -> String {
    let suffix = match enc.len_prefix().order {
        Order::Big => "be",
        Order::Little => "le",
    };
    format!("r.get_u32_{suffix}()? as usize")
}

/// The statement rejecting a count `lv` above the declared `bound`.
pub(crate) fn bound_check(lv: &str, bound: u64) -> String {
    format!(
        "if {lv} as u64 > {bound} {{ return Err(DecodeError::BoundExceeded {{ got: {lv} as u64, bound: {bound} }}); }}"
    )
}

/// Statements reading a string's bytes once its count `lv` is known:
/// the bound check, the framing convention, and UTF-8 validation into
/// `v` — borrowed from the receive buffer, or an owned copy.
pub(crate) fn string_read(
    lv: &str,
    bytes: &str,
    v: &str,
    bound: Option<u64>,
    style: StringWire,
    pad_unit: Option<u8>,
    borrow: bool,
) -> Vec<String> {
    let mut out: Vec<String> = bound.map(|b| bound_check(lv, b)).into_iter().collect();
    match style {
        StringWire::CountedPadded => {
            out.push(format!("let {bytes} = r.bytes({lv})?;"));
            if let Some(u) = pad_unit {
                out.push(format!("r.skip(({u} - {lv} % {u}) % {u})?;"));
            }
        }
        StringWire::CountedNul => {
            out.push(format!(
                "if {lv} == 0 {{ return Err(DecodeError::BadValue(\"CDR string length must include NUL\")); }}"
            ));
            out.push(format!("let {bytes} = &r.bytes({lv})?[..{lv} - 1];"));
        }
    }
    out.push(if borrow {
        // §3.1 in-buffer presentation: borrow straight from the
        // receive buffer.
        format!(
            "let {v} = std::str::from_utf8({bytes}).map_err(|_| DecodeError::BadValue(\"string is not UTF-8\"))?; // zero-copy"
        )
    } else {
        format!(
            "let {v} = String::from_utf8({bytes}.to_vec()).map_err(|_| DecodeError::BadValue(\"string is not UTF-8\"))?;"
        )
    });
    out
}

/// Statements writing string `v` under `enc`'s framing, count prefix
/// included.
pub(crate) fn string_write(
    enc: &Encoding,
    v: &str,
    style: StringWire,
    pad_unit: Option<u8>,
) -> Vec<String> {
    match style {
        StringWire::CountedPadded => {
            let mut out = vec![
                len_prefix_call(enc, &format!("{v}.len()")),
                format!("buf.put_bytes({v}.as_bytes());"),
            ];
            if let Some(u) = pad_unit {
                out.push(format!("buf.align_to({u});"));
            }
            out
        }
        StringWire::CountedNul => vec![
            len_prefix_call(enc, &format!("({v}.len() + 1)")),
            format!("buf.put_bytes({v}.as_bytes());"),
            "buf.put_u8(0);".to_string(),
        ],
    }
}

impl<'a> Emitter<'a> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.tmp += 1;
        format!("_{prefix}{}", self.tmp)
    }

    fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn line(&mut self, indent: usize, s: &str) {
        for _ in 0..indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    // ================= module assembly =================

    fn module(&mut self, full: &StubPlans) -> Result<(), String> {
        let banner = format!(
            "//! Flick-generated stubs — interface `{}`, presentation `{}`,\n\
             //! transport `{}`, encoding `{}`.\n\
             //! Generated by flick-backend; do not edit.\n\
             #![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]\n\n\
             use flick_runtime::buf::{{MarshalBuf, MsgReader}};\n\
             use flick_runtime::error::DecodeError;\n\
             use flick_runtime::pod;\n\n",
            self.presc.interface,
            self.presc.style,
            self.be.transport.name(),
            self.be.encoding.name,
        );
        self.push(&banner);

        // Presented types, collected from every slot's plan.
        for stub in &full.stubs {
            for slot in stub.request.slots.iter().chain(stub.reply.slots.iter()) {
                self.collect_types(&slot.node)?;
            }
        }
        for body in full.outlines.values() {
            self.collect_types(body)?;
        }
        let types = std::mem::take(&mut self.types);
        for def in types.values() {
            self.push(def);
            self.push("\n");
        }

        // Out-of-line marshal functions.
        let outlines = full.outlines.clone();
        for (key, body) in &outlines {
            self.outline_fns(key, body)?;
        }

        // One stub per operation: the client call stub and the server
        // work stub describe the same messages, so generation keys on
        // the operation, whichever side's presentation we were given.
        let mut seen = std::collections::HashSet::new();
        let stubs: Vec<StubPlan> = full
            .stubs
            .iter()
            .filter(|s| seen.insert(s.op.name.clone()))
            .cloned()
            .collect();
        for stub in &stubs {
            self.stub_fns(stub)?;
        }

        self.server_trait(&stubs)?;
        self.dispatch_numeric(&stubs)?;
        self.dispatch_by_name(&stubs, &full.demux)?;
        self.robust_entries(&stubs)?;
        Ok(())
    }

    // ================= hostile-wire entry points =================

    /// Emits the robust server entry (`handle_call` / `handle_message`)
    /// and, for ONC, the retransmitting client stubs (`call_<op>`).
    /// These wrap the raw `dispatch` paths with the protocol-level
    /// error replies a server must send instead of dying on hostile
    /// bytes.  Mach/Fluke encodings have no wire error protocol here,
    /// so they get neither.
    fn robust_entries(&mut self, stubs: &[StubPlan]) -> Result<(), String> {
        match self.be.encoding.name {
            "xdr" => {
                self.onc_handle_call(stubs);
                for stub in stubs {
                    self.onc_call_stub(stub)?;
                }
                Ok(())
            }
            "cdr-be" | "cdr-le" => {
                self.giop_handle_message(stubs);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn onc_handle_call(&mut self, stubs: &[StubPlan]) {
        let procs: Vec<String> = stubs
            .iter()
            .map(|s| format!("{}u32", s.op.request_code))
            .collect();
        let procs = procs.join(" | ");
        let body = format!(
            "/// Serves one ONC call `record` for program `prog` version `vers`.\n\
             /// Malformed headers, unknown procedures, and argument decode\n\
             /// failures answer with the protocol-level error reply\n\
             /// (`PROG_UNAVAIL`/`PROG_MISMATCH`/`PROC_UNAVAIL`/`GARBAGE_ARGS`)\n\
             /// instead of propagating.  Returns false only when the record was\n\
             /// too mangled to answer safely (no reply in `reply`).\n\
             pub fn handle_call<S: Server>(record: &[u8], prog: u32, vers: u32, reply: &mut MarshalBuf, srv: &mut S) -> bool {{\n\
             \x20   use flick_runtime::oncrpc::{{self, ReplyOutcome}};\n\
             \x20   let (h, body) = match oncrpc::accept_call(record, prog, vers, reply) {{\n\
             \x20       Ok(x) => x,\n\
             \x20       Err(replied) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20           return replied;\n\
             \x20       }}\n\
             \x20   }};\n\
             \x20   if !matches!(h.proc, {procs}) {{\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20       oncrpc::write_reply(reply, h.xid, ReplyOutcome::ProcUnavail);\n\
             \x20       return true;\n\
             \x20   }}\n\
             \x20   // A call whose propagated budget is already spent gets the\n\
             \x20   // cheap failure, not the work (see flick_runtime::deadline).\n\
             \x20   if flick_runtime::deadline::inbound_expired() {{\n\
             \x20       flick_runtime::metrics::rpc_expired();\n\
             \x20       oncrpc::write_reply(reply, h.xid, ReplyOutcome::SystemErr);\n\
             \x20       return true;\n\
             \x20   }}\n\
             \x20   oncrpc::write_reply(reply, h.xid, ReplyOutcome::Success);\n\
             \x20   match dispatch(h.proc, body, reply, srv) {{\n\
             \x20       Ok(()) => true,\n\
             \x20       Err(_e) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Xdr);\n\
             \x20           reply.clear();\n\
             \x20           oncrpc::write_reply(reply, h.xid, ReplyOutcome::GarbageArgs);\n\
             \x20           true\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n\n"
        );
        self.push(&body);
    }

    fn onc_call_stub(&mut self, stub: &StubPlan) -> Result<(), String> {
        if stub.op.oneway {
            return Ok(());
        }
        let op = sanitize(&stub.op.name);
        let mut sig = format!(
            "/// Calls `{op}` over a datagram endpoint with ONC-over-UDP\n\
             /// retransmission (deadline/retries/backoff from `opts`; duplicate,\n\
             /// stale, and corrupt replies are absorbed by the xid match).\n\
             pub fn call_{op}<E: flick_runtime::client::Endpoint>(ep: &E, xid: u32, prog: u32, vers: u32, opts: &flick_runtime::client::CallOptions"
        );
        let mut args = Vec::new();
        for slot in stub.request.slots.iter().filter(|s| s.live) {
            let ty = self.borrowed_ty(&slot.node)?;
            let name = sanitize(&slot.name);
            let _ = write!(sig, ", {name}: {ty}");
            args.push(name);
        }
        let mut ret = String::from("(");
        for slot in stub.reply.slots.iter().filter(|s| s.live) {
            let _ = write!(ret, "{}, ", self.owned_ty(&slot.node)?);
        }
        ret.push(')');
        let _ = writeln!(
            sig,
            ") -> Result<{ret}, flick_runtime::client::RpcError> {{"
        );
        self.push(&sig);
        // Client span around the full round trip: while it is open the
        // call header stamps its trace context onto the wire, and
        // `finish_call` records the outcome and `rpc.<op>.rtt`.  An
        // empty inline no-op unless the runtime's `telemetry` feature
        // is on.
        self.line(
            1,
            &format!("let _cspan = flick_runtime::trace::client_begin(\"{op}\");"),
        );
        // Encode buffer from the thread-local pool: after warmup the
        // checkout reuses a grown allocation and recycles it on drop.
        self.line(
            1,
            "let mut buf = flick_runtime::pool::checkout(); // recycled on drop",
        );
        // Deadline stamp: while the guard lives, the call header
        // carries the remaining budget on the wire (capped by any
        // budget the request being served arrived with), so the
        // server can refuse this call once it is already too late.
        self.line(
            1,
            "let _budget = flick_runtime::deadline::stamp_capped(opts.deadline);",
        );
        self.line(
            1,
            &format!(
                "flick_runtime::oncrpc::CallHeader {{ xid, prog, vers, proc: {}u32 }}.write(&mut buf);",
                stub.op.request_code
            ),
        );
        self.line(
            1,
            &format!("encode_{op}_request(&mut buf{});", {
                let mut s = String::new();
                for a in &args {
                    let _ = write!(s, ", {a}");
                }
                s
            }),
        );
        self.line(
            1,
            "let body = _cspan.finish_call(flick_runtime::client::call(ep, xid, buf.as_slice(), opts))?;",
        );
        self.line(1, "let mut r = MsgReader::new(&body);");
        self.line(
            1,
            &format!("decode_{op}_reply(&mut r).map_err(flick_runtime::client::RpcError::Decode)"),
        );
        self.push("}\n\n");
        Ok(())
    }

    fn giop_handle_message(&mut self, stubs: &[StubPlan]) {
        let ops: Vec<String> = stubs
            .iter()
            .map(|s| format!("b\"{}\"", s.op.wire_name))
            .collect();
        let ops = ops.join(" | ");
        let body = format!(
            "/// Serves one complete GIOP message.  Unparseable headers answer\n\
             /// `MessageError`; unknown operations and argument decode failures\n\
             /// answer a `SystemException` reply (`BAD_OPERATION` / `MARSHAL`).\n\
             /// Returns true when `reply` holds a message to send back.\n\
             pub fn handle_message<S: Server>(msg: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> bool {{\n\
             \x20   use flick_runtime::cdr::{{ByteOrder, CdrIn, CdrOut}};\n\
             \x20   use flick_runtime::giop::{{self, MsgType, ReplyStatus}};\n\
             \x20   reply.clear();\n\
             \x20   let mut r = MsgReader::new(msg);\n\
             \x20   let h = match giop::read_header(&mut r) {{\n\
             \x20       Ok(h) => h,\n\
             \x20       Err(_) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           giop::write_message_error(reply, ByteOrder::native());\n\
             \x20           return true;\n\
             \x20       }}\n\
             \x20   }};\n\
             \x20   if h.msg_type == MsgType::CloseConnection {{\n\
             \x20       return false;\n\
             \x20   }}\n\
             \x20   if h.msg_type != MsgType::Request {{\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20       giop::write_message_error(reply, h.order);\n\
             \x20       return true;\n\
             \x20   }}\n\
             \x20   let cdr = CdrIn::begin(&r, h.order);\n\
             \x20   let req = match giop::get_request_header_ref(&mut r, &cdr) {{\n\
             \x20       Ok(x) => x,\n\
             \x20       Err(_) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           giop::write_message_error(reply, h.order);\n\
             \x20           return true;\n\
             \x20       }}\n\
             \x20   }};\n\
             \x20   // A request whose propagated budget is already spent gets the\n\
             \x20   // cheap failure, not the work (see flick_runtime::deadline).\n\
             \x20   if flick_runtime::deadline::inbound_expired() {{\n\
             \x20       flick_runtime::metrics::rpc_expired();\n\
             \x20       let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20       let out = CdrOut::begin(reply, h.order);\n\
             \x20       giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20       giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/TIMEOUT:1.0\", 0);\n\
             \x20       giop::finish_message(reply, at, h.order);\n\
             \x20       return req.response_expected;\n\
             \x20   }}\n\
             \x20   if !matches!(req.operation.as_bytes(), {ops}) {{\n\
             \x20       flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20       let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20       let out = CdrOut::begin(reply, h.order);\n\
             \x20       giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20       giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/BAD_OPERATION:1.0\", 0);\n\
             \x20       giop::finish_message(reply, at, h.order);\n\
             \x20       return req.response_expected;\n\
             \x20   }}\n\
             \x20   let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20   let out = CdrOut::begin(reply, h.order);\n\
             \x20   giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::NoException);\n\
             \x20   match dispatch_by_name(req.operation.as_bytes(), &msg[r.pos()..], reply, srv) {{\n\
             \x20       Ok(()) => {{\n\
             \x20           giop::finish_message(reply, at, h.order);\n\
             \x20           req.response_expected\n\
             \x20       }}\n\
             \x20       Err(_e) => {{\n\
             \x20           flick_runtime::metrics::reject(flick_runtime::metrics::Codec::Cdr);\n\
             \x20           reply.clear();\n\
             \x20           let at = giop::begin_message(reply, h.order, MsgType::Reply);\n\
             \x20           let out = CdrOut::begin(reply, h.order);\n\
             \x20           giop::put_reply_header(reply, &out, req.request_id, ReplyStatus::SystemException);\n\
             \x20           giop::put_system_exception(reply, &out, \"IDL:omg.org/CORBA/MARSHAL:1.0\", 0);\n\
             \x20           giop::finish_message(reply, at, h.order);\n\
             \x20           req.response_expected\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n\n"
        );
        self.push(&body);
    }

    // ================= presented types =================

    fn collect_types(&mut self, node: &PlanNode) -> Result<(), String> {
        match node {
            PlanNode::Packed { pres, .. } => self.collect_types_pres(*pres),
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                if !self.types.contains_key(type_name) {
                    self.types.insert(type_name.clone(), String::new()); // cycle guard
                    let mut def = format!(
                        "/// Presented type `{type_name}` (generated).\n\
                         #[derive(Clone, Debug, PartialEq)]\n\
                         pub struct {type_name} {{\n"
                    );
                    for (fname, fplan) in fields {
                        let fty = self.owned_ty(fplan)?;
                        let _ = writeln!(def, "    pub {fname}: {fty},");
                    }
                    def.push_str("}\n");
                    self.types.insert(type_name.clone(), def);
                }
                for (_, f) in fields {
                    self.collect_types(f)?;
                }
                Ok(())
            }
            PlanNode::Union {
                type_name,
                cases,
                default,
                ..
            } => {
                if !self.types.contains_key(type_name) {
                    self.types.insert(type_name.clone(), String::new());
                    let mut def = format!(
                        "/// Presented union `{type_name}` (generated).\n\
                         #[derive(Clone, Debug, PartialEq)]\n\
                         pub enum {type_name} {{\n"
                    );
                    let mut seen_variants = std::collections::HashSet::new();
                    for (_, name, c) in cases {
                        // Multi-label arms (`case 1: case 2: long cool;`)
                        // share one variant.
                        if !seen_variants.insert(cap_first(name)) {
                            continue;
                        }
                        let ty = self.owned_ty(c)?;
                        if ty == "()" {
                            let _ = writeln!(def, "    {},", cap_first(name));
                        } else {
                            let _ = writeln!(def, "    {}({ty}),", cap_first(name));
                        }
                    }
                    if let Some((_, d)) = default {
                        let ty = self.owned_ty(d)?;
                        if ty == "()" {
                            def.push_str("    Other(i64),\n");
                        } else {
                            let _ = writeln!(def, "    Other(i64, {ty}),");
                        }
                    }
                    def.push_str("}\n");
                    self.types.insert(type_name.clone(), def);
                }
                for (_, _, c) in cases {
                    self.collect_types(c)?;
                }
                if let Some((_, d)) = default {
                    self.collect_types(d)?;
                }
                Ok(())
            }
            PlanNode::CountedArray { elem, .. }
            | PlanNode::FixedArray { elem, .. }
            | PlanNode::Optional { elem, .. } => self.collect_types(elem),
            _ => Ok(()),
        }
    }

    /// Collects type definitions reachable from a packed PRES subtree
    /// (packed plans flatten nested structs, but the *types* still
    /// need definitions).
    fn collect_types_pres(&mut self, pres: PresId) -> Result<(), String> {
        match self.presc.pres.get(pres).clone() {
            PresNode::StructMap { ctype, fields, .. } => {
                let name = named(&ctype).ok_or("packed struct without a type name")?;
                if !self.types.contains_key(&name) {
                    self.types.insert(name.clone(), String::new());
                    let mut def = format!(
                        "/// Presented type `{name}` (generated).\n\
                         #[derive(Clone, Debug, PartialEq)]\n\
                         pub struct {name} {{\n"
                    );
                    for (fname, f) in &fields {
                        let fty = self.pres_owned_ty(*f)?;
                        let _ = writeln!(def, "    pub {fname}: {fty},");
                    }
                    def.push_str("}\n");
                    self.types.insert(name.clone(), def);
                }
                for (_, f) in &fields {
                    self.collect_types_pres(*f)?;
                }
                Ok(())
            }
            PresNode::FixedArray { elem, .. } => self.collect_types_pres(elem),
            _ => Ok(()),
        }
    }

    /// The owned Rust type of a *pres* subtree (packed regions only:
    /// scalars, fixed arrays, structs).
    fn pres_owned_ty(&mut self, pres: PresId) -> Result<String, String> {
        Ok(match self.presc.pres.get(pres).clone() {
            PresNode::Direct { mint, .. } => {
                prim_rust_ty(self.be.encoding.prim(&self.presc.mint, mint)).to_string()
            }
            PresNode::EnumMap { .. } => "u32".to_string(),
            PresNode::FixedArray { elem, len, .. } => {
                format!("[{}; {len}]", self.pres_owned_ty(elem)?)
            }
            PresNode::StructMap { ctype, .. } => {
                named(&ctype).ok_or("unnamed struct in packed region")?
            }
            other => return Err(format!("non-fixed node {other:?} inside packed region")),
        })
    }

    /// The owned Rust type a plan node decodes into.
    fn owned_ty(&mut self, node: &PlanNode) -> Result<String, String> {
        Ok(match node {
            PlanNode::Void => "()".to_string(),
            PlanNode::Prim { prim, .. } => prim_rust_ty(*prim).to_string(),
            PlanNode::Enum { .. } => "u32".to_string(),
            PlanNode::Packed { pres, .. } => self.pres_owned_ty(*pres)?,
            PlanNode::MemcpyArray {
                prim, fixed_len, ..
            } => match fixed_len {
                Some(n) => format!("[{}; {n}]", prim_rust_ty(*prim)),
                None => format!("Vec<{}>", prim_rust_ty(*prim)),
            },
            PlanNode::String { .. } => "String".to_string(),
            PlanNode::CountedArray { elem, .. } => format!("Vec<{}>", self.owned_ty(elem)?),
            PlanNode::FixedArray { len, elem, .. } => {
                format!("[{}; {len}]", self.owned_ty(elem)?)
            }
            PlanNode::Struct { type_name, .. } | PlanNode::Union { type_name, .. } => {
                type_name.clone()
            }
            PlanNode::Optional { elem, .. } => {
                format!("Option<Box<{}>>", self.owned_ty(elem)?)
            }
            PlanNode::Outline { key } => key.clone(),
        })
    }

    /// The borrowed Rust type an encode function takes for a slot.
    fn borrowed_ty(&mut self, node: &PlanNode) -> Result<String, String> {
        Ok(match node {
            PlanNode::Void => "()".to_string(),
            PlanNode::Prim { prim, .. } => prim_rust_ty(*prim).to_string(),
            PlanNode::Enum { .. } => "u32".to_string(),
            PlanNode::String { .. } => "&str".to_string(),
            PlanNode::MemcpyArray {
                prim, fixed_len, ..
            } => match fixed_len {
                Some(n) => format!("&[{}; {n}]", prim_rust_ty(*prim)),
                None => format!("&[{}]", prim_rust_ty(*prim)),
            },
            PlanNode::CountedArray { elem, .. } => format!("&[{}]", self.owned_ty(elem)?),
            other => {
                let owned = self.owned_ty(other)?;
                if matches!(
                    other,
                    PlanNode::Packed { .. }
                        | PlanNode::Struct { .. }
                        | PlanNode::Union { .. }
                        | PlanNode::FixedArray { .. }
                        | PlanNode::Optional { .. }
                        | PlanNode::Outline { .. }
                ) {
                    format!("&{owned}")
                } else {
                    owned
                }
            }
        })
    }

    // ================= per-stub functions =================

    fn stub_fns(&mut self, stub: &StubPlan) -> Result<(), String> {
        let op = sanitize(&stub.op.name);
        self.msg_fns(&format!("{op}_request"), &stub.request)?;
        if !stub.op.oneway {
            self.msg_fns(&format!("{op}_reply"), &stub.reply)?;
        }
        Ok(())
    }

    fn msg_fns(&mut self, what: &str, msg: &MsgPlan) -> Result<(), String> {
        // ---- encode ----
        // Dead slots never appear in the generated signature: the PRES
        // mapping hides them whether or not `dead-slot` removed their
        // marshal work.
        let mut sig = format!(
            "/// Encodes the `{what}` message body.\npub fn encode_{what}(buf: &mut MarshalBuf"
        );
        for slot in msg.slots.iter().filter(|s| s.live) {
            let ty = self.borrowed_ty(&slot.node)?;
            let _ = write!(sig, ", {}: {}", sanitize(&slot.name), ty);
        }
        sig.push_str(") {\n");
        self.push(&sig);
        let needs_base = !self.be.encoding.widen_to_word;
        if needs_base {
            self.line(1, "let _base = buf.len();");
        }
        // §3.1: one hoisted check when the whole message is fixed or
        // bounded under the threshold (decided by `hoist-checks`).
        let mut covered = false;
        if let Some(n) = msg.hoisted {
            match msg.class {
                SizeClass::Fixed(_) => {
                    self.line(
                        1,
                        &format!("buf.ensure({n}); // whole message is fixed-size"),
                    );
                }
                _ => {
                    self.line(
                        1,
                        &format!("buf.ensure({n}); // whole message is bounded (<= threshold)"),
                    );
                }
            }
            covered = true;
        }
        let mut ctx = EncCtx { covered, depth: 1 };
        for slot in &msg.slots {
            let node = slot.node.clone();
            if slot.live {
                let v = sanitize(&slot.name);
                self.emit_encode(&node, &v, &mut ctx)?;
            } else {
                // Naive path (`dead-slot` off): the wire still carries
                // the slot, zero-filled.
                let d = ctx.depth;
                self.line(
                    d,
                    &format!(
                        "// dead slot `{}`: never presented, wire gets zero",
                        slot.name
                    ),
                );
                let z = Self::zero_expr(&node)?;
                self.emit_encode(&node, &z, &mut ctx)?;
            }
        }
        self.push("}\n\n");

        // ---- decode ----
        let mut ret = String::from("(");
        for slot in msg.slots.iter().filter(|s| s.live) {
            let _ = write!(ret, "{}, ", self.owned_ty(&slot.node)?);
        }
        ret.push(')');
        let _ = write!(
            self.out,
            "/// Decodes the `{what}` message body.\n\
             pub fn decode_{what}(r: &mut MsgReader<'_>) -> Result<{ret}, DecodeError> {{\n"
        );
        if needs_base {
            self.line(1, "let _base = r.pos();");
        }
        let mut names = Vec::new();
        for slot in &msg.slots {
            let node = slot.node.clone();
            if !slot.live {
                self.line(
                    1,
                    &format!("// dead slot `{}`: decoded and discarded", slot.name),
                );
            }
            let v = self.emit_decode(&node, 1, false)?;
            if slot.live {
                names.push(v);
            }
        }
        let tuple: String = names.iter().map(|n| format!("{n}, ")).collect();
        self.line(1, &format!("Ok(({tuple}))"));
        self.push("}\n\n");
        Ok(())
    }

    // ================= encode =================

    fn align_enc(&mut self, align: u8, depth: usize) {
        if !self.be.encoding.widen_to_word && align > 1 {
            self.line(depth, &format!("buf.align_from(_base, {align});"));
        }
    }

    fn path_expr(base: &str, path: &ValPath) -> String {
        match path {
            ValPath::Root => base.to_string(),
            ValPath::Field(p, f) => format!("{}.{f}", Self::path_expr(base, p)),
            ValPath::Index(p, i) => format!("{}[{i}]", Self::path_expr(base, p)),
        }
    }

    fn mach_descriptor(&mut self, name: u8, bits: u8, count_expr: &str, depth: usize) {
        if self.be.encoding.typed_descriptors {
            self.line(
                depth,
                &format!(
                    "flick_runtime::mach::put_type(buf, {name}, {bits}, ({count_expr}) as u32);"
                ),
            );
        }
    }

    fn emit_encode(
        &mut self,
        node: &PlanNode,
        vexpr: &str,
        ctx: &mut EncCtx,
    ) -> Result<(), String> {
        let d = ctx.depth;
        match node {
            PlanNode::Void => {}
            PlanNode::Prim { prim, .. } => {
                self.mach_descriptor(mach_name(*prim), prim.size * 8, "1", d);
                self.align_enc(prim.align, d);
                if !self.hoist {
                    // Traditional shape: a space check before every
                    // atomic datum (§3.1's unoptimized comparison).
                    self.line(d, &format!("buf.ensure({});", prim.slot));
                } else if !ctx.covered {
                    self.line(d, &format!("buf.ensure({});", prim.slot));
                }
                self.line(d, &put_prim_call(*prim, vexpr));
            }
            PlanNode::Enum { prim } => {
                self.align_enc(prim.align, d);
                self.line(d, &put_prim_call(*prim, vexpr));
            }
            PlanNode::Packed { layout, .. } => {
                self.align_enc(layout.align.min(8) as u8, d);
                if !self.hoist {
                    self.line(
                        d,
                        &format!("buf.ensure({}); // region check (chunk)", layout.size),
                    );
                } else if !ctx.covered {
                    self.line(d, &format!("buf.ensure({}); // fixed region", layout.size));
                }
                let cvar = self.fresh("c");
                self.line(d, &format!("let mut {cvar} = buf.chunk({});", layout.size));
                for item in layout.items.clone() {
                    match item {
                        crate::layout::PackedItem::Prim { offset, prim, path } => {
                            let e = Self::path_expr(vexpr, &path);
                            self.line(d, &chunk_put_call(prim, &offset.to_string(), &e, &cvar));
                        }
                        crate::layout::PackedItem::PrimRun {
                            offset,
                            prim,
                            count,
                            path,
                            ..
                        } => {
                            let e = Self::path_expr(vexpr, &path);
                            if self.memcpy && prim.memcpy_compatible(prim.size) {
                                self.line(
                                    d,
                                    &format!(
                                        "{cvar}.put_bytes_at({offset}, pod::bytes_of(&{e}[..])); // memcpy run"
                                    ),
                                );
                            } else {
                                let i = self.fresh("i");
                                self.line(d, &format!("for {i} in 0..{count}usize {{"));
                                let elem = format!("{e}[{i}]");
                                let off = format!("{offset} + {i} * {}", prim.slot);
                                self.line(d + 1, &chunk_put_call(prim, &off, &elem, &cvar));
                                self.line(d, "}");
                            }
                        }
                    }
                }
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                counted,
                pad_unit,
                ..
            } => {
                let len_expr = match fixed_len {
                    Some(n) => n.to_string(),
                    None => format!("{vexpr}.len()"),
                };
                self.mach_descriptor(mach_name(*prim), prim.size * 8, &len_expr, d);
                if *counted {
                    if !self.hoist {
                        self.line(d, "buf.ensure(4);");
                        self.line(
                            d,
                            &format!("buf.ensure({vexpr}.len() * {} + 4);", prim.size),
                        );
                    } else if !ctx.covered {
                        self.line(
                            d,
                            &format!("buf.ensure(8 + {vexpr}.len() * {});", prim.size),
                        );
                    }
                    self.align_enc(4, d);
                    self.line(
                        d,
                        &len_prefix_call(&self.be.encoding, &format!("{vexpr}.len()")),
                    );
                } else if !ctx.covered && self.hoist {
                    self.line(d, &format!("buf.ensure({len_expr} * {} + 4);", prim.size));
                }
                if prim.align > 1 {
                    self.align_enc(prim.align, d);
                }
                self.line(
                    d,
                    &format!("buf.put_bytes(pod::bytes_of(&{vexpr}[..])); // memcpy run"),
                );
                if let Some(u) = pad_unit {
                    self.line(d, &format!("buf.align_to({u});"));
                }
            }
            PlanNode::String {
                style, pad_unit, ..
            } => {
                if self.be.encoding.typed_descriptors {
                    self.mach_descriptor(8, 8, &format!("{vexpr}.len()"), d);
                }
                if !self.hoist {
                    self.line(d, "buf.ensure(4);");
                } else if !ctx.covered {
                    self.line(d, &format!("buf.ensure(8 + {vexpr}.len());"));
                }
                self.align_enc(4, d);
                if !self.hoist {
                    self.line(d, &format!("buf.ensure({vexpr}.len() + 4);"));
                }
                for l in string_write(&self.be.encoding, vexpr, *style, *pad_unit) {
                    self.line(d, &l);
                }
            }
            PlanNode::CountedArray {
                elem, elem_class, ..
            } => {
                self.align_enc(4, d);
                if !self.hoist || !ctx.covered {
                    self.line(d, "buf.ensure(4);");
                }
                self.line(
                    d,
                    &len_prefix_call(&self.be.encoding, &format!("{vexpr}.len()")),
                );
                // §3.1: a fixed-size element lets the whole array's
                // space be reserved in one step before the loop.
                let hoisted = if let (true, SizeClass::Fixed(n)) =
                    (self.hoist && !ctx.covered, *elem_class)
                {
                    self.line(
                        d,
                        &format!("buf.ensure({vexpr}.len() * {n}); // hoisted from the loop"),
                    );
                    true
                } else {
                    false
                };
                let evar = self.fresh("e");
                if matches!(**elem, PlanNode::Prim { .. } | PlanNode::Enum { .. }) {
                    self.line(d, &format!("for {evar} in {vexpr}.iter().copied() {{"));
                } else {
                    self.line(d, &format!("for {evar} in {vexpr} {{"));
                }
                let saved = ctx.covered;
                ctx.covered = ctx.covered || hoisted;
                ctx.depth = d + 1;
                let elem_node = (**elem).clone();
                self.emit_encode(&elem_node, &evar, ctx)?;
                ctx.covered = saved;
                ctx.depth = d;
                self.line(d, "}");
            }
            PlanNode::FixedArray { elem, .. } => {
                let evar = self.fresh("e");
                if matches!(**elem, PlanNode::Prim { .. } | PlanNode::Enum { .. }) {
                    self.line(d, &format!("for {evar} in {vexpr}.iter().copied() {{"));
                } else {
                    self.line(d, &format!("for {evar} in {vexpr}.iter() {{"));
                }
                ctx.depth = d + 1;
                let elem_node = (**elem).clone();
                self.emit_encode(&elem_node, &evar, ctx)?;
                ctx.depth = d;
                self.line(d, "}");
            }
            PlanNode::Struct { fields, .. } => {
                for (fname, f) in fields {
                    let e = format!("{vexpr}.{fname}");
                    // Aggregates marshal through a borrow of the field;
                    // scalars by value.
                    let e = match f {
                        PlanNode::Prim { .. } | PlanNode::Enum { .. } => e,
                        PlanNode::String { .. } => format!("(&{e}[..])"),
                        PlanNode::MemcpyArray {
                            fixed_len: None, ..
                        }
                        | PlanNode::CountedArray { .. } => format!("(&{e}[..])"),
                        _ => format!("(&{e})"),
                    };
                    self.emit_encode(f, &e, ctx)?;
                }
            }
            PlanNode::Union {
                type_name,
                disc_prim,
                cases,
                default,
            } => {
                self.align_enc(disc_prim.align, d);
                if !ctx.covered && self.hoist {
                    self.line(d, &format!("buf.ensure({});", disc_prim.slot));
                }
                self.line(d, &format!("match {vexpr} {{"));
                // One arm per unique variant; for multi-label arms the
                // first label is the canonical encoding.
                let mut seen_variants = std::collections::HashSet::new();
                for (label, name, c) in cases {
                    let variant = cap_first(name);
                    if !seen_variants.insert(variant.clone()) {
                        continue;
                    }
                    let is_void = matches!(c, PlanNode::Void);
                    let pat = if is_void {
                        format!("{type_name}::{variant}")
                    } else {
                        format!("{type_name}::{variant}(_x)")
                    };
                    self.line(d + 1, &format!("{pat} => {{"));
                    ctx.depth = d + 2;
                    self.line(d + 2, &put_prim_call(*disc_prim, &label.to_string()));
                    if !is_void {
                        let c2 = c.clone();
                        let e = match c {
                            PlanNode::Prim { .. } | PlanNode::Enum { .. } => "(*_x)".to_string(),
                            PlanNode::String { .. } => "(&_x[..])".to_string(),
                            PlanNode::MemcpyArray {
                                fixed_len: None, ..
                            }
                            | PlanNode::CountedArray { .. } => "(&_x[..])".to_string(),
                            _ => "_x".to_string(),
                        };
                        self.emit_encode(&c2, &e, ctx)?;
                    }
                    ctx.depth = d;
                    self.line(d + 1, "}");
                }
                if let Some((_, dflt)) = default {
                    let is_void = matches!(**dflt, PlanNode::Void);
                    if is_void {
                        self.line(d + 1, &format!("{type_name}::Other(_d) => {{"));
                    } else {
                        self.line(d + 1, &format!("{type_name}::Other(_d, _x) => {{"));
                    }
                    self.line(d + 2, &put_prim_call(*disc_prim, "(*_d)"));
                    if !is_void {
                        ctx.depth = d + 2;
                        let dn = (**dflt).clone();
                        let e = match &dn {
                            PlanNode::Prim { .. } | PlanNode::Enum { .. } => "(*_x)".to_string(),
                            PlanNode::String { .. } => "(&_x[..])".to_string(),
                            PlanNode::MemcpyArray {
                                fixed_len: None, ..
                            }
                            | PlanNode::CountedArray { .. } => "(&_x[..])".to_string(),
                            _ => "_x".to_string(),
                        };
                        self.emit_encode(&dn, &e, ctx)?;
                        ctx.depth = d;
                    }
                    self.line(d + 1, "}");
                }
                self.line(d, "}");
            }
            PlanNode::Optional { elem, .. } => {
                let flag = self.be.encoding.prim_for_size(1, false);
                if !ctx.covered && self.hoist {
                    self.line(d, &format!("buf.ensure({});", flag.slot));
                }
                self.line(d, &format!("match {vexpr} {{"));
                self.line(d + 1, "Some(_inner) => {");
                self.line(d + 2, &put_prim_call(flag, "1u8"));
                ctx.depth = d + 2;
                let en = (**elem).clone();
                self.emit_encode(&en, "(&**_inner)", ctx)?;
                ctx.depth = d;
                self.line(d + 1, "}");
                self.line(d + 1, "None => {");
                self.line(d + 2, &put_prim_call(flag, "0u8"));
                self.line(d + 1, "}");
                self.line(d, "}");
            }
            PlanNode::Outline { key } => {
                self.line(d, &format!("marshal_{}(buf, {vexpr});", sanitize(key)));
            }
        }
        Ok(())
    }

    // ================= decode =================

    fn align_dec(&mut self, align: u8, depth: usize) {
        if !self.be.encoding.widen_to_word && align > 1 {
            self.line(depth, &format!("r.align_from(_base, {align})?;"));
        }
    }

    /// Reads (or, when `merge-prefix` hoisted it above the dispatch
    /// switch, reuses) the aligned u32 length prefix.  Returns the
    /// local holding the count.
    fn read_len_prefix(&mut self, d: usize) -> String {
        let lv = self.fresh("len");
        if let Some(pv) = self.prefetched_len.take() {
            self.line(
                d,
                &format!("let {lv} = {pv}; // merge-prefix: count decoded above the switch"),
            );
        } else {
            self.align_dec(4, d);
            self.line(
                d,
                &format!("let {lv} = {};", len_prefix_expr(&self.be.encoding)),
            );
        }
        lv
    }

    /// The zero literal a dead (never-presented) slot encodes.
    fn zero_expr(node: &PlanNode) -> Result<String, String> {
        match node {
            PlanNode::Prim { prim, .. } => Ok(zero_of(prim_rust_ty(*prim))),
            PlanNode::Enum { .. } => Ok("0u32".to_string()),
            other => Err(format!(
                "dead slot with a non-primitive plan {other:?} (presgen only \
                 suppresses scalar parameters)"
            )),
        }
    }

    fn skip_descriptor(&mut self, depth: usize) {
        if self.be.encoding.typed_descriptors {
            self.line(depth, "let _desc = flick_runtime::mach::get_type(r)?;");
        }
    }

    /// Emits statements that decode `node`, returning the name of the
    /// local holding the decoded value.
    fn emit_decode(&mut self, node: &PlanNode, d: usize, borrowed: bool) -> Result<String, String> {
        Ok(match node {
            PlanNode::Void => {
                let v = self.fresh("v");
                self.line(d, &format!("let {v} = ();"));
                v
            }
            PlanNode::Prim { prim, .. } => {
                self.skip_descriptor(d);
                self.align_dec(prim.align, d);
                let v = self.fresh("v");
                let e = get_prim_expr(*prim);
                self.line(d, &format!("let {v} = {e};"));
                v
            }
            PlanNode::Enum { prim } => {
                self.align_dec(prim.align, d);
                let v = self.fresh("v");
                self.line(d, &format!("let {v} = {};", get_prim_expr(*prim)));
                v
            }
            PlanNode::Packed { layout, pres, .. } => {
                self.align_dec(layout.align.min(8) as u8, d);
                let cvar = self.fresh("c");
                self.line(
                    d,
                    &format!(
                        "let {cvar} = r.chunk({})?; // one truncation check",
                        layout.size
                    ),
                );
                let mut cur = LayoutCursor::default();
                let expr = self.packed_value(*pres, &mut cur, &cvar)?;
                let v = self.fresh("v");
                self.line(d, &format!("let {v} = {expr};"));
                v
            }
            PlanNode::MemcpyArray {
                prim,
                fixed_len,
                bound,
                pad_unit,
                ..
            } => {
                self.skip_descriptor(d);
                let ty = prim_rust_ty(*prim);
                let v = self.fresh("v");
                match fixed_len {
                    Some(n) => {
                        let bytes = n * u64::from(prim.size);
                        let pad = pad_unit
                            .map(|u| {
                                let u = u64::from(u);
                                (u - bytes % u) % u
                            })
                            .unwrap_or(0);
                        self.line(d, &format!("let mut {v} = [{}; {n}];", zero_of(ty)));
                        self.line(
                            d,
                            &format!("pod::copy_into(r.bytes({bytes})?, &mut {v}); // memcpy run"),
                        );
                        if pad > 0 {
                            self.line(d, &format!("r.skip({pad})?;"));
                        }
                    }
                    None => {
                        let lv = self.read_len_prefix(d);
                        if let Some(b) = bound {
                            self.line(d, &bound_check(&lv, *b));
                        }
                        if prim.align > 1 {
                            self.align_dec(prim.align, d);
                        }
                        self.line(
                            d,
                            &format!(
                                "let {v}: Vec<{ty}> = pod::vec_from_bytes(r.bytes({lv} * {})?); // memcpy run",
                                prim.size
                            ),
                        );
                        if let Some(u) = pad_unit {
                            self.line(
                                d,
                                &format!("r.skip(({u} - ({lv} * {}) % {u}) % {u})?;", prim.size),
                            );
                        }
                    }
                }
                v
            }
            PlanNode::String {
                bound,
                style,
                pad_unit,
                borrow_ok,
                ..
            } => {
                self.skip_descriptor(d);
                let lv = self.read_len_prefix(d);
                let bytes = self.fresh("bytes");
                let v = self.fresh("v");
                let borrow = borrowed && *borrow_ok;
                for l in string_read(&lv, &bytes, &v, *bound, *style, *pad_unit, borrow) {
                    self.line(d, &l);
                }
                v
            }
            PlanNode::CountedArray {
                bound,
                elem,
                elem_class,
                ..
            } => {
                let lv = self.read_len_prefix(d);
                if let Some(b) = bound {
                    self.line(d, &bound_check(&lv, *b));
                }
                // Guard capacity against hostile counts: never reserve
                // more than the message could actually hold.
                let elem_min = match elem_class {
                    SizeClass::Fixed(n) | SizeClass::Bounded(n) => (*n).max(1),
                    SizeClass::Unbounded => 1,
                };
                let v = self.fresh("v");
                let ety = self.owned_ty(elem)?;
                self.line(
                    d,
                    &format!(
                        "let mut {v}: Vec<{ety}> = Vec::with_capacity({lv}.min(r.remaining() / {elem_min} + 1));"
                    ),
                );
                let i = self.fresh("i");
                self.line(d, &format!("for {i} in 0..{lv} {{"));
                let en = (**elem).clone();
                // In-buffer presentation applies only to top-level
                // slots; element values are built owned.
                let ev = self.emit_decode(&en, d + 1, false)?;
                self.line(d + 1, &format!("{v}.push({ev});"));
                self.line(d, "}");
                v
            }
            PlanNode::FixedArray { len, elem, .. } => {
                let mut parts = Vec::new();
                let block = self.fresh("v");
                let ety = self.owned_ty(elem)?;
                self.line(d, &format!("let {block}: [{ety}; {len}] = {{"));
                for _ in 0..*len {
                    let en = (**elem).clone();
                    let ev = self.emit_decode(&en, d + 1, false)?;
                    parts.push(ev);
                }
                self.line(d + 1, &format!("[{}]", parts.join(", ")));
                self.line(d, "};");
                block
            }
            PlanNode::Struct {
                type_name, fields, ..
            } => {
                let mut inits = Vec::new();
                for (fname, f) in fields {
                    let fv = self.emit_decode(f, d, false)?;
                    inits.push(format!("{fname}: {fv}"));
                }
                let v = self.fresh("v");
                self.line(
                    d,
                    &format!("let {v} = {type_name} {{ {} }};", inits.join(", ")),
                );
                v
            }
            PlanNode::Union {
                type_name,
                disc_prim,
                cases,
                default,
            } => {
                self.align_dec(disc_prim.align, d);
                let dv = self.fresh("d");
                self.line(
                    d,
                    &format!("let {dv} = ({}) as i64;", get_prim_expr(*disc_prim)),
                );
                let v = self.fresh("v");
                self.line(d, &format!("let {v} = match {dv} {{"));
                for (label, name, c) in cases {
                    let variant = cap_first(name);
                    self.line(d + 1, &format!("{label} => {{"));
                    if matches!(c, PlanNode::Void) {
                        self.line(d + 2, &format!("{type_name}::{variant}"));
                    } else {
                        let cv = self.emit_decode(c, d + 2, false)?;
                        self.line(d + 2, &format!("{type_name}::{variant}({cv})"));
                    }
                    self.line(d + 1, "}");
                }
                match default {
                    Some((_, dflt)) => {
                        self.line(d + 1, "_other => {");
                        if matches!(**dflt, PlanNode::Void) {
                            self.line(d + 2, &format!("{type_name}::Other(_other)"));
                        } else {
                            let cv = self.emit_decode(dflt, d + 2, false)?;
                            self.line(d + 2, &format!("{type_name}::Other(_other, {cv})"));
                        }
                        self.line(d + 1, "}");
                    }
                    None => {
                        self.line(
                            d + 1,
                            "_other => return Err(DecodeError::BadDiscriminator { value: _other }),",
                        );
                    }
                }
                self.line(d, "};");
                v
            }
            PlanNode::Optional { elem, .. } => {
                let flag = self.be.encoding.prim_for_size(1, false);
                let fv = self.fresh("flag");
                self.line(d, &format!("let {fv} = {};", get_prim_expr(flag)));
                let v = self.fresh("v");
                self.line(d, &format!("let {v} = match {fv} {{"));
                self.line(d + 1, "0 => None,");
                self.line(d + 1, "1 => {");
                let en = (**elem).clone();
                let ev = self.emit_decode(&en, d + 2, false)?;
                self.line(d + 2, &format!("Some(Box::new({ev}))"));
                self.line(d + 1, "}");
                self.line(
                    d + 1,
                    "_ => return Err(DecodeError::BadValue(\"optional flag must be 0 or 1\")),",
                );
                self.line(d, "};");
                v
            }
            PlanNode::Outline { key } => {
                let v = self.fresh("v");
                self.line(d, &format!("let {v} = unmarshal_{}(r)?;", sanitize(key)));
                v
            }
        })
    }

    /// Builds the decode-side value expression for a packed region by
    /// walking its PRES subtree with the *same* layout cursor the
    /// packer used, so offsets agree by construction.
    fn packed_value(
        &mut self,
        pres: PresId,
        cur: &mut LayoutCursor,
        cvar: &str,
    ) -> Result<String, String> {
        Ok(match self.presc.pres.get(pres).clone() {
            PresNode::Void => "()".to_string(),
            PresNode::Direct { mint, .. } => {
                let prim = self.be.encoding.prim(&self.presc.mint, mint);
                let off = cur.place_prim(prim);
                chunk_get_expr(prim, &off.to_string(), cvar)
            }
            PresNode::EnumMap { .. } => {
                let prim = self.be.encoding.prim_for_size(4, false);
                let off = cur.place_prim(prim);
                chunk_get_expr(prim, &off.to_string(), cvar)
            }
            PresNode::FixedArray { elem, len, .. } => {
                if let PresNode::Direct { mint, .. } = self.presc.pres.get(elem) {
                    let prim = self.be.encoding.elem_prim(&self.presc.mint, *mint);
                    if prim.slot == prim.size {
                        let (off, _pad) = cur.place_run(prim, len, &self.be.encoding);
                        let ty = prim_rust_ty(prim);
                        let bytes = len * u64::from(prim.size);
                        if self.memcpy && prim.memcpy_compatible(prim.size) {
                            return Ok(format!(
                                "{{ let mut _a = [{z}; {len}]; pod::copy_into({cvar}.bytes_at({off}, {bytes}), &mut _a); _a }}",
                                z = zero_of(ty)
                            ));
                        }
                        let get =
                            chunk_get_expr(prim, &format!("{off} + _i * {}", prim.slot), cvar);
                        return Ok(format!(
                            "{{ let mut _a = [{z}; {len}]; for _i in 0..{len}usize {{ _a[_i] = {get}; }} _a }}",
                            z = zero_of(ty)
                        ));
                    }
                }
                // Unrolled non-scalar (or padded-slot) elements.
                let mut parts = Vec::new();
                for _ in 0..len {
                    parts.push(self.packed_value(elem, cur, cvar)?);
                }
                format!("[{}]", parts.join(", "))
            }
            PresNode::StructMap { ctype, fields, .. } => {
                let name = named(&ctype).ok_or("unnamed struct in packed region")?;
                let mut inits = Vec::new();
                for (fname, f) in &fields {
                    inits.push(format!("{fname}: {}", self.packed_value(*f, cur, cvar)?));
                }
                format!("{name} {{ {} }}", inits.join(", "))
            }
            other => return Err(format!("non-fixed node {other:?} inside packed region")),
        })
    }

    // ================= outlines =================

    fn outline_fns(&mut self, key: &str, body: &PlanNode) -> Result<(), String> {
        let k = sanitize(key);
        let bty = self.borrowed_ty(body)?;
        let oty = self.owned_ty(body)?;
        let needs_base = !self.be.encoding.widen_to_word;
        let _ = write!(
            self.out,
            "/// Out-of-line marshal for `{key}` (recursive type, or inlining disabled).\n\
             pub fn marshal_{k}(buf: &mut MarshalBuf, v: {bty}) {{\n"
        );
        if needs_base {
            // Out-of-line bodies align against their own entry point;
            // callers align before the call.
            self.line(1, "let _base = buf.len();");
        }
        let mut ctx = EncCtx {
            covered: false,
            depth: 1,
        };
        self.emit_encode(body, "v", &mut ctx)?;
        self.push("}\n\n");

        let _ = write!(
            self.out,
            "/// Out-of-line unmarshal for `{key}`.\n\
             pub fn unmarshal_{k}(r: &mut MsgReader<'_>) -> Result<{oty}, DecodeError> {{\n"
        );
        if needs_base {
            self.line(1, "let _base = r.pos();");
        }
        let v = self.emit_decode(body, 1, false)?;
        self.line(1, &format!("Ok({v})"));
        self.push("}\n\n");
        Ok(())
    }

    // ================= server scaffolding =================

    fn server_trait(&mut self, stubs: &[StubPlan]) -> Result<(), String> {
        self.push("/// The server-side work interface (implemented by user code).\n");
        self.push("pub trait Server {\n");
        for stub in stubs {
            let op = sanitize(&stub.op.name);
            let mut sig = format!("    fn {op}(&mut self");
            for slot in &stub.request.slots {
                if !slot.live {
                    continue; // dead slot: never presented to the server
                }
                let node = slot.node.clone();
                let arena = slot.storage == SlotStorage::Arena;
                let ty = self.dispatch_arg_ty(&node, arena)?;
                let _ = write!(sig, ", {}: {}", sanitize(&slot.name), ty);
            }
            sig.push(')');
            let ret = self.reply_tuple_ty(stub)?;
            if ret != "()" {
                let _ = write!(sig, " -> {ret}");
            }
            sig.push_str(";\n");
            self.push(&sig);
        }
        self.push("}\n\n");
        Ok(())
    }

    /// Argument type as seen by the server work function: borrowed
    /// strings when the `reuse-slots` pass classified the slot
    /// arena-resident (in-buffer presentation), owned otherwise.
    fn dispatch_arg_ty(&mut self, node: &PlanNode, arena: bool) -> Result<String, String> {
        match node {
            PlanNode::String {
                borrow_ok: true, ..
            } if arena => Ok("&str".to_string()),
            other => self.owned_ty(other),
        }
    }

    fn reply_tuple_ty(&mut self, stub: &StubPlan) -> Result<String, String> {
        let live: Vec<PlanNode> = stub
            .reply
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| s.node.clone())
            .collect();
        if stub.op.oneway || live.is_empty() {
            return Ok("()".to_string());
        }
        if live.len() == 1 {
            let inner = self.owned_ty(&live[0])?;
            // `reply-alias`: the server declares mutation through the
            // copy-on-write `Echoed` contract instead of returning the
            // value unconditionally.
            if stub.reply.slots.iter().any(|s| s.live && s.alias.is_some()) {
                return Ok(format!("flick_runtime::Echoed<{inner}>"));
            }
            return Ok(inner);
        }
        let mut out = String::from("(");
        for node in &live {
            let _ = write!(out, "{}, ", self.owned_ty(node)?);
        }
        out.push(')');
        Ok(out)
    }

    fn dispatch_arm(
        &mut self,
        stub: &StubPlan,
        d: usize,
        prefetched: Option<&str>,
    ) -> Result<(), String> {
        let op = sanitize(&stub.op.name);
        let needs_base = !self.be.encoding.widen_to_word;
        // Server span for this request, parented to the trace context
        // the transport header carried; the phase marks below feed
        // per-phase child spans and `rpc.<op>.server`.
        self.line(
            d,
            &format!("let mut _sspan = flick_runtime::trace::server_begin(\"{op}\");"),
        );
        if prefetched.is_none() {
            self.line(d, "let mut r = MsgReader::new(body);");
            self.line(d, "let r = &mut r;");
            if needs_base {
                self.line(d, "let _base = r.pos();");
            }
        }
        // `merge-prefix`: the shared count was decoded above the word
        // switch; the first slot's length read consumes it.
        self.prefetched_len = prefetched.map(str::to_string);
        // Request slots whose bytes a `reply-alias` mark reuses get
        // their wire span captured around the decode; an `Unchanged`
        // reply replays that byte range.
        let aliased: std::collections::BTreeSet<usize> =
            stub.reply.slots.iter().filter_map(|s| s.alias).collect();
        let mut args = Vec::new();
        for (j, slot) in stub.request.slots.clone().iter().enumerate() {
            let node = slot.node.clone();
            if !slot.live {
                self.line(
                    d,
                    &format!("// dead slot `{}`: decoded and discarded", slot.name),
                );
            }
            let capture = aliased.contains(&j);
            if capture {
                self.line(d, &format!("let _alias_start_{j} = r.pos();"));
            }
            // §3.1 reuse analysis: arena-classified slots present in
            // place (borrowed strings, stack values); owned slots
            // allocate.  Dead slots decode borrowed — the value is
            // discarded either way.
            let arena = slot.storage == SlotStorage::Arena || !slot.live;
            let v = self.emit_decode(&node, d, arena)?;
            if capture {
                self.line(d, &format!("let _alias_end_{j} = r.pos();"));
            }
            if slot.live {
                args.push(v);
            }
            if j == 0 && self.prefetched_len.take().is_some() {
                return Err(format!(
                    "merge-prefix: hoisted count not consumed by the first \
                     request slot of `{}`",
                    stub.op.name
                ));
            }
        }
        if self.prefetched_len.take().is_some() {
            return Err(format!(
                "merge-prefix: hoisted count above `{}`, which has no request slots",
                stub.op.name
            ));
        }
        let live_replies = stub.reply.slots.iter().filter(|s| s.live).count();
        self.line(
            d,
            "_sspan.phase(flick_runtime::trace::Phase::Decode, r.pos() as u64);",
        );
        let call = format!("srv.{op}({})", args.join(", "));
        if stub.op.oneway || live_replies == 0 {
            self.line(d, &format!("{call};"));
            self.line(d, "_sspan.phase(flick_runtime::trace::Phase::Work, 0);");
        } else {
            self.line(d, &format!("let _ret = {call};"));
            self.line(d, "_sspan.phase(flick_runtime::trace::Phase::Work, 0);");
            let single = live_replies == 1;
            if let Some(n) = stub.reply.hoisted_capped {
                self.line(d, &format!("reply.ensure({n});"));
            }
            let mut live_i = 0usize;
            for slot in stub.reply.slots.clone().iter() {
                let node = slot.node.clone();
                if !slot.live {
                    // Naive dead reply slot: zero-fill the wire.
                    let z = Self::zero_expr(&node)?;
                    self.line(d, "{");
                    self.line(d + 1, "let buf = &mut *reply;");
                    if needs_base {
                        self.line(d + 1, "let _base = buf.len();");
                    }
                    let mut ctx = EncCtx {
                        covered: false,
                        depth: d + 1,
                    };
                    self.emit_encode(&node, &z, &mut ctx)?;
                    self.line(d, "}");
                    continue;
                }
                let alias = slot.alias;
                let raw = if alias.is_some() {
                    // The `Echoed::Changed` arm binds the mutated value.
                    "_changed".to_string()
                } else if single {
                    "_ret".to_string()
                } else {
                    format!("_ret.{live_i}")
                };
                live_i += 1;
                let vexpr = match node {
                    PlanNode::String { .. } => format!("(&{raw}[..])"),
                    PlanNode::MemcpyArray {
                        fixed_len: None, ..
                    }
                    | PlanNode::CountedArray { .. } => format!("(&{raw}[..])"),
                    PlanNode::Packed { .. }
                    | PlanNode::Struct { .. }
                    | PlanNode::Union { .. }
                    | PlanNode::Optional { .. }
                    | PlanNode::Outline { .. }
                    | PlanNode::MemcpyArray {
                        fixed_len: Some(_), ..
                    }
                    | PlanNode::FixedArray { .. } => format!("(&{raw})"),
                    _ => raw.clone(),
                };
                // `reply-alias` (§3.2 copy avoidance): the server
                // declared through the copy-on-write `Echoed` contract
                // whether it mutated the echoed value.  `Unchanged`
                // answers with the already-validated request bytes —
                // no runtime compare, no snapshot clone; `Changed`
                // takes the normal encode path.
                if let Some(jj) = alias {
                    self.line(d, "match _ret {");
                    self.line(d + 1, "flick_runtime::Echoed::Unchanged => {");
                    self.line(
                        d + 2,
                        &format!(
                            "reply.put_bytes(&body[_alias_start_{jj}.._alias_end_{jj}]); \
                             // reply-alias: reuse request bytes"
                        ),
                    );
                    self.line(d + 1, "}");
                    self.line(d + 1, "flick_runtime::Echoed::Changed(_changed) => {");
                }
                let inner = if alias.is_some() { d + 2 } else { d };
                self.line(inner, "{");
                self.line(inner + 1, "let buf = &mut *reply;");
                if needs_base {
                    self.line(inner + 1, "let _base = buf.len();");
                }
                let mut ctx = EncCtx {
                    covered: false,
                    depth: inner + 1,
                };
                self.emit_encode(&node, &vexpr, &mut ctx)?;
                self.line(inner, "}");
                if alias.is_some() {
                    self.line(d + 1, "}");
                    self.line(d, "}");
                }
            }
            self.line(
                d,
                "_sspan.phase(flick_runtime::trace::Phase::Encode, reply.len() as u64);",
            );
        }
        self.line(d, "_sspan.finish(reply.len() as u64);");
        self.line(d, "Ok(())");
        Ok(())
    }

    fn dispatch_numeric(&mut self, stubs: &[StubPlan]) -> Result<(), String> {
        self.push(
            "/// Server dispatch on a numeric discriminator (ONC procedure\n\
             /// number, Mach message id).  The unmarshal code for each\n\
             /// operation is inlined into the dispatch function (§3.3).\n\
             pub fn dispatch<S: Server>(proc: u32, body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {\n\
             \x20   match proc {\n",
        );
        for stub in stubs {
            self.line(2, &format!("{}u32 => {{", stub.op.request_code));
            self.dispatch_arm(stub, 3, None)?;
            self.line(2, "}");
        }
        self.push(
            "        _ => Err(DecodeError::BadDiscriminator { value: i64::from(proc) }),\n\
             \x20   }\n}\n\n",
        );
        Ok(())
    }

    fn dispatch_by_name(&mut self, stubs: &[StubPlan], demux: &Demux) -> Result<(), String> {
        match demux {
            Demux::Trie(root) => {
                self.push(WORD_AT_FN);
                self.push(
                    "/// Server dispatch on a string discriminator (the IIOP operation\n\
                     /// name), demultiplexed word by word with nested switches.\n\
                     pub fn dispatch_by_name<S: Server>(op: &[u8], body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {\n",
                );
                trie_node(
                    &mut ServerSwitch {
                        e: self,
                        stubs,
                        prefetched: None,
                    },
                    root,
                    1,
                )?;
                self.push("}\n\n");
            }
            Demux::Linear => {
                self.push(
                    "/// Server dispatch on a string discriminator (the IIOP operation\n\
                     /// name), compared name by name (`demux-switch` disabled).\n\
                     pub fn dispatch_by_name<S: Server>(op: &[u8], body: &[u8], reply: &mut MarshalBuf, srv: &mut S) -> Result<(), DecodeError> {\n",
                );
                for stub in stubs {
                    self.line(1, &format!("if op == &b\"{}\"[..] {{", stub.op.wire_name));
                    self.dispatch_arm(stub, 2, None)?;
                    self.line(1, "} else");
                }
                self.line(1, "{");
                self.line(
                    2,
                    "Err(DecodeError::BadDiscriminator { value: op.len() as i64 })",
                );
                self.line(1, "}");
                self.push("}\n\n");
            }
        }
        Ok(())
    }
}

/// The `word_at` helper every word-switch dispatcher reads the
/// discriminator with.
pub(crate) const WORD_AT_FN: &str =
    "/// Reads a zero-padded machine word of the discriminator (§3.3:\n\
     /// \"Flick generates demultiplexing code that examines machine\n\
     /// word-size chunks of the discriminator\").\n\
     #[inline]\nfn word_at(s: &[u8], i: usize) -> u32 {\n\
     \x20   let mut w = [0u8; 4];\n\
     \x20   if i < s.len() {\n\
     \x20       let n = (s.len() - i).min(4);\n\
     \x20       w[..n].copy_from_slice(&s[i..i + n]);\n\
     \x20   }\n\
     \x20   u32::from_ne_bytes(w)\n}\n\n";

/// What the §3.3 word-switch walk asks of the emitter driving it:
/// endpoint servers dispatch to a stub at each leaf, gateways rewrite
/// a message body.
pub(crate) trait WordSwitch {
    /// Appends one line at indent `depth`.
    fn line(&mut self, depth: usize, s: &str);
    /// The wire name of operation `op`.
    ///
    /// # Errors
    /// The trie names an operation the emitter does not know.
    fn wire_name(&self, op: &str) -> Result<String, String>;
    /// Emits the arm body for operation `op` at `depth`.
    ///
    /// # Errors
    /// The arm cannot be emitted.
    fn leaf(&mut self, op: &str, depth: usize) -> Result<(), String>;
    /// Runs before `node`'s switch; what it returns is handed back to
    /// [`WordSwitch::leave`] after the switch.
    fn enter(&mut self, _node: &DemuxNode, _depth: usize) -> Option<String> {
        None
    }
    /// Runs after `node`'s switch with what [`WordSwitch::enter`]
    /// returned.
    fn leave(&mut self, _saved: Option<String>) {}
}

/// Generates the §3.3 nested word switches from a demux trie.
///
/// # Errors
/// What the emitter's [`WordSwitch`] hooks report.
pub(crate) fn trie_node(e: &mut impl WordSwitch, node: &DemuxNode, d: usize) -> Result<(), String> {
    let saved = e.enter(node, d);
    e.line(d, &format!("match word_at(op, {}) {{", node.word * 4));
    for (w, arm) in &node.arms {
        match arm {
            DemuxArm::Op(name) => {
                let wire = e.wire_name(name)?;
                e.line(
                    d + 1,
                    &format!("{w}u32 if op.len() == {} => {{ // \"{wire}\"", wire.len()),
                );
                e.leaf(name, d + 2)?;
                e.line(d + 1, "}");
            }
            DemuxArm::Descend(child) => {
                e.line(d + 1, &format!("{w}u32 => {{"));
                trie_node(e, child, d + 2)?;
                e.line(d + 1, "}");
            }
        }
    }
    e.line(
        d + 1,
        "_ => Err(DecodeError::BadDiscriminator { value: op.len() as i64 }),",
    );
    e.line(d, "}");
    e.leave(saved);
    Ok(())
}

/// The endpoint server's word switch: each leaf dispatches to its
/// stub, below any count the `merge-prefix` pass hoisted.
struct ServerSwitch<'e, 'a> {
    e: &'e mut Emitter<'a>,
    stubs: &'e [StubPlan],
    /// The local holding a hoisted count, once a trie node decoded it.
    prefetched: Option<String>,
}

impl ServerSwitch<'_, '_> {
    fn stub(&self, op: &str) -> Result<&StubPlan, String> {
        self.stubs
            .iter()
            .find(|s| s.op.name == op)
            .ok_or_else(|| format!("demux trie names unknown operation `{op}`"))
    }
}

impl WordSwitch for ServerSwitch<'_, '_> {
    fn line(&mut self, depth: usize, s: &str) {
        self.e.line(depth, s);
    }

    fn wire_name(&self, op: &str) -> Result<String, String> {
        Ok(self.stub(op)?.op.wire_name.clone())
    }

    fn leaf(&mut self, op: &str, depth: usize) -> Result<(), String> {
        let stub = self.stub(op)?.clone();
        let prefetched = self.prefetched.clone();
        self.e.dispatch_arm(&stub, depth, prefetched.as_deref())
    }

    fn enter(&mut self, node: &DemuxNode, d: usize) -> Option<String> {
        let saved = self.prefetched.clone();
        if saved.is_none() && !node.prefix.is_empty() {
            // `merge-prefix` hoisted the shared leading count above the
            // word switch: every operation below this node decodes it
            // here, once, instead of per arm.
            let e = &mut *self.e;
            e.line(d, "let mut r = MsgReader::new(body);");
            e.line(d, "let r = &mut r;");
            if !e.be.encoding.widen_to_word {
                e.line(d, "let _base = r.pos();");
            }
            for step in &node.prefix {
                match step {
                    PrefixStep::LenU32 => {
                        e.align_dec(4, d);
                        let pv = e.fresh("plen");
                        e.line(
                            d,
                            &format!(
                                "let {pv} = {}; // merge-prefix: shared count for every arm below",
                                len_prefix_expr(&e.be.encoding)
                            ),
                        );
                        self.prefetched = Some(pv);
                    }
                }
            }
        }
        saved
    }

    fn leave(&mut self, saved: Option<String>) {
        self.prefetched = saved;
    }
}

struct EncCtx {
    /// True when an enclosing `ensure` already covers this region.
    covered: bool,
    /// Current indent depth.
    depth: usize,
}

fn named(c: &flick_cast::CType) -> Option<String> {
    match c {
        flick_cast::CType::Named(n) => Some(n.clone()),
        _ => None,
    }
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn mach_name(prim: WirePrim) -> u8 {
    match (prim.size, prim.float) {
        (4, true) => 25,
        (8, true) => 26,
        (1, _) => 9,
        (8, _) => 11,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn rust_for(idl: &str, iface: &str, t: Transport) -> String {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, Side::Server, &mut d).expect("presentation");
        let be = BackEnd::new(t);
        be.compile(&p).expect("compiles").rust_source
    }

    const DIR_IDL: &str = r"
        struct Stat { long fields[30]; char tag[16]; };
        struct Dirent { string name; Stat info; };
        typedef sequence<Dirent> DirentSeq;
        interface Directory { void send_dirents(in DirentSeq entries); };
    ";

    #[test]
    fn emits_expected_shapes_for_dirents() {
        let src = rust_for(DIR_IDL, "Directory", Transport::OncTcp);
        assert!(src.contains("pub struct Stat {"), "{src}");
        assert!(src.contains("pub struct Dirent {"), "{src}");
        assert!(src.contains("pub name: String,"), "{src}");
        assert!(src.contains("pub fn encode_send_dirents_request"), "{src}");
        assert!(src.contains("pub fn decode_send_dirents_request"), "{src}");
        // The 136-byte stat chunk (§3.2 chunking).
        assert!(src.contains("buf.chunk(136)"), "{src}");
        assert!(src.contains("r.chunk(136)"), "{src}");
        assert!(src.contains("memcpy run"), "{src}");
        assert!(src.contains("pub fn dispatch<S: Server>"), "{src}");
        assert!(src.contains("1u32 => {"), "{src}");
    }

    #[test]
    fn word_switch_demux_generated() {
        let src = rust_for(
            r"interface Multi {
                void send_mail(in long a);
                void send_file(in long a);
                void stop();
            };",
            "Multi",
            Transport::IiopTcp,
        );
        assert!(src.contains("fn word_at"), "{src}");
        // `send_mail` and `send_file` share their first word, so the
        // trie must descend to a second word.
        assert!(src.contains("word_at(op, 4)"), "{src}");
        assert!(src.contains("// \"send_mail\""), "{src}");
    }

    #[test]
    fn braces_balance() {
        let src = rust_for(DIR_IDL, "Directory", Transport::OncTcp);
        assert_eq!(
            src.matches('{').count(),
            src.matches('}').count(),
            "unbalanced braces:\n{src}"
        );
    }

    #[test]
    fn hoisted_ensure_for_fixed_message() {
        let src = rust_for(
            "struct P { long a; long b; }; interface I { void put(in P p); };",
            "I",
            Transport::OncTcp,
        );
        assert!(
            src.contains("buf.ensure(12); // whole message is fixed-size"),
            "{src}"
        );
    }

    #[test]
    fn loop_hoisted_ensure_for_fixed_elements() {
        let src = rust_for(
            r"
            struct Point { long x; long y; };
            struct Rect { Point min; Point max; };
            typedef sequence<Rect> RectSeq;
            interface I { void put(in RectSeq rs); };
            ",
            "I",
            Transport::OncTcp,
        );
        assert!(src.contains("* 16); // hoisted from the loop"), "{src}");
        assert!(src.contains("buf.chunk(16)"), "{src}");
    }

    #[test]
    fn strings_borrow_on_server_side() {
        let src = rust_for(
            "interface Mail { void send(in string msg); };",
            "Mail",
            Transport::OncTcp,
        );
        assert!(src.contains("fn send(&mut self, msg: &str)"), "{src}");
        assert!(src.contains("zero-copy"), "{src}");
    }

    #[test]
    fn disabling_reuse_slots_presents_strings_owned() {
        let aoi = flick_frontend_corba::parse_str(
            "t.idl",
            "interface Mail { void send(in string msg); };",
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "Mail", Side::Server, &mut d).expect("presentation");
        let mut opts = crate::OptFlags::all();
        opts.reuse_slots = false;
        let src = BackEnd::new(Transport::OncTcp)
            .with_opts(opts)
            .compile(&p)
            .expect("compiles")
            .rust_source;
        // Without the residence analysis every slot presents owned.
        assert!(src.contains("fn send(&mut self, msg: String)"), "{src}");
        assert!(!src.contains("fn send(&mut self, msg: &str)"), "{src}");
    }

    #[test]
    fn aliased_reply_uses_the_echoed_contract() {
        let src = rust_for(
            "interface Echo { long bounce(in long v); };",
            "Echo",
            Transport::OncTcp,
        );
        // Server contract: declare mutation, don't return unconditionally.
        assert!(
            src.contains("fn bounce(&mut self, v: i32) -> flick_runtime::Echoed<i32>"),
            "{src}"
        );
        // Unchanged replays the request byte range; no snapshot clone,
        // no runtime compare survives in the generated code.
        assert!(src.contains("flick_runtime::Echoed::Unchanged =>"), "{src}");
        assert!(src.contains("reply-alias: reuse request bytes"), "{src}");
        assert!(
            src.contains("flick_runtime::Echoed::Changed(_changed) =>"),
            "{src}"
        );
        assert!(!src.contains("reply-alias snapshot"), "{src}");
        // Client call stubs draw their encode buffer from the pool.
        assert!(src.contains("flick_runtime::pool::checkout()"), "{src}");
    }
}

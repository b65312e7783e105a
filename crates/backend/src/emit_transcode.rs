//! Rust emission for encoding→encoding transcoder stubs.
//!
//! Turns a [`TranscodePair`] into a standalone generated module of
//! `transcode_<op>_<message>(src: &[u8], buf: &mut MarshalBuf)`
//! functions plus dispatchers for both gateway directions: a
//! procedure-number switch for the forward gateway and the endpoint
//! word-switch demux over operation names for the reverse gateway.
//!
//! Each function walks the read side's MIR and the write side's MIR in
//! lockstep and speaks through the endpoint emitter's own forms
//! (`crate::emit_rust`): every value is read as the source decoder
//! reads it (alignment, bound, NUL, UTF-8, discriminator and flag
//! checks, at the same stream positions) and written as the target
//! encoder writes it.  A fused packed pair moves through one chunk per
//! side, with block copies where the two layouts agree.  Unfused
//! rewrites — the `_naive` twins, and every rewrite of a module built
//! with `fuse-transcode` off — go value by value on the stream and
//! materialize strings and scalar sequences, as decode-then-re-encode
//! would.

use std::fmt::Write;

use crate::emit_rust::{
    bound_check, chunk_get_expr, chunk_put_call, get_prim_expr, len_prefix_call, len_prefix_expr,
    prim_rust_ty, put_prim_call, string_read, string_write, trie_node, WordSwitch, WORD_AT_FN,
};
use crate::encoding::{Order, WirePrim};
use crate::mir::{MsgPlan, PlanNode, StubPlan};
use crate::transcode::{
    array_of, bulk, check_steps, packed_steps, Array, Elems, Side, Step, TranscodePair,
};

/// Emits the transcoder module for `pair`.
///
/// # Errors
/// The two sides disagree on a message's shape, or a fusion fails the
/// pair check.
pub fn emit(pair: &TranscodePair) -> Result<String, String> {
    let mut e = Emit {
        pair,
        out: String::new(),
        tmp: 0,
        depth: 0,
    };
    e.module()?;
    Ok(e.out)
}

/// One direction: the side read and the side written, and the outline
/// helper family it calls.
#[derive(Clone, Copy)]
struct Dir<'a> {
    from: &'a Side,
    to: &'a Side,
    /// Helper-name prefix (`fwd` = src→dst, `rev` = dst→src).
    tag: &'static str,
}

struct Emit<'a> {
    pair: &'a TranscodePair,
    out: String,
    tmp: u32,
    depth: usize,
}

impl<'a> Emit<'a> {
    fn fwd(&self) -> Dir<'a> {
        Dir {
            from: &self.pair.src,
            to: &self.pair.dst,
            tag: "fwd",
        }
    }

    fn rev(&self) -> Dir<'a> {
        Dir {
            from: &self.pair.dst,
            to: &self.pair.src,
            tag: "rev",
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.depth {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn open(&mut self, s: &str) {
        self.line(s);
        self.depth += 1;
    }

    fn close(&mut self, s: &str) {
        self.depth -= 1;
        self.line(s);
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.tmp += 1;
        format!("_{prefix}{}", self.tmp)
    }

    /// The distinct operations as `(read-side stub, write-side stub)`
    /// of the source and target MIR, in stub order.
    fn ops(&self) -> Vec<(&'a StubPlan, &'a StubPlan)> {
        let (src, dst) = (&self.pair.src.mir.stubs, &self.pair.dst.mir.stubs);
        let mut seen = std::collections::HashSet::new();
        src.iter()
            .zip(dst)
            .filter(|(s, _)| seen.insert(s.op.name.as_str()))
            .collect()
    }

    fn module(&mut self) -> Result<(), String> {
        let p = self.pair;
        let (src, dst) = (p.src.enc.name, p.dst.enc.name);
        let _ = write!(
            self.out,
            "//! Flick-generated transcoder — interface `{}`, `{src}` → `{dst}`.\n\
             //! Generated by flick-backend; do not edit.\n\
             #![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]\n\
             \n\
             use flick_runtime::bridge::BridgeOp;\n\
             use flick_runtime::buf::{{MarshalBuf, MsgReader}};\n\
             use flick_runtime::error::DecodeError;\n\
             \n\
             /// True when the `fuse-transcode` pass collapsed agreeing runs;\n\
             /// false for the decode-then-re-encode ablation build.\n\
             pub const FUSED: bool = {};\n\
             /// Source (client-facing) encoding.\n\
             pub const SRC_ENCODING: &str = \"{src}\";\n\
             /// Target (server-facing) encoding.\n\
             pub const DST_ENCODING: &str = \"{dst}\";\n\
             /// Byte-order flag for outgoing GIOP headers on the target side.\n\
             pub const DST_LITTLE_ENDIAN: bool = {};\n\
             /// ONC RPC program / version on the source side (the wire\n\
             /// header carries 32 bits; synthesized CORBA ids truncate).\n\
             pub const PROGRAM: u32 = {}u32;\n\
             pub const VERSION: u32 = {}u32;\n\n",
            p.interface,
            p.fused,
            p.dst.enc.order == Order::Little,
            p.program as u32,
            p.version as u32,
        );
        let ops = self.ops();
        self.bridge_table(&ops);
        for &(s, d) in &ops {
            self.op_fns(s, d)?;
        }
        self.dispatchers(&ops)?;
        self.outline_helpers()
    }

    fn bridge_table(&mut self, ops: &[(&StubPlan, &StubPlan)]) {
        self.line("/// Per-operation gateway table consumed by `flick_runtime::bridge`.");
        self.open("pub static BRIDGE_OPS: &[BridgeOp] = &[");
        for (s, _) in ops {
            let n = &s.op.name;
            self.open("BridgeOp {");
            self.line(&format!("proc_num: {}u32,", s.op.request_code));
            self.line(&format!("name: \"{}\",", s.op.wire_name));
            self.line(&format!("oneway: {},", s.op.oneway));
            // Oneways tolerate duplicate delivery by construction
            // (ONC datagram semantics); two-way calls may not, so a
            // retrying upstream link must leave them alone.
            self.line(&format!("idempotent: {},", s.op.oneway));
            self.line(&format!("request: transcode_{n}_request,"));
            self.line(&format!("reply: transcode_{n}_reply,"));
            self.line(&format!("request_naive: transcode_{n}_request_naive,"));
            self.line(&format!("reply_naive: transcode_{n}_reply_naive,"));
            self.close("},");
        }
        self.close("];");
        self.line("");
    }

    /// The six rewrites of one operation: request forward and reply in
    /// reverse (primary and naive twin), then the reverse gateway's
    /// pair.
    fn op_fns(&mut self, s: &'a StubPlan, d: &'a StubPlan) -> Result<(), String> {
        let n = &s.op.name;
        let fused = self.pair.fused;
        // (suffix, reads the source side, request message, fused)
        for (suffix, forward, request, fused) in [
            ("request", true, true, fused),
            ("reply", false, false, fused),
            ("request_naive", true, true, false),
            ("reply_naive", false, false, false),
            ("request_rev", false, true, fused),
            ("reply_rev", true, false, fused),
        ] {
            let (dir, read, write) = if forward {
                (self.fwd(), s, d)
            } else {
                (self.rev(), d, s)
            };
            let msg = |p: &'a StubPlan| if request { &p.request } else { &p.reply };
            let what = if request { "request" } else { "reply" };
            let doc = format!(
                "Rewrites the `{n}` {what} body {} → {}{}.",
                dir.from.enc.name,
                dir.to.enc.name,
                match (fused, suffix.ends_with("_rev")) {
                    (_, true) => " (reverse gateway)",
                    (false, _) => " slot by slot (the fuse-transcode ablation path)",
                    _ => "",
                }
            );
            self.body_fn(
                &format!("transcode_{n}_{suffix}"),
                &doc,
                msg(read),
                msg(write),
                dir,
                fused,
            )
            .map_err(|e| format!("op `{n}` {suffix}: {e}"))?;
        }
        Ok(())
    }

    fn body_fn(
        &mut self,
        name: &str,
        doc: &str,
        read: &MsgPlan,
        write: &MsgPlan,
        dir: Dir<'a>,
        fused: bool,
    ) -> Result<(), String> {
        if read.slots.len() != write.slots.len() {
            return Err("the two sides disagree on the live slots".into());
        }
        self.tmp = 0;
        self.line(&format!("/// {doc}"));
        self.open(&format!(
            "pub fn {name}(src: &[u8], buf: &mut MarshalBuf) -> Result<(), DecodeError> {{"
        ));
        if read.slots.is_empty() {
            self.line("let _ = (src, buf);");
        } else {
            self.line("let mut _reader = MsgReader::new(src);");
            self.line("let r = &mut _reader;");
            self.line("let _sb = r.pos();");
            self.line("let _db = buf.len();");
            for (s, d) in read.slots.iter().zip(&write.slots) {
                self.node(&s.node, &d.node, dir, fused)
                    .map_err(|e| format!("slot `{}`: {e}", s.name))?;
            }
        }
        self.line("Ok(())");
        self.close("}");
        self.line("");
        Ok(())
    }

    // -----------------------------------------------------------------
    // The lockstep walk.
    // -----------------------------------------------------------------

    fn node(
        &mut self,
        s: &PlanNode,
        d: &PlanNode,
        dir: Dir<'a>,
        fused: bool,
    ) -> Result<(), String> {
        match (s, d) {
            (PlanNode::Void, PlanNode::Void) => {}
            (
                PlanNode::Prim { prim: sp, .. } | PlanNode::Enum { prim: sp },
                PlanNode::Prim { prim: dp, .. } | PlanNode::Enum { prim: dp },
            ) => self.value(*sp, *dp, dir, true, true),
            (PlanNode::Packed { layout: sl, .. }, PlanNode::Packed { layout: dl, .. }) => {
                self.src_align(dir, sl.align.min(8) as u8);
                self.dst_align(dir, dl.align.min(8) as u8);
                let steps = packed_steps(sl, dl, fused)?;
                check_steps(&steps, fused)?;
                if fused {
                    self.chunked(&steps, sl.size, dl.size);
                } else {
                    self.steps(&steps, dir);
                }
            }
            (
                PlanNode::String {
                    bound,
                    style,
                    pad_unit,
                    ..
                },
                PlanNode::String {
                    style: to_style,
                    pad_unit: to_pad,
                    ..
                },
            ) => {
                let lv = self.read_len(dir);
                let (bytes, v) = (self.fresh("bytes"), self.fresh("s"));
                for l in string_read(&lv, &bytes, &v, *bound, *style, *pad_unit, fused) {
                    self.line(&l);
                }
                self.dst_align(dir, 4);
                for l in string_write(&dir.to.enc, &v, *to_style, *to_pad) {
                    self.line(&l);
                }
            }
            (PlanNode::Struct { fields: sf, .. }, PlanNode::Struct { fields: df, .. })
                if sf.len() == df.len() =>
            {
                for ((_, a), (_, b)) in sf.iter().zip(df) {
                    self.node(a, b, dir, fused)?;
                }
            }
            (
                PlanNode::Union {
                    disc_prim: sd,
                    cases: sc,
                    default: sdef,
                    ..
                },
                PlanNode::Union {
                    disc_prim: dd,
                    cases: dc,
                    default: ddef,
                    ..
                },
            ) if sc.len() == dc.len() && sdef.is_some() == ddef.is_some() => {
                self.src_align(dir, sd.align);
                let v = self.fresh("d");
                self.line(&format!("let {v} = ({}) as i64;", get_prim_expr(*sd)));
                self.dst_align(dir, dd.align);
                self.line(&put_prim_call(*dd, &v));
                self.open(&format!("match {v} {{"));
                for ((label, _, a), (_, _, b)) in sc.iter().zip(dc) {
                    self.open(&format!("{label}i64 => {{"));
                    self.node(a, b, dir, fused)?;
                    self.close("}");
                }
                if let (Some((_, a)), Some((_, b))) = (sdef, ddef) {
                    self.open("_ => {");
                    self.node(a, b, dir, fused)?;
                    self.close("}");
                } else {
                    self.line(&format!(
                        "_ => return Err(DecodeError::BadDiscriminator {{ value: {v} }}),"
                    ));
                }
                self.close("}");
            }
            (PlanNode::Optional { elem: a, .. }, PlanNode::Optional { elem: b, .. }) => {
                let f = self.fresh("flag");
                let flag = |side: &Side| side.enc.prim_for_size(1, false);
                self.line(&format!("let {f} = {};", get_prim_expr(flag(dir.from))));
                self.line(&format!(
                    "match {f} {{ 0 | 1 => {{}} _ => return Err(DecodeError::BadValue(\"optional flag must be 0 or 1\")) }}"
                ));
                self.line(&put_prim_call(flag(dir.to), &f));
                self.open(&format!("if {f} == 1 {{"));
                self.node(a, b, dir, fused)?;
                self.close("}");
            }
            (PlanNode::Outline { key }, PlanNode::Outline { key: k2 }) if key == k2 => {
                self.line(&format!("xc_{}_{key}(r, buf, _sb, _db)?;", dir.tag));
            }
            _ => match (array_of(s), array_of(d)) {
                (Some(a), Some(b)) => self.array(a, b, dir, fused)?,
                _ => return Err(format!("encoding pair disagrees on shape: {s:?} vs {d:?}")),
            },
        }
        Ok(())
    }

    /// Reads one value in form `sp` and writes it in form `dp`, each
    /// side aligning first when it does so per value.
    fn value(
        &mut self,
        sp: WirePrim,
        dp: WirePrim,
        dir: Dir<'a>,
        align_src: bool,
        align_dst: bool,
    ) {
        if align_src {
            self.src_align(dir, sp.align);
        }
        let v = self.fresh("v");
        self.line(&format!("let {v} = {};", get_prim_expr(sp)));
        if align_dst {
            self.dst_align(dir, dp.align);
        }
        self.line(&put_prim_call(dp, &v));
    }

    /// A fused packed pair: one chunk per side — one truncation check
    /// and one space decision, as the endpoint stubs make them — with
    /// constant-offset reswizzles and block copies between.  The chunk
    /// reader steps over source pads; the chunk writer zero-fills
    /// target pads.
    fn chunked(&mut self, steps: &[Step], src_size: u64, dst_size: u64) {
        let (c, w) = (self.fresh("c"), self.fresh("w"));
        self.line(&format!(
            "let {c} = r.chunk({src_size})?; // one truncation check"
        ));
        self.line(&format!("let mut {w} = buf.chunk({dst_size});"));
        for step in steps {
            match step {
                Step::Each(run) => {
                    let v = self.fresh("v");
                    let (so, dof) = run.at;
                    let (get, put) = if run.count == 1 {
                        (so.to_string(), dof.to_string())
                    } else {
                        let i = self.fresh("i");
                        self.open(&format!("for {i} in 0..{}usize {{", run.count));
                        (
                            format!("{so} + {i} * {}", run.src.slot),
                            format!("{dof} + {i} * {}", run.dst.slot),
                        )
                    };
                    self.line(&format!("let {v} = {};", chunk_get_expr(run.src, &get, &c)));
                    self.line(&chunk_put_call(run.dst, &put, &v, &w));
                    if run.count > 1 {
                        self.close("}");
                    }
                }
                Step::Copy(runs) => {
                    let ((so, dof), bytes) =
                        (runs[0].at, runs.iter().map(|r| r.bytes()).sum::<u64>());
                    let values: u64 = runs.iter().map(|r| r.count).sum();
                    self.line(&format!(
                        "{w}.put_bytes_at({dof}, {c}.bytes_at({so}, {bytes})); // fused: {values} values block-copied"
                    ));
                }
                Step::Pad { .. } => {}
            }
        }
    }

    /// An unfused packed pair, value by value on the stream (the pair
    /// check has already rejected any block copy here).
    fn steps(&mut self, steps: &[Step], dir: Dir<'a>) {
        for step in steps {
            match step {
                Step::Copy(_) => unreachable!("check_steps rejects blocks in unfused rewrites"),
                Step::Each(run) => {
                    // Every slot is a multiple of its alignment, so
                    // after the first value the run stays aligned.
                    self.src_align(dir, run.src.align);
                    self.dst_align(dir, run.dst.align);
                    if run.count == 1 {
                        self.value(run.src, run.dst, dir, false, false);
                    } else {
                        let i = self.fresh("i");
                        self.open(&format!("for {i} in 0..{}usize {{", run.count));
                        self.value(run.src, run.dst, dir, false, false);
                        self.close("}");
                    }
                }
                Step::Pad { src, dst } => {
                    if *src > 0 {
                        self.line(&format!("r.skip({src}usize)?; // source pad"));
                    }
                    if *dst > 0 {
                        self.line(&format!("buf.put_zeros({dst}usize); // target pad"));
                    }
                }
            }
        }
    }

    fn array(
        &mut self,
        s: Array<'_>,
        d: Array<'_>,
        dir: Dir<'a>,
        fused: bool,
    ) -> Result<(), String> {
        let len = match (s.fixed_len, d.fixed_len) {
            (None, None) => {
                let lv = self.read_len(dir);
                if let Some(b) = s.bound {
                    self.line(&bound_check(&lv, b));
                }
                self.dst_align(dir, 4);
                self.line(&len_prefix_call(&dir.to.enc, &lv));
                lv
            }
            (Some(n), Some(m)) if n == m => format!("{n}usize"),
            _ => return Err("encoding pair disagrees on an array's length".into()),
        };
        // A memcpy run aligns once before its data, even when empty.
        if let Elems::Run { prim, .. } = s.elems {
            self.src_align(dir, prim.align);
        }
        if let Elems::Run { prim, .. } = d.elems {
            self.dst_align(dir, prim.align);
        }
        let (per_src, per_dst) = (
            matches!(s.elems, Elems::Each(_)),
            matches!(d.elems, Elems::Each(_)),
        );
        let bulk = if fused {
            bulk(&s.elems, &d.elems)?
        } else {
            None
        };
        let scalars = (s.elems.scalar(), d.elems.scalar());
        if let Some(b) = bulk {
            // Per-element sides align only when there is an element.
            let guard = (per_src && aligns(dir.from, b.src_align))
                || (per_dst && aligns(dir.to, b.dst_align));
            if guard {
                self.open(&format!("if {len} > 0 {{"));
            }
            if per_src {
                self.src_align(dir, b.src_align);
            }
            if per_dst {
                self.dst_align(dir, b.dst_align);
            }
            self.line(&format!(
                "buf.put_bytes(r.bytes({len} * {}usize)?); // fused bulk copy",
                b.bytes
            ));
            if guard {
                self.close("}");
            }
        } else if let (false, (Some(sp), Some(dp))) = (fused, scalars) {
            // The naive twin materializes the presented vector, then
            // re-encodes it.
            let (v, i, e) = (self.fresh("v"), self.fresh("i"), self.fresh("e"));
            self.line(&format!(
                "let mut {v}: Vec<{}> = Vec::with_capacity({len}.min(r.remaining() / {} + 1));",
                prim_rust_ty(sp),
                sp.slot.max(1)
            ));
            self.open(&format!("for {i} in 0..{len} {{"));
            if per_src {
                self.src_align(dir, sp.align);
            }
            self.line(&format!("{v}.push({});", get_prim_expr(sp)));
            self.close("}");
            self.open(&format!("for {e} in &{v} {{"));
            if per_dst {
                self.dst_align(dir, dp.align);
            }
            self.line(&put_prim_call(dp, &format!("*{e}")));
            self.close("}");
        } else {
            let i = self.fresh("i");
            self.open(&format!("for {i} in 0..{len} {{"));
            match (s.elems, d.elems, scalars) {
                (_, _, (Some(sp), Some(dp))) => self.value(sp, dp, dir, per_src, per_dst),
                (Elems::Each(a), Elems::Each(b), _) => self.node(a, b, dir, fused)?,
                _ => return Err("encoding pair disagrees on an array element".into()),
            }
            self.close("}");
        }
        if let Elems::Run {
            prim,
            pad_unit: Some(u),
        } = s.elems
        {
            self.line(&format!(
                "r.skip(({u} - ({len} * {}) % {u}) % {u})?;",
                prim.size
            ));
        }
        if let Elems::Run {
            pad_unit: Some(u), ..
        } = d.elems
        {
            self.line(&format!("buf.align_to({u});"));
        }
        Ok(())
    }

    /// Reads an aligned count prefix on the source side.
    fn read_len(&mut self, dir: Dir<'a>) -> String {
        self.src_align(dir, 4);
        let l = self.fresh("len");
        self.line(&format!("let {l} = {};", len_prefix_expr(&dir.from.enc)));
        l
    }

    fn src_align(&mut self, dir: Dir<'a>, align: u8) {
        if aligns(dir.from, align) {
            self.align_line(&format!("r.align_from(_sb, {align})?;"));
        }
    }

    fn dst_align(&mut self, dir: Dir<'a>, align: u8) {
        if aligns(dir.to, align) {
            self.align_line(&format!("buf.align_from(_db, {align});"));
        }
    }

    /// Emits an alignment unless the previous line is the same one.
    fn align_line(&mut self, s: &str) {
        let indented = format!("{}{s}\n", "    ".repeat(self.depth));
        if !self.out.ends_with(&indented) {
            self.out.push_str(&indented);
        }
    }

    // -----------------------------------------------------------------
    // Dispatchers and outline helpers.
    // -----------------------------------------------------------------

    fn dispatchers(&mut self, ops: &[(&StubPlan, &StubPlan)]) -> Result<(), String> {
        for (fn_name, member, ret) in [
            ("transcode_request", "request", true),
            ("transcode_request_naive", "request_naive", true),
            ("transcode_reply", "reply", false),
            ("transcode_reply_naive", "reply_naive", false),
            ("transcode_reply_rev", "reply_rev", false),
        ] {
            let ret_ty = if ret { "&'static str" } else { "()" };
            self.line(&format!(
                "/// Dispatches a `{member}` rewrite on the source procedure number."
            ));
            self.open(&format!(
                "pub fn {fn_name}(proc_num: u32, src: &[u8], buf: &mut MarshalBuf) -> Result<{ret_ty}, DecodeError> {{"
            ));
            self.open("match proc_num {");
            for (s, _) in ops {
                let (n, code) = (&s.op.name, s.op.request_code);
                if ret {
                    self.line(&format!(
                        "{code}u32 => {{ transcode_{n}_{member}(src, buf)?; Ok(\"{}\") }}",
                        s.op.wire_name
                    ));
                } else {
                    self.line(&format!("{code}u32 => transcode_{n}_{member}(src, buf),"));
                }
            }
            self.line("_ => Err(DecodeError::BadHeader(\"unknown procedure\")),");
            self.close("}");
            self.close("}");
            self.line("");
        }
        // The reverse gateway's request dispatch: the endpoint
        // `demux-switch` trie over the source operation name.
        self.out.push_str(WORD_AT_FN);
        self.line("/// Reverse-gateway request dispatch on the wire operation name,");
        self.line("/// demultiplexed word by word; returns the procedure number for");
        self.line("/// the outgoing call header.");
        self.open("pub fn transcode_request_by_name(op: &[u8], src: &[u8], buf: &mut MarshalBuf) -> Result<u32, DecodeError> {");
        let (root, _) = crate::passes::demux::trie(&self.pair.src.mir.stubs);
        let d = self.depth;
        trie_node(self, &root, d)?;
        self.close("}");
        self.line("");
        Ok(())
    }

    /// Recursive types stay out of line, one helper per direction,
    /// emitted naive (recursion dominates their cost anyway).
    fn outline_helpers(&mut self) -> Result<(), String> {
        for dir in [self.fwd(), self.rev()] {
            for (key, body) in &dir.from.mir.outlines {
                let to = dir
                    .to
                    .mir
                    .outlines
                    .get(key)
                    .ok_or_else(|| format!("outline `{key}` lowered on one side only"))?;
                self.tmp = 0;
                self.line(&format!(
                    "/// Out-of-line rewrite of recursive type `{key}` ({} → {}).",
                    dir.from.enc.name, dir.to.enc.name
                ));
                self.open(&format!(
                    "fn xc_{}_{key}(r: &mut MsgReader<'_>, buf: &mut MarshalBuf, _sb: usize, _db: usize) -> Result<(), DecodeError> {{",
                    dir.tag
                ));
                self.node(body, to, dir, false)
                    .map_err(|e| format!("outline `{key}`: {e}"))?;
                self.line("Ok(())");
                self.close("}");
                self.line("");
            }
        }
        Ok(())
    }
}

/// Word-widening encodings (XDR) keep the stream aligned by
/// construction; only naturally aligned ones (CDR) skip or pad.
fn aligns(side: &Side, align: u8) -> bool {
    !side.enc.widen_to_word && align > 1
}

impl WordSwitch for Emit<'_> {
    fn line(&mut self, depth: usize, s: &str) {
        let saved = std::mem::replace(&mut self.depth, depth);
        Emit::line(self, s);
        self.depth = saved;
    }

    fn wire_name(&self, op: &str) -> Result<String, String> {
        self.stub(op).map(|s| s.op.wire_name.clone())
    }

    fn leaf(&mut self, op: &str, depth: usize) -> Result<(), String> {
        let (name, code) = {
            let s = self.stub(op)?;
            (s.op.name.clone(), s.op.request_code)
        };
        WordSwitch::line(
            self,
            depth,
            &format!("transcode_{name}_request_rev(src, buf)?;"),
        );
        WordSwitch::line(self, depth, &format!("Ok({code}u32)"));
        Ok(())
    }
}

impl<'a> Emit<'a> {
    fn stub(&self, op: &str) -> Result<&'a StubPlan, String> {
        self.pair
            .src
            .mir
            .stubs
            .iter()
            .find(|s| s.op.name == op)
            .ok_or_else(|| format!("demux trie names unknown operation `{op}`"))
    }
}

#[cfg(test)]
mod tests {
    use crate::compile_transcode;
    use crate::encoding::Encoding;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    const IDL: &str = r#"
        struct Stat { long fields[30]; char tag[16]; };
        interface Bench {
            long send_ints(in sequence<long, 1024> v);
            Stat echo_stat(in Stat s);
            string<64> name_of(in string<64> k);
        };
    "#;

    fn source(fused: bool) -> String {
        let aoi = flick_frontend_corba::parse_str("t.idl", IDL);
        let mut d = Diagnostics::new();
        let presc =
            flick_presgen::corba_c(&aoi, "Bench", Side::Server, &mut d).expect("presentation");
        compile_transcode(&presc, &Encoding::xdr(), &Encoding::cdr_le(), fused).expect("emit")
    }

    /// The body of generated function `name`.
    fn body<'s>(src: &'s str, name: &str) -> &'s str {
        src.split(&format!("pub fn {name}("))
            .nth(1)
            .and_then(|rest| rest.split("\n}\n").next())
            .unwrap_or_else(|| panic!("no `{name}` in:\n{src}"))
    }

    #[test]
    fn module_shell_names_the_encoding_pair() {
        let s = source(true);
        assert!(s.contains("pub const FUSED: bool = true;"));
        assert!(s.contains("pub const SRC_ENCODING: &str = \"xdr\";"));
        assert!(s.contains("pub const DST_ENCODING: &str = \"cdr-le\";"));
        assert!(s.contains("pub const DST_LITTLE_ENDIAN: bool = true;"));
        assert!(s.contains("pub static BRIDGE_OPS: &[BridgeOp]"));
        assert!(
            s.contains("idempotent: false,"),
            "two-way ops must be marked non-idempotent"
        );
        for f in [
            "pub fn transcode_send_ints_request(",
            "pub fn transcode_send_ints_reply(",
            "pub fn transcode_send_ints_request_naive(",
            "pub fn transcode_echo_stat_request_rev(",
            "pub fn transcode_name_of_reply_rev(",
            "pub fn transcode_request(",
            "pub fn transcode_request_by_name(",
        ] {
            assert!(s.contains(f), "missing {f} in:\n{s}");
        }
    }

    #[test]
    fn fused_source_block_copies_where_the_ablated_one_loops() {
        let fused = source(true);
        let naive = source(false);
        // XDR→CDR-LE disagrees on i32 order, so the stat's longs stay
        // value-wise — but the packed 16-byte tag block-copies.
        assert!(body(&fused, "transcode_echo_stat_request")
            .contains(".bytes_at(120, 16)); // fused: 16 values block-copied"));
        // The naive twins never fuse, and the ablated module fuses
        // nowhere, not even in its primary functions.
        assert!(!body(&fused, "transcode_echo_stat_request_naive").contains("// fused"));
        assert!(!naive.contains("// fused"), "{naive}");
        assert!(naive.contains("pub const FUSED: bool = false;"));
    }

    #[test]
    fn string_rewrites_translate_framing_conventions() {
        let s = source(true);
        let fwd = body(&s, "transcode_name_of_request");
        // XDR source: counted + padded, no NUL; CDR target: the count
        // includes a NUL terminator.
        assert!(fwd.contains("r.skip((4 - _len"), "{fwd}");
        assert!(fwd.contains(".len() + 1) as u32);"), "{fwd}");
        assert!(fwd.contains("buf.put_u8(0);"), "{fwd}");
        // Bound checks survive fusion.
        assert!(fwd.contains("DecodeError::BoundExceeded { got:"), "{fwd}");
        // Borrowed on the fused path, owned on the naive twins.
        assert!(fwd.contains("std::str::from_utf8("), "{fwd}");
        let naive = body(&s, "transcode_name_of_request_naive");
        assert!(naive.contains("String::from_utf8("), "{naive}");
        // CDR source on the way back: the NUL is checked and dropped,
        // the XDR count excludes it and pads.
        let back = body(&s, "transcode_name_of_reply");
        assert!(
            back.contains("CDR string length must include NUL"),
            "{back}"
        );
        assert!(back.contains("buf.align_to(4);"), "{back}");
    }

    #[test]
    fn packed_chunks_align_like_the_endpoints() {
        // A CDR chunk starts at its own alignment, as the endpoint
        // encoder places it — not at its first member's: after the
        // leading long, `M` (a char, then a double) starts at offset 8,
        // fused (one chunk) or not (value by value).
        let idl = "struct M { char c; double d; }; interface T { void f(in long lead, in M m); };";
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let presc = flick_presgen::corba_c(&aoi, "T", Side::Server, &mut d).expect("presentation");
        for (fused, next) in [
            (true, "let _c2 = r.chunk(12)?;"),
            (false, "let _v2 = r.get_u32_be()? as u8;"),
        ] {
            let s =
                compile_transcode(&presc, &Encoding::xdr(), &Encoding::cdr_le(), fused).unwrap();
            let aligned =
                format!("buf.put_u32_le((_v1) as u32);\n    buf.align_from(_db, 8);\n    {next}");
            assert!(body(&s, "transcode_f_request").contains(&aligned), "{s}");
        }
    }

    #[test]
    fn name_trie_discriminates_on_native_words() {
        let s = source(true);
        assert!(s.contains("fn word_at(s: &[u8], i: usize) -> u32"));
        assert!(s.contains("match word_at(op, 0)"));
        let w = u32::from_ne_bytes(*b"send");
        assert!(
            s.contains(&format!("{w}u32")),
            "first word of `send_ints` must appear as a native-endian literal"
        );
        assert!(s.contains("Err(DecodeError::BadDiscriminator { value: op.len() as i64 })"));
    }
}

//! Lowering from PRES-C to the marshal MIR, plus the `plan_presc`
//! facade that runs the full optimization pipeline.
//!
//! Lowering is deliberately *naive*: every value marshals datum by
//! datum, every named aggregate goes out of line, and no storage
//! classes are assigned.  All §3 optimization decisions — check
//! hoisting, chunking, memcpy coalescing, marshal inlining, demux
//! switch formation — are made afterwards by the named passes in
//! [`crate::passes`]; lowering only records the structure (and the
//! PRES back-references the passes need to requery the presentation).
//!
//! Because stubs share no mutable state, lowering plans each stub
//! independently and — for large presentations — in parallel on a
//! std-only scoped-thread pool, merging results in presentation order
//! so output is deterministic regardless of thread count.

use std::collections::BTreeMap;

use flick_mint::MintNode;
use flick_pres::{PresC, PresId, PresNode, Stub};

use crate::encoding::Encoding;
use crate::opts::OptFlags;
use crate::passes::{run_pipeline, PassPipeline};

pub(crate) use crate::mir::{plan_references_outline, PlanResult};
pub use crate::mir::{
    rust_prim_name, MsgPlan, PlanNode, PlanStats, SlotPlan, SlotStorage, StubPlan, StubPlans,
};

/// How lowering distributes stubs across threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Parallel when the presentation is big enough to pay for it.
    Auto,
    /// Always single-threaded.
    Sequential,
    /// Exactly this many worker threads.
    Threads(usize),
}

/// Below this many stubs, thread spawn overhead outweighs the win.
pub(crate) const PARALLEL_MIN_STUBS: usize = 16;

/// Options that shape lowering itself (as opposed to the MIR passes):
/// §3.1 parameter management decides, per slot, whether the receive
/// side may borrow storage from the message buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PresLowerOpts {
    pub param_mgmt: bool,
}

/// Builds plans for every stub in `presc` using the pipeline `opts`
/// describes.
///
/// # Errors
/// Returns a message if the presentation contains a conversion this
/// planner cannot lower.
pub fn plan_presc(presc: &PresC, enc: &Encoding, opts: &OptFlags) -> PlanResult<Vec<StubPlan>> {
    Ok(plan_presc_full(presc, enc, opts)?.stubs)
}

/// Like [`plan_presc`] but also returns shared outline bodies and the
/// module-wide decisions.
///
/// # Errors
/// Returns a message if the presentation contains a conversion this
/// planner cannot lower.
pub fn plan_presc_full(presc: &PresC, enc: &Encoding, opts: &OptFlags) -> PlanResult<StubPlans> {
    let pipeline = PassPipeline::from_opts(opts);
    Ok(run_pipeline(presc, enc, &pipeline, None)?.mir)
}

/// Lowers every stub of `presc` to naive MIR.
///
/// # Errors
/// Returns a message if the presentation contains a conversion this
/// planner cannot lower.
pub(crate) fn lower_presc(
    presc: &PresC,
    enc: &Encoding,
    lopts: PresLowerOpts,
    par: Parallelism,
) -> PlanResult<StubPlans> {
    let n = presc.stubs.len();
    let threads = match par {
        Parallelism::Sequential => 1,
        Parallelism::Threads(t) => t.max(1),
        Parallelism::Auto if n >= PARALLEL_MIN_STUBS => std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(8),
        Parallelism::Auto => 1,
    };

    let lowered: Vec<(StubPlan, BTreeMap<String, PlanNode>)> = if threads <= 1 || n <= 1 {
        presc
            .stubs
            .iter()
            .map(|stub| lower_stub(presc, enc, lopts, stub))
            .collect::<PlanResult<Vec<_>>>()?
    } else {
        let chunk = n.div_ceil(threads);
        let per_chunk: Vec<PlanResult<Vec<_>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = presc
                .stubs
                .chunks(chunk)
                .map(|stubs| {
                    scope.spawn(move || {
                        stubs
                            .iter()
                            .map(|stub| lower_stub(presc, enc, lopts, stub))
                            .collect::<PlanResult<Vec<_>>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("lowering worker panicked".to_string()))
                })
                .collect()
        });
        // Merge in presentation order: chunks were dealt contiguously,
        // so concatenation restores the sequential order exactly.
        let mut all = Vec::with_capacity(n);
        for res in per_chunk {
            all.extend(res?);
        }
        all
    };

    let mut stubs = Vec::with_capacity(n);
    let mut outlines = BTreeMap::new();
    for (stub, outs) in lowered {
        stubs.push(stub);
        // Later stubs overwrite — same as one shared map filled in
        // presentation order.
        outlines.extend(outs);
    }
    Ok(StubPlans {
        stubs,
        outlines,
        hoist: false,
        memcpy: false,
        demux: crate::mir::Demux::Linear,
    })
}

pub(crate) fn lower_stub(
    presc: &PresC,
    enc: &Encoding,
    lopts: PresLowerOpts,
    stub: &Stub,
) -> PlanResult<(StubPlan, BTreeMap<String, PlanNode>)> {
    let mut lw = PresLowerer {
        presc,
        enc,
        lopts,
        outlines: BTreeMap::new(),
        in_progress: Vec::new(),
    };
    let request = lw.lower_message(&stub.request)?;
    let reply = lw.lower_message(&stub.reply)?;
    Ok((
        StubPlan {
            name: stub.name.clone(),
            kind: stub.kind,
            op: stub.op.clone(),
            request,
            reply,
        },
        lw.outlines,
    ))
}

struct PresLowerer<'a> {
    presc: &'a PresC,
    enc: &'a Encoding,
    lopts: PresLowerOpts,
    outlines: BTreeMap<String, PlanNode>,
    in_progress: Vec<(PresId, String)>,
}

impl<'a> PresLowerer<'a> {
    fn lower_message(&mut self, msg: &flick_pres::MessagePres) -> PlanResult<MsgPlan> {
        let mut slots = Vec::new();
        for slot in &msg.slots {
            slots.push(SlotPlan {
                name: slot.c_name.clone(),
                by_ref: slot.by_ref,
                pres: slot.pres,
                live: slot.live,
                alias: None,
                storage: SlotStorage::default(),
                node: self.lower_node(slot.pres)?,
            });
        }
        Ok(MsgPlan {
            // The classify-storage pass computes the real class.
            class: crate::layout::SizeClass::Unbounded,
            hoisted: None,
            hoisted_capped: None,
            slots,
        })
    }

    fn lower_node(&mut self, pres: PresId) -> PlanResult<PlanNode> {
        // Recursion check: a pres node already being lowered must go
        // out of line no matter what the inline pass later decides.
        if let Some((_, key)) = self.in_progress.iter().find(|(p, _)| *p == pres) {
            let key = key.clone();
            return Ok(PlanNode::Outline { key });
        }

        let node = self.presc.pres.get(pres).clone();

        // Naive lowering outlines *every* named aggregate — the
        // call-per-datum shape of traditional IDL compilers.  The
        // inline-marshal pass re-expands call sites it decides to
        // absorb.
        let outline_key = match &node {
            PresNode::StructMap { .. }
            | PresNode::UnionMap { .. }
            | PresNode::OptionalPtr { .. } => crate::mir::type_name_of(self.presc, pres),
            _ => None,
        };
        let force_outline = outline_key.is_some();
        let is_recursive_candidate = matches!(
            node,
            PresNode::StructMap { .. } | PresNode::UnionMap { .. } | PresNode::OptionalPtr { .. }
        );

        if is_recursive_candidate {
            let key = outline_key
                .clone()
                .unwrap_or_else(|| format!("anon_{}", pres.index()));
            self.in_progress.push((pres, key));
        }
        let planned = self.lower_node_inner(&node, pres);
        let popped = if is_recursive_candidate {
            self.in_progress.pop()
        } else {
            None
        };
        let planned = planned?;

        // If anything inside referenced us as an outline, or this is a
        // named aggregate, register the body and return a call.
        let key = popped.map(|(_, k)| k);
        if let Some(key) = key {
            let was_referenced = plan_references_outline(&planned, &key);
            if force_outline || was_referenced {
                self.outlines.insert(key.clone(), planned);
                return Ok(PlanNode::Outline { key });
            }
        }
        Ok(planned)
    }

    fn lower_node_inner(&mut self, node: &PresNode, pres: PresId) -> PlanResult<PlanNode> {
        Ok(match node {
            PresNode::Void => PlanNode::Void,
            PresNode::Direct { mint, .. } => PlanNode::Prim {
                prim: self.enc.prim(&self.presc.mint, *mint),
                descriptor: None,
            },
            PresNode::EnumMap { .. } => PlanNode::Enum {
                prim: self.enc.prim_for_size(4, false),
            },
            PresNode::StructMap { fields, .. } => {
                let mut fs = Vec::new();
                for (name, f) in fields {
                    fs.push((name.clone(), self.lower_node(*f)?));
                }
                PlanNode::Struct {
                    type_name: crate::mir::type_name_of(self.presc, pres)
                        .unwrap_or_else(|| format!("anon_{}", pres.index())),
                    pres,
                    fields: fs,
                }
            }
            PresNode::FixedArray { elem, len, .. } => PlanNode::FixedArray {
                len: *len,
                elem: Box::new(self.lower_node(*elem)?),
                elem_pres: *elem,
                pres,
                elem_type: self.elem_type_name(*elem),
            },
            PresNode::TerminatedString { mint, alloc, .. } => {
                let bound = match self.presc.mint.get(*mint) {
                    MintNode::Array { len, .. } => len.max,
                    _ => None,
                };
                PlanNode::String {
                    bound,
                    style: self.enc.string_wire,
                    pad_unit: self.enc.pad_unit,
                    borrow_ok: self.lopts.param_mgmt && alloc.may_use_buffer,
                    descriptor: if self.enc.typed_descriptors {
                        Some(8)
                    } else {
                        None
                    },
                }
            }
            PresNode::OptPtr { mint, elem, .. } | PresNode::CountedSeq { mint, elem, .. } => {
                let bound = match self.presc.mint.get(*mint) {
                    MintNode::Array { len, .. } => len.max,
                    _ => None,
                };
                let (fields, type_name) = match node {
                    PresNode::CountedSeq {
                        length_field,
                        maximum_field,
                        buffer_field,
                        ctype,
                        ..
                    } => (
                        (
                            length_field.clone(),
                            maximum_field.clone(),
                            buffer_field.clone(),
                        ),
                        match ctype {
                            flick_cast::CType::Named(n) => n.clone(),
                            _ => format!("seq_{}", pres.index()),
                        },
                    ),
                    _ => (
                        ("_length".into(), "_maximum".into(), "_buffer".into()),
                        format!("seq_{}", pres.index()),
                    ),
                };
                PlanNode::CountedArray {
                    bound,
                    elem: Box::new(self.lower_node(*elem)?),
                    // The classify-storage pass fills this in.
                    elem_class: crate::layout::SizeClass::Unbounded,
                    elem_pres: *elem,
                    elem_type: self.elem_type_name(*elem),
                    type_name,
                    fields,
                }
            }
            PresNode::UnionMap {
                discrim,
                cases,
                default,
                ..
            } => {
                let disc_prim = match self.presc.pres.get(*discrim) {
                    PresNode::Direct { mint, .. } => self.enc.prim(&self.presc.mint, *mint),
                    PresNode::EnumMap { .. } => self.enc.prim_for_size(4, false),
                    other => return Err(format!("unsupported union discriminator {other:?}")),
                };
                let mut arms = Vec::new();
                for (v, name, c) in cases {
                    arms.push((*v, name.clone(), self.lower_node(*c)?));
                }
                let default = match default {
                    Some((name, d)) => Some((name.clone(), Box::new(self.lower_node(*d)?))),
                    None => None,
                };
                PlanNode::Union {
                    type_name: crate::mir::type_name_of(self.presc, pres)
                        .unwrap_or_else(|| format!("anon_{}", pres.index())),
                    disc_prim,
                    cases: arms,
                    default,
                }
            }
            PresNode::OptionalPtr { elem, .. } => PlanNode::Optional {
                elem: Box::new(self.lower_node(*elem)?),
                elem_type: self.elem_type_name(*elem),
            },
        })
    }

    fn elem_type_name(&self, elem: PresId) -> String {
        match self.presc.pres.get(elem).ctype() {
            Some(flick_cast::CType::Named(n)) => n.clone(),
            Some(c) => rust_prim_name(c).to_string(),
            None => "u8".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::StringWire;
    use crate::layout::SizeClass;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn plan_for(idl: &str, iface: &str, enc: &Encoding, opts: &OptFlags) -> Vec<StubPlan> {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation");
        plan_presc(&p, enc, opts).expect("plan")
    }

    const RECTS_IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        interface I { void put(in RectSeq rs); };
    ";

    #[test]
    fn rect_sequence_plans_as_loop_of_chunks() {
        let plans = plan_for(RECTS_IDL, "I", &Encoding::xdr(), &OptFlags::all());
        let slot = &plans[0].request.slots[0];
        let PlanNode::CountedArray {
            elem, elem_class, ..
        } = &slot.node
        else {
            panic!("expected counted array, got {:?}", slot.node);
        };
        assert_eq!(*elem_class, SizeClass::Fixed(16));
        assert!(
            matches!(**elem, PlanNode::Packed { ref layout, .. } if layout.size == 16),
            "rect element packs into a 16-byte chunk: {elem:?}"
        );
    }

    #[test]
    fn chunking_off_yields_per_datum_structs() {
        let mut opts = OptFlags::all();
        opts.chunking = false;
        let plans = plan_for(RECTS_IDL, "I", &Encoding::xdr(), &opts);
        let PlanNode::CountedArray { elem, .. } = &plans[0].request.slots[0].node else {
            panic!("counted array");
        };
        assert!(matches!(**elem, PlanNode::Struct { .. }), "{elem:?}");
    }

    #[test]
    fn int_array_memcpy_depends_on_order() {
        let idl = "typedef sequence<long> Ints; interface I { void put(in Ints v); };";
        // Native-order CDR: memcpy run.
        let plans = plan_for(idl, "I", &Encoding::cdr_native(), &OptFlags::all());
        assert!(
            matches!(plans[0].request.slots[0].node, PlanNode::MemcpyArray { .. }),
            "{:?}",
            plans[0].request.slots[0].node
        );
        // Foreign-order CDR on this host: element loop instead.
        let foreign = if cfg!(target_endian = "little") {
            Encoding::cdr_be()
        } else {
            Encoding::cdr_le()
        };
        let plans = plan_for(idl, "I", &foreign, &OptFlags::all());
        assert!(matches!(
            plans[0].request.slots[0].node,
            PlanNode::CountedArray { .. }
        ));
        // memcpy disabled: element loop even in native order.
        let mut opts = OptFlags::all();
        opts.memcpy = false;
        let plans = plan_for(idl, "I", &Encoding::cdr_native(), &opts);
        assert!(matches!(
            plans[0].request.slots[0].node,
            PlanNode::CountedArray { .. }
        ));
    }

    #[test]
    fn octet_arrays_always_memcpy() {
        // Byte-wide elements block-copy under any byte order (CDR keeps
        // them packed; XDR pads only at the end of the run).
        let idl = "typedef sequence<octet> Blob; interface I { void put(in Blob b); };";
        for enc in [Encoding::xdr(), Encoding::cdr_be(), Encoding::cdr_le()] {
            let plans = plan_for(idl, "I", &enc, &OptFlags::all());
            assert!(
                matches!(plans[0].request.slots[0].node, PlanNode::MemcpyArray { .. }),
                "{} should memcpy bytes",
                enc.name
            );
        }
    }

    #[test]
    fn string_plan_styles() {
        let idl = "interface I { void put(in string s); };";
        let plans = plan_for(idl, "I", &Encoding::xdr(), &OptFlags::all());
        let PlanNode::String {
            style, pad_unit, ..
        } = &plans[0].request.slots[0].node
        else {
            panic!("string plan");
        };
        assert_eq!(*style, StringWire::CountedPadded);
        assert_eq!(*pad_unit, Some(4));
        let plans = plan_for(idl, "I", &Encoding::cdr_be(), &OptFlags::all());
        let PlanNode::String { style, .. } = &plans[0].request.slots[0].node else {
            panic!("string plan");
        };
        assert_eq!(*style, StringWire::CountedNul);
    }

    #[test]
    fn message_class_covers_discriminator_and_slots() {
        let idl = "struct P { long a; long b; }; interface I { void put(in P p); };";
        let plans = plan_for(idl, "I", &Encoding::xdr(), &OptFlags::all());
        // 4 (op code) + 8 (two longs) = 12 fixed bytes.
        assert_eq!(plans[0].request.class, SizeClass::Fixed(12));
        // Reply: just the status-free empty body.
        assert_eq!(plans[0].reply.class, SizeClass::Fixed(4));
    }

    #[test]
    fn inlining_off_outlines_named_structs() {
        let aoi = flick_frontend_corba::parse_str("t.idl", RECTS_IDL);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).unwrap();
        let mut opts = OptFlags::all();
        opts.inline_marshal = false;
        opts.chunking = false; // the traditional call-per-aggregate shape
        let full = plan_presc_full(&p, &Encoding::xdr(), &opts).unwrap();
        let PlanNode::CountedArray { elem, .. } = &full.stubs[0].request.slots[0].node else {
            panic!("counted array");
        };
        assert!(
            matches!(**elem, PlanNode::Outline { ref key } if key == "Rect"),
            "{elem:?}"
        );
        assert!(full.outlines.contains_key("Rect"));
        assert!(
            full.outlines.contains_key("Point"),
            "nested aggregate outlined too"
        );
    }

    #[test]
    fn recursion_always_outlines() {
        let aoi = flick_frontend_onc::parse_str(
            "l.x",
            r"
            struct node { int v; node *next; };
            program L { version V { void put(node n) = 1; } = 1; } = 9;
            ",
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "L", Side::Client, &mut d).unwrap();
        // Even with inlining ON, the self-reference goes out of line.
        let full = plan_presc_full(&p, &Encoding::xdr(), &OptFlags::all()).unwrap();
        assert!(
            full.outlines.contains_key("node"),
            "recursive struct must have an outline body: {:?}",
            full.outlines.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_stats_tally_optimizer_decisions() {
        let aoi = flick_frontend_corba::parse_str("t.idl", RECTS_IDL);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "I", Side::Client, &mut d).unwrap();

        let full = plan_presc_full(&p, &Encoding::xdr(), &OptFlags::all()).unwrap();
        let s = PlanStats::of(&full);
        assert_eq!(s.stubs, 1);
        assert!(s.packed_chunks >= 1, "rect elements pack: {s:?}");
        assert!(s.hoisted_checks >= 1, "bounded messages hoist: {s:?}");
        assert_eq!(s.outline_fns, 0);

        // Inlining off: chunks give way to outline calls.
        let mut opts = OptFlags::all();
        opts.inline_marshal = false;
        opts.chunking = false;
        let full = plan_presc_full(&p, &Encoding::xdr(), &opts).unwrap();
        let s2 = PlanStats::of(&full);
        assert_eq!(s2.packed_chunks, 0);
        assert!(s2.outline_fns >= 2, "Rect and Point outlined: {s2:?}");
        assert!(s2.outline_calls >= 2, "{s2:?}");
    }

    #[test]
    fn mach_encoding_plans_descriptored_array() {
        let idl = "typedef sequence<long> Ints; interface I { void put(in Ints v); };";
        let plans = plan_for(idl, "I", &Encoding::mach3(), &OptFlags::all());
        let PlanNode::MemcpyArray { descriptor, .. } = &plans[0].request.slots[0].node else {
            panic!("mach ints plan: {:?}", plans[0].request.slots[0].node);
        };
        assert_eq!(*descriptor, Some(2), "INTEGER_32 descriptor");
    }

    #[test]
    fn parallel_lowering_is_deterministic() {
        // Enough operations to cross the parallel threshold, with
        // shared named aggregates so the outline merge is exercised.
        let mut idl = String::from(
            "struct Point { long x; long y; };
             struct Rect { Point min; Point max; };
             typedef sequence<Rect> RectSeq;
             interface Wide {
        ",
        );
        for i in 0..24 {
            idl.push_str(&format!(
                "void op{i}(in RectSeq rs, in string s, in long n);\n"
            ));
        }
        idl.push_str("};");
        let aoi = flick_frontend_corba::parse_str("w.idl", &idl);
        let mut d = Diagnostics::new();
        let p = flick_presgen::corba_c(&aoi, "Wide", Side::Client, &mut d).expect("presentation");
        let lopts = PresLowerOpts { param_mgmt: true };
        let seq = lower_presc(&p, &Encoding::xdr(), lopts, Parallelism::Sequential).unwrap();
        for threads in [2, 3, 8] {
            let par =
                lower_presc(&p, &Encoding::xdr(), lopts, Parallelism::Threads(threads)).unwrap();
            assert_eq!(
                format!("{seq:?}"),
                format!("{par:?}"),
                "lowering with {threads} threads must match sequential"
            );
        }
        // And the Auto heuristic (>= 16 stubs goes parallel) agrees too.
        let auto = lower_presc(&p, &Encoding::xdr(), lopts, Parallelism::Auto).unwrap();
        assert_eq!(format!("{seq:?}"), format!("{auto:?}"));
    }
}

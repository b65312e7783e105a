//! Encoding→encoding transcode plans (the cross-encoding gateway).
//!
//! A gateway rewrites a message from a source encoding into a target
//! encoding without materializing the presentation.  Following
//! Fisher/Pucella/Reppy, a converter is two marshalers over one type
//! description: [`plan`] lowers every operation once per encoding with
//! the endpoint lowering and the endpoint passes that fix the wire
//! layout (`dead-slot`, `form-chunks`, `coalesce-memcpy`,
//! `inline-marshal`), and the MIR verifier checks each side.  The result is a [`TranscodePair`]: the source encoding's MIR
//! is the read side, the target's the write side, and both walk the
//! same PRES slots in the same order.  The emitter
//! (`crate::emit_transcode`) walks the two trees in lockstep, reading
//! each value as the source decoder reads it and writing it as the
//! target encoder writes it.
//!
//! `fuse-transcode` is the one decision that belongs to the pair, not
//! to either side: where both sides' `Packed` chunks, or both sides'
//! scalar arrays, lay a run out byte for byte alike, the run crosses as
//! one block copy ([`packed_steps`], [`bulk`]).  The `_naive` twins are
//! the same pair with that decision withheld — the trees as
//! `fuse-transcode` receives them.
//!
//! [`check_steps`] is the pair-agreement check every fusion passes:
//!
//! * widened slots never fuse — an XDR-widened sub-word value carries
//!   four wire bytes but only `size` meaningful ones, and decoding
//!   truncates hostile high bits that a copy would preserve;
//! * floats never fuse (they cross as raw bits either way, but stay
//!   value-wise so the obligation stays visible);
//! * multi-byte runs fuse only when both sides use the same byte order;
//! * padding is rewritten as zeros and never copied: pad bytes are
//!   steps of their own, and a block's runs sit back to back on both
//!   sides.

use flick_pres::PresC;

use crate::encoding::{Encoding, WirePrim};
use crate::layout::{Packed, PackedItem};
use crate::mir::{PlanNode, StubPlans};
use crate::passes::{CoalesceMemcpy, DeadSlot, FormChunks, InlineMarshal, MirPass, PassCx};
use crate::plan::{lower_presc, Parallelism, PresLowerOpts};
use crate::verify::verify;

/// One side of an encoding pair: an encoding and the endpoint MIR
/// lowered for it.
#[derive(Clone, Debug)]
pub struct Side {
    /// The side's wire encoding.
    pub enc: Encoding,
    /// Every stub lowered for `enc`, after the layout passes.
    pub mir: StubPlans,
}

/// One presentation lowered for both encodings of a gateway.
///
/// "Forward" reads `src` and writes `dst`; "reverse" the opposite.  A
/// gateway bridging a `src` client to a `dst` server rewrites requests
/// forward and replies in reverse; one facing the other way uses the
/// `_rev` pair.
#[derive(Clone, Debug)]
pub struct TranscodePair {
    /// Scoped interface name.
    pub interface: String,
    /// Transport program identity (ONC RPC program number).
    pub program: u64,
    /// Transport version.
    pub version: u64,
    /// The source (client-facing) side.
    pub src: Side,
    /// The target (server-facing) side.
    pub dst: Side,
    /// Whether `fuse-transcode` may fuse the primary rewrites.
    pub fused: bool,
}

/// Lowers every operation of `presc` for `src` and for `dst`.
///
/// # Errors
/// Returns a message naming the unsupported construct: a
/// typed-descriptor encoding (Mach-style framing interleaves type words
/// with data and has no position-stable rewrite), or a side the
/// lowering, a pass, or the MIR verifier rejects.
pub fn plan(
    presc: &PresC,
    src: &Encoding,
    dst: &Encoding,
    fused: bool,
) -> Result<TranscodePair, String> {
    Ok(TranscodePair {
        interface: presc.interface.clone(),
        program: presc.program,
        version: presc.version,
        src: side(presc, src)?,
        dst: side(presc, dst)?,
        fused,
    })
}

fn side(presc: &PresC, enc: &Encoding) -> Result<Side, String> {
    if enc.typed_descriptors {
        return Err(format!(
            "transcode: encoding `{}` frames items with type descriptors; \
             only xdr/cdr-be/cdr-le streams can be rewritten position-to-position",
            enc.name
        ));
    }
    let at = |e: String| format!("transcode ({}): {e}", enc.name);
    let lopts = PresLowerOpts { param_mgmt: false };
    let mut mir = lower_presc(presc, enc, lopts, Parallelism::Sequential).map_err(at)?;
    let cx = PassCx { presc, enc };
    let passes: [&dyn MirPass; 4] = [&DeadSlot, &FormChunks, &CoalesceMemcpy, &InlineMarshal];
    for pass in passes {
        pass.run(&mut mir, &cx).map_err(at)?;
    }
    verify(&mir, presc, enc).map_err(|e| at(format!("MIR verify: {e}")))?;
    Ok(Side {
        enc: enc.clone(),
        mir,
    })
}

/// `count` consecutive values sharing a source and a target wire form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Run {
    /// Wire form on the read side.
    pub src: WirePrim,
    /// Wire form on the write side.
    pub dst: WirePrim,
    /// Number of values.
    pub count: u64,
    /// Offsets of the first value in the source and target chunks.
    pub at: (u64, u64),
}

impl Run {
    /// Source bytes the run occupies.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.count * u64::from(self.src.slot)
    }

    /// Offsets just past the run in the source and target chunks.
    #[must_use]
    pub fn end(&self) -> (u64, u64) {
        (
            self.at.0 + self.bytes(),
            self.at.1 + self.count * u64::from(self.dst.slot),
        )
    }
}

/// One step of a packed-region rewrite.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Read and re-write the run value by value.
    Each(Run),
    /// `fuse-transcode`: move the runs as one block copy.
    Copy(Vec<Run>),
    /// Skip `src` pad bytes on the read side; write `dst` zero bytes.
    Pad {
        /// Source pad bytes.
        src: u64,
        /// Target pad bytes.
        dst: u64,
    },
}

/// True when a value's two wire forms agree byte for byte, so a raw
/// copy equals decode-then-re-encode even on hostile input.
#[must_use]
pub fn copyable(src: &WirePrim, dst: &WirePrim) -> bool {
    src.size == dst.size
        && src.slot == src.size
        && dst.slot == dst.size
        && !src.float
        && !dst.float
        && (src.size == 1 || src.order == dst.order)
}

fn same_value(r: &Run) -> Result<(), String> {
    let (s, d) = (r.src, r.dst);
    if s.size == d.size && s.signed == d.signed && s.float == d.float {
        Ok(())
    } else {
        Err(format!("pair disagrees on a value: {s:?} vs {d:?}"))
    }
}

/// A packed item as `(offset, form, count, trailing pad)`.
fn segments(p: &Packed) -> Vec<(u64, WirePrim, u64, u64)> {
    p.items
        .iter()
        .map(|item| match *item {
            PackedItem::Prim { offset, prim, .. } => (offset, prim, 1, 0),
            PackedItem::PrimRun {
                offset,
                prim,
                count,
                pad,
                ..
            } => (offset, prim, count, pad),
        })
        .collect()
}

/// Pairs the values of two packings of one region in order, at their
/// chunk offsets.  With `fuse`, copyable values back to back on both
/// sides join one block; everything else crosses value by value, and
/// each side's trailing run padding becomes a [`Step::Pad`].
///
/// # Errors
/// The two packings disagree on the values they hold.
pub fn packed_steps(src: &Packed, dst: &Packed, fuse: bool) -> Result<Vec<Step>, String> {
    let (ss, ds) = (segments(src), segments(dst));
    let (mut si, mut di, mut s_done, mut d_done) = (0, 0, 0, 0);
    let mut steps: Vec<Step> = Vec::new();
    while si < ss.len() && di < ds.len() {
        let (s_off, s_prim, s_count, s_pad) = ss[si];
        let (d_off, d_prim, d_count, d_pad) = ds[di];
        let run = Run {
            src: s_prim,
            dst: d_prim,
            count: (s_count - s_done).min(d_count - d_done),
            at: (
                s_off + s_done * u64::from(s_prim.slot),
                d_off + d_done * u64::from(d_prim.slot),
            ),
        };
        same_value(&run)?;
        let joins = |prev: &Run| prev.end() == run.at;
        if fuse && copyable(&run.src, &run.dst) {
            match steps.last_mut() {
                Some(Step::Copy(runs)) if runs.last().is_some_and(joins) => runs.push(run),
                _ => steps.push(Step::Copy(vec![run])),
            }
        } else {
            match steps.last_mut() {
                Some(Step::Each(r)) if (r.src, r.dst) == (run.src, run.dst) && joins(r) => {
                    r.count += run.count;
                }
                _ => steps.push(Step::Each(run)),
            }
        }
        s_done += run.count;
        d_done += run.count;
        let mut pad = (0, 0);
        if s_done == s_count {
            (si, s_done, pad.0) = (si + 1, 0, s_pad);
        }
        if d_done == d_count {
            (di, d_done, pad.1) = (di + 1, 0, d_pad);
        }
        if pad != (0, 0) {
            steps.push(Step::Pad {
                src: pad.0,
                dst: pad.1,
            });
        }
    }
    if si < ss.len() || di < ds.len() {
        return Err("pair disagrees on the number of values in a packed region".into());
    }
    Ok(steps)
}

/// The pair-agreement check: every block copies only runs whose two
/// layouts agree byte for byte, back to back on both sides, so no pad
/// byte is ever copied.  Unfused rewrites hold no blocks at all.
///
/// # Errors
/// Names the violated obligation.
pub fn check_steps(steps: &[Step], fused: bool) -> Result<(), String> {
    for step in steps {
        match step {
            Step::Each(run) => same_value(run)?,
            Step::Pad { .. } => {}
            Step::Copy(runs) => {
                if !fused {
                    return Err("block copy in an unfused rewrite".into());
                }
                if runs.is_empty() {
                    return Err("empty block copy".into());
                }
                for run in runs {
                    same_value(run)?;
                    if !copyable(&run.src, &run.dst) {
                        return Err(format!(
                            "block copies a widened, float, or byte-swapped run: {run:?}"
                        ));
                    }
                }
                if let Some(w) = runs.windows(2).find(|w| w[0].end() != w[1].at) {
                    return Err(format!("block would copy padding before {:?}", w[1]));
                }
            }
        }
    }
    Ok(())
}

/// How one side of an array pair moves its elements.
#[derive(Clone, Copy, Debug)]
pub enum Elems<'a> {
    /// A `MemcpyArray`: contiguous scalars, aligned once before the
    /// data and padded once after it.
    Run {
        /// Element wire form.
        prim: WirePrim,
        /// Trailing padding unit, if the encoding pads.
        pad_unit: Option<u8>,
    },
    /// A `CountedArray` or `FixedArray`: one plan per element.
    Each(&'a PlanNode),
}

impl Elems<'_> {
    /// The element's wire form, if it is a scalar.
    #[must_use]
    pub fn scalar(&self) -> Option<WirePrim> {
        match self {
            Elems::Run { prim, .. }
            | Elems::Each(PlanNode::Prim { prim, .. } | PlanNode::Enum { prim }) => Some(*prim),
            Elems::Each(_) => None,
        }
    }
}

/// One side of an array pair.
#[derive(Clone, Copy, Debug)]
pub struct Array<'a> {
    /// Static element count; `None` when a count prefix travels.
    pub fixed_len: Option<u64>,
    /// Declared bound of a counted array.
    pub bound: Option<u64>,
    /// The element discipline.
    pub elems: Elems<'a>,
}

/// The array view of `node`, if it is one.
#[must_use]
pub fn array_of(node: &PlanNode) -> Option<Array<'_>> {
    Some(match node {
        PlanNode::MemcpyArray {
            prim,
            fixed_len,
            bound,
            pad_unit,
            ..
        } => Array {
            fixed_len: *fixed_len,
            bound: *bound,
            elems: Elems::Run {
                prim: *prim,
                pad_unit: *pad_unit,
            },
        },
        PlanNode::CountedArray { bound, elem, .. } => Array {
            fixed_len: None,
            bound: *bound,
            elems: Elems::Each(elem),
        },
        PlanNode::FixedArray { len, elem, .. } => Array {
            fixed_len: Some(*len),
            bound: None,
            elems: Elems::Each(elem),
        },
        _ => return None,
    })
}

/// A fused array: every element is one `bytes`-wide block on both
/// sides and consecutive elements tile, so `len * bytes` cross at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bulk {
    /// Bytes per element.
    pub bytes: u64,
    /// Alignment each element needs on the read side.
    pub src_align: u8,
    /// Alignment each element needs on the write side.
    pub dst_align: u8,
}

/// The `fuse-transcode` decision for an array pair: scalar elements
/// whose forms are [`copyable`], or packed elements whose steps are
/// one tiling block.
///
/// # Errors
/// The element packings disagree, or the pair check fails.
pub fn bulk(src: &Elems, dst: &Elems) -> Result<Option<Bulk>, String> {
    if let (Some(s), Some(d)) = (src.scalar(), dst.scalar()) {
        return Ok(copyable(&s, &d).then_some(Bulk {
            bytes: u64::from(s.size),
            src_align: s.align,
            dst_align: d.align,
        }));
    }
    let (
        Elems::Each(PlanNode::Packed { layout: s, .. }),
        Elems::Each(PlanNode::Packed { layout: d, .. }),
    ) = (src, dst)
    else {
        return Ok(None);
    };
    let steps = packed_steps(s, d, true)?;
    check_steps(&steps, true)?;
    let (sa, da) = (s.align.clamp(1, 8), d.align.clamp(1, 8));
    Ok(match steps.as_slice() {
        [Step::Copy(runs)]
            if runs[0].at == (0, 0)
                && runs.last().map(Run::end) == Some((s.size, d.size))
                && s.size == d.size
                && s.size % sa == 0
                && d.size % da == 0 =>
        {
            Some(Bulk {
                bytes: s.size,
                src_align: sa as u8,
                dst_align: da as u8,
            })
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Order;
    use flick_idl::diag::Diagnostics;

    fn presc(idl: &str) -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, "T", flick_pres::Side::Server, &mut d).expect("presentation")
    }

    /// The first request slot of the first operation, on each side.
    fn slot0(pair: &TranscodePair) -> (&PlanNode, &PlanNode) {
        (
            &pair.src.mir.stubs[0].request.slots[0].node,
            &pair.dst.mir.stubs[0].request.slots[0].node,
        )
    }

    fn packed(node: &PlanNode) -> &Packed {
        match node {
            PlanNode::Packed { layout, .. } => layout,
            other => panic!("expected a packed chunk, got {other:?}"),
        }
    }

    fn steps_of(idl: &str, src: &Encoding, dst: &Encoding, fuse: bool) -> Vec<Step> {
        let pair = plan(&presc(idl), src, dst, true).expect("plans");
        let (s, d) = slot0(&pair);
        let steps = packed_steps(packed(s), packed(d), fuse).expect("pairs");
        check_steps(&steps, fuse).expect("passes the pair check");
        steps
    }

    /// The paper's 136-byte stat: 30 longs and a 16-byte tag.
    const STAT: &str =
        "struct Stat { long fields[30]; char tag[16]; }; interface T { void put(in Stat s); };";

    fn run(steps: &[Step]) -> Vec<(u64, u8, bool)> {
        steps
            .iter()
            .flat_map(|s| match s {
                Step::Each(r) => vec![(r.count, r.src.size, false)],
                Step::Copy(runs) => runs.iter().map(|r| (r.count, r.src.size, true)).collect(),
                Step::Pad { .. } => vec![],
            })
            .collect()
    }

    #[test]
    fn matching_orders_collapse_stat_to_one_block() {
        // XDR and big-endian CDR lay the stat out identically: the
        // whole chunk crosses as one 136-byte block.
        let steps = steps_of(STAT, &Encoding::xdr(), &Encoding::cdr_be(), true);
        let [Step::Copy(runs)] = steps.as_slice() else {
            panic!("expected one block, got {steps:?}");
        };
        assert_eq!(runs.iter().map(Run::bytes).sum::<u64>(), 136);
        assert_eq!(run(&steps), [(30, 4, true), (16, 1, true)]);
    }

    #[test]
    fn order_mismatch_keeps_scalars_value_wise_but_fuses_bytes() {
        // XDR (BE) → CDR-LE: the longs reswizzle one by one, the tag
        // bytes still block-copy.
        let steps = steps_of(STAT, &Encoding::xdr(), &Encoding::cdr_le(), true);
        assert_eq!(run(&steps), [(30, 4, false), (16, 1, true)], "{steps:?}");
    }

    #[test]
    fn counted_structs_bulk_copy_when_layouts_agree() {
        let idl = "struct Rect { long x; long y; long w; long h; };
                   typedef sequence<Rect, 1024> Rects;
                   interface T { void put(in Rects rs); };";
        let bulk_of = |dst: Encoding| {
            let pair = plan(&presc(idl), &Encoding::xdr(), &dst, true).unwrap();
            let (s, d) = slot0(&pair);
            let (a, b) = (array_of(s).unwrap(), array_of(d).unwrap());
            assert_eq!((a.bound, b.bound), (Some(1024), Some(1024)));
            bulk(&a.elems, &b.elems).unwrap()
        };
        assert_eq!(
            bulk_of(Encoding::cdr_be()),
            Some(Bulk {
                bytes: 16,
                src_align: 4,
                dst_align: 4
            })
        );
        // Reswizzling orders: nothing fuses.
        assert_eq!(bulk_of(Encoding::cdr_le()), None);
    }

    #[test]
    fn naive_twins_never_fuse() {
        let steps = steps_of(STAT, &Encoding::xdr(), &Encoding::cdr_be(), false);
        assert!(
            steps.iter().all(|s| !matches!(s, Step::Copy(_))),
            "{steps:?}"
        );
        let fused = steps_of(STAT, &Encoding::xdr(), &Encoding::cdr_be(), true);
        assert!(check_steps(&fused, false).unwrap_err().contains("unfused"));
    }

    #[test]
    fn widened_and_float_slots_refuse_to_fuse() {
        let idl = "struct W { unsigned long a; short b; float c; };
                   interface T { void put(in W w); };";
        let steps = steps_of(idl, &Encoding::xdr(), &Encoding::cdr_be(), true);
        // The u32 fuses alone; the widened short (4-byte XDR slot, 2-byte
        // CDR slot) and the float stay value-wise.
        match steps.as_slice() {
            [Step::Copy(a), Step::Each(b), Step::Each(c)] => {
                assert_eq!(a.len(), 1);
                assert_eq!((b.src.slot, b.src.size, b.dst.slot), (4, 2, 2));
                assert!(c.src.float && c.dst.float);
            }
            other => panic!("unexpected steps {other:?}"),
        }
    }

    #[test]
    fn byte_runs_pad_and_pads_never_fuse() {
        // char[6]: XDR pads to 8, CDR does not — the pad stays outside
        // the block so hostile pad bytes re-zero.
        let idl = "struct B { char tag[6]; }; interface T { void put(in B b); };";
        let pair = plan(&presc(idl), &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        let (s, d) = slot0(&pair);
        let fwd = packed_steps(packed(s), packed(d), true).unwrap();
        assert!(
            matches!(&fwd[0], Step::Copy(runs) if runs[0].count == 6),
            "{fwd:?}"
        );
        assert_eq!(fwd[1], Step::Pad { src: 2, dst: 0 });
        // And the reverse direction mirrors the pad.
        let rev = packed_steps(packed(d), packed(s), true).unwrap();
        assert_eq!(rev[1], Step::Pad { src: 0, dst: 2 });
    }

    #[test]
    fn dead_slots_leave_the_wire_and_strings_keep_bounds() {
        let idl = "interface T { void put(in string<64> msg, in long _pad); };";
        let pair = plan(&presc(idl), &Encoding::xdr(), &Encoding::cdr_be(), true).unwrap();
        for side in [&pair.src, &pair.dst] {
            let slots = &side.mir.stubs[0].request.slots;
            assert_eq!(slots.len(), 1, "the dead `_pad` slot is gone: {slots:?}");
            assert!(
                matches!(
                    slots[0].node,
                    PlanNode::String {
                        bound: Some(64),
                        ..
                    }
                ),
                "{:?}",
                slots[0].node
            );
        }
    }

    #[test]
    fn typed_descriptor_encodings_are_rejected() {
        let err = plan(&presc(STAT), &Encoding::mach3(), &Encoding::cdr_be(), true).unwrap_err();
        assert!(err.contains("mach3"), "{err}");
    }

    #[test]
    fn pair_check_rejects_corrupt_fusions() {
        let good = steps_of(STAT, &Encoding::xdr(), &Encoding::cdr_be(), true);
        let corrupt = |f: &dyn Fn(&mut Vec<Run>)| {
            let mut bad = good.clone();
            let Step::Copy(runs) = &mut bad[0] else {
                unreachable!()
            };
            f(runs);
            check_steps(&bad, true).unwrap_err()
        };
        // Multi-byte run across byte orders.
        let e = corrupt(&|r| r[0].dst.order = Order::Little);
        assert!(e.contains("byte-swapped"), "{e}");
        // A widened run.
        let e = corrupt(&|r| {
            let (mut s, mut d) = (Encoding::xdr().prim_for_size(2, true), r[0].dst);
            d.size = 2;
            d.slot = 2;
            s.signed = d.signed;
            r[0] = Run {
                src: s,
                dst: d,
                count: 1,
                at: r[0].at,
            };
        });
        assert!(e.contains("widened"), "{e}");
        // A float run.
        let e = corrupt(&|r| {
            r[0].src.float = true;
            r[0].dst.float = true;
        });
        assert!(e.contains("float"), "{e}");
        // A run placed after the bytes: the block would copy the pad
        // between the tag and the next long.
        let e = corrupt(&|r| r.swap(0, 1));
        assert!(e.contains("padding"), "{e}");
    }

    #[test]
    fn recursive_structs_outline_per_direction() {
        let aoi = flick_frontend_onc::parse_str("list.x", include_str!("../../../testdata/list.x"));
        let mut d = Diagnostics::new();
        let p =
            flick_presgen::rpcgen_c(&aoi, "ListProg", flick_pres::Side::Server, &mut d).unwrap();
        let pair = plan(&p, &Encoding::xdr(), &Encoding::cdr_le(), true).unwrap();
        for side in [&pair.src, &pair.dst] {
            assert_eq!(
                side.mir.outlines.keys().collect::<Vec<_>>(),
                ["node"],
                "only the recursion stays out of line"
            );
        }
        let module = crate::emit_transcode::emit(&pair).unwrap();
        for tag in ["fwd", "rev"] {
            let helper = module
                .split(&format!("fn xc_{tag}_node("))
                .nth(1)
                .and_then(|rest| rest.split("\n}\n").next())
                .unwrap_or_else(|| panic!("no {tag} helper in:\n{module}"));
            assert!(
                helper.contains(&format!("xc_{tag}_node(r, buf, _sb, _db)?;")),
                "the helper recurses through the optional tail:\n{helper}"
            );
            assert!(
                !helper.contains("// fused"),
                "helpers never fuse:\n{helper}"
            );
        }
    }
}

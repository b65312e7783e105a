//! The `fuse-transcode` decision point.
//!
//! A gateway is two endpoint lowerings over one presentation: the
//! source encoding's MIR is read, the target encoding's written
//! (`crate::transcode`).  Transcode fusion is the one decision that
//! belongs to the *pair*: where both sides' `Packed` chunks, or both
//! sides' scalar arrays — laid out by `form-chunks` and
//! `coalesce-memcpy` — agree byte for byte, a run crosses as one block
//! copy, subject to the pair-agreement check
//! (`crate::transcode::check_steps`).  No single endpoint MIR holds
//! that decision, so over endpoint stub plans this pass is a no-op; it
//! is registered here so the name participates in the shared pass
//! vocabulary: `flickc --disable-pass=fuse-transcode` validates like
//! every other pass name, pipeline fingerprints (and therefore plan
//! caches) key on whether fusion is scheduled, and the ablation
//! harness gets a row.

use crate::mir::{PlanResult, StubPlans};
use crate::passes::{MirPass, PassCx};

/// §4 (gateway) transcode fusion: source-to-target block copies where
/// both encodings lay bytes out identically.
pub struct FuseTranscode;

impl MirPass for FuseTranscode {
    fn name(&self) -> &'static str {
        "fuse-transcode"
    }

    fn run(&self, _mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        // Endpoint plans target one encoding; the fusion decision only
        // exists for encoding pairs and is made when the gateway is
        // emitted, keyed off this pass being scheduled.
        Ok(0)
    }
}

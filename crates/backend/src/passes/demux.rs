//! `demux-switch` (§3.4): word-wise server demultiplexing.
//!
//! String-discriminated protocols (IIOP) dispatch on the operation
//! name.  Instead of comparing whole strings per operation, this pass
//! builds a discrimination trie that switches on successive 4-byte
//! words of the name, descending only while names share a prefix.
//! The emitters turn the trie into nested integer switches; when the
//! pass is disabled they fall back to a per-name comparison chain.

use std::collections::{BTreeMap, HashSet};

use crate::mir::{Demux, DemuxArm, DemuxNode, PlanResult, StubPlan, StubPlans};
use crate::passes::{MirPass, PassCx};

pub struct DemuxSwitch;

impl MirPass for DemuxSwitch {
    fn name(&self) -> &'static str {
        "demux-switch"
    }

    fn run(&self, mir: &mut StubPlans, _cx: &PassCx) -> PlanResult<u64> {
        let (trie, nodes) = trie(&mir.stubs);
        mir.demux = Demux::Trie(trie);
        Ok(nodes)
    }
}

/// The word-switch trie over the distinct operations of `stubs` (one
/// dispatch entry per operation, in stub order), with its node count.
pub(crate) fn trie(stubs: &[StubPlan]) -> (DemuxNode, u64) {
    let mut seen = HashSet::new();
    let ops: Vec<&StubPlan> = stubs
        .iter()
        .filter(|s| seen.insert(s.op.name.clone()))
        .collect();
    let mut nodes = 0;
    let trie = build(&ops, 0, &mut nodes);
    (trie, nodes)
}

/// The native-endian 4-byte word of `name` starting at `at`,
/// zero-padded past the end — the same value the generated `word_at`
/// helper reads from the wire.
fn word_of(name: &[u8], at: usize) -> u32 {
    let mut w = [0u8; 4];
    if at < name.len() {
        let n = (name.len() - at).min(4);
        w[..n].copy_from_slice(&name[at..at + n]);
    }
    u32::from_ne_bytes(w)
}

fn build(ops: &[&StubPlan], word: usize, nodes: &mut u64) -> DemuxNode {
    *nodes += 1;
    let mut groups: BTreeMap<u32, Vec<&StubPlan>> = BTreeMap::new();
    for s in ops {
        groups
            .entry(word_of(s.op.wire_name.as_bytes(), word * 4))
            .or_default()
            .push(s);
    }
    let mut arms = Vec::new();
    for (w, group) in groups {
        let leaf = group.len() == 1 && (word + 1) * 4 >= group[0].op.wire_name.len();
        let arm = if leaf {
            DemuxArm::Op(group[0].op.name.clone())
        } else {
            DemuxArm::Descend(build(&group, word + 1, nodes))
        };
        arms.push((w, arm));
    }
    DemuxNode {
        word,
        arms,
        prefix: Vec::new(),
    }
}

//! Lowering a finalized FDD into the flat matcher, and the matcher itself.
//!
//! The compiled form is a descriptor table and two parallel arenas:
//!
//! * `nodes` — fixed-size [`NodeDesc`] records (kind, field, offset,
//!   length), one per reachable FDD node, root first in BFS order;
//! * `cuts` / `cut_targets` — each internal node's sorted cuts (the upper
//!   bound of each interval of its domain partition) and the parallel
//!   target node indices.
//!
//! Every internal node takes this one form whatever its field's width:
//! intervals are the paper's native match form (§7.1), and the lane kernel
//! and the subgraph pool resolve a node from its cuts too. Classification
//! walks descriptors by index: no pointers, no hashing, no allocation.
//! Sharing in the source DAG is preserved (a node reached by many edges is
//! lowered once), so a reduced FDD compiles to an arena no larger than its
//! node count.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

use fw_core::{ChangeImpact, Fdd, NodeView};
use fw_model::{Decision, Firewall, Packet, Schema};
use serde::{Deserialize, Serialize};

use crate::ExecError;

pub(crate) const KIND_TERMINAL: u8 = 0;
pub(crate) const KIND_SEARCH: u8 = 1;

/// One compiled node: 12 bytes, interpreted per `kind`.
///
/// * `KIND_TERMINAL` — `field` is the decision wire code; `off`/`len` are 0.
/// * `KIND_SEARCH` — `field` indexes the packet; `cuts[off..off+len]` holds
///   the node's sorted cuts, the last at the field's domain max, and
///   `cut_targets[off..off+len]` the matching next-node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeDesc {
    pub(crate) kind: u8,
    pub(crate) field: u16,
    pub(crate) off: u32,
    pub(crate) len: u32,
}

/// Compiler accounting for one matcher, in the style of
/// [`fw_core::FddStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Total compiled nodes (terminals + internals).
    pub nodes: usize,
    /// Terminal nodes.
    pub terminals: usize,
    /// Internal nodes, each a sorted cut array.
    pub search_nodes: usize,
    /// Total cut points across all internal nodes.
    pub cut_points: usize,
    /// Bytes of the canonical arenas FWEX carries (descriptors + cuts +
    /// targets). The lane kernel's bytes are [`crate::LaneStats::bytes`].
    pub arena_bytes: usize,
    /// Maximum number of lookups on any root-to-decision walk.
    pub max_depth: usize,
}

/// Accounting for the image an edit publishes ([`crate::SwapReport`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecompileStats {
    /// Nodes lowered for the new image. Every edit compiles the post-edit
    /// diagram fresh, so this is the new image's node count.
    pub nodes_fresh: usize,
}

/// A firewall decision diagram lowered to a flat, cache-friendly matcher.
///
/// Build one with [`CompiledFdd::compile`] (from an existing [`Fdd`]) or
/// [`CompiledFdd::from_firewall`] (construct, reduce, lower). See the crate
/// docs for the runtime surface.
#[derive(Debug, Clone)]
pub struct CompiledFdd {
    pub(crate) schema: Schema,
    pub(crate) root: u32,
    pub(crate) nodes: Vec<NodeDesc>,
    pub(crate) cuts: Vec<u64>,
    pub(crate) cut_targets: Vec<u32>,
    /// The lane kernel's lowering of the arenas; derived, never serialized
    /// (see `kernel.rs`). Built eagerly by `compile` but left empty by
    /// `decode`, where it fills on first batch use.
    pub(crate) lanes: OnceLock<crate::kernel::LaneKernel>,
    pub(crate) stats: CompileStats,
}

/// Matcher equality is over the canonical image — schema, root, the three
/// arenas, and stats. The lane kernel is excluded: it is a deterministic
/// function of those arenas, so two equal matchers always lower
/// identically, and comparing it would make equality depend on whether a
/// decoded image's lazy kernel has been built yet.
impl PartialEq for CompiledFdd {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.root == other.root
            && self.nodes == other.nodes
            && self.cuts == other.cuts
            && self.cut_targets == other.cut_targets
            && self.stats == other.stats
    }
}

/// Branchless lower bound: index of the first cut `>= v`. The loop body is
/// a single conditional move per halving, with no data-dependent branch for
/// the predictor to miss on adversarial traces.
#[inline]
pub(crate) fn lower_bound(cuts: &[u64], v: u64) -> usize {
    let mut base = 0usize;
    let mut size = cuts.len();
    while size > 1 {
        let half = size / 2;
        base = if cuts[base + half - 1] < v {
            base + half
        } else {
            base
        };
        size -= half;
    }
    base
}

#[inline]
pub(crate) fn decision_from_u16(code: u16) -> Decision {
    // Codes are validated at compile/decode time, so this cannot fail on a
    // matcher that came through a constructor. If a corrupted image reaches
    // us anyway, fail closed (drop the packet) rather than silently mapping
    // unknown codes onto a valid decision.
    let decoded = u8::try_from(code)
        .ok()
        .and_then(|c| Decision::from_code(c).ok());
    debug_assert!(decoded.is_some(), "corrupt terminal decision code {code}");
    decoded.unwrap_or(Decision::Discard)
}

/// Flattens an internal FDD node's edges into sorted `(lo, hi, target)`
/// spans — targets resolved through `resolve` — and verifies they partition
/// the field's domain, span by span.
fn sorted_spans(
    schema: &Schema,
    src: fw_core::NodeId,
    field: fw_model::FieldId,
    edges: &[fw_core::Edge],
    mut resolve: impl FnMut(fw_core::NodeId) -> u32,
) -> Result<Vec<(u64, u64, u32)>, ExecError> {
    let mut spans = Vec::new();
    for e in edges {
        let t = resolve(e.target());
        for iv in e.label().iter() {
            spans.push((iv.lo(), iv.hi(), t));
        }
    }
    verify_partition(schema, src, field, &mut spans)?;
    Ok(spans)
}
/// Sorts `(lo, hi, target)` spans in place and verifies they partition
/// `field`'s domain — the single check both lowering paths funnel
/// through: compilation via [`sorted_spans`], and the cross-image shared
/// subgraph pool (`shared.rs`), which builds its spans from arena
/// [`fw_core::ConsView`] edges instead of [`Fdd`] edges.
pub(crate) fn verify_partition<T: Copy>(
    schema: &Schema,
    src: impl std::fmt::Display,
    field: fw_model::FieldId,
    spans: &mut [(u64, u64, T)],
) -> Result<(), ExecError> {
    let fd = schema.field(field);
    spans.sort_unstable_by_key(|s| s.0);
    let mut expect = 0u64;
    for (i, &(lo, hi, _)) in spans.iter().enumerate() {
        if lo != expect || hi < lo {
            return Err(ExecError::Invariant(format!(
                "edges of node {src} do not partition {} ([{lo},{hi}] after {expect})",
                fd.name()
            )));
        }
        if i + 1 < spans.len() {
            expect = hi.checked_add(1).ok_or_else(|| {
                ExecError::Invariant(format!(
                    "span overflow lowering node {src} on {}",
                    fd.name()
                ))
            })?;
        } else if hi != fd.max() {
            return Err(ExecError::Invariant(format!(
                "edges of node {src} stop at {hi}, domain max is {}",
                fd.max()
            )));
        }
    }
    Ok(())
}

impl CompiledFdd {
    /// Lowers `fdd` into a flat matcher.
    ///
    /// The diagram must satisfy the usual FDD invariants (consistency,
    /// completeness, orderedness); both tree-shaped and reduced DAG inputs
    /// work, and DAG sharing is preserved. Prefer compiling the
    /// [`Fdd::reduced`] form: same semantics, smallest arena.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Invariant`] if a node's edges do not partition
    /// its field's domain or the arenas exceed `u32` indexing.
    pub fn compile(fdd: &Fdd) -> Result<CompiledFdd, ExecError> {
        let schema = fdd.schema().clone();

        // Pass 1: BFS from the root assigns dense ids (root = 0) and fixes
        // the emission order, preserving DAG sharing; `order` is its own
        // queue.
        let mut ids: HashMap<fw_core::NodeId, u32> = HashMap::from([(fdd.root(), 0)]);
        let mut order = vec![fdd.root()];
        let mut next = 0;
        while let Some(&src) = order.get(next) {
            next += 1;
            if let NodeView::Internal { edges, .. } = fdd.view(src) {
                for e in edges {
                    if let Entry::Vacant(slot) = ids.entry(e.target()) {
                        slot.insert(u32::try_from(order.len()).map_err(|_| {
                            ExecError::Invariant("diagram exceeds u32 node indices".into())
                        })?);
                        order.push(e.target());
                    }
                }
            }
        }

        // Pass 2: emit descriptors and arenas in id order. A consistent and
        // complete node's edges partition its field's domain, which
        // `sorted_spans` verifies; each span's upper bound is a cut.
        let arena_index = |i: usize| {
            u32::try_from(i)
                .map_err(|_| ExecError::Invariant("cut arena exceeds u32 indices".into()))
        };
        let mut nodes = Vec::with_capacity(order.len());
        let mut cuts: Vec<u64> = Vec::new();
        let mut cut_targets: Vec<u32> = Vec::new();
        for &src in &order {
            nodes.push(match fdd.view(src) {
                NodeView::Terminal(d) => NodeDesc {
                    kind: KIND_TERMINAL,
                    field: u16::from(d.code()),
                    off: 0,
                    len: 0,
                },
                NodeView::Internal { field, edges } => {
                    let spans = sorted_spans(&schema, src, field, edges, |t| ids[&t])?;
                    let off = arena_index(cuts.len())?;
                    cuts.extend(spans.iter().map(|&(_, hi, _)| hi));
                    cut_targets.extend(spans.iter().map(|&(_, _, t)| t));
                    NodeDesc {
                        kind: KIND_SEARCH,
                        field: u16::try_from(field.index()).map_err(|_| {
                            ExecError::Invariant(format!("field index {field} exceeds u16"))
                        })?,
                        off,
                        len: arena_index(cuts.len())? - off,
                    }
                }
            });
        }

        let mut compiled = CompiledFdd {
            schema,
            root: 0,
            nodes,
            cuts,
            cut_targets,
            lanes: OnceLock::new(),
            stats: CompileStats::default(),
        };
        compiled.stats = compiled.compute_stats();
        compiled.lanes();
        Ok(compiled)
    }

    /// Constructs the policy's FDD by memoised construction, whose output
    /// is already the canonical reduced DAG, and lowers it — the one-call
    /// path from a finalized rule sequence to a servable matcher.
    ///
    /// # Errors
    ///
    /// As for [`Fdd::from_firewall_fast`] (the policy must be
    /// comprehensive) and [`CompiledFdd::compile`].
    pub fn from_firewall(fw: &Firewall) -> Result<CompiledFdd, ExecError> {
        CompiledFdd::compile(&Fdd::from_firewall_fast(fw)?)
    }

    /// The image to publish after an edit: [`CompiledFdd::compile`] of the
    /// post-edit diagram `fdd`, plus its [`RecompileStats`]. `impact` is
    /// not consulted. Lowering the post-edit diagram fresh beats splicing
    /// it into this image on every measured edit batch, and keeps the
    /// served image as small as a full compile (DESIGN.md §10); edit paths
    /// call `compile` directly.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Invariant`] if `fdd` is over a different schema
    /// than this image, and otherwise as for [`CompiledFdd::compile`].
    pub fn recompile(
        &self,
        fdd: &Fdd,
        _impact: &ChangeImpact,
    ) -> Result<(CompiledFdd, RecompileStats), ExecError> {
        if fdd.schema() != &self.schema {
            return Err(ExecError::Invariant(
                "post-edit diagram is over a different schema".into(),
            ));
        }
        let image = CompiledFdd::compile(fdd)?;
        let stats = RecompileStats {
            nodes_fresh: image.node_count(),
        };
        Ok((image, stats))
    }

    /// The schema packets must follow.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Compiler statistics (node counts, arena bytes, max depth).
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Number of compiled nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// An internal node's cuts and the parallel targets.
    #[inline]
    pub(crate) fn edges(&self, n: NodeDesc) -> (&[u64], &[u32]) {
        let span = n.off as usize..n.off as usize + n.len as usize;
        (&self.cuts[span.clone()], &self.cut_targets[span])
    }

    /// The matcher's inner loop, the one scalar walk: `value(f)` is the
    /// packet's value for field `f`, read from a packet row or a batch
    /// column.
    #[inline]
    pub(crate) fn decide(&self, value: impl Fn(usize) -> u64) -> Decision {
        let mut n = self.nodes[self.root as usize];
        while n.kind != KIND_TERMINAL {
            let (cuts, targets) = self.edges(n);
            n = self.nodes[targets[lower_bound(cuts, value(usize::from(n.field)))] as usize];
        }
        decision_from_u16(n.field)
    }

    /// Classifies one packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet has the wrong arity or a value outside its
    /// field's domain (the message names the field); use
    /// [`CompiledFdd::try_classify`] for untrusted input.
    pub fn classify(&self, packet: &Packet) -> Decision {
        if let Err(e) = packet.validate(&self.schema) {
            panic!("CompiledFdd::classify: {e}");
        }
        self.decide(|f| packet.values()[f])
    }

    /// Classifies one packet after validating it against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Model`] for wrong arity or out-of-domain
    /// values.
    pub fn try_classify(&self, packet: &Packet) -> Result<Decision, ExecError> {
        packet.validate(&self.schema)?;
        Ok(self.decide(|f| packet.values()[f]))
    }

    /// Classifies a batch of packets, returning decisions in order.
    ///
    /// The packets are not validated: a value outside its field's domain
    /// gets an unspecified decision or a panic. Validate untrusted input
    /// first ([`PacketBatch`](crate::PacketBatch) or
    /// [`CompiledFdd::try_classify`]).
    pub fn classify_batch(&self, packets: &[Packet]) -> Vec<Decision> {
        let mut out = Vec::new();
        self.classify_batch_into(packets, &mut out);
        out
    }

    /// Classifies a batch into a caller-provided buffer (cleared first), so
    /// steady-state replay does no per-batch allocation beyond the buffer's
    /// high-water mark. Packets are not validated, as for
    /// [`CompiledFdd::classify_batch`].
    pub fn classify_batch_into(&self, packets: &[Packet], out: &mut Vec<Decision>) {
        out.clear();
        out.reserve(packets.len());
        out.extend(packets.iter().map(|p| self.decide(|f| p.values()[f])));
    }

    /// Each node's height: the longest distance from it to a decision.
    /// The DP runs in decreasing field order, relying on the ordered-FDD
    /// property (targets test strictly later fields), which compilation
    /// preserves and decoding verifies.
    pub(crate) fn heights(&self) -> Vec<u32> {
        let mut height = vec![0u32; self.nodes.len()];
        for f in (0..self.schema.len()).rev() {
            for (i, &n) in self.nodes.iter().enumerate() {
                if n.kind != KIND_TERMINAL && usize::from(n.field) == f {
                    let below = self.edges(n).1.iter().map(|&t| height[t as usize]);
                    height[i] = 1 + below.max().unwrap_or(0);
                }
            }
        }
        height
    }

    /// Longest root-to-decision walk plus arena accounting.
    pub(crate) fn compute_stats(&self) -> CompileStats {
        let terminals = self
            .nodes
            .iter()
            .filter(|n| n.kind == KIND_TERMINAL)
            .count();
        CompileStats {
            nodes: self.nodes.len(),
            terminals,
            search_nodes: self.nodes.len() - terminals,
            cut_points: self.cuts.len(),
            arena_bytes: self.nodes.len() * std::mem::size_of::<NodeDesc>()
                + self.cuts.len() * 8
                + self.cut_targets.len() * 4,
            max_depth: self.heights()[self.root as usize] as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn lower_bound_is_a_lower_bound() {
        let cuts = [4u64, 9, 20, 100];
        for (v, want) in [(0, 0), (4, 0), (5, 1), (9, 1), (10, 2), (21, 3), (100, 3)] {
            assert_eq!(lower_bound(&cuts, v), want, "v={v}");
        }
        assert_eq!(lower_bound(&[7], 3), 0);
    }

    #[test]
    fn compiles_paper_policy_and_matches_linear_scan() {
        let fw = paper::team_b();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
        assert_eq!(
            decoded, compiled,
            "a compiled image passes the decoder's checks"
        );
        let trace = fw_synth::PacketTrace::biased(&fw, 2_000, 0.4, 11);
        for p in trace.packets() {
            assert_eq!(Some(compiled.classify(p)), fw.decision_for(p));
        }
    }

    /// A narrow field's node keeps one cut per edge interval, as a wide
    /// field's does: no dense per-value table.
    #[test]
    fn narrow_fields_lower_to_cuts_like_wide_ones() {
        // tcp_ip: proto is 8-bit, ports and addresses wider.
        let fw = fw_synth::Synthesizer::new(3).firewall(30);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let proto = compiled.schema().len() - 1;
        let narrow: Vec<NodeDesc> = compiled
            .nodes
            .iter()
            .copied()
            .filter(|n| n.kind == KIND_SEARCH && usize::from(n.field) == proto)
            .collect();
        assert!(!narrow.is_empty(), "expected proto nodes");
        for n in narrow {
            let (cuts, _) = compiled.edges(n);
            assert!(cuts.len() < 256, "a proto node holds {} cuts", cuts.len());
            assert_eq!(cuts.last(), Some(&255));
        }
        let s = compiled.stats();
        assert_eq!(s.nodes, s.terminals + s.search_nodes);
        assert_eq!(s.cut_points, compiled.cuts.len());
        assert!(s.max_depth <= compiled.schema().len());
        assert_eq!(s.arena_bytes, s.nodes * 12 + s.cut_points * 12);
    }

    #[test]
    fn shares_dag_nodes() {
        let fw = paper::team_a();
        let reduced = Fdd::from_firewall_fast(&fw).unwrap().reduced();
        let compiled = CompiledFdd::compile(&reduced).unwrap();
        assert_eq!(compiled.node_count(), reduced.node_count());
    }

    #[test]
    fn batch_matches_single() {
        let fw = fw_synth::Synthesizer::new(8).firewall(20);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 500, 5);
        let batch = compiled.classify_batch(trace.packets());
        let mut reused = Vec::new();
        compiled.classify_batch_into(trace.packets(), &mut reused);
        assert_eq!(batch, reused);
        for (p, d) in trace.packets().iter().zip(&batch) {
            assert_eq!(compiled.classify(p), *d);
            assert_eq!(compiled.try_classify(p).unwrap(), *d);
        }
    }

    #[test]
    fn recompile_is_a_fresh_compile_and_checks_the_schema() {
        let fw = fw_synth::Synthesizer::new(11).firewall(60);
        let flipped = fw.rules()[3].with_decision(fw.rules()[3].decision().inverted());
        let edits = [fw_core::Edit::Replace {
            index: 3,
            rule: flipped,
        }];
        let (after, impact) = ChangeImpact::of_edits(&fw, &edits).unwrap();
        let fdd = Fdd::from_firewall_fast(&after).unwrap().reduced();
        let base = CompiledFdd::from_firewall(&fw).unwrap();
        let (image, stats) = base.recompile(&fdd, &impact).unwrap();
        assert_eq!(image, CompiledFdd::compile(&fdd).unwrap());
        assert_eq!(stats.nodes_fresh, image.node_count());

        let other = Firewall::parse(Schema::paper_example(), "* -> discard\n").unwrap();
        let other_fdd = Fdd::from_firewall_fast(&other).unwrap().reduced();
        assert!(matches!(
            base.recompile(&other_fdd, &impact),
            Err(ExecError::Invariant(_))
        ));
    }

    /// `classify` checks its packet: a value past its field's domain would
    /// otherwise read a neighbouring node's slot.
    #[test]
    #[should_panic(expected = "field `proto`")]
    fn classify_panics_on_out_of_domain_values() {
        let compiled = CompiledFdd::from_firewall(&fw_synth::university_large()).unwrap();
        compiled.classify(&Packet::new(vec![1, 2, 3, 4, 256]));
    }

    #[test]
    fn try_classify_rejects_bad_packets() {
        let compiled = CompiledFdd::from_firewall(&paper::team_a()).unwrap();
        assert!(matches!(
            compiled.try_classify(&Packet::new(vec![1, 2])),
            Err(ExecError::Model(_))
        ));
        assert!(matches!(
            compiled.try_classify(&Packet::new(vec![9, 0, 0, 0, 0])),
            Err(ExecError::Model(_))
        ));
    }
}

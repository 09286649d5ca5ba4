//! Lowering a finalized FDD into the flat matcher, and the matcher itself.
//!
//! The compiled form is three contiguous arenas and a descriptor table:
//!
//! * `nodes` — fixed-size [`NodeDesc`] records (kind, field, offset,
//!   length), one per reachable FDD node, root first in BFS order;
//! * `cuts` / `cut_targets` — for *search* nodes, the sorted upper bounds
//!   of the node's domain partition and the parallel target node indices;
//! * `jump` — for *jump* nodes (fields of at most [`JUMP_TABLE_MAX_BITS`]
//!   bits), a dense per-value target table covering the whole domain.
//!
//! Classification walks descriptors by index: no pointers, no hashing, no
//! allocation. Sharing in the source DAG is preserved (a node reached by
//! many edges is lowered once), so a reduced FDD compiles to an arena no
//! larger than its node count.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

use fw_core::{ChangeImpact, Fdd, NodeView};
use fw_model::{Decision, Firewall, Packet, Schema};
use serde::{Deserialize, Serialize};

use crate::ExecError;

/// Fields at most this many bits wide are lowered to dense jump tables
/// (at most 256 entries); wider fields get sorted cut-point arrays walked
/// by branchless binary search.
pub const JUMP_TABLE_MAX_BITS: u32 = 8;

pub(crate) const KIND_TERMINAL: u8 = 0;
pub(crate) const KIND_SEARCH: u8 = 1;
pub(crate) const KIND_JUMP: u8 = 2;

/// One compiled node: 12 bytes, interpreted per `kind`.
///
/// * `KIND_TERMINAL` — `field` is the decision wire code; `off`/`len` are 0.
/// * `KIND_SEARCH` — `field` indexes the packet; `cuts[off..off+len]` holds
///   the partition's sorted upper bounds, `cut_targets[off..off+len]` the
///   matching next-node indices.
/// * `KIND_JUMP` — `field` indexes the packet; `jump[off..off+len]` maps
///   every domain value directly to its next-node index (`len` = domain
///   size).
///
/// `level` is the node's BFS depth from the root. Ids are assigned in BFS
/// order, so nodes of one level occupy a contiguous arena range
/// ([`CompiledFdd::level_starts`]), and the lane kernel, which keeps the
/// image's node ids, reads its descriptors level by level too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeDesc {
    pub(crate) kind: u8,
    pub(crate) level: u8,
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
    /// Internal nodes lowered to binary-search cut arrays.
    pub search_nodes: usize,
    /// Internal nodes lowered to dense jump tables.
    pub jump_nodes: usize,
    /// Total cut points across all search nodes.
    pub cut_points: usize,
    /// Total entries across all jump tables.
    pub jump_entries: usize,
    /// Bytes of the canonical arenas FWEX carries (descriptors + cuts +
    /// targets + jump tables + level table). The lane kernel's bytes are
    /// [`crate::LaneStats::bytes`].
    pub arena_bytes: usize,
    /// Maximum number of lookups on any root-to-decision walk.
    pub max_depth: usize,
    /// Number of BFS levels (contiguous arena ranges); at most
    /// `max_depth + 1`.
    pub levels: usize,
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
    pub(crate) jump: Vec<u32>,
    /// `level_starts[k]..level_starts[k + 1]` is the arena range of BFS
    /// level `k` (`level_starts.len()` = level count + 1). Derived from the
    /// per-node `level` bytes, which decoding re-validates against a fresh
    /// BFS of the image.
    pub(crate) level_starts: Vec<u32>,
    /// The lane kernel's lowering of the arenas; derived, never serialized
    /// (see `kernel.rs`). Built eagerly by `compile` but left empty by
    /// `decode`, where it fills on first batch use.
    pub(crate) lanes: OnceLock<crate::kernel::LaneKernel>,
    pub(crate) stats: CompileStats,
}

/// Matcher equality is over the canonical image — schema, root, the four
/// arenas, level table, and stats. The lane kernel is excluded: it is a
/// deterministic function of those arenas, so two equal matchers always
/// lower identically, and comparing it would make equality depend on
/// whether a decoded image's lazy kernel has been built yet.
impl PartialEq for CompiledFdd {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.root == other.root
            && self.nodes == other.nodes
            && self.cuts == other.cuts
            && self.cut_targets == other.cut_targets
            && self.jump == other.jump
            && self.level_starts == other.level_starts
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

/// Emits one internal node from its verified domain-partition spans
/// (targets already arena indices): a dense jump table for narrow fields, a
/// sorted cut array otherwise. Appends to the passed arenas and returns the
/// descriptor.
pub(crate) fn emit_internal(
    schema: &Schema,
    field: fw_model::FieldId,
    level: u8,
    spans: &[(u64, u64, u32)],
    cuts: &mut Vec<u64>,
    cut_targets: &mut Vec<u32>,
    jump: &mut Vec<u32>,
) -> Result<NodeDesc, ExecError> {
    let fd = schema.field(field);
    let fidx = u16::try_from(field.index())
        .map_err(|_| ExecError::Invariant(format!("field index {field} exceeds u16")))?;
    if fd.bits() <= JUMP_TABLE_MAX_BITS {
        let size = fd.max() + 1; // at most 256
        let off = u32::try_from(jump.len())
            .map_err(|_| ExecError::Invariant("jump arena exceeds u32 indices".into()))?;
        for &(lo, hi, t) in spans {
            jump.extend(std::iter::repeat_n(t, (hi - lo + 1) as usize));
        }
        Ok(NodeDesc {
            kind: KIND_JUMP,
            level,
            field: fidx,
            off,
            len: u32::try_from(size).expect("<= 256"),
        })
    } else {
        let off = u32::try_from(cuts.len())
            .map_err(|_| ExecError::Invariant("cut arena exceeds u32 indices".into()))?;
        for &(_, hi, t) in spans {
            cuts.push(hi);
            cut_targets.push(t);
        }
        Ok(NodeDesc {
            kind: KIND_SEARCH,
            level,
            field: fidx,
            off,
            len: u32::try_from(spans.len())
                .map_err(|_| ExecError::Invariant("node exceeds u32 cuts".into()))?,
        })
    }
}

/// Rebuilds the level-range table from per-node BFS levels, which arrive
/// non-decreasing in arena order (a structural invariant checked by
/// [`CompiledFdd::validate_structure`]).
pub(crate) fn build_level_starts(nodes: &[NodeDesc]) -> Vec<u32> {
    let mut starts = vec![0u32];
    for (i, n) in nodes.iter().enumerate() {
        while starts.len() <= n.level as usize {
            starts.push(u32::try_from(i).expect("arena indexed by u32"));
        }
    }
    starts.push(u32::try_from(nodes.len()).expect("arena indexed by u32"));
    starts
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
        // the emission order, preserving DAG sharing. The queue discipline
        // also yields each node's BFS depth (first-discovery distance), and
        // because depth-k nodes are enumerated before any depth-(k+1) node,
        // ids of one level form a contiguous range — the level-contiguity
        // invariant the lane kernel streams on.
        let mut ids: HashMap<fw_core::NodeId, u32> = HashMap::new();
        let mut order: Vec<fw_core::NodeId> = Vec::new();
        let mut levels: Vec<u8> = Vec::new();
        let mut queue = VecDeque::new();
        ids.insert(fdd.root(), 0);
        order.push(fdd.root());
        levels.push(0);
        queue.push_back(fdd.root());
        while let Some(src) = queue.pop_front() {
            if let NodeView::Internal { edges, .. } = fdd.view(src) {
                let next_level = levels[ids[&src] as usize]
                    .checked_add(1)
                    .ok_or_else(|| ExecError::Invariant("diagram exceeds 255 BFS levels".into()))?;
                for e in edges {
                    if let std::collections::hash_map::Entry::Vacant(slot) = ids.entry(e.target()) {
                        let id = u32::try_from(order.len()).map_err(|_| {
                            ExecError::Invariant("diagram exceeds u32 node indices".into())
                        })?;
                        slot.insert(id);
                        order.push(e.target());
                        levels.push(next_level);
                        queue.push_back(e.target());
                    }
                }
            }
        }

        // Pass 2: emit descriptors and arenas in id order.
        let mut nodes = Vec::with_capacity(order.len());
        let mut cuts: Vec<u64> = Vec::new();
        let mut cut_targets: Vec<u32> = Vec::new();
        let mut jump: Vec<u32> = Vec::new();
        for (&src, &level) in order.iter().zip(&levels) {
            match fdd.view(src) {
                NodeView::Terminal(d) => nodes.push(NodeDesc {
                    kind: KIND_TERMINAL,
                    level,
                    field: u16::from(d.code()),
                    off: 0,
                    len: 0,
                }),
                NodeView::Internal { field, edges } => {
                    // Flatten edges to (lo, hi, target) spans and sort; a
                    // consistent + complete node yields a partition of the
                    // domain, which the lowering verifies span by span.
                    let spans = sorted_spans(&schema, src, field, edges, |t| ids[&t])?;
                    nodes.push(emit_internal(
                        &schema,
                        field,
                        level,
                        &spans,
                        &mut cuts,
                        &mut cut_targets,
                        &mut jump,
                    )?);
                }
            }
        }

        let level_starts = build_level_starts(&nodes);
        let mut compiled = CompiledFdd {
            schema,
            root: 0,
            nodes,
            cuts,
            cut_targets,
            jump,
            level_starts,
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

    /// The matcher's inner loop over a value slice in schema order.
    #[inline]
    pub(crate) fn decide(&self, values: &[u64]) -> Decision {
        let mut idx = self.root as usize;
        loop {
            let n = self.nodes[idx];
            match n.kind {
                KIND_TERMINAL => return decision_from_u16(n.field),
                KIND_JUMP => {
                    let v = values[n.field as usize];
                    idx = self.jump[n.off as usize + v as usize] as usize;
                }
                _ => {
                    let v = values[n.field as usize];
                    let off = n.off as usize;
                    let len = n.len as usize;
                    let i = lower_bound(&self.cuts[off..off + len], v);
                    idx = self.cut_targets[off + i] as usize;
                }
            }
        }
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
        self.decide(packet.values())
    }

    /// Classifies one packet after validating it against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Model`] for wrong arity or out-of-domain
    /// values.
    pub fn try_classify(&self, packet: &Packet) -> Result<Decision, ExecError> {
        packet.validate(&self.schema)?;
        Ok(self.decide(packet.values()))
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
        out.extend(packets.iter().map(|p| self.decide(p.values())));
    }

    /// Each node's height: the longest distance from it to a decision.
    /// The DP runs in decreasing field order, relying on the ordered-FDD
    /// property (targets test strictly later fields), which compilation
    /// preserves and decoding verifies.
    pub(crate) fn heights(&self) -> Vec<u32> {
        let mut height = vec![0u32; self.nodes.len()];
        for f in (0..self.schema.len()).rev() {
            for (i, n) in self.nodes.iter().enumerate() {
                if n.kind == KIND_TERMINAL || n.field as usize != f {
                    continue;
                }
                let targets = match n.kind {
                    KIND_JUMP => &self.jump[n.off as usize..(n.off + n.len) as usize],
                    _ => &self.cut_targets[n.off as usize..(n.off + n.len) as usize],
                };
                height[i] = targets
                    .iter()
                    .map(|&t| height[t as usize] + 1)
                    .max()
                    .unwrap_or(0);
            }
        }
        height
    }

    /// Longest root-to-decision walk plus arena accounting.
    pub(crate) fn compute_stats(&self) -> CompileStats {
        let mut stats = CompileStats {
            nodes: self.nodes.len(),
            cut_points: self.cuts.len(),
            jump_entries: self.jump.len(),
            arena_bytes: self.nodes.len() * std::mem::size_of::<NodeDesc>()
                + self.cuts.len() * 8
                + self.cut_targets.len() * 4
                + self.jump.len() * 4
                + self.level_starts.len() * 4,
            levels: self.level_starts.len().saturating_sub(1),
            max_depth: self.heights()[self.root as usize] as usize,
            ..CompileStats::default()
        };
        for n in &self.nodes {
            match n.kind {
                KIND_TERMINAL => stats.terminals += 1,
                KIND_JUMP => stats.jump_nodes += 1,
                _ => stats.search_nodes += 1,
            }
        }
        stats
    }

    /// Structural validation of a decoded matcher: every index in range,
    /// decision codes known, per-node cuts strictly ascending and ending at
    /// the field's domain max, jump tables domain-sized, and every internal
    /// target testing a strictly later field (which also guarantees the
    /// classify loop terminates).
    pub(crate) fn validate_structure(&self) -> Result<(), ExecError> {
        let err = |m: String| Err(ExecError::Wire(m));
        if self.nodes.is_empty() {
            return err("matcher has no nodes".into());
        }
        if self.root as usize >= self.nodes.len() {
            return err(format!("root {} out of range", self.root));
        }
        if self.cuts.len() != self.cut_targets.len() {
            return err("cut and target arenas disagree in length".into());
        }
        let field_rank = |t: u32| -> Result<usize, ExecError> {
            let n = self
                .nodes
                .get(t as usize)
                .ok_or_else(|| ExecError::Wire(format!("target {t} out of range")))?;
            Ok(if n.kind == KIND_TERMINAL {
                usize::MAX
            } else {
                n.field as usize
            })
        };
        for (i, n) in self.nodes.iter().enumerate() {
            match n.kind {
                KIND_TERMINAL => {
                    if Decision::from_code(u8::try_from(n.field).unwrap_or(u8::MAX)).is_err() {
                        return err(format!("node {i}: unknown decision code {}", n.field));
                    }
                }
                KIND_SEARCH | KIND_JUMP => {
                    let fd = match self.schema.get(fw_model::FieldId(n.field as usize)) {
                        Some(fd) => fd,
                        None => return err(format!("node {i}: unknown field F{}", n.field + 1)),
                    };
                    let (off, len) = (n.off as usize, n.len as usize);
                    if len == 0 {
                        return err(format!("node {i}: empty internal node"));
                    }
                    let (arena_len, targets): (usize, &[u32]) = if n.kind == KIND_JUMP {
                        if fd.bits() > JUMP_TABLE_MAX_BITS {
                            return err(format!("node {i}: jump table on wide field"));
                        }
                        (self.jump.len(), &self.jump)
                    } else {
                        (self.cuts.len(), &self.cut_targets)
                    };
                    if off.checked_add(len).is_none_or(|end| end > arena_len) {
                        return err(format!("node {i}: arena slice out of range"));
                    }
                    if n.kind == KIND_JUMP {
                        if (len as u64) != fd.max() + 1 {
                            return err(format!("node {i}: jump table not domain-sized"));
                        }
                    } else {
                        let cuts = &self.cuts[off..off + len];
                        if !cuts.windows(2).all(|w| w[0] < w[1]) {
                            return err(format!("node {i}: cut points not strictly ascending"));
                        }
                        if cuts[len - 1] != fd.max() {
                            return err(format!("node {i}: cuts do not cover the domain"));
                        }
                    }
                    for &t in &targets[off..off + len] {
                        if field_rank(t)? <= n.field as usize {
                            return err(format!("node {i}: target {t} does not advance the field"));
                        }
                    }
                }
                other => return err(format!("node {i}: unknown kind {other}")),
            }
        }
        // Level metadata: recorded levels must be non-decreasing in arena
        // order (the contiguity invariant `level_starts` and the lane
        // kernel's streaming order rely on), and on every reachable node
        // they must equal the true BFS depth, re-derived here rather than
        // trusted from the image.
        if !self.nodes.windows(2).all(|w| w[0].level <= w[1].level) {
            return err("node levels not contiguous in arena order".into());
        }
        let mut depth = vec![0u8; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        visited[self.root as usize] = true;
        queue.push_back(self.root as usize);
        while let Some(i) = queue.pop_front() {
            let n = self.nodes[i];
            if n.level != depth[i] {
                return err(format!(
                    "node {i}: recorded level {} but BFS depth {}",
                    n.level, depth[i]
                ));
            }
            let targets: &[u32] = match n.kind {
                KIND_TERMINAL => &[],
                KIND_JUMP => &self.jump[n.off as usize..(n.off + n.len) as usize],
                _ => &self.cut_targets[n.off as usize..(n.off + n.len) as usize],
            };
            for &t in targets {
                let t = t as usize;
                if !visited[t] {
                    visited[t] = true;
                    depth[t] = match depth[i].checked_add(1) {
                        Some(d) => d,
                        None => return err(format!("node {t}: BFS depth exceeds 255")),
                    };
                    queue.push_back(t);
                }
            }
        }
        Ok(())
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
        compiled.validate_structure().unwrap();
        let trace = fw_synth::PacketTrace::biased(&fw, 2_000, 0.4, 11);
        for p in trace.packets() {
            assert_eq!(Some(compiled.classify(p)), fw.decision_for(p));
        }
    }

    #[test]
    fn jump_and_search_nodes_split_by_field_width() {
        // tcp_ip: proto is 8-bit (jump), ports/addresses wider (search).
        let fw = fw_synth::Synthesizer::new(3).firewall(30);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let s = compiled.stats();
        assert!(s.jump_nodes > 0, "expected proto jump tables");
        assert!(s.search_nodes > 0, "expected wide-field search nodes");
        assert_eq!(s.nodes, s.terminals + s.search_nodes + s.jump_nodes);
        assert!(s.max_depth <= compiled.schema().len());
        assert!(s.arena_bytes >= s.nodes * std::mem::size_of::<NodeDesc>());
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

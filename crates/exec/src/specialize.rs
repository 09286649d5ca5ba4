//! Profile-guided re-lowering: the same FDD, re-compiled for the traffic
//! it actually serves.
//!
//! [`CompiledFdd::specialize`] takes a sampled [`Profile`] and builds a
//! [`SpecializedFdd`] — a second, machine-local image over the same
//! decision function, rewritten along four axes:
//!
//! * **Hot-first layout.** Spec nodes are emitted in decreasing visit
//!   order, so the handful of nodes a skewed trace actually walks share
//!   cache lines at the front of the arena and cold subtrees sit in the
//!   tail. (An empty profile degenerates to base order.)
//! * **Chain fusion.** Every internal node at even *height* (longest
//!   distance to a decision) absorbs its children: resolving the node
//!   yields either a finished decision or an inline *slot* — a copy of
//!   the child's descriptor whose own resolution lands two base levels
//!   down. Terminal children are pre-resolved to tagged decisions
//!   everywhere, and single-edge pass-through chains (which an unreduced
//!   input diagram can carry) are collapsed during target resolution.
//!   A walk therefore takes at most `ceil(max_depth / 2)` iterations —
//!   a strict shrink for any diagram of depth ≥ 2.
//! * **Quantized jump promotion.** Search nodes get a two-level table:
//!   the value's top `q` bits index a bucket whose bracket is
//!   *guaranteed* to span at most [`QLADDER`] cuts (`q` grows until
//!   every bucket honours that), so the batch kernel resolves any
//!   promoted node with one shift plus a fixed two-compare
//!   conditional-move ladder — no loop, no branch. Tables are handed
//!   out hottest-node-first from a fixed entry budget; pathologically
//!   clustered nodes keep the plain binary search.
//! * **Hot-cut-first hybrid search.** When a node's profile shows its
//!   top few cut spans absorbing most lookups, those spans are copied
//!   into a short linear-scan prefix tried before the (q)binary
//!   fallback — on a Zipf trace the entire hot path becomes a few
//!   predictable compares. A flat profile fails the concentration gate
//!   and leaves the node untouched, which is what keeps uniform traffic
//!   regression-free.
//!
//! The specialized image is a *serving-box* property, exactly like
//! calibration: it is never serialized (FWEX stays canonical — the
//! machine that decodes an image has its own traffic), never part of
//! image equality, and decision-identical to the base image on every
//! packet by construction — `tests/specialize_agree.rs` proves the
//! equivalence across engines, edits and adversarial profiles. The
//! calibrator races it like any other engine ([`crate::EngineKind::Spec`]),
//! so specialization can only ever change speed.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError};

use fw_model::{Decision, Schema};
use serde::{Deserialize, Serialize};

use crate::compile::{decision_from_u16, lower_bound, KIND_JUMP, KIND_TERMINAL};
use crate::profile::Profile;
use crate::{CompiledFdd, ExecError, PacketBatch};

/// High bit of a spec target: set means the low bits are a decision wire
/// code, clear means a node (or, under a fused node, slot) index.
const DECISION_BIT: u32 = 1 << 31;

const SK_SEARCH: u8 = 0;
const SK_QJUMP: u8 = 2;

/// Bucket-index bits are capped here (4097 table entries).
const QJUMP_MAX_BITS: u32 = 12;
/// Total quantized-table entries one specialization may allocate,
/// hottest node first (64 Ki entries = 256 KiB).
const QJUMP_BUDGET_ENTRIES: usize = 1 << 16;
/// Fixed search-window width of a quantized bucket: every bucket's
/// bracket is guaranteed to span at most this many cuts, so the lane
/// kernel resolves it with an unrolled two-compare conditional-move
/// ladder — no loop, no length, no branch.
const QLADDER: usize = 4;

/// Hot spans tried by linear scan before the binary-search fallback.
const HYBRID_MAX_HOT: usize = 4;

/// Lanes per level-synchronous chunk of the specialized batch kernel —
/// wide enough to overlap cache misses across packets, small enough for
/// the cursor array to stay in registers/L1.
const SPEC_LANE_WIDTH: usize = 32;

/// One re-lowered node (also the inline slot shape for fused children).
#[derive(Debug, Clone, Copy)]
struct SpecNode {
    kind: u8,
    /// Resolving this node yields slot indices (second level inline)
    /// instead of node indices. Always false for slots themselves.
    fused: bool,
    /// `SK_QJUMP` only: right-shift mapping a value to its bucket.
    shift: u8,
    field: u16,
    /// Offset into `cuts`/`targets`.
    off: u32,
    len: u32,
    /// `SK_QJUMP` only: offset of this node's `2^q + 1` bucket bounds in
    /// `qstarts`.
    aux: u32,
    hot_off: u32,
    hot_len: u32,
}

/// One hot-cut prefix entry: a domain span and its (node-result-space)
/// target.
#[derive(Debug, Clone, Copy)]
struct HotSpan {
    lo: u64,
    hi: u64,
    target: u32,
}

/// Descriptor flag: resolve through the quantized ladder.
const LD_QJUMP: u8 = 1;
/// Descriptor flag: a clear-tag resolution is an inline slot index.
const LD_FUSED: u8 = 1 << 1;

/// The 8-byte hot-loop view of a node or slot: exactly the fields the
/// lane kernel's ladder needs, so one cache line carries eight
/// descriptors and a pass touches a third of the bytes the full
/// [`SpecNode`] would cost. Parallel to `nodes`/`slots`; the full
/// descriptor is only dereferenced on the rare unbucketable fallback.
#[derive(Debug, Clone, Copy)]
struct LaneDesc {
    /// `qstarts` offset of the bucket table ([`LD_QJUMP`] only).
    aux: u32,
    field: u16,
    shift: u8,
    flags: u8,
}

impl LaneDesc {
    fn of(n: &SpecNode) -> LaneDesc {
        LaneDesc {
            aux: n.aux,
            field: n.field,
            shift: n.shift,
            flags: u8::from(n.kind == SK_QJUMP) * LD_QJUMP + u8::from(n.fused) * LD_FUSED,
        }
    }
}

/// What a specialization did, for reports, benches and the CLI.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecializePlan {
    /// Internal nodes in the specialized arena.
    pub nodes: usize,
    /// Nodes fused with their children (even height ≥ 2).
    pub fused: usize,
    /// Inline second-level slots emitted for fused nodes (deduplicated).
    pub slots: usize,
    /// Single-edge pass-through hops collapsed during target resolution.
    pub chains_collapsed: usize,
    /// Search nodes promoted to quantized jump tables.
    pub qjump_nodes: usize,
    /// Total quantized-table entries allocated.
    pub qjump_entries: usize,
    /// Nodes (and slots) given a hot-cut linear-scan prefix.
    pub hybrid_nodes: usize,
    /// Total hot-prefix entries.
    pub hot_entries: usize,
    /// Internal nodes whose arena position changed (hot-first layout).
    pub moved: usize,
    /// Base image `max_depth` (lookups per worst-case walk).
    pub depth_before: usize,
    /// Specialized worst-case walk iterations (each resolves 1–2 base
    /// levels).
    pub depth_after: usize,
    /// Bytes of the specialized arenas.
    pub bytes: usize,
}

impl std::fmt::Display for SpecializePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "specialization plan: {} nodes ({} moved by hot-first layout), {} bytes",
            self.nodes, self.moved, self.bytes
        )?;
        writeln!(
            f,
            "  chain fusion: {} fused nodes, {} inline slots, {} pass-through hops collapsed",
            self.fused, self.slots, self.chains_collapsed
        )?;
        writeln!(
            f,
            "  jump promotion: {} quantized tables ({} entries)",
            self.qjump_nodes, self.qjump_entries
        )?;
        writeln!(
            f,
            "  hybrid search: {} hot-prefixed nodes ({} hot spans)",
            self.hybrid_nodes, self.hot_entries
        )?;
        write!(
            f,
            "  depth: {} lookups -> {} iterations",
            self.depth_before, self.depth_after
        )
    }
}

/// A compiled image re-lowered under a traffic profile.
///
/// Built by [`CompiledFdd::specialize`]; decision-identical to its base
/// image on every packet. Never serialized, never part of image equality
/// — see the module docs for the full contract.
#[derive(Debug)]
pub struct SpecializedFdd {
    schema: Schema,
    /// Tagged: a whole-diagram decision, or the root node index.
    root: u32,
    nodes: Vec<SpecNode>,
    slots: Vec<SpecNode>,
    /// 8-byte kernel views parallel to `nodes` / `slots`.
    lane_nodes: Vec<LaneDesc>,
    lane_slots: Vec<LaneDesc>,
    cuts: Vec<u64>,
    /// Tagged targets parallel to `cuts`.
    targets: Vec<u32>,
    /// Bucket bounds for `SK_QJUMP` nodes (absolute `cuts` indices).
    qstarts: Vec<u32>,
    hot: Vec<HotSpan>,
    plan: SpecializePlan,
}

impl SpecializedFdd {
    /// Worst-case walk iterations (the specialized `max_depth`).
    pub fn max_depth(&self) -> usize {
        self.plan.depth_after
    }

    /// The plan this image was built under.
    pub fn plan(&self) -> &SpecializePlan {
        &self.plan
    }

    /// Resolves one node (or slot) against a field value, returning a
    /// tagged result in the node's result space.
    #[inline]
    fn resolve(&self, n: &SpecNode, v: u64) -> u32 {
        if n.hot_len > 0 {
            let ho = n.hot_off as usize;
            for e in &self.hot[ho..ho + n.hot_len as usize] {
                if e.lo <= v && v <= e.hi {
                    return e.target;
                }
            }
        }
        match n.kind {
            SK_QJUMP => {
                let qs = n.aux as usize + (v >> n.shift) as usize;
                let lo = self.qstarts[qs] as usize;
                let hi = self.qstarts[qs + 1] as usize;
                let i = lo + lower_bound(&self.cuts[lo..=hi], v);
                self.targets[i]
            }
            _ => {
                let off = n.off as usize;
                let len = n.len as usize;
                let i = lower_bound(&self.cuts[off..off + len], v);
                self.targets[off + i]
            }
        }
    }

    /// The branch-minimized resolve the lane kernel runs: quantized
    /// nodes take the fixed two-compare conditional-move ladder over
    /// their [`QLADDER`]-wide bracket (exact by the bracket guarantee in
    /// `Builder::bracket_for`), dense tables index directly, and the
    /// rare unbucketable node falls back to the full scalar resolve
    /// (hot spans included).
    #[inline(always)]
    fn resolve_lane(&self, d: LaneDesc, full: &SpecNode, v: u64) -> u32 {
        if d.flags & LD_QJUMP != 0 {
            let b = d.aux as usize + (v >> d.shift) as usize;
            let lo = self.qstarts[b] as usize;
            let c = &self.cuts[lo..lo + QLADDER];
            let mut pos = usize::from(c[1] < v) * 2;
            pos += usize::from(c[pos] < v);
            self.targets[lo + pos]
        } else {
            self.resolve_slow(full, v)
        }
    }

    /// Outlined scalar fallback for the rare unbucketable node, kept out
    /// of line so the lane loop's hot body stays small enough to
    /// schedule tightly (inlining the hot-span scan and binary search
    /// here measurably slows the ladder path).
    #[cold]
    #[inline(never)]
    fn resolve_slow(&self, n: &SpecNode, v: u64) -> u32 {
        self.resolve(n, v)
    }

    /// Resolves one node and, when it is fused and handed out an inline
    /// slot, the slot too — one walk iteration, 1–2 base levels. On
    /// skewed traffic the fused-ness branch tracks the handful of hot
    /// nodes and predicts well (a conditional-move variant that always
    /// double-resolves measured strictly slower).
    #[inline(always)]
    fn resolve_pair(&self, idx: usize, columns: &[Vec<u64>], j: usize) -> u32 {
        let d = self.lane_nodes[idx];
        let r = self.resolve_lane(d, &self.nodes[idx], columns[d.field as usize][j]);
        if d.flags & LD_FUSED != 0 && r & DECISION_BIT == 0 {
            let si = r as usize;
            let sd = self.lane_slots[si];
            self.resolve_lane(sd, &self.slots[si], columns[sd.field as usize][j])
        } else {
            r
        }
    }

    /// One level-synchronous chunk of up to [`SPEC_LANE_WIDTH`] packets:
    /// every lane holds a tagged cursor; `depth_after` uniform passes
    /// (the DP-verified worst-case iteration count) resolve 1–2 base
    /// levels per pass, so independent lanes overlap their cache misses
    /// instead of serializing them down one packet's walk. The first
    /// pass is hoisted — every lane starts at the root, so its
    /// descriptor is loop-invariant and there are no finished lanes
    /// yet. Later passes keep finished lanes branch-free: a done lane
    /// re-resolves the root as a throwaway and a conditional move
    /// carries its tagged decision through.
    fn lanes_span(&self, columns: &[Vec<u64>], start: usize, out: &mut [Decision]) {
        if self.root & DECISION_BIT != 0 {
            out.fill(decision_from_u16((self.root & !DECISION_BIT) as u16));
            return;
        }
        let total = out.len();
        let root = self.root as usize;
        let mut state = [0u32; SPEC_LANE_WIDTH];
        let mut s = 0usize;
        while s < total {
            let w = SPEC_LANE_WIDTH.min(total - s);
            let base = start + s;
            for (l, cursor) in state[..w].iter_mut().enumerate() {
                *cursor = self.resolve_pair(root, columns, base + l);
            }
            for _pass in 1..self.plan.depth_after {
                for (l, cursor) in state[..w].iter_mut().enumerate() {
                    let t = *cursor;
                    if t & DECISION_BIT != 0 {
                        continue;
                    }
                    *cursor = self.resolve_pair(t as usize, columns, base + l);
                }
            }
            for (cursor, slot) in state[..w].iter().zip(&mut out[s..s + w]) {
                debug_assert!(
                    cursor & DECISION_BIT != 0,
                    "spec lane stopped on an internal node after depth_after passes"
                );
                *slot = decision_from_u16((cursor & !DECISION_BIT) as u16);
            }
            s += w;
        }
    }

    /// Classifies one packet through the specialized walk. Single-packet
    /// verification surface — batch serving routes through the column
    /// kernels.
    pub fn classify(&self, packet: &fw_model::Packet) -> Decision {
        self.decide(packet.values())
    }

    /// The specialized walk over a value slice in schema order.
    #[inline]
    fn decide(&self, values: &[u64]) -> Decision {
        let mut t = self.root;
        while t & DECISION_BIT == 0 {
            let n = self.nodes[t as usize];
            let mut r = self.resolve(&n, values[n.field as usize]);
            if n.fused && r & DECISION_BIT == 0 {
                let s = self.slots[r as usize];
                r = self.resolve(&s, values[s.field as usize]);
            }
            t = r;
        }
        decision_from_u16((t & !DECISION_BIT) as u16)
    }

    fn check_schema(&self, batch: &PacketBatch) -> Result<(), ExecError> {
        if batch.schema() != &self.schema {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema.len(),
                found: batch.schema().len(),
            }));
        }
        Ok(())
    }

    /// Serial column classification through the level-synchronous
    /// specialized kernel.
    pub(crate) fn classify_columns_into(
        &self,
        batch: &PacketBatch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        self.check_schema(batch)?;
        out.clear();
        out.resize(batch.len(), Decision::Discard);
        self.lanes_span(batch.columns_raw(), 0, out);
        Ok(())
    }

    /// Sharded column classification: the batch is split into one
    /// contiguous span per worker, equal in length but for the last.
    pub(crate) fn classify_par_into(
        &self,
        batch: &PacketBatch,
        threads: usize,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        self.check_schema(batch)?;
        let threads = threads.clamp(1, batch.len().max(1));
        if threads <= 1 || batch.is_empty() {
            return self.classify_columns_into(batch, out);
        }
        let columns = batch.columns_raw();
        out.clear();
        out.resize(batch.len(), Decision::Discard);
        let chunk = batch.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (k, slice) in out.chunks_mut(chunk).enumerate() {
                let start = k * chunk;
                scope.spawn(move || {
                    self.lanes_span(columns, start, slice);
                });
            }
        });
        Ok(())
    }
}

/// Incremental state while re-lowering one image.
struct Builder<'a> {
    base: &'a CompiledFdd,
    profile: &'a Profile,
    /// Base internal node id -> spec node id (u32::MAX for terminals).
    map: Vec<u32>,
    nodes: Vec<SpecNode>,
    slots: Vec<SpecNode>,
    cuts: Vec<u64>,
    targets: Vec<u32>,
    qstarts: Vec<u32>,
    hot: Vec<HotSpan>,
    /// Base node id -> slot id, so fused parents share absorbed children.
    slot_memo: HashMap<u32, u32>,
    qjump_budget: usize,
    plan: SpecializePlan,
}

fn arena_u32(len: usize, what: &str) -> Result<u32, ExecError> {
    u32::try_from(len).map_err(|_| ExecError::Invariant(format!("{what} exceeds u32 indices")))
}

impl<'a> Builder<'a> {
    /// Follows single-edge pass-through nodes (a resolution that cannot
    /// depend on the packet) to the first branching node or terminal.
    fn collapse(&mut self, mut t: u32) -> u32 {
        loop {
            let n = self.base.nodes[t as usize];
            if n.kind == KIND_TERMINAL || n.len != 1 {
                return t;
            }
            t = if n.kind == KIND_JUMP {
                self.base.jump[n.off as usize]
            } else {
                self.base.cut_targets[n.off as usize]
            };
            self.plan.chains_collapsed += 1;
        }
    }

    /// Resolves a base target into the emitting node's result space:
    /// a tagged decision, an inline slot (fused parents), or a spec node.
    fn transform(&mut self, t: u32, fused: bool) -> Result<u32, ExecError> {
        let t = self.collapse(t);
        let n = self.base.nodes[t as usize];
        if n.kind == KIND_TERMINAL {
            return Ok(DECISION_BIT | u32::from(n.field));
        }
        if fused {
            return self.slot_for(t);
        }
        Ok(self.map[t as usize])
    }

    /// The inline slot absorbing base child `t` (internal, post-collapse),
    /// building it on first use.
    fn slot_for(&mut self, t: u32) -> Result<u32, ExecError> {
        if let Some(&s) = self.slot_memo.get(&t) {
            return Ok(s);
        }
        let desc = self.emit_descriptor(t as usize, false)?;
        let id = arena_u32(self.slots.len(), "slot arena")?;
        if id >= DECISION_BIT {
            return Err(ExecError::Invariant("slot arena exceeds tag space".into()));
        }
        self.slots.push(desc);
        self.slot_memo.insert(t, id);
        self.plan.slots += 1;
        Ok(id)
    }

    /// Re-lowers base internal node `b`. With `fused`, resolutions yield
    /// slots (or decisions); otherwise spec nodes (or decisions). Targets
    /// are transformed *before* any arena append, so recursive slot
    /// builds cannot interleave with this node's contiguous slices.
    fn emit_descriptor(&mut self, b: usize, fused: bool) -> Result<SpecNode, ExecError> {
        let n = self.base.nodes[b];
        let visits = self.profile.node_visits.get(b).copied().unwrap_or(0);
        let raw: Vec<u32> = if n.kind == KIND_JUMP {
            self.base.jump[n.off as usize..(n.off + n.len) as usize].to_vec()
        } else {
            self.base.cut_targets[n.off as usize..(n.off + n.len) as usize].to_vec()
        };
        let mut resolved = Vec::with_capacity(raw.len());
        for t in raw {
            resolved.push(self.transform(t, fused)?);
        }

        // Dense jump tables re-lower to the same bucketed-search shape as
        // everything else (a unit ramp of cuts quantizes perfectly), so a
        // fully promoted image runs one uniform dispatch-free kernel.
        let ramp: Vec<u64>;
        let base_cuts: &[u64] = if n.kind == KIND_JUMP {
            ramp = (0..u64::from(n.len)).collect();
            &ramp
        } else {
            &self.base.cuts[n.off as usize..(n.off + n.len) as usize]
        };
        let off = arena_u32(self.cuts.len(), "spec cut arena")?;
        self.cuts.extend_from_slice(base_cuts);
        self.targets.extend_from_slice(&resolved);
        // Ladder sentinels: the lane kernel reads a fixed QLADDER-wide
        // window at each bracket start, so every segment is padded past
        // its last cut — the sentinels sort above any value and are
        // never selected, and the duplicated target keeps even an
        // out-of-bracket landing harmless.
        self.cuts.extend(std::iter::repeat_n(u64::MAX, QLADDER - 1));
        let dup = *resolved
            .last()
            .expect("search nodes have at least one exit");
        self.targets.extend(std::iter::repeat_n(dup, QLADDER - 1));

        // Quantized jump promotion: hottest nodes claim tables first
        // (emission runs in decreasing visit order). Bucket resolution
        // must guarantee a bracket of at most `QLADDER` cuts so the lane
        // kernel's fixed two-compare ladder is exact — `q` grows until
        // every bucket honours that, or the node falls back to plain
        // search. Nodes of at most `QLADDER` cuts get the degenerate
        // single-bucket table (shift past the field width), which makes
        // the ladder near-universal on real policies.
        let bits = self
            .base
            .schema()
            .field(fw_model::FieldId(n.field as usize))
            .bits();
        let mut kind = SK_SEARCH;
        let mut shift = 0u8;
        let mut aux = 0u32;
        if bits < 64 {
            let bracket = if n.len as usize <= QLADDER {
                // One bucket covering the whole (tiny) cut slice.
                Some((bits, vec![0u32]))
            } else {
                self.bracket_for(base_cuts, bits)
            };
            if let Some((q_shift, firsts)) = bracket {
                let entries = firsts.len() + 1;
                if self.qjump_budget >= entries {
                    self.qjump_budget -= entries;
                    kind = SK_QJUMP;
                    shift = u8::try_from(q_shift).expect("field bits fit u8");
                    aux = arena_u32(self.qstarts.len(), "quantized-table arena")?;
                    for first in firsts {
                        self.qstarts.push(off + first);
                    }
                    // Closing bound: the last cut always covers the
                    // domain max.
                    self.qstarts.push(off + n.len - 1);
                    self.plan.qjump_nodes += 1;
                    self.plan.qjump_entries += entries;
                }
            }
        }

        // Hybrid hot-cut prefix, gated on concentration: only when the
        // top spans absorb most of this node's lookups (never on a flat
        // profile, so uniform traffic keeps the plain search).
        let mut hot_off = 0u32;
        let mut hot_len = 0u32;
        if visits > 0 && n.kind != KIND_JUMP && n.len as usize > HYBRID_MAX_HOT {
            let hits = &self.profile.cut_hits[n.off as usize..(n.off + n.len) as usize];
            let mut order: Vec<usize> = (0..hits.len()).filter(|&j| hits[j] > 0).collect();
            order.sort_by_key(|&j| (std::cmp::Reverse(hits[j]), j));
            order.truncate(HYBRID_MAX_HOT);
            let covered: u64 = order.iter().map(|&j| hits[j]).sum();
            if covered * 2 >= visits && !order.is_empty() {
                hot_off = arena_u32(self.hot.len(), "hot-span arena")?;
                for &j in &order {
                    self.hot.push(HotSpan {
                        lo: if j == 0 { 0 } else { base_cuts[j - 1] + 1 },
                        hi: base_cuts[j],
                        target: resolved[j],
                    });
                }
                hot_len = u32::try_from(order.len()).expect("<= HYBRID_MAX_HOT");
                self.plan.hybrid_nodes += 1;
                self.plan.hot_entries += order.len();
            }
        }

        Ok(SpecNode {
            kind,
            fused,
            shift,
            field: n.field,
            off,
            len: n.len,
            aux,
            hot_off,
            hot_len,
        })
    }

    /// Smallest quantization (returned as the value right-shift and the
    /// per-bucket first-cut indices) whose every bucket brackets at most
    /// [`QLADDER`] cuts — or `None` when no table within
    /// [`QJUMP_MAX_BITS`] can honour the ladder guarantee (pathologically
    /// clustered cuts).
    fn bracket_for(&self, cuts: &[u64], bits: u32) -> Option<(u32, Vec<u32>)> {
        let cap = QJUMP_MAX_BITS.min(bits);
        let mut q = u32::max(1, usize::BITS - (cuts.len() / QLADDER).leading_zeros());
        while q <= cap {
            let shift = bits - q;
            let mut firsts = Vec::with_capacity(1usize << q);
            let mut prev = 0usize;
            let mut ok = true;
            for b in 0..(1u64 << q) {
                let first = lower_bound(cuts, b << shift);
                if b > 0 && first - prev >= QLADDER {
                    ok = false;
                    break;
                }
                firsts.push(u32::try_from(first).expect("cut slice fits u32"));
                prev = first;
            }
            if ok && (cuts.len() - 1) - prev < QLADDER {
                return Some((shift, firsts));
            }
            q += 1;
        }
        None
    }
}

impl SpecializedFdd {
    /// Re-lowers `base` under `profile`. See the module docs for the four
    /// transformations; an all-zero profile still fuses and collapses but
    /// applies no traffic-dependent rewrites.
    fn build(base: &CompiledFdd, profile: &Profile) -> Result<SpecializedFdd, ExecError> {
        if profile.node_visits.len() != base.nodes.len()
            || profile.cut_hits.len() != base.cuts.len()
        {
            return Err(ExecError::Batch(
                "profile was sized for a different image".into(),
            ));
        }
        // Heights: longest distance to a decision, the same DP as
        // `compute_stats` (targets always test strictly later fields).
        let mut order: Vec<usize> = (0..base.nodes.len()).collect();
        order.sort_unstable_by_key(|&i| {
            std::cmp::Reverse(if base.nodes[i].kind == KIND_TERMINAL {
                usize::MAX
            } else {
                base.nodes[i].field as usize
            })
        });
        let mut height = vec![0u32; base.nodes.len()];
        for &i in &order {
            let n = base.nodes[i];
            let targets: &[u32] = match n.kind {
                KIND_TERMINAL => &[],
                KIND_JUMP => &base.jump[n.off as usize..(n.off + n.len) as usize],
                _ => &base.cut_targets[n.off as usize..(n.off + n.len) as usize],
            };
            height[i] = targets
                .iter()
                .map(|&t| height[t as usize] + 1)
                .max()
                .unwrap_or(0);
        }

        // Hot-first layout: internal nodes in decreasing visit order
        // (stable on ties and on an empty profile).
        let mut internals: Vec<usize> = (0..base.nodes.len())
            .filter(|&i| base.nodes[i].kind != KIND_TERMINAL)
            .collect();
        let base_order = internals.clone();
        internals.sort_by_key(|&i| {
            (
                std::cmp::Reverse(profile.node_visits.get(i).copied().unwrap_or(0)),
                i,
            )
        });
        if internals.len() >= DECISION_BIT as usize {
            return Err(ExecError::Invariant("image exceeds spec tag space".into()));
        }
        let mut map = vec![u32::MAX; base.nodes.len()];
        for (spec_id, &b) in internals.iter().enumerate() {
            map[b] = u32::try_from(spec_id).expect("checked against DECISION_BIT");
        }

        let mut builder = Builder {
            base,
            profile,
            map,
            nodes: Vec::with_capacity(internals.len()),
            slots: Vec::new(),
            cuts: Vec::new(),
            targets: Vec::new(),
            qstarts: Vec::new(),
            hot: Vec::new(),
            slot_memo: HashMap::new(),
            qjump_budget: QJUMP_BUDGET_ENTRIES,
            plan: SpecializePlan {
                depth_before: base.stats.max_depth,
                moved: base_order
                    .iter()
                    .zip(&internals)
                    .filter(|(a, b)| a != b)
                    .count(),
                ..SpecializePlan::default()
            },
        };
        for &b in &internals {
            let fused = height[b] >= 2 && height[b].is_multiple_of(2);
            if fused {
                builder.plan.fused += 1;
            }
            let desc = builder.emit_descriptor(b, fused)?;
            builder.nodes.push(desc);
        }
        let root = builder.transform(base.root, false)?;

        let Builder {
            nodes,
            slots,
            cuts,
            targets,
            qstarts,
            hot,
            mut plan,
            ..
        } = builder;
        plan.nodes = nodes.len();
        let lane_nodes: Vec<LaneDesc> = nodes.iter().map(LaneDesc::of).collect();
        let lane_slots: Vec<LaneDesc> = slots.iter().map(LaneDesc::of).collect();
        plan.bytes = nodes.len() * std::mem::size_of::<SpecNode>()
            + slots.len() * std::mem::size_of::<SpecNode>()
            + (lane_nodes.len() + lane_slots.len()) * std::mem::size_of::<LaneDesc>()
            + cuts.len() * 8
            + targets.len() * 4
            + qstarts.len() * 4
            + hot.len() * std::mem::size_of::<HotSpan>();

        let spec = SpecializedFdd {
            schema: base.schema().clone(),
            root,
            nodes,
            slots,
            lane_nodes,
            lane_slots,
            cuts,
            targets,
            qstarts,
            hot,
            plan,
        };
        Ok(SpecializedFdd {
            plan: SpecializePlan {
                depth_after: spec.compute_depth(),
                ..spec.plan.clone()
            },
            ..spec
        })
    }

    /// Worst-case walk iterations by DP in decreasing field order: every
    /// exit of a node tests a strictly later field (ordered-FDD property,
    /// preserved through fusion — a slot's exits sit below the slot).
    fn compute_depth(&self) -> usize {
        if self.root & DECISION_BIT != 0 {
            return 0;
        }
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(self.nodes[i].field));
        let mut depth = vec![0u32; self.nodes.len()];
        for &i in &order {
            let mut deepest = 0u32;
            self.for_each_exit(&self.nodes[i], &mut |t| {
                if t & DECISION_BIT == 0 {
                    deepest = deepest.max(depth[t as usize]);
                }
            });
            depth[i] = deepest + 1;
        }
        depth[self.root as usize] as usize
    }

    /// Visits every tagged node-or-decision exit one walk iteration at
    /// node `n` can produce (slot resolutions included for fused nodes).
    fn for_each_exit(&self, n: &SpecNode, f: &mut impl FnMut(u32)) {
        let primary = &self.targets[n.off as usize..(n.off + n.len) as usize];
        for &t in primary {
            if n.fused && t & DECISION_BIT == 0 {
                let s = self.slots[t as usize];
                let inner = &self.targets[s.off as usize..(s.off + s.len) as usize];
                for &g in inner {
                    f(g);
                }
            } else {
                f(t);
            }
        }
    }
}

fn lock_spec(
    slot: &std::sync::RwLock<Option<Arc<SpecializedFdd>>>,
) -> std::sync::RwLockReadGuard<'_, Option<Arc<SpecializedFdd>>> {
    slot.read().unwrap_or_else(PoisonError::into_inner)
}

impl CompiledFdd {
    /// Re-lowers this image under `profile` and installs the result as
    /// the image's specialized twin, returning the plan. The twin is
    /// interior-mutable state shared by every holder of this image's
    /// `Arc` — installing it makes [`crate::EngineKind::Spec`] live for
    /// all of them at once (the live matcher's background
    /// re-specialization relies on exactly that).
    ///
    /// # Errors
    ///
    /// [`ExecError::Batch`] if `profile` was sized for a different image;
    /// [`ExecError::Invariant`] if the image overflows the spec index
    /// space (not reachable for images that compiled successfully).
    pub fn specialize(&self, profile: &Profile) -> Result<SpecializePlan, ExecError> {
        let spec = SpecializedFdd::build(self, profile)?;
        let plan = spec.plan.clone();
        *self.spec.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(spec));
        Ok(plan)
    }

    /// The installed specialized twin, if any.
    pub fn spec(&self) -> Option<Arc<SpecializedFdd>> {
        lock_spec(&self.spec).clone()
    }

    /// Uninstalls the specialized twin; [`crate::EngineKind::Spec`]
    /// choices then serve through the lane kernel.
    pub fn clear_spec(&self) {
        *self.spec.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    fn image_profile_batch(
        seed: u64,
        rules: usize,
        n: usize,
    ) -> (CompiledFdd, Profile, PacketBatch) {
        let fw = fw_synth::Synthesizer::new(seed).firewall(rules);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::zipf(&fw, n, 1.1, seed + 1, seed + 2);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let mut profile = Profile::new_for(&compiled);
        let mut out = Vec::new();
        compiled
            .classify_profiled_into(&batch, &mut profile, &mut out)
            .unwrap();
        (compiled, profile, batch)
    }

    #[test]
    fn specialized_agrees_and_shrinks_depth() {
        let (compiled, profile, batch) = image_profile_batch(5, 60, 2_000);
        let plan = compiled.specialize(&profile).unwrap();
        let spec = compiled.spec().unwrap();
        assert_eq!(plan.depth_before, compiled.stats().max_depth);
        assert_eq!(plan.depth_after, spec.max_depth());
        if plan.depth_before >= 2 {
            assert!(
                plan.depth_after < plan.depth_before,
                "fusion must strictly shrink depth ({} -> {})",
                plan.depth_before,
                plan.depth_after
            );
            assert!(plan.depth_after <= plan.depth_before.div_ceil(2));
        }
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut out = Vec::new();
        spec.classify_columns_into(&batch, &mut out).unwrap();
        assert_eq!(out, expect, "serial spec walk");
        spec.classify_par_into(&batch, 4, &mut out).unwrap();
        assert_eq!(out, expect, "sharded spec walk");
        for i in 0..64.min(batch.len()) {
            let p = batch.packet(i);
            assert_eq!(spec.decide(p.values()), compiled.classify(&p));
        }
    }

    #[test]
    fn empty_profile_specializes_without_traffic_rewrites() {
        let (compiled, _, batch) = image_profile_batch(9, 40, 500);
        let plan = compiled.specialize(&Profile::new_for(&compiled)).unwrap();
        assert_eq!(plan.hybrid_nodes, 0, "no heat, no hybrid prefixes");
        assert!(
            plan.qjump_nodes > 0,
            "bucketing is structural, not heat-driven: {plan}"
        );
        assert_eq!(plan.moved, 0, "flat profile keeps base order");
        let spec = compiled.spec().unwrap();
        let mut out = Vec::new();
        spec.classify_columns_into(&batch, &mut out).unwrap();
        assert_eq!(out, compiled.classify_columns(&batch).unwrap());
    }

    #[test]
    fn skewed_profile_engages_hybrid_and_layout() {
        let (compiled, profile, _) = image_profile_batch(21, 300, 6_000);
        let plan = compiled.specialize(&profile).unwrap();
        assert!(
            plan.hybrid_nodes > 0,
            "a zipf trace must concentrate enough for hot prefixes: {plan}"
        );
        assert!(plan.moved > 0, "hot-first layout must reorder something");
    }

    #[test]
    fn adversarial_profile_stays_exact() {
        // Profile gathered on trace A, served trace B: heat is wrong,
        // decisions must not be.
        let (compiled, profile, _) = image_profile_batch(33, 80, 3_000);
        compiled.specialize(&profile).unwrap();
        let spec = compiled.spec().unwrap();
        let fw = fw_synth::Synthesizer::new(33).firewall(80);
        let other = fw_synth::PacketTrace::random(fw.schema().clone(), 2_000, 999);
        let batch = PacketBatch::from_trace(fw.schema().clone(), other.packets()).unwrap();
        let mut out = Vec::new();
        spec.classify_columns_into(&batch, &mut out).unwrap();
        assert_eq!(out, compiled.classify_columns(&batch).unwrap());
    }

    #[test]
    fn install_is_shared_clear_uninstalls() {
        let (compiled, profile, _) = image_profile_batch(7, 30, 400);
        let arc = std::sync::Arc::new(compiled);
        let other = std::sync::Arc::clone(&arc);
        assert!(arc.spec().is_none());
        arc.specialize(&profile).unwrap();
        assert!(other.spec().is_some(), "install visible through every Arc");
        arc.clear_spec();
        assert!(other.spec().is_none());
    }

    #[test]
    fn rejects_mismatched_profile() {
        let (compiled, _, _) = image_profile_batch(3, 20, 100);
        assert!(matches!(
            compiled.specialize(&Profile::default()),
            Err(ExecError::Batch(_))
        ));
    }
}

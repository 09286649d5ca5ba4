//! Cross-image shared compilation: one compiled node pool for many roots.
//!
//! [`crate::CompiledFdd`] is the right shape for *one* policy: a private
//! BFS-ordered arena with its own lane kernel. A fleet of
//! thousands of near-identical policies wants the opposite layout — one
//! pool of compiled nodes keyed by the **canonical** [`fw_core::ConsId`]
//! of the subfunction they compute, so a subtree shared by any number of
//! tenants is lowered exactly once and every image that contains it is
//! just a root index. The registry's shared [`fw_core::ConsArena`] makes
//! the dedup sound: equal id ⟺ equal function, so reusing a compiled node
//! across images can never change a classification.
//!
//! [`SubgraphPool::ensure`] lowers each new node once, straight into the
//! lane kernel's node shape (`kernel.rs`):
//!
//! * **Tagged targets.** An exit is a node id, or a decision with
//!   [`DECISION_BIT`] set, so a walk never visits a terminal. A policy of
//!   one decision is a tagged root.
//! * **Cuts only, each beside its target.** A node keeps one cut per
//!   canonical edge interval, a run of equal targets, as an image node
//!   does. On a field of at most 32 bits an entry packs the cut
//!   above its target in one `u64`: comparing the entry with the value
//!   shifted up compares the cut, and the target shares the cache line of
//!   the last cut read. A wider field's node holds its cuts, then its
//!   targets.
//! * **Ladders under a size rule.** A node of a field of at most 32 bits
//!   whose cuts admit a [`QLADDER`]-cut ladder (the kernel's
//!   `ladder_shift`) gets one when its bucket table holds at most
//!   [`TABLE_ENTRIES_PER_CUT`] entries per cut; a node of up to
//!   [`QLADDER`] cuts needs one bucket and always does. A bucket entry is
//!   the offset of its bracket in the node's own entries, filled by the
//!   kernel's `bucket_runs`, so it fits in a byte; the table sits right
//!   before the node's entries, eight buckets to a word, and every
//!   one-bucket ladder shares the pool's first word. A per-node rule
//!   stands in for the kernel's per-image budget: it holds as the pool
//!   grows root by root, and it keeps tables for the nodes whose cuts
//!   spread over their field.
//! * **Clamped search elsewhere.** The remaining nodes (fields over 32
//!   bits, cuts clustered too tightly, tables over the rule) run the
//!   halving search over a virtual power of two, each probe clamped to the
//!   node's last cut, so no pad is stored.
//!
//! [`SubgraphPool::classify_columns_into`] then runs the kernel's
//! schedule: [`DEFAULT_LANE_WIDTH`] packets advance one node per pass
//! until every lane holds a decision, so the lanes overlap their loads
//! instead of serializing them down one packet's walk. The scalar
//! [`SubgraphPool::classify`] walks the same arrays, and the cached path
//! ([`SubgraphPool::classify_cached_into`]) serves its misses through the
//! batch path. Chain fusion stays with the image kernel: a pool node is
//! shared by images of different depths, so it has no one parity.

use fw_core::{ConsArena, ConsId, ConsView, FxMap};
use fw_model::{Decision, FieldId, Packet, Schema};

use crate::batch::PacketBatch;
use crate::compile::{decision_from_u16, verify_partition};
use crate::kernel::{bucket_runs, ladder_shift, DECISION_BIT, QLADDER};
use crate::{ExecError, DEFAULT_LANE_WIDTH};

/// The most bucket-table entries a ladder may take per cut of its node.
const TABLE_ENTRIES_PER_CUT: usize = 16;

/// The most cuts a ladder may have past one bucket: its bracket starts,
/// offsets below its second-to-last cut, then fit in a byte.
const LADDER_MAX_CUTS: usize = u8::MAX as usize + 2;

/// The widest field whose entries pack a cut above its target.
const PACKED_MAX_BITS: u32 = 32;

/// Node flag: resolve through the ladder, else the clamped search.
const LADDER: u8 = 1;
/// Node flag: the field is too wide to pack, so the node's entries hold
/// its cuts, then its targets.
const SPLIT: u8 = 1 << 1;

/// A `ConsId` the pool has not compiled.
const ABSENT: u32 = u32::MAX;

/// Trip-count parameter of the lane loop that reads each search node's
/// trip count from the node instead.
const NODE_TRIPS: u32 = u32::MAX;

/// One compiled internal node: twelve bytes.
#[derive(Debug, Clone, Copy)]
struct PoolNode {
    /// The node's first entry in `entries`.
    off: u32,
    /// [`LADDER`]: the first word of its bucket table in `entries`.
    /// Otherwise: its cut count.
    aux: u32,
    field: u16,
    /// [`LADDER`]: right shift from a value to its bucket. Otherwise: the
    /// search's trip count, `ceil(log2(cuts))`.
    shift: u8,
    flags: u8,
}

/// The decision a tagged target carries.
#[inline]
fn decision_of(tagged: u32) -> Decision {
    decision_from_u16((tagged & !DECISION_BIT) as u16)
}

/// A pool of compiled FDD nodes shared across any number of roots (see
/// module docs). A root is the tagged target [`ensure`](SubgraphPool::ensure)
/// returns: a node index, or the decision of a policy that needs no test.
/// A "compiled image" for one policy is nothing but such a root.
#[derive(Debug, Clone)]
pub struct SubgraphPool {
    schema: Schema,
    /// Internal nodes, each after every node it reaches.
    nodes: Vec<PoolNode>,
    /// Each node's cuts, sorted and ending at the field's domain max, with
    /// their tagged targets: packed as `cut << 32 | target`, or (a
    /// [`SPLIT`] node) the cuts followed by the targets. A multi-bucket
    /// ladder's table precedes its entries; word 0 is the table of every
    /// one-bucket ladder.
    entries: Vec<u64>,
    /// The dedup map, dense by [`ConsId::index`]: canonical subfunction →
    /// its tagged target, [`ABSENT`] where none is compiled.
    ids: Vec<u32>,
    /// Terminals compiled: a terminal takes no node, since targets carry
    /// their decisions, but it counts as one compiled node.
    terminals: usize,
    /// The widest search node's trip count (0 while there is none).
    search_bits: u32,
}

impl SubgraphPool {
    /// An empty pool over `schema`.
    pub fn new(schema: Schema) -> SubgraphPool {
        SubgraphPool {
            schema,
            nodes: Vec::new(),
            entries: vec![0],
            ids: Vec::new(),
            terminals: 0,
            search_bits: 0,
        }
    }

    /// The schema every diagram in this pool ranges over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total compiled nodes across every image in the pool, terminals
    /// included.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.terminals
    }

    /// Compiles the subgraph of `arena` rooted at `root` into the pool and
    /// returns its root. Every sub-`ConsId` already compiled — by
    /// this call, an earlier root, or another tenant entirely — is reused
    /// by index; only genuinely new subfunctions emit nodes. Calling twice
    /// with the same root is free and returns the same root.
    ///
    /// # Errors
    ///
    /// [`ExecError::Invariant`] if `arena` is on a different schema, the
    /// diagram reaches the unmatched sentinel (serve only comprehensive
    /// policies), a node's edges fail the domain-partition check, or the
    /// pool outgrows `u32` offsets or 2^31 nodes.
    pub fn ensure(&mut self, arena: &ConsArena, root: ConsId) -> Result<u32, ExecError> {
        if arena.schema() != &self.schema {
            return Err(ExecError::Invariant(
                "subgraph pool and arena schemas differ".into(),
            ));
        }
        self.ensure_rec(arena, root)
    }

    // Depth is bounded by the schema's field count, so plain recursion is
    // safe here (as in the arena's own walks).
    fn ensure_rec(&mut self, arena: &ConsArena, id: ConsId) -> Result<u32, ExecError> {
        if let Some(&t) = self.ids.get(id.index()) {
            if t != ABSENT {
                return Ok(t);
            }
        }
        let t = match arena.view(id) {
            ConsView::Terminal(Some(d)) => {
                self.terminals += 1;
                DECISION_BIT | u32::from(d.code())
            }
            ConsView::Terminal(None) => {
                return Err(ExecError::Invariant(
                    "subgraph pool cannot compile a non-comprehensive diagram \
                     (unmatched sentinel reachable)"
                        .into(),
                ));
            }
            ConsView::Internal { field, edges } => {
                let mut spans: Vec<(u64, u64, u32)> = Vec::new();
                for (set, child) in edges {
                    let t = self.ensure_rec(arena, child)?;
                    for iv in set.iter() {
                        spans.push((iv.lo(), iv.hi(), t));
                    }
                }
                verify_partition(&self.schema, format!("{id:?}"), field, &mut spans)?;
                self.lower(field, &spans)?
            }
        };
        if self.ids.len() <= id.index() {
            self.ids.resize(id.index() + 1, ABSENT);
        }
        self.ids[id.index()] = t;
        Ok(t)
    }

    /// Appends one internal node from its verified domain-partition spans
    /// (targets already tagged) and returns its index.
    fn lower(&mut self, field: FieldId, spans: &[(u64, u64, u32)]) -> Result<u32, ExecError> {
        let invariant = |m: &str| ExecError::Invariant(format!("subgraph pool exceeds {m}"));
        let n = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&n| n < DECISION_BIT)
            .ok_or_else(|| invariant("2^31 nodes"))?;
        let off = u32::try_from(self.entries.len()).map_err(|_| invariant("u32 offsets"))?;
        let fidx = u16::try_from(field.index()).map_err(|_| invariant("u16 field indices"))?;
        // The arena's edges are canonical, so each span is already a whole
        // run of equal targets and its upper bound is a cut.
        let cuts: Vec<u64> = spans.iter().map(|s| s.1).collect();
        let len = cuts.len();
        let bits = self.schema.field(field).bits();
        let shift = match len {
            _ if bits > PACKED_MAX_BITS => None,
            len if len <= QLADDER => Some(bits),
            len if len > LADDER_MAX_CUTS => None,
            _ => ladder_shift(&cuts, bits)
                .filter(|&s| 1usize << (bits - s) <= TABLE_ENTRIES_PER_CUT * len),
        };
        let node = match shift {
            Some(shift) => {
                let aux = if len <= QLADDER {
                    0
                } else {
                    // The table goes right before the node's entries, eight
                    // bucket bytes to a word. A bracket that starts at the
                    // last cut would read past it. One cut earlier resolves
                    // the same: every value in such a bucket lies above the
                    // second-to-last cut.
                    let aux = off;
                    let mut table = Vec::with_capacity(len * TABLE_ENTRIES_PER_CUT);
                    for (i, run) in bucket_runs(&cuts, shift) {
                        let first = u8::try_from(i.min(len - 2)).expect("LADDER_MAX_CUTS");
                        table.extend(std::iter::repeat_n(first, run));
                    }
                    self.entries.extend(table.chunks(8).map(|w| {
                        let mut word = [0u8; 8];
                        word[..w.len()].copy_from_slice(w);
                        u64::from_le_bytes(word)
                    }));
                    aux
                };
                PoolNode {
                    off: u32::try_from(self.entries.len()).map_err(|_| invariant("u32 offsets"))?,
                    aux,
                    field: fidx,
                    shift: u8::try_from(shift).expect("field bits fit u8"),
                    flags: LADDER,
                }
            }
            None => {
                let trips = usize::BITS - (len - 1).leading_zeros();
                self.search_bits = self.search_bits.max(trips);
                PoolNode {
                    off,
                    aux: u32::try_from(len).map_err(|_| invariant("u32 cuts per node"))?,
                    field: fidx,
                    shift: u8::try_from(trips).expect("trip count fits u8"),
                    flags: if bits > PACKED_MAX_BITS { SPLIT } else { 0 },
                }
            }
        };
        if bits > PACKED_MAX_BITS {
            self.entries.extend_from_slice(&cuts);
            self.entries.extend(spans.iter().map(|s| u64::from(s.2)));
        } else {
            let packed = spans.iter().map(|&(_, hi, t)| (hi << 32) | u64::from(t));
            self.entries.extend(packed);
        }
        self.nodes.push(node);
        Ok(n)
    }

    /// Rewrites the dedup map's keys through a compaction map from
    /// [`ConsArena::compact_mapped`]. Entries whose `ConsId` was not
    /// retained are dropped from the *map* only — their compiled nodes
    /// stay in the pool (harmless garbage until the owner decides to
    /// rebuild), so every previously returned root keeps working.
    pub fn remap_keys(&mut self, map: &FxMap<ConsId, ConsId>) {
        let mut ids = Vec::new();
        for (old, new) in map {
            let t = self.ids.get(old.index()).copied().unwrap_or(ABSENT);
            if t == ABSENT {
                continue;
            }
            if ids.len() <= new.index() {
                ids.resize(new.index() + 1, ABSENT);
            }
            ids[new.index()] = t;
        }
        self.ids = ids;
    }

    /// One step from node `n` on its field's value `v`: the tagged target
    /// the value lands on. A search takes `TRIPS` halvings ([`NODE_TRIPS`]:
    /// the node's own count), at least the node's own. `v` must lie in the
    /// field's domain; a value past it reads another node's entries.
    #[inline(always)]
    fn resolve<const TRIPS: u32>(&self, n: PoolNode, v: u64) -> u32 {
        let off = n.off as usize;
        let e = &self.entries;
        if n.flags & LADDER != 0 {
            // The kernel's two-compare ladder on packed entries. The
            // bracket's second entry is always the node's own; the third
            // is read only when the answer lies at or past it.
            let key = v << 32;
            let lo = off + self.bracket(n, (v >> n.shift) as usize);
            let mut i = lo + usize::from(e[lo + 1] < key) * 2;
            i += usize::from(e[i] < key);
            return e[i] as u32;
        }
        // Branchless halving over a virtual power of two whose tail
        // repeats the last cut, the domain max, which no value exceeds: a
        // clamped probe reads what a stored pad would hold.
        let len = n.aux as usize;
        let split = n.flags & SPLIT != 0;
        let key = if split { v } else { v << 32 };
        let trips = if TRIPS == NODE_TRIPS {
            u32::from(n.shift)
        } else {
            TRIPS
        };
        let c = &e[off..off + len];
        let mut pos = 0usize;
        for i in 0..trips {
            let half = 1usize << (trips - 1 - i);
            pos += usize::from(c[(pos + half - 1).min(len - 1)] < key) * half;
        }
        e[off + pos + if split { len } else { 0 }] as u32
    }

    /// Where bucket `b`'s bracket starts in ladder `n`'s entries.
    #[inline(always)]
    fn bracket(&self, n: PoolNode, b: usize) -> usize {
        let word = self.entries[n.aux as usize + b / 8];
        usize::from(word.to_le_bytes()[b % 8])
    }

    /// The matcher's inner loop from `root` over a value slice in schema
    /// order.
    #[inline]
    fn decide(&self, root: u32, values: &[u64]) -> Decision {
        let mut t = root;
        while t & DECISION_BIT == 0 {
            let n = self.nodes[t as usize];
            t = self.resolve::<NODE_TRIPS>(n, values[n.field as usize]);
        }
        decision_of(t)
    }

    /// Classifies one packet against the image rooted at `root` (a root
    /// from [`ensure`](SubgraphPool::ensure)).
    ///
    /// # Panics
    ///
    /// Panics if the packet has the wrong arity or a value outside its
    /// field's domain (the message names the field), or (by index) if
    /// `root` is not one this pool returned; use
    /// [`try_classify`](Self::try_classify) for untrusted input.
    pub fn classify(&self, root: u32, packet: &Packet) -> Decision {
        self.try_classify(root, packet)
            .unwrap_or_else(|e| panic!("SubgraphPool::classify: {e}"))
    }

    /// Classifies one packet after validating it against the schema.
    ///
    /// # Errors
    ///
    /// [`ExecError::Model`] for wrong arity or out-of-domain values.
    pub fn try_classify(&self, root: u32, packet: &Packet) -> Result<Decision, ExecError> {
        packet.validate(&self.schema)?;
        Ok(self.decide(root, packet.values()))
    }

    /// Classifies every packet of a field-major batch against the image
    /// rooted at `root`, appending decisions in packet order to `out`
    /// (cleared first). [`DEFAULT_LANE_WIDTH`] packets are in flight at a
    /// time, each chunk's cursors on the stack, so a serving loop that
    /// reuses `out` allocates nothing per batch.
    ///
    /// # Errors
    ///
    /// [`ExecError::Model`] if the batch was built over a different
    /// schema.
    pub fn classify_columns_into(
        &self,
        root: u32,
        batch: &PacketBatch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != &self.schema {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema.len(),
                found: batch.schema().len(),
            }));
        }
        out.clear();
        if root & DECISION_BIT != 0 {
            out.resize(batch.len(), decision_of(root));
            return Ok(());
        }
        out.resize(batch.len(), Decision::Discard);
        // Monomorphise on the trip count so the halving unrolls, up to
        // 2^8 cuts.
        let columns = batch.columns_raw();
        match self.search_bits {
            0..=1 => self.lanes::<1>(root, columns, out),
            2 => self.lanes::<2>(root, columns, out),
            3 => self.lanes::<3>(root, columns, out),
            4 => self.lanes::<4>(root, columns, out),
            5 => self.lanes::<5>(root, columns, out),
            6 => self.lanes::<6>(root, columns, out),
            7 => self.lanes::<7>(root, columns, out),
            8 => self.lanes::<8>(root, columns, out),
            _ => self.lanes::<NODE_TRIPS>(root, columns, out),
        }
        Ok(())
    }

    /// The kernel's schedule from internal node `root`: every lane of a
    /// chunk holds a tagged cursor and advances one node per pass until
    /// all of them hold decisions.
    fn lanes<const TRIPS: u32>(&self, root: u32, columns: &[Vec<u64>], out: &mut [Decision]) {
        let step = |t: u32, j: usize| {
            let n = self.nodes[t as usize];
            self.resolve::<TRIPS>(n, columns[n.field as usize][j])
        };
        let mut state = [0u32; DEFAULT_LANE_WIDTH];
        for (c, chunk) in out.chunks_mut(DEFAULT_LANE_WIDTH).enumerate() {
            let base = c * DEFAULT_LANE_WIDTH;
            let lanes = &mut state[..chunk.len()];
            // Every lane starts at the root; `live` keeps the tag bit of
            // any lane still on a node.
            let mut live = 0u32;
            for (l, cursor) in lanes.iter_mut().enumerate() {
                *cursor = step(root, base + l);
                live |= !*cursor;
            }
            while live & DECISION_BIT != 0 {
                live = 0;
                for (l, cursor) in lanes.iter_mut().enumerate() {
                    if *cursor & DECISION_BIT == 0 {
                        *cursor = step(*cursor, base + l);
                        live |= !*cursor;
                    }
                }
            }
            for (cursor, slot) in lanes.iter().zip(chunk) {
                *slot = decision_of(*cursor);
            }
        }
    }

    /// [`classify_columns_into`](Self::classify_columns_into) behind a
    /// [`crate::DecisionCache`] front end, entries keyed by this image's
    /// root index as the cache tag. A pool root index names one canonical
    /// subfunction (`ConsId`) for the pool's lifetime —
    /// [`ensure`](SubgraphPool::ensure) returns the existing index for an
    /// equal function and a fresh monotone index otherwise — so tenants dedup'd
    /// onto the same root *share* hot entries while distinct roots never
    /// collide. The one operation that breaks the mapping is a pool
    /// rebuild (indices restart from zero): the owner must epoch-bump the
    /// cache there, which the fleet registry does.
    ///
    /// # Errors
    ///
    /// [`ExecError::Model`] if the batch was built over a different
    /// schema; [`ExecError::Invariant`] if the cache was.
    pub fn classify_cached_into(
        &self,
        root: u32,
        batch: &PacketBatch,
        cache: &mut crate::DecisionCache,
        scratch: &mut crate::CacheScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != &self.schema {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema.len(),
                found: batch.schema().len(),
            }));
        }
        if cache.schema() != &self.schema {
            return Err(ExecError::Invariant(
                "decision cache and subgraph pool schemas differ".into(),
            ));
        }
        crate::cache::classify_cached_with(
            cache,
            u64::from(root),
            batch,
            scratch,
            out,
            |miss, miss_out| self.classify_columns_into(root, miss, miss_out),
        )
    }

    /// Compiled nodes reachable from `root`, terminals included — what this
    /// image would cost *standalone*; the difference against the nodes it
    /// actually added is the structural-sharing win.
    pub fn reachable(&self, root: u32) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut decisions = [false; 1 << 8];
        let mut count = 0usize;
        let mut visit = |t: u32, stack: &mut Vec<u32>| {
            let first = if t & DECISION_BIT != 0 {
                !std::mem::replace(&mut decisions[(t & 0xff) as usize], true)
            } else {
                let first = !seen[t as usize];
                if first {
                    seen[t as usize] = true;
                    stack.push(t);
                }
                first
            };
            count += usize::from(first);
        };
        let mut stack = Vec::new();
        visit(root, &mut stack);
        while let Some(t) = stack.pop() {
            for e in self.exits(self.nodes[t as usize]) {
                visit(e, &mut stack);
            }
        }
        count
    }

    /// A node's tagged exits, one per cut. A ladder keeps no cut count: its
    /// entries end at the field's domain max.
    fn exits(&self, n: PoolNode) -> impl Iterator<Item = u32> + '_ {
        let off = n.off as usize;
        let (start, len) = if n.flags & LADDER != 0 {
            let max = self.schema.field(FieldId(n.field as usize)).max();
            let last = self.entries[off..]
                .iter()
                .position(|&e| e >> 32 == max)
                .expect("every node's cuts end at the domain max");
            (off, last + 1)
        } else if n.flags & SPLIT != 0 {
            (off + n.aux as usize, n.aux as usize)
        } else {
            (off, n.aux as usize)
        };
        self.entries[start..start + len].iter().map(|&e| e as u32)
    }

    /// The pool's node shape, in the terms of the image kernel's
    /// [`crate::LaneStats`]: `passes` is the longest walk from any node,
    /// `fused_nodes` is 0 (the pool does not fuse), `search_bits` is the
    /// widest search's trip count, and `bytes` is
    /// [`approx_bytes`](Self::approx_bytes).
    pub fn lane_stats(&self) -> crate::LaneStats {
        let mut stats = crate::LaneStats {
            search_bits: self.search_bits,
            bytes: self.approx_bytes(),
            ..crate::LaneStats::default()
        };
        // Nodes follow every node they reach, so one forward pass sees
        // each node's exits settled.
        let mut depth = vec![0u32; self.nodes.len()];
        for (i, &n) in self.nodes.iter().enumerate() {
            if n.flags & LADDER != 0 {
                stats.ladder_nodes += 1;
            } else {
                stats.search_nodes += 1;
            }
            let below = self
                .exits(n)
                .filter(|&t| t & DECISION_BIT == 0)
                .map(|t| depth[t as usize])
                .max()
                .unwrap_or(0);
            depth[i] = 1 + below;
            stats.passes = stats.passes.max(depth[i] as usize);
        }
        stats
    }

    /// Approximate heap bytes of the pool: nodes, entries (bucket tables
    /// included) and the dedup map — the shared serving-side cost the
    /// fleet registry reports.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<PoolNode>()
            + self.entries.len() * size_of::<u64>()
            + self.ids.len() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::Fdd;
    use fw_model::{paper, Firewall};

    /// `fw`'s canonical root in `arena`, as the fleet registry interns it.
    fn intern(arena: &mut ConsArena, fw: &Firewall) -> ConsId {
        arena
            .intern_fdd(&Fdd::from_firewall_fast(fw).unwrap())
            .unwrap()
    }

    #[test]
    fn pool_agrees_with_standalone_images_and_dedupes() {
        let fw_a = paper::team_a();
        let fw_b = paper::team_b();
        let mut arena = ConsArena::new(fw_a.schema().clone());
        let a = intern(&mut arena, &fw_a);
        let b = intern(&mut arena, &fw_b);

        let mut pool = SubgraphPool::new(fw_a.schema().clone());
        let ra = pool.ensure(&arena, a).unwrap();
        let after_a = pool.node_count();
        let rb = pool.ensure(&arena, b).unwrap();
        let after_b = pool.node_count();
        // Re-ensuring is free.
        assert_eq!(pool.ensure(&arena, a).unwrap(), ra);
        assert_eq!(pool.node_count(), after_b);
        // The second image reuses at least the shared terminals.
        assert!(after_b - after_a < pool.reachable(rb));

        let ca = crate::CompiledFdd::from_firewall(&fw_a).unwrap();
        let cb = crate::CompiledFdd::from_firewall(&fw_b).unwrap();
        for (fw, root, compiled) in [(&fw_a, ra, &ca), (&fw_b, rb, &cb)] {
            let trace = fw_synth::PacketTrace::biased(fw, 500, 0.3, 7);
            for p in trace.packets() {
                assert_eq!(pool.classify(root, p), compiled.classify(p));
                assert_eq!(Some(pool.classify(root, p)), fw.decision_for(p));
            }
            let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
            let mut out = Vec::new();
            pool.classify_columns_into(root, &batch, &mut out).unwrap();
            assert_eq!(out, compiled.classify_batch(trace.packets()));
        }
    }

    #[test]
    fn identical_roots_share_everything() {
        let fw = paper::team_a();
        let mut arena = ConsArena::new(fw.schema().clone());
        let a = intern(&mut arena, &fw);
        let b = intern(&mut arena, &fw);
        // Hash-consing gives both policies the same root...
        assert_eq!(a, b);
        let mut pool = SubgraphPool::new(fw.schema().clone());
        let ra = pool.ensure(&arena, a).unwrap();
        let n = pool.node_count();
        let rb = pool.ensure(&arena, b).unwrap();
        // ...so the pool compiles one image, not two.
        assert_eq!(ra, rb);
        assert_eq!(pool.node_count(), n);
    }

    #[test]
    fn sentinel_and_schema_mismatch_are_rejected() {
        let fw = paper::team_a();
        let mut arena = ConsArena::new(fw.schema().clone());
        let sentinel = arena.terminal(None);
        let mut pool = SubgraphPool::new(fw.schema().clone());
        assert!(pool.ensure(&arena, sentinel).is_err());
        let mut other = SubgraphPool::new(fw_model::Schema::tcp_ip());
        let cons_root = intern(&mut arena, &fw);
        assert!(other.ensure(&arena, cons_root).is_err());
    }

    /// The batch path clears stale output, serves an empty batch, and
    /// rejects a batch over another schema.
    #[test]
    fn batch_path_clears_the_output_and_rejects_other_schemas() {
        let fw = fw_synth::Synthesizer::new(31).firewall(40);
        let mut arena = ConsArena::new(fw.schema().clone());
        let cons_root = intern(&mut arena, &fw);
        let mut pool = SubgraphPool::new(fw.schema().clone());
        let root = pool.ensure(&arena, cons_root).unwrap();

        let mut got = vec![Decision::Accept; 3]; // stale junk must be cleared
        let empty = PacketBatch::from_trace(fw.schema().clone(), &[]).unwrap();
        pool.classify_columns_into(root, &empty, &mut got).unwrap();
        assert!(got.is_empty());
        let other = PacketBatch::from_trace(fw_model::Schema::paper_example(), &[]).unwrap();
        assert!(pool.classify_columns_into(root, &other, &mut got).is_err());
    }

    /// Cached pool serving must agree with the plain column walk, share
    /// entries between tenants dedup'd onto one root, and keep distinct
    /// roots apart (the root index is the cache tag).
    #[test]
    fn cached_pool_serving_agrees_and_tags_by_root() {
        let fw_a = paper::team_a();
        let fw_b = paper::team_b();
        let mut arena = ConsArena::new(fw_a.schema().clone());
        let a = intern(&mut arena, &fw_a);
        let b = intern(&mut arena, &fw_b);
        let mut pool = SubgraphPool::new(fw_a.schema().clone());
        let ra = pool.ensure(&arena, a).unwrap();
        let rb = pool.ensure(&arena, b).unwrap();
        assert_ne!(ra, rb);

        let mut cache = crate::DecisionCache::new(fw_a.schema().clone(), 1 << 13).unwrap();
        let mut scratch = crate::CacheScratch::new();
        let trace = fw_synth::PacketTrace::biased(&fw_a, 400, 0.3, 3);
        let batch = PacketBatch::from_trace(fw_a.schema().clone(), trace.packets()).unwrap();
        let mut expect = Vec::new();
        let mut got = Vec::new();
        // The same trace through both roots: decisions differ where the
        // policies do, so tagged entries must never cross-contaminate.
        for _pass in 0..2 {
            for root in [ra, rb] {
                pool.classify_columns_into(root, &batch, &mut expect)
                    .unwrap();
                pool.classify_cached_into(root, &batch, &mut cache, &mut scratch, &mut got)
                    .unwrap();
                assert_eq!(got, expect, "root {root} diverged through the cache");
            }
        }
        let stats = cache.stats();
        // The second pass serves both roots warm (the capacity is sized so
        // set-conflict evictions stay negligible at this load factor).
        assert!(stats.hits >= batch.len() as u64 * 2);
        // A dedup'd "second tenant" is the same root — its first pass is
        // already warm.
        let before = cache.stats().misses;
        pool.classify_cached_into(ra, &batch, &mut cache, &mut scratch, &mut got)
            .unwrap();
        assert_eq!(cache.stats().misses, before, "shared root serves warm");
    }

    #[test]
    fn remapped_keys_keep_serving_after_arena_compact() {
        let fw = paper::team_b();
        let mut arena = ConsArena::new(fw.schema().clone());
        let cons_root = intern(&mut arena, &fw);
        let mut pool = SubgraphPool::new(fw.schema().clone());
        let root = pool.ensure(&arena, cons_root).unwrap();

        let mut roots = [cons_root];
        let map = arena.compact_mapped(&mut roots);
        let cons_root = roots[0];
        pool.remap_keys(&map);

        // The old root index still serves, and re-ensuring the remapped
        // ConsId finds the existing image instead of recompiling.
        assert_eq!(pool.ensure(&arena, cons_root).unwrap(), root);
        for p in fw.witnesses() {
            assert_eq!(Some(pool.classify(root, &p)), fw.decision_for(&p));
        }
    }

    /// A fleet pool of the 661-rule policy, lowered node by node.
    fn large_fleet_pool() -> SubgraphPool {
        let base = fw_synth::university_large();
        let mut arena = ConsArena::new(base.schema().clone());
        let mut pool = SubgraphPool::new(base.schema().clone());
        for fw in fw_synth::perturb_fleet(&base, 3, 5, 8) {
            let root = intern(&mut arena, &fw);
            pool.ensure(&arena, root).unwrap();
        }
        pool
    }

    /// Every node holds the lowering's invariants: cuts strictly ascending
    /// to the domain max, a ladder's table within the size rule and its
    /// brackets inside the node, a search's trip count its own.
    #[test]
    fn nodes_keep_the_lowering_invariants() {
        let pool = large_fleet_pool();
        let mut multi_bucket = 0;
        for n in &pool.nodes {
            let fd = pool.schema.field(FieldId(n.field as usize));
            let len = pool.exits(*n).count();
            let off = n.off as usize;
            let cuts: Vec<u64> = pool.entries[off..off + len]
                .iter()
                .map(|e| e >> 32)
                .collect();
            assert!(cuts.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(cuts[len - 1], fd.max());
            assert_eq!(n.flags & SPLIT, 0, "tcp/ip fields pack");
            if n.flags & LADDER == 0 {
                assert_eq!(n.aux as usize, len);
                assert!(1usize << n.shift >= len && 1usize << n.shift < 2 * len);
                assert!(u32::from(n.shift) <= pool.search_bits);
                continue;
            }
            if len <= QLADDER {
                assert_eq!((n.aux, u32::from(n.shift)), (0, fd.bits()));
                continue;
            }
            multi_bucket += 1;
            let entries = 1usize << (fd.bits() - u32::from(n.shift));
            assert!(entries <= TABLE_ENTRIES_PER_CUT * len && len <= LADDER_MAX_CUTS);
            assert!((n.aux as usize + entries.div_ceil(8)) <= n.off as usize);
            let table: Vec<usize> = (0..entries).map(|b| pool.bracket(*n, b)).collect();
            assert!(table.windows(2).all(|w| w[0] <= w[1]));
            assert!(table.iter().all(|&b| b + 2 <= len));
        }
        assert!(multi_bucket > 0, "the fleet needs tables past one bucket");
    }

    /// `approx_bytes` counts each array of the lowering, every one of
    /// which a fleet pool fills.
    #[test]
    fn approx_bytes_counts_every_array() {
        let pool = large_fleet_pool();
        let arrays = [
            pool.nodes.len() * 12,
            pool.entries.len() * 8,
            pool.ids.len() * 4,
        ];
        assert!(arrays.iter().all(|&b| b > 0), "{arrays:?}");
        assert_eq!(std::mem::size_of::<PoolNode>(), 12);
        assert_eq!(pool.approx_bytes(), arrays.iter().sum::<usize>());
        assert_eq!(pool.lane_stats().bytes, pool.approx_bytes());
    }
}

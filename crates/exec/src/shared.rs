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
//! A [`SubgraphPool`] therefore *is* the cross-image dedup of cut arrays
//! and jump tables: a node's spans are emitted through the same
//! [`crate::compile`] lowering helpers as a standalone image (one
//! partition check, one jump/search layout decision), but into pool-wide
//! arenas where `ConsId`-identical subtrees collapse to the same indices.
//! The pool trades the lane kernel away: its fused, budgeted lowering is a
//! per-image property that cannot survive incremental multi-root growth, so serving
//! from the pool uses the scalar walk ([`SubgraphPool::decide`]) and the
//! serial column walk ([`SubgraphPool::classify_columns_into`]), optionally
//! behind a decision cache ([`SubgraphPool::classify_cached_into`]).

use fw_core::{ConsArena, ConsId, ConsView, FxMap};
use fw_model::{Decision, Packet, Schema};

use crate::batch::PacketBatch;
use crate::compile::{
    decision_from_u16, emit_internal, lower_bound, verify_partition, NodeDesc, KIND_JUMP,
    KIND_TERMINAL,
};
use crate::ExecError;

/// A pool of compiled FDD nodes shared across any number of roots (see
/// module docs). Roots are plain node indices returned by
/// [`ensure`](SubgraphPool::ensure); a "compiled image" for one policy is
/// nothing but such an index.
#[derive(Debug, Clone)]
pub struct SubgraphPool {
    schema: Schema,
    nodes: Vec<NodeDesc>,
    cuts: Vec<u64>,
    cut_targets: Vec<u32>,
    jump: Vec<u32>,
    /// The dedup map: canonical subfunction → its one compiled node.
    map: FxMap<ConsId, u32>,
}

impl SubgraphPool {
    /// An empty pool over `schema`.
    pub fn new(schema: Schema) -> SubgraphPool {
        SubgraphPool {
            schema,
            nodes: Vec::new(),
            cuts: Vec::new(),
            cut_targets: Vec::new(),
            jump: Vec::new(),
            map: FxMap::default(),
        }
    }

    /// The schema every diagram in this pool ranges over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total compiled nodes across every image in the pool.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Compiles the subgraph of `arena` rooted at `root` into the pool and
    /// returns its node index. Every sub-`ConsId` already compiled — by
    /// this call, an earlier root, or another tenant entirely — is reused
    /// by index; only genuinely new subfunctions emit nodes. Calling twice
    /// with the same root is free and returns the same index.
    ///
    /// # Errors
    ///
    /// [`ExecError::Invariant`] if `arena` is on a different schema, the
    /// diagram reaches the unmatched sentinel (serve only comprehensive
    /// policies), a node's edges fail the domain-partition check, or an
    /// arena exceeds `u32` indexing.
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
        if let Some(&n) = self.map.get(&id) {
            return Ok(n);
        }
        let desc = match arena.view(id) {
            ConsView::Terminal(Some(d)) => NodeDesc {
                kind: KIND_TERMINAL,
                level: 0,
                field: u16::from(d.code()),
                off: 0,
                len: 0,
            },
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
                emit_internal(
                    &self.schema,
                    field,
                    0,
                    &spans,
                    &mut self.cuts,
                    &mut self.cut_targets,
                    &mut self.jump,
                )?
            }
        };
        let n = u32::try_from(self.nodes.len())
            .map_err(|_| ExecError::Invariant("subgraph pool exceeds u32 indices".into()))?;
        self.nodes.push(desc);
        self.map.insert(id, n);
        Ok(n)
    }

    /// Rewrites the dedup map's keys through a compaction map from
    /// [`ConsArena::compact_mapped`]. Entries whose `ConsId` was not
    /// retained are dropped from the *map* only — their compiled nodes
    /// stay in the pool (harmless garbage until the owner decides to
    /// rebuild), so every previously returned root index keeps working.
    pub fn remap_keys(&mut self, map: &FxMap<ConsId, ConsId>) {
        self.map = self
            .map
            .drain()
            .filter_map(|(old, n)| map.get(&old).map(|&new| (new, n)))
            .collect();
    }

    /// The matcher's inner loop from `root` over a value slice in schema
    /// order — identical discipline to `CompiledFdd::decide`, against the
    /// pool-wide arenas.
    #[inline]
    fn decide(&self, root: u32, values: &[u64]) -> Decision {
        let mut idx = root as usize;
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

    /// Classifies one packet against the image rooted at `root` (an index
    /// from [`ensure`](SubgraphPool::ensure)).
    ///
    /// # Panics
    ///
    /// Panics (by index) if `root` is not an index this pool returned, or
    /// the packet has the wrong arity or out-of-domain values; fleet
    /// callers validate at the registry boundary.
    pub fn classify(&self, root: u32, packet: &Packet) -> Decision {
        self.decide(root, packet.values())
    }

    /// Classifies every packet of a field-major batch against the image
    /// rooted at `root`, appending decisions in packet order to `out`
    /// (cleared first).
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
        out.resize(batch.len(), Decision::Accept);
        for (i, slot) in out.iter_mut().enumerate() {
            let mut idx = root as usize;
            *slot = loop {
                let n = self.nodes[idx];
                match n.kind {
                    KIND_TERMINAL => break decision_from_u16(n.field),
                    KIND_JUMP => {
                        let v = batch.column(n.field as usize)[i];
                        idx = self.jump[n.off as usize + v as usize] as usize;
                    }
                    _ => {
                        let v = batch.column(n.field as usize)[i];
                        let off = n.off as usize;
                        let len = n.len as usize;
                        let k = lower_bound(&self.cuts[off..off + len], v);
                        idx = self.cut_targets[off + k] as usize;
                    }
                }
            };
        }
        Ok(())
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

    /// Compiled nodes reachable from `root` — what this image would cost
    /// *standalone*; the difference against the nodes it actually added is
    /// the structural-sharing win.
    pub fn reachable(&self, root: u32) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root as usize];
        seen[root as usize] = true;
        let mut count = 0usize;
        while let Some(idx) = stack.pop() {
            count += 1;
            let n = self.nodes[idx];
            match n.kind {
                KIND_TERMINAL => {}
                KIND_JUMP => {
                    for &t in &self.jump[n.off as usize..(n.off + n.len) as usize] {
                        if !seen[t as usize] {
                            seen[t as usize] = true;
                            stack.push(t as usize);
                        }
                    }
                }
                _ => {
                    for &t in &self.cut_targets[n.off as usize..(n.off + n.len) as usize] {
                        if !seen[t as usize] {
                            seen[t as usize] = true;
                            stack.push(t as usize);
                        }
                    }
                }
            }
        }
        count
    }

    /// Approximate heap bytes of the pool: descriptors, cut/jump arenas,
    /// and the dedup map (per-entry overhead approximated) — the shared
    /// serving-side cost the fleet registry reports.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<NodeDesc>()
            + self.cuts.len() * size_of::<u64>()
            + self.cut_targets.len() * size_of::<u32>()
            + self.jump.len() * size_of::<u32>()
            + self.map.capacity() * (size_of::<ConsId>() + size_of::<u32>() + size_of::<u64>())
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

    /// The column walk clears stale output, serves an empty batch, and
    /// rejects a batch over another schema.
    #[test]
    fn column_walk_clears_the_output_and_rejects_other_schemas() {
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
}

//! Level-synchronous lane kernel: SIMD-style batch classification.
//!
//! The scalar paths ([`CompiledFdd::classify`], the column walk) finish one
//! packet's whole root-to-terminal chain before starting the next. On an
//! out-of-order core that loop is not load-latency-bound — the core happily
//! overlaps the independent chains of neighbouring packets — it is
//! *mispredict*-bound: every node transition retires two data-dependent
//! branches (the `match` on node kind and the exit of the `lower_bound`
//! halving loop, whose trip count follows the cut count of whatever node
//! the packet happens to hit), and a ~20-cycle flush per step swamps the
//! handful of cheap arena loads.
//!
//! The lane kernel removes those branches instead of hiding them:
//!
//! * **One node shape.** At lowering time every compiled node is re-expressed
//!   in a uniform *search-only* side arena ([`LaneArena`]): jump tables are
//!   run-length-encoded back into sorted cut form, and terminals become
//!   one-cut nodes whose single target is themselves. A kernel step is
//!   therefore always the same code — read a field column, binary-search a
//!   cut slice, follow the target — with no kind dispatch. Terminals
//!   self-loop, so finished lanes idle harmlessly instead of needing a
//!   frontier compaction.
//! * **One trip count.** Every node's cut slice is padded to the same
//!   power of two — `1 << bits`, sized by the *widest* node in the arena
//!   ([`LaneArena::bits`]) — by repeating its final domain-max cut and that
//!   cut's target, so a probe can never leave the node and never needs
//!   clamping. The search is then the classic branchless halving: exactly
//!   `bits` iterations of load + compare + conditional add, per lane, per
//!   pass, always. Monomorphising the chunk loop on `bits` unrolls it into
//!   straight-line code; the branch predictor sees nothing but counted
//!   loops. (Past `2^8` cuts the padding multiplier stops paying and a
//!   length-clamped fallback loop takes over — same semantics, just not
//!   unrolled.)
//! * **Level-synchronous passes.** All [`DEFAULT_LANE_WIDTH`] packets of a
//!   chunk advance one FDD level per pass, and [`CompileStats::max_depth`]
//!   (the verified longest root-to-decision walk) bounds the pass count
//!   exactly: the kernel runs `max_depth` passes with no "is everyone done
//!   yet" scan and then harvests decisions. Node ids are BFS-ordered, so a
//!   pass's descriptor reads move monotonically through the arena
//!   (`CompiledFdd::level_starts` records the level ranges, re-validated on
//!   decode).
//! * **Zero steady-state allocation.** The chunk's mutable state — the
//!   per-lane node cursors — lives in a caller-owned [`LaneScratch`], and
//!   the kernel reads field columns through an absolute span offset instead
//!   of materialising per-chunk column slices, so a serving loop that
//!   reuses its scratch and output buffer touches the allocator only until
//!   both reach their high-water mark.
//! * **Software prefetch (parallel path).** The multi-core driver
//!   (`par.rs`) enables a prefetch variant of the chunk body: after a lane
//!   resolves its next node, the kernel touches that node's descriptor and
//!   the head of its cut slice through [`std::hint::black_box`] — a
//!   portable forced load under `forbid(unsafe_code)`, no intrinsics. With
//!   [`DEFAULT_LANE_WIDTH`] independent lanes between one lane's prefetch
//!   and its next use, the touched lines are warm by the time the next pass
//!   reads them, which is exactly the memory-behaviour lever Hazelhurst's
//!   analysis says dominates decision-diagram lookup cost.
//!
//! Within a pass the per-lane steps are fully independent, so the core
//! overlaps many packets' loads; across the lane the uniform body is
//! exactly the shape LLVM unrolls and schedules as straight-line
//! conditional-move code (no nightly `std::simd`, no new dependencies).

use fw_model::Decision;

use crate::compile::{decision_from_u16, NodeDesc, KIND_JUMP, KIND_TERMINAL};
use crate::{CompiledFdd, ExecError, PacketBatch};

/// Lane width of [`CompiledFdd::classify_lanes`]: packets in flight per
/// chunk.
///
/// 32 packets keep a chunk's whole mutable state (32 `u32` node cursors)
/// inside two cache lines next to the output slice while giving the
/// out-of-order core far more independent steps per pass than it can
/// retire per cycle. The width is a constant because widths 8 to 64 serve
/// within noise of each other (the lane-width plateau in EXPERIMENTS.md).
pub const DEFAULT_LANE_WIDTH: usize = 32;

/// Reusable scratch state for the lane kernel: the per-lane node-cursor
/// frontier of the chunk in flight.
///
/// [`CompiledFdd::classify_lanes_into`] takes one of these so a serving
/// loop allocates nothing per batch once the scratch (and the caller's
/// output buffer) reach their high-water mark; the parallel driver keeps
/// one per worker. A scratch is engine-agnostic — the same instance can
/// serve any matcher, growing as needed.
#[derive(Debug, Default, Clone)]
pub struct LaneScratch {
    /// Node cursor per lane; length tracks the current chunk width.
    pub(crate) state: Vec<u32>,
}

impl LaneScratch {
    /// A fresh scratch. Allocates nothing until first use.
    pub fn new() -> LaneScratch {
        LaneScratch::default()
    }
}

/// One node of the uniform kernel arena: always a cut search, never a jump
/// table or an explicit terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KNode {
    /// Column to probe (0 for terminal self-loops; the read is harmless).
    field: u32,
    /// Start of this node's cut/target slice in [`LaneArena::cuts`].
    off: u32,
    /// Cut count. Kept for probe clamping; the loop trip count is the
    /// arena-wide [`LaneArena::bits`] instead.
    len: u32,
}

/// Widest node (in cut count, after mirroring) that still gets the padded
/// power-of-two layout; `1 << PAD_MAX_BITS` cuts. Beyond this the padding's
/// memory multiplier stops paying and the kernel takes the length-clamped
/// fallback loop instead.
const PAD_MAX_BITS: u32 = 8;

/// The search-only mirror of a compiled matcher that the lane kernel runs
/// on. Derived deterministically from the canonical arenas — eagerly at
/// compile time, lazily on first lane use after a wire decode (see
/// [`CompiledFdd::lane_arena`]); never serialized (the FWEX image stays in
/// the canonical three-arena form).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LaneArena {
    nodes: Vec<KNode>,
    /// Sorted upper bounds, all nodes concatenated. Terminals contribute a
    /// single `u64::MAX` cut; jump tables are run-length-encoded back into
    /// the cut convention (upper bound per constant run of targets). When
    /// `bits <= PAD_MAX_BITS` every node is padded to exactly `1 << bits`
    /// cuts by repeating its final (domain-max) cut, so a probe never needs
    /// clamping — a duplicated cut duplicates its target, so landing
    /// anywhere in the pad resolves identically.
    cuts: Vec<u64>,
    /// Target node id per cut, parallel to `cuts`. A terminal's target is
    /// itself, which is what makes finished lanes self-loop.
    targets: Vec<u32>,
    /// Fixed bitwise-search iteration count: number of bits of the widest
    /// node's cut count. Every search of every pass runs exactly this many
    /// branch-free halvings.
    bits: u32,
}

impl LaneArena {
    /// The per-node slice size in an arena of the given `bits`: padded to
    /// `1 << bits` while affordable, the node's own cut count otherwise
    /// (`0` here means "unpadded").
    fn pad_to(bits: u32) -> usize {
        if bits <= PAD_MAX_BITS {
            1usize << bits
        } else {
            0
        }
    }

    /// Mirrors the canonical arenas into uniform search-only form. Assumes
    /// structurally valid input (the constructors validate before calling).
    pub(crate) fn build(
        nodes: &[NodeDesc],
        cuts: &[u64],
        cut_targets: &[u32],
        jump: &[u32],
    ) -> LaneArena {
        // Mirror pass: every node as (field, sorted cuts, parallel
        // targets). Terminals become one-cut self-loops targeting their own
        // arena id; jump tables are run-length-encoded back into the cut
        // convention.
        let mut mirrored: Vec<(u32, Vec<u64>, Vec<u32>)> = Vec::with_capacity(nodes.len());
        let mut max_len = 1usize;
        for (i, n) in nodes.iter().enumerate() {
            let node = match n.kind {
                KIND_TERMINAL => (
                    0,
                    vec![u64::MAX],
                    vec![u32::try_from(i).expect("arena indexed by u32")],
                ),
                KIND_JUMP => {
                    // Undo the dense expansion: one cut per constant run of
                    // the table, upper bound = the run's last domain value.
                    let table = &jump[n.off as usize..(n.off + n.len) as usize];
                    let (mut nc, mut nt) = (Vec::new(), Vec::new());
                    let mut v = 0usize;
                    while v < table.len() {
                        let t = table[v];
                        while v + 1 < table.len() && table[v + 1] == t {
                            v += 1;
                        }
                        nc.push(v as u64);
                        nt.push(t);
                        v += 1;
                    }
                    (u32::from(n.field), nc, nt)
                }
                _ => {
                    let (o, l) = (n.off as usize, n.len as usize);
                    (
                        u32::from(n.field),
                        cuts[o..o + l].to_vec(),
                        cut_targets[o..o + l].to_vec(),
                    )
                }
            };
            max_len = max_len.max(node.1.len());
            mirrored.push(node);
        }

        // Layout pass: concatenate, padding to `1 << bits` per node while
        // the multiplier is affordable so probes never clamp. The pad
        // repeats the final domain-max cut and its target, so a probe can
        // land anywhere in it and resolve identically.
        let bits = usize::BITS - max_len.leading_zeros();
        let pad_to = LaneArena::pad_to(bits);
        let mut arena = LaneArena {
            bits,
            ..LaneArena::default()
        };
        for (field, nc, nt) in mirrored {
            let off = u32::try_from(arena.cuts.len()).expect("mirror arenas within u32");
            let len = u32::try_from(nc.len()).expect("node cuts within u32");
            let pad = pad_to.saturating_sub(nc.len());
            let (&last_cut, &last_target) = (
                nc.last().expect("no empty nodes"),
                nt.last().expect("no empty nodes"),
            );
            arena.cuts.extend_from_slice(&nc);
            arena.targets.extend_from_slice(&nt);
            arena.cuts.extend(std::iter::repeat_n(last_cut, pad));
            arena.targets.extend(std::iter::repeat_n(last_target, pad));
            arena.nodes.push(KNode { field, off, len });
        }
        arena
    }

    /// Bytes of the mirrored arena — the ground truth
    /// [`LaneArena::projected_bytes`] is tested against. Stats use the
    /// projection so they never force (or depend on) the lazy build.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<KNode>()
            + self.cuts.len() * 8
            + self.targets.len() * 4
    }

    /// Bytes [`LaneArena::build`] over these canonical arenas *would*
    /// occupy, computed without building (one streaming shape scan, no
    /// allocation). Stats use this so a lazily-mirrored image reports the
    /// same `lane_arena_bytes` as an eagerly-mirrored one.
    pub(crate) fn projected_bytes(nodes: &[NodeDesc], jump: &[u32]) -> usize {
        let mut max_len = 1usize;
        let mut total = 0usize;
        for n in nodes {
            // Mirrored cut count per node, mirroring `build`'s shapes: terminals one self-loop cut, jump tables one cut per
            // constant run, search nodes their own cut count.
            let len = match n.kind {
                KIND_TERMINAL => 1,
                KIND_JUMP => {
                    let table = &jump[n.off as usize..(n.off + n.len) as usize];
                    let mut runs = 0usize;
                    let mut prev = None;
                    for &t in table {
                        if prev != Some(t) {
                            runs += 1;
                            prev = Some(t);
                        }
                    }
                    runs
                }
                _ => n.len as usize,
            };
            max_len = max_len.max(len);
            total += len;
        }
        let bits = usize::BITS - max_len.leading_zeros();
        let pad_to = LaneArena::pad_to(bits);
        let slots = if pad_to > 0 {
            nodes.len() * pad_to
        } else {
            total
        };
        nodes.len() * std::mem::size_of::<KNode>() + slots * 12
    }
}

impl CompiledFdd {
    /// Classifies a field-major batch with the level-synchronous lane
    /// kernel, [`DEFAULT_LANE_WIDTH`] packets in flight at a time.
    ///
    /// Decisions are identical to [`CompiledFdd::classify_columns`] (and
    /// every other engine); only the schedule differs.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Model`] if the batch was built over a different
    /// schema.
    pub fn classify_lanes(&self, batch: &PacketBatch) -> Result<Vec<Decision>, ExecError> {
        let mut out = Vec::new();
        self.classify_lanes_into(batch, &mut LaneScratch::new(), &mut out)?;
        Ok(out)
    }

    /// Like [`CompiledFdd::classify_lanes`], into a caller-provided buffer
    /// (cleared first), with caller-owned [`LaneScratch`] — zero heap
    /// allocation per batch once scratch and buffer hit their high-water
    /// marks.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::classify_lanes`].
    pub fn classify_lanes_into(
        &self,
        batch: &PacketBatch,
        scratch: &mut LaneScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != self.schema() {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema().len(),
                found: batch.schema().len(),
            }));
        }
        out.clear();
        out.resize(batch.len(), Decision::Discard);
        self.lanes_span::<false>(
            self.lane_arena(),
            batch.columns_raw(),
            0,
            &mut scratch.state,
            out,
        );
        Ok(())
    }

    /// Runs the lane kernel over the packet span `[start, start +
    /// out.len())` of `columns`, writing decisions into `out` in packet
    /// order. The serial path covers the whole batch in one span; the
    /// parallel driver (`par.rs`) hands each worker a disjoint span and the
    /// matching disjoint slice of the output buffer, which is what makes
    /// the merged result byte-identical to serial by construction.
    ///
    /// `arena` is the forced lane mirror (callers resolve
    /// [`CompiledFdd::lane_arena`] once, outside any worker); the `PF`
    /// parameter selects the forced-load chunk variant. Assumes validated
    /// inputs.
    pub(crate) fn lanes_span<const PF: bool>(
        &self,
        arena: &LaneArena,
        columns: &[Vec<u64>],
        start: usize,
        state: &mut Vec<u32>,
        out: &mut [Decision],
    ) {
        let n = out.len();
        let mut s = 0usize;
        while s < n {
            let w = DEFAULT_LANE_WIDTH.min(n - s);
            let base = start + s;
            // Monomorphise on the trip count so the bitwise search unrolls
            // into straight-line conditional moves — the whole point of
            // fixing the count arena-wide. Eight bits cover 256 cuts; wider
            // nodes (unbounded rule sets) take the generic-loop fallback.
            match arena.bits {
                1 => self.lanes_chunk::<1, PF>(arena, columns, base, w, state),
                2 => self.lanes_chunk::<2, PF>(arena, columns, base, w, state),
                3 => self.lanes_chunk::<3, PF>(arena, columns, base, w, state),
                4 => self.lanes_chunk::<4, PF>(arena, columns, base, w, state),
                5 => self.lanes_chunk::<5, PF>(arena, columns, base, w, state),
                6 => self.lanes_chunk::<6, PF>(arena, columns, base, w, state),
                7 => self.lanes_chunk::<7, PF>(arena, columns, base, w, state),
                8 => self.lanes_chunk::<8, PF>(arena, columns, base, w, state),
                b => self.lanes_chunk_any::<PF>(b, arena, columns, base, w, state),
            }
            for (cursor, slot) in state.iter().zip(&mut out[s..s + w]) {
                let nd = self.nodes[*cursor as usize];
                debug_assert!(
                    nd.kind == KIND_TERMINAL,
                    "lane stopped on an internal node after max_depth passes"
                );
                *slot = decision_from_u16(nd.field);
            }
            s += w;
        }
    }

    /// Runs one chunk of `w` lanes level-synchronously to completion:
    /// exactly `max_depth` uniform passes (the verified longest
    /// root-to-decision walk, so every cursor ends on a — possibly
    /// self-looped — terminal). Lane `l` reads packet `base + l` of the
    /// full field columns; `state` is the reused node-cursor scratch, left
    /// holding the final terminal per lane. With `PF` the resolved target's
    /// descriptor and cut-slice head are force-loaded (prefetched) a full
    /// chunk-round before the next pass dereferences them.
    fn lanes_chunk<const BITS: u32, const PF: bool>(
        &self,
        arena: &LaneArena,
        columns: &[Vec<u64>],
        base: usize,
        w: usize,
        state: &mut Vec<u32>,
    ) {
        state.clear();
        state.resize(w, self.root);
        for _pass in 0..self.stats.max_depth {
            for (l, cursor) in state.iter_mut().enumerate() {
                let n = arena.nodes[*cursor as usize];
                let v = columns[n.field as usize][base + l];
                let node_cuts = &arena.cuts[n.off as usize..n.off as usize + (1 << BITS)];
                // Branchless lower bound over the padded power-of-two cut
                // slice: BITS halvings, each one load + compare +
                // conditional add, no clamping and no length in sight.
                // `pos` ends on the first cut `>= v` (somewhere in the
                // duplicate pad for values past the node's real cuts, where
                // the duplicated target makes the landing spot irrelevant).
                let mut pos = 0usize;
                for i in 0..BITS {
                    let half = 1usize << (BITS - 1 - i);
                    pos += usize::from(node_cuts[pos + half - 1] < v) * half;
                }
                let t = arena.targets[n.off as usize + pos];
                if PF {
                    // Portable prefetch: force-load the next node's
                    // descriptor and the head of its cut slice so the lines
                    // are warm when the next pass returns to this lane
                    // (terminals self-loop, so the touch is always in
                    // bounds). `black_box` keeps the otherwise-dead loads.
                    std::hint::black_box(arena.cuts[arena.nodes[t as usize].off as usize]);
                }
                *cursor = t;
            }
        }
    }

    /// Runtime-trip-count fallback of [`CompiledFdd::lanes_chunk`] for
    /// arenas whose widest node exceeds 2^8 cuts. Identical semantics;
    /// the search loop just cannot unroll.
    fn lanes_chunk_any<const PF: bool>(
        &self,
        bits: u32,
        arena: &LaneArena,
        columns: &[Vec<u64>],
        base: usize,
        w: usize,
        state: &mut Vec<u32>,
    ) {
        state.clear();
        state.resize(w, self.root);
        for _pass in 0..self.stats.max_depth {
            for (l, cursor) in state.iter_mut().enumerate() {
                let n = arena.nodes[*cursor as usize];
                let v = columns[n.field as usize][base + l];
                let len = n.len as usize;
                let node_cuts = &arena.cuts[n.off as usize..n.off as usize + len];
                let mut pos = 0usize;
                let mut bit = 1usize << (bits - 1);
                while bit != 0 {
                    let next = pos | bit;
                    let take = (next <= len) & (node_cuts[next.min(len) - 1] < v);
                    pos |= if take { bit } else { 0 };
                    bit >>= 1;
                }
                let t = arena.targets[n.off as usize + pos];
                if PF {
                    std::hint::black_box(arena.cuts[arena.nodes[t as usize].off as usize]);
                }
                *cursor = t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Packet, Schema};

    fn batch_of(fw: &fw_model::Firewall, n: usize, seed: u64) -> PacketBatch {
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), n, seed);
        PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap()
    }

    #[test]
    fn lanes_match_scalar_across_ragged_lengths() {
        let fw = fw_synth::Synthesizer::new(77).firewall(40);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        for n in [1usize, 3, 31, 32, 33, 401] {
            let batch = batch_of(&fw, n, 1000 + n as u64);
            let scalar = compiled.classify_columns(&batch).unwrap();
            assert_eq!(scalar, compiled.classify_lanes(&batch).unwrap(), "n={n}");
        }
    }

    #[test]
    fn lanes_into_reuses_buffer_and_handles_empty() {
        let fw = paper::team_b();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let batch = batch_of(&fw, 100, 3);
        let mut out = vec![Decision::AcceptLog; 7];
        let mut scratch = LaneScratch::new();
        compiled
            .classify_lanes_into(&batch, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, compiled.classify_columns(&batch).unwrap());
        let empty = PacketBatch::from_trace(fw.schema().clone(), &[]).unwrap();
        compiled
            .classify_lanes_into(&empty, &mut scratch, &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_reuse_and_prefetch_variant_match_plain_kernel() {
        let fw = fw_synth::Synthesizer::new(41).firewall(35);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let mut scratch = LaneScratch::new();
        let mut out = Vec::new();
        // Same scratch across batches of different sizes.
        for n in [5usize, 64, 101, 33, 1] {
            let batch = batch_of(&fw, n, 7_000 + n as u64);
            let expect = compiled.classify_columns(&batch).unwrap();
            compiled
                .classify_lanes_into(&batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "n={n}");
            // Prefetch chunk variant over the same span: identical
            // decisions (it only adds forced loads).
            let mut pf_out = vec![Decision::Discard; n];
            compiled.lanes_span::<true>(
                compiled.lane_arena(),
                batch.columns_raw(),
                0,
                &mut scratch.state,
                &mut pf_out,
            );
            assert_eq!(pf_out, expect, "prefetch n={n}");
        }
    }

    #[test]
    fn span_offsets_cover_partial_windows() {
        let fw = fw_synth::Synthesizer::new(19).firewall(30);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let batch = batch_of(&fw, 97, 13);
        let expect = compiled.classify_columns(&batch).unwrap();
        let arena = compiled.lane_arena();
        let mut state = Vec::new();
        // Stitch the batch from unaligned disjoint spans, exactly as the
        // parallel driver does.
        let mut got = vec![Decision::Discard; 97];
        for (start, len) in [(0usize, 30usize), (30, 7), (37, 41), (78, 19)] {
            let (_, tail) = got.split_at_mut(start);
            let (slice, _) = tail.split_at_mut(len);
            compiled.lanes_span::<false>(arena, batch.columns_raw(), start, &mut state, slice);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let compiled = CompiledFdd::from_firewall(&paper::team_a()).unwrap();
        let other =
            PacketBatch::from_trace(Schema::tcp_ip(), &[Packet::new(vec![1, 2, 3, 4, 5])]).unwrap();
        assert!(matches!(
            compiled.classify_lanes(&other),
            Err(ExecError::Model(_))
        ));
    }

    #[test]
    fn single_terminal_policy_classifies_in_one_pass() {
        let schema = Schema::paper_example();
        let fw = fw_model::Firewall::parse(schema.clone(), "* -> discard-log\n").unwrap();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        assert_eq!(compiled.stats().levels, 1);
        let batch = batch_of(&fw, 50, 9);
        let lanes = compiled.classify_lanes(&batch).unwrap();
        assert!(lanes.iter().all(|&d| d == Decision::DiscardLog));
    }

    #[test]
    fn mirror_arena_is_search_only_and_self_consistent() {
        let fw = fw_synth::Synthesizer::new(3).firewall(30);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let arena = compiled.lane_arena();
        assert_eq!(arena.nodes.len(), compiled.nodes.len());
        assert_eq!(arena.cuts.len(), arena.targets.len());
        assert!(arena.bits >= 1);
        let padded = 1usize << arena.bits;
        for (i, (kn, n)) in arena.nodes.iter().zip(&compiled.nodes).enumerate() {
            let (off, len) = (kn.off as usize, kn.len as usize);
            let real = &arena.cuts[off..off + len];
            assert!(real.windows(2).all(|c| c[0] < c[1]), "node {i} cuts sorted");
            assert!(len <= padded, "node {i} within the trip budget");
            let pad = &arena.cuts[off + len..off + padded];
            assert!(
                pad.iter().all(|&c| c == real[len - 1])
                    && arena.targets[off + len..off + padded]
                        .iter()
                        .all(|&t| t == arena.targets[off + len - 1]),
                "node {i} pad repeats the domain-max cut and its target"
            );
            if n.kind == KIND_TERMINAL {
                assert_eq!((real, arena.targets[off]), (&[u64::MAX][..], i as u32));
            }
        }
    }

    #[test]
    fn projected_bytes_match_built_bytes() {
        for seed in [3u64, 8, 77] {
            let fw = fw_synth::Synthesizer::new(seed).firewall(30);
            let compiled = CompiledFdd::from_firewall(&fw).unwrap();
            assert_eq!(
                LaneArena::projected_bytes(&compiled.nodes, &compiled.jump),
                compiled.lane_arena().bytes(),
                "seed {seed}"
            );
        }
        let fw = paper::team_a();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        assert_eq!(
            LaneArena::projected_bytes(&compiled.nodes, &compiled.jump),
            compiled.lane_arena().bytes()
        );
    }
}

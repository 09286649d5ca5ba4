//! The lane kernel: the image's one batch form and the level-synchronous
//! kernel that runs it.
//!
//! The scalar paths ([`CompiledFdd::classify`], the column walk) finish one
//! packet's whole root-to-terminal chain before starting the next. On an
//! out-of-order core that loop is not load-latency-bound but
//! *mispredict*-bound: every node transition retires data-dependent
//! branches (the terminal test, the exit of a binary search whose trip
//! count follows the cut count of whatever node the packet hits), and a
//! ~20-cycle flush per step swamps the handful of cheap arena loads. The
//! lane kernel removes those branches, and halves the steps, by lowering
//! the canonical arenas once more into a [`LaneKernel`]:
//!
//! * **Chain fusion.** Every internal node at even *height* (longest
//!   distance to a decision) absorbs its children: one kernel step resolves
//!   the node and, unless that already yields a decision, the child it
//!   lands on. Terminal targets are pre-resolved to tagged decisions, and
//!   single-edge pass-through chains (which an unreduced input diagram can
//!   carry) are collapsed. A walk therefore takes at most
//!   `ceil(max_depth / 2)` steps, a strict shrink for any diagram of depth
//!   ≥ 2 ([`LaneStats::passes`]).
//! * **Quantized ladders.** A node's sorted cuts get a two-level table: the
//!   value's top `q` bits index a bucket whose bracket spans at most
//!   [`QLADDER`] cuts (`q` is the smallest that guarantees it), so the
//!   node resolves with one shift plus a fixed two-compare
//!   conditional-move ladder: no loop, no branch. The ladder reads the
//!   image node's own cuts, which every internal node has whatever its
//!   field's width. Tables are handed out in arena order from a fixed
//!   entry budget.
//! * **Padded search past the budget.** A node the budget leaves out, or
//!   whose cuts cluster too tightly for any table within
//!   [`QJUMP_MAX_BITS`], keeps its cuts padded to one arena-wide power of
//!   two by repeating its final (domain-max) cut and that cut's target.
//!   Its search is the classic branchless halving with one trip count for
//!   the whole arena; the kernel is monomorphised on that count, so the
//!   halving unrolls into straight-line conditional moves. (Past `2^8`
//!   cuts a node pads to its own power of two and the trip count becomes
//!   per node.)
//! * **Level-synchronous passes.** All [`DEFAULT_LANE_WIDTH`] packets of a
//!   chunk advance one step per pass, and [`LaneStats::passes`] (the
//!   longest walk through the fused structure, re-derived from the built
//!   kernel) bounds the pass count exactly, so independent lanes overlap
//!   their loads instead of serializing them down one packet's walk. The
//!   chunk's cursors live on the stack: a serving loop that reuses its
//!   output buffer allocates nothing per batch.
//!
//! The kernel is machine-local derived state, like calibration: FWEX never
//! carries it, image equality ignores it, and every engine decides
//! identically by construction (`tests/specialize_agree.rs` and
//! `tests/exec_agree.rs` hold it to the column walk and first match).
//! Compile builds it eagerly; a decoded image builds it on first batch use.

use fw_model::Decision;

use crate::compile::{decision_from_u16, KIND_TERMINAL};
use crate::{CompiledFdd, ExecError, PacketBatch};

/// Lane width of the lane kernel: packets in flight per chunk.
///
/// 32 packets keep a chunk's whole mutable state (32 `u32` cursors) in two
/// cache lines while giving the out-of-order core far more independent
/// steps per pass than it can retire per cycle. Widths 8 to 64 serve
/// within noise of each other (the lane-width plateau in EXPERIMENTS.md).
pub const DEFAULT_LANE_WIDTH: usize = 32;

/// High bit of a kernel target: set means the low bits are a decision wire
/// code, clear means a node id. The subgraph pool tags its targets the same
/// way.
pub(crate) const DECISION_BIT: u32 = 1 << 31;

/// Bucket-index bits are capped here (4097 table entries).
const QJUMP_MAX_BITS: u32 = 12;
/// Total quantized-table entries one kernel may allocate, in arena order
/// (64 Ki entries = 256 KiB).
const QJUMP_BUDGET_ENTRIES: usize = 1 << 16;
/// Fixed search-window width of a quantized bucket: every bucket's bracket
/// spans at most this many cuts, so a two-compare ladder resolves it.
pub(crate) const QLADDER: usize = 4;
/// Widest padded search (in trip count) the kernel is monomorphised for;
/// `1 << PAD_MAX_BITS` cuts.
const PAD_MAX_BITS: u32 = 8;
/// Trip-count parameter of the chunk loop that reads each padded node's
/// trip count from its descriptor instead.
const WIDE: u32 = u32::MAX;

/// Descriptor flag: resolve through the quantized ladder.
const LD_QJUMP: u8 = 1;
/// Descriptor flag: a step at this node also resolves the child it lands
/// on.
const LD_FUSED: u8 = 1 << 1;

/// One node of the kernel: eight bytes, so a cache line carries eight.
#[derive(Debug, Clone, Copy, Default)]
struct LaneDesc {
    /// [`LD_QJUMP`]: offset of the node's bucket table in `qstarts`.
    /// Otherwise: offset of its padded cut slice in `cuts`/`targets`.
    aux: u32,
    field: u16,
    /// [`LD_QJUMP`]: right shift from a value to its bucket. Otherwise:
    /// the trip count of the padded search (`log2` of the slice length).
    shift: u8,
    flags: u8,
}

/// The shape of a built lane kernel, for reports, benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Kernel passes per chunk: the longest walk through the fused
    /// structure, at most `ceil(max_depth / 2)`.
    pub passes: usize,
    /// Internal nodes fused with their children (even height ≥ 2).
    pub fused_nodes: usize,
    /// Internal nodes resolved through a quantized ladder.
    pub ladder_nodes: usize,
    /// Internal nodes resolved through the padded halving search.
    pub search_nodes: usize,
    /// Trip count of the padded search when one count serves the whole
    /// arena (`0` when no node needs it; above 8 every padded node keeps
    /// its own count).
    pub search_bits: u32,
    /// Bytes of the kernel's arenas.
    pub bytes: usize,
}

/// The lane kernel's lowering of one image; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct LaneKernel {
    /// Tagged: a whole-diagram decision, or the root's node id.
    root: u32,
    /// Indexed by image node id; a terminal's entry is never read.
    descs: Vec<LaneDesc>,
    /// Sorted upper bounds, each node's slice padded past its last cut.
    cuts: Vec<u64>,
    /// Tagged targets parallel to `cuts`.
    targets: Vec<u32>,
    /// Bucket bounds of ladder nodes (absolute `cuts` indices).
    qstarts: Vec<u32>,
    stats: LaneStats,
}

/// The right shift of the smallest quantization whose every bucket
/// brackets at most [`QLADDER`] cuts, or `None` when no table within
/// [`QJUMP_MAX_BITS`] can guarantee it. `cuts` holds more than `QLADDER`
/// strictly ascending cuts ending at the domain max of a `bits`-bit field.
///
/// A bucket's bracket runs from its first cut through the first cut of the
/// next bucket, so no four cuts may share a bucket, except the last bucket,
/// which holds the domain max and may hold four. Four cuts `c[i..=i + 3]`
/// that end before the domain max therefore have to fall apart, which
/// takes every bit down to their highest differing one; one pass over
/// those windows finds the smallest `q` that does it for all of them.
pub(crate) fn ladder_shift(cuts: &[u64], bits: u32) -> Option<u32> {
    let mut q = u32::max(1, usize::BITS - (cuts.len() / QLADDER).leading_zeros());
    for w in cuts[..cuts.len() - 1].windows(QLADDER) {
        let split = u64::BITS - (w[0] ^ w[QLADDER - 1]).leading_zeros();
        q = q.max(bits + 1 - split);
    }
    (q <= QJUMP_MAX_BITS.min(bits)).then(|| bits - q)
}

/// The bucket table of a ladder at `shift`, as runs: `(i, run)` says that
/// cut `i` starts the next `run` buckets. Bucket `j`'s bracket starts at
/// the first cut >= `j << shift`, so cut `i` starts every bucket after
/// cut `i - 1`'s, up to and including its own; the runs cover the
/// `2^(bits - shift)` buckets of a field whose domain max is the last cut.
pub(crate) fn bucket_runs(cuts: &[u64], shift: u32) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut next = 0u64;
    cuts.iter().enumerate().map(move |(i, &c)| {
        let through = (c >> shift) + 1;
        let run = usize::try_from(through - next).expect("at most 4096 buckets");
        next = through;
        (i, run)
    })
}

impl LaneKernel {
    /// Lowers `image` into the kernel. Assumes structurally valid input
    /// (the constructors validate before the kernel is built).
    pub(crate) fn build(image: &CompiledFdd) -> LaneKernel {
        let nodes = &image.nodes;
        let id = |i: usize| u32::try_from(i).expect("arena indexed by u32");
        assert!(
            nodes.len() < DECISION_BIT as usize,
            "image within tag space"
        );
        // A base target in kernel form: a tagged decision, or the first
        // branching node down its pass-through chain.
        let tag = |mut t: u32| loop {
            let n = nodes[t as usize];
            if n.kind == KIND_TERMINAL {
                return DECISION_BIT | u32::from(n.field);
            }
            if n.len != 1 {
                return t;
            }
            t = image.cut_targets[n.off as usize];
        };
        let heights = image.heights();
        let fused = |b: usize| {
            if heights[b] >= 2 && heights[b].is_multiple_of(2) {
                LD_FUSED
            } else {
                0
            }
        };

        let mut k = LaneKernel {
            root: tag(image.root),
            descs: vec![LaneDesc::default(); nodes.len()],
            cuts: Vec::new(),
            targets: Vec::new(),
            qstarts: Vec::new(),
            stats: LaneStats::default(),
        };
        let mut budget = QJUMP_BUDGET_ENTRIES;
        let mut padded = Vec::new();
        let mut widest = 1usize;
        for (b, &n) in nodes.iter().enumerate() {
            if n.kind == KIND_TERMINAL {
                continue;
            }
            k.stats.fused_nodes += usize::from(fused(b) != 0);
            let bits = image
                .schema
                .field(fw_model::FieldId(n.field as usize))
                .bits();
            let (cuts, raw) = image.edges(n);
            let shift = match cuts.len() {
                _ if bits >= 64 => None,
                len if len <= QLADDER => Some(bits),
                _ => ladder_shift(cuts, bits),
            };
            let entries = shift.map_or(usize::MAX, |s| (1usize << (bits - s)) + 1);
            if entries > budget {
                widest = widest.max(cuts.len());
                padded.push(b);
                continue;
            }
            budget -= entries;
            let shift = shift.expect("a table within budget has a shift");
            let off = id(k.cuts.len());
            k.descs[b] = LaneDesc {
                aux: id(k.qstarts.len()),
                field: n.field,
                shift: u8::try_from(shift).expect("field bits fit u8"),
                flags: LD_QJUMP | fused(b),
            };
            // The closing bound is the last cut, the domain max.
            for (i, run) in bucket_runs(cuts, shift) {
                k.qstarts.extend(std::iter::repeat_n(off + id(i), run));
            }
            k.qstarts.push(off + id(cuts.len() - 1));
            // The ladder reads a fixed QLADDER-wide window at each bracket
            // start, so the slice is padded past its last cut: the pad
            // sorts above any value and is never selected.
            k.cuts.extend_from_slice(cuts);
            k.cuts.extend(std::iter::repeat_n(u64::MAX, QLADDER - 1));
            k.targets.extend(raw.iter().map(|&t| tag(t)));
            let last = *k.targets.last().expect("internal nodes have an exit");
            k.targets.extend(std::iter::repeat_n(last, QLADDER - 1));
            k.stats.ladder_nodes += 1;
        }

        // Padded search for the rest: one arena-wide power of two while it
        // is affordable, each node's own beyond that.
        let arena_bits = widest.next_power_of_two().trailing_zeros();
        for &b in &padded {
            let n = nodes[b];
            let (cuts, raw) = image.edges(n);
            let bits = if arena_bits <= PAD_MAX_BITS {
                arena_bits
            } else {
                cuts.len().next_power_of_two().trailing_zeros()
            };
            let pad = (1usize << bits) - cuts.len();
            k.descs[b] = LaneDesc {
                aux: id(k.cuts.len()),
                field: n.field,
                shift: u8::try_from(bits).expect("trip count fits u8"),
                flags: fused(b),
            };
            let last = *cuts.last().expect("internal nodes have an exit");
            k.cuts.extend_from_slice(cuts);
            k.cuts.extend(std::iter::repeat_n(last, pad));
            k.targets.extend(raw.iter().map(|&t| tag(t)));
            let last = *k.targets.last().expect("internal nodes have an exit");
            k.targets.extend(std::iter::repeat_n(last, pad));
        }
        k.stats.search_nodes = padded.len();
        k.stats.search_bits = if padded.is_empty() { 0 } else { arena_bits };
        k.stats.bytes = k.descs.len() * std::mem::size_of::<LaneDesc>()
            + k.cuts.len() * 8
            + k.targets.len() * 4
            + k.qstarts.len() * 4;
        k.stats.passes = k.passes(image);
        k
    }

    /// The tagged exits of one node's slice (pads included: they repeat
    /// the last target).
    fn exits(&self, image: &CompiledFdd, b: usize) -> &[u32] {
        let d = self.descs[b];
        if d.flags & LD_QJUMP == 0 {
            let off = d.aux as usize;
            return &self.targets[off..off + (1usize << d.shift)];
        }
        let bits = image
            .schema
            .field(fw_model::FieldId(d.field as usize))
            .bits();
        let buckets = 1usize << (bits - u32::from(d.shift));
        let lo = self.qstarts[d.aux as usize] as usize;
        let hi = self.qstarts[d.aux as usize + buckets] as usize;
        &self.targets[lo..=hi]
    }

    /// Longest walk in kernel steps, by DP over the built structure in
    /// decreasing field order: every exit of a node tests a strictly later
    /// field (the ordered-FDD property, preserved through fusion). `next[b]`
    /// is the deepest walk left once a step has resolved node `b`, so a
    /// fused node reads it off the children it lands on.
    fn passes(&self, image: &CompiledFdd) -> usize {
        if self.root & DECISION_BIT != 0 {
            return 0;
        }
        let mut depth = vec![0u32; self.descs.len()];
        let mut next = vec![0u32; self.descs.len()];
        for f in (0..image.schema.len()).rev() {
            for (b, n) in image.nodes.iter().enumerate() {
                if n.kind == KIND_TERMINAL || n.field as usize != f {
                    continue;
                }
                let fused = self.descs[b].flags & LD_FUSED != 0;
                let (mut after, mut after_fused) = (0u32, 0u32);
                for &t in self.exits(image, b) {
                    if t & DECISION_BIT == 0 {
                        after = after.max(depth[t as usize]);
                        after_fused = after_fused.max(next[t as usize]);
                    }
                }
                next[b] = after;
                depth[b] = 1 + if fused { after_fused } else { after };
            }
        }
        depth[self.root as usize] as usize
    }

    /// Resolves one node against a field value: the ladder, or the padded
    /// halving with `BITS` trips ([`WIDE`]: the node's own count).
    #[inline(always)]
    fn resolve<const BITS: u32>(&self, d: LaneDesc, v: u64) -> u32 {
        if d.flags & LD_QJUMP != 0 {
            let lo = self.qstarts[d.aux as usize + (v >> d.shift) as usize] as usize;
            let c = &self.cuts[lo..lo + QLADDER];
            let mut pos = usize::from(c[1] < v) * 2;
            pos += usize::from(c[pos] < v);
            return self.targets[lo + pos];
        }
        let bits = if BITS == WIDE {
            u32::from(d.shift)
        } else {
            BITS
        };
        let off = d.aux as usize;
        let c = &self.cuts[off..off + (1usize << bits)];
        // Branchless lower bound over the padded slice: `bits` halvings,
        // each one load + compare + conditional add. A value past the real
        // cuts lands in the pad, whose repeated target makes the spot
        // irrelevant.
        let mut pos = 0usize;
        for i in 0..bits {
            let half = 1usize << (bits - 1 - i);
            pos += usize::from(c[pos + half - 1] < v) * half;
        }
        self.targets[off + pos]
    }

    /// One kernel step from node `idx` for packet `j`: the node, and the
    /// child it lands on when the node is fused.
    #[inline(always)]
    fn step<const BITS: u32>(&self, idx: usize, columns: &[Vec<u64>], j: usize) -> u32 {
        let d = self.descs[idx];
        let r = self.resolve::<BITS>(d, columns[d.field as usize][j]);
        if d.flags & LD_FUSED != 0 && r & DECISION_BIT == 0 {
            let c = self.descs[r as usize];
            self.resolve::<BITS>(c, columns[c.field as usize][j])
        } else {
            r
        }
    }

    /// Runs the kernel over the packet span `[start, start + out.len())` of
    /// `columns`, writing decisions into `out` in packet order. The serial
    /// path covers the batch in one span; the sharded path hands each
    /// worker a disjoint span and the matching slice of the output.
    pub(crate) fn span(&self, columns: &[Vec<u64>], start: usize, out: &mut [Decision]) {
        if self.root & DECISION_BIT != 0 {
            out.fill(decision_from_u16((self.root & !DECISION_BIT) as u16));
            return;
        }
        // Monomorphise on the trip count so the halving unrolls.
        match self.stats.search_bits {
            0 => self.span_with::<0>(columns, start, out),
            1 => self.span_with::<1>(columns, start, out),
            2 => self.span_with::<2>(columns, start, out),
            3 => self.span_with::<3>(columns, start, out),
            4 => self.span_with::<4>(columns, start, out),
            5 => self.span_with::<5>(columns, start, out),
            6 => self.span_with::<6>(columns, start, out),
            7 => self.span_with::<7>(columns, start, out),
            8 => self.span_with::<8>(columns, start, out),
            _ => self.span_with::<WIDE>(columns, start, out),
        }
    }

    /// [`LaneKernel::span`] chunk by chunk: every lane of a chunk holds a
    /// tagged cursor, and `passes` uniform passes take every cursor to a
    /// decision. The first pass is hoisted (every lane starts at the root
    /// and none is done yet); later passes skip finished lanes.
    fn span_with<const BITS: u32>(&self, columns: &[Vec<u64>], start: usize, out: &mut [Decision]) {
        let root = self.root as usize;
        let mut state = [0u32; DEFAULT_LANE_WIDTH];
        for (c, chunk) in out.chunks_mut(DEFAULT_LANE_WIDTH).enumerate() {
            let base = start + c * DEFAULT_LANE_WIDTH;
            let lanes = &mut state[..chunk.len()];
            for (l, cursor) in lanes.iter_mut().enumerate() {
                *cursor = self.step::<BITS>(root, columns, base + l);
            }
            for _pass in 1..self.stats.passes {
                for (l, cursor) in lanes.iter_mut().enumerate() {
                    if *cursor & DECISION_BIT == 0 {
                        *cursor = self.step::<BITS>(*cursor as usize, columns, base + l);
                    }
                }
            }
            for (cursor, slot) in lanes.iter().zip(chunk) {
                debug_assert!(
                    cursor & DECISION_BIT != 0,
                    "lane stopped on an internal node after its passes"
                );
                *slot = decision_from_u16((cursor & !DECISION_BIT) as u16);
            }
        }
    }
}

/// The number of workers [`CompiledFdd::classify_lanes_par_into`] runs
/// for a request of `threads` (`0` = every core) over a batch of
/// `packets`: the request clamped to this machine's cores and to one lane
/// chunk per worker, and at least one.
pub fn lane_workers(threads: usize, packets: usize) -> usize {
    resolve_threads(threads)
        .min(packets.div_ceil(DEFAULT_LANE_WIDTH))
        .max(1)
}

/// Resolves a thread-count request against this machine's cores. A
/// serial request resolves without asking the system for them.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 1 {
        return 1;
    }
    threads_on(
        threads,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )
}

/// A thread-count request on `cores` cores: `0` means every core, and a
/// larger request is clamped to them. The sharded kernel hands each worker
/// one equal span, so a worker beyond the cores only makes the batch wait
/// for whichever span was descheduled.
fn threads_on(threads: usize, cores: usize) -> usize {
    if threads == 0 {
        cores
    } else {
        threads.min(cores)
    }
}

impl CompiledFdd {
    /// The lane kernel, built on first use.
    ///
    /// Compile builds it eagerly, so an edit swap pays the build on the
    /// writer's side instead of in the next served batch; a decoded image
    /// defers the build until a batch runs, so scalar-only serving (a
    /// fleet restore of thousands of tenants) never pays it. `OnceLock`
    /// makes the deferred build race-free under concurrent readers.
    pub(crate) fn lanes(&self) -> &LaneKernel {
        self.lanes.get_or_init(|| LaneKernel::build(self))
    }

    /// The lane kernel's shape, building the kernel if a decoded image has
    /// not yet.
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes().stats
    }

    /// Whether the lane kernel is built: always after compile, after
    /// decode only once a batch (or [`CompiledFdd::lane_stats`]) ran.
    pub fn lanes_built(&self) -> bool {
        self.lanes.get().is_some()
    }

    fn check_batch(&self, batch: &PacketBatch) -> Result<(), ExecError> {
        if batch.schema() != self.schema() {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema().len(),
                found: batch.schema().len(),
            }));
        }
        Ok(())
    }

    /// Classifies a field-major batch with the lane kernel,
    /// [`DEFAULT_LANE_WIDTH`] packets in flight at a time.
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
        self.classify_lanes_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`CompiledFdd::classify_lanes`], into a caller-provided buffer
    /// (cleared first): no heap allocation per batch once the buffer hits
    /// its high-water mark.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::classify_lanes`].
    pub fn classify_lanes_into(
        &self,
        batch: &PacketBatch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        self.check_batch(batch)?;
        out.clear();
        out.resize(batch.len(), Decision::Discard);
        self.lanes().span(batch.columns_raw(), 0, out);
        Ok(())
    }

    /// [`CompiledFdd::classify_lanes_into`] sharded across `threads` scoped
    /// workers (`0` = every available core, `1` = serial; a request past
    /// the available cores is clamped to them): the batch splits
    /// into one contiguous span per worker, equal but for the last, and
    /// each span's decisions land in its own slice of `out`, so the result
    /// is the serial kernel's for every thread count.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::classify_lanes`].
    pub fn classify_lanes_par_into(
        &self,
        batch: &PacketBatch,
        threads: usize,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        self.check_batch(batch)?;
        out.clear();
        out.resize(batch.len(), Decision::Discard);
        // Force the lazy kernel once, outside the workers.
        let kernel = self.lanes();
        let columns = batch.columns_raw();
        // Below one chunk per worker the spawn cost outweighs the overlap.
        let threads = lane_workers(threads, batch.len());
        if threads == 1 {
            kernel.span(columns, 0, out);
            return Ok(());
        }
        let per = batch.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let mut spans = out.chunks_mut(per).enumerate();
            let (_, first) = spans.next().expect("a non-empty batch");
            for (k, slice) in spans {
                scope.spawn(move || kernel.span(columns, k * per, slice));
            }
            // The calling thread serves the first span.
            kernel.span(columns, 0, first);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower_bound;
    use fw_model::{paper, Packet, Schema};

    fn batch_of(fw: &fw_model::Firewall, n: usize, seed: u64) -> PacketBatch {
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), n, seed);
        PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap()
    }

    /// Reference for [`ladder_shift`]: every `q` from the smallest up, every
    /// bucket's first cut found by binary search.
    fn ladder_shift_by_search(cuts: &[u64], bits: u32) -> Option<u32> {
        let cap = QJUMP_MAX_BITS.min(bits);
        let mut q = u32::max(1, usize::BITS - (cuts.len() / QLADDER).leading_zeros());
        while q <= cap {
            let shift = bits - q;
            let mut prev = 0usize;
            let mut ok = true;
            for b in 0..(1u64 << q) {
                let first = lower_bound(cuts, b << shift);
                if b > 0 && first - prev >= QLADDER {
                    ok = false;
                    break;
                }
                prev = first;
            }
            if ok && (cuts.len() - 1) - prev < QLADDER {
                return Some(shift);
            }
            q += 1;
        }
        None
    }

    #[test]
    fn one_pass_ladder_shift_matches_the_bucket_search() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for bits in [6u32, 8, 16, 32] {
            let max = (1u64 << bits) - 1;
            for _ in 0..400 {
                let len = 5 + (next() % 60) as usize;
                // Clustered cuts half the time, so `None` shows up too.
                let span = if next() % 2 == 0 { max } else { max.min(64) };
                let mut cuts: Vec<u64> = (0..len).map(|_| next() % span.max(1)).collect();
                cuts.push(max);
                cuts.sort_unstable();
                cuts.dedup();
                if cuts.len() <= QLADDER {
                    continue;
                }
                assert_eq!(
                    ladder_shift(&cuts, bits),
                    ladder_shift_by_search(&cuts, bits),
                    "bits {bits}, cuts {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn thread_requests_clamp_to_the_cores() {
        assert_eq!(threads_on(0, 2), 2, "0 means every core");
        assert_eq!(threads_on(1, 2), 1);
        assert_eq!(threads_on(2, 2), 2);
        assert_eq!(threads_on(8, 2), 2, "never more workers than cores");
        assert_eq!(threads_on(3, 16), 3);
        assert_eq!(threads_on(4, 1), 1);
    }

    #[test]
    fn lanes_match_columns_across_ragged_lengths() {
        let fw = fw_synth::Synthesizer::new(77).firewall(40);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let mut out = vec![Decision::AcceptLog; 7];
        for n in [0usize, 1, 3, 31, 32, 33, 401] {
            let batch = batch_of(&fw, n, 1000 + n as u64);
            let expect = compiled.classify_columns(&batch).unwrap();
            compiled.classify_lanes_into(&batch, &mut out).unwrap();
            assert_eq!(out, expect, "n={n}");
            for threads in [0usize, 2, 3, 8] {
                compiled
                    .classify_lanes_par_into(&batch, threads, &mut out)
                    .unwrap();
                assert_eq!(out, expect, "n={n}, {threads} thread(s)");
            }
        }
    }

    #[test]
    fn spans_stitch_into_the_whole_batch() {
        let fw = fw_synth::Synthesizer::new(19).firewall(30);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let batch = batch_of(&fw, 97, 13);
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut got = vec![Decision::Discard; 97];
        for (start, len) in [(0usize, 30usize), (30, 7), (37, 41), (78, 19)] {
            let slice = &mut got[start..start + len];
            compiled.lanes().span(batch.columns_raw(), start, slice);
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
        let mut out = Vec::new();
        assert!(matches!(
            compiled.classify_lanes_par_into(&other, 2, &mut out),
            Err(ExecError::Model(_))
        ));
    }

    #[test]
    fn single_terminal_policy_takes_no_pass() {
        let fw = fw_model::Firewall::parse(Schema::paper_example(), "* -> discard-log\n").unwrap();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        assert_eq!(compiled.lane_stats().passes, 0);
        let lanes = compiled.classify_lanes(&batch_of(&fw, 50, 9)).unwrap();
        assert!(lanes.iter().all(|&d| d == Decision::DiscardLog));
    }

    #[test]
    fn fusion_halves_the_passes() {
        for seed in [3u64, 8, 77] {
            let fw = fw_synth::Synthesizer::new(seed).firewall(60);
            let compiled = CompiledFdd::from_firewall(&fw).unwrap();
            let (depth, s) = (compiled.stats().max_depth, compiled.lane_stats());
            assert!(depth >= 2, "seed {seed}: a multi-level policy");
            assert!(s.passes <= depth.div_ceil(2), "seed {seed}: {s:?}");
            assert!(s.fused_nodes > 0, "seed {seed}");
        }
    }

    /// The n = 500 policy of the exec bench's Fig. 13 rows outgrows the
    /// table budget: some of its nodes resolve through ladders and the rest
    /// through the padded search, so the oracles on it run both paths.
    #[test]
    fn fig13_n500_spills_past_the_table_budget() {
        let fw = fw_synth::Synthesizer::new(302).firewall(500);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let s = compiled.lane_stats();
        assert!(s.ladder_nodes > 0, "{s:?}");
        assert!(s.search_nodes > 0, "{s:?}");
        assert!(
            (1..=PAD_MAX_BITS).contains(&s.search_bits),
            "one unrolled trip count: {s:?}"
        );
        let k = compiled.lanes();
        let entries = k.qstarts.len();
        assert!(entries <= QJUMP_BUDGET_ENTRIES, "{entries} table entries");
        // Every padded slice repeats its last real cut and target.
        for (b, d) in k.descs.iter().enumerate() {
            let n = compiled.nodes[b];
            if n.kind == KIND_TERMINAL || d.flags & LD_QJUMP != 0 {
                continue;
            }
            let off = d.aux as usize;
            let slice = &k.cuts[off..off + (1 << d.shift)];
            assert!(slice.windows(2).all(|w| w[0] <= w[1]), "node {b} sorted");
            assert_eq!(u32::from(d.shift), s.search_bits);
        }
    }

    /// 300 consecutive cuts on a 16-bit field cluster too tightly for any
    /// table within the cap, and past 2^8 cuts the padded node keeps its
    /// own trip count instead of the unrolled arena-wide one.
    #[test]
    fn wide_padded_nodes_take_their_own_trip_count() {
        let schema = Schema::new(vec![
            fw_model::FieldDef::new("a", 16).unwrap(),
            fw_model::FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap();
        let mut text = String::new();
        for v in 0..300u32 {
            let d = if v % 2 == 0 { "accept" } else { "discard" };
            text.push_str(&format!("a={v}, b=0-{} -> {d}\n", v % 8));
        }
        text.push_str("* -> discard-log\n");
        let fw = fw_model::Firewall::parse(schema.clone(), &text).unwrap();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let s = compiled.lane_stats();
        assert!(s.search_bits > PAD_MAX_BITS, "{s:?}");
        let mut packets: Vec<Packet> = (0..320u64)
            .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
            .collect();
        packets.extend_from_slice(fw_synth::PacketTrace::random(schema.clone(), 500, 3).packets());
        let batch = PacketBatch::from_trace(schema, &packets).unwrap();
        let lanes = compiled.classify_lanes(&batch).unwrap();
        assert_eq!(lanes, compiled.classify_columns(&batch).unwrap());
        for (p, d) in packets.iter().zip(&lanes) {
            assert_eq!(fw.decision_for(p), Some(*d), "at {p}");
        }
    }

    #[test]
    fn decoded_images_build_the_kernel_on_first_use() {
        let fw = fw_synth::Synthesizer::new(6).firewall(20);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        assert!(compiled.lanes_built(), "compile builds the kernel");
        let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
        assert!(!decoded.lanes_built());
        let batch = batch_of(&fw, 200, 4);
        let mut out = Vec::new();
        decoded
            .classify_lanes_par_into(&batch, 4, &mut out)
            .unwrap();
        assert!(decoded.lanes_built());
        assert_eq!(out, compiled.classify_lanes(&batch).unwrap());
        assert_eq!(decoded.lane_stats(), compiled.lane_stats());
    }
}

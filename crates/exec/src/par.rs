//! Multi-core batch classification: the lane kernel sharded across scoped
//! worker threads.
//!
//! The level-synchronous lane kernel (`kernel.rs`) is embarrassingly
//! partitionable: a batch's packets are independent, and the kernel already
//! runs them as disjoint fixed-width chunks. This module partitions a
//! [`PacketBatch`] into contiguous, lane-width-aligned spans and serves
//! them from a pool of scoped workers, adapting the atomic-cursor /
//! scoped-thread machinery of `fw_core::par` (the PR-1 comparison engine)
//! to the data plane:
//!
//! 1. **Span carving.** The output buffer is split once into about
//!    `4 × threads` disjoint `&mut [Decision]` slices via `chunks_mut`,
//!    each paired with its absolute packet offset. Spans are multiples of
//!    the lane width (except the tail), so no chunk ever straddles a span
//!    boundary and every span computes exactly what the serial kernel
//!    would compute for those packets.
//! 2. **Cursor stealing.** Workers draw span indices from one
//!    `AtomicUsize` with `fetch_add` — an idle worker steals the next
//!    unstarted span, so a span that hits slow memory does not stall the
//!    rest of the batch. The spawning thread drains the queue too (it
//!    would otherwise idle), so `threads = n` costs `n - 1` spawns.
//! 3. **Disjoint landing.** Each span's decisions land directly in its
//!    pre-split slice of the caller's output buffer. There is no merge
//!    step, no reordering, and no decision ever written twice: the final
//!    buffer is byte-identical to a serial [`CompiledFdd::classify_lanes`]
//!    run by construction, for every thread count and every interleaving.
//!
//! Workers run the kernel's prefetch variant — the forced-load touch of
//! the next level's node descriptor and cut-slice head — because sharded
//! frontiers divide the cache between cores and make the next-level lines
//! colder than in the serial sweep.
//!
//! Everything is `forbid(unsafe_code)`-clean: the mutable split is
//! `chunks_mut`, handoff is `Mutex<Option<…>>::take`, and the threads are
//! `std::thread::scope` (joined before return, panics propagate).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fw_model::Decision;

use crate::kernel::LaneScratch;
use crate::{CompiledFdd, ExecError, PacketBatch, DEFAULT_LANE_WIDTH};

/// A stealable unit of work: the span's absolute packet offset paired
/// with its disjoint slice of the output buffer, handed to exactly one
/// worker via `Option::take` under the mutex.
type SpanTask<'a> = Mutex<Option<(usize, &'a mut [Decision])>>;

/// Resolves a thread-count request: `0` → all available cores, otherwise
/// as given.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Reusable scratch for the parallel lane driver: one [`LaneScratch`]
/// (cursor frontier) per worker slot, grown on demand and reused across
/// batches so steady-state parallel serving allocates nothing per batch.
#[derive(Debug, Default)]
pub struct ParScratch {
    workers: Vec<LaneScratch>,
}

impl ParScratch {
    /// A fresh scratch pool. Allocates nothing until first use.
    pub fn new() -> ParScratch {
        ParScratch::default()
    }

    /// Worker scratches `0..n`, growing the pool if needed.
    fn slots(&mut self, n: usize) -> &mut [LaneScratch] {
        if self.workers.len() < n {
            self.workers.resize_with(n, LaneScratch::default);
        }
        &mut self.workers[..n]
    }
}

impl CompiledFdd {
    /// Classifies a field-major batch with the lane kernel sharded across
    /// `threads` scoped workers (`0` = all available cores, `1` = the
    /// serial kernel with zero threading overhead).
    ///
    /// Decisions are identical — byte for byte — to
    /// [`CompiledFdd::classify_lanes`], for every thread count; see the
    /// module docs for why.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::classify_lanes`].
    pub fn classify_lanes_par(
        &self,
        batch: &PacketBatch,
        threads: usize,
    ) -> Result<Vec<Decision>, ExecError> {
        let mut out = Vec::new();
        self.classify_lanes_par_into(batch, threads, &mut ParScratch::new(), &mut out)?;
        Ok(out)
    }

    /// Like [`CompiledFdd::classify_lanes_par`], into a caller-provided
    /// buffer (cleared first) with caller-owned worker scratch — zero heap
    /// allocation per batch once the pool and buffer hit their high-water
    /// marks.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::classify_lanes`].
    ///
    /// # Panics
    ///
    /// Propagates panics from worker threads (none are expected; the
    /// kernel does not panic on validated input).
    pub fn classify_lanes_par_into(
        &self,
        batch: &PacketBatch,
        threads: usize,
        scratch: &mut ParScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != self.schema() {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema().len(),
                found: batch.schema().len(),
            }));
        }
        let len = batch.len();
        out.clear();
        out.resize(len, Decision::Discard);
        // Force the lazy mirror once, outside the workers, so no two
        // threads race to build it (the OnceLock would serialise them
        // safely, but building twice wastes the pool's warm-up).
        let arena = self.lane_arena();
        let columns = batch.columns_raw();

        // Below ~2 spans per worker the spawn cost outweighs the overlap;
        // run serial (identical output by construction either way).
        let threads = resolve_threads(threads).min(len.div_ceil(DEFAULT_LANE_WIDTH).max(1));
        if threads <= 1 {
            let scratch = &mut scratch.slots(1)[0];
            self.lanes_span::<false>(arena, columns, 0, &mut scratch.state, out);
            return Ok(());
        }

        // Lane-width-aligned spans, about four per worker for stealing
        // balance: a span never splits a kernel chunk, so each span's
        // result is exactly the serial kernel's result for those packets.
        let per = len.div_ceil(threads * 4);
        let span = per.div_ceil(DEFAULT_LANE_WIDTH).max(1) * DEFAULT_LANE_WIDTH;
        let mut offset = 0usize;
        let tasks: Vec<SpanTask<'_>> = out
            .chunks_mut(span)
            .map(|slice| {
                let start = offset;
                offset += slice.len();
                Mutex::new(Some((start, slice)))
            })
            .collect();
        let cursor = AtomicUsize::new(0);

        let (tasks, cursor) = (&tasks, &cursor);
        let drain = move |scratch: &mut LaneScratch| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else {
                break;
            };
            let Some((start, slice)) = task.lock().expect("task lock never poisoned").take() else {
                continue;
            };
            self.lanes_span::<true>(arena, columns, start, &mut scratch.state, slice);
        };

        let (first, rest) = scratch
            .slots(threads)
            .split_first_mut()
            .expect("threads >= 2");
        std::thread::scope(|s| {
            for ws in rest.iter_mut() {
                s.spawn(move || drain(ws));
            }
            // The spawning thread is worker 0.
            drain(first);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(fw: &fw_model::Firewall, n: usize, seed: u64) -> PacketBatch {
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), n, seed);
        PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap()
    }

    #[test]
    fn parallel_matches_serial_for_every_thread_count() {
        let fw = fw_synth::Synthesizer::new(55).firewall(45);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        // Batch sizes that are not multiples of lane width or thread
        // count, including smaller than one chunk.
        for n in [1usize, 7, 61, 500, 1013] {
            let batch = batch_of(&fw, n, 9_000 + n as u64);
            let serial = compiled.classify_lanes(&batch).unwrap();
            for threads in [0usize, 1, 2, 3, 4, 8] {
                let par = compiled.classify_lanes_par(&batch, threads).unwrap();
                assert_eq!(serial, par, "n={n}, threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_pool_reuse_across_batches() {
        let fw = fw_synth::Synthesizer::new(12).firewall(30);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let mut pool = ParScratch::new();
        let mut out = Vec::new();
        for (n, threads) in [(129usize, 4usize), (64, 2), (999, 8)] {
            let batch = batch_of(&fw, n, n as u64);
            let serial = compiled.classify_lanes(&batch).unwrap();
            compiled
                .classify_lanes_par_into(&batch, threads, &mut pool, &mut out)
                .unwrap();
            assert_eq!(serial, out, "n={n}, threads={threads}");
        }
    }

    #[test]
    fn empty_batch_and_error_paths() {
        let fw = fw_model::paper::team_a();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let empty = PacketBatch::from_trace(fw.schema().clone(), &[]).unwrap();
        assert!(compiled.classify_lanes_par(&empty, 4).unwrap().is_empty());
        let other = PacketBatch::from_trace(
            fw_model::Schema::tcp_ip(),
            &[fw_model::Packet::new(vec![1, 2, 3, 4, 5])],
        )
        .unwrap();
        assert!(matches!(
            compiled.classify_lanes_par(&other, 4),
            Err(ExecError::Model(_))
        ));
    }

    #[test]
    fn parallel_forces_the_lazy_mirror_once() {
        let fw = fw_synth::Synthesizer::new(6).firewall(20);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
        assert!(decoded.lanes.get().is_none());
        let batch = batch_of(&fw, 200, 4);
        let par = decoded.classify_lanes_par(&batch, 4).unwrap();
        assert!(decoded.lanes.get().is_some());
        assert_eq!(par, compiled.classify_lanes(&batch).unwrap());
    }
}

//! Sampled execution profiling: measure where the matcher actually spends
//! its walks, so specialization re-lowers for the traffic it serves.
//!
//! The collector is deliberately split in two:
//!
//! * [`Profile`] — the data: per-node visit counts and a per-cut hit
//!   histogram parallel to the image's cut arena, filled by an
//!   instrumented clone of the column walk
//!   ([`CompiledFdd::classify_profiled_into`]). The instrumented walk is
//!   decision-identical to every other engine (the agreement oracles
//!   prove it), so profiling can never change what a packet gets — only
//!   what the next [`CompiledFdd::specialize`] call knows.
//! * `ProfilerSlot` — the sampling arm: an armed/1-in-N gate attached to
//!   each [`CompiledFdd`] that auto-serving surfaces consult per *batch*.
//!   The disarmed fast path is a single relaxed atomic load; an armed
//!   matcher routes every N-th batch through the instrumented walk and
//!   accumulates under a mutex that only sampled batches ever touch. The
//!   most recent sampled batch's columns are retained (capped at
//!   [`PROFILE_SAMPLE_ROWS`] rows) so a background re-specialization can
//!   recalibrate against real traffic without holding the live stream.
//!
//! Profiles are machine- and traffic-local, like calibration: the FWEX
//! wire format never carries them, and [`CompiledFdd::clone`] resets the
//! profiler (the clone may serve different traffic).
//!
//! Profiling is a single-image concern: the fleet's shared
//! [`crate::SubgraphPool`] serves through its plain column walk and keeps
//! no heat.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use fw_model::Decision;

use crate::compile::{decision_from_u16, lower_bound, KIND_JUMP, KIND_TERMINAL};
use crate::{CompiledFdd, ExecError, PacketBatch};

/// Rows of the most recent sampled batch a profiler retains, so background
/// re-specialization can recalibrate on real traffic. Matches
/// [`crate::CALIBRATE_SAMPLE`]: retaining more would never be replayed.
pub const PROFILE_SAMPLE_ROWS: usize = 4096;

/// A sampled execution profile of one compiled image.
///
/// `node_visits[i]` counts walk arrivals at arena node `i` (terminals
/// included); `cut_hits[c]` counts how often cut slot `c` of the cut arena
/// resolved a search node's lookup. Both are indexed exactly like the
/// image they were gathered on, so a profile is only meaningful against
/// that image (an edit recompiles the arena and orphans the profile —
/// [`crate::LiveMatcher`] starts a fresh one on every swap).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    pub(crate) node_visits: Vec<u64>,
    pub(crate) cut_hits: Vec<u64>,
    pub(crate) packets: u64,
    pub(crate) batches: u64,
}

impl Profile {
    /// An all-zero profile sized for `compiled`'s arenas.
    pub fn new_for(compiled: &CompiledFdd) -> Profile {
        Profile {
            node_visits: vec![0; compiled.nodes.len()],
            cut_hits: vec![0; compiled.cuts.len()],
            packets: 0,
            batches: 0,
        }
    }

    /// Per-node visit counts, indexed by arena node id.
    pub fn node_visits(&self) -> &[u64] {
        &self.node_visits
    }

    /// Per-cut hit counts, indexed like the image's cut arena.
    pub fn cut_hits(&self) -> &[u64] {
        &self.cut_hits
    }

    /// Packets classified through the instrumented walk.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Sampled batches accumulated.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Whether nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }
}

/// The sampling gate and accumulator attached to each [`CompiledFdd`].
///
/// Interior-mutable so serving surfaces can profile through a shared
/// `Arc<CompiledFdd>`; never serialized, reset on clone.
#[derive(Debug, Default)]
pub(crate) struct ProfilerSlot {
    armed: AtomicBool,
    every: AtomicU64,
    tick: AtomicU64,
    accum: Mutex<Option<ProfileAccum>>,
}

#[derive(Debug)]
struct ProfileAccum {
    profile: Profile,
    /// Columns of the most recent sampled batch, rows capped at
    /// [`PROFILE_SAMPLE_ROWS`].
    sample: Vec<Vec<u64>>,
}

fn lock_accum(slot: &ProfilerSlot) -> std::sync::MutexGuard<'_, Option<ProfileAccum>> {
    slot.accum.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CompiledFdd {
    /// Arms the sampling profiler: every `every`-th batch through the auto
    /// serving surfaces ([`CompiledFdd::classify_auto_into`],
    /// [`crate::LiveMatcher::classify_auto_into`]) is classified by the
    /// instrumented walk and accumulated. `every` is clamped to at least 1;
    /// the disarmed fast path costs one relaxed atomic load per batch.
    ///
    /// Arming keeps any previously accumulated counts; pair with
    /// [`CompiledFdd::take_profile`] to start fresh.
    pub fn arm_profiler(&self, every: u64) {
        self.profiler.every.store(every.max(1), Ordering::Relaxed);
        self.profiler.armed.store(true, Ordering::Release);
    }

    /// Disarms the profiler, keeping the accumulated profile readable.
    pub fn disarm_profiler(&self) {
        self.profiler.armed.store(false, Ordering::Release);
    }

    /// Whether the sampling profiler is armed.
    pub fn profiler_armed(&self) -> bool {
        self.profiler.armed.load(Ordering::Relaxed)
    }

    /// Packets accumulated by the profiler so far (0 when never armed).
    pub fn profiled_packets(&self) -> u64 {
        lock_accum(&self.profiler)
            .as_ref()
            .map_or(0, |a| a.profile.packets)
    }

    /// A copy of the accumulated profile, or `None` if nothing has been
    /// sampled yet. The profiler keeps accumulating.
    pub fn profile_snapshot(&self) -> Option<Profile> {
        lock_accum(&self.profiler)
            .as_ref()
            .map(|a| a.profile.clone())
    }

    /// Takes the accumulated profile, resetting the accumulator to empty.
    pub fn take_profile(&self) -> Option<Profile> {
        lock_accum(&self.profiler).take().map(|a| a.profile)
    }

    /// The most recent sampled batch's columns as a replayable batch, for
    /// recalibrating after a re-specialization. `None` until a batch has
    /// been sampled.
    pub(crate) fn profile_sample_batch(&self) -> Option<PacketBatch> {
        let guard = lock_accum(&self.profiler);
        let accum = guard.as_ref()?;
        if accum.sample.first().is_none_or(|c| c.is_empty()) {
            return None;
        }
        PacketBatch::from_columns(self.schema.clone(), accum.sample.clone()).ok()
    }

    /// The sampling arm consulted by auto serving: returns `Ok(false)`
    /// without touching `out` when this batch is not sampled (disarmed, or
    /// off-cycle), `Ok(true)` after classifying the whole batch through
    /// the instrumented walk and accumulating its profile.
    pub(crate) fn maybe_profile_into(
        &self,
        batch: &PacketBatch,
        out: &mut Vec<Decision>,
    ) -> Result<bool, ExecError> {
        if !self.profiler.armed.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let every = self.profiler.every.load(Ordering::Relaxed).max(1);
        let tick = self.profiler.tick.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(every) {
            return Ok(false);
        }
        let mut guard = lock_accum(&self.profiler);
        let accum = guard.get_or_insert_with(|| ProfileAccum {
            profile: Profile::new_for(self),
            sample: Vec::new(),
        });
        self.classify_profiled_into(batch, &mut accum.profile, out)?;
        let rows = batch.len().min(PROFILE_SAMPLE_ROWS);
        accum.sample.clear();
        accum
            .sample
            .extend(batch.columns_raw().iter().map(|c| c[..rows].to_vec()));
        Ok(true)
    }

    /// Classifies a batch through the instrumented column walk,
    /// accumulating into `profile`. Decision-identical to
    /// [`CompiledFdd::classify_columns_into`]; the only difference is the
    /// counter updates.
    ///
    /// # Errors
    ///
    /// [`ExecError::Model`] if `batch` follows a different schema, or if
    /// `profile` was sized for a different image.
    pub fn classify_profiled_into(
        &self,
        batch: &PacketBatch,
        profile: &mut Profile,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != self.schema() {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: self.schema().len(),
                found: batch.schema().len(),
            }));
        }
        if profile.node_visits.len() != self.nodes.len()
            || profile.cut_hits.len() != self.cuts.len()
        {
            return Err(ExecError::Batch(
                "profile was sized for a different image".into(),
            ));
        }
        let columns = batch.columns_raw();
        out.clear();
        out.reserve(batch.len());
        #[allow(clippy::needless_range_loop)] // `i` indexes a column picked per node
        for i in 0..batch.len() {
            let mut idx = self.root as usize;
            let d = loop {
                profile.node_visits[idx] += 1;
                let n = self.nodes[idx];
                match n.kind {
                    KIND_TERMINAL => break decision_from_u16(n.field),
                    KIND_JUMP => {
                        let v = columns[n.field as usize][i];
                        idx = self.jump[n.off as usize + v as usize] as usize;
                    }
                    _ => {
                        let v = columns[n.field as usize][i];
                        let off = n.off as usize;
                        let len = n.len as usize;
                        let c = lower_bound(&self.cuts[off..off + len], v);
                        profile.cut_hits[off + c] += 1;
                        idx = self.cut_targets[off + c] as usize;
                    }
                }
            };
            out.push(d);
        }
        profile.packets += batch.len() as u64;
        profile.batches += 1;
        Ok(())
    }

    /// Renders a human-readable profile report: sampling totals plus the
    /// `top` hottest nodes (by visits) and cut spans (by hits), each
    /// located by field name and arena position. This is what
    /// `fwclass --profile` prints and the exec bench uploads as an
    /// artifact.
    pub fn profile_report(&self, profile: &Profile, top: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "profile: {} packets over {} sampled batches, {} nodes, {} cut slots",
            profile.packets,
            profile.batches,
            profile.node_visits.len(),
            profile.cut_hits.len()
        );
        let field_name = |f: u16| {
            self.schema
                .get(fw_model::FieldId(f as usize))
                .map_or_else(|| format!("F{}", f + 1), |fd| fd.name().to_string())
        };
        let mut hot_nodes: Vec<usize> = (0..profile.node_visits.len())
            .filter(|&i| profile.node_visits[i] > 0)
            .collect();
        hot_nodes.sort_by_key(|&i| (std::cmp::Reverse(profile.node_visits[i]), i));
        let _ = writeln!(s, "hot nodes (top {top}):");
        for &i in hot_nodes.iter().take(top) {
            let n = self.nodes[i];
            let what = match n.kind {
                KIND_TERMINAL => format!("terminal {}", decision_from_u16(n.field)),
                KIND_JUMP => format!("jump on {} ({} entries)", field_name(n.field), n.len),
                _ => format!("search on {} ({} cuts)", field_name(n.field), n.len),
            };
            let _ = writeln!(
                s,
                "  node {i:>6}  visits {:>10}  level {}  {what}",
                profile.node_visits[i], n.level
            );
        }
        // Locate each hot cut slot inside its owning search node.
        let mut hot_cuts: Vec<usize> = (0..profile.cut_hits.len())
            .filter(|&c| profile.cut_hits[c] > 0)
            .collect();
        hot_cuts.sort_by_key(|&c| (std::cmp::Reverse(profile.cut_hits[c]), c));
        let mut owner = vec![u32::MAX; profile.cut_hits.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if n.kind != KIND_TERMINAL && n.kind != KIND_JUMP {
                for slot in n.off..n.off + n.len {
                    owner[slot as usize] = u32::try_from(i).expect("arena indexed by u32");
                }
            }
        }
        let _ = writeln!(s, "hot cut spans (top {top}):");
        for &c in hot_cuts.iter().take(top) {
            let node = owner[c] as usize;
            let n = self.nodes[node];
            let lo = if c == n.off as usize {
                0
            } else {
                self.cuts[c - 1] + 1
            };
            let _ = writeln!(
                s,
                "  node {node:>6} {}=[{lo},{}]  hits {:>10}",
                field_name(n.field),
                self.cuts[c],
                profile.cut_hits[c]
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    fn image_and_batch(seed: u64, n: usize) -> (CompiledFdd, PacketBatch) {
        let fw = fw_synth::Synthesizer::new(seed).firewall(25);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::biased(&fw, n, 0.3, seed + 1);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        (compiled, batch)
    }

    #[test]
    fn instrumented_walk_matches_plain_and_counts() {
        let (compiled, batch) = image_and_batch(7, 800);
        let mut profile = Profile::new_for(&compiled);
        let mut out = Vec::new();
        compiled
            .classify_profiled_into(&batch, &mut profile, &mut out)
            .unwrap();
        assert_eq!(out, compiled.classify_columns(&batch).unwrap());
        assert_eq!(profile.packets(), 800);
        assert_eq!(profile.batches(), 1);
        // Every packet visits the root and lands on a terminal.
        assert_eq!(profile.node_visits()[compiled.root as usize], 800);
        let terminal_visits: u64 = compiled
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == KIND_TERMINAL)
            .map(|(i, _)| profile.node_visits()[i])
            .sum();
        assert_eq!(terminal_visits, 800);
        // Search resolutions land somewhere in the cut histogram.
        let search_visits: u64 = compiled
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind != KIND_TERMINAL && n.kind != KIND_JUMP)
            .map(|(i, _)| profile.node_visits()[i])
            .sum();
        assert_eq!(profile.cut_hits().iter().sum::<u64>(), search_visits);
    }

    #[test]
    fn sampling_arm_is_one_in_n_and_agrees() {
        let (compiled, batch) = image_and_batch(9, 300);
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut out = Vec::new();
        assert!(!compiled.maybe_profile_into(&batch, &mut out).unwrap());
        compiled.arm_profiler(4);
        let mut sampled = 0;
        for _ in 0..8 {
            if compiled.maybe_profile_into(&batch, &mut out).unwrap() {
                sampled += 1;
                assert_eq!(out, expect);
            }
        }
        assert_eq!(sampled, 2, "1-in-4 over 8 batches");
        let profile = compiled.profile_snapshot().unwrap();
        assert_eq!(profile.batches(), 2);
        assert_eq!(profile.packets(), 600);
        // The retained sample replays as a batch.
        let sample = compiled.profile_sample_batch().unwrap();
        assert_eq!(sample.len(), 300);
        compiled.disarm_profiler();
        assert!(!compiled.maybe_profile_into(&batch, &mut out).unwrap());
        assert!(compiled.take_profile().is_some());
        assert!(compiled.profile_snapshot().is_none());
    }

    #[test]
    fn clone_resets_the_profiler() {
        let (compiled, batch) = image_and_batch(11, 100);
        compiled.arm_profiler(1);
        let mut out = Vec::new();
        compiled.maybe_profile_into(&batch, &mut out).unwrap();
        assert!(compiled.profile_snapshot().is_some());
        let cloned = compiled.clone();
        assert!(!cloned.profiler_armed());
        assert!(cloned.profile_snapshot().is_none());
        assert_eq!(cloned, compiled, "profiler state is outside image equality");
    }

    #[test]
    fn report_names_fields_and_orders_by_heat() {
        let fw = paper::team_a();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::biased(&fw, 500, 0.5, 3);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let mut profile = Profile::new_for(&compiled);
        let mut out = Vec::new();
        compiled
            .classify_profiled_into(&batch, &mut profile, &mut out)
            .unwrap();
        let report = compiled.profile_report(&profile, 5);
        assert!(report.contains("500 packets"));
        assert!(report.contains("hot nodes"));
        assert!(report.contains("hot cut spans"));
    }

    #[test]
    fn profiled_walk_rejects_mismatches() {
        let (compiled, batch) = image_and_batch(13, 50);
        let mut out = Vec::new();
        let mut wrong = Profile::default();
        assert!(matches!(
            compiled.classify_profiled_into(&batch, &mut wrong, &mut out),
            Err(ExecError::Batch(_))
        ));
        let other = PacketBatch::from_trace(
            fw_model::Schema::paper_example(),
            &[fw_model::Packet::new(vec![0, 0, 0, 0, 0])],
        )
        .unwrap();
        let mut profile = Profile::new_for(&compiled);
        assert!(matches!(
            compiled.classify_profiled_into(&other, &mut profile, &mut out),
            Err(ExecError::Model(_))
        ));
    }
}

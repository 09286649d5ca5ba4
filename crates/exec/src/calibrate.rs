//! Adaptive engine calibration: measure, don't guess.
//!
//! The runtime serves a batch one of two ways — the plain FDD walk, or the
//! level-synchronous lane kernel (serial or sharded across cores) — with
//! an optional decision cache in front, and no fixed choice wins
//! everywhere: the walk outruns the lane kernel on some shallow-diagram
//! trace shapes, and the cache pays only on skewed traffic. So the choice
//! is *calibrated*: a short micro-trial per (image, trace shape) races the
//! arms over a bounded sample of the real batch, and the caller keeps the
//! winning [`EngineChoice`] ([`crate::LiveMatcher`] holds its own).
//!
//! An arm is one candidate the calibrator times, and the race holds only
//! arms that can win on some workload: the walk (when the caller has the
//! diagram), the lane kernel at each thread count of the ladder, and the
//! cached arm. The row-major scalar and the column walk never won a bench
//! row; they remain as the reference engines the agreement oracles compare
//! against, not as arms.
//!
//! The trial is deterministic in everything but the clock. Arms are timed
//! in round-robin passes over a fixed sample prefix: each pass times every
//! arm once, so a slow stretch of a shared machine hits every arm alike
//! instead of whichever arm happened to run through it. Each arm keeps its
//! minimum over the passes (noise on a quiet machine is one-sided), and
//! ties break toward the earlier arm. Decisions never depend on the choice
//! at all: every arm is proven decision-identical by the agreement oracles,
//! so calibration can only change speed.
//!
//! The FWEX wire format deliberately carries no calibration — the machine
//! that decodes an image is not the machine (or the traffic) that encoded
//! it. Serving surfaces recalibrate on load ([`calibrate`]) or fall back to
//! [`EngineChoice::default`].

use std::time::Instant;

use fw_core::Fdd;
use fw_model::{Decision, Packet};
use serde::{Deserialize, Serialize};

use crate::kernel::resolve_threads;
use crate::{CompiledFdd, DecisionCache, ExecError, PacketBatch};

/// Packets of the sample prefix a calibration replays per timed pass —
/// enough to leave the noise floor, small enough that a full calibration
/// stays in the low milliseconds.
pub const CALIBRATE_SAMPLE: usize = 4096;

/// Round-robin timed passes; each arm keeps its minimum.
const CALIBRATE_PASSES: usize = 5;

/// One classification engine the runtime can route a batch through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// The plain FDD walk (`fw_core::Fdd::evaluate`): pointer-chasing but
    /// shallow, and unbeatable on diagrams small enough to live in L1.
    /// Routed to the lane kernel when the caller has no diagram.
    Walk,
    /// The level-synchronous lane kernel, serial at `threads <= 1`,
    /// span-sharded across scoped workers above that.
    Lanes,
}

impl EngineKind {
    /// Stable lowercase name, as reported in benches and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Walk => "walk",
            EngineKind::Lanes => "lanes",
        }
    }
}

/// A calibrated routing decision: which engine, across how many threads,
/// and whether a decision cache fronts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineChoice {
    /// The engine to route batches through.
    pub kind: EngineKind,
    /// Worker threads for [`EngineKind::Lanes`] (`1` = serial); the walk
    /// is always serial.
    pub threads: usize,
    /// Whether a [`crate::DecisionCache`] front end sits before `kind`
    /// (the engine then only classifies the misses). Routing through the
    /// cache is the caller's move — [`EngineChoice::classify_into`]
    /// ignores this flag and [`crate::LiveMatcher`] honours it. The fleet
    /// registry takes no engine choice: its shards serve through the
    /// pool's lane loop, behind a cache when one is enabled.
    pub cached: bool,
}

impl Default for EngineChoice {
    /// The uncalibrated fallback: the serial lane kernel, the fastest arm
    /// on 14 of 15 bench rows. No cache front end: memoizing only pays on
    /// skewed traffic, which must be measured, not presumed.
    fn default() -> EngineChoice {
        EngineChoice {
            kind: EngineKind::Lanes,
            threads: 1,
            cached: false,
        }
    }
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cached {
            f.write_str("cache+")?;
        }
        f.write_str(self.kind.name())?;
        if self.threads > 1 {
            write!(f, "/t{}", self.threads)?;
        }
        Ok(())
    }
}

/// One timed candidate from a calibration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// The candidate that was raced.
    pub choice: EngineChoice,
    /// Its best observed throughput over the sample, in Mpps.
    pub mpps: f64,
}

/// The result of one calibration run: the winner plus every candidate's
/// measurement, for reporting and regression tracking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The fastest candidate (ties break toward the earlier one in the
    /// fixed candidate order).
    pub choice: EngineChoice,
    /// Every candidate raced, in trial order.
    pub trials: Vec<Trial>,
    /// Packets in the sample prefix each pass replayed.
    pub sample: usize,
}

/// Reusable scratch for [`EngineChoice::classify_into`] and
/// [`EngineChoice::classify_cached_into`]: whichever engine the choice
/// routes to finds its working state here, so steady-state auto serving
/// allocates nothing per batch.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// One packet's gathered values, for the walk over a column batch.
    values: Vec<u64>,
    /// Miss-path buffers for the cached front end
    /// ([`EngineChoice::classify_cached_into`]).
    pub(crate) cache: crate::cache::CacheScratch,
}

impl EngineScratch {
    /// A fresh scratch. Allocates nothing until first use.
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }
}

impl EngineChoice {
    /// Routes one batch through the chosen engine, into a caller-provided
    /// buffer (cleared first).
    ///
    /// [`EngineKind::Walk`] needs the source diagram `walk`: it replays
    /// `rows` when given, else gathers each packet from the columns
    /// through a reused buffer. A walk without its diagram serves through
    /// the lane kernel: the decisions are identical on every engine, and
    /// the lane kernel is the fastest batch-native one.
    ///
    /// # Errors
    ///
    /// As for the routed engine ([`ExecError::Model`] on a schema
    /// mismatch).
    pub fn classify_into(
        &self,
        compiled: &CompiledFdd,
        walk: Option<&Fdd>,
        rows: Option<&[Packet]>,
        batch: &PacketBatch,
        scratch: &mut EngineScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        match (self.kind, walk, rows) {
            (EngineKind::Walk, Some(fdd), Some(rows)) => {
                out.clear();
                out.reserve(rows.len());
                out.extend(rows.iter().map(|p| fdd.evaluate(p)));
                Ok(())
            }
            (EngineKind::Walk, Some(fdd), None) => {
                if batch.schema() != compiled.schema() {
                    return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                        expected: compiled.schema().len(),
                        found: batch.schema().len(),
                    }));
                }
                let columns = batch.columns_raw();
                out.clear();
                out.reserve(batch.len());
                for i in 0..batch.len() {
                    scratch.values.clear();
                    scratch.values.extend(columns.iter().map(|c| c[i]));
                    out.push(fdd.evaluate_values(&scratch.values));
                }
                Ok(())
            }
            // The lane kernel, and a walk without its diagram.
            _ if self.threads > 1 => compiled.classify_lanes_par_into(batch, self.threads, out),
            _ => compiled.classify_lanes_into(batch, out),
        }
    }
}

/// Thread counts a calibration races on a machine with `max` cores:
/// powers of two up to `max`, plus `max` itself.
fn thread_ladder(max: usize) -> Vec<usize> {
    let mut ladder = vec![1usize];
    let mut t = 2;
    while t < max {
        ladder.push(t);
        t *= 2;
    }
    if max > 1 {
        ladder.push(max);
    }
    ladder
}

/// Races every arm over a bounded prefix of `batch` and returns the
/// fastest, with all measurements.
///
/// Arms, in fixed trial order: the plain walk (when `walk` is given; it
/// replays `rows` when those are given too), then the lane kernel at every
/// thread count on the ladder up to `max_threads` (`0` = all available
/// cores). One untimed pass per arm warms it up (and builds a decoded
/// image's lazy lane kernel outside the timings); then `CALIBRATE_PASSES` (five)
/// round-robin passes time every arm once each, and an arm's time is its
/// minimum over the passes. Ties break toward the earlier arm.
///
/// # Errors
///
/// Returns [`ExecError::Model`] if `batch` was built over a different
/// schema, and [`ExecError::Batch`] for an empty batch (nothing to
/// measure).
pub fn calibrate(
    compiled: &CompiledFdd,
    walk: Option<&Fdd>,
    rows: Option<&[Packet]>,
    batch: &PacketBatch,
    max_threads: usize,
) -> Result<Calibration, ExecError> {
    calibrate_with_cache(compiled, walk, rows, batch, max_threads, 0)
}

/// [`calibrate`] with one extra arm: the best uncached engine fronted by a
/// [`crate::DecisionCache`] of `cache_capacity` entries (skipped when
/// `cache_capacity` is zero).
///
/// The cached arm is a component race rather than a raw replay: one cold
/// fill pass over a throwaway cache leaves the sample's distinct tuples
/// resident, the round-robin passes time the pure hit path beside the
/// other arms, and the trial's reported figure is the projected
/// steady-state throughput at the sample's repetition rate (misses are
/// costed as the best uncached engine plus the probe/insert overhead). A
/// Zipf or replayed-flow sample elects the cache; a uniform-random sample
/// (every tuple distinct) projects below the best engine and rejects it.
/// The cached arm still goes through the agreement-checked
/// [`EngineChoice::classify_cached_into`] path, so like every other arm it
/// can only change speed, never decisions.
///
/// # Errors
///
/// As for [`calibrate`], plus any error from the cached arm's probe
/// machinery (never for a valid batch).
pub fn calibrate_with_cache(
    compiled: &CompiledFdd,
    walk: Option<&Fdd>,
    rows: Option<&[Packet]>,
    batch: &PacketBatch,
    max_threads: usize,
    cache_capacity: usize,
) -> Result<Calibration, ExecError> {
    if batch.schema() != compiled.schema() {
        return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
            expected: compiled.schema().len(),
            found: batch.schema().len(),
        }));
    }
    if batch.is_empty() {
        return Err(ExecError::Batch(
            "cannot calibrate over an empty batch".into(),
        ));
    }
    let sample_len = batch.len().min(CALIBRATE_SAMPLE);
    let sample = PacketBatch::from_columns(
        compiled.schema().clone(),
        batch
            .columns_raw()
            .iter()
            .map(|c| c[..sample_len].to_vec())
            .collect(),
    )?;
    let sample_rows = rows.map(|r| &r[..sample_len.min(r.len())]);

    let arm = |kind, threads| EngineChoice {
        kind,
        threads,
        cached: false,
    };
    let max = resolve_threads(max_threads);
    let mut arms: Vec<EngineChoice> = Vec::new();
    if walk.is_some() {
        arms.push(arm(EngineKind::Walk, 1));
    }
    arms.extend(
        thread_ladder(max)
            .into_iter()
            .map(|threads| arm(EngineKind::Lanes, threads)),
    );
    let mut scratch = EngineScratch::new();
    let mut out = Vec::new();
    // Warm-up pass: builds a decoded image's lazy kernel and faults the
    // sample in.
    for choice in &arms {
        choice.classify_into(compiled, walk, sample_rows, &sample, &mut scratch, &mut out)?;
    }
    // The cached arm's front end serves its misses through the default
    // engine. The batch front end partitions a whole batch into hits and
    // misses before any insert lands, so a cold pass can never hit — timing
    // cold passes would reject the cache on every trace shape. Instead one
    // cold fill pass leaves the sample's *distinct* tuples resident
    // (inserts refresh matching slots, so the resident count is the
    // distinct count), and the timed passes measure the pure hit path.
    let hit_path = EngineChoice::default().with_cache();
    let mut cache = match cache_capacity {
        0 => None,
        capacity => {
            let mut cache = DecisionCache::new(compiled.schema().clone(), capacity)?;
            hit_path.classify_cached_into(
                compiled,
                None,
                &sample,
                &mut cache,
                &mut scratch,
                &mut out,
            )?;
            Some(cache)
        }
    };
    let distinct = cache.as_ref().map_or(0, |c| c.len().min(sample_len));

    let mut secs = vec![f64::INFINITY; arms.len()];
    let mut hit_secs = f64::INFINITY;
    for _ in 0..CALIBRATE_PASSES {
        for (choice, best) in arms.iter().zip(&mut secs) {
            let t = Instant::now();
            choice.classify_into(compiled, walk, sample_rows, &sample, &mut scratch, &mut out)?;
            std::hint::black_box(out.len());
            *best = best.min(t.elapsed().as_secs_f64());
        }
        if let Some(cache) = cache.as_mut() {
            let t = Instant::now();
            hit_path.classify_cached_into(
                compiled,
                None,
                &sample,
                cache,
                &mut scratch,
                &mut out,
            )?;
            std::hint::black_box(out.len());
            hit_secs = hit_secs.min(t.elapsed().as_secs_f64());
        }
    }

    let mpps = |secs: f64| sample_len as f64 / secs / 1e6;
    let mut trials: Vec<Trial> = arms
        .iter()
        .zip(&secs)
        .map(|(&choice, &s)| Trial {
            choice,
            mpps: mpps(s),
        })
        .collect();
    // Strict `>` keeps the earlier arm on ties — deterministic given equal
    // clocks. The ladder always holds the serial lane kernel, so `trials`
    // is never empty.
    let mut best = 0;
    for (i, t) in trials.iter().enumerate() {
        if t.mpps > trials[best].mpps {
            best = i;
        }
    }
    let (mut best_choice, best_mpps) = (trials[best].choice, trials[best].mpps);
    if cache.is_some() {
        // The cached trial's figure is the projected steady-state
        // throughput at the sample's repetition rate: hits serve at the
        // measured hit speed, misses pay the best uncached engine *plus*
        // the probe/insert overhead (approximated by the hit-path cost). A
        // uniform-random sample has distinct == sample_len, projects
        // strictly below the best engine, and rejects the cache; a skewed
        // sample's repeated flows project above it and elect the cache.
        let hit_mpps = mpps(hit_secs);
        let hit_rate = 1.0 - distinct as f64 / sample_len as f64;
        let miss_cost = 1.0 / best_mpps + 1.0 / hit_mpps;
        let projected = 1.0 / (hit_rate / hit_mpps + (1.0 - hit_rate) * miss_cost);
        let candidate = best_choice.with_cache();
        trials.push(Trial {
            choice: candidate,
            mpps: projected,
        });
        if projected > best_mpps {
            best_choice = candidate;
        }
    }
    Ok(Calibration {
        choice: best_choice,
        trials,
        sample: sample_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(rules: usize, n: usize, seed: u64) -> (fw_model::Firewall, CompiledFdd, PacketBatch) {
        let fw = fw_synth::Synthesizer::new(seed).firewall(rules);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), n, seed + 1);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        (fw, compiled, batch)
    }

    fn choice(kind: EngineKind, threads: usize) -> EngineChoice {
        EngineChoice {
            kind,
            threads,
            cached: false,
        }
    }

    #[test]
    fn calibration_races_all_candidates_and_picks_a_winner() {
        let (fw, compiled, batch) = setup(30, 600, 15);
        let fdd = fw_core::Fdd::from_firewall_fast(&fw).unwrap().reduced();
        let trace: Vec<fw_model::Packet> = (0..batch.len()).map(|i| batch.packet(i)).collect();
        let cal = calibrate(&compiled, Some(&fdd), Some(&trace), &batch, 2).unwrap();
        // The walk, then the lane kernel at every rung of ladder(2).
        let arms: Vec<EngineChoice> = cal.trials.iter().map(|t| t.choice).collect();
        assert_eq!(
            arms,
            [
                choice(EngineKind::Walk, 1),
                choice(EngineKind::Lanes, 1),
                choice(EngineKind::Lanes, 2)
            ]
        );
        assert_eq!(cal.sample, 600);
        assert!(cal.trials.iter().any(|t| t.choice == cal.choice));
        let best = cal.trials.iter().map(|t| t.mpps).fold(0.0, f64::max);
        let winner = cal.trials.iter().find(|t| t.choice == cal.choice).unwrap();
        assert!(winner.mpps >= best, "winner must have the best trial time");
        // Without the diagram, only the lane kernel races.
        let lanes_only = calibrate(&compiled, None, None, &batch, 1).unwrap();
        assert_eq!(lanes_only.trials.len(), 1);
        assert_eq!(lanes_only.choice, EngineChoice::default());
    }

    #[test]
    fn every_choice_serves_identically() {
        let (fw, compiled, batch) = setup(25, 401, 77);
        let fdd = fw_core::Fdd::from_firewall_fast(&fw).unwrap().reduced();
        let rows: Vec<fw_model::Packet> = (0..batch.len()).map(|i| batch.packet(i)).collect();
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        let choices = [
            choice(EngineKind::Walk, 1),
            choice(EngineKind::Lanes, 1),
            choice(EngineKind::Lanes, 4),
        ];
        for choice in choices {
            // With rows and walk available.
            choice
                .classify_into(
                    &compiled,
                    Some(&fdd),
                    Some(&rows),
                    &batch,
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
            assert_eq!(out, expect, "{choice} with rows");
            // Batch-only: the walk gathers from columns.
            choice
                .classify_into(&compiled, Some(&fdd), None, &batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "{choice} batch-only");
            choice
                .classify_into(&compiled, None, None, &batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "{choice} without a diagram");
        }
    }

    /// A walk without its diagram serves through the lane kernel, which
    /// builds a decoded image's lazy kernel.
    #[test]
    fn a_walk_without_its_diagram_serves_through_the_lane_kernel() {
        let (fw, compiled, batch) = setup(25, 300, 41);
        let expect = compiled.classify_columns(&batch).unwrap();
        let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
        assert!(!decoded.lanes_built());
        let mut out = Vec::new();
        choice(EngineKind::Walk, 1)
            .classify_into(
                &decoded,
                None,
                None,
                &batch,
                &mut EngineScratch::new(),
                &mut out,
            )
            .unwrap();
        assert_eq!(out, expect);
        assert!(decoded.lanes_built(), "the walk ran the lane kernel");
    }

    #[test]
    fn cached_candidate_joins_the_race_and_serves_identically() {
        let (fw, compiled, batch) = setup(25, 900, 21);
        let cal = calibrate_with_cache(&compiled, None, None, &batch, 1, 1 << 10).unwrap();
        // The serial lane kernel + the cached arm.
        assert_eq!(cal.trials.len(), 2);
        let last = cal.trials.last().unwrap();
        assert!(last.choice.cached, "the cached arm races last");
        assert_eq!(last.choice.to_string(), "cache+lanes");
        assert_eq!(
            cal.trials.iter().filter(|t| t.choice.cached).count(),
            1,
            "exactly one cached candidate"
        );
        // Plain calibrate never races the cache.
        let base = calibrate(&compiled, None, None, &batch, 1).unwrap();
        assert!(base.trials.iter().all(|t| !t.choice.cached));
        // Whatever won, serving through the cached front end is identical.
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut cache = crate::DecisionCache::new(fw.schema().clone(), 1 << 10).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        cal.choice
            .classify_cached_into(&compiled, None, &batch, &mut cache, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn choices_name_their_engine_threads_and_cache() {
        assert_eq!(EngineChoice::default().to_string(), "lanes");
        assert_eq!(choice(EngineKind::Lanes, 2).to_string(), "lanes/t2");
        assert_eq!(
            choice(EngineKind::Walk, 1).with_cache().to_string(),
            "cache+walk"
        );
    }

    #[test]
    fn thread_ladder_is_monotone_and_capped() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn calibrate_rejects_empty_and_mismatched_batches() {
        let (fw, compiled, _) = setup(10, 16, 2);
        let empty = PacketBatch::from_trace(fw.schema().clone(), &[]).unwrap();
        assert!(matches!(
            calibrate(&compiled, None, None, &empty, 1),
            Err(ExecError::Batch(_))
        ));
        let other = PacketBatch::from_trace(
            fw_model::Schema::paper_example(),
            &[fw_model::Packet::new(vec![0, 0, 0, 0, 0])],
        )
        .unwrap();
        assert!(matches!(
            calibrate(&compiled, None, None, &other, 1),
            Err(ExecError::Model(_))
        ));
    }
}

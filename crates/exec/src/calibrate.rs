//! Adaptive engine calibration: measure, don't guess.
//!
//! The runtime serves a batch through the lane kernel, serial or sharded
//! across cores, with an optional decision cache in front, and no fixed
//! choice wins everywhere: a second worker pays only on batches large
//! enough to cover its spawn, and the cache pays only on traffic that
//! repeats. So the choice is *calibrated*: a short micro-trial per (image,
//! trace shape) races the arms over a bounded sample of the real batch, and
//! the caller keeps the winning [`EngineChoice`] ([`crate::LiveMatcher`]
//! holds its own).
//!
//! An arm is one candidate the calibrator times, and the race holds only
//! arms that can win: the lane kernel at each thread count of the ladder,
//! and the cached arm. The plain FDD walk, the row-major scalar and the
//! column walk never won a bench row; they remain as the reference engines
//! the agreement oracles compare against, not as arms.
//!
//! The cached arm starts from the sample, not the clock. Its steady-state
//! hit rate is estimated from how often the sample's tuples repeat
//! ([`Calibration::hit_rate`]); a sample that repeats no tuple estimates
//! 0 and rejects the cache without a trial, because at a zero hit rate the
//! cached arm costs the engine plus a probe per packet whatever the
//! timings. A sample with repeats times its hit path in the caller's own
//! cache and elects it only past the noise of the serial rung, the one
//! the single-threaded hit path is timed beside.
//!
//! The trial is deterministic in everything but the clock. Arms are timed
//! in round-robin passes over a fixed sample prefix: each pass times every
//! arm once, so a slow stretch of a shared machine hits every arm alike
//! instead of whichever arm happened to run through it. Each arm keeps its
//! minimum over the passes (noise on a quiet machine is one-sided), and an
//! arm displaces the serial lane kernel, the default, only by beating it
//! past that rung's spread over the passes. Decisions never depend on the choice
//! at all: every arm is proven decision-identical by the agreement oracles,
//! so calibration can only change speed.
//!
//! The FWEX wire format deliberately carries no calibration — the machine
//! that decodes an image is not the machine (or the traffic) that encoded
//! it. Serving surfaces recalibrate on load ([`calibrate`]) or fall back to
//! [`EngineChoice::default`].

use std::borrow::Cow;
use std::time::Instant;

use fw_core::Fdd;
use fw_model::{Decision, Packet};
use serde::{Deserialize, Serialize};

use crate::cache::mix;
use crate::kernel::resolve_threads;
use crate::{CompiledFdd, DecisionCache, ExecError, PacketBatch};

/// Packets of the sample prefix a calibration replays per timed pass —
/// enough to leave the noise floor, small enough that a full calibration
/// stays in the low milliseconds.
pub const CALIBRATE_SAMPLE: usize = 4096;

/// Round-robin timed passes; each arm keeps its minimum.
const CALIBRATE_PASSES: usize = 5;

/// A calibrated routing decision: the lane kernel across how many
/// threads, and whether a decision cache fronts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineChoice {
    /// Lane-kernel worker threads (`1` = serial).
    pub threads: usize,
    /// Whether a [`crate::DecisionCache`] front end sits before the lane
    /// kernel (the kernel then only classifies the misses). Routing
    /// through the cache is the caller's move —
    /// [`EngineChoice::classify_into`] ignores this flag and
    /// [`crate::LiveMatcher`] honours it. The fleet registry takes no
    /// engine choice: its shards serve through the pool's lane loop, behind
    /// a cache when one is enabled.
    pub cached: bool,
}

impl Default for EngineChoice {
    /// The uncalibrated fallback: the serial lane kernel. No cache front
    /// end: memoizing only pays on traffic that repeats, which must be
    /// measured, not presumed.
    fn default() -> EngineChoice {
        EngineChoice {
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
        f.write_str("lanes")?;
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
    /// Its best observed throughput over the sample, in Mpps (for the
    /// cached arm, the projection at [`Calibration::hit_rate`]).
    pub mpps: f64,
}

/// The result of one calibration run: the winner plus every candidate's
/// measurement, for reporting and regression tracking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The elected candidate: the serial lane kernel, or the fastest rung
    /// that beat it by more than its spread over the passes, behind the
    /// cache if the cached arm beat that rung by more than the same spread.
    pub choice: EngineChoice,
    /// Every candidate raced, in trial order.
    pub trials: Vec<Trial>,
    /// Packets in the sample prefix each pass replayed.
    pub sample: usize,
    /// The sample's steady-state hit estimate: the share of its packets
    /// whose field tuple occurs in it more than once, Good–Turing's
    /// `1 − N₁/n` for `N₁` tuples seen once among `n` packets. A cache
    /// that keeps what it has seen hits about this share of the packets
    /// that follow; a cold pass over the sample hits only
    /// `1 − distinct/n`. `0` for a sample without a repeated tuple.
    pub hit_rate: f64,
}

/// Reusable scratch for [`EngineChoice::classify_into`] and
/// [`EngineChoice::classify_cached_into`]: the cached front end finds its
/// miss-path buffers here, so steady-state auto serving allocates nothing
/// per batch.
#[derive(Debug, Default)]
pub struct EngineScratch {
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
    /// Routes one batch through the lane kernel at this choice's thread
    /// count, into a caller-provided buffer (cleared first).
    ///
    /// `walk`, `rows` and `scratch` are ignored: the lane kernel needs
    /// none of them. They stay in the signature because the benchmark
    /// harness (`perfbench/`) passes them, until its next change drops
    /// them (ROADMAP item 3).
    ///
    /// # Errors
    ///
    /// [`ExecError::Model`] on a schema mismatch.
    pub fn classify_into(
        &self,
        compiled: &CompiledFdd,
        _walk: Option<&Fdd>,
        _rows: Option<&[Packet]>,
        batch: &PacketBatch,
        _scratch: &mut EngineScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        compiled.classify_lanes_par_into(batch, self.threads, out)
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

/// [`Calibration::hit_rate`] of `sample`. Tuples are told apart by a
/// 64-bit hash of their fields, so a collision could only merge two of
/// them into one repeated tuple and raise the estimate; it never touches a
/// decision.
fn steady_hit_rate(sample: &PacketBatch) -> f64 {
    let mut hashes = vec![0u64; sample.len()];
    for column in sample.columns_raw() {
        for (h, &v) in hashes.iter_mut().zip(column) {
            *h = mix(*h, v);
        }
    }
    hashes.sort_unstable();
    let singletons = hashes.chunk_by(|a, b| a == b).filter(|run| run.len() == 1);
    1.0 - singletons.count() as f64 / hashes.len().max(1) as f64
}

/// Races the arms over a bounded prefix of `batch` and returns the
/// winner, with all measurements.
///
/// Arms: the lane kernel at every thread count on the ladder up to
/// `max_threads` (`0` = all available cores), and the elected rung behind
/// `cache`, reported in that order. One untimed pass per rung warms it up
/// (and builds a decoded image's lazy lane kernel outside the timings);
/// then `CALIBRATE_PASSES` (five) round-robin passes time every arm once
/// each, the cached arm first, and an arm's time is its minimum over the
/// passes.
///
/// An arm displaces the serial lane kernel, the default, only by beating
/// it by more than the serial rung's spread: the median absolute
/// deviation of its five times, which one lucky-fast or preempted pass
/// does not move. The serial rung sets the margin for every arm because
/// its passes carry only the machine's noise, which the single-threaded
/// hit path shares; a rung with more threads also pays a spawn and a
/// second core's wake-up in each pass. So the elected rung is the fastest
/// of those that beat the serial rung by more than its spread, or the
/// serial rung itself.
///
/// The cached arm races only when `cache` is given and the sample repeats
/// some tuple ([`Calibration::hit_rate`] above zero). Its front end
/// partitions a batch into hits and misses before any insert lands, so an
/// untimed fill pass first leaves the sample's distinct tuples resident in
/// `cache`, a second warms the hit path up, and the timed passes measure
/// the hit path alone. The arm's projected time per sample prices every
/// packet at a probe and the estimated misses at the elected rung too; the
/// cache is elected if that beats the rung by more than the spread.
/// `cache` keeps the fill's entries, which are `compiled`'s decisions, and
/// its counters include the trial's probes.
///
/// # Errors
///
/// Returns [`ExecError::Model`] if `batch` was built over a different
/// schema, [`ExecError::Batch`] for an empty batch (nothing to measure),
/// and [`ExecError::Invariant`] if `cache` ranges over another schema.
pub fn calibrate(
    compiled: &CompiledFdd,
    batch: &PacketBatch,
    max_threads: usize,
    cache: Option<&mut DecisionCache>,
) -> Result<Calibration, ExecError> {
    Sample::new(compiled, batch)?.race(compiled, max_threads, cache)
}

/// The prefix of a batch that a calibration replays, with its hit
/// estimate: [`calibrate`] in two steps, so that [`crate::LiveMatcher`]
/// locks its cache only for a race that times it.
pub(crate) struct Sample<'a> {
    packets: Cow<'a, PacketBatch>,
    hit_rate: f64,
}

impl<'a> Sample<'a> {
    /// The first [`CALIBRATE_SAMPLE`] packets of `batch`, and their
    /// [`Calibration::hit_rate`].
    ///
    /// # Errors
    ///
    /// As for [`calibrate`]: a schema mismatch or an empty batch.
    pub(crate) fn new(
        compiled: &CompiledFdd,
        batch: &'a PacketBatch,
    ) -> Result<Sample<'a>, ExecError> {
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
        let packets = if batch.len() <= CALIBRATE_SAMPLE {
            Cow::Borrowed(batch)
        } else {
            Cow::Owned(PacketBatch::from_columns(
                batch.schema().clone(),
                batch
                    .columns_raw()
                    .iter()
                    .map(|c| c[..CALIBRATE_SAMPLE].to_vec())
                    .collect(),
            )?)
        };
        let hit_rate = steady_hit_rate(&packets);
        Ok(Sample { packets, hit_rate })
    }

    /// Whether the sample repeats some tuple, so that a cached arm races.
    pub(crate) fn repeats(&self) -> bool {
        self.hit_rate > 0.0
    }

    /// [`calibrate`]'s race over this sample.
    ///
    /// # Errors
    ///
    /// As for [`calibrate`].
    pub(crate) fn race(
        &self,
        compiled: &CompiledFdd,
        max_threads: usize,
        cache: Option<&mut DecisionCache>,
    ) -> Result<Calibration, ExecError> {
        if cache
            .as_ref()
            .is_some_and(|c| c.schema() != compiled.schema())
        {
            return Err(ExecError::Invariant(
                "decision cache and compiled image schemas differ".into(),
            ));
        }
        let mut cache = cache.filter(|_| self.repeats());
        let sample = &*self.packets;
        let arms: Vec<EngineChoice> = thread_ladder(resolve_threads(max_threads))
            .into_iter()
            .map(|threads| EngineChoice {
                threads,
                cached: false,
            })
            .collect();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        for choice in &arms {
            choice.classify_into(compiled, None, None, sample, &mut scratch, &mut out)?;
        }
        // The cached arm's misses go through the serial kernel, the default.
        // Its first pass fills the cache, its second warms the hit path up.
        let hit_path = EngineChoice::default().with_cache();
        if let Some(cache) = cache.as_deref_mut() {
            for _ in 0..2 {
                hit_path.classify_cached_into(compiled, sample, cache, &mut scratch, &mut out)?;
            }
        }

        // Each pass times the hit path first, so its first timed pass
        // follows its warm-up directly, as cached batches follow one
        // another in serving; right after a lane pass it finds part of its
        // table evicted.
        let mut secs = vec![[0.0f64; CALIBRATE_PASSES]; arms.len()];
        let mut hit_secs = f64::INFINITY;
        for pass in 0..CALIBRATE_PASSES {
            if let Some(cache) = cache.as_deref_mut() {
                let t = Instant::now();
                hit_path.classify_cached_into(compiled, sample, cache, &mut scratch, &mut out)?;
                std::hint::black_box(out.len());
                hit_secs = hit_secs.min(t.elapsed().as_secs_f64());
            }
            for (choice, times) in arms.iter().zip(&mut secs) {
                let t = Instant::now();
                choice.classify_into(compiled, None, None, sample, &mut scratch, &mut out)?;
                std::hint::black_box(out.len());
                times[pass] = t.elapsed().as_secs_f64();
            }
        }
        for times in &mut secs {
            times.sort_unstable_by(f64::total_cmp);
        }

        let mpps = |secs: f64| sample.len() as f64 / secs / 1e6;
        let mut trials: Vec<Trial> = arms
            .iter()
            .zip(&secs)
            .map(|(&choice, times)| Trial {
                choice,
                mpps: mpps(times[0]),
            })
            .collect();
        // The ladder starts at the serial kernel, so `secs[0]` is its times.
        let (best, cached) = elect(&secs, cache.is_some().then_some(hit_secs), self.hit_rate);
        let mut choice = arms[best];
        if let Some((projected, elected)) = cached {
            trials.push(Trial {
                choice: choice.with_cache(),
                mpps: mpps(projected),
            });
            choice.cached = elected;
        }
        Ok(Calibration {
            choice,
            trials,
            sample: sample.len(),
            hit_rate: self.hit_rate,
        })
    }
}

/// The election over each rung's sorted pass times, the serial rung's
/// first. An arm displaces the serial default only by beating it past
/// the serial rung's spread: the fastest rung that beats it by more than
/// that (or the serial rung itself), and, when the hit path was timed
/// (`hit`, its fastest pass), the cached arm's projected time per sample
/// and whether it beats the elected rung by more than the same spread.
fn elect(
    secs: &[[f64; CALIBRATE_PASSES]],
    hit: Option<f64>,
    hit_rate: f64,
) -> (usize, Option<(f64, bool)>) {
    let serial = secs[0];
    let median = serial[CALIBRATE_PASSES / 2];
    let mut deviations = serial.map(|t| (t - median).abs());
    deviations.sort_unstable_by(f64::total_cmp);
    let spread = deviations[CALIBRATE_PASSES / 2];
    let mut best = 0;
    for (i, times) in secs.iter().enumerate() {
        if times[0] < secs[best][0] && times[0] < serial[0] - spread {
            best = i;
        }
    }
    let cached = hit.map(|hit| {
        let projected = hit + (1.0 - hit_rate) * secs[best][0];
        (projected, projected < secs[best][0] - spread)
    });
    (best, cached)
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

    fn zipf_batch(fw: &fw_model::Firewall, n: usize, seed: u64) -> PacketBatch {
        let trace = fw_synth::PacketTrace::zipf(fw, n, 1.0, seed, seed + 1);
        PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap()
    }

    fn lanes(threads: usize) -> EngineChoice {
        EngineChoice {
            threads,
            cached: false,
        }
    }

    #[test]
    fn calibration_races_every_rung_and_elects_one() {
        let (_, compiled, batch) = setup(30, 600, 15);
        let cal = calibrate(&compiled, &batch, 2, None).unwrap();
        let arms: Vec<EngineChoice> = cal.trials.iter().map(|t| t.choice).collect();
        let rungs: Vec<EngineChoice> = thread_ladder(resolve_threads(2))
            .into_iter()
            .map(lanes)
            .collect();
        assert_eq!(arms, rungs, "one arm per rung, no cached arm");
        assert_eq!(cal.sample, 600);
        // The serial rung, or one that beat it.
        let winner = cal.trials.iter().find(|t| t.choice == cal.choice).unwrap();
        assert!(winner.mpps >= cal.trials[0].mpps);
        let serial = calibrate(&compiled, &batch, 1, None).unwrap();
        assert_eq!(serial.trials.len(), 1);
        assert_eq!(serial.choice, EngineChoice::default());
    }

    #[test]
    fn every_choice_serves_identically() {
        let (fw, compiled, batch) = setup(25, 401, 77);
        let fdd = fw_core::Fdd::from_firewall_fast(&fw).unwrap();
        let rows: Vec<fw_model::Packet> = (0..batch.len()).map(|i| batch.packet(i)).collect();
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        for threads in [1, 4] {
            let choice = lanes(threads);
            // The diagram and rows are ignored.
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
            choice
                .classify_into(&compiled, None, None, &batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "{choice} batch-only");
        }
    }

    /// Routing a decoded image builds its lazy lane kernel.
    #[test]
    fn routing_builds_a_decoded_images_lane_kernel() {
        let (fw, compiled, batch) = setup(25, 300, 41);
        let expect = compiled.classify_columns(&batch).unwrap();
        let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
        assert!(!decoded.lanes_built());
        let mut out = Vec::new();
        EngineChoice::default()
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
        assert!(decoded.lanes_built());
    }

    #[test]
    fn steady_hit_rate_is_the_share_of_packets_whose_tuple_repeats() {
        // Tuples a, a, a, b, c, c, d: b and d are seen once.
        let schema = fw_model::paper::team_a().schema().clone();
        let tuple = |v: u64| fw_model::Packet::new(vec![0, v, v, 25, 0]);
        let packets: Vec<_> = [1, 1, 1, 2, 3, 3, 4].into_iter().map(tuple).collect();
        let batch = PacketBatch::from_trace(schema, &packets).unwrap();
        assert!((steady_hit_rate(&batch) - (1.0 - 2.0 / 7.0)).abs() < 1e-12);

        // Uniform packets never repeat.
        for seed in [3, 4, 5] {
            let (_, _, batch) = setup(20, CALIBRATE_SAMPLE, seed);
            assert_eq!(steady_hit_rate(&batch), 0.0, "seed {seed}");
        }

        // Zipf samples of 4,096 packets over 4,096 flows: above the cold
        // pass's `1 − distinct/n`, below 1.
        for seed in [6, 7, 8] {
            let fw = fw_synth::Synthesizer::new(seed).firewall(40);
            let trace = fw_synth::PacketTrace::zipf(&fw, 16 * CALIBRATE_SAMPLE, 1.0, seed, seed);
            let head = &trace.packets()[..CALIBRATE_SAMPLE];
            let batch = PacketBatch::from_trace(fw.schema().clone(), head).unwrap();
            let n = batch.len();
            let distinct: std::collections::HashSet<_> = head.iter().collect();
            let cold = 1.0 - distinct.len() as f64 / n as f64;
            let steady = steady_hit_rate(&batch);
            assert!(
                cold < steady && steady < 1.0,
                "seed {seed}: {cold} {steady}"
            );
        }
    }

    /// A sample without a repeated tuple rejects the cache with no trial:
    /// no cached arm races, and the cache is left untouched.
    #[test]
    fn a_sample_without_repeats_races_no_cached_arm() {
        for seed in [11, 12, 13] {
            let (fw, compiled, batch) = setup(25, 2_000, seed);
            let mut cache = DecisionCache::new(fw.schema().clone(), 1 << 12).unwrap();
            let cal = calibrate(&compiled, &batch, 1, Some(&mut cache)).unwrap();
            assert_eq!(cal.hit_rate, 0.0);
            assert!(!cal.choice.cached);
            assert!(cal.trials.iter().all(|t| !t.choice.cached));
            assert!(cache.is_empty());
            assert_eq!(cache.stats(), crate::CacheStats::default());
        }
    }

    #[test]
    fn cached_candidate_joins_the_race_and_serves_identically() {
        let fw = fw_synth::Synthesizer::new(21).firewall(25);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let batch = zipf_batch(&fw, 900, 21);
        let mut cache = DecisionCache::new(fw.schema().clone(), 1 << 10).unwrap();
        let cal = calibrate(&compiled, &batch, 1, Some(&mut cache)).unwrap();
        assert!(cal.hit_rate > 0.0);
        // The serial lane kernel, then the cached arm.
        let arms: Vec<String> = cal.trials.iter().map(|t| t.choice.to_string()).collect();
        assert_eq!(arms, ["lanes", "cache+lanes"]);
        // The fill left correct decisions resident.
        assert!(!cache.is_empty());
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        cal.choice
            .classify_cached_into(&compiled, &batch, &mut cache, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expect);
        // Without a cache, no cached arm races.
        let base = calibrate(&compiled, &batch, 1, None).unwrap();
        assert!(base.trials.iter().all(|t| !t.choice.cached));
    }

    /// Every arm's margin is the serial rung's spread: a two-thread rung
    /// that won by one fast pass, its passes spread by a fifth of its
    /// time, neither blocks nor flips a cache that beats it by 19%.
    #[test]
    fn arms_are_elected_past_the_serial_rungs_spread() {
        // Median absolute deviations: 1 and 20.
        let serial = [100.0, 101.0, 101.0, 102.0, 110.0];
        let jittery = [95.0, 120.0, 130.0, 150.0, 200.0];
        // 66.5 + (1 − 0.9) · 95 = 76, 19 below the two-thread rung.
        let (best, cached) = elect(&[serial, jittery], Some(66.5), 0.9);
        assert_eq!(best, 1);
        let (projected, elected) = cached.unwrap();
        assert!((projected - 76.0).abs() < 1e-9);
        assert!(elected);

        // A serial rung spread by 4: 3 faster stays uncached, 5 faster wins.
        let serial = [100.0, 104.0, 108.0, 112.0, 130.0];
        assert_eq!(elect(&[serial], Some(47.0), 0.5), (0, Some((97.0, false))));
        assert_eq!(elect(&[serial], Some(45.0), 0.5), (0, Some((95.0, true))));

        // A serial rung spread by 2 at 100: a rung 3 faster displaces it,
        // one 1 faster does not, and without a timed hit path nothing is
        // projected.
        let serial = [100.0, 102.0, 104.0, 106.0, 120.0];
        assert_eq!(elect(&[serial, [97.0; 5]], None, 0.9), (1, None));
        assert_eq!(elect(&[serial, [99.0; 5]], None, 0.9), (0, None));
        assert_eq!(elect(&[[100.0; 5], [100.0; 5]], None, 0.9), (0, None));
    }

    /// A cache over another schema is refused even when the sample has no
    /// repeats and so races no cached arm.
    #[test]
    fn a_cache_over_another_schema_is_refused() {
        let (_, compiled, batch) = setup(20, 500, 31);
        assert_eq!(steady_hit_rate(&batch), 0.0);
        let mut other = DecisionCache::new(fw_model::Schema::paper_example(), 64).unwrap();
        assert!(matches!(
            calibrate(&compiled, &batch, 1, Some(&mut other)),
            Err(ExecError::Invariant(_))
        ));
    }

    #[test]
    fn choices_name_their_threads_and_cache() {
        assert_eq!(EngineChoice::default().to_string(), "lanes");
        assert_eq!(lanes(2).to_string(), "lanes/t2");
        assert_eq!(lanes(1).with_cache().to_string(), "cache+lanes");
        assert_eq!(lanes(4).with_cache().to_string(), "cache+lanes/t4");
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
            calibrate(&compiled, &empty, 1, None),
            Err(ExecError::Batch(_))
        ));
        let other = PacketBatch::from_trace(
            fw_model::Schema::paper_example(),
            &[fw_model::Packet::new(vec![0, 0, 0, 0, 0])],
        )
        .unwrap();
        assert!(matches!(
            calibrate(&compiled, &other, 1, None),
            Err(ExecError::Model(_))
        ));
    }
}

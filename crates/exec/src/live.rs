//! Online serving with atomic image hot-swap.
//!
//! A [`LiveMatcher`] owns the policy being served and publishes its
//! compiled image behind an [`Arc`]: readers take a cheap clone of the
//! current pointer ([`LiveMatcher::load`]) and classify against that
//! snapshot for as long as they like; an edit builds the next image off to
//! the side and swaps the pointer when it is ready. In-flight
//! `classify`/`classify_lanes` calls finish on the image they started with
//! — a swap never invalidates a snapshot, it only stops handing it out.
//!
//! The swap itself is a pointer store under a [`RwLock`] — the hand-rolled
//! equivalent of an `arc-swap` within this crate's `forbid(unsafe_code)`:
//! readers hold the read lock only for the nanoseconds of an `Arc` clone
//! (never during classification), and the single writer holds the write
//! lock only for the store. Writers serialize on the policy mutex for the
//! whole edit→impact→compile pipeline, so concurrent edit batches apply
//! in a definite order; the [`epoch`](LiveMatcher::epoch) counter ticks
//! once per published image for cheap change detection.
//!
//! Batch serving routes through the adaptive engine:
//! [`LiveMatcher::calibrate`] races the lane kernel at each thread count
//! and, with a cache enabled, the cached arm over a live traffic sample
//! and installs the winner, and [`LiveMatcher::classify_auto_into`] serves
//! each batch through that choice against one coherent snapshot.
//!
//! The write path rebuilds. The matcher keeps only the rule list and the
//! published (image, diagram) pair. An edit batch is staged on one copy of
//! the rule list, the new diagram is built by fast construction
//! ([`Fdd::from_firewall_fast`]), and [`ChangeImpact::between_diagrams`]
//! diffs it against the published diagram in a throwaway hash-consed arena,
//! where the walk skips every subgraph the two share. Only a batch that
//! changes some decision compiles the new diagram ([`CompiledFdd::compile`],
//! no arena export), publishes the pair and invalidates the cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use fw_core::{ChangeImpact, Edit, Fdd, MaintainStats};
use fw_model::{Decision, Firewall, Packet};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, DecisionCache, InvalidationReport};
use crate::calibrate::{Calibration, EngineChoice, EngineScratch, Sample};
use crate::{CompiledFdd, ExecError, PacketBatch, RecompileStats};

/// A served firewall: the authoritative policy plus the hot-swappable
/// compiled image, with edits applied by rebuild and change-impact
/// analysis.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_exec::ExecError> {
/// use fw_core::Edit;
/// use fw_exec::LiveMatcher;
/// use fw_model::paper;
///
/// let live = LiveMatcher::new(paper::team_a())?;
/// let snapshot = live.load();          // serving threads hold snapshots
/// let fw = live.policy();
/// let flip = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
/// let report = live.apply_edits(&[Edit::Replace { index: 0, rule: flip }])?;
/// assert!(report.swapped && live.epoch() == report.epoch);
/// // `snapshot` still classifies with the pre-edit semantics.
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LiveMatcher {
    /// The authoritative rule list; the mutex serializes writers across
    /// the whole edit pipeline (readers never touch it).
    policy: Mutex<Firewall>,
    /// The published image paired with the source diagram it was lowered
    /// from — swapped together, atomically, so the next edit batch diffs
    /// against the diagram of exactly the image being served. Readers only
    /// clone the `Arc`s under the read lock; classification happens
    /// entirely on the clones.
    image: RwLock<(Arc<CompiledFdd>, Arc<Fdd>)>,
    /// The calibrated engine choice batches route through
    /// ([`LiveMatcher::classify_auto_into`]); starts at
    /// [`EngineChoice::default`] until [`LiveMatcher::calibrate`] runs.
    /// Matcher-level rather than image-level, so it survives edit swaps —
    /// an edit rarely changes the image's performance shape, and the
    /// caller can recalibrate whenever it does.
    choice: RwLock<EngineChoice>,
    /// The optional decision-cache front end
    /// ([`LiveMatcher::enable_cache`]). The mutex covers a whole cached
    /// batch (probe → miss classify → insert), so an edit's invalidation
    /// serializes against in-flight cached batches; lock order is cache →
    /// image-read on the serving side, and the writer never holds the
    /// image lock while taking this one, so the pair cannot deadlock. A
    /// batch serving from a pre-edit snapshot can insert pre-edit
    /// decisions *before* that edit's invalidation runs — which then
    /// drops exactly the inserted entries inside the edit's region, and
    /// entries outside the region decide identically under both images.
    cache: Mutex<Option<DecisionCache>>,
    /// Ticks once per published image (a rejected or no-op edit batch does
    /// not tick).
    epoch: AtomicU64,
}

/// What one [`LiveMatcher::apply_edits`] call did — the per-tenant edit
/// receipt the fleet registry and `fwfleet` surface, serde-derived so
/// reporting layers never reach into matcher internals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapReport {
    /// Whether a new image was published (`false` for a no-op batch — the
    /// old image stays, snapshot-identical).
    pub swapped: bool,
    /// The epoch after this call.
    pub epoch: u64,
    /// Packets whose decision changed, from the impact analysis —
    /// schema-clamped, so never more packets than the space holds.
    pub affected_packets: u128,
    /// The rebuild's receipt: `sweep_levels` is the number of rules the
    /// rebuild ran over (the post-batch policy length).
    pub maintain: MaintainStats,
    /// The published image's node count (`None` for a no-op batch).
    pub recompile: Option<RecompileStats>,
    /// The decision cache's invalidation receipt (`None` when no cache is
    /// enabled or the batch was a no-op — a no-op changes no decision, so
    /// every resident entry stays valid).
    pub cache: Option<InvalidationReport>,
}

impl LiveMatcher {
    /// Builds `policy`'s diagram by fast construction, compiles it, and
    /// starts serving at epoch 0.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::from_firewall`].
    pub fn new(policy: Firewall) -> Result<LiveMatcher, ExecError> {
        let fdd = Fdd::from_firewall_fast(&policy)?;
        let image = CompiledFdd::compile(&fdd)?;
        Ok(LiveMatcher {
            policy: Mutex::new(policy),
            image: RwLock::new((Arc::new(image), Arc::new(fdd))),
            choice: RwLock::new(EngineChoice::default()),
            cache: Mutex::new(None),
            epoch: AtomicU64::new(0),
        })
    }

    /// The current image. The returned snapshot stays valid (and keeps
    /// classifying with its own semantics) across any number of later
    /// swaps; long-lived serving loops should hold one and
    /// [`load`](Self::load) again at batch boundaries.
    pub fn load(&self) -> Arc<CompiledFdd> {
        Arc::clone(&self.image.read().unwrap_or_else(PoisonError::into_inner).0)
    }

    /// The current image together with the source diagram it was lowered
    /// from. Both pointers come from the same published snapshot, so a
    /// concurrent swap can never hand back an image and a diagram with
    /// different semantics.
    pub fn load_pair(&self) -> (Arc<CompiledFdd>, Arc<Fdd>) {
        let guard = self.image.read().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&guard.0), Arc::clone(&guard.1))
    }

    /// The engine choice [`classify_auto_into`](Self::classify_auto_into)
    /// currently routes through.
    pub fn engine_choice(&self) -> EngineChoice {
        *self.choice.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs an engine choice directly, bypassing calibration — for
    /// callers that already measured (the bench harness) or were told
    /// (`fwclass --engine`).
    pub fn set_engine_choice(&self, choice: EngineChoice) {
        *self.choice.write().unwrap_or_else(PoisonError::into_inner) = choice;
    }

    /// Enables the [`DecisionCache`] front end at `capacity` entries
    /// (replacing any previous cache) and turns cached routing on for
    /// [`classify_auto_into`](Self::classify_auto_into). A later
    /// [`calibrate`](Self::calibrate) keeps the cache but may elect an
    /// uncached winner — the cache then idles until traffic that favours
    /// it is measured again.
    ///
    /// # Errors
    ///
    /// As for [`DecisionCache::new`] (zero capacity).
    pub fn enable_cache(&self, capacity: usize) -> Result<(), ExecError> {
        let schema = self.load().schema().clone();
        let cache = DecisionCache::new(schema, capacity)?;
        *self.cache.lock().unwrap_or_else(PoisonError::into_inner) = Some(cache);
        let mut choice = self.choice.write().unwrap_or_else(PoisonError::into_inner);
        choice.cached = true;
        Ok(())
    }

    /// Drops the cache front end and turns cached routing off, returning
    /// the final stats (`None` if no cache was enabled).
    pub fn disable_cache(&self) -> Option<CacheStats> {
        let stats = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .map(|c| c.stats());
        let mut choice = self.choice.write().unwrap_or_else(PoisonError::into_inner);
        choice.cached = false;
        stats
    }

    /// The cache's running counters (`None` when no cache is enabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|c| c.stats())
    }

    /// Races the arms over a sample of `batch` against the current image
    /// ([`crate::calibrate`]) and installs the winner for
    /// [`classify_auto_into`](Self::classify_auto_into); `max_threads = 0`
    /// means "all available cores". `rows` is ignored: it stays in the
    /// signature because the benchmark harness (`perfbench/`) passes it,
    /// until its next change drops it (ROADMAP item 3).
    ///
    /// With a cache enabled, a sample that repeats some tuple also races
    /// the cached arm in the serving cache itself, so the skewed samples
    /// that elect the front end leave it holding their flows. Only such a
    /// race takes the cache lock, and holds it throughout (a few
    /// milliseconds), with the image loaded under it, as a cached batch
    /// does: every entry the trial inserts is a decision of an image at
    /// least as new as the last invalidation. Any other calibration leaves
    /// cached serving and edits unblocked.
    ///
    /// # Errors
    ///
    /// As for [`crate::calibrate`]: schema mismatch or an empty batch.
    pub fn calibrate(
        &self,
        batch: &PacketBatch,
        _rows: Option<&[Packet]>,
        max_threads: usize,
    ) -> Result<Calibration, ExecError> {
        let sample = Sample::new(&self.load(), batch)?;
        let mut cache = sample
            .repeats()
            .then(|| self.cache.lock().unwrap_or_else(PoisonError::into_inner))
            .filter(|cache| cache.is_some());
        let cal = sample.race(
            &self.load(),
            max_threads,
            cache.as_deref_mut().and_then(Option::as_mut),
        )?;
        drop(cache);
        *self.choice.write().unwrap_or_else(PoisonError::into_inner) = cal.choice;
        Ok(cal)
    }

    /// Classifies a batch through the calibrated engine choice against the
    /// current snapshot. One snapshot per call — the whole batch decides
    /// under a single image even if an edit swaps mid-flight.
    ///
    /// # Errors
    ///
    /// As for the underlying kernels: schema mismatch between `batch` and
    /// the served image.
    pub fn classify_auto_into(
        &self,
        batch: &PacketBatch,
        scratch: &mut EngineScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        let choice = self.engine_choice();
        if choice.cached {
            let mut guard = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(cache) = guard.as_mut() {
                // Snapshot under the cache lock: every entry this batch
                // inserts was decided by an image at least as new as the
                // last invalidation that ran (see the field docs for the
                // cross-edit soundness argument).
                return choice.classify_cached_into(&self.load(), batch, cache, scratch, out);
            }
        }
        choice.classify_into(&self.load(), None, None, batch, scratch, out)
    }

    /// The current epoch: 0 at construction, +1 per published image.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A clone of the authoritative policy as of the last applied batch.
    pub fn policy(&self) -> Firewall {
        self.policy
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Classifies one packet against the current image (one snapshot per
    /// call; batch workloads should [`load`](Self::load) once instead).
    pub fn classify(&self, packet: &Packet) -> Decision {
        self.load().classify(packet)
    }

    /// Applies an edit batch: stage every edit on one copy of the rule
    /// list, rebuild its diagram by fast construction, diff it against the
    /// published diagram for the impact, and — only if some decision
    /// changed — compile it, atomic swap, invalidate the cache. A no-op
    /// batch (every packet decides as before) updates the stored policy
    /// text but publishes nothing — the served image is already correct.
    ///
    /// Writers serialize: concurrent calls apply in mutex order, each
    /// against the policy the previous one left. Readers are never blocked
    /// beyond the pointer store.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Core`] for edits that do not apply (bad index,
    /// non-comprehensive result) and the usual compile errors; the served
    /// image and stored policy are untouched on error.
    pub fn apply_edits(&self, edits: &[Edit]) -> Result<SwapReport, ExecError> {
        let mut policy = self.policy.lock().unwrap_or_else(PoisonError::into_inner);
        let mut staged = policy.clone();
        for e in edits {
            e.apply_in_place(&mut staged)?;
        }
        let fdd = Fdd::from_firewall_fast(&staged)?;
        // Writers hold the policy mutex, so the published diagram is the
        // one built from `policy`.
        let (_, published) = self.load_pair();
        let impact = ChangeImpact::between_diagrams(&published, &fdd)?;
        let affected_packets = impact.affected_packets_in(staged.schema());
        let maintain = MaintainStats {
            sweep_levels: staged.len(),
        };
        if impact.is_noop() {
            *policy = staged;
            return Ok(SwapReport {
                swapped: false,
                epoch: self.epoch(),
                affected_packets,
                maintain,
                recompile: None,
                cache: None,
            });
        }
        let next = CompiledFdd::compile(&fdd)?;
        let stats = RecompileStats {
            nodes_fresh: next.node_count(),
        };
        *self.image.write().unwrap_or_else(PoisonError::into_inner) =
            (Arc::new(next), Arc::new(fdd));
        *policy = staged;
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        // Invalidate AFTER publishing: once we hold the cache lock, any
        // in-flight cached batch has finished its inserts, and the exact
        // scan drops every resident entry inside the edit's region —
        // including entries that batch inserted from the pre-edit
        // snapshot. (Invalidate-before-publish would be unsound: an
        // old-snapshot insert could land after the scan ran.)
        let cache = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
            .map(|c| c.invalidate(&impact));
        Ok(SwapReport {
            swapped: true,
            epoch,
            affected_packets,
            maintain,
            recompile: Some(stats),
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn swap_publishes_new_semantics_and_keeps_old_snapshots() {
        let fw = fw_synth::Synthesizer::new(42).firewall(30);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let before = live.load();
        assert_eq!(live.epoch(), 0);

        let flip = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
        let report = live
            .apply_edits(&[Edit::Replace {
                index: 0,
                rule: flip,
            }])
            .unwrap();
        assert!(report.swapped);
        assert_eq!((report.epoch, live.epoch()), (1, 1));
        assert!(report.affected_packets > 0);
        assert!(report.recompile.is_some());

        let after_fw = live.policy();
        let after = live.load();
        assert!(!Arc::ptr_eq(&before, &after));
        let trace = fw_synth::PacketTrace::biased(&fw, 1_000, 0.3, 5);
        for p in trace.packets() {
            // The old snapshot still serves the old policy; the new image
            // serves the edited one.
            assert_eq!(Some(before.classify(p)), fw.decision_for(p));
            assert_eq!(Some(after.classify(p)), after_fw.decision_for(p));
            assert_eq!(live.classify(p), after.classify(p));
        }
    }

    #[test]
    fn noop_batch_keeps_the_image_and_epoch() {
        let fw = paper::team_b();
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let before = live.load();
        let report = live
            .apply_edits(&[Edit::Replace {
                index: 1,
                rule: fw.rules()[1].clone(),
            }])
            .unwrap();
        assert!(!report.swapped);
        assert_eq!(report.affected_packets, 0);
        assert_eq!(live.epoch(), 0);
        assert!(Arc::ptr_eq(&before, &live.load()));
    }

    #[test]
    fn failed_edit_leaves_everything_untouched() {
        let live = LiveMatcher::new(paper::team_a()).unwrap();
        let before = live.load();
        assert!(live.apply_edits(&[Edit::Remove { index: 99 }]).is_err());
        assert_eq!(live.epoch(), 0);
        assert!(Arc::ptr_eq(&before, &live.load()));
        assert_eq!(live.policy(), paper::team_a());
    }

    /// Regression: the report's packet count is the schema-clamped one, so
    /// even an edit flipping the whole domain (whose per-region sum counts
    /// overlapping discrepancies) can never exceed the packet space.
    #[test]
    fn report_clamps_affected_packets_and_carries_the_maintain_receipt() {
        let fw = fw_synth::Synthesizer::new(77).firewall(20);
        let space = fw.schema().packet_space();
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let edits: Vec<Edit> = (0..3)
            .map(|i| Edit::Replace {
                index: i,
                rule: fw.rules()[i].with_decision(fw.rules()[i].decision().inverted()),
            })
            .collect();
        let report = live.apply_edits(&edits).unwrap();
        assert!(report.swapped);
        assert!(
            report.affected_packets <= space,
            "clamped count {} exceeds the packet space {space}",
            report.affected_packets
        );
        assert_eq!(report.maintain.sweep_levels, fw.len());

        // Flip the final catch-all: the whole unshadowed remainder
        // changes decision, pushing the raw per-region sum toward the
        // space — the clamp must hold near the boundary too.
        let last = live.policy().rules().len() - 1;
        let flip = live.policy().rules()[last]
            .with_decision(live.policy().rules()[last].decision().inverted());
        let report = live
            .apply_edits(&[Edit::Replace {
                index: last,
                rule: flip,
            }])
            .unwrap();
        assert!(report.affected_packets <= space);
    }

    /// A calibration that races no cached arm leaves the cache lock alone:
    /// with the lock held elsewhere, a uniform sample still calibrates,
    /// and elects no cache.
    #[test]
    fn calibrating_without_repeats_leaves_the_cache_unlocked() {
        let fw = fw_synth::Synthesizer::new(6).firewall(30);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        live.enable_cache(1 << 10).unwrap();
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 500, 12);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let held = live.cache.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(live.calibrate(&batch, None, 1).map(|c| c.choice)));
            let done = rx.recv_timeout(std::time::Duration::from_secs(60));
            drop(held);
            assert!(
                matches!(done, Ok(Ok(choice)) if choice == EngineChoice::default()),
                "{done:?}"
            );
        });
    }

    /// The auto path must agree with the plain column kernel under every
    /// installed choice, and a swap mid-stream must not wedge the pair:
    /// after an edit, auto decisions follow the *new* semantics.
    #[test]
    fn auto_serving_follows_the_calibrated_choice_across_swaps() {
        let fw = fw_synth::Synthesizer::new(5).firewall(40);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 600, 11);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let mut scratch = EngineScratch::default();
        let mut auto = Vec::new();

        // Default choice (no calibration yet) already serves correctly.
        live.classify_auto_into(&batch, &mut scratch, &mut auto)
            .unwrap();
        assert_eq!(auto, live.load().classify_columns(&batch).unwrap());

        // Calibration installs a winner and serving still agrees.
        let cal = live.calibrate(&batch, Some(trace.packets()), 2).unwrap();
        assert_eq!(live.engine_choice(), cal.choice);
        assert!(!cal.trials.is_empty());
        live.classify_auto_into(&batch, &mut scratch, &mut auto)
            .unwrap();
        assert_eq!(auto, live.load().classify_columns(&batch).unwrap());

        // Install every rung by hand: each serves the live image alike.
        let expect = live.load().classify_columns(&batch).unwrap();
        for threads in [1, 2] {
            live.set_engine_choice(EngineChoice {
                threads,
                cached: false,
            });
            live.classify_auto_into(&batch, &mut scratch, &mut auto)
                .unwrap();
            assert_eq!(auto, expect, "{threads} thread(s) disagree");
        }

        // Swap, then serve again: the auto path follows the new image.
        let flip = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
        let report = live
            .apply_edits(&[Edit::Replace {
                index: 0,
                rule: flip,
            }])
            .unwrap();
        assert!(report.swapped);
        live.classify_auto_into(&batch, &mut scratch, &mut auto)
            .unwrap();
        let after_fw = live.policy();
        for (p, d) in trace.packets().iter().zip(&auto) {
            assert_eq!(Some(*d), after_fw.decision_for(p));
        }
    }

    /// The cache front end must be invisible in decisions: cached serving
    /// agrees with the column kernel, an edit's invalidation receipt rides
    /// the swap report, and post-edit serving follows the new semantics
    /// (the stale region was dropped exactly).
    #[test]
    fn cached_serving_agrees_and_survives_edits() {
        let fw = fw_synth::Synthesizer::new(31).firewall(30);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        live.enable_cache(1 << 12).unwrap();
        assert!(live.engine_choice().cached);
        let trace = fw_synth::PacketTrace::biased(&fw, 800, 0.3, 7);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        for pass in 0..2 {
            live.classify_auto_into(&batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(
                out,
                live.load().classify_columns(&batch).unwrap(),
                "pass {pass}"
            );
        }
        let stats = live.cache_stats().unwrap();
        assert!(stats.hits > 0, "replaying the same batch must hit");

        let flip = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
        let report = live
            .apply_edits(&[Edit::Replace {
                index: 0,
                rule: flip,
            }])
            .unwrap();
        assert!(report.swapped);
        assert!(
            report.cache.is_some(),
            "cache enabled ⇒ receipt rides along"
        );
        live.classify_auto_into(&batch, &mut scratch, &mut out)
            .unwrap();
        let after = live.policy();
        for (p, d) in trace.packets().iter().zip(&out) {
            assert_eq!(Some(*d), after.decision_for(p), "stale decision at {p}");
        }

        // A no-op batch invalidates nothing.
        let keep = live.policy().rules()[1].clone();
        let report = live
            .apply_edits(&[Edit::Replace {
                index: 1,
                rule: keep,
            }])
            .unwrap();
        assert!(!report.swapped);
        assert_eq!(report.cache, None);

        let final_stats = live.disable_cache().unwrap();
        assert!(final_stats.hits >= stats.hits);
        assert!(!live.engine_choice().cached);
        assert_eq!(live.cache_stats(), None);
    }

    #[test]
    fn sequential_batches_compose() {
        let fw = fw_synth::Synthesizer::new(9).firewall(25);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let mut expect = fw.clone();
        for i in 0..4usize {
            let rule = expect.rules()[i].with_decision(expect.rules()[i].decision().inverted());
            let edits = [Edit::Replace { index: i, rule }];
            live.apply_edits(&edits).unwrap();
            expect = edits[0].apply(&expect).unwrap();
        }
        assert_eq!(live.policy(), expect);
        let img = live.load();
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 1_000, 13);
        for p in trace.packets() {
            assert_eq!(Some(img.classify(p)), expect.decision_for(p));
        }
    }
}

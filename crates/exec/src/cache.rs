//! The skew-exploiting decision cache: memoized classification with
//! *exact* impact-driven invalidation.
//!
//! Real traffic is heavily skewed — a small set of flows dominates — yet
//! every engine in this crate pays the full per-packet descent even when
//! the same header tuple repeats thousands of times. A [`DecisionCache`]
//! turns that repetition into an O(1) probe: a fixed-capacity,
//! power-of-two, 4-way set-associative table (FxHash over the packet's
//! field tuple) storing `(field values, decision code, epoch)` per slot,
//! with zero allocation per probe or insert. The batch front end
//! ([`EngineChoice::classify_cached_into`]) partitions each batch into
//! hits and a compacted miss list, routes the misses through the
//! calibrated engine — parallel lane pipeline included — and inserts the
//! results back, so a cached batch is byte-identical to an uncached one
//! by construction (every decision either came out of the engine on this
//! batch, or came out of the engine on an earlier batch and was never
//! invalidated since).
//!
//! Invalidation is where the paper's machinery pays off: an edit's
//! [`ChangeImpact`] describes *exactly* the packets whose decision
//! changed, as a set of discrepancy predicates. Because every resident
//! entry carries its full field tuple, membership in the affected region
//! is a cheap per-field interval check ([`fw_model::IntervalSet`]
//! `contains`), so the cache drops precisely the entries the edit made
//! stale and keeps every other hot flow warm across the swap. When the
//! region is large the exact scan stops paying — the crossover to a
//! wholesale epoch bump (O(1), forgets everything) needs many
//! discrepancies, which make the scan expensive, *and* a region covering
//! half the packet space, which leaves little worth keeping
//! ([`InvalidationPlan::choose`]).
//!
//! Staleness across the probe→classify→insert window is closed by a
//! generation counter: every invalidation (exact or epoch bump) bumps the
//! cache's generation, and an insert carries the generation its decision
//! was computed under — [`DecisionCache::insert`] rejects the write when
//! they differ, so a decision computed against a pre-edit image can never
//! land after the edit's invalidation ran (the torn-invalidation case the
//! oracle in `tests/cache_agree.rs` drives directly).

use fw_core::{ChangeImpact, Fdd};
use fw_model::{Decision, Schema};
use serde::{Deserialize, Serialize};

use crate::calibrate::{EngineChoice, EngineScratch};
use crate::{CompiledFdd, ExecError, PacketBatch};

/// Associativity of the cache: slots per set. Four ways absorbs the usual
/// birthday collisions at realistic load factors without widening the
/// probe loop beyond one cache line of metadata.
pub const CACHE_WAYS: usize = 4;

/// The `FxHash` multiplier. The cache hashes inline rather than through
/// `FxHasher` so the scalar and batch paths share one definition and the
/// batch front end can run the hash column-major (see
/// [`classify_cached_with`]) — per-packet, `width` chained multiplies are
/// a serial dependency that would otherwise dominate the all-hits path.
const HASH_K: u64 = 0x517c_c1b7_2722_0a95;

/// One `FxHash` round.
#[inline]
fn mix(state: u64, v: u64) -> u64 {
    (state.rotate_left(5) ^ v).wrapping_mul(HASH_K)
}

/// The tag single-policy surfaces key their entries under; fleet callers
/// tag by compiled root index instead, so dedup'd tenants share entries.
pub const UNTAGGED: u64 = 0;

/// Running counters of one cache's behaviour, serde-derived so benches
/// and CLIs report them without reaching into cache internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Probes answered from a resident entry.
    pub hits: u64,
    /// Probes that fell through to the engine.
    pub misses: u64,
    /// Decisions written back (excludes generation-rejected writes).
    pub insertions: u64,
    /// Entries dropped by invalidation — exact scans and epoch bumps both.
    pub invalidated: u64,
    /// Live entries overwritten by an insert into a full set.
    pub evicted: u64,
}

impl CacheStats {
    /// Hits as a fraction of all probes (`0.0` before any probe).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (for fleet-wide aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.invalidated += other.invalidated;
        self.evicted += other.evicted;
    }
}

/// How one invalidation ran: surgical or wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvalidationPlan {
    /// Scan resident entries and drop exactly those inside the edit's
    /// discrepancy region.
    Exact,
    /// Bump the epoch: O(1), every resident entry becomes invisible.
    EpochBump,
}

impl InvalidationPlan {
    /// The crossover: the exact scan costs `resident × discrepancies`
    /// interval checks and keeps every unaffected flow warm; the epoch
    /// bump is free but forfeits all of them. Wholesale wins only when the
    /// edit is large on *both* axes — many discrepancy regions (scan cost)
    /// and a region covering at least half the packet space (little left
    /// worth keeping). Either axis alone keeps the scan: few regions are
    /// cheap to test, and a small region leaves most entries worth
    /// keeping.
    pub fn choose(discrepancies: usize, affected: u128, space: u128) -> InvalidationPlan {
        if discrepancies >= 8 && affected.saturating_mul(2) >= space {
            InvalidationPlan::EpochBump
        } else {
            InvalidationPlan::Exact
        }
    }
}

/// Receipt of one invalidation, carried on `SwapReport`/`EditReceipt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidationReport {
    /// The arm that ran.
    pub plan: InvalidationPlan,
    /// Resident entries before the invalidation.
    pub resident: usize,
    /// Entries dropped (all of `resident` for an epoch bump).
    pub invalidated: u64,
}

/// Per-slot metadata, packed into one 32-byte record so a whole 4-way set
/// spans two cache lines — splitting these into parallel arrays costs a
/// probe one extra line per array, which dominates the hot-path latency.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// Caller tag ([`UNTAGGED`] for single-policy use; compiled root
    /// index for fleet shards).
    tag: u64,
    /// Slot epoch; live iff equal to the cache epoch. `0` is the
    /// never-valid sentinel an exact invalidation writes.
    epoch: u64,
    /// Recency stamp, for LRU victim choice within a set.
    stamp: u64,
    /// The cached decision, stored as the enum so a hit needs no decode.
    decision: Decision,
}

impl SlotMeta {
    /// A dead slot (epoch 0 is never live; the decision is arbitrary).
    const EMPTY: SlotMeta = SlotMeta {
        tag: 0,
        epoch: 0,
        stamp: 0,
        decision: Decision::Accept,
    };
}

/// A fixed-capacity, 4-way set-associative decision cache (see module
/// docs). All storage is flat and allocated once at construction; probes,
/// inserts, and epoch bumps never allocate.
#[derive(Debug, Clone)]
pub struct DecisionCache {
    schema: Schema,
    /// Fields per entry (`schema.len()`).
    width: usize,
    /// Set-index mask; `sets = mask + 1` is a power of two.
    mask: usize,
    /// `sets × CACHE_WAYS × width` field values, slot-major.
    values: Vec<u64>,
    /// Tag/epoch/recency/decision per slot, slot-major.
    meta: Vec<SlotMeta>,
    /// Current epoch; starts at 1 so slot epoch 0 means "empty".
    epoch: u64,
    /// Monotonic recency clock.
    tick: u64,
    /// Bumped by every invalidation; guards inserts against the torn
    /// probe→edit→insert interleaving.
    generation: u64,
    /// Live entries (slot epoch == current epoch).
    resident: usize,
    stats: CacheStats,
}

impl DecisionCache {
    /// A cache holding at least `capacity` entries over `schema`, rounded
    /// up to a power-of-two number of 4-way sets.
    ///
    /// # Errors
    ///
    /// [`ExecError::Batch`] for a zero capacity.
    pub fn new(schema: Schema, capacity: usize) -> Result<DecisionCache, ExecError> {
        if capacity == 0 {
            return Err(ExecError::Batch(
                "decision cache capacity must be at least 1".into(),
            ));
        }
        let sets = capacity.div_ceil(CACHE_WAYS).next_power_of_two();
        let slots = sets * CACHE_WAYS;
        let width = schema.len();
        Ok(DecisionCache {
            width,
            mask: sets - 1,
            values: vec![0; slots * width],
            meta: vec![SlotMeta::EMPTY; slots],
            epoch: 1,
            tick: 0,
            generation: 0,
            resident: 0,
            stats: CacheStats::default(),
            schema,
        })
    }

    /// The schema every cached tuple ranges over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Slots the cache can hold (the requested capacity rounded up).
    pub fn capacity(&self) -> usize {
        self.meta.len()
    }

    /// Currently resident (probe-visible) entries.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The invalidation generation. Read it before classifying a miss and
    /// hand it back to [`insert`](Self::insert): the write is rejected if
    /// any invalidation ran in between, so a stale decision can never be
    /// published.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Running counters since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the running counters (resident entries are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_base(&self, tag: u64, value_of: impl Fn(usize) -> u64) -> usize {
        let mut state = mix(0, tag);
        for f in 0..self.width {
            state = mix(state, value_of(f));
        }
        ((state as usize) & self.mask) * CACHE_WAYS
    }

    #[inline]
    fn probe_at(
        &mut self,
        base: usize,
        tag: u64,
        value_of: impl Fn(usize) -> u64,
    ) -> Option<Decision> {
        for slot in base..base + CACHE_WAYS {
            let m = self.meta[slot];
            if m.epoch == self.epoch && m.tag == tag {
                let vbase = slot * self.width;
                if (0..self.width).all(|f| self.values[vbase + f] == value_of(f)) {
                    self.tick += 1;
                    self.meta[slot].stamp = self.tick;
                    self.stats.hits += 1;
                    return Some(m.decision);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    #[inline]
    fn insert_at(
        &mut self,
        base: usize,
        tag: u64,
        generation: u64,
        decision: Decision,
        value_of: impl Fn(usize) -> u64,
    ) -> bool {
        if generation != self.generation {
            // An invalidation ran between the probe that missed and this
            // write: the decision may describe the pre-edit function.
            return false;
        }
        // Reuse a matching or dead slot; otherwise evict the set's LRU.
        let mut victim = base;
        let mut victim_live = true;
        let mut victim_stamp = u64::MAX;
        for slot in base..base + CACHE_WAYS {
            let m = self.meta[slot];
            let live = m.epoch == self.epoch;
            if live && m.tag == tag {
                let vbase = slot * self.width;
                if (0..self.width).all(|f| self.values[vbase + f] == value_of(f)) {
                    victim = slot;
                    victim_live = true;
                    break;
                }
            }
            if !live && victim_live {
                victim = slot;
                victim_live = false;
            } else if !live {
                // keep the first dead slot
            } else if victim_live && m.stamp < victim_stamp {
                victim = slot;
                victim_stamp = m.stamp;
            }
        }
        if victim_live && self.meta[victim].epoch == self.epoch {
            let vbase = victim * self.width;
            let same = self.meta[victim].tag == tag
                && (0..self.width).all(|f| self.values[vbase + f] == value_of(f));
            if !same {
                self.stats.evicted += 1;
            }
        } else {
            self.resident += 1;
        }
        let vbase = victim * self.width;
        for f in 0..self.width {
            self.values[vbase + f] = value_of(f);
        }
        self.tick += 1;
        self.meta[victim] = SlotMeta {
            tag,
            epoch: self.epoch,
            stamp: self.tick,
            decision,
        };
        self.stats.insertions += 1;
        true
    }

    /// Looks up one field tuple under `tag`. A hit refreshes the entry's
    /// recency; both outcomes count in [`stats`](Self::stats).
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have one value per schema field.
    pub fn probe(&mut self, tag: u64, values: &[u64]) -> Option<Decision> {
        assert_eq!(values.len(), self.width, "probe arity mismatch");
        let base = self.set_base(tag, |f| values[f]);
        self.probe_at(base, tag, |f| values[f])
    }

    /// Writes one decision under `tag`, guarded by `generation` (see
    /// [`generation`](Self::generation)). Returns whether the write
    /// landed.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have one value per schema field.
    pub fn insert(
        &mut self,
        tag: u64,
        generation: u64,
        values: &[u64],
        decision: Decision,
    ) -> bool {
        assert_eq!(values.len(), self.width, "insert arity mismatch");
        let base = self.set_base(tag, |f| values[f]);
        self.insert_at(base, tag, generation, decision, |f| values[f])
    }

    /// [`insert`](Self::insert) for packet `i` of a field-major batch.
    ///
    /// # Panics
    ///
    /// Panics if the batch's arity differs from the cache schema's or `i`
    /// is out of range.
    pub fn insert_batch(
        &mut self,
        tag: u64,
        generation: u64,
        batch: &PacketBatch,
        i: usize,
        decision: Decision,
    ) -> bool {
        let columns = batch.columns_raw();
        assert_eq!(columns.len(), self.width, "insert arity mismatch");
        let base = self.set_base(tag, |f| columns[f][i]);
        self.insert_at(base, tag, generation, decision, |f| columns[f][i])
    }

    /// Wholesale invalidation: O(1), every resident entry becomes
    /// invisible and the generation bumps.
    pub fn bump_epoch(&mut self) {
        self.generation += 1;
        self.epoch += 1;
        self.stats.invalidated += self.resident as u64;
        self.resident = 0;
    }

    /// Invalidates the entries an edit made stale, choosing between the
    /// exact discrepancy-region scan and the wholesale epoch bump by the
    /// [`InvalidationPlan::choose`] crossover. Always bumps the
    /// generation, so in-flight inserts computed against the pre-edit
    /// image are rejected either way.
    pub fn invalidate(&mut self, impact: &ChangeImpact) -> InvalidationReport {
        let plan = InvalidationPlan::choose(
            impact.discrepancies().len(),
            impact.affected_packets_in(&self.schema),
            self.schema.packet_space(),
        );
        self.invalidate_with(impact, plan)
    }

    /// [`invalidate`](Self::invalidate) with the arm forced — the oracle
    /// suite proves both arms serve identically.
    pub fn invalidate_with(
        &mut self,
        impact: &ChangeImpact,
        plan: InvalidationPlan,
    ) -> InvalidationReport {
        let resident = self.resident;
        let invalidated = match plan {
            InvalidationPlan::EpochBump => {
                self.bump_epoch();
                resident as u64
            }
            InvalidationPlan::Exact => {
                self.generation += 1;
                let n = self.exact_scan(impact, None);
                self.stats.invalidated += n;
                n
            }
        };
        InvalidationReport {
            plan,
            resident,
            invalidated,
        }
    }

    /// Exact invalidation restricted to entries under one tag — the fleet
    /// arm: a tenant's edit can only stale entries of the compiled root it
    /// was serving through, so other tenants' entries stay warm. The same
    /// crossover applies; the epoch-bump arm is still wholesale (safe:
    /// dropping valid entries only costs re-misses).
    pub fn invalidate_tagged(&mut self, tag: u64, impact: &ChangeImpact) -> InvalidationReport {
        let plan = InvalidationPlan::choose(
            impact.discrepancies().len(),
            impact.affected_packets_in(&self.schema),
            self.schema.packet_space(),
        );
        match plan {
            InvalidationPlan::EpochBump => self.invalidate_with(impact, plan),
            InvalidationPlan::Exact => {
                let resident = self.resident;
                self.generation += 1;
                let invalidated = self.exact_scan(impact, Some(tag));
                self.stats.invalidated += invalidated;
                InvalidationReport {
                    plan,
                    resident,
                    invalidated,
                }
            }
        }
    }

    /// Drops every live entry (optionally: under `tag`) whose field tuple
    /// lies inside some discrepancy region of `impact`. Membership is a
    /// per-field interval containment check against the entry's stored
    /// tuple — exactly `ChangeImpact::affects`, minus the packet
    /// allocation.
    fn exact_scan(&mut self, impact: &ChangeImpact, tag: Option<u64>) -> u64 {
        let schema = &self.schema;
        let width = self.width;
        let values = &self.values;
        let epoch = self.epoch;
        let mut dropped = 0u64;
        for slot in 0..self.meta.len() {
            if self.meta[slot].epoch != epoch {
                continue;
            }
            if let Some(t) = tag {
                if self.meta[slot].tag != t {
                    continue;
                }
            }
            let vbase = slot * width;
            let tuple = &values[vbase..vbase + width];
            let stale = impact.discrepancies().iter().any(|d| {
                let p = d.predicate();
                schema
                    .iter()
                    .all(|(field, _)| p.set(field).contains(tuple[field.index()]))
            });
            if stale {
                self.meta[slot].epoch = 0;
                self.resident -= 1;
                dropped += 1;
            }
        }
        dropped
    }
}

/// Reusable miss-path buffers for cached batch classification: the miss
/// index list, the compacted miss columns, and the miss decision buffer.
/// Steady-state cached serving allocates nothing per batch.
#[derive(Debug, Default)]
pub struct CacheScratch {
    miss_idx: Vec<u32>,
    miss_cols: Vec<Vec<u64>>,
    miss_out: Vec<Decision>,
    /// Per-packet hash states for the column-major hash pre-pass.
    hash: Vec<u64>,
}

impl CacheScratch {
    /// A fresh scratch. Allocates nothing until first use.
    pub fn new() -> CacheScratch {
        CacheScratch::default()
    }
}

/// The cached batch front end shared by the single-policy and fleet
/// surfaces: partition into hits and a compacted miss batch, classify the
/// misses through `classify_miss`, scatter the results back into packet
/// order, and insert them under the generation read *before* the engine
/// ran (so a concurrent invalidation rejects the writes).
pub(crate) fn classify_cached_with<F>(
    cache: &mut DecisionCache,
    tag: u64,
    batch: &PacketBatch,
    scratch: &mut CacheScratch,
    out: &mut Vec<Decision>,
    classify_miss: F,
) -> Result<(), ExecError>
where
    F: FnOnce(&PacketBatch, &mut Vec<Decision>) -> Result<(), ExecError>,
{
    let len = batch.len();
    if len > u32::MAX as usize {
        return Err(ExecError::Batch(
            "cached batches are limited to u32::MAX packets".into(),
        ));
    }
    out.clear();
    out.resize(len, Decision::Accept);
    let generation = cache.generation();
    let width = batch.schema().len();
    scratch.miss_idx.clear();
    if scratch.miss_cols.len() != width {
        scratch.miss_cols.resize_with(width, Vec::new);
    }
    for col in &mut scratch.miss_cols {
        col.clear();
    }
    let columns = batch.columns_raw();
    // Hash pre-pass, column-major: every packet's hash advances one round
    // per field sweep, so the chained-multiply latency overlaps across
    // packets instead of serialising within each one.
    scratch.hash.clear();
    scratch.hash.resize(len, mix(0, tag));
    for col in columns {
        for (state, &v) in scratch.hash.iter_mut().zip(col) {
            *state = mix(*state, v);
        }
    }
    // Specialised hit loop: tick and the hit/miss counters accumulate in
    // locals so each packet's bookkeeping doesn't read-modify-write cache
    // state, and a hit serves straight from the copied metadata record.
    let epoch = cache.epoch;
    let width = cache.width;
    let mask = cache.mask;
    let mut tick = cache.tick;
    for i in 0..len {
        let base = ((scratch.hash[i] as usize) & mask) * CACHE_WAYS;
        let mut hit = None;
        for slot in base..base + CACHE_WAYS {
            let m = cache.meta[slot];
            if m.epoch == epoch && m.tag == tag {
                let vbase = slot * width;
                if (0..width).all(|f| cache.values[vbase + f] == columns[f][i]) {
                    tick += 1;
                    cache.meta[slot].stamp = tick;
                    hit = Some(m.decision);
                    break;
                }
            }
        }
        if let Some(d) = hit {
            out[i] = d;
        } else {
            scratch.miss_idx.push(i as u32);
            for (miss, col) in scratch.miss_cols.iter_mut().zip(columns) {
                miss.push(col[i]);
            }
        }
    }
    cache.tick = tick;
    let misses = scratch.miss_idx.len() as u64;
    cache.stats.hits += len as u64 - misses;
    cache.stats.misses += misses;
    if scratch.miss_idx.is_empty() {
        return Ok(());
    }
    // The miss values came out of a validated batch, so revalidation in
    // `from_columns` cannot fail — but it is one cheap max-fold per column
    // and keeps the construction honest.
    let miss_batch = PacketBatch::from_columns(
        batch.schema().clone(),
        std::mem::take(&mut scratch.miss_cols),
    )?;
    let mut miss_out = std::mem::take(&mut scratch.miss_out);
    let result = classify_miss(&miss_batch, &mut miss_out);
    if result.is_ok() {
        debug_assert_eq!(miss_out.len(), scratch.miss_idx.len());
        for (k, &i) in scratch.miss_idx.iter().enumerate() {
            let d = miss_out[k];
            out[i as usize] = d;
            cache.insert_batch(tag, generation, &miss_batch, k, d);
        }
    }
    // Recycle the compacted buffers for the next batch.
    scratch.miss_cols = miss_batch.into_columns();
    for col in &mut scratch.miss_cols {
        col.clear();
    }
    miss_out.clear();
    scratch.miss_out = miss_out;
    result
}

impl EngineChoice {
    /// This choice with the cache front end disabled (miss routing).
    pub fn uncached(&self) -> EngineChoice {
        EngineChoice {
            cached: false,
            ..*self
        }
    }

    /// This choice with the cache front end enabled.
    pub fn with_cache(&self) -> EngineChoice {
        EngineChoice {
            cached: true,
            ..*self
        }
    }

    /// Routes one batch through `cache`, classifying misses through this
    /// choice's engine (see the module docs for the identity argument). Entries are keyed [`UNTAGGED`]: one
    /// cache per served image.
    ///
    /// # Errors
    ///
    /// As for [`EngineChoice::classify_into`], plus
    /// [`ExecError::Invariant`] when `cache` was built over a different
    /// schema than `compiled`.
    pub fn classify_cached_into(
        &self,
        compiled: &CompiledFdd,
        walk: Option<&Fdd>,
        batch: &PacketBatch,
        cache: &mut DecisionCache,
        scratch: &mut EngineScratch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != compiled.schema() {
            return Err(ExecError::Model(fw_model::ModelError::ArityMismatch {
                expected: compiled.schema().len(),
                found: batch.schema().len(),
            }));
        }
        if cache.schema() != compiled.schema() {
            return Err(ExecError::Invariant(
                "decision cache and compiled image schemas differ".into(),
            ));
        }
        let engine = self.uncached();
        let mut cs = std::mem::take(&mut scratch.cache);
        let result =
            classify_cached_with(cache, UNTAGGED, batch, &mut cs, out, |miss, miss_out| {
                engine.classify_into(compiled, walk, None, miss, scratch, miss_out)
            });
        scratch.cache = cs;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::Edit;
    use fw_model::paper;

    fn setup(rules: usize, n: usize, seed: u64) -> (fw_model::Firewall, CompiledFdd, PacketBatch) {
        let fw = fw_synth::Synthesizer::new(seed).firewall(rules);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let trace = fw_synth::PacketTrace::biased(&fw, n, 0.3, seed + 1);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        (fw, compiled, batch)
    }

    #[test]
    fn capacity_rounds_up_and_zero_is_rejected() {
        let schema = paper::team_a().schema().clone();
        assert!(matches!(
            DecisionCache::new(schema.clone(), 0),
            Err(ExecError::Batch(_))
        ));
        for (want, got) in [(1, 4), (4, 4), (5, 8), (16, 16), (100, 128), (256, 256)] {
            let cache = DecisionCache::new(schema.clone(), want).unwrap();
            assert_eq!(cache.capacity(), got, "capacity {want}");
            assert!(cache.is_empty());
        }
    }

    #[test]
    fn probe_insert_round_trip_counts_and_lru_evicts() {
        let schema = paper::team_a().schema().clone();
        let mut cache = DecisionCache::new(schema, 16).unwrap();
        let p = [0u64, 1, 2, 3, 4];
        assert_eq!(cache.probe(UNTAGGED, &p), None);
        let generation = cache.generation();
        assert!(cache.insert(UNTAGGED, generation, &p, Decision::Discard));
        assert_eq!(cache.probe(UNTAGGED, &p), Some(Decision::Discard));
        assert_eq!(cache.len(), 1);
        // A different tag is a different key.
        assert_eq!(cache.probe(7, &p), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 1));

        // Fill far past capacity: every insert must land (LRU eviction),
        // and the resident count never exceeds the slot count.
        for i in 0..200u64 {
            let q = [0u64, 1, i % 16, i % 64, i % 2];
            let generation = cache.generation();
            cache.insert(UNTAGGED, generation, &q, Decision::Accept);
            assert!(cache.len() <= cache.capacity());
        }
        assert!(cache.stats().evicted > 0, "overfill must evict");
    }

    #[test]
    fn stale_generation_inserts_are_rejected() {
        let schema = paper::team_a().schema().clone();
        let mut cache = DecisionCache::new(schema, 16).unwrap();
        let p = [0u64, 1, 2, 3, 4];
        let generation = cache.generation();
        cache.bump_epoch(); // any invalidation bumps the generation
        assert!(!cache.insert(UNTAGGED, generation, &p, Decision::Accept));
        assert_eq!(cache.probe(UNTAGGED, &p), None, "stale write must not land");
        assert!(cache.insert(UNTAGGED, cache.generation(), &p, Decision::Accept));
        assert_eq!(cache.probe(UNTAGGED, &p), Some(Decision::Accept));
    }

    #[test]
    fn cached_classification_is_identical_to_uncached() {
        let (fw, compiled, batch) = setup(30, 2_000, 9);
        let mut cache = DecisionCache::new(fw.schema().clone(), 1 << 10).unwrap();
        let mut scratch = EngineScratch::new();
        let expect = compiled.classify_columns(&batch).unwrap();
        let mut out = Vec::new();
        // Twice: the second pass serves mostly from the cache.
        for pass in 0..2 {
            EngineChoice::default()
                .classify_cached_into(&compiled, None, &batch, &mut cache, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expect, "pass {pass}");
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "a biased trace repeats tuples");
        assert_eq!(
            stats.hits + stats.misses,
            2 * batch.len() as u64,
            "every packet probes exactly once per pass"
        );
    }

    #[test]
    fn exact_invalidation_drops_only_the_affected_region() {
        // Build an impact by diffing pre/post edit FDDs, then check entry
        // retention matches `ChangeImpact::affects` packet by packet.
        let fw = fw_synth::Synthesizer::new(33).firewall(20);
        let edited = Edit::Replace {
            index: 0,
            rule: fw.rules()[0].with_decision(fw.rules()[0].decision().inverted()),
        }
        .apply(&fw)
        .unwrap();
        let impact = fw_core::ChangeImpact::between(&fw, &edited).unwrap();
        assert!(!impact.is_noop());

        let trace = fw_synth::PacketTrace::biased(&fw, 500, 0.3, 4);
        let mut cache = DecisionCache::new(fw.schema().clone(), 1 << 12).unwrap();
        for p in trace.packets() {
            let generation = cache.generation();
            cache.insert(UNTAGGED, generation, p.values(), Decision::Accept);
        }
        let report = cache.invalidate_with(&impact, InvalidationPlan::Exact);
        assert_eq!(report.plan, InvalidationPlan::Exact);
        assert!(report.invalidated > 0, "the flipped rule region was hot");
        for p in trace.packets() {
            let resident = cache.probe(UNTAGGED, p.values()).is_some();
            assert_eq!(
                resident,
                !impact.affects(p),
                "entry retention must equal region membership at {p}"
            );
        }
    }

    #[test]
    fn epoch_bump_forgets_everything_and_crossover_picks_it_for_huge_regions() {
        let (fw, _, batch) = setup(15, 64, 3);
        let mut cache = DecisionCache::new(fw.schema().clone(), 256).unwrap();
        for i in 0..batch.len() {
            let generation = cache.generation();
            cache.insert_batch(UNTAGGED, generation, &batch, i, Decision::Accept);
        }
        let resident = cache.len();
        assert!(resident > 0);
        let impact = fw_core::ChangeImpact::between(&fw, &fw).unwrap();
        let report = cache.invalidate_with(&impact, InvalidationPlan::EpochBump);
        assert_eq!(report.resident, resident);
        assert_eq!(report.invalidated, resident as u64);
        assert!(cache.is_empty());

        // Crossover shape: wholesale only when both axes are large.
        assert_eq!(
            InvalidationPlan::choose(8, 1, 2),
            InvalidationPlan::EpochBump
        );
        assert_eq!(InvalidationPlan::choose(7, 1, 2), InvalidationPlan::Exact);
        assert_eq!(InvalidationPlan::choose(8, 1, 3), InvalidationPlan::Exact);
        assert_eq!(InvalidationPlan::choose(0, 0, 1), InvalidationPlan::Exact);
    }

    #[test]
    fn tagged_entries_are_isolated_and_tagged_invalidation_scopes_to_the_tag() {
        let fw = fw_synth::Synthesizer::new(12).firewall(10);
        let edited = Edit::Replace {
            index: 0,
            rule: fw.rules()[0].with_decision(fw.rules()[0].decision().inverted()),
        }
        .apply(&fw)
        .unwrap();
        let impact = fw_core::ChangeImpact::between(&fw, &edited).unwrap();
        let witness = fw.rules()[0].predicate().witness();
        assert!(impact.affects(&witness), "rule 0's witness flipped");

        let mut cache = DecisionCache::new(fw.schema().clone(), 64).unwrap();
        let generation = cache.generation();
        cache.insert(1, generation, witness.values(), Decision::Accept);
        cache.insert(2, generation, witness.values(), Decision::Discard);
        // Invalidate tag 1 only: tag 2's identical tuple survives.
        let report = cache.invalidate_tagged(1, &impact);
        assert_eq!(report.invalidated, 1);
        assert_eq!(cache.probe(1, witness.values()), None);
        assert_eq!(cache.probe(2, witness.values()), Some(Decision::Discard));
    }

    #[test]
    fn cached_front_end_rejects_schema_mismatches() {
        let (_, compiled, batch) = setup(10, 32, 5);
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        let other = fw_model::Schema::paper_example();
        let mut wrong = DecisionCache::new(other, 64).unwrap();
        assert!(matches!(
            EngineChoice::default().classify_cached_into(
                &compiled,
                None,
                &batch,
                &mut wrong,
                &mut scratch,
                &mut out
            ),
            Err(ExecError::Invariant(_))
        ));
    }
}

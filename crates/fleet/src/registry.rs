//! The multi-tenant policy registry: one serving surface over shared
//! hash-consed structure.
//!
//! Layout: tenants are grouped into **shards**, one per distinct
//! [`Schema`]. A shard owns one [`ConsArena`] (every tenant diagram in
//! canonical hash-consed form — equal subfunction ⟺ equal node), one
//! interned rule store (a rule shared by 10k near-copy policies is stored
//! once), and one [`SubgraphPool`] (compiled nodes in the lane kernel's
//! shape, deduplicated across tenants by canonical node id). Distinct tenants
//! with byte-identical policies collapse to a single refcounted policy
//! entry by content hash, with a full rule-list equality check guarding
//! against hash collisions.
//!
//! `add_tenant`/`apply_edits` build the tenant's diagram by fast
//! construction and intern it into the shared arena, keeping only the
//! canonical root. Interning adds only nodes the new root reaches, so
//! garbage arises only where a policy is released: `remove_tenant` and
//! `apply_edits` compact the arena behind the writer lock once garbage
//! dominates, with every retained root remapped and the pool's key map
//! rewritten in place; `add_tenant` never walks the arena.
//!
//! A batch is served by the shard pool's lane loop
//! ([`SubgraphPool::classify_columns_into`]: 32 packets a pass through
//! ladders and clamped searches), behind the shard's decision cache when
//! one is enabled. One packet takes the pool's scalar walk over the same
//! arrays, which validates it.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, RwLock};

use fw_core::{ChangeImpact, ConsArena, ConsId, Edit, Fdd, FxHasher, FxMap};
use fw_exec::{
    CacheScratch, CacheStats, DecisionCache, ExecError, InvalidationReport, PacketBatch,
    SubgraphPool,
};
use fw_model::{Decision, Firewall, Packet, Rule, Schema};
use serde::{Deserialize, Serialize};

use crate::FleetError;

/// Opaque tenant identifier chosen by the caller.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Only compact once the arena is at least this large: small fleets never
/// pay remap traffic, and the threshold test below stays cheap.
const ARENA_COMPACT_FLOOR: usize = 16_384;

/// Compact when fewer than 1 in `ARENA_GARBAGE_FACTOR` arena nodes are
/// reachable from a retained policy root.
const ARENA_GARBAGE_FACTOR: usize = 4;

/// Interned rule storage: each distinct [`Rule`] in a shard is stored
/// exactly once; policies reference rules by dense `u32` id.
#[derive(Debug, Default)]
struct RuleStore {
    rules: Vec<Rule>,
    /// FxHash of rule → candidate ids (collisions resolved by equality).
    table: FxMap<u64, Vec<u32>>,
}

impl RuleStore {
    fn intern(&mut self, rule: &Rule) -> u32 {
        let mut h = FxHasher::default();
        rule.hash(&mut h);
        let candidates = self.table.entry(h.finish()).or_default();
        for &id in candidates.iter() {
            if &self.rules[id as usize] == rule {
                return id;
            }
        }
        let id = u32::try_from(self.rules.len()).expect("more than u32::MAX distinct rules");
        self.rules.push(rule.clone());
        candidates.push(id);
        id
    }

    fn get(&self, id: u32) -> &Rule {
        &self.rules[id as usize]
    }

    fn len(&self) -> usize {
        self.rules.len()
    }

    /// The rule list's buffer, each predicate's heap (its set vector and
    /// the runs of every set of two runs or more), and the hash table.
    fn approx_bytes(&self) -> usize {
        let rules: usize = self.rules.iter().map(|r| r.predicate().heap_bytes()).sum();
        let table: usize = self
            .table
            .values()
            .map(|v| 16 + v.capacity() * 4)
            .sum::<usize>()
            + self.table.capacity() * 8;
        rules + table + self.rules.capacity() * std::mem::size_of::<Rule>()
    }
}

/// Content hash of a policy: schema plus the exact ordered rule list.
pub(crate) fn policy_hash(firewall: &Firewall) -> u64 {
    let mut h = FxHasher::default();
    firewall.schema().hash(&mut h);
    for rule in firewall.rules() {
        rule.hash(&mut h);
    }
    h.finish()
}

/// One distinct policy within a shard, shared by `refs` tenants.
#[derive(Debug)]
struct PolicyEntry {
    /// Ordered rule list as ids into the shard's [`RuleStore`].
    rule_ids: Vec<u32>,
    /// Canonical diagram root in the shard arena.
    root: ConsId,
    /// Compiled root index in the shard's [`SubgraphPool`].
    root_node: u32,
    /// Number of tenants bound to this policy.
    refs: usize,
}

/// Per-shard decision cache plus the scratch buffers the cached front end
/// recycles between batches. Entries are tagged by compiled root index
/// ([`SubgraphPool::classify_cached_into`]), so tenants that dedup'd onto
/// one policy share hot entries, and a tag stays meaningful for as long as
/// the pool is not rebuilt: `ensure` hands out the same index only for the
/// same canonical function, so even entries under a released tag can never
/// serve a wrong decision — they come back warm if the function returns.
struct ShardCache {
    cache: DecisionCache,
    scratch: CacheScratch,
}

impl ShardCache {
    fn new(schema: &Schema, capacity: usize) -> Result<ShardCache, FleetError> {
        Ok(ShardCache {
            cache: DecisionCache::new(schema.clone(), capacity)?,
            scratch: CacheScratch::new(),
        })
    }
}

/// All state for one schema: arena + rule store + compiled pool + the
/// distinct policies over them.
struct Shard {
    schema: Schema,
    arena: ConsArena,
    pool: SubgraphPool,
    store: RuleStore,
    /// Content hash → refcounted policy entry.
    policies: FxMap<u64, PolicyEntry>,
    /// Compiled nodes reachable only from removed policy roots; once this
    /// dominates `pool.node_count()` the pool is rebuilt from live roots.
    pool_dead: usize,
    /// Skew-exploiting decision cache shared by every tenant in the shard,
    /// `None` until [`PolicyRegistry::enable_cache`] provisions it. The
    /// mutex covers one whole cached batch; serving takes it under the
    /// registry read lock, and writers only touch it through `get_mut`
    /// while holding the registry write lock, so the two locks never
    /// deadlock.
    cache: Mutex<Option<ShardCache>>,
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("schema_fields", &self.schema.len())
            .field("arena_nodes", &self.arena.len())
            .field("pool_nodes", &self.pool.node_count())
            .field("policies", &self.policies.len())
            .finish()
    }
}

impl Shard {
    fn new(schema: Schema) -> Shard {
        Shard {
            arena: ConsArena::new(schema.clone()),
            pool: SubgraphPool::new(schema.clone()),
            schema,
            store: RuleStore::default(),
            policies: FxMap::default(),
            pool_dead: 0,
            cache: Mutex::new(None),
        }
    }

    /// Epoch-bump the shard cache, forgetting every resident entry. Must
    /// run whenever compiled root indices are reassigned (pool rebuild):
    /// tags alias across rebuilds, so a stale entry could otherwise serve
    /// another policy's decision.
    fn flush_cache(&mut self) {
        if let Some(sc) = self
            .cache
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            sc.cache.bump_epoch();
        }
    }

    /// Reconstruct the [`Firewall`] a policy entry denotes.
    fn firewall_of(&self, hash: u64) -> Firewall {
        let entry = self
            .policies
            .get(&hash)
            .expect("registry invariant: tenant points at a live policy");
        let rules: Vec<Rule> = entry
            .rule_ids
            .iter()
            .map(|&id| self.store.get(id).clone())
            .collect();
        Firewall::new(self.schema.clone(), rules)
            .expect("registry invariant: stored policies are valid")
    }

    /// Check that `firewall` really is the policy stored under `hash`
    /// (guards content-hash dedup against collisions).
    fn content_matches(&self, hash: u64, firewall: &Firewall) -> Result<bool, FleetError> {
        let Some(entry) = self.policies.get(&hash) else {
            return Ok(false);
        };
        let same = entry.rule_ids.len() == firewall.rules().len()
            && entry
                .rule_ids
                .iter()
                .zip(firewall.rules())
                .all(|(&id, rule)| self.store.get(id) == rule);
        if same {
            Ok(true)
        } else {
            Err(FleetError::Store(format!(
                "policy content hash collision on {hash:#018x}; \
                 refusing to dedupe distinct policies"
            )))
        }
    }

    /// Bind one more tenant to the policy under `hash`, registering it
    /// first if absent. `root` must be its canonical arena root.
    fn attach_policy(
        &mut self,
        hash: u64,
        firewall: &Firewall,
        root: ConsId,
    ) -> Result<(), FleetError> {
        if self.content_matches(hash, firewall)? {
            let entry = self.policies.get_mut(&hash).expect("checked above");
            debug_assert_eq!(entry.root, root, "equal content must hash-cons to one root");
            entry.refs += 1;
            return Ok(());
        }
        let rule_ids = firewall
            .rules()
            .iter()
            .map(|r| self.store.intern(r))
            .collect();
        let root_node = self.pool.ensure(&self.arena, root)?;
        self.policies.insert(
            hash,
            PolicyEntry {
                rule_ids,
                root,
                root_node,
                refs: 1,
            },
        );
        Ok(())
    }

    /// Unbind one tenant from the policy under `hash`, dropping the entry
    /// when the last reference goes away.
    fn release_policy(&mut self, hash: u64) {
        let entry = self
            .policies
            .get_mut(&hash)
            .expect("registry invariant: released policies exist");
        entry.refs -= 1;
        if entry.refs == 0 {
            let entry = self.policies.remove(&hash).expect("present above");
            // The compiled subtree may be shared with live policies, so
            // `reachable` over-counts garbage; that only makes the rebuild
            // trigger early, never late.
            self.pool_dead += self.pool.reachable(entry.root_node);
        }
    }

    /// Compact the arena if garbage dominates: every live policy root is a
    /// compaction root, and the pool's ConsId→node map is rewritten with
    /// the returned old→new map so serving continues without recompiling.
    fn maybe_compact_arena(&mut self) {
        if self.arena.len() < ARENA_COMPACT_FLOOR {
            return;
        }
        let roots: Vec<ConsId> = self.policies.values().map(|e| e.root).collect();
        if self.arena.len() <= ARENA_GARBAGE_FACTOR * self.arena.live_from(&roots) {
            return;
        }
        self.compact_arena();
    }

    fn compact_arena(&mut self) {
        let mut roots: Vec<ConsId> = self.policies.values().map(|e| e.root).collect();
        let map = self.arena.compact_mapped(&mut roots);
        for entry in self.policies.values_mut() {
            entry.root = *map
                .get(&entry.root)
                .expect("every live policy root was passed as a compaction root");
        }
        self.pool.remap_keys(&map);
    }

    /// Rebuild the compiled pool from live roots once dead compiled nodes
    /// dominate. Deferred (not per-removal) to stay amortised O(live).
    fn maybe_rebuild_pool(&mut self) -> Result<(), FleetError> {
        if self.pool_dead == 0 || 2 * self.pool_dead <= self.pool.node_count() {
            return Ok(());
        }
        let mut pool = SubgraphPool::new(self.schema.clone());
        for entry in self.policies.values_mut() {
            entry.root_node = pool.ensure(&self.arena, entry.root)?;
        }
        self.pool = pool;
        self.pool_dead = 0;
        self.flush_cache();
        Ok(())
    }

    /// Drop rules no live policy references, renumbering `rule_ids`.
    fn rebuild_store(&mut self) {
        let old = std::mem::take(&mut self.store);
        for entry in self.policies.values_mut() {
            for id in &mut entry.rule_ids {
                *id = self.store.intern(old.get(*id));
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        let entries: usize = self
            .policies
            .values()
            .map(|e| std::mem::size_of::<PolicyEntry>() + e.rule_ids.capacity() * 4 + 16)
            .sum();
        self.arena.approx_bytes() + self.pool.approx_bytes() + self.store.approx_bytes() + entries
    }
}

/// A tenant's binding: which shard, which policy, and a serving epoch that
/// bumps whenever an edit batch changes the tenant's observable function.
#[derive(Debug, Clone, Copy)]
struct TenantState {
    shard: usize,
    hash: u64,
    epoch: u64,
}

#[derive(Debug, Default)]
struct Inner {
    shards: Vec<Shard>,
    tenants: FxMap<TenantId, TenantState>,
    /// Requested decision-cache capacity per shard; 0 means caching is
    /// off. New shards are provisioned to match on creation.
    cache_capacity: usize,
}

impl Inner {
    fn shard_for(&mut self, schema: &Schema) -> Result<usize, FleetError> {
        if let Some(i) = self.shards.iter().position(|s| &s.schema == schema) {
            return Ok(i);
        }
        let mut shard = Shard::new(schema.clone());
        if self.cache_capacity > 0 {
            *shard.cache.get_mut().unwrap_or_else(|e| e.into_inner()) =
                Some(ShardCache::new(schema, self.cache_capacity)?);
        }
        self.shards.push(shard);
        Ok(self.shards.len() - 1)
    }

    fn state(&self, tenant: TenantId) -> Result<TenantState, FleetError> {
        self.tenants
            .get(&tenant)
            .copied()
            .ok_or(FleetError::UnknownTenant(tenant))
    }

    /// Aggregated decision-cache counters across shards, `None` when
    /// caching is off.
    fn cache_stats(&self) -> Option<CacheStats> {
        if self.cache_capacity == 0 {
            return None;
        }
        let mut total = CacheStats::default();
        for shard in &self.shards {
            if let Some(sc) = shard
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
            {
                total.merge(&sc.cache.stats());
            }
        }
        Some(total)
    }
}

/// Receipt for one tenant's edit batch, mirroring
/// [`fw_exec::SwapReport`] with fleet bookkeeping attached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EditReceipt {
    /// The edited tenant.
    pub tenant: TenantId,
    /// Whether the tenant's observable function changed (epoch bumped).
    pub swapped: bool,
    /// The tenant's serving epoch after the batch.
    pub epoch: u64,
    /// Exact count of packets whose decision the batch changed.
    pub affected_packets: u128,
    /// Whether the post-edit policy collapsed onto another fleet policy
    /// (content dedup), so the tenant now shares that image.
    pub merged: bool,
    /// Decision-cache invalidation for this batch: `Some` when a cache is
    /// enabled, the function changed, and the pre-edit policy was fully
    /// released. While another tenant still serves the pre-edit policy its
    /// entries stay resident — they are still correct for that tenant —
    /// so there is nothing to invalidate and this is `None`.
    pub cache: Option<InvalidationReport>,
}

/// A point-in-time summary of registry occupancy and sharing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Registered tenants.
    pub tenants: usize,
    /// Distinct policies after content dedup (≤ `tenants`).
    pub distinct_policies: usize,
    /// Schema shards.
    pub shards: usize,
    /// Total arena nodes, including not-yet-compacted garbage.
    pub arena_nodes: usize,
    /// Arena nodes reachable from some live policy root.
    pub arena_live_nodes: usize,
    /// Compiled nodes in the shared pools.
    pub pool_nodes: usize,
    /// Distinct interned rules across all shards.
    pub distinct_rules: usize,
    /// Approximate resident bytes of all shared structure plus the
    /// tenant table.
    pub approx_bytes: usize,
    /// Aggregated decision-cache counters across all shards, `None` when
    /// caching is off.
    pub cache: Option<CacheStats>,
}

impl FleetStats {
    /// Approximate bytes per registered tenant (total / tenants).
    pub fn bytes_per_tenant(&self) -> usize {
        self.approx_bytes / self.tenants.max(1)
    }
}

/// A thread-safe registry serving classification for a fleet of tenant
/// policies out of shared hash-consed structure.
///
/// See the crate docs for the design; in short, per schema the registry
/// keeps one arena, one interned rule store and one compiled subgraph
/// pool, and identical policies collapse to one refcounted entry. Reads
/// ([`classify`](PolicyRegistry::classify),
/// [`classify_batch`](PolicyRegistry::classify_batch), [`stats`](PolicyRegistry::stats))
/// take a shared lock; mutations serialise on the writer lock.
#[derive(Debug, Default)]
pub struct PolicyRegistry {
    inner: RwLock<Inner>,
}

impl PolicyRegistry {
    /// Create an empty registry.
    pub fn new() -> PolicyRegistry {
        PolicyRegistry::default()
    }

    /// Provision a per-shard [`DecisionCache`] of `capacity` entries
    /// (rounded up per shard to a power-of-two slot count) and route batch
    /// serving through it. Entries are tagged by compiled root index, so
    /// tenants that dedup'd onto one policy share hot entries. Existing
    /// and future shards are covered; previous cache contents are
    /// discarded. `capacity` 0 is equivalent to
    /// [`disable_cache`](PolicyRegistry::disable_cache).
    ///
    /// # Errors
    ///
    /// [`FleetError::Exec`] if a shard cache cannot be built (unreachable
    /// for non-zero capacities).
    pub fn enable_cache(&self, capacity: usize) -> Result<(), FleetError> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        inner.cache_capacity = capacity;
        for shard in &mut inner.shards {
            let provisioned = if capacity == 0 {
                None
            } else {
                Some(ShardCache::new(&shard.schema, capacity)?)
            };
            *shard.cache.get_mut().unwrap_or_else(|e| e.into_inner()) = provisioned;
        }
        Ok(())
    }

    /// Drop every shard cache and stop routing batch serving through the
    /// cached front end. Returns the aggregated lifetime counters, `None`
    /// when no cache was enabled.
    pub fn disable_cache(&self) -> Option<CacheStats> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        if inner.cache_capacity == 0 {
            return None;
        }
        inner.cache_capacity = 0;
        let mut total = CacheStats::default();
        for shard in &mut inner.shards {
            if let Some(sc) = shard
                .cache
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .take()
            {
                total.merge(&sc.cache.stats());
            }
        }
        Some(total)
    }

    /// Zeroes every shard cache's counters; resident entries stay warm.
    /// A no-op when caching is off.
    pub fn reset_cache_stats(&self) {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        for shard in &mut guard.shards {
            if let Some(sc) = shard
                .cache
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .as_mut()
            {
                sc.cache.reset_stats();
            }
        }
    }

    /// Aggregated decision-cache counters across all shards, `None` when
    /// caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .cache_stats()
    }

    /// Register `tenant` with `policy`. Returns `true` when the policy
    /// deduplicated onto an already-registered identical policy.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateTenant`] if the id is taken;
    /// [`FleetError::Core`] if the policy is not comprehensive.
    pub fn add_tenant(&self, tenant: TenantId, policy: Firewall) -> Result<bool, FleetError> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        if inner.tenants.contains_key(&tenant) {
            return Err(FleetError::DuplicateTenant(tenant));
        }
        let shard_idx = inner.shard_for(policy.schema())?;
        let shard = &mut inner.shards[shard_idx];
        let hash = policy_hash(&policy);
        let deduped = shard.content_matches(hash, &policy)?;
        if deduped {
            let entry = shard.policies.get_mut(&hash).expect("matched above");
            entry.refs += 1;
        } else {
            // Interning adds only nodes the new root reaches, so an add
            // leaves no garbage to compact; `remove_tenant` and
            // `apply_edits` check for it where it arises.
            let root = shard.arena.intern_fdd(&Fdd::from_firewall_fast(&policy)?)?;
            shard.attach_policy(hash, &policy, root)?;
        }
        inner.tenants.insert(
            tenant,
            TenantState {
                shard: shard_idx,
                hash,
                epoch: 0,
            },
        );
        Ok(deduped)
    }

    /// Unregister `tenant`, releasing its policy reference.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] if the id is not registered.
    pub fn remove_tenant(&self, tenant: TenantId) -> Result<(), FleetError> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let state = inner.state(tenant)?;
        inner.tenants.remove(&tenant);
        let shard = &mut inner.shards[state.shard];
        shard.release_policy(state.hash);
        shard.maybe_compact_arena();
        shard.maybe_rebuild_pool()?;
        Ok(())
    }

    /// Classify one packet against `tenant`'s policy.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] for unregistered ids;
    /// [`FleetError::InvalidPacket`] when the packet does not fit the
    /// tenant's schema.
    pub fn classify(&self, tenant: TenantId, packet: &Packet) -> Result<Decision, FleetError> {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let state = guard.state(tenant)?;
        let shard = &guard.shards[state.shard];
        let entry = shard
            .policies
            .get(&state.hash)
            .expect("registry invariant: tenant points at a live policy");
        shard
            .pool
            .try_classify(entry.root_node, packet)
            .map_err(|e| match e {
                ExecError::Model(m) => FleetError::InvalidPacket(m.to_string()),
                other => FleetError::Exec(other),
            })
    }

    /// Classify a whole batch against `tenant`'s policy.
    ///
    /// # Errors
    ///
    /// As [`classify`](PolicyRegistry::classify); the batch schema must
    /// match the tenant's schema exactly.
    pub fn classify_batch(
        &self,
        tenant: TenantId,
        batch: &PacketBatch,
    ) -> Result<Vec<Decision>, FleetError> {
        let mut out = Vec::new();
        self.classify_batch_into(tenant, batch, &mut out)?;
        Ok(out)
    }

    /// [`classify_batch`](PolicyRegistry::classify_batch) into a caller
    /// buffer (cleared first), for allocation-free steady-state serving.
    ///
    /// # Errors
    ///
    /// As [`classify_batch`](PolicyRegistry::classify_batch).
    pub fn classify_batch_into(
        &self,
        tenant: TenantId,
        batch: &PacketBatch,
        out: &mut Vec<Decision>,
    ) -> Result<(), FleetError> {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let state = guard.state(tenant)?;
        let shard = &guard.shards[state.shard];
        let entry = shard
            .policies
            .get(&state.hash)
            .expect("registry invariant: tenant points at a live policy");
        // Cached front end when a shard cache is provisioned: the mutex is
        // held for the whole batch (probe, compacted miss classification,
        // insert), which keeps probes coherent with writer-side
        // invalidation — writers mutate the cache only under the registry
        // write lock, which excludes this read path entirely.
        let mut slot = shard.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sc) = slot.as_mut() {
            shard.pool.classify_cached_into(
                entry.root_node,
                batch,
                &mut sc.cache,
                &mut sc.scratch,
                out,
            )?;
            return Ok(());
        }
        drop(slot);
        shard
            .pool
            .classify_columns_into(entry.root_node, batch, out)?;
        Ok(())
    }

    /// Apply an edit batch to `tenant`'s policy, returning a receipt with
    /// exact impact.
    ///
    /// The batch is staged on a copy of the tenant's rule list, the edited
    /// policy is rebuilt by fast construction and interned into the shared
    /// arena, and the new root is diffed against the stored one for the
    /// exact affected-packet count. If the post-edit
    /// policy equals another fleet policy, the tenant merges onto that
    /// entry (`merged` in the receipt). Other tenants sharing the old
    /// policy are unaffected — the edit forks, never mutates in place.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] for unregistered ids;
    /// [`FleetError::Core`] for invalid edits (bad index, post-edit policy
    /// not comprehensive) — the tenant is unchanged in that case.
    pub fn apply_edits(&self, tenant: TenantId, edits: &[Edit]) -> Result<EditReceipt, FleetError> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let state = inner.state(tenant)?;
        let shard = &mut inner.shards[state.shard];
        let (old_root, old_root_node) = {
            let entry = shard
                .policies
                .get(&state.hash)
                .expect("registry invariant: tenant points at a live policy");
            (entry.root, entry.root_node)
        };

        let mut new_firewall = shard.firewall_of(state.hash);
        for e in edits {
            e.apply_in_place(&mut new_firewall)?;
        }
        let new_root = shard
            .arena
            .intern_fdd(&Fdd::from_firewall_fast(&new_firewall)?)?;

        let impact = ChangeImpact::from_discrepancies(shard.arena.diff(old_root, new_root)?);
        let swapped = !impact.is_noop();
        let affected_packets = impact.affected_packets_in(new_firewall.schema());

        let new_hash = policy_hash(&new_firewall);
        let mut cache_report = None;
        let merged = if new_hash == state.hash {
            // Textually identical policy (e.g. replace-with-same); nothing
            // to rebind. `swapped` is necessarily false here.
            false
        } else {
            let merged = shard.content_matches(new_hash, &new_firewall)?;
            // Attach before release so a failure leaves the tenant bound.
            shard.attach_policy(new_hash, &new_firewall, new_root)?;
            shard.release_policy(state.hash);
            // Exact, tag-scoped invalidation — only once the pre-edit
            // policy is fully released. While another tenant still serves
            // it, its entries remain correct for that tenant, and the
            // edited tenant moved to a different tag, so nothing is stale.
            // Entries outside the edit's discrepancy region survive under
            // the released tag: `ensure` re-issues that tag only for the
            // same canonical function, so they come back warm (and still
            // correct) if any tenant edits back onto the old policy. Must
            // run before `maybe_rebuild_pool` — a rebuild reassigns root
            // indices, after which the old tag may alias a live policy.
            if !shard.policies.contains_key(&state.hash) {
                if let Some(sc) = shard
                    .cache
                    .get_mut()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_mut()
                {
                    cache_report = Some(
                        sc.cache
                            .invalidate_tagged(u64::from(old_root_node), &impact),
                    );
                }
            }
            merged
        };
        shard.maybe_compact_arena();
        shard.maybe_rebuild_pool()?;

        let epoch = if swapped {
            state.epoch + 1
        } else {
            state.epoch
        };
        inner.tenants.insert(
            tenant,
            TenantState {
                shard: state.shard,
                hash: new_hash,
                epoch,
            },
        );
        Ok(EditReceipt {
            tenant,
            swapped,
            epoch,
            affected_packets,
            merged,
            cache: cache_report,
        })
    }

    /// Reconstruct `tenant`'s current policy as a standalone [`Firewall`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] for unregistered ids.
    pub fn policy(&self, tenant: TenantId) -> Result<Firewall, FleetError> {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let state = guard.state(tenant)?;
        Ok(guard.shards[state.shard].firewall_of(state.hash))
    }

    /// The tenant's serving epoch: bumps exactly when an edit batch
    /// changes its observable function.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownTenant`] for unregistered ids.
    pub fn epoch(&self, tenant: TenantId) -> Result<u64, FleetError> {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        Ok(guard.state(tenant)?.epoch)
    }

    /// All registered tenant ids, in ascending order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut ids: Vec<TenantId> = guard.tenants.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Occupancy and sharing summary.
    pub fn stats(&self) -> FleetStats {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut stats = FleetStats {
            tenants: guard.tenants.len(),
            distinct_policies: 0,
            shards: guard.shards.len(),
            arena_nodes: 0,
            arena_live_nodes: 0,
            pool_nodes: 0,
            distinct_rules: 0,
            approx_bytes: guard.tenants.len()
                * (std::mem::size_of::<(TenantId, TenantState)>() + 16),
            cache: guard.cache_stats(),
        };
        for shard in &guard.shards {
            let roots: Vec<ConsId> = shard.policies.values().map(|e| e.root).collect();
            stats.distinct_policies += shard.policies.len();
            stats.arena_nodes += shard.arena.len();
            stats.arena_live_nodes += shard.arena.live_from(&roots);
            stats.pool_nodes += shard.pool.node_count();
            stats.distinct_rules += shard.store.len();
            stats.approx_bytes += shard.approx_bytes();
        }
        stats
    }

    /// Force full maintenance on every shard: arena compaction (all live
    /// roots retained, pool keys remapped), compiled-pool rebuild from
    /// live roots, and rule-store garbage collection.
    ///
    /// Never required for correctness — the same work runs incrementally
    /// behind mutation thresholds — but useful before
    /// [`save_fleet`](crate::save_fleet) or a stats snapshot.
    ///
    /// # Errors
    ///
    /// [`FleetError::Exec`] if pool recompilation fails (registry
    /// invariants make this unreachable in practice).
    pub fn maintenance(&self) -> Result<(), FleetError> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        for shard in &mut guard.shards {
            shard.compact_arena();
            // Rebuild unconditionally: maintenance is the explicit "make
            // it minimal" entry point.
            let mut pool = SubgraphPool::new(shard.schema.clone());
            for entry in shard.policies.values_mut() {
                entry.root_node = pool.ensure(&shard.arena, entry.root)?;
            }
            shard.pool = pool;
            shard.pool_dead = 0;
            shard.flush_cache();
            shard.rebuild_store();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    fn packets(schema: &Schema, seed: u64, n: usize) -> Vec<Packet> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                let values = schema
                    .iter()
                    .map(|(_, def)| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state % (def.max() + 1)
                    })
                    .collect();
                Packet::new(values)
            })
            .collect()
    }

    #[test]
    fn identical_policies_dedupe_and_serve_identically() {
        let registry = PolicyRegistry::new();
        assert!(!registry.add_tenant(TenantId(1), paper::team_a()).unwrap());
        assert!(registry.add_tenant(TenantId(2), paper::team_a()).unwrap());
        assert!(!registry.add_tenant(TenantId(3), paper::team_b()).unwrap());

        let stats = registry.stats();
        assert_eq!(stats.tenants, 3);
        assert_eq!(stats.distinct_policies, 2);
        assert_eq!(stats.shards, 1, "team_a and team_b share a schema");

        let a = paper::team_a();
        for p in packets(a.schema(), 7, 500) {
            let d1 = registry.classify(TenantId(1), &p).unwrap();
            assert_eq!(d1, registry.classify(TenantId(2), &p).unwrap());
            assert_eq!(d1, a.decision_for(&p).unwrap());
            assert_eq!(
                registry.classify(TenantId(3), &p).unwrap(),
                paper::team_b().decision_for(&p).unwrap()
            );
        }
    }

    #[test]
    fn duplicate_and_unknown_tenants_error() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        assert!(matches!(
            registry.add_tenant(TenantId(1), paper::team_b()),
            Err(FleetError::DuplicateTenant(TenantId(1)))
        ));
        assert!(matches!(
            registry.classify(TenantId(9), &Packet::new(vec![0; 5])),
            Err(FleetError::UnknownTenant(TenantId(9)))
        ));
        assert!(matches!(
            registry.remove_tenant(TenantId(9)),
            Err(FleetError::UnknownTenant(TenantId(9)))
        ));
    }

    #[test]
    fn invalid_packets_are_rejected() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        assert!(matches!(
            registry.classify(TenantId(1), &Packet::new(vec![0, 1])),
            Err(FleetError::InvalidPacket(_))
        ));
        let schema = Schema::paper_example();
        let mut values = vec![0u64; schema.len()];
        values[0] = 2; // interface is 1-bit
        assert!(matches!(
            registry.classify(TenantId(1), &Packet::new(values)),
            Err(FleetError::InvalidPacket(_))
        ));
    }

    #[test]
    fn edits_fork_shared_policies_and_bump_epochs() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        registry.add_tenant(TenantId(2), paper::team_a()).unwrap();
        assert_eq!(registry.stats().distinct_policies, 1);

        // Flip rule 0's decision on tenant 1 only.
        let rules = paper::team_a().rules().to_vec();
        let flipped = rules[0].with_decision(match rules[0].decision() {
            Decision::Accept => Decision::Discard,
            _ => Decision::Accept,
        });
        let receipt = registry
            .apply_edits(
                TenantId(1),
                &[Edit::Replace {
                    index: 0,
                    rule: flipped,
                }],
            )
            .unwrap();
        assert!(receipt.swapped);
        assert!(!receipt.merged);
        assert_eq!(receipt.epoch, 1);
        assert!(receipt.affected_packets > 0);
        assert_eq!(registry.epoch(TenantId(1)).unwrap(), 1);
        assert_eq!(registry.epoch(TenantId(2)).unwrap(), 0);
        assert_eq!(registry.stats().distinct_policies, 2);

        // Tenant 2 still serves the original policy.
        let a = paper::team_a();
        let edited = registry.policy(TenantId(1)).unwrap();
        let mut saw_difference = false;
        let mut probes = packets(a.schema(), 99, 400);
        probes.extend(a.witnesses());
        probes.extend(edited.witnesses());
        for p in probes {
            assert_eq!(
                registry.classify(TenantId(2), &p).unwrap(),
                a.decision_for(&p).unwrap()
            );
            let d1 = registry.classify(TenantId(1), &p).unwrap();
            assert_eq!(d1, edited.decision_for(&p).unwrap());
            saw_difference |= d1 != a.decision_for(&p).unwrap();
        }
        assert!(saw_difference, "flip must be observable on witnesses");

        // Editing tenant 1 back merges it onto tenant 2's entry.
        let receipt = registry
            .apply_edits(
                TenantId(1),
                &[Edit::Replace {
                    index: 0,
                    rule: rules[0].clone(),
                }],
            )
            .unwrap();
        assert!(receipt.swapped);
        assert!(receipt.merged, "identical content must dedupe");
        assert_eq!(receipt.epoch, 2);
        assert_eq!(registry.stats().distinct_policies, 1);
    }

    #[test]
    fn noop_edit_batches_do_not_bump_epochs() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        let rule = paper::team_a().rules()[0].clone();
        let receipt = registry
            .apply_edits(TenantId(1), &[Edit::Replace { index: 0, rule }])
            .unwrap();
        assert!(!receipt.swapped);
        assert!(!receipt.merged);
        assert_eq!(receipt.epoch, 0);
        assert_eq!(receipt.affected_packets, 0);
    }

    #[test]
    fn remove_and_maintenance_reclaim_structure() {
        let registry = PolicyRegistry::new();
        let base = fw_synth::Synthesizer::new(11).firewall(60);
        let fleet = fw_synth::perturb_fleet(&base, 12, 10, 5);
        for (i, fw) in fleet.iter().enumerate() {
            registry.add_tenant(TenantId(i as u64), fw.clone()).unwrap();
        }
        let before = registry.stats();
        for i in 1..12 {
            registry.remove_tenant(TenantId(i)).unwrap();
        }
        registry.maintenance().unwrap();
        let after = registry.stats();
        assert_eq!(after.tenants, 1);
        assert_eq!(after.distinct_policies, 1);
        assert!(after.arena_nodes < before.arena_nodes);
        assert_eq!(after.arena_nodes, after.arena_live_nodes);
        assert!(after.pool_nodes <= before.pool_nodes);
        assert!(after.distinct_rules <= before.distinct_rules);

        // The survivor still serves correctly after full maintenance.
        for p in packets(base.schema(), 3, 300) {
            assert_eq!(
                registry.classify(TenantId(0), &p).unwrap(),
                fleet[0].decision_for(&p).unwrap()
            );
        }

        // And it can still be edited (arena/pool remaps kept it live).
        let receipt = registry
            .apply_edits(TenantId(0), &[Edit::Remove { index: 0 }])
            .unwrap();
        assert_eq!(receipt.epoch, u64::from(receipt.swapped));
        let expected = registry.policy(TenantId(0)).unwrap();
        for p in packets(base.schema(), 4, 200) {
            assert_eq!(
                registry.classify(TenantId(0), &p).unwrap(),
                expected.decision_for(&p).unwrap()
            );
        }
    }

    /// Adds never compact: interning adds only nodes the new root reaches.
    /// Garbage that removals left below `ARENA_COMPACT_FLOOR` therefore
    /// survives the adds that carry the arena past it, and the next
    /// removal compacts it.
    #[test]
    fn adds_past_the_compaction_floor_leave_compaction_to_removals() {
        let registry = PolicyRegistry::new();
        let mut next = 0u64;
        let mut add = |registry: &PolicyRegistry| {
            let fw = fw_synth::Synthesizer::new(500 + next).firewall(60);
            registry.add_tenant(TenantId(next), fw).unwrap();
            next += 1;
            next
        };
        while registry.stats().arena_nodes < ARENA_COMPACT_FLOOR - 600 {
            add(&registry);
        }
        let filled = registry.stats();
        for id in 1..filled.tenants as u64 {
            registry.remove_tenant(TenantId(id)).unwrap();
        }
        assert_eq!(registry.stats().arena_nodes, filled.arena_nodes);

        let mut last = 0;
        while registry.stats().arena_nodes < ARENA_COMPACT_FLOOR {
            last = add(&registry) - 1;
        }
        let crossed = registry.stats();
        assert!(
            crossed.arena_nodes > ARENA_GARBAGE_FACTOR * crossed.arena_live_nodes,
            "garbage dominates past the floor, uncompacted: {crossed:?}"
        );

        registry.remove_tenant(TenantId(last)).unwrap();
        let after = registry.stats();
        assert_eq!(after.arena_nodes, after.arena_live_nodes, "{after:?}");
        assert!(after.arena_nodes < ARENA_COMPACT_FLOOR);
    }

    #[test]
    fn batch_classification_matches_scalar() {
        let registry = PolicyRegistry::new();
        let base = fw_synth::Synthesizer::new(21).firewall(40);
        registry.add_tenant(TenantId(1), base.clone()).unwrap();
        let pkts = packets(base.schema(), 17, 256);
        let batch = PacketBatch::from_columns(
            base.schema().clone(),
            (0..base.schema().len())
                .map(|f| pkts.iter().map(|p| p.values()[f]).collect::<Vec<u64>>())
                .collect(),
        )
        .unwrap();
        let decisions = registry.classify_batch(TenantId(1), &batch).unwrap();
        assert_eq!(decisions.len(), pkts.len());
        for (p, d) in pkts.iter().zip(&decisions) {
            assert_eq!(*d, registry.classify(TenantId(1), p).unwrap());
        }
    }

    #[test]
    fn fleet_sharing_beats_sum_of_parts() {
        // 32 perturbed variants of one policy: shared arena live size must
        // be well under 32 standalone diagrams.
        let base = fw_synth::Synthesizer::new(31).firewall(80);
        let fleet = fw_synth::perturb_fleet(&base, 32, 5, 9);
        let registry = PolicyRegistry::new();
        for (i, fw) in fleet.iter().enumerate() {
            registry.add_tenant(TenantId(i as u64), fw.clone()).unwrap();
        }
        registry.maintenance().unwrap();
        let stats = registry.stats();

        let standalone: usize = fleet
            .iter()
            .map(|fw| {
                let mut arena = ConsArena::new(fw.schema().clone());
                let mut roots = [arena
                    .intern_fdd(&Fdd::from_firewall_fast(fw).unwrap())
                    .unwrap()];
                arena.compact(&mut roots);
                arena.len()
            })
            .sum();
        assert!(
            stats.arena_live_nodes * 2 < standalone,
            "shared {} vs standalone-sum {}",
            stats.arena_live_nodes,
            standalone
        );
        // Rule interning: 32 near-copies of an 80-rule policy must not
        // store 32×80 distinct rules.
        assert!(stats.distinct_rules < 2 * base.len() + 8 * 32);
    }

    #[test]
    fn cached_fleet_serving_agrees_and_shares_warm_entries() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        registry.add_tenant(TenantId(2), paper::team_a()).unwrap();
        registry.add_tenant(TenantId(3), paper::team_b()).unwrap();
        let a = paper::team_a();
        let rows = packets(a.schema(), 5, 512);
        let batch = PacketBatch::from_trace(a.schema().clone(), &rows).unwrap();
        let baseline_a = registry.classify_batch(TenantId(1), &batch).unwrap();
        let baseline_b = registry.classify_batch(TenantId(3), &batch).unwrap();
        assert!(registry.cache_stats().is_none());
        assert!(registry.stats().cache.is_none());

        // Capacity sized so set-conflict evictions are negligible for the
        // working set below.
        registry.enable_cache(1 << 14).unwrap();
        // Cold pass warms the tag tenants 1 and 2 dedup'd onto.
        assert_eq!(
            registry.classify_batch(TenantId(1), &batch).unwrap(),
            baseline_a
        );
        let after_warm = registry.cache_stats().unwrap();
        assert_eq!(after_warm.hits, 0);
        assert!(after_warm.insertions > 0);
        // Tenant 2 shares the policy entry, hence the tag: pure hits.
        assert_eq!(
            registry.classify_batch(TenantId(2), &batch).unwrap(),
            baseline_a
        );
        let after_shared = registry.cache_stats().unwrap();
        assert_eq!(
            after_shared.misses, after_warm.misses,
            "dedup'd tenant must reuse warm entries"
        );
        assert_eq!(after_shared.hits, batch.len() as u64);
        // A different policy is a different tag: no cross-talk.
        assert_eq!(
            registry.classify_batch(TenantId(3), &batch).unwrap(),
            baseline_b
        );
        assert_eq!(registry.stats().cache, registry.cache_stats());

        let lifetime = registry.disable_cache().unwrap();
        assert!(lifetime.hits >= batch.len() as u64);
        assert!(registry.disable_cache().is_none());
        // Serving still works uncached.
        assert_eq!(
            registry.classify_batch(TenantId(1), &batch).unwrap(),
            baseline_a
        );
    }

    #[test]
    fn cached_edits_invalidate_on_full_release_only() {
        let registry = PolicyRegistry::new();
        registry.add_tenant(TenantId(1), paper::team_a()).unwrap();
        registry.add_tenant(TenantId(2), paper::team_a()).unwrap();
        registry.enable_cache(1 << 14).unwrap();
        let a = paper::team_a();
        // Witnesses guarantee the warm set contains at least one packet in
        // the edit's discrepancy region below.
        let mut rows = packets(a.schema(), 41, 400);
        rows.extend(a.witnesses());
        let batch = PacketBatch::from_trace(a.schema().clone(), &rows).unwrap();
        registry.classify_batch(TenantId(1), &batch).unwrap();

        let rules = a.rules().to_vec();
        let flipped = rules[0].with_decision(match rules[0].decision() {
            Decision::Accept => Decision::Discard,
            _ => Decision::Accept,
        });

        // Tenant 1 forks away; tenant 2 still serves the old policy, so
        // its warm entries must be kept: no invalidation.
        let receipt = registry
            .apply_edits(
                TenantId(1),
                &[Edit::Replace {
                    index: 0,
                    rule: flipped.clone(),
                }],
            )
            .unwrap();
        assert!(receipt.swapped);
        assert_eq!(receipt.cache, None);

        // The same edit on tenant 2 fully releases the old policy (and
        // merges onto tenant 1's): now the edit's region is dropped from
        // the released tag.
        let receipt = registry
            .apply_edits(
                TenantId(2),
                &[Edit::Replace {
                    index: 0,
                    rule: flipped,
                }],
            )
            .unwrap();
        assert!(receipt.swapped);
        assert!(receipt.merged);
        let report = receipt.cache.expect("old policy fully released");
        assert!(report.invalidated > 0, "a warm witness sits in the region");

        // Post-edit serving is correct for both tenants, cached.
        let edited = registry.policy(TenantId(1)).unwrap();
        for tenant in [TenantId(1), TenantId(2)] {
            let got = registry.classify_batch(tenant, &batch).unwrap();
            for (p, d) in rows.iter().zip(&got) {
                assert_eq!(*d, edited.decision_for(p).unwrap());
            }
        }
    }

    #[test]
    fn maintenance_flushes_the_cache_and_serving_stays_correct() {
        let registry = PolicyRegistry::new();
        let base = fw_synth::Synthesizer::new(77).firewall(40);
        registry.add_tenant(TenantId(1), base.clone()).unwrap();
        registry.enable_cache(1 << 14).unwrap();
        let pkts = packets(base.schema(), 9, 256);
        let batch = PacketBatch::from_trace(base.schema().clone(), &pkts).unwrap();
        let baseline = registry.classify_batch(TenantId(1), &batch).unwrap();
        let warm = registry.cache_stats().unwrap();
        assert!(warm.insertions > 0);

        // Maintenance rebuilds every pool; root indices restart from zero,
        // so tags alias and the cache must forget everything.
        registry.maintenance().unwrap();
        let flushed = registry.cache_stats().unwrap();
        assert!(flushed.invalidated > 0, "pool rebuild must flush the cache");
        assert_eq!(
            registry.classify_batch(TenantId(1), &batch).unwrap(),
            baseline
        );
        let after = registry.cache_stats().unwrap();
        assert!(after.misses > warm.misses, "flush forces re-misses");
    }
}

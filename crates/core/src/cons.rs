//! A hash-consed FDD arena: one canonical node table where structural
//! equality *is* id equality, and the one place diagrams are canonicalised
//! and paired.
//!
//! [`Fdd`] keeps each diagram in its own vector, in whatever shape its
//! builder left it. The arena takes the discipline BDD packages use
//! (Hazelhurst's access-list analyses): every node is interned at creation
//! into one shared table, canonicalised on the way in (sibling edges
//! merged per child, min-value edge order, a node whose single edge covers
//! the whole domain elided to its child), so
//!
//! * two subdiagrams compute the same function **iff** they have the same
//!   [`ConsId`] — subtree equivalence is one `u32` compare, which is what
//!   lets the product walk short-circuit;
//! * a rebuilt-but-unchanged subdiagram costs no memory — interning
//!   returns the existing id.
//!
//! Diagrams enter through [`ConsArena::intern_fdd`], bottom-up: the fast,
//! the paper-literal and the reduced diagram of one policy all intern to
//! one root. Everything canonical reads off that:
//!
//! * [`Fdd::reduced`] is an intern into a fresh arena followed by an
//!   export ([`ConsArena::to_fdd`]); [`Fdd::isomorphic`] and
//!   [`crate::equivalent`] compare two roots of one arena.
//! * The product walk memoises on the tuple of [`ConsId`]s of any number
//!   of roots, returns at once when they are all equal, and builds the
//!   [`DiffProduct`] that every comparison reads its discrepancies from:
//!   two roots for [`ConsArena::diff`], [`crate::diff_product`],
//!   [`crate::compare_firewalls`], [`ChangeImpact`](crate::ChangeImpact)
//!   and each pair of [`crate::cross_compare`]; all `N` versions at once
//!   for [`crate::direct_compare`].
//! * Phase 3 (§6) asks whether a rule changes a policy's function:
//!   [`ConsArena::prepend`] puts one rule above a diagram, and
//!   [`ConsArena::agree_outside`] compares two roots where a third leaves
//!   packets unmatched (`fw-gen`'s redundancy checks).
//!
//! The edit path rests on the short circuit. An edited policy is rebuilt
//! by [`Fdd::from_firewall_fast`] and interned beside the old diagram, and
//! the diff of the two roots skips every subgraph they share, so the
//! impact costs the changed region, not the policy. The fleet registry
//! keeps every tenant of a schema in one arena, so near-copies share their
//! common subdiagrams by id.
//!
//! Arena terminals carry `Option<Decision>`: `None` is the *unmatched*
//! sentinel, the diagram of the empty rule list (no rule matches). A
//! diagram exported to a servable [`Fdd`] must not reach it
//! ([`ConsArena::to_fdd`] reports the uncovered region otherwise).
//!
//! The arena is append-only — interning never invalidates an id — so
//! callers may hold ids across any number of constructions.
//! [`ConsArena::compact`] is the explicit exception: it rebuilds the table
//! keeping only what a root set reaches and remaps the caller's roots.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use fw_model::{Decision, FieldId, IntervalSet, Predicate, Rule, Schema};

use crate::discrepancy::Discrepancy;
use crate::error::spell_region;
use crate::fdd::{Edge, Fdd, Node, NodeId};
use crate::product::{DiffNode, DiffProduct, SAME};
use crate::CoreError;

/// A tiny multiply-xor hasher (the classic `FxHash` construction): every
/// key on the arena's hot paths is a small integer or a flat integer
/// vector, where the default hasher's per-call setup and byte-wise
/// processing dominate the actual work of interning and memo lookups.
/// Not DoS-resistant — fine for keys derived from policy structure.
///
/// Public (but doc-hidden) so sibling crates on the same hot paths — the
/// shared subgraph pool in `fw-exec`, the fleet registry — can share it;
/// not a semver surface.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` on [`FxHasher`] — the arena-internal map type.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A map from slices of `K` to values that keeps every key back to back in
/// one vector, so that an insert allocates nothing once the vectors have
/// grown: fast construction's survivor-set memo and the product walk's
/// id-tuple memo. Fx-hashed although the keys come from input policies: a
/// crafted policy can already force exponentially many cells (Theorem 1),
/// so collision resistance would buy nothing.
pub(crate) struct SliceMap<K, V> {
    /// Key hash → the newest entry with that hash.
    heads: FxMap<u64, u32>,
    entries: Vec<SliceEntry<V>>,
    keys: Vec<K>,
}

/// One key of a [`SliceMap`]: `keys[at..at + len]`, with the entry
/// inserted before it under the same hash, if any.
struct SliceEntry<V> {
    at: u32,
    len: u32,
    older: Option<u32>,
    value: V,
}

impl<K, V> Default for SliceMap<K, V> {
    fn default() -> Self {
        SliceMap {
            heads: FxMap::default(),
            entries: Vec::new(),
            keys: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + std::hash::Hash, V: Copy> SliceMap<K, V> {
    fn hash(key: &[K]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    pub(crate) fn get(&self, key: &[K]) -> Option<V> {
        let mut at = self.heads.get(&Self::hash(key)).copied();
        while let Some(e) = at {
            let entry = &self.entries[e as usize];
            if &self.keys[entry.at as usize..][..entry.len as usize] == key {
                return Some(entry.value);
            }
            at = entry.older;
        }
        None
    }

    /// Adds `key`, which the map does not hold.
    pub(crate) fn insert(&mut self, key: &[K], value: V) {
        let e = u32::try_from(self.entries.len()).expect("under 2^32 entries");
        let older = self.heads.insert(Self::hash(key), e);
        self.entries.push(SliceEntry {
            at: u32::try_from(self.keys.len()).expect("under 2^32 key words"),
            len: u32::try_from(key.len()).expect("under 2^32 key words"),
            older,
            value,
        });
        self.keys.extend_from_slice(key);
    }
}

/// A canonical node id in a [`ConsArena`]. Two ids from the same arena are
/// equal iff their subdiagrams compute the same function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConsId(u32);

impl ConsId {
    /// The node's position in its arena: dense from zero, below
    /// [`ConsArena::len`], so per-node tables outside the arena can be
    /// plain vectors indexed by id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned edge label: an index into the arena's label store. Labels
/// are hash-consed like nodes — equal id ⟺ equal set — so edge vectors
/// hash and compare as flat `u32` pairs, and the diff compares two edges'
/// labels by id before it touches a set.
pub(crate) type LabelId = u32;

/// A borrowed view of one canonical node ([`ConsArena::view`]): the
/// public, label-resolved counterpart of the arena's internal edge form,
/// for lowering passes in sibling crates that compile arena subgraphs
/// directly (per shared [`ConsId`], without an [`Fdd`] export in between).
#[derive(Debug)]
pub enum ConsView<'a> {
    /// A terminal decision; `None` is the unmatched sentinel (a total
    /// diagram never reaches it).
    Terminal(Option<Decision>),
    /// An internal test: edges merged per child, sorted by least label
    /// value, jointly covering the field's domain.
    Internal {
        /// The field this node tests.
        field: FieldId,
        /// `(label set, child)` per canonical edge.
        edges: Vec<(&'a IntervalSet, ConsId)>,
    },
}

/// One canonical node: a terminal (with `None` as the unmatched sentinel)
/// or an internal test whose edges are merged per child, sorted by least
/// label value, and jointly cover the field's domain.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ConsNode {
    Terminal(Option<Decision>),
    Internal {
        field: FieldId,
        edges: Vec<(LabelId, ConsId)>,
    },
}

/// The canonical node table (see module docs). Nodes and labels intern
/// through content hashes (hash → id) instead of maps keyed by deep
/// signatures, so probing the table never materialises a flattened key —
/// the dominant cost of interning a whole diagram. A 64-bit content
/// hash collides essentially never, so each table maps a hash to a single
/// id and banishes genuine collisions to a (normally empty) spill list
/// scanned on a probe mismatch — no per-entry bucket vector to allocate.
#[derive(Debug, Clone)]
pub struct ConsArena {
    schema: Schema,
    nodes: Vec<ConsNode>,
    table: FxMap<u64, ConsId>,
    /// Nodes whose content hash collided with an earlier, different node.
    table_spill: Vec<ConsId>,
    labels: Vec<IntervalSet>,
    /// `(min, max)` of each label, packed — the diff's window test and the
    /// canonical edge sort read only these, not the interval vectors.
    label_meta: Vec<(u64, u64)>,
    label_table: FxMap<u64, LabelId>,
    /// Labels whose content hash collided with an earlier, different label.
    label_spill: Vec<LabelId>,
    /// Reusable merge buffer for [`internal`](Self::internal) (not
    /// reentrant, which interning is not).
    scratch_per_child: Vec<(ConsId, IntervalSet)>,
    /// Reusable canonical-edge buffer: probed in place, cloned into the
    /// node store only on an actual miss.
    scratch_edges: Vec<(LabelId, ConsId)>,
}

impl ConsArena {
    /// An empty arena over `schema`.
    pub fn new(schema: Schema) -> ConsArena {
        ConsArena {
            schema,
            nodes: Vec::new(),
            table: FxMap::default(),
            table_spill: Vec::new(),
            labels: Vec::new(),
            label_meta: Vec::new(),
            label_table: FxMap::default(),
            label_spill: Vec::new(),
            scratch_per_child: Vec::new(),
            scratch_edges: Vec::new(),
        }
    }

    /// The schema every diagram in this arena ranges over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total interned nodes, live or not (monotone until [`compact`]).
    ///
    /// [`compact`]: ConsArena::compact
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The rank of a node: its field index, or the schema length for
    /// terminals (a terminal is constant on every remaining field).
    pub fn rank(&self, id: ConsId) -> usize {
        match &self.nodes[id.index()] {
            ConsNode::Terminal(_) => self.schema.len(),
            ConsNode::Internal { field, .. } => field.index(),
        }
    }

    /// The decision of a terminal node (`Some(None)` is the unmatched
    /// sentinel); `None` for internal nodes.
    pub fn terminal_decision(&self, id: ConsId) -> Option<Option<Decision>> {
        match &self.nodes[id.index()] {
            ConsNode::Terminal(d) => Some(*d),
            ConsNode::Internal { .. } => None,
        }
    }

    /// Interns the terminal for `decision` (`None` = unmatched sentinel).
    pub fn terminal(&mut self, decision: Option<Decision>) -> ConsId {
        use std::hash::{Hash, Hasher};
        let mut hasher = FxHasher::default();
        // A tag outside the field-index range keeps terminal hashes off the
        // internal-node buckets (collisions would only cost a compare).
        hasher.write_u64(u64::MAX);
        decision.hash(&mut hasher);
        let h = hasher.finish();
        match self.table.get(&h) {
            Some(&id) if self.nodes[id.index()] == ConsNode::Terminal(decision) => return id,
            Some(_) => {
                for &id in &self.table_spill {
                    if self.nodes[id.index()] == ConsNode::Terminal(decision) {
                        return id;
                    }
                }
            }
            None => {}
        }
        let id = ConsId(u32::try_from(self.nodes.len()).expect("arena exceeds u32 indices"));
        self.nodes.push(ConsNode::Terminal(decision));
        match self.table.entry(h) {
            std::collections::hash_map::Entry::Occupied(_) => self.table_spill.push(id),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
        }
        id
    }

    /// The set behind an interned label id.
    pub(crate) fn label(&self, id: LabelId) -> &IntervalSet {
        &self.labels[id as usize]
    }

    /// The `(min, max)` window of an interned label — one packed load, no
    /// interval-vector access.
    pub(crate) fn label_window(&self, id: LabelId) -> (u64, u64) {
        self.label_meta[id as usize]
    }

    /// Interns `set` into the label store: equal sets get equal ids, so
    /// edges hash and compare by id alone.
    fn intern_label(&mut self, set: IntervalSet) -> LabelId {
        use std::hash::Hasher;
        let mut hasher = FxHasher::default();
        for iv in set.iter() {
            hasher.write_u64(iv.lo());
            hasher.write_u64(iv.hi());
        }
        let h = hasher.finish();
        let ConsArena {
            labels,
            label_meta,
            label_table,
            label_spill,
            ..
        } = self;
        let spilled = match label_table.entry(h) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let lid = *e.get();
                if labels[lid as usize] == set {
                    return lid;
                }
                if let Some(&lid) = label_spill.iter().find(|&&l| labels[l as usize] == set) {
                    return lid;
                }
                true
            }
            std::collections::hash_map::Entry::Vacant(_) => false,
        };
        let lid = LabelId::try_from(labels.len()).expect("label store exceeds u32 indices");
        label_meta.push((
            set.min_value().expect("labels are nonempty"),
            set.max_value().expect("labels are nonempty"),
        ));
        labels.push(set);
        if spilled {
            label_spill.push(lid);
        } else {
            label_table.insert(h, lid);
        }
        lid
    }

    /// Interns an internal node at `field` from `(child, label)` parts,
    /// canonicalising: parts with the same child merge their labels, edges
    /// sort by least value, and a node whose single edge covers the whole
    /// domain is elided to its child. The parts' labels must be pairwise
    /// disjoint and jointly cover the field's domain.
    pub fn internal(&mut self, field: FieldId, parts: Vec<(ConsId, IntervalSet)>) -> ConsId {
        let mut per_child = std::mem::take(&mut self.scratch_per_child);
        per_child.clear();
        if parts.len() <= 8 {
            // Small nodes — the bulk of any diagram — merge by linear scan;
            // a HashMap here costs more to build than the merges it saves.
            for (child, label) in parts {
                debug_assert!(!label.is_empty(), "empty edge label");
                debug_assert!(self.rank(child) > field.index(), "child rank out of order");
                match per_child.iter_mut().find(|(c, _)| *c == child) {
                    Some((_, existing)) => *existing = existing.union(&label),
                    None => per_child.push((child, label)),
                }
            }
        } else {
            // Index into `per_child` by child id: a wide node would turn
            // the linear merge scan quadratic.
            let mut slot: FxMap<ConsId, usize> =
                FxMap::with_capacity_and_hasher(parts.len(), BuildHasherDefault::default());
            for (child, label) in parts {
                debug_assert!(!label.is_empty(), "empty edge label");
                debug_assert!(self.rank(child) > field.index(), "child rank out of order");
                match slot.entry(child) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let existing = &mut per_child[*e.get()].1;
                        *existing = existing.union(&label);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(per_child.len());
                        per_child.push((child, label));
                    }
                }
            }
        }
        debug_assert_eq!(
            per_child
                .iter()
                .fold(0u128, |n, (_, l)| n.saturating_add(l.count())),
            self.schema.field(field).domain().count(),
            "edge labels must partition the domain of {field:?}"
        );
        if per_child.len() == 1 {
            let r = per_child.pop().expect("len checked").0;
            self.scratch_per_child = per_child;
            return r;
        }
        let mut edges = std::mem::take(&mut self.scratch_edges);
        edges.clear();
        for (c, l) in per_child.drain(..) {
            let lid = self.intern_label(l);
            edges.push((lid, c));
        }
        self.scratch_per_child = per_child;
        self.intern_edges(field, edges)
    }

    /// Interns an internal node at `field` from edges whose children are
    /// distinct, in any order (two or more of them): sorts them into the
    /// canonical order and probes the table.
    fn intern_edges(&mut self, field: FieldId, mut edges: Vec<(LabelId, ConsId)>) -> ConsId {
        // Disjoint labels have distinct least values, so this order is
        // canonical for the function.
        let label_meta = &self.label_meta;
        edges.sort_unstable_by_key(|(l, _)| label_meta[*l as usize].0);
        use std::hash::Hasher;
        let mut hasher = FxHasher::default();
        hasher.write_usize(field.index());
        for (l, c) in &edges {
            hasher.write_u32(*l);
            hasher.write_u32(c.0);
        }
        let h = hasher.finish();
        let ConsArena {
            nodes,
            table,
            table_spill,
            ..
        } = self;
        let is_same = |id: ConsId| {
            matches!(&nodes[id.index()],
                ConsNode::Internal { field: f2, edges: e2 } if *f2 == field && *e2 == edges)
        };
        let (mut found, spilled) = match table.entry(h) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let id = *e.get();
                if is_same(id) {
                    (Some(id), true)
                } else {
                    (table_spill.iter().copied().find(|&s| is_same(s)), true)
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => (None, false),
        };
        if found.is_none() {
            let id = ConsId(u32::try_from(nodes.len()).expect("arena exceeds u32 indices"));
            // The clone sizes the stored vector exactly; the probe buffer
            // keeps its capacity for the next intern.
            nodes.push(ConsNode::Internal {
                field,
                edges: edges.clone(),
            });
            if spilled {
                table_spill.push(id);
            } else {
                table.insert(h, id);
            }
            found = Some(id);
        }
        edges.clear();
        self.scratch_edges = edges;
        found.expect("probe or insert produced an id")
    }

    /// Borrowing view of an internal node's test field and edges (`None`
    /// for terminals) — the allocation-free form the diff reads; resolve
    /// labels through [`label`](Self::label).
    pub(crate) fn edges(&self, id: ConsId) -> Option<(FieldId, &[(LabelId, ConsId)])> {
        match &self.nodes[id.index()] {
            ConsNode::Terminal(_) => None,
            ConsNode::Internal { field, edges } => Some((*field, edges.as_slice())),
        }
    }

    /// A borrowed public view of one canonical node, for external lowering
    /// passes that walk the arena directly (the compiled runtime's shared
    /// subgraph pool) without exporting a standalone [`Fdd`] first.
    pub fn view(&self, id: ConsId) -> ConsView<'_> {
        match &self.nodes[id.index()] {
            ConsNode::Terminal(d) => ConsView::Terminal(*d),
            ConsNode::Internal { field, edges } => ConsView::Internal {
                field: *field,
                edges: edges
                    .iter()
                    .map(|(lid, child)| (&self.labels[*lid as usize], *child))
                    .collect(),
            },
        }
    }

    /// Approximate heap bytes held by the arena: the node store with its
    /// edge vectors, the interned label store, and the intern tables. An
    /// accounting estimate (hash-map overhead is approximated per entry),
    /// not an allocator measurement — used by the fleet registry's
    /// per-tenant byte reports.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| {
                size_of::<ConsNode>()
                    + match n {
                        ConsNode::Terminal(_) => 0,
                        ConsNode::Internal { edges, .. } => {
                            edges.capacity() * size_of::<(LabelId, ConsId)>()
                        }
                    }
            })
            .sum();
        let label_bytes: usize = self
            .labels
            .iter()
            .map(|s| size_of::<IntervalSet>() + s.heap_bytes())
            .sum();
        let table_bytes = (self.table.capacity() + self.label_table.capacity())
            * (size_of::<u64>() + size_of::<u32>() + size_of::<u64>());
        node_bytes + label_bytes + table_bytes + size_of::<(u64, u64)>() * self.label_meta.len()
    }

    /// The number of nodes reachable from `roots` (deduplicated).
    pub fn live_from(&self, roots: &[ConsId]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<ConsId> = Vec::new();
        for &r in roots {
            if !seen[r.index()] {
                seen[r.index()] = true;
                stack.push(r);
            }
        }
        let mut n = 0usize;
        while let Some(id) = stack.pop() {
            n += 1;
            if let ConsNode::Internal { edges, .. } = &self.nodes[id.index()] {
                for (_, c) in edges {
                    if !seen[c.index()] {
                        seen[c.index()] = true;
                        stack.push(*c);
                    }
                }
            }
        }
        n
    }

    /// A region (as `field=value` pairs) from which `root` reaches the
    /// unmatched sentinel, or `None` if `root` is total — the witness
    /// [`ConsArena::to_fdd`] reports for a diagram that leaves packets
    /// undecided.
    pub fn unmatched_witness(&self, root: ConsId) -> Option<String> {
        // The search walks each node once with the first path that reached
        // it; any path to the sentinel is a valid witness.
        let mut seen = vec![false; self.nodes.len()];
        let mut path: Vec<(FieldId, u64)> = Vec::new();
        self.witness_rec(root, &mut seen, &mut path)
    }

    fn witness_rec(
        &self,
        id: ConsId,
        seen: &mut [bool],
        path: &mut Vec<(FieldId, u64)>,
    ) -> Option<String> {
        if seen[id.index()] {
            return None;
        }
        seen[id.index()] = true;
        match &self.nodes[id.index()] {
            ConsNode::Terminal(None) => Some(if path.is_empty() {
                "any packet (empty rule suffix)".to_owned()
            } else {
                spell_region(&self.schema, path.iter().copied())
            }),
            ConsNode::Terminal(Some(_)) => None,
            ConsNode::Internal { field, edges } => {
                for (lid, child) in edges {
                    let v = self.labels[*lid as usize]
                        .min_value()
                        .expect("nonempty label");
                    path.push((*field, v));
                    if let Some(w) = self.witness_rec(*child, seen, path) {
                        return Some(w);
                    }
                    path.pop();
                }
                None
            }
        }
    }

    /// Interns every node of `fdd` — typically a
    /// [`Fdd::from_firewall_fast`] build — bottom-up, and returns the
    /// canonical id of its root. Each [`NodeId`] is interned once, so a
    /// DAG costs its node count, not its path count. Interning
    /// canonicalises, so any two diagrams of one function get one id: the
    /// fast, the paper-literal and the reduced diagram of a policy all
    /// intern to the same root. `fdd` must satisfy [`Fdd::validate`], as
    /// every diagram this crate builds does.
    ///
    /// # Errors
    ///
    /// [`CoreError::SchemaMismatch`] if `fdd` is not over the arena's
    /// schema.
    pub fn intern_fdd(&mut self, fdd: &Fdd) -> Result<ConsId, CoreError> {
        if fdd.schema() != &self.schema {
            return Err(CoreError::SchemaMismatch);
        }
        let mut memo = vec![None; fdd.arena_len()];
        Ok(self.intern_rec(fdd, fdd.root(), &mut memo))
    }

    // Depth is bounded by the schema's field count, so plain recursion is
    // safe here.
    fn intern_rec(&mut self, fdd: &Fdd, id: NodeId, memo: &mut [Option<ConsId>]) -> ConsId {
        if let Some(c) = memo[id.index()] {
            return c;
        }
        let c = match fdd.node(id) {
            Node::Terminal(d) => self.terminal(Some(*d)),
            Node::Internal { field, edges } => {
                let parts = edges
                    .iter()
                    .map(|e| (self.intern_rec(fdd, e.target, memo), e.label.clone()))
                    .collect();
                self.internal(*field, parts)
            }
        };
        memo[id.index()] = Some(c);
        c
    }

    /// Exports the diagram rooted at `root` as a standalone reduced
    /// [`Fdd`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NotComprehensive`] if the unmatched sentinel is
    /// reachable — the diagram does not decide every packet and cannot be
    /// served.
    pub fn to_fdd(&self, root: ConsId) -> Result<Fdd, CoreError> {
        if let Some(witness) = self.unmatched_witness(root) {
            return Err(CoreError::NotComprehensive { witness });
        }
        let mut fdd = Fdd::empty(self.schema.clone());
        let mut map: FxMap<ConsId, NodeId> = FxMap::default();
        let new_root = self.export_rec(root, &mut fdd, &mut map);
        fdd.set_root(new_root);
        debug_assert!(fdd.validate().is_ok());
        Ok(fdd)
    }

    // Depth is bounded by the schema's field count, so plain recursion is
    // safe here.
    fn export_rec(&self, id: ConsId, fdd: &mut Fdd, map: &mut FxMap<ConsId, NodeId>) -> NodeId {
        if let Some(&n) = map.get(&id) {
            return n;
        }
        let n = match &self.nodes[id.index()] {
            ConsNode::Terminal(d) => {
                fdd.push(Node::Terminal(d.expect("checked total before export")))
            }
            ConsNode::Internal { field, edges } => {
                let lowered: Vec<Edge> = edges
                    .iter()
                    .map(|(lid, child)| Edge {
                        label: self.labels[*lid as usize].clone(),
                        target: self.export_rec(*child, fdd, map),
                    })
                    .collect();
                fdd.push(Node::Internal {
                    field: *field,
                    edges: lowered,
                })
            }
        };
        map.insert(id, n);
        n
    }

    /// Rebuilds the arena keeping only nodes reachable from `roots`,
    /// rewriting each root to its new id. Every other outstanding
    /// [`ConsId`] is invalidated — this is the one operation that breaks
    /// the append-only guarantee, so it is explicit.
    pub fn compact(&mut self, roots: &mut [ConsId]) {
        self.compact_mapped(roots);
    }

    /// [`compact`](Self::compact), also returning the old-id → new-id map
    /// for every retained node. Multi-root owners (the fleet registry, with
    /// many tenants' roots in one arena) use the map to remap every
    /// outstanding id — policy roots, compiled-pool keys — instead of
    /// dropping that state. Ids absent from the map were unreachable from
    /// `roots` and are gone.
    pub fn compact_mapped(&mut self, roots: &mut [ConsId]) -> FxMap<ConsId, ConsId> {
        let mut fresh = ConsArena::new(self.schema.clone());
        let mut map: FxMap<ConsId, ConsId> = FxMap::default();
        for r in roots.iter_mut() {
            *r = self.compact_rec(*r, &mut fresh, &mut map);
        }
        *self = fresh;
        map
    }

    fn compact_rec(
        &self,
        id: ConsId,
        fresh: &mut ConsArena,
        map: &mut FxMap<ConsId, ConsId>,
    ) -> ConsId {
        if let Some(&n) = map.get(&id) {
            return n;
        }
        let n = match &self.nodes[id.index()] {
            ConsNode::Terminal(d) => fresh.terminal(*d),
            ConsNode::Internal { field, edges } => {
                let parts = edges
                    .iter()
                    .map(|(lid, child)| {
                        (
                            self.compact_rec(*child, fresh, map),
                            self.labels[*lid as usize].clone(),
                        )
                    })
                    .collect();
                fresh.internal(*field, parts)
            }
        };
        map.insert(id, n);
        n
    }

    /// A fresh arena over `a`'s schema holding both diagrams, with their
    /// roots.
    ///
    /// # Errors
    ///
    /// [`CoreError::SchemaMismatch`] if the schemas differ.
    pub(crate) fn of_pair(a: &Fdd, b: &Fdd) -> Result<(ConsArena, ConsId, ConsId), CoreError> {
        let mut arena = ConsArena::new(a.schema().clone());
        let ra = arena.intern_fdd(a)?;
        let rb = arena.intern_fdd(b)?;
        Ok((arena, ra, rb))
    }

    /// The synchronized product of the diagrams rooted at `roots`: the
    /// product walk overlays each distinct tuple of ids once and returns
    /// the agreeing leaf the moment it sees all of them equal, because in a
    /// hash-consed arena equal ids are equal functions. After a localized
    /// edit it touches only the region the edit changed, never the shared
    /// bulk of the diagram.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invariant`] if fewer than two roots are given, or if
    /// the walk reaches the unmatched sentinel (walk the total diagrams of
    /// comprehensive policies).
    pub fn product(&self, roots: &[ConsId]) -> Result<DiffProduct, CoreError> {
        if roots.len() < 2 {
            return Err(CoreError::Invariant(
                "a product needs at least two diagrams".to_owned(),
            ));
        }
        let mut walk = ProductWalk {
            arena: self,
            memo: SliceMap::default(),
            nodes: vec![DiffNode::Same],
            decisions: Vec::new(),
            tuples: vec![Vec::new(); self.schema.len()],
        };
        let root = walk.node(roots)?;
        Ok(DiffProduct::new(
            self.schema.clone(),
            walk.nodes,
            walk.decisions,
            roots.len(),
            root,
        ))
    }

    /// All functional discrepancies between the diagrams rooted at `a` and
    /// `b`, as coalesced disjoint regions: the [`DiffProduct::discrepancies`]
    /// of their product, which skips every subgraph the two share.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invariant`] if either diagram reaches the unmatched
    /// sentinel (diff the total diagrams of comprehensive policies).
    pub fn diff(&self, a: ConsId, b: ConsId) -> Result<Vec<Discrepancy>, CoreError> {
        Ok(self.product(&[a, b])?.discrepancies())
    }

    /// The diagram of `rule` placed first above the diagram `below`:
    /// packets in the rule's box get its decision, every other packet goes
    /// to `below`. Prepending a list's rules from the last to the first
    /// onto `terminal(None)` builds its diagram. Only the box is walked:
    /// an edge outside it keeps its child and its interned label, so the
    /// result shares everything else with `below`.
    pub fn prepend(&mut self, rule: &Rule, below: ConsId) -> ConsId {
        let top = self.terminal(Some(rule.decision()));
        self.prepend_rec(rule.predicate(), top, 0, below, &mut FxMap::default())
    }

    // Depth is bounded by the schema's field count, so plain recursion is
    // safe here.
    fn prepend_rec(
        &mut self,
        pred: &Predicate,
        top: ConsId,
        field: usize,
        below: ConsId,
        memo: &mut FxMap<(usize, ConsId), ConsId>,
    ) -> ConsId {
        // Past the last field the rule constrains, the box decides.
        let schema = &self.schema;
        let wild =
            (field..schema.len()).all(|f| pred.sets()[f].covers(schema.field(FieldId(f)).domain()));
        if wild || below == top {
            return top;
        }
        if let Some(&id) = memo.get(&(field, below)) {
            return id;
        }
        let (fid, set) = (FieldId(field), &pred.sets()[field]);
        let edges = match self.edges(below) {
            Some((f, edges)) if f == fid => edges.to_vec(),
            // Constant on this field: one edge over the whole domain.
            _ => {
                let domain = IntervalSet::from_interval(self.schema.field(fid).domain());
                vec![(self.intern_label(domain), below)]
            }
        };
        let mut parts = Vec::with_capacity(edges.len() + 1);
        for (lid, child) in edges {
            // An edge outside the box keeps its label id; one across the
            // box's border is split, and its inner part descends.
            let label = self.label(lid);
            if !label.intersects(set) {
                parts.push((lid, child));
                continue;
            }
            let inner = if label.is_subset_of(set) {
                lid
            } else {
                let (outer, inner) = (label.subtract(set), label.intersect(set));
                parts.push((self.intern_label(outer), child));
                self.intern_label(inner)
            };
            parts.push((inner, self.prepend_rec(pred, top, field + 1, child, memo)));
        }
        // Parts that share a child merge their labels.
        parts.sort_unstable_by_key(|&(_, c)| c);
        parts.dedup_by(|later, kept| {
            let same = later.1 == kept.1;
            if same {
                kept.0 = self.intern_label(self.label(kept.0).union(self.label(later.0)));
            }
            same
        });
        let id = match parts[..] {
            [(_, only)] => only,
            _ => self.intern_edges(fid, parts),
        };
        memo.insert((field, below), id);
        id
    }

    /// Whether the diagrams rooted at `a` and `b` decide alike every packet
    /// that the diagram rooted at `cover` leaves unmatched (takes to the
    /// `None` sentinel). A yes/no walk that builds nothing: it returns at
    /// equal ids and at covered leaves, and stops at the first disagreement.
    pub fn agree_outside(&self, cover: ConsId, a: ConsId, b: ConsId) -> bool {
        self.agree_rec([cover, a, b], &mut FxMap::default())
    }

    /// [`agree_outside`](Self::agree_outside) of `ids`, remembering the
    /// triples that agree.
    fn agree_rec(&self, ids: [ConsId; 3], agreed: &mut FxMap<[ConsId; 3], ()>) -> bool {
        let covered = |id| matches!(self.terminal_decision(id), Some(Some(_)));
        if ids[1] == ids[2] || covered(ids[0]) || agreed.contains_key(&ids) {
            return true;
        }
        let [c, a, b] = ids.map(|id| self.rank(id));
        let rank = c.min(a).min(b);
        if rank == self.schema.len() {
            // Unequal terminals where `cover` leaves the packets unmatched.
            return false;
        }
        // Each node's edges at this field, or one whole-domain edge to
        // itself if it tests a later field.
        let (field, whole) = (FieldId(rank), self.schema.field(FieldId(rank)).domain());
        let whole = IntervalSet::from_interval(whole);
        let edges = |id: ConsId| match self.edges(id) {
            Some((f, out)) if f == field => out.iter().map(|&(l, c)| (self.label(l), c)).collect(),
            _ => vec![(&whole, id)],
        };
        let [cover, a, b] = ids.map(edges);
        for (lc, c) in cover.into_iter().filter(|&(_, c)| !covered(c)) {
            for &(la, x) in &a {
                let cell = lc.intersect(la);
                for &(lb, y) in &b {
                    if cell.intersects(lb) && !self.agree_rec([c, x, y], agreed) {
                        return false;
                    }
                }
            }
        }
        agreed.insert(ids, ());
        true
    }
}

impl Fdd {
    /// Returns the canonical reduced form: no two reachable nodes are
    /// isomorphic, no node has two outgoing edges to the same child, and a
    /// node with a single full-domain edge is elided. The diagram is
    /// interned into a fresh [`ConsArena`], which canonicalises on the way
    /// in, and exported again. `self` must satisfy [`Fdd::validate`], as
    /// every diagram this crate builds does.
    ///
    /// Two equivalent ordered FDDs over the same schema reduce to
    /// structurally identical diagrams, which is what [`Fdd::isomorphic`]
    /// checks.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), fw_core::CoreError> {
    /// use fw_core::Fdd;
    /// use fw_model::paper;
    ///
    /// let fdd = Fdd::from_firewall(&paper::team_a())?;
    /// let reduced = fdd.reduced();
    /// assert!(reduced.node_count() <= fdd.node_count());
    /// # Ok(())
    /// # }
    /// ```
    pub fn reduced(&self) -> Fdd {
        let mut arena = ConsArena::new(self.schema().clone());
        let root = arena
            .intern_fdd(self)
            .expect("an arena over the diagram's own schema");
        arena
            .to_fdd(root)
            .expect("an Fdd has no unmatched sentinel to reach")
    }

    /// Whether two FDDs have identical reduced structure — i.e. they are
    /// equivalent *as ordered diagrams over the same schema*: both intern
    /// to one root in one arena.
    ///
    /// This is a complete equivalence test for diagrams over one schema,
    /// and is cheaper than a diff when no discrepancy listing is needed.
    pub fn isomorphic(&self, other: &Fdd) -> bool {
        matches!(ConsArena::of_pair(self, other), Ok((_, a, b)) if a == b)
    }
}

/// The product walk behind [`ConsArena::product`]: one product node per
/// distinct tuple of ids that are not all equal, pushed after its children.
struct ProductWalk<'a> {
    arena: &'a ConsArena,
    memo: SliceMap<ConsId, u32>,
    nodes: Vec<DiffNode>,
    /// The decision tuples of the [`DiffNode::Differ`] leaves, back to
    /// back.
    decisions: Vec<Decision>,
    /// Per field, the child tuple of the node being walked there.
    tuples: Vec<Vec<ConsId>>,
}

/// One cell of the overlay at a product node, as the walk narrows it: the
/// whole domain, then an interned label while every edge taken so far
/// carries that label, then their intersection.
enum Cell {
    Whole,
    Label(LabelId),
    Set(IntervalSet),
}

impl Cell {
    /// The cell's `(min, max)`.
    fn window(&self, arena: &ConsArena) -> (u64, u64) {
        match self {
            Cell::Whole => (0, u64::MAX),
            Cell::Label(m) => arena.label_window(*m),
            Cell::Set(set) => (
                set.min_value().expect("cells are nonempty"),
                set.max_value().expect("cells are nonempty"),
            ),
        }
    }

    /// Whether the cell meets label `l`, without building their
    /// intersection. Equal interned ids are equal sets.
    fn meets(&self, arena: &ConsArena, l: LabelId) -> bool {
        match self {
            Cell::Whole => true,
            Cell::Label(m) => *m == l || arena.label(*m).intersects(arena.label(l)),
            Cell::Set(set) => set.intersects(arena.label(l)),
        }
    }

    /// The cell narrowed to label `l`.
    fn narrow(&self, arena: &ConsArena, l: LabelId) -> Cell {
        match self {
            Cell::Whole => Cell::Label(l),
            Cell::Label(m) if *m == l => Cell::Label(l),
            Cell::Label(m) => Cell::Set(arena.label(*m).intersect(arena.label(l))),
            Cell::Set(set) => Cell::Set(set.intersect(arena.label(l))),
        }
    }

    fn into_set(self, arena: &ConsArena) -> IntervalSet {
        match self {
            Cell::Whole => unreachable!("a narrowed cell is a label or a set"),
            Cell::Label(l) => arena.label(l).clone(),
            Cell::Set(set) => set,
        }
    }
}

impl ProductWalk<'_> {
    fn node(&mut self, ids: &[ConsId]) -> Result<u32, CoreError> {
        if ids.iter().all(|&id| id == ids[0]) {
            // The short circuit: equal ids are equal functions.
            return Ok(SAME);
        }
        if let Some(id) = self.memo.get(ids) {
            return Ok(id);
        }
        let arena = self.arena;
        let rank = ids.iter().map(|&id| arena.rank(id)).min();
        let rank = rank.expect("a product of at least two roots");
        let node = if rank == arena.schema.len() {
            // Terminals are consed: ids not all equal, decisions not all
            // equal.
            let at = u32::try_from(self.decisions.len()).expect("product exceeds u32 indices");
            for &id in ids {
                match arena.terminal_decision(id) {
                    Some(Some(x)) => self.decisions.push(x),
                    _ => {
                        return Err(CoreError::Invariant(
                            "diff reached the unmatched sentinel; operands must be total".into(),
                        ))
                    }
                }
            }
            DiffNode::Differ(at)
        } else {
            let field = FieldId(rank);
            let last = ids.iter().rposition(|&id| arena.rank(id) == rank);
            let last = last.expect("the least rank is some id's");
            let mut edges: Vec<(IntervalSet, u32)> = Vec::new();
            // A node's child tuples rank below its field, so one buffer
            // per field serves the whole recursion.
            let mut children = std::mem::take(&mut self.tuples[rank]);
            children.clear();
            children.extend_from_slice(ids);
            let walked = self.overlay(
                field,
                &ids[..=last],
                0,
                Cell::Whole,
                &mut children,
                &mut edges,
            );
            self.tuples[rank] = children;
            walked?;
            debug_assert!(
                !edges.is_empty(),
                "unequal ids in a canonical arena are unequal functions"
            );
            // Disjoint cells have distinct least values: the order the
            // raw cells come out in.
            edges.sort_unstable_by_key(|(cell, _)| cell.min_value());
            DiffNode::Split { field, edges }
        };
        self.nodes.push(node);
        let id = u32::try_from(self.nodes.len() - 1).expect("product exceeds u32 indices");
        self.memo.insert(ids, id);
        Ok(id)
    }

    /// Narrows `cell` by each edge of `ids[k]` in turn, then of every later
    /// id, and walks the children of every nonempty cell, keeping the
    /// disagreeing ones in `edges`; only those cells are built. `ids` ends
    /// with the last id testing `field`. The interned edges are read in
    /// place. An id ranked deeper than `field` acts as a single full-domain
    /// edge back to itself, which `children` already holds. Each child
    /// tuple comes from one cell only, because every node's edges are
    /// merged per child.
    fn overlay(
        &mut self,
        field: FieldId,
        ids: &[ConsId],
        k: usize,
        cell: Cell,
        children: &mut [ConsId],
        edges: &mut Vec<(IntervalSet, u32)>,
    ) -> Result<(), CoreError> {
        let arena = self.arena;
        let out = match arena.edges(ids[k]) {
            Some((f, out)) if f == field => out,
            _ => return self.overlay(field, ids, k + 1, cell, children, edges),
        };
        // The packed windows rule out most edges without touching a set,
        // and edges come in order of their least value, so the first one
        // starting past the cell ends the scan.
        let (lo, hi) = cell.window(arena);
        for &(l, c) in out {
            let (llo, lhi) = arena.label_window(l);
            if llo > hi {
                break;
            }
            if lhi < lo || !cell.meets(arena, l) {
                continue;
            }
            children[k] = c;
            if k + 1 < ids.len() {
                let next = cell.narrow(arena, l);
                self.overlay(field, ids, k + 1, next, children, edges)?;
            } else {
                let child = self.node(children)?;
                if child != SAME {
                    edges.push((cell.narrow(arena, l).into_set(arena), child));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{FieldDef, Interval};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    fn set(lo: u64, hi: u64) -> IntervalSet {
        IntervalSet::from_interval(Interval::new(lo, hi).unwrap())
    }

    #[test]
    fn terminals_are_consed() {
        let mut a = ConsArena::new(tiny_schema());
        let t1 = a.terminal(Some(Decision::Accept));
        let t2 = a.terminal(Some(Decision::Accept));
        let t3 = a.terminal(Some(Decision::Discard));
        let u = a.terminal(None);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_ne!(t1, u);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn internal_nodes_cons_merge_and_elide() {
        let mut a = ConsArena::new(tiny_schema());
        let acc = a.terminal(Some(Decision::Accept));
        let dis = a.terminal(Some(Decision::Discard));

        // A single edge covering the domain elides to its child.
        let elided = a.internal(FieldId(1), vec![(acc, set(0, 7))]);
        assert_eq!(elided, acc);

        // Two parts to the same child merge — and still elide.
        let merged = a.internal(FieldId(1), vec![(acc, set(0, 3)), (acc, set(4, 7))]);
        assert_eq!(merged, acc);

        // Structurally equal internals get one id, regardless of part
        // order.
        let n1 = a.internal(FieldId(1), vec![(acc, set(0, 3)), (dis, set(4, 7))]);
        let n2 = a.internal(FieldId(1), vec![(dis, set(4, 7)), (acc, set(0, 3))]);
        assert_eq!(n1, n2);
        assert_eq!(a.rank(n1), 1);
        assert_eq!(a.rank(acc), 2);
    }

    #[test]
    fn export_rejects_partial_diagrams_with_witness() {
        let mut a = ConsArena::new(tiny_schema());
        let acc = a.terminal(Some(Decision::Accept));
        let gap = a.terminal(None);
        let n = a.internal(FieldId(0), vec![(acc, set(0, 3)), (gap, set(4, 7))]);
        match a.to_fdd(n) {
            Err(CoreError::NotComprehensive { witness }) => {
                assert!(witness.contains("a=4"), "witness was {witness}");
            }
            other => panic!("expected NotComprehensive, got {other:?}"),
        }
        assert!(a.unmatched_witness(acc).is_none());
    }

    #[test]
    fn export_round_trips_decisions() {
        let mut a = ConsArena::new(tiny_schema());
        let acc = a.terminal(Some(Decision::Accept));
        let dis = a.terminal(Some(Decision::Discard));
        let inner = a.internal(FieldId(1), vec![(acc, set(0, 1)), (dis, set(2, 7))]);
        let root = a.internal(FieldId(0), vec![(inner, set(0, 3)), (acc, set(4, 7))]);
        let fdd = a.to_fdd(root).unwrap();
        fdd.validate().unwrap();
        for x in 0..8u64 {
            for y in 0..8u64 {
                let p = fw_model::Packet::new(vec![x, y]);
                let want = if x >= 4 || y <= 1 {
                    Decision::Accept
                } else {
                    Decision::Discard
                };
                assert_eq!(fdd.decision_for(&p), Some(want), "at {p}");
            }
        }
        assert_eq!(a.live_from(&[root]), 4);
    }

    #[test]
    fn diff_short_circuits_and_reports_regions() {
        let mut a = ConsArena::new(tiny_schema());
        let acc = a.terminal(Some(Decision::Accept));
        let dis = a.terminal(Some(Decision::Discard));
        let left = a.internal(FieldId(0), vec![(acc, set(0, 3)), (dis, set(4, 7))]);
        assert!(a.diff(left, left).unwrap().is_empty());
        assert!(a.product(&[left]).is_err());

        let right = a.internal(FieldId(0), vec![(acc, set(0, 4)), (dis, set(5, 7))]);
        let ds = a.diff(left, right).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].left(), Decision::Discard);
        assert_eq!(ds[0].right(), Decision::Accept);
        assert_eq!(ds[0].packet_count(), 8); // a=4, b free

        // Structurally different but functionally equal: diff is empty.
        let split = a.internal(
            FieldId(1),
            vec![(acc, set(0, 3)), (acc, set(4, 7))], // merges+elides to acc
        );
        assert_eq!(split, acc);
    }

    #[test]
    fn intern_fdd_is_canonical_and_schema_checked() {
        for fw in [fw_model::paper::team_a(), fw_model::paper::team_b()] {
            let mut a = ConsArena::new(fw.schema().clone());
            let fast = Fdd::from_firewall_fast(&fw).unwrap();
            let literal = Fdd::from_firewall(&fw).unwrap();
            let root = a.intern_fdd(&fast).unwrap();
            assert_eq!(a.intern_fdd(&literal).unwrap(), root);
            assert_eq!(a.intern_fdd(&literal.reduced()).unwrap(), root);
            // The export is the fast diagram, node for node up to ids.
            assert!(a.to_fdd(root).unwrap().isomorphic(&fast));
            assert_eq!(a.live_from(&[root]), fast.node_count());
        }
        let mut other = ConsArena::new(tiny_schema());
        let fast = Fdd::from_firewall_fast(&fw_model::paper::team_a()).unwrap();
        assert!(matches!(
            other.intern_fdd(&fast),
            Err(CoreError::SchemaMismatch)
        ));
    }

    #[test]
    fn compact_keeps_roots_and_drops_garbage() {
        let mut a = ConsArena::new(tiny_schema());
        let acc = a.terminal(Some(Decision::Accept));
        let dis = a.terminal(Some(Decision::Discard));
        let keep = a.internal(FieldId(0), vec![(acc, set(0, 3)), (dis, set(4, 7))]);
        let _garbage = a.internal(FieldId(1), vec![(acc, set(0, 0)), (dis, set(1, 7))]);
        let before = a.to_fdd(keep).unwrap();
        let mut roots = [keep];
        a.compact(&mut roots);
        assert_eq!(a.len(), 3);
        let after = a.to_fdd(roots[0]).unwrap();
        assert!(before.isomorphic(&after));
    }

    fn exhaustive_eq(x: &Fdd, y: &Fdd) {
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = fw_model::Packet::new(vec![a, b]);
                assert_eq!(x.decision_for(&p), y.decision_for(&p), "at {p}");
            }
        }
    }

    #[test]
    fn reduction_preserves_semantics() {
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-3, b=2-5 -> discard\na=2-6 -> accept\n* -> discard\n",
        )
        .unwrap();
        let fdd = Fdd::from_firewall(&fw).unwrap();
        let red = fdd.reduced();
        red.validate().unwrap();
        exhaustive_eq(&fdd, &red);
        assert!(red.node_count() <= fdd.node_count());
    }

    #[test]
    fn reduction_elides_trivial_levels() {
        // Field b is never tested meaningfully: all paths accept.
        let fw =
            fw_model::Firewall::parse(tiny_schema(), "a=0-7 -> accept\n* -> discard\n").unwrap();
        let red = Fdd::from_firewall(&fw).unwrap().reduced();
        // The whole diagram collapses to a single accept terminal.
        assert_eq!(red.node_count(), 1);
        assert_eq!(red.path_count(), 1);
    }

    #[test]
    fn reduction_merges_isomorphic_subtrees() {
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-1, b=0-3 -> discard\na=4-5, b=0-3 -> discard\n* -> accept\n",
        )
        .unwrap();
        let fdd = Fdd::from_firewall(&fw).unwrap();
        let red = fdd.reduced();
        exhaustive_eq(&fdd, &red);
        // The identical subtrees under a=0-1 and a=4-5 are shared now.
        assert!(!red.is_tree() || red.node_count() < fdd.node_count());
    }

    #[test]
    fn reduction_merges_same_child_edges() {
        // a=0-1 and a=6-7 behave identically => one edge with a 2-run label.
        let fw =
            fw_model::Firewall::parse(tiny_schema(), "a=2-5 -> discard\n* -> accept\n").unwrap();
        let red = Fdd::from_firewall(&fw).unwrap().reduced();
        match red.view(red.root()) {
            crate::fdd::NodeView::Internal { edges, .. } => {
                assert_eq!(edges.len(), 2);
                let multi = edges.iter().find(|e| e.label().run_count() == 2);
                assert!(multi.is_some(), "expected a merged 2-run edge label");
            }
            _ => panic!("root should be internal"),
        }
    }

    #[test]
    fn isomorphic_detects_equivalence_across_rule_orders() {
        // Two different-looking but equivalent policies.
        let f1 = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-3 -> accept\na=4-7 -> discard\n* -> accept\n",
        )
        .unwrap();
        let f2 =
            fw_model::Firewall::parse(tiny_schema(), "a=4-7 -> discard\n* -> accept\n").unwrap();
        let x = Fdd::from_firewall(&f1).unwrap();
        let y = Fdd::from_firewall(&f2).unwrap();
        assert!(x.isomorphic(&y));
        // And inequivalence is detected.
        let f3 = fw_model::Firewall::parse(tiny_schema(), "* -> accept").unwrap();
        assert!(!x.isomorphic(&Fdd::from_firewall(&f3).unwrap()));
    }

    #[test]
    fn paper_fdds_reduce_and_stay_correct() {
        for fw in [fw_model::paper::team_a(), fw_model::paper::team_b()] {
            let fdd = Fdd::from_firewall(&fw).unwrap();
            let red = fdd.reduced();
            red.validate().unwrap();
            for p in fw.witnesses() {
                assert_eq!(red.decision_for(&p), fw.decision_for(&p));
            }
            assert!(red.node_count() <= fdd.node_count());
        }
    }

    /// A three-field schema: deep enough that one node can be reached at
    /// two different fields.
    fn three_fields() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 2).unwrap(),
            FieldDef::new("c", 2).unwrap(),
        ])
        .unwrap()
    }

    /// The rule list that `seed` draws over [`three_fields`]: up to five
    /// rules of one-run boxes, with or without a catch-all at the end.
    fn drawn_rules(seed: u64) -> Vec<fw_model::Rule> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let schema = three_fields();
        let mut rules = Vec::new();
        for _ in 0..next(6) {
            let sets = schema.iter().map(|(_, f)| {
                let (lo, hi) = (next(f.max() + 1), next(f.max() + 1));
                set(lo.min(hi), lo.max(hi))
            });
            let pred = fw_model::Predicate::new(&schema, sets.collect()).unwrap();
            rules.push(fw_model::Rule::new(pred, Decision::ALL[next(4) as usize]));
        }
        if next(2) == 0 {
            rules.push(fw_model::Rule::catch_all(&schema, Decision::Accept));
        }
        rules
    }

    /// Every packet of [`three_fields`].
    fn packets() -> impl Iterator<Item = fw_model::Packet> {
        (0..8u64).flat_map(|a| {
            (0..4u64)
                .flat_map(move |b| (0..4u64).map(move |c| fw_model::Packet::new(vec![a, b, c])))
        })
    }

    /// The decision of the diagram at `id` for packet `p`.
    fn decide(arena: &ConsArena, mut id: ConsId, p: &fw_model::Packet) -> Option<Decision> {
        loop {
            match arena.view(id) {
                ConsView::Terminal(d) => return d,
                ConsView::Internal { field, edges } => {
                    let v = p.value(field);
                    id = edges.iter().find(|(l, _)| l.contains(v)).unwrap().1;
                }
            }
        }
    }

    #[test]
    fn prepend_builds_first_match_and_the_fast_root() {
        for seed in 0..300 {
            let rules = drawn_rules(seed);
            let mut a = ConsArena::new(three_fields());
            let mut root = a.terminal(None);
            for r in rules.iter().rev() {
                root = a.prepend(r, root);
            }
            for p in packets() {
                let first = rules.iter().find(|r| r.matches(&p)).map(|r| r.decision());
                assert_eq!(decide(&a, root, &p), first, "seed {seed} at {p}");
            }
            if let Ok(fw) = fw_model::Firewall::new(three_fields(), rules) {
                if let Ok(fast) = Fdd::from_firewall_fast(&fw) {
                    assert_eq!(a.intern_fdd(&fast).unwrap(), root, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn agree_outside_checks_only_uncovered_packets() {
        for seed in 0..300 {
            let mut a = ConsArena::new(three_fields());
            let mut roots = [a.terminal(None); 3];
            for (k, root) in roots.iter_mut().enumerate() {
                for r in drawn_rules(seed * 3 + k as u64).iter().rev() {
                    *root = a.prepend(r, *root);
                }
            }
            let [cover, x, y] = roots;
            let brute = packets()
                .all(|p| decide(&a, cover, &p).is_some() || decide(&a, x, &p) == decide(&a, y, &p));
            assert_eq!(a.agree_outside(cover, x, y), brute, "seed {seed}");
            assert!(a.agree_outside(cover, x, x));
            let none = a.terminal(None);
            assert_eq!(a.agree_outside(none, x, y), x == y, "seed {seed}");
        }
    }

    #[test]
    fn reduction_is_idempotent() {
        let fdd = Fdd::from_firewall(&fw_model::paper::team_b()).unwrap();
        let once = fdd.reduced();
        let twice = once.reduced();
        assert!(once.isomorphic(&twice));
        assert_eq!(once.node_count(), twice.node_count());
    }
}

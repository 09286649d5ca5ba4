//! Memoised **synchronized-product comparison** of two FDDs.
//!
//! The paper's shaping + comparison pipeline (§4–§5) aligns two *trees*
//! until they are semi-isomorphic and then walks them in lockstep. The
//! cells it visits are exactly the overlay of the two diagrams' decision
//! paths — which is the *product* of the two diagrams. Computing that
//! product directly over the **reduced DAGs**, memoised per node pair,
//! yields the identical discrepancy cells while visiting each distinct
//! subproblem once; this is the engineering that lets two independent
//! 3,000-rule policies compare in seconds (§8.2.2) without materialising
//! the worst-case `O((n+m)^d)` tree.
//!
//! The result, [`DiffProduct`], is itself a decision diagram whose
//! terminals carry *pairs* of decisions; everything the evaluation needs —
//! equivalence, cell counts, affected-packet counts, full human-readable
//! discrepancy listings — reads off it.
//!
//! The product here still builds both diagrams from scratch before
//! pairing them. For the edit path — two *versions* of one policy — the
//! hash-consed diff in `cons.rs` goes one step further: both versions
//! live in one arena, shared subgraphs have equal ids, and the pairing
//! short-circuits to "no discrepancy" without visiting them (see
//! [`ChangeImpact::between`](crate::ChangeImpact::between)).
//!
//! The recursion is serial: one memo and one node interner. Independent
//! comparisons parallelise one level up, one pair per thread (§7.3's
//! cross comparison in `fw-diverse`).

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use fw_model::{Decision, FieldId, Firewall, IntervalSet, Predicate, Schema};

use crate::cons::{FxHasher, FxMap};
use crate::discrepancy::Discrepancy;
use crate::fdd::{Edge, Fdd, Node, NodeId};
use crate::CoreError;

/// Index into a [`DiffProduct`] arena.
type PId = u32;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PNode {
    Terminal(Decision, Decision),
    Internal {
        field: FieldId,
        edges: Vec<(IntervalSet, PId)>,
    },
}

/// The synchronized product of two FDDs over one schema: a decision
/// diagram mapping every packet to the *pair* of decisions the two inputs
/// assign it.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::{diff_product, Fdd};
/// use fw_model::paper;
///
/// let a = Fdd::from_firewall_fast(&paper::team_a())?;
/// let b = Fdd::from_firewall_fast(&paper::team_b())?;
/// let prod = diff_product(&a, &b)?;
/// assert!(!prod.is_equivalent());
/// assert_eq!(prod.discrepancies().len(), 3); // Table 3, coalesced
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiffProduct {
    schema: Schema,
    nodes: Vec<PNode>,
    root: PId,
}

/// Builds the synchronized product of two valid FDDs (tree or DAG) over
/// the same schema.
///
/// # Errors
///
/// Returns [`CoreError::SchemaMismatch`] if the schemas differ.
pub fn diff_product(a: &Fdd, b: &Fdd) -> Result<DiffProduct, CoreError> {
    if a.schema() != b.schema() {
        return Err(CoreError::SchemaMismatch);
    }
    let mut arena = ProductArena::default();
    let root = product_rec(a, b, a.root(), b.root(), &mut arena);
    Ok(DiffProduct {
        schema: a.schema().clone(),
        nodes: arena.nodes,
        root,
    })
}

/// Compares two firewalls through the fast pipeline: fast construction
/// (memoised partitioning) plus the synchronized product. Produces exactly
/// the same discrepancy set as [`crate::compare_firewalls`].
///
/// # Errors
///
/// As for [`crate::compare_firewalls`].
pub fn diff_firewalls(a: &Firewall, b: &Firewall) -> Result<DiffProduct, CoreError> {
    if a.schema() != b.schema() {
        return Err(CoreError::SchemaMismatch);
    }
    let fa = Fdd::from_firewall_fast(a)?;
    let fb = Fdd::from_firewall_fast(b)?;
    diff_product(&fa, &fb)
}

/// The product recursion's memo over `(NodeId, NodeId)` pairs plus the
/// hash-consing interner of the [`PNode`] arena it fills. As in
/// [`ConsArena`](crate::ConsArena), the interner maps a node's content
/// hash to its id, so a node is stored once, in the arena, and never
/// cloned into a key; a node whose hash collides with a different one
/// goes to a (normally empty) spill list. Fx-hashed although the keys
/// derive from the input policies, as in the fast constructor: a crafted
/// pair can already force a product of exponential size, so collision
/// resistance would buy nothing.
#[derive(Default)]
struct ProductArena {
    nodes: Vec<PNode>,
    table: FxMap<u64, PId>,
    spill: Vec<PId>,
    memo: FxMap<(NodeId, NodeId), PId>,
}

impl ProductArena {
    fn intern(&mut self, node: PNode) -> PId {
        let mut h = FxHasher::default();
        node.hash(&mut h);
        let id = u32::try_from(self.nodes.len()).expect("product exceeds u32 indices");
        let nodes = &self.nodes;
        match self.table.entry(h.finish()) {
            Entry::Occupied(first) => {
                let hit = std::iter::once(*first.get())
                    .chain(self.spill.iter().copied())
                    .find(|&p| nodes[p as usize] == node);
                if let Some(hit) = hit {
                    return hit;
                }
                self.spill.push(id);
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
        self.nodes.push(node);
        id
    }
}

/// The edges the product follows out of `v` on `field`: its own when it
/// tests `field`, else one full-domain edge back to `v` itself — the
/// paper's node-insertion step, performed virtually.
fn edges_on<'a>(
    fdd: &'a Fdd,
    v: NodeId,
    field: FieldId,
    domain: &'a IntervalSet,
) -> impl Iterator<Item = (&'a IntervalSet, NodeId)> + Clone {
    let (own, inserted): (&[Edge], _) = match fdd.node(v) {
        Node::Internal { field: f, edges } if *f == field => (edges, None),
        _ => (&[], Some((domain, v))),
    };
    own.iter().map(|e| (e.label(), e.target())).chain(inserted)
}

/// The memoised synchronized-product recursion: each distinct node pair
/// is overlaid once, and equal product nodes are interned once.
fn product_rec(a: &Fdd, b: &Fdd, va: NodeId, vb: NodeId, arena: &mut ProductArena) -> PId {
    if let Some(&r) = arena.memo.get(&(va, vb)) {
        return r;
    }
    let d = a.schema().len();
    let rank = |fdd: &Fdd, v: NodeId| match fdd.node(v) {
        Node::Terminal(_) => d,
        Node::Internal { field, .. } => field.index(),
    };
    let field = rank(a, va).min(rank(b, vb));
    let r = if field == d {
        let da = a.terminal_decision(va).expect("both-terminal case");
        let db = b.terminal_decision(vb).expect("both-terminal case");
        arena.intern(PNode::Terminal(da, db))
    } else {
        let field = FieldId(field);
        let domain = IntervalSet::from_interval(a.schema().field(field).domain());
        let edges_b = edges_on(b, vb, field, &domain);
        // Pairwise overlay: both edge lists partition the domain, so the
        // non-empty pairwise intersections partition it too.
        let mut per_child: Vec<(PId, IntervalSet)> = Vec::new();
        for (la, ta) in edges_on(a, va, field, &domain) {
            for (lb, tb) in edges_b.clone() {
                let cell = la.intersect(lb);
                if cell.is_empty() {
                    continue;
                }
                let child = product_rec(a, b, ta, tb, arena);
                match per_child.iter_mut().find(|(c, _)| *c == child) {
                    Some((_, set)) => *set = set.union(&cell),
                    None => per_child.push((child, cell)),
                }
            }
        }
        if per_child.len() == 1 {
            per_child.pop().expect("len checked").0
        } else {
            per_child.sort_by_key(|(_, set)| set.min_value());
            let edges = per_child.into_iter().map(|(c, s)| (s, c)).collect();
            arena.intern(PNode::Internal { field, edges })
        }
    };
    arena.memo.insert((va, vb), r);
    r
}

impl DiffProduct {
    /// The common schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct product nodes (a size measure for the overlay).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the two inputs are semantically equivalent: no reachable
    /// terminal carries two different decisions.
    pub fn is_equivalent(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| !matches!(n, PNode::Terminal(x, y) if x != y))
    }

    /// Number of *cells* (decision paths of the overlay) on which the two
    /// inputs disagree, saturating — the raw, un-coalesced discrepancy
    /// count, the quantity the Fig. 12/13 harness tracks.
    pub fn cell_count(&self) -> u128 {
        let cells = self.bottom_up(|node, below: &[u128]| match node {
            PNode::Terminal(x, y) => u128::from(x != y),
            PNode::Internal { edges, .. } => edges
                .iter()
                .fold(0u128, |acc, &(_, t)| acc.saturating_add(below[t as usize])),
        });
        cells[self.root as usize]
    }

    /// Number of packets on which the two inputs disagree, saturating.
    pub fn packet_count(&self) -> u128 {
        let domain = |i: usize| self.schema.field(FieldId(i)).domain().count();
        // Per node, the packets over the fields from its own field on.
        let packets = self.bottom_up(|node, below: &[u128]| match node {
            PNode::Terminal(x, y) => u128::from(x != y),
            PNode::Internal { field, edges } => edges.iter().fold(0u128, |acc, (label, t)| {
                // Fields strictly between this node and the child are
                // unconstrained.
                let gap: u128 = (field.index() + 1..self.rank(*t)).map(domain).product();
                acc.saturating_add(
                    label
                        .count()
                        .saturating_mul(gap)
                        .saturating_mul(below[*t as usize]),
                )
            }),
        });
        // Multiply in the domains of fields above the root's field.
        let free: u128 = (0..self.rank(self.root)).map(domain).product();
        packets[self.root as usize].saturating_mul(free)
    }

    /// The field index a node tests, or the field count for a terminal.
    fn rank(&self, id: PId) -> usize {
        match &self.nodes[id as usize] {
            PNode::Terminal(..) => self.schema.len(),
            PNode::Internal { field, .. } => field.index(),
        }
    }

    /// One value per node, children first: a forward pass over the arena,
    /// which interns every node after its children.
    fn bottom_up<T>(&self, mut f: impl FnMut(&PNode, &[T]) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = f(node, &out);
            out.push(v);
        }
        out
    }

    /// Visits every disagreement cell as `(predicate, left, right)`.
    pub fn for_each_discrepancy<F>(&self, mut f: F)
    where
        F: FnMut(&Predicate, Decision, Decision),
    {
        self.for_each_cell(|p, x, y| f(&p, x, y));
    }

    /// Hands `f` every disagreement cell, in edge order. The walk first
    /// marks the nodes that reach a disagreeing terminal and descends only
    /// into those, holding borrowed labels; a cell's predicate is built
    /// once, at its terminal.
    fn for_each_cell(&self, mut f: impl FnMut(Predicate, Decision, Decision)) {
        let disagrees = self.bottom_up(|node, below: &[bool]| match node {
            PNode::Terminal(x, y) => x != y,
            PNode::Internal { edges, .. } => edges.iter().any(|&(_, t)| below[t as usize]),
        });
        let mut path = vec![None; self.schema.len()];
        self.walk(self.root, &disagrees, &mut path, &mut f);
    }

    fn walk<'a>(
        &'a self,
        id: PId,
        disagrees: &[bool],
        path: &mut [Option<&'a IntervalSet>],
        f: &mut impl FnMut(Predicate, Decision, Decision),
    ) {
        if !disagrees[id as usize] {
            return;
        }
        match &self.nodes[id as usize] {
            PNode::Terminal(x, y) => {
                let sets = path
                    .iter()
                    .zip(self.schema.iter())
                    .map(|(label, (_, field))| match label {
                        Some(set) => (*set).clone(),
                        None => IntervalSet::from_interval(field.domain()),
                    })
                    .collect();
                f(Predicate::from_sets_unchecked(sets), *x, *y);
            }
            PNode::Internal { field, edges } => {
                for (label, t) in edges {
                    path[field.index()] = Some(label);
                    self.walk(*t, disagrees, path, f);
                }
                path[field.index()] = None;
            }
        }
    }

    /// All disagreement cells, coalesced into Table-3-style regions.
    pub fn discrepancies(&self) -> Vec<Discrepancy> {
        crate::discrepancy::coalesce(self.raw_discrepancies())
    }

    /// All disagreement cells, uncoalesced (one per overlay path).
    pub fn raw_discrepancies(&self) -> Vec<Discrepancy> {
        let mut out = Vec::new();
        self.for_each_cell(|p, x, y| out.push(Discrepancy::new(p, x, y)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, FieldDef, Packet};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn product_matches_shaping_pipeline_on_paper_example() {
        let prod = diff_firewalls(&paper::team_a(), &paper::team_b()).unwrap();
        assert!(!prod.is_equivalent());
        let ds = prod.discrepancies();
        assert_eq!(ds.len(), 3);
        let legacy = crate::compare_firewalls(&paper::team_a(), &paper::team_b()).unwrap();
        // Same regions (witness containment both ways, decisions equal).
        for d in &ds {
            let w = d.witness();
            assert!(legacy.iter().any(|l| l.predicate().matches(&w)
                && l.left() == d.left()
                && l.right() == d.right()));
        }
    }

    #[test]
    fn product_counts_match_oracle() {
        let fa = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-3, b=2-5 -> discard\na=2-6 -> accept\n* -> discard\n",
        )
        .unwrap();
        let fb = fw_model::Firewall::parse(
            tiny_schema(),
            "b=0-1 -> accept\na=5-7 -> discard\n* -> accept\n",
        )
        .unwrap();
        let prod = diff_firewalls(&fa, &fb).unwrap();
        let mut expect = 0u128;
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                if fa.decision_for(&p) != fb.decision_for(&p) {
                    expect += 1;
                }
            }
        }
        assert_eq!(prod.packet_count(), expect);
        // Every raw cell is homogeneous.
        for d in prod.raw_discrepancies() {
            let w = d.witness();
            assert_eq!(fa.decision_for(&w), Some(d.left()));
            assert_eq!(fb.decision_for(&w), Some(d.right()));
        }
    }

    #[test]
    fn equivalence_detection() {
        let f1 = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-3 -> accept\na=4-7 -> discard\n* -> accept\n",
        )
        .unwrap();
        let f2 =
            fw_model::Firewall::parse(tiny_schema(), "a=4-7 -> discard\n* -> accept\n").unwrap();
        let prod = diff_firewalls(&f1, &f2).unwrap();
        assert!(prod.is_equivalent());
        assert_eq!(prod.cell_count(), 0);
        assert_eq!(prod.packet_count(), 0);
        assert!(prod.discrepancies().is_empty());
    }

    #[test]
    fn product_handles_rank_mismatch() {
        // One constant diagram vs a full two-field diagram.
        let always = Fdd::constant(tiny_schema(), fw_model::Decision::Accept);
        let fb = fw_model::Firewall::parse(tiny_schema(), "a=0-3, b=0-3 -> discard\n* -> accept\n")
            .unwrap();
        let fdd_b = Fdd::from_firewall_fast(&fb).unwrap();
        let prod = diff_product(&always, &fdd_b).unwrap();
        assert_eq!(prod.packet_count(), 16);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = Fdd::constant(tiny_schema(), fw_model::Decision::Accept);
        let b = Fdd::constant(
            Schema::new(vec![FieldDef::new("x", 4).unwrap()]).unwrap(),
            fw_model::Decision::Accept,
        );
        assert!(matches!(
            diff_product(&a, &b),
            Err(CoreError::SchemaMismatch)
        ));
    }
}

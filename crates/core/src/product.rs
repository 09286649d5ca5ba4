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

use std::collections::HashMap;

use fw_model::{Decision, FieldId, Firewall, IntervalSet, Predicate, Schema};

use crate::discrepancy::Discrepancy;
use crate::fdd::{Fdd, Node, NodeId};
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
/// hash-consing interner of the [`PNode`] arena it fills.
#[derive(Default)]
struct ProductArena {
    nodes: Vec<PNode>,
    cons: HashMap<PNode, PId>,
    memo: HashMap<(NodeId, NodeId), PId>,
}

impl ProductArena {
    fn intern(&mut self, node: PNode) -> PId {
        if let Some(&id) = self.cons.get(&node) {
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("product exceeds u32 indices");
        self.nodes.push(node.clone());
        self.cons.insert(node, id);
        id
    }
}

/// One overlay cell: a non-empty intersection of two edge labels and the
/// child pair it leads to.
type OverlayCell = (IntervalSet, NodeId, NodeId);

/// Computes the overlay step at one node pair: the field the product
/// branches on and the non-empty pairwise cells with their child pairs.
///
/// Returns `None` when both nodes are terminal (the recursion bottom).
/// A node ranked after the chosen field behaves as a single full-domain
/// self-edge — the paper's node-insertion step, performed virtually.
fn overlay_cells(a: &Fdd, b: &Fdd, va: NodeId, vb: NodeId) -> Option<(FieldId, Vec<OverlayCell>)> {
    let d = a.schema().len();
    let rank_a = match a.node(va) {
        Node::Terminal(_) => d,
        Node::Internal { field, .. } => field.index(),
    };
    let rank_b = match b.node(vb) {
        Node::Terminal(_) => d,
        Node::Internal { field, .. } => field.index(),
    };
    if rank_a == d && rank_b == d {
        return None;
    }
    let field = FieldId(rank_a.min(rank_b));
    let domain = IntervalSet::from_interval(a.schema().field(field).domain());
    let edges_a: Vec<(IntervalSet, NodeId)> = if rank_a == field.index() {
        match a.node(va) {
            Node::Internal { edges, .. } => edges
                .iter()
                .map(|e| (e.label().clone(), e.target()))
                .collect(),
            Node::Terminal(_) => unreachable!("rank checked"),
        }
    } else {
        vec![(domain.clone(), va)]
    };
    let edges_b: Vec<(IntervalSet, NodeId)> = if rank_b == field.index() {
        match b.node(vb) {
            Node::Internal { edges, .. } => edges
                .iter()
                .map(|e| (e.label().clone(), e.target()))
                .collect(),
            Node::Terminal(_) => unreachable!("rank checked"),
        }
    } else {
        vec![(domain, vb)]
    };
    // Pairwise overlay: both lists partition the domain, so the non-empty
    // pairwise intersections partition it too.
    let mut cells = Vec::with_capacity(edges_a.len() + edges_b.len());
    for (la, ta) in &edges_a {
        for (lb, tb) in &edges_b {
            let cell = la.intersect(lb);
            if !cell.is_empty() {
                cells.push((cell, *ta, *tb));
            }
        }
    }
    Some((field, cells))
}

/// The memoised synchronized-product recursion: each distinct node pair
/// is overlaid once, and equal product nodes are interned once.
fn product_rec(a: &Fdd, b: &Fdd, va: NodeId, vb: NodeId, arena: &mut ProductArena) -> PId {
    if let Some(&r) = arena.memo.get(&(va, vb)) {
        return r;
    }
    let r = match overlay_cells(a, b, va, vb) {
        None => {
            let da = a.terminal_decision(va).expect("both-terminal case");
            let db = b.terminal_decision(vb).expect("both-terminal case");
            arena.intern(PNode::Terminal(da, db))
        }
        Some((field, cells)) => {
            let mut per_child: Vec<(PId, IntervalSet)> = Vec::new();
            for (cell, ta, tb) in cells {
                let child = product_rec(a, b, ta, tb, arena);
                match per_child.iter_mut().find(|(c, _)| *c == child) {
                    Some((_, set)) => *set = set.union(&cell),
                    None => per_child.push((child, cell)),
                }
            }
            if per_child.len() == 1 {
                per_child.pop().expect("len checked").0
            } else {
                per_child.sort_by_key(|(_, set)| set.min_value());
                let edges = per_child.into_iter().map(|(c, s)| (s, c)).collect();
                arena.intern(PNode::Internal { field, edges })
            }
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
        let mut memo: HashMap<PId, u128> = HashMap::new();
        self.cells(self.root, &mut memo)
    }

    fn cells(&self, id: PId, memo: &mut HashMap<PId, u128>) -> u128 {
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        let c = match &self.nodes[id as usize] {
            PNode::Terminal(x, y) => u128::from(x != y),
            PNode::Internal { edges, .. } => edges.iter().fold(0u128, |acc, (_, t)| {
                acc.saturating_add(self.cells(*t, memo))
            }),
        };
        memo.insert(id, c);
        c
    }

    /// Number of packets on which the two inputs disagree, saturating.
    pub fn packet_count(&self) -> u128 {
        let mut memo: HashMap<PId, u128> = HashMap::new();
        let below = self.packets(self.root, &mut memo);
        // Multiply in the domains of fields above the root's field.
        let top = match &self.nodes[self.root as usize] {
            PNode::Terminal(..) => self.schema.len(),
            PNode::Internal { field, .. } => field.index(),
        };
        let free: u128 = (0..top)
            .map(|i| self.schema.field(FieldId(i)).domain().count())
            .product();
        below.saturating_mul(free)
    }

    fn packets(&self, id: PId, memo: &mut HashMap<PId, u128>) -> u128 {
        // Packets over the fields >= this node's field.
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        let c = match &self.nodes[id as usize] {
            PNode::Terminal(x, y) => u128::from(x != y),
            PNode::Internal { field, edges } => {
                let mut acc = 0u128;
                for (label, t) in edges {
                    let child_field = match &self.nodes[*t as usize] {
                        PNode::Terminal(..) => self.schema.len(),
                        PNode::Internal { field, .. } => field.index(),
                    };
                    // Fields strictly between this node and the child are
                    // unconstrained.
                    let gap: u128 = (field.index() + 1..child_field)
                        .map(|i| self.schema.field(FieldId(i)).domain().count())
                        .product();
                    acc = acc.saturating_add(
                        label
                            .count()
                            .saturating_mul(gap)
                            .saturating_mul(self.packets(*t, memo)),
                    );
                }
                acc
            }
        };
        memo.insert(id, c);
        c
    }

    /// Visits every disagreement cell as `(predicate, left, right)`.
    pub fn for_each_discrepancy<F>(&self, mut f: F)
    where
        F: FnMut(&Predicate, Decision, Decision),
    {
        let mut pred = Predicate::any(&self.schema);
        self.walk(self.root, &mut pred, &mut f);
    }

    fn walk<F>(&self, id: PId, pred: &mut Predicate, f: &mut F)
    where
        F: FnMut(&Predicate, Decision, Decision),
    {
        match &self.nodes[id as usize] {
            PNode::Terminal(x, y) => {
                if x != y {
                    f(pred, *x, *y);
                }
            }
            PNode::Internal { field, edges } => {
                let field = *field;
                let saved = pred.set(field).clone();
                for (label, t) in edges {
                    *pred = pred
                        .with_field(field, label.clone())
                        .expect("edge labels are non-empty by invariant");
                    self.walk(*t, pred, f);
                }
                *pred = pred
                    .with_field(field, saved)
                    .expect("saved set is non-empty");
            }
        }
    }

    /// All disagreement cells, coalesced into Table-3-style regions.
    pub fn discrepancies(&self) -> Vec<Discrepancy> {
        let mut out = Vec::new();
        self.for_each_discrepancy(|p, x, y| out.push(Discrepancy::new(p.clone(), x, y)));
        crate::discrepancy::coalesce(out)
    }

    /// All disagreement cells, uncoalesced (one per overlay path).
    pub fn raw_discrepancies(&self) -> Vec<Discrepancy> {
        let mut out = Vec::new();
        self.for_each_discrepancy(|p, x, y| out.push(Discrepancy::new(p.clone(), x, y)));
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

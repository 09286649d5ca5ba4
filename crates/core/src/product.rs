//! The **synchronized product** of two FDDs: the diagram the paper's
//! shaping + comparison pipeline (§4–§5) walks.
//!
//! Shaping aligns two *trees* until they are semi-isomorphic and then walks
//! them in lockstep. The cells it visits are exactly the overlay of the two
//! diagrams' decision paths — the *product* of the two diagrams. The
//! product is computed over canonical DAGs instead: both diagrams are
//! interned into one [`ConsArena`], where equal subfunctions share an id,
//! and the arena's pair walk (`cons.rs`) overlays each distinct pair of ids
//! once and stops at every pair of equal ids. The discrepancy cells are the
//! ones the paper's pipeline finds, without materialising the worst-case
//! `O((n+m)^d)` tree; this is what lets two independent 3,000-rule policies
//! compare in seconds (§8.2.2), and what makes the diff of two versions of
//! one policy cost only the region they differ on.
//!
//! The result, [`DiffProduct`], is itself a decision diagram: its
//! terminals carry the *pairs* of decisions the inputs disagree on, and
//! every packet on which they agree reaches one shared agreeing leaf.
//! Equivalence, cell counts, affected-packet counts and the full
//! human-readable discrepancy listing all read off it.

use fw_model::{Decision, FieldId, Firewall, IntervalSet, Predicate, Schema};

use crate::cons::ConsArena;
use crate::discrepancy::Discrepancy;
use crate::fdd::Fdd;
use crate::CoreError;

/// One node of a [`DiffProduct`].
#[derive(Debug, Clone)]
pub(crate) enum DiffNode {
    /// The inputs agree on every packet reaching here.
    Same,
    /// Every packet reaching here decides `.0` on the left and `.1` on the
    /// right, and `.0 != .1`.
    Differ(Decision, Decision),
    /// A test of `field`. Its edges, sorted by least value, lead only to
    /// disagreeing children; the rest of the domain reaches [`SAME`].
    Split {
        field: FieldId,
        edges: Vec<(IntervalSet, u32)>,
    },
}

/// The index of the shared [`DiffNode::Same`] leaf: every product holds it
/// first.
pub(crate) const SAME: u32 = 0;

/// The synchronized product of two FDDs over one schema: a decision
/// diagram mapping every packet on which the inputs disagree to the *pair*
/// of decisions they assign it.
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
    /// Children before parents, [`SAME`] first.
    nodes: Vec<DiffNode>,
    root: u32,
}

/// Builds the synchronized product of two valid FDDs (tree or DAG) over
/// the same schema: both are interned into a throwaway [`ConsArena`] and
/// paired there.
///
/// # Errors
///
/// Returns [`CoreError::SchemaMismatch`] if the schemas differ.
pub fn diff_product(a: &Fdd, b: &Fdd) -> Result<DiffProduct, CoreError> {
    let (arena, ra, rb) = ConsArena::of_pair(a, b)?;
    arena.product(ra, rb)
}

/// Compares two firewalls through the fast pipeline: fast construction
/// (memoised partitioning) plus the synchronized product. Produces exactly
/// the same discrepancy set as [`crate::compare_firewalls_via_shaping`].
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

impl DiffProduct {
    /// Wraps the nodes a pair walk built: children before parents,
    /// [`SAME`] first.
    pub(crate) fn new(schema: Schema, nodes: Vec<DiffNode>, root: u32) -> DiffProduct {
        debug_assert!(matches!(nodes.first(), Some(DiffNode::Same)));
        DiffProduct {
            schema,
            nodes,
            root,
        }
    }

    /// The common schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of product nodes: the disagreeing ones plus the one shared
    /// agreeing leaf (a size measure for the overlay).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the two inputs are semantically equivalent: every packet
    /// reaches the agreeing leaf.
    pub fn is_equivalent(&self) -> bool {
        self.root == SAME
    }

    /// Number of *cells* (decision paths of the overlay) on which the two
    /// inputs disagree, saturating — the raw, un-coalesced discrepancy
    /// count, the quantity the Fig. 12/13 harness tracks.
    pub fn cell_count(&self) -> u128 {
        let cells = self.bottom_up(|node, below: &[u128]| match node {
            DiffNode::Same => 0,
            DiffNode::Differ(..) => 1,
            DiffNode::Split { edges, .. } => edges
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
            DiffNode::Same => 0,
            DiffNode::Differ(..) => 1,
            DiffNode::Split { field, edges } => edges.iter().fold(0u128, |acc, (label, t)| {
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

    /// The field index a node tests, or the field count for a leaf.
    fn rank(&self, id: u32) -> usize {
        match &self.nodes[id as usize] {
            DiffNode::Split { field, .. } => field.index(),
            DiffNode::Same | DiffNode::Differ(..) => self.schema.len(),
        }
    }

    /// One value per node, children first: a forward pass over the nodes,
    /// which the walk pushes after their children.
    fn bottom_up<T>(&self, mut f: impl FnMut(&DiffNode, &[T]) -> T) -> Vec<T> {
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

    /// Hands `f` every disagreement cell, in edge order. Every node but the
    /// agreeing leaf reaches a disagreement, and no edge leads to that
    /// leaf, so the walk descends everywhere, holding borrowed labels; a
    /// cell's predicate is built once, at its terminal.
    fn for_each_cell(&self, mut f: impl FnMut(Predicate, Decision, Decision)) {
        let mut path = vec![None; self.schema.len()];
        self.walk(self.root, &mut path, &mut f);
    }

    fn walk<'a>(
        &'a self,
        id: u32,
        path: &mut [Option<&'a IntervalSet>],
        f: &mut impl FnMut(Predicate, Decision, Decision),
    ) {
        match &self.nodes[id as usize] {
            DiffNode::Same => {}
            DiffNode::Differ(x, y) => {
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
            DiffNode::Split { field, edges } => {
                for (label, t) in edges {
                    path[field.index()] = Some(label);
                    self.walk(*t, path, f);
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

//! The **comparison algorithm** (paper §5): walk two semi-isomorphic FDDs in
//! lockstep and report every decision path whose terminals disagree.
//!
//! By semi-isomorphism the two diagrams define the same decision paths up to
//! terminal labels, so each path in one has a *companion* in the other with
//! the identical predicate. The discrepancy set is exactly
//! `fa.rules − fb.rules` paired with its companions — the paper shows this
//! captures **all** functional discrepancies between the original firewalls.
//!
//! [`compare_firewalls`] bundles the full pipeline: construct (§3), simplify
//! and shape (§4), compare (§5).
//!
//! [`compare_firewalls_via_shaping`] runs that pipeline literally and
//! prices every comparison at the size of the shaped trees. The default,
//! [`compare_firewalls`], builds both diagrams by fast construction,
//! interns them into one hash-consed arena and pairs the roots there,
//! skipping every subgraph the two sides share by id (see `cons.rs`). Same
//! discrepancies; for two versions of one policy, edit-path cost.

use fw_model::{Firewall, Predicate};

use crate::discrepancy::Discrepancy;
use crate::fdd::{Fdd, Node, NodeId};
use crate::shape::{semi_isomorphic, shape_pair};
use crate::CoreError;

/// Compares two **semi-isomorphic** FDDs, returning every path on which the
/// terminal decisions differ.
///
/// # Errors
///
/// Returns [`CoreError::SchemaMismatch`] for different schemas and
/// [`CoreError::Invariant`] if the diagrams are not semi-isomorphic — run
/// [`shape_pair`] first.
pub fn compare_shaped(a: &Fdd, b: &Fdd) -> Result<Vec<Discrepancy>, CoreError> {
    if a.schema() != b.schema() {
        return Err(CoreError::SchemaMismatch);
    }
    if !semi_isomorphic(a, b) {
        return Err(CoreError::Invariant(
            "compare_shaped requires semi-isomorphic inputs; run shape_pair first".to_owned(),
        ));
    }
    let mut out = Vec::new();
    let mut pred = Predicate::any(a.schema());
    walk(a, a.root(), b, b.root(), &mut pred, &mut out);
    Ok(out)
}

fn walk(
    a: &Fdd,
    va: NodeId,
    b: &Fdd,
    vb: NodeId,
    pred: &mut Predicate,
    out: &mut Vec<Discrepancy>,
) {
    match (a.node(va), b.node(vb)) {
        (Node::Terminal(da), Node::Terminal(db)) => {
            if da != db {
                out.push(Discrepancy::new(pred.clone(), *da, *db));
            }
        }
        (Node::Internal { field, edges: ea }, Node::Internal { edges: eb, .. }) => {
            let field = *field;
            let saved = pred.set(field).clone();
            for (x, y) in ea.iter().zip(eb) {
                debug_assert_eq!(x.label, y.label, "semi-isomorphism checked upfront");
                *pred = pred
                    .with_field(field, x.label.clone())
                    .expect("edge labels are non-empty by invariant");
                walk(a, x.target, b, y.target, pred, out);
            }
            *pred = pred
                .with_field(field, saved)
                .expect("saved set is non-empty");
        }
        _ => unreachable!("semi-isomorphism checked upfront"),
    }
}

/// Returns **all functional discrepancies** between two firewalls over the
/// same schema, in coalesced Table-3 form.
///
/// Equivalently (§1.3): the *change impact* of editing `a` into `b`.
///
/// This runs the fast pipeline — memoised construction
/// ([`Fdd::from_firewall_fast`]) plus the synchronized product
/// ([`crate::diff_product`]) — which finds exactly the cells the paper's
/// shaping + comparison pipeline visits, once each.
/// [`compare_firewalls_via_shaping`] runs the paper-literal tree pipeline
/// and produces the same regions.
///
/// # Errors
///
/// Returns [`CoreError::SchemaMismatch`] if the schemas differ and
/// [`CoreError::NotComprehensive`] if either rule sequence leaves packets
/// unmatched.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::compare_firewalls;
/// use fw_model::paper;
///
/// let discrepancies = compare_firewalls(&paper::team_a(), &paper::team_b())?;
/// assert_eq!(discrepancies.len(), 3); // Table 3
/// # Ok(())
/// # }
/// ```
pub fn compare_firewalls(a: &Firewall, b: &Firewall) -> Result<Vec<Discrepancy>, CoreError> {
    Ok(crate::product::diff_firewalls(a, b)?.discrepancies())
}

/// The paper-literal §3–§5 pipeline: explicit tree construction (Fig. 7),
/// simplification, shaping to semi-isomorphic form (Figs. 10–11) and the
/// lockstep comparison (§5). Same output regions as [`compare_firewalls`],
/// materialising the shaped trees the paper describes — use the default
/// pipeline for large policies.
///
/// # Errors
///
/// As for [`compare_firewalls`].
pub fn compare_firewalls_via_shaping(
    a: &Firewall,
    b: &Firewall,
) -> Result<Vec<Discrepancy>, CoreError> {
    if a.schema() != b.schema() {
        return Err(CoreError::SchemaMismatch);
    }
    let mut fa = Fdd::from_firewall(a)?.to_simple();
    let mut fb = Fdd::from_firewall(b)?.to_simple();
    shape_pair(&mut fa, &mut fb)?;
    Ok(crate::discrepancy::coalesce(compare_shaped(&fa, &fb)?))
}

/// Whether two firewalls are semantically equivalent (`f1 ≡ f2`, §3.1):
/// they map every packet to the same decision, so their diagrams intern to
/// one root in one arena.
///
/// # Errors
///
/// As for [`compare_firewalls`].
pub fn equivalent(a: &Firewall, b: &Firewall) -> Result<bool, CoreError> {
    if a.schema() != b.schema() {
        return Err(CoreError::SchemaMismatch);
    }
    let fa = Fdd::from_firewall_fast(a)?;
    let fb = Fdd::from_firewall_fast(b)?;
    Ok(fa.isomorphic(&fb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldDef, FieldId, Packet, Schema};

    #[test]
    fn paper_table_3_discrepancies() {
        let ds = compare_firewalls(&paper::team_a(), &paper::team_b()).unwrap();
        assert_eq!(ds.len(), 3, "Table 3 lists exactly three discrepancies");
        // Every discrepancy has Team A accepting and Team B discarding.
        for d in &ds {
            assert_eq!(d.left(), Decision::Accept);
            assert_eq!(d.right(), Decision::Discard);
        }
        // Discrepancy 1: malicious domain -> mail server SMTP over TCP.
        assert!(ds.iter().any(|d| {
            let p = d.predicate();
            p.set(FieldId(1)).contains(paper::MALICIOUS_LO)
                && p.set(FieldId(2)).contains(paper::MAIL_SERVER)
                && p.set(FieldId(3)).contains(paper::SMTP)
                && p.set(FieldId(4)).contains(paper::TCP)
        }));
        // Discrepancy 2: non-malicious source, port 25, non-TCP.
        assert!(ds.iter().any(|d| {
            let p = d.predicate();
            !p.set(FieldId(1)).contains(paper::MALICIOUS_LO)
                && p.set(FieldId(3)).contains(paper::SMTP)
                && p.set(FieldId(4)).contains(paper::UDP)
                && !p.set(FieldId(4)).contains(paper::TCP)
        }));
        // Discrepancy 3: non-malicious source, port != 25.
        assert!(ds.iter().any(|d| {
            let p = d.predicate();
            !p.set(FieldId(1)).contains(paper::MALICIOUS_LO)
                && !p.set(FieldId(3)).contains(paper::SMTP)
        }));
        // All disputed regions target the mail server on iface 0.
        for d in &ds {
            assert!(d.predicate().set(FieldId(0)).contains(0));
            assert!(!d.predicate().set(FieldId(0)).contains(1));
            assert!(d.predicate().set(FieldId(2)).contains(paper::MAIL_SERVER));
        }
    }

    #[test]
    fn discrepancies_are_sound_and_complete() {
        // Soundness: every witness really disagrees. Completeness: checked
        // exhaustively on a tiny schema.
        let schema = Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap();
        let fa = fw_model::Firewall::parse(
            schema.clone(),
            "a=0-3, b=2-5 -> discard\na=2-6 -> accept\n* -> discard\n",
        )
        .unwrap();
        let fb =
            fw_model::Firewall::parse(schema, "b=0-1 -> accept\na=5-7 -> discard\n* -> accept\n")
                .unwrap();
        let ds = compare_firewalls(&fa, &fb).unwrap();
        for d in &ds {
            let w = d.witness();
            assert_eq!(fa.decision_for(&w), Some(d.left()));
            assert_eq!(fb.decision_for(&w), Some(d.right()));
        }
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                let disagree = fa.decision_for(&p) != fb.decision_for(&p);
                let covered = ds.iter().any(|d| d.predicate().matches(&p));
                assert_eq!(disagree, covered, "at {p}");
                if covered {
                    let d = ds.iter().find(|d| d.predicate().matches(&p)).unwrap();
                    assert_eq!(fa.decision_for(&p), Some(d.left()));
                    assert_eq!(fb.decision_for(&p), Some(d.right()));
                }
            }
        }
    }

    #[test]
    fn discrepancy_regions_are_disjoint() {
        let ds = compare_firewalls(&paper::team_a(), &paper::team_b()).unwrap();
        for (i, x) in ds.iter().enumerate() {
            for y in &ds[i + 1..] {
                assert!(x.predicate().intersect(y.predicate()).is_none());
            }
        }
    }

    #[test]
    fn equivalent_firewalls_have_no_discrepancies() {
        let fw = paper::team_a();
        assert!(compare_firewalls(&fw, &fw).unwrap().is_empty());
        assert!(equivalent(&fw, &fw).unwrap());
        assert!(!equivalent(&paper::team_a(), &paper::team_b()).unwrap());
    }

    #[test]
    fn equivalence_is_insensitive_to_redundant_rules() {
        let fw = paper::team_a();
        // Append a rule shadowed by the catch-all: semantics unchanged.
        let extra = fw
            .with_rule_appended(fw_model::Rule::catch_all(fw.schema(), Decision::Discard))
            .unwrap();
        assert!(equivalent(&fw, &extra).unwrap());
        assert!(compare_firewalls(&fw, &extra).unwrap().is_empty());
    }

    #[test]
    fn compare_shaped_rejects_unshaped() {
        // Two simple FDDs over the same schema with different cut points.
        let schema = Schema::new(vec![FieldDef::new("f1", 4).unwrap()]).unwrap();
        let g1 =
            fw_model::Firewall::parse(schema.clone(), "f1=0-4 -> accept\n* -> discard\n").unwrap();
        let g2 = fw_model::Firewall::parse(schema, "f1=0-9 -> discard\n* -> accept\n").unwrap();
        let a = Fdd::from_firewall(&g1).unwrap().to_simple();
        let b = Fdd::from_firewall(&g2).unwrap().to_simple();
        assert!(matches!(
            compare_shaped(&a, &b),
            Err(CoreError::Invariant(_))
        ));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let other = fw_model::Firewall::parse(
            Schema::new(vec![FieldDef::new("x", 4).unwrap()]).unwrap(),
            "* -> accept",
        )
        .unwrap();
        assert!(matches!(
            compare_firewalls(&paper::team_a(), &other),
            Err(CoreError::SchemaMismatch)
        ));
    }
}

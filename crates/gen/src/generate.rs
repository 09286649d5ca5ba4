//! Generating a compact first-match rule sequence from an FDD — the
//! *Structured Firewall Design* substrate (paper ref \[12]) that the
//! resolution phase's Method 1 relies on (§6.1, Step 2).
//!
//! Pipeline: **reduce** the FDD ([`fw_core::Fdd::reduced`]), **mark** at
//! each internal node the outgoing edge whose subtree would cost the most to
//! spell out explicitly, then **emit** rules depth-first — non-marked edges
//! first with their interval constraints, the marked edge last with the
//! field left unconstrained (`all`), relying on first-match semantics to
//! exclude the earlier siblings. A final redundancy-removal pass
//! ([`crate::remove_redundant_rules`]) compacts the result further.

use std::collections::HashMap;

use fw_core::{CoreError, Fdd, NodeId, NodeView};
use fw_model::{Firewall, Rule};

/// Generates a compact, comprehensive rule sequence equivalent to `fdd`.
///
/// The output's last rule always matches every packet, and the sequence's
/// first-match semantics equals the diagram's semantics exactly.
///
/// # Errors
///
/// Returns [`CoreError::Invariant`] if the diagram fails validation.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::Fdd;
/// use fw_gen::generate_rules;
/// use fw_model::paper;
///
/// let fdd = Fdd::from_firewall(&paper::team_b())?;
/// let fw = generate_rules(&fdd)?;
/// assert!(fw.is_comprehensive_syntactically());
/// // Equivalent to the original policy.
/// assert!(fw_core::equivalent(&fw, &paper::team_b())?);
/// # Ok(())
/// # }
/// ```
pub fn generate_rules(fdd: &Fdd) -> Result<Firewall, CoreError> {
    fdd.validate()?;
    let reduced = fdd.reduced();
    let rules = emit(&reduced, reduced.root(), &mut HashMap::new());
    crate::remove_redundant_rules(&Firewall::new(reduced.schema().clone(), rules)?)
}

/// The number of *simple* rules a rule list expands to — the cost function
/// the marking step minimises (a multi-interval field costs one simple rule
/// per interval).
fn cost(rules: &[Rule]) -> u128 {
    let runs = |r: &Rule| {
        let sets = r.predicate().sets().iter();
        sets.fold(1, |n: u128, s| n.saturating_mul(s.run_count() as u128))
    };
    rules.iter().map(runs).sum()
}

fn emit(fdd: &Fdd, id: NodeId, memo: &mut HashMap<NodeId, Vec<Rule>>) -> Vec<Rule> {
    if let Some(cached) = memo.get(&id) {
        return cached.clone();
    }
    let out = match fdd.view(id) {
        NodeView::Terminal(d) => vec![Rule::catch_all(fdd.schema(), d)],
        NodeView::Internal { field, edges } => {
            // Recurse first so marking can weigh subtree costs.
            let subs: Vec<Vec<Rule>> = edges.iter().map(|e| emit(fdd, e.target(), memo)).collect();
            // Mark the edge with the largest saving: spelling edge i out
            // costs runs_i × cost_i; leaving it unconstrained costs cost_i.
            let marked = edges
                .iter()
                .zip(&subs)
                .enumerate()
                .max_by_key(|(_, (e, sub))| {
                    let c = cost(sub);
                    c.saturating_mul(e.label().run_count() as u128)
                        .saturating_sub(c)
                })
                .map(|(i, _)| i)
                .expect("internal nodes have at least one edge");
            let mut out = Vec::new();
            for (i, (e, sub)) in edges.iter().zip(&subs).enumerate() {
                if i == marked {
                    continue;
                }
                for r in sub {
                    let pred = r.predicate().with_field(field, e.label().clone());
                    let pred = pred.expect("edge labels are valid field sets");
                    out.push(Rule::new(pred, r.decision()));
                }
            }
            // Marked edge last, field unconstrained.
            out.extend(subs[marked].iter().cloned());
            out
        }
    };
    memo.insert(id, out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldDef, Packet, Schema};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    fn exhaustive_eq(fdd: &Fdd, fw: &Firewall) {
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                assert_eq!(fdd.decision_for(&p), fw.decision_for(&p), "at {p}");
            }
        }
    }

    #[test]
    fn round_trip_firewall_fdd_firewall() {
        let original = Firewall::parse(
            tiny_schema(),
            "a=0-3, b=2-5 -> discard\na=2-6 -> accept\n* -> discard\n",
        )
        .unwrap();
        let fdd = Fdd::from_firewall(&original).unwrap();
        let generated = generate_rules(&fdd).unwrap();
        exhaustive_eq(&fdd, &generated);
        assert!(generated.is_comprehensive_syntactically());
    }

    #[test]
    fn generation_is_compact_for_constant_diagram() {
        let fdd = Fdd::constant(tiny_schema(), Decision::Accept);
        let fw = generate_rules(&fdd).unwrap();
        assert_eq!(fw.len(), 1);
        assert!(fw.rules()[0].predicate().is_any(fw.schema()));
    }

    #[test]
    fn generation_marks_heavy_edge_as_default() {
        // One small exception region; everything else accepts. A good
        // generator emits the exception first, then a catch-all.
        let original =
            Firewall::parse(tiny_schema(), "a=3, b=4 -> discard\n* -> accept\n").unwrap();
        let fdd = Fdd::from_firewall(&original).unwrap();
        let generated = generate_rules(&fdd).unwrap();
        assert_eq!(generated.len(), 2, "generated:\n{generated}");
        exhaustive_eq(&fdd, &generated);
    }

    #[test]
    fn paper_team_firewalls_round_trip() {
        for fw in [paper::team_a(), paper::team_b()] {
            let fdd = Fdd::from_firewall(&fw).unwrap();
            let generated = generate_rules(&fdd).unwrap();
            assert!(fw_core::equivalent(&generated, &fw).unwrap());
            // Generated versions are no larger than the simple-rule blowup
            // of the originals and end comprehensively.
            assert!(generated.is_comprehensive_syntactically());
            assert!(generated.len() <= fw.to_simple_rules().len() + 1);
        }
    }

    #[test]
    fn generation_from_hand_built_fdd() {
        use fw_core::{label, FddBuilder};
        use fw_model::FieldId;
        let mut b = FddBuilder::new(tiny_schema());
        let acc = b.terminal(Decision::Accept);
        let dis = b.terminal(Decision::Discard);
        let y = b
            .internal(FieldId(1), vec![(label(0, 3), acc), (label(4, 7), dis)])
            .unwrap();
        let root = b
            .internal(FieldId(0), vec![(label(0, 5), y), (label(6, 7), dis)])
            .unwrap();
        let fdd = b.finish(root).unwrap();
        let fw = generate_rules(&fdd).unwrap();
        exhaustive_eq(&fdd, &fw);
    }

    #[test]
    fn all_four_decisions_survive_generation() {
        let original = Firewall::parse(
            tiny_schema(),
            "a=0-1 -> accept\na=2-3 -> discard\na=4-5 -> accept-log\n* -> discard-log\n",
        )
        .unwrap();
        let fdd = Fdd::from_firewall(&original).unwrap();
        let generated = generate_rules(&fdd).unwrap();
        exhaustive_eq(&fdd, &generated);
        let decisions: std::collections::HashSet<_> =
            generated.rules().iter().map(|r| r.decision()).collect();
        assert_eq!(decisions.len(), 4);
    }
}

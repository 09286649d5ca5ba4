//! Firewall **change impact analysis** (paper §1.3): the impact of a set of
//! policy edits *is* the functional discrepancy set between the firewall
//! before and after the changes — so the §3–§5 pipeline applies directly.
//!
//! [`Edit`] models the edits administrators actually make (§8.1 found most
//! real errors come from inserting rules at the top of a policy);
//! [`ChangeImpact::of_edits`] applies a batch and reports its exact impact.

use fw_model::{FieldId, Firewall, Packet, Rule, Schema};
use serde::{Deserialize, Serialize};

use crate::discrepancy::Discrepancy;
use crate::{ConsArena, CoreError, Fdd};

/// A single firewall policy edit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Edit {
    /// Insert `rule` at position `index` (0 = highest priority).
    Insert {
        /// Position to insert at.
        index: usize,
        /// The new rule.
        rule: Rule,
    },
    /// Remove the rule at `index`.
    Remove {
        /// Position to remove.
        index: usize,
    },
    /// Replace the rule at `index` with `rule`.
    Replace {
        /// Position to replace.
        index: usize,
        /// The replacement rule.
        rule: Rule,
    },
    /// Swap the rules at `first` and `second` — the classic
    /// order-sensitivity mistake.
    Swap {
        /// One position.
        first: usize,
        /// The other position.
        second: usize,
    },
}

impl Edit {
    /// Applies the edit, returning the modified firewall.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`fw_model::ModelError`] (wrapped in
    /// [`CoreError::Model`]) for out-of-range indices or invalid rules.
    pub fn apply(&self, fw: &Firewall) -> Result<Firewall, CoreError> {
        let mut out = fw.clone();
        self.apply_in_place(&mut out)?;
        Ok(out)
    }

    /// Applies the edit to `fw` in place — the form batch appliers use so
    /// a whole [`ChangeImpact::of_edits`] batch costs one clone, not one
    /// per edit. The firewall is unchanged on error.
    ///
    /// # Errors
    ///
    /// As for [`Edit::apply`].
    pub fn apply_in_place(&self, fw: &mut Firewall) -> Result<(), CoreError> {
        match self {
            Edit::Insert { index, rule } => fw.insert_rule(*index, rule.clone())?,
            Edit::Remove { index } => fw.remove_rule(*index)?,
            Edit::Replace { index, rule } => fw.replace_rule(*index, rule.clone())?,
            Edit::Swap { first, second } => fw.swap_rules(*first, *second)?,
        }
        Ok(())
    }
}

/// The computed impact of a policy change: every packet region whose
/// decision changed, with the before/after decisions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangeImpact {
    discrepancies: Vec<Discrepancy>,
}

impl ChangeImpact {
    /// Compares the policy `before` and `after` a change (§1.3: "the impact
    /// of the changes can literally be defined as the functional
    /// discrepancies between the firewall before changes and the firewall
    /// after changes").
    ///
    /// # Errors
    ///
    /// As for [`crate::compare_firewalls`].
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), fw_core::CoreError> {
    /// use fw_core::ChangeImpact;
    /// use fw_model::{paper, Decision, Rule};
    ///
    /// let before = paper::team_b();
    /// // Administrator inserts a blanket discard at the top…
    /// let after = before.with_rule_inserted(
    ///     0,
    ///     Rule::catch_all(before.schema(), Decision::Discard),
    /// ).map_err(fw_core::CoreError::from)?;
    /// let impact = ChangeImpact::between(&before, &after)?;
    /// // …and the analysis shows exactly which traffic flips to discard.
    /// assert!(!impact.is_noop());
    /// # Ok(())
    /// # }
    /// ```
    pub fn between(before: &Firewall, after: &Firewall) -> Result<ChangeImpact, CoreError> {
        // The edit path: when the two policies share most of their rule
        // tail (the signature of an edit batch), both are rebuilt by fast
        // construction and diffed in one arena, where the short-circuit
        // diff only walks where they differ. Unrelated policies go through
        // the full §3–§5 pipeline.
        if before.schema() == after.schema()
            && 2 * common_tail(before, after) >= before.len().max(after.len())
        {
            return ChangeImpact::between_diagrams(
                &Fdd::from_firewall_fast(before)?,
                &Fdd::from_firewall_fast(after)?,
            );
        }
        Ok(ChangeImpact {
            discrepancies: crate::compare_firewalls(before, after)?,
        })
    }

    /// Applies `edits` in order to `before` and returns the modified
    /// policy together with the exact impact of the whole batch. The batch
    /// is staged on one copy of the policy; both policies are then built
    /// by fast construction and diffed as for
    /// [`between_diagrams`](Self::between_diagrams).
    ///
    /// # Errors
    ///
    /// Propagates edit-application errors;
    /// [`CoreError::NotComprehensive`] if either policy leaves packets
    /// undecided.
    pub fn of_edits(
        before: &Firewall,
        edits: &[Edit],
    ) -> Result<(Firewall, ChangeImpact), CoreError> {
        let mut after = before.clone();
        for e in edits {
            e.apply_in_place(&mut after)?;
        }
        let impact = ChangeImpact::between_diagrams(
            &Fdd::from_firewall_fast(before)?,
            &Fdd::from_firewall_fast(&after)?,
        )?;
        Ok((after, impact))
    }

    /// The impact of replacing diagram `before` by diagram `after`: both
    /// are interned into a throwaway [`ConsArena`], where equal
    /// subfunctions share an id, and [`ConsArena::diff`] of the two roots
    /// skips every subgraph they share. The cost is two interns plus the
    /// region that changed.
    ///
    /// # Errors
    ///
    /// [`CoreError::SchemaMismatch`] if the diagrams are over different
    /// schemas.
    pub fn between_diagrams(before: &Fdd, after: &Fdd) -> Result<ChangeImpact, CoreError> {
        let mut arena = ConsArena::new(before.schema().clone());
        let a = arena.intern_fdd(before)?;
        let b = arena.intern_fdd(after)?;
        Ok(ChangeImpact::from_discrepancies(arena.diff(a, b)?))
    }

    /// Wraps an already computed discrepancy set, so serving layers that
    /// keep their own arena (the fleet registry) can turn a
    /// [`ConsArena::diff`] of two roots into the same impact report the
    /// single-policy pipeline produces.
    pub fn from_discrepancies(discrepancies: Vec<Discrepancy>) -> ChangeImpact {
        ChangeImpact { discrepancies }
    }

    /// The changed regions: `(region, old decision, new decision)` triples.
    pub fn discrepancies(&self) -> &[Discrepancy] {
        &self.discrepancies
    }

    /// Whether the change is semantics-preserving (no packet's decision
    /// changed) — e.g. removing a redundant rule.
    pub fn is_noop(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// The fields some changed region actually constrains: an FDD subtree
    /// whose path region is free on every dirty field (or disjoint from all
    /// changed regions) decides identically before and after the change, so
    /// a consumer patching a compiled form can keep it verbatim.
    /// `fw_exec::CompiledFdd::recompile` is that consumer.
    ///
    /// Returns field ids in schema order; empty iff [`Self::is_noop`].
    pub fn dirty_fields(&self, schema: &Schema) -> Vec<FieldId> {
        let mut dirty = vec![false; schema.len()];
        for d in &self.discrepancies {
            for (id, fd) in schema.iter() {
                if !d.predicate().set(id).covers(fd.domain()) {
                    dirty[id.index()] = true;
                }
            }
        }
        dirty
            .iter()
            .enumerate()
            .filter(|&(_, &is_dirty)| is_dirty)
            .map(|(i, _)| FieldId(i))
            .collect()
    }

    /// Whether the given packet's decision changed.
    pub fn affects(&self, packet: &Packet) -> bool {
        self.discrepancies
            .iter()
            .any(|d| d.predicate().matches(packet))
    }

    /// Total number of packets whose decision changed, saturating.
    ///
    /// The sum is exact when the regions are disjoint (every impact this
    /// crate computes is); for consumer-assembled region lists it is an
    /// upper bound. Prefer [`Self::affected_packets_in`] when the schema
    /// is at hand — it can never report more packets than exist.
    pub fn affected_packets(&self) -> u128 {
        self.discrepancies
            .iter()
            .fold(0u128, |acc, d| acc.saturating_add(d.packet_count()))
    }

    /// Total number of packets whose decision changed, clamped to the
    /// schema's packet-space cardinality — the accounting benchmarks and
    /// serving reports should use, since a raw per-region sum can exceed
    /// the space (overlapping hand-built regions, or saturation) and an
    /// "affected packets" figure larger than the number of packets that
    /// exist is meaningless.
    pub fn affected_packets_in(&self, schema: &Schema) -> u128 {
        self.affected_packets().min(schema.packet_space())
    }
}

/// Length of the longest common rule-list suffix — the part of the two
/// policies an edit batch left untouched.
fn common_tail(a: &Firewall, b: &Firewall) -> usize {
    a.rules()
        .iter()
        .rev()
        .zip(b.rules().iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldDef, FieldId, IntervalSet, Predicate, Schema};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn redundant_insert_is_noop() {
        let fw = paper::team_a();
        // The catch-all dominates this rule already.
        let redundant = Rule::new(
            Predicate::any(fw.schema())
                .with_field(FieldId(0), IntervalSet::from_value(1))
                .unwrap(),
            Decision::Accept,
        );
        let (after, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Insert {
                index: 2,
                rule: redundant,
            }],
        )
        .unwrap();
        assert_eq!(after.len(), 4);
        assert!(impact.is_noop());
        assert_eq!(impact.affected_packets(), 0);
    }

    #[test]
    fn top_insert_impact_is_reported_exactly() {
        let fw =
            fw_model::Firewall::parse(tiny_schema(), "a=0-3 -> accept\n* -> discard\n").unwrap();
        let blocker = Rule::new(
            Predicate::any(fw.schema())
                .with_field(FieldId(0), IntervalSet::from_value(2))
                .unwrap(),
            Decision::Discard,
        );
        let (_, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Insert {
                index: 0,
                rule: blocker,
            }],
        )
        .unwrap();
        // Exactly the packets with a=2 flip from accept to discard.
        assert_eq!(impact.discrepancies().len(), 1);
        let d = &impact.discrepancies()[0];
        assert_eq!(d.left(), Decision::Accept);
        assert_eq!(d.right(), Decision::Discard);
        assert_eq!(d.packet_count(), 8); // a=2, b free (8 values)
        assert!(impact.affects(&Packet::new(vec![2, 5])));
        assert!(!impact.affects(&Packet::new(vec![3, 5])));
    }

    #[test]
    fn swap_of_conflicting_rules_has_impact() {
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-3 -> accept\na=2-5 -> discard\n* -> accept\n",
        )
        .unwrap();
        let (after, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Swap {
                first: 0,
                second: 1,
            }],
        )
        .unwrap();
        // a in [2,3] flips from accept to discard.
        assert!(!impact.is_noop());
        assert_eq!(impact.affected_packets(), 16);
        assert_eq!(
            after.decision_for(&Packet::new(vec![2, 0])),
            Some(Decision::Discard)
        );
    }

    #[test]
    fn swap_of_disjoint_rules_is_noop() {
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-1 -> accept\na=6-7 -> discard\n* -> accept-log\n",
        )
        .unwrap();
        let (_, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Swap {
                first: 0,
                second: 1,
            }],
        )
        .unwrap();
        assert!(impact.is_noop());
    }

    #[test]
    fn remove_and_replace() {
        let fw =
            fw_model::Firewall::parse(tiny_schema(), "a=0-3 -> accept\n* -> discard\n").unwrap();
        let (_, impact) = ChangeImpact::of_edits(&fw, &[Edit::Remove { index: 0 }]).unwrap();
        assert_eq!(impact.affected_packets(), 4 * 8);
        let (_, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Replace {
                index: 0,
                rule: Rule::catch_all(fw.schema(), Decision::Accept),
            }],
        )
        .unwrap();
        assert_eq!(impact.affected_packets(), 4 * 8); // a in 4..8 flips
    }

    #[test]
    fn edit_shaped_between_matches_the_full_pipeline() {
        let fw = paper::team_a();
        let blocker = Rule::catch_all(fw.schema(), Decision::Discard);
        let after = fw.with_rule_inserted(0, blocker).unwrap();
        assert_eq!(common_tail(&fw, &after), fw.len());
        let local = ChangeImpact::between(&fw, &after).unwrap();
        let full = crate::compare_firewalls(&fw, &after).unwrap();
        assert_eq!(
            local.affected_packets(),
            ChangeImpact::from_discrepancies(full).affected_packets()
        );
        for d in local.discrepancies() {
            let p = d.witness();
            assert_eq!(fw.decision_for(&p), Some(d.left()));
            assert_eq!(after.decision_for(&p), Some(d.right()));
        }
    }

    #[test]
    fn edit_errors_surface() {
        let fw = paper::team_a();
        assert!(Edit::Remove { index: 99 }.apply(&fw).is_err());
        assert!(Edit::Swap {
            first: 0,
            second: 99
        }
        .apply(&fw)
        .is_err());
        assert!(matches!(
            ChangeImpact::of_edits(&fw, &[Edit::Remove { index: 99 }]),
            Err(CoreError::Model(_))
        ));
    }

    #[test]
    fn dirty_fields_name_exactly_the_constrained_fields() {
        let fw =
            fw_model::Firewall::parse(tiny_schema(), "a=0-3 -> accept\n* -> discard\n").unwrap();
        // Narrowing on `a` only: `b` stays free in every changed region.
        let blocker = Rule::new(
            Predicate::any(fw.schema())
                .with_field(FieldId(0), IntervalSet::from_value(2))
                .unwrap(),
            Decision::Discard,
        );
        let (_, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Insert {
                index: 0,
                rule: blocker,
            }],
        )
        .unwrap();
        assert_eq!(impact.dirty_fields(fw.schema()), vec![FieldId(0)]);

        // A no-op dirties nothing.
        let (_, noop) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Replace {
                index: 0,
                rule: fw.rules()[0].clone(),
            }],
        )
        .unwrap();
        assert!(noop.is_noop());
        assert!(noop.dirty_fields(fw.schema()).is_empty());

        // Flipping a policy's only (catch-all) rule changes the whole
        // domain: the changed region constrains no field, so `dirty_fields`
        // is empty even though the change reaches everything — region
        // intersection, not field membership, is what decides reuse.
        let all = fw_model::Firewall::parse(tiny_schema(), "* -> accept\n").unwrap();
        let (_, flip) = ChangeImpact::of_edits(
            &all,
            &[Edit::Replace {
                index: 0,
                rule: Rule::catch_all(all.schema(), Decision::Discard),
            }],
        )
        .unwrap();
        assert!(!flip.is_noop());
        assert!(flip.dirty_fields(all.schema()).is_empty());
    }

    #[test]
    fn affected_packets_never_exceed_the_packet_space() {
        // Flipping a whole-domain policy touches every packet — and not
        // one more: the clamped count is exactly the space's cardinality.
        for schema in [tiny_schema(), Schema::tcp_ip(), Schema::paper_example()] {
            let all = fw_model::Firewall::parse(schema.clone(), "* -> accept\n").unwrap();
            let (_, impact) = ChangeImpact::of_edits(
                &all,
                &[Edit::Replace {
                    index: 0,
                    rule: Rule::catch_all(all.schema(), Decision::Discard),
                }],
            )
            .unwrap();
            assert_eq!(impact.affected_packets_in(&schema), schema.packet_space());
            assert!(impact.affected_packets() <= schema.packet_space());
        }

        // A consumer-assembled impact with overlapping regions can sum
        // past the space; the schema-aware count clamps it.
        let schema = tiny_schema();
        let whole = crate::discrepancy::Discrepancy::new(
            Predicate::any(&schema),
            Decision::Accept,
            Decision::Discard,
        );
        let overlapping =
            ChangeImpact::from_discrepancies(vec![whole.clone(), whole.clone(), whole]);
        assert!(overlapping.affected_packets() > schema.packet_space());
        assert_eq!(
            overlapping.affected_packets_in(&schema),
            schema.packet_space()
        );
    }

    #[test]
    fn batch_edits_compose() {
        let fw =
            fw_model::Firewall::parse(tiny_schema(), "a=0-3 -> accept\n* -> discard\n").unwrap();
        // Insert then immediately remove the same rule: net no-op.
        let rule = Rule::catch_all(fw.schema(), Decision::DiscardLog);
        let (after, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Insert { index: 0, rule }, Edit::Remove { index: 0 }],
        )
        .unwrap();
        assert_eq!(after, fw);
        assert!(impact.is_noop());
    }
}

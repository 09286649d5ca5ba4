//! **Complete redundancy detection** for firewall policies — the paper's
//! ref \[19] substrate, used by the resolution phase's Method 2 (§6.2,
//! Step 2) to compact a policy after prepending correction rules.
//!
//! A rule is *redundant* iff removing it leaves the policy's semantics
//! unchanged: **upward** if no packet reaches it (higher-priority rules
//! cover its box), **downward** if every packet that reaches it would get
//! the same decision from the rules below it. Both checks are exact root
//! comparisons in one [`ConsArena`].

use fw_core::{ConsArena, CoreError};
use fw_model::{Decision, Firewall};
use serde::{Deserialize, Serialize};

/// Why a rule is redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RedundancyKind {
    /// The rule never fires (fully shadowed by higher-priority rules).
    Upward,
    /// The rule fires, but the rules below decide identically.
    Downward,
}

/// The redundancy classification of every rule in a policy, from
/// [`analyze_redundancy`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedundancyReport {
    /// `(rule index, kind)` for each redundant rule, ascending by index.
    ///
    /// Classification treats each rule in the context of the *original*
    /// policy; removing several "redundant" rules at once is not always
    /// sound (two identical rules can each be redundant given the other),
    /// which is why [`remove_redundant_rules`] checks each rule against
    /// the rules it kept below it.
    pub redundant: Vec<(usize, RedundancyKind)>,
}

/// Each rule's redundancy in `fw`, from the last rule to the first, against
/// every rule below it or (`prune`) only those found essential.
///
/// `cover[i]` is rules `0..i` prepended under one decision: it leaves
/// unmatched exactly the packets no rule before `i` matches. Rule `i` is
/// upward redundant iff `cover[i + 1] = cover[i]`, and redundant iff it
/// leaves the suffix's decision unchanged wherever `cover[i]` is unmatched.
fn classify(fw: &Firewall, prune: bool) -> Vec<Option<RedundancyKind>> {
    let mut arena = ConsArena::new(fw.schema().clone());
    let mut cover = vec![arena.terminal(None)];
    for rule in fw.rules() {
        let top = cover[cover.len() - 1];
        cover.push(arena.prepend(&rule.with_decision(Decision::Accept), top));
    }
    let (mut below, mut kinds) = (arena.terminal(None), vec![None; fw.len()]);
    for (i, rule) in fw.rules().iter().enumerate().rev() {
        let upward = cover[i + 1] == cover[i];
        if prune && upward {
            // A pruning pass drops an upward redundant rule unseen.
            kinds[i] = Some(RedundancyKind::Upward);
            continue;
        }
        let with = arena.prepend(rule, below);
        if upward {
            kinds[i] = Some(RedundancyKind::Upward);
        } else if arena.agree_outside(cover[i], with, below) {
            kinds[i] = Some(RedundancyKind::Downward);
        }
        if !prune || kinds[i].is_none() {
            below = with;
        }
    }
    kinds
}

/// Classifies every rule of `fw` as redundant or essential, each in the
/// context of the whole original policy.
pub fn analyze_redundancy(fw: &Firewall) -> RedundancyReport {
    let kinds = classify(fw, false).into_iter().enumerate();
    RedundancyReport {
        redundant: kinds.filter_map(|(i, k)| Some((i, k?))).collect(),
    }
}

/// Removes redundant rules until none remain, preserving semantics exactly
/// (§6.2, Step 2: "a rule is redundant if and only if removing the rule
/// does not change the semantics of the firewall").
///
/// One pass from the last rule to the first drops each rule redundant
/// among the rules before it and those kept after it: the fixpoint of
/// removing the last redundant rule and re-analysing, since removing a
/// rule never makes a later essential one redundant.
///
/// # Errors
///
/// Returns [`CoreError::Model`] if the firewall would become empty (cannot
/// happen: the last rule kept decides its box).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_gen::remove_redundant_rules;
/// use fw_model::{paper, Decision, Rule};
///
/// let fw = paper::team_a();
/// // A rule shadowed by the catch-all below it is downward redundant:
/// let bloated = fw
///     .with_rule_inserted(2, Rule::catch_all(fw.schema(), Decision::Accept))
///     .map_err(fw_core::CoreError::from)?;
/// let compact = remove_redundant_rules(&bloated)?;
/// assert!(compact.len() < bloated.len());
/// assert!(fw_core::equivalent(&compact, &bloated)?);
/// # Ok(())
/// # }
/// ```
pub fn remove_redundant_rules(fw: &Firewall) -> Result<Firewall, CoreError> {
    let kinds = classify(fw, true);
    let rules = fw.rules().iter().zip(kinds);
    let kept = rules.filter(|(_, k)| k.is_none()).map(|(r, _)| r.clone());
    Ok(Firewall::new(fw.schema().clone(), kept.collect())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, FieldDef, Rule, Schema};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    fn fw(text: &str) -> Firewall {
        Firewall::parse(tiny_schema(), text).unwrap()
    }

    /// Rule `i`'s kind in `f`'s report, if it is redundant.
    fn kind(f: &Firewall, i: usize) -> Option<RedundancyKind> {
        let report = analyze_redundancy(f);
        report
            .redundant
            .iter()
            .find(|&&(j, _)| j == i)
            .map(|&(_, k)| k)
    }

    #[test]
    fn upward_redundant_rule_detected() {
        let f = fw("a=0-5 -> accept\na=2-4 -> discard\n* -> discard\n");
        assert_eq!(kind(&f, 1), Some(RedundancyKind::Upward));
        assert_eq!(kind(&f, 0), None);
    }

    #[test]
    fn downward_redundant_rule_detected() {
        let f = fw("a=0-3 -> accept\n* -> accept\n");
        assert_eq!(kind(&f, 0), Some(RedundancyKind::Downward));
        // But a conflicting decision below keeps the rule essential.
        let g = fw("a=0-3 -> accept\n* -> discard\n");
        assert_eq!(kind(&g, 0), None);
    }

    #[test]
    fn partial_shadowing_is_not_redundant() {
        // Rule 1 still decides a in 4..=5 differently from the catch-all.
        let f = fw("a=0-3 -> accept\na=0-5 -> discard\n* -> accept\n");
        assert_eq!(kind(&f, 1), None);
    }

    #[test]
    fn removal_preserves_semantics() {
        let f = fw("a=0-5 -> accept\n\
             a=2-4 -> discard\n\
             b=0-7 -> accept\n\
             a=6-7 -> accept\n\
             * -> accept\n");
        let compact = remove_redundant_rules(&f).unwrap();
        assert!(fw_core::equivalent(&f, &compact).unwrap());
        assert!(compact.len() < f.len());
        // No redundancy remains.
        assert!(analyze_redundancy(&compact).redundant.is_empty());
    }

    #[test]
    fn essential_rules_survive() {
        let f = fw("a=0-3 -> accept\na=4-7, b=0-3 -> discard\n* -> accept-log\n");
        let compact = remove_redundant_rules(&f).unwrap();
        assert_eq!(compact.len(), 3);
        assert_eq!(&f, &compact);
    }

    #[test]
    fn duplicate_rules_collapse_to_one() {
        let f = fw("a=0-3 -> discard\na=0-3 -> discard\na=0-3 -> discard\n* -> accept\n");
        let compact = remove_redundant_rules(&f).unwrap();
        assert_eq!(compact.len(), 2);
        assert!(fw_core::equivalent(&f, &compact).unwrap());
    }

    #[test]
    fn last_rule_can_be_removed_when_shadowed() {
        // The catch-all never fires because earlier rules jointly cover
        // the space.
        let f = fw("a=0-3 -> accept\na=4-7 -> discard\n* -> accept\n");
        assert_eq!(kind(&f, 2), Some(RedundancyKind::Upward));
        let compact = remove_redundant_rules(&f).unwrap();
        assert_eq!(compact.len(), 2);
        assert!(fw_core::equivalent(&f, &compact).unwrap());
    }

    #[test]
    fn paper_examples_are_already_compact() {
        for f in [paper::team_a(), paper::team_b()] {
            let compact = remove_redundant_rules(&f).unwrap();
            assert_eq!(compact.len(), f.len(), "paper tables carry no redundancy");
        }
    }

    #[test]
    fn report_classifies_kinds() {
        let f = fw("a=0-5 -> accept\n\
             a=2-4 -> discard\n\
             a=6-7 -> accept\n\
             * -> accept\n");
        let report = analyze_redundancy(&f);
        // Rule 1 upward (shadowed by rule 0); rule 2 downward (catch-all
        // agrees); the catch-all itself is *not* redundant because packets
        // with a=6..7 fall through to it once rule 2 is gone — but in the
        // original context rule 3 only sees a in 6..=7 after rules 0 and 2,
        // wait: rules 0 and 2 cover everything, so rule 3 is upward
        // redundant in the original context too.
        assert!(report.redundant.contains(&(1, RedundancyKind::Upward)));
        assert!(report.redundant.iter().any(|&(i, _)| i == 2 || i == 3));
    }

    #[test]
    fn insert_then_compact_matches_paper_method_2_shape() {
        // §6.2: corrections prepended to Team A, then compacted.
        let base = paper::team_a();
        let correction = Rule::new(
            fw_model::Predicate::any(base.schema()),
            fw_model::Decision::Accept,
        );
        let stacked = base.with_rule_inserted(0, correction).unwrap();
        let compact = remove_redundant_rules(&stacked).unwrap();
        assert!(fw_core::equivalent(&stacked, &compact).unwrap());
        // Everything below the blanket accept is redundant.
        assert_eq!(compact.len(), 1);
    }
}

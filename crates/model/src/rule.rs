use serde::{Deserialize, Serialize};

use crate::{Decision, ModelError, Packet, Predicate, Schema};

/// A firewall rule `⟨predicate⟩ → ⟨decision⟩` (§1, §3.1).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::{Decision, FieldId, IntervalSet, Predicate, Rule, Schema};
///
/// let schema = Schema::tcp_ip();
/// let block_telnet = Rule::new(
///     Predicate::any(&schema).with_field(FieldId(3), IntervalSet::from_value(23))?,
///     Decision::DiscardLog,
/// );
/// assert_eq!(block_telnet.decision(), Decision::DiscardLog);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rule {
    predicate: Predicate,
    decision: Decision,
}

impl Rule {
    /// Creates a rule from a predicate and a decision.
    pub fn new(predicate: Predicate, decision: Decision) -> Self {
        Rule {
            predicate,
            decision,
        }
    }

    /// The rule matching every packet of `schema` — the catch-all a
    /// comprehensive firewall ends with (§3.1).
    pub fn catch_all(schema: &Schema, decision: Decision) -> Self {
        Rule {
            predicate: Predicate::any(schema),
            decision,
        }
    }

    /// The rule's predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The rule's decision.
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// Returns a copy with the decision replaced.
    pub fn with_decision(&self, decision: Decision) -> Rule {
        Rule {
            predicate: self.predicate.clone(),
            decision,
        }
    }

    /// Whether the packet matches the rule's predicate.
    pub fn matches(&self, packet: &Packet) -> bool {
        self.predicate.matches(packet)
    }

    /// Whether the rule's predicate is simple (single interval per field).
    pub fn is_simple(&self) -> bool {
        self.predicate.is_simple()
    }

    /// Validates the rule against a schema.
    ///
    /// # Errors
    ///
    /// Propagates the predicate validation errors of [`Predicate::new`].
    pub fn validate(&self, schema: &Schema) -> Result<(), ModelError> {
        Predicate::check(schema, self.predicate.sets())
    }

    /// Lowers a general rule into simple rules with the same decision whose
    /// union of predicates is exactly this rule's predicate.
    pub fn to_simple_rules(&self) -> Vec<Rule> {
        self.predicate
            .to_simple_predicates()
            .into_iter()
            .map(|p| Rule::new(p, self.decision))
            .collect()
    }

    /// Paper-style display: `predicate -> decision`, with field names taken
    /// from `schema` and unconstrained fields elided.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayRule<'a> {
        DisplayRule { rule: self, schema }
    }
}

/// Helper returned by [`Rule::display`].
#[derive(Debug)]
pub struct DisplayRule<'a> {
    rule: &'a Rule,
    schema: &'a Schema,
}

impl std::fmt::Display for DisplayRule<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} -> {}",
            self.rule.predicate.display(self.schema),
            self.rule.decision
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldId, IntervalSet};

    #[test]
    fn catch_all_matches_anything() {
        let s = Schema::paper_example();
        let r = Rule::catch_all(&s, Decision::Accept);
        assert!(r.matches(&Packet::new(vec![1, 0, u64::from(u32::MAX), 65535, 1])));
        assert!(r.is_simple());
        assert!(r.validate(&s).is_ok());
    }

    #[test]
    fn with_decision_keeps_predicate() {
        let s = Schema::paper_example();
        let r = Rule::catch_all(&s, Decision::Accept);
        let d = r.with_decision(Decision::DiscardLog);
        assert_eq!(d.predicate(), r.predicate());
        assert_eq!(d.decision(), Decision::DiscardLog);
    }

    #[test]
    fn to_simple_rules_preserves_decision() {
        let s = Schema::paper_example();
        let pred = Predicate::any(&s)
            .with_field(
                FieldId(3),
                IntervalSet::from_intervals(vec![
                    crate::Interval::new(25, 25).unwrap(),
                    crate::Interval::new(80, 80).unwrap(),
                ]),
            )
            .unwrap();
        let r = Rule::new(pred, Decision::Discard);
        let simple = r.to_simple_rules();
        assert_eq!(simple.len(), 2);
        assert!(simple
            .iter()
            .all(|x| x.decision() == Decision::Discard && x.is_simple()));
    }

    #[test]
    fn display_format() {
        let s = Schema::paper_example();
        let r = Rule::catch_all(&s, Decision::Accept);
        assert_eq!(r.display(&s).to_string(), "* -> accept");
    }
}

use serde::{Deserialize, Serialize};

use crate::{Decision, ModelError, Packet, Rule, Schema};

/// A firewall policy: an ordered rule sequence with **first-match** conflict
/// resolution over a fixed [`Schema`] (§3.1).
///
/// The decision for a packet `p` is the decision of the first rule `p`
/// matches; [`Firewall::decision_for`] returns `None` when no rule matches
/// (the sequence is not *comprehensive* for `p`). The FDD construction
/// algorithm in `fw-core` rejects non-comprehensive inputs, mirroring the
/// paper's requirement that a deployable firewall maps every packet.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::{Decision, Firewall, Packet, Schema};
///
/// let fw = Firewall::parse(
///     Schema::tcp_ip(),
///     "dport=22, proto=6 -> discard-log\n* -> accept",
/// )?;
/// assert_eq!(fw.len(), 2);
/// assert!(fw.is_comprehensive_syntactically());
/// let ssh = Packet::new(vec![1, 2, 40000, 22, 6]);
/// assert_eq!(fw.decision_for(&ssh), Some(Decision::DiscardLog));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Firewall {
    schema: Schema,
    rules: Vec<Rule>,
}

impl Firewall {
    /// Creates a firewall from a schema and rule sequence, validating every
    /// rule against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFirewall`] for an empty rule list, or the
    /// first rule validation error.
    pub fn new(schema: Schema, rules: Vec<Rule>) -> Result<Self, ModelError> {
        for r in &rules {
            r.validate(&schema)?;
        }
        Firewall::of_valid(schema, rules)
    }

    /// Parses a firewall from the rule DSL (see [`crate::parse`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] with the offending line, or validation
    /// errors as in [`Firewall::new`].
    pub fn parse(schema: Schema, text: &str) -> Result<Self, ModelError> {
        let rules = crate::parse::parse_rules(&schema, text)?;
        // The parser checks every constraint against its field's domain and
        // gives every other field its whole domain, so its rules are valid.
        Firewall::of_valid(schema, rules)
    }

    /// A firewall of rules already valid over `schema`.
    fn of_valid(schema: Schema, rules: Vec<Rule>) -> Result<Self, ModelError> {
        if rules.is_empty() {
            return Err(ModelError::InvalidFirewall {
                message: "no rules".to_owned(),
            });
        }
        Ok(Firewall { schema, rules })
    }

    /// The schema all rules range over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rules in priority order (highest first).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules `|f|`.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the firewall has no rules. Always `false` for a constructed
    /// firewall; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// First-match evaluation: the decision of the first rule matching
    /// `packet`, or `None` if no rule matches.
    pub fn decision_for(&self, packet: &Packet) -> Option<Decision> {
        self.rules
            .iter()
            .find(|r| r.matches(packet))
            .map(Rule::decision)
    }

    /// Index of the first rule matching `packet`, if any.
    pub fn first_match(&self, packet: &Packet) -> Option<usize> {
        self.rules.iter().position(|r| r.matches(packet))
    }

    /// Whether the last rule matches every packet — the syntactic
    /// comprehensiveness guarantee the paper prescribes (§3.1: "the
    /// predicate of the last rule is specified as `F1 ∈ D(F1) ∧ …`").
    ///
    /// A firewall can be comprehensive without satisfying this (its rules
    /// may jointly cover the space); the FDD construction in `fw-core`
    /// decides *semantic* comprehensiveness exactly.
    pub fn is_comprehensive_syntactically(&self) -> bool {
        self.rules
            .last()
            .is_some_and(|r| r.predicate().is_any(&self.schema))
    }

    /// Returns a copy with `rule` appended at the lowest priority.
    ///
    /// # Errors
    ///
    /// Returns the rule's validation error, if any.
    pub fn with_rule_appended(&self, rule: Rule) -> Result<Firewall, ModelError> {
        rule.validate(&self.schema)?;
        let mut rules = self.rules.clone();
        rules.push(rule);
        Ok(Firewall {
            schema: self.schema.clone(),
            rules,
        })
    }

    /// Returns a copy with `rule` inserted at position `index` (0 = highest
    /// priority). This is the paper's canonical *change* operation — §8.1
    /// found that most real errors come from inserting new rules at the top.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFirewall`] if `index > len`, or the
    /// rule's validation error.
    pub fn with_rule_inserted(&self, index: usize, rule: Rule) -> Result<Firewall, ModelError> {
        if index > self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!("insert index {index} out of range 0..={}", self.rules.len()),
            });
        }
        rule.validate(&self.schema)?;
        let mut rules = self.rules.clone();
        rules.insert(index, rule);
        Ok(Firewall {
            schema: self.schema.clone(),
            rules,
        })
    }

    /// Returns a copy with the rule at `index` removed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFirewall`] if `index` is out of range or
    /// if removal would leave the firewall empty.
    pub fn with_rule_removed(&self, index: usize) -> Result<Firewall, ModelError> {
        if index >= self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!("remove index {index} out of range 0..{}", self.rules.len()),
            });
        }
        if self.rules.len() == 1 {
            return Err(ModelError::InvalidFirewall {
                message: "removing the only rule would leave no rules".to_owned(),
            });
        }
        let mut rules = self.rules.clone();
        rules.remove(index);
        Ok(Firewall {
            schema: self.schema.clone(),
            rules,
        })
    }

    /// Returns a copy with the rule at `index` replaced.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFirewall`] if `index` is out of range, or
    /// the rule's validation error.
    pub fn with_rule_replaced(&self, index: usize, rule: Rule) -> Result<Firewall, ModelError> {
        if index >= self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!("replace index {index} out of range 0..{}", self.rules.len()),
            });
        }
        rule.validate(&self.schema)?;
        let mut rules = self.rules.clone();
        rules[index] = rule;
        Ok(Firewall {
            schema: self.schema.clone(),
            rules,
        })
    }

    /// Inserts `rule` at position `index` in place — the allocation-free
    /// counterpart of [`Firewall::with_rule_inserted`] for callers that
    /// thread one owned policy through an edit batch.
    ///
    /// # Errors
    ///
    /// As for [`Firewall::with_rule_inserted`]; the firewall is unchanged
    /// on error.
    pub fn insert_rule(&mut self, index: usize, rule: Rule) -> Result<(), ModelError> {
        if index > self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!("insert index {index} out of range 0..={}", self.rules.len()),
            });
        }
        rule.validate(&self.schema)?;
        self.rules.insert(index, rule);
        Ok(())
    }

    /// Removes the rule at `index` in place.
    ///
    /// # Errors
    ///
    /// As for [`Firewall::with_rule_removed`]; the firewall is unchanged
    /// on error.
    pub fn remove_rule(&mut self, index: usize) -> Result<(), ModelError> {
        if index >= self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!("remove index {index} out of range 0..{}", self.rules.len()),
            });
        }
        if self.rules.len() == 1 {
            return Err(ModelError::InvalidFirewall {
                message: "removing the only rule would leave no rules".to_owned(),
            });
        }
        self.rules.remove(index);
        Ok(())
    }

    /// Replaces the rule at `index` in place.
    ///
    /// # Errors
    ///
    /// As for [`Firewall::with_rule_replaced`]; the firewall is unchanged
    /// on error.
    pub fn replace_rule(&mut self, index: usize, rule: Rule) -> Result<(), ModelError> {
        if index >= self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!("replace index {index} out of range 0..{}", self.rules.len()),
            });
        }
        rule.validate(&self.schema)?;
        self.rules[index] = rule;
        Ok(())
    }

    /// Swaps the rules at `first` and `second` in place (a no-op when the
    /// indices are equal).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFirewall`] if either index is out of
    /// range; the firewall is unchanged on error.
    pub fn swap_rules(&mut self, first: usize, second: usize) -> Result<(), ModelError> {
        if first >= self.rules.len() || second >= self.rules.len() {
            return Err(ModelError::InvalidFirewall {
                message: format!(
                    "swap indices {first},{second} out of range 0..{}",
                    self.rules.len()
                ),
            });
        }
        self.rules.swap(first, second);
        Ok(())
    }

    /// Lowers every general rule into simple rules (§3.1), preserving
    /// semantics and relative order.
    pub fn to_simple_rules(&self) -> Firewall {
        let rules = self.rules.iter().flat_map(Rule::to_simple_rules).collect();
        Firewall {
            schema: self.schema.clone(),
            rules,
        }
    }

    /// Whether every rule is simple.
    pub fn is_simple(&self) -> bool {
        self.rules.iter().all(Rule::is_simple)
    }

    /// Renders the policy in the rule DSL, one rule per line; parsing the
    /// output with the same schema reproduces the firewall.
    pub fn to_dsl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.rules {
            let _ = writeln!(out, "{}", r.display(&self.schema));
        }
        out
    }

    /// One witness packet per rule, useful for smoke-testing policies.
    pub fn witnesses(&self) -> Vec<Packet> {
        self.rules.iter().map(|r| r.predicate().witness()).collect()
    }
}

impl std::fmt::Display for Firewall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "r{}: {}", i + 1, r.display(&self.schema))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{team_a, team_b};

    const MAIL: u64 = 0xC0A8_0001; // 192.168.0.1
    const MAL_LO: u64 = 0xE0A8_0000; // 224.168.0.0
    const MAL_HI: u64 = 0xE0A8_FFFF; // 224.168.255.255

    #[test]
    fn first_match_resolves_conflicts() {
        let fw = team_a();
        // Malicious host mailing the server matches r1 before r2.
        let p = Packet::new(vec![0, MAL_LO + 5, MAIL, 25, 0]);
        assert_eq!(fw.first_match(&p), Some(0));
        assert_eq!(fw.decision_for(&p), Some(Decision::Accept));
        // Same host to another port is discarded by r2.
        let q = Packet::new(vec![0, MAL_LO + 5, MAIL, 80, 0]);
        assert_eq!(fw.first_match(&q), Some(1));
        assert_eq!(fw.decision_for(&q), Some(Decision::Discard));
    }

    #[test]
    fn team_firewalls_disagree_exactly_as_table_3_says() {
        let (a, b) = (team_a(), team_b());
        // Discrepancy 1: malicious domain -> mail server, port 25, TCP.
        let d1 = Packet::new(vec![0, MAL_HI, MAIL, 25, 0]);
        assert_eq!(a.decision_for(&d1), Some(Decision::Accept));
        assert_eq!(b.decision_for(&d1), Some(Decision::Discard));
        // Discrepancy 2: non-malicious, non-TCP, port 25 -> mail server.
        let d2 = Packet::new(vec![0, 1, MAIL, 25, 1]);
        assert_eq!(a.decision_for(&d2), Some(Decision::Accept));
        assert_eq!(b.decision_for(&d2), Some(Decision::Discard));
        // Discrepancy 3: non-malicious, port != 25 -> mail server.
        let d3 = Packet::new(vec![0, 1, MAIL, 80, 0]);
        assert_eq!(a.decision_for(&d3), Some(Decision::Accept));
        assert_eq!(b.decision_for(&d3), Some(Decision::Discard));
        // Agreement: malicious to non-mail destination.
        let ag = Packet::new(vec![0, MAL_LO, 7, 80, 0]);
        assert_eq!(a.decision_for(&ag), b.decision_for(&ag));
        // Agreement: outgoing traffic.
        let out = Packet::new(vec![1, MAIL, MAL_LO, 25, 0]);
        assert_eq!(a.decision_for(&out), Some(Decision::Accept));
        assert_eq!(b.decision_for(&out), Some(Decision::Accept));
    }

    #[test]
    fn comprehensive_check() {
        assert!(team_a().is_comprehensive_syntactically());
        let partial = Firewall::parse(Schema::paper_example(), "iface=0 -> accept\n").unwrap();
        assert!(!partial.is_comprehensive_syntactically());
        assert_eq!(
            partial.decision_for(&Packet::new(vec![1, 0, 0, 0, 0])),
            None
        );
    }

    #[test]
    fn edit_operations() {
        let fw = team_a();
        let extra = Rule::catch_all(fw.schema(), Decision::DiscardLog);
        let inserted = fw.with_rule_inserted(0, extra.clone()).unwrap();
        assert_eq!(inserted.len(), 4);
        assert_eq!(
            inserted.decision_for(&Packet::new(vec![1, 0, 0, 0, 0])),
            Some(Decision::DiscardLog)
        );

        let removed = inserted.with_rule_removed(0).unwrap();
        assert_eq!(removed, fw);

        let replaced = fw.with_rule_replaced(2, extra).unwrap();
        assert_eq!(
            replaced.decision_for(&Packet::new(vec![1, 0, 0, 0, 0])),
            Some(Decision::DiscardLog)
        );

        assert!(fw
            .with_rule_inserted(9, Rule::catch_all(fw.schema(), Decision::Accept))
            .is_err());
        assert!(fw.with_rule_removed(9).is_err());
    }

    #[test]
    fn in_place_edits_match_the_cloning_editors() {
        let fw = team_a();
        let extra = Rule::catch_all(fw.schema(), Decision::DiscardLog);

        let mut m = fw.clone();
        m.insert_rule(1, extra.clone()).unwrap();
        assert_eq!(m, fw.with_rule_inserted(1, extra.clone()).unwrap());

        m.remove_rule(1).unwrap();
        assert_eq!(m, fw);

        m.replace_rule(0, extra.clone()).unwrap();
        assert_eq!(m, fw.with_rule_replaced(0, extra.clone()).unwrap());

        let mut s = fw.clone();
        s.swap_rules(0, 2).unwrap();
        assert_eq!(s.rules()[0], fw.rules()[2]);
        assert_eq!(s.rules()[2], fw.rules()[0]);
        s.swap_rules(1, 1).unwrap();

        // Errors leave the firewall untouched.
        let before = s.clone();
        assert!(s.insert_rule(99, extra.clone()).is_err());
        assert!(s.remove_rule(99).is_err());
        assert!(s.replace_rule(99, extra).is_err());
        assert!(s.swap_rules(0, 99).is_err());
        assert_eq!(s, before);

        let mut single = Firewall::parse(Schema::paper_example(), "* -> accept\n").unwrap();
        assert!(single.remove_rule(0).is_err());
    }

    #[test]
    fn dsl_round_trip() {
        let fw = team_b();
        let text = fw.to_dsl();
        let again = Firewall::parse(fw.schema().clone(), &text).unwrap();
        assert_eq!(fw, again);
    }

    #[test]
    fn empty_firewall_rejected() {
        assert!(matches!(
            Firewall::new(Schema::paper_example(), vec![]),
            Err(ModelError::InvalidFirewall { .. })
        ));
    }
}

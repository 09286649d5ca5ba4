//! The FDD **construction algorithm** (paper §3, Fig. 7): convert a
//! first-match rule sequence into an equivalent FDD.
//!
//! Rules are appended one at a time to a *partial* FDD. Appending rule
//! `r = (F1 ∈ S1) ∧ … ∧ (Fd ∈ Sd) → dec` at a node `v` labelled `Fi`:
//!
//! * values of `Si` covered by no outgoing edge get a **new edge** to a
//!   fresh decision path built from the rest of the rule — those packets
//!   match `r` first;
//! * for each existing edge `e`, compare `Si` with `I(e)`:
//!   1. disjoint — skip;
//!   2. `I(e) ⊆ Si` — recurse into `e.t`;
//!   3. partial overlap — **split** `e` into `I(e) \ Si` (keeping the old
//!      subgraph) and `I(e) ∩ Si` (pointing to a **replicated copy**), then
//!      recurse into the copy.
//!
//! Terminal nodes are never overwritten: packets reaching an existing
//! terminal already matched an earlier (higher-priority) rule.
//!
//! This algorithm is the paper-literal reference. Every served policy is
//! built by the memoised `fast.rs` equivalent instead, and an edited policy
//! is simply rebuilt that way: [`ConsArena::intern_fdd`](crate::ConsArena::intern_fdd)
//! gives the rebuilt diagram its canonical root, and the short-circuit
//! diff against the old root yields the edit's impact (see `cons.rs`).

use fw_model::{Firewall, IntervalSet, Rule};

use crate::fdd::{Edge, Fdd, Node, NodeId};
use crate::CoreError;

impl Fdd {
    /// Builds an FDD equivalent to `firewall` using the construction
    /// algorithm of Fig. 7.
    ///
    /// The resulting diagram is an ordered tree with every schema field on
    /// every path, satisfying all invariants of [`Fdd::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotComprehensive`] if some packet matches no
    /// rule (§3.1 requires the sequence to be comprehensive).
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), fw_core::CoreError> {
    /// use fw_core::Fdd;
    /// use fw_model::paper;
    ///
    /// let fdd = Fdd::from_firewall(&paper::team_a())?;
    /// assert_eq!(fdd.depth(), 5); // all five fields on every path
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_firewall(firewall: &Firewall) -> Result<Fdd, CoreError> {
        let schema = firewall.schema().clone();
        let mut fdd = Fdd::empty(schema);
        let mut rules = firewall.rules().iter();
        let first = rules.next().expect("Firewall guarantees at least one rule");
        let root = build_path(&mut fdd, first, 0);
        fdd.set_root(root);
        for rule in rules {
            append(&mut fdd, root, rule, 0);
        }
        if let Some(witness) = fdd.uncovered_witness() {
            return Err(CoreError::NotComprehensive { witness });
        }
        fdd.compact();
        debug_assert!(fdd.validate().is_ok());
        Ok(fdd)
    }
}

/// Incremental construction of an FDD, one rule at a time — the paper's
/// Fig. 7 algorithm exposed as a streaming builder.
///
/// Useful when rules arrive incrementally (an interactive policy editor, a
/// parser pipeline) or when intermediate *partial* FDDs are of interest.
/// The builder maintains the partial-FDD invariants (everything but
/// completeness); [`IncrementalBuilder::finish`] checks comprehensiveness
/// and returns the final diagram.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_core::CoreError> {
/// use fw_core::IncrementalBuilder;
/// use fw_model::paper;
///
/// let fw = paper::team_a();
/// let mut b = IncrementalBuilder::new(fw.schema().clone());
/// for rule in fw.rules() {
///     b.append(rule)?;
/// }
/// let fdd = b.finish()?;
/// assert!(fdd.isomorphic(&fw_core::Fdd::from_firewall(&fw)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrementalBuilder {
    fdd: Option<Fdd>,
    schema: fw_model::Schema,
    rules_seen: usize,
}

impl IncrementalBuilder {
    /// Starts an empty builder over `schema`.
    pub fn new(schema: fw_model::Schema) -> IncrementalBuilder {
        IncrementalBuilder {
            fdd: None,
            schema,
            rules_seen: 0,
        }
    }

    /// Appends `rule` at the lowest priority (below everything appended so
    /// far), exactly as Fig. 7 does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the rule does not fit the schema.
    pub fn append(&mut self, rule: &Rule) -> Result<(), CoreError> {
        rule.validate(&self.schema)?;
        match &mut self.fdd {
            None => {
                let mut fdd = Fdd::empty(self.schema.clone());
                let root = build_path(&mut fdd, rule, 0);
                fdd.set_root(root);
                self.fdd = Some(fdd);
            }
            Some(fdd) => {
                let root = fdd.root();
                append(fdd, root, rule, 0);
            }
        }
        self.rules_seen += 1;
        Ok(())
    }

    /// Number of rules appended so far.
    pub fn len(&self) -> usize {
        self.rules_seen
    }

    /// Whether no rule has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.rules_seen == 0
    }

    /// The current (possibly partial) diagram, if any rule was appended.
    pub fn partial(&self) -> Option<&Fdd> {
        self.fdd.as_ref()
    }

    /// Whether the rules appended so far already cover every packet.
    pub fn is_comprehensive(&self) -> bool {
        self.fdd
            .as_ref()
            .is_some_and(|f| f.uncovered_witness().is_none())
    }

    /// Finishes construction, checking comprehensiveness (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotComprehensive`] if some packet matches no
    /// appended rule (including the no-rules case).
    pub fn finish(self) -> Result<Fdd, CoreError> {
        let mut fdd = self.fdd.ok_or(CoreError::NotComprehensive {
            witness: "no rules appended".to_owned(),
        })?;
        if let Some(witness) = fdd.uncovered_witness() {
            return Err(CoreError::NotComprehensive { witness });
        }
        fdd.compact();
        debug_assert!(fdd.validate().is_ok());
        Ok(fdd)
    }
}

/// Builds the decision path `(Fi ∈ Si) ∧ … ∧ (Fd ∈ Sd) → dec` as a chain of
/// fresh nodes, returning the chain's head.
fn build_path(fdd: &mut Fdd, rule: &Rule, from_field: usize) -> NodeId {
    let d = fdd.schema().len();
    let mut node = fdd.push(Node::Terminal(rule.decision()));
    for i in (from_field..d).rev() {
        let field = fw_model::FieldId(i);
        let label = rule.predicate().set(field).clone();
        let edge = Edge {
            label,
            target: node,
        };
        node = fdd.push(Node::Internal {
            field,
            edges: vec![edge],
        });
    }
    node
}

/// Appends rule `r` (from field index `i` down) to the partial FDD rooted at
/// `v` — the recursive core of Fig. 7.
fn append(fdd: &mut Fdd, v: NodeId, rule: &Rule, i: usize) {
    let field = match fdd.node(v) {
        // Case: reached a terminal — every packet arriving here matched an
        // earlier rule, so the lower-priority `rule` contributes nothing.
        Node::Terminal(_) => return,
        Node::Internal { field, .. } => *field,
    };
    debug_assert_eq!(
        field.index(),
        i,
        "construction keeps every field on every path"
    );
    let s = rule.predicate().set(field).clone();

    // Outgoing labels as they are before this rule is appended.
    let (labels, targets): (Vec<IntervalSet>, Vec<NodeId>) = match fdd.node(v) {
        Node::Internal { edges, .. } => (
            edges.iter().map(|e| e.label.clone()).collect(),
            edges.iter().map(|e| e.target).collect(),
        ),
        Node::Terminal(_) => unreachable!("checked above"),
    };

    // 1. Values of S matched by no existing edge: fresh edge + fresh path.
    let mut covered = IntervalSet::empty();
    for l in &labels {
        covered = covered.union(l);
    }
    let leftover = s.subtract(&covered);
    if !leftover.is_empty() {
        let path = build_path(fdd, rule, i + 1);
        match fdd.node_mut(v) {
            Node::Internal { edges, .. } => edges.push(Edge {
                label: leftover,
                target: path,
            }),
            Node::Terminal(_) => unreachable!(),
        }
    }

    // 2. Compare S with each pre-existing edge label.
    for (j, label) in labels.iter().enumerate() {
        let overlap = s.intersect(label);
        if overlap.is_empty() {
            // Case 1: disjoint — skip.
            continue;
        }
        if &overlap == label {
            // Case 2: I(e) ⊆ S — recurse into the existing subgraph.
            append(fdd, targets[j], rule, i + 1);
        } else {
            // Case 3: partial overlap — split e into e' (I(e) \ S, keeps the
            // original subgraph) and e'' (I(e) ∩ S, replicated copy), then
            // append into the copy.
            let rest = label.subtract(&s);
            let copy = fdd.deep_copy(targets[j]);
            match fdd.node_mut(v) {
                Node::Internal { edges, .. } => {
                    edges[j].label = rest;
                    edges.push(Edge {
                        label: overlap,
                        target: copy,
                    });
                }
                Node::Terminal(_) => unreachable!(),
            }
            append(fdd, copy, rule, i + 1);
        }
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use fw_model::{paper, Decision, Firewall};

    #[test]
    fn incremental_matches_batch_construction() {
        for fw in [paper::team_a(), paper::team_b()] {
            let mut b = IncrementalBuilder::new(fw.schema().clone());
            assert!(b.is_empty());
            for rule in fw.rules() {
                b.append(rule).unwrap();
            }
            assert_eq!(b.len(), fw.len());
            let fdd = b.finish().unwrap();
            assert!(fdd.isomorphic(&Fdd::from_firewall(&fw).unwrap()));
        }
    }

    #[test]
    fn partial_is_observable_mid_stream() {
        let fw = paper::team_a();
        let mut b = IncrementalBuilder::new(fw.schema().clone());
        b.append(&fw.rules()[0]).unwrap();
        assert!(!b.is_comprehensive());
        let partial = b.partial().unwrap();
        partial.validate_partial().unwrap();
        // The first rule's packets already decide.
        let w = fw.rules()[0].predicate().witness();
        assert_eq!(partial.decision_for(&w), Some(fw.rules()[0].decision()));
        // Append the rest; comprehensiveness arrives with the catch-all.
        b.append(&fw.rules()[1]).unwrap();
        assert!(!b.is_comprehensive());
        b.append(&fw.rules()[2]).unwrap();
        assert!(b.is_comprehensive());
        b.finish().unwrap();
    }

    #[test]
    fn finish_without_rules_or_coverage_fails() {
        let schema = paper::team_a().schema().clone();
        assert!(matches!(
            IncrementalBuilder::new(schema.clone()).finish(),
            Err(CoreError::NotComprehensive { .. })
        ));
        let partial_fw = Firewall::parse(schema.clone(), "iface=0 -> accept").unwrap();
        let mut b = IncrementalBuilder::new(schema);
        b.append(&partial_fw.rules()[0]).unwrap();
        assert!(matches!(
            b.finish(),
            Err(CoreError::NotComprehensive { .. })
        ));
    }

    #[test]
    fn append_validates_rules() {
        let schema = paper::team_a().schema().clone();
        let other = fw_model::Schema::tcp_ip();
        let alien = fw_model::Rule::catch_all(&other, Decision::Accept);
        let mut b = IncrementalBuilder::new(schema);
        assert!(b.append(&alien).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldDef, Firewall, Packet, Schema};

    fn exhaustive_check(fw: &Firewall, fdd: &Fdd) {
        // Only usable for tiny schemas.
        let schema = fw.schema();
        let mut packets = vec![vec![]];
        for (_, f) in schema.iter() {
            let mut next = Vec::new();
            for p in &packets {
                for v in 0..=f.max() {
                    let mut q = p.clone();
                    q.push(v);
                    next.push(q);
                }
            }
            packets = next;
        }
        for values in packets {
            let p = Packet::new(values);
            assert_eq!(fw.decision_for(&p), fdd.decision_for(&p), "mismatch at {p}");
        }
    }

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn single_catch_all_rule() {
        let fw = Firewall::parse(tiny_schema(), "* -> accept").unwrap();
        let fdd = Fdd::from_firewall(&fw).unwrap();
        fdd.validate().unwrap();
        assert_eq!(fdd.path_count(), 1);
        exhaustive_check(&fw, &fdd);
    }

    #[test]
    fn overlapping_rules_first_match_wins() {
        let fw = Firewall::parse(
            tiny_schema(),
            "a=0-3, b=2-5 -> discard\n\
             a=2-6 -> accept\n\
             * -> discard-log\n",
        )
        .unwrap();
        let fdd = Fdd::from_firewall(&fw).unwrap();
        fdd.validate().unwrap();
        exhaustive_check(&fw, &fdd);
    }

    #[test]
    fn shadowed_rule_changes_nothing() {
        let top = Firewall::parse(tiny_schema(), "a=0-7 -> accept\n* -> discard\n").unwrap();
        let fdd = Fdd::from_firewall(&top).unwrap();
        exhaustive_check(&top, &fdd);
        // The second rule is fully shadowed: everything accepts.
        let mut decisions = Vec::new();
        fdd.for_each_path(|_, d| decisions.push(d));
        assert!(decisions.iter().all(|&d| d == Decision::Accept));
    }

    /// The packet a witness spells: its named values, every other field at
    /// its domain minimum.
    fn witness_packet(schema: &Schema, witness: &str) -> Packet {
        let mut values: Vec<u64> = schema.iter().map(|(_, f)| f.domain().lo()).collect();
        for pair in witness.split(", ") {
            let (name, value) = pair.split_once('=').expect("field=value");
            let (id, _) = schema
                .iter()
                .find(|(_, f)| f.name() == name)
                .expect("a schema field");
            values[id.0] = value.parse().expect("a decimal value");
        }
        Packet::new(values)
    }

    #[test]
    fn every_constructor_names_an_unmatched_packet() {
        let policies = [
            (tiny_schema(), "a=0-3 -> accept"),
            (tiny_schema(), "a=0-3, b=0-3 -> accept\na=4-7 -> discard\n"),
            // b=4-7 alone does not name the gap: rule 2 discards (0, 4).
            (tiny_schema(), "b=0-3 -> accept\na=0-6 -> discard\n"),
            // The gap is src in 10.0.0.0/8 with dport above 21: dport alone
            // does not name it, since src=11.0.0.1 matches rule 3.
            (
                Schema::tcp_ip(),
                "src=10.0.0.0/8, dport=0-21 -> accept\n\
                 src=0.0.0.0/5 -> discard\n\
                 src=11.0.0.0-255.255.255.255 -> accept\n\
                 src=8.0.0.0-9.255.255.255 -> accept\n",
            ),
        ];
        for (schema, text) in policies {
            let fw = Firewall::parse(schema, text).unwrap();
            let incremental = || {
                let mut b = IncrementalBuilder::new(fw.schema().clone());
                for rule in fw.rules() {
                    b.append(rule)?;
                }
                b.finish()
            };
            for (name, built) in [
                ("literal", Fdd::from_firewall(&fw)),
                ("incremental", incremental()),
                ("fast", Fdd::from_firewall_fast(&fw)),
            ] {
                let Err(CoreError::NotComprehensive { witness }) = built else {
                    panic!("{name}: {text} leaves packets unmatched");
                };
                let p = witness_packet(fw.schema(), &witness);
                assert_eq!(fw.decision_for(&p), None, "{name}: {witness} is matched");
            }
        }
    }

    #[test]
    fn non_comprehensive_rejected_with_witness() {
        let fw = Firewall::parse(tiny_schema(), "a=0-3 -> accept").unwrap();
        match Fdd::from_firewall(&fw) {
            Err(CoreError::NotComprehensive { witness }) => {
                assert!(witness.contains("a="), "witness was {witness}");
            }
            other => panic!("expected NotComprehensive, got {other:?}"),
        }
    }

    #[test]
    fn gap_in_second_field_detected() {
        let fw =
            Firewall::parse(tiny_schema(), "a=0-3, b=0-3 -> accept\na=4-7 -> discard\n").unwrap();
        assert!(matches!(
            Fdd::from_firewall(&fw),
            Err(CoreError::NotComprehensive { .. })
        ));
    }

    #[test]
    fn multi_interval_predicates_supported() {
        let fw =
            Firewall::parse(tiny_schema(), "a=0|2|4-5, b=1|6 -> discard\n* -> accept\n").unwrap();
        let fdd = Fdd::from_firewall(&fw).unwrap();
        fdd.validate().unwrap();
        exhaustive_check(&fw, &fdd);
    }

    #[test]
    fn paper_team_a_fdd_matches_figure_2() {
        let fdd = Fdd::from_firewall(&paper::team_a()).unwrap();
        fdd.validate().unwrap();
        assert!(fdd.is_tree());
        // Fig. 2 spot checks.
        let p_mail = Packet::new(vec![
            0,
            paper::MALICIOUS_LO,
            paper::MAIL_SERVER,
            25,
            paper::TCP,
        ]);
        assert_eq!(fdd.decision_for(&p_mail), Some(Decision::Accept));
        let p_mal = Packet::new(vec![0, paper::MALICIOUS_LO, 9, 80, paper::UDP]);
        assert_eq!(fdd.decision_for(&p_mal), Some(Decision::Discard));
        let p_out = Packet::new(vec![1, 0, 0, 0, paper::TCP]);
        assert_eq!(fdd.decision_for(&p_out), Some(Decision::Accept));
    }

    #[test]
    fn paper_team_b_fdd_matches_figure_3() {
        let fdd = Fdd::from_firewall(&paper::team_b()).unwrap();
        fdd.validate().unwrap();
        let p = Packet::new(vec![
            0,
            paper::MALICIOUS_LO,
            paper::MAIL_SERVER,
            25,
            paper::TCP,
        ]);
        assert_eq!(fdd.decision_for(&p), Some(Decision::Discard));
        let q = Packet::new(vec![0, 7, paper::MAIL_SERVER, 80, paper::TCP]);
        assert_eq!(fdd.decision_for(&q), Some(Decision::Discard));
        let r = Packet::new(vec![0, 7, 9, 80, paper::TCP]);
        assert_eq!(fdd.decision_for(&r), Some(Decision::Accept));
    }

    #[test]
    fn agreement_with_first_match_on_witnesses() {
        for fw in [paper::team_a(), paper::team_b()] {
            let fdd = Fdd::from_firewall(&fw).unwrap();
            for p in fw.witnesses() {
                assert_eq!(fw.decision_for(&p), fdd.decision_for(&p));
            }
            // And on every FDD path witness.
            fdd.for_each_path(|pred, d| {
                let w = pred.witness();
                assert_eq!(fw.decision_for(&w), Some(d), "at path witness {w}");
            });
        }
    }

    #[test]
    fn theorem_1_bound_holds_for_examples() {
        for fw in [paper::team_a(), paper::team_b()] {
            let simple = fw.to_simple_rules();
            let n = simple.len() as u128;
            let d = simple.schema().len() as u32;
            let fdd = Fdd::from_firewall(&simple).unwrap();
            assert!(fdd.path_count() <= (2 * n - 1).pow(d));
        }
    }
}

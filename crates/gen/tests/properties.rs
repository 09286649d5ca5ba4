//! Property-based verification of rule generation and redundancy removal:
//! both must preserve semantics exactly, generation must stay compact, and
//! redundancy analysis must agree with the semantic oracle (`f ≡ f \ r`).

use fw_core::Fdd;
use fw_gen::{
    analyze_redundancy, generate_rules, remove_redundant_rules, RedundancyKind, RedundancyReport,
};
use fw_model::{
    Decision, FieldDef, Firewall, Interval, IntervalSet, Packet, Predicate, Rule, Schema,
};
use proptest::prelude::*;

fn tiny_schema() -> Schema {
    Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
        FieldDef::new("c", 2).unwrap(),
    ])
    .unwrap()
}

fn all_packets(schema: &Schema) -> Vec<Packet> {
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
    packets.into_iter().map(Packet::new).collect()
}

/// Rule `i`'s kind in `report`, if it is redundant.
fn kind(report: &RedundancyReport, i: usize) -> Option<RedundancyKind> {
    report
        .redundant
        .iter()
        .find(|&&(j, _)| j == i)
        .map(|&(_, k)| k)
}

fn arb_set(bits: u32) -> impl Strategy<Value = IntervalSet> {
    let max = (1u64 << bits) - 1;
    prop::collection::vec((0..=max, 0..=max), 1..3).prop_map(|pairs| {
        IntervalSet::from_intervals(
            pairs
                .into_iter()
                .map(|(x, y)| Interval::new(x.min(y), x.max(y)).unwrap()),
        )
    })
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (arb_set(3), arb_set(3), arb_set(2), 0..4usize).prop_map(|(a, b, c, d)| {
        Rule::new(
            Predicate::new(&tiny_schema(), vec![a, b, c]).unwrap(),
            Decision::ALL[d],
        )
    })
}

prop_compose! {
    fn arb_firewall()(rules in prop::collection::vec(arb_rule(), 0..7), last in 0..4usize)
        -> Firewall
    {
        let schema = tiny_schema();
        let mut rules = rules;
        rules.push(Rule::catch_all(&schema, Decision::ALL[last]));
        Firewall::new(schema, rules).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generation_round_trips_semantics(fw in arb_firewall()) {
        let fdd = Fdd::from_firewall(&fw).unwrap();
        let generated = generate_rules(&fdd).unwrap();
        prop_assert!(generated.is_comprehensive_syntactically()
            || fw_core::equivalent(&generated, &fw).unwrap());
        for p in all_packets(fw.schema()) {
            prop_assert_eq!(generated.decision_for(&p), fw.decision_for(&p), "at {}", p);
        }
    }

    #[test]
    fn generated_policies_carry_no_redundancy(fw in arb_firewall()) {
        let generated = generate_rules(&Fdd::from_firewall(&fw).unwrap()).unwrap();
        prop_assert!(analyze_redundancy(&generated).redundant.is_empty(),
            "generated policy still redundant:\n{}", generated);
    }

    #[test]
    fn redundancy_matches_semantic_oracle(fw in arb_firewall()) {
        let report = analyze_redundancy(&fw);
        for i in 0..fw.len() {
            let claimed = kind(&report, i).is_some();
            if fw.len() == 1 {
                prop_assert!(!claimed);
                continue;
            }
            let without = fw.with_rule_removed(i).unwrap();
            // Semantic oracle over the whole space. Removing a rule can
            // also break comprehensiveness; treat that as inequivalent.
            let oracle = all_packets(fw.schema())
                .iter()
                .all(|p| fw.decision_for(p) == without.decision_for(p));
            prop_assert_eq!(claimed, oracle, "rule {} of\n{}", i, fw);
        }
    }

    #[test]
    fn upward_redundancy_means_no_packet_is_first_matched(fw in arb_firewall()) {
        let report = analyze_redundancy(&fw);
        let packets = all_packets(fw.schema());
        for i in 0..fw.len() {
            let fires = packets.iter().any(|p| fw.first_match(p) == Some(i));
            let upward = kind(&report, i) == Some(RedundancyKind::Upward);
            prop_assert_eq!(upward, !fires, "rule {} of\n{}", i, fw);
        }
    }

    #[test]
    fn removal_reaches_fixpoint_and_preserves_semantics(fw in arb_firewall()) {
        let compact = remove_redundant_rules(&fw).unwrap();
        prop_assert!(compact.len() <= fw.len());
        prop_assert!(analyze_redundancy(&compact).redundant.is_empty());
        for p in all_packets(fw.schema()) {
            prop_assert_eq!(compact.decision_for(&p), fw.decision_for(&p), "at {}", p);
        }
    }

    #[test]
    fn generation_not_larger_than_simple_expansion(fw in arb_firewall()) {
        let fdd = Fdd::from_firewall(&fw).unwrap();
        let generated = generate_rules(&fdd).unwrap();
        // Weak compactness guarantee: never worse than one simple rule per
        // decision path of the reduced diagram.
        prop_assert!((generated.len() as u128) <= fdd.reduced().path_count().max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn anomaly_classification_is_semantically_consistent(fw in arb_firewall()) {
        use fw_gen::{analyze_anomalies, AnomalyKind};
        let report = analyze_redundancy(&fw);
        for a in analyze_anomalies(&fw) {
            let earlier = &fw.rules()[a.earlier];
            let later = &fw.rules()[a.later];
            match a.kind {
                AnomalyKind::Shadowing | AnomalyKind::PairwiseRedundancy => {
                    // Later rule's predicate is contained in the earlier's,
                    // so the later rule can never be anyone's first match.
                    prop_assert!(later.predicate().is_subset_of(earlier.predicate()));
                    prop_assert!(
                        kind(&report, a.later) == Some(RedundancyKind::Upward),
                        "fully covered rule {} still fires",
                        a.later
                    );
                }
                AnomalyKind::Generalization => {
                    prop_assert!(earlier.predicate().is_subset_of(later.predicate()));
                    prop_assert_ne!(earlier.decision(), later.decision());
                }
                AnomalyKind::Correlation => {
                    prop_assert!(earlier.predicate().intersect(later.predicate()).is_some());
                    prop_assert!(!earlier.predicate().is_subset_of(later.predicate()));
                    prop_assert!(!later.predicate().is_subset_of(earlier.predicate()));
                    prop_assert_ne!(earlier.decision(), later.decision());
                }
            }
        }
    }
}

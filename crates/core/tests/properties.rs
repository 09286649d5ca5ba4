//! Property-based verification of the FDD pipeline against brute-force
//! oracles on small, exhaustively enumerable schemas.
//!
//! Every semantics-preservation claim the paper makes is checked here:
//! construction equals first-match evaluation; simplification, shaping and
//! reduction change structure but never meaning; the comparison output is
//! sound (every reported region really disagrees, with the reported
//! decisions) and complete (every disagreeing packet is covered); and
//! Theorem 1's path bound holds.

use fw_core::{
    compare_firewalls, compare_shaped, direct_compare, equivalent, semi_isomorphic, shape_pair,
    ChangeImpact, Edit, Fdd,
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
    fn arb_firewall()(rules in prop::collection::vec(arb_rule(), 0..8), last in 0..4usize)
        -> Firewall
    {
        let schema = tiny_schema();
        let mut rules = rules;
        rules.push(Rule::catch_all(&schema, Decision::ALL[last]));
        Firewall::new(schema, rules).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn construction_equals_first_match(fw in arb_firewall()) {
        let fdd = Fdd::from_firewall(&fw).unwrap();
        fdd.validate().unwrap();
        prop_assert!(fdd.is_tree());
        for p in all_packets(fw.schema()) {
            prop_assert_eq!(fdd.decision_for(&p), fw.decision_for(&p), "at {}", p);
        }
    }

    #[test]
    fn theorem_1_path_bound(fw in arb_firewall()) {
        let simple = fw.to_simple_rules();
        let fdd = Fdd::from_firewall(&simple).unwrap();
        let n = simple.len() as u128;
        let d = simple.schema().len() as u32;
        prop_assert!(fdd.path_count() <= (2 * n - 1).pow(d),
            "paths {} exceed (2*{} - 1)^{}", fdd.path_count(), n, d);
    }

    #[test]
    fn transformations_preserve_semantics(fw in arb_firewall()) {
        let fdd = Fdd::from_firewall(&fw).unwrap();
        let simple = fdd.to_simple();
        let reduced = fdd.reduced();
        simple.validate().unwrap();
        reduced.validate().unwrap();
        prop_assert!(simple.is_simple());
        for p in all_packets(fw.schema()) {
            let expect = fw.decision_for(&p);
            prop_assert_eq!(simple.decision_for(&p), expect, "simple at {}", p);
            prop_assert_eq!(reduced.decision_for(&p), expect, "reduced at {}", p);
        }
        // Reduce-then-simplify round trip too.
        let back = reduced.to_simple();
        back.validate().unwrap();
        for p in all_packets(fw.schema()) {
            prop_assert_eq!(back.decision_for(&p), fw.decision_for(&p), "round trip at {}", p);
        }
    }

    #[test]
    fn shaping_preserves_semantics_and_aligns(fa in arb_firewall(), fb in arb_firewall()) {
        let mut a = Fdd::from_firewall(&fa).unwrap().to_simple();
        let mut b = Fdd::from_firewall(&fb).unwrap().to_simple();
        shape_pair(&mut a, &mut b).unwrap();
        prop_assert!(semi_isomorphic(&a, &b));
        a.validate().unwrap();
        b.validate().unwrap();
        prop_assert!(a.is_simple() && b.is_simple());
        for p in all_packets(fa.schema()) {
            prop_assert_eq!(a.decision_for(&p), fa.decision_for(&p), "a at {}", p);
            prop_assert_eq!(b.decision_for(&p), fb.decision_for(&p), "b at {}", p);
        }
    }

    #[test]
    fn comparison_sound_and_complete(fa in arb_firewall(), fb in arb_firewall()) {
        let ds = compare_firewalls(&fa, &fb).unwrap();
        // Regions are pairwise disjoint.
        for (i, x) in ds.iter().enumerate() {
            for y in &ds[i + 1..] {
                prop_assert!(x.predicate().intersect(y.predicate()).is_none());
            }
        }
        for p in all_packets(fa.schema()) {
            let (da, db) = (fa.decision_for(&p).unwrap(), fb.decision_for(&p).unwrap());
            match ds.iter().find(|d| d.predicate().matches(&p)) {
                Some(d) => {
                    prop_assert_eq!(d.left(), da, "left at {}", p);
                    prop_assert_eq!(d.right(), db, "right at {}", p);
                    prop_assert_ne!(da, db, "covered point must disagree: {}", p);
                }
                None => prop_assert_eq!(da, db, "uncovered point must agree: {}", p),
            }
        }
    }

    #[test]
    fn equivalence_matches_comparison(fa in arb_firewall(), fb in arb_firewall()) {
        let eq = equivalent(&fa, &fb).unwrap();
        let ds = compare_firewalls(&fa, &fb).unwrap();
        prop_assert_eq!(eq, ds.is_empty());
        prop_assert!(equivalent(&fa, &fa).unwrap());
    }

    #[test]
    fn raw_and_coalesced_discrepancies_cover_same_space(
        fa in arb_firewall(), fb in arb_firewall()
    ) {
        let mut a = Fdd::from_firewall(&fa).unwrap().to_simple();
        let mut b = Fdd::from_firewall(&fb).unwrap().to_simple();
        shape_pair(&mut a, &mut b).unwrap();
        let raw = compare_shaped(&a, &b).unwrap();
        let coalesced = fw_core::coalesce(raw.clone());
        prop_assert!(coalesced.len() <= raw.len());
        for p in all_packets(fa.schema()) {
            let in_raw = raw.iter().any(|d| d.predicate().matches(&p));
            let in_co = coalesced.iter().any(|d| d.predicate().matches(&p));
            prop_assert_eq!(in_raw, in_co, "at {}", p);
        }
    }

    #[test]
    fn direct_compare_matches_oracle(
        fa in arb_firewall(), fb in arb_firewall(), fc in arb_firewall(), fd in arb_firewall()
    ) {
        let four = [fa, fb, fc, fd];
        for vs in [&four[..3], &four[..]] {
            let ds = direct_compare(vs).unwrap();
            for p in all_packets(vs[0].schema()) {
                let decs: Vec<_> = vs.iter().map(|f| f.decision_for(&p).unwrap()).collect();
                let disagree = decs.windows(2).any(|w| w[0] != w[1]);
                match ds.iter().find(|d| d.predicate().matches(&p)) {
                    Some(d) => {
                        prop_assert!(disagree, "covered point must disagree: {}", p);
                        prop_assert_eq!(d.decisions(), &decs[..], "at {}", p);
                    }
                    None => prop_assert!(!disagree, "uncovered point must agree: {}", p),
                }
            }
        }
    }

    #[test]
    fn change_impact_matches_oracle(fw in arb_firewall(), rule in arb_rule(), idx in 0..4usize) {
        let index = idx.min(fw.len());
        let (after, impact) =
            ChangeImpact::of_edits(&fw, &[Edit::Insert { index, rule }]).unwrap();
        for p in all_packets(fw.schema()) {
            let changed = fw.decision_for(&p) != after.decision_for(&p);
            prop_assert_eq!(impact.affects(&p), changed, "at {}", p);
        }
        let total: u128 = all_packets(fw.schema())
            .iter()
            .filter(|p| fw.decision_for(p) != after.decision_for(p))
            .count() as u128;
        prop_assert_eq!(impact.affected_packets(), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn query_matches_enumeration(fw in arb_firewall(), rule in arb_rule()) {
        // Use the random rule's predicate as the query region.
        let region = rule.predicate().clone();
        for decision in Decision::ALL {
            let answer =
                fw_core::query_firewall(&fw, &region, decision).unwrap();
            // Answers are disjoint.
            for (i, x) in answer.iter().enumerate() {
                for y in &answer[i + 1..] {
                    prop_assert!(x.intersect(y).is_none());
                }
            }
            for p in all_packets(fw.schema()) {
                let expect =
                    region.matches(&p) && fw.decision_for(&p) == Some(decision);
                let got = answer.iter().any(|x| x.matches(&p));
                prop_assert_eq!(expect, got, "decision {} at {}", decision, p);
            }
        }
    }

    #[test]
    fn overwrite_region_changes_exactly_that_region(
        fa in arb_firewall(), fb in arb_firewall(), pick in 0..8usize
    ) {
        // Shape the pair; overwrite one disputed region on fa's diagram.
        let mut a = Fdd::from_firewall(&fa).unwrap().to_simple();
        let mut b = Fdd::from_firewall(&fb).unwrap().to_simple();
        shape_pair(&mut a, &mut b).unwrap();
        let ds = fw_core::coalesce(compare_shaped(&a, &b).unwrap());
        prop_assume!(!ds.is_empty());
        let d = &ds[pick % ds.len()];
        let target = d.right(); // fb's decision for that region
        let changed = a.overwrite_region(d.predicate(), target).unwrap();
        prop_assert!(changed > 0);
        for p in all_packets(fa.schema()) {
            let expect = if d.predicate().matches(&p) {
                Some(target)
            } else {
                fa.decision_for(&p)
            };
            prop_assert_eq!(a.decision_for(&p), expect, "at {}", p);
        }
    }

    #[test]
    fn shape_all_three_preserves_semantics(
        fa in arb_firewall(), fb in arb_firewall(), fc in arb_firewall()
    ) {
        let versions = [fa, fb, fc];
        let shaped = fw_core::shape_all(&versions).unwrap();
        prop_assert_eq!(shaped.len(), 3);
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            prop_assert!(semi_isomorphic(&shaped[i], &shaped[j]), "pair ({}, {})", i, j);
        }
        for (f, v) in shaped.iter().zip(&versions) {
            f.validate().unwrap();
            for p in all_packets(v.schema()) {
                prop_assert_eq!(f.decision_for(&p), v.decision_for(&p), "at {}", p);
            }
        }
    }

    #[test]
    fn incremental_builder_equals_batch(fw in arb_firewall()) {
        let mut b = fw_core::IncrementalBuilder::new(fw.schema().clone());
        for rule in fw.rules() {
            b.append(rule).unwrap();
        }
        let fdd = b.finish().unwrap();
        for p in all_packets(fw.schema()) {
            prop_assert_eq!(fdd.decision_for(&p), fw.decision_for(&p), "at {}", p);
        }
    }

    #[test]
    fn stats_match_structure(fw in arb_firewall()) {
        let fdd = Fdd::from_firewall(&fw).unwrap();
        let s = fdd.stats();
        prop_assert_eq!(s.nodes, fdd.node_count());
        prop_assert_eq!(s.paths, fdd.path_count());
        prop_assert_eq!(s.depth, fdd.depth());
        // Tree invariant: edges = nodes - 1.
        prop_assert_eq!(s.edges, s.nodes - 1);
        // Every DOT node appears in the export.
        let dot = fdd.to_dot();
        prop_assert_eq!(
            dot.matches("shape=circle").count() + dot.matches("shape=box").count(),
            s.nodes
        );
    }
}

/// A rule whose fields are each unconstrained half the time, so that rules
/// often contain later ones: the case the fast constructor's shadow rows
/// prune.
fn arb_shadowing_rule() -> impl Strategy<Value = Rule> {
    (arb_rule(), 0..8u32).prop_map(|(rule, wild)| {
        let schema = tiny_schema();
        let sets = schema
            .iter()
            .map(|(id, f)| {
                if wild & (1 << id.0) != 0 {
                    IntervalSet::from_interval(f.domain())
                } else {
                    rule.predicate().set(id).clone()
                }
            })
            .collect();
        Rule::new(Predicate::new(&schema, sets).unwrap(), rule.decision())
    })
}

prop_compose! {
    /// A policy of 1–11 rules, or of 60–150 (several bitset words) one time
    /// in four, with a catch-all appended three times in four: the rest
    /// are often not comprehensive.
    fn arb_construction_case()(
        large in 0..4u32,
        small in prop::collection::vec(arb_shadowing_rule(), 1..12),
        big in prop::collection::vec(arb_shadowing_rule(), 60..=150),
        catch_all in 0..4u32,
        last in 0..4usize,
    ) -> Firewall {
        let schema = tiny_schema();
        let mut rules = if large == 0 { big } else { small };
        if catch_all != 0 {
            rules.push(Rule::catch_all(&schema, Decision::ALL[last]));
        }
        Firewall::new(schema, rules).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fast constructor against the literal Fig. 7 one: the same
    /// canonical diagram, first-match on every packet, and failure exactly
    /// when the literal constructor fails, with a witness no rule matches.
    #[test]
    fn fast_construction_equals_reduced_literal(fw in arb_construction_case()) {
        match (Fdd::from_firewall(&fw), Fdd::from_firewall_fast(&fw)) {
            (Ok(literal), Ok(fast)) => {
                let reduced = literal.reduced();
                prop_assert!(fast.isomorphic(&reduced));
                prop_assert_eq!(fast.node_count(), reduced.node_count());
                for p in all_packets(fw.schema()) {
                    prop_assert_eq!(fast.decision_for(&p), fw.decision_for(&p), "at {}", p);
                }
            }
            (Err(_), Err(fw_core::CoreError::NotComprehensive { witness })) => {
                let mut values: Vec<u64> =
                    fw.schema().iter().map(|(_, f)| f.domain().lo()).collect();
                for pair in witness.split(", ") {
                    let (name, v) = pair.split_once('=').unwrap();
                    let (id, _) = fw.schema().iter().find(|(_, f)| f.name() == name).unwrap();
                    values[id.0] = v.parse().unwrap();
                }
                prop_assert_eq!(fw.decision_for(&Packet::new(values)), None, "{}", witness);
            }
            (literal, fast) => prop_assert!(
                false,
                "literal ok {}, fast {:?}",
                literal.is_ok(),
                fast.map(|f| f.node_count())
            ),
        }
    }
}

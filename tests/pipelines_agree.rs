//! Cross-validation of the comparison pipelines (paper-literal tree
//! shaping vs memoised synchronized product) and of the two multi-version
//! comparison modes (cross vs direct, §7.3), on generated workloads and an
//! exhaustive oracle.

use diverse_firewall::core::{
    compare_firewalls, compare_firewalls_via_shaping, cross_compare, direct_compare, project_pair,
};
use diverse_firewall::model::{paper, Firewall, Schema};
use diverse_firewall::synth::{perturb, PacketTrace, Synthesizer};
use proptest::prelude::*;

#[test]
fn literal_and_product_pipelines_agree_on_synthetic_pairs() {
    for seed in 0..4u64 {
        let a = Synthesizer::new(seed).firewall(12);
        let b = Synthesizer::new(seed + 100).firewall(12);
        let fast = compare_firewalls(&a, &b).unwrap();
        let literal = compare_firewalls_via_shaping(&a, &b).unwrap();
        // Same disagreement space, witness-checked both ways with decisions.
        for (xs, ys, tag) in [
            (&fast, &literal, "fast⊆literal"),
            (&literal, &fast, "literal⊆fast"),
        ] {
            for d in xs.iter() {
                let w = d.witness();
                assert!(
                    ys.iter().any(|e| e.predicate().matches(&w)
                        && e.left() == d.left()
                        && e.right() == d.right()),
                    "{tag} failed at witness {w} (seed {seed})"
                );
            }
        }
        // And both match ground truth on a trace.
        let trace = PacketTrace::random(a.schema().clone(), 5_000, seed);
        for p in trace.packets() {
            let differs = a.decision_for(p) != b.decision_for(p);
            let in_fast = fast.iter().any(|d| d.predicate().matches(p));
            let in_lit = literal.iter().any(|d| d.predicate().matches(p));
            assert_eq!(in_fast, differs, "fast at {p} (seed {seed})");
            assert_eq!(in_lit, differs, "literal at {p} (seed {seed})");
        }
    }
}

#[test]
fn perturbed_pairs_round_trip_through_both_pipelines() {
    let base = Synthesizer::new(42).firewall(15);
    let derived = perturb(&base, 30, 5);
    let fast = compare_firewalls(&base, &derived).unwrap();
    let literal = compare_firewalls_via_shaping(&base, &derived).unwrap();
    let trace = PacketTrace::random(base.schema().clone(), 5_000, 9);
    for p in trace.packets() {
        let differs = base.decision_for(p) != derived.decision_for(p);
        assert_eq!(fast.iter().any(|d| d.predicate().matches(p)), differs);
        assert_eq!(literal.iter().any(|d| d.predicate().matches(p)), differs);
    }
}

#[test]
fn cross_and_direct_comparison_agree_for_three_versions() {
    let versions = vec![
        Synthesizer::new(1).firewall(10),
        Synthesizer::new(2).firewall(10),
        Synthesizer::new(3).firewall(10),
    ];
    let cross = cross_compare(&versions).unwrap();
    let direct = direct_compare(&versions).unwrap();
    for ((i, j), pairwise) in cross {
        let projected = project_pair(&direct, i, j);
        // Same disputed space per pair.
        for d in &pairwise {
            let w = d.witness();
            assert!(
                projected.iter().any(|e| e.predicate().matches(&w)),
                "direct missed ({i},{j}) at {w}"
            );
        }
        for d in &projected {
            let w = d.witness();
            assert!(
                pairwise.iter().any(|e| e.predicate().matches(&w)),
                "cross missed ({i},{j}) at {w}"
            );
        }
    }
}

/// Cross comparison diffs every pair in one shared arena, and each pair's
/// regions are exactly its own comparison's; a failure is the first
/// failing pair's error in `(i, j)` order.
#[test]
fn cross_compare_matches_pairwise_and_reports_the_first_error() {
    let versions = vec![paper::team_a(), paper::team_b(), paper::team_a()];
    for ((i, j), ds) in cross_compare(&versions).unwrap() {
        assert_eq!(ds, compare_firewalls(&versions[i], &versions[j]).unwrap());
    }

    // Version 1 lacks its catch-all and version 3 covers six protocols
    // only. Pair (0, 1) is the first to fail in (i, j) order and the
    // slowest to (a 3,000-rule build); (0, 3) and (2, 3) fail fast on
    // version 3.
    let schema = Schema::tcp_ip();
    let small = Synthesizer::new(5).firewall(60);
    let large = Synthesizer::new(6).firewall(3_000);
    let gap = Firewall::new(schema.clone(), large.rules()[..large.len() - 1].to_vec()).unwrap();
    let narrow = Firewall::parse(schema, "proto=0-5 -> accept\n").unwrap();
    let versions = vec![small.clone(), gap, small, narrow];
    let first = compare_firewalls(&versions[0], &versions[1]).unwrap_err();
    assert_eq!(cross_compare(&versions), Err(first));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the synchronized product and the paper-literal shaping
    /// pipeline describe the same disagreement space with the same
    /// decisions (shaping may partition regions differently, so agreement
    /// is witness-checked both ways).
    #[test]
    fn product_and_shaping_pipelines_agree_on_random_pairs(
        seed in 0u64..5_000,
        rules in 2usize..14,
    ) {
        let a = Synthesizer::new(seed).firewall(rules);
        let b = Synthesizer::new(seed.wrapping_add(77_777)).firewall(rules);
        let product = compare_firewalls(&a, &b).unwrap();
        let shaped = compare_firewalls_via_shaping(&a, &b).unwrap();
        for (xs, ys, tag) in [
            (&product, &shaped, "product⊆shaping"),
            (&shaped, &product, "shaping⊆product"),
        ] {
            for d in xs.iter() {
                let w = d.witness();
                prop_assert!(
                    ys.iter().any(|e| e.predicate().matches(&w)
                        && e.left() == d.left()
                        && e.right() == d.right()),
                    "{} failed at witness {} (seed {})", tag, w, seed
                );
            }
        }
    }
}

/// Exhaustive ground-truth oracle: on a tiny 2-field schema every packet
/// is enumerable, so every pipeline is checked cell-by-cell against
/// first-match evaluation ([`Firewall::decision_for`]).
#[test]
fn all_pipelines_match_exhaustive_oracle_on_tiny_schema() {
    use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};

    let schema = Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap();
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];

    // A deterministic family of tiny policies: every combination of two
    // interval rules plus a catch-all, swept over offsets and decisions.
    let mut policies: Vec<Firewall> = Vec::new();
    for k in 0..12u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let (b_lo, b_hi) = ((k * 3) % 6, ((k * 3) % 6) + 1);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let d3 = decisions[((k + 2) % 3) as usize];
        let text =
            format!("a={a_lo}-{a_hi}, b={b_lo}-{b_hi} -> {d1}\nb={b_lo} -> {d2}\n* -> {d3}\n");
        policies.push(Firewall::parse(schema.clone(), &text).unwrap());
    }

    let mut checked_pairs = 0usize;
    for (i, fa) in policies.iter().enumerate() {
        for fb in policies.iter().skip(i + 1) {
            let serial = compare_firewalls(fa, fb).unwrap();
            let shaped = compare_firewalls_via_shaping(fa, fb).unwrap();
            // Brute force over all 64 packets: membership in the reported
            // regions must equal actual disagreement, and the reported
            // decisions must be the actual decisions.
            for a in 0..8u64 {
                for b in 0..8u64 {
                    let p = Packet::new(vec![a, b]);
                    let (da, db) = (fa.decision_for(&p).unwrap(), fb.decision_for(&p).unwrap());
                    let differs = da != db;
                    for (ds, tag) in [(&serial, "serial"), (&shaped, "shaping")] {
                        let hit = ds.iter().find(|d| d.predicate().matches(&p));
                        assert_eq!(hit.is_some(), differs, "{tag} at {p}");
                        if let Some(d) = hit {
                            assert_eq!((d.left(), d.right()), (da, db), "{tag} at {p}");
                        }
                    }
                }
            }
            checked_pairs += 1;
        }
    }
    assert_eq!(checked_pairs, policies.len() * (policies.len() - 1) / 2);
}

#[test]
fn bdd_baseline_agrees_with_fdd_pipeline_on_equivalence() {
    use diverse_firewall::bdd::{diff, BddManager, DecisionBdds, ZERO};
    for seed in 0..3u64 {
        let a = Synthesizer::new(seed + 10).firewall(10);
        let b = Synthesizer::new(seed + 400).firewall(10);
        let fdd_equal = fw_core::equivalent(&a, &b).unwrap();
        let mut m = BddManager::new(a.schema().clone());
        let ea = DecisionBdds::from_firewall(&mut m, &a);
        let eb = DecisionBdds::from_firewall(&mut m, &b);
        let bdd_equal = diff(&mut m, &ea, &eb) == ZERO;
        assert_eq!(fdd_equal, bdd_equal, "seed {seed}");
        // Identity case through the BDD engine.
        let eaa = DecisionBdds::from_firewall(&mut m, &a);
        assert_eq!(diff(&mut m, &ea, &eaa), ZERO);
    }
}

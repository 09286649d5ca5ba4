//! The box-arithmetic redundancy engine, kept as the oracle for phase 3 on
//! the canonical arena.
//!
//! `fw_gen` classifies and removes redundant rules, and `fw_diverse`
//! verifies a final firewall, by comparing roots in one `ConsArena`. The
//! modules below hold the engine they replaced, unchanged: box subtraction
//! with its unit tests, each rule's effective portion, the residual check
//! over the rules below, the remove-and-re-analyse loop, and the
//! containment check of `verify_final`. The tests assert the same
//! `RedundancyReport` (index and kind), byte-identical output of
//! `remove_redundant_rules`, and the same `verify_final` verdict.

use diverse_firewall::diverse::{method1, method2, verify_final, Comparison, Resolution};
use diverse_firewall::gen::{analyze_redundancy, remove_redundant_rules};
use diverse_firewall::model::{paper, Decision, FieldId, Firewall, Rule};
use diverse_firewall::synth::{perturb, university_average, university_large, Synthesizer};

/// Hyper-rectangle ("box") arithmetic over rule predicates.
///
/// The redundancy analysis of paper ref \[19] works with the *effective
/// portion* of a rule: the part of its predicate not already matched by
/// higher-priority rules. Predicates are axis-aligned boxes (one value set
/// per field), and the only operation needed beyond `fw-model`'s field-wise
/// intersection is **box subtraction**, which decomposes a difference of
/// boxes into at most `d` disjoint boxes:
///
/// ```text
/// B \ P = ⋃ₖ  (B₁∩P₁) × … × (Bₖ₋₁∩Pₖ₋₁) × (Bₖ∖Pₖ) × Bₖ₊₁ × … × B_d
/// ```
mod boxes {
    use diverse_firewall::model::{FieldId, Predicate};

    /// Subtracts predicate `p` from box `b`, returning disjoint boxes covering
    /// exactly `b ∖ p`.
    pub fn subtract(b: &Predicate, p: &Predicate) -> Vec<Predicate> {
        debug_assert_eq!(b.arity(), p.arity());
        if b.intersect(p).is_none() {
            return vec![b.clone()];
        }
        let mut out = Vec::new();
        let mut prefix = b.clone(); // fields < k already intersected with p
        for k in 0..b.arity() {
            let id = FieldId(k);
            let residue = b.set(id).subtract(p.set(id));
            if !residue.is_empty() {
                let piece = prefix
                    .with_field(id, residue)
                    .expect("non-empty residue keeps the predicate valid");
                out.push(piece);
            }
            let overlap = b.set(id).intersect(p.set(id));
            if overlap.is_empty() {
                // b and p are disjoint on field k: handled by the early return,
                // but guard anyway — nothing below k can intersect.
                return out;
            }
            prefix = prefix.with_field(id, overlap).expect("non-empty overlap");
        }
        out
    }

    /// Subtracts `p` from every box in `boxes`, keeping the result disjoint.
    pub fn subtract_all(boxes: Vec<Predicate>, p: &Predicate) -> Vec<Predicate> {
        boxes.into_iter().flat_map(|b| subtract(&b, p)).collect()
    }

    mod tests {
        use super::*;
        use diverse_firewall::model::{FieldDef, FieldId, Interval, IntervalSet, Packet, Schema};

        fn schema() -> Schema {
            Schema::new(vec![
                FieldDef::new("x", 3).unwrap(),
                FieldDef::new("y", 3).unwrap(),
            ])
            .unwrap()
        }

        fn boxed(x: (u64, u64), y: (u64, u64)) -> Predicate {
            Predicate::any(&schema())
                .with_field(
                    FieldId(0),
                    IntervalSet::from_interval(Interval::new(x.0, x.1).unwrap()),
                )
                .unwrap()
                .with_field(
                    FieldId(1),
                    IntervalSet::from_interval(Interval::new(y.0, y.1).unwrap()),
                )
                .unwrap()
        }

        fn check_subtract(b: &Predicate, p: &Predicate) {
            let pieces = subtract(b, p);
            // Disjoint pieces.
            for (i, a) in pieces.iter().enumerate() {
                for c in &pieces[i + 1..] {
                    assert!(a.intersect(c).is_none(), "pieces overlap");
                }
            }
            // Exact membership.
            for x in 0..8u64 {
                for y in 0..8u64 {
                    let pt = Packet::new(vec![x, y]);
                    let expect = b.matches(&pt) && !p.matches(&pt);
                    let got = pieces.iter().any(|q| q.matches(&pt));
                    assert_eq!(expect, got, "at ({x},{y})");
                }
            }
        }

        #[test]
        fn subtract_inner_box() {
            check_subtract(&boxed((0, 7), (0, 7)), &boxed((2, 4), (3, 5)));
        }

        #[test]
        fn subtract_disjoint_box() {
            let b = boxed((0, 2), (0, 2));
            let p = boxed((5, 7), (5, 7));
            assert_eq!(subtract(&b, &p), vec![b.clone()]);
            check_subtract(&b, &p);
        }

        #[test]
        fn subtract_covering_box_is_empty() {
            assert!(subtract(&boxed((2, 4), (3, 5)), &boxed((0, 7), (0, 7))).is_empty());
        }

        #[test]
        fn subtract_partial_overlaps() {
            check_subtract(&boxed((0, 5), (2, 7)), &boxed((3, 7), (0, 4)));
            check_subtract(&boxed((0, 7), (1, 1)), &boxed((4, 4), (0, 7)));
        }

        #[test]
        fn subtract_multi_run_sets() {
            let b = Predicate::any(&schema())
                .with_field(
                    FieldId(0),
                    IntervalSet::from_intervals(vec![
                        Interval::new(0, 1).unwrap(),
                        Interval::new(5, 7).unwrap(),
                    ]),
                )
                .unwrap();
            let p = boxed((1, 6), (2, 5));
            check_subtract(&b, &p);
        }

        #[test]
        fn subtract_all_chains() {
            let space = vec![boxed((0, 7), (0, 7))];
            let after = subtract_all(space, &boxed((0, 3), (0, 7)));
            let after = subtract_all(after, &boxed((4, 7), (0, 3)));
            // Remaining: x in 4..=7, y in 4..=7.
            for x in 0..8u64 {
                for y in 0..8u64 {
                    let pt = Packet::new(vec![x, y]);
                    let expect = x >= 4 && y >= 4;
                    assert_eq!(after.iter().any(|q| q.matches(&pt)), expect, "at ({x},{y})");
                }
            }
        }
    }
}

/// The box engine's redundancy analysis and removal loop, and the box
/// containment check of `verify_final`.
mod oracle {
    use super::boxes::{subtract, subtract_all};
    use diverse_firewall::core::CoreError;
    use diverse_firewall::diverse::{Comparison, DiverseError, Resolution};
    use diverse_firewall::gen::{RedundancyKind, RedundancyReport};
    use diverse_firewall::model::{Decision, Firewall, Predicate};

    /// The effective portion of rule `index`: disjoint boxes of packets that
    /// reach the rule (match it, and no higher-priority rule).
    pub fn effective_boxes(fw: &Firewall, index: usize) -> Vec<Predicate> {
        let mut boxes = vec![fw.rules()[index].predicate().clone()];
        for earlier in &fw.rules()[..index] {
            boxes = subtract_all(boxes, earlier.predicate());
            if boxes.is_empty() {
                break;
            }
        }
        boxes
    }

    /// Whether rule `index` is redundant (upward or downward), i.e. whether
    /// removing it preserves the policy's semantics.
    pub fn is_redundant(fw: &Firewall, index: usize) -> Option<RedundancyKind> {
        let boxes = effective_boxes(fw, index);
        if boxes.is_empty() {
            return Some(RedundancyKind::Upward);
        }
        let decision = fw.rules()[index].decision();
        let below = &fw.rules()[index + 1..];
        for b in boxes {
            if !residual_decides(below, &b, decision) {
                return None;
            }
        }
        Some(RedundancyKind::Downward)
    }

    /// Whether the rule sequence `rules` maps **every** packet of box `b` to
    /// `decision` under first-match semantics.
    fn residual_decides(
        rules: &[diverse_firewall::model::Rule],
        b: &Predicate,
        decision: Decision,
    ) -> bool {
        match rules.first() {
            None => false, // uncovered packets exist: removal would break comprehensiveness
            Some(r) => {
                if let Some(hit) = b.intersect(r.predicate()) {
                    if r.decision() != decision {
                        return false;
                    }
                    // The matched part is settled; recurse on the remainder.
                    let _ = hit;
                    subtract(b, r.predicate())
                        .iter()
                        .all(|rest| residual_decides(&rules[1..], rest, decision))
                } else {
                    residual_decides(&rules[1..], b, decision)
                }
            }
        }
    }

    /// Classifies every rule of `fw` as redundant or essential.
    pub fn analyze_redundancy(fw: &Firewall) -> RedundancyReport {
        let redundant = (0..fw.len())
            .filter_map(|i| is_redundant(fw, i).map(|k| (i, k)))
            .collect();
        RedundancyReport { redundant }
    }

    /// Removes redundant rules until none remain, re-analysing after each
    /// removal.
    pub fn remove_redundant_rules(fw: &Firewall) -> Result<Firewall, CoreError> {
        let mut current = fw.clone();
        loop {
            // Prefer removing later rules first: their removal never changes
            // which packets reach earlier rules, keeping passes cheap.
            let found = (0..current.len())
                .rev()
                .find_map(|i| is_redundant(&current, i).map(|_| i));
            match found {
                Some(i) if current.len() > 1 => {
                    current = current.with_rule_removed(i)?;
                }
                _ => return Ok(current),
            }
        }
    }

    /// Checks that `final_fw` satisfies the resolution: the final firewall's
    /// discrepancies against each version must lie entirely inside the
    /// resolved regions where that version was wrong.
    pub fn verify_final(
        cmp: &Comparison,
        res: &Resolution,
        final_fw: &Firewall,
    ) -> Result<(), DiverseError> {
        for (i, version) in cmp.versions().iter().enumerate() {
            let diff = diverse_firewall::core::compare_firewalls(version, final_fw)?;
            for d in diff {
                // The disagreement must be justified by resolved regions in
                // which version i was wrong and the final decision is the
                // agreed one. Comparison output may coalesce across several
                // resolved regions, so test containment in their *union* via
                // box subtraction.
                let mut remainder = vec![d.predicate().clone()];
                for e in res.entries() {
                    if e.discrepancy().decisions()[i] != e.decision() && d.right() == e.decision() {
                        remainder = subtract_all(remainder, e.discrepancy().predicate());
                        if remainder.is_empty() {
                            break;
                        }
                    }
                }
                let justified = remainder.is_empty();
                if !justified {
                    return Err(DiverseError::VerificationFailed {
                        message: format!(
                            "final firewall deviates from version {i} on an unresolved region: {}",
                            d.display(final_fw.schema())
                        ),
                    });
                }
            }
            // Conversely, every region version i got wrong must actually differ.
            for e in res.entries() {
                if e.discrepancy().decisions()[i] != e.decision() {
                    let w = e.discrepancy().witness();
                    if final_fw.decision_for(&w) != Some(e.decision()) {
                        return Err(DiverseError::VerificationFailed {
                            message: format!(
                                "final firewall ignores the resolution at witness {w}"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// The paper's Table 4 resolution: discard, accept, discard.
fn table4(cmp: &Comparison) -> Resolution {
    Resolution::by(cmp, |d| {
        let proto = d.predicate().set(FieldId(4));
        let src = d.predicate().set(FieldId(1));
        if proto.contains(paper::UDP)
            && !proto.contains(paper::TCP)
            && !src.contains(paper::MALICIOUS_LO)
        {
            Decision::Accept
        } else {
            Decision::Discard
        }
    })
}

/// The paper's two teams under Table 4, and avg(42) with its 10%
/// perturbations (seeds 8 and 9) at 2 and 3 teams under majority: the
/// `smoke` bin's `finalize` inputs.
fn resolved_comparisons() -> Vec<(Comparison, Resolution)> {
    let paper = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
    let mut cases = vec![(table4(&paper), paper)];
    let avg = university_average();
    for teams in [2, 3] {
        let mut versions = vec![avg.clone()];
        versions.extend([8, 9].map(|seed| perturb(&avg, 10, seed)));
        versions.truncate(teams);
        let cmp = Comparison::of(versions).unwrap();
        cases.push((Resolution::by_majority(&cmp), cmp));
    }
    cases.into_iter().map(|(res, cmp)| (cmp, res)).collect()
}

/// Method 2's input on version `base`: the correction rule of every
/// discrepancy that version decided wrongly, inserted on top in turn.
fn method2_input(cmp: &Comparison, res: &Resolution, base: usize) -> Firewall {
    let mut fw = cmp.versions()[base].clone();
    for e in res.entries() {
        if e.discrepancy().decisions()[base] != e.decision() {
            let rule = Rule::new(e.discrepancy().predicate().clone(), e.decision());
            fw = fw.with_rule_inserted(0, rule).unwrap();
        }
    }
    fw
}

#[test]
fn report_and_removal_match_the_box_engine() {
    let mut policies = vec![
        ("paper A".to_owned(), paper::team_a()),
        ("paper B".to_owned(), paper::team_b()),
        ("avg(42)".to_owned(), university_average()),
    ];
    for (k, (cmp, res)) in resolved_comparisons().iter().enumerate().skip(1) {
        for base in 0..cmp.versions().len() {
            let name = format!("avg(42) method 2 input, case {k}, base {base}");
            policies.push((name, method2_input(cmp, res, base)));
        }
    }
    for seed in [3, 11, 29] {
        for n in [20, 40, 60] {
            let synth = Synthesizer::new(seed).firewall(n);
            policies.push((format!("synth seed {seed} n={n}"), synth));
            let uncontained = Synthesizer::new(seed).uncontained_firewall(n);
            policies.push((format!("uncontained seed {seed} n={n}"), uncontained));
        }
    }
    for (name, fw) in &policies {
        assert_eq!(
            analyze_redundancy(fw),
            oracle::analyze_redundancy(fw),
            "{name}: report"
        );
        let got = remove_redundant_rules(fw).unwrap();
        let want = oracle::remove_redundant_rules(fw).unwrap();
        assert_eq!(got.to_string(), want.to_string(), "{name}: removal");
        assert_eq!(got, want, "{name}: removal");
    }
}

#[test]
fn report_matches_the_box_engine_on_661_rules() {
    let large = university_large();
    let report = analyze_redundancy(&large);
    assert_eq!(report, oracle::analyze_redundancy(&large));
    assert_eq!(report.redundant.len(), 608);
}

#[test]
fn verify_final_verdicts_match_the_box_engine() {
    for (cmp, res) in resolved_comparisons() {
        let mut finals: Vec<(String, Firewall)> = Vec::new();
        for (i, version) in cmp.versions().iter().enumerate() {
            finals.push((format!("version {i}"), version.clone()));
        }
        let m1 = method1(&cmp, &res).unwrap();
        for base in 0..cmp.versions().len() {
            finals.push((
                format!("method 2 base {base}"),
                method2(&cmp, &res, base).unwrap(),
            ));
        }
        // Method 1's output with one rule flipped or dropped, for every rule
        // of a short output and every fifth of a longer one.
        let step = if m1.len() <= 12 { 1 } else { 5 };
        for i in (0..m1.len()).step_by(step) {
            let rule = &m1.rules()[i];
            let flipped = match rule.decision() {
                Decision::Accept => Decision::Discard,
                _ => Decision::Accept,
            };
            let flip = m1.with_rule_replaced(i, rule.with_decision(flipped));
            finals.push((format!("method 1, rule {i} flipped"), flip.unwrap()));
            if let Ok(dropped) = m1.with_rule_removed(i) {
                finals.push((format!("method 1, rule {i} dropped"), dropped));
            }
        }
        finals.push(("method 1".to_owned(), m1));
        let (mut passed, mut failed) = (0, 0);
        for (name, fw) in &finals {
            let got = verify_final(&cmp, &res, fw);
            let want = oracle::verify_final(&cmp, &res, fw);
            assert_eq!(
                got.is_ok(),
                want.is_ok(),
                "{name}: {got:?} against {want:?}"
            );
            if got.is_ok() {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        assert!(
            passed > cmp.versions().len() && failed > 0,
            "{passed} pass, {failed} fail"
        );
    }
}

/// A resolution of one comparison, given with another: every entry point
/// rejects it, where indexing the missing version's decision used to
/// panic, and where the box check alone reads a failed verification.
#[test]
fn a_resolution_of_another_comparison_is_a_mismatch() {
    use diverse_firewall::diverse::{finalize, DiverseError};
    let (a, b) = (paper::team_a(), paper::team_b());
    let res = Resolution::by_majority(&Comparison::of(vec![a.clone(), b.clone()]).unwrap());
    let triple = Comparison::of(vec![a.clone(), b, a.clone()]).unwrap();
    let same = Comparison::of(vec![a.clone(), a.clone()]).unwrap();
    fn mismatch<T>(r: Result<T, DiverseError>) -> bool {
        matches!(r, Err(DiverseError::ResolutionMismatch { .. }))
    }
    for cmp in [&triple, &same] {
        let last = cmp.versions().len() - 1;
        assert!(mismatch(finalize(cmp, &res)));
        assert!(mismatch(method1(cmp, &res)));
        assert!(mismatch(method2(cmp, &res, last)));
        assert!(mismatch(verify_final(cmp, &res, &a)));
    }
    assert!(matches!(
        oracle::verify_final(&same, &res, &a),
        Err(DiverseError::VerificationFailed { .. })
    ));
}

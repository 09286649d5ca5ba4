//! Generating the final, unanimously agreed firewall from a resolution —
//! the two methods of paper §6, plus the self-check that they agree.

use fw_core::{ConsArena, ConsId, Fdd};
use fw_model::{Firewall, Rule};

use crate::{Comparison, DiverseError, Resolution};

/// Version `base` with a correction rule on top for each discrepancy it
/// decided wrongly, the last one first (§6.2, Step 1): the resolved
/// function, as the disputed regions are disjoint. `res` must resolve
/// `cmp`: its entries must be `cmp`'s discrepancies, in order.
fn corrected(cmp: &Comparison, res: &Resolution, base: usize) -> Result<Firewall, DiverseError> {
    let mismatch = |message| Err(DiverseError::ResolutionMismatch { message });
    let entries = res.entries().iter().map(|e| e.discrepancy());
    if !entries.eq(cmp.discrepancies()) {
        return mismatch("the resolution's entries are not the comparison's discrepancies".into());
    }
    let Some(version) = cmp.versions().get(base) else {
        let versions = cmp.versions().len();
        return mismatch(format!("base version {base} out of range 0..{versions}"));
    };
    let wrong = res.entries().iter().rev();
    let wrong = wrong.filter(|e| e.discrepancy().decisions()[base] != e.decision());
    let corrections = wrong.map(|e| Rule::new(e.discrepancy().predicate().clone(), e.decision()));
    let rules = corrections.chain(version.rules().iter().cloned()).collect();
    Ok(Firewall::new(version.schema().clone(), rules)?)
}

/// **Method 1** (§6.1): correct version 0's diagram per the resolution,
/// then generate a compact rule sequence from the corrected diagram.
///
/// The paper corrects the terminals of a shaped diagram; here version 0
/// with [`method2`]'s correction rules on top is built by fast
/// construction, which is the same function. Rule generation reduces its
/// input first, so its output depends on that function alone.
///
/// # Errors
///
/// Returns [`DiverseError::ResolutionMismatch`] if `res` does not resolve
/// `cmp`; propagates construction and generation errors.
pub fn method1(cmp: &Comparison, res: &Resolution) -> Result<Firewall, DiverseError> {
    let corrected = Fdd::from_firewall_fast(&corrected(cmp, res, 0)?)?;
    Ok(fw_gen::generate_rules(&corrected)?)
}

/// **Method 2** (§6.2): prepend to version `base` the correction rules for
/// every discrepancy that version decided incorrectly, then remove
/// redundant rules.
///
/// # Errors
///
/// Returns [`DiverseError::ResolutionMismatch`] if `res` does not resolve
/// `cmp` or `base` is out of range; propagates compaction errors.
pub fn method2(cmp: &Comparison, res: &Resolution, base: usize) -> Result<Firewall, DiverseError> {
    Ok(fw_gen::remove_redundant_rules(&corrected(cmp, res, base)?)?)
}

/// Runs both methods, checks that they agree with each other and with the
/// resolution, and returns the Method 1 firewall.
///
/// The check is the workflow's safety net: Method 1's output and Method
/// 2's on every base must intern to the resolved function's root (as in
/// [`verify_final`]) in one arena.
///
/// # Errors
///
/// Returns [`DiverseError::ResolutionMismatch`] if `res` does not resolve
/// `cmp`, and [`DiverseError::VerificationFailed`] naming the first output
/// that deviates and a region where it does; propagates generation errors.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_diverse::DiverseError> {
/// use fw_diverse::{finalize, Comparison, Resolution};
/// use fw_model::{paper, Decision};
///
/// let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()])?;
/// let res = Resolution::by_majority(&cmp);
/// let agreed = finalize(&cmp, &res)?;
/// assert!(agreed.is_comprehensive_syntactically());
/// # Ok(())
/// # }
/// ```
pub fn finalize(cmp: &Comparison, res: &Resolution) -> Result<Firewall, DiverseError> {
    let corrected = Fdd::from_firewall_fast(&corrected(cmp, res, 0)?)?;
    let m1 = fw_gen::generate_rules(&corrected)?;
    let mut arena = ConsArena::new(corrected.schema().clone());
    let resolved = arena.intern_fdd(&corrected)?;
    check(&mut arena, resolved, &m1, "method 1")?;
    for base in 0..cmp.versions().len() {
        let (m2, what) = (method2(cmp, res, base)?, format!("method 2 (base {base})"));
        check(&mut arena, resolved, &m2, &what)?;
    }
    Ok(m1)
}

/// Checks that `fw` interns to `want` in `arena`, else names a region where
/// it deviates.
fn check(
    arena: &mut ConsArena,
    want: ConsId,
    fw: &Firewall,
    what: &str,
) -> Result<(), DiverseError> {
    let root = arena.intern_fdd(&Fdd::from_firewall_fast(fw)?)?;
    if root == want {
        return Ok(());
    }
    let region = arena.diff(want, root)?.swap_remove(0);
    let message = format!(
        "{what} deviates from the resolution on {}",
        region.display(fw.schema())
    );
    Err(DiverseError::VerificationFailed { message })
}

/// Runs [`finalize`] and lowers the agreed firewall into an executable
/// matcher (`fw-exec`) — the deployment step: the one policy every team
/// signed off on, compiled for serving.
///
/// # Errors
///
/// As for [`finalize`], plus lowering errors surfaced as
/// [`DiverseError::Exec`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_diverse::DiverseError> {
/// use fw_diverse::{compile_final, Comparison, Resolution};
/// use fw_model::paper;
///
/// let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()])?;
/// let res = Resolution::by_majority(&cmp);
/// let matcher = compile_final(&cmp, &res)?;
/// assert!(matcher.stats().max_depth <= paper::team_a().schema().len());
/// # Ok(())
/// # }
/// ```
pub fn compile_final(
    cmp: &Comparison,
    res: &Resolution,
) -> Result<fw_exec::CompiledFdd, DiverseError> {
    let agreed = finalize(cmp, res)?;
    Ok(fw_exec::CompiledFdd::from_firewall(&agreed)?)
}

/// Checks that `final_fw` satisfies the resolution: resolved regions map to
/// the agreed decisions, and undisputed packets keep the common decision.
///
/// The check is exact: once `res` is known to resolve `cmp`, that is the
/// resolved function, so `final_fw` must intern to the root of the
/// resolved regions on top of version 0 in one arena.
///
/// # Errors
///
/// Returns [`DiverseError::ResolutionMismatch`] if `res` does not resolve
/// `cmp`, and [`DiverseError::VerificationFailed`] naming a region where
/// `final_fw` deviates from the resolution.
pub fn verify_final(
    cmp: &Comparison,
    res: &Resolution,
    final_fw: &Firewall,
) -> Result<(), DiverseError> {
    let corrected = Fdd::from_firewall_fast(&corrected(cmp, res, 0)?)?;
    let mut arena = ConsArena::new(corrected.schema().clone());
    let resolved = arena.intern_fdd(&corrected)?;
    check(&mut arena, resolved, final_fw, "final firewall")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, FieldId, Packet};

    fn paper_setup() -> (Comparison, Resolution) {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
        // The paper's Table 4: accept only the "UDP to port 25 from
        // non-malicious hosts" region; discard the other two.
        let res = Resolution::by(&cmp, |d| {
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
        });
        (cmp, res)
    }

    #[test]
    fn methods_1_and_2_agree_on_paper_example() {
        let (cmp, res) = paper_setup();
        let m1 = method1(&cmp, &res).unwrap();
        let m2a = method2(&cmp, &res, 0).unwrap(); // Table 6 analogue
        let m2b = method2(&cmp, &res, 1).unwrap(); // Table 7 analogue
        assert!(fw_core::equivalent(&m1, &m2a).unwrap());
        assert!(fw_core::equivalent(&m1, &m2b).unwrap());
    }

    /// Method 1 as published: version 0 shaped with all the others, its
    /// terminals overwritten per resolved region, and rules generated.
    fn method1_literal(cmp: &Comparison, res: &Resolution) -> Firewall {
        let mut corrected = fw_core::shape_all(cmp.versions()).unwrap().swap_remove(0);
        for e in res.entries() {
            corrected
                .overwrite_region(e.discrepancy().predicate(), e.decision())
                .unwrap();
        }
        fw_gen::generate_rules(&corrected).unwrap()
    }

    #[test]
    fn method1_emits_the_literal_routes_rules() {
        let mut cases = vec![paper_setup()];
        let avg = fw_synth::university_average();
        for teams in [2, 3] {
            let mut versions = vec![avg.clone()];
            versions.extend([8, 9].map(|seed| fw_synth::perturb(&avg, 10, seed)));
            versions.truncate(teams);
            let cmp = Comparison::of(versions).unwrap();
            let res = Resolution::by_majority(&cmp);
            cases.push((cmp, res));
        }
        for (cmp, res) in &cases {
            assert_eq!(
                method1(cmp, res).unwrap().to_string(),
                method1_literal(cmp, res).to_string()
            );
        }
    }

    #[test]
    fn final_firewall_implements_table_4() {
        let (cmp, res) = paper_setup();
        let agreed = finalize(&cmp, &res).unwrap();
        // Discrepancy 1 resolved discard: malicious -> mail SMTP TCP.
        let d1 = Packet::new(vec![
            0,
            paper::MALICIOUS_LO,
            paper::MAIL_SERVER,
            25,
            paper::TCP,
        ]);
        assert_eq!(agreed.decision_for(&d1), Some(Decision::Discard));
        // Discrepancy 2 resolved accept: non-malicious UDP port 25.
        let d2 = Packet::new(vec![0, 7, paper::MAIL_SERVER, 25, paper::UDP]);
        assert_eq!(agreed.decision_for(&d2), Some(Decision::Accept));
        // Discrepancy 3 resolved discard: non-malicious, port != 25.
        let d3 = Packet::new(vec![0, 7, paper::MAIL_SERVER, 80, paper::TCP]);
        assert_eq!(agreed.decision_for(&d3), Some(Decision::Discard));
        // Undisputed regions keep the common decision.
        let out = Packet::new(vec![1, 3, 4, 5, paper::TCP]);
        assert_eq!(agreed.decision_for(&out), Some(Decision::Accept));
        let mal = Packet::new(vec![0, paper::MALICIOUS_HI, 9, 80, paper::TCP]);
        assert_eq!(agreed.decision_for(&mal), Some(Decision::Discard));
    }

    #[test]
    fn resolving_entirely_for_one_team_returns_that_design() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
        let res = Resolution::by_version(&cmp, 1).unwrap();
        let agreed = finalize(&cmp, &res).unwrap();
        assert!(fw_core::equivalent(&agreed, &paper::team_b()).unwrap());
        // And method 2 based on the correct team removes nothing of value.
        let m2 = method2(&cmp, &res, 1).unwrap();
        assert!(fw_core::equivalent(&m2, &paper::team_b()).unwrap());
    }

    #[test]
    fn method2_adds_corrections_only_for_wrong_base() {
        let (cmp, res) = paper_setup();
        // Team A is wrong on 2 regions, Team B on 1; correction counts
        // (before compaction) differ accordingly — after compaction both
        // are equivalent, but the base-B build starts from fewer inserts.
        let m2a = method2(&cmp, &res, 0).unwrap();
        let m2b = method2(&cmp, &res, 1).unwrap();
        assert!(fw_core::equivalent(&m2a, &m2b).unwrap());
    }

    #[test]
    fn compiled_final_serves_the_resolution() {
        let (cmp, res) = paper_setup();
        let agreed = finalize(&cmp, &res).unwrap();
        let matcher = compile_final(&cmp, &res).unwrap();
        // The compiled matcher decides exactly as the agreed rule sequence,
        // including on the three resolved regions' witnesses.
        for e in res.entries() {
            let w = e.discrepancy().witness();
            assert_eq!(matcher.classify(&w), e.decision());
        }
        let trace = fw_synth::PacketTrace::biased(&agreed, 1_500, 0.5, 17);
        for p in trace.packets() {
            assert_eq!(Some(matcher.classify(p)), agreed.decision_for(p));
        }
    }

    #[test]
    fn verification_catches_bad_finals() {
        let (cmp, res) = paper_setup();
        // Deliberately wrong final: just Team A's original design.
        let err = verify_final(&cmp, &res, &paper::team_a());
        assert!(matches!(err, Err(DiverseError::VerificationFailed { .. })));
    }

    #[test]
    fn three_team_workflow() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b(), paper::team_a()]).unwrap();
        let res = Resolution::by_majority(&cmp);
        let agreed = finalize(&cmp, &res).unwrap();
        // Majority (A, A vs B) resolves every region as accept.
        assert!(fw_core::equivalent(&agreed, &paper::team_a()).unwrap());
    }

    #[test]
    fn out_of_range_base_rejected() {
        let (cmp, res) = paper_setup();
        assert!(matches!(
            method2(&cmp, &res, 9),
            Err(DiverseError::ResolutionMismatch { .. })
        ));
    }
}

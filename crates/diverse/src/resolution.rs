//! The **resolution phase** (paper §2 phase 3, §6): assign one agreed
//! decision to every discrepancy the comparison phase found.

use fw_model::Decision;
use serde::{Deserialize, Serialize};

use crate::{Comparison, DiverseError};

/// One resolved discrepancy: the disputed region plus the decision all
/// teams agreed on (a row of the paper's Table 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedDiscrepancy {
    discrepancy: fw_core::MultiDiscrepancy,
    decision: Decision,
}

impl ResolvedDiscrepancy {
    /// The disputed region and the per-version decisions.
    pub fn discrepancy(&self) -> &fw_core::MultiDiscrepancy {
        &self.discrepancy
    }

    /// The agreed decision.
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// Version indices that had decided this region *incorrectly* (their
    /// decision differs from the agreed one).
    pub fn incorrect_versions(&self) -> Vec<usize> {
        self.discrepancy
            .decisions()
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != self.decision)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A complete resolution: one agreed decision per discrepancy, in the
/// comparison's discrepancy order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resolution {
    entries: Vec<ResolvedDiscrepancy>,
    /// How many versions the comparison held.
    versions: usize,
}

impl Resolution {
    /// Resolves a comparison with one explicit decision per discrepancy
    /// (same order as [`Comparison::discrepancies`]).
    ///
    /// # Errors
    ///
    /// Returns [`DiverseError::ResolutionMismatch`] if `decisions.len()`
    /// differs from the number of discrepancies.
    pub fn new(cmp: &Comparison, decisions: Vec<Decision>) -> Result<Resolution, DiverseError> {
        if decisions.len() != cmp.discrepancies().len() {
            return Err(DiverseError::ResolutionMismatch {
                message: format!(
                    "{} decisions supplied for {} discrepancies",
                    decisions.len(),
                    cmp.discrepancies().len()
                ),
            });
        }
        let entries = cmp
            .discrepancies()
            .iter()
            .cloned()
            .zip(decisions)
            .map(|(discrepancy, decision)| ResolvedDiscrepancy {
                discrepancy,
                decision,
            })
            .collect();
        Ok(Resolution {
            entries,
            versions: cmp.versions().len(),
        })
    }

    /// Resolves every discrepancy with a chooser function over the disputed
    /// region and the versions' decisions.
    pub fn by<F>(cmp: &Comparison, mut choose: F) -> Resolution
    where
        F: FnMut(&fw_core::MultiDiscrepancy) -> Decision,
    {
        Resolution {
            entries: cmp
                .discrepancies()
                .iter()
                .cloned()
                .map(|d| {
                    let decision = choose(&d);
                    ResolvedDiscrepancy {
                        discrepancy: d,
                        decision,
                    }
                })
                .collect(),
            versions: cmp.versions().len(),
        }
    }

    /// Resolves every discrepancy in favour of version `i` — the "one team
    /// made all the correct decisions" shortcut of §6.
    ///
    /// # Errors
    ///
    /// Returns [`DiverseError::ResolutionMismatch`] if `i` is out of range.
    pub fn by_version(cmp: &Comparison, i: usize) -> Result<Resolution, DiverseError> {
        if i >= cmp.versions().len() {
            return Err(DiverseError::ResolutionMismatch {
                message: format!("version {i} out of range 0..{}", cmp.versions().len()),
            });
        }
        Ok(Resolution::by(cmp, |d| d.decisions()[i]))
    }

    /// Resolves every discrepancy by majority vote among the versions,
    /// breaking ties toward `discard` (fail-safe: when teams split evenly,
    /// prefer blocking).
    pub fn by_majority(cmp: &Comparison) -> Resolution {
        Resolution::by(cmp, |d| {
            let mut counts: Vec<(Decision, usize)> = Vec::new();
            for &dec in d.decisions() {
                match counts.iter_mut().find(|(k, _)| *k == dec) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((dec, 1)),
                }
            }
            let max = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
            let mut winners: Vec<Decision> = counts
                .into_iter()
                .filter(|&(_, c)| c == max)
                .map(|(d, _)| d)
                .collect();
            if winners.len() == 1 {
                winners.pop().expect("len checked")
            } else if let Some(&d) = winners.iter().find(|d| !d.permits()) {
                d
            } else {
                winners[0]
            }
        })
    }

    /// The resolved entries, in discrepancy order.
    pub fn entries(&self) -> &[ResolvedDiscrepancy] {
        &self.entries
    }

    /// Whether version `i` decided every discrepancy correctly — if so, the
    /// final firewall can simply be that team's design (§6). `None` for a
    /// version the comparison did not hold.
    pub fn version_is_correct(&self, i: usize) -> Option<bool> {
        (i < self.versions).then(|| {
            self.entries
                .iter()
                .all(|e| e.discrepancy().decisions().get(i) == Some(&e.decision()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    fn cmp() -> Comparison {
        Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap()
    }

    #[test]
    fn explicit_resolution_checks_arity() {
        let c = cmp();
        assert!(Resolution::new(&c, vec![Decision::Accept]).is_err());
        let r = Resolution::new(
            &c,
            vec![Decision::Accept, Decision::Accept, Decision::Accept],
        )
        .unwrap();
        assert_eq!(r.entries().len(), 3);
    }

    #[test]
    fn by_version_takes_that_versions_decisions() {
        let c = cmp();
        // Every Table 3 discrepancy has A=accept, B=discard.
        let ra = Resolution::by_version(&c, 0).unwrap();
        assert!(ra
            .entries()
            .iter()
            .all(|e| e.decision() == Decision::Accept));
        assert_eq!(ra.version_is_correct(0), Some(true));
        assert_eq!(ra.version_is_correct(1), Some(false));
        let rb = Resolution::by_version(&c, 1).unwrap();
        assert!(rb
            .entries()
            .iter()
            .all(|e| e.decision() == Decision::Discard));
        assert!(Resolution::by_version(&c, 5).is_err());
    }

    #[test]
    fn majority_breaks_ties_toward_discard() {
        let c = cmp();
        let r = Resolution::by_majority(&c);
        // Two versions, always split 1–1: discard wins each tie.
        assert!(r
            .entries()
            .iter()
            .all(|e| e.decision() == Decision::Discard));
    }

    #[test]
    fn majority_with_three_versions() {
        let c = Comparison::of(vec![paper::team_a(), paper::team_b(), paper::team_b()]).unwrap();
        let r = Resolution::by_majority(&c);
        // B's discard outvotes A's accept on every discrepancy.
        assert!(r
            .entries()
            .iter()
            .all(|e| e.decision() == Decision::Discard));
        assert_eq!(r.version_is_correct(1), Some(true));
    }

    #[test]
    fn a_version_the_comparison_lacks_is_neither_correct_nor_not() {
        let r = Resolution::by_majority(&cmp());
        assert_eq!(r.version_is_correct(1), Some(true));
        assert_eq!(r.version_is_correct(2), None);
        assert_eq!(r.version_is_correct(usize::MAX), None);
        // With nothing to resolve, every version held is correct.
        let same = Comparison::of(vec![paper::team_a(), paper::team_a()]).unwrap();
        let r = Resolution::by_majority(&same);
        assert!(r.entries().is_empty());
        assert_eq!(r.version_is_correct(1), Some(true));
        assert_eq!(r.version_is_correct(2), None);
    }

    #[test]
    fn incorrect_versions_identified() {
        let c = cmp();
        // Paper's Table 4: discard, accept, discard — A wrong on 1 and 3,
        // B wrong on 2. Order of discrepancies may vary, so check by shape.
        let r = Resolution::by(&c, |d| {
            // Resolve the UDP-to-port-25 region as accept, the rest discard
            // (matching the paper's Table 4).
            let proto = d.predicate().set(fw_model::FieldId(4));
            let src = d.predicate().set(fw_model::FieldId(1));
            if proto.contains(paper::UDP)
                && !proto.contains(paper::TCP)
                && !src.contains(paper::MALICIOUS_LO)
            {
                Decision::Accept
            } else {
                Decision::Discard
            }
        });
        let mut a_wrong = 0;
        let mut b_wrong = 0;
        for e in r.entries() {
            for v in e.incorrect_versions() {
                if v == 0 {
                    a_wrong += 1;
                } else {
                    b_wrong += 1;
                }
            }
        }
        assert_eq!(a_wrong, 2, "Team A wrong on discrepancies 1 and 3");
        assert_eq!(b_wrong, 1, "Team B wrong on discrepancy 2");
    }
}

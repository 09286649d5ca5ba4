//! Output checks, run outside every timed region.
//!
//! Verdicts are checked against the first-match scan
//! (`Firewall::decision_for`) of the policy the benchmark itself holds for
//! that point of the run, never against state read back from the program.
//! Any error or mismatch counts as one failed operation.

use fw_core::Discrepancy;
use fw_model::{Decision, Firewall, Packet};

/// Operations attempted, checked and failed in one run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checker {
    /// Operations the workload issued.
    pub attempted: u64,
    /// Operations whose output was checked.
    pub checked: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    first_error: Option<String>,
}

impl Checker {
    /// Counts one issued operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts the current operation as failed with `why`.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why.into());
        }
    }

    /// The first failure's description, if any.
    pub fn first_error(&self) -> Option<&str> {
        self.first_error.as_deref()
    }

    /// Checks one operation's verdicts against `reference`'s first-match
    /// scan: one failure if any verdict differs or one is missing.
    pub fn verdicts(&mut self, reference: &Firewall, packets: &[Packet], verdicts: &[Decision]) {
        self.checked += 1;
        if packets.len() != verdicts.len() {
            self.fail(format!(
                "{} verdicts for {} packets",
                verdicts.len(),
                packets.len()
            ));
            return;
        }
        if let Some((p, &got)) = packets
            .iter()
            .zip(verdicts)
            .find(|&(p, &got)| reference.decision_for(p) != Some(got))
        {
            self.fail(format!(
                "packet {:?}: served {got:?}, first-match scan says {:?}",
                p.values(),
                reference.decision_for(p)
            ));
        }
    }

    /// Checks one diff report over a packet sample: a packet lies inside a
    /// reported region exactly when the two policies' first-match scans
    /// disagree on it, and that region names both decisions.
    pub fn discrepancies(
        &mut self,
        left: &Firewall,
        right: &Firewall,
        regions: &[Discrepancy],
        sample: &[Packet],
    ) {
        self.checked += 1;
        for p in sample {
            let (l, r) = (left.decision_for(p), right.decision_for(p));
            let inside = regions.iter().find(|d| d.predicate().matches(p));
            let ok = match inside {
                Some(d) => l != r && l == Some(d.left()) && r == Some(d.right()),
                None => l == r,
            };
            if !ok {
                self.fail(format!(
                    "packet {:?}: scans give {l:?}/{r:?}, report region {:?}",
                    p.values(),
                    inside.map(|d| (d.left(), d.right()))
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn one_flipped_verdict_is_exactly_one_failure() {
        let fw = paper::team_a();
        let packets = fw_synth::PacketTrace::biased(&fw, 200, 0.5, 3)
            .packets()
            .to_vec();
        let mut verdicts: Vec<Decision> = packets
            .iter()
            .map(|p| fw.decision_for(p).expect("comprehensive"))
            .collect();
        let mut c = Checker::default();
        c.attempt();
        c.verdicts(&fw, &packets, &verdicts);
        assert_eq!((c.attempted, c.checked, c.failed), (1, 1, 0));

        verdicts[17] = verdicts[17].inverted();
        c.attempt();
        c.verdicts(&fw, &packets, &verdicts);
        assert_eq!((c.attempted, c.checked, c.failed), (2, 2, 1));
        assert!(c.first_error().is_some());

        c.attempt();
        c.verdicts(&fw, &packets, &verdicts[..10]);
        assert_eq!(c.failed, 2);
    }

    #[test]
    fn a_missing_or_wrong_region_fails_the_diff_check() {
        let (a, b) = (paper::team_a(), paper::team_b());
        let regions = fw_core::diff_firewalls(&a, &b).unwrap().discrepancies();
        let sample = fw_synth::PacketTrace::biased(&a, 500, 0.2, 9)
            .packets()
            .to_vec();
        let mut c = Checker::default();
        c.discrepancies(&a, &b, &regions, &sample);
        assert_eq!(c.failed, 0);
        c.discrepancies(&a, &b, &regions[1..], &sample);
        assert_eq!(c.failed, 1);
        c.discrepancies(&a, &a, &regions, &sample);
        assert_eq!(c.failed, 2);
    }
}

//! The **comparison phase** (paper §2, phase 2): detect all functional
//! discrepancies among the versions the design teams produced.

use fw_core::{Discrepancy, MultiDiscrepancy};
use fw_model::{Firewall, Packet};
use serde::{Deserialize, Serialize};

use crate::DiverseError;

/// The outcome of comparing `N ≥ 2` independently designed versions: every
/// packet region on which the versions do not all agree, with each
/// version's decision (§7.3's *direct comparison*).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_diverse::DiverseError> {
/// use fw_diverse::Comparison;
/// use fw_model::paper;
///
/// let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()])?;
/// assert_eq!(cmp.discrepancies().len(), 3); // the paper's Table 3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    versions: Vec<Firewall>,
    discrepancies: Vec<MultiDiscrepancy>,
}

impl Comparison {
    /// Runs the comparison phase over the given versions.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`fw_core::CoreError`] for mismatched schemas,
    /// non-comprehensive versions, or fewer than two versions.
    pub fn of(versions: Vec<Firewall>) -> Result<Comparison, DiverseError> {
        let discrepancies = fw_core::direct_compare(&versions)?;
        Ok(Comparison {
            versions,
            discrepancies,
        })
    }

    /// The compared versions, in team order.
    pub fn versions(&self) -> &[Firewall] {
        &self.versions
    }

    /// All functional discrepancies, each with one decision per version.
    pub fn discrepancies(&self) -> &[MultiDiscrepancy] {
        &self.discrepancies
    }

    /// Whether the teams produced semantically identical designs.
    pub fn versions_agree(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// The decision every version assigns to `packet`, in team order.
    pub fn decisions_for(&self, packet: &Packet) -> Vec<Option<fw_model::Decision>> {
        self.versions
            .iter()
            .map(|v| v.decision_for(packet))
            .collect()
    }

    /// The pairwise discrepancies between versions `i` and `j` implied by
    /// the `N`-way comparison.
    pub fn pair(&self, i: usize, j: usize) -> Vec<Discrepancy> {
        fw_core::project_pair(&self.discrepancies, i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn two_team_comparison_matches_table_3() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
        assert_eq!(cmp.discrepancies().len(), 3);
        assert!(!cmp.versions_agree());
        for d in cmp.discrepancies() {
            assert_eq!(d.decisions().len(), 2);
        }
        // Projection equals the pairwise pipeline.
        let pair = cmp.pair(0, 1);
        assert_eq!(pair.len(), 3);
    }

    #[test]
    fn identical_versions_agree() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_a()]).unwrap();
        assert!(cmp.versions_agree());
    }

    #[test]
    fn decisions_for_reports_all_versions() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
        let w = cmp.discrepancies()[0].witness();
        let decs = cmp.decisions_for(&w);
        assert_eq!(decs.len(), 2);
        assert_ne!(decs[0], decs[1]);
    }

    #[test]
    fn single_version_rejected() {
        assert!(Comparison::of(vec![paper::team_a()]).is_err());
    }
}

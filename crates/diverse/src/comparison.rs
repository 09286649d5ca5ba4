//! The **comparison phase** (paper §2, phase 2): detect all functional
//! discrepancies among the versions the design teams produced.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use fw_core::{CoreError, Discrepancy, MultiDiscrepancy};
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

/// Cross comparison of all version pairs (§7.3), fanned out across threads —
/// each of the `N·(N−1)/2` pairwise pipelines is independent, so up to one
/// worker per available core takes the next pair until none is left.
///
/// # Errors
///
/// Exactly [`fw_core::cross_compare`]'s: each pair's result is kept in its
/// own slot and the first error in `(i, j)` order is returned, whichever
/// thread finished first.
pub fn cross_compare_parallel(
    versions: &[Firewall],
) -> Result<fw_core::PairwiseDiscrepancies, DiverseError> {
    if versions.len() < 2 || versions.windows(2).any(|w| w[0].schema() != w[1].schema()) {
        // `cross_compare`'s own argument check, and its error.
        return Ok(fw_core::cross_compare(versions)?);
    }
    let pairs: Vec<(usize, usize)> = (0..versions.len())
        .flat_map(|i| ((i + 1)..versions.len()).map(move |j| (i, j)))
        .collect();
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(pairs.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<Vec<Discrepancy>, CoreError>>> =
        pairs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(i, j)) = pairs.get(k) else { break };
                let result = fw_core::compare_firewalls(&versions[i], &versions[j]);
                slots[k]
                    .set(result)
                    .expect("the cursor hands out each pair once");
            });
        }
    });
    let mut out = Vec::with_capacity(pairs.len());
    for (pair, slot) in pairs.into_iter().zip(slots) {
        let result = slot.into_inner().expect("every pair was compared");
        out.push((pair, result?));
    }
    Ok(out)
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

    /// The fan-out must return exactly `cross_compare`'s result: the
    /// same pairs in the same order on success, and the same error —
    /// the first in `(i, j)` order — however the threads are scheduled.
    #[test]
    fn parallel_cross_compare_matches_serial() {
        let versions = vec![paper::team_a(), paper::team_b(), paper::team_a()];
        let serial = fw_core::cross_compare(&versions).unwrap();
        assert_eq!(cross_compare_parallel(&versions).unwrap(), serial);

        // Version 1 lacks its catch-all and version 3 covers six protocols
        // only. Pair (0, 1) is the first to fail in (i, j) order and the
        // slowest to (a 3,000-rule build); (0, 3) and (2, 3) fail fast on
        // version 3, so a first-to-finish rule would report their error.
        let schema = fw_model::Schema::tcp_ip();
        let small = fw_synth::Synthesizer::new(5).firewall(60);
        let large = fw_synth::Synthesizer::new(6).firewall(3_000);
        let gap = Firewall::new(schema.clone(), large.rules()[..large.len() - 1].to_vec()).unwrap();
        let narrow = Firewall::parse(schema, "proto=0-5 -> accept\n").unwrap();
        let versions = vec![small.clone(), gap, small, narrow];
        let serial = fw_core::cross_compare(&versions).map_err(DiverseError::from);
        let first = fw_core::compare_firewalls(&versions[0], &versions[1]).unwrap_err();
        assert_eq!(serial, Err(DiverseError::Core(first)));
        for _ in 0..20 {
            assert_eq!(cross_compare_parallel(&versions), serial);
        }
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
        assert!(cross_compare_parallel(&[paper::team_a()]).is_err());
    }
}

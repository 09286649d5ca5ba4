//! [`DesignSession`]: a guided, named-team walk through the three phases of
//! diverse firewall design (§2) with the bookkeeping a real review needs.
//!
//! The functional API ([`crate::Comparison`], [`crate::Resolution`],
//! [`crate::finalize`]) stays available for programmatic use; the session
//! wraps it with team names, per-team score cards and ready-to-print
//! reports.

use fw_model::{Decision, Firewall};
use serde::{Deserialize, Serialize};

use crate::report::{comparison_report, resolution_report};
use crate::{finalize, Comparison, DiverseError, Resolution};

/// Per-team accounting after resolution: how many disputed regions the
/// team decided correctly/incorrectly — the paper's post-mortem view
/// ("in 82 functional discrepancies, the original firewall made incorrect
/// decisions", §8.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TeamScore {
    /// Team name.
    pub name: String,
    /// Disputed regions this team had decided as later agreed.
    pub correct: usize,
    /// Disputed regions this team had decided otherwise.
    pub incorrect: usize,
}

/// The three-phase workflow with named teams.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_diverse::DiverseError> {
/// use fw_diverse::DesignSession;
/// use fw_model::paper;
///
/// let session = DesignSession::new()
///     .team("Team A", paper::team_a())
///     .team("Team B", paper::team_b())
///     .compare()?;
/// assert_eq!(session.comparison().discrepancies().len(), 3);
///
/// let resolved = session.resolve_by_majority();
/// let agreed = resolved.finalize()?;
/// assert!(agreed.is_comprehensive_syntactically());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DesignSession {
    names: Vec<String>,
    versions: Vec<Firewall>,
    jobs: usize,
}

impl Default for DesignSession {
    fn default() -> DesignSession {
        DesignSession {
            names: Vec::new(),
            versions: Vec::new(),
            jobs: 1,
        }
    }
}

impl DesignSession {
    /// Starts an empty session (the design phase).
    pub fn new() -> DesignSession {
        DesignSession::default()
    }

    /// Registers a team's design.
    #[must_use]
    pub fn team(mut self, name: impl Into<String>, version: Firewall) -> DesignSession {
        self.names.push(name.into());
        self.versions.push(version);
        self
    }

    /// Sets the thread budget for the comparison phase: `0` uses all
    /// available cores, `1` (the default) runs serially, `n > 1` runs the
    /// sharded parallel comparison engine across `n` workers. The
    /// discrepancy set is identical either way.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> DesignSession {
        self.jobs = jobs;
        self
    }

    /// Number of registered teams.
    pub fn team_count(&self) -> usize {
        self.versions.len()
    }

    /// Runs the comparison phase (across the configured [`jobs`] budget).
    ///
    /// [`jobs`]: DesignSession::jobs
    ///
    /// # Errors
    ///
    /// As for [`Comparison::of`] (needs ≥ 2 teams with one schema).
    pub fn compare(self) -> Result<ComparedSession, DiverseError> {
        let comparison = if self.jobs == 1 {
            Comparison::of(self.versions)?
        } else {
            Comparison::of_with_jobs(self.versions, self.jobs)?
        };
        Ok(ComparedSession {
            names: self.names,
            comparison,
        })
    }
}

/// A session after the comparison phase.
#[derive(Debug)]
pub struct ComparedSession {
    names: Vec<String>,
    comparison: Comparison,
}

impl ComparedSession {
    /// The underlying comparison.
    pub fn comparison(&self) -> &Comparison {
        &self.comparison
    }

    /// Team names in registration order.
    pub fn team_names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// The Table-3-style discrepancy report with team names.
    pub fn report(&self) -> String {
        comparison_report(&self.comparison, &self.team_names())
    }

    /// Resolves by majority vote (ties toward discard).
    pub fn resolve_by_majority(self) -> ResolvedSession {
        let resolution = Resolution::by_majority(&self.comparison);
        ResolvedSession {
            names: self.names,
            comparison: self.comparison,
            resolution,
        }
    }

    /// Resolves in favour of the named team.
    ///
    /// # Errors
    ///
    /// Returns [`DiverseError::ResolutionMismatch`] for an unknown name.
    pub fn resolve_for_team(self, name: &str) -> Result<ResolvedSession, DiverseError> {
        let idx = self.names.iter().position(|n| n == name).ok_or_else(|| {
            DiverseError::ResolutionMismatch {
                message: format!("unknown team `{name}`"),
            }
        })?;
        let resolution = Resolution::by_version(&self.comparison, idx)?;
        Ok(ResolvedSession {
            names: self.names,
            comparison: self.comparison,
            resolution,
        })
    }

    /// Resolves with explicit decisions, in discrepancy order.
    ///
    /// # Errors
    ///
    /// As for [`Resolution::new`].
    pub fn resolve_with(self, decisions: Vec<Decision>) -> Result<ResolvedSession, DiverseError> {
        let resolution = Resolution::new(&self.comparison, decisions)?;
        Ok(ResolvedSession {
            names: self.names,
            comparison: self.comparison,
            resolution,
        })
    }
}

/// A session after the resolution phase.
#[derive(Debug)]
pub struct ResolvedSession {
    names: Vec<String>,
    comparison: Comparison,
    resolution: Resolution,
}

impl ResolvedSession {
    /// The underlying comparison.
    pub fn comparison(&self) -> &Comparison {
        &self.comparison
    }

    /// The resolution in effect.
    pub fn resolution(&self) -> &Resolution {
        &self.resolution
    }

    /// The Table-4-style resolution report with team names.
    pub fn report(&self) -> String {
        let names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        resolution_report(&self.resolution, &names)
    }

    /// Per-team score cards.
    pub fn scores(&self) -> Vec<TeamScore> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let incorrect = self
                    .resolution
                    .entries()
                    .iter()
                    .filter(|e| e.discrepancy().decisions()[i] != e.decision())
                    .count();
                TeamScore {
                    name: name.clone(),
                    correct: self.resolution.entries().len() - incorrect,
                    incorrect,
                }
            })
            .collect()
    }

    /// Generates the final agreed firewall via both §6 methods with
    /// cross-verification.
    ///
    /// # Errors
    ///
    /// As for [`finalize`].
    pub fn finalize(&self) -> Result<Firewall, DiverseError> {
        finalize(&self.comparison, &self.resolution)
    }

    /// Finalizes and lowers the agreed firewall into an executable matcher,
    /// ready to serve traffic via `fw_exec::CompiledFdd::classify_batch`.
    ///
    /// # Errors
    ///
    /// As for [`crate::compile_final`].
    pub fn compile(&self) -> Result<fw_exec::CompiledFdd, DiverseError> {
        crate::compile_final(&self.comparison, &self.resolution)
    }

    /// Finalizes the agreed firewall and wraps it in a hot-swap serving
    /// handle: the session's answer to "the policy is agreed, now keep it
    /// running while administrators keep editing it". Subsequent edits go
    /// through `fw_exec::LiveMatcher::apply_edits` (incremental FDD
    /// maintenance + impact analysis + compile + atomic image swap).
    ///
    /// # Errors
    ///
    /// As for [`finalize`] and `fw_exec::LiveMatcher::new`.
    pub fn serve(&self) -> Result<fw_exec::LiveMatcher, DiverseError> {
        let agreed = finalize(&self.comparison, &self.resolution)?;
        Ok(fw_exec::LiveMatcher::new(agreed)?)
    }

    /// Applies `edits` to the finalized agreed firewall and compiles the
    /// edited policy's image — the one-shot form of the serving loop, for
    /// callers that manage image publication themselves.
    ///
    /// Returns the edited policy, its image, the change impact and the
    /// image's [`fw_exec::RecompileStats`].
    ///
    /// # Errors
    ///
    /// As for [`finalize`], `fw_core::ChangeImpact::of_edits` and
    /// `fw_exec::CompiledFdd::compile`.
    pub fn recompile(
        &self,
        edits: &[fw_core::Edit],
    ) -> Result<
        (
            Firewall,
            fw_exec::CompiledFdd,
            fw_core::ChangeImpact,
            fw_exec::RecompileStats,
        ),
        DiverseError,
    > {
        let agreed = finalize(&self.comparison, &self.resolution)?;
        let (after, impact) = fw_core::ChangeImpact::of_edits(&agreed, edits)?;
        let fdd = fw_core::Fdd::from_firewall_fast(&after)?.reduced();
        let image = fw_exec::CompiledFdd::compile(&fdd)?;
        let stats = fw_exec::RecompileStats {
            nodes_fresh: image.node_count(),
        };
        Ok((after, image, impact, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    fn compared() -> ComparedSession {
        DesignSession::new()
            .team("A", paper::team_a())
            .team("B", paper::team_b())
            .compare()
            .unwrap()
    }

    #[test]
    fn session_walks_all_three_phases() {
        let s = compared();
        assert!(s.report().contains("functional discrepancies: 3"));
        let resolved = s.resolve_by_majority();
        assert!(resolved.report().contains("resolved discrepancies: 3"));
        let fw = resolved.finalize().unwrap();
        assert!(fw.is_comprehensive_syntactically());
    }

    #[test]
    fn session_compiles_to_executable_matcher() {
        let resolved = compared().resolve_by_majority();
        let agreed = resolved.finalize().unwrap();
        let matcher = resolved.compile().unwrap();
        let trace = fw_synth::PacketTrace::random(agreed.schema().clone(), 1_000, 23);
        let batch = matcher.classify_batch(trace.packets());
        for (p, d) in trace.packets().iter().zip(batch) {
            assert_eq!(Some(d), agreed.decision_for(p));
        }
    }

    #[test]
    fn session_serves_and_recompiles() {
        let resolved = compared().resolve_by_majority();
        let agreed = resolved.finalize().unwrap();

        // One-shot recompile: flip the agreed policy's first rule and check
        // the new image tracks the edited semantics.
        let flip = agreed.rules()[0].with_decision(agreed.rules()[0].decision().inverted());
        let edits = [fw_core::Edit::Replace {
            index: 0,
            rule: flip,
        }];
        let (after, image, impact, stats) = resolved.recompile(&edits).unwrap();
        assert!(!impact.is_noop());
        assert_eq!(image, fw_exec::CompiledFdd::from_firewall(&after).unwrap());
        assert_eq!(stats.nodes_fresh, image.node_count());
        let trace = fw_synth::PacketTrace::biased(&agreed, 1_000, 0.3, 17);
        for p in trace.packets() {
            assert_eq!(Some(image.classify(p)), after.decision_for(p));
        }

        // The serving handle applies the same edits behind an atomic swap.
        let live = resolved.serve().unwrap();
        assert_eq!(live.policy(), agreed);
        let report = live.apply_edits(&edits).unwrap();
        assert!(report.swapped);
        for p in trace.packets() {
            assert_eq!(Some(live.classify(p)), after.decision_for(p));
        }
    }

    #[test]
    fn resolve_for_team_by_name() {
        let resolved = compared().resolve_for_team("B").unwrap();
        let fw = resolved.finalize().unwrap();
        assert!(fw_core::equivalent(&fw, &paper::team_b()).unwrap());
        assert!(compared().resolve_for_team("Nobody").is_err());
    }

    #[test]
    fn scores_count_incorrect_regions() {
        // Majority with two teams ties toward discard = B's decisions.
        let resolved = compared().resolve_by_majority();
        let scores = resolved.scores();
        assert_eq!(scores[0].name, "A");
        assert_eq!(scores[0].incorrect, 3);
        assert_eq!(scores[1].incorrect, 0);
        assert_eq!(scores[1].correct, 3);
    }

    #[test]
    fn explicit_decisions_checked() {
        let s = compared();
        assert!(matches!(
            s.resolve_with(vec![Decision::Accept]),
            Err(DiverseError::ResolutionMismatch { .. })
        ));
    }

    #[test]
    fn parallel_session_matches_serial() {
        let serial = compared();
        let parallel = DesignSession::new()
            .team("A", paper::team_a())
            .team("B", paper::team_b())
            .jobs(4)
            .compare()
            .unwrap();
        assert_eq!(
            serial.comparison().discrepancies(),
            parallel.comparison().discrepancies()
        );
    }

    #[test]
    fn too_few_teams_rejected() {
        assert!(DesignSession::new()
            .team("A", paper::team_a())
            .compare()
            .is_err());
    }
}

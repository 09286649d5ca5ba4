//! Pairwise rule-anomaly classification, after Al-Shaer & Hamed (the
//! paper's ref \[1], *Discovery of Policy Anomalies in Distributed
//! Firewalls*).
//!
//! The diverse-design paper positions these anomaly checks as
//! complementary, per-version hygiene for the **design phase**: each team
//! can lint its own draft before the cross-team comparison. The classic
//! taxonomy for an ordered pair `(ri, rj)` with `i < j`:
//!
//! * **shadowing** — `rj ⊆ ri` with different decisions: `rj` never takes
//!   effect and disagrees with what happens instead (an error);
//! * **generalisation** — `rj ⊃ ri` with different decisions: `rj` is a
//!   broader fallback for `ri` (usually intentional, worth reviewing);
//! * **correlation** — the rules properly overlap (neither contains the
//!   other) with different decisions: packets in the overlap depend on
//!   rule order (warning);
//! * **redundancy** — `rj ⊆ ri` with the same decision (`rj` is dead
//!   weight), or `rj ⊃ ri` with the same decision and nothing between
//!   them claiming the gap (see [`crate::analyze_redundancy`] for the
//!   exact, whole-policy notion).

use fw_model::Firewall;
use serde::{Deserialize, Serialize};

/// The classic pairwise anomaly classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Later rule fully shadowed by an earlier rule with a different
    /// decision — it can never fire, and disagrees with what fires instead.
    Shadowing,
    /// Later rule strictly generalises an earlier rule with a different
    /// decision — a fallback pattern, order-sensitive.
    Generalization,
    /// Proper overlap with different decisions — the overlap's fate
    /// depends on rule order.
    Correlation,
    /// Later rule fully covered by an earlier rule with the same decision.
    PairwiseRedundancy,
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AnomalyKind::Shadowing => "shadowing",
            AnomalyKind::Generalization => "generalization",
            AnomalyKind::Correlation => "correlation",
            AnomalyKind::PairwiseRedundancy => "pairwise-redundancy",
        };
        f.write_str(s)
    }
}

/// One detected anomaly between an earlier and a later rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Anomaly {
    /// Index of the earlier (higher-priority) rule.
    pub earlier: usize,
    /// Index of the later rule.
    pub later: usize,
    /// The anomaly class.
    pub kind: AnomalyKind,
}

/// Classifies every ordered rule pair of `fw` against the [`AnomalyKind`]
/// taxonomy. Quadratic in the rule count, exact on general (multi-interval)
/// predicates.
///
/// Note the trailing catch-all of a comprehensive policy *generalises*
/// every narrower rule with a different decision by design; callers
/// typically filter `later == fw.len() - 1` when the last rule is the
/// default.
pub fn analyze_anomalies(fw: &Firewall) -> Vec<Anomaly> {
    let mut out = Vec::new();
    let rules = fw.rules();
    for i in 0..rules.len() {
        for j in (i + 1)..rules.len() {
            let (ri, rj) = (&rules[i], &rules[j]);
            let (pi, pj) = (ri.predicate(), rj.predicate());
            if pi.intersect(pj).is_none() {
                continue;
            }
            let j_in_i = pj.is_subset_of(pi);
            let i_in_j = pi.is_subset_of(pj);
            let same = ri.decision() == rj.decision();
            let kind = match (j_in_i, i_in_j, same) {
                (true, _, false) => Some(AnomalyKind::Shadowing),
                (true, _, true) => Some(AnomalyKind::PairwiseRedundancy),
                (false, true, false) => Some(AnomalyKind::Generalization),
                (false, false, false) => Some(AnomalyKind::Correlation),
                _ => None, // overlapping, same decision, neither contained
            };
            if let Some(kind) = kind {
                out.push(Anomaly {
                    earlier: i,
                    later: j,
                    kind,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{FieldDef, Schema};

    fn fw(text: &str) -> Firewall {
        let schema = Schema::new(vec![
            FieldDef::new("a", 3).unwrap(),
            FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap();
        Firewall::parse(schema, text).unwrap()
    }

    fn kinds(f: &Firewall) -> Vec<(usize, usize, AnomalyKind)> {
        analyze_anomalies(f)
            .into_iter()
            .map(|a| (a.earlier, a.later, a.kind))
            .collect()
    }

    #[test]
    fn shadowing_detected() {
        let f = fw("a=0-5 -> accept\na=2-4 -> discard\n* -> discard\n");
        assert!(kinds(&f).contains(&(0, 1, AnomalyKind::Shadowing)));
    }

    #[test]
    fn generalization_detected() {
        let f = fw("a=2-4 -> discard\na=0-5 -> accept\n* -> discard\n");
        assert!(kinds(&f).contains(&(0, 1, AnomalyKind::Generalization)));
    }

    #[test]
    fn correlation_detected() {
        let f = fw("a=0-4, b=0-7 -> accept\na=2-6, b=0-7 -> discard\n* -> accept\n");
        assert!(kinds(&f).contains(&(0, 1, AnomalyKind::Correlation)));
    }

    #[test]
    fn pairwise_redundancy_detected() {
        let f = fw("a=0-5 -> accept\na=2-4 -> accept\n* -> discard\n");
        assert!(kinds(&f).contains(&(0, 1, AnomalyKind::PairwiseRedundancy)));
    }

    #[test]
    fn disjoint_rules_raise_nothing() {
        let f = fw("a=0-2 -> accept\na=5-7 -> discard\nb=0-7 -> accept\n");
        let ks = kinds(&f);
        assert!(!ks.iter().any(|&(i, j, _)| (i, j) == (0, 1)));
    }

    #[test]
    fn catch_all_generalises_everything_conflicting() {
        let f = fw("a=0-2 -> discard\n* -> accept\n");
        assert!(kinds(&f).contains(&(0, 1, AnomalyKind::Generalization)));
    }

    #[test]
    fn shadowed_rule_is_also_upward_redundant() {
        // Cross-check with the exact whole-policy analysis.
        let f = fw("a=0-5 -> accept\na=2-4 -> discard\n* -> discard\n");
        let anomalies = kinds(&f);
        assert!(anomalies.contains(&(0, 1, AnomalyKind::Shadowing)));
        let report = crate::analyze_redundancy(&f);
        assert!(report
            .redundant
            .contains(&(1, crate::RedundancyKind::Upward)));
    }

    #[test]
    fn display_names() {
        assert_eq!(AnomalyKind::Shadowing.to_string(), "shadowing");
        assert_eq!(
            AnomalyKind::PairwiseRedundancy.to_string(),
            "pairwise-redundancy"
        );
    }
}

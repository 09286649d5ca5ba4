//! Human-readable reports: the comparison phase's discrepancy table (the
//! paper's Table 3), the resolution table (Table 4), and change-impact
//! summaries (§1.3) — all in the prefix-converted notation of §7.1.

use std::fmt::Write as _;

use fw_core::ChangeImpact;
use fw_model::Firewall;

use crate::{Comparison, Resolution};

/// Renders the comparison as a Table-3-style text table: one row per
/// discrepancy, one decision column per version.
pub fn comparison_report(cmp: &Comparison, team_names: &[&str]) -> String {
    let schema = cmp.versions()[0].schema();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "functional discrepancies: {}",
        cmp.discrepancies().len()
    );
    for (i, d) in cmp.discrepancies().iter().enumerate() {
        let _ = write!(out, "{:>3}. {}", i + 1, d.predicate().display(schema));
        for (v, dec) in d.decisions().iter().enumerate() {
            let name = team_names.get(v).copied().unwrap_or("team");
            let _ = write!(out, " | {name}: {dec}");
        }
        out.push('\n');
    }
    out
}

/// Renders a resolution as a Table-4-style text table: one row per resolved
/// discrepancy with the agreed decision and the teams that had it wrong.
pub fn resolution_report(res: &Resolution, team_names: &[&str]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "resolved discrepancies: {}", res.entries().len());
    for (i, e) in res.entries().iter().enumerate() {
        let _ = write!(out, "{:>3}. agreed: {}", i + 1, e.decision());
        let wrong = e.incorrect_versions();
        if wrong.is_empty() {
            out.push_str(" (no team was wrong)");
        } else {
            out.push_str(" (incorrect:");
            for v in wrong {
                let name = team_names.get(v).copied().unwrap_or("team");
                let _ = write!(out, " {name}");
            }
            out.push(')');
        }
        out.push('\n');
    }
    out
}

/// Renders a change impact as an administrator-facing summary: the number
/// of affected packet regions and each region with its before/after
/// decisions.
pub fn impact_report(before: &Firewall, impact: &ChangeImpact) -> String {
    let schema = before.schema();
    let mut out = String::new();
    if impact.is_noop() {
        out.push_str("change is semantics-preserving: no packet's decision changed\n");
        return out;
    }
    let _ = writeln!(
        out,
        "change affects {} region(s), {} packet(s):",
        impact.discrepancies().len(),
        impact.affected_packets()
    );
    for (i, d) in impact.discrepancies().iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>3}. {} | before: {}, after: {}",
            i + 1,
            d.predicate().display(schema),
            d.left(),
            d.right()
        );
    }
    out
}

/// Renders a change impact with **rule attribution**: each region names the
/// first-match rule responsible in the before/after policies, so the
/// administrator can jump straight to the offending line.
pub fn impact_report_attributed(
    before: &Firewall,
    after: &Firewall,
    impact: &ChangeImpact,
) -> String {
    let schema = before.schema();
    let mut out = String::new();
    if impact.is_noop() {
        out.push_str("change is semantics-preserving: no packet's decision changed\n");
        return out;
    }
    let _ = writeln!(
        out,
        "change affects {} region(s), {} packet(s):",
        impact.discrepancies().len(),
        impact.affected_packets()
    );
    for (i, d) in impact.discrepancies().iter().enumerate() {
        let (br, ar) = d.attribute(before, after);
        let fmt_rule = |r: Option<usize>| match r {
            Some(idx) => format!("r{}", idx + 1),
            None => "<no match>".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:>3}. {} | before: {} (via {}), after: {} (via {})",
            i + 1,
            d.predicate().display(schema),
            d.left(),
            fmt_rule(br),
            d.right(),
            fmt_rule(ar)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Decision, Rule};

    #[test]
    fn comparison_report_mentions_all_rows() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
        let text = comparison_report(&cmp, &["A", "B"]);
        assert!(text.contains("functional discrepancies: 3"));
        assert!(text.contains("A: accept"));
        assert!(text.contains("B: discard"));
        assert!(text.contains("224.168.0.0/16") || text.contains("src="));
    }

    #[test]
    fn resolution_report_names_wrong_teams() {
        let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
        let res = Resolution::by_version(&cmp, 0).unwrap();
        let text = resolution_report(&res, &["A", "B"]);
        assert!(text.contains("resolved discrepancies: 3"));
        assert!(text.contains("incorrect: B"));
        assert!(!text.contains("incorrect: A"));
    }

    #[test]
    fn attributed_report_names_rules() {
        let before = paper::team_a();
        let after = before
            .with_rule_inserted(0, Rule::catch_all(before.schema(), Decision::Discard))
            .unwrap();
        let impact = ChangeImpact::between(&before, &after).unwrap();
        let text = impact_report_attributed(&before, &after, &impact);
        // Every changed region is decided by the new rule 1 after the edit.
        assert!(text.contains("after: discard (via r1)"), "got: {text}");
        assert!(text.contains("before: accept (via r"), "got: {text}");
    }

    #[test]
    fn impact_report_covers_both_cases() {
        let fw = paper::team_a();
        let noop = ChangeImpact::between(&fw, &fw).unwrap();
        assert!(impact_report(&fw, &noop).contains("semantics-preserving"));

        let changed = fw
            .with_rule_inserted(0, Rule::catch_all(fw.schema(), Decision::Discard))
            .unwrap();
        let impact = ChangeImpact::between(&fw, &changed).unwrap();
        let text = impact_report(&fw, &impact);
        assert!(text.contains("change affects"));
        assert!(text.contains("before: accept"));
    }
}

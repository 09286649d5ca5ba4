//! Shared measurement plumbing for the evaluation harness.
//!
//! Every figure/table of the paper's §8 is regenerated by a binary in
//! `src/bin/` (human-readable series, CSV on request). This library holds
//! the phase-timing helper of the Fig. 12 and Fig. 13 bins: the paper
//! reports **construction**, **shaping** and **comparison** times
//! separately, so the harness measures the same three phases —
//! construction is FDD building for both inputs, shaping is the alignment
//! work (the synchronized-product build), and comparison is discrepancy
//! extraction.

use std::time::{Duration, Instant};

use fw_core::Fdd;
use fw_model::Firewall;

/// Phase timings for one firewall-pair comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// FDD construction for both inputs.
    pub construction: Duration,
    /// Alignment: the synchronized-product build.
    pub shaping: Duration,
    /// Discrepancy extraction from the aligned structure.
    pub comparison: Duration,
}

impl PhaseTimes {
    /// Total wall time across the three phases.
    pub fn total(&self) -> Duration {
        self.construction + self.shaping + self.comparison
    }

    /// Element-wise sum, for averaging repeated runs.
    pub fn add(&mut self, other: PhaseTimes) {
        self.construction += other.construction;
        self.shaping += other.shaping;
        self.comparison += other.comparison;
    }

    /// Element-wise division by a run count.
    pub fn div(&self, runs: u32) -> PhaseTimes {
        PhaseTimes {
            construction: self.construction / runs,
            shaping: self.shaping / runs,
            comparison: self.comparison / runs,
        }
    }
}

/// Runs the default (memoised product) pipeline on a pair, returning phase
/// times and the number of discrepancy cells found.
///
/// # Panics
///
/// Panics if either firewall is invalid or non-comprehensive — benchmark
/// inputs are generated comprehensively.
pub fn measure_pair(a: &Firewall, b: &Firewall) -> (PhaseTimes, u128) {
    let t = Instant::now();
    let fa = Fdd::from_firewall_fast(a).expect("benchmark inputs are comprehensive");
    let fb = Fdd::from_firewall_fast(b).expect("benchmark inputs are comprehensive");
    let construction = t.elapsed();

    let t = Instant::now();
    let prod = fw_core::diff_product(&fa, &fb).expect("same schema by construction");
    let shaping = t.elapsed();

    let t = Instant::now();
    let cells = prod.cell_count();
    let comparison = t.elapsed();

    (
        PhaseTimes {
            construction,
            shaping,
            comparison,
        },
        cells,
    )
}

/// Formats a duration in fractional milliseconds for series output.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn measure_pair_times_and_counts_the_paper_example() {
        let (t, cells) = measure_pair(&paper::team_a(), &paper::team_b());
        assert!(t.total() > Duration::ZERO);
        assert!(cells > 0);
    }

    #[test]
    fn phase_arithmetic() {
        let mut acc = PhaseTimes::default();
        let one = PhaseTimes {
            construction: Duration::from_millis(2),
            shaping: Duration::from_millis(4),
            comparison: Duration::from_millis(6),
        };
        acc.add(one);
        acc.add(one);
        let avg = acc.div(2);
        assert_eq!(avg.total(), Duration::from_millis(12));
    }
}

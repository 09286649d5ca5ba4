//! The end-to-end **diverse firewall design** method (Liu & Gouda, DSN 2004
//! / TPDS 2008): design, comparison and resolution phases over independently
//! written firewall versions, plus change-impact reporting.
//!
//! The workflow mirrors the paper's §2:
//!
//! 1. **Design phase** — each team writes a policy from the same informal
//!    specification (as rule text parsed by [`fw_model::Firewall::parse`],
//!    or directly as a diagram via [`fw_core::FddBuilder`], §7.2).
//! 2. **Comparison phase** — [`Comparison::of`] computes every functional
//!    discrepancy among the versions (§3–§5, §7.3).
//! 3. **Resolution phase** — a [`Resolution`] assigns one agreed decision
//!    per discrepancy ([`Resolution::new`] for explicit table-style input,
//!    [`Resolution::by_majority`] / [`Resolution::by_version`] for common
//!    policies), and [`finalize`] emits the agreed firewall via both of
//!    §6's generation methods, cross-verifying them.
//!
//! # Example: the paper's running example, end to end
//!
//! ```
//! # fn main() -> Result<(), fw_diverse::DiverseError> {
//! use fw_diverse::{finalize, Comparison, Resolution};
//! use fw_model::paper;
//!
//! let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()])?;
//! assert_eq!(cmp.discrepancies().len(), 3);           // Table 3
//! let res = Resolution::by_majority(&cmp);            // Table 4 analogue
//! let agreed = finalize(&cmp, &res)?;                 // Tables 5–7
//! assert!(agreed.is_comprehensive_syntactically());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod comparison;
mod error;
mod finalize;
pub mod report;
mod resolution;
mod session;

pub use comparison::Comparison;
pub use error::DiverseError;
pub use finalize::{compile_final, finalize, method1, method2, verify_final};
pub use resolution::{Resolution, ResolvedDiscrepancy};
pub use session::{ComparedSession, DesignSession, ResolvedSession, TeamScore};

// Change impact analysis is re-exported from fw-core so downstream users
// need only this crate for the full §1.3 workflow.
pub use fw_core::{ChangeImpact, Edit};

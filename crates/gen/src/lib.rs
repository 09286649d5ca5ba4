//! Rule-sequence generation and redundancy removal for firewall policies —
//! the two substrates the resolution phase of *diverse firewall design*
//! builds on (paper §6; refs \[12] and \[19]).
//!
//! * [`generate_rules`] turns any valid [`fw_core::Fdd`] into a compact,
//!   comprehensive, semantically equivalent first-match rule sequence
//!   (reduce → mark → emit → compact). Method 1 of the resolution phase
//!   applies it to the corrected FDD.
//! * [`remove_redundant_rules`] deletes every rule whose removal preserves
//!   semantics, classified as *upward* or *downward* redundancy exactly as
//!   in ref \[19]. Method 2 applies it after prepending correction rules to
//!   an original policy. Both it and [`analyze_redundancy`] decide each
//!   rule by comparing roots in one [`fw_core::ConsArena`].
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_core::CoreError> {
//! use fw_core::Fdd;
//! use fw_gen::{analyze_redundancy, generate_rules};
//! use fw_model::paper;
//!
//! let fdd = Fdd::from_firewall(&paper::team_a())?;
//! let regenerated = generate_rules(&fdd)?;
//! assert!(fw_core::equivalent(&regenerated, &paper::team_a())?);
//! assert!(analyze_redundancy(&regenerated).redundant.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anomaly;
mod generate;
mod redundancy;

pub use anomaly::{analyze_anomalies, Anomaly, AnomalyKind};
pub use generate::generate_rules;
pub use redundancy::{
    analyze_redundancy, remove_redundant_rules, RedundancyKind, RedundancyReport,
};

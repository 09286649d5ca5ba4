//! Firewall Decision Diagrams and the three algorithms of *Diverse Firewall
//! Design* (Liu & Gouda, DSN 2004 / IEEE TPDS 19(9), 2008).
//!
//! The paper's central problem: given two (or more) firewall policies
//! designed independently from one requirement specification, compute **all
//! functional discrepancies** between them in human-readable form. The
//! solution is a pipeline of three algorithms over FDDs, all implemented
//! here:
//!
//! 1. **Construction** (§3, [`Fdd::from_firewall`]) — convert a first-match
//!    rule sequence into an equivalent [`Fdd`].
//! 2. **Shaping** (§4, [`shape_pair`]) — make two ordered FDDs
//!    *semi-isomorphic* without changing their semantics, via node
//!    insertion, edge splitting and subgraph replication
//!    (preceded by [`Fdd::to_simple`]).
//! 3. **Comparison** (§5, [`compare_shaped`]) — walk the shaped pair in
//!    lockstep and report every disagreeing region as a [`Discrepancy`].
//!
//! [`compare_firewalls_via_shaping`] runs that pipeline as published. The
//! default, [`compare_firewalls`], reaches the same discrepancies through
//! fast construction ([`Fdd::from_firewall_fast`]) and one hash-consed
//! [`ConsArena`], the crate's single canonical node table: both diagrams
//! are interned there and walked as one product that skips every subgraph
//! they share. [`ChangeImpact`] applies it to policy-edit analysis (§1.3).
//! The same walk takes any number of roots, so [`cross_compare`] (every
//! pair) and [`direct_compare`] (all versions at once) extend it to `N`
//! versions (§7.3); [`direct_compare_via_shaping`] is §7.3 as published.
//! [`Fdd::reduced`] exports the arena's canonical DAG form, used by rule
//! generation.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_core::CoreError> {
//! use fw_core::compare_firewalls;
//! use fw_model::paper;
//!
//! // The paper's Tables 1 and 2, compared; Table 3 falls out.
//! let discrepancies = compare_firewalls(&paper::team_a(), &paper::team_b())?;
//! for d in &discrepancies {
//!     println!("{}", d.display(paper::team_a().schema()));
//! }
//! assert_eq!(discrepancies.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod build;
mod compare;
mod cons;
pub mod discrepancy;
mod dot;
mod error;
mod fast;
mod fdd;
mod impact;
mod maintain;
mod multiway;
mod product;
pub mod query;
mod shape;
mod simplify;
mod stats;

pub use build::IncrementalBuilder;
pub use compare::{compare_firewalls, compare_firewalls_via_shaping, compare_shaped, equivalent};
pub use cons::{ConsArena, ConsId, ConsView};
#[doc(hidden)]
pub use cons::{FxHasher, FxMap};
pub use discrepancy::{coalesce, coalesce_multi, Discrepancy, MultiDiscrepancy};
pub use error::CoreError;
pub use fdd::{domain_label, label, Edge, Fdd, FddBuilder, NodeId, NodeView};
pub use impact::{ChangeImpact, Edit};
pub use maintain::{MaintainStats, SuffixChain};
pub use multiway::{
    cross_compare, direct_compare, direct_compare_via_shaping, project_pair, shape_all,
    PairwiseDiscrepancies,
};
pub use product::{diff_firewalls, diff_product, DiffProduct};
pub use query::{any_match, query_fdd, query_firewall, QueryAnswer};
pub use shape::{semi_isomorphic, shape_pair};
pub use stats::FddStats;

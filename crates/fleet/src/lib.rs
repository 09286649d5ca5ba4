//! `fw-fleet` — multi-tenant fleet serving with cross-tenant structural
//! sharing.
//!
//! The single-policy pipeline (PRs 2–6) compiles, classifies, and
//! live-edits one firewall fast. A production deployment is a *fleet*:
//! one process hosting thousands-to-millions of per-tenant policies that
//! are near-copies of each other (Cuppens et al.'s misconfiguration-
//! management setting). The lever, per Hazelhurst's BDD work, is a
//! canonical shared representation: `fw-core`'s [`fw_core::ConsArena`]
//! guarantees equal id ⟺ equal function, so a fleet of perturbed variants
//! of a golden policy should cost its *deltas*, not N full images.
//!
//! [`PolicyRegistry`] is that shared representation made a serving
//! surface. Per schema it keeps one **shard**: one hash-consed arena
//! holding every tenant's canonical diagram, one interned rule store
//! (identical rules across tenants stored once), and one
//! [`fw_exec::SubgraphPool`] where compiled subtrees are deduplicated
//! across tenants by canonical node id. Identical policies collapse to a
//! single entry by content hash, so a million tenants on one golden
//! policy cost one image plus a million map entries. The classification
//! front end ([`PolicyRegistry::classify`],
//! [`PolicyRegistry::classify_batch`]) serves any tenant from the shared
//! pool; [`PolicyRegistry::apply_edits`] routes a tenant's edit batch
//! through the same rebuild-and-diff path as [`fw_exec::LiveMatcher`] and
//! returns the same style of receipt.
//!
//! An add or edit builds the tenant's diagram by fast construction and
//! interns it into the shared arena, which keeps only the final diagram's
//! nodes, and most of those are shared with the other variants: a
//! 661-rule 5% variant adds only tens of nodes. The edit's impact is the
//! short-circuit diff of the old and new roots in that arena.
//!
//! Persistence goes through FWEX ([`save_fleet`]/[`load_fleet`]): a
//! manifest of schema + tenant→policy bindings, per-policy rule text, and
//! a per-policy compiled FWEX image whose header binds it to the schema —
//! restores revalidate structurally and cross-check the rebuilt pool
//! against the decoded images.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_fleet::FleetError> {
//! use fw_fleet::{PolicyRegistry, TenantId};
//! use fw_model::paper;
//!
//! let registry = PolicyRegistry::new();
//! registry.add_tenant(TenantId(1), paper::team_a())?;
//! registry.add_tenant(TenantId(2), paper::team_a())?; // dedupes: same image
//! registry.add_tenant(TenantId(3), paper::team_b())?;
//! let p = fw_model::Packet::new(vec![0, 1, paper::MAIL_SERVER, 25, paper::TCP]);
//! assert_eq!(
//!     registry.classify(TenantId(1), &p)?,
//!     registry.classify(TenantId(2), &p)?
//! );
//! assert_eq!(registry.stats().distinct_policies, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod registry;
mod store;

pub use error::FleetError;
pub use registry::{EditReceipt, FleetStats, PolicyRegistry, TenantId};
pub use store::{load_fleet, save_fleet};

//! Packet, rule and firewall-policy model for *diverse firewall design*.
//!
//! This crate provides the vocabulary shared by the whole workspace, following
//! the formal model of Liu & Gouda, *Diverse Firewall Design* (DSN 2004 /
//! IEEE TPDS 19(9), 2008), §3.1:
//!
//! * a **field** is a variable over a finite interval of non-negative
//!   integers ([`FieldDef`], [`Schema`]);
//! * a **packet** is a `d`-tuple of field values ([`Packet`]);
//! * a **rule** is `predicate → decision`, where the predicate constrains
//!   each field to a set of values ([`Predicate`], [`Rule`], [`Decision`]);
//! * a **firewall** is an ordered rule sequence with first-match semantics
//!   ([`Firewall`]).
//!
//! On top of the formal model the crate provides the practical plumbing the
//! paper describes in §7.1: IPv4 **prefix ↔ interval** conversion (a `w`-bit
//! interval expands to at most `2w − 2` prefixes; see [`prefix`]) and a small
//! human-readable **rule DSL** with a parser and printer (see [`parse`]), so
//! that policies and computed discrepancies round-trip through text that
//! looks like ordinary firewall configuration.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_model::ModelError> {
//! use fw_model::{Schema, Firewall, Packet, Decision};
//!
//! let schema = Schema::paper_example();
//! let fw = Firewall::parse(
//!     schema,
//!     "iface=0, dst=192.168.0.1, dport=25, proto=0 -> accept\n\
//!      iface=0, src=224.168.0.0/16 -> discard\n\
//!      * -> accept\n",
//! )?;
//!
//! // An SMTP packet from the malicious /16 still hits rule 1 first:
//! let p = Packet::new(vec![0, 0xE0A8_0001, 0xC0A8_0001, 25, 0]);
//! assert_eq!(fw.decision_for(&p), Some(Decision::Accept));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod decision;
mod error;
mod field;
mod firewall;
mod interval;
pub mod iptables;
mod packet;
pub mod paper;
pub mod parse;
mod permute;
mod predicate;
pub mod prefix;
mod rule;
mod set;
mod stats;
pub mod trace_wire;

pub use decision::Decision;
pub use error::ModelError;
pub use field::{FieldDef, FieldId, Schema};
pub use firewall::Firewall;
pub use interval::{Interval, SubtractResult};
pub use packet::Packet;
pub use permute::FieldPermutation;
pub use predicate::{DisplayPredicate, PacketBox, Predicate};
pub use prefix::Prefix;
pub use rule::{DisplayRule, Rule};
pub use set::IntervalSet;
pub use stats::FirewallStats;

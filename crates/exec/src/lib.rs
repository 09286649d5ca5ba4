//! `fw-exec` — the compiled packet-classification runtime.
//!
//! The paper's end product (§6) is one agreed-upon firewall; this crate is
//! how that firewall *runs*. A finalized [`fw_core::Fdd`] is lowered into a
//! [`CompiledFdd`]: a contiguous arena of fixed-size node descriptors with
//! no pointers and no per-packet allocation, where each internal node
//! resolves its field value either through a dense jump table (fields of at
//! most [`JUMP_TABLE_MAX_BITS`] bits) or a sorted cut-point array walked by
//! branchless binary search. Decision-diagram lowering into flat lookup
//! structures follows Hazelhurst's observation that analysis DAGs and fast
//! lookup structures are the same object at different addresses.
//!
//! On top of the matcher sit the runtime surfaces the evaluation harness
//! and the `fwclass` binary share:
//!
//! * [`CompiledFdd::classify`] — single-packet classification;
//! * [`CompiledFdd::classify_batch`] /
//!   [`CompiledFdd::classify_batch_into`] — batch classification over
//!   `&[Packet]` without per-packet allocation;
//! * [`PacketBatch`] and [`CompiledFdd::classify_columns`] — a field-major
//!   (column) packet layout for cache-friendly replay of large traces;
//! * [`CompiledFdd::classify_lanes`] — the level-synchronous lane kernel:
//!   a structure-of-arrays frontier of [`DEFAULT_LANE_WIDTH`] packets
//!   advanced one FDD level per pass, with same-node runs resolved through
//!   one shared cut array so the branchless search autovectorises (the
//!   batch fast path — see `kernel.rs` for the scheduling story). The
//!   row-major [`CompiledFdd::classify_batch`] and the column walk are the
//!   reference engines the agreement oracles compare it against;
//! * [`CompiledFdd::encode`] / [`CompiledFdd::decode`] — a fixed-width
//!   little-endian wire format in the same `bytes` conventions as
//!   `fw_synth::PacketTrace`, so a compiled policy can be shipped to the
//!   box that serves it;
//! * [`LiveMatcher`] — online serving: the policy plus its image behind an
//!   atomically swapped `Arc`, where [`LiveMatcher::apply_edits`] runs the
//!   edit→impact→compile pipeline and in-flight snapshots finish on the
//!   image they started with. An edit batch rebuilds the policy's diagram
//!   by fast construction, takes the impact from a short-circuit diff
//!   against the published diagram in a throwaway hash-consed arena, and
//!   lowers the new diagram by a fresh [`CompiledFdd::compile`] only if
//!   some decision changed (see `live.rs`);
//! * [`CompileStats`] / [`RecompileStats`] — node/arena/depth accounting in
//!   the style of `fw_core::FddStats`, and the node count of an edit's
//!   image;
//! * [`SubgraphPool`] — cross-image shared compilation for fleet serving:
//!   one pool of compiled nodes keyed by canonical `fw_core::ConsId`, so
//!   subtrees shared between tenants of a multi-policy registry are
//!   lowered once and an image is just a root index (see `shared.rs`);
//! * [`Profile`] / [`CompiledFdd::specialize`] — profile-guided image
//!   specialization: a sampling arm of the auto serving surfaces gathers
//!   per-node visit and per-cut hit histograms at near-zero fast-path
//!   cost, and [`SpecializedFdd`] re-lowers the same FDD under that heat
//!   — hot-first arena layout, chain fusion (halving the walk's worst
//!   case), quantized jump tables and hot-cut-first hybrid search. The
//!   calibrator races the twin as [`EngineKind::Spec`] beside the walk and
//!   the lane kernel ([`calibrate`]); decisions and FWEX are untouched
//!   (see `profile.rs` / `specialize.rs`);
//! * [`DecisionCache`] — the skew-exploiting memoization front end: a
//!   4-way set-associative table over packet field tuples with *exact*
//!   impact-driven invalidation (an edit's `fw_core::ChangeImpact`
//!   region is intersected against resident entries, falling back to an
//!   O(1) epoch bump past the [`InvalidationPlan::choose`] crossover),
//!   raced by [`calibrate_with_cache`] so skewed traffic elects it and
//!   uniform traffic rejects it (see `cache.rs`).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_exec::ExecError> {
//! use fw_exec::CompiledFdd;
//! use fw_model::{paper, Decision, Packet};
//!
//! let compiled = CompiledFdd::from_firewall(&paper::team_a())?;
//! let p = Packet::new(vec![0, 1, paper::MAIL_SERVER, 25, paper::TCP]);
//! assert_eq!(compiled.classify(&p), Decision::Accept);
//! assert!(compiled.stats().arena_bytes > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod cache;
mod calibrate;
mod compile;
mod error;
mod kernel;
mod live;
mod par;
mod profile;
mod shared;
mod specialize;
mod wire;

pub use batch::PacketBatch;
pub use cache::{
    CacheScratch, CacheStats, DecisionCache, InvalidationPlan, InvalidationReport, CACHE_WAYS,
    UNTAGGED,
};
pub use calibrate::{
    calibrate, calibrate_with_cache, Calibration, EngineChoice, EngineKind, EngineScratch, Trial,
    CALIBRATE_SAMPLE,
};
pub use compile::{CompileStats, CompiledFdd, RecompileStats, JUMP_TABLE_MAX_BITS};
pub use error::ExecError;
pub use kernel::{LaneScratch, DEFAULT_LANE_WIDTH};
pub use live::{LiveMatcher, SwapReport};
pub use par::ParScratch;
pub use profile::{PoolProfile, Profile, PROFILE_SAMPLE_ROWS};
pub use shared::SubgraphPool;
pub use specialize::{SpecializePlan, SpecializedFdd};

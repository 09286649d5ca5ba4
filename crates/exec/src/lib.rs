//! `fw-exec` — the compiled packet-classification runtime.
//!
//! The paper's end product (§6) is one agreed-upon firewall; this crate is
//! how that firewall *runs*. A finalized [`fw_core::Fdd`] is lowered into a
//! [`CompiledFdd`]: a contiguous arena of fixed-size node descriptors with
//! no pointers and no per-packet allocation, where every internal node,
//! whatever its field's width, resolves its field value through its sorted
//! cut points (one per edge interval) by branchless binary search.
//! Decision-diagram lowering into flat lookup structures follows
//! Hazelhurst's observation that analysis DAGs and fast lookup structures
//! are the same object at different addresses.
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
//! * [`CompiledFdd::classify_lanes`] — the lane kernel, the image's one
//!   batch form: the arenas lowered once more with chain fusion (one step
//!   resolves two levels), quantized two-compare ladders, and a padded
//!   fixed-trip halving search for the nodes past the ladder tables'
//!   budget; [`DEFAULT_LANE_WIDTH`] packets advance one step per pass, and
//!   [`CompiledFdd::classify_lanes_par_into`] shards the batch across
//!   cores (see `kernel.rs`). The row-major
//!   [`CompiledFdd::classify_batch`] and the column walk are the reference
//!   engines the agreement oracles compare it against;
//! * [`CompiledFdd::encode`] / [`CompiledFdd::decode`] — FWEX, a
//!   fixed-width little-endian wire format in the same `bytes` conventions
//!   as `fw_synth::PacketTrace`, so a compiled policy can be shipped to the
//!   box that serves it; decoding takes untrusted bytes, accepts only an
//!   image exactly as long as its counts give, and re-validates its
//!   structure (see `wire.rs`);
//! * [`LiveMatcher`] — online serving: the policy plus its image behind an
//!   atomically swapped `Arc`, where [`LiveMatcher::apply_edits`] runs the
//!   edit→impact→compile pipeline and in-flight snapshots finish on the
//!   image they started with. An edit batch rebuilds the policy's diagram
//!   by fast construction, takes the impact from a short-circuit diff
//!   against the published diagram in a throwaway hash-consed arena, and
//!   lowers the new diagram by a fresh [`CompiledFdd::compile`] only if
//!   some decision changed (see `live.rs`);
//! * [`CompileStats`] / [`RecompileStats`] / [`LaneStats`] — node, arena
//!   and depth accounting of the canonical image in the style of
//!   `fw_core::FddStats`, the node count of an edit's image, and the lane
//!   kernel's shape;
//! * [`SubgraphPool`] — cross-image shared compilation for fleet serving:
//!   one pool of compiled nodes keyed by canonical `fw_core::ConsId`, so
//!   subtrees shared between tenants of a multi-policy registry are
//!   lowered once, in the lane kernel's node shape, and an image is just
//!   a root index; batches run the kernel's 32-lane schedule over it (see
//!   `shared.rs`);
//! * [`calibrate`] / [`EngineChoice`] — the adaptive route: a short
//!   round-robin race of the walk, the lane kernel at each thread count
//!   and (with [`calibrate_with_cache`]) the cached arm, whose winner the
//!   caller keeps and serves through (see `calibrate.rs`);
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
mod shared;
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
pub use compile::{CompileStats, CompiledFdd, RecompileStats};
pub use error::ExecError;
pub use kernel::{lane_workers, LaneStats, DEFAULT_LANE_WIDTH};
pub use live::{LiveMatcher, SwapReport};
pub use shared::SubgraphPool;

//! `serve-uniform` and `serve-zipf-edit`: one `LiveMatcher` on the
//! 661-rule policy, one closed-loop client on one thread.
//!
//! A request is one batch or burst that arrives as `PacketTrace::encode`
//! wire bytes and is timed from those bytes in hand to verdicts out:
//! `PacketTrace::decode` → `PacketBatch::from_trace` →
//! `LiveMatcher::classify_auto_into`. Edit batches run between requests on
//! the same thread; they are timed on their own, and their time is charged
//! to the request rate of the window they fall in.

use std::time::{Duration, Instant};

use fw_core::{ChangeImpact, ConsArena, Edit, SuffixChain};
use fw_exec::{
    CompiledFdd, EngineScratch, ExecError, InvalidationPlan, LiveMatcher, PacketBatch, SwapReport,
};
use fw_model::{Decision, Firewall, Schema};
use fw_synth::PacketTrace;

use crate::gen::{self, EditStream, FlowPool, SplitMix};
use crate::span::Recorder;
use crate::stats;
use crate::{Outcome, Params};

/// Entries of the decision cache every matcher enables.
pub const CACHE_CAPACITY: usize = 65_536;
/// Packets at the head of the stream the calibrator races engines over.
pub const CALIBRATION_PACKETS: usize = 4_096;
/// Threads the calibrator may elect: `fwclass --threads 1`. With `0` it
/// elects a 2-thread engine on some runs and not others on a 2-core box
/// shared with other work, and the election then decides the run.
const CALIBRATE_THREADS: usize = 1;
/// Zipf flows after an edit whose misses count as cache refill.
const REFILL_BURSTS: u64 = 16;
/// `MaintainedFdd::apply_edits_with_stats` compacts its arena after an
/// edit batch once the arena holds more than `COMPACT_FLOOR` nodes and
/// more than `COMPACT_FACTOR` times the nodes its suffix chain reaches;
/// the shadow replays the same test.
const COMPACT_FLOOR: usize = 4_096;
const COMPACT_FACTOR: usize = 4;

/// The traffic a serving workload sends.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Uniformly random packets over the whole packet space.
    Uniform,
    /// Zipf-popular flows from a fixed pool.
    Zipf {
        /// Distinct flows in the pool.
        flows: usize,
        /// Zipf exponent.
        s: f64,
    },
}

/// One serving workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Packets per request.
    pub batch: usize,
    /// What the packets look like.
    pub traffic: Traffic,
    /// Requests between edit batches (`None`: no edits).
    pub edit_every: Option<u64>,
    /// Edits per edit batch.
    pub edits_per_batch: usize,
    /// Every `check_every`-th request is checked, plus the two after each
    /// edit batch.
    pub check_every: u64,
    /// The stated tail percentile of request latency, basis points.
    pub tail_bp: u32,
    /// A traced run traces every `trace_every`-th request, so that the
    /// span buffer lasts the whole run.
    pub trace_every: u64,
}

/// `serve-uniform`: 1,024-packet batches of uniformly random packets. Why:
/// the stream's distinct packets far exceed the cache's 65,536 entries, so
/// every packet takes the miss path; decode, batch build and the elected
/// kernel do all the work while the cache and the edit layers idle. A
/// kernel or decode change shows here, and a cache change must not.
pub const UNIFORM: Shape = Shape {
    name: "serve-uniform",
    batch: 1024,
    traffic: Traffic::Uniform,
    edit_every: None,
    edits_per_batch: 0,
    check_every: 32,
    tail_bp: 9_000,
    trace_every: 2,
};

/// `serve-zipf-edit`: 64-packet bursts drawn Zipf (s = 1.0) from 4,096
/// flows, which fit in the cache, with a 4-edit batch every 2,048 bursts.
/// Why: the cache absorbs most packets and small bursts expose per-call
/// overhead, while each edit runs maintain → impact → export → splice →
/// publish → invalidate between the reads. The edit batches' time is
/// charged to `req_per_s`, so a read-side gain that costs writes, or the
/// reverse, shows in one workload.
pub const ZIPF_EDIT: Shape = Shape {
    name: "serve-zipf-edit",
    batch: 64,
    traffic: Traffic::Zipf {
        flows: 4_096,
        s: 1.0,
    },
    edit_every: Some(EDIT_EVERY),
    edits_per_batch: 4,
    check_every: 64,
    tail_bp: 9_800,
    trace_every: 8,
};

/// Bursts between `serve-zipf-edit`'s edit batches. A fixed share of
/// writes per request keeps `req_per_s` proportional to the summed cost
/// of a burst and its share of an edit batch; with writes on a wall-clock
/// cadence, a slower machine would also leave fewer requests between
/// them, and the rate would swing with the square of the machine's speed.
/// At this cadence the edits take about half of the client's time.
const EDIT_EVERY: u64 = 2_048;

/// Seed streams of this module's inputs.
const STREAM_PACKETS: u64 = 1;
const STREAM_FLOWS: u64 = 2;
const STREAM_EDITS: u64 = 3;

/// Produces the request stream, one wire-encoded trace at a time.
enum Source {
    Uniform { schema: Schema, seed: u64, i: u64 },
    Zipf { pool: FlowPool, rng: SplitMix },
}

impl Source {
    fn new(shape: &Shape, policy: &Firewall, seed: u64) -> Source {
        match shape.traffic {
            Traffic::Uniform => Source::Uniform {
                schema: policy.schema().clone(),
                seed,
                i: 0,
            },
            Traffic::Zipf { flows, s } => Source::Zipf {
                pool: FlowPool::new(policy, flows, s, gen::derive(seed, STREAM_FLOWS, 0)),
                rng: SplitMix::new(gen::derive(seed, STREAM_PACKETS, 0)),
            },
        }
    }

    fn next(&mut self, n: usize) -> PacketTrace {
        match self {
            Source::Uniform { schema, seed, i } => {
                *i += 1;
                // Uniform over every field's whole domain: packets
                // essentially never repeat.
                PacketTrace::random(schema.clone(), n, gen::derive(*seed, STREAM_PACKETS, *i))
            }
            Source::Zipf { pool, rng } => pool.burst(n, rng),
        }
    }
}

/// The edit pipeline replayed outside the matcher, so its stages can be
/// timed one by one. It receives the same edits as the served matcher. A
/// `MaintainedFdd` is an arena and a suffix chain in it; the shadow holds
/// the two itself so that the compaction test the matcher runs after
/// every edit batch can be timed as well.
struct Shadow {
    arena: ConsArena,
    chain: SuffixChain,
    image: CompiledFdd,
    compactions: usize,
}

/// Runs a serving workload.
pub fn run(shape: &Shape, params: &Params) -> Result<Outcome, String> {
    let policy = fw_synth::university_large();
    let schema = policy.schema().clone();
    let mut rec = Recorder::new(params.trace, crate::SPAN_CAP);
    let mut out = Outcome::new(shape.name, shape.tail_bp, crate::WINDOW, params);

    let mut source = Source::new(shape, &policy, params.seed);
    let head: Vec<PacketTrace> = (0..CALIBRATION_PACKETS.div_ceil(shape.batch))
        .map(|_| source.next(shape.batch))
        .collect();
    let calibration = PacketBatch::from_trace(
        schema.clone(),
        head.iter()
            .flat_map(|t| t.packets())
            .take(CALIBRATION_PACKETS),
    )
    .map_err(|e| format!("calibration batch: {e}"))?;
    drop(head);

    // The first fresh matcher serves; the rest of the set-ups are spread
    // over the run (`Setups`).
    let (live, calibrated) =
        timed_setup(&policy, &calibration, &mut rec, &mut out).ok_or("set-up failed")?;
    let mut shadow = if params.trace {
        Some(shadow_setup(&policy, &mut rec).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let choice = live.engine_choice();
    out.note(format!(
        "elected engine: {choice} (cache {})",
        if choice.cached { "elected" } else { "rejected" }
    ));
    out.layer(
        "calibrate.cache_elected",
        f64::from(u8::from(choice.cached)),
    );
    out.note(format!(
        "calibration trials: {}",
        calibrated
            .trials
            .iter()
            .map(|t| format!("{}={:.1}Mpps", t.choice, t.mpps))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let mut edits = EditStream::new(policy.clone(), gen::derive(params.seed, STREAM_EDITS, 0));
    let mut reference = policy.clone();
    let mut scratch = EngineScratch::new();
    let mut verdicts: Vec<Decision> = Vec::new();
    let mut kernel_scratch = EngineScratch::new();
    let mut kernel_out: Vec<Decision> = Vec::new();
    let mut edit_ns: Vec<u64> = Vec::new();
    let mut publish_ns: Vec<f64> = Vec::new();
    let mut receipts: Vec<SwapReport> = Vec::new();
    let mut refill: Vec<u64> = Vec::new();
    let mut refill_from: Option<(u64, u64)> = None;
    let cache_before = live.cache_stats().unwrap_or_default();

    out.begin();
    let mut setups = crate::Setups::new(params);
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut i = 0u64;
    let mut since_edit = u64::MAX;
    while Instant::now() < deadline {
        let trace = source.next(shape.batch);
        let wire = trace.encode();
        let traced = params.trace && i.is_multiple_of(shape.trace_every) && rec.has_room();
        out.check.attempt();
        let t0 = Instant::now();
        let root = if traced { rec.root("req") } else { None };
        let served = serve_once(&live, &schema, wire, &mut scratch, &mut verdicts, &mut rec);
        rec.close(root);
        let took = u64::try_from(t0.elapsed().as_nanos()).expect("request under 584 years");
        match served {
            Ok(batch) => {
                out.request(t0, took, traced);
                if since_edit < 2 || i.is_multiple_of(shape.check_every) {
                    out.check.verdicts(&reference, trace.packets(), &verdicts);
                }
                if traced {
                    // The elected engine alone, uncached, on the same batch:
                    // a shadow root of its own, never part of the request.
                    let (image, fdd) = live.load_pair();
                    let k = rec.root("kernel.classify");
                    let replay = choice.classify_into(
                        &image,
                        Some(&fdd),
                        None,
                        &batch,
                        &mut kernel_scratch,
                        &mut kernel_out,
                    );
                    rec.close(k);
                    replay.map_err(|e| format!("kernel replay: {e}"))?;
                }
            }
            Err(e) => out.check.fail(format!("request {i}: {e}")),
        }
        i += 1;
        since_edit = since_edit.saturating_add(1);

        if params.trace {
            if let Some((misses0, left)) = refill_from {
                if left <= 1 {
                    let now = live.cache_stats().unwrap_or_default().misses;
                    refill.push(now - misses0);
                    refill_from = None;
                } else {
                    refill_from = Some((misses0, left - 1));
                }
            }
        }

        if shape.edit_every.is_some_and(|n| i.is_multiple_of(n)) {
            let (batch, after) = edits.next_batch(shape.edits_per_batch);
            reference = after.clone();
            out.check.attempt();
            let t0 = Instant::now();
            let root = rec.root("edit");
            let report = live.apply_edits(&batch);
            rec.close(root);
            let took = u64::try_from(t0.elapsed().as_nanos()).expect("edit under 584 years");
            out.charge(t0, took);
            since_edit = 0;
            match report {
                Ok(report) => {
                    edit_ns.push(took);
                    if params.trace {
                        refill_from =
                            Some((live.cache_stats().unwrap_or_default().misses, REFILL_BURSTS));
                        receipts.push(report);
                    }
                }
                Err(e) => out.check.fail(format!("edit batch: {e}")),
            }
            if let Some(sh) = shadow.as_mut() {
                let stages = shadow_edit(sh, &batch, &mut rec).map_err(|e| e.to_string())?;
                publish_ns.push(took as f64 - stages as f64);
            }
        }

        if setups.due() {
            drop(timed_setup(&policy, &calibration, &mut rec, &mut out));
            if params.trace {
                shadow_setup(&policy, &mut rec).map_err(|e| e.to_string())?;
            }
        }
    }

    out.end();
    let cache_after = live.cache_stats().unwrap_or_default();
    let probes =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    let hits = cache_after.hits - cache_before.hits;
    out.note(format!(
        "cache: {probes} probes, {hits} hits over {i} requests of {} packets",
        shape.batch
    ));
    if !edit_ns.is_empty() {
        let mut sorted = edit_ns.clone();
        sorted.sort_unstable();
        out.note(format!(
            "edit batches: {} (p50 {:.3} ms, p90 {:.3} ms), policy now {} rules",
            sorted.len(),
            stats::percentile(&sorted, 5_000) as f64 / 1e6,
            stats::percentile(&sorted, 9_000) as f64 / 1e6,
            reference.len()
        ));
    }

    if params.trace {
        out.layer("cache.probes", probes as f64);
        out.layer(
            "cache.hit_ratio",
            if probes == 0 {
                0.0
            } else {
                hits as f64 / probes as f64
            },
        );
        if !refill.is_empty() {
            out.layer("cache.refill_misses", mean(&refill));
        }
        let spans = rec.spans();
        let req = crate::span::breakdown(spans, "req");
        out.layer("trace.decode_us", req.layer_median("trace.decode") / 1e3);
        out.layer("batch.build_us", req.layer_median("batch.build") / 1e3);
        out.layer("live.classify_us", req.layer_median("live.classify") / 1e3);
        let kernel = crate::span::breakdown(spans, "kernel.classify");
        out.layer(
            "kernel.classify_us",
            kernel.layer_median("kernel.classify") / 1e3,
        );
        let setup = crate::span::breakdown(spans, "setup");
        out.layer("live.new_ms", setup.layer_median("live.new") / 1e6);
        out.layer("calibrate.ms", setup.layer_median("calibrate") / 1e6);
        let shadow_setup = crate::span::breakdown(spans, "shadow.setup");
        out.layer(
            "maintain.new_ms",
            shadow_setup.layer_median("maintain.new") / 1e6,
        );
        out.layer(
            "maintain.export_setup_ms",
            shadow_setup.layer_median("maintain.export_setup") / 1e6,
        );
        out.layer("compile.ms", shadow_setup.layer_median("compile") / 1e6);
        if !edit_ns.is_empty() {
            let edit = crate::span::breakdown(spans, "edit");
            let mut sorted = edit.layers.get("edit").cloned().unwrap_or_default();
            sorted.sort_unstable();
            out.layer("live.apply_edits_ms", edit.layer_median("edit") / 1e6);
            if !sorted.is_empty() {
                out.layer(
                    "live.apply_edits_p90_ms",
                    stats::percentile(&sorted, 9_000) as f64 / 1e6,
                );
            }
            let sh = crate::span::breakdown(spans, "shadow.edit");
            out.layer("maintain.sweep_ms", sh.layer_median("maintain.sweep") / 1e6);
            out.layer(
                "maintain.impact_ms",
                sh.layer_median("maintain.impact") / 1e6,
            );
            out.layer(
                "maintain.compact_ms",
                sh.layer_median("maintain.compact") / 1e6,
            );
            out.layer(
                "maintain.export_edit_ms",
                sh.layer_median("maintain.export_edit") / 1e6,
            );
            out.layer(
                "recompile.splice_ms",
                sh.layer_median("recompile.splice") / 1e6,
            );
            if !publish_ns.is_empty() {
                out.layer("live.publish_ms", stats::median(&mut publish_ns) / 1e6);
            }
            if let Some(sh) = &shadow {
                out.note(format!(
                    "shadow: {} compactions over {} edit batches; its image {} the served one",
                    sh.compactions,
                    publish_ns.len(),
                    if *live.load() == sh.image {
                        "equals"
                    } else {
                        "differs from"
                    }
                ));
            }
            let med = |f: &dyn Fn(&SwapReport) -> u64| {
                stats::median_u64(&receipts.iter().map(f).collect::<Vec<_>>())
            };
            if !receipts.is_empty() {
                out.layer(
                    "maintain.sweep_levels",
                    med(&|r| r.maintain.sweep_levels as u64),
                );
                out.layer(
                    "recompile.nodes_fresh",
                    med(&|r| r.recompile.as_ref().map_or(0, |s| s.nodes_fresh as u64)),
                );
                let invalidated: Vec<u64> = receipts
                    .iter()
                    .map(|r| r.cache.as_ref().map_or(0, |c| c.invalidated))
                    .collect();
                out.layer("cache.invalidated", mean(&invalidated));
                let bumps = receipts
                    .iter()
                    .filter(|r| {
                        r.cache
                            .as_ref()
                            .is_some_and(|c| c.plan == InvalidationPlan::EpochBump)
                    })
                    .count();
                out.layer("cache.epoch_bumps", bumps as f64);
            }
        }
        out.finish_trace(req, rec);
    }
    Ok(out)
}

/// One fresh matcher on `policy`, timed into `setup_s` and counted as an
/// operation.
fn timed_setup(
    policy: &Firewall,
    calibration: &PacketBatch,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<(LiveMatcher, fw_exec::Calibration)> {
    let input = policy.clone();
    out.check.attempt();
    let t0 = Instant::now();
    let built = set_up(input, calibration, rec);
    let took = t0.elapsed();
    match built {
        Ok(m) => {
            out.setup_s.push(took.as_secs_f64());
            Some(m)
        }
        Err(e) => {
            out.check.fail(format!("set-up: {e}"));
            None
        }
    }
}

/// One fresh matcher: `LiveMatcher::new` + `enable_cache` + `calibrate`.
fn set_up(
    policy: Firewall,
    calibration: &PacketBatch,
    rec: &mut Recorder,
) -> Result<(LiveMatcher, fw_exec::Calibration), ExecError> {
    let root = rec.root("setup");
    let built = (|| {
        let s = rec.open("live.new");
        let live = LiveMatcher::new(policy);
        rec.close(s);
        let live = live?;
        let s = rec.open("live.enable_cache");
        let enabled = live.enable_cache(CACHE_CAPACITY);
        rec.close(s);
        enabled?;
        let s = rec.open("calibrate");
        let cal = live.calibrate(calibration, None, CALIBRATE_THREADS);
        rec.close(s);
        Ok((live, cal?))
    })();
    rec.close(root);
    built
}

/// The set-up's stages replayed one by one, as `LiveMatcher::new` runs
/// them: `MaintainedFdd::new` (a fresh arena and the suffix chain in it),
/// `to_fdd`, `CompiledFdd::compile`.
fn shadow_setup(policy: &Firewall, rec: &mut Recorder) -> Result<Shadow, ExecError> {
    let input = policy.clone();
    let root = rec.root("shadow.setup");
    let built = (|| {
        let s = rec.open("maintain.new");
        let mut arena = ConsArena::new(input.schema().clone());
        let chain = SuffixChain::build(&mut arena, input);
        rec.close(s);
        let chain = chain?;
        let s = rec.open("maintain.export_setup");
        let fdd = arena.to_fdd(chain.root());
        rec.close(s);
        let fdd = fdd?;
        let s = rec.open("compile");
        let image = CompiledFdd::compile(&fdd);
        rec.close(s);
        Ok(Shadow {
            arena,
            chain,
            image: image?,
            compactions: 0,
        })
    })();
    rec.close(root);
    built
}

/// One edit batch through the shadow pipeline, stage by stage, in the
/// order `LiveMatcher::apply_edits` runs them; returns the stages' summed
/// time in ns.
fn shadow_edit(sh: &mut Shadow, edits: &[Edit], rec: &mut Recorder) -> Result<u64, ExecError> {
    let root = rec.root("shadow.edit");
    let t0 = Instant::now();
    let done = (|| -> Result<(), ExecError> {
        let old = sh.chain.root();
        let s = rec.open("maintain.sweep");
        let swept = sh.chain.apply_with_stats(&mut sh.arena, edits);
        rec.close(s);
        swept?;
        let s = rec.open("maintain.impact");
        let impact = sh
            .arena
            .diff(old, sh.chain.root())
            .map(ChangeImpact::from_discrepancies);
        rec.close(s);
        let impact = impact?;
        let s = rec.open("maintain.compact");
        let compacted = compact_if_garbage(&mut sh.arena, &mut sh.chain);
        rec.close(s);
        sh.compactions += usize::from(compacted);
        if impact.is_noop() {
            // The matcher publishes nothing for a batch that changes no
            // decision.
            return Ok(());
        }
        let s = rec.open("maintain.export_edit");
        let fdd = sh.arena.to_fdd(sh.chain.root());
        rec.close(s);
        let fdd = fdd?;
        let s = rec.open("recompile.splice");
        let next = sh.image.recompile(&fdd, &impact);
        rec.close(s);
        sh.image = next?.0;
        Ok(())
    })();
    let took = u64::try_from(t0.elapsed().as_nanos()).expect("edit under 584 years");
    rec.close(root);
    done?;
    Ok(took)
}

/// The compaction `MaintainedFdd` runs after every edit batch: once the
/// arena is mostly garbage, rebuild it keeping only the suffix chain.
/// Returns whether it compacted.
fn compact_if_garbage(arena: &mut ConsArena, chain: &mut SuffixChain) -> bool {
    let garbage = arena.len() > COMPACT_FLOOR
        && arena.len() > COMPACT_FACTOR * arena.live_from(chain.suffix_ids());
    if garbage {
        let mut roots = chain.suffix_ids().to_vec();
        let map = arena.compact_mapped(&mut roots);
        chain.remap(&map);
    }
    garbage
}

/// One request: wire bytes in hand → verdicts out. Returns the batch so a
/// traced run can replay it through the kernel alone.
fn serve_once(
    live: &LiveMatcher,
    schema: &Schema,
    wire: bytes::Bytes,
    scratch: &mut EngineScratch,
    verdicts: &mut Vec<Decision>,
    rec: &mut Recorder,
) -> Result<PacketBatch, String> {
    let batch = decode_batch(schema, wire, rec)?;
    let s = rec.open("live.classify");
    let served = live.classify_auto_into(&batch, scratch, verdicts);
    rec.close(s);
    served.map_err(|e| e.to_string())?;
    Ok(batch)
}

/// The first two steps of every serving request: `PacketTrace::decode`,
/// then `PacketBatch::from_trace`.
pub fn decode_batch(
    schema: &Schema,
    wire: bytes::Bytes,
    rec: &mut Recorder,
) -> Result<PacketBatch, String> {
    let s = rec.open("trace.decode");
    let trace = PacketTrace::decode(schema.clone(), wire);
    rec.close(s);
    let trace = trace.map_err(|e| e.to_string())?;
    let s = rec.open("batch.build");
    let batch = PacketBatch::from_trace(schema.clone(), trace.packets());
    rec.close(s);
    batch.map_err(|e| e.to_string())
}

/// The mean of counts that are mostly zero, where a median would hide the
/// few edits that do invalidate.
fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

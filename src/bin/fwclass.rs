//! `fwclass` — compile a firewall policy into the flat `fw-exec` matcher
//! and replay a packet trace through it; the command-line face of the
//! compiled classification runtime.
//!
//! ```text
//! USAGE:
//!     fwclass [--schema tcp-ip|paper] [--format dsl|iptables]
//!             [--trace FILE | --random N | --biased N | --zipf N]
//!             [--scatter F] [--zipf-s S] [--seed S]
//!             [--engine lanes|auto] [--threads T] [--cache CAP]
//!             [--save-trace FILE] [--save-compiled FILE]
//!             [--edits FILE] [--check] <policy.fw>
//!
//! ENGINE (default lanes):
//!     --engine lanes    the lane kernel over a transposed (field-major)
//!                       batch: chain-fused steps through quantized
//!                       ladders, padded search past the ladder budget
//!     --engine auto     race the calibrator's arms (FDD walk, lane kernel
//!                       at each thread count) over a sample of the trace,
//!                       then replay through the winner; prints each trial
//!                       and the chosen engine
//!     --threads T       worker threads for the sharded lane kernel and
//!                       the calibrator's thread ladder (default 1; 0 means
//!                       every available core)
//!     --cache CAP       front the replay with a CAP-entry decision cache:
//!                       hits serve from the cache, misses go through the
//!                       selected engine and are inserted back. The timed
//!                       replay runs warm (an untimed fill pass precedes
//!                       it) and a cache stats line (hits/misses/hit rate)
//!                       prints after it. With --engine auto the
//!                       calibrator races a `cache+` arm too and its trial
//!                       line is printed with the rest
//!
//! TRACE SOURCE (default --random 100000):
//!     --trace FILE    replay a trace file written by --save-trace (or the
//!                     bench harness) instead of synthesizing one. The file
//!                     must be exactly 4 + 8·n·d bytes for its packet count
//!                     n and the schema's d fields; any other length, or a
//!                     value outside its field's domain, exits 1
//!     --random N      N uniformly random packets over the schema
//!     --biased N      N packets biased toward the policy's rule regions
//!     --zipf N        N packets drawn Zipf-style from a pool of repeated
//!                     flows — the skewed shape the decision cache exists
//!                     for
//!     --scatter F     per-field re-randomisation probability for --biased
//!                     (default 0.3)
//!     --zipf-s S      Zipf exponent for --zipf (default 1.0)
//!     --seed S        RNG seed for synthesized traces (default 1)
//!
//! OUTPUT:
//!     compiler stats (nodes, arena bytes, max depth), the lane kernel's
//!     shape (passes, ladder and padded-search nodes, bytes), per-decision
//!     packet counts, and throughput for the compiled matcher vs the O(n·d)
//!     linear first-match scan
//!
//!     --check         also replay via the plain FDD walk and verify all
//!                     three engines agree on every packet of the trace
//!     --save-trace    write the replayed trace for later runs
//!     --save-compiled write the compiled matcher's wire image
//!
//! EDIT REPLAY:
//!     --edits FILE    after the trace replay, push the file's policy edits
//!                     one at a time through a LiveMatcher, timing its
//!                     edit path (rebuild -> diff -> compile -> publish)
//!                     against the full one (compare_firewalls, then
//!                     CompiledFdd::from_firewall) for each and verifying
//!                     both images agree on the whole trace; then apply
//!                     the whole file again as ONE batch on a fresh
//!                     matcher and check it lands on the same policy. Lines
//!                     are `insert IDX RULE`, `replace IDX RULE`,
//!                     `remove IDX`, `swap I J` (RULE in the fw_model rule
//!                     DSL); blank lines and `#` comments are skipped.
//! ```
//!
//! Policy files use the rule DSL of `fw_model::parse` or `iptables-save`
//! output with `--format iptables`, exactly as `fwdiff`.

use std::process::ExitCode;
use std::time::Instant;

use diverse_firewall::exec::CompiledFdd;
use diverse_firewall::model::{Decision, Firewall, Schema};
use diverse_firewall::synth::PacketTrace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fwclass [--schema tcp-ip|paper] [--format dsl|iptables] \
         [--trace FILE | --random N | --biased N | --zipf N] [--scatter F] \
         [--zipf-s S] [--seed S] [--engine lanes|auto] \
         [--threads T] [--cache CAP] [--save-trace FILE] \
         [--save-compiled FILE] [--edits FILE] [--check] <policy.fw>"
    );
    ExitCode::from(2)
}

enum TraceSource {
    Random(usize),
    Biased(usize),
    Zipf(usize),
    File(String),
}

fn main() -> ExitCode {
    let mut schema = Schema::tcp_ip();
    let mut iptables = false;
    let mut source = TraceSource::Random(100_000);
    let mut scatter = 0.3f64;
    let mut zipf_s = 1.0f64;
    let mut seed = 1u64;
    let mut auto = false;
    let mut threads = 1usize;
    let mut cache_capacity = 0usize;
    let mut save_trace: Option<String> = None;
    let mut save_compiled: Option<String> = None;
    let mut edits_file: Option<String> = None;
    let mut check = false;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next().as_deref() {
                Some("tcp-ip") => schema = Schema::tcp_ip(),
                Some("paper") => schema = Schema::paper_example(),
                other => {
                    eprintln!("fwclass: unknown schema {other:?}");
                    return usage();
                }
            },
            "--format" => match args.next().as_deref() {
                Some("dsl") => iptables = false,
                Some("iptables") => {
                    iptables = true;
                    schema = Schema::tcp_ip();
                }
                other => {
                    eprintln!("fwclass: unknown format {other:?}");
                    return usage();
                }
            },
            "--trace" => match args.next() {
                Some(f) => source = TraceSource::File(f),
                None => return usage(),
            },
            "--random" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => source = TraceSource::Random(n),
                None => {
                    eprintln!("fwclass: --random needs a packet count");
                    return usage();
                }
            },
            "--biased" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => source = TraceSource::Biased(n),
                None => {
                    eprintln!("fwclass: --biased needs a packet count");
                    return usage();
                }
            },
            "--zipf" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => source = TraceSource::Zipf(n),
                None => {
                    eprintln!("fwclass: --zipf needs a packet count");
                    return usage();
                }
            },
            "--scatter" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => scatter = f,
                _ => {
                    eprintln!("fwclass: --scatter needs a probability in 0..=1");
                    return usage();
                }
            },
            "--zipf-s" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(s) if s.is_finite() && s >= 0.0 => zipf_s = s,
                _ => {
                    eprintln!("fwclass: --zipf-s needs a finite non-negative exponent");
                    return usage();
                }
            },
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("fwclass: --seed needs an integer");
                    return usage();
                }
            },
            "--engine" => match args.next().as_deref() {
                Some("lanes") => auto = false,
                Some("auto") => auto = true,
                other => {
                    eprintln!("fwclass: unknown engine {other:?}");
                    return usage();
                }
            },
            "--threads" => match args.next().and_then(|n| n.parse().ok()) {
                Some(t) => threads = t,
                None => {
                    eprintln!("fwclass: --threads needs an integer (0 = all cores)");
                    return usage();
                }
            },
            "--cache" => match args.next().and_then(|n| n.parse().ok()) {
                Some(c) if c >= 1 => cache_capacity = c,
                _ => {
                    eprintln!("fwclass: --cache needs a positive entry capacity");
                    return usage();
                }
            },
            "--save-trace" => match args.next() {
                Some(f) => save_trace = Some(f),
                None => return usage(),
            },
            "--save-compiled" => match args.next() {
                Some(f) => save_compiled = Some(f),
                None => return usage(),
            },
            "--edits" => match args.next() {
                Some(f) => edits_file = Some(f),
                None => return usage(),
            },
            "--check" => check = true,
            "--help" | "-h" => {
                println!("fwclass: compiled packet classification over a policy file");
                return usage();
            }
            _ if arg.starts_with('-') => {
                eprintln!("fwclass: unknown flag {arg}");
                return usage();
            }
            _ => files.push(arg),
        }
    }
    let [policy_path] = files.as_slice() else {
        return usage();
    };

    let fw: Firewall = {
        let text = match std::fs::read_to_string(policy_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fwclass: {policy_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parsed = if iptables {
            diverse_firewall::model::iptables::parse(&text)
        } else {
            Firewall::parse(schema.clone(), &text)
        };
        match parsed {
            Ok(fw) => fw,
            Err(e) => {
                eprintln!("fwclass: {policy_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let schema = fw.schema().clone();

    let t = Instant::now();
    let compiled = match CompiledFdd::from_firewall(&fw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fwclass: compile failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compile_time = t.elapsed();
    let s = compiled.stats();
    println!(
        "compiled {} rules in {compile_time:?}: {} nodes ({} search, {} terminal), \
         {} cut points, {} arena bytes, depth <= {}",
        fw.len(),
        s.nodes,
        s.search_nodes,
        s.terminals,
        s.cut_points,
        s.arena_bytes,
        s.max_depth
    );
    let lanes = compiled.lane_stats();
    println!(
        "lane kernel: {} passes, {} fused, {} ladder and {} padded-search nodes, {} bytes",
        lanes.passes, lanes.fused_nodes, lanes.ladder_nodes, lanes.search_nodes, lanes.bytes
    );

    let trace = match &source {
        TraceSource::Random(n) => PacketTrace::random(schema.clone(), *n, seed),
        TraceSource::Biased(n) => PacketTrace::biased(&fw, *n, scatter, seed),
        TraceSource::Zipf(n) => {
            // Derive the flow-pool seed from the rank seed the same way
            // earlier revisions did internally, so `--zipf N --seed S`
            // reproduces the traces it always produced.
            PacketTrace::zipf(&fw, *n, zipf_s, seed, seed ^ 0x9e37_79b9_7f4a_7c15)
        }
        TraceSource::File(path) => match PacketTrace::read_from(schema.clone(), path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fwclass: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if trace.is_empty() {
        eprintln!("fwclass: empty trace");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &save_trace {
        if let Err(e) = trace.write_to(path) {
            eprintln!("fwclass: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote trace ({} packets) to {path}", trace.len());
    }
    if let Some(path) = &save_compiled {
        if let Err(e) = std::fs::write(path, &compiled.encode()[..]) {
            eprintln!("fwclass: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote compiled matcher to {path}");
    }

    // The engines run over a transposed batch; the transpose (with its
    // one-pass per-column validation) is deliberately outside the timed
    // region, the same way the bench harness amortises it over a replayed
    // batch.
    let batch =
        match diverse_firewall::exec::PacketBatch::from_trace(schema.clone(), trace.packets()) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("fwclass: trace does not fit the schema: {e}");
                return ExitCode::FAILURE;
            }
        };
    // The auto engine races the calibrator's arms over a trace sample
    // before the timed replay — calibration (and the FDD walk arm's
    // diagram) is set-up cost, like the transpose above.
    let calibrated = if auto {
        let fdd = match diverse_firewall::core::Fdd::from_firewall_fast(&fw) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("fwclass: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A zero capacity makes this the plain `calibrate` race; with
        // --cache the `cache+` arm runs too and prints with the trials.
        let cal = match diverse_firewall::exec::calibrate_with_cache(
            &compiled,
            Some(&fdd),
            Some(trace.packets()),
            &batch,
            threads,
            cache_capacity,
        ) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fwclass: calibration failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for t in &cal.trials {
            println!("  trial {:<14} {:7.2} Mpps", t.choice.to_string(), t.mpps);
        }
        println!("calibrated on {} packet(s): {}", cal.sample, cal.choice);
        Some((cal.choice, fdd))
    } else {
        None
    };

    let mut cache = if cache_capacity > 0 {
        match diverse_firewall::exec::DecisionCache::new(schema.clone(), cache_capacity) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("fwclass: --cache: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // What the lane kernel runs for --threads on this machine and batch:
    // used by the non-calibrated paths and printed with the result.
    let workers = diverse_firewall::exec::lane_workers(threads, batch.len());
    let mut decisions = Vec::new();
    // With --cache, one untimed fill pass leaves the trace's distinct
    // tuples resident so the timed replay measures warm serving — the
    // steady state a long-lived flow cache actually runs in. The batch
    // front end partitions before inserting, so a cold pass can never hit
    // its own insertions and would only time the fill.
    let cached_plan = cache.as_mut().map(|cache| {
        use diverse_firewall::exec::{EngineChoice, EngineKind};
        let (choice, walk) = match &calibrated {
            Some((choice, fdd)) => (choice.with_cache(), Some(fdd)),
            None => (
                EngineChoice {
                    kind: EngineKind::Lanes,
                    threads: workers,
                    cached: true,
                },
                None,
            ),
        };
        let mut scratch = diverse_firewall::exec::EngineScratch::default();
        let fill = choice.classify_cached_into(
            &compiled,
            walk,
            &batch,
            cache,
            &mut scratch,
            &mut decisions,
        );
        cache.reset_stats();
        (choice, walk, scratch, fill)
    });
    let t = Instant::now();
    let classified = if let Some((choice, walk, mut scratch, fill)) = cached_plan {
        let cache = cache.as_mut().expect("plan implies cache");
        fill.and_then(|()| {
            choice.classify_cached_into(
                &compiled,
                walk,
                &batch,
                cache,
                &mut scratch,
                &mut decisions,
            )
        })
    } else {
        match &calibrated {
            Some((choice, fdd)) => choice.classify_into(
                &compiled,
                Some(fdd),
                Some(trace.packets()),
                &batch,
                &mut diverse_firewall::exec::EngineScratch::default(),
                &mut decisions,
            ),
            None => compiled.classify_lanes_par_into(&batch, workers, &mut decisions),
        }
    };
    if let Err(e) = classified {
        eprintln!("fwclass: classification failed: {e}");
        return ExitCode::FAILURE;
    }
    let compiled_time = t.elapsed();

    let t = Instant::now();
    let linear: Vec<Decision> = trace
        .packets()
        .iter()
        .map(|p| fw.decision_for(p).expect("validated trace packets match"))
        .collect();
    let linear_time = t.elapsed();

    let mut counts = [0usize; Decision::ALL.len()];
    for d in &decisions {
        counts[d.code() as usize] += 1;
    }
    for d in Decision::ALL {
        println!("{d}: {} packet(s)", counts[d.code() as usize]);
    }

    let mpps = |n: usize, secs: f64| n as f64 / secs / 1e6;
    let n = trace.len();
    let engine_label = match &calibrated {
        Some((choice, _)) if cache.is_some() => format!("auto -> {}", choice.with_cache()),
        Some((choice, _)) => format!("auto -> {choice}"),
        None => {
            let base = if workers != 1 {
                format!("lanes, {workers} thread(s)")
            } else {
                "lanes".to_string()
            };
            if cache.is_some() {
                format!("cache+{base}")
            } else {
                base
            }
        }
    };
    println!(
        "compiled matcher ({engine_label}): {compiled_time:?} ({:.2} Mpps, compile {:.0} µs) | \
         linear scan: {linear_time:?} ({:.2} Mpps) | speedup x{:.2}",
        mpps(n, compiled_time.as_secs_f64()),
        compile_time.as_secs_f64() * 1e6,
        mpps(n, linear_time.as_secs_f64()),
        linear_time.as_secs_f64() / compiled_time.as_secs_f64()
    );
    if let Some(cache) = &cache {
        let s = cache.stats();
        println!(
            "cache: {} slot(s), {} resident | {} hit(s), {} miss(es), {} insertion(s), \
             {} evicted | hit rate {:.1}%",
            cache.capacity(),
            cache.len(),
            s.hits,
            s.misses,
            s.insertions,
            s.evicted,
            100.0 * s.hit_rate()
        );
    }

    if decisions != linear {
        eprintln!("fwclass: BUG: compiled matcher ({engine_label}) disagrees with linear scan");
        return ExitCode::FAILURE;
    }
    if check {
        let fdd = match diverse_firewall::core::Fdd::from_firewall_fast(&fw) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("fwclass: {e}");
                return ExitCode::FAILURE;
            }
        };
        let t = Instant::now();
        let walked: Vec<Decision> = trace.packets().iter().map(|p| fdd.evaluate(p)).collect();
        let walk_time = t.elapsed();
        if walked != decisions {
            eprintln!("fwclass: BUG: FDD walk disagrees with compiled matcher");
            return ExitCode::FAILURE;
        }
        println!(
            "check: linear scan == FDD walk ({walk_time:?}, {:.2} Mpps) == compiled matcher \
             on all {n} packets",
            mpps(n, walk_time.as_secs_f64())
        );
    }

    if let Some(path) = &edits_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fwclass: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let edits = match parse_edits(&schema, &text) {
            Ok(e) => e,
            Err(m) => {
                eprintln!("fwclass: {path}: {m}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(code) = replay_edits(&fw, &trace, &edits) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Parses the `--edits` file: one edit per line (`insert IDX RULE`,
/// `replace IDX RULE`, `remove IDX`, `swap I J`), rules in the DSL of
/// `fw_model::parse`; blank lines and `#` comments skipped.
fn parse_edits(schema: &Schema, text: &str) -> Result<Vec<diverse_firewall::core::Edit>, String> {
    use diverse_firewall::core::Edit;
    let mut edits = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: String| format!("edits line {}: {m}", lineno + 1);
        let (op, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(format!("`{line}` has no operand")))?;
        let rest = rest.trim();
        let index = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| err(format!("bad index `{s}`")))
        };
        match op {
            "insert" | "replace" => {
                let (idx, rule_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(format!("{op} needs an index and a rule")))?;
                let index = index(idx)?;
                let rule = diverse_firewall::model::parse::parse_rule(schema, rule_text.trim())
                    .map_err(|e| err(e.to_string()))?;
                edits.push(if op == "insert" {
                    Edit::Insert { index, rule }
                } else {
                    Edit::Replace { index, rule }
                });
            }
            "remove" => edits.push(Edit::Remove {
                index: index(rest)?,
            }),
            "swap" => {
                let (a, b) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("swap needs two indices".into()))?;
                edits.push(Edit::Swap {
                    first: index(a.trim())?,
                    second: index(b.trim())?,
                });
            }
            other => return Err(err(format!("unknown edit `{other}`"))),
        }
    }
    Ok(edits)
}

/// Pushes each edit through one
/// [`LiveMatcher`](diverse_firewall::exec::LiveMatcher), timing its edit
/// path (rebuild, diff, compile, publish) against the full one (the §3–§5
/// comparison for the impact, then `from_firewall`) and checking after
/// every edit that the published image decides the whole replay trace as
/// a fresh compile of the edited policy does. Then applies the whole file
/// as one batch on a fresh matcher, which must land on the same policy.
fn replay_edits(
    fw: &Firewall,
    trace: &PacketTrace,
    edits: &[diverse_firewall::core::Edit],
) -> Result<(), ExitCode> {
    use diverse_firewall::core::{compare_firewalls, ChangeImpact};
    use diverse_firewall::exec::LiveMatcher;
    if edits.is_empty() {
        println!("edit replay: no edits in file");
        return Ok(());
    }
    let fail = |what: &str, err: &dyn std::fmt::Display| {
        eprintln!("fwclass: {what}: {err}");
        ExitCode::FAILURE
    };
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let live = LiveMatcher::new(fw.clone()).map_err(|e| fail("building the matcher", &e))?;
    let mut cur_fw = fw.clone();
    let (mut full_out, mut edit_out) = (Vec::new(), Vec::new());
    let (mut e2e_full_total, mut e2e_edit_total) = (0f64, 0f64);
    for (i, e) in edits.iter().enumerate() {
        let after = e
            .apply(&cur_fw)
            .map_err(|err| fail(&format!("edit {i}"), &err))?;

        let t = Instant::now();
        let report = live
            .apply_edits(std::slice::from_ref(e))
            .map_err(|err| fail(&format!("edit {i}"), &err))?;
        let edit_us = us(t.elapsed());

        let t = Instant::now();
        let impact = compare_firewalls(&cur_fw, &after)
            .map(ChangeImpact::from_discrepancies)
            .map_err(|err| fail(&format!("edit {i}: full comparison"), &err))?;
        let impact_us = us(t.elapsed());
        let t = Instant::now();
        let full = CompiledFdd::from_firewall(&after)
            .map_err(|err| fail(&format!("edit {i}: full recompile"), &err))?;
        let full_us = us(t.elapsed());

        // Schema-clamped on both sides: a per-region sum can exceed the
        // packet space; never report more packets than exist.
        let affected = impact.affected_packets_in(after.schema());
        if live.policy() != after || report.affected_packets != affected {
            eprintln!("fwclass: BUG: edit {i}: the matcher's policy or impact disagrees");
            return Err(ExitCode::FAILURE);
        }
        let image = live.load();
        full.classify_batch_into(trace.packets(), &mut full_out);
        image.classify_batch_into(trace.packets(), &mut edit_out);
        if full_out != edit_out {
            eprintln!("fwclass: BUG: edit {i}: published image disagrees with full recompile");
            return Err(ExitCode::FAILURE);
        }
        let e2e_full = impact_us + full_us;
        println!(
            "edit {i}: apply_edits {edit_us:.0} µs ({} nodes, swapped: {}) | \
             full: impact {impact_us:.0} + from_firewall {full_us:.0} µs = {e2e_full:.0} µs | \
             {} changed region(s), {affected} affected packet(s)",
            image.node_count(),
            report.swapped,
            impact.discrepancies().len(),
        );
        e2e_full_total += e2e_full;
        e2e_edit_total += edit_us;
        cur_fw = after;
    }
    println!(
        "edit replay: {} edit(s), edit-to-image: full pipeline {e2e_full_total:.0} µs vs \
         apply_edits {e2e_edit_total:.0} µs (x{:.1}), all verified against the trace",
        edits.len(),
        e2e_full_total / e2e_edit_total
    );

    // The same file applied as ONE batch to a fresh matcher — the path a
    // multi-edit call takes. Must land on exactly the policy and semantics
    // the edit-by-edit replay reached.
    let batch_live =
        LiveMatcher::new(fw.clone()).map_err(|e| fail("building the batch matcher", &e))?;
    let t = Instant::now();
    let report = batch_live
        .apply_edits(edits)
        .map_err(|e| fail("batch apply", &e))?;
    let batch_us = us(t.elapsed());
    if batch_live.policy() != cur_fw {
        eprintln!("fwclass: BUG: one-batch replay lands on a different policy");
        return Err(ExitCode::FAILURE);
    }
    let image = batch_live.load();
    for p in trace.packets() {
        if image.classify(p) != cur_fw.decision_for(p).expect("comprehensive policy") {
            eprintln!("fwclass: BUG: one-batch image disagrees with first-match at {p}");
            return Err(ExitCode::FAILURE);
        }
    }
    println!(
        "batch replay: {} edit(s) as one batch in {batch_us:.0} µs over {} rules | \
         swapped: {} | {} affected packet(s), verified against the trace",
        edits.len(),
        report.maintain.sweep_levels,
        report.swapped,
        report.affected_packets,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use diverse_firewall::core::{ChangeImpact, Edit};

    fn schema() -> Schema {
        Schema::tcp_ip()
    }

    #[test]
    fn parse_edits_accepts_all_four_ops() {
        let text = "\
# tighten, then shuffle
insert 0 sport=80 -> discard
replace 1 * -> accept
remove 2
swap 0 3
";
        let edits = parse_edits(&schema(), text).unwrap();
        assert_eq!(edits.len(), 4);
        assert!(matches!(edits[0], Edit::Insert { index: 0, .. }));
        assert!(matches!(edits[1], Edit::Replace { index: 1, .. }));
        assert!(matches!(edits[2], Edit::Remove { index: 2 }));
        assert!(matches!(
            edits[3],
            Edit::Swap {
                first: 0,
                second: 3
            }
        ));
    }

    #[test]
    fn parse_edits_reports_the_failing_line() {
        for (text, needle) in [
            ("replace x * -> accept\n", "bad index"),
            ("widen 0\n", "unknown edit"),
            ("swap 1\n", "swap needs two indices"),
            ("insert 0\n", "insert needs an index and a rule"),
        ] {
            let err = parse_edits(&schema(), text).unwrap_err();
            assert!(err.contains("line 1"), "missing line number: {err}");
            assert!(err.contains(needle), "expected `{needle}` in: {err}");
        }
    }

    /// Regression for the unclamped `affected_packets` rows the recompile
    /// bench used to print: every packet count this binary reports goes
    /// through the schema clamp, which can never exceed the packet space.
    #[test]
    fn reported_affected_packets_never_exceed_the_packet_space() {
        let schema = schema();
        let fw = Firewall::parse(schema.clone(), "* -> accept\n").unwrap();
        // Flip the whole domain: the raw per-region sum equals the entire
        // packet space; the clamped count must not pass it.
        let edits = [Edit::Replace {
            index: 0,
            rule: fw.rules()[0].with_decision(Decision::Discard),
        }];
        let (_, impact) = ChangeImpact::of_edits(&fw, &edits).unwrap();
        assert_eq!(impact.affected_packets_in(&schema), schema.packet_space());
        assert!(impact.affected_packets_in(&schema) <= schema.packet_space());
    }
}

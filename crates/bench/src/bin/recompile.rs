//! Edit-to-image benchmark: applies deterministic edit batches (sizes
//! 1/4/16, drawn from the `fw_synth::evolve` administrative-action mix) to
//! the Fig. 12 real-life-sized and Fig. 13 `n=500` synthetic policies,
//! then times the whole edit-to-image pipeline both ways and writes
//! `BENCH_recompile.json`:
//!
//! * the **edit** path — `LiveMatcher::apply_edits` end to end (`edit_us`):
//!   stage the batch on the rule list, rebuild the diagram by fast
//!   construction, diff it against the published diagram for the impact,
//!   compile and publish;
//! * the **full** path — whole-policy §3–§5 comparison for the impact
//!   (`impact_full_us`), then `CompiledFdd::from_firewall` of the
//!   post-edit policy (`full_us`).
//!
//! `e2e_full_us` sums the full path, and `e2e_speedup` is `e2e_full_us`
//! over `edit_us`. `impact_us` times `ChangeImpact::of_edits`, the edit
//! path's impact half on its own. Each timing is the best of the repeats.
//!
//! Run with: `cargo run --release -p fw-bench --bin recompile`
//! (CI runs `-- --smoke`: one repeat, smaller oracle trace, same rows).
//!
//! Every policy and edit batch comes from fixed seeds, so matcher shapes
//! are reproducible run to run (only timings vary with the machine). The
//! run is also an oracle, checked before any timing: the matcher lands on
//! the edited policy, its impact counts the same affected packets as
//! `ChangeImpact::of_edits` and the full comparison, its published image
//! encodes byte-identical to a fresh compile of the post-edit policy and
//! decides every packet of a replay trace as the linear first-match scan
//! does, and the image round-trips the wire format.

use std::fmt::Write as _;
use std::time::Instant;

use fw_core::{compare_firewalls, ChangeImpact, Edit};
use fw_exec::{CompiledFdd, LiveMatcher};
use fw_model::{Decision, Firewall};
use fw_synth::{evolve, EvolutionProfile, PacketTrace};

const BATCHES: [usize; 3] = [1, 4, 16];

struct Mode {
    repeats: u32,
    packets: usize,
}

struct Row {
    workload: String,
    rules: usize,
    batch: usize,
    affected_packets: u128,
    impact_us: f64,
    edit_us: f64,
    impact_full_us: f64,
    full_us: f64,
    nodes: usize,
    lane_bytes: usize,
}

impl Row {
    /// The same change on the full path: whole-policy impact comparison,
    /// then a full `from_firewall` of the post-edit policy.
    fn e2e_full_us(&self) -> f64 {
        self.impact_full_us + self.full_us
    }
}

/// Minimum over repeats: the best observed run carries the least
/// scheduler and allocator interference, which is what a latency
/// comparison between two deterministic pipelines should measure.
fn best_us(times: Vec<f64>) -> f64 {
    times.into_iter().fold(f64::INFINITY, f64::min) * 1e6
}

/// Single-rule rows use the pure decision-flip profile — the paper's
/// "tighten or loosen one rule" edit, the shallowest realistic change.
fn flip_only() -> EvolutionProfile {
    EvolutionProfile {
        w_block_threat: 0,
        w_open_service: 0,
        w_delete: 0,
        w_swap: 0,
        w_flip_decision: 1,
    }
}

/// A deterministic edit batch with a non-trivial impact, plus the timed
/// impact analysis for the salt that produced it (flips of shadowed rules
/// are no-ops; those salts are skipped so every row publishes an image).
fn edit_batch(fw: &Firewall, k: usize, seed: u64) -> (Vec<Edit>, Firewall, ChangeImpact, f64) {
    let profile = if k == 1 {
        flip_only()
    } else {
        EvolutionProfile::default()
    };
    for salt in 0..64u64 {
        let steps = evolve(fw, k, &profile, seed + salt * 7919);
        let edits: Vec<Edit> = steps.into_iter().map(|s| s.edit).collect();
        let t = Instant::now();
        let (after, impact) = ChangeImpact::of_edits(fw, &edits).expect("evolution edits apply");
        let impact_us = t.elapsed().as_secs_f64() * 1e6;
        if !impact.is_noop() {
            return (edits, after, impact, impact_us);
        }
    }
    panic!("no effective edit batch for k={k} within 64 salts");
}

/// The oracle, run before any timing. Returns the published image.
fn check(
    name: &str,
    k: usize,
    fw: &Firewall,
    edits: &[Edit],
    after: &Firewall,
    impact: &ChangeImpact,
    trace: &PacketTrace,
) -> std::sync::Arc<CompiledFdd> {
    let schema = fw.schema();
    let live = LiveMatcher::new(fw.clone()).expect("benchmark policies serve");
    let report = live.apply_edits(edits).expect("evolution edits apply");
    assert_eq!(
        &live.policy(),
        after,
        "{name}/k={k}: matcher policy diverges"
    );
    assert!(
        report.swapped,
        "{name}/k={k}: an effective batch must publish"
    );
    assert_eq!(
        report.affected_packets,
        impact.affected_packets_in(schema),
        "{name}/k={k}: matcher impact diverges from of_edits"
    );
    let full_impact =
        ChangeImpact::from_discrepancies(compare_firewalls(fw, after).expect("policies compare"));
    assert_eq!(
        report.affected_packets,
        full_impact.affected_packets_in(schema),
        "{name}/k={k}: matcher impact diverges from compare_firewalls"
    );

    let image = live.load();
    let full = CompiledFdd::from_firewall(after).expect("post-edit policies compile");
    assert!(
        image.encode() == full.encode(),
        "{name}/k={k}: published image differs from a fresh compile"
    );
    let mut image_out = Vec::new();
    image.classify_batch_into(trace.packets(), &mut image_out);
    let linear: Vec<Decision> = trace
        .packets()
        .iter()
        .map(|p| after.decision_for(p).expect("comprehensive policy"))
        .collect();
    assert_eq!(image_out, linear, "{name}/k={k}: published image diverges");
    CompiledFdd::decode(schema.clone(), image.encode()).expect("image round-trips");
    image
}

fn bench_workload(rows: &mut Vec<Row>, mode: &Mode, name: &str, fw: &Firewall, seed: u64) {
    let trace = PacketTrace::biased(fw, mode.packets, 0.3, seed);
    for (bi, k) in BATCHES.into_iter().enumerate() {
        let (edits, after, impact, impact_us) = edit_batch(fw, k, seed + bi as u64);
        let image = check(name, k, fw, &edits, &after, &impact, &trace);

        // Both pipelines' repeats interleave round by round, so a slow
        // scheduler phase penalises the edit and full paths alike instead
        // of skewing whichever happened to run through it. Each edit
        // repeat runs on a fresh matcher, built untimed: a server pays
        // for its matcher once at start-up.
        let mut edit_times = Vec::new();
        let mut impact_full_times = Vec::new();
        let mut full_times = Vec::new();
        for _ in 0..mode.repeats {
            let live = LiveMatcher::new(fw.clone()).expect("benchmark policies serve");
            let t = Instant::now();
            let report = live.apply_edits(&edits).expect("evolution edits apply");
            edit_times.push(t.elapsed().as_secs_f64());
            std::hint::black_box(report);

            let t = Instant::now();
            std::hint::black_box(
                compare_firewalls(fw, &after).expect("benchmark policies compare"),
            );
            impact_full_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let full = CompiledFdd::from_firewall(&after).expect("post-edit policies compile");
            full_times.push(t.elapsed().as_secs_f64());
            std::hint::black_box(full);
        }

        let row = Row {
            workload: name.to_owned(),
            rules: fw.len(),
            batch: k,
            affected_packets: impact.affected_packets_in(fw.schema()),
            impact_us,
            edit_us: best_us(edit_times),
            impact_full_us: best_us(impact_full_times),
            full_us: best_us(full_times),
            nodes: image.node_count(),
            lane_bytes: image.lane_stats().bytes,
        };
        println!(
            "{name} k={k}: e2e full {:.0} µs (impact {:.0} + from_firewall {:.0}) | \
             apply_edits {:.0} µs (x{:.1}) | of_edits {:.0} µs | {} nodes",
            row.e2e_full_us(),
            row.impact_full_us,
            row.full_us,
            row.edit_us,
            row.e2e_full_us() / row.edit_us,
            row.impact_us,
            row.nodes,
        );
        rows.push(row);
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke {
        Mode {
            repeats: 1,
            packets: 2_000,
        }
    } else {
        Mode {
            repeats: 9,
            packets: 8_000,
        }
    };
    let started = Instant::now();
    let mut rows = Vec::new();

    bench_workload(
        &mut rows,
        &mode,
        "fig12/avg(42)",
        &fw_synth::university_average(),
        10,
    );
    bench_workload(
        &mut rows,
        &mode,
        "fig12/large(661)",
        &fw_synth::university_large(),
        20,
    );
    bench_workload(
        &mut rows,
        &mode,
        "fig13/synth-n500",
        &fw_synth::Synthesizer::new(302).firewall(500),
        40,
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"repeats\": {},", mode.repeats);
    let _ = writeln!(json, "  \"packets_per_trace\": {},", mode.packets);
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"rules\": {}, \"batch\": {}, \
             \"affected_packets\": {}, \"impact_us\": {:.1}, \"edit_us\": {:.1}, \
             \"impact_full_us\": {:.1}, \"full_us\": {:.1}, \"e2e_full_us\": {:.1}, \
             \"e2e_speedup\": {:.2}, \"nodes\": {}, \"lane_bytes\": {}}}{sep}",
            r.workload,
            r.rules,
            r.batch,
            r.affected_packets,
            r.impact_us,
            r.edit_us,
            r.impact_full_us,
            r.full_us,
            r.e2e_full_us(),
            r.e2e_full_us() / r.edit_us,
            r.nodes,
            r.lane_bytes
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total_ms\": {:.3}\n}}",
        started.elapsed().as_secs_f64() * 1e3
    );
    std::fs::write("BENCH_recompile.json", &json).expect("write BENCH_recompile.json");
    println!("wrote BENCH_recompile.json in {:?}", started.elapsed());
}

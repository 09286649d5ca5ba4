//! Edit-to-image benchmark: applies deterministic edit batches (sizes
//! 1/4/16, drawn from the `fw_synth::evolve` administrative-action mix) to
//! the Fig. 12 real-life-sized and Fig. 13 `n=500` synthetic policies,
//! then times the whole edit-to-image pipeline both ways and writes
//! `BENCH_recompile.json`:
//!
//! * the **maintained** path — patch a `MaintainedFdd` suffix chain
//!   (`maintain_us`), short-circuit diff for the impact
//!   (`impact_local_us`), export the patched diagram (`export_fdd_us`),
//!   compile it (`compile_us`) — what `LiveMatcher::apply_edits` runs;
//! * the **full** path — whole-policy comparison for the impact
//!   (`impact_full_us`), then `CompiledFdd::from_firewall` of the
//!   post-edit policy (`full_us`: FDD rebuild from the rule list, reduce,
//!   compile).
//!
//! The `e2e_*` fields sum each pipeline end to end; `impact_us` keeps
//! timing `ChangeImpact::of_edits` for continuity with earlier runs of
//! this file.
//!
//! Run with: `cargo run --release -p fw-bench --bin recompile`
//! (CI runs `-- --smoke`: one repeat, smaller oracle trace, same rows).
//!
//! Every policy and edit batch comes from fixed seeds, so matcher shapes
//! are reproducible run to run (only timings vary with the machine). The
//! run is also an oracle: before any timing, the bin asserts the image
//! compiled from the maintained diagram, a fresh compile of the post-edit
//! policy, and the linear first-match scan agree on every packet of a
//! replay trace, that the maintained impact counts the same affected
//! packets as `ChangeImpact::of_edits`, and that the image round-trips the
//! wire format.

use std::fmt::Write as _;
use std::time::Instant;

use fw_core::{compare_firewalls, ChangeImpact, Edit, Fdd, MaintainStats, MaintainedFdd};
use fw_exec::CompiledFdd;
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
    maintain_us: f64,
    impact_local_us: f64,
    impact_full_us: f64,
    export_fdd_us: f64,
    compile_us: f64,
    full_us: f64,
    nodes: usize,
    lane_arena_bytes: usize,
    maintain: MaintainStats,
}

impl Row {
    /// Edit-to-image latency on the maintained path: patch the chain,
    /// diff for the impact, export the diagram, compile the image.
    fn e2e_maintained_us(&self) -> f64 {
        self.maintain_us + self.impact_local_us + self.export_fdd_us + self.compile_us
    }

    /// The same change without maintenance: whole-policy impact
    /// comparison, then a full `from_firewall` of the post-edit policy.
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
/// "tighten or loosen one rule" edit, the shallowest realistic change and
/// the one the maintained path must win on.
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

fn bench_workload(rows: &mut Vec<Row>, mode: &Mode, name: &str, fw: &Firewall, seed: u64) {
    // Built once per workload, untimed: a server pays for the chain at
    // startup, then every edit batch below is incremental.
    let maintained_base = MaintainedFdd::new(fw.clone()).expect("benchmark policies maintain");
    let trace = PacketTrace::biased(fw, mode.packets, 0.3, seed);
    for (bi, k) in BATCHES.into_iter().enumerate() {
        let (edits, after, impact, impact_us) = edit_batch(fw, k, seed + bi as u64);

        // Both pipelines' repeats interleave round by round, so a slow
        // scheduler phase penalises the maintained and full paths alike
        // instead of skewing whichever happened to run through it. The
        // maintained side runs each repeat on a fresh clone of the
        // per-workload chain (cloning is untimed; a server edits its one
        // long-lived chain in place); the full side repeats the old
        // whole-policy impact pipeline (§4 shaping + §5 comparison over
        // both rule lists) and the full compile of the post-edit policy.
        let mut maintain_times = Vec::new();
        let mut local_times = Vec::new();
        let mut export_times = Vec::new();
        let mut compile_times = Vec::new();
        let mut impact_full_times = Vec::new();
        let mut full_times = Vec::new();
        let mut maintained_out = None;
        for _ in 0..mode.repeats {
            let mut m = maintained_base.clone();
            let old_root = m.root();
            let t = Instant::now();
            let m_stats = m
                .apply_with_stats(&edits)
                .expect("evolution edits maintain");
            maintain_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let m_impact = m.diff_from(old_root).expect("maintained roots diff");
            local_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let m_fdd = m.to_fdd().expect("maintained chain exports");
            export_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let image = CompiledFdd::compile(&m_fdd).expect("maintained diagrams compile");
            compile_times.push(t.elapsed().as_secs_f64());
            maintained_out = Some((m_impact, m_fdd, m_stats, image));

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
        let (m_impact, m_fdd, m_stats, image) = maintained_out.expect("at least one repeat");

        // Batched-maintained-vs-full agreement oracle: the coalesced
        // sweep's exported diagram must decide every trace packet exactly
        // as a fresh from-scratch rebuild of the post-edit policy (CI
        // runs this in smoke mode for every batch size; a divergence
        // fails the job).
        let fresh_fdd = Fdd::from_firewall_fast(&after)
            .expect("post-edit policies are comprehensive")
            .reduced();
        for p in trace.packets() {
            assert_eq!(
                m_fdd.evaluate(p),
                fresh_fdd.evaluate(p),
                "{name}/k={k}: maintained FDD diverges from fresh rebuild at {p}"
            );
        }

        // The maintained impact must count exactly the packets the
        // of_edits analysis counts.
        assert_eq!(
            m_impact.affected_packets(),
            impact.affected_packets(),
            "{name}/k={k}: maintained impact diverges from of_edits"
        );

        // The published image == a fresh compile == linear scan on the
        // whole trace, and the image survives the wire format's
        // independent re-validation.
        let full = CompiledFdd::from_firewall(&after).expect("post-edit policies compile");
        let mut image_out = Vec::new();
        let mut full_out = Vec::new();
        image.classify_batch_into(trace.packets(), &mut image_out);
        full.classify_batch_into(trace.packets(), &mut full_out);
        let linear: Vec<Decision> = trace
            .packets()
            .iter()
            .map(|p| after.decision_for(p).expect("comprehensive policy"))
            .collect();
        assert_eq!(
            image_out, full_out,
            "{name}/k={k}: maintained image diverges"
        );
        assert_eq!(image_out, linear, "{name}/k={k}: compiled diverges");
        CompiledFdd::decode(fw.schema().clone(), image.encode()).expect("image round-trips");

        let row = Row {
            workload: name.to_owned(),
            rules: fw.len(),
            batch: k,
            affected_packets: impact.affected_packets_in(fw.schema()),
            impact_us,
            maintain_us: best_us(maintain_times),
            impact_local_us: best_us(local_times),
            impact_full_us: best_us(impact_full_times),
            export_fdd_us: best_us(export_times),
            compile_us: best_us(compile_times),
            full_us: best_us(full_times),
            nodes: image.node_count(),
            lane_arena_bytes: image.stats().lane_arena_bytes,
            maintain: m_stats,
        };
        println!(
            "{name} k={k}: e2e full {:.0} µs | e2e maintained {:.0} µs (x{:.1}) | \
             maintain {:.0} + diff {:.0} + export {:.0} + compile {:.0} µs | \
             plan {:?} corridors {} span {} prepends {} copied {} | {} nodes",
            row.e2e_full_us(),
            row.e2e_maintained_us(),
            row.e2e_full_us() / row.e2e_maintained_us(),
            row.maintain_us,
            row.impact_local_us,
            row.export_fdd_us,
            row.compile_us,
            m_stats.plan,
            m_stats.corridors,
            m_stats.corridor_span,
            m_stats.prepends,
            m_stats.copied,
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
             \"affected_packets\": {}, \"impact_us\": {:.1}, \"maintain_us\": {:.1}, \
             \"impact_local_us\": {:.1}, \"impact_full_us\": {:.1}, \
             \"export_fdd_us\": {:.1}, \"compile_us\": {:.1}, \"full_us\": {:.1}, \
             \"e2e_maintained_us\": {:.1}, \"e2e_full_us\": {:.1}, \
             \"e2e_speedup\": {:.2}, \
             \"plan\": \"{:?}\", \"corridors\": {}, \"corridor_span\": {}, \
             \"tail_shared\": {}, \"sweep_levels\": {}, \"prepends\": {}, \
             \"copied\": {}, \
             \"nodes\": {}, \"lane_arena_bytes\": {}}}{sep}",
            r.workload,
            r.rules,
            r.batch,
            r.affected_packets,
            r.impact_us,
            r.maintain_us,
            r.impact_local_us,
            r.impact_full_us,
            r.export_fdd_us,
            r.compile_us,
            r.full_us,
            r.e2e_maintained_us(),
            r.e2e_full_us(),
            r.e2e_full_us() / r.e2e_maintained_us(),
            r.maintain.plan,
            r.maintain.corridors,
            r.maintain.corridor_span,
            r.maintain.tail_shared,
            r.maintain.sweep_levels,
            r.maintain.prepends,
            r.maintain.copied,
            r.nodes,
            r.lane_arena_bytes
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

//! Multi-tenant fleet benchmark: hosts perturb-5% variant fleets of the
//! Fig. 12 policies in one shared `fw-fleet` registry, measures resident
//! bytes per tenant against the independent-serving baseline (one
//! `LiveMatcher` worth of state per tenant), and times aggregate
//! round-robin classification through the shared compiled pool: one
//! packet per call (`serve_mpps`), and 64-packet bursts through the
//! pool's lane loop (`serve_batch_mpps`). Writes `BENCH_fleet.json`.
//!
//! The headline number is `memory_ratio`: independent bytes/tenant over
//! registry bytes/tenant. Independent serving pays, per tenant, what one
//! `LiveMatcher` keeps between edits: the compiled image (its canonical
//! arenas plus the lane kernel) and the rule list. The source diagram it also keeps is
//! left out, so the baseline errs low. The registry pays the hash-consed
//! union of all tenant diagrams, one interned copy of each distinct rule,
//! and one deduplicated compiled pool. On the 10k-tenant
//! rows the run *asserts* the ratio is at least 5 — the structural-
//! sharing claim this subsystem exists for — and fails loudly otherwise.
//! The baseline is measured, not modelled: a sample of tenants is
//! actually built standalone and averaged, then scaled to the fleet.
//!
//! Run with: `cargo run --release -p fw-bench --bin fleet`
//! (CI runs `-- --smoke`: one small fleet of the 42-rule policy, same
//! row shape and agreement oracle, no 10k rows, finishes in seconds).
//!
//! Fleets come from fixed seeds (`fw_synth::perturb_fleet`), so fleet
//! shapes, dedup counts and sharing ratios are reproducible run to run;
//! only timings vary with the machine. Before any timing, the run
//! asserts registry decisions agree with each sampled tenant's
//! standalone first-match scan on a biased trace, and that the bursts'
//! decisions equal the scalar ones and first match.

use std::fmt::Write as _;
use std::time::Instant;

use fw_exec::{CompiledFdd, PacketBatch};
use fw_fleet::{PolicyRegistry, TenantId};
use fw_model::{Firewall, Rule};
use fw_synth::{perturb_fleet, PacketTrace};

/// Tenants actually built standalone for the baseline average (and
/// agreement-checked against the registry).
const BASELINE_SAMPLE: usize = 8;

/// Packets per burst of the batch serving row.
const BURST: usize = 64;

/// Bursts checked against the scalar path and first match before timing.
const CHECKED_BURSTS: usize = 64;

struct Row {
    workload: String,
    tenants: usize,
    percent: u32,
    distinct_policies: usize,
    distinct_rules: usize,
    arena_nodes_live: usize,
    pool_nodes: usize,
    build_ms: f64,
    registry_bytes: usize,
    registry_bytes_per_tenant: usize,
    independent_bytes_per_tenant: usize,
    memory_ratio: f64,
    serve_mpps: f64,
    serve_batch_mpps: f64,
    checked_packets: usize,
}

/// One fleet row's shape: who, how many, how perturbed, how probed.
struct Spec {
    tenants: usize,
    percent: u32,
    seed: u64,
    packets: usize,
    /// `Some(min)` on acceptance rows: fail the run unless the measured
    /// memory ratio clears `min`.
    assert_ratio: Option<f64>,
}

/// Approximate heap bytes of `fw`'s rule list: each rule plus its
/// predicate's heap (the set vector, and the runs of every set of two runs
/// or more).
fn rule_list_bytes(fw: &Firewall) -> usize {
    fw.rules()
        .iter()
        .map(|r| std::mem::size_of::<Rule>() + r.predicate().heap_bytes())
        .sum()
}

fn bench_fleet(rows: &mut Vec<Row>, name: &str, base: &Firewall, spec: &Spec) {
    let Spec {
        tenants,
        percent,
        seed,
        packets,
        assert_ratio,
    } = *spec;
    let fleet = perturb_fleet(base, tenants, percent, seed);
    let registry = PolicyRegistry::new();
    let t = Instant::now();
    for (i, fw) in fleet.iter().enumerate() {
        registry
            .add_tenant(TenantId(i as u64), fw.clone())
            .expect("benchmark fleets register");
    }
    registry.maintenance().expect("maintenance succeeds");
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = registry.stats();

    // Independent baseline: build a spread of tenants standalone and
    // average what each would hold — the compiled image (canonical arenas
    // + lane kernel) plus the rule list a LiveMatcher keeps between edits.
    let step = (tenants / BASELINE_SAMPLE).max(1);
    let sample: Vec<usize> = (0..tenants).step_by(step).take(BASELINE_SAMPLE).collect();
    let mut independent_bytes = 0usize;
    for &i in &sample {
        let compiled = CompiledFdd::from_firewall(&fleet[i]).expect("benchmark policies compile");
        independent_bytes +=
            compiled.stats().arena_bytes + compiled.lane_stats().bytes + rule_list_bytes(&fleet[i]);
    }
    let independent_bytes_per_tenant = independent_bytes / sample.len();

    // Agreement oracle before any timing: the shared pool must serve each
    // sampled tenant exactly as its standalone first-match scan.
    let trace = PacketTrace::biased(base, packets, 0.3, seed ^ 0xace);
    let mut checked = 0usize;
    for &i in &sample {
        for p in trace.packets().iter().take(512) {
            assert_eq!(
                registry
                    .classify(TenantId(i as u64), p)
                    .expect("sampled tenants serve"),
                fleet[i].decision_for(p).expect("comprehensive policy"),
                "{name}: registry diverges from first-match for tenant {i} at {p}"
            );
            checked += 1;
        }
    }

    // Aggregate serving: round-robin scalar classification across the
    // whole fleet — the steady-state mix a multi-tenant frontend sees.
    let ids = registry.tenant_ids();
    let t = Instant::now();
    let mut accept = 0usize;
    for (i, p) in trace.packets().iter().enumerate() {
        let d = registry
            .classify(ids[i % ids.len()], p)
            .expect("registered tenants serve");
        accept += usize::from(d.code() == 0);
    }
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box(accept);
    let serve_mpps = packets as f64 / elapsed / 1e6;

    // Batch serving: the same trace in bursts, round-robin, each burst one
    // `classify_batch_into` call. The first bursts are checked against
    // the scalar path and first match before the timing.
    let bursts: Vec<PacketBatch> = trace
        .packets()
        .chunks(BURST)
        .map(|c| PacketBatch::from_trace(base.schema().clone(), c).expect("trace packets fit"))
        .collect();
    let mut out = Vec::new();
    for (b, burst) in bursts.iter().enumerate().take(CHECKED_BURSTS) {
        let tenant = ids[b % ids.len()];
        registry
            .classify_batch_into(tenant, burst, &mut out)
            .expect("registered tenants serve");
        let policy = &fleet[tenant.0 as usize];
        for (p, &d) in trace.packets()[b * BURST..].iter().zip(&out) {
            assert_eq!(
                d,
                registry
                    .classify(tenant, p)
                    .expect("registered tenants serve"),
                "{name}: burst and scalar decisions differ for {tenant} at {p}"
            );
            assert_eq!(
                Some(d),
                policy.decision_for(p),
                "{name}: burst diverges from first-match for {tenant} at {p}"
            );
            checked += 1;
        }
    }
    let t = Instant::now();
    for (b, burst) in bursts.iter().enumerate() {
        registry
            .classify_batch_into(ids[b % ids.len()], burst, &mut out)
            .expect("registered tenants serve");
        accept += usize::from(out[0].code() == 0);
    }
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box(accept);
    let serve_batch_mpps = packets as f64 / elapsed / 1e6;

    let registry_bytes_per_tenant = stats.bytes_per_tenant();
    let memory_ratio =
        independent_bytes_per_tenant as f64 / registry_bytes_per_tenant.max(1) as f64;
    println!(
        "{name}: {tenants} tenants ({} distinct) built in {build_ms:.0} ms | \
         registry ~{} B/tenant vs independent ~{} B/tenant (x{memory_ratio:.1} smaller) | \
         arena {} live nodes, pool {} nodes, {} interned rules | \
         {serve_mpps:.2} Mpps round-robin, {serve_batch_mpps:.2} Mpps in bursts of {BURST}",
        stats.distinct_policies,
        registry_bytes_per_tenant,
        independent_bytes_per_tenant,
        stats.arena_live_nodes,
        stats.pool_nodes,
        stats.distinct_rules,
    );
    if let Some(min) = assert_ratio {
        assert!(
            memory_ratio >= min,
            "{name}: structural sharing bought only x{memory_ratio:.2}, need >= x{min}"
        );
    }
    rows.push(Row {
        workload: name.to_owned(),
        tenants,
        percent,
        distinct_policies: stats.distinct_policies,
        distinct_rules: stats.distinct_rules,
        arena_nodes_live: stats.arena_live_nodes,
        pool_nodes: stats.pool_nodes,
        build_ms,
        registry_bytes: stats.approx_bytes,
        registry_bytes_per_tenant,
        independent_bytes_per_tenant,
        memory_ratio,
        serve_mpps,
        serve_batch_mpps,
        checked_packets: checked,
    });
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let started = Instant::now();
    let mut rows = Vec::new();

    if smoke {
        // Small fleet of the 42-rule policy: same row shape and oracle as
        // the full run, seconds of wall clock for CI.
        bench_fleet(
            &mut rows,
            "fig12/avg(42)",
            &fw_synth::university_average(),
            &Spec {
                tenants: 128,
                percent: 5,
                seed: 11,
                packets: 20_000,
                assert_ratio: None,
            },
        );
    } else {
        let avg = fw_synth::university_average();
        let large = fw_synth::university_large();
        bench_fleet(
            &mut rows,
            "fig12/avg(42)",
            &avg,
            &Spec {
                tenants: 1_000,
                percent: 5,
                seed: 11,
                packets: 100_000,
                assert_ratio: None,
            },
        );
        bench_fleet(
            &mut rows,
            "fig12/avg(42)",
            &avg,
            &Spec {
                tenants: 10_000,
                percent: 5,
                seed: 11,
                packets: 100_000,
                assert_ratio: Some(5.0),
            },
        );
        bench_fleet(
            &mut rows,
            "fig12/large(661)",
            &large,
            &Spec {
                tenants: 1_000,
                percent: 5,
                seed: 22,
                packets: 100_000,
                assert_ratio: None,
            },
        );
        // The acceptance row: 10k perturb-5% variants of the 661-rule
        // policy must serve at least 5x smaller per tenant than 10k
        // independent matchers.
        bench_fleet(
            &mut rows,
            "fig12/large(661)",
            &large,
            &Spec {
                tenants: 10_000,
                percent: 5,
                seed: 22,
                packets: 100_000,
                assert_ratio: Some(5.0),
            },
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"baseline_sample\": {BASELINE_SAMPLE},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"tenants\": {}, \"percent\": {}, \
             \"distinct_policies\": {}, \"distinct_rules\": {}, \
             \"arena_nodes_live\": {}, \"pool_nodes\": {}, \"build_ms\": {:.1}, \
             \"registry_bytes\": {}, \"registry_bytes_per_tenant\": {}, \
             \"independent_bytes_per_tenant\": {}, \"memory_ratio\": {:.2}, \
             \"serve_mpps\": {:.2}, \"serve_batch_mpps\": {:.2}, \"checked_packets\": {}}}{sep}",
            r.workload,
            r.tenants,
            r.percent,
            r.distinct_policies,
            r.distinct_rules,
            r.arena_nodes_live,
            r.pool_nodes,
            r.build_ms,
            r.registry_bytes,
            r.registry_bytes_per_tenant,
            r.independent_bytes_per_tenant,
            r.memory_ratio,
            r.serve_mpps,
            r.serve_batch_mpps,
            r.checked_packets
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total_ms\": {:.3}\n}}",
        started.elapsed().as_secs_f64() * 1e3
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json in {:?}", started.elapsed());
}

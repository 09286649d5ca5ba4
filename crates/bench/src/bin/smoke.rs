//! Quick pipeline smoke test: one-shot phase timings and sizes for the
//! real-life-sized policies and a sweep of independent pairs up to the
//! paper's 3,000-rule headline — a fast (< 5 s), fully deterministic
//! sanity check before running the full `fig12`/`fig13` series. Every
//! workload comes from fixed seeds, so the sizes, node counts and
//! diff-cell counts in `BENCH_smoke.json` are reproducible run to run
//! (only the timings vary with the machine).
//!
//! The `builds` rows time construction alone on policies of 661 and 3,000
//! rules in which no rule lies inside an earlier one. Fast construction
//! drops every such contained rule before building its tables, and most
//! rules of the pairs' policies are contained, so these rows are its
//! worst case: a pre-pass that drops nothing.
//!
//! The `cross` rows time `cross_compare` of 3 and 8 teams of 661 rules
//! (perturbations of the real-life stand-in): every team built once into
//! one arena and every pair diffed there. The `reductions` rows time
//! `Fdd::reduced` of the literal (Fig. 7) trees of the 42-rule policy and
//! of a 100-rule synthetic one. No other workload reaches either path.
//!
//! Run with: `cargo run --release -p fw-bench --bin smoke`

use std::fmt::Write as _;
use std::time::Instant;

struct SmokeRow {
    name: String,
    construct_ms: f64,
    product_ms: f64,
    count_ms: f64,
    nodes_a: usize,
    nodes_b: usize,
    product_nodes: usize,
    cells: u128,
}

struct BuildRow {
    name: String,
    rules: usize,
    construct_ms: f64,
    nodes: usize,
}

struct CrossRow {
    teams: usize,
    ms: f64,
    regions: usize,
}

struct ReduceRow {
    name: String,
    nodes: usize,
    reduced_nodes: usize,
    reduce_ms: f64,
}

fn bench_cross(base: &fw_model::Firewall, teams: usize) -> CrossRow {
    let versions: Vec<fw_model::Firewall> = (0..teams as u64)
        .map(|k| fw_synth::perturb(base, 5 * (k as u32 + 1), k))
        .collect();
    let t = Instant::now();
    let pairs = fw_core::cross_compare(&versions).unwrap();
    let took = t.elapsed();
    let regions = pairs.iter().map(|(_, ds)| ds.len()).sum();
    println!(
        "cross_compare {teams} teams: {took:?} ({} pairs, {regions} regions)",
        pairs.len()
    );
    CrossRow {
        teams,
        ms: took.as_secs_f64() * 1e3,
        regions,
    }
}

fn bench_reduce(name: &str, fw: &fw_model::Firewall) -> ReduceRow {
    let literal = fw_core::Fdd::from_firewall(fw).unwrap();
    let t = Instant::now();
    let reduced = literal.reduced();
    let took = t.elapsed();
    println!(
        "{name}: reduced {} nodes to {} in {took:?}",
        literal.node_count(),
        reduced.node_count()
    );
    ReduceRow {
        name: name.to_owned(),
        nodes: literal.node_count(),
        reduced_nodes: reduced.node_count(),
        reduce_ms: took.as_secs_f64() * 1e3,
    }
}

fn bench_build(name: &str, fw: &fw_model::Firewall) -> BuildRow {
    let t = Instant::now();
    let fdd = fw_core::Fdd::from_firewall_fast(fw).unwrap();
    let t_con = t.elapsed();
    println!(
        "{name}: construct {t_con:?} ({} rules, {} nodes)",
        fw.len(),
        fdd.node_count()
    );
    BuildRow {
        name: name.to_owned(),
        rules: fw.len(),
        construct_ms: t_con.as_secs_f64() * 1e3,
        nodes: fdd.node_count(),
    }
}

fn bench_pair(name: &str, a: &fw_model::Firewall, b: &fw_model::Firewall) -> SmokeRow {
    let t = Instant::now();
    let fa = fw_core::Fdd::from_firewall_fast(a).unwrap();
    let fb = fw_core::Fdd::from_firewall_fast(b).unwrap();
    let t_con = t.elapsed();
    let t = Instant::now();
    let prod = fw_core::diff_product(&fa, &fb).unwrap();
    let t_prod = t.elapsed();
    let t = Instant::now();
    let cells = prod.cell_count();
    let t_count = t.elapsed();
    println!(
        "{name}: construct {:?} (nodes {}/{}), product {:?} ({} nodes), count {:?}, {} diff cells",
        t_con,
        fa.node_count(),
        fb.node_count(),
        t_prod,
        prod.node_count(),
        t_count,
        cells
    );
    SmokeRow {
        name: name.to_owned(),
        construct_ms: t_con.as_secs_f64() * 1e3,
        product_ms: t_prod.as_secs_f64() * 1e3,
        count_ms: t_count.as_secs_f64() * 1e3,
        nodes_a: fa.node_count(),
        nodes_b: fb.node_count(),
        product_nodes: prod.node_count(),
        cells,
    }
}

fn main() {
    let started = Instant::now();
    let mut rows = Vec::new();

    let avg = fw_synth::university_average();
    rows.push(bench_pair(
        "avg(42) vs perturbed",
        &avg,
        &fw_synth::perturb(&avg, 20, 1),
    ));

    let large = fw_synth::university_large();
    rows.push(bench_pair(
        "large(661) vs perturbed",
        &large,
        &fw_synth::perturb(&large, 10, 1),
    ));

    let mut s1 = fw_synth::Synthesizer::new(100);
    let mut s2 = fw_synth::Synthesizer::new(200);
    for n in [500usize, 1000, 2000, 3000] {
        let a = s1.firewall(n);
        let b = s2.firewall(n);
        rows.push(bench_pair(&format!("independent n={n}"), &a, &b));
    }

    let builds: Vec<BuildRow> = [661usize, 3000]
        .into_iter()
        .map(|n| {
            let fw = fw_synth::Synthesizer::new(n as u64).uncontained_firewall(n);
            bench_build(&format!("uncontained n={n}"), &fw)
        })
        .collect();

    let cross: Vec<CrossRow> = [3usize, 8]
        .into_iter()
        .map(|teams| bench_cross(&large, teams))
        .collect();
    let reductions = [
        bench_reduce("literal avg(42)", &avg),
        bench_reduce(
            "literal n=100",
            &fw_synth::Synthesizer::new(100).firewall(100),
        ),
    ];

    let mut json = String::from("{\n  \"pairs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"construct_ms\": {:.3}, \"product_ms\": {:.3}, \
             \"count_ms\": {:.3}, \"nodes_a\": {}, \"nodes_b\": {}, \"product_nodes\": {}, \
             \"diff_cells\": {}}}{sep}",
            r.name,
            r.construct_ms,
            r.product_ms,
            r.count_ms,
            r.nodes_a,
            r.nodes_b,
            r.product_nodes,
            r.cells
        );
    }
    json.push_str("  ],\n  \"builds\": [\n");
    for (i, r) in builds.iter().enumerate() {
        let sep = if i + 1 < builds.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"rules\": {}, \"construct_ms\": {:.3}, \"nodes\": {}}}{sep}",
            r.name, r.rules, r.construct_ms, r.nodes
        );
    }
    json.push_str("  ],\n  \"cross\": [\n");
    for (i, r) in cross.iter().enumerate() {
        let sep = if i + 1 < cross.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"cross_compare {} teams\", \"teams\": {}, \"ms\": {:.3}, \
             \"regions\": {}}}{sep}",
            r.teams, r.teams, r.ms, r.regions
        );
    }
    json.push_str("  ],\n  \"reductions\": [\n");
    for (i, r) in reductions.iter().enumerate() {
        let sep = if i + 1 < reductions.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"reduced_nodes\": {}, \
             \"reduce_ms\": {:.3}}}{sep}",
            r.name, r.nodes, r.reduced_nodes, r.reduce_ms
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"total_ms\": {:.3}\n}}",
        started.elapsed().as_secs_f64() * 1e3
    );
    std::fs::write("BENCH_smoke.json", &json).expect("write BENCH_smoke.json");
    println!("wrote BENCH_smoke.json in {:?}", started.elapsed());
}

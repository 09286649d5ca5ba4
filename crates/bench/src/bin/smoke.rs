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
//! The `direct` and `cross` rows compare 2, 3, 4 and 8 teams of 661 rules
//! (perturbations of the real-life stand-in), every team built once into
//! one arena: `direct_compare` walks the product of all the teams' roots,
//! and `cross_compare` diffs every pair of them. Their times are medians
//! (with quartiles) of 11 rounds that interleave every row, so the rows
//! compare under the same machine load. The `finalize` rows run the
//! resolution phase (§6) on 2 and 3 teams of the 42-rule policy, resolved
//! by majority: the comparison, Method 1, and Method 2 on team 0. The
//! `reductions` rows time `Fdd::reduced` of the literal (Fig. 7) trees of
//! the 42-rule policy and of a 100-rule synthetic one. No other workload
//! reaches these paths.
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

struct ReduceRow {
    name: String,
    nodes: usize,
    reduced_nodes: usize,
    reduce_ms: f64,
}

/// Times `direct_compare` of 2, 3, 4 and 8 teams and `cross_compare` of
/// 3, 4 and 8, interleaved over `rounds` rounds; returns each arm's kind
/// with its JSON row.
fn bench_teams(base: &fw_model::Firewall, rounds: usize) -> Vec<(&'static str, String)> {
    let all: Vec<fw_model::Firewall> = (0..8u64)
        .map(|k| fw_synth::perturb(base, 5 * (k as u32 + 1), k))
        .collect();
    let arms: Vec<(&'static str, usize)> = [2, 3, 4, 8]
        .map(|n| ("direct", n))
        .into_iter()
        .chain([3, 4, 8].map(|n| ("cross", n)))
        .collect();
    let mut samples = vec![Vec::with_capacity(rounds); arms.len()];
    let mut regions = vec![0; arms.len()];
    for _ in 0..rounds {
        for (k, &(kind, n)) in arms.iter().enumerate() {
            let versions = &all[..n];
            let t = Instant::now();
            regions[k] = if kind == "direct" {
                std::hint::black_box(fw_core::direct_compare(versions).unwrap()).len()
            } else {
                let pairs = std::hint::black_box(fw_core::cross_compare(versions).unwrap());
                pairs.iter().map(|(_, ds)| ds.len()).sum()
            };
            samples[k].push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    arms.iter()
        .zip(samples)
        .zip(regions)
        .map(|((&(kind, teams), mut ms), regions)| {
            ms.sort_by(f64::total_cmp);
            let q = |f: f64| ms[((ms.len() - 1) as f64 * f).round() as usize];
            let (q1, median, q3) = (q(0.25), q(0.5), q(0.75));
            println!("{kind} {teams} teams: median {median:.3} ms (IQR {q1:.3}-{q3:.3}), {regions} regions");
            let cells = if kind == "direct" {
                format!("\"raw_cells\": {}, ", raw_cells(&all[..teams]))
            } else {
                String::new()
            };
            let row = format!(
                "{{\"name\": \"{kind}_compare {teams} teams\", \"teams\": {teams}, \
                 \"ms\": {median:.3}, \"ms_q1\": {q1:.3}, \"ms_q3\": {q3:.3}, {cells}\
                 \"regions\": {regions}}}"
            );
            (kind, row)
        })
        .collect()
}

/// The uncoalesced cells of the product of all `versions`.
fn raw_cells(versions: &[fw_model::Firewall]) -> u128 {
    let mut arena = fw_core::ConsArena::new(versions[0].schema().clone());
    let roots: Vec<fw_core::ConsId> = versions
        .iter()
        .map(|v| {
            let fdd = fw_core::Fdd::from_firewall_fast(v).unwrap();
            arena.intern_fdd(&fdd).unwrap()
        })
        .collect();
    arena.product(&roots).unwrap().cell_count()
}

/// Runs the comparison and both §6 methods on `versions`, resolved by
/// majority; returns the JSON row.
fn bench_finalize(versions: Vec<fw_model::Firewall>) -> String {
    let teams = versions.len();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let cmp = fw_diverse::Comparison::of(versions).unwrap();
    let compare = ms(t);
    let res = fw_diverse::Resolution::by_majority(&cmp);
    let t = Instant::now();
    let m1 = fw_diverse::method1(&cmp, &res).unwrap();
    let method1 = ms(t);
    let t = Instant::now();
    let m2 = fw_diverse::method2(&cmp, &res, 0).unwrap();
    let method2 = ms(t);
    let (found, r1, r2) = (cmp.discrepancies().len(), m1.len(), m2.len());
    println!(
        "finalize {teams} teams: compare {compare:.3} ms ({found} discrepancies), \
         method 1 {method1:.3} ms ({r1} rules), method 2 {method2:.3} ms ({r2} rules)"
    );
    format!(
        "{{\"name\": \"finalize avg(42) {teams} teams\", \"teams\": {teams}, \
         \"discrepancies\": {found}, \"compare_ms\": {compare:.3}, \"method1_ms\": {method1:.3}, \
         \"method2_ms\": {method2:.3}, \"method1_rules\": {r1}, \"method2_rules\": {r2}}}"
    )
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

    let teams = bench_teams(&large, 11);
    let finals = [2usize, 3].map(|n| {
        let mut versions = vec![avg.clone()];
        versions.extend([8, 9].map(|seed| fw_synth::perturb(&avg, 10, seed)));
        versions.truncate(n);
        bench_finalize(versions)
    });
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
    for kind in ["direct", "cross"] {
        let rows: Vec<&str> = teams
            .iter()
            .filter(|r| r.0 == kind)
            .map(|r| &*r.1)
            .collect();
        let _ = write!(
            json,
            "  ],\n  \"{kind}\": [\n    {}\n",
            rows.join(",\n    ")
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"finalize\": [\n    {}\n",
        finals.join(",\n    ")
    );
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

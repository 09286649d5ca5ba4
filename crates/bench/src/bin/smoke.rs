//! Quick pipeline smoke test: one-shot phase timings and sizes for the
//! real-life-sized policies and a sweep of independent pairs up to the
//! paper's 3,000-rule headline — a fast (< 5 s), fully deterministic
//! sanity check before running the full `fig12`/`fig13` series. Every
//! workload comes from fixed seeds, so the sizes, node counts and
//! diff-cell counts in `BENCH_smoke.json` are reproducible run to run
//! (only the timings vary with the machine).
//!
//! The `parse` rows time `Firewall::parse` on the text of the 661-rule
//! policy, of a 5% variant of it (seed 1) and of the 3,000-rule policy of
//! the `builds` rows: medians and quartiles of 11 interleaved rounds, with
//! the text's bytes and the rate in MB/s. Every `fwdiff` run and
//! perfbench `diff` request starts by parsing text of this kind.
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
//! resolution phase (§6) on 2 and 3 teams of the 42-rule policy (10%
//! perturbations) and of the 661-rule one (1%), seeds 8 and 9, resolved by
//! majority: `finalize` as a whole, then the comparison, Method 1, Method 2
//! on every base and `verify_final`, each on its own, with both methods'
//! rule counts. The `redundancy` rows time `analyze_redundancy` (what
//! `fwdiff --lint` runs) and `remove_redundant_rules` on the 661-rule
//! policy and a 150-rule synthetic one. Both are medians of 5 rounds. The
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

/// The first quartile, median and third quartile of `ms`.
fn quartiles(mut ms: Vec<f64>) -> (f64, f64, f64) {
    ms.sort_by(f64::total_cmp);
    let q = |f: f64| ms[((ms.len() - 1) as f64 * f).round() as usize];
    (q(0.25), q(0.5), q(0.75))
}

/// Times `Firewall::parse` of each named text over `rounds` interleaved
/// rounds; returns the JSON rows.
fn bench_parse(texts: &[(&str, String)], schema: &fw_model::Schema, rounds: usize) -> Vec<String> {
    let mut samples = vec![Vec::with_capacity(rounds); texts.len()];
    let mut rules = vec![0; texts.len()];
    for _ in 0..rounds {
        for (k, (_, text)) in texts.iter().enumerate() {
            let t = Instant::now();
            let fw = fw_model::Firewall::parse(schema.clone(), text).unwrap();
            samples[k].push(t.elapsed().as_secs_f64() * 1e3);
            rules[k] = std::hint::black_box(fw).len();
        }
    }
    texts
        .iter()
        .zip(samples)
        .zip(rules)
        .map(|(((name, text), ms), rules)| {
            let (q1, median, q3) = quartiles(ms);
            let bytes = text.len();
            let mb_per_s = bytes as f64 / (median * 1e3);
            println!(
                "parse {name}: {rules} rules, {bytes} bytes, median {median:.3} ms \
                 (IQR {q1:.3}-{q3:.3}), {mb_per_s:.1} MB/s"
            );
            format!(
                "{{\"name\": \"parse {name}\", \"rules\": {rules}, \"bytes\": {bytes}, \
                 \"ms\": {median:.3}, \"ms_q1\": {q1:.3}, \"ms_q3\": {q3:.3}, \
                 \"mb_per_s\": {mb_per_s:.1}}}"
            )
        })
        .collect()
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
        .map(|((&(kind, teams), ms), regions)| {
            let (q1, median, q3) = quartiles(ms);
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

/// The median of `ms`.
fn median(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// Runs the resolution phase on `versions`, resolved by majority, over
/// `rounds` rounds: `finalize` as a whole, then each of its stages on its
/// own (the comparison, Method 1, Method 2 on every base and
/// `verify_final` of Method 1's output). Returns the JSON row of medians.
fn bench_finalize(name: &str, versions: Vec<fw_model::Firewall>, rounds: usize) -> String {
    let teams = versions.len();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut samples = vec![Vec::with_capacity(rounds); 4 + teams];
    let (mut found, mut r1, mut r2) = (0, 0, vec![0; teams]);
    for _ in 0..rounds {
        let t = Instant::now();
        let cmp = fw_diverse::Comparison::of(versions.clone()).unwrap();
        samples[0].push(ms(t));
        let res = fw_diverse::Resolution::by_majority(&cmp);
        let t = Instant::now();
        let agreed = fw_diverse::finalize(&cmp, &res).unwrap();
        samples[1].push(ms(t));
        let t = Instant::now();
        let m1 = fw_diverse::method1(&cmp, &res).unwrap();
        samples[2].push(ms(t));
        assert_eq!(m1, agreed, "{name}: finalize returns Method 1's firewall");
        for (base, rules) in r2.iter_mut().enumerate() {
            let t = Instant::now();
            *rules = fw_diverse::method2(&cmp, &res, base).unwrap().len();
            samples[4 + base].push(ms(t));
        }
        let t = Instant::now();
        fw_diverse::verify_final(&cmp, &res, &m1).unwrap();
        samples[3].push(ms(t));
        (found, r1) = (cmp.discrepancies().len(), m1.len());
    }
    let mut medians = samples.into_iter().map(median);
    let mut next = || medians.next().expect("one median per stage");
    let (compare, finalize, method1, verify) = (next(), next(), next(), next());
    let method2: Vec<String> = (0..teams).map(|_| format!("{:.3}", next())).collect();
    println!(
        "finalize {name} {teams} teams: {finalize:.3} ms; compare {compare:.3} ms \
         ({found} discrepancies), method 1 {method1:.3} ms ({r1} rules), \
         method 2 per base {} ms ({r2:?} rules), verify_final {verify:.3} ms",
        method2.join("/")
    );
    let r2: Vec<String> = r2.iter().map(usize::to_string).collect();
    format!(
        "{{\"name\": \"finalize {name} {teams} teams\", \"teams\": {teams}, \
         \"discrepancies\": {found}, \"finalize_ms\": {finalize:.3}, \"compare_ms\": {compare:.3}, \
         \"method1_ms\": {method1:.3}, \"method2_ms\": [{}], \"verify_final_ms\": {verify:.3}, \
         \"method1_rules\": {r1}, \"method2_rules\": [{}]}}",
        method2.join(", "),
        r2.join(", ")
    )
}

/// Times `analyze_redundancy` and `remove_redundant_rules` on `fw` over
/// `rounds` rounds; returns the JSON row of medians.
fn bench_redundancy(name: &str, fw: &fw_model::Firewall, rounds: usize) -> String {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut analyze, mut remove) = (Vec::new(), Vec::new());
    let (mut redundant, mut kept) = (0, 0);
    for _ in 0..rounds {
        let t = Instant::now();
        redundant = fw_gen::analyze_redundancy(fw).redundant.len();
        analyze.push(ms(t));
        let t = Instant::now();
        kept = fw_gen::remove_redundant_rules(fw).unwrap().len();
        remove.push(ms(t));
    }
    let (analyze, remove) = (median(analyze), median(remove));
    let rules = fw.len();
    println!(
        "redundancy {name}: analyze {analyze:.3} ms ({redundant} of {rules} redundant), \
         remove {remove:.3} ms ({kept} kept)"
    );
    format!(
        "{{\"name\": \"redundancy {name}\", \"rules\": {rules}, \"analyze_ms\": {analyze:.3}, \
         \"redundant\": {redundant}, \"remove_ms\": {remove:.3}, \"kept\": {kept}}}"
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

    let texts = [
        ("large(661)", large.to_dsl()),
        (
            "large(661) 5% variant",
            fw_synth::perturb(&large, 5, 1).to_dsl(),
        ),
        (
            "uncontained n=3000",
            fw_synth::Synthesizer::new(3000)
                .uncontained_firewall(3000)
                .to_dsl(),
        ),
    ];
    let parses = bench_parse(&texts, large.schema(), 11);

    let teams = bench_teams(&large, 11);
    let mut finals = Vec::new();
    for (name, base, percent) in [("avg(42)", &avg, 10), ("large(661)", &large, 1)] {
        for n in [2usize, 3] {
            let mut versions = vec![base.clone()];
            versions.extend([8, 9].map(|seed| fw_synth::perturb(base, percent, seed)));
            versions.truncate(n);
            finals.push(bench_finalize(name, versions, 5));
        }
    }
    let redundancy = [
        bench_redundancy("large(661)", &large, 5),
        bench_redundancy(
            "synth n=150",
            &fw_synth::Synthesizer::new(11).firewall(150),
            5,
        ),
    ];
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
    let _ = write!(
        json,
        "  ],\n  \"parse\": [\n    {}\n",
        parses.join(",\n    ")
    );
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
        "  ],\n  \"finalize\": [\n    {}\n  ],\n  \"redundancy\": [\n    {}\n",
        finals.join(",\n    "),
        redundancy.join(",\n    ")
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

//! Rendering oracle: the report renderer must print every discrepancy
//! region byte for byte as the reference renderer below does.
//!
//! The reference is the renderer as it was before rendering stopped
//! allocating: per IP run it lists the run's covering prefixes
//! ([`interval_to_prefixes`]) to ask whether there is exactly one, formats
//! every address into its own `String` ([`format_ipv4`]), and a
//! discrepancy line formats its predicate into a throwaway `String` first.
//! The two are compared on the 661-rule policy's 5% variants, the
//! independent n = 500 pair of the `smoke` bench (whose sets have several
//! runs), the fixture pairs of `tests/golden/`, and hand-picked runs at
//! the edges of the prefix test.

use std::fmt::Write as _;

use diverse_firewall::core::{diff_firewalls, Discrepancy};
use diverse_firewall::model::prefix::{format_ipv4, interval_to_prefixes};
use diverse_firewall::model::{
    iptables, Decision, FieldId, Firewall, Interval, IntervalSet, Predicate, Schema,
};
use diverse_firewall::synth::{perturb, university_large, Synthesizer};

/// The reference form of a predicate: unconstrained fields elided, 32-bit
/// fields as prefixes, addresses or dotted ranges, others as integers.
fn reference_predicate(p: &Predicate, schema: &Schema) -> String {
    let mut out = String::new();
    let mut wrote = false;
    for (id, field) in schema.iter() {
        let s = p.set(id);
        if s.covers(field.domain()) {
            continue;
        }
        if wrote {
            out.push_str(", ");
        }
        write!(out, "{}=", field.name()).unwrap();
        if field.bits() == 32 {
            for (i, iv) in s.iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                match interval_to_prefixes(*iv, 32) {
                    Ok(ps) if ps.len() == 1 => {
                        let p = ps[0];
                        if p.plen() == 32 {
                            out.push_str(&format_ipv4(p.value()));
                        } else {
                            write!(out, "{p}").unwrap();
                        }
                    }
                    _ => write!(out, "{}-{}", format_ipv4(iv.lo()), format_ipv4(iv.hi())).unwrap(),
                }
            }
        } else {
            write!(out, "{s}").unwrap();
        }
        wrote = true;
    }
    if !wrote {
        out.push('*');
    }
    out
}

fn reference_discrepancy(d: &Discrepancy, schema: &Schema) -> String {
    format!(
        "{} | first: {}, second: {}",
        reference_predicate(d.predicate(), schema),
        d.left(),
        d.right()
    )
}

/// Every region of `a` against `b` renders as the reference does; returns
/// how many regions were compared.
fn assert_regions_render_alike(a: &Firewall, b: &Firewall, tag: &str) -> usize {
    let product = diff_firewalls(a, b).expect("one schema");
    let schema = product.schema();
    let regions = product.discrepancies();
    for d in &regions {
        assert_eq!(
            d.display(schema).to_string(),
            reference_discrepancy(d, schema),
            "{tag}"
        );
        assert_eq!(
            d.predicate().display(schema).to_string(),
            reference_predicate(d.predicate(), schema),
            "{tag}"
        );
    }
    regions.len()
}

#[test]
fn variants_of_the_661_rule_policy_render_alike() {
    let large = university_large();
    let mut regions = 0;
    for seed in 1..=10u64 {
        let variant = perturb(&large, 5, seed);
        regions += assert_regions_render_alike(&large, &variant, &format!("5% seed {seed}"));
    }
    assert!(regions > 100, "only {regions} regions compared");
}

#[test]
fn the_independent_n500_pair_renders_alike() {
    let a = Synthesizer::new(100).firewall(500);
    let b = Synthesizer::new(200).firewall(500);
    let product = diff_firewalls(&a, &b).expect("one schema");
    let multi_run = product
        .discrepancies()
        .iter()
        .filter(|d| d.predicate().sets().iter().any(|s| s.run_count() > 1))
        .count();
    assert!(multi_run > 0, "the pair has regions of several runs");
    assert_regions_render_alike(&a, &b, "independent n=500");
}

#[test]
fn the_golden_fixture_pairs_render_alike() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let dsl = |name: &str| {
        let text = std::fs::read_to_string(format!("{dir}/policies/{name}")).unwrap();
        Firewall::parse(Schema::tcp_ip(), &text).unwrap()
    };
    for (a, b) in [
        ("dmz_v1.fw", "dmz_v2.fw"),
        ("dmz_v1.fw", "messy.fw"),
        ("dmz_v2.fw", "messy.fw"),
    ] {
        assert_regions_render_alike(&dsl(a), &dsl(b), &format!("{a} vs {b}"));
    }
    let rules = |name: &str| {
        iptables::parse(&std::fs::read_to_string(format!("{dir}/policies/{name}")).unwrap())
            .unwrap()
    };
    assert_regions_render_alike(
        &rules("router_v1.rules"),
        &rules("router_v2.rules"),
        "router iptables",
    );
}

#[test]
fn hand_picked_runs_render_alike() {
    const TOP: u64 = 0xFFFF_FFFF;
    let ip = |a: u64, b: u64, c: u64, d: u64| (a << 24) | (b << 16) | (c << 8) | d;
    let set = |runs: &[(u64, u64)]| {
        IntervalSet::from_intervals(runs.iter().map(|&(lo, hi)| Interval::new(lo, hi).unwrap()))
    };
    let ip_sets = [
        set(&[(0, TOP >> 1)]),                                     // 0.0.0.0/1
        set(&[(1 << 31, TOP)]),                                    // 128.0.0.0/1
        set(&[(TOP, TOP)]),                                        // 255.255.255.255
        set(&[(0, 0)]),                                            // 0.0.0.0
        set(&[(ip(10, 0, 0, 2), ip(10, 0, 0, 3))]),                // a /31
        set(&[(ip(10, 0, 0, 3), ip(10, 0, 0, 4))]),                // two addresses, no /31
        set(&[(ip(10, 0, 0, 0), ip(10, 0, 0, 2))]),                // three addresses
        set(&[(ip(10, 0, 0, 4), ip(10, 0, 0, 11))]),               // 8 addresses, misaligned
        set(&[(1, TOP - 1)]),                                      // 62 prefixes
        set(&[(0, TOP - 1)]),                                      // ends at 255.255.255.254
        set(&[(1 << 31, TOP - 1)]),                                // ends at 255.255.255.254
        set(&[(ip(224, 168, 0, 0), ip(224, 168, 255, 255))]),      // a /16
        set(&[(0, TOP >> 1), (TOP, TOP)]),                         // /1 and a host
        set(&[(0, 0), (2, 3), (5, 7), (ip(192, 168, 0, 0), TOP)]), // several runs
    ];
    let schema = Schema::tcp_ip();
    let field = |name: &str| {
        schema
            .iter()
            .find(|(_, f)| f.name() == name)
            .map(|(id, _)| id)
            .unwrap()
    };
    let with = |p: &Predicate, id: FieldId, s: &IntervalSet| p.with_field(id, s.clone()).unwrap();
    let any = Predicate::any(&schema);
    let mut cases = vec![any.clone()];
    for s in &ip_sets {
        cases.push(with(&any, field("src"), s));
        cases.push(with(&with(&any, field("src"), s), field("dst"), s));
    }
    for ports in [
        set(&[(25, 25)]),
        set(&[(1024, 65_535)]),
        set(&[(0, 0), (22, 23), (80, 80), (443, 443)]),
    ] {
        cases.push(with(&any, field("dport"), &ports));
        cases.push(with(
            &with(&any, field("sport"), &ports),
            field("src"),
            &ip_sets[4],
        ));
    }
    for protos in [set(&[(6, 6)]), set(&[(6, 6), (17, 17)]), set(&[(0, 5)])] {
        cases.push(with(&any, field("proto"), &protos));
    }
    for p in &cases {
        assert_eq!(
            p.display(&schema).to_string(),
            reference_predicate(p, &schema)
        );
        let d = Discrepancy::new(p.clone(), Decision::Accept, Decision::DiscardLog);
        assert_eq!(
            d.display(&schema).to_string(),
            reference_discrepancy(&d, &schema)
        );
    }
    assert_eq!(any.display(&schema).to_string(), "*");

    // The paper's schema has a 1-bit interface and protocol beside its
    // 32-bit addresses.
    let paper = Schema::paper_example();
    let p = Predicate::any(&paper)
        .with_field(FieldId(0), set(&[(0, 0)]))
        .unwrap()
        .with_field(FieldId(1), ip_sets[11].clone())
        .unwrap();
    assert_eq!(
        p.display(&paper).to_string(),
        reference_predicate(&p, &paper)
    );
}

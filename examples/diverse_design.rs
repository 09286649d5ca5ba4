//! Diverse design with more than two teams (§7.3), including a team that
//! designs directly in FDDs (§7.2) rather than as a rule sequence.
//!
//! Three teams implement the same DMZ specification; the N-way direct
//! comparison finds every region where they do not all agree; a majority
//! resolution settles each; and the final firewall is generated and
//! verified against all three designs.
//!
//! Run with: `cargo run --example diverse_design`

use diverse_firewall::core::cross_compare;
use diverse_firewall::core::{label, FddBuilder};
use diverse_firewall::diverse::report::{comparison_report, resolution_report};
use diverse_firewall::diverse::{finalize, Comparison, Resolution};
use diverse_firewall::gen::generate_rules;
use diverse_firewall::model::{Decision, FieldDef, FieldId, Firewall, Schema};

/// The shared specification: a web server (10.0.0.80) serves HTTP/HTTPS to
/// everyone; the management subnet 10.0.1.0/24 may SSH anywhere inside;
/// everything else inbound is dropped.
fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::new("src", 32).expect("static widths"),
        FieldDef::new("dst", 32).expect("static widths"),
        FieldDef::new("dport", 16).expect("static widths"),
        FieldDef::new("proto", 8).expect("static widths"),
    ])
    .expect("static schema")
}

fn team_red() -> Firewall {
    Firewall::parse(
        schema(),
        "dst=10.0.0.80, dport=80|443, proto=6 -> accept\n\
         src=10.0.1.0/24, dport=22, proto=6 -> accept\n\
         * -> discard\n",
    )
    .expect("static policy parses")
}

fn team_green() -> Firewall {
    // Green forgot to pin SSH to TCP and listed the web ports separately.
    Firewall::parse(
        schema(),
        "dst=10.0.0.80, dport=80, proto=6 -> accept\n\
         dst=10.0.0.80, dport=443, proto=6 -> accept\n\
         src=10.0.1.0/24, dport=22 -> accept\n\
         * -> discard\n",
    )
    .expect("static policy parses")
}

fn team_blue() -> Firewall {
    // Blue designs directly as an FDD (§7.2) — but scoped SSH to the web
    // server only, a different reading of "anywhere inside".
    let s = schema();
    let mut b = FddBuilder::new(s.clone());
    let acc = b.terminal(Decision::Accept);
    let dis = b.terminal(Decision::Discard);
    // dport level under the web-server destination: 22/80/443 accepted.
    let ports = b
        .internal(
            FieldId(2),
            vec![
                (label(0, 21), dis),
                (label(22, 22), acc),
                (label(23, 79), dis),
                (label(80, 80), acc),
                (label(81, 442), dis),
                (label(443, 443), acc),
                (label(444, 65535), dis),
            ],
        )
        .expect("static diagram");
    let dst = b
        .internal(
            FieldId(1),
            vec![
                (label(0, 0x0A00_004F), dis),
                (label(0x0A00_0050, 0x0A00_0050), ports), // 10.0.0.80
                (label(0x0A00_0051, u64::from(u32::MAX)), dis),
            ],
        )
        .expect("static diagram");
    let fdd = b.finish(dst).expect("static diagram is a valid FDD");
    generate_rules(&fdd).expect("generation from a valid FDD succeeds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let versions = vec![team_red(), team_green(), team_blue()];
    let names = ["Red", "Green", "Blue"];
    for (n, v) in names.iter().zip(&versions) {
        println!("Team {n}:\n{v}");
    }

    // Cross comparison (§7.3): every team built once into one arena, and
    // every pair diffed there.
    println!("=== cross comparison (pairwise) ===");
    for ((i, j), ds) in cross_compare(&versions)? {
        println!("{} vs {}: {} discrepancies", names[i], names[j], ds.len());
    }

    // Direct N-way comparison: one pass, all teams at once.
    let cmp = Comparison::of(versions)?;
    println!("\n=== direct 3-way comparison ===");
    print!("{}", comparison_report(&cmp, &names));

    // Majority resolution (ties break toward discard — fail safe).
    let res = Resolution::by_majority(&cmp);
    println!("\n=== majority resolution ===");
    print!("{}", resolution_report(&res, &names));

    let agreed = finalize(&cmp, &res)?;
    println!("\n=== final agreed firewall ===\n{agreed}");
    Ok(())
}

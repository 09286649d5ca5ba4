//! `fwdiff` — compare two firewall policy files and print every functional
//! discrepancy; the command-line face of the paper's pipeline.
//!
//! ```text
//! USAGE:
//!     fwdiff [--schema tcp-ip|paper] [--format dsl|iptables] [--lint]
//!            <before.fw> [<after.fw>]
//!
//! MODES:
//!     two files   change-impact / diverse-design comparison (§1.3, §2):
//!                 prints each region the two policies decide differently,
//!                 with prefix-notation output (§7.1)
//!     --lint      single file: per-policy hygiene — pairwise anomalies
//!                 (shadowing/generalisation/correlation) and exact
//!                 redundancy analysis
//! ```
//!
//! Policy files use the rule DSL of `fw_model::parse` (one rule per line,
//! `#` comments, e.g. `src=10.0.0.0/8, dport=443, proto=6 -> accept`), or
//! `iptables-save` output with `--format iptables` (implies the tcp-ip
//! schema).

use std::process::ExitCode;

use diverse_firewall::core::diff_firewalls;
use diverse_firewall::gen::{analyze_anomalies, analyze_redundancy};
use diverse_firewall::model::{Firewall, Schema};

fn usage() -> ExitCode {
    eprintln!(
        "usage: fwdiff [--schema tcp-ip|paper] [--format dsl|iptables] [--lint] \
         <before.fw> [<after.fw>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut schema = Schema::tcp_ip();
    let mut lint = false;
    let mut iptables = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema" => match args.next().as_deref() {
                Some("tcp-ip") => schema = Schema::tcp_ip(),
                Some("paper") => schema = Schema::paper_example(),
                other => {
                    eprintln!("fwdiff: unknown schema {other:?}");
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
                    eprintln!("fwdiff: unknown format {other:?}");
                    return usage();
                }
            },
            "--lint" => lint = true,
            "--help" | "-h" => {
                println!("fwdiff: compare two firewall policies (Liu & Gouda, DSN 2004)");
                return usage();
            }
            _ if arg.starts_with('-') => {
                eprintln!("fwdiff: unknown flag {arg}");
                return usage();
            }
            _ => files.push(arg),
        }
    }

    let load = |path: &str| -> Result<Firewall, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if iptables {
            diverse_firewall::model::iptables::parse(&text).map_err(|e| format!("{path}: {e}"))
        } else {
            Firewall::parse(schema.clone(), &text).map_err(|e| format!("{path}: {e}"))
        }
    };

    match (lint, files.as_slice()) {
        (true, [file]) => {
            let fw = match load(file) {
                Ok(fw) => fw,
                Err(e) => {
                    eprintln!("fwdiff: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let anomalies = analyze_anomalies(&fw);
            for a in &anomalies {
                println!("r{} vs r{}: {}", a.earlier + 1, a.later + 1, a.kind);
            }
            let red = analyze_redundancy(&fw);
            for (i, kind) in &red.redundant {
                println!(
                    "r{}: {:?} redundant (removal preserves semantics)",
                    i + 1,
                    kind
                );
            }
            println!(
                "{} rules, {} pairwise anomalies, {} redundant rules",
                fw.len(),
                anomalies.len(),
                red.redundant.len()
            );
            ExitCode::SUCCESS
        }
        (false, [before, after]) => {
            let (a, b) = match (load(before), load(after)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("fwdiff: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let prod = match diff_firewalls(&a, &b) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("fwdiff: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if prod.is_equivalent() {
                println!("policies are semantically equivalent");
                return ExitCode::SUCCESS;
            }
            let ds = prod.discrepancies();
            for (i, d) in ds.iter().enumerate() {
                println!("{:>3}. {}", i + 1, d.display(&schema));
            }
            println!(
                "{} discrepancy region(s), {} packet(s) decided differently",
                ds.len(),
                prod.packet_count()
            );
            ExitCode::FAILURE // non-zero: the policies differ (diff-style)
        }
        _ => usage(),
    }
}

//! `diff`: the `fwdiff` path. One request parses two policy texts (the
//! 661-rule policy and a fresh Fig. 12 5% perturbation of it), builds both
//! FDDs, aligns them, then extracts and renders every discrepancy.
//!
//! Why: this is the paper's own pipeline and the only workload on the fast
//! construction and the product; construction dominates it, so a
//! construction change shows here and not in serving. The pipeline keeps
//! no state between requests, so its set-up is its first request:
//! `setup_s` times the report on the first pair, repeated and spread over
//! the run like every workload's set-ups.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fw_core::{diff_product, Discrepancy, Fdd};
use fw_model::{Firewall, Schema};
use fw_synth::PacketTrace;

use crate::gen;
use crate::span::{breakdown, Recorder};
use crate::{Outcome, Params};

/// Packets each report is checked on, drawn near the perturbed policy's
/// rules so that some fall inside the reported regions.
const SAMPLE_PACKETS: usize = 256;
/// The stated tail percentile of request latency, basis points. A window
/// holds about eight requests, so this is each window's second slowest.
const TAIL_BP: u32 = 8_000;
/// Wall-time window of the request statistics. A request takes about a
/// quarter of a second, so a serving-length window would hold one or two.
const WINDOW: Duration = Duration::from_secs(2);

const STREAM_VARIANTS: u64 = 21;
const STREAM_SAMPLES: u64 = 22;

/// One diff's outputs. The report text is rendered inside the timed
/// request and dropped there; the regions are what is checked.
struct Report {
    regions: Vec<Discrepancy>,
    product_nodes: usize,
}

/// Runs `diff`.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let base = fw_synth::university_large();
    let schema = base.schema().clone();
    let base_text = base.to_dsl();
    let mut rec = Recorder::new(params.trace, crate::SPAN_CAP);
    let mut out = Outcome::new("diff", TAIL_BP, WINDOW, params);
    let mut nodes: Vec<u64> = Vec::new();
    let mut regions: Vec<u64> = Vec::new();

    let variant = |i: u64| gen::variant(&base, gen::derive(params.seed, STREAM_VARIANTS, i));
    let sample = |v: &Firewall, i: u64| {
        PacketTrace::biased(
            v,
            SAMPLE_PACKETS,
            0.3,
            gen::derive(params.seed, STREAM_SAMPLES, i),
        )
    };

    let policy = variant(0);
    let first = FirstPair {
        text: policy.to_dsl(),
        sample: sample(&policy, 0),
        policy,
    };
    timed_setup(&schema, &base, &base_text, &first, &mut rec, &mut out);

    out.begin();
    let mut setups = crate::Setups::new(params);
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut i = 1u64;
    while Instant::now() < deadline {
        let v = variant(i);
        let text = v.to_dsl();
        let traced = params.trace && i.is_multiple_of(2) && rec.has_room();
        out.check.attempt();
        let t0 = Instant::now();
        let root = if traced { rec.root("req") } else { None };
        let report = diff_once(&schema, &base_text, &text, &mut rec);
        rec.close(root);
        let took = u64::try_from(t0.elapsed().as_nanos()).expect("diff under 584 years");
        match report {
            Ok(r) => {
                out.request(t0, took, traced);
                out.check
                    .discrepancies(&base, &v, &r.regions, sample(&v, i).packets());
                nodes.push(r.product_nodes as u64);
                regions.push(r.regions.len() as u64);
            }
            Err(e) => out.check.fail(format!("report {i}: {e}")),
        }
        i += 1;

        if setups.due() {
            timed_setup(&schema, &base, &base_text, &first, &mut rec, &mut out);
        }
    }
    out.end();
    out.note(format!(
        "{} reports; regions per report median {}",
        nodes.len(),
        if regions.is_empty() {
            0.0
        } else {
            crate::stats::median_u64(&regions)
        }
    ));

    if params.trace {
        let req = breakdown(rec.spans(), "req");
        out.layer("parse.ms", req.layer_median("parse") / 1e6);
        out.layer(
            "fast.construct_ms",
            req.layer_median("fast.construct") / 1e6,
        );
        out.layer("product.align_ms", req.layer_median("product.align") / 1e6);
        out.layer(
            "product.extract_ms",
            req.layer_median("product.extract") / 1e6,
        );
        out.layer(
            "discrepancy.render_ms",
            req.layer_median("discrepancy.render") / 1e6,
        );
        if !nodes.is_empty() {
            out.layer("product.nodes", crate::stats::median_u64(&nodes));
            out.layer("product.regions", crate::stats::median_u64(&regions));
        }
        out.finish_trace(req, rec);
    }
    Ok(out)
}

/// The first pair, whose report is the workload's set-up.
struct FirstPair {
    policy: Firewall,
    text: String,
    sample: PacketTrace,
}

/// The report on the first pair, timed into `setup_s` and checked.
fn timed_setup(
    schema: &Schema,
    base: &Firewall,
    base_text: &str,
    first: &FirstPair,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    out.check.attempt();
    let t0 = Instant::now();
    let report = diff_once(schema, base_text, &first.text, rec);
    let took = t0.elapsed();
    match report {
        Ok(r) => {
            out.setup_s.push(took.as_secs_f64());
            out.check
                .discrepancies(base, &first.policy, &r.regions, first.sample.packets());
        }
        Err(e) => out.check.fail(format!("first report: {e}")),
    }
}

/// Two policy texts → rendered report, as `fwdiff` does it.
fn diff_once(
    schema: &Schema,
    left: &str,
    right: &str,
    rec: &mut Recorder,
) -> Result<Report, String> {
    let s = rec.open("parse");
    let parsed = Firewall::parse(schema.clone(), left)
        .and_then(|a| Ok((a, Firewall::parse(schema.clone(), right)?)));
    rec.close(s);
    let (a, b) = parsed.map_err(|e| e.to_string())?;
    let s = rec.open("fast.construct");
    let built = Fdd::from_firewall_fast(&a).and_then(|fa| Ok((fa, Fdd::from_firewall_fast(&b)?)));
    rec.close(s);
    let (fa, fb) = built.map_err(|e| e.to_string())?;
    let s = rec.open("product.align");
    let product = diff_product(&fa, &fb);
    rec.close(s);
    let product = product.map_err(|e| e.to_string())?;
    let s = rec.open("product.extract");
    let regions = product.discrepancies();
    rec.close(s);
    let s = rec.open("discrepancy.render");
    let mut text = String::new();
    for (k, d) in regions.iter().enumerate() {
        let _ = writeln!(text, "{:>3}. {}", k + 1, d.display(schema));
    }
    let _ = writeln!(
        text,
        "{} discrepancy region(s), {} packet(s) decided differently",
        regions.len(),
        product.packet_count()
    );
    std::hint::black_box(text);
    rec.close(s);
    Ok(Report {
        regions,
        product_nodes: product.node_count(),
    })
}

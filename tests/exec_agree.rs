//! Four-way execution oracle for the compiled classification runtime:
//! on every packet of every trace, the O(n·d) linear first-match scan
//! ([`Firewall::decision_for`]), the plain FDD walk ([`Fdd::evaluate`]),
//! the flat compiled matcher ([`CompiledFdd::classify`], row- and
//! column-major) and the level-synchronous lane kernel
//! ([`CompiledFdd::classify_lanes`], across ragged batch lengths) must
//! return the same decision — on random policies, biased
//! traces, wire-format round trips, FWEX images mutated byte by byte, and
//! an exhaustive all-packets sweep of a tiny schema.
//!
//! The multi-core additions ride the same oracle: the sharded lane kernel
//! must be byte-identical to the serial kernel at every thread count
//! (including counts that do not divide the batch), and the auto route
//! must serve the same decisions under every [`EngineChoice`] a calibrator
//! could install, cached or not.

use diverse_firewall::core::Fdd;
use diverse_firewall::exec::{
    CompiledFdd, DecisionCache, EngineChoice, EngineScratch, ExecError, PacketBatch,
};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};
use diverse_firewall::synth::{PacketTrace, Synthesizer};
use proptest::prelude::*;

/// Batch lengths that stress the lane kernel's fixed-width chunking: a
/// single packet, less than one chunk, one short of and one past a chunk,
/// and many chunks with a ragged tail.
const RAGGED_LENGTHS: [usize; 5] = [1, 3, 31, 33, 401];

/// The lane kernel on every [`RAGGED_LENGTHS`] prefix of `packets` (as far
/// as it reaches) must reproduce `expect`'s prefix, on `compiled` and on
/// its decoded wire image.
fn assert_ragged_lanes(
    compiled: &CompiledFdd,
    reloaded: &CompiledFdd,
    packets: &[Packet],
    expect: &[Decision],
    tag: &str,
) {
    for n in RAGGED_LENGTHS.into_iter().filter(|&n| n <= packets.len()) {
        let prefix = PacketBatch::from_trace(compiled.schema().clone(), &packets[..n]).unwrap();
        assert_eq!(
            compiled.classify_lanes(&prefix).unwrap(),
            expect[..n],
            "{tag}: lane kernel diverges on a {n}-packet batch"
        );
        assert_eq!(
            reloaded.classify_lanes(&prefix).unwrap(),
            expect[..n],
            "{tag}: decoded lane kernel diverges on a {n}-packet batch"
        );
    }
}

/// Assert all engines agree on every packet of `trace`, including the
/// decoded wire image, both batch entry points, and the lane kernel on
/// every [`RAGGED_LENGTHS`] prefix.
fn assert_four_way(fw: &Firewall, trace: &PacketTrace, tag: &str) {
    let fdd = Fdd::from_firewall_fast(fw).unwrap();
    let compiled = CompiledFdd::from_firewall(fw).unwrap();
    let reloaded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
    let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();

    let mut batched = Vec::new();
    compiled.classify_batch_into(trace.packets(), &mut batched);
    let columns = compiled.classify_columns(&batch).unwrap();
    let lanes = compiled.classify_lanes(&batch).unwrap();
    for (i, p) in trace.packets().iter().enumerate() {
        let linear = fw.decision_for(p).expect("comprehensive policy");
        let walked = fdd.evaluate(p);
        let classified = compiled.classify(p);
        assert_eq!(linear, walked, "{tag}: FDD walk diverges at {p}");
        assert_eq!(linear, classified, "{tag}: compiled diverges at {p}");
        assert_eq!(linear, batched[i], "{tag}: batch diverges at {p}");
        assert_eq!(linear, columns[i], "{tag}: column batch diverges at {p}");
        assert_eq!(linear, lanes[i], "{tag}: lane kernel diverges at {p}");
        assert_eq!(
            linear,
            reloaded.classify(p),
            "{tag}: decoded wire image diverges at {p}"
        );
    }
    assert_ragged_lanes(&compiled, &reloaded, trace.packets(), &lanes, tag);

    // Parallel ≡ serial: the sharded kernel must reproduce the serial
    // kernel bit for bit at every thread count — 401-packet traces are
    // never a multiple of the lane width or the thread count, so ragged
    // final spans are exercised.
    let mut par_out = Vec::new();
    for threads in [1usize, 2, 3, 4, 8] {
        compiled
            .classify_lanes_par_into(&batch, threads, &mut par_out)
            .unwrap();
        assert_eq!(
            par_out, lanes,
            "{tag}: parallel lanes diverge at {threads} thread(s)"
        );
    }
    // The uncalibrated default choice serves the same decisions, including
    // through a decoded image whose lane kernel is built on this very call.
    let mut scratch = EngineScratch::default();
    for (image, what) in [(&compiled, "auto"), (&reloaded, "decoded auto")] {
        EngineChoice::default()
            .classify_into(image, None, None, &batch, &mut scratch, &mut par_out)
            .unwrap();
        assert_eq!(par_out, lanes, "{tag}: {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: on random synthesized policies, all execution engines
    /// agree on both uniformly random and rule-region-biased traces.
    #[test]
    fn engines_agree_on_random_policies(
        seed in 0u64..10_000,
        rules in 1usize..30,
        trace_seed in 0u64..1_000,
    ) {
        let fw = Synthesizer::new(seed).firewall(rules);
        // 401 packets: never a multiple of the lane width, so the final
        // chunk is ragged.
        let random = PacketTrace::random(fw.schema().clone(), 401, trace_seed);
        assert_four_way(&fw, &random, "random trace");
        let biased = PacketTrace::biased(&fw, 401, 0.3, trace_seed + 1);
        assert_four_way(&fw, &biased, "biased trace");
    }
}

/// Exhaustive oracle: on a tiny 2-field schema (3 bits each) every one of
/// the 64 packets is enumerable, so the compiled matcher is checked
/// cell-by-cell against first-match evaluation for a deterministic family
/// of policies — the same sweep style as `pipelines_agree.rs`.
#[test]
fn engines_match_exhaustive_oracle_on_tiny_schema() {
    let schema = Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap();
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];

    for k in 0..12u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let (b_lo, b_hi) = ((k * 3) % 6, ((k * 3) % 6) + 1);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let d3 = decisions[((k + 2) % 3) as usize];
        let text =
            format!("a={a_lo}-{a_hi}, b={b_lo}-{b_hi} -> {d1}\nb={b_lo} -> {d2}\n* -> {d3}\n");
        let fw = Firewall::parse(schema.clone(), &text).unwrap();

        let fdd = Fdd::from_firewall_fast(&fw).unwrap();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let reloaded = CompiledFdd::decode(schema.clone(), compiled.encode()).unwrap();
        let all: Vec<Packet> = (0..8u64)
            .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
            .collect();
        let mut linears = Vec::new();
        for p in &all {
            let linear = fw.decision_for(p).unwrap();
            assert_eq!(linear, fdd.evaluate(p), "policy {k}, walk at {p}");
            assert_eq!(linear, compiled.classify(p), "policy {k}, compiled at {p}");
            assert_eq!(linear, reloaded.classify(p), "policy {k}, decoded at {p}");
            linears.push(linear);
        }
        // The whole domain through the lane kernel: 64 packets is small
        // enough that this is the exhaustive case; the ragged prefixes
        // cover partial chunks.
        let batch = PacketBatch::from_trace(schema.clone(), &all).unwrap();
        let lanes = compiled.classify_lanes(&batch).unwrap();
        assert_eq!(lanes, linears, "policy {k}, lane kernel");
        assert_ragged_lanes(&compiled, &reloaded, &all, &linears, &format!("policy {k}"));

        // The whole domain through the auto route, under every engine
        // choice a calibrator could install: serial and sharded, uncached
        // and behind a cache, cold and warm — 64 packets checked
        // cell-by-cell each time.
        let mut scratch = EngineScratch::default();
        let mut out = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let choice = EngineChoice {
                threads,
                cached: false,
            };
            choice
                .classify_into(&compiled, None, None, &batch, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, linears, "policy {k}: {choice} diverges");
            let mut cache = DecisionCache::new(schema.clone(), 16).unwrap();
            for pass in ["cold", "warm"] {
                choice
                    .with_cache()
                    .classify_cached_into(&compiled, &batch, &mut cache, &mut scratch, &mut out)
                    .unwrap();
                assert_eq!(
                    out,
                    linears,
                    "policy {k}: {} diverges {pass}",
                    choice.with_cache()
                );
            }
        }
        // And the calibrated route end to end: race the engines on the
        // full domain, behind a cache, then serve through whatever won.
        let mut cache = DecisionCache::new(schema.clone(), 64).unwrap();
        let cal =
            diverse_firewall::exec::calibrate(&compiled, &batch, 2, Some(&mut cache)).unwrap();
        cal.choice
            .classify_cached_into(&compiled, &batch, &mut cache, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(
            out, linears,
            "policy {k}: calibrated auto ({}) diverges",
            cal.choice
        );
    }
}

/// What decoding `bytes` may do: fail with [`ExecError::Wire`], or accept
/// an image that re-encodes to the same bytes and serves `probes` alike
/// through the scalar, column and lane paths. Returns whether it accepted.
fn decodes_cleanly(schema: &Schema, bytes: &[u8], probes: &[Packet], what: &str) -> bool {
    match CompiledFdd::decode(schema.clone(), bytes.to_vec().into()) {
        Err(ExecError::Wire(_)) => false,
        Err(e) => panic!("{what}: a non-wire error: {e}"),
        Ok(image) => {
            assert_eq!(
                image.encode()[..],
                bytes[..],
                "{what}: re-encodes differently"
            );
            let batch = PacketBatch::from_trace(schema.clone(), probes).unwrap();
            let scalar: Vec<Decision> = probes.iter().map(|p| image.classify(p)).collect();
            assert_eq!(
                image.classify_columns(&batch).unwrap(),
                scalar,
                "{what}: columns"
            );
            assert_eq!(
                image.classify_lanes(&batch).unwrap(),
                scalar,
                "{what}: lanes"
            );
            true
        }
    }
}

/// FWEX v3 round-trips a compiled image exactly, and no mutation of an
/// image's bytes makes decoding panic: on the images of paper teams A and
/// B, avg(42) and the 661-rule policy, every truncation, appended bytes,
/// inflated node and cut counts, a nonzero spare byte in a node word, a
/// node naming field 65535 and the version set to 1 or 2 are rejected
/// with [`ExecError::Wire`], and a byte flip at every header byte and at a
/// stride over the arenas either is rejected or yields an image that
/// re-encodes to the flipped bytes and serves a probe trace alike through
/// every path.
#[test]
fn wire_v3_round_trips_and_survives_mutation() {
    let fw = Synthesizer::new(99).firewall(60);
    let compiled = CompiledFdd::from_firewall(&fw).unwrap();
    let reloaded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
    assert_eq!(
        compiled, reloaded,
        "decode must reproduce the matcher exactly"
    );

    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let policies = [
        ("paper A", diverse_firewall::model::paper::team_a()),
        ("paper B", diverse_firewall::model::paper::team_b()),
        ("avg(42)", diverse_firewall::synth::university_average()),
        ("large(661)", diverse_firewall::synth::university_large()),
    ];
    for (name, fw) in &policies {
        let schema = fw.schema().clone();
        let compiled = CompiledFdd::from_firewall(fw).unwrap();
        let image = compiled.encode().to_vec();
        let probes = PacketTrace::random(schema.clone(), 40, next())
            .packets()
            .to_vec();
        assert!(decodes_cleanly(&schema, &image, &probes, name));
        let rejects = |bytes: &[u8], what: &str| {
            assert!(
                matches!(
                    CompiledFdd::decode(schema.clone(), bytes.to_vec().into()),
                    Err(ExecError::Wire(_))
                ),
                "{name}: {what} accepted"
            );
        };

        for cut in 0..image.len() {
            rejects(&image[..cut], &format!("truncation to {cut} bytes"));
        }
        for extra in [1usize, 4, 13, 64] {
            let mut long = image.clone();
            long.extend((0..extra).map(|_| next() as u8));
            rejects(&long, &format!("{extra} appended bytes"));
        }

        // Header words: magic, version, d, d widths, root, node count, cut
        // count; then 12 bytes per node.
        let d = schema.len();
        let word = |bytes: &mut [u8], at: usize, f: &dyn Fn(u32) -> u32| {
            let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            bytes[at..at + 4].copy_from_slice(&f(old).to_le_bytes());
        };
        for version in [1, 2] {
            let mut old = image.clone();
            word(&mut old, 4, &|_| version);
            rejects(&old, &format!("version {version}"));
        }
        let (nodes_at, cuts_at) = (4 * (4 + d), 4 * (5 + d));
        for at in [nodes_at, cuts_at] {
            for grow in [1u32, 1 << 20, u32::MAX] {
                let mut inflated = image.clone();
                word(&mut inflated, at, &|n| n.saturating_add(grow));
                rejects(&inflated, &format!("count at byte {at} grown by {grow}"));
            }
        }
        let body = 4 * (6 + d);
        let node_count = compiled.node_count();
        for node in [0, node_count / 2, node_count - 1] {
            for spare in [1u8, 0x80] {
                let mut bad = image.clone();
                bad[body + 12 * node + 3] = spare;
                rejects(&bad, &format!("spare byte {spare} in node {node}"));
            }
            // The widest field index (or decision code) a node word holds.
            let mut bad = image.clone();
            bad[body + 12 * node..body + 12 * node + 2].copy_from_slice(&[0xFF, 0xFF]);
            rejects(&bad, &format!("field 65535 in node {node}"));
        }

        let (mut accepted, mut rejected) = (0, 0);
        let flips = (0..body).chain((body..image.len()).step_by(7));
        for at in flips {
            let mut flipped = image.clone();
            flipped[at] ^= (next() as u8).max(1);
            let what = format!("{name}: flip at byte {at}");
            if decodes_cleanly(&schema, &flipped, &probes, &what) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "{name}: no flip rejected");
        assert!(accepted > 0, "{name}: no flip accepted, so none was served");
    }
}

/// The paper's running example compiles and serves the same decisions as
/// the rule list it came from, end to end through the session API.
#[test]
fn paper_example_compiles_and_serves() {
    use diverse_firewall::diverse::{Comparison, Resolution};
    use diverse_firewall::model::paper;

    let cmp = Comparison::of(vec![paper::team_a(), paper::team_b()]).unwrap();
    let res = Resolution::by_majority(&cmp);
    let agreed = diverse_firewall::diverse::finalize(&cmp, &res).unwrap();
    let compiled = diverse_firewall::diverse::compile_final(&cmp, &res).unwrap();
    let trace = PacketTrace::biased(&agreed, 2_000, 0.25, 7);
    for p in trace.packets() {
        assert_eq!(agreed.decision_for(p).unwrap(), compiled.classify(p));
    }
}

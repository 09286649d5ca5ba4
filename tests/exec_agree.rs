//! Four-way execution oracle for the compiled classification runtime:
//! on every packet of every trace, the O(n·d) linear first-match scan
//! ([`Firewall::decision_for`]), the plain FDD walk ([`Fdd::evaluate`]),
//! the flat compiled matcher ([`CompiledFdd::classify`], row- and
//! column-major) and the level-synchronous lane kernel
//! ([`CompiledFdd::classify_lanes`], across ragged batch lengths) must
//! return the same decision — on random policies, biased
//! traces, wire-format round trips (including the v2 level metadata), and
//! an exhaustive all-packets sweep of a tiny schema.
//!
//! The multi-core additions ride the same oracle: the parallel lane
//! pipeline must be byte-identical to the serial kernel at every thread
//! count (including counts that do not divide the batch), and the auto
//! route must serve the same decisions under every [`EngineChoice`] a
//! calibrator could install.

use diverse_firewall::core::Fdd;
use diverse_firewall::exec::{
    CompiledFdd, EngineChoice, EngineKind, EngineScratch, PacketBatch, ParScratch,
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

    // Parallel ≡ serial: the sharded pipeline must reproduce the serial
    // kernel bit for bit at every thread count — 401-packet traces are
    // never a multiple of the lane width or the thread count, so ragged
    // final spans and idle workers are both exercised.
    let mut par_scratch = ParScratch::default();
    let mut par_out = Vec::new();
    for threads in [1usize, 2, 3, 4, 8] {
        compiled
            .classify_lanes_par_into(&batch, threads, &mut par_scratch, &mut par_out)
            .unwrap();
        assert_eq!(
            par_out, lanes,
            "{tag}: parallel lanes diverge at {threads} thread(s)"
        );
    }
    // The auto route with no stored calibration serves the default choice
    // — same decisions, including through a decoded image whose lane
    // mirror is built lazily on this very call.
    assert_eq!(
        compiled.classify_auto(&batch).unwrap(),
        lanes,
        "{tag}: auto"
    );
    assert_eq!(
        reloaded.classify_auto(&batch).unwrap(),
        lanes,
        "{tag}: decoded auto"
    );
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
        // choice a calibrator could install: every kind, serial and
        // sharded, with and without the diagram and rows at hand — 64
        // packets checked cell-by-cell each time.
        let mut scratch = EngineScratch::default();
        let mut out = Vec::new();
        for kind in [EngineKind::Walk, EngineKind::Lanes, EngineKind::Spec] {
            for threads in [1usize, 2, 4, 8] {
                let choice = EngineChoice {
                    kind,
                    threads,
                    cached: false,
                };
                for (walk, rows) in [
                    (Some(&fdd), Some(&all[..])),
                    (Some(&fdd), None),
                    (None, None),
                ] {
                    choice
                        .classify_into(&compiled, walk, rows, &batch, &mut scratch, &mut out)
                        .unwrap();
                    assert_eq!(out, linears, "policy {k}: {choice} diverges");
                }
            }
        }
        // And the calibrated entry point end to end: race the engines on
        // the full domain, then serve through whatever won.
        let mut tuned = compiled.clone();
        let cal = tuned.calibrate(Some(&fdd), Some(&all), &batch, 2).unwrap();
        assert_eq!(tuned.stats().calibrated, Some(cal.choice));
        assert_eq!(
            tuned.classify_auto(&batch).unwrap(),
            linears,
            "policy {k}: calibrated auto ({}) diverges",
            cal.choice
        );
    }
}

/// The v2 wire format round-trips the per-node BFS level metadata exactly:
/// the decoded matcher is indistinguishable from the original (stats,
/// levels, lane-kernel mirror and all), and an image whose level byte is
/// tampered with is rejected by the decoder's fresh-BFS re-validation
/// rather than trusted.
#[test]
fn wire_round_trip_preserves_level_metadata_and_rejects_tampering() {
    let fw = Synthesizer::new(99).firewall(60);
    let compiled = CompiledFdd::from_firewall(&fw).unwrap();
    let image = compiled.encode();
    let reloaded = CompiledFdd::decode(fw.schema().clone(), image.clone()).unwrap();
    assert_eq!(
        compiled, reloaded,
        "decode must reproduce the matcher exactly"
    );
    let s = reloaded.stats();
    assert!(s.levels >= 2, "real policies span multiple BFS levels");
    assert!(s.levels <= s.max_depth + 1, "levels bounded by walk depth");

    // Bump the recorded level of the *last* node (guaranteed non-root, and
    // reachable — BFS emission order means every emitted node is reachable)
    // in its node word's high byte: header is 8 u32s + one u32 per field,
    // node i's packed word sits 3 u32s per node after that.
    let d = fw.schema().len();
    let mut bytes = image.to_vec();
    let word_at = |n: usize| 4 * (8 + d + 3 * n);
    let node_count = compiled.node_count();
    let off = word_at(node_count - 1) + 3; // little-endian high byte = level
    bytes[off] = bytes[off].wrapping_add(1);
    let err = CompiledFdd::decode(fw.schema().clone(), bytes.into());
    assert!(
        err.is_err(),
        "tampered level byte must fail the decoder's BFS re-validation"
    );
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

//! Equivalence oracle for the lane kernel, the image's one batch form:
//! its fused, laddered lowering must decide every packet exactly as the
//! column walk of the canonical image, a fresh FDD walk and first match
//! do — on random policies and traffic shapes, through every engine kind
//! and thread count the calibrator can install (on ragged batch lengths),
//! on the Fig. 13 n = 500 policy whose nodes outgrow the ladder tables'
//! budget (so the padded-search spill path runs), across live edit rounds,
//! after a wire roundtrip (which leaves the kernel to the first batch),
//! and exhaustively on all 64 packets of a tiny 2-field schema.

use diverse_firewall::core::Fdd;
use diverse_firewall::exec::{
    CompiledFdd, EngineChoice, EngineKind, EngineScratch, LiveMatcher, PacketBatch,
};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};
use diverse_firewall::synth::{evolve, EvolutionProfile, PacketTrace, Synthesizer};
use proptest::prelude::*;

/// The core oracle: the lane kernel ≡ column walk ≡ fresh FDD walk ≡ first
/// match on every packet of `probes`, and every installable engine choice
/// serves the same decisions on ragged prefixes (partial lane chunks).
fn assert_lanes_agree(compiled: &CompiledFdd, fw: &Firewall, probes: &[Packet], tag: &str) {
    let fdd = Fdd::from_firewall_fast(fw).unwrap();
    let batch = PacketBatch::from_trace(fw.schema().clone(), probes).unwrap();
    let lanes = compiled.classify_lanes(&batch).unwrap();
    assert_eq!(
        lanes,
        compiled.classify_columns(&batch).unwrap(),
        "{tag}: lane kernel diverges from the column walk"
    );
    for (p, &d) in probes.iter().zip(&lanes) {
        assert_eq!(fdd.evaluate(p), d, "{tag}: FDD walk diverges at {p}");
        assert_eq!(
            fw.decision_for(p),
            Some(d),
            "{tag}: first match diverges at {p}"
        );
    }

    let mut scratch = EngineScratch::default();
    let mut got = Vec::new();
    let lengths = [1usize, 3, 31, 33, 401, probes.len()];
    for n in lengths.into_iter().filter(|&n| n <= probes.len()) {
        let batch = PacketBatch::from_trace(fw.schema().clone(), &probes[..n]).unwrap();
        for kind in [EngineKind::Walk, EngineKind::Lanes] {
            for threads in [1usize, 3] {
                let choice = EngineChoice {
                    kind,
                    threads,
                    ..EngineChoice::default()
                };
                choice
                    .classify_into(
                        compiled,
                        Some(&fdd),
                        Some(&probes[..n]),
                        &batch,
                        &mut scratch,
                        &mut got,
                    )
                    .unwrap();
                assert_eq!(got, lanes[..n], "{tag}: {choice} diverged on {n} packets");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on random policies the lane kernel serves exactly, on
    /// skewed traffic and on uniform probes alike, in at most half the
    /// walk's depth (rounded up).
    #[test]
    fn specialized_image_agrees_on_random_policies(seed in 1u64..5_000, rules in 15usize..60) {
        let fw = Synthesizer::new(seed).firewall(rules);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let lanes = compiled.lane_stats();
        prop_assert!(lanes.passes <= compiled.stats().max_depth.div_ceil(2), "{:?}", lanes);

        let mut probes = PacketTrace::zipf(&fw, 1_500, 1.1, seed, seed + 1).packets().to_vec();
        probes.extend_from_slice(PacketTrace::random(fw.schema().clone(), 800, seed + 2).packets());
        assert_lanes_agree(&compiled, &fw, &probes, "random-policy");
    }

    /// Property: live edit rounds keep the auto route exact. Every edit
    /// publishes a fresh image whose kernel compile built, and the next
    /// batch serves the new semantics through it.
    #[test]
    fn edit_rounds_with_respecialization_stay_exact(seed in 1u64..2_000) {
        let fw = Synthesizer::new(seed).firewall(35);
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let mut scratch = EngineScratch::default();
        let mut out = Vec::new();
        for round in 0..3u64 {
            let policy = live.policy();
            let trace = PacketTrace::zipf(&policy, 600, 1.1, seed + round, seed + round + 7);
            let batch = PacketBatch::from_trace(policy.schema().clone(), trace.packets()).unwrap();
            live.calibrate(&batch, Some(trace.packets()), 2).unwrap();
            live.classify_auto_into(&batch, &mut scratch, &mut out).unwrap();
            for (p, d) in trace.packets().iter().zip(&out) {
                prop_assert_eq!(Some(*d), policy.decision_for(p), "round {} pre-edit", round);
            }
            let edits: Vec<_> = evolve(&policy, 2, &EvolutionProfile::default(), seed + round)
                .into_iter()
                .map(|s| s.edit)
                .collect();
            live.apply_edits(&edits).unwrap();
            prop_assert!(live.load().lanes_built(), "compile builds the kernel");
            let after = live.policy();
            live.classify_auto_into(&batch, &mut scratch, &mut out).unwrap();
            for (p, d) in trace.packets().iter().zip(&out) {
                prop_assert_eq!(Some(*d), after.decision_for(p), "round {} post-edit", round);
            }
        }
    }
}

/// The Fig. 13 n = 500 policy of the `exec` bench: its nodes outgrow the
/// ladder tables' budget, so part of every walk resolves through the
/// padded search. Random, rule-biased and Zipf probes all agree.
#[test]
fn spill_path_agrees_on_fig13_n500() {
    let fw = Synthesizer::new(302).firewall(500);
    let compiled = CompiledFdd::from_firewall(&fw).unwrap();
    let lanes = compiled.lane_stats();
    assert!(
        lanes.ladder_nodes > 0 && lanes.search_nodes > 0,
        "both node kinds present: {lanes:?}"
    );
    let probes = [
        (
            "random",
            PacketTrace::random(fw.schema().clone(), 2_000, 41),
        ),
        ("biased", PacketTrace::biased(&fw, 2_000, 0.3, 42)),
        ("zipf", PacketTrace::zipf(&fw, 2_000, 1.0, 43, 44)),
    ];
    for (kind, trace) in &probes {
        assert_lanes_agree(&compiled, &fw, trace.packets(), kind);
    }
}

/// A lane kernel's shape: passes, fused, ladder and padded-search nodes,
/// search bits and bytes.
type Shape = (usize, usize, usize, usize, u32, usize);

fn shape(fw: &Firewall) -> Shape {
    let s = CompiledFdd::from_firewall(fw).unwrap().lane_stats();
    (
        s.passes,
        s.fused_nodes,
        s.ladder_nodes,
        s.search_nodes,
        s.search_bits,
        s.bytes,
    )
}

/// The kernel's shape on the 661-rule policy's 5% variants, seeds 0–19,
/// as built when an image stored every node of a field of at most 8 bits
/// as a per-value jump table and the kernel run-length-encoded it back
/// into cuts.
const VARIANT_SHAPES: [Shape; 20] = [
    (3, 72, 115, 6, 4, 52780),
    (3, 72, 114, 6, 4, 53640),
    (3, 63, 100, 6, 4, 45988),
    (3, 73, 117, 5, 4, 53128),
    (3, 71, 114, 6, 4, 51304),
    (3, 70, 112, 6, 4, 51140),
    (3, 71, 113, 6, 4, 52608),
    (3, 71, 112, 6, 4, 51764),
    (3, 71, 116, 3, 4, 47772),
    (3, 68, 115, 4, 4, 52240),
    (3, 73, 118, 6, 4, 51212),
    (3, 65, 103, 5, 4, 46132),
    (3, 68, 111, 4, 4, 51252),
    (3, 67, 110, 5, 4, 48892),
    (3, 75, 112, 16, 4, 52184),
    (3, 73, 111, 6, 4, 51820),
    (3, 71, 114, 6, 4, 52420),
    (3, 76, 112, 16, 4, 49432),
    (3, 67, 107, 5, 4, 48492),
    (3, 51, 84, 3, 4, 34824),
];

/// Every internal node of an image is its sorted cuts, whatever its
/// field's width, so the kernel reads each node's cuts directly: on the
/// exec bench's policies (avg(42), the 661-rule policy and the Fig. 13
/// rows) and the 661-rule policy's 5% variants it builds the same kernel,
/// pinned here, as when narrow fields went through jump tables.
#[test]
fn lane_kernel_shape_holds_on_the_bench_policies() {
    assert_eq!(
        shape(&diverse_firewall::synth::university_average()),
        (3, 45, 67, 1, 3, 36056),
        "avg(42)"
    );
    let large = diverse_firewall::synth::university_large();
    assert_eq!(shape(&large), (3, 71, 113, 6, 4, 52024), "large(661)");
    for (seed, want) in (0u64..).zip(VARIANT_SHAPES) {
        let variant = diverse_firewall::synth::perturb(&large, 5, seed);
        assert_eq!(shape(&variant), want, "5% variant, seed {seed}");
    }
    let fig13 = [
        (25, (3, 20, 33, 2, 3, 9512)),
        (100, (3, 104, 81, 61, 4, 288656)),
        (500, (3, 249, 88, 250, 5, 379804)),
    ];
    for (seed, (n, want)) in (300u64..).zip(fig13) {
        assert_eq!(
            shape(&Synthesizer::new(seed).firewall(n)),
            want,
            "fig13/synth-n{n}"
        );
    }
}

/// FWEX carries no batch form: a decoded image leaves the kernel unbuilt,
/// and its first batch builds it and serves identically.
#[test]
fn wire_roundtrip_sheds_the_twin() {
    let fw = Synthesizer::new(41).firewall(30);
    let compiled = CompiledFdd::from_firewall(&fw).unwrap();
    assert!(compiled.lanes_built());
    let decoded = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
    assert!(
        !decoded.lanes_built(),
        "a decoded image starts without a kernel"
    );
    assert_eq!(decoded, compiled, "equality ignores the kernel");

    let feed = PacketTrace::zipf(&fw, 1_000, 1.1, 5, 6);
    let batch = PacketBatch::from_trace(fw.schema().clone(), feed.packets()).unwrap();
    let served = decoded.classify_lanes(&batch).unwrap();
    assert!(decoded.lanes_built(), "the first batch builds the kernel");
    assert_eq!(decoded.lane_stats(), compiled.lane_stats());
    assert_eq!(served, compiled.classify_lanes(&batch).unwrap());
    for (p, d) in feed.packets().iter().zip(&served) {
        assert_eq!(fw.decision_for(p), Some(*d));
    }
}

/// Exhaustive sweep: every packet of a 2-field, 8×8-value schema, for
/// several hand-written policies — the lane kernel must match first-match
/// semantics on the whole domain, not just sampled traffic.
#[test]
fn exhaustive_two_field_sweep() {
    let schema = Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap();
    let all: Vec<Packet> = (0..8u64)
        .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
        .collect();
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];

    for k in 0..8u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let text = format!("a={a_lo}-{a_hi}, b=1-6 -> {d1}\n* -> {d2}\n");
        let fw = Firewall::parse(schema.clone(), &text).unwrap();
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        assert_lanes_agree(&compiled, &fw, &all, &format!("policy {k}"));
    }
}

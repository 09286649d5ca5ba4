//! Equivalence oracle for the edit path: an edit batch pushed through a
//! [`LiveMatcher`] — staged on the rule list, rebuilt by fast
//! construction, diffed against the published diagram, compiled — must
//! serve exactly the policy a from-scratch construction serves, and its
//! impact must be exactly what the full §4+§5 comparison pipeline and
//! [`ChangeImpact::of_edits`] report. Every published diagram is also
//! interned into one persistent [`ConsArena`], so canonical roots can be
//! compared across batches: a batch that changes no decision must keep
//! the root id and publish nothing. Probed on random synthesized policies
//! with `fw_synth::evolve` edit batches (including `Swap`), on no-op and
//! cancelling batches, on chains of batches applied to one long-lived
//! matcher, and exhaustively on every packet of a tiny 2-field schema.

use std::sync::Arc;

use diverse_firewall::core::{compare_firewalls, ChangeImpact, ConsArena, ConsId, Edit, Fdd};
use diverse_firewall::exec::{CompiledFdd, LiveMatcher};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Schema};
use diverse_firewall::synth::{evolve, EvolutionProfile, PacketTrace, Synthesizer};
use proptest::prelude::*;

const BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Probe packets: a random trace plus a rule-region-biased one, so both
/// the broad domain and the corridors the rules carve get coverage.
fn probes(fw: &Firewall, n: usize, seed: u64) -> Vec<Packet> {
    let random = PacketTrace::random(fw.schema().clone(), n, seed);
    let biased = PacketTrace::biased(fw, n, 0.3, seed + 1);
    random
        .packets()
        .iter()
        .chain(biased.packets())
        .cloned()
        .collect()
}

fn edits_for(fw: &Firewall, k: usize, seed: u64) -> Vec<Edit> {
    evolve(fw, k, &EvolutionProfile::default(), seed)
        .into_iter()
        .map(|s| s.edit)
        .collect()
}

fn tiny_schema() -> Schema {
    Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap()
}

fn all_tiny_packets() -> Vec<Packet> {
    (0..8u64)
        .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
        .collect()
}

/// A served policy plus one persistent arena that every published diagram
/// is interned into.
struct Served {
    live: LiveMatcher,
    arena: ConsArena,
}

impl Served {
    fn new(fw: &Firewall) -> Served {
        Served {
            live: LiveMatcher::new(fw.clone()).unwrap(),
            arena: ConsArena::new(fw.schema().clone()),
        }
    }

    /// The canonical root of the published diagram.
    fn root(&mut self) -> ConsId {
        let (_, fdd) = self.live.load_pair();
        self.arena.intern_fdd(&fdd).unwrap()
    }

    /// The canonical root of a from-scratch build of the served policy.
    fn fresh_root(&mut self) -> ConsId {
        let fdd = Fdd::from_firewall_fast(&self.live.policy()).unwrap();
        self.arena.intern_fdd(&fdd).unwrap()
    }
}

/// The published image and diagram must decide every probe exactly as the
/// first-match scan does, and the published diagram must be the canonical
/// diagram of the served policy.
fn assert_serves(s: &mut Served, packets: &[Packet], tag: &str) {
    let fw = s.live.policy();
    let (image, fdd) = s.live.load_pair();
    for p in packets {
        let linear = fw.decision_for(p).expect("comprehensive policy");
        assert_eq!(linear, image.classify(p), "{tag}: image diverges at {p}");
        assert_eq!(linear, fdd.evaluate(p), "{tag}: diagram diverges at {p}");
    }
    assert_eq!(
        s.root(),
        s.fresh_root(),
        "{tag}: published diagram is not the policy's canonical diagram"
    );
}

/// The impact must agree with the whole-policy comparison pipeline: same
/// affected-packet cardinality, and the same membership verdict on every
/// probe.
fn assert_impact_agrees(
    before: &Firewall,
    after: &Firewall,
    impact: &ChangeImpact,
    packets: &[Packet],
    tag: &str,
) {
    let full = compare_firewalls(before, after).unwrap();
    let full_count: u128 = full
        .iter()
        .fold(0u128, |n, d| n.saturating_add(d.packet_count()));
    assert_eq!(
        impact.affected_packets(),
        full_count,
        "{tag}: affected-packet count diverges from compare_firewalls"
    );
    assert_eq!(
        ChangeImpact::between(before, after)
            .unwrap()
            .affected_packets(),
        full_count,
        "{tag}: between diverges from compare_firewalls"
    );
    for p in packets {
        let in_full = full.iter().any(|d| d.predicate().matches(p));
        assert_eq!(
            impact.affects(p),
            in_full,
            "{tag}: affects({p}) diverges from compare_firewalls"
        );
        assert_eq!(
            impact.affects(p),
            before.decision_for(p) != after.decision_for(p),
            "{tag}: affects({p}) diverges from first-match semantics"
        );
    }
}

/// One batch through the matcher, checked against every oracle; returns
/// the impact for callers that assert more.
fn assert_batch(s: &mut Served, edits: &[Edit], packets: &[Packet], tag: &str) -> ChangeImpact {
    let before = s.live.policy();
    let (after, impact) = ChangeImpact::of_edits(&before, edits).unwrap();
    let (epoch, image) = (s.live.epoch(), s.live.load());
    let report = s.live.apply_edits(edits).unwrap();
    assert_eq!(s.live.policy(), after, "{tag}: policies diverge");
    assert_eq!(
        report.affected_packets,
        impact.affected_packets_in(after.schema()),
        "{tag}: matcher impact diverges from of_edits"
    );
    assert_eq!(report.maintain.sweep_levels, after.len());
    assert_eq!(report.swapped, !impact.is_noop(), "{tag}: swap mismatch");
    if report.swapped {
        assert_eq!(s.live.epoch(), epoch + 1);
    } else {
        assert_eq!(s.live.epoch(), epoch);
        assert!(
            Arc::ptr_eq(&image, &s.live.load()),
            "{tag}: a no-op batch must publish nothing"
        );
    }
    assert_serves(s, packets, tag);
    assert_impact_agrees(&before, &after, &impact, packets, tag);
    impact
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: on random synthesized policies, a fresh matcher serves
    /// the policy, and every evolved edit batch (sizes 1/4/16, the
    /// default profile includes `Swap`) leaves it serving a policy that
    /// agrees with the from-scratch construction, the full comparison
    /// pipeline, and `of_edits`.
    #[test]
    fn maintained_chain_equals_fresh_on_random_policies(
        seed in 0u64..10_000,
        rules in 2usize..30,
        edit_seed in 0u64..1_000,
    ) {
        let fw = Synthesizer::new(seed).firewall(rules);
        let packets = probes(&fw, 200, edit_seed);
        assert_serves(&mut Served::new(&fw), &packets, "fresh matcher");
        for k in BATCH_SIZES {
            let mut s = Served::new(&fw);
            let edits = edits_for(&fw, k, edit_seed + k as u64);
            assert_batch(&mut s, &edits, &packets, &format!("k={k}"));
        }
    }

    /// Property: batches applied one after another to a single long-lived
    /// matcher stay exact — the serving-loop shape.
    #[test]
    fn chained_batches_stay_exact(
        seed in 0u64..10_000,
        steps in 1usize..5,
    ) {
        let fw = Synthesizer::new(seed).firewall(14);
        let mut s = Served::new(&fw);
        for step in 0..steps {
            let cur = s.live.policy();
            let packets = probes(&cur, 120, seed + step as u64);
            let edits = edits_for(&cur, 3, seed * 31 + step as u64);
            assert_batch(&mut s, &edits, &packets, &format!("step {step}"));
        }
    }

    /// Property: interning is canonical — the fast, the paper-literal and
    /// the reduced diagram of a policy all get one `ConsId` — and the
    /// image compiled straight from the fast diagram encodes byte-identical
    /// to the image compiled from the arena's export of that root.
    #[test]
    fn interning_is_canonical_and_the_fast_image_is_the_exported_one(
        seed in 0u64..10_000,
        rules in 1usize..25,
    ) {
        let fw = Synthesizer::new(seed).firewall(rules);
        let mut arena = ConsArena::new(fw.schema().clone());
        let fast = Fdd::from_firewall_fast(&fw).unwrap();
        let literal = Fdd::from_firewall(&fw).unwrap();
        let root = arena.intern_fdd(&fast).unwrap();
        prop_assert_eq!(arena.intern_fdd(&literal).unwrap(), root);
        prop_assert_eq!(arena.intern_fdd(&literal.reduced()).unwrap(), root);
        let direct = CompiledFdd::compile(&fast).unwrap();
        let exported = CompiledFdd::compile(&arena.to_fdd(root).unwrap()).unwrap();
        prop_assert!(direct.encode() == exported.encode());
    }
}

/// A batch that replaces every rule with itself changes no packet: the
/// impact is a no-op, nothing is published, and the canonical root is
/// unchanged.
#[test]
fn noop_batches_keep_the_root_id() {
    for seed in [5u64, 17, 99] {
        let fw = Synthesizer::new(seed).firewall(12);
        let mut s = Served::new(&fw);
        let root = s.root();
        let edits: Vec<Edit> = (0..fw.len())
            .map(|i| Edit::Replace {
                index: i,
                rule: fw.rules()[i].clone(),
            })
            .collect();
        let packets = probes(&fw, 100, seed);
        let impact = assert_batch(&mut s, &edits, &packets, &format!("seed {seed}"));
        assert!(
            impact.is_noop(),
            "seed {seed}: self-replacement must be a no-op"
        );
        assert_eq!(impact.affected_packets(), 0);
        assert_eq!(s.live.epoch(), 0, "seed {seed}: a no-op must not tick");
        assert_eq!(
            s.fresh_root(),
            root,
            "seed {seed}: self-replacement moved the root"
        );
    }
}

/// Swapping two rules and swapping them back is the identity; a single
/// swap of overlapping rules is tracked exactly.
#[test]
fn swaps_round_trip() {
    let fw = Synthesizer::new(23).firewall(16);
    let packets = probes(&fw, 200, 7);
    let mut s = Served::new(&fw);
    let root = s.root();
    let swap = [Edit::Swap {
        first: 2,
        second: 9,
    }];
    assert_batch(&mut s, &swap, &packets, "swap");
    assert_batch(&mut s, &swap, &packets, "swap back");
    assert_eq!(s.root(), root, "swap round trip must restore the root id");
    assert_eq!(fw, s.live.policy());
}

/// A batch that leaves some packet undecided must be rejected and leave
/// the served state untouched — policy, image, epoch, and service.
#[test]
fn non_comprehensive_edits_roll_back() {
    let fw = Synthesizer::new(3).firewall(8);
    let packets = probes(&fw, 100, 11);
    let mut s = Served::new(&fw);
    let image = s.live.load();
    // Removing the final catch-all leaves the leftover region undecided.
    let err = s
        .live
        .apply_edits(&[Edit::Remove {
            index: fw.len() - 1,
        }])
        .unwrap_err();
    assert!(
        err.to_string().contains("not comprehensive"),
        "unexpected error: {err}"
    );
    assert_eq!(fw, s.live.policy(), "rollback must restore the policy");
    assert!(
        Arc::ptr_eq(&image, &s.live.load()),
        "rollback must keep the image"
    );
    assert_eq!(s.live.epoch(), 0);
    assert_serves(&mut s, &packets, "after rollback");
    // The matcher still accepts further (valid) edits after a rollback.
    let flip = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
    assert_batch(
        &mut s,
        &[Edit::Replace {
            index: 0,
            rule: flip,
        }],
        &packets,
        "edit after rollback",
    );
}

/// One batch must land on exactly the state that applying the same edits
/// one at a time (each as its own batch) lands on: same policy, same
/// canonical root, byte-identical images.
#[test]
fn coalesced_batch_matches_sequential_per_edit_replay() {
    for (seed, rules) in [(41u64, 10usize), (87, 22), (311, 30)] {
        let fw = Synthesizer::new(seed).firewall(rules);
        let packets = probes(&fw, 200, seed + 13);
        for k in BATCH_SIZES {
            let edits = edits_for(&fw, k, seed * 7 + k as u64);
            let tag = format!("seed {seed}, k={k}");

            let mut batched = Served::new(&fw);
            assert_batch(&mut batched, &edits, &packets, &tag);

            let sequential = LiveMatcher::new(fw.clone()).unwrap();
            for (i, e) in edits.iter().enumerate() {
                sequential
                    .apply_edits(std::slice::from_ref(e))
                    .unwrap_or_else(|err| panic!("{tag}: sequential edit {i} failed: {err}"));
            }

            assert_eq!(
                batched.live.policy(),
                sequential.policy(),
                "{tag}: batched and per-edit replay disagree on the policy"
            );
            let (_, seq_fdd) = sequential.load_pair();
            let seq_root = batched.arena.intern_fdd(&seq_fdd).unwrap();
            assert_eq!(
                batched.root(),
                seq_root,
                "{tag}: batched and per-edit diagrams differ"
            );
            assert!(
                batched.live.load().encode() == sequential.load().encode(),
                "{tag}: batched and per-edit images differ"
            );
        }
    }
}

/// Adversarial hand-rolled batches the evolver rarely produces: an
/// insert immediately cancelled by a remove of the same slot (a net
/// no-op that must re-intern to the old root and publish nothing),
/// duplicate-target replaces where the later edit wins, and edits at
/// adjacent indices that overlap after the insert shifts the tail.
#[test]
fn adversarial_batches_match_the_oracles() {
    let fw = Synthesizer::new(59).firewall(12);
    let packets = probes(&fw, 200, 29);
    let flipped = |i: usize| fw.rules()[i].with_decision(fw.rules()[i].decision().inverted());

    // Insert at 3 then remove slot 3: the remove strikes the rule the
    // insert just placed, so the batch is the identity on the policy.
    let mut s = Served::new(&fw);
    let root = s.root();
    let impact = assert_batch(
        &mut s,
        &[
            Edit::Insert {
                index: 3,
                rule: flipped(0),
            },
            Edit::Remove { index: 3 },
        ],
        &packets,
        "insert+remove same slot",
    );
    assert!(impact.is_noop(), "insert+remove same slot must be a no-op");
    assert_eq!(
        s.fresh_root(),
        root,
        "a cancelling batch must re-intern to the old root id"
    );
    assert_eq!(fw, s.live.policy());

    // Two replaces aimed at the same index: only the later one shows.
    let mut s = Served::new(&fw);
    assert_batch(
        &mut s,
        &[
            Edit::Replace {
                index: 5,
                rule: flipped(0),
            },
            Edit::Replace {
                index: 5,
                rule: flipped(5),
            },
        ],
        &packets,
        "duplicate-target replaces",
    );
    assert_eq!(
        s.live.policy().rules()[5],
        flipped(5),
        "the later duplicate-target replace must win"
    );

    // Adjacent indices: replace 4, insert at 5, replace the shifted 6.
    let mut s = Served::new(&fw);
    assert_batch(
        &mut s,
        &[
            Edit::Replace {
                index: 4,
                rule: flipped(4),
            },
            Edit::Insert {
                index: 5,
                rule: flipped(2),
            },
            Edit::Replace {
                index: 6,
                rule: flipped(5),
            },
        ],
        &packets,
        "adjacent overlapping edits",
    );

    // Remove then insert at the same index: a replace spelled as two
    // edits, landing the new rule exactly where the old one sat.
    let mut s = Served::new(&fw);
    assert_batch(
        &mut s,
        &[
            Edit::Remove { index: 7 },
            Edit::Insert {
                index: 7,
                rule: flipped(7),
            },
        ],
        &packets,
        "remove+insert same slot",
    );
    assert_eq!(s.live.policy().rules()[7], flipped(7));
}

/// Exhaustive oracle: on a tiny 2-field schema (3 bits each) all 64
/// packets are enumerable, so the served image and the impact are checked
/// cell by cell — for evolved batches of every size in [`BATCH_SIZES`]
/// and for a hand-rolled batch exercising every `Edit` variant (including
/// a no-op self-replacement) in one sequence.
#[test]
fn maintained_matches_exhaustive_oracle_on_tiny_schema() {
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];
    let all = all_tiny_packets();

    for k in 0..8u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let (b_lo, b_hi) = ((k * 3) % 6, ((k * 3) % 6) + 1);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let d3 = decisions[((k + 2) % 3) as usize];
        let text =
            format!("a={a_lo}-{a_hi}, b={b_lo}-{b_hi} -> {d1}\nb={b_lo} -> {d2}\n* -> {d3}\n");
        let fw = Firewall::parse(tiny_schema(), &text).unwrap();
        assert_serves(&mut Served::new(&fw), &all, &format!("policy {k}, fresh"));

        for batch in BATCH_SIZES {
            let mut s = Served::new(&fw);
            let edits = edits_for(&fw, batch, k * 31 + batch as u64);
            assert_batch(&mut s, &edits, &all, &format!("policy {k}, k={batch}"));
        }

        let flipped = fw.rules()[0].with_decision(fw.rules()[0].decision().inverted());
        let widened = fw.rules()[1].with_decision(fw.rules()[1].decision().inverted());
        let mixed = vec![
            Edit::Replace {
                index: 0,
                rule: fw.rules()[0].clone(), // no-op self-replacement
            },
            Edit::Replace {
                index: 0,
                rule: flipped,
            },
            Edit::Insert {
                index: 1,
                rule: widened,
            },
            Edit::Swap {
                first: 0,
                second: 1,
            },
            Edit::Remove { index: 1 },
        ];
        let mut s = Served::new(&fw);
        assert_batch(&mut s, &mixed, &all, &format!("policy {k}, mixed batch"));
    }
}

/// Doubling sweep on the tiny schema: batches of 1/2/4/8 decision flips
/// cycling over a 3-rule policy, each checked against all 64 packets. The
/// 8-edit batch dirties every position several times over.
#[test]
fn tiny_schema_batch_size_sweep_stays_exact() {
    let all = all_tiny_packets();
    let fw = Firewall::parse(
        tiny_schema(),
        "a=1-4, b=0-5 -> discard\nb=2-3 -> accept-log\n* -> accept\n",
    )
    .unwrap();

    for k in [1usize, 2, 4, 8] {
        let edits: Vec<Edit> = (0..k)
            .map(|i| {
                let index = i % fw.len();
                Edit::Replace {
                    index,
                    rule: fw.rules()[index].with_decision(fw.rules()[index].decision().inverted()),
                }
            })
            .collect();
        let mut s = Served::new(&fw);
        assert_batch(&mut s, &edits, &all, &format!("tiny sweep k={k}"));
    }
}

//! Equivalence oracle for the edit path: after any edit batch applied
//! through [`LiveMatcher::apply_edits`], the served image must equal a
//! fresh [`CompiledFdd::compile`] of the matcher's post-edit diagram and a
//! fresh [`CompiledFdd::from_firewall`] of the post-edit policy, and
//! decide every probed packet as the first-match scan of that policy does
//! — through the scalar matcher, the lane kernel, and a wire-format round
//! trip of the served image. Probed on random policies
//! with `fw_synth::evolve` edit batches of sizes {1, 4, 16}, on chains of
//! batches through one matcher, on guaranteed no-op batches, exhaustively
//! on every packet of a tiny 2-field schema, and on a long stream of
//! insert/retire batches shaped like the serving benchmark's.

use std::collections::VecDeque;
use std::sync::Arc;

use diverse_firewall::core::{ChangeImpact, Edit};
use diverse_firewall::exec::{CompiledFdd, LiveMatcher, PacketBatch};
use diverse_firewall::model::{Decision, FieldDef, Firewall, Packet, Rule, Schema};
use diverse_firewall::synth::{evolve, EvolutionProfile, PacketTrace, Synthesizer};
use proptest::prelude::*;

const BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Asserts that `live` serves a fresh compile of both its published
/// diagram and its policy, and that the served image, its decoded wire
/// form and its lane kernel all agree with first-match semantics of that
/// policy on every probe.
fn assert_serves_fresh_compile(live: &LiveMatcher, packets: &[Packet], tag: &str) {
    let policy = live.policy();
    let (served, fdd) = live.load_pair();
    assert_eq!(
        *served,
        CompiledFdd::compile(&fdd).unwrap(),
        "{tag}: served image is not a fresh compile of the post-edit diagram"
    );
    assert_eq!(
        *served,
        CompiledFdd::from_firewall(&policy).unwrap(),
        "{tag}: served image is not a fresh compile of the post-edit policy"
    );
    let reloaded = CompiledFdd::decode(policy.schema().clone(), served.encode()).unwrap();
    let mut expect = Vec::with_capacity(packets.len());
    for p in packets {
        let linear = policy.decision_for(p).expect("comprehensive policy");
        assert_eq!(linear, served.classify(p), "{tag}: served diverges at {p}");
        assert_eq!(
            linear,
            reloaded.classify(p),
            "{tag}: decoded image diverges at {p}"
        );
        expect.push(linear);
    }
    let batch = PacketBatch::from_trace(policy.schema().clone(), packets).unwrap();
    assert_eq!(
        served.classify_lanes(&batch).unwrap(),
        expect,
        "{tag}: served lane kernel diverges"
    );
}

/// Applies `edits` to a fresh matcher serving `fw` and checks the result
/// with [`assert_serves_fresh_compile`].
fn assert_edit_path_agrees(fw: &Firewall, edits: &[Edit], packets: &[Packet], tag: &str) {
    let live = LiveMatcher::new(fw.clone()).unwrap();
    live.apply_edits(edits).unwrap();
    assert_serves_fresh_compile(&live, packets, tag);
}

fn edits_for(fw: &Firewall, k: usize, seed: u64) -> Vec<Edit> {
    evolve(fw, k, &EvolutionProfile::default(), seed)
        .into_iter()
        .map(|s| s.edit)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: on random synthesized policies, the image the edit path
    /// publishes is a fresh compile, for edit batches of every size in
    /// [`BATCH_SIZES`], probed on random and rule-region-biased traces.
    #[test]
    fn incremental_equals_fresh_on_random_policies(
        seed in 0u64..10_000,
        rules in 2usize..30,
        edit_seed in 0u64..1_000,
    ) {
        let fw = Synthesizer::new(seed).firewall(rules);
        let random = PacketTrace::random(fw.schema().clone(), 257, edit_seed);
        let biased = PacketTrace::biased(&fw, 257, 0.3, edit_seed + 1);
        let packets: Vec<Packet> = random
            .packets()
            .iter()
            .chain(biased.packets())
            .cloned()
            .collect();
        for k in BATCH_SIZES {
            let edits = edits_for(&fw, k, edit_seed + k as u64);
            assert_edit_path_agrees(&fw, &edits, &packets, &format!("k={k}"));
        }
    }
}

/// A batch that replaces every rule with itself is a semantic no-op: the
/// matcher publishes nothing, so the served image is shared whole with
/// every earlier snapshot — and it still serves the policy exactly.
#[test]
fn noop_batches_share_the_whole_image() {
    for seed in [5u64, 17, 99] {
        let fw = Synthesizer::new(seed).firewall(12);
        let edits: Vec<Edit> = (0..fw.len())
            .map(|i| Edit::Replace {
                index: i,
                rule: fw.rules()[i].clone(),
            })
            .collect();
        let (_, impact) = ChangeImpact::of_edits(&fw, &edits).unwrap();
        assert!(impact.is_noop(), "self-replacement must be a no-op");
        let live = LiveMatcher::new(fw.clone()).unwrap();
        let before = live.load();
        let report = live.apply_edits(&edits).unwrap();
        assert!(!report.swapped && report.recompile.is_none());
        assert!(Arc::ptr_eq(&before, &live.load()), "no-op must not publish");
        let trace = PacketTrace::biased(&fw, 400, 0.3, seed);
        assert_serves_fresh_compile(&live, trace.packets(), &format!("noop seed {seed}"));
    }
}

/// Batches chained through one matcher: every published image is a fresh
/// compile of the diagram the chain has reached — no edit ever needs a
/// rebuild from the rule list to stay correct.
#[test]
fn chained_edits_stay_equivalent() {
    let fw = Synthesizer::new(7).firewall(20);
    let live = LiveMatcher::new(fw.clone()).unwrap();
    let trace = PacketTrace::random(fw.schema().clone(), 300, 3);
    for step in 0..6u64 {
        let edits = edits_for(&live.policy(), 2, 100 + step);
        live.apply_edits(&edits).unwrap();
        assert_serves_fresh_compile(&live, trace.packets(), &format!("step {step}"));
    }
}

/// Exhaustive oracle: on a tiny 2-field schema (3 bits each) all 64
/// packets are enumerable, so the served image is checked cell-by-cell
/// against first-match evaluation — for evolved batches of every size in
/// [`BATCH_SIZES`] and for a hand-rolled batch exercising every `Edit`
/// variant (including a no-op self-replacement) in one sequence.
#[test]
fn incremental_matches_exhaustive_oracle_on_tiny_schema() {
    let schema = Schema::new(vec![
        FieldDef::new("a", 3).unwrap(),
        FieldDef::new("b", 3).unwrap(),
    ])
    .unwrap();
    let decisions = [Decision::Accept, Decision::Discard, Decision::AcceptLog];
    let all: Vec<Packet> = (0..8u64)
        .flat_map(|a| (0..8u64).map(move |b| Packet::new(vec![a, b])))
        .collect();

    for k in 0..8u64 {
        let (a_lo, a_hi) = (k % 5, (k % 5) + 3);
        let (b_lo, b_hi) = ((k * 3) % 6, ((k * 3) % 6) + 1);
        let d1 = decisions[(k % 3) as usize];
        let d2 = decisions[((k + 1) % 3) as usize];
        let d3 = decisions[((k + 2) % 3) as usize];
        let text =
            format!("a={a_lo}-{a_hi}, b={b_lo}-{b_hi} -> {d1}\nb={b_lo} -> {d2}\n* -> {d3}\n");
        let fw = Firewall::parse(schema.clone(), &text).unwrap();

        for batch in BATCH_SIZES {
            let edits = edits_for(&fw, batch, k * 31 + batch as u64);
            assert_edit_path_agrees(&fw, &edits, &all, &format!("policy {k}, k={batch}"));
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
        assert_edit_path_agrees(&fw, &mixed, &all, &format!("policy {k}, mixed batch"));
    }
}

/// The serving benchmark's edit stream: batches of `k` edits, first
/// retiring the stream's own oldest inserts (up to half the batch, while
/// more than [`InsertRetire::LIVE`] would stay live), then inserts drawn
/// from `evolve` (threat blocks and opened services).
struct InsertRetire {
    current: Firewall,
    inserted: VecDeque<Rule>,
    seed: u64,
}

impl InsertRetire {
    const LIVE: usize = 8;

    fn next_batch(&mut self, k: usize) -> Vec<Edit> {
        let mut edits = Vec::with_capacity(k);
        while edits.len() < k / 2 && self.inserted.len() + k / 2 > Self::LIVE {
            let rule = self.inserted.pop_front().expect("checked non-empty");
            let last = self.current.len() - 1;
            if let Some(index) = self.current.rules()[..last].iter().position(|r| *r == rule) {
                let edit = Edit::Remove { index };
                self.current = edit.apply(&self.current).unwrap();
                edits.push(edit);
            }
        }
        let profile = EvolutionProfile {
            w_block_threat: 1,
            w_open_service: 1,
            w_delete: 0,
            w_swap: 0,
            w_flip_decision: 0,
        };
        self.seed += 1;
        for step in evolve(&self.current, k - edits.len(), &profile, self.seed) {
            if let Edit::Insert { rule, .. } = &step.edit {
                self.inserted.push_back(rule.clone());
            }
            edits.push(step.edit);
            self.current = step.after;
        }
        edits
    }
}

/// The batch that undoes `batch` on `before` (inserts and removes only).
fn inverse(before: &Firewall, batch: &[Edit]) -> Vec<Edit> {
    let mut fw = before.clone();
    let mut undo = Vec::with_capacity(batch.len());
    for edit in batch {
        undo.push(match edit {
            Edit::Insert { index, .. } => Edit::Remove { index: *index },
            Edit::Remove { index } => Edit::Insert {
                index: *index,
                rule: fw.rules()[*index].clone(),
            },
            other => panic!("the stream only inserts and removes, got {other:?}"),
        });
        fw = edit.apply(&fw).unwrap();
    }
    undo.reverse();
    undo
}

/// Fifty insert/retire batches through one matcher: after every batch the
/// served image equals a fresh compile of the published diagram, so it
/// never grows past what a full compile would build. Every tenth batch is
/// also undone by its inverse, which must give back exactly the image
/// served before the batch — the first time, the starting compile.
#[test]
fn insert_retire_stream_serves_the_fresh_compile() {
    let fw = fw_synth::university_average();
    let live = LiveMatcher::new(fw.clone()).unwrap();
    let start = live.load();
    assert_eq!(*start, CompiledFdd::from_firewall(&fw).unwrap());
    let mut stream = InsertRetire {
        current: fw.clone(),
        inserted: VecDeque::new(),
        seed: 3,
    };
    let trace = PacketTrace::random(fw.schema().clone(), 200, 5);
    for i in 0..50 {
        let before_policy = live.policy();
        let before = live.load();
        let batch = stream.next_batch(4);
        live.apply_edits(&batch).unwrap();
        assert_eq!(live.policy(), stream.current, "batch {i}: policy drifted");
        assert_serves_fresh_compile(&live, trace.packets(), &format!("batch {i}"));
        if i % 10 == 0 {
            live.apply_edits(&inverse(&before_policy, &batch)).unwrap();
            assert_eq!(live.policy(), before_policy, "batch {i}: inverse policy");
            assert_eq!(
                *live.load(),
                *before,
                "batch {i}: batch + inverse must restore the image"
            );
            live.apply_edits(&batch).unwrap();
        }
    }
    assert_ne!(live.policy(), fw, "the stream changed the policy");
}

//! Fast construction against the paper-literal constructor, and against
//! itself before its containment pre-pass.
//!
//! `Fdd::from_firewall_fast` first drops every rule that lies, on every
//! field, inside an earlier one, then builds its bit tables over the rules
//! it kept. The first test holds the result to the literal Fig. 7 builder
//! followed by `reduced()` on the TCP/IP schema. The second pins the whole
//! arena, node by node, to digests taken from the constructor that built
//! its tables over every rule: the pre-pass may not even reorder nodes.

use std::collections::BTreeSet;

use diverse_firewall::core::{Fdd, NodeView};
use diverse_firewall::model::Firewall;
use diverse_firewall::synth::{perturb, university_average, university_large, Synthesizer};

#[test]
fn fast_equals_reduced_literal_on_the_average_policy_and_its_fig12_variants() {
    let avg = university_average();
    let mut policies = vec![avg.clone()];
    for x in (10..=50).step_by(10) {
        policies.push(perturb(&avg, x, u64::from(x)));
    }
    for fw in &policies {
        let fast = Fdd::from_firewall_fast(fw).expect("comprehensive");
        let literal = Fdd::from_firewall(fw).expect("comprehensive").reduced();
        assert!(fast.isomorphic(&literal), "{} rules", fw.len());
        assert_eq!(
            fast.node_count(),
            literal.node_count(),
            "{} rules",
            fw.len()
        );
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A digest of the arena as the public API shows it: its length, its
/// root, and every node the root reaches in index order, each as its
/// decision code, or as its field and every edge's target and runs.
fn node_digest(fdd: &Fdd) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(fdd.arena_len() as u64);
    h.word(fdd.root().index() as u64);
    let mut seen = BTreeSet::new();
    let mut stack = vec![fdd.root()];
    while let Some(id) = stack.pop() {
        if seen.insert(id) {
            if let NodeView::Internal { edges, .. } = fdd.view(id) {
                stack.extend(edges.iter().map(|e| e.target()));
            }
        }
    }
    for id in seen {
        h.word(id.index() as u64);
        match fdd.view(id) {
            NodeView::Terminal(d) => h.word(u64::from(d.code())),
            NodeView::Internal { field, edges } => {
                h.word(field.index() as u64);
                h.word(edges.len() as u64);
                for e in edges {
                    h.word(e.target().index() as u64);
                    h.word(e.label().run_count() as u64);
                    for iv in e.label().iter() {
                        h.word(iv.lo());
                        h.word(iv.hi());
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn fast_construction_keeps_its_node_order() {
    let large = university_large();
    let cases: [(&str, Firewall, usize, u64); 5] = [
        ("large(661)", large.clone(), 122, 0x2a18_e925_f735_eca9),
        (
            "large(661) perturbed 10%",
            perturb(&large, 10, 1),
            96,
            0x3b83_b806_e8a3_4b45,
        ),
        (
            "independent n=500 (a)",
            Synthesizer::new(100).firewall(500),
            557,
            0x6c06_d92b_eed0_7e25,
        ),
        (
            "independent n=500 (b)",
            Synthesizer::new(200).firewall(500),
            318,
            0xfd21_bcdd_1b1d_6385,
        ),
        (
            "uncontained n=661",
            Synthesizer::new(661).uncontained_firewall(661),
            3825,
            0xb55a_e45f_26d2_8773,
        ),
    ];
    for (name, fw, nodes, digest) in cases {
        let fdd = Fdd::from_firewall_fast(&fw).expect("comprehensive");
        assert_eq!(fdd.node_count(), nodes, "{name}");
        assert_eq!(fdd.arena_len(), nodes, "{name}: every node is reachable");
        assert_eq!(node_digest(&fdd), digest, "{name}");
    }
}

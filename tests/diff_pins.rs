//! The comparison outputs pinned: the pair diff, cross comparison and
//! reduction must return exactly what they returned before they moved onto
//! the hash-consed arena.
//!
//! Each pair contributes its `cell_count`, `packet_count`, raw cells in
//! order and coalesced regions to an FNV-1a digest, one digest per group
//! of pairs; the constants were captured from the synchronized-product
//! walk that the arena walk replaced. The pairs are the `smoke` bin's, the
//! Fig. 12 and Fig. 13 harnesses' at the run counts of `results/`, and the
//! 661-rule policy against twenty of its 5% variants.

use diverse_firewall::core::{cross_compare, diff_firewalls, Discrepancy, Fdd};
use diverse_firewall::model::Firewall;
use diverse_firewall::synth::{perturb, university_average, university_large, Synthesizer};

/// FNV-1a over a canonical byte form of the outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn regions(&mut self, ds: &[Discrepancy]) {
        self.word(ds.len() as u128);
        for d in ds {
            for set in d.predicate().sets() {
                self.word(set.run_count() as u128);
                for iv in set.iter() {
                    self.word(u128::from(iv.lo()));
                    self.word(u128::from(iv.hi()));
                }
            }
            for decision in [d.left(), d.right()] {
                self.bytes(decision.to_string().as_bytes());
                self.bytes(&[0]);
            }
        }
    }

    /// Folds in one pair's counts, raw cells in order and coalesced
    /// regions.
    fn pair(&mut self, a: &Firewall, b: &Firewall) {
        let product = diff_firewalls(a, b).expect("comprehensive, one schema");
        self.word(product.cell_count());
        self.word(product.packet_count());
        self.regions(&product.raw_discrepancies());
        self.regions(&product.discrepancies());
    }
}

fn digest_pairs<'a>(pairs: impl IntoIterator<Item = (&'a Firewall, Firewall)>) -> String {
    let mut digest = Digest::new();
    for (a, b) in pairs {
        digest.pair(a, &b);
    }
    format!("{:016x}", digest.0)
}

#[test]
fn smoke_pairs_keep_their_outputs() {
    let avg = university_average();
    let large = university_large();
    let mut got = vec![
        digest_pairs([(&avg, perturb(&avg, 20, 1))]),
        digest_pairs([(&large, perturb(&large, 10, 1))]),
    ];
    let mut s1 = Synthesizer::new(100);
    let mut s2 = Synthesizer::new(200);
    for n in [500usize, 1000, 2000, 3000] {
        let a = s1.firewall(n);
        got.push(digest_pairs([(&a, s2.firewall(n))]));
    }
    assert_eq!(
        got,
        [
            "76505505971ef2ab",
            "903b9db7bdbd61cf",
            "d7ae64649d0c3e3b",
            "16dd61472b9c83ec",
            "979bf31716141d08",
            "380cbf9354e28033",
        ]
    );
}

#[test]
fn fig12_pairs_keep_their_outputs() {
    let got: Vec<String> = [university_large(), university_average()]
        .iter()
        .map(|fw| {
            digest_pairs((5..=50).step_by(5).flat_map(|x| {
                (0..10u64).map(move |run| (fw, perturb(fw, x, run * 1000 + u64::from(x))))
            }))
        })
        .collect();
    assert_eq!(got, ["6a3aac429df3187d", "1795c9a9deb9b6d6"]);
}

/// One digest per Fig. 13 size, over its five runs' independent pairs.
fn fig13_digests(sizes: &[usize]) -> Vec<String> {
    sizes
        .iter()
        .map(|&n| {
            let pairs: Vec<(Firewall, Firewall)> = (0..5u64)
                .map(|run| {
                    let base = n as u64 * 100 + run;
                    (
                        Synthesizer::new(base).firewall(n),
                        Synthesizer::new(base + 50).firewall(n),
                    )
                })
                .collect();
            digest_pairs(pairs.iter().map(|(a, b)| (a, b.clone())))
        })
        .collect()
}

// Fig. 13 is the heaviest group, so it is split in two tests that run in
// parallel.
#[test]
fn fig13_pairs_up_to_1400_rules_keep_their_outputs() {
    assert_eq!(
        fig13_digests(&[200, 600, 1000, 1400]),
        [
            "a1144b535c0163ce",
            "f4eb0002bdb0cdc8",
            "835b03c42a911d74",
            "60537119f025b52f",
        ]
    );
}

#[test]
fn fig13_pairs_from_1800_rules_keep_their_outputs() {
    assert_eq!(
        fig13_digests(&[1800, 2200, 2600, 3000]),
        [
            "21ca18eb543fc9f8",
            "fb2b956df83dfd10",
            "edcbdb46231c154d",
            "0032011a6b0f5a4a",
        ]
    );
}

#[test]
fn variant_pairs_keep_their_outputs() {
    let large = university_large();
    let got = digest_pairs((1..=20u64).map(|seed| (&large, perturb(&large, 5, seed))));
    assert_eq!(got, "a2ef3d0fd80c6f80");
}

#[test]
fn cross_comparison_keeps_its_outputs() {
    let large = university_large();
    let got: Vec<String> = [3usize, 8]
        .into_iter()
        .map(|teams| {
            let versions: Vec<Firewall> = (0..teams as u64)
                .map(|k| perturb(&large, 5 * (k as u32 + 1), k))
                .collect();
            let mut digest = Digest::new();
            for ((i, j), ds) in cross_compare(&versions).expect("comprehensive teams") {
                digest.word(i as u128);
                digest.word(j as u128);
                digest.regions(&ds);
            }
            format!("{:016x}", digest.0)
        })
        .collect();
    assert_eq!(got, ["3d1eb94a3097a86a", "c5df6d5048bf2c9e"]);
}

#[test]
fn reduction_keeps_its_node_counts() {
    let mut got = Vec::new();
    for fw in [
        university_average(),
        Synthesizer::new(100).firewall(100),
        university_large(),
    ] {
        let literal = Fdd::from_firewall(&fw).expect("comprehensive");
        let fast = Fdd::from_firewall_fast(&fw).expect("comprehensive");
        got.push([
            literal.node_count(),
            literal.reduced().node_count(),
            fast.node_count(),
            fast.reduced().node_count(),
        ]);
    }
    assert_eq!(
        got,
        [
            [2_459, 72, 72, 72],
            [20_266, 190, 190, 190],
            [195_058, 122, 122, 122],
        ]
    );
}

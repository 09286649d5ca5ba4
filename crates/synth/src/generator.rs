//! Synthetic firewall generation "based on the characteristics of real-life
//! firewalls" (paper §8.2.2, citing Gupta's measurements \[13]).
//!
//! Real policies are highly structured: rules draw their IP blocks from a
//! small pool of site prefixes, their ports from a handful of well-known
//! services and ranges, and most of them end in a catch-all. The generator
//! reproduces that structure — a seeded pool of prefixes and port classes
//! per policy — which both matches reality and keeps FDD sizes in the
//! regime the paper measures (two independently generated 3,000-rule
//! policies compare in seconds).

use fw_model::{
    Decision, FieldId, Firewall, Interval, IntervalSet, Predicate, Prefix, Rule, Schema,
};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Tunable profile for the synthetic generator.
///
/// The defaults follow the rule-statistics summary the paper relies on:
/// ~10 % of rules constrain the source port, most constrain the protocol,
/// destination IPs are more specific than sources, and decisions skew
/// toward `discard` for specific rules with an accepting catch-all.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthProfile {
    /// Number of distinct IP prefixes in the policy's address pool.
    pub prefix_pool: usize,
    /// Number of distinct port specifications in the pool.
    pub port_pool: usize,
    /// Probability that a rule constrains the source address.
    pub p_src: f64,
    /// Probability that a rule constrains the destination address.
    pub p_dst: f64,
    /// Probability that a rule constrains the source port.
    pub p_sport: f64,
    /// Probability that a rule constrains the destination port.
    pub p_dport: f64,
    /// Probability that a rule constrains the protocol.
    pub p_proto: f64,
    /// Probability that a non-catch-all rule discards.
    pub p_discard: f64,
    /// Probability that a discarding rule also logs.
    pub p_log: f64,
}

impl Default for SynthProfile {
    fn default() -> Self {
        SynthProfile {
            prefix_pool: 24,
            port_pool: 16,
            p_src: 0.55,
            p_dst: 0.75,
            p_sport: 0.10,
            p_dport: 0.70,
            p_proto: 0.85,
            p_discard: 0.55,
            p_log: 0.15,
        }
    }
}

/// Deterministic synthetic-firewall generator over [`Schema::tcp_ip`].
///
/// # Example
///
/// ```
/// use fw_synth::Synthesizer;
///
/// let fw = Synthesizer::new(42).firewall(100);
/// assert_eq!(fw.len(), 100);
/// assert!(fw.is_comprehensive_syntactically());
/// // Same seed, same policy:
/// assert_eq!(fw, Synthesizer::new(42).firewall(100));
/// ```
#[derive(Debug)]
pub struct Synthesizer {
    rng: StdRng,
    profile: SynthProfile,
    schema: Schema,
}

impl Synthesizer {
    /// Creates a generator with the default profile and the given seed.
    pub fn new(seed: u64) -> Synthesizer {
        Synthesizer::with_profile(seed, SynthProfile::default())
    }

    /// Creates a generator with a custom profile.
    pub fn with_profile(seed: u64, profile: SynthProfile) -> Synthesizer {
        Synthesizer {
            rng: StdRng::seed_from_u64(seed),
            profile,
            schema: Schema::tcp_ip(),
        }
    }

    /// The schema generated policies use.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generates a comprehensive policy with exactly `n` rules (`n ≥ 1`);
    /// the last rule is a catch-all.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn firewall(&mut self, n: usize) -> Firewall {
        assert!(n >= 1, "a firewall needs at least one rule");
        let prefixes = self.prefix_pool();
        let ports = self.port_pool();
        let mut rules = Vec::with_capacity(n);
        for _ in 0..n - 1 {
            rules.push(self.rule(&prefixes, &ports));
        }
        let default_decision = if self.rng.random_bool(0.7) {
            Decision::Accept
        } else {
            Decision::Discard
        };
        rules.push(Rule::catch_all(&self.schema, default_decision));
        Firewall::new(self.schema.clone(), rules).expect("generated rules are valid")
    }

    /// Generates a comprehensive policy with exactly `n` rules (`n ≥ 1`)
    /// in which no rule lies inside an earlier one: `n − 1` distinct rules
    /// drawn as [`Synthesizer::firewall`] draws them, ordered by how many
    /// packets they match (fewest first, ties in draw order), then a
    /// catch-all. A rule inside another matches at most as many packets,
    /// and as many only if the two are equal, so none is shadowed by an
    /// earlier one. Real policies list exceptions before the general rules
    /// in this way; for `Fdd::from_firewall_fast`, which first drops every
    /// rule an earlier one contains, it is the case with nothing to drop.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use fw_synth::Synthesizer;
    ///
    /// let fw = Synthesizer::new(42).uncontained_firewall(100);
    /// assert_eq!(fw.len(), 100);
    /// let rules = fw.rules();
    /// for (i, r) in rules.iter().enumerate() {
    ///     assert!(rules[..i]
    ///         .iter()
    ///         .all(|q| !r.predicate().is_subset_of(q.predicate())));
    /// }
    /// ```
    pub fn uncontained_firewall(&mut self, n: usize) -> Firewall {
        assert!(n >= 1, "a firewall needs at least one rule");
        let prefixes = self.prefix_pool();
        let ports = self.port_pool();
        let mut seen = std::collections::HashSet::new();
        let mut rules = Vec::with_capacity(n);
        while rules.len() < n - 1 {
            let rule = self.rule(&prefixes, &ports);
            if seen.insert(rule.predicate().clone()) {
                rules.push(rule);
            }
        }
        rules.sort_by_key(|r| r.predicate().count());
        let default_decision = if self.rng.random_bool(0.7) {
            Decision::Accept
        } else {
            Decision::Discard
        };
        rules.push(Rule::catch_all(&self.schema, default_decision));
        Firewall::new(self.schema.clone(), rules).expect("generated rules are valid")
    }

    /// The policy's address pool: site-local prefixes of realistic lengths
    /// (an /8 or /16 "campus", /24 subnets, /32 hosts).
    fn prefix_pool(&mut self) -> Vec<IntervalSet> {
        let mut out = Vec::with_capacity(self.profile.prefix_pool);
        for _ in 0..self.profile.prefix_pool {
            let plen = *[8u32, 16, 16, 24, 24, 24, 32, 32]
                .choose(&mut self.rng)
                .expect("static choices");
            let base: u64 = self.rng.random_range(0..=u64::from(u32::MAX));
            let p = Prefix::new(base, plen, 32).expect("static widths are valid");
            out.push(IntervalSet::from_interval(p.interval()));
        }
        out
    }

    /// The policy's port pool: well-known services, ephemeral ranges, and
    /// occasional small custom ranges.
    fn port_pool(&mut self) -> Vec<IntervalSet> {
        const WELL_KNOWN: [u64; 12] = [22, 23, 25, 53, 80, 110, 135, 139, 143, 443, 445, 3389];
        let mut out = Vec::with_capacity(self.profile.port_pool);
        for _ in 0..self.profile.port_pool {
            let roll: f64 = self.rng.random();
            let set = if roll < 0.6 {
                IntervalSet::from_value(*WELL_KNOWN.choose(&mut self.rng).expect("static choices"))
            } else if roll < 0.8 {
                IntervalSet::from_interval(Interval::new(1024, 65535).expect("static bounds"))
            } else {
                let lo = self.rng.random_range(0..=65000u64);
                let hi = (lo + self.rng.random_range(1..=512u64)).min(65535);
                IntervalSet::from_interval(Interval::new(lo, hi).expect("lo <= hi"))
            };
            out.push(set);
        }
        out
    }

    fn rule(&mut self, prefixes: &[IntervalSet], ports: &[IntervalSet]) -> Rule {
        // Real rules constrain something; an unconstrained rule would be an
        // accidental mid-policy catch-all shadowing everything below it.
        loop {
            let r = self.try_rule(prefixes, ports);
            if !r.predicate().is_any(&self.schema) {
                return r;
            }
        }
    }

    fn try_rule(&mut self, prefixes: &[IntervalSet], ports: &[IntervalSet]) -> Rule {
        let mut pred = Predicate::any(&self.schema);
        let p = self.profile.clone();
        if self.rng.random_bool(p.p_src) {
            let set = prefixes
                .choose(&mut self.rng)
                .expect("non-empty pool")
                .clone();
            pred = pred
                .with_field(FieldId(0), set)
                .expect("pool sets are valid");
        }
        if self.rng.random_bool(p.p_dst) {
            let set = prefixes
                .choose(&mut self.rng)
                .expect("non-empty pool")
                .clone();
            pred = pred
                .with_field(FieldId(1), set)
                .expect("pool sets are valid");
        }
        if self.rng.random_bool(p.p_sport) {
            let set = ports.choose(&mut self.rng).expect("non-empty pool").clone();
            pred = pred
                .with_field(FieldId(2), set)
                .expect("pool sets are valid");
        }
        if self.rng.random_bool(p.p_dport) {
            let set = ports.choose(&mut self.rng).expect("non-empty pool").clone();
            pred = pred
                .with_field(FieldId(3), set)
                .expect("pool sets are valid");
        }
        if self.rng.random_bool(p.p_proto) {
            let proto = *[1u64, 6, 6, 6, 17, 17]
                .choose(&mut self.rng)
                .expect("static choices");
            pred = pred
                .with_field(FieldId(4), IntervalSet::from_value(proto))
                .expect("pool sets are valid");
        }
        let decision = if self.rng.random_bool(p.p_discard) {
            if self.rng.random_bool(p.p_log) {
                Decision::DiscardLog
            } else {
                Decision::Discard
            }
        } else if self.rng.random_bool(p.p_log / 2.0) {
            Decision::AcceptLog
        } else {
            Decision::Accept
        };
        Rule::new(pred, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = Synthesizer::new(7).firewall(50);
        let b = Synthesizer::new(7).firewall(50);
        let c = Synthesizer::new(8).firewall(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_firewalls_are_valid_and_comprehensive() {
        for seed in 0..5 {
            let fw = Synthesizer::new(seed).firewall(80);
            assert_eq!(fw.len(), 80);
            assert!(fw.is_comprehensive_syntactically());
            // And convertible to a valid FDD (full §3 pipeline works).
            let fdd = fw_core::Fdd::from_firewall(&fw).unwrap();
            fdd.validate().unwrap();
        }
    }

    #[test]
    fn rules_use_realistic_pools() {
        let fw = Synthesizer::new(3).firewall(200);
        // Distinct destination-address sets stay bounded by the pool size
        // (plus the full domain).
        let distinct: std::collections::HashSet<_> = fw
            .rules()
            .iter()
            .map(|r| format!("{}", r.predicate().set(FieldId(1))))
            .collect();
        assert!(
            distinct.len() <= 26,
            "destination pool leaked: {}",
            distinct.len()
        );
    }

    #[test]
    fn single_rule_firewall_is_catch_all() {
        let fw = Synthesizer::new(1).firewall(1);
        assert_eq!(fw.len(), 1);
        assert!(fw.rules()[0].predicate().is_any(fw.schema()));
    }

    #[test]
    fn decisions_are_mixed() {
        let fw = Synthesizer::new(11).firewall(300);
        let accepts = fw.rules().iter().filter(|r| r.decision().permits()).count();
        let discards = fw.len() - accepts;
        assert!(accepts > 30, "too few accepts: {accepts}");
        assert!(discards > 30, "too few discards: {discards}");
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn zero_rules_panics() {
        let _ = Synthesizer::new(0).firewall(0);
    }
}

#[cfg(test)]
mod calibration_tests {
    use super::*;

    #[test]
    fn generator_tracks_its_profile() {
        // Structural statistics of a large sample should sit near the
        // profile's probabilities (tolerance ±0.1 at n = 1000).
        let profile = SynthProfile::default();
        let fw = Synthesizer::with_profile(1234, profile.clone()).firewall(1000);
        let stats = fw.stats();
        let n = stats.rules as f64;
        let close = |observed: usize, p: f64, name: &str| {
            let f = observed as f64 / n;
            assert!(
                (f - p).abs() < 0.1,
                "{name}: observed {f:.3}, profile {p:.3}"
            );
        };
        close(stats.constrained_per_field[0], profile.p_src, "src");
        close(stats.constrained_per_field[1], profile.p_dst, "dst");
        close(stats.constrained_per_field[2], profile.p_sport, "sport");
        close(stats.constrained_per_field[3], profile.p_dport, "dport");
        close(stats.constrained_per_field[4], profile.p_proto, "proto");
        // Pools bound distinct sets.
        assert!(stats.distinct_sets_per_field[0] <= profile.prefix_pool);
        assert!(stats.distinct_sets_per_field[3] <= profile.port_pool);
        // All generated rules are simple (single interval per field).
        assert_eq!(stats.simple_rules, stats.rules);
    }

    #[test]
    fn discard_share_matches_profile() {
        let profile = SynthProfile::default();
        let fw = Synthesizer::with_profile(77, profile.clone()).firewall(1000);
        let stats = fw.stats();
        let discard_share = (stats.decisions[1] + stats.decisions[3]) as f64 / stats.rules as f64;
        assert!(
            (discard_share - profile.p_discard).abs() < 0.1,
            "discard share {discard_share:.3} vs profile {:.3}",
            profile.p_discard
        );
    }
}

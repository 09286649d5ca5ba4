//! Packet traces: random packet samples with a compact binary wire format.
//!
//! Traces serve two jobs in the evaluation harness: (a) a sampling oracle —
//! replay the same trace through two policies (or a policy and its FDD) and
//! compare decisions; (b) benchmark input for per-packet evaluation. The
//! wire format is the fixed-width little-endian layout of
//! [`fw_model::trace_wire`], which both encodes and decodes it; a packet of
//! up to five fields is stored inline, so neither direction allocates per
//! packet.

use bytes::Bytes;
use fw_model::trace_wire;
use fw_model::{ModelError, Packet, Schema};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A sequence of packets over one schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketTrace {
    schema: Schema,
    packets: Vec<Packet>,
}

impl PacketTrace {
    /// Generates `n` uniformly random packets over `schema`,
    /// deterministically per seed.
    pub fn random(schema: Schema, n: usize, seed: u64) -> PacketTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let maxes: Vec<u64> = schema.iter().map(|(_, f)| f.max()).collect();
        let packets = (0..n)
            .map(|_| maxes.iter().map(|&m| rng.random_range(0..=m)).collect())
            .collect();
        PacketTrace { schema, packets }
    }

    /// Generates `n` packets biased toward a policy's interesting regions:
    /// each packet starts from the witness of a uniformly chosen rule and
    /// re-randomises each field with probability `scatter`. With
    /// `scatter = 1.0` this degenerates to [`PacketTrace::random`]; small
    /// values concentrate traffic on rule boundaries, where evaluation and
    /// comparison bugs hide.
    ///
    /// # Panics
    ///
    /// Panics if `scatter` is not within `0.0..=1.0`.
    pub fn biased(fw: &fw_model::Firewall, n: usize, scatter: f64, seed: u64) -> PacketTrace {
        assert!(
            (0.0..=1.0).contains(&scatter),
            "scatter must be in 0.0..=1.0"
        );
        let schema = fw.schema().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let maxes: Vec<u64> = schema.iter().map(|(_, f)| f.max()).collect();
        let witnesses: Vec<Packet> = fw.witnesses();
        let packets = (0..n)
            .map(|_| {
                let base = &witnesses[rng.random_range(0..witnesses.len())];
                base.values()
                    .iter()
                    .zip(&maxes)
                    .map(|(&v, &m)| {
                        if rng.random_bool(scatter) {
                            rng.random_range(0..=m)
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        PacketTrace { schema, packets }
    }

    /// Generates `n` packets drawn Zipf-style from a pool of repeated
    /// flows, modelling the heavy skew of real traffic (a handful of
    /// elephant flows dominate; most flows are mice).
    ///
    /// # Flow-popularity model
    ///
    /// The trace is built in two independently seeded stages, so a bench
    /// row can be reproduced exactly from its recorded `(s, rank_seed,
    /// flow_seed)` triple:
    ///
    /// 1. **Flow pool** (`flow_seed`): `max(1, min(n / 16, 4096))`
    ///    distinct flows are drawn as a [`PacketTrace::biased`] sample
    ///    over `fw` with scatter 0.3, so hot flows sit on rule boundaries
    ///    rather than in the catch-all. The pool scales with the trace so
    ///    hit rates reflect skew, not a trivially tiny working set.
    /// 2. **Popularity ranks** (`rank_seed`): each of the `n` packets
    ///    picks flow `k` (1-based by pool position) with probability
    ///    proportional to `k^-s`, by inverse-CDF sampling over the
    ///    unnormalised generalised harmonic weights. Larger `s` means
    ///    heavier skew (at `s = 1` the top flow takes roughly `1 / H_F`
    ///    of the trace for an `F`-flow pool); `s = 0` degenerates to
    ///    uniform-over-pool. Rank is pool position, so the hottest flow
    ///    is simply the pool's first packet.
    ///
    /// Earlier revisions derived the pool seed from `rank_seed`
    /// internally; it is an explicit parameter so the two axes (which
    /// flows exist vs. how their popularity decays) can be varied — or
    /// held fixed — independently.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not finite and non-negative.
    pub fn zipf(
        fw: &fw_model::Firewall,
        n: usize,
        s: f64,
        rank_seed: u64,
        flow_seed: u64,
    ) -> PacketTrace {
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf exponent must be finite and non-negative"
        );
        let schema = fw.schema().clone();
        // Pool size scales with the trace so hit rates reflect skew, not a
        // trivially tiny working set.
        let flows = (n / 16).clamp(1, 4096);
        let pool = PacketTrace::biased(fw, flows, 0.3, flow_seed);
        // Inverse-CDF sampling over the (unnormalised) generalised
        // harmonic weights k^-s.
        let mut acc = 0.0f64;
        let cdf: Vec<f64> = (1..=flows)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        let total = acc;
        let mut rng = StdRng::seed_from_u64(rank_seed);
        let packets = (0..n)
            .map(|_| {
                let u = rng.random::<f64>() * total;
                let idx = cdf.partition_point(|&c| c < u).min(flows - 1);
                pool.packets[idx].clone()
            })
            .collect();
        PacketTrace { schema, packets }
    }

    /// Wraps existing packets (validating each against the schema).
    ///
    /// # Errors
    ///
    /// Returns the first packet's validation error, if any.
    pub fn new(schema: Schema, packets: Vec<Packet>) -> Result<PacketTrace, ModelError> {
        for p in &packets {
            p.validate(&schema)?;
        }
        Ok(PacketTrace { schema, packets })
    }

    /// The trace's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The packets, in order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Encodes the trace in the [`fw_model::trace_wire`] format: `u32`
    /// packet count, then each packet as `d` little-endian `u64`s in schema
    /// order.
    pub fn encode(&self) -> Bytes {
        Bytes::from(trace_wire::encode(&self.schema, &self.packets))
    }

    /// Writes the encoded trace to `path`, so the `fwclass` and bench
    /// binaries can replay one shared trace file instead of re-synthesizing
    /// per run.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, &self.encode()[..])
    }

    /// Reads a trace previously written by [`PacketTrace::write_to`] for
    /// the same schema.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] for unreadable files (carrying the I/O
    /// message) and the usual [`PacketTrace::decode`] errors for malformed
    /// or out-of-domain content.
    pub fn read_from(
        schema: Schema,
        path: impl AsRef<std::path::Path>,
    ) -> Result<PacketTrace, ModelError> {
        let path = path.as_ref();
        let data = std::fs::read(path).map_err(|e| ModelError::Parse {
            line: 0,
            message: format!("{}: {e}", path.display()),
        })?;
        PacketTrace::decode(schema, Bytes::from(data))
    }

    /// Decodes a trace previously produced by [`PacketTrace::encode`] for
    /// the same schema, through [`trace_wire::decode`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Parse`] unless the input is exactly
    /// `4 + 8·n·d` bytes for its packet count `n` and the schema's `d`
    /// fields, and [`ModelError::OutOfDomain`] for the first packet holding
    /// an out-of-domain value.
    pub fn decode(schema: Schema, bytes: Bytes) -> Result<PacketTrace, ModelError> {
        let packets = trace_wire::decode(&schema, &bytes)?;
        Ok(PacketTrace { schema, packets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_traces_are_deterministic_and_valid() {
        let schema = Schema::tcp_ip();
        let a = PacketTrace::random(schema.clone(), 100, 5);
        let b = PacketTrace::random(schema.clone(), 100, 5);
        assert_eq!(a, b);
        for p in a.packets() {
            p.validate(&schema).unwrap();
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let schema = Schema::paper_example();
        let t = PacketTrace::random(schema.clone(), 64, 9);
        let bytes = t.encode();
        assert_eq!(bytes.len(), 4 + 64 * 5 * 8);
        let back = PacketTrace::decode(schema, bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let schema = Schema::tcp_ip();
        let t = PacketTrace::random(schema.clone(), 32, 7);
        let path = std::env::temp_dir().join("fw_synth_trace_round_trip.trace");
        t.write_to(&path).unwrap();
        let back = PacketTrace::read_from(schema.clone(), &path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).unwrap();
        assert!(PacketTrace::read_from(schema, &path).is_err());
    }

    #[test]
    fn a_body_of_the_wrong_length_is_rejected() {
        let schema = Schema::tcp_ip();
        let bytes = PacketTrace::random(schema.clone(), 10, 4).encode().to_vec();
        let is_parse_error = |schema: &Schema, bytes: &[u8]| {
            matches!(
                PacketTrace::decode(schema.clone(), Bytes::from(bytes.to_vec())),
                Err(ModelError::Parse { .. })
            )
        };
        // A cut header, and a body cut short.
        assert!(is_parse_error(&schema, &bytes[..1]));
        assert!(is_parse_error(&schema, &bytes[..bytes.len() - 3]));
        // Trailing bytes after the last packet.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0xAB; 13]);
        assert!(is_parse_error(&schema, &trailing));
        // A 5-field trace read under a 2-field schema of 64-bit fields: its
        // body holds 2.5 times the bytes 10 such packets take.
        let two = Schema::new(vec![
            fw_model::FieldDef::new("a", 64).unwrap(),
            fw_model::FieldDef::new("b", 64).unwrap(),
        ])
        .unwrap();
        assert!(is_parse_error(&two, &bytes));
    }

    #[test]
    fn validation_on_construction() {
        let schema = Schema::paper_example();
        let bad = Packet::new(vec![9, 0, 0, 0, 0]); // iface domain is [0,1]
        assert!(PacketTrace::new(schema, vec![bad]).is_err());
    }

    #[test]
    fn biased_traces_hit_specific_rules() {
        use fw_model::paper;
        let fw = paper::team_a();
        // Fully concentrated: every packet is some rule's witness.
        let tight = PacketTrace::biased(&fw, 200, 0.0, 3);
        for p in tight.packets() {
            p.validate(fw.schema()).unwrap();
            assert!(fw.first_match(p).is_some());
        }
        // Non-catch-all rules get hit far more often than under uniform
        // sampling (rule 1's region is ~2^-49 of the space uniformly).
        let hits_rule0 = tight
            .packets()
            .iter()
            .filter(|p| fw.first_match(p) == Some(0))
            .count();
        assert!(hits_rule0 > 10, "rule 0 hit only {hits_rule0} times");
        // Determinism and scatter bounds.
        assert_eq!(
            PacketTrace::biased(&fw, 50, 0.5, 9),
            PacketTrace::biased(&fw, 50, 0.5, 9)
        );
    }

    #[test]
    fn zipf_traces_are_deterministic_valid_and_skewed() {
        use fw_model::paper;
        use std::collections::HashMap;
        let fw = paper::team_a();
        let t = PacketTrace::zipf(&fw, 4000, 1.0, 11, 71);
        assert_eq!(t.len(), 4000);
        for p in t.packets() {
            p.validate(fw.schema()).unwrap();
        }
        assert_eq!(t, PacketTrace::zipf(&fw, 4000, 1.0, 11, 71));
        assert_ne!(t, PacketTrace::zipf(&fw, 4000, 1.0, 12, 71));
        // The two seed axes are independent: a different flow seed keeps
        // the rank sequence but swaps which packets fill the pool.
        assert_ne!(t, PacketTrace::zipf(&fw, 4000, 1.0, 11, 72));

        // Skew shape: under s = 1.0 the single hottest flow must carry far
        // more than its uniform share (pool is 4000/16 = 250 flows, so
        // uniform would give ~16 repeats), and heavier exponents
        // concentrate harder.
        let top_share = |trace: &PacketTrace| {
            let mut counts: HashMap<&[u64], usize> = HashMap::new();
            for p in trace.packets() {
                *counts.entry(p.values()).or_default() += 1;
            }
            counts.into_values().max().unwrap()
        };
        let hot_1 = top_share(&t);
        assert!(hot_1 > 200, "hottest flow carried only {hot_1}/4000");
        let hot_0 = top_share(&PacketTrace::zipf(&fw, 4000, 0.0, 11, 71));
        let hot_2 = top_share(&PacketTrace::zipf(&fw, 4000, 2.0, 11, 71));
        assert!(
            hot_0 < hot_1 && hot_1 < hot_2,
            "{hot_0} < {hot_1} < {hot_2}"
        );
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn zipf_rejects_bad_exponent() {
        let _ = PacketTrace::zipf(&fw_model::paper::team_a(), 1, f64::NAN, 0, 1);
    }

    #[test]
    #[should_panic(expected = "scatter")]
    fn biased_rejects_bad_scatter() {
        let _ = PacketTrace::biased(&fw_model::paper::team_a(), 1, 1.5, 0);
    }

    #[test]
    fn trace_as_sampling_oracle() {
        use fw_model::paper;
        let fw = paper::team_a();
        let fdd = fw_core::Fdd::from_firewall(&fw).unwrap();
        let trace = PacketTrace::random(fw.schema().clone(), 500, 42);
        for p in trace.packets() {
            assert_eq!(fw.decision_for(p), fdd.decision_for(p));
        }
    }
}

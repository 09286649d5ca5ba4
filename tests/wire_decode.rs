//! Oracle for the trace decoder: `PacketTrace::decode`, and the batch
//! `PacketBatch::from_trace` builds from it, must agree with a reference
//! decoder written out by hand below: the same packets, or the same error.
//!
//! Schemas run from 1 to 10 fields of random widths, so packets take both
//! of `Packet`'s storages (inline up to 5 fields, heap beyond). The inputs
//! are valid traces and seeded mutations of them: truncation at a random
//! byte, appended bytes, byte flips, an inflated or deflated packet count,
//! a value one past its field's maximum, and a schema of another arity.
//! The decoder may not panic on any of them.

use diverse_firewall::exec::PacketBatch;
use diverse_firewall::model::{FieldDef, ModelError, Packet, Schema};
use diverse_firewall::synth::PacketTrace;
use proptest::prelude::*;

/// SplitMix64: the per-case stream every input below is drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, for `n > 0`.
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `0..=max`.
    fn up_to(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(n) => self.below(n),
            None => self.next(),
        }
    }
}

/// `d` fields of random widths from 1 to 64 bits; every fourth is 64 bits
/// wide, where no value can be out of domain.
fn random_schema(d: usize, rng: &mut Rng) -> Schema {
    let fields = (0..d)
        .map(|i| {
            let bits = if rng.below(4) == 0 {
                64
            } else {
                1 + rng.below(64) as u32
            };
            FieldDef::new(format!("f{i}"), bits).expect("1..=64 bits")
        })
        .collect();
    Schema::new(fields).expect("distinct names")
}

fn random_trace(schema: &Schema, n: usize, rng: &mut Rng) -> Vec<Packet> {
    (0..n)
        .map(|_| schema.iter().map(|(_, f)| rng.up_to(f.max())).collect())
        .collect()
}

/// The ways a case damages its input.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    None,
    Truncate,
    Append,
    FlipBytes,
    InflateCount,
    DeflateCount,
    OnePastMax,
    OtherArity,
}

const MUTATIONS: [Mutation; 8] = [
    Mutation::None,
    Mutation::Truncate,
    Mutation::Append,
    Mutation::FlipBytes,
    Mutation::InflateCount,
    Mutation::DeflateCount,
    Mutation::OnePastMax,
    Mutation::OtherArity,
];

/// Applies `mutation` to a trace of `packets` over `schema`; returns the
/// bytes and the schema to decode them under.
fn mutate(
    mutation: Mutation,
    schema: &Schema,
    packets: &mut [Packet],
    rng: &mut Rng,
) -> (Vec<u8>, Schema) {
    let n = packets.len();
    let d = schema.len();
    if let Mutation::OnePastMax = mutation {
        let narrow: Vec<usize> = schema
            .iter()
            .filter(|(_, f)| f.bits() < 64)
            .map(|(id, _)| id.index())
            .collect();
        if n > 0 && !narrow.is_empty() {
            let i = rng.below(n as u64) as usize;
            let f = narrow[rng.below(narrow.len() as u64) as usize];
            let mut values = packets[i].values().to_vec();
            values[f] = schema.iter().nth(f).expect("f < d").1.max() + 1;
            packets[i] = Packet::new(values);
        }
    }
    let mut bytes = reference_encoding(packets);
    let mut schema = schema.clone();
    match mutation {
        Mutation::None | Mutation::OnePastMax => {}
        Mutation::Truncate => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        Mutation::Append => {
            for _ in 0..1 + rng.below(16) {
                bytes.push(rng.next() as u8);
            }
        }
        Mutation::FlipBytes => {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
        }
        Mutation::InflateCount | Mutation::DeflateCount => {
            let span = if rng.below(2) == 0 {
                3
            } else {
                u64::from(u32::MAX)
            };
            let by = 1 + rng.below(span);
            let count = u64::from(u32::from_le_bytes(bytes[..4].try_into().expect("header")));
            let count = match mutation {
                Mutation::InflateCount => count.saturating_add(by),
                _ => count.saturating_sub(by),
            };
            let count = u32::try_from(count).unwrap_or(u32::MAX);
            bytes[..4].copy_from_slice(&count.to_le_bytes());
        }
        Mutation::OtherArity => {
            let other = loop {
                let e = 1 + rng.below(10) as usize;
                if e != d {
                    break e;
                }
            };
            schema = random_schema(other, rng);
        }
    }
    (bytes, schema)
}

/// The wire format written out by hand, independently of `trace_wire`: the
/// packet count as a little-endian `u32`, then every value as a
/// little-endian `u64`.
fn reference_encoding(packets: &[Packet]) -> Vec<u8> {
    let count = u32::try_from(packets.len()).expect("a small trace");
    let mut bytes = count.to_le_bytes().to_vec();
    for v in packets.iter().flat_map(Packet::values) {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// The wire format read by hand, independently of `trace_wire`: a count,
/// a body of exactly `count · d` values (in wide arithmetic, so no count
/// overflows), then each packet built and validated on its own.
fn reference_decode(schema: &Schema, bytes: &[u8]) -> Result<Vec<Packet>, ModelError> {
    let parse = ModelError::Parse {
        line: 0,
        message: "reference".into(),
    };
    let Some((header, body)) = bytes.split_first_chunk::<4>() else {
        return Err(parse);
    };
    let count = u128::from(u32::from_le_bytes(*header));
    if body.len() as u128 != count * schema.len() as u128 * 8 {
        return Err(parse);
    }
    body.chunks(8 * schema.len())
        .map(|row| {
            let values = row
                .chunks(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
                .collect();
            let p = Packet::new(values);
            p.validate(schema).map(|()| p)
        })
        .collect()
}

/// Decodes `bytes` under `schema` and checks the result against
/// [`reference_decode`]: the same packets, and a batch holding them, or the
/// same error (two parse errors may word their messages differently).
/// Returns whether the input was accepted.
fn assert_decode_agrees(schema: &Schema, bytes: &[u8], what: &str) -> bool {
    let decoded = PacketTrace::decode(schema.clone(), bytes.to_vec().into());
    match (decoded, reference_decode(schema, bytes)) {
        (Ok(trace), Ok(want)) => {
            assert_eq!(trace.packets(), &want[..], "{what}: the packets differ");
            let batch = PacketBatch::from_trace(schema.clone(), trace.packets())
                .expect("decoded packets fit their schema");
            let rows: Vec<Packet> = (0..batch.len()).map(|i| batch.packet(i)).collect();
            assert_eq!(rows, want, "{what}: the batch differs");
            true
        }
        (Err(ModelError::Parse { .. }), Err(ModelError::Parse { .. })) => false,
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{what}: the errors differ");
            false
        }
        (got, want) => {
            panic!("{what}: one decoder accepts, the other does not: {got:?} vs {want:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_agrees_with_the_reference(
        seed in any::<u64>(),
        d in 1usize..=10,
        n in 0usize..=40,
        m in 0usize..MUTATIONS.len(),
    ) {
        let mut rng = Rng(seed);
        let schema = random_schema(d, &mut rng);
        let mut packets = random_trace(&schema, n, &mut rng);
        let mutation = MUTATIONS[m];
        let (bytes, read_as) = mutate(mutation, &schema, &mut packets, &mut rng);
        let accepted = assert_decode_agrees(&read_as, &bytes, &format!("{mutation:?}"));
        if let Mutation::None = mutation {
            prop_assert!(accepted, "a valid trace was rejected");
            // It round-trips: the trace holds the packets that were encoded.
            let trace = PacketTrace::decode(schema, bytes.into()).expect("accepted above");
            prop_assert_eq!(trace.packets(), &packets[..]);
        }
    }
}

#[test]
fn every_truncation_and_extension_is_a_parse_error() {
    let schema = Schema::tcp_ip();
    let trace = PacketTrace::random(schema.clone(), 6, 3);
    let bytes = trace.encode().to_vec();
    assert_eq!(bytes, reference_encoding(trace.packets()));
    for len in 0..bytes.len() + 20 {
        let mut input = bytes.clone();
        input.resize(len, 0);
        let accepted = assert_decode_agrees(&schema, &input, &format!("{len} bytes"));
        assert_eq!(
            accepted,
            len == bytes.len(),
            "{len} of {} bytes",
            bytes.len()
        );
    }
}

#[test]
fn the_first_offender_in_packet_order_is_named() {
    // Packet 1 is bad in its last field, packet 2 in its first: the
    // decoder names packet 1's field.
    let schema = Schema::paper_example();
    let rows = vec![
        Packet::new(vec![0, 1, 2, 3, 0]),
        Packet::new(vec![0, 1, 2, 3, 2]),
        Packet::new(vec![2, 1, 2, 3, 0]),
    ];
    let bytes = reference_encoding(&rows);
    assert!(!assert_decode_agrees(&schema, &bytes, "two offenders"));
    assert_eq!(
        PacketTrace::decode(schema, bytes.into()),
        Err(ModelError::OutOfDomain {
            field: "proto".into(),
            value: 2,
            max: 1
        })
    );
}

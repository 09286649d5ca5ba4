//! The packet-trace wire format, written and read in this one module.
//!
//! A trace of `n` packets over a `d`-field schema is exactly `4 + 8·n·d`
//! bytes: the count `n` as a little-endian `u32`, then each packet's `d`
//! values as little-endian `u64`s in schema order. The bytes carry no
//! schema; [`decode`] is handed the one the trace was written for. Its
//! exact-length rule rejects truncated bodies, trailing bytes and, for any
//! non-empty trace, a schema with another number of fields (a 5-field
//! trace read under 2 fields leaves the body the wrong length).
//!
//! `fw_synth::PacketTrace::{encode, decode}` go through [`encode`] and
//! [`decode`].
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fw_model::ModelError> {
//! use fw_model::trace_wire;
//! use fw_model::{Packet, Schema};
//!
//! let schema = Schema::paper_example();
//! let packets = vec![Packet::new(vec![1, 2, 3, 4, 0])];
//! let bytes = trace_wire::encode(&schema, &packets);
//! assert_eq!(bytes.len(), 4 + 8 * 5);
//!
//! assert_eq!(trace_wire::decode(&schema, &bytes)?, packets);
//! assert!(trace_wire::decode(&schema, &bytes[..bytes.len() - 1]).is_err());
//! # Ok(())
//! # }
//! ```

// Trace bytes are untrusted input: no path from them may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::{ModelError, Packet, Schema};

/// Bytes of the header: the packet count, a little-endian `u32`.
const HEADER_LEN: usize = 4;

/// Bytes of one field value, a little-endian `u64`.
pub(crate) const VALUE_LEN: usize = 8;

/// Encodes `packets`, which must all have `schema`'s arity.
///
/// # Panics
///
/// Panics if a packet's arity differs from the schema's, or if there are
/// more than `u32::MAX` packets.
#[allow(
    clippy::expect_used,
    reason = "the caller's packets and count are trusted, and the panics are documented"
)]
pub fn encode(schema: &Schema, packets: &[Packet]) -> Vec<u8> {
    let d = schema.len();
    let count = u32::try_from(packets.len()).expect("trace exceeds u32 packets");
    let mut out = Vec::with_capacity(HEADER_LEN + packets.len() * d * VALUE_LEN);
    out.extend_from_slice(&count.to_le_bytes());
    for p in packets {
        assert_eq!(p.len(), d, "packet arity differs from the schema's");
        for v in p.values() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Decodes a trace written by [`encode`] for `schema`: every packet, in
/// order, each checked against its fields' maxima.
///
/// # Errors
///
/// Returns [`ModelError::Parse`] for a header shorter than 4 bytes or a
/// body of any other length than `count · d` values (truncated, with
/// trailing bytes, or written for another arity), and
/// [`ModelError::OutOfDomain`] for the first packet holding an
/// out-of-domain value, naming its lowest such field.
pub fn decode(schema: &Schema, bytes: &[u8]) -> Result<Vec<Packet>, ModelError> {
    let parse = |message: String| ModelError::Parse { line: 0, message };
    let (header, body) = bytes
        .split_first_chunk::<HEADER_LEN>()
        .ok_or_else(|| parse("trace header truncated".into()))?;
    let len = u32::from_le_bytes(*header) as usize;
    let d = schema.len();
    let expected = len
        .checked_mul(d)
        .and_then(|values| values.checked_mul(VALUE_LEN));
    if expected != Some(body.len()) {
        let expected = expected.map_or("more than usize::MAX".into(), |b| b.to_string());
        return Err(parse(format!(
            "trace body is {} bytes; {len} packets of {d} fields take {expected}",
            body.len()
        )));
    }
    // Build every packet and fold one flag, with no branch per value; only
    // a bad trace is walked again to name its first offender.
    let mut bad = false;
    let packets: Vec<Packet> = body
        .chunks_exact(d * VALUE_LEN)
        .map(|row| {
            let packet = Packet::from_le_row(row);
            let values = packet.values().iter().zip(schema.iter());
            bad = values.fold(bad, |bad, (&v, (_, f))| bad | (v > f.max()));
            packet
        })
        .collect();
    if !bad {
        return Ok(packets);
    }
    Err(packets
        .iter()
        .find_map(|p| p.validate(schema).err())
        .unwrap_or_else(|| parse("trace holds a value outside its field's domain".into())))
}

/// One encoded value.
pub(crate) fn value(bytes: [u8; VALUE_LEN]) -> u64 {
    u64::from_le_bytes(bytes)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn sample(schema: &Schema, n: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| (0..schema.len() as u64).map(|f| (i + f) % 2).collect())
            .collect()
    }

    #[test]
    fn encode_then_decode_round_trips() {
        let schema = Schema::paper_example();
        let packets = sample(&schema, 10);
        let bytes = encode(&schema, &packets);
        assert_eq!(bytes.len(), HEADER_LEN + 10 * 5 * VALUE_LEN);
        assert_eq!(decode(&schema, &bytes).unwrap(), packets);
        // An empty trace is the header alone.
        let empty = encode(&schema, &[]);
        assert_eq!(empty.len(), HEADER_LEN);
        assert!(decode(&schema, &empty).unwrap().is_empty());
    }

    #[test]
    fn only_the_exact_length_is_accepted() {
        let schema = Schema::paper_example();
        let bytes = encode(&schema, &sample(&schema, 3));
        let is_parse = |b: &[u8]| matches!(decode(&schema, b), Err(ModelError::Parse { .. }));
        assert!(is_parse(&bytes[..3]));
        assert!(is_parse(&bytes[..bytes.len() - 1]));
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(is_parse(&longer));
        let mut inflated = bytes.clone();
        inflated[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_parse(&inflated));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn encode_rejects_a_packet_of_another_arity() {
        let _ = encode(&Schema::tcp_ip(), &[Packet::new(vec![1, 2])]);
    }
}

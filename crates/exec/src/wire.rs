//! Binary serialisation of compiled matchers: FWEX.
//!
//! Fixed-width little-endian layout in the same `bytes` conventions as
//! `fw_synth::PacketTrace`: a header binding the image to its schema, then
//! the three arenas verbatim. Node descriptors pack `kind` and `field` into
//! one `u32` because the vendored `bytes` stub exposes only `u32`/`u64`
//! accessors.
//!
//! ```text
//! u32 magic "FWEX"   u32 version = 3
//! u32 d              (field count)      d × u32 field bit-widths
//! u32 root           u32 node count     u32 cut count
//! nodes:  per node   u32 (kind << 16 | field, high byte 0), u32 off, u32 len
//! cuts:   u64 × cut count  (upper bounds)
//! cut_targets: u32 × cut count
//! ```
//!
//! An image is exactly as long as its counts say: a short body and
//! trailing bytes are both rejected. Internal nodes' cut slices follow one
//! another in node order and cover the cut arena, as compile lays them
//! out; no two nodes share cuts. Version 3 dropped version 2's jump
//! arena (every internal node is a cut array) and its per-node BFS level
//! byte, which no engine read; a version 1 or 2 image is rejected rather
//! than guessed at.
//!
//! Decoding re-validates the full structure ([`CompiledFdd::decode`] never
//! yields a matcher that can loop or index out of bounds on valid packets)
//! and recomputes [`crate::CompileStats`] rather than trusting the image;
//! an accepted image re-encodes to the same bytes.

// FWEX bytes are untrusted input: no path from them may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::cmp::Ordering;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fw_model::{Decision, FieldId, Schema};

use crate::compile::{NodeDesc, KIND_SEARCH, KIND_TERMINAL};
use crate::kernel::DECISION_BIT;
use crate::{CompiledFdd, ExecError};

const MAGIC: u32 = 0x4657_4558; // "FWEX"
const VERSION: u32 = 3;
/// Bytes of one node descriptor: the kind/field word, offset and length.
const NODE_BYTES: usize = 12;
/// Bytes of one cut and its target.
const CUT_BYTES: usize = 12;

impl CompiledFdd {
    /// Encodes the matcher to its wire image.
    #[allow(
        clippy::expect_used,
        reason = "compile and decode keep every arena within u32 indices, and a schema's \
                  field count is far below u32::MAX"
    )]
    pub fn encode(&self) -> Bytes {
        let count = |n: usize| u32::try_from(n).expect("arena fits u32");
        let mut buf = BytesMut::with_capacity(
            4 * (6 + self.schema.len())
                + NODE_BYTES * self.nodes.len()
                + CUT_BYTES * self.cuts.len(),
        );
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(count(self.schema.len()));
        for (_, fd) in self.schema.iter() {
            buf.put_u32_le(fd.bits());
        }
        buf.put_u32_le(self.root);
        buf.put_u32_le(count(self.nodes.len()));
        buf.put_u32_le(count(self.cuts.len()));
        for n in &self.nodes {
            buf.put_u32_le((u32::from(n.kind) << 16) | u32::from(n.field));
            buf.put_u32_le(n.off);
            buf.put_u32_le(n.len);
        }
        for &c in &self.cuts {
            buf.put_u64_le(c);
        }
        for &t in &self.cut_targets {
            buf.put_u32_le(t);
        }
        buf.freeze()
    }

    /// Decodes a wire image previously produced by [`CompiledFdd::encode`]
    /// for the same schema.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Wire`] on a body shorter or longer than the
    /// header's counts give, bad magic/version, a schema that does not
    /// match the image's field widths, or any structural invalidity
    /// (out-of-range indices, cut slices shared or out of order,
    /// non-partition cuts, non-advancing targets, unknown decision codes, a
    /// nonzero spare byte).
    pub fn decode(schema: Schema, mut bytes: Bytes) -> Result<CompiledFdd, ExecError> {
        let take_u32 = |what: &str, bytes: &mut Bytes| -> Result<u32, ExecError> {
            if bytes.remaining() < 4 {
                return Err(ExecError::Wire(format!("{what} truncated")));
            }
            Ok(bytes.get_u32_le())
        };
        if take_u32("magic", &mut bytes)? != MAGIC {
            return Err(ExecError::Wire("bad magic (not a compiled matcher)".into()));
        }
        let version = take_u32("version", &mut bytes)?;
        if version != VERSION {
            return Err(ExecError::Wire(format!(
                "unsupported version {version} (this build reads version {VERSION})"
            )));
        }
        let d = take_u32("field count", &mut bytes)? as usize;
        if d != schema.len() {
            return Err(ExecError::Wire(format!(
                "image has {d} fields, schema has {}",
                schema.len()
            )));
        }
        for (id, fd) in schema.iter() {
            let bits = take_u32("field widths", &mut bytes)?;
            if bits != fd.bits() {
                return Err(ExecError::Wire(format!(
                    "field {id} is {bits}-bit in the image, {}-bit in the schema",
                    fd.bits()
                )));
            }
        }
        let root = take_u32("root", &mut bytes)?;
        let n_nodes = take_u32("node count", &mut bytes)? as usize;
        let n_cuts = take_u32("cut count", &mut bytes)? as usize;
        let body = n_nodes
            .checked_mul(NODE_BYTES)
            .and_then(|x| x.checked_add(n_cuts.checked_mul(CUT_BYTES)?))
            .ok_or_else(|| ExecError::Wire("arena sizes overflow".into()))?;
        let present = bytes.remaining();
        match present.cmp(&body) {
            Ordering::Less => {
                return Err(ExecError::Wire(format!(
                    "arena body truncated: {n_nodes} nodes and {n_cuts} cuts take {body} bytes, \
                     {present} present"
                )))
            }
            Ordering::Greater => {
                return Err(ExecError::Wire(format!(
                    "{} trailing bytes after the {body}-byte arena body",
                    present - body
                )))
            }
            Ordering::Equal => {}
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let word = bytes.get_u32_le();
            if word >> 24 != 0 {
                return Err(ExecError::Wire(format!(
                    "node {i}: spare byte is {:#04x}, not 0",
                    word >> 24
                )));
            }
            nodes.push(NodeDesc {
                kind: (word >> 16) as u8,
                field: word as u16,
                off: bytes.get_u32_le(),
                len: bytes.get_u32_le(),
            });
        }
        let cuts: Vec<u64> = (0..n_cuts).map(|_| bytes.get_u64_le()).collect();
        let cut_targets: Vec<u32> = (0..n_cuts).map(|_| bytes.get_u32_le()).collect();

        let mut compiled = CompiledFdd {
            schema,
            root,
            nodes,
            cuts,
            cut_targets,
            // The lane kernel is *not* built here: it fills lazily on the
            // first batch (`CompiledFdd::lanes`), which runs after the
            // structure checks below have accepted the image —
            // `LaneKernel::build` trusts those checks. A fleet restore that
            // only walks the scalar path never pays the kernel build.
            lanes: std::sync::OnceLock::new(),
            stats: crate::CompileStats::default(),
        };
        validate_structure(&compiled)?;
        compiled.stats = compiled.compute_stats();
        Ok(compiled)
    }
}

/// Structural validation of a decoded matcher: every index in range,
/// decision codes known, terminals without an arena slice, each internal
/// node's cuts non-empty, strictly ascending and ending at its field's
/// domain max, and every target testing a strictly later field (which also
/// guarantees that every walk terminates).
///
/// Internal nodes' slices must also follow one another in node order and
/// cover the cut arena exactly, as compile lays them out. The lane kernel
/// copies every node's cuts, so slices shared by many nodes would make an
/// image of `n` nodes and `m` cuts cost `n · m` kernel entries.
fn validate_structure(image: &CompiledFdd) -> Result<(), ExecError> {
    let err = |m: String| Err(ExecError::Wire(m));
    let nodes = &image.nodes;
    if nodes.is_empty() {
        return err("matcher has no nodes".into());
    }
    // The lane kernel tags a decision with a target's top bit.
    if nodes.len() >= DECISION_BIT as usize {
        return err(format!("{} nodes exceed 2^31 node ids", nodes.len()));
    }
    if image.root as usize >= nodes.len() {
        return err(format!("root {} out of range", image.root));
    }
    // A target's field rank: its field, or past every field for a decision.
    let rank = |t: u32| {
        nodes.get(t as usize).map(|n| match n.kind {
            KIND_TERMINAL => usize::MAX,
            _ => usize::from(n.field),
        })
    };
    let mut next_cut = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        match n.kind {
            KIND_TERMINAL => {
                if n.off != 0 || n.len != 0 {
                    return err(format!("node {i}: terminal carries an arena slice"));
                }
                if u8::try_from(n.field).map_or(true, |c| Decision::from_code(c).is_err()) {
                    return err(format!("node {i}: unknown decision code {}", n.field));
                }
            }
            KIND_SEARCH => {
                let Some(fd) = image.schema.get(FieldId(usize::from(n.field))) else {
                    return err(format!("node {i}: unknown field index {}", n.field));
                };
                if n.off as usize != next_cut {
                    return err(format!(
                        "node {i}: cut slice starts at {}, not at {next_cut}",
                        n.off
                    ));
                }
                let span = next_cut..next_cut.saturating_add(n.len as usize);
                next_cut = span.end;
                let (Some(cuts), Some(targets)) =
                    (image.cuts.get(span.clone()), image.cut_targets.get(span))
                else {
                    return err(format!("node {i}: cut slice out of range"));
                };
                if cuts.iter().zip(cuts.iter().skip(1)).any(|(a, b)| a >= b) {
                    return err(format!("node {i}: cut points not strictly ascending"));
                }
                if cuts.last() != Some(&fd.max()) {
                    return err(format!("node {i}: cuts do not end at the domain max"));
                }
                for &t in targets {
                    match rank(t) {
                        None => return err(format!("node {i}: target {t} out of range")),
                        Some(r) if r <= usize::from(n.field) => {
                            return err(format!("node {i}: target {t} does not advance the field"))
                        }
                        Some(_) => {}
                    }
                }
            }
            other => return err(format!("node {i}: unknown kind {other}")),
        }
    }
    if next_cut != image.cuts.len() {
        return err(format!(
            "the nodes' slices cover {next_cut} of {} cuts",
            image.cuts.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn round_trip_preserves_everything() {
        let fw = fw_synth::Synthesizer::new(5).firewall(40);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let image = compiled.encode();
        let back = CompiledFdd::decode(fw.schema().clone(), image).unwrap();
        assert_eq!(compiled, back);
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 1_000, 3);
        for p in trace.packets() {
            assert_eq!(compiled.classify(p), back.classify(p));
        }
    }

    #[test]
    fn decode_defers_the_lane_kernel_until_first_batch() {
        let fw = fw_synth::Synthesizer::new(9).firewall(25);
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let back = CompiledFdd::decode(fw.schema().clone(), compiled.encode()).unwrap();
        assert!(!back.lanes_built(), "kernel built eagerly on decode");
        assert_eq!(back.stats(), compiled.stats());
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 64, 2);
        let batch = crate::PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let lanes = back.classify_lanes(&batch).unwrap();
        assert!(back.lanes_built(), "a batch must build the kernel");
        assert_eq!(lanes, compiled.classify_lanes(&batch).unwrap());
    }

    #[test]
    fn truncation_and_bad_magic_rejected() {
        let compiled = CompiledFdd::from_firewall(&paper::team_a()).unwrap();
        let image = compiled.encode();
        let schema = compiled.schema().clone();
        for cut in [0, 3, 7, image.len() / 2, image.len() - 1] {
            let sliced = image.slice(0..cut);
            assert!(
                CompiledFdd::decode(schema.clone(), sliced).is_err(),
                "cut at {cut} accepted"
            );
        }
        let mut garbled: Vec<u8> = image.to_vec();
        garbled[0] ^= 0xFF;
        assert!(CompiledFdd::decode(schema.clone(), Bytes::from(garbled)).is_err());
    }

    /// An image is exactly as long as its counts give: bytes past the
    /// body are named, not ignored, and so is a version 2 image.
    #[test]
    fn trailing_bytes_and_older_versions_rejected() {
        let compiled = CompiledFdd::from_firewall(&paper::team_a()).unwrap();
        let schema = compiled.schema().clone();
        let mut long = compiled.encode().to_vec();
        long.extend_from_slice(&[0; 13]);
        match CompiledFdd::decode(schema.clone(), Bytes::from(long)) {
            Err(ExecError::Wire(m)) => assert!(m.contains("13 trailing bytes"), "{m}"),
            other => panic!("an image with 13 trailing bytes decoded: {other:?}"),
        }
        let mut v2 = compiled.encode().to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        match CompiledFdd::decode(schema, Bytes::from(v2)) {
            Err(ExecError::Wire(m)) => assert!(m.contains("unsupported version 2"), "{m}"),
            other => panic!("a version 2 image decoded: {other:?}"),
        }
    }

    /// Two nodes may not share a cut slice, nor leave cuts unowned: a
    /// slice shared by `n` nodes would cost the lane kernel `n` copies.
    #[test]
    fn shared_and_unowned_cut_slices_rejected() {
        let schema = Schema::new(vec![
            fw_model::FieldDef::new("a", 16).unwrap(),
            fw_model::FieldDef::new("b", 1).unwrap(),
        ])
        .unwrap();
        // Nodes 0 and 1 test `a` over cuts `[off, off + 2)`; node 2 accepts.
        let image = |second_off: u32, cuts: u32| {
            let mut buf = BytesMut::with_capacity(128);
            for w in [MAGIC, VERSION, 2, 16, 1, 0, 3, cuts] {
                buf.put_u32_le(w);
            }
            for (word, off, len) in [(1 << 16, 0, 2), (1 << 16, second_off, 2), (0, 0, 0)] {
                buf.put_u32_le(word);
                buf.put_u32_le(off);
                buf.put_u32_le(len);
            }
            for k in 0..cuts {
                buf.put_u64_le(if k % 2 == 0 { 9 } else { 65_535 });
            }
            for _ in 0..cuts {
                buf.put_u32_le(2);
            }
            buf.freeze()
        };
        let laid_out = CompiledFdd::decode(schema.clone(), image(2, 4)).unwrap();
        assert_eq!(laid_out.encode(), image(2, 4));
        for (second_off, cuts, what) in [(0, 2, "shared"), (0, 4, "shared"), (2, 6, "unowned")] {
            match CompiledFdd::decode(schema.clone(), image(second_off, cuts)) {
                Err(ExecError::Wire(_)) => {}
                other => panic!("a {what} cut slice decoded: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn wrong_schema_rejected() {
        let compiled = CompiledFdd::from_firewall(&paper::team_a()).unwrap();
        let image = compiled.encode();
        assert!(matches!(
            CompiledFdd::decode(Schema::tcp_ip(), image),
            Err(ExecError::Wire(_))
        ));
    }

    #[test]
    fn corrupt_target_rejected() {
        let compiled = CompiledFdd::from_firewall(&paper::team_b()).unwrap();
        let image = compiled.encode().to_vec();
        let schema = compiled.schema().clone();
        // Flip high bits across the arena region; every corruption must be
        // caught by structural validation or fail to classify — never loop.
        let header = 4 * (6 + schema.len());
        let mut rejected = 0;
        for i in (header..image.len()).step_by(13) {
            let mut bad = image.clone();
            bad[i] ^= 0x80;
            if CompiledFdd::decode(schema.clone(), Bytes::from(bad)).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "no corruption detected at all");
    }
}

//! Binary serialisation of compiled matchers.
//!
//! Fixed-width little-endian layout in the same `bytes` conventions as
//! `fw_synth::PacketTrace`: a header binding the image to its schema, then
//! the four arenas verbatim. Node descriptors pack `kind` and `field` into
//! one `u32` because the vendored `bytes` stub exposes only `u32`/`u64`
//! accessors.
//!
//! ```text
//! u32 magic "FWEX"   u32 version = 2
//! u32 d              (field count)      d × u32 field bit-widths
//! u32 root           u32 node count
//! u32 cuts len       u32 jump len
//! nodes:  per node   u32 (level << 24 | kind << 16 | field), u32 off, u32 len
//! cuts:   u64 × len  (upper bounds)
//! cut_targets: u32 × cuts len
//! jump:   u32 × len
//! ```
//!
//! Version 2 added the per-node BFS `level` byte (the lane kernel's
//! level-contiguity metadata) to the previously spare high byte of the
//! node word; version 1 images are rejected rather than guessed at.
//!
//! Decoding re-validates the full structure ([`CompiledFdd::decode`] never
//! yields a matcher that can loop or index out of bounds on valid packets),
//! including a fresh BFS that checks every recorded level against the true
//! depth, and recomputes [`crate::CompileStats`] rather than trusting the
//! image.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fw_model::Schema;

use crate::compile::{build_level_starts, NodeDesc};
use crate::{CompiledFdd, ExecError};

const MAGIC: u32 = 0x4657_4558; // "FWEX"
const VERSION: u32 = 2;

impl CompiledFdd {
    /// Encodes the matcher to its wire image.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            4 * (8 + self.schema.len() + 3 * self.nodes.len())
                + 8 * self.cuts.len()
                + 4 * (self.cut_targets.len() + self.jump.len()),
        );
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(u32::try_from(self.schema.len()).expect("schema fits u32"));
        for (_, fd) in self.schema.iter() {
            buf.put_u32_le(fd.bits());
        }
        buf.put_u32_le(self.root);
        buf.put_u32_le(u32::try_from(self.nodes.len()).expect("arena fits u32"));
        buf.put_u32_le(u32::try_from(self.cuts.len()).expect("arena fits u32"));
        buf.put_u32_le(u32::try_from(self.jump.len()).expect("arena fits u32"));
        for n in &self.nodes {
            buf.put_u32_le(
                (u32::from(n.level) << 24) | (u32::from(n.kind) << 16) | u32::from(n.field),
            );
            buf.put_u32_le(n.off);
            buf.put_u32_le(n.len);
        }
        for &c in &self.cuts {
            buf.put_u64_le(c);
        }
        for &t in &self.cut_targets {
            buf.put_u32_le(t);
        }
        for &t in &self.jump {
            buf.put_u32_le(t);
        }
        buf.freeze()
    }

    /// Decodes a wire image previously produced by [`CompiledFdd::encode`]
    /// for the same schema.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Wire`] on truncation, bad magic/version, a
    /// schema that does not match the image's field widths, or any
    /// structural invalidity (out-of-range indices, non-partition cuts,
    /// non-advancing targets, unknown decision codes).
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
            return Err(ExecError::Wire(format!("unsupported version {version}")));
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
        let n_jump = take_u32("jump count", &mut bytes)? as usize;
        let body = n_nodes
            .checked_mul(12)
            .and_then(|x| x.checked_add(n_cuts.checked_mul(12)?))
            .and_then(|x| x.checked_add(n_jump.checked_mul(4)?))
            .ok_or_else(|| ExecError::Wire("arena sizes overflow".into()))?;
        if bytes.remaining() < body {
            return Err(ExecError::Wire("arena body truncated".into()));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let word = bytes.get_u32_le();
            nodes.push(NodeDesc {
                kind: ((word >> 16) & 0xFF) as u8,
                level: (word >> 24) as u8,
                field: (word & 0xFFFF) as u16,
                off: bytes.get_u32_le(),
                len: bytes.get_u32_le(),
            });
        }
        let cuts: Vec<u64> = (0..n_cuts).map(|_| bytes.get_u64_le()).collect();
        let cut_targets: Vec<u32> = (0..n_cuts).map(|_| bytes.get_u32_le()).collect();
        let jump: Vec<u32> = (0..n_jump).map(|_| bytes.get_u32_le()).collect();

        let level_starts = build_level_starts(&nodes);
        let mut compiled = CompiledFdd {
            schema,
            root,
            nodes,
            cuts,
            cut_targets,
            jump,
            level_starts,
            // The lane kernel is *not* built here: it fills lazily on the
            // first batch (`CompiledFdd::lanes`), which runs after the
            // structure checks below have accepted the image —
            // `LaneKernel::build` trusts those checks. A fleet restore that
            // only walks the scalar path never pays the kernel build.
            lanes: std::sync::OnceLock::new(),
            stats: crate::CompileStats::default(),
        };
        compiled.validate_structure()?;
        compiled.stats = compiled.compute_stats();
        Ok(compiled)
    }
}

#[cfg(test)]
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
        let header = 4 * (8 + schema.len());
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

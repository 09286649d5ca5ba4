//! Field-major (column) packet layout for batch classification.
//!
//! Replaying a large trace row by row reads `d` values per packet, strided
//! across the packet rows. [`PacketBatch`] holds the trace as `d`
//! contiguous columns so the matcher's per-field reads stream through
//! memory — the layout both the reference column walk below and the
//! level-synchronous lane kernel ([`CompiledFdd::classify_lanes`]) consume
//! directly.

use fw_model::{Decision, ModelError, Packet, Schema};

use crate::{CompiledFdd, ExecError};

/// A batch of packets stored field-major: `column(f)[i]` is packet `i`'s
/// value for field `f`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketBatch {
    schema: Schema,
    len: usize,
    columns: Vec<Vec<u64>>,
}

impl PacketBatch {
    /// Transposes a replay trace (any iterator of packets, e.g.
    /// `fw_synth::PacketTrace::packets()`) into columns in one pass, then
    /// validates domain bounds column by column — one streaming sweep per
    /// field instead of a per-packet `Packet::validate` with its per-value
    /// field lookups.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for the first packet of wrong
    /// arity, or [`ModelError::OutOfDomain`] for the first offending value
    /// of the lowest-index offending field.
    pub fn from_trace<'a, I>(schema: Schema, packets: I) -> Result<PacketBatch, ModelError>
    where
        I: IntoIterator<Item = &'a Packet>,
    {
        let d = schema.len();
        let packets = packets.into_iter();
        let hint = packets.size_hint().0;
        let mut columns: Vec<Vec<u64>> = (0..d).map(|_| Vec::with_capacity(hint)).collect();
        let mut len = 0usize;
        for p in packets {
            if p.len() != d {
                return Err(ModelError::ArityMismatch {
                    expected: d,
                    found: p.len(),
                });
            }
            for (col, &v) in columns.iter_mut().zip(p.values()) {
                col.push(v);
            }
            len += 1;
        }
        validate_columns(&schema, &columns)?;
        Ok(PacketBatch {
            schema,
            len,
            columns,
        })
    }

    /// Builds a batch from already-columnar data (`columns[f][i]` = packet
    /// `i`'s value for field `f`), validating each column in one pass with
    /// no transpose and no per-packet indirection at all.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Model`] for a column-count/schema arity
    /// mismatch or an out-of-domain value, and [`ExecError::Batch`] for
    /// ragged columns (unequal lengths).
    pub fn from_columns(schema: Schema, columns: Vec<Vec<u64>>) -> Result<PacketBatch, ExecError> {
        if columns.len() != schema.len() {
            return Err(ExecError::Model(ModelError::ArityMismatch {
                expected: schema.len(),
                found: columns.len(),
            }));
        }
        let len = columns.first().map_or(0, Vec::len);
        for (f, col) in columns.iter().enumerate() {
            if col.len() != len {
                return Err(ExecError::Batch(format!(
                    "ragged columns: column {f} holds {} packets, column 0 holds {len}",
                    col.len()
                )));
            }
        }
        validate_columns(&schema, &columns)?;
        Ok(PacketBatch {
            schema,
            len,
            columns,
        })
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous value column of field `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range for the schema.
    pub fn column(&self, f: usize) -> &[u64] {
        &self.columns[f]
    }

    /// All value columns at once (`columns()[f][i]` = packet `i`'s value
    /// for field `f`), for kernels that index columns by absolute packet
    /// position instead of borrowing one column at a time.
    pub(crate) fn columns_raw(&self) -> &[Vec<u64>] {
        &self.columns
    }

    /// Consumes the batch, returning its column buffers for recycling —
    /// the cached front end rebuilds its compacted miss batch every call
    /// and reclaims the allocations this way.
    pub fn into_columns(self) -> Vec<Vec<u64>> {
        self.columns
    }

    /// Reassembles packet `i` (row-major), for spot checks and error
    /// reporting.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn packet(&self, i: usize) -> Packet {
        assert!(i < self.len, "packet index {i} out of range {}", self.len);
        self.columns.iter().map(|c| c[i]).collect()
    }
}

/// One streaming sweep per column, then a second pass over the single
/// offending column (if any) to name the first bad value. A field's maximum
/// is `2^bits − 1`, so a column fits its field exactly when the OR of its
/// values does: the hot path is an OR fold, which vectorises on baseline
/// x86-64, where a `u64` max fold does not (about 5× slower on a
/// 1,024-packet column).
fn validate_columns(schema: &Schema, columns: &[Vec<u64>]) -> Result<(), ModelError> {
    for ((_, fd), col) in schema.iter().zip(columns) {
        let max = fd.max();
        let bits = col.iter().fold(0u64, |acc, &v| acc | v);
        if bits > max {
            let value = col.iter().copied().find(|&v| v > max).unwrap_or(bits);
            return Err(ModelError::OutOfDomain {
                field: fd.name().to_owned(),
                value,
                max,
            });
        }
    }
    Ok(())
}

impl CompiledFdd {
    /// Classifies every packet of a field-major batch, returning decisions
    /// in packet order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Model`] if the batch was built over a different
    /// schema.
    pub fn classify_columns(&self, batch: &PacketBatch) -> Result<Vec<Decision>, ExecError> {
        let mut out = Vec::new();
        self.classify_columns_into(batch, &mut out)?;
        Ok(out)
    }

    /// Like [`CompiledFdd::classify_columns`], into a caller-provided
    /// buffer (cleared first).
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::classify_columns`].
    pub fn classify_columns_into(
        &self,
        batch: &PacketBatch,
        out: &mut Vec<Decision>,
    ) -> Result<(), ExecError> {
        if batch.schema() != self.schema() {
            return Err(ExecError::Model(ModelError::ArityMismatch {
                expected: self.schema().len(),
                found: batch.schema().len(),
            }));
        }
        out.clear();
        out.reserve(batch.len());
        // The scalar walk reads `columns[field][i]` directly, so the batch
        // is never reassembled into row-major temporaries.
        let columns = batch.columns_raw();
        out.extend((0..batch.len()).map(|i| self.decide(|f| columns[f][i])));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::paper;

    #[test]
    fn columns_match_rows() {
        let fw = fw_synth::Synthesizer::new(21).firewall(25);
        let trace = fw_synth::PacketTrace::biased(&fw, 400, 0.3, 2);
        let batch = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        assert_eq!(batch.len(), 400);
        assert!(!batch.is_empty());
        for (i, p) in trace.packets().iter().enumerate() {
            assert_eq!(&batch.packet(i), p);
        }
        let compiled = CompiledFdd::from_firewall(&fw).unwrap();
        let by_rows = compiled.classify_batch(trace.packets());
        let by_cols = compiled.classify_columns(&batch).unwrap();
        assert_eq!(by_rows, by_cols);
    }

    #[test]
    fn from_columns_agrees_with_from_trace() {
        let fw = fw_synth::Synthesizer::new(4).firewall(12);
        let trace = fw_synth::PacketTrace::random(fw.schema().clone(), 123, 9);
        let a = PacketBatch::from_trace(fw.schema().clone(), trace.packets()).unwrap();
        let cols = (0..fw.schema().len())
            .map(|f| a.column(f).to_vec())
            .collect();
        let c = PacketBatch::from_columns(fw.schema().clone(), cols).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn from_columns_rejects_ragged_and_invalid() {
        let schema = Schema::paper_example();
        let d = schema.len();
        let ok: Vec<Vec<u64>> = (0..d).map(|_| vec![0, 1]).collect();
        assert!(PacketBatch::from_columns(schema.clone(), ok.clone()).is_ok());
        let mut ragged = ok.clone();
        ragged[1].push(0);
        assert!(matches!(
            PacketBatch::from_columns(schema.clone(), ragged),
            Err(ExecError::Batch(_))
        ));
        let mut short = ok.clone();
        short.pop();
        assert!(matches!(
            PacketBatch::from_columns(schema.clone(), short),
            Err(ExecError::Model(ModelError::ArityMismatch { .. }))
        ));
        let mut wild = ok;
        wild[0][1] = u64::MAX;
        assert!(matches!(
            PacketBatch::from_columns(schema, wild),
            Err(ExecError::Model(ModelError::OutOfDomain { .. }))
        ));
    }

    #[test]
    fn empty_columns_make_an_empty_batch() {
        let schema = Schema::paper_example();
        let cols: Vec<Vec<u64>> = (0..schema.len()).map(|_| Vec::new()).collect();
        let batch = PacketBatch::from_columns(schema, cols).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let compiled = CompiledFdd::from_firewall(&paper::team_a()).unwrap();
        let other = Schema::tcp_ip();
        let batch =
            PacketBatch::from_trace(other.clone(), &[Packet::new(vec![1, 2, 3, 4, 5])]).unwrap();
        assert!(compiled.classify_columns(&batch).is_err());
    }

    #[test]
    fn invalid_packets_rejected_at_transpose() {
        let schema = Schema::paper_example();
        assert!(PacketBatch::from_trace(schema.clone(), &[Packet::new(vec![1])]).is_err());
        assert!(PacketBatch::from_trace(schema, &[Packet::new(vec![7, 0, 0, 0, 0])]).is_err());
    }
}

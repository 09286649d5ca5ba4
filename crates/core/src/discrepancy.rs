//! Functional discrepancies between firewall versions, in the human-readable
//! rule-like format the paper requires (Table 3).
//!
//! A [`Discrepancy`] is a packet region (a predicate) on which two versions
//! decide differently; a [`MultiDiscrepancy`] generalises to `N > 2`
//! versions (§7.3). Both render through §7.1's output conversion: 32-bit
//! fields are printed as IP prefixes whenever the interval is
//! prefix-aligned, so administrators read familiar notation.

use std::fmt;

use fw_model::{Decision, Interval, IntervalSet, Packet, Predicate, Schema};
use serde::{Deserialize, Serialize};

/// One functional discrepancy between two firewall versions: all packets in
/// `predicate` map to `left` under the first version and to `right` under
/// the second.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Discrepancy {
    predicate: Predicate,
    left: Decision,
    right: Decision,
}

impl Discrepancy {
    /// Creates a discrepancy record.
    pub fn new(predicate: Predicate, left: Decision, right: Decision) -> Self {
        Discrepancy {
            predicate,
            left,
            right,
        }
    }

    /// The packet region the two versions disagree on.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The first version's decision.
    pub fn left(&self) -> Decision {
        self.left
    }

    /// The second version's decision.
    pub fn right(&self) -> Decision {
        self.right
    }

    /// A witness packet inside the disputed region.
    pub fn witness(&self) -> Packet {
        self.predicate.witness()
    }

    /// Number of packets in the disputed region, saturating.
    pub fn packet_count(&self) -> u128 {
        self.predicate.count()
    }

    /// Paper-style rendering with field names from `schema`; see
    /// [`display_predicate_prefixed`] for the prefix conversion.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayDiscrepancy<'a> {
        DisplayDiscrepancy { d: self, schema }
    }

    /// Attributes the discrepancy to concrete rules: the first-match rule
    /// index in each version for a witness packet of the region.
    ///
    /// A coalesced region may span several first-match rules per side;
    /// this reports the pair for one representative packet — enough to
    /// point an administrator at *a* responsible rule in each version.
    pub fn attribute(
        &self,
        left_fw: &fw_model::Firewall,
        right_fw: &fw_model::Firewall,
    ) -> (Option<usize>, Option<usize>) {
        let w = self.witness();
        (left_fw.first_match(&w), right_fw.first_match(&w))
    }
}

/// One functional discrepancy among `N` versions: all packets in
/// `predicate` map to `decisions[i]` under version `i`, and not all
/// decisions agree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiDiscrepancy {
    predicate: Predicate,
    decisions: Vec<Decision>,
}

impl MultiDiscrepancy {
    /// Creates an `N`-way discrepancy record.
    pub fn new(predicate: Predicate, decisions: Vec<Decision>) -> Self {
        MultiDiscrepancy {
            predicate,
            decisions,
        }
    }

    /// The packet region on which not all versions agree.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Decision per version, in version order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// A witness packet inside the disputed region.
    pub fn witness(&self) -> Packet {
        self.predicate.witness()
    }

    /// Paper-style rendering with field names from `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DisplayMultiDiscrepancy<'a> {
        DisplayMultiDiscrepancy { d: self, schema }
    }
}

/// Merges discrepancy regions that differ in exactly one field and carry the
/// same decision pair, until no more merges apply.
///
/// The comparison algorithm emits one discrepancy per decision *path* of the
/// shaped diagrams; shaping splits regions finely (every edge is one
/// interval), so one logical disagreement often spans many paths. Coalescing
/// restores the concise, Table-3-style presentation: two hyper-rectangles
/// whose predicates agree on all fields but one union into a single
/// predicate with that field's sets merged — an exact, loss-free rewrite.
pub fn coalesce(ds: Vec<Discrepancy>) -> Vec<Discrepancy> {
    coalesce_by(ds)
}

/// Merges `N`-way discrepancy regions exactly like [`coalesce`].
pub fn coalesce_multi(ds: Vec<MultiDiscrepancy>) -> Vec<MultiDiscrepancy> {
    coalesce_by(ds)
}

/// What [`coalesce_by`] reads and rewrites of a region.
trait Region {
    /// The decisions that must be equal for two regions to merge, borrowed
    /// where they are stored, so grouping clones nothing.
    type Key<'a>: std::hash::Hash + Eq
    where
        Self: 'a;

    fn key(&self) -> Self::Key<'_>;
    fn region(&self) -> &Predicate;
    fn region_mut(&mut self) -> &mut Predicate;
}

impl Region for Discrepancy {
    type Key<'a> = (Decision, Decision);

    fn key(&self) -> (Decision, Decision) {
        (self.left, self.right)
    }

    fn region(&self) -> &Predicate {
        &self.predicate
    }

    fn region_mut(&mut self) -> &mut Predicate {
        &mut self.predicate
    }
}

impl Region for MultiDiscrepancy {
    type Key<'a> = &'a [Decision];

    fn key(&self) -> &[Decision] {
        &self.decisions
    }

    fn region(&self) -> &Predicate {
        &self.predicate
    }

    fn region_mut(&mut self) -> &mut Predicate {
        &mut self.predicate
    }
}

/// Shared coalescing engine: repeated passes, one per field; within a pass,
/// items are hash-grouped by (decision key, every *other* field's set) and
/// each group collapses into one item whose chosen field is the union of
/// the group's sets. Items are disjoint boxes, so the collapse is an exact
/// rewrite. Passes repeat until a full round merges nothing.
///
/// Grouping buckets on a content hash of the key — no set is cloned to
/// build a bucket — and verifies real equality inside each bucket, so a
/// hash collision can never merge regions that differ. A bucket is a chain
/// of item indexes, ascending, linked through one vector; the map, the
/// links and the group buffers are allocated once per call and reused by
/// every pass.
fn coalesce_by<T: Region>(mut ds: Vec<T>) -> Vec<T> {
    use std::hash::{Hash, Hasher};
    if ds.len() < 2 {
        return ds;
    }
    let arity = ds[0].region().arity();
    // Hash → (first, last) item of its bucket; buckets in order of first
    // appearance; each item's successor in its bucket.
    let mut buckets: crate::cons::FxMap<u64, (usize, usize)> = Default::default();
    let mut firsts: Vec<usize> = Vec::with_capacity(ds.len());
    let mut next: Vec<Option<usize>> = Vec::with_capacity(ds.len());
    let mut bucket: Vec<usize> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    let mut runs: Vec<Interval> = Vec::new();
    let mut dead: Vec<bool> = Vec::with_capacity(ds.len());
    let mut merges: Vec<(usize, IntervalSet)> = Vec::new();
    loop {
        let mut merged_any = false;
        for field in 0..arity {
            let id = fw_model::FieldId(field);
            buckets.clear();
            firsts.clear();
            next.clear();
            next.resize(ds.len(), None);
            for (i, d) in ds.iter().enumerate() {
                let mut h = crate::cons::FxHasher::default();
                d.key().hash(&mut h);
                for f in (0..arity).filter(|&f| f != field) {
                    d.region().set(fw_model::FieldId(f)).hash(&mut h);
                }
                match buckets.entry(h.finish()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (_, last) = e.get_mut();
                        next[*last] = Some(i);
                        *last = i;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((i, i));
                        firsts.push(i);
                    }
                }
            }
            dead.clear();
            dead.resize(ds.len(), false);
            merges.clear();
            let same = |a: usize, b: usize| {
                ds[a].key() == ds[b].key()
                    && (0..arity).filter(|&f| f != field).all(|f| {
                        let fid = fw_model::FieldId(f);
                        ds[a].region().set(fid) == ds[b].region().set(fid)
                    })
            };
            for &first in &firsts {
                if next[first].is_none() {
                    continue;
                }
                bucket.clear();
                let mut at = Some(first);
                while let Some(i) = at {
                    bucket.push(i);
                    at = next[i];
                }
                // Split the bucket into groups of equal items, each led by
                // its lowest index.
                while let Some(&leader) = bucket.first() {
                    group.clear();
                    bucket.retain(|&i| {
                        let member = i == leader || same(leader, i);
                        if member {
                            group.push(i);
                        }
                        !member
                    });
                    if group.len() < 2 {
                        continue;
                    }
                    merged_any = true;
                    runs.clear();
                    for &i in &group {
                        runs.extend_from_slice(ds[i].region().set(id).as_slice());
                        dead[i] = i != leader;
                    }
                    runs.sort_unstable_by_key(|iv| iv.lo());
                    // Adjacent regions usually fuse into one run, which
                    // the set holds inline.
                    let one = runs[1..]
                        .iter()
                        .try_fold(runs[0], |hull, &iv| hull.merge(iv));
                    let union = match one {
                        Some(hull) => IntervalSet::from_interval(hull),
                        None => IntervalSet::from_intervals(runs.iter().copied()),
                    };
                    merges.push((leader, union));
                }
            }
            for (i, union) in merges.drain(..) {
                ds[i]
                    .region_mut()
                    .set_field(id, union)
                    .expect("union of non-empty sets is non-empty");
            }
            let mut at = 0;
            ds.retain(|_| {
                at += 1;
                !dead[at - 1]
            });
        }
        if !merged_any {
            // Bucket draining shuffles nothing, but keep the historical
            // deterministic order for emitted rows.
            ds.sort_by(|a, b| a.region().sets().cmp(b.region().sets()));
            return ds;
        }
    }
}

/// Formats `pred` over `schema` with §7.1's output conversion:
/// unconstrained fields elided; 32-bit fields rendered as IP prefixes (or
/// dotted ranges when a run does not align to one prefix); other fields as
/// integers or integer intervals. Delegates to
/// [`fw_model::Predicate::display`], which implements the conversion.
pub fn display_predicate_prefixed(pred: &Predicate, schema: &Schema) -> String {
    pred.display(schema).to_string()
}

/// Helper returned by [`Discrepancy::display`].
#[derive(Debug)]
pub struct DisplayDiscrepancy<'a> {
    d: &'a Discrepancy,
    schema: &'a Schema,
}

impl fmt::Display for DisplayDiscrepancy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | first: {}, second: {}",
            display_predicate_prefixed(self.d.predicate(), self.schema),
            self.d.left,
            self.d.right
        )
    }
}

/// Helper returned by [`MultiDiscrepancy::display`].
#[derive(Debug)]
pub struct DisplayMultiDiscrepancy<'a> {
    d: &'a MultiDiscrepancy,
    schema: &'a Schema,
}

impl fmt::Display for DisplayMultiDiscrepancy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} |",
            display_predicate_prefixed(self.d.predicate(), self.schema)
        )?;
        for (i, d) in self.d.decisions.iter().enumerate() {
            write!(
                f,
                " v{}: {}{}",
                i + 1,
                d,
                if i + 1 < self.d.decisions.len() {
                    ","
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{FieldId, Interval, IntervalSet};

    fn schema() -> Schema {
        Schema::paper_example()
    }

    #[test]
    fn display_uses_prefix_notation_for_aligned_ips() {
        let s = schema();
        let pred = Predicate::any(&s)
            .with_field(
                FieldId(1),
                IntervalSet::from_interval(Interval::new(0xE0A8_0000, 0xE0A8_FFFF).unwrap()),
            )
            .unwrap()
            .with_field(FieldId(3), IntervalSet::from_value(25))
            .unwrap();
        let d = Discrepancy::new(pred, Decision::Accept, Decision::Discard);
        let text = d.display(&s).to_string();
        assert!(text.contains("src=224.168.0.0/16"), "got: {text}");
        assert!(text.contains("dport=25"));
        assert!(text.contains("first: accept, second: discard"));
    }

    #[test]
    fn display_falls_back_to_ranges_for_ragged_intervals() {
        let s = schema();
        // [1, 2^32-2] needs 62 prefixes — the range form is used instead.
        let pred = Predicate::any(&s)
            .with_field(
                FieldId(2),
                IntervalSet::from_interval(Interval::new(1, u64::from(u32::MAX) - 1).unwrap()),
            )
            .unwrap();
        let d = Discrepancy::new(pred, Decision::Accept, Decision::Discard);
        let text = d.display(&s).to_string();
        assert!(text.contains("dst=0.0.0.1-255.255.255.254"), "got: {text}");
    }

    #[test]
    fn multi_discrepancy_display_lists_versions() {
        let s = schema();
        let m = MultiDiscrepancy::new(
            Predicate::any(&s),
            vec![Decision::Accept, Decision::Discard, Decision::Accept],
        );
        let text = m.display(&s).to_string();
        assert!(text.contains("v1: accept"));
        assert!(text.contains("v2: discard"));
        assert!(text.contains("v3: accept"));
    }

    #[test]
    fn witness_is_inside_region() {
        let s = schema();
        let pred = Predicate::any(&s)
            .with_field(FieldId(0), IntervalSet::from_value(1))
            .unwrap();
        let d = Discrepancy::new(pred.clone(), Decision::Accept, Decision::Discard);
        assert!(pred.matches(&d.witness()));
        assert_eq!(d.packet_count(), pred.count());
    }
}

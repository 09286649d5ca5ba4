//! A fast FDD constructor: recursive domain partitioning over bit tables.
//!
//! [`Fdd::from_firewall`] implements the paper's Fig. 7 verbatim — appending
//! rules one at a time with edge splitting and subgraph replication — which
//! builds an explicit tree and can replicate large subgraphs many times.
//! [`Fdd::from_firewall_fast`] produces an *equivalent, already reduced*
//! diagram directly: at each field it cuts the cell's domain into the
//! segments induced by the surviving rules' intervals, recurses per segment
//! on the rules that still match, and memoises on `(field, survivor set)`,
//! sharing one subdiagram across identical subproblems. Two bit tables,
//! built once per call and indexed by field, reduce each step to word-wise
//! ANDs over rule bitsets:
//!
//! - **Segment columns.** The field's domain cut at every rule's interval
//!   bounds and, per segment, the rules whose set contains it. A segment's
//!   survivors are `live & column`.
//! - **Shadow rows.** Per rule r, the earlier rules whose sets on this field
//!   and every later one contain r's. A survivor with an earlier survivor in
//!   its row can never be the first match in the cell, so it is dropped
//!   before the memo lookup. This is the shadowing relation applied per
//!   cell: it canonicalises survivor sets, which is what keeps the memo
//!   small.
//!
//! The output is a canonical DAG: what `Fdd::from_firewall(fw)?.reduced()`
//! would return, at a small fraction of the cost. This is what makes the
//! paper's 3,000-rule comparisons (§8.2.2) tractable.

use fw_model::{FieldId, Firewall, Interval, IntervalSet};

use crate::cons::FxMap;
use crate::fdd::{Edge, Fdd, Node, NodeId};
use crate::CoreError;

impl Fdd {
    /// Builds a reduced FDD equivalent to `firewall` by recursive
    /// partitioning (see module docs). Semantically identical to
    /// [`Fdd::from_firewall`] followed by [`Fdd::reduced`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotComprehensive`] if some packet matches no
    /// rule. The witness names one value per field down to the uncovered
    /// cell; no rule matches it whatever the remaining fields hold.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), fw_core::CoreError> {
    /// use fw_core::Fdd;
    /// use fw_model::paper;
    ///
    /// let fast = Fdd::from_firewall_fast(&paper::team_b())?;
    /// let slow = Fdd::from_firewall(&paper::team_b())?;
    /// assert!(fast.isomorphic(&slow));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_firewall_fast(firewall: &Firewall) -> Result<Fdd, CoreError> {
        let n = firewall.len();
        let words = n.div_ceil(64);
        let d = firewall.schema().len();
        // Last field first: a field's shadow rows start from the next one's.
        let mut tables: Vec<FieldTable> = Vec::with_capacity(d);
        for f in (0..d).rev() {
            let table = FieldTable::new(firewall, FieldId(f), words, tables.last());
            tables.push(table);
        }
        tables.reverse();

        let mut live = vec![0u64; words];
        for r in 0..n {
            live[r / 64] |= 1u64 << (r % 64);
        }
        tables[0].prune(&mut live);
        let mut builder = FastBuilder {
            fdd: Fdd::empty(firewall.schema().clone()),
            firewall,
            tables: &tables,
            memo: vec![FxMap::default(); d],
            cons: vec![FxMap::default(); d],
            terminals: [None; 4],
            path: Vec::with_capacity(d),
            scratch: std::iter::repeat_with(Scratch::default).take(d).collect(),
        };
        let root = builder.build(0, &live)?;
        builder.fdd.set_root(root);
        debug_assert!(builder.fdd.validate().is_ok());
        Ok(builder.fdd)
    }
}

fn first_bit(bits: &[u64]) -> Option<usize> {
    let w = bits.iter().position(|&word| word != 0)?;
    Some(w * 64 + bits[w].trailing_zeros() as usize)
}

fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// One field's segment columns and shadow rows. With `s` segments, `n`
/// rules and `w = ⌈n/64⌉`, the columns take `s·w` words and the rows about
/// `n·w/2`: a row holds only the words of the rules before it.
struct FieldTable {
    /// First value of each segment, ascending. A segment ends where the
    /// next begins; the last ends at the domain's top.
    starts: Vec<u64>,
    /// Each rule's set as half-open runs of segment indices: rule r's are
    /// `runs[run_at[r]..run_at[r + 1]]`.
    runs: Vec<(usize, usize)>,
    run_at: Vec<usize>,
    /// Per segment, the rules whose set contains it; `words` words each.
    columns: Vec<u64>,
    /// Per rule r, the rules before r whose sets on this field and every
    /// later one contain r's: `r/64 + 1` words from [`row_at`]`(r)`.
    shadow: Vec<u64>,
    words: usize,
}

/// Where rule r's shadow row starts: row q takes `q/64 + 1` words.
fn row_at(r: usize) -> usize {
    let (w, b) = (r / 64, r % 64);
    32 * w * (w + 1) + (w + 1) * b
}

impl FieldTable {
    fn new(
        firewall: &Firewall,
        field: FieldId,
        words: usize,
        next: Option<&FieldTable>,
    ) -> FieldTable {
        let domain = firewall.schema().field(field).domain();
        let n = firewall.len();
        let mut bounds: Vec<(u64, u64)> = Vec::with_capacity(n);
        let mut run_at = Vec::with_capacity(n + 1);
        run_at.push(0);
        for rule in firewall.rules() {
            let set = rule.predicate().set(field);
            bounds.extend(set.iter().map(|iv| (iv.lo(), iv.hi())));
            run_at.push(bounds.len());
        }
        let mut starts = vec![domain.lo()];
        for &(lo, hi) in &bounds {
            starts.push(lo);
            if hi < domain.hi() {
                starts.push(hi + 1);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        let segments = starts.len();
        let index = |v: u64| starts.binary_search(&v).expect("every bound is a cut");
        let runs: Vec<(usize, usize)> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let end = if hi < domain.hi() {
                    index(hi + 1)
                } else {
                    segments
                };
                (index(lo), end)
            })
            .collect();

        // Flip each rule's bit where one of its runs starts or ends; the
        // running XOR over the segments is then the columns.
        let mut columns = vec![0u64; segments * words];
        let mut wild = vec![0u64; words];
        for r in 0..n {
            let bit = 1u64 << (r % 64);
            let own = &runs[run_at[r]..run_at[r + 1]];
            for &(a, b) in own {
                columns[a * words + r / 64] ^= bit;
                if b < segments {
                    columns[b * words + r / 64] ^= bit;
                }
            }
            if own == [(0, segments)] {
                wild[r / 64] |= bit;
            }
        }
        for k in 1..segments {
            let (done, rest) = columns.split_at_mut(k * words);
            for (c, p) in rest[..words].iter_mut().zip(&done[(k - 1) * words..]) {
                *c ^= p;
            }
        }

        let mut shadow = Vec::with_capacity(row_at(n));
        for r in 0..n {
            match next {
                Some(next) => shadow.extend_from_slice(next.row(r)),
                None => {
                    shadow.resize(shadow.len() + r / 64, u64::MAX);
                    shadow.push((1u64 << (r % 64)) - 1);
                }
            }
            let row = &mut shadow[row_at(r)..];
            // Keep the rules whose set here contains r's: those that
            // contain every segment r covers. The unconstrained rules are in
            // every column, so the AND stops once no other rule is left.
            if wild[r / 64] & (1u64 << (r % 64)) != 0 {
                row.iter_mut().zip(&wild).for_each(|(x, w)| *x &= w);
                continue;
            }
            'runs: for &(a, b) in &runs[run_at[r]..run_at[r + 1]] {
                for k in a..b {
                    let mut any = 0;
                    for ((x, c), w) in row.iter_mut().zip(&columns[k * words..]).zip(&wild) {
                        *x &= c;
                        any |= *x & !w;
                    }
                    if any == 0 {
                        break 'runs;
                    }
                }
            }
        }
        FieldTable {
            starts,
            runs,
            run_at,
            columns,
            shadow,
            words,
        }
    }

    /// Rule r's shadow row.
    fn row(&self, r: usize) -> &[u64] {
        &self.shadow[row_at(r)..][..=r / 64]
    }

    fn column(&self, segment: usize) -> &[u64] {
        &self.columns[segment * self.words..][..self.words]
    }

    fn runs_of(&self, rule: usize) -> &[(usize, usize)] {
        &self.runs[self.run_at[rule]..self.run_at[rule + 1]]
    }

    /// Fills `cuts` with the segments at which some live rule's membership
    /// changes, ascending from 0: the cell's segments begin there.
    fn cuts(&self, live: &[u64], cuts: &mut Vec<usize>) {
        cuts.clear();
        cuts.push(0);
        for_each_bit(live, |r| {
            for &(a, b) in self.runs_of(r) {
                cuts.extend([a, b]);
            }
        });
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.last() == Some(&self.starts.len()) {
            cuts.pop();
        }
    }

    /// Drops every survivor that has an earlier survivor in its shadow
    /// row: in this cell it can never be the first match. Containment is
    /// transitive, so clearing in place drops the same rules as checking
    /// against the original set, and the first survivor always stays.
    fn prune(&self, survivors: &mut [u64]) {
        for w in 0..survivors.len() {
            let mut rest = survivors[w];
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let row = self.row(w * 64 + b);
                if row.iter().zip(&survivors[..=w]).any(|(x, s)| x & s != 0) {
                    survivors[w] &= !(1u64 << b);
                }
            }
        }
    }
}

/// A node's maximal `(lo, hi, child)` spans of segments sharing a child,
/// ascending: its edges in canonical form.
type Spans = Vec<(u64, u64, NodeId)>;

/// The working buffers of one cell's build. A cell at field f is done with
/// them before the next cell at f starts, and its children use field
/// f + 1's, so one set per field serves the whole recursion.
#[derive(Default)]
struct Scratch {
    cuts: Vec<usize>,
    survivors: Vec<u64>,
    prev: Vec<u64>,
    spans: Spans,
}

struct FastBuilder<'a> {
    fdd: Fdd,
    firewall: &'a Firewall,
    tables: &'a [FieldTable],
    /// Per field, survivor set → subdiagram. Fx-hashed although the keys
    /// come from the input policy: a crafted policy can already force
    /// exponentially many cells (Theorem 1), so collision resistance would
    /// buy nothing.
    memo: Vec<FxMap<Box<[u64]>, NodeId>>,
    /// Per field, structural hash-consing of internal nodes.
    cons: Vec<FxMap<Spans, NodeId>>,
    /// The terminal of each decision, by wire code.
    terminals: [Option<NodeId>; 4],
    /// One value per field above the cell being built, for witnesses.
    path: Vec<u64>,
    /// Per field, the buffers of the cell being built there.
    scratch: Vec<Scratch>,
}

impl FastBuilder<'_> {
    fn build(&mut self, field: usize, live: &[u64]) -> Result<NodeId, CoreError> {
        if let Some(&node) = self.memo[field].get(live) {
            return Ok(node);
        }
        let mut scratch = std::mem::take(&mut self.scratch[field]);
        let node = self.build_cell(field, live, &mut scratch);
        self.scratch[field] = scratch;
        let node = node?;
        self.memo[field].insert(live.into(), node);
        Ok(node)
    }

    /// Builds the cell `live` at `field`, a memo miss.
    fn build_cell(
        &mut self,
        field: usize,
        live: &[u64],
        scratch: &mut Scratch,
    ) -> Result<NodeId, CoreError> {
        let tables = self.tables;
        let table = &tables[field];
        let next = tables.get(field + 1);
        let fid = FieldId(field);
        let top = self.fdd.schema().field(fid).domain().hi();
        let Scratch {
            cuts,
            survivors,
            prev,
            spans,
        } = scratch;
        table.cuts(live, cuts);
        spans.clear();
        survivors.clear();
        survivors.resize(live.len(), 0);
        prev.clear();
        prev.resize(live.len(), 0);
        for (i, &k) in cuts.iter().enumerate() {
            let lo = table.starts[k];
            let hi = cuts.get(i + 1).map_or(top, |&c| table.starts[c] - 1);
            for ((s, l), c) in survivors.iter_mut().zip(live).zip(table.column(k)) {
                *s = l & c;
            }
            let child = match next {
                // The last field: the first survivor is the first match.
                None => match first_bit(survivors) {
                    Some(r) => self.terminal(r),
                    None => return Err(self.uncovered(lo)),
                },
                Some(next) => {
                    next.prune(survivors);
                    if first_bit(survivors).is_none() {
                        return Err(self.uncovered(lo));
                    }
                    if survivors == prev {
                        spans.last_mut().expect("prev is a built segment").1 = hi;
                        continue;
                    }
                    self.path.push(lo);
                    let child = self.build(field + 1, survivors)?;
                    self.path.pop();
                    std::mem::swap(prev, survivors);
                    child
                }
            };
            match spans.last_mut() {
                Some((_, h, c)) if *c == child => *h = hi,
                _ => spans.push((lo, hi, child)),
            }
        }

        Ok(match spans.as_slice() {
            [(_, _, only)] => *only,
            _ => self.internal(fid, spans),
        })
    }

    fn terminal(&mut self, rule: usize) -> NodeId {
        let decision = self.firewall.rules()[rule].decision();
        let slot = usize::from(decision.code());
        if let Some(n) = self.terminals[slot] {
            return n;
        }
        let n = self.fdd.push(Node::Terminal(decision));
        self.terminals[slot] = Some(n);
        n
    }

    fn internal(&mut self, field: FieldId, spans: &[(u64, u64, NodeId)]) -> NodeId {
        if let Some(&n) = self.cons[field.0].get(spans) {
            return n;
        }
        // One edge per child, in order of its lowest value.
        let mut edges: Vec<Edge> = Vec::new();
        for (i, &(_, _, child)) in spans.iter().enumerate() {
            if edges.iter().any(|e| e.target == child) {
                continue;
            }
            let label = IntervalSet::from_intervals(
                spans[i..]
                    .iter()
                    .filter(|s| s.2 == child)
                    .map(|&(lo, hi, _)| Interval::new(lo, hi).expect("lo <= hi")),
            );
            edges.push(Edge {
                label,
                target: child,
            });
        }
        let n = self.fdd.push(Node::Internal { field, edges });
        self.cons[field.0].insert(spans.to_vec(), n);
        n
    }

    /// The error for a segment no rule matches, at the field below
    /// `path`: the whole path down to it, in the `field=value, …` form of
    /// [`crate::ConsArena::unmatched_witness`].
    fn uncovered(&self, value: u64) -> CoreError {
        let schema = self.fdd.schema();
        let witness = self
            .path
            .iter()
            .chain([&value])
            .enumerate()
            .map(|(f, v)| format!("{}={v}", schema.field(FieldId(f)).name()))
            .collect::<Vec<_>>()
            .join(", ");
        CoreError::NotComprehensive { witness }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_model::{paper, Packet, Schema};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            fw_model::FieldDef::new("a", 3).unwrap(),
            fw_model::FieldDef::new("b", 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn fast_equals_literal_on_paper_examples() {
        for fw in [paper::team_a(), paper::team_b()] {
            let fast = Fdd::from_firewall_fast(&fw).unwrap();
            fast.validate().unwrap();
            let slow = Fdd::from_firewall(&fw).unwrap();
            assert!(fast.isomorphic(&slow));
            for p in fw.witnesses() {
                assert_eq!(fast.decision_for(&p), fw.decision_for(&p));
            }
        }
    }

    #[test]
    fn fast_is_already_reduced() {
        let fw = paper::team_b();
        let fast = Fdd::from_firewall_fast(&fw).unwrap();
        let re = fast.reduced();
        assert_eq!(fast.node_count(), re.node_count());
    }

    #[test]
    fn fast_matches_first_match_exhaustively() {
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0|3|5-6, b=1-2|7 -> discard\na=1, b=0|4 -> accept-log\na=2-6 -> accept\n* -> discard\n",
        )
        .unwrap();
        let fast = Fdd::from_firewall_fast(&fw).unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                assert_eq!(fast.decision_for(&p), fw.decision_for(&p), "at {p}");
            }
        }
    }

    /// The packet a witness spells: its named values, every other field at
    /// its domain minimum.
    fn witness_packet(schema: &Schema, witness: &str) -> Packet {
        let mut values: Vec<u64> = schema.iter().map(|(_, f)| f.domain().lo()).collect();
        for pair in witness.split(", ") {
            let (name, value) = pair.split_once('=').expect("field=value");
            let (id, _) = schema
                .iter()
                .find(|(_, f)| f.name() == name)
                .expect("a schema field");
            values[id.0] = value.parse().expect("a decimal value");
        }
        Packet::new(values)
    }

    #[test]
    fn fast_detects_non_comprehensive() {
        let policies = [
            (tiny_schema(), "a=0-3 -> accept"),
            (tiny_schema(), "a=0-3, b=0-3 -> accept\na=4-7 -> discard\n"),
            // The gap is src in 10.0.0.0/8 with dport above 21: dport alone
            // does not name it, since src=11.0.0.1 matches rule 3.
            (
                Schema::tcp_ip(),
                "src=10.0.0.0/8, dport=0-21 -> accept\n\
                 src=0.0.0.0/5 -> discard\n\
                 src=11.0.0.0-255.255.255.255 -> accept\n\
                 src=8.0.0.0-9.255.255.255 -> accept\n",
            ),
        ];
        for (schema, text) in policies {
            let fw = fw_model::Firewall::parse(schema, text).unwrap();
            let Err(CoreError::NotComprehensive { witness }) = Fdd::from_firewall_fast(&fw) else {
                panic!("{text} leaves packets unmatched");
            };
            let p = witness_packet(fw.schema(), &witness);
            assert_eq!(fw.decision_for(&p), None, "{witness} is matched");
        }
    }

    #[test]
    fn fast_shares_identical_subproblems() {
        // Two disjoint source blocks with identical downstream behaviour
        // must share one subdiagram.
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-1, b=0-3 -> discard\na=4-5, b=0-3 -> discard\n* -> accept\n",
        )
        .unwrap();
        let fast = Fdd::from_firewall_fast(&fw).unwrap();
        let tree = Fdd::from_firewall(&fw).unwrap();
        assert!(fast.node_count() < tree.node_count());
    }

    #[test]
    fn fast_handles_policies_wider_than_one_bitset_word() {
        // More than 64 rules exercises the multi-word bitset paths.
        let mut text = String::new();
        for i in 0..100u64 {
            let v = i % 8;
            text.push_str(&format!(
                "a={v}, b={} -> {}\n",
                (i * 3) % 8,
                if i % 2 == 0 { "accept" } else { "discard" }
            ));
        }
        text.push_str("* -> discard\n");
        let fw = fw_model::Firewall::parse(tiny_schema(), &text).unwrap();
        let fast = Fdd::from_firewall_fast(&fw).unwrap();
        fast.validate().unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                assert_eq!(fast.decision_for(&p), fw.decision_for(&p), "at {p}");
            }
        }
    }
}

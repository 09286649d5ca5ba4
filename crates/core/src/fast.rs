//! A fast FDD constructor: recursive domain partitioning over bit tables.
//!
//! [`Fdd::from_firewall`] implements the paper's Fig. 7 verbatim — appending
//! rules one at a time with edge splitting and subgraph replication — which
//! builds an explicit tree and can replicate large subgraphs many times.
//! [`Fdd::from_firewall_fast`] produces an *equivalent, already reduced*
//! diagram directly: at each field it cuts the cell's domain into the
//! segments induced by the surviving rules' intervals, recurses per segment
//! on the rules that still match, and memoises on `(field, survivor set)`,
//! sharing one subdiagram across identical subproblems.
//!
//! A rule that lies, on every field, inside an earlier rule is never the
//! first match of any packet: the shadowing of Cuppens et al. A pre-pass
//! drops those rules before the recursion's tables are built; in the
//! 661-rule real-life stand-in that is 600 of them. Bit tables per field,
//! built once per call, reduce each step to word-wise ANDs over rule
//! bitsets:
//!
//! - **Segment columns.** The field's domain cut at every rule's interval
//!   bounds and, per segment, the rules whose set contains it. A segment's
//!   survivors are `live & column`.
//! - **Supersets.** Per distinct set on the field, the rules whose set
//!   contains it. Rules draw their sets from few distinct ones, so each is
//!   cut and compared once. The pre-pass ANDs a rule's supersets over
//!   every field, against the rules kept so far.
//! - **Shadow rows.** Per rule r, the earlier rules whose sets on this field
//!   and every later one contain r's: its superset here ANDed with its row
//!   at the next field. A survivor with an earlier survivor in its row can
//!   never be the first match in the cell, so it is dropped before the
//!   memo lookup. This is the pre-pass's relation applied per cell: it
//!   canonicalises survivor sets, which is what keeps the memo small.
//!   Field 0 has none, since the pre-pass is its prune.
//!
//! The pre-pass reads tables over every rule. When it drops any, the
//! columns and supersets are rebuilt over the kept rules alone, so the
//! recursion's bitsets shrink with them: one word instead of eleven on the
//! 661-rule policy.
//!
//! The output is a canonical DAG: what `Fdd::from_firewall(fw)?.reduced()`
//! would return, at a small fraction of the cost. This is what makes the
//! paper's 3,000-rule comparisons (§8.2.2) tractable.

use fw_model::{Decision, FieldId, Firewall, Interval, IntervalSet};

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
        let d = firewall.schema().len();
        let segments: Vec<Segments> = (0..d)
            .map(|f| Segments::new(firewall, FieldId(f)))
            .collect();
        let all: Vec<FieldTable> = segments
            .iter()
            .map(|s| FieldTable::new(s, s.set_of.clone()))
            .collect();
        let kept = uncontained(n, &all);
        // The tables over the kept rules are built beside those over every
        // rule, which go only when the build is done. Freed halfway, their
        // blocks fill with the diagram's nodes, and the next large block a
        // caller asks for (a serving set-up's decision cache) fits nowhere:
        // perfbench `serve-uniform` then peaked 2.2 MB higher.
        let (mut tables, _all) = if kept.len() < n {
            let numbered = |s: &Segments| kept.iter().map(|&r| s.set_of[r]).collect();
            let tables: Vec<FieldTable> = segments
                .iter()
                .map(|s| FieldTable::new(s, numbered(s)))
                .collect();
            (tables, Some(all))
        } else {
            (all, None)
        };
        // Last field first: a field's shadow rows start from the next one's.
        for f in (1..d).rev() {
            let (this, after) = tables.split_at_mut(f + 1);
            this[f].shade(after.first());
        }

        let mut live = vec![0u64; kept.len().div_ceil(64)];
        for r in 0..kept.len() {
            live[r / 64] |= 1u64 << (r % 64);
        }
        let mut builder = FastBuilder {
            fdd: Fdd::empty(firewall.schema().clone()),
            decisions: kept
                .iter()
                .map(|&r| firewall.rules()[r].decision())
                .collect(),
            tables: &tables,
            memo: std::iter::repeat_with(SliceMap::default).take(d).collect(),
            cons: std::iter::repeat_with(SliceMap::default).take(d).collect(),
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

/// The rules, ascending, that no earlier rule contains on every field:
/// the rest are never anyone's first match. `tables` number all `n`
/// rules. Containment is transitive, so checking against the kept rules
/// alone drops the same ones.
fn uncontained(n: usize, tables: &[FieldTable]) -> Vec<usize> {
    let mut kept = Vec::with_capacity(n);
    let mut kept_bits = vec![0u64; n.div_ceil(64)];
    let mut containers = Vec::with_capacity(kept_bits.len());
    for r in 0..n {
        // Every kept rule so far is earlier than r.
        containers.clear();
        containers.extend_from_slice(&kept_bits[..=r / 64]);
        for table in tables {
            let mut any = 0;
            for (c, s) in containers.iter_mut().zip(table.supersets_of(r)) {
                *c &= s;
                any |= *c;
            }
            if any == 0 {
                break;
            }
        }
        if containers.iter().all(|&c| c == 0) {
            kept.push(r);
            kept_bits[r / 64] |= 1u64 << (r % 64);
        }
    }
    kept
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

/// One field's segments and the distinct sets its rules use, from every
/// rule of the firewall.
struct Segments<'a> {
    /// First value of each segment, ascending. A segment ends where the
    /// next begins; the last ends at the domain's top.
    starts: Vec<u64>,
    /// The distinct sets, each also as half-open runs of segment indices:
    /// set i's are `runs[run_at[i]..run_at[i + 1]]`.
    sets: Vec<&'a IntervalSet>,
    runs: Vec<(usize, usize)>,
    run_at: Vec<usize>,
    /// Each rule's set, by firewall index.
    set_of: Vec<SetRef>,
}

/// One field's bit tables over a list of rules numbered from 0: every
/// rule, or only the kept ones. With `s` segments, `k` distinct sets, `n`
/// numbered rules and `w = ⌈n/64⌉`, the columns take `s·w` words, the
/// supersets `k·w` and the shadow rows about `n·w/2`: a row holds only
/// the words of the rules before it.
struct FieldTable<'a> {
    /// The field's [`Segments`] `starts` and `runs`.
    starts: &'a [u64],
    runs: &'a [(usize, usize)],
    /// Each numbered rule's set.
    set_of: Vec<SetRef>,
    words: usize,
    /// Per segment, the numbered rules whose set contains it.
    columns: Vec<u64>,
    /// Per distinct set, the numbered rules whose set contains it.
    supersets: Vec<u64>,
    /// Per numbered rule r, the rules before r whose sets on this field
    /// and every later one contain r's: `r/64 + 1` words from
    /// [`row_at`]`(r)`. Empty until [`FieldTable::shade`] fills it.
    shadow: Vec<u64>,
}

/// A distinct set of a field: its index in [`Segments`]' `sets`, and its
/// runs, `runs[from..to]`.
#[derive(Clone, Copy)]
struct SetRef {
    id: usize,
    from: usize,
    to: usize,
}

/// Where rule r's shadow row starts: row q takes `q/64 + 1` words.
fn row_at(r: usize) -> usize {
    let (w, b) = (r / 64, r % 64);
    32 * w * (w + 1) + (w + 1) * b
}

impl<'a> Segments<'a> {
    fn new(firewall: &'a Firewall, field: FieldId) -> Segments<'a> {
        let domain = firewall.schema().field(field).domain();
        // Rules draw their sets from few distinct ones: each is cut and
        // compared once. A one-run set, the common case, is looked up by
        // its bounds, which hash and compare faster than the set.
        let mut ones: FxMap<(u64, u64), usize> = FxMap::default();
        let mut others: FxMap<&IntervalSet, usize> = FxMap::default();
        let mut sets = Vec::new();
        let ids: Vec<usize> = firewall
            .rules()
            .iter()
            .map(|rule| {
                let set = rule.predicate().set(field);
                let add = || {
                    sets.push(set);
                    sets.len() - 1
                };
                match set.as_single_interval() {
                    Some(iv) => *ones.entry((iv.lo(), iv.hi())).or_insert_with(add),
                    None => *others.entry(set).or_insert_with(add),
                }
            })
            .collect();
        let mut starts = vec![domain.lo()];
        for iv in sets.iter().flat_map(|set| set.iter()) {
            starts.push(iv.lo());
            if iv.hi() < domain.hi() {
                starts.push(iv.hi() + 1);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        let segments = starts.len();
        let index = |v: u64| starts.binary_search(&v).expect("every bound is a cut");
        let mut runs = Vec::with_capacity(sets.len());
        let mut run_at = Vec::with_capacity(sets.len() + 1);
        run_at.push(0);
        for set in &sets {
            runs.extend(set.iter().map(|iv| {
                let end = if iv.hi() < domain.hi() {
                    index(iv.hi() + 1)
                } else {
                    segments
                };
                (index(iv.lo()), end)
            }));
            run_at.push(runs.len());
        }
        let set_of = ids
            .into_iter()
            .map(|id| SetRef {
                id,
                from: run_at[id],
                to: run_at[id + 1],
            })
            .collect();
        Segments {
            starts,
            sets,
            runs,
            run_at,
            set_of,
        }
    }
}

impl<'a> FieldTable<'a> {
    /// The columns and supersets over the rules whose sets are `set_of`,
    /// in order. Only the kept rules' segments matter to a cell, since it
    /// cuts only where a live rule's set does; the rest are harmless.
    fn new(segments: &'a Segments<'a>, set_of: Vec<SetRef>) -> FieldTable<'a> {
        let n = set_of.len();
        let words = n.div_ceil(64);
        let Segments {
            starts,
            sets,
            runs,
            run_at,
            ..
        } = segments;
        let count = starts.len();
        // Flip each rule's bit where one of its runs starts or ends; the
        // running XOR over the segments is then the columns.
        let mut columns = vec![0u64; count * words];
        for (r, set) in set_of.iter().enumerate() {
            let bit = 1u64 << (r % 64);
            for &(a, b) in &runs[set.from..set.to] {
                columns[a * words + r / 64] ^= bit;
                if b < count {
                    columns[b * words + r / 64] ^= bit;
                }
            }
        }
        for k in 1..count {
            let (done, rest) = columns.split_at_mut(k * words);
            for (c, p) in rest[..words].iter_mut().zip(&done[(k - 1) * words..]) {
                *c ^= p;
            }
        }
        // A rule contains a set only if it holds both ends of each of the
        // set's runs. For a rule of one run that is enough; one of several
        // runs may have a gap between the ends, so those are checked.
        let mut split = vec![0u64; words];
        for (r, set) in set_of.iter().enumerate() {
            if set.to - set.from > 1 {
                split[r / 64] |= 1u64 << (r % 64);
            }
        }
        let mut supersets = vec![u64::MAX; sets.len() * words];
        for (set, sup) in supersets.chunks_exact_mut(words.max(1)).enumerate() {
            for &(a, b) in &runs[run_at[set]..run_at[set + 1]] {
                let first = &columns[a * words..][..words];
                let last = &columns[(b - 1) * words..][..words];
                for ((x, f), l) in sup.iter_mut().zip(first).zip(last) {
                    *x &= f & l;
                }
            }
            for w in 0..words {
                let mut rest = sup[w] & split[w];
                while rest != 0 {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let container = sets[set_of[w * 64 + b].id];
                    if !sets[set].is_subset_of(container) {
                        sup[w] &= !(1u64 << b);
                    }
                }
            }
        }
        FieldTable {
            starts,
            runs,
            set_of,
            words,
            columns,
            supersets,
            shadow: Vec::new(),
        }
    }

    /// Fills the shadow rows from `next`, the following field's table
    /// with its rows filled, or from every earlier rule on the last field.
    fn shade(&mut self, next: Option<&FieldTable>) {
        let n = self.set_of.len();
        let mut shadow = Vec::with_capacity(row_at(n));
        for r in 0..n {
            let sup = &self.supersets_of(r)[..=r / 64];
            match next {
                Some(next) => shadow.extend(next.row(r).iter().zip(sup).map(|(x, s)| x & s)),
                None => shadow.extend_from_slice(sup),
            }
            *shadow.last_mut().expect("a row has a word") &= (1u64 << (r % 64)) - 1;
        }
        self.shadow = shadow;
    }

    /// The numbered rules whose set contains rule r's.
    fn supersets_of(&self, r: usize) -> &[u64] {
        &self.supersets[self.set_of[r].id * self.words..][..self.words]
    }

    /// Rule r's shadow row.
    fn row(&self, r: usize) -> &[u64] {
        &self.shadow[row_at(r)..][..=r / 64]
    }

    fn column(&self, segment: usize) -> &[u64] {
        &self.columns[segment * self.words..][..self.words]
    }

    fn runs_of(&self, rule: usize) -> &[(usize, usize)] {
        let set = self.set_of[rule];
        &self.runs[set.from..set.to]
    }

    /// Fills `cuts` with the segments at which some live rule's membership
    /// changes, ascending from 0: the cell's segments begin there.
    fn cuts(&self, live: &[u64], cuts: &mut Vec<usize>) {
        cuts.clear();
        cuts.push(0);
        // A rule's membership changes where its column bit flips. Reading
        // every column is cheaper than sorting the live rules' run ends
        // when the columns are short, as they are once the pre-pass has
        // dropped the contained rules.
        let segments = self.starts.len();
        let count: u32 = live.iter().map(|w| w.count_ones()).sum();
        if segments * live.len() <= 4 * count as usize {
            for k in 1..segments {
                let (before, here) = (self.column(k - 1), self.column(k));
                if before
                    .iter()
                    .zip(here)
                    .zip(live)
                    .any(|((b, h), l)| (b ^ h) & l != 0)
                {
                    cuts.push(k);
                }
            }
            return;
        }
        for_each_bit(live, |r| {
            for &(a, b) in self.runs_of(r) {
                cuts.extend([a, b]);
            }
        });
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.last() == Some(&segments) {
            cuts.pop();
        }
    }

    /// Drops every survivor that has an earlier survivor in its shadow
    /// row: in this cell it can never be the first match. Containment is
    /// transitive, so clearing in place drops the same rules as checking
    /// against the original set, and the first survivor always stays.
    fn prune(&self, survivors: &mut [u64]) {
        // One word, the common case once the pre-pass has run: row r is
        // then the one word at r.
        if let [only] = survivors {
            let mut rest = *only;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if self.shadow[b] & *only != 0 {
                    *only &= !(1u64 << b);
                }
            }
            return;
        }
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

/// A map from slices of `T` to nodes that keeps every key back to back in
/// one vector, so that an insert allocates nothing once the vectors have
/// grown. Fx-hashed although the keys come from the input policy: a
/// crafted policy can already force exponentially many cells (Theorem 1),
/// so collision resistance would buy nothing.
struct SliceMap<T> {
    /// Key hash → the newest entry with that hash.
    heads: FxMap<u64, u32>,
    entries: Vec<SliceEntry>,
    keys: Vec<T>,
}

/// One key of a [`SliceMap`]: `keys[at..at + len]`, with the entry
/// inserted before it under the same hash, if any.
struct SliceEntry {
    at: u32,
    len: u32,
    older: Option<u32>,
    node: NodeId,
}

impl<T> Default for SliceMap<T> {
    fn default() -> Self {
        SliceMap {
            heads: FxMap::default(),
            entries: Vec::new(),
            keys: Vec::new(),
        }
    }
}

impl<T: Copy + Eq + std::hash::Hash> SliceMap<T> {
    fn hash(key: &[T]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::cons::FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    fn get(&self, key: &[T]) -> Option<NodeId> {
        let mut at = self.heads.get(&Self::hash(key)).copied();
        while let Some(e) = at {
            let entry = &self.entries[e as usize];
            if &self.keys[entry.at as usize..][..entry.len as usize] == key {
                return Some(entry.node);
            }
            at = entry.older;
        }
        None
    }

    /// Adds `key`, which the map does not hold.
    fn insert(&mut self, key: &[T], node: NodeId) {
        let e = u32::try_from(self.entries.len()).expect("under 2^32 cells");
        let older = self.heads.insert(Self::hash(key), e);
        self.entries.push(SliceEntry {
            at: u32::try_from(self.keys.len()).expect("under 2^32 key words"),
            len: u32::try_from(key.len()).expect("under 2^32 key words"),
            older,
            node,
        });
        self.keys.extend_from_slice(key);
    }
}

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
    /// The decision of each rule the tables number.
    decisions: Vec<Decision>,
    tables: &'a [FieldTable<'a>],
    /// Per field, survivor set → subdiagram.
    memo: Vec<SliceMap<u64>>,
    /// Per field, structural hash-consing of internal nodes.
    cons: Vec<SliceMap<(u64, u64, NodeId)>>,
    /// The terminal of each decision, by wire code.
    terminals: [Option<NodeId>; 4],
    /// One value per field above the cell being built, for witnesses.
    path: Vec<u64>,
    /// Per field, the buffers of the cell being built there.
    scratch: Vec<Scratch>,
}

impl FastBuilder<'_> {
    fn build(&mut self, field: usize, live: &[u64]) -> Result<NodeId, CoreError> {
        if let Some(node) = self.memo[field].get(live) {
            return Ok(node);
        }
        let mut scratch = std::mem::take(&mut self.scratch[field]);
        let node = self.build_cell(field, live, &mut scratch);
        self.scratch[field] = scratch;
        let node = node?;
        self.memo[field].insert(live, node);
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
        let decision = self.decisions[rule];
        let slot = usize::from(decision.code());
        if let Some(n) = self.terminals[slot] {
            return n;
        }
        let n = self.fdd.push(Node::Terminal(decision));
        self.terminals[slot] = Some(n);
        n
    }

    fn internal(&mut self, field: FieldId, spans: &[(u64, u64, NodeId)]) -> NodeId {
        if let Some(n) = self.cons[field.0].get(spans) {
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
        self.cons[field.0].insert(spans, n);
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

    /// The pre-pass over every rule of `fw`.
    fn kept(fw: &Firewall) -> Vec<usize> {
        let segments: Vec<Segments> = (0..fw.schema().len())
            .map(|f| Segments::new(fw, FieldId(f)))
            .collect();
        let tables: Vec<FieldTable> = segments
            .iter()
            .map(|s| FieldTable::new(s, s.set_of.clone()))
            .collect();
        uncontained(fw.len(), &tables)
    }

    /// The rules no earlier rule contains, pair by pair.
    fn kept_by_pairs(fw: &Firewall) -> Vec<usize> {
        let rules = fw.rules();
        (0..rules.len())
            .filter(|&r| {
                !rules[..r]
                    .iter()
                    .any(|q| rules[r].predicate().is_subset_of(q.predicate()))
            })
            .collect()
    }

    #[test]
    fn pre_pass_drops_a_transitive_chain_and_multi_run_containment() {
        let fw = fw_model::Firewall::parse(
            tiny_schema(),
            "a=0-5 -> accept\n\
             a=1-4, b=1|3-5 -> discard\n\
             a=2-3, b=3-4 -> accept-log\n\
             a=0|2|6, b=0-1|6-7 -> discard\n\
             a=6, b=0|7 -> accept\n\
             a=0-2|6, b=0 -> accept-log\n\
             a=2|6, b=1|6 -> discard-log\n\
             * -> discard\n",
        )
        .unwrap();
        // Rule 2 lies in rule 1, which is dropped itself: containment is
        // transitive, so rule 0 accounts for both. Rule 4's two runs lie
        // in rule 3's; rule 5 holds both ends of rule 3's a but also 1,
        // which rule 3 lacks, so it stays; rule 6 lies in rule 3.
        assert_eq!(kept(&fw), vec![0, 3, 5, 7]);
        assert_eq!(kept(&fw), kept_by_pairs(&fw));
        let fast = Fdd::from_firewall_fast(&fw).unwrap();
        let literal = Fdd::from_firewall(&fw).unwrap().reduced();
        assert!(fast.isomorphic(&literal));
        assert_eq!(fast.node_count(), literal.node_count());
        for a in 0..8u64 {
            for b in 0..8u64 {
                let p = Packet::new(vec![a, b]);
                assert_eq!(fast.decision_for(&p), fw.decision_for(&p), "at {p}");
            }
        }
    }

    #[test]
    fn pre_pass_keeps_what_pairwise_containment_keeps() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let set = |rng: &mut StdRng| {
            let mut runs = Vec::new();
            let mut lo = rng.random_range(0..4u64);
            for _ in 0..rng.random_range(1..=3usize) {
                let hi = (lo + rng.random_range(0..3u64)).min(7);
                runs.push(if lo == hi {
                    format!("{lo}")
                } else {
                    format!("{lo}-{hi}")
                });
                lo = hi + 2;
                if lo > 7 {
                    break;
                }
            }
            runs.join("|")
        };
        for _ in 0..300 {
            let mut text = String::new();
            for _ in 0..rng.random_range(1..=140usize) {
                let a = set(&mut rng);
                let b = set(&mut rng);
                text.push_str(&format!("a={a}, b={b} -> accept\n"));
            }
            text.push_str("* -> discard\n");
            let fw = fw_model::Firewall::parse(tiny_schema(), &text).unwrap();
            assert_eq!(kept(&fw), kept_by_pairs(&fw), "{text}");
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

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::interval::SubtractResult;
use crate::Interval;

/// A (possibly empty) set of `u64` values stored as sorted, disjoint,
/// non-adjacent intervals.
///
/// `IntervalSet` is the label type of FDD edges (paper §2, property 3: each
/// edge carries a non-empty set of integers) and the per-field constraint of
/// general rule predicates. The internal representation is canonical — two
/// sets are equal as sets if and only if they compare equal with `==` — which
/// the whole FDD machinery relies on.
///
/// A set of at most one run is stored inline; only a set of two runs or more
/// owns a heap vector. Rule constraints and most FDD edge labels are single
/// runs, so building and cloning them allocates nothing. `==`, `Hash`, `Ord`
/// and `Debug` see only the runs, exactly as they would a `Vec<Interval>`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fw_model::ModelError> {
/// use fw_model::{Interval, IntervalSet};
///
/// let a = IntervalSet::from_intervals(vec![Interval::new(0, 9)?, Interval::new(20, 29)?]);
/// let b = IntervalSet::from_interval(Interval::new(5, 24)?);
/// let both = a.intersect(&b);
/// assert_eq!(both.count(), 10); // 5..=9 and 20..=24
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct IntervalSet {
    /// Sorted, pairwise disjoint and non-adjacent.
    runs: Runs,
}

/// The runs of an [`IntervalSet`]: inline up to one, on the heap from two.
/// `Many` never holds fewer than two runs, so each set has one form.
#[derive(Clone, Default, Serialize, Deserialize)]
enum Runs {
    #[default]
    Empty,
    One(Interval),
    Many(Vec<Interval>),
}

impl Runs {
    /// Appends `iv`, which starts after every run already held, merging it
    /// into the last run when the two overlap or touch.
    fn push(&mut self, iv: Interval) {
        match self {
            Runs::Empty => *self = Runs::One(iv),
            Runs::One(last) => match last.merge(iv) {
                Some(m) => *last = m,
                None => *self = Runs::Many(vec![*last, iv]),
            },
            Runs::Many(runs) => match runs.last_mut() {
                Some(last) => match last.merge(iv) {
                    Some(m) => *last = m,
                    None => runs.push(iv),
                },
                None => runs.push(iv),
            },
        }
    }

    /// The runs of a canonical vector, inline when it holds fewer than two.
    fn from_vec(runs: Vec<Interval>) -> Runs {
        match runs.as_slice() {
            [] => Runs::Empty,
            [only] => Runs::One(*only),
            _ => Runs::Many(runs),
        }
    }
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { runs: Runs::Empty }
    }

    /// The set containing exactly one interval.
    pub fn from_interval(iv: Interval) -> Self {
        IntervalSet {
            runs: Runs::One(iv),
        }
    }

    /// The set containing exactly one value.
    pub fn from_value(v: u64) -> Self {
        Self::from_interval(Interval::point(v))
    }

    /// Builds a set from arbitrary (unsorted, possibly overlapping)
    /// intervals, normalising into canonical form.
    pub fn from_intervals<I>(intervals: I) -> Self
    where
        I: IntoIterator<Item = Interval>,
    {
        let mut it = intervals.into_iter();
        let Some(first) = it.next() else {
            return IntervalSet::empty();
        };
        let Some(second) = it.next() else {
            return IntervalSet::from_interval(first);
        };
        let mut runs: Vec<Interval> = [first, second].into_iter().chain(it).collect();
        runs.sort_unstable_by_key(|iv| (iv.lo(), iv.hi()));
        // `dedup_by` hands over (next, last kept): fold each run into the
        // last kept one while they overlap or touch.
        runs.dedup_by(|next, kept| match kept.merge(*next) {
            Some(m) => {
                *kept = m;
                true
            }
            None => false,
        });
        IntervalSet {
            runs: Runs::from_vec(runs),
        }
    }

    /// Whether the set contains no values.
    pub fn is_empty(&self) -> bool {
        matches!(self.runs, Runs::Empty)
    }

    /// Number of values in the set, as `u128` (the full 64-bit domain holds
    /// `2^64` values).
    pub fn count(&self) -> u128 {
        self.iter().map(|iv| iv.count()).sum()
    }

    /// Number of maximal intervals in the canonical representation.
    pub fn run_count(&self) -> usize {
        self.as_slice().len()
    }

    /// The intervals of the canonical representation, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, Interval> {
        self.as_slice().iter()
    }

    /// The intervals as a slice, ascending.
    pub fn as_slice(&self) -> &[Interval] {
        match &self.runs {
            Runs::Empty => &[],
            Runs::One(iv) => std::slice::from_ref(iv),
            Runs::Many(runs) => runs,
        }
    }

    /// Heap bytes the set owns beyond its own size: none up to one run,
    /// the run vector's capacity from two runs up.
    pub fn heap_bytes(&self) -> usize {
        match &self.runs {
            Runs::Empty | Runs::One(_) => 0,
            Runs::Many(runs) => runs.capacity() * std::mem::size_of::<Interval>(),
        }
    }

    /// If the set is exactly one interval, returns it.
    pub fn as_single_interval(&self) -> Option<Interval> {
        match self.runs {
            Runs::One(only) => Some(only),
            _ => None,
        }
    }

    /// The smallest value in the set, if any.
    pub fn min_value(&self) -> Option<u64> {
        self.as_slice().first().map(|iv| iv.lo())
    }

    /// The largest value in the set, if any.
    pub fn max_value(&self) -> Option<u64> {
        self.as_slice().last().map(|iv| iv.hi())
    }

    /// Whether `v` is a member of the set.
    pub fn contains(&self, v: u64) -> bool {
        self.as_slice()
            .binary_search_by(|iv| {
                if iv.hi() < v {
                    std::cmp::Ordering::Less
                } else if iv.lo() > v {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        // Merge the two ascending run lists by lower bound; `push` folds
        // each run into the last one it overlaps or touches.
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Runs::Empty;
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j == b.len() || (i < a.len() && a[i].lo() <= b[j].lo());
            if take_a {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        IntervalSet { runs: out }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Runs::Empty;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if let Some(c) = x.intersect(y) {
                out.push(c);
            }
            if x.hi() <= y.hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { runs: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let cuts = other.as_slice();
        let mut out = Runs::Empty;
        let mut j = 0;
        for &a in self.as_slice() {
            let mut pending = a;
            let mut exhausted = false;
            // Skip other-runs entirely below `pending`.
            while j < cuts.len() && cuts[j].hi() < pending.lo() {
                j += 1;
            }
            let mut k = j;
            while k < cuts.len() && cuts[k].lo() <= pending.hi() {
                match pending.subtract(cuts[k]) {
                    SubtractResult::Empty => {
                        exhausted = true;
                        break;
                    }
                    SubtractResult::One(rest) => {
                        if rest.hi() < cuts[k].lo() {
                            // Residue lies entirely left of the cut: done.
                            pending = rest;
                            exhausted = true;
                            out.push(pending);
                            break;
                        }
                        pending = rest;
                    }
                    SubtractResult::Two(left, right) => {
                        out.push(left);
                        pending = right;
                    }
                }
                k += 1;
            }
            if !exhausted {
                out.push(pending);
            }
        }
        IntervalSet { runs: out }
    }

    /// Complement within `domain`: `domain \ self`.
    pub fn complement(&self, domain: Interval) -> IntervalSet {
        IntervalSet::from_interval(domain).subtract(self)
    }

    /// Whether every member of `self` is a member of `other`.
    pub fn is_subset_of(&self, other: &IntervalSet) -> bool {
        let b = other.as_slice();
        let mut j = 0;
        for &a in self.as_slice() {
            while j < b.len() && b[j].hi() < a.lo() {
                j += 1;
            }
            match b.get(j) {
                Some(r) if r.contains_interval(a) => {}
                _ => return false,
            }
        }
        true
    }

    /// Whether the two sets share at least one value.
    pub fn intersects(&self, other: &IntervalSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if x.overlaps(y) {
                return true;
            }
            if x.hi() < y.hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Whether the set equals the whole `domain`.
    pub fn covers(&self, domain: Interval) -> bool {
        self.as_single_interval() == Some(domain)
    }

    /// An arbitrary representative value from the set, if non-empty.
    ///
    /// Used by testing oracles that need one witness packet per region.
    pub fn any_value(&self) -> Option<u64> {
        self.min_value()
    }
}

impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IntervalSet {}

impl Hash for IntervalSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for IntervalSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IntervalSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntervalSet")
            .field("runs", &self.as_slice())
            .finish()
    }
}

impl From<Interval> for IntervalSet {
    fn from(iv: Interval) -> Self {
        IntervalSet::from_interval(iv)
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

impl Extend<Interval> for IntervalSet {
    fn extend<I: IntoIterator<Item = Interval>>(&mut self, iter: I) {
        *self = IntervalSet::from_intervals(self.iter().copied().chain(iter));
    }
}

impl<'a> IntoIterator for &'a IntervalSet {
    type Item = &'a Interval;
    type IntoIter = std::slice::Iter<'a, Interval>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (i, iv) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn set(pairs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(pairs.iter().map(|&(l, h)| iv(l, h)))
    }

    #[test]
    fn normalisation_merges_overlap_and_adjacency() {
        let s = set(&[(5, 9), (0, 4), (11, 20), (15, 30)]);
        assert_eq!(s.as_slice(), &[iv(0, 9), iv(11, 30)]);
    }

    #[test]
    fn contains_uses_binary_search_correctly() {
        let s = set(&[(0, 4), (10, 14), (20, 24)]);
        for v in [0, 4, 10, 14, 20, 24] {
            assert!(s.contains(v), "{v} should be in {s}");
        }
        for v in [5, 9, 15, 19, 25, u64::MAX] {
            assert!(!s.contains(v), "{v} should not be in {s}");
        }
    }

    #[test]
    fn union_intersect_subtract_agree_on_members() {
        let a = set(&[(0, 9), (20, 29)]);
        let b = set(&[(5, 24)]);
        let u = a.union(&b);
        let i = a.intersect(&b);
        let d = a.subtract(&b);
        for v in 0..40 {
            assert_eq!(
                u.contains(v),
                a.contains(v) || b.contains(v),
                "union at {v}"
            );
            assert_eq!(
                i.contains(v),
                a.contains(v) && b.contains(v),
                "intersect at {v}"
            );
            assert_eq!(
                d.contains(v),
                a.contains(v) && !b.contains(v),
                "subtract at {v}"
            );
        }
    }

    #[test]
    fn subtract_multiple_cuts_from_one_run() {
        let a = set(&[(0, 100)]);
        let b = set(&[(10, 19), (30, 39), (90, 200)]);
        assert_eq!(
            a.subtract(&b).as_slice(),
            &[iv(0, 9), iv(20, 29), iv(40, 89)]
        );
    }

    #[test]
    fn subtract_cut_spanning_runs() {
        let a = set(&[(0, 9), (20, 29), (40, 49)]);
        let b = set(&[(5, 44)]);
        assert_eq!(a.subtract(&b).as_slice(), &[iv(0, 4), iv(45, 49)]);
    }

    #[test]
    fn complement_round_trip() {
        let dom = iv(0, 255);
        let s = set(&[(0, 10), (200, 255)]);
        let c = s.complement(dom);
        assert_eq!(c.as_slice(), &[iv(11, 199)]);
        assert_eq!(c.complement(dom), s);
        assert_eq!(s.union(&c).as_slice(), &[dom]);
        assert!(s.intersect(&c).is_empty());
    }

    #[test]
    fn subset_relation() {
        let a = set(&[(2, 4), (8, 9)]);
        let b = set(&[(0, 5), (7, 10)]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(IntervalSet::empty().is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn intersects_fast_path() {
        let a = set(&[(0, 4), (10, 14)]);
        let b = set(&[(5, 9)]);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&set(&[(14, 20)])));
    }

    #[test]
    fn covers_full_domain() {
        let dom = iv(0, 65535);
        assert!(IntervalSet::from_interval(dom).covers(dom));
        assert!(!set(&[(0, 65534)]).covers(dom));
        assert!(!set(&[(0, 10), (12, 65535)]).covers(dom));
    }

    #[test]
    fn count_sums_runs() {
        assert_eq!(set(&[(0, 9), (20, 24)]).count(), 15);
        assert_eq!(IntervalSet::empty().count(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntervalSet::empty().to_string(), "∅");
        assert_eq!(set(&[(1, 1), (3, 5)]).to_string(), "1|3-5");
    }

    #[test]
    fn collect_from_iterator() {
        let s: IntervalSet = [iv(3, 5), iv(0, 2)].into_iter().collect();
        assert_eq!(s.as_slice(), &[iv(0, 5)]);
    }

    #[test]
    fn extend_renormalises() {
        let mut s = set(&[(0, 4)]);
        s.extend([iv(5, 9)]);
        assert_eq!(s.as_slice(), &[iv(0, 9)]);
    }

    #[test]
    fn full_domain_subtract_handles_extremes() {
        let dom = iv(0, u64::MAX);
        let s = IntervalSet::from_interval(dom);
        let cut = set(&[(0, 0), (u64::MAX, u64::MAX)]);
        let r = s.subtract(&cut);
        assert_eq!(r.as_slice(), &[iv(1, u64::MAX - 1)]);
    }
}

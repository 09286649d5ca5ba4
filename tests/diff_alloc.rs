//! Heap traffic of the `fwdiff` request path, and the observable behaviour
//! of `IntervalSet`'s inline storage.
//!
//! A counting global allocator measures what parsing a policy,
//! extracting discrepancies and rendering them allocate: one allocation
//! per rule for a policy whose sets are single runs, plus the rule
//! vector's growth, a few for the discrepancies of two equivalent
//! policies, whatever their size, and for a rendered report only the
//! growth of the buffer it is written into.
//! A Vec-backed twin of `IntervalSet` — the representation before one-run
//! sets moved inline — checks every operation, comparison, hash and text
//! form. The counter is per thread, so the tests of this binary may run in
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;

use diverse_firewall::core::{coalesce, coalesce_multi, diff_product, Fdd, MultiDiscrepancy};
use diverse_firewall::model::{parse, Firewall, Interval, IntervalSet};
use diverse_firewall::synth::{perturb, university_large};
use rand::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one `GlobalAlloc` states; counting
// touches only a thread-local `Cell` and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block `System` returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn parsing_allocates_once_per_rule_of_single_runs() {
    let policy = university_large();
    let schema = policy.schema().clone();
    assert!(policy
        .rules()
        .iter()
        .all(|r| r.predicate().sets().iter().all(|s| s.run_count() == 1)));
    let dsl = policy.to_dsl();
    for n in [100, policy.len()] {
        let text: String = dsl.lines().take(n).map(|l| format!("{l}\n")).collect();
        let mut parsed = None;
        let made = allocations_in(|| parsed = Some(parse::parse_rules(&schema, &text)));
        let rules = parsed.expect("ran").expect("the policy parses");
        assert_eq!(rules.len(), n);
        let mut built = None;
        let validated = allocations_in(|| built = Some(Firewall::new(schema.clone(), rules)));
        assert_eq!(validated, 0, "validating {n} rules allocated");
        let rules = built.expect("ran").expect("valid rules").rules().to_vec();
        // The rule vector's growth, replayed on the same rules.
        let growth = allocations_in(|| {
            let mut list = Vec::new();
            for r in rules {
                list.push(r);
            }
            black_box(list);
        });
        assert!(
            made <= n + growth,
            "parsing {n} rules made {made} allocations (growth {growth})"
        );
    }
}

/// Rendering a whole `fwdiff` report writes straight into its output: a
/// buffer sized for the report takes no allocation, and an empty one takes
/// at most one per doubling of its length.
#[test]
fn rendering_a_report_allocates_only_its_output_buffer() {
    let large = university_large();
    let a = Fdd::from_firewall_fast(&large).expect("comprehensive");
    for seed in 1..=3u64 {
        let variant = perturb(&large, 5, seed);
        let b = Fdd::from_firewall_fast(&variant).expect("comprehensive");
        let product = diff_product(&a, &b).expect("one schema");
        let schema = product.schema();
        let regions = product.discrepancies();
        assert!(!regions.is_empty(), "seed {seed}: the variant differs");
        let render = |out: &mut String| {
            for (i, d) in regions.iter().enumerate() {
                writeln!(out, "{:>3}. {}", i + 1, d.display(schema)).expect("a String takes it");
            }
        };
        let mut expect = String::new();
        render(&mut expect);
        let mut out = String::with_capacity(expect.len());
        let made = allocations_in(|| render(&mut out));
        assert_eq!(out, expect);
        assert_eq!(
            made,
            0,
            "seed {seed}: rendering {} regions into a sized buffer allocated",
            regions.len()
        );
        let mut out = String::new();
        let made = allocations_in(|| render(&mut out));
        let doublings = (usize::BITS - out.len().leading_zeros()) as usize;
        assert!(
            made <= doublings,
            "seed {seed}: {made} allocations for a {}-byte report",
            out.len()
        );
    }
}

#[test]
fn extracting_no_discrepancy_allocates_a_handful() {
    let policy = university_large();
    let a = Fdd::from_firewall_fast(&policy).expect("comprehensive");
    let b = Fdd::from_firewall_fast(&policy).expect("comprehensive");
    let product = diff_product(&a, &b).expect("one schema");
    let mut found = None;
    let made = allocations_in(|| found = Some(product.discrepancies()));
    assert_eq!(found.map(|d| d.len()), Some(0));
    assert!(made <= 8, "discrepancies() made {made} allocations");
    let made = allocations_in(|| {
        black_box(product.packet_count());
        black_box(product.cell_count());
    });
    assert!(made <= 2, "the counts made {made} allocations");
}

#[test]
fn coalescing_allocates_its_scratch_once() {
    let policy = university_large();
    let a = Fdd::from_firewall_fast(&policy).expect("comprehensive");
    let b = Fdd::from_firewall_fast(&perturb(&policy, 10, 1)).expect("comprehensive");
    let raw = diff_product(&a, &b)
        .expect("one schema")
        .raw_discrepancies();
    assert_eq!(raw.len(), 143);
    let mut merged = None;
    let made = allocations_in(|| merged = Some(coalesce(raw)));
    assert_eq!(merged.map(|d| d.len()), Some(15));
    // The map, links and group buffers once per call, their growth, and
    // one vector per union that keeps several runs: 46 here. With a map,
    // a dead list and group vectors per field pass it was 1,177.
    assert!(made <= 64, "coalesce made {made} allocations");
}

#[test]
fn coalescing_n_way_regions_clones_no_decision_vectors() {
    let policy = university_large();
    let a = Fdd::from_firewall_fast(&policy).expect("comprehensive");
    let b = Fdd::from_firewall_fast(&perturb(&policy, 10, 1)).expect("comprehensive");
    let raw: Vec<MultiDiscrepancy> = diff_product(&a, &b)
        .expect("one schema")
        .raw_discrepancies()
        .into_iter()
        .map(|d| MultiDiscrepancy::new(d.predicate().clone(), vec![d.left(), d.right()]))
        .collect();
    assert_eq!(raw.len(), 143);
    let mut merged = None;
    let made = allocations_in(|| merged = Some(coalesce_multi(raw)));
    assert_eq!(merged.map(|d| d.len()), Some(15));
    // The same budget as the two-version coalescing above: the groups key
    // on the decision slices in place. Cloning each region's decision
    // vector for every key hashed and compared made 812 here.
    assert!(made <= 64, "coalesce_multi made {made} allocations");
}

#[test]
fn single_run_sets_stay_off_the_heap() {
    let iv = |lo, hi| Interval::new(lo, hi).expect("ordered");
    let made = allocations_in(|| {
        let a = IntervalSet::from_interval(iv(0, 9));
        let b = IntervalSet::from_intervals([iv(5, 20)]);
        let c = IntervalSet::from_intervals([iv(30, 40), iv(10, 29)]);
        black_box(
            a.union(&b)
                .intersect(&c)
                .subtract(&IntervalSet::from_value(20)),
        );
        black_box((a.clone(), IntervalSet::empty(), c.complement(iv(10, 99))));
    });
    // Only `from_intervals` of two intervals collects them to sort.
    assert_eq!(made, 1, "single-run sets allocated");
    let two = IntervalSet::from_intervals([iv(0, 1), iv(5, 6)]);
    assert!(allocations_in(|| drop(black_box(two.clone()))) >= 1);
    assert!(std::mem::size_of::<IntervalSet>() <= 32);
}

/// `IntervalSet` as it was before one-run sets moved inline: a struct
/// wrapping a canonical `Vec<Interval>`, with derived `Debug`, `Hash`,
/// `Eq` and `Ord`, and the same algorithms.
mod vec_backed {
    use std::fmt;

    use diverse_firewall::model::{Interval, SubtractResult};

    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct IntervalSet {
        pub runs: Vec<Interval>,
    }

    impl IntervalSet {
        pub fn from_intervals<I>(intervals: I) -> Self
        where
            I: IntoIterator<Item = Interval>,
        {
            let mut runs: Vec<Interval> = intervals.into_iter().collect();
            runs.sort_unstable_by_key(|iv| (iv.lo(), iv.hi()));
            let mut out: Vec<Interval> = Vec::with_capacity(runs.len());
            for iv in runs {
                match out.last_mut() {
                    Some(last) => match last.merge(iv) {
                        Some(m) => *last = m,
                        None => out.push(iv),
                    },
                    None => out.push(iv),
                }
            }
            IntervalSet { runs: out }
        }

        pub fn union(&self, other: &IntervalSet) -> IntervalSet {
            IntervalSet::from_intervals(self.runs.iter().chain(other.runs.iter()).copied())
        }

        pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
            let mut out = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < self.runs.len() && j < other.runs.len() {
                let (a, b) = (self.runs[i], other.runs[j]);
                if let Some(c) = a.intersect(b) {
                    out.push(c);
                }
                if a.hi() <= b.hi() {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            IntervalSet { runs: out }
        }

        pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
            let mut out = Vec::new();
            let mut j = 0;
            for &a in &self.runs {
                let mut pending = a;
                let mut exhausted = false;
                // Skip other-runs entirely below `pending`.
                while j < other.runs.len() && other.runs[j].hi() < pending.lo() {
                    j += 1;
                }
                let mut k = j;
                while k < other.runs.len() && other.runs[k].lo() <= pending.hi() {
                    match pending.subtract(other.runs[k]) {
                        SubtractResult::Empty => {
                            exhausted = true;
                            break;
                        }
                        SubtractResult::One(rest) => {
                            if rest.hi() < other.runs[k].lo() {
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

        pub fn complement(&self, domain: Interval) -> IntervalSet {
            IntervalSet { runs: vec![domain] }.subtract(self)
        }

        pub fn is_subset_of(&self, other: &IntervalSet) -> bool {
            let mut j = 0;
            for &a in &self.runs {
                while j < other.runs.len() && other.runs[j].hi() < a.lo() {
                    j += 1;
                }
                match other.runs.get(j) {
                    Some(b) if b.contains_interval(a) => {}
                    _ => return false,
                }
            }
            true
        }

        pub fn intersects(&self, other: &IntervalSet) -> bool {
            let (mut i, mut j) = (0, 0);
            while i < self.runs.len() && j < other.runs.len() {
                let (a, b) = (self.runs[i], other.runs[j]);
                if a.overlaps(b) {
                    return true;
                }
                if a.hi() < b.hi() {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            false
        }

        pub fn covers(&self, domain: Interval) -> bool {
            matches!(self.runs.as_slice(), [only] if *only == domain)
        }

        pub fn contains(&self, v: u64) -> bool {
            self.runs.iter().any(|iv| iv.contains(v))
        }

        pub fn count(&self) -> u128 {
            self.runs.iter().map(|iv| iv.count()).sum()
        }
    }

    impl fmt::Display for IntervalSet {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.runs.is_empty() {
                return write!(f, "∅");
            }
            for (i, iv) in self.runs.iter().enumerate() {
                if i > 0 {
                    write!(f, "|")?;
                }
                write!(f, "{iv}")?;
            }
            Ok(())
        }
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Up to four random intervals near 0 or near `u64::MAX`, unsorted and
/// possibly overlapping or touching: sets of zero to four runs.
fn intervals(rng: &mut StdRng) -> Vec<Interval> {
    let base = if rng.random_bool(0.2) {
        u64::MAX - 48
    } else {
        0
    };
    (0..rng.random_range(0..=4usize))
        .map(|_| {
            let lo = base + rng.random_range(0..40u64);
            let hi = lo.saturating_add(rng.random_range(0..9u64));
            Interval::new(lo, hi).expect("ordered")
        })
        .collect()
}

/// Both forms of one input.
fn pair(ivs: &[Interval]) -> (IntervalSet, vec_backed::IntervalSet) {
    let new = IntervalSet::from_intervals(ivs.iter().copied());
    let old = vec_backed::IntervalSet::from_intervals(ivs.iter().copied());
    assert_eq!(new.as_slice(), old.runs.as_slice(), "from {ivs:?}");
    (new, old)
}

/// A set and its twin hold the same runs, answer every query alike and
/// print alike.
fn assert_same(new: &IntervalSet, old: &vec_backed::IntervalSet, what: &str) {
    assert_eq!(new.as_slice(), old.runs.as_slice(), "{what}");
    assert_eq!(new.run_count(), old.runs.len(), "{what}");
    assert_eq!(new.iter().copied().collect::<Vec<_>>(), old.runs, "{what}");
    assert_eq!(new.is_empty(), old.runs.is_empty(), "{what}");
    assert_eq!(new.count(), old.count(), "{what}");
    assert_eq!(
        new.min_value(),
        old.runs.first().map(|iv| iv.lo()),
        "{what}"
    );
    assert_eq!(new.max_value(), old.runs.last().map(|iv| iv.hi()), "{what}");
    assert_eq!(new.any_value(), new.min_value(), "{what}");
    let single = match old.runs.as_slice() {
        [only] => Some(*only),
        _ => None,
    };
    assert_eq!(new.as_single_interval(), single, "{what}");
    assert_eq!(new.heap_bytes() == 0, old.runs.len() < 2, "{what}");
    assert_eq!(hash_of(new), hash_of(old), "{what}");
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{what}");
    assert_eq!(format!("{new:#?}"), format!("{old:#?}"), "{what}");
    assert_eq!(new.to_string(), old.to_string(), "{what}");
    assert_eq!(&new.clone(), new, "{what}");
}

#[test]
fn inline_sets_behave_as_the_vec_backed_twin() {
    let mut rng = StdRng::seed_from_u64(0x1f5e7);
    let mut run_counts = [0usize; 5];
    let probes: Vec<u64> = (0..50)
        .chain([u64::MAX - 50, u64::MAX - 30, u64::MAX - 1, u64::MAX])
        .collect();
    for case in 0..4_000 {
        let (ivs_a, ivs_b) = (intervals(&mut rng), intervals(&mut rng));
        let (a, old_a) = pair(&ivs_a);
        let (b, old_b) = pair(&ivs_b);
        run_counts[a.run_count().min(4)] += 1;
        let what = |op: &str| format!("case {case}: {op} of {old_a:?} and {old_b:?}");
        assert_same(&a, &old_a, &what("set"));
        assert_same(&a.union(&b), &old_a.union(&old_b), &what("union"));
        assert_same(
            &a.intersect(&b),
            &old_a.intersect(&old_b),
            &what("intersect"),
        );
        assert_same(&a.subtract(&b), &old_a.subtract(&old_b), &what("subtract"));
        for domain in [
            Interval::new(0, 63).expect("ordered"),
            Interval::new(0, u64::MAX).expect("ordered"),
            Interval::new(10, 20).expect("ordered"),
        ] {
            assert_same(
                &a.complement(domain),
                &old_a.complement(domain),
                &what("complement"),
            );
            assert_eq!(a.covers(domain), old_a.covers(domain), "{}", what("covers"));
        }
        let mut extended = a.clone();
        extended.extend(b.iter().copied());
        let old_extended =
            vec_backed::IntervalSet::from_intervals(old_a.runs.iter().chain(&old_b.runs).copied());
        assert_same(&extended, &old_extended, &what("extend"));
        assert_eq!(
            a.is_subset_of(&b),
            old_a.is_subset_of(&old_b),
            "{}",
            what("subset")
        );
        assert_eq!(
            a.intersects(&b),
            old_a.intersects(&old_b),
            "{}",
            what("intersects")
        );
        assert_eq!(a == b, old_a == old_b, "{}", what("=="));
        assert_eq!(a.cmp(&b), old_a.cmp(&old_b), "{}", what("cmp"));
        assert_eq!(
            a.partial_cmp(&b),
            old_a.partial_cmp(&old_b),
            "{}",
            what("partial_cmp")
        );
        assert_eq!(a.cmp(&a), Ordering::Equal);
        for &v in &probes {
            assert_eq!(
                a.contains(v),
                old_a.contains(v),
                "{} at {v}",
                what("contains")
            );
        }
    }
    assert!(
        run_counts.iter().all(|&n| n > 50),
        "run counts 0..=4 drawn {run_counts:?} times"
    );
}

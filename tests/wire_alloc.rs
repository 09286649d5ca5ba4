//! Allocation count of a serving request's first two steps, and the
//! observable behaviour of `Packet`'s two storages.
//!
//! A counting global allocator replays what a serving request does with
//! trace wire bytes in hand: two schema clones, `PacketTrace::decode`,
//! `PacketBatch::from_trace`, then dropping the trace. That may allocate
//! once per column and once for the packet list, never once per packet.
//! The counter is per thread, so the tests of this binary may run in
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;

use diverse_firewall::exec::PacketBatch;
use diverse_firewall::model::{FieldDef, FieldId, ModelError, Packet, Schema};
use diverse_firewall::synth::PacketTrace;

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
fn decoding_a_request_allocates_per_column_not_per_packet() {
    let schema = Schema::tcp_ip();
    let d = schema.len();
    let mut counts = Vec::new();
    for n in [64, 1024] {
        let wire = PacketTrace::random(schema.clone(), n, 7).encode();
        let made = allocations_in(|| {
            let trace = PacketTrace::decode(schema.clone(), wire.clone()).expect("a valid trace");
            let batch =
                PacketBatch::from_trace(schema.clone(), trace.packets()).expect("a valid trace");
            drop(trace);
            black_box(batch);
        });
        // The packet list, the column list and one buffer per column.
        assert!(
            made <= d + 2,
            "decode + from_trace of {n} packets made {made} allocations"
        );
        counts.push(made);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations grow with the packet count"
    );
}

#[test]
fn schema_clones_share_their_fields() {
    let schema = Schema::tcp_ip();
    let clones = allocations_in(|| {
        black_box((schema.clone(), schema.clone()));
    });
    assert_eq!(clones, 0);
    let rebuilt = Schema::tcp_ip();
    assert_eq!(schema, rebuilt);
    assert_eq!(hash_of(&schema), hash_of(&rebuilt));
    let other = Schema::paper_example();
    assert_ne!(schema, other);
    assert!(format!("{schema:?}").starts_with("Schema { fields: [FieldDef { name: \"src\""));
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A schema of `d` 16-bit fields `f0`, `f1`, ….
fn wide(d: usize) -> Schema {
    Schema::new(
        (0..d)
            .map(|i| FieldDef::new(format!("f{i}"), 16).expect("16 bits is a valid width"))
            .collect(),
    )
    .expect("distinct names")
}

/// The representation `Packet` had before its inline storage: a struct
/// wrapping a `Vec<u64>`, with derived `Debug` and `Hash`.
mod vec_backed {
    #[derive(Debug, Hash)]
    pub struct Packet {
        pub values: Vec<u64>,
    }
}

/// What a `Packet` showed when it wrapped a `Vec<u64>`, checked for the
/// inline storage (5 fields) and the heap one (9 fields) alike.
#[test]
fn both_storages_behave_as_a_value_vector() {
    for d in [5usize, 9] {
        let values: Vec<u64> = (1..=d as u64).collect();
        let p = Packet::new(values.clone());
        let old = vec_backed::Packet {
            values: values.clone(),
        };

        // Accessors and conversions.
        assert_eq!(p.values(), &values[..]);
        assert_eq!(p.len(), d);
        assert!(!p.is_empty());
        assert_eq!(p.get(FieldId(2)), Some(3));
        assert_eq!(p.get(FieldId(d)), None);
        assert_eq!(p.value(FieldId(d - 1)), d as u64);
        assert_eq!(Packet::from(values.clone()), p);
        assert_eq!(values.iter().copied().collect::<Packet>(), p);

        // `==` and `Hash` see the values alone, as the vector's did.
        assert_eq!(p.clone(), p);
        let mut other = values.clone();
        other[d - 1] += 1;
        assert_ne!(Packet::new(other), p);
        assert_ne!(Packet::new(values[..d - 1].to_vec()), p);
        assert_eq!(hash_of(&p), hash_of(&old));

        // Display and both Debug forms.
        let listed = values
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        assert_eq!(p.to_string(), format!("({listed})"));
        assert_eq!(format!("{p:?}"), format!("{old:?}"));
        assert_eq!(format!("{p:#?}"), format!("{old:#?}"));

        // `validate`: arity first, then the first out-of-domain field.
        let schema = wide(d);
        assert_eq!(p.validate(&schema), Ok(()));
        assert_eq!(
            p.validate(&wide(d + 1)),
            Err(ModelError::ArityMismatch {
                expected: d + 1,
                found: d
            })
        );
        let mut bad = values.clone();
        bad[1] = 1 << 16;
        bad[3] = 1 << 17;
        assert_eq!(
            Packet::new(bad).validate(&schema),
            Err(ModelError::OutOfDomain {
                field: "f1".into(),
                value: 1 << 16,
                max: u64::from(u16::MAX)
            })
        );
    }
}

#[test]
fn only_wide_packets_touch_the_heap() {
    let narrow: Vec<u64> = vec![1, 2, 3, 4, 5];
    let built = allocations_in(|| {
        let p: Packet = narrow.iter().copied().collect();
        black_box(p.clone());
        black_box(p);
    });
    assert_eq!(built, 0, "a 5-field packet allocated");
    let wide: Vec<u64> = (0..9).collect();
    let built = allocations_in(|| {
        let p: Packet = wide.iter().copied().collect();
        black_box(p);
    });
    assert!(built >= 1, "a 9-field packet stayed inline");
    assert!(std::mem::size_of::<Packet>() <= 48);
}

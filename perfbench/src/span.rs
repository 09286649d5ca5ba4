//! The benchmark's span recorder and the self-time arithmetic over it.
//!
//! A span records a name, a start, an end and the span that caused it;
//! the spans under one root share that root's request id. Spans are kept
//! in memory and written out when the run ends. A span's self time is its
//! duration minus the part its children cover; the workload is one thread,
//! so children never overlap and that part is the sum of their durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span, in nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request id shared by a root and everything under it.
    pub req: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Layer (or root kind) name.
    pub name: &'static str,
    /// Start, ns since the recorder's base instant.
    pub start: u64,
    /// End, ns since the recorder's base instant.
    pub end: u64,
}

/// Handle to an open span; `None` when the recorder is off.
pub type Open = Option<u32>;

/// An in-memory span recorder. When off, opening and closing do nothing.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_req: u32,
    cap: usize,
}

impl Recorder {
    /// A recorder that keeps at most `cap` spans; `on = false` records
    /// nothing at all.
    pub fn new(on: bool, cap: usize) -> Recorder {
        Recorder {
            on,
            base: Instant::now(),
            spans: Vec::with_capacity(if on { cap.min(1 << 16) } else { 0 }),
            stack: Vec::new(),
            next_req: 0,
            cap,
        }
    }

    /// Whether a new root would be recorded: tracing is on and the buffer
    /// has room for a root and its children.
    pub fn has_room(&self) -> bool {
        self.on && self.spans.len() + 64 <= self.cap
    }

    /// Opens a root span under a fresh request id, if there is room.
    pub fn root(&mut self, name: &'static str) -> Open {
        if !self.has_room() || !self.stack.is_empty() {
            return None;
        }
        self.next_req += 1;
        self.push(name, self.next_req, NO_PARENT)
    }

    /// Opens a child of the innermost open span; nothing when no root is
    /// open (the enclosing request is not traced).
    pub fn open(&mut self, name: &'static str) -> Open {
        let &parent = self.stack.last()?;
        let req = self.spans[parent as usize].req;
        self.push(name, req, parent)
    }

    fn push(&mut self, name: &'static str, req: u32, parent: u32) -> Open {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start = self.now();
        self.spans.push(Span {
            req,
            parent,
            name,
            start,
            end: start,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open {
            let end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id as usize].end = end;
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "id,req,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(w, "{i},{},{parent},{},{},{}", s.req, s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Each span's self time: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Per-layer self time over every root of one name: how a kind of request
/// splits into layers. The root's own self time is the uncovered
/// remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// The root name the breakdown covers.
    pub root: &'static str,
    /// Roots of that name.
    pub roots: usize,
    /// Sum of those roots' durations, ns.
    pub total_ns: u64,
    /// Per layer: self time summed within each root, one entry per root
    /// that has the layer. The root's own name holds the remainder.
    pub layers: BTreeMap<&'static str, Vec<u64>>,
}

impl Breakdown {
    /// Self time of `layer` summed over all roots, ns.
    pub fn layer_total(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |v| v.iter().sum())
    }

    /// Median per-root self time of `layer`, ns (0 when absent).
    pub fn layer_median(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(v) if !v.is_empty() => stats::median_u64(v),
            _ => 0.0,
        }
    }

    /// Median root duration, ns (0 when there are no roots).
    pub fn root_median(&self, spans: &[Span]) -> f64 {
        let d: Vec<u64> = spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == self.root)
            .map(|s| s.end - s.start)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            stats::median_u64(&d)
        }
    }

    /// The reconciliation table: each layer's self time, the remainder,
    /// and their sum against the roots' total duration.
    pub fn table(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reconciliation {title}: {} traced `{}` roots",
            self.roots, self.root
        );
        let _ = writeln!(
            out,
            "  {:<26} {:>14} {:>8} {:>14}",
            "layer (self time)", "total_ms", "share", "median_us"
        );
        let mut sum = 0u64;
        let total = self.total_ns.max(1) as f64;
        let rows = self
            .layers
            .keys()
            .filter(|&&k| k != self.root)
            .chain(std::iter::once(&self.root));
        for &name in rows {
            let t = self.layer_total(name);
            sum += t;
            let label = if name == self.root {
                format!("remainder ({name})")
            } else {
                name.to_string()
            };
            let _ = writeln!(
                out,
                "  {label:<26} {:>14.3} {:>7.2}% {:>14.3}",
                t as f64 / 1e6,
                100.0 * t as f64 / total,
                self.layer_median(name) / 1e3
            );
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>14.3}   (traced end-to-end {:.3} ms)",
            "sum",
            sum as f64 / 1e6,
            self.total_ns as f64 / 1e6
        );
        out
    }
}

/// Splits every root named `root` into per-layer self times.
pub fn breakdown(spans: &[Span], root: &'static str) -> Breakdown {
    let selfs = self_times(spans);
    // Parents open before their children, so one forward pass finds every
    // span's root.
    let mut root_of = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = if s.parent == NO_PARENT {
            i as u32
        } else {
            root_of[s.parent as usize]
        };
    }
    let mut per_root: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut total_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let r = root_of[i];
        if spans[r as usize].name != root {
            continue;
        }
        if s.parent == NO_PARENT {
            total_ns += s.end - s.start;
        }
        *per_root.entry(r).or_default().entry(s.name).or_default() += selfs[i];
    }
    let mut layers: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for m in per_root.values() {
        for (&name, &t) in m {
            layers.entry(name).or_default().push(t);
        }
    }
    Breakdown {
        root,
        roots: per_root.len(),
        total_ns,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            req,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = [
            span(1, NO_PARENT, "req", 0, 100),
            span(1, 0, "a", 10, 40),
            span(1, 1, "a.inner", 15, 25),
            span(1, 0, "b", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn layers_plus_remainder_equal_the_end_to_end_time() {
        let spans = [
            span(1, NO_PARENT, "req", 0, 100),
            span(1, 0, "decode", 5, 45),
            span(1, 0, "classify", 50, 95),
            span(2, NO_PARENT, "shadow", 100, 130),
            span(3, NO_PARENT, "req", 200, 260),
            span(3, 4, "decode", 200, 230),
            span(3, 4, "classify", 230, 255),
        ];
        let b = breakdown(&spans, "req");
        assert_eq!(b.roots, 2);
        assert_eq!(b.total_ns, 160);
        assert_eq!(b.layer_total("decode"), 70);
        assert_eq!(b.layer_total("classify"), 70);
        assert_eq!(b.layer_total("req"), 20);
        let sum: u64 = b.layers.keys().map(|k| b.layer_total(k)).sum();
        assert_eq!(sum, b.total_ns);
        // The shadow root never counts toward the requests.
        assert!(!b.layers.contains_key("shadow"));
        assert_eq!(b.layer_median("decode"), 35.0);
        assert_eq!(b.root_median(&spans), 80.0);
    }

    #[test]
    fn recorder_nests_and_stops_at_its_cap() {
        let mut r = Recorder::new(true, 65);
        let root = r.root("req");
        let child = r.open("layer");
        r.close(child);
        r.close(root);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, 0);
        assert_eq!(r.spans()[1].req, r.spans()[0].req);
        // 2 + 64 > 65: no room for another root.
        assert!(!r.has_room());
        assert_eq!(r.root("req"), None);
        assert_eq!(r.open("orphan"), None);

        let mut off = Recorder::new(false, 1 << 20);
        let root = off.root("req");
        off.close(root);
        assert!(off.spans().is_empty());
    }
}

//! Percentiles and medians over latency samples.
//!
//! Percentiles are given in basis points of a percent (`9_990` is p99.9),
//! so the rank arithmetic stays in integers and never rounds the wrong way.

/// The nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p_bp / 100` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a percentile above 100%.
pub fn percentile(sorted: &[u64], p_bp: u32) -> u64 {
    sorted[rank(sorted.len(), p_bp) - 1]
}

/// The 1-based nearest rank of percentile `p_bp` among `n` samples.
///
/// # Panics
///
/// Panics when `n` is zero or `p_bp` exceeds `10_000`.
pub fn rank(n: usize, p_bp: u32) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p_bp <= 10_000, "percentile above 100%");
    let n = n as u64;
    let r = (u64::from(p_bp) * n).div_ceil(10_000);
    r.clamp(1, n) as usize
}

/// The median of a small sample (mean of the two middle values when the
/// count is even). Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile (`0.0..=1.0`) of a small sample, interpolated
/// linearly between the two nearest ranks. Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let h = (values.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    values[lo] + (h - lo as f64) * (values[hi] - values[lo])
}

/// The median of integer samples, via [`median`].
pub fn median_u64(values: &[u64]) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&mut v)
}

/// One window's request statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Requests completed in the window.
    pub requests: usize,
    /// Tail request latency at the stated percentile, ns.
    pub tail: u64,
    /// Requests per second of request-path time plus charged write time.
    pub rate: f64,
}

/// Request latencies summarised per fixed window of wall time.
///
/// A run is split into windows by when each request started; each window
/// yields a tail percentile and a rate. A run reports the median over its
/// windows of the tail, so that a burst of preemptions moves one window,
/// not the run, and the lower quartile of the rates. On a shared box whose
/// speed drops by up to half whenever a neighbour is busy, a statistic of
/// the middle of a run jumps with the share of busy time, which changes
/// from run to run, while the busy speed itself recurs in nearly every
/// run. A tail percentile sits at the busy speed whenever a few percent of
/// requests run there, and the slower quartile of the rates whenever a
/// quarter of the windows do. Writes the client waits for between requests can be
/// charged to a window's rate without entering its latencies. Only the
/// current window's samples are held, so memory does not grow with run
/// length.
#[derive(Debug)]
pub struct Windows {
    window_ns: u64,
    tail_bp: u32,
    current: u64,
    samples: Vec<u64>,
    /// Write time charged to the current window, ns.
    charged: u64,
    closed: Vec<Window>,
    /// Every untraced latency, kept only when `keep_all`.
    all: Option<Vec<u64>>,
}

impl Windows {
    /// Windows `window_ns` long with the tail at `tail_bp`; `keep_all`
    /// also keeps every sample (traced runs need whole-run medians).
    pub fn new(window_ns: u64, tail_bp: u32, keep_all: bool) -> Windows {
        Windows {
            window_ns: window_ns.max(1),
            tail_bp,
            current: 0,
            samples: Vec::new(),
            charged: 0,
            closed: Vec::new(),
            all: keep_all.then(Vec::new),
        }
    }

    /// Records a request that started `offset_ns` after the measurement
    /// began and took `ns`.
    pub fn record(&mut self, offset_ns: u64, ns: u64) {
        self.enter(offset_ns);
        self.samples.push(ns);
        if let Some(all) = self.all.as_mut() {
            all.push(ns);
        }
    }

    /// Charges a write that started `offset_ns` after the measurement
    /// began and took `ns` to its window's rate.
    pub fn charge(&mut self, offset_ns: u64, ns: u64) {
        self.enter(offset_ns);
        self.charged += ns;
    }

    /// Moves to the window holding `offset_ns`, closing the open one when
    /// it is another.
    fn enter(&mut self, offset_ns: u64) {
        let w = offset_ns / self.window_ns;
        if w != self.current {
            self.close();
            self.current = w;
        }
    }

    /// Closes the open window. Write time charged to a window without
    /// requests is dropped with it.
    pub fn close(&mut self) {
        let n = self.samples.len();
        if n > 0 {
            self.samples.sort_unstable();
            let busy = (self.samples.iter().sum::<u64>() + self.charged).max(1);
            self.closed.push(Window {
                requests: n,
                tail: percentile(&self.samples, self.tail_bp),
                rate: n as f64 * 1e9 / busy as f64,
            });
        }
        self.samples.clear();
        self.charged = 0;
    }

    /// Whether `w` is a full window: it holds at least half as many
    /// requests as the fullest one. A last window cut short by the
    /// deadline falls below that, and so does one that a long set-up
    /// between requests took most of.
    pub fn is_full(&self, w: &Window) -> bool {
        let most = self.closed.iter().map(|w| w.requests).max().unwrap_or(0);
        2 * w.requests >= most
    }

    /// The closed windows.
    pub fn windows(&self) -> &[Window] {
        &self.closed
    }

    /// Every untraced sample, when kept.
    pub fn all(&self) -> &[u64] {
        self.all.as_deref().unwrap_or_default()
    }

    /// Over the full windows: the median tail and the lower quartile of
    /// the rates, as `(tail ns, rate 1/s)`; `None` with no request at all.
    pub fn summary(&self) -> Option<(f64, f64)> {
        let used: Vec<&Window> = self.closed.iter().filter(|w| self.is_full(w)).collect();
        if used.is_empty() {
            return None;
        }
        let over = |f: fn(&Window) -> f64| used.iter().map(|w| f(w)).collect::<Vec<f64>>();
        let tail = median(&mut over(|w| w.tail as f64));
        let rate = quantile(&mut over(|w| w.rate), 0.25);
        Some((tail, rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 5_000), 500);
        assert_eq!(percentile(&s, 9_900), 990);
        assert_eq!(percentile(&s, 9_990), 999);
        assert_eq!(percentile(&s, 10_000), 1000);
        assert_eq!(percentile(&s, 0), 1);
        // 99.9% of 1001 samples is 999.999: the rank rounds up, never down.
        assert_eq!(rank(1001, 9_990), 1000);
        assert_eq!(percentile(&[7], 9_999), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&mut [4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&mut [4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&mut [7.0], 0.25), 7.0);
    }

    #[test]
    fn windows_split_by_start_time_and_report_the_slower_quartile() {
        // Five 1,000 ns windows of 20 requests each, slowed 1, 10, 1, 2
        // and 1 times. The tail median ignores the slow ones; the rate is
        // the slower quartile's, which is the twice-slowed window, not the
        // ten-times one.
        let mut w = Windows::new(1_000, 5_000, false);
        for (win, slow) in [1u64, 10, 1, 2, 1].into_iter().enumerate() {
            for k in 0..20u64 {
                w.record(win as u64 * 1_000 + k * 10, 10 * (k + 1) * slow);
            }
        }
        // A short last window (the deadline cut it) does not count.
        w.record(5_500, 5);
        w.close();
        assert_eq!(w.windows().len(), 6);
        assert!(!w.is_full(&w.windows()[5]));
        assert_eq!(w.windows()[0].tail, 100);
        assert_eq!(w.windows()[1].tail, 1_000);
        let (tail, rate) = w.summary().unwrap();
        assert_eq!(tail, 100.0);
        // 20 requests in 2 x 2,100 ns of request time.
        assert!((rate - 20.0 * 1e9 / 4_200.0).abs() < 1e-6);
        assert!(w.all().is_empty());
    }

    #[test]
    fn charged_writes_lower_the_rate_but_not_the_latencies() {
        let mut w = Windows::new(1_000, 5_000, true);
        for k in 0..10u64 {
            w.record(k * 10, 100);
        }
        w.charge(500, 1_000);
        // A charge in the next window opens it; one there without requests
        // is dropped.
        w.charge(1_500, 7_000);
        w.record(2_000, 100);
        w.close();
        let ws = w.windows();
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].requests, ws[0].tail), (10, 100));
        // 10 requests in 1,000 ns of requests + 1,000 ns of writes.
        assert!((ws[0].rate - 10.0 * 1e9 / 2_000.0).abs() < 1e-6);
        assert!((ws[1].rate - 1e9 / 100.0).abs() < 1e-6);
        assert_eq!(w.all().len(), 11);
    }

    #[test]
    fn only_a_window_cut_short_is_left_out() {
        let mut w = Windows::new(1_000, 9_000, true);
        assert!(w.summary().is_none());
        for k in 0..100u64 {
            w.record(k, k);
        }
        for k in 0..50u64 {
            w.record(1_000 + k, 1_000);
        }
        for k in 0..49u64 {
            w.record(2_000 + k, 5_000);
        }
        w.close();
        let ws = w.windows();
        assert!(w.is_full(&ws[0]) && w.is_full(&ws[1]) && !w.is_full(&ws[2]));
        // p90 of 0..=99 is 89; the median of 89 and 1,000.
        assert_eq!(w.summary().unwrap().0, 544.5);
        assert_eq!(w.all().len(), 199);
        // A run too short for a second window has one, and it counts.
        let mut w = Windows::new(u64::MAX, 9_000, false);
        w.record(0, 7);
        w.close();
        assert_eq!(w.summary().unwrap(), (7.0, 1e9 / 7.0));
    }
}

//! The repository's end-to-end benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>]` runs one workload as one closed-loop client on one
//! thread, from seeded inputs to checked outputs, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` the same workload runs at the same seed
//! with the span recorder on and the metrics are the per-layer ones, each
//! workload's reconciliation table (layer self times + remainder =
//! traced end-to-end time) and the tracing overhead. `--out-dir` receives
//! the spans and the table of a traced run.
//!
//! Workloads: `serve-uniform`, `serve-zipf-edit` (see `serve.rs`),
//! `fleet` (`fleet.rs`) and `diff` (`diff.rs`).

#![forbid(unsafe_code)]

mod check;
mod diff;
mod fleet;
mod gen;
mod serve;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Checker;
use span::{Breakdown, Recorder};

/// End-to-end metrics, reported on every workload with tracing off.
///
/// A request is what the client waits for: a batch or burst from wire
/// bytes to verdicts on the serving workloads, two policy texts to a
/// rendered report on `diff`. Edit batches are charged to their window's
/// `req_per_s`, so slower writes show as fewer requests per second;
/// onboardings are timed on their own and reported per layer. Request
/// statistics come from [`stats::Windows`]: `req_per_s` is the lower
/// quartile of the windows' rates and `req_tail_us` (at each workload's
/// stated percentile) the median over windows. There is no median
/// latency: on a shared 2-vCPU host a small request runs at one of two
/// speeds, as work beside it is idle or busy, and a run's median jumps
/// between them with the busy share (see the README). `setup_s` is the
/// upper quartile of repeated fresh set-ups spread over the run
/// ([`Setups`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_tail_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run; a layer a workload does not reach
/// reads 0. Times are per-operation medians of self time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.decode_us", "us"),
    ("batch.build_us", "us"),
    ("live.classify_us", "us"),
    ("kernel.classify_us", "us"),
    ("registry.classify_us", "us"),
    ("req.traced_us", "us"),
    ("req.remainder_us", "us"),
    ("tracing.overhead_us", "us"),
    ("tracing.overhead_pct", "%"),
    ("tracing.spans", "count"),
    ("cache.probes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.refill_misses", "count"),
    ("live.new_ms", "ms"),
    ("maintain.new_ms", "ms"),
    ("maintain.export_setup_ms", "ms"),
    ("compile.ms", "ms"),
    ("calibrate.ms", "ms"),
    ("calibrate.cache_elected", "flag"),
    ("live.apply_edits_ms", "ms"),
    ("live.apply_edits_p90_ms", "ms"),
    ("maintain.sweep_ms", "ms"),
    ("maintain.impact_ms", "ms"),
    ("maintain.compact_ms", "ms"),
    ("maintain.export_edit_ms", "ms"),
    ("recompile.splice_ms", "ms"),
    ("live.publish_ms", "ms"),
    ("maintain.sweep_levels", "count"),
    ("recompile.nodes_fresh", "count"),
    ("cache.invalidated", "count"),
    ("cache.epoch_bumps", "count"),
    ("registry.add_tenant_ms", "ms"),
    ("registry.add_tenant_p90_ms", "ms"),
    ("cons.chain_ms", "ms"),
    ("shared.ensure_ms", "ms"),
    ("registry.remove_tenant_ms", "ms"),
    ("registry.distinct_policies", "count"),
    ("registry.pool_nodes", "count"),
    ("registry.bytes_per_tenant", "B"),
    ("parse.ms", "ms"),
    ("fast.construct_ms", "ms"),
    ("product.align_ms", "ms"),
    ("product.extract_ms", "ms"),
    ("discrepancy.render_ms", "ms"),
    ("product.nodes", "count"),
    ("product.regions", "count"),
];

/// Wall-time window of the serving workloads' request statistics: long
/// enough that a window leaves about a hundred requests or more beyond its
/// tail percentile, and short enough for fifty windows in a 25 s run, so
/// that the lower quartile of their rates is read from a dozen of them
/// rather than from two or three. `diff` has its own.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Spans a traced run keeps at most (about 13 MiB).
pub const SPAN_CAP: usize = 400_000;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall time the measurement loop runs for.
    pub seconds: f64,
    /// Whether the span recorder is on.
    pub trace: bool,
    /// Fresh set-ups timed, spread over the run; `setup_s` is their upper
    /// quartile.
    pub setup_reps: usize,
}

/// When a workload's repeated fresh set-ups fall due: the first comes
/// before the measurement loop and is the one that serves, the rest fall
/// due evenly through the loop and are dropped once timed. Set-ups made
/// in one burst all see the machine at one moment; on a box whose speed
/// flips for seconds at a time, a run's `setup_s` would then be decided by
/// the speed at its start.
pub struct Setups {
    due: gen::Cadence,
    left: usize,
}

impl Setups {
    /// The in-loop set-ups of a run under `params`; the cadence starts
    /// now, so make it as the measurement loop begins.
    pub fn new(params: &Params) -> Setups {
        let reps = params.setup_reps.max(1);
        let period = Duration::from_secs_f64(params.seconds / reps as f64);
        Setups {
            due: gen::Cadence::new((reps > 1).then_some(period)),
            left: reps - 1,
        }
    }

    /// Whether another fresh set-up is due now; counts it when it is.
    pub fn due(&mut self) -> bool {
        if self.left > 0 && self.due.due() {
            self.left -= 1;
            true
        } else {
            false
        }
    }
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted, checked and failed.
    pub check: Checker,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Untraced request latencies, per window.
    pub lat: stats::Windows,
    /// Traced request latencies, ns (a traced run traces a fixed share
    /// of its requests).
    pub traced_req_ns: Vec<u64>,
    /// The stated tail percentile of request latency, basis points.
    pub tail_bp: u32,
    started: Instant,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    trace_table: Option<String>,
    recorder: Option<Recorder>,
}

impl Outcome {
    /// An empty outcome whose request statistics use windows `window`
    /// long and the tail at `tail_bp`.
    pub fn new(workload: &'static str, tail_bp: u32, window: Duration, params: &Params) -> Outcome {
        let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        Outcome {
            workload,
            check: Checker::default(),
            setup_s: Vec::new(),
            lat: stats::Windows::new(window_ns, tail_bp, params.trace),
            traced_req_ns: Vec::new(),
            tail_bp,
            started: Instant::now(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
            trace_table: None,
            recorder: None,
        }
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Marks the start of the measurement loop; request windows count
    /// from here.
    pub fn begin(&mut self) {
        self.started = Instant::now();
    }

    /// Records one completed request that started at `t0` and took `ns`.
    pub fn request(&mut self, t0: Instant, ns: u64, traced: bool) {
        if traced {
            self.traced_req_ns.push(ns);
        } else {
            let offset = t0.saturating_duration_since(self.started).as_nanos();
            self.lat
                .record(u64::try_from(offset).unwrap_or(u64::MAX), ns);
        }
    }

    /// Charges a write that started at `t0` and took `ns` to the request
    /// rate of its window: the client waited for it between requests.
    pub fn charge(&mut self, t0: Instant, ns: u64) {
        let offset = t0.saturating_duration_since(self.started).as_nanos();
        self.lat
            .charge(u64::try_from(offset).unwrap_or(u64::MAX), ns);
    }

    /// Closes the measurement loop's last window.
    pub fn end(&mut self) {
        self.lat.close();
    }

    /// Closes a traced run: the request path's remainder, the tracing
    /// overhead (traced minus untraced requests) and the reconciliation
    /// table; keeps the spans for writing out.
    pub fn finish_trace(&mut self, req: Breakdown, rec: Recorder) {
        self.layer("req.traced_us", req.root_median(rec.spans()) / 1e3);
        self.layer("req.remainder_us", req.layer_median("req") / 1e3);
        self.layer("tracing.spans", rec.spans().len() as f64);
        let mut table = req.table(self.workload);
        let (traced, untraced) = (self.traced_req_ns.len(), self.lat.all().len());
        if traced == 0 || untraced == 0 {
            table.push_str("tracing overhead: unmeasured (too few requests)\n");
        } else {
            let t = stats::median_u64(&self.traced_req_ns);
            let u = stats::median_u64(self.lat.all());
            self.layer("tracing.overhead_us", (t - u) / 1e3);
            self.layer("tracing.overhead_pct", 100.0 * (t - u) / u);
            let _ = writeln!(
                table,
                "tracing overhead: traced request median {:.3} us - untraced {:.3} us = {:.3} us ({:.2}%) over {} traced / {} untraced requests",
                t / 1e3,
                u / 1e3,
                (t - u) / 1e3,
                100.0 * (t - u) / u,
                traced,
                untraced
            );
        }
        self.trace_table = Some(table);
        self.recorder = Some(rec);
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    fn end_to_end(&self) -> Result<Vec<f64>, String> {
        if self.setup_s.is_empty() {
            return Err("no set-up completed".into());
        }
        let (tail, rate) = self
            .lat
            .summary()
            .ok_or("no window held enough requests for the tail percentile")?;
        Ok(vec![
            stats::quantile(&mut self.setup_s.clone(), 0.75),
            rate,
            tail / 1e3,
            peak_rss_mb().ok_or("peak RSS unreadable")?,
        ])
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The workloads, with their default set-up repetitions.
const WORKLOADS: &[(&str, usize)] = &[
    ("serve-uniform", 15),
    ("serve-zipf-edit", 15),
    ("fleet", 5),
    ("diff", 5),
];

/// Runs `workload` under `params`.
pub fn run(workload: &str, params: &Params) -> Result<Outcome, String> {
    match workload {
        "serve-uniform" => serve::run(&serve::UNIFORM, params),
        "serve-zipf-edit" => serve::run(&serve::ZIPF_EDIT, params),
        "fleet" => fleet::run(params),
        "diff" => diff::run(params),
        other => Err(format!("unknown workload {other}")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(check: &Checker, metrics: &[(&str, &str, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        check.failed == 0,
        check.attempted,
        check.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, setup_reps)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps,
    };
    let outcome = match run(&args.workload, &params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("{}: {line}", outcome.workload);
    }
    println!(
        "{}: {} operations attempted, {} checked, {} failed{}",
        outcome.workload,
        outcome.check.attempted,
        outcome.check.checked,
        outcome.check.failed,
        outcome
            .check
            .first_error()
            .map(|e| format!(" (first: {e})"))
            .unwrap_or_default()
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        if let Some(table) = &outcome.trace_table {
            print!("{table}");
        }
        if let (Some(dir), Some(rec)) = (&args.out_dir, &outcome.recorder) {
            let stem = format!("{}-seed{}", outcome.workload, args.seed);
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| rec.write_csv(&dir.join(format!("spans-{stem}.csv"))))
                .and_then(|()| {
                    std::fs::write(
                        dir.join(format!("reconcile-{stem}.txt")),
                        outcome.trace_table.as_deref().unwrap_or_default(),
                    )
                });
            if let Err(e) = written {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, outcome.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = match outcome.end_to_end() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", outcome.workload);
                return ExitCode::FAILURE;
            }
        };
        let lat = &outcome.lat;
        let per_window: Vec<String> = lat
            .windows()
            .iter()
            .map(|w| {
                format!(
                    "{}{}req/tail={:.3}us/{:.1}per_s",
                    if lat.is_full(w) { "" } else { "(short)" },
                    w.requests,
                    w.tail as f64 / 1e3,
                    w.rate
                )
            })
            .collect();
        println!(
            "{}: request windows: {}",
            outcome.workload,
            per_window.join(" ")
        );
        let counted = lat.windows().iter().filter(|w| lat.is_full(w));
        println!(
            "{}: over the {} full windows: req_per_s is the lower quartile of their rates, req_tail_us the median of their p{}; setup_s is the upper quartile of {} set-ups spread over the run",
            outcome.workload,
            counted.count(),
            f64::from(outcome.tail_bp) / 100.0,
            outcome.setup_s.len()
        );
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("perfbench: {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&outcome.check, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, trace: bool) -> Params {
        Params {
            seed,
            seconds: 0.3,
            trace,
            setup_reps: 2,
        }
    }

    #[test]
    fn every_workload_finishes_a_short_run_with_zero_failures() {
        for &(name, _) in WORKLOADS {
            for trace in [false, true] {
                let o = run(name, &quick(5, trace)).expect(name);
                assert!(o.check.attempted > 0, "{name}");
                assert!(o.check.checked > 0, "{name}");
                assert_eq!(o.check.failed, 0, "{name}: {:?}", o.check.first_error());
                if trace {
                    assert!(o.trace_table.is_some(), "{name}");
                } else {
                    assert_eq!(o.end_to_end().expect(name).len(), END_TO_END.len());
                }
            }
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut c = Checker::default();
        c.attempt();
        let line = result_line(&c, &[("setup_s", "s", 0.5), ("req_per_s", "1/s", 12.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"req_per_s\": {\"value\": 12.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let named = spec.matches("\"name\":").count();
        assert_eq!(named, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for &(name, _) in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}

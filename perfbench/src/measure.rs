//! The closed-loop driver and the metrics it reports.

use crate::trace::{profile_ops, OpProfile, Trace};
use crate::workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Rounds per run. Each round builds a fresh state (timed as one
/// set-up) and drives ops on it for its share of the run, so set-ups are
/// sampled across the whole run, not in one burst.
pub(crate) const ROUNDS: usize = 20;

/// Ops a run completes even past its deadline, so that p10 and p90 each
/// have at least ten samples beyond them.
pub(crate) const MIN_OPS: usize = 100;

/// The low quantile that wall-time figures report.
///
/// The host is shared, and other tenants slow this process's CPU by up
/// to ~1.8× in phases of one to several seconds. The median op then
/// falls on whichever phase held most of the run, and moved by 20–35%
/// between runs of the same code; the 10th percentile is the program's
/// speed on an uncontended CPU, which some phase of every run reaches.
pub(crate) const LOW_Q: f64 = 0.1;

/// End-to-end metrics (name, unit), reported by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p10_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_geomean", "cycles"),
];

/// Per-layer metrics (name, unit), reported by the traced run. A
/// `<span>_ms` metric is the median per op of that span's summed self
/// time; the others are derived in [`layer_value`]. A layer a workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.parse_ms", "ms"),
    ("frontend.source_bytes", "bytes"),
    ("sema.analyze_ms", "ms"),
    ("mir.lower_ms", "ms"),
    ("mir.optimize_ms", "ms"),
    ("mir.inline_ms", "ms"),
    ("vectorize.vectorize_ms", "ms"),
    ("vectorize.loops_vectorized", "count"),
    ("codegen.emit_ms", "ms"),
    ("codegen.c_bytes", "bytes"),
    ("asip.decode_ms", "ms"),
    ("asip.fuse_ms", "ms"),
    ("asip.run_base_ms", "ms"),
    ("asip.run_opt_ms", "ms"),
    ("asip.sim_cycles_base", "cycles"),
    ("asip.sim_cycles_opt", "cycles"),
    ("asip.ns_per_sim_cycle", "ns/cycle"),
    ("core.render_ms", "ms"),
    ("core.drop_ms", "ms"),
    ("asip.run_ms", "ms"),
    ("asip.runs", "count"),
    ("asip.run_us_per_call", "us"),
    ("benchkit.inputs_ms", "ms"),
    ("benchkit.reference_ms", "ms"),
    ("benchkit.check_ms", "ms"),
    ("explore.pareto_ms", "ms"),
    ("explore.profile_ms", "ms"),
    ("explore.fanout_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.frame_encode_ms", "ms"),
    ("serve.frame_decode_ms", "ms"),
    ("core.cache.lookup_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Spans of the simulator's run layer.
const RUN_SPANS: [&str; 3] = ["asip.run", "asip.run_base", "asip.run_opt"];

/// One op of the measured loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Wall time of the op (check excluded) in milliseconds.
    pub(crate) ms: f64,
    /// Whether the op was the traced replay.
    pub(crate) traced: bool,
    /// Whether the op succeeded and its output passed the check.
    pub(crate) ok: bool,
}

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted in the measured loop.
    pub attempted: usize,
    /// Ops that failed or whose output failed its check.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metrics, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per-op layer profiles of a traced run (empty otherwise).
    pub profiles: Vec<OpProfile>,
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile of `v` (0 when empty).
pub(crate) fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A fresh set-up followed by one warm-up op, which must pass its check.
///
/// # Errors
///
/// Fails when set-up or the warm-up op fails.
pub(crate) fn fresh<W: Workload>(seed: u64) -> Result<W, String> {
    let w = W::setup(seed)?;
    warm_conn(&w)?;
    Ok(w)
}

/// Opens a connection and runs one untimed warm-up op on it, which must
/// pass its check. A connection's first op is not in steady state: TCP
/// acknowledges a new connection's first segments at once, so its first
/// `serve_warm` request skips the delayed-ACK stall that every later
/// request waits for (~5 ms instead of ~88 ms).
///
/// # Errors
///
/// Fails when the connection cannot be opened or the op fails.
pub(crate) fn warm_conn<W: Workload>(w: &W) -> Result<W::Conn, String> {
    let mut conn = w.connect()?;
    let out = w.op(&mut conn)?;
    w.check(&out).map_err(|e| format!("warm-up op: {e}"))?;
    Ok(conn)
}

/// Runs ops back to back on [`Workload::CONNS`] warmed-up connections
/// for `seconds` and at least `min_ops` ops. With a trace, every second op
/// of each connection is the traced replay. Returns the samples and the
/// first failure messages.
///
/// # Errors
///
/// Fails when a connection cannot be opened or its warm-up op fails.
pub(crate) fn run_loop<W: Workload>(
    w: &W,
    seconds: f64,
    min_ops: usize,
    trace: Option<&Trace>,
) -> Result<(Vec<Sample>, Vec<String>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let done = AtomicUsize::new(0);
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = (0..W::CONNS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = warm_conn(w)?;
                    let (mut samples, mut failures) = (Vec::new(), Vec::new());
                    while Instant::now() < deadline || done.load(Ordering::Relaxed) < min_ops {
                        let traced = trace.is_some() && samples.len() % 2 == 1;
                        let t0 = Instant::now();
                        let out = match trace.filter(|_| traced) {
                            Some(t) => t.op(|ctx| w.traced_op(&mut conn, ctx)),
                            None => w.op(&mut conn),
                        };
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let verdict = out.and_then(|o| w.check(&o));
                        done.fetch_add(1, Ordering::Relaxed);
                        samples.push(Sample {
                            ms,
                            traced,
                            ok: verdict.is_ok(),
                        });
                        if let Err(e) = verdict {
                            if failures.len() < 5 {
                                failures.push(e);
                            }
                        }
                    }
                    Ok::<_, String>((samples, failures))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loop thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let (mut samples, mut failures) = (Vec::new(), Vec::new());
    for (s, f) in per_conn {
        samples.extend(s);
        failures.extend(f);
    }
    Ok((samples, failures))
}

/// The process's peak resident set (`VmHWM`) in MB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or malformed.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The value of per-layer metric `name` for one traced op.
pub(crate) fn layer_value(name: &str, p: &OpProfile) -> f64 {
    let run_ms: f64 = RUN_SPANS.iter().map(|s| p.ms(s)).sum();
    let runs: u64 = RUN_SPANS.iter().map(|s| p.calls(s)).sum();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    match name {
        "asip.run_ms" => run_ms,
        "asip.runs" => runs as f64,
        "asip.run_us_per_call" => per(run_ms * 1e3, runs as f64),
        "asip.ns_per_sim_cycle" => per(run_ms * 1e6, p.count("asip.sim_cycles")),
        "serve.transport_ms" => p.ms("serve.rtt") - p.ms("serve.handle"),
        "core.cache.hit_ratio" => {
            let hits = p.count("core.cache.hits");
            per(hits, hits + p.count("core.cache.misses"))
        }
        "trace.coverage" => p.coverage(),
        _ => match name.strip_suffix("_ms") {
            Some(span) => p.ms(span),
            None => p.count(name),
        },
    }
}

/// Runs workload `W` for `seconds`, split into [`ROUNDS`] rounds of a
/// fresh set-up and a measured loop. Untraced, it reports
/// [`END_TO_END`]; traced, [`PER_LAYER`].
///
/// # Errors
///
/// Fails when a set-up fails or a metric cannot be read.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: Option<&Trace>) -> Result<Report, String> {
    let (mut setups, mut samples, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    let mut sim_cycles = 0.0;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let w = fresh::<W>(seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        let round = seconds / ROUNDS as f64;
        let (s, f) = run_loop(&w, round, MIN_OPS.div_ceil(ROUNDS), trace)?;
        samples.extend(s);
        failures.extend(f);
        sim_cycles = w.sim_cycles_geomean();
        // The state (a running server) goes away before the next
        // round's timed set-up starts.
    }
    failures.truncate(5);
    let lat = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect()
    };
    let mut report = Report {
        attempted: samples.len(),
        failed: samples.iter().filter(|s| !s.ok).count(),
        failures,
        metrics: Vec::new(),
        profiles: Vec::new(),
    };
    match trace {
        None => {
            for &(name, unit) in END_TO_END {
                let value = match name {
                    "latency_p10_ms" => percentile(&lat(false), LOW_Q),
                    "latency_p90_ms" => percentile(&lat(false), 0.9),
                    "setup_s" => percentile(&setups, LOW_Q),
                    "peak_rss_mb" => peak_rss_mb()?,
                    "sim_cycles_geomean" => sim_cycles,
                    other => unreachable!("unlisted metric {other}"),
                };
                report.metrics.push((name, unit, value));
            }
        }
        Some(t) => {
            report.profiles = profile_ops(&t.spans(), &t.counts());
            let overhead = median(&lat(true)) / median(&lat(false));
            for &(name, unit) in PER_LAYER {
                let value = if name == "trace.overhead" {
                    overhead
                } else {
                    let per_op: Vec<f64> = report
                        .profiles
                        .iter()
                        .map(|p| layer_value(name, p))
                        .collect();
                    median(&per_op)
                };
                report.metrics.push((name, unit, value));
            }
        }
    }
    Ok(report)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
///
/// # Errors
///
/// Fails on a metric that is not a finite number.
pub fn result_json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit, value) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}

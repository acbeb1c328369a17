//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>.jsonl`.

use perfbench::measure::{self, median, Report};
use perfbench::trace::Trace;
use perfbench::workloads::{self, CompileCold, CyclesReport, DseSweep, ServeWarm};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            workloads::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Per-layer table of a traced run: median self time and calls per op.
fn print_layers(report: &Report) {
    let names: BTreeSet<&str> = report
        .profiles
        .iter()
        .flat_map(|p| p.self_ns.keys().copied())
        .collect();
    let op_ms = median(
        &report
            .profiles
            .iter()
            .map(|p| p.dur_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "{:<24} {:>12} {:>10} {:>8}",
        "span", "self ms/op", "calls/op", "share"
    );
    for name in names {
        let ms = median(
            &report
                .profiles
                .iter()
                .map(|p| p.ms(name))
                .collect::<Vec<_>>(),
        );
        let calls = median(
            &report
                .profiles
                .iter()
                .map(|p| p.calls(name) as f64)
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "{name:<24} {ms:>12.4} {calls:>10} {:>7.1}%",
            100.0 * ms / op_ms.max(1e-12)
        );
    }
    eprintln!("{:<24} {op_ms:>12.4}", "op (wall)");
}

fn run(args: &Args) -> Result<String, String> {
    let trace = args.trace.then(Trace::new);
    let t = trace.as_ref();
    let (seed, secs) = (args.seed, args.seconds);
    let report = match args.workload.as_str() {
        "compile_cold" => measure::run::<CompileCold>(seed, secs, t)?,
        "cycles_report" => measure::run::<CyclesReport>(seed, secs, t)?,
        "dse_sweep" => measure::run::<DseSweep>(seed, secs, t)?,
        "serve_warm" => measure::run::<ServeWarm>(seed, secs, t)?,
        other => unreachable!("unchecked workload {other}"),
    };
    for f in &report.failures {
        eprintln!("perfbench: failed op: {f}");
    }
    if let Some(t) = &trace {
        print_layers(&report);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.jsonl", args.workload));
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    for (name, unit, value) in &report.metrics {
        eprintln!("{name:<28} {value:>16.6} {unit}");
    }
    measure::result_json(&report)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

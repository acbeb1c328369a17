//! **Per-line cycle profiles** — generates and validates the
//! `matic-profile-v1` documents for the whole benchmark suite.
//!
//! Two modes:
//!
//! * `repro_profile` (no arguments): compiles each of the six benchmarks,
//!   runs the simulator with profiling enabled, and writes
//!   `profiles/<bench>.json`, then validates every document it wrote.
//! * `repro_profile a.json b.json ...`: validates existing documents (the
//!   CI job feeds it the files produced by `matic cycles --profile-json`).
//!
//! Validation is structural *and* arithmetic: the schema tag, field types,
//! per-line class breakdowns summing to the line's cycles, line cycles
//! summing to the document total, and fractions summing to 1. Exits
//! non-zero on the first malformed document.

use matic::{arg, Compiler, Cx, Matrix, OptLevel, SimVal, SourceMap, Ty, PROFILE_SCHEMA};
use matic_benchkit::{to_sim, Benchmark, SUITE};
use matic_explore::render_table;
use matic_isa::json::{parse, Json};
use matic_isa::OpClass;
use std::process::ExitCode;

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` missing or not a non-negative integer"))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("`{key}` missing or not a string"))
}

struct Summary {
    entry: String,
    target: String,
    total_cycles: u64,
    hot_line: u64,
    hot_fraction: f64,
}

/// Checks one `matic-profile-v1` document end to end.
fn validate(doc: &Json) -> Result<Summary, String> {
    let schema = get_str(doc, "schema")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{PROFILE_SCHEMA}`"));
    }
    let entry = get_str(doc, "entry")?.to_string();
    let target = get_str(doc, "target")?.to_string();
    if entry.is_empty() || target.is_empty() {
        return Err("`entry`/`target` must be non-empty".to_string());
    }
    let total_cycles = get_u64(doc, "total_cycles")?;
    let total_instructions = get_u64(doc, "total_instructions")?;
    let Some(Json::Arr(lines)) = doc.get("lines") else {
        return Err("`lines` missing or not an array".to_string());
    };

    let mut cycle_sum = 0u64;
    let mut instr_sum = 0u64;
    let mut frac_sum = 0.0f64;
    let mut hot_line = 0u64;
    let mut hot_fraction = 0.0f64;
    for (i, row) in lines.iter().enumerate() {
        let ctx = |e: String| format!("lines[{i}]: {e}");
        let line = get_u64(row, "line").map_err(ctx)?;
        get_str(row, "source").map_err(ctx)?;
        let cycles = get_u64(row, "cycles").map_err(ctx)?;
        let instructions = get_u64(row, "instructions").map_err(ctx)?;
        let fraction = row
            .get("fraction")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("lines[{i}]: `fraction` missing"))?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(format!("lines[{i}]: fraction {fraction} outside [0, 1]"));
        }
        let Some(Json::Obj(by_class)) = row.get("by_class") else {
            return Err(format!("lines[{i}]: `by_class` missing or not an object"));
        };
        let mut class_sum = 0u64;
        for (name, v) in by_class {
            if OpClass::from_snake(name).is_none() {
                return Err(format!("lines[{i}]: unknown op class `{name}`"));
            }
            class_sum += v
                .as_u64()
                .ok_or_else(|| format!("lines[{i}]: `{name}` cycles not an integer"))?;
        }
        if class_sum != cycles {
            return Err(format!(
                "lines[{i}]: class breakdown sums to {class_sum}, line says {cycles}"
            ));
        }
        let lane_elems = get_u64(row, "lane_elems").map_err(ctx)?;
        let lane_slots = get_u64(row, "lane_slots").map_err(ctx)?;
        match row.get("lane_utilization") {
            Some(Json::Null) if lane_slots == 0 => {}
            Some(Json::Num(u)) if lane_slots > 0 => {
                let expect = lane_elems as f64 / lane_slots as f64;
                if (u - expect).abs() > 1e-9 {
                    return Err(format!(
                        "lines[{i}]: lane_utilization {u} != {lane_elems}/{lane_slots}"
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "lines[{i}]: `lane_utilization` inconsistent with lane_slots"
                ))
            }
        }
        cycle_sum += cycles;
        instr_sum += instructions;
        frac_sum += fraction;
        if fraction > hot_fraction {
            hot_fraction = fraction;
            hot_line = line;
        }
    }
    if cycle_sum != total_cycles {
        return Err(format!(
            "line cycles sum to {cycle_sum}, document says {total_cycles}"
        ));
    }
    if instr_sum != total_instructions {
        return Err(format!(
            "line instructions sum to {instr_sum}, document says {total_instructions}"
        ));
    }
    if total_cycles > 0 && (frac_sum - 1.0).abs() > 1e-9 {
        return Err(format!("fractions sum to {frac_sum}, expected 1"));
    }
    Ok(Summary {
        entry,
        target,
        total_cycles,
        hot_line,
        hot_fraction,
    })
}

/// Signature and inputs for the canonical profile run of one benchmark.
/// FIR is profiled at 256 taps (not the suite default 64) — the
/// documented run where the MAC line crosses 90% attribution.
fn profile_args(b: &Benchmark) -> (Vec<Ty>, Vec<SimVal>) {
    if b.id == "fir" {
        let ramp = |n: usize| {
            let data: Vec<Cx> = (0..n)
                .map(|i| Cx::new((i % 7) as f64 * 0.25 - 0.5, 0.0))
                .collect();
            SimVal::Arr(Matrix::new(1, n, data))
        };
        return (
            vec![arg::vector(1024), arg::vector(256)],
            vec![ramp(1024), ramp(256)],
        );
    }
    let n = match b.id {
        "matmul" => 16,
        "fft" => 256,
        _ => 512,
    };
    (b.arg_types(n), b.inputs(n, 7).iter().map(to_sim).collect())
}

fn generate() -> Result<Vec<String>, String> {
    std::fs::create_dir_all("profiles").map_err(|e| format!("mkdir profiles: {e}"))?;
    let mut paths = Vec::new();
    for b in SUITE {
        let (tys, inputs) = profile_args(b);
        let compiled = Compiler::new()
            .opt_level(OptLevel::full())
            .compile(b.source, b.entry, &tys)
            .map_err(|e| format!("{}: compile failed: {e}", b.id))?;
        let outcome = compiled
            .simulator()
            .with_profiling(true)
            .run(inputs)
            .map_err(|e| format!("{}: simulation failed: {e}", b.id))?;
        let profile = outcome.profile.expect("profiling was enabled");
        let map = SourceMap::new(b.source);
        let doc = profile.to_json(&map, &compiled.entry, &compiled.spec.name);
        let path = format!("profiles/{}.json", b.id);
        std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{path}: {e}"))?;
        paths.push(path);
    }
    Ok(paths)
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        args = generate()?;
        println!(
            "generated {} profile documents under profiles/\n",
            args.len()
        );
    }
    let mut rows = Vec::new();
    for path in &args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let s = validate(&doc).map_err(|e| format!("{path}: {e}"))?;
        rows.push(vec![
            path.clone(),
            s.entry,
            s.target,
            s.total_cycles.to_string(),
            format!("{} ({:.1}%)", s.hot_line, 100.0 * s.hot_fraction),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["document", "entry", "target", "cycles", "hottest line"],
            &rows
        )
    );
    println!("{} documents valid ({PROFILE_SCHEMA})", args.len());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_profile: {e}");
            ExitCode::FAILURE
        }
    }
}

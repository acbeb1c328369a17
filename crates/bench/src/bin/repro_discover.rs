//! **Guided ISA discovery** — runs the full-budget custom-instruction
//! search seeded from the committed exploration frontier and writes the
//! `matic-discover-v2` report.
//!
//! Modes:
//!
//! * `repro_discover`: full budget over every frontier benchmark; writes
//!   `DISCOVER_report.json`.
//! * `repro_discover --quick`: the reduced CI budget.
//! * `repro_discover --json <path>`: output path override.
//!
//! The binary is self-validating twice over. After writing the document
//! it re-reads and structurally validates it
//! ([`matic_discover::validate_discover_json`] enforces the acceptance
//! bar: some winner must dominate its committed best and beat every
//! committed frontier point on cycles). Then every *dominating* winner
//! is independently re-verified: a fresh, uncached compile of the
//! benchmark, the fused rewrite re-applied, the winning spec rebuilt
//! from its *serialized* form, and a full-fuel simulation that must
//! reproduce the reported cycle count bit-for-bit and match the
//! reference interpreter's outputs. Any violation exits non-zero.

use matic::Compiler;
use matic_asip::AsipMachine;
use matic_benchkit::{benchmark, to_sim};
use matic_discover::{discover, rewrite_with, BenchDiscovery, DiscoverConfig};
use matic_explore::check_outputs;
use matic_isa::IsaSpec;
use std::process::ExitCode;
use std::sync::Arc;

/// Re-simulates one winner from scratch and checks the recorded numbers.
fn reverify(b: &BenchDiscovery, stimulus_seed: u64) -> Result<(), String> {
    let bench = benchmark(&b.bench).ok_or_else(|| format!("unknown bench `{}`", b.bench))?;
    let compiled = Compiler::new()
        .compile(bench.source, bench.entry, &bench.arg_types(b.n))
        .map_err(|e| format!("{}: fresh compile failed: {e}", b.bench))?;
    // Round-trip the spec through its serialized form — the report's
    // embedded copy must be sufficient to rebuild the winning target.
    let spec = IsaSpec::from_json(&b.winner.spec.to_json())
        .map_err(|e| format!("{}: winner spec does not round-trip: {e}", b.bench))?;
    let inputs: Vec<_> = bench
        .inputs(b.n, stimulus_seed)
        .iter()
        .map(to_sim)
        .collect();
    let outcome = match &b.winner.fused {
        Some(f) => {
            let (mir, sites) = rewrite_with(&compiled.mir, f.fop);
            if sites != f.sites {
                return Err(format!(
                    "{}: fused rewrite found {sites} sites, report says {}",
                    b.bench, f.sites
                ));
            }
            AsipMachine::from_shared(Arc::new(spec))
                .load(&mir, bench.entry)
                .run(inputs)
        }
        None => compiled.simulator_for(Arc::new(spec)).run(inputs),
    }
    .map_err(|e| format!("{}: winner re-simulation failed: {e}", b.bench))?;
    let reference = bench
        .reference_outputs(&bench.inputs(b.n, stimulus_seed))
        .map_err(|e| format!("{}: {e}", b.bench))?;
    check_outputs(&outcome.outputs, &reference)
        .map_err(|e| format!("{}: winner outputs drifted: {e}", b.bench))?;
    if outcome.cycles.total != b.winner.cycles {
        return Err(format!(
            "{}: winner re-simulates to {} cycles, report says {}",
            b.bench, outcome.cycles.total, b.winner.cycles
        ));
    }
    if b.winner.cycles >= b.committed_best.cycles && b.winner.area >= b.committed_best.area {
        return Err(format!(
            "{}: recorded winner does not actually dominate the committed best",
            b.bench
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = "DISCOVER_report.json".to_string();
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => {
                path = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--json expects a path".to_string())?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let frontier = std::fs::read_to_string("EXPLORE_frontier.json")
        .map_err(|e| format!("cannot read EXPLORE_frontier.json: {e}"))?;
    let cfg = if quick {
        DiscoverConfig::quick(&frontier)
    } else {
        DiscoverConfig::new(&frontier)
    };
    let result = discover(&cfg)?;

    print!("{}", result.render_text());

    let mut text = result.to_json().pretty();
    text.push('\n');
    std::fs::write(&path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("\nwrote {path}");

    // Trust nothing: re-read what was written, validate it structurally,
    // then re-verify every dominating winner from a fresh compile.
    let written = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    matic_discover::validate_discover_json(&written)
        .map_err(|e| format!("emitted document failed validation ({path}): {e}"))?;
    let mut dominating = 0;
    for b in &result.benches {
        if b.winner.dominates_committed_best && b.winner.beats_every_frontier_point_on_cycles {
            reverify(b, result.stimulus_seed)?;
            dominating += 1;
        }
    }
    println!(
        "validated {path}: {} benchmarks, {dominating} dominating winner(s) re-verified \
         from fresh compiles ({})",
        result.benches.len(),
        matic_discover::DISCOVER_SCHEMA,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_discover: {e}");
            ExitCode::FAILURE
        }
    }
}

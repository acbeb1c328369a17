//! **Design-space exploration** — sweeps the candidate-ISA grid over the
//! benchmark suite and reports the cycles-vs-area Pareto frontiers.
//!
//! Modes:
//!
//! * `repro_explore`: the full default grid (70 candidates) over all six
//!   benchmarks at exploration problem sizes; writes
//!   `EXPLORE_frontier.json`.
//! * `repro_explore --quick`: the reduced CI grid (8 candidates).
//! * `repro_explore --json <path>`: output path override.
//!
//! Every cell is priced from one simulation of its distinct machine;
//! stderr reports how many simulations priced how many cells.
//!
//! The binary is self-validating: after writing the document it re-reads
//! and structurally validates it ([`matic_explore::validate_explore_json`]
//! recomputes every frontier from the raw points), and asserts the
//! paper's headline qualitative result — wherever accelerated candidates
//! exist, the best of them strictly outperforms the pure scalar baseline
//! on cycles. Any violation exits non-zero.

use matic_explore::{explore, ExploreConfig, GridConfig, EXPLORE_SCHEMA};
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExploreConfig::default();
    let mut path = "EXPLORE_frontier.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.grid = GridConfig::quick(),
            "--json" => {
                path = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--json expects a path".to_string())?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let result = explore(&cfg)?;
    eprintln!(
        "{} cells priced from {} simulations",
        result.benches.len() * result.candidates.len(),
        result.simulations()
    );
    print!("{}", result.render_text());
    let mut text = result.to_json().pretty();
    text.push('\n');
    std::fs::write(&path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("\nwrote {path}");

    // Trust nothing: re-read what was written and validate structurally.
    let written = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let summary = matic_explore::validate_explore_json(&written)
        .map_err(|e| format!("emitted document failed validation ({path}): {e}"))?;
    if !summary.scalar_outperformed {
        return Err(
            "scalar baseline was not outperformed by any accelerated candidate — \
             the acceleration result regressed"
                .to_string(),
        );
    }
    println!(
        "validated {path}: {} benchmarks x {} candidates, frontiers {:?} ({EXPLORE_SCHEMA})",
        summary.benchmarks,
        summary.candidates,
        summary
            .frontier_sizes
            .iter()
            .map(|(b, k)| format!("{b}:{k}"))
            .collect::<Vec<_>>(),
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_explore: {e}");
            ExitCode::FAILURE
        }
    }
}

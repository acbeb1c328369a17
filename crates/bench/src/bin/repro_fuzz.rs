//! **Continuous differential verification** — the long-running,
//! parallel front end of the `matic-fuzz` harness.
//!
//! Sweeps `--cases` seeded random programs through all five execution
//! legs (interpreter, simulator at opt and base, tree-walk, compiled C),
//! mixing in mutated ISA design-space points, and reports the grammar
//! coverage table plus the C-leg skip accounting. Any disagreement is
//! delta-debugged to a minimal repro and written into the regression
//! corpus directory, ready to be committed.
//!
//! Modes:
//!
//! * `repro_fuzz`: 150 cases on the default seed.
//! * `repro_fuzz --cases N --seed S`: a fixed-seed sweep (CI runs 500).
//! * `repro_fuzz --corpus <dir>`: where shrunk repros of disagreements
//!   are written (default `tests/regressions`).
//! * `repro_fuzz --coverage <path>`: also write the coverage table to a
//!   file (CI uploads it as an artifact).
//! * `repro_fuzz --no-c`: skip the C leg.
//! * `repro_fuzz --require-c`: fail if the C leg executed zero cases.
//!
//! `MATIC_FUZZ_CASES` / `MATIC_FUZZ_SEED` / `MATIC_FUZZ_REQUIRE_C` are
//! honoured as defaults; flags win. Case `i` is fully determined by
//! `(seed, i)`, so the parallel sweep, a sequential run, and a replay of
//! one index all see identical populations, and the whole run is
//! reproducible from the two numbers printed in its first line.

use matic_explore::par_map;
use matic_fuzz::{
    mutate_spec, run_index, shrink_disagreement, write_repro, CaseStatus, Inject, RunOptions,
    SweepConfig, SweepStats,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let mut cfg = SweepConfig::from_env();
    let mut corpus_dir = PathBuf::from("tests/regressions");
    let mut coverage_path: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} expects a value"))
        };
        match a.as_str() {
            "--cases" => cfg.cases = value("--cases")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--corpus" => corpus_dir = PathBuf::from(value("--corpus")?),
            "--coverage" => coverage_path = Some(PathBuf::from(value("--coverage")?)),
            "--no-c" => cfg.opts.with_c = false,
            "--require-c" => cfg.require_c = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    println!(
        "repro_fuzz: {} cases, seed {}, mutate every {}, C leg {}",
        cfg.cases,
        cfg.seed,
        cfg.mutate_every,
        if cfg.opts.with_c { "on" } else { "off" },
    );

    let indices: Vec<u64> = (0..cfg.cases).collect();
    let outcomes = par_map(&indices, |&i| run_index(&cfg, i));

    let mut stats = SweepStats::default();
    for out in &outcomes {
        stats.record(out);
    }
    print!("{}", stats.render_summary());

    if let Some(path) = &coverage_path {
        std::fs::write(path, stats.render_summary())
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    // Shrink every disagreement to a minimal repro and persist it.
    let mut repros = 0usize;
    for out in &outcomes {
        let CaseStatus::Disagree { leg, detail } = &out.status else {
            continue;
        };
        // Re-derive the exact spec this index ran on (deterministic).
        let mut rng = matic_fuzz::case_rng(cfg.seed, out.index);
        let _ = matic_fuzz::gen_case(&mut rng);
        let spec = if out.mutated {
            mutate_spec(&mut rng)
        } else {
            matic::IsaSpec::dsp16()
        };
        let opts = RunOptions {
            inject: Inject::None,
            ..cfg.opts.clone()
        };
        let min = shrink_disagreement(&out.case, &spec, &opts);
        let note_seed = format!(
            "found by repro_fuzz seed {} case {} on spec `{}`",
            cfg.seed, out.index, spec.name
        );
        let note_leg = format!("leg {leg} disagreed: {detail}");
        let path = write_repro(
            &corpus_dir,
            &min.to_source(),
            &[note_seed.as_str(), note_leg.as_str()],
        )
        .map_err(|e| format!("cannot write repro: {e}"))?;
        println!("shrunk case {} -> {}", out.index, path.display());
        repros += 1;
    }

    if cfg.require_c && stats.c_ran == 0 {
        return Err(format!(
            "--require-c: the C leg executed zero cases (skips: {} no-compiler, \
             {} non-terminating, {} by-config)",
            stats.c_skipped_no_compiler, stats.c_skipped_nonterminating, stats.c_skipped_by_config,
        ));
    }
    if !stats.failures.is_empty() {
        return Err(format!(
            "{} of {} cases failed; {repros} minimal repros written to {}",
            stats.failures.len(),
            cfg.cases,
            corpus_dir.display(),
        ));
    }
    println!("all {} cases agreed on every leg", cfg.cases);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_fuzz: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Full-pipeline differential fuzzing, driven by the `matic-fuzz`
//! harness: generate well-typed random MATLAB programs and require that
//! every execution engine agrees on the *outcome* — both successful
//! outputs and error outcomes (out-of-bounds reads, fuel exhaustion).
//!
//! Five legs per program (see `matic_fuzz::legs`): the reference
//! interpreter, the ASIP simulator at full optimization and at the
//! scalar baseline, the simulator's tree-walking reference semantics, and
//! the generated C compiled with `-DMATIC_BOUNDS_CHECK`.
//!
//! On top of the original agreement sweep this run:
//!
//! - mixes in randomly *mutated ISA specs* (every 4th case), checking the
//!   agreement property across the retargeting axis;
//! - prints the grammar coverage table and the C-leg skip accounting at
//!   the end (a skipped C leg is counted, never silent);
//! - honours `MATIC_FUZZ_REQUIRE_C=1`, failing the sweep when the C leg
//!   executed zero cases (CI sets this so a missing compiler can't
//!   silently narrow coverage to the simulators).
//!
//! Case count and seed are env-tunable (`MATIC_FUZZ_CASES`,
//! `MATIC_FUZZ_SEED`) so CI can run a larger fixed-seed smoke without
//! slowing local `cargo test`.

use matic_fuzz::{host_cc, run_index, CaseStatus, SweepConfig, SweepStats};

#[test]
fn all_engines_agree_on_random_programs() {
    if host_cc().is_none() {
        eprintln!("note: no C compiler found; running without the C leg");
    }
    let mut cfg = SweepConfig::from_env();
    if std::env::var("MATIC_FUZZ_CASES").is_err() {
        cfg.cases = 64;
    }
    let mut stats = SweepStats::default();
    for i in 0..cfg.cases {
        let out = run_index(&cfg, i);
        stats.record(&out);
        if out.status != CaseStatus::Agree {
            panic!(
                "case {i} on spec `{}` failed: {:?}\n--- program ---\n{}",
                out.spec_name,
                out.status,
                out.case.render()
            );
        }
    }
    eprintln!("{}", stats.render_summary());
    assert!(
        stats.coverage.blind_spots().is_empty() || cfg.cases < 256,
        "large sweep left grammar blind spots: {:?}",
        stats.coverage.blind_spots()
    );
    assert!(stats.mutated_runs > 0, "no case ran on a mutated ISA spec");
    if cfg.require_c {
        assert!(
            stats.c_ran > 0,
            "MATIC_FUZZ_REQUIRE_C=1 but the C leg executed zero cases \
             (skips: {} no-compiler, {} non-terminating, {} by-config)",
            stats.c_skipped_no_compiler,
            stats.c_skipped_nonterminating,
            stats.c_skipped_by_config,
        );
    }
}

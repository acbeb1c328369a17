//! `matic-fuzz` — the coverage-driven differential verification harness.
//!
//! Pulls the whole toolchain through randomized cross-checking:
//! structured random programs ([`gen`]) run on all five execution legs
//! ([`legs`]) over both the default ISA and randomly mutated design-space
//! points ([`mutate`]); every case's grammar constructs are recorded into
//! a coverage table ([`coverage`]); a disagreement is delta-debugged to a
//! minimal repro ([`shrink`]) and persisted to the regression corpus
//! ([`corpus`]).
//!
//! The sweep driver here is deliberately *indexable*: case `i` of a
//! seeded sweep is fully determined by `(seed, i)` via [`rng::case_rng`],
//! so a parallel `par_map` sweep, a sequential test sweep, and a replay
//! of one failing index all see byte-identical populations.

pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod legs;
pub mod mutate;
pub mod rng;
pub mod shrink;

pub use corpus::{load_dir, parse_repro, render_repro, repro_filename, write_repro};
pub use coverage::{constructs_of, Construct, Coverage};
pub use gen::{gen_case, Case, Fault, SourceCase, ENTRY};
pub use legs::{
    check_expected_fault, run_case, CStatus, CaseReport, Inject, Outcome, RunOptions, Verdict,
    DEFAULT_FUEL, TOL,
};
pub use matic_codegen::host_cc;
pub use mutate::{mutate_spec, IsaMutation};
pub use rng::{case_rng, Rng};
pub use shrink::{measure, shrink};

use matic::IsaSpec;

/// Configuration of one seeded sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of cases.
    pub cases: u64,
    /// Sweep seed; case `i` derives its own RNG from `(seed, i)`.
    pub seed: u64,
    /// Every `mutate_every`-th case runs on a freshly mutated ISA spec
    /// instead of the default target (`0` disables mutation).
    pub mutate_every: u64,
    /// Fail the sweep when the C leg executed zero cases.
    pub require_c: bool,
    /// Per-case run options.
    pub opts: RunOptions,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            cases: 150,
            seed: 0xA51C,
            mutate_every: 4,
            require_c: false,
            opts: RunOptions::default(),
        }
    }
}

impl SweepConfig {
    /// Reads the environment overrides shared by the test suite, the CI
    /// jobs, and the `repro_fuzz` binary: `MATIC_FUZZ_CASES`,
    /// `MATIC_FUZZ_SEED`, `MATIC_FUZZ_REQUIRE_C`.
    pub fn from_env() -> SweepConfig {
        let mut cfg = SweepConfig::default();
        if let Some(cases) = env_u64("MATIC_FUZZ_CASES") {
            cfg.cases = cases;
        }
        if let Some(seed) = env_u64("MATIC_FUZZ_SEED") {
            cfg.seed = seed;
        }
        if std::env::var("MATIC_FUZZ_REQUIRE_C").is_ok_and(|v| v == "1") {
            cfg.require_c = true;
        }
        cfg
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Everything one sweep index produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The sweep index.
    pub index: u64,
    /// The generated case.
    pub case: Case,
    /// Name of the ISA spec the case ran on.
    pub spec_name: String,
    /// Whether the spec was a mutated design-space point.
    pub mutated: bool,
    /// Whether/why the C leg ran.
    pub c_status: CStatus,
    /// The oracle's judgement.
    pub status: CaseStatus,
}

/// The oracle's judgement of one sweep index.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseStatus {
    /// All legs agreed and the expected outcome class held.
    Agree,
    /// A leg diverged from the reference interpreter.
    Disagree {
        /// The diverging leg's label.
        leg: String,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// The pipeline itself failed (compile error, harness trouble) —
    /// infrastructure, not an engine divergence, but never silent.
    Infra(String),
}

/// Runs sweep index `i`: derives the case and (possibly mutated) spec
/// from `(cfg.seed, i)`, runs every leg, and classifies the result.
/// Deterministic and side-effect-free, hence safe under `par_map`.
pub fn run_index(cfg: &SweepConfig, i: u64) -> CaseOutcome {
    let mut rng = case_rng(cfg.seed, i);
    let case = gen_case(&mut rng);
    let mutated = cfg.mutate_every > 0 && (i + 1).is_multiple_of(cfg.mutate_every);
    let spec = if mutated {
        mutate_spec(&mut rng)
    } else {
        IsaSpec::dsp16()
    };
    let source = case.to_source();
    let (status, c_status) = match run_case(&source, &spec, &cfg.opts) {
        Err(e) => (CaseStatus::Infra(e), CStatus::SkippedByConfig),
        Ok(report) => {
            let status = if let Err(e) = check_expected_fault(&source, &report) {
                CaseStatus::Infra(format!("generator expectation violated: {e}"))
            } else {
                match report.verdict() {
                    Verdict::Agree => CaseStatus::Agree,
                    Verdict::Disagree { leg, detail } => CaseStatus::Disagree { leg, detail },
                }
            };
            (status, report.c_status)
        }
    };
    CaseOutcome {
        index: i,
        case,
        spec_name: spec.name.clone(),
        mutated,
        c_status,
        status,
    }
}

/// Shrinks a disagreeing case to a minimal one that still disagrees
/// under the same spec and options. The predicate re-runs the candidate
/// end to end, so the result is a true minimal repro, not a syntactic
/// guess.
pub fn shrink_disagreement(case: &Case, spec: &IsaSpec, opts: &RunOptions) -> Case {
    let still_fails = |cand: &Case| {
        matches!(
            run_case(&cand.to_source(), spec, opts).map(|r| r.verdict()),
            Ok(Verdict::Disagree { .. })
        )
    };
    shrink(case, &still_fails)
}

/// Aggregated statistics of a sweep, mergeable across parallel shards.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Grammar coverage over the generated population.
    pub coverage: Coverage,
    /// Cases whose C leg compiled and executed.
    pub c_ran: u64,
    /// Cases skipped because no host C compiler exists.
    pub c_skipped_no_compiler: u64,
    /// Cases skipped because the program does not terminate.
    pub c_skipped_nonterminating: u64,
    /// Cases skipped by configuration.
    pub c_skipped_by_config: u64,
    /// Cases that ran on a mutated ISA spec.
    pub mutated_runs: u64,
    /// `(index, summary)` of every non-agreeing case.
    pub failures: Vec<(u64, String)>,
}

impl SweepStats {
    /// Records one outcome.
    pub fn record(&mut self, out: &CaseOutcome) {
        self.coverage.record(&out.case, out.mutated);
        match out.c_status {
            CStatus::Ran => self.c_ran += 1,
            CStatus::SkippedNoCompiler => self.c_skipped_no_compiler += 1,
            CStatus::SkippedNonTerminating => self.c_skipped_nonterminating += 1,
            CStatus::SkippedByConfig => self.c_skipped_by_config += 1,
        }
        if out.mutated {
            self.mutated_runs += 1;
        }
        match &out.status {
            CaseStatus::Agree => {}
            CaseStatus::Disagree { leg, detail } => self
                .failures
                .push((out.index, format!("leg {leg} disagreed: {detail}"))),
            CaseStatus::Infra(e) => self.failures.push((out.index, format!("infra: {e}"))),
        }
    }

    /// Merges a shard (parallel sweeps).
    pub fn merge(&mut self, other: &SweepStats) {
        self.coverage.merge(&other.coverage);
        self.c_ran += other.c_ran;
        self.c_skipped_no_compiler += other.c_skipped_no_compiler;
        self.c_skipped_nonterminating += other.c_skipped_nonterminating;
        self.c_skipped_by_config += other.c_skipped_by_config;
        self.mutated_runs += other.mutated_runs;
        self.failures.extend(other.failures.iter().cloned());
        self.failures.sort_by_key(|(i, _)| *i);
    }

    /// Renders the end-of-run summary: coverage table, C-leg accounting,
    /// mutation accounting, failures.
    pub fn render_summary(&self) -> String {
        let mut out = self.coverage.render_table();
        out.push_str(&format!(
            "C leg: ran {} | skipped: {} no-compiler, {} non-terminating, {} by-config\n\
             mutated-ISA runs: {}\n",
            self.c_ran,
            self.c_skipped_no_compiler,
            self.c_skipped_nonterminating,
            self.c_skipped_by_config,
            self.mutated_runs,
        ));
        if self.failures.is_empty() {
            out.push_str("failures: none\n");
        } else {
            out.push_str(&format!("failures: {}\n", self.failures.len()));
            for (i, msg) in &self.failures {
                out.push_str(&format!("  case {i}: {msg}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_index_is_deterministic() {
        let cfg = SweepConfig {
            cases: 4,
            seed: 77,
            mutate_every: 2,
            require_c: false,
            opts: RunOptions {
                with_c: false,
                ..RunOptions::default()
            },
        };
        let a = run_index(&cfg, 3);
        let b = run_index(&cfg, 3);
        assert_eq!(a.case, b.case);
        assert_eq!(a.spec_name, b.spec_name);
        assert_eq!(a.status, b.status);
        assert!(a.mutated, "index 3 with mutate_every=2 is a mutated run");
        assert!(!run_index(&cfg, 2).mutated);
    }

    #[test]
    fn sweep_stats_merge_matches_sequential() {
        let cfg = SweepConfig {
            mutate_every: 3,
            opts: RunOptions {
                with_c: false,
                ..RunOptions::default()
            },
            ..SweepConfig::default()
        };
        let outs: Vec<_> = (0..10).map(|i| run_index(&cfg, i)).collect();
        let mut seq = SweepStats::default();
        for o in &outs {
            seq.record(o);
        }
        let (mut left, mut right) = (SweepStats::default(), SweepStats::default());
        for (i, o) in outs.iter().enumerate() {
            if i % 2 == 0 {
                left.record(o);
            } else {
                right.record(o);
            }
        }
        left.merge(&right);
        assert_eq!(left.coverage, seq.coverage);
        assert_eq!(left.c_ran, seq.c_ran);
        assert_eq!(left.failures.len(), seq.failures.len());
        let summary = seq.render_summary();
        assert!(summary.contains("C leg: ran"));
        assert!(summary.contains("mutated-ISA runs:"));
    }

    #[test]
    fn from_env_reads_overrides() {
        // Serialize env mutation against other tests via a local lock.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        std::env::set_var("MATIC_FUZZ_CASES", "42");
        std::env::set_var("MATIC_FUZZ_SEED", "9");
        std::env::set_var("MATIC_FUZZ_REQUIRE_C", "1");
        let cfg = SweepConfig::from_env();
        assert_eq!(cfg.cases, 42);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.require_c);
        std::env::remove_var("MATIC_FUZZ_CASES");
        std::env::remove_var("MATIC_FUZZ_SEED");
        std::env::remove_var("MATIC_FUZZ_REQUIRE_C");
        let cfg = SweepConfig::from_env();
        assert_eq!(cfg.cases, SweepConfig::default().cases);
        assert!(!cfg.require_c);
    }
}

//! # matic-discover
//!
//! Guided ISA search and automatic custom-instruction discovery: *what
//! should the ASIP's next instruction be?*
//!
//! [`matic-explore`](matic_explore) sweeps a fixed grid of candidate
//! ISAs and reports the cycles-vs-area Pareto frontier. This crate picks
//! up where the grid stops, in two coupled moves:
//!
//! 1. **Guided design-space search** ([`search`], [`runner`]): a
//!    simulated-annealing walk over [`IsaSpec`](matic::IsaSpec)
//!    mutations — SIMD width, feature-family toggles, per-op cost
//!    perturbations — seeded from a committed `matic-explore-v1`
//!    frontier document and driven entirely by *re-simulation* of the
//!    benchmark (never by the cost model alone). Every evaluation is
//!    fuel-bounded (early abandon for pathological points), memoized by
//!    the whole (spec, fused-instruction choice) pair, and
//!    bit-reproducible from the run seed via the
//!    same splitmix64 indexing the fuzz harness uses
//!    ([`matic_fuzz::case_rng`]).
//! 2. **Custom-instruction mining** ([`mine`]): recurring connected
//!    two-op scalar subgraphs of the optimized MIR (`t = a ∘ b; d = t ∘
//!    c` chains with a single-use intermediate) are enumerated, weighted
//!    by profiler cycle attribution, and fused into one synthetic
//!    [`FusedOp`](matic_isa::FusedOp) instruction. The rewrite is
//!    *executed*, not estimated: the fused builtin runs through the same
//!    simulator as every other op, charging one `fused` issue on targets
//!    that price it and the exact unfused component costs everywhere
//!    else — so an unfused target's cycle count is bit-identical to the
//!    unrewritten program.
//!
//! Everything else is [`matic_explore`]'s: the seed document's reader,
//! grid, fuel budget and area model, and the output check, so the sweep
//! and the search share one machine model. A winner is only reported as
//! *dominating* when it strictly Pareto-dominates the committed best
//! point of the frontier it was seeded from **and** beats every committed
//! frontier point on cycles — both facts re-checked by a fresh
//! compile-and-simulate, and recorded in a stable `matic-discover-v2`
//! JSON document.
//!
//! # Examples
//!
//! ```no_run
//! use matic_discover::{discover, DiscoverConfig};
//!
//! let frontier = std::fs::read_to_string("EXPLORE_frontier.json").unwrap();
//! let mut cfg = DiscoverConfig::new(&frontier);
//! cfg.bench_ids = Some(vec!["iir".to_string()]);
//! cfg.budget = 40;
//! let result = discover(&cfg).expect("search runs");
//! let b = &result.benches[0];
//! println!("{}: {} cycles @ area {:.2}", b.bench, b.winner.cycles, b.winner.area);
//! ```

pub mod mine;
pub mod report;
pub mod runner;
pub mod search;

pub use mine::{mine_function, rewrite_with, MinedOp};
pub use report::{validate_discover_json, DISCOVER_SCHEMA};
pub use runner::{discover, BenchDiscovery, DiscoverConfig, Discovery, FusedChoice, Winner};
pub use search::{propose, SearchState};

//! # matic-explore
//!
//! ISA design-space exploration: *which ASIP should you build for this
//! workload?*
//!
//! The DATE'16 paper describes the target processor parametrically so one
//! compiler retargets to any ASIP. This crate closes the loop from
//! "retargetable description" to "recommended ISA": it enumerates a grid
//! of candidate [`IsaSpec`]s — the cross product of SIMD widths, custom
//! instruction-family subsets and cost-table scalings — compiles each
//! benchmark **once**, then simulates the shared pre-decoded program
//! once per distinct machine (width and features) in parallel and prices
//! each candidate's cost table from that machine's per-class counts. A
//! simple area model (per-feature
//! and per-lane costs, loadable from JSON) prices each candidate, and the
//! result is the cycles-vs-area **Pareto frontier** per benchmark and for
//! the whole suite, as a terminal report and a stable `matic-explore-v1`
//! JSON document.
//!
//! The compile-once/simulate-many fan-out rests on a deliberate
//! architecture invariant pinned by tests: MIR (and the decoded
//! instruction stream) is target-independent; all target dependence
//! lives in the simulator's cost table and capability gates, and a cost
//! table changes only prices. Every point's cycle count therefore
//! bit-matches a from-scratch compilation for that spec.
//!
//! # Examples
//!
//! ```
//! use matic_explore::{explore, ExploreConfig};
//!
//! let mut cfg = ExploreConfig::default();
//! cfg.bench_ids = vec!["fir".to_string()];
//! cfg.grid.widths = vec![1, 8];
//! cfg.grid.cost_scales = vec![1.0];
//! cfg.n = Some(64);
//! let result = explore(&cfg).expect("exploration runs");
//! assert_eq!(result.benches.len(), 1);
//! assert!(!result.benches[0].frontier.is_empty());
//! ```

pub mod area;
pub mod grid;
pub mod pareto;
pub mod report;
pub mod runner;
mod util;

pub use area::{AreaModel, AREA_SCHEMA};
pub use grid::{Candidate, GridConfig};
pub use pareto::pareto_frontier;
pub use report::{resume_config, validate_explore_json, ExploreSummary, EXPLORE_SCHEMA};
pub use runner::{
    check_outputs, explore, BenchExploration, CandidatePoint, Exploration, ExploreConfig, HotLine,
    SuitePoint,
};
pub use util::{par_map, render_table};

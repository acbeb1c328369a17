//! The four closed-loop workloads. Every op of a workload does identical
//! work, so the latency distribution of a run has a single mode and its
//! median does not fall on a boundary between kinds of work.

pub mod compile_cold;
pub mod cycles_report;
pub mod dse_sweep;
pub mod serve_warm;

pub use compile_cold::CompileCold;
pub use cycles_report::CyclesReport;
pub use dse_sweep::DseSweep;
pub use serve_warm::ServeWarm;

use crate::trace::Ctx;
use matic::CValue;
use matic::{Compiled, SimOutcome};
use matic_benchkit::{outputs_close, sim_to_cvalue};

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["compile_cold", "cycles_report", "dse_sweep", "serve_warm"];

/// One closed-loop workload.
///
/// Set-up ([`Workload::setup`]) builds the state and computes the
/// expected outputs; the measured loop then runs [`Workload::op`] (or
/// [`Workload::traced_op`], its outside-in replay) back to back on each
/// of [`Workload::CONNS`] connections, checking every output with
/// [`Workload::check`] outside the timed interval.
pub trait Workload: Sized + Sync {
    /// Closed-loop connections (client threads) of the measured loop.
    const CONNS: usize;
    /// Per-connection state.
    type Conn;
    /// What one op produces, for the check.
    type Out;

    /// Builds the state and the expected outputs for stimulus `seed`.
    ///
    /// # Errors
    ///
    /// Fails when the program fails or disagrees with a reference.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Opens one connection.
    ///
    /// # Errors
    ///
    /// Fails when the connection cannot be opened.
    fn connect(&self) -> Result<Self::Conn, String>;

    /// One op through the library's normal entry points.
    ///
    /// # Errors
    ///
    /// Fails when the program reports an error.
    fn op(&self, conn: &mut Self::Conn) -> Result<Self::Out, String>;

    /// The same op replayed through each layer's public calls, one span
    /// per call.
    ///
    /// # Errors
    ///
    /// Fails when the program reports an error.
    fn traced_op(&self, conn: &mut Self::Conn, ctx: Ctx<'_>) -> Result<Self::Out, String>;

    /// Compares an op's output with the set-up's expected output.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    fn check(&self, out: &Self::Out) -> Result<(), String>;

    /// Geometric mean of the simulated cycles of the optimized code this
    /// workload produces (exact; see the workload notes).
    fn sim_cycles_geomean(&self) -> f64;
}

/// Geometric mean of positive counts.
pub(crate) fn geomean(values: &[u64]) -> f64 {
    let log_sum: f64 = values.iter().map(|&v| (v.max(1) as f64).ln()).sum();
    (log_sum / values.len().max(1) as f64).exp()
}

/// Checks a simulation's single output against an independent reference.
///
/// # Errors
///
/// Describes the mismatch.
pub(crate) fn check_output(
    what: &str,
    outcome: &SimOutcome,
    expected: &CValue,
) -> Result<(), String> {
    let [out] = outcome.outputs.as_slice() else {
        return Err(format!(
            "{what}: {} outputs, expected 1",
            outcome.outputs.len()
        ));
    };
    outputs_close(&sim_to_cvalue(out), expected, 1e-9).map_err(|e| format!("{what}: {e}"))
}

/// Simulates `compiled` on `inputs` with the `matic cycles` defaults
/// (native engine, default fuel).
///
/// # Errors
///
/// Propagates simulator failures.
pub(crate) fn simulate(compiled: &Compiled, inputs: &[CValue]) -> Result<SimOutcome, String> {
    compiled
        .simulator()
        .with_fuel(matic::reportfmt::DEFAULT_MAX_CYCLES)
        .run(inputs.iter().map(matic_benchkit::to_sim).collect())
        .map_err(|e| e.to_string())
}

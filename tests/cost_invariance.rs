//! A cost table changes only prices.
//!
//! The simulator's behaviour — outputs, fuel, traps and which class each
//! operation is charged to — depends on the SIMD width, the feature
//! families and which classes exist as instructions, never on what an
//! instruction costs. The design-space explorer relies on this: it runs
//! each distinct machine once and prices that machine's cost-scaled
//! variants with [`matic::CycleReport::repriced`]. This test runs every
//! kernel on a `dsp16` variant and on a copy with every priced class
//! re-costed, baseline classes included, and requires identical outputs
//! and a repriced report equal to the direct run's.

use matic::{Compiler, IsaSpec, OpClass, OptLevel};
use matic_benchkit::{to_sim, SUITE};
use matic_explore::runner::default_n;
use std::sync::Arc;

/// `spec` with every explicitly priced class given a different cost.
/// Unpriced classes stay unpriced: pricing `fused` would add an
/// instruction, which is a different machine.
fn recosted(spec: &IsaSpec) -> IsaSpec {
    let mut out = spec.clone();
    for &op in OpClass::ALL {
        if spec.costs.has_cost(op) {
            out.costs.set_cost(op, spec.cost(op) + 1 + (op as u32 % 3));
        }
    }
    out.name = format!("{}_recosted", spec.name);
    out
}

#[test]
fn a_cost_table_changes_only_prices() {
    for bench in SUITE {
        let n = default_n(bench.id);
        let inputs: Vec<_> = bench.inputs(n, 3).iter().map(to_sim).collect();
        for width in [1, 4, 8] {
            let spec = IsaSpec::with_width(width);
            let other = recosted(&spec);
            for (level, opt) in [("base", OptLevel::baseline()), ("opt", OptLevel::full())] {
                let tag = format!("{} at width {width} [{level}]", bench.id);
                let compiled = Compiler::new()
                    .target(spec.clone())
                    .opt_level(opt)
                    .compile(bench.source, bench.entry, &bench.arg_types(n))
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let direct = compiled
                    .simulator()
                    .run(inputs.clone())
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let recost = compiled
                    .simulator_for(Arc::new(other.clone()))
                    .run(inputs.clone())
                    .unwrap_or_else(|e| panic!("{tag} (recosted): {e}"));
                assert_eq!(direct.outputs, recost.outputs, "{tag}: outputs");
                assert_eq!(direct.printed, recost.printed, "{tag}: printed");
                assert_ne!(direct.cycles.total, recost.cycles.total, "{tag}: prices");
                assert_eq!(
                    direct.cycles.repriced(&spec, &other).as_ref(),
                    Ok(&recost.cycles),
                    "{tag}: repriced to the recosted table"
                );
                assert_eq!(
                    recost.cycles.repriced(&other, &spec).as_ref(),
                    Ok(&direct.cycles),
                    "{tag}: repriced back"
                );
            }
        }
    }
}

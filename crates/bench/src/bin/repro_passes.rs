//! **Pass ablation** — which vectorizer pass buys what (the design-choice
//! ablation DESIGN.md calls out).
//!
//! The pipeline is rebuilt pass by pass — loop idiom recognition, array
//! strip-mining, MAC fusion, slice forwarding — and each stage's cycle
//! count on `dsp16` is reported relative to the scalar baseline.
//! Regenerate with: `cargo run --release -p matic-bench --bin repro_passes`

use matic::{IsaSpec, OptLevel};
use matic_benchkit::{to_sim, SUITE};
use matic_explore::render_table;

/// Which vectorizer passes to run.
#[derive(Clone, Copy)]
struct Passes {
    loops: bool,
    arrays: bool,
    fuse: bool,
    forward: bool,
}

fn cycles_with(bench: &matic_benchkit::Benchmark, n: usize, passes: Passes) -> u64 {
    let (program, diags) = matic::parse(bench.source);
    assert!(!diags.has_errors());
    let analysis = matic_sema::analyze(&program, bench.entry, &bench.arg_types(n));
    assert!(!analysis.diags.has_errors());
    let (mut mir, diags) = matic_mir::lower_program(&program, &analysis);
    assert!(!diags.has_errors());
    matic_mir::optimize_program(&mut mir);
    for f in &mut mir.functions {
        if passes.loops {
            matic_vectorize::vectorize_loops(f);
        }
        if passes.arrays {
            matic_vectorize::vectorize_arrays(f);
        }
        if passes.fuse {
            matic_vectorize::fuse_mac(f);
        }
        if passes.forward {
            matic_vectorize::forward_slices(f);
        }
        matic_mir::optimize(f);
    }
    let machine = matic::AsipMachine::new(IsaSpec::dsp16());
    let inputs = bench.inputs(n, 1);
    let reference = bench.reference_outputs(&inputs).expect("interp ok");
    let out = machine
        .run(&mir, bench.entry, inputs.iter().map(to_sim).collect())
        .unwrap_or_else(|e| panic!("{}: {e}", bench.id));
    matic_explore::check_outputs(&out.outputs, &reference)
        .unwrap_or_else(|e| panic!("{}: pass subset broke semantics: {e}", bench.id));
    out.cycles.total
}

fn main() {
    let stages: &[(&str, Passes)] = &[
        (
            "loops",
            Passes {
                loops: true,
                arrays: false,
                fuse: false,
                forward: false,
            },
        ),
        (
            "+arrays",
            Passes {
                loops: true,
                arrays: true,
                fuse: false,
                forward: false,
            },
        ),
        (
            "+fuse",
            Passes {
                loops: true,
                arrays: true,
                fuse: true,
                forward: false,
            },
        ),
        (
            "+forward",
            Passes {
                loops: true,
                arrays: true,
                fuse: true,
                forward: true,
            },
        ),
    ];
    let mut rows = Vec::new();
    for b in SUITE {
        let n = match b.id {
            "matmul" => 16,
            "fft" => 256,
            _ => 512,
        };
        // The scalar baseline uses the library pipeline directly.
        let base = matic::Compiler::new()
            .opt_level(OptLevel::baseline())
            .compile(b.source, b.entry, &b.arg_types(n))
            .expect("baseline compiles");
        let inputs = b.inputs(n, 1);
        let base_cycles = base
            .simulate(inputs.iter().map(to_sim).collect())
            .expect("baseline sim")
            .cycles
            .total;
        let mut row = vec![b.id.to_string()];
        for (_, p) in stages {
            let c = cycles_with(b, n, *p);
            row.push(format!("{:.2}x", base_cycles as f64 / c as f64));
        }
        rows.push(row);
    }
    println!("Pass ablation: cumulative speedup over the scalar baseline as");
    println!("vectorizer passes are enabled left to right (dsp16, W=8)");
    println!();
    let headers: Vec<String> = std::iter::once("bench".to_string())
        .chain(stages.iter().map(|(l, _)| l.to_string()))
        .collect();
    let refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("{}", render_table(&refs, &rows));
    println!("Reading: `loops` alone covers explicit-loop kernels (fir/xcorr);");
    println!("`arrays` adds MATLAB's vectorized style (cmult/fft); `fuse` turns");
    println!("mul+sum into single MACs (matmul); `forward` removes the slice");
    println!("copies the vectorized style materializes (fft).");
}

//! Differential-testing walkthrough: the FFT benchmark executed by all
//! three engines the project provides —
//!
//! 1. the reference **interpreter** (the numerical oracle),
//! 2. the **virtual ASIP** running compiled MIR cycle-accurately,
//! 3. the **generated C**, compiled with the host C compiler and run,
//!
//! and cross-checked to 1e-9. This is exactly the methodology the test
//! suite uses to trust every cycle number it reports.
//!
//! Run with: `cargo run --example fft_differential`

use matic::{CValue, Compiler, Harness};
use matic_benchkit::{benchmark, outputs_close, sim_to_cvalue, to_sim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fft = benchmark("fft").expect("fft is in the suite");
    let n = 256;
    let inputs = fft.inputs(n, 7);

    // Engine 1: the interpreter.
    let oracle = &fft.reference_outputs(&inputs).map_err(io_err)?[0];
    println!("interpreter: {} complex bins", oracle.numel());

    // Engine 2: compiled MIR on the virtual ASIP.
    let compiled = Compiler::new().compile(fft.source, fft.entry, &fft.arg_types(n))?;
    let sim = compiled.simulate(inputs.iter().map(to_sim).collect())?;
    let sim_out = sim_to_cvalue(&sim.outputs[0]);
    outputs_close(&sim_out, oracle, 1e-9).map_err(io_err)?;
    println!(
        "virtual ASIP: matches oracle, {} cycles ({} instructions)",
        sim.cycles.total, sim.cycles.instructions
    );

    // Engine 3: generated C through the host compiler (skipped without cc).
    let Some(cc) = matic_codegen::host_cc() else {
        println!("host C compiler not found — skipping engine 3");
        return Ok(());
    };
    let main_src = Harness.main_source(compiled.entry_mir(), &inputs, 1)?;
    let run = matic_codegen::build_and_run(cc, &compiled.c, &main_src, &["-O2"]).map_err(io_err)?;
    let c_out = &CValue::parse_outputs(&String::from_utf8_lossy(&run.stdout)).map_err(io_err)?[0];
    outputs_close(c_out, oracle, 1e-9).map_err(io_err)?;
    println!("generated C (host-compiled): matches oracle");
    println!("\nall three engines agree on a {n}-point FFT.");
    Ok(())
}

fn io_err(m: String) -> std::io::Error {
    std::io::Error::other(m)
}

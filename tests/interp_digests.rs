//! Golden digests of the reference interpreter's outputs.
//!
//! `matic-interp` is the oracle every engine is checked against, so a
//! change to how it evaluates (frames, scalar paths, subscript handling)
//! must not move a single float bit. This pins, as FNV-1a-64 digests over
//! the output shapes and the `f64::to_bits` of every real and imaginary
//! part, the interpreter's outputs for the six benchmark kernels at the
//! explorer's sizes and at paper sizes, plus one combined digest over the
//! fixed fuzz population of `tests/codegen_golden.rs` (a failing case
//! folds in its error kind, message and span instead).
//!
//! On a mismatch the whole actual table is printed.

use matic_benchkit::{to_interp, SUITE};
use matic_explore::runner::default_n;
use matic_fuzz::legs::stimulus;
use matic_fuzz::{case_rng, gen_case, DEFAULT_FUEL, ENTRY};
use matic_interp::{Interpreter, RuntimeError, Value};

/// Fuzz population: seed and number of cases (as in `codegen_golden`).
const FUZZ_SEED: u64 = 1593702137;
const FUZZ_CASES: u64 = 256;

/// Stimulus seed of the kernel rows (the explorer's default).
const KERNEL_SEED: u64 = 3;

/// One line per row: label, then the FNV-1a-64 digest.
const EXPECTED: &str = "\
fir/explore/n128 4fad27da90ac70b4
iir/explore/n128 0701067cca832dc9
cmult/explore/n128 1a0aa7076bd4fc23
fft/explore/n64 dd027f80db5df426
matmul/explore/n8 f6362bd77c203cbb
xcorr/explore/n128 362a15762f9be535
fir/paper/n1024 34492bdd670d357e
iir/paper/n1024 96a4b4c50637a203
cmult/paper/n1024 e7cfb8007265828a
fft/paper/n1024 fa0244040cb92030
matmul/paper/n32 0887f0c5072daddd
xcorr/paper/n512 f1b3f01bbf62c34a
fuzz256/failed58 c8faf0306715e2b7
";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 of `bytes`, continuing from state `h`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a64(h, &v.to_le_bytes())
}

/// Folds one call's outcome into `h`: per output its shape and elements,
/// or the error's kind, message and span.
fn fold_outcome(mut h: u64, outcome: &Result<Vec<Value>, RuntimeError>) -> u64 {
    match outcome {
        Ok(outs) => {
            h = fold_u64(h, outs.len() as u64);
            for v in outs {
                let m = v.as_matrix().expect("numeric output");
                h = fold_u64(h, m.rows() as u64);
                h = fold_u64(h, m.cols() as u64);
                for z in m.data() {
                    h = fold_u64(h, z.re.to_bits());
                    h = fold_u64(h, z.im.to_bits());
                }
            }
        }
        Err(e) => {
            h = fnv1a64(
                h,
                format!("{:?} {} {}", e.kind, e.message, e.span).as_bytes(),
            );
        }
    }
    h
}

fn kernel_rows(table: &mut String) {
    for (size_label, explore_sizes) in [("explore", true), ("paper", false)] {
        for b in SUITE {
            let n = if explore_sizes {
                default_n(b.id)
            } else {
                b.default_n
            };
            let mut interp = Interpreter::from_source(b.source).expect("kernel parses");
            let inputs = b.inputs(n, KERNEL_SEED).iter().map(to_interp).collect();
            let outcome = interp.call(b.entry, inputs, 1);
            assert!(outcome.is_ok(), "{} n={n}: {outcome:?}", b.id);
            let h = fold_outcome(FNV_OFFSET, &outcome);
            table.push_str(&format!("{}/{size_label}/n{n} {h:016x}\n", b.id));
        }
    }
}

fn fuzz_row(table: &mut String) {
    let (mut h, mut failed) = (FNV_OFFSET, 0);
    for i in 0..FUZZ_CASES {
        let case = gen_case(&mut case_rng(FUZZ_SEED, i)).to_source();
        let mut interp = Interpreter::from_source(&case.src).expect("fuzz case parses");
        interp.set_fuel(DEFAULT_FUEL);
        let inputs = stimulus(&case).iter().map(to_interp).collect();
        let outcome = interp.call(ENTRY, inputs, 1);
        failed += usize::from(outcome.is_err());
        h = fold_outcome(h, &outcome);
    }
    table.push_str(&format!("fuzz{FUZZ_CASES}/failed{failed} {h:016x}\n"));
}

#[test]
fn interpreter_outputs_match_golden_digests() {
    let mut actual = String::new();
    kernel_rows(&mut actual);
    fuzz_row(&mut actual);
    assert!(
        actual == EXPECTED,
        "interpreter outputs differ from the golden digests; actual table:\n{actual}"
    );
}

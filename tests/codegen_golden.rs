//! Golden digests of the generated C.
//!
//! Pins the exact bytes the C backend emits — `Compiled.c.source` and the
//! intrinsics header — as `(length, FNV-1a-64)` pairs for the six
//! benchmark kernels at their default sizes, at both optimization levels,
//! on two targets, plus one combined digest over a fixed fuzz population.
//! Any change to the emitted text (whitespace, fresh-name order, operand
//! spelling) fails here; a refactor of the emitter must leave every row
//! untouched.
//!
//! On a mismatch the whole actual table is printed, ready to paste back
//! in if a change of the emitted text is intended.

use matic::{arg, Compiler, IsaSpec, OptLevel};
use matic_benchkit::SUITE;
use matic_fuzz::{case_rng, gen_case, ENTRY};

/// Fuzz population: seed and number of cases.
const FUZZ_SEED: u64 = 1593702137;
const FUZZ_CASES: u64 = 256;

/// One line per row: label, source length, source FNV-1a-64, header
/// length, header FNV-1a-64.
const EXPECTED: &str = "\
dsp16/fir/full 1887 920e7cf55f1ebf62 4379 690badc0d6f2874a
dsp16/fir/base 2345 a3081aedd083bbcd 4379 690badc0d6f2874a
dsp16/iir/full 3184 4650fec5fd64a90c 4379 690badc0d6f2874a
dsp16/iir/base 4086 1779aee085a2ac14 4379 690badc0d6f2874a
dsp16/cmult/full 685 5463b4d347d6c4fe 4379 690badc0d6f2874a
dsp16/cmult/base 1132 1d673e7bb784dd14 4379 690badc0d6f2874a
dsp16/fft/full 9015 f5fa733954f1fb34 4379 690badc0d6f2874a
dsp16/fft/base 9860 d3ef6ff66d35d3d1 4379 690badc0d6f2874a
dsp16/matmul/full 2945 31ded0e2e10989fd 4379 690badc0d6f2874a
dsp16/matmul/base 3836 d2a8738d9d18ccfd 4379 690badc0d6f2874a
dsp16/xcorr/full 2459 d6641d739f14d7e3 4379 690badc0d6f2874a
dsp16/xcorr/base 2792 bd385bcc8d8062f3 4379 690badc0d6f2874a
scalar/fir/full 2078 9f6d145463967b3a 4380 a9138b11a158923a
scalar/fir/base 2346 25b933f88c9da61d 4380 a9138b11a158923a
scalar/iir/full 3753 50c132ce6d0947b4 4380 a9138b11a158923a
scalar/iir/base 4087 15e489162d574d04 4380 a9138b11a158923a
scalar/cmult/full 919 6586e8db9a89bc64 4380 a9138b11a158923a
scalar/cmult/base 1133 1f950b422b9ede44 4380 a9138b11a158923a
scalar/fft/full 10569 23d9750540de14eb 4380 a9138b11a158923a
scalar/fft/base 9861 8427233d139cba41 4380 a9138b11a158923a
scalar/matmul/full 3370 638484a607e2eb56 4380 a9138b11a158923a
scalar/matmul/base 3837 99753400c7fd542d 4380 a9138b11a158923a
scalar/xcorr/full 2650 35753efee3753d99 4380 a9138b11a158923a
scalar/xcorr/base 2793 38efc578952ff7e3 4380 a9138b11a158923a
fuzz256/full 392335 c2748a6d0f708e2f 1121024 3e8bffef1826e425
fuzz256/base 515186 89a094e8dd500aae 1121024 3e8bffef1826e425
";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 of `bytes`, continuing from state `h`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Running `(length, digest)` of a byte stream.
#[derive(Clone, Copy)]
struct Digest(usize, u64);

impl Digest {
    fn new() -> Digest {
        Digest(0, FNV_OFFSET)
    }

    fn add(self, text: &str) -> Digest {
        Digest(self.0 + text.len(), fnv1a64(self.1, text.as_bytes()))
    }
}

fn row(label: &str, src: Digest, hdr: Digest) -> String {
    format!(
        "{label} {} {:016x} {} {:016x}\n",
        src.0, src.1, hdr.0, hdr.1
    )
}

fn levels() -> [(&'static str, OptLevel); 2] {
    [("full", OptLevel::full()), ("base", OptLevel::baseline())]
}

/// One row per kernel, target and optimization level.
fn kernel_rows(table: &mut String) {
    for spec in [IsaSpec::dsp16(), IsaSpec::scalar_baseline()] {
        for b in SUITE {
            for (label, opt) in levels() {
                let c = Compiler::new()
                    .target(spec.clone())
                    .opt_level(opt)
                    .compile(b.source, b.entry, &b.arg_types(b.default_n))
                    .unwrap_or_else(|e| panic!("{} [{label}] on {}: {e}", b.id, spec.name))
                    .c;
                table.push_str(&row(
                    &format!("{}/{}/{label}", spec.name, b.id),
                    Digest::new().add(&c.source),
                    Digest::new().add(&c.intrinsics_header),
                ));
            }
        }
    }
}

/// One row per optimization level folding every fuzz case's C (or its
/// compile error) into a single digest.
fn fuzz_rows(table: &mut String) {
    for (label, opt) in levels() {
        let compiler = Compiler::new().opt_level(opt);
        let (mut src, mut hdr) = (Digest::new(), Digest::new());
        for i in 0..FUZZ_CASES {
            let case = gen_case(&mut case_rng(FUZZ_SEED, i)).to_source();
            let args = [arg::vector(case.n), arg::vector(case.n), arg::scalar()];
            match compiler.compile(&case.src, ENTRY, &args) {
                Ok(c) => {
                    src = src.add(&c.c.source);
                    hdr = hdr.add(&c.c.intrinsics_header);
                }
                Err(e) => src = src.add(&format!("error: {e}")),
            }
        }
        table.push_str(&row(&format!("fuzz{FUZZ_CASES}/{label}"), src, hdr));
    }
}

#[test]
fn generated_c_matches_golden_digests() {
    let mut actual = String::new();
    kernel_rows(&mut actual);
    fuzz_rows(&mut actual);
    assert!(
        actual == EXPECTED,
        "generated C differs from the golden digests; actual table:\n{actual}"
    );
}

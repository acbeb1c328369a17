//! # matic-codegen
//!
//! ANSI C backends for the matic MATLAB-to-C compiler.
//!
//! The same emitter serves the two compilers compared in the DATE'16
//! paper's evaluation:
//!
//! * **baseline** — run on *unvectorized* MIR, producing the naive
//!   element-at-a-time loops a MATLAB-Coder-class tool generates;
//! * **intrinsic backend** — run on vectorized MIR, mapping vector
//!   operations onto the custom-instruction intrinsics declared by the
//!   target's parameterized [ISA description](matic_isa), with scalar
//!   fallback for anything the target lacks.
//!
//! The emitter ([`emit`]) is split by concern: operand access and the
//! shared C tables (one for operators, one for element functions such as
//! `abs`, `sqrt`, `conj` and `angle`), array operations, builtins and
//! reductions, and vector operations. Scalar statements, element-wise
//! array loops and the vector-op scalar fallback all spell an operation
//! through the same table entry, so they cannot disagree.
//!
//! Generated modules are self-contained: `matic_rt.h` (descriptors +
//! scratch allocator) and `matic_intrinsics.h` (portable intrinsic
//! definitions) are emitted alongside, so the output compiles with any
//! host C compiler — which is exactly how the differential test suite
//! validates the compiler against the reference interpreter.
//!
//! # Examples
//!
//! ```
//! use matic_codegen::{CBackend, CodegenOptions};
//! use matic_isa::IsaSpec;
//! use matic_sema::{analyze, Ty, Class, Shape, Dim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (program, diags) = matic_frontend::parse(
//!     "function s = dotp(a, b)\ns = sum(a .* b);\nend",
//! );
//! assert!(!diags.has_errors());
//! let v = Ty::new(Class::Double, Shape::row(Dim::Known(64)));
//! let analysis = analyze(&program, "dotp", &[v, v]);
//! let (mut mir, _) = matic_mir::lower_program(&program, &analysis);
//! matic_mir::optimize_program(&mut mir);
//! matic_vectorize::vectorize_program(&mut mir);
//! let backend = CBackend::new(IsaSpec::dsp16(), CodegenOptions::default());
//! let module = backend.generate(&mir)?;
//! assert!(module.source.contains("__asip_vmac"));
//! # Ok(())
//! # }
//! ```

pub mod emit;
pub mod harness;
pub mod runtime;

pub use emit::{CBackend, CModule, CodegenError, CodegenOptions};
pub use harness::{build_and_run, host_cc, write_module, CValue, Harness};
pub use runtime::{intrinsics_header, RT_HEADER};

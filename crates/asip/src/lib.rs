//! # matic-asip
//!
//! A virtual ASIP for the matic compiler's evaluation: cycle-level
//! execution of compiler MIR under a parameterized instruction cost
//! model ([`matic_isa::IsaSpec`]).
//!
//! The DATE'16 paper measured its generated code on a proprietary ASIP
//! and its vendor toolchain; this crate is the open substitute. It
//! executes the exact MIR the C backend emits from — same fixed-array
//! semantics, same intrinsic-vs-scalar-fallback decisions — and charges
//! cycles per primitive machine operation, so running baseline MIR and
//! vectorized MIR through the same machine reproduces the paper's
//! cycle-count comparison while also producing real numerical outputs
//! that the test suite checks against the reference interpreter.
//!
//! One engine executes every run: [`decode`] flattens MIR into
//! instruction streams, [`fuse_program`] pre-compiles those into
//! direct-threaded superinstructions, and [`Simulator`] dispatches them.
//! [`AsipMachine::run_interpreted`] walks the structured MIR instead; it is
//! the reference semantics the engine is tested against, not a second
//! engine.
//!
//! # Examples
//!
//! ```
//! use matic_asip::{AsipMachine, SimVal};
//! use matic_isa::IsaSpec;
//! use matic_sema::{analyze, Ty, Class, Shape, Dim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (program, _) = matic_frontend::parse(
//!     "function s = dotp(a, b)\ns = sum(a .* b);\nend",
//! );
//! let v = Ty::new(Class::Double, Shape::row(Dim::Known(4)));
//! let analysis = analyze(&program, "dotp", &[v, v]);
//! let (mut mir, _) = matic_mir::lower_program(&program, &analysis);
//! matic_mir::optimize_program(&mut mir);
//! matic_vectorize::vectorize_program(&mut mir);
//!
//! let machine = AsipMachine::new(IsaSpec::dsp16());
//! let out = machine.run(&mir, "dotp", vec![
//!     SimVal::row(&[1.0, 2.0, 3.0, 4.0]),
//!     SimVal::row(&[1.0, 1.0, 1.0, 1.0]),
//! ])?;
//! assert_eq!(out.outputs[0].as_cx()?.re, 10.0);
//! assert!(out.cycles.total > 0);
//! # Ok(())
//! # }
//! ```

pub mod decode;
pub mod profile;
pub mod report;
pub mod sim;

pub use decode::{decode_program, DecodedProgram};
pub use profile::{Profile, SpanCounters, PROFILE_SCHEMA};
pub use report::CycleReport;
pub use sim::{
    fuse_program, AsipMachine, Engine, NativeProgram, SimError, SimErrorKind, SimOutcome, SimVal,
    Simulator,
};

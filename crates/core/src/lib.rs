//! # matic
//!
//! A retargetable MATLAB-to-C compiler that exploits ASIP custom
//! instructions (SIMD, complex arithmetic, multiply-accumulate) — an
//! open-source reproduction of *"Matlab to C Compilation Targeting
//! Application Specific Instruction Set Processors"* (DATE 2016).
//!
//! The crate is a facade over the pipeline crates:
//! `matic-frontend` (parse) → `matic-sema` (types/shapes) → `matic-mir`
//! (IR + scalar opts) → `matic-vectorize` (idiom recognition) →
//! `matic-codegen` (ANSI C with intrinsics). `matic-interp` is the
//! reference interpreter used as the numerical oracle and `matic-asip`
//! the cycle-level virtual ASIP used for the paper's evaluation.
//!
//! # Examples
//!
//! ```
//! use matic::{arg, Compiler, IsaSpec, OptLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "function y = gain(x, k)\ny = k .* x;\nend";
//! let args = [arg::vector(256), arg::scalar()];
//!
//! // The proposed compiler: vectorizes and emits custom-instruction
//! // intrinsics for the dsp16 ASIP.
//! let optimized = Compiler::new().compile(src, "gain", &args)?;
//! assert!(optimized.c.source.contains("__asip_vmul"));
//!
//! // The MATLAB-Coder-like baseline emits plain scalar loops.
//! let baseline = Compiler::new()
//!     .opt_level(OptLevel::baseline())
//!     .compile(src, "gain", &args)?;
//! assert!(!baseline.c.source.contains("__asip_"));
//! # let _ = IsaSpec::dsp16();
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod pipeline;
pub mod reportfmt;

pub use cache::{CacheStats, StageCache};
pub use matic_asip::{
    AsipMachine, CycleReport, Engine, NativeProgram, Profile, SimError, SimErrorKind, SimOutcome,
    SimVal, Simulator, SpanCounters, PROFILE_SCHEMA,
};
pub use matic_codegen::{CModule, CValue, CodegenOptions, Harness};
pub use matic_frontend::{parse, Program, SourceMap, Span};
pub use matic_interp::{Cx, Interpreter, Matrix, RuntimeError, Value};
pub use matic_isa::{CostModel, Features, IsaSpec, OpClass};
pub use matic_sema::{Class, Dim, Shape, Ty};
pub use matic_vectorize::{LoopDecision, VectorizeReport};
pub use pipeline::{arg, CompileError, Compiled, Compiler, OptLevel, PassTiming};

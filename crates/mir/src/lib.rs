//! # matic-mir
//!
//! Typed, structured mid-level IR for the matic MATLAB-to-C compiler,
//! plus AST lowering and scalar optimization passes.
//!
//! The MIR keeps loops and conditionals structured (MLIR `scf`-style)
//! because the compiler's central transformation — recognizing
//! vectorizable loop idioms and mapping them to ASIP custom instructions —
//! is a pattern match over `for` loops. Expressions are flattened to
//! three-address form over typed virtual registers; the vectorizer later
//! replaces recognized loops with [`ir::VectorOp`] statements that the C
//! and ASIP backends map to intrinsics.
//!
//! # Examples
//!
//! ```
//! use matic_mir::{lower_program, optimize_program};
//! use matic_sema::{analyze, Ty, Class, Shape, Dim};
//!
//! let (program, diags) = matic_frontend::parse(
//!     "function y = gain(x, k)\ny = k .* x;\nend",
//! );
//! assert!(!diags.has_errors());
//! let args = [
//!     Ty::new(Class::Double, Shape::row(Dim::Known(64))),
//!     Ty::double_scalar(),
//! ];
//! let analysis = analyze(&program, "gain", &args);
//! let (mut mir, diags) = lower_program(&program, &analysis);
//! assert!(!diags.has_errors());
//! optimize_program(&mut mir);
//! assert!(mir.function("gain").is_some());
//! ```

pub mod inline;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod pretty;

pub use inline::{inline_program, DEFAULT_INLINE_LIMIT};
pub use ir::{
    walk_stmts, walk_stmts_mut, Access, AllocKind, Index, MirFunction, MirProgram, Operand, Place,
    PlaceMut, PlaceRef, ReduceKind, Rvalue, Stmt, VarId, VarInfo, VecKind, VecRef, VectorOp,
};
pub use lower::{lower_function, lower_program, range_len_const};
pub use passes::{constant_fold, copy_propagate, dead_code_eliminate, optimize, optimize_program};
pub use pretty::{print_function, print_program};

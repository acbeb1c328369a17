//! # matic-sema
//!
//! Semantic analysis for the matic compiler: resolves the MATLAB
//! call-vs-index ambiguity, infers element classes (logical / double /
//! complex / char) and 2-D shapes, and performs the scalar constant
//! propagation needed to size arrays like `zeros(1, n/2)`.
//!
//! Inference is an upward-moving abstract interpretation over finite
//! lattices; see [`infer`] for the algorithm and its documented static
//! approximations.
//!
//! # Examples
//!
//! ```
//! use matic_sema::{analyze, Ty, Class, Shape, Dim};
//!
//! let (program, diags) = matic_frontend::parse(
//!     "function y = gain(x)\ny = 2 .* x;\nend",
//! );
//! assert!(!diags.has_errors());
//! let arg = Ty::new(Class::Double, Shape::row(Dim::Known(256)));
//! let analysis = analyze(&program, "gain", &[arg]);
//! let y = analysis.function("gain").unwrap().var_ty("y");
//! assert_eq!(y.shape, Shape::row(Dim::Known(256)));
//! ```

pub mod infer;
pub mod signatures;
pub mod transfer;
pub mod types;

pub use infer::{analyze, analyze_script, Analysis, FunctionInfo, SCRIPT_FN};
pub use matic_interp::registry;
pub use signatures::{builtin_call_error, builtin_nargout_types, builtin_result};
pub use transfer::{binop_result, unop_result};
pub use types::{Class, Dim, Shape, Ty};

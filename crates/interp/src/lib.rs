//! # matic-interp
//!
//! Reference interpreter for the MATLAB subset accepted by the `matic`
//! compiler. The interpreter is the *numerical oracle* of the project:
//! generated C code (host-compiled) and ASIP-simulated code are both
//! checked against its outputs.
//!
//! The value model is MATLAB's: one numeric type (a column-major matrix of
//! complex doubles, where scalars are 1×1), logical flags on comparison
//! results, strings, and function handles.
//!
//! # Examples
//!
//! ```
//! use matic_interp::Interpreter;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut interp = Interpreter::from_source("y = sum((1:10).^2);")?;
//! interp.run_script()?;
//! let y = interp.var("y").expect("defined").as_matrix()?.as_real_scalar()?;
//! assert_eq!(y, 385.0);
//! # Ok(())
//! # }
//! ```

pub mod builtins;
pub mod cx;
pub mod exec;
pub mod registry;
pub mod rng;
pub mod value;

pub use builtins::{call_builtin, call_pure_builtin, Host};
pub use cx::Cx;
pub use exec::{apply_binop, classify_message, ErrorKind, Interpreter, RuntimeError, DEFAULT_FUEL};
pub use rng::Xorshift64Star;
pub use value::{Closure, Matrix, Value};

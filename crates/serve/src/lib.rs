//! # matic-serve
//!
//! Compilation-as-a-service for the matic MATLAB-to-C ASIP compiler: a
//! long-running daemon that accepts MATLAB source plus an ISA spec over
//! a tiny TCP protocol and answers with generated C, cycle reports, or
//! design-space frontiers — amortizing the compiler's frontend across
//! requests through the content-addressed stage cache
//! ([`matic::StageCache`]).
//!
//! Everything is std-only: `std::net::TcpListener`, a fixed thread
//! pool, and length-prefixed JSON frames (see [`protocol`]). Responses
//! are bit-identical to the corresponding CLI output — the `cycles`
//! response's `text` field is byte-for-byte what `matic cycles` prints —
//! because both sit on the same `matic::reportfmt` helpers.
//!
//! ```no_run
//! use matic_serve::{Client, Server, ServerConfig};
//! use matic_isa::json::parse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(&server.addr().to_string())?;
//! let req = parse(r#"{"op": "ping"}"#)?;
//! let resp = client.request(&req)?;
//! assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod handler;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use handler::{Budgets, ServeState, MAX_EXPLORE_N};
pub use server::{Server, ServerConfig};

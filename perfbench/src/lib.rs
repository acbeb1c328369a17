//! End-to-end and per-layer benchmark of the matic compiler, its ASIP
//! simulator, the design-space explorer and the compile server.
//!
//! Four closed-loop workloads (see `WORKLOADS.md`) drive the library
//! through its public entry points. The untraced run times whole ops and
//! reports the end-to-end metrics; the traced run replays the same ops
//! through each layer's public calls, one span per call, and reports the
//! per-layer metrics.

pub mod measure;
pub mod stages;
pub mod trace;
pub mod workloads;

//! # matic-vectorize
//!
//! The DATE'16 paper's core transformation: recognizing data-parallel and
//! complex-arithmetic idioms in MATLAB kernels and turning them into
//! [`matic_mir::VectorOp`] statements that the C and ASIP backends map to
//! the target's custom instructions.
//!
//! Three cooperating passes:
//!
//! 1. [`vectorize_loops`] — explicit scalar `for` loops (maps, MACs,
//!    reductions, reversed/strided accesses) with dependence checking;
//! 2. [`vectorize_arrays`] — MATLAB's vectorized style (`y = a .* b`,
//!    `sum(v)`, slices) strip-mined directly;
//! 3. [`fuse_mac`] — `sum(a .* b)` fused into one multiply-accumulate.
//!
//! The vectorizer is **target independent**: it emits abstract vector
//! operations whether or not the selected ISA has SIMD. Backends consult
//! the ISA description and fall back to scalar expansion for operations
//! the target lacks — that split is exactly what makes the compiler
//! retargetable.
//!
//! # Examples
//!
//! ```
//! use matic_sema::{analyze, Ty, Class, Shape, Dim};
//! use matic_vectorize::vectorize_function;
//!
//! let (program, diags) = matic_frontend::parse(
//!     "function s = dotp(a, b, n)\ns = 0;\nfor i = 1:n\n    s = s + a(i) * b(i);\nend\nend",
//! );
//! assert!(!diags.has_errors());
//! let v = Ty::new(Class::Double, Shape::row(Dim::Known(64)));
//! let analysis = analyze(&program, "dotp", &[v, v, Ty::double_scalar()]);
//! let (mut mir, _) = matic_mir::lower_program(&program, &analysis);
//! matic_mir::optimize_program(&mut mir);
//! let mut f = mir.function("dotp").unwrap().clone();
//! let report = vectorize_function(&mut f);
//! assert_eq!(report.loops.macs, 1);
//! ```

pub mod affine;
pub mod arrays;
pub mod forward;
pub mod fuse;
pub mod loops;

pub use affine::{Affine, LoopEnv};
pub use arrays::{vectorize_arrays, ArrayReport};
pub use forward::{forward_slices, ForwardReport};
pub use fuse::{fuse_mac, FuseReport};
pub use loops::{vectorize_loops, LoopDecision, LoopReport};

use matic_mir::{MirFunction, MirProgram};

/// Combined report from all vectorization passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorizeReport {
    /// Explicit-loop recognition results.
    pub loops: LoopReport,
    /// Array-operation strip-mining results.
    pub arrays: ArrayReport,
    /// Fusion results.
    pub fuse: FuseReport,
    /// Slice-forwarding results.
    pub forward: ForwardReport,
}

impl VectorizeReport {
    /// Total vector operations produced.
    pub fn total_ops(&self) -> usize {
        self.loops.maps
            + self.loops.macs
            + self.loops.reductions
            + self.arrays.maps
            + self.arrays.reductions
            + self.arrays.copies
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &VectorizeReport) {
        self.loops.maps += other.loops.maps;
        self.loops.macs += other.loops.macs;
        self.loops.reductions += other.loops.reductions;
        self.loops.rejected += other.loops.rejected;
        self.loops
            .decisions
            .extend(other.loops.decisions.iter().copied());
        self.arrays.maps += other.arrays.maps;
        self.arrays.reductions += other.arrays.reductions;
        self.arrays.copies += other.arrays.copies;
        self.fuse.macs_fused += other.fuse.macs_fused;
        self.forward.inputs_forwarded += other.forward.inputs_forwarded;
        self.forward.outputs_forwarded += other.forward.outputs_forwarded;
    }
}

/// Runs the full vectorization pipeline on one function.
pub fn vectorize_function(func: &mut MirFunction) -> VectorizeReport {
    let loops = vectorize_loops(func);
    let arrays = vectorize_arrays(func);
    let fuse = fuse_mac(func);
    let forward = forward_slices(func);
    // Clean up dead prelude temps created by rejected candidates.
    matic_mir::optimize(func);
    VectorizeReport {
        loops,
        arrays,
        fuse,
        forward,
    }
}

/// Runs the full pipeline on every function of a program.
pub fn vectorize_program(program: &mut MirProgram) -> VectorizeReport {
    let mut report = VectorizeReport::default();
    for f in &mut program.functions {
        let r = vectorize_function(f);
        report.merge(&r);
    }
    report
}

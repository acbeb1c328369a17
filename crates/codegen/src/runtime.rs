//! The C runtime the generated code targets.
//!
//! Two headers are emitted next to every generated module:
//!
//! * `matic_rt.h` — array descriptors and a bump ("scratch") allocator.
//!   DSP kernels allocate from a static pool that the caller resets
//!   between invocations, so generated code needs no `free` paths and no
//!   early-return cleanup.
//! * `matic_intrinsics.h` — the ASIP custom instructions as C functions.
//!   On the real target the vendor toolchain maps these to single
//!   instructions; on a host compiler the portable fallback definitions
//!   below make the generated code runnable anywhere (that is what lets
//!   the differential tests compile the output with gcc).

use matic_isa::IsaSpec;

/// Contents of `matic_rt.h`.
pub const RT_HEADER: &str = r#"/* matic_rt.h - runtime for matic-generated C (generated; do not edit) */
#ifndef MATIC_RT_H
#define MATIC_RT_H

#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* Complex double, kept as a plain struct so any ANSI C compiler accepts it. */
typedef struct {
    double re;
    double im;
} matic_cx;

/* Column-major real matrix descriptor. */
typedef struct {
    double *data;
    int rows;
    int cols;
} matic_arr;

/* Column-major complex matrix descriptor. */
typedef struct {
    matic_cx *data;
    int rows;
    int cols;
} matic_carr;

/* ---- scratch allocator -------------------------------------------------
 * Kernel-style memory model: allocations come from a static pool and are
 * released all at once by matic_rt_reset() between kernel invocations.
 */
#ifndef MATIC_POOL_BYTES
#define MATIC_POOL_BYTES (64u * 1024u * 1024u)
#endif

static unsigned char matic_pool[MATIC_POOL_BYTES];
static size_t matic_pool_top = 0;

static void *matic_alloc(size_t bytes) {
    void *p;
    size_t aligned = (bytes + 15u) & ~(size_t)15u;
    if (matic_pool_top + aligned > MATIC_POOL_BYTES) {
        fprintf(stderr, "matic: scratch pool exhausted\n");
        exit(2);
    }
    p = matic_pool + matic_pool_top;
    matic_pool_top += aligned;
    return p;
}

static void matic_rt_reset(void) { matic_pool_top = 0; }

static matic_arr matic_arr_alloc(int rows, int cols) {
    matic_arr a;
    a.rows = rows > 0 ? rows : 0;
    a.cols = cols > 0 ? cols : 0;
    a.data = (double *)matic_alloc((size_t)a.rows * (size_t)a.cols * sizeof(double));
    memset(a.data, 0, (size_t)a.rows * (size_t)a.cols * sizeof(double));
    return a;
}

static matic_carr matic_carr_alloc(int rows, int cols) {
    matic_carr a;
    a.rows = rows > 0 ? rows : 0;
    a.cols = cols > 0 ? cols : 0;
    a.data = (matic_cx *)matic_alloc((size_t)a.rows * (size_t)a.cols * sizeof(matic_cx));
    memset(a.data, 0, (size_t)a.rows * (size_t)a.cols * sizeof(matic_cx));
    return a;
}

static int matic_numel(const matic_arr *a) { return a->rows * a->cols; }
static int matic_cnumel(const matic_carr *a) { return a->rows * a->cols; }

static void matic_fatal(const char *msg) {
    fprintf(stderr, "matic: %s\n", msg);
    exit(2);
}

static matic_arr matic_arr_clone(const matic_arr *src) {
    matic_arr a = matic_arr_alloc(src->rows, src->cols);
    memcpy(a.data, src->data, (size_t)src->rows * (size_t)src->cols * sizeof(double));
    return a;
}

static matic_carr matic_carr_clone(const matic_carr *src) {
    matic_carr a = matic_carr_alloc(src->rows, src->cols);
    memcpy(a.data, src->data, (size_t)src->rows * (size_t)src->cols * sizeof(matic_cx));
    return a;
}

/* MATLAB truthiness of arrays: nonempty and all elements nonzero. */
static int matic_all(const matic_arr *a) {
    int i, n = a->rows * a->cols;
    if (n == 0) return 0;
    for (i = 0; i < n; ++i) if (a->data[i] == 0.0) return 0;
    return 1;
}

static int matic_call(const matic_carr *a) {
    int i, n = a->rows * a->cols;
    if (n == 0) return 0;
    for (i = 0; i < n; ++i) if (a->data[i].re == 0.0 && a->data[i].im == 0.0) return 0;
    return 1;
}

/* Bounds trap: mirrors the interpreter's and simulator's "index out of
 * bounds" error so all three backends agree on erroring programs. */
static int matic_idx_check(int idx0, int n, const char *what) {
    if (idx0 < 0 || idx0 >= n) {
        fprintf(stderr, "matic: index out of bounds in %s (%d of %d)\n", what, idx0 + 1, n);
        exit(2);
    }
    return idx0;
}

/* Two-subscript bounds trap: each axis is checked on its own, so a row
 * past the last one traps instead of reading the next column. */
static int matic_idx2_check(int i0, int j0, int rows, int cols, const char *what) {
    if (i0 < 0 || i0 >= rows || j0 < 0 || j0 >= cols) {
        fprintf(stderr, "matic: index out of bounds in %s ((%d, %d) of %dx%d)\n",
                what, i0 + 1, j0 + 1, rows, cols);
        exit(2);
    }
    return j0 * rows + i0;
}

/* Broadcast element access inside element-wise loops: a 1x1 descriptor
 * broadcasts to every lane; anything else must be in range (never masked
 * by wrapping, which would silently return the wrong element). */
static int matic_bcast(int idx0, int n, const char *what) {
    if (n == 1) return 0;
    return matic_idx_check(idx0, n, what);
}

#ifdef MATIC_BOUNDS_CHECK
#define MATIC_IDX(i0, n, what) matic_idx_check((i0), (n), (what))
#define MATIC_IDX2(i0, j0, rows, cols, what) matic_idx2_check((i0), (j0), (rows), (cols), (what))
#else
#define MATIC_IDX(i0, n, what) (i0)
#define MATIC_IDX2(i0, j0, rows, cols, what) ((j0) * (rows) + (i0))
#endif

/* ---- complex helpers ---------------------------------------------------- */
static matic_cx cx_make(double re, double im) { matic_cx z; z.re = re; z.im = im; return z; }
static matic_cx cx_add(matic_cx a, matic_cx b) { return cx_make(a.re + b.re, a.im + b.im); }
static matic_cx cx_sub(matic_cx a, matic_cx b) { return cx_make(a.re - b.re, a.im - b.im); }
static matic_cx cx_mul(matic_cx a, matic_cx b) {
    return cx_make(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re);
}
static matic_cx cx_div(matic_cx a, matic_cx b) {
    double d;
    if (b.im == 0.0) return cx_make(a.re / b.re, a.im / b.re);
    d = b.re * b.re + b.im * b.im;
    return cx_make((a.re * b.re + a.im * b.im) / d, (a.im * b.re - a.re * b.im) / d);
}
static matic_cx cx_neg(matic_cx a) { return cx_make(-a.re, -a.im); }
static matic_cx cx_conj(matic_cx a) { return cx_make(a.re, -a.im); }
static double cx_abs(matic_cx a) { return hypot(a.re, a.im); }
static matic_cx cx_sqrt(matic_cx a) {
    double r, t, s;
    if (a.im == 0.0 && !(a.re < 0.0)) return cx_make(sqrt(a.re), 0.0);
    r = cx_abs(a);
    t = atan2(a.im, a.re) / 2.0;
    s = sqrt(r);
    return cx_make(s * cos(t), s * sin(t));
}
static matic_cx cx_exp(matic_cx a) {
    double m = exp(a.re);
    return cx_make(m * cos(a.im), a.im == 0.0 ? a.im : m * sin(a.im));
}
static matic_cx cx_log(matic_cx a) {
    if (a.im == 0.0 && !(a.re < 0.0)) return cx_make(log(a.re), 0.0);
    return cx_make(log(cx_abs(a)), atan2(a.im, a.re));
}
static matic_cx cx_scale(matic_cx a, double k) { return cx_make(a.re * k, a.im * k); }
static matic_cx cx_pow(matic_cx a, matic_cx b) {
    double lr, li, er, ei, m;
    if (a.im == 0.0 && b.im == 0.0) {
        if (a.re >= 0.0 || b.re == floor(b.re)) return cx_make(pow(a.re, b.re), 0.0);
    }
    if (a.re == 0.0 && a.im == 0.0) {
        return (b.re == 0.0 && b.im == 0.0) ? cx_make(1.0, 0.0) : cx_make(0.0, 0.0);
    }
    lr = log(cx_abs(a));
    li = atan2(a.im, a.re);
    er = lr * b.re - li * b.im;
    ei = lr * b.im + li * b.re;
    m = exp(er);
    return cx_make(m * cos(ei), m * sin(ei));
}
static double matic_mod(double a, double b) {
    if (b == 0.0) return a;
    return a - floor(a / b) * b;
}
static double matic_rem(double a, double b) {
    if (b == 0.0) return NAN;
    return a - ((a / b < 0) ? ceil(a / b) : floor(a / b)) * b;
}
static double matic_sign(double v) { return v > 0.0 ? 1.0 : (v < 0.0 ? -1.0 : (v == 0.0 ? 0.0 : v)); }
static matic_cx cx_sign(matic_cx a) {
    double m = cx_abs(a);
    return a.im == 0.0 ? cx_make(matic_sign(a.re), 0.0) : cx_make(a.re / m, a.im / m);
}
/* MATLAB rounds each part of a complex value on its own. */
static matic_cx cx_floor(matic_cx a) { return cx_make(floor(a.re), floor(a.im)); }
static matic_cx cx_ceil(matic_cx a) { return cx_make(ceil(a.re), ceil(a.im)); }
static matic_cx cx_round(matic_cx a) { return cx_make(round(a.re), round(a.im)); }
static matic_cx cx_fix(matic_cx a) { return cx_make(trunc(a.re), trunc(a.im)); }
/* Two-argument min/max: compare real parts, skip a NaN operand, and
 * return the second operand on a tie. */
static matic_cx cx_min(matic_cx a, matic_cx b) { return (a.re < b.re || isnan(b.re)) ? a : b; }
static matic_cx cx_max(matic_cx a, matic_cx b) { return (a.re > b.re || isnan(b.re)) ? a : b; }

#endif /* MATIC_RT_H */
"#;

/// Generates `matic_intrinsics.h` for a target, using the target's
/// intrinsic-name prefix.
///
/// Each function takes `(pointer, stride)` pairs so the same intrinsic
/// serves contiguous, strided, reversed and broadcast (stride 0) access —
/// mirroring how ASIP vector units address memory through their AGUs.
pub fn intrinsics_header(spec: &IsaSpec) -> String {
    let p = &spec.intrinsic_prefix;
    format!(
        r#"/* matic_intrinsics.h - custom instructions of target `{name}` (generated) */
#ifndef MATIC_INTRINSICS_H
#define MATIC_INTRINSICS_H

#include "matic_rt.h"

/* On the real ASIP these functions are recognized by the vendor C compiler
 * and mapped to single custom instructions; the portable definitions below
 * are the host-execution fallback. */
#ifndef MATIC_TARGET_ASIP

/* ---- SIMD: real lanes ---- */
static void {p}_vadd(double *d, int ds, const double *a, int as_, const double *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = a[i * as_] + b[i * bs];
}}
static void {p}_vsub(double *d, int ds, const double *a, int as_, const double *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = a[i * as_] - b[i * bs];
}}
static void {p}_vmul(double *d, int ds, const double *a, int as_, const double *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = a[i * as_] * b[i * bs];
}}
static void {p}_vdiv(double *d, int ds, const double *a, int as_, const double *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = a[i * as_] / b[i * bs];
}}
static void {p}_vneg(double *d, int ds, const double *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = -a[i * as_];
}}
static void {p}_vcopy(double *d, int ds, const double *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = a[i * as_];
}}
static void {p}_vabs(double *d, int ds, const double *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = fabs(a[i * as_]);
}}
static void {p}_vsqrt(double *d, int ds, const double *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = sqrt(a[i * as_]);
}}
static void {p}_vmac(double *acc, const double *a, int as_, const double *b, int bs, int n) {{
    int i; double s = *acc;
    for (i = 0; i < n; ++i) s += a[i * as_] * b[i * bs];
    *acc = s;
}}
static void {p}_vredadd(double *acc, const double *a, int as_, int n) {{
    int i; double s = *acc;
    for (i = 0; i < n; ++i) s += a[i * as_];
    *acc = s;
}}
static void {p}_vredmul(double *acc, const double *a, int as_, int n) {{
    int i; double s = *acc;
    for (i = 0; i < n; ++i) s *= a[i * as_];
    *acc = s;
}}

/* ---- complex-arithmetic custom instructions ---- */
static matic_cx {p}_cadd(matic_cx a, matic_cx b) {{ return cx_add(a, b); }}
static matic_cx {p}_csub(matic_cx a, matic_cx b) {{ return cx_sub(a, b); }}
static matic_cx {p}_cmul(matic_cx a, matic_cx b) {{ return cx_mul(a, b); }}
static matic_cx {p}_cconj(matic_cx a) {{ return cx_conj(a); }}
static matic_cx {p}_cmac(matic_cx acc, matic_cx a, matic_cx b) {{ return cx_add(acc, cx_mul(a, b)); }}

/* ---- SIMD: complex lanes ---- */
static void {p}_vcadd(matic_cx *d, int ds, const matic_cx *a, int as_, const matic_cx *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = cx_add(a[i * as_], b[i * bs]);
}}
static void {p}_vcsub(matic_cx *d, int ds, const matic_cx *a, int as_, const matic_cx *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = cx_sub(a[i * as_], b[i * bs]);
}}
static void {p}_vcmul(matic_cx *d, int ds, const matic_cx *a, int as_, const matic_cx *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = cx_mul(a[i * as_], b[i * bs]);
}}
static void {p}_vcdiv(matic_cx *d, int ds, const matic_cx *a, int as_, const matic_cx *b, int bs, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = cx_div(a[i * as_], b[i * bs]);
}}
static void {p}_vcneg(matic_cx *d, int ds, const matic_cx *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = cx_neg(a[i * as_]);
}}
static void {p}_vccopy(matic_cx *d, int ds, const matic_cx *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = a[i * as_];
}}
static void {p}_vcconj(matic_cx *d, int ds, const matic_cx *a, int as_, int n) {{
    int i; for (i = 0; i < n; ++i) d[i * ds] = cx_conj(a[i * as_]);
}}
static void {p}_vcmac(matic_cx *acc, const matic_cx *a, int as_, const matic_cx *b, int bs, int n) {{
    int i; matic_cx s = *acc;
    for (i = 0; i < n; ++i) s = cx_add(s, cx_mul(a[i * as_], b[i * bs]));
    *acc = s;
}}
static void {p}_vcredadd(matic_cx *acc, const matic_cx *a, int as_, int n) {{
    int i; matic_cx s = *acc;
    for (i = 0; i < n; ++i) s = cx_add(s, a[i * as_]);
    *acc = s;
}}

#endif /* MATIC_TARGET_ASIP */
#endif /* MATIC_INTRINSICS_H */
"#,
        name = spec.name,
        p = p
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rt_header_is_self_contained() {
        assert!(RT_HEADER.contains("matic_arr_alloc"));
        assert!(RT_HEADER.contains("cx_mul"));
        assert!(RT_HEADER.contains("MATIC_POOL_BYTES"));
    }

    #[test]
    fn intrinsics_use_prefix() {
        let spec = IsaSpec::dsp16();
        let h = intrinsics_header(&spec);
        assert!(h.contains("__asip_vmac"));
        assert!(h.contains("__asip_cmul"));
        assert!(h.contains("__asip_vcmac"));
        let mut other = spec;
        other.intrinsic_prefix = "__dsp".to_string();
        let h2 = intrinsics_header(&other);
        assert!(h2.contains("__dsp_vmac"));
        assert!(!h2.contains("__asip_vmac"));
    }
}

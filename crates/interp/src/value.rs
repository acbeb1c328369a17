//! The MATLAB value model: column-major complex matrices plus strings and
//! function handles.

use crate::cx::Cx;
use matic_frontend::ast::Expr;
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A 2-D column-major matrix of complex doubles — MATLAB's one numeric type.
///
/// Scalars are 1×1 matrices, vectors are 1×N or N×1. A matrix tracks
/// whether it is `logical` (the result of a comparison) because MATLAB
/// logical arrays index differently from numeric ones.
///
/// Element storage is reference-counted with copy-on-write: `clone` is
/// O(1) and shares the payload, and the first mutation through
/// [`Matrix::data_mut`]/[`Matrix::at_mut`] on a shared payload copies it.
/// MATLAB value semantics are preserved — the sharing is unobservable —
/// but the simulator's operand reads and value-copy assignments stop
/// allocating.
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Rc<Vec<Cx>>,
    logical: bool,
    /// Memoized "all elements real" answer; `None` until first queried,
    /// reset on any mutable access. Purely a cache — never part of the
    /// value (excluded from `PartialEq`).
    real: Cell<Option<bool>>,
}

// The realness cache is not part of the value.
impl PartialEq for Matrix {
    fn eq(&self, other: &Matrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.logical == other.logical
            && self.data == other.data
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data)
            .field("logical", &self.logical)
            .finish()
    }
}

impl Matrix {
    /// Creates a matrix from column-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<Cx>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix {
            rows,
            cols,
            data: Rc::new(data),
            logical: false,
            real: Cell::new(None),
        }
    }

    /// A 1×1 matrix holding `v`.
    pub fn scalar(v: Cx) -> Matrix {
        Matrix::new(1, 1, vec![v])
    }

    /// A 1×1 real matrix.
    pub fn from_f64(v: f64) -> Matrix {
        Matrix::scalar(Cx::real(v))
    }

    /// A 1×1 logical matrix.
    pub fn logical_scalar(b: bool) -> Matrix {
        Matrix::scalar(Cx::real(if b { 1.0 } else { 0.0 })).into_logical()
    }

    /// A 1×N row vector from real values.
    pub fn row_from_f64(values: &[f64]) -> Matrix {
        Matrix::new(
            1,
            values.len(),
            values.iter().map(|&v| Cx::real(v)).collect(),
        )
    }

    /// An N×1 column vector from real values.
    pub fn col_from_f64(values: &[f64]) -> Matrix {
        Matrix::new(
            values.len(),
            1,
            values.iter().map(|&v| Cx::real(v)).collect(),
        )
    }

    /// A 1×N row vector from complex values.
    pub fn row(values: Vec<Cx>) -> Matrix {
        let n = values.len();
        Matrix::new(1, n, values)
    }

    /// The 0×0 empty matrix.
    pub fn empty() -> Matrix {
        Matrix::new(0, 0, Vec::new())
    }

    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix::new(rows, cols, vec![Cx::ZERO; rows * cols])
    }

    /// An all-one matrix.
    pub fn ones(rows: usize, cols: usize) -> Matrix {
        Matrix::new(rows, cols, vec![Cx::ONE; rows * cols])
    }

    /// The identity matrix (rectangular `eye` like MATLAB's).
    pub fn eye(rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows.min(cols) {
            *m.at_mut(i, i) = Cx::ONE;
        }
        m
    }

    /// `start : step : stop` as a row vector; empty when the range is
    /// degenerate (matching MATLAB).
    pub fn range(start: f64, step: f64, stop: f64) -> Matrix {
        if step == 0.0
            || (step > 0.0 && start > stop)
            || (step < 0.0 && start < stop)
            || !start.is_finite()
            || !step.is_finite()
        {
            return Matrix::new(1, 0, Vec::new());
        }
        let n = ((stop - start) / step + 1e-10).floor() as usize + 1;
        let data: Vec<Cx> = (0..n).map(|k| Cx::real(start + step * k as f64)).collect();
        Matrix::new(1, data.len(), data)
    }

    /// Marks the matrix logical (0/1 comparison result).
    pub fn into_logical(mut self) -> Matrix {
        self.logical = true;
        self
    }

    /// Whether this is a logical (comparison-result) matrix.
    pub fn is_logical(&self) -> bool {
        self.logical
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// MATLAB `length`: the longer dimension, 0 when empty.
    pub fn length(&self) -> usize {
        if self.numel() == 0 {
            0
        } else {
            self.rows.max(self.cols)
        }
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the matrix is 1×1.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Whether the matrix is a row or column vector (including scalars).
    pub fn is_vector(&self) -> bool {
        !self.is_empty() && (self.rows == 1 || self.cols == 1)
    }

    /// Whether all elements have zero imaginary part.
    ///
    /// The answer is memoized (cost-model code asks repeatedly for the
    /// same matrix); any mutable access clears the memo.
    pub fn is_real(&self) -> bool {
        if let Some(r) = self.real.get() {
            return r;
        }
        let r = self.data.iter().all(|z| z.is_real());
        self.real.set(Some(r));
        r
    }

    /// Column-major element slice.
    pub fn data(&self) -> &[Cx] {
        &self.data
    }

    /// `Matrix::zeros(rows, cols)`, in this matrix's buffer when it is an
    /// unshared, non-logical `rows`×`cols` matrix.
    pub fn into_zeros(mut self, rows: usize, cols: usize) -> Matrix {
        match Rc::get_mut(&mut self.data) {
            Some(data) if !self.logical && (self.rows, self.cols) == (rows, cols) => {
                data.fill(Cx::ZERO);
                self.real.set(None);
                self
            }
            _ => Matrix::zeros(rows, cols),
        }
    }

    /// Mutable column-major element slice (shape is fixed; only element
    /// values may change). Detaches from any sharers first (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [Cx] {
        self.real.set(None);
        Rc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The element vector by value, avoiding a copy when unshared.
    fn take_data(&mut self) -> Vec<Cx> {
        self.real.set(None);
        let rc = std::mem::take(&mut self.data);
        Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone())
    }

    /// Element at 0-based `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, row: usize, col: usize) -> Cx {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[col * self.rows + row]
    }

    /// Mutable element at 0-based `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut Cx {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let k = col * self.rows + row;
        &mut self.data_mut()[k]
    }

    /// Element at 0-based column-major linear index.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn lin(&self, k: usize) -> Cx {
        self.data[k]
    }

    /// The single element of a 1×1 matrix.
    pub fn as_scalar(&self) -> Result<Cx, String> {
        if self.is_scalar() {
            Ok(self.data[0])
        } else {
            Err(format!(
                "expected scalar, got {}x{} matrix",
                self.rows, self.cols
            ))
        }
    }

    /// The single element as a real number; errors when complex or non-scalar.
    pub fn as_real_scalar(&self) -> Result<f64, String> {
        let z = self.as_scalar()?;
        if z.is_real() {
            Ok(z.re)
        } else {
            Err("expected real scalar, got complex value".to_string())
        }
    }

    /// MATLAB truthiness: nonempty and every element nonzero.
    pub fn as_bool(&self) -> bool {
        !self.is_empty() && self.data.iter().all(|z| z.re != 0.0 || z.im != 0.0)
    }

    /// Applies `f` to every element, preserving shape.
    pub fn map(&self, f: impl Fn(Cx) -> Cx) -> Matrix {
        Matrix::new(
            self.rows,
            self.cols,
            self.data.iter().map(|&z| f(z)).collect(),
        )
    }

    /// Element-wise combine with scalar broadcast (MATLAB pre-2016b rules:
    /// shapes must match exactly unless one side is scalar).
    pub fn zip(&self, other: &Matrix, f: impl Fn(Cx, Cx) -> Cx) -> Result<Matrix, String> {
        if self.is_scalar() {
            let a = self.data[0];
            return Ok(other.map(|b| f(a, b)));
        }
        if other.is_scalar() {
            let b = other.data[0];
            return Ok(self.map(|a| f(a, b)));
        }
        if self.rows != other.rows || self.cols != other.cols {
            return Err(format!(
                "matrix dimensions must agree ({}x{} vs {}x{})",
                self.rows, self.cols, other.rows, other.cols
            ));
        }
        Ok(Matrix::new(
            self.rows,
            self.cols,
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        ))
    }

    /// Element-wise comparison producing a logical matrix.
    pub fn compare(&self, other: &Matrix, f: impl Fn(Cx, Cx) -> bool) -> Result<Matrix, String> {
        let m = self.zip(other, |a, b| Cx::real(if f(a, b) { 1.0 } else { 0.0 }))?;
        Ok(m.into_logical())
    }

    /// Matrix multiply (also handles scalar × matrix).
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, String> {
        if self.is_scalar() || other.is_scalar() {
            return self.zip(other, |a, b| a * b);
        }
        if self.cols != other.rows {
            return Err(format!(
                "inner matrix dimensions must agree ({}x{} * {}x{})",
                self.rows, self.cols, other.rows, other.cols
            ));
        }
        let (a, b) = (self.data.as_slice(), other.data.as_slice());
        let mut out = vec![Cx::ZERO; self.rows * other.cols];
        for j in 0..other.cols {
            let col = &mut out[j * self.rows..(j + 1) * self.rows];
            for k in 0..self.cols {
                let bkj = b[j * other.rows + k];
                if bkj == Cx::ZERO {
                    continue;
                }
                let ak = &a[k * self.rows..(k + 1) * self.rows];
                for (o, &aik) in col.iter_mut().zip(ak) {
                    *o = *o + aik * bkj;
                }
            }
        }
        Ok(Matrix::new(self.rows, other.cols, out))
    }

    /// Transpose; conjugates elements when `conjugate` is true (`'`).
    pub fn transpose(&self, conjugate: bool) -> Matrix {
        // A vector transposes by relabeling its dimensions: the
        // column-major layout is unchanged, so the payload can be shared
        // (unless elements must be conjugated). Result is never logical,
        // matching the general path below.
        if (self.rows <= 1 || self.cols <= 1) && (!conjugate || self.is_real()) {
            return Matrix {
                rows: self.cols,
                cols: self.rows,
                data: Rc::clone(&self.data),
                logical: false,
                real: self.real.clone(),
            };
        }
        let mut out = vec![Cx::ZERO; self.data.len()];
        for c in 0..self.cols {
            for r in 0..self.rows {
                let v = self.data[c * self.rows + r];
                out[r * self.cols + c] = if conjugate { v.conj() } else { v };
            }
        }
        Matrix::new(self.cols, self.rows, out)
    }

    /// Horizontal concatenation `[a, b]`.
    pub fn horzcat(&self, other: &Matrix) -> Result<Matrix, String> {
        if self.is_empty() {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        if self.rows != other.rows {
            return Err("horizontal concatenation row mismatch".to_string());
        }
        let mut data = (*self.data).clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix::new(self.rows, self.cols + other.cols, data))
    }

    /// Vertical concatenation `[a; b]`.
    pub fn vertcat(&self, other: &Matrix) -> Result<Matrix, String> {
        if self.is_empty() {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        if self.cols != other.cols {
            return Err("vertical concatenation column mismatch".to_string());
        }
        let mut out = Matrix::zeros(self.rows + other.rows, self.cols);
        for c in 0..self.cols {
            for r in 0..self.rows {
                *out.at_mut(r, c) = self.at(r, c);
            }
            for r in 0..other.rows {
                *out.at_mut(self.rows + r, c) = other.at(r, c);
            }
        }
        Ok(out)
    }

    /// Converts an index matrix into 0-based linear indices, applying
    /// MATLAB logical-indexing rules when `self`-sized logical masks are
    /// used. `limit` is the extent being indexed (for bounds checks).
    fn index_positions(idx: &Matrix, limit: usize) -> Result<Vec<usize>, String> {
        if idx.is_logical() {
            if idx.numel() > limit {
                return Err("logical index too long".to_string());
            }
            return Ok(idx
                .data
                .iter()
                .enumerate()
                .filter(|(_, z)| z.re != 0.0)
                .map(|(k, _)| k)
                .collect());
        }
        idx.data
            .iter()
            .map(|z| {
                if !z.is_real() {
                    return Err("index must be real".to_string());
                }
                let v = z.re;
                if v < 1.0 || v != v.trunc() {
                    return Err(format!("index must be a positive integer, got {v}"));
                }
                let k = v as usize - 1;
                if k >= limit {
                    return Err(format!("index {v} out of bounds (extent {limit})"));
                }
                Ok(k)
            })
            .collect()
    }

    /// Linear indexing `A(idx)`.
    ///
    /// Result orientation follows MATLAB: if `A` is a vector and `idx` is a
    /// vector, the result keeps `A`'s orientation; otherwise it keeps the
    /// shape of `idx`.
    pub fn index_linear(&self, idx: &Matrix) -> Result<Matrix, String> {
        let positions = Self::index_positions(idx, self.numel())?;
        let data: Vec<Cx> = positions.iter().map(|&k| self.data[k]).collect();
        let n = data.len();
        let (rows, cols) = if idx.is_logical() || (self.is_vector() && idx.is_vector()) {
            if self.rows == 1 {
                (1, n)
            } else {
                (n, 1)
            }
        } else {
            (idx.rows, idx.cols)
        };
        if rows * cols != n {
            // Falls back to a row when logical masks shrink the count.
            return Ok(Matrix::new(1, n, data));
        }
        Ok(Matrix::new(rows, cols, data))
    }

    /// 2-D indexing `A(ri, ci)` where either index may be a vector.
    pub fn index_2d(&self, ri: &Matrix, ci: &Matrix) -> Result<Matrix, String> {
        let rpos = Self::index_positions(ri, self.rows)?;
        let cpos = Self::index_positions(ci, self.cols)?;
        let mut out = Matrix::zeros(rpos.len(), cpos.len());
        for (jo, &j) in cpos.iter().enumerate() {
            for (io, &i) in rpos.iter().enumerate() {
                *out.at_mut(io, jo) = self.at(i, j);
            }
        }
        Ok(out)
    }

    /// All indices of one dimension, used for `:` subscripts.
    pub fn colon_index(extent: usize) -> Matrix {
        Matrix::new(
            1,
            extent,
            (1..=extent).map(|k| Cx::real(k as f64)).collect(),
        )
    }

    /// Linear indexed assignment `A(idx) = rhs`, growing a vector if the
    /// index exceeds the current extent (MATLAB auto-grow).
    pub fn assign_linear(&mut self, idx: &Matrix, rhs: &Matrix) -> Result<(), String> {
        // Determine required extent for growth.
        let mut max_needed = 0usize;
        if idx.is_logical() {
            max_needed = idx.numel();
        } else {
            for z in idx.data.iter() {
                if !z.is_real() || z.re < 1.0 || z.re != z.re.trunc() {
                    return Err("index must be a positive integer".to_string());
                }
                max_needed = max_needed.max(z.re as usize);
            }
        }
        if max_needed > self.numel() {
            self.grow_linear(max_needed)?;
        }
        let positions = Self::index_positions(idx, self.numel())?;
        let data = self.data_mut();
        if rhs.is_scalar() {
            let v = rhs.data[0];
            for &k in &positions {
                data[k] = v;
            }
        } else {
            if rhs.numel() != positions.len() {
                return Err("assignment size mismatch".to_string());
            }
            for (n, &k) in positions.iter().enumerate() {
                data[k] = rhs.data[n];
            }
        }
        Ok(())
    }

    fn grow_linear(&mut self, needed: usize) -> Result<(), String> {
        if self.is_empty() {
            *self = Matrix::zeros(1, needed);
            Ok(())
        } else if self.rows == 1 {
            let mut data = self.take_data();
            data.resize(needed, Cx::ZERO);
            *self = Matrix::new(1, needed, data);
            Ok(())
        } else if self.cols == 1 {
            let mut data = self.take_data();
            data.resize(needed, Cx::ZERO);
            *self = Matrix::new(needed, 1, data);
            Ok(())
        } else {
            Err("linear index out of bounds for matrix assignment".to_string())
        }
    }

    /// 2-D indexed assignment `A(ri, ci) = rhs`, growing the matrix when
    /// indices exceed its extent.
    pub fn assign_2d(&mut self, ri: &Matrix, ci: &Matrix, rhs: &Matrix) -> Result<(), String> {
        let mut max_r = 0usize;
        let mut max_c = 0usize;
        for z in ri.data.iter() {
            if !z.is_real() || z.re < 1.0 || z.re != z.re.trunc() {
                return Err("row index must be a positive integer".to_string());
            }
            max_r = max_r.max(z.re as usize);
        }
        for z in ci.data.iter() {
            if !z.is_real() || z.re < 1.0 || z.re != z.re.trunc() {
                return Err("column index must be a positive integer".to_string());
            }
            max_c = max_c.max(z.re as usize);
        }
        if max_r > self.rows || max_c > self.cols {
            let new_rows = self.rows.max(max_r);
            let new_cols = self.cols.max(max_c);
            let mut grown = Matrix::zeros(new_rows, new_cols);
            for c in 0..self.cols {
                for r in 0..self.rows {
                    *grown.at_mut(r, c) = self.at(r, c);
                }
            }
            *self = grown;
        }
        let rpos = Self::index_positions(ri, self.rows)?;
        let cpos = Self::index_positions(ci, self.cols)?;
        if rhs.is_scalar() {
            let v = rhs.data[0];
            for &j in &cpos {
                for &i in &rpos {
                    *self.at_mut(i, j) = v;
                }
            }
        } else {
            if rhs.numel() != rpos.len() * cpos.len() {
                return Err("assignment size mismatch".to_string());
            }
            for (jo, &j) in cpos.iter().enumerate() {
                for (io, &i) in rpos.iter().enumerate() {
                    *self.at_mut(i, j) = rhs.at(io, jo);
                }
            }
        }
        Ok(())
    }

    /// Reshapes in column-major order.
    pub fn reshape(&self, rows: usize, cols: usize) -> Result<Matrix, String> {
        if rows * cols != self.numel() {
            return Err("reshape element count mismatch".to_string());
        }
        // Same elements, new shape: share the payload (copy-on-write).
        Ok(Matrix {
            rows,
            cols,
            data: Rc::clone(&self.data),
            logical: false,
            real: self.real.clone(),
        })
    }

    /// Reduction over MATLAB's default dimension: columns for matrices,
    /// the whole thing for vectors. `init`/`fold` define the reduction.
    pub fn reduce(&self, init: Cx, fold: impl Fn(Cx, Cx) -> Cx) -> Matrix {
        if self.is_empty() {
            return Matrix::scalar(init);
        }
        if self.is_vector() {
            let acc = self.data.iter().fold(init, |a, &b| fold(a, b));
            return Matrix::scalar(acc);
        }
        let mut out = Matrix::zeros(1, self.cols);
        for c in 0..self.cols {
            let mut acc = init;
            for r in 0..self.rows {
                acc = fold(acc, self.at(r, c));
            }
            *out.at_mut(0, c) = acc;
        }
        out
    }

    /// The `k`-th column as an N×1 vector (for `for` iteration).
    ///
    /// # Panics
    ///
    /// Panics if `k >= cols`.
    pub fn column(&self, k: usize) -> Matrix {
        assert!(k < self.cols);
        let start = k * self.rows;
        Matrix::new(self.rows, 1, self.data[start..start + self.rows].to_vec())
    }

    /// Maximum absolute element-wise difference to another matrix;
    /// `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max),
        )
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_scalar() {
            return write!(f, "{}", self.data[0]);
        }
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(10) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(10) {
                write!(f, "{:>12} ", self.at(r, c).to_string())?;
            }
            if self.cols > 10 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 10 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

/// An anonymous-function closure: parameters, body and captured variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    /// Parameter names.
    pub params: Vec<String>,
    /// Body expression.
    pub body: Expr,
    /// Captured `(name, value)` bindings from the defining scope.
    pub captures: Vec<(String, Value)>,
}

/// Any MATLAB runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numeric / logical matrix (the common case).
    Num(Matrix),
    /// Character string.
    Str(String),
    /// Named function handle `@f`.
    FnHandle(String),
    /// Anonymous function `@(x) ...`.
    Anon(Rc<Closure>),
}

impl Value {
    /// Convenience: a real scalar value.
    pub fn scalar(v: f64) -> Value {
        Value::Num(Matrix::from_f64(v))
    }

    /// The contained matrix, or an error for non-numeric values.
    pub fn as_matrix(&self) -> Result<&Matrix, String> {
        match self {
            Value::Num(m) => Ok(m),
            Value::Str(_) => Err("expected numeric value, got string".to_string()),
            Value::FnHandle(_) | Value::Anon(_) => {
                Err("expected numeric value, got function handle".to_string())
            }
        }
    }

    /// Consumes into a matrix, converting strings to character-code rows
    /// (MATLAB implicit char→double conversion).
    pub fn into_matrix(self) -> Result<Matrix, String> {
        match self {
            Value::Num(m) => Ok(m),
            Value::Str(s) => Ok(Matrix::row(
                s.chars().map(|c| Cx::real(c as u32 as f64)).collect(),
            )),
            Value::FnHandle(_) | Value::Anon(_) => {
                Err("expected numeric value, got function handle".to_string())
            }
        }
    }

    /// MATLAB truthiness of the value.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Num(m) => Ok(m.as_bool()),
            Value::Str(s) => Ok(!s.is_empty()),
            _ => Err("function handle used as condition".to_string()),
        }
    }
}

impl From<Matrix> for Value {
    fn from(m: Matrix) -> Value {
        Value::Num(m)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(m) => write!(f, "{m}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::FnHandle(n) => write!(f, "@{n}"),
            Value::Anon(c) => write!(f, "@({}) <expr>", c.params.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
        Matrix::new(rows, cols, vals.iter().map(|&v| Cx::real(v)).collect())
    }

    #[test]
    fn into_zeros_reuses_only_an_unshared_buffer_of_the_shape() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let ptr = a.data().as_ptr();
        let z = a.into_zeros(1, 3);
        assert_eq!(z, Matrix::zeros(1, 3));
        assert_eq!(z.data().as_ptr(), ptr, "unshared buffer reused");
        let b = m(1, 3, &[1.0, 2.0, 3.0]);
        let keep = b.clone();
        assert_eq!(b.into_zeros(1, 3), Matrix::zeros(1, 3));
        assert_eq!(keep, m(1, 3, &[1.0, 2.0, 3.0]), "a sharer keeps its values");
        assert_eq!(
            m(3, 1, &[1.0, 2.0, 3.0]).into_zeros(1, 3),
            Matrix::zeros(1, 3)
        );
        let logical = m(1, 2, &[1.0, 0.0]).into_logical().into_zeros(1, 2);
        assert!(!logical.is_logical());
    }

    #[test]
    fn column_major_layout() {
        // [1 3; 2 4] stored column-major as [1 2 3 4].
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.at(0, 0).re, 1.0);
        assert_eq!(a.at(1, 0).re, 2.0);
        assert_eq!(a.at(0, 1).re, 3.0);
        assert_eq!(a.at(1, 1).re, 4.0);
    }

    #[test]
    fn range_construction() {
        let r = Matrix::range(1.0, 1.0, 5.0);
        assert_eq!(r.numel(), 5);
        assert_eq!(r.lin(4).re, 5.0);
        let r = Matrix::range(0.0, 0.5, 2.0);
        assert_eq!(r.numel(), 5);
        let r = Matrix::range(5.0, -1.0, 1.0);
        assert_eq!(r.numel(), 5);
        assert_eq!(r.lin(0).re, 5.0);
        let empty = Matrix::range(2.0, 1.0, 1.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn zip_broadcast() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let s = Matrix::from_f64(10.0);
        let r = a.zip(&s, |x, y| x * y).unwrap();
        assert_eq!(r.at(1, 1).re, 40.0);
        let r = s.zip(&a, |x, y| x - y).unwrap();
        assert_eq!(r.at(0, 0).re, 9.0);
    }

    #[test]
    fn zip_shape_mismatch_errors() {
        let a = m(2, 2, &[1.0; 4]);
        let b = m(1, 4, &[1.0; 4]);
        assert!(a.zip(&b, |x, _| x).is_err());
    }

    #[test]
    fn matmul_basics() {
        let a = m(2, 3, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // [1 2 3; 4 5 6]
        let b = m(3, 1, &[1.0, 1.0, 1.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.at(0, 0).re, 6.0);
        assert_eq!(c.at(1, 0).re, 15.0);
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(2, 3, &[0.0; 6]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn conjugate_transpose() {
        let a = Matrix::new(1, 2, vec![Cx::new(1.0, 2.0), Cx::new(3.0, -4.0)]);
        let t = a.transpose(true);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.at(0, 0), Cx::new(1.0, -2.0));
        let t2 = a.transpose(false);
        assert_eq!(t2.at(0, 0), Cx::new(1.0, 2.0));
    }

    #[test]
    fn linear_indexing_orientation() {
        let row = Matrix::row_from_f64(&[10.0, 20.0, 30.0]);
        let idx = Matrix::col_from_f64(&[1.0, 3.0]);
        // Vector indexed by vector keeps the base orientation.
        let r = row.index_linear(&idx).unwrap();
        assert_eq!((r.rows(), r.cols()), (1, 2));
        assert_eq!(r.lin(1).re, 30.0);
    }

    #[test]
    fn matrix_linear_indexing_is_column_major() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let idx = Matrix::row_from_f64(&[3.0]);
        assert_eq!(a.index_linear(&idx).unwrap().lin(0).re, 3.0);
    }

    #[test]
    fn index_out_of_bounds() {
        let a = Matrix::row_from_f64(&[1.0, 2.0]);
        assert!(a.index_linear(&Matrix::from_f64(3.0)).is_err());
        assert!(a.index_linear(&Matrix::from_f64(0.0)).is_err());
        assert!(a.index_linear(&Matrix::from_f64(1.5)).is_err());
    }

    #[test]
    fn two_d_indexing() {
        let a = m(2, 3, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let sub = a
            .index_2d(&Matrix::from_f64(2.0), &Matrix::row_from_f64(&[1.0, 3.0]))
            .unwrap();
        assert_eq!((sub.rows(), sub.cols()), (1, 2));
        assert_eq!(sub.lin(0).re, 4.0);
        assert_eq!(sub.lin(1).re, 6.0);
    }

    #[test]
    fn logical_indexing() {
        let a = Matrix::row_from_f64(&[5.0, -1.0, 7.0]);
        let mask = Matrix::row_from_f64(&[1.0, 0.0, 1.0]).into_logical();
        let picked = a.index_linear(&mask).unwrap();
        assert_eq!(picked.numel(), 2);
        assert_eq!(picked.lin(1).re, 7.0);
    }

    #[test]
    fn assign_with_growth_row() {
        let mut a = Matrix::empty();
        a.assign_linear(&Matrix::from_f64(3.0), &Matrix::from_f64(9.0))
            .unwrap();
        assert_eq!((a.rows(), a.cols()), (1, 3));
        assert_eq!(a.lin(2).re, 9.0);
        assert_eq!(a.lin(0).re, 0.0);
    }

    #[test]
    fn assign_2d_growth() {
        let mut a = Matrix::zeros(1, 1);
        a.assign_2d(
            &Matrix::from_f64(2.0),
            &Matrix::from_f64(3.0),
            &Matrix::from_f64(7.0),
        )
        .unwrap();
        assert_eq!((a.rows(), a.cols()), (2, 3));
        assert_eq!(a.at(1, 2).re, 7.0);
    }

    #[test]
    fn assign_scalar_fanout() {
        let mut a = Matrix::zeros(1, 4);
        a.assign_linear(&Matrix::row_from_f64(&[1.0, 3.0]), &Matrix::from_f64(5.0))
            .unwrap();
        assert_eq!(a.lin(0).re, 5.0);
        assert_eq!(a.lin(1).re, 0.0);
        assert_eq!(a.lin(2).re, 5.0);
    }

    #[test]
    fn reduce_vector_and_matrix() {
        let v = Matrix::row_from_f64(&[1.0, 2.0, 3.0]);
        assert_eq!(
            v.reduce(Cx::ZERO, |a, b| a + b).as_scalar().unwrap().re,
            6.0
        );
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let s = a.reduce(Cx::ZERO, |x, y| x + y);
        assert_eq!((s.rows(), s.cols()), (1, 2));
        assert_eq!(s.lin(0).re, 3.0);
        assert_eq!(s.lin(1).re, 7.0);
    }

    #[test]
    fn concatenation() {
        let a = Matrix::row_from_f64(&[1.0, 2.0]);
        let b = Matrix::row_from_f64(&[3.0]);
        let h = a.horzcat(&b).unwrap();
        assert_eq!(h.numel(), 3);
        let v = a.vertcat(&Matrix::row_from_f64(&[4.0, 5.0])).unwrap();
        assert_eq!((v.rows(), v.cols()), (2, 2));
        assert_eq!(v.at(1, 0).re, 4.0);
    }

    #[test]
    fn truthiness() {
        assert!(Matrix::from_f64(1.0).as_bool());
        assert!(!Matrix::from_f64(0.0).as_bool());
        assert!(!Matrix::empty().as_bool());
        assert!(!Matrix::row_from_f64(&[1.0, 0.0]).as_bool());
        assert!(Matrix::row_from_f64(&[1.0, 2.0]).as_bool());
    }

    #[test]
    fn string_to_matrix_conversion() {
        let v = Value::Str("AB".to_string());
        let m = v.into_matrix().unwrap();
        assert_eq!(m.lin(0).re, 65.0);
        assert_eq!(m.lin(1).re, 66.0);
    }

    #[test]
    fn eye_rectangular() {
        let e = Matrix::eye(2, 3);
        assert_eq!(e.at(0, 0).re, 1.0);
        assert_eq!(e.at(1, 1).re, 1.0);
        assert_eq!(e.at(0, 1).re, 0.0);
        assert_eq!(e.at(1, 2).re, 0.0);
    }

    #[test]
    fn column_extraction() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let c1 = a.column(1);
        assert_eq!((c1.rows(), c1.cols()), (2, 1));
        assert_eq!(c1.lin(0).re, 3.0);
    }
}

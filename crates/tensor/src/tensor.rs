//! The dense row-major 2-D tensor type.
//!
//! Everything in the mini-Llama is a matrix of shape `[rows, cols]`
//! (tokens × features, or features × features for weights), so the tensor
//! type is deliberately 2-D; vectors are `[1, n]` or `[n, 1]` as
//! convenient.
//!
//! Storage is a `Vec<f32>` plus a start offset: when a tensor is served
//! by an installed [`crate::arena::TensorArena`], the buffer is slightly
//! over-allocated and `off` places the payload on a 64-byte boundary.
//! Dropping a tensor hands the buffer back to the arena (if one is
//! installed on the dropping thread); otherwise it frees normally. All
//! public accessors see only the `[off, off + rows * cols)` payload, so
//! pooling is invisible to callers and to results.

use std::fmt;

use crate::arena;

/// A dense row-major matrix of `f32`.
pub struct Tensor {
    rows: usize,
    cols: usize,
    /// Start of the payload inside `data` (0 for plain allocations,
    /// an alignment offset for arena-served buffers).
    off: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let n = self.rows * self.cols;
        if n > 0 {
            if let Some((mut data, off)) = arena::acquire_raw(self.rows, self.cols, false) {
                data[off..off + n].copy_from_slice(self.data());
                return Self {
                    rows: self.rows,
                    cols: self.cols,
                    off,
                    data,
                };
            }
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            off: 0,
            data: self.data().to_vec(),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data() == other.data()
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut self.data);
        // Recycles into the installed arena, or frees `buf` normally.
        arena::give_back(self.rows, self.cols, buf);
    }
}

impl Tensor {
    /// An all-zeros tensor (served from the installed arena, if any).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        if n > 0 {
            if let Some((data, off)) = arena::acquire_raw(rows, cols, true) {
                return Self {
                    rows,
                    cols,
                    off,
                    data,
                };
            }
        }
        Self {
            rows,
            cols,
            off: 0,
            data: vec![0.0; n],
        }
    }

    /// Like [`zeros`](Self::zeros) but without the zero-fill — for
    /// internal use where every payload element is written before the
    /// tensor escapes.
    pub(crate) fn uninit(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        if n > 0 {
            if let Some((data, off)) = arena::acquire_raw(rows, cols, false) {
                return Self {
                    rows,
                    cols,
                    off,
                    data,
                };
            }
        }
        Self {
            rows,
            cols,
            off: 0,
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self {
            rows,
            cols,
            off: 0,
            data,
        }
    }

    /// Arena-internal constructor for a pooled buffer with an alignment
    /// offset.
    pub(crate) fn from_pooled(rows: usize, cols: usize, off: usize, data: Vec<f32>) -> Self {
        debug_assert!(off + rows * cols <= data.len());
        Self {
            rows,
            cols,
            off,
            data,
        }
    }

    /// Arena-internal teardown: takes the raw buffer out without running
    /// the pooling `Drop`.
    pub(crate) fn into_storage(mut self) -> (usize, usize, Vec<f32>) {
        let buf = std::mem::take(&mut self.data);
        let (rows, cols) = (self.rows, self.cols);
        std::mem::forget(self);
        (rows, cols, buf)
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
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data[self.off..self.off + self.rows * self.cols]
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        let n = self.rows * self.cols;
        &mut self.data[self.off..self.off + n]
    }

    /// One element.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[self.off + r * self.cols + c]
    }

    /// Sets one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[self.off + r * self.cols + c] = v;
    }

    /// Borrow of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = self.off + r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = self.off + r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// Element-wise sum, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in self.data_mut() {
            *a *= s;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::uninit(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.at(r, c));
            }
        }
        out
    }

    /// Copy of rows `[start, start + len)` — used to cut token slices.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.rows, "row slice out of range");
        let mut out = Tensor::uninit(len, self.cols);
        out.data_mut()
            .copy_from_slice(&self.data()[start * self.cols..(start + len) * self.cols]);
        out
    }

    /// Appends the rows of `other` in place — the amortised-O(1) form of
    /// `vstack(&[self, other])`, used to grow KV caches slice by slice
    /// without recopying the whole prefix.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn append_rows(&mut self, other: &Tensor) {
        assert_eq!(self.cols, other.cols, "column mismatch in append_rows");
        let n = self.rows * self.cols;
        self.data.truncate(self.off + n);
        self.data.extend_from_slice(other.data());
        self.rows += other.rows;
    }

    /// Stacks tensors vertically (concatenating rows).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or the input is empty.
    pub fn vstack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut out = Tensor::uninit(rows, cols);
        let mut at = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "column mismatch in vstack");
            let n = p.rows * cols;
            out.data_mut()[at..at + n].copy_from_slice(p.data());
            at += n;
        }
        out
    }

    /// Maximum absolute difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum()
    }

    /// Memory footprint in bytes (f32 payload only).
    pub fn bytes(&self) -> usize {
        self.rows * self.cols * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.at(0, 2), 3.0);
        assert_eq!(t.at(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_vec(2, 3, (0..6).map(|x| x as f32).collect());
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().at(2, 1), t.at(1, 2));
    }

    #[test]
    fn row_slicing_and_stacking() {
        let t = Tensor::from_vec(4, 2, (0..8).map(|x| x as f32).collect());
        let a = t.slice_rows(0, 2);
        let b = t.slice_rows(2, 2);
        assert_eq!(Tensor::vstack(&[a, b]), t);
    }

    #[test]
    fn append_rows_matches_vstack() {
        let a = Tensor::from_vec(2, 3, (0..6).map(|x| x as f32).collect());
        let b = Tensor::from_vec(1, 3, vec![9.0, 8.0, 7.0]);
        let stacked = Tensor::vstack(&[a.clone(), b.clone()]);
        let mut grown = a;
        grown.append_rows(&b);
        assert_eq!(grown, stacked);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_shape_panics() {
        Tensor::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn arithmetic() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        assert_eq!(a.max_abs_diff(&b), 6.5);
    }
}

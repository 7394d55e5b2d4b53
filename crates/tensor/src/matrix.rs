//! Row-major dense matrix.

use crate::rows::Job;
use serde::{Deserialize, Serialize};

/// A row-major dense `f32` matrix.
///
/// `Matrix` is the only tensor rank the reproduction needs: node-feature
/// tables (`n × d`), weight matrices (`d_in × d_out`) and batched logits all
/// fit this shape. Rank-1 data is represented as a `1 × d` or `n × 1` matrix.
///
/// # Example
///
/// ```
/// use gcode_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows * cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    ///
    /// Every `out[i][j]` is `((0 + a[i][k₀]·b[k₀][j]) + a[i][k₁]·b[k₁][j]) + …`
    /// over the non-zero `a[i][k]` in ascending `k` — the order of the plain
    /// i-k-j loop with its zero-skip — so the result does not depend on how
    /// the columns are tiled. The shape is chosen for the machine: `rhs` is
    /// repacked one column panel at a time into a contiguous `k × T` block
    /// that stays in L1, each row's `T` partial sums live in registers
    /// across the whole `k` loop, and the zero-skip is decided once per row
    /// (a compacted `(k, a)` list) instead of once per row and panel, where
    /// ReLU-sparse activations made it an unpredictable branch.
    ///
    /// Output rows are independent, so a large product is filled in row
    /// bands on the host's cores, by the AVX2 build of the band body where
    /// the host has one ([`crate::rows`]); a band is a run of whole rows,
    /// and both builds run the one source, so no `out[i][j]` can tell how
    /// many bands there were or which build filled them.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        // One multiply and one add per inner element of an output row.
        let ops_per_row = 2 * self.cols.saturating_mul(rhs.cols);
        self.matmul_as(rhs, Job::new(self.rows, ops_per_row))
    }

    /// [`Matrix::matmul`] in at most `bands` row bands, whatever the host's
    /// cores, by the build the host runs every product with.
    #[cfg(test)]
    fn matmul_banded(&self, rhs: &Matrix, bands: usize) -> Matrix {
        self.matmul_as(rhs, Job { bands, avx2: crate::rows::avx2() })
    }

    /// [`Matrix::matmul`] as `job` says — in at most `job.bands` row bands,
    /// by the build it names — whatever the host.
    fn matmul_as(&self, rhs: &Matrix, job: Job) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.data.is_empty() || rhs.cols == 0 {
            return out;
        }
        crate::rows::for_each_split(job.bands, &mut out.data, rhs.cols, |first_row, band| {
            let lhs = &self.data[first_row * self.cols..][..band.len() / rhs.cols * self.cols];
            match job.avx2 {
                // SAFETY: an `Avx2` exists only where `rows::avx2()` found
                // AVX2 on this CPU at run time.
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                #[allow(unsafe_code)]
                Some(_) => unsafe { matmul_band_avx2(lhs, self.cols, rhs, band) },
                _ => matmul_band(lhs, self.cols, rhs, band),
            }
        });
        out
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · rhsᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let brow = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (a, b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Adds `row` (a `1 × cols` bias) to every row of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `row.cols() != self.cols()` or `row.rows() != 1`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast row must be 1 x cols");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            let r = &mut out.data[i * out.cols..(i + 1) * out.cols];
            for (o, b) in r.iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// Sums all rows, producing a `1 × cols` matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for i in 0..self.rows {
            for (o, v) in out.data.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        out
    }

    /// Means all rows, producing a `1 × cols` matrix. Empty input yields zeros.
    pub fn mean_rows(&self) -> Matrix {
        if self.rows == 0 {
            return Matrix::zeros(1, self.cols);
        }
        self.sum_rows().scale(1.0 / self.rows as f32)
    }

    /// Column-wise maximum, producing a `1 × cols` matrix.
    ///
    /// Empty input yields zeros (the natural identity for the pooled feature).
    pub fn max_rows(&self) -> Matrix {
        if self.rows == 0 {
            return Matrix::zeros(1, self.cols);
        }
        let mut out = Matrix::from_vec(1, self.cols, self.row(0).to_vec());
        for i in 1..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(i)) {
                *o = if v > *o { v } else { *o };
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in row `i` (ties resolve to the first).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero columns or `i` is out of bounds.
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row(i);
        assert!(!row.is_empty(), "argmax of empty row");
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }
}

/// Fills `out`, the output rows of the whole rows of `cols > 0` elements
/// in `lhs`, with their products by `rhs`: one band of [`Matrix::matmul`].
/// Inlined into both builds, [`matmul_band_avx2`] and the baseline.
#[inline(always)]
fn matmul_band(lhs: &[f32], cols: usize, rhs: &Matrix, out: &mut [f32]) {
    let lhs = NonZeroRows::of(lhs, cols);
    // Widest tile first; each narrower one takes what the last left over.
    let next = lhs.mul_columns::<64>(rhs, out, 0);
    let next = lhs.mul_columns::<16>(rhs, out, next);
    let next = lhs.mul_columns::<4>(rhs, out, next);
    lhs.mul_columns::<1>(rhs, out, next);
}

/// [`matmul_band`] compiled with AVX2: eight `f32` lanes where the
/// baseline has four, the same adds and multiplies in the same order.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn matmul_band_avx2(lhs: &[f32], cols: usize, rhs: &Matrix, out: &mut [f32]) {
    matmul_band(lhs, cols, rhs, out);
}

/// The non-zero entries of a run of matrix rows, row by row, columns
/// ascending: the left operand of [`Matrix::matmul`] with its zero-skip
/// already applied.
struct NonZeroRows {
    /// `(column, value)` of every non-zero entry, rows concatenated.
    entries: Vec<(u32, f32)>,
    /// End of each row's run in `entries`.
    row_ends: Vec<usize>,
}

impl NonZeroRows {
    /// Of the whole rows of `cols > 0` elements in `data`.
    #[inline(always)]
    fn of(data: &[f32], cols: usize) -> Self {
        assert!(u32::try_from(cols).is_ok(), "matmul inner dimension exceeds u32");
        // Branch-free: every entry is written at the end of the kept run,
        // and the end moves past it only if it is not zero. On ReLU output
        // about half the entries are zero, a branch per entry a coin flip.
        let mut entries = vec![(0u32, 0.0f32); data.len()];
        let mut row_ends = Vec::with_capacity(data.len() / cols);
        let mut end = 0;
        for row in data.chunks_exact(cols) {
            for (k, &a) in row.iter().enumerate() {
                entries[end] = (k as u32, a);
                end += usize::from(a != 0.0);
            }
            row_ends.push(end);
        }
        entries.truncate(end);
        Self { entries, row_ends }
    }

    /// Fills columns `from..` of these rows' output rows `out` in tiles of
    /// `T` for as long as a whole tile fits, and returns the first column
    /// left over.
    #[inline(always)]
    fn mul_columns<const T: usize>(&self, rhs: &Matrix, out: &mut [f32], from: usize) -> usize {
        let n = rhs.cols;
        let mut j0 = from;
        if n - j0 < T {
            return j0;
        }
        let mut panel = vec![0.0f32; rhs.rows * T];
        while j0 + T <= n {
            for (packed, row) in panel.chunks_exact_mut(T).zip(rhs.data.chunks_exact(n)) {
                packed.copy_from_slice(&row[j0..j0 + T]);
            }
            let mut start = 0;
            for (orow, &end) in out.chunks_exact_mut(n).zip(&self.row_ends) {
                let mut acc = [0.0f32; T];
                for &(k, a) in &self.entries[start..end] {
                    let k = k as usize;
                    let packed: &[f32; T] =
                        panel[k * T..(k + 1) * T].try_into().expect("panel rows are T wide");
                    for (o, b) in acc.iter_mut().zip(packed) {
                        *o += a * b;
                    }
                }
                orow[j0..j0 + T].copy_from_slice(&acc);
                start = end;
            }
            j0 += T;
        }
        j0
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 0.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_reductions() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_rows(), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.mean_rows(), Matrix::from_rows(&[&[2.0, 1.0]]));
        assert_eq!(a.max_rows(), Matrix::from_rows(&[&[3.0, 4.0]]));
    }

    #[test]
    fn reductions_on_empty_matrix_are_zero() {
        let a = Matrix::zeros(0, 3);
        assert_eq!(a.sum_rows(), Matrix::zeros(1, 3));
        assert_eq!(a.mean_rows(), Matrix::zeros(1, 3));
        assert_eq!(a.max_rows(), Matrix::zeros(1, 3));
    }

    #[test]
    fn broadcast_add_row() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.add_row_broadcast(&b), Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
    }

    #[test]
    fn argmax_row_prefers_first_tie() {
        let a = Matrix::from_rows(&[&[5.0, 5.0, 1.0]]);
        assert_eq!(a.argmax_row(0), 0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}

#[cfg(test)]
mod matmul_equivalence {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The i-k-j product [`Matrix::matmul`] replaced, kept as the reference
    /// its tiling must match bit for bit.
    pub(super) fn matmul_reference(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows, rhs.cols);
        for i in 0..lhs.rows {
            for k in 0..lhs.cols {
                let a = lhs.data[i * lhs.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Values from a coarse signed grid, a `zero_share` of them exactly zero
    /// (what a ReLU leaves behind).
    pub(super) fn grid(rows: usize, cols: usize, zero_share: f64, rng: &mut ChaCha8Rng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(zero_share) {
                    0.0
                } else {
                    rng.gen_range(-8i32..=8) as f32 * 0.37
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    pub(super) fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tiled_matmul_is_bit_identical_to_the_ikj_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7113);
        // Widths on both sides of every tile: 64 + 16 + 4 + 1 and remainders.
        for rows in [0usize, 1, 2, 21, 133] {
            for inner in [0usize, 1, 3, 16, 64] {
                for cols in [0usize, 1, 3, 4, 5, 16, 19, 40, 64, 85, 150] {
                    for zero_share in [0.0, 0.5, 1.0] {
                        let lhs = grid(rows, inner, zero_share, &mut rng);
                        let rhs = grid(inner, cols, 0.1, &mut rng);
                        let got = lhs.matmul(&rhs);
                        let want = matmul_reference(&lhs, &rhs);
                        assert_eq!(got.shape(), want.shape());
                        assert_eq!(bits(&got), bits(&want), "{rows}x{inner} · {inner}x{cols}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_skip_keeps_non_finite_weights_out_of_skipped_rows() {
        // 0 · inf would be NaN; the zero-skip must keep it out, as before.
        let lhs = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let rhs = Matrix::from_rows(&[&[f32::INFINITY, 1.0], &[3.0, f32::NAN]]);
        let got = lhs.matmul(&rhs);
        assert_eq!(bits(&got), bits(&matmul_reference(&lhs, &rhs)));
        assert_eq!(got[(0, 0)], 6.0);
        assert_eq!(got[(1, 0)], f32::INFINITY);
    }
}

/// [`Matrix::matmul`] in forced band counts against the same i-k-j
/// reference: the answer must not depend on how the rows were cut.
#[cfg(test)]
mod matmul_bands {
    use super::matmul_equivalence::{bits, grid, matmul_reference};
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// One band; bands that cut `rows` evenly and unevenly; (for small
    /// `rows`) more bands than rows; and one more than there are rows.
    pub(super) fn band_counts(rows: usize) -> [usize; 5] {
        [1, 2, 3, 5, rows + 1]
    }

    #[test]
    fn every_band_count_is_bit_identical_to_the_ikj_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBA2D);
        // The tiling suite's table, plus rows on every side of a band edge:
        // fewer rows than bands, rows no band count divides, one row a band.
        for rows in [0usize, 1, 2, 3, 4, 7, 21, 133] {
            for inner in [0usize, 1, 3, 16, 64] {
                for cols in [0usize, 1, 3, 4, 5, 16, 19, 40, 64, 85, 150] {
                    for zero_share in [0.0, 0.5, 1.0] {
                        let lhs = grid(rows, inner, zero_share, &mut rng);
                        let rhs = grid(inner, cols, 0.1, &mut rng);
                        let want = matmul_reference(&lhs, &rhs);
                        for bands in band_counts(rows) {
                            let got = lhs.matmul_banded(&rhs, bands);
                            assert_eq!(got.shape(), want.shape());
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{rows}x{inner} · {inner}x{cols} in {bands} bands"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_operands_and_the_zero_skip_survive_banding() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1F);
        let wild = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for rows in [1usize, 2, 5, 21] {
            for share in [0.05, 0.5] {
                // Zeros on the left meet infinities on the right: `0 · inf`
                // must stay out of every band's sums, as it does out of one.
                let mut lhs = grid(rows, 16, 0.5, &mut rng);
                let mut rhs = grid(16, 19, 0.1, &mut rng);
                for x in lhs.data.iter_mut().filter(|x| **x != 0.0).chain(&mut rhs.data) {
                    if rng.gen_bool(share) {
                        *x = wild[rng.gen_range(0..3)];
                    }
                }
                // Which NaN a sum of NaNs is depends on the instructions
                // chosen, not on the order of the adds: against the
                // reference any NaN is a NaN, between band counts — one
                // code, one order — not a bit may move.
                let any_nan = |m: &Matrix| bits(&m.map(|x| if x.is_nan() { f32::NAN } else { x }));
                let want = matmul_reference(&lhs, &rhs);
                let one_band = lhs.matmul_banded(&rhs, 1);
                assert_eq!(any_nan(&one_band), any_nan(&want));
                for bands in band_counts(rows) {
                    assert_eq!(
                        bits(&lhs.matmul_banded(&rhs, bands)),
                        bits(&one_band),
                        "{bands} bands"
                    );
                }
            }
        }
        let lhs = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let rhs = Matrix::from_rows(&[&[f32::INFINITY, 1.0], &[3.0, f32::NAN]]);
        let got = lhs.matmul_banded(&rhs, 2);
        assert_eq!(bits(&got), bits(&matmul_reference(&lhs, &rhs)));
        assert_eq!((got[(0, 0)], got[(1, 0)]), (6.0, f32::INFINITY));
    }

    #[test]
    fn the_public_product_is_the_one_band_product_above_the_floor() {
        // 2 · 96 · 96 · 512 = 9.4 M operations: two bands on a two-core host.
        let mut rng = ChaCha8Rng::seed_from_u64(0xF100);
        let lhs = grid(512, 96, 0.5, &mut rng);
        let rhs = grid(96, 96, 0.1, &mut rng);
        assert_eq!(bits(&lhs.matmul(&rhs)), bits(&lhs.matmul_banded(&rhs, 1)));
    }
}

/// The two builds of [`Matrix::matmul`]'s band body against each other,
/// bit for bit, over the tiling and banding suites' shapes, sparsities,
/// non-finite operands and band counts. On a CPU without AVX2 there is
/// one build, and the tests say they compared nothing.
#[cfg(test)]
mod matmul_cross_build {
    use super::matmul_bands::band_counts;
    use super::matmul_equivalence::{bits, grid};
    use super::*;
    use crate::rows::Avx2;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Asserts that both builds give `lhs · rhs` the same bits in every
    /// band count — with every NaN read as one NaN, if `any_nan` — and
    /// returns how many products it compared.
    fn assert_builds_agree(avx2: Avx2, lhs: &Matrix, rhs: &Matrix, any_nan: bool) -> usize {
        let seen = |m: Matrix| {
            if any_nan {
                bits(&m.map(|x| if x.is_nan() { f32::NAN } else { x }))
            } else {
                bits(&m)
            }
        };
        let counts = band_counts(lhs.rows);
        for bands in counts {
            let baseline = lhs.matmul_as(rhs, Job { bands, avx2: None });
            let wide = lhs.matmul_as(rhs, Job { bands, avx2: Some(avx2) });
            assert_eq!(wide.shape(), baseline.shape());
            assert_eq!(
                seen(wide),
                seen(baseline),
                "{}x{} · {}x{} in {bands} bands",
                lhs.rows,
                lhs.cols,
                rhs.rows,
                rhs.cols
            );
        }
        counts.len()
    }

    #[test]
    fn cross_build_products_are_bit_identical_on_every_tile_and_band() {
        let Some(avx2) = crate::rows::avx2() else {
            println!("cross-build matmul: this CPU has no AVX2; nothing compared");
            return;
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0xA5C2);
        let mut compared = 0;
        // Widths on both sides of every tile (64 + 16 + 4 + 1 and their
        // remainders), rows on every side of a band edge, ReLU-sparse and
        // dense left operands.
        for rows in [0usize, 1, 2, 3, 4, 7, 21, 133] {
            for inner in [0usize, 1, 3, 16, 64] {
                for cols in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 19, 40, 64, 85, 150] {
                    for zero_share in [0.0, 0.5, 1.0] {
                        let lhs = grid(rows, inner, zero_share, &mut rng);
                        let rhs = grid(inner, cols, 0.1, &mut rng);
                        compared += assert_builds_agree(avx2, &lhs, &rhs, false);
                    }
                }
            }
        }
        // The two stream shapes over the band floor, ReLU-sparse.
        for (rows, inner, cols) in [(1024usize, 64usize, 128usize), (1024, 128, 1024)] {
            let lhs = grid(rows, inner, 0.5, &mut rng);
            let rhs = grid(inner, cols, 0.0, &mut rng);
            compared += assert_builds_agree(avx2, &lhs, &rhs, false);
        }
        println!("cross-build matmul: {compared} products compared bit for bit");
    }

    #[test]
    fn cross_build_non_finite_operands_and_the_zero_skip_are_bit_identical() {
        let Some(avx2) = crate::rows::avx2() else {
            println!("cross-build matmul: this CPU has no AVX2; nothing compared");
            return;
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x1F2);
        let mut compared = 0;
        for (wild, any_nan) in [
            (&[f32::INFINITY, f32::NEG_INFINITY][..], false),
            (&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY][..], true),
        ] {
            for rows in [1usize, 2, 5, 21, 133] {
                for cols in [1usize, 3, 19, 64, 85] {
                    for share in [0.05, 0.5] {
                        // Zeros on the left meet infinities on the right,
                        // and `inf - inf` makes NaNs of its own.
                        let mut lhs = grid(rows, 16, 0.5, &mut rng);
                        let mut rhs = grid(16, cols, 0.1, &mut rng);
                        for x in lhs.data.iter_mut().filter(|x| **x != 0.0).chain(&mut rhs.data) {
                            if rng.gen_bool(share) {
                                *x = wild[rng.gen_range(0..wild.len())];
                            }
                        }
                        // Without NaN operands every NaN is the one the CPU
                        // makes, and every bit must match. Where an input
                        // NaN meets that one in an add, the sum is the NaN
                        // the compiler put first; there, every other bit
                        // and where the NaNs are must match.
                        compared += assert_builds_agree(avx2, &lhs, &rhs, any_nan);
                    }
                }
            }
        }
        // `0 · inf` stays out of the sums in both builds.
        let lhs = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let rhs = Matrix::from_rows(&[&[f32::INFINITY, 1.0], &[3.0, f32::NAN]]);
        compared += assert_builds_agree(avx2, &lhs, &rhs, false);
        let wide = lhs.matmul_as(&rhs, Job { bands: 1, avx2: Some(avx2) });
        assert_eq!((wide[(0, 0)], wide[(1, 0)]), (6.0, f32::INFINITY));
        println!("cross-build matmul: {compared} non-finite products compared (NaNs as one NaN)");
    }
}

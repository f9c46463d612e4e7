//! Decomposed blocking: full blocks without padding + a CSR remainder.
//!
//! "A common practice to avoid padding is to decompose the original input
//! sparse matrix into k smaller matrices, where the first k−1 matrices
//! consist of elements … that follow a common pattern … while the k-th
//! matrix contains the remainder elements" (§II-B). As in the paper,
//! `k = 2` here: the first submatrix holds only *completely full* blocks
//! (so it carries zero padding), the second every remaining nonzero in
//! CSR.

use crate::{Bcsd, Bcsr, SpMvAcc, SpMvMultiAcc};
use spmv_core::{Coo, Csr, Index, MatrixShape, Result, Scalar, SpMv, SpMvMulti};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::{BlockShape, KernelImpl};

/// A matrix decomposed into a blocked main part and a CSR remainder.
///
/// `y = A*x` runs as `y = A_main*x; y += A_rest*x` — the submatrices share
/// the input and output vectors but nothing else, which is exactly the
/// locality structure the paper discusses for decomposed methods (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposed<T, M> {
    main: M,
    rest: Csr<T>,
}

/// BCSR-DEC: full `r x c` blocks in BCSR + CSR remainder.
pub type BcsrDec<T> = Decomposed<T, Bcsr<T>>;
/// BCSD-DEC: full diagonal blocks in BCSD + CSR remainder.
pub type BcsdDec<T> = Decomposed<T, Bcsd<T>>;

/// Blocked submatrices that can convert back to CSR (used by
/// [`Decomposed::to_csr`]).
pub trait ToCsrPart<T: Scalar> {
    /// The submatrix's nonzeros as a CSR matrix.
    fn to_csr_part(&self) -> Csr<T>;
}

impl<T: SimdScalar> ToCsrPart<T> for Bcsr<T> {
    fn to_csr_part(&self) -> Csr<T> {
        self.to_csr()
    }
}

impl<T: SimdScalar> ToCsrPart<T> for Bcsd<T> {
    fn to_csr_part(&self) -> Csr<T> {
        self.to_csr()
    }
}

impl<T: Scalar, M: MatrixShape> Decomposed<T, M> {
    /// The blocked submatrix.
    pub fn main(&self) -> &M {
        &self.main
    }

    /// The blocked submatrix, mutably (to switch its kernel in place).
    pub fn main_mut(&mut self) -> &mut M {
        &mut self.main
    }

    /// The CSR remainder.
    pub fn rest(&self) -> &Csr<T> {
        &self.rest
    }
}

impl<T: SimdScalar> BcsrDec<T> {
    /// Decomposes `csr` into full aligned `shape` blocks plus a CSR
    /// remainder.
    pub fn from_csr(csr: &Csr<T>, shape: BlockShape, imp: KernelImpl) -> Self {
        let (r, c) = (shape.rows(), shape.cols());
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        let n_brows = n_rows.div_ceil(r);

        let mut brow_ptr: Vec<Index> = Vec::with_capacity(n_brows + 1);
        brow_ptr.push(0);
        let mut bcol_start: Vec<Index> = Vec::new();
        let mut bval: Vec<T> = Vec::new();
        let mut rest = Coo::<T>::with_capacity(n_rows, n_cols, 0);

        let mut temp: Vec<(Index, usize, usize, T)> = Vec::new(); // (start, slot, row, value)
        let mut starts: Vec<Index> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();

        for rb in 0..n_brows {
            temp.clear();
            starts.clear();
            let row_hi = ((rb + 1) * r).min(n_rows);
            for i in rb * r..row_hi {
                let il = i - rb * r;
                let (rcols, rvals) = csr.row(i);
                for (&j, &v) in rcols.iter().zip(rvals) {
                    let j0 = j / c as Index * c as Index;
                    temp.push((j0, il * c + (j - j0) as usize, i, v));
                }
            }
            starts.extend(temp.iter().map(|e| e.0));
            starts.sort_unstable();
            starts.dedup();
            counts.clear();
            counts.resize(starts.len(), 0);
            for &(j0, ..) in &temp {
                counts[starts.binary_search(&j0).expect("recorded")] += 1;
            }

            // Keep only completely full blocks in the main submatrix; a
            // clipped boundary block can never reach r*c in-matrix
            // elements, so full blocks are automatically interior.
            let mut full_index = vec![usize::MAX; starts.len()];
            for (k, (&j0, &cnt)) in starts.iter().zip(&counts).enumerate() {
                if cnt as usize == r * c {
                    full_index[k] = bcol_start.len();
                    bcol_start.push(j0);
                    bval.resize(bval.len() + r * c, T::ZERO);
                }
            }
            for &(j0, slot, i, v) in &temp {
                let k = starts.binary_search(&j0).expect("recorded");
                if full_index[k] != usize::MAX {
                    bval[full_index[k] * r * c + slot] = v;
                } else {
                    let j = j0 as usize + slot % c;
                    rest.push(i, j, v).expect("coords from source matrix");
                }
            }
            brow_ptr.push(bcol_start.len() as Index);
        }

        let main_nnz = bval.len(); // full blocks: stored == nonzeros
        let main = Bcsr::from_parts(
            n_rows, n_cols, shape, true, imp, brow_ptr, bcol_start, bval, main_nnz,
        );
        Decomposed {
            main,
            rest: Csr::from_coo(&rest),
        }
    }
}

impl<T: SimdScalar> BcsdDec<T> {
    /// Decomposes `csr` into full diagonal blocks of size `b` plus a CSR
    /// remainder.
    pub fn from_csr(csr: &Csr<T>, b: usize, imp: KernelImpl) -> Self {
        assert!((1..=8).contains(&b), "BCSD block size must be in 1..=8");
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        let n_segs = n_rows.div_ceil(b);

        let mut brow_ptr: Vec<Index> = Vec::with_capacity(n_segs + 1);
        brow_ptr.push(0);
        let mut bcol_biased: Vec<Index> = Vec::new();
        let mut bval: Vec<T> = Vec::new();
        let mut rest = Coo::<T>::with_capacity(n_rows, n_cols, 0);

        let mut temp: Vec<(Index, usize, usize, T)> = Vec::new(); // (biased, t, row, value)
        let mut starts: Vec<Index> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();

        for s in 0..n_segs {
            temp.clear();
            starts.clear();
            let row_hi = ((s + 1) * b).min(n_rows);
            for i in s * b..row_hi {
                let t = i - s * b;
                let (rcols, rvals) = csr.row(i);
                for (&j, &v) in rcols.iter().zip(rvals) {
                    let biased = (j as i64 - t as i64 + b as i64) as Index;
                    temp.push((biased, t, i, v));
                }
            }
            starts.extend(temp.iter().map(|e| e.0));
            starts.sort_unstable();
            starts.dedup();
            counts.clear();
            counts.resize(starts.len(), 0);
            for &(biased, ..) in &temp {
                counts[starts.binary_search(&biased).expect("recorded")] += 1;
            }

            let mut full_index = vec![usize::MAX; starts.len()];
            for (k, (&biased, &cnt)) in starts.iter().zip(&counts).enumerate() {
                // A clipped block (either edge, or a short final segment)
                // cannot hold b in-matrix elements, so count == b implies
                // an interior full block.
                if cnt as usize == b {
                    full_index[k] = bcol_biased.len();
                    bcol_biased.push(biased);
                    bval.resize(bval.len() + b, T::ZERO);
                }
            }
            for &(biased, t, i, v) in &temp {
                let k = starts.binary_search(&biased).expect("recorded");
                if full_index[k] != usize::MAX {
                    bval[full_index[k] * b + t] = v;
                } else {
                    let j = (biased as i64 - b as i64 + t as i64) as usize;
                    rest.push(i, j, v).expect("coords from source matrix");
                }
            }
            brow_ptr.push(bcol_biased.len() as Index);
        }

        let main_nnz = bval.len();
        let main =
            Bcsd::from_parts(n_rows, n_cols, b, imp, brow_ptr, bcol_biased, bval, main_nnz);
        Decomposed {
            main,
            rest: Csr::from_coo(&rest),
        }
    }
}

impl<T: Scalar, M> Decomposed<T, M>
where
    M: SpMvAcc<T>,
{
    /// Fraction of the original nonzeros captured by the blocked part.
    pub fn coverage(&self) -> f64 {
        let total = self.main.nnz_stored() + self.rest.nnz();
        if total == 0 {
            0.0
        } else {
            self.main.nnz_stored() as f64 / total as f64
        }
    }

    /// Reassembles the original matrix by merging the blocked part and
    /// the remainder (the submatrices partition the nonzeros, so this is
    /// an exact inverse of the decomposition).
    pub fn to_csr(&self) -> Csr<T>
    where
        M: ToCsrPart<T>,
    {
        let mut coo = Coo::with_capacity(
            self.main.n_rows(),
            self.main.n_cols(),
            self.nnz_stored(),
        );
        for (i, j, v) in self.main.to_csr_part().iter() {
            coo.push(i, j, v).expect("inside matrix");
        }
        for (i, j, v) in self.rest.iter() {
            coo.push(i, j, v).expect("inside matrix");
        }
        Csr::from_coo(&coo)
    }

    /// Checks dimension agreement between the two submatrices.
    pub fn validate(&self) -> Result<()> {
        if self.main.n_rows() != self.rest.n_rows()
            || self.main.n_cols() != self.rest.n_cols()
        {
            return Err(spmv_core::Error::InvalidStructure(
                "decomposed submatrices disagree on dimensions".into(),
            ));
        }
        Ok(())
    }
}

impl<T: Scalar, M: MatrixShape> MatrixShape for Decomposed<T, M> {
    fn n_rows(&self) -> usize {
        self.main.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.main.n_cols()
    }
}

impl<T: Scalar, M: SpMvAcc<T>> SpMv<T> for Decomposed<T, M> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        y.fill(T::ZERO);
        self.main.spmv_acc(x, y);
        self.rest.spmv_acc(x, y);
    }

    fn nnz_stored(&self) -> usize {
        self.main.nnz_stored() + self.rest.nnz_stored()
    }

    fn matrix_bytes(&self) -> usize {
        self.main.matrix_bytes() + self.rest.matrix_bytes()
    }

    /// Each of the k = 2 sub-multiplications streams the vectors again, so
    /// the decomposed working set counts them once per submatrix (this is
    /// the `Σ ws_i` of the models' equation (2)).
    fn working_set_bytes(&self) -> usize {
        self.main.working_set_bytes() + self.rest.working_set_bytes()
    }
}

impl<T: Scalar, M: SpMvAcc<T>> SpMvAcc<T> for Decomposed<T, M> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.main.spmv_acc(x, y);
        self.rest.spmv_acc(x, y);
    }
}

impl<T: Scalar, M: SpMvMultiAcc<T>> SpMvMulti<T> for Decomposed<T, M> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        y.fill(T::ZERO);
        self.main.spmv_multi_acc(x, y, k);
        self.rest.spmv_multi_acc(x, y, k);
    }

    /// As in the single-vector case, each submatrix streams the vectors
    /// again, so the k-vector working set is `Σ ws_i(k)`.
    fn working_set_bytes_multi(&self, k: usize) -> usize {
        self.main.working_set_bytes_multi(k) + self.rest.working_set_bytes_multi(k)
    }
}

impl<T: Scalar, M: SpMvMultiAcc<T>> SpMvMultiAcc<T> for Decomposed<T, M> {
    fn spmv_multi_acc(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        self.main.spmv_multi_acc(x, y, k);
        self.rest.spmv_multi_acc(x, y, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_csr(n: usize, m: usize, seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(n, m);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // A mix of full 2x2 blocks, diagonal runs, and random scatter.
        for bi in 0..n / 4 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let _ = coo.push(4 * bi + di, (4 * bi + dj) % m, 1.0 + bi as f64);
            }
        }
        for i in 0..n.min(m) {
            let _ = coo.push(i, i, 2.0);
        }
        for i in 0..n {
            let _ = coo.push(i, (next() as usize) % m, 0.5 + (next() % 5) as f64);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn bcsr_dec_matches_csr_all_shapes() {
        let csr = fixture_csr(22, 27, 9);
        let x: Vec<f64> = (0..27).map(|i| 1.0 + (i % 4) as f64).collect();
        let want = csr.spmv(&x);
        for shape in BlockShape::search_space() {
            for imp in KernelImpl::ALL {
                let dec = BcsrDec::from_csr(&csr, shape, imp);
                dec.validate().unwrap();
                dec.main().validate().unwrap();
                let got = dec.spmv(&x);
                for (a, g) in want.iter().zip(&got) {
                    assert!((a - g).abs() < 1e-9, "shape {shape} imp {imp}");
                }
            }
        }
    }

    #[test]
    fn bcsd_dec_matches_csr_all_sizes() {
        let csr = fixture_csr(22, 27, 13);
        let x: Vec<f64> = (0..27).map(|i| 1.0 + (i % 4) as f64).collect();
        let want = csr.spmv(&x);
        for b in spmv_kernels::BCSD_SIZES {
            for imp in KernelImpl::ALL {
                let dec = BcsdDec::from_csr(&csr, b, imp);
                dec.validate().unwrap();
                dec.main().validate().unwrap();
                let got = dec.spmv(&x);
                for (a, g) in want.iter().zip(&got) {
                    assert!((a - g).abs() < 1e-9, "b {b} imp {imp}");
                }
            }
        }
    }

    #[test]
    fn main_part_has_zero_padding() {
        let csr = fixture_csr(30, 30, 21);
        for shape in BlockShape::search_space() {
            let dec = BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar);
            assert_eq!(dec.main().padding(), 0, "shape {shape}");
        }
        for b in spmv_kernels::BCSD_SIZES {
            let dec = BcsdDec::from_csr(&csr, b, KernelImpl::Scalar);
            assert_eq!(dec.main().padding(), 0, "b {b}");
        }
    }

    #[test]
    fn nnz_is_conserved() {
        let csr = fixture_csr(25, 25, 4);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(dec.nnz_stored(), csr.nnz());
        let dec = BcsdDec::from_csr(&csr, 4, KernelImpl::Scalar);
        assert_eq!(dec.nnz_stored(), csr.nnz());
    }

    #[test]
    fn pure_block_matrix_goes_entirely_to_main() {
        let mut coo = Coo::new(8, 8);
        for bi in 0..4 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(dec.coverage(), 1.0);
        assert_eq!(dec.rest().nnz(), 0);
        assert_eq!(dec.main().n_blocks(), 4);
    }

    #[test]
    fn scattered_matrix_goes_entirely_to_rest() {
        // Isolated entries never form a full 2x2 block.
        let csr = Csr::from_coo(
            &Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (2, 5, 2.0), (6, 3, 3.0)]).unwrap(),
        );
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(dec.coverage(), 0.0);
        assert_eq!(dec.main().n_blocks(), 0);
        assert_eq!(dec.rest().nnz(), 3);
    }

    #[test]
    fn multi_matches_per_column_spmv() {
        let csr = fixture_csr(22, 27, 9);
        for imp in KernelImpl::ALL {
            let bdec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), imp);
            let ddec = BcsdDec::from_csr(&csr, 4, imp);
            for k in [1, 4, 6] {
                let x: Vec<f64> = (0..27 * k).map(|i| 1.0 + (i % 5) as f64).collect();
                let got_b = bdec.spmv_multi(&x, k);
                let got_d = ddec.spmv_multi(&x, k);
                for t in 0..k {
                    let xs = &x[t * 27..(t + 1) * 27];
                    assert_eq!(got_b[t * 22..(t + 1) * 22], bdec.spmv(xs), "bcsr k={k} t={t}");
                    assert_eq!(got_d[t * 22..(t + 1) * 22], ddec.spmv(xs), "bcsd k={k} t={t}");
                }
            }
        }
    }

    #[test]
    fn multi_working_set_sums_submatrices() {
        let csr = fixture_csr(16, 16, 2);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(
            dec.working_set_bytes_multi(4),
            dec.main().working_set_bytes_multi(4) + dec.rest().working_set_bytes_multi(4)
        );
    }

    #[test]
    fn working_set_counts_vectors_per_submatrix() {
        let csr = fixture_csr(16, 16, 2);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        let vectors = (16 + 16) * 8;
        assert_eq!(
            dec.working_set_bytes(),
            dec.main().working_set_bytes() + dec.rest().matrix_bytes() + vectors
        );
    }
}

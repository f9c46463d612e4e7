#![warn(missing_docs)]

//! Blocked sparse storage formats.
//!
//! Implements every storage format the paper studies (§II):
//!
//! | Type | Paper name | Category |
//! |---|---|---|
//! | [`spmv_core::Csr`] | CSR | baseline |
//! | [`Bcsr`] | BCSR | fixed-size 2-D blocks, padding |
//! | [`Bcsd`] | BCSD | fixed-size diagonal blocks, padding |
//! | [`BcsrDec`] | BCSR-DEC | decomposed: full BCSR blocks + CSR rest |
//! | [`BcsdDec`] | BCSD-DEC | decomposed: full BCSD blocks + CSR rest |
//! | [`BcsrMasked`] | BCSR-MASK | fixed-size 2-D blocks, occupancy masks, no padding (extension) |
//! | [`BcsdMasked`] | BCSD-MASK | fixed-size diagonal blocks, occupancy masks, no padding (extension) |
//! | [`Vbl`] | 1D-VBL | variable-size 1-D blocks, no padding |
//! | [`CsrDelta`] | CSR-Δ | delta-encoded, narrow-width column indices (extension) |
//! | [`SellCSigma`] | SELL-C-σ | sliced ELLPACK, σ-windowed row sorting, padding (extension) |
//!
//! As an index-compression extension beyond the paper, BCSR, BCSD, and
//! 1D-VBL additionally offer `from_csr_narrow` constructors that store
//! their block-column arrays at u16 width when the column space fits
//! (see [`spmv_core::IndexWidth`]), and [`CsrDelta`] replaces CSR's
//! `col_ind` with a run-classified byte stream of per-row column deltas.
//!
//! Every format implements [`spmv_core::SpMv`] plus the accumulate variant
//! [`SpMvAcc`] that decomposed formats need, and the multi-vector (SpMM)
//! counterparts [`spmv_core::SpMvMulti`] / [`SpMvMultiAcc`] that stream
//! the matrix once for a whole batch of input vectors. They expose the
//! block counts and byte totals the performance models consume. The [`stats`] module
//! computes those same quantities *without* materializing a format — that
//! is what makes model-driven format selection cheap.

pub mod bcsd;
pub mod bcsr;
pub mod csr_delta;
pub mod decomposed;
pub mod masked;
mod narrow;
pub mod sellc;
pub mod stats;
pub mod vbl;

pub use bcsd::Bcsd;
pub use bcsr::Bcsr;
pub use csr_delta::{csr_delta_stats, CsrDelta, DeltaStats};
pub use decomposed::{BcsdDec, BcsrDec, Decomposed};
pub use masked::{BcsdMasked, BcsrMasked};
pub use sellc::{sell_sigmas, SellCSigma, SELL_SIGMA_FULL};
pub use stats::{
    bcsd_dec_stats, bcsd_masked_stats, bcsd_stats, bcsr_dec_stats, bcsr_masked_stats, bcsr_stats,
    bcsr_stats_sampled, sellc_stats, vbl_stats, FormatStats,
};
pub use vbl::Vbl;

use core::fmt;
use spmv_core::{Csr, MatrixShape, Scalar, SpMv, SpMvMulti};

/// Accumulating SpMV: `y += A * x`.
///
/// Decomposed formats run their k submatrices into one output vector, so
/// each part must add rather than overwrite. Every format in this crate
/// (and CSR) implements it.
pub trait SpMvAcc<T: Scalar>: SpMv<T> {
    /// Computes `y += A * x`.
    ///
    /// # Panics
    ///
    /// Panics on vector length mismatch, like
    /// [`SpMv::spmv_into`].
    fn spmv_acc(&self, x: &[T], y: &mut [T]);
}

impl<T: Scalar> SpMvAcc<T> for Csr<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                acc = v.mul_add(x[c as usize], acc);
            }
            *yi += acc;
        }
    }
}

/// Accumulating multi-vector SpMV: `Y += A * X` for `k` column-major
/// vectors (the SpMM counterpart of [`SpMvAcc`]).
///
/// Decomposed formats zero the output block once and then run both
/// submatrices through this trait, so each part streams its arrays once
/// per `k`-vector call.
pub trait SpMvMultiAcc<T: Scalar>: SpMvAcc<T> + SpMvMulti<T> {
    /// Computes `Y += A * X`; layout and panics as in
    /// [`SpMvMulti::spmv_multi_into`].
    fn spmv_multi_acc(&self, x: &[T], y: &mut [T], k: usize);
}

impl<T: Scalar> SpMvMultiAcc<T> for Csr<T> {
    fn spmv_multi_acc(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        let (m, n) = (self.n_cols(), self.n_rows());
        let mut t0 = 0;
        while t0 < k {
            let kc = (k - t0).min(8);
            let xs = &x[t0 * m..(t0 + kc) * m];
            let ys = &mut y[t0 * n..(t0 + kc) * n];
            let mut acc = [T::ZERO; 8];
            for i in 0..n {
                let (cols, vals) = self.row(i);
                acc[..kc].fill(T::ZERO);
                for (&c, &v) in cols.iter().zip(vals) {
                    let c = c as usize;
                    for (t, a) in acc[..kc].iter_mut().enumerate() {
                        *a = v.mul_add(xs[t * m + c], *a);
                    }
                }
                for (t, &a) in acc[..kc].iter().enumerate() {
                    ys[t * n + i] += a;
                }
            }
            t0 += kc;
        }
    }
}

/// The storage formats of the paper's evaluation, used as sweep keys by
/// the harness and the performance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FormatKind {
    /// Compressed Sparse Row (baseline).
    Csr,
    /// Blocked CSR with padding.
    Bcsr,
    /// Decomposed BCSR (full blocks + CSR rest).
    BcsrDec,
    /// Blocked Compressed Sparse Diagonal with padding.
    Bcsd,
    /// Decomposed BCSD.
    BcsdDec,
    /// Masked BCSR: per-block occupancy bitmasks instead of padding
    /// (padding-free extension beyond the paper).
    BcsrMasked,
    /// Masked BCSD: per-block occupancy bitmasks instead of padding.
    BcsdMasked,
    /// One-dimensional Variable Block Length.
    Vbl,
    /// Delta-encoded CSR (index-compression extension beyond the paper).
    CsrDelta,
    /// SELL-C-σ: sliced ELLPACK with σ-windowed row sorting
    /// (padding-dominated extension beyond the paper).
    SellCSigma,
}

impl FormatKind {
    /// The paper's label for this format.
    pub const fn label(self) -> &'static str {
        match self {
            FormatKind::Csr => "CSR",
            FormatKind::Bcsr => "BCSR",
            FormatKind::BcsrDec => "BCSR-DEC",
            FormatKind::Bcsd => "BCSD",
            FormatKind::BcsdDec => "BCSD-DEC",
            FormatKind::BcsrMasked => "BCSR-MASK",
            FormatKind::BcsdMasked => "BCSD-MASK",
            FormatKind::Vbl => "1D-VBL",
            FormatKind::CsrDelta => "CSR-DELTA",
            FormatKind::SellCSigma => "SELL",
        }
    }

    /// The six formats of the paper's evaluation (Table II order).
    pub const EVALUATED: [FormatKind; 6] = [
        FormatKind::Csr,
        FormatKind::Bcsr,
        FormatKind::BcsrDec,
        FormatKind::Bcsd,
        FormatKind::BcsdDec,
        FormatKind::Vbl,
    ];

    /// The formats covered by the performance models: fixed-size blocking
    /// with or without decomposition, plus CSR as the degenerate 1×1 case.
    /// Variable-size blocking is excluded ("we do not consider variable
    /// size blocking methods", §IV).
    pub const MODELED: [FormatKind; 5] = [
        FormatKind::Csr,
        FormatKind::Bcsr,
        FormatKind::BcsrDec,
        FormatKind::Bcsd,
        FormatKind::BcsdDec,
    ];

    /// Whether this format is decomposed into k = 2 submatrices.
    pub const fn is_decomposed(self) -> bool {
        matches!(self, FormatKind::BcsrDec | FormatKind::BcsdDec)
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    #[test]
    fn csr_spmv_acc_adds() {
        let csr = Csr::from_coo(
            &Coo::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)]).unwrap(),
        );
        let mut y = vec![10.0, 10.0];
        csr.spmv_acc(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![12.0, 13.0]);
    }

    #[test]
    fn csr_spmv_multi_acc_adds() {
        let csr = Csr::from_coo(
            &Coo::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)]).unwrap(),
        );
        let mut y = vec![10.0, 10.0, 20.0, 20.0];
        csr.spmv_multi_acc(&[1.0, 1.0, 2.0, 2.0], &mut y, 2);
        assert_eq!(y, vec![12.0, 13.0, 24.0, 26.0]);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(FormatKind::Bcsr.label(), "BCSR");
        assert_eq!(FormatKind::Vbl.label(), "1D-VBL");
        assert_eq!(FormatKind::BcsdDec.label(), "BCSD-DEC");
    }

    #[test]
    fn modeled_excludes_variable_size() {
        assert!(!FormatKind::MODELED.contains(&FormatKind::Vbl));
        assert!(FormatKind::MODELED.contains(&FormatKind::Csr));
    }

    #[test]
    fn decomposed_flag() {
        assert!(FormatKind::BcsrDec.is_decomposed());
        assert!(FormatKind::BcsdDec.is_decomposed());
        assert!(!FormatKind::Bcsr.is_decomposed());
        assert!(!FormatKind::Csr.is_decomposed());
    }
}

//! Differential equivalence suite for the padding-free masked formats.
//!
//! `BcsrMasked`/`BcsdMasked` delegate every block to the same
//! const-generic core as their padded twins after expanding the stored
//! values into a zeroed dense block, so their products must be
//! *bit-identical* to the padded formats — padded zeros are accumulation
//! no-ops. This suite drives that claim over a 200-seed random corpus
//! across {scalar, simd} × {f32, f64} × {k = 1, 4}, pins the mask edge
//! cases (all-ones mask, single-bit mask, empty block row), and runs a
//! masked format through the persistent worker pool against its serial
//! twin. The corpus is the shared `support/corpus.rs` blocky profile.

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::formats::{Bcsd, BcsdMasked, Bcsr, BcsrMasked};
use blocked_spmv::kernels::simd::SimdScalar;
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::parallel::{bcsr_unit_weights, PinPolicy, SpmvPool};
#[path = "support/corpus.rs"]
mod corpus;
use corpus::{blocky_matrix as seeded_matrix, SEEDS};

const K: usize = 4;

fn dense_x<T: blocked_spmv::core::Scalar>(len: usize) -> Vec<T> {
    (0..len)
        .map(|i| T::from_f64(0.5 + (i % 11) as f64 * 0.25 - (i % 3) as f64))
        .collect()
}

/// CSR reference with a relative tolerance: blocked accumulation orders
/// differ from CSR's row order, so only the masked-vs-padded comparison
/// is exact.
fn assert_close<T: blocked_spmv::core::Scalar>(got: &[T], want: &[T], eps: f64, tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let (g, w) = (g.to_f64(), w.to_f64());
        let scale = w.abs().max(1.0);
        assert!((g - w).abs() <= eps * scale, "{tag}: row {i}: {g} vs {w}");
    }
}

fn check_seed<T: SimdScalar>(csr: &Csr<T>, seed: u64, eps: f64) {
    let shape = BlockShape::search_space()[seed as usize % BlockShape::search_space().len()];
    let b = 2 + (seed as usize % 7);
    let x: Vec<T> = dense_x(csr.n_cols());
    let xk: Vec<T> = dense_x(csr.n_cols() * K);
    let reference = csr.spmv(&x);
    for imp in KernelImpl::ALL {
        let padded = Bcsr::from_csr(csr, shape, imp);
        let masked = BcsrMasked::from_csr(csr, shape, imp);
        assert_eq!(masked.padding(), 0, "seed {seed}: masked BCSR stores padding");
        assert_eq!(
            masked.spmv(&x),
            padded.spmv(&x),
            "seed {seed} {imp:?} BCSR {shape} masked != padded"
        );
        assert_eq!(
            masked.spmv_multi(&xk, K),
            padded.spmv_multi(&xk, K),
            "seed {seed} {imp:?} BCSR {shape} masked multi != padded multi"
        );
        assert_close(&masked.spmv(&x), &reference, eps, "masked BCSR vs CSR");

        let padded = Bcsd::from_csr(csr, b, imp);
        let masked = BcsdMasked::from_csr(csr, b, imp);
        assert_eq!(masked.padding(), 0, "seed {seed}: masked BCSD stores padding");
        assert_eq!(
            masked.spmv(&x),
            padded.spmv(&x),
            "seed {seed} {imp:?} BCSD b={b} masked != padded"
        );
        assert_eq!(
            masked.spmv_multi(&xk, K),
            padded.spmv_multi(&xk, K),
            "seed {seed} {imp:?} BCSD b={b} masked multi != padded multi"
        );
        assert_close(&masked.spmv(&x), &reference, eps, "masked BCSD vs CSR");
    }
}

#[test]
fn two_hundred_seed_masked_vs_padded_vs_csr_f64() {
    for seed in 0..SEEDS {
        let csr = seeded_matrix(seed);
        check_seed(&csr, seed, 1e-12);
    }
}

#[test]
fn two_hundred_seed_masked_vs_padded_vs_csr_f32() {
    for seed in 0..SEEDS {
        let csr = seeded_matrix(seed).cast::<f32>();
        check_seed(&csr, seed, 1e-4);
    }
}

#[test]
fn all_ones_masks_take_the_full_block_fast_path() {
    // A pure 2x4-block matrix: every mask is full, occupancy is exactly
    // 1.0, and the fast path must still match the padded product.
    let shape = BlockShape::new(2, 4).unwrap();
    let mut coo = Coo::new(32, 32);
    for bi in 0..16 {
        for bj in 0..4 {
            for di in 0..2 {
                for dj in 0..4 {
                    let v = (bi * 31 + bj * 7 + di * 3 + dj) as f64 * 0.25 + 0.125;
                    coo.push(2 * bi + di, 8 * bj + dj, v).unwrap();
                }
            }
        }
    }
    let csr = Csr::from_coo(&coo);
    let x: Vec<f64> = dense_x(32);
    for imp in KernelImpl::ALL {
        let masked = BcsrMasked::from_csr(&csr, shape, imp);
        assert_eq!(masked.occupancy(), 1.0);
        assert_eq!(
            masked.spmv(&x),
            Bcsr::from_csr(&csr, shape, imp).spmv(&x),
            "{imp:?} full-mask fast path"
        );
    }
}

#[test]
fn single_bit_masks_and_empty_block_rows() {
    // A sparse diagonal inside 4x2 blocks: every occupied block holds
    // exactly one nonzero (a one-bit mask), and rows 20..40 are entirely
    // empty, so half the block rows have no blocks at all.
    let shape = BlockShape::new(4, 2).unwrap();
    let mut coo = Coo::new(40, 40);
    for i in 0..20 {
        coo.push(i, (i * 2 + 1) % 40, 1.0 + i as f64).unwrap();
    }
    let csr = Csr::from_coo(&coo);
    let x: Vec<f64> = dense_x(40);
    for imp in KernelImpl::ALL {
        let bcsr = BcsrMasked::from_csr(&csr, shape, imp);
        assert_eq!(bcsr.n_blocks(), csr.nnz(), "one block per nonzero");
        assert_eq!(bcsr.spmv(&x), Bcsr::from_csr(&csr, shape, imp).spmv(&x));
        let bcsd = BcsdMasked::from_csr(&csr, 5, imp);
        assert_eq!(bcsd.spmv(&x), Bcsd::from_csr(&csr, 5, imp).spmv(&x));
    }
    // The empty matrix: no blocks, no values, an all-zero product.
    let empty = Csr::<f64>::from_coo(&Coo::new(8, 8));
    let masked = BcsrMasked::from_csr(&empty, shape, KernelImpl::Scalar);
    assert_eq!(masked.n_blocks(), 0);
    assert_eq!(masked.spmv(&dense_x::<f64>(8)), vec![0.0; 8]);
}

#[test]
fn pooled_masked_runs_match_serial_bitwise() {
    // Row partitions never split a block row, so the pooled masked
    // product must equal the serial masked product bit-for-bit.
    let csr = seeded_matrix(77);
    let shape = BlockShape::new(2, 2).unwrap();
    let x: Vec<f64> = dense_x(csr.n_cols());
    let xk: Vec<f64> = dense_x(csr.n_cols() * K);
    for threads in [1, 2, 4] {
        for imp in KernelImpl::ALL {
            let serial = BcsrMasked::from_csr(&csr, shape, imp);
            let pool = SpmvPool::from_csr(
                &csr,
                threads,
                &bcsr_unit_weights(&csr, shape),
                shape.rows(),
                move |s| BcsrMasked::from_csr(s, shape, imp),
                PinPolicy::None,
            );
            assert_eq!(pool.spmv(&x), serial.spmv(&x), "masked {imp:?} x{threads}");
            assert_eq!(
                pool.spmv_multi(&xk, K),
                serial.spmv_multi(&xk, K),
                "masked multi {imp:?} x{threads}"
            );
        }
    }
}

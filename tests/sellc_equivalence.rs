//! SELL-C-σ differential equivalence suite.
//!
//! SELL-C-σ permutes rows and pads slices, but every row's product is a
//! self-contained ascending-column `mul_add` chain — CSR's exact chain —
//! and the inverse permutation unscrambles `y` in place. So the suite
//! demands *bitwise* equality with CSR, not a tolerance: over the shared
//! 200-seed structured corpus (`support/corpus.rs`), every
//! C ∈ {2, 4, 8} × σ ∈ {1, C, 64, n} × {f32, f64} × {scalar, simd} ×
//! k ∈ {1, 4} cell must reproduce CSR's output bit-for-bit, serially and
//! through the persistent worker pool (strips split on slice
//! boundaries). Alongside, permutation property tests (σ-window-stable
//! descending sort, inverse composes to identity, σ = 1 is the identity)
//! and the edge cases: tail slices, empty matrices and slices, one dense
//! row dominating its window, σ windows straddling slice boundaries, and
//! the u16 narrow-index escalation rule at the column-count ceiling.

use blocked_spmv::core::{Coo, Csr, IndexWidth, MatrixShape, Scalar, SpMv, SpMvMulti};
use blocked_spmv::formats::{sell_sigmas, SellCSigma, SELL_SIGMA_FULL};
use blocked_spmv::kernels::simd::SimdScalar;
use blocked_spmv::kernels::{KernelImpl, SELL_HEIGHTS};
use blocked_spmv::parallel::{sell_unit_weights, PinPolicy, SpmvPool};
#[path = "support/corpus.rs"]
mod corpus;
use corpus::{structured_case, SEEDS};

const K: usize = 4;

fn dense_x<T: Scalar>(len: usize) -> Vec<T> {
    (0..len)
        .map(|i| T::from_f64(0.25 * (i % 9) as f64 - 1.0))
        .collect()
}

/// Every (C, σ, imp) cell of one matrix must be bitwise equal to CSR for
/// k = 1 and k = K.
fn check_bitwise<T: SimdScalar>(csr: &Csr<T>, seed: u64) {
    let x: Vec<T> = dense_x(csr.n_cols());
    let xk: Vec<T> = dense_x(csr.n_cols() * K);
    let want = csr.spmv(&x);
    let want_k = csr.spmv_multi(&xk, K);
    for &c in &SELL_HEIGHTS {
        for &sigma in &sell_sigmas(c) {
            for imp in KernelImpl::ALL {
                let sell = SellCSigma::from_csr(csr, c, sigma, imp);
                assert_eq!(
                    sell.spmv(&x),
                    want,
                    "seed {seed} sell c={c} sigma={sigma} {imp} != csr"
                );
                assert_eq!(
                    sell.spmv_multi(&xk, K),
                    want_k,
                    "seed {seed} sell c={c} sigma={sigma} {imp} multi != csr"
                );
                let narrow = SellCSigma::from_csr_narrow(csr, c, sigma, imp);
                assert_eq!(
                    narrow.spmv(&x),
                    want,
                    "seed {seed} sell16 c={c} sigma={sigma} {imp} != csr"
                );
            }
        }
    }
}

#[test]
fn two_hundred_seed_sell_matches_csr_bitwise_f64() {
    for seed in 0..SEEDS {
        let csr: Csr<f64> = structured_case(seed).csr();
        check_bitwise(&csr, seed);
    }
}

#[test]
fn two_hundred_seed_sell_matches_csr_bitwise_f32() {
    for seed in 0..SEEDS {
        let csr: Csr<f32> = structured_case(seed).csr();
        check_bitwise(&csr, seed);
    }
}

/// Pooled SELL must equal serial SELL (and therefore CSR) bitwise: every
/// strip's rows keep their self-contained chains, and strips split on
/// slice boundaries via the padded-slice weights.
#[test]
fn pooled_sell_matches_serial_bitwise() {
    for seed in [3u64, 17, 42, 101] {
        let csr: Csr<f64> = structured_case(seed).csr();
        let x: Vec<f64> = dense_x(csr.n_cols());
        let xk: Vec<f64> = dense_x(csr.n_cols() * K);
        for &c in &SELL_HEIGHTS {
            for &sigma in &sell_sigmas(c) {
                for imp in KernelImpl::ALL {
                    let serial = SellCSigma::from_csr(&csr, c, sigma, imp);
                    for threads in [1usize, 2, 4] {
                        let pool = SpmvPool::from_csr(
                            &csr,
                            threads,
                            &sell_unit_weights(&csr, c),
                            c,
                            move |s| SellCSigma::from_csr(s, c, sigma, imp),
                            PinPolicy::None,
                        );
                        assert_eq!(
                            pool.spmv(&x),
                            serial.spmv(&x),
                            "seed {seed} c={c} sigma={sigma} {imp} x{threads}"
                        );
                        assert_eq!(
                            pool.spmv_multi(&xk, K),
                            serial.spmv_multi(&xk, K),
                            "seed {seed} c={c} sigma={sigma} {imp} x{threads} multi"
                        );
                    }
                }
            }
        }
    }
}

/// The row permutation must be a stable descending-length sort *within*
/// each σ-window and the identity *across* windows: position `p` of the
/// permutation always holds a row from `p`'s own window.
#[test]
fn permutation_is_window_local_stable_descending_sort() {
    for seed in 0..50u64 {
        let csr: Csr<f64> = structured_case(seed).csr();
        let n = csr.n_rows();
        for &c in &SELL_HEIGHTS {
            for &sigma in &sell_sigmas(c) {
                let sell = SellCSigma::from_csr(&csr, c, sigma, KernelImpl::Scalar);
                let perm = sell.perm();
                assert_eq!(perm.len(), n);
                let sigma_eff = if sigma == SELL_SIGMA_FULL { n.max(1) } else { sigma };
                let mut w0 = 0;
                while w0 < n {
                    let w1 = (w0 + sigma_eff).min(n);
                    let window = &perm[w0..w1];
                    // Window-local: exactly the rows w0..w1, reordered.
                    let mut sorted: Vec<u32> = window.to_vec();
                    sorted.sort_unstable();
                    assert!(
                        sorted.iter().map(|&r| r as usize).eq(w0..w1),
                        "seed {seed} c={c} sigma={sigma}: window {w0}..{w1} leaks rows"
                    );
                    // Stable descending by row length.
                    for pair in window.windows(2) {
                        let (a, b) = (pair[0] as usize, pair[1] as usize);
                        let (la, lb) = (csr.row_nnz(a), csr.row_nnz(b));
                        assert!(
                            la > lb || (la == lb && a < b),
                            "seed {seed} c={c} sigma={sigma}: rows {a} (len {la}), \
                             {b} (len {lb}) out of stable descending order"
                        );
                    }
                    w0 = w1;
                }
            }
        }
    }
}

/// `inv[perm[p]] = p` must compose with the permutation to the identity
/// in both directions — the property that lets `spmv` unscramble `y`
/// with a single scatter.
#[test]
fn inverse_permutation_composes_to_identity() {
    for seed in 0..50u64 {
        let csr: Csr<f64> = structured_case(seed).csr();
        let n = csr.n_rows();
        for &c in &SELL_HEIGHTS {
            let sell = SellCSigma::from_csr(&csr, c, 64, KernelImpl::Scalar);
            let perm = sell.perm();
            let mut inv = vec![u32::MAX; n];
            for (p, &row) in perm.iter().enumerate() {
                assert_eq!(inv[row as usize], u32::MAX, "row {row} appears twice");
                inv[row as usize] = p as u32;
            }
            for (p, &row) in perm.iter().enumerate() {
                assert_eq!(inv[row as usize] as usize, p, "inv ∘ perm != id at {p}");
                assert_eq!(perm[inv[p] as usize] as usize, p, "perm ∘ inv != id at {p}");
            }
        }
    }
}

/// σ = 1 windows hold one row each, so no sort can move anything: the
/// permutation is the identity and `y` needs no unscrambling at all.
#[test]
fn sigma_one_permutation_is_identity() {
    for seed in 0..50u64 {
        let csr: Csr<f64> = structured_case(seed).csr();
        for &c in &SELL_HEIGHTS {
            let sell = SellCSigma::from_csr(&csr, c, 1, KernelImpl::Scalar);
            assert!(
                sell.perm().iter().enumerate().all(|(i, &r)| i == r as usize),
                "seed {seed} c={c}: sigma=1 permutation is not the identity"
            );
        }
    }
}

// ---- edge cases -----------------------------------------------------

fn ragged_csr(rows: &[usize], m: usize) -> Csr<f64> {
    let mut coo = Coo::new(rows.len(), m);
    for (i, &len) in rows.iter().enumerate() {
        for s in 0..len.min(m) {
            let _ = coo.push(i, (i * 3 + s * 7) % m, 1.0 + (i + s) as f64 * 0.5);
        }
    }
    Csr::from_coo(&coo)
}

/// `n_rows` not a multiple of C: the tail slice's missing lanes have
/// zero length and the product still covers every real row.
#[test]
fn tail_slice_rows_not_multiple_of_c() {
    for n in [1usize, 3, 5, 7, 9, 11, 13] {
        let rows: Vec<usize> = (0..n).map(|i| (i * 5) % 7).collect();
        let csr = ragged_csr(&rows, 16);
        let x: Vec<f64> = dense_x(csr.n_cols());
        let want = csr.spmv(&x);
        for &c in &SELL_HEIGHTS {
            for imp in KernelImpl::ALL {
                let sell = SellCSigma::from_csr(&csr, c, 64, imp);
                assert_eq!(sell.n_slices(), n.div_ceil(c), "n={n} c={c}");
                assert_eq!(sell.spmv(&x), want, "n={n} c={c} {imp}");
            }
        }
    }
}

#[test]
fn empty_matrix_and_all_empty_slices() {
    let empty = Csr::<f64>::from_coo(&Coo::new(0, 8));
    for &c in &SELL_HEIGHTS {
        let sell = SellCSigma::from_csr(&empty, c, 64, KernelImpl::Scalar);
        assert_eq!(sell.n_slices(), 0);
        assert_eq!(sell.spmv(&dense_x::<f64>(8)), Vec::<f64>::new());
    }
    // All rows empty: every slice exists but stores zero entries, and
    // the product is all zeros (written, not skipped).
    let zeros = Csr::<f64>::from_coo(&Coo::new(10, 8));
    for &c in &SELL_HEIGHTS {
        let sell = SellCSigma::from_csr(&zeros, c, 64, KernelImpl::Simd);
        assert_eq!(sell.nnz_stored(), 0);
        assert_eq!(sell.spmv(&dense_x::<f64>(8)), vec![0.0; 10]);
    }
}

/// One dense row among empty ones: at σ ≥ C the sort quarantines it
/// into one slice (its window pads only that slice), and the padding
/// bound `(C - 1) * max_len` holds for the unsorted layout.
#[test]
fn single_dense_row_dominates_its_window() {
    let mut rows = vec![0usize; 32];
    rows[13] = 24;
    let csr = ragged_csr(&rows, 32);
    let x: Vec<f64> = dense_x(csr.n_cols());
    let want = csr.spmv(&x);
    for &c in &SELL_HEIGHTS {
        let unsorted = SellCSigma::from_csr(&csr, c, 1, KernelImpl::Simd);
        let sorted = SellCSigma::from_csr(&csr, c, SELL_SIGMA_FULL, KernelImpl::Simd);
        assert_eq!(unsorted.padding(), (c - 1) * 24, "c={c} unsorted padding");
        assert_eq!(sorted.padding(), (c - 1) * 24, "c={c} sorted padding");
        assert_eq!(unsorted.spmv(&x), want, "c={c} unsorted");
        assert_eq!(sorted.spmv(&x), want, "c={c} sorted");
    }
}

/// σ not a multiple of C: sort windows straddle slice boundaries, so a
/// slice can mix rows from two windows and still must be exact.
#[test]
fn sigma_window_straddles_slice_boundaries() {
    let rows: Vec<usize> = (0..40).map(|i| (i * 11) % 13).collect();
    let csr = ragged_csr(&rows, 24);
    let x: Vec<f64> = dense_x(csr.n_cols());
    let want = csr.spmv(&x);
    for &c in &SELL_HEIGHTS {
        for sigma in [3usize, 5, 7, 2 * c + 1] {
            for imp in KernelImpl::ALL {
                let sell = SellCSigma::from_csr(&csr, c, sigma, imp);
                assert_eq!(sell.spmv(&x), want, "c={c} sigma={sigma} {imp}");
            }
        }
    }
}

/// The narrow constructor keeps u16 columns up to the eligibility
/// ceiling and escalates to u32 one column past it — bitwise equal
/// either way.
#[test]
fn narrow_index_escalation_at_column_ceiling() {
    for extra in [0usize, 1] {
        let m = IndexWidth::MAX_U16_COLS + extra;
        let mut coo = Coo::new(6, m);
        for i in 0..6 {
            // Hit the last eligible column explicitly.
            let _ = coo.push(i, m - 1 - i * 7, 1.5 + i as f64);
            let _ = coo.push(i, (i * 9973) % m, 0.5 + i as f64);
        }
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..m).map(|j| 0.5 + (j % 17) as f64 * 0.125).collect();
        let want = csr.spmv(&x);
        for &c in &SELL_HEIGHTS {
            let narrow = SellCSigma::from_csr_narrow(&csr, c, 64, KernelImpl::Simd);
            let expect = if extra == 0 { IndexWidth::U16 } else { IndexWidth::U32 };
            assert_eq!(narrow.index_width(), expect, "m={m} c={c}");
            assert_eq!(narrow.spmv(&x), want, "m={m} c={c}");
        }
    }
}

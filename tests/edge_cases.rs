//! Degenerate-shape and boundary coverage for every format, single- and
//! multi-vector: empty matrices, single-row / single-column matrices, a
//! fully dense row, the 1D-VBL `u8` run-length boundary (a dense row
//! wider than 255 columns must split into multiple runs), and the CSR-Δ
//! delta-width boundaries (u8→u16→u32 escalation inside one row, gaps
//! past 255).

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::formats::{Bcsd, BcsdDec, Bcsr, BcsrDec, CsrDelta, Vbl};
use blocked_spmv::kernels::{BlockShape, KernelImpl};

const K: usize = 4;

/// Checks every format built from `coo` against the triplet reference,
/// for k = 1 and k = 4, both kernel implementations.
fn check_all(coo: &Coo<f64>, what: &str) {
    let (n, m) = (coo.n_rows(), coo.n_cols());
    let csr = Csr::from_coo(coo);
    let x: Vec<f64> = (0..m * K).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();

    // Reference straight off CSR rows in plain order.
    let mut yref = vec![0.0; n * K];
    for t in 0..K {
        for i in 0..n {
            let (cols, vals) = csr.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                yref[t * n + i] += v * x[t * m + c as usize];
            }
        }
    }

    let shape = BlockShape::new(2, 2).unwrap();
    for imp in KernelImpl::ALL {
        let formats: Vec<(String, Box<dyn SpMvMulti<f64>>)> = vec![
            ("csr".to_string(), Box::new(csr.clone())),
            (
                format!("csr-delta {imp}"),
                Box::new(CsrDelta::from_csr(&csr, imp)),
            ),
            (
                format!("bcsr {imp}"),
                Box::new(Bcsr::from_csr(&csr, shape, imp)),
            ),
            (
                format!("bcsr16 {imp}"),
                Box::new(Bcsr::from_csr_narrow(&csr, shape, imp)),
            ),
            (
                format!("bcsr-dec {imp}"),
                Box::new(BcsrDec::from_csr(&csr, shape, imp)),
            ),
            (format!("bcsd {imp}"), Box::new(Bcsd::from_csr(&csr, 4, imp))),
            (
                format!("bcsd16 {imp}"),
                Box::new(Bcsd::from_csr_narrow(&csr, 4, imp)),
            ),
            (
                format!("bcsd-dec {imp}"),
                Box::new(BcsdDec::from_csr(&csr, 4, imp)),
            ),
            (format!("vbl {imp}"), Box::new(Vbl::from_csr(&csr, imp))),
            (
                format!("vbl16 {imp}"),
                Box::new(Vbl::from_csr_narrow(&csr, imp)),
            ),
        ];
        for (label, mat) in &formats {
            assert_eq!((mat.n_rows(), mat.n_cols()), (n, m), "{what} {label}");
            let single = mat.spmv(&x[..m]);
            let multi = mat.spmv_multi(&x, K);
            for i in 0..n {
                assert!(
                    (single[i] - yref[i]).abs() <= 1e-9 * (1.0 + yref[i].abs()),
                    "{what} {label}: row {i}"
                );
            }
            for (idx, g) in multi.iter().enumerate() {
                assert!(
                    (g - yref[idx]).abs() <= 1e-9 * (1.0 + yref[idx].abs()),
                    "{what} {label}: multi entry {idx}"
                );
            }
        }
    }
}

#[test]
fn empty_matrix_all_nnz_zero() {
    check_all(&Coo::new(5, 7), "5x7 no entries");
}

#[test]
fn single_row_matrix() {
    let mut coo = Coo::new(1, 23);
    for j in (0..23).step_by(3) {
        coo.push(0, j, 1.0 + j as f64).unwrap();
    }
    check_all(&coo, "1x23");
}

#[test]
fn single_column_matrix() {
    let mut coo = Coo::new(23, 1);
    for i in (0..23).step_by(2) {
        coo.push(i, 0, 1.0 + i as f64).unwrap();
    }
    check_all(&coo, "23x1");
}

#[test]
fn one_by_one() {
    let mut coo = Coo::new(1, 1);
    coo.push(0, 0, 3.5).unwrap();
    check_all(&coo, "1x1");
}

#[test]
fn fully_dense_row_among_sparse_rows() {
    let mut coo = Coo::new(9, 40);
    for j in 0..40 {
        coo.push(4, j, 0.25 * (j + 1) as f64).unwrap();
    }
    for i in 0..9 {
        coo.push(i, (i * 5) % 40, 1.0).unwrap();
    }
    check_all(&coo, "dense row 4");
}

#[test]
fn vbl_run_longer_than_255_columns_splits() {
    // One 300-wide dense row: 1D-VBL stores run lengths in u8, so this
    // must split into ceil(300/255) = 2 runs and still multiply exactly.
    let mut coo = Coo::new(3, 300);
    for j in 0..300 {
        coo.push(1, j, 1.0 + (j % 11) as f64).unwrap();
    }
    coo.push(0, 299, 2.0).unwrap();
    coo.push(2, 0, 3.0).unwrap();
    let csr = Csr::from_coo(&coo);
    for imp in KernelImpl::ALL {
        let vbl = Vbl::from_csr(&csr, imp);
        assert!(
            vbl.n_blocks() >= 3,
            "300-wide run must split at the u8 boundary ({imp})"
        );
    }
    check_all(&coo, "vbl >255 run");
}

#[test]
fn csr_delta_width_escalates_u8_u16_u32_mid_row() {
    // One row whose column gaps cross every width class: a leading
    // gap-1 stretch (unit run), a 96 gap (u8), a 300 gap (u16), and two
    // gaps past u16::MAX (u32) — all inside the same row.
    let n_cols = 132_001;
    let cols = [0usize, 1, 2, 3, 4, 100, 400, 66_000, 132_000];
    let mut coo = Coo::new(2, n_cols);
    for (jx, &j) in cols.iter().enumerate() {
        coo.push(0, j, 1.0 + jx as f64).unwrap();
    }
    coo.push(1, 7, 2.5).unwrap();
    let csr = Csr::from_coo(&coo);
    for imp in KernelImpl::ALL {
        let delta = CsrDelta::from_csr(&csr, imp);
        delta.validate().unwrap();
        let [unit, w8, w16, w32] = delta.run_counts();
        assert_eq!(
            (unit, w8, w16, w32),
            (1, 2, 1, 1),
            "row 0: unit+u8+u16+u32 (the two u32 gaps coalesce), row 1: one u8 run ({imp})"
        );
        assert_eq!(delta.to_csr(), csr, "{imp}");
        let x: Vec<f64> = (0..n_cols).map(|i| 0.5 + (i % 13) as f64 * 0.25).collect();
        if imp == KernelImpl::Scalar {
            assert_eq!(delta.spmv(&x), csr.spmv(&x), "{imp} must be bitwise");
        } else {
            for (g, w) in delta.spmv(&x).iter().zip(csr.spmv(&x)) {
                assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{imp}");
            }
        }
    }
    // The same matrix is too wide for u16 block indices: the narrow
    // constructors must fall back to full width and still be exact.
    let narrow = Bcsr::from_csr_narrow(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
    assert_eq!(
        narrow.index_width(),
        blocked_spmv::core::IndexWidth::U32,
        "132001 columns exceed the u16 range"
    );
}

#[test]
fn csr_delta_rows_with_gaps_past_255() {
    // Every row jumps >= 256 columns between nonzeros, so no gap fits
    // u8's singleton class comfortably packed as units: the encoder must
    // emit u16 runs and every format must still agree.
    let mut coo = Coo::new(5, 600);
    for i in 0..5 {
        coo.push(i, i, 1.0 + i as f64).unwrap();
        coo.push(i, i + 590, 2.0 + i as f64).unwrap();
    }
    let csr = Csr::from_coo(&coo);
    let delta = CsrDelta::from_csr(&csr, KernelImpl::Scalar);
    delta.validate().unwrap();
    let [_, _, w16, _] = delta.run_counts();
    assert!(w16 >= 5, "each 590-wide jump needs a u16 gap");
    check_all(&coo, ">=256-gap rows");
}

#[test]
fn multi_with_zero_rows_or_cols() {
    // Degenerate extents: the only observable effect is a zeroed output.
    let wide: Csr<f64> = Csr::from_coo(&Coo::new(0, 6));
    assert!(wide.spmv_multi(&[1.0; 6 * K], K).is_empty());
    let tall: Csr<f64> = Csr::from_coo(&Coo::new(6, 0));
    let y = tall.spmv_multi(&[], K);
    assert_eq!(y, vec![0.0; 6 * K]);
}

//! Multithreaded SpMV with padding-aware load balancing on a persistent
//! worker pool.
//!
//! Reproduces the paper's §V-A threading setup on one matrix: the rows
//! are split into as many nnz-balanced strips as threads (counting
//! padding for the padded formats), and every strip runs on its own
//! long-lived, core-pinned worker (`SpmvPool`). Prints the measured time
//! per SpMV at 1, 2, and 4 threads for CSR and the best BCSR shape, the
//! strip boundaries so the balancing is visible, and each strip's
//! measured per-iteration time — whose max/mean ratio is the measured
//! imbalance the multicore model can consume
//! (`spmv_model::multicore::predict_threaded_measured`).
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```

use blocked_spmv::core::{Csr, MatrixShape, SpMv};
use blocked_spmv::formats::Bcsr;
use blocked_spmv::gen::{random_vector, GenSpec};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::multicore::imbalance_factor;
use blocked_spmv::model::timing::measure_spmv;
use blocked_spmv::parallel::{bcsr_unit_weights, csr_unit_weights, PinPolicy, SpmvPool};

fn main() {
    let csr: Csr<f64> = GenSpec::FemBlocks {
        nodes: 20_000,
        dof: 3,
        neighbors: 9,
    }
    .build(11);
    let shape = BlockShape::new(3, 2).unwrap();
    println!(
        "matrix: {} rows, {} nnz ({:.1} MiB CSR working set)",
        csr.n_rows(),
        csr.nnz(),
        csr.working_set_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "host parallelism: {} hardware thread(s)\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    let x: Vec<f64> = random_vector(csr.n_cols(), 3);
    let reference = csr.spmv(&x);

    for threads in [1, 2, 4] {
        // CSR strips balanced by nonzeros per row, one persistent pinned
        // worker per strip.
        let pool_csr = SpmvPool::from_csr(
            &csr,
            threads,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::Compact,
        );
        // BCSR strips balanced by stored elements (padding included),
        // boundaries aligned to block rows.
        let pool_bcsr = SpmvPool::from_csr(
            &csr,
            threads,
            &bcsr_unit_weights(&csr, shape),
            shape.rows(),
            move |s| Bcsr::from_csr(s, shape, KernelImpl::Simd),
            PinPolicy::Compact,
        );

        // Correctness across the strip boundaries.
        let got = pool_bcsr.spmv(&x);
        let max_err = reference
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-6, "parallel result diverged");

        let t_csr = measure_spmv(&pool_csr, &x, 5e-3, 3);
        let t_bcsr = measure_spmv(&pool_bcsr, &x, 5e-3, 3);
        println!(
            "{threads} thread(s): CSR {:>8.3} ms | BCSR {} simd {:>8.3} ms | strips: {:?}",
            t_csr * 1e3,
            shape,
            t_bcsr * 1e3,
            pool_bcsr
                .strip_rows()
                .iter()
                .map(|r| format!("{}..{}", r.start, r.end))
                .collect::<Vec<_>>()
        );
        if let Some(per_strip) = pool_bcsr.measured_strip_seconds() {
            let medians: Vec<String> = per_strip
                .iter()
                .map(|s| format!("{:.3} ms", s * 1e3))
                .collect();
            println!(
                "            per-strip medians {:?} -> measured imbalance {:.3}",
                medians,
                imbalance_factor(&per_strip)
            );
        }
    }

    println!(
        "note: speedups require real cores; on a single-core host the \
         2- and 4-thread rows only demonstrate correctness of the partitioning."
    );
}

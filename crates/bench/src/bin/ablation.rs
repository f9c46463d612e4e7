//! Ablations of the design choices called out in DESIGN.md §7:
//!
//! 1. aligned vs unaligned BCSR (padding vs uniform kernels);
//! 2. u8 1D-VBL block sizes: the byte saving over u32 sizes and the
//!    real cost of 255-chunking on long runs;
//! 3. padding-aware vs naive nnz load balancing;
//! 4. full-block-only extraction in the decomposed formats (coverage vs
//!    remainder overhead), proxied by BCSR-DEC against BCSR on a
//!    partially blocked matrix.
//!
//! Each variant is timed with the harness's best-of-batches loop and
//! reported against the first variant of its ablation.
//!
//! Run: `cargo run --release -p spmv-bench --bin ablation`

use spmv_bench::{Align, Args, Table};
use spmv_core::{Coo, Csr, MatrixShape, SpMv};
use spmv_formats::{Bcsr, BcsrDec, Vbl};
use spmv_gen::{random_vector, GenSpec};
use spmv_kernels::{BlockShape, KernelImpl};
use spmv_model::timing::measure_spmv;
use spmv_parallel::{bcsr_unit_weights, PinPolicy, SpmvPool};

/// Times variants into one table, each relative to the first variant
/// of its ablation.
struct Ablations {
    min_time: f64,
    batches: usize,
    table: Table,
    base: f64,
}

impl Ablations {
    fn time<M: SpMv<f64>>(&mut self, ablation: &str, variant: &str, mat: &M, x: &[f64]) {
        let t = measure_spmv(mat, x, self.min_time, self.batches);
        // A labelled row opens an ablation and sets its baseline.
        if !ablation.is_empty() {
            self.base = t;
        }
        self.table.add_row(vec![
            ablation.to_string(),
            variant.to_string(),
            format!("{:.1}", t * 1e6),
            format!("{:.2}", t / self.base),
        ]);
    }
}

/// A matrix whose runs sit at odd offsets: alignment hurts here.
fn alignment(ab: &mut Ablations) {
    let csr = GenSpec::ClusteredRandom {
        n: 20_000,
        m: 20_000,
        runs_per_row: 6,
        run_len: 5, // odd length at random start: rarely 4-aligned
    }
    .build(7);
    let shape = BlockShape::new(1, 4).unwrap();
    let x: Vec<f64> = random_vector(csr.n_cols(), 1);
    let aligned = Bcsr::from_csr_with(&csr, shape, KernelImpl::Scalar, true);
    let unaligned = Bcsr::from_csr_with(&csr, shape, KernelImpl::Scalar, false);
    println!(
        "alignment: padding aligned {} vs unaligned {} (blocks {} vs {})",
        aligned.padding(),
        unaligned.padding(),
        aligned.n_blocks(),
        unaligned.n_blocks()
    );
    ab.time("alignment-1x4", "aligned", &aligned, &x);
    ab.time("", "unaligned", &unaligned, &x);
}

/// Long dense rows force 255-chunking; measure its cost per kernel and
/// report the byte saving of u8 sizes over a u32 alternative.
fn vbl_chunking(ab: &mut Ablations) {
    let csr = GenSpec::ClusteredRandom {
        n: 400,
        m: 60_000,
        runs_per_row: 2,
        run_len: 1200, // several 255-chunks per run
    }
    .build(3);
    let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
    println!(
        "vbl-chunking: {} blocks (mean len {:.1}); u8 sizes save {} bytes vs u32",
        vbl.n_blocks(),
        vbl.avg_block_len(),
        3 * vbl.n_blocks()
    );
    let x: Vec<f64> = random_vector(csr.n_cols(), 2);
    for (i, imp) in KernelImpl::ALL.into_iter().enumerate() {
        let mut v = vbl.clone();
        v.set_kernel_impl(imp);
        let label = if i == 0 { "vbl-chunking" } else { "" };
        ab.time(label, &format!("long-runs {imp}"), &v, &x);
    }
}

/// A skewed (power-law) matrix: padding-aware balanced strips vs a
/// naive equal-row split, each on an unpinned four-worker pool.
fn load_balance(ab: &mut Ablations) {
    let csr = GenSpec::PowerLaw {
        n: 40_000,
        avg_deg: 8,
        alpha: 1.6,
    }
    .build(5);
    let shape = BlockShape::new(1, 2).unwrap();
    let x: Vec<f64> = random_vector(csr.n_cols(), 4);
    let build = move |s: &Csr<f64>| Bcsr::from_csr(s, shape, KernelImpl::Scalar);
    let balanced = SpmvPool::from_csr(
        &csr,
        4,
        &bcsr_unit_weights(&csr, shape),
        shape.rows(),
        build,
        PinPolicy::None,
    );
    // Naive: every unit weighs 1, so every strip gets the same row count.
    let naive = SpmvPool::from_csr(
        &csr,
        4,
        &vec![1u64; csr.n_rows()],
        1,
        build,
        PinPolicy::None,
    );
    ab.time("load-balance-4t", "padding-aware", &balanced, &x);
    ab.time("", "equal-rows", &naive, &x);
}

/// Half the nonzeros form perfect 2x2 blocks, half are scatter: BCSR
/// must pad the scatter, BCSR-DEC routes it to the CSR remainder.
fn dec_threshold(ab: &mut Ablations) {
    let blocks = GenSpec::FemBlocks {
        nodes: 8_000,
        dof: 2,
        neighbors: 4,
    }
    .build(11);
    let scatter = GenSpec::Random {
        n: 16_000,
        m: 16_000,
        nnz_per_row: 5,
    }
    .build(12);
    let mut coo = Coo::new(16_000, 16_000);
    for (i, j, v) in blocks.iter().chain(scatter.iter()) {
        coo.push(i, j, v).unwrap();
    }
    let csr = Csr::from_coo(&coo);
    let shape = BlockShape::new(2, 2).unwrap();
    let bcsr = Bcsr::from_csr(&csr, shape, KernelImpl::Scalar);
    let dec = BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar);
    println!(
        "dec-vs-padding: BCSR pads {} zeros; BCSR-DEC covers {:.0}% in full blocks",
        bcsr.padding(),
        dec.coverage() * 100.0
    );
    let x: Vec<f64> = random_vector(csr.n_cols(), 9);
    ab.time("dec-vs-padding-2x2", "bcsr", &bcsr, &x);
    ab.time("", "bcsr-dec", &dec, &x);
}

fn main() {
    let args = Args::from_env();
    if args.flag("help") {
        println!(
            "usage: ablation [--min-time MS] [--batches N]\n\
             defaults: --min-time 20 --batches 3"
        );
        return;
    }
    let mut ab = Ablations {
        min_time: args.get_f64("min-time", 20.0) * 1e-3,
        batches: args.get_usize("batches", 3).max(1),
        table: Table::new(vec!["ablation", "variant", "us/SpMV", "vs first"])
            .aligns(vec![Align::Left, Align::Left, Align::Right, Align::Right])
            .title("Design-choice ablations (DESIGN.md §7), best of batches"),
        base: 0.0,
    };
    alignment(&mut ab);
    vbl_chunking(&mut ab);
    load_balance(&mut ab);
    dec_threshold(&mut ab);
    println!("{}", ab.table);
}

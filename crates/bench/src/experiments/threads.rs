//! Figure 2: wins per format across 1, 2, and 4 cores.
//!
//! Mirrors §V-A's multithreaded evaluation: the matrix is split row-wise
//! into as many nnz-balanced strips as threads (padding-aware for the
//! padded formats), each strip stored independently, and one thread runs
//! each strip. Per matrix and format, the block shape is chosen by the
//! single-threaded sweep and then measured at every thread count — the
//! winner per (cores, precision) cell is the fastest format.

use crate::report::Table;
use crate::sweep::{build_both, ExpOpts};
use spmv_core::{Csr, MatrixShape, Precision};
use spmv_formats::FormatKind;
use spmv_gen::{random_vector, suite, Geometry};
use spmv_kernels::simd::SimdScalar;
use spmv_model::timing::measure_spmv;
use spmv_model::Config;
use spmv_parallel::{PinPolicy, Placement};
use std::collections::BTreeMap;

/// Thread counts evaluated by Figure 2.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// Measures `config` on `csr` at the given thread count.
///
/// Runs on the persistent, core-pinned pool of [`Config::pooled`]
/// (padding-aware, block-aligned strips) rather than per-call scoped
/// threads, so the measured time is the kernel plus one epoch
/// barrier — not a thread spawn/join per multiply, which used to
/// dominate on small matrices (see `docs/PARALLEL.md` and the
/// "Measurement methodology" section of EXPERIMENTS.md).
pub fn measure_threaded<T: SimdScalar>(
    csr: &Csr<T>,
    config: Config,
    threads: usize,
    opts: &ExpOpts,
) -> f64 {
    let pool = config.pooled(csr, threads, Placement::pinned(PinPolicy::Compact));
    let x: Vec<T> = random_vector(csr.n_cols(), opts.seed);
    measure_spmv(&pool, &x, opts.min_time, opts.batches)
}

/// Picks each format's best block configuration by single-threaded time
/// (scalar kernels, as in Figure 2).
fn best_blocks_per_format<T: SimdScalar>(
    csr: &Csr<T>,
    opts: &ExpOpts,
) -> Vec<(FormatKind, Config)> {
    let mut best: BTreeMap<FormatKind, (Config, f64)> = BTreeMap::new();
    let x: Vec<T> = random_vector(csr.n_cols(), opts.seed);
    for config in Config::enumerate(false) {
        let built = config.build(csr);
        let t = measure_spmv(&built, &x, opts.min_time, opts.batches);
        let kind = config.block.kind();
        match best.get(&kind) {
            Some(&(_, tb)) if tb <= t => {}
            _ => {
                best.insert(kind, (config, t));
            }
        }
    }
    best.into_iter().map(|(k, (c, _))| (k, c)).collect()
}

/// Figure 2's dataset: win counts per format per (threads, precision).
#[derive(Debug, Clone, Default)]
pub struct Fig2Result {
    /// `wins[format][(threads index, precision index)]`, precision 0=dp.
    pub wins: BTreeMap<FormatKind, [[usize; 2]; 3]>,
    /// Matrices measured (specials excluded).
    pub n_matrices: usize,
}

/// Runs the multithreaded evaluation over the selected suite.
pub fn run(opts: &ExpOpts) -> Fig2Result {
    let mut result = Fig2Result::default();
    for entry in suite(opts.scale) {
        if !opts.selects(entry.id) || entry.geometry == Geometry::Special {
            continue;
        }
        let (m64, m32) = build_both(&entry, opts.seed);
        result.n_matrices += 1;
        for (pi, precision) in [Precision::Double, Precision::Single]
            .into_iter()
            .enumerate()
        {
            match precision {
                Precision::Double => run_one(&m64, opts, pi, &mut result),
                Precision::Single => run_one(&m32, opts, pi, &mut result),
            }
        }
    }
    result
}

fn run_one<T: SimdScalar>(csr: &Csr<T>, opts: &ExpOpts, pi: usize, result: &mut Fig2Result) {
    let picks = best_blocks_per_format(csr, opts);
    for (ti, &threads) in THREADS.iter().enumerate() {
        let mut best: Option<(FormatKind, f64)> = None;
        for &(kind, config) in &picks {
            let t = measure_threaded(csr, config, threads, opts);
            if best.is_none_or(|(_, tb)| t < tb) {
                best = Some((kind, t));
            }
        }
        let (winner, _) = best.expect("at least CSR measured");
        result.wins.entry(winner).or_default()[ti][pi] += 1;
    }
}

/// Renders the Figure 2 win distribution as a table (rows = formats,
/// columns = cores x precision).
pub fn render(result: &Fig2Result) -> Table {
    let mut headers = vec!["Method".to_string()];
    for &threads in &THREADS {
        for p in ["dp", "sp"] {
            headers.push(format!("{threads}c {p}"));
        }
    }
    let mut t = Table::new(headers).title(format!(
        "Figure 2: wins per format across cores ({} matrices, specials excluded)",
        result.n_matrices
    ));
    for kind in FormatKind::MODELED {
        let w = result.wins.get(&kind).copied().unwrap_or_default();
        t.add_row(vec![
            kind.label().to_string(),
            w[0][0].to_string(),
            w[0][1].to_string(),
            w[1][0].to_string(),
            w[1][1].to_string(),
            w[2][0].to_string(),
            w[2][1].to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_gen::GenSpec;

    fn quick_opts(ids: Vec<usize>) -> ExpOpts {
        ExpOpts {
            scale: 0.02,
            seed: 5,
            min_time: 5e-5,
            batches: 1,
            matrices: Some(ids),
            calib_bytes: None,
        }
    }

    #[test]
    fn threaded_measurement_is_positive_and_correct() {
        let csr = GenSpec::Stencil2d { nx: 16, ny: 16 }.build(1);
        let opts = quick_opts(vec![]);
        for threads in THREADS {
            let t = measure_threaded(&csr, Config::CSR, threads, &opts);
            assert!(t > 0.0);
        }
    }

    #[test]
    fn wins_sum_to_matrix_count_per_cell() {
        let opts = quick_opts(vec![4, 23]);
        let res = run(&opts);
        assert_eq!(res.n_matrices, 2);
        for ti in 0..3 {
            for pi in 0..2 {
                let total: usize = res.wins.values().map(|w| w[ti][pi]).sum();
                assert_eq!(total, 2, "cell ({ti},{pi})");
            }
        }
        let table = render(&res);
        assert_eq!(table.n_rows(), 5);
    }

    #[test]
    fn partition_inputs_align_units() {
        // The measured pool splits BCSR on block rows: 36 rows of 3-dof
        // nodes, BCSR 3x2, so every strip starts on a node boundary.
        let csr = GenSpec::FemBlocks {
            nodes: 12,
            dof: 3,
            neighbors: 3,
        }
        .build(2);
        let config = Config {
            block: spmv_model::BlockConfig::Bcsr(spmv_kernels::BlockShape::new(3, 2).unwrap()),
            imp: spmv_kernels::KernelImpl::Scalar,
        };
        for threads in THREADS {
            let pool = config.pooled(&csr, threads, Placement::none());
            assert_eq!(pool.strip_rows().last().map(|r| r.end), Some(36));
            assert!(pool.strip_rows().iter().all(|r| r.start % 3 == 0));
        }
    }
}

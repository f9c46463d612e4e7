//! Index-compression experiment (`results/compression.txt`): measured
//! and predicted effect of the compressed-index storage extension.
//!
//! For every suite matrix, three baseline→compressed pairs are compared:
//!
//! * CSR → CSR-Δ (delta-encoded, run-classified column stream);
//! * the OVERLAP-ranked best BCSR shape → its narrow-index twin;
//! * the OVERLAP-ranked best BCSD size → its narrow-index twin.
//!
//! Each side reports its index bytes per nonzero, its measured time, and
//! its OVERLAP-model prediction, so the report shows both the realized
//! index-byte reduction and how faithfully the byte-traffic models track
//! the measured gain.

use crate::experiments::modeleval::calibrate;
use crate::report::{f2, pct, Table};
use crate::sweep::ExpOpts;
use spmv_core::{Csr, Precision, SpMv};
use spmv_formats::FormatKind;
use spmv_gen::{random_vector, suite, Geometry};
use spmv_kernels::simd::SimdScalar;
use spmv_model::timing::measure_spmv;
use spmv_model::{rank, BlockConfig, Config, KernelProfile, MachineProfile, Model};

/// One baseline→compressed comparison.
#[derive(Debug, Clone)]
pub struct PairEval {
    /// Pair label (e.g. `CSR -> CSR-DELTA`).
    pub pair: &'static str,
    /// Baseline configuration label.
    pub base: String,
    /// Compressed configuration label.
    pub comp: String,
    /// Baseline index bytes per nonzero.
    pub base_idx: f64,
    /// Compressed index bytes per nonzero.
    pub comp_idx: f64,
    /// Baseline measured time, seconds.
    pub base_real: f64,
    /// Compressed measured time, seconds.
    pub comp_real: f64,
    /// Baseline OVERLAP prediction, seconds.
    pub base_pred: f64,
    /// Compressed OVERLAP prediction, seconds.
    pub comp_pred: f64,
}

impl PairEval {
    /// Fractional index-byte reduction (`1 - comp/base`).
    pub fn idx_reduction(&self) -> f64 {
        1.0 - self.comp_idx / self.base_idx
    }

    /// Measured speedup of the compressed side.
    pub fn measured_speedup(&self) -> f64 {
        self.base_real / self.comp_real
    }

    /// Predicted speedup of the compressed side.
    pub fn predicted_speedup(&self) -> f64 {
        self.base_pred / self.comp_pred
    }
}

/// Per-matrix comparison set.
#[derive(Debug, Clone)]
pub struct MatrixCompression {
    /// Paper id.
    pub id: usize,
    /// Matrix name.
    pub name: &'static str,
    /// The three baseline→compressed pairs.
    pub pairs: Vec<PairEval>,
}

/// The full compression evaluation for one precision.
#[derive(Debug, Clone)]
pub struct CompressionResult {
    /// Evaluated precision.
    pub precision: Precision,
    /// The calibrated machine profile used for predictions.
    pub machine: MachineProfile,
    /// One record per matrix.
    pub per_matrix: Vec<MatrixCompression>,
}

fn index_bytes_per_nnz<T: SimdScalar>(config: Config, csr: &Csr<T>) -> f64 {
    let built = config.build(csr);
    (built.matrix_bytes() - built.nnz_stored() * T::BYTES) as f64 / csr.nnz().max(1) as f64
}

fn eval_pair<T: SimdScalar>(
    pair: &'static str,
    (base, comp): (Config, Config),
    csr: &Csr<T>,
    x: &[T],
    machine: &MachineProfile,
    profile: &KernelProfile,
    opts: &ExpOpts,
) -> PairEval {
    let time = |c: Config| measure_spmv(&c.build(csr), x, opts.min_time, opts.batches);
    let pred = |c: Config| Model::Overlap.predict(&c.substats(csr), machine, profile);
    PairEval {
        pair,
        base: base.to_string(),
        comp: comp.to_string(),
        base_idx: index_bytes_per_nnz(base, csr),
        comp_idx: index_bytes_per_nnz(comp, csr),
        base_real: time(base),
        comp_real: time(comp),
        base_pred: pred(base),
        comp_pred: pred(comp),
    }
}

/// Runs the compression evaluation over the selected suite.
pub fn run<T: SimdScalar>(opts: &ExpOpts) -> CompressionResult {
    let matrices: Vec<(usize, &'static str, Csr<T>)> = suite(opts.scale)
        .iter()
        .filter(|e| opts.selects(e.id) && e.geometry != Geometry::Special)
        .map(|e| (e.id, e.name, e.build(opts.seed).cast::<T>()))
        .collect();

    let mut ws: Vec<usize> = matrices
        .iter()
        .map(|(_, _, m)| m.working_set_bytes())
        .collect();
    ws.sort_unstable();
    let ws_hint = ws.get(ws.len() / 2).copied().unwrap_or(8 << 20);
    let (machine, profile) = calibrate::<T>(ws_hint, opts);

    let base_space = Config::enumerate(true);
    let mut per_matrix = Vec::with_capacity(matrices.len());
    for (id, name, csr) in &matrices {
        let x: Vec<T> = random_vector(spmv_core::MatrixShape::n_cols(csr), opts.seed);
        // Pick the blocked baselines by OVERLAP ranking over the paper's
        // base space, then pair each with its narrow-index twin at the
        // same block parameter and kernel implementation.
        let ranked = rank(Model::Overlap, csr, &machine, &profile, &base_space);
        let best_of = |kind: FormatKind| {
            ranked
                .iter()
                .filter(|cand| cand.config.block.kind() == kind)
                .find_map(|cand| {
                    let block = cand.config.block.narrow()?;
                    Some((
                        cand.config,
                        Config {
                            block,
                            imp: cand.config.imp,
                        },
                    ))
                })
        };
        let bcsr_pair = best_of(FormatKind::Bcsr).expect("base space contains BCSR");
        let bcsd_pair = best_of(FormatKind::Bcsd).expect("base space contains BCSD");

        let delta = Config {
            block: BlockConfig::CsrDelta,
            imp: spmv_kernels::KernelImpl::Scalar,
        };
        let pairs = vec![
            eval_pair(
                "CSR -> CSR-DELTA",
                (Config::CSR, delta),
                csr,
                &x,
                &machine,
                &profile,
                opts,
            ),
            eval_pair("BCSR -> BCSR16", bcsr_pair, csr, &x, &machine, &profile, opts),
            eval_pair("BCSD -> BCSD16", bcsd_pair, csr, &x, &machine, &profile, opts),
        ];
        per_matrix.push(MatrixCompression {
            id: *id,
            name,
            pairs,
        });
    }

    CompressionResult {
        precision: T::PRECISION,
        machine,
        per_matrix,
    }
}

/// Renders the per-matrix comparison table with suite-wide means in the
/// title.
pub fn render(result: &CompressionResult) -> Table {
    let mut sums: Vec<(&'static str, f64, f64, usize)> = Vec::new();
    for m in &result.per_matrix {
        for p in &m.pairs {
            match sums.iter_mut().find(|(l, ..)| *l == p.pair) {
                Some(s) => {
                    s.1 += p.idx_reduction();
                    s.2 += p.measured_speedup();
                    s.3 += 1;
                }
                None => sums.push((p.pair, p.idx_reduction(), p.measured_speedup(), 1)),
            }
        }
    }
    let summary: Vec<String> = sums
        .iter()
        .map(|(l, red, spd, n)| {
            format!(
                "{l}: idx {} speedup {}",
                pct(red / *n as f64),
                f2(spd / *n as f64)
            )
        })
        .collect();
    let mut t = Table::new(vec![
        "Matrix",
        "Pair",
        "idx B/nnz",
        "idx red.",
        "real ms",
        "speedup",
        "pred ms",
        "pred spd",
    ])
    .title(format!(
        "Index compression ({}): measured vs predicted | mean {}",
        result.precision.label(),
        summary.join(" | ")
    ));
    for m in &result.per_matrix {
        for p in &m.pairs {
            t.add_row(vec![
                format!("{:02}.{}", m.id, m.name),
                format!("{} -> {}", p.base, p.comp),
                format!("{} -> {}", f2(p.base_idx), f2(p.comp_idx)),
                pct(p.idx_reduction()),
                format!("{:.4} -> {:.4}", p.base_real * 1e3, p.comp_real * 1e3),
                f2(p.measured_speedup()),
                format!("{:.4} -> {:.4}", p.base_pred * 1e3, p.comp_pred * 1e3),
                f2(p.predicted_speedup()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_pairs_shrink_index_bytes() {
        let opts = ExpOpts {
            scale: 0.02,
            seed: 9,
            min_time: 5e-5,
            batches: 1,
            matrices: Some(vec![4, 21]),
            calib_bytes: Some(1 << 16),
        };
        let res = run::<f64>(&opts);
        assert_eq!(res.per_matrix.len(), 2);
        for m in &res.per_matrix {
            assert_eq!(m.pairs.len(), 3);
            for p in &m.pairs {
                assert!(
                    p.comp_idx < p.base_idx,
                    "{}: {} !< {}",
                    p.pair,
                    p.comp_idx,
                    p.base_idx
                );
                assert!(p.base_pred > 0.0 && p.comp_pred > 0.0, "{}", p.pair);
                assert!(p.base_real > 0.0 && p.comp_real > 0.0);
            }
        }
        let _ = render(&res).to_string();
    }
}

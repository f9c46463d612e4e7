//! Figures 3–4 and Table IV: evaluating the performance models.
//!
//! Two metrics, per §V-B:
//!
//! * **prediction accuracy** (Figure 3) — for every matrix, the mean of
//!   `predicted / real` over all (block method, block) combinations, per
//!   model, plus the suite-wide mean absolute relative distance;
//! * **selection accuracy** (Figure 4, Table IV) — the real execution
//!   time of each model's chosen configuration, normalized by the best
//!   measured configuration, plus the count of exactly optimal choices.
//!
//! Model calibration (machine bandwidth, `t_b`, `nof`) happens once per
//! precision before the per-matrix loop. The bandwidth triad and the
//! `nof` profiling matrix are sized like the evaluated working sets so
//! the models see the memory level the matrices actually stream from
//! (DESIGN.md §2).

use crate::report::{f2, pct, Table};
use crate::sweep::ExpOpts;
use spmv_core::{Csr, Precision, SpMv};
use spmv_gen::{random_vector, suite, Geometry};
use spmv_kernels::simd::SimdScalar;
use spmv_model::timing::measure_spmv;
use spmv_model::{
    profile_kernels, residual_key_for, select_extended, Config, MachineProfile, Model,
    ProfileOptions,
};

/// Per-matrix, per-model evaluation record.
#[derive(Debug, Clone)]
pub struct MatrixEval {
    /// Paper id.
    pub id: usize,
    /// Matrix name.
    pub name: &'static str,
    /// Mean `predicted / real` over all configurations, per model
    /// (Figure 3's y-axis).
    pub avg_norm_pred: [f64; 3],
    /// Mean `|predicted - real| / real` over all configurations, per
    /// model (Figure 3's legend).
    pub avg_abs_dist: [f64; 3],
    /// `real(model's selection) / best real`, per model (Figure 4's
    /// y-axis).
    pub sel_norm: [f64; 3],
    /// Whether the selection was exactly the measured optimum, per model
    /// (Table IV's `#correct`).
    pub sel_correct: [bool; 3],
    /// Index-compression records: the fastest measured configuration per
    /// format family, with its streamed index footprint (extension).
    pub compression: Vec<CompressionStat>,
}

/// One family row of the index-compression report.
#[derive(Debug, Clone)]
pub struct CompressionStat {
    /// Format family label (e.g. `BCSR16` for narrow-index BCSR).
    pub family: &'static str,
    /// Display label of the family's fastest measured configuration.
    pub label: String,
    /// Index-structure bytes streamed per nonzero (matrix bytes minus
    /// the value array).
    pub index_bytes_per_nnz: f64,
    /// Padded-zero value bytes streamed per nonzero: the price of the
    /// format's fill. Zero for padding-free formats (CSR, the masked
    /// blocked variants, decomposed full blocks).
    pub fill_bytes_per_nnz: f64,
    /// OVERLAP-model prediction for that configuration, seconds.
    pub predicted: f64,
    /// Measured time, seconds.
    pub real: f64,
}

/// Family display order of the compression report.
const FAMILIES: [&str; 10] = [
    "CSR",
    "CSR-DELTA",
    "BCSR",
    "BCSR16",
    "BCSR-MASK",
    "BCSR-DEC",
    "BCSD",
    "BCSD16",
    "BCSD-MASK",
    "BCSD-DEC",
];

/// The full model-evaluation dataset for one precision.
#[derive(Debug, Clone)]
pub struct ModelEvalResult {
    /// Evaluated precision.
    pub precision: Precision,
    /// The calibrated machine profile used for predictions.
    pub machine: MachineProfile,
    /// One record per matrix.
    pub per_matrix: Vec<MatrixEval>,
}

impl ModelEvalResult {
    /// Table IV's aggregates: `(#correct, mean distance from best)` per
    /// model.
    pub fn table4_rows(&self) -> [(Model, usize, f64); 3] {
        let mut out = [
            (Model::Mem, 0usize, 0.0f64),
            (Model::MemComp, 0, 0.0),
            (Model::Overlap, 0, 0.0),
        ];
        let n = self.per_matrix.len().max(1) as f64;
        for (mi, row) in out.iter_mut().enumerate() {
            row.1 = self
                .per_matrix
                .iter()
                .filter(|m| m.sel_correct[mi])
                .count();
            row.2 = self
                .per_matrix
                .iter()
                .map(|m| m.sel_norm[mi] - 1.0)
                .sum::<f64>()
                / n;
        }
        out
    }

    /// Suite-wide mean absolute prediction distance per model (Figure 3's
    /// legend numbers).
    pub fn mean_abs_dist(&self) -> [f64; 3] {
        let n = self.per_matrix.len().max(1) as f64;
        let mut out = [0.0; 3];
        for m in &self.per_matrix {
            for (o, d) in out.iter_mut().zip(m.avg_abs_dist) {
                *o += d / n;
            }
        }
        out
    }
}

/// Calibrates the machine and kernel profile for the given working-set
/// regime and returns them (exposed so binaries can reuse one
/// calibration across precisions).
pub fn calibrate<T: SimdScalar>(ws_hint_bytes: usize, opts: &ExpOpts) -> (MachineProfile, spmv_model::KernelProfile) {
    let footprint = opts.calib_bytes.unwrap_or_else(|| ws_hint_bytes.max(8 << 20));
    let machine = MachineProfile::detect_with(footprint);
    let profile = profile_kernels::<T>(
        &machine,
        &ProfileOptions {
            large_bytes: footprint,
            min_time: opts.min_time,
            batches: opts.batches,
            ..ProfileOptions::default()
        },
    );
    (machine, profile)
}

/// Runs the model evaluation over the selected suite at one precision.
pub fn run<T: SimdScalar>(opts: &ExpOpts) -> ModelEvalResult {
    // Build matrices first (ids 3..=30 as in Figures 3-4).
    let matrices: Vec<(usize, &'static str, Csr<T>)> = suite(opts.scale)
        .iter()
        .filter(|e| opts.selects(e.id) && e.geometry != Geometry::Special)
        .map(|e| (e.id, e.name, e.build(opts.seed).cast::<T>()))
        .collect();

    // Calibrate against the median evaluated working set.
    let mut ws: Vec<usize> = matrices.iter().map(|(_, _, m)| m.working_set_bytes()).collect();
    ws.sort_unstable();
    let ws_hint = ws.get(ws.len() / 2).copied().unwrap_or(8 << 20);
    let (machine, profile) = calibrate::<T>(ws_hint, opts);

    // The extended space (index-compression configurations included) is
    // both measured and offered to the models, so selections always have
    // a matching measurement.
    let configs = Config::enumerate_extended(true);
    let residuals = spmv_telemetry::residual::global();
    let mut per_matrix = Vec::with_capacity(matrices.len());
    for (id, name, csr) in &matrices {
        let _matrix_span = spmv_telemetry::span_with("bench.matrix", *id as u64);
        let x: Vec<T> = random_vector(spmv_core::MatrixShape::n_cols(csr), opts.seed);
        // Real times and index footprints for the whole model-space.
        let reals: Vec<(Config, f64, f64, f64)> = configs
            .iter()
            .map(|&c| {
                let built = c.build(csr);
                let nnz = csr.nnz().max(1) as f64;
                let idx_pn =
                    (built.matrix_bytes() - built.nnz_stored() * T::BYTES) as f64 / nnz;
                let fill_pn =
                    built.nnz_stored().saturating_sub(csr.nnz()) as f64 * T::BYTES as f64 / nnz;
                (
                    c,
                    measure_spmv(&built, &x, opts.min_time, opts.batches),
                    idx_pn,
                    fill_pn,
                )
            })
            .collect();
        let (best_config, best_real) = reals
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(c, t, ..)| (c, t))
            .expect("non-empty");

        let mut avg_norm_pred = [0.0; 3];
        let mut avg_abs_dist = [0.0; 3];
        let mut sel_norm = [0.0; 3];
        let mut sel_correct = [false; 3];
        for (mi, model) in Model::ALL.into_iter().enumerate() {
            // Prediction accuracy over every configuration.
            let mut norm_sum = 0.0;
            let mut dist_sum = 0.0;
            for &(c, real, ..) in &reals {
                let pred = model.predict(&c.substats(csr), &machine, &profile);
                norm_sum += pred / real;
                dist_sum += (pred - real).abs() / real;
                residuals.record(&residual_key_for(c, model), pred, real);
            }
            avg_norm_pred[mi] = norm_sum / reals.len() as f64;
            avg_abs_dist[mi] = dist_sum / reals.len() as f64;

            // Selection accuracy over the same extended space.
            let chosen = select_extended(model, csr, &machine, &profile, true).config;
            let real_of_chosen = reals
                .iter()
                .find(|(c, ..)| *c == chosen)
                .map(|&(_, t, ..)| t)
                .expect("selection comes from the same space");
            sel_norm[mi] = real_of_chosen / best_real;
            sel_correct[mi] = chosen == best_config;
        }

        // Index-compression report: fastest measured configuration per
        // format family, with its index footprint and OVERLAP prediction.
        let mut compression = Vec::new();
        for fam in FAMILIES {
            let best = reals
                .iter()
                .filter(|(c, ..)| c.block.family() == fam)
                .min_by(|a, b| a.1.total_cmp(&b.1));
            if let Some(&(c, real, idx_pn, fill_pn)) = best {
                compression.push(CompressionStat {
                    family: fam,
                    label: c.to_string(),
                    index_bytes_per_nnz: idx_pn,
                    fill_bytes_per_nnz: fill_pn,
                    predicted: Model::Overlap.predict(&c.substats(csr), &machine, &profile),
                    real,
                });
            }
        }

        per_matrix.push(MatrixEval {
            id: *id,
            name,
            avg_norm_pred,
            avg_abs_dist,
            sel_norm,
            sel_correct,
            compression,
        });
    }

    ModelEvalResult {
        precision: T::PRECISION,
        machine,
        per_matrix,
    }
}

/// Renders Figure 3 (normalized predictions per matrix).
pub fn render_figure3(result: &ModelEvalResult) -> Table {
    let dist = result.mean_abs_dist();
    let mut t = Table::new(vec![
        "Matrix", "t_mem/t_real", "t_memcomp/t_real", "t_overlap/t_real",
    ])
    .title(format!(
        "Figure 3 ({}): mean predicted/real per matrix | mean |pred-real|/real: \
         MEM {} MEMCOMP {} OVERLAP {}",
        result.precision.label(),
        pct(dist[0]),
        pct(dist[1]),
        pct(dist[2]),
    ));
    for m in &result.per_matrix {
        t.add_row(vec![
            format!("{:02}.{}", m.id, m.name),
            f2(m.avg_norm_pred[0]),
            f2(m.avg_norm_pred[1]),
            f2(m.avg_norm_pred[2]),
        ]);
    }
    t
}

/// Renders Figure 4 (selection quality per matrix).
pub fn render_figure4(result: &ModelEvalResult) -> Table {
    let mut t = Table::new(vec!["Matrix", "t_mem", "t_memcomp", "t_overlap"]).title(format!(
        "Figure 4 ({}): real time of each model's selection / best time",
        result.precision.label()
    ));
    for m in &result.per_matrix {
        t.add_row(vec![
            format!("{:02}.{}", m.id, m.name),
            f2(m.sel_norm[0]),
            f2(m.sel_norm[1]),
            f2(m.sel_norm[2]),
        ]);
    }
    t
}

/// Renders the index-compression report: per matrix and format family,
/// the fastest measured configuration with its index bytes per nonzero
/// and its predicted vs. measured time.
pub fn render_compression(result: &ModelEvalResult) -> Table {
    let mut t = Table::new(vec![
        "Matrix",
        "Family",
        "Best config",
        "idx B/nnz",
        "fill B/nnz",
        "pred ms",
        "real ms",
    ])
    .title(format!(
        "Index compression ({}): per-family index and fill footprint and times",
        result.precision.label()
    ));
    for m in &result.per_matrix {
        for c in &m.compression {
            t.add_row(vec![
                format!("{:02}.{}", m.id, m.name),
                c.family.to_string(),
                c.label.clone(),
                f2(c.index_bytes_per_nnz),
                f2(c.fill_bytes_per_nnz),
                format!("{:.4}", c.predicted * 1e3),
                format!("{:.4}", c.real * 1e3),
            ]);
        }
    }
    t
}

/// Renders the prediction-residual table accumulated by [`run`] across
/// every evaluated (format, shape, kernel, model) population — the
/// misprediction surface behind Figure 3's averages. Empty string when
/// nothing was recorded.
pub fn render_residuals() -> String {
    let tracker = spmv_telemetry::residual::global();
    if tracker.is_empty() {
        String::new()
    } else {
        tracker.render()
    }
}

/// Renders Table IV from one or two precisions' results.
pub fn render_table4(results: &[&ModelEvalResult]) -> Table {
    let mut headers = vec!["Model".to_string()];
    for r in results {
        headers.push(format!("#correct ({})", r.precision.label()));
        headers.push(format!("off best ({})", r.precision.label()));
    }
    let mut t = Table::new(headers)
        .title("Table IV: optimal selections per model and distance from best");
    for (mi, model) in Model::ALL.into_iter().enumerate() {
        let mut row = vec![model.label().to_string()];
        for r in results {
            let rows = r.table4_rows();
            row.push(rows[mi].1.to_string());
            row.push(pct(rows[mi].2));
        }
        t.add_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(ids: Vec<usize>) -> ExpOpts {
        ExpOpts {
            scale: 0.02,
            seed: 9,
            min_time: 5e-5,
            batches: 1,
            matrices: Some(ids),
            calib_bytes: Some(1 << 16),
        }
    }

    #[test]
    fn evaluates_models_end_to_end() {
        let res = run::<f64>(&quick_opts(vec![4, 21]));
        assert_eq!(res.per_matrix.len(), 2);
        for m in &res.per_matrix {
            for mi in 0..3 {
                assert!(m.avg_norm_pred[mi] > 0.0);
                assert!(m.sel_norm[mi] >= 1.0 - 1e-12, "selection can't beat best");
            }
        }
        let t4 = res.table4_rows();
        assert!(t4.iter().all(|&(_, correct, off)| correct <= 2 && off >= -1e-12));
        // Compression report: every family measured, and CSR-Δ must
        // stream strictly fewer index bytes than CSR.
        for m in &res.per_matrix {
            assert_eq!(m.compression.len(), FAMILIES.len());
            let idx_of = |fam: &str| {
                m.compression
                    .iter()
                    .find(|c| c.family == fam)
                    .map(|c| c.index_bytes_per_nnz)
                    .expect("family present")
            };
            assert!(idx_of("CSR-DELTA") < idx_of("CSR"));
            // Padding-free families must report zero fill bytes.
            for c in &m.compression {
                assert!(c.fill_bytes_per_nnz >= 0.0);
                if matches!(c.family, "CSR" | "CSR-DELTA" | "BCSR-MASK" | "BCSD-MASK") {
                    assert_eq!(c.fill_bytes_per_nnz, 0.0, "{} must be padding-free", c.family);
                }
            }
        }
        // Render without panicking.
        let _ = render_figure3(&res).to_string();
        let _ = render_figure4(&res).to_string();
        let _ = render_table4(&[&res]).to_string();
        let _ = render_compression(&res).to_string();
        // The run fed the global residual tracker: one row per
        // (format, shape, kernel, model) population it evaluated.
        let tracker = spmv_telemetry::residual::global();
        assert!(!tracker.is_empty());
        let table = render_residuals();
        for needle in ["MEM", "OVERLAP", "CSR", "BCSR", "scalar"] {
            assert!(table.contains(needle), "residual table misses {needle}:\n{table}");
        }
    }

    #[test]
    fn specials_are_excluded() {
        let res = run::<f32>(&quick_opts(vec![1, 2, 4]));
        assert_eq!(res.per_matrix.len(), 1);
        assert_eq!(res.per_matrix[0].id, 4);
        assert_eq!(res.precision, Precision::Single);
    }
}

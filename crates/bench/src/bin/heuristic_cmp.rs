//! Compares the Vuduc/Buttari BCSR fill heuristic (the related-work
//! baseline of §I that the paper's models generalize) against the
//! paper's three models, restricted to the arena the heuristic can play
//! in: BCSR shapes only.
//!
//! For each suite matrix: the heuristic's pick, each model's pick (among
//! BCSR configurations), and the measured time of every pick normalized
//! by the best measured BCSR configuration.

use spmv_bench::experiments::modeleval::calibrate;
use spmv_bench::report::{f2, Table};
use spmv_bench::Args;
use spmv_core::MatrixShape;
use spmv_formats::FormatKind;
use spmv_gen::{random_vector, suite, Geometry};
use spmv_model::timing::measure_spmv;
use spmv_model::{
    profile_dense, rank, select_bcsr_shape, BlockConfig, Config, Model,
};
use spmv_kernels::KernelImpl;

fn main() {
    let opts = Args::from_env().experiment_opts("heuristic_cmp", "");
    eprintln!("calibrating models and dense profile ...");
    let (machine, profile) = calibrate::<f64>(16 << 20, &opts);
    let dense = profile_dense::<f64>(&machine, None, opts.min_time);

    // The heuristic's arena: BCSR configurations only.
    let bcsr_configs: Vec<Config> = Config::enumerate(true)
        .into_iter()
        .filter(|c| c.block.kind() == FormatKind::Bcsr)
        .collect();

    let mut t = Table::new(vec![
        "Matrix",
        "heuristic pick",
        "heur/best",
        "MEM/best",
        "MEMCOMP/best",
        "OVERLAP/best",
    ])
    .title("Vuduc/Buttari fill heuristic vs the paper's models (BCSR arena, dp)");
    let mut sums = [0.0f64; 4];
    let mut count = 0usize;
    for entry in suite(opts.scale) {
        if !opts.selects(entry.id) || entry.geometry == Geometry::Special {
            continue;
        }
        let csr = entry.build(opts.seed);
        let x: Vec<f64> = random_vector(csr.n_cols(), opts.seed);
        // Measure the whole BCSR arena once.
        let reals: Vec<(Config, f64)> = bcsr_configs
            .iter()
            .map(|&c| {
                let built = c.build(&csr);
                (c, measure_spmv(&built, &x, opts.min_time, opts.batches))
            })
            .collect();
        let best = reals
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        let real_of = |config: Config| -> f64 {
            reals
                .iter()
                .find(|(c, _)| *c == config)
                .map(|&(_, t)| t)
                .expect("config in arena")
        };

        // The heuristic's pick.
        let (shape, imp, _) = select_bcsr_shape(&csr, &dense, true);
        let heur_cfg = Config {
            block: BlockConfig::Bcsr(shape),
            imp,
        };
        let heur_norm = real_of(heur_cfg) / best;

        // Each model's pick within the same arena.
        let mut model_norms = [0.0f64; 3];
        for (mi, model) in Model::ALL.into_iter().enumerate() {
            let arena: Vec<Config> = if model == Model::Mem {
                bcsr_configs
                    .iter()
                    .copied()
                    .filter(|c| c.imp == KernelImpl::Scalar)
                    .collect()
            } else {
                bcsr_configs.clone()
            };
            let pick = rank(model, &csr, &machine, &profile, &arena)[0].config;
            model_norms[mi] = real_of(pick) / best;
        }

        sums[0] += heur_norm;
        for (s, v) in sums[1..].iter_mut().zip(model_norms) {
            *s += v;
        }
        count += 1;
        t.add_row(vec![
            format!("{:02}.{}", entry.id, entry.name),
            format!("{shape}{}", imp.suffix()),
            f2(heur_norm),
            f2(model_norms[0]),
            f2(model_norms[1]),
            f2(model_norms[2]),
        ]);
    }
    let n = count.max(1) as f64;
    t.add_row(vec![
        "Average".to_string(),
        "".to_string(),
        f2(sums[0] / n),
        f2(sums[1] / n),
        f2(sums[2] / n),
        f2(sums[3] / n),
    ]);
    println!("{t}");
    println!(
        "shape check: the heuristic is competitive inside the BCSR arena (its home \
         turf) but, unlike the models, it cannot rank CSR/BCSD/decomposed \
         alternatives at all — the generality gap the paper cites (SIV)."
    );
}

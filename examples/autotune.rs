//! Autotuning walkthrough: model-driven format selection vs. exhaustive
//! search, on the workloads the paper's introduction motivates.
//!
//! For three structurally different matrices (a FEM matrix with natural
//! 3x3 node blocks, a multi-diagonal operator, and a power-law graph),
//! this example:
//!
//! 1. ranks the whole configuration space with each performance model,
//! 2. measures the real time of every configuration, and
//! 3. reports how far each model's pick lands from the measured optimum —
//!    the paper's *selection accuracy* metric, on live data.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use blocked_spmv::core::MatrixShape;
use blocked_spmv::gen::{random_vector, GenSpec};
use blocked_spmv::model::timing::measure_spmv;
use blocked_spmv::model::{
    profile_kernels, select, Config, MachineProfile, Model, ProfileOptions,
};

fn main() {
    let workloads: Vec<(&str, GenSpec)> = vec![
        (
            "FEM, 3 dof/node (audikw_1-like)",
            GenSpec::FemBlocks {
                nodes: 6_000,
                dof: 3,
                neighbors: 10,
            },
        ),
        (
            "multi-diagonal operator (largebasis-like)",
            GenSpec::DiagRuns {
                n: 30_000,
                n_diags: 9,
            },
        ),
        (
            "power-law graph (wikipedia-like)",
            GenSpec::PowerLaw {
                n: 30_000,
                avg_deg: 10,
                alpha: 1.6,
            },
        ),
    ];

    println!(
        "calibrating models (bandwidth + {} kernel profiles) ...",
        Config::profiled_kernels().len()
    );
    let machine = MachineProfile::detect_with(32 << 20);
    let profile = profile_kernels::<f64>(
        &machine,
        &ProfileOptions {
            large_bytes: 32 << 20,
            ..ProfileOptions::default()
        },
    );
    println!(
        "machine: {:.2} GiB/s, L1 {} KiB\n",
        machine.bandwidth / (1u64 << 30) as f64,
        machine.l1_bytes / 1024
    );

    for (name, spec) in workloads {
        let csr = spec.build(7);
        println!(
            "== {name}: {} rows, {} nnz",
            csr.n_rows(),
            csr.nnz()
        );

        // Exhaustive measurement of the model space.
        let x: Vec<f64> = random_vector(csr.n_cols(), 7);
        let mut best: Option<(Config, f64)> = None;
        let mut reals = Vec::new();
        for config in Config::enumerate(true) {
            let built = config.build(&csr);
            let t = measure_spmv(&built, &x, 2e-3, 3);
            if best.is_none_or(|(_, tb)| t < tb) {
                best = Some((config, t));
            }
            reals.push((config, t));
        }
        let (best_config, best_t) = best.expect("non-empty space");
        println!(
            "   exhaustive search: {:<18} {:.3} ms/SpMV  (measured {} configs)",
            best_config.to_string(),
            best_t * 1e3,
            reals.len()
        );

        for model in Model::ALL {
            let pick = select(model, &csr, &machine, &profile, true);
            let real = reals
                .iter()
                .find(|(c, _)| *c == pick.config)
                .map(|&(_, t)| t)
                .expect("same space");
            println!(
                "   {:>8} picks:    {:<18} {:.3} ms/SpMV  ({:+.1}% off best)",
                model.label(),
                pick.config.to_string(),
                real * 1e3,
                (real / best_t - 1.0) * 100.0
            );
        }
        println!();
    }
    println!(
        "expected shape (paper Table IV): OVERLAP lands closest to the optimum, \
         MEM degrades when the problem is compute-heavier."
    );
}

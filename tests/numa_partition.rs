//! NUMA partitioning properties: the static splitter's balance
//! invariants, bitwise reproducibility of the nnz-split fallback, the
//! threaded models predicting on the pool's own strips, and the
//! flat-hierarchy equivalence that grounds `predict_threaded_hierarchy`
//! in the pre-NUMA model.

#[path = "support/prop.rs"]
mod prop;

use std::sync::Arc;

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::{
    predict_threaded, predict_threaded_hierarchy, BandwidthHierarchy, BlockConfig, Config,
    KernelProfile, MachineProfile, Model,
};
use blocked_spmv::parallel::{
    csr_unit_weights, heavy_unit, partition_units, split_segments, PinPolicy, Placement, SpmvPool,
    Topology,
};
use blocked_spmv::serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};

/// A random CSR whose shape/sparsity scale with the property size, with
/// an optional pathologically heavy row (a large fraction of all nnz in
/// one row — the shape the nnz-split fallback exists for).
fn random_csr(rng: &mut prop::Rng, size: usize, heavy: bool) -> Csr<f64> {
    let n = rng.usize_in(1, 4 + 4 * size);
    let m = rng.usize_in(1, 4 + 4 * size);
    let entries = rng.usize_in(0, 1 + 6 * size);
    let mut coo = Coo::new(n, m);
    for _ in 0..entries {
        coo.push(rng.index(n), rng.index(m), rng.f64_in(-2.0, 2.0))
            .unwrap();
    }
    if heavy {
        // One row holding ~4x the rest of the matrix combined.
        let row = rng.index(n);
        for _ in 0..(4 * entries).max(8) {
            coo.push(row, rng.index(m), rng.f64_in(-2.0, 2.0)).unwrap();
        }
    }
    Csr::from_coo(&coo)
}

#[test]
fn partition_units_balance_invariants() {
    prop::run("partition_units invariants", 200, |rng, size| {
        let n_units = rng.usize_in(1, 2 + 4 * size);
        // Mixed magnitudes, including zero-weight units.
        let weights: Vec<u64> = (0..n_units)
            .map(|_| {
                if rng.bool() {
                    rng.next_u64() % 8
                } else {
                    rng.next_u64() % 1000
                }
            })
            .collect();
        let parts = rng.usize_in(1, 2 + n_units);
        let ranges = partition_units(&weights, parts);

        // Shape: exactly `parts` contiguous ranges covering all units.
        assert_eq!(ranges.len(), parts);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, n_units);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "parts must be contiguous");
        }

        // Balance: the cumulative weight through part p never overshoots
        // the ideal cumulative share by more than one unit's weight (the
        // documented greedy-prefix guarantee).
        let total: u64 = weights.iter().sum();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let mut cum = 0u64;
        for (p, r) in ranges.iter().enumerate() {
            cum += weights[r.clone()].iter().sum::<u64>();
            let target = total * (p as u64 + 1) / parts as u64;
            assert!(
                cum <= target + max_w,
                "part {p}: cumulative {cum} overshoots target {target} by more than \
                 max unit weight {max_w}"
            );
        }
    });
}

#[test]
fn heavy_unit_fires_iff_a_unit_exceeds_the_ideal_share() {
    prop::run("heavy_unit rule", 100, |rng, size| {
        let n_units = rng.usize_in(1, 2 + 4 * size);
        let weights: Vec<u64> = (0..n_units).map(|_| rng.next_u64() % 100).collect();
        let parts = rng.usize_in(1, 6);
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        match heavy_unit(&weights, parts) {
            Some(idx) => {
                assert!(parts > 1);
                assert_eq!(weights[idx], *weights.iter().max().unwrap());
                assert!(weights[idx] as u128 * parts as u128 > total);
            }
            None => {
                if parts > 1 {
                    let max = weights.iter().copied().max().unwrap_or(0);
                    assert!(max as u128 * parts as u128 <= total);
                }
            }
        }
    });
}

#[test]
fn split_segments_partition_the_nnz_range() {
    prop::run("split_segments coverage", 100, |rng, size| {
        let nnz = rng.usize_in(0, 1 + 50 * size);
        let parts = rng.usize_in(1, 9);
        let segs = split_segments(nnz, parts);
        assert_eq!(segs.len(), parts);
        let mut pos = 0usize;
        for s in &segs {
            assert_eq!(s.start, pos, "segments must be contiguous");
            pos = s.end;
        }
        assert_eq!(pos, nnz, "segments must cover all nnz");
        let (min, max) = segs
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), s| (lo.min(s.len()), hi.max(s.len())));
        assert!(max - min <= 1, "near-equal segment sizes: {min}..{max}");
    });
}

/// The nnz-split fallback must be invisible in the output: every pooled
/// result — with and without first-touch, across thread counts, single
/// and multi-vector — is bitwise the serial CSR answer. 200 seeded
/// matrices, roughly half with a pathological heavy row.
#[test]
fn nnz_split_pools_are_bitwise_equal_to_serial() {
    prop::run("nnz-split bitwise corpus", 200, |rng, size| {
        let heavy = rng.bool();
        let csr = random_csr(rng, size, heavy);
        let x = rng.f64_vec(csr.n_cols(), -1.0, 1.0);
        let reference = csr.spmv(&x);
        let threads = rng.usize_in(1, 5);
        let placement = Placement {
            pin: PinPolicy::None,
            first_touch: rng.bool(),
            nnz_split: true,
        };
        let pool = SpmvPool::from_csr_placed(
            &csr,
            threads,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            placement,
        );
        assert_eq!(pool.spmv(&x), reference, "single-vector must be bitwise");

        // Multi-vector: k columns, each column bitwise its serial SpMV.
        let k = rng.usize_in(1, 5);
        let xs: Vec<Vec<f64>> = (0..k).map(|_| rng.f64_vec(csr.n_cols(), -1.0, 1.0)).collect();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut ys = vec![0.0; k * csr.n_rows()];
        pool.spmv_multi_into(&flat, &mut ys, k);
        for (t, xt) in xs.iter().enumerate() {
            let expect = csr.spmv(xt);
            assert_eq!(
                &ys[t * csr.n_rows()..(t + 1) * csr.n_rows()],
                &expect[..],
                "multi-vector column {t} must be bitwise"
            );
        }
    });
}

#[test]
fn single_heavy_row_matrix_splits_and_stays_bitwise() {
    // The pathological extreme: every nonzero in one row.
    let n = 6usize;
    let m = 300usize;
    let mut coo = Coo::new(n, m);
    let mut rng = prop::Rng::new(0xFEED);
    for c in 0..m {
        coo.push(3, c, rng.unit() * 2.0 - 1.0).unwrap();
    }
    let csr = Csr::from_coo(&coo);
    let x: Vec<f64> = (0..m).map(|_| rng.unit() * 2.0 - 1.0).collect();
    let reference = csr.spmv(&x);
    for threads in [2, 3, 4, 7] {
        let pool = SpmvPool::from_csr_placed(
            &csr,
            threads,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            Placement {
                pin: PinPolicy::None,
                first_touch: false,
                nnz_split: true,
            },
        );
        assert_eq!(pool.split_row(), Some(3), "threads={threads}");
        assert_eq!(pool.spmv(&x), reference, "threads={threads}");
    }
}

/// The threaded models predict on the strips the pool runs: for blocked
/// configurations (strips weighed with padding and aligned to block
/// rows, segments or slices) the model's strips are the pool's, and
/// `predict_threaded` is the slowest of the pool's own strips.
#[test]
fn predict_threaded_uses_the_pooled_strips() {
    let shape = |r, c| BlockShape::new(r, c).unwrap();
    let imp = KernelImpl::Scalar;
    let configs = [
        BlockConfig::Bcsr(shape(3, 2)),
        BlockConfig::BcsrDec(shape(2, 2)),
        BlockConfig::Bcsd(4),
        BlockConfig::SellCSigma { c: 4, sigma: 1 },
    ]
    .map(|block| Config { block, imp });
    let machine = MachineProfile {
        bandwidth: 4e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    };
    let profile = KernelProfile::uniform(1e-9, 0.5);
    prop::run("model strips are pool strips", 40, |rng, size| {
        let heavy = rng.bool();
        let csr = random_csr(rng, size, heavy);
        for config in &configs {
            for threads in 2..=5 {
                let pool_strips = config.pooled(&csr, threads, Placement::none()).strip_rows();
                let model_strips: Vec<_> = config
                    .strip_rows(&csr, threads)
                    .into_iter()
                    .filter(|r| !r.is_empty())
                    .collect();
                assert_eq!(model_strips, pool_strips, "{config} threads={threads}");
                let shared = MachineProfile {
                    bandwidth: machine.bandwidth / threads as f64,
                    ..machine
                };
                for model in [Model::Mem, Model::MemComp, Model::Overlap] {
                    let slowest = pool_strips
                        .iter()
                        .map(|rows| {
                            let stats = config.substats(&csr.row_slice(rows.clone()));
                            model.predict(&stats, &shared, &profile)
                        })
                        .fold(0.0, f64::max);
                    let predicted =
                        predict_threaded(model, &csr, config, threads, &machine, &profile);
                    assert_eq!(predicted, slowest, "{config} {model:?} threads={threads}");
                }
            }
        }
    });
}

/// A one-domain hierarchy is the paper's machine: the hierarchy path
/// must reproduce `predict_threaded` bit for bit, every model, every
/// thread count.
#[test]
fn flat_hierarchy_is_bitwise_predict_threaded() {
    prop::run("flat hierarchy equivalence", 60, |rng, size| {
        let heavy = rng.bool();
        let csr = random_csr(rng, size.max(2), heavy);
        let machine = MachineProfile {
            bandwidth: rng.f64_in(1e9, 5e10),
            l1_bytes: 32 << 10,
            llc_bytes: 8 << 20,
        };
        let profile = KernelProfile::uniform(rng.f64_in(1e-10, 1e-8), rng.f64_in(0.1, 1.0));
        let h = BandwidthHierarchy::flat(machine.bandwidth);
        for model in [Model::Mem, Model::MemComp, Model::Overlap] {
            for threads in 1..=5 {
                let flat = predict_threaded(model, &csr, &Config::CSR, threads, &machine, &profile);
                let hier = predict_threaded_hierarchy(
                    model,
                    &csr,
                    &Config::CSR,
                    threads,
                    &machine,
                    &profile,
                    &h,
                    None,
                    None,
                );
                assert!(
                    flat == hier || (flat.is_nan() && hier.is_nan()),
                    "{model:?} t={threads}: {flat} != {hier}"
                );
            }
        }
    });
}

/// Pin failures must degrade, not corrupt: a pool whose cores cannot be
/// pinned (absurd ids) computes bitwise-correct results and reports the
/// unpinned state per strip.
#[test]
fn unpinnable_pool_is_bitwise_and_reports_unpinned_strips() {
    let coo = Coo::from_triplets(
        40,
        40,
        (0..40)
            .flat_map(|i| [(i, i, 1.0 + i as f64), (i, (i * 7) % 40, 0.5)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let csr = Csr::from_coo(&coo);
    let x: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
    let pool = SpmvPool::from_csr_placed(
        &csr,
        2,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        Placement::pinned(PinPolicy::Cores(vec![1 << 20, (1 << 20) + 1])),
    );
    assert_eq!(pool.spmv(&x), csr.spmv(&x));
    let _ = pool.spmv(&x);
    for report in pool.strip_reports() {
        assert_eq!(report.pinned, Some(false), "absurd cores cannot pin");
    }
}

/// Oversubscribed pin policies surface in the serving report: one
/// warning line per affected matrix, none when placement is healthy.
#[test]
fn engine_report_warns_on_oversubscribed_pools() {
    let csr = Csr::from_coo(
        &Coo::from_triplets(16, 16, (0..16).map(|i| (i, i, 2.0)).collect::<Vec<_>>()).unwrap(),
    );
    let registry = Arc::new(Registry::new());
    // Two workers forced onto one core: oversubscribed.
    registry.publish(
        MatrixId(1),
        PreparedMatrix::from_config_pooled(Config::CSR, &csr, 2, PinPolicy::Cores(vec![0])),
    );
    // Healthy single-thread direct backend alongside.
    registry.publish(MatrixId(2), PreparedMatrix::from_config(Config::CSR, &csr));
    let engine = ServeEngine::new(Arc::clone(&registry), EngineOptions::default());
    let report = engine.report();
    assert_eq!(report.warnings.len(), 1, "exactly the pooled matrix warns");
    assert!(
        report.warnings[0].contains("oversubscribes"),
        "warning should name the condition: {}",
        report.warnings[0]
    );

    // Domain-spread placement over a fake 2-domain topology with enough
    // cores is healthy: no warnings.
    let topology = Topology::from_domains(vec![vec![0], vec![1]]);
    let registry2 = Arc::new(Registry::<f64>::new());
    registry2.publish(
        MatrixId(1),
        PreparedMatrix::from_config_pooled_placed(
            Config::CSR,
            &csr,
            2,
            Placement::domain_aware(topology),
        ),
    );
    let engine2 = ServeEngine::new(Arc::clone(&registry2), EngineOptions::default());
    assert!(engine2.report().warnings.is_empty());
}

//! Multicore model adaptation — the paper's second future-work
//! direction ("consider the adaptation of these models on multicore
//! platforms", §VI).
//!
//! The threaded execution model matches `spmv-parallel`: the matrix is
//! split row-wise into `threads` contiguous, stored-element-balanced
//! strips that run concurrently. Two effects change the prediction:
//!
//! 1. **bandwidth sharing** — the strips stream simultaneously from the
//!    same memory controller, so each strip sees `BW / threads`
//!    (pessimistic for low thread counts that cannot saturate the bus
//!    alone; exact once the bus is the bottleneck, which is the SpMV
//!    regime the paper targets);
//! 2. **synchronization at the end** — the SpMV finishes when the
//!    slowest strip does, so the prediction is a `max` over strips
//!    rather than a sum.
//!
//! [`predict_threaded`] evaluates any of the three §IV models under this
//! execution model; with `threads == 1` it reduces exactly to the
//! single-threaded prediction.
//!
//! The `max` in effect assumes the static weight balance is *perfect* —
//! every strip is predicted from its own structure, but runtime effects
//! (cache topology, pinning, SMT siblings, OS noise) skew real strips
//! further apart. The persistent pool in `spmv-parallel`
//! (`SpmvPool::measured_strip_seconds`) reports the *measured* median
//! time per strip; [`predict_threaded_measured`] folds that observed
//! skew back into the prediction via [`imbalance_factor`], replacing the
//! model's structural `max` with measured imbalance.

use crate::config::Config;
use crate::machine::MachineProfile;
use crate::models::Model;
use crate::profile::KernelProfile;
use spmv_core::{Csr, Scalar};

/// Predicted seconds per SpMV for `config` on `csr` executed with
/// `threads` bandwidth-sharing threads, one per strip of
/// [`Config::strip_rows`] — the strips `Config::pooled` runs.
pub fn predict_threaded<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    config: &Config,
    threads: usize,
    machine: &MachineProfile,
    profile: &KernelProfile,
) -> f64 {
    assert!(threads > 0);
    if threads == 1 {
        return model.predict(&config.substats(csr), machine, profile);
    }
    let shared = MachineProfile {
        bandwidth: machine.bandwidth / threads as f64,
        ..*machine
    };
    config
        .strip_rows(csr, threads)
        .into_iter()
        .map(|rows| {
            let strip = csr.row_slice(rows);
            model.predict(&config.substats(&strip), &shared, profile)
        })
        .fold(0.0, f64::max)
}

/// Load-imbalance factor of a measured per-strip timing profile: the
/// slowest strip's time over the mean strip time, clamped to ≥ 1.
///
/// `1.0` means perfectly balanced strips (and is returned for empty or
/// degenerate profiles); `2.0` means the critical strip ran twice as
/// long as the average, so half the aggregate compute capacity was idle
/// at the barrier. Feed this from
/// `spmv_parallel::SpmvPool::measured_strip_seconds`.
pub fn imbalance_factor(per_strip_seconds: &[f64]) -> f64 {
    if per_strip_seconds.is_empty() {
        return 1.0;
    }
    let max = per_strip_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
    let mean = per_strip_seconds.iter().sum::<f64>() / per_strip_seconds.len() as f64;
    if mean <= 0.0 || !mean.is_finite() {
        1.0
    } else {
        (max / mean).max(1.0)
    }
}

/// Predicted seconds per SpMV like [`predict_threaded`], but scaled by
/// the **measured** per-strip imbalance instead of the structural `max`
/// over predicted strips.
///
/// The balanced-core prediction is the *mean* over per-strip predictions
/// (what a perfectly level execution would cost per core under shared
/// bandwidth); multiplying by [`imbalance_factor`] restores the barrier
/// wait the pool actually observed. With fewer than two measured strips
/// — or `threads == 1` — this degrades to [`predict_threaded`].
pub fn predict_threaded_measured<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    config: &Config,
    threads: usize,
    machine: &MachineProfile,
    profile: &KernelProfile,
    per_strip_seconds: &[f64],
) -> f64 {
    assert!(threads > 0);
    if threads == 1 || per_strip_seconds.len() < 2 {
        return predict_threaded(model, csr, config, threads, machine, profile);
    }
    let shared = MachineProfile {
        bandwidth: machine.bandwidth / threads as f64,
        ..*machine
    };
    let mean_pred = config
        .strip_rows(csr, threads)
        .into_iter()
        .map(|rows| {
            let strip = csr.row_slice(rows);
            model.predict(&config.substats(&strip), &shared, profile)
        })
        .sum::<f64>()
        / threads as f64;
    mean_pred * imbalance_factor(per_strip_seconds)
}

/// The bandwidths one memory domain (NUMA node) offers, in bytes/sec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainBandwidth {
    /// Sustainable stream bandwidth for threads pinned to this domain
    /// reading pages that live on it (STREAM triad, first-touched and
    /// run on the same node).
    pub local: f64,
    /// Sustainable stream bandwidth for a thread on *another* domain
    /// reading pages that live here — the interconnect-limited path
    /// (arrays first-touched here, triad run on a remote node).
    pub remote: f64,
}

/// Per-domain bandwidth map for NUMA-aware threaded predictions.
///
/// The flat model in [`predict_threaded`] shares one `BW` across all
/// threads; past one socket that undercharges remote strips (which pay
/// the interconnect) and overcharges domain-spread placements (each
/// controller serves only its own strips). This hierarchy keeps one
/// [`DomainBandwidth`] per domain, indexed like
/// `spmv_parallel::Topology::domains`; measure it with
/// `spmv_tune::MeasuredSampler::measure_hierarchy` or build it from
/// STREAM numbers directly.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthHierarchy {
    domains: Vec<DomainBandwidth>,
}

impl BandwidthHierarchy {
    /// One flat domain whose local and remote paths are the same bus —
    /// the paper's single-socket testbed. With this hierarchy,
    /// [`predict_threaded_hierarchy`] reproduces [`predict_threaded`]
    /// bit for bit (same strip extents, same `bw / threads` division).
    pub fn flat(bandwidth: f64) -> Self {
        BandwidthHierarchy {
            domains: vec![DomainBandwidth {
                local: bandwidth,
                remote: bandwidth,
            }],
        }
    }

    /// An explicit per-domain map, in node order.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is empty.
    pub fn new(domains: Vec<DomainBandwidth>) -> Self {
        assert!(!domains.is_empty(), "hierarchy needs at least one domain");
        BandwidthHierarchy { domains }
    }

    /// Number of memory domains (≥ 1).
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// The per-domain bandwidths, in node order.
    pub fn domains(&self) -> &[DomainBandwidth] {
        &self.domains
    }

    /// The bandwidth one strip sees: its traffic is charged to the
    /// domain holding its pages — the local path when the executing
    /// thread lives there too, the interconnect otherwise — divided by
    /// the `sharers` strips streaming from that same controller.
    pub fn strip_bandwidth(&self, exec_domain: usize, pages_domain: usize, sharers: usize) -> f64 {
        let d = &self.domains[pages_domain];
        let link = if exec_domain == pages_domain {
            d.local
        } else {
            d.remote
        };
        link / sharers.max(1) as f64
    }
}

/// Predicted seconds per SpMV under a per-domain bandwidth hierarchy.
///
/// Strip `s` (from [`Config::strip_rows`], the same split the pool
/// runs) executes on domain `exec_domains[s]` — defaulting to the
/// round-robin deal `s % n_domains` that `PinPolicy::Domains` uses —
/// and its matrix pages live on `pages_on` when given (no first-touch:
/// everything on one node, the remote-access regime) or on the strip's
/// own execution domain otherwise (first-touch placement). Each strip
/// is charged [`BandwidthHierarchy::strip_bandwidth`] for the domain
/// its pages live on, and the SpMV finishes when the slowest strip does.
///
/// With [`BandwidthHierarchy::flat`]`(machine.bandwidth)` this equals
/// [`predict_threaded`] exactly, threads and strips alike.
#[allow(clippy::too_many_arguments)]
pub fn predict_threaded_hierarchy<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    config: &Config,
    threads: usize,
    machine: &MachineProfile,
    profile: &KernelProfile,
    hierarchy: &BandwidthHierarchy,
    exec_domains: Option<&[usize]>,
    pages_on: Option<usize>,
) -> f64 {
    assert!(threads > 0);
    let nd = hierarchy.n_domains();
    let exec: Vec<usize> = match exec_domains {
        Some(e) => {
            assert_eq!(e.len(), threads, "one execution domain per strip");
            e.to_vec()
        }
        None => (0..threads).map(|s| s % nd).collect(),
    };
    assert!(exec.iter().all(|&d| d < nd), "execution domain out of range");
    if let Some(p) = pages_on {
        assert!(p < nd, "pages domain out of range");
    }
    let pages: Vec<usize> = exec.iter().map(|&e| pages_on.unwrap_or(e)).collect();
    let mut sharers = vec![0usize; nd];
    for &p in &pages {
        sharers[p] += 1;
    }
    if threads == 1 {
        // Mirror predict_threaded's single-thread form (whole matrix,
        // no slicing) so a flat hierarchy is bitwise-identical to it:
        // one strip alone on its controller divides by 1, which is
        // exact.
        let eff = MachineProfile {
            bandwidth: hierarchy.strip_bandwidth(exec[0], pages[0], sharers[pages[0]]),
            ..*machine
        };
        return model.predict(&config.substats(csr), &eff, profile);
    }
    config
        .strip_rows(csr, threads)
        .into_iter()
        .enumerate()
        .map(|(s, rows)| {
            let eff = MachineProfile {
                bandwidth: hierarchy.strip_bandwidth(exec[s], pages[s], sharers[pages[s]]),
                ..*machine
            };
            let strip = csr.row_slice(rows);
            model.predict(&config.substats(&strip), &eff, profile)
        })
        .fold(0.0, f64::max)
}

/// The thread count at which adding threads stops helping according to
/// the model: the smallest `t` in `1..=max_threads` minimizing the
/// predicted time (SpMV saturates the memory bus quickly, so this is
/// often below the core count — the phenomenon Figure 2's flat scaling
/// reflects).
pub fn predicted_saturation_point<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    config: &Config,
    max_threads: usize,
    machine: &MachineProfile,
    profile: &KernelProfile,
) -> usize {
    (1..=max_threads.max(1))
        .min_by(|&a, &b| {
            let ta = predict_threaded(model, csr, config, a, machine, profile);
            let tb = predict_threaded(model, csr, config, b, machine, profile);
            ta.total_cmp(&tb)
        })
        .expect("non-empty range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use spmv_gen::GenSpec;

    fn machine() -> MachineProfile {
        MachineProfile {
            bandwidth: 4e9,
            l1_bytes: 32 * 1024,
            llc_bytes: 4 << 20,
        }
    }

    #[test]
    fn one_thread_equals_sequential_prediction() {
        let csr = GenSpec::Stencil2d { nx: 30, ny: 30 }.build(1);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        for model in Model::ALL {
            let seq = model.predict(&Config::CSR.substats(&csr), &machine(), &profile);
            let par = predict_threaded(model, &csr, &Config::CSR, 1, &machine(), &profile);
            assert_eq!(seq, par);
        }
    }

    #[test]
    fn strips_cover_all_rows() {
        let csr = GenSpec::Random {
            n: 101,
            m: 50,
            nnz_per_row: 3,
        }
        .build(2);
        for threads in 1..6 {
            let strips = Config::CSR.strip_rows(&csr, threads);
            assert_eq!(strips.len(), threads);
            assert_eq!(strips[0].start, 0);
            assert_eq!(strips.last().unwrap().end, 101);
        }
    }

    #[test]
    fn pure_streaming_does_not_scale_under_shared_bandwidth() {
        // MEM: per-strip ws ~ total/t, but bandwidth is BW/t, so the
        // predicted time stays ~constant — the memory wall.
        let csr = GenSpec::Random {
            n: 4_000,
            m: 4_000,
            nnz_per_row: 8,
        }
        .build(3);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let t1 = predict_threaded(Model::Mem, &csr, &Config::CSR, 1, &machine(), &profile);
        let t4 = predict_threaded(Model::Mem, &csr, &Config::CSR, 4, &machine(), &profile);
        // t4 can even exceed t1 slightly (per-strip vector traffic), but
        // must be nowhere near a 4x speedup.
        assert!(t4 > 0.6 * t1, "MEM predicted super-scaling: {t1} -> {t4}");
    }

    #[test]
    fn compute_bound_work_scales_under_memcomp() {
        // Give blocks a huge t_b: compute dominates, and compute *does*
        // parallelize (each strip runs its own blocks).
        let csr = GenSpec::Random {
            n: 2_000,
            m: 2_000,
            nnz_per_row: 8,
        }
        .build(4);
        let profile = KernelProfile::uniform(1e-6, 1.0);
        let t1 = predict_threaded(Model::MemComp, &csr, &Config::CSR, 1, &machine(), &profile);
        let t4 = predict_threaded(Model::MemComp, &csr, &Config::CSR, 4, &machine(), &profile);
        assert!(
            t4 < 0.35 * t1,
            "compute-bound prediction should scale: {t1} -> {t4}"
        );
    }

    #[test]
    fn imbalance_factor_basics() {
        assert_eq!(imbalance_factor(&[]), 1.0);
        assert_eq!(imbalance_factor(&[0.5]), 1.0);
        assert_eq!(imbalance_factor(&[1.0, 1.0, 1.0, 1.0]), 1.0);
        // One strip at 2x the others: max/mean = 2 / 1.25 = 1.6.
        let f = imbalance_factor(&[1.0, 1.0, 1.0, 2.0]);
        assert!((f - 1.6).abs() < 1e-12, "{f}");
        // Degenerate profiles never deflate a prediction.
        assert_eq!(imbalance_factor(&[0.0, 0.0]), 1.0);
        assert!(imbalance_factor(&[3.0, 1.0]) >= 1.0);
    }

    #[test]
    fn measured_prediction_reduces_to_structural_when_balanced() {
        let csr = GenSpec::Stencil2d { nx: 24, ny: 24 }.build(7);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        for model in Model::ALL {
            // Perfectly balanced measurement: mean == max over strips,
            // so the measured form must not exceed the structural form
            // (which takes the max over per-strip predictions).
            let structural =
                predict_threaded(model, &csr, &Config::CSR, 4, &machine(), &profile);
            let balanced = predict_threaded_measured(
                model,
                &csr,
                &Config::CSR,
                4,
                &machine(),
                &profile,
                &[1.0, 1.0, 1.0, 1.0],
            );
            assert!(
                balanced <= structural + 1e-12,
                "{model:?}: balanced {balanced} > structural {structural}"
            );
            assert!(balanced > 0.0);
        }
    }

    #[test]
    fn measured_imbalance_inflates_prediction() {
        let csr = GenSpec::Stencil2d { nx: 24, ny: 24 }.build(8);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let balanced = predict_threaded_measured(
            Model::Overlap,
            &csr,
            &Config::CSR,
            2,
            &machine(),
            &profile,
            &[1.0, 1.0],
        );
        let skewed = predict_threaded_measured(
            Model::Overlap,
            &csr,
            &Config::CSR,
            2,
            &machine(),
            &profile,
            &[1.0, 3.0],
        );
        // max/mean = 3/2: the skewed profile costs exactly 1.5x more.
        assert!((skewed / balanced - 1.5).abs() < 1e-9);
    }

    #[test]
    fn measured_prediction_falls_back_without_samples() {
        let csr = GenSpec::Stencil2d { nx: 16, ny: 16 }.build(9);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let structural = predict_threaded(Model::Mem, &csr, &Config::CSR, 2, &machine(), &profile);
        let fallback = predict_threaded_measured(
            Model::Mem,
            &csr,
            &Config::CSR,
            2,
            &machine(),
            &profile,
            &[],
        );
        assert_eq!(structural, fallback);
    }

    #[test]
    fn flat_hierarchy_reproduces_predict_threaded_exactly() {
        let csr = GenSpec::Random {
            n: 500,
            m: 500,
            nnz_per_row: 6,
        }
        .build(11);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let h = BandwidthHierarchy::flat(machine().bandwidth);
        for model in Model::ALL {
            for threads in 1..=6 {
                let flat = predict_threaded(model, &csr, &Config::CSR, threads, &machine(), &profile);
                let hier = predict_threaded_hierarchy(
                    model, &csr, &Config::CSR, threads, &machine(), &profile, &h, None, None,
                );
                assert_eq!(flat, hier, "{model:?} t={threads}");
            }
        }
    }

    #[test]
    fn remote_pages_cost_more_than_first_touch() {
        // Two domains; interconnect at a third of local bandwidth. All
        // pages on node 0 (no first-touch) must predict slower than
        // pages following their strips.
        let csr = GenSpec::Random {
            n: 4_000,
            m: 4_000,
            nnz_per_row: 8,
        }
        .build(12);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let h = BandwidthHierarchy::new(vec![
            DomainBandwidth {
                local: 4e9,
                remote: 4e9 / 3.0,
            };
            2
        ]);
        let first_touch = predict_threaded_hierarchy(
            Model::Mem, &csr, &Config::CSR, 4, &machine(), &profile, &h, None, None,
        );
        let all_on_zero = predict_threaded_hierarchy(
            Model::Mem, &csr, &Config::CSR, 4, &machine(), &profile, &h, None, Some(0),
        );
        assert!(
            all_on_zero > 1.2 * first_touch,
            "remote pages should be penalized: {first_touch} vs {all_on_zero}"
        );
    }

    #[test]
    fn two_controllers_beat_one_shared_bus() {
        // Same aggregate silicon, split over two domains: a streaming
        // kernel that cannot scale on one bus (the memory wall test
        // above) should roughly halve with first-touch domain spread.
        let csr = GenSpec::Random {
            n: 4_000,
            m: 4_000,
            nnz_per_row: 8,
        }
        .build(13);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let one = BandwidthHierarchy::flat(4e9);
        let two = BandwidthHierarchy::new(vec![
            DomainBandwidth {
                local: 4e9,
                remote: 1e9,
            };
            2
        ]);
        let shared = predict_threaded_hierarchy(
            Model::Mem, &csr, &Config::CSR, 4, &machine(), &profile, &one, None, None,
        );
        let spread = predict_threaded_hierarchy(
            Model::Mem, &csr, &Config::CSR, 4, &machine(), &profile, &two, None, None,
        );
        assert!(
            spread < 0.7 * shared,
            "domain spread should relieve the bus: {shared} -> {spread}"
        );
    }

    #[test]
    fn strip_bandwidth_charges_the_pages_domain() {
        let h = BandwidthHierarchy::new(vec![
            DomainBandwidth {
                local: 8e9,
                remote: 2e9,
            },
            DomainBandwidth {
                local: 6e9,
                remote: 1e9,
            },
        ]);
        assert_eq!(h.strip_bandwidth(0, 0, 1), 8e9);
        assert_eq!(h.strip_bandwidth(0, 0, 2), 4e9);
        // Executing on 0, pages on 1: domain 1's interconnect path.
        assert_eq!(h.strip_bandwidth(0, 1, 1), 1e9);
        assert_eq!(h.strip_bandwidth(1, 0, 2), 1e9);
        // Degenerate sharer count never divides by zero.
        assert_eq!(h.strip_bandwidth(0, 0, 0), 8e9);
    }

    #[test]
    fn saturation_point_is_low_for_streaming_kernels() {
        let csr = GenSpec::Random {
            n: 4_000,
            m: 4_000,
            nnz_per_row: 8,
        }
        .build(5);
        let profile = KernelProfile::uniform(1e-10, 0.1);
        let sat = predicted_saturation_point(
            Model::Overlap,
            &csr,
            &Config::CSR,
            8,
            &machine(),
            &profile,
        );
        assert!(sat <= 4, "streaming SpMV should saturate early, got {sat}");
    }
}

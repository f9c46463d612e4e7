//! Kernel profiling: per-block compute times `t_b` and non-overlap
//! factors `nof_b`.
//!
//! The MEMCOMP model's `t_b` is "obtained by profiling the execution of a
//! very small dense matrix, which is stored using every blocking method
//! and block under consideration and fits in the L1 cache of the target
//! machine" (§IV). The OVERLAP model's `nof_b` comes from equation (4),
//! profiling "a large dense matrix that exceeds the highest level of
//! cache". This module is that profiler; a [`KernelProfile`] is computed
//! once per (machine, precision) and reused across every matrix.

use crate::config::{BlockConfig, BuiltFormat, Config, KernelKey};
use crate::machine::MachineProfile;
use crate::timing::measure_spmv;
use spmv_core::{Csr, DenseMatrix, MatrixShape, Scalar, SpMv};
use spmv_kernels::simd::SimdScalar;
use std::collections::HashMap;

/// Profiled characteristics of one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTimes {
    /// Estimated execution time for a single block, seconds (eq. 2).
    pub t_b: f64,
    /// Non-overlapping factor: the fraction of computation *not* hidden
    /// behind memory transfers (eq. 3–4), clamped to `[0, 1]`.
    pub nof: f64,
}

/// The complete kernel profile for one machine and precision.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    times: HashMap<KernelKey, BlockTimes>,
}

impl KernelProfile {
    /// Looks up a kernel's profile.
    ///
    /// # Panics
    ///
    /// Panics if the key was never profiled — profiles are built over the
    /// full search space, so this indicates a programming error.
    pub fn get(&self, key: KernelKey) -> BlockTimes {
        *self
            .times
            .get(&key)
            .unwrap_or_else(|| panic!("kernel {key} missing from profile"))
    }

    /// Inserts or replaces one kernel's numbers (used by tests and by
    /// synthetic profiles).
    pub fn set(&mut self, key: KernelKey, times: BlockTimes) {
        self.times.insert(key, times);
    }

    /// Number of profiled kernels.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over all profiled kernels.
    pub fn iter(&self) -> impl Iterator<Item = (&KernelKey, &BlockTimes)> {
        self.times.iter()
    }

    /// A synthetic profile where each block costs time proportional to
    /// its element count (`t_b = elems * per_elem`), with a uniform
    /// `nof`. This is the "ideal machine" profile: it isolates the
    /// models' structural reasoning (working sets, block counts, padding)
    /// from kernel-quality noise, and is what deterministic tests use.
    pub fn proportional(per_elem: f64, nof: f64) -> Self {
        Self::from_fn(|key| BlockTimes {
            t_b: key.block_elems() as f64 * per_elem,
            nof,
        })
    }

    /// A synthetic profile for tests: every kernel gets the same `t_b`
    /// and `nof`.
    pub fn uniform(t_b: f64, nof: f64) -> Self {
        Self::from_fn(|_| BlockTimes { t_b, nof })
    }

    /// A synthetic profile over every kernel of
    /// [`Config::profiled_kernels`].
    fn from_fn(times: impl Fn(KernelKey) -> BlockTimes) -> Self {
        let keys = Config::profiled_kernels().into_keys();
        KernelProfile {
            times: keys.map(|key| (key, times(key))).collect(),
        }
    }
}

/// Sizing and measurement knobs for [`profile_kernels`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileOptions {
    /// Target byte footprint of the L1-resident profiling matrix
    /// (`0` = half the machine's L1).
    pub small_bytes: usize,
    /// Target byte footprint of the out-of-cache profiling matrix
    /// (`0` = twice the machine's LLC, capped at 64 MiB).
    pub large_bytes: usize,
    /// Minimum timing window per measurement, seconds.
    pub min_time: f64,
    /// Timing batches (best-of).
    pub batches: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            small_bytes: 0,
            large_bytes: 0,
            min_time: 3e-3,
            batches: 3,
        }
    }
}

/// Dense square profiling matrix with side rounded down to a multiple of
/// 8 (so every block shape tiles it exactly).
fn profiling_matrix<T: Scalar>(target_bytes: usize) -> Csr<T> {
    let n = ((target_bytes / T::BYTES) as f64).sqrt() as usize;
    let n = (n / 8 * 8).max(16);
    Csr::from_dense(&DenseMatrix::<T>::profiling(n, n))
}

/// Re-measures only `keys` — the bounded re-profile an online tuner runs
/// when residuals implicate specific kernels, instead of the full
/// search-space sweep of [`profile_kernels`].
///
/// Each key is measured on its representative configuration from
/// [`Config::profiled_kernels`]: `t_b` on an L1-resident dense matrix,
/// `nof` on an out-of-cache one. Duplicate keys are measured once, and
/// the scalar and SIMD kernels of one format share one build of each
/// matrix, switching the kernel in place. Cost scales with
/// `keys.len()`, not the search-space size.
///
/// # Panics
///
/// Panics if a key is outside the search space.
pub fn profile_keys<T: SimdScalar>(
    machine: &MachineProfile,
    opts: &ProfileOptions,
    keys: &[KernelKey],
) -> Vec<(KernelKey, BlockTimes)> {
    let _span = spmv_telemetry::span_with("model.profile.keys", keys.len() as u64);
    let table = Config::profiled_kernels();
    let mut todo: Vec<KernelKey> = keys.to_vec();
    todo.sort_unstable();
    todo.dedup();
    if todo.is_empty() {
        return Vec::new();
    }
    let small_bytes = if opts.small_bytes == 0 {
        machine.l1_bytes / 2
    } else {
        opts.small_bytes
    };
    let large_bytes = if opts.large_bytes == 0 {
        // Twice the LLC, capped at 64 MiB: large enough to defeat modest
        // caches, small enough that profiling the full kernel set stays
        // in seconds even on machines with very large last-level caches
        // (where the triad-matched bandwidth keeps the model consistent;
        // DESIGN.md §2).
        (machine.llc_bytes * 2).min(64 << 20)
    } else {
        opts.large_bytes
    };
    let small = profiling_matrix::<T>(small_bytes);
    let large = profiling_matrix::<T>(large_bytes);
    let x_small: Vec<T> = (0..small.n_cols())
        .map(|i| T::from_f64(1.0 + (i % 3) as f64))
        .collect();
    let x_large: Vec<T> = (0..large.n_cols())
        .map(|i| T::from_f64(1.0 + (i % 3) as f64))
        .collect();

    // Equation (4): the numerator is the compute time not hidden behind
    // the streaming transfers, the denominator the estimated total
    // compute time.
    let nof_of = |t_real: f64, ws_bytes: usize, nb: usize, t_b: f64| -> f64 {
        let t_mem = ws_bytes as f64 / machine.bandwidth;
        if nb == 0 || t_b <= 0.0 {
            return 1.0;
        }
        ((t_real - t_mem) / (nb as f64 * t_b)).clamp(0.0, 1.0)
    };

    let mut built: Option<(BlockConfig, BuiltFormat<T>, BuiltFormat<T>)> = None;
    let mut out = Vec::with_capacity(todo.len());
    for key in todo {
        let config = *table
            .get(&key)
            .unwrap_or_else(|| panic!("kernel {key} is outside the search space"));
        // Sorted keys put a format's scalar and SIMD kernels next to
        // each other, so each format is built once.
        if built.as_ref().map(|b| b.0) != Some(config.block) {
            drop(built.take());
            built = Some((config.block, config.build(&small), config.build(&large)));
        }
        let (_, small_b, large_b) = built.as_mut().expect("built above");
        small_b.set_kernel_impl(config.imp);
        large_b.set_kernel_impl(config.imp);
        let t_small = measure_spmv(&*small_b, &x_small, opts.min_time, opts.batches);
        let t_b = t_small / small_b.n_blocks().max(1) as f64;
        let t_large = measure_spmv(&*large_b, &x_large, opts.min_time, opts.batches);
        let nof = nof_of(
            t_large,
            large_b.working_set_bytes(),
            large_b.n_blocks(),
            t_b,
        );
        out.push((key, BlockTimes { t_b, nof }));
    }
    out
}

/// Measures `t_b` (L1-resident dense) and `nof` (out-of-cache dense) for
/// every kernel of [`Config::profiled_kernels`].
pub fn profile_kernels<T: SimdScalar>(
    machine: &MachineProfile,
    opts: &ProfileOptions,
) -> KernelProfile {
    let _profile_span = spmv_telemetry::span("model.profile");
    let keys: Vec<KernelKey> = Config::profiled_kernels().into_keys().collect();
    KernelProfile {
        times: profile_keys::<T>(machine, opts, &keys)
            .into_iter()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_kernels::{BlockShape, KernelImpl, BCSD_SIZES, SELL_HEIGHTS};
    use std::collections::BTreeSet;

    fn tiny_opts() -> ProfileOptions {
        ProfileOptions {
            small_bytes: 4 * 1024,
            large_bytes: 32 * 1024,
            min_time: 2e-4,
            batches: 1,
        }
    }

    /// CSR, plus per implementation: CSR-Δ, one padded and one masked
    /// kernel per BCSR shape, one padded and one masked kernel per BCSD
    /// size, and one SELL kernel per slice height. Derived from the
    /// search space, not hardcoded.
    fn expected_profile_len() -> usize {
        let shapes = BlockShape::search_space().len();
        let sizes = BCSD_SIZES.len();
        1 + KernelImpl::ALL.len() * (1 + 2 * (shapes + sizes) + SELL_HEIGHTS.len())
    }

    fn key_set(p: &KernelProfile) -> BTreeSet<KernelKey> {
        p.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn profile_covers_the_whole_search_space() {
        let machine = MachineProfile::paper_testbed();
        let p = profile_kernels::<f64>(&machine, &tiny_opts());
        let table: BTreeSet<KernelKey> = Config::profiled_kernels().into_keys().collect();
        assert_eq!(table.len(), expected_profile_len());
        assert_eq!(key_set(&p), table);
        assert_eq!(key_set(&KernelProfile::uniform(1e-9, 0.5)), table);
        assert_eq!(key_set(&KernelProfile::proportional(1e-9, 0.5)), table);
        for (key, t) in p.iter() {
            assert!(t.t_b > 0.0, "{key}: t_b must be positive");
            assert!((0.0..=1.0).contains(&t.nof), "{key}: nof in [0,1]");
        }
    }

    #[test]
    fn larger_blocks_take_longer_per_block() {
        // A 1x8 block does 4x the work of a 1x2 block; allow generous
        // measurement slack but demand the ordering. The tiny profiling
        // windows can invert under scheduler noise from the other
        // timing tests in this binary, so retry before declaring a
        // real ordering violation.
        let machine = MachineProfile::paper_testbed();
        let measure = || {
            let p = profile_kernels::<f64>(&machine, &tiny_opts());
            let t_b = |c| {
                p.get(KernelKey::Bcsr {
                    shape: BlockShape::new(1, c).unwrap(),
                    imp: KernelImpl::Scalar,
                })
                .t_b
            };
            (t_b(2), t_b(8))
        };
        let mut last = (0.0, 0.0);
        for _ in 0..3 {
            last = measure();
            if last.1 > last.0 {
                return;
            }
        }
        let (t1, t8) = last;
        panic!("t_b(1x8)={t8} should exceed t_b(1x2)={t1}");
    }

    #[test]
    fn profile_keys_measures_exactly_the_requested_keys() {
        let machine = MachineProfile::paper_testbed();
        // One key per `KernelKey` variant, plus a duplicate measured once.
        let mut keys: Vec<KernelKey> = Config::profiled_kernels().into_keys().collect();
        keys.dedup_by_key(|k| std::mem::discriminant(k));
        keys.push(KernelKey::Csr);
        let measured = profile_keys::<f64>(&machine, &tiny_opts(), &keys);
        assert_eq!(measured.len(), keys.len() - 1);
        for (key, times) in &measured {
            assert!(times.t_b > 0.0, "{key}: t_b must be positive");
            assert!((0.0..=1.0).contains(&times.nof), "{key}: nof in [0,1]");
        }
        assert!(profile_keys::<f64>(&machine, &tiny_opts(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the search space")]
    fn profile_keys_rejects_keys_outside_the_search_space() {
        let machine = MachineProfile::paper_testbed();
        let key = KernelKey::Bcsd {
            b: 1,
            imp: KernelImpl::Scalar,
        };
        let _ = profile_keys::<f64>(&machine, &tiny_opts(), &[key]);
    }

    #[test]
    fn uniform_profile_for_tests() {
        let p = KernelProfile::uniform(1e-9, 0.5);
        assert_eq!(p.len(), expected_profile_len());
        assert_eq!(p.get(KernelKey::Csr).nof, 0.5);
    }

    #[test]
    #[should_panic(expected = "missing from profile")]
    fn missing_key_panics() {
        let p = KernelProfile::default();
        let _ = p.get(KernelKey::Csr);
    }

    #[test]
    fn profiling_matrix_side_is_multiple_of_8() {
        let m: Csr<f64> = profiling_matrix(16 * 1024);
        assert_eq!(m.n_rows() % 8, 0);
    }
}

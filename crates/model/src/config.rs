//! The (format, block, implementation) configuration space the models
//! search.

use crate::models::Model;
use core::fmt;
use core::ops::Range;
use spmv_core::{Csr, Index, IndexWidth, MatrixShape, Scalar, SpMv, SpMvMulti};
use spmv_formats::{
    bcsd_dec_stats, bcsd_masked_stats, bcsd_stats, bcsr_dec_stats, bcsr_masked_stats, bcsr_stats,
    csr_delta_stats, sell_sigmas, sellc_stats, Bcsd, BcsdDec, BcsdMasked, Bcsr, BcsrDec,
    BcsrMasked, CsrDelta, FormatKind, SellCSigma, SELL_SIGMA_FULL,
};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::{BlockShape, KernelImpl, BCSD_SIZES, SELL_HEIGHTS};
use spmv_parallel::{
    bcsd_unit_weights, bcsr_unit_weights, csr_unit_weights, partition_units, sell_unit_weights,
    units_to_rows, Placement, SpmvPool,
};
use spmv_telemetry::residual::ResidualKey;
use std::collections::BTreeMap;

/// A storage format plus its block parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockConfig {
    /// Plain CSR (the models' degenerate 1×1 blocking).
    Csr,
    /// BCSR with the given shape.
    Bcsr(BlockShape),
    /// BCSR-DEC with the given shape.
    BcsrDec(BlockShape),
    /// BCSD with the given diagonal size.
    Bcsd(usize),
    /// BCSD-DEC with the given diagonal size.
    BcsdDec(usize),
    /// Delta-encoded CSR (index-compression extension).
    CsrDelta,
    /// BCSR whose block-column array is stored at the narrowest index
    /// width that fits the column space (index-compression extension).
    BcsrNarrow(BlockShape),
    /// BCSD with a narrow-width block-column array (index-compression
    /// extension).
    BcsdNarrow(usize),
    /// Masked BCSR: per-block occupancy bitmasks, no padded values
    /// (padding-free extension).
    BcsrMasked(BlockShape),
    /// Masked BCSD: per-block occupancy bitmasks, no padded values.
    BcsdMasked(usize),
    /// SELL-C-σ: slice height `c`, sorting window `sigma`
    /// ([`SELL_SIGMA_FULL`] for the global sort; padding-dominated
    /// extension).
    SellCSigma {
        /// Slice height (rows per slice; one of
        /// [`spmv_kernels::SELL_HEIGHTS`]).
        c: usize,
        /// Sorting window in rows.
        sigma: usize,
    },
    /// SELL-C-σ with a narrow-width column-index array
    /// (index-compression extension).
    SellCSigmaNarrow {
        /// Slice height.
        c: usize,
        /// Sorting window in rows.
        sigma: usize,
    },
}

impl BlockConfig {
    /// The format family this configuration belongs to.
    pub fn kind(self) -> FormatKind {
        match self {
            BlockConfig::Csr => FormatKind::Csr,
            BlockConfig::Bcsr(_) | BlockConfig::BcsrNarrow(_) => FormatKind::Bcsr,
            BlockConfig::BcsrDec(_) => FormatKind::BcsrDec,
            BlockConfig::Bcsd(_) | BlockConfig::BcsdNarrow(_) => FormatKind::Bcsd,
            BlockConfig::BcsdDec(_) => FormatKind::BcsdDec,
            BlockConfig::CsrDelta => FormatKind::CsrDelta,
            BlockConfig::BcsrMasked(_) => FormatKind::BcsrMasked,
            BlockConfig::BcsdMasked(_) => FormatKind::BcsdMasked,
            BlockConfig::SellCSigma { .. } | BlockConfig::SellCSigmaNarrow { .. } => {
                FormatKind::SellCSigma
            }
        }
    }

    /// The format-family label residual keys and evaluation reports
    /// bucket by: narrow-index and delta variants get their own family so
    /// they compare against their full-width baselines.
    pub fn family(self) -> &'static str {
        match self {
            BlockConfig::Csr => "CSR",
            BlockConfig::CsrDelta => "CSR-DELTA",
            BlockConfig::Bcsr(_) => "BCSR",
            BlockConfig::BcsrNarrow(_) => "BCSR16",
            BlockConfig::BcsrDec(_) => "BCSR-DEC",
            BlockConfig::Bcsd(_) => "BCSD",
            BlockConfig::BcsdNarrow(_) => "BCSD16",
            BlockConfig::BcsdDec(_) => "BCSD-DEC",
            BlockConfig::BcsrMasked(_) => "BCSR-MASK",
            BlockConfig::BcsdMasked(_) => "BCSD-MASK",
            BlockConfig::SellCSigma { .. } => "SELL",
            BlockConfig::SellCSigmaNarrow { .. } => "SELL16",
        }
    }

    /// The block-parameter label: `-` for unblocked formats, `RxC` for
    /// the BCSR family, `bN` for BCSD diagonal sizes and `cCsS` for
    /// SELL (`sn` for the global sort).
    pub fn shape_label(self) -> String {
        match self {
            BlockConfig::Csr | BlockConfig::CsrDelta => "-".to_string(),
            BlockConfig::Bcsr(s)
            | BlockConfig::BcsrDec(s)
            | BlockConfig::BcsrNarrow(s)
            | BlockConfig::BcsrMasked(s) => format!("{}x{}", s.r, s.c),
            BlockConfig::Bcsd(b)
            | BlockConfig::BcsdDec(b)
            | BlockConfig::BcsdNarrow(b)
            | BlockConfig::BcsdMasked(b) => format!("b{b}"),
            BlockConfig::SellCSigma { c, sigma } | BlockConfig::SellCSigmaNarrow { c, sigma } => {
                format!("c{c}s{}", SigmaLabel(sigma))
            }
        }
    }

    /// The narrow-index twin of a full-width configuration, if the
    /// format has one.
    pub fn narrow(self) -> Option<BlockConfig> {
        match self {
            BlockConfig::Bcsr(s) => Some(BlockConfig::BcsrNarrow(s)),
            BlockConfig::Bcsd(b) => Some(BlockConfig::BcsdNarrow(b)),
            BlockConfig::SellCSigma { c, sigma } => {
                Some(BlockConfig::SellCSigmaNarrow { c, sigma })
            }
            _ => None,
        }
    }

    /// The §V-A partition inputs: one weight per unit of `unit_height`
    /// rows, counting stored elements. Padded formats weigh their padding
    /// zeros and split on block rows, segments or slices, so no strip
    /// starts mid-block; padding-free blocked formats weigh true
    /// nonzeros on the same units.
    fn unit_weights<T: Scalar>(self, csr: &Csr<T>) -> (Vec<u64>, usize) {
        let nnz_per_unit = |h: usize| {
            let mut w = vec![0u64; csr.n_rows().div_ceil(h)];
            for i in 0..csr.n_rows() {
                w[i / h] += csr.row_nnz(i) as u64;
            }
            (w, h)
        };
        match self {
            BlockConfig::Csr | BlockConfig::CsrDelta => (csr_unit_weights(csr), 1),
            BlockConfig::Bcsr(s) | BlockConfig::BcsrNarrow(s) => {
                (bcsr_unit_weights(csr, s), s.rows())
            }
            BlockConfig::BcsrDec(s) | BlockConfig::BcsrMasked(s) => nnz_per_unit(s.rows()),
            BlockConfig::Bcsd(b) | BlockConfig::BcsdNarrow(b) => (bcsd_unit_weights(csr, b), b),
            BlockConfig::BcsdDec(b) | BlockConfig::BcsdMasked(b) => nnz_per_unit(b),
            BlockConfig::SellCSigma { c, .. } | BlockConfig::SellCSigmaNarrow { c, .. } => {
                (sell_unit_weights(csr, c), c)
            }
        }
    }
}

/// One point of the search space: block configuration plus kernel
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Format and block parameter.
    pub block: BlockConfig,
    /// Scalar or SIMD kernels (always scalar for CSR).
    pub imp: KernelImpl,
}

impl Config {
    /// Plain CSR with the baseline kernel.
    pub const CSR: Config = Config {
        block: BlockConfig::Csr,
        imp: KernelImpl::Scalar,
    };

    /// Enumerates the search space (§V-A): CSR, plus every BCSR/BCSR-DEC
    /// shape with `r*c <= 8`, plus every BCSD/BCSD-DEC size in `2..=8` —
    /// each in scalar and (when `include_simd`) SIMD form.
    pub fn enumerate(include_simd: bool) -> Vec<Config> {
        let imps: &[KernelImpl] = if include_simd {
            &[KernelImpl::Scalar, KernelImpl::Simd]
        } else {
            &[KernelImpl::Scalar]
        };
        let mut out = vec![Config::CSR];
        for shape in BlockShape::search_space() {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::Bcsr(shape),
                    imp,
                });
                out.push(Config {
                    block: BlockConfig::BcsrDec(shape),
                    imp,
                });
            }
        }
        for b in BCSD_SIZES {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::Bcsd(b),
                    imp,
                });
                out.push(Config {
                    block: BlockConfig::BcsdDec(b),
                    imp,
                });
            }
        }
        out
    }

    /// Enumerates the *extended* search space: everything in
    /// [`Config::enumerate`] plus the index-compression configurations —
    /// CSR-Δ and the narrow-index variants of every BCSR shape and BCSD
    /// size. Kept separate from the paper's base space so the original
    /// experiments are unchanged.
    pub fn enumerate_extended(include_simd: bool) -> Vec<Config> {
        let imps: &[KernelImpl] = if include_simd {
            &[KernelImpl::Scalar, KernelImpl::Simd]
        } else {
            &[KernelImpl::Scalar]
        };
        let mut out = Config::enumerate(include_simd);
        for &imp in imps {
            out.push(Config {
                block: BlockConfig::CsrDelta,
                imp,
            });
        }
        for shape in BlockShape::search_space() {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::BcsrNarrow(shape),
                    imp,
                });
            }
        }
        for b in BCSD_SIZES {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::BcsdNarrow(b),
                    imp,
                });
            }
        }
        // Masked (padding-free) variants, appended last so the base and
        // narrow spaces keep their prefix positions.
        for shape in BlockShape::search_space() {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::BcsrMasked(shape),
                    imp,
                });
            }
        }
        for b in BCSD_SIZES {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::BcsdMasked(b),
                    imp,
                });
            }
        }
        // SELL-C-σ variants, appended last: every slice height crossed
        // with the σ window set, wide then narrow indices.
        for c in SELL_HEIGHTS {
            for sigma in sell_sigmas(c) {
                for &imp in imps {
                    out.push(Config {
                        block: BlockConfig::SellCSigma { c, sigma },
                        imp,
                    });
                }
            }
        }
        for c in SELL_HEIGHTS {
            for sigma in sell_sigmas(c) {
                for &imp in imps {
                    out.push(Config {
                        block: BlockConfig::SellCSigmaNarrow { c, sigma },
                        imp,
                    });
                }
            }
        }
        out
    }

    /// The profiling key of the blocked (main) submatrix's kernel.
    ///
    /// The narrow-index variants reuse their full-width kernels: the
    /// scratch-widened index slice feeds the very same block routines, so
    /// `t_b` and `nof` carry over.
    pub fn kernel_key(&self) -> KernelKey {
        match self.block {
            BlockConfig::Csr => KernelKey::Csr,
            BlockConfig::CsrDelta => KernelKey::CsrDelta { imp: self.imp },
            BlockConfig::Bcsr(shape)
            | BlockConfig::BcsrDec(shape)
            | BlockConfig::BcsrNarrow(shape) => KernelKey::Bcsr {
                shape,
                imp: self.imp,
            },
            BlockConfig::Bcsd(b) | BlockConfig::BcsdDec(b) | BlockConfig::BcsdNarrow(b) => {
                KernelKey::Bcsd {
                    b: b as u8,
                    imp: self.imp,
                }
            }
            // The masked kernels iterate mask bits and expand partial
            // blocks, so their per-block cost differs from the padded
            // kernels' — they get their own profiling keys.
            BlockConfig::BcsrMasked(shape) => KernelKey::BcsrMasked {
                shape,
                imp: self.imp,
            },
            BlockConfig::BcsdMasked(b) => KernelKey::BcsdMasked {
                b: b as u8,
                imp: self.imp,
            },
            // σ only shuffles rows between slices; the per-slice-column
            // work is fixed by the slice height, so every σ shares one
            // profiled kernel per height.
            BlockConfig::SellCSigma { c, .. } | BlockConfig::SellCSigmaNarrow { c, .. } => {
                KernelKey::Sell {
                    c: c as u8,
                    imp: self.imp,
                }
            }
        }
    }

    /// The profiled kernels: each distinct [`Config::kernel_key`] of the
    /// extended search space, mapped to the first configuration of
    /// [`Config::enumerate_extended`]`(true)` that runs it. The profiler
    /// measures each key on its representative (BCSR, BCSD and their
    /// masked variants, CSR-Δ, and SELL with σ = 1), and a profile file
    /// holds exactly these keys.
    pub fn profiled_kernels() -> BTreeMap<KernelKey, Config> {
        let mut table = BTreeMap::new();
        for config in Config::enumerate_extended(true) {
            table.entry(config.kernel_key()).or_insert(config);
        }
        table
    }

    /// Materializes the configuration for `csr`.
    pub fn build<T: SimdScalar>(&self, csr: &Csr<T>) -> BuiltFormat<T> {
        match self.block {
            BlockConfig::Csr => BuiltFormat::Csr(csr.clone()),
            BlockConfig::Bcsr(shape) => BuiltFormat::Bcsr(Bcsr::from_csr(csr, shape, self.imp)),
            BlockConfig::BcsrDec(shape) => {
                BuiltFormat::BcsrDec(BcsrDec::from_csr(csr, shape, self.imp))
            }
            BlockConfig::Bcsd(b) => BuiltFormat::Bcsd(Bcsd::from_csr(csr, b, self.imp)),
            BlockConfig::BcsdDec(b) => BuiltFormat::BcsdDec(BcsdDec::from_csr(csr, b, self.imp)),
            BlockConfig::CsrDelta => BuiltFormat::CsrDelta(CsrDelta::from_csr(csr, self.imp)),
            BlockConfig::BcsrNarrow(shape) => {
                BuiltFormat::Bcsr(Bcsr::from_csr_narrow(csr, shape, self.imp))
            }
            BlockConfig::BcsdNarrow(b) => {
                BuiltFormat::Bcsd(Bcsd::from_csr_narrow(csr, b, self.imp))
            }
            BlockConfig::BcsrMasked(shape) => {
                BuiltFormat::BcsrMasked(BcsrMasked::from_csr(csr, shape, self.imp))
            }
            BlockConfig::BcsdMasked(b) => {
                BuiltFormat::BcsdMasked(BcsdMasked::from_csr(csr, b, self.imp))
            }
            BlockConfig::SellCSigma { c, sigma } => {
                BuiltFormat::SellCSigma(SellCSigma::from_csr(csr, c, sigma, self.imp))
            }
            BlockConfig::SellCSigmaNarrow { c, sigma } => {
                BuiltFormat::SellCSigma(SellCSigma::from_csr_narrow(csr, c, sigma, self.imp))
            }
        }
    }

    /// The row strips a `threads`-way split of `csr` gives this
    /// configuration: exactly `threads` contiguous ranges covering every
    /// row, balanced by [`BlockConfig`]'s stored-element weights and
    /// aligned to its block rows (tail ranges may be empty). The pool of
    /// [`Config::pooled`] runs the non-empty ones, and the threaded
    /// models (`crate::multicore`) predict on the same strips.
    pub fn strip_rows<T: Scalar>(&self, csr: &Csr<T>, threads: usize) -> Vec<Range<usize>> {
        let (weights, unit_height) = self.block.unit_weights(csr);
        units_to_rows(
            &partition_units(&weights, threads),
            unit_height,
            csr.n_rows(),
        )
    }

    /// Materializes the configuration for `csr` on a persistent
    /// [`SpmvPool`] of up to `n_threads` workers: each strip of
    /// [`Config::strip_rows`] is built with [`Config::build`], and
    /// `placement` pins the workers (plus the NUMA levers, see
    /// [`Placement`]; an nnz split re-balances the strips around the
    /// sheared row).
    pub fn pooled<T: SimdScalar>(
        &self,
        csr: &Csr<T>,
        n_threads: usize,
        placement: Placement,
    ) -> SpmvPool<T> {
        let (weights, unit_height) = self.block.unit_weights(csr);
        let config = *self;
        SpmvPool::from_csr_placed(
            csr,
            n_threads,
            &weights,
            unit_height,
            move |strip| config.build(strip),
            placement,
        )
    }

    /// Computes the per-submatrix statistics the models need, without
    /// materializing the format. The returned byte totals are exact — the
    /// test suite checks them against [`Config::build`].
    pub fn substats<T: Scalar>(&self, csr: &Csr<T>) -> Vec<SubStat> {
        let idx = core::mem::size_of::<Index>();
        let vecs = (csr.n_rows() + csr.n_cols()) * T::BYTES;
        let csr_bytes =
            |nnz: usize| nnz * (T::BYTES + idx) + (csr.n_rows() + 1) * idx;
        let main_bytes = |stored: usize, nb: usize, index_rows: usize| {
            stored * T::BYTES + nb * idx + (index_rows + 1) * idx
        };
        // Narrow variants shrink only the per-block column array; the row
        // index stays full-width.
        let narrow_bytes = |stored: usize, nb: usize, index_rows: usize| {
            let bw = IndexWidth::for_cols(csr.n_cols()).bytes();
            stored * T::BYTES + nb * bw + (index_rows + 1) * idx
        };
        match self.block {
            BlockConfig::Csr => vec![SubStat {
                ws_bytes: csr_bytes(csr.nnz()) + vecs,
                vec_bytes: vecs,
                nb: csr.nnz(),
                key: KernelKey::Csr,
            }],
            BlockConfig::CsrDelta => {
                let st = csr_delta_stats(csr);
                vec![SubStat {
                    ws_bytes: csr.nnz() * T::BYTES
                        + st.stream_bytes
                        + (csr.n_rows() + 1) * idx
                        + vecs,
                    vec_bytes: vecs,
                    nb: csr.nnz(),
                    key: self.kernel_key(),
                }]
            }
            BlockConfig::BcsrNarrow(shape) => {
                let st = bcsr_stats(csr, shape);
                vec![SubStat {
                    ws_bytes: narrow_bytes(st.stored, st.nb, st.index_rows) + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            BlockConfig::BcsdNarrow(b) => {
                let st = bcsd_stats(csr, b);
                vec![SubStat {
                    ws_bytes: narrow_bytes(st.stored, st.nb, st.index_rows) + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            BlockConfig::Bcsr(shape) => {
                let st = bcsr_stats(csr, shape);
                vec![SubStat {
                    ws_bytes: main_bytes(st.stored, st.nb, st.index_rows) + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            BlockConfig::Bcsd(b) => {
                let st = bcsd_stats(csr, b);
                vec![SubStat {
                    ws_bytes: main_bytes(st.stored, st.nb, st.index_rows) + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            // Masked variants charge true stored-value bytes plus one
            // occupancy byte per block and a per-row value-offset array
            // on top of the usual index arrays.
            BlockConfig::BcsrMasked(shape) => {
                let st = bcsr_masked_stats(csr, shape);
                vec![SubStat {
                    ws_bytes: main_bytes(st.stored, st.nb, st.index_rows)
                        + st.nb
                        + (st.index_rows + 1) * idx
                        + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            BlockConfig::BcsdMasked(b) => {
                let st = bcsd_masked_stats(csr, b);
                vec![SubStat {
                    ws_bytes: main_bytes(st.stored, st.nb, st.index_rows)
                        + st.nb
                        + (st.index_rows + 1) * idx
                        + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            // SELL charges the padded value stream, one column index per
            // stored slot (narrowable), the slice pointer and per-lane
            // length arrays, and the row permutation.
            BlockConfig::SellCSigma { c, sigma } | BlockConfig::SellCSigmaNarrow { c, sigma } => {
                let st = sellc_stats(csr, c, sigma);
                let colw = if matches!(self.block, BlockConfig::SellCSigmaNarrow { .. }) {
                    IndexWidth::for_cols(csr.n_cols()).bytes()
                } else {
                    idx
                };
                vec![SubStat {
                    ws_bytes: st.stored * T::BYTES
                        + st.stored * colw
                        + (st.index_rows + 1) * idx
                        + st.index_rows * c * idx
                        + csr.n_rows() * idx
                        + vecs,
                    vec_bytes: vecs,
                    nb: st.nb,
                    key: self.kernel_key(),
                }]
            }
            BlockConfig::BcsrDec(shape) => {
                let st = bcsr_dec_stats(csr, shape);
                vec![
                    SubStat {
                        ws_bytes: main_bytes(st.stored, st.nb, st.index_rows) + vecs,
                        vec_bytes: vecs,
                        nb: st.nb,
                        key: self.kernel_key(),
                    },
                    SubStat {
                        ws_bytes: csr_bytes(st.rest_nnz) + vecs,
                        vec_bytes: vecs,
                        nb: st.rest_nnz,
                        key: KernelKey::Csr,
                    },
                ]
            }
            BlockConfig::BcsdDec(b) => {
                let st = bcsd_dec_stats(csr, b);
                vec![
                    SubStat {
                        ws_bytes: main_bytes(st.stored, st.nb, st.index_rows) + vecs,
                        vec_bytes: vecs,
                        nb: st.nb,
                        key: self.kernel_key(),
                    },
                    SubStat {
                        ws_bytes: csr_bytes(st.rest_nnz) + vecs,
                        vec_bytes: vecs,
                        nb: st.rest_nnz,
                        key: KernelKey::Csr,
                    },
                ]
            }
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            BlockConfig::Csr => write!(f, "CSR")?,
            BlockConfig::Bcsr(s) => write!(f, "BCSR {s}")?,
            BlockConfig::BcsrDec(s) => write!(f, "BCSR-DEC {s}")?,
            BlockConfig::Bcsd(b) => write!(f, "BCSD b={b}")?,
            BlockConfig::BcsdDec(b) => write!(f, "BCSD-DEC b={b}")?,
            BlockConfig::CsrDelta => write!(f, "CSR-DELTA")?,
            BlockConfig::BcsrNarrow(s) => write!(f, "BCSR16 {s}")?,
            BlockConfig::BcsdNarrow(b) => write!(f, "BCSD16 b={b}")?,
            BlockConfig::BcsrMasked(s) => write!(f, "BCSR-MASK {s}")?,
            BlockConfig::BcsdMasked(b) => write!(f, "BCSD-MASK b={b}")?,
            BlockConfig::SellCSigma { c, sigma } => {
                write!(f, "SELL {c}/{}", SigmaLabel(sigma))?
            }
            BlockConfig::SellCSigmaNarrow { c, sigma } => {
                write!(f, "SELL16 {c}/{}", SigmaLabel(sigma))?
            }
        }
        if self.imp == KernelImpl::Simd {
            write!(f, " simd")?;
        }
        Ok(())
    }
}

/// The canonical residual-tracker key of one (configuration, model)
/// prediction population. Serving-time residuals and the offline
/// `modeleval` rows both use it, so they land in comparable buckets.
pub fn residual_key_for(config: Config, model: Model) -> ResidualKey {
    ResidualKey {
        format: config.block.family().to_string(),
        shape: config.block.shape_label(),
        kernel: config.imp.to_string(),
        model: model.label().to_string(),
    }
}

/// Renders a σ value, spelling the [`SELL_SIGMA_FULL`] sentinel as `n`.
struct SigmaLabel(usize);

impl fmt::Display for SigmaLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == SELL_SIGMA_FULL {
            f.write_str("n")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Per-submatrix model inputs: working set, block count, kernel identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubStat {
    /// Working set of this submatrix's SpMV pass (arrays + vectors).
    pub ws_bytes: usize,
    /// The vector portion of [`ws_bytes`](Self::ws_bytes): `x` plus `y`
    /// bytes for a single right-hand side. A `k`-vector call streams the
    /// matrix arrays (`ws_bytes - vec_bytes`) once but this much vector
    /// traffic `k` times — the split [`crate::Model::predict_multi`]
    /// needs.
    pub vec_bytes: usize,
    /// Number of blocks (`nnz` for CSR submatrices).
    pub nb: usize,
    /// Which profiled kernel executes this submatrix.
    pub key: KernelKey,
}

/// Identity of a profiled kernel: what `t_b` and `nof` are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKey {
    /// The CSR row kernel (1×1 degenerate block).
    Csr,
    /// A BCSR block-row kernel.
    Bcsr {
        /// Block shape.
        shape: BlockShape,
        /// Kernel implementation.
        imp: KernelImpl,
    },
    /// A BCSD segment kernel.
    Bcsd {
        /// Diagonal block size.
        b: u8,
        /// Kernel implementation.
        imp: KernelImpl,
    },
    /// The CSR-Δ row kernel (decodes the delta stream while multiplying).
    CsrDelta {
        /// Kernel implementation (SIMD accelerates unit runs).
        imp: KernelImpl,
    },
    /// A masked BCSR block-row kernel (expands occupancy-masked blocks).
    BcsrMasked {
        /// Block shape.
        shape: BlockShape,
        /// Kernel implementation.
        imp: KernelImpl,
    },
    /// A masked BCSD segment kernel.
    BcsdMasked {
        /// Diagonal block size.
        b: u8,
        /// Kernel implementation.
        imp: KernelImpl,
    },
    /// A SELL-C-σ slice kernel (σ does not change the kernel, only the
    /// slice widths it runs over).
    Sell {
        /// Slice height.
        c: u8,
        /// Kernel implementation.
        imp: KernelImpl,
    },
}

impl KernelKey {
    /// Elements processed per block by this kernel (1 for the CSR
    /// degenerate case).
    pub fn block_elems(self) -> usize {
        match self {
            KernelKey::Csr | KernelKey::CsrDelta { .. } => 1,
            KernelKey::Bcsr { shape, .. } | KernelKey::BcsrMasked { shape, .. } => shape.elems(),
            KernelKey::Bcsd { b, .. } | KernelKey::BcsdMasked { b, .. } => b as usize,
            KernelKey::Sell { c, .. } => c as usize,
        }
    }

    /// The record token of this kernel in a profile file (for example
    /// `bcsr 2 3 simd`; see `crate::persist`).
    pub fn record(self) -> String {
        match self {
            KernelKey::Csr => "csr".to_string(),
            KernelKey::Bcsr { shape, imp } => format!("bcsr {} {} {imp}", shape.r, shape.c),
            KernelKey::Bcsd { b, imp } => format!("bcsd {b} {imp}"),
            KernelKey::CsrDelta { imp } => format!("csrdelta {imp}"),
            KernelKey::BcsrMasked { shape, imp } => {
                format!("bcsrmasked {} {} {imp}", shape.r, shape.c)
            }
            KernelKey::BcsdMasked { b, imp } => format!("bcsdmasked {b} {imp}"),
            KernelKey::Sell { c, imp } => format!("sell {c} {imp}"),
        }
    }
}

impl fmt::Display for KernelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKey::Csr => write!(f, "csr"),
            KernelKey::Bcsr { shape, imp } => write!(f, "bcsr-{shape}{}", imp.suffix()),
            KernelKey::Bcsd { b, imp } => write!(f, "bcsd-{b}{}", imp.suffix()),
            KernelKey::CsrDelta { imp } => write!(f, "csr-delta{}", imp.suffix()),
            KernelKey::BcsrMasked { shape, imp } => {
                write!(f, "bcsr-mask-{shape}{}", imp.suffix())
            }
            KernelKey::BcsdMasked { b, imp } => write!(f, "bcsd-mask-{b}{}", imp.suffix()),
            KernelKey::Sell { c, imp } => write!(f, "sell-{c}{}", imp.suffix()),
        }
    }
}

/// A materialized configuration; delegates [`SpMv`] to the concrete
/// format without boxing.
#[derive(Debug, Clone)]
pub enum BuiltFormat<T> {
    /// CSR.
    Csr(Csr<T>),
    /// BCSR.
    Bcsr(Bcsr<T>),
    /// BCSR-DEC.
    BcsrDec(BcsrDec<T>),
    /// BCSD.
    Bcsd(Bcsd<T>),
    /// BCSD-DEC.
    BcsdDec(BcsdDec<T>),
    /// CSR-Δ.
    CsrDelta(CsrDelta<T>),
    /// Masked BCSR.
    BcsrMasked(BcsrMasked<T>),
    /// Masked BCSD.
    BcsdMasked(BcsdMasked<T>),
    /// SELL-C-σ.
    SellCSigma(SellCSigma<T>),
}

macro_rules! delegate {
    ($self:expr, $m:ident ( $($arg:expr),* )) => {
        match $self {
            BuiltFormat::Csr(x) => x.$m($($arg),*),
            BuiltFormat::Bcsr(x) => x.$m($($arg),*),
            BuiltFormat::BcsrDec(x) => x.$m($($arg),*),
            BuiltFormat::Bcsd(x) => x.$m($($arg),*),
            BuiltFormat::BcsdDec(x) => x.$m($($arg),*),
            BuiltFormat::CsrDelta(x) => x.$m($($arg),*),
            BuiltFormat::BcsrMasked(x) => x.$m($($arg),*),
            BuiltFormat::BcsdMasked(x) => x.$m($($arg),*),
            BuiltFormat::SellCSigma(x) => x.$m($($arg),*),
        }
    };
}

impl<T: SimdScalar> BuiltFormat<T> {
    /// Switches the kernel implementation in place (CSR has one kernel;
    /// the decomposed formats switch their blocked part).
    pub fn set_kernel_impl(&mut self, imp: KernelImpl) {
        match self {
            BuiltFormat::Csr(_) => {}
            BuiltFormat::Bcsr(x) => x.set_kernel_impl(imp),
            BuiltFormat::BcsrDec(x) => x.main_mut().set_kernel_impl(imp),
            BuiltFormat::Bcsd(x) => x.set_kernel_impl(imp),
            BuiltFormat::BcsdDec(x) => x.main_mut().set_kernel_impl(imp),
            BuiltFormat::CsrDelta(x) => x.set_kernel_impl(imp),
            BuiltFormat::BcsrMasked(x) => x.set_kernel_impl(imp),
            BuiltFormat::BcsdMasked(x) => x.set_kernel_impl(imp),
            BuiltFormat::SellCSigma(x) => x.set_kernel_impl(imp),
        }
    }

    /// Blocks the (main) kernel runs over: the `nb` of eq. (2), `nnz`
    /// for the unblocked formats.
    pub fn n_blocks(&self) -> usize {
        match self {
            BuiltFormat::Csr(x) => x.nnz(),
            BuiltFormat::Bcsr(x) => x.n_blocks(),
            BuiltFormat::BcsrDec(x) => x.main().n_blocks(),
            BuiltFormat::Bcsd(x) => x.n_blocks(),
            BuiltFormat::BcsdDec(x) => x.main().n_blocks(),
            BuiltFormat::CsrDelta(x) => x.nnz(),
            BuiltFormat::BcsrMasked(x) => x.n_blocks(),
            BuiltFormat::BcsdMasked(x) => x.n_blocks(),
            BuiltFormat::SellCSigma(x) => x.n_blocks(),
        }
    }
}

impl<T: SimdScalar> MatrixShape for BuiltFormat<T> {
    fn n_rows(&self) -> usize {
        delegate!(self, n_rows())
    }
    fn n_cols(&self) -> usize {
        delegate!(self, n_cols())
    }
}

impl<T: SimdScalar> SpMv<T> for BuiltFormat<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        delegate!(self, spmv_into(x, y))
    }
    fn nnz_stored(&self) -> usize {
        delegate!(self, nnz_stored())
    }
    fn matrix_bytes(&self) -> usize {
        delegate!(self, matrix_bytes())
    }
    fn working_set_bytes(&self) -> usize {
        delegate!(self, working_set_bytes())
    }
}

impl<T: SimdScalar> SpMvMulti<T> for BuiltFormat<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        delegate!(self, spmv_multi_into(x, y, k))
    }
    fn working_set_bytes_multi(&self, k: usize) -> usize {
        delegate!(self, working_set_bytes_multi(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn fixture() -> Csr<f64> {
        let mut coo = Coo::new(29, 31);
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..29 {
            if i < 31 {
                let _ = coo.push(i, i, 2.0);
            }
            for _ in 0..3 {
                let j = (next() as usize) % 31;
                let _ = coo.push(i, j, 1.0);
                if j + 1 < 31 && next() % 2 == 0 {
                    let _ = coo.push(i, j + 1, 1.0);
                }
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn enumerate_counts() {
        // Derived, not hardcoded: CSR + per implementation a BCSR and a
        // BCSR-DEC config per shape, plus a BCSD and a BCSD-DEC config
        // per diagonal size.
        let shapes = BlockShape::search_space().len();
        let sizes = BCSD_SIZES.len();
        assert_eq!(Config::enumerate(false).len(), 1 + 2 * (shapes + sizes));
        assert_eq!(Config::enumerate(true).len(), 1 + 4 * (shapes + sizes));
    }

    #[test]
    fn enumerate_extended_counts() {
        // Per implementation the extensions add CSR-Δ, one narrow config
        // per shape/size, one masked config per shape/size, and a wide
        // plus a narrow SELL config per (height, σ) pair.
        let shapes = BlockShape::search_space().len();
        let sizes = BCSD_SIZES.len();
        let sell: usize = SELL_HEIGHTS.iter().map(|&c| sell_sigmas(c).len()).sum();
        let ext_per_imp = 1 + 2 * (shapes + sizes) + 2 * sell;
        assert_eq!(
            Config::enumerate_extended(false).len(),
            Config::enumerate(false).len() + ext_per_imp
        );
        assert_eq!(
            Config::enumerate_extended(true).len(),
            Config::enumerate(true).len() + 2 * ext_per_imp
        );
    }

    #[test]
    fn extended_space_contains_base_space_as_prefix() {
        let base = Config::enumerate(true);
        let ext = Config::enumerate_extended(true);
        assert_eq!(&ext[..base.len()], &base[..]);
    }

    #[test]
    fn profiled_kernels_map_each_key_to_its_first_config() {
        let ext = Config::enumerate_extended(true);
        let table = Config::profiled_kernels();
        let mut keys: Vec<KernelKey> = ext.iter().map(|c| c.kernel_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(table.keys().copied().collect::<Vec<_>>(), keys);
        for (key, config) in &table {
            let first = ext.iter().find(|c| c.kernel_key() == *key);
            assert_eq!(Some(config), first, "{key}");
            // The representatives are the plain formats: no decomposed or
            // narrow variants, and SELL without sorting.
            let family = config.block.family();
            assert!(
                !family.contains("DEC") && !family.ends_with("16"),
                "{config}"
            );
            if let BlockConfig::SellCSigma { sigma, .. } = config.block {
                assert_eq!(sigma, 1, "{config}");
            }
        }
    }

    #[test]
    fn set_kernel_impl_switches_every_built_format_in_place() {
        let csr = fixture();
        let x: Vec<f64> = (0..31).map(|i| 1.0 + (i % 3) as f64).collect();
        for config in Config::enumerate_extended(false) {
            let simd = Config {
                imp: KernelImpl::Simd,
                ..config
            };
            let mut built = config.build(&csr);
            built.set_kernel_impl(KernelImpl::Simd);
            assert_eq!(built.spmv(&x), simd.build(&csr).spmv(&x), "{config}");
        }
    }

    #[test]
    fn substats_bytes_match_materialized_formats() {
        let csr = fixture();
        for config in Config::enumerate_extended(true) {
            let stats = config.substats(&csr);
            let built = config.build(&csr);
            let ws_est: usize = stats.iter().map(|s| s.ws_bytes).sum();
            assert_eq!(
                ws_est,
                built.working_set_bytes(),
                "ws mismatch for {config}"
            );
        }
    }

    #[test]
    fn substats_block_counts_match_materialized_formats() {
        let csr = fixture();
        for config in Config::enumerate_extended(false) {
            let stats = config.substats(&csr);
            let built = config.build(&csr);
            assert_eq!(stats[0].nb, built.n_blocks(), "{config}");
            match built {
                BuiltFormat::BcsrDec(m) => assert_eq!(stats[1].nb, m.rest().nnz(), "{config}"),
                BuiltFormat::BcsdDec(m) => assert_eq!(stats[1].nb, m.rest().nnz(), "{config}"),
                _ => assert_eq!(stats.len(), 1, "{config}"),
            }
        }
    }

    #[test]
    fn built_formats_all_multiply_correctly() {
        let csr = fixture();
        let x: Vec<f64> = (0..31).map(|i| 1.0 + (i % 3) as f64).collect();
        let want = csr.spmv(&x);
        for config in Config::enumerate_extended(true) {
            let built = config.build(&csr);
            let got = built.spmv(&x);
            for (a, g) in want.iter().zip(&got) {
                assert!((a - g).abs() < 1e-9, "{config}");
            }
        }
    }

    #[test]
    fn substats_multi_bytes_match_materialized_formats() {
        // Matrix traffic once plus vector traffic k times must reproduce
        // the materialized formats' working_set_bytes_multi exactly.
        let csr = fixture();
        for config in Config::enumerate_extended(true) {
            let stats = config.substats(&csr);
            let built = config.build(&csr);
            for k in [1usize, 2, 4, 9] {
                let est: usize = stats
                    .iter()
                    .map(|s| s.ws_bytes - s.vec_bytes + k * s.vec_bytes)
                    .sum();
                assert_eq!(
                    est,
                    built.working_set_bytes_multi(k),
                    "multi ws mismatch for {config} k={k}"
                );
            }
        }
    }

    #[test]
    fn built_formats_all_multiply_multi_correctly() {
        let csr = fixture();
        let k = 3;
        let x: Vec<f64> = (0..31 * k).map(|i| 1.0 + (i % 5) as f64).collect();
        for config in Config::enumerate_extended(true) {
            let built = config.build(&csr);
            let got = built.spmv_multi(&x, k);
            for t in 0..k {
                let want = built.spmv(&x[t * 31..(t + 1) * 31]);
                assert_eq!(want, &got[t * 29..(t + 1) * 29], "{config} col {t}");
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let configs = Config::enumerate_extended(true);
        let mut labels: Vec<String> = configs.iter().map(|c| c.to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), configs.len());
    }

    #[test]
    fn narrow_and_delta_substats_shrink_the_working_set() {
        let csr = fixture();
        let shape = BlockShape::new(2, 2).unwrap();
        let pairs = [
            (BlockConfig::BcsrNarrow(shape), BlockConfig::Bcsr(shape)),
            (BlockConfig::BcsdNarrow(4), BlockConfig::Bcsd(4)),
            (BlockConfig::CsrDelta, BlockConfig::Csr),
        ];
        for (narrow, wide) in pairs {
            let imp = KernelImpl::Scalar;
            let n = Config { block: narrow, imp }.substats(&csr)[0].ws_bytes;
            let w = Config { block: wide, imp }.substats(&csr)[0].ws_bytes;
            assert!(n < w, "{narrow:?}: {n} !< {w}");
        }
    }

    #[test]
    fn masked_substats_shrink_the_working_set_on_sparse_blocks() {
        // The fixture's blocks are mostly partial, so dropping padded
        // values must outweigh the one mask byte per block.
        let csr = fixture();
        let imp = KernelImpl::Scalar;
        let shape = BlockShape::new(2, 4).unwrap();
        let m = Config {
            block: BlockConfig::BcsrMasked(shape),
            imp,
        }
        .substats(&csr)[0]
            .ws_bytes;
        let p = Config {
            block: BlockConfig::Bcsr(shape),
            imp,
        }
        .substats(&csr)[0]
            .ws_bytes;
        assert!(m < p, "masked {m} !< padded {p}");
    }

    #[test]
    fn sell_substats_charge_padding_and_narrow_indices() {
        let csr = fixture();
        let imp = KernelImpl::Scalar;
        for c in SELL_HEIGHTS {
            let ws = |block: BlockConfig| Config { block, imp }.substats(&csr)[0].ws_bytes;
            let wide = ws(BlockConfig::SellCSigma { c, sigma: 1 });
            assert!(ws(BlockConfig::SellCSigmaNarrow { c, sigma: 1 }) < wide, "c={c}");
            // The global sort can only shrink the padded working set.
            let sorted = ws(BlockConfig::SellCSigma {
                c,
                sigma: SELL_SIGMA_FULL,
            });
            assert!(sorted <= wide, "c={c}");
        }
    }

    #[test]
    fn narrow_configs_fall_back_to_full_width_on_wide_matrices() {
        let n_cols = IndexWidth::MAX_U16_COLS + 1;
        let coo = Coo::from_triplets(
            2,
            n_cols,
            vec![(0, 0, 1.0), (0, n_cols - 1, 2.0), (1, 2, 4.0)],
        )
        .unwrap();
        let csr = Csr::from_coo(&coo);
        let shape = BlockShape::new(1, 2).unwrap();
        let imp = KernelImpl::Scalar;
        let narrow = Config {
            block: BlockConfig::BcsrNarrow(shape),
            imp,
        };
        let wide = Config {
            block: BlockConfig::Bcsr(shape),
            imp,
        };
        assert_eq!(
            narrow.substats(&csr)[0].ws_bytes,
            wide.substats(&csr)[0].ws_bytes
        );
        assert_eq!(
            narrow.build(&csr).working_set_bytes(),
            wide.build(&csr).working_set_bytes()
        );
    }

    #[test]
    fn decomposed_substats_have_two_parts() {
        let csr = fixture();
        let c = Config {
            block: BlockConfig::BcsrDec(BlockShape::new(2, 2).unwrap()),
            imp: KernelImpl::Scalar,
        };
        let stats = c.substats(&csr);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[1].key, KernelKey::Csr);
    }

    #[test]
    fn pooled_strips_are_unit_aligned_and_bitwise_equal_to_csr() {
        let csr = fixture();
        let x: Vec<f64> = (0..31).map(|i| 1.0 + (i % 3) as f64).collect();
        let want = csr.spmv(&x);
        for config in Config::enumerate_extended(true) {
            let (_, unit_height) = config.block.unit_weights(&csr);
            for threads in 1..=4 {
                let pool = config.pooled(&csr, threads, Placement::none());
                let strips = pool.strip_rows();
                assert!(
                    strips.iter().all(|r| r.start % unit_height == 0),
                    "{config} threads={threads}: {strips:?}"
                );
                assert_eq!(strips.last().map(|r| r.end), Some(29), "{config}");
                assert_eq!(pool.spmv(&x), want, "{config} threads={threads}");
            }
        }
    }

    #[test]
    fn family_and_shape_labels_keep_the_residual_key_strings() {
        // The residual-key grammar spelled out independently of
        // `family`/`shape_label`: serving residuals and `modeleval` rows
        // must keep landing in the same buckets.
        let expected = |block: BlockConfig| -> (&str, String) {
            let rc = |s: BlockShape| format!("{}x{}", s.r, s.c);
            let sell = |c: usize, sigma: usize| {
                if sigma == SELL_SIGMA_FULL {
                    format!("c{c}sn")
                } else {
                    format!("c{c}s{sigma}")
                }
            };
            match block {
                BlockConfig::Csr => ("CSR", "-".to_string()),
                BlockConfig::CsrDelta => ("CSR-DELTA", "-".to_string()),
                BlockConfig::Bcsr(s) => ("BCSR", rc(s)),
                BlockConfig::BcsrNarrow(s) => ("BCSR16", rc(s)),
                BlockConfig::BcsrDec(s) => ("BCSR-DEC", rc(s)),
                BlockConfig::Bcsd(b) => ("BCSD", format!("b{b}")),
                BlockConfig::BcsdNarrow(b) => ("BCSD16", format!("b{b}")),
                BlockConfig::BcsdDec(b) => ("BCSD-DEC", format!("b{b}")),
                BlockConfig::BcsrMasked(s) => ("BCSR-MASK", rc(s)),
                BlockConfig::BcsdMasked(b) => ("BCSD-MASK", format!("b{b}")),
                BlockConfig::SellCSigma { c, sigma } => ("SELL", sell(c, sigma)),
                BlockConfig::SellCSigmaNarrow { c, sigma } => ("SELL16", sell(c, sigma)),
            }
        };
        for config in Config::enumerate_extended(true) {
            let (family, shape) = expected(config.block);
            let key = residual_key_for(config, Model::Overlap);
            assert_eq!(key.format, family, "{config}");
            assert_eq!(key.shape, shape, "{config}");
            let kernel = match config.imp {
                KernelImpl::Scalar => "scalar",
                KernelImpl::Simd => "simd",
            };
            assert_eq!(key.kernel, kernel, "{config}");
        }
    }
}

#![warn(missing_docs)]

//! # blocked-spmv
//!
//! A reproduction of *"Performance Models for Blocked Sparse
//! Matrix-Vector Multiplication Kernels"* (V. Karakasis, G. Goumas,
//! N. Koziris — ICPP 2009) as a production-quality Rust workspace.
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`core`] — scalars, COO/CSR/dense matrices, the
//!   [`SpMv`] trait;
//! * [`kernels`] — per-shape block multiply kernels
//!   (scalar and SSE2);
//! * [`formats`] — BCSR, BCSD, BCSR-DEC, BCSD-DEC, 1D-VBL,
//!   masked BCSR/BCSD, and SELL-C-σ storage;
//! * [`gen`] — synthetic matrix generators, the 30-matrix
//!   evaluation suite, MatrixMarket I/O;
//! * [`model`] — the MEM / MEMCOMP / OVERLAP performance
//!   models, machine profiling, and model-driven format selection;
//! * [`parallel`] — nnz-balanced row partitioning and
//!   multithreaded SpMV;
//! * [`bench`](mod@bench) — timing utilities, experiment drivers, and
//!   the table/figure regeneration harness;
//! * [`telemetry`] — spans / counters / gauges over per-thread
//!   lock-free rings, chrome-trace + flat-text exporters, and the
//!   prediction-residual tracker (see `docs/OBSERVABILITY.md`);
//! * [`serve`] — SpMV-as-a-service: the sharded prepared-matrix
//!   registry and the batched request engine coalescing `y = A·x`
//!   traffic into multi-vector dispatches (see `docs/SERVING.md` and
//!   the `serve_load` load generator);
//! * [`tune`] — online adaptive reselection: a residual-driven
//!   background tuner that detects stale selections and hot-swaps
//!   re-ranked configurations through the serving registry (see
//!   `docs/ADAPTIVE.md` and the `serve_adapt` harness).
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

pub use spmv_bench as bench;
pub use spmv_core as core;
pub use spmv_formats as formats;
pub use spmv_gen as gen;
pub use spmv_kernels as kernels;
pub use spmv_model as model;
pub use spmv_parallel as parallel;
pub use spmv_serve as serve;
pub use spmv_telemetry as telemetry;
pub use spmv_tune as tune;

pub use spmv_core::{
    Coo, Csr, DenseMatrix, Error, IndexWidth, Precision, Result, Scalar, SpMv, SpMvMulti,
};
pub use spmv_formats::{
    Bcsd, BcsdDec, Bcsr, BcsrDec, CsrDelta, FormatKind, SpMvAcc, SpMvMultiAcc, Vbl,
};
pub use spmv_kernels::{BlockShape, KernelImpl};

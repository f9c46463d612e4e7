//! Integration tests for the serving layer (`blocked_spmv::serve`):
//! batched dispatch must be bitwise-equal to serial single-vector SpMV,
//! the registry must stay consistent under concurrent publish/read
//! traffic, and admission control must reject — never block.

#[path = "support/prop.rs"]
mod prop;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv};
use blocked_spmv::gen::GenSpec;
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::{BlockConfig, Config, KernelProfile, MachineProfile, Model};
use blocked_spmv::parallel::PinPolicy;
use blocked_spmv::serve::{
    EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine, ServeError,
};

fn csr_from(rng: &mut prop::Rng, size: usize) -> Csr<f64> {
    let (n, m, trips) = prop::sparse_triplets(rng, 2 + size * 4, 2 + size * 4, size * 12, -4.0, 4.0);
    Csr::from_coo(&Coo::from_triplets(n, m, trips).expect("triplets in range"))
}

/// The tentpole correctness property: for 200 seeded matrices, a fan of
/// requests answered through the coalescing engine is bitwise-identical
/// to the same prepared matrix's serial single-vector path — whether the
/// format was pinned (CSR) or model-selected (any blocked format).
#[test]
fn batched_dispatch_is_bitwise_equal_to_serial() {
    let machine = MachineProfile {
        bandwidth: 8e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    };
    let profile = KernelProfile::uniform(1e-9, 0.5);
    prop::run("serving_batched_equals_serial", 200, |rng, size| {
        let csr = csr_from(rng, size);
        // Alternate between a pinned-CSR entry and a model-selected one,
        // so the batch path is exercised over blocked formats too.
        let prepared = if rng.bool() {
            PreparedMatrix::from_config(Config::CSR, &csr)
        } else {
            PreparedMatrix::prepare(&csr, Model::Overlap, &machine, &profile, true)
        };
        let registry = Arc::new(Registry::new());
        let id = MatrixId(rng.next_u64());
        registry.publish(id, prepared);
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineOptions {
                window: Duration::ZERO,
                start_paused: true,
                ..EngineOptions::default()
            },
        );

        let fan = rng.usize_in(1, 12);
        let xs: Vec<Vec<f64>> = (0..fan)
            .map(|_| rng.f64_vec(csr.n_cols(), -2.0, 2.0))
            .collect();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| engine.submit(id, x.clone()).expect("known id, right length"))
            .collect();
        // Resuming after the whole fan is queued forces coalescing: the
        // dispatcher sees all `fan` requests in a single drain.
        engine.resume();
        let served = registry.get(id).expect("published");
        for (x, t) in xs.iter().zip(tickets) {
            let batched = t.wait().expect("request must complete");
            assert_eq!(
                batched,
                served.spmv(x),
                "batched result must be bitwise-equal to serial SpMV"
            );
        }
        let rep = engine.report();
        assert_eq!(rep.completed, fan as u64);
        assert_eq!(rep.failed, 0);
    });
}

/// Torture the left-right shard: one writer republished `id` in a tight
/// loop while readers hammer `get_versioned`. Every read must see a
/// fully-published, internally consistent entry (diagonal value ==
/// published version) and versions must be monotonic per reader.
#[test]
fn registry_stays_consistent_under_publish_while_read() {
    fn diag(n: usize, v: f64) -> Csr<f64> {
        let trips: Vec<_> = (0..n).map(|i| (i, i, v)).collect();
        Csr::from_coo(&Coo::from_triplets(n, n, trips).unwrap())
    }

    const N: usize = 32;
    let registry = Arc::new(Registry::with_shards(4));
    let id = MatrixId(0xFEED);
    registry.publish(id, PreparedMatrix::from_config(Config::CSR, &diag(N, 1.0)));

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let x = vec![1.0f64; N];
                let mut last_version = 0;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (version, served) = registry.get_versioned(id).expect("never removed");
                    assert!(
                        version >= last_version,
                        "versions must be monotonic per reader ({version} < {last_version})"
                    );
                    last_version = version;
                    let y = served.spmv(&x);
                    // The entry must be the one published whole: every
                    // diagonal element carries its publish version.
                    assert!(
                        y.iter().all(|&v| v == version as f64),
                        "read a torn or misversioned entry: version {version}, y[0]={}",
                        y[0]
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let mut version = 1;
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline {
        version += 1;
        let published = registry.publish(
            id,
            PreparedMatrix::from_config(Config::CSR, &diag(N, version as f64)),
        );
        assert_eq!(published, version);
    }
    stop.store(true, Ordering::Relaxed);
    let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(reads > 0, "readers must have made progress");
    assert!(version > 2, "writer must have made progress");
    assert_eq!(registry.version_of(id), Some(version));
}

/// Admission control: a full queue rejects instantly with `Saturated`
/// instead of blocking the submitter behind the dispatcher.
#[test]
fn backpressure_rejects_instead_of_blocking() {
    let csr = Csr::<f64>::from_coo(
        &Coo::from_triplets(6, 6, (0..6).map(|i| (i, i, 1.0 + i as f64)).collect::<Vec<_>>())
            .unwrap(),
    );
    let registry = Arc::new(Registry::new());
    let id = MatrixId(3);
    registry.publish(id, PreparedMatrix::from_config(Config::CSR, &csr));
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineOptions {
            capacity: 4,
            window: Duration::ZERO,
            start_paused: true,
            ..EngineOptions::default()
        },
    );

    let x = vec![1.0; 6];
    let tickets: Vec<_> = (0..4)
        .map(|_| engine.submit(id, x.clone()).expect("queue has room"))
        .collect();
    let t0 = Instant::now();
    for _ in 0..3 {
        assert_eq!(
            engine.submit(id, x.clone()).unwrap_err(),
            ServeError::Saturated { capacity: 4 }
        );
    }
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "saturation must reject without blocking"
    );
    assert_eq!(engine.report().rejected, 3);

    // Draining frees capacity and the same traffic is accepted again.
    engine.resume();
    for t in tickets {
        assert_eq!(t.wait().unwrap(), csr.spmv(&x));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match engine.submit(id, x.clone()) {
            Ok(t) => {
                assert_eq!(t.wait().unwrap(), csr.spmv(&x));
                break;
            }
            Err(ServeError::Saturated { .. }) => {
                assert!(Instant::now() < deadline, "queue never drained");
                std::thread::yield_now();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// A pool-hosted entry serves through the same front door, and removing
/// it from the registry shuts the pool's workers down cleanly once the
/// last in-flight reference drops.
#[test]
fn pooled_prepared_matrix_serves_and_shuts_down() {
    let n = 400;
    let trips: Vec<_> = (0..n)
        .flat_map(|i| {
            let mut row = vec![(i, i, 2.0)];
            if i + 1 < n {
                row.push((i, i + 1, -1.0));
            }
            row
        })
        .collect();
    let csr = Csr::<f64>::from_coo(&Coo::from_triplets(n, n, trips).unwrap());
    let machine = MachineProfile {
        bandwidth: 8e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    };
    let profile = KernelProfile::uniform(1e-9, 0.5);
    let prepared = PreparedMatrix::prepare_pooled(
        &csr,
        Model::Mem,
        &machine,
        &profile,
        true,
        2,
        PinPolicy::None,
    );
    assert!(prepared.is_pooled());

    let registry = Arc::new(Registry::new());
    let id = MatrixId(77);
    registry.publish(id, prepared);
    let engine = ServeEngine::new(Arc::clone(&registry), EngineOptions::default());
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
    let served = registry.get(id).expect("published");
    for _ in 0..3 {
        assert_eq!(
            engine.submit_wait(id, x.clone()).unwrap(),
            served.spmv(&x),
            "pooled dispatch must match the pooled serial path"
        );
    }
    drop(served);
    // Removing the entry drops the registry's Arc; the pool joins its
    // workers when the last reference (any in-flight dispatch) is gone.
    assert!(registry.remove(id));
    assert_eq!(
        engine.submit(id, x).unwrap_err(),
        ServeError::UnknownMatrix(id)
    );
}

/// Pooled blocked formats split on block rows: with BCSR 3×1 on a
/// 3-dof FEM matrix every strip starts on a node boundary, so the pool
/// stores exactly the serial format's elements (no extra padding) and
/// computes the serial product.
#[test]
fn pooled_bcsr_strips_add_no_padding() {
    let csr: Csr<f64> = GenSpec::FemBlocks {
        nodes: 400,
        dof: 3,
        neighbors: 6,
    }
    .build(21);
    let config = Config {
        block: BlockConfig::Bcsr(BlockShape::new(3, 1).unwrap()),
        imp: KernelImpl::Scalar,
    };
    let serial = config.build(&csr);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 0.5 + (i % 7) as f64).collect();
    for threads in 2..=4 {
        let pooled = PreparedMatrix::from_config_pooled(config, &csr, threads, PinPolicy::None);
        assert_eq!(
            pooled.nnz_stored(),
            serial.nnz_stored(),
            "threads={threads}"
        );
        assert_eq!(pooled.spmv(&x), serial.spmv(&x), "threads={threads}");
    }
}

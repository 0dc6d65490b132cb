//! Worker threads are spawned once, at pool construction, and reused for
//! every subsequent wave, phase, query and sweep point — never re-spawned
//! mid-run. This lives in its own integration-test binary so no sibling
//! test can touch the process-global spawn counter while it runs.

use std::sync::Arc;

use gamma_bench::{pooled_map_on, SweepBuilder, Workload};
use gamma_core::exec::pool::{env_pool, threads_spawned};
use gamma_core::query::Algorithm;
use gamma_core::{ExecConfig, WorkerPool};

#[test]
fn no_thread_is_spawned_after_the_run_starts() {
    // Every `Machine::new` defaults to the shared `GAMMA_POOL` pool; build
    // it up front so its workers are not counted as mid-run spawns.
    env_pool();
    let before = threads_spawned();
    let pool = Arc::new(WorkerPool::new(4));
    let after_build = threads_spawned();
    assert_eq!(after_build, before + 3, "size-4 pool = 3 dedicated workers");

    // Single queries across algorithms and phases, on the pool…
    let w = Workload::scaled(1_500, 150);
    for alg in [
        Algorithm::SortMerge,
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ] {
        let p = SweepBuilder::new(&w)
            .exec(ExecConfig::pooled(Arc::clone(&pool)))
            .run_one(alg, 0.5);
        assert!(p.report.result_tuples > 0);
    }
    // …and a pooled sweep dispatch running whole queries as pool jobs,
    // which themselves submit nested per-step batches to the same pool.
    let ratios = vec![1.0, 0.5, 0.2];
    let pts = pooled_map_on(Some(pool.as_ref()), "reuse sweep", ratios, |r| {
        SweepBuilder::new(&w)
            .exec(ExecConfig::pooled(Arc::clone(&pool)))
            .run_one(Algorithm::HybridHash, r)
    });
    assert_eq!(pts.len(), 3);

    assert_eq!(
        threads_spawned(),
        after_build,
        "a worker thread was spawned after the run started"
    );
}

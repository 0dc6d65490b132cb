//! Observer combinations are runtime choices, not build configurations.
//! The metrics registry and the trace sink are thread-local installs that
//! do nothing when absent, so every combination runs in the same binary:
//! registry only, sink only, or both. Installing one must not change what
//! the other records. The point is a sharply skewed Hybrid join under the
//! optimistic bucket policy, which overflows, so the spill and overflow
//! emission sites fire too. It runs serially and on a 2-lane pool.

use std::sync::Arc;

use gamma_bench::sweep::LoadStyle;
use gamma_bench::Workload;
use gamma_core::query::{Algorithm, OverflowPolicy};
use gamma_core::{run_join, ExecConfig, JoinReport, WorkerPool};
use gamma_metrics::Registry;
use gamma_trace::TraceSink;
use gamma_wisconsin::join_abprime;

struct Observed {
    report: JoinReport,
    metrics_json: Option<String>,
    perfetto: Option<String>,
}

/// Load the skewed workload, install the requested observers, run one
/// optimistic Hybrid join at memory ratio 0.5 and take the observers back.
fn observe(w: &Workload, exec: &ExecConfig, metrics: bool, trace: bool) -> Observed {
    let (mut machine, a, bprime) = w.machine(false, LoadStyle::HashedUnique1, "normal", "normal");
    machine.exec = exec.clone();
    let memory = machine.relation(bprime).data_bytes.div_ceil(2);
    let mut spec = join_abprime(Algorithm::HybridHash, bprime, a, "normal", "normal", memory);
    spec.overflow_policy = OverflowPolicy::Optimistic;

    if metrics {
        gamma_metrics::install(Registry::new());
    }
    if trace {
        gamma_trace::install(TraceSink::default());
    }
    let report = run_join(&mut machine, &spec);
    Observed {
        report,
        metrics_json: gamma_metrics::take().map(|r| gamma_metrics::json::render(&r)),
        perfetto: gamma_trace::take().map(|s| gamma_trace::perfetto::to_json(&s)),
    }
}

#[test]
fn observer_combinations_record_the_same_streams() {
    let w = Workload::scaled_nu(2_000, 200, 2_000.0 / 500.0);
    let expect = w.expect("normal", "normal");
    for exec in [
        ExecConfig::serial(),
        ExecConfig::pooled(Arc::new(WorkerPool::new(2))),
    ] {
        let lanes = exec.lanes();
        let metrics_only = observe(&w, &exec, true, false);
        let trace_only = observe(&w, &exec, false, true);
        let both = observe(&w, &exec, true, true);

        let r = &both.report;
        assert_eq!(r.result_tuples, expect.tuples, "pool {lanes}: wrong result");
        assert!(
            r.overflow_passes > 0,
            "pool {lanes}: the skewed optimistic join no longer overflows"
        );
        for other in [&metrics_only.report, &trace_only.report] {
            assert_eq!(other.response, r.response, "pool {lanes}: response moved");
            assert_eq!(other.result_checksum, r.result_checksum, "pool {lanes}");
        }

        // Whole-document compares; `assert_eq!` would print megabytes.
        assert!(trace_only.metrics_json.is_none() && metrics_only.perfetto.is_none());
        assert!(both.metrics_json.is_some() && both.perfetto.is_some());
        assert!(
            metrics_only.metrics_json == both.metrics_json,
            "pool {lanes}: the trace sink changed the metrics snapshot"
        );
        assert!(
            trace_only.perfetto == both.perfetto,
            "pool {lanes}: the metrics registry changed the trace export"
        );
    }
}

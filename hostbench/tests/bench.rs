//! The benchmark's own checks, at tiny scale: every workload runs clean
//! and emits every declared metric, the simulated digest repeats across
//! runs, tracing and pool sizes, and a planted wrong oracle expectation
//! is counted as a failed op.

use gamma_bench::alloc::CountingAlloc;
use gamma_hostbench::{
    op_grid, per_layer_names, run, RunConfig, RunResult, Scale, Workload, DEFAULT_SEED, END_TO_END,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One pass over the grid (a zero-second window stops after the first).
fn tiny(workload: Workload, traced: bool) -> RunConfig {
    let mut cfg = RunConfig::new(workload, DEFAULT_SEED);
    cfg.seconds = 0.0;
    cfg.scale = Scale::Tiny;
    cfg.traced = traced;
    cfg.pool = 2;
    cfg
}

fn run_clean(cfg: &RunConfig) -> RunResult {
    let r = run(cfg, |_| {});
    assert_eq!(
        r.fail_ratio(),
        0.0,
        "{}: failed ops {:?}",
        cfg.workload.name(),
        r.failures
    );
    r
}

#[test]
fn every_workload_runs_clean_and_emits_every_metric() {
    for w in Workload::ALL {
        let plain = run_clean(&tiny(w, false));
        assert_eq!(plain.pass_s.len(), 1);
        let names: Vec<&str> = plain.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
        for (n, v) in &plain.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {n} = {v}", w.name());
        }

        let traced = run_clean(&tiny(w, true));
        for name in per_layer_names() {
            let v = traced.metric(&name);
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: {name} missing",
                w.name()
            );
        }
        assert!(traced.metric("core.join.busy_ms").unwrap() > 0.0);
    }
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |name: &str| doc.contains(&format!("\"name\": \"{name}\""));
    let mut names: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
    names.extend(per_layer_names());
    names.push("bench.trace_overhead".into());
    names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
    for n in &names {
        assert!(declared(n), "{n} is not declared in BENCHMARK.json");
    }
    assert_eq!(
        doc.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json declares a metric or workload the benchmark does not emit"
    );
}

#[test]
fn sim_digest_repeats_across_runs_tracing_and_pool_sizes() {
    for w in Workload::ALL {
        let a = run_clean(&tiny(w, false));
        let b = run_clean(&tiny(w, false));
        let traced = run_clean(&tiny(w, true));
        assert_eq!(a.sim_digest, b.sim_digest, "{}: two runs", w.name());
        assert_eq!(a.sim_digest, traced.sim_digest, "{}: traced", w.name());
    }
    let mut serial = tiny(Workload::SkewSpill, false);
    serial.pool = 1;
    let pooled = tiny(Workload::SkewSpill, false);
    assert_eq!(
        run_clean(&serial).sim_digest,
        run_clean(&pooled).sim_digest,
        "skew-spill: pool size 1 vs 2"
    );
}

#[test]
fn the_seed_drives_the_inputs() {
    for w in Workload::ALL {
        let mut other = tiny(w, false);
        other.seed = DEFAULT_SEED + 1;
        assert_ne!(
            run_clean(&tiny(w, false)).sim_digest,
            run_clean(&other).sim_digest,
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_wrong_oracle_expectation_is_a_failed_op() {
    for w in Workload::ALL {
        let cfg = tiny(w, false);
        let r = run(&cfg, |inputs| inputs.expect[0].1.checksum ^= 1);
        assert!(
            r.failed > 0,
            "{}: planted mismatch went unnoticed",
            w.name()
        );
        // A failed op is counted, not fatal: the warm-up op and the whole
        // pass still ran.
        assert_eq!(r.attempted, op_grid(w).len() as u64 + 1, "{}", w.name());
        assert!(
            r.failures.iter().any(|f| f.contains("oracle")),
            "{}: {:?}",
            w.name(),
            r.failures
        );
    }
}

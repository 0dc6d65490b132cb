//! Run one workload of the host benchmark and print its result as one
//! JSON line.
//!
//! ```text
//! gamma-hostbench --workload abprime|skew-spill|serve [--seed N] [--seconds S] [--trace]
//! ```
//!
//! `--trace` needs the `traced` build.

use gamma_bench::alloc::CountingAlloc;
use gamma_hostbench::{render_json, run, RunConfig, Workload, DEFAULT_SEED};

/// Counts allocations for `allocs_per_op` and the per-layer `.allocs`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage(msg: &str) -> ! {
    eprintln!("gamma-hostbench: {msg}");
    eprintln!(
        "usage: gamma-hostbench --workload abprime|skew-spill|serve [--seed N] [--seconds S] [--trace]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        )
    };
    let number = |flag: &str| -> Option<f64> {
        value(flag).map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .unwrap_or_else(|| usage(&format!("{flag} must be a non-negative number")))
        })
    };

    let workload = value("--workload")
        .map(|w| Workload::parse(w).unwrap_or_else(|| usage(&format!("unknown workload {w:?}"))))
        .unwrap_or_else(|| usage("--workload is required"));
    let seed = value("--seed").map_or(DEFAULT_SEED, |s| {
        s.parse()
            .unwrap_or_else(|_| usage("--seed must be an unsigned integer"))
    });
    let mut cfg = RunConfig::new(workload, seed);
    if let Some(s) = number("--seconds") {
        cfg.seconds = s;
    }
    cfg.traced = args.iter().any(|a| a == "--trace");
    if cfg.traced && !cfg!(feature = "traced") {
        usage("--trace needs the build with the `traced` feature");
    }

    let result = run(&cfg, |_| {});
    for f in &result.failures {
        eprintln!("gamma-hostbench: failed op: {f}");
    }
    println!("{}", render_json(&cfg, &result));
}

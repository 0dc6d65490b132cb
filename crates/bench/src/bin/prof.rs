//! Flight-record one `joinABprime` execution.
//!
//! Extracts the point's timing plan, replays it through the serve engine
//! with the gamma-prof flight recorder attached, and writes the sampled
//! time series under `results/`:
//!
//! * `prof-<alg>-r<pct>.json` — line-oriented series document (the shape
//!   Gate 6 of the `regress` binary byte-gates);
//! * `prof-<alg>-r<pct>.csv` — one row per tick, for spreadsheets;
//! * `prof-<alg>-r<pct>-perfetto.json` — the point's Perfetto trace with
//!   the recorder's counter tracks merged in.
//!
//! Usage: `prof [hybrid|grace|simple|sort-merge] [ratio] [scale]
//!              [--tick-us N] [--out-dir DIR]`
//!
//! Everything is virtual time on a fixed sampling tick — two runs (on any
//! executor or pool size) produce byte-identical artifacts, which CI
//! checks with `cmp`.

use gamma_bench::prof::{artifact_stem, render_csv, render_json, solo_profile, ProfRun, TICK_US};
use gamma_bench::Workload;
use gamma_core::query::Algorithm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect::<Vec<_>>()
        .into_iter();
    let alg = match positional.next().as_deref() {
        None | Some("hybrid") => Algorithm::HybridHash,
        Some("grace") => Algorithm::GraceHash,
        Some("simple") => Algorithm::SimpleHash,
        Some("sort-merge" | "sortmerge") => Algorithm::SortMerge,
        Some(other) => {
            eprintln!("unknown algorithm `{other}` (want hybrid|grace|simple|sort-merge)");
            std::process::exit(2);
        }
    };
    let ratio: f64 = positional
        .next()
        .map(|s| s.parse().expect("ratio must be a number"))
        .unwrap_or(0.5);
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    let scale: usize = positional
        .next()
        .map(|s| s.parse().expect("scale must be an integer"))
        .unwrap_or(20_000);
    let mut tick_us = TICK_US;
    if let Some(i) = args.iter().position(|a| a == "--tick-us") {
        tick_us = args[i + 1].parse().expect("tick-us must be an integer");
    }
    assert!(tick_us > 0, "tick-us must be positive");
    let mut out_dir = String::from("results");
    if let Some(i) = args.iter().position(|a| a == "--out-dir") {
        out_dir = args[i + 1].clone();
    }

    let workload = Workload::scaled(scale, scale / 10);
    let run: ProfRun = solo_profile(&workload, alg, ratio, tick_us);

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let stem = format!("{out_dir}/{}", artifact_stem(alg, ratio));
    let json_path = format!("{stem}.json");
    let csv_path = format!("{stem}.csv");
    std::fs::write(&json_path, render_json(&run)).expect("write prof json");
    std::fs::write(&csv_path, render_csv(&run)).expect("write prof csv");

    println!(
        "prof: {} ratio {ratio} scale {scale}: {} series x {} ticks of {tick_us} us (makespan {} us)",
        run.algorithm,
        run.profile.series.len(),
        run.profile.ticks(),
        run.profile.makespan_us,
    );
    println!("series json:   {json_path}");
    println!("series csv:    {csv_path}");

    let merged = gamma_bench::prof::merged_perfetto(&workload, alg, ratio, &run.profile);
    let perfetto_path = format!("{stem}-perfetto.json");
    std::fs::write(&perfetto_path, merged).expect("write merged perfetto json");
    println!("perfetto json: {perfetto_path} (trace spans + counter tracks)");
}

//! # gamma-hostbench — host-time benchmark of the Gamma simulator
//!
//! The simulator's product is virtual time, which the repository's
//! regress gates already pin byte-for-byte. This benchmark measures the
//! other side: the *host* wall time, memory and allocations it takes to
//! produce those virtual numbers. Each workload is a closed host loop —
//! one client, the next op starts when the previous one returns — and
//! every op is checked (oracle result, ledger reconciliation, replay) and
//! folded into a `sim_digest` that a host-only change must leave alone.
//!
//! The untraced run reports the end-to-end metrics; the traced run wraps
//! [`span::Tracer`] spans around the public calls into each layer and
//! reports per-layer busy/self time, allocations and the deterministic
//! work counts of [`JoinReport`].

pub mod span;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gamma_bench::alloc::allocation_count;
use gamma_core::query::{replay_phases, Algorithm, OverflowPolicy};
use gamma_core::{
    run_join_with_phases, ExecConfig, JoinReport, JoinSpec, Machine, MachineConfig, RelationId,
    WorkerPool,
};
use gamma_des::{Counts, SimTime};
use gamma_metrics::Registry;
use gamma_prof::FlightProfile;
use gamma_sched::{engine, explain, Arrivals, EngineConfig, QueryPlan, ServeConfig, ServeResult};
use gamma_trace::TraceSink;
use gamma_wisconsin::{
    join_abprime, load_hashed, oracle_join, OracleExpect, WisconsinGen, WisconsinRow,
};

use span::{Stage, Tracer};

/// The seed a run uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1989;

/// Set-up runs this many times per run, spread over the measured window;
/// `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Flight-recorder tick of the `serve` workload (gamma-prof's default).
pub const TICK_US: u64 = gamma_prof::DEFAULT_TICK_US;

/// Trace-sink ring capacity installed for each `serve` op.
const TRACE_EVENTS: usize = 1 << 16;

/// End-to-end metrics, reported by every run.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "op_ms.p50",
    "op_ms.p90",
    "sim_tuples_per_s",
    "peak_rss_mb",
    "allocs_per_op",
];

/// Layers timed by spans in the traced run, each reported as
/// `<layer>.busy_ms`, `.self_ms`, `.calls` and `.allocs`.
pub const LAYERS: [&str; 11] = [
    "wisconsin.gen",
    "wisconsin.oracle",
    "wisconsin.load",
    "core.join",
    "des.replay",
    "sched.plan",
    "sched.engine",
    "prof.record",
    "sched.explain",
    "metrics.reconcile",
    "metrics.render",
];

/// Deterministic work counts (summed over one pass of the op grid).
pub const WORK: [&str; 17] = [
    "core.tuples_in",
    "hash_table.inserts",
    "hash_table.probes",
    "hash_table.evictions",
    "hash_table.match_ratio",
    "wiss.pages_read",
    "wiss.pages_written",
    "wiss.comparisons",
    "net.packets",
    "net.ring_bytes",
    "net.control_msgs",
    "net.shortcircuit_ratio",
    "bitfilter.drops",
    "spill.pages_spilled",
    "spill.pages_restored",
    "overflow.passes",
    "overflow.bnl",
];

/// Layers only a traced op calls: the DES replay check and, on `serve`,
/// the bare template join (for `obs.overhead`) and the bare engine run
/// (for `prof.record`). Their time is taken out of a traced run's pass
/// times, so that `bench.trace_overhead` compares the same work.
pub const TRACE_ONLY: [&str; 3] = ["des.replay", "core.join.bare", "sched.engine"];

/// Host worker-pool counters (gamma-core `hostprof`), per op.
pub const POOL: [&str; 5] = [
    "core.pool.jobs",
    "core.pool.busy_ms",
    "core.pool.owner_busy_ms",
    "core.pool.cv_sleeps",
    "core.pool.stale_ratio",
];

/// Every per-layer metric the traced run reports itself (the driver adds
/// `bench.trace_overhead`, which compares two runs).
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = LAYERS
        .iter()
        .flat_map(|l| ["busy_ms", "self_ms", "calls", "allocs"].map(|m| format!("{l}.{m}")))
        .collect();
    names.push("bench.op.self_ms".into());
    names.extend(WORK.iter().chain(&POOL).map(|s| s.to_string()));
    names.push("obs.overhead".into());
    names
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's joinABprime grid (data plane and loading).
    Abprime,
    /// Sharp-skew Hybrid under both overflow machineries, pooled.
    SkewSpill,
    /// Open-loop serving with every observer installed.
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Abprime, Workload::SkewSpill, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Abprime => "abprime",
            Workload::SkewSpill => "skew-spill",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// `(|A|, |Bprime|)` of a workload at a scale.
fn sizes(w: Workload, scale: Scale) -> (usize, usize) {
    match (w, scale) {
        (Workload::Abprime, Scale::Full) => (100_000, 10_000),
        (Workload::SkewSpill, Scale::Full) => (10_000, 1_000),
        (Workload::Serve, Scale::Full) => (4_000, 400),
        (_, Scale::Tiny) => (2_000, 200),
    }
}

/// Queries served per `serve` rate point.
fn serve_queries(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 24,
        Scale::Tiny => 4,
    }
}

/// Offered loads of the `serve` rate points, as fractions of `1/D_max`.
pub const SERVE_LOADS: [f64; 3] = [0.6, 1.0, 1.4];

/// Memory ratio of the `serve` template. At 400 inner tuples over 8
/// nodes the per-node share of a hash partition varies by about 14 %, so
/// at ratio 1.0 about one seed in four overflows the hash table and
/// changes the template's shape; this ratio leaves room for that.
pub const SERVE_RATIO: f64 = 1.5;

/// Memory ratios of the `abprime` grid.
pub const ABPRIME_RATIOS: [f64; 3] = [1.0, 0.5, 0.2];

/// Memory ratios of the `skew-spill` grid.
pub const SKEW_RATIOS: [f64; 4] = [1.0, 0.6, 0.5, 0.2];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured window; the run stops after the first whole pass over the
    /// op grid that ends past it.
    pub seconds: f64,
    pub traced: bool,
    /// Pool lanes of the pooled executor (`skew-spill` only). The binary
    /// always runs [`host_threads`]; tests compare other sizes.
    pub pool: usize,
    /// The binary always runs [`Scale::Full`]; tests run [`Scale::Tiny`].
    pub scale: Scale,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64) -> Self {
        RunConfig {
            workload,
            seed,
            seconds: 10.0,
            traced: false,
            pool: host_threads(),
            scale: Scale::Full,
        }
    }

    /// The executor the workload's joins run on.
    pub fn executor(&self) -> String {
        match self.workload {
            Workload::SkewSpill => format!("pooled({})", self.pool.max(1)),
            _ => "serial".into(),
        }
    }
}

/// `std::thread::available_parallelism`, or 1.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One join of a grid.
#[derive(Debug, Clone, Copy)]
pub struct JoinOp {
    pub algorithm: Algorithm,
    pub ratio: f64,
    /// Join attribute, on both sides.
    pub attr: &'static str,
    pub filter: bool,
    pub policy: OverflowPolicy,
    /// Split-table refinement plus dynamic spill (the robust Hybrid).
    pub robust: bool,
}

impl JoinOp {
    fn label(&self) -> String {
        format!(
            "{} {}⋈{} ratio {}{}",
            self.algorithm.name(),
            self.attr,
            self.attr,
            self.ratio,
            if self.robust { " robust" } else { "" }
        )
    }
}

/// One op of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Join(JoinOp),
    /// One `serve` rate point.
    Serve {
        rate_index: usize,
        load: f64,
    },
}

/// The op grid of one pass over a workload.
pub fn op_grid(w: Workload) -> Vec<Op> {
    let join = |algorithm, ratio, attr, policy, robust| {
        Op::Join(JoinOp {
            algorithm,
            ratio,
            attr,
            filter: w == Workload::Abprime,
            policy,
            robust,
        })
    };
    match w {
        Workload::Abprime => ["unique1", "unique2"]
            .into_iter()
            .flat_map(|attr| {
                [
                    Algorithm::SortMerge,
                    Algorithm::SimpleHash,
                    Algorithm::GraceHash,
                    Algorithm::HybridHash,
                ]
                .into_iter()
                .flat_map(move |alg| {
                    ABPRIME_RATIOS.map(|r| join(alg, r, attr, OverflowPolicy::Pessimistic, false))
                })
            })
            .collect(),
        Workload::SkewSpill => [false, true]
            .into_iter()
            .flat_map(|robust| {
                SKEW_RATIOS.map(|r| {
                    join(
                        Algorithm::HybridHash,
                        r,
                        "normal",
                        OverflowPolicy::Optimistic,
                        robust,
                    )
                })
            })
            .collect(),
        Workload::Serve => SERVE_LOADS
            .iter()
            .enumerate()
            .map(|(rate_index, &load)| Op::Serve { rate_index, load })
            .collect(),
    }
}

/// The `serve` template: one solo run of the query every rate point
/// serves, and the admission and rate figures derived from it.
#[derive(Debug, Clone)]
pub struct ServeTemplate {
    pub queries: u32,
    pub budget_pages: usize,
    /// Analytical throughput bound `1 / D_max`, queries per second.
    pub bound_qps: f64,
}

/// Generated relations and everything derived from them before timing.
pub struct Inputs {
    pub seed: u64,
    pub a: Vec<WisconsinRow>,
    pub bprime: Vec<WisconsinRow>,
    /// Oracle expectation per join attribute the workload uses.
    pub expect: Vec<(&'static str, OracleExpect)>,
    pub serve: Option<ServeTemplate>,
}

impl Inputs {
    /// Generate the workload's relations from `seed`, compute the oracle
    /// expectations and, for `serve`, extract the template plan.
    pub fn build(w: Workload, seed: u64, scale: Scale, t: &Tracer) -> Inputs {
        let (a_rows, b_rows) = sizes(w, scale);
        let gen = WisconsinGen::new(seed);
        let (a, bprime) = t.span("wisconsin.gen", || {
            let a = match w {
                // Table 3-style sharp skew: `normal` drawn at sd = n/500.
                Workload::SkewSpill => gen.relation_nu(a_rows, 0, a_rows as f64 / 500.0),
                _ => gen.relation(a_rows, 0),
            };
            let bprime = gen.sample(&a, b_rows, 1);
            (a, bprime)
        });
        let attrs: &[&'static str] = match w {
            Workload::Abprime => &["unique1", "unique2"],
            Workload::SkewSpill => &["normal"],
            Workload::Serve => &["unique2"],
        };
        let expect = attrs
            .iter()
            .map(|&attr| {
                let e = t.span("wisconsin.oracle", || {
                    oracle_join(&bprime, &a, attr, attr, None, None)
                });
                (attr, e)
            })
            .collect();
        let mut inputs = Inputs {
            seed,
            a,
            bprime,
            expect,
            serve: None,
        };
        if w == Workload::Serve {
            let (mut m, spec) = inputs.serve_machine(t);
            let (plan, report) = t.span("sched.plan", || gamma_sched::extract(&mut m, &spec));
            inputs
                .check("unique2", &report)
                .unwrap_or_else(|e| panic!("serve template: {e}"));
            inputs.serve = Some(ServeTemplate {
                queries: serve_queries(scale),
                budget_pages: plan.max_peak_pages() * gamma_bench::serve::DEFAULT_BUDGET_MULTIPLIER,
                bound_qps: 1.0 / report.demand.bottleneck(),
            });
        }
        inputs
    }

    /// Check a join result against the oracle expectation for `attr`.
    pub fn check(&self, attr: &str, report: &JoinReport) -> Result<(), String> {
        let (_, want) = self
            .expect
            .iter()
            .find(|(a, _)| *a == attr)
            .ok_or_else(|| format!("no oracle expectation for {attr}"))?;
        if (report.result_tuples, report.result_checksum) != (want.tuples, want.checksum) {
            return Err(format!(
                "result {} tuples / checksum {:#x}, oracle {} / {:#x}",
                report.result_tuples, report.result_checksum, want.tuples, want.checksum
            ));
        }
        Ok(())
    }

    /// A fresh local 8-disk machine with `A` and `Bprime` hash-declustered
    /// on `unique1`, as in the paper.
    fn load(&self, t: &Tracer, exec: &ExecConfig) -> (Machine, RelationId, RelationId) {
        t.span("wisconsin.load", || {
            let mut m = Machine::new(MachineConfig::local_8()).with_exec(exec.clone());
            let a = load_hashed(&mut m, "A", &self.a, "unique1");
            let b = load_hashed(&mut m, "Bprime", &self.bprime, "unique1");
            (m, a, b)
        })
    }

    /// A loaded machine and the `serve` template spec: non-HPJA Hybrid
    /// (`unique2 ⋈ unique2`) at [`SERVE_RATIO`], serial executor.
    fn serve_machine(&self, t: &Tracer) -> (Machine, JoinSpec) {
        let (m, a, b) = self.load(t, &ExecConfig::serial());
        let spec = join_abprime(
            Algorithm::HybridHash,
            b,
            a,
            "unique2",
            "unique2",
            memory_bytes(&m, b, SERVE_RATIO),
        );
        (m, spec)
    }
}

fn memory_bytes(m: &Machine, inner: RelationId, ratio: f64) -> u64 {
    ((m.relation(inner).data_bytes as f64) * ratio)
        .ceil()
        .max(1.0) as u64
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn counts_words(c: &Counts) -> [u64; 15] {
    [
        c.pages_read,
        c.pages_written,
        c.packets_sent,
        c.packets_recv,
        c.msgs_shortcircuit,
        c.tuples_in,
        c.tuples_out,
        c.hash_inserts,
        c.hash_probes,
        c.comparisons,
        c.filter_drops,
        c.control_msgs,
        c.overflow_evictions,
        c.pages_spilled,
        c.pages_restored,
    ]
}

/// Deterministic work counts summed from join reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub counts: Counts,
    pub result_tuples: u64,
    pub ring_bytes: u64,
    pub overflow_passes: u64,
    pub bnl: u64,
}

impl Work {
    fn add_report(&mut self, r: &JoinReport) {
        self.add(&Work {
            counts: r.total.counts,
            result_tuples: r.result_tuples,
            ring_bytes: r.total.ring_bytes,
            overflow_passes: u64::from(r.overflow_passes),
            bnl: u64::from(r.bnl_fallback),
        });
    }

    fn add(&mut self, o: &Work) {
        self.counts += o.counts;
        self.result_tuples += o.result_tuples;
        self.ring_bytes += o.ring_bytes;
        self.overflow_passes += o.overflow_passes;
        self.bnl += o.bnl;
    }

    /// Values of [`WORK`], in order.
    fn metrics(&self) -> [f64; 17] {
        let c = &self.counts;
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        [
            c.tuples_in as f64,
            c.hash_inserts as f64,
            c.hash_probes as f64,
            c.overflow_evictions as f64,
            ratio(self.result_tuples, c.hash_probes),
            c.pages_read as f64,
            c.pages_written as f64,
            c.comparisons as f64,
            c.packets_sent as f64,
            self.ring_bytes as f64,
            c.control_msgs as f64,
            ratio(c.msgs_shortcircuit, c.msgs_shortcircuit + c.packets_sent),
            c.filter_drops as f64,
            c.pages_spilled as f64,
            c.pages_restored as f64,
            self.overflow_passes as f64,
            self.bnl as f64,
        ]
    }
}

/// What one successful op hands back to the driver loop.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    /// Hash of the op's virtual responses, result checksums and ledger
    /// counts; must repeat exactly on every pass.
    pub digest: u64,
    pub work: Work,
}

impl OpOut {
    fn new() -> Self {
        OpOut {
            digest: Fnv::new().0,
            work: Work::default(),
        }
    }

    fn add_report(&mut self, r: &JoinReport) {
        self.work.add_report(r);
        let mut h = Fnv(self.digest);
        h.word(r.response.as_us());
        h.word(r.result_tuples);
        h.word(r.result_checksum);
        for v in counts_words(&r.total.counts) {
            h.word(v);
        }
        self.digest = h.0;
    }

    fn add_words(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut h = Fnv(self.digest);
        for w in words {
            h.word(w);
        }
        self.digest = h.0;
    }
}

/// Run one op on a freshly loaded machine and check it.
pub fn run_op(inputs: &Inputs, op: &Op, exec: &ExecConfig, t: &Tracer) -> Result<OpOut, String> {
    match op {
        Op::Join(j) => join_op(inputs, j, exec, t).map_err(|e| format!("{}: {e}", j.label())),
        Op::Serve { rate_index, load } => serve_op(inputs, *rate_index, *load, t)
            .map_err(|e| format!("serve rate {rate_index} ({load}x): {e}")),
    }
}

fn join_op(inputs: &Inputs, op: &JoinOp, exec: &ExecConfig, t: &Tracer) -> Result<OpOut, String> {
    let (mut m, a, b) = inputs.load(t, exec);
    let spec = join_abprime(
        op.algorithm,
        b,
        a,
        op.attr,
        op.attr,
        memory_bytes(&m, b, op.ratio),
    )
    .with_filter(op.filter)
    .with_policy(op.policy)
    .with_refinement(op.robust)
    .with_dynamic_spill(op.robust);
    let (report, phases) = t.span("core.join", || run_join_with_phases(&mut m, &spec));
    if t.enabled() {
        replay_check(&m, &phases, &report, t)?;
    }
    inputs.check(op.attr, &report)?;
    let mut out = OpOut::new();
    out.add_report(&report);
    Ok(out)
}

/// Re-run the DES replay on a join's phase records; it must reproduce
/// the reported response.
fn replay_check(
    m: &Machine,
    phases: &[gamma_core::PhaseRecord],
    report: &JoinReport,
    t: &Tracer,
) -> Result<(), String> {
    let (response, _) = t.span("des.replay", || replay_phases(m, phases));
    if response != report.response {
        return Err(format!(
            "replay gave {} us, the join reported {} us",
            response.as_us(),
            report.response.as_us()
        ));
    }
    Ok(())
}

/// The arrival-stream case of a rate point: derived from the run's seed,
/// so another seed serves other arrivals.
pub fn arrival_case(seed: u64, rate_index: usize) -> u64 {
    (seed << 8) ^ rate_index as u64
}

/// Installs a fresh metrics registry and trace sink; removes them again
/// when dropped, so a panicking op leaves no observer behind.
struct Observers;

impl Observers {
    fn install() -> Self {
        gamma_metrics::install(Registry::new());
        gamma_trace::install(TraceSink::new(TRACE_EVENTS));
        Observers
    }

    fn take(self) -> (Option<Registry>, Option<TraceSink>) {
        (gamma_metrics::take(), gamma_trace::take())
    }
}

impl Drop for Observers {
    fn drop(&mut self) {
        let _ = gamma_metrics::take();
        let _ = gamma_trace::take();
    }
}

/// The serve settings of one rate point.
fn serve_config(seed: u64, tpl: &ServeTemplate, rate_index: usize, load: f64) -> ServeConfig {
    let offered_qps = tpl.bound_qps * load;
    ServeConfig {
        name: "hostbench-serve".into(),
        case: arrival_case(seed, rate_index),
        mean_interarrival: SimTime::from_us((1e6 / offered_qps).round().max(1.0) as u64),
        queries: tpl.queries,
        pool_budget_pages: tpl.budget_pages,
        backlog_window: None,
    }
}

fn serve_op(inputs: &Inputs, rate_index: usize, load: f64, t: &Tracer) -> Result<OpOut, String> {
    let tpl = inputs.serve.as_ref().ok_or("serve template missing")?;
    let cfg = serve_config(inputs.seed, tpl, rate_index, load);
    let (mut m, spec) = inputs.serve_machine(t);

    let observers = Observers::install();
    let served = if t.enabled() {
        serve_traced(&mut m, &spec, &cfg, t)?
    } else {
        gamma_sched::serve_recorded(&mut m, &spec, &cfg, TICK_US)
    };
    let (registry, sink) = observers.take();
    let (registry, sink) = (
        registry.ok_or("metrics registry vanished")?,
        sink.ok_or("trace sink vanished")?,
    );
    let (result, profile) = served;

    let solo = &result.solo;
    inputs.check("unique2", solo)?;
    for (i, r) in result.reports.iter().enumerate() {
        if (r.result_checksum, r.response) != (solo.result_checksum, solo.response) {
            return Err(format!("instance {i} diverged from the template"));
        }
    }
    let outcome = &result.outcome;
    if outcome.completed() != tpl.queries as usize {
        return Err(format!(
            "{} of {} queries completed",
            outcome.completed(),
            tpl.queries
        ));
    }

    let mut aggregate = solo.clone();
    aggregate.total = result.total_usage();
    let errs = t.span("metrics.reconcile", || {
        gamma_bench::metrics::reconcile(&registry, &aggregate)
    });
    if !errs.is_empty() {
        return Err(format!("metrics reconciliation: {}", errs.join("; ")));
    }
    let text = t.span("sched.explain", || explain::render(outcome, solo.response));
    for (q, (timing, ex)) in outcome.queries.iter().zip(&outcome.explains).enumerate() {
        let after_admission = timing.finished.zip(timing.admitted).map(|(f, a)| f - a);
        if after_admission != Some(ex.explained_total()) {
            return Err(format!("EXPLAIN of query {q} does not sum to its response"));
        }
    }
    let (json, prom) = t.span("metrics.render", || {
        (
            gamma_metrics::json::render(&registry),
            gamma_metrics::prometheus::render(&registry),
        )
    });
    if text.is_empty() || json.is_empty() || prom.is_empty() || sink.is_empty() {
        return Err("an observer recorded nothing".into());
    }
    if profile.tick_us != TICK_US || profile.makespan_us != outcome.makespan.as_us() {
        return Err("flight profile does not cover the served timeline".into());
    }

    if t.enabled() {
        // Sinks removed: the same template join bare, for `obs.overhead`,
        // and its DES replay.
        let (report, phases) = t.span("core.join.bare", || run_join_with_phases(&mut m, &spec));
        replay_check(&m, &phases, &report, t)?;
    }

    let mut out = OpOut::new();
    for r in &result.reports {
        out.add_report(r);
    }
    out.add_words(outcome.queries.iter().flat_map(|q| {
        [
            q.arrival.as_us(),
            q.admitted.map_or(u64::MAX, SimTime::as_us),
            q.finished.map_or(u64::MAX, SimTime::as_us),
        ]
    }));
    out.add_words([outcome.makespan.as_us(), profile.ticks() as u64]);
    Ok(out)
}

/// `gamma_sched::serve_recorded`, composed from its public parts so each
/// layer gets its own span: the physical joins (`core.join`), the engine
/// alone (`sched.engine`) and the engine with the flight recorder
/// attached (`prof.record`, reported net of `sched.engine`).
///
/// This is a copy of `gamma_sched`'s private `serve_inner` and must track
/// it step for step, so that the traced run times the work the untraced
/// run does; `serve_traced_tracks_serve_recorded` pins its results and
/// observer output to the library's.
fn serve_traced(
    m: &mut Machine,
    spec: &JoinSpec,
    cfg: &ServeConfig,
    t: &Tracer,
) -> Result<(ServeResult, FlightProfile), String> {
    let mut reports = Vec::with_capacity(cfg.queries as usize);
    let mut plan = None;
    for qid in 1..=cfg.queries {
        m.exchange.set_query(qid);
        gamma_trace::set_query(qid);
        let (report, phases) = t.span("core.join", || run_join_with_phases(m, spec));
        if plan.is_none() {
            let bw = m.cfg.cost.ring.bandwidth_bytes_per_sec;
            plan = Some(QueryPlan::from_phases(
                &phases,
                m.pool_peaks(),
                report.response,
                bw,
            ));
        }
        reports.push(report);
    }
    m.exchange.set_query(0);
    gamma_trace::set_query(0);
    let plan = plan.ok_or("no query ran")?;

    let arrivals =
        Arrivals::new(&cfg.name, cfg.case, cfg.mean_interarrival).take_times(cfg.queries);
    let engine_cfg = EngineConfig {
        nodes: m.nodes(),
        pool_budget_pages: cfg.pool_budget_pages,
        backlog_window: cfg.backlog_window,
    };
    let plans = vec![plan.clone(); cfg.queries as usize];
    let plans_again = plans.clone();
    let bare = t.span("sched.engine", || {
        engine::run(plans_again, &arrivals, &engine_cfg)
    });
    let (outcome, profile) = t.span("prof.record", || {
        engine::run_recorded(plans, &arrivals, &engine_cfg, Some(TICK_US))
    });
    if bare.queries != outcome.queries || bare.makespan != outcome.makespan {
        return Err("the flight recorder changed the served timeline".into());
    }
    let solo = reports[0].clone();
    let result = ServeResult {
        solo,
        plan,
        reports,
        outcome,
    };
    Ok((result, profile.ok_or("recorder was not attached")?))
}

/// Host worker-pool counters at one instant (zeros unless built with the
/// `traced` feature).
#[derive(Debug, Clone, Copy, Default)]
struct PoolCounters {
    jobs: u64,
    job_ns: u64,
    owner_busy_ns: u64,
    cv_sleeps: u64,
    enqueued: u64,
    stale: u64,
}

impl PoolCounters {
    fn now() -> Self {
        #[cfg(feature = "traced")]
        {
            let p = gamma_core::exec::pool::hostprof::snapshot();
            PoolCounters {
                jobs: p.jobs,
                job_ns: p.job_ns,
                owner_busy_ns: p.owner_busy_ns,
                cv_sleeps: p.cv_sleeps,
                enqueued: p.tickets_enqueued,
                stale: p.stale_tickets,
            }
        }
        #[cfg(not(feature = "traced"))]
        PoolCounters::default()
    }

    fn since(self, before: PoolCounters) -> PoolCounters {
        PoolCounters {
            jobs: self.jobs - before.jobs,
            job_ns: self.job_ns - before.job_ns,
            owner_busy_ns: self.owner_busy_ns - before.owner_busy_ns,
            cv_sleeps: self.cv_sleeps - before.cv_sleeps,
            enqueued: self.enqueued - before.enqueued,
            stale: self.stale - before.stale,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Hash of every op's digest over one pass of the grid.
    pub sim_digest: u64,
    /// Measured ops, and the wall time of each whole pass over the grid
    /// (in a traced run, net of the [`TRACE_ONLY`] layers).
    pub ops: u64,
    pub pass_s: Vec<f64>,
    /// Metric name → value: the end-to-end metrics, plus the per-layer
    /// ones when traced.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Failure bookkeeping of the driver loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Run one op under `catch_unwind`; a panic or a failed check counts
    /// as a failed op.
    fn run(&mut self, inputs: &Inputs, op: &Op, exec: &ExecConfig, t: &Tracer) -> Option<OpOut> {
        self.attempted += 1;
        let depth = t.depth();
        let out = catch_unwind(AssertUnwindSafe(|| {
            t.span("bench.op", || run_op(inputs, op, exec, t))
        }));
        t.unwind_to(depth);
        let err = match out {
            Ok(Ok(o)) => return Some(o),
            Ok(Err(e)) => e,
            Err(p) => format!("panic: {}", gamma_core::exec::pool::panic_message(&*p)),
        };
        self.fail(err);
        None
    }

    fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(err);
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], num: usize, den: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * num).div_ceil(den).max(1);
    sorted[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up, warm up with one op, then run whole passes over the op grid
/// until `cfg.seconds` have passed, repeating the set-up between passes;
/// report what was measured.
///
/// `tamper` may edit the inputs after set-up (tests plant wrong oracle
/// expectations through it).
pub fn run(cfg: &RunConfig, tamper: impl FnOnce(&mut Inputs)) -> RunResult {
    let t = Tracer::new(cfg.traced);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let set_up = |setup_s: &mut Vec<f64>| {
        t.begin(Stage::Setup);
        let start = Instant::now();
        let inputs = Inputs::build(cfg.workload, cfg.seed, cfg.scale, &t);
        setup_s.push(start.elapsed().as_secs_f64());
        inputs
    };
    let mut inputs = set_up(&mut setup_s);
    tamper(&mut inputs);

    let exec = match cfg.workload {
        Workload::SkewSpill => ExecConfig::pooled(Arc::new(WorkerPool::new(cfg.pool))),
        _ => ExecConfig::serial(),
    };
    let grid = op_grid(cfg.workload);
    let mut tally = Tally::default();

    t.begin(Stage::Warmup);
    tally.run(&inputs, &grid[0], &exec, &t);

    let mut digests: Vec<Option<u64>> = Vec::with_capacity(grid.len());
    let mut pass_work = Work::default();
    let mut latencies_ms = Vec::new();
    let mut allocs = 0;
    let pool_before = PoolCounters::now();
    let start = Instant::now();
    let mut pass_s = Vec::new();
    loop {
        let first_pass = pass_s.is_empty();
        let allocs_before = allocation_count();
        let trace_only_before = trace_only_ns(&t);
        let pass_start = Instant::now();
        for (i, op) in grid.iter().enumerate() {
            t.begin(Stage::Measure);
            let op_start = Instant::now();
            let out = tally.run(&inputs, op, &exec, &t);
            latencies_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
            let Some(out) = out else {
                if first_pass {
                    digests.push(None);
                }
                continue;
            };
            if first_pass {
                digests.push(Some(out.digest));
                pass_work.add(&out.work);
            } else if digests[i].is_some_and(|d| d != out.digest) {
                tally.fail(format!("op {i}: simulated results changed between passes"));
            }
        }
        let trace_only_s = (trace_only_ns(&t) - trace_only_before) as f64 / 1e9;
        pass_s.push(pass_start.elapsed().as_secs_f64() - trace_only_s);
        allocs += allocation_count() - allocs_before;
        // The remaining set-up repetitions run between passes, spread
        // evenly over the window, so `setup_s` samples the whole run
        // rather than the host's state at its start.
        let window_share = start.elapsed().as_secs_f64() / cfg.seconds.max(f64::MIN_POSITIVE);
        while setup_s.len() < SETUP_REPEATS
            && window_share * SETUP_REPEATS as f64 >= setup_s.len() as f64
        {
            set_up(&mut setup_s);
        }
        if window_share >= 1.0 {
            break;
        }
    }
    let pool = PoolCounters::now().since(pool_before);
    while setup_s.len() < SETUP_REPEATS {
        set_up(&mut setup_s);
    }
    setup_s.sort_by(f64::total_cmp);

    let ops = latencies_ms.len() as u64;
    latencies_ms.sort_by(f64::total_cmp);
    // Throughput from the median pass, so a burst of host contention in
    // one pass does not move it; every pass does the same work.
    let mut sorted_pass_s = pass_s.clone();
    sorted_pass_s.sort_by(f64::total_cmp);
    let median_pass_s = percentile(&sorted_pass_s, 1, 2);
    let mut metrics: Vec<(String, f64)> = vec![
        ("setup_s".into(), setup_s[setup_s.len() / 2]),
        ("ops_per_s".into(), grid.len() as f64 / median_pass_s),
        ("op_ms.p50".into(), percentile(&latencies_ms, 1, 2)),
        ("op_ms.p90".into(), percentile(&latencies_ms, 9, 10)),
        (
            "sim_tuples_per_s".into(),
            pass_work.counts.tuples_in as f64 / median_pass_s,
        ),
        ("peak_rss_mb".into(), peak_rss_mb()),
        ("allocs_per_op".into(), allocs as f64 / ops as f64),
    ];
    if cfg.traced {
        metrics.extend(per_layer(&t, ops, SETUP_REPEATS as u64, &pass_work, pool));
    }

    let mut digest = Fnv::new();
    for d in &digests {
        digest.word(d.unwrap_or(0));
    }
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        sim_digest: digest.0,
        ops,
        pass_s,
        metrics,
    }
}

/// Measured busy time of the [`TRACE_ONLY`] layers so far.
fn trace_only_ns(t: &Tracer) -> u64 {
    TRACE_ONLY
        .iter()
        .map(|l| t.totals(Stage::Measure, l).busy_ns)
        .sum()
}

/// The traced run's per-layer metrics. Span figures are per measured op
/// for layers the ops call, and per set-up repetition for the set-up-only
/// layers (generation, oracle, plan extraction); work counts are one pass
/// of the grid; pool counters are per op.
fn per_layer(
    t: &Tracer,
    ops: u64,
    setups: u64,
    work: &Work,
    pool: PoolCounters,
) -> Vec<(String, f64)> {
    let layer = |name: &str| {
        let measured = t.totals(Stage::Measure, name);
        if measured.calls > 0 {
            (measured, ops)
        } else {
            (t.totals(Stage::Setup, name), setups)
        }
    };
    let ms = |ns: u64, n: u64| ns as f64 / 1e6 / n.max(1) as f64;
    let mut out = Vec::new();
    for name in LAYERS {
        let (mut tot, n) = layer(name);
        if name == "prof.record" {
            // The recorder's cost: the recorded engine run minus the bare
            // engine run on the same plans and arrivals.
            let (engine, _) = layer("sched.engine");
            tot.busy_ns = tot.busy_ns.saturating_sub(engine.busy_ns);
            tot.self_ns = tot.self_ns.saturating_sub(engine.self_ns);
            tot.allocs = tot.allocs.saturating_sub(engine.allocs);
        }
        out.push((format!("{name}.busy_ms"), ms(tot.busy_ns, n)));
        out.push((format!("{name}.self_ms"), ms(tot.self_ns, n)));
        out.push((format!("{name}.calls"), tot.calls as f64 / n.max(1) as f64));
        out.push((
            format!("{name}.allocs"),
            tot.allocs as f64 / n.max(1) as f64,
        ));
    }
    let (op, _) = layer("bench.op");
    out.push(("bench.op.self_ms".into(), ms(op.self_ns, ops)));
    out.extend(WORK.iter().map(|s| s.to_string()).zip(work.metrics()));
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    let stale_ratio = if pool.enqueued == 0 {
        0.0
    } else {
        pool.stale as f64 / pool.enqueued as f64
    };
    out.extend(POOL.iter().map(|s| s.to_string()).zip([
        per_op(pool.jobs),
        ms(pool.job_ns, ops),
        ms(pool.owner_busy_ns, ops),
        per_op(pool.cv_sleeps),
        stale_ratio,
    ]));
    // Observer overhead: the template join with the metrics and trace
    // sinks installed, over the same join bare (`serve` only).
    let (observed, _) = layer("core.join");
    let (bare, _) = layer("core.join.bare");
    let mean = |l: span::LayerTotals| l.busy_ns as f64 / l.calls.max(1) as f64;
    let overhead = if bare.calls == 0 {
        0.0
    } else {
        mean(observed) / mean(bare)
    };
    out.push(("obs.overhead".into(), overhead));
    out
}

/// Render a run as one JSON object: envelope, counts and metrics.
pub fn render_json(cfg: &RunConfig, r: &RunResult) -> String {
    let features = if cfg!(feature = "traced") {
        "[\"default\", \"traced\"]"
    } else {
        "[\"default\"]"
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", json_number(*v)))
        .collect();
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"executor\": \"{}\", \"pool_size\": {}, \"nproc\": {}, \"profile\": \"{profile}\", \"features\": {features}, \"attempted\": {}, \"failed\": {}, \"fail_ratio\": {}, \"failures\": [{}], \"ops\": {}, \"pass_s\": [{}], \"sim_digest\": \"{:016x}\", \"metrics\": {{{}}}}}",
        cfg.workload.name(),
        cfg.seed,
        json_number(cfg.seconds),
        cfg.traced,
        cfg.executor(),
        if cfg.workload == Workload::SkewSpill { cfg.pool.max(1) } else { 1 },
        host_threads(),
        r.attempted,
        r.failed,
        json_number(r.fail_ratio()),
        failures.join(", "),
        r.ops,
        r.pass_s
            .iter()
            .map(|&v| json_number(v))
            .collect::<Vec<_>>()
            .join(", "),
        r.sim_digest,
        metrics.join(", "),
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run's copy of `serve_inner` serves exactly what the
    /// library serves: same results, flight profile and observer output.
    #[test]
    fn serve_traced_tracks_serve_recorded() {
        let t = Tracer::new(false);
        let inputs = Inputs::build(Workload::Serve, DEFAULT_SEED, Scale::Tiny, &t);
        let tpl = inputs.serve.as_ref().expect("serve template");
        for (rate_index, &load) in SERVE_LOADS.iter().enumerate() {
            let cfg = serve_config(inputs.seed, tpl, rate_index, load);
            let observed =
                |serve: &dyn Fn(&mut Machine, &JoinSpec) -> (ServeResult, FlightProfile)| {
                    let (mut m, spec) = inputs.serve_machine(&t);
                    let observers = Observers::install();
                    let served = serve(&mut m, &spec);
                    let (registry, sink) = observers.take();
                    (served, registry.expect("registry"), sink.expect("sink"))
                };
            let (lib, lib_registry, lib_sink) =
                observed(&|m, spec| gamma_sched::serve_recorded(m, spec, &cfg, TICK_US));
            let (copy, copy_registry, copy_sink) =
                observed(&|m, spec| serve_traced(m, spec, &cfg, &t).expect("serve_traced"));
            assert_eq!(
                format!("{:?}", copy.0),
                format!("{:?}", lib.0),
                "rate {rate_index}"
            );
            assert_eq!(copy.1, lib.1, "rate {rate_index}: flight profile");
            assert_eq!(
                gamma_metrics::json::render(&copy_registry),
                gamma_metrics::json::render(&lib_registry),
                "rate {rate_index}: metrics"
            );
            assert!(
                copy_sink.events().eq(lib_sink.events()),
                "rate {rate_index}: trace"
            );
        }
    }
}

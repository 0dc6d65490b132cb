//! Consumer-side join stages and Simple-hash overflow resolution.
//!
//! Every hash-based join funnels through a set of per-node [`JoinNode`]
//! consumer states driven by the executor: one [`JoinHashTable`] per join
//! process (the `Build`/`Probe` stages), plus each node's overflow spools,
//! bucket-forming writers (`BucketSpill`), sort-merge partition sinks, and
//! result store operator. Producers route tuples to these consumers as
//! tagged exchange messages; an *absorb* step drains each node's inbox and
//! applies the messages.
//!
//! Key behaviours implemented exactly as the paper describes:
//!
//! * overflow files `R'_i` / `S'_i` of join site *i* live **whole on one
//!   disk** (the disk paired with the site), different sites on different
//!   disks;
//! * the *outer* relation's tuples destined for an overflowed range are
//!   diverted at the **source** (the split table is augmented with the `h'`
//!   cutoffs via [`ProbeSnapshot`]) and spooled directly to `S'`, never
//!   visiting the join site;
//! * recursive passes re-split the aggregate overflow partitions across
//!   *all* join sites **with a fresh hash function**, which is what turns
//!   HPJA joins into non-HPJA joins during overflow processing (§4.1);
//! * bit filters are applied only to tuples that will actually probe this
//!   pass — overflow-bound tuples are filtered by the next pass's filters,
//!   preserving the no-false-negative guarantee;
//! * a block-nested-loops fallback guards against pathological inputs on
//!   which hash partitioning cannot make progress (every tuple carrying
//!   the same join value).

use std::collections::BTreeMap;

use gamma_des::SimTime;
use gamma_net::Msg;
use gamma_wiss::{FileId, HeapWriter};

use crate::bitfilter::BitFilter;
use crate::exec::{self, control, run_step, StepCtx};
use crate::hash::{hash_u32, overflow_seed, respread_seed};
use crate::hash_table::{JoinHashTable, MatchSet, Offer};
use crate::machine::{Ledgers, Machine, NodeId, ResultRoute, ResultSink, RESULT_TAG};
use crate::tuple::{compose_into, Attr};

/// Stream tag of inner tuples headed for a join site's build stage; the low
/// bits carry the site index.
pub const TAG_BUILD: u32 = 0x42 << 24;
/// Outer tuples headed for a join site's probe stage.
pub const TAG_PROBE: u32 = 0x50 << 24;
/// Inner tuples spooled to a site's `R'` overflow file.
pub const TAG_SPOOL_R: u32 = 0x72 << 24;
/// Outer tuples diverted at the source to a site's `S'` overflow file.
pub const TAG_SPOOL_S: u32 = 0x73 << 24;
/// Tuples headed for a sort-merge partition sink (destination implies the
/// site, so the low bits are unused).
pub const TAG_PART: u32 = 0x70 << 24;
/// Tuples headed for a Grace/Hybrid bucket-forming writer; the low bits
/// carry the 1-based bucket number.
pub const TAG_BUCKET: u32 = 0x62 << 24;

/// Mask selecting a tag's kind byte.
pub const TAG_KIND: u32 = 0xFF00_0000;
/// Mask selecting a tag's 24-bit argument payload (site or bucket index).
pub const TAG_ARG: u32 = 0x00FF_FFFF;

/// Compose a stream tag from a kind constant and its site/bucket argument.
/// Panics with context when the argument would overflow the 24-bit payload
/// (an unchecked `TAG_X | arg as u32` would silently corrupt the kind byte
/// and misroute the stream).
#[inline]
pub fn tag(kind: u32, arg: usize) -> u32 {
    assert_eq!(
        kind & TAG_ARG,
        0,
        "tag kind {kind:#010x} has payload bits set"
    );
    assert!(
        arg as u64 <= TAG_ARG as u64,
        "tag argument {arg} (kind {:#04x}) overflows the 24-bit payload",
        kind >> 24
    );
    kind | arg as u32
}

#[inline]
fn tag_arg(tag: u32) -> usize {
    (tag & TAG_ARG) as usize
}

/// A spool/bucket/partition file under construction at one node.
struct SpoolFile {
    writer: HeapWriter,
    count: u64,
}

/// One join process: the site's hash table, bit filter and overflow home.
struct SiteCore {
    index: usize,
    table: JoinHashTable,
    filter: Option<BitFilter>,
    overflow_home: NodeId,
    r_attr: Attr,
    s_attr: Attr,
}

/// The pure outcome of probing one outer tuple against a frozen site
/// table: the chain-compare count and the matching arena ranges. The
/// composed `R ‖ S` result is framed straight into the outbox at replay
/// time ([`StepCtx::send2`]) — it is never materialized on the heap.
struct ProbeOut {
    compares: u64,
    matches: MatchSet,
}

impl SiteCore {
    /// Probe one outer tuple against this site without touching any
    /// mutable state — safe to run on any worker, in any order.
    fn probe_pure(&self, tuple: &[u8]) -> ProbeOut {
        let val = self.s_attr.get(tuple);
        let (matches, compares) = self.table.probe_ranges(val);
        ProbeOut { compares, matches }
    }
}

/// A sort-merge partition sink at one disk node: incoming tuples are
/// appended to the node's temp file; in filter-building mode the site's
/// bit filter is set as they arrive.
struct PartSink {
    writer: HeapWriter,
    filter: Option<BitFilter>,
    attr: Attr,
}

/// Everything one node's consumer side may be running: at most one join
/// site, overflow spools it is home to, bucket-forming writers, a
/// sort-merge partition sink, and the node's result store operator.
pub struct JoinNode {
    site: Option<SiteCore>,
    spools: BTreeMap<u32, SpoolFile>,
    buckets: BTreeMap<u32, SpoolFile>,
    part: Option<PartSink>,
    store: Option<HeapWriter>,
    stored: u64,
    check: u64,
    route: ResultRoute,
}

impl JoinNode {
    /// Drain this node's inbox and apply every delivered message. The
    /// drained batch owns the packet buffers; every payload is handled as
    /// a borrowed slice, so consuming a message allocates only where the
    /// tuple genuinely moves somewhere (a table arena, a heap page, an
    /// outgoing packet frame).
    fn absorb_step(&mut self, ctx: &mut StepCtx<'_>) {
        let drained = ctx.drain();
        let msgs = drained.msgs();
        let probes = self.precomputed_probes(ctx, &msgs);
        for (m, pre) in msgs.iter().zip(probes) {
            match m.tag & TAG_KIND {
                TAG_BUILD => self.on_build(ctx, tag_arg(m.tag), m.payload),
                TAG_PROBE => self.on_probe(ctx, tag_arg(m.tag), m.payload, pre),
                TAG_SPOOL_R | TAG_SPOOL_S => self.on_spool(ctx, m.tag, m.payload),
                TAG_BUCKET => self.on_bucket(ctx, m.tag, m.payload),
                TAG_PART => self.on_part(ctx, m.payload),
                RESULT_TAG => self.on_result(ctx, m.payload),
                other => panic!("node {} got unknown stream tag {other:#x}", ctx.node),
            }
        }
    }

    /// Chunk this batch's probe work across the pool: when the batch holds
    /// no build traffic the site's table is frozen for the whole drain, so
    /// each probe's chain walk and match composition are pure functions of
    /// the payload and can be precomputed in tuple-range chunks
    /// ([`StepCtx::par_map`]). The replay in [`Self::absorb_step`] then
    /// applies charges, counts, trace events and result sends in arrival
    /// order — byte-identical to probing inline. Batches that interleave
    /// builds (which mutate the table) precompute nothing.
    fn precomputed_probes(&self, ctx: &StepCtx<'_>, msgs: &[Msg<'_>]) -> Vec<Option<ProbeOut>> {
        let mutates = msgs.iter().any(|m| m.tag & TAG_KIND == TAG_BUILD);
        let site = match &self.site {
            Some(site) if !mutates => site,
            _ => return msgs.iter().map(|_| None).collect(),
        };
        ctx.par_map(msgs, |m| {
            (m.tag & TAG_KIND == TAG_PROBE).then(|| site.probe_pure(m.payload))
        })
    }

    /// Build stage: insert one inner tuple, handling hash-table overflow —
    /// evictions and diversions are spooled to `R'_i` at the site's home.
    fn on_build(&mut self, ctx: &mut StepCtx<'_>, i: usize, tuple: &[u8]) {
        let site = self.site.as_mut().expect("build tuple at a join site");
        debug_assert_eq!(site.index, i, "build tuple routed to the wrong site");
        let val = site.r_attr.get(tuple);
        ctx.ledger.counts.tuples_in += 1;
        ctx.charge(ctx.cost.build_insert_us + ctx.cost.histogram_update_us);
        if let Some(f) = &mut site.filter {
            ctx.charge(ctx.cost.filter_set_us);
            f.set(val);
        }
        ctx.ledger.counts.hash_inserts += 1;
        gamma_metrics::counter_add("op_tuples_in", ctx.node as u16, "build", 1);
        gamma_metrics::counter_add("hash_inserts", ctx.node as u16, "build", 1);
        gamma_trace::emit(
            ctx.node as u16,
            ctx.ledger.total_demand().as_us(),
            gamma_trace::EventKind::HashInsert,
        );
        let home = site.overflow_home;
        let spool_tag = tag(TAG_SPOOL_R, i);
        match site.table.offer(val, tuple, ctx.cost.overflow_clear_pct) {
            Offer::Stored => {}
            Offer::Diverted => ctx.send(home, spool_tag, tuple),
            Offer::Overflowed {
                evicted,
                diverted,
                scanned,
            } => {
                // The heuristic examines every resident tuple to find the
                // ones above the new cutoff (§4.1).
                ctx.charge(ctx.cost.clear_scan_us * scanned);
                gamma_trace::emit(
                    ctx.node as u16,
                    ctx.ledger.total_demand().as_us(),
                    gamma_trace::EventKind::BucketSpill { bucket: i as u16 },
                );
                for (_, range) in evicted {
                    ctx.charge(ctx.cost.evict_tuple_us);
                    ctx.ledger.counts.overflow_evictions += 1;
                    gamma_metrics::counter_add("overflow_evictions", ctx.node as u16, "build", 1);
                    ctx.send(home, spool_tag, site.table.slice(range));
                }
                if diverted {
                    ctx.send(home, spool_tag, tuple);
                }
            }
        }
    }

    /// Probe stage: matches are composed `R ‖ S` and dealt to the store
    /// operators as result messages — framed straight into the outgoing
    /// packet ([`StepCtx::send2`]), never materialized. `pre` carries the
    /// chunk-precomputed pure outcome when [`Self::precomputed_probes`]
    /// ran; the outcome is identical either way, the charges and sends
    /// happen here in arrival order regardless.
    fn on_probe(&mut self, ctx: &mut StepCtx<'_>, i: usize, tuple: &[u8], pre: Option<ProbeOut>) {
        let site = self.site.as_ref().expect("probe tuple at a join site");
        debug_assert_eq!(site.index, i, "probe tuple routed to the wrong site");
        let ProbeOut { compares, matches } = pre.unwrap_or_else(|| site.probe_pure(tuple));
        ctx.ledger.counts.tuples_in += 1;
        ctx.ledger.counts.hash_probes += 1;
        ctx.charge(ctx.cost.probe_us + ctx.cost.chain_compare_us * compares);
        ctx.ledger.counts.comparisons += compares;
        gamma_metrics::counter_add("op_tuples_in", ctx.node as u16, "probe", 1);
        gamma_metrics::counter_add("hash_probes", ctx.node as u16, "probe", 1);
        gamma_metrics::counter_add("comparisons", ctx.node as u16, "probe", compares);
        gamma_metrics::observe("probe_chain_compares", ctx.node as u16, "probe", compares);
        gamma_trace::emit(
            ctx.node as u16,
            ctx.ledger.total_demand().as_us(),
            gamma_trace::EventKind::HashProbe {
                matched: !matches.is_empty(),
            },
        );
        for range in matches.iter() {
            ctx.charge(ctx.cost.compose_us);
            ctx.ledger.counts.tuples_out += 1;
            gamma_metrics::counter_add("op_tuples_out", ctx.node as u16, "probe", 1);
            let dst = self.route.advance();
            ctx.send2(dst, RESULT_TAG, site.table.slice(range), tuple);
        }
    }

    /// Overflow-spool store: append to this home's `R'`/`S'` file for the
    /// sending site (created on first arrival).
    fn on_spool(&mut self, ctx: &mut StepCtx<'_>, tag: u32, rec: &[u8]) {
        let page = ctx.cost.disk.page_bytes;
        let sf = self.spools.entry(tag).or_insert_with(|| SpoolFile {
            writer: HeapWriter::create(ctx.state.vol_mut(), page),
            count: 0,
        });
        ctx.charge(ctx.cost.store_tuple_us);
        let (vol, pool) = ctx.state.vp();
        sf.writer.push(vol, pool, ctx.ledger, rec);
        sf.count += 1;
    }

    /// Bucket-forming store: append to this node's writer for the bucket.
    fn on_bucket(&mut self, ctx: &mut StepCtx<'_>, tag: u32, rec: &[u8]) {
        let sf = self
            .buckets
            .get_mut(&tag)
            .expect("bucket writer open at this node");
        ctx.charge(ctx.cost.store_tuple_us);
        let (vol, pool) = ctx.state.vp();
        sf.writer.push(vol, pool, ctx.ledger, rec);
        sf.count += 1;
    }

    /// Sort-merge partition store: set the filter bit (build side), append
    /// to the node's temp file.
    fn on_part(&mut self, ctx: &mut StepCtx<'_>, rec: &[u8]) {
        let p = self.part.as_mut().expect("partition sink open");
        if let Some(f) = &mut p.filter {
            ctx.charge(ctx.cost.filter_set_us);
            f.set(p.attr.get(rec));
        }
        ctx.charge(ctx.cost.store_tuple_us);
        let (vol, pool) = ctx.state.vp();
        p.writer.push(vol, pool, ctx.ledger, rec);
    }

    /// Result store operator: append one delivered result tuple.
    fn on_result(&mut self, ctx: &mut StepCtx<'_>, rec: &[u8]) {
        let w = self.store.as_mut().expect("store operator open");
        let sum = ResultSink::store_at(ctx.cost, ctx.state, ctx.ledger, w, rec);
        self.check = self.check.wrapping_add(sum);
        self.stored += 1;
    }
}

/// Main-thread description of one build/probe round's sites: which nodes
/// run join processes, each site's overflow home, and whether bit filters
/// are on. The per-site state itself lives in the [`Consumers`].
pub struct JoinSites {
    nodes: Vec<NodeId>,
    homes: Vec<NodeId>,
    filters_on: bool,
}

impl JoinSites {
    /// Join processors, in site-index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no sites are installed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Disk node hosting site `i`'s overflow files.
    pub fn home(&self, i: usize) -> NodeId {
        self.homes[i]
    }

    /// Whether the sites build bit filters.
    pub fn filters_on(&self) -> bool {
        self.filters_on
    }
}

/// Producer-side snapshot of the sites after the build round: the `h'`
/// cutoffs augmenting the split table and a copy of each site's filter.
/// Scanning workers consult it without touching any site's state.
pub struct ProbeSnapshot {
    cutoffs: Vec<Option<u64>>,
    seeds: Vec<u64>,
    filters: Vec<Option<BitFilter>>,
}

impl ProbeSnapshot {
    /// Does site `i`'s augmented split-table entry divert this outer value
    /// to the overflow file?
    pub fn outer_diverts(&self, i: usize, val: u32) -> bool {
        match self.cutoffs[i] {
            Some(c) => hash_u32(self.seeds[i], val) >= c,
            None => false,
        }
    }

    /// Would site `i`'s bit filter drop this outer value? Charges the test
    /// at the scanning node.
    pub fn filter_drops(&self, ctx: &mut StepCtx<'_>, i: usize, val: u32) -> bool {
        match &self.filters[i] {
            Some(f) => {
                ctx.charge(ctx.cost.filter_test_us);
                if f.test(val) {
                    false
                } else {
                    ctx.ledger.counts.filter_drops += 1;
                    gamma_metrics::counter_add("filter_drops", ctx.node as u16, "probe", 1);
                    true
                }
            }
            None => false,
        }
    }

    /// Saturation of site `i`'s filter, if filtering (diagnostics).
    pub fn filter_saturation(&self, i: usize) -> Option<f64> {
        self.filters[i].as_ref().map(|f| f.saturation())
    }
}

/// The consumer states of every node, driven by absorb steps.
pub struct Consumers {
    nodes: Vec<JoinNode>,
    all: Vec<NodeId>,
}

impl Consumers {
    /// Fresh consumer states (no sites, no open files) for every node.
    pub fn new(machine: &Machine) -> Self {
        let d = machine.cfg.disk_nodes;
        let total = machine.nodes();
        Consumers {
            nodes: (0..total)
                .map(|n| JoinNode {
                    site: None,
                    spools: BTreeMap::new(),
                    buckets: BTreeMap::new(),
                    part: None,
                    store: None,
                    stored: 0,
                    check: 0,
                    route: ResultRoute::new(n, d),
                })
                .collect(),
            all: (0..total).collect(),
        }
    }

    /// Install one join process per `join_nodes` entry: a hash table of
    /// `capacity_per_site` bytes seeded for `pass`, an optional bit filter
    /// salted by `filter_salt`, and an overflow home on a disk node.
    #[allow(clippy::too_many_arguments)]
    pub fn install_sites(
        &mut self,
        machine: &Machine,
        join_nodes: &[NodeId],
        capacity_per_site: u64,
        expected_tuple_bytes: u64,
        pass: u32,
        filter_bits: Option<u64>,
        filter_salt: u64,
        r_attr: Attr,
        s_attr: Attr,
    ) -> JoinSites {
        let disk = machine.cfg.disk_nodes;
        let mut homes = Vec::with_capacity(join_nodes.len());
        for (i, &node) in join_nodes.iter().enumerate() {
            let home = if node < disk { node } else { i % disk };
            homes.push(home);
            let prev = self.nodes[node].site.replace(SiteCore {
                index: i,
                table: JoinHashTable::new(
                    capacity_per_site,
                    expected_tuple_bytes,
                    overflow_seed(pass, i),
                ),
                filter: filter_bits.map(|b| BitFilter::new(b, filter_salt.wrapping_add(i as u64))),
                overflow_home: home,
                r_attr,
                s_attr,
            });
            assert!(prev.is_none(), "node {node} already runs a join site");
        }
        JoinSites {
            nodes: join_nodes.to_vec(),
            homes,
            filters_on: filter_bits.is_some(),
        }
    }

    /// Snapshot the sites' overflow cutoffs and filters for the probing
    /// producers.
    pub fn probe_snapshot(&self, sites: &JoinSites) -> ProbeSnapshot {
        let mut cutoffs = Vec::with_capacity(sites.len());
        let mut seeds = Vec::with_capacity(sites.len());
        let mut filters = Vec::with_capacity(sites.len());
        for &node in &sites.nodes {
            let site = self.nodes[node].site.as_ref().expect("site installed");
            cutoffs.push(site.table.cutoff());
            seeds.push(site.table.hprime_seed());
            // Filter saturation in parts-per-thousand: the build side is
            // complete here, so this is the selectivity the probe side will
            // see (paper §4.2's bit-vector filtering effectiveness).
            if let Some(f) = &site.filter {
                gamma_metrics::gauge_max(
                    "filter_saturation_pm",
                    node as u16,
                    "probe",
                    (f.saturation() * 1000.0) as u64,
                );
            }
            filters.push(site.filter.clone());
        }
        ProbeSnapshot {
            cutoffs,
            seeds,
            filters,
        }
    }

    /// Open one bucket-forming writer per (disk node, bucket) for buckets
    /// `first..=last`.
    pub fn open_buckets(&mut self, machine: &mut Machine, first: usize, last: usize) {
        let page = machine.cfg.cost.disk.page_bytes;
        for n in machine.disk_nodes() {
            for b in first..=last {
                let w = HeapWriter::create(machine.nodes[n].vol_mut(), page);
                let prev = self.nodes[n].buckets.insert(
                    tag(TAG_BUCKET, b),
                    SpoolFile {
                        writer: w,
                        count: 0,
                    },
                );
                assert!(prev.is_none(), "bucket {b} already forming at node {n}");
            }
        }
    }

    /// Close every bucket-forming writer, returning `files[disk_node]` in
    /// ascending bucket order (empty buckets still yield a file, as the
    /// drivers expect).
    pub fn close_buckets(
        &mut self,
        machine: &mut Machine,
        ledgers: &mut Ledgers,
    ) -> Vec<Vec<FileId>> {
        let mut out = Vec::with_capacity(machine.cfg.disk_nodes);
        for n in machine.disk_nodes() {
            let buckets = std::mem::take(&mut self.nodes[n].buckets);
            let mut files = Vec::with_capacity(buckets.len());
            for (_, sf) in buckets {
                // Per-bucket fragment sizes — the distribution the bucket
                // analyzer's uniformity assumption is about.
                gamma_metrics::observe("bucket_tuples", n as u16, "forming", sf.count);
                let (vol, pool) = machine.nodes[n].vp();
                files.push(sf.writer.finish(vol, pool, &mut ledgers[n]));
            }
            out.push(files);
        }
        out
    }

    /// Open one sort-merge partition sink per disk node. `filters[i]`,
    /// when building, is moved into disk node `i`'s sink and set as tuples
    /// arrive; collect them back with [`Consumers::close_parts`].
    pub fn open_parts(
        &mut self,
        machine: &mut Machine,
        mut filters: Vec<Option<BitFilter>>,
        attr: Attr,
    ) {
        let page = machine.cfg.cost.disk.page_bytes;
        for n in machine.disk_nodes() {
            let w = HeapWriter::create(machine.nodes[n].vol_mut(), page);
            let prev = self.nodes[n].part.replace(PartSink {
                writer: w,
                filter: filters.get_mut(n).and_then(Option::take),
                attr,
            });
            assert!(prev.is_none(), "partition sink already open at node {n}");
        }
    }

    /// Close every partition sink, returning the temp file per disk node
    /// and any filters built.
    pub fn close_parts(
        &mut self,
        machine: &mut Machine,
        ledgers: &mut Ledgers,
    ) -> (Vec<FileId>, Vec<Option<BitFilter>>) {
        let mut files = Vec::with_capacity(machine.cfg.disk_nodes);
        let mut filters = Vec::with_capacity(machine.cfg.disk_nodes);
        for n in machine.disk_nodes() {
            let p = self.nodes[n].part.take().expect("partition sink open");
            let (vol, pool) = machine.nodes[n].vp();
            files.push(p.writer.finish(vol, pool, &mut ledgers[n]));
            filters.push(p.filter);
        }
        (files, filters)
    }

    /// One absorb step: run every node's consumer over its drained inbox,
    /// then fold stored-result tallies back into the sink.
    pub fn absorb(&mut self, machine: &mut Machine, ledgers: &mut Ledgers, sink: &mut ResultSink) {
        let d = sink.disk_nodes();
        for n in 0..d {
            self.nodes[n].store = Some(sink.take_writer(n));
        }
        run_step(
            machine,
            ledgers,
            "absorb",
            &self.all,
            &mut self.nodes,
            |ctx, jn| jn.absorb_step(ctx),
        );
        for n in 0..d {
            sink.put_writer(n, self.nodes[n].store.take().expect("store writer"));
        }
        for jn in &mut self.nodes {
            sink.absorb(
                std::mem::take(&mut jn.stored),
                std::mem::take(&mut jn.check),
            );
        }
    }

    /// Absorb until the exchange is quiet: two steps suffice, because the
    /// only messages an absorb step *sends* are overflow spools and result
    /// tuples, and the consumers of those send nothing.
    pub fn settle(&mut self, machine: &mut Machine, ledgers: &mut Ledgers, sink: &mut ResultSink) {
        self.absorb(machine, ledgers, sink);
        self.absorb(machine, ledgers, sink);
        debug_assert!(
            machine.exchange.is_drained(),
            "phase sealed with in-flight exchange traffic"
        );
    }
}

/// Overflow partition pair left behind by a pass.
#[derive(Debug, Clone)]
pub struct OverflowPair {
    /// `(node, file, tuples)` of the `R'` fragment.
    pub r: (NodeId, FileId, u64),
    /// `(node, file, tuples)` of the `S'` fragment.
    pub s: (NodeId, FileId, u64),
}

/// Tear down the sites and close their spool files, returning the overflow
/// pairs that need a recursive pass. Sites that never overflowed return
/// nothing; a missing half becomes an empty file.
pub fn take_overflows(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    consumers: &mut Consumers,
    sites: &JoinSites,
) -> Vec<OverflowPair> {
    fn fin(
        machine: &mut Machine,
        ledgers: &mut Ledgers,
        home: NodeId,
        sf: Option<SpoolFile>,
    ) -> (NodeId, FileId, u64) {
        match sf {
            Some(sf) => {
                let (vol, pool) = machine.nodes[home].vp();
                let f = sf.writer.finish(vol, pool, &mut ledgers[home]);
                (home, f, sf.count)
            }
            None => (home, exec::empty_file(machine, ledgers, home), 0),
        }
    }
    let mut pairs = Vec::new();
    for i in 0..sites.len() {
        consumers.nodes[sites.nodes[i]].site = None;
        let home = sites.homes[i];
        let r = consumers.nodes[home].spools.remove(&tag(TAG_SPOOL_R, i));
        let s = consumers.nodes[home].spools.remove(&tag(TAG_SPOOL_S, i));
        if r.is_none() && s.is_none() {
            continue;
        }
        let r = fin(machine, ledgers, home, r);
        let s = fin(machine, ledgers, home, s);
        pairs.push(OverflowPair { r, s });
    }
    pairs
}

/// Outcome of one dynamic restore pass ([`restore_spills`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreStats {
    /// Spilled inner tuples read back and re-admitted to site tables.
    pub restored_tuples: u64,
    /// Spilled inner tuples that stayed spilled (rewritten to fresh spools).
    pub respooled_tuples: u64,
    /// Overflowed sites the pass planned a restore for.
    pub sites_touched: usize,
}

/// One site's restore work, staged at its overflow home node.
struct RestoreJob {
    site: usize,
    site_node: NodeId,
    file: FileId,
    slack: u64,
    floor_cell: usize,
    seed: u64,
    overhead: u64,
    r_attr: Attr,
}

/// Incremental restore (the dynamic spill/restore path): after the build
/// round settles, each overflowed site's `R'` spool is read back at its
/// home, a per-`h'`-cell byte histogram is taken, and the cutoff is raised
/// cell-by-cell as far as the site's remaining slack allows — re-admitting
/// that range to the table and rewriting only the residue to a fresh spool.
/// The all-or-nothing alternative (what the legacy path does) leaves the
/// whole spilled range for a full recursive respray even when the clearing
/// heuristic overshot by one histogram cell; this pass makes the spilled
/// fraction track actual memory pressure, which is what removes the
/// memory-ratio cliff.
///
/// Must run after the build side has fully settled and before the probe
/// snapshot is taken, so the raised cutoffs divert strictly fewer outer
/// tuples. The resident-set invariant (residents = offered tuples with
/// `h' <` cutoff) is preserved because every spilled tuple in the raised
/// range is re-sent through the normal build stage before the raise is
/// observable by any producer.
pub fn restore_spills(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    consumers: &mut Consumers,
    sites: &JoinSites,
    sink: &mut ResultSink,
) -> RestoreStats {
    let mut by_home: BTreeMap<NodeId, Vec<RestoreJob>> = BTreeMap::new();
    for i in 0..sites.len() {
        let home = sites.homes[i];
        let Some(sf) = consumers.nodes[home].spools.remove(&tag(TAG_SPOOL_R, i)) else {
            continue;
        };
        let site_node = sites.nodes[i];
        let site = consumers.nodes[site_node].site.as_ref().expect("site");
        let floor_cell = site
            .table
            .cutoff_cell()
            .expect("a spooled site must have a cutoff");
        let job = RestoreJob {
            site: i,
            site_node,
            file: {
                let (vol, pool) = machine.nodes[home].vp();
                sf.writer.finish(vol, pool, &mut ledgers[home])
            },
            slack: site.table.slack_bytes(),
            floor_cell,
            seed: site.table.hprime_seed(),
            overhead: site.table.entry_footprint(0),
            r_attr: site.r_attr,
        };
        by_home.entry(home).or_default().push(job);
    }
    let mut stats = RestoreStats::default();
    if by_home.is_empty() {
        return stats;
    }
    let homes: Vec<NodeId> = by_home.keys().copied().collect();
    type Planned = (usize, Option<u64>, u64, u64);
    let mut states: Vec<(Vec<RestoreJob>, Vec<Planned>)> = by_home
        .into_values()
        .map(|jobs| (jobs, Vec::new()))
        .collect();
    run_step(
        machine,
        ledgers,
        "restore spills",
        &homes,
        &mut states,
        |ctx, (jobs, out)| {
            for job in jobs.iter() {
                let recs = ctx.read_batch(job.file);
                let cells = ctx.par_map_batch(&recs, |rec| {
                    crate::hash_table::hprime_cell_of(job.seed, job.r_attr.get(rec))
                });
                // Plan: spilled bytes per h' cell, then raise the cutoff
                // cell-by-cell while the restored range fits the slack.
                let mut per_cell = vec![0u64; JoinHashTable::CELLS];
                for (rec, &cell) in recs.iter().zip(&cells) {
                    ctx.charge(ctx.cost.hash_us + ctx.cost.histogram_update_us);
                    per_cell[cell] += rec.len() as u64 + job.overhead;
                }
                let mut cell = job.floor_cell;
                let mut budget = job.slack;
                while cell < JoinHashTable::CELLS && per_cell[cell] <= budget {
                    budget -= per_cell[cell];
                    cell += 1;
                }
                let new_cutoff =
                    (cell < JoinHashTable::CELLS).then(|| JoinHashTable::cell_cutoff(cell));
                let (mut restored, mut respooled) = (0u64, 0u64);
                let (mut restored_b, mut respooled_b) = (0u64, 0u64);
                for (rec, c) in recs.iter().zip(cells) {
                    ctx.charge(ctx.cost.route_us);
                    if c < cell {
                        restored += 1;
                        restored_b += rec.len() as u64;
                        ctx.send(job.site_node, tag(TAG_BUILD, job.site), rec);
                    } else {
                        respooled += 1;
                        respooled_b += rec.len() as u64;
                        ctx.send(ctx.node, tag(TAG_SPOOL_R, job.site), rec);
                    }
                }
                let page = ctx.cost.disk.page_bytes as u64;
                let pr = restored_b.div_ceil(page);
                let ps = respooled_b.div_ceil(page);
                ctx.ledger.counts.pages_restored += pr;
                ctx.ledger.counts.pages_spilled += ps;
                gamma_metrics::counter_add("pages_restored", ctx.node as u16, "restore", pr);
                gamma_metrics::counter_add("pages_spilled", ctx.node as u16, "restore", ps);
                out.push((job.site, new_cutoff, restored, respooled));
            }
        },
    );
    // Raise the cutoffs before absorbing: the re-sent build tuples must be
    // admitted (they fit the slack by construction).
    for (jobs, outs) in &states {
        for &(site, new_cutoff, restored, respooled) in outs {
            let node = sites.nodes[site];
            let core = consumers.nodes[node].site.as_mut().expect("site");
            core.table.raise_cutoff(new_cutoff);
            stats.restored_tuples += restored;
            stats.respooled_tuples += respooled;
            stats.sites_touched += 1;
        }
        for job in jobs {
            let home = sites.homes[job.site];
            exec::delete_file(machine, home, job.file);
        }
    }
    consumers.settle(machine, ledgers, sink);
    stats
}

/// Outcome of [`resolve_overflows`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OverflowStats {
    /// Recursive Simple-hash passes executed.
    pub passes: u32,
    /// Whether the block-nested-loops fallback fired.
    pub bnl_fallback: bool,
}

/// Parameters shared by every recursive overflow pass.
pub struct OverflowEnv<'a> {
    /// Join processors.
    pub join_nodes: &'a [NodeId],
    /// Per-site hash-table capacity in bytes.
    pub capacity_per_site: u64,
    /// Expected tuple width (hash-table sizing).
    pub tuple_bytes: u64,
    /// Inner-relation join attribute (within spooled `R'` tuples).
    pub r_attr: Attr,
    /// Outer-relation join attribute (within spooled `S'` tuples).
    pub s_attr: Attr,
    /// Bits per site for bit filters (None = filtering off).
    pub filter_bits: Option<u64>,
    /// Salt namespace for this sub-join's filters.
    pub filter_salt: u64,
}

/// Group one side of the overflow pairs by home node for a producer step:
/// participants (ascending) and each home's files in pair order.
fn group_files(
    pairs: &[OverflowPair],
    pick: impl Fn(&OverflowPair) -> (NodeId, FileId, u64),
) -> (Vec<NodeId>, Vec<Vec<FileId>>) {
    let mut map: BTreeMap<NodeId, Vec<FileId>> = BTreeMap::new();
    for p in pairs {
        let (n, f, _) = pick(p);
        map.entry(n).or_default().push(f);
    }
    (
        map.keys().copied().collect(),
        map.values().cloned().collect(),
    )
}

/// Recursively join the overflow partitions produced by a pass, exactly as
/// §3.2 describes: read the aggregate `R'`, re-split across all join sites
/// with a fresh hash function, build; read `S'`, re-split, probe; repeat
/// until no site overflows. Appends one `(build, probe)` phase pair per
/// pass to `phases`.
pub fn resolve_overflows(
    machine: &mut Machine,
    env: &OverflowEnv<'_>,
    mut pairs: Vec<OverflowPair>,
    first_pass: u32,
    sink: &mut ResultSink,
    phases: &mut Vec<crate::report::PhaseRecord>,
    phase_prefix: &str,
) -> OverflowStats {
    let mut stats = OverflowStats::default();
    let mut pass = first_pass;
    while !pairs.is_empty() {
        let input_r: u64 = pairs.iter().map(|p| p.r.2).sum();
        stats.passes += 1;
        let seed = respread_seed(pass);
        let j = env.join_nodes.len() as u64;
        let join_nodes = env.join_nodes;
        let r_attr = env.r_attr;
        let s_attr = env.s_attr;
        let mut consumers = Consumers::new(machine);
        let sites = consumers.install_sites(
            machine,
            env.join_nodes,
            env.capacity_per_site,
            env.tuple_bytes,
            pass,
            env.filter_bits,
            env.filter_salt.wrapping_add(0x1000 + pass as u64),
            r_attr,
            s_attr,
        );

        // ---- build pass over the aggregate R' ----
        let mut ledgers = machine.ledgers();
        let (homes, mut r_files) = group_files(&pairs, |p| p.r);
        run_step(
            machine,
            &mut ledgers,
            "overflow build R'",
            &homes,
            &mut r_files,
            |ctx, files| {
                for &file in files.iter() {
                    let recs = ctx.read_batch(file);
                    let routed = ctx
                        .par_map_batch(&recs, |rec| (hash_u32(seed, r_attr.get(rec)) % j) as usize);
                    for (rec, i) in recs.iter().zip(routed) {
                        ctx.charge(ctx.cost.scan_tuple_us + ctx.cost.hash_us + ctx.cost.route_us);
                        ctx.send(join_nodes[i], tag(TAG_BUILD, i), rec);
                    }
                }
            },
        );
        consumers.settle(machine, &mut ledgers, sink);
        let sched = control::dispatch_overhead(machine, &mut ledgers, env.join_nodes, 0);
        phases.push(crate::report::PhaseRecord::new(
            format!("{phase_prefix}overflow-build p{pass}"),
            ledgers,
            sched,
        ));

        // ---- probe pass over the aggregate S' ----
        let mut ledgers = machine.ledgers();
        control::broadcast_filters(machine, &mut ledgers, &sites);
        let snap = consumers.probe_snapshot(&sites);
        let (homes, mut s_files) = group_files(&pairs, |p| p.s);
        {
            let sites = &sites;
            let snap = &snap;
            run_step(
                machine,
                &mut ledgers,
                "overflow probe S'",
                &homes,
                &mut s_files,
                |ctx, files| {
                    for &file in files.iter() {
                        let recs = ctx.read_batch(file);
                        let routed = ctx.par_map_batch(&recs, |rec| {
                            let val = s_attr.get(rec);
                            (val, (hash_u32(seed, val) % j) as usize)
                        });
                        for (rec, (val, i)) in recs.iter().zip(routed) {
                            ctx.charge(
                                ctx.cost.scan_tuple_us + ctx.cost.hash_us + ctx.cost.route_us,
                            );
                            // Filter before the overflow check — safe because
                            // filter bits are set for every arriving inner
                            // tuple (§4.2).
                            if snap.filter_drops(ctx, i, val) {
                                // dropped at the source
                            } else if snap.outer_diverts(i, val) {
                                ctx.send(sites.home(i), tag(TAG_SPOOL_S, i), rec);
                            } else {
                                ctx.send(join_nodes[i], tag(TAG_PROBE, i), rec);
                            }
                        }
                    }
                },
            );
        }
        consumers.settle(machine, &mut ledgers, sink);
        let next = take_overflows(machine, &mut ledgers, &mut consumers, &sites);

        // Free the consumed overflow files.
        for p in &pairs {
            exec::delete_file(machine, p.r.0, p.r.1);
            exec::delete_file(machine, p.s.0, p.s.1);
        }
        let sched = control::dispatch_overhead(machine, &mut ledgers, env.join_nodes, 0);
        phases.push(crate::report::PhaseRecord::new(
            format!("{phase_prefix}overflow-probe p{pass}"),
            ledgers,
            sched,
        ));

        let next_r: u64 = next.iter().map(|p| p.r.2).sum();
        if !next.is_empty() && next_r >= input_r {
            // Hash partitioning is not separating the data (e.g. one value
            // dominates): fall back to block-nested-loops.
            stats.bnl_fallback = true;
            let mut ledgers = machine.ledgers();
            block_nested_loops(machine, env, &next, sink, &mut ledgers);
            sink.flush(machine, &mut ledgers);
            for p in &next {
                exec::delete_file(machine, p.r.0, p.r.1);
                exec::delete_file(machine, p.s.0, p.s.1);
            }
            phases.push(crate::report::PhaseRecord::new(
                format!("{phase_prefix}overflow-bnl p{pass}"),
                ledgers,
                SimTime::ZERO,
            ));
            return stats;
        }
        pairs = next;
        pass += 1;
        assert!(pass < 64, "overflow recursion ran away");
    }
    stats
}

/// Robust variant of [`resolve_overflows`] for the dynamic spill/restore
/// path: join each `(R'_i, S'_i)` pair **in place** at its home node first.
/// After a restore pass the spilled residue is a narrow `h'` sub-range that
/// usually fits one full-capacity site table, so the pair joins locally
/// with zero repartitioning network traffic — only pairs whose `R'` alone
/// still overflows escalate to the classic global respray. Because a
/// localized round is not a respray, it does **not** count against
/// `OverflowStats::passes` (the Figure 7 "optimistic" pass counter); only
/// escalated classic passes do.
///
/// Pairs sharing a home node are processed in successive rounds (one site
/// per node per round); each round appends one `spill-join` phase.
pub fn resolve_overflows_robust(
    machine: &mut Machine,
    env: &OverflowEnv<'_>,
    mut pairs: Vec<OverflowPair>,
    sink: &mut ResultSink,
    phases: &mut Vec<crate::report::PhaseRecord>,
    phase_prefix: &str,
) -> OverflowStats {
    let mut escalated = Vec::new();
    let mut round = 0u32;
    while !pairs.is_empty() {
        // One pair per home node this round; the rest wait their turn.
        let mut this_round: BTreeMap<NodeId, OverflowPair> = BTreeMap::new();
        let mut waiting = Vec::new();
        for p in pairs {
            match this_round.entry(p.r.0) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(p);
                }
                std::collections::btree_map::Entry::Occupied(_) => waiting.push(p),
            }
        }
        pairs = waiting;
        let homes: Vec<NodeId> = this_round.keys().copied().collect();
        let mut consumers = Consumers::new(machine);
        let sites = consumers.install_sites(
            machine,
            &homes,
            env.capacity_per_site,
            env.tuple_bytes,
            0x4000 + round,
            env.filter_bits,
            env.filter_salt.wrapping_add(0x2000 + round as u64),
            env.r_attr,
            env.s_attr,
        );
        let mut ledgers = machine.ledgers();
        let mut states: Vec<(usize, OverflowPair)> = this_round.into_values().enumerate().collect();
        run_step(
            machine,
            &mut ledgers,
            "spill-join build",
            &homes,
            &mut states,
            |ctx, (k, p)| {
                let recs = ctx.read_batch(p.r.1);
                for rec in recs.iter() {
                    ctx.charge(ctx.cost.scan_tuple_us);
                    ctx.send(ctx.node, tag(TAG_BUILD, *k), rec);
                }
            },
        );
        consumers.settle(machine, &mut ledgers, sink);
        control::broadcast_filters(machine, &mut ledgers, &sites);
        let snap = consumers.probe_snapshot(&sites);
        {
            let snap = &snap;
            let sites = &sites;
            let s_attr = env.s_attr;
            run_step(
                machine,
                &mut ledgers,
                "spill-join probe",
                &homes,
                &mut states,
                |ctx, (k, p)| {
                    let recs = ctx.read_batch(p.s.1);
                    for rec in recs.iter() {
                        ctx.charge(ctx.cost.scan_tuple_us);
                        let val = s_attr.get(rec);
                        if snap.filter_drops(ctx, *k, val) {
                            // dropped at the source
                        } else if snap.outer_diverts(*k, val) {
                            ctx.send(sites.home(*k), tag(TAG_SPOOL_S, *k), rec);
                        } else {
                            ctx.send(ctx.node, tag(TAG_PROBE, *k), rec);
                        }
                    }
                },
            );
        }
        consumers.settle(machine, &mut ledgers, sink);
        escalated.extend(take_overflows(
            machine,
            &mut ledgers,
            &mut consumers,
            &sites,
        ));
        for (_, p) in &states {
            exec::delete_file(machine, p.r.0, p.r.1);
            exec::delete_file(machine, p.s.0, p.s.1);
        }
        let sched = control::dispatch_overhead(machine, &mut ledgers, &homes, 0);
        phases.push(crate::report::PhaseRecord::new(
            format!("{phase_prefix}spill-join r{round}"),
            ledgers,
            sched,
        ));
        round += 1;
        assert!(round < 1024, "spill-join rounds ran away");
    }
    if escalated.is_empty() {
        return OverflowStats::default();
    }
    resolve_overflows(machine, env, escalated, 1, sink, phases, phase_prefix)
}

/// Block-nested-loops fallback: join each `(R', S')` pair by staging `R'`
/// in memory-sized blocks and scanning `S'` once per block.
fn block_nested_loops(
    machine: &mut Machine,
    env: &OverflowEnv<'_>,
    pairs: &[OverflowPair],
    sink: &mut ResultSink,
    ledgers: &mut Ledgers,
) {
    let cost = machine.cfg.cost.clone();
    let disk = machine.cfg.disk_nodes;
    let block_bytes = env.capacity_per_site.max(env.tuple_bytes);
    let mut out = Vec::new();
    for p in pairs {
        let (r_node, r_file, _) = p.r;
        let (s_node, s_file, _) = p.s;
        let mut route = ResultRoute::new(s_node, disk);
        let r_recs = exec::read_batch(machine, ledgers, r_node, r_file);
        for block in r_recs
            .ranges()
            .chunks((block_bytes / env.tuple_bytes.max(1)).max(1) as usize)
        {
            let s_recs = exec::read_batch(machine, ledgers, s_node, s_file);
            for s_rec in s_recs.iter() {
                cost.charge(&mut ledgers[s_node], cost.scan_tuple_us);
                let sv = env.s_attr.get(s_rec);
                for &rr in block {
                    let r_rec = r_recs.slice(rr);
                    cost.charge(&mut ledgers[s_node], cost.chain_compare_us);
                    if env.r_attr.get(r_rec) == sv {
                        cost.charge(&mut ledgers[s_node], cost.compose_us);
                        compose_into(r_rec, s_rec, &mut out);
                        sink.push(machine, ledgers, &mut route, s_node, &out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::JOIN_SEED;
    use crate::machine::{Declustering, MachineConfig, ResultInfo};
    use crate::tuple::{Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 44)])
    }

    fn mk(schema: &Schema, k: u32) -> Vec<u8> {
        let mut t = vec![0u8; schema.tuple_bytes()];
        schema.int_attr("k").put(&mut t, k);
        t
    }

    /// Drive a full simple-hash style join through the executor stages.
    fn run_simple(
        n_r: u32,
        n_s: u32,
        capacity_per_site: u64,
        skew_all_same: bool,
    ) -> (ResultInfo, OverflowStats) {
        run_simple_mode(n_r, n_s, capacity_per_site, skew_all_same, false).0
    }

    /// As [`run_simple`], optionally through the dynamic spill/restore path
    /// (restore after build, localized spill-joins instead of the global
    /// respray). Also returns the restore stats.
    fn run_simple_mode(
        n_r: u32,
        n_s: u32,
        capacity_per_site: u64,
        skew_all_same: bool,
        robust: bool,
    ) -> ((ResultInfo, OverflowStats), RestoreStats) {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let attr = s.int_attr("k");
        let r: Vec<Vec<u8>> = (0..n_r)
            .map(|k| mk(&s, if skew_all_same { 7 } else { k }))
            .collect();
        let sout: Vec<Vec<u8>> = (0..n_s).map(|k| mk(&s, k % n_r.max(1))).collect();
        let rid = m.load_relation("r", s.clone(), Declustering::RoundRobin, r);
        let sid = m.load_relation("s", s.clone(), Declustering::RoundRobin, sout);

        let join_nodes = m.disk_nodes();
        let mut consumers = Consumers::new(&m);
        let sites = consumers.install_sites(
            &m,
            &join_nodes,
            capacity_per_site,
            48,
            0,
            None,
            0,
            attr,
            attr,
        );
        let mut sink = ResultSink::new(&mut m);
        let mut phases = Vec::new();
        let j = join_nodes.len() as u64;
        let participants = m.disk_nodes();

        let mut ledgers = m.ledgers();
        let mut frags = m.relation(rid).fragments.clone();
        {
            let join_nodes = &join_nodes;
            run_step(
                &mut m,
                &mut ledgers,
                "build",
                &participants,
                &mut frags,
                |ctx, f| {
                    let recs = ctx.read_batch(*f);
                    for rec in recs.iter() {
                        let val = attr.get(rec);
                        let i = (hash_u32(JOIN_SEED, val) % j) as usize;
                        ctx.send(join_nodes[i], tag(TAG_BUILD, i), rec);
                    }
                },
            );
        }
        consumers.settle(&mut m, &mut ledgers, &mut sink);
        let restore = if robust {
            restore_spills(&mut m, &mut ledgers, &mut consumers, &sites, &mut sink)
        } else {
            RestoreStats::default()
        };

        let mut ledgers = m.ledgers();
        let snap = consumers.probe_snapshot(&sites);
        let mut frags = m.relation(sid).fragments.clone();
        {
            let join_nodes = &join_nodes;
            let sites = &sites;
            let snap = &snap;
            run_step(
                &mut m,
                &mut ledgers,
                "probe",
                &participants,
                &mut frags,
                |ctx, f| {
                    let recs = ctx.read_batch(*f);
                    for rec in recs.iter() {
                        let val = attr.get(rec);
                        let i = (hash_u32(JOIN_SEED, val) % j) as usize;
                        if snap.outer_diverts(i, val) {
                            ctx.send(sites.home(i), tag(TAG_SPOOL_S, i), rec);
                        } else {
                            ctx.send(join_nodes[i], tag(TAG_PROBE, i), rec);
                        }
                    }
                },
            );
        }
        consumers.settle(&mut m, &mut ledgers, &mut sink);
        let pairs = take_overflows(&mut m, &mut ledgers, &mut consumers, &sites);
        let env = OverflowEnv {
            join_nodes: &join_nodes,
            capacity_per_site,
            tuple_bytes: 48,
            r_attr: attr,
            s_attr: attr,
            filter_bits: None,
            filter_salt: 0,
        };
        let stats = if robust {
            resolve_overflows_robust(&mut m, &env, pairs, &mut sink, &mut phases, "t:")
        } else {
            resolve_overflows(&mut m, &env, pairs, 1, &mut sink, &mut phases, "t:")
        };
        let mut ledgers = m.ledgers();
        let info = sink.finish(&mut m, &mut ledgers);
        ((info, stats), restore)
    }

    #[test]
    fn in_memory_join_is_exact() {
        // Everything fits: every S tuple finds exactly one R match.
        let (info, stats) = run_simple(500, 2000, 1 << 20, false);
        assert_eq!(info.tuples, 2000);
        assert_eq!(stats.passes, 0);
    }

    #[test]
    fn overflow_join_is_still_exact() {
        // Tiny tables force multiple overflow passes; result unchanged.
        let (full, _) = run_simple(500, 2000, 1 << 20, false);
        let (tight, stats) = run_simple(500, 2000, 1_500, false);
        assert_eq!(tight.tuples, 2000);
        assert_eq!(tight.checksum, full.checksum, "same result multiset");
        assert!(stats.passes >= 1, "must have recursed");
        assert!(!stats.bnl_fallback);
    }

    #[test]
    fn pathological_skew_falls_back_to_bnl() {
        // Every R tuple has value 7; hashing cannot separate them.
        let (info, stats) = run_simple(400, 400, 3_000, true);
        // S values are k % 400; only k = 7 matches, × 400 R duplicates.
        assert_eq!(info.tuples, 400);
        assert!(stats.bnl_fallback);
    }

    #[test]
    fn filters_never_lose_results() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let attr = s.int_attr("k");
        let join_nodes = m.disk_nodes();
        let mut consumers = Consumers::new(&m);
        let sites =
            consumers.install_sites(&m, &join_nodes, 1 << 20, 48, 0, Some(1973), 42, attr, attr);
        let mut sink = ResultSink::new(&mut m);
        let mut ledgers = m.ledgers();
        let participants = [0usize];
        {
            let join_nodes = &join_nodes;
            run_step(
                &mut m,
                &mut ledgers,
                "build",
                &participants,
                &mut [()],
                |ctx, _| {
                    for k in 0..300u32 {
                        let rec = mk(&schema(), k);
                        let i = (hash_u32(JOIN_SEED, k) % 8) as usize;
                        ctx.send(join_nodes[i], tag(TAG_BUILD, i), &rec);
                    }
                },
            );
        }
        consumers.settle(&mut m, &mut ledgers, &mut sink);
        let snap = consumers.probe_snapshot(&sites);
        let (kept, dropped) = {
            let join_nodes = &join_nodes;
            let snap = &snap;
            run_step(
                &mut m,
                &mut ledgers,
                "probe",
                &participants,
                &mut [()],
                |ctx, _| {
                    let mut kept = 0u32;
                    let mut dropped = 0u32;
                    for k in 0..3000u32 {
                        let rec = mk(&schema(), k);
                        let i = (hash_u32(JOIN_SEED, k) % 8) as usize;
                        if snap.filter_drops(ctx, i, k) {
                            dropped += 1;
                            assert!(k >= 300, "a joining tuple was filtered!");
                        } else {
                            kept += 1;
                            ctx.send(join_nodes[i], tag(TAG_PROBE, i), &rec);
                        }
                    }
                    (kept, dropped)
                },
            )[0]
        };
        consumers.settle(&mut m, &mut ledgers, &mut sink);
        assert!(dropped > 1500, "filter should drop most non-joining tuples");
        assert!(kept >= 300);
        let info = sink.finish(&mut m, &mut ledgers);
        assert_eq!(info.tuples, 300, "all real matches survive filtering");
    }

    #[test]
    fn tag_round_trips_its_argument() {
        assert_eq!(tag(TAG_BUILD, 0), TAG_BUILD);
        assert_eq!(tag_arg(tag(TAG_BUCKET, 413)), 413);
        assert_eq!(tag(TAG_SPOOL_S, TAG_ARG as usize) & TAG_KIND, TAG_SPOOL_S);
    }

    #[test]
    #[should_panic(expected = "overflows the 24-bit payload")]
    fn tag_argument_overflow_panics() {
        let _ = tag(TAG_BUCKET, 1 << 24);
    }

    #[test]
    fn dynamic_restore_and_local_spill_join_is_exact() {
        let ((full, _), _) = run_simple_mode(500, 2000, 1 << 20, false, true);
        assert_eq!(full.tuples, 2000);
        // Moderate pressure (~15 % short): restore claws most of the spill
        // back and the residue joins locally — no classic respray pass.
        let ((tight, stats), restore) = run_simple_mode(500, 2000, 3_000, false, true);
        assert_eq!(tight.tuples, 2000, "robust path must not lose matches");
        assert_eq!(tight.checksum, full.checksum, "same result multiset");
        assert!(
            restore.restored_tuples > 0,
            "restore must re-admit part of the spill: {restore:?}"
        );
        assert_eq!(stats.passes, 0, "no classic pass should be needed");
        assert!(!stats.bnl_fallback);
        // Extreme pressure (capacity below one site's share): localized
        // joins escalate as needed but the result is still exact.
        let ((tiny, _), _) = run_simple_mode(500, 2000, 1_500, false, true);
        assert_eq!(tiny.tuples, 2000);
        assert_eq!(tiny.checksum, full.checksum);
    }

    #[test]
    fn robust_path_matches_legacy_result_on_pathological_skew() {
        let ((legacy, lstats), _) = run_simple_mode(400, 400, 3_000, true, false);
        let ((robust, rstats), _) = run_simple_mode(400, 400, 3_000, true, true);
        assert!(lstats.bnl_fallback);
        assert_eq!(robust.tuples, legacy.tuples);
        assert_eq!(robust.checksum, legacy.checksum);
        // One dominating value cannot be separated by any partitioning: the
        // robust path must escalate and end in the same BNL fallback.
        assert!(rstats.bnl_fallback);
    }

    #[test]
    fn remote_sites_spool_overflow_to_disk_nodes() {
        let m = Machine::new(MachineConfig::remote_8_plus_8());
        let s = schema();
        let attr = s.int_attr("k");
        let join_nodes = m.diskless_nodes();
        let mut consumers = Consumers::new(&m);
        let sites = consumers.install_sites(&m, &join_nodes, 1024, 48, 0, None, 0, attr, attr);
        for i in 0..sites.len() {
            assert!(sites.home(i) < 8, "overflow must live on a disk node");
        }
    }
}

//! Relational operators beyond the join: selection (sequential and
//! B+-tree-indexed), projection, and aggregation.
//!
//! Section 2.2 of the paper describes Gamma's operator framework: scans and
//! selections run at the processors with disks, while "join, projection,
//! and aggregate operations" may run on diskless processors; operators
//! consume and produce tuple streams routed by split tables, and result
//! relations are distributed round-robin to store operators at the disk
//! sites. The operators here follow that framework and reuse the same
//! ledger/phase/replay machinery as the joins, so a composed query plan
//! (select → join → aggregate) gets one coherent virtual-time account.

use gamma_des::{SimTime, Usage};
use gamma_wiss::btree::BPlusTree;

use crate::algorithms::common::RangePred;
use crate::exec::control::dispatch_overhead;
use crate::exec::scan::scan_fragment_at;
use crate::exec::{self};
use crate::hash::{hash_u32, JOIN_SEED};
use crate::machine::{Declustering, Machine, NodeId, RelationId, ResultRoute, ResultSink};
use crate::query::replay_phases;
use crate::report::{PhaseRecord, PhaseSummary};
use crate::split::JoiningSplitTable;
use crate::tuple::{project_ranges_into, Attr, Field, Schema};

/// Timed result of a non-join operator.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// End-to-end response time.
    pub response: SimTime,
    /// Phase breakdown.
    pub phases: Vec<PhaseSummary>,
    /// Tuples produced.
    pub tuples_out: u64,
    /// Aggregate resource usage.
    pub total: Usage,
}

fn finish_op(machine: &Machine, phases: Vec<PhaseRecord>, tuples_out: u64) -> OpReport {
    let (response, summaries) = replay_phases(machine, &phases);
    let total = phases
        .iter()
        .flat_map(|p| p.ledgers.iter().cloned())
        .fold(Usage::ZERO, |a, b| a + b);
    OpReport {
        response,
        phases: summaries,
        tuples_out,
        total,
    }
}

/// Sequential parallel selection: every disk node scans its fragment,
/// applies the predicate, and streams survivors round-robin to the store
/// operators. Returns the materialized result relation.
pub fn select(
    machine: &mut Machine,
    rel: RelationId,
    pred: RangePred,
    store_as: &str,
) -> (RelationId, OpReport) {
    let fragments = machine.relation(rel).fragments.clone();
    let schema = machine.relation(rel).schema.clone();
    let disk_nodes = machine.disk_nodes();
    let mut sink = ResultSink::new(machine);
    let mut route = ResultRoute::new(0, disk_nodes.len());
    let mut ledgers = machine.ledgers();
    for &node in &disk_nodes {
        let recs = scan_fragment_at(machine, &mut ledgers, node, fragments[node], Some(pred));
        for rec in recs.iter() {
            sink.push(machine, &mut ledgers, &mut route, node, rec);
        }
    }
    sink.flush(machine, &mut ledgers);
    let info = sink.finish(machine, &mut ledgers);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let phases = vec![PhaseRecord::new("select", ledgers, sched)];
    let id = machine.register_relation(store_as, schema, Declustering::RoundRobin, info.files);
    (id, finish_op(machine, phases, info.tuples))
}

/// Parallel projection onto the named fields.
pub fn project(
    machine: &mut Machine,
    rel: RelationId,
    fields: &[&str],
    store_as: &str,
) -> (RelationId, OpReport) {
    let cost = machine.cfg.cost.clone();
    let fragments = machine.relation(rel).fragments.clone();
    let schema = machine.relation(rel).schema.clone();
    let out_schema = schema.project(fields);
    let disk_nodes = machine.disk_nodes();
    let mut sink = ResultSink::new(machine);
    let mut route = ResultRoute::new(0, disk_nodes.len());
    let mut ledgers = machine.ledgers();
    // Resolve field names to byte ranges once; reuse one output buffer for
    // the whole relation instead of allocating per projected tuple.
    let ranges = schema.projection(fields);
    let mut out = Vec::new();
    for &node in &disk_nodes {
        let recs = scan_fragment_at(machine, &mut ledgers, node, fragments[node], None);
        for rec in recs.iter() {
            cost.charge(&mut ledgers[node], cost.compose_us);
            project_ranges_into(&ranges, rec, &mut out);
            sink.push(machine, &mut ledgers, &mut route, node, &out);
        }
    }
    sink.flush(machine, &mut ledgers);
    let info = sink.finish(machine, &mut ledgers);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let phases = vec![PhaseRecord::new("project", ledgers, sched)];
    let id = machine.register_relation(store_as, out_schema, Declustering::RoundRobin, info.files);
    (id, finish_op(machine, phases, info.tuples))
}

/// Aggregate functions over a 4-byte integer attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count (the attribute is ignored).
    Count,
    /// Sum of the attribute.
    Sum,
    /// Minimum of the attribute.
    Min,
    /// Maximum of the attribute.
    Max,
}

impl AggFn {
    fn init(&self) -> u64 {
        match self {
            AggFn::Count | AggFn::Sum => 0,
            AggFn::Min => u64::MAX,
            AggFn::Max => 0,
        }
    }

    fn update(&self, acc: u64, v: u32) -> u64 {
        match self {
            AggFn::Count => acc + 1,
            AggFn::Sum => acc + v as u64,
            AggFn::Min => acc.min(v as u64),
            AggFn::Max => acc.max(v as u64),
        }
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        match self {
            AggFn::Count | AggFn::Sum => a + b,
            AggFn::Min => a.min(b),
            AggFn::Max => a.max(b),
        }
    }
}

/// Scalar aggregate: each disk node computes a partial over its fragment
/// and sends one partial-result control message to the scheduler, which
/// combines them.
pub fn aggregate_scalar(
    machine: &mut Machine,
    rel: RelationId,
    attr: Attr,
    f: AggFn,
    pred: Option<RangePred>,
) -> (u64, OpReport) {
    let cost = machine.cfg.cost.clone();
    let fragments = machine.relation(rel).fragments.clone();
    let disk_nodes = machine.disk_nodes();
    let mut ledgers = machine.ledgers();
    let mut acc = f.init();
    for &node in &disk_nodes {
        let recs = scan_fragment_at(machine, &mut ledgers, node, fragments[node], pred);
        for rec in recs.iter() {
            cost.charge(&mut ledgers[node], cost.agg_update_us);
            acc = f.merge(acc, f.update(f.init(), attr.get(rec)));
        }
        // Partial result back to the scheduler: one control message.
        machine
            .fabric
            .scheduler_control(&mut ledgers[node], node, 64);
    }
    machine.fabric.flush(&mut ledgers);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let phases = vec![PhaseRecord::new("aggregate (scalar)", ledgers, sched)];
    let report = finish_op(machine, phases, 1);
    (acc, report)
}

/// Hash group-by aggregation, the Gamma way: local partial aggregation at
/// each disk node, repartition of the partial groups through a joining
/// split table to the aggregation processors (`agg_nodes` — diskless nodes
/// are the natural choice, §2.1), final merge, result stored round-robin.
///
/// Output schema: `(group: Int, value: Int)` (values are truncated to u32
/// as the Wisconsin attributes always fit).
pub fn aggregate_group(
    machine: &mut Machine,
    rel: RelationId,
    group_attr: Attr,
    agg_attr: Attr,
    f: AggFn,
    agg_nodes: Vec<NodeId>,
    store_as: &str,
) -> (RelationId, OpReport) {
    use std::collections::HashMap;
    assert!(!agg_nodes.is_empty(), "need aggregation processors");
    let cost = machine.cfg.cost.clone();
    let fragments = machine.relation(rel).fragments.clone();
    let disk_nodes = machine.disk_nodes();
    let jt = JoiningSplitTable::new(agg_nodes.clone());
    let table_bytes = cost.split_table_bytes(jt.entries());
    let mut phases = Vec::new();

    // ---- Phase 1: local partial aggregation ----
    let mut partials: Vec<HashMap<u32, u64>> = vec![HashMap::new(); disk_nodes.len()];
    let mut ledgers = machine.ledgers();
    for &node in &disk_nodes {
        let recs = scan_fragment_at(machine, &mut ledgers, node, fragments[node], None);
        for rec in recs.iter() {
            cost.charge(&mut ledgers[node], cost.hash_us + cost.agg_update_us);
            let g = group_attr.get(rec);
            let v = agg_attr.get(rec);
            let slot = partials[node].entry(g).or_insert_with(|| f.init());
            *slot = f.update(*slot, v);
        }
    }
    machine.fabric.flush(&mut ledgers);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    phases.push(PhaseRecord::new(
        "aggregate: local partials",
        ledgers,
        sched,
    ));

    // ---- Phase 2: repartition partials, merge, store ----
    let mut merged: Vec<HashMap<u32, u64>> = vec![HashMap::new(); agg_nodes.len()];
    let mut ledgers = machine.ledgers();
    for (node, part) in partials.into_iter().enumerate() {
        // Deterministic send order: HashMap iteration must not leak into
        // the fabric's packet accounting.
        let mut part: Vec<(u32, u64)> = part.into_iter().collect();
        part.sort_unstable();
        for (g, v) in part {
            cost.charge(&mut ledgers[node], cost.hash_us + cost.route_us);
            let i = jt.site_index(hash_u32(JOIN_SEED, g));
            machine
                .fabric
                .send_tuple(&mut ledgers, node, agg_nodes[i], 8);
            let dst = agg_nodes[i];
            cost.charge(&mut ledgers[dst], cost.agg_update_us);
            let slot = merged[i].entry(g).or_insert_with(|| f.init());
            *slot = f.merge(*slot, v);
        }
    }
    machine.fabric.flush(&mut ledgers);
    let mut sink = ResultSink::new(machine);
    let mut route = ResultRoute::new(0, disk_nodes.len());
    let out_schema = Schema::new(vec![Field::Int("group".into()), Field::Int("value".into())]);
    let mut groups: u64 = 0;
    for (i, m) in merged.into_iter().enumerate() {
        let node = agg_nodes[i];
        // Deterministic output order within a site.
        let mut rows: Vec<(u32, u64)> = m.into_iter().collect();
        rows.sort_unstable();
        for (g, v) in rows {
            groups += 1;
            cost.charge(&mut ledgers[node], cost.compose_us);
            let mut rec = vec![0u8; 8];
            rec[0..4].copy_from_slice(&g.to_le_bytes());
            rec[4..8].copy_from_slice(&(v as u32).to_le_bytes());
            sink.push(machine, &mut ledgers, &mut route, node, &rec);
        }
    }
    sink.flush(machine, &mut ledgers);
    let info = sink.finish(machine, &mut ledgers);
    let mut sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, table_bytes);
    sched += dispatch_overhead(machine, &mut ledgers, &agg_nodes, table_bytes);
    phases.push(PhaseRecord::new("aggregate: merge + store", ledgers, sched));

    let id = machine.register_relation(store_as, out_schema, Declustering::RoundRobin, info.files);
    (id, finish_op(machine, phases, groups))
}

/// Delete every tuple matching `pred`, rewriting each fragment in place
/// (read, filter, write — update operations run only at the disk nodes,
/// §2.1). Returns the number of tuples deleted.
pub fn delete_where(machine: &mut Machine, rel: RelationId, pred: RangePred) -> (u64, OpReport) {
    rewrite(machine, rel, "delete", move |rec, _cost| {
        if pred.eval(rec) {
            None
        } else {
            Some(rec.to_vec())
        }
    })
}

/// Set `attr` to `value` on every tuple matching `pred`. Returns the
/// number of tuples modified.
pub fn update_where(
    machine: &mut Machine,
    rel: RelationId,
    pred: RangePred,
    attr: Attr,
    value: u32,
) -> (u64, OpReport) {
    rewrite(machine, rel, "update", move |rec, _cost| {
        if pred.eval(rec) {
            let mut out = rec.to_vec();
            attr.put(&mut out, value);
            Some(out)
        } else {
            // Unchanged tuples are rewritten too (fragment files are
            // sequential); returning Some(original) keeps them.
            Some(rec.to_vec())
        }
    })
}

/// Shared rewrite machinery for update/delete: scan each fragment, map
/// every record (None = drop), write the surviving records to a fresh
/// fragment file, swap it into the catalog and free the old one. The
/// count returned is the number of records whose bytes changed or were
/// dropped.
fn rewrite(
    machine: &mut Machine,
    rel: RelationId,
    label: &str,
    f: impl Fn(&[u8], &crate::cost::CostModel) -> Option<Vec<u8>>,
) -> (u64, OpReport) {
    use gamma_wiss::HeapWriter;
    let cost = machine.cfg.cost.clone();
    let fragments = machine.relation(rel).fragments.clone();
    let disk_nodes = machine.disk_nodes();
    let page = cost.disk.page_bytes;
    let mut ledgers = machine.ledgers();
    let mut new_fragments = Vec::with_capacity(fragments.len());
    let mut touched = 0u64;
    let mut kept_tuples = 0u64;
    let mut kept_bytes = 0u64;
    for &node in &disk_nodes {
        let recs = scan_fragment_at(machine, &mut ledgers, node, fragments[node], None);
        let mut w = HeapWriter::create(machine.nodes[node].vol_mut(), page);
        for rec in recs.iter() {
            match f(rec, &cost) {
                Some(out) => {
                    if out != rec {
                        touched += 1;
                        cost.charge(&mut ledgers[node], cost.compose_us);
                    }
                    cost.charge(&mut ledgers[node], cost.store_tuple_us);
                    kept_tuples += 1;
                    kept_bytes += out.len() as u64;
                    let (vol, pool) = machine.nodes[node].vp();
                    w.push(vol, pool, &mut ledgers[node], &out);
                }
                None => touched += 1,
            }
        }
        let newf = {
            let (vol, pool) = machine.nodes[node].vp();
            w.finish(vol, pool, &mut ledgers[node])
        };
        exec::delete_file(machine, node, fragments[node]);
        new_fragments.push(newf);
    }
    {
        let r = machine.relation_mut(rel);
        r.fragments = new_fragments;
        r.tuples = kept_tuples;
        r.data_bytes = kept_bytes;
    }
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let phases = vec![PhaseRecord::new(label, ledgers, sched)];
    let report = finish_op(machine, phases, kept_tuples);
    (touched, report)
}

/// A B+-tree index over one integer attribute of a stored relation: one
/// tree per disk node mapping attribute value → page index within the
/// node's fragment (WiSS's B+ indices, §2.2).
pub struct BTreeIndex {
    rel: RelationId,
    attr: Attr,
    per_node: Vec<BPlusTree<u32, u32>>,
}

/// Build an index by scanning the relation once.
pub fn build_index(machine: &mut Machine, rel: RelationId, attr: Attr) -> (BTreeIndex, OpReport) {
    let cost = machine.cfg.cost.clone();
    let fragments = machine.relation(rel).fragments.clone();
    let disk_nodes = machine.disk_nodes();
    let mut per_node = Vec::with_capacity(disk_nodes.len());
    let mut ledgers = machine.ledgers();
    for &node in &disk_nodes {
        let mut tree = BPlusTree::new();
        let file = fragments[node];
        let pages = machine.nodes[node].vol().file_pages(file);
        for p in 0..pages {
            machine.nodes[node]
                .pool
                .as_mut()
                .unwrap()
                .charge_read(file, p, &mut ledgers[node]);
            let page = machine.nodes[node].vol().page(file, p);
            for rec in page.records() {
                cost.charge(&mut ledgers[node], cost.build_insert_us);
                tree.insert(attr.get(rec), p as u32);
            }
        }
        // Writing the index back: roughly one page per 64-entry leaf.
        let leaves = (tree.len() as u64).div_ceil(64);
        for _ in 0..leaves {
            ledgers[node].disk(SimTime::from_us(cost.disk.seq_write_us));
            ledgers[node].counts.pages_written += 1;
            gamma_metrics::counter_add("pages_written", node as u16, "index", 1);
            gamma_trace::emit(
                node as u16,
                ledgers[node].total_demand().as_us(),
                gamma_trace::EventKind::DiskWrite {
                    file: file as u32,
                    page: u32::MAX, // modeled index I/O, no real page
                },
            );
        }
        per_node.push(tree);
    }
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let phases = vec![PhaseRecord::new("build index", ledgers, sched)];
    let report = finish_op(machine, phases, 0);
    (
        BTreeIndex {
            rel,
            attr,
            per_node,
        },
        report,
    )
}

/// Indexed selection: walk the index for the qualifying range, read only
/// the pages that hold candidates, re-check the predicate, and store the
/// survivors. Far cheaper than a sequential scan for selective predicates
/// — the reason Gamma ran indexed selections for the `joinAselB` family.
pub fn select_indexed(
    machine: &mut Machine,
    index: &BTreeIndex,
    pred: RangePred,
    store_as: &str,
) -> (RelationId, OpReport) {
    assert_eq!(
        index.attr.offset, pred.attr.offset,
        "predicate must be on the indexed attribute"
    );
    let cost = machine.cfg.cost.clone();
    let rel = index.rel;
    let fragments = machine.relation(rel).fragments.clone();
    let schema = machine.relation(rel).schema.clone();
    let disk_nodes = machine.disk_nodes();
    let mut sink = ResultSink::new(machine);
    let mut route = ResultRoute::new(0, disk_nodes.len());
    let mut ledgers = machine.ledgers();
    for &node in &disk_nodes {
        let tree = &index.per_node[node];
        // Charge the root-to-leaf descent.
        for _ in 0..tree.depth() {
            ledgers[node].disk(SimTime::from_us(cost.disk.rand_read_us));
            ledgers[node].counts.pages_read += 1;
            gamma_metrics::counter_add("pages_read", node as u16, "index", 1);
            gamma_trace::emit(
                node as u16,
                ledgers[node].total_demand().as_us(),
                gamma_trace::EventKind::DiskRead {
                    file: fragments[node] as u32,
                    page: u32::MAX, // modeled index descent, no real page
                },
            );
        }
        let mut pages: Vec<u32> = tree
            .range(&pred.lo, &pred.hi)
            .into_iter()
            .map(|(_, &p)| p)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let file = fragments[node];
        let matches: Vec<Vec<u8>> = {
            let mut out = Vec::new();
            for &p in &pages {
                machine.nodes[node].pool.as_mut().unwrap().charge_read(
                    file,
                    p as usize,
                    &mut ledgers[node],
                );
                let page = machine.nodes[node].vol().page(file, p as usize);
                for rec in page.records() {
                    cost.charge(&mut ledgers[node], cost.scan_tuple_us);
                    if pred.eval(rec) {
                        out.push(rec.to_vec());
                    }
                }
            }
            out
        };
        for rec in matches {
            sink.push(machine, &mut ledgers, &mut route, node, &rec);
        }
    }
    sink.flush(machine, &mut ledgers);
    let info = sink.finish(machine, &mut ledgers);
    let sched = dispatch_overhead(machine, &mut ledgers, &disk_nodes, 0);
    let phases = vec![PhaseRecord::new("select (indexed)", ledgers, sched)];
    let id = machine.register_relation(store_as, schema, Declustering::RoundRobin, info.files);
    (id, finish_op(machine, phases, info.tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn machine_with_rel(n: u32) -> (Machine, RelationId, Schema) {
        let schema = Schema::new(vec![
            Field::Int("k".into()),
            Field::Int("v".into()),
            Field::Str("pad".into(), 24),
        ]);
        let mut m = Machine::new(MachineConfig::remote_8_plus_8());
        let tuples: Vec<Vec<u8>> = (0..n)
            .map(|k| {
                let mut t = vec![0u8; 32];
                schema.int_attr("k").put(&mut t, k);
                schema.int_attr("v").put(&mut t, k % 10);
                t
            })
            .collect();
        let id = m.load_relation("t", schema.clone(), Declustering::RoundRobin, tuples);
        (m, id, schema)
    }

    #[test]
    fn select_filters_and_stores() {
        let (mut m, rel, schema) = machine_with_rel(1_000);
        let pred = RangePred {
            attr: schema.int_attr("k"),
            lo: 100,
            hi: 299,
        };
        let (out, report) = select(&mut m, rel, pred, "sel");
        assert_eq!(report.tuples_out, 200);
        assert_eq!(m.relation(out).tuples, 200);
        assert!(report.response > SimTime::ZERO);
    }

    #[test]
    fn project_narrows_tuples() {
        let (mut m, rel, _schema) = machine_with_rel(500);
        let (out, report) = project(&mut m, rel, &["v", "k"], "proj");
        assert_eq!(report.tuples_out, 500);
        let r = m.relation(out);
        assert_eq!(r.schema.tuple_bytes(), 8);
        assert_eq!(r.data_bytes, 500 * 8);
        // First field is now v.
        assert_eq!(r.schema.int_attr("v").offset, 0);
    }

    #[test]
    fn scalar_aggregates() {
        let (mut m, rel, schema) = machine_with_rel(1_000);
        let k = schema.int_attr("k");
        let (count, _) = aggregate_scalar(&mut m, rel, k, AggFn::Count, None);
        assert_eq!(count, 1_000);
        let (sum, _) = aggregate_scalar(&mut m, rel, k, AggFn::Sum, None);
        assert_eq!(sum, (0..1_000u64).sum());
        let (min, _) = aggregate_scalar(&mut m, rel, k, AggFn::Min, None);
        assert_eq!(min, 0);
        let (max, _) = aggregate_scalar(&mut m, rel, k, AggFn::Max, None);
        assert_eq!(max, 999);
        let pred = RangePred {
            attr: k,
            lo: 10,
            hi: 19,
        };
        let (cnt, _) = aggregate_scalar(&mut m, rel, k, AggFn::Count, Some(pred));
        assert_eq!(cnt, 10);
    }

    #[test]
    fn group_by_on_diskless_nodes() {
        let (mut m, rel, schema) = machine_with_rel(1_000);
        let agg_nodes = m.diskless_nodes();
        let (out, report) = aggregate_group(
            &mut m,
            rel,
            schema.int_attr("v"),
            schema.int_attr("k"),
            AggFn::Count,
            agg_nodes,
            "counts",
        );
        assert_eq!(report.tuples_out, 10, "10 groups (k % 10)");
        let r = m.relation(out);
        assert_eq!(r.tuples, 10);
        // Sum the counts back: must equal the input cardinality.
        let total: u64 = (0..m.cfg.disk_nodes)
            .flat_map(|n| {
                let vol = m.nodes[n].vol();
                let f = r.fragments[n];
                (0..vol.file_pages(f))
                    .flat_map(move |p| vol.page(f, p).records().map(|rec| rec.to_vec()))
                    .collect::<Vec<_>>()
            })
            .map(|rec| u32::from_le_bytes(rec[4..8].try_into().unwrap()) as u64)
            .sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn group_by_sum_matches_model() {
        let (mut m, rel, schema) = machine_with_rel(777);
        let agg_nodes = m.disk_nodes();
        let (out, _) = aggregate_group(
            &mut m,
            rel,
            schema.int_attr("v"),
            schema.int_attr("k"),
            AggFn::Sum,
            agg_nodes,
            "sums",
        );
        let mut model = std::collections::HashMap::<u32, u64>::new();
        for k in 0..777u32 {
            *model.entry(k % 10).or_default() += k as u64;
        }
        let r = m.relation(out);
        let mut got = std::collections::HashMap::<u32, u64>::new();
        for n in 0..m.cfg.disk_nodes {
            let vol = m.nodes[n].vol();
            let f = r.fragments[n];
            for p in 0..vol.file_pages(f) {
                for rec in vol.page(f, p).records() {
                    let g = u32::from_le_bytes(rec[0..4].try_into().unwrap());
                    let v = u32::from_le_bytes(rec[4..8].try_into().unwrap());
                    got.insert(g, v as u64);
                }
            }
        }
        assert_eq!(got, model);
    }

    #[test]
    fn indexed_selection_beats_sequential_io() {
        let (mut m, rel, schema) = machine_with_rel(20_000);
        let k = schema.int_attr("k");
        let (index, build) = build_index(&mut m, rel, k);
        assert!(build.total.counts.pages_read > 0);
        let pred = RangePred {
            attr: k,
            lo: 500,
            hi: 549,
        };
        m.clear_pools();
        let (out, idx_report) = select_indexed(&mut m, &index, pred, "idx_sel");
        assert_eq!(idx_report.tuples_out, 50);
        assert_eq!(m.relation(out).tuples, 50);
        m.clear_pools();
        let (out2, seq_report) = select(&mut m, rel, pred, "seq_sel");
        assert_eq!(seq_report.tuples_out, 50);
        assert_eq!(m.relation(out2).tuples, 50);
        assert!(
            idx_report.total.counts.pages_read < seq_report.total.counts.pages_read / 2,
            "index must slash page reads: {} vs {}",
            idx_report.total.counts.pages_read,
            seq_report.total.counts.pages_read
        );
        assert!(idx_report.response < seq_report.response);
    }

    #[test]
    fn delete_where_removes_and_rewrites() {
        let (mut m, rel, schema) = machine_with_rel(1_000);
        let k = schema.int_attr("k");
        let pred = RangePred {
            attr: k,
            lo: 0,
            hi: 249,
        };
        let (deleted, report) = delete_where(&mut m, rel, pred);
        assert_eq!(deleted, 250);
        assert_eq!(m.relation(rel).tuples, 750);
        assert!(report.total.counts.pages_written > 0);
        // The deleted keys are really gone from storage.
        let (count, _) = aggregate_scalar(&mut m, rel, k, AggFn::Count, Some(pred));
        assert_eq!(count, 0);
        let (count, _) = aggregate_scalar(&mut m, rel, k, AggFn::Count, None);
        assert_eq!(count, 750);
    }

    #[test]
    fn update_where_modifies_in_place() {
        let (mut m, rel, schema) = machine_with_rel(500);
        let k = schema.int_attr("k");
        let v = schema.int_attr("v");
        let pred = RangePred {
            attr: k,
            lo: 100,
            hi: 199,
        };
        let (touched, _) = update_where(&mut m, rel, pred, v, 777);
        assert_eq!(touched, 100);
        assert_eq!(m.relation(rel).tuples, 500, "no tuples lost");
        let sel = RangePred {
            attr: v,
            lo: 777,
            hi: 777,
        };
        let (count, _) = aggregate_scalar(&mut m, rel, v, AggFn::Count, Some(sel));
        assert_eq!(count, 100);
        // Untouched region intact.
        let (min, _) = aggregate_scalar(&mut m, rel, k, AggFn::Min, None);
        assert_eq!(min, 0);
    }

    #[test]
    fn delete_everything_leaves_empty_relation() {
        let (mut m, rel, schema) = machine_with_rel(200);
        let k = schema.int_attr("k");
        let pred = RangePred {
            attr: k,
            lo: 0,
            hi: u32::MAX,
        };
        let (deleted, _) = delete_where(&mut m, rel, pred);
        assert_eq!(deleted, 200);
        assert_eq!(m.relation(rel).tuples, 0);
        assert_eq!(m.relation(rel).data_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "predicate must be on the indexed attribute")]
    fn index_attr_mismatch_panics() {
        let (mut m, rel, schema) = machine_with_rel(100);
        let (index, _) = build_index(&mut m, rel, schema.int_attr("k"));
        let pred = RangePred {
            attr: schema.int_attr("v"),
            lo: 0,
            hi: 1,
        };
        select_indexed(&mut m, &index, pred, "boom");
    }
}

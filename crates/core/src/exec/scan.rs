//! The `Scan` stage: read a stored fragment, apply an optional selection.
//!
//! Every operator that reads a declustered relation — the four join
//! drivers' build/probe/partition producers and the sequential operators in
//! [`crate::operators`] — funnels through [`scan_fragment`], so scan cost
//! accounting (page reads, per-tuple CPU, the `scan` trace span) lives in
//! exactly one place.
//!
//! Selections are chunk-parallel: predicate evaluation is pure per record,
//! so the keep mask is precomputed on the machine's worker pool
//! ([`pool::map_chunks`]) while page-read and per-tuple charges replay
//! sequentially in record order — the scan's ledger, counts and trace
//! bytes never depend on the pool size.

use gamma_des::Usage;
use gamma_wiss::{FileId, HeapScan};

use crate::algorithms::common::RangePred;
use crate::batch::TupleBatch;
use crate::cost::CostModel;
use crate::exec::{pool, StepCtx};
use crate::machine::{Ledgers, Machine, NodeId, NodeState};

/// Scan one stored fragment from a step worker: charges page reads and
/// per-tuple scan CPU, applies the optional selection, and returns the
/// surviving records as one arena-backed [`TupleBatch`] (two allocations
/// per fragment, not one per tuple).
pub fn scan_fragment(ctx: &mut StepCtx<'_>, file: FileId, pred: Option<RangePred>) -> TupleBatch {
    scan_fragment_inner(ctx.cost, ctx.state, ctx.ledger, ctx.pool, file, pred)
}

fn scan_fragment_inner(
    cost: &CostModel,
    state: &mut NodeState,
    usage: &mut Usage,
    pool: Option<&pool::WorkerPool>,
    file: FileId,
    pred: Option<RangePred>,
) -> TupleBatch {
    let node = state.id;
    gamma_trace::emit(
        node as u16,
        usage.total_demand().as_us(),
        gamma_trace::EventKind::SpanBegin { name: "scan" },
    );
    let mut batch = {
        let (vol, bp) = state.vp();
        let mut scan = HeapScan::open(vol, file);
        let mut batch = TupleBatch::with_capacity(vol.file_records(file), 64);
        while let Some(rec) = scan.next_ref(bp, usage) {
            batch.push(rec);
        }
        batch
    };
    // Pure per-record work, chunked; effects replayed in record order below.
    let keep: Option<Vec<bool>> =
        pred.map(|p| pool::map_chunks(pool, batch.ranges(), |&r| p.eval(batch.slice(r))));
    let scanned = batch.len() as u64;
    for _ in 0..batch.len() {
        cost.charge(usage, cost.scan_tuple_us);
        usage.counts.tuples_in += 1;
    }
    if let Some(mask) = keep {
        batch.retain_indices(|k| mask[k]);
    }
    if scanned > 0 {
        gamma_metrics::counter_add("op_tuples_in", node as u16, "scan", scanned);
    }
    gamma_trace::emit(
        node as u16,
        usage.total_demand().as_us(),
        gamma_trace::EventKind::SpanEnd { name: "scan" },
    );
    batch
}

/// Main-thread convenience for sequential operators: scan at `node` using
/// the machine's state and the phase ledgers.
pub fn scan_fragment_at(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    node: NodeId,
    file: FileId,
    pred: Option<RangePred>,
) -> TupleBatch {
    let Machine {
        cfg, nodes, exec, ..
    } = machine;
    scan_fragment_inner(
        &cfg.cost,
        &mut nodes[node],
        &mut ledgers[node],
        exec.pool.as_deref(),
        file,
        pred,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Declustering, MachineConfig};
    use crate::tuple::{Field, Schema};

    #[test]
    fn scan_fragment_applies_selection_and_charges() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = Schema::new(vec![Field::Int("k".into()), Field::Str("p".into(), 28)]);
        let attr = s.int_attr("k");
        let tuples: Vec<Vec<u8>> = (0..400u32)
            .map(|k| {
                let mut t = vec![0u8; 32];
                attr.put(&mut t, k);
                t
            })
            .collect();
        let id = m.load_relation("t", s, Declustering::RoundRobin, tuples);
        let f0 = m.relation(id).fragments[0];
        let mut ledgers = m.ledgers();
        let pred = RangePred {
            attr,
            lo: 0,
            hi: 99,
        };
        let got = scan_fragment_at(&mut m, &mut ledgers, 0, f0, Some(pred));
        // Node 0 holds k ∈ {0, 8, 16, ...}; of its 50 tuples, those < 100
        // are 0..96 step 8 = 13 tuples.
        assert_eq!(got.len(), 13);
        assert_eq!(ledgers[0].counts.tuples_in, 50);
        assert!(ledgers[0].counts.pages_read > 0);
        assert!(ledgers[0].cpu > gamma_des::SimTime::ZERO);
    }
}

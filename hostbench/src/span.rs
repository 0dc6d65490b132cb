//! Host-time spans wrapped around calls into the simulator's layers.
//!
//! The benchmark times each layer from outside: it calls the layer's
//! public function inside [`Tracer::span`], which adds the call's
//! wall-clock time and the heap allocations made meanwhile to the layer's
//! totals. A layer's *self* time is its busy time minus the time its
//! child spans cover. A disabled tracer (the untraced end-to-end run)
//! just calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use gamma_bench::alloc::allocation_count;

/// Which part of a run a span belongs to; per-layer figures are reported
/// per op (measure) or per set-up repetition (setup). Warm-up spans are
/// kept out of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    Setup,
    Warmup,
    Measure,
}

/// Summed spans of one layer within one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
    pub allocs: u64,
}

/// A span not yet closed.
struct Open {
    stage: Stage,
    layer: &'static str,
    start_ns: u64,
    allocs: u64,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stage: Option<Stage>,
    open: Vec<Open>,
    totals: BTreeMap<(Stage, &'static str), LayerTotals>,
}

/// Span recorder; all methods take `&self` so a span's closure can open
/// nested spans on the same tracer.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute subsequent spans to `stage`.
    pub fn begin(&self, stage: Stage) {
        self.state.borrow_mut().stage = Some(stage);
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let depth = self.open(layer);
        let out = f();
        self.close(depth);
        out
    }

    /// Number of open spans, to hand back to [`Tracer::unwind_to`].
    pub fn depth(&self) -> usize {
        self.state.borrow().open.len()
    }

    /// Close the spans opened since `depth` was taken (after a panic
    /// unwound through them).
    pub fn unwind_to(&self, depth: usize) {
        while self.depth() > depth {
            self.close(self.depth() - 1);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, layer: &'static str) -> usize {
        let start_ns = self.now_ns();
        let allocs = allocation_count();
        let mut st = self.state.borrow_mut();
        let stage = st.stage.expect("Tracer::begin before the first span");
        st.open.push(Open {
            stage,
            layer,
            start_ns,
            allocs,
            child_ns: 0,
        });
        st.open.len() - 1
    }

    fn close(&self, depth: usize) {
        let end_ns = self.now_ns();
        let allocs = allocation_count();
        let mut st = self.state.borrow_mut();
        debug_assert_eq!(st.open.len(), depth + 1, "spans close in LIFO order");
        let open = st.open.pop().expect("a span is open");
        let busy = end_ns - open.start_ns;
        if let Some(parent) = st.open.last_mut() {
            parent.child_ns += busy;
        }
        let t = st.totals.entry((open.stage, open.layer)).or_default();
        t.busy_ns += busy;
        t.self_ns += busy - open.child_ns.min(busy);
        t.calls += 1;
        t.allocs += allocs - open.allocs;
    }

    /// Totals of `layer` within `stage` (zero when never called).
    pub fn totals(&self, stage: Stage, layer: &str) -> LayerTotals {
        let st = self.state.borrow();
        st.totals
            .iter()
            .find(|((s, l), _)| *s == stage && *l == layer)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.begin(Stage::Measure);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.totals(Stage::Measure, "outer");
        let inner = t.totals(Stage::Measure, "inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.busy_ns >= inner.busy_ns);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.totals(Stage::Measure, "x"), LayerTotals::default());
    }
}

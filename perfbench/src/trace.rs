//! Spans the benchmark records around the public calls it makes.
//!
//! Every call is timed; none is sampled. A call the benchmark makes itself
//! is one node with a start and an end. Calls made many times per round (one
//! per user) are timed one by one and kept as one node per round holding
//! their count and summed time, and so are the phase totals read from the
//! program's `Registry` for layers reachable only inside a public call.
//! Nodes live in memory and are written out when the run ends.
//!
//! A layer's self time is its duration minus its child nodes'. Spans the
//! benchmark records run on one thread, and parallel sections inside the
//! program come in as wall-clock phase totals, so no per-worker split is
//! needed.

use hdldp_telemetry::Counter;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One traced call, or the summed calls of one layer below a traced call.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Layer name.
    pub name: &'static str,
    /// The node this one ran inside.
    pub parent: Option<usize>,
    /// Start offset from the tracer's epoch; `None` for summed nodes.
    pub start_ns: Option<u64>,
    /// Duration, summed over the calls.
    pub total_ns: u64,
    /// Calls summed into this node.
    pub calls: u64,
}

/// Per-layer totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls of the layer.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: f64,
    /// Summed duration minus that of the child nodes.
    pub self_ns: f64,
}

/// Records spans while active; a no-op (no clock read) otherwise.
pub struct Tracer {
    enabled: bool,
    active: Cell<bool>,
    epoch: Instant,
    nodes: RefCell<Vec<Node>>,
    open: RefCell<Vec<usize>>,
    last_closed: Cell<Option<usize>>,
}

impl Tracer {
    /// A tracer that records only when `enabled` and switched active.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            active: Cell::new(false),
            epoch: Instant::now(),
            nodes: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            last_closed: Cell::new(None),
        }
    }

    /// Switch recording on or off (it stays off unless enabled).
    pub fn set_active(&self, active: bool) {
        self.active.set(self.enabled && active);
    }

    /// Whether calls are being recorded.
    pub fn is_active(&self) -> bool {
        self.active.get()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.active.get() {
            return f();
        }
        let id = {
            let mut nodes = self.nodes.borrow_mut();
            nodes.push(Node {
                name,
                parent: self.open.borrow().last().copied(),
                start_ns: Some(nanos(self.epoch.elapsed())),
                total_ns: 0,
                calls: 1,
            });
            nodes.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = Instant::now();
        let result = f();
        let elapsed = nanos(start.elapsed());
        self.open.borrow_mut().pop();
        self.nodes.borrow_mut()[id].total_ns = elapsed;
        self.last_closed.set(Some(id));
        result
    }

    /// The span that closed last, to attach summed child nodes to.
    pub fn last_closed(&self) -> Option<usize> {
        self.last_closed.get()
    }

    /// Attach `calls` calls of layer `name`, summing to `total_ns`, below
    /// node `parent`; returns the new node.
    pub fn attach(
        &self,
        parent: Option<usize>,
        name: &'static str,
        calls: u64,
        total_ns: u64,
    ) -> Option<usize> {
        if !self.active.get() {
            return None;
        }
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            name,
            parent,
            start_ns: None,
            total_ns,
            calls,
        });
        Some(nodes.len() - 1)
    }

    /// Per-layer totals, with self time computed per node.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let nodes = self.nodes.borrow();
        let mut children_ns = vec![0.0; nodes.len()];
        for node in nodes.iter() {
            if let Some(parent) = node.parent {
                children_ns[parent] += node.total_ns as f64;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (node, children) in nodes.iter().zip(children_ns) {
            let layer = layers.entry(node.name).or_default();
            layer.calls += node.calls;
            layer.total_ns += node.total_ns as f64;
            layer.self_ns += node.total_ns as f64 - children;
        }
        layers
    }

    /// The nodes as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, node) in self.nodes.borrow().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let end = node.start_ns.map(|s| s + node.total_ns);
            let _ = writeln!(
                out,
                "{}{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"total_ns\": {}, \"calls\": {}}}",
                if id == 0 { "" } else { "," },
                node.name,
                node.parent.map_or("null".to_string(), |p| p.to_string()),
                opt(node.start_ns),
                opt(end),
                node.total_ns,
                node.calls,
            );
        }
        out.push_str("]\n");
        out
    }
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, which drives a parallel ingest over `shard_counters.len()`
/// shards, and return its result with the gap in ms between the first and
/// the last worker to finish.
///
/// A worker's finish time is the last change of its shards' report
/// counters in the program's `Registry`, which advance on every batch
/// flush and so at the end of each shard's walk. A thread polls them every
/// 200 µs. Shards map to workers in contiguous chunks, the way the
/// workspace's rayon stand-in splits them.
pub fn watch_workers<R>(
    shard_counters: &[Counter],
    workers: usize,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let shards = shard_counters.len();
    let workers = workers.clamp(1, shards.max(1));
    let chunk = shards.div_ceil(workers).max(1);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (result, changed) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut last: Vec<u64> = shard_counters.iter().map(Counter::value).collect();
            let mut changed = vec![0u64; shards];
            loop {
                let done = stop.load(Ordering::SeqCst);
                let now = nanos(start.elapsed());
                for ((counter, last), changed) in
                    shard_counters.iter().zip(&mut last).zip(&mut changed)
                {
                    let value = counter.value();
                    if value != *last {
                        *last = value;
                        *changed = now;
                    }
                }
                if done {
                    return changed;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let result = f();
        stop.store(true, Ordering::SeqCst);
        (
            result,
            poller.join().expect("shard-counter poller panicked"),
        )
    });
    let mut finish = vec![0u64; workers];
    for (shard, &at) in changed.iter().enumerate() {
        let worker = (shard / chunk).min(workers - 1);
        finish[worker] = finish[worker].max(at);
    }
    let first = finish.iter().copied().min().unwrap_or(0);
    let last = finish.iter().copied().max().unwrap_or(0);
    (result, (last - first) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let tracer = Tracer::new(true);
        tracer.set_active(true);
        tracer.span("round", || {
            tracer.span("ingest", || std::thread::sleep(Duration::from_millis(4)));
            let ingest = tracer.last_closed();
            tracer.attach(ingest, "client", 10, 2_000_000);
            tracer.attach(ingest, "flush", 4, 1_000_000);
        });
        let layers = tracer.layers();
        let ingest = layers["ingest"];
        assert_eq!(ingest.calls, 1);
        assert!((ingest.self_ns - (ingest.total_ns - 3_000_000.0)).abs() < 1e-6);
        assert_eq!(layers["client"].self_ns, 2_000_000.0);
        assert_eq!(layers["flush"].self_ns, 1_000_000.0);
        let round = layers["round"];
        assert!((round.self_ns - (round.total_ns - ingest.total_ns)).abs() < 1e-6);
        assert!(tracer
            .to_json()
            .contains("\"name\": \"flush\", \"parent\": 1"));
    }

    #[test]
    fn an_inactive_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        assert_eq!(tracer.span("round", || 7), 7);
        assert_eq!(tracer.attach(None, "client", 1, 1), None);
        assert!(tracer.layers().is_empty());
        let disabled = Tracer::new(false);
        disabled.set_active(true);
        assert!(!disabled.is_active());
    }

    #[test]
    fn worker_gap_is_measured_from_counter_changes() {
        let registry = hdldp_telemetry::Registry::new();
        let counters: Vec<Counter> = (0..2).map(|i| registry.counter(&format!("c{i}"))).collect();
        let ((), gap_ms) = watch_workers(&counters, 2, || {
            counters[0].inc();
            std::thread::sleep(Duration::from_millis(20));
            counters[1].inc();
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(gap_ms > 10.0, "gap {gap_ms} ms");
    }
}

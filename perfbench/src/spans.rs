//! Wall-clock spans recorded from outside the program, around the calls
//! into each layer, and their export as a `dgmc_obs::Trace`.
//!
//! Spans stay in memory while a run measures and are written once at the
//! end. A span has a label, a layer lane, a start and an end, and the span
//! that contains it; the outermost spans (one per set-up or pass) are the
//! workload runs, and every span below one carries its id.

use dgmc_mctree::{McAlgorithm, McTopology};
use dgmc_obs::{Span, Trace};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

/// The layer a span belongs to; becomes the Perfetto thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Bench = 0,
    Topology = 1,
    Core = 2,
    Mctree = 3,
    Des = 4,
    Obs = 5,
    Node = 6,
}

#[derive(Debug, Clone)]
struct Rec {
    label: &'static str,
    lane: Lane,
    start: u64,
    end: u64,
    parent: Option<usize>,
    note: Option<String>,
}

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("runs last less than 500 years")
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, label: &'static str, lane: Lane) -> usize {
        let start = self.now();
        self.recs.push(Rec {
            label,
            lane,
            start,
            end: start,
            parent: self.open.last().copied(),
            note: None,
        });
        self.open.push(self.recs.len() - 1);
        self.recs.len() - 1
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let rec = &mut self.recs[id];
        rec.end = end;
        end - rec.start
    }

    /// Records a finished span inside the innermost open one.
    pub fn leaf(&mut self, label: &'static str, lane: Lane, start: u64, end: u64, note: String) {
        self.recs.push(Rec {
            label,
            lane,
            start,
            end,
            parent: self.open.last().copied(),
            note: (!note.is_empty()).then_some(note),
        });
    }

    /// Number of spans recorded.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, label: &'static str, lane: Lane, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(label, lane);
        let out = f();
        (out, self.close(id))
    }

    /// The spans as a causal `Trace`, which requires every child to start
    /// exactly when its parent ends. Each recorded span is emitted as is;
    /// the time between the children of a span becomes a `<label>.self`
    /// span, so a span's interval is covered end to end by a chain of its
    /// children and self spans that hangs off the span's predecessor. Each
    /// outermost span gets a zero-length root marker: one operation (trace
    /// id) per workload run.
    pub fn to_trace(&self) -> Trace {
        assert!(self.open.is_empty(), "export after every span closed");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.recs.len()];
        let mut tops = Vec::new();
        for (i, rec) in self.recs.iter().enumerate() {
            match rec.parent {
                Some(p) => children[p].push(i),
                None => tops.push(i),
            }
        }
        let mut out = Exporter {
            recs: &self.recs,
            children: &children,
            spans: Vec::with_capacity(self.recs.len() * 2 + tops.len()),
        };
        for top in tops {
            let rec = &self.recs[top];
            let root = out.push("run", Lane::Bench, rec.start, rec.start, 0, None);
            out.emit(top, root);
        }
        Trace { spans: out.spans }
    }
}

struct Exporter<'a> {
    recs: &'a [Rec],
    children: &'a [Vec<usize>],
    spans: Vec<Span>,
}

impl Exporter<'_> {
    fn push(
        &mut self,
        label: &str,
        lane: Lane,
        start: u64,
        end: u64,
        parent: u64,
        note: Option<&String>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let (trace, depth) = if parent == 0 {
            (id, 0)
        } else {
            let p = &self.spans[parent as usize - 1];
            (p.trace, p.depth + 1)
        };
        self.spans.push(Span {
            id,
            trace,
            parent,
            depth,
            from: None,
            to: lane as u32,
            start_ns: start,
            end_ns: end,
            label: label.to_owned(),
            notes: note.into_iter().cloned().collect(),
        });
        id
    }

    /// Emits `rec` and the chain covering it, both hanging off `pred`
    /// (a span that ends where `rec` starts); returns `rec`'s span id.
    fn emit(&mut self, idx: usize, pred: u64) -> u64 {
        let rec = &self.recs[idx];
        let own = self.push(
            rec.label,
            rec.lane,
            rec.start,
            rec.end,
            pred,
            rec.note.as_ref(),
        );
        let kids = &self.children[idx];
        if kids.is_empty() {
            return own;
        }
        let self_label = format!("{}.self", rec.label);
        let mut cursor = pred;
        let mut at = rec.start;
        for &kid in kids {
            let k = &self.recs[kid];
            debug_assert!(k.start >= at && k.end <= rec.end, "children nest in order");
            if k.start > at {
                cursor = self.push(&self_label, rec.lane, at, k.start, cursor, None);
            }
            cursor = self.emit(kid, cursor);
            at = k.end;
        }
        if rec.end > at {
            self.push(&self_label, rec.lane, at, rec.end, cursor, None);
        }
        own
    }
}

/// Totals of the calls a [`TimedAlgorithm`] served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTotals {
    pub calls: u64,
    /// Wall time inside the calls.
    pub nanos: u64,
    /// SPF-miss wall time spent inside the calls.
    pub spf_miss_nanos: u64,
}

impl CallTotals {
    pub fn self_nanos(&self) -> u64 {
        self.nanos.saturating_sub(self.spf_miss_nanos)
    }
}

/// A timing `McAlgorithm` around another one: records one `mctree.compute`
/// span per call (annotated with the SPF-miss time spent inside it) and
/// keeps the SPF cache it was handed, so the layer's totals can be read
/// from outside after the run.
#[derive(Debug)]
pub struct TimedAlgorithm<A> {
    inner: A,
    recorder: Rc<RefCell<Recorder>>,
    totals: RefCell<CallTotals>,
    cache: RefCell<Option<SpfCache>>,
}

impl<A: McAlgorithm> TimedAlgorithm<A> {
    pub fn new(inner: A, recorder: Rc<RefCell<Recorder>>) -> TimedAlgorithm<A> {
        TimedAlgorithm {
            inner,
            recorder,
            totals: RefCell::new(CallTotals::default()),
            cache: RefCell::new(None),
        }
    }

    pub fn totals(&self) -> CallTotals {
        *self.totals.borrow()
    }

    /// The SPF cache the program handed to the first call.
    pub fn cache(&self) -> Option<SpfCache> {
        self.cache.borrow().clone()
    }
}

impl<A: McAlgorithm> McAlgorithm for TimedAlgorithm<A> {
    fn compute_with(
        &self,
        net: &Network,
        terminals: &BTreeSet<NodeId>,
        previous: Option<&McTopology>,
        cache: &SpfCache,
    ) -> McTopology {
        self.cache.borrow_mut().get_or_insert_with(|| cache.clone());
        let miss_before = cache.stats().miss_nanos;
        let start = self.recorder.borrow().now();
        let topology = self.inner.compute_with(net, terminals, previous, cache);
        let end = self.recorder.borrow().now();
        let miss = cache.stats().miss_nanos - miss_before;
        let mut totals = self.totals.borrow_mut();
        totals.calls += 1;
        totals.nanos += end - start;
        totals.spf_miss_nanos += miss;
        let note = if miss > 0 {
            format!("spf_miss_ns={miss}")
        } else {
            String::new()
        };
        self.recorder
            .borrow_mut()
            .leaf("mctree.compute", Lane::Mctree, start, end, note);
        topology
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::SphStrategy;
    use rand::SeedableRng;

    #[test]
    fn timed_algorithm_returns_the_bare_topologies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let net = dgmc_topology::generate::waxman(
            &mut rng,
            60,
            &dgmc_topology::generate::WaxmanParams::default(),
        );
        let recorder = Rc::new(RefCell::new(Recorder::new()));
        let timed = TimedAlgorithm::new(SphStrategy::new(), recorder.clone());
        let bare = SphStrategy::new();
        let (bare_cache, timed_cache) = (SpfCache::new(), SpfCache::new());
        let mut prev_bare: Option<McTopology> = None;
        let mut prev_timed: Option<McTopology> = None;
        let mut terminals = BTreeSet::new();
        for step in 0..12u32 {
            let node = NodeId(step * 5 % 60);
            if !terminals.insert(node) {
                terminals.remove(&node);
            }
            let a = bare.compute_with(&net, &terminals, prev_bare.as_ref(), &bare_cache);
            let b = timed.compute_with(&net, &terminals, prev_timed.as_ref(), &timed_cache);
            assert_eq!(a, b, "step {step}");
            prev_bare = Some(a);
            prev_timed = Some(b);
        }
        assert_eq!(timed.totals().calls, 12);
        assert_eq!(recorder.borrow().len(), 12);
        assert_eq!(bare_cache.stats().hits, timed_cache.stats().hits);
        assert_eq!(bare_cache.stats().misses, timed_cache.stats().misses);
    }

    #[test]
    fn nested_spans_export_as_a_valid_trace() {
        let mut rec = Recorder::new();
        for _ in 0..2 {
            let pass = rec.open("pass", Lane::Bench);
            let run = rec.open("core.run", Lane::Core);
            for _ in 0..3 {
                let s = rec.now();
                std::hint::black_box((0..1000).sum::<u64>());
                let e = rec.now();
                rec.leaf("mctree.compute", Lane::Mctree, s, e, "spf_miss_ns=1".into());
            }
            rec.close(run);
            rec.time("des.run", Lane::Des, || ());
            rec.close(pass);
        }
        let trace = rec.to_trace();
        trace.validate().expect("valid causal trace");
        assert_eq!(trace.roots().count(), 2, "one operation per workload run");
        let json = dgmc_obs::chrome_trace_json(&trace);
        assert!(dgmc_obs::JsonValue::parse(&json).is_ok());
        let computes = trace
            .spans
            .iter()
            .filter(|s| s.label == "mctree.compute")
            .count();
        assert_eq!(computes, 6);
    }
}

use crate::net::{DeliveryKind, NetModel, NetStats};
use crate::stats::CounterHandle;
use crate::{SimDuration, SimTime};
use dgmc_obs::{
    DecisionEvent, DecisionKind, FaultKind, MetricsRegistry, SharedObserver, SharedTracer,
    StampSnapshot, Trace,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// Identifier of an actor registered with a [`Simulation`].
///
/// The D-GMC layers register one actor per network switch and keep
/// `ActorId(i) == NodeId(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A message delivery: who sent what to whom.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// The recipient.
    pub to: ActorId,
    /// The sender, or `None` for externally injected events and self timers.
    pub from: Option<ActorId>,
    /// The payload.
    pub msg: M,
}

/// A simulated processing entity (a network switch, a workload driver, ...).
///
/// Actors never block: [`Actor::handle`] runs to completion at one instant of
/// simulated time, scheduling future work through the [`Ctx`]. Long-running
/// computations (the paper's `Tc`) are modeled by scheduling a completion
/// timer and reacting to it.
pub trait Actor<M> {
    /// Reacts to a delivered message.
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, env: Envelope<M>);

    /// Optional downcasting hook for post-run inspection.
    ///
    /// Actors that want experiment harnesses to read their state return
    /// `Some(self)`; the default hides the actor.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[derive(Debug)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    env: Envelope<M>,
    /// Causal span covering this delivery (0 when causal tracing is off or
    /// was off when the message was scheduled).
    span: u64,
}

// Order by (time, seq): FIFO among simultaneous events, hence deterministic.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A function rendering a message into a short trace label.
type Labeler<M> = Box<dyn Fn(&M) -> String>;

/// Why a simulation run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The safety event budget was exhausted (likely a livelock bug).
    EventBudgetExhausted,
}

/// The scheduling surface actors see while handling a message.
///
/// Borrows the simulation's queue and counters; all sends are timestamped
/// relative to the current instant.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    queue: &'a mut BinaryHeap<Reverse<Scheduled<M>>>,
    seq: &'a mut u64,
    metrics: &'a mut MetricsRegistry,
    net: Option<&'a mut (dyn NetModel + 'static)>,
    net_stats: &'a mut NetStats,
    observer: &'a SharedObserver,
    tracer: &'a SharedTracer,
    span_labeler: Option<&'a Labeler<M>>,
}

/// Counter names bumped by the simulator when a network model is installed.
pub mod net_counters {
    /// Actor-to-actor sends routed through the model.
    pub const SENT: &str = "net.sent";
    /// Messages hard-dropped by the model.
    pub const DROPPED: &str = "net.dropped";
    /// Extra copies injected by the model.
    pub const DUPLICATED: &str = "net.duplicated";
    /// Recovered retransmission rounds (late deliveries, not extra copies).
    pub const RETRANSMITS: &str = "net.retransmits";
}

impl<'a, M> Ctx<'a, M> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    fn push(&mut self, to: ActorId, from: Option<ActorId>, delay: SimDuration, msg: M) -> u64 {
        let at = self.now + delay;
        let labeler = self.span_labeler;
        let span = self.tracer.on_send(
            from.map(|a| a.0),
            to.0,
            self.now.as_nanos(),
            at.as_nanos(),
            || labeler.map_or_else(|| "msg".to_owned(), |l| l(&msg)),
        );
        *self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: *self.seq,
            env: Envelope { to, from, msg },
            span,
        }));
        span
    }

    fn emit_fault(&mut self, fault: FaultKind, to: ActorId) {
        let from = self.self_id;
        self.observer.emit(|now| DecisionEvent {
            at_nanos: now,
            mc: 0,
            switch: from.0,
            kind: DecisionKind::FaultInjected { fault, peer: to.0 },
            stamps: StampSnapshot::empty(),
        });
    }

    /// Schedules `msg` for delivery to `to` after `delay`, sent by the
    /// current actor.
    ///
    /// When a [`NetModel`] is installed on the simulation (see
    /// [`Simulation::set_net_model`]), the message is routed through it and
    /// may be delayed, duplicated, retransmitted or dropped; the model's
    /// verdict is mirrored into the [`net_counters`] metrics, the
    /// simulation-wide [`NetStats`], and `FaultInjected` decision events.
    pub fn send(&mut self, to: ActorId, delay: SimDuration, msg: M)
    where
        M: Clone,
    {
        let Some(model) = self.net.as_deref_mut() else {
            self.push(to, Some(self.self_id), delay, msg);
            return;
        };
        let deliveries = model.route(self.self_id, to, self.now, delay);
        self.net_stats.sent += 1;
        *self.metrics.counter_slot(net_counters::SENT) += 1;
        if deliveries.is_empty() {
            self.net_stats.dropped += 1;
            *self.metrics.counter_slot(net_counters::DROPPED) += 1;
            self.emit_fault(FaultKind::Drop, to);
            // A dropped message still gets a (zero-length) span so traces
            // show where convergence time went: the span never dispatches.
            let now_ns = self.now.as_nanos();
            let labeler = self.span_labeler;
            let span = self
                .tracer
                .on_send(Some(self.self_id.0), to.0, now_ns, now_ns, || {
                    labeler.map_or_else(|| "msg".to_owned(), |l| l(&msg))
                });
            self.tracer.annotate(span, || "fault:drop".to_owned());
            return;
        }
        let mut msg = Some(msg);
        let last = deliveries.len() - 1;
        for (i, d) in deliveries.into_iter().enumerate() {
            let mut fault_note: Option<String> = None;
            match d.kind {
                DeliveryKind::Original => {}
                DeliveryKind::Retransmit(rounds) => {
                    self.net_stats.retransmits += rounds as u64;
                    *self.metrics.counter_slot(net_counters::RETRANSMITS) += rounds as u64;
                    self.emit_fault(FaultKind::Retransmit, to);
                    fault_note = Some(format!("fault:retransmit rounds={rounds}"));
                }
                DeliveryKind::Duplicate => {
                    self.net_stats.duplicated += 1;
                    *self.metrics.counter_slot(net_counters::DUPLICATED) += 1;
                    self.emit_fault(FaultKind::Duplicate, to);
                    fault_note = Some("fault:duplicate".to_owned());
                }
            }
            self.net_stats.delivered += 1;
            // Unwrap audit: `msg` is Some until the `i == last` arm takes it,
            // and the loop ends there — structural invariant, not a race.
            let m = if i == last {
                msg.take().expect("last delivery consumes the message")
            } else {
                msg.as_ref().expect("message present until last").clone()
            };
            let jitter = d.delay.as_nanos().saturating_sub(delay.as_nanos());
            let span = self.push(to, Some(self.self_id), d.delay, m);
            if let Some(note) = fault_note {
                self.tracer.annotate(span, || note);
            }
            if jitter > 0 {
                self.tracer
                    .annotate(span, || format!("fault:jitter +{jitter}ns"));
            }
        }
    }

    /// Schedules a timer: `msg` is delivered back to the current actor after
    /// `delay` with `from == None`. Timers are not network traffic and
    /// bypass any installed [`NetModel`].
    pub fn schedule_self(&mut self, delay: SimDuration, msg: M) {
        self.push(self.self_id, None, delay, msg);
    }

    /// Returns a handle to the named simulation-wide counter.
    ///
    /// Counters are created on first use and readable after the run through
    /// [`Simulation::counter_value`]. The name is interned once by the
    /// registry; repeat lookups do not allocate.
    pub fn counter(&mut self, name: &str) -> CounterHandle<'_> {
        CounterHandle::from_slot(self.metrics.counter_slot(name))
    }

    /// The simulation-wide metrics registry (counters and histograms).
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }
}

/// The event-driven simulation engine.
///
/// Deterministic by construction: events at equal instants are delivered in
/// scheduling order, and all randomness lives in the actors (which should be
/// seeded explicitly).
pub struct Simulation<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    now: SimTime,
    metrics: MetricsRegistry,
    observer: SharedObserver,
    events_processed: u64,
    event_budget: u64,
    tracer: SharedTracer,
    span_labeler: Option<Labeler<M>>,
    net: Option<Box<dyn NetModel>>,
    net_stats: NetStats,
}

impl<M> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("actors", &self.actors.len())
            .field("pending", &self.queue.len())
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Simulation<M> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            metrics: MetricsRegistry::new(),
            observer: SharedObserver::new(),
            events_processed: 0,
            event_budget: u64::MAX,
            tracer: SharedTracer::new(),
            span_labeler: None,
            net: None,
            net_stats: NetStats::default(),
        }
    }

    /// Installs a network model on the actor-to-actor delivery path.
    ///
    /// Every subsequent [`Ctx::send`] is routed through it; timers and
    /// [`Simulation::inject`] are unaffected. See [`crate::net`].
    pub fn set_net_model(&mut self, model: impl NetModel + 'static) {
        self.net = Some(Box::new(model));
    }

    /// Removes the network model; delivery reverts to the exact requested
    /// delays.
    pub fn clear_net_model(&mut self) {
        self.net = None;
    }

    /// Message accounting across the network model (all zeros when no model
    /// was ever installed).
    pub fn net_stats(&self) -> &NetStats {
        &self.net_stats
    }

    /// Caps the total number of events the engine will process, as a
    /// protection against protocol livelocks. Default: unlimited.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Enables causal span tracing: from now on every injected event opens a
    /// root span, every send/timer scheduled during a dispatch becomes a
    /// child span of the dispatching delivery, and the `labeler` renders
    /// message payloads into span labels.
    ///
    /// Spans accumulate until [`Simulation::take_causal_trace`]. Enable at a
    /// quiescent instant (empty queue): messages scheduled before enabling
    /// carry no span, so their sends would open spurious roots.
    pub fn enable_causal_trace(&mut self, labeler: impl Fn(&M) -> String + 'static) {
        self.tracer.enable();
        self.span_labeler = Some(Box::new(labeler));
    }

    /// The shared causal tracer (disabled until
    /// [`Simulation::enable_causal_trace`]). Clone it into an observer sink
    /// to annotate spans with decision events, or use it to annotate the
    /// currently dispatching span from harness code.
    pub fn causal_tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// Stops causal tracing and returns the collected trace (None when
    /// tracing was never enabled).
    pub fn take_causal_trace(&mut self) -> Option<Trace> {
        self.tracer.take()
    }

    /// Registers an actor and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the actor count would exceed the `u32` id space (a silent
    /// `as u32` truncation here would alias two distinct actors).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = u32::try_from(self.actors.len())
            .expect("actor count exceeds the u32 ActorId space — ids would alias");
        self.actors.push(Some(actor));
        ActorId(id)
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Returns `true` if no events are pending.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Injects an external event for `to`, `delay` after the current instant.
    ///
    /// With causal tracing enabled, each injection opens a root span (the
    /// protocol-initiating event of one operation).
    pub fn inject(&mut self, to: ActorId, delay: SimDuration, msg: M) {
        let at = self.now + delay;
        let labeler = self.span_labeler.as_ref();
        let span = self
            .tracer
            .on_send(None, to.0, self.now.as_nanos(), at.as_nanos(), || {
                labeler.map_or_else(|| "msg".to_owned(), |l| l(&msg))
            });
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            env: Envelope {
                to,
                from: None,
                msg,
            },
            span,
        }));
    }

    /// Reads a counter's value (0 if the counter was never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.metrics.counters_map()
    }

    /// Read access to the metrics registry (counters and histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the metrics registry between runs.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The decision-event observer shared with protocol actors.
    ///
    /// Disabled (single-branch no-op) until a sink is attached, e.g. via
    /// [`dgmc_obs::SharedObserver::attach_log`]. The engine keeps its clock
    /// in sync with simulated time during [`Simulation::run_until`]. Actors
    /// receive a clone of this handle when they are built — see
    /// the D-GMC switch layer for the pattern.
    pub fn observer(&self) -> &SharedObserver {
        &self.observer
    }

    /// Resets all counters and histograms to zero (values, not names).
    pub fn reset_counters(&mut self) {
        self.metrics.reset();
    }

    /// Grants read access to a registered actor between runs.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the actor is currently being dispatched.
    pub fn actor_ref(&self, id: ActorId) -> &dyn Actor<M> {
        self.actors[id.index()]
            .as_deref()
            .expect("actor is not mid-dispatch")
    }

    /// Downcasts a registered actor to a concrete type via
    /// [`Actor::as_any`].
    ///
    /// Returns `None` when the actor does not expose itself or is of a
    /// different type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the actor is currently being dispatched.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actor_ref(id).as_any()?.downcast_ref::<T>()
    }

    /// Grants mutable access to a registered actor between runs.
    ///
    /// Intended for workload drivers and post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the actor is currently being dispatched.
    pub fn actor_mut(&mut self, id: ActorId) -> &mut dyn Actor<M> {
        self.actors[id.index()]
            .as_deref_mut()
            .expect("actor is not mid-dispatch")
    }

    /// Runs until the queue drains.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or the first event later than `horizon`
    /// would be delivered (that event stays queued).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.events_processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            let at = match self.queue.peek() {
                None => return RunOutcome::Quiescent,
                Some(Reverse(s)) => s.at,
            };
            if at > horizon {
                return RunOutcome::HorizonReached;
            }
            // Unwrap audit: the peek above returned Some and nothing popped
            // since (single-threaded loop) — structural invariant.
            let Reverse(scheduled) = self.queue.pop().expect("peeked");
            debug_assert!(scheduled.at >= self.now, "event from the past");
            self.now = scheduled.at;
            self.observer.set_now(self.now.as_nanos());
            self.events_processed += 1;
            let idx = scheduled.env.to.index();
            // Take the actor out so it can borrow the queue through Ctx.
            let mut actor = self
                .actors
                .get_mut(idx)
                .and_then(Option::take)
                .unwrap_or_else(|| {
                    panic!("message delivered to unknown actor {}", scheduled.env.to)
                });
            let mut ctx = Ctx {
                now: self.now,
                self_id: scheduled.env.to,
                queue: &mut self.queue,
                seq: &mut self.seq,
                metrics: &mut self.metrics,
                net: self.net.as_deref_mut(),
                net_stats: &mut self.net_stats,
                observer: &self.observer,
                tracer: &self.tracer,
                span_labeler: self.span_labeler.as_ref(),
            };
            self.tracer.begin_dispatch(scheduled.span);
            actor.handle(&mut ctx, scheduled.env);
            self.tracer.end_dispatch();
            self.actors[idx] = Some(actor);
        }
    }

    /// Runs a single event if one is pending; returns its delivery time.
    pub fn step(&mut self) -> Option<SimTime> {
        let at = self.queue.peek().map(|Reverse(s)| s.at)?;
        self.run_until(at);
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Delivery;

    /// Records (time, payload) of everything it receives; optionally pings a
    /// peer.
    struct Recorder {
        seen: Vec<(SimTime, u64)>,
        forward_to: Option<ActorId>,
    }

    impl Actor<u64> for Recorder {
        fn handle(&mut self, ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
            self.seen.push((ctx.now(), env.msg));
            ctx.counter("received").incr();
            if let Some(peer) = self.forward_to {
                if env.msg > 0 {
                    ctx.send(peer, SimDuration::micros(10), env.msg - 1);
                }
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            forward_to: None,
        }
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(recorder()));
        sim.inject(a, SimDuration::micros(30), 3);
        sim.inject(a, SimDuration::micros(10), 1);
        sim.inject(a, SimDuration::micros(20), 2);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        // Inspect through downcast-free pattern: replace actor with a probe.
        assert_eq!(sim.counter_value("received"), 3);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::micros(30));
    }

    #[test]
    fn simultaneous_events_deliver_fifo() {
        struct Probe(Vec<u64>);
        impl Actor<u64> for Probe {
            fn handle(&mut self, _ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
                self.0.push(env.msg);
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(Probe(Vec::new())));
        for k in 0..5 {
            sim.inject(a, SimDuration::micros(5), k);
        }
        sim.run_to_quiescence();
        // Read back through actor_mut: we know the concrete type.
        // (Simulation has no downcasting; re-register pattern.)
        // Instead verify via counters-free approach: drop sim and assert order
        // by using a shared Vec would need interior mutability; simplest is to
        // re-run with a counter asserting monotone order inside the actor.
        struct OrderCheck(u64);
        impl Actor<u64> for OrderCheck {
            fn handle(&mut self, _ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
                assert_eq!(env.msg, self.0, "FIFO violated");
                self.0 += 1;
            }
        }
        let mut sim2 = Simulation::new();
        let b = sim2.add_actor(Box::new(OrderCheck(0)));
        for k in 0..5 {
            sim2.inject(b, SimDuration::micros(5), k);
        }
        assert_eq!(sim2.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(sim2.events_processed(), 5);
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(Recorder {
            seen: Vec::new(),
            forward_to: None,
        }));
        let b = sim.add_actor(Box::new(Recorder {
            seen: Vec::new(),
            forward_to: Some(a),
        }));
        // b forwards counting down: 2 -> a? No: b.forward_to = a, a doesn't forward.
        sim.inject(b, SimDuration::ZERO, 2);
        sim.run_to_quiescence();
        assert_eq!(sim.counter_value("received"), 2);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::micros(10));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(recorder()));
        sim.inject(a, SimDuration::micros(10), 1);
        sim.inject(a, SimDuration::micros(100), 2);
        let outcome = sim.run_until(SimTime::ZERO + SimDuration::micros(50));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.counter_value("received"), 1);
        assert!(!sim.is_quiescent());
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(sim.counter_value("received"), 2);
    }

    #[test]
    fn event_budget_stops_livelocks() {
        struct Looper;
        impl Actor<u64> for Looper {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, _env: Envelope<u64>) {
                ctx.schedule_self(SimDuration::micros(1), 0);
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(Looper));
        sim.set_event_budget(100);
        sim.inject(a, SimDuration::ZERO, 0);
        assert_eq!(sim.run_to_quiescence(), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn schedule_self_has_no_sender() {
        struct TimerCheck;
        impl Actor<u64> for TimerCheck {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
                if env.msg == 0 {
                    ctx.schedule_self(SimDuration::micros(1), 1);
                } else {
                    assert_eq!(env.from, None, "timers carry no sender");
                    assert_eq!(env.to, ctx.self_id());
                }
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(TimerCheck));
        sim.inject(a, SimDuration::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn step_processes_one_instant() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(recorder()));
        sim.inject(a, SimDuration::micros(5), 1);
        sim.inject(a, SimDuration::micros(7), 2);
        assert_eq!(sim.step(), Some(SimTime::ZERO + SimDuration::micros(5)));
        assert_eq!(sim.counter_value("received"), 1);
        assert_eq!(sim.step(), Some(SimTime::ZERO + SimDuration::micros(7)));
        assert_eq!(sim.step(), None);
    }

    #[test]
    fn reset_counters_clears_values() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(recorder()));
        sim.inject(a, SimDuration::ZERO, 1);
        sim.run_to_quiescence();
        assert_eq!(sim.counter_value("received"), 1);
        sim.reset_counters();
        assert_eq!(sim.counter_value("received"), 0);
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn delivery_to_unknown_actor_panics() {
        let mut sim: Simulation<u64> = Simulation::new();
        sim.inject(ActorId(7), SimDuration::ZERO, 0);
        sim.run_to_quiescence();
    }

    #[test]
    fn causal_trace_builds_span_trees_across_actors() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(recorder()));
        let b = sim.add_actor(Box::new(Recorder {
            seen: Vec::new(),
            forward_to: Some(a),
        }));
        sim.enable_causal_trace(|msg| format!("m{msg}"));
        sim.inject(b, SimDuration::micros(5), 2);
        sim.run_to_quiescence();
        let trace = sim.take_causal_trace().unwrap();
        trace.validate().unwrap();
        // Root: the injected m2 to b; child: b's forwarded m1 to a.
        assert_eq!(trace.len(), 2);
        let root = &trace.spans[0];
        assert_eq!((root.parent, root.from, root.to), (0, None, b.0));
        assert_eq!(root.label, "m2");
        assert_eq!(root.end_ns, 5_000);
        let child = &trace.spans[1];
        assert_eq!((child.parent, child.depth), (1, 1));
        assert_eq!(child.from, Some(b.0));
        assert_eq!(child.label, "m1");
        assert_eq!((child.start_ns, child.end_ns), (5_000, 15_000));
        // Tracing is off after take.
        assert!(sim.take_causal_trace().is_none());
    }

    #[test]
    fn timers_become_child_spans_of_their_dispatch() {
        struct TimerActor;
        impl Actor<u64> for TimerActor {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
                if env.msg == 0 {
                    ctx.schedule_self(SimDuration::micros(3), 1);
                }
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(TimerActor));
        sim.enable_causal_trace(|msg| format!("t{msg}"));
        sim.inject(a, SimDuration::ZERO, 0);
        sim.run_to_quiescence();
        let trace = sim.take_causal_trace().unwrap();
        trace.validate().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.spans[1].parent, 1);
        assert_eq!(trace.spans[1].from, None);
        assert_eq!(trace.spans[1].label, "t1");
    }

    /// Drops the first message, duplicates the second (with jitter on the
    /// copy), then delivers cleanly.
    struct ScriptedNet(u32);
    impl NetModel for ScriptedNet {
        fn route(
            &mut self,
            _from: ActorId,
            _to: ActorId,
            _now: SimTime,
            base: SimDuration,
        ) -> Vec<Delivery> {
            self.0 += 1;
            match self.0 {
                1 => Vec::new(),
                2 => vec![
                    Delivery {
                        delay: base,
                        kind: DeliveryKind::Original,
                    },
                    Delivery {
                        delay: base + SimDuration::nanos(250),
                        kind: DeliveryKind::Duplicate,
                    },
                ],
                _ => vec![Delivery {
                    delay: base,
                    kind: DeliveryKind::Original,
                }],
            }
        }
    }

    #[test]
    fn fault_outcomes_annotate_spans() {
        struct Sender;
        impl Actor<u64> for Sender {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, env: Envelope<u64>) {
                if env.from.is_none() && env.to == ActorId(0) {
                    // Two sends: the first is dropped, the second duplicated.
                    ctx.send(ActorId(1), SimDuration::micros(1), 10);
                    ctx.send(ActorId(1), SimDuration::micros(1), 11);
                }
            }
        }
        struct Sink;
        impl Actor<u64> for Sink {
            fn handle(&mut self, _ctx: &mut Ctx<'_, u64>, _env: Envelope<u64>) {}
        }
        let mut sim = Simulation::new();
        let a = sim.add_actor(Box::new(Sender));
        sim.add_actor(Box::new(Sink));
        sim.set_net_model(ScriptedNet(0));
        sim.enable_causal_trace(|msg| format!("m{msg}"));
        sim.inject(a, SimDuration::ZERO, 0);
        sim.run_to_quiescence();
        let trace = sim.take_causal_trace().unwrap();
        trace.validate().unwrap();
        // Root + dropped m10 + original m11 + duplicate m11.
        assert_eq!(trace.len(), 4);
        let dropped = &trace.spans[1];
        assert_eq!(dropped.notes, vec!["fault:drop".to_owned()]);
        assert_eq!(dropped.start_ns, dropped.end_ns);
        assert!(trace.spans[2].notes.is_empty());
        let dup = &trace.spans[3];
        assert_eq!(
            dup.notes,
            vec![
                "fault:duplicate".to_owned(),
                "fault:jitter +250ns".to_owned()
            ]
        );
    }
}

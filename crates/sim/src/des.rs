//! A small discrete-event simulation kernel (the SST-substitute substrate).
//!
//! The paper's evaluation platform is the Structural Simulation Toolkit: a
//! component-based discrete-event simulator where components exchange
//! timestamped messages over links. This module provides that substrate —
//! an event wheel with deterministic ordering, [`Component`]s addressed by
//! id, and latency-carrying message delivery — used by the
//! [`crossbar`](crate::crossbar) microarchitecture model and available for
//! building further component-level models.
//!
//! Determinism: events at equal timestamps are delivered in scheduling
//! order (a monotone sequence number breaks ties), so simulations are
//! exactly reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in cycles.
pub type Time = u64;

/// Identifies a component registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

/// A component reacting to delivered messages.
///
/// `handle` receives the message, the current time, and a scheduler for
/// sending further messages (to itself for wake-ups, or to other
/// components).
pub trait Component<M> {
    /// Reacts to `message` delivered at `now`.
    fn handle(&mut self, message: M, now: Time, scheduler: &mut Scheduler<M>);
}

#[derive(Debug)]
struct Pending<M> {
    at: Time,
    seq: u64,
    to: ComponentId,
    message: M,
}

// Order by (time, seq) — min-heap via Reverse at the call sites.
impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The scheduling interface handed to components during `handle`.
#[derive(Debug)]
pub struct Scheduler<M> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Reverse<Pending<M>>>,
}

impl<M> Scheduler<M> {
    fn new() -> Self {
        Scheduler { now: 0, seq: 0, queue: BinaryHeap::new() }
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Delivers `message` to `to` after `delay` cycles (0 = this cycle,
    /// after currently pending same-cycle events).
    pub fn send(&mut self, to: ComponentId, delay: Time, message: M) {
        let pending = Pending { at: self.now + delay, seq: self.seq, to, message };
        self.seq += 1;
        self.queue.push(Reverse(pending));
    }

    fn pop(&mut self) -> Option<Pending<M>> {
        self.queue.pop().map(|Reverse(p)| p)
    }
}

/// The simulator: owns the components and drives the event wheel.
pub struct Simulation<M> {
    components: Vec<Box<dyn Component<M>>>,
    scheduler: Scheduler<M>,
    delivered: u64,
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("components", &self.components.len())
            .field("now", &self.scheduler.now)
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl<M> Default for Simulation<M> {
    fn default() -> Self {
        Simulation::new()
    }
}

impl<M> Simulation<M> {
    /// Creates an empty simulation at time 0.
    pub fn new() -> Self {
        Simulation { components: Vec::new(), scheduler: Scheduler::new(), delivered: 0 }
    }

    /// Registers a component, returning its id.
    pub fn add_component(&mut self, component: Box<dyn Component<M>>) -> ComponentId {
        self.components.push(component);
        ComponentId(self.components.len() - 1)
    }

    /// Schedules an initial message before the run starts.
    pub fn seed(&mut self, to: ComponentId, at: Time, message: M) {
        let pending = Pending { at, seq: self.scheduler.seq, to, message };
        self.scheduler.seq += 1;
        self.scheduler.queue.push(Reverse(pending));
    }

    /// Runs until the event wheel drains (or `max_events` deliveries, a
    /// runaway guard). Returns the final simulation time.
    ///
    /// # Panics
    ///
    /// Panics if a message addresses an unregistered component.
    pub fn run(&mut self, max_events: u64) -> Time {
        while let Some(pending) = self.scheduler.pop() {
            assert!(
                pending.to.0 < self.components.len(),
                "message to unregistered component {:?}",
                pending.to
            );
            debug_assert!(pending.at >= self.scheduler.now, "time went backwards");
            self.scheduler.now = pending.at;
            self.delivered += 1;
            assert!(
                self.delivered <= max_events,
                "simulation exceeded {max_events} deliveries (runaway?)"
            );
            self.components[pending.to.0].handle(pending.message, pending.at, &mut self.scheduler);
        }
        self.scheduler.now
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Immutable access to a component (for post-run inspection).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unregistered.
    pub fn component(&self, id: ComponentId) -> &dyn Component<M> {
        self.components[id.0].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, Copy)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct PingPong {
        peer: Option<ComponentId>,
        log: Rc<RefCell<Vec<(Time, u32)>>>,
        remaining: u32,
    }

    impl Component<Msg> for PingPong {
        fn handle(&mut self, message: Msg, now: Time, scheduler: &mut Scheduler<Msg>) {
            match message {
                Msg::Ping(n) => {
                    self.log.borrow_mut().push((now, n));
                    if let Some(peer) = self.peer {
                        scheduler.send(peer, 3, Msg::Pong(n));
                    }
                }
                Msg::Pong(n) => {
                    self.log.borrow_mut().push((now, n));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        if let Some(peer) = self.peer {
                            scheduler.send(peer, 2, Msg::Ping(n + 1));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_advances_time_by_link_latency() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let a = sim.add_component(Box::new(PingPong {
            peer: None,
            log: Rc::clone(&log),
            remaining: 2,
        }));
        let b = sim.add_component(Box::new(PingPong {
            peer: None,
            log: Rc::clone(&log),
            remaining: 0,
        }));
        // Wire the peers (components are boxed; re-add with ids known).
        // Simplest: rebuild with known ids.
        let mut sim = Simulation::new();
        let log2 = Rc::new(RefCell::new(Vec::new()));
        let a2 = ComponentId(0);
        let b2 = ComponentId(1);
        sim.add_component(Box::new(PingPong {
            peer: Some(b2),
            log: Rc::clone(&log2),
            remaining: 2,
        }));
        sim.add_component(Box::new(PingPong {
            peer: Some(a2),
            log: Rc::clone(&log2),
            remaining: 2,
        }));
        sim.seed(ComponentId(0), 0, Msg::Ping(0));
        let end = sim.run(100);
        // ping@0 (A), pong@3 (B), ping@5 (B->A? no: B sends Pong to A)...
        // Sequence: A handles Ping@0, sends Pong to B @3; B handles Pong@3,
        // sends Ping to A @5; A handles Ping@5, sends Pong @8; ...
        let entries = log2.borrow();
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[1].0, 3);
        assert_eq!(entries[2].0, 5);
        assert!(end >= 5);
        let _ = (a, b, log);
    }

    struct Counter {
        seen: Vec<u32>,
    }

    impl Component<u32> for Counter {
        fn handle(&mut self, message: u32, _now: Time, _s: &mut Scheduler<u32>) {
            self.seen.push(message);
        }
    }

    #[test]
    fn same_cycle_messages_deliver_in_scheduling_order() {
        let mut sim: Simulation<u32> = Simulation::new();
        let c = sim.add_component(Box::new(Counter { seen: Vec::new() }));
        for i in 0..10 {
            sim.seed(c, 5, i);
        }
        sim.run(100);
        assert_eq!(sim.delivered(), 10);
    }

    #[test]
    fn empty_simulation_ends_at_zero() {
        let mut sim: Simulation<u32> = Simulation::new();
        assert_eq!(sim.run(10), 0);
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn runaway_guard_trips() {
        struct Loopy;
        impl Component<()> for Loopy {
            fn handle(&mut self, _m: (), _now: Time, s: &mut Scheduler<()>) {
                s.send(ComponentId(0), 1, ());
            }
        }
        let mut sim = Simulation::new();
        let c = sim.add_component(Box::new(Loopy));
        sim.seed(c, 0, ());
        sim.run(50);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unknown_target_panics() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.seed(ComponentId(3), 0, 7);
        sim.run(10);
    }
}

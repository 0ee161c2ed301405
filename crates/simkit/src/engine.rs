//! The simulation engine: a clock, an event queue, and a user-supplied
//! model that reacts to events.
//!
//! The engine is deliberately minimal — all domain behaviour (file system,
//! schedulers, network) lives in the model. The model receives each event
//! together with a [`Ctx`] through which it can read the clock, schedule
//! and cancel future events, and draw deterministic random numbers.

use crate::queue::{EventId, EventQueue};
use crate::rng::RngPool;
use crate::time::{SimDuration, SimTime};

/// A simulation model: owns all domain state and reacts to events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event. `ctx` exposes the clock, scheduling, and RNG.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);

    /// Observer hook, invoked by the engine after every handled event.
    ///
    /// Unlike [`Model::handle`] this runs *outside* the event loop's
    /// scheduling surface: the observer receives only read-only
    /// [`DispatchStats`] — no [`Ctx`], no queue access, no RNG — so an
    /// implementation can record telemetry but cannot schedule, cancel,
    /// or draw random numbers. That structural restriction is what lets
    /// instrumentation ride along without perturbing determinism: the
    /// event sequence, RNG draws, and `events_handled` count are
    /// bit-identical whether or not the observer does anything.
    ///
    /// The default implementation is a no-op that the optimizer removes
    /// entirely, so un-instrumented models pay nothing.
    fn observe(&mut self, _stats: &DispatchStats) {}

    /// Tie rank of `event` among events scheduled for the same instant:
    /// lower ranks pop first, equal ranks in scheduling order. Every
    /// schedule call applies it, so an event kind's place within an
    /// instant does not depend on when it was scheduled. The default
    /// ranks everything 0, which is plain FIFO.
    fn tie_rank(_event: &Self::Event) -> u64 {
        0
    }
}

/// Read-only per-dispatch engine statistics handed to [`Model::observe`]
/// after each event is handled.
#[derive(Debug, Clone, Copy)]
pub struct DispatchStats {
    /// Simulated time of the event that was just handled.
    pub now: SimTime,
    /// Total events handled so far, including the one just dispatched.
    pub events_handled: u64,
    /// Events still pending in the queue after this dispatch.
    pub queue_depth: usize,
}

/// Engine services exposed to the model while it handles an event.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    /// The model's [`Model::tie_rank`].
    tie_rank: fn(&E) -> u64,
    rng: &'a mut RngPool,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedule `event` at an absolute instant (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling into the past");
        let rank = (self.tie_rank)(&event);
        self.queue.push_ranked(at.max(self.now), rank, event)
    }

    /// Cancel a pending event. No-op if it already fired or was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Re-arm a single-slot timer: cancel whatever `slot` points at (a
    /// no-op if it already fired) and schedule `event` `delay` from now,
    /// storing the new id back into `slot`. This is the idiom for
    /// periodic per-entity events (heartbeats, service ticks) where the
    /// model keeps exactly one pending event per entity.
    pub fn reschedule_after(&mut self, slot: &mut EventId, delay: SimDuration, event: E) {
        self.cancel(*slot);
        *slot = self.schedule(delay, event);
    }

    /// True if the event is still pending.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }

    /// Deterministic per-stream random number generators.
    pub fn rng(&mut self) -> &mut RngPool {
        self.rng
    }

    /// Request that the run loop stop after this event is handled.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// Outcome of a [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The model called [`Ctx::stop`].
    Stopped,
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon passed before the queue drained.
    HorizonReached,
    /// The event-count safety limit was hit (likely a livelock bug).
    EventLimit,
    /// The wall-clock deadline passed before the run finished.
    WallDeadline,
}

/// A discrete-event simulation over a user model.
pub struct Simulation<M: Model> {
    now: SimTime,
    queue: EventQueue<M::Event>,
    rng: RngPool,
    model: M,
    events_handled: u64,
    /// Hard cap on handled events, to turn accidental livelocks into
    /// detectable failures instead of hangs.
    event_limit: u64,
    /// Wall-clock instant after which `run_until` bails out with
    /// [`RunOutcome::WallDeadline`]. Checked coarsely (every 16384
    /// events) so the hot loop stays branch-cheap.
    wall_deadline: Option<std::time::Instant>,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model`, with all randomness derived from
    /// `seed`.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: RngPool::new(seed),
            model,
            events_handled: 0,
            event_limit: u64::MAX,
            wall_deadline: None,
        }
    }

    /// Cap the total number of events handled (safety valve for tests).
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Abort the run once `budget` of wall-clock time has elapsed,
    /// returning [`RunOutcome::WallDeadline`]. The check piggybacks on
    /// the event counter (every 16384 events), so very short budgets
    /// resolve with that granularity. This is the campaign runner's
    /// livelock guard for models that stay under the event limit but
    /// make no real progress.
    pub fn with_wall_deadline(mut self, budget: std::time::Duration) -> Self {
        self.wall_deadline = Some(std::time::Instant::now() + budget);
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The root seed all RNG streams derive from.
    pub fn root_seed(&self) -> u64 {
        self.rng.root_seed()
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for setup and inspection between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Total events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event before or between runs.
    pub fn schedule(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedule an event at an absolute time before or between runs.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        debug_assert!(at >= self.now);
        let rank = M::tie_rank(&event);
        self.queue.push_ranked(at.max(self.now), rank, event)
    }

    /// Process a single event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, _id, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_handled += 1;
        let mut stop = false;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
            tie_rank: M::tie_rank,
            rng: &mut self.rng,
            stop: &mut stop,
        };
        self.model.handle(&mut ctx, event);
        self.model.observe(&DispatchStats {
            now: self.now,
            events_handled: self.events_handled,
            queue_depth: self.queue.len(),
        });
        true
    }

    /// Run until the queue drains, the model stops, or `horizon` passes.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.events_handled >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            if let Some(deadline) = self.wall_deadline {
                if self.events_handled & 0x3FFF == 0 && std::time::Instant::now() >= deadline {
                    return RunOutcome::WallDeadline;
                }
            }
            let Some(next) = self.queue.peek_time() else {
                return RunOutcome::QueueEmpty;
            };
            if next > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            let (at, _id, event) = self.queue.pop().expect("peeked event vanished");
            self.now = at;
            self.events_handled += 1;
            let mut stop = false;
            let mut ctx = Ctx {
                now: self.now,
                queue: &mut self.queue,
                tie_rank: M::tie_rank,
                rng: &mut self.rng,
                stop: &mut stop,
            };
            self.model.handle(&mut ctx, event);
            self.model.observe(&DispatchStats {
                now: self.now,
                events_handled: self.events_handled,
                queue_depth: self.queue.len(),
            });
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }

    /// Run until the queue drains or the model stops.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down, rescheduling itself.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    enum Tick {
        Tick,
    }

    impl Model for Countdown {
        type Event = Tick;
        fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, _ev: Tick) {
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule(SimDuration::from_secs(10), Tick::Tick);
            } else {
                ctx.stop();
            }
        }
    }

    #[test]
    fn run_advances_clock_and_stops() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 3,
                fired_at: vec![],
            },
            42,
        );
        sim.schedule(SimDuration::from_secs(5), Tick::Tick);
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(
            sim.model().fired_at,
            vec![
                SimTime::from_secs(5),
                SimTime::from_secs(15),
                SimTime::from_secs(25),
                SimTime::from_secs(35),
            ]
        );
        assert_eq!(sim.events_handled(), 4);
    }

    #[test]
    fn horizon_halts_before_event() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 100,
                fired_at: vec![],
            },
            1,
        );
        sim.schedule(SimDuration::from_secs(50), Tick::Tick);
        let outcome = sim.run_until(SimTime::from_secs(20));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(20));
        assert!(sim.model().fired_at.is_empty());
        // Resuming past the event works (the model reschedules at t=60,
        // which is beyond the new horizon).
        let outcome = sim.run_until(SimTime::from_secs(55));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().fired_at, vec![SimTime::from_secs(50)]);
        assert_eq!(sim.now(), SimTime::from_secs(55));
    }

    #[test]
    fn event_limit_detects_livelock() {
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule(SimDuration::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Livelock, 0).with_event_limit(1000);
        sim.schedule(SimDuration::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::EventLimit);
        assert_eq!(sim.events_handled(), 1000);
    }

    #[test]
    fn wall_deadline_halts_livelock() {
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule(SimDuration::ZERO, ());
            }
        }
        // A zero budget trips the very first coarse check, before any
        // event is handled; without it the livelock would spin forever.
        let mut sim = Simulation::new(Livelock, 0).with_wall_deadline(std::time::Duration::ZERO);
        sim.schedule(SimDuration::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::WallDeadline);
        assert_eq!(sim.events_handled(), 0);
    }

    #[test]
    fn generous_wall_deadline_does_not_perturb_run() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 3,
                fired_at: vec![],
            },
            42,
        )
        .with_wall_deadline(std::time::Duration::from_secs(3600));
        sim.schedule(SimDuration::from_secs(5), Tick::Tick);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.events_handled(), 4);
    }

    #[test]
    fn tie_rank_orders_events_scheduled_from_handlers() {
        // Ranked events scheduled from a handler for the current instant
        // still pop after a rank-0 event scheduled later.
        struct Ranked(Vec<u64>);
        impl Model for Ranked {
            type Event = u64;
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
                self.0.push(ev);
                if ev == 0 {
                    ctx.schedule(SimDuration::ZERO, 7);
                    ctx.schedule(SimDuration::ZERO, 3);
                    ctx.schedule(SimDuration::ZERO, 10);
                }
            }
            fn tie_rank(ev: &u64) -> u64 {
                if *ev >= 10 {
                    0
                } else {
                    *ev
                }
            }
        }
        let mut sim = Simulation::new(Ranked(vec![]), 0);
        sim.schedule(SimDuration::ZERO, 0);
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(sim.model().0, vec![0, 10, 3, 7]);
    }

    #[test]
    fn empty_queue_ends_run() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 0,
                fired_at: vec![],
            },
            7,
        );
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert!(!sim.step());
    }
}

//! Cross-thread smoke test for the kernel: simulations are plain owned
//! state, so independent runs may be fanned out across pool workers
//! (this is what `bench::run_grid_with_seeds` does with whole
//! experiments). Pins
//! (a) the kernel types stay `Send`, and (b) results are identical
//! whether runs execute on one thread or many.

use rayon::prelude::*;
use simkit::{Ctx, Model, RngPool, SimDuration, SimTime, Simulation, StreamId};

/// Compile-time audit: kernel state must not grow thread-hostile
/// interior state (Rc, RefCell, raw pointers).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RngPool>();
    assert_send::<simkit::EventQueue<u32>>();
    assert_send::<Simulation<Walker>>();
};

/// A tiny stochastic model: a random walk that reschedules itself a
/// seed-dependent number of times, exercising clock, queue, and RNG.
struct Walker {
    position: i64,
    steps: u32,
}

enum Ev {
    Step,
}

impl Model for Walker {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, _: Ev) {
        use rand::Rng;
        let delta: i64 = ctx.rng().stream(StreamId::Custom(0)).gen_range(-3..=3);
        self.position += delta;
        self.steps += 1;
        if self.steps < 500 {
            ctx.schedule(SimDuration::from_millis(10), Ev::Step);
        }
    }
}

fn run_walk(seed: u64) -> (i64, SimTime) {
    let mut sim = Simulation::new(
        Walker {
            position: 0,
            steps: 0,
        },
        seed,
    );
    sim.schedule(SimDuration::ZERO, Ev::Step);
    sim.run();
    (sim.model().position, sim.now())
}

#[test]
fn parallel_runs_match_sequential_runs() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
    let seeds: Vec<u64> = (0..32).collect();
    let sequential: Vec<(i64, SimTime)> = seeds.iter().map(|&s| run_walk(s)).collect();
    let parallel: Vec<(i64, SimTime)> = seeds.into_par_iter().map(run_walk).collect();
    assert_eq!(sequential, parallel);
    // Sanity: the walk actually depends on the seed.
    assert!(
        sequential.windows(2).any(|w| w[0].0 != w[1].0),
        "all seeds produced the same walk"
    );
}

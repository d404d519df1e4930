//! Timing benches of the discrete-event simulation kernel: the event queue
//! under the classic hold model, and raw engine dispatch rate.
//!
//! ```text
//! cargo bench -p dqa-bench --bench des_kernel            # DQA_QUICK=1 for a smoke run
//! ```

use dqa_bench::timing::BenchGroup;
use dqa_sim::random::{Dist, RngStream};
use dqa_sim::{Engine, EventQueue, Model, Scheduler, SimTime};

/// Hold operations per timed call.
const HOLDS: u64 = 10_000;

/// A queue in the steady state of the hold model: `n` pending events whose
/// times are `Exp(1)` draws after zero.
fn hold_queue(n: usize, rng: &mut RngStream) -> EventQueue<u64> {
    let gap = Dist::exponential(1.0);
    let mut q = EventQueue::new();
    for i in 0..n as u64 {
        q.push(SimTime::new(gap.sample(rng)), i);
    }
    q
}

/// `HOLDS` steps of the classic hold model, the access pattern of a
/// discrete-event loop: pop the earliest event, then schedule one
/// successor at `now + Exp(1)`, so the population stays constant.
fn hold(q: &mut EventQueue<u64>, rng: &mut RngStream) -> u64 {
    let gap = Dist::exponential(1.0);
    let mut sum = 0u64;
    for _ in 0..HOLDS {
        let Some((now, v)) = q.pop() else {
            return sum;
        };
        sum = sum.wrapping_add(v);
        q.push(now + gap.sample(rng), v);
    }
    sum
}

/// The hold model with equal-timestamp bursts: a constant successor delay
/// keeps `n / 16` events tied at each of 16 instants, as constant service
/// times do in a model.
fn hold_bursts(q: &mut EventQueue<u64>) -> u64 {
    let mut sum = 0u64;
    for _ in 0..HOLDS {
        let Some((now, v)) = q.pop() else {
            return sum;
        };
        sum = sum.wrapping_add(v);
        q.push(now + 16.0, v);
    }
    sum
}

/// A self-perpetuating model: every event schedules the next one.
struct Chain {
    remaining: u64,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(0.5, ());
        }
    }
}

fn main() {
    let queue = BenchGroup::new("event_queue (10k hold steps per iteration)");
    for &(name, n) in &[("hold_128", 128), ("hold_1k", 1_000), ("hold_64k", 65_536)] {
        let mut rng = RngStream::new(0x9E37_79B9);
        let mut q = hold_queue(n, &mut rng);
        queue.bench(name, Some(HOLDS), || hold(&mut q, &mut rng));
    }
    let mut bursts = EventQueue::new();
    for i in 0..1_024u64 {
        bursts.push(SimTime::new((i % 16) as f64), i);
    }
    queue.bench("hold_bursts_1k", Some(HOLDS), || hold_bursts(&mut bursts));

    let engine = BenchGroup::new("engine");
    let n = 100_000u64;
    engine.bench("dispatch_chain_100k", Some(n), || {
        let mut e = Engine::new(Chain { remaining: n });
        e.schedule(SimTime::ZERO, ());
        e.run_to_completion();
        e.steps()
    });
}

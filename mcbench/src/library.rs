//! The library path: `suite_1t` and `large_2t`.
//!
//! One caller optimizes each prepared circuit to convergence (a cold
//! job), then resubmits the optimized network to the same optimizer (a
//! warm job: the database already holds every class and the network is a
//! fixpoint, so the flow only confirms convergence). A run makes a fixed
//! number of complete passes over the circuit list, so every circuit
//! weighs the same in every percentile and the sample count, and with it
//! the percentile the tail rule can report, does not depend on speed.
//! Every time is in reference seconds: each pass is scaled by the box
//! speed measured next to its jobs (see [`crate::speed`]).

use std::ops::Range;
use std::time::Instant;

use mc_rng::Rng;
use xag_mc::{run_job, JobSpec, McOptimizer, OptContext};
use xag_network::Xag;

use crate::inputs::Circuit;
use crate::speed::SpeedMeter;
use crate::stats::{median, Outcomes};
use crate::trace::{in_span, Tracer};
use crate::verify::equivalent;

/// How a library workload runs the optimizer.
#[derive(Debug, Clone)]
pub enum Engine {
    /// `McOptimizer` at its default single thread, fresh per pass.
    Facade,
    /// `run_job` with the `paper` flow at `threads` workers, on a context
    /// shared by every pass (warmed in setup).
    Job {
        /// Worker threads.
        threads: usize,
        /// The warm context.
        ctx: Box<OptContext>,
    },
}

/// Worker threads of `large_2t`.
pub const LARGE_THREADS: usize = 2;

/// Seconds one pass takes on the reference machine (2 cores), per
/// workload: `--seconds` is turned into a pass count with these, so a run
/// at the parent commit measures for about `--seconds`.
pub const SUITE_PASS_S: f64 = 3.3;
/// See [`SUITE_PASS_S`].
pub const LARGE_PASS_S: f64 = 2.0;

/// Complete passes that fill about `seconds` at `pass_s` per pass.
pub fn passes_for(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).round() as usize).max(1)
}

/// Warms a context the way a long-running daemon's is: every circuit
/// optimized once with the job engine.
pub fn warm_context(circuits: &[Circuit], threads: usize) -> OptContext {
    let mut ctx = OptContext::new();
    let spec = JobSpec {
        threads,
        ..JobSpec::default()
    };
    for c in circuits {
        run_job(&mut c.xag.clone(), &mut ctx, &spec);
    }
    ctx
}

/// End-to-end figures of a library run.
#[derive(Debug, Default)]
pub struct LibraryRun {
    /// Latency (ms) of each cold job.
    pub cold_ms: Vec<f64>,
    /// Latency (ms) of each warm job.
    pub warm_ms: Vec<f64>,
    /// Per pass: input gates of the cold jobs over their summed time.
    pub pass_gates_per_s: Vec<f64>,
    /// Per pass: cold plus warm jobs over their summed time.
    pub pass_jobs_per_s: Vec<f64>,
    /// Per pass: the box speed its times were scaled by.
    pub pass_speed: Vec<f64>,
    /// Per pass: median latency (ms) of its cold jobs.
    pub pass_cold_p50: Vec<f64>,
    /// Per pass: median latency (ms) of its warm jobs.
    pub pass_warm_p50: Vec<f64>,
    /// Every optimized network checked against its input.
    pub outcomes: Outcomes,
    /// `(ANDs before, ANDs after)` of each circuit's cold job (first pass).
    pub mc_pairs: Vec<(usize, usize)>,
    /// All outputs checked out.
    pub correct: bool,
}

impl LibraryRun {
    /// Median over passes of the cold-job gate throughput.
    pub fn gates_per_s(&self) -> f64 {
        median(&self.pass_gates_per_s).unwrap_or(0.0)
    }

    /// Median over passes of the job throughput.
    pub fn jobs_per_s(&self) -> f64 {
        median(&self.pass_jobs_per_s).unwrap_or(0.0)
    }
}

/// The order in which pass `pass` visits `n` circuits: a seeded
/// permutation, different in every pass, so each circuit's samples come
/// from many positions (early circuits pay for the fresh database).
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::seed_from_u64(seed ^ 0x5eed_0bde ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .shuffle(&mut order);
    order
}

/// Runs the complete passes `passes` (pass indices, which pick the
/// visiting orders) over `circuits`, then checks every output. With a
/// tracer, each job is a span.
pub fn run(
    circuits: &[Circuit],
    engine: &mut Engine,
    passes: Range<u64>,
    tracer: Option<&Tracer>,
    seed: u64,
) -> LibraryRun {
    let mut run = LibraryRun {
        correct: true,
        ..LibraryRun::default()
    };
    // (circuit, cold output, warm output) of every job, checked at the end.
    let mut outputs: Vec<(usize, Xag, Xag)> = Vec::new();
    let first = passes.start;
    let mut meter = SpeedMeter::new(match engine {
        Engine::Facade => 1,
        Engine::Job { threads, .. } => *threads,
    });
    for pass in passes {
        let mut facade = McOptimizer::new();
        let mut optimize = |xag: &mut Xag| match engine {
            Engine::Facade => {
                facade.run_to_convergence(xag);
            }
            Engine::Job { threads, ctx } => {
                run_job(
                    xag,
                    ctx,
                    &JobSpec {
                        threads: *threads,
                        ..JobSpec::default()
                    },
                );
            }
        };
        let (mut gates, mut cold_s, mut warm_s) = (0usize, 0.0f64, 0.0f64);
        let samples = run.cold_ms.len();
        for k in pass_order(seed, pass, circuits.len()) {
            let c = &circuits[k];
            let id = pass * 1000 + k as u64 + 1;
            let mut cold = c.xag.clone();
            let t0 = Instant::now();
            in_span(tracer, "library.cold_job", id, || optimize(&mut cold));
            let dt = t0.elapsed().as_secs_f64();
            let mut warm = cold.cleanup();
            let t1 = Instant::now();
            in_span(tracer, "library.warm_job", id, || optimize(&mut warm));
            let warm_dt = t1.elapsed().as_secs_f64();
            meter.follow(dt + warm_dt);
            run.warm_ms.push(warm_dt * 1e3);
            run.cold_ms.push(dt * 1e3);
            gates += c.xag.num_gates();
            cold_s += dt;
            warm_s += warm_dt;
            if pass == first {
                run.mc_pairs.push((c.xag.num_ands(), cold.num_ands()));
            }
            outputs.push((k, cold, warm));
        }
        let speed = meter.take();
        for t in run.cold_ms[samples..]
            .iter_mut()
            .chain(&mut run.warm_ms[samples..])
        {
            *t *= speed;
        }
        run.pass_gates_per_s.push(gates as f64 / (cold_s * speed));
        run.pass_jobs_per_s
            .push(2.0 * circuits.len() as f64 / ((cold_s + warm_s) * speed));
        run.pass_speed.push(speed);
        run.pass_cold_p50
            .push(median(&run.cold_ms[samples..]).unwrap_or(0.0));
        run.pass_warm_p50
            .push(median(&run.warm_ms[samples..]).unwrap_or(0.0));
    }
    for (i, (k, cold, warm)) in outputs.iter().enumerate() {
        let reference = &circuits[*k].xag;
        for out in [cold, warm] {
            let ok = equivalent(reference, out, seed ^ i as u64);
            if !ok {
                eprintln!("{}: optimized network is not equivalent", circuits[*k].name);
                run.correct = false;
            }
            run.outcomes.record(ok);
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_orders_are_seeded_permutations() {
        let a = pass_order(1, 0, 25);
        assert_eq!(a, pass_order(1, 0, 25));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..25).collect::<Vec<_>>());
        assert_ne!(a, pass_order(1, 1, 25));
        assert_ne!(a, pass_order(2, 0, 25));
    }
}

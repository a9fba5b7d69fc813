//! Per-layer replay for the traced run.
//!
//! A fixed set of the workload's circuits is replayed call by call
//! through the public API of every layer, each call inside a span: parse
//! and canonical key, then the paper flow round by round — cut
//! enumeration, classification, synthesis of new classes and candidate
//! construction on the round's input network, then the rewrite pass
//! itself — followed by XOR reduction, cleanup, serialization, the
//! equivalence check, a whole `run_job`, and a one-round sharded job at
//! one and two workers. The replay is fixed work, so its numbers compare
//! across runs whatever `--seconds` is.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::panic::AssertUnwindSafe;

use xag_affine::AffineClassifier;
use xag_circuits::parse::parse_circuit;
use xag_cuts::enumerate_cuts;
use xag_mc::{
    job_key, run_job, Cleanup, FlowSpec, JobSpec, McRewrite, Objective, OptContext, Pass, XorReduce,
};
use xag_network::{write_bristol, write_verilog};
use xag_synth::Synthesizer;
use xag_tt::Tt;

use crate::inputs::Circuit;
use crate::stats::{median, Outcomes};
use crate::trace::Tracer;
use crate::verify::equivalent;

/// Repetitions of the fork/absorb timing (median reported).
const FORK_REPS: usize = 5;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The cut functions a rewrite round looks at: every cut of two or more
/// leaves, reduced to its support, constants dropped.
fn round_functions(sets: &xag_cuts::CutSets) -> (Vec<Tt>, Vec<Tt>) {
    let mut full = Vec::new();
    let mut reduced = Vec::new();
    for (n, cuts) in sets.iter() {
        for (cut, &tt) in cuts.iter().zip(sets.functions_of(n)) {
            if cut.size() < 2 {
                continue;
            }
            let (g, _) = tt.shrink_to_support();
            if g.is_constant() || g.vars() == 0 {
                continue;
            }
            full.push(tt);
            reduced.push(g);
        }
    }
    (full, reduced)
}

/// The benchmark's own classifier, synthesizer and context, used to time
/// those layers on every cut function a round looks at without touching
/// the flow's context.
struct Probes {
    classifier: AffineClassifier,
    synth: Synthesizer,
    ctx: OptContext,
    /// Representatives already synthesized (database writes so far).
    synthesized: HashSet<Tt>,
}

/// Replays `circuits` (trace ids `1..`) with `flow_ctx` as the flow's
/// context and `job_ctx` for the whole-job calls; both follow the
/// workload's own policy. With `warm`, the probes are warmed first by one
/// untraced replay of the same circuits, as the workload's warm context
/// was. Every layer call that can fail is counted in `outcomes`; an output
/// that is not equivalent to its input also clears `correct`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    circuits: &[Circuit],
    flow_ctx: OptContext,
    job_ctx: OptContext,
    warm: bool,
    tracer: &Tracer,
    outcomes: &mut Outcomes,
    correct: &mut bool,
    seed: u64,
) -> Layers {
    let mut probes = Probes {
        classifier: AffineClassifier::new(),
        synth: Synthesizer::new(),
        ctx: OptContext::new(),
        synthesized: HashSet::new(),
    };
    if warm {
        let (mut scratch_outcomes, mut scratch_correct) = (Outcomes::default(), true);
        replay_pass(
            circuits,
            &mut probes,
            flow_ctx.clone(),
            job_ctx.clone(),
            &Tracer::new(),
            &mut scratch_outcomes,
            &mut scratch_correct,
            seed,
        );
    }
    replay_pass(
        circuits,
        &mut probes,
        flow_ctx,
        job_ctx,
        tracer,
        outcomes,
        correct,
        seed,
    )
}

#[allow(clippy::too_many_arguments)]
fn replay_pass(
    circuits: &[Circuit],
    probes: &mut Probes,
    mut flow_ctx: OptContext,
    mut job_ctx: OptContext,
    tracer: &Tracer,
    outcomes: &mut Outcomes,
    correct: &mut bool,
    seed: u64,
) -> Layers {
    let t = tracer;
    // `(succeeded, output equivalent)` of one checked layer call.
    let mut check = |ok: bool, equivalent: bool| {
        outcomes.record(ok);
        *correct &= equivalent;
    };
    let Probes {
        classifier,
        synth,
        ctx: probe_ctx,
        synthesized,
    } = probes;
    let (hits_before, misses_before) = classifier.cache_stats();
    let passes: [McRewrite; 2] = [McRewrite::with_cut_size(4), McRewrite::new()];
    let one_round = JobSpec {
        flow: FlowSpec::parse("mc(cut=6)").expect("valid spec"),
        threads: 1,
        max_rounds: 1,
    };

    let mut enum_ms = Vec::new();
    let mut round_ms = Vec::new();
    let (mut cuts_total, mut enum_s) = (0.0, 0.0);
    let (mut classify_calls, mut classify_s) = (0.0, 0.0);
    let (mut synth_calls, mut synth_s) = (0.0, 0.0);
    let (mut candidate_calls, mut candidate_s) = (0.0, 0.0);
    let (mut rounds, mut considered, mut applied) = (0.0, 0.0, 0.0);
    let (mut xor_ms, mut cleanup_ms, mut serialize_ms, mut equiv_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut job_ms, mut key_us, mut parse_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut shard_1t, mut shard_2t) = (0.0, 0.0);

    for (k, c) in circuits.iter().enumerate() {
        let id = k as u64 + 1;
        t.span("replay.circuit", 0, id, |root| {
            let (bristol, _) = crate::inputs::texts(&c.xag);
            let (parsed, s) = t.timed("parse.parse_circuit", root, id, |_| {
                parse_circuit(&bristol, None)
            });
            parse_us.push(s * 1e6);
            let parsed = parsed.expect("a written netlist parses back");
            let (_, s) = t.timed("canon.job_key", root, id, |_| {
                black_box(job_key(
                    &parsed,
                    &FlowSpec::default(),
                    JobSpec::default().max_rounds,
                ))
            });
            key_us.push(s * 1e6);

            // The paper flow, round by round, on the schedule of
            // `Pipeline::run`: repeat a pass while it improves, then move
            // on; converged once every pass is stale in sequence.
            let mut work = c.xag.clone();
            let (mut phase, mut stale, mut executed) = (0usize, 0usize, 0usize);
            while executed < JobSpec::default().max_rounds {
                let pass = &passes[phase % passes.len()];
                let (sets, s) = t.timed("cuts.enumerate", root, id, |_| {
                    enumerate_cuts(&work, pass.cut_params())
                });
                enum_ms.push(s * 1e3);
                enum_s += s;
                cuts_total += sets.total() as f64;
                let (full, reduced) = round_functions(&sets);
                drop(sets);

                let (reps, s): (Vec<Tt>, f64) = t.timed("affine.classify", root, id, |_| {
                    reduced
                        .iter()
                        .map(|&g| classifier.classify(g).representative)
                        .collect()
                });
                classify_s += s;
                classify_calls += reduced.len() as f64;
                for rep in reps {
                    if synthesized.insert(rep) {
                        synth_s += t
                            .timed("synth.synthesize", root, id, |_| synth.synthesize(rep))
                            .1;
                        synth_calls += 1.0;
                    }
                }
                candidate_s += t
                    .timed("context.candidate_for_cut", root, id, |_| {
                        for &tt in &full {
                            black_box(probe_ctx.candidate_for_cut(tt));
                        }
                    })
                    .1;
                candidate_calls += full.len() as f64;

                let (stats, s) =
                    t.timed("pass.run", root, id, |_| pass.run(&mut work, &mut flow_ctx));
                round_ms.push(s * 1e3);
                rounds += 1.0;
                considered += stats.cuts_considered as f64;
                applied += stats.rewrites_applied as f64;
                executed += 1;
                if stats.improved(Objective::MultiplicativeComplexity) {
                    stale = 0;
                } else {
                    stale += 1;
                    phase += 1;
                    if stale >= passes.len() {
                        break;
                    }
                }
            }
            // XOR reduction as a served `paper;xor` flow would run it. A
            // panic in it is a failed operation: counted, reported, and
            // left out of the timing (the pass only replaces the network
            // once it has finished, so `work` is intact either way).
            let (xor, s) = t.timed("pass.xor", root, id, |_| {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    XorReduce::new().run(&mut work, &mut flow_ctx)
                }))
            });
            if xor.is_ok() {
                xor_ms.push(s * 1e3);
            } else {
                eprintln!("{}: the XOR reduction pass panicked", c.name);
            }
            check(xor.is_ok(), true);
            let (_, s) = t.timed("pass.cleanup", root, id, |_| {
                Cleanup::new().run(&mut work, &mut flow_ctx)
            });
            cleanup_ms.push(s * 1e3);

            let (clean, s) = t.timed("network.serialize", root, id, |_| {
                let clean = work.cleanup();
                let (mut b, mut v) = (Vec::new(), Vec::new());
                write_bristol(&clean, &mut b).expect("in-memory write");
                write_verilog(&clean, "replay", &mut v).expect("in-memory write");
                black_box((b, v));
                clean
            });
            serialize_ms.push(s * 1e3);
            let (ok, s) = t.timed("network.equiv", root, id, |_| {
                equivalent(&c.xag, &clean, seed ^ id)
            });
            equiv_ms.push(s * 1e3);
            check(ok, ok);

            let mut job = c.xag.clone();
            let (_, s) = t.timed("flow.run_job", root, id, |_| {
                run_job(&mut job, &mut job_ctx, &JobSpec::default())
            });
            job_ms.push(s * 1e3);
            let ok = equivalent(&c.xag, &job, seed ^ id);
            check(ok, ok);

            // One untimed round first, so both timed rounds find the
            // classes it needs in the database and differ only in workers.
            run_job(&mut c.xag.clone(), &mut job_ctx, &one_round);
            for (threads, total, name) in [
                (1, &mut shard_1t, "shard.round_1t"),
                (2, &mut shard_2t, "shard.round_2t"),
            ] {
                let mut x = c.xag.clone();
                let spec = JobSpec {
                    threads,
                    ..one_round.clone()
                };
                *total += t
                    .timed(name, root, id, |_| run_job(&mut x, &mut job_ctx, &spec))
                    .1
                    * 1e3;
                let ok = equivalent(&c.xag, &x, seed ^ id);
                check(ok, ok);
            }
        });
    }

    let (mut fork_ms, mut absorb_ms) = (Vec::new(), Vec::new());
    for _ in 0..FORK_REPS {
        let (fork, s) = t.timed("context.fork", 0, 0, |_| flow_ctx.fork());
        fork_ms.push(s * 1e3);
        absorb_ms.push(t.timed("context.absorb", 0, 0, |_| flow_ctx.absorb(fork)).1 * 1e3);
    }

    let (hits, misses) = classifier.cache_stats();
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let mut out = Layers::new();
    out.insert("cuts.enum_ms", med(&enum_ms));
    out.insert("cuts.count", cuts_total);
    out.insert("cuts.per_s", per(cuts_total, enum_s));
    out.insert("affine.classify_us", per(classify_s * 1e6, classify_calls));
    out.insert("affine.hit_frac", per(hits as f64, (hits + misses) as f64));
    out.insert("synth.calls", synth_calls);
    out.insert("synth.ms", synth_s * 1e3);
    out.insert(
        "context.candidate_us",
        per(candidate_s * 1e6, candidate_calls),
    );
    out.insert("context.db_entries", flow_ctx.db_size() as f64);
    out.insert("context.fork_ms", med(&fork_ms));
    out.insert("context.absorb_ms", med(&absorb_ms));
    out.insert("pass.round_ms", med(&round_ms));
    out.insert("pass.rounds", rounds);
    out.insert("pass.cuts_considered", considered);
    out.insert("pass.accept_frac", per(applied, considered));
    out.insert("pass.xor_ms", med(&xor_ms));
    out.insert("pass.cleanup_ms", med(&cleanup_ms));
    out.insert("shard.round_ms_1t", shard_1t);
    out.insert("shard.round_ms_2t", shard_2t);
    out.insert("shard.speedup_2t", per(shard_1t, shard_2t));
    out.insert("flow.job_ms", med(&job_ms));
    out.insert("canon.key_us", med(&key_us));
    out.insert("parse.us", med(&parse_us));
    out.insert("network.serialize_ms", med(&serialize_ms));
    out.insert("network.equiv_ms", med(&equiv_ms));
    out
}

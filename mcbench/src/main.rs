//! `mcbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path mcbench/Cargo.toml -- \
//!     --workload suite_1t|large_2t|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the workload untraced and traced (their difference is the tracing
//! overhead), then replays a fixed set of the workload's circuits through
//! every layer with a span around each call, writes the spans once to
//! `mcbench/out/`, and reports the per-layer metrics. Either way every
//! output is checked, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `mcbench/README.md` for the workloads and metrics.

mod inputs;
mod layers;
mod library;
mod memory;
mod serve;
mod speed;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Circuit, GenCircuit, StreamRequest};
use library::{Engine, LibraryRun, LARGE_THREADS};
use serve::{Cluster, Epochs, ServedRun};
use speed::SpeedMeter;
use stats::{median, ratio_geomean, tail, Outcomes};
use trace::Tracer;
use xag_mc::OptContext;

/// Set-ups per run of a library workload; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Set-ups per `serve_mix` run (one per epoch, topped up to this): a
/// cluster boot is short and jittery, so it takes more of them.
const SERVE_SETUP_REPS: usize = 9;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["suite_1t", "large_2t", "serve_mix"];

/// Cap on the served loop, as a multiple of `--seconds`: no epoch starts
/// after it, so a much slower program ends the run early instead of
/// overrunning the time limit.
const SERVE_CAP: f64 = 3.0;

/// Circuits per family replayed by the traced `serve_mix` run.
const SERVE_REPLAY_PER_KIND: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Human note printed next to the value (percentile used, samples).
    note: String,
}

/// What one run prints.
struct Report {
    correct: bool,
    outcomes: Outcomes,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// A latency percentile under the tail rule, with its sample count.
    fn push_tail(&mut self, name: &'static str, samples: &[f64], p: u32) {
        let t = tail(samples, p).unwrap_or(stats::Tail {
            value: f64::INFINITY,
            percentile: p,
            samples: 0,
        });
        self.push(
            name,
            t.value,
            "ms",
            format!("p{} of {} samples", t.percentile, t.samples),
        );
    }
}

/// JSON has no infinities: a failed request that lands on a percentile is
/// reported as an absurdly large latency.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "null".to_string()
    } else {
        "1e300".to_string()
    }
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median time in reference seconds. Every repetition but the last is torn
/// down by `discard`.
fn timed_setup<T>(
    threads: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut meter = SpeedMeter::new(threads);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let value = setup()?;
        let dt = t0.elapsed().as_secs_f64();
        meter.follow(dt);
        times.push(dt * meter.take());
        if let Some(old) = last.replace(value) {
            discard(old);
        }
    }
    Ok((
        last.expect("at least one setup"),
        median(&times).expect("samples"),
    ))
}

/// What the end-to-end report is made of, whichever path produced it.
struct EndToEnd<'a> {
    setup_s: f64,
    setups: usize,
    peak_rss_mb: f64,
    /// How the peak was taken.
    peak_note: String,
    outcomes: Outcomes,
    correct: bool,
    mc_pairs: &'a [(usize, usize)],
    gates_per_s: f64,
    jobs_per_s: f64,
    /// How the two rates were taken.
    rate_note: String,
    cold_p50: Typical,
    cold_ms: &'a [f64],
    warm_p50: Typical,
    warm_ms: &'a [f64],
}

/// A class's typical latency and how it was taken.
struct Typical {
    ms: f64,
    note: String,
}

impl Typical {
    /// The median of all samples.
    fn pooled(samples: &[f64]) -> Typical {
        Typical {
            ms: median(samples).unwrap_or(f64::INFINITY),
            note: format!("p50 of {} samples", samples.len()),
        }
    }

    /// The median over passes of each pass's median. A library pass times
    /// every circuit once, so the pooled median falls between two
    /// circuits' groups of samples (the slowest run of one, the fastest of
    /// the next) whenever the circuit count is even; each pass's own median
    /// is a central value instead.
    fn over_passes(pass_medians: &[f64], samples: usize) -> Typical {
        Typical {
            ms: median(pass_medians).unwrap_or(f64::INFINITY),
            note: format!(
                "median of {} passes' p50s, {samples} samples",
                pass_medians.len()
            ),
        }
    }
}

fn end_to_end(e: EndToEnd) -> Report {
    let mut rep = Report {
        correct: e.correct,
        outcomes: e.outcomes,
        metrics: Vec::new(),
    };
    let setups = format!("median of {} set-ups", e.setups);
    rep.push("setup_s", e.setup_s, "s", setups);
    rep.push("peak_rss_mb", e.peak_rss_mb, "MB", e.peak_note);
    let attempted = format!("{} attempted", e.outcomes.attempted);
    rep.push("ok_frac", e.outcomes.ok_frac(), "ratio", attempted);
    let geomean = ratio_geomean(e.mc_pairs).unwrap_or(0.0);
    let circuits = format!("{} circuits", e.mc_pairs.len());
    rep.push("mc_geomean", geomean, "ratio", circuits);
    rep.push("gates_per_s", e.gates_per_s, "gates/s", e.rate_note.clone());
    rep.push("jobs_per_s", e.jobs_per_s, "jobs/s", e.rate_note);
    rep.push("cold_p50_ms", e.cold_p50.ms, "ms", e.cold_p50.note);
    rep.push_tail("cold_p90_ms", e.cold_ms, 90);
    rep.push("warm_p50_ms", e.warm_p50.ms, "ms", e.warm_p50.note);
    rep.push_tail("warm_p99_ms", e.warm_ms, 99);
    rep
}

fn end_to_end_library(r: &LibraryRun, setup_s: f64) -> Report {
    end_to_end(EndToEnd {
        setup_s,
        setups: SETUP_REPS,
        peak_rss_mb: memory::peak_rss_mb(),
        peak_note: "VmHWM".to_string(),
        outcomes: r.outcomes,
        correct: r.correct,
        mc_pairs: &r.mc_pairs,
        gates_per_s: r.gates_per_s(),
        jobs_per_s: r.jobs_per_s(),
        rate_note: format!(
            "median of {} passes, box at {:.2}x reference speed",
            r.pass_gates_per_s.len(),
            median(&r.pass_speed).unwrap_or(1.0)
        ),
        cold_p50: Typical::over_passes(&r.pass_cold_p50, r.cold_ms.len()),
        cold_ms: &r.cold_ms,
        warm_p50: Typical::over_passes(&r.pass_warm_p50, r.warm_ms.len()),
        warm_ms: &r.warm_ms,
    })
}

fn end_to_end_served(e: &Epochs, setup_s: f64, setups: usize) -> Report {
    let (r, wall_s) = (&e.run, e.wall_s);
    end_to_end(EndToEnd {
        setup_s,
        setups,
        peak_rss_mb: median(&e.peaks_mb).unwrap_or(0.0),
        peak_note: format!("median of {} epochs' VmHWM", e.peaks_mb.len()),
        outcomes: r.outcomes,
        correct: r.correct,
        mc_pairs: &r.mc_pairs,
        gates_per_s: r.cold_gates as f64 / wall_s,
        jobs_per_s: r.completed as f64 / wall_s,
        rate_note: format!(
            "{} jobs in {wall_s:.2} reference s, box at {:.2}x reference speed",
            r.completed,
            median(&e.speeds).unwrap_or(1.0)
        ),
        cold_p50: Typical::pooled(&r.cold_ms),
        cold_ms: &r.cold_ms,
        warm_p50: Typical::pooled(&r.warm_ms),
        warm_ms: &r.warm_ms,
    })
}

/// Library workload set-up: prepare the circuits (and, for `large_2t`,
/// warm the context).
fn library_setup(args: &Args) -> Result<((Vec<Circuit>, Engine), f64), String> {
    let large = args.workload == "large_2t";
    timed_setup(
        if large { LARGE_THREADS } else { 1 },
        || {
            Ok(if large {
                let circuits = inputs::large();
                let ctx = Box::new(library::warm_context(&circuits, LARGE_THREADS));
                (
                    circuits,
                    Engine::Job {
                        threads: LARGE_THREADS,
                        ctx,
                    },
                )
            } else {
                (inputs::suite(), Engine::Facade)
            })
        },
        drop,
    )
}

/// Passes a library workload makes to fill about `seconds`.
fn library_passes(args: &Args, seconds: f64) -> usize {
    let pass_s = if args.workload == "large_2t" {
        library::LARGE_PASS_S
    } else {
        library::SUITE_PASS_S
    };
    library::passes_for(seconds, pass_s)
}

fn trace_base(seed: u64, phase: u64) -> u64 {
    (seed.wrapping_mul(0x9e37_79b9) & 0xffff_ffff) << 24 | phase << 20
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    if args.workload == "serve_mix" {
        let epochs = library::passes_for(args.seconds, serve::EPOCH_S);
        let mut epochs = serve::run_epochs(
            args.seed,
            epochs,
            Instant::now() + Duration::from_secs_f64(SERVE_CAP * args.seconds),
            trace_base(args.seed, 0),
        )?;
        // Set-up is timed once per epoch; top up to SERVE_SETUP_REPS.
        let mut meter = SpeedMeter::new(serve::SERVE_THREADS);
        while epochs.setups.len() < SERVE_SETUP_REPS {
            let t0 = Instant::now();
            let stream = inputs::serve_stream(args.seed, 0);
            let cluster = Cluster::boot()?;
            let dt = t0.elapsed().as_secs_f64();
            drop(stream);
            cluster.shutdown();
            meter.follow(dt);
            epochs.setups.push(dt * meter.take());
        }
        let setup_s = median(&epochs.setups).expect("set-up samples");
        Ok(end_to_end_served(&epochs, setup_s, epochs.setups.len()))
    } else {
        let ((circuits, mut engine), setup_s) = library_setup(args)?;
        let passes = library_passes(args, args.seconds) as u64;
        let run = library::run(&circuits, &mut engine, 0..passes, None, args.seed);
        Ok(end_to_end_library(&run, setup_s))
    }
}

/// Requests that submit each circuit once and resubmit it in the other
/// format, for the library workloads' pass through the served path.
fn probe_requests(n: usize) -> Vec<StreamRequest> {
    use xag_circuits::parse::CircuitFormat;
    (0..n)
        .flat_map(|circuit| {
            [
                StreamRequest {
                    client: circuit % inputs::CLIENTS,
                    circuit,
                    format: CircuitFormat::Bristol,
                    warm: false,
                    sync: false,
                },
                StreamRequest {
                    client: circuit % inputs::CLIENTS,
                    circuit,
                    format: CircuitFormat::Verilog,
                    warm: true,
                    sync: false,
                },
            ]
        })
        .collect()
}

/// Runs `requests` through a cluster under the tracer and reads the
/// serve/cluster layers. Returns the served figures and the layers.
fn traced_served(
    cluster: Cluster,
    circuits: &[GenCircuit],
    requests: &[StreamRequest],
    base: u64,
    tracer: &Tracer,
    seed: u64,
) -> Result<(ServedRun, f64, layers::Layers), String> {
    let before = serve::metrics_now(&cluster)?;
    let (replies, wall) =
        serve::run_clients(cluster.addr(), circuits, requests, base, Some(tracer));
    let layers = serve::serve_layers(&cluster, &replies, base, &before, tracer);
    cluster.shutdown();
    let run = serve::score(circuits, requests, &replies, seed);
    Ok((run, wall, layers?))
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let tracer = Tracer::new();
    let mut outcomes = Outcomes::default();
    let mut correct = true;
    let mut values = layers::Layers::new();
    let overhead;
    if args.workload == "serve_mix" {
        // One epoch untraced, then the same epoch traced on a fresh
        // cluster: the throughput ratio is the tracing overhead.
        let cap = Instant::now() + Duration::from_secs_f64(SERVE_CAP * args.seconds);
        let untraced = serve::run_epochs(args.seed, 1, cap, trace_base(args.seed, 1))?;
        let (untraced, wall_a) = (untraced.run, untraced.wall_s);
        let stream = inputs::serve_stream(args.seed, 0);
        let (traced, wall_b, serve_layers) = traced_served(
            Cluster::boot()?,
            &stream.circuits,
            &stream.requests,
            trace_base(args.seed, 2),
            &tracer,
            args.seed,
        )?;
        // Both sides in reference seconds.
        let mut meter = SpeedMeter::new(serve::SERVE_THREADS);
        meter.follow(wall_b);
        let wall_b = wall_b * meter.take();
        let rate_a = untraced.completed as f64 / wall_a;
        let rate_b = traced.completed as f64 / wall_b;
        overhead = rate_a / rate_b - 1.0;
        for run in [&untraced, &traced] {
            outcomes += run.outcomes;
            correct &= run.correct;
        }
        values.extend(serve_layers);
        // A fixed replay set: the first circuits of every family.
        let mut replay: Vec<Circuit> = Vec::new();
        for (kind, _) in inputs::SIZE_MIX {
            replay.extend(
                stream
                    .circuits
                    .iter()
                    .filter(|c| c.kind == *kind)
                    .take(SERVE_REPLAY_PER_KIND)
                    .map(|c| Circuit {
                        name: format!("{:?}/{}", c.kind, c.size),
                        xag: c.xag.clone(),
                    }),
            );
        }
        values.extend(layers::replay(
            &replay,
            OptContext::new(),
            OptContext::new(),
            false,
            &tracer,
            &mut outcomes,
            &mut correct,
            args.seed,
        ));
    } else {
        let ((circuits, mut engine), _) = library_setup(args)?;
        // Untraced and traced passes alternate, so drift on a shared box
        // falls on both sides of the overhead ratio alike.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for pass in 0..library_passes(args, args.seconds / 3.0) as u64 {
            for (side, t) in [(&mut untraced, None), (&mut traced, Some(&tracer))] {
                let run = library::run(&circuits, &mut engine, pass..pass + 1, t, args.seed);
                side.push(run.gates_per_s());
                outcomes += run.outcomes;
                correct &= run.correct;
            }
        }
        overhead = median(&untraced).unwrap_or(0.0) / median(&traced).unwrap_or(1.0) - 1.0;
        let (flow_ctx, job_ctx, warm) = match &engine {
            Engine::Job { ctx, .. } => (OptContext::clone(ctx), OptContext::clone(ctx), true),
            Engine::Facade => (OptContext::new(), OptContext::new(), false),
        };
        values.extend(layers::replay(
            &circuits,
            flow_ctx,
            job_ctx,
            warm,
            &tracer,
            &mut outcomes,
            &mut correct,
            args.seed,
        ));
        // The same circuits through the served path: each submitted once
        // and resubmitted in the other format.
        let gen: Vec<GenCircuit> = circuits.iter().map(GenCircuit::from_circuit).collect();
        let requests = probe_requests(gen.len());
        let (served, _, serve_layers) = traced_served(
            Cluster::boot()?,
            &gen,
            &requests,
            trace_base(args.seed, 3),
            &tracer,
            args.seed,
        )?;
        outcomes += served.outcomes;
        correct &= served.correct;
        values.extend(serve_layers);
    }
    values.insert("bench.trace_overhead_frac", overhead);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}_{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tracer.len(), path.display());

    let mut rep = Report {
        correct,
        outcomes,
        metrics: Vec::new(),
    };
    for &(name, unit) in PER_LAYER {
        let value = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("the traced run measured no {name}"))?;
        rep.push(name, value, unit, String::new());
    }
    Ok(rep)
}

/// Every per-layer metric the traced run reports, with its unit, in the
/// order `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("cuts.enum_ms", "ms"),
    ("cuts.count", "count"),
    ("cuts.per_s", "1/s"),
    ("affine.classify_us", "us"),
    ("affine.hit_frac", "ratio"),
    ("synth.calls", "count"),
    ("synth.ms", "ms"),
    ("context.candidate_us", "us"),
    ("context.db_entries", "count"),
    ("context.fork_ms", "ms"),
    ("context.absorb_ms", "ms"),
    ("pass.round_ms", "ms"),
    ("pass.rounds", "count"),
    ("pass.cuts_considered", "count"),
    ("pass.accept_frac", "ratio"),
    ("pass.xor_ms", "ms"),
    ("pass.cleanup_ms", "ms"),
    ("shard.round_ms_1t", "ms"),
    ("shard.round_ms_2t", "ms"),
    ("shard.speedup_2t", "ratio"),
    ("flow.job_ms", "ms"),
    ("canon.key_us", "us"),
    ("parse.us", "us"),
    ("network.serialize_ms", "ms"),
    ("network.equiv_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.hit_us", "us"),
    ("serve.hit_frac", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.errors", "count"),
    ("cluster.dispatch_ms", "ms"),
    ("cluster.affinity_frac", "ratio"),
    ("cluster.retries", "count"),
    ("client.ping_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
];

fn print(report: &Report) {
    for m in &report.metrics {
        println!(
            "{:<28} {:>16} {:<8} {}",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.outcomes.attempted.max(1),
        report.outcomes.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match report {
        Ok(report) => {
            print(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_serve::json::{self, Json};

    /// Every end-to-end metric the untraced run reports, with its unit, in the
    /// order `BENCHMARK.json` lists them.
    const END_TO_END: &[(&str, &str)] = &[
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("ok_frac", "ratio"),
        ("mc_geomean", "ratio"),
        ("gates_per_s", "gates/s"),
        ("jobs_per_s", "jobs/s"),
        ("cold_p50_ms", "ms"),
        ("cold_p90_ms", "ms"),
        ("warm_p50_ms", "ms"),
        ("warm_p99_ms", "ms"),
    ];

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn end_to_end_reports_follow_the_declared_order() {
        let run = LibraryRun {
            cold_ms: vec![1.0, 2.0],
            warm_ms: vec![0.5],
            pass_gates_per_s: vec![10.0],
            pass_jobs_per_s: vec![2.0],
            pass_cold_p50: vec![1.5],
            pass_warm_p50: vec![0.5],
            mc_pairs: vec![(4, 2)],
            correct: true,
            ..LibraryRun::default()
        };
        let names: Vec<&str> = end_to_end_library(&run, 1.0)
            .metrics
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        let served = Epochs {
            run: ServedRun {
                cold_ms: vec![1.0],
                warm_ms: vec![f64::INFINITY],
                completed: 1,
                ..ServedRun::default()
            },
            wall_s: 1.0,
            ..Epochs::default()
        };
        let rep = end_to_end_served(&served, 1.0, 3);
        let names: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        for (m, (_, unit)) in rep.metrics.iter().zip(END_TO_END) {
            assert_eq!(m.unit, *unit, "{}", m.name);
        }
        assert_eq!(json_number(f64::INFINITY), "1e300");
    }
}

//! The served path: an in-process `mc-cluster` router in front of
//! `mc-serve` backends, driven by closed-loop clients over TCP.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mc_cluster::{Router, RouterConfig, RouterHandle};
use mc_serve::{Client, OptimizeRequest, ServeConfig, Server, ServerHandle};
use xag_circuits::parse::parse_circuit;
use xag_network::Xag;

use crate::inputs::{GenCircuit, StreamRequest, CLIENTS};
use crate::layers::Layers;
use crate::speed::SpeedMeter;
use crate::stats::{median, Outcomes};
use crate::trace::{in_span, Tracer};
use crate::verify::equivalent;

/// Backends behind the router.
pub const BACKENDS: usize = 2;
/// Worker threads per backend.
pub const WORKERS_PER_BACKEND: usize = 1;

/// Worker threads of the whole cluster: the cores a served epoch keeps
/// busy.
pub const SERVE_THREADS: usize = BACKENDS * WORKERS_PER_BACKEND;

/// A booted cluster.
pub struct Cluster {
    router: RouterHandle,
    backends: Vec<ServerHandle>,
}

impl Cluster {
    /// Boots a router and [`BACKENDS`] backends (default configurations
    /// except ports, worker count and lenient health timeouts) and waits
    /// until every backend has registered.
    pub fn boot() -> Result<Cluster, String> {
        let router = Router::bind(RouterConfig {
            // A loaded 2-core box can stall a heartbeat; a spuriously
            // downed backend would turn into retries and fallbacks.
            heartbeat_timeout: Duration::from_secs(60),
            miss_threshold: 100,
            ..RouterConfig::default()
        })
        .map_err(|e| format!("bind router: {e}"))?;
        let join = router.local_addr().to_string();
        let mut backends = Vec::with_capacity(BACKENDS);
        for _ in 0..BACKENDS {
            backends.push(
                Server::bind(ServeConfig {
                    workers: WORKERS_PER_BACKEND,
                    join: Some(join.clone()),
                    ..ServeConfig::default()
                })
                .map_err(|e| format!("bind backend: {e}"))?,
            );
        }
        let cluster = Cluster { router, backends };
        let mut probe = Client::connect(cluster.router.local_addr())
            .map_err(|e| format!("connect router: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let stats = probe
                .cluster_stats()
                .map_err(|e| format!("cluster_stats: {e}"))?;
            if stats.backends.iter().filter(|b| b.up).count() >= BACKENDS {
                return Ok(cluster);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cluster.shutdown();
        Err("backends never registered".to_string())
    }

    /// The router's address (what clients connect to).
    pub fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// A backend's address (for metrics and trace dumps: in one process
    /// every daemon shares the metric registry and trace rings).
    pub fn backend_addr(&self) -> SocketAddr {
        self.backends[0].local_addr()
    }

    /// Stops the router, then every backend, waiting for their threads.
    pub fn shutdown(self) {
        self.router.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index into the request list.
    pub request: usize,
    /// Client-observed latency in ms.
    pub latency_ms: f64,
    /// The answer, or the error message.
    pub outcome: Result<Answer, String>,
}

/// The parts of an optimize answer the benchmark checks and reports.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Served from the semantic cache (a hit or a coalesced wait).
    pub cached: bool,
    /// The returned netlist, in the request's format.
    pub netlist: String,
    /// AND gates before and after, as reported.
    pub ands: (usize, usize),
}

/// Trace ids of the benchmark's requests: `base + index + 1`, with a
/// per-run base so two runs in one process never share an id.
fn trace_id(base: u64, i: usize) -> u64 {
    base + i as u64 + 1
}

/// Runs `requests` against `addr`: each of the [`CLIENTS`] closed-loop
/// clients sends its own requests in order, each after the previous
/// answer; before a request marked `sync` it waits until every client
/// has reached its own such request. Returns the replies and the loop's
/// wall time. With a tracer, each request is a span under its trace id.
pub fn run_clients(
    addr: SocketAddr,
    circuits: &[GenCircuit],
    requests: &[StreamRequest],
    trace_base: u64,
    tracer: Option<&Tracer>,
) -> (Vec<Reply>, f64) {
    let replies = Mutex::new(Vec::with_capacity(requests.len()));
    let together = Barrier::new(CLIENTS);
    let start = Instant::now();
    std::thread::scope(|s| {
        for me in 0..CLIENTS {
            let (replies, together) = (&replies, &together);
            s.spawn(move || {
                let mut client: Option<Client> = None;
                for (i, r) in requests.iter().enumerate().filter(|(_, r)| r.client == me) {
                    if r.sync {
                        together.wait();
                    }
                    let id = trace_id(trace_base, i);
                    let request = OptimizeRequest {
                        circuit: circuits[r.circuit].text(r.format).to_string(),
                        format: Some(r.format),
                        output: r.format,
                        trace_id: id,
                        ..OptimizeRequest::default()
                    };
                    let t0 = Instant::now();
                    let call = |client: &mut Option<Client>| -> Result<Answer, String> {
                        if client.is_none() {
                            *client = Some(Client::connect(addr).map_err(|e| e.to_string())?);
                        }
                        let c = client.as_mut().expect("connected above");
                        c.optimize(request)
                            .map_err(|e| e.to_string())
                            .map(|res| Answer {
                                cached: res.cached,
                                netlist: res.netlist,
                                ands: (res.ands_before, res.ands_after),
                            })
                    };
                    let outcome = in_span(tracer, "client.optimize", id, || call(&mut client));
                    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    if outcome.is_err() {
                        // The connection may be broken: start afresh.
                        client = None;
                    }
                    replies.lock().expect("reply store").push(Reply {
                        request: i,
                        latency_ms,
                        outcome,
                    });
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut replies = replies.into_inner().expect("reply store");
    replies.sort_by_key(|r| r.request);
    (replies, wall)
}

/// End-to-end figures of one served run.
#[derive(Debug, Default)]
pub struct ServedRun {
    /// Latencies (ms) of requests answered `cached=false`, failures as +∞.
    pub cold_ms: Vec<f64>,
    /// Latencies (ms) of requests answered `cached=true`, failures as +∞.
    pub warm_ms: Vec<f64>,
    /// Requests attempted and failed (errors and non-equivalent netlists).
    pub outcomes: Outcomes,
    /// `(ANDs before, ANDs after)` per distinct circuit answered.
    pub mc_pairs: Vec<(usize, usize)>,
    /// Completed requests.
    pub completed: usize,
    /// Input gates of the computed (`cached=false`) requests.
    pub cold_gates: usize,
    /// All outputs checked out.
    pub correct: bool,
}

impl ServedRun {
    /// Folds another run (a later epoch) into this one.
    pub fn merge(&mut self, other: ServedRun) {
        self.cold_ms.extend(other.cold_ms);
        self.warm_ms.extend(other.warm_ms);
        self.outcomes += other.outcomes;
        self.mc_pairs.extend(other.mc_pairs);
        self.completed += other.completed;
        self.cold_gates += other.cold_gates;
        self.correct &= other.correct;
    }

    /// Turns the latencies into reference milliseconds at box speed
    /// `speed` (see [`crate::speed`]).
    pub fn scale(&mut self, speed: f64) {
        for t in self.cold_ms.iter_mut().chain(&mut self.warm_ms) {
            *t *= speed;
        }
    }
}

/// Seconds one epoch of the served stream takes on the reference machine
/// (2 cores): `--seconds` is turned into an epoch count with it.
pub const EPOCH_S: f64 = 5.0;

/// What [`run_epochs`] measured, every time in reference seconds.
#[derive(Debug, Default)]
pub struct Epochs {
    /// Every epoch's replies, scored and scaled.
    pub run: ServedRun,
    /// Summed wall time of the client loops.
    pub wall_s: f64,
    /// Each epoch's set-up time.
    pub setups: Vec<f64>,
    /// Each epoch's box speed.
    pub speeds: Vec<f64>,
    /// Each epoch's peak resident memory (MB), set-up included.
    pub peaks_mb: Vec<f64>,
}

/// Runs `epochs` epochs of the served stream for `seed`, each on a freshly
/// booted cluster (so every epoch starts with cold caches), and checks
/// every reply. Generation and boot are set-up: they are timed into the
/// set-up times and stay out of the loop wall time. The box's speed is
/// measured after each set-up and each epoch, with the cluster down. Each
/// epoch's peak memory is its own, as a fresh daemon's would be.
/// Epochs stop early once `deadline` passes.
pub fn run_epochs(
    seed: u64,
    epochs: usize,
    deadline: Instant,
    trace_base: u64,
) -> Result<Epochs, String> {
    let mut out = Epochs {
        run: ServedRun {
            correct: true,
            ..ServedRun::default()
        },
        ..Epochs::default()
    };
    let mut meter = SpeedMeter::new(SERVE_THREADS);
    for epoch in 0..epochs as u64 {
        if Instant::now() >= deadline {
            break;
        }
        crate::memory::restart_peak();
        let t0 = Instant::now();
        let stream = crate::inputs::serve_stream(seed, epoch);
        let cluster = Cluster::boot()?;
        let setup = t0.elapsed().as_secs_f64();
        meter.follow(setup);
        out.setups.push(setup * meter.take());
        let base = trace_base + (epoch << 16);
        let (replies, w) = run_clients(
            cluster.addr(),
            &stream.circuits,
            &stream.requests,
            base,
            None,
        );
        cluster.shutdown();
        out.peaks_mb.push(crate::memory::peak_rss_mb());
        meter.follow(w);
        let speed = meter.take();
        let mut run = score(&stream.circuits, &stream.requests, &replies, seed);
        run.scale(speed);
        out.run.merge(run);
        out.wall_s += w * speed;
        out.speeds.push(speed);
    }
    Ok(out)
}

const NOT_EQUIVALENT: &str = "returned netlist is not equivalent to the request";

/// Checks every reply outside any timed span — re-parse the returned
/// netlist, then prove or sample equivalence against the submitted
/// network — and folds the replies into end-to-end figures. A failed
/// request enters its latency class as +∞. A request's class is its
/// phase: warm-phase requests are warm, the rest (originals and coalesced
/// waits) cold.
pub fn score(
    circuits: &[GenCircuit],
    requests: &[StreamRequest],
    replies: &[Reply],
    seed: u64,
) -> ServedRun {
    let mut run = ServedRun {
        correct: true,
        ..ServedRun::default()
    };
    let mut pairs: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for reply in replies {
        let r = requests[reply.request];
        let c = &circuits[r.circuit];
        let checked = reply.outcome.as_ref().map_err(Clone::clone).and_then(|a| {
            let back: Xag = parse_circuit(&a.netlist, Some(r.format)).map_err(|e| e.to_string())?;
            if equivalent(&c.xag, &back, seed ^ reply.request as u64) {
                Ok(a)
            } else {
                Err(NOT_EQUIVALENT.to_string())
            }
        });
        run.outcomes.record(checked.is_ok());
        run.correct &= !matches!(&checked, Err(e) if e == NOT_EQUIVALENT);
        match checked {
            Ok(a) => {
                run.completed += 1;
                pairs.entry(r.circuit).or_insert(a.ands);
                if !a.cached {
                    run.cold_gates += c.xag.num_gates();
                }
                if r.warm {
                    run.warm_ms.push(reply.latency_ms);
                } else {
                    run.cold_ms.push(reply.latency_ms);
                }
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", reply.request);
                if r.warm {
                    run.warm_ms.push(f64::INFINITY);
                } else {
                    run.cold_ms.push(f64::INFINITY);
                }
            }
        }
    }
    run.mc_pairs = pairs.into_values().collect();
    run
}

/// Counters and histogram buckets parsed from a `metrics` frame.
#[derive(Debug, Clone, Default)]
pub struct MetricsText {
    values: BTreeMap<String, f64>,
}

impl MetricsText {
    /// Parses Prometheus-style `name value` lines.
    pub fn parse(text: &str) -> Self {
        let values = text
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Self { values }
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `self - before` for one counter.
    pub fn delta(&self, before: &MetricsText, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    /// Cumulative bucket counts of histogram `h`, by upper bound.
    fn buckets(&self, h: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{h}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .values
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((le.parse().unwrap_or(f64::INFINITY), v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Median of the samples histogram `h` gained since `before`,
    /// interpolated linearly inside the bucket that holds it; `None` when
    /// nothing was recorded in between.
    pub fn delta_p50(&self, before: &MetricsText, h: &str) -> Option<f64> {
        let old: BTreeMap<u64, f64> = before
            .buckets(h)
            .into_iter()
            .map(|(le, v)| (le.to_bits(), v))
            .collect();
        // Bucket lines are only rendered for occupied buckets, so a
        // missing line carries the previous cumulative count.
        let mut last_old = 0.0;
        let mut cumulative: Vec<(f64, f64)> = Vec::new();
        for (le, v) in self.buckets(h) {
            if let Some(&o) = old.get(&le.to_bits()) {
                last_old = o;
            }
            cumulative.push((le, v - last_old));
        }
        let total = cumulative.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let half = total / 2.0;
        let (mut lo, mut below) = (0.0, 0.0);
        for (le, c) in cumulative {
            if c >= half {
                let hi = if le.is_finite() { le } else { lo * 2.0 };
                let within = (c - below).max(1.0);
                return Some(lo + (hi - lo) * (half - below) / within);
            }
            lo = le;
            below = c;
        }
        None
    }
}

/// Reads the serve/cluster per-layer metrics for a traced run: per-request
/// spans from `trace_dump` frames under each request's trace id, counter
/// deltas from `metrics` frames taken before (`before`) and now, and the
/// router's `cluster_stats`. Daemon spans are also added to `tracer`.
pub fn serve_layers(
    cluster: &Cluster,
    replies: &[Reply],
    trace_base: u64,
    before: &MetricsText,
    tracer: &Tracer,
) -> Result<Layers, String> {
    let mut backend = Client::connect(cluster.backend_addr()).map_err(|e| e.to_string())?;
    let mut router = Client::connect(cluster.addr()).map_err(|e| e.to_string())?;
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let now_epoch_us = epoch_us();
    let now_tracer_us = tracer.elapsed_us();
    for reply in replies {
        let id = trace_id(trace_base, reply.request);
        let events = backend.trace_dump(Some(id)).map_err(|e| e.to_string())?;
        for ev in events {
            let name: &'static str = match ev.span.as_str() {
                "serve:queue_wait" => "serve.queue_wait",
                "serve:run" => "serve.run",
                "serve:serialize" => "serve.serialize",
                "cluster:dispatch" => "cluster.dispatch",
                _ => continue,
            };
            spans.entry(name).or_default().push(ev.dur_us as f64 / 1e3);
            let start = now_tracer_us - (now_epoch_us as f64 - ev.start_us as f64);
            tracer.record(name, 0, id, start, ev.dur_us as f64);
        }
    }
    let after = MetricsText::parse(&backend.metrics().map_err(|e| e.to_string())?);
    let cstats = router.cluster_stats().map_err(|e| e.to_string())?;
    let mut pings = Vec::new();
    for _ in 0..50 {
        let rtt = tracer.span("client.ping", 0, 0, |_| router.ping());
        pings.push(rtt.map_err(|e| e.to_string())?.as_secs_f64() * 1e6);
    }

    let p50 = |name: &str| spans.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    let hits = after.delta(before, "serve_cache_hits_total");
    let misses = after.delta(before, "serve_cache_misses_total");
    let mut values = BTreeMap::new();
    values.insert("serve.queue_wait_ms", p50("serve.queue_wait"));
    values.insert("serve.run_ms", p50("serve.run"));
    values.insert("serve.serialize_ms", p50("serve.serialize"));
    values.insert(
        "serve.hit_us",
        after.delta_p50(before, "serve_cache_hit_us").unwrap_or(0.0),
    );
    values.insert(
        "serve.hit_frac",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    values.insert(
        "serve.coalesced",
        after.delta(before, "serve_coalesced_wait_us_count"),
    );
    values.insert("serve.errors", after.delta(before, "serve_errors_total"));
    values.insert("cluster.dispatch_ms", p50("cluster.dispatch"));
    values.insert("cluster.affinity_frac", cstats.affinity_rate());
    values.insert("cluster.retries", cstats.jobs_retried as f64);
    values.insert("client.ping_us", median(&pings).unwrap_or(0.0));
    Ok(values)
}

/// A `metrics` frame from one of the cluster's daemons.
pub fn metrics_now(cluster: &Cluster) -> Result<MetricsText, String> {
    let mut c = Client::connect(cluster.backend_addr()).map_err(|e| e.to_string())?;
    Ok(MetricsText::parse(&c.metrics().map_err(|e| e.to_string())?))
}

fn epoch_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_median_interpolates_within_a_bucket() {
        let before =
            MetricsText::parse("h_count 2\nh_bucket{le=\"8\"} 2\nh_bucket{le=\"+Inf\"} 2\n");
        let after = MetricsText::parse(
            "h_count 12\nh_bucket{le=\"8\"} 2\nh_bucket{le=\"16\"} 12\nh_bucket{le=\"+Inf\"} 12\n",
        );
        // The ten new samples all sit in (8, 16]: the median is midway.
        assert_eq!(after.delta_p50(&before, "h"), Some(12.0));
        assert_eq!(after.delta(&before, "h_count"), 10.0);
        assert_eq!(before.delta_p50(&before, "h"), None);
    }
}

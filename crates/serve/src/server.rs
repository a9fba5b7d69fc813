//! The daemon: TCP listener, per-connection reader threads, worker pool,
//! and the shared state tying them to the queue and the cache.
//!
//! # Thread model
//!
//! * **Listener** — one thread in a non-blocking accept loop (so it can
//!   observe the shutdown flag); every accepted connection gets its own
//!   reader thread.
//! * **Connection readers** — read one frame at a time. Cheap requests
//!   (`status`, `stats`, cache hits) are answered inline; a cache miss
//!   becomes a [`Job`] pushed onto the bounded queue — blocking there
//!   *is* the backpressure — and the reader then waits on the job's
//!   reply channel, so each connection has at most one job in flight and
//!   responses stay ordered.
//! * **Workers** — `workers` threads popping jobs. Each job forks the
//!   shared [`OptContext`], runs `xag_mc::run_job`, absorbs the fork back
//!   (so representatives synthesized for one client amortize across all
//!   of them), stores both export formats in the semantic cache, and
//!   sends the result to the waiting reader.
//!
//! Shutdown (a `shutdown` request or [`ServerHandle::shutdown`]) sets the
//! flag and closes the queue: the listener stops accepting, workers drain
//! the queue and exit, blocked submitters get an error response, and
//! readers exit on the next EOF or request.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xag_circuits::{parse_circuit, CircuitFormat};
use xag_mc::{run_job, FlowSpec, JobSpec, OptContext};
use xag_network::{write_bristol, write_verilog, Xag};

use crate::cache::{job_key, CacheEntry};
use crate::coalesce::{CoalescingCache, Plan};
use crate::protocol::{
    read_frame, write_frame, FlowTiming, FrameError, OptimizeRequest, OptimizeResult, Request,
    Response, StatsInfo, StatusInfo, ERR_JOB_DROPPED, ERR_SHUTTING_DOWN, MAX_JOB_ROUNDS,
    MAX_JOB_THREADS,
};
use crate::queue::JobQueue;
use crate::sync::lock_unpoisoned;

/// Configuration of [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port (the bound
    /// address is reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bound of the job queue (pushes beyond it block).
    pub queue_capacity: usize,
    /// Bound of the semantic result cache (LRU).
    pub cache_capacity: usize,
    /// Address of an `mc-cluster` router to join: the daemon registers
    /// itself there once listening and heartbeats for as long as it
    /// runs. `None` (the default) serves stand-alone.
    pub join: Option<String>,
    /// The address to *announce* to the joined router. Defaults to the
    /// bound address, which is only correct for a concrete bind — a
    /// daemon bound to a wildcard (`0.0.0.0:…`) must set this to the
    /// address the router can actually reach it at.
    pub advertise: Option<String>,
    /// Interval between heartbeats to the joined router.
    pub heartbeat_interval: Duration,
    /// Interval between metric-history snapshots (the sampler thread).
    pub sample_interval: Duration,
    /// Bound of the metric-history ring, in samples.
    pub history_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 64,
            cache_capacity: 128,
            join: None,
            advertise: None,
            heartbeat_interval: Duration::from_millis(500),
            sample_interval: Duration::from_secs(1),
            history_capacity: mc_obs::history::DEFAULT_CAPACITY,
        }
    }
}

/// One queued optimization job.
struct Job {
    id: u64,
    xag: Xag,
    spec: JobSpec,
    key: Vec<u8>,
    reply: mpsc::Sender<CacheEntry>,
    /// Trace ID the job runs under (request-supplied or server-assigned).
    trace_id: u64,
    /// When the job entered the queue; the worker's pop time minus this
    /// is the queue-wait latency.
    enqueued: Instant,
}

/// Bound on distinct per-flow statistics rows. Rows are keyed by
/// client-controlled normalized specs, and the spec space is huge — an
/// unbounded map would let a client grow server memory (and every
/// `stats` frame, which the cluster router polls) without limit. Flows
/// beyond the bound aggregate into [`FLOW_ROW_OTHER`].
const MAX_FLOW_ROWS: usize = 64;

/// Catch-all per-flow row once [`MAX_FLOW_ROWS`] distinct specs have
/// been seen. Cannot collide with a real row: normalized specs never
/// start with `(`.
const FLOW_ROW_OTHER: &str = "(other)";

/// Aggregate service counters (everything `stats` reports that the cache
/// does not already count).
#[derive(Debug)]
struct ServiceStats {
    jobs_served: u64,
    /// normalized flow spec → (jobs computed, total optimization
    /// millis); at most [`MAX_FLOW_ROWS`] spec rows plus the catch-all.
    per_flow: BTreeMap<String, (u64, u64)>,
}

impl ServiceStats {
    /// Starts with the canonical flows' rows pre-seeded: they always
    /// satisfy the `contains_key` check in the worker loop, so custom-
    /// spec churn can never displace a canonical flow into the
    /// catch-all row.
    fn new() -> Self {
        Self {
            jobs_served: 0,
            per_flow: canonical_flow_rows(),
        }
    }
}

/// Zero-filled per-flow rows for the canonical named flows, keyed by
/// normalized spec.
fn canonical_flow_rows() -> BTreeMap<String, (u64, u64)> {
    FlowSpec::aliases()
        .iter()
        .filter_map(|(name, _)| FlowSpec::named(name))
        .map(|spec| (spec.normalized(), (0, 0)))
        .collect()
}

pub(crate) struct Shared {
    queue: JobQueue<Job>,
    /// The semantic cache plus the coalescing pending map; internally
    /// locked — see [`CoalescingCache`].
    cache: CoalescingCache,
    ctx: Mutex<OptContext>,
    stats: Mutex<ServiceStats>,
    pub(crate) shutdown: AtomicBool,
    busy: AtomicUsize,
    next_job_id: AtomicU64,
    pub(crate) workers: usize,
    started: Instant,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    pub(crate) fn status(&self) -> StatusInfo {
        StatusInfo {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.workers,
            busy: self.busy.load(Ordering::Relaxed),
            running: mc_obs::progress_snapshot(),
        }
    }

    fn stats(&self) -> StatsInfo {
        let cache = self.cache.counters();
        let stats = lock_unpoisoned(&self.stats);
        // Zero-filled rows for the canonical flows keep the per-flow
        // breakdown complete for the router and `serve_bench`; rows are
        // keyed by normalized spec, so alias and expansion submissions
        // aggregate into one row (custom specs get their own).
        let mut per_flow = canonical_flow_rows();
        for (flow, &counts) in &stats.per_flow {
            per_flow.insert(flow.clone(), counts);
        }
        StatsInfo {
            uptime_secs: self.started.elapsed().as_secs(),
            jobs_served: stats.jobs_served,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_capacity: cache.capacity,
            queue_depth: self.queue.len(),
            flows: per_flow
                .iter()
                .map(|(flow, &(jobs, total_millis))| FlowTiming {
                    flow: flow.clone(),
                    jobs,
                    total_millis,
                })
                .collect(),
        }
    }
}

/// The daemon's entry point; see [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds the listener, spawns the worker pool and the accept loop,
    /// and returns a handle to the running service.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bad address, port in use, …).
    pub fn bind(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let addrs: Vec<SocketAddr> = config.addr.to_socket_addrs()?.collect();
        let listener = TcpListener::bind(&addrs[..])?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            cache: CoalescingCache::new(config.cache_capacity),
            ctx: Mutex::new(OptContext::new()),
            stats: Mutex::new(ServiceStats::new()),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            next_job_id: AtomicU64::new(1),
            workers,
            started: Instant::now(),
        });

        let mut threads = Vec::with_capacity(workers + 2);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mc-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn worker thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mc-serve-listener".to_string())
                    .spawn(move || accept_loop(listener, &shared))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn listener thread"),
            );
        }
        if let Some(router) = config.join.clone() {
            let shared = Arc::clone(&shared);
            let interval = config.heartbeat_interval;
            let advertised = config
                .advertise
                .clone()
                .unwrap_or_else(|| local_addr.to_string());
            threads.push(
                std::thread::Builder::new()
                    .name("mc-serve-join".to_string())
                    .spawn(move || crate::join::join_loop(&shared, &router, &advertised, interval))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn join thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            let interval = config.sample_interval;
            let capacity = config.history_capacity;
            threads.push(
                std::thread::Builder::new()
                    .name("mc-serve-sampler".to_string())
                    .spawn(move || sampler_loop(&shared, interval, capacity))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn sampler thread"),
            );
        }

        Ok(ServerHandle {
            local_addr,
            joined: config.join,
            shared,
            threads,
        })
    }
}

/// A running daemon: its bound address and the means to stop it.
pub struct ServerHandle {
    local_addr: SocketAddr,
    joined: Option<String>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router address this daemon registers with, when started with
    /// a `join` configuration.
    pub fn joined_router(&self) -> Option<&str> {
        self.joined.as_deref()
    }

    /// Blocks until the daemon stops (i.e. until a `shutdown` request
    /// arrives or [`ServerHandle::shutdown`] is called elsewhere).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Initiates shutdown and waits for the listener and workers to
    /// exit. In-queue jobs are drained first; connection readers exit on
    /// their next read.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

/// The metrics sampler: every `interval`, refresh the occupancy gauges
/// from the live pool state and push one cumulative snapshot into the
/// process-global history ring — the data behind `MetricsHistory` and
/// everything `mc-top` draws. Exits with the daemon.
fn sampler_loop(shared: &Arc<Shared>, interval: Duration, capacity: usize) {
    let reg = mc_obs::registry();
    mc_obs::history().set_capacity(capacity);
    let queue_gauge = reg.gauge("serve_queue_depth");
    let busy_gauge = reg.gauge("serve_workers_busy");
    let source = mc_obs::HistorySource {
        jobs: reg.counter("serve_jobs_served_total"),
        hits: reg.counter("serve_cache_hits_total"),
        misses: reg.counter("serve_cache_misses_total"),
        retries: reg.counter("serve_retries_total"),
        errors: reg.counter("serve_errors_total"),
        queue_depth: Arc::clone(&queue_gauge),
        busy: Arc::clone(&busy_gauge),
        latency: reg.histogram("serve_run_us"),
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        queue_gauge.set(shared.queue.len() as u64);
        busy_gauge.set(shared.busy.load(Ordering::Relaxed) as u64);
        mc_obs::history().push(source.sample(mc_obs::epoch_us() / 1000));
        crate::join::sleep_until_shutdown(shared, interval);
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                // Readers are detached: they exit on EOF, error, or the
                // next request after shutdown. Holding their handles
                // would let one idle client block the whole shutdown.
                let _ = std::thread::Builder::new()
                    .name("mc-serve-conn".to_string())
                    .spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        connection_loop(stream, &shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn send(stream: &mut TcpStream, response: &Response) -> bool {
    // write_frame flushes before returning.
    write_frame(&mut *stream, &response.to_payload()).is_ok()
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            Err(FrameError::Oversized(n)) => {
                // The frame body was never read, so the stream cannot be
                // resynchronized — answer and drop the connection.
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        message: FrameError::Oversized(n).to_string(),
                    },
                );
                return;
            }
            Err(_) => return, // truncated or broken stream
        };
        let request = match Request::from_payload(&payload) {
            Ok(request) => request,
            Err(message) => {
                if !send(&mut stream, &Response::Error { message }) {
                    return;
                }
                continue;
            }
        };
        let response = match request {
            Request::Status => Response::Status(shared.status()),
            Request::Stats => Response::Stats(shared.stats()),
            Request::Ping => Response::Pong,
            // Cluster-handshake frames are the router's business; a plain
            // backend names itself so a misdirected `--join` is obvious.
            Request::Register(_) | Request::Heartbeat(_) | Request::ClusterStats => {
                Response::Error {
                    message: "not a cluster router (this is an mc-serve backend)".to_string(),
                }
            }
            Request::Metrics => Response::Metrics {
                text: mc_obs::registry().render(),
            },
            Request::MetricsHistory => Response::MetricsHistory {
                at_ms: mc_obs::epoch_us() / 1000,
                windows: mc_obs::history().standard_windows(),
            },
            Request::ProfDump => Response::ProfDump {
                phases: mc_obs::prof::snapshot(),
            },
            Request::TraceDump { trace_id } => Response::TraceDump {
                events: mc_obs::trace_dump(trace_id),
            },
            Request::Shutdown => {
                shared.begin_shutdown();
                let _ = send(&mut stream, &Response::ShuttingDown);
                return;
            }
            Request::Optimize(req) => handle_optimize(shared, req),
        };
        if !send(&mut stream, &response) {
            return;
        }
    }
}

fn entry_to_result(
    entry: &CacheEntry,
    cached: bool,
    output: CircuitFormat,
    trace_id: u64,
) -> Response {
    Response::Result(OptimizeResult {
        job_id: entry.job_id,
        cached,
        trace_id,
        netlist: match output {
            CircuitFormat::Bristol => entry.bristol.clone(),
            CircuitFormat::Verilog => entry.verilog.clone(),
        },
        output,
        ands_before: entry.ands_before,
        xors_before: entry.xors_before,
        ands_after: entry.ands_after,
        xors_after: entry.xors_after,
        depth_before: entry.depth_before,
        depth_after: entry.depth_after,
        rounds: entry.rounds,
        converged: entry.converged,
        millis: entry.millis,
    })
}

/// An `optimize` failure: counted (the history windows and SLO error
/// rates read the counter) and answered as a protocol error.
fn optimize_error(message: String) -> Response {
    mc_obs::registry().counter("serve_errors_total").inc();
    Response::Error { message }
}

fn handle_optimize(shared: &Arc<Shared>, req: OptimizeRequest) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return optimize_error(ERR_SHUTTING_DOWN.to_string());
    }
    // A malformed upload is a protocol error, never a worker panic: the
    // parse happens here, behind `Result`, before anything is queued.
    let xag = match parse_circuit(&req.circuit, req.format) {
        Ok(xag) => xag,
        Err(e) => return optimize_error(e.to_string()),
    };
    let spec = JobSpec {
        flow: req.flow,
        threads: req.threads.clamp(1, MAX_JOB_THREADS),
        max_rounds: req.max_rounds.clamp(1, MAX_JOB_ROUNDS),
    };
    let key = job_key(&xag, &spec.flow, spec.max_rounds);

    // The request's trace ID (a router forwarding a traced job) wins;
    // otherwise the job gets its own, so every optimize is traceable.
    let trace_id = if req.trace_id != 0 {
        req.trace_id
    } else {
        mc_obs::next_trace_id()
    };
    let _trace = mc_obs::trace_scope(trace_id);
    let lookup_start = Instant::now();

    // Atomic lookup-or-register in the coalescing cache: a hit answers
    // immediately; a key with an in-flight computation parks a waiter (a
    // coalesced hit, answered at commit); only a genuinely first miss
    // proceeds to compute.
    match shared.cache.plan(&key) {
        Plan::Hit(entry) => {
            // The whole hit path is the locked lookup above — record it,
            // so "how fast is a warm job really" has an answer.
            mc_obs::registry()
                .histogram("serve_cache_hit_us")
                .record(lookup_start.elapsed().as_micros() as u64);
            mc_obs::registry().counter("serve_cache_hits_total").inc();
            mc_obs::registry().counter("serve_jobs_served_total").inc();
            mc_obs::instant("serve:cache_hit", format!("job={}", entry.job_id));
            lock_unpoisoned(&shared.stats).jobs_served += 1;
            entry_to_result(&entry, true, req.output, trace_id)
        }
        Plan::Wait(rx) => match rx.recv() {
            Ok(entry) => {
                mc_obs::registry()
                    .histogram("serve_coalesced_wait_us")
                    .record(lookup_start.elapsed().as_micros() as u64);
                mc_obs::registry().counter("serve_cache_hits_total").inc();
                mc_obs::registry().counter("serve_jobs_served_total").inc();
                mc_obs::instant("serve:coalesced_hit", format!("job={}", entry.job_id));
                lock_unpoisoned(&shared.stats).jobs_served += 1;
                entry_to_result(&entry, true, req.output, trace_id)
            }
            Err(_) => optimize_error(ERR_JOB_DROPPED.to_string()),
        },
        Plan::Compute => {
            mc_obs::registry().counter("serve_cache_misses_total").inc();
            let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                id,
                xag,
                spec,
                key: key.clone(),
                reply: reply_tx,
                trace_id,
                enqueued: Instant::now(),
            };
            // This push blocking on a full queue is the backpressure path.
            if shared.queue.push(job).is_err() {
                // Unregister the pending key; dropping its waiter senders
                // wakes every coalesced request with the same error.
                shared.cache.abort(&key);
                return optimize_error(ERR_SHUTTING_DOWN.to_string());
            }
            match reply_rx.recv() {
                Ok(entry) => {
                    mc_obs::registry().counter("serve_jobs_served_total").inc();
                    lock_unpoisoned(&shared.stats).jobs_served += 1;
                    entry_to_result(&entry, false, req.output, trace_id)
                }
                Err(_) => optimize_error(ERR_JOB_DROPPED.to_string()),
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // Occupancy gauges are set from the pool itself at every transition,
    // so `Metrics` is live even between sampler ticks.
    let queue_gauge = mc_obs::registry().gauge("serve_queue_depth");
    let busy_gauge = mc_obs::registry().gauge("serve_workers_busy");
    while let Some(job) = shared.queue.pop() {
        let busy = shared.busy.fetch_add(1, Ordering::Relaxed) + 1;
        busy_gauge.set(busy as u64);
        queue_gauge.set(shared.queue.len() as u64);
        // The job ran under the submitter's trace from here on: queue
        // wait, every pass boundary, and the serialize span all join one
        // timeline, and the progress board answers `Status` mid-run.
        let _trace = mc_obs::trace_scope(job.trace_id);
        let _progress = mc_obs::job_scope(job.id, job.trace_id, job.spec.flow.normalized());
        let wait_us = job.enqueued.elapsed().as_micros() as u64;
        mc_obs::registry()
            .histogram("serve_queue_wait_us")
            .record(wait_us);
        mc_obs::record(
            "serve:queue_wait",
            mc_obs::epoch_us().saturating_sub(wait_us),
            wait_us,
            format!("job={}", job.id),
        );
        let entry = compute(shared, job.id, job.xag, &job.spec);
        // Commit into the coalescing cache; waiters racing this cold key
        // are woken from the committed entry (exactly one compute).
        shared.cache.commit(&job.key, &entry);
        {
            let mut stats = lock_unpoisoned(&shared.stats);
            let key = job.spec.flow.normalized();
            let key = if stats.per_flow.contains_key(&key) || stats.per_flow.len() < MAX_FLOW_ROWS {
                key
            } else {
                FLOW_ROW_OTHER.to_string()
            };
            let slot = stats.per_flow.entry(key).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += entry.millis;
        }
        // The reader may have vanished (client hung up); the cache entry
        // is still useful, so ignore the send failure.
        let _ = job.reply.send(entry);
        let busy = shared.busy.fetch_sub(1, Ordering::Relaxed) - 1;
        busy_gauge.set(busy as u64);
    }
}

fn compute(shared: &Arc<Shared>, job_id: u64, mut xag: Xag, spec: &JobSpec) -> CacheEntry {
    // Fork the shared context so the optimization itself runs without
    // holding any lock; absorb afterwards so every worker benefits from
    // the representatives this job synthesized.
    let mut ctx = lock_unpoisoned(&shared.ctx).fork();
    let run_start = Instant::now();
    let result = {
        let mut run_span = mc_obs::span("serve:run");
        run_span.detail(format!("job={job_id} flow={}", spec.flow.normalized()));
        run_job(&mut xag, &mut ctx, spec)
    };
    mc_obs::registry()
        .histogram("serve_run_us")
        .record(run_start.elapsed().as_micros() as u64);
    lock_unpoisoned(&shared.ctx).absorb(ctx);

    let serialize_start = Instant::now();
    let serialize_span = mc_obs::span("serve:serialize");
    let clean = xag.cleanup();
    let mut bristol = Vec::new();
    // lint: allow(no-panic-in-request-path): Vec<u8> sink; io::Write cannot fail in memory
    write_bristol(&clean, &mut bristol).expect("in-memory write cannot fail");
    let mut verilog = Vec::new();
    // lint: allow(no-panic-in-request-path): Vec<u8> sink; io::Write cannot fail in memory
    write_verilog(&clean, "optimized", &mut verilog).expect("in-memory write cannot fail");
    drop(serialize_span);
    mc_obs::registry()
        .histogram("serve_serialize_us")
        .record(serialize_start.elapsed().as_micros() as u64);
    mc_obs::registry()
        .counter("serve_jobs_computed_total")
        .inc();
    CacheEntry {
        job_id,
        // lint: allow(no-panic-in-request-path): both writers emit ASCII only
        bristol: String::from_utf8(bristol).expect("bristol writer emits ASCII"),
        // lint: allow(no-panic-in-request-path): both writers emit ASCII only
        verilog: String::from_utf8(verilog).expect("verilog writer emits ASCII"),
        ands_before: result.ands_before,
        xors_before: result.xors_before,
        depth_before: result.depth_before,
        ands_after: result.ands_after,
        xors_after: result.xors_after,
        depth_after: result.depth_after,
        rounds: result.rounds,
        converged: result.converged,
        millis: result.elapsed.as_millis() as u64,
    }
}

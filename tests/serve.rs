//! End-to-end tests of the `mc-serve` daemon: boot on an ephemeral port,
//! drive it with concurrent clients over real TCP, equivalence-check
//! every returned netlist, and verify the semantic cache through the
//! `stats` endpoint.

use std::time::Instant;

use mc_serve::{Client, OptimizeRequest, ServeConfig, Server};
use xag_mc::FlowSpec;
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{equiv_exhaustive, read_bristol, write_bristol, Xag};

fn bristol_text(xag: &Xag) -> String {
    let mut buf = Vec::new();
    write_bristol(xag, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("bristol is ASCII")
}

fn boot(workers: usize) -> mc_serve::ServerHandle {
    Server::bind(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("bind on an ephemeral port")
}

/// The acceptance scenario: two concurrent clients submit fuzz networks,
/// every response is equivalence-checked against its input, a
/// resubmission is a cache hit (verified via `stats`), and the sustained
/// throughput clears 1 job/s.
#[test]
fn two_clients_get_equivalent_results_and_cache_hits() {
    let handle = boot(2);
    let addr = handle.local_addr();
    const JOBS_PER_CLIENT: u64 = 6;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..2u64 {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let cfg = FuzzConfig::default();
                for j in 0..JOBS_PER_CLIENT {
                    let seed = 1000 * c + j; // client-disjoint seeds
                    let input = random_xag(&cfg, seed);
                    let result = client
                        .optimize(OptimizeRequest {
                            circuit: bristol_text(&input),
                            ..OptimizeRequest::default()
                        })
                        .expect("optimize");
                    assert!(!result.cached, "seed {seed} was never submitted before");
                    assert!(
                        result.ands_after <= result.ands_before,
                        "optimization must not add ANDs"
                    );
                    // Equivalence-check every returned netlist.
                    let back = read_bristol(result.netlist.as_bytes()).expect("parse response");
                    assert!(
                        equiv_exhaustive(&input, &back),
                        "returned netlist differs from input (seed {seed})"
                    );
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let rate = (2 * JOBS_PER_CLIENT) as f64 / elapsed;
    assert!(
        rate > 1.0,
        "sustained throughput {rate:.2} jobs/s is below 1 job/s"
    );

    // A structurally identical resubmission (fresh build from the same
    // seed, over a fresh connection) must be a cache hit.
    let mut client = Client::connect(addr).expect("connect");
    let before = client.stats().expect("stats");
    assert_eq!(before.cache_hits, 0);
    assert_eq!(before.cache_misses, 2 * JOBS_PER_CLIENT);
    assert_eq!(before.jobs_served, 2 * JOBS_PER_CLIENT);

    let resubmitted = random_xag(&FuzzConfig::default(), 1003);
    let hit = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&resubmitted),
            ..OptimizeRequest::default()
        })
        .expect("optimize resubmission");
    assert!(hit.cached, "identical resubmission must hit the cache");
    let back = read_bristol(hit.netlist.as_bytes()).expect("parse cached response");
    assert!(equiv_exhaustive(&resubmitted, &back));

    let after = client.stats().expect("stats");
    assert_eq!(after.cache_hits, 1, "stats endpoint must count the hit");
    assert_eq!(after.cache_misses, before.cache_misses);
    assert_eq!(after.jobs_served, before.jobs_served + 1);
    assert!(after.hit_rate() > 0.0);
    // Per-flow rows are keyed by normalized spec; the default flow is
    // the `paper` alias.
    let paper = FlowSpec::default().normalized();
    assert!(after
        .flows
        .iter()
        .any(|t| t.flow == paper && t.jobs == 2 * JOBS_PER_CLIENT));

    client.shutdown().expect("shutdown");
    handle.join();
}

/// A permuted-but-isomorphic circuit — same graph, different gate order
/// and operand order in the file — must hit the semantic cache.
#[test]
fn isomorphic_submission_is_a_cache_hit() {
    let handle = boot(1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let mut p = Xag::new();
    let (a, b, c) = (p.input(), p.input(), p.input());
    let ab = p.and(a, b);
    let ca = p.and(c, !a);
    let x = p.xor(ab, ca);
    let m = p.maj(a, b, c);
    p.output(x);
    p.output(m);

    // Same graph, different construction order, swapped operands.
    let mut q = Xag::new();
    let (a, b, c) = (q.input(), q.input(), q.input());
    let ca = q.and(!a, c);
    let m = q.maj(a, b, c);
    let ab = q.and(b, a);
    let x = q.xor(ca, ab);
    q.output(x);
    q.output(m);

    let first = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&p),
            ..OptimizeRequest::default()
        })
        .expect("first");
    assert!(!first.cached);
    let second = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&q),
            ..OptimizeRequest::default()
        })
        .expect("second");
    assert!(second.cached, "isomorphic network must hit");
    assert_eq!(second.job_id, first.job_id);
    assert_eq!(second.netlist, first.netlist);

    // A different flow is a different job, not a hit.
    let compress = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&p),
            flow: FlowSpec::named("compress").expect("canonical alias"),
            ..OptimizeRequest::default()
        })
        .expect("compress");
    assert!(!compress.cached);

    client.shutdown().expect("shutdown");
    handle.join();
}

/// The FlowSpec cache-key contract over the wire: the `paper` alias and
/// its written-out expansion (plus whitespace and `par{}` variants) are
/// one job — one miss, then hits — while `mc(cut=4)` and `mc(cut=6)`
/// provably miss each other.
#[test]
fn alias_and_expanded_spec_share_one_cache_entry() {
    let handle = boot(1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let circuit = bristol_text(&random_xag(&FuzzConfig::default(), 21));
    let submit = |client: &mut Client, flow: &str| {
        client
            .optimize(OptimizeRequest {
                circuit: circuit.clone(),
                flow: flow.parse().expect("valid spec"),
                ..OptimizeRequest::default()
            })
            .expect("optimize")
    };

    let first = submit(&mut client, "paper");
    assert!(!first.cached, "cold alias submission computes");
    for variant in [
        "{mc(cut=4);mc(cut=6)}*",
        " { mc( cut = 4 ) ; mc( cut = 6 ) } * ",
        "par(threads=2){mc(cut=4);mc(cut=6)}*",
        "paper_flow",
    ] {
        let hit = submit(&mut client, variant);
        assert!(hit.cached, "{variant} must hit the alias's entry");
        assert_eq!(hit.job_id, first.job_id, "{variant}");
        assert_eq!(hit.netlist, first.netlist, "{variant}");
    }

    let four = submit(&mut client, "mc(cut=4)");
    assert!(!four.cached, "mc(cut=4) is its own job");
    let six = submit(&mut client, "mc(cut=6)");
    assert!(!six.cached, "mc(cut=6) must miss mc(cut=4)'s entry");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_misses, 3, "paper, mc(cut=4), mc(cut=6)");
    assert_eq!(stats.cache_hits, 4, "every paper variant hit");
    // The alias variants aggregate into one per-flow row.
    let paper_row = stats
        .flows
        .iter()
        .find(|t| t.flow == FlowSpec::default().normalized())
        .expect("paper row");
    assert_eq!(paper_row.jobs, 1, "one computation across all variants");

    client.shutdown().expect("shutdown");
    handle.join();
}

/// The per-flow statistics map is bounded: a client cycling through
/// distinct specs cannot grow server memory (or the stats frame the
/// router polls) without limit — past the row bound, new flows aggregate
/// into the `(other)` catch-all row.
#[test]
fn per_flow_stats_rows_are_bounded() {
    const DISTINCT_SPECS: u64 = 70; // > the server's 64-row bound
    let handle = boot(2);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // A tiny circuit and trivial cleanup-only flows keep each job cheap.
    let mut x = Xag::new();
    let (a, b) = (x.input(), x.input());
    let g = x.and(a, b);
    x.output(g);
    let circuit = bristol_text(&x);
    for k in 0..DISTINCT_SPECS {
        client
            .optimize(OptimizeRequest {
                circuit: circuit.clone(),
                flow: format!("cleanup*{}", k + 2).parse().expect("valid spec"),
                ..OptimizeRequest::default()
            })
            .expect("optimize");
    }

    let stats = client.stats().expect("stats");
    // The 64-row bound (3 slots pre-seeded for the canonical flows)
    // plus the catch-all.
    assert!(
        stats.flows.len() <= 64 + 1,
        "flow rows must stay bounded, got {}",
        stats.flows.len()
    );
    let other = stats
        .flows
        .iter()
        .find(|t| t.flow == "(other)")
        .expect("overflow flows aggregate into the catch-all row");
    assert_eq!(
        other.jobs,
        DISTINCT_SPECS - (64 - 3),
        "jobs past the bound land in the catch-all"
    );
    // The pre-seeded canonical rows survive the churn un-displaced.
    let paper = FlowSpec::default().normalized();
    assert!(stats.flows.iter().any(|t| t.flow == paper));

    client.shutdown().expect("shutdown");
    handle.join();
}

/// The resource guard at the service edge: a hostile spec in a raw frame
/// is answered with a structured protocol error naming the limit, the
/// connection survives, and no worker ever sees the job.
#[test]
fn hostile_flow_spec_is_rejected_at_the_edge() {
    use mc_serve::protocol::{read_frame, write_frame, Response};

    let handle = boot(1);
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");

    let mut reject = |flow: &str, needle: &str| {
        let payload = format!(
            r#"{{"type":"optimize","circuit":"1 3\n1 2\n1 1\n\n2 1 0 1 2 AND\n","flow":"{flow}"}}"#
        );
        write_frame(&mut stream, payload.as_bytes()).expect("write frame");
        let reply = read_frame(&mut stream).expect("read frame").expect("reply");
        match Response::from_payload(&reply).expect("parse response") {
            Response::Error { message } => {
                assert!(message.contains(needle), "{flow}: {message}")
            }
            other => panic!("{flow}: expected an error, got {other:?}"),
        }
    };
    reject("cleanup*9999999", "limit");
    reject("{cleanup*1000}*1000", "budget");
    reject("mc(cut=7)", "cut size");

    // The daemon is still healthy on a typed connection.
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let input = random_xag(&FuzzConfig::default(), 3);
    let result = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&input),
            ..OptimizeRequest::default()
        })
        .expect("daemon still healthy");
    let back = read_bristol(result.netlist.as_bytes()).expect("parse");
    assert!(equiv_exhaustive(&input, &back));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_served, 1, "rejected specs never became jobs");

    client.shutdown().expect("shutdown");
    handle.join();
}

/// A malformed upload is a protocol error; the connection and the daemon
/// keep working afterwards.
#[test]
fn malformed_circuit_is_an_error_not_a_crash() {
    let handle = boot(1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let err = client
        .optimize(OptimizeRequest {
            circuit: "this is not a circuit".to_string(),
            ..OptimizeRequest::default()
        })
        .expect_err("garbage must be rejected");
    assert!(matches!(err, mc_serve::ClientError::Server(_)), "{err}");

    // Bristol that sniffs fine but is structurally broken.
    let err = client
        .optimize(OptimizeRequest {
            circuit: "3 4\n1 2\n1 1\n\n2 1 0 1 99 AND\n".to_string(),
            ..OptimizeRequest::default()
        })
        .expect_err("broken bristol must be rejected");
    assert!(matches!(err, mc_serve::ClientError::Server(_)), "{err}");

    // The same connection still serves good requests — no worker died.
    let input = random_xag(&FuzzConfig::default(), 7);
    let result = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&input),
            ..OptimizeRequest::default()
        })
        .expect("daemon still healthy");
    let back = read_bristol(result.netlist.as_bytes()).expect("parse");
    assert!(equiv_exhaustive(&input, &back));

    let status = client.status().expect("status");
    assert_eq!(status.workers, 1);

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Concurrent isomorphic submissions racing a cold cache must coalesce:
/// exactly one computation (one miss), everyone else served from the
/// commit as a hit — never N redundant computations of the same key.
#[test]
fn racing_isomorphic_submissions_coalesce_to_one_miss() {
    const RACERS: u64 = 6;
    let handle = boot(4);
    let addr = handle.local_addr();

    // One nontrivial circuit, same seed for every racer.
    let circuit = bristol_text(&random_xag(&FuzzConfig::default(), 77));
    let cached_flags: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                let circuit = circuit.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .optimize(OptimizeRequest {
                            circuit,
                            ..OptimizeRequest::default()
                        })
                        .expect("optimize")
                        .cached
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let computed = cached_flags.iter().filter(|&&cached| !cached).count();
    assert_eq!(
        computed, 1,
        "exactly one racer computes; got {cached_flags:?}"
    );

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_misses, 1, "one miss for the cold key");
    assert_eq!(
        stats.cache_hits,
        RACERS - 1,
        "the rest are (coalesced) hits"
    );
    assert_eq!(stats.jobs_served, RACERS);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// `ping` answers `pong` with a measurable round-trip time, and the
/// cluster-handshake frames are cleanly rejected by a plain backend.
#[test]
fn ping_round_trips_and_cluster_frames_are_rejected() {
    let handle = boot(1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    for _ in 0..3 {
        let rtt = client.ping().expect("ping");
        assert!(rtt.as_secs() < 5, "loopback rtt is sane");
    }

    let err = client
        .register("127.0.0.1:1", 1, 64)
        .expect_err("a backend is not a router");
    assert!(matches!(err, mc_serve::ClientError::Server(_)), "{err}");
    let err = client.cluster_stats().expect_err("no cluster stats here");
    assert!(matches!(err, mc_serve::ClientError::Server(_)), "{err}");

    // The connection survives the rejections.
    assert!(client.ping().is_ok());

    // Stats carry the uptime and the complete per-flow breakdown —
    // zero-filled rows keyed by the canonical flows' normalized specs.
    let stats = client.stats().expect("stats");
    let names: Vec<&str> = stats.flows.iter().map(|f| f.flow.as_str()).collect();
    for alias in ["paper", "compress", "from_params"] {
        let row = FlowSpec::named(alias)
            .expect("canonical alias")
            .normalized();
        assert!(
            names.contains(&row.as_str()),
            "missing flow row {row}: {names:?}"
        );
    }

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Verilog in, Verilog out: format handling end to end.
#[test]
fn verilog_round_trip_through_the_daemon() {
    use xag_circuits::CircuitFormat;
    use xag_network::{read_verilog, write_verilog};

    let handle = boot(1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let input = random_xag(&FuzzConfig::xor_heavy(), 11);
    let mut text = Vec::new();
    write_verilog(&input, "fuzz", &mut text).expect("write");
    let result = client
        .optimize(OptimizeRequest {
            circuit: String::from_utf8(text).expect("ascii"),
            output: CircuitFormat::Verilog,
            ..OptimizeRequest::default()
        })
        .expect("optimize verilog");
    assert_eq!(result.output, CircuitFormat::Verilog);
    let back = read_verilog(result.netlist.as_bytes()).expect("parse verilog response");
    assert!(equiv_exhaustive(&input, &back));

    client.shutdown().expect("shutdown");
    handle.join();
}

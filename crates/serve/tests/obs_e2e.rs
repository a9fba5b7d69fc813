//! End-to-end observability: one job traced through the daemon under a
//! single client-supplied trace ID, then read back over the wire via
//! the `metrics` and `trace-dump` frames; and the phase profile of a
//! multi-thread job read back via the `prof-dump` frame.

use mc_serve::{Client, OptimizeRequest, ServeConfig, Server};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{write_bristol, Xag};

fn two_and_circuit() -> String {
    // x = a & (b ^ c), spelled with 2 ANDs so the optimizer has work.
    let mut xag = Xag::new();
    let (a, b, c) = (xag.input(), xag.input(), xag.input());
    let ab = xag.and(a, b);
    let ac = xag.and(a, c);
    let x = xag.xor(ab, ac);
    xag.output(x);
    let mut text = Vec::new();
    write_bristol(&xag, &mut text).unwrap();
    String::from_utf8(text).unwrap()
}

#[test]
fn one_job_is_traced_end_to_end_under_one_trace_id() {
    let handle = Server::bind(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // A recognizable ID no other test in this process will use.
    let trace_id = 0x0E2E_00B5u64;
    let request = OptimizeRequest {
        circuit: two_and_circuit(),
        trace_id,
        ..OptimizeRequest::default()
    };
    let result = client.optimize(request).unwrap();
    assert!(!result.cached);
    assert_eq!(
        result.trace_id, trace_id,
        "the daemon must echo the client's trace ID"
    );

    // Filtered dump: every event belongs to our trace, and the job's
    // lifecycle spans are all present — queue wait, the run, at least
    // one optimization pass inside it, and serialization.
    let events = client.trace_dump(Some(trace_id)).unwrap();
    assert!(events.iter().all(|e| e.trace_id == trace_id));
    for expected in ["serve:queue_wait", "serve:run", "serve:serialize"] {
        assert!(
            events.iter().any(|e| e.span == expected),
            "missing span {expected:?} in {events:?}"
        );
    }
    assert!(
        events.iter().any(|e| e.span.starts_with("pass:")),
        "no per-pass span under the job's trace: {events:?}"
    );

    // The metrics frame exposes the same activity as counters.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("serve_jobs_computed_total"));
    assert!(metrics.contains("serve_queue_wait_us_count"));
    assert!(metrics.contains("mc_pass_elapsed_us_p50"));

    // A cache hit on resubmission is an instant event, also traced.
    let again = OptimizeRequest {
        circuit: two_and_circuit(),
        trace_id: trace_id + 1,
        ..OptimizeRequest::default()
    };
    let hit = client.optimize(again).unwrap();
    assert!(hit.cached);
    let hit_events = client.trace_dump(Some(trace_id + 1)).unwrap();
    assert!(
        hit_events.iter().any(|e| e.span == "serve:cache_hit"),
        "cache hit not traced: {hit_events:?}"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// One phase tree across threads: the propose phases of a 2-thread job's
/// workers fold under the job's `pipeline;par_rewrite` path. A second
/// tree rooted at `par_rewrite` would list `propose` twice in the profile.
#[test]
fn multi_thread_job_records_one_phase_tree() {
    let handle = Server::bind(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Wide enough that a round splits into several shards, so the
    // proposals really run on worker threads.
    let config = FuzzConfig {
        inputs: 16,
        gates: 400,
        outputs: 16,
        ..FuzzConfig::default()
    };
    let mut text = Vec::new();
    write_bristol(&random_xag(&config, 7).cleanup(), &mut text).unwrap();
    let request = OptimizeRequest {
        circuit: String::from_utf8(text).unwrap(),
        threads: 2,
        ..OptimizeRequest::default()
    };
    assert!(!client.optimize(request).unwrap().cached);

    let paths: Vec<String> = client
        .prof_dump()
        .unwrap()
        .into_iter()
        .map(|p| p.path)
        .collect();
    assert!(
        paths.iter().any(|p| p == "pipeline;par_rewrite;propose"),
        "no propose phase under the job's path: {paths:?}"
    );
    assert!(
        !paths.iter().any(|p| p.starts_with("par_rewrite;")),
        "worker phases started a second tree: {paths:?}"
    );

    client.shutdown().unwrap();
    handle.join();
}

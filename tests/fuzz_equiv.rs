//! Differential fuzzing of every optimization flow.
//!
//! In the spirit of sampler-testing oracles: instead of trusting the
//! rewriting engine because its unit tests pass, drive every `Pipeline`
//! flow — on one worker thread and on several — with a stream of seeded random
//! networks and check each result against the `equiv` oracle. All
//! networks stay within the exhaustive range of the oracle, so a pass
//! here is a proof of functional preservation for every generated case,
//! not a statistical argument.
//!
//! The seed is fixed (override with `MC_FUZZ_SEED=<n>` for exploration),
//! so a failure in CI replays locally from the log.

use mc_repro::mc::flow::sample_spec_text;
use mc_repro::mc::{Cleanup, FlowSpec, McRewrite, OptContext, Pipeline, XorReduce};
use mc_repro::network::fuzz::{random_xag, FuzzConfig};
use mc_repro::network::{equiv_exhaustive, write_bristol, Xag};

/// Default base seed of the differential suite.
const FUZZ_SEED: u64 = 0xDAC1_9F02;

/// Networks per flow; with four flows this exercises ~200 optimizations.
const NETWORKS_PER_FLOW: usize = 50;

fn base_seed() -> u64 {
    std::env::var("MC_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(FUZZ_SEED)
}

/// Cycles through the three generator shapes so every flow sees
/// XOR-heavy, AND-heavy, and mixed networks.
fn network(seed: u64) -> Xag {
    let cfg = match seed % 3 {
        0 => FuzzConfig::default(),
        1 => FuzzConfig::xor_heavy(),
        _ => FuzzConfig::and_heavy(),
    };
    random_xag(&cfg, seed)
}

fn check_flow(name: &str, make_flow: impl Fn() -> Pipeline, threads: usize) {
    let mut ctx = OptContext::new();
    let flow = make_flow();
    let base = base_seed();
    for i in 0..NETWORKS_PER_FLOW {
        let seed = base.wrapping_add(i as u64);
        let mut xag = network(seed);
        let reference = xag.cleanup();
        flow.run_parallel(&mut xag, &mut ctx, threads);
        assert!(
            equiv_exhaustive(&reference, &xag.cleanup()),
            "flow {name} broke equivalence on fuzz seed {seed}"
        );
    }
}

#[test]
fn paper_flow_preserves_function_on_random_networks() {
    check_flow("paper", Pipeline::paper_flow, 1);
}

#[test]
fn compress_flow_preserves_function_on_random_networks() {
    check_flow("compress", Pipeline::compress, 1);
}

#[test]
fn custom_flow_preserves_function_on_random_networks() {
    check_flow(
        "custom",
        || {
            Pipeline::new()
                .add(McRewrite::with_cut_size(4))
                .add(XorReduce::new())
                .add(Cleanup::new())
        },
        1,
    );
}

#[test]
fn parallel_paper_flow_preserves_function_on_random_networks() {
    check_flow("paper(3 threads)", Pipeline::paper_flow, 3);
}

#[test]
fn parallel_pass_flow_preserves_function_on_random_networks() {
    check_flow(
        "mc;xor;cleanup(2 threads)",
        || {
            Pipeline::new()
                .add(McRewrite::new())
                .add(XorReduce::new())
                .add(Cleanup::new())
        },
        2,
    );
}

// ---------------------------------------------------------------------
// FlowSpec sampling: instead of fuzzing only the four built-in flows,
// sample the *space of flows* itself — seeded random FlowSpecs (atoms,
// knobs, groups, `par{}` blocks, bounded and until-convergence
// repetition) — and run every sampled spec over fuzz networks against
// the exhaustive oracle.

/// Random FlowSpecs sampled per run.
const SPEC_SAMPLES: usize = 20;

/// Fuzz networks each sampled spec is checked on.
const NETWORKS_PER_SPEC: usize = 5;

#[test]
fn random_flow_specs_preserve_function_on_random_networks() {
    let base = base_seed();
    let mut rng = mc_rng::Rng::seed_from_u64(base ^ 0x51EC_F102);
    let mut ctx = OptContext::new();
    for s in 0..SPEC_SAMPLES {
        let text = sample_spec_text(&mut rng, true);
        let spec = FlowSpec::parse(&text)
            .unwrap_or_else(|e| panic!("sampled spec {text:?} failed to parse: {e}"));
        for i in 0..NETWORKS_PER_SPEC {
            let seed = base.wrapping_add((s * NETWORKS_PER_SPEC + i) as u64);
            let mut xag = network(seed);
            let reference = xag.cleanup();
            spec.run(&mut xag, &mut ctx, 1, 60);
            assert!(
                equiv_exhaustive(&reference, &xag.cleanup()),
                "sampled spec {text} broke equivalence on fuzz seed {seed}"
            );
        }
    }
}

/// Sampled specs wrapped in `par{}` blocks must be thread-count
/// invariant end to end: the same spec run with 1 and with 4 job threads
/// (and with the `par` wrapper erased) yields byte-identical netlists.
#[test]
fn par_block_specs_are_byte_identical_across_thread_counts() {
    let base = base_seed();
    let mut rng = mc_rng::Rng::seed_from_u64(base ^ 0x9A7B_0CC5);
    for s in 0..6 {
        let body = sample_spec_text(&mut rng, false);
        let wrapped = format!("par(threads={}){{{body}}};cleanup", 2 + s % 3);
        let plain = format!("{{{body}}};cleanup");
        let wrapped_spec = FlowSpec::parse(&wrapped)
            .unwrap_or_else(|e| panic!("sampled spec {wrapped:?} failed to parse: {e}"));
        let plain_spec = FlowSpec::parse(&plain).expect("plain variant parses");
        assert_eq!(
            wrapped_spec.normalized(),
            plain_spec.normalized(),
            "normalization must erase the par wrapper"
        );
        let net_seed = base.wrapping_add(7000 + s as u64);
        let netlist = |spec: &FlowSpec, threads: usize| {
            let mut xag = network(net_seed);
            let mut ctx = OptContext::new();
            spec.run(&mut xag, &mut ctx, threads, 60);
            let mut buf = Vec::new();
            write_bristol(&xag.cleanup(), &mut buf).expect("in-memory write");
            buf
        };
        let reference = netlist(&wrapped_spec, 1);
        assert_eq!(reference, netlist(&wrapped_spec, 4), "{wrapped}");
        assert_eq!(reference, netlist(&plain_spec, 1), "{wrapped} vs {plain}");
        assert_eq!(reference, netlist(&plain_spec, 4), "{plain}");
    }
}

// ---------------------------------------------------------------------
// Engine differential: a fixed corpus of seeded networks whose AND
// counts under the paper flow are recorded in
// `tests/golden/engine_ands.txt` (see its header for the recipe). Every
// network must stay equivalent to its input, and the corpus total must
// not exceed the recorded total. Single networks may move either way.

/// Networks in the recorded corpus (seeds `0..CORPUS_SIZE`).
const CORPUS_SIZE: usize = 300;

#[test]
fn paper_flow_corpus_stays_within_the_recorded_and_total() {
    let golden = std::fs::read_to_string("tests/golden/engine_ands.txt")
        .expect("recorded AND counts committed");
    let recorded: Vec<(u64, usize)> = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (seed, ands) = l.split_once(' ').expect("`<seed> <ands>` line");
            (
                seed.parse().expect("seed"),
                ands.parse().expect("AND count"),
            )
        })
        .collect();
    assert_eq!(recorded.len(), CORPUS_SIZE, "corpus file is incomplete");
    let mut ctx = OptContext::new();
    let (mut total, mut recorded_total) = (0usize, 0usize);
    let mut moved = Vec::new();
    for (seed, before) in recorded {
        let reference = network(seed).cleanup();
        let mut xag = reference.clone();
        Pipeline::paper_flow()
            .max_rounds(30)
            .run(&mut xag, &mut ctx);
        assert!(
            equiv_exhaustive(&reference, &xag.cleanup()),
            "paper flow broke equivalence on corpus seed {seed}"
        );
        let after = xag.num_ands();
        if after != before {
            moved.push(format!("{seed}: {before} -> {after}"));
        }
        total += after;
        recorded_total += before;
    }
    assert!(
        total <= recorded_total,
        "corpus total {total} ANDs exceeds the recorded {recorded_total}; moved seeds: {moved:?}"
    );
}

//! Behavioural tests for the pass-pipeline API: flow construction, pass
//! ordering, per-pass statistics accumulation, and equivalence after
//! every composed flow.

use mc_repro::mc::{
    Cleanup, McRewrite, OptContext, Pass, Pipeline, RewriteParams, SizeRewrite, XorReduce,
};
use mc_repro::network::{equiv, equiv_exhaustive, Signal, Xag};

type FlowFactory = fn() -> Pipeline;

fn textbook_full_adder() -> Xag {
    let mut xag = Xag::new();
    let (a, b, cin) = (xag.input(), xag.input(), xag.input());
    let ab = xag.and(a, b);
    let ac = xag.and(a, cin);
    let bc = xag.and(b, cin);
    let t = xag.xor(ab, ac);
    let cout = xag.xor(t, bc);
    let axb = xag.xor(a, b);
    let sum = xag.xor(axb, cin);
    xag.output(sum);
    xag.output(cout);
    xag
}

/// A chain of adders: enough XOR-heavy structure that rewriting inflates
/// the linear layers and XorReduce has something to compress.
fn adder_chain(bits: usize) -> Xag {
    use mc_repro::circuits::arith::{add_ripple, input_word, output_word};
    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let c = input_word(&mut x, bits);
    let (s1, c1) = add_ripple(&mut x, &a, &b, Signal::CONST0);
    let (s2, c2) = add_ripple(&mut x, &s1, &c, c1);
    output_word(&mut x, &s2);
    x.output(c2);
    x
}

#[test]
fn paper_flow_drives_full_adder_to_mc_one() {
    let mut xag = textbook_full_adder();
    let reference = xag.cleanup();
    let mut ctx = OptContext::new();
    let stats = Pipeline::paper_flow().run(&mut xag, &mut ctx);
    assert!(stats.converged);
    assert_eq!(xag.num_ands(), 1, "paper: full adder has MC 1");
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

#[test]
fn xor_reduce_after_mc_rewrite_shrinks_xors_without_touching_ands() {
    // Pass ordering matters: McRewrite only minimizes AND gates and
    // leaves the linear layers however they fall; a subsequent XorReduce
    // compresses them and must leave the AND count exactly where
    // McRewrite put it.
    //
    // y1 = a⊕b⊕c, y2 = a⊕b⊕d, y3 = a⊕b⊕e, each associated differently so
    // structural hashing shares no XOR gate (6 gates); Paar extraction
    // shares a⊕b (4 gates). The sums feed AND gates, which are already
    // MC-optimal, so McRewrite must not change them.
    let mut xag = Xag::new();
    let (a, b, c) = (xag.input(), xag.input(), xag.input());
    let (d, e) = (xag.input(), xag.input());
    let t1 = xag.xor(a, b);
    let y1 = xag.xor(t1, c);
    let t2 = xag.xor(a, d);
    let y2 = xag.xor(t2, b);
    let t3 = xag.xor(b, e);
    let y3 = xag.xor(t3, a);
    let g1 = xag.and(y1, y2);
    let g2 = xag.and(y2, y3);
    xag.output(g1);
    xag.output(g2);
    assert_eq!((xag.num_ands(), xag.num_xors()), (2, 6));
    let reference = xag.cleanup();
    let mut ctx = OptContext::new();

    let stats = Pipeline::new()
        .add(McRewrite::with_cut_size(4))
        .add(McRewrite::new())
        .add(XorReduce::new())
        .run_once(&mut xag, &mut ctx);

    for pass in &stats.passes {
        assert_eq!(
            pass.ands_after, pass.ands_before,
            "{}: AND count must stay at the MC optimum",
            pass.pass
        );
    }
    assert_eq!(xag.num_ands(), 2, "AND gates untouched");
    let xor_pass = stats.passes.last().expect("three passes ran");
    assert_eq!(xor_pass.pass, "xor-reduce");
    assert!(
        xor_pass.xors_after < xor_pass.xors_before,
        "XorReduce found nothing to compress ({} XORs)",
        xor_pass.xors_before
    );
    assert_eq!(
        xor_pass.rewrites_applied,
        xor_pass.xors_before - xor_pass.xors_after
    );
    assert_eq!(xag.num_xors(), 4, "a⊕b is shared across the three sums");
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

#[test]
fn stats_accumulate_per_pass() {
    let mut xag = adder_chain(6);
    let mut ctx = OptContext::new();
    let flow = Pipeline::new()
        .add(McRewrite::with_cut_size(4))
        .add(McRewrite::new())
        .add(XorReduce::new())
        .add(Cleanup::new());
    let stats = flow.run(&mut xag, &mut ctx);

    let summary = stats.per_pass();
    // Every executed pass shows up, keyed by name, in first-run order.
    let names: Vec<&str> = summary.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names[0], "mc-rewrite<4>");
    assert!(names.contains(&"mc-rewrite<6>"));
    // Totals line up with the flat execution list.
    let total_runs: usize = summary.iter().map(|p| p.runs).sum();
    assert_eq!(total_runs, stats.passes.len());
    for p in &summary {
        let runs = stats.passes.iter().filter(|s| s.pass == p.name).count();
        assert_eq!(runs, p.runs, "{}", p.name);
        let saved: i64 = stats
            .passes
            .iter()
            .filter(|s| s.pass == p.name)
            .map(|s| s.ands_before as i64 - s.ands_after as i64)
            .sum();
        assert_eq!(saved, p.ands_saved, "{}", p.name);
    }
    // The MC passes carry the AND savings; the whole flow must have saved
    // some on a textbook adder chain.
    let mc_saved: i64 = summary
        .iter()
        .filter(|p| p.name.starts_with("mc-rewrite"))
        .map(|p| p.ands_saved)
        .sum();
    assert!(mc_saved > 0, "MC passes saved nothing");
}

#[test]
fn composed_flows_preserve_equivalence() {
    let build: Vec<(&str, FlowFactory)> = vec![
        ("paper_flow", Pipeline::paper_flow),
        ("compress", Pipeline::compress),
        ("rewrite+xor+cleanup", || {
            Pipeline::new()
                .add(McRewrite::new())
                .add(XorReduce::new())
                .add(Cleanup::new())
        }),
        ("size-first", || {
            Pipeline::new()
                .add(SizeRewrite::with_cut_size(4))
                .add(McRewrite::new())
                .add(XorReduce::new())
        }),
    ];
    let mut ctx = OptContext::new();
    for (name, make) in build {
        for source in [textbook_full_adder(), adder_chain(5)] {
            let reference = source.cleanup();
            let mut xag = source;
            let before = xag.num_ands();
            make().run(&mut xag, &mut ctx);
            assert!(xag.num_ands() <= before, "flow {name} raised the AND count");
            assert!(
                equiv_exhaustive(&reference, &xag.cleanup()),
                "flow {name} changed the function"
            );
        }
    }
}

#[test]
fn compress_reduces_total_gates_and_run_once_runs_each_pass_once() {
    let mut xag = adder_chain(6);
    let reference = xag.cleanup();
    let before = xag.num_gates();
    let mut ctx = OptContext::new();

    let flow = Pipeline::compress();
    let sweep = flow.run_once(&mut xag, &mut ctx);
    assert_eq!(sweep.passes.len(), flow.num_passes());
    assert!(!sweep.converged, "run_once never claims convergence");
    assert!(xag.num_gates() <= before);
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

/// The converged log2 and 32×32-multiplier networks hold wide (opaque)
/// XOR gates that read interior linear-layer XORs; XOR reduction must
/// rebuild those reads instead of panicking on an unmapped fanin.
#[test]
fn xor_reduce_after_the_paper_flow_on_log2_and_the_multiplier() {
    use mc_repro::circuits::epfl::{benchmark, Scale};
    use mc_repro::circuits::mpc::mpc_suite;

    let mut log2 = benchmark("log2", Scale::Reduced).expect("Table 1 row").xag;
    // The "Initial" network, as Table 1 prepares it.
    Pipeline::from_params(&RewriteParams {
        max_rounds: 2,
        ..RewriteParams::size_baseline()
    })
    .run(&mut log2, &mut OptContext::new());
    let mult = mpc_suite(false)
        .into_iter()
        .find(|b| b.name == "32x32-bit Multiplier")
        .expect("Table 2 row")
        .xag;

    let mut ctx = OptContext::new();
    for (name, source) in [("log2", log2.cleanup()), ("multiplier", mult)] {
        let mut xag = source.clone();
        Pipeline::paper_flow().run(&mut xag, &mut ctx);
        XorReduce::new().run(&mut xag, &mut ctx);
        assert!(
            equiv(&source, &xag.cleanup(), 7, 64),
            "{name}: XOR reduction changed the function"
        );
    }
}

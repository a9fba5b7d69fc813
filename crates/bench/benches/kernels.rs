//! Micro-benchmarks for the flow's kernels: cut enumeration, affine
//! classification, database synthesis, and one rewriting round.
//!
//! Run with `cargo bench -p xag-bench --bench kernels`
//! (set `MC_BENCH_SAMPLES=3` for a smoke run).

use xag_affine::AffineClassifier;
use xag_bench::harness::{black_box, BenchGroup};
use xag_circuits::aes::SboxBuilder;
use xag_circuits::arith::{add_ripple, input_word, multiply_array, output_word};
use xag_circuits::keccak::keccak_f;
use xag_cuts::{enumerate_cuts, CutParams};
use xag_mc::{McRewrite, OptContext, Pass};
use xag_network::{Signal, Xag};
use xag_synth::Synthesizer;
use xag_tt::Tt;

fn adder_circuit(bits: usize) -> Xag {
    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let (s, c) = add_ripple(&mut x, &a, &b, Signal::CONST0);
    output_word(&mut x, &s);
    x.output(c);
    x
}

fn multiplier_circuit(bits: usize) -> Xag {
    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let p = multiply_array(&mut x, &a, &b);
    output_word(&mut x, &p);
    x
}

fn bench_cut_enumeration(g: &mut BenchGroup) {
    let mult = multiplier_circuit(16);
    g.bench_function("cut_enumeration/mult16", || {
        let sets = enumerate_cuts(black_box(&mult), &CutParams::default());
        black_box(sets.total())
    });
}

fn bench_classification(g: &mut BenchGroup) {
    g.bench_function("classify/exhaust4var_stride", || {
        let mut cls = AffineClassifier::new();
        let mut acc = 0u64;
        for bits in (0..65_536u64).step_by(257) {
            acc ^= cls.classify(Tt::from_bits(bits, 4)).representative.bits();
        }
        black_box(acc)
    });
    let mut seed = 0x9e3779b97f4a7c15u64;
    g.bench_function("classify/6var_beam", || {
        let mut cls = AffineClassifier::new();
        seed = seed.rotate_left(13).wrapping_mul(0xd1342543de82ef95);
        black_box(cls.classify(Tt::from_bits(seed, 6)).representative)
    });
}

fn bench_synthesis(g: &mut BenchGroup) {
    let mut seed = 0x243f6a8885a308d3u64;
    g.bench_function("synth/random_5var", || {
        let mut s = Synthesizer::new();
        seed = seed.rotate_left(17).wrapping_mul(0x9e3779b97f4a7c15);
        let f = Tt::from_bits(seed, 5);
        black_box(s.synthesize(f).num_ands())
    });
}

fn bench_rewriting(g: &mut BenchGroup) {
    g.bench_function("rewrite/adder32_one_round", || {
        let mut xag = adder_circuit(32);
        let mut ctx = OptContext::new();
        let stats = McRewrite::new().run(&mut xag, &mut ctx);
        black_box(stats.ands_after)
    });
}

/// A bank of AES S-boxes: the crypto kernel whose tower-field structure
/// dominates the AES rows of Table 2.
fn sbox_bank(instances: usize) -> Xag {
    let mut x = Xag::new();
    let mut sbox = SboxBuilder::new();
    for _ in 0..instances {
        let bits: Vec<Signal> = (0..8).map(|_| x.input()).collect();
        for s in sbox.build(&mut x, &bits) {
            x.output(s);
        }
    }
    x
}

/// Single- vs multi-thread rounds of the sharded engine on the Keccak and
/// AES kernels. The engine is bit-identical across thread counts, so the
/// reported speedup lines compare equal work (they show ~1x on a
/// single-core host; the propose phase scales with cores).
fn bench_parallel_rewriting(g: &mut BenchGroup) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let keccak = keccak_f(1);
    let t1 = g.bench_function_timed("par_rewrite/keccak25_1thread", || {
        let mut xag = keccak.cleanup();
        let mut ctx = OptContext::new();
        let stats = McRewrite::new().run(&mut xag, &mut ctx);
        black_box(stats.ands_after)
    });
    let tn = g.bench_function_timed(&format!("par_rewrite/keccak25_{threads}threads"), || {
        let mut xag = keccak.cleanup();
        let mut ctx = OptContext::new();
        let stats = McRewrite::new().run_parallel(&mut xag, &mut ctx, threads);
        black_box(stats.ands_after)
    });
    g.report_ratio("par_rewrite/keccak25_speedup", t1, tn);

    let aes = sbox_bank(8);
    let t1 = g.bench_function_timed("par_rewrite/aes_sbox8_1thread", || {
        let mut xag = aes.cleanup();
        let mut ctx = OptContext::new();
        let stats = McRewrite::new().run(&mut xag, &mut ctx);
        black_box(stats.ands_after)
    });
    let tn = g.bench_function_timed(&format!("par_rewrite/aes_sbox8_{threads}threads"), || {
        let mut xag = aes.cleanup();
        let mut ctx = OptContext::new();
        let stats = McRewrite::new().run_parallel(&mut xag, &mut ctx, threads);
        black_box(stats.ands_after)
    });
    g.report_ratio("par_rewrite/aes_sbox8_speedup", t1, tn);
}

fn main() {
    let mut g = BenchGroup::new("kernels");
    g.sample_size(10);
    bench_cut_enumeration(&mut g);
    bench_classification(&mut g);
    bench_synthesis(&mut g);
    bench_rewriting(&mut g);
    bench_parallel_rewriting(&mut g);
    g.finish();
}

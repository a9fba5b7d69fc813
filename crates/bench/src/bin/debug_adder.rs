//! Developer tool: trace per-round AND counts while optimizing a ripple
//! adder through the pass pipeline, to inspect convergence behaviour.
//!
//! Usage: `debug_adder [bits] [cut_limit] [cut_size] [exact_vars] [threads] [--json PATH]`
//!
//! `threads` sets the worker count of every rewriting round (wall-clock
//! only; the result is the same for every count).
//! With `--json PATH` one before/after record of the run is written.

use xag_bench::{json_path_from_args, write_bench_json, BenchRecord};
use xag_circuits::arith::{add_ripple, input_word, output_word};
use xag_mc::{OptContext, Pipeline, RewriteParams};
use xag_network::{Signal, Xag};

fn main() {
    let arg = |i: usize, default: usize| -> usize {
        std::env::args()
            .nth(i)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let bits = arg(1, 16);
    let cut_limit = arg(2, 12);
    let cut_size = arg(3, 6);
    let exact_vars = arg(4, 4);
    let threads = arg(5, 1);

    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let (s, c) = add_ripple(&mut x, &a, &b, Signal::CONST0);
    output_word(&mut x, &s);
    x.output(c);
    println!("initial: {} AND {} XOR", x.num_ands(), x.num_xors());
    let (size_before, depth_before, mc_before) = (x.num_gates(), x.and_depth(), x.num_ands());

    let mut params = RewriteParams::default();
    params.cut_params.cut_limit = cut_limit;
    params.cut_params.cut_size = cut_size;
    params.synth_config.exact_search_max_vars = exact_vars;
    let flow = Pipeline::from_params(&params);
    println!("flow: {:?}", flow.pass_names());

    let mut ctx = OptContext::with_config(params.classify_config, params.synth_config);
    let stats = flow.run_parallel(&mut x, &mut ctx, threads);
    for (i, r) in stats.passes.iter().enumerate() {
        println!("round {i}: {r}");
    }
    println!("per-pass totals:");
    for p in stats.per_pass() {
        println!(
            "  {:<18} {} runs | {} ANDs saved | {} XORs saved | {} rewrites | {:.2}s",
            p.name,
            p.runs,
            p.ands_saved,
            p.xors_saved,
            p.rewrites_applied,
            p.elapsed.as_secs_f64()
        );
    }
    println!("final: {} AND {} XOR ({stats})", x.num_ands(), x.num_xors());
    let argv: Vec<String> = std::env::args().collect();
    if let Some(path) = json_path_from_args(&argv) {
        let record = BenchRecord {
            bench: "debug_adder".to_string(),
            name: format!("adder{bits}"),
            size_before,
            size_after: x.num_gates(),
            depth_before,
            depth_after: x.and_depth(),
            mc_before,
            mc_after: x.num_ands(),
            wall_s: stats.total_time().as_secs_f64(),
            threads,
            // The spec for the from_params cut schedule actually run
            // (cut_limit/exact_vars are context knobs outside the spec
            // language).
            flow: if cut_size > 4 {
                format!("{{mc(cut=4);mc(cut={cut_size})}}*")
            } else {
                format!("mc(cut={cut_size})*")
            },
        };
        write_bench_json(&path, std::slice::from_ref(&record)).expect("write --json output");
        println!("wrote 1 record to {}", path.display());
    }
}

//! Developer tool: run the experiment flow phases on one named EPFL
//! benchmark with verbose progress, to localize pathological behaviour.
//!
//! The phases are driven pass by pass — [`SizeRewrite`] for the baseline,
//! then [`McRewrite`] rounds — over one shared [`OptContext`], mirroring
//! what `run_flow` composes into pipelines.
//!
//! Usage: `debug_bench [name] [--threads N] [--json PATH]` — with
//! `--threads N` each mc round proposes on N worker threads; with
//! `--json PATH` one before/after record of the whole phase trace is
//! written.

use xag_bench::{json_path_from_args, write_bench_json, BenchRecord};
use xag_circuits::epfl::{epfl_suite, Scale};
use xag_mc::{McRewrite, OptContext, Pass, SizeRewrite};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "div".into());
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let suite = epfl_suite(Scale::Reduced);
    let bench = suite
        .iter()
        .find(|b| b.name == name)
        .expect("unknown benchmark");
    let mut xag = bench.xag.cleanup();
    println!(
        "{name}: {} AND {} XOR ({} nodes)",
        xag.num_ands(),
        xag.num_xors(),
        xag.capacity()
    );
    let (size_before, depth_before, mc_before) = (xag.num_gates(), xag.and_depth(), xag.num_ands());
    let t0 = std::time::Instant::now();
    let mut ctx = OptContext::new();
    println!("— size baseline —");
    let size_pass = SizeRewrite::new();
    for i in 0..2 {
        let s = size_pass.run(&mut xag, &mut ctx);
        println!("size round {i}: {s} (capacity {})", xag.capacity());
    }
    xag = xag.cleanup();
    println!("— mc rewriting —");
    let mc_pass = McRewrite::new();
    for i in 0..30 {
        let s = mc_pass.run_parallel(&mut xag, &mut ctx, threads);
        println!(
            "mc round {i}: {s} (capacity {}, db {})",
            xag.capacity(),
            ctx.db_size()
        );
        if s.rewrites_applied == 0 {
            break;
        }
    }
    if let Some(path) = json_path_from_args(&args) {
        let record = BenchRecord {
            bench: "debug_bench".to_string(),
            name: name.clone(),
            size_before,
            size_after: xag.num_gates(),
            depth_before,
            depth_after: xag.and_depth(),
            mc_before,
            mc_after: xag.num_ands(),
            wall_s: t0.elapsed().as_secs_f64(),
            threads,
            // The phase trace above: two size-baseline rounds, then up
            // to 30 mc rounds (early-exit when a round applies nothing).
            flow: "size(cut=6)*2;mc(cut=6)*30".to_string(),
        };
        write_bench_json(&path, std::slice::from_ref(&record)).expect("write --json output");
        println!("wrote 1 record to {}", path.display());
    }
}

//! Shared machinery of the hot-path benchmarks: the workload set, the
//! pre-overhaul baseline implementation, and a counting global allocator.
//!
//! Both `hotpath_bench` (the full microbenchmark) and `bench_gate` (the
//! CI regression gate) drive this module, so the gate replays exactly
//! the measurements the committed `BENCH_*.json` trajectory was recorded
//! with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use xag_affine::AffineClassifier;
use xag_cuts::{enumerate_cuts_for, CutParams};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::Xag;
use xag_tt::Tt;

use crate::harness::{black_box, BenchGroup};
use crate::BenchRecord;

/// A [`System`] wrapper that counts allocations while armed. Counting is
/// off by default — one relaxed load per allocation — so setup and
/// reporting noise stay out of the window; [`count_allocs`] arms it
/// around exactly the call under test.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed, returning its heap
/// allocation count alongside its result. Not reentrant; the bench
/// binaries are single-threaded while measuring.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), out)
}

/// One named benchmark network.
pub struct Workload {
    /// Stable row name (part of the `BENCH_*.json` record names).
    pub name: &'static str,
    /// The network under measurement.
    pub xag: Xag,
}

/// The hot-path workload set: two seeded fuzz networks (wide and deep), a
/// reduced-lane Keccak-f permutation, and AES-128. Deterministic — the
/// regression gate relies on the cut counts being reproducible.
pub fn workloads() -> Vec<Workload> {
    let fuzz_wide = FuzzConfig {
        inputs: 24,
        gates: 1500,
        outputs: 8,
        ..FuzzConfig::default()
    };
    let fuzz_deep = FuzzConfig {
        inputs: 16,
        gates: 1500,
        outputs: 8,
        depth_bias: 0.85,
        ..FuzzConfig::default()
    };
    vec![
        Workload {
            name: "fuzz_wide",
            xag: random_xag(&fuzz_wide, 7),
        },
        Workload {
            name: "fuzz_deep",
            xag: random_xag(&fuzz_deep, 7),
        },
        Workload {
            name: "keccak_f200",
            xag: xag_circuits::keccak::keccak_f(8),
        },
        Workload {
            name: "aes128",
            xag: xag_circuits::aes::aes128(false),
        },
    ]
}

/// The pre-overhaul hot path, reimplemented over the public network API:
/// per-node `Vec<Cut>` sets behind a `HashMap`, heap-allocated leaf
/// vectors, clone-the-fanin-sets merging, and a recursive per-cut cone
/// traversal with a fresh `HashMap` memo per call. This is the baseline
/// the `speedup` rows measure against; the differential tests in
/// `crates/cuts/tests/differential.rs` pin the *results* of the two
/// implementations to each other.
pub mod legacy {
    use std::collections::HashMap;

    use xag_cuts::CutParams;
    use xag_network::{NodeId, NodeKind, Xag};
    use xag_tt::Tt;

    /// The old cut representation: heap-allocated sorted leaf vector plus
    /// the 64-bit subset signature.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Cut {
        /// Sorted, deduplicated leaf nodes.
        pub leaves: Vec<NodeId>,
        /// `1 << (leaf % 64)` union over the leaves.
        pub signature: u64,
    }

    impl Cut {
        /// Creates a cut from leaf ids (sorted and deduplicated here).
        pub fn new(mut leaves: Vec<NodeId>) -> Self {
            leaves.sort_unstable();
            leaves.dedup();
            let signature = leaves.iter().fold(0u64, |s, &l| s | 1 << (l % 64));
            Self { leaves, signature }
        }

        /// True iff `self`'s leaves are a subset of `other`'s.
        pub fn dominates(&self, other: &Cut) -> bool {
            if self.leaves.len() > other.leaves.len() || self.signature & !other.signature != 0 {
                return false;
            }
            self.leaves
                .iter()
                .all(|l| other.leaves.binary_search(l).is_ok())
        }

        /// Union of two cuts, allocating a fresh leaf vector.
        pub fn merge(&self, other: &Cut) -> Cut {
            let mut leaves = Vec::with_capacity(self.leaves.len() + other.leaves.len());
            leaves.extend_from_slice(&self.leaves);
            leaves.extend_from_slice(&other.leaves);
            Cut::new(leaves)
        }
    }

    /// The old `enumerate_cuts`, including its original loose early size
    /// filter (`cut_size + 8`).
    pub fn enumerate(xag: &Xag, order: &[NodeId], params: &CutParams) -> HashMap<NodeId, Vec<Cut>> {
        let mut cuts: HashMap<NodeId, Vec<Cut>> = HashMap::new();
        cuts.insert(0, vec![Cut::new(vec![])]);
        for i in 0..xag.num_inputs() {
            let n = xag.input_signal(i).node();
            cuts.insert(n, vec![Cut::new(vec![n])]);
        }
        for &n in order {
            let (f0, f1) = xag.fanins(n);
            let set0 = cuts.get(&f0.node()).cloned().unwrap_or_default();
            let set1 = cuts.get(&f1.node()).cloned().unwrap_or_default();
            let mut merged: Vec<Cut> = Vec::new();
            for c0 in &set0 {
                for c1 in &set1 {
                    if (c0.signature | c1.signature).count_ones() as usize > params.cut_size + 8 {
                        continue;
                    }
                    let cut = c0.merge(c1);
                    if cut.leaves.len() > params.cut_size {
                        continue;
                    }
                    if merged.iter().any(|c| c.dominates(&cut)) {
                        continue;
                    }
                    merged.retain(|c| !cut.dominates(c));
                    merged.push(cut);
                }
            }
            merged.sort_by_key(|c| c.leaves.len());
            merged.truncate(params.cut_limit);
            merged.push(Cut::new(vec![n]));
            cuts.insert(n, merged);
        }
        cuts
    }

    /// The old `Xag::cone_tt`: a fresh `HashMap` memo and a recursive
    /// cone walk per call.
    pub fn cone_tt(xag: &Xag, root: NodeId, leaves: &[NodeId]) -> Option<Tt> {
        if leaves.len() > 6 {
            return None;
        }
        let nvars = leaves.len();
        let mut memo: HashMap<NodeId, Tt> = HashMap::new();
        for (i, &l) in leaves.iter().enumerate() {
            memo.insert(l, Tt::projection(i, nvars.max(1)));
        }
        memo.insert(0, Tt::zero(nvars.max(1)));
        cone_tt_rec(xag, root, &mut memo)
    }

    fn cone_tt_rec(xag: &Xag, n: NodeId, memo: &mut HashMap<NodeId, Tt>) -> Option<Tt> {
        if let Some(&t) = memo.get(&n) {
            return Some(t);
        }
        if !xag.is_gate(n) {
            return None;
        }
        let (f0, f1) = xag.fanins(n);
        let t0 = cone_tt_rec(xag, f0.node(), memo)?;
        let t1 = cone_tt_rec(xag, f1.node(), memo)?;
        let t0 = if f0.is_complement() { !t0 } else { t0 };
        let t1 = if f1.is_complement() { !t1 } else { t1 };
        let t = match xag.kind(n) {
            NodeKind::And => t0 & t1,
            NodeKind::Xor => t0 ^ t1,
            _ => unreachable!("order yields gates only"),
        };
        memo.insert(n, t);
        Some(t)
    }
}

/// Runs the full hot-path measurement over [`workloads`], printing the
/// benchmark report and returning the `BENCH_*.json` records. This is
/// the single source of the `hotpath` trajectory rows: the
/// `hotpath_bench` binary records them, and `bench_gate` replays them
/// against the committed file.
///
/// * `samples` — timed iterations per measurement (`MC_BENCH_SAMPLES`
///   still overrides).
/// * `alloc_check` — when set, *assert* the allocation guarantee: the
///   sweep's heap allocation count must stay O(log) in the number of
///   cuts (vector-growth doublings only, zero allocations per cut).
///
/// # Panics
///
/// Panics when `alloc_check` is set and the allocation budget is
/// exceeded.
pub fn run_hotpath(samples: usize, alloc_check: bool) -> Vec<BenchRecord> {
    let params = CutParams::default();
    let mut records: Vec<BenchRecord> = Vec::new();
    let record = |records: &mut Vec<BenchRecord>,
                  name: String,
                  size_before: usize,
                  size_after: usize,
                  wall: f64| {
        records.push(BenchRecord {
            bench: "hotpath".to_string(),
            name,
            size_before,
            size_after,
            depth_before: 0,
            depth_after: 0,
            mc_before: 0,
            mc_after: 0,
            wall_s: wall,
            threads: 1,
            flow: String::new(),
        });
    };

    for w in workloads() {
        let xag = &w.xag;
        let order = xag.live_gates();
        let gates = order.len();
        let mut group = BenchGroup::new(w.name);
        group.sample_size(samples);

        // Current hot path: one fused sweep computes every cut and its
        // function.
        let sets = enumerate_cuts_for(xag, &order, &params);
        let total_cuts = sets.total();
        let t_new = group.bench_function_timed("enum", || {
            black_box(enumerate_cuts_for(xag, &order, &params).total())
        });
        record(
            &mut records,
            format!("enum/{}", w.name),
            gates,
            total_cuts,
            t_new.as_secs_f64(),
        );

        // Legacy baseline: allocating enumeration, then one recursive
        // cone traversal per non-trivial cut.
        let t_legacy = group.bench_function_timed("enum_legacy", || {
            let cuts = legacy::enumerate(xag, &order, &params);
            let mut functions = 0usize;
            for &n in &order {
                for cut in &cuts[&n] {
                    if cut.leaves.len() == 1 && cut.leaves[0] == n {
                        continue;
                    }
                    if legacy::cone_tt(xag, n, &cut.leaves).is_some() {
                        functions += 1;
                    }
                }
            }
            black_box(functions)
        });
        record(
            &mut records,
            format!("enum_legacy/{}", w.name),
            gates,
            total_cuts,
            t_legacy.as_secs_f64(),
        );

        group.report_ratio("speedup (legacy/new)", t_legacy, t_new);
        let ratio = if t_new.as_nanos() > 0 {
            t_legacy.as_secs_f64() / t_new.as_secs_f64()
        } else {
            1.0
        };
        record(
            &mut records,
            format!("speedup/{}", w.name),
            gates,
            total_cuts,
            ratio,
        );

        // Allocation profile of the sweep: the dense arena allocates only
        // for vector growth — O(log cuts) doublings — never per cut.
        let (allocs, _) = count_allocs(|| enumerate_cuts_for(xag, &order, &params).total());
        println!(
            "  {:<32} {} heap allocations for {} cuts",
            format!("{}/allocs", w.name),
            allocs,
            total_cuts
        );
        record(
            &mut records,
            format!("allocs/{}", w.name),
            total_cuts,
            allocs as usize,
            0.0,
        );
        if alloc_check {
            let budget = 64 + 4 * (usize::BITS - total_cuts.leading_zeros()) as u64;
            assert!(
                allocs <= budget,
                "{}: enumerate_cuts_for made {allocs} heap allocations for \
                 {total_cuts} cuts (budget {budget}) — the per-cut \
                 allocation-free guarantee regressed",
                w.name
            );
        }

        // Classification: cold (beam/exact search dominates) and warm
        // (pure cache-hit path — truth-table hashing) over the ≤4-input
        // cut functions.
        let mut small_fns: Vec<Tt> = Vec::new();
        for (n, cuts) in sets.iter() {
            let tts = sets.functions_of(n);
            for (cut, &tt) in cuts.iter().zip(tts) {
                if (2..=4).contains(&cut.size()) {
                    small_fns.push(tt);
                }
            }
        }
        let t_classify = group.bench_function_timed("classify_cold", || {
            let mut cls = AffineClassifier::new();
            for &tt in &small_fns {
                black_box(cls.classify(tt).representative);
            }
        });
        record(
            &mut records,
            format!("classify_cold/{}", w.name),
            gates,
            small_fns.len(),
            t_classify.as_secs_f64(),
        );
        let mut warm = AffineClassifier::new();
        for &tt in &small_fns {
            let _ = warm.classify(tt);
        }
        let t_warm = group.bench_function_timed("classify_warm", || {
            for &tt in &small_fns {
                black_box(warm.classify(tt).representative);
            }
        });
        record(
            &mut records,
            format!("classify_warm/{}", w.name),
            gates,
            small_fns.len(),
            t_warm.as_secs_f64(),
        );
        group.finish();
    }

    // Profiler overhead: one single-thread McRewrite round over fuzz_wide
    // with the phase profiler on vs off. Phases fire at pass, round, and
    // node granularity — never per cut — so the two runs must be within
    // noise of each other; the trajectory keeps the off/on ratio (~1.0)
    // and the gate holds it to the same floor as the other ratio rows. A
    // profiler change that starts costing real time at pass granularity
    // collapses the ratio and fails the gate.
    {
        use xag_mc::{McRewrite, OptContext, Pass};
        let w = workloads()
            .into_iter()
            .find(|w| w.name == "fuzz_wide")
            .expect("fuzz_wide workload");
        let gates = w.xag.live_gates().len();
        let mut group = BenchGroup::new("prof_overhead");
        group.sample_size(samples);
        let pass = McRewrite::new();
        let mut ctx = OptContext::new();
        // Warm the classifier cache so neither measurement pays the
        // cold-start beam search.
        let _ = pass.run(&mut w.xag.clone(), &mut ctx);
        mc_obs::prof::set_enabled(true);
        let t_on = group.bench_function_timed("round_prof_on", || {
            let mut xag = w.xag.clone();
            black_box(pass.run(&mut xag, &mut ctx).rewrites_applied)
        });
        mc_obs::prof::set_enabled(false);
        let t_off = group.bench_function_timed("round_prof_off", || {
            let mut xag = w.xag.clone();
            black_box(pass.run(&mut xag, &mut ctx).rewrites_applied)
        });
        mc_obs::prof::set_enabled(true);
        mc_obs::prof::reset();
        group.report_ratio("overhead (off/on)", t_off, t_on);
        let ratio = if t_on.as_nanos() > 0 {
            t_off.as_secs_f64() / t_on.as_secs_f64()
        } else {
            1.0
        };
        record(
            &mut records,
            "prof_overhead/fuzz_wide".to_string(),
            gates,
            0,
            ratio,
        );
        group.finish();
    }

    // Geometric mean of the per-workload speedups — the headline number
    // of the perf trajectory.
    let speedups: Vec<f64> = records
        .iter()
        .filter(|r| r.name.starts_with("speedup/"))
        .map(|r| r.wall_s)
        .collect();
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("geomean speedup (legacy/new): {geomean:.2}x");
    record(&mut records, "speedup/geomean".to_string(), 0, 0, geomean);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_counter_counts_and_disarms() {
        let (allocs, v) = count_allocs(|| vec![1u64, 2, 3]);
        assert!(allocs >= 1, "a Vec allocation must be counted");
        assert_eq!(v.len(), 3);
        let before = ALLOCS.load(Ordering::Relaxed);
        // A real heap allocation: the counter must not see it.
        let _noise = Box::new([0u8; 64]);
        assert_eq!(
            ALLOCS.load(Ordering::Relaxed),
            before,
            "counter must be disarmed outside count_allocs"
        );
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = workloads();
        let b = workloads();
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.xag.num_gates(), wb.xag.num_gates());
        }
    }
}

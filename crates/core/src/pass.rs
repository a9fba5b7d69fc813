//! The pass abstraction and the four concrete optimization passes.
//!
//! A [`Pass`] transforms a network in place, reading and updating the
//! shared [`OptContext`], and reports what it did as [`PassStats`]. Passes
//! are composed by [`crate::Pipeline`]; the concrete passes are:
//!
//! * [`McRewrite`] — one round of cut rewriting minimizing AND gates
//!   (the paper's Algorithm 1);
//! * [`SizeRewrite`] — the same machinery with unit gate costs, standing
//!   in for the paper's ABC size-optimization baseline;
//! * [`XorReduce`] — Paar common-subexpression extraction over the linear
//!   layers (promotes [`crate::reduce_xors`] into the pass framework);
//! * [`Cleanup`] — compacts the node arena, dropping dead nodes.

use std::time::{Duration, Instant};

use xag_cuts::CutParams;
use xag_network::Xag;

use crate::context::OptContext;
use crate::shard::parallel_rewrite_round;
use crate::xor_reduce::reduce_xors;
use crate::Objective;

/// Statistics of one pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Name of the pass that produced these statistics.
    pub pass: String,
    /// AND gates before the pass.
    pub ands_before: usize,
    /// XOR gates before the pass.
    pub xors_before: usize,
    /// AND gates after the pass.
    pub ands_after: usize,
    /// XOR gates after the pass.
    pub xors_after: usize,
    /// Number of applied changes (accepted rewrites, removed XORs,
    /// reclaimed nodes — each pass documents its meaning).
    pub rewrites_applied: usize,
    /// Number of (node, cut) candidates evaluated, for rewriting passes.
    pub cuts_considered: usize,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
}

impl PassStats {
    /// True iff the pass strictly improved the given objective.
    pub fn improved(&self, objective: Objective) -> bool {
        match objective {
            Objective::MultiplicativeComplexity => self.ands_after < self.ands_before,
            Objective::Size => {
                self.ands_after + self.xors_after < self.ands_before + self.xors_before
            }
        }
    }
}

impl core::fmt::Display for PassStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:<18} AND {} → {} | XOR {} → {} | {} applied / {} cuts | {:.2}s",
            self.pass,
            self.ands_before,
            self.ands_after,
            self.xors_before,
            self.xors_after,
            self.rewrites_applied,
            self.cuts_considered,
            self.elapsed.as_secs_f64()
        )
    }
}

/// One step of an optimization flow.
///
/// A pass mutates the network in place and may read and grow the shared
/// [`OptContext`] (classification cache, representative database). Passes
/// must preserve network functionality — the property tests fuzz every
/// composed flow for exactly this.
pub trait Pass {
    /// Short stable name, used in statistics and flow descriptions.
    fn name(&self) -> &str;

    /// Runs the pass on `xag` with up to `threads` worker threads. The
    /// rewriting passes spread the propose phase of the [`crate::shard`]
    /// engine over the workers; passes whose work is inherently serial
    /// (XOR reduction, arena compaction) ignore the count. Either way the
    /// result is the same for every thread count.
    fn run_parallel(&self, xag: &mut Xag, ctx: &mut OptContext, threads: usize) -> PassStats;

    /// Runs the pass on `xag` on the calling thread.
    fn run(&self, xag: &mut Xag, ctx: &mut OptContext) -> PassStats {
        self.run_parallel(xag, ctx, 1)
    }
}

/// Cut rewriting minimizing multiplicative complexity — the paper's
/// Algorithm 1, as a composable pass. One execution is one propose/commit
/// round of the [`crate::shard`] engine over all gates; run it under a
/// [`crate::Pipeline`] for convergence.
///
/// `rewrites_applied` counts committed substitutions.
#[derive(Debug, Clone)]
pub struct McRewrite {
    cut_params: CutParams,
    name: String,
}

impl Default for McRewrite {
    fn default() -> Self {
        Self::new()
    }
}

impl McRewrite {
    /// Paper parameters: 6-feasible cuts, at most 12 per node.
    pub fn new() -> Self {
        Self::with_params(CutParams::default())
    }

    /// Paper parameters with a different cut size.
    pub fn with_cut_size(cut_size: usize) -> Self {
        Self::with_params(CutParams {
            cut_size,
            ..CutParams::default()
        })
    }

    /// Fully custom cut enumeration parameters.
    pub fn with_params(cut_params: CutParams) -> Self {
        Self {
            name: format!("mc-rewrite<{}>", cut_params.cut_size),
            cut_params,
        }
    }

    /// The cut enumeration parameters this pass runs with.
    pub fn cut_params(&self) -> &CutParams {
        &self.cut_params
    }
}

impl Pass for McRewrite {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_parallel(&self, xag: &mut Xag, ctx: &mut OptContext, threads: usize) -> PassStats {
        parallel_rewrite_round(
            xag,
            ctx,
            &self.cut_params,
            Objective::MultiplicativeComplexity,
            threads,
            &self.name,
        )
    }
}

/// Cut rewriting with unit gate costs (AND and XOR both cost 1) — the
/// generic size optimizer standing in for the paper's ABC baseline.
#[derive(Debug, Clone)]
pub struct SizeRewrite {
    cut_params: CutParams,
    name: String,
}

impl Default for SizeRewrite {
    fn default() -> Self {
        Self::new()
    }
}

impl SizeRewrite {
    /// Default cut enumeration parameters.
    pub fn new() -> Self {
        Self::with_params(CutParams::default())
    }

    /// Default parameters with a different cut size.
    pub fn with_cut_size(cut_size: usize) -> Self {
        Self::with_params(CutParams {
            cut_size,
            ..CutParams::default()
        })
    }

    /// Fully custom cut enumeration parameters.
    pub fn with_params(cut_params: CutParams) -> Self {
        Self {
            name: format!("size-rewrite<{}>", cut_params.cut_size),
            cut_params,
        }
    }
}

impl Pass for SizeRewrite {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_parallel(&self, xag: &mut Xag, ctx: &mut OptContext, threads: usize) -> PassStats {
        parallel_rewrite_round(
            xag,
            ctx,
            &self.cut_params,
            Objective::Size,
            threads,
            &self.name,
        )
    }
}

/// Paar common-subexpression extraction over the linear layers — the pass
/// form of [`crate::reduce_xors`]. Never touches AND gates or the
/// multiplicative depth; `rewrites_applied` counts removed XOR gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct XorReduce;

impl XorReduce {
    /// Creates the pass.
    pub fn new() -> Self {
        Self
    }
}

impl Pass for XorReduce {
    fn name(&self) -> &str {
        "xor-reduce"
    }

    fn run_parallel(&self, xag: &mut Xag, _ctx: &mut OptContext, _threads: usize) -> PassStats {
        let _round = mc_obs::prof::phase("xor_reduce");
        // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
        let start = Instant::now();
        let ands_before = xag.num_ands();
        let xors_before = xag.num_xors();
        *xag = reduce_xors(xag);
        PassStats {
            pass: self.name().to_string(),
            ands_before,
            xors_before,
            ands_after: xag.num_ands(),
            xors_after: xag.num_xors(),
            rewrites_applied: xors_before.saturating_sub(xag.num_xors()),
            cuts_considered: 0,
            elapsed: start.elapsed(),
        }
    }
}

/// Arena compaction: rebuilds the network keeping only nodes reachable
/// from the primary outputs. Gate counts are unchanged by construction;
/// `rewrites_applied` counts reclaimed node slots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cleanup;

impl Cleanup {
    /// Creates the pass.
    pub fn new() -> Self {
        Self
    }
}

impl Pass for Cleanup {
    fn name(&self) -> &str {
        "cleanup"
    }

    fn run_parallel(&self, xag: &mut Xag, _ctx: &mut OptContext, _threads: usize) -> PassStats {
        let _round = mc_obs::prof::phase("cleanup");
        // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
        let start = Instant::now();
        let ands_before = xag.num_ands();
        let xors_before = xag.num_xors();
        let capacity_before = xag.capacity();
        *xag = xag.cleanup();
        PassStats {
            pass: self.name().to_string(),
            ands_before,
            xors_before,
            ands_after: xag.num_ands(),
            xors_after: xag.num_xors(),
            rewrites_applied: capacity_before.saturating_sub(xag.capacity()),
            cuts_considered: 0,
            elapsed: start.elapsed(),
        }
    }
}

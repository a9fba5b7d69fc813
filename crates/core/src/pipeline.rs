//! Composable optimization flows, ABC-script style.
//!
//! A [`Pipeline`] is an ordered list of [`Pass`]es plus a convergence
//! policy. It can run the passes once, in order ([`Pipeline::run_once`]),
//! or repeat them until the objective stops improving ([`Pipeline::run`]),
//! which subsumes the cut-size alternation schedule the optimizer used
//! before the pass refactor. This convergence loop is the only one: the
//! [`crate::McOptimizer`] facade and the [`crate::FlowSpec`] interpreter
//! both run their flows through it.
//!
//! # Examples
//!
//! The paper's flow, driving the textbook full adder to its known
//! multiplicative complexity of 1:
//!
//! ```
//! use xag_mc::{OptContext, Pipeline};
//! use xag_network::Xag;
//!
//! let mut xag = Xag::new();
//! let (a, b, cin) = (xag.input(), xag.input(), xag.input());
//! let ab = xag.and(a, b);
//! let ac = xag.and(a, cin);
//! let bc = xag.and(b, cin);
//! let t = xag.xor(ab, ac);
//! let cout = xag.xor(t, bc);
//! let axb = xag.xor(a, b);
//! let sum = xag.xor(axb, cin);
//! xag.output(sum);
//! xag.output(cout);
//!
//! let mut ctx = OptContext::new();
//! let stats = Pipeline::paper_flow().run(&mut xag, &mut ctx);
//! assert!(stats.converged);
//! assert_eq!(xag.num_ands(), 1);
//! ```
//!
//! A custom flow built pass by pass:
//!
//! ```
//! use xag_mc::{Cleanup, McRewrite, OptContext, Pipeline, XorReduce};
//! # use xag_network::Xag;
//! # let mut xag = Xag::new();
//! # let a = xag.input();
//! # let b = xag.input();
//! # let g = xag.and(a, b);
//! # xag.output(g);
//! let flow = Pipeline::new()
//!     .add(McRewrite::new())
//!     .add(XorReduce::new())
//!     .add(Cleanup::new());
//! let mut ctx = OptContext::new();
//! let stats = flow.run_once(&mut xag, &mut ctx);
//! assert_eq!(stats.passes.len(), 3);
//! ```

use xag_cuts::CutParams;
use xag_network::Xag;

use crate::context::OptContext;
use crate::pass::{McRewrite, Pass, PassStats, SizeRewrite, XorReduce};
use crate::stats::PipelineStats;
use crate::{Objective, RewriteParams};

/// An ordered list of passes with a convergence policy.
///
/// See the [module documentation](self) for examples.
pub struct Pipeline {
    /// Each pass with its own worker count, if it has one (a `par{}`
    /// block of a [`crate::FlowSpec`]); `None` runs it with the count the
    /// pipeline is run with.
    passes: Vec<(Box<dyn Pass>, Option<usize>)>,
    metric: Objective,
    max_rounds: usize,
}

impl core::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.pass_names())
            .field("metric", &self.metric)
            .field("max_rounds", &self.max_rounds)
            .finish()
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// An empty pipeline minimizing multiplicative complexity, capped at
    /// 100 rounds (the paper observed convergence within 58 on all
    /// benchmarks).
    pub fn new() -> Self {
        Self {
            passes: Vec::new(),
            metric: Objective::MultiplicativeComplexity,
            max_rounds: 100,
        }
    }

    /// Appends a pass.
    #[allow(clippy::should_implement_trait)] // builder step, not arithmetic
    pub fn add(self, pass: impl Pass + 'static) -> Self {
        self.add_with_threads(Box::new(pass), None)
    }

    /// Appends a pass that runs with `threads` workers (when `Some`)
    /// whatever count the pipeline is run with.
    pub(crate) fn add_with_threads(mut self, pass: Box<dyn Pass>, threads: Option<usize>) -> Self {
        self.passes.push((pass, threads));
        self
    }

    /// Sets the objective [`Pipeline::run`] measures convergence against.
    pub fn metric(mut self, metric: Objective) -> Self {
        self.metric = metric;
        self
    }

    /// Caps the total number of pass executions in [`Pipeline::run`].
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Number of passes in the flow.
    pub fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// The pass names, in flow order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|(p, _)| p.name()).collect()
    }

    /// The paper's until-convergence flow: 4-feasible-cut rewriting
    /// alternated with 6-feasible-cut rewriting, smaller cuts first.
    ///
    /// For functions of up to four inputs the database is provably
    /// MC-optimal (affine + symplectic + exact MC ≤ 2 search + the
    /// three-AND worst case), so small-cut rounds establish locally
    /// optimal structures that heuristic 5-/6-input database entries
    /// would otherwise destroy, and wide-cut rounds then only fire on
    /// genuine cross-boundary gains. This compensates for substituting
    /// the paper's exact NIST database with on-demand synthesis
    /// (DESIGN.md §3).
    pub fn paper_flow() -> Self {
        Self::from_params(&RewriteParams::default())
    }

    /// A generic compression flow: unit-cost size rewriting (4-cut, then
    /// 6-cut) followed by XOR reduction, measured on total gate count —
    /// the stand-in for the ABC script the paper uses to produce its
    /// "Initial" networks.
    pub fn compress() -> Self {
        Self::new()
            .metric(Objective::Size)
            .add(SizeRewrite::with_cut_size(4))
            .add(SizeRewrite::new())
            .add(XorReduce::new())
    }

    /// Builds the flow [`crate::McOptimizer`] runs for the given
    /// parameters: the cut-size schedule of [`Pipeline::paper_flow`] under
    /// `params.objective`, honoring `params.cut_params` and
    /// `params.max_rounds`.
    pub fn from_params(params: &RewriteParams) -> Self {
        let big = params.cut_params.cut_size;
        let sizes: &[usize] = if big > 4 { &[4, big] } else { &[big] };
        let mut flow = Self::new()
            .metric(params.objective)
            .max_rounds(params.max_rounds);
        for &size in sizes {
            let cut_params = CutParams {
                cut_size: size,
                ..params.cut_params
            };
            flow = match params.objective {
                Objective::MultiplicativeComplexity => flow.add(McRewrite::with_params(cut_params)),
                Objective::Size => flow.add(SizeRewrite::with_params(cut_params)),
            };
        }
        flow
    }

    /// Runs every pass exactly once, in order.
    pub fn run_once(&self, xag: &mut Xag, ctx: &mut OptContext) -> PipelineStats {
        let passes = self
            .passes
            .iter()
            .map(|(pass, threads)| run_pass(pass.as_ref(), xag, ctx, threads.unwrap_or(1)))
            .collect();
        PipelineStats {
            passes,
            converged: false,
        }
    }

    /// Repeats the flow until convergence: the current pass runs again
    /// while it improves the metric; once stale, the flow advances to the
    /// next pass (cyclically); once *every* pass in sequence is stale, the
    /// flow has converged. Capped at [`Pipeline::max_rounds`] total pass
    /// executions.
    ///
    /// With the [`Pipeline::paper_flow`] passes this is exactly the
    /// paper's "repeat until convergence" loop with the small-cut-first
    /// schedule.
    pub fn run(&self, xag: &mut Xag, ctx: &mut OptContext) -> PipelineStats {
        self.run_parallel(xag, ctx, 1)
    }

    /// [`Pipeline::run`] with up to `threads` worker threads per pass.
    ///
    /// Rewriting passes spread their propose phase over the workers (see
    /// [`crate::shard`]); the other passes run on the calling thread. The
    /// optimized network is **bit-identical for every thread count** —
    /// only wall-clock changes.
    pub fn run_parallel(
        &self,
        xag: &mut Xag,
        ctx: &mut OptContext,
        threads: usize,
    ) -> PipelineStats {
        assert!(!self.passes.is_empty(), "cannot run an empty pipeline");
        let mut executed: Vec<PassStats> = Vec::new();
        let mut converged = false;
        let mut phase = 0usize;
        let mut stale = 0usize;
        while executed.len() < self.max_rounds {
            let (pass, pinned) = &self.passes[phase % self.passes.len()];
            let stats = run_pass(pass.as_ref(), xag, ctx, pinned.unwrap_or(threads));
            let improved = stats.improved(self.metric);
            executed.push(stats);
            if improved {
                stale = 0;
            } else {
                stale += 1;
                phase += 1;
                if stale >= self.passes.len() {
                    converged = true;
                    break;
                }
            }
        }
        PipelineStats {
            passes: executed,
            converged,
        }
    }
}

/// Runs one pass under the `pipeline` profiler phase and reports it at the
/// instrumentation boundary.
pub(crate) fn run_pass(
    pass: &dyn Pass,
    xag: &mut Xag,
    ctx: &mut OptContext,
    threads: usize,
) -> PassStats {
    let stats = {
        let _root = mc_obs::prof::phase("pipeline");
        pass.run_parallel(xag, ctx, threads.max(1))
    };
    crate::observe::pass_boundary(&stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pass_stats(name: &str, before: usize, after: usize) -> PassStats {
        PassStats {
            pass: name.to_string(),
            ands_before: before,
            xors_before: 2,
            ands_after: after,
            xors_after: 2,
            rewrites_applied: 1,
            cuts_considered: 8,
            elapsed: Duration::from_millis(3),
        }
    }

    #[test]
    fn empty_pipeline_stats_aggregate_to_zero() {
        let s = PipelineStats {
            passes: Vec::new(),
            converged: false,
        };
        assert_eq!(s.num_rounds(), 0);
        assert_eq!(s.ands_before(), 0);
        assert_eq!(s.ands_after(), 0);
        assert_eq!(s.total_time(), Duration::ZERO);
        assert!((s.improvement_pct()).abs() < 1e-9);
        assert!(s.per_pass().is_empty());
    }

    #[test]
    fn per_pass_groups_by_name_in_first_execution_order() {
        let s = PipelineStats {
            passes: vec![
                pass_stats("mc", 10, 8),
                pass_stats("xor", 8, 8),
                pass_stats("mc", 8, 7),
            ],
            converged: true,
        };
        let summary = s.per_pass();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "mc");
        assert_eq!(summary[0].runs, 2);
        assert_eq!(summary[0].ands_saved, 3);
        assert_eq!(summary[0].rewrites_applied, 2);
        assert_eq!(summary[0].cuts_considered, 16);
        assert_eq!(summary[1].name, "xor");
        assert_eq!(summary[1].runs, 1);
        assert_eq!(summary[1].ands_saved, 0);
    }

    #[test]
    fn per_pass_tracks_negative_savings() {
        // A Size-objective pass may add ANDs; the summary must go
        // negative, not saturate.
        let s = PipelineStats {
            passes: vec![pass_stats("size", 5, 9)],
            converged: true,
        };
        assert_eq!(s.per_pass()[0].ands_saved, -4);
        assert!(s.improvement_pct() < 0.0);
    }
}

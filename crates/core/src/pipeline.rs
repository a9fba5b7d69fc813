//! Composable optimization flows, ABC-script style.
//!
//! A [`Pipeline`] builds the `{p1;…;pn}*` group of a [`FlowSpec`]: an
//! ordered list of pass atoms plus a round budget. It has no executor of
//! its own. [`Pipeline::run`] runs [`Pipeline::spec`] through the
//! [`FlowSpec::run`] interpreter, whose `*` schedule repeats the passes
//! until the objective stops improving; [`Pipeline::run_once`] runs the
//! passes once, in order, through the same interpreter.
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

use xag_network::Xag;

use crate::context::OptContext;
use crate::flow::{FlowItem, FlowSpec, FlowUnit, Repeat};
use crate::stats::PipelineStats;
use crate::{Objective, RewriteParams};

/// An ordered list of pass atoms with a round budget — the body of a
/// `{p1;…;pn}*` flow.
///
/// Start from a named flow ([`Pipeline::paper_flow`],
/// [`Pipeline::compress`]) or build one with [`Pipeline::new`] and
/// [`Pipeline::add`], then [`Pipeline::run`] it.
#[derive(Debug)]
pub struct Pipeline {
    units: Vec<FlowUnit>,
    max_rounds: usize,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// An empty pipeline, capped at 100 rounds (the paper observed
    /// convergence within 58 on all benchmarks).
    pub fn new() -> Self {
        Self {
            units: Vec::new(),
            max_rounds: 100,
        }
    }

    /// Appends a pass: [`crate::McRewrite`], [`crate::SizeRewrite`],
    /// [`crate::XorReduce`], [`crate::Cleanup`], or a [`FlowUnit`].
    #[allow(clippy::should_implement_trait)] // builder step, not arithmetic
    pub fn add(mut self, pass: impl Into<FlowUnit>) -> Self {
        self.units.push(pass.into());
        self
    }

    /// Caps the total number of pass executions of a run.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Number of passes in the flow.
    pub fn num_passes(&self) -> usize {
        self.units.len()
    }

    /// The paper's until-convergence flow (the `paper` alias):
    /// 4-feasible-cut rewriting alternated with 6-feasible-cut rewriting,
    /// smaller cuts first.
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
        Self::alias("paper")
    }

    /// A generic compression flow (the `compress` alias): unit-cost size
    /// rewriting (4-cut, then 6-cut) followed by XOR reduction, measured
    /// on total gate count — the stand-in for the ABC script the paper
    /// uses to produce its "Initial" networks.
    pub fn compress() -> Self {
        Self::alias("compress")
    }

    /// The passes of a `{…}*` alias of [`crate::flow::ALIASES`].
    fn alias(name: &str) -> Self {
        let spec = FlowSpec::named(name).expect("a listed alias");
        let units = match &spec.items[..] {
            [FlowItem {
                unit: FlowUnit::Group(body),
                repeat: Repeat::Converge,
            }] => body.iter().map(|item| item.unit.clone()).collect(),
            _ => panic!("alias `{name}` is not a `{{…}}*` group"),
        };
        Self {
            units,
            ..Self::new()
        }
    }

    /// Builds the flow [`crate::McOptimizer`] runs for the given
    /// parameters: the cut-size schedule of [`Pipeline::paper_flow`] with
    /// `params.cut_size` as the wide cut, as `mc` atoms or (for
    /// [`Objective::Size`]) `size` atoms, capped at `params.max_rounds`.
    pub fn from_params(params: &RewriteParams) -> Self {
        let big = params.cut_size;
        let sizes: &[usize] = if big > 4 { &[4, big] } else { &[big] };
        let units = sizes
            .iter()
            .map(|&cut| match params.objective {
                Objective::MultiplicativeComplexity => FlowUnit::Mc { cut },
                Objective::Size => FlowUnit::Size { cut },
            })
            .collect();
        Self {
            units,
            max_rounds: params.max_rounds,
        }
    }

    /// The flow this pipeline runs: its passes as one until-convergence
    /// `{p1;…;pn}*` group.
    pub fn spec(&self) -> FlowSpec {
        FlowSpec {
            items: vec![FlowItem {
                unit: FlowUnit::Group(self.sequence()),
                repeat: Repeat::Converge,
            }],
        }
    }

    fn sequence(&self) -> Vec<FlowItem> {
        self.units
            .iter()
            .map(|unit| FlowItem {
                unit: unit.clone(),
                repeat: Repeat::Once,
            })
            .collect()
    }

    /// Runs every pass exactly once, in order (within the round budget).
    /// Reports `converged: false`: a single sweep proves nothing.
    pub fn run_once(&self, xag: &mut Xag, ctx: &mut OptContext) -> PipelineStats {
        let mut stats = FlowSpec {
            items: self.sequence(),
        }
        .run(xag, ctx, 1, self.max_rounds);
        stats.converged = false;
        stats
    }

    /// Repeats the flow until convergence, capped at
    /// [`Pipeline::max_rounds`] total pass executions: runs
    /// [`Pipeline::spec`] through [`FlowSpec::run`] (see the
    /// [`crate::flow`] module for the `*` schedule).
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
        assert!(!self.units.is_empty(), "cannot run an empty pipeline");
        self.spec().run(xag, ctx, threads, self.max_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The library flows are the named specs, not copies of them.
    #[test]
    fn library_flows_are_their_named_specs() {
        for (pipeline, alias) in [
            (Pipeline::paper_flow(), "paper"),
            (Pipeline::compress(), "compress"),
            (Pipeline::from_params(&RewriteParams::default()), "paper"),
            (
                Pipeline::from_params(&RewriteParams {
                    cut_size: 4,
                    ..RewriteParams::default()
                }),
                "from_params",
            ),
        ] {
            assert_eq!(Some(pipeline.spec()), FlowSpec::named(alias), "{alias}");
        }
        assert_eq!(
            Pipeline::from_params(&RewriteParams::size_baseline())
                .spec()
                .normalized(),
            "{size(cut=4);size(cut=6)}*"
        );
    }
}

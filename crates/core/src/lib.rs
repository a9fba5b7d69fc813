//! Cut rewriting to minimize multiplicative complexity — the DAC'19
//! contribution — organized as a pass-based optimization pipeline.
//!
//! The building blocks:
//!
//! * [`OptContext`] — the shared state every pass reads and grows: the
//!   affine classifier ([`xag_affine`]), the synthesis engine
//!   ([`xag_synth`]), and the on-demand representative database (the
//!   paper's `XAG_DB`). One context amortizes across passes *and*
//!   networks.
//! * [`Pass`] — one step of a flow: [`McRewrite`] (the paper's
//!   Algorithm 1), [`SizeRewrite`] (the unit-cost ABC-baseline stand-in),
//!   [`XorReduce`] (Paar linear-layer compression), and [`Cleanup`]
//!   (arena compaction).
//! * [`FlowSpec`] — the one description of a flow (a small textual
//!   language with a typed AST, see [`flow`]) and the one flow executor,
//!   [`FlowSpec::run`], with until-convergence repetition and per-pass
//!   statistics.
//! * [`Pipeline`] — ABC-script-style flow construction
//!   ([`Pipeline::paper_flow`], [`Pipeline::compress`], or pass by pass
//!   with [`Pipeline::add`]): a builder for a `{p1;…;pn}*` spec, run
//!   through that interpreter. [`Pipeline::run_parallel`] spreads the
//!   same flow over a worker pool, with bit-identical results for every
//!   thread count.
//! * [`McOptimizer`] — a thin facade running [`Pipeline::from_params`]
//!   (the paper flow by default) with one call, for the common case.
//!
//! Both rewriting passes run every round through one engine, the sharded
//! propose/commit round of [`shard`]. One [`McRewrite`] round implements
//! the paper's Algorithm 1 on top of the supporting crates:
//!
//! 1. enumerate 6-feasible cuts of every gate ([`xag_cuts`]);
//! 2. compute each cut's function as a truth table;
//! 3. classify it into its affine-equivalence class ([`xag_affine`]),
//!    obtaining a representative and the operation sequence;
//! 4. fetch the representative's low-AND circuit from the database
//!    (synthesized on demand and cached — [`xag_synth`] replaces the
//!    paper's precomputed NIST `XAG_DB`);
//! 5. replay the affine operations on the circuit (free: XORs, inverters
//!    and wiring only) to obtain a drop-in replacement for the cut;
//! 6. propose the replacement when it strictly decreases the number of
//!    AND gates, taking structural sharing into account (MFFC
//!    dereferencing for the removed logic, hash-aware dry-run for the
//!    added logic), measured on the network as it was when the round
//!    started;
//! 7. commit the proposals in topological order, re-checking each gain on
//!    the network the earlier commits left, and — in a `*` group of the
//!    flow — repeat rounds until convergence.
//!
//! # Examples
//!
//! Optimize the textbook full adder to a single AND gate (paper Fig. 1/2)
//! through the facade:
//!
//! ```
//! use xag_mc::McOptimizer;
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
//! assert_eq!(xag.num_ands(), 3);
//!
//! let mut opt = McOptimizer::new();
//! opt.run_to_convergence(&mut xag);
//! assert_eq!(xag.num_ands(), 1);
//! ```
//!
//! The same run as an explicit pipeline, keeping the per-pass breakdown
//! (see [`Pipeline`] for flow construction):
//!
//! ```
//! # use xag_mc::{OptContext, Pipeline};
//! # use xag_network::Xag;
//! # let mut xag = Xag::new();
//! # let (a, b, cin) = (xag.input(), xag.input(), xag.input());
//! # let ab = xag.and(a, b);
//! # let ac = xag.and(a, cin);
//! # let bc = xag.and(b, cin);
//! # let t = xag.xor(ab, ac);
//! # let cout = xag.xor(t, bc);
//! # let axb = xag.xor(a, b);
//! # let sum = xag.xor(axb, cin);
//! # xag.output(sum);
//! # xag.output(cout);
//! let mut ctx = OptContext::new();
//! let stats = Pipeline::paper_flow().run(&mut xag, &mut ctx);
//! assert_eq!(xag.num_ands(), 1);
//! for pass in stats.per_pass() {
//!     println!("{}: {} runs, {} ANDs saved", pass.name, pass.runs, pass.ands_saved);
//! }
//! ```

use xag_affine::ClassifyConfig;
use xag_cuts::CutParams;
use xag_network::{Xag, XagFragment};
use xag_synth::SynthConfig;
use xag_tt::Tt;

pub mod canon;
mod context;
mod cost;
pub mod flow;
mod job;
mod observe;
mod pass;
mod pipeline;
pub mod shard;
mod stats;
mod xor_reduce;

pub use canon::{canonical_form, fingerprint, job_key};
pub use context::OptContext;
pub use cost::{protocol_costs, ProtocolCosts};
pub use flow::{FlowError, FlowItem, FlowSpec, FlowUnit, Repeat};
pub use job::{run_job, JobResult, JobSpec};
pub use pass::{Cleanup, McRewrite, Pass, PassStats, SizeRewrite, XorReduce};
pub use pipeline::Pipeline;
pub use shard::{partition_windows, Shard};
pub use stats::{PassSummary, PipelineStats};
pub use xor_reduce::reduce_xors;

/// What the rewriter minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize AND gates (multiplicative complexity) — the paper's goal.
    #[default]
    MultiplicativeComplexity,
    /// Minimize total gate count with unit costs, standing in for generic
    /// size optimization (the paper's ABC baseline).
    Size,
}

/// Parameters of the rewriting loop.
#[derive(Debug, Clone, Copy)]
pub struct RewriteParams {
    /// Objective function.
    pub objective: Objective,
    /// The wide cut size of the [`Pipeline::from_params`] schedule
    /// (paper default: 6-cuts; every round keeps at most 12 cuts per
    /// node).
    pub cut_size: usize,
    /// Heuristic classifier configuration for 5-/6-input cut functions.
    pub classify_config: ClassifyConfig,
    /// Database synthesizer configuration.
    pub synth_config: SynthConfig,
    /// Maximum number of rounds in [`McOptimizer::run_to_convergence`]
    /// (the paper observed convergence within 58 rounds on all benchmarks).
    pub max_rounds: usize,
    /// Worker threads for the propose phase of every rewriting round
    /// ([`shard`]). Changes wall-clock only: the result is bit-identical
    /// for every thread count.
    pub threads: usize,
}

impl Default for RewriteParams {
    fn default() -> Self {
        Self {
            objective: Objective::MultiplicativeComplexity,
            cut_size: CutParams::default().cut_size,
            classify_config: ClassifyConfig::default(),
            synth_config: SynthConfig::default(),
            max_rounds: 100,
            threads: 1,
        }
    }
}

impl RewriteParams {
    /// Parameters for the generic size-rewriting baseline.
    pub fn size_baseline() -> Self {
        Self {
            objective: Objective::Size,
            ..Self::default()
        }
    }
}

/// The one-call facade over the pass pipeline: owns an [`OptContext`] and
/// runs the flow [`Pipeline::from_params`] builds for its parameters.
///
/// Keeping one optimizer alive across many networks amortizes the
/// database: representatives synthesized for one benchmark are reused by
/// the next. For custom flows, per-pass statistics, or sharing the
/// context with other passes, use [`Pipeline`] and [`OptContext`]
/// directly.
#[derive(Debug, Default)]
pub struct McOptimizer {
    params: RewriteParams,
    ctx: OptContext,
}

impl McOptimizer {
    /// Creates an optimizer with default (paper) parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an optimizer with custom parameters.
    pub fn with_params(params: RewriteParams) -> Self {
        Self {
            params,
            ctx: OptContext::with_config(params.classify_config, params.synth_config),
        }
    }

    /// Number of distinct representatives currently in the database.
    pub fn db_size(&self) -> usize {
        self.ctx.db_size()
    }

    /// The shared optimization context, e.g. to hand to a [`Pipeline`] so
    /// that facade runs and custom flows share one database.
    pub fn context_mut(&mut self) -> &mut OptContext {
        &mut self.ctx
    }

    /// Runs one rewriting round over all gates (the paper's "One round"
    /// columns) — one [`McRewrite`] (or, for [`Objective::Size`],
    /// [`SizeRewrite`]) pass at [`RewriteParams::cut_size`] — and returns
    /// its statistics.
    pub fn run_once(&mut self, xag: &mut Xag) -> PassStats {
        let (cut, threads) = (self.params.cut_size, self.params.threads);
        match self.params.objective {
            Objective::MultiplicativeComplexity => {
                McRewrite::with_cut_size(cut).run_parallel(xag, &mut self.ctx, threads)
            }
            Objective::Size => {
                SizeRewrite::with_cut_size(cut).run_parallel(xag, &mut self.ctx, threads)
            }
        }
    }

    /// Repeats rewriting rounds until the objective stops improving (the
    /// paper's "Repeat until convergence" columns) or
    /// [`RewriteParams::max_rounds`] is reached, by running the
    /// [`Pipeline::from_params`] flow — 4-feasible cuts alternated with
    /// the configured cut size, smaller first (see
    /// [`Pipeline::paper_flow`] for why).
    pub fn run_to_convergence(&mut self, xag: &mut Xag) -> PipelineStats {
        Pipeline::from_params(&self.params).run_parallel(xag, &mut self.ctx, self.params.threads)
    }

    /// Algorithm 1 of the paper: build the replacement circuit for a cut
    /// function — classify, look the representative up in the database
    /// (synthesizing on a miss), then replay the affine operations.
    pub fn candidate_for_cut(&mut self, tt: Tt) -> XagFragment {
        self.ctx.candidate_for_cut(tt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::{equiv_exhaustive, Signal};

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

    #[test]
    fn full_adder_reaches_mc_one() {
        let mut xag = textbook_full_adder();
        let reference = xag.cleanup();
        let mut opt = McOptimizer::new();
        let stats = opt.run_to_convergence(&mut xag);
        assert!(stats.converged);
        assert_eq!(xag.num_ands(), 1, "paper: full adder has MC 1");
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    }

    #[test]
    fn candidate_matches_cut_function() {
        let mut opt = McOptimizer::new();
        for bits in [0xe8u64, 0x96, 0x17, 0x80] {
            let tt = Tt::from_bits(bits, 3);
            let frag = opt.candidate_for_cut(tt);
            assert_eq!(frag.eval_tt(), tt);
        }
        // 6-input functions go through the heuristic classifier.
        let tt = Tt::from_bits(0xdead_beef_cafe_1234, 6);
        let frag = opt.candidate_for_cut(tt);
        assert_eq!(frag.eval_tt(), tt);
    }

    #[test]
    fn database_is_shared_across_calls() {
        let mut opt = McOptimizer::new();
        let maj = Tt::from_bits(0xe8, 3);
        let _ = opt.candidate_for_cut(maj);
        let after_first = opt.db_size();
        // Same class, different (full-support) member: no new entry.
        let member = maj.flip_var(0).translate(1, 2);
        let _ = opt.candidate_for_cut(member);
        assert_eq!(opt.db_size(), after_first);
    }

    #[test]
    fn facade_and_pipeline_share_a_database() {
        let mut opt = McOptimizer::new();
        let mut xag = textbook_full_adder();
        opt.run_to_convergence(&mut xag);
        let db_after_facade = opt.db_size();
        assert!(db_after_facade > 0);
        // A pipeline run over the facade's context reuses its entries.
        let mut again = textbook_full_adder();
        Pipeline::paper_flow().run(&mut again, opt.context_mut());
        assert_eq!(again.num_ands(), 1);
        assert_eq!(opt.db_size(), db_after_facade);
    }

    #[test]
    fn size_baseline_reduces_total_gates() {
        // A deliberately redundant network.
        let mut xag = Xag::new();
        let (a, b, c) = (xag.input(), xag.input(), xag.input());
        let t1 = xag.and(a, b);
        let t2 = xag.and(a, c);
        let t3 = xag.xor(t1, t2); // = a & (b ^ c) — one AND suffices
        let o = xag.or(t3, a);
        xag.output(o);
        let reference = xag.cleanup();
        let before = xag.num_gates();
        let mut opt = McOptimizer::with_params(RewriteParams::size_baseline());
        opt.run_to_convergence(&mut xag);
        assert!(xag.num_gates() <= before);
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    }

    #[test]
    fn rewriting_never_breaks_equivalence() {
        // A random-ish mixed network.
        let mut xag = Xag::new();
        let ins: Vec<Signal> = (0..6).map(|_| xag.input()).collect();
        let mut pool = ins.clone();
        let mut state = 0xabcdef_u64;
        for k in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = pool[(state >> 13) as usize % pool.len()] ^ (state & 1 == 1);
            let b = pool[(state >> 29) as usize % pool.len()] ^ (state & 2 == 2);
            let s = if k % 3 == 0 {
                xag.xor(a, b)
            } else {
                xag.and(a, b)
            };
            pool.push(s);
        }
        for s in pool.iter().rev().take(4) {
            xag.output(*s);
        }
        let reference = xag.cleanup();
        let before = xag.num_ands();
        let mut opt = McOptimizer::new();
        let stats = opt.run_to_convergence(&mut xag);
        assert!(xag.num_ands() <= before);
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
        assert!(!stats.passes.is_empty());
    }

    #[test]
    fn converged_run_once_does_not_grow_the_arena() {
        // Regression test for the rejected-candidate leak: on a converged
        // network every instantiated candidate is rejected (or none is
        // instantiated at all), so repeated rounds must not allocate.
        let mut xag = textbook_full_adder();
        let mut opt = McOptimizer::new();
        opt.run_to_convergence(&mut xag);
        let capacity = xag.capacity();
        for _ in 0..3 {
            let stats = opt.run_once(&mut xag);
            assert_eq!(stats.rewrites_applied, 0);
        }
        assert_eq!(
            xag.capacity(),
            capacity,
            "rejected candidates leaked into the arena"
        );
    }
}

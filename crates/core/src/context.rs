//! Shared optimization state: the classifier, the synthesizer, and the
//! on-demand representative database.

use xag_affine::{AffineClassifier, ClassifyConfig};
use xag_cuts::CutSets;
use xag_network::XagFragment;
use xag_synth::{SynthConfig, Synthesizer};
use xag_tt::hash::SharedMap;
use xag_tt::Tt;

/// Most cut functions the candidate memo stores. Optimizing the paper's
/// largest rows meets a few thousand distinct functions; past this many,
/// candidates are still built, just not kept, which bounds a long-running
/// daemon's memo at a few tens of megabytes.
const MEMO_CAPACITY: usize = 1 << 16;

/// The state every optimization pass shares: the affine classifier, the
/// synthesis engine, the `XAG_DB` of the paper (representative truth
/// table → low-AND circuit), synthesized on demand and cached, and a memo
/// of finished replacement circuits per cut function.
///
/// One context is meant to outlive many passes *and many networks*: a
/// representative synthesized while rewriting one benchmark is reused by
/// every later pass and benchmark, so the database amortizes exactly like
/// the paper's precomputed one (DESIGN.md §3).
///
/// Every table is a [`SharedMap`]: a read-only layer behind an `Arc` plus a
/// small delta, so [`OptContext::fork`] and `Clone` share the tables
/// instead of copying them.
///
/// The context also keeps the last rewrite round's cut sets, so the next
/// round re-enumerates only the cones whose cuts changed
/// ([`xag_cuts::enumerate_cuts_reusing`]). That slot is private to one
/// context: forks and clones start without it and `absorb` ignores it.
///
/// # Examples
///
/// ```
/// use xag_mc::OptContext;
/// use xag_tt::Tt;
///
/// let mut ctx = OptContext::new();
/// let maj = Tt::from_bits(0xe8, 3); // majority: MC 1
/// let frag = ctx.candidate_for_cut(maj);
/// assert_eq!(frag.num_ands(), 1);
/// assert_eq!(frag.eval_tt(), maj);
/// assert_eq!(ctx.db_size(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OptContext {
    classifier: AffineClassifier,
    synth: Synthesizer,
    /// The `XAG_DB` of the paper: representative truth table → circuit.
    db: SharedMap<Tt, XagFragment>,
    /// Algorithm 1's output per cut function: the replacement circuit.
    memo: SharedMap<Tt, XagFragment>,
    /// The last round's cut sets (they carry their `CutParams`).
    cuts: CutSlot,
}

/// One slot of cut sets that a clone does not copy: reuse only ever saves
/// time, so a fork or a served job's context starts empty rather than
/// duplicating a network-sized arena.
#[derive(Debug, Default)]
struct CutSlot(Option<CutSets>);

impl Clone for CutSlot {
    fn clone(&self) -> Self {
        Self(None)
    }
}

impl Default for OptContext {
    fn default() -> Self {
        Self::with_config(ClassifyConfig::default(), SynthConfig::default())
    }
}

impl OptContext {
    /// Creates a context with default (paper) parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a context with custom classifier and synthesizer
    /// configurations.
    pub fn with_config(classify: ClassifyConfig, synth: SynthConfig) -> Self {
        Self {
            classifier: AffineClassifier::with_config(classify),
            synth: Synthesizer::with_config(synth),
            db: SharedMap::new(),
            memo: SharedMap::bounded(MEMO_CAPACITY),
            cuts: CutSlot::default(),
        }
    }

    /// Number of distinct representatives currently in the database.
    pub fn db_size(&self) -> usize {
        self.db.len()
    }

    /// Clones the context for a worker thread: the fork reads all of this
    /// context's memoized state through the shared layers and copies only
    /// the unshared deltas, so a fork costs the same however large the
    /// tables have grown.
    ///
    /// Classification and synthesis are deterministic, so a fork produces
    /// the same candidate for the same cut function as its parent — cache
    /// state only affects speed, never results (the invariant the
    /// determinism tests pin down). Cache-hit statistics start at zero in
    /// the fork, so absorbing it back adds only the fork's own work.
    pub fn fork(&self) -> OptContext {
        OptContext {
            classifier: self.classifier.fork(),
            synth: self.synth.fork(),
            db: self.db.clone(),
            memo: self.memo.clone(),
            cuts: CutSlot::default(),
        }
    }

    /// Merges back what a fork added: candidates, database entries,
    /// classifications and synthesized functions; entries the parent
    /// already has win ties (they are equal anyway, by determinism). Once
    /// the parent holds the only reference to a table, its delta is folded
    /// into the shared layer in place. The fork's cut sets are dropped.
    pub fn absorb(&mut self, fork: OptContext) {
        self.memo.absorb(fork.memo);
        self.db.absorb(fork.db);
        self.classifier.absorb(fork.classifier);
        self.synth.absorb(fork.synth);
    }

    /// Takes the cut sets the last round left, emptying the slot.
    pub(crate) fn take_cuts(&mut self) -> Option<CutSets> {
        self.cuts.0.take()
    }

    /// Keeps a round's cut sets, at their exact size, for the next round to
    /// reuse, replacing the previous ones.
    pub(crate) fn keep_cuts(&mut self, mut sets: CutSets) {
        sets.shrink_to_fit();
        self.cuts.0 = Some(sets);
    }

    /// AND-gate counts of the database entries, as `(ands, entries)` pairs
    /// sorted by AND count — the shape the paper reports for `XAG_DB`.
    pub fn db_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist = std::collections::BTreeMap::new();
        for (_, frag) in self.db.iter() {
            *hist.entry(frag.num_ands()).or_insert(0usize) += 1;
        }
        hist.into_iter().collect()
    }

    /// Algorithm 1 of the paper: build the replacement circuit for a cut
    /// function — classify, look the representative up in the database
    /// (synthesizing on a miss), then replay the affine operations.
    pub fn candidate_for_cut(&mut self, tt: Tt) -> XagFragment {
        self.with_candidate(tt, XagFragment::clone)
    }

    /// Runs `inspect` on the replacement circuit for `tt`. A memoized
    /// function costs one lookup and no allocation; a new one is built by
    /// Algorithm 1 and memoized while the memo has room.
    pub(crate) fn with_candidate<R>(
        &mut self,
        tt: Tt,
        inspect: impl FnOnce(&XagFragment) -> R,
    ) -> R {
        if let Some(frag) = self.memo.get(&tt) {
            return inspect(frag);
        }
        let frag = self.build_candidate(tt);
        let out = inspect(&frag);
        self.memo.insert(tt, frag);
        out
    }

    fn build_candidate(&mut self, tt: Tt) -> XagFragment {
        // Reduce to the support first: classification and the database work
        // on the compacted function.
        let (g, map) = tt.shrink_to_support();
        if g.vars() != tt.vars() {
            let inner = self.build_reduced(g);
            let lifted = inner.with_inputs(tt.vars(), &map);
            debug_assert_eq!(lifted.eval_tt(), tt);
            return lifted;
        }
        let frag = self.build_reduced(tt);
        debug_assert_eq!(frag.eval_tt(), tt);
        frag
    }

    fn build_reduced(&mut self, tt: Tt) -> XagFragment {
        if tt.is_constant() || tt.vars() == 0 {
            return XagFragment::constant(tt.vars(), tt.is_one());
        }
        let classification = self.classifier.classify(tt);
        let rep = classification.representative;
        if let Some(frag) = self.db.get(&rep) {
            return frag.undo_affine_ops(&classification.ops);
        }
        let rep_frag = self.synth.synthesize(rep);
        let frag = rep_frag.undo_affine_ops(&classification.ops);
        self.db.insert(rep, rep_frag);
        frag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pass, Pipeline};
    use mc_rng::Rng;
    use xag_network::fuzz::{random_xag, FuzzConfig};
    use xag_network::{write_verilog, Xag};

    /// Every function of up to four variables, then a seeded sample of
    /// five- and six-variable ones.
    fn sample_functions() -> Vec<Tt> {
        let mut out: Vec<Tt> = (1..=4usize)
            .flat_map(|n| (0..1u64 << (1 << n)).map(move |bits| Tt::from_bits(bits, n)))
            .collect();
        let mut rng = Rng::seed_from_u64(0x3e30);
        for n in [5usize, 6] {
            out.extend((0..64).map(|_| Tt::from_bits(rng.next_u64(), n)));
        }
        out
    }

    fn netlist(xag: &Xag) -> String {
        let mut buf = Vec::new();
        write_verilog(&xag.cleanup(), "m", &mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("ASCII netlist")
    }

    #[test]
    fn memoized_candidates_equal_what_a_fresh_context_builds() {
        let functions = sample_functions();
        let mut memo = OptContext::new();
        for &tt in &functions {
            let built = memo.candidate_for_cut(tt);
            assert_eq!(memo.candidate_for_cut(tt), built, "memo hit for {tt:?}");
        }
        // The references store nothing between functions: a fresh context
        // (memo and every cache below it empty) for a sample, and a
        // context without a memo for all of them.
        let mut unmemoized = OptContext::new();
        unmemoized.memo = SharedMap::bounded(0);
        for (i, &tt) in functions.iter().enumerate() {
            let expected = memo.candidate_for_cut(tt);
            assert_eq!(unmemoized.candidate_for_cut(tt), expected, "{tt:?}");
            // A fresh context synthesizes from nothing (~10 ms for a
            // 4-variable class), so it sees every 1024th function.
            if tt.vars() <= 3 || i % 1024 == 0 || (tt.vars() > 4 && i % 8 == 0) {
                assert_eq!(OptContext::new().candidate_for_cut(tt), expected, "{tt:?}");
            }
        }
        assert!(unmemoized.memo.is_empty());
    }

    #[test]
    fn a_fork_shares_the_tables_instead_of_copying_them() {
        let mut parent = OptContext::new();
        for tt in sample_functions().into_iter().step_by(97) {
            parent.candidate_for_cut(tt);
        }
        let fork = parent.fork();
        assert!(fork.memo.shares_layer_with(&parent.memo));
        assert!(fork.db.shares_layer_with(&parent.db));
        assert_eq!(fork.memo.len(), parent.memo.len());
        let clone = parent.clone();
        assert!(clone.memo.shares_layer_with(&parent.memo));
        // A parent that has run rounds holds cut sets; no copy takes them.
        let mut xag = random_xag(&FuzzConfig::default(), 1).cleanup();
        Pipeline::paper_flow().run(&mut xag, &mut parent);
        assert!(parent.cuts.0.is_some());
        assert!(parent.fork().cuts.0.is_none(), "a fork's cut slot is empty");
        assert!(
            parent.clone().cuts.0.is_none(),
            "a clone's cut slot is empty"
        );
    }

    #[test]
    fn absorb_brings_back_exactly_the_forks_new_entries() {
        let functions = sample_functions();
        let mut parent = OptContext::new();
        let (old, new) = functions.split_at(functions.len() / 2);
        for &tt in old.iter().step_by(13) {
            parent.candidate_for_cut(tt);
        }
        let before = parent.memo.len();
        let mut fork = parent.fork();
        // Half of what the fork asks for is already memoized.
        let asked: Vec<Tt> = old
            .iter()
            .step_by(26)
            .chain(new.iter().step_by(11))
            .copied()
            .collect();
        let mut added = Vec::new();
        for &tt in &asked {
            if !fork.memo.contains_key(&tt) {
                added.push((tt, fork.candidate_for_cut(tt)));
            }
        }
        let reps = fork.db.len();
        parent.absorb(fork);
        assert_eq!(parent.memo.len(), before + added.len());
        assert_eq!(parent.db.len(), reps);
        for (tt, frag) in added {
            assert_eq!(parent.memo.get(&tt), Some(&frag), "{tt:?}");
        }
    }

    #[test]
    fn a_full_memo_stops_growing_and_changes_no_netlist() {
        let mut full = OptContext::new();
        full.memo = SharedMap::bounded(16);
        let mut roomy = OptContext::new();
        for seed in 0..4u64 {
            let base = random_xag(&FuzzConfig::default(), seed);
            let (mut a, mut b) = (base.cleanup(), base.cleanup());
            Pipeline::paper_flow().run(&mut a, &mut full);
            Pipeline::paper_flow().run(&mut b, &mut roomy);
            crate::XorReduce::new().run(&mut a, &mut full);
            crate::XorReduce::new().run(&mut b, &mut roomy);
            assert_eq!(netlist(&a), netlist(&b), "seed {seed}");
        }
        assert_eq!(full.memo.len(), 16);
        assert!(roomy.memo.len() > 16);
    }
}

//! The rewriting engine: every cut-rewriting round runs here.
//!
//! The paper's cut-rewriting loop is embarrassingly parallel at the cut
//! level: candidate cuts are classified, resynthesized, and evaluated
//! independently. Concurrent *mutation* of one strashed network is where
//! semantic corruption creeps in, though, so this engine splits every
//! round into three phases with very different concurrency regimes:
//!
//! 1. **Shard** — the frozen network is partitioned into disjoint
//!    fanout-free windows ([`partition_windows`]): every single-fanout gate
//!    is grouped with the gate that consumes it, so each window is an
//!    MFFC-style cluster that one rewrite is likely to touch as a whole.
//!    Windows are packed into shards balanced by estimated cut work.
//! 2. **Propose** — each root's enumerated cuts are evaluated *read-only*
//!    against the frozen network, producing the best [`Proposal`] per
//!    root. With one thread this runs inline on the caller's
//!    [`OptContext`]; with more, a worker pool on [`std::thread::scope`]
//!    claims shards off a shared queue, each worker on its own context
//!    fork. Because classification and synthesis are deterministic, a
//!    proposal depends only on the frozen network — never on which worker
//!    computed it or on cache state.
//! 3. **Commit** — back on one thread, proposals are applied in
//!    topological order with full re-validation against the live network
//!    (leaves alive, cut function unchanged, gain re-computed with exact
//!    MFFC dereferencing, acyclicity). Losers are rolled back to an arena
//!    watermark ([`xag_network::Xag::reclaim_above`]), so rejected
//!    candidates never leak.
//!
//! The commit order and every accept decision are pure functions of the
//! frozen snapshot, so the result is **bit-identical for every thread
//! count** — the property `tests/parallel.rs` pins down. The only
//! randomness is the seeded shard-claim shuffle (load balancing), which
//! affects wall-clock only; it draws from [`mc_rng`], never wall-clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mc_rng::Rng;
use xag_cuts::{enumerate_cuts_reusing, CutParams, CutSets};
use xag_network::{ConeScratch, FragRef, NodeId, NodeKind, Signal, Xag, XagFragment};
use xag_tt::hash::FxHashMap;
use xag_tt::Tt;

use crate::context::OptContext;
use crate::pass::PassStats;
use crate::Objective;

/// How many shards to cut the work into: a few per thread, so the shared
/// queue can rebalance when windows have uneven rewrite cost.
const SHARDS_PER_THREAD: usize = 4;

/// Seed of the shard-claim shuffle. Fixed — never wall-clock — so runs are
/// reproducible; it cannot affect results, only scheduling.
const CLAIM_SEED: u64 = 0xDAC1_9DAC_19DA_C19D;

/// One unit of proposal work: a topologically contiguous set of window
/// roots with their member gates.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Rewrite roots owned by this shard, in topological order.
    pub roots: Vec<NodeId>,
    /// Estimated work (total enumerated cuts over all roots).
    pub weight: usize,
}

/// A rewrite proposed against the frozen snapshot, waiting for commit.
#[derive(Debug, Clone)]
struct Proposal {
    /// The root gate the candidate replaces.
    root: NodeId,
    /// Topological position of `root` in the snapshot (commit sort key).
    pos: usize,
    /// The cut function the candidate implements over `leaves`.
    tt: Tt,
    /// The replacement circuit.
    frag: XagFragment,
    /// The cut leaves, in the order `frag` expects its inputs.
    leaves: Vec<NodeId>,
}

/// Partitions the live gates of `xag` into at most `num_shards` disjoint
/// shards of fanout-free windows.
///
/// A gate with a single reference belongs to the window of its unique
/// fanout (it is inside that gate's maximum fanout-free cone); every other
/// gate roots a window of its own. Whole windows are then packed into
/// shards by cumulative cut count, walking the windows in topological
/// order so each shard covers a contiguous slice of the network.
pub fn partition_windows(
    xag: &Xag,
    order: &[NodeId],
    sets: &CutSets,
    num_shards: usize,
) -> Vec<Shard> {
    // Window assignment, bottom-up: a single-fanout gate joins its
    // consumer's window once that consumer is seen; since `order` is
    // topological, walk it in reverse so consumers are assigned first.
    // Node ids are dense, so the assignment is a flat side table.
    const UNASSIGNED: NodeId = NodeId::MAX;
    let mut window_of: Vec<NodeId> = vec![UNASSIGNED; xag.capacity()];
    for &n in order.iter().rev() {
        if window_of[n as usize] == UNASSIGNED {
            window_of[n as usize] = n;
        }
        let root = window_of[n as usize];
        let (f0, f1) = xag.fanins(n);
        for f in [f0, f1] {
            let fi = f.node();
            if xag.is_gate(fi) && xag.nref(fi) == 1 {
                window_of[fi as usize] = root;
            }
        }
    }
    // Collect window members in topological order, keyed by window root.
    let mut members: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    let mut window_order: Vec<NodeId> = Vec::new();
    for &n in order {
        let root = window_of[n as usize];
        let entry = members.entry(root).or_default();
        if entry.is_empty() {
            window_order.push(root);
        }
        entry.push(n);
    }
    // Pack windows into shards by cumulative weight.
    let total_weight: usize = order.iter().map(|&n| sets.of(n).len().max(1)).sum();
    let num_shards = num_shards.clamp(1, window_order.len().max(1));
    let target = total_weight.div_ceil(num_shards);
    let mut shards: Vec<Shard> = Vec::with_capacity(num_shards);
    let mut current = Shard {
        roots: Vec::new(),
        weight: 0,
    };
    for w in window_order {
        let window = &members[&w];
        let weight: usize = window.iter().map(|&n| sets.of(n).len().max(1)).sum();
        if !current.roots.is_empty()
            && current.weight + weight > target
            && shards.len() + 1 < num_shards
        {
            shards.push(std::mem::replace(
                &mut current,
                Shard {
                    roots: Vec::new(),
                    weight: 0,
                },
            ));
        }
        current.roots.extend_from_slice(window);
        current.weight += weight;
    }
    if !current.roots.is_empty() {
        shards.push(current);
    }
    shards
}

/// Reusable dense buffers for [`frozen_mffc_with`], indexed by node id and
/// epoch-stamped like [`ConeScratch`]: starting a new cut bumps the epoch
/// instead of clearing anything.
#[derive(Debug, Default)]
struct MffcScratch {
    epoch: u32,
    /// `dec[n]` is live iff `dec_stamp[n] == epoch`.
    dec_stamp: Vec<u32>,
    /// References to `n` the measured MFFC removes.
    dec: Vec<u32>,
    /// `n` is in the measured MFFC iff `doomed[n] == epoch`.
    doomed: Vec<u32>,
}

impl MffcScratch {
    fn begin(&mut self, cap: usize) {
        if self.dec.len() < cap {
            self.dec_stamp.resize(cap, 0);
            self.dec.resize(cap, 0);
            self.doomed.resize(cap, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset so stale entries cannot alias.
            self.dec_stamp.iter_mut().for_each(|s| *s = 0);
            self.doomed.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Counts one more removed reference to `n`; returns the new count.
    #[inline]
    fn decrement(&mut self, n: NodeId) -> u32 {
        let i = n as usize;
        if self.dec_stamp[i] != self.epoch {
            self.dec_stamp[i] = self.epoch;
            self.dec[i] = 0;
        }
        self.dec[i] += 1;
        self.dec[i]
    }

    /// True iff `n` is in the MFFC last measured.
    #[inline]
    fn is_doomed(&self, n: NodeId) -> bool {
        self.doomed[n as usize] == self.epoch
    }
}

/// Read-only MFFC measurement on a frozen network: the `(AND, total)`
/// gates that removing `root` (bounded by `leaves`) would free. The member
/// set is left in `scratch` ([`MffcScratch::is_doomed`]). Mirrors
/// [`Xag::deref_cone`] with local decrement counts instead of mutating
/// reference counts, so any number of workers can measure overlapping
/// cones concurrently.
fn frozen_mffc_with(
    xag: &Xag,
    root: NodeId,
    leaves: &[NodeId],
    scratch: &mut MffcScratch,
) -> (u32, u32) {
    scratch.begin(xag.capacity());
    scratch.doomed[root as usize] = scratch.epoch;
    frozen_mffc_rec(xag, root, leaves, scratch)
}

#[cfg(test)]
fn frozen_mffc(xag: &Xag, root: NodeId, leaves: &[NodeId]) -> (u32, u32, MffcScratch) {
    let mut scratch = MffcScratch::default();
    let (ands, total) = frozen_mffc_with(xag, root, leaves, &mut scratch);
    (ands, total, scratch)
}

fn frozen_mffc_rec(
    xag: &Xag,
    n: NodeId,
    leaves: &[NodeId],
    scratch: &mut MffcScratch,
) -> (u32, u32) {
    let mut ands = (xag.kind(n) == NodeKind::And) as u32;
    let mut total = 1u32;
    let (f0, f1) = xag.fanins(n);
    for f in [f0, f1] {
        let fi = f.node();
        let seen = scratch.decrement(fi);
        if xag.nref(fi) == seen && xag.is_gate(fi) && !leaves.contains(&fi) {
            scratch.doomed[fi as usize] = scratch.epoch;
            let (a, t) = frozen_mffc_rec(xag, fi, leaves, scratch);
            ands += a;
            total += t;
        }
    }
    (ands, total)
}

/// Read-only stand-in for [`XagFragment::count_new_gates`] on a frozen
/// network: gates that hash to live nodes outside the doomed MFFC are
/// free, everything else costs its own gate (reusing a doomed node would
/// keep it alive, cancelling the gain attributed to removing it).
fn estimate_new_gates(
    xag: &Xag,
    frag: &XagFragment,
    leaves: &[Signal],
    mffc: &MffcScratch,
    outs: &mut Vec<Option<Signal>>,
) -> (usize, usize) {
    outs.clear();
    outs.reserve(frag.gates().len());
    let mut added_ands = 0usize;
    let mut added_total = 0usize;
    let resolve = |r: FragRef, outs: &[Option<Signal>]| -> Option<Signal> {
        match r {
            FragRef::Const(c) => Some(Signal::CONST0 ^ c),
            FragRef::Input(i, c) => Some(leaves[i as usize] ^ c),
            FragRef::Gate(g, c) => outs[g as usize].map(|s| s ^ c),
        }
    };
    for gate in frag.gates() {
        let a = resolve(gate.a, outs);
        let b = resolve(gate.b, outs);
        let hit = match (a, b) {
            (Some(a), Some(b)) => {
                if gate.is_and {
                    xag.lookup_and(a, b)
                } else {
                    xag.lookup_xor(a, b)
                }
            }
            _ => None,
        };
        match hit {
            Some(s)
                if s.is_const()
                    || !xag.is_gate(s.node())
                    || (xag.nref(s.node()) > 0 && !mffc.is_doomed(s.node())) =>
            {
                outs.push(Some(s));
            }
            Some(s) => {
                if gate.is_and {
                    added_ands += 1;
                }
                added_total += 1;
                outs.push(Some(s));
            }
            None => {
                if gate.is_and {
                    added_ands += 1;
                }
                added_total += 1;
                outs.push(None);
            }
        }
    }
    (added_ands, added_total)
}

/// Evaluates every cut of every root in one shard against the frozen
/// network and returns the best proposal per root (plus the number of cut
/// candidates considered).
///
/// Cut functions come straight out of the enumeration sweep
/// ([`CutSets::functions_of`]): the snapshot is frozen for the whole
/// proposal phase, so the tables computed during enumeration are exactly
/// what a cone traversal would return — enumeration and function
/// computation are one fused pass.
fn propose_shard(
    xag: &Xag,
    ctx: &mut OptContext,
    sets: &CutSets,
    shard: &Shard,
    pos: &[usize],
    objective: Objective,
) -> (Vec<Proposal>, usize) {
    let mut proposals = Vec::new();
    let mut considered = 0usize;
    let mut mffc = MffcScratch::default();
    let mut outs: Vec<Option<Signal>> = Vec::new();
    for &root in &shard.roots {
        let mut best: Option<(i64, Proposal)> = None;
        let tts = sets.functions_of(root);
        for (ci, cut) in sets.of(root).iter().enumerate() {
            if cut.size() < 2 {
                continue; // trivial and single-leaf cuts
            }
            let tt = tts[ci];
            if tt.is_constant() {
                continue;
            }
            considered += 1;
            let mut leaves = [Signal::CONST0; 6];
            for (k, &l) in cut.leaves().iter().enumerate() {
                leaves[k] = Signal::new(l, false);
            }
            let (freed_ands, freed_total) = frozen_mffc_with(xag, root, cut.leaves(), &mut mffc);
            ctx.with_candidate(tt, |candidate| {
                let (added_ands, added_total) =
                    estimate_new_gates(xag, candidate, &leaves[..cut.size()], &mffc, &mut outs);
                let gain = match objective {
                    Objective::MultiplicativeComplexity => freed_ands as i64 - added_ands as i64,
                    Objective::Size => freed_total as i64 - added_total as i64,
                };
                if gain > 0 && best.as_ref().map(|(g, _)| gain > *g).unwrap_or(true) {
                    best = Some((
                        gain,
                        Proposal {
                            root,
                            pos: pos[root as usize],
                            tt,
                            frag: candidate.clone(),
                            leaves: cut.leaves().to_vec(),
                        },
                    ));
                }
            });
        }
        if let Some((_, p)) = best {
            proposals.push(p);
        }
    }
    (proposals, considered)
}

/// Applies proposals in topological order, re-validating each against the
/// live network. Returns the number of accepted rewrites.
///
/// A proposal wins iff, *on the network as left by the previous winners*:
/// its root and all leaves are still alive, the cut still computes the
/// proposed function, the exact gain (MFFC dereferencing + hash-aware
/// dry-run on the live network) is still positive, and the substitution
/// is acyclic. Everything else is rolled back to the arena
/// watermark recorded before instantiation.
fn commit_proposals(xag: &mut Xag, mut proposals: Vec<Proposal>, objective: Objective) -> usize {
    proposals.sort_by_key(|p| p.pos);
    let mut applied = 0usize;
    let mut cone = ConeScratch::new();
    for p in proposals {
        if xag.is_dead(p.root) || !xag.is_gate(p.root) {
            continue;
        }
        if p.leaves.iter().any(|&l| xag.is_dead(l)) {
            continue;
        }
        // The cut must still compute the function the fragment implements;
        // earlier commits may have rewired the cone.
        if xag.cone_tt_with(p.root, &p.leaves, &mut cone) != Some(p.tt) {
            continue;
        }
        let leaf_signals: Vec<Signal> = p.leaves.iter().map(|&l| Signal::new(l, false)).collect();
        let (freed_ands, freed_total) = xag.deref_cone(p.root, &p.leaves);
        let (added_ands, added_total) = p.frag.count_new_gates(xag, &leaf_signals);
        xag.ref_cone(p.root, &p.leaves);
        let gain = match objective {
            Objective::MultiplicativeComplexity => freed_ands as i64 - added_ands as i64,
            Objective::Size => freed_total as i64 - added_total as i64,
        };
        if gain <= 0 {
            continue;
        }
        let watermark = xag.capacity();
        let new_sig = p.frag.instantiate(xag, &leaf_signals);
        if new_sig.node() != p.root && !xag.is_in_tfi(p.root, new_sig) {
            xag.substitute(p.root, new_sig);
            applied += 1;
        } else {
            xag.reclaim_above(watermark);
        }
    }
    applied
}

/// Counts `(AND, XOR)` gates of a topological order in one walk, instead of
/// two full `num_ands`/`num_xors` DFS passes.
fn count_gates(xag: &Xag, order: &[NodeId]) -> (usize, usize) {
    let ands = order
        .iter()
        .filter(|&&n| xag.kind(n) == NodeKind::And)
        .count();
    (ands, order.len() - ands)
}

/// One rewriting round: shard, propose on `threads` workers, commit
/// deterministically. With `threads <= 1` the proposal phase runs inline
/// on the caller's context; results are bit-identical either way.
pub(crate) fn parallel_rewrite_round(
    xag: &mut Xag,
    ctx: &mut OptContext,
    cut_params: &CutParams,
    objective: Objective,
    threads: usize,
    pass_name: &str,
) -> PassStats {
    let _round = mc_obs::prof::phase("par_rewrite");
    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let start = Instant::now();
    let order = xag.live_gates();
    let (ands_before, xors_before) = count_gates(xag, &order);

    // Only the cones whose cuts changed since the last round are
    // re-enumerated; the rest are copied from the context's cut sets.
    let sets = {
        let _p = mc_obs::prof::phase("cut_enum");
        let prev = ctx.take_cuts();
        enumerate_cuts_reusing(xag, &order, cut_params, prev.as_ref())
    };
    let reg = mc_obs::registry();
    reg.counter("mc_cuts_reused_total")
        .add(sets.reused() as u64);
    reg.counter("mc_cuts_enumerated_total")
        .add((order.len() - sets.reused()) as u64);
    let mut pos: Vec<usize> = vec![0; xag.capacity()];
    for (i, &n) in order.iter().enumerate() {
        pos[n as usize] = i;
    }

    let threads = threads.max(1);
    let num_shards = if threads == 1 {
        1
    } else {
        threads * SHARDS_PER_THREAD
    };
    let shards = partition_windows(xag, &order, &sets, num_shards);
    reg.counter("mc_shard_windows_total")
        .add(shards.len() as u64);

    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let propose_start = Instant::now();
    let mut propose_span = mc_obs::span("shard:propose");
    let mut proposals: Vec<Proposal> = Vec::new();
    let mut considered = 0usize;
    if threads == 1 || shards.len() <= 1 {
        for shard in &shards {
            let _p = mc_obs::prof::phase("propose");
            let (props, c) = propose_shard(xag, ctx, &sets, shard, &pos, objective);
            proposals.extend(props);
            considered += c;
        }
    } else {
        // Claim order is shuffled (seeded) so long windows spread across
        // workers; the claim order cannot affect results, only wall-clock.
        let mut claim: Vec<usize> = (0..shards.len()).collect();
        Rng::seed_from_u64(CLAIM_SEED).shuffle(&mut claim);
        let next = AtomicUsize::new(0);
        let frozen: &Xag = xag;
        // Trace IDs and phase stacks live in thread-locals; carry the
        // round's trace ID and phase path into the scoped workers so their
        // propose spans join the job's trace and their propose phases fold
        // to the same path as an inline round's (taken before `spawn_wait`
        // opens, so that phase holds only the caller's own waiting).
        let trace_id = mc_obs::current_trace_id();
        let stack = mc_obs::prof::current_stack();
        let workers = threads.min(shards.len());
        let forks: Vec<OptContext> = {
            let _p = mc_obs::prof::phase("fork");
            (0..workers).map(|_| ctx.fork()).collect()
        };
        let _wait = mc_obs::prof::phase("spawn_wait");
        let (all, forks) = std::thread::scope(|s| {
            let handles: Vec<_> = forks
                .into_iter()
                .map(|mut wctx| {
                    let (claim, next, shards, sets, pos, stack) =
                        (&claim, &next, &shards, &sets, &pos, &stack);
                    s.spawn(move || {
                        let _trace = mc_obs::trace_scope(trace_id);
                        // The adopted prefix also keeps the worker's stack
                        // non-empty, so its phases flush once per worker,
                        // not once per shard.
                        let _stack = mc_obs::prof::adopt_stack(stack);
                        let mut mine: Vec<(usize, Vec<Proposal>, usize)> = Vec::new();
                        loop {
                            // Schedule-fuzz crossing: inert in production
                            // (one relaxed load), perturbs the claim race
                            // under `tests/schedule_fuzz.rs` to prove the
                            // commit is claim-order-independent.
                            mc_rng::sched::yield_point(mc_rng::sched::site::SHARD_CLAIM);
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= claim.len() {
                                break;
                            }
                            let si = claim[k];
                            let _p = mc_obs::prof::phase("propose");
                            let (props, c) =
                                propose_shard(frozen, &mut wctx, sets, &shards[si], pos, objective);
                            drop(_p);
                            mc_rng::sched::yield_point(mc_rng::sched::site::SHARD_PROPOSE);
                            mine.push((si, props, c));
                        }
                        (mine, wctx)
                    })
                })
                .collect();
            let mut all: Vec<(usize, Vec<Proposal>, usize)> = Vec::new();
            let mut forks: Vec<OptContext> = Vec::new();
            for h in handles {
                let (mine, wctx) = h.join().expect("rewrite worker panicked");
                all.extend(mine);
                forks.push(wctx);
            }
            (all, forks)
        });
        drop(_wait);
        {
            let _p = mc_obs::prof::phase("absorb");
            for fork in forks {
                ctx.absorb(fork);
            }
        }
        // Deterministic aggregation: shard index order, not completion
        // order.
        let mut all = all;
        all.sort_by_key(|(si, _, _)| *si);
        for (_, props, c) in all {
            proposals.extend(props);
            considered += c;
        }
    }

    propose_span.detail(format!(
        "windows={} proposals={} considered={considered}",
        shards.len(),
        proposals.len()
    ));
    drop(propose_span);
    mc_obs::registry()
        .histogram("mc_shard_propose_us")
        .record(propose_start.elapsed().as_micros() as u64);

    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let commit_start = Instant::now();
    let num_proposals = proposals.len();
    let applied = {
        let _p = mc_obs::prof::phase("commit_validate");
        commit_proposals(xag, proposals, objective)
    };
    ctx.keep_cuts(sets);
    reg.histogram("mc_shard_commit_us")
        .record(commit_start.elapsed().as_micros() as u64);
    reg.counter("mc_shard_proposals_total")
        .add(num_proposals as u64);
    reg.counter("mc_shard_commits_total").add(applied as u64);
    mc_obs::record(
        "shard:commit",
        mc_obs::epoch_us().saturating_sub(commit_start.elapsed().as_micros() as u64),
        commit_start.elapsed().as_micros() as u64,
        format!("proposals={num_proposals} applied={applied}"),
    );

    let (ands_after, xors_after) = count_gates(xag, &xag.live_gates());
    PassStats {
        pass: pass_name.to_string(),
        ands_before,
        xors_before,
        ands_after,
        xors_after,
        rewrites_applied: applied,
        cuts_considered: considered,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_cuts::enumerate_cuts;
    use xag_network::equiv_exhaustive;

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

    fn random_mixed_network(seed: u64) -> Xag {
        let mut xag = Xag::new();
        let ins: Vec<Signal> = (0..6).map(|_| xag.input()).collect();
        let mut pool = ins.clone();
        let mut rng = Rng::seed_from_u64(seed);
        for k in 0..40 {
            let a = pool[rng.gen_range(0..pool.len())] ^ rng.gen();
            let b = pool[rng.gen_range(0..pool.len())] ^ rng.gen();
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
        xag
    }

    #[test]
    fn windows_partition_all_live_gates() {
        let xag = random_mixed_network(11);
        let sets = enumerate_cuts(&xag, &CutParams::default());
        let order = xag.live_gates();
        for shards in [
            partition_windows(&xag, &order, &sets, 1),
            partition_windows(&xag, &order, &sets, 3),
            partition_windows(&xag, &order, &sets, 64),
        ] {
            let mut covered: Vec<NodeId> = shards.iter().flat_map(|s| s.roots.clone()).collect();
            covered.sort_unstable();
            let mut expected = order.clone();
            expected.sort_unstable();
            assert_eq!(covered, expected, "every live gate in exactly one shard");
        }
    }

    #[test]
    fn single_fanout_gates_share_a_shard_with_their_consumer() {
        let xag = textbook_full_adder();
        let sets = enumerate_cuts(&xag, &CutParams::default());
        let order = xag.live_gates();
        // Ask for more shards than windows: splits happen only at window
        // boundaries, so every single-fanout gate stays with its consumer.
        let shards = partition_windows(&xag, &order, &sets, 64);
        for shard in &shards {
            for &n in &shard.roots {
                if xag.nref(n) == 1 {
                    let consumer_shard = shards
                        .iter()
                        .position(|s| {
                            s.roots.iter().any(|&m| {
                                m != n
                                    && xag.is_gate(m)
                                    && (xag.fanins(m).0.node() == n || xag.fanins(m).1.node() == n)
                            })
                        })
                        .or_else(|| shards.iter().position(|s| s.roots.contains(&n)));
                    assert_eq!(
                        consumer_shard,
                        shards.iter().position(|s| s.roots.contains(&n)),
                        "gate {n} separated from its single consumer"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_mffc_matches_deref_cone() {
        let mut xag = random_mixed_network(5);
        let order = xag.live_gates();
        let sets = enumerate_cuts(&xag, &CutParams::default());
        for &root in &order {
            for cut in sets.of(root) {
                if cut.size() < 2 {
                    continue;
                }
                let (fa, ft, _) = frozen_mffc(&xag, root, cut.leaves());
                let (da, dt) = xag.deref_cone(root, cut.leaves());
                xag.ref_cone(root, cut.leaves());
                assert_eq!((fa, ft), (da, dt), "root {root} cut {:?}", cut.leaves());
            }
        }
    }

    #[test]
    fn parallel_round_preserves_function_and_reduces_ands() {
        for seed in [1u64, 2, 3, 4] {
            let mut xag = random_mixed_network(seed);
            let reference = xag.cleanup();
            let before = xag.num_ands();
            let mut ctx = OptContext::new();
            let stats = parallel_rewrite_round(
                &mut xag,
                &mut ctx,
                &CutParams::default(),
                Objective::MultiplicativeComplexity,
                2,
                "par-test",
            );
            assert!(xag.num_ands() <= before);
            assert_eq!(stats.ands_after, xag.num_ands());
            assert!(equiv_exhaustive(&reference, &xag.cleanup()), "seed {seed}");
        }
    }

    #[test]
    fn a_second_round_reuses_cut_lists_and_counts_them() {
        let reg = mc_obs::registry();
        let (reused, enumerated) = (
            reg.counter("mc_cuts_reused_total"),
            reg.counter("mc_cuts_enumerated_total"),
        );
        let mut xag = random_mixed_network(3).cleanup();
        let mut ctx = OptContext::new();
        let params = CutParams::default();
        let objective = Objective::MultiplicativeComplexity;
        let before = (reused.get(), enumerated.get());
        for _ in 0..2 {
            parallel_rewrite_round(&mut xag, &mut ctx, &params, objective, 1, "par-test");
        }
        assert!(enumerated.get() > before.1, "the first round enumerates");
        assert!(reused.get() > before.0, "the second round reuses lists");
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        for seed in [7u64, 8, 9] {
            let base = random_mixed_network(seed);
            let mut results = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut xag = base.cleanup();
                let mut ctx = OptContext::new();
                parallel_rewrite_round(
                    &mut xag,
                    &mut ctx,
                    &CutParams::default(),
                    Objective::MultiplicativeComplexity,
                    threads,
                    "par-test",
                );
                let clean = xag.cleanup();
                results.push((clean.num_ands(), clean.num_xors()));
            }
            assert_eq!(results[0], results[1], "seed {seed}: 1 vs 2 threads");
            assert_eq!(results[0], results[2], "seed {seed}: 1 vs 4 threads");
        }
    }
}

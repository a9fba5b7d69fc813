//! k-feasible cut enumeration for XAG networks.
//!
//! A *cut* of node `n` is a set of nodes (*leaves*) such that every path
//! from `n` to a primary input passes through a leaf, and every leaf lies on
//! such a path. A cut is *k-feasible* if it has at most `k` leaves. The
//! DAC'19 flow enumerates 6-feasible cuts with at most 12 cuts per node and
//! rewrites the sub-circuit each cut spans (paper §4.1).
//!
//! This implementation follows the classic bottom-up scheme: the cut set of
//! a gate is the k-feasible subset of the pairwise unions of its fanins'
//! cut sets, pruned for dominance (a cut that is a superset of another cut
//! of the same node is redundant) and truncated to a per-node limit, with
//! the trivial cut `{n}` always present so that enumeration can continue
//! upward.
//!
//! # Bounded selection
//!
//! A node's list is the first `cut_limit` *minimal* merges (no other merge
//! is a subset), ordered by leaf count and then by first occurrence in the
//! fanin-pair generation order. It is selected without a dominance sweep
//! over all merges: the feasible merges are generated into buckets by leaf
//! count, each bucket in generation order, and the buckets are walked from
//! the smallest. A merge is accepted unless an accepted cut dominates it
//! (equal leaves count as dominating, which drops duplicates), and the walk
//! stops at `cut_limit` accepted cuts, so every merge is checked against at
//! most `cut_limit` others. This is exact: a non-minimal merge has a minimal
//! strict subset among the merges, which is smaller, so it sits in an
//! earlier bucket and was accepted before the walk reaches the superset;
//! a minimal merge is dominated by nothing but its own duplicates.
//!
//! # Reuse across rounds
//!
//! A node's list depends only on the node's kind, its two fanin signals
//! (complement bits included) and its fanins' lists. [`CutSets`] records
//! the kind and fanins each gate was enumerated from, and
//! [`enumerate_cuts_reusing`] copies a gate's list from an earlier
//! enumeration when its kind and fanins match that record and both
//! fanins' lists came out equal to their earlier ones (copied, or
//! re-enumerated with an equal result). Every other gate is enumerated;
//! when its list equals the earlier one anyway, the change stops spreading
//! upward. By induction from the constant and the inputs, which are always
//! built afresh, a copied list is exactly what enumeration would produce,
//! for *any* earlier sets: ones from another network, or from before
//! arbitrary rewiring, cost time but never change a result. Sets built
//! with other [`CutParams`] are ignored.
//!
//! The data layout is built for the rewrite hot path:
//!
//! * a [`Cut`] is a `Copy` value with its (at most six) leaves inline — no
//!   per-cut heap allocation anywhere in the enumeration;
//! * [`CutSets`] is a flat arena indexed by dense node id — per-node spans
//!   into one shared `Vec<Cut>`, so fanin cut sets are merged by index
//!   instead of being cloned;
//! * every cut's local function is computed *during* enumeration in the same
//!   bottom-up sweep ([`CutSets::functions_of`]): a merged cut's truth table
//!   is the gate operator applied to the fanin cuts' tables lifted onto the
//!   merged leaf set with [`Tt::expand`], which replaces a per-cut recursive
//!   cone traversal with two table operations.
//!
//! # Examples
//!
//! ```
//! use xag_cuts::{enumerate_cuts, CutParams};
//! use xag_network::Xag;
//!
//! let mut xag = Xag::new();
//! let a = xag.input();
//! let b = xag.input();
//! let c = xag.input();
//! let m = xag.maj(a, b, c);
//! xag.output(m);
//!
//! let cuts = enumerate_cuts(&xag, &CutParams::default());
//! // The majority root has a cut whose leaves are the three inputs.
//! let root_cuts = cuts.of(m.node());
//! assert!(root_cuts
//!     .iter()
//!     .any(|cut| cut.leaves() == [a.node(), b.node(), c.node()]));
//! ```

use xag_network::{NodeId, NodeKind, Signal, Xag};
use xag_tt::Tt;

/// Maximum number of leaves a [`Cut`] can hold (matches [`xag_tt::MAX_VARS`]).
pub const MAX_CUT_SIZE: usize = 6;

/// A cut: a sorted set of at most six leaf nodes, stored inline, with a
/// precomputed subset signature.
///
/// `Cut` is `Copy` (30 bytes) — cut sets move around by value, never through
/// the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cut {
    signature: u64,
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
}

impl Cut {
    /// Creates a cut from leaf node ids (deduplicated and sorted).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_SIZE`] distinct leaves are given.
    pub fn new(leaves: &[NodeId]) -> Self {
        let mut sorted = leaves.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() <= MAX_CUT_SIZE, "cut has too many leaves");
        let mut inline = [0 as NodeId; MAX_CUT_SIZE];
        inline[..sorted.len()].copy_from_slice(&sorted);
        let signature = sorted.iter().fold(0u64, |s, &l| s | 1 << (l % 64));
        Self {
            signature,
            leaves: inline,
            len: sorted.len() as u8,
        }
    }

    /// The empty cut (only the constant node has it).
    pub fn empty() -> Self {
        Self {
            signature: 0,
            leaves: [0; MAX_CUT_SIZE],
            len: 0,
        }
    }

    /// The trivial cut `{n}`.
    pub fn trivial(n: NodeId) -> Self {
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        leaves[0] = n;
        Self {
            signature: 1 << (n % 64),
            leaves,
            len: 1,
        }
    }

    /// The sorted leaf nodes.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// 64-bit subset signature: bit `l % 64` is set for every leaf `l`.
    #[inline]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// True iff `self`'s leaves are a subset of `other`'s.
    ///
    /// Signature-first: if `self` sets a signature bit `other` lacks it
    /// cannot be a subset. The exact test is a merge-walk over the two
    /// sorted leaf lists rather than a per-leaf binary search.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || self.signature & !other.signature != 0 {
            return false;
        }
        let mut j = 0usize;
        let ob = other.leaves();
        'next: for &l in self.leaves() {
            while j < ob.len() {
                match ob[j].cmp(&l) {
                    core::cmp::Ordering::Less => j += 1,
                    core::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'next;
                    }
                    core::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Merges two cuts, or `None` if the union exceeds `max_size` leaves.
    pub fn merge(&self, other: &Cut, max_size: usize) -> Option<Cut> {
        self.merge_with_positions(other, max_size).map(|m| m.0)
    }

    /// [`Cut::merge`] that additionally reports, for each leaf of `self` and
    /// of `other`, its position in the merged leaf list — exactly the
    /// variable maps [`Tt::expand`] needs to lift the fanin cut functions.
    #[inline]
    fn merge_with_positions(
        &self,
        other: &Cut,
        max_size: usize,
    ) -> Option<(Cut, [u8; MAX_CUT_SIZE], [u8; MAX_CUT_SIZE])> {
        debug_assert!(max_size <= MAX_CUT_SIZE);
        let (la, lb) = (self.len as usize, other.len as usize);
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        let mut pa = [0u8; MAX_CUT_SIZE];
        let mut pb = [0u8; MAX_CUT_SIZE];
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < la || j < lb {
            if k == max_size {
                return None;
            }
            let take_a = j == lb || (i < la && self.leaves[i] <= other.leaves[j]);
            let take_b = i == la || (j < lb && other.leaves[j] <= self.leaves[i]);
            if take_a {
                leaves[k] = self.leaves[i];
                pa[i] = k as u8;
                i += 1;
            }
            if take_b {
                leaves[k] = other.leaves[j];
                pb[j] = k as u8;
                j += 1;
            }
            k += 1;
        }
        Some((
            Cut {
                signature: self.signature | other.signature,
                leaves,
                len: k as u8,
            },
            pa,
            pb,
        ))
    }
}

/// Parameters of the enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutParams {
    /// Maximum number of leaves per cut (at most 6, so cut functions fit in
    /// one 64-bit truth table).
    pub cut_size: usize,
    /// Maximum number of cuts kept per node, excluding the trivial cut
    /// (the paper found 12 to be a good runtime/quality trade-off).
    pub cut_limit: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        Self {
            cut_size: 6,
            cut_limit: 12,
        }
    }
}

/// The cut sets of every live gate (and input) of a network.
///
/// A flat arena: one shared `Vec<Cut>` plus a per-node `(start, end)` span
/// indexed by dense node id, with a parallel `Vec<Tt>` holding each cut's
/// local function computed during enumeration. Each gate's entry also
/// records the kind and fanins its list was enumerated from, so a later
/// [`enumerate_cuts_reusing`] can tell which lists still hold.
#[derive(Debug)]
pub struct CutSets {
    params: CutParams,
    nodes: Vec<Entry>,
    cuts: Vec<Cut>,
    tts: Vec<Tt>,
    reused: usize,
}

/// A node's span in the arena and, for a gate, what its list was
/// enumerated from besides its fanins' lists.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    start: u32,
    end: u32,
    origin: Option<Origin>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Origin {
    is_and: bool,
    f0: Signal,
    f1: Signal,
}

/// A feasible merge waiting for selection: the union, the fanin cuts it
/// merges, each fanin leaf's position in the union, and the next merge of
/// the same leaf count ([`NO_NEXT`] ends the bucket).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cut: Cut,
    i0: u32,
    i1: u32,
    p0: [u8; MAX_CUT_SIZE],
    p1: [u8; MAX_CUT_SIZE],
    next: u32,
}

const NO_NEXT: u32 = u32::MAX;

impl CutSets {
    #[inline]
    fn span(&self, n: NodeId) -> (usize, usize) {
        match self.nodes.get(n as usize) {
            Some(e) => (e.start as usize, e.end as usize),
            None => (0, 0),
        }
    }

    #[inline]
    fn set_span(&mut self, n: NodeId, start: usize) {
        let entry = &mut self.nodes[n as usize];
        entry.start = start as u32;
        entry.end = self.cuts.len() as u32;
    }

    /// Cuts of a node (empty slice for unknown/dead nodes).
    #[inline]
    pub fn of(&self, n: NodeId) -> &[Cut] {
        let (s, e) = self.span(n);
        &self.cuts[s..e]
    }

    /// Local functions of a node's cuts, parallel to [`CutSets::of`].
    ///
    /// Entry `i` is the function of cut `i` over its sorted leaves as
    /// variables `x0..`, identical to what [`cut_function`] computes — but it
    /// was produced by the one-pass bottom-up sweep, not a cone traversal.
    #[inline]
    pub fn functions_of(&self, n: NodeId) -> &[Tt] {
        let (s, e) = self.span(n);
        &self.tts[s..e]
    }

    /// Total number of stored cuts.
    pub fn total(&self) -> usize {
        self.cuts.len()
    }

    /// Iterates over `(node, cuts)` pairs in increasing node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[Cut])> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, e)| e.end > e.start)
            .map(|(n, e)| (n as NodeId, &self.cuts[e.start as usize..e.end as usize]))
    }

    /// Number of gates whose lists [`enumerate_cuts_reusing`] copied from
    /// the earlier sets instead of enumerating them.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Drops the arena's spare capacity, for sets kept for a later
    /// [`enumerate_cuts_reusing`].
    pub fn shrink_to_fit(&mut self) {
        self.cuts.shrink_to_fit();
        self.tts.shrink_to_fit();
    }

    /// True iff node `n` has the same cuts and functions here as in `other`.
    fn same_list(&self, other: &CutSets, n: NodeId) -> bool {
        self.of(n) == other.of(n) && self.functions_of(n) == other.functions_of(n)
    }

    fn push_one(&mut self, n: NodeId, cut: Cut, tt: Tt) {
        let start = self.cuts.len();
        self.cuts.push(cut);
        self.tts.push(tt);
        self.set_span(n, start);
    }

    /// Appends `prev`'s list of gate `n` as `n`'s list.
    fn copy_list(&mut self, prev: &CutSets, n: NodeId) {
        let start = self.cuts.len();
        let (s, e) = prev.span(n);
        self.cuts.extend_from_slice(&prev.cuts[s..e]);
        self.tts.extend_from_slice(&prev.tts[s..e]);
        self.set_span(n, start);
    }

    /// Enumerates gate `n`'s list from its fanins' lists by bounded
    /// selection (module docs), computing each accepted cut's function.
    /// `cands` is scratch; its merges are chained into per-leaf-count
    /// buckets.
    fn enumerate_list(&mut self, n: NodeId, origin: Origin, cands: &mut Vec<Candidate>) {
        let CutParams {
            cut_size,
            cut_limit,
        } = self.params;
        cands.clear();
        let mut head = [NO_NEXT; MAX_CUT_SIZE + 1];
        let mut tail = [NO_NEXT; MAX_CUT_SIZE + 1];
        let (s0, e0) = self.span(origin.f0.node());
        let (s1, e1) = self.span(origin.f1.node());
        for i0 in s0..e0 {
            let c0 = self.cuts[i0];
            for i1 in s1..e1 {
                let c1 = self.cuts[i1];
                // Early size filter: the signature popcount never exceeds the
                // true union size (64-aliasing only collapses bits), so this
                // rejects only genuinely infeasible merges.
                if (c0.signature | c1.signature).count_ones() as usize > cut_size {
                    continue;
                }
                if let Some((cut, p0, p1)) = c0.merge_with_positions(&c1, cut_size) {
                    let (k, size) = (cands.len() as u32, cut.size());
                    match tail[size] {
                        NO_NEXT => head[size] = k,
                        t => cands[t as usize].next = k,
                    }
                    tail[size] = k;
                    cands.push(Candidate {
                        cut,
                        i0: i0 as u32,
                        i1: i1 as u32,
                        p0,
                        p1,
                        next: NO_NEXT,
                    });
                }
            }
        }
        let start = self.cuts.len();
        'select: for &first in &head {
            let mut k = first;
            while k != NO_NEXT {
                if self.cuts.len() - start == cut_limit {
                    break 'select;
                }
                let cand = cands[k as usize];
                k = cand.next;
                if self.cuts[start..].iter().any(|c| c.dominates(&cand.cut)) {
                    continue;
                }
                // Fused cut function: lift both fanin tables onto the merged
                // leaf set and apply the gate operator.
                let lift = |i: u32, pos: &[u8; MAX_CUT_SIZE], f: Signal| {
                    let i = i as usize;
                    let mut p = [0usize; MAX_CUT_SIZE];
                    let len = self.cuts[i].size();
                    for (p, &q) in p.iter_mut().zip(&pos[..len]) {
                        *p = q as usize;
                    }
                    let t = self.tts[i].expand(&p[..len], cand.cut.size());
                    if f.is_complement() {
                        !t
                    } else {
                        t
                    }
                };
                let t0 = lift(cand.i0, &cand.p0, origin.f0);
                let t1 = lift(cand.i1, &cand.p1, origin.f1);
                self.cuts.push(cand.cut);
                self.tts.push(if origin.is_and { t0 & t1 } else { t0 ^ t1 });
            }
        }
        self.cuts.push(Cut::trivial(n));
        self.tts.push(Tt::projection(0, 1));
        self.set_span(n, start);
    }
}

/// Enumerates k-feasible cuts of all live gates of `xag`.
///
/// # Panics
///
/// Panics if `params.cut_size` is 0 or greater than 6.
pub fn enumerate_cuts(xag: &Xag, params: &CutParams) -> CutSets {
    enumerate_cuts_for(xag, &xag.live_gates(), params)
}

/// [`enumerate_cuts`] over a caller-provided topological order of live gates
/// (fanins before fanouts), so the order's DFS is not repeated here.
///
/// # Panics
///
/// Panics if `params.cut_size` is 0 or greater than 6.
pub fn enumerate_cuts_for(xag: &Xag, order: &[NodeId], params: &CutParams) -> CutSets {
    enumerate_cuts_reusing(xag, order, params, None)
}

/// [`enumerate_cuts_for`] that copies a gate's list from `prev`, the sets of
/// an earlier enumeration, wherever the reuse rule of the module docs
/// proves it unchanged; [`CutSets::reused`] counts those gates.
///
/// The result equals [`enumerate_cuts_for`]'s for any `prev`: sets from
/// another network, from before any rewiring, or built with other
/// [`CutParams`] (which are ignored) cost time, never correctness.
///
/// # Panics
///
/// Panics if `params.cut_size` is 0 or greater than 6.
pub fn enumerate_cuts_reusing(
    xag: &Xag,
    order: &[NodeId],
    params: &CutParams,
    prev: Option<&CutSets>,
) -> CutSets {
    assert!(
        (1..=MAX_CUT_SIZE).contains(&params.cut_size),
        "cut size must be within 1..=6"
    );
    let prev = prev.filter(|p| p.params == *params);
    // Room for the previous round's cuts plus some growth, so the arena
    // seldom doubles while the previous sets are still held.
    let reserve = prev.map_or(0, |p| p.total() + p.total() / 8);
    let mut sets = CutSets {
        params: *params,
        nodes: vec![Entry::default(); xag.capacity()],
        cuts: Vec::with_capacity(reserve),
        tts: Vec::with_capacity(reserve),
        reused: 0,
    };
    // `same[n]`: node n's list equals its list in `prev`.
    let mut same = vec![false; if prev.is_some() { xag.capacity() } else { 0 }];
    // Constant node: empty cut. Inputs: trivial cut only.
    sets.push_one(0, Cut::empty(), Tt::zero(1));
    for i in 0..xag.num_inputs() {
        let n = xag.input_signal(i).node();
        sets.push_one(n, Cut::trivial(n), Tt::projection(0, 1));
    }
    if let Some(prev) = prev {
        same[0] = sets.same_list(prev, 0);
        for i in 0..xag.num_inputs() {
            let n = xag.input_signal(i).node();
            same[n as usize] = sets.same_list(prev, n);
        }
    }
    // One reusable scratch for the per-node merges; cuts are `Copy`, so
    // nothing below allocates once the buffers have grown.
    let mut cands: Vec<Candidate> = Vec::new();
    for &n in order {
        let (f0, f1) = xag.fanins(n);
        let origin = Origin {
            is_and: xag.kind(n) == NodeKind::And,
            f0,
            f1,
        };
        sets.nodes[n as usize].origin = Some(origin);
        let Some(prev) = prev else {
            sets.enumerate_list(n, origin, &mut cands);
            continue;
        };
        let recorded = prev.nodes.get(n as usize).and_then(|e| e.origin);
        if recorded == Some(origin) && same[f0.node() as usize] && same[f1.node() as usize] {
            sets.copy_list(prev, n);
            sets.reused += 1;
            same[n as usize] = true;
        } else {
            sets.enumerate_list(n, origin, &mut cands);
            same[n as usize] = sets.same_list(prev, n);
        }
    }
    sets
}

/// Computes the local function of `root` over a cut, reduced to the cut
/// leaves as variables `x0..x_{size-1}` in leaf order.
///
/// Returns `None` if the cut is not a valid cut of `root` in `xag`. This
/// walks the cone; cuts produced by [`enumerate_cuts`] already carry their
/// function in [`CutSets::functions_of`].
pub fn cut_function(xag: &Xag, root: NodeId, cut: &Cut) -> Option<Tt> {
    xag.cone_tt(root, cut.leaves())
}

/// Convenience: enumerate cuts and pair each non-trivial cut of each gate
/// with its function.
pub fn enumerate_cut_functions(xag: &Xag, params: &CutParams) -> Vec<(NodeId, Cut, Tt)> {
    let order = xag.live_gates();
    let sets = enumerate_cuts_for(xag, &order, params);
    let mut out = Vec::new();
    for n in order {
        for (cut, &tt) in sets.of(n).iter().zip(sets.functions_of(n)) {
            if cut.size() == 1 && cut.leaves()[0] == n {
                continue; // trivial cut
            }
            out.push((n, *cut, tt));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> (Xag, Vec<NodeId>) {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        let axb = x.xor(a, b);
        let sum = x.xor(axb, c);
        let ab = x.and(a, b);
        let ac = x.and(a, c);
        let bc = x.and(b, c);
        let t = x.xor(ab, ac);
        let cout = x.xor(t, bc);
        x.output(sum);
        x.output(cout);
        let ids = vec![a.node(), b.node(), c.node()];
        (x, ids)
    }

    #[test]
    fn full_adder_cout_cut_is_majority() {
        let (x, ins) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        let cout = x.output_signal(1).node();
        let cut = sets
            .of(cout)
            .iter()
            .find(|c| c.leaves() == ins.as_slice())
            .expect("input cut exists");
        let tt = cut_function(&x, cout, cut).expect("valid cut");
        assert_eq!(tt.bits(), 0xe8, "paper Example 3.1: cout cut is ⟨abc⟩");
    }

    #[test]
    fn all_cuts_are_valid_and_dominance_free() {
        let (x, _) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        for (n, cuts) in sets.iter() {
            if !x.is_gate(n) {
                continue;
            }
            for (i, c) in cuts.iter().enumerate() {
                assert!(cut_function(&x, n, c).is_some(), "cut {c:?} of {n}");
                for (j, d) in cuts.iter().enumerate() {
                    if i != j && !(c.size() == 1 && c.leaves()[0] == n) {
                        assert!(
                            !(d.dominates(c) && d.leaves() != c.leaves()),
                            "cut {c:?} dominated by {d:?} at node {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_functions_match_cone_traversal() {
        let (x, _) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        for (n, cuts) in sets.iter() {
            if !x.is_gate(n) {
                continue;
            }
            for (cut, &tt) in cuts.iter().zip(sets.functions_of(n)) {
                assert_eq!(cut_function(&x, n, cut), Some(tt), "node {n} cut {cut:?}");
            }
        }
    }

    #[test]
    fn cut_limit_is_respected() {
        let (x, _) = full_adder();
        let params = CutParams {
            cut_size: 4,
            cut_limit: 2,
        };
        let sets = enumerate_cuts(&x, &params);
        for (n, cuts) in sets.iter() {
            if x.is_gate(n) {
                assert!(cuts.len() <= params.cut_limit + 1, "node {n}");
            }
        }
    }

    #[test]
    fn cut_functions_cover_all_gates() {
        let (x, _) = full_adder();
        let funcs = enumerate_cut_functions(&x, &CutParams::default());
        assert!(!funcs.is_empty());
        for (n, cut, tt) in &funcs {
            assert_eq!(cut_function(&x, *n, cut), Some(*tt));
            assert!(tt.vars() == cut.size());
        }
    }

    #[test]
    fn dominates_and_merge_basics() {
        let a = Cut::new(&[3, 1]);
        let b = Cut::new(&[1, 2, 3]);
        assert_eq!(a.leaves(), &[1, 3]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        let m = a.merge(&b, MAX_CUT_SIZE).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3]);
        assert!(a.merge(&b, 2).is_none(), "union exceeds the bound");
    }

    #[test]
    fn merge_positions_index_the_union() {
        let a = Cut::new(&[2, 9]);
        let b = Cut::new(&[2, 5, 11]);
        let (m, pa, pb) = a.merge_with_positions(&b, MAX_CUT_SIZE).unwrap();
        assert_eq!(m.leaves(), &[2, 5, 9, 11]);
        assert_eq!(&pa[..2], &[0, 2]);
        assert_eq!(&pb[..3], &[0, 1, 3]);
    }

    #[test]
    fn dominates_handles_aliased_signatures() {
        // 64-aliasing: 1 and 65 share a signature bit, but {1} ⊄ {65, 2}.
        let a = Cut::new(&[1]);
        let b = Cut::new(&[2, 65]);
        assert!(!a.dominates(&b));
        assert!(Cut::new(&[65]).dominates(&b));
    }
}

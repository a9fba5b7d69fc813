//! Differential tests pinning the dense arena enumeration to the legacy
//! implementation it replaced.
//!
//! The `legacy` module below is a faithful reimplementation of the
//! pre-overhaul enumeration, including its full dominance sweep over every
//! merge before truncation: `HashMap<NodeId, Vec<Cut>>` sets,
//! heap-allocated leaf vectors, clone-the-fanin-sets merging, the loose
//! `cut_size + 8` early filter, and a recursive per-cut cone traversal
//! with a fresh `HashMap` memo. Across 100 seeded fuzz networks the
//! dense enumeration must produce **exactly** the same cut sets — same
//! leaves, same per-node order after the priority sort — and its fused
//! truth tables must equal the cone oracle's. That is the "byte
//! identical" guarantee at the data-structure level; the end-to-end
//! netlist identity is pinned by `tests/hotpath_equiv.rs` at the
//! workspace root.

use std::collections::HashMap;

use xag_cuts::{cut_function, enumerate_cuts_for, Cut as DenseCut, CutParams};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{NodeId, NodeKind, Xag};
use xag_tt::Tt;

mod legacy {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Cut {
        pub leaves: Vec<NodeId>,
        pub signature: u64,
    }

    impl Cut {
        pub fn new(mut leaves: Vec<NodeId>) -> Self {
            leaves.sort_unstable();
            leaves.dedup();
            let signature = leaves.iter().fold(0u64, |s, &l| s | 1 << (l % 64));
            Self { leaves, signature }
        }

        pub fn dominates(&self, other: &Cut) -> bool {
            if self.leaves.len() > other.leaves.len() || self.signature & !other.signature != 0 {
                return false;
            }
            self.leaves
                .iter()
                .all(|l| other.leaves.binary_search(l).is_ok())
        }

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

    /// The old `Xag::cone_tt`: fresh `HashMap` memo, recursive walk.
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

/// 100 structurally diverse seeded networks: the default shape, an
/// XOR-heavy shape, and a deeper/narrower shape, cycling by seed.
fn network(seed: u64) -> Xag {
    let cfg = match seed % 3 {
        0 => FuzzConfig::default(),
        1 => FuzzConfig {
            xor_ratio: 0.8,
            ..FuzzConfig::default()
        },
        _ => FuzzConfig {
            inputs: 10,
            gates: 80,
            depth_bias: 0.85,
            ..FuzzConfig::default()
        },
    };
    random_xag(&cfg, seed)
}

/// The bounded selection must keep exactly the legacy sweep's first
/// `cut_limit` minimal cuts. Tight limits make truncation ties decide the
/// result, so they are pinned alongside the paper's parameters.
#[test]
fn dense_enumeration_matches_legacy_across_100_fuzz_networks() {
    let tight = [(6, 1), (6, 2), (6, 3), (3, 2), (5, 20)].map(|(cut_size, cut_limit)| CutParams {
        cut_size,
        cut_limit,
    });
    for params in [
        CutParams::default(),
        CutParams {
            cut_size: 4,
            cut_limit: 8,
        },
    ]
    .into_iter()
    .chain(tight)
    {
        for seed in 0..100u64 {
            let xag = network(seed);
            let order = xag.live_gates();
            let dense = enumerate_cuts_for(&xag, &order, &params);
            let old = legacy::enumerate(&xag, &order, &params);
            for &n in &order {
                let new_cuts: &[DenseCut] = dense.of(n);
                let old_cuts = &old[&n];
                assert_eq!(
                    new_cuts.len(),
                    old_cuts.len(),
                    "seed {seed} node {n}: cut count diverged"
                );
                for (i, (nc, oc)) in new_cuts.iter().zip(old_cuts).enumerate() {
                    assert_eq!(
                        nc.leaves(),
                        &oc.leaves[..],
                        "seed {seed} node {n} cut {i}: leaves diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_functions_match_the_cone_oracle_across_fuzz_networks() {
    let params = CutParams::default();
    for seed in 0..100u64 {
        let xag = network(seed);
        let order = xag.live_gates();
        let dense = enumerate_cuts_for(&xag, &order, &params);
        for &n in &order {
            let tts = dense.functions_of(n);
            for (i, cut) in dense.of(n).iter().enumerate() {
                if cut.size() == 1 && cut.leaves()[0] == n {
                    // Trivial cut: stored as the 1-var projection.
                    assert_eq!(tts[i], Tt::projection(0, 1), "seed {seed} node {n}");
                    continue;
                }
                let oracle = cut_function(&xag, n, cut)
                    .expect("enumerated cuts are valid cuts of their root");
                assert_eq!(
                    tts[i], oracle,
                    "seed {seed} node {n} cut {i}: fused function diverged from cone oracle"
                );
                let old_oracle = legacy::cone_tt(&xag, n, cut.leaves())
                    .expect("legacy cone traversal agrees on validity");
                assert_eq!(tts[i], old_oracle, "seed {seed} node {n} cut {i}");
            }
        }
    }
}

/// The tightened early filter (`popcount > cut_size`, without the old
/// `+ 8` slack) can never reject a feasible merge: a signature's
/// popcount never exceeds the true leaf count (64-aliasing only
/// collapses bits), so `popcount(sig0 | sig1) > cut_size` implies the
/// true union is larger than `cut_size` too. Exercised with node ids
/// spanning several 64-blocks so aliased signatures actually occur.
#[test]
fn size_filter_never_rejects_a_feasible_merge() {
    // Small deterministic LCG, seeds the leaf-set shapes.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut saw_aliased = false;
    for _ in 0..10_000 {
        let make = |next: &mut dyn FnMut(u64) -> u64| {
            let len = 1 + next(6) as usize;
            let leaves: Vec<NodeId> = (0..len).map(|_| next(200) as NodeId).collect();
            DenseCut::new(&leaves)
        };
        let a = make(&mut next);
        let b = make(&mut next);
        let mut union: Vec<NodeId> = a.leaves().iter().chain(b.leaves()).copied().collect();
        union.sort_unstable();
        union.dedup();
        let popcount = (a.signature() | b.signature()).count_ones() as usize;
        assert!(
            popcount <= union.len(),
            "signature popcount {popcount} exceeded true union size {}",
            union.len()
        );
        saw_aliased |= popcount < union.len();
        for cut_size in 1..=6usize {
            if union.len() <= cut_size {
                // Feasible merge: the filter must let it through...
                assert!(popcount <= cut_size, "filter rejected a feasible merge");
                // ...and the merge itself must succeed with the union.
                let merged = a.merge(&b, cut_size).expect("feasible merge succeeds");
                assert_eq!(merged.leaves(), &union[..]);
            }
        }
    }
    assert!(
        saw_aliased,
        "test never produced an aliased signature — widen the id range"
    );
}

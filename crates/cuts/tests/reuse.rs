//! Reusing an earlier enumeration must never change a result: whatever
//! sets [`enumerate_cuts_reusing`] starts from, it returns exactly what a
//! fresh [`enumerate_cuts_for`] returns — same cuts, same per-node order,
//! same truth tables.

use mc_rng::Rng;
use xag_cuts::{enumerate_cuts_for, enumerate_cuts_reusing, CutParams, CutSets};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{Signal, Xag};

fn assert_identical(got: &CutSets, fresh: &CutSets, what: &str) {
    assert_eq!(got.total(), fresh.total(), "{what}: cut totals differ");
    let got_nodes: Vec<_> = got.iter().collect();
    let fresh_nodes: Vec<_> = fresh.iter().collect();
    assert_eq!(got_nodes, fresh_nodes, "{what}: cut lists differ");
    for (n, _) in fresh_nodes {
        assert_eq!(
            got.functions_of(n),
            fresh.functions_of(n),
            "{what}: functions of node {n} differ"
        );
    }
}

/// Rewires a few random live gates to random signals that do not depend on
/// them, the way a committed rewrite rewires a root's fanouts.
fn mutate(xag: &mut Xag, rng: &mut Rng) {
    for _ in 0..1 + rng.gen_range(0..3) {
        let order = xag.live_gates();
        if order.is_empty() {
            return;
        }
        let old = order[rng.gen_range(0..order.len())];
        let mut pool: Vec<Signal> = (0..xag.num_inputs()).map(|i| xag.input_signal(i)).collect();
        pool.extend(order.iter().map(|&n| Signal::new(n, false)));
        let new_sig = pool[rng.gen_range(0..pool.len())] ^ rng.gen();
        if new_sig.node() != old && !xag.is_in_tfi(old, new_sig) {
            xag.substitute(old, new_sig);
        }
    }
}

#[test]
fn reuse_after_substitutions_equals_fresh_enumeration() {
    let params = CutParams::default();
    let (mut reused, mut enumerated) = (0usize, 0usize);
    for seed in 0..100u64 {
        let mut xag = random_xag(&FuzzConfig::default(), seed);
        let before = enumerate_cuts_for(&xag, &xag.live_gates(), &params);
        mutate(&mut xag, &mut Rng::seed_from_u64(seed));
        let order = xag.live_gates();
        let fresh = enumerate_cuts_for(&xag, &order, &params);
        let got = enumerate_cuts_reusing(&xag, &order, &params, Some(&before));
        assert_identical(&got, &fresh, &format!("seed {seed}"));
        reused += got.reused();
        enumerated += order.len() - got.reused();
    }
    assert!(reused > 0, "no list was reused: the test is vacuous");
    assert!(
        enumerated > 0,
        "no list was re-enumerated: the mutations did nothing"
    );
}

/// A seeded random network; `flip` complements the second fanin of gate
/// `flip`, which leaves every node id in place unless hashing merges it.
fn twin(seed: u64, flip: Option<usize>) -> Xag {
    let mut rng = Rng::seed_from_u64(seed);
    let mut xag = Xag::new();
    let mut pool: Vec<Signal> = (0..8).map(|_| xag.input()).collect();
    for k in 0..60 {
        let a = pool[rng.gen_range(0..pool.len())] ^ rng.gen();
        let b = pool[rng.gen_range(0..pool.len())] ^ (rng.gen() ^ (flip == Some(k)));
        let g = if rng.gen() {
            xag.and(a, b)
        } else {
            xag.xor(a, b)
        };
        pool.push(g);
    }
    for &s in pool.iter().rev().take(6) {
        xag.output(s);
    }
    xag
}

#[test]
fn a_complemented_fanin_is_re_enumerated() {
    let params = CutParams::default();
    let mut reused = 0usize;
    for seed in 0..100u64 {
        let before = twin(seed, None);
        let prev = enumerate_cuts_for(&before, &before.live_gates(), &params);
        let flip = Rng::seed_from_u64(!seed).gen_range(0..60);
        let xag = twin(seed, Some(flip));
        let order = xag.live_gates();
        let got = enumerate_cuts_reusing(&xag, &order, &params, Some(&prev));
        let fresh = enumerate_cuts_for(&xag, &order, &params);
        assert_identical(&got, &fresh, &format!("seed {seed}, gate {flip} flipped"));
        reused += got.reused();
    }
    assert!(reused > 0, "no list was reused: the test is vacuous");
}

#[test]
fn an_unchanged_network_reuses_every_gate() {
    let params = CutParams::default();
    let xag = random_xag(&FuzzConfig::default(), 3);
    let order = xag.live_gates();
    let first = enumerate_cuts_for(&xag, &order, &params);
    assert_eq!(first.reused(), 0);
    let again = enumerate_cuts_reusing(&xag, &order, &params, Some(&first));
    assert_eq!(again.reused(), order.len());
    assert_identical(&again, &first, "unchanged network");
}

#[test]
fn a_foreign_or_mismatched_cache_gives_the_fresh_enumeration() {
    let params = CutParams::default();
    let other_params = CutParams {
        cut_size: 4,
        cut_limit: 3,
    };
    for seed in 0..20u64 {
        let xag = random_xag(&FuzzConfig::default(), seed);
        let order = xag.live_gates();
        let fresh = enumerate_cuts_for(&xag, &order, &params);

        let unrelated = random_xag(&FuzzConfig::xor_heavy(), seed + 1000);
        let foreign = enumerate_cuts_for(&unrelated, &unrelated.live_gates(), &params);
        let got = enumerate_cuts_reusing(&xag, &order, &params, Some(&foreign));
        assert_identical(&got, &fresh, &format!("seed {seed}, foreign network"));

        let mismatched = enumerate_cuts_for(&xag, &order, &other_params);
        let got = enumerate_cuts_reusing(&xag, &order, &params, Some(&mismatched));
        assert_identical(&got, &fresh, &format!("seed {seed}, other params"));
        assert_eq!(got.reused(), 0, "sets built with other params are ignored");
    }
}

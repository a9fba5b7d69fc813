//! XOR-count reduction over the linear layers of an XAG.
//!
//! The DAC'19 paper minimizes AND gates only and explicitly leaves XOR
//! optimization to prior work ("an algorithm to minimize the number of XOR
//! [gates] … can be found in [14]"). Cut rewriting indeed inflates the XOR
//! count — every affine-operation replay adds XOR gates. This module
//! implements the natural companion pass: the XOR-only sub-networks (the
//! *linear layers* between AND gates, primary inputs, and primary outputs)
//! are collected into GF(2) matrices and re-synthesized with Paar's greedy
//! common-subexpression algorithm, extracting the most frequent operand
//! pair until none repeats.
//!
//! The pass never touches AND gates, never increases the AND count or the
//! multiplicative depth, and returns the original network when no
//! improvement is found.

use std::collections::HashMap;

use xag_network::{NodeId, NodeKind, Signal, Xag};

/// Upper bounds on the matrix blocks handed to the greedy extractor;
/// larger linear clusters are processed in slices.
const MAX_COLS: usize = 192;
const MAX_ROWS: usize = 512;

/// Linear decomposition of an XOR cone: XOR of `sources` (node ids of
/// non-XOR drivers) plus a constant `parity`.
#[derive(Debug, Clone, Default)]
struct LinearForm {
    /// Sorted node ids.
    sources: Vec<NodeId>,
    parity: bool,
}

fn symmetric_difference(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Rebuilds `xag` with Paar-reduced linear layers. Returns the original
/// network (cleaned up) if the rebuild does not reduce the XOR count.
pub fn reduce_xors(xag: &Xag) -> Xag {
    let order = xag.live_gates();

    // 1. Linear decomposition of every XOR node; XOR cones wider than
    //    MAX_COLS are treated as opaque sources for their consumers.
    let mut forms: HashMap<NodeId, LinearForm> = HashMap::new();
    for &n in &order {
        if xag.kind(n) != NodeKind::Xor {
            continue;
        }
        let (f0, f1) = xag.fanins(n);
        let part = |s: Signal, forms: &HashMap<NodeId, LinearForm>| -> LinearForm {
            match forms.get(&s.node()) {
                Some(f) => LinearForm {
                    sources: f.sources.clone(),
                    parity: f.parity ^ s.is_complement(),
                },
                None => LinearForm {
                    sources: vec![s.node()],
                    parity: s.is_complement(),
                },
            }
        };
        let a = part(f0, &forms);
        let b = part(f1, &forms);
        let sources = symmetric_difference(&a.sources, &b.sources);
        if sources.len() <= MAX_COLS {
            forms.insert(
                n,
                LinearForm {
                    sources,
                    parity: a.parity ^ b.parity,
                },
            );
        }
    }

    // 2. Targets: decomposed XOR nodes consumed by an AND gate, an opaque
    //    XOR gate, or a primary output. Every other decomposed XOR is
    //    interior to the targets' forms and is not rebuilt.
    let mut is_target: HashMap<NodeId, bool> = HashMap::new();
    for &n in &order {
        let opaque_xor = xag.kind(n) == NodeKind::Xor && !forms.contains_key(&n);
        if xag.kind(n) == NodeKind::And || opaque_xor {
            let (f0, f1) = xag.fanins(n);
            for f in [f0, f1] {
                if forms.contains_key(&f.node()) {
                    is_target.insert(f.node(), true);
                }
            }
        }
    }
    for i in 0..xag.num_outputs() {
        let s = xag.output_signal(i);
        if forms.contains_key(&s.node()) {
            is_target.insert(s.node(), true);
        }
    }

    // 3. Rebuild: copy AND gates and opaque XOR gates 1:1; synthesize
    //    targets per linear block.
    let mut out = Xag::new();
    let mut map: HashMap<NodeId, Signal> = HashMap::new();
    map.insert(0, Signal::CONST0);
    for i in 0..xag.num_inputs() {
        let s = out.input();
        map.insert(xag.input_signal(i).node(), s);
    }

    // Collect targets in topological order and process them in blocks.
    let targets: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|n| is_target.contains_key(n))
        .collect();
    let mut rebuilt: HashMap<NodeId, Signal> = HashMap::new();

    let mut pending: Vec<NodeId> = Vec::new();
    let flush = |out: &mut Xag,
                 map: &HashMap<NodeId, Signal>,
                 rebuilt: &mut HashMap<NodeId, Signal>,
                 pending: &mut Vec<NodeId>| {
        if pending.is_empty() {
            return;
        }
        let block: Vec<NodeId> = std::mem::take(pending);
        let block_forms: Vec<&LinearForm> = block.iter().map(|n| &forms[n]).collect();
        let signals = paar_block(out, map, &block_forms);
        for (n, s) in block.iter().zip(signals) {
            rebuilt.insert(*n, s);
        }
    };

    let mut target_idx = 0usize;
    for &n in &order {
        // Flush any targets whose sources are all mapped before a consumer
        // needs them: process targets in topo order just before `n` if `n`
        // consumes them.
        match xag.kind(n) {
            NodeKind::And => {
                let (f0, f1) = xag.fanins(n);
                // Ensure pending targets this AND consumes are flushed.
                if [f0, f1].iter().any(|f| pending.contains(&f.node())) {
                    flush(&mut out, &map, &mut rebuilt, &mut pending);
                }
                let a = resolve(f0, &map, &rebuilt);
                let b = resolve(f1, &map, &rebuilt);
                let s = out.and(a, b);
                map.insert(n, s);
            }
            NodeKind::Xor => {
                if is_target.contains_key(&n) {
                    pending.push(n);
                    target_idx += 1;
                    if pending.len() >= MAX_ROWS {
                        flush(&mut out, &map, &mut rebuilt, &mut pending);
                    }
                } else if !forms.contains_key(&n) {
                    // Opaque wide XOR: copy structurally.
                    let (f0, f1) = xag.fanins(n);
                    if [f0, f1].iter().any(|f| pending.contains(&f.node())) {
                        flush(&mut out, &map, &mut rebuilt, &mut pending);
                    }
                    let a = resolve(f0, &map, &rebuilt);
                    let b = resolve(f1, &map, &rebuilt);
                    let s = out.xor(a, b);
                    map.insert(n, s);
                }
                // Interior decomposed XOR nodes are skipped: targets
                // re-express them.
            }
            _ => {}
        }
    }
    let _ = target_idx;
    flush(&mut out, &map, &mut rebuilt, &mut pending);

    for i in 0..xag.num_outputs() {
        let s = resolve(xag.output_signal(i), &map, &rebuilt);
        out.output(s);
    }
    let _ = targets;

    let out = out.cleanup();
    let orig = xag.cleanup();
    if out.num_xors() < orig.num_xors() && out.num_ands() <= orig.num_ands() {
        out
    } else {
        orig
    }
}

/// The rebuilt signal for original fanin `f`. Every node a gate or output
/// reads is either copied (`map`) or a target (`rebuilt`, flushed before
/// its first reader), never an interior XOR.
fn resolve(f: Signal, map: &HashMap<NodeId, Signal>, rebuilt: &HashMap<NodeId, Signal>) -> Signal {
    let base = rebuilt
        .get(&f.node())
        .or_else(|| map.get(&f.node()))
        .copied()
        .expect("fanin mapped in topological order");
    base ^ f.is_complement()
}

/// Synthesizes a block of linear forms with Paar's greedy pair extraction.
/// Returns one signal per form, in order.
fn paar_block(out: &mut Xag, map: &HashMap<NodeId, Signal>, block: &[&LinearForm]) -> Vec<Signal> {
    // Column universe.
    let mut col_of: HashMap<NodeId, usize> = HashMap::new();
    let mut cols: Vec<Signal> = Vec::new();
    for form in block {
        for src in &form.sources {
            if !col_of.contains_key(src) {
                col_of.insert(*src, cols.len());
                cols.push(*map.get(src).expect("source mapped"));
            }
        }
    }
    // Row bitsets.
    let words = |n: usize| n.div_ceil(64);
    let mut rows: Vec<Vec<u64>> = block
        .iter()
        .map(|form| {
            let mut bits = vec![0u64; words(cols.len() + 64)];
            for src in &form.sources {
                let c = col_of[src];
                bits[c / 64] |= 1 << (c % 64);
            }
            bits
        })
        .collect();

    // Greedy extraction: the most frequent co-occurring column pair.
    loop {
        let ncols = cols.len();
        let mut best: Option<(usize, usize, usize)> = None; // (count, i, j)
                                                            // Count pairs via per-row set-bit scans (rows are sparse).
        let mut pair_counts: HashMap<(usize, usize), usize> = HashMap::new();
        for row in &rows {
            let set: Vec<usize> = (0..ncols)
                .filter(|&c| row[c / 64] >> (c % 64) & 1 == 1)
                .collect();
            if set.len() < 2 {
                continue;
            }
            for (ai, &a) in set.iter().enumerate() {
                for &b in &set[ai + 1..] {
                    let e = pair_counts.entry((a, b)).or_insert(0);
                    *e += 1;
                    if best.map(|(c, _, _)| *e > c).unwrap_or(*e >= 2) {
                        best = Some((*e, a, b));
                    }
                }
            }
        }
        let Some((_, i, j)) = best else { break };
        // New column = cols[i] ⊕ cols[j].
        let s = out.xor(cols[i], cols[j]);
        let c = cols.len();
        cols.push(s);
        for row in &mut rows {
            if row.len() <= c / 64 {
                row.resize(c / 64 + 1, 0);
            }
            let has_i = row[i / 64] >> (i % 64) & 1 == 1;
            let has_j = row[j / 64] >> (j % 64) & 1 == 1;
            if has_i && has_j {
                row[i / 64] &= !(1 << (i % 64));
                row[j / 64] &= !(1 << (j % 64));
                row[c / 64] |= 1 << (c % 64);
            }
        }
        if cols.len() > 4 * MAX_COLS {
            break; // safety valve
        }
    }

    // Emit chains for each row.
    block
        .iter()
        .zip(&rows)
        .map(|(form, row)| {
            let mut acc = Signal::CONST0;
            for (c, col) in cols.iter().enumerate() {
                if c / 64 < row.len() && row[c / 64] >> (c % 64) & 1 == 1 {
                    acc = out.xor(acc, *col);
                }
            }
            acc ^ form.parity
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::equiv_exhaustive;

    #[test]
    fn shares_common_subexpressions() {
        // y0 = a⊕b⊕c, y1 = a⊕b⊕d, y2 = a⊕b — naive: 5 XORs, shared: 3.
        let mut x = Xag::new();
        let (a, b, c, d) = (x.input(), x.input(), x.input(), x.input());
        let t0 = x.xor(a, b);
        let y0 = x.xor(t0, c);
        // Build y1 without sharing (different association).
        let t1 = x.xor(a, d);
        let y1 = x.xor(t1, b);
        let t2 = x.xor(c, d);
        let y2 = x.xor(t2, c); // = d ⊕ … folds: c⊕d⊕c = d — keep nontrivial:
        let y2 = x.xor(y2, a); // a ⊕ d
        x.output(y0);
        x.output(y1);
        x.output(!y2);
        let before = x.num_xors();
        let reduced = reduce_xors(&x);
        assert!(reduced.num_xors() <= before);
        assert!(equiv_exhaustive(&x, &reduced));
        let _ = (y0, y1);
    }

    #[test]
    fn preserves_ands_and_function() {
        let mut x = Xag::new();
        let ins: Vec<Signal> = (0..6).map(|_| x.input()).collect();
        // Linear layer into two ANDs into a linear layer.
        let l1 = x.xor(ins[0], ins[1]);
        let l2 = x.xor(l1, ins[2]);
        let l3 = x.xor(ins[1], ins[3]);
        let l4 = x.xor(l3, ins[0]);
        let g1 = x.and(l2, l4);
        let l5 = x.xor(ins[4], ins[5]);
        let g2 = x.and(g1, l5);
        let o1 = x.xor(g2, l2);
        let o2 = x.xor(g2, l4);
        x.output(o1);
        x.output(o2);
        let ands = x.num_ands();
        let depth = x.and_depth();
        let reduced = reduce_xors(&x);
        assert_eq!(reduced.num_ands(), ands);
        assert!(reduced.and_depth() <= depth);
        assert!(equiv_exhaustive(&x, &reduced));
    }

    #[test]
    fn no_regression_on_already_minimal() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let s = x.xor(a, b);
        x.output(s);
        let reduced = reduce_xors(&x);
        assert_eq!(reduced.num_xors(), 1);
        assert!(equiv_exhaustive(&x, &reduced));
    }
}

//! Output checks, run outside every timed span.

use xag_network::{equiv, Xag};

/// Random-simulation rounds (64 vectors each) for networks too wide for
/// an exhaustive proof; up to 16 inputs `equiv` is exhaustive.
const SIM_ROUNDS: usize = 256;

/// True iff `optimized` has `reference`'s interface and computes the same
/// function: proven exhaustively up to 16 inputs, sampled with seeded
/// random simulation above.
pub fn equivalent(reference: &Xag, optimized: &Xag, seed: u64) -> bool {
    reference.num_inputs() == optimized.num_inputs()
        && reference.num_outputs() == optimized.num_outputs()
        && equiv(reference, &optimized.cleanup(), seed, SIM_ROUNDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_a_changed_function_and_a_changed_interface() {
        let mut a = Xag::new();
        let (x, y) = (a.input(), a.input());
        let g = a.and(x, y);
        a.output(g);
        let mut b = Xag::new();
        let (x, y) = (b.input(), b.input());
        let g = b.xor(x, y);
        b.output(g);
        assert!(equivalent(&a, &a, 1));
        assert!(!equivalent(&a, &b, 1));
        let mut c = a.clone();
        c.output(g);
        assert!(!equivalent(&a, &c, 1));
    }
}

//! Truth-table kernel for multiplicative-complexity-oriented logic synthesis.
//!
//! This crate provides the Boolean-function machinery underlying the DAC'19
//! XAG rewriting flow:
//!
//! * [`Tt`] — a truth table of a function with up to six variables, stored in
//!   a single `u64` (bit `m` holds `f(m)` where variable `i` of minterm `m`
//!   is `(m >> i) & 1`);
//! * [`DynTt`] — a dynamically sized truth table for wider functions
//!   (used when synthesizing table-defined logic such as the AES S-box);
//! * algebraic normal forms ([`Tt::anf`], [`Tt::degree`]),
//!   Rademacher–Walsh spectra ([`Tt::walsh_spectrum`]), and
//! * the five affine operations of the paper's Definition 2.1
//!   ([`AffineOp`]), under which multiplicative complexity is invariant.
//!
//! # Examples
//!
//! ```
//! use xag_tt::Tt;
//!
//! // Majority of three variables: 0xe8 as in the paper's Example 3.1.
//! let maj = Tt::from_bits(0xe8, 3);
//! assert_eq!(maj.degree(), 2);
//! assert!(!maj.is_affine());
//! ```

mod affine_op;
mod dyn_tt;
pub mod hash;
mod static_tt;

pub use affine_op::AffineOp;
pub use dyn_tt::DynTt;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, SharedMap};
pub use static_tt::{Tt, MAX_VARS};

/// Error returned when constructing a [`Tt`] with more than [`MAX_VARS`]
/// variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarCountError {
    /// The offending variable count.
    pub vars: usize,
}

impl core::fmt::Display for VarCountError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "truth table supports at most {MAX_VARS} variables, got {}",
            self.vars
        )
    }
}

impl std::error::Error for VarCountError {}

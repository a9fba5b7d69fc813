//! FlowSpec — a small textual DSL and typed AST for optimization flows.
//!
//! The service tiers used to expose exactly three hardcoded flows
//! through a closed enum. A [`FlowSpec`] replaces that with a
//! *description* of a flow that can be parsed from a string, validated,
//! normalized to canonical bytes (the cache-key contribution), and
//! executed through the existing [`Pipeline`] machinery — so arbitrary
//! client-defined flows travel over the wire, ABC-script style.
//!
//! # Grammar
//!
//! ```text
//! spec   := seq
//! seq    := item ( ';' item )* ( ';' )?
//! item   := unit repeat?
//! unit   := atom | group | par | alias
//! atom   := 'mc'   ( '(' 'cut' '=' INT ')' )?      # MC-objective cut rewriting
//!         | 'size' ( '(' 'cut' '=' INT ')' )?      # unit-cost cut rewriting
//!         | 'xor'                                  # Paar linear-layer reduction
//!         | 'cleanup'                              # arena compaction
//! group  := '{' seq '}'
//! par    := 'par' '(' 'threads' '=' INT ')' '{' seq '}'
//! alias  := 'paper' | 'paper_flow' | 'compress' | 'from_params'
//! repeat := '*' INT?                               # '*k' bounded, bare '*' until convergence
//! ```
//!
//! Whitespace is insignificant. The default cut size is 6 (the paper's
//! setting), so `mc` ≡ `mc(cut=6)`. The canonical aliases expand to
//! specs (see [`FlowSpec::aliases`]); because an alias already carries
//! its own until-convergence repetition, `paper*3` is rejected — wrap it
//! in braces to repeat it.
//!
//! # Semantics
//!
//! * A bare item runs once; `*k` runs it `k` times.
//! * `unit*` repeats the unit's passes **until convergence** with the
//!   exact schedule of [`Pipeline::run`]: the current pass repeats while
//!   it improves the metric, then the flow advances cyclically, and the
//!   group has converged once every pass is stale in sequence. The
//!   metric is [`Objective::Size`] when the unit contains a `size` atom
//!   and [`Objective::MultiplicativeComplexity`] otherwise. Nesting a
//!   `*` inside another `*` group is rejected.
//! * `par(threads=N){…}` runs its body with `N` worker threads through
//!   the sharded engine. Thread counts **never change the result**
//!   (bit-identical, see [`crate::shard`]) — which is why
//!   [`FlowSpec::normalize`] erases `par` wrappers entirely.
//! * The whole run is capped at `max_rounds` total pass executions,
//!   shared across the spec; a spec cut off by the cap reports
//!   `converged = false`.
//!
//! # Normalization
//!
//! [`FlowSpec::normalize`] maps every spec to a canonical representative
//! of its semantic class: aliases are already expanded by the parser,
//! knobs are explicit, `*1` becomes a plain item, unrepeated groups are
//! spliced into their parent, single-item groups are hoisted through
//! their repeat, and `par` wrappers are dropped. [`FlowSpec::normalized`]
//! renders that representative without whitespace — the **canonical
//! bytes** that [`crate::canon::job_key`] folds into the semantic-cache
//! key, so `paper`, its expansion, and any whitespace or `par` variant
//! of it share one warm cache entry, while `mc(cut=4)` and `mc(cut=6)`
//! provably miss each other.
//!
//! # Resource guard
//!
//! [`FlowSpec::parse`] rejects hostile specs *before* anything is
//! queued: inputs longer than [`MAX_SPEC_LEN`], nesting beyond
//! [`MAX_SPEC_DEPTH`], repetition counts above [`MAX_SPEC_REPEAT`], and
//! specs whose worst-case pass count ([`FlowSpec::worst_case_passes`])
//! exceeds [`MAX_SPEC_PASSES`]. A `cleanup*9999999` therefore comes back
//! as a structured [`FlowError`] — a protocol error at the service edge,
//! never a pinned worker.
//!
//! # Examples
//!
//! ```
//! use xag_mc::{FlowSpec, OptContext};
//! use xag_network::Xag;
//!
//! let spec = FlowSpec::parse("mc(cut=6);xor;cleanup*").unwrap();
//! assert_eq!(spec.normalized(), "mc(cut=6);xor;cleanup*");
//!
//! // `paper` is an alias for the until-convergence paper flow.
//! let paper = FlowSpec::parse("paper").unwrap();
//! assert_eq!(paper.normalized(), "{mc(cut=4);mc(cut=6)}*");
//!
//! let mut xag = Xag::new();
//! let (a, b) = (xag.input(), xag.input());
//! let g = xag.and(a, b);
//! xag.output(g);
//! let mut ctx = OptContext::new();
//! let stats = spec.run(&mut xag, &mut ctx, 1, 100);
//! assert!(stats.num_rounds() > 0);
//! ```

use xag_network::Xag;

use crate::context::OptContext;
use crate::pass::{Cleanup, McRewrite, Pass, PassStats, SizeRewrite, XorReduce};
use crate::pipeline::{run_pass, Pipeline};
use crate::stats::PipelineStats;
use crate::Objective;

/// Longest accepted spec text, in bytes — enforced on the raw input
/// (before tokenizing) *and* on the canonical knob-explicit rendering
/// ([`FlowSpec::validate`]), so any accepted spec still parses after
/// `to_string()` expansion puts it on the wire (`mc` → `mc(cut=6)`,
/// `paper` → its expansion).
pub const MAX_SPEC_LEN: usize = 4096;

/// Deepest accepted `{}`/`par{}` nesting.
pub const MAX_SPEC_DEPTH: usize = 8;

/// Largest accepted bounded repetition count (`*k`).
pub const MAX_SPEC_REPEAT: usize = 1000;

/// Largest accepted worst-case pass count of a whole spec (bounded
/// repetitions multiplied out; until-convergence groups count their body
/// once, because the runtime round cap bounds them).
pub const MAX_SPEC_PASSES: u64 = 10_000;

/// Largest accepted `par(threads=…)` worker count (aligned with the
/// serve tier's per-job thread clamp).
pub const MAX_PAR_THREADS: usize = 8;

/// Smallest accepted `cut=` knob (a 1-cut is trivial).
pub const MIN_SPEC_CUT: usize = 2;

/// Largest accepted `cut=` knob (cut functions must fit one 64-bit truth
/// table — the same bound `xag_cuts` enforces).
pub const MAX_SPEC_CUT: usize = 6;

/// Why a spec was rejected. Rendered messages are sent to remote clients
/// verbatim as protocol errors, so they name the violated limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The spec contains no items.
    Empty,
    /// The spec text exceeds [`MAX_SPEC_LEN`].
    TooLong {
        /// Length of the rejected input.
        len: usize,
    },
    /// Brace nesting exceeds [`MAX_SPEC_DEPTH`].
    TooDeep,
    /// A `*k` count exceeds [`MAX_SPEC_REPEAT`].
    RepeatTooLarge {
        /// The rejected count.
        count: u64,
    },
    /// The worst-case pass count exceeds [`MAX_SPEC_PASSES`].
    BudgetExceeded {
        /// The computed worst-case pass count.
        passes: u64,
    },
    /// An until-convergence `*` nested inside another `*` group.
    NestedConvergence,
    /// Any other malformed input, with a byte position.
    Syntax {
        /// Byte offset of the offending token.
        pos: usize,
        /// Human-readable description.
        message: String,
    },
}

impl core::fmt::Display for FlowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlowError::Empty => write!(f, "flow spec is empty"),
            FlowError::TooLong { len } => {
                write!(f, "flow spec is {len} bytes (limit {MAX_SPEC_LEN})")
            }
            FlowError::TooDeep => {
                write!(f, "flow spec nests deeper than {MAX_SPEC_DEPTH} levels")
            }
            FlowError::RepeatTooLarge { count } => {
                write!(f, "repetition *{count} exceeds the limit {MAX_SPEC_REPEAT}")
            }
            FlowError::BudgetExceeded { passes } => write!(
                f,
                "flow spec requests {passes} worst-case passes (budget {MAX_SPEC_PASSES})"
            ),
            FlowError::NestedConvergence => write!(
                f,
                "until-convergence `*` cannot nest inside another `*` group"
            ),
            FlowError::Syntax { pos, message } => {
                write!(f, "flow spec syntax error at byte {pos}: {message}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// How often a [`FlowItem`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Repeat {
    /// Exactly once (no suffix).
    #[default]
    Once,
    /// A fixed number of times (`*k`).
    Times(usize),
    /// Until convergence (bare `*`), under the [`Pipeline::run`]
    /// schedule.
    Converge,
}

/// One unit of a flow: a pass atom or a bracketed sub-flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowUnit {
    /// `mc(cut=N)` — cut rewriting minimizing multiplicative complexity
    /// ([`McRewrite`]).
    Mc {
        /// Cut size, within [`MIN_SPEC_CUT`]..=[`MAX_SPEC_CUT`].
        cut: usize,
    },
    /// `size(cut=N)` — unit-cost cut rewriting ([`SizeRewrite`]).
    Size {
        /// Cut size, within [`MIN_SPEC_CUT`]..=[`MAX_SPEC_CUT`].
        cut: usize,
    },
    /// `xor` — Paar linear-layer reduction ([`XorReduce`]).
    Xor,
    /// `cleanup` — arena compaction ([`Cleanup`]).
    Cleanup,
    /// `{…}` — a sequenced sub-flow.
    Group(Vec<FlowItem>),
    /// `par(threads=N){…}` — a sub-flow run with its own worker count
    /// (scheduling only; results are thread-count independent).
    Par {
        /// Worker threads, within 1..=[`MAX_PAR_THREADS`].
        threads: usize,
        /// The wrapped sub-flow.
        body: Vec<FlowItem>,
    },
}

/// One step of a flow: a unit plus its repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowItem {
    /// What runs.
    pub unit: FlowUnit,
    /// How often it runs.
    pub repeat: Repeat,
}

/// A parsed, validated optimization flow. See the
/// [module documentation](self) for grammar and semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// The top-level sequence, in execution order. Non-empty.
    pub items: Vec<FlowItem>,
}

impl Default for FlowSpec {
    /// The `paper` flow — the DAC'19 until-convergence schedule.
    fn default() -> Self {
        alias_spec("paper").expect("the paper alias always exists")
    }
}

impl core::str::FromStr for FlowSpec {
    type Err = FlowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FlowSpec::parse(s)
    }
}

/// The canonical named flows, as `(alias, expansion)` pairs in wire-name
/// order. `paper_flow` is accepted as a historical spelling of `paper`
/// but not listed.
pub const ALIASES: [(&str, &str); 3] = [
    ("paper", "{mc(cut=4);mc(cut=6)}*"),
    ("compress", "{size(cut=4);size(cut=6);xor}*"),
    ("from_params", "{mc(cut=4)}*"),
];

/// Expands an alias to its one-item spec, parsed from [`ALIASES`] — the
/// only definition of each named flow.
fn alias_item(name: &str) -> Option<FlowItem> {
    let name = if name == "paper_flow" { "paper" } else { name };
    let (_, expansion) = ALIASES.iter().find(|(alias, _)| *alias == name)?;
    let mut spec = FlowSpec::parse(expansion).expect("alias expansions parse");
    debug_assert_eq!(spec.items.len(), 1, "an alias expands to one item");
    spec.items.pop()
}

fn alias_spec(name: &str) -> Option<FlowSpec> {
    alias_item(name).map(|item| FlowSpec { items: vec![item] })
}

/// The library [`Pipeline`] each alias names, for tests that check the
/// two stay the same flow.
#[cfg(test)]
pub(crate) fn library_pipeline(alias: &str) -> Pipeline {
    match alias {
        "paper" => Pipeline::paper_flow(),
        "compress" => Pipeline::compress(),
        "from_params" => Pipeline::from_params(&crate::RewriteParams {
            cut_params: xag_cuts::CutParams {
                cut_size: 4,
                ..Default::default()
            },
            ..Default::default()
        }),
        _ => panic!("no library pipeline for {alias}"),
    }
}

impl FlowSpec {
    /// Parses and validates a spec (aliases accepted). See the
    /// [module documentation](self) for the grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] describing the first violation — a syntax
    /// problem or a resource-guard limit.
    pub fn parse(text: &str) -> Result<FlowSpec, FlowError> {
        if text.len() > MAX_SPEC_LEN {
            return Err(FlowError::TooLong { len: text.len() });
        }
        let toks = tokenize(text)?;
        if toks.is_empty() {
            return Err(FlowError::Empty);
        }
        let mut parser = Parser {
            toks,
            i: 0,
            end: text.len(),
        };
        let items = parser.parse_seq(0)?;
        if let Some((_, pos)) = parser.current() {
            return Err(FlowError::Syntax {
                pos,
                message: "unexpected trailing input".to_string(),
            });
        }
        if items.is_empty() {
            return Err(FlowError::Empty);
        }
        let spec = FlowSpec { items };
        spec.validate()?;
        Ok(spec)
    }

    /// Looks a canonical flow up by its alias ([`ALIASES`], plus the
    /// historical `paper_flow` spelling).
    pub fn named(alias: &str) -> Option<FlowSpec> {
        alias_spec(alias)
    }

    /// The canonical named flows: `(alias, expansion text)` pairs.
    pub fn aliases() -> &'static [(&'static str, &'static str)] {
        &ALIASES
    }

    /// Worst-case total pass executions: bounded repetitions multiplied
    /// out; until-convergence groups count their body once (the runtime
    /// round cap bounds their actual repetition). Saturating.
    pub fn worst_case_passes(&self) -> u64 {
        cost_items(&self.items)
    }

    /// Re-checks the resource-guard limits and structural rules
    /// ([`FlowSpec::parse`] already ran this; hand-built ASTs should call
    /// it before hitting the wire).
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn validate(&self) -> Result<(), FlowError> {
        if self.items.is_empty() {
            return Err(FlowError::Empty);
        }
        let passes = self.worst_case_passes();
        if passes > MAX_SPEC_PASSES {
            return Err(FlowError::BudgetExceeded { passes });
        }
        validate_items(&self.items, false)?;
        // The wire carries the knob-explicit rendering, which can be
        // longer than the shorthand a client typed — bound that form
        // too, so an accepted spec always re-parses at the service edge.
        let rendered = self.to_string().len();
        if rendered > MAX_SPEC_LEN {
            return Err(FlowError::TooLong { len: rendered });
        }
        Ok(())
    }

    /// The canonical representative of this spec's semantic class:
    /// `*1` → plain, unrepeated groups spliced, single-item groups
    /// hoisted, `par` wrappers erased (thread counts cannot change
    /// results). Idempotent.
    pub fn normalize(&self) -> FlowSpec {
        FlowSpec {
            items: normalize_items(&self.items),
        }
    }

    /// The canonical bytes of this spec — [`FlowSpec::normalize`]
    /// rendered without whitespace. This string is what
    /// [`crate::canon::job_key`] folds into the semantic-cache key and
    /// what per-flow statistics rows are keyed by.
    pub fn normalized(&self) -> String {
        self.normalize().to_string()
    }

    /// Executes the spec on `xag` with up to `threads` workers (`par`
    /// blocks override locally) and at most `max_rounds` total pass
    /// executions.
    ///
    /// The optimized network depends only on `(xag, self.normalized(),
    /// max_rounds)` — never on any thread count — because every rewriting
    /// round runs through the sharded engine, which is bit-identical
    /// across worker counts.
    pub fn run(
        &self,
        xag: &mut Xag,
        ctx: &mut OptContext,
        threads: usize,
        max_rounds: usize,
    ) -> PipelineStats {
        let budget = max_rounds.max(1);
        let mut executed: Vec<PassStats> = Vec::new();
        let mut converged = true;
        run_items(
            &self.items,
            xag,
            ctx,
            threads.max(1),
            budget,
            &mut executed,
            &mut converged,
        );
        PipelineStats {
            passes: executed,
            converged,
        }
    }
}

impl core::fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write_items(f, &self.items)
    }
}

fn write_items(f: &mut core::fmt::Formatter<'_>, items: &[FlowItem]) -> core::fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(";")?;
        }
        match &item.unit {
            FlowUnit::Mc { cut } => write!(f, "mc(cut={cut})")?,
            FlowUnit::Size { cut } => write!(f, "size(cut={cut})")?,
            FlowUnit::Xor => f.write_str("xor")?,
            FlowUnit::Cleanup => f.write_str("cleanup")?,
            FlowUnit::Group(body) => {
                f.write_str("{")?;
                write_items(f, body)?;
                f.write_str("}")?;
            }
            FlowUnit::Par { threads, body } => {
                write!(f, "par(threads={threads}){{")?;
                write_items(f, body)?;
                f.write_str("}")?;
            }
        }
        match item.repeat {
            Repeat::Once => {}
            Repeat::Times(k) => write!(f, "*{k}")?,
            Repeat::Converge => f.write_str("*")?,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Validation helpers

fn cost_items(items: &[FlowItem]) -> u64 {
    items
        .iter()
        .map(|item| {
            let unit = match &item.unit {
                FlowUnit::Group(body) | FlowUnit::Par { body, .. } => cost_items(body),
                _ => 1,
            };
            let times = match item.repeat {
                Repeat::Once | Repeat::Converge => 1,
                Repeat::Times(k) => k as u64,
            };
            unit.saturating_mul(times)
        })
        .fold(0u64, u64::saturating_add)
}

fn validate_items(items: &[FlowItem], in_converge: bool) -> Result<(), FlowError> {
    for item in items {
        let converging = matches!(item.repeat, Repeat::Converge);
        if converging && in_converge {
            return Err(FlowError::NestedConvergence);
        }
        match &item.unit {
            FlowUnit::Group(body) | FlowUnit::Par { body, .. } => {
                // The parser cannot produce empty bodies, but hand-built
                // ASTs can — and they would render as `{}`, which the
                // service edge refuses.
                if body.is_empty() {
                    return Err(FlowError::Empty);
                }
                validate_items(body, in_converge || converging)?;
            }
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Normalization

fn normalize_items(items: &[FlowItem]) -> Vec<FlowItem> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        // `par` is a scheduling hint with no semantic content — erase it.
        let unit = match &item.unit {
            FlowUnit::Group(body) | FlowUnit::Par { body, .. } => {
                FlowUnit::Group(normalize_items(body))
            }
            atom => atom.clone(),
        };
        let repeat = match item.repeat {
            Repeat::Times(1) => Repeat::Once,
            other => other,
        };
        match (unit, repeat) {
            // An unrepeated group is pure sequencing — splice it.
            (FlowUnit::Group(body), Repeat::Once) => out.extend(body),
            // A repeated single-pass group is the repeated pass.
            (FlowUnit::Group(body), rep) if body.len() == 1 && body[0].repeat == Repeat::Once => {
                let inner = body.into_iter().next().expect("len checked");
                out.push(FlowItem {
                    unit: inner.unit,
                    repeat: rep,
                });
            }
            (unit, repeat) => out.push(FlowItem { unit, repeat }),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lowering and execution

fn atom_pass(unit: &FlowUnit) -> Option<Box<dyn Pass>> {
    match unit {
        FlowUnit::Mc { cut } => Some(Box::new(McRewrite::with_cut_size(*cut))),
        FlowUnit::Size { cut } => Some(Box::new(SizeRewrite::with_cut_size(*cut))),
        FlowUnit::Xor => Some(Box::new(XorReduce::new())),
        FlowUnit::Cleanup => Some(Box::new(Cleanup::new())),
        FlowUnit::Group(_) | FlowUnit::Par { .. } => None,
    }
}

/// Appends the passes of `items` to `flow`, expanding bounded
/// repetitions. `pin` carries the innermost enclosing `par{}` thread
/// count, which travels with each pass into the pipeline — so a `par`
/// block nested anywhere, including inside a convergence group, keeps its
/// worker-count override.
fn lower_items(items: &[FlowItem], pin: Option<usize>, mut flow: Pipeline) -> Pipeline {
    for item in items {
        let times = match item.repeat {
            Repeat::Once | Repeat::Converge => 1,
            Repeat::Times(k) => k,
        };
        for _ in 0..times {
            flow = match &item.unit {
                FlowUnit::Group(body) => lower_items(body, pin, flow),
                FlowUnit::Par { threads, body } => lower_items(body, Some(*threads), flow),
                atom => flow.add_with_threads(atom_pass(atom).expect("atoms lower to passes"), pin),
            };
        }
    }
    flow
}

/// The metric a convergence group measures: [`Objective::Size`] iff the
/// unit contains a `size` atom.
fn unit_metric(unit: &FlowUnit) -> Objective {
    fn has_size(unit: &FlowUnit) -> bool {
        match unit {
            FlowUnit::Size { .. } => true,
            FlowUnit::Group(body) | FlowUnit::Par { body, .. } => {
                body.iter().any(|item| has_size(&item.unit))
            }
            _ => false,
        }
    }
    if has_size(unit) {
        Objective::Size
    } else {
        Objective::MultiplicativeComplexity
    }
}

fn run_items(
    items: &[FlowItem],
    xag: &mut Xag,
    ctx: &mut OptContext,
    threads: usize,
    budget: usize,
    executed: &mut Vec<PassStats>,
    converged: &mut bool,
) {
    for item in items {
        match item.repeat {
            Repeat::Once => run_unit(&item.unit, xag, ctx, threads, budget, executed, converged),
            Repeat::Times(k) => {
                for _ in 0..k {
                    run_unit(&item.unit, xag, ctx, threads, budget, executed, converged);
                }
            }
            Repeat::Converge => {
                if executed.len() >= budget {
                    *converged = false;
                    continue;
                }
                // The one convergence loop: Pipeline's schedule, so an
                // alias runs exactly like the library pipeline it names.
                let flow = Pipeline::new()
                    .metric(unit_metric(&item.unit))
                    .max_rounds(budget - executed.len());
                let stats = lower_items(core::slice::from_ref(item), None, flow)
                    .run_parallel(xag, ctx, threads);
                *converged &= stats.converged;
                executed.extend(stats.passes);
            }
        }
    }
}

fn run_unit(
    unit: &FlowUnit,
    xag: &mut Xag,
    ctx: &mut OptContext,
    threads: usize,
    budget: usize,
    executed: &mut Vec<PassStats>,
    converged: &mut bool,
) {
    match unit {
        FlowUnit::Group(body) => run_items(body, xag, ctx, threads, budget, executed, converged),
        FlowUnit::Par { threads: t, body } => {
            run_items(body, xag, ctx, *t, budget, executed, converged);
        }
        atom => {
            if executed.len() >= budget {
                *converged = false;
                return;
            }
            let pass = atom_pass(atom).expect("atoms lower to passes");
            executed.push(run_pass(pass.as_ref(), xag, ctx, threads));
        }
    }
}

// ---------------------------------------------------------------------
// Spec sampling

/// Samples a random, syntactically valid spec text from a seeded RNG —
/// the shared generator behind the parser fuzz-smoke (this module's
/// tests) and the sampled-spec differential suite
/// (`tests/fuzz_equiv.rs`), kept in one place so the two suites always
/// fuzz the same language. Until-convergence `*` is emitted only at the
/// top level and only when `allow_converge`, so sampled specs never
/// nest convergence groups (which [`FlowSpec::parse`] rejects).
pub fn sample_spec_text(rng: &mut mc_rng::Rng, allow_converge: bool) -> String {
    sample_items(rng, if allow_converge { 0 } else { 1 })
}

fn sample_items(rng: &mut mc_rng::Rng, depth: usize) -> String {
    let items = rng.gen_range(1..4);
    let mut parts = Vec::with_capacity(items);
    for _ in 0..items {
        let unit = match rng.gen_range(0..if depth < 2 { 6 } else { 4 }) {
            0 => format!("mc(cut={})", rng.gen_range(2..7)),
            1 => format!("size(cut={})", rng.gen_range(2..7)),
            2 => "xor".to_string(),
            3 => "cleanup".to_string(),
            4 => format!("{{{}}}", sample_items(rng, depth + 1)),
            _ => format!(
                "par(threads={}){{{}}}",
                rng.gen_range(1..5),
                sample_items(rng, depth + 1)
            ),
        };
        let repeat = match rng.gen_range(0..4) {
            0 if depth == 0 => "*".to_string(),
            1 => format!("*{}", rng.gen_range(1..4)),
            _ => String::new(),
        };
        parts.push(format!("{unit}{repeat}"));
    }
    parts.join(";")
}

// ---------------------------------------------------------------------
// Tokenizer and parser

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Semi,
    Star,
    Eq,
}

impl core::fmt::Display for Tok {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Eq => f.write_str("`=`"),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<(Tok, usize)>, FlowError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let simple = match c {
            b'(' => Some(Tok::LParen),
            b')' => Some(Tok::RParen),
            b'{' => Some(Tok::LBrace),
            b'}' => Some(Tok::RBrace),
            b';' => Some(Tok::Semi),
            b'*' => Some(Tok::Star),
            b'=' => Some(Tok::Eq),
            _ => None,
        };
        if let Some(tok) = simple {
            toks.push((tok, i));
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let n: u64 = text[start..i].parse().map_err(|_| FlowError::Syntax {
                pos: start,
                message: "number is too large".to_string(),
            })?;
            toks.push((Tok::Int(n), start));
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push((Tok::Ident(text[start..i].to_string()), start));
        } else {
            return Err(FlowError::Syntax {
                pos: i,
                message: format!("unexpected character `{}`", c as char),
            });
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    i: usize,
    end: usize,
}

/// What `parse_unit` produced: a plain unit awaiting its repeat suffix,
/// or an alias expansion that already carries one.
enum UnitParse {
    Unit(FlowUnit),
    Alias(FlowItem, String),
}

impl Parser {
    fn current(&self) -> Option<(&Tok, usize)> {
        self.toks.get(self.i).map(|(t, p)| (t, *p))
    }

    fn pos(&self) -> usize {
        self.current().map(|(_, p)| p).unwrap_or(self.end)
    }

    fn bump(&mut self) -> Option<(Tok, usize)> {
        let tok = self.toks.get(self.i).cloned();
        if tok.is_some() {
            self.i += 1;
        }
        tok
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.current().map(|(t, _)| t) == Some(tok) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, context: &str) -> Result<(), FlowError> {
        let pos = self.pos();
        match self.bump() {
            Some((t, _)) if t == tok => Ok(()),
            Some((t, p)) => Err(FlowError::Syntax {
                pos: p,
                message: format!("expected {tok} {context}, found {t}"),
            }),
            None => Err(FlowError::Syntax {
                pos,
                message: format!("expected {tok} {context}, found end of spec"),
            }),
        }
    }

    fn parse_seq(&mut self, depth: usize) -> Result<Vec<FlowItem>, FlowError> {
        let mut items = vec![self.parse_item(depth)?];
        while self.eat(&Tok::Semi) {
            // A trailing `;` before `}` or the end of the spec is allowed.
            match self.current() {
                None | Some((Tok::RBrace, _)) => break,
                _ => items.push(self.parse_item(depth)?),
            }
        }
        Ok(items)
    }

    fn parse_item(&mut self, depth: usize) -> Result<FlowItem, FlowError> {
        match self.parse_unit(depth)? {
            UnitParse::Alias(item, name) => {
                if let Some((Tok::Star, pos)) = self.current() {
                    return Err(FlowError::Syntax {
                        pos,
                        message: format!(
                            "alias `{name}` already carries its repetition; \
                             wrap it in `{{…}}` to repeat it"
                        ),
                    });
                }
                Ok(item)
            }
            UnitParse::Unit(unit) => {
                let repeat = self.parse_repeat()?;
                Ok(FlowItem { unit, repeat })
            }
        }
    }

    fn parse_repeat(&mut self) -> Result<Repeat, FlowError> {
        if !self.eat(&Tok::Star) {
            return Ok(Repeat::Once);
        }
        if let Some((Tok::Int(n), pos)) = self.current() {
            let (n, pos) = (*n, pos);
            self.i += 1;
            if n == 0 {
                return Err(FlowError::Syntax {
                    pos,
                    message: "repetition count must be at least 1".to_string(),
                });
            }
            if n > MAX_SPEC_REPEAT as u64 {
                return Err(FlowError::RepeatTooLarge { count: n });
            }
            Ok(Repeat::Times(n as usize))
        } else {
            Ok(Repeat::Converge)
        }
    }

    fn parse_unit(&mut self, depth: usize) -> Result<UnitParse, FlowError> {
        let pos = self.pos();
        match self.bump() {
            Some((Tok::LBrace, _)) => {
                if depth >= MAX_SPEC_DEPTH {
                    return Err(FlowError::TooDeep);
                }
                let body = self.parse_seq(depth + 1)?;
                self.expect(Tok::RBrace, "to close the group")?;
                Ok(UnitParse::Unit(FlowUnit::Group(body)))
            }
            Some((Tok::Ident(name), pos)) => match name.as_str() {
                "mc" | "size" => {
                    let cut = match self.parse_knob(&name, "cut")? {
                        None => MAX_SPEC_CUT,
                        Some((n, knob_pos)) => {
                            if !(MIN_SPEC_CUT as u64..=MAX_SPEC_CUT as u64).contains(&n) {
                                return Err(FlowError::Syntax {
                                    pos: knob_pos,
                                    message: format!(
                                        "`{name}` cut size must be within \
                                         {MIN_SPEC_CUT}..={MAX_SPEC_CUT} (got {n})"
                                    ),
                                });
                            }
                            n as usize
                        }
                    };
                    Ok(UnitParse::Unit(if name == "mc" {
                        FlowUnit::Mc { cut }
                    } else {
                        FlowUnit::Size { cut }
                    }))
                }
                "xor" => Ok(UnitParse::Unit(FlowUnit::Xor)),
                "cleanup" => Ok(UnitParse::Unit(FlowUnit::Cleanup)),
                "par" => {
                    let threads = match self.parse_knob("par", "threads")? {
                        None => {
                            return Err(FlowError::Syntax {
                                pos,
                                message: "`par` requires `(threads=N)`".to_string(),
                            });
                        }
                        Some((n, knob_pos)) => {
                            if !(1..=MAX_PAR_THREADS as u64).contains(&n) {
                                return Err(FlowError::Syntax {
                                    pos: knob_pos,
                                    message: format!(
                                        "`par` thread count must be within \
                                         1..={MAX_PAR_THREADS} (got {n})"
                                    ),
                                });
                            }
                            n as usize
                        }
                    };
                    if depth >= MAX_SPEC_DEPTH {
                        return Err(FlowError::TooDeep);
                    }
                    self.expect(Tok::LBrace, "to open the `par` body")?;
                    let body = self.parse_seq(depth + 1)?;
                    self.expect(Tok::RBrace, "to close the `par` body")?;
                    Ok(UnitParse::Unit(FlowUnit::Par { threads, body }))
                }
                alias => match alias_item(alias) {
                    Some(item) => Ok(UnitParse::Alias(item, alias.to_string())),
                    None => Err(FlowError::Syntax {
                        pos,
                        message: format!(
                            "unknown pass atom `{name}` (expected mc, size, xor, cleanup, \
                             par, or an alias: paper, compress, from_params)"
                        ),
                    }),
                },
            },
            Some((tok, pos)) => Err(FlowError::Syntax {
                pos,
                message: format!("expected a pass atom or `{{`, found {tok}"),
            }),
            None => Err(FlowError::Syntax {
                pos,
                message: "expected a pass atom, found end of spec".to_string(),
            }),
        }
    }

    /// Parses an optional `(key=INT)` knob list; returns the value and
    /// its position. `None` when no `(` follows.
    fn parse_knob(&mut self, atom: &str, key: &str) -> Result<Option<(u64, usize)>, FlowError> {
        if !self.eat(&Tok::LParen) {
            return Ok(None);
        }
        let pos = self.pos();
        match self.bump() {
            Some((Tok::Ident(k), _)) if k == key => {}
            found => {
                let (message, pos) = match found {
                    Some((t, p)) => (format!("expected `{key}=` in `{atom}(…)`, found {t}"), p),
                    None => (format!("expected `{key}=` in `{atom}(…)`"), pos),
                };
                return Err(FlowError::Syntax { pos, message });
            }
        }
        self.expect(Tok::Eq, &format!("after `{key}`"))?;
        let value_pos = self.pos();
        let value = match self.bump() {
            Some((Tok::Int(n), _)) => n,
            Some((t, p)) => {
                return Err(FlowError::Syntax {
                    pos: p,
                    message: format!("expected an integer value for `{key}`, found {t}"),
                });
            }
            None => {
                return Err(FlowError::Syntax {
                    pos: value_pos,
                    message: format!("expected an integer value for `{key}`"),
                });
            }
        };
        self.expect(Tok::RParen, &format!("to close `{atom}(…)`"))?;
        Ok(Some((value, value_pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::{equiv_exhaustive, write_verilog};

    fn full_adder() -> Xag {
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
    fn display_parse_round_trips() {
        for text in [
            "mc(cut=6)",
            "mc(cut=4);size(cut=5);xor;cleanup",
            "mc(cut=6)*3",
            "{mc(cut=4);mc(cut=6)}*",
            "par(threads=2){mc(cut=6);xor}",
            "par(threads=4){mc(cut=4)*2}*5;cleanup",
            "{mc(cut=6);{xor;cleanup}*2}*3",
        ] {
            let spec = FlowSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(FlowSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn whitespace_and_defaults_are_insignificant() {
        let canonical = FlowSpec::parse("mc(cut=6);xor;cleanup*").unwrap();
        for variant in [
            " mc( cut = 6 ) ; xor ; cleanup * ",
            "mc;xor;cleanup*",
            "mc ;\txor;\n cleanup*;",
        ] {
            assert_eq!(FlowSpec::parse(variant).unwrap(), canonical, "{variant:?}");
        }
    }

    #[test]
    fn aliases_expand_to_their_documented_specs() {
        for (alias, expansion) in FlowSpec::aliases() {
            let via_alias = FlowSpec::parse(alias).unwrap();
            let via_expansion = FlowSpec::parse(expansion).unwrap();
            assert_eq!(via_alias, via_expansion, "{alias}");
            assert_eq!(via_alias.normalized(), via_expansion.normalized());
        }
        assert_eq!(
            FlowSpec::parse("paper_flow").unwrap(),
            FlowSpec::parse("paper").unwrap()
        );
        assert_eq!(FlowSpec::default(), FlowSpec::parse("paper").unwrap());
    }

    #[test]
    fn normalization_erases_par_and_flattens_groups() {
        let cases = [
            ("par(threads=4){mc(cut=6)}", "mc(cut=6)"),
            ("{mc(cut=6);xor};cleanup", "mc(cut=6);xor;cleanup"),
            ("{mc(cut=6)}*", "mc(cut=6)*"),
            ("{mc}*3", "mc(cut=6)*3"),
            ("mc*1", "mc(cut=6)"),
            ("par(threads=2){xor;cleanup}*", "{xor;cleanup}*"),
            ("{{mc(cut=4)};{mc}}", "mc(cut=4);mc(cut=6)"),
            ("from_params", "mc(cut=4)*"),
        ];
        for (text, want) in cases {
            let spec = FlowSpec::parse(text).unwrap();
            assert_eq!(spec.normalized(), want, "{text}");
            // Idempotence: normalizing the normal form is the identity.
            assert_eq!(spec.normalize().normalize(), spec.normalize(), "{text}");
            assert_eq!(
                FlowSpec::parse(&spec.normalized()).unwrap().normalized(),
                want,
                "{text}"
            );
        }
    }

    #[test]
    fn distinct_knobs_have_distinct_canonical_bytes() {
        let four = FlowSpec::parse("mc(cut=4)").unwrap();
        let six = FlowSpec::parse("mc(cut=6)").unwrap();
        assert_ne!(four.normalized(), six.normalized());
        assert_ne!(
            FlowSpec::parse("mc(cut=6)*2").unwrap().normalized(),
            FlowSpec::parse("mc(cut=6)*3").unwrap().normalized()
        );
        assert_ne!(
            FlowSpec::parse("mc(cut=6)*").unwrap().normalized(),
            FlowSpec::parse("mc(cut=6)").unwrap().normalized()
        );
    }

    #[test]
    fn resource_guard_rejects_hostile_specs() {
        assert_eq!(
            FlowSpec::parse("cleanup*9999999"),
            Err(FlowError::RepeatTooLarge { count: 9_999_999 })
        );
        // Multiplied-out bounded repetition busts the pass budget.
        assert_eq!(
            FlowSpec::parse("{cleanup*1000}*1000"),
            Err(FlowError::BudgetExceeded { passes: 1_000_000 })
        );
        assert_eq!(FlowSpec::parse(""), Err(FlowError::Empty));
        let long = "cleanup;".repeat(MAX_SPEC_LEN / 8 + 1);
        assert!(matches!(
            FlowSpec::parse(&long),
            Err(FlowError::TooLong { .. })
        ));
        let deep = format!("{}cleanup{}", "{".repeat(9), "}".repeat(9));
        assert_eq!(FlowSpec::parse(&deep), Err(FlowError::TooDeep));
        assert_eq!(
            FlowSpec::parse("{mc(cut=4)*;xor}*"),
            Err(FlowError::NestedConvergence)
        );
        // Guard messages name the limit, so remote clients see why.
        let msg = FlowError::RepeatTooLarge { count: 9_999_999 }.to_string();
        assert!(msg.contains("1000"), "{msg}");
        // A shorthand input whose knob-explicit rendering exceeds the
        // limit is rejected up front — otherwise the client would accept
        // a spec the service edge later refuses.
        let shorthand = "mc;".repeat(MAX_SPEC_LEN / 6);
        assert!(
            matches!(FlowSpec::parse(&shorthand), Err(FlowError::TooLong { .. })),
            "expanded rendering must be bounded too"
        );
        // Hand-built ASTs with empty bodies fail validate(), as its doc
        // promises (the parser cannot produce them).
        let bad = FlowSpec {
            items: vec![FlowItem {
                unit: FlowUnit::Group(Vec::new()),
                repeat: Repeat::Once,
            }],
        };
        assert_eq!(bad.validate(), Err(FlowError::Empty));
    }

    #[test]
    fn syntax_errors_are_reported_with_positions() {
        for (text, needle) in [
            ("mc(cut=9)", "cut size"),
            ("mc(cut=1)", "cut size"),
            ("par(threads=99){xor}", "thread count"),
            ("par{xor}", "requires"),
            ("resub", "unknown pass atom"),
            ("mc(limit=4)", "expected `cut"),
            ("xor)", "trailing"),
            ("mc;;xor", "expected a pass atom"),
            ("{mc", "close the group"),
            ("cleanup*0", "at least 1"),
            ("paper*3", "wrap it in"),
            ("mc@", "unexpected character"),
        ] {
            let err = FlowSpec::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn worst_case_passes_multiplies_bounded_repetition() {
        let spec = FlowSpec::parse("{mc(cut=4)*2;xor}*3;cleanup").unwrap();
        assert_eq!(spec.worst_case_passes(), 10);
        // Converge groups count their body once — the runtime cap bounds
        // their actual repetition.
        let spec = FlowSpec::parse("{mc(cut=4);mc(cut=6)}*").unwrap();
        assert_eq!(spec.worst_case_passes(), 2);
    }

    #[test]
    fn alias_pipelines_match_the_flowkind_flows() {
        // Each named flow executes the same passes, in the same order and
        // with the same stopping round, as its library pipeline.
        let executed = |stats: PipelineStats| -> Vec<String> {
            stats.passes.into_iter().map(|p| p.pass).collect()
        };
        for (name, _) in FlowSpec::aliases() {
            let spec = FlowSpec::named(name).unwrap();
            let ours = executed(spec.run(&mut full_adder(), &mut OptContext::new(), 1, 100));
            let theirs = executed(
                library_pipeline(name)
                    .max_rounds(100)
                    .run(&mut full_adder(), &mut OptContext::new()),
            );
            assert!(!ours.is_empty(), "{name}");
            assert_eq!(ours, theirs, "{name}");
        }
    }

    #[test]
    fn execution_preserves_function_and_honors_the_round_budget() {
        for text in [
            "paper",
            "compress",
            "mc(cut=6);xor;cleanup*",
            "par(threads=2){mc(cut=4)*2};xor",
            "{size(cut=4);xor}*2;cleanup",
        ] {
            let spec = FlowSpec::parse(text).unwrap();
            let mut xag = full_adder();
            let reference = xag.cleanup();
            let mut ctx = OptContext::new();
            let stats = spec.run(&mut xag, &mut ctx, 1, 100);
            assert!(stats.num_rounds() <= 100);
            assert!(
                equiv_exhaustive(&reference, &xag.cleanup()),
                "{text} broke equivalence"
            );
        }
        // A budget of 1 cuts any multi-pass spec short.
        let spec = FlowSpec::parse("mc(cut=4);mc(cut=6);xor").unwrap();
        let mut xag = full_adder();
        let mut ctx = OptContext::new();
        let stats = spec.run(&mut xag, &mut ctx, 1, 1);
        assert_eq!(stats.num_rounds(), 1);
        assert!(
            !stats.converged,
            "truncated specs must not claim convergence"
        );
    }

    #[test]
    fn par_variants_produce_identical_netlists() {
        let plain = FlowSpec::parse("mc(cut=6);xor;cleanup").unwrap();
        let wrapped = FlowSpec::parse("par(threads=4){mc(cut=6);xor;cleanup}").unwrap();
        assert_eq!(plain.normalized(), wrapped.normalized());
        let netlist = |spec: &FlowSpec, threads: usize| {
            let mut xag = full_adder();
            let mut ctx = OptContext::new();
            spec.run(&mut xag, &mut ctx, threads, 100);
            let mut buf = Vec::new();
            write_verilog(&xag.cleanup(), "m", &mut buf).expect("in-memory write");
            buf
        };
        let reference = netlist(&plain, 1);
        assert_eq!(reference, netlist(&plain, 4));
        assert_eq!(reference, netlist(&wrapped, 1));
        assert_eq!(reference, netlist(&wrapped, 4));
    }

    #[test]
    fn seeded_random_specs_parse_and_round_trip() {
        // A miniature parser fuzzer: generate syntactically valid specs
        // from the shared seeded sampler, then check parse → display →
        // parse is the identity and normalization is idempotent.
        let mut rng = mc_rng::Rng::seed_from_u64(0xF10E);
        for _ in 0..200 {
            let text = sample_spec_text(&mut rng, true);
            let spec = FlowSpec::parse(&text)
                .unwrap_or_else(|e| panic!("generated spec {text:?} failed to parse: {e}"));
            assert_eq!(FlowSpec::parse(&spec.to_string()).unwrap(), spec, "{text}");
            assert_eq!(spec.normalize().normalize(), spec.normalize(), "{text}");
        }
    }

    /// A `par{}` nested inside a convergence group keeps its worker
    /// override through the pipeline flattening without changing pass
    /// names, results, or the normalized key.
    #[test]
    fn nested_par_in_convergence_group_runs_and_stays_canonical() {
        let nested = FlowSpec::parse("{par(threads=4){mc(cut=4)};mc(cut=6)}*").unwrap();
        assert_eq!(nested.normalized(), "{mc(cut=4);mc(cut=6)}*");
        let run = |spec: &FlowSpec| {
            let mut xag = full_adder();
            let mut ctx = OptContext::new();
            let stats = spec.run(&mut xag, &mut ctx, 1, 100);
            assert!(stats.converged);
            let names: Vec<String> = stats.passes.into_iter().map(|p| p.pass).collect();
            let mut buf = Vec::new();
            write_verilog(&xag.cleanup(), "m", &mut buf).expect("in-memory write");
            (names, buf)
        };
        assert_eq!(
            run(&nested),
            run(&FlowSpec::parse("paper").unwrap()),
            "nested par is scheduling only — pass names and netlists stay identical"
        );
    }
}

//! The continuous phase profiler: always-on, self/total time per phase,
//! folded-stack output.
//!
//! A *phase* is a named scope entered with [`phase`]; nesting builds a
//! stack whose joined names form a path (`pipeline;mc_rewrite;cut_enum`),
//! exactly the folded-stack format flamegraph tools consume. Each exit
//! accumulates the phase's *total* time and its *self* time (total minus
//! the time spent in child phases) into a thread-local table; the table
//! flushes into the process-global profile only when the thread's stack
//! empties — once per pass, not once per phase — so the global lock never
//! shows up in a profile of the profiler.
//!
//! A worker thread starts with an empty stack. A thread that fans work
//! out hands its path over with [`current_stack`]; the worker re-opens it
//! with [`adopt_stack`], so the worker's phases fold under the same path
//! as work done inline, while the adopted frames record no time of their
//! own (the owning thread already times them).
//!
//! The overhead budget is the design constraint everything here serves:
//! phases are entered at pass, round, shard, or node granularity — never
//! per cut — and one enter/exit is two `Instant` reads plus a stack
//! push/pop. `hotpath_bench` gates this empirically with its
//! profiler-on/off ratio row (see `xag-bench`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum phase nesting depth; deeper phases are silently skipped (the
/// pipeline uses four levels).
pub const MAX_DEPTH: usize = 8;

/// Accumulated timings of one phase path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// The semicolon-joined phase stack, e.g. `pipeline;mc_rewrite;cut_enum`.
    pub path: String,
    /// Number of enter/exit pairs.
    pub count: u64,
    /// Total wall time inside the phase, µs (includes child phases).
    pub total_us: u64,
    /// Wall time inside the phase excluding child phases, µs.
    pub self_us: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    count: u64,
    total_us: u64,
    self_us: u64,
}

type PathKey = [&'static str; MAX_DEPTH];

struct Frame {
    name: &'static str,
    start: Instant,
    child_us: u64,
    /// Adopted from another thread ([`adopt_stack`]): keys child paths,
    /// records nothing itself.
    adopted: bool,
}

#[derive(Default)]
struct ProfLocal {
    stack: Vec<Frame>,
    acc: HashMap<PathKey, Totals>,
}

impl ProfLocal {
    fn flush(&mut self) {
        if self.acc.is_empty() {
            return;
        }
        let mut global = global().lock().expect("prof lock poisoned");
        for (key, t) in self.acc.drain() {
            let path = key
                .iter()
                .take_while(|n| !n.is_empty())
                .copied()
                .collect::<Vec<_>>()
                .join(";");
            let entry = global.entry(path).or_default();
            entry.count += t.count;
            entry.total_us += t.total_us;
            entry.self_us += t.self_us;
        }
    }
}

impl Drop for ProfLocal {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<ProfLocal> = RefCell::new(ProfLocal::default());
}

fn global() -> &'static Mutex<HashMap<String, Totals>> {
    static GLOBAL: OnceLock<Mutex<HashMap<String, Totals>>> = OnceLock::new();
    GLOBAL.get_or_init(Mutex::default)
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the profiler on or off process-wide. On by default; the off
/// switch exists for the overhead microbenchmark and as an operator
/// escape hatch, not because the overhead needs one.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`phase`] currently records.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enters a phase; the returned guard exits it on drop. Guards must nest
/// (drop in reverse entry order), which scoping gives for free. When the
/// profiler is disabled or the stack is at [`MAX_DEPTH`], the guard is
/// inert.
pub fn phase(name: &'static str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { name: None };
    }
    let entered = LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            if local.stack.len() >= MAX_DEPTH {
                return false;
            }
            local.stack.push(Frame {
                name,
                start: Instant::now(),
                child_us: 0,
                adopted: false,
            });
            true
        })
        .unwrap_or(false);
    PhaseGuard {
        name: entered.then_some(name),
    }
}

/// RAII guard for one phase entry. See [`phase`].
#[must_use = "a phase is timed until the guard drops"]
pub struct PhaseGuard {
    name: Option<&'static str>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(name) = self.name else { return };
        let _ = LOCAL.try_with(|local| {
            let mut local = local.borrow_mut();
            let Some(frame) = local.stack.pop() else {
                return;
            };
            debug_assert_eq!(frame.name, name, "phase guards dropped out of order");
            let total_us = frame.start.elapsed().as_micros() as u64;
            let self_us = total_us.saturating_sub(frame.child_us);
            if let Some(parent) = local.stack.last_mut() {
                parent.child_us += total_us;
            }
            let mut key: PathKey = [""; MAX_DEPTH];
            for (slot, f) in key.iter_mut().zip(local.stack.iter()) {
                *slot = f.name;
            }
            key[local.stack.len()] = frame.name;
            let t = local.acc.entry(key).or_default();
            t.count += 1;
            t.total_us += total_us;
            t.self_us += self_us;
            if local.stack.is_empty() {
                local.flush();
            }
        });
    }
}

/// The calling thread's open phases, outermost first — to hand to the
/// worker threads it spawns (see [`adopt_stack`]).
pub fn current_stack() -> Vec<&'static str> {
    LOCAL
        .try_with(|local| local.borrow().stack.iter().map(|f| f.name).collect())
        .unwrap_or_default()
}

/// Re-opens `stack` on the calling thread — a worker that has no phases
/// of its own yet — so the phases it enters fold under the path of the
/// thread that captured `stack`. The adopted frames record neither counts
/// nor time: the capturing thread already times them. The returned guard
/// closes them again (and flushes the worker's table once its stack is
/// empty).
pub fn adopt_stack(stack: &[&'static str]) -> AdoptGuard {
    if !enabled() {
        return AdoptGuard { depth: 0 };
    }
    let depth = LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            let depth = stack.len().min(MAX_DEPTH - local.stack.len());
            let start = Instant::now();
            for &name in &stack[..depth] {
                local.stack.push(Frame {
                    name,
                    start,
                    child_us: 0,
                    adopted: true,
                });
            }
            depth
        })
        .unwrap_or(0);
    AdoptGuard { depth }
}

/// RAII guard for an adopted phase stack. See [`adopt_stack`].
#[must_use = "the adopted phases stay open until the guard drops"]
pub struct AdoptGuard {
    depth: usize,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        let _ = LOCAL.try_with(|local| {
            let mut local = local.borrow_mut();
            for _ in 0..self.depth {
                let frame = local.stack.pop();
                debug_assert!(
                    frame.is_some_and(|f| f.adopted),
                    "adopted stack closed under an open phase"
                );
            }
            if local.stack.is_empty() {
                local.flush();
            }
        });
    }
}

/// The accumulated profile, sorted by path. Live phases (still on some
/// thread's stack) and un-flushed thread-local tables are not included —
/// the snapshot is exact at pass boundaries, which is the granularity
/// the profile is read at.
pub fn snapshot() -> Vec<PhaseStat> {
    let global = global().lock().expect("prof lock poisoned");
    let mut stats: Vec<PhaseStat> = global
        .iter()
        .map(|(path, t)| PhaseStat {
            path: path.clone(),
            count: t.count,
            total_us: t.total_us,
            self_us: t.self_us,
        })
        .collect();
    stats.sort_by(|a, b| a.path.cmp(&b.path));
    stats
}

/// The profile in folded-stack form — one `path self_us` line per phase
/// path, ready for flamegraph tooling.
pub fn folded() -> String {
    let mut out = String::new();
    for s in snapshot() {
        out.push_str(&format!("{} {}\n", s.path, s.self_us));
    }
    out
}

/// Clears the accumulated profile (benchmarks and tests).
pub fn reset() {
    global().lock().expect("prof lock poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The profile is process-global; tests serialize on this to keep
    /// `reset`/`set_enabled` from racing each other.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stat(path: &str) -> Option<PhaseStat> {
        snapshot().into_iter().find(|s| s.path == path)
    }

    #[test]
    fn nested_phases_split_self_and_total() {
        let _guard = test_lock();
        reset();
        {
            let _outer = phase("t_outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = phase("t_inner");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let outer = stat("t_outer").expect("outer recorded");
        let inner = stat("t_outer;t_inner").expect("inner recorded under outer");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_us >= 5_000, "{inner:?}");
        assert!(outer.total_us >= inner.total_us, "{outer:?} vs {inner:?}");
        assert_eq!(inner.total_us, inner.self_us, "leaf: self == total");
        assert_eq!(outer.self_us, outer.total_us - inner.total_us);
    }

    #[test]
    fn repeated_phases_accumulate_counts() {
        let _guard = test_lock();
        reset();
        for _ in 0..3 {
            let _p = phase("t_repeat");
        }
        assert_eq!(stat("t_repeat").expect("recorded").count, 3);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _guard = test_lock();
        reset();
        set_enabled(false);
        {
            let _p = phase("t_disabled");
        }
        set_enabled(true);
        assert!(stat("t_disabled").is_none());
    }

    #[test]
    fn folded_lines_are_flamegraph_shaped() {
        let _guard = test_lock();
        reset();
        {
            let _a = phase("t_fold_a");
            let _b = phase("t_fold_b");
        }
        let folded = folded();
        assert!(
            folded.lines().any(|l| l.starts_with("t_fold_a;t_fold_b ")
                && l.split(' ')
                    .nth(1)
                    .is_some_and(|n| n.parse::<u64>().is_ok())),
            "{folded}"
        );
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _guard = test_lock();
        reset();
        std::thread::spawn(|| {
            let _p = phase("t_worker");
        })
        .join()
        .expect("worker");
        assert_eq!(stat("t_worker").expect("flushed").count, 1);
    }

    #[test]
    fn adopted_stacks_prefix_worker_paths_without_counting_twice() {
        let _guard = test_lock();
        reset();
        {
            let _outer = phase("t_adopt_root");
            let stack = current_stack();
            std::thread::spawn(move || {
                let _stack = adopt_stack(&stack);
                let _p = phase("t_adopt_leaf");
                std::thread::sleep(Duration::from_millis(2));
            })
            .join()
            .expect("worker");
        }
        let leaf = stat("t_adopt_root;t_adopt_leaf").expect("leaf under the caller's path");
        assert_eq!(leaf.count, 1);
        assert!(leaf.total_us >= 2_000, "{leaf:?}");
        assert!(stat("t_adopt_leaf").is_none(), "no second tree");
        assert_eq!(stat("t_adopt_root").expect("root").count, 1);
    }

    #[test]
    fn depth_overflow_is_skipped_not_corrupted() {
        let _guard = test_lock();
        reset();
        let mut guards = Vec::new();
        for _ in 0..MAX_DEPTH + 3 {
            guards.push(phase("t_deep"));
        }
        drop(guards);
        let total: u64 = snapshot()
            .iter()
            .filter(|s| s.path.contains("t_deep"))
            .map(|s| s.count)
            .sum();
        assert_eq!(total as usize, MAX_DEPTH);
    }
}

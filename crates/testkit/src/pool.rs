//! A scoped thread pool built on `std::thread` only.
//!
//! The workspace's hermetic no-registry-deps invariant rules out `rayon`
//! and `crossbeam`, so parallel sweeps get their fan-out from this module
//! instead. The design is deliberately simple:
//!
//! * **Scoped** — workers are spawned inside [`std::thread::scope`], so
//!   closures may borrow from the caller's stack and nothing outlives the
//!   call.
//! * **One shared cursor** — the items sit behind one mutex, and each
//!   worker takes the next one, releases the lock and runs it. Sweep
//!   items are whole simulations, so a worker that finishes early simply
//!   takes more of them.
//! * **Deterministic collection** — results are tagged with their input
//!   index and reassembled in input order, so callers observe the same
//!   output vector no matter how the items were scheduled or how many
//!   workers ran. (Determinism of the *values* is the closure's job: each
//!   invocation must depend only on its item.)
//! * **Panic propagation** — a panicking task poisons nothing: remaining
//!   items still run where possible, and the first worker panic is
//!   re-raised on the caller's thread via [`std::panic::resume_unwind`].
//!
//! ```
//! use zerosim_testkit::pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map(vec![1u64, 2, 3, 4, 5], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::Mutex;

/// A fixed-width scoped thread pool; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool that fans work across `workers` threads. A width of
    /// 0 or 1 runs everything inline on the caller's thread (no spawn).
    pub fn new(workers: usize) -> Self {
        ThreadPool {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order regardless of worker count or scheduling.
    ///
    /// # Panics
    /// Re-raises the first worker panic on the calling thread after the
    /// scope joins.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let width = self.workers.min(n);
        if width <= 1 {
            return items.into_iter().map(f).collect();
        }

        let cursor = Mutex::new(items.into_iter().enumerate());
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..width)
                .map(|_| {
                    let (f, cursor) = (&f, &cursor);
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // The guard drops at the end of this statement,
                            // before `f` runs.
                            let next = cursor.lock().expect("pool cursor poisoned").next();
                            let Some((i, item)) = next else { break };
                            local.push((i, f(item)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            out[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
        });

        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        out.into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("pool lost result for index {i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_input_ordered_for_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for width in [1, 2, 3, 8, 128] {
            let pool = ThreadPool::new(width);
            assert_eq!(pool.map(items.clone(), |x| x * 3 + 1), expect, "w={width}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = ThreadPool::new(7);
        let out = pool.map((0..500).collect::<Vec<i32>>(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathologically slow item at the front; with 4 workers the
        // remaining items must still all complete (stealing drains the
        // slow worker's block).
        let pool = ThreadPool::new(4);
        let out = pool.map((0..32).collect::<Vec<u64>>(), |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<u64>>());
    }

    #[test]
    fn borrows_from_caller_stack() {
        let base = [10u64, 20, 30];
        let pool = ThreadPool::new(2);
        let out = pool.map(vec![0usize, 1, 2], |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn zero_width_runs_inline() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(vec![1, 2], |x| x + 1), vec![2, 3]);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map((0..16).collect::<Vec<u32>>(), |x| {
                if x == 9 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 9"), "unexpected payload: {msg}");
    }
}

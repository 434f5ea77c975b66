//! A scoped work-stealing thread pool built on `std::thread` only.
//!
//! The workspace's hermetic no-registry-deps invariant rules out `rayon`
//! and `crossbeam`, so parallel sweeps get their fan-out from this module
//! instead. The design is deliberately simple:
//!
//! * **Scoped** — workers are spawned inside [`std::thread::scope`], so
//!   closures may borrow from the caller's stack and nothing outlives the
//!   call.
//! * **Work-stealing** — each worker owns a deque of item indices seeded
//!   with a contiguous block of the input. Owners pop from the *front* of
//!   their deque; when empty they steal from the *back* of a victim's,
//!   which keeps block locality for the owner while letting fast workers
//!   drain stragglers.
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

use std::collections::VecDeque;
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
    /// order. See [`ThreadPool::map_indexed`] for the indexed variant.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Applies `f(index, item)` to every item, in parallel, returning
    /// results in input order regardless of worker count or scheduling.
    ///
    /// # Panics
    /// Re-raises the first worker panic on the calling thread after the
    /// scope joins.
    pub fn map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let width = self.workers.min(n);
        if width <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        // Items live in per-index cells so any worker can claim any index.
        let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();

        // Block-partitioned deques: worker w starts with indices
        // [w*n/width, (w+1)*n/width).
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..width)
            .map(|w| {
                let lo = w * n / width;
                let hi = (w + 1) * n / width;
                Mutex::new((lo..hi).collect())
            })
            .collect();

        let mut results: Vec<Option<(usize, R)>> = Vec::new();
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(width);
            for w in 0..width {
                let f = &f;
                let cells = &cells;
                let queues = &queues;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Own queue first (front = block order).
                        let mut idx = queues[w].lock().expect("pool queue poisoned").pop_front();
                        if idx.is_none() {
                            // Steal from the back of the others, round-robin
                            // starting at our right-hand neighbour.
                            for off in 1..width {
                                let victim = (w + off) % width;
                                if let Some(stolen) = queues[victim]
                                    .lock()
                                    .expect("pool queue poisoned")
                                    .pop_back()
                                {
                                    idx = Some(stolen);
                                    break;
                                }
                            }
                        }
                        let Some(i) = idx else { break };
                        let item = cells[i]
                            .lock()
                            .expect("pool item poisoned")
                            .take()
                            .expect("pool item claimed twice");
                        local.push((i, f(i, item)));
                    }
                    local
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(local) => results.extend(local.into_iter().map(Some)),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
        });

        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }

        // Reassemble in input order.
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for slot in results.into_iter().flatten() {
            let (i, r) = slot;
            assert!(out[i].is_none(), "pool produced index {i} twice");
            out[i] = Some(r);
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
    fn map_indexed_exposes_input_indices() {
        let pool = ThreadPool::new(3);
        let out = pool.map_indexed(vec!["a", "b", "c", "d"], |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d"]);
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

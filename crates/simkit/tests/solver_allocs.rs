//! Zero-allocation gate for the max-min solver's hot path.
//!
//! A counting global allocator tallies the allocations made on the test
//! thread while a thread-local flag is set. After a warm-up that grows the
//! flow slab, the per-link flow lists and the solver's scratch buffers to
//! their high-water marks, steady-state `start_flow_capped` →
//! `next_event_in` → `advance` cycles must not allocate at all.
//!
//! Run with `cargo test -p zerosim-simkit --test solver_allocs`. It is its
//! own test binary because the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zerosim_simkit::flow::{FlowId, FlowNet, LinkId, NullObserver};
use zerosim_simkit::{SimTime, TokenBucket};

thread_local! {
    /// Set while the calling thread is being measured.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// Forwards to the system allocator, counting allocations and
/// reallocations made on a measured thread.
struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the bookkeeping only
// touches `const`-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on and returns its result with the number of
/// allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get))
}

const LINKS: usize = 64;
/// Steady-state bound on concurrently active flows.
const POPULATION: usize = 32;
const MEASURED_CYCLES: u64 = 10_000;

/// The net under test: link 0 is a token bucket, the rest are fixed.
struct Rig {
    net: FlowNet,
    links: Vec<LinkId>,
    /// Simulated seconds elapsed.
    t: f64,
    /// Completions of the latest step; reused across steps.
    done: Vec<FlowId>,
    /// Route of the next flow; reused across starts.
    route: Vec<LinkId>,
    /// xorshift64 state for route, size and cap choices.
    rng: u64,
}

impl Rig {
    fn new() -> Rig {
        let mut net = FlowNet::new();
        net.set_shadow_verify(false);
        let mut links = vec![net.add_bucketed_link("nvme", TokenBucket::new(4e6, 4e9, 1e9))];
        for i in 1..LINKS {
            links.push(net.add_link(format!("l{i}"), 1e9 * (1 + i % 5) as f64));
        }
        Rig {
            net,
            links,
            t: 0.0,
            done: Vec::new(),
            route: Vec::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        usize::try_from(self.rng % 1_000_003).expect("small")
    }

    /// One network step to the next event, completions into `done`. Like
    /// the DAG engine, the step is rounded up to whole nanoseconds: a
    /// draining token bucket otherwise reports ever-shorter transitions.
    fn step(&mut self) {
        let next = self.net.next_event_in().expect("something is in motion");
        let dt = (next * 1e9).ceil().max(1.0) / 1e9;
        self.done.clear();
        self.net.advance(
            SimTime::from_secs(self.t),
            dt,
            &mut NullObserver,
            &mut self.done,
        );
        self.t += dt;
    }

    fn drain(&mut self) {
        while self.net.flow_count() > 0 {
            self.step();
        }
    }

    /// Starts one flow on a pseudo-random route: single-hop, two-hop, a
    /// route that visits its first link twice, or one through the token
    /// bucket; every third flow is rate-capped.
    fn start_random(&mut self) {
        let r = self.next();
        let a = self.links[1 + r % (LINKS - 1)];
        let b = self.links[1 + (r / LINKS) % (LINKS - 1)];
        self.route.clear();
        match (r / (LINKS * LINKS)) % 4 {
            0 => self.route.push(a),
            1 => self.route.extend([a, b]),
            2 => self.route.extend([a, b, a]),
            _ => self.route.extend([self.links[0], a, b]),
        }
        let bytes = 1e6 * (1 + r % 7) as f64;
        let cap = if r.is_multiple_of(3) {
            3e8
        } else {
            f64::INFINITY
        };
        self.net
            .start_flow_capped(&self.route, bytes, cap)
            .expect("valid flow");
    }

    /// The measured cycle: start a flow, then step to the next event (and
    /// keep stepping while the population is over its bound).
    fn cycle(&mut self) {
        self.start_random();
        self.step();
        while self.net.flow_count() > POPULATION {
            self.step();
        }
    }

    /// Grows every buffer the steady state can reach to its high-water
    /// mark, so the measured window sees only reuse.
    fn warm(&mut self) {
        // One component spanning every link: closure scratch and the dirty
        // list reach their link-count bound.
        for w in self.links.clone().windows(2) {
            self.net.start_flow(w, 1e6).expect("valid flow");
        }
        self.drain();
        // Per link, more flows than the population bound with four route
        // entries each, finishing together: the slab, every slot's route
        // buffer, each link's flow list, the component's flow scratch and
        // the completion buffer all outgrow anything the cycles need.
        for i in 0..LINKS {
            let l = self.links[i];
            for _ in 0..=POPULATION {
                self.net.start_flow(&[l, l, l, l], 1e6).expect("valid flow");
            }
            self.drain();
        }
        for _ in 0..2_000 {
            self.cycle();
        }
    }
}

#[test]
fn steady_state_solver_cycles_allocate_nothing() {
    let mut rig = Rig::new();
    rig.warm();
    let before = rig.net.solver_stats();
    let ((), allocs) = counted(|| {
        for _ in 0..MEASURED_CYCLES {
            rig.cycle();
        }
    });
    let solves = rig.net.solver_stats().delta_since(&before).solves;
    assert!(
        solves >= MEASURED_CYCLES,
        "every cycle re-solves at least once: {solves} solves"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {MEASURED_CYCLES} cycles ({solves} solves)"
    );
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the gate itself: a counter that never counts would pass it.
    let (v, allocs) = counted(|| vec![0u8; 64]);
    assert_eq!(v.len(), 64);
    assert!(allocs >= 1);
}

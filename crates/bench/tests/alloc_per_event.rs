//! DESIGN §6a's "no allocation per event", as a check: the same trial run
//! longer makes no more heap allocations than run shorter. Setup may
//! allocate; the event pump may not. Counted per thread, so the harness's
//! own threads cannot blur the count.

use nautix_bench::{groupsync, missrate, topology};
use nautix_hw::{MachineConfig, Platform, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `run` made on this thread, and the events it simulated.
fn allocations(run: impl FnOnce() -> u64) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let events = run();
    (ALLOCS.with(Cell::get) - before, events)
}

/// Run `trial` at a short and a long length: the long one must simulate
/// more events on no more allocations.
fn no_marginal_allocations(name: &str, short: u64, long: u64, trial: impl Fn(u64) -> u64) {
    let (a_short, e_short) = allocations(|| trial(short));
    let (a_long, e_long) = allocations(|| trial(long));
    assert!(e_long > 2 * e_short, "{name}: {e_short} -> {e_long} events");
    assert!(
        a_long <= a_short,
        "{name}: {a_short} allocations over {e_short} events, {a_long} over {e_long}"
    );
}

#[test]
fn longer_runs_make_no_more_allocations() {
    no_marginal_allocations("2-CPU miss rate", 200, 2_000, |jobs| {
        missrate::measure_point(Platform::Phi, 100_000, 50_000, jobs, 3).events
    });
    no_marginal_allocations("64-member gang", 40, 400, |invocations| {
        let machine = MachineConfig::phi().with_cpus(65).with_seed(3);
        groupsync::measure_on(machine, 64, invocations as usize, false).1
    });
    no_marginal_allocations("256-CPU 2x4 miss rate", 10, 80, |jobs| {
        topology::missrate_at_scale(256, Topology::tree(2, 4), jobs, 3).events
    });
}

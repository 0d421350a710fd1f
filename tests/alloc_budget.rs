//! The allocation budget of one drift regeneration.
//!
//! A simulation kernel regenerates every drifted database with one bound
//! `PeerGenerator`: it draws 16 rows into a recycled row set, checks
//! their ground truth, summarizes them into the engine's recycled tree
//! arena, encodes and flattens the summary into reused buffers, and
//! clears the arena. Once warm, the rows and the summary tree cost no
//! allocation; what remains is the peer's two resident outputs, copied
//! out of the buffers: the encoded bytes and the flat form (its `Rc` and
//! its arrays). This test counts every allocation the regenerations make
//! on the test's thread and holds their mean to a budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use fuzzy::bk::BackgroundKnowledge;
use rand::rngs::StdRng;
use rand::SeedableRng;
use summary_p2p::error::P2pError;
use summary_p2p::workload::{make_templates, PeerGenerator};

/// The system allocator, counting the allocations (and reallocations)
/// made on a thread while that thread's `COUNTING` flag is set.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
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
static GLOBAL: Counting = Counting;

/// Regenerations the budget is averaged over.
const RUNS: u32 = 200;
/// Allocations a warm 16-record regeneration may make on average (8
/// today: one for the bytes, one for the flat form's `Rc`, six for its
/// arrays).
const BUDGET: f64 = 12.0;

#[test]
fn a_warm_regeneration_stays_within_its_allocation_budget() -> Result<(), P2pError> {
    let bk = BackgroundKnowledge::medical_cbk();
    let mut generator = PeerGenerator::new(&bk, &make_templates(3))?;
    let mut rng = StdRng::seed_from_u64(91);
    // Warm the engine's buffers and tree arena.
    for peer in 0..50 {
        black_box(generator.generate(&mut rng, peer, 0.1, 16)?);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let mut result = Ok(());
    for peer in 50..50 + RUNS {
        match generator.generate(&mut rng, peer, 0.1, 16) {
            Ok(data) => drop(black_box(data)),
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    COUNTING.set(false);
    result?;
    let mean = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / f64::from(RUNS);
    println!("{mean:.1} allocations per regeneration");
    assert!(mean >= 1.0, "the counter saw nothing: {mean}");
    assert!(
        mean <= BUDGET,
        "{mean:.1} allocations per 16-record regeneration, over the budget of {BUDGET}"
    );
    Ok(())
}

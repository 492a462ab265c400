//! Allocation budgets of two read paths, counted on the calling thread;
//! no timing is asserted.
//!
//! - A batched adjacency read: on a sealed `Bg3Db` with its CSR segments
//!   warm, one `neighbors_batch` over 256 INIT-resident sources allocates
//!   a bounded number of times in total, not per source — keys are stack
//!   arrays, INIT prefixes share one buffer, and packed segments are
//!   borrowed.
//! - A cold point read: with the tree read cache off, one `get_edge`
//!   looks its key up in the page's verified bytes in place, so it
//!   allocates a bounded number of times whatever the page's entry count.

use bg3_core::prelude::*;
use bg3_graph::NeighborSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread locals tear down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialized thread-local `Cell` that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SOURCES: u64 = 256;
const EDGES_PER_SOURCE: u64 = 3;
/// Allocations one batch may make, whatever its size.
const BUDGET: u64 = 16;

/// Counts visits into a buffer sized up front.
struct CountingSink {
    per_source: Vec<u32>,
}

impl NeighborSink for CountingSink {
    fn visit(&mut self, src_idx: usize, _dst: VertexId, _props: &[u8]) -> bool {
        self.per_source[src_idx] += 1;
        true
    }
}

#[test]
fn batched_read_allocates_per_batch_not_per_source() {
    let db = Bg3Db::open(Bg3Config::default().with_durability());
    for src in 0..SOURCES {
        for d in 0..EDGES_PER_SOURCE {
            let dst = VertexId(10_000 + src * EDGES_PER_SOURCE + d);
            db.insert_edge(&Edge::new(VertexId(src), EdgeType::FOLLOW, dst))
                .unwrap();
        }
    }
    db.checkpoint().unwrap();
    assert_eq!(
        db.forest().tree_count(),
        1,
        "every source stays INIT-resident"
    );
    let srcs: Vec<VertexId> = (0..SOURCES).map(VertexId).collect();
    let mut sink = CountingSink {
        per_source: vec![0; srcs.len()],
    };
    // Warm-up: builds every page's CSR segment.
    db.neighbors_batch(&srcs, EdgeType::FOLLOW, usize::MAX, &mut sink)
        .unwrap();
    sink.per_source.fill(0);

    let before = allocations();
    db.neighbors_batch(&srcs, EdgeType::FOLLOW, usize::MAX, &mut sink)
        .unwrap();
    let made = allocations() - before;

    assert!(
        sink.per_source
            .iter()
            .all(|&n| n as u64 == EDGES_PER_SOURCE),
        "every source's edges visited"
    );
    assert!(
        made <= BUDGET,
        "{made} allocations for one {SOURCES}-source batch (budget {BUDGET})"
    );
}

/// Allocations one cold `get_edge` may make, whatever its page's size.
const COLD_READ_BUDGET: u64 = 8;

#[test]
fn cold_point_read_allocates_per_read_not_per_page_entry() {
    for edges in [160, 640] {
        let mut config = Bg3Config::default()
            .with_durability()
            .with_cache_capacity(4 << 20);
        config.forest.tree_config = config
            .forest
            .tree_config
            .clone()
            .with_read_cache(false)
            .with_max_page_entries(1024);
        let db = Bg3Db::open(config);
        let src = VertexId(1);
        let edge = |d: u64| Edge::new(src, EdgeType::FOLLOW, VertexId(10_000 + d));
        for d in 0..edges {
            db.insert_edge(&edge(d)).unwrap();
        }
        db.checkpoint().unwrap();
        // Two edges after the checkpoint: the page is read as its base
        // plus one delta record.
        for d in edges..edges + 2 {
            db.insert_edge(&edge(d)).unwrap();
        }
        db.checkpoint().unwrap();
        assert!(
            db.forest()
                .all_trees()
                .iter()
                .any(|t| t.page_count() == 1 && t.entry_count() as u64 == edges + 2),
            "the source's {} edges sit on one page",
            edges + 2
        );

        let present = VertexId(10_000 + edges / 2);
        let absent = VertexId(10_000 + edges + 7);
        for dst in [present, absent] {
            // Warm-up: fills the page cache with the base and the delta.
            db.get_edge(src, EdgeType::FOLLOW, dst).unwrap();
            let before = allocations();
            let got = db.get_edge(src, EdgeType::FOLLOW, dst).unwrap();
            let made = allocations() - before;
            assert_eq!(got.is_some(), dst == present, "get_edge {dst:?}");
            assert!(
                made <= COLD_READ_BUDGET,
                "{made} allocations for one cold get_edge of {dst:?} on a {edges}-edge page \
                 (budget {COLD_READ_BUDGET})"
            );
        }
    }
}

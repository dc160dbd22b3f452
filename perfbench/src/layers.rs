//! Replays of the simulator's per-block entry points.
//!
//! The engine's inner loop calls, per simulated block, the footprint
//! walker, the memory system's i-side fetch and d-side access (which
//! themselves reach the TLBs and the coherence directory), the page
//! heatmap, and between quanta the calendar event queue. Each replay
//! below calls one of these public entry points on a stream shaped like
//! the engine's and reports the host time per call. The engine is not
//! instrumented: these numbers come from outside, like
//! `crates/bench/benches/hotpath.rs`.

use schedtask_kernel::BenchEventQueue;
use schedtask_sim::{CodeDomain, Directory, MemorySystem, PageHeatmap, SystemConfig, Tlb};
use schedtask_workload::{CodeBlock, Footprint, FootprintWalker, PageAllocator, WalkParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::report::median;

/// Blocks replayed per timed pass.
const BLOCKS: usize = 1 << 16;
/// Timed passes per entry point; the median pass is reported.
const PASSES: usize = 7;
/// Blocks a core runs before the replay moves to the next core, so the
/// per-core structures see the engine's quantum-sized bursts.
const BURST: usize = 1 << 10;

/// Host nanoseconds per call of each replayed entry point.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    pub next_block_ns: f64,
    pub fetch_code_ns: f64,
    pub access_data_ns: f64,
    pub tlb_access_ns: f64,
    pub directory_ns: f64,
    pub heatmap_insert_ns: f64,
    pub event_queue_ns: f64,
}

/// Median over [`PASSES`] of the ns per call of `pass`, which returns
/// how many calls it made. One untimed pass warms the structures first.
fn per_call_ns(mut pass: impl FnMut() -> usize) -> f64 {
    pass();
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            let calls = pass();
            started.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn walker(seed: u64) -> FootprintWalker {
    let mut alloc = PageAllocator::new();
    let code = Arc::new(Footprint::from_regions([&alloc.anonymous("code", 24)]));
    let shared = Arc::new(Footprint::from_regions([&alloc.anonymous("shared", 8)]));
    let private = Arc::new(Footprint::from_regions([&alloc.anonymous("priv", 4)]));
    FootprintWalker::new(code, shared, private, WalkParams::default(), seed)
}

/// Replays every entry point on a Table 2 machine with `cores` cores.
pub fn replay(cores: usize, seed: u64) -> LayerCosts {
    let cfg = SystemConfig::table2().with_cores(cores);
    let mut walk = walker(seed);
    let blocks: Vec<CodeBlock> = (0..BLOCKS).map(|_| walk.next_block()).collect();
    let core_of = |i: usize| (i / BURST) % cores;

    let next_block_ns = per_call_ns(|| {
        for _ in 0..BLOCKS {
            black_box(walk.next_block());
        }
        BLOCKS
    });

    let mut mem = MemorySystem::new(&cfg);
    let lines_per_page = mem.lines_per_page();
    let fetch_code_ns = per_call_ns(|| {
        for (i, b) in blocks.iter().enumerate() {
            black_box(mem.fetch_code(core_of(i), b.line, CodeDomain::Application));
        }
        BLOCKS
    });
    let access_data_ns = per_call_ns(|| {
        let mut calls = 0;
        for (i, b) in blocks.iter().enumerate() {
            if let Some(d) = b.data_ref {
                black_box(mem.access_data(core_of(i), d.line, d.write, CodeDomain::Application));
                calls += 1;
            }
        }
        calls
    });

    let mut tlb = Tlb::new(cfg.itlb_entries as usize);
    let tlb_access_ns = per_call_ns(|| {
        for b in &blocks {
            black_box(tlb.access(b.line / lines_per_page));
        }
        BLOCKS
    });

    let mut dir = Directory::new(cores);
    let directory_ns = per_call_ns(|| {
        let mut calls = 0;
        for (i, b) in blocks.iter().enumerate() {
            if let Some(d) = b.data_ref {
                if d.write {
                    black_box(dir.on_write(core_of(i), d.line));
                } else {
                    black_box(dir.on_read(core_of(i), d.line));
                }
                calls += 1;
            }
        }
        calls
    });

    let mut heatmap = PageHeatmap::new(512);
    let heatmap_insert_ns = per_call_ns(|| {
        for b in &blocks {
            heatmap.insert_pfn(black_box(b.line / lines_per_page));
        }
        black_box(&heatmap);
        BLOCKS
    });

    // Near-future pushes dominate (timer ticks, completions), with a
    // far tail past the calendar ring; one push and one pop per event.
    let mut queue = BenchEventQueue::new();
    for _ in 0..64 {
        queue.push(1000);
    }
    let mut now = 0u64;
    let event_queue_ns = per_call_ns(|| {
        for b in &blocks {
            let r = b.line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let delta = if r & 15 != 0 {
                r % 200_000
            } else {
                10_000_000 + r % 5_000_000
            };
            queue.push(now + delta);
            if let Some(t) = queue.pop() {
                now = now.max(t);
            }
        }
        black_box(now);
        BLOCKS
    });

    LayerCosts {
        next_block_ns,
        fetch_code_ns,
        access_data_ns,
        tlb_access_ns,
        directory_ns,
        heatmap_insert_ns,
        event_queue_ns,
    }
}

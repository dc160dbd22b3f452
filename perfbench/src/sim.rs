//! `sim-fig7`: the Figure 7 comparison sweep (6 techniques × 8
//! benchmarks, standard parameters, scale 2.0), run serially in-process.

use schedtask_experiments::runner::{ExpParams, RunBuilder, Technique};
use schedtask_experiments::serve_api::fnv1a64;
use schedtask_kernel::{Engine, SimStats, WorkloadSpec};
use schedtask_obs::{Aggregator, Counter, CounterSnapshot, Observer};
use schedtask_workload::BenchmarkKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::{median, percentile, Report};
use crate::{layers, splitmix64, Outcome};

/// Workload scale of every cell, as `repro perf` uses.
const SCALE: f64 = 2.0;

/// Canonical `SimStats` digests of the 48 cells, one
/// `technique benchmark digest` line each. Any change to simulated
/// behaviour must re-record them (`perfbench record-fig7-digests`).
const GOLDEN: &str = include_str!("../fig7_digests.txt");

/// Warm-up repetitions whose median is the reported set-up time.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub technique: Technique,
    pub benchmark: BenchmarkKind,
}

impl Cell {
    fn label(self) -> String {
        format!("{} {}", self.technique.name(), self.benchmark.name())
    }
}

/// The 48 cells in technique-major order.
pub fn cells() -> Vec<Cell> {
    Technique::all()
        .into_iter()
        .flat_map(|technique| {
            BenchmarkKind::all().map(|benchmark| Cell {
                technique,
                benchmark,
            })
        })
        .collect()
}

/// The cells in the order `seed` picks (Fisher–Yates). The seed changes
/// only the order: every cell keeps the standard parameters, so its
/// digest is fixed.
pub fn seeded_order(seed: u64) -> Vec<Cell> {
    let mut order = cells();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// FNV-1a 64 of the canonical `SimStats` JSON.
pub fn digest(stats: &SimStats) -> u64 {
    fnv1a64(stats.to_canonical_json().as_bytes())
}

/// Parses the golden table into `(label, digest)` pairs.
pub fn golden_digests(text: &str) -> Result<Vec<(String, u64)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let (Some(t), Some(b), Some(d), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("bad digest line {l:?}"));
            };
            let d = u64::from_str_radix(d, 16).map_err(|e| format!("bad digest {d:?}: {e}"))?;
            Ok((format!("{t} {b}"), d))
        })
        .collect()
}

/// True when `stats` carries the digest `golden` records for `cell`.
pub fn digest_matches(golden: &[(String, u64)], cell: Cell, stats: &SimStats) -> bool {
    let label = cell.label();
    golden
        .iter()
        .find(|(l, _)| *l == label)
        .is_some_and(|&(_, d)| d == digest(stats))
}

fn run_cell(params: &ExpParams, cell: Cell) -> Option<SimStats> {
    RunBuilder::new(params)
        .technique(cell.technique)
        .benchmark(cell.benchmark, SCALE)
        .run()
        .ok()
}

/// Prints the golden table for the current simulator.
pub fn record_digests() -> Result<(), String> {
    let params = ExpParams::standard();
    println!("# technique benchmark fnv1a64(SimStats::to_canonical_json), ExpParams::standard(), scale {SCALE}");
    for cell in cells() {
        let stats =
            run_cell(&params, cell).ok_or_else(|| format!("cell {} failed", cell.label()))?;
        println!("{} {:016x}", cell.label(), digest(&stats));
    }
    Ok(())
}

/// One sweep's outcome.
struct Sweep {
    walls: Vec<Duration>,
    instructions: u64,
    failed: u64,
}

impl Sweep {
    fn wall(&self) -> Duration {
        self.walls.iter().sum()
    }
}

/// Runs `order` once through `RunBuilder`, timing each cell.
fn sweep(params: &ExpParams, order: &[Cell], golden: &[(String, u64)]) -> Sweep {
    let mut s = Sweep {
        walls: Vec::with_capacity(order.len()),
        instructions: 0,
        failed: 0,
    };
    for &cell in order {
        let started = Instant::now();
        let stats = run_cell(params, cell);
        s.walls.push(started.elapsed());
        match stats {
            Some(stats) if digest_matches(golden, cell, &stats) => {
                s.instructions += stats.total_instructions();
            }
            _ => s.failed += 1,
        }
    }
    s
}

/// Set-up: load the golden table and run one quick warm-up cell, so the
/// allocator and code pages are warm before the first timed cell.
fn setup() -> Result<(Vec<(String, u64)>, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut golden = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        golden = golden_digests(GOLDEN)?;
        let warm = run_cell(
            &ExpParams::quick(),
            Cell {
                technique: Technique::SchedTask,
                benchmark: BenchmarkKind::Find,
            },
        );
        if warm.is_none() {
            return Err("warm-up cell failed".to_owned());
        }
        times.push(started.elapsed().as_secs_f64());
    }
    if golden.len() != cells().len() {
        return Err(format!(
            "golden table has {} cells, want {}",
            golden.len(),
            cells().len()
        ));
    }
    Ok((golden, median(&times)))
}

/// The timed run: whole sweeps while another fits in `seconds` (at
/// least one).
pub fn timed(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (golden, setup_s) = setup()?;
    let params = ExpParams::standard();
    let order = seeded_order(seed);
    let budget = Duration::from_secs(seconds);
    let mut sweeps: Vec<Sweep> = Vec::new();
    let started = Instant::now();
    loop {
        let s = sweep(&params, &order, &golden);
        let last = s.wall();
        sweeps.push(s);
        if started.elapsed() + last > budget {
            break;
        }
    }
    // A cell's latency is its median wall over the sweeps.
    let mut walls_ns: Vec<u64> = (0..order.len())
        .map(|i| {
            let walls: Vec<f64> = sweeps
                .iter()
                .map(|s| s.walls[i].as_nanos() as f64)
                .collect();
            median(&walls) as u64
        })
        .collect();
    walls_ns.sort_unstable();
    let minstr: Vec<f64> = sweeps
        .iter()
        .map(|s| s.instructions as f64 / s.wall().as_secs_f64() / 1e6)
        .collect();
    let cells_per_s: Vec<f64> = sweeps
        .iter()
        .map(|s| s.walls.len() as f64 / s.wall().as_secs_f64())
        .collect();
    let ms = |q| percentile(&walls_ns, q).unwrap_or(0) as f64 / 1e6;

    let mut r = Report::default();
    r.set("setup_s", setup_s);
    r.set("sim_minstr_per_s", median(&minstr));
    r.set("req_per_s", median(&cells_per_s));
    r.set("latency_p50_ms", ms(0.50));
    r.set("latency_p99_ms", ms(0.99));
    r.set(
        "peak_rss_mb",
        crate::sys::peak_rss_mb("self").unwrap_or(0.0),
    );
    Ok(Outcome {
        attempted: (sweeps.len() * order.len()) as u64,
        failed: sweeps.iter().map(|s| s.failed).sum(),
        report: r,
    })
}

/// Totals of the traced sweep.
#[derive(Default)]
struct Traced {
    engine_new: Duration,
    engine_run: Duration,
    failed: u64,
    // Exact counts over the measured windows.
    instructions: u64,
    final_cycle: u64,
    l1i_misses: u64,
    l1d_misses: u64,
    l2_misses: u64,
    llc_misses: u64,
    itlb_misses: u64,
    dtlb_misses: u64,
    invalidations: u64,
    transfers: u64,
    migrations: u64,
    // Whole-run call counts (warm-up included) of the replayed layers.
    fetch_calls: f64,
    data_calls: f64,
    heatmap_calls: f64,
}

/// Times `Engine::new` and `Engine::run` around each cell.
fn traced_sweep(params: &ExpParams, order: &[Cell], golden: &[(String, u64)]) -> Traced {
    let mut t = Traced::default();
    for &cell in order {
        let cfg = params.engine_config(cell.technique);
        let sched = cell.technique.scheduler(cfg.system.num_cores);
        let workload = WorkloadSpec::single(cell.benchmark, SCALE);
        let started = Instant::now();
        let engine = Engine::new(cfg, &workload, sched);
        t.engine_new += started.elapsed();
        let Ok(mut engine) = engine else {
            t.failed += 1;
            continue;
        };
        let started = Instant::now();
        let stats = engine.run().cloned();
        t.engine_run += started.elapsed();
        let stats = match stats {
            Ok(stats) if digest_matches(golden, cell, &stats) => stats,
            _ => {
                t.failed += 1;
                continue;
            }
        };
        let m = &stats.mem;
        t.instructions += stats.total_instructions();
        t.final_cycle += stats.final_cycle;
        t.l1i_misses += m.icache_app.misses + m.icache_os.misses;
        t.l1d_misses += m.dcache_app.misses + m.dcache_os.misses;
        t.l2_misses += m.l2.misses;
        t.llc_misses += m.llc.misses;
        t.itlb_misses += m.itlb.misses;
        t.dtlb_misses += m.dtlb.misses;
        t.invalidations += m.coherence_invalidations;
        t.transfers += m.coherence_transfers;
        t.migrations += stats.thread_migrations;
        // Every block reaches the iTLB once and every data reference the
        // dTLB once. Memory counters restart after warm-up, so scale the
        // measured window up to the whole run by workload instructions.
        let window = stats.instructions.total_workload().max(1) as f64;
        let whole = (window + params.warmup_instructions as f64) / window;
        let fetch = (m.itlb.hits + m.itlb.misses) as f64 * whole;
        t.fetch_calls += fetch;
        t.data_calls += (m.dtlb.hits + m.dtlb.misses) as f64 * whole;
        // Only SchedTask loads per-core page heatmaps.
        if cell.technique == Technique::SchedTask {
            t.heatmap_calls += fetch;
        }
    }
    t
}

/// Obs counters over every cell, from a separate untimed sweep (an
/// attached observer would slow the timed one).
fn counted_sweep(
    params: &ExpParams,
    order: &[Cell],
    golden: &[(String, u64)],
) -> (CounterSnapshot, u64) {
    let mut total = CounterSnapshot::default();
    let mut failed = 0;
    for &cell in order {
        let agg = Arc::new(Aggregator::new());
        let stats = RunBuilder::new(params)
            .technique(cell.technique)
            .benchmark(cell.benchmark, SCALE)
            .observer(Arc::clone(&agg) as Arc<dyn Observer>)
            .run();
        match stats {
            Ok(stats) if digest_matches(golden, cell, &stats) => {
                total = total.merged(&agg.counters())
            }
            _ => failed += 1,
        }
    }
    (total, failed)
}

/// The traced run: an untraced sweep, a sweep timed around the engine's
/// entry points, a sweep with an obs counter bank attached, and the
/// per-block layer replays.
pub fn traced(seed: u64) -> Result<Outcome, String> {
    let (golden, _) = setup()?;
    let params = ExpParams::standard();
    let order = seeded_order(seed);

    let untraced = sweep(&params, &order, &golden);
    let t = traced_sweep(&params, &order, &golden);
    let (counters, counted_failed) = counted_sweep(&params, &order, &golden);
    let costs = layers::replay(params.cores, seed);

    let run_ns = t.engine_run.as_nanos().max(1) as f64;
    let events =
        (counters.get(Counter::InterruptSfsCreated) + counters.get(Counter::EpochsRun)) as f64;
    let shares = [
        (
            "workload.next_block_share",
            costs.next_block_ns * t.fetch_calls,
        ),
        ("sim.fetch_code_share", costs.fetch_code_ns * t.fetch_calls),
        ("sim.access_data_share", costs.access_data_ns * t.data_calls),
        (
            "sim.heatmap_insert_share",
            costs.heatmap_insert_ns * t.heatmap_calls,
        ),
        ("kernel.event_queue_share", costs.event_queue_ns * events),
    ];
    let steals = [
        Counter::StealsSameWork,
        Counter::StealsSimilarWork,
        Counter::StealsMaxWaiting,
        Counter::StealsAny,
    ]
    .into_iter()
    .map(|c| counters.get(c))
    .sum::<u64>();

    let mut r = Report::default();
    r.set("kernel.engine_new_ms", t.engine_new.as_secs_f64() * 1e3);
    r.set("kernel.engine_run_s", t.engine_run.as_secs_f64());
    r.set("workload.next_block_ns", costs.next_block_ns);
    r.set("sim.fetch_code_ns", costs.fetch_code_ns);
    r.set("sim.access_data_ns", costs.access_data_ns);
    r.set("sim.tlb_access_ns", costs.tlb_access_ns);
    r.set("sim.directory_ns", costs.directory_ns);
    r.set("sim.heatmap_insert_ns", costs.heatmap_insert_ns);
    r.set("kernel.event_queue_ns", costs.event_queue_ns);
    let mut attributed = 0.0;
    for (name, ns) in shares {
        r.set(name, ns / run_ns);
        attributed += ns / run_ns;
    }
    r.set("kernel.unattributed_share", 1.0 - attributed);
    r.set("sim.instructions", t.instructions as f64);
    r.set("kernel.final_cycle", t.final_cycle as f64);
    r.set("sim.l1i_misses", t.l1i_misses as f64);
    r.set("sim.l1d_misses", t.l1d_misses as f64);
    r.set("sim.l2_misses", t.l2_misses as f64);
    r.set("sim.llc_misses", t.llc_misses as f64);
    r.set("sim.itlb_misses", t.itlb_misses as f64);
    r.set("sim.dtlb_misses", t.dtlb_misses as f64);
    r.set("sim.coherence_invalidations", t.invalidations as f64);
    r.set("sim.coherence_transfers", t.transfers as f64);
    r.set("core.thread_migrations", t.migrations as f64);
    r.set("core.steals", steals as f64);
    r.set(
        "core.epoch_reallocations",
        counters.get(Counter::EpochReallocations) as f64,
    );
    r.set(
        "kernel.dispatches",
        counters.get(Counter::Dispatches) as f64,
    );
    r.set(
        "kernel.component_ticks",
        counters.get(Counter::EngineComponentTicks) as f64,
    );
    let traced_s = (t.engine_new + t.engine_run).as_secs_f64();
    r.set(
        "trace.overhead_pct",
        (traced_s / untraced.wall().as_secs_f64() - 1.0) * 100.0,
    );
    Ok(Outcome {
        attempted: 3 * order.len() as u64,
        failed: untraced.failed + t.failed + counted_failed,
        report: r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_table_covers_every_cell_once() {
        let golden = golden_digests(GOLDEN).expect("table parses");
        assert_eq!(golden.len(), 48);
        for cell in cells() {
            assert_eq!(golden.iter().filter(|(l, _)| *l == cell.label()).count(), 1);
        }
    }

    #[test]
    fn seeded_order_is_a_permutation_fixed_by_the_seed() {
        let a = seeded_order(7);
        assert_eq!(a.len(), 48);
        let labels: std::collections::HashSet<String> = a.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 48);
        let again: Vec<String> = seeded_order(7).iter().map(|c| c.label()).collect();
        let other: Vec<String> = seeded_order(8).iter().map(|c| c.label()).collect();
        let a: Vec<String> = a.iter().map(|c| c.label()).collect();
        assert_eq!(a, again);
        assert_ne!(a, other);
    }

    #[test]
    fn a_wrong_digest_fails_the_cell() {
        let mut p = ExpParams::quick();
        p.cores = 2;
        p.max_instructions = 60_000;
        p.warmup_instructions = 20_000;
        let cell = Cell {
            technique: Technique::Linux,
            benchmark: BenchmarkKind::Find,
        };
        let stats = run_cell(&p, cell).expect("tiny cell runs");
        let right = vec![(cell.label(), digest(&stats))];
        let wrong = vec![(cell.label(), digest(&stats) ^ 1)];
        assert!(digest_matches(&right, cell, &stats));
        assert!(!digest_matches(&wrong, cell, &stats));
        assert!(!digest_matches(&[], cell, &stats));
    }
}

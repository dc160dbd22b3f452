//! Wall-clock performance measurement of the simulator itself
//! (`repro perf`).
//!
//! Every other experiment in this crate measures the *simulated* machine;
//! this one measures the *simulator*: how many simulated instructions per
//! wall-clock second the engine sustains on the standard technique ×
//! benchmark comparison sweep. The resulting JSON artefact
//! (`BENCH_<label>.json`) is checked into the repository so the perf
//! trajectory is tracked across PRs, and the CI `perf-smoke` job compares
//! a fresh quick-mode measurement against the committed baseline.
//!
//! Cells are always run **serially** — parallel workers would contend for
//! cores and corrupt the per-cell wall-clock numbers.

use crate::runner::{ExpParams, RunBuilder, Technique};
use schedtask_obs::escape_json;
use schedtask_workload::BenchmarkKind;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The machine caveat embedded at the top of every artefact.
pub const MACHINE_CAVEAT: &str = "Wall-clock numbers are machine- and load-dependent: compare \
     artefacts only against measurements taken on the same machine class, and expect noise of \
     several percent between runs. Committed baselines are recorded on the PR build container.";

/// One timed sweep cell.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// The scheduling technique.
    pub technique: Technique,
    /// The benchmark.
    pub benchmark: BenchmarkKind,
    /// Simulated instructions retired (all categories, measured window).
    pub instructions: u64,
    /// Simulated cycles in the measured window.
    pub sim_cycles: u64,
    /// Wall-clock time for the whole cell (engine build + run).
    pub wall: Duration,
    /// False when the cell failed (its other fields are zero).
    pub ok: bool,
}

/// Per-technique aggregate of a [`PerfReport`].
#[derive(Debug, Clone)]
pub struct TechniquePerf {
    /// Technique display name.
    pub name: String,
    /// Cells measured.
    pub cells: usize,
    /// Total simulated instructions across the technique's cells.
    pub instructions: u64,
    /// Total simulated cycles.
    pub sim_cycles: u64,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated instructions per wall-clock second.
    pub instr_per_sec: f64,
}

/// A full wall-clock measurement over the comparison sweep.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `standard` or `quick`.
    pub mode: String,
    /// Master seed the sweep ran with.
    pub seed: u64,
    /// Baseline core count.
    pub cores: usize,
    /// Workload scale per cell.
    pub scale: f64,
    /// Every timed cell, technique-major.
    pub cells: Vec<PerfCell>,
}

impl PerfReport {
    /// Runs and times every (technique × benchmark) cell serially.
    pub fn measure(
        params: &ExpParams,
        techniques: &[Technique],
        benchmarks: &[BenchmarkKind],
        scale: f64,
        mode: &str,
    ) -> PerfReport {
        let mut cells = Vec::with_capacity(techniques.len() * benchmarks.len());
        for &technique in techniques {
            for &benchmark in benchmarks {
                let started = Instant::now();
                let result = RunBuilder::new(params)
                    .technique(technique)
                    .benchmark(benchmark, scale)
                    .run();
                let wall = started.elapsed();
                let cell = match result {
                    Ok(stats) => PerfCell {
                        technique,
                        benchmark,
                        instructions: stats.total_instructions(),
                        sim_cycles: stats.final_cycle,
                        wall,
                        ok: true,
                    },
                    Err(_) => PerfCell {
                        technique,
                        benchmark,
                        instructions: 0,
                        sim_cycles: 0,
                        wall,
                        ok: false,
                    },
                };
                cells.push(cell);
            }
        }
        PerfReport {
            mode: mode.to_string(),
            seed: params.seed,
            cores: params.cores,
            scale,
            cells,
        }
    }

    /// Per-technique aggregates in first-appearance order.
    pub fn by_technique(&self) -> Vec<TechniquePerf> {
        let mut rows: Vec<TechniquePerf> = Vec::new();
        for cell in &self.cells {
            let name = cell.technique.name();
            let row = match rows.iter_mut().find(|r| r.name == name) {
                Some(r) => r,
                None => {
                    rows.push(TechniquePerf {
                        name: name.to_string(),
                        cells: 0,
                        instructions: 0,
                        sim_cycles: 0,
                        wall_seconds: 0.0,
                        instr_per_sec: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.cells += 1;
            row.instructions += cell.instructions;
            row.sim_cycles += cell.sim_cycles;
            row.wall_seconds += cell.wall.as_secs_f64();
        }
        for row in &mut rows {
            row.instr_per_sec = if row.wall_seconds > 0.0 {
                row.instructions as f64 / row.wall_seconds
            } else {
                0.0
            };
        }
        rows
    }

    /// Total simulated instructions across all cells.
    pub fn total_instructions(&self) -> u64 {
        self.cells.iter().map(|c| c.instructions).sum()
    }

    /// Total wall-clock seconds across all cells.
    pub fn total_wall_seconds(&self) -> f64 {
        self.cells.iter().map(|c| c.wall.as_secs_f64()).sum()
    }

    /// Simulated instructions per wall-clock second over the whole sweep.
    pub fn instr_per_sec(&self) -> f64 {
        let wall = self.total_wall_seconds();
        if wall > 0.0 {
            self.total_instructions() as f64 / wall
        } else {
            0.0
        }
    }

    /// Sweep cells completed per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        let wall = self.total_wall_seconds();
        if wall > 0.0 {
            self.cells.len() as f64 / wall
        } else {
            0.0
        }
    }

    /// Number of failed cells.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.ok).count()
    }

    /// Renders the artefact as pretty-printed JSON (hand-rolled: the
    /// build environment has no serde).
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"_header\": \"{}\",",
            escape_json(&format!(
                "Wall-clock perf artefact for the SchedTask reproduction simulator. {MACHINE_CAVEAT}"
            ))
        );
        let _ = writeln!(out, "  \"label\": \"{}\",", escape_json(label));
        let _ = writeln!(out, "  \"mode\": \"{}\",", escape_json(&self.mode));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"scale\": {},", fmt_f64(self.scale));
        let _ = writeln!(out, "  \"techniques\": [");
        let rows = self.by_technique();
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"cells\": {}, \"instructions\": {}, \
                 \"sim_cycles\": {}, \"wall_seconds\": {}, \"instr_per_sec\": {}}}{}",
                escape_json(&row.name),
                row.cells,
                row.instructions,
                row.sim_cycles,
                fmt_f64(row.wall_seconds),
                fmt_f64(row.instr_per_sec),
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"totals\": {{");
        let _ = writeln!(out, "    \"cells\": {},", self.cells.len());
        let _ = writeln!(out, "    \"failed_cells\": {},", self.failed());
        let _ = writeln!(out, "    \"instructions\": {},", self.total_instructions());
        let _ = writeln!(
            out,
            "    \"wall_seconds\": {},",
            fmt_f64(self.total_wall_seconds())
        );
        let _ = writeln!(
            out,
            "    \"instr_per_sec\": {},",
            fmt_f64(self.instr_per_sec())
        );
        let _ = writeln!(
            out,
            "    \"cells_per_sec\": {}",
            fmt_f64(self.cells_per_sec())
        );
        out.push_str("  }\n}\n");
        out
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cells ({} failed), {:.1} M simulated instr in {:.2} s wall = {:.2} M instr/s, {:.2} cells/s",
            self.cells.len(),
            self.failed(),
            self.total_instructions() as f64 / 1e6,
            self.total_wall_seconds(),
            self.instr_per_sec() / 1e6,
            self.cells_per_sec(),
        )
    }
}

/// Extracts `totals.instr_per_sec` from an artefact previously written by
/// [`PerfReport::to_json`]. Tiny special-purpose parser — this crate has
/// no JSON dependency — so it only understands that writer's layout.
pub fn baseline_instr_per_sec(artefact: &str) -> Option<f64> {
    let totals = artefact.split("\"totals\"").nth(1)?;
    let after_key = totals.split("\"instr_per_sec\":").nth(1)?;
    let value: String = after_key
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    value.parse().ok()
}

/// Result of comparing a fresh measurement against a committed baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerfCheck {
    /// Within tolerance (or faster). Holds the measured/baseline ratio.
    Pass(f64),
    /// Slower than `baseline * (1 - tolerance)`. Holds the ratio.
    Regression(f64),
}

/// Compares `measured` instr/sec against a baseline artefact's with a
/// relative `tolerance_pct` regression budget.
pub fn check_against_baseline(
    measured: f64,
    baseline_artefact: &str,
    tolerance_pct: f64,
) -> Result<PerfCheck, String> {
    let baseline = baseline_instr_per_sec(baseline_artefact)
        .ok_or_else(|| "baseline artefact has no totals.instr_per_sec".to_string())?;
    if baseline <= 0.0 {
        return Err(format!("baseline instr_per_sec {baseline} is not positive"));
    }
    let ratio = measured / baseline;
    if ratio < 1.0 - tolerance_pct / 100.0 {
        Ok(PerfCheck::Regression(ratio))
    } else {
        Ok(PerfCheck::Pass(ratio))
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        let mut p = ExpParams::quick();
        p.cores = 4;
        p.max_instructions = 120_000;
        p.warmup_instructions = 30_000;
        PerfReport::measure(
            &p,
            &[Technique::Linux, Technique::SchedTask],
            &[BenchmarkKind::Find],
            1.0,
            "test",
        )
    }

    #[test]
    fn measure_times_every_cell() {
        let r = tiny_report();
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.failed(), 0);
        assert!(r.total_instructions() > 0);
        assert!(r.instr_per_sec() > 0.0);
        assert!(r.cells_per_sec() > 0.0);
        assert_eq!(r.by_technique().len(), 2);
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn json_round_trips_instr_per_sec() {
        let r = tiny_report();
        let json = r.to_json("test");
        let parsed = baseline_instr_per_sec(&json).expect("totals present");
        let expected = r.instr_per_sec();
        assert!(
            (parsed - expected).abs() <= expected * 1e-9,
            "{parsed} vs {expected}"
        );
        assert!(json.contains("machine- and load-dependent"));
        assert!(json.contains("\"label\": \"test\""));
    }

    #[test]
    fn regression_check_flags_slowdowns() {
        let r = tiny_report();
        let json = r.to_json("base");
        let base = r.instr_per_sec();
        match check_against_baseline(base * 0.9, &json, 25.0).expect("parses") {
            PerfCheck::Pass(ratio) => assert!((ratio - 0.9).abs() < 1e-6),
            PerfCheck::Regression(_) => panic!("10% slowdown is within a 25% budget"),
        }
        assert!(matches!(
            check_against_baseline(base * 0.5, &json, 25.0).expect("parses"),
            PerfCheck::Regression(_)
        ));
        assert!(check_against_baseline(1.0, "not json", 25.0).is_err());
    }
}

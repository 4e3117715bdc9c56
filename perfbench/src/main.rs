//! `vpsim-perfbench` — the repository's benchmark: three seeded workloads
//! over the vpsim workspace, end-to-end metrics measured with tracing off,
//! per-layer metrics from a separate single-threaded traced run, and an
//! output check that counts every wrong or missing result as a failed
//! operation.
//!
//! ```text
//! vpsim-perfbench --workload grid-full|grid-sampled|serve-mix
//!                 --seed N --seconds S --trace 0|1
//! vpsim-perfbench --regenerate     # rewrite expected/ from the simulator
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod check;
mod grid;
mod host;
mod layers;
mod serve_mix;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use check::Tally;

/// Grid seeds with committed expectations. `--seed` picks one of them
/// (`seed % 4`), so every seed a run can receive is checked against a
/// committed fingerprint; the serve-mix request sequence uses the full
/// seed.
pub const GRID_SEEDS: [u64; 4] = [0x2014, 0x5eed_0001, 0x5eed_0002, 0x5eed_0003];

pub fn grid_seed(seed: u64) -> u64 {
    GRID_SEEDS[(seed % GRID_SEEDS.len() as u64) as usize]
}

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_ns_per_uop", "ns"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
];

/// Per-layer metrics, reported by every traced run: (name, unit). A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isa.capture.ns_per_uop", "ns"),
    ("isa.capture.uops", "count"),
    ("bench.trace_cache.bytes", "B"),
    ("bench.sweep.parallel_efficiency", "ratio"),
    ("uarch.replay.ns_per_uop", "ns"),
    ("uarch.replay.ns_per_uop.baseline", "ns"),
    ("uarch.replay.ns_per_uop.lvp", "ns"),
    ("uarch.replay.ns_per_uop.2d-str", "ns"),
    ("uarch.replay.ns_per_uop.o4-fcm", "ns"),
    ("uarch.replay.ns_per_uop.vtage", "ns"),
    ("uarch.replay.ns_per_cycle", "ns"),
    ("uarch.cell_ms.p50", "ms"),
    ("uarch.cell_ms.p80", "ms"),
    ("uarch.cell_ms.max", "ms"),
    ("sampling.warm.ns_per_uop", "ns"),
    ("sampling.interval.ns_per_uop", "ns"),
    ("sampling.ff_uops", "count"),
    ("sampling.detailed_uops", "count"),
    ("sampling.checkpoint.bytes", "B"),
    ("sampling.ipc_err_max_pct", "%"),
    ("branch.tage.ns_per_branch", "ns"),
    ("branch.tage.accuracy", "ratio"),
    ("core.lvp.ns_per_uop", "ns"),
    ("core.lvp.coverage", "ratio"),
    ("core.lvp.accuracy", "ratio"),
    ("core.2d-str.ns_per_uop", "ns"),
    ("core.2d-str.coverage", "ratio"),
    ("core.2d-str.accuracy", "ratio"),
    ("core.o4-fcm.ns_per_uop", "ns"),
    ("core.o4-fcm.coverage", "ratio"),
    ("core.o4-fcm.accuracy", "ratio"),
    ("core.vtage.ns_per_uop", "ns"),
    ("core.vtage.coverage", "ratio"),
    ("core.vtage.accuracy", "ratio"),
    ("mem.ns_per_access", "ns"),
    ("mem.l1d.miss_ratio", "ratio"),
    ("mem.warm.ns_per_access", "ns"),
    ("store.trace.map_ms", "ms"),
    ("store.trace.save_ms", "ms"),
    ("store.result.load_us", "us"),
    ("store.result.save_us", "us"),
    ("store.trace.hit_ratio", "ratio"),
    ("store.result.hit_ratio", "ratio"),
    ("serve.first_cell_ms.p50", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.busy_refusals", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.jobs_abandoned", "count"),
    ("protocol.render_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
];

/// Share of a traced pass's wall time the layer spans must cover.
pub const ATTRIBUTION_FLOOR_PCT: f64 = 90.0;

/// One run's outcome: failed-operation accounting, metric values by name,
/// other check failures, and human-readable notes printed before the
/// result line.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Print the notes and the final JSON line for the metric list `names`
    /// (metrics not set report 0).
    fn print(&self, names: &[(&str, &str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        for note in &self.tally.notes {
            println!("failed: {note}");
        }
        for error in &self.errors {
            println!("check failed: {error}");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.iter().rev().find(|(n, _)| n == name).map_or(0.0, |m| m.1);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        let correct = self.tally.failed == 0 && self.tally.attempted > 0 && self.errors.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        );
    }
}

/// Scratch directory for stores and span dumps, inside the build
/// directory of the checkout the benchmark runs in.
pub fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    regenerate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 20.0, trace: false, regenerate: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--regenerate" {
            args.regenerate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.regenerate {
        return match grid::regenerate() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (threads, outcome) = match (args.workload.as_str(), args.trace) {
        ("grid-full", false) => {
            (grid::THREADS, grid::run(grid::Grid::Full, args.seed, args.seconds))
        }
        ("grid-full", true) => (1, grid::run_traced(grid::Grid::Full, args.seed)),
        ("grid-sampled", false) => {
            (grid::THREADS, grid::run(grid::Grid::Sampled, args.seed, args.seconds))
        }
        ("grid-sampled", true) => (1, grid::run_traced(grid::Grid::Sampled, args.seed)),
        ("serve-mix", false) => (serve_mix::POOL_THREADS, serve_mix::run(args.seed, args.seconds)),
        ("serve-mix", true) => (1, serve_mix::run_traced(args.seed)),
        (other, _) => {
            eprintln!("error: unknown workload {other:?} (grid-full | grid-sampled | serve-mix)");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(report) => {
            println!(
                "{}",
                host::identity_json(&args.workload, args.seed, grid_seed(args.seed), threads)
            );
            report.print(if args.trace { PER_LAYER } else { END_TO_END });
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

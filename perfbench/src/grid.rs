//! The two grid workloads: the paper's 95-cell grid run in-process through
//! `SweepSpec::run`, in full detail (`grid-full`) and with interval
//! sampling over a 2M-µop window (`grid-sampled`).

use std::time::{Duration, Instant};

use vpsim_bench::scenario::preset;
use vpsim_bench::sweep::{PreparedSweep, SweepSpec};
use vpsim_bench::TraceCache;
use vpsim_core::PredictorKind;
use vpsim_uarch::{SampleConfig, Simulator};

use crate::check::{Counters, Expected};
use crate::host::{peak_rss_mib, process_cpu};
use crate::spans::{check_conservation, Recorder};
use crate::stats::{median, percentile, summary, tail_percentile};
use crate::{grid_seed, layers, work_dir, Report, ATTRIBUTION_FLOOR_PCT, GRID_SEEDS};

/// Worker threads of the untraced runs.
pub const THREADS: usize = 2;
/// Measured µops per cell of `grid-sampled`: about 10× the default sample
/// plan's coverage (20 × (10 000 + 2 000) µops), so fast-forward dominates.
const SAMPLED_MEASURE: u64 = 2_000_000;
/// Repetitions per untraced run, at least; more while `--seconds` allows.
const MIN_REPS: usize = 2;
/// Cold `prepare` timings per run behind `setup_s`, at least.
const MIN_SETUPS: usize = 5;

const FULL_EXPECTED: &str = include_str!("../expected/grid-full.txt");
const SAMPLED_EXPECTED: &str = include_str!("../expected/grid-sampled.txt");
const SAMPLED_REFERENCE: &str = include_str!("../expected/grid-sampled-full-ipc.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Full,
    Sampled,
}

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::Full => "grid-full",
            Grid::Sampled => "grid-sampled",
        }
    }

    /// The `paper-grid` preset at `grid_seed` on `threads` workers, with no
    /// persistent store.
    pub fn spec(self, grid_seed: u64, threads: usize) -> SweepSpec {
        let mut sc = preset("paper-grid").expect("built-in preset");
        sc.settings.seed = grid_seed;
        sc.settings.threads = threads;
        if self == Grid::Sampled {
            sc.settings.measure = SAMPLED_MEASURE;
            sc.settings.sample = Some(SampleConfig::default());
        }
        sc.to_spec()
    }

    fn expected(self) -> Result<Expected, String> {
        Expected::parse(match self {
            Grid::Full => FULL_EXPECTED,
            Grid::Sampled => SAMPLED_EXPECTED,
        })
        .map_err(|e| format!("expected/{}.txt: {e}", self.name()))
    }
}

/// Largest per-cell relative IPC error (percent) of sampled `cells`
/// against the committed full-detail reference.
fn ipc_err_max_pct(grid_seed: u64, cells: &[(usize, Counters)]) -> Result<f64, String> {
    let reference = Expected::parse(SAMPLED_REFERENCE)?;
    let mut worst = 0.0f64;
    for (cell, counters) in cells {
        let Some(&[instructions, cycles]) = reference.get(grid_seed, *cell) else {
            return Err(format!("no full-detail reference for cell {cell} (seed {grid_seed:#x})"));
        };
        let full = instructions as f64 / cycles as f64;
        let sampled = counters.instructions() as f64 / counters.cycles() as f64;
        worst = worst.max(100.0 * (sampled - full).abs() / full);
    }
    Ok(worst)
}

/// Clear the process trace cache and time a cold `prepare` (expansion plus
/// trace capture) — what a CLI invocation pays before simulating.
fn cold_prepare(spec: &SweepSpec) -> f64 {
    TraceCache::global().clear();
    let start = Instant::now();
    drop(spec.prepare());
    start.elapsed().as_secs_f64()
}

/// Untraced run: repeat {cold prepare, `SweepSpec::run`} for `seconds`
/// (at least [`MIN_REPS`] times) and report medians.
pub fn run(grid: Grid, seed: u64, seconds: f64) -> Result<Report, String> {
    let gseed = grid_seed(seed);
    let spec = grid.spec(gseed, THREADS);
    let expected = grid.expected()?;
    let cells_per_rep = spec.job_count();
    let mut report = Report::default();
    let (mut setups, mut walls, mut cpu_per_uop, mut emits) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ipc_err = None;
    let mut peak_rss = None;
    let budget = Duration::from_secs_f64(seconds);
    let measuring = Instant::now();
    loop {
        setups.push(cold_prepare(&spec));
        let mut cells = Vec::with_capacity(cells_per_rep);
        let cpu0 = process_cpu();
        let start = Instant::now();
        let results = spec.run_streamed(|job, result| {
            emits.push(start.elapsed().as_secs_f64() * 1e3);
            cells.push((job.index, Counters::of(result)));
        });
        let wall = start.elapsed();
        let cpu = process_cpu() - cpu0;
        let stepped = results.timing.uops + results.timing.ff_uops;
        // The high-water mark of one prepare + run from a fresh process,
        // before later repetitions free and reallocate the traces.
        peak_rss.get_or_insert_with(peak_rss_mib);
        walls.push(wall.as_secs_f64());
        cpu_per_uop.push(cpu.as_nanos() as f64 / stepped as f64);
        for (cell, counters) in &cells {
            report.tally.record(expected.check_fingerprint(gseed, *cell, counters));
        }
        if cells.len() != cells_per_rep {
            report.errors.push(format!("{} of {cells_per_rep} cells emitted", cells.len()));
        }
        if grid == Grid::Sampled && ipc_err.is_none() {
            ipc_err = Some(ipc_err_max_pct(gseed, &cells)?);
        }
        if walls.len() >= MIN_REPS && measuring.elapsed() >= budget {
            report.notes.push(format!(
                "{}: {} reps x {cells_per_rep} cells, {stepped} µops stepped per rep \
                 (detailed + fast-forwarded), {THREADS} threads",
                grid.name(),
                walls.len()
            ));
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(cold_prepare(&spec));
    }
    TraceCache::global().clear();
    if let Some(worst) = ipc_err {
        report.notes.push(format!(
            "sampled IPC error vs the committed full-detail reference: max {worst:.4}% over {cells_per_rep} cells"
        ));
    }
    report.notes.push(format!("setup_s samples (s): {}", summary(&setups)));
    report.notes.push(format!("wall_s samples (s): {}", summary(&walls)));
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set("cpu_ns_per_uop", median(&cpu_per_uop));
    report.set("peak_rss_mb", peak_rss.expect("at least one repetition ran"));
    report.set("jobs_per_s", cells_per_rep as f64 / median(&walls));
    report.set("job_ms_p50", percentile(&emits, 0.5));
    report.set("job_ms_p90", tail_percentile(&emits, 0.9)?);
    report.notes.push(format!(
        "samples: {} cold prepares, {} reps, {} cell completions behind job_ms",
        setups.len(),
        walls.len(),
        emits.len()
    ));
    Ok(report)
}

/// Per-cell observations of a traced pass.
pub struct CellObs {
    /// `baseline` or the predictor label.
    pub kind: &'static str,
    /// Host time of the cell.
    pub ns: u64,
    /// µops stepped (detailed + fast-forwarded).
    pub stepped: u64,
    /// Measured cycles.
    pub cycles: u64,
}

/// The `uarch.*` per-layer metrics of a set of traced cells.
pub fn report_cells(report: &mut Report, cells: &[CellObs]) {
    let per_uop = |kind: Option<&str>| {
        let (ns, uops) = cells
            .iter()
            .filter(|c| kind.is_none_or(|k| c.kind == k))
            .fold((0u64, 0u64), |(ns, uops), c| (ns + c.ns, uops + c.stepped));
        ns as f64 / uops.max(1) as f64
    };
    report.set("uarch.replay.ns_per_uop", per_uop(None));
    for kind in ["baseline", "lvp", "2d-str", "o4-fcm", "vtage"] {
        report.set(format!("uarch.replay.ns_per_uop.{kind}"), per_uop(Some(kind)));
    }
    let busy_ns: u64 = cells.iter().map(|c| c.ns).sum();
    let cycles: u64 = cells.iter().map(|c| c.cycles).sum();
    report.set("uarch.replay.ns_per_cycle", busy_ns as f64 / cycles.max(1) as f64);
    if !cells.is_empty() {
        let cell_ms: Vec<f64> = cells.iter().map(|c| c.ns as f64 / 1e6).collect();
        report.set("uarch.cell_ms.p50", percentile(&cell_ms, 0.5));
        report.set("uarch.cell_ms.p80", percentile(&cell_ms, 0.8));
        report.set("uarch.cell_ms.max", percentile(&cell_ms, 1.0));
    }
}

pub fn kind_label(kind: PredictorKind) -> &'static str {
    match kind {
        PredictorKind::Lvp => "lvp",
        PredictorKind::TwoDeltaStride => "2d-str",
        PredictorKind::Fcm4 => "o4-fcm",
        PredictorKind::Vtage => "vtage",
        _ => "other",
    }
}

#[derive(Default)]
struct SamplingObs {
    ff_uops: u64,
    detailed_uops: u64,
    checkpoint_bytes: u64,
}

/// Run one sampled cell through the sampling layer's public entry points —
/// one fast-forward pass producing checkpoints, then each detailed
/// interval — and return the summed counters, which must equal the
/// sweep's own sampled result for the cell.
fn sampled_cell(
    rec: &mut Recorder,
    prepared: &PreparedSweep,
    spec: &SweepSpec,
    index: usize,
    obs: &mut SamplingObs,
) -> Result<(Counters, u64), String> {
    let settings = &spec.settings;
    let sample = settings.sample.expect("sampled grid");
    let job = &prepared.jobs()[index];
    let budget = settings.trace_budget(&job.config);
    let (trace, _) = TraceCache::global().get(settings, &job.bench, budget);
    let sim = Simulator::new(job.config.clone());
    let checkpoints = rec.span("sampling.warm", index as u64, |_| {
        sim.sample_checkpoints(&trace, settings.warmup, settings.measure, sample)
    });
    let per_interval = sample.period.min(settings.measure.max(1));
    let mut sum = Counters::default();
    let mut detailed = 0;
    for cp in &checkpoints {
        let result = rec
            .span("sampling.interval", index as u64, |_| {
                sim.run_interval_from(&trace, cp, per_interval)
            })
            .map_err(|e| format!("cell {index}: {e}"))?;
        sum.add(&Counters::of(&result));
        detailed += cp.detailed_warmup() + per_interval;
        obs.checkpoint_bytes += cp.to_bytes().len() as u64;
    }
    let ff = checkpoints.last().map_or(0, |cp| cp.ff_uops());
    obs.ff_uops += ff;
    obs.detailed_uops += detailed;
    Ok((sum, ff + detailed))
}

/// Traced run: untraced 2-thread and 1-thread passes for reference, then
/// one single-threaded pass with a span around every layer call, and the
/// isolated predictor/memory replays of every trace's committed stream.
pub fn run_traced(grid: Grid, seed: u64) -> Result<Report, String> {
    let gseed = grid_seed(seed);
    let expected = grid.expected()?;
    let spec = grid.spec(gseed, 1);
    let parallel = grid.spec(gseed, THREADS);
    let settings = spec.settings;
    let mut report = Report::default();

    // Untraced references: the parallel wall time behind the pool's
    // efficiency, and the serial wall time behind the tracing overhead.
    cold_prepare(&parallel);
    let start = Instant::now();
    parallel.run();
    let wall_parallel = start.elapsed().as_secs_f64();
    let start = Instant::now();
    spec.run();
    let wall_serial = start.elapsed().as_secs_f64();
    TraceCache::global().clear();

    let mut rec = Recorder::new();
    let mut cells: Vec<CellObs> = Vec::new();
    let mut cell_counters = Vec::new();
    let mut samp = SamplingObs::default();
    let mut layer = layers::Totals::default();
    let (mut capture_uops, mut trace_bytes) = (0u64, 0usize);
    let outcome: Result<(), String> = rec.span("pass", 0, |rec| {
        let budget = settings.trace_budget(&spec.base_core());
        for (b, bench) in spec.benches.iter().enumerate() {
            capture_uops +=
                rec.span("isa.capture", b as u64, |_| settings.capture(bench, budget).len()) as u64;
        }
        let prepared = rec.span("bench.prepare", 0, |_| spec.prepare());
        trace_bytes = TraceCache::global().approx_bytes();
        rec.span("bench.sweep", 0, |rec| -> Result<(), String> {
            for &index in prepared.sim_indices() {
                let job = &prepared.jobs()[index];
                let before = rec.spans().len();
                let (counters, stepped) =
                    rec.span("uarch.replay", index as u64, |rec| match grid {
                        Grid::Full => Ok((
                            Counters::of(&prepared.run_cell(index)),
                            settings.warmup + settings.measure,
                        )),
                        Grid::Sampled => sampled_cell(rec, &prepared, &spec, index, &mut samp),
                    })?;
                cells.push(CellObs {
                    kind: job.point.map_or("baseline", |p| kind_label(p.kind)),
                    ns: rec.spans()[before].ns(),
                    stepped,
                    cycles: counters.cycles(),
                });
                report.tally.record(expected.check_fingerprint(gseed, index, &counters));
                cell_counters.push((index, counters));
            }
            Ok(())
        })?;
        // Isolated replays of each workload's committed stream, over the
        // grid-full window, through the layers' public APIs.
        let full = Grid::Full.spec(gseed, 1);
        let window = full.settings.trace_budget(&full.base_core()) as usize;
        for (b, bench) in spec.benches.iter().enumerate() {
            let (trace, _) = TraceCache::global().get(&settings, bench, budget);
            let stream = rec
                .span("isa.decode", b as u64, |_| trace.cursor().take(window).collect::<Vec<_>>());
            layers::replay(rec, b as u64, &stream, gseed, &mut layer);
        }
        Ok(())
    });
    outcome?;
    TraceCache::global().clear();

    if grid == Grid::Sampled {
        report.set("sampling.ipc_err_max_pct", ipc_err_max_pct(gseed, &cell_counters)?);
        let (_, warm_ns) = rec.total("sampling.warm");
        let (_, interval_ns) = rec.total("sampling.interval");
        report.set("sampling.warm.ns_per_uop", warm_ns as f64 / samp.ff_uops.max(1) as f64);
        report.set(
            "sampling.interval.ns_per_uop",
            interval_ns as f64 / samp.detailed_uops.max(1) as f64,
        );
        report.set("sampling.ff_uops", samp.ff_uops as f64);
        report.set("sampling.detailed_uops", samp.detailed_uops as f64);
        report.set("sampling.checkpoint.bytes", samp.checkpoint_bytes as f64);
    }

    let (_, capture_ns) = rec.total("isa.capture");
    report.set("isa.capture.ns_per_uop", capture_ns as f64 / capture_uops.max(1) as f64);
    report.set("isa.capture.uops", capture_uops as f64);
    report.set("bench.trace_cache.bytes", trace_bytes as f64);
    let busy_ns: u64 = cells.iter().map(|c| c.ns).sum();
    report.set(
        "bench.sweep.parallel_efficiency",
        busy_ns as f64 / 1e9 / (THREADS as f64 * wall_parallel),
    );
    report_cells(&mut report, &cells);
    layer.report(&rec, &mut report);

    let sweep_ns = rec.total("bench.sweep").1;
    report.set("trace.overhead_pct", 100.0 * (sweep_ns as f64 / 1e9 / wall_serial - 1.0));
    match check_conservation(rec.spans(), 0, ATTRIBUTION_FLOOR_PCT) {
        Ok(pct) => report.set("trace.attributed_pct", pct),
        Err(e) => report.errors.push(format!("span conservation: {e}")),
    }
    let dump = work_dir().join(format!("spans-{}-{seed}.jsonl", grid.name()));
    std::fs::create_dir_all(work_dir())
        .and_then(|()| std::fs::write(&dump, rec.to_jsonl()))
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    report.notes.push(format!(
        "{}: traced single-threaded pass, {} spans written to {}; untraced wall {wall_serial:.3} s \
         on 1 thread, {wall_parallel:.3} s on {THREADS}",
        grid.name(),
        rec.spans().len(),
        dump.display()
    ));
    Ok(report)
}

/// Rewrite the committed expectations from the simulator itself: the
/// per-cell fingerprints of both grids and the full-detail IPC reference
/// of the sampled grid, for every seed in [`GRID_SEEDS`].
pub fn regenerate() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    let header = |what: &str| {
        format!(
            "# {what}\n# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --regenerate\n"
        )
    };
    let mut full =
        header("grid-full: grid_seed cell fingerprint (FNV-1a 64 over every RunResult counter)");
    let mut sampled =
        header("grid-sampled: grid_seed cell fingerprint (FNV-1a 64 over every RunResult counter)");
    let mut reference = header(
        "grid-sampled full-detail reference (sampling off, same 50k warm-up + 2M measured window): \
         grid_seed cell instructions cycles. Statistics start after each cell's detailed warm-up.",
    );
    for &gseed in &GRID_SEEDS {
        for (grid, out) in [(Grid::Full, &mut full), (Grid::Sampled, &mut sampled)] {
            eprintln!("regenerate: {} seed {gseed:#x}", grid.name());
            TraceCache::global().clear();
            grid.spec(gseed, THREADS).run_streamed(|job, result| {
                out.push_str(&format!(
                    "{gseed:#x} {} {:#018x}\n",
                    job.index,
                    Counters::of(result).fingerprint()
                ));
            });
        }
        eprintln!("regenerate: grid-sampled full-detail reference seed {gseed:#x}");
        let mut spec = Grid::Sampled.spec(gseed, THREADS);
        spec.settings.sample = None;
        TraceCache::global().clear();
        spec.run_streamed(|job, result| {
            let c = Counters::of(result);
            reference.push_str(&format!(
                "{gseed:#x} {} {} {}\n",
                job.index,
                c.instructions(),
                c.cycles()
            ));
        });
    }
    TraceCache::global().clear();
    for (name, text) in [
        ("grid-full.txt", full),
        ("grid-sampled.txt", sampled),
        ("grid-sampled-full-ipc.txt", reference),
    ] {
        std::fs::write(dir.join(name), text).map_err(|e| format!("cannot write {name}: {e}"))?;
    }
    Ok(())
}

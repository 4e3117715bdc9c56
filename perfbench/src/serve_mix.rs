//! The `serve-mix` workload: an in-process `vpsim_serve` server on a fresh
//! store, driven through `remote::submit` by a closed loop of client
//! connections with a seeded sequence of small grids in three classes:
//!
//! * **hot** — an exact repeat of a finished job: served from the result
//!   cache with zero simulation;
//! * **warm** — a known workload seed at a new core point: the trace is
//!   already captured (in the server's trace cache), every cell simulates;
//! * **cold** — a new workload seed: capture, trace-store write, simulate.
//!
//! Every returned table is compared byte-for-byte with an in-process
//! `SweepSpec::run` of the same scenario.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use vpsim_bench::protocol::render_output;
use vpsim_bench::remote::{self, RemoteOutcome};
use vpsim_bench::scenario::Scenario;
use vpsim_bench::store::{cell_key, ResultCache, TraceStore};
use vpsim_bench::{Format, TraceCache, View};
use vpsim_serve::{start, ServerConfig, ServerHandle};

use crate::check::Tally;
use crate::grid::{kind_label, report_cells, CellObs};
use crate::host::{peak_rss_mib, process_cpu};
use crate::spans::{check_conservation, Recorder};
use crate::stats::{median, percentile, summary, tail_percentile};
use crate::{work_dir, Report, ATTRIBUTION_FLOOR_PCT};

/// Server worker-pool threads of the untraced runs.
pub const POOL_THREADS: usize = 2;
/// Closed-loop client connections of the untraced runs.
const CLIENTS: usize = 2;
/// Admission cap: above the client count, so no submission is refused.
const QUEUE_CAP: usize = 4;
/// Jobs per repetition; every repetition replays the same sequence on a
/// fresh server and store.
const JOBS_PER_REP: usize = 200;
const HOT_PCT: usize = 55;
const WARM_PCT: usize = 25;
const WARMUP: u64 = 5_000;
const MEASURE: u64 = 20_000;
const PREDICTORS: [&str; 4] = ["lvp", "2d-str", "fcm", "vtage"];
/// Core points a workload seed can be revisited at (`core.iq_entries`).
const WARM_VARIANTS: u64 = 32;
const MIN_REPS: usize = 2;
const MIN_SETUPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hot,
    Warm,
    Cold,
}

/// One request of the sequence.
#[derive(Debug, Clone)]
pub struct Job {
    pub class: Class,
    /// The `.vps` scenario text submitted.
    pub text: String,
    /// The earlier job this one needs finished first: the repeated job
    /// (hot) or the job that captured its workload (warm).
    pub dep: Option<usize>,
    pub workload_seed: u64,
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Exact class counts of an `n`-job sequence: (hot, warm, cold).
pub fn quotas(n: usize) -> (usize, usize, usize) {
    let hot = n * HOT_PCT / 100;
    let warm = n * WARM_PCT / 100;
    (hot, warm, n - hot - warm)
}

/// Seeded round robin: every item once per shuffled pass, so a short
/// sequence still covers the whole list evenly whatever the seed.
struct Deck<T: Copy> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy + PartialEq> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Deck { items, next }
    }

    fn draw(&mut self, rng: &mut SplitMix) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }

    /// `n` distinct items, comma-separated.
    fn list(&mut self, rng: &mut SplitMix, n: usize) -> String
    where
        T: std::fmt::Display,
    {
        let mut picked: Vec<T> = Vec::new();
        while picked.len() < n {
            let item = self.draw(rng);
            if !picked.contains(&item) {
                picked.push(item);
            }
        }
        picked.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
    }
}

/// The seeded request sequence: exact class quotas in shuffled order,
/// starting with a cold job.
pub fn sequence(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = SplitMix(seed ^ 0x5e4e_0001_c0de_2014);
    let (hot, warm, cold) = quotas(n);
    let mut classes: Vec<Class> = [(Class::Hot, hot), (Class::Warm, warm), (Class::Cold, cold)]
        .iter()
        .flat_map(|&(c, k)| std::iter::repeat_n(c, k))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i + 1));
    }
    if let Some(first_cold) = classes.iter().position(|&c| c == Class::Cold) {
        classes.swap(0, first_cold);
    }
    let mut benches = Deck::new(vpsim_workloads::all_benchmarks().iter().map(|b| b.name).collect());
    let mut predictors = Deck::new(PREDICTORS.to_vec());
    // (job, benchmarks, variants used) of each cold job, by position.
    let mut origins: Vec<(usize, String, u64)> = Vec::new();
    let mut jobs: Vec<Job> = Vec::with_capacity(n);
    for (k, class) in classes.into_iter().enumerate() {
        let job = match class {
            Class::Cold => {
                // Half the cold jobs run two benchmarks, half two predictors.
                let n = origins.len();
                let benches = benches.list(&mut rng, 1 + n % 2);
                let predictors = predictors.list(&mut rng, 1 + n / 2 % 2);
                let workload_seed = rng.next() >> 16;
                origins.push((k, benches.clone(), 0));
                Job {
                    class,
                    text: scenario_text(&benches, &predictors, workload_seed, None),
                    dep: None,
                    workload_seed,
                }
            }
            Class::Warm => {
                let start = rng.below(origins.len());
                let pick = (0..origins.len())
                    .map(|i| (start + i) % origins.len())
                    .find(|&i| origins[i].2 < WARM_VARIANTS)
                    .expect("fewer warm jobs than core points");
                origins[pick].2 += 1;
                let (origin, benches, variant) = origins[pick].clone();
                let workload_seed = jobs[origin].workload_seed;
                // 128 is the default IQ size; every variant differs from it.
                let iq = 128 + 4 * variant;
                Job {
                    class,
                    text: scenario_text(
                        &benches,
                        &predictors.list(&mut rng, 1),
                        workload_seed,
                        Some(iq),
                    ),
                    dep: Some(origin),
                    workload_seed,
                }
            }
            Class::Hot => {
                // Prefer a job two or more places back, which a two-client
                // closed loop has normally finished already.
                let j = if k >= 3 { rng.below(k - 2) } else { rng.below(k) };
                Job {
                    class,
                    text: jobs[j].text.clone(),
                    dep: Some(j),
                    workload_seed: jobs[j].workload_seed,
                }
            }
        };
        jobs.push(job);
    }
    jobs
}

fn scenario_text(benches: &str, predictors: &str, seed: u64, iq: Option<u64>) -> String {
    let mut text = format!(
        "benchmarks = {benches}\npredictors = {predictors}\nwarmup = {WARMUP}\nmeasure = {MEASURE}\nseed = {seed}\n"
    );
    if let Some(iq) = iq {
        text.push_str(&format!("core.iq_entries = {iq}\n"));
    }
    text
}

/// Check the sequence's shape and return its (hot, warm, cold) counts.
pub fn check_sequence(jobs: &[Job]) -> Result<(usize, usize, usize), String> {
    let count = |c| jobs.iter().filter(|j| j.class == c).count();
    let counts = (count(Class::Hot), count(Class::Warm), count(Class::Cold));
    if counts != quotas(jobs.len()) {
        return Err(format!("class counts {counts:?}, expected {:?}", quotas(jobs.len())));
    }
    if jobs.first().is_some_and(|j| j.class != Class::Cold) {
        return Err("the first job is not cold".into());
    }
    let mut seen = std::collections::HashSet::new();
    for (k, job) in jobs.iter().enumerate() {
        let dep = job.dep.map(|d| (d, &jobs[d]));
        let ok = match (job.class, dep) {
            (Class::Cold, None) => seen.insert(job.workload_seed),
            (Class::Warm, Some((d, origin))) => {
                d < k && origin.class == Class::Cold && origin.workload_seed == job.workload_seed
            }
            (Class::Hot, Some((d, repeated))) => d < k && repeated.text == job.text,
            _ => false,
        };
        if !ok {
            return Err(format!("job {k} ({:?}) has an inconsistent dependency", job.class));
        }
    }
    Ok(counts)
}

fn parse(job: &Job) -> Result<Scenario, String> {
    let mut sc = Scenario::default();
    sc.apply_text(&job.text)?;
    sc.validate()?;
    Ok(sc)
}

struct Outcome {
    ms: f64,
    first_cell_ms: Option<f64>,
    result: Result<RemoteOutcome, String>,
}

fn submit_one(addr: &str, scenario: &Scenario) -> Outcome {
    let start = Instant::now();
    let mut first = None;
    let result = remote::submit(addr, scenario, View::Long, Format::Ascii, |_| {
        first.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
    });
    Outcome { ms: start.elapsed().as_secs_f64() * 1e3, first_cell_ms: first, result }
}

const POISONED: &str = "a client thread panicked";

/// Closed loop: `clients` connections each take the next job, wait until
/// its dependency has finished, submit, and record the outcome.
fn drive(addr: &str, jobs: &[Job], scenarios: &[Scenario], clients: usize) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(vec![false; jobs.len()]);
    let finished = Condvar::new();
    let outcomes: Mutex<Vec<Option<Outcome>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k >= jobs.len() {
                    break;
                }
                if let Some(d) = jobs[k].dep {
                    let mut done = done.lock().expect(POISONED);
                    while !done[d] {
                        done = finished.wait(done).expect(POISONED);
                    }
                }
                let outcome = submit_one(addr, &scenarios[k]);
                outcomes.lock().expect(POISONED)[k] = Some(outcome);
                done.lock().expect(POISONED)[k] = true;
                finished.notify_all();
            });
        }
    });
    outcomes.into_inner().expect(POISONED).into_iter().map(|o| o.expect("every job ran")).collect()
}

/// `key=value` field of a `STATS` line.
fn stat(stats: &str, key: &str) -> Option<u64> {
    stats.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// One failed operation per error reply, dropped connection, exhausted
/// busy retry, table mismatch, or exact repeat that simulated.
fn check_outcomes(
    jobs: &[Job],
    outcomes: &[Outcome],
    refs: &HashMap<String, String>,
    tally: &mut Tally,
) {
    for (k, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
        tally.record(match &outcome.result {
            Err(e) => Err(format!("job {k}: {e}")),
            Ok(o) if refs.get(&job.text) != Some(&o.table) => {
                Err(format!("job {k}: table differs from an in-process SweepSpec::run"))
            }
            Ok(o) if job.class == Class::Hot && stat(&o.stats, "cells_simulated") != Some(0) => {
                Err(format!(
                    "job {k}: exact repeat was not served from the result cache: {}",
                    o.stats
                ))
            }
            Ok(_) => Ok(()),
        });
    }
}

/// µops the server simulated for `outcomes` (every simulated cell replays
/// warm-up plus measurement).
fn simulated_uops(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|o| stat(&o.stats, "cells_simulated").unwrap_or(0) * (WARMUP + MEASURE))
        .sum()
}

/// Start a server on a fresh store under `dir` with a cleared process
/// trace cache, and time it until the first `PING` succeeds.
///
/// The store's (empty) directories exist before the clock starts, as for
/// a server restarted on its store: creating them right after deleting
/// the previous store's files times the filesystem journal, not the
/// server.
///
/// The server listens on an explicit port below the ephemeral range, as a
/// deployed `serve --addr` does: binding port 0 makes the kernel search
/// the ephemeral range, which thousands of client sockets in TIME_WAIT
/// (one per submission) slow down by milliseconds.
fn start_server(dir: &Path, threads: usize) -> Result<(ServerHandle, String, f64), String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let _ = std::fs::remove_dir_all(dir);
    for sub in ["traces", "results"] {
        std::fs::create_dir_all(dir.join(sub))
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    TraceCache::global().clear();
    let mut last_error = String::new();
    for _ in 0..32 {
        let n = NEXT.fetch_add(1, Ordering::Relaxed) as u64;
        let port = 20_000 + (std::process::id() as u64 * 7_919 + n * 104_729) % 10_000;
        let start_at = Instant::now();
        let config = ServerConfig {
            addr: format!("127.0.0.1:{port}"),
            store_dir: Some(dir.to_path_buf()),
            threads,
            queue_cap: QUEUE_CAP,
        };
        match start(config) {
            Ok(handle) => {
                let addr = handle.addr().to_string();
                remote::ping(&addr)?;
                return Ok((handle, addr, start_at.elapsed().as_secs_f64()));
            }
            Err(e) => last_error = e,
        }
    }
    Err(format!("no free port for the server: {last_error}"))
}

fn stop_server(handle: ServerHandle, dir: &Path) {
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

fn store_dir(tag: &str) -> PathBuf {
    work_dir().join(format!("serve-{tag}-{}", std::process::id()))
}

/// The in-process reference table of every distinct scenario.
fn references(jobs: &[Job], scenarios: &[Scenario]) -> HashMap<String, String> {
    let mut refs = HashMap::new();
    for (job, sc) in jobs.iter().zip(scenarios) {
        if !refs.contains_key(&job.text) {
            let mut spec = sc.to_spec();
            spec.settings.threads = POOL_THREADS;
            refs.insert(job.text.clone(), render_output(&spec.run(), View::Long, Format::Ascii));
        }
    }
    TraceCache::global().clear();
    refs
}

fn prepare(seed: u64, report: &mut Report) -> Result<(Vec<Job>, Vec<Scenario>), String> {
    let jobs = sequence(seed, JOBS_PER_REP);
    match check_sequence(&jobs) {
        Ok((hot, warm, cold)) => report.notes.push(format!(
            "serve-mix sequence: {} jobs per rep — {hot} hot, {warm} warm, {cold} cold",
            jobs.len()
        )),
        Err(e) => report.errors.push(format!("request sequence: {e}")),
    }
    let scenarios = jobs.iter().map(parse).collect::<Result<Vec<_>, _>>()?;
    Ok((jobs, scenarios))
}

/// Untraced run: repeat the sequence on a fresh server and store for
/// `seconds` (at least [`MIN_REPS`] times) and report medians.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let (jobs, scenarios) = prepare(seed, &mut report)?;
    let dir = store_dir("store");
    let mut peak_rss = None;
    let mut reps = Vec::new();
    let (mut setups, mut walls, mut cpu_per_uop) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let measuring = Instant::now();
    loop {
        let (handle, addr, setup) = start_server(&dir, POOL_THREADS)?;
        let cpu0 = process_cpu();
        let start_at = Instant::now();
        let outcomes = drive(&addr, &jobs, &scenarios, CLIENTS);
        let wall = start_at.elapsed();
        let cpu = process_cpu() - cpu0;
        stop_server(handle, &dir);
        setups.push(setup);
        walls.push(wall.as_secs_f64());
        cpu_per_uop.push(cpu.as_nanos() as f64 / simulated_uops(&outcomes).max(1) as f64);
        // The high-water mark of one fresh server's sequence, before the
        // reference runs and later repetitions.
        peak_rss.get_or_insert_with(peak_rss_mib);
        latencies.extend(outcomes.iter().map(|o| o.ms));
        reps.push(outcomes);
        if walls.len() >= MIN_REPS && measuring.elapsed() >= budget {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let (handle, _, setup) = start_server(&dir, POOL_THREADS)?;
        stop_server(handle, &dir);
        setups.push(setup);
    }
    let refs = references(&jobs, &scenarios);
    for outcomes in &reps {
        check_outcomes(&jobs, outcomes, &refs, &mut report.tally);
    }
    report.notes.push(format!("setup_s samples (s): {}", summary(&setups)));
    report.notes.push(format!("wall_s samples (s): {}", summary(&walls)));
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&walls));
    report.set("cpu_ns_per_uop", median(&cpu_per_uop));
    report.set("peak_rss_mb", peak_rss.expect("at least one repetition ran"));
    report.set("jobs_per_s", jobs.len() as f64 / median(&walls));
    report.set("job_ms_p50", percentile(&latencies, 0.5));
    report.set("job_ms_p90", tail_percentile(&latencies, 0.9)?);
    report.notes.push(format!(
        "samples: {} server starts, {} reps on {POOL_THREADS} pool threads x {CLIENTS} clients, \
         {} job latencies",
        setups.len(),
        walls.len(),
        latencies.len()
    ));
    Ok(report)
}

/// Traced run: one client and one pool thread. An untraced pass of the
/// sequence gives the overhead baseline; the traced pass spans every
/// submission, then the reference check (capture, prepare, each cell,
/// render) and a probe of the store's trace and result paths.
pub fn run_traced(seed: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let (jobs, scenarios) = prepare(seed, &mut report)?;
    let dir = store_dir("traced");

    let (handle, addr, _) = start_server(&dir, 1)?;
    let start_at = Instant::now();
    let untraced = drive(&addr, &jobs, &scenarios, 1);
    let wall_untraced = start_at.elapsed().as_secs_f64();
    stop_server(handle, &dir);

    let (handle, addr, _) = start_server(&dir, 1)?;
    let mut rec = Recorder::new();
    let mut outcomes = Vec::new();
    let mut refs = HashMap::new();
    let mut cells = Vec::new();
    let mut captured = Vec::new();
    let mut results = Vec::new();
    let mut trace_bytes = 0;
    let probe = dir.join("probe");
    let pass: Result<(), String> = rec.span("pass", 0, |rec| {
        rec.span("serve.loop", 0, |rec| {
            for (k, sc) in scenarios.iter().enumerate() {
                outcomes.push(rec.span("serve.job", k as u64, |_| submit_one(&addr, sc)));
            }
        });
        trace_bytes = TraceCache::global().approx_bytes();
        for (k, (job, sc)) in jobs.iter().zip(&scenarios).enumerate() {
            if refs.contains_key(&job.text) {
                continue;
            }
            let spec = sc.to_spec();
            let settings = spec.settings;
            let budget = settings.trace_budget(&spec.base_core());
            if job.class == Class::Cold {
                for bench in &spec.benches {
                    let trace =
                        rec.span("isa.capture", k as u64, |_| settings.capture(bench, budget));
                    captured.push((bench.name, settings.seed, budget, trace));
                }
            }
            let prepared = rec.span("bench.prepare", k as u64, |_| spec.prepare());
            for &index in prepared.sim_indices() {
                let before = rec.spans().len();
                let result = rec.span("uarch.replay", k as u64, |_| prepared.run_cell(index));
                let cell = &prepared.jobs()[index];
                cells.push(CellObs {
                    kind: cell.point.map_or("baseline", |p| kind_label(p.kind)),
                    ns: rec.spans()[before].ns(),
                    stepped: WARMUP + MEASURE,
                    cycles: result.metrics.cycles,
                });
                results.push((cell_key(&settings, cell), result));
            }
            let finished = prepared.finish();
            let table = rec.span("protocol.render", k as u64, |_| {
                render_output(&finished, View::Long, Format::Ascii)
            });
            refs.insert(job.text.clone(), table);
        }
        let traces = TraceStore::open(probe.join("traces"))?;
        let cache = ResultCache::open(probe.join("results"))?;
        for (i, (name, seed, budget, trace)) in captured.iter().enumerate() {
            let complete = (trace.len() as u64) < *budget;
            rec.span("store.trace.save", i as u64, |_| {
                traces.save(name, 1, *seed, *budget, complete, trace)
            });
            let mapped = rec.span("store.trace.map", i as u64, |_| traces.map(name, 1, *seed));
            if !mapped.is_some_and(|m| m.covers(*budget) && m.len() == trace.len()) {
                return Err(format!("trace store lost {name} seed {seed}"));
            }
        }
        for (i, (key, result)) in results.iter().enumerate() {
            rec.span("store.result.save", i as u64, |_| cache.save(key, result));
            let loaded = rec.span("store.result.load", i as u64, |_| cache.load(key));
            if loaded.as_ref() != Some(result) {
                return Err(format!("result cache returned a different record for {key}"));
            }
        }
        Ok(())
    });
    let metrics = handle.metrics();
    stop_server(handle, &dir);
    TraceCache::global().clear();
    if let Err(e) = pass {
        report.errors.push(e);
    }
    check_outcomes(&jobs, &outcomes, &refs, &mut report.tally);
    check_outcomes(&jobs, &untraced, &refs, &mut report.tally);

    let served: Vec<&RemoteOutcome> =
        outcomes.iter().filter_map(|o| o.result.as_ref().ok()).collect();
    let sum = |key: &str| served.iter().map(|o| stat(&o.stats, key).unwrap_or(0)).sum::<u64>();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let (hits, misses) = (sum("trace_store_hits"), sum("trace_store_misses"));
    report.set("store.trace.hit_ratio", ratio(hits, hits + misses));
    let cells_served: u64 = served.iter().map(|o| o.cells as u64).sum();
    report.set("store.result.hit_ratio", ratio(sum("result_cache_hits"), cells_served));
    let mean_ms = |name: &str, scale: f64| {
        let (n, ns) = rec.total(name);
        ns as f64 / n.max(1) as f64 / scale
    };
    report.set("store.trace.map_ms", mean_ms("store.trace.map", 1e6));
    report.set("store.trace.save_ms", mean_ms("store.trace.save", 1e6));
    report.set("store.result.load_us", mean_ms("store.result.load", 1e3));
    report.set("store.result.save_us", mean_ms("store.result.save", 1e3));
    report.set("protocol.render_ms", mean_ms("protocol.render", 1e6));
    let (_, capture_ns) = rec.total("isa.capture");
    let capture_uops: u64 = captured.iter().map(|c| c.3.len() as u64).sum();
    report.set("isa.capture.ns_per_uop", capture_ns as f64 / capture_uops.max(1) as f64);
    report.set("isa.capture.uops", capture_uops as f64);
    report_cells(&mut report, &cells);
    report.set("bench.trace_cache.bytes", trace_bytes as f64);

    let waits: Vec<f64> =
        served.iter().filter_map(|o| stat(&o.stats, "queue_wait_ms")).map(|w| w as f64).collect();
    if !waits.is_empty() {
        report.set("serve.queue_wait_ms.p50", percentile(&waits, 0.5));
        report.set("serve.queue_wait_ms.p90", tail_percentile(&waits, 0.9)?);
    }
    let firsts: Vec<f64> = outcomes.iter().filter_map(|o| o.first_cell_ms).collect();
    if !firsts.is_empty() {
        report.set("serve.first_cell_ms.p50", median(&firsts));
    }
    let busy = outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_err_and(|e| e.contains("server busy")))
        .count();
    report.set("serve.busy_refusals", busy as f64);
    report.set("serve.jobs_failed", metrics.jobs_failed.load(Ordering::Relaxed) as f64);
    report.set("serve.jobs_abandoned", metrics.jobs_abandoned.load(Ordering::Relaxed) as f64);

    let loop_ns = rec.total("serve.loop").1;
    report.set("trace.overhead_pct", 100.0 * (loop_ns as f64 / 1e9 / wall_untraced - 1.0));
    match check_conservation(rec.spans(), 0, ATTRIBUTION_FLOOR_PCT) {
        Ok(pct) => report.set("trace.attributed_pct", pct),
        Err(e) => report.errors.push(format!("span conservation: {e}")),
    }
    let dump = work_dir().join(format!("spans-serve-mix-{seed}.jsonl"));
    std::fs::create_dir_all(work_dir())
        .and_then(|()| std::fs::write(&dump, rec.to_jsonl()))
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    report.notes.push(format!(
        "serve-mix: traced pass on 1 pool thread x 1 client, {} spans written to {}; \
         untraced pass {wall_untraced:.3} s",
        rec.spans().len(),
        dump.display()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_seeded_and_meets_its_quotas() {
        let a = sequence(7, JOBS_PER_REP);
        let b = sequence(7, JOBS_PER_REP);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text && x.dep == y.dep));
        assert_ne!(
            a.iter().map(|j| &j.text).collect::<Vec<_>>(),
            sequence(8, JOBS_PER_REP).iter().map(|j| &j.text).collect::<Vec<_>>()
        );
        for seed in 0..20 {
            let jobs = sequence(seed, JOBS_PER_REP);
            assert_eq!(check_sequence(&jobs), Ok((110, 50, 40)), "seed {seed}");
            assert!(jobs.iter().all(|j| parse(j).is_ok()));
        }
    }

    #[test]
    fn broken_sequences_are_caught() {
        let mut jobs = sequence(3, JOBS_PER_REP);
        let hot = jobs.iter().position(|j| j.class == Class::Hot).unwrap();
        jobs[hot].text.push_str("seed = 1\n");
        assert!(check_sequence(&jobs).unwrap_err().contains("inconsistent"));
        let mut jobs = sequence(3, JOBS_PER_REP);
        jobs[0].class = Class::Hot;
        assert!(check_sequence(&jobs).is_err());
    }

    #[test]
    fn stats_fields_parse() {
        let line = "STATS result_cache_hits=3 cells_simulated=0 trace_store_hits=0 \
                    trace_store_misses=1 queue_wait_ms=4 wall_ms=9";
        assert_eq!(stat(line, "cells_simulated"), Some(0));
        assert_eq!(stat(line, "queue_wait_ms"), Some(4));
        assert_eq!(stat(line, "wall"), None);
    }
}

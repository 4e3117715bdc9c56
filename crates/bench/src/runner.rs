//! Shared machinery for running benchmark × configuration sweeps.

use crate::TraceCache;
use vpsim_core::{ConfidenceScheme, PredictorKind};
use vpsim_isa::Trace;
use vpsim_stats::mean;
use vpsim_uarch::tap::PipeEventSink;
use vpsim_uarch::{
    CoreConfig, RecoveryPolicy, RunResult, SampleConfig, SampledResult, Simulator, VpConfig,
};
use vpsim_workloads::{Benchmark, WorkloadParams};

/// Simulation sizing for a sweep.
///
/// Paper scale is 50 M warm-up + 50 M measured per Simpoint slice; the
/// defaults here (50 k + 200 k) keep a full `paper all` run to minutes
/// while preserving every qualitative trend. Use `--warmup`/`--measure`
/// to run at larger scales.
///
/// # Examples
///
/// ```
/// use vpsim_bench::RunSettings;
/// use vpsim_workloads::benchmark;
///
/// let s = RunSettings { warmup: 1_000, measure: 5_000, ..RunSettings::default() };
/// let r = s.run_baseline(&benchmark("gzip").unwrap());
/// assert_eq!(r.metrics.instructions, 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSettings {
    /// Committed instructions simulated before measurement starts.
    pub warmup: u64,
    /// Committed instructions measured.
    pub measure: u64,
    /// Workload scale multiplier.
    pub scale: usize,
    /// Seed for workload data and predictor randomness.
    pub seed: u64,
    /// Worker threads used by grid execution ([`crate::sweep::run_grid`]);
    /// `1` runs serially on the calling thread. Parallel output is
    /// bit-identical to serial, so this only affects wall-clock time.
    pub threads: usize,
    /// Opt-in sampled replay (`--sample` / scenario key `sample`): when
    /// set, trace-driven runs measure only the configured number of
    /// intervals in detail and fast-forward functionally between them
    /// (see `vpsim_uarch::sampling`). `None` (the default) replays every
    /// µop — byte-identical to the pre-sampling behaviour.
    pub sample: Option<SampleConfig>,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            warmup: 50_000,
            measure: 200_000,
            scale: 1,
            seed: 0x2014,
            threads: 1,
            sample: None,
        }
    }
}

impl RunSettings {
    /// Check the sizing invariants and return the first violation: a
    /// measurement window and workload scale of zero are meaningless, and a
    /// zero worker count is rejected rather than silently clamped (`1`
    /// means "run serially on the calling thread").
    ///
    /// Scenario loading ([`crate::scenario::Scenario::validate`]) and the
    /// binaries surface these errors before any simulation starts.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_bench::RunSettings;
    ///
    /// assert!(RunSettings::default().validate().is_ok());
    /// let broken = RunSettings { threads: 0, ..RunSettings::default() };
    /// assert!(broken.validate().unwrap_err().contains("threads"));
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        if self.measure == 0 {
            return Err("measure must be > 0 (committed instructions to measure)".into());
        }
        if self.scale == 0 {
            return Err("scale must be > 0 (workload footprint multiplier)".into());
        }
        if self.threads == 0 {
            return Err("threads must be >= 1 (1 runs serially on the calling thread)".into());
        }
        if let Some(sample) = self.sample {
            if sample.intervals == 0 {
                return Err("sample.intervals must be > 0 (intervals replayed in detail)".into());
            }
            if sample.period == 0 {
                return Err("sample.period must be > 0 (interval length in µops)".into());
            }
        }
        Ok(())
    }

    /// Workload generation parameters.
    pub fn params(&self) -> WorkloadParams {
        WorkloadParams { scale: self.scale, seed: self.seed }
    }

    /// The Table 2 core configuration with this sweep's seed.
    pub fn core(&self) -> CoreConfig {
        CoreConfig::default().with_seed(self.seed)
    }

    /// The capture length that makes replay byte-identical to inline
    /// execution ([`Simulator::run_with_warmup`]) under `config`: the
    /// measurement window plus the core's maximum fetch-ahead (see
    /// [`CoreConfig::trace_budget`]).
    pub fn trace_budget(&self, config: &CoreConfig) -> u64 {
        config.trace_budget(self.warmup, self.measure)
    }

    /// Capture `bench`'s dynamic trace, `budget` µops long (or the whole
    /// program if shorter) — the capture half of capture-once/replay-many.
    pub fn capture(&self, bench: &Benchmark, budget: u64) -> Trace {
        let program = (bench.build)(&self.params());
        Trace::capture(&program, budget)
    }

    /// Replay a captured trace under one configuration. With
    /// [`Self::sample`] unset this is byte-identical to inline execution
    /// ([`Simulator::run_with_warmup`]) of the benchmark the trace was
    /// captured from, given a sufficient capture budget
    /// ([`Self::trace_budget`]). With sampling on, the result is the
    /// combined counters of the sampled intervals
    /// ([`SampledResult::combined`]) — an estimate, not the full replay.
    pub fn run_trace(&self, trace: &Trace, config: CoreConfig) -> RunResult {
        match self.sample {
            Some(_) => self.run_trace_sampled(trace, config).combined(),
            None => Simulator::new(config).run_trace(trace, self.warmup, self.measure),
        }
    }

    /// Sampled replay with full per-interval visibility: the
    /// [`SampledResult`] carries one [`RunResult`] per replayed interval
    /// plus the fast-forward accounting the sweep's `--timing-json`
    /// reports. Uses [`Self::sample`], or [`SampleConfig::default`] when
    /// unset.
    pub fn run_trace_sampled(&self, trace: &Trace, config: CoreConfig) -> SampledResult {
        let sample = self.sample.unwrap_or_default();
        Simulator::new(config).run_sampled(trace, self.warmup, self.measure, sample)
    }

    /// Run one benchmark under one configuration: fetch its trace from
    /// the process-wide [`TraceCache`] (capturing it on first use) and
    /// replay it with [`Self::run_trace`].
    pub fn run_job(&self, bench: &Benchmark, config: CoreConfig) -> RunResult {
        let (trace, _) = TraceCache::global().get(self, bench, self.trace_budget(&config));
        self.run_trace(&trace, config)
    }

    /// [`Self::run_job`] with a pipeline event sink attached (see
    /// [`vpsim_uarch::tap`]): the sink observes the same simulation the
    /// untapped run executes, without perturbing its result.
    /// [`Self::sample`] is ignored here — per-cycle attribution of a
    /// sampled estimate would attribute cycles that were never simulated,
    /// so tapped runs always replay the full windows.
    pub fn run_job_with_sink<T: PipeEventSink>(
        &self,
        bench: &Benchmark,
        config: CoreConfig,
        sink: &mut T,
    ) -> RunResult {
        let (trace, _) = TraceCache::global().get(self, bench, self.trace_budget(&config));
        Simulator::new(config).run_trace_with_sink(&trace, self.warmup, self.measure, sink)
    }

    /// Run one benchmark with no value prediction (the speedup baseline).
    pub fn run_baseline(&self, bench: &Benchmark) -> RunResult {
        self.run_job(bench, self.core())
    }

    /// Run one benchmark with the given predictor/scheme/recovery.
    pub fn run_vp(
        &self,
        bench: &Benchmark,
        kind: PredictorKind,
        scheme: ConfidenceScheme,
        recovery: RecoveryPolicy,
    ) -> RunResult {
        let vp = VpConfig { kind, scheme, recovery };
        self.run_job(bench, self.core().with_vp(vp))
    }
}

/// Per-benchmark results of one configuration across the suite.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// `(benchmark name, result)` pairs in Table 3 order.
    pub rows: Vec<(&'static str, RunResult)>,
}

impl SuiteResults {
    /// Speedups over the matching baseline rows.
    pub fn speedups(&self, baselines: &SuiteResults) -> Vec<f64> {
        self.rows
            .iter()
            .zip(&baselines.rows)
            .map(|((na, a), (nb, b))| {
                assert_eq!(na, nb, "row order mismatch");
                vpsim_stats::speedup(&b.metrics, &a.metrics)
            })
            .collect()
    }

    /// Geometric-mean speedup over the baseline.
    pub fn gmean_speedup(&self, baselines: &SuiteResults) -> f64 {
        mean::geometric(&self.speedups(baselines)).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_workloads::benchmark;

    fn tiny() -> RunSettings {
        RunSettings { warmup: 2_000, measure: 10_000, seed: 7, ..RunSettings::default() }
    }

    #[test]
    fn baseline_and_vp_runs_complete() {
        let s = tiny();
        let b = benchmark("gzip").unwrap();
        let base = s.run_baseline(&b);
        assert_eq!(base.metrics.instructions, 10_000);
        let vp = s.run_vp(
            &b,
            PredictorKind::Vtage,
            ConfidenceScheme::fpc_squash(),
            RecoveryPolicy::SquashAtCommit,
        );
        assert_eq!(vp.metrics.instructions, 10_000);
        assert!(vp.vp.eligible > 0);
    }

    /// Inline execution: the functional executor runs inside the timing
    /// loop, with no trace at all.
    fn inline(s: &RunSettings, bench: &Benchmark, config: CoreConfig) -> RunResult {
        let program = (bench.build)(&s.params());
        Simulator::new(config).run_with_warmup(&program, s.warmup, s.measure)
    }

    #[test]
    fn run_job_is_byte_identical_on_both_paths() {
        let s = tiny();
        let b = benchmark("h264ref").unwrap();
        let config = s
            .core()
            .with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit));
        assert_eq!(s.run_job(&b, config.clone()), inline(&s, &b, config));
    }

    #[test]
    fn explicit_capture_and_replay_match_inline() {
        let s = tiny();
        let b = benchmark("gzip").unwrap();
        let trace = s.capture(&b, s.trace_budget(&s.core()));
        assert_eq!(s.run_trace(&trace, s.core()), inline(&s, &b, s.core()));
        assert_eq!(s.run_baseline(&b), inline(&s, &b, s.core()));
    }

    #[test]
    fn suite_speedups_align_rows() {
        let s = tiny();
        let benches: Vec<_> = ["gzip", "h264ref"].iter().map(|n| benchmark(n).unwrap()).collect();
        let vp = s
            .core()
            .with_vp(VpConfig::enabled(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit));
        let [base, vp] =
            <[SuiteResults; 2]>::try_from(crate::sweep::run_grid(&s, &benches, &[s.core(), vp]))
                .unwrap();
        let speedups = vp.speedups(&base);
        assert_eq!(speedups.len(), 2);
        assert!(speedups.iter().all(|&x| x > 0.5 && x < 3.0), "{speedups:?}");
        let g = vp.gmean_speedup(&base);
        assert!(g > 0.5 && g < 3.0);
    }
}

//! Store-hit replay equivalence: a trace mapped from a store entry must
//! produce bit-identical `RunResult`s to the fresh capture it was saved
//! from — across predictors and recovery policies, in full detail and
//! under interval sampling — and truncated or corrupt entries must be
//! rejected (evicted), never replayed.

use std::path::{Path, PathBuf};

use vpsim_bench::store::TraceStore;
use vpsim_bench::sweep::SchemeChoice;
use vpsim_bench::RunSettings;
use vpsim_core::PredictorKind;
use vpsim_uarch::{CoreConfig, RecoveryPolicy, SampleConfig, VpConfig};
use vpsim_workloads::benchmark;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vpsim-trace-view-{tag}-{}", std::process::id()))
}

fn settings() -> RunSettings {
    RunSettings { warmup: 500, measure: 2_000, ..RunSettings::default() }
}

/// Baseline plus predictor × recovery grid points under FPC.
fn grid_configs(s: &RunSettings) -> Vec<CoreConfig> {
    let mut configs = vec![s.core()];
    for kind in [PredictorKind::Lvp, PredictorKind::TwoDeltaStride, PredictorKind::Vtage] {
        for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
            let scheme = SchemeChoice::Fpc.build(recovery);
            configs.push(s.core().with_vp(VpConfig { kind, scheme, recovery }));
        }
    }
    configs
}

#[test]
fn mapped_view_replay_matches_owned_replay_across_the_grid() {
    let dir = scratch_dir("grid");
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).unwrap();

    let full = settings();
    // A window long enough for several default-sized sampled intervals.
    let sampled = RunSettings { measure: 30_000, sample: Some(SampleConfig::default()), ..full };
    let bench = benchmark("gzip").expect("gzip exists");
    let configs = grid_configs(&full);
    let budget = configs.iter().map(|c| sampled.trace_budget(c)).max().unwrap();
    let trace = full.capture(&bench, budget);
    store.save(bench.name, full.scale, full.seed, budget, false, &trace);

    let mapped = store.map(bench.name, full.scale, full.seed).expect("entry maps back");
    assert!(mapped.covers(budget), "mapped entry covers the capture budget");
    assert_eq!(mapped.len(), trace.len(), "the mapped trace sees every record");

    for config in configs {
        assert_eq!(
            full.run_trace(&mapped, config.clone()),
            full.run_trace(&trace, config.clone()),
            "store-hit replay must be bit-identical to the capture ({config:?})"
        );
        let from_store = sampled.run_trace_sampled(&mapped, config.clone());
        assert!(from_store.intervals_replayed() > 1, "several intervals fit the window");
        assert_eq!(
            from_store,
            sampled.run_trace_sampled(&trace, config.clone()),
            "sampled store-hit replay must be bit-identical to the capture ({config:?})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The single `trace-<sha256>.bin` entry file in a one-entry store.
fn entry_file(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("trace-")))
        .collect();
    assert_eq!(entries.len(), 1, "one stored trace expected");
    entries.pop().unwrap()
}

#[test]
fn truncated_and_corrupt_entries_are_rejected_and_evicted() {
    let dir = scratch_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).unwrap();

    let s = settings();
    let bench = benchmark("gzip").expect("gzip exists");
    let budget = s.trace_budget(&s.core());
    let trace = s.capture(&bench, budget);

    // Truncation: cut the file mid-body. The outer checksum no longer
    // matches, so the entry is rejected and evicted.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let path = entry_file(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(store.map(bench.name, s.scale, s.seed).is_none(), "truncated entry must not map");
    assert!(!path.exists(), "truncated entry is evicted");

    // Truncation to less than a header: rejected before any parsing.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let path = entry_file(&dir);
    std::fs::write(&path, &bytes[..8]).unwrap();
    assert!(store.map(bench.name, s.scale, s.seed).is_none(), "header stub must not map");
    assert!(!path.exists(), "header stub is evicted");

    // A single flipped bit in the trace body: the checksum catches it.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let path = entry_file(&dir);
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    assert!(store.map(bench.name, s.scale, s.seed).is_none(), "bit flip must not map");
    assert!(!path.exists(), "corrupt entry is evicted");

    // After eviction a fresh save heals the store and maps again.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let healed = store.map(bench.name, s.scale, s.seed).expect("healed entry maps");
    assert_eq!(healed.trace, trace, "healed entry round-trips the capture");

    let _ = std::fs::remove_dir_all(&dir);
}

//! Criterion microbenchmarks for the substrate crates: TAGE and VTAGE
//! lookups, cache hierarchy accesses, DRAM timing, and functional execution
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use vpsim_branch::Tage;
use vpsim_core::{ConfidenceScheme, HistoryState, PredictCtx, Predictor, Vtage};
use vpsim_isa::Executor;
use vpsim_mem::{MemoryConfig, MemoryHierarchy};
use vpsim_workloads::microkernels;

fn bench_tage(c: &mut Criterion) {
    let mut group = c.benchmark_group("tage");
    group.throughput(Throughput::Elements(1));
    group.bench_function("predict_train", |b| {
        let mut tage = Tage::with_defaults(1);
        let mut hist = HistoryState::default();
        let mut seq = 0u64;
        b.iter(|| {
            let pc = 0x40 + (seq % 64) * 4;
            let taken = (seq / 3).is_multiple_of(2);
            let pred = tage.predict(seq, pc, &hist);
            tage.train(seq, taken);
            hist.push_branch(pc, taken);
            seq += 1;
            black_box(pred)
        });
    });
    group.finish();
}

/// µops predicted under one history in `vtage/predict_train`: roughly the
/// value-predictable µops of one fetch group between two branches.
const FETCH_GROUP: u64 = 7;

fn bench_vtage(c: &mut Criterion) {
    let mut group = c.benchmark_group("vtage");
    group.throughput(Throughput::Elements(FETCH_GROUP));
    group.bench_function("predict_train", |b| {
        let mut vtage = Vtage::with_defaults(ConfidenceScheme::fpc_squash(), 1);
        let mut hist = HistoryState::default();
        let mut seq = 0u64;
        let mut branch = 0u64;
        b.iter(|| {
            // One fetch group: every µop is predicted under the same
            // history, then trained in order; the group's closing branch
            // then advances the history.
            let first = seq;
            let mut confident = 0u32;
            for k in 0..FETCH_GROUP {
                let ctx = PredictCtx { seq, pc: 0x400 + k * 4, hist, actual: None };
                confident += vtage.predict(&ctx).confident as u32;
                seq += 1;
            }
            for s in first..seq {
                vtage.train(s, (s % 5) * (branch % 3));
            }
            let taken = (branch / 3).is_multiple_of(2);
            hist.push_branch(0x400 + FETCH_GROUP * 4, taken);
            branch += 1;
            black_box(confident)
        });
    });
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory");
    group.throughput(Throughput::Elements(1));
    group.bench_function("l1_hit", |b| {
        let mut m = MemoryHierarchy::new(MemoryConfig::default());
        let mut now = m.load(0x40, 0x1000, 0);
        b.iter(|| {
            now = m.load(0x40, 0x1000, now);
            black_box(now)
        });
    });
    group.bench_function("streaming_misses", |b| {
        let mut m = MemoryHierarchy::new(MemoryConfig::default());
        let mut now = 0u64;
        let mut addr = 0x10_0000u64;
        b.iter(|| {
            addr += 64;
            now = m.load(0x40, addr, now) + 1;
            black_box(now)
        });
    });
    group.finish();
}

fn bench_functional_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    let program = microkernels::matmul(8);
    group.throughput(Throughput::Elements(100_000));
    group.sample_size(10);
    group.bench_function("matmul_100k_uops", |b| {
        b.iter(|| {
            let n = Executor::new(&program).take(100_000).count();
            black_box(n)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_tage, bench_vtage, bench_memory, bench_functional_executor);
criterion_main!(benches);

//! Isolated replays of a committed µop stream through single layers'
//! public APIs: TAGE (`branch`), the four paper value predictors (`core`)
//! and the memory hierarchy (`mem`), each under its own span.

use vpsim_branch::Tage;
use vpsim_core::{ConfidenceScheme, HistoryState, PredictCtx, PredictorKind};
use vpsim_isa::{DynInst, Opcode};
use vpsim_mem::{MemoryConfig, MemoryHierarchy};

use crate::spans::Recorder;
use crate::Report;

const PREDICTORS: [(PredictorKind, &str); 4] = [
    (PredictorKind::Lvp, "core.lvp"),
    (PredictorKind::TwoDeltaStride, "core.2d-str"),
    (PredictorKind::Fcm4, "core.o4-fcm"),
    (PredictorKind::Vtage, "core.vtage"),
];

#[derive(Default)]
struct VpTotals {
    eligible: u64,
    confident: u64,
    correct: u64,
}

/// Counts accumulated over every replayed stream; times come from the
/// spans.
#[derive(Default)]
pub struct Totals {
    branches: u64,
    branches_correct: u64,
    vp: [VpTotals; 4],
    accesses: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
}

/// Fetch-order history update shared by every replay: conditional
/// branches push their outcome, other control µops their path.
fn push_history(hist: &mut HistoryState, di: &DynInst) {
    if di.inst.op.is_cond_branch() {
        hist.push_branch(di.pc, di.taken);
    } else if di.inst.op.is_control() {
        hist.push_path(di.pc);
    }
}

/// Replay `stream` (one workload's committed µops) through each layer.
pub fn replay(rec: &mut Recorder, job: u64, stream: &[DynInst], seed: u64, totals: &mut Totals) {
    let (branches, correct) = rec.span("branch.tage", job, |_| {
        let mut tage = Tage::with_defaults(seed);
        let mut hist = HistoryState::default();
        let (mut branches, mut correct) = (0u64, 0u64);
        for di in stream {
            if di.inst.op.is_cond_branch() {
                let taken = tage.predict(di.seq, di.pc, &hist);
                tage.train(di.seq, di.taken);
                branches += 1;
                correct += (taken == di.taken) as u64;
            }
            push_history(&mut hist, di);
        }
        (branches, correct)
    });
    totals.branches += branches;
    totals.branches_correct += correct;

    for (k, (kind, name)) in PREDICTORS.iter().enumerate() {
        let vp = rec.span(name, job, |_| {
            let mut predictor = kind.build(ConfidenceScheme::fpc_squash(), seed);
            let mut hist = HistoryState::default();
            let mut t = VpTotals::default();
            for di in stream {
                if let (true, Some(actual)) = (di.vp_eligible(), di.result) {
                    let ctx = PredictCtx { seq: di.seq, pc: di.pc, hist, actual: None };
                    let prediction = predictor.predict(&ctx);
                    predictor.train(di.seq, actual);
                    t.eligible += 1;
                    if let Some(value) = prediction.confident_value() {
                        t.confident += 1;
                        t.correct += (value == actual) as u64;
                    }
                }
                push_history(&mut hist, di);
            }
            t
        });
        let sum = &mut totals.vp[k];
        sum.eligible += vp.eligible;
        sum.confident += vp.confident;
        sum.correct += vp.correct;
    }

    let (accesses, l1d_accesses, l1d_misses) = rec.span("mem", job, |_| {
        let mut mem = MemoryHierarchy::new(MemoryConfig::default());
        let mut accesses = 0;
        // One access per µop slot: the µop's sequence number stands in
        // for its issue cycle.
        for di in stream {
            match (di.inst.op, di.mem_addr) {
                (Opcode::Load, Some(addr)) => drop(mem.load(di.pc, addr, di.seq)),
                (Opcode::Store, Some(addr)) => drop(mem.store(di.pc, addr, di.seq)),
                _ => continue,
            }
            accesses += 1;
        }
        (accesses, mem.l1d_stats.accesses, mem.l1d_stats.misses)
    });
    totals.accesses += accesses;
    totals.l1d_accesses += l1d_accesses;
    totals.l1d_misses += l1d_misses;

    rec.span("mem.warm", job, |_| {
        let mut mem = MemoryHierarchy::new(MemoryConfig::default());
        for di in stream {
            match (di.inst.op, di.mem_addr) {
                (Opcode::Load, Some(addr)) => mem.warm_load(addr),
                (Opcode::Store, Some(addr)) => mem.warm_store(addr),
                _ => {}
            }
        }
        std::hint::black_box(mem);
    });
}

impl Totals {
    pub fn report(&self, rec: &Recorder, report: &mut Report) {
        let ns = |name: &str| rec.total(name).1 as f64;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        report.set("branch.tage.ns_per_branch", ns("branch.tage") / self.branches.max(1) as f64);
        report.set("branch.tage.accuracy", ratio(self.branches_correct, self.branches));
        for (k, (_, name)) in PREDICTORS.iter().enumerate() {
            let t = &self.vp[k];
            report.set(format!("{name}.ns_per_uop"), ns(name) / t.eligible.max(1) as f64);
            report.set(format!("{name}.coverage"), ratio(t.confident, t.eligible));
            report.set(format!("{name}.accuracy"), ratio(t.correct, t.confident));
        }
        report.set("mem.ns_per_access", ns("mem") / self.accesses.max(1) as f64);
        report.set("mem.l1d.miss_ratio", ratio(self.l1d_misses, self.l1d_accesses));
        report.set("mem.warm.ns_per_access", ns("mem.warm") / self.accesses.max(1) as f64);
    }
}

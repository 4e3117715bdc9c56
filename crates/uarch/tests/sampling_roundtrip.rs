//! Checkpoint serialization property: replaying a detailed interval from
//! a checkpoint that went through `to_bytes` → `from_bytes` is
//! byte-identical to replaying from the original in-memory checkpoint —
//! for every predictor kind and recovery policy the simulator supports.
//!
//! This is the guarantee the sweep-as-a-service layer leans on when it
//! persists `vpstate1` checkpoints and replays intervals in a different
//! process: serialization must never perturb a result.

use proptest::prelude::*;
use vpsim_core::PredictorKind;
use vpsim_isa::{ProgramBuilder, Reg, Trace};
use vpsim_uarch::{Checkpoint, CoreConfig, RecoveryPolicy, SampleConfig, Simulator, VpConfig};

/// An endless loop exercising every structure the warmer checkpoints:
/// strided loads and stores (caches), a data-dependent conditional branch
/// (TAGE + history), and a call/return pair every `modulus` iterations
/// (RAS, BTB-adjacent control flow).
fn program(modulus: i64, stride: i64) -> vpsim_isa::Program {
    let mut b = ProgramBuilder::new();
    let (i, n, addr, x, t, link, acc, zero) = (
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
        Reg::int(6),
        Reg::int(7),
        Reg::int(8),
    );
    b.load_imm(n, i64::MAX / 2);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.andi(t, i, modulus);
    b.shli(addr, t, 3);
    b.load(x, addr, 64);
    b.add(acc, acc, x);
    b.store(addr, acc, 64 + stride);
    let skip = b.label();
    let func = b.label();
    b.bne(t, zero, skip);
    b.call(link, func);
    b.bind(skip);
    b.blt(i, n, top);
    b.halt();
    b.bind(func);
    b.addi(acc, acc, 3);
    b.ret(link);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn serialized_checkpoints_replay_byte_identically_for_every_predictor(
        modulus_bits in 1u32..4,
        stride in prop::sample::select(vec![0i64, 8, 24]),
        warmup in 0u64..2_000,
        measure in 5_000u64..9_000,
        intervals in 2u64..4,
        period in 600u64..1_500,
        sample_warmup in 0u64..500,
        seed in 0u64..1u64 << 48,
    ) {
        let program = program((1 << modulus_bits) - 1, stride);
        let sample = SampleConfig { intervals, period, warmup: sample_warmup };
        // One trace serves every configuration: capture with the default
        // core's budget (trace_budget depends only on warmup/measure and
        // the fetch-ahead bound, identical across VP configurations).
        let trace = Trace::capture(
            &program,
            CoreConfig::default().with_seed(seed).trace_budget(warmup, measure),
        );
        let mut configs = vec![CoreConfig::default().with_seed(seed)];
        for kind in PredictorKind::ALL {
            for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
                configs.push(
                    CoreConfig::default()
                        .with_seed(seed)
                        .with_vp(VpConfig::enabled(kind, recovery)),
                );
            }
        }
        for config in configs {
            let sim = Simulator::new(config);
            let checkpoints = sim.sample_checkpoints(&trace, warmup, measure, sample);
            prop_assert!(!checkpoints.is_empty(), "region admits at least one interval");
            // `measure >> period` here, so each interval replays exactly
            // `period` µops (the plan's per-interval measurement window).
            let mut direct = Vec::new();
            for cp in &checkpoints {
                let bytes = cp.to_bytes();
                let revived = Checkpoint::from_bytes(&bytes)
                    .expect("a freshly serialized checkpoint deserializes");
                prop_assert_eq!(
                    revived.to_bytes(),
                    bytes,
                    "serialization is a fixed point"
                );
                let from_memory = sim.run_interval_from(&trace, cp, period).unwrap();
                let from_bytes = sim.run_interval_from(&trace, &revived, period).unwrap();
                prop_assert_eq!(from_memory, from_bytes, "serialization perturbed a replay");
                direct.push(from_memory);
            }
            // The one-shot sampled run takes the identical path: same
            // checkpoints, same per-interval results.
            let sampled = sim.run_sampled(&trace, warmup, measure, sample);
            prop_assert_eq!(sampled.per_interval, direct);
        }
    }
}

/// FNV-1a 64, the integrity checksum of the `vpstate1` container.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `cp` re-serialized with its payload position replaced by `payload_pos`
/// and a fresh checksum — a well-formed but forged checkpoint.
fn forged(cp: &Checkpoint, payload_pos: u64) -> Checkpoint {
    // Layout: 8-byte magic, then pos, payload_pos, … as little-endian u64s.
    let mut bytes = cp.to_bytes();
    bytes[16..24].copy_from_slice(&payload_pos.to_le_bytes());
    let body = bytes.len() - 8;
    let checksum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    Checkpoint::from_bytes(&bytes).expect("the forged container is well-formed")
}

#[test]
fn forged_checkpoint_coordinates_are_an_error_not_a_panic() {
    let program = program(3, 8);
    let sim = Simulator::new(CoreConfig::default());
    let trace = Trace::capture(&program, sim.config().trace_budget(1_000, 6_000));
    let sample = SampleConfig { intervals: 2, period: 1_000, warmup: 200 };
    let cp = sim.sample_checkpoints(&trace, 1_000, 6_000, sample).pop().expect("a checkpoint");
    let pos = cp.pos() as usize;
    assert!(sim.run_interval_from(&trace, &cp, 1_000).is_ok());
    // In-bounds but mutually inconsistent coordinates: one payload slot
    // off, and the far end of the payload stream at the checkpoint's
    // record (every replayed payload read would run past the stream).
    let mut end = trace.cursor();
    end.by_ref().for_each(drop);
    for payload_pos in [cp.payload_pos() + 1, end.payload_pos() as u64] {
        assert!(trace.cursor_resume(pos, payload_pos as usize).is_err(), "{payload_pos}");
        let forged = forged(&cp, payload_pos);
        assert!(sim.run_interval_from(&trace, &forged, 1_000).is_err(), "{payload_pos}");
    }
}

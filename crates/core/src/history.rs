//! Global branch history and path history.
//!
//! VTAGE is "the first hardware value predictor to leverage a long global
//! branch history and the path history" (§1). Both histories are maintained
//! speculatively by the pipeline front-end and checkpointed/restored on
//! squashes, so the state is a small `Copy` struct: [`HistoryState`].

/// Speculative control-flow history carried by the front-end.
///
/// * `ghist` — global direction history: one bit per conditional branch,
///   most recent in bit 0 (up to 128 bits, comfortably above VTAGE's maximum
///   64-bit history length).
/// * `path` — path history: 3 low PC bits of every control-flow µop,
///   most recent in the low bits.
///
/// The struct is `Copy` so ROB entries can checkpoint it for squash
/// recovery at negligible cost.
///
/// # Examples
///
/// ```
/// use vpsim_core::history::HistoryState;
/// let mut h = HistoryState::default();
/// h.push_branch(0x40, true);
/// h.push_branch(0x80, false);
/// assert_eq!(h.ghist & 0b11, 0b10); // most recent outcome in bit 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HistoryState {
    /// Global direction history, youngest outcome in bit 0.
    pub ghist: u128,
    /// Path history (3 bits of each control µop's PC), youngest in bits 0–2.
    pub path: u64,
}

impl HistoryState {
    /// Record a conditional branch outcome (updates both histories).
    pub fn push_branch(&mut self, pc: u64, taken: bool) {
        self.ghist = (self.ghist << 1) | taken as u128;
        self.push_path(pc);
    }

    /// Record an unconditional control-flow µop (jump/call/return): only the
    /// path history observes it.
    pub fn push_path(&mut self, pc: u64) {
        self.path = (self.path << 3) | ((pc >> 2) & 0b111);
    }
}

/// Fold the low `len` bits of `hist` into `out_bits` bits by XOR-ing
/// consecutive `out_bits`-wide chunks (the classic TAGE folded-history
/// function). This is the definition; the predictors read the same values
/// from a [`FoldedHistory`], which maintains them in O(1) per pushed
/// outcome and falls back to this direct fold after any other history
/// change.
///
/// `out_bits` must be in `1..=63`. A `len` of 0 folds to 0; a `len` above
/// 128 folds the whole history.
///
/// # Examples
///
/// ```
/// use vpsim_core::history::fold;
/// // 8 bits folded into 4: high nibble XOR low nibble.
/// assert_eq!(fold(0b1010_0110, 8, 4), 0b1100);
/// ```
pub fn fold(hist: u128, len: u32, out_bits: u32) -> u64 {
    debug_assert!((1..64).contains(&out_bits));
    if len == 0 {
        return 0;
    }
    let mask = (1u64 << out_bits) - 1;
    // XOR is associative and commutative, so the chunk XOR is computed as
    // a shift-doubling tree rather than a serial chunk loop: after stages
    // `h ^= h >> b`, `h ^= h >> 2b`, … the low chunk holds the XOR of the
    // first 2ᵏ chunks, and the stages stop once 2ᵏ chunks cover the whole
    // width (the last shift is < width, so coverage = 2 × last shift ≥
    // width). Bit-identical to folding chunk by chunk, in O(log) dependent
    // steps instead of O(len / out_bits). Histories up to 64 bits (most
    // components) fold in native-width arithmetic.
    if len <= 64 {
        let keep = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        let mut h = (hist as u64) & keep;
        let mut shift = out_bits;
        while shift < 64 {
            h ^= h >> shift;
            shift <<= 1;
        }
        return h & mask;
    }
    let mut h = if len >= 128 { hist } else { hist & ((1u128 << len) - 1) };
    let mut shift = out_bits;
    while shift < 128 {
        h ^= h >> shift;
        shift <<= 1;
    }
    h as u64 & mask
}

/// Most folds one [`FoldedHistory`] holds (TAGE's 16 components × 3).
pub const MAX_FOLDS: usize = 48;

/// Folded global-history registers (Seznec & Michaud's TAGE): the value
/// of [`fold`]`(ghist, len, width)` for a fixed list of `(len, width)`
/// pairs, kept current as the history advances.
///
/// [`FoldedHistory::sync`] is a pure function of the history value, so the
/// registers are never part of a checkpoint: when the new history is the
/// last one with exactly one outcome shifted in (`new == old << 1 | bit`),
/// each register is updated in O(1) — rotate the new bit in, cancel the
/// bit that fell out of the window — and on any other change (a squash
/// restore, a checkpoint load, the first use) every register is refolded
/// directly.
///
/// # Examples
///
/// ```
/// use vpsim_core::history::{fold, FoldedHistory};
/// let mut f = FoldedHistory::new(&[(12, 5), (40, 9)]);
/// let mut ghist = 0u128;
/// for bit in [1, 0, 1, 1, 0, 1, 1, 1] {
///     ghist = ghist << 1 | bit;
///     f.sync(ghist);
///     assert_eq!(f.get(0), fold(ghist, 12, 5));
///     assert_eq!(f.get(1), fold(ghist, 40, 9));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FoldedHistory {
    n: usize,
    regs: [u64; MAX_FOLDS],
    /// History length per register, capped at 128 (`fold` treats longer
    /// lengths as the whole history).
    lens: [u32; MAX_FOLDS],
    widths: [u32; MAX_FOLDS],
    /// `(1 << width) - 1` per register.
    masks: [u64; MAX_FOLDS],
    /// Per register, `1 << (len % width)`: where the bit leaving the
    /// history window lands in the shifted register.
    out_bits: [u64; MAX_FOLDS],
    /// Runs of consecutive registers with one nonzero history length, as
    /// `(len, start, end)`: the outgoing history bit is read once per run.
    /// Zero-length registers belong to no run and stay 0.
    runs: [(u32, u8, u8); MAX_FOLDS],
    nruns: usize,
    /// The history the registers currently fold (`None` before first use).
    synced: Option<u128>,
}

impl FoldedHistory {
    /// Registers for `folds`, a list of `(len, width)` pairs; register `i`
    /// reads [`fold`]`(ghist, folds[i].0, folds[i].1)`.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_FOLDS`] folds or a width outside
    /// `1..=63`.
    pub fn new(folds: &[(u32, u32)]) -> Self {
        assert!(folds.len() <= MAX_FOLDS, "at most {MAX_FOLDS} folded registers");
        let mut f = FoldedHistory {
            n: folds.len(),
            regs: [0; MAX_FOLDS],
            lens: [0; MAX_FOLDS],
            widths: [1; MAX_FOLDS],
            masks: [0; MAX_FOLDS],
            out_bits: [0; MAX_FOLDS],
            runs: [(0, 0, 0); MAX_FOLDS],
            nruns: 0,
            synced: None,
        };
        for (i, &(len, width)) in folds.iter().enumerate() {
            assert!((1..64).contains(&width), "fold width {width} outside 1..=63");
            let len = len.min(128);
            f.lens[i] = len;
            f.widths[i] = width;
            f.masks[i] = (1u64 << width) - 1;
            f.out_bits[i] = 1u64 << (len % width);
            if len == 0 {
                continue;
            }
            match f.runs[..f.nruns].last_mut() {
                Some(run) if run.0 == len && run.2 as usize == i => run.2 += 1,
                _ => {
                    f.runs[f.nruns] = (len, i as u8, i as u8 + 1);
                    f.nruns += 1;
                }
            }
        }
        f
    }

    /// Bring every register up to date with `ghist`.
    pub fn sync(&mut self, ghist: u128) {
        match self.synced {
            Some(old) if old == ghist => {}
            Some(old) if ghist == (old << 1) | (ghist & 1) => {
                let bit = (ghist & 1) as u64;
                for &(len, start, end) in &self.runs[..self.nruns] {
                    // All ones when the bit leaving the window was set.
                    let outgoing = ((old >> (len - 1)) as u64 & 1).wrapping_neg();
                    let range = start as usize..end as usize;
                    for (((reg, &width), &mask), &out_bit) in self.regs[range.clone()]
                        .iter_mut()
                        .zip(&self.widths[range.clone()])
                        .zip(&self.masks[range.clone()])
                        .zip(&self.out_bits[range])
                    {
                        // The shifted register is at most width + 1 bits
                        // wide: XOR-ing bit `width` back into bit 0
                        // completes the rotation.
                        let r = ((*reg << 1) | bit) ^ (out_bit & outgoing);
                        *reg = (r ^ (r >> width)) & mask;
                    }
                }
            }
            _ => {
                for i in 0..self.n {
                    self.regs[i] = fold(ghist, self.lens[i], self.widths[i]);
                }
            }
        }
        self.synced = Some(ghist);
    }

    /// Register `i` as of the last [`FoldedHistory::sync`].
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.n && self.synced.is_some());
        self.regs[i]
    }
}

/// Fold a 64-bit value onto itself to 16 bits (the paper's o4-FCM history
/// compression: "we fold (XOR) each 64-bit history value upon itself to
/// obtain a 16-bit index").
pub fn fold_value16(value: u64) -> u16 {
    let v = value ^ (value >> 16) ^ (value >> 32) ^ (value >> 48);
    v as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_updates_shift_in_at_bit_zero() {
        let mut h = HistoryState::default();
        h.push_branch(0, true);
        h.push_branch(0, true);
        h.push_branch(0, false);
        assert_eq!(h.ghist & 0b111, 0b110);
    }

    #[test]
    fn path_takes_three_pc_bits() {
        let mut h = HistoryState::default();
        h.push_path(0b10100); // pc >> 2 = 0b101
        assert_eq!(h.path & 0b111, 0b101);
        h.push_path(0b01100); // pc >> 2 = 0b011
        assert_eq!(h.path & 0b111111, 0b101_011);
    }

    #[test]
    fn unconditional_control_does_not_touch_ghist() {
        let mut h = HistoryState::default();
        h.push_branch(0, true);
        let g = h.ghist;
        h.push_path(0x40);
        assert_eq!(h.ghist, g);
    }

    #[test]
    fn fold_zero_len_is_zero() {
        assert_eq!(fold(u128::MAX, 0, 10), 0);
    }

    #[test]
    fn fold_shorter_than_output_is_identity() {
        assert_eq!(fold(0b101, 3, 10), 0b101);
    }

    #[test]
    fn fold_is_xor_of_chunks() {
        // 12 bits folded to 4: chunks 0xA, 0x6, 0x3 → 0xA^0x6^0x3 = 0xF.
        assert_eq!(fold(0x3_6A, 12, 4), 0xF);
    }

    #[test]
    fn fold_masks_history_beyond_len() {
        // Bits above `len` must not influence the fold.
        let a = fold(0b1111_0000_1010, 8, 4);
        let b = fold(0b0000_0000_1010, 8, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn fold_full_width_history() {
        // Must not overflow or panic for len = 128.
        let f = fold(u128::MAX, 128, 13);
        assert!(f < (1 << 13));
    }

    #[test]
    fn fold_tree_matches_the_serial_chunk_fold() {
        // The shift-doubling tree must equal the definitional chunk-by-
        // chunk XOR for every geometry TAGE/VTAGE uses (and then some).
        fn serial(hist: u128, len: u32, out_bits: u32) -> u64 {
            if len == 0 {
                return 0;
            }
            let mask = (1u64 << out_bits) - 1;
            let mut rest = if len >= 128 { hist } else { hist & ((1u128 << len) - 1) };
            let mut acc = 0u64;
            while rest != 0 {
                acc ^= (rest as u64) & mask;
                rest >>= out_bits;
            }
            acc
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u128;
        for i in 0..256u32 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x1234_5678_9ABC_DEF1);
            let hist = x ^ (x << 64);
            for len in [1, 3, 4, 8, 16, 24, 63, 64, 65, 100, 127, 128] {
                for out_bits in [1, 2, 7, 8, 9, 13, 16, 33, 63] {
                    assert_eq!(
                        fold(hist, len, out_bits),
                        serial(hist, len, out_bits),
                        "case {i}: len {len}, out_bits {out_bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_value16_xors_quarters() {
        assert_eq!(fold_value16(0), 0);
        assert_eq!(fold_value16(0x0001_0002_0004_0008), 0x000F);
        // Sensitive to high bits.
        assert_ne!(fold_value16(0x8000_0000_0000_0000), fold_value16(0));
    }

    #[test]
    fn different_histories_fold_differently_often() {
        // Sanity: folding should not be constant over varied inputs.
        let mut outputs = std::collections::HashSet::new();
        for i in 0..64u128 {
            outputs.insert(fold(i * 0x9E37_79B9, 32, 10));
        }
        assert!(outputs.len() > 16);
    }
}

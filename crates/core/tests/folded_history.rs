//! `FoldedHistory` is an incremental cache of `fold`: whatever sequence of
//! histories it is synced to — single pushes, squash-style jumps back to
//! an older history, arbitrary reloads, repeats — every register must read
//! exactly what the direct fold computes.

use proptest::prelude::*;
use vpsim_core::history::{fold, FoldedHistory, MAX_FOLDS};
use vpsim_core::VtageConfig;

/// Every `(len, width)` fold the default TAGE and VTAGE geometries use,
/// plus the edge cases of the incremental update: `len < width`,
/// `len == width`, `len % width == 0`, lengths around 64 and at the 128-bit
/// cap, a zero length and one beyond the cap.
fn geometries() -> Vec<(u32, u32)> {
    let mut g = Vec::new();
    // TAGE: 512-entry components (9 index bits) and the Table 2 tag widths.
    let tage_lens = [4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 100, 128];
    let tage_tags = [8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13];
    for (&len, &bits) in tage_lens.iter().zip(&tage_tags) {
        g.extend([(len, 9), (len, bits), (len, bits - 1)]);
    }
    let vtage = VtageConfig::default();
    let comp_bits = vtage.component_entries.trailing_zeros();
    for (i, &len) in vtage.history_lengths.iter().enumerate() {
        let bits = vtage.base_tag_bits + i as u32 + 1;
        g.extend([(len, comp_bits), (len, bits), (len, bits - 1)]);
    }
    for len in [0, 1, 3, 9, 18, 27, 63, 64, 65, 127, 128, 200] {
        for width in [1, 2, 7, 9, 13, 32, 63] {
            g.push((len, width));
        }
    }
    g
}

/// One register file per `MAX_FOLDS` geometries.
fn register_files() -> Vec<(Vec<(u32, u32)>, FoldedHistory)> {
    geometries().chunks(MAX_FOLDS).map(|c| (c.to_vec(), FoldedHistory::new(c))).collect()
}

fn assert_matches_fold(files: &mut [(Vec<(u32, u32)>, FoldedHistory)], ghist: u128) {
    for (geometry, folded) in files.iter_mut() {
        folded.sync(ghist);
        for (i, &(len, width)) in geometry.iter().enumerate() {
            assert_eq!(folded.get(i), fold(ghist, len, width), "fold({ghist:#x}, {len}, {width})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random pushes interleaved with jumps (to a random value or back to
    /// an earlier history) and repeated syncs of an unchanged history.
    #[test]
    fn folded_registers_equal_the_direct_fold(
        start in any::<u128>(),
        ops in prop::collection::vec((0u8..8, any::<u128>(), 0usize..64), 1..400),
    ) {
        let mut files = register_files();
        let mut ghist = start;
        let mut seen = vec![ghist];
        assert_matches_fold(&mut files, ghist);
        for (op, value, back) in ops {
            match op {
                // Mostly single pushes, as on the committed path.
                0..=4 => ghist = (ghist << 1) | (value & 1),
                // Squash-style restore to an earlier history.
                5 => ghist = seen[seen.len() - 1 - back % seen.len()],
                // Arbitrary reload (a checkpoint from elsewhere).
                6 => ghist = value,
                // Unchanged history.
                _ => {}
            }
            seen.push(ghist);
            assert_matches_fold(&mut files, ghist);
        }
    }
}

#[test]
fn jump_that_looks_like_a_push_is_still_exact() {
    // A restore whose value happens to equal `old << 1 | bit` takes the
    // incremental path; the result is a function of the value, so it must
    // still equal the direct fold.
    let mut files = register_files();
    let old = 0x8000_0000_0000_0000_0000_0000_0000_0001u128;
    assert_matches_fold(&mut files, old);
    assert_matches_fold(&mut files, old << 1 | 1);
    assert_matches_fold(&mut files, 0);
    assert_matches_fold(&mut files, 1);
    assert_matches_fold(&mut files, u128::MAX);
    assert_matches_fold(&mut files, u128::MAX);
    assert_matches_fold(&mut files, u128::MAX << 1);
}

//! Output checking: per-cell fingerprints of every simulated statistic,
//! the committed expectations they are compared with, and the accounting
//! that turns each mismatch or error into one failed operation.

use std::collections::HashMap;

use vpsim_bench::RunResult;

/// Every counter of a [`RunResult`], in its serialization order (the
/// record between the 8-byte magic and the 8-byte checksum of
/// [`RunResult::to_bytes`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<u64>);

impl Counters {
    pub fn of(result: &RunResult) -> Counters {
        let bytes = result.to_bytes();
        let body = &bytes[8..bytes.len() - 8];
        Counters(
            body.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect(),
        )
    }

    /// Field-wise sum, as sampled replay combines its intervals.
    pub fn add(&mut self, other: &Counters) {
        if self.0.is_empty() {
            self.0 = vec![0; other.0.len()];
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Measured cycles (the first counter).
    pub fn cycles(&self) -> u64 {
        self.0[0]
    }

    /// Measured committed instructions (the second counter).
    pub fn instructions(&self) -> u64 {
        self.0[1]
    }

    /// FNV-1a 64 over every counter, little-endian.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in &self.0 {
            for b in v.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            // Keep the report readable when everything fails at once.
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }
}

/// Committed per-cell values keyed by (grid seed, cell index), one
/// `seed cell value...` line each; `#` starts a comment.
#[derive(Debug, Default)]
pub struct Expected(HashMap<(u64, usize), Vec<u64>>);

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<u64> = line
                .split_whitespace()
                .map(|f| match f.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => f.parse(),
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            if fields.len() < 3 {
                return Err(format!("line {}: expected seed, cell and a value", i + 1));
            }
            map.insert((fields[0], fields[1] as usize), fields[2..].to_vec());
        }
        Ok(Expected(map))
    }

    pub fn get(&self, seed: u64, cell: usize) -> Option<&[u64]> {
        self.0.get(&(seed, cell)).map(Vec::as_slice)
    }

    /// Compare a cell's fingerprint with the committed one.
    pub fn check_fingerprint(
        &self,
        seed: u64,
        cell: usize,
        counters: &Counters,
    ) -> Result<(), String> {
        let got = counters.fingerprint();
        match self.get(seed, cell) {
            Some([want, ..]) if *want == got => Ok(()),
            Some([want, ..]) => Err(format!(
                "cell {cell} (seed {seed:#x}): fingerprint {got:#018x}, expected {want:#018x}"
            )),
            _ => Err(format!("cell {cell} (seed {seed:#x}): no committed fingerprint")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, instructions: u64) -> RunResult {
        let mut r = RunResult::default();
        r.metrics.cycles = cycles;
        r.metrics.instructions = instructions;
        r
    }

    #[test]
    fn counters_cover_every_field_and_sum() {
        let a = Counters::of(&result(10, 4));
        assert_eq!(a.0.len() * 8 + 16, RunResult::default().to_bytes().len());
        assert_eq!((a.cycles(), a.instructions()), (10, 4));
        let mut sum = Counters::default();
        sum.add(&a);
        sum.add(&Counters::of(&result(5, 1)));
        assert_eq!((sum.cycles(), sum.instructions()), (15, 5));
    }

    #[test]
    fn fingerprint_mismatch_is_one_failed_operation() {
        let good = Counters::of(&result(100, 50));
        let bad = Counters::of(&result(101, 50));
        assert_ne!(good.fingerprint(), bad.fingerprint());
        let text = format!(
            "# seed cell fingerprint\n0x2014 0 {:#x}\n0x2014 1 {:#x}\n",
            good.fingerprint(),
            good.fingerprint()
        );
        let expected = Expected::parse(&text).unwrap();

        let mut tally = Tally::default();
        tally.record(expected.check_fingerprint(0x2014, 0, &good));
        tally.record(expected.check_fingerprint(0x2014, 1, &bad));
        // A cell with no committed fingerprint cannot pass either.
        tally.record(expected.check_fingerprint(0x2014, 2, &good));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.notes[0].contains("cell 1"));
        assert!(tally.notes[1].contains("no committed fingerprint"));
    }

    #[test]
    fn malformed_expectations_are_rejected() {
        assert!(Expected::parse("0x2014 zz 1\n").is_err());
        assert!(Expected::parse("0x2014 1\n").is_err());
    }
}

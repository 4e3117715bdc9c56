//! Capture-once / replay-many: compact dynamic-instruction traces.
//!
//! The paper's methodology is trace-driven — the architectural instruction
//! stream is fixed while the timing model (predictor, confidence, recovery)
//! varies across a study. Re-running the functional [`Executor`] inline
//! inside every timing run therefore repeats identical work once per grid
//! cell. This module splits the two concerns:
//!
//! * [`Trace`] — a struct-of-arrays record of the dynamic stream, captured
//!   **once** per (program, length) from the executor, or parsed from its
//!   serialized form ([`Trace::parse`]) without copying.
//! * [`TraceCursor`] — a cheap replay iterator that reconstructs the exact
//!   [`DynInst`] sequence from a `&Trace` with no register file, no sparse
//!   memory and no per-µop semantics.
//! * [`InstSource`] — the abstraction the cycle-level core consumes: both
//!   `Executor` (streaming, capture path) and `TraceCursor` (replay path)
//!   implement it, and the two produce byte-identical streams.
//!
//! # Layout and memory footprint
//!
//! A trace is a decoded static µop table plus three dynamic sections kept
//! in their little-endian wire form — the same bytes [`Trace::to_bytes`]
//! writes — so one cursor serves every trace however it was built: a
//! capture keeps them in heap buffers, and a parsed trace (for instance
//! a memory-mapped trace-store entry) replays straight out of the buffer it
//! was parsed from. The cursor decodes with `from_le_bytes` on byte chunks,
//! so the sections may sit at any alignment.
//!
//! The layout exploits the µop encoding: `seq` is the record position,
//! `pc = index * 4` (µops are 4 bytes), `next_pc` defaults to the
//! fall-through and is stored only for diverging control flow, and the
//! optional payloads (result, effective address, store value) live in
//! one dense side-stream gated by a per-record flag byte. A record costs
//! 5 bytes fixed (static index + flags) plus 8 bytes per present payload —
//! ≈ 14–22 bytes for typical ALU/branch mixes versus the 88-byte in-memory
//! [`DynInst`], so a 250 k-µop capture (the default sweep sizing plus
//! in-flight slack) is ≈ 4–6 MB per workload. [`Trace::approx_bytes`]
//! reports the concrete number.
//!
//! # Examples
//!
//! ```
//! use vpsim_isa::{Executor, ProgramBuilder, Reg, Trace};
//!
//! let mut b = ProgramBuilder::new();
//! let (i, n) = (Reg::int(1), Reg::int(2));
//! b.load_imm(n, 10);
//! let top = b.bind_label();
//! b.addi(i, i, 1);
//! b.blt(i, n, top);
//! b.halt();
//! let program = b.build()?;
//!
//! // Capture once…
//! let trace = Trace::capture(&program, 1_000);
//! // …replay many times: the cursor yields the exact executor stream.
//! let replayed: Vec<_> = trace.cursor().collect();
//! let executed: Vec<_> = Executor::new(&program).collect();
//! assert_eq!(replayed, executed);
//! # Ok::<(), vpsim_isa::ProgramError>(())
//! ```

use crate::exec::{DynInst, Executor};
use crate::inst::{Inst, Opcode};
use crate::program::{Program, INST_BYTES};
use crate::reg::{Reg, NUM_ARCH_REGS};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A source of dynamic instructions for the cycle-level core.
///
/// Implemented by [`Executor`] (functional execution, streaming) and
/// [`TraceCursor`] (replay of a captured [`Trace`]). Both yield the same
/// stream for the same program, so a timing model driven through this
/// trait produces byte-identical results on either path.
pub trait InstSource {
    /// The next dynamic instruction, or `None` once the stream ends
    /// (program halted, fell off the end, or the trace is exhausted).
    fn next_inst(&mut self) -> Option<DynInst>;
}

impl InstSource for Executor<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.next()
    }
}

impl InstSource for TraceCursor<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.next()
    }
}

// Per-record flag bits.
const HAS_RESULT: u8 = 1 << 0;
const HAS_MEM_ADDR: u8 = 1 << 1;
const HAS_STORE_VALUE: u8 = 1 << 2;
const TAKEN: u8 = 1 << 3;
/// `next_pc != pc + 4`: the architectural successor is stored explicitly.
const DIVERGES: u8 = 1 << 4;
/// The flag bits that each carry one slot in the payload stream.
const PAYLOAD_BITS: u8 = HAS_RESULT | HAS_MEM_ADDR | HAS_STORE_VALUE | DIVERGES;

/// Payload slots consumed by `flags` (one per payload-bearing flag bit).
/// Counts eight flag bytes per word: a checkpoint resume scans up to its
/// position, and a byte-at-a-time loop is ~10× slower there.
fn payload_slots(flags: &[u8]) -> usize {
    const MASK: u64 = u64::from_ne_bytes([PAYLOAD_BITS; 8]);
    let bits = |f: &u8| (f & PAYLOAD_BITS).count_ones() as usize;
    let mut words = flags.chunks_exact(8);
    let whole: usize = words
        .by_ref()
        .map(|w| (u64::from_ne_bytes(w.try_into().unwrap()) & MASK).count_ones() as usize)
        .sum();
    whole + words.remainder().iter().map(bits).sum::<usize>()
}

/// Where a [`Trace`]'s three dynamic sections live, in wire form: three
/// heap buffers for a capture, or byte ranges of whatever container
/// [`Trace::parse`] was handed (a memory-mapped file, a read buffer…).
trait Sections: Send + Sync {
    /// Record index, flags, payload.
    fn sections(&self) -> [&[u8]; 3];
}

impl Sections for [Vec<u8>; 3] {
    fn sections(&self) -> [&[u8]; 3] {
        [&self[0], &self[1], &self[2]]
    }
}

/// The sections of a parsed trace: validated ranges of its buffer.
struct InPlace<B> {
    bytes: B,
    ranges: [Range<usize>; 3],
}

impl<B: AsRef<[u8]> + Send + Sync> Sections for InPlace<B> {
    fn sections(&self) -> [&[u8]; 3] {
        let buf = self.bytes.as_ref();
        self.ranges.clone().map(|r| &buf[r])
    }
}

/// A captured dynamic instruction stream in struct-of-arrays form.
///
/// Self-contained: the static µop table is copied in and the backing
/// buffer is owned, so a trace outlives the [`Program`] (or file) it came
/// from and can be shared across threads (e.g. via `Arc<Trace>`) without
/// lifetime ties. The `trace` module docs walk through the layout and
/// footprint arithmetic.
#[derive(Clone)]
pub struct Trace {
    /// Static µop table; record indices point into it.
    insts: Vec<Inst>,
    /// The dynamic sections: the static instruction index per record
    /// (`u32`, little-endian), a presence/outcome flag byte per record,
    /// and one interleaved stream of the optional payloads (`u64`,
    /// little-endian) in flag-bit order per record (result, effective
    /// address, store value, diverging `next_pc`) — replay consumes it
    /// strictly sequentially, so a cursor needs a single position.
    sections: Arc<dyn Sections>,
}

impl Trace {
    /// Capture up to `limit` dynamic instructions of `program` from a
    /// fresh [`Executor`] (fewer if the program halts first).
    ///
    /// A trace replayed into a timing model is byte-identical to inline
    /// execution as long as it covers every µop the model would fetch;
    /// for a run measuring `warmup + measure` commits that bound is
    /// `warmup + measure` plus the core's maximum in-flight capacity
    /// (`vpsim-uarch` exposes it as `CoreConfig::trace_budget`).
    pub fn capture(program: &Program, limit: u64) -> Trace {
        let (mut index, mut flags, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
        for di in Executor::new(program).take(limit) {
            debug_assert_eq!(di.seq, flags.len() as u64, "records must be dense from 0");
            let mut f = 0u8;
            let mut push = |bit: u8, value: Option<u64>| {
                if let Some(v) = value {
                    f |= bit;
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            };
            push(HAS_RESULT, di.result);
            push(HAS_MEM_ADDR, di.mem_addr);
            push(HAS_STORE_VALUE, di.store_value);
            push(DIVERGES, (di.next_pc != di.pc + INST_BYTES).then_some(di.next_pc));
            if di.taken {
                f |= TAKEN;
            }
            index.extend_from_slice(&di.index.to_le_bytes());
            flags.push(f);
        }
        Trace { insts: program.insts().to_vec(), sections: Arc::new([index, flags, payload]) }
    }

    /// The dynamic sections: record index, flags, payload.
    fn sections(&self) -> [&[u8]; 3] {
        self.sections.sections()
    }

    /// Number of dynamic instructions captured.
    pub fn len(&self) -> usize {
        self.sections()[1].len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate footprint in bytes (the three dynamic sections plus
    /// the static µop table).
    pub fn approx_bytes(&self) -> usize {
        let sections: usize = self.sections().iter().map(|s| s.len()).sum();
        self.insts.len() * std::mem::size_of::<Inst>() + sections
    }

    /// A replay cursor at record `pos` with payload position
    /// `payload_pos`; callers guarantee the pair is consistent.
    fn cursor_from(&self, pos: usize, payload_pos: usize) -> TraceCursor<'_> {
        let [index, flags, payload] = self.sections();
        TraceCursor {
            trace: self,
            insts: &self.insts,
            index: &index[pos * 4..],
            flags: &flags[pos..],
            payload: &payload[payload_pos * 8..],
            pos,
            payload_pos,
        }
    }

    /// A replay iterator over the captured stream, starting at `seq` 0.
    pub fn cursor(&self) -> TraceCursor<'_> {
        self.cursor_from(0, 0)
    }

    /// A replay cursor positioned at record `pos` (clamped to the trace
    /// length), as if a fresh cursor had consumed the first `pos` records.
    /// Costs one popcount pass over the flag bytes up to `pos`; use
    /// [`Trace::cursor_resume`] with a checkpointed payload position to
    /// restore a saved cursor.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_isa::{ProgramBuilder, Reg, Trace};
    /// let mut b = ProgramBuilder::new();
    /// b.load_imm(Reg::int(1), 3);
    /// b.addi(Reg::int(2), Reg::int(1), 1);
    /// b.halt();
    /// let trace = Trace::capture(&b.build()?, 100);
    /// let mut skipped = trace.cursor();
    /// skipped.next();
    /// assert_eq!(trace.cursor_at(1).collect::<Vec<_>>(), skipped.collect::<Vec<_>>());
    /// # Ok::<(), vpsim_isa::ProgramError>(())
    /// ```
    pub fn cursor_at(&self, pos: usize) -> TraceCursor<'_> {
        let pos = pos.min(self.len());
        self.cursor_from(pos, payload_slots(&self.sections()[1][..pos]))
    }

    /// Rebuild a cursor from checkpointed `(pos, payload_pos)` coordinates
    /// — the seek half of the sampling layer's serialized checkpoints.
    /// The pair is verified against the flag stream (one popcount pass up
    /// to `pos`, once per resume): coordinates from a stale, foreign or
    /// forged checkpoint are an error in every build, never an
    /// out-of-bounds replay.
    pub fn cursor_resume(
        &self,
        pos: usize,
        payload_pos: usize,
    ) -> Result<TraceCursor<'_>, &'static str> {
        if pos > self.len() {
            return Err("checkpoint position past the end of the trace");
        }
        if payload_pos != payload_slots(&self.sections()[1][..pos]) {
            return Err("checkpoint payload position does not match the trace at its position");
        }
        Ok(self.cursor_from(pos, payload_pos))
    }

    /// Serialize into the checksummed binary format: a magic/version
    /// header, the static µop table and the three dynamic sections each
    /// prefixed with a little-endian `u64` element count, and a trailing
    /// FNV-1a 64 checksum over everything before it.
    ///
    /// [`Trace::from_bytes`] round-trips the result exactly:
    ///
    /// ```
    /// use vpsim_isa::{ProgramBuilder, Reg, Trace};
    /// let mut b = ProgramBuilder::new();
    /// b.load_imm(Reg::int(1), 7);
    /// b.halt();
    /// let trace = Trace::capture(&b.build()?, 100);
    /// assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
    /// # Ok::<(), vpsim_isa::ProgramError>(())
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let [index, flags, payload] = self.sections();
        let mut out = Vec::with_capacity(
            MAGIC.len() + 12 * self.insts.len() + index.len() + flags.len() + payload.len() + 5 * 8,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.insts.len() as u64).to_le_bytes());
        for inst in &self.insts {
            out.push(inst.op.code());
            out.push(encode_reg(inst.dst));
            out.push(encode_reg(inst.src1));
            out.push(encode_reg(inst.src2));
            out.extend_from_slice(&inst.imm.to_le_bytes());
        }
        for (section, elem_size) in [(index, 4), (flags, 1), (payload, 8)] {
            out.extend_from_slice(&((section.len() / elem_size) as u64).to_le_bytes());
            out.extend_from_slice(section);
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialize a trace produced by [`Trace::to_bytes`] into a trace
    /// that owns a copy of `bytes` — [`Trace::parse`] over `bytes.to_vec()`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceDecodeError> {
        Trace::parse(bytes.to_vec())
    }

    /// Validate a serialized trace (produced by [`Trace::to_bytes`]) and
    /// replay it in place: the returned trace keeps `bytes` as its backing
    /// buffer, so the dynamic sections are never copied. `bytes` is any
    /// owned byte container — a `Vec<u8>`, a memory mapping…
    ///
    /// Every failure mode is an error, never a panic: bad magic, any
    /// truncation or trailing garbage, checksum mismatch (a single flipped
    /// bit anywhere is caught), unknown opcode/register codes, and
    /// cross-section inconsistencies (record counts that disagree, a
    /// record pointing past the µop table, a payload stream whose length
    /// does not match the flag bits). Only the small static µop table is
    /// decoded, in one allocation.
    pub fn parse<B>(bytes: B) -> Result<Trace, TraceDecodeError>
    where
        B: AsRef<[u8]> + Send + Sync + 'static,
    {
        use TraceDecodeError::*;
        let buf = bytes.as_ref();
        let mut r = Reader { bytes: buf, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(BadMagic);
        }
        let n_insts = r.len_prefix(12)?;
        let inst_bytes = r.take(n_insts * 12)?;
        let mut insts = Vec::with_capacity(n_insts);
        for rec in inst_bytes.chunks_exact(12) {
            insts.push(Inst {
                op: Opcode::from_code(rec[0]).ok_or(BadOpcode(rec[0]))?,
                dst: decode_reg(rec[1])?,
                src1: decode_reg(rec[2])?,
                src2: decode_reg(rec[3])?,
                imm: i64::from_le_bytes(rec[4..12].try_into().unwrap()),
            });
        }
        let n_index = r.len_prefix(4)?;
        let index = r.section(n_index * 4)?;
        let n_flags = r.len_prefix(1)?;
        let flags = r.section(n_flags)?;
        let n_payload = r.len_prefix(8)?;
        let payload = r.section(n_payload * 8)?;
        let body_end = r.pos;
        let found = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
        if r.pos != buf.len() {
            return Err(TrailingBytes(buf.len() - r.pos));
        }
        let expected = fnv1a(&buf[..body_end]);
        if found != expected {
            return Err(ChecksumMismatch { expected, found });
        }
        // Cross-section consistency: replay must never index out of
        // bounds, so a structurally broken (but checksum-valid) buffer is
        // rejected here rather than panicking in the cursor.
        if n_index != n_flags {
            return Err(Inconsistent("record index and flag sections differ in length"));
        }
        if buf[index.clone()]
            .chunks_exact(4)
            .any(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize >= insts.len())
        {
            return Err(Inconsistent("record points past the static µop table"));
        }
        if n_payload != payload_slots(&buf[flags.clone()]) {
            return Err(Inconsistent("payload stream length does not match flag bits"));
        }
        let sections = Arc::new(InPlace { bytes, ranges: [index, flags, payload] });
        Ok(Trace { insts, sections })
    }
}

impl PartialEq for Trace {
    /// Two traces are equal when they replay the same stream: same µop
    /// table and same dynamic sections, whatever buffer holds them.
    fn eq(&self, other: &Trace) -> bool {
        self.insts == other.insts && self.sections() == other.sections()
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("insts", &self.insts.len())
            .field("records", &self.len())
            .field("payload_slots", &(self.sections()[2].len() / 8))
            .finish()
    }
}

/// Magic + format version prefix of the [`Trace`] binary form. Bump the
/// trailing digit on any incompatible layout change.
const MAGIC: &[u8; 8] = b"vpstrc1\n";

/// Register slot encoding: `0xFF` is `None`, anything else a flat index.
const NO_REG: u8 = 0xFF;

fn encode_reg(reg: Option<Reg>) -> u8 {
    reg.map_or(NO_REG, |r| r.index() as u8)
}

fn decode_reg(code: u8) -> Result<Option<Reg>, TraceDecodeError> {
    match code {
        NO_REG => Ok(None),
        n if (n as usize) < NUM_ARCH_REGS => Ok(Some(Reg::from_index(n as usize))),
        n => Err(TraceDecodeError::BadReg(n)),
    }
}

/// FNV-1a 64 over a byte slice — the integrity checksum of the serialized
/// trace form. Not cryptographic; it guards against storage corruption
/// (bit flips, truncation), not adversaries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked little-endian reader over the serialized buffer.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        let end = self.pos.checked_add(n).ok_or(TraceDecodeError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(TraceDecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Skip `n` bytes and return their range in the buffer.
    fn section(&mut self, n: usize) -> Result<Range<usize>, TraceDecodeError> {
        let start = self.pos;
        self.take(n)?;
        Ok(start..self.pos)
    }

    /// A section's element count, validated against the bytes actually
    /// remaining (`elem_size` bytes per element) — so a corrupt count can
    /// never drive a huge allocation before the bounds check.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, TraceDecodeError> {
        let n = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        let n = usize::try_from(n).map_err(|_| TraceDecodeError::Truncated)?;
        let need = n.checked_mul(elem_size).ok_or(TraceDecodeError::Truncated)?;
        if need > self.bytes.len() - self.pos {
            return Err(TraceDecodeError::Truncated);
        }
        Ok(n)
    }
}

/// Why [`Trace::parse`] (or [`Trace::from_bytes`]) rejected a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer does not start with the trace magic/version prefix.
    BadMagic,
    /// The buffer ended before a declared section did.
    Truncated,
    /// Bytes remain after the checksum (count attached).
    TrailingBytes(usize),
    /// The FNV-1a 64 integrity checksum did not match the body.
    ChecksumMismatch {
        /// Checksum recomputed from the body.
        expected: u64,
        /// Checksum stored in the buffer.
        found: u64,
    },
    /// An opcode byte outside [`Opcode::ALL`].
    BadOpcode(u8),
    /// A register byte that is neither `0xFF` (none) nor a valid index.
    BadReg(u8),
    /// Sections are individually well-formed but mutually inconsistent.
    Inconsistent(&'static str),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "bad magic (not a serialized trace)"),
            TraceDecodeError::Truncated => write!(f, "truncated buffer"),
            TraceDecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after checksum")
            }
            TraceDecodeError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: computed {expected:#018x}, stored {found:#018x}")
            }
            TraceDecodeError::BadOpcode(code) => write!(f, "unknown opcode code {code}"),
            TraceDecodeError::BadReg(code) => write!(f, "unknown register code {code}"),
            TraceDecodeError::Inconsistent(why) => write!(f, "inconsistent sections: {why}"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

/// Replay iterator over a [`Trace`]: yields the captured [`DynInst`]
/// stream exactly, in order, at a few loads per µop, reading the record
/// index and payload sections straight out of their little-endian form.
///
/// Obtain one with [`Trace::cursor`]; any number of cursors may replay the
/// same shared trace concurrently.
#[derive(Clone)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    insts: &'a [Inst],
    /// The unconsumed tails of the three sections: each record pops its
    /// index, its flag byte and its payload slots off the front.
    index: &'a [u8],
    flags: &'a [u8],
    payload: &'a [u8],
    /// Next record position (== the `seq` it will yield).
    pos: usize,
    /// Next unconsumed slot of the interleaved payload stream.
    payload_pos: usize,
}

impl TraceCursor<'_> {
    /// Record position — the `seq` the next [`InstSource::next_inst`] call
    /// will yield.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Position in the interleaved payload stream. Serialize it next to
    /// [`TraceCursor::pos`] in a checkpoint and hand both back to
    /// [`Trace::cursor_resume`] to restore the cursor.
    pub fn payload_pos(&self) -> usize {
        self.payload_pos
    }

    /// Seek to the start of interval `index` of a `period`-sized
    /// partitioning that begins at record `base` — the addressing scheme
    /// of the sampling layer (`base` is the end of the global warm-up,
    /// interval `i` covers records `[base + i·period, base + (i+1)·period)`).
    /// Positions past the end of the trace clamp to the end. Costs one
    /// popcount pass over the flag bytes up to the target.
    pub fn seek_interval(&mut self, base: u64, period: u64, index: u64) {
        let target = base.saturating_add(index.saturating_mul(period));
        *self = self.trace.cursor_at(usize::try_from(target).unwrap_or(usize::MAX));
    }
}

impl fmt::Debug for TraceCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCursor")
            .field("pos", &self.pos)
            .field("payload_pos", &self.payload_pos)
            .field("left", &self.flags.len())
            .finish()
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        const VALID: &str = "sections are validated against the flag stream";
        let (&flags, rest) = self.flags.split_first()?;
        self.flags = rest;
        let (index, rest) = self.index.split_first_chunk().expect(VALID);
        self.index = rest;
        let index = u32::from_le_bytes(*index);
        let pc = index as u64 * INST_BYTES;
        // Payloads were pushed in flag-bit order; consume them the same
        // way from the single sequential stream.
        let mut pull = |bit: u8| {
            if flags & bit != 0 {
                let (v, rest) = self.payload.split_first_chunk().expect(VALID);
                self.payload = rest;
                self.payload_pos += 1;
                Some(u64::from_le_bytes(*v))
            } else {
                None
            }
        };
        let result = pull(HAS_RESULT);
        let mem_addr = pull(HAS_MEM_ADDR);
        let store_value = pull(HAS_STORE_VALUE);
        let next_pc = match pull(DIVERGES) {
            Some(target) => target,
            None => pc + INST_BYTES,
        };
        let seq = self.pos as u64;
        self.pos += 1;
        Some(DynInst {
            seq,
            pc,
            index,
            inst: self.insts[index as usize],
            result,
            mem_addr,
            store_value,
            taken: flags & TAKEN != 0,
            next_pc,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.flags.len(), Some(self.flags.len()))
    }
}

impl ExactSizeIterator for TraceCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Reg;

    /// A program exercising every record shape: ALU, loads, stores, taken
    /// and not-taken branches, calls/returns, an indirect jump, and halt.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let (i, n, acc, addr, t) =
            (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
        let lr = Reg::int(31);
        b.load_imm(n, 40);
        b.load_imm(addr, 0x1000);
        let f = b.label();
        let top = b.bind_label();
        b.add(acc, acc, i);
        b.store(addr, acc, 0);
        b.load(t, addr, 0);
        b.call(lr, f);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        b.bind(f);
        b.ret(lr);
        b.build().unwrap()
    }

    #[test]
    fn capture_then_replay_is_the_executor_stream() {
        let p = mixed_program();
        let executed: Vec<_> = Executor::new(&p).collect();
        let trace = Trace::capture(&p, u64::MAX);
        assert_eq!(trace.len(), executed.len());
        let replayed: Vec<_> = trace.cursor().collect();
        assert_eq!(replayed, executed);
    }

    #[test]
    fn truncated_capture_is_a_prefix() {
        let p = mixed_program();
        let executed: Vec<_> = Executor::new(&p).collect();
        for limit in [0usize, 1, 7, 50] {
            let trace = Trace::capture(&p, limit as u64);
            assert_eq!(trace.len(), limit.min(executed.len()));
            let replayed: Vec<_> = trace.cursor().collect();
            assert_eq!(replayed[..], executed[..trace.len()]);
        }
    }

    #[test]
    fn cursor_is_restartable_and_sized() {
        let p = mixed_program();
        let trace = Trace::capture(&p, 25);
        let first: Vec<_> = trace.cursor().collect();
        let mut cursor = trace.cursor();
        assert_eq!(cursor.len(), 25);
        cursor.next();
        assert_eq!(cursor.len(), 24);
        let second: Vec<_> = trace.cursor().collect();
        assert_eq!(first, second, "cursors are independent");
    }

    #[test]
    fn inst_source_paths_agree() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let mut exec = Executor::new(&p);
        let mut cursor = trace.cursor();
        loop {
            let (a, b) = (exec.next_inst(), cursor.next_inst());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn footprint_is_compact_and_reported() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let bytes = trace.approx_bytes();
        assert!(bytes > 0);
        // The SoA form must undercut materializing the DynInst stream.
        let materialized = trace.len() * std::mem::size_of::<DynInst>();
        assert!(bytes < materialized, "{bytes} vs {materialized}");
    }

    #[test]
    fn serialized_trace_round_trips_exactly() {
        let p = mixed_program();
        for limit in [0u64, 1, 7, u64::MAX] {
            let trace = Trace::capture(&p, limit);
            let bytes = trace.to_bytes();
            let back = Trace::from_bytes(&bytes).unwrap();
            assert_eq!(back, trace, "limit {limit}");
            assert_eq!(back.to_bytes(), bytes, "a parsed trace re-serializes identically");
            let replayed: Vec<_> = back.cursor().collect();
            let original: Vec<_> = trace.cursor().collect();
            assert_eq!(replayed, original, "limit {limit}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let p = mixed_program();
        let bytes = Trace::capture(&p, 30).to_bytes();
        // Flip one bit per byte across the whole buffer: whatever the
        // position (magic, section, checksum itself), decode must fail.
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(Trace::from_bytes(&corrupt).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let p = mixed_program();
        let bytes = Trace::capture(&p, 30).to_bytes();
        for cut in [0, 1, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(Trace::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(Trace::from_bytes(&extended), Err(TraceDecodeError::TrailingBytes(1)));
        assert_eq!(Trace::from_bytes(b"not a trace at all"), Err(TraceDecodeError::BadMagic));
    }

    #[test]
    fn checksum_error_reports_both_values() {
        let p = mixed_program();
        let mut bytes = Trace::capture(&p, 10).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match Trace::from_bytes(&bytes) {
            Err(TraceDecodeError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    /// Serialize hand-edited parts in the wire format and seal them with
    /// a fresh checksum, so decoding gets past the integrity check.
    fn sealed(n_insts: usize, insts: &[u8], index: &[u8], flags: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&(n_insts as u64).to_le_bytes());
        out.extend_from_slice(insts);
        for (section, elem_size) in [(index, 4), (flags, 1), (payload, 8)] {
            out.extend_from_slice(&((section.len() / elem_size) as u64).to_le_bytes());
            out.extend_from_slice(section);
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn checksum_valid_hostile_bodies_are_rejected_precisely() {
        use TraceDecodeError::*;
        let trace = Trace::capture(&mixed_program(), 30);
        let n = trace.insts.len();
        let inst_bytes = trace.to_bytes()[16..16 + 12 * n].to_vec();
        let [index, flags, payload] = trace.sections();
        let (index, flags, payload) = (index.to_vec(), flags.to_vec(), payload.to_vec());
        // The unedited parts reassemble into the exact serialized trace.
        assert_eq!(sealed(n, &inst_bytes, &index, &flags, &payload), trace.to_bytes());
        type Mutation = fn(&mut Vec<u8>, &mut Vec<u8>, &mut Vec<u8>, &mut Vec<u8>, usize);
        let rows: [(&str, Mutation, TraceDecodeError); 5] = [
            (
                "index and flags disagree on the record count",
                |_, _, flags, _, _| {
                    flags.pop();
                },
                Inconsistent("record index and flag sections differ in length"),
            ),
            (
                "a record points past the µop table",
                |_, index, _, _, n| index[..4].copy_from_slice(&(n as u32).to_le_bytes()),
                Inconsistent("record points past the static µop table"),
            ),
            (
                "the payload stream has a slot no flag bit accounts for",
                |_, _, _, payload, _| payload.extend_from_slice(&7u64.to_le_bytes()),
                Inconsistent("payload stream length does not match flag bits"),
            ),
            ("an unknown opcode", |insts, _, _, _, _| insts[0] = 0xEE, BadOpcode(0xEE)),
            ("an unknown register", |insts, _, _, _, _| insts[1] = 0x80, BadReg(0x80)),
        ];
        for (what, mutate, want) in rows {
            let (mut i, mut x, mut f, mut p) =
                (inst_bytes.clone(), index.clone(), flags.clone(), payload.clone());
            mutate(&mut i, &mut x, &mut f, &mut p, n);
            let bytes = sealed(n, &i, &x, &f, &p);
            assert_eq!(Trace::from_bytes(&bytes), Err(want), "{what}");
        }
    }

    #[test]
    fn cursor_at_matches_a_skipped_fresh_cursor() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        for pos in [0, 1, 7, trace.len() / 2, trace.len() - 1, trace.len(), trace.len() + 10] {
            let mut skipped = trace.cursor();
            for _ in 0..pos.min(trace.len()) {
                skipped.next();
            }
            let seeked = trace.cursor_at(pos);
            assert_eq!(seeked.pos(), pos.min(trace.len()));
            assert_eq!(seeked.collect::<Vec<_>>(), skipped.collect::<Vec<_>>(), "pos {pos}");
        }
    }

    #[test]
    fn seek_interval_addresses_fixed_size_intervals() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let (base, period) = (5u64, 16u64);
        let mut cursor = trace.cursor();
        for i in 0..4 {
            cursor.seek_interval(base, period, i);
            let want = ((base + i * period) as usize).min(trace.len());
            assert_eq!(cursor.pos(), want, "interval {i}");
            assert_eq!(
                cursor.clone().collect::<Vec<_>>(),
                trace.cursor_at(want).collect::<Vec<_>>()
            );
        }
        // Seeking far past the end clamps to an exhausted cursor.
        cursor.seek_interval(base, period, u64::MAX);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn cursor_resume_restores_checkpointed_coordinates() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let mut cursor = trace.cursor();
        for _ in 0..trace.len() / 2 {
            cursor.next();
        }
        let (pos, payload_pos) = (cursor.pos(), cursor.payload_pos());
        let resumed = trace.cursor_resume(pos, payload_pos).unwrap();
        assert_eq!(resumed.collect::<Vec<_>>(), cursor.collect::<Vec<_>>());
        // Out-of-bounds coordinates are rejected, never replayed.
        assert!(trace.cursor_resume(trace.len() + 1, 0).is_err());
        assert!(trace.cursor_resume(0, usize::MAX).is_err());
    }

    #[test]
    fn cursor_resume_rejects_inconsistent_coordinates() {
        let trace = Trace::capture(&mixed_program(), 3);
        let mut end = trace.cursor();
        end.by_ref().for_each(drop);
        let payload_len = end.payload_pos();
        assert!(payload_len > 0, "the capture carries payloads");
        // Both coordinates are in bounds, but they do not belong together:
        // record 0 starts at payload slot 0. Replaying this pair would read
        // past the payload stream.
        assert!(trace.cursor_resume(0, payload_len).is_err());
        assert!(trace.cursor_resume(trace.len(), payload_len - 1).is_err());
        assert!(trace.cursor_resume(trace.len(), payload_len).is_ok());
    }

    #[test]
    fn empty_capture_is_empty() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let trace = Trace::capture(&p, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.cursor().next(), None);
    }

    #[test]
    fn view_cursor_replays_the_owned_stream_exactly() {
        // A trace parsed in place from its serialized bytes replays the
        // capture's stream, through both the Iterator and InstSource faces,
        // and any number of cursors may walk it at once.
        let p = mixed_program();
        for limit in [0u64, 1, 7, u64::MAX] {
            let trace = Trace::capture(&p, limit);
            let parsed = Trace::parse(trace.to_bytes()).unwrap();
            assert_eq!(parsed.len(), trace.len(), "limit {limit}");
            let mut cursor = parsed.cursor();
            assert_eq!(cursor.len(), trace.len());
            let (a, b) = (parsed.cursor(), parsed.cursor());
            let owned: Vec<_> = trace.cursor().collect();
            assert_eq!(a.collect::<Vec<_>>(), owned, "limit {limit}");
            assert_eq!(b.collect::<Vec<_>>(), owned, "limit {limit}");
            let mut trace_cursor = trace.cursor();
            loop {
                let (a, b) = (cursor.next_inst(), trace_cursor.next_inst());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn blob_rejects_exactly_what_from_bytes_rejects() {
        let p = mixed_program();
        let bytes = Trace::capture(&p, 30).to_bytes();
        // Parsing in place over another owned container rejects every
        // single-bit flip and truncation with the same error as the
        // copying `from_bytes` path.
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            let copied = Trace::from_bytes(&corrupt);
            let in_place = Trace::parse(corrupt.into_boxed_slice());
            assert_eq!(copied.as_ref().err(), in_place.as_ref().err(), "flip at byte {pos}");
            assert!(in_place.is_err(), "flip at byte {pos} went undetected");
        }
        for cut in [0, 1, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(Trace::parse(bytes[..cut].to_vec()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn blob_owns_its_buffer_and_views_are_shareable() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        // The parsed trace takes ownership of the buffer it replays from…
        let parsed = Arc::new(Trace::parse(trace.to_bytes()).unwrap());
        // …so clones and cursors on other threads replay it concurrently.
        let want: Vec<_> = trace.cursor().collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let parsed = Arc::clone(&parsed);
                let want = &want;
                scope.spawn(move || assert_eq!(&parsed.cursor().collect::<Vec<_>>(), want));
            }
        });
        assert_eq!(*parsed, parsed.as_ref().clone());
    }

    #[test]
    fn view_cursor_at_matches_owned_cursor_at() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let parsed = Trace::parse(trace.to_bytes()).unwrap();
        for pos in [0, 1, 7, trace.len() / 2, trace.len(), trace.len() + 10] {
            assert_eq!(
                parsed.cursor_at(pos).collect::<Vec<_>>(),
                trace.cursor_at(pos).collect::<Vec<_>>(),
                "pos {pos}"
            );
        }
    }
}
